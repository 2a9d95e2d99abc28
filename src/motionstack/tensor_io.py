"""Raster frame and tensor container I/O.

Two on-disk formats make up the interchange surface of the whole toolkit:

* binary PPM (P6, maxval 255) for input frames, and
* the MTENSOR container for everything numeric (stacks, weights, features).

An MTENSOR file is: the 8-byte magic ``MTENSOR\\0``, a 4-byte little-endian
header length, a UTF-8 JSON header ``{"dtype":"u8"|"f32","shape":[...]}``
padded with spaces so the payload starts on a 64-byte file offset, then the
little-endian row-major payload. Tensors are plain numpy arrays restricted
to uint8/float32 with 1 to 4 dimensions.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FrameIndexParseError, PpmError, TensorFormatError

MAGIC = b"MTENSOR\x00"
MAX_DIMS = 4

_HEADER_ALIGN = 64
_DTYPE_BY_CODE = {"u8": np.dtype("<u1"), "f32": np.dtype("<f4")}
_CODE_BY_DTYPE = {np.dtype(np.uint8): "u8", np.dtype(np.float32): "f32"}
_WHITESPACE = b" \t\n\r\x0b\x0c"
_PPM_HEADER_PREFIX = 256


def write_tensor(arr: np.ndarray, path: str | Path) -> None:
    """Write a uint8 or float32 array of 1 to 4 positive dims as an MTENSOR container at ``path``.

    The array is converted once, to little-endian row-major order, before the
    file is opened, so a failed conversion leaves no file; the payload is then
    written from that array's own buffer, with no copy to ``bytes``.
    """
    arr = np.asarray(arr)
    if arr.dtype not in _CODE_BY_DTYPE:
        raise ValueError(f"unsupported tensor dtype {arr.dtype}; expected uint8 or float32")
    if not 1 <= arr.ndim <= MAX_DIMS:
        raise ValueError(f"tensor must have 1..{MAX_DIMS} dims, got shape {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ValueError(f"tensor dims must be positive, got shape {arr.shape}")
    code = _CODE_BY_DTYPE[arr.dtype]
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_BY_CODE[code])
    header = json.dumps({"dtype": code, "shape": list(arr.shape)}, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(len(MAGIC) + 4 + len(header)) % _HEADER_ALIGN)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read an MTENSOR container back into a numpy array.

    Raises TensorFormatError on bad magic, a malformed header, an unknown
    dtype code, or a header/payload length mismatch. The payload length
    comes from the file size, so a header declaring more than the file
    holds fails before anything is allocated; the payload is then read
    straight into the returned array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 4)
        if len(prefix) < len(MAGIC) + 4 or prefix[: len(MAGIC)] != MAGIC:
            raise TensorFormatError(f"{path}: not an MTENSOR container (bad magic)")
        (header_len,) = struct.unpack("<I", prefix[len(MAGIC) :])
        body = len(prefix)
        if size < body + header_len:
            raise TensorFormatError(f"{path}: truncated header ({header_len} bytes declared)")
        try:
            meta = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
            raise TensorFormatError(f"{path}: unparseable header: {exc}") from exc
        if not isinstance(meta, dict) or "dtype" not in meta or "shape" not in meta:
            raise TensorFormatError(f"{path}: header missing dtype/shape")
        code = meta["dtype"]
        if not isinstance(code, str) or code not in _DTYPE_BY_CODE:
            raise TensorFormatError(f"{path}: unknown dtype code {code!r}")
        shape = meta["shape"]
        if (
            not isinstance(shape, list)
            or not 1 <= len(shape) <= MAX_DIMS
            or not all(type(d) is int and d >= 1 for d in shape)  # a JSON true is no dimension
        ):
            raise TensorFormatError(f"{path}: invalid shape {shape!r}")
        dtype = _DTYPE_BY_CODE[code]
        expected = math.prod(shape) * dtype.itemsize  # Python ints: an int64 product can wrap to a small size
        held = size - body - header_len
        if held == expected:
            arr = np.empty(shape, dtype=dtype)
            held = fh.readinto(memoryview(arr).cast("B"))  # short only if the file shrank meanwhile
    if held != expected:
        raise TensorFormatError(
            f"{path}: payload length mismatch: header declares {expected} bytes, file holds {held}"
        )
    return arr


_LAST_DIGIT_RUN = re.compile(r"(\d+)(?!.*\d)")


def parse_frame_index(name: str | Path) -> int:
    """Derive a frame index from the last run of decimal digits in the file stem."""
    stem = Path(name).stem
    match = _LAST_DIGIT_RUN.search(stem)
    if match is None:
        raise FrameIndexParseError(f"no frame number in file stem {stem!r}")
    return int(match.group(1))


@dataclass(eq=False)
class ImageFrame:
    """A decoded RGB frame: interleaved 8-bit pixel buffer plus its index."""

    width: int
    height: int
    pixels: np.ndarray
    frame_index: int = 0

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.uint8).reshape(-1)
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.pixels.size != 3 * self.width * self.height:
            raise ValueError(
                f"pixel buffer has {self.pixels.size} bytes, expected {3 * self.width * self.height}"
            )
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be nonnegative, got {self.frame_index}")

    def rgb(self) -> np.ndarray:
        """Pixels viewed as an (H, W, 3) array."""
        return self.pixels.reshape(self.height, self.width, 3)


def _next_token(data: bytes, pos: int, path: Path) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos] in _WHITESPACE:
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise PpmError(f"{path}: unexpected end of PPM header")
    return data[start:pos], pos


def _ppm_header(data: bytes, path: Path, size: int) -> tuple[int, int, int, int]:
    """Check a P6 header at the start of ``data``, a prefix of the ``size``-byte file ``path``.

    Returns ``(width, height, payload offset, frame index)``. These are all
    of ``read_ppm``'s rules, in the order it applies them.
    """
    magic, pos = _next_token(data, 0, path)
    if magic != b"P6":
        raise PpmError(f"{path}: unsupported format {magic!r}, only binary P6 is accepted")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos, path)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise PpmError(f"{path}: non-numeric header token {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PpmError(f"{path}: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise PpmError(f"{path}: maxval {maxval} unsupported, expected 255")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PpmError(f"{path}: missing whitespace after maxval")
    start = pos + 1
    if size - start < 3 * width * height:
        raise PpmError(f"{path}: payload holds {size - start} bytes, header promises {3 * width * height}")
    return width, height, start, parse_frame_index(path)


def read_ppm(path: str | Path) -> ImageFrame:
    """Decode a binary P6 PPM file with maxval 255.

    The frame index is parsed from the trailing digits of the file stem.
    """
    path = Path(path)
    data = path.read_bytes()
    width, height, start, index = _ppm_header(data, path, len(data))
    return ImageFrame(
        width=width,
        height=height,
        pixels=np.frombuffer(data, dtype=np.uint8, count=3 * width * height, offset=start).copy(),
        frame_index=index,
    )


def read_ppm_header(path: str | Path) -> tuple[int, int, int]:
    """``(width, height, frame index)`` of a PPM file that ``read_ppm`` would accept.

    Applies every rule of ``read_ppm`` and raises the same errors, but reads
    only the header: the payload length comes from the file size. A header
    that does not parse within the bytes read so far (long ``#`` comments)
    is read further, up to the whole file, before its error is raised.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(_PPM_HEADER_PREFIX)
        while True:
            try:
                width, height, _, index = _ppm_header(data, path, size)
                return width, height, index
            except PpmError:
                more = fh.read(len(data))
                if not more:
                    raise
                data += more


def write_ppm(frame: ImageFrame, path: str | Path) -> None:
    """Write a frame as a binary P6 PPM with maxval 255."""
    with open(path, "wb") as fh:
        fh.write(f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        fh.write(memoryview(np.ascontiguousarray(frame.pixels, dtype=np.uint8)))


def to_planar(frame: ImageFrame) -> np.ndarray:
    """Repack an interleaved frame as a uint8 [3, H, W] tensor (R=0, G=1, B=2)."""
    return np.ascontiguousarray(np.transpose(frame.rgb(), (2, 0, 1)))
