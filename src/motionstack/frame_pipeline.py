"""Temporal stacking of video frames into multi-channel detector inputs.

Four stacking layouts are supported, all channel-first uint8 with the newest
data in the lowest channels:

* ``rgb_seq``:  I_t, I_(t-1), ..., I_(t-N+1)            -> 3N channels
* ``rgb_int``:  I_t, I_(t-D)                            -> 6 channels
* ``diff_seq``: I_t, d(t-1,1), ..., d(t-N+1,1)          -> 3N channels
* ``diff_int``: I_t, d(t-D,D)                           -> 6 channels

where d(s, D) is the difference image between frame s and frame s+D,
remapped into unsigned bytes: ``floor((I_(s+D) - I_s + 255) / 2)``. Equal
pixels land on 127, brightening saturates toward 255, darkening toward 0.

The target frame t must exist in the source. Past lookups resolve through
the recorded frame indices: an index that falls in a gap snaps to the
nearest earlier frame, and anything before the first frame clamps to it.
Stacks built at the start of a sequence therefore repeat the earliest
frame, which turns difference channels into flat 127.

A ``FrameSequence`` owns a frame directory: it numbers each frame by the
last run of digits in its file stem (``frame_000012.ppm`` is frame 12),
names by its path each file it rejects, and decodes each frame, as its
planar uint8 [3, H, W] array, when first asked for it. A layout reaches at
most ``reach`` frames back (``n - 1``, or ``delta`` for the pair layouts),
so a stack run holds the layout's window of ``(reach + 1) * 3·W·H`` bytes,
not the video, and fills one stack buffer in place for every target.
"""

from __future__ import annotations

import re
import shutil
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataValidationError, FrameLookupError
from .jsonio import _echo, write_json
from .tensor_io import read_ppm, read_ppm_header, to_planar, write_tensor

VARIANTS = ("rgb_seq", "rgb_int", "diff_seq", "diff_int")
MANIFEST_NAME = "manifest.json"
_SEQ_VARIANTS = ("rgb_seq", "diff_seq")
_DIFF_VARIANTS = ("diff_seq", "diff_int")

PAPER_N_RANGE = range(1, 11)
PAPER_DELTA_RANGE = range(1, 6)

_LAST_DIGIT_RUN = re.compile(r"(\d+)(?!.*\d)")


def parse_frame_index(path: str | Path) -> int | None:
    """A frame or label file's frame index, the last run of decimal digits in its stem; None without one."""
    match = _LAST_DIGIT_RUN.search(Path(path).stem)
    return None if match is None else int(match.group(1))


def normalize_variant(name: str) -> str:
    variant = name.strip().lower().replace("-", "_")
    if variant not in VARIANTS:
        raise ValueError(f"unknown stacking variant {_echo(name)}; expected one of {', '.join(VARIANTS)}")
    return variant


@dataclass(frozen=True)
class InputConfig:
    """One stacking layout plus its temporal parameter.

    Sequence variants are parameterized by ``n`` (delta pinned to 1); pair
    variants by ``delta`` (n pinned to 2, giving the fixed 6 channels).
    ``range_warning`` flags parameters outside the ranges the approach was
    evaluated on (n in 1..10, delta in 1..5); such configs still build.
    """

    variant: str
    n: int = 1
    delta: int = 1

    def __post_init__(self) -> None:
        variant = normalize_variant(self.variant)
        object.__setattr__(self, "variant", variant)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if variant in _SEQ_VARIANTS:
            object.__setattr__(self, "delta", 1)
        else:
            object.__setattr__(self, "n", 2)

    @property
    def channels(self) -> int:
        return 3 * self.n

    @property
    def offsets(self) -> tuple[int, ...]:
        """How far back from the target each stacked frame lies, newest first."""
        return tuple(range(self.n)) if self.variant in _SEQ_VARIANTS else (0, self.delta)

    @property
    def range_warning(self) -> bool:
        if self.variant in _SEQ_VARIANTS:
            return self.n not in PAPER_N_RANGE
        return self.delta not in PAPER_DELTA_RANGE

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.n,
            "delta": self.delta,
            "channels": self.channels,
            "range_warning": self.range_warning,
            "sequence_start": "clamp_to_earliest",
        }


@dataclass(frozen=True, eq=False)
class StackedInput:
    """A stacked [C, H, W] uint8 tensor plus where it came from."""

    tensor: np.ndarray = field(repr=False)
    target_frame_index: int
    config: InputConfig


def diff_image(later: np.ndarray, earlier: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Byte-range difference image ``floor((later - earlier + 255) / 2)``.

    Accepts planar uint8 arrays of matching shape. With ``b = ~earlier``
    (``255 - earlier``) it is the halving add ``(later & b) + ((later ^ b) >> 1)``,
    so no temporary is wider than a byte; zero motion lands on 127. As in
    numpy, ``out`` (a uint8 array of the same shape, sharing no memory with
    either input) receives the result and is returned.
    """
    if later.dtype != np.uint8 or earlier.dtype != np.uint8:
        raise ValueError("difference images are defined on uint8 frames")
    if later.shape != earlier.shape:
        raise ValueError(f"frame shapes differ: {later.shape} vs {earlier.shape}")
    if out is not None:
        if out.dtype != np.uint8 or out.shape != later.shape:
            raise ValueError(f"out must be uint8 of shape {later.shape}, got {out.dtype} {out.shape}")
        if np.shares_memory(out, later) or np.shares_memory(out, earlier):
            raise ValueError("out must not overlap the frames it is computed from")
    flipped = ~earlier
    out = np.bitwise_and(later, flipped, out=out)
    np.bitwise_xor(later, flipped, out=flipped)
    flipped >>= 1
    out += flipped
    return out


class FrameSequence:
    """The same-sized PPM frames of one directory, addressable by frame index.

    ``planar`` decodes a frame on first use and keeps it, so random access
    to every frame holds the whole video, while a stack run holds only the
    layout's window, ``(reach + 1) * 3·W·H`` bytes: ``build_dataset`` drops
    each frame once no later target reaches it. May be empty; lookups on
    an empty sequence fail, but dataset building over one is a no-op.
    """

    def __init__(self, paths: dict[int, Path], size: tuple[int, int]):
        self._indices = sorted(paths)
        self._paths = paths
        self._size = size
        self._planes: dict[int, np.ndarray] = {}

    @classmethod
    def from_dir(cls, dir_path: str | Path) -> "FrameSequence":
        """Index every ``*.ppm`` file in a directory by the frame index in its name.

        No frame is decoded, yet a bad directory fails here, each error led by
        the file's path: in name order, each header must pass ``read_ppm``'s
        rules and each stem hold an index; no two files may share an index,
        and every frame must have the lowest index's size. A path that is no
        directory raises ``FileNotFoundError``.
        """
        dir_path = Path(dir_path)
        if not dir_path.is_dir():
            raise FileNotFoundError(f"frame directory {dir_path} does not exist")
        paths: dict[int, Path] = {}
        sizes: dict[int, tuple[int, int]] = {}
        for path in sorted(dir_path.glob("*.ppm")):
            size = read_ppm_header(path)
            index = parse_frame_index(path)
            if index is None:
                raise DataValidationError(f"{path}: no frame number in file stem")
            if index in paths:
                raise DataValidationError(
                    f"{path}: duplicate frame index {_echo(index)}, shared with {paths[index].name}"
                )
            paths[index] = path
            sizes[index] = size
        source = cls(paths, sizes[min(sizes)] if sizes else (0, 0))
        for index in source._indices:
            source._check_size(index, *sizes[index])
        return source

    def __len__(self) -> int:
        return len(self._indices)

    @property
    def indices(self) -> list[int]:
        return list(self._indices)

    def __contains__(self, index: int) -> bool:
        return index in self._paths

    def resolve(self, requested: int) -> int:
        """Map a requested index to the nearest recorded index at or before it.

        Requests before the first frame clamp to the first frame.
        """
        if not self._indices:
            raise FrameLookupError("empty frame sequence")
        pos = bisect_right(self._indices, requested) - 1
        if pos < 0:
            pos = 0
        return self._indices[pos]

    def planar(self, requested: int) -> np.ndarray:
        """The resolved frame as a uint8 [3, H, W] array, decoded by ``read_ppm`` on first use."""
        index = self.resolve(requested)
        plane = self._planes.get(index)
        if plane is None:
            frame = read_ppm(self._paths[index])
            self._check_size(index, frame.width, frame.height)
            plane = self._planes[index] = to_planar(frame)
        return plane

    def _check_size(self, index: int, width: int, height: int) -> None:
        if (width, height) != self._size:
            raise DataValidationError(
                f"{self._paths[index]}: frame {_echo(index)} is {width}x{height}, "
                f"sequence started at {self._size[0]}x{self._size[1]}"
            )

    def _drop_before(self, index: int) -> None:
        """Forget the decoded frames below ``index``; ``planar`` decodes them again if asked."""
        for held in [i for i in self._planes if i < index]:
            del self._planes[held]


def build_input(source: FrameSequence, t: int, config: InputConfig) -> StackedInput:
    """Assemble the stacked input for target frame ``t``.

    ``t`` itself must be present in the source; only the past frames a
    layout reaches for are clamp-resolved. Channel order is newest-first,
    so channels 0..2 are always the RGB planes of frame ``t``.
    """
    return StackedInput(tensor=_stack(source, t, config), target_frame_index=t, config=config)


def _stack(source: FrameSequence, t: int, config: InputConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Target ``t``'s stack, written into ``out`` (uint8 [channels, H, W]) or a new array."""
    if t not in source:  # past lookups below may clamp; the target may not
        raise FrameLookupError(f"no frame with index {t}")
    planes = [source.planar(t - k) for k in config.offsets]
    if out is None:
        out = np.empty((config.channels, *planes[0].shape[1:]), dtype=np.uint8)
    out[:3] = planes[0]
    for k in range(1, len(planes)):
        part = out[3 * k : 3 * k + 3]
        if config.variant in _DIFF_VARIANTS:
            diff_image(planes[k - 1], planes[k], out=part)
        else:
            part[...] = planes[k]
    return out


def _label_files_by_index(labels_dir: Path) -> dict[int, Path]:
    mapping: dict[int, Path] = {}
    for path in sorted(labels_dir.iterdir()):
        index = parse_frame_index(path)
        if index is None or not path.is_file():
            continue
        if index in mapping:
            raise DataValidationError(
                f"{path}: two label files claim frame {_echo(index)}, this one and {mapping[index].name}"
            )
        mapping[index] = path
    return mapping


def build_dataset(
    source: FrameSequence,
    config: InputConfig,
    out_dir: str | Path,
    labels_dir: str | Path | None = None,
) -> dict:
    """Write one stacked tensor per source frame plus a manifest.

    Each target frame t becomes ``stack_<t>.mten`` in ``out_dir``. When
    ``labels_dir`` is given, the per-frame label file (matched by the frame
    index in its stem) is copied verbatim next to the stacks and recorded
    in the manifest; a missing ``labels_dir``, two label files for one frame
    or a frame without a label file is an error, raised before ``out_dir``
    or anything in it is touched. The manifest is returned and also written
    to ``out_dir/manifest.json``, after every stack; an existing manifest is
    deleted before the first stack, so a run that fails part-way leaves
    none. An empty source yields an empty manifest. Every stack is built in
    one reused buffer.
    """
    labels = {}
    if labels_dir is not None:
        labels_dir = Path(labels_dir)
        if not labels_dir.is_dir():
            raise FileNotFoundError(f"labels directory {labels_dir} does not exist")
        labels = _label_files_by_index(labels_dir)
        for t in source.indices:
            if t not in labels:
                raise DataValidationError(f"no label file for frame {t} in {labels_dir}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # An earlier run's manifest would describe stacks this run may overwrite,
    # and the new one is written only once every stack is.
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)

    items = []
    reach = max(config.offsets)
    stack = None  # one buffer, refilled for every target
    for t in source.indices:
        source._drop_before(source.resolve(t - reach))  # no later target reaches further back
        tensor_name = f"stack_{t}.mten"
        stack = _stack(source, t, config, stack)
        write_tensor(stack, out_dir / tensor_name)
        label_name = None
        if labels_dir is not None:
            label_name = labels[t].name
            shutil.copyfile(labels[t], out_dir / label_name)
        items.append({"index": t, "tensor": tensor_name, "label": label_name})

    manifest = {"config": config.to_dict(), "items": items}
    write_json(manifest, out_dir / MANIFEST_NAME)
    return manifest
