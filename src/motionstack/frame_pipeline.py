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

A ``FrameSequence`` holds each frame once, as its planar uint8 [3, H, W]
array, so a loaded video costs about ``3·W·H`` bytes per frame.
"""

from __future__ import annotations

import shutil
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataValidationError, FrameLookupError
from .jsonio import write_json
from .tensor_io import ImageFrame, parse_frame_index, read_ppm, to_planar, write_tensor

VARIANTS = ("rgb_seq", "rgb_int", "diff_seq", "diff_int")
_SEQ_VARIANTS = ("rgb_seq", "diff_seq")
_DIFF_VARIANTS = ("diff_seq", "diff_int")

PAPER_N_RANGE = range(1, 11)
PAPER_DELTA_RANGE = range(1, 6)


def normalize_variant(name: str) -> str:
    variant = name.strip().lower().replace("-", "_")
    if variant not in VARIANTS:
        raise ValueError(f"unknown stacking variant {name!r}; expected one of {', '.join(VARIANTS)}")
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


def diff_image(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Byte-range difference image ``floor((later - earlier + 255) / 2)``.

    Accepts planar uint8 arrays of matching shape. With ``b = ~earlier``
    (``255 - earlier``) it is the halving add ``(later & b) + ((later ^ b) >> 1)``,
    so no temporary is wider than a byte; zero motion lands on 127.
    """
    if later.dtype != np.uint8 or earlier.dtype != np.uint8:
        raise ValueError("difference images are defined on uint8 frames")
    if later.shape != earlier.shape:
        raise ValueError(f"frame shapes differ: {later.shape} vs {earlier.shape}")
    flipped = ~earlier
    out = later & flipped
    np.bitwise_xor(later, flipped, out=flipped)
    flipped >>= 1
    out += flipped
    return out


class FrameSequence:
    """An ordered set of same-sized frames addressable by frame index.

    Each frame is held once, as its planar uint8 [3, H, W] array (about
    ``3·W·H`` bytes); the decoded interleaved frame is dropped as soon as
    it is repacked. May be empty; lookups on an empty sequence fail, but
    dataset building over one is a no-op.
    """

    def __init__(self, frames: Iterable[ImageFrame] = ()):
        planes: dict[int, np.ndarray] = {}
        for f in frames:
            if f.frame_index in planes:
                raise DataValidationError(f"duplicate frame index {f.frame_index}")
            planes[f.frame_index] = to_planar(f)
        indices = sorted(planes)
        if indices:
            first = planes[indices[0]].shape
            for index in indices:
                shape = planes[index].shape
                if shape != first:
                    raise DataValidationError(
                        f"frame {index} is {shape[2]}x{shape[1]}, "
                        f"sequence started at {first[2]}x{first[1]}"
                    )
        self._indices = indices
        self._planes = planes

    @classmethod
    def from_dir(cls, dir_path: str | Path) -> "FrameSequence":
        """Load every ``*.ppm`` file in a directory, ordered by frame index."""
        return cls(read_ppm(p) for p in sorted(Path(dir_path).glob("*.ppm")))

    def __len__(self) -> int:
        return len(self._indices)

    @property
    def indices(self) -> list[int]:
        return list(self._indices)

    def __contains__(self, index: int) -> bool:
        return index in self._planes

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
        """The resolved frame as its stored uint8 [3, H, W] array."""
        return self._planes[self.resolve(requested)]


def build_input(source: FrameSequence, t: int, config: InputConfig) -> StackedInput:
    """Assemble the stacked input for target frame ``t``.

    ``t`` itself must be present in the source; only the past frames a
    layout reaches for are clamp-resolved. Channel order is newest-first,
    so channels 0..2 are always the RGB planes of frame ``t``.
    """
    if t not in source:  # past lookups below may clamp; the target may not
        raise FrameLookupError(f"no frame with index {t}")
    offsets = range(config.n) if config.variant in _SEQ_VARIANTS else (0, config.delta)
    parts = [source.planar(t - k) for k in offsets]
    if config.variant in _DIFF_VARIANTS:
        parts[1:] = [diff_image(later, earlier) for later, earlier in zip(parts, parts[1:])]
    tensor = np.concatenate(parts, axis=0)
    return StackedInput(tensor=tensor, target_frame_index=t, config=config)


def _label_files_by_index(labels_dir: Path) -> dict[int, Path]:
    mapping: dict[int, Path] = {}
    for path in sorted(labels_dir.iterdir()):
        if not path.is_file():
            continue
        try:
            index = parse_frame_index(path)
        except Exception:
            continue
        if index in mapping:
            raise DataValidationError(f"{labels_dir}: two label files claim frame {index}")
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
    in the manifest; a frame without a label file is an error. The manifest
    is returned and also written to ``out_dir/manifest.json``. An empty
    source yields an empty manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = None
    if labels_dir is not None:
        labels_dir = Path(labels_dir)
        if not labels_dir.is_dir():
            raise DataValidationError(f"labels directory {labels_dir} does not exist")
        labels = _label_files_by_index(labels_dir)

    items = []
    for t in source.indices:
        stacked = build_input(source, t, config)
        tensor_name = f"stack_{t}.mten"
        write_tensor(stacked.tensor, out_dir / tensor_name)
        label_name = None
        if labels is not None:
            src = labels.get(t)
            if src is None:
                raise DataValidationError(f"no label file for frame {t} in {labels_dir}")
            label_name = src.name
            shutil.copyfile(src, out_dir / label_name)
        items.append({"index": t, "tensor": tensor_name, "label": label_name})

    manifest = {"config": config.to_dict(), "items": items}
    write_json(manifest, out_dir / "manifest.json")
    return manifest
