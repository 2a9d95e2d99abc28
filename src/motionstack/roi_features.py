"""RoIAlign descriptor pooling over convolutional feature maps.

Boxes live in image coordinates and are projected onto a [C, Hf, Wf]
feature map with a half-pixel shift, ``coord * spatial_scale - 0.5``, so
that pixel centers line up across resolutions. A box is split into
``out_h`` x ``out_w`` bins, and each bin takes ``sampling_ratio`` x
``sampling_ratio`` bilinear samples on a regular grid inside it, as in
RoIAlign. Sample points are clamped into the valid map rectangle before
interpolation, so boxes hanging over the edge reuse border values instead
of fading to zero. The mean of all of a box's samples per channel is its
fixed-length descriptor.

Everything is computed in separable form. Clamped bilinear interpolation
at (x, y) is ``sum_ij wy[i] * wx[j] * map[c, i, j]``, where ``wy`` puts
``1 - ly`` on row ``floor(y)`` and ``ly`` on the clamped row below, and
``wx`` does the same over columns. The samples pair every y-position with
every x-position, so their mean factorises too: ``wy @ map[c] @ wx``, with
``wy`` (``wx``) the mean weights of the box's y (x) positions. Each box
holds those weights over its window only, the rows (columns) from its
lowest sample pixel to the last pixel given weight, so no [N, Hf] or
[N, Wf] array is built. No per-sample tensor is built either, and only the
float64 summation order differs from interpolating each sample.

A ``FeatureMap`` built from an array holds its map once, as a C-contiguous
float64 [Hf, Wf, C] array, in which a box's window is one view; ``tensor``
is that array's [C, Hf, Wf] view, so pooling converts nothing. One built
from ``read_tensor(path, band=True)`` leaves the map in its file: its
``tensor`` is that ``tensor_io.MapBand``, which opens the file only while
``pool_boxes`` reads it and holds one float64 [B, Wf, C] band of rows, B the
tallest box window plus ``BAND_STEP`` rows (at most Hf), read as each window
needs them. Its windows keep the whole map's row stride, so BLAS gets the
same call either way and the descriptors are the same bits.

Boxes are pooled in row-major order of their windows on the map (top row,
then left column), not in input order, so that consecutive boxes read map
rows that are still in cache, and a band reads each map row once. Each
box's arithmetic does not depend on the order, and each result is rounded
from float64 straight into its own row of the float32 output, so the
descriptors are the same bits in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError
from .tensor_io import MapBand

OUT_SIZE = 7
SAMPLING_RATIO = 2


@dataclass(eq=False)
class FeatureMap:
    """A [C, Hf, Wf] map plus its feature-pixels-per-image-pixel ratio.

    An array map is held once, as a C-contiguous float64 [Hf, Wf, C] array;
    ``tensor`` is its [C, Hf, Wf] view. A tensor given in that layout already
    is used without a copy; any other is converted into a copy of the map's
    own. A ``MapBand`` (``read_tensor(path, band=True)``) is kept as it is,
    and its rows are read as pooling asks for them.
    """

    tensor: np.ndarray | MapBand = field(repr=False)
    spatial_scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.tensor, MapBand):  # a band checked its rank when it was opened
            tensor = np.asarray(self.tensor)
            if tensor.ndim != 3:
                raise ValueError(f"feature map must be [C, Hf, Wf], got shape {tensor.shape}")
            self.tensor = np.asarray(tensor.transpose(1, 2, 0), dtype=np.float64, order="C").transpose(2, 0, 1)
        if not self.spatial_scale > 0:
            raise ValueError(f"spatial_scale must be positive, got {self.spatial_scale}")

    def windows(self, tops, bottoms):
        """The float64 [b - t, Wf, C] rows of each window ``[t, b)`` of ``zip(tops, bottoms)``, in turn."""
        if isinstance(self.tensor, MapBand):
            return self.tensor.windows(tops, bottoms)
        hwc = np.ascontiguousarray(self.tensor.transpose(1, 2, 0), dtype=np.float64)
        return (hwc[t:b] for t, b in zip(tops, bottoms))


def _sample_coords(boxes: np.ndarray, spatial_scale: float, out_h: int, out_w: int, ratio: int):
    """Sample coordinates of [N, 4] boxes: ys [N, out_h, ratio], xs [N, out_w, ratio]."""
    # Half-pixel alignment into feature-map coordinates.
    f = boxes * spatial_scale - 0.5
    checks = (
        (~np.isfinite(f).all(axis=1), "has a non-finite coordinate"),
        ((f[:, 2] <= f[:, 0]) | (f[:, 3] <= f[:, 1]), "degenerates to zero area"),
    )
    for bad, what in checks:
        if bad.any():
            i = int(np.argmax(bad))
            raise DataValidationError(f"box {i} {boxes[i].tolist()} {what} at spatial_scale {spatial_scale}")

    def grid(lo, hi, bins):
        # Sample s of bin p sits at lo + (p + (s + 0.5) / ratio) * bin_size.
        p = np.arange(bins, dtype=np.float64)[:, None]
        s = np.arange(ratio, dtype=np.float64)[None, :]
        return lo[:, None, None] + (p + (s + 0.5) / ratio) * ((hi - lo) / bins)[:, None, None]

    return grid(f[:, 1], f[:, 3], out_h), grid(f[:, 0], f[:, 2], out_w)


def _bilinear_weights(pos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean clamped linear-interpolation weights of pos [..., k] on n pixels, per row's window.

    Returns ``(weights [..., span], lo, hi)``: a row's nonzero weights sit on
    pixels ``[lo, hi)`` and in its first ``hi - lo`` entries, zeros after;
    ``span`` is the widest window.
    """
    flat = np.clip(pos, 0.0, n - 1.0).reshape(-1, pos.shape[-1])
    i0 = np.floor(flat).astype(np.intp)
    frac = flat - i0
    i1 = np.minimum(i0 + 1, n - 1)
    # Each sample's own pixel always gets weight (``1 - frac`` > 0), so the
    # lowest one opens the window; the pixel after the highest closes it.
    lo, hi = i0.min(axis=1), i1.max(axis=1) + 1
    span = int((hi - lo).max(initial=0))
    # One scatter-add of every (cell, weight) pair: first each sample's own
    # pixel, then the clamped pixel after it, so each cell sums its terms in
    # the order two sequential ``np.add.at`` passes would.
    cells = (np.arange(len(flat)) * span - lo)[:, None]
    weights = np.bincount(
        np.concatenate([(cells + i0).ravel(), (cells + i1).ravel()]),
        np.concatenate([(1.0 - frac).ravel(), frac.ravel()]),
        minlength=len(flat) * span,
    )
    weights = (weights / pos.shape[-1]).reshape(len(flat), span)
    # The last pixel may get only ``frac`` terms that are, or round to, zero
    # (every sample on its own pixel); then the pixel before it closes the window.
    hi -= weights[np.arange(len(flat)), hi - lo - 1] == 0
    span = int((hi - lo).max(initial=0))
    lead = pos.shape[:-1]
    return weights[:, :span].reshape(lead + (span,)), lo.reshape(lead), hi.reshape(lead)


def pool_boxes(
    fmap: FeatureMap,
    boxes,
    out_h: int = OUT_SIZE,
    out_w: int = OUT_SIZE,
    sampling_ratio: int = SAMPLING_RATIO,
) -> np.ndarray:
    """RoI-align every box and average over space: float32 [N, C] descriptors.

    Every box must have positive area after scaling. The map gives each
    window's rows channels-last, so a box's window of rows and columns is an
    [h, w * C] view and both contractions run in float64 in BLAS without a copy.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be positive, got {out_h}x{out_w}")
    if sampling_ratio < 1:
        raise ValueError(f"sampling_ratio must be >= 1, got {sampling_ratio}")
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be [N, 4], got shape {boxes.shape}")
    ys, xs = _sample_coords(boxes, fmap.spatial_scale, out_h, out_w, sampling_ratio)
    n, (c, hf, wf) = len(boxes), fmap.tensor.shape
    wy, top, bottom = _bilinear_weights(ys.reshape(n, out_h * sampling_ratio), hf)
    wx, left, right = _bilinear_weights(xs.reshape(n, out_w * sampling_ratio), wf)
    del ys, xs  # not held through the box loop
    out = np.empty((n, c), dtype=np.float32)
    order = np.lexsort((left, top))
    top, bottom, left, right = (a[order].tolist() for a in (top, bottom, left, right))
    # The order comes first, so the map is asked for no window past the last box.
    windows = zip(order.tolist(), top, bottom, left, right, fmap.windows(top, bottom))
    for i, y0, y1, x0, x1, block in windows:
        rows = wy[i, : y1 - y0] @ block[:, x0:x1].reshape(y1 - y0, (x1 - x0) * c)
        out[i] = wx[i, : x1 - x0] @ rows.reshape(x1 - x0, c)
    return out
