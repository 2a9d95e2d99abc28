"""RoI feature pooling over convolutional feature maps.

Boxes live in image coordinates and are projected onto a [C, Hf, Wf]
feature map with a half-pixel shift, ``coord * spatial_scale - 0.5``, so
that pixel centers line up across resolutions. Each output bin averages
``sampling_ratio`` x ``sampling_ratio`` bilinear samples placed on a
regular grid inside the bin. Sample points are clamped into the valid map
rectangle before interpolation, so boxes hanging over the edge reuse
border values instead of fading to zero. Averaging the pooled grid per
channel turns a box into a fixed-length descriptor.

Everything is computed in separable form. Clamped bilinear interpolation
at (x, y) is ``sum_ij wy[i] * wx[j] * map[c, i, j]``, where ``wy`` puts
``1 - ly`` on row ``floor(y)`` and ``ly`` on the clamped row below, and
``wx`` does the same over columns. A bin's samples pair every y-sample with
every x-sample, so their mean factorises too: ``Wy @ map[c] @ Wx.T``, with
one row of ``Wy`` (``Wx``) per bin holding the mean weights of its y (x)
samples. A descriptor is the same contraction with weights averaged over
all bins, so no per-sample tensor is built, and only the float64 summation
order differs from interpolating each sample.

Boxes are pooled in row-major order of their windows on the map (top row,
then left column), not in input order, so that consecutive boxes read map
rows that are still in cache. Each box's arithmetic does not depend on the
order, and each result is rounded from float64 straight into its own row of
the float32 output, so the descriptors are the same bits in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError

OUT_SIZE = 7
SAMPLING_RATIO = 2


@dataclass(eq=False)
class FeatureMap:
    """A [C, Hf, Wf] float map plus its feature-pixels-per-image-pixel ratio."""

    tensor: np.ndarray = field(repr=False)
    spatial_scale: float = 1.0

    def __post_init__(self) -> None:
        self.tensor = np.asarray(self.tensor)
        if self.tensor.ndim != 3:
            raise ValueError(f"feature map must be [C, Hf, Wf], got shape {self.tensor.shape}")
        if not self.spatial_scale > 0:
            raise ValueError(f"spatial_scale must be positive, got {self.spatial_scale}")


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


def _bilinear_weights(pos: np.ndarray, n: int) -> np.ndarray:
    """[..., n] weights averaging clamped linear interpolation at pos [..., k] on n pixels."""
    flat = np.clip(pos, 0.0, n - 1.0).reshape(-1, pos.shape[-1])
    i0 = np.floor(flat).astype(np.intp)
    frac = flat - i0
    # One scatter-add of every (cell, weight) pair: first each sample's own
    # pixel, then the clamped pixel after it, so each cell sums its terms in
    # the order two sequential ``np.add.at`` passes would.
    cells = np.arange(len(flat))[:, None] * n
    weights = np.bincount(
        np.concatenate([(cells + i0).ravel(), (cells + np.minimum(i0 + 1, n - 1)).ravel()]),
        np.concatenate([(1.0 - frac).ravel(), frac.ravel()]),
        minlength=len(flat) * n,
    )
    return (weights / pos.shape[-1]).reshape(pos.shape[:-1] + (n,))


def _windows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per box of weights [N, bins, n], the [lo, hi) range of nonzero columns."""
    touched = (weights != 0).any(axis=1)
    return touched.argmax(axis=1), weights.shape[-1] - touched[:, ::-1].argmax(axis=1)


def _pool(fmap: FeatureMap, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Mean bilinear samples over ys [N, by, k] x xs [N, bx, k]: float32 [N, by, bx, C].

    The map goes channels-last, so a box's window of rows and columns is an
    [h, w * C] view and both contractions run in float64 in BLAS without a
    copy. Boxes are visited in row-major order of their windows' top-left
    corners, and each result is rounded into its own box's slot.
    """
    hwc = np.ascontiguousarray(fmap.tensor.transpose(1, 2, 0), dtype=np.float64)
    wy, wx = _bilinear_weights(ys, hwc.shape[0]), _bilinear_weights(xs, hwc.shape[1])
    c = hwc.shape[2]
    (top, bottom), (left, right) = _windows(wy), _windows(wx)
    out = np.empty((len(wy), wy.shape[1], wx.shape[1], c), dtype=np.float32)
    order = np.lexsort((left, top))
    windows = zip(order.tolist(), *(a[order].tolist() for a in (top, bottom, left, right)))
    for i, y0, y1, x0, x1 in windows:
        rows = wy[i, :, y0:y1] @ hwc[y0:y1, x0:x1].reshape(y1 - y0, (x1 - x0) * c)
        out[i] = wx[i, :, x0:x1] @ rows.reshape(len(rows), x1 - x0, c)
    return out


def _check_pool_params(out_h: int, out_w: int, sampling_ratio: int) -> None:
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be positive, got {out_h}x{out_w}")
    if sampling_ratio < 1:
        raise ValueError(f"sampling_ratio must be >= 1, got {sampling_ratio}")


def roi_align(
    fmap: FeatureMap,
    box,
    out_h: int = OUT_SIZE,
    out_w: int = OUT_SIZE,
    sampling_ratio: int = SAMPLING_RATIO,
) -> np.ndarray:
    """Pool one [x1, y1, x2, y2] image-coordinate box to float32 [C, out_h, out_w].

    The box must have positive area after scaling. Interpolation runs in
    float64.
    """
    _check_pool_params(out_h, out_w, sampling_ratio)
    boxes = np.asarray(box, dtype=np.float64).reshape(1, 4)
    ys, xs = _sample_coords(boxes, fmap.spatial_scale, out_h, out_w, sampling_ratio)
    return np.ascontiguousarray(_pool(fmap, ys, xs)[0].transpose(2, 0, 1))


def pool_boxes(
    fmap: FeatureMap,
    boxes,
    out_h: int = OUT_SIZE,
    out_w: int = OUT_SIZE,
    sampling_ratio: int = SAMPLING_RATIO,
) -> np.ndarray:
    """RoI-align every box and average over space: float32 [N, C] descriptors."""
    _check_pool_params(out_h, out_w, sampling_ratio)
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be [N, 4], got shape {boxes.shape}")
    ys, xs = _sample_coords(boxes, fmap.spatial_scale, out_h, out_w, sampling_ratio)
    # Pooling every sample of a box at once averages its per-bin weight rows.
    n = len(boxes)
    pooled = _pool(fmap, ys.reshape(n, 1, out_h * sampling_ratio), xs.reshape(n, 1, out_w * sampling_ratio))
    return pooled.reshape(n, pooled.shape[-1])
