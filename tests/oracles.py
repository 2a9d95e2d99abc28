"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: scalar loops, textbook
formulas, selection instead of sorting. The detection-metric oracle mirrors
the documented arithmetic expression-for-expression so its results are
bitwise comparable; the numeric oracles (convolution, pooling, triplet
loss, gradients, PCA) run in float64 and are compared within tolerances.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# pixel difference


def diff_pixel(later: int, earlier: int) -> int:
    return (later - earlier + 255) // 2


def diff_image_int16(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``floor((later - earlier + 255) / 2)`` computed in widened int16."""
    # int16 is wide enough: later - earlier + 255 lies in [0, 510].
    spread = later.astype(np.int16) - earlier.astype(np.int16) + 255
    return (spread // 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# scene rendering


def render_full_canvas(config, background: np.ndarray, blobs) -> np.ndarray:
    """Paint every blob's disc by testing every pixel of the canvas."""
    frame = background.copy()
    ys = np.arange(config.height, dtype=np.float64)[:, None]
    xs = np.arange(config.width, dtype=np.float64)[None, :]
    for blob in blobs:
        mask = (xs - blob.cx) ** 2 + (ys - blob.cy) ** 2 <= float(blob.radius) ** 2
        frame[mask] = blob.color
    return frame


def reflect_bounces(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float, int]:
    """Mirror a point that moved to ``pos`` off the walls of [lo, hi], one bounce at a time.

    Returns the final position, the velocity and the number of bounces.
    """
    bounces = 0
    while not lo <= pos <= hi:
        pos = 2 * lo - pos if pos < lo else 2 * hi - pos
        vel = -vel
        bounces += 1
    return pos, vel, bounces


# ---------------------------------------------------------------------------
# detection metrics


def iou_boxes(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0:
        return 0.0
    return inter / union


def selection_order(dets) -> list[int]:
    """Evaluation order by repeated selection of the best remaining detection."""
    remaining = list(range(len(dets)))
    order = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if (-dets[i].score, dets[i].frame, i) < (-dets[best].score, dets[best].frame, best):
                best = i
        remaining.remove(best)
        order.append(best)
    return order


def greedy_flags(dets, gts, thr: float) -> list[bool]:
    """Match flags in evaluation order, by direct scan over all boxes."""
    taken = [False] * len(gts)
    flags = []
    for i in selection_order(dets):
        d = dets[i]
        best_j = None
        best_iou = 0.0
        for j, g in enumerate(gts):
            if taken[j] or g.frame != d.frame or g.label != d.label:
                continue
            value = iou_boxes(d.bbox, g.bbox)
            if value >= thr and value > best_iou:
                best_iou = value
                best_j = j
        if best_j is None:
            flags.append(False)
        else:
            taken[best_j] = True
            flags.append(True)
    return flags


def greedy_match(dets, gts, thr: float) -> tuple[list[bool], list[int | None]]:
    """Match flags and claimed ground-truth indices in evaluation order, by direct scan."""
    taken = [False] * len(gts)
    flags = []
    matched = []
    for i in selection_order(dets):
        d = dets[i]
        best_j = None
        best_iou = 0.0
        for j, g in enumerate(gts):
            if taken[j] or g.frame != d.frame or g.label != d.label:
                continue
            value = iou_boxes(d.bbox, g.bbox)
            if value >= thr and value > best_iou:
                best_iou = value
                best_j = j
        if best_j is not None:
            taken[best_j] = True
        flags.append(best_j is not None)
        matched.append(best_j)
    return flags, matched


def _sum_left_to_right(values) -> float:
    """One running float sum, as the textbook formulas add; ``sum()`` compensates from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def interp_ap_101(flags, num_gt: int) -> float:
    """Textbook 101-point AP: max precision at recall >= each grid point."""
    if num_gt <= 0:
        return 0.0
    recalls = []
    precisions = []
    tp = 0
    fp = 0
    for is_tp in flags:
        if is_tp:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / num_gt)
        precisions.append(tp / (tp + fp))
    values = []
    for i in range(101):
        r = i / 100.0
        candidates = [p for p, rec in zip(precisions, recalls) if rec >= r]
        values.append(max(candidates) if candidates else 0.0)
    return _sum_left_to_right(values) / 101.0


def best_f1_prefix(dets, gts, thr: float) -> dict:
    """Best-F1 prefix of the pooled ordered detections; ties keep the shortest.

    A prefix is a candidate only where the next detection scores strictly
    lower, or at the end, since a score cutoff keeps all tied detections.
    """
    flags = greedy_flags(dets, gts, thr)
    scores = [dets[i].score for i in selection_order(dets)]
    num_gt = len(gts)
    best_k = 0
    best_f1 = 0.0
    tp = 0
    for k, is_tp in enumerate(flags, start=1):
        if is_tp:
            tp += 1
        if k < len(flags) and not scores[k] < scores[k - 1]:
            continue
        f1 = 2.0 * tp / (k + num_gt) if k + num_gt > 0 else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_k = k
    tp_best = sum(flags[:best_k])
    return {
        "k": best_k,
        "precision": tp_best / best_k if best_k > 0 else 0.0,
        "recall": tp_best / num_gt if num_gt > 0 else 0.0,
        "f1": best_f1,
    }


def evaluate_oracle(dets, gts, thresholds) -> dict:
    """Full report mirror: per-class AP sweep, threshold means, operating point."""
    classes = sorted({g.label for g in gts} | {d.label for d in dets})
    sweeps = []
    per_class = {}
    for label in classes:
        class_dets = [d for d in dets if d.label == label]
        class_gts = [g for g in gts if g.label == label]
        sweep = [
            interp_ap_101(greedy_flags(class_dets, class_gts, thr), len(class_gts))
            for thr in thresholds
        ]
        sweeps.append(sweep)
        per_class[str(label)] = sweep
    if classes:
        ap_per_threshold = [
            _sum_left_to_right(sweep[i] for sweep in sweeps) / len(classes) for i in range(len(thresholds))
        ]
    else:
        ap_per_threshold = [0.0] * len(thresholds)
    operating = best_f1_prefix(dets, gts, 0.5)
    return {
        "ap_per_threshold": ap_per_threshold,
        "map50": ap_per_threshold[0] if ap_per_threshold else 0.0,
        "map5095": _sum_left_to_right(ap_per_threshold) / len(ap_per_threshold) if ap_per_threshold else 0.0,
        "per_class": per_class,
        "precision": operating["precision"],
        "recall": operating["recall"],
    }


# ---------------------------------------------------------------------------
# convolution


def conv2d_loops(image, weight, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Quadruple-loop cross-correlation in float64."""
    image = np.asarray(image, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    c_out, c_in, kh, kw = weight.shape
    if pad:
        image = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
    _, h, w = image.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((c_out, oh, ow), dtype=np.float64)
    for o in range(c_out):
        for y in range(oh):
            for x in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += weight[o, c, dy, dx] * image[c, y * stride + dy, x * stride + dx]
                out[o, y, x] = acc
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


# ---------------------------------------------------------------------------
# bilinear sampling / RoI pooling


def bilinear_at(arr: np.ndarray, x: float, y: float) -> np.ndarray:
    """Scalar clamped bilinear interpolation over a [C, H, W] array, float64."""
    arr = np.asarray(arr, dtype=np.float64)
    _, h, w = arr.shape
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    x0 = math.floor(x)
    y0 = math.floor(y)
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    lx = x - x0
    ly = y - y0
    return (
        arr[:, y0, x0] * (1 - ly) * (1 - lx)
        + arr[:, y0, x1] * (1 - ly) * lx
        + arr[:, y1, x0] * ly * (1 - lx)
        + arr[:, y1, x1] * ly * lx
    )


def bilinear_weights_add_at(pos: np.ndarray, n: int) -> np.ndarray:
    """[..., n] mean clamped linear-interpolation weights of pos [..., k], by two ``np.add.at`` passes.

    Every sample adds ``1 - frac`` to its own pixel in one pass, then
    ``frac`` to the next (clamped) pixel in a second pass.
    """
    flat = np.clip(pos, 0.0, n - 1.0).reshape(-1, pos.shape[-1])
    i0 = np.floor(flat).astype(np.intp)
    frac = flat - i0
    row = np.arange(len(flat))[:, None]
    weights = np.zeros((len(flat), n))
    np.add.at(weights, (row, i0), 1.0 - frac)
    np.add.at(weights, (row, np.minimum(i0 + 1, n - 1)), frac)
    return (weights / pos.shape[-1]).reshape(pos.shape[:-1] + (n,))


def roi_align_loops(arr, spatial_scale, box, out_h, out_w, ratio) -> np.ndarray:
    """Loop RoIAlign: half-pixel projection, per-bin sample grid, averaging."""
    arr = np.asarray(arr, dtype=np.float64)
    x1 = box[0] * spatial_scale - 0.5
    y1 = box[1] * spatial_scale - 0.5
    x2 = box[2] * spatial_scale - 0.5
    y2 = box[3] * spatial_scale - 0.5
    bin_w = (x2 - x1) / out_w
    bin_h = (y2 - y1) / out_h
    out = np.zeros((arr.shape[0], out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            acc = np.zeros(arr.shape[0], dtype=np.float64)
            for sy in range(ratio):
                for sx in range(ratio):
                    y = y1 + (i + (sy + 0.5) / ratio) * bin_h
                    x = x1 + (j + (sx + 0.5) / ratio) * bin_w
                    acc += bilinear_at(arr, x, y)
            out[:, i, j] = acc / (ratio * ratio)
    return out


# ---------------------------------------------------------------------------
# triplet loss and gradients


def triplet_loss(ea, ep, en, margin: float) -> float:
    """Hinge on squared Euclidean distances: max(0, |ea-ep|^2 - |ea-en|^2 + margin)."""
    ea = np.asarray(ea, dtype=np.float64)
    ep = np.asarray(ep, dtype=np.float64)
    en = np.asarray(en, dtype=np.float64)
    if ea.shape != ep.shape or ea.shape != en.shape:
        raise ValueError(f"embedding shapes differ: {ea.shape}, {ep.shape}, {en.shape}")
    d_pos = float(np.sum((ea - ep) ** 2))
    d_neg = float(np.sum((ea - en) ** 2))
    return max(0.0, d_pos - d_neg + margin)


def fd_gradients(params, xa, xp, xn, margin: float, eps: float = 1e-3):
    """Central finite differences of the mean batch loss, coordinate by coordinate.

    The loss runs each row through a plain affine -> ReLU -> ... -> affine
    chain and averages ``triplet_loss`` over the batch.
    """

    def embed(x):
        for l, (w, b) in enumerate(params):
            x = w @ x + b
            if l < len(params) - 1:
                x = np.maximum(x, 0.0)
        return x

    def mean_loss():
        losses = [triplet_loss(embed(a), embed(p), embed(n), margin) for a, p, n in zip(xa, xp, xn)]
        return _sum_left_to_right(losses) / len(losses)

    grads = []
    for l, (w, b) in enumerate(params):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, g in ((w, gw), (b, gb)):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                saved = flat[k]
                flat[k] = saved + eps
                hi = mean_loss()
                flat[k] = saved - eps
                lo = mean_loss()
                flat[k] = saved
                gflat[k] = (hi - lo) / (2.0 * eps)
        grads.append((gw, gb))
    return grads


# ---------------------------------------------------------------------------
# statistics


def pca_top2(embeddings: np.ndarray) -> np.ndarray:
    """2-d PCA through an eigendecomposition of the scatter matrix."""
    x = np.asarray(embeddings, dtype=np.float64)
    centered = x - x.mean(axis=0)
    scatter = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(scatter)
    coords = np.zeros((len(x), 2), dtype=np.float64)
    order = np.argsort(eigvals)[::-1]
    rank = int(np.sum(eigvals > 1e-10 * max(eigvals.max(), 1.0)))
    for c in range(min(2, rank)):
        v = eigvecs[:, order[c]]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        coords[:, c] = centered @ v
    return coords


def separation_loops(groups) -> dict:
    """Pooled intra/inter distance means by explicit pair enumeration."""
    keys = list(groups.keys())
    intra = []
    for k in keys:
        vecs = [np.asarray(v, dtype=np.float64) for v in groups[k]]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                intra.append(math.dist(vecs[i], vecs[j]))
    inter = []
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            for va in groups[keys[a]]:
                for vb in groups[keys[b]]:
                    inter.append(math.dist(np.asarray(va, dtype=np.float64), np.asarray(vb, dtype=np.float64)))
    intra_mean = sum(intra) / len(intra) if intra else 0.0
    inter_mean = sum(inter) / len(inter) if inter else 0.0
    ratio = intra_mean / inter_mean if inter_mean > 0 else 0.0
    return {"intra_mean": intra_mean, "inter_mean": inter_mean, "ratio": ratio}
