"""Detection quality metrics: greedy matching, interpolated AP, operating points.

Detections and ground truth travel as JSON Lines, one object per line:

* detections:   ``{"frame": int, "bbox": [x1, y1, x2, y2], "score": float, "class": label}``
* ground truth: ``{"frame": int, "bbox": [x1, y1, x2, y2], "class": label}``

Matching is the usual greedy sweep: detections ordered by descending score
(ties by frame, then input order), each one claiming the not-yet-matched
ground-truth box of the same frame and class with the highest IoU, provided
that IoU clears the threshold. As in pycocotools, each matching call first
computes the IoUs of every detection against the boxes of its own (frame,
class) slot in float64 numpy, with the scalar formula's operation order and
in blocks of detections so memory stays bounded; the greedy sweep then runs
over the cached values. Average precision is 101-point interpolated
(recall grid 0.00, 0.01, ..., 1.00 with the monotone precision envelope),
and the headline number averages AP over IoU thresholds 0.50 to 0.95 in
steps of 0.05. ``evaluate`` runs one pooled matching per threshold and
reads each class's AP off it: matching never crosses a (frame, class)
slot, and a class's detections keep their own score order within the
pooled one. The operating point picks the score cutoff maximizing F1,
preferring the shortest prefix on ties; since a cutoff keeps every tied
score, only prefixes followed by a lower score, or by nothing, are candidates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, check_box, check_number, expect, read_jsonl, write_jsonl

IOU_GRID = tuple((50 + 5 * i) / 100.0 for i in range(10))
# Most (detection, ground truth) IoUs one matching call holds at once. A pair
# takes about 160 bytes of arrays in flight, so a block peaks near 2.5 MiB.
_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class Detection:
    frame: int
    bbox: tuple[float, float, float, float]
    score: float
    label: int


@dataclass(frozen=True)
class GroundTruth:
    frame: int
    bbox: tuple[float, float, float, float]
    label: int


def _record_fields(record: dict, where: str) -> tuple[int, tuple[float, float, float, float], int]:
    # The (frame, bbox, class) rules of both record kinds, checked in that order.
    return (
        expect(record.get("frame"), int, f"{where}: frame"),
        check_box(record.get("bbox"), where),
        expect(record.get("class"), int, f"{where}: class"),
    )


def load_detections_jsonl(path: str | Path) -> list[Detection]:
    out = []
    for where, record in read_jsonl(path):
        score = check_number(record.get("score"), f"{where}: score")
        if not 0.0 <= score <= 1.0:
            raise DataValidationError(f"{where}: score must lie in [0, 1], got {_echo(record['score'])}")
        frame, bbox, label = _record_fields(record, where)
        out.append(Detection(frame=frame, bbox=bbox, score=score, label=label))
    return out


def load_ground_truth_jsonl(path: str | Path) -> list[GroundTruth]:
    return [GroundTruth(*_record_fields(record, where)) for where, record in read_jsonl(path)]


def write_detections_jsonl(dets: Iterable[Detection], path: str | Path) -> None:
    write_jsonl(
        ({"frame": d.frame, "bbox": list(d.bbox), "score": d.score, "class": d.label} for d in dets),
        path,
    )


def write_ground_truth_jsonl(gts: Iterable[GroundTruth], path: str | Path) -> None:
    write_jsonl(({"frame": g.frame, "bbox": list(g.bbox), "class": g.label} for g in gts), path)


def iou(a, b) -> np.ndarray | float:
    """Intersection over union of [x1, y1, x2, y2] boxes; 0.0 where the overlap or union is empty.

    ``a`` and ``b`` are shaped ``(..., 4)`` and broadcast against each other;
    two single boxes give one float. The float64 arithmetic is the scalar
    formula's, operation for operation: ``ix * iy`` for the intersection,
    ``(area_a + area_b) - inter`` for the union, and ``<= 0`` guards, so a
    NaN union (from overflowing areas) still reaches the division.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = ix * iy
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        union = (area_a + area_b) - inter
        value = inter / union
    return np.where((ix <= 0) | (iy <= 0) | (union <= 0), 0.0, value)[()]


def _boxes(records) -> np.ndarray:
    return np.array([r.bbox for r in records], dtype=np.float64).reshape(-1, 4)


def score_order(dets: Sequence[Detection]) -> list[int]:
    """Evaluation order: descending score, ties by (frame, input position)."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].frame, i))


@dataclass
class MatchResult:
    """Greedy matching outcome, aligned with ``order``."""

    order: list[int]           # detection indices in evaluation order
    flags: list[bool]          # True where the detection matched a ground-truth box
    matched_gt: list[int | None]  # index of the claimed ground-truth box, or None
    fn_by_frame: dict[int, int]   # unmatched ground-truth boxes per frame


def match_detections(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_threshold: float
) -> MatchResult:
    """Greedily assign detections to ground truth at one IoU threshold.

    A detection may only claim an unmatched box from its own frame and class,
    takes the highest-IoU candidate, and on IoU ties the earliest box in
    input order wins.
    """
    # Frames and labels are arbitrary JSON ints, so slots are numbered through
    # a dict; a detection whose slot has no ground truth gets the empty slot
    # numbered len(slots).
    slots: dict[tuple[int, int], int] = {}
    gt_slot = np.array([slots.setdefault((g.frame, g.label), len(slots)) for g in gts], dtype=np.intp)
    det_slot = np.array([slots.get((d.frame, d.label), len(slots)) for d in dets], dtype=np.intp)

    gt_by_slot = np.argsort(gt_slot, kind="stable")
    slot_size = np.bincount(gt_slot, minlength=len(slots) + 1)
    slot_start = np.cumsum(slot_size) - slot_size
    det_boxes, gt_boxes = _boxes(dets), _boxes(gts)

    # Pair each detection with every box of its slot, its k-th pair with the
    # slot's k-th box in input order, and keep the pairs whose IoU clears the
    # threshold. Detections go in blocks of at most _PAIR_BLOCK pairs (or one
    # detection's), so memory stays flat on dense input; the loop runs once
    # even without detections.
    step = max(1, _PAIR_BLOCK // max(1, int(slot_size.max())))
    blocks = []
    for start in range(0, max(len(dets), 1), step):
        slot = det_slot[start : start + step]
        count = slot_size[slot]
        pair_det = np.repeat(np.arange(start, start + len(slot)), count)
        first_pair = np.cumsum(count) - count
        pair_gt = gt_by_slot[np.arange(len(pair_det)) + np.repeat(slot_start[slot] - first_pair, count)]
        values = iou(det_boxes[pair_det], gt_boxes[pair_gt])
        keep = (values >= iou_threshold) & (values > 0)
        blocks.append((pair_det[keep], pair_gt[keep], values[keep]))
    cand_det, cand_gt, cand_iou = (np.concatenate(parts) for parts in zip(*blocks))

    # Each detection's candidates, best first: highest IoU, then earliest box.
    cand_gt = cand_gt[np.lexsort((cand_gt, -cand_iou, cand_det))].tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(cand_det, minlength=len(dets))))).tolist()

    order = score_order(dets)
    taken = [False] * len(gts)
    matched: list[int | None] = []
    for i in order:
        for j in cand_gt[bounds[i] : bounds[i + 1]]:
            if not taken[j]:
                taken[j] = True
                matched.append(j)
                break
        else:
            matched.append(None)
    flags = [j is not None for j in matched]

    fn_by_frame: dict[int, int] = {}
    for j, g in enumerate(gts):
        if not taken[j]:
            fn_by_frame[g.frame] = fn_by_frame.get(g.frame, 0) + 1
    return MatchResult(order=order, flags=flags, matched_gt=matched, fn_by_frame=fn_by_frame)


def _sum_in_order(values: Iterable[float]) -> float:
    """Floats added left to right, as the textbook formulas do; ``sum()`` compensates from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def ap_101(flags: Sequence[bool], num_gt: int) -> float:
    """101-point interpolated average precision from ordered match flags."""
    if num_gt <= 0:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=bool))
    recalls = tp / num_gt
    precisions = tp / np.arange(1, len(tp) + 1)
    # Monotone envelope: env[i] = best precision at or beyond curve point i,
    # with 0.0 for recall levels the curve never reaches.
    env = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
    reached = np.searchsorted(recalls, np.arange(101) / 100.0, side="left")
    return _sum_in_order(env[reached].tolist()) / 101.0


def f1_operating_point(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_threshold: float = 0.5
) -> dict:
    """Best-F1 score cutoff over the pooled detection list.

    F1 of the length-k prefix is 2*tp/(k + num_gt); ties prefer the shorter
    prefix, and an empty prefix reports precision and recall of 0.
    """
    result = match_detections(dets, gts, iou_threshold)
    scores = np.array([dets[i].score for i in result.order])
    num_gt = len(gts)
    tp = np.cumsum(result.flags)
    k = np.arange(1, len(tp) + 1)
    # No cutoff keeps a detection but not its tied successor.
    cut = np.append(scores[1:] != scores[:-1], True)
    f1 = np.where(cut, 2.0 * tp / (k + num_gt), 0.0)
    best_f1 = float(f1.max(initial=0.0))
    best_k = int(np.argmax(f1)) + 1 if best_f1 > 0 else 0
    tp_at_best = int(tp[best_k - 1]) if best_k > 0 else 0
    return {
        "k": best_k,
        "precision": tp_at_best / best_k if best_k > 0 else 0.0,
        "recall": tp_at_best / num_gt if num_gt > 0 else 0.0,
        "f1": best_f1,
        "score_threshold": dets[result.order[best_k - 1]].score if best_k > 0 else None,
    }


def evaluate(dets: Sequence[Detection], gts: Sequence[GroundTruth]) -> dict:
    """Full evaluation summary.

    ``ap_per_threshold[i]`` is the class-mean AP at the i-th IoU threshold,
    so ``map50 == ap_per_threshold[0]`` and ``map5095`` is their mean. The
    class universe is every class appearing in the ground truth or in the
    detections (a class with detections but no ground truth scores 0);
    classes appearing in neither are absent. Top-level precision/recall are
    the best-F1 operating point on the pooled IoU-0.5 matching. Returns
    plain Python types ready for JSON.
    """
    classes = sorted({g.label for g in gts} | {d.label for d in dets})
    # Each class's positions in the pooled evaluation order, which every
    # matching call shares.
    positions: dict[int, list[int]] = {label: [] for label in classes}
    for pos, i in enumerate(score_order(dets)):
        positions[dets[i].label].append(pos)
    num_gt = Counter(g.label for g in gts)
    sweeps: dict[int, list[float]] = {label: [] for label in classes}
    for thr in IOU_GRID:
        flags = np.array(match_detections(dets, gts, thr).flags, dtype=bool)
        for label in classes:
            sweeps[label].append(ap_101(flags[positions[label]], num_gt[label]))

    per_class = {
        str(label): {
            "ap_per_threshold": sweeps[label],
            "ap50": sweeps[label][0],
            "num_gt": num_gt[label],
            "num_detections": len(positions[label]),
        }
        for label in classes
    }
    n_classes = max(len(classes), 1)  # no classes: every mean is 0 / 1
    ap_per_threshold = [
        _sum_in_order(sweeps[label][i] for label in classes) / n_classes for i in range(len(IOU_GRID))
    ]
    operating = f1_operating_point(dets, gts)
    return {
        "precision": operating["precision"],
        "recall": operating["recall"],
        "ap_per_threshold": ap_per_threshold,
        "map50": ap_per_threshold[0],
        "map5095": _sum_in_order(ap_per_threshold) / len(ap_per_threshold),
        "operating_point": operating,
        "per_class": per_class,
        "num_detections": len(dets),
        "num_ground_truth": len(gts),
    }
