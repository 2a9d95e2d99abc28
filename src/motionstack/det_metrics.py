"""Detection quality metrics: greedy matching, interpolated AP, operating points.

Detections and ground truth travel as JSON Lines, one object per line:

* detections:   ``{"frame": int, "bbox": [x1, y1, x2, y2], "score": float, "class": label}``
* ground truth: ``{"frame": int, "bbox": [x1, y1, x2, y2], "class": label}``

In memory both are ``BoxColumns``: int64 frame and class columns, a
float64 box array and, for detections, a float64 score column. Each
loader states its format once, as the ``kinds`` mapping it gives
``jsonio.read_records``, which checks whole columns and names the first
bad value of a file that fails; the writers build each line from the
columns, with the bytes ``json.dumps`` gives it. Every function here also
takes a list of ``Detection`` or ``GroundTruth`` records, converted once
by ``as_columns``.

Matching is the usual greedy sweep: detections ordered by descending score
(ties by frame, then input order), each one claiming the not-yet-matched
ground-truth box of the same frame and class with the highest IoU, provided
that IoU clears the threshold. As in pycocotools, each matching call first
computes the IoUs of every detection against the boxes of its own (frame,
class) slot that overlap it along x, in float64 numpy, with the scalar
formula's operation order and in blocks of detections so memory stays
bounded; slots are numbered by factorising the frame and class columns.
The greedy sweep then runs over the cached values, and only for
detections that share a candidate box with another detection: the rest
take their best candidate at once. Average precision is 101-point interpolated
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

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .jsonio import array_rows, expect_int, read_records, write_lines

IOU_GRID = tuple((50 + 5 * i) / 100.0 for i in range(10))
# Most (detection, ground truth) pairs one matching call holds at once. A pair
# takes about 60 bytes of arrays in flight, and one that overlaps along x about
# 160, so a block peaks between 1 and 2.5 MiB.
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


class BoxColumns(Sequence):
    """Detections or ground truth as columns, and a read-only sequence of their records.

    ``frame`` and ``label`` are int64 [N]; ``boxes`` is float64 [N, 4];
    ``score`` is float64 [N] for detections and None for ground truth.
    Indexing and iterating give ``Detection`` or ``GroundTruth`` records of
    Python values, and the columns compare equal to a list of equal records.
    """

    __slots__ = ("frame", "boxes", "label", "score")

    def __init__(self, frame: np.ndarray, boxes: np.ndarray, label: np.ndarray, score: np.ndarray | None = None):
        self.frame, self.boxes, self.label, self.score = frame, boxes, label, score

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int):
        box = tuple(self.boxes[i].tolist())
        if self.score is None:
            return GroundTruth(int(self.frame[i]), box, int(self.label[i]))
        return Detection(int(self.frame[i]), box, float(self.score[i]), int(self.label[i]))

    def __iter__(self):
        boxes = zip(*self.boxes.T.tolist())  # one tuple per box
        if self.score is None:
            return map(GroundTruth, self.frame.tolist(), boxes, self.label.tolist())
        return map(Detection, self.frame.tolist(), boxes, self.score.tolist(), self.label.tolist())

    def __eq__(self, other):
        if isinstance(other, (BoxColumns, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def as_columns(records: Iterable[Detection] | Iterable[GroundTruth], scored: bool) -> BoxColumns:
    """``records`` as ``BoxColumns``: columns as they are, records converted once.

    ``scored`` says whether the records are detections, which carry a score.
    A frame or label must be an int or a numpy integer (never a bool) that
    fits int64, as ``jsonio.expect_int`` reads it; one that is not raises
    ``DataValidationError`` naming the first record that holds one, as
    ``detections[i].frame`` or ``ground truth[i].label``.
    """
    if isinstance(records, BoxColumns):
        return records
    records = list(records)
    frame, label = _int_columns(records, "detections" if scored else "ground truth")
    return BoxColumns(
        frame,
        np.array([r.bbox for r in records], dtype=np.float64).reshape(-1, 4),
        label,
        np.array([r.score for r in records], dtype=np.float64) if scored else None,
    )


def _int_columns(records: list, who: str) -> list[np.ndarray]:
    """The int64 frame and label columns of ``records``, checked as ``as_columns`` says."""
    columns = [[getattr(r, key) for r in records] for key in ("frame", "label")]
    try:
        # The set of value types is checked once, as jsonio.expect_ints checks a list.
        if all(t is int or issubclass(t, np.integer) for t in set(map(type, chain(*columns)))):
            return [np.array(column, dtype=np.int64) for column in columns]
    except OverflowError:  # an integer outside int64
        pass
    for i, r in enumerate(records):  # only now walk the records, to name the first bad value
        for key in ("frame", "label"):
            raw = getattr(r, key)
            expect_int(int(raw) if isinstance(raw, np.integer) else raw, f"{who}[{i}].{key}")
    raise AssertionError("every frame and label passed expect_int")


def _load(path: str | Path, kinds: dict[str, str]) -> BoxColumns:
    columns = read_records(path, kinds)
    return BoxColumns(columns["frame"], columns["bbox"], columns["class"], columns.get("score"))


# Each format's keys in the order its messages check them: score first.
def load_detections_jsonl(path: str | Path) -> BoxColumns:
    return _load(path, {"score": "score", "frame": "int", "bbox": "box", "class": "int"})


def load_ground_truth_jsonl(path: str | Path) -> BoxColumns:
    return _load(path, {"frame": "int", "bbox": "box", "class": "int"})


_DETECTION_LINE = '{"frame": %d, "bbox": [%r, %r, %r, %r], "score": %r, "class": %d}\n'
_GROUND_TRUTH_LINE = '{"frame": %d, "bbox": [%r, %r, %r, %r], "class": %d}\n'


def write_detections_jsonl(dets: Iterable[Detection], path: str | Path) -> None:
    dets = as_columns(dets, scored=True)
    write_lines(_DETECTION_LINE, array_rows(dets.frame, *dets.boxes.T, dets.score, dets.label), path)


def write_ground_truth_jsonl(gts: Iterable[GroundTruth], path: str | Path) -> None:
    gts = as_columns(gts, scored=False)
    write_lines(_GROUND_TRUTH_LINE, array_rows(gts.frame, *gts.boxes.T, gts.label), path)


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


def _ranks(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The distinct values of the joined integer columns, ascending, and each
    # entry's rank among them.
    return np.unique(np.concatenate(columns), return_inverse=True)


def score_order(dets: Sequence[Detection]) -> list[int]:
    """Evaluation order: descending score, ties by (frame, input position)."""
    dets = as_columns(dets, scored=True)
    return np.lexsort((dets.frame, -dets.score)).tolist()  # lexsort is stable


@dataclass
class MatchResult:
    """Greedy matching outcome, aligned with ``order``."""

    order: list[int]           # detection indices in evaluation order
    flags: list[bool]          # True where the detection matched a ground-truth box
    matched_gt: list[int | None]  # index of the claimed ground-truth box, or None
    fn_by_frame: dict[int, int]   # unmatched ground-truth boxes per frame, in frame order


def match_detections(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_threshold: float
) -> MatchResult:
    """Greedily assign detections to ground truth at one IoU threshold.

    A detection may only claim an unmatched box from its own frame and class,
    takes the highest-IoU candidate, and on IoU ties the earliest box in
    input order wins.
    """
    dets, gts = as_columns(dets, scored=True), as_columns(gts, scored=False)
    n = len(dets)
    # Frames and labels span int64, where frame * K + label could wrap, so a
    # slot is numbered by the ranks of its frame and its label among all of them.
    frames, frame_rank = _ranks(dets.frame, gts.frame)
    labels, label_rank = _ranks(dets.label, gts.label)
    slot = np.unique(frame_rank * len(labels) + label_rank, return_inverse=True)[1]
    det_slot, gt_slot = slot[:n], slot[n:]

    gt_by_slot = np.argsort(gt_slot, kind="stable")
    slot_size = np.bincount(gt_slot, minlength=slot.max(initial=-1) + 1)
    slot_start = np.cumsum(slot_size) - slot_size

    # Pair each detection with every box of its slot, its k-th pair with the
    # slot's k-th box in input order, and keep the pairs whose IoU clears the
    # threshold. Detections go in blocks of at most _PAIR_BLOCK pairs (or one
    # detection's), so memory stays flat on dense input; the loop runs once
    # even without detections.
    step = max(1, _PAIR_BLOCK // max(1, int(slot_size.max(initial=0))))
    blocks = []
    for start in range(0, max(n, 1), step):
        block_slot = det_slot[start : start + step]
        size = slot_size[block_slot]
        pair_det = np.repeat(np.arange(start, start + len(block_slot)), size)
        first_pair = np.cumsum(size) - size
        pair_gt = gt_by_slot[np.arange(len(pair_det)) + np.repeat(slot_start[block_slot] - first_pair, size)]
        # Only pairs that overlap along x can have a positive IoU.
        right = np.minimum(dets.boxes[pair_det, 2], gts.boxes[pair_gt, 2])
        overlap = right > np.maximum(dets.boxes[pair_det, 0], gts.boxes[pair_gt, 0])
        pair_det, pair_gt = pair_det[overlap], pair_gt[overlap]
        values = iou(dets.boxes[pair_det], gts.boxes[pair_gt])
        keep = (values >= iou_threshold) & (values > 0)
        blocks.append((pair_det[keep], pair_gt[keep], values[keep]))
    cand_det, cand_gt, cand_iou = (np.concatenate(parts) for parts in zip(*blocks))

    # Each detection's candidates, best first: highest IoU, then earliest box.
    best_first = np.lexsort((cand_gt, -cand_iou, cand_det))
    cand_det, cand_gt = cand_det[best_first], cand_gt[best_first]
    count = np.bincount(cand_det, minlength=n)
    first = np.cumsum(count) - count
    # A detection whose candidates no other detection lists takes its best
    # one whatever is claimed before it, so only the others need the greedy
    # sweep, and they never reach a box of the first kind.
    shared = np.bincount(cand_gt, minlength=len(gts))[cand_gt] > 1
    contested = np.bincount(cand_det, weights=shared, minlength=n) > 0
    claim = np.full(n, -1)
    alone = np.flatnonzero((count > 0) & ~contested)
    claim[alone] = cand_gt[first[alone]]
    order = score_order(dets)
    by_order = np.array(order, dtype=np.intp)
    swept = by_order[contested[by_order]]
    taken = set()
    for i, lo, hi in zip(swept.tolist(), first[swept].tolist(), (first + count)[swept].tolist()):
        for j in cand_gt[lo:hi].tolist():  # only a swept detection's own candidates as Python ints
            if j not in taken:
                taken.add(j)
                claim[i] = j
                break
    matched = [None if j < 0 else j for j in claim[by_order].tolist()]

    free = np.ones(len(gts), dtype=bool)
    free[claim[claim >= 0]] = False
    free_frame, misses = np.unique(frame_rank[n:][free], return_counts=True)
    fn_by_frame = dict(zip(frames[free_frame].tolist(), misses.tolist()))
    return MatchResult(
        order=order, flags=[j is not None for j in matched], matched_gt=matched, fn_by_frame=fn_by_frame
    )


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


def f1_operating_point(dets: Sequence[Detection], gts: Sequence[GroundTruth]) -> dict:
    """Best-F1 score cutoff over the pooled detection list, matched at IoU ``IOU_GRID[0]`` (0.5).

    F1 of the length-k prefix is 2*tp/(k + num_gt); ties prefer the shorter
    prefix, and an empty prefix reports precision and recall of 0.
    """
    dets = as_columns(dets, scored=True)
    result = match_detections(dets, gts, IOU_GRID[0])
    scores = dets.score[result.order]
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
        "score_threshold": float(scores[best_k - 1]) if best_k > 0 else None,
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
    dets, gts = as_columns(dets, scored=True), as_columns(gts, scored=False)
    labels, label_rank = _ranks(dets.label, gts.label)
    classes = labels.tolist()
    # Each class's positions in the pooled evaluation order, which every
    # matching call shares.
    by_position = label_rank[: len(dets)][score_order(dets)]
    positions = [np.flatnonzero(by_position == c) for c in range(len(classes))]
    num_gt = np.bincount(label_rank[len(dets) :], minlength=len(classes)).tolist()
    sweeps: list[list[float]] = [[] for _ in classes]
    for thr in IOU_GRID:
        flags = np.array(match_detections(dets, gts, thr).flags, dtype=bool)
        for c, sweep in enumerate(sweeps):
            sweep.append(ap_101(flags[positions[c]], num_gt[c]))

    per_class = {
        str(label): {
            "ap_per_threshold": sweeps[c],
            "ap50": sweeps[c][0],
            "num_gt": num_gt[c],
            "num_detections": len(positions[c]),
        }
        for c, label in enumerate(classes)
    }
    n_classes = max(len(classes), 1)  # no classes: every mean is 0 / 1
    ap_per_threshold = [
        _sum_in_order(sweep[i] for sweep in sweeps) / n_classes for i in range(len(IOU_GRID))
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
