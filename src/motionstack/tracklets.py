"""Tracklet model: per-object box runs over closed frame intervals, held as columns.

A tracklet is one object's detection run: an integer id, a closed frame
interval [start, end], and one box per frame of the interval (so runs are
contiguous by construction). Tracklets serialize as a single JSON
document::

    {"tracklets": [{"id": 0, "start": 12, "end": 40,
                    "boxes": [[x1, y1, x2, y2], ...],
                    "feature_rows": [5, 6, ...]}, ...]}

with ``boxes`` holding exactly ``end - start + 1`` entries. The optional
``feature_rows`` list maps each frame to a row of an external feature
matrix, carried by every tracklet or by none; when absent, consumers fall
back to enumeration order (file order, frames ascending). Identity maps,
used to state which tracklet ids belong to the same physical object, are::

    {"groups": [[1, 17], [15, 21], ...]}

A document loads as ``Tracklets`` columns, which index and iterate as
``Tracklet(id, start, end)`` records. ``Tracklets.check_rules`` states every
rule of the format on those columns, for the writer and ``metric_learning.FeatureTable``,
and names the defect the loader names, in its words. Two tracklets overlap in
time when their closed intervals intersect: ``a.start <= b.end and b.start <= a.end``.
Runs shorter than ``MIN_TRACKLET_LEN`` frames are dropped before any mining.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, bad_boxes, check_box, check_boxes, expect, expect_int, expect_ints, read_json, write_json

MIN_TRACKLET_LEN = 16
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Tracklet:
    """One tracklet's id and closed frame interval, as ``Tracklets`` gives it."""

    id: int
    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start + 1

    @property
    def frames(self) -> range:
        return range(self.start, self.end + 1)


class Tracklets(Sequence):
    """Tracklets as columns, and a read-only sequence of their ``Tracklet`` records.

    ``id``, ``start`` and ``end`` are int64 [T]. ``boxes`` (float64 [F, 4]) and
    ``feature_rows`` (int64 [F], or None) hold every frame in enumeration order,
    file order and frames ascending. ``firsts`` (int64 [T + 1]) is the one
    statement of that layout: tracklet i's frames are rows ``firsts[i]:firsts[i + 1]``.
    Columns whose frame counts or ``firsts`` do not fit int64, or whose boxes
    or feature rows do not fill ``firsts``, raise ``ValueError``.
    """

    __slots__ = ("id", "start", "end", "boxes", "feature_rows", "firsts")

    def __init__(self, id, start, end, boxes, feature_rows=None):
        self.id, self.start, self.end = (np.asarray(c, dtype=np.int64) for c in (id, start, end))
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.feature_rows = None if feature_rows is None else np.asarray(feature_rows, dtype=np.int64)
        frames = [hi - lo + 1 for lo, hi in zip(self.start.tolist(), self.end.tolist())]  # Python ints: exact
        firsts = [0, *accumulate(frames)]
        for pos, (n, total) in enumerate(zip(frames, firsts[1:])):  # neither firsts nor np.diff(firsts) wraps
            if not _INT64_MIN <= min(n, total) <= max(n, total) <= _INT64_MAX:
                raise ValueError(f"tracklets[{pos}]: tracklet {self.id[pos]}: {n} frames, {total} in all, past int64")
        self.firsts = np.array(firsts, dtype=np.int64)
        for column, kind in ((self.boxes, "boxes"), (self.feature_rows, "feature rows")):
            if column is not None and len(column) != self.firsts[-1]:
                raise ValueError(f"tracklets hold {len(column)} {kind} for {self.firsts[-1]} frames")

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, i: int) -> Tracklet:
        return Tracklet(int(self.id[i]), int(self.start[i]), int(self.end[i]))

    def __iter__(self):
        return map(Tracklet, self.id.tolist(), self.start.tolist(), self.end.tolist())

    def rows_of(self, positions: np.ndarray) -> np.ndarray:
        """The rows of the tracklets at ``positions``: each one's frames ascending, in that order."""
        lo = self.firsts[positions]
        lengths = self.firsts[positions + 1] - lo
        return np.repeat(lo - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())

    def take(self, keep: np.ndarray) -> Tracklets:
        """The tracklets at ``keep``, index positions or a boolean [T] mask, in that order."""
        positions = np.arange(len(self))[keep]
        frames = self.rows_of(positions)
        rows = None if self.feature_rows is None else self.feature_rows[frames]
        return Tracklets(self.id[positions], self.start[positions], self.end[positions], self.boxes[frames], rows)

    def entry_of(self, key: str, k: int) -> str:
        """Frame row ``k``'s entry of ``key`` (boxes or feature rows), as the loader names it."""
        pos = int(np.searchsorted(self.firsts, k, side="right")) - 1
        return f"tracklets[{pos}].{key}[{k - self.firsts[pos]}]"

    def check_rules(self, error: type[Exception] = ValueError) -> None:
        """Raise ``error`` naming the defect that ``load_tracklets_json`` names for these columns, in its words.

        That is the first tracklet, in file order, that breaks a rule, and its first rule in the loader's
        order: a new id, each box (``jsonio.check_box``), each feature row >= 0, then the rest of
        ``_first_defect``'s: a nonnegative id, start <= end, one box and one feature row per frame.
        """
        counts = np.diff(self.firsts)  # each tracklet's boxes and feature rows
        found = []  # (tracklet, rank of its rule in the loader's order, message or frame row)
        if defect := _first_defect(self.id, self.start, self.end, counts, counts):
            pos, message = defect
            found.append((pos, 0 if self.id[pos] in self.id[:pos] else 3, f"tracklets[{pos}]: {message}"))
        rows = self.feature_rows
        for rank, broken in ((1, bad_boxes(self.boxes)), (2, np.zeros(0, bool) if rows is None else rows < 0)):
            if broken.any():
                k = int(np.argmax(broken))
                found.append((int(np.searchsorted(self.firsts, k, side="right")) - 1, rank, k))
        if not found:
            return
        _, rank, what = min(found)
        if rank == 1:
            try:
                check_box(self.boxes[what].tolist(), self.entry_of("boxes", what))
            except DataValidationError as exc:
                raise error(str(exc)) from None
        if rank == 2:
            what = f"{self.entry_of('feature_rows', what)} must be a nonnegative integer, got {rows[what]}"
        raise error(what)


def _first_defect(id, start, end, box_counts, row_counts) -> tuple[int, str] | None:
    """The first tracklet, in file order, that breaks a rule, as ``(position, message)``; or None.

    A tracklet's rules, in the order they are checked: an id no earlier one
    holds, a nonnegative id, start <= end, and one box and one feature row
    per frame. ``id`` may hold one more tracklet, read only as far as its
    id, which the first rule alone checks.
    """
    id, start, end = (np.asarray(c, dtype=np.int64) for c in (id, start, end))
    repeated = np.ones(len(id), dtype=bool)
    repeated[np.unique(id, return_index=True)[1]] = False
    frames = end - start + 1  # past int64 this wraps to <= 0, which no count matches
    miscounted = [(frames <= 0) | (np.asarray(counts) != frames) for counts in (box_counts, row_counts)]
    rules = (repeated, id[: len(start)] < 0, start > end, *miscounted)
    found = [int(np.argmax(broken)) if broken.any() else len(id) for broken in rules]
    pos = min(found)
    if pos == len(id):
        return None
    tid, rule = int(id[pos]), found.index(pos)  # the first rule that this tracklet breaks
    if rule == 0:
        return pos, f"duplicate tracklet id {tid}"
    if rule == 1:
        return pos, f"tracklet id must be a nonnegative integer, got {tid}"
    lo, hi = int(start[pos]), int(end[pos])
    if rule == 2:
        return pos, f"tracklet {tid}: start {lo} > end {hi}"
    count, kind = (box_counts[pos], "boxes") if rule == 3 else (row_counts[pos], "feature rows")
    return pos, f"tracklet {tid}: {count} {kind} for {hi - lo + 1} frames"  # Python ints count past int64


def temporal_overlap(a, b):
    """Whether the two closed frame intervals share at least one frame.

    A ``Tracklet`` against ``Tracklets`` gives the answer for each of them, a bool [T] array.
    """
    return (a.start <= b.end) & (b.start <= a.end)


def filter_min_length(tracklets: Tracklets, min_len: int = MIN_TRACKLET_LEN) -> Tracklets:
    """Keep tracklets spanning at least ``min_len`` frames."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    return tracklets.take(np.diff(tracklets.firsts) >= min_len)


def enumerate_keys(tracklets: Tracklets) -> np.ndarray:
    """Canonical (id, frame) row order, file order and frames ascending, as an int64 [F, 2] key array.

    Feature tables stored as [T, D] tensors line their rows up with
    tracklet frames this way when no explicit ``feature_rows`` are given.
    """
    lengths = np.diff(tracklets.firsts)
    offsets = np.arange(tracklets.firsts[-1]) - np.repeat(tracklets.firsts[:-1], lengths)
    return np.stack([np.repeat(tracklets.id, lengths), np.repeat(tracklets.start, lengths) + offsets], axis=1)


def load_tracklets_json(path: str | Path) -> Tracklets:
    """Read and validate a tracklet document, naming its first defect in reading order.

    Each entry's JSON types are checked as it is read, then ``_first_defect``'s
    rules on the columns. At a type defect, the rules are checked first on
    the entries before it, and on its entry's id if that was read.
    """
    doc = expect(read_json(path), dict, str(path))
    ids, columns, boxes, rows, has_rows = [], [], [], [], []  # columns: start, end, box and row counts

    def check_rules() -> None:
        if defect := _first_defect(ids, *np.array(columns, dtype=np.int64).reshape(-1, 4).T):
            raise DataValidationError("%s: tracklets[%d]: %s" % (path, *defect))

    try:
        for pos, entry in enumerate(expect(doc.get("tracklets"), list, f"{path}: tracklets")):
            where = f"{path}: tracklets[{pos}]"
            ids.append(expect_int(expect(entry, dict, where).get("id"), f"{where}.id"))
            span = expect_int(entry.get("start"), f"{where}.start"), expect_int(entry.get("end"), f"{where}.end")
            boxes.append(check_boxes(expect(entry.get("boxes"), list, f"{where}.boxes"), f"{where}.boxes"))
            feature_rows = entry.get("feature_rows")
            has_rows.append(feature_rows is not None)
            if feature_rows is not None:
                rows += expect_ints(feature_rows, f"{where}.feature_rows", nonnegative=True)
            # An entry without feature rows counts its boxes in their place, which the box rule checks first.
            columns.append((*span, len(boxes[-1]), len(boxes[-1] if feature_rows is None else feature_rows)))
    except DataValidationError:
        check_rules()
        raise
    check_rules()
    if any(has_rows) and not all(has_rows):
        pos = has_rows.index(not has_rows[0])
        raise DataValidationError(f"{path}: tracklets[{pos}]: either every tracklet or none may carry feature_rows")
    start, end = np.array(columns, dtype=np.int64).reshape(-1, 4).T[:2]
    return Tracklets(ids, start, end, np.concatenate([np.empty((0, 4)), *boxes]), rows if any(has_rows) else None)


# ``json.dumps(doc, indent=2)``'s layout of one tracklet entry, one box and one feature row.
_ENTRY = '    {\n      "id": %d,\n      "start": %d,\n      "end": %d,\n      "boxes": [\n%s\n      ]%s\n    }'
_BOX = "        [\n          %r,\n          %r,\n          %r,\n          %r\n        ]"
_FEATURE_ROWS = ',\n      "feature_rows": [\n%s\n      ]'
_FEATURE_ROW = "        %d"


def write_tracklets_json(tracklets: Tracklets, path: str | Path) -> None:
    """Write a tracklet document with the bytes ``json.dumps(doc, indent=2)`` gives it.

    Each entry is filled into a template and written as soon as it is
    formatted, and each coordinate is written as the float it is, as
    ``load_tracklets_json`` reads it back. Columns that the loader would reject
    raise ``ValueError`` from ``Tracklets.check_rules`` before the file is opened.
    """
    tracklets.check_rules()
    rows = None if tracklets.feature_rows is None else tracklets.feature_rows.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "tracklets": [')
        sep = "\n"
        for t, lo, hi in zip(tracklets, tracklets.firsts[:-1].tolist(), tracklets.firsts[1:].tolist()):
            boxes = ",\n".join([_BOX] * (hi - lo)) % tuple(tracklets.boxes[lo:hi].ravel().tolist())
            feature_rows = "" if rows is None else _FEATURE_ROWS % ",\n".join([_FEATURE_ROW % r for r in rows[lo:hi]])
            fh.write(sep + _ENTRY % (t.id, t.start, t.end, boxes, feature_rows))
            sep = ",\n"
        fh.write("\n  ]\n}\n" if len(tracklets) else "]\n}\n")


def load_identity_map(path: str | Path) -> list[list[int]]:
    """Read a {"groups": [[id, ...], ...]} document; an id may appear once."""
    doc = expect(read_json(path), dict, str(path))
    groups: list[list[int]] = []
    seen: set[int] = set()
    for pos, raw in enumerate(expect(doc.get("groups"), list, f"{path}: groups")):
        where = f"{path}: groups[{pos}]"
        group = expect_ints(raw, where)
        if not group:
            raise DataValidationError(f"{where}: expected a nonempty list of ids")
        for tid in group:
            if tid in seen:
                raise DataValidationError(f"{where}: id {_echo(tid)} appears in more than one group")
            seen.add(tid)
        groups.append(group)
    return groups


def write_identity_map(groups: Sequence[Sequence[int]], path: str | Path) -> None:
    write_json({"groups": [list(g) for g in groups]}, path)
