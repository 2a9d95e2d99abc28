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

A document that breaks several rules is refused for its first defect in file
order and, within one entry, the one its checks reach first: the id's type, a
duplicate id, the types of start, end, boxes (finite, x2 > x1 and y2 > y1) and
feature rows (nonnegative), then a negative id, start past end, the box count
and the feature-row count. The every-or-none rule of ``feature_rows`` is
checked after every entry. A document loads as ``Tracklets`` columns, which
index and iterate as ``Tracklet(id, start, end)`` records; ``Tracklets.check_rules``
walks columns in the same order through the loader's own checks, for the writer
and ``metric_learning.FeatureTable``. Two tracklets overlap in time when their
closed intervals intersect: ``a.start <= b.end and b.start <= a.end``.
Runs shorter than ``MIN_TRACKLET_LEN`` frames are dropped before any mining.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, bad_boxes, check_boxes, expect, expect_int, expect_ints, read_json, write_json

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
        """Raise ``error`` naming the first defect of these columns as ``load_tracklets_json`` names it.

        The tracklets are checked in file order, each one's rules in reading order
        (see the module docstring), on its own box and feature rows ``firsts[i]:firsts[i + 1]``.
        """
        rows = self.feature_rows
        # A column that passes as a whole is not checked again tracklet by tracklet.
        bad_box, negative_row = bad_boxes(self.boxes).any(), rows is not None and (rows < 0).any()
        seen: set[int] = set()
        columns = (c.tolist() for c in (self.id, self.start, self.end, self.firsts[:-1], self.firsts[1:]))
        try:
            for pos, (tid, start, end, lo, hi) in enumerate(zip(*columns)):
                where = f"tracklets[{pos}]"
                _check_new_id(tid, seen, where)
                if bad_box:
                    check_boxes(self.boxes[lo:hi].tolist(), f"{where}.boxes")
                if negative_row:
                    expect_ints(rows[lo:hi].tolist(), f"{where}.feature_rows", nonnegative=True)
                _check_entry(where, tid, start, end, hi - lo, hi - lo)
        except DataValidationError as exc:
            raise error(str(exc)) from None


def _check_new_id(tid: int, seen: set[int], where: str) -> None:
    """Add ``tid`` to the ids ``seen`` in earlier entries, or raise ``DataValidationError`` if it is there."""
    if tid in seen:
        raise DataValidationError(f"{where}: duplicate tracklet id {tid}")
    seen.add(tid)


def _check_entry(where: str, tid: int, start: int, end: int, boxes: int, rows: int) -> None:
    """Raise ``DataValidationError`` for the first rule a tracklet breaks, given its Python ints and counts.

    The rules, in order: a nonnegative id, start <= end, one box and one feature row per frame.
    """
    if tid < 0:
        raise DataValidationError(f"{where}: tracklet id must be a nonnegative integer, got {tid}")
    if start > end:
        raise DataValidationError(f"{where}: tracklet {tid}: start {start} > end {end}")
    for count, kind in ((boxes, "boxes"), (rows, "feature rows")):
        if count != end - start + 1:  # exact past int64, as Python ints
            raise DataValidationError(f"{where}: tracklet {tid}: {count} {kind} for {end - start + 1} frames")


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
    """Read and validate a tracklet document, naming its first defect in reading order (see the module docstring)."""
    doc = expect(read_json(path), dict, str(path))
    ids, starts, ends, boxes, rows, has_rows, seen = [], [], [], [], [], [], set()
    for pos, entry in enumerate(expect(doc.get("tracklets"), list, f"{path}: tracklets")):
        where = f"{path}: tracklets[{pos}]"
        ids.append(expect_int(expect(entry, dict, where).get("id"), f"{where}.id"))
        _check_new_id(ids[-1], seen, where)
        starts.append(expect_int(entry.get("start"), f"{where}.start"))
        ends.append(expect_int(entry.get("end"), f"{where}.end"))
        boxes.append(check_boxes(expect(entry.get("boxes"), list, f"{where}.boxes"), f"{where}.boxes"))
        feature_rows = entry.get("feature_rows")
        has_rows.append(feature_rows is not None)
        if feature_rows is not None:
            rows += expect_ints(feature_rows, f"{where}.feature_rows", nonnegative=True)
        # An entry without feature rows counts its boxes in their place, which the box rule checks first.
        count = len(boxes[-1])
        _check_entry(where, ids[-1], starts[-1], ends[-1], count, count if feature_rows is None else len(feature_rows))
    if any(has_rows) and not all(has_rows):
        pos = has_rows.index(not has_rows[0])
        raise DataValidationError(f"{path}: tracklets[{pos}]: either every tracklet or none may carry feature_rows")
    return Tracklets(ids, starts, ends, np.concatenate([np.empty((0, 4)), *boxes]), rows if any(has_rows) else None)


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
