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
``Tracklet(id, start, end)`` records. Two tracklets overlap in time when
their closed intervals intersect: ``a.start <= b.end and b.start <= a.end``.
Runs shorter than ``MIN_TRACKLET_LEN`` frames are dropped before any mining.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, check_boxes, expect, expect_int, expect_ints, read_json, write_json

MIN_TRACKLET_LEN = 16


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
    """

    __slots__ = ("id", "start", "end", "boxes", "feature_rows", "firsts")

    def __init__(self, id, start, end, boxes, feature_rows=None):
        self.id, self.start, self.end = (np.asarray(c, dtype=np.int64) for c in (id, start, end))
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.feature_rows = None if feature_rows is None else np.asarray(feature_rows, dtype=np.int64)
        self.firsts = np.concatenate([[0], np.cumsum(self.end - self.start + 1)])

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
    """Read and validate a tracklet document; ids must be unique."""
    doc = expect(read_json(path), dict, str(path))
    spans, boxes, rows, has_rows, seen = [], [], [], [], set()
    for pos, entry in enumerate(expect(doc.get("tracklets"), list, f"{path}: tracklets")):
        where = f"{path}: tracklets[{pos}]"
        expect(entry, dict, where)
        tid = expect_int(entry.get("id"), f"{where}.id")
        if tid in seen:
            raise DataValidationError(f"{where}: duplicate tracklet id {_echo(tid)}")
        seen.add(tid)
        start = expect_int(entry.get("start"), f"{where}.start")
        end = expect_int(entry.get("end"), f"{where}.end")
        boxes.append(check_boxes(expect(entry.get("boxes"), list, f"{where}.boxes"), f"{where}.boxes"))
        feature_rows = entry.get("feature_rows")
        has_rows.append(feature_rows is not None)
        if feature_rows is not None:
            rows += expect_ints(feature_rows, f"{where}.feature_rows", nonnegative=True)
        if tid < 0:
            raise DataValidationError(f"{where}: tracklet id must be a nonnegative integer, got {_echo(tid)}")
        named = f"{where}: tracklet {_echo(tid)}"
        if start > end:
            raise DataValidationError(f"{named}: start {_echo(start)} > end {_echo(end)}")
        frames = end - start + 1  # a Python int: int64 would wrap on the widest intervals
        if len(boxes[-1]) != frames:
            raise DataValidationError(f"{named}: {len(boxes[-1])} boxes for {_echo(frames)} frames")
        if feature_rows is not None and len(feature_rows) != frames:
            raise DataValidationError(f"{named}: {len(feature_rows)} feature rows for {_echo(frames)} frames")
        spans.append((tid, start, end))
    if any(has_rows) and not all(has_rows):
        pos = has_rows.index(not has_rows[0])
        raise DataValidationError(f"{path}: tracklets[{pos}]: either every tracklet or none may carry feature_rows")
    tid, start, end = np.array(spans, dtype=np.int64).reshape(-1, 3).T
    return Tracklets(tid, start, end, np.concatenate([np.empty((0, 4)), *boxes]), rows if any(has_rows) else None)


# ``json.dumps(doc, indent=2)``'s layout of one tracklet entry, one box and one feature row.
_ENTRY = '    {\n      "id": %d,\n      "start": %d,\n      "end": %d,\n      "boxes": [\n%s\n      ]%s\n    }'
_BOX = "        [\n          %r,\n          %r,\n          %r,\n          %r\n        ]"
_FEATURE_ROWS = ',\n      "feature_rows": [\n%s\n      ]'
_FEATURE_ROW = "        %d"


def _check_loadable(tracklets: Tracklets) -> None:
    """Raise ``ValueError``, worded as ``load_tracklets_json`` would, for columns it would reject."""
    frames, seen = [], set()
    for pos, t in enumerate(tracklets):
        if t.id in seen:
            raise ValueError(f"tracklets[{pos}]: duplicate tracklet id {t.id}")
        seen.add(t.id)
        if t.id < 0:
            raise ValueError(f"tracklets[{pos}]: tracklet id must be a nonnegative integer, got {t.id}")
        if t.start > t.end:
            raise ValueError(f"tracklets[{pos}]: tracklet {t.id}: start {t.start} > end {t.end}")
        frames.append(len(t))  # a Python int: int64 would wrap on the widest intervals
    boxes, rows = tracklets.boxes, tracklets.feature_rows
    if len(boxes) != sum(frames):
        raise ValueError(f"tracklets hold {len(boxes)} boxes for {sum(frames)} frames")
    if rows is not None and len(rows) != sum(frames):
        raise ValueError(f"tracklets hold {len(rows)} feature rows for {sum(frames)} frames")

    def named(key: str, k: int) -> str:  # frame row k's entry of ``key``, as the loader names it
        pos = int(np.searchsorted(tracklets.firsts, k, side="right")) - 1
        return f"tracklets[{pos}].{key}[{k - int(tracklets.firsts[pos])}]"

    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{named('boxes', k)} must be finite with x2 > x1 and y2 > y1, got {boxes[k].tolist()}")
    if rows is not None and (rows < 0).any():
        k = int(np.argmax(rows < 0))
        raise ValueError(f"{named('feature_rows', k)} must be a nonnegative integer, got {rows[k]}")


def write_tracklets_json(tracklets: Tracklets, path: str | Path) -> None:
    """Write a tracklet document with the bytes ``json.dumps(doc, indent=2)`` gives it.

    Each entry is filled into a template and written as soon as it is
    formatted, and each coordinate is written as the float it is, as
    ``load_tracklets_json`` reads it back. Columns that the loader would
    reject raise ``ValueError`` before the file is opened.
    """
    _check_loadable(tracklets)
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
