"""Tracklet model: per-object box runs over closed frame intervals.

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

Two tracklets overlap in time when their closed intervals intersect:
``a.start <= b.end and b.start <= a.end``. Runs shorter than
``MIN_TRACKLET_LEN`` frames are dropped before any mining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, check_boxes, expect, expect_int, expect_ints, read_json, write_json

MIN_TRACKLET_LEN = 16


@dataclass
class Tracklet:
    id: int
    start: int
    end: int
    boxes: list[tuple[float, float, float, float]] = field(repr=False)
    feature_rows: list[int] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise DataValidationError(f"tracklet id must be a nonnegative integer, got {_echo(self.id)}")
        if self.start > self.end:
            raise DataValidationError(
                f"tracklet {_echo(self.id)}: start {_echo(self.start)} > end {_echo(self.end)}"
            )
        frames = self.end - self.start + 1  # len() overflows on absurd intervals
        if len(self.boxes) != frames:
            raise DataValidationError(
                f"tracklet {_echo(self.id)}: {len(self.boxes)} boxes for {_echo(frames)} frames"
            )
        if self.feature_rows is not None and len(self.feature_rows) != frames:
            raise DataValidationError(
                f"tracklet {_echo(self.id)}: {len(self.feature_rows)} feature rows for {_echo(frames)} frames"
            )

    def __len__(self) -> int:
        return self.end - self.start + 1

    @property
    def frames(self) -> range:
        return range(self.start, self.end + 1)


def temporal_overlap(a: Tracklet, b: Tracklet) -> bool:
    """Whether the two closed frame intervals share at least one frame."""
    return a.start <= b.end and b.start <= a.end


def filter_min_length(tracklets: Iterable[Tracklet], min_len: int = MIN_TRACKLET_LEN) -> list[Tracklet]:
    """Keep tracklets spanning at least ``min_len`` frames."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    return [t for t in tracklets if len(t) >= min_len]


def overlap_graph(tracklets: Sequence[Tracklet]) -> dict[int, set[int]]:
    """Adjacency by tracklet id: which other tracklets coexist in time.

    Symmetric, no self-edges; exactly the pairs eligible as anchor/negative
    tracklets in triplet mining.
    """
    graph: dict[int, set[int]] = {t.id: set() for t in tracklets}
    for i, a in enumerate(tracklets):
        for b in tracklets[i + 1 :]:
            if temporal_overlap(a, b):
                graph[a.id].add(b.id)
                graph[b.id].add(a.id)
    return graph


def enumerate_keys(tracklets: Sequence[Tracklet]) -> np.ndarray:
    """Canonical (id, frame) row order, file order and frames ascending, as an int64 [F, 2] key array.

    Feature tables stored as [T, D] tensors line their rows up with
    tracklet frames this way when no explicit ``feature_rows`` are given.
    """
    return np.array([(t.id, f) for t in tracklets for f in t.frames], dtype=np.int64).reshape(-1, 2)


def check_feature_rows(tracklets: Sequence[Tracklet], where: str) -> None:
    """Every tracklet carries ``feature_rows`` or none does; names the first that differs."""
    for pos, t in enumerate(tracklets):
        if (t.feature_rows is None) != (tracklets[0].feature_rows is None):
            raise DataValidationError(f"{where}[{pos}]: either every tracklet or none may carry feature_rows")


def load_tracklets_json(path: str | Path) -> list[Tracklet]:
    """Read and validate a tracklet document; ids must be unique."""
    doc = expect(read_json(path), dict, str(path))
    out: list[Tracklet] = []
    seen: set[int] = set()
    for pos, entry in enumerate(expect(doc.get("tracklets"), list, f"{path}: tracklets")):
        where = f"{path}: tracklets[{pos}]"
        expect(entry, dict, where)
        tid = expect_int(entry.get("id"), f"{where}.id")
        if tid in seen:
            raise DataValidationError(f"{where}: duplicate tracklet id {_echo(tid)}")
        seen.add(tid)
        start = expect_int(entry.get("start"), f"{where}.start")
        end = expect_int(entry.get("end"), f"{where}.end")
        raw_boxes = expect(entry.get("boxes"), list, f"{where}.boxes")
        boxes = list(map(tuple, check_boxes(raw_boxes, f"{where}.boxes").tolist()))
        feature_rows = entry.get("feature_rows")
        if feature_rows is not None:
            expect_ints(feature_rows, f"{where}.feature_rows", nonnegative=True)
        try:
            out.append(Tracklet(id=tid, start=start, end=end, boxes=boxes, feature_rows=feature_rows))
        except DataValidationError as exc:
            raise DataValidationError(f"{where}: {exc}") from exc
    check_feature_rows(out, f"{path}: tracklets")
    return out


# ``json.dumps(doc, indent=2)``'s layout of one tracklet entry, one box and one feature row.
_ENTRY = '    {\n      "id": %d,\n      "start": %d,\n      "end": %d,\n      "boxes": [\n%s\n      ]%s\n    }'
_BOX = "        [\n          %r,\n          %r,\n          %r,\n          %r\n        ]"
_FEATURE_ROWS = ',\n      "feature_rows": [\n%s\n      ]'
_FEATURE_ROW = "        %d"


def write_tracklets_json(tracklets: Sequence[Tracklet], path: str | Path) -> None:
    """Write a tracklet document with the bytes ``json.dumps(doc, indent=2)`` gives it.

    Each entry is filled into a template, and each coordinate is written as
    the float it converts to, as ``load_tracklets_json`` reads it back.
    """
    entries = []
    for t in tracklets:
        coords = np.asarray(t.boxes, dtype=np.float64).ravel().tolist()
        boxes = ",\n".join([_BOX] * len(t.boxes)) % tuple(coords)
        rows = ""
        if t.feature_rows is not None:
            rows = _FEATURE_ROWS % (",\n".join([_FEATURE_ROW] * len(t.feature_rows)) % tuple(t.feature_rows))
        entries.append(_ENTRY % (t.id, t.start, t.end, boxes, rows))
    body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    Path(path).write_text('{\n  "tracklets": ' + body + "\n}\n", encoding="utf-8")


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
