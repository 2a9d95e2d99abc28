"""Tracklet structure, overlap logic, and JSON interchange tests."""

import json
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionstack.errors import DataValidationError
from motionstack.metric_learning import FeatureTable
from motionstack.tracklets import (
    MIN_TRACKLET_LEN,
    Tracklet,
    Tracklets,
    enumerate_keys,
    filter_min_length,
    load_identity_map,
    load_tracklets_json,
    temporal_overlap,
    write_identity_map,
    write_tracklets_json,
)


def _columns(spans, rows=None):
    # Tracklets of (id, start, end) spans, frame f's box (f, 0, f + 1, 1), and
    # ``rows`` the feature rows of every frame in enumeration order, or None.
    ids, starts, ends = zip(*spans) if spans else ((), (), ())
    boxes = [(float(f), 0.0, float(f) + 1.0, 1.0) for _, start, end in spans for f in range(start, end + 1)]
    return Tracklets(ids, starts, ends, boxes, rows)


def _assert_same(a, b):
    for name in ("id", "start", "end", "boxes", "firsts"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    assert (a.feature_rows is None) == (b.feature_rows is None)
    if a.feature_rows is not None:
        assert a.feature_rows.dtype == np.int64 and a.feature_rows.tolist() == b.feature_rows.tolist()


intervals = st.tuples(st.integers(0, 30), st.integers(1, 20)).map(
    lambda pair: (pair[0], pair[0] + pair[1] - 1)
)


def _entry(tid, **changes):
    # A two-frame tracklet entry, with ``changes`` to its keys.
    return {"id": tid, "start": 0, "end": 1, "boxes": [[0, 0, 1, 1]] * 2, **changes}


# Tracklet documents that each break two rules, as (entries, the loader's
# message after the file's path): the first defect in file order is named and,
# within one entry, the one its checks reach first: the id's type, a duplicate
# id, the types of start, end, boxes and feature rows, then a negative id,
# start past end, the box count and the feature-row count. The every-or-none
# rule of ``feature_rows`` is checked after every entry.
MULTI_DEFECT_FILES = {
    "duplicate-id-and-string-start": ([_entry(4), _entry(4, start="0")], "tracklets[1]: duplicate tracklet id 4"),
    "duplicate-id-and-start-past-end": (
        [_entry(4), _entry(4, start=3, end=2, boxes=[])], "tracklets[1]: duplicate tracklet id 4"
    ),
    "duplicate-id-and-bad-box": (
        [_entry(4), _entry(4, boxes=[[0, 0, 1, 1], [2, 0, 1, 1]])], "tracklets[1]: duplicate tracklet id 4"
    ),
    "negative-id-and-bad-box": (
        [_entry(-2, boxes=[[0, 0, 1, 1], [2, 0, 1, 1]])],
        "tracklets[0].boxes[1]: bbox must satisfy x2 > x1 and y2 > y1, got [2, 0, 1, 1]",
    ),
    "negative-id-and-negative-row": (
        [_entry(-1, feature_rows=[0, -1])], "tracklets[0].feature_rows[1] must be a nonnegative integer, got -1"
    ),
    "negative-id-and-boxes-not-a-list": ([_entry(-1, boxes=3)], "tracklets[0].boxes must be a list, got 3"),
    "negative-id-and-string-start": (
        [_entry(0), _entry(-1, start="0")], 'tracklets[1].start must be an integer, got "0"'
    ),
    "negative-id-and-start-past-end": (
        [_entry(-3, start=3, end=2, boxes=[])], "tracklets[0]: tracklet id must be a nonnegative integer, got -3"
    ),
    "start-past-end-and-float-end": (
        [_entry(0, start=3, end=2.0, boxes=[])], "tracklets[0].end must be an integer, got 2.0"
    ),
    "start-past-end-and-box-count": (
        [_entry(5, start=3, end=2, boxes=[[0, 0, 1, 1]])], "tracklets[0]: tracklet 5: start 3 > end 2"
    ),
    "start-past-end-and-row-count": (
        [_entry(5, start=3, end=2, boxes=[], feature_rows=[0])], "tracklets[0]: tracklet 5: start 3 > end 2"
    ),
    "box-count-and-row-count": (
        [_entry(1, boxes=[[0, 0, 1, 1]], feature_rows=[0, 1, 2])], "tracklets[0]: tracklet 1: 1 boxes for 2 frames"
    ),
    "box-count-and-negative-row": (
        [_entry(1, boxes=[[0, 0, 1, 1]], feature_rows=[-1, 0])],
        "tracklets[0].feature_rows[0] must be a nonnegative integer, got -1",
    ),
    "widest-interval-and-row-count": (
        [_entry(0, start=-(2**63), end=2**63 - 1, boxes=[[0, 0, 1, 1]], feature_rows=[0, 1])],
        "tracklets[0]: tracklet 0: 1 boxes for 18446744073709551616 frames",
    ),
    "rule-then-type": (
        [_entry(0, start=2, end=1, boxes=[]), _entry("x")], "tracklets[0]: tracklet 0: start 2 > end 1"
    ),
    "row-count-then-not-an-object": (
        [_entry(0, feature_rows=[0]), []], "tracklets[0]: tracklet 0: 1 feature rows for 2 frames"
    ),
    "type-then-rule": (
        [_entry(0, boxes=[[0, 0, 1]]), _entry(-1)],
        "tracklets[0].boxes[0]: bbox must be [x1, y1, x2, y2], got [0, 0, 1]",
    ),
    "box-count-then-true-id": (
        [_entry(0), _entry(1, boxes=[[0, 0, 1, 1]]), _entry(2), _entry(True)],
        "tracklets[1]: tracklet 1: 1 boxes for 2 frames",
    ),
    "duplicate-with-string-row-after-a-clean-entry": (
        [_entry(3), _entry(1), _entry(3, feature_rows=["0", 1])], "tracklets[2]: duplicate tracklet id 3"
    ),
    "string-id-then-duplicate": (
        [_entry(3), _entry("3"), _entry(3)], 'tracklets[1].id must be an integer, got "3"'
    ),
    "negative-id-then-its-duplicate": (
        [_entry(-1), _entry(-1, start="0")], "tracklets[0]: tracklet id must be a nonnegative integer, got -1"
    ),
    "some-rows-then-start-past-end": (
        [_entry(0, feature_rows=[0, 1]), _entry(1), _entry(2, start=3, end=2, boxes=[])],
        "tracklets[2]: tracklet 2: start 3 > end 2",
    ),
    "some-rows-then-string-id": (
        [_entry(0, feature_rows=[0, 1]), _entry(1), _entry("2")], 'tracklets[2].id must be an integer, got "2"'
    ),
    "no-rows-then-row-count": (
        [_entry(0), _entry(1, feature_rows=[2])], "tracklets[1]: tracklet 1: 1 feature rows for 2 frames"
    ),
    "rows-then-box-count-without-rows": (
        [_entry(0, feature_rows=[0, 1]), _entry(1, boxes=[[0, 0, 1, 1]])],
        "tracklets[1]: tracklet 1: 1 boxes for 2 frames",
    ),
}


class TestTracklet:
    def test_length_and_frames(self):
        t = _columns([(0, 5, 9)])[0]
        assert t == Tracklet(0, 5, 9)
        assert len(t) == 5
        assert list(t.frames) == [5, 6, 7, 8, 9]

    def test_columns_index_and_take_as_records(self):
        ts = _columns([(4, 0, 1), (2, 10, 12), (7, 5, 5)], rows=[10, 11, 20, 21, 22, 30])
        assert ts.firsts.tolist() == [0, 2, 5, 6]
        assert list(ts) == [Tracklet(4, 0, 1), Tracklet(2, 10, 12), Tracklet(7, 5, 5)]
        assert ts[-1] == Tracklet(7, 5, 5) and len(ts) == 3
        taken = ts.take(np.array([2, 0]))
        assert list(taken) == [Tracklet(7, 5, 5), Tracklet(4, 0, 1)]
        assert taken.firsts.tolist() == [0, 1, 3]
        assert taken.boxes[:, 0].tolist() == [5.0, 0.0, 1.0] and taken.feature_rows.tolist() == [30, 10, 11]
        assert ts.rows_of(np.array([1, 1])).tolist() == [2, 3, 4, 2, 3, 4]
        empty = ts.take(np.zeros(3, dtype=bool))
        assert len(empty) == 0 and empty.boxes.shape == (0, 4) and empty.firsts.tolist() == [0]

    def test_frame_counts_past_int64_are_refused(self):
        # Wrapped in int64, the first columns' counts would total the two boxes given.
        boxes = [[0, 0, 1, 1]] * 2
        with pytest.raises(ValueError, match=r"^tracklets\[1\]: tracklet 2: 4611686018427387905 frames, "
                                             r"9223372036854775810 in all, past int64$"):
            Tracklets([1, 2, 4], [0, 0, 0], [2**62, 2**62, 2**63 - 1], boxes)
        with pytest.raises(ValueError, match=r"^tracklets\[0\]: tracklet 4: 9223372036854775808 frames"):
            Tracklets([4], [0], [2**63 - 1], boxes)
        with pytest.raises(ValueError, match=r"^tracklets\[0\]: tracklet 4: -18446744073709551614 frames"):
            Tracklets([4, 5], [2**63 - 1, 0], [-(2**63), 1], boxes)
        # Counts and totals within int64, start past end included, are left to check_rules.
        for ends in ([2, 8, 0], [2, 7, 0]):
            ts = Tracklets([1, 5, 6], [0, 9, 0], ends, [[0, 0, 1, 1]] * (ends[1] - 4))  # frames 3, 9 - end, 1
            with pytest.raises(ValueError, match=rf"^tracklets\[1\]: tracklet 5: start 9 > end {ends[1]}$"):
                ts.check_rules()


class TestTemporalOverlap:
    @settings(max_examples=120, deadline=None)
    @given(intervals, intervals)
    def test_matches_frame_set_intersection(self, a_iv, b_iv):
        a = Tracklet(0, *a_iv)
        b = Tracklet(1, *b_iv)
        expected = bool(set(a.frames) & set(b.frames))
        assert temporal_overlap(a, b) == expected
        assert temporal_overlap(b, a) == expected
        assert temporal_overlap(a, _columns([(1, *b_iv)])).tolist() == [expected]

    def test_single_shared_frame_counts(self):
        assert temporal_overlap(Tracklet(0, 0, 10), Tracklet(1, 10, 20))
        assert not temporal_overlap(Tracklet(0, 0, 10), Tracklet(1, 11, 20))


class TestFiltering:
    def test_default_threshold(self):
        assert MIN_TRACKLET_LEN == 16
        ts = _columns([(0, 0, 14), (1, 0, 15)], rows=list(range(31)))  # 15 frames, then 16
        kept = filter_min_length(ts)
        assert list(kept) == [Tracklet(1, 0, 15)]
        assert kept.boxes.tolist() == ts.boxes[15:].tolist() and kept.feature_rows.tolist() == list(range(15, 31))

    def test_custom_threshold_and_validation(self):
        ts = _columns([(0, 0, 4)])
        assert list(filter_min_length(ts, min_len=5)) == [Tracklet(0, 0, 4)]
        assert list(filter_min_length(ts, min_len=6)) == []
        with pytest.raises(ValueError, match="min_len"):
            filter_min_length(ts, min_len=0)


class TestOverlapGraph:
    """The overlap graph as mining reads it: each record's row against the columns, other ids only."""

    def test_hand_case(self):
        ts = _columns([(3, 0, 10), (7, 5, 15), (9, 20, 30)])
        rows = [temporal_overlap(t, ts).tolist() for t in ts]
        assert rows == [[True, True, False], [True, True, False], [False, False, True]]

    def test_symmetric_without_self_edges(self):
        import random

        rng = random.Random(1)
        spans = []
        for tid in range(12):
            start = rng.randint(0, 40)
            spans.append((tid, start, start + rng.randint(0, 15)))
        ts = _columns(spans)
        graph = np.array([temporal_overlap(t, ts) & (ts.id != t.id) for t in ts])
        assert not graph.diagonal().any()
        assert (graph == graph.T).all()
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                assert graph[i, j] == (i != j and temporal_overlap(a, b))


class TestEnumerateKeys:
    def test_file_order_then_frames_ascending(self):
        keys = enumerate_keys(_columns([(9, 4, 6), (2, 0, 1)]))
        assert keys.dtype == np.int64 and keys.tolist() == [[9, 4], [9, 5], [9, 6], [2, 0], [2, 1]]

    def test_keys_at_the_int64_extremes_are_int64(self):
        big, low = 2**63 - 1, -(2**63)
        keys = enumerate_keys(_columns([(big, big - 1, big), (1, low, low)]))
        assert keys.dtype == np.int64 and keys.tolist() == [[big, big - 1], [big, big], [1, low]]
        empty = enumerate_keys(_columns([]))
        assert empty.shape == (0, 2) and empty.dtype == np.int64


class TestTrackletsJson:
    def test_round_trip(self, tmp_path):
        ts = _columns([(0, 0, 3), (5, 2, 4)], rows=[0, 1, 2, 3, 10, 11, 12])
        path = tmp_path / "tracklets.json"
        write_tracklets_json(ts, path)
        _assert_same(load_tracklets_json(path), ts)

    def test_writes_the_bytes_of_json_dumps(self, tmp_path):
        def dumped(tracklets):
            entries = []
            for t, lo, hi in zip(tracklets, tracklets.firsts[:-1], tracklets.firsts[1:]):
                entry = {"id": t.id, "start": t.start, "end": t.end, "boxes": tracklets.boxes[lo:hi].tolist()}
                if tracklets.feature_rows is not None:
                    entry["feature_rows"] = tracklets.feature_rows[lo:hi].tolist()
                entries.append(entry)
            return (json.dumps({"tracklets": entries}, indent=2) + "\n").encode()

        rng = np.random.default_rng(0)
        edges = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1e16, 1e-05]
        low, high = -(2**63), 2**63 - 1
        for with_rows in (False, True):
            # Ids, starts and rows across int64, both ends included, as the loader accepts them.
            ids = [high, 0, *dict.fromkeys(rng.integers(0, high, size=998, endpoint=True).tolist())]
            lengths = rng.integers(1, 5, size=len(ids))
            starts = rng.integers(low, high - lengths + 1, endpoint=True)
            ends_at = rng.uniform(size=len(ids))
            starts = np.where(ends_at < 0.05, low, np.where(ends_at > 0.95, high - lengths + 1, starts))
            rows = rng.integers(0, high, size=lengths.sum(), endpoint=True)
            rows[rng.uniform(size=len(rows)) < 0.05] = rng.choice([0, high])
            coords = rng.normal(size=(lengths.sum(), 4)) * 10.0 ** rng.integers(-300, 300, size=(lengths.sum(), 4))
            coords[rng.uniform(size=coords.shape) < 0.1] = rng.choice(edges)
            lo, hi = np.minimum(coords[:, :2], coords[:, 2:]), np.maximum(coords[:, :2], coords[:, 2:])
            boxes = np.hstack([lo, np.where(hi > lo, hi, np.nextafter(lo, np.inf))])  # x2 > x1, y2 > y1
            tracklets = Tracklets(ids, starts, starts + lengths - 1, boxes, rows if with_rows else None)
            assert {low, high} <= set(tracklets.start.tolist()) | set(tracklets.end.tolist())
            path = tmp_path / "t.json"
            for subset in (tracklets.take([0]), tracklets):
                write_tracklets_json(subset, path)
                assert path.read_bytes() == dumped(subset)
                _assert_same(load_tracklets_json(path), subset)
            write_tracklets_json(tracklets.take([]), path)  # which says nothing of feature rows
            assert path.read_bytes() == dumped(tracklets.take([])) and len(load_tracklets_json(path)) == 0
            # A zero-frame entry (start past end), which the loader rejects, is never written.
            empty = Tracklets([5], [3], [2], np.empty((0, 4)), [] if with_rows else None)
            between = Tracklets([1, 5, 2], [0, 3, 7], [0, 2, 7], boxes[:2], rows[:2] if with_rows else None)
            for subset in (empty, between):
                path.unlink(missing_ok=True)
                with pytest.raises(ValueError, match=r"tracklet 5: start 3 > end 2$"):
                    write_tracklets_json(subset, path)
                assert not path.exists()
        with pytest.raises(OverflowError):  # so no writer call meets an id the loader rejects as past int64
            Tracklets([2**63], [0], [0], [(0.0, 0.0, 1.0, 1.0)])

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([-1], [3], [3], [[0, 0, 1, 1]]), "tracklets[0]: tracklet id must be a nonnegative integer, got -1"),
            (([5], [3], [2], []), "tracklets[0]: tracklet 5: start 3 > end 2"),
            (([4, 4], [0, 1], [0, 1], [[0, 0, 1, 1]] * 2), "tracklets[1]: duplicate tracklet id 4"),
            (([4], [0], [1], [[0, 0, 1, 1]]), "tracklets hold 1 boxes for 2 frames"),
            (([4], [0], [0], [[0, 0, 1, 1]], [0, 1]), "tracklets hold 2 feature rows for 1 frames"),
            (([4, 6], [0, 0], [0, 1], [[0, 0, 1, 1], [0, 0, 1, 1], [0, 2, 1, 1]]),
             "tracklets[1].boxes[1]: bbox must satisfy x2 > x1 and y2 > y1, got [0.0, 2.0, 1.0, 1.0]"),
            (([4], [0], [0], [[0, 0, np.inf, 1]]), "tracklets[0].boxes[0]: bbox[2] must be a finite number, got Infinity"),
            # Two defects: the first tracklet's bad box comes before the second's duplicate id.
            (([4, 4], [0, 1], [0, 1], [[0, 0, 0, 1], [0, 0, 1, 1]]),
             "tracklets[0].boxes[0]: bbox must satisfy x2 > x1 and y2 > y1, got [0.0, 0.0, 0.0, 1.0]"),
            (([4, 6], [0, 0], [0, 1], [[0, 0, 1, 1]] * 3, [0, 1, -1]),
             "tracklets[1].feature_rows[1] must be a nonnegative integer, got -1"),
            # Frames 3, -1 and 1, so firsts [0, 3, 2, 3]: the bad box is the first tracklet's third.
            (([1, 5, 6], [0, 9, 0], [2, 7, 0], [[0, 0, 1, 1], [0, 0, 1, 1], [0, 2, 1, 1]]),
             "tracklets[0].boxes[2]: bbox must satisfy x2 > x1 and y2 > y1, got [0.0, 2.0, 1.0, 1.0]"),
        ],
        ids=["negative-id", "start-past-end", "duplicate-id", "box-count", "row-count", "inverted-box",
             "infinite-box", "box-before-duplicate", "negative-row", "box-before-negative-frames"],
    )
    def test_writes_no_file_the_loader_rejects(self, tmp_path, columns, message):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError) as info:
            write_tracklets_json(Tracklets(*columns), path)
        assert str(info.value) == message and not path.exists()
        try:
            tracklets = Tracklets(*columns)
        except ValueError:  # columns that do not fill their frames, from which no table is built
            return
        with pytest.raises(DataValidationError) as info:  # the same check refuses in-process columns
            FeatureTable(tracklets, np.zeros((8, 4), np.float32))
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True),
        with_rows=st.booleans(),
        defects=st.lists(st.sampled_from(["duplicate", "negative-id", "start-past-end", "bad-box", "negative-row"]),
                         max_size=2),
        data=st.data(),
    )
    def test_writer_refuses_exactly_what_the_loader_refuses(self, ids, with_rows, defects, data):
        # Columns across int64 with up to two defects, written by the writer and, as the
        # json.dumps of the same entries, read by the loader: both name the same one, in the same words.
        n = len(ids)
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        starts = data.draw(st.lists(st.integers(-(2**63) + 1, 2**63 - 4), min_size=n, max_size=n))
        ends = [s + k - 1 for s, k in zip(starts, lengths)]
        boxes = [[float(f), 0.5, f + 1.5, 2.0] for f in range(sum(lengths))]
        rows = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(boxes), max_size=len(boxes)))
        made = []
        for defect in defects:
            if defect == "duplicate" and n == 1 or defect in ("bad-box", "negative-row") and not boxes:
                continue
            if defect == "negative-row" and not with_rows:
                continue
            made.append(defect)
            at = data.draw(st.integers(0, n - 1))
            if defect == "duplicate":
                ids[at] = ids[data.draw(st.integers(0, n - 1).filter(lambda j: j != at))]
            elif defect == "negative-id":
                ids[at] = data.draw(st.integers(-(2**63), -1))
            elif defect == "start-past-end":  # an entry of no frames, as the loader reads one
                first = sum(lengths[:at])
                del boxes[first : first + lengths[at]], rows[first : first + lengths[at]]
                ends[at], lengths[at] = starts[at] - 1, 0
            elif defect == "bad-box":
                boxes[data.draw(st.integers(0, len(boxes) - 1))][2] = data.draw(st.sampled_from([0.0, np.inf, np.nan]))
            else:
                rows[data.draw(st.integers(0, len(rows) - 1))] = -1
        defect = made[0] if made else None
        entries, first = [], 0
        for tid, start, end, k in zip(ids, starts, ends, lengths):
            entries.append({"id": tid, "start": start, "end": end, "boxes": boxes[first : first + k]})
            if with_rows:
                entries[-1]["feature_rows"] = rows[first : first + k]
            first += k
        with tempfile.TemporaryDirectory() as tmp:
            loaded, written = Path(tmp) / "loaded.json", Path(tmp) / "written.json"
            loaded.write_text(json.dumps({"tracklets": entries}))
            with pytest.raises(DataValidationError) if defect else nullcontext() as loading:
                load_tracklets_json(loaded)
            with pytest.raises(ValueError) if defect else nullcontext() as writing:
                write_tracklets_json(Tracklets(ids, starts, ends, boxes, rows if with_rows else None), written)
            assert written.exists() == (defect is None)
            if defect is not None:
                assert str(writing.value) == str(loading.value).removeprefix(f"{loaded}: ")

    def test_null_feature_rows_means_absent(self, tmp_path):
        path = tmp_path / "t.json"
        doc = {
            "tracklets": [
                {"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]], "feature_rows": None}
            ]
        }
        path.write_text(json.dumps(doc))
        assert load_tracklets_json(path).feature_rows is None

    def test_absurd_interval_is_data_error(self, tmp_path):
        # The widest int64 interval holds 2**64 frames, more than len() can count.
        path = tmp_path / "t.json"
        doc = {"tracklets": [{"id": 0, "start": -(2**63), "end": 2**63 - 1, "boxes": [[0, 0, 1, 1]]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match="1 boxes for 18446744073709551616 frames"):
            load_tracklets_json(path)
        doc["tracklets"][0]["end"] = 10**20
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match=r"\]\.end must be an integer in int64 range, got 10{20}$"):
            load_tracklets_json(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        entry = {"id": 4, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]}
        path.write_text(json.dumps({"tracklets": [entry, dict(entry)]}))
        with pytest.raises(DataValidationError, match="duplicate tracklet id 4"):
            load_tracklets_json(path)

    @pytest.mark.parametrize(
        "doc,pattern",
        [
            pytest.param([1, 2], r"t\.json must be an object, got \[1, 2\]", id="doc0-'tracklets' list"),
            ({"tracklets": [[]]}, r"tracklets\[0\] must be an object, got \[\]"),
            (
                {"tracklets": [{"id": "x", "start": 0, "end": 0, "boxes": []}]},
                r'tracklets\[0\]\.id must be an integer, got "x"',
            ),
            (
                {"tracklets": [{"id": 0, "start": 0, "end": 0, "boxes": 3}]},
                r"tracklets\[0\]\.boxes must be a list, got 3",
            ),
            (
                {"tracklets": [{"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1]]}]},
                r"box must be \[x1, y1, x2, y2\]",
            ),
            (
                {"tracklets": [{"id": 0, "start": 0, "end": 0, "boxes": [[2, 0, 1, 1]]}]},
                "x2 > x1",
            ),
            pytest.param(
                {
                    "tracklets": [
                        {
                            "id": 0,
                            "start": 0,
                            "end": 1,
                            "boxes": [[0, 0, 1, 1], [0, 0, 1, 1]],
                            "feature_rows": [0, -1],
                        }
                    ]
                },
                r"/t\.json: tracklets\[0\]\.feature_rows\[1\] must be a nonnegative integer, got -1$",
                id="doc6-negative feature row",
            ),
            ({"tracklets": 3}, r"t\.json: tracklets must be a list, got 3"),
            pytest.param(
                {
                    "tracklets": [
                        {"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]], "feature_rows": [0]},
                        {"id": 1, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]},
                    ]
                },
                r"t\.json: tracklets\[1\]: either every tracklet or none may carry feature_rows",
                id="doc8-rows on some",
            ),
        ],
    )
    def test_document_validation(self, tmp_path, doc, pattern):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match=pattern):
            load_tracklets_json(path)

    @pytest.mark.parametrize(
        "entries, message", list(MULTI_DEFECT_FILES.values()), ids=list(MULTI_DEFECT_FILES)
    )
    def test_names_the_first_of_two_defects(self, tmp_path, entries, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"tracklets": entries}))
        with pytest.raises(DataValidationError) as info:
            load_tracklets_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{nope")
        with pytest.raises(DataValidationError, match="invalid JSON"):
            load_tracklets_json(path)


class TestIdentityMap:
    def test_round_trip(self, tmp_path):
        groups = [[0, 4], [2], [1, 3, 5]]
        path = tmp_path / "identity.json"
        write_identity_map(groups, path)
        assert load_identity_map(path) == groups

    @pytest.mark.parametrize(
        "doc,pattern",
        [
            pytest.param({"groups": "x"}, r'groups must be a list, got "x"', id="doc0-'groups' list"),
            ({"groups": [[]]}, "nonempty list"),
            ({"groups": [[0], [1, 0]]}, "appears in more than one group"),
            ({"groups": [["a"]]}, r'groups\[0\]\[0\] must be an integer, got "a"'),
            ([[0]], r"identity\.json must be an object, got \[\[0\]\]"),
        ],
    )
    def test_validation(self, tmp_path, doc, pattern):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match=pattern):
            load_identity_map(path)
