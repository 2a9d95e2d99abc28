"""Tracklet structure, overlap logic, and JSON interchange tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionstack.errors import DataValidationError
from motionstack.tracklets import (
    MIN_TRACKLET_LEN,
    Tracklet,
    enumerate_keys,
    filter_min_length,
    load_identity_map,
    load_tracklets_json,
    overlap_graph,
    temporal_overlap,
    write_identity_map,
    write_tracklets_json,
)


def _tracklet(tid, start, end, feature_rows=None):
    boxes = [(float(f), 0.0, float(f) + 1.0, 1.0) for f in range(start, end + 1)]
    return Tracklet(id=tid, start=start, end=end, boxes=boxes, feature_rows=feature_rows)


intervals = st.tuples(st.integers(0, 30), st.integers(1, 20)).map(
    lambda pair: (pair[0], pair[0] + pair[1] - 1)
)


class TestTracklet:
    def test_length_and_frames(self):
        t = _tracklet(0, 5, 9)
        assert len(t) == 5
        assert list(t.frames) == [5, 6, 7, 8, 9]

    def test_validation(self):
        with pytest.raises(DataValidationError, match="nonnegative"):
            _tracklet(-1, 0, 3)
        with pytest.raises(DataValidationError, match="nonnegative integer, got \""):
            _tracklet(np.int64(1), 0, 3)  # not JSON, so the error echoes its repr
        with pytest.raises(DataValidationError, match="start 5 > end 3"):
            Tracklet(id=0, start=5, end=3, boxes=[])
        with pytest.raises(DataValidationError, match="2 boxes for 3 frames"):
            Tracklet(id=0, start=0, end=2, boxes=[(0, 0, 1, 1), (0, 0, 1, 1)])
        with pytest.raises(DataValidationError, match="feature rows"):
            _tracklet(0, 0, 2, feature_rows=[1, 2])


class TestTemporalOverlap:
    @settings(max_examples=120, deadline=None)
    @given(intervals, intervals)
    def test_matches_frame_set_intersection(self, a_iv, b_iv):
        a = _tracklet(0, *a_iv)
        b = _tracklet(1, *b_iv)
        expected = bool(set(a.frames) & set(b.frames))
        assert temporal_overlap(a, b) == expected
        assert temporal_overlap(b, a) == expected

    def test_single_shared_frame_counts(self):
        assert temporal_overlap(_tracklet(0, 0, 10), _tracklet(1, 10, 20))
        assert not temporal_overlap(_tracklet(0, 0, 10), _tracklet(1, 11, 20))


class TestFiltering:
    def test_default_threshold(self):
        assert MIN_TRACKLET_LEN == 16
        short = _tracklet(0, 0, 14)  # 15 frames
        exact = _tracklet(1, 0, 15)  # 16 frames
        assert filter_min_length([short, exact]) == [exact]

    def test_custom_threshold_and_validation(self):
        t = _tracklet(0, 0, 4)
        assert filter_min_length([t], min_len=5) == [t]
        assert filter_min_length([t], min_len=6) == []
        with pytest.raises(ValueError, match="min_len"):
            filter_min_length([t], min_len=0)


class TestOverlapGraph:
    def test_hand_case(self):
        ts = [_tracklet(3, 0, 10), _tracklet(7, 5, 15), _tracklet(9, 20, 30)]
        assert overlap_graph(ts) == {3: {7}, 7: {3}, 9: set()}

    def test_symmetric_without_self_edges(self):
        import random

        rng = random.Random(1)
        ts = []
        for tid in range(12):
            start = rng.randint(0, 40)
            ts.append(_tracklet(tid, start, start + rng.randint(0, 15)))
        graph = overlap_graph(ts)
        for a in ts:
            assert a.id not in graph[a.id]
            for b in ts:
                if a.id == b.id:
                    continue
                assert (b.id in graph[a.id]) == temporal_overlap(a, b)
                assert (b.id in graph[a.id]) == (a.id in graph[b.id])


class TestEnumerateKeys:
    def test_file_order_then_frames_ascending(self):
        ts = [_tracklet(9, 4, 6), _tracklet(2, 0, 1)]
        keys = enumerate_keys(ts)
        assert keys.dtype == np.int64 and keys.tolist() == [[9, 4], [9, 5], [9, 6], [2, 0], [2, 1]]

    def test_keys_at_the_int64_extremes_are_int64(self):
        big, low = 2**63 - 1, -(2**63)
        keys = enumerate_keys([_tracklet(big, big - 1, big), _tracklet(1, low, low)])
        assert keys.dtype == np.int64 and keys.tolist() == [[big, big - 1], [big, big], [1, low]]
        assert enumerate_keys([]).shape == (0, 2) and enumerate_keys([]).dtype == np.int64


class TestTrackletsJson:
    def test_round_trip(self, tmp_path):
        ts = [_tracklet(0, 0, 3, feature_rows=[0, 1, 2, 3]), _tracklet(5, 2, 4, feature_rows=[10, 11, 12])]
        path = tmp_path / "tracklets.json"
        write_tracklets_json(ts, path)
        assert load_tracklets_json(path) == ts


    def test_writes_the_bytes_of_json_dumps(self, tmp_path):
        def dumped(tracklets):
            entries = []
            for t in tracklets:
                entry = {"id": t.id, "start": t.start, "end": t.end, "boxes": [list(b) for b in t.boxes]}
                if t.feature_rows is not None:
                    entry["feature_rows"] = list(t.feature_rows)
                entries.append(entry)
            return (json.dumps({"tracklets": entries}, indent=2) + "\n").encode()

        rng = np.random.default_rng(0)
        edges = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1e16, 1e-05]
        for with_rows in (False, True):
            tracklets = []
            for _ in range(1000):
                length = int(rng.integers(1, 5))
                start = int(rng.integers(-(2**40), 2**40)) * int(rng.choice([1, 2**40]))  # past int64 at times
                coords = rng.normal(size=(length, 4)) * 10.0 ** rng.integers(-300, 300, size=(length, 4))
                coords[rng.uniform(size=coords.shape) < 0.1] = rng.choice(edges)
                boxes = [tuple(map(np.float64, box)) for box in coords]  # numpy floats, as the synthesizer's may be
                rows = [int(r) * int(rng.choice([1, 2**70])) for r in rng.integers(0, 99, size=length)]
                tracklets.append(Tracklet(
                    id=int(rng.integers(0, 2**62)) * int(rng.choice([1, 2**20])), start=start, end=start + length - 1,
                    boxes=boxes, feature_rows=rows if with_rows else None,
                ))
            path = tmp_path / "t.json"
            for subset in ([], tracklets[:1], tracklets):
                write_tracklets_json(subset, path)
                assert path.read_bytes() == dumped(subset)

    def test_null_feature_rows_means_absent(self, tmp_path):
        path = tmp_path / "t.json"
        doc = {
            "tracklets": [
                {"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]], "feature_rows": None}
            ]
        }
        path.write_text(json.dumps(doc))
        assert load_tracklets_json(path)[0].feature_rows is None

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
