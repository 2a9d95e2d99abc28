"""Detection metric tests: matching, AP, operating points, JSONL interchange."""

import builtins
import json
import random
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from motionstack import det_metrics
from motionstack.det_metrics import (
    IOU_GRID,
    Detection,
    GroundTruth,
    ap_101,
    as_columns,
    evaluate,
    f1_operating_point,
    iou,
    load_detections_jsonl,
    load_ground_truth_jsonl,
    match_detections,
    score_order,
    write_detections_jsonl,
    write_ground_truth_jsonl,
)
from motionstack.errors import DataValidationError

int_boxes = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h),
    st.integers(0, 20),
    st.integers(0, 20),
    st.integers(1, 15),
    st.integers(1, 15),
)


def _random_instance(seed):
    """A small evaluation instance with deliberate score ties and label overlap."""
    import random

    rng = random.Random(seed)
    gts = []
    for _ in range(rng.randint(0, 5)):
        x, y = rng.randint(0, 20), rng.randint(0, 20)
        w, h = rng.randint(1, 10), rng.randint(1, 10)
        gts.append(
            GroundTruth(frame=rng.randint(0, 1), bbox=(x, y, x + w, y + h), label=rng.randint(0, 2))
        )
    dets = []
    for _ in range(rng.randint(0, 7)):
        x, y = rng.randint(0, 20), rng.randint(0, 20)
        w, h = rng.randint(1, 10), rng.randint(1, 10)
        dets.append(
            Detection(
                frame=rng.randint(0, 1),
                bbox=(x, y, x + w, y + h),
                score=rng.choice([0.2, 0.4, 0.4, 0.6, 0.8, 1.0]),
                label=rng.randint(0, 2),
            )
        )
    return dets, gts


def _dense_instance(seed):
    """A crowded instance: few slots, duplicate boxes, exact-threshold IoUs, scores in 0.01 steps."""
    rng = random.Random(seed)
    gts = []
    for _ in range(rng.randint(1, 12)):
        x, y = rng.randint(0, 6), rng.randint(0, 6)
        gts.append(GroundTruth(frame=rng.randint(0, 2), bbox=(x, y, x + 10, y + 10), label=rng.randint(0, 1)))
    gts += [rng.choice(gts) for _ in range(rng.randint(1, 3))]
    dets = []
    for _ in range(rng.randint(1, 20)):
        if rng.random() < 0.7:
            # A 10x10 box cut to height h has IoU h / 10 with it: exactly 0.5, 0.55, ..., 1.0.
            g = rng.choice(gts)
            x1, y1, x2, _ = g.bbox
            frame, bbox, label = g.frame, (x1, y1, x2, y1 + rng.randint(10, 20) / 2), g.label
        else:
            x, y = rng.randint(0, 10), rng.randint(0, 10)
            bbox = (x, y, x + rng.randint(2, 12), y + rng.randint(2, 12))
            frame, label = rng.randint(0, 2), rng.randint(0, 2)  # class 2 has no ground truth
        dets.append(Detection(frame=frame, bbox=bbox, score=rng.randint(0, 100) / 100, label=label))
    if seed % 6 == 0:
        dets = []
    elif seed % 6 == 1:
        gts = []
    return dets, gts


MULTI_CLASS_LABELS = (0, -(2**63), 2**63 - 1)


def _multi_class_instance(seed):
    """Classes 0, -2**63 and 2**63 - 1 sharing frames and boxes, plus class 7 that only detections use."""
    rng = random.Random(seed)
    gts = []
    for k in range(rng.randint(6, 14)):
        x, y = rng.randint(0, 6), rng.randint(0, 6)
        label = MULTI_CLASS_LABELS[k % 3]
        gts.append(GroundTruth(frame=rng.randint(0, 2), bbox=(x, y, x + 10, y + 10), label=label))
    dets = []
    for k in range(rng.randint(10, 30)):
        g = rng.choice(gts)
        x1, y1, x2, _ = g.bbox
        # A 10x10 box cut to height h has IoU h / 10 with its source box.
        bbox = (x1, y1, x2, y1 + rng.randint(10, 20) / 2)
        label = g.label if rng.random() < 0.7 else rng.choice(MULTI_CLASS_LABELS)
        if k == 0:
            label = 7  # a class without ground truth
        dets.append(Detection(frame=g.frame, bbox=bbox, score=rng.randint(0, 10) / 10, label=label))
    return dets, gts


def _compensated_sum(values, start=0):
    """The built-in sum() as Python 3.12 runs it: integers exactly, floats with Neumaier's compensation."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


@st.composite
def _float_box_pairs(draw):
    """Two float boxes that overlap freely, touch, nest or are disjoint, at a drawn scale."""
    coord = st.floats(-100.0, 100.0)
    size = st.floats(1e-3, 50.0)
    x, y, w, h = draw(coord), draw(coord), draw(size), draw(size)
    a = (x, y, x + w, y + h)
    relation = draw(st.sampled_from(["free", "touching", "nested", "disjoint"]))
    if relation == "free":
        bx, by = draw(coord), draw(coord)
        b = (bx, by, bx + draw(size), by + draw(size))
    elif relation == "touching":
        by = draw(coord)
        b = (a[2], by, a[2] + draw(size), by + draw(size))
    elif relation == "nested":
        fraction_pair = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted)
        fx, fy = draw(fraction_pair), draw(fraction_pair)
        b = (x + fx[0] * w, y + fy[0] * h, x + fx[1] * w, y + fy[1] * h)
    else:
        bx, by = a[2] + draw(size), draw(coord)
        b = (bx, by, bx + draw(size), by + draw(size))
    # At 1e150 every product stays finite; at 1e200 the areas overflow to inf and the union is NaN.
    scale = draw(st.sampled_from([1.0, 1e-3, 1e150, 1e200]))
    return tuple(v * scale for v in a), tuple(v * scale for v in b)


def _bits(value):
    return struct.pack("<d", float(value))


class TestIou:
    @settings(max_examples=80, deadline=None)
    @given(int_boxes, int_boxes)
    def test_symmetric_and_bounded(self, a, b):
        value = iou(a, b)
        assert value == iou(b, a)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(int_boxes)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    def test_disjoint_and_touching(self):
        assert iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0  # shared edge, zero-area overlap
        assert iou((0, 0, 10, 10), (30, 30, 40, 40)) == 0.0

    def test_exact_rational_value(self):
        # inter 75, union 125: every operand is exactly representable.
        assert iou((0, 0, 10, 10), (0, 2.5, 10, 12.5)) == 0.6

    def test_grid(self):
        assert IOU_GRID == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    @settings(max_examples=300, deadline=None)
    @given(_float_box_pairs())
    def test_matches_scalar_oracle_bit_for_bit(self, pair):
        a, b = pair
        assert _bits(iou(a, b)) == _bits(oracles.iou_boxes(a, b))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_float_box_pairs(), min_size=1, max_size=12))
    def test_array_form_matches_each_scalar_pair(self, pairs):
        a = np.array([p for p, _ in pairs])
        b = np.array([q for _, q in pairs])
        assert [_bits(v) for v in iou(a, b)] == [_bits(oracles.iou_boxes(p, q)) for p, q in pairs]
        grid = iou(a[:, None, :], b[None, :, :])
        assert grid.shape == (len(pairs), len(pairs))
        want = [[_bits(oracles.iou_boxes(p, q)) for q in b.tolist()] for p in a.tolist()]
        assert [[_bits(v) for v in row] for row in grid] == want


class TestScoreOrder:
    def test_descending_with_frame_then_position_ties(self):
        dets = [
            Detection(frame=3, bbox=(0, 0, 1, 1), score=0.5, label=0),
            Detection(frame=1, bbox=(0, 0, 1, 1), score=0.5, label=0),
            Detection(frame=1, bbox=(0, 0, 1, 1), score=0.9, label=0),
            Detection(frame=1, bbox=(0, 0, 1, 1), score=0.5, label=0),
        ]
        assert score_order(dets) == [2, 1, 3, 0]

    def test_matches_selection_oracle(self):
        for seed in range(20):
            dets, _ = _random_instance(seed)
            assert score_order(dets) == oracles.selection_order(dets)


class TestMatching:
    def test_hand_case(self):
        gts = [
            GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0),
            GroundTruth(frame=0, bbox=(20, 0, 30, 10), label=0),
        ]
        dets = [
            Detection(frame=0, bbox=(0, 0, 10, 10), score=0.9, label=0),
            Detection(frame=0, bbox=(0, 0, 10, 10), score=0.8, label=0),
            Detection(frame=0, bbox=(19, 0, 29, 10), score=0.7, label=0),
        ]
        result = match_detections(dets, gts, 0.5)
        assert result.order == [0, 1, 2]
        assert result.flags == [True, False, True]
        assert result.matched_gt == [0, None, 1]
        assert result.fn_by_frame == {}

    def test_iou_tie_prefers_earliest_ground_truth(self):
        gts = [
            GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0),
            GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0),
        ]
        dets = [Detection(frame=0, bbox=(0, 0, 10, 10), score=1.0, label=0)]
        result = match_detections(dets, gts, 0.5)
        assert result.matched_gt == [0]
        assert result.fn_by_frame == {0: 1}

    def test_threshold_is_inclusive(self):
        gts = [GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0)]
        dets = [Detection(frame=0, bbox=(0, 2.5, 10, 12.5), score=1.0, label=0)]  # IoU 0.6 exactly
        assert match_detections(dets, gts, 0.6).flags == [True]
        assert match_detections(dets, gts, 0.6000000001).flags == [False]

    def test_frame_and_class_isolation(self):
        gts = [GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0)]
        wrong_frame = [Detection(frame=1, bbox=(0, 0, 10, 10), score=1.0, label=0)]
        wrong_class = [Detection(frame=0, bbox=(0, 0, 10, 10), score=1.0, label=1)]
        assert match_detections(wrong_frame, gts, 0.5).flags == [False]
        assert match_detections(wrong_class, gts, 0.5).flags == [False]

    def test_matches_scan_oracle(self):
        for seed in range(40):
            dets, gts = _random_instance(seed)
            for thr in (0.3, 0.5, 0.75):
                result = match_detections(dets, gts, thr)
                assert result.flags == oracles.greedy_flags(dets, gts, thr)

    @pytest.mark.parametrize("block", [1, 7, det_metrics._PAIR_BLOCK, 1 << 16])
    def test_whole_result_matches_scan_oracle_on_dense_instances(self, block, monkeypatch):
        monkeypatch.setattr(det_metrics, "_PAIR_BLOCK", block)
        on_threshold = 0
        for seed in range(60):
            dets, gts = _dense_instance(seed)
            for thr in IOU_GRID:
                result = match_detections(dets, gts, thr)
                flags, matched = oracles.greedy_match(dets, gts, thr)
                claimed = set(matched)
                assert result.order == oracles.selection_order(dets)
                assert result.flags == flags
                assert result.matched_gt == matched
                assert result.fn_by_frame == Counter(g.frame for j, g in enumerate(gts) if j not in claimed)
                on_threshold += sum(
                    oracles.iou_boxes(dets[i].bbox, gts[j].bbox) == thr
                    for i, j in zip(result.order, matched)
                    if j is not None
                )
        assert on_threshold > 0

    def test_a_crowded_slot_lists_only_the_swept_candidates(self):
        # One frame of 700 mutually overlapping 100-px boxes: most of the
        # ~490,000 pairs are candidates. Converting the whole candidate
        # array to a Python list peaked at 40.3 MiB in tracemalloc, and
        # converting each swept detection's own slice at 33.9 MiB.
        rng = np.random.default_rng(0)

        def boxes(n):
            xy = rng.uniform(0.0, 10.0, size=(n, 2))
            return np.hstack([xy, xy + 100.0])

        zeros = np.zeros(700, dtype=np.int64)
        dets = det_metrics.BoxColumns(zeros, boxes(700), zeros, rng.uniform(size=700))
        gts = det_metrics.BoxColumns(zeros, boxes(700), zeros)
        tracemalloc.start()
        try:
            result = match_detections(dets, gts, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        claimed = [j for j in result.matched_gt if j is not None]
        assert len(claimed) == len(set(claimed)) > 600
        assert peak < 37 * 2**20


class TestAp101:
    def test_empty_ground_truth(self):
        assert ap_101([], 0) == 0.0
        assert ap_101([False, False], 0) == 0.0

    def test_perfect_run(self):
        assert ap_101([True, True, True], 3) == 1.0

    def test_no_true_positives(self):
        assert ap_101([False] * 5, 3) == 0.0

    def test_matches_textbook_oracle_bitwise(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            num_gt = rng.randint(1, 8)
            flags = [rng.random() < 0.5 for _ in range(rng.randint(0, 12))]
            while sum(flags) > num_gt:
                flags[flags.index(True)] = False
            assert ap_101(flags, num_gt) == oracles.interp_ap_101(flags, num_gt)


class TestF1OperatingPoint:
    def test_tie_keeps_shortest_prefix(self):
        # Flags [T, F, F, T] with 2 ground truths: F1 is 2/3 at k=1 and k=4.
        gts = [
            GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0),
            GroundTruth(frame=0, bbox=(50, 0, 60, 10), label=0),
        ]
        dets = [
            Detection(frame=0, bbox=(0, 0, 10, 10), score=0.9, label=0),
            Detection(frame=0, bbox=(100, 0, 110, 10), score=0.8, label=0),
            Detection(frame=0, bbox=(100, 20, 110, 30), score=0.7, label=0),
            Detection(frame=0, bbox=(50, 0, 60, 10), score=0.6, label=0),
        ]
        point = f1_operating_point(dets, gts)
        assert point["k"] == 1
        assert point["precision"] == 1.0
        assert point["recall"] == 0.5
        assert point["score_threshold"] == 0.9

    @pytest.mark.parametrize("tp_first", [True, False])
    def test_prefix_keeps_every_tied_score(self, tp_first):
        # A 0.5 cutoff keeps both detections whichever order they come in.
        gts = [GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0)]
        tp = Detection(frame=0, bbox=(0, 0, 10, 10), score=0.5, label=0)
        fp = Detection(frame=0, bbox=(50, 0, 60, 10), score=0.5, label=0)
        dets = [tp, fp] if tp_first else [fp, tp]
        point = f1_operating_point(dets, gts)
        assert (point["k"], point["precision"], point["recall"]) == (2, 0.5, 1.0)
        assert point["f1"] == 2.0 / 3.0
        assert point["score_threshold"] == 0.5
        want = oracles.best_f1_prefix(dets, gts, 0.5)
        assert {k: point[k] for k in want} == want

    def test_empty_detections(self):
        gts = [GroundTruth(frame=0, bbox=(0, 0, 1, 1), label=0)]
        point = f1_operating_point([], gts)
        assert point == {
            "k": 0,
            "precision": 0.0,
            "recall": 0.0,
            "f1": 0.0,
            "score_threshold": None,
        }

    def test_matches_prefix_oracle(self):
        instances = [_random_instance(seed) for seed in range(30)]
        for seed in range(60):
            # Tie-heavy: up to 20 detections share 11 scores, so many prefixes end inside a tie.
            dets, gts = _dense_instance(seed)
            instances.append(([Detection(d.frame, d.bbox, round(d.score, 1), d.label) for d in dets], gts))
        for dets, gts in instances:
            got = f1_operating_point(dets, gts)
            want = oracles.best_f1_prefix(dets, gts, 0.5)
            assert {key: got[key] for key in want} == want


class TestEvaluate:
    def test_matches_oracle_mirror_exactly(self):
        for seed in range(60):
            dets, gts = _random_instance(seed)
            report = evaluate(dets, gts)
            want = oracles.evaluate_oracle(dets, gts, IOU_GRID)
            assert report["ap_per_threshold"] == want["ap_per_threshold"]
            assert report["map50"] == want["map50"]
            assert report["map5095"] == want["map5095"]
            assert report["precision"] == want["precision"]
            assert report["recall"] == want["recall"]
            assert set(report["per_class"]) == set(want["per_class"])
            for key, sweep in want["per_class"].items():
                assert report["per_class"][key]["ap_per_threshold"] == sweep

    def test_perfect_detections_score_one(self):
        gts = [
            GroundTruth(frame=f, bbox=(10 * f, 0, 10 * f + 5, 5), label=f % 2) for f in range(4)
        ]
        dets = [Detection(frame=g.frame, bbox=g.bbox, score=1.0, label=g.label) for g in gts]
        report = evaluate(dets, gts)
        assert report["map50"] == 1.0
        assert report["map5095"] == 1.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert all(value == 1.0 for value in report["ap_per_threshold"])

    def test_detection_only_class_scores_zero_but_counts(self):
        gts = [GroundTruth(frame=0, bbox=(0, 0, 10, 10), label=0)]
        dets = [
            Detection(frame=0, bbox=(0, 0, 10, 10), score=0.9, label=0),
            Detection(frame=0, bbox=(0, 0, 10, 10), score=0.8, label=7),
        ]
        report = evaluate(dets, gts)
        assert set(report["per_class"]) == {"0", "7"}
        assert report["per_class"]["7"]["ap_per_threshold"] == [0.0] * 10
        assert report["per_class"]["7"]["num_gt"] == 0
        assert report["map50"] == 0.5  # class 0 at 1.0, class 7 at 0.0

    def test_empty_inputs(self):
        report = evaluate([], [])
        assert report["ap_per_threshold"] == [0.0] * 10
        assert report["map50"] == 0.0
        assert report["map5095"] == 0.0
        assert report["per_class"] == {}
        assert report["num_detections"] == 0
        assert report["num_ground_truth"] == 0

    def test_one_pooled_matching_per_threshold_serves_every_class(self, monkeypatch):
        match = det_metrics.match_detections
        calls = []

        def counting_match(dets, gts, iou_threshold):
            calls.append(iou_threshold)
            return match(dets, gts, iou_threshold)

        monkeypatch.setattr(det_metrics, "match_detections", counting_match)
        partial = 0
        for seed in range(20):
            dets, gts = _multi_class_instance(seed)
            calls.clear()
            report = evaluate(dets, gts)
            assert len(calls) == 11  # ten thresholds plus the operating point
            assert set(report["per_class"]) == {str(label) for label in (*MULTI_CLASS_LABELS, 7)}
            for label in (*MULTI_CLASS_LABELS, 7):
                class_dets = [d for d in dets if d.label == label]
                class_gts = [g for g in gts if g.label == label]
                want = [ap_101(match(class_dets, class_gts, thr).flags, len(class_gts)) for thr in IOU_GRID]
                got = report["per_class"][str(label)]
                assert got["ap_per_threshold"] == want
                assert (got["num_gt"], got["num_detections"]) == (len(class_gts), len(class_dets))
                partial += sum(0.0 < ap < 1.0 for ap in want)
        assert partial > 0

    def test_report_does_not_depend_on_a_compensated_sum(self, monkeypatch):
        # Python 3.12+'s built-in sum() of floats is Neumaier-compensated; an
        # evaluate that summed with it would report other bits than on 3.10/3.11.
        assert _compensated_sum([0.1] * 10) == 1.0  # a left-to-right sum gives 0.9999999999999999
        instances = [_multi_class_instance(seed) for seed in range(20)]
        reports = [evaluate(dets, gts) for dets, gts in instances]
        monkeypatch.setattr(det_metrics, "sum", _compensated_sum, raising=False)
        assert [evaluate(dets, gts) for dets, gts in instances] == reports

    def test_loaded_int64_extremes_match_the_oracle(self, tmp_path):
        # Classes 0, -2**63 and 2**63 - 1, frames 0 and 2 moved to int64's
        # ends, and scores in 0.1 steps that tie.
        extreme_frames = 0
        for seed in range(20):
            dets, gts = _multi_class_instance(seed)
            frame = {0: -(2**63), 1: 1, 2: 2**63 - 1}
            dets = [Detection(frame[d.frame], d.bbox, d.score, d.label) for d in dets]
            gts = [GroundTruth(frame[g.frame], g.bbox, g.label) for g in gts]
            write_detections_jsonl(dets, tmp_path / "dets.jsonl")
            write_ground_truth_jsonl(gts, tmp_path / "gt.jsonl")
            dets = load_detections_jsonl(tmp_path / "dets.jsonl")
            gts = load_ground_truth_jsonl(tmp_path / "gt.jsonl")
            assert dets.label.dtype == gts.label.dtype == dets.frame.dtype == gts.frame.dtype == np.int64
            extreme_frames += {-(2**63), 2**63 - 1} <= set(gts.frame.tolist())
            report = evaluate(dets, gts)
            want = oracles.evaluate_oracle(dets, gts, IOU_GRID)
            for key in ("ap_per_threshold", "map50", "map5095", "precision", "recall"):
                assert report[key] == want[key]
            assert {key: value["ap_per_threshold"] for key, value in report["per_class"].items()} == want["per_class"]
        assert extreme_frames > 0

    def test_a_detection_outside_int64_is_named(self):
        box = (0, 0, 1, 1)
        with pytest.raises(DataValidationError, match=r"^detections\[0\]\.label must be an integer in int64 range, got "
                           r"1180591620717411303424$"):
            evaluate([Detection(0, box, 0.5, 2**70)], [])
        # The first record that holds such a value is named, its frame before its label.
        dets = [Detection(2**63 - 1, box, 0.5, -(2**63)), Detection(-(2**63) - 1, box, 0.5, 2**63),
                Detection(2**64, box, 0.5, 0)]
        with pytest.raises(DataValidationError, match=r"^detections\[1\]\.frame must be an integer in int64 range, got "
                           r"-9223372036854775809$"):
            evaluate(dets, [])

    def test_a_ground_truth_record_outside_int64_is_named(self):
        box = (0, 0, 1, 1)
        with pytest.raises(DataValidationError, match=r"^ground truth\[1\]\.frame must be an integer in int64 range, "
                           r"got 9223372036854775808$"):
            evaluate([], [GroundTruth(0, box, 1), GroundTruth(2**63, box, 1)])
        with pytest.raises(DataValidationError, match=r"^ground truth\[0\]\.label must be an integer in int64 range"):
            evaluate([], [GroundTruth(0, box, -(2**70))])

    @pytest.mark.parametrize(
        "records, scored, message",
        [
            ([Detection(1.5, (0, 0, 1, 1), 0.5, 1)], True, "detections[0].frame must be an integer, got 1.5"),
            ([GroundTruth(0, (0, 0, 1, 1), 2), GroundTruth(3, (0, 0, 1, 1), "7")], False,
             'ground truth[1].label must be an integer, got "7"'),
            ([Detection(np.int64(4), (0, 0, 1, 1), 0.5, True)], True,
             "detections[0].label must be an integer, got true"),
        ],
        ids=["float", "string", "bool"],
    )
    def test_a_record_that_is_no_integer_is_named(self, records, scored, message):
        with pytest.raises(DataValidationError) as info:
            as_columns(records, scored)
        assert str(info.value) == message

    def test_numpy_integers_are_integers(self):
        columns = as_columns([GroundTruth(np.uint8(3), (0, 0, 1, 1), np.int64(-(2**63)))], False)
        assert columns.frame.tolist() == [3] and columns.label.tolist() == [-(2**63)]
        with pytest.raises(DataValidationError, match=r"^ground truth\[0\]\.frame must be an integer in int64 range"):
            as_columns([GroundTruth(np.uint64(2**63), (0, 0, 1, 1), 0)], False)

    def test_report_is_json_ready(self):
        dets, gts = _random_instance(3)
        report = evaluate(dets, gts)
        assert json.loads(json.dumps(report)) == report


class TestJsonl:
    def test_round_trip(self, tmp_path):
        dets, gts = _random_instance(9)
        det_path = tmp_path / "dets.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_detections_jsonl(dets, det_path)
        write_ground_truth_jsonl(gts, gt_path)
        assert load_detections_jsonl(det_path) == [
            Detection(d.frame, tuple(float(v) for v in d.bbox), d.score, d.label) for d in dets
        ]
        assert load_ground_truth_jsonl(gt_path) == [
            GroundTruth(g.frame, tuple(float(v) for v in g.bbox), g.label) for g in gts
        ]

    def test_wire_key_is_class(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections_jsonl([Detection(frame=0, bbox=(0, 0, 1, 1), score=0.5, label=3)], path)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["class"] == 3
        assert "label" not in record

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('\n{"frame": 0, "bbox": [0, 0, 1, 1], "class": 0}\n\n')
        assert len(load_ground_truth_jsonl(path)) == 1

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame": 0, "bbox": [0, 0, 1, 1], "class": 0}\nnot json\n')
        with pytest.raises(DataValidationError, match=r"bad\.jsonl:2: invalid JSON"):
            load_ground_truth_jsonl(path)

    @pytest.mark.parametrize(
        "line,pattern",
        [
            pytest.param('[1, 2]', r"gt\.jsonl:1 must be an object, got \[1, 2\]", id="[1, 2]-expected an object"),
            ('{"frame": 0, "bbox": [0, 0, 1, 1]}', "class must be an integer, got null"),
            ('{"frame": 0, "bbox": [0, 0, 1, 1], "class": true}', "class must be an integer"),
            ('{"frame": 0.5, "bbox": [0, 0, 1, 1], "class": 0}', "frame must be an integer"),
            ('{"frame": 0, "bbox": [0, 0, 1], "class": 0}', r"bbox must be \[x1, y1, x2, y2\]"),
            ('{"frame": 0, "bbox": [0, 0, "a", 1], "class": 0}', r'bbox\[2\] must be a finite number, got "a"'),
            (
                '{"frame": 0, "bbox": [0, 0, Infinity, 1], "class": 0}',
                r"bbox\[2\] must be a finite number, got Infinity",
            ),
            ('{"frame": 0, "bbox": [5, 0, 5, 1], "class": 0}', "x2 > x1"),
            ('{"frame": 0, "bbox": [0, 3, 1, 2], "class": 0}', "y2 > y1"),
        ],
    )
    def test_ground_truth_validation(self, tmp_path, line, pattern):
        path = tmp_path / "gt.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DataValidationError, match=pattern):
            load_ground_truth_jsonl(path)

    @pytest.mark.parametrize(
        "line,pattern",
        [
            ('{"frame": 0, "bbox": [0, 0, 1, 1], "class": 0}', "score must be a finite number"),
            (
                '{"frame": 0, "bbox": [0, 0, 1, 1], "score": 1.5, "class": 0}',
                r"score must lie in \[0, 1\]",
            ),
            (
                '{"frame": 0, "bbox": [0, 0, 1, 1], "score": true, "class": 0}',
                "score must be a finite number",
            ),
            (
                '{"frame": 0, "bbox": [0, 0, 1, 1], "score": NaN, "class": 0}',
                "score must be a finite number",
            ),
        ],
    )
    def test_detection_validation(self, tmp_path, line, pattern):
        path = tmp_path / "dets.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DataValidationError, match=pattern):
            load_detections_jsonl(path)
