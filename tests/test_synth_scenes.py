"""Synthetic scene generation and perturbation tests."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from motionstack import synth_scenes
from motionstack.det_metrics import (
    IOU_GRID,
    GroundTruth,
    evaluate,
    load_detections_jsonl,
    load_ground_truth_jsonl,
    write_detections_jsonl,
)
from motionstack.errors import MotionStackError
from motionstack.frame_pipeline import FrameSequence, InputConfig, build_input
from motionstack.metric_learning import load_feature_table, mine_triplets, write_triplets_jsonl
from motionstack.synth_scenes import (
    BACKGROUND_MODES,
    DEFAULT_FEATURE_DIM,
    NOISE_SIGMA,
    PROTOTYPE_SCALE,
    SceneConfig,
    _background,
    _Blob,
    _render,
    _step,
    generate,
    perturb_detections,
)
from motionstack.tensor_io import read_ppm, read_tensor
from motionstack.tracklets import enumerate_keys, filter_min_length, load_identity_map, load_tracklets_json


def _tree_bytes(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(str(p.relative_to(root)), p.read_bytes()) for p in files]


class TestSceneConfig:
    def test_defaults(self):
        config = SceneConfig()
        assert (config.width, config.height) == (96, 72)
        assert (config.num_frames, config.num_objects) == (64, 3)
        assert config.radius_range == (4, 7)
        assert config.velocity_range == (1.0, 2.5)
        assert config.background == "flat"
        assert config.feature_dim == DEFAULT_FEATURE_DIM == 32
        assert BACKGROUND_MODES == ("flat", "textured")

    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            ({"num_frames": 0}, "num_frames"),
            ({"num_objects": 0}, "num_objects"),
            ({"radius_range": (0, 4)}, "radius_range"),
            ({"radius_range": (5, 4)}, "radius_range"),
            ({"radius_range": (2.5, 4)}, "radius_range"),
            ({"velocity_range": (-1.0, 2.0)}, "velocity_range"),
            ({"velocity_range": (3.0, 2.0)}, "velocity_range"),
            ({"width": 15, "height": 80, "radius_range": (7, 7)}, "cannot fit"),
            ({"background": "noise"}, "background"),
            ({"feature_dim": 2}, "feature_dim 2"),
            ({"id_switch_events": ((5, 10),)}, "outside 0..2"),
            ({"id_switch_events": ((0, 0),)}, "frame 0 outside"),
            ({"id_switch_events": ((0, 64),)}, "outside 1..63"),
            ({"id_switch_events": ((0, 9), (0, 9))}, "duplicate id switch"),
            ({"id_switch_events": ((0, 1.5),)}, r"must be \(object, frame\) integers, got \(0, 1.5\)"),
            ({"seed": -1}, "seed must be nonnegative, got -1"),
        ],
    )
    def test_validation(self, kwargs, pattern):
        # Scene parameters are arguments, not file contents: a plain ValueError.
        with pytest.raises(ValueError, match=pattern) as caught:
            SceneConfig(**kwargs)
        assert not isinstance(caught.value, MotionStackError)

    def test_zero_velocity_allowed(self):
        assert SceneConfig(velocity_range=(0.0, 0.0)).velocity_range == (0.0, 0.0)


class TestGenerate:
    def test_bit_identical_regeneration(self, tmp_path):
        config = SceneConfig(num_frames=6, num_objects=2, seed=3, background="textured")
        generate(config, tmp_path / "a")
        generate(SceneConfig(num_frames=6, num_objects=2, seed=3, background="textured"), tmp_path / "b")
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_seed_changes_output(self, tmp_path):
        generate(SceneConfig(num_frames=4, seed=0), tmp_path / "a")
        generate(SceneConfig(num_frames=4, seed=1), tmp_path / "b")
        assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "b")

    def test_artifact_layout(self, scene12):
        for name in ("gt.jsonl", "tracklets.json", "identity_map.json", "features.mten", "scene.json"):
            assert (scene12 / name).exists()
        frames = sorted((scene12 / "frames").glob("*.ppm"))
        assert [p.name for p in frames] == [f"frame_{f:06d}.ppm" for f in range(12)]
        manifest = json.loads((scene12 / "scene.json").read_text())
        config = asdict(SceneConfig(num_frames=12, num_objects=2, seed=7))
        assert manifest["config"] == json.loads(json.dumps(config))
        assert manifest["frame_files"] == [p.name for p in frames]

    def test_wide_features_are_held_once_as_float32(self, tmp_path):
        config = SceneConfig(width=48, height=36, num_frames=200, num_objects=6, feature_dim=512, seed=7)
        features = 200 * 6 * 512 * 4  # the float32 [frames, objects, D] array, 2.3 MiB
        tracemalloc.start()
        try:
            generate(config, tmp_path / "scene")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A float64 array of the features and its float32 copy would take 3 times as much.
        assert peak < 2 * features, peak / features

    def test_returned_counts(self, tmp_path):
        out = generate(SceneConfig(num_frames=10, num_objects=3, id_switch_events=((1, 4),), seed=0), tmp_path)
        assert out["num_frames"] == 10
        assert out["num_tracklets"] == 4  # one object split once
        assert out["num_ground_truth"] == 30

    def test_ground_truth_matches_tracklets(self, short_fragment_scene):
        gts = load_ground_truth_jsonl(short_fragment_scene / "gt.jsonl")
        tracklets = load_tracklets_json(short_fragment_scene / "tracklets.json")
        groups = load_identity_map(short_fragment_scene / "identity_map.json")
        num_objects = len(groups)
        object_of = {tid: obj for obj, group in enumerate(groups) for tid in group}
        assert all(g.label == 0 for g in gts)
        # gt.jsonl is frame-major with objects in order inside each frame
        keys = enumerate_keys(tracklets).tolist()
        assert len(keys) == len(gts)
        for (tid, f), box in zip(keys, tracklets.boxes.tolist()):
            assert tuple(box) == gts[f * num_objects + object_of[tid]].bbox

    def test_split_semantics(self, tmp_path):
        out = tmp_path / "scene"
        generate(SceneConfig(num_frames=8, num_objects=1, id_switch_events=((0, 5),), seed=2), out)
        tracklets = load_tracklets_json(out / "tracklets.json")
        assert [(t.id, t.start, t.end) for t in tracklets] == [(0, 0, 4), (1, 5, 7)]
        assert load_identity_map(out / "identity_map.json") == [[0, 1]]

    def test_fresh_ids_follow_frame_then_object_order(self, tmp_path):
        out = tmp_path / "scene"
        config = SceneConfig(num_frames=10, num_objects=2, id_switch_events=((1, 3), (0, 2)), seed=0)
        generate(config, out)
        tracklets = load_tracklets_json(out / "tracklets.json")
        # event (0, 2) happens first, so object 0's fragment takes id 2
        assert [(t.id, t.start, t.end) for t in tracklets] == [
            (0, 0, 1),
            (1, 0, 2),
            (2, 2, 9),
            (3, 3, 9),
        ]
        assert load_identity_map(out / "identity_map.json") == [[0, 2], [1, 3]]

    def test_singleton_groups_included(self, scene12):
        assert load_identity_map(scene12 / "identity_map.json") == [[0], [1]]

    def test_feature_rows_are_frame_major(self, scene12):
        tracklets = load_tracklets_json(scene12 / "tracklets.json")
        tid, frame = enumerate_keys(tracklets).T
        assert tracklets.feature_rows.tolist() == (frame * 2 + tid).tolist()
        table = load_feature_table(tracklets, scene12 / "features.mten")
        assert table.matrix.shape == (24, 32)
        assert read_tensor(scene12 / "features.mten").dtype == np.float32

    def test_features_reconstruct_from_seeded_streams(self, scene12):
        # Row (frame, obj) must equal prototype + sigma * noise where the
        # noise stream is keyed on (seed, frame) alone: frame-local draws
        # cannot depend on any other frame's randomness.
        matrix = read_tensor(scene12 / "features.mten")
        for frame in (0, 5, 11):
            noise = np.random.default_rng([7, 1, frame]).normal(0.0, 1.0, size=(2, 32))
            for obj in range(2):
                prototype = np.zeros(32)
                prototype[obj] = PROTOTYPE_SCALE
                want = (prototype + NOISE_SIGMA * noise[obj]).astype(np.float32)
                assert matrix[frame * 2 + obj].tobytes() == want.tobytes()

    def test_prototype_separation_dominates_noise(self, reid_scene):
        tracklets = load_tracklets_json(reid_scene / "tracklets.json")
        table = load_feature_table(tracklets, reid_scene / "features.mten")
        groups = load_identity_map(reid_scene / "identity_map.json")
        means = []
        for group in groups:
            rows = np.concatenate(
                [table.rows((t.id, f) for f in t.frames) for t in tracklets if t.id in set(group)]
            )
            means.append(table.matrix[rows].mean(axis=0))
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                assert np.linalg.norm(means[i] - means[j]) >= 10.0 * NOISE_SIGMA
        assert PROTOTYPE_SCALE * np.sqrt(2.0) >= 10.0 * NOISE_SIGMA

    def test_boxes_stay_inside_canvas_under_bouncing(self, tmp_path):
        config = SceneConfig(
            width=48,
            height=36,
            num_frames=40,
            num_objects=2,
            radius_range=(3, 4),
            velocity_range=(5.0, 9.0),
            seed=13,
        )
        generate(config, tmp_path)
        for g in load_ground_truth_jsonl(tmp_path / "gt.jsonl"):
            x1, y1, x2, y2 = g.bbox
            assert 0.0 <= x1 < x2 <= 47.0
            assert 0.0 <= y1 < y2 <= 35.0

    def test_static_scene_yields_flat_difference_channels(self, tmp_path):
        config = SceneConfig(num_frames=5, num_objects=2, velocity_range=(0.0, 0.0), seed=4)
        generate(config, tmp_path)
        source = FrameSequence.from_dir(tmp_path / "frames")
        stacked = build_input(source, 3, InputConfig("diff_int", delta=2))
        assert np.array_equal(stacked.tensor[:3], source.planar(3))
        assert np.all(stacked.tensor[3:] == 127)

    def test_background_palettes(self, tmp_path):
        flat_dir = tmp_path / "flat"
        generate(SceneConfig(width=64, height=48, num_frames=1, num_objects=1, radius_range=(4, 4), seed=0), flat_dir)
        frame = read_ppm(flat_dir / "frames" / "frame_000000.ppm")
        pixels = frame.pixels.reshape(-1, 3)
        colors = {tuple(int(v) for v in p) for p in pixels}
        assert (32, 32, 32) in colors
        assert len(colors) == 2  # background plus one blob color

        textured_dir = tmp_path / "textured"
        generate(
            SceneConfig(
                width=64, height=48, num_frames=1, num_objects=1, radius_range=(4, 4),
                seed=0, background="textured",
            ),
            textured_dir,
        )
        frame = read_ppm(textured_dir / "frames" / "frame_000000.ppm")
        colors = {tuple(int(v) for v in p) for p in frame.pixels.reshape(-1, 3)}
        assert (24, 26, 30) in colors and (44, 46, 52) in colors


_W, _H = 40, 30


def _blob(radius, cx, cy, color=(200, 120, 80)):
    return _Blob(radius, float(cx), float(cy), 0.0, 0.0, color)


def _canvas_config(background):
    return SceneConfig(width=_W, height=_H, radius_range=(1, 8), background=background)


def _assert_render_matches_oracle(blobs, background="flat"):
    config = _canvas_config(background)
    canvas = _background(config)
    untouched = canvas.copy()
    got = _render(config, canvas, blobs)
    want = oracles.render_full_canvas(config, canvas, blobs)
    assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(canvas, untouched)
    return got


@st.composite
def _random_blobs(draw):
    blobs = []
    for i in range(draw(st.integers(1, 4))):
        r = draw(st.integers(1, 8))
        cx = draw(st.floats(-2.0 * r, _W + 2.0 * r, allow_nan=False))
        cy = draw(st.floats(-2.0 * r, _H + 2.0 * r, allow_nan=False))
        blobs.append(_blob(r, cx, cy, (64 + 40 * i, 255 - 40 * i, 100)))
    return blobs


class TestRender:
    """The windowed renderer against the full-canvas oracle, bit for bit."""

    @pytest.mark.parametrize("background", BACKGROUND_MODES)
    def test_radius_one_at_fractional_centres(self, background):
        centres = [(3.5, 4.25), (10.999, 7.001), (0.5, 0.5), (20.0, 15.0), (30.49, 22.51)]
        _assert_render_matches_oracle([_blob(1, cx, cy) for cx, cy in centres], background)

    @pytest.mark.parametrize("background", BACKGROUND_MODES)
    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_blobs_touching_each_edge(self, background, r):
        edges = [(r, 15.0), (_W - 1 - r, 15.0), (20.0, r), (20.0, _H - 1 - r), (0.0, 0.0), (_W - 1, _H - 1)]
        for cx, cy in edges:
            frame = _assert_render_matches_oracle([_blob(r, cx, cy)], background)
            assert (frame == (200, 120, 80)).all(axis=2).any()

    @pytest.mark.parametrize("background", BACKGROUND_MODES)
    @pytest.mark.parametrize("r", [1, 4, 8])
    def test_blobs_partly_and_wholly_off_each_side(self, background, r):
        partly = [(0.5 - r, 15.0), (_W - 1.5 + r, 15.0), (20.0, 0.25 - r), (20.0, _H - 1.25 + r)]
        wholly = [(-r - 1.5, 15.0), (_W + r + 0.5, 15.0), (20.0, -r - 1.0), (20.0, _H + r + 0.75)]
        # Windows that end before 0 or start past the far edge clamp to empty slices.
        far = [(-_W / 2, 15.0), (1.5 * _W, 15.0), (20.0, -_H / 2), (20.0, 1.5 * _H), (-r - 2.5, -r - 2.5)]
        far += [(-1000.0, 15.0), (_W + 1000.0, 15.0), (20.0, -1000.0), (20.0, _H + 1000.0), (-1e9, 1e9)]
        for cx, cy in partly:
            frame = _assert_render_matches_oracle([_blob(r, cx, cy)], background)
            assert (frame == (200, 120, 80)).all(axis=2).any()
        for cx, cy in wholly + far:
            frame = _assert_render_matches_oracle([_blob(r, cx, cy)], background)
            assert np.array_equal(frame, _background(_canvas_config(background)))

    @pytest.mark.parametrize("background", BACKGROUND_MODES)
    def test_overlapping_blobs_paint_in_order(self, background):
        first = _blob(6, 15.0, 12.0, (250, 10, 10))
        second = _blob(5, 19.5, 14.5, (10, 250, 10))
        forward = _assert_render_matches_oracle([first, second], background)
        backward = _assert_render_matches_oracle([second, first], background)
        assert not np.array_equal(forward, backward)
        assert tuple(forward[14, 17]) == (10, 250, 10)
        assert tuple(backward[14, 17]) == (250, 10, 10)

    @settings(max_examples=150, deadline=None)
    @given(_random_blobs(), st.sampled_from(BACKGROUND_MODES))
    def test_random_centres_match_oracle(self, blobs, background):
        _assert_render_matches_oracle(blobs, background)

    def test_fast_blobs_leaving_the_canvas_render_like_the_oracle(self, tmp_path, monkeypatch):
        config = dict(
            width=48, height=36, num_frames=12, num_objects=3, radius_range=(2, 5),
            velocity_range=(300.0, 500.0), seed=9173, background="textured",
        )
        generate(SceneConfig(**config), tmp_path / "windowed")
        monkeypatch.setattr(synth_scenes, "_render", oracles.render_full_canvas)
        generate(SceneConfig(**config), tmp_path / "oracle")
        assert _tree_bytes(tmp_path / "windowed") == _tree_bytes(tmp_path / "oracle")
        boxes = [g.bbox for g in load_ground_truth_jsonl(tmp_path / "windowed" / "gt.jsonl")]
        assert all(0.0 <= x1 and x2 <= 47.0 and 0.0 <= y1 and y2 <= 35.0 for x1, y1, x2, y2 in boxes)


class TestStep:
    """Wall bounces keep every blob centre inside [r, size - 1 - r] at any speed."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(18, 60), st.floats(0.0, 1.0), st.floats(-5000.0, 5000.0))
    def test_matches_one_bounce_at_a_time(self, r, size, where, velocity):
        lo, hi = float(r), float(size - 1 - r)
        start = lo + where * (hi - lo)
        blob = _Blob(r, start, start, velocity, -velocity, (200, 120, 80))
        _step(blob, size, size)
        for pos, vel, moved in ((blob.cx, blob.vx, velocity), (blob.cy, blob.vy, -velocity)):
            want_pos, want_vel, bounces = oracles.reflect_bounces(start + moved, moved, lo, hi)
            assert lo <= pos <= hi and abs(vel) == abs(moved)
            if bounces <= 1:
                assert (pos, vel) == (want_pos, want_vel)  # the single reflection, bit for bit
            else:
                assert pos == pytest.approx(want_pos, abs=1e-6)
                if lo + 1e-6 < want_pos < hi - 1e-6:
                    assert vel == want_vel


class TestPerturb:
    @pytest.fixture()
    def scene_gts(self, scene12):
        return load_ground_truth_jsonl(scene12 / "gt.jsonl")

    def test_zero_rates_reproduce_ground_truth(self, scene_gts):
        dets = perturb_detections(scene_gts, drop_rate=0.0, jitter_px=0.0, fp_rate=0.0, seed=0)
        assert [(d.frame, d.bbox, d.label) for d in dets] == [
            (g.frame, g.bbox, g.label) for g in scene_gts
        ]
        assert all(d.score == 1.0 for d in dets)
        report = evaluate(dets, scene_gts)
        assert report["map50"] == 1.0
        assert report["map5095"] == 1.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0

    def test_full_drop_without_false_positives_is_empty(self, scene_gts):
        assert perturb_detections(scene_gts, drop_rate=1.0, jitter_px=0.0, fp_rate=0.0) == []

    def test_false_positives_score_below_every_true_detection(self, scene_gts):
        dets = perturb_detections(scene_gts, drop_rate=0.0, jitter_px=0.0, fp_rate=1.0, seed=1)
        true = [d for d in dets if d.score == 1.0]
        fps = [d for d in dets if d.score < 1.0]
        assert len(true) == len(scene_gts)
        assert len(fps) == 12  # one per frame at fp_rate 1.0
        assert max(d.score for d in fps) < min(d.score for d in true)
        report = evaluate(dets, scene_gts)
        assert report["recall"] == 1.0  # trailing low-score FPs leave the operating point alone
        assert report["map50"] == 1.0

    def test_degraded_detections_degrade_metrics_and_match_oracle(self, scene_gts):
        dets = perturb_detections(scene_gts, drop_rate=0.25, jitter_px=1.5, fp_rate=0.5, seed=5)
        report = evaluate(dets, scene_gts)
        want = oracles.evaluate_oracle(dets, scene_gts, IOU_GRID)
        assert report["ap_per_threshold"] == want["ap_per_threshold"]
        assert report["map5095"] == want["map5095"]
        assert report["map5095"] < 1.0  # jitter must hurt the strict-IoU end
        assert report["recall"] < 1.0  # drops cost recall

    def test_jittered_boxes_stay_valid(self):
        gts = [GroundTruth(frame=f, bbox=(10.0, 10.0, 11.0, 11.0), label=0) for f in range(50)]
        dets = perturb_detections(gts, drop_rate=0.0, jitter_px=5.0, fp_rate=0.0, seed=2)
        assert len(dets) == 50
        for d in dets:
            x1, y1, x2, y2 = d.bbox
            assert x2 > x1 and y2 > y1

    def test_deterministic(self, scene_gts):
        a = perturb_detections(scene_gts, 0.3, 1.0, 0.4, seed=9)
        b = perturb_detections(scene_gts, 0.3, 1.0, 0.4, seed=9)
        c = perturb_detections(scene_gts, 0.3, 1.0, 0.4, seed=10)
        assert a == b
        assert a != c

    def test_canvas_bounds_false_positives(self, scene_gts):
        dets = perturb_detections(
            scene_gts, drop_rate=1.0, jitter_px=0.0, fp_rate=1.0, seed=3, canvas=(50, 40)
        )
        assert dets  # drop_rate 1 removes all true boxes, leaving only FPs
        for d in dets:
            assert d.bbox[2] <= 50.0
            assert d.bbox[3] <= 40.0

    def test_rate_validation(self, scene_gts):
        for args, pattern in (
            ((1.5, 0.0, 0.0), "drop_rate"),
            ((0.0, 0.0, -0.1), "fp_rate"),
            ((0.0, -1.0, 0.0), "jitter_px"),
            ((0.0, np.nan, 0.0), "jitter_px must be finite"),
            ((0.0, np.inf, 0.0), "jitter_px must be finite"),
        ):
            with pytest.raises(ValueError, match=pattern) as caught:
                perturb_detections(scene_gts, *args)
            assert not isinstance(caught.value, MotionStackError)

    @pytest.mark.parametrize("jitter", [1e16, 1e308, np.finfo(np.float64).max])
    def test_huge_jitter_keeps_boxes_valid(self, scene_gts, jitter):
        # Past 2**52 the half-pixel re-expansion rounds away, and near the
        # top of the float range a corner sum would overflow.
        for d in perturb_detections(scene_gts, 0.0, jitter, 0.0, seed=1):
            x1, y1, x2, y2 = d.bbox
            assert np.all(np.isfinite(d.bbox)) and x2 > x1 and y2 > y1

    def test_corner_past_the_float_range_rejected(self):
        gts = [GroundTruth(frame=f, bbox=(-1.7e308, -1.7e308, 1.7e308, 1.7e308), label=0) for f in range(4)]
        with pytest.raises(ValueError, match="past the float range"):
            perturb_detections(gts, 0.0, 1e308, 0.0)

    def test_empty_ground_truth(self):
        assert perturb_detections([], 0.0, 0.0, 0.0) == []
        assert perturb_detections([], 0.0, 0.0, 1.0) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_draws_as_box_by_box_calls_would(self, seed):
        # perturb_detections draws box by box with random() and random(4); the
        # reference makes the same draws as uniform() and uniform(-1, 1, size=4)
        # calls, so it also referees the mapping of a draw to a corner offset.
        rng = np.random.default_rng([seed, 5])
        frames = rng.integers(0, 9, size=60).tolist()
        sizes = rng.choice([1e-9, 0.5, 4.0], size=(60, 2)).tolist()
        corners = rng.uniform(0.0, 200.0, size=(60, 2)).tolist()
        gts = [GroundTruth(f, (x, y, x + w, y + h), f % 3) for f, (x, y), (w, h) in zip(frames, corners, sizes)]
        drop, jitter, fp = [(0.0, 1.0, 1.0), (0.3, 2.5, 0.5), (1.0, 0.0, 0.3)][seed % 3]
        got = perturb_detections(gts, drop, jitter, fp, seed=seed)

        draw = np.random.default_rng(seed)
        want = []
        for g in gts:
            if float(draw.uniform()) < drop:
                continue
            x1, y1, x2, y2 = (c + float(v) * jitter for c, v in zip(g.bbox, draw.uniform(-1.0, 1.0, size=4)))
            x1, x2 = synth_scenes._unit_span(x1, x2) if x2 <= x1 else (x1, x2)
            y1, y2 = synth_scenes._unit_span(y1, y2) if y2 <= y1 else (y1, y2)
            want.append((g.frame, (x1, y1, x2, y2), 1.0, g.label))
        true = [(d.frame, d.bbox, d.score, d.label) for d in got if d.score == 1.0]
        assert repr(true) == repr(want)
        # The false positives then draw from where the box-by-box calls left off.
        width = int(np.ceil(max(g.bbox[2] for g in gts))) + 1
        first_fp = next((d for d in got if d.score < 1.0), None)
        for frame in sorted({g.frame for g in gts}):
            if float(draw.uniform()) < fp:
                w = float(draw.uniform(3.0, max(4.0, width / 4.0)))
                assert (first_fp.frame, first_fp.bbox[2] - first_fp.bbox[0]) == (frame, pytest.approx(w))
                break
        else:
            assert first_fp is None

    def test_write_round_trip(self, tmp_path, scene_gts):
        dets = perturb_detections(scene_gts, 0.2, 0.5, 0.3, seed=4)
        path = tmp_path / "dets.jsonl"
        write_detections_jsonl(dets, path)
        assert load_detections_jsonl(path) == dets


# SHA-256 of the artifacts of a 96x72, 64-frame, 3-object scene with two
# switches, of perturb_detections' output on its ground truth, and of the
# triplets mined from its tracklets in file order and in reversed file order.
# None of them goes through a BLAS product, so every digest is strict.
_GOLDEN_FILES = (
    "gt.jsonl",
    "tracklets.json",
    "identity_map.json",
    "features.mten",
    "scene.json",
    "frames/frame_000000.ppm",
    "frames/frame_000063.ppm",
)
_GOLDEN_PERTURB = ((0.2, 1.0, 0.3), (0.0, 40.0, 1.0))  # (drop_rate, jitter_px, fp_rate)
_GOLDEN_DIGESTS = {
    1: (
        "f5a7b6f7c03e57f811dea58bd97beb18db18a7cc646c851a2127a19b9fc96266",
        "fb776ed8abab7c9c606d366d5f18271b0c1f9ab35f4daa98747592debd5a2b89",
        "9624d4ea6df0a1c86ccd78441125b38e1f8ba86af360ecdc1615836928d108fb",
        "1eb89c3242b2271ca98bfcef5da61ee06dea243ebe6b3fd0678030dbaafc77ec",
        "7507187302c52b1b75df882a732e2ef6248b92ea30c99b85159a29dc3757993c",
        "1ce7ff590e992d5677734e1aeaff78a1a504c4b32953817eff8eac3ca2dad8dc",
        "4924b87854e94c1b37cda5279742f759e5557fc4f99801804c786813eb8386d3",
        "b48973a20acbfa4d6039d68f6f183cbb8532d4b8fcb1657358a312c7fbec1a91",
        "a5e5edc5160553a6a4d800b260afc3d741e5d32682f3ea5355b54c325174c1a8",
        "2b5cca22747f9a5e9ae02a49b9b67e09f34ecf8123d94cd9afeded04a17586c9",
        "68baee69aeaaf69cf1d30fb95fe0fb184cbad1c1d107e584374fd877e653a39a",
    ),
    7: (
        "425cb02cc8e051394a8cba8384c09349559dedaa086fdc0c57a001bba3d8efda",
        "239c61e55f290d689756a3696caea70053d3eb9368ec979aac9e170b85212105",
        "9624d4ea6df0a1c86ccd78441125b38e1f8ba86af360ecdc1615836928d108fb",
        "673fb57482468b2cc217a8ad84d25a168cfe3f7c6296db3c95912033a449da5d",
        "6856f72db92e8ac6ae4d600a35a8a0576cb5259f41babf219e29cc3989296b62",
        "c12c56f81013a37d84eaf9d6df4824bb07470eb30e6c1a26e1fd8d2b594a3f71",
        "48393c2c65ebdf6963c4b54aa73ab68b1275ac99f99aa9573a66aa9711dc5ca3",
        "87783c8ec975ac8522815efe7cfcfedc7a3c1cbc9dec7185ab230f9884d99b3f",
        "c6979d5a70434c892ebeaadbdef249f737bc0bdcb802c36f9eb8cfd2dae97be0",
        "4f51d754059d64fb1122914950e03dd1e81731bb049e39b8ed885c615dd89949",
        "eff0d469a8b5c8f70237453a1fea3f149653b7dda1e40d2f8355531eab1551cd",
    ),
    9173: (
        "1756df6ab2fcb6856263a777644440181c7a9af63f577203b0266fa2f3b49d4f",
        "c7340f042be4ba28aa17c67acff61ba9e2c2118607a0c647b898cf15bf64903f",
        "9624d4ea6df0a1c86ccd78441125b38e1f8ba86af360ecdc1615836928d108fb",
        "61f28093e099ba0afecf654ecb7e3200a61b32901820a293461170f391bafe91",
        "d11ac950efc1217b9367000317b5a0362f8d03c01c5bdb29a0cc0c3ea712c805",
        "b467b3e25f34d5746b9370a7fb114ff5ce0316d3da8d6edeccce669e8e201d0a",
        "68468ed55e8aae6f66a336a7af03f45818e2037987b6ddf1565974b42d793cf1",
        "cdb48ec16b75554245cd90e8f482b59be926de9907a18e116c508c974e9e410c",
        "70459b7826869e14855ff566b333fa77012263a826569cb21d04362061fdc0aa",
        "93e374814affba936a2e7814003c269069ec5e7c2378b129cb962fe504f462e3",
        "dad6173419838380fbe596bc95ddbae2e60e15d906f7a75c9c873f48e6eebb94",
    ),
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_DIGESTS))
def test_golden_digests(tmp_path, seed):
    generate(SceneConfig(id_switch_events=((0, 20), (2, 40)), seed=seed), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _GOLDEN_FILES}
    gts = load_ground_truth_jsonl(tmp_path / "gt.jsonl")
    for rates in _GOLDEN_PERTURB:
        write_detections_jsonl(perturb_detections(gts, *rates, seed=seed), tmp_path / "dets.jsonl")
        got[f"perturb {rates}"] = hashlib.sha256((tmp_path / "dets.jsonl").read_bytes()).hexdigest()
    doc = json.loads((tmp_path / "tracklets.json").read_text())
    doc["tracklets"].reverse()  # ids no longer rise with file position
    (tmp_path / "rev_tracklets.json").write_text(json.dumps(doc))
    for name in ("tracklets.json", "rev_tracklets.json"):
        kept = filter_min_length(load_tracklets_json(tmp_path / name))
        write_triplets_jsonl(mine_triplets(kept, seed, per_anchor=2), tmp_path / "triplets.jsonl")
        got[f"mine {name}"] = hashlib.sha256((tmp_path / "triplets.jsonl").read_bytes()).hexdigest()
    assert got == dict(zip(got, _GOLDEN_DIGESTS[seed]))
