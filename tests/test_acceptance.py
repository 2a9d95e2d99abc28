"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with ``pytest -s tests/test_acceptance.py``.
"""

import contextlib
import random
import time

import numpy as np

import oracles
from motionstack import cli
from motionstack.det_metrics import (
    IOU_GRID,
    Detection,
    GroundTruth,
    evaluate,
    load_ground_truth_jsonl,
)
from motionstack.frame_pipeline import FrameSequence, InputConfig, build_input, diff_image
from motionstack.metric_learning import (
    DEFAULT_MERGE_THRESHOLD,
    EmbeddingNet,
    TrainConfig,
    gradients_on_params,
    load_feature_table,
    mine_triplets,
    propose_merges,
    separation_metrics,
    tracklet_centroids,
    tracklet_embeddings,
    train,
)
from motionstack.roi_features import FeatureMap, pool_boxes
from motionstack.tensor_io import write_tensor
from motionstack.tracklets import (
    filter_min_length,
    load_identity_map,
    load_tracklets_json,
    temporal_overlap,
)
from motionstack.weight_surgery import (
    ConvLayerWeights,
    expand_first_layer,
    save_conv_layer,
)


@contextlib.contextmanager
def _criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d}: FAIL - {desc}")
        raise
    print(f"acceptance {num:02d}: PASS - {desc}")


def _random_layer(rng, c_out, c_in, k):
    return ConvLayerWeights(
        weight=rng.normal(0.0, 0.3, size=(c_out, c_in, k, k)).astype(np.float32),
        bias=rng.normal(0.0, 0.1, size=c_out).astype(np.float32),
    )


def _forward_chain(params, x):
    zs = []
    a = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(params):
        z = a @ w.T + b
        zs.append(z)
        a = np.maximum(z, 0.0) if l < len(params) - 1 else z
    return zs, a


def _clear_batch(params, seed, margin, batch=3):
    # Redraw until every hidden preactivation and every hinge term sits
    # far from its kink; otherwise eps=1e-3 central differences are
    # polluted by the subgradient discontinuity.
    dim = params[0][0].shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(300):
        xa, xp, xn = (rng.normal(0.0, 1.0, size=(batch, dim)) for _ in range(3))
        min_z = min(
            float(np.min(np.abs(z)))
            for x in (xa, xp, xn)
            for z in _forward_chain(params, x)[0][:-1]
        )
        ea = _forward_chain(params, xa)[1]
        ep = _forward_chain(params, xp)[1]
        en = _forward_chain(params, xn)[1]
        terms = ((ea - ep) ** 2).sum(axis=1) - ((ea - en) ** 2).sum(axis=1) + margin
        if min_z > 5e-3 and np.min(np.abs(terms)) > 0.02 and np.max(terms) > 0.02:
            return xa, xp, xn
    raise AssertionError("no kink-free batch found")


class TestAcceptance:
    def test_01_replication_identity(self, tmp_path):
        with _criterion(1, "replicate n=1 writes byte-identical weights"):
            rng = np.random.default_rng(0)
            src = tmp_path / "in.mten"
            save_conv_layer(_random_layer(rng, 8, 3, 3), src)
            out = tmp_path / "out.mten"
            start = time.perf_counter()
            code = cli.run(
                ["surgery", "--weights", str(src), "--mode", "replicate", "--n", "1",
                 "--out-weights", str(out)]
            )
            elapsed = time.perf_counter() - start
            assert code == 0
            assert out.read_bytes() == src.read_bytes()
            assert (tmp_path / "out.json").read_bytes() == (tmp_path / "in.json").read_bytes()
            assert (tmp_path / "out.bias.mten").read_bytes() == (tmp_path / "in.bias.mten").read_bytes()
            assert elapsed < 1.0

    def test_02_replication_equivalence(self):
        with _criterion(2, "replicated weights reproduce the original convolution on stacked frames"):
            start = time.perf_counter()
            worst = 0.0
            for seed in range(20):
                rng = np.random.default_rng(seed)
                image = rng.normal(0.0, 1.0, size=(3, 10, 12)).astype(np.float32)
                layer = _random_layer(rng, 4, 3, 3)
                base = oracles.conv2d_loops(image, layer.weight, layer.bias)
                for n in (2, 3, 5):
                    expanded = expand_first_layer(layer, n, "replicate")
                    stacked = np.concatenate([image] * n, axis=0)
                    got = oracles.conv2d_loops(stacked, expanded.weight, expanded.bias)
                    rel = float(np.abs(got - base).max() / max(np.abs(base).max(), 1e-12))
                    worst = max(worst, rel)
            assert worst <= 1e-5
            assert time.perf_counter() - start < 10.0

    def test_03_difference_formula_exhaustive(self):
        with _criterion(3, "difference image matches floor((a-b+255)/2) on all 65536 value pairs"):
            start = time.perf_counter()
            a = np.broadcast_to(np.arange(256, dtype=np.uint8)[:, None], (256, 256))
            later = np.ascontiguousarray(np.stack([a, a, a]))
            earlier = np.ascontiguousarray(np.stack([a.T, a.T, a.T]))
            want = oracles.diff_image_int16(later, earlier)
            assert np.array_equal(want[0], ((a.astype(int) - a.T.astype(int) + 255) // 2).astype(np.uint8))
            got = diff_image(later, earlier)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
            assert time.perf_counter() - start < 1.0

    def test_04_stack_layout(self, scene12):
        with _criterion(4, "all stack layouts have the advertised channel count and lead with the target frame"):
            source = FrameSequence.from_dir(scene12 / "frames")
            configs = (
                [InputConfig("rgb_seq", n=n) for n in range(1, 11)]
                + [InputConfig("rgb_int", delta=d) for d in range(1, 6)]
                + [InputConfig("diff_seq", n=n) for n in range(1, 10)]
                + [InputConfig("diff_int", delta=d) for d in range(1, 6)]
            )
            for config in configs:
                expected = 3 * config.n if config.variant.endswith("_seq") else 6
                assert config.channels == expected
                for t in (0, 5, 11):
                    stacked = build_input(source, t, config)
                    assert stacked.tensor.shape == (expected, *source.planar(t).shape[1:])
                    assert np.array_equal(stacked.tensor[:3], source.planar(t))

    def test_05_map_oracle_equivalence(self, scene12):
        with _criterion(5, "evaluation matches the brute-force oracle on 200 randomized instances"):
            start = time.perf_counter()

            def rand_box(rnd):
                x1, y1 = rnd.randint(0, 20), rnd.randint(0, 20)
                return (float(x1), float(y1), float(x1 + rnd.randint(1, 10)), float(y1 + rnd.randint(1, 10)))

            scores = [0.2, 0.4, 0.4, 0.6, 0.8, 1.0]
            for seed in range(200):
                rnd = random.Random(seed)
                gts = [
                    GroundTruth(frame=rnd.randint(0, 1), bbox=rand_box(rnd), label=rnd.randint(0, 2))
                    for _ in range(rnd.randint(0, 5))
                ]
                dets = [
                    Detection(
                        frame=rnd.randint(0, 1), bbox=rand_box(rnd),
                        score=rnd.choice(scores), label=rnd.randint(0, 2),
                    )
                    for _ in range(rnd.randint(0, 7))
                ]
                report = evaluate(dets, gts)
                want = oracles.evaluate_oracle(dets, gts, IOU_GRID)
                assert report["ap_per_threshold"] == want["ap_per_threshold"]
                assert report["map50"] == want["map50"]
                assert report["map5095"] == want["map5095"]
                assert report["precision"] == want["precision"]
                assert report["recall"] == want["recall"]
                for key, sweep in want["per_class"].items():
                    assert report["per_class"][key]["ap_per_threshold"] == sweep

            gts = load_ground_truth_jsonl(scene12 / "gt.jsonl")
            perfect = [Detection(frame=g.frame, bbox=g.bbox, score=1.0, label=g.label) for g in gts]
            report = evaluate(perfect, gts)
            assert report["map50"] == report["map5095"] == 1.0
            assert report["precision"] == report["recall"] == 1.0
            for entry in report["per_class"].values():
                assert entry["ap_per_threshold"] == [1.0] * 10
            assert time.perf_counter() - start < 30.0

    def test_06_roialign_oracle_equivalence(self):
        with _criterion(6, "RoI align matches the naive oracle and is exact on affine fields"):
            rnd = random.Random(6)
            rng = np.random.default_rng(6)
            for _ in range(100):
                c = rnd.randint(1, 3)
                h, w = rnd.randint(4, 11), rnd.randint(4, 11)
                scale = rnd.choice([0.125, 0.25, 0.5, 1.0])
                out_h = rnd.choice([2, 3, 7])
                out_w = rnd.choice([2, 3, 7])
                ratio = rnd.choice([1, 2, 3])
                arr = rng.normal(0.0, 1.0, size=(c, h, w)).astype(np.float32)
                x1 = rnd.uniform(0.0, (w - 2) / scale)
                y1 = rnd.uniform(0.0, (h - 2) / scale)
                box = (x1, y1, x1 + rnd.uniform(0.5, w / scale), y1 + rnd.uniform(0.5, h / scale))
                got = pool_boxes(FeatureMap(arr, spatial_scale=scale), [box], out_h, out_w, ratio)[0]
                grid = oracles.roi_align_loops(arr.astype(np.float64), scale, box, out_h, out_w, ratio)
                np.testing.assert_allclose(got, grid.mean(axis=(1, 2)), rtol=1e-5, atol=1e-5)

            ys, xs = np.mgrid[0:12, 0:14]
            field = (0.7 + 0.3 * xs - 0.2 * ys).astype(np.float32)[None, :, :]
            fmap = FeatureMap(field, spatial_scale=0.5)
            box = (4.0, 5.0, 20.0, 16.0)
            pooled = pool_boxes(fmap, [box], 3, 4, 2)
            cx = (box[0] + box[2]) / 2 * 0.5 - 0.5
            cy = (box[1] + box[3]) / 2 * 0.5 - 0.5
            assert abs(pooled[0, 0] - (0.7 + 0.3 * cx - 0.2 * cy)) < 1e-6

    def test_07_gradient_check(self):
        with _criterion(7, "analytic gradients match central finite differences over 5 seeds"):
            start = time.perf_counter()
            margin = 1.0
            for seed in range(5):
                net = EmbeddingNet.init(4, hidden=(6, 5), seed=seed)
                params = [(w.astype(np.float64), b.astype(np.float64)) for w, b in zip(net.weights, net.biases)]
                xa, xp, xn = _clear_batch(params, seed + 100, margin)
                _, _, grads = gradients_on_params(params, xa, xp, xn, margin)
                fd = oracles.fd_gradients(params, xa, xp, xn, margin, eps=1e-3)
                for (gw, gb), (fw, fb) in zip(grads, fd):
                    for g, f in ((gw, fw), (gb, fb)):
                        mask = np.abs(g) > 1e-6
                        if mask.any():
                            rel = np.abs(g[mask] - f[mask]) / np.maximum(
                                np.abs(g[mask]), np.abs(f[mask])
                            )
                            assert float(rel.max()) < 1e-4
                        if (~mask).any():
                            assert float(np.abs(f[~mask]).max()) < 1e-5
            assert time.perf_counter() - start < 30.0

    def test_08_mining_soundness(self, short_fragment_scene):
        with _criterion(8, "mined triplets satisfy identity and overlap constraints; short tracklets never appear"):
            tracklets = load_tracklets_json(short_fragment_scene / "tracklets.json")
            assert {t.id: len(t) for t in tracklets}[5] == 10  # the post-switch fragment
            kept = filter_min_length(tracklets)
            assert sorted(t.id for t in kept) == [0, 1, 2, 3, 4]
            by_id = {t.id: t for t in kept}
            triplets = mine_triplets(kept, 4, per_anchor=2)
            assert len(triplets)
            for (a_id, a_frame), (p_id, p_frame), (n_id, n_frame) in triplets.tolist():
                assert p_id == a_id
                assert n_id != a_id
                assert a_frame in by_id[a_id].frames
                assert p_frame in by_id[p_id].frames and p_frame != a_frame
                assert n_frame in by_id[n_id].frames
                assert temporal_overlap(by_id[a_id], by_id[n_id])
                assert len(by_id[a_id]) >= 16 and len(by_id[n_id]) >= 16

    def test_09_reid_recovery(self, reid_scene):
        with _criterion(9, "training recovers all injected identity splits with zero false merges"):
            start = time.perf_counter()
            tracklets = load_tracklets_json(reid_scene / "tracklets.json")
            table = load_feature_table(tracklets, reid_scene / "features.mten")
            groups = load_identity_map(reid_scene / "identity_map.json")
            kept = filter_min_length(tracklets)
            assert len(kept) == 9

            id_to_group = {tid: gi for gi, group in enumerate(groups) for tid in group}

            def ratio(net):
                samples = {}
                for t in tracklets:
                    emb = net.embed_batch(table.matrix[table.rows((t.id, f) for f in t.frames)])
                    samples.setdefault(id_to_group[t.id], []).extend(emb)
                return separation_metrics(samples)["ratio"]

            net = EmbeddingNet.init(table.dim, seed=5)
            before = ratio(net)
            triplets = mine_triplets(kept, 3, per_anchor=2)
            net, _ = train(net, table, triplets, TrainConfig(learning_rate=0.05, epochs=50, seed=0))
            after = ratio(net)

            merges = propose_merges(tracklet_centroids(tracklet_embeddings(net, tracklets, table)[1]), tracklets, DEFAULT_MERGE_THRESHOLD)
            assert {tuple(sorted(pair)) for pair in merges} == {(0, 6), (1, 7), (2, 8)}
            assert after < 0.5 * before
            assert time.perf_counter() - start < 120.0

    def test_10_determinism(self, tmp_path):
        with _criterion(10, "every subcommand rerun with identical inputs writes byte-identical files"):
            root = tmp_path
            rng = np.random.default_rng(1)
            save_conv_layer(_random_layer(rng, 4, 3, 3), root / "in.mten")
            write_tensor(rng.normal(0.0, 1.0, size=(2, 8, 10)).astype(np.float32), root / "map.mten")
            (root / "boxes.json").write_text('[[1, 1, 9, 7], [0, 2, 12, 10]]')

            commands = [
                ["synth", "generate", "--num-frames", "40", "--num-objects", "2",
                 "--feature-dim", "8", "--seed", "21", "--switch", "0:20",
                 "--out-dir", str(root / "scene"), "--out", str(root / "r_generate.json")],
                ["synth", "perturb", "--gt", str(root / "scene" / "gt.jsonl"),
                 "--drop-rate", "0.2", "--jitter-px", "0.5", "--fp-rate", "0.3", "--seed", "6",
                 "--out-dets", str(root / "dets.jsonl"), "--out", str(root / "r_perturb.json")],
                ["eval", "--dets", str(root / "dets.jsonl"), "--gt", str(root / "scene" / "gt.jsonl"),
                 "--out", str(root / "r_eval.json")],
                ["stack", "--frames", str(root / "scene" / "frames"), "--variant", "diff-seq",
                 "--n", "3", "--out-dir", str(root / "stacks"), "--out", str(root / "r_stack.json")],
                ["surgery", "--weights", str(root / "in.mten"), "--mode", "random", "--n", "3",
                 "--seed", "2", "--out-weights", str(root / "expanded.mten"),
                 "--out", str(root / "r_surgery.json")],
                ["features", "--map", str(root / "map.mten"), "--scale", "0.5",
                 "--boxes", str(root / "boxes.json"), "--out-h", "3", "--out-w", "3",
                 "--sampling-ratio", "2", "--out-features", str(root / "pooled.mten"),
                 "--out", str(root / "r_features.json")],
                ["mine", "--tracklets", str(root / "scene" / "tracklets.json"), "--seed", "3",
                 "--per-anchor", "2", "--out-triplets", str(root / "triplets.jsonl"),
                 "--out", str(root / "r_mine.json")],
                ["train", "--features", str(root / "scene" / "features.mten"),
                 "--tracklets", str(root / "scene" / "tracklets.json"),
                 "--triplets", str(root / "triplets.jsonl"), "--epochs", "3", "--lr", "0.01",
                 "--batch-size", "32", "--seed", "1", "--hidden", "8,6",
                 "--out-dir", str(root / "net"), "--out", str(root / "r_train.json")],
                ["reid", "--features", str(root / "scene" / "features.mten"),
                 "--tracklets", str(root / "scene" / "tracklets.json"),
                 "--net", str(root / "net" / "net.json"),
                 "--identity-map", str(root / "scene" / "identity_map.json"),
                 "--out", str(root / "r_reid.json")],
                ["project", "--features", str(root / "scene" / "features.mten"),
                 "--tracklets", str(root / "scene" / "tracklets.json"),
                 "--net", str(root / "net" / "net.json"), "--out-csv", str(root / "scatter.csv"),
                 "--out", str(root / "r_project.json")],
            ]

            def run_all():
                for argv in commands:
                    assert cli.run(argv) == 0, argv

            def snapshot():
                files = sorted(p for p in root.rglob("*") if p.is_file())
                return [(str(p.relative_to(root)), p.read_bytes()) for p in files]

            run_all()
            first = snapshot()
            run_all()
            assert snapshot() == first
