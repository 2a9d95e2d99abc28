"""Metric-learning tests: feature tables, mining, gradients, training, re-id."""

import csv
import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from motionstack.errors import DataValidationError
from motionstack.metric_learning import (
    DEFAULT_HIDDEN,
    DEFAULT_MERGE_THRESHOLD,
    NET_MANIFEST_NAME,
    OUT_DIM,
    EmbeddingNet,
    FeatureTable,
    TrainConfig,
    Triplet,
    _SEPARATION_BLOCK,
    _SEPARATION_SCRATCH_BYTES,
    _pair_distances,
    _separation_workers,
    gradients_on_params,
    load_feature_table,
    load_net,
    load_triplets_jsonl,
    loss_on_params,
    mine_triplets,
    params64,
    pca_project_2d,
    propose_merges,
    save_net,
    separation_metrics,
    tracklet_centroids,
    tracklet_embeddings,
    train,
    write_scatter_csv,
    write_triplets_jsonl,
)
from motionstack.tensor_io import write_tensor
from motionstack.tracklets import Tracklet


def _tr(tid, start, end, rows=None):
    length = end - start + 1
    return Tracklet(
        id=tid,
        start=start,
        end=end,
        boxes=[(0.0, 0.0, 1.0, 1.0)] * length,
        feature_rows=rows,
    )


def _forward_chain(params, x):
    """Manual reference forward pass: (hidden preactivations, embeddings)."""
    zs = []
    a = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(params):
        z = a @ w.T + b
        if l == len(params) - 1:
            return zs, z
        zs.append(z)
        a = np.maximum(z, 0.0)
    raise AssertionError("unreachable")


class TestFeatureTable:
    def test_canonical_enumeration(self):
        ts = [_tr(2, 0, 2), _tr(5, 10, 11)]
        matrix = np.arange(15, dtype=np.float32).reshape(5, 3)
        table = FeatureTable(ts, matrix)
        assert table.dim == 3
        assert list(table.rows([(2, 0), (5, 10)])) == [0, 3]
        assert table.matrix64.dtype == np.float64
        assert np.array_equal(table.matrix64[table.rows([(5, 11)])], [[12.0, 13.0, 14.0]])
        assert table.rows((5, f) for f in ts[1].frames).tolist() == [3, 4]
        assert table.rows([]).dtype == np.intp

    def test_explicit_rows(self):
        ts = [_tr(0, 0, 1, rows=[3, 1]), _tr(1, 0, 0, rows=[0])]
        matrix = np.arange(8, dtype=np.float32).reshape(4, 2)
        table = FeatureTable(ts, matrix)
        assert list(table.rows([(0, 0), (0, 1), (1, 0)])) == [3, 1, 0]

    def test_all_or_none_rows(self):
        ts = [_tr(0, 0, 0, rows=[0]), _tr(1, 0, 0)]
        with pytest.raises(DataValidationError, match="every tracklet or none"):
            FeatureTable(ts, np.zeros((2, 2), np.float32))

    def test_canonical_count_mismatch(self):
        with pytest.raises(DataValidationError, match="enumerate"):
            FeatureTable([_tr(0, 0, 2)], np.zeros((2, 4), np.float32))

    def test_explicit_row_out_of_range(self):
        with pytest.raises(DataValidationError, match="outside matrix"):
            FeatureTable([_tr(0, 0, 0, rows=[5])], np.zeros((2, 4), np.float32))

    def test_unknown_key(self):
        table = FeatureTable([_tr(0, 0, 1)], np.zeros((2, 4), np.float32))
        with pytest.raises(DataValidationError, match="no feature row for tracklet 0 frame 9"):
            table.rows([(0, 1), (0, 9), (3, 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_first_row(self, bad):
        matrix = np.zeros((4, 3), np.float32)
        matrix[3, 0] = bad
        matrix[2, 1] = bad
        with pytest.raises(DataValidationError, match=rf"feature row 2 column 1 is not finite: {bad}"):
            FeatureTable([_tr(0, 0, 3)], matrix)

    def test_matrix_must_be_2d(self):
        with pytest.raises(DataValidationError, match=r"\[T, D\]"):
            FeatureTable([_tr(0, 0, 0)], np.zeros(3, np.float32))

    def test_load_from_tensor(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        path = tmp_path / "features.mten"
        write_tensor(matrix, path)
        table = load_feature_table([_tr(0, 0, 2)], path)
        assert np.array_equal(table.matrix64, matrix)
        write_tensor(np.zeros(3, np.float32), path)
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: feature matrix must be [T, D]")):
            load_feature_table([_tr(0, 0, 2)], path)


class TestMining:
    def _setup(self):
        return [_tr(0, 0, 29), _tr(1, 10, 39), _tr(2, 20, 49), _tr(9, 200, 220)]

    def test_constraints_hold(self):
        ts = self._setup()
        spans = {t.id: (t.start, t.end) for t in ts}
        overlapping = {
            0: {1, 2},
            1: {0, 2},
            2: {0, 1},
            9: set(),
        }
        triplets = mine_triplets(ts, rng_seed=0, per_anchor=2)
        for t in triplets:
            aid, af = t.anchor
            pid, pf = t.positive
            nid, nf = t.negative
            assert pid == aid
            assert spans[aid][0] <= af <= spans[aid][1]
            assert spans[pid][0] <= pf <= spans[pid][1]
            assert pf != af  # every tracklet here has >= 2 frames
            assert nid != aid
            assert nid in overlapping[aid]
            assert spans[nid][0] <= nf <= spans[nid][1]

    def test_every_frame_anchors_per_anchor_triplets(self):
        ts = self._setup()
        triplets = mine_triplets(ts, rng_seed=3, per_anchor=2)
        anchors = [t.anchor for t in triplets]
        expected = []
        for t in ts[:3]:  # tracklet 9 overlaps nothing and is skipped
            for f in t.frames:
                expected.extend([(t.id, f)] * 2)
        assert anchors == expected
        assert len(triplets) == 2 * (30 + 30 + 30)

    def test_isolated_tracklet_never_appears(self):
        triplets = mine_triplets(self._setup(), rng_seed=1)
        ids = {t.anchor[0] for t in triplets} | {t.negative[0] for t in triplets}
        assert 9 not in ids

    def test_deterministic_per_seed(self):
        ts = self._setup()
        assert mine_triplets(ts, rng_seed=5) == mine_triplets(ts, rng_seed=5)
        assert mine_triplets(ts, rng_seed=5) != mine_triplets(ts, rng_seed=6)

    def test_single_frame_tracklet_uses_itself_as_positive(self):
        ts = [_tr(3, 7, 7), _tr(4, 0, 20)]
        triplets = mine_triplets(ts, rng_seed=0)
        own = [t for t in triplets if t.anchor[0] == 3]
        assert len(own) == 1
        assert own[0].positive == own[0].anchor == (3, 7)

    def test_positive_distribution_covers_other_frames(self):
        ts = [_tr(0, 0, 3), _tr(1, 0, 3)]
        triplets = mine_triplets(ts, rng_seed=0, per_anchor=50)
        seen = {t.positive[1] for t in triplets if t.anchor == (0, 0)}
        assert seen == {1, 2, 3}  # never the anchor frame, all others reachable

    def test_per_anchor_validation(self):
        with pytest.raises(ValueError, match="per_anchor"):
            mine_triplets(self._setup(), rng_seed=0, per_anchor=0)

    def test_no_overlaps_no_triplets(self):
        assert mine_triplets([_tr(0, 0, 9), _tr(1, 100, 109)], rng_seed=0) == []


class TestTripletsJsonl:
    def test_round_trip(self, tmp_path):
        triplets = [
            Triplet(anchor=(0, 5), positive=(0, 9), negative=(3, 5)),
            Triplet(anchor=(1, 2), positive=(1, 3), negative=(0, 2)),
        ]
        path = tmp_path / "triplets.jsonl"
        write_triplets_jsonl(triplets, path)
        assert load_triplets_jsonl(path) == triplets
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"a": [0, 5], "p": [0, 9], "n": [3, 5]}

    @pytest.mark.parametrize(
        "line,pattern",
        [
            ('{"a": [0, 1], "p": [0, 2]}', "keys a, p, n"),
            ('{"a": [0], "p": [0, 2], "n": [1, 0]}', r"expected \[tracklet_id, frame\]"),
            ('{"a": [0, 1.5], "p": [0, 2], "n": [1, 0]}', r"a\[1\] must be an integer, got 1\.5"),
            ("nope", "invalid JSON"),
        ],
    )
    def test_validation(self, tmp_path, line, pattern):
        path = tmp_path / "triplets.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DataValidationError, match=pattern):
            load_triplets_jsonl(path)


class TestEmbeddingNet:
    def test_default_architecture(self):
        net = EmbeddingNet.init(32)
        assert DEFAULT_HIDDEN == (512, 256)
        assert net.layer_dims == [32, 512, 256, 128]
        assert net.in_dim == 32
        for w, b in zip(net.weights, net.biases):
            assert w.dtype == np.float32 and b.dtype == np.float32
            assert np.all(b == 0.0)
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(w.shape[1]))

    def test_custom_hidden_and_seeding(self):
        a = EmbeddingNet.init(8, hidden=(16,), seed=4)
        b = EmbeddingNet.init(8, hidden=(16,), seed=4)
        c = EmbeddingNet.init(8, hidden=(16,), seed=5)
        assert a.layer_dims == [8, 16, OUT_DIM]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.weights, b.weights))
        assert a.weights[0].tobytes() != c.weights[0].tobytes()

    def test_output_width_is_fixed(self):
        with pytest.raises(ValueError, match="output dimension must be 128"):
            EmbeddingNet(
                weights=[np.zeros((64, 8), np.float32)], biases=[np.zeros(64, np.float32)]
            )

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="float32"):
            EmbeddingNet(
                weights=[np.zeros((128, 8), np.float64)], biases=[np.zeros(128, np.float64)]
            )
        with pytest.raises(ValueError, match="previous layer"):
            EmbeddingNet(
                weights=[np.zeros((16, 8), np.float32), np.zeros((128, 9), np.float32)],
                biases=[np.zeros(16, np.float32), np.zeros(128, np.float32)],
            )
        with pytest.raises(ValueError, match="layer widths"):
            EmbeddingNet.init(0)

    def test_forward_matches_manual_chain(self):
        net = EmbeddingNet.init(5, hidden=(7,), seed=2)
        x = np.random.default_rng(0).normal(size=(3, 5))
        _, want = _forward_chain(params64(net), x)
        got = net.embed_batch(x)
        assert got.dtype == np.float64
        assert got.shape == (3, OUT_DIM)
        assert np.array_equal(got, want)

    def test_embedding_keeps_one_layer_at_a_time(self):
        net = EmbeddingNet.init(32, seed=0)  # 32-512-256-128
        x = np.random.default_rng(1).normal(size=(2000, 32))
        tracemalloc.start()
        try:
            net.embed_batch(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Keeping every layer's pre-activation and activation alive, as a
        # training forward pass must, peaks near 29 MiB here.
        assert peak < 20 * 2**20

    def test_untrained_net_is_positively_homogeneous(self):
        # Zero biases make the whole chain positively 1-homogeneous, which is
        # why feature scale cancels out of untrained-embedding comparisons.
        net = EmbeddingNet.init(6, hidden=(9, 8), seed=1)
        x = np.random.default_rng(3).normal(size=(4, 6))
        base = net.embed_batch(x)
        for c in (0.5, 2.0, 7.5):
            scaled = net.embed_batch(c * x)
            assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-12)

    def test_normalize_toggle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        raw_net = EmbeddingNet.init(4, hidden=(8,), seed=0, normalize_output=False)
        unit_net = EmbeddingNet.init(4, hidden=(8,), seed=0, normalize_output=True)
        raw = raw_net.embed_batch(x)
        unit = unit_net.embed_batch(x)
        norms = np.linalg.norm(unit, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.allclose(unit * np.linalg.norm(raw, axis=1, keepdims=True), raw, atol=1e-9)

    def test_normalize_guards_zero_embedding(self):
        net = EmbeddingNet.init(4, hidden=(8,), seed=0, normalize_output=True)
        out = net.embed_batch(np.zeros((1, 4)))  # zero input, zero biases
        assert np.all(out == 0.0)

    def test_input_shape_validation(self):
        net = EmbeddingNet.init(4, hidden=(8,), seed=0)
        with pytest.raises(ValueError, match=r"\[B, 4\]"):
            net.embed_batch(np.zeros((2, 5)))


class TestLossAndGradients:
    def test_triplet_loss_hand_values(self):
        ea = np.array([0.0, 0.0])
        ep = np.array([1.0, 0.0])
        en = np.array([0.0, 3.0])
        # d_pos 1, d_neg 9: active for margin > 8.
        assert oracles.triplet_loss(ea, ep, en, margin=1.0) == 0.0
        assert oracles.triplet_loss(ea, ep, en, margin=8.0) == 0.0
        assert oracles.triplet_loss(ea, ep, en, margin=8.5) == 0.5
        assert oracles.triplet_loss(ea, ea, en, margin=1.0) == 0.0
        with pytest.raises(ValueError, match="shapes differ"):
            oracles.triplet_loss(ea, ep, np.zeros(3), 1.0)

    def test_batch_losses_match_scalar_loss(self):
        rng = np.random.default_rng(2)
        net = EmbeddingNet.init(4, hidden=(6,), seed=0)
        params = params64(net)
        xa, xp, xn = (rng.normal(size=(5, 4)) for _ in range(3))
        losses = gradients_on_params(params, xa, xp, xn, 1.0)[1]
        for i in range(5):
            ea, ep, en = (
                net.embed_batch(x[i : i + 1])[0] for x in (xa, xp, xn)
            )
            assert losses[i] == pytest.approx(oracles.triplet_loss(ea, ep, en, 1.0), abs=1e-9)
        assert loss_on_params(params, xa, xp, xn, 1.0) == pytest.approx(losses.mean(), abs=0)

    def _clear_batch(self, params, seed, margin):
        # Redraw until every ReLU preactivation and every hinge term is far
        # from its kink, so central differences see a smooth function.
        rng = np.random.default_rng(seed)
        in_dim = params[0][0].shape[1]
        for _ in range(300):
            xa, xp, xn = (rng.normal(scale=1.5, size=(3, in_dim)) for _ in range(3))
            min_z = np.inf
            for x in (xa, xp, xn):
                zs, _ = _forward_chain(params, x)
                min_z = min(min_z, min(np.min(np.abs(z)) for z in zs))
            terms = []
            for i in range(3):
                _, ea = _forward_chain(params, xa[i : i + 1])
                _, ep = _forward_chain(params, xp[i : i + 1])
                _, en = _forward_chain(params, xn[i : i + 1])
                terms.append(
                    float(np.sum((ea - ep) ** 2) - np.sum((ea - en) ** 2) + margin)
                )
            terms = np.array(terms)
            if min_z > 5e-3 and np.min(np.abs(terms)) > 0.02 and np.max(terms) > 0.02:
                return xa, xp, xn
        pytest.fail("no kink-free batch found")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_analytic_gradients_match_finite_differences(self, seed):
        margin = 1.0
        net = EmbeddingNet.init(4, hidden=(6, 5), seed=seed)
        params = params64(net)
        xa, xp, xn = self._clear_batch(params, seed + 100, margin)
        mean_loss, losses, grads = gradients_on_params(params, xa, xp, xn, margin)
        assert mean_loss == pytest.approx(float(losses.mean()), abs=0)
        fd = oracles.fd_gradients(params64(net), xa, xp, xn, margin)
        for (gw, gb), (fw, fb) in zip(grads, fd):
            for analytic, numeric in ((gw, fw), (gb, fb)):
                big = np.abs(analytic) > 1e-6
                rel = np.abs(numeric[big] - analytic[big]) / np.abs(analytic[big])
                if big.any():
                    assert rel.max() < 1e-4
                assert np.all(np.abs(numeric[~big]) < 1e-5)

    def test_inactive_hinges_give_zero_gradients(self):
        net = EmbeddingNet.init(4, hidden=(6,), seed=3)
        params = params64(net)
        rng = np.random.default_rng(0)
        xa = rng.normal(size=(4, 4))
        xp = xa.copy()  # d_pos = 0
        xn = xa + 50.0  # d_neg >> margin, so every term is negative
        mean_loss, losses, grads = gradients_on_params(params, xa, xp, xn, 1.0)
        assert mean_loss == 0.0
        assert np.all(losses == 0.0)
        for gw, gb in grads:
            assert np.all(gw == 0.0)
            assert np.all(gb == 0.0)

    def test_empty_batch(self):
        net = EmbeddingNet.init(4, hidden=(6,), seed=0)
        params = params64(net)
        empty = np.zeros((0, 4))
        mean_loss, losses, grads = gradients_on_params(params, empty, empty, empty, 1.0)
        assert mean_loss == 0.0
        assert len(losses) == 0
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)


def _three_stream_gradients(params, xa, xp, xn, margin):
    """Reference: the per-stream formula, three forward and three backward
    passes over every triplet, inactive ones weighted by zero."""

    def forward(x):
        acts, zs = [np.asarray(x, dtype=np.float64)], []
        for l, (w, b) in enumerate(params):
            zs.append(acts[-1] @ w.T + b)
            acts.append(zs[-1] if l == len(params) - 1 else np.maximum(zs[-1], 0.0))
        return acts, zs

    def backward(acts, zs, g):
        grads = [None] * len(params)
        for l in range(len(params) - 1, -1, -1):
            grads[l] = (g.T @ acts[l], g.sum(axis=0))
            if l > 0:
                g = (g @ params[l][0]) * (zs[l - 1] > 0.0)
        return grads

    (acts_a, zs_a), (acts_p, zs_p), (acts_n, zs_n) = forward(xa), forward(xp), forward(xn)
    ea, ep, en = acts_a[-1], acts_p[-1], acts_n[-1]
    terms = np.sum((ea - ep) ** 2, axis=1) - np.sum((ea - en) ** 2, axis=1) + margin
    active = (terms > 0.0).astype(np.float64)[:, None] / len(terms)
    streams = (
        backward(acts_a, zs_a, 2.0 * (en - ep) * active),
        backward(acts_p, zs_p, 2.0 * (ep - ea) * active),
        backward(acts_n, zs_n, 2.0 * (ea - en) * active),
    )
    grads = [tuple(sum(parts) for parts in zip(*layer)) for layer in zip(*streams)]
    return np.maximum(terms, 0.0), grads


class TestStackedGradients:
    @settings(max_examples=80, deadline=None)
    @given(
        st.data(),
        st.integers(1, 9),
        st.sampled_from(["all_active", "all_inactive", "mixed"]),
        st.integers(0, 2**16),
    )
    def test_match_three_stream_formula(self, data, batch, mode, seed):
        if mode == "mixed":
            active = np.array(data.draw(st.lists(st.booleans(), min_size=batch, max_size=batch)))
        else:
            active = np.full(batch, mode == "all_active")
        rng = np.random.default_rng(seed)
        params = params64(EmbeddingNet.init(5, hidden=(7, 6), seed=seed))
        xa = rng.normal(size=(batch, 5))
        # Zero anchors meet the zero biases of a fresh net at preactivations
        # of exactly 0, where the ReLU subgradient is 0.
        xa[data.draw(st.lists(st.booleans(), min_size=batch, max_size=batch))] = 0.0
        near = xa + rng.normal(scale=0.1, size=(batch, 5))
        far = xa + rng.normal(scale=5.0, size=(batch, 5))
        # With a margin below every gap between the squared embedding
        # distances, a far positive and a near negative make the hinge
        # active, and the other way round inactive.
        ea, e_near, e_far = (_forward_chain(params, x)[1] for x in (xa, near, far))
        gap = np.sum((ea - e_far) ** 2, axis=1) - np.sum((ea - e_near) ** 2, axis=1)
        assume(gap.min() > 1e-3)
        margin = 0.5 * gap.min()
        xp = np.where(active[:, None], far, near)
        xn = np.where(active[:, None], near, far)

        want_losses, want_grads = _three_stream_gradients(params, xa, xp, xn, margin)
        assert np.array_equal(want_losses > 0.0, active)
        mean_loss, losses, grads = gradients_on_params(params, xa, xp, xn, margin)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
        assert mean_loss == pytest.approx(want_losses.mean(), rel=1e-12, abs=0)
        assert loss_on_params(params, xa, xp, xn, margin) == mean_loss
        for (gw, gb), (ww, wb) in zip(grads, want_grads):
            for got, want in ((gw, ww), (gb, wb)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                if not active.any():
                    assert not np.any(got)


def _training_setup(seed=0, spread=0.5):
    """Two temporally overlapping tracklets with partly mingled feature clusters.

    The clusters sit close enough that a freshly initialized net leaves
    some hinge terms active, so traces start from a positive loss.
    """
    ts = [_tr(0, 0, 19), _tr(1, 0, 19)]
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=+spread, scale=0.4, size=(20, 6))
    b = rng.normal(loc=-spread, scale=0.4, size=(20, 6))
    matrix = np.concatenate([a, b]).astype(np.float32)
    table = FeatureTable(ts, matrix)
    triplets = mine_triplets(ts, rng_seed=seed, per_anchor=1)
    return ts, table, triplets


class TestTraining:
    def test_config_defaults_and_validation(self):
        config = TrainConfig()
        assert (config.margin, config.learning_rate, config.epochs) == (1.0, 1e-3, 20)
        assert (config.batch_size, config.seed) == (64, 0)
        with pytest.raises(ValueError, match="margin"):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1e-3)

    def test_zero_learning_rate_is_a_no_op(self):
        _, table, triplets = _training_setup()
        net = EmbeddingNet.init(6, hidden=(8,), seed=2)
        before = [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases]
        initial_loss = loss_on_params(
            params64(net),
            table.matrix64[table.rows(t.anchor for t in triplets)],
            table.matrix64[table.rows(t.positive for t in triplets)],
            table.matrix64[table.rows(t.negative for t in triplets)],
            1.0,
        )
        # batch_size divides the 40 triplets, so every batch matmul has the
        # same shape and per-triplet losses are reproduced bitwise per epoch
        trained, trace = train(
            net, table, triplets, TrainConfig(learning_rate=0.0, epochs=4, batch_size=8, seed=9)
        )
        assert trained is net
        after = [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases]
        assert after == before
        assert len(trace) == 4
        assert trace == [trace[0]] * 4  # params never move, so every epoch agrees
        assert trace[0] == pytest.approx(initial_loss, rel=1e-12)

    def test_trace_is_shuffle_invariant_at_zero_rate(self):
        _, table, triplets = _training_setup()
        net_a = EmbeddingNet.init(6, hidden=(8,), seed=2)
        net_b = EmbeddingNet.init(6, hidden=(8,), seed=2)
        _, trace_a = train(
            net_a, table, triplets, TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=1)
        )
        _, trace_b = train(
            net_b, table, triplets, TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=77)
        )
        assert trace_a == trace_b

    def test_training_reduces_loss_on_separable_data(self):
        _, table, triplets = _training_setup()
        net = EmbeddingNet.init(6, hidden=(8,), seed=0)
        _, trace = train(
            net,
            table,
            triplets,
            TrainConfig(learning_rate=0.05, epochs=30, batch_size=16, seed=0),
        )
        assert trace[0] > 0.0
        assert trace[-1] < 0.5 * trace[0]

    def test_bit_reproducible_for_a_seed(self):
        _, table, triplets = _training_setup()
        config = TrainConfig(learning_rate=0.01, epochs=3, batch_size=8, seed=5)
        runs = []
        for _ in range(2):
            net = EmbeddingNet.init(6, hidden=(8,), seed=1)
            trained, trace = train(net, table, triplets, config)
            runs.append(([w.tobytes() for w in trained.weights], trace))
        assert runs[0] == runs[1]

    def test_shuffle_seed_changes_the_path(self):
        _, table, triplets = _training_setup()
        weights = []
        for shuffle_seed in (0, 1):
            net = EmbeddingNet.init(6, hidden=(8,), seed=1)
            config = TrainConfig(learning_rate=0.01, epochs=3, batch_size=4, seed=shuffle_seed)
            trained, _ = train(net, table, triplets, config)
            weights.append(trained.weights[0].tobytes())
        assert weights[0] != weights[1]

    def test_dimension_mismatch(self):
        _, table, triplets = _training_setup()
        net = EmbeddingNet.init(7, hidden=(8,), seed=0)
        with pytest.raises(DataValidationError, match="7-d features"):
            train(net, table, triplets, TrainConfig())


class TestReid:
    def test_centroids_are_mean_embeddings(self):
        ts = [_tr(0, 0, 2), _tr(4, 1, 1)]
        matrix = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        table = FeatureTable(ts, matrix)
        net = EmbeddingNet.init(5, hidden=(6,), seed=0)
        embeddings = tracklet_embeddings(net, ts, table)
        assert [e.shape for e in embeddings.values()] == [(3, OUT_DIM), (1, OUT_DIM)]
        centroids = tracklet_centroids(embeddings)
        assert set(centroids) == {0, 4}
        want = net.embed_batch(table.matrix64[[0, 1, 2]]).mean(axis=0)
        assert np.array_equal(centroids[0], want)
        assert np.array_equal(centroids[4], net.embed_batch(table.matrix64[[3]])[0])

    def test_propose_merges_rules(self):
        ts = [_tr(0, 0, 9), _tr(1, 20, 29), _tr(2, 5, 14), _tr(3, 40, 49)]
        z = np.zeros(OUT_DIM)

        def vec(x, y):
            v = z.copy()
            v[0], v[1] = x, y
            return v

        centroids = {
            0: vec(0.0, 0.0),
            1: vec(0.5, 0.0),  # distance 0.5 from tracklet 0, exactly at threshold
            2: vec(0.0625, 0.0),  # closest of all, but overlaps tracklet 0 in time
            3: vec(10.0, 0.0),  # far from everything
        }
        merges = propose_merges(centroids, ts, threshold=0.5)
        assert (0, 1) in merges
        assert all(pair != (0, 2) and pair != (2, 0) for pair in merges)
        assert all(3 not in pair for pair in merges)
        # ascending distance: (1,2) at 0.4375 sorts before (0,1) at 0.5
        assert merges == [(1, 2), (0, 1)]
        assert DEFAULT_MERGE_THRESHOLD == 0.5

    def test_propose_merges_validation(self):
        ts = [_tr(0, 0, 9)]
        with pytest.raises(DataValidationError, match="unknown tracklet id"):
            propose_merges({0: np.zeros(2), 5: np.zeros(2)}, ts)
        with pytest.raises(ValueError, match="nonnegative"):
            propose_merges({0: np.zeros(2)}, ts, threshold=-0.1)

    def test_separation_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        groups = {
            k: [rng.normal(size=3) for _ in range(rng.integers(1, 5))] for k in ("a", "b", "c")
        }
        got = separation_metrics(groups)
        want = oracles.separation_loops(groups)
        for key in ("intra_mean", "inter_mean", "ratio"):
            assert got[key] == pytest.approx(want[key], rel=1e-12)

    def test_separation_edge_cases(self):
        with pytest.raises(DataValidationError, match=">= 2 identities"):
            separation_metrics({"only": [np.zeros(2)]})
        all_singletons = separation_metrics({"a": [np.zeros(2)], "b": [np.ones(2)]})
        assert all_singletons["intra_mean"] == 0.0
        assert all_singletons["ratio"] == 0.0
        coincident = separation_metrics(
            {"a": [np.zeros(2), np.ones(2)], "b": [np.zeros(2), np.ones(2)]}
        )
        assert coincident["inter_mean"] > 0.0  # cross-group pairs include nonzero distances
        identical = separation_metrics({"a": [np.zeros(2)] * 2, "b": [np.zeros(2)] * 2})
        assert identical["inter_mean"] == 0.0
        assert identical["ratio"] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_separation_matches_loop_oracle_across_block_edges(self, data):
        dim = data.draw(st.integers(1, 8))
        sizes = st.sampled_from(
            [1, _SEPARATION_BLOCK - 1, _SEPARATION_BLOCK, _SEPARATION_BLOCK + 1, 2 * _SEPARATION_BLOCK + 3]
        )
        # Quarter steps keep every nonzero squared difference far from underflow.
        values = st.integers(-40, 40).map(lambda k: k / 4.0)
        groups = {}
        for key in range(data.draw(st.integers(2, 4))):
            v = data.draw(arrays(np.float64, (data.draw(sizes), dim), elements=values))
            row = st.integers(0, len(v) - 1)
            for src, dst in data.draw(st.lists(st.tuples(row, row), max_size=3)):
                v[dst] = v[src]
            groups[key] = list(v)
        got = separation_metrics(groups)
        want = oracles.separation_loops(groups)
        for key in ("intra_mean", "inter_mean", "ratio"):
            assert got[key] == pytest.approx(want[key], rel=1e-12)
        for v in groups.values():
            v = np.stack(v)
            dist = _pair_distances(v, v)
            same = (v[:, None, :] == v[None, :, :]).all(axis=2)
            assert (dist[same] == 0.0).all()
            assert (dist[~same] > 0.0).all()

    def test_separation_equals_broadcast_formula_exactly(self):
        def broadcast_dist(a, b):
            return np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))

        def broadcast_separation(groups):
            vecs = {k: np.stack(v) for k, v in groups.items()}
            keys = list(vecs)
            intra_sum, intra_count = 0.0, 0
            for k in keys:
                if len(vecs[k]) < 2:
                    continue
                iu = np.triu_indices(len(vecs[k]), k=1)
                intra_sum += float(broadcast_dist(vecs[k], vecs[k])[iu].sum())
                intra_count += len(iu[0])
            inter_sum, inter_count = 0.0, 0
            for i, ka in enumerate(keys):
                for kb in keys[i + 1 :]:
                    dist = broadcast_dist(vecs[ka], vecs[kb])
                    inter_sum += float(dist.sum())
                    inter_count += dist.size
            intra_mean = intra_sum / intra_count if intra_count else 0.0
            inter_mean = inter_sum / inter_count if inter_count else 0.0
            ratio = intra_mean / inter_mean if inter_mean > 0 else 0.0
            return {"intra_mean": intra_mean, "inter_mean": inter_mean, "ratio": ratio}

        rng = np.random.default_rng(11)
        for dim in (3, OUT_DIM):
            sizes = (4 * _SEPARATION_BLOCK + 1, 3 * _SEPARATION_BLOCK, 2 * _SEPARATION_BLOCK + 3, 1)
            groups = {k: list(rng.normal(size=(n, dim))) for k, n in enumerate(sizes)}
            assert separation_metrics(groups) == broadcast_separation(groups)
            a, b = np.stack(groups[0]), np.stack(groups[2])
            assert np.array_equal(_pair_distances(a, b), broadcast_dist(a, b))

    def test_separation_scratch_memory_is_bounded(self):
        rng = np.random.default_rng(3)
        groups = {k: rng.normal(size=(600, 64)) for k in ("a", "b")}
        tracemalloc.start()
        try:
            separation_metrics(groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The broadcast form builds [600, 600, 64] float64 temporaries (~184 MB).
        assert peak < 32 * 2**20


    # Unequal groups at OUT_DIM: one block, three blocks (intra, intra, inter) and
    # fourteen; 7 workers exceed the block count of the first two. At seed 3, adding
    # the fourteen block sums in another order changes the result.
    POOL_INPUTS = {
        "one-block": (1, 3),
        "three-blocks": (5, 2, 1),
        "fourteen-blocks": (11, 1, 12, 5, 3),
    }

    @pytest.mark.parametrize("sizes", list(POOL_INPUTS.values()), ids=list(POOL_INPUTS))
    def test_separation_is_the_same_at_any_worker_count(self, monkeypatch, sizes):
        rng = np.random.default_rng(3)
        groups = {k: list(rng.normal(size=(n, OUT_DIM))) for k, n in enumerate(sizes)}
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as often as the interpreter can
        try:
            for threads in ("1", "2", "7"):
                monkeypatch.setenv("MOTIONSTACK_THREADS", threads)
                results.append(separation_metrics(groups))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    def test_separation_pool_ends_with_the_call(self, monkeypatch):
        rng = np.random.default_rng(5)
        groups = {k: list(rng.normal(size=(9, 4))) for k in range(4)}
        monkeypatch.setenv("MOTIONSTACK_THREADS", "2")
        before = threading.active_count()
        separation_metrics(groups)
        assert threading.active_count() == before

    def test_one_separation_worker_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        rng = np.random.default_rng(5)
        groups = {k: list(rng.normal(size=(9, 4))) for k in range(4)}
        monkeypatch.setenv("MOTIONSTACK_THREADS", "1")
        separation_metrics(groups)
        assert started == []
        monkeypatch.setenv("MOTIONSTACK_THREADS", "2")
        separation_metrics(groups)
        assert started  # while two workers do start the pool

    def test_separation_workers_fit_the_scratch_budget(self, monkeypatch):
        monkeypatch.setenv("MOTIONSTACK_THREADS", "64")
        per_worker = _SEPARATION_SCRATCH_BYTES // 3
        assert _separation_workers(78, per_worker) == 3
        assert _separation_workers(2, per_worker) == 2
        assert _separation_workers(78, 2 * _SEPARATION_SCRATCH_BYTES) == 1  # one always runs

    def test_separation_memory_does_not_grow_with_the_thread_count(self, monkeypatch):
        # 200 samples at OUT_DIM: about 0.7 MB of scratch per worker, so 16
        # uncapped workers would hold about 12 MB.
        rng = np.random.default_rng(3)
        groups = {k: rng.normal(size=(200, OUT_DIM)) for k in range(6)}
        peaks = {}
        for threads in ("1", "16"):
            monkeypatch.setenv("MOTIONSTACK_THREADS", threads)
            tracemalloc.start()
            try:
                separation_metrics(groups)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["16"] < peaks["1"] + _SEPARATION_SCRATCH_BYTES

    def test_separation_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setenv("MOTIONSTACK_THREADS", "2")
        groups = {"a": [np.zeros(3)] * 2, "b": [np.zeros(3)] * 2, "c": [np.zeros(4)] * 2}
        with pytest.raises(ValueError):
            separation_metrics(groups)


class TestProjection:
    def test_matches_eigendecomposition_oracle(self):
        data = np.random.default_rng(0).normal(size=(20, 6))
        got = pca_project_2d(data)
        want = oracles.pca_top2(data)
        assert got.shape == (20, 2)
        assert np.allclose(got, want, atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(15, 4))
        coords = pca_project_2d(data)
        flipped = pca_project_2d(-data)  # same principal directions, mirrored data
        assert np.allclose(coords, -flipped, atol=1e-8)

    def test_rank_one_data_zeroes_second_axis(self):
        t = np.linspace(-2, 2, 9)[:, None]
        direction = np.array([[1.0, 2.0, -1.0]])
        data = t @ direction
        coords = pca_project_2d(data)
        assert np.allclose(coords[:, 1], 0.0, atol=1e-9)
        # First coordinate carries all the variance, oriented by the sign rule.
        assert np.allclose(np.abs(coords[:, 0]), np.abs(t[:, 0]) * np.linalg.norm(direction), atol=1e-9)

    def test_validation(self):
        with pytest.raises(DataValidationError, match=">= 2 samples"):
            pca_project_2d(np.zeros((1, 4)))
        with pytest.raises(DataValidationError, match=r"\[N, D\]"):
            pca_project_2d(np.zeros(4))

    def test_scatter_csv(self, tmp_path):
        keys = [(0, 3), (0, 4), (7, 1)]
        coords = np.array([[0.5, -1.25], [1.0, 2.0], [-3.5, 0.125]])
        path = tmp_path / "scatter.csv"
        write_scatter_csv(keys, coords, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "frame", "x", "y"]
        assert [r[:2] for r in rows[1:]] == [["0", "3"], ["0", "4"], ["7", "1"]]
        for row, (x, y) in zip(rows[1:], coords):
            assert float(row[2]) == x
            assert float(row[3]) == y
        with pytest.raises(ValueError, match="keys for"):
            write_scatter_csv(keys, coords[:2], path)


class TestNetSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        net = EmbeddingNet.init(9, hidden=(12, 10), seed=3, normalize_output=True)
        manifest_path = save_net(net, tmp_path / "net")
        assert manifest_path.name == NET_MANIFEST_NAME
        back = load_net(manifest_path)
        assert back.normalize_output is True
        assert back.layer_dims == net.layer_dims
        for w, b, w2, b2 in zip(net.weights, net.biases, back.weights, back.biases):
            assert w.tobytes() == w2.tobytes()
            assert b.tobytes() == b2.tobytes()

    def test_manifest_validation(self, tmp_path):
        net = EmbeddingNet.init(4, hidden=(5,), seed=0)
        manifest_path = save_net(net, tmp_path)
        doc = json.loads(manifest_path.read_text())

        doc_bad = dict(doc, layer_dims=[4, 6, 128])
        manifest_path.write_text(json.dumps(doc_bad))
        with pytest.raises(DataValidationError, match="declares layer_dims"):
            load_net(manifest_path)

        doc_bad = dict(doc, layers=[{"weight": "layer0.weight.mten"}])
        manifest_path.write_text(json.dumps(doc_bad))
        with pytest.raises(DataValidationError, match=r"layers\[0\]\.bias must be a string, got null"):
            load_net(manifest_path)

        manifest_path.write_text('{"layers": 3}')
        with pytest.raises(DataValidationError, match="layers must be a list, got 3"):
            load_net(manifest_path)

        manifest_path.write_text("{broken")
        with pytest.raises(DataValidationError, match="invalid JSON"):
            load_net(manifest_path)

    def test_tampered_tensor_is_caught(self, tmp_path):
        net = EmbeddingNet.init(4, hidden=(5,), seed=0)
        manifest_path = save_net(net, tmp_path)
        write_tensor(np.zeros(3, np.float32), tmp_path / "layer0.bias.mten")
        with pytest.raises(DataValidationError, match="layer 0"):
            load_net(manifest_path)
