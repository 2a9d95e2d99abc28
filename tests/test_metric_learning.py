"""Metric-learning tests: feature tables, mining, gradients, training, re-id."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from motionstack import metric_learning
from motionstack.errors import DataValidationError
from motionstack.jsonio import _echo
from motionstack.metric_learning import (
    DEFAULT_HIDDEN,
    DEFAULT_MERGE_THRESHOLD,
    NET_MANIFEST_NAME,
    OUT_DIM,
    EmbeddingNet,
    FeatureTable,
    TrainConfig,
    _SEPARATION_BLOCK_BYTES,
    _distance_blocks,
    gradients_on_params,
    load_feature_table,
    load_net,
    load_triplets_jsonl,
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
from motionstack.tracklets import Tracklets, enumerate_keys


def _tr(tid, start, end, rows=None):
    # One tracklet's fields, for ``_ts``: its id, closed interval and feature rows or None.
    return tid, start, end, rows


def _ts(specs):
    """Tracklets of ``_tr`` specs in order, every box (0, 0, 1, 1), with feature rows if the first carries them."""
    ids, starts, ends, rows = zip(*specs) if specs else ((), (), (), ())
    frames = sum(end - start + 1 for end, start in zip(ends, starts))
    feature_rows = [r for own in rows for r in own] if specs and rows[0] is not None else None
    return Tracklets(ids, starts, ends, [(0.0, 0.0, 1.0, 1.0)] * frames, feature_rows)


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
        ts = _ts([_tr(2, 0, 2), _tr(5, 10, 11)])
        matrix = np.arange(15, dtype=np.float32).reshape(5, 3)
        table = FeatureTable(ts, matrix)
        assert table.dim == 3
        assert list(table.rows([(2, 0), (5, 10)])) == [0, 3]
        assert table.matrix64.dtype == np.float64
        assert np.array_equal(table.matrix64[table.rows([(5, 11)])], [[12.0, 13.0, 14.0]])
        assert table.rows((5, f) for f in ts[1].frames).tolist() == [3, 4]
        assert table.rows([]).dtype == np.intp

    def test_explicit_rows(self):
        ts = _ts([_tr(0, 0, 1, rows=[3, 1]), _tr(1, 0, 0, rows=[0])])
        matrix = np.arange(8, dtype=np.float32).reshape(4, 2)
        table = FeatureTable(ts, matrix)
        assert list(table.rows([(0, 0), (0, 1), (1, 0)])) == [3, 1, 0]

    def test_duplicate_ids(self):
        with pytest.raises(DataValidationError, match=r"tracklets\[2\]: duplicate tracklet id 4"):
            FeatureTable(_ts([_tr(4, 0, 1), _tr(2, 0, 1), _tr(4, 5, 6)]), np.zeros((6, 2), np.float32))

    def test_canonical_count_mismatch(self):
        with pytest.raises(DataValidationError, match="enumerate"):
            FeatureTable(_ts([_tr(0, 0, 2)]), np.zeros((2, 4), np.float32))

    def test_explicit_row_out_of_range(self):
        with pytest.raises(DataValidationError, match="outside matrix"):
            FeatureTable(_ts([_tr(0, 0, 0, rows=[5])]), np.zeros((2, 4), np.float32))

    def test_unknown_key(self):
        table = FeatureTable(_ts([_tr(0, 0, 1)]), np.zeros((2, 4), np.float32))
        with pytest.raises(DataValidationError, match="no feature row for tracklet 0 frame 9"):
            table.rows([(0, 1), (0, 9), (3, 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_first_row(self, bad):
        matrix = np.zeros((4, 3), np.float32)
        matrix[3, 0] = bad
        matrix[2, 1] = bad
        with pytest.raises(DataValidationError, match=rf"feature row 2 column 1 is not finite: {bad}"):
            FeatureTable(_ts([_tr(0, 0, 3)]), matrix)

    def test_matrix_must_be_2d(self):
        with pytest.raises(DataValidationError, match=r"\[T, D\]"):
            FeatureTable(_ts([_tr(0, 0, 0)]), np.zeros(3, np.float32))

    def test_load_from_tensor(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        path = tmp_path / "features.mten"
        write_tensor(matrix, path)
        table = load_feature_table(_ts([_tr(0, 0, 2)]), path)
        assert np.array_equal(table.matrix64, matrix)
        write_tensor(np.zeros(3, np.float32), path)
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: feature matrix must be [T, D]")):
            load_feature_table(_ts([_tr(0, 0, 2)]), path)


def _dict_rows(tracklets, keys):
    # FeatureTable.rows as one dict lookup per (id, frame) tuple, the lookup the array form replaced.
    rows = tracklets.feature_rows
    index = dict(zip(map(tuple, enumerate_keys(tracklets).tolist()), count() if rows is None else rows.tolist()))
    try:
        return [index[key] for key in map(tuple, keys)]
    except KeyError as exc:
        tracklet_id, frame = exc.args[0]
        return f"no feature row for tracklet {_echo(tracklet_id)} frame {_echo(frame)}"


def _table_rows(call):
    try:
        return call().tolist()
    except DataValidationError as exc:
        return str(exc)


# Values at int64's ends, where a difference of keys would wrap; the first five are ids.
_EDGES = [0, 1, 2**62, 2**63 - 2, 2**63 - 1, -1, -(2**63), -(2**63) + 1]


class TestArrayRowLookup:
    @settings(max_examples=150, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 40) | st.sampled_from(_EDGES[:5]), st.integers(-3, 40) | st.sampled_from(_EDGES),
                      st.integers(1, 4)).filter(lambda span: span[1] + span[2] <= 2**63),  # ends fit int64
            max_size=6, unique_by=lambda span: span[0],
        ),
        explicit=st.booleans(),
        # (tracklet, frame) picks: a frame from the tracklet's start, or an absolute one.
        picks=st.lists(
            st.tuples(st.integers(0, 5), st.tuples(st.just(True), st.integers(-1, 5))
                      | st.tuples(st.just(False), st.sampled_from(_EDGES))),
            max_size=12,
        ),
        strays=st.lists(
            st.tuples(st.integers(-2, 45) | st.sampled_from(_EDGES), st.integers(-3, 45) | st.sampled_from(_EDGES)),
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # Frame -2**63 minus start 2**63 - 2 wraps to 2 in int64, just past the tracklet's two frames.
    @example(spans=[(0, 2**63 - 2, 2)], explicit=False, picks=[(0, (False, -(2**63)))], strays=[], seed=0)
    def test_rows_match_the_dict_lookup(self, spans, explicit, picks, strays, seed):
        rng = np.random.default_rng(seed)
        height = sum(length for _, _, length in spans)
        ts = _ts([
            _tr(tid, start, start + length - 1, rows=rng.integers(height, size=length).tolist() if explicit else None)
            for tid, start, length in spans
        ])
        table = FeatureTable(ts, np.zeros((height, 2), np.float32))
        # Keys of the table's tracklets, frames inside and outside them, and stray keys,
        # in a drawn order, so a missing key may come first, last or not at all; a frame
        # relative to a start at an int64 end is clipped to it.
        keys = [
            [ts[i % len(ts)].id, min(max(ts[i % len(ts)].start + frame, -(2**63)), 2**63 - 1) if relative else frame]
            for i, (relative, frame) in picks
        ] if ts else []
        keys += [list(key) for key in strays]
        keys = [keys[i] for i in rng.permutation(len(keys))]
        array = np.array(keys, dtype=np.int64).reshape(-1, 2)
        assert _table_rows(lambda: table.rows(array)) == _dict_rows(ts, keys)
        assert _table_rows(lambda: table.rows(keys)) == _dict_rows(ts, keys)


def _mine_one_draw_at_a_time(tracklets, rng_seed, per_anchor):
    # mine_triplets' sampling as a loop of scalar draws: a positive (for
    # tracklets of two or more frames), then a negative, per triplet. The
    # negatives of an anchor are the frames of every tracklet of another id
    # whose closed interval meets the anchor's, in ascending id order.
    by_id = sorted(tracklets, key=lambda u: u.id)
    rng = np.random.default_rng(rng_seed)
    out = []
    for t in tracklets:
        pool = [[u.id, f] for u in by_id if u.id != t.id and u.start <= t.end and t.start <= u.end for f in u.frames]
        frames = list(t.frames)
        for i in (range(len(frames)) if pool else []):
            for _ in range(per_anchor):
                positive = i
                if len(frames) >= 2:
                    k = int(rng.integers(len(frames) - 1))
                    positive = k if k < i else k + 1
                out.append([[t.id, frames[i]], [t.id, frames[positive]], pool[int(rng.integers(len(pool)))]])
    return out


class TestMining:
    def _setup(self):
        return _ts([_tr(0, 0, 29), _tr(1, 10, 39), _tr(2, 20, 49), _tr(9, 200, 220)])

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
        for (aid, af), (pid, pf), (nid, nf) in triplets.tolist():
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
        anchors = list(map(tuple, triplets[:, 0].tolist()))
        expected = []
        for t in list(ts)[:3]:  # tracklet 9 overlaps nothing and is skipped
            for f in t.frames:
                expected.extend([(t.id, f)] * 2)
        assert anchors == expected
        assert len(triplets) == 2 * (30 + 30 + 30)

    def test_isolated_tracklet_never_appears(self):
        triplets = mine_triplets(self._setup(), rng_seed=1)
        ids = set(triplets[:, 0, 0].tolist()) | set(triplets[:, 2, 0].tolist())
        assert 9 not in ids

    def test_deterministic_per_seed(self):
        ts = self._setup()
        assert np.array_equal(mine_triplets(ts, rng_seed=5), mine_triplets(ts, rng_seed=5))
        assert not np.array_equal(mine_triplets(ts, rng_seed=5), mine_triplets(ts, rng_seed=6))

    def test_single_frame_tracklet_uses_itself_as_positive(self):
        ts = _ts([_tr(3, 7, 7), _tr(4, 0, 20)])
        triplets = mine_triplets(ts, rng_seed=0)
        own = [(a, p) for a, p, _ in triplets.tolist() if a[0] == 3]
        assert len(own) == 1
        assert own[0][1] == own[0][0] == [3, 7]

    def test_positive_distribution_covers_other_frames(self):
        ts = _ts([_tr(0, 0, 3), _tr(1, 0, 3)])
        triplets = mine_triplets(ts, rng_seed=0, per_anchor=50)
        seen = {p[1] for a, p, _ in triplets.tolist() if a == [0, 0]}
        assert seen == {1, 2, 3}  # never the anchor frame, all others reachable

    def test_per_anchor_validation(self):
        with pytest.raises(ValueError, match="per_anchor"):
            mine_triplets(self._setup(), rng_seed=0, per_anchor=0)

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.lists(st.tuples(st.integers(-3, 30), st.sampled_from([1, 2, 3, 9])), max_size=7),
        ids=st.permutations(range(7)),  # so file order is not id order
        seed=st.integers(0, 2**32 - 1),
        per_anchor=st.integers(1, 3),
        big=st.booleans(),
    )
    def test_draws_match_one_scalar_draw_at_a_time(self, spans, ids, seed, per_anchor, big):
        ts = _ts([_tr(tid + big * (2**63 - 7), start, start + length - 1) for tid, (start, length) in zip(ids, spans)])
        assert mine_triplets(ts, seed, per_anchor).tolist() == _mine_one_draw_at_a_time(ts, seed, per_anchor)

    def test_no_overlaps_no_triplets(self):
        assert mine_triplets(_ts([_tr(0, 0, 9), _tr(1, 100, 109)]), rng_seed=0).tolist() == []


class TestTripletsJsonl:
    def test_round_trip(self, tmp_path):
        triplets = np.array([
            [(0, 5), (0, 9), (3, 5)],
            [(1, 2), (1, 3), (0, 2)],
        ])
        path = tmp_path / "triplets.jsonl"
        write_triplets_jsonl(triplets, path)
        assert np.array_equal(load_triplets_jsonl(path), triplets)
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"a": [0, 5], "p": [0, 9], "n": [3, 5]}

    @pytest.mark.parametrize(
        "line,pattern",
        [
            ('{"a": [0, 1], "p": [0, 2]}', "n must be a list, got null"),
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

    def test_keys_at_the_int64_extremes_go_from_mining_to_training(self, tmp_path):
        big, low = 2**63 - 1, -(2**63)
        ts = _ts([_tr(big, low, low + 2, rows=[5, 3, 1]), _tr(1, low + 1, low + 3, rows=[0, 2, 4])])
        row = {(big, low): 5, (big, low + 1): 3, (big, low + 2): 1, (1, low + 1): 0, (1, low + 2): 2, (1, low + 3): 4}
        mined = mine_triplets(ts, rng_seed=0, per_anchor=2)
        path = tmp_path / "triplets.jsonl"
        write_triplets_jsonl(mined, path)
        loaded = load_triplets_jsonl(path)
        assert mined.dtype == loaded.dtype == np.int64
        assert mined.shape == loaded.shape == (12, 3, 2)
        assert np.array_equal(mined, loaded)
        assert {big, low} <= set(loaded.ravel().tolist())
        assert path.read_text().splitlines() == [
            json.dumps({"a": [a_id, a_frame], "p": [p_id, p_frame], "n": [n_id, n_frame]})
            for (a_id, a_frame), (p_id, p_frame), (n_id, n_frame) in mined.tolist()
        ]
        table = FeatureTable(ts, np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32))
        net = EmbeddingNet.init(4, hidden=(5,), seed=0)
        xa, xp, xn = (table.matrix64[[row[tuple(key)] for key in loaded[:, m].tolist()]] for m in range(3))
        want = gradients_on_params(params64(net), xa, xp, xn, 1.0)[0]
        _, trace = train(net, table, loaded, TrainConfig(learning_rate=0.0, epochs=1, batch_size=len(loaded)))
        assert trace == [pytest.approx(want, rel=1e-12)]

    def test_no_overlaps_mine_an_empty_key_array_that_trains(self):
        ts = _ts([_tr(0, 0, 9), _tr(1, 100, 109)])
        triplets = mine_triplets(ts, rng_seed=0)
        assert triplets.shape == (0, 3, 2) and triplets.dtype == np.int64
        net = EmbeddingNet.init(2, hidden=(3,), seed=0)
        _, trace = train(net, FeatureTable(ts, np.zeros((20, 2), np.float32)), triplets, TrainConfig(epochs=2))
        assert trace == [0.0, 0.0]


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
        assert grads == []  # an all-zero gradient is no gradient set at all

    def test_empty_batch(self):
        net = EmbeddingNet.init(4, hidden=(6,), seed=0)
        params = params64(net)
        empty = np.zeros((0, 4))
        mean_loss, losses, grads = gradients_on_params(params, empty, empty, empty, 1.0)
        assert mean_loss == 0.0
        assert len(losses) == 0
        assert grads == []


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
        for (gw, gb), (ww, wb) in zip(grads, want_grads):
            for got, want in ((gw, ww), (gb, wb)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                if not active.any():
                    assert not np.any(got)


    def test_backward_sweep_holds_each_activation_once(self):
        # One all-active batch: every row of every layer is back-propagated.
        net = EmbeddingNet.init(32, seed=0)  # 32-512-256-128
        params = params64(net)
        xa, xp, xn = np.random.default_rng(1).normal(size=(3, 64, 32))
        gradient_set = 8 * sum(w.size + b.size for w, b in zip(net.weights, net.biases))  # ~1.4 MiB
        tracemalloc.start()
        try:
            _, losses, grads = gradients_on_params(params, xa, xp, xn, 1e3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (losses > 0.0).all() and len(grads) == 3
        # The result is one set, and the 192 stacked rows' activations (512 + 256 + 128 wide) about one
        # more. A second gather of each layer's rows, with every activation kept through the sweep,
        # lifts the peak to about 3.5 sets.
        assert peak < 2.75 * gradient_set


def _training_setup(seed=0, spread=0.5):
    """Two temporally overlapping tracklets with partly mingled feature clusters.

    The clusters sit close enough that a freshly initialized net leaves
    some hinge terms active, so traces start from a positive loss.
    """
    ts = _ts([_tr(0, 0, 19), _tr(1, 0, 19)])
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=+spread, scale=0.4, size=(20, 6))
    b = rng.normal(loc=-spread, scale=0.4, size=(20, 6))
    matrix = np.concatenate([a, b]).astype(np.float32)
    table = FeatureTable(ts, matrix)
    triplets = mine_triplets(ts, rng_seed=seed, per_anchor=1)
    return ts, table, triplets


def _train_always_updating(net, table, triplets, config):
    # train's loop with the update applied after every batch, also when no hinge is
    # active (as zero gradients); returns (float64 params, trace, batches with no active hinge).
    rows = table.rows(triplets.reshape(-1, 2)).reshape(-1, 3).T
    params = params64(net)
    rng = np.random.default_rng(config.seed)
    trace, idle = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(len(triplets))
        epoch_losses = np.zeros(len(triplets))
        for lo in range(0, len(triplets), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            xa, xp, xn = table.matrix64[rows[:, batch]]
            _, losses, grads = gradients_on_params(params, xa, xp, xn, config.margin)
            epoch_losses[batch] = losses
            idle += not (losses > 0.0).any()
            grads = grads or [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
            for (w, b), (gw, gb) in zip(params, grads):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
        trace.append(float(epoch_losses.sum() / len(triplets)))
    return params, trace, idle


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
        for rate in (-1e-3, np.inf, np.nan):
            with pytest.raises(ValueError, match="learning_rate must be finite and nonnegative"):
                TrainConfig(learning_rate=rate)

    def test_zero_learning_rate_is_a_no_op(self):
        _, table, triplets = _training_setup()
        net = EmbeddingNet.init(6, hidden=(8,), seed=2)
        before = [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases]
        initial_loss = gradients_on_params(
            params64(net),
            table.matrix64[table.rows(map(tuple, triplets[:, 0].tolist()))],
            table.matrix64[table.rows(map(tuple, triplets[:, 1].tolist()))],
            table.matrix64[table.rows(map(tuple, triplets[:, 2].tolist()))],
            1.0,
        )[0]
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

    @pytest.mark.parametrize("spread,batch_size", [(0.3, 3), (0.5, 5), (0.8, 2)])
    def test_skipping_idle_batches_changes_no_bit(self, spread, batch_size):
        _, table, triplets = _training_setup(seed=3, spread=spread)
        config = TrainConfig(learning_rate=0.05, epochs=4, batch_size=batch_size, seed=1)
        net = EmbeddingNet.init(6, hidden=(8,), seed=2)
        params, want_trace, idle = _train_always_updating(net, table, triplets, config)
        assert 0 < idle < 4 * -(-len(triplets) // batch_size)  # some batches skip the update and some do not
        _, trace = train(net, table, triplets, config)  # the reference trained copies of the weights
        assert trace == want_trace
        for l, (w, b) in enumerate(params):
            assert net.weights[l].tobytes() == w.astype(np.float32).tobytes()
            assert net.biases[l].tobytes() == b.astype(np.float32).tobytes()

    def test_idle_batches_leave_every_weight_and_hold_no_gradient_set(self):
        # Positives repeat the anchor's features and negatives lie 50 away in every
        # coordinate, so every hinge is inactive from the first batch on.
        ts = _ts([_tr(0, 0, 9), _tr(1, 0, 9)])
        v = np.random.default_rng(4).normal(size=32)
        table = FeatureTable(ts, np.concatenate([np.tile(v, (10, 1)), np.tile(v + 50.0, (10, 1))]).astype(np.float32))
        triplets = mine_triplets(ts, rng_seed=0, per_anchor=2)
        net = EmbeddingNet.init(32, seed=0)  # 32-512-256-128
        xa, xp, xn = (table.matrix64[table.rows(triplets[:, k])] for k in range(3))
        assert not gradients_on_params(params64(net), xa, xp, xn, 1.0)[1].any()
        before = [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases]
        gradient_set = 8 * sum(w.size + b.size for w, b in zip(net.weights, net.biases))  # ~1.4 MiB
        tracemalloc.start()
        try:
            _, trace = train(net, table, triplets, TrainConfig(learning_rate=0.05, epochs=2, batch_size=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace == [0.0, 0.0]
        assert [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases] == before
        # train holds its float64 copy of the weights (one set) and, at the end, the float32
        # result (half a set); a zero gradient set per idle batch would lift the peak past 2 sets.
        assert peak < 1.75 * gradient_set

    def test_no_triplets_give_a_trace_of_zeros(self):
        _, table, _ = _training_setup()
        net = EmbeddingNet.init(6, hidden=(8,), seed=2)
        before = [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases]
        _, trace = train(net, table, np.zeros((0, 3, 2), dtype=np.int64), TrainConfig(epochs=3))
        assert trace == [0.0, 0.0, 0.0]
        assert [w.tobytes() for w in net.weights] + [b.tobytes() for b in net.biases] == before

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
        ts = _ts([_tr(0, 0, 2), _tr(4, 1, 1)])
        matrix = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        table = FeatureTable(ts, matrix)
        net = EmbeddingNet.init(5, hidden=(6,), seed=0)
        matrix, embeddings = tracklet_embeddings(net, ts, table)
        assert [e.shape for e in embeddings.values()] == [(3, OUT_DIM), (1, OUT_DIM)]
        # One float64 matrix in enumerate_keys order; each tracklet's rows are a view of it.
        assert matrix.dtype == np.float64 and matrix.shape == (4, OUT_DIM)
        assert all(np.shares_memory(e, matrix) for e in embeddings.values())
        assert np.array_equal(np.concatenate(list(embeddings.values())), matrix)
        centroids = tracklet_centroids(embeddings)
        assert set(centroids) == {0, 4}
        want = net.embed_batch(table.matrix64[[0, 1, 2]]).mean(axis=0)
        assert np.array_equal(centroids[0], want)
        assert np.array_equal(centroids[4], net.embed_batch(table.matrix64[[3]])[0])

    @pytest.mark.parametrize("explicit", [False, True])
    def test_embeddings_are_embed_batch_on_each_tracklets_own_rows(self, explicit):
        # One row lookup for every tracklet, then one batch per tracklet: each tracklet's
        # embeddings are the bits embed_batch gives its own rows, in reid's group order too.
        lengths = {3: 4, 2**63 - 1: 3, 0: 5, 11: 2}
        rng = np.random.default_rng(8)
        height = sum(lengths.values())
        own, first = {}, 0
        for tid, length in lengths.items():
            own[tid] = rng.permutation(height)[:length].tolist() if explicit else list(range(first, first + length))
            first += length
        ts = _ts([_tr(tid, 7 * i, 7 * i + length - 1, own[tid] if explicit else None)
              for i, (tid, length) in enumerate(lengths.items())])
        table = FeatureTable(ts, rng.normal(size=(height, 6)).astype(np.float32))
        net = EmbeddingNet.init(6, hidden=(9,), seed=4)
        for order in (ts, ts.take([2, 0, 3, 1])):
            matrix, views = tracklet_embeddings(net, order, table)
            assert list(views) == [t.id for t in order]
            assert np.array_equal(matrix, np.concatenate([views[t.id] for t in order]))
            for t in order:
                assert np.shares_memory(views[t.id], matrix)
                assert np.array_equal(views[t.id], net.embed_batch(table.matrix64[own[t.id]]))

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_blocks_give_each_tracklet_the_bits_of_its_own_rows(self, explicit, normalize):
        # Tracklets shorter than a block, of one block, just past one and of several: each is
        # cut into near-equal blocks of its own, so its embeddings are the bits embed_batch
        # gives all its rows at once, through the production net and block size.
        assert metric_learning._EMBED_BLOCK_ROWS == 128
        lengths = [1, 4, 127, 128, 129, 300, 385]
        height = sum(lengths)
        rng = np.random.default_rng(12)
        own = np.split(rng.permutation(height) if explicit else np.arange(height), np.cumsum(lengths)[:-1])
        ts = _ts([_tr(tid, 5 * tid, 5 * tid + n - 1, own[tid].tolist() if explicit else None)
                  for tid, n in enumerate(lengths)])
        table = FeatureTable(ts, rng.normal(size=(height, 32)).astype(np.float32))
        net = EmbeddingNet.init(32, seed=6, normalize_output=normalize)  # 32-512-256-128
        matrix, views = tracklet_embeddings(net, ts, table)
        assert matrix.shape == (height, OUT_DIM)
        for tid, rows in enumerate(own):
            assert np.array_equal(views[tid], net.embed_batch(table.matrix64[rows])), lengths[tid]

    def test_a_long_tracklet_holds_one_block_of_hidden_layers(self):
        ts = _ts([_tr(0, 0, 4095)])
        table = FeatureTable(ts, np.random.default_rng(3).normal(size=(4096, 32)).astype(np.float32))
        net = EmbeddingNet.init(32, seed=0)  # 32-512-256-128
        weights64 = 8 * sum(w.size + b.size for w, b in zip(net.weights, net.biases))  # ~1.4 MiB
        block = 8 * metric_learning._EMBED_BLOCK_ROWS * sum(net.layer_dims)  # its features and layers
        tracemalloc.start()
        try:
            matrix, _ = tracklet_embeddings(net, ts, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.nbytes == 4 << 20
        # Above the matrix: the float64 weights and about one block's scratch (0.9 MiB).
        # Embedded whole, the tracklet's 512- and 256-wide layers alone take 24 MiB.
        assert peak - matrix.nbytes <= weights64 + 2 * block, peak

    @pytest.mark.parametrize("explicit", [False, True])
    def test_a_tracklet_outside_the_table_names_its_first_missing_frame(self, explicit):
        ts = _ts([_tr(5, 10, 13, [0, 1, 2, 3] if explicit else None), _tr(2**63 - 1, 0, 1, [4, 5] if explicit else None)])
        table = FeatureTable(ts, np.zeros((6, 3), np.float32))
        net = EmbeddingNet.init(3, hidden=(4,), seed=0)
        for outside, frame in (
            (_tr(5, 9, 13), 9), (_tr(5, 11, 15), 14), (_tr(5, 14, 20), 14), (_tr(2**63 - 1, 1, 2), 2), (_tr(6, 10, 11), 10),
        ):
            with pytest.raises(DataValidationError) as exc:
                tracklet_embeddings(net, _ts([_tr(2**63 - 1, 0, 1), outside]), table)
            assert str(exc.value) == f"no feature row for tracklet {outside[0]} frame {frame}"

    def test_propose_merges_rules(self):
        ts = _ts([_tr(0, 0, 9), _tr(1, 20, 29), _tr(2, 5, 14), _tr(3, 40, 49)])
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
        ts = _ts([_tr(0, 0, 9)])
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
        sizes = st.sampled_from([1, 2, 3, 7, 8])
        # Row blocks of one row, of a few rows, and of a whole group.
        block_bytes = data.draw(st.sampled_from([1, 16, 56, _SEPARATION_BLOCK_BYTES]))
        # Quarter steps keep every nonzero squared difference far from underflow.
        values = st.integers(-40, 40).map(lambda k: k / 4.0)
        groups = {}
        for key in range(data.draw(st.integers(2, 4))):
            v = data.draw(arrays(np.float64, (data.draw(sizes), dim), elements=values))
            row = st.integers(0, len(v) - 1)
            for src, dst in data.draw(st.lists(st.tuples(row, row), max_size=3)):
                v[dst] = v[src]
            groups[key] = list(v)
        with mock.patch.object(metric_learning, "_SEPARATION_BLOCK_BYTES", block_bytes):
            got = separation_metrics(groups)
            dists = {k: np.concatenate([d for _, d in _distance_blocks(np.stack(v), np.stack(v))])
                     for k, v in groups.items()}
        want = oracles.separation_loops(groups)
        for key in ("intra_mean", "inter_mean", "ratio"):
            assert got[key] == pytest.approx(want[key], rel=1e-12)
        for k, v in groups.items():
            v = np.stack(v)
            same = (v[:, None, :] == v[None, :, :]).all(axis=2)
            assert (dists[k][same] == 0.0).all()
            assert (dists[k][~same] > 0.0).all()

    @pytest.mark.parametrize("rows", [1, 2, 7, 30])
    def test_separation_is_the_same_at_any_block_size(self, monkeypatch, rows):
        # Quarter steps at OUT_DIM: BLAS computes every product exactly, whatever
        # the block shape (a one-row block goes through gemv, and its rounding can
        # differ), so this checks the blocking and the sums. The distances are
        # square roots, so adding them in another grouping changes the result of
        # about half of these scenes.
        sizes = (24, 1, 30, 17, 9, 3)
        scenes = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            groups = {k: list(rng.integers(-40, 41, size=(n, OUT_DIM)) / 4.0) for k, n in enumerate(sizes)}
            scenes.append((groups, separation_metrics(groups)))
        monkeypatch.setattr(metric_learning, "_SEPARATION_BLOCK_BYTES", rows * 8 * max(sizes))
        for groups, whole in scenes:
            assert separation_metrics(groups) == whole

    def test_separation_is_the_same_at_one_and_two_blas_threads(self):
        # Each child prints the statistics, then its thread count (0 without /proc).
        code = (
            "import os, numpy as np; from motionstack.metric_learning import OUT_DIM, separation_metrics; "
            "rng = np.random.default_rng(3); "
            "print(repr(separation_metrics({k: list(rng.normal(size=(n, OUT_DIM))) "
            "for k, n in enumerate((150, 1, 120, 97))}))); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(metric_learning.__file__).resolve().parents[1])}
        reprs = []
        tasks = []
        for threads in ("1", "2"):
            blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=60, env={**env, **blas})
            assert proc.returncode == 0, proc.stderr
            stats, count = proc.stdout.splitlines()
            reprs.append(stats)
            tasks.append(int(count))
        assert reprs[0] == reprs[1]
        assert "intra_mean" in reprs[0]
        if Path("/proc/self/task").is_dir():
            assert tasks[0] == 1  # motionstack starts no thread of its own

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

    def test_separation_memory_does_not_grow_with_the_group_size(self):
        rng = np.random.default_rng(3)
        groups = {k: rng.normal(size=(3000, OUT_DIM)) for k in ("a", "b")}
        tracemalloc.start()
        try:
            separation_metrics(groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The two stacked groups hold 5.9 MiB; one [3000, 3000] distance matrix would be 68.7 MiB.
        assert peak < 16 * 2**20

    def test_separation_drops_each_block_before_the_next(self):
        # Two groups of 3,000 rows: a 1 MiB budget makes 43-row blocks of 1 MiB of distances, each
        # with 1 MiB of norms, and these two set the peak. Holding the spent block and its norms
        # through the next product added 2 MiB to them; squaring a whole group for its norms, 2.9 MiB
        # at once, set a 3.0 MiB peak.
        rng = np.random.default_rng(3)
        groups = {k: rng.normal(size=(3000, OUT_DIM)) for k in ("a", "b")}
        tracemalloc.start()
        try:
            separation_metrics(groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_separation_recompute_holds_one_chunk_at_a_time(self):
        # Tight groups: each row lies 0.1 per coordinate from a center drawn on [-2, 2]^128, so the Gram
        # expansion cancels for nearly every intra pair and each is recomputed from its difference.
        rng = np.random.default_rng(0)
        groups = {k: rng.uniform(-2.0, 2.0, size=OUT_DIM) + rng.normal(scale=0.1, size=(300, OUT_DIM))
                  for k in range(12)}
        recomputed = []
        for v in groups.values():
            norms = np.square(v).sum(axis=1)
            norms = norms[:, None] + norms
            upper = np.triu_indices(len(v), 1)
            recomputed.append((norms - 2.0 * v @ v.T < 1e-2 * norms)[upper].mean())
        assert np.mean(recomputed) > 0.9
        tracemalloc.start()
        try:
            separation_metrics(groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A group is one 0.7 MiB block, held with its norms, mask and cancelled pairs' indices, and
        # one recompute chunk inside the budget. Whole-block gathers for the recompute, a copy of the
        # triangle or a Python float per row sum lift the peak to about 7 MiB.
        assert peak < 5 * _SEPARATION_BLOCK_BYTES

    def test_separation_of_near_duplicates_matches_loop_oracle(self):
        # Norms near 1e4 and rows about 1e-3 apart: the Gram expansion alone loses
        # every digit here, so each pair must be recomputed from its difference.
        rng = np.random.default_rng(5)
        base = rng.normal(size=OUT_DIM) * (1e4 / np.sqrt(OUT_DIM))
        groups = {k: list(base + rng.normal(size=(6, OUT_DIM)) * (1e-3 / np.sqrt(OUT_DIM))) for k in range(3)}
        got = separation_metrics(groups)
        want = oracles.separation_loops(groups)
        for key in ("intra_mean", "inter_mean", "ratio"):
            assert got[key] == pytest.approx(want[key], rel=1e-12)

    def test_separation_worker_error_reaches_the_caller(self):
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

    @staticmethod
    def _svd_of_centered(data):
        # The direct route: the SVD of the whole centered matrix, U included.
        centered = data - data.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        coords = np.zeros((len(data), 2))
        for c in range(min(2, vt.shape[0])):
            component = vt[c] if vt[c][np.argmax(np.abs(vt[c]))] >= 0 else -vt[c]
            coords[:, c] = centered @ component
        return coords

    @pytest.mark.parametrize("shape", [(512, 128), (235, 128), (512, 64), (400, 32), (56, 30), (11, 6), (2, 1)])
    def test_tall_data_matches_the_direct_svd_bit_for_bit(self, shape):
        # LAPACK's dgesdd factors a matrix with rows >= 11/6 columns as QR first
        # itself, so the SVD of the QR factor R of rows that fit one block yields
        # the very same directions.
        assert 11 / 6 * shape[1] <= shape[0] <= metric_learning._PCA_BLOCK_ROWS
        data = np.random.default_rng(shape[0] * 7 + shape[1]).normal(size=shape) * 3.0 + 1.5
        assert np.array_equal(pca_project_2d(data), self._svd_of_centered(data))

    @pytest.mark.parametrize("shape", [(513, 128), (1000, 64), (2100, 16), (3600, 128)])
    def test_data_of_several_blocks_stays_within_the_oracle_tolerance(self, shape):
        # Past one block, R is built step by step, and the last bits may drift.
        assert shape[0] > metric_learning._PCA_BLOCK_ROWS
        data = np.random.default_rng(shape[0] * 7 + shape[1]).normal(size=shape) * 3.0 + 1.5
        got = pca_project_2d(data)
        assert np.allclose(got, self._svd_of_centered(data), atol=1e-8)
        assert np.allclose(got, oracles.pca_top2(data), atol=1e-8)

    @pytest.mark.parametrize("shape", [(2, 6), (5, 128), (20, 6), (128, 128), (200, 128), (300, 200)])
    def test_short_data_stays_within_the_oracle_tolerance(self, shape):
        data = np.random.default_rng(shape[0] * 7 + shape[1]).normal(size=shape)
        got = pca_project_2d(data)
        assert np.allclose(got, self._svd_of_centered(data), atol=1e-8)
        assert np.allclose(got, oracles.pca_top2(data), atol=1e-8)

    def test_the_points_come_back_untouched(self):
        data = np.random.default_rng(3).normal(size=(1100, 32)) + 4.0
        before = data.copy()
        pca_project_2d(data)
        assert np.array_equal(data, before)

    def test_scratch_is_a_few_blocks_not_a_share_of_the_points(self):
        # 24,576 x 128 points take 24 MiB; each step centers one block and factors it
        # under the last R, so the traced peak is a few [block + D, D] arrays.
        data = np.random.default_rng(6).normal(size=(24_576, 128))
        tracemalloc.start()
        try:
            coords = pca_project_2d(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = (metric_learning._PCA_BLOCK_ROWS + 128) * 128 * 8
        assert peak - coords.nbytes < 4 * block_bytes < data.nbytes / 8

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
        keys = np.array([(0, 3), (0, 4), (7, 1)])
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


    def test_scatter_csv_writes_the_bytes_of_csv_writer(self, tmp_path):
        def written(keys, coords):
            out = io.StringIO(newline="")
            writer = csv.writer(out)
            writer.writerow(["id", "frame", "x", "y"])
            for (tid, frame), (px, py) in zip(keys, coords):
                writer.writerow([tid, frame, repr(float(px)), repr(float(py))])
            return out.getvalue().encode()

        rng = np.random.default_rng(4)
        keys = rng.integers(-(2**63), 2**63 - 1, size=(1000, 2), endpoint=True)
        keys[:2] = [[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]]
        coords = rng.normal(size=(1000, 2)) * 10.0 ** rng.integers(-300, 300, size=(1000, 2))
        coords[:3] = [[-0.0, 5e-324], [1e300, -1e300], [0.1, 1e16]]
        narrow = (rng.normal(size=(1000, 2)) * 10.0 ** rng.integers(-30, 30, size=(1000, 2))).astype(np.float32)
        path = tmp_path / "scatter.csv"
        for n in (0, 1, 1000):
            for points in (coords[:n], narrow[:n], coords[:n].tolist()):
                write_scatter_csv(keys[:n], points, path)
                assert path.read_bytes() == written(keys[:n], points)


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
