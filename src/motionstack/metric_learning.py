"""Triplet-loss metric learning over tracklet features.

The pieces, in pipeline order:

* mining: every frame of every (already length-filtered) tracklet serves as
  an anchor; positives come from other frames of the anchor's own tracklet,
  negatives uniformly from all frames of tracklets with a different id that
  temporally overlap the anchor's. Anchors with no overlapping foreign
  tracklet are skipped.
* encoder: an MLP [D_in, 512, 256, 128] (hidden widths configurable, the
  128-d output fixed), affine -> ReLU -> affine -> ReLU -> affine, weights
  stored float32, all arithmetic in float64.
* loss: hinge on squared Euclidean distances,
  ``max(0, |ea-ep|^2 - |ea-en|^2 + margin)``, margin 1.0 by default.
* training: plain mini-batch gradient descent with analytic gradients and
  seeded shuffling; bit-reproducible for a given seed. Each batch runs one
  forward pass over its anchor, positive and negative rows stacked together,
  then back-propagates one stacked batch of the active triplets only
  (inactive hinges have zero gradient). Results can differ in the last bits
  from versions that ran three per-stream passes; reruns stay
  byte-identical. Non-finite features are rejected. The optional output
  L2-normalization toggle affects inference (embeddings, centroids) only;
  training always optimizes the raw-output loss.
* re-identification: per-tracklet centroid embeddings, merge proposals for
  centroid pairs within a distance threshold that do not overlap in time
  (one individual cannot appear twice in a frame), separation statistics,
  and a deterministic 2-d PCA projection for scatter export. Separation
  statistics run each group pair on a pool of worker threads, in fixed row
  blocks, so their scratch memory is O(workers * (block * n * D + n^2)), not
  O(n^2 * D), and the worker count is capped so that this stays within a
  fixed budget (one worker always runs). The caller allocates all of it, so
  the workers allocate no array. Each distance is bit-identical to the plain
  broadcast formula, and the statistics are the same at any worker count.

Triplets interchange as JSON lines ``{"a": [id, frame], "p": ..., "n": ...}``;
a trained net as one MTENSOR per weight/bias plus a JSON manifest; scatter
plots as ``id,frame,x,y`` CSV.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _thread_count
from .errors import DataValidationError
from .jsonio import _echo, expect, expect_ints, read_json, read_jsonl, write_json, write_jsonl
from .tensor_io import read_tensor, write_tensor
from .tracklets import Tracklet, check_feature_rows, enumerate_keys, overlap_graph, temporal_overlap

OUT_DIM = 128
DEFAULT_HIDDEN = (512, 256)
DEFAULT_MERGE_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# feature table

class FeatureTable:
    """Binds a [T, D_in] feature matrix to tracklet (id, frame) keys.

    Row lookup uses each tracklet's explicit ``feature_rows`` when given
    (all tracklets must carry them consistently), else enumeration order:
    tracklet file order, frames ascending, which must then exactly fill the
    matrix.
    """

    def __init__(self, tracklets: Sequence[Tracklet], matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise DataValidationError(f"feature matrix must be [T, D], got shape {matrix.shape}")
        finite = np.isfinite(matrix)
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise DataValidationError(f"feature row {r} column {c} is not finite: {matrix[r, c]}")
        check_feature_rows(tracklets, "tracklets")
        index: dict[tuple[int, int], int] = {}
        if tracklets and tracklets[0].feature_rows is not None:
            for t in tracklets:
                for f, r in zip(t.frames, t.feature_rows):
                    if r >= len(matrix):
                        raise DataValidationError(
                            f"tracklet {t.id} frame {f}: feature row {r} outside matrix of {len(matrix)} rows"
                        )
                    index[(t.id, f)] = r
        else:
            keys = enumerate_keys(tracklets)
            if len(keys) != len(matrix):
                raise DataValidationError(
                    f"feature matrix has {len(matrix)} rows, tracklets enumerate {len(keys)} frames"
                )
            index = {k: i for i, k in enumerate(keys)}
        self._index = index
        self.matrix64 = matrix.astype(np.float64)

    @property
    def dim(self) -> int:
        return self.matrix64.shape[1]

    def rows(self, keys: Iterable[tuple[int, int]]) -> np.ndarray:
        """Feature rows of ``(tracklet id, frame)`` keys, in key order (intp array)."""
        try:
            return np.array([self._index[key] for key in keys], dtype=np.intp)
        except KeyError as exc:
            tracklet_id, frame = exc.args[0]
            raise DataValidationError(f"no feature row for tracklet {tracklet_id} frame {frame}") from None


def load_feature_table(tracklets: Sequence[Tracklet], path: str | Path) -> FeatureTable:
    matrix = read_tensor(path)
    try:
        return FeatureTable(tracklets, matrix)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# triplet mining

@dataclass(frozen=True)
class Triplet:
    """References into a feature table: each member is (tracklet id, frame)."""

    anchor: tuple[int, int]
    positive: tuple[int, int]
    negative: tuple[int, int]


def mine_triplets(tracklets: Sequence[Tracklet], rng_seed: int, per_anchor: int = 1) -> list[Triplet]:
    """Sample triplets from an already min-length-filtered tracklet set.

    Every frame of every tracklet anchors ``per_anchor`` triplets, skipping
    anchors whose tracklet overlaps no foreign tracklet in time. The
    positive is drawn uniformly from the anchor tracklet's other frames
    (the anchor itself only for single-frame tracklets); the negative
    uniformly from the pooled frames of all temporally overlapping
    tracklets. Deterministic for a given seed.
    """
    if per_anchor < 1:
        raise ValueError(f"per_anchor must be >= 1, got {per_anchor}")
    graph = overlap_graph(tracklets)
    by_id = {t.id: t for t in tracklets}
    rng = np.random.default_rng(rng_seed)
    triplets: list[Triplet] = []
    for t in tracklets:
        neighbor_ids = sorted(graph[t.id])
        neg_pool = [(nid, f) for nid in neighbor_ids for f in by_id[nid].frames]
        if not neg_pool:
            continue
        frames = list(t.frames)
        for pos_of_anchor, anchor_frame in enumerate(frames):
            for _ in range(per_anchor):
                if len(frames) >= 2:
                    # Uniform over the other frames: draw from len-1 slots
                    # and skip past the anchor's own position.
                    k = int(rng.integers(len(frames) - 1))
                    positive_frame = frames[k if k < pos_of_anchor else k + 1]
                else:
                    positive_frame = anchor_frame
                negative = neg_pool[int(rng.integers(len(neg_pool)))]
                triplets.append(
                    Triplet(
                        anchor=(t.id, anchor_frame),
                        positive=(t.id, positive_frame),
                        negative=negative,
                    )
                )
    return triplets


def _check_ref(raw, where: str) -> tuple[int, int]:
    if len(expect_ints(raw, where)) != 2:
        raise DataValidationError(f"{where}: expected [tracklet_id, frame], got {_echo(raw)}")
    return (raw[0], raw[1])


def load_triplets_jsonl(path: str | Path) -> list[Triplet]:
    out: list[Triplet] = []
    for where, record in read_jsonl(path):
        if not all(k in record for k in ("a", "p", "n")):
            raise DataValidationError(f"{where}: expected an object with keys a, p, n")
        out.append(
            Triplet(
                anchor=_check_ref(record["a"], f"{where}: a"),
                positive=_check_ref(record["p"], f"{where}: p"),
                negative=_check_ref(record["n"], f"{where}: n"),
            )
        )
    return out


def write_triplets_jsonl(triplets: Sequence[Triplet], path: str | Path) -> None:
    write_jsonl(
        ({"a": list(t.anchor), "p": list(t.positive), "n": list(t.negative)} for t in triplets), path
    )


# ---------------------------------------------------------------------------
# embedding network

@dataclass(eq=False)
class EmbeddingNet:
    """MLP encoder with explicit float32 weights.

    ``weights[l]`` has shape [d_(l+1), d_l]; hidden layers apply ReLU, the
    output layer is linear and always 128 wide.
    """

    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    normalize_output: bool = False

    def __post_init__(self) -> None:
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must be nonempty lists of equal length")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w)
            b = np.asarray(b)
            if w.dtype != np.float32 or b.dtype != np.float32:
                raise ValueError(f"layer {l}: weights and biases must be float32")
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {l}: weight {w.shape} and bias {b.shape} are inconsistent")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(
                    f"layer {l}: expects {w.shape[1]} inputs, previous layer emits "
                    f"{self.weights[l - 1].shape[0]}"
                )
            self.weights[l] = w
            self.biases[l] = b
        if self.weights[-1].shape[0] != OUT_DIM:
            raise ValueError(f"output dimension must be {OUT_DIM}, got {self.weights[-1].shape[0]}")

    @classmethod
    def init(
        cls,
        in_dim: int,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        seed: int = 0,
        normalize_output: bool = False,
    ) -> "EmbeddingNet":
        """Seeded uniform init, each layer on [-b, b] with b = 1/sqrt(fan_in), zero biases."""
        if in_dim < 1 or any(h < 1 for h in hidden):
            raise ValueError(f"layer widths must be positive, got in_dim={in_dim}, hidden={tuple(hidden)}")
        dims = [in_dim, *hidden, OUT_DIM]
        rng = np.random.default_rng(seed)
        weights = []
        biases = []
        for d_in, d_out in zip(dims, dims[1:]):
            bound = 1.0 / np.sqrt(d_in)
            weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)).astype(np.float32))
            biases.append(np.zeros(d_out, dtype=np.float32))
        return cls(weights=weights, biases=biases, normalize_output=normalize_output)

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def embed_batch(self, features: np.ndarray) -> np.ndarray:
        """Embed [B, D_in] rows to float64 [B, 128], honoring the normalize toggle."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.in_dim:
            raise ValueError(f"expected [B, {self.in_dim}] features, got shape {features.shape}")
        for out in _forward(params64(self), features):
            pass  # each layer's output replaces the last, so one is kept at a time
        if self.normalize_output:
            norms = np.linalg.norm(out, axis=1, keepdims=True)
            out = np.divide(out, norms, out=np.zeros_like(out), where=norms > 0)
        return out


def params64(net: EmbeddingNet) -> list[tuple[np.ndarray, np.ndarray]]:
    """The net's layers as float64 (weight, bias) pairs."""
    return [
        (w.astype(np.float64), b.astype(np.float64)) for w, b in zip(net.weights, net.biases)
    ]


def _forward(params, x: np.ndarray):
    # Yields each layer's output of float64 rows ``x``, the last one the
    # embedding; the bias and the hidden layers' ReLU are applied in place.
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        x = x @ w.T
        x += b
        if l < last:
            np.maximum(x, 0.0, out=x)
        yield x


def _stacked_forward(params, xa, xp, xn, margin: float):
    # One pass over the [3B, D] stack of anchor, positive and negative rows; returns
    # its activations (input first, embedding last) and the [B] hinge terms before the clamp.
    x = np.concatenate([xa, xp, xn], dtype=np.float64)
    acts = [x, *_forward(params, x)]
    ea, ep, en = np.split(acts[-1], 3)
    terms = np.sum((ea - ep) ** 2, axis=1) - np.sum((ea - en) ** 2, axis=1) + margin
    return acts, terms


def loss_on_params(params, xa, xp, xn, margin: float) -> float:
    """Mean hinge loss of a batch (the quantity training descends)."""
    return float(np.maximum(_stacked_forward(params, xa, xp, xn, margin)[1], 0.0).mean())


def gradients_on_params(params, xa, xp, xn, margin: float):
    """Analytic gradients of the mean batch loss.

    Returns (mean_loss, per_triplet_losses, grads) with grads a list of
    float64 (dW, db) per layer. Triplets whose hinge is inactive (loss
    term <= 0) contribute exact zeros, so only the active ones are
    back-propagated, as one stacked batch of their anchor, positive and
    negative rows.
    """
    acts, terms = _stacked_forward(params, xa, xp, xn, margin)
    losses = np.maximum(terms, 0.0)
    batch = len(losses)
    mean_loss = float(losses.mean()) if batch else 0.0
    act = np.flatnonzero(terms > 0.0)
    if len(act) == 0:
        return mean_loss, losses, [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    rows = np.concatenate([act, act + batch, act + 2 * batch])
    ea, ep, en = (e[act] for e in np.split(acts[-1], 3))
    g = (2.0 / batch) * np.concatenate([en - ep, ep - ea, ea - en])
    grads = [None] * len(params)
    for l in range(len(params) - 1, -1, -1):
        grads[l] = (g.T @ acts[l][rows], g.sum(axis=0))
        if l > 0:
            # ReLU subgradient: strictly positive pre-activations pass, 0 at 0.
            # A ReLU output is > 0 exactly where its pre-activation is.
            g = (g @ params[l][0]) * (acts[l][rows] > 0.0)
    return mean_loss, losses, grads


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    margin: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.margin > 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate}")


def train(
    net: EmbeddingNet,
    table: FeatureTable,
    triplets: Sequence[Triplet],
    config: TrainConfig,
) -> tuple[EmbeddingNet, list[float]]:
    """Mini-batch gradient descent on the triplet loss; returns (net, loss trace).

    The triplet order is reshuffled each epoch from a generator seeded with
    ``config.seed``; updates run in float64 and are stored back to the
    net's float32 weights once at the end. The trace holds each epoch's
    mean per-triplet loss, accumulated in a fixed order so it is invariant
    to the shuffle. A run whose final weights or losses are not finite
    float32 values raises ValueError and leaves the net unchanged.
    """
    if table.dim != net.in_dim:
        raise DataValidationError(f"net expects {net.in_dim}-d features, table holds {table.dim}-d")
    # [3, N] feature rows: anchors, positives, negatives.
    rows = np.array(
        [table.rows(t.anchor for t in triplets),
         table.rows(t.positive for t in triplets),
         table.rows(t.negative for t in triplets)],
    )
    x = table.matrix64

    params = params64(net)
    rng = np.random.default_rng(config.seed)
    count = len(triplets)
    trace: list[float] = []
    # A diverging run overflows mid-epoch; it is caught once, after the last epoch.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            if count == 0:
                trace.append(0.0)
                continue
            order = rng.permutation(count)
            epoch_losses = np.zeros(count, dtype=np.float64)
            for lo in range(0, count, config.batch_size):
                batch = order[lo : lo + config.batch_size]
                xa, xp, xn = x[rows[:, batch]]
                _, losses, grads = gradients_on_params(params, xa, xp, xn, config.margin)
                epoch_losses[batch] = losses
                # In place: the gradients are fresh arrays and params64 copied the net.
                for (w, b), (gw, gb) in zip(params, grads):
                    w -= np.multiply(gw, config.learning_rate, out=gw)
                    b -= np.multiply(gb, config.learning_rate, out=gb)
            trace.append(float(epoch_losses.sum() / count))
    # Reductions, not an elementwise test, so no weight-sized temporary is
    # allocated; NaN propagates through min and max and fails the test.
    limit = np.finfo(np.float32).max
    fits = all(-limit <= p.min() and p.max() <= limit for layer in params for p in layer)
    if not (fits and np.isfinite(trace).all()):
        raise ValueError(
            f"training diverged at learning_rate {config.learning_rate}: the weights or the loss "
            "are no longer finite float32 values"
        )
    for l, (w, b) in enumerate(params):
        net.weights[l] = w.astype(np.float32)
        net.biases[l] = b.astype(np.float32)
    return net, trace


# ---------------------------------------------------------------------------
# re-identification

def tracklet_embeddings(
    net: EmbeddingNet, tracklets: Sequence[Tracklet], table: FeatureTable
) -> dict[int, np.ndarray]:
    """Each tracklet's frame embeddings, keyed by id (float64 [frames, 128])."""
    return {t.id: net.embed_batch(table.matrix64[table.rows((t.id, f) for f in t.frames)]) for t in tracklets}


def tracklet_centroids(embeddings: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Mean of each tracklet's frame embeddings, as from ``tracklet_embeddings`` (float64 [128])."""
    return {tid: frames.mean(axis=0) for tid, frames in embeddings.items()}


# Rows of ``a`` per scratch block in ``_pair_distances``. At 300 samples of
# 128-d embeddings the [2, 300, 128] float64 buffer is 0.6 MB. On a 2-core Xeon
# with a 2 MB L2 per core, one 300x300 rectangle took a median 24.7, 22.7, 26.3
# and 30.3 ms at 1, 2, 4 and 8 rows.
_SEPARATION_BLOCK = 2

# All separation workers' scratch together, in bytes, so the peak memory does
# not grow with the core count. At 300 samples per identity a worker holds
# 1.3 MB, so 3 fit, and the benchmark's reid_train peak RSS stayed within
# 1.6 MiB of one worker's at 2 to 16 threads.
_SEPARATION_SCRATCH_BYTES = 4 << 20


def _pair_distances(a: np.ndarray, b: np.ndarray, buf=None, out=None) -> np.ndarray:
    """Euclidean distances [len(a), len(b)] between the rows of two float64 matrices.

    Same arithmetic, and so the same floats, as
    ``np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))``, but
    computed ``_SEPARATION_BLOCK`` rows of ``a`` at a time in one reused
    [block, len(b), D] buffer instead of one [len(a), len(b), D] temporary.
    Given a flat float64 ``buf`` of at least ``block * b.size`` elements and a
    C-contiguous [len(a), len(b)] ``out``, it allocates no array.
    """
    if out is None:
        out = np.empty((len(a), len(b)), dtype=np.float64)
    if buf is None:
        buf = np.empty(min(_SEPARATION_BLOCK, len(a)) * b.size, dtype=np.float64)
    for lo in range(0, len(a), _SEPARATION_BLOCK):
        rows = a[lo : lo + _SEPARATION_BLOCK]
        part = buf[: len(rows) * b.size].reshape(len(rows), *b.shape)
        dist = out[lo : lo + len(rows)]
        np.subtract(rows[:, None, :], b[None, :, :], out=part)
        np.square(part, out=part)
        np.add.reduce(part, axis=2, out=dist)
        np.sqrt(dist, out=dist)
    return out


def _separation_workers(blocks: int, scratch_bytes: int) -> int:
    """Worker count: MOTIONSTACK_THREADS when set, else the CPUs this process may run on.

    Never more than ``blocks``, nor more workers of ``scratch_bytes`` each than
    ``_SEPARATION_SCRATCH_BYTES`` holds, but always at least one.
    """
    threads = _thread_count(os.environ.get("MOTIONSTACK_THREADS", ""))
    if threads < 1:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(threads, blocks, _SEPARATION_SCRATCH_BYTES // scratch_bytes))


def separation_metrics(groups: Mapping[object, Sequence[np.ndarray]]) -> dict:
    """Pooled pairwise-distance statistics over identity groups.

    ``intra_mean`` averages distances within groups of at least two
    samples; ``inter_mean`` averages distances across distinct groups;
    ``ratio`` is their quotient, defined as 0 for the degenerate inter == 0
    case. At least two identities are required.

    Each intra-group triangle and each inter-group rectangle is one block,
    summed on a pool of ``_separation_workers`` threads into its own slot;
    the slots are added in key order, so the result does not depend on the
    worker count.
    """
    keys = list(groups.keys())
    if len(keys) < 2:
        raise DataValidationError(f"separation metrics need >= 2 identities, got {len(keys)}")
    vecs = [np.asarray(np.stack(groups[k]), dtype=np.float64) for k in keys]
    intra = [(v, v) for v in vecs if len(v) >= 2]
    blocks = intra + [(a, b) for i, a in enumerate(vecs) for b in vecs[i + 1 :]]
    sums = [0.0] * len(blocks)
    # Every worker's scratch is allocated here: a worker only runs out= ufuncs into it,
    # so no thread's allocator arena keeps freed buffers resident. ``flat`` holds any
    # block's distances: a rectangle, or a triangle's upper half row by row.
    n = max(len(v) for v in vecs)
    buf_size = min(_SEPARATION_BLOCK, n) * n * vecs[0].shape[1]
    workers = _separation_workers(len(blocks), 8 * (buf_size + n * n))
    scratch = [
        (np.empty(buf_size, dtype=np.float64), np.empty(n * n, dtype=np.float64)) for _ in range(workers)
    ]

    def work(worker: int) -> None:
        buf, flat = scratch[worker]
        for i in range(worker, len(blocks), workers):
            a, b = blocks[i]
            if i < len(intra):
                # Row r's distances to rows r+1.. only: the upper triangle in np.triu_indices order.
                dist = flat[: len(a) * (len(a) - 1) // 2]
                end = 0
                for r in range(len(a) - 1):
                    start, end = end, end + len(a) - 1 - r
                    _pair_distances(a[r : r + 1], a[r + 1 :], buf, dist[start:end].reshape(1, -1))
            else:
                dist = _pair_distances(a, b, buf, flat[: len(a) * len(b)].reshape(len(a), len(b)))
            sums[i] = float(dist.sum())

    if workers == 1:
        work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool pays for the import

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(work, range(workers)))  # re-raises a worker's exception here

    # Left to right, as one running sum: sum() compensates the rounding on Python 3.12+.
    intra_sum = 0.0
    for s in sums[: len(intra)]:
        intra_sum += s
    inter_sum = 0.0
    for s in sums[len(intra) :]:
        inter_sum += s
    intra_count = sum(len(v) * (len(v) - 1) // 2 for v, _ in intra)
    inter_count = sum(len(a) * len(b) for a, b in blocks[len(intra) :])

    intra_mean = intra_sum / intra_count if intra_count else 0.0
    inter_mean = inter_sum / inter_count if inter_count else 0.0
    ratio = intra_mean / inter_mean if inter_mean > 0 else 0.0
    return {"intra_mean": intra_mean, "inter_mean": inter_mean, "ratio": ratio}


def propose_merges(
    centroids: Mapping[int, np.ndarray],
    tracklets: Sequence[Tracklet],
    threshold: float = DEFAULT_MERGE_THRESHOLD,
) -> list[tuple[int, int]]:
    """Candidate same-individual pairs, sorted by ascending centroid distance.

    A pair qualifies when its centroid distance is at most ``threshold``
    and the two tracklets do not overlap in time (a single individual
    cannot appear twice in one frame).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    by_id = {t.id: t for t in tracklets}
    for tid in centroids:
        if tid not in by_id:
            raise DataValidationError(f"centroid for unknown tracklet id {tid}")
    ids = sorted(centroids.keys())
    scored: list[tuple[float, int, int]] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if temporal_overlap(by_id[a], by_id[b]):
                continue
            dist = float(np.linalg.norm(np.asarray(centroids[a]) - np.asarray(centroids[b])))
            if dist <= threshold:
                scored.append((dist, a, b))
    scored.sort()
    return [(a, b) for _, a, b in scored]


# ---------------------------------------------------------------------------
# projection

def pca_project_2d(embeddings: np.ndarray) -> np.ndarray:
    """Mean-centered projection onto the top-2 principal directions.

    Sign convention: each component's largest-magnitude loading is
    positive. Rank-deficient data pads the missing coordinate with zeros.
    Requires at least 2 samples.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise DataValidationError(f"embeddings must be [N, D], got shape {embeddings.shape}")
    if len(embeddings) < 2:
        raise DataValidationError(f"projection needs >= 2 samples, got {len(embeddings)}")
    centered = embeddings - embeddings.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    coords = np.zeros((len(embeddings), 2), dtype=np.float64)
    for c in range(min(2, vt.shape[0])):
        component = vt[c]
        if component[np.argmax(np.abs(component))] < 0:
            component = -component
        coords[:, c] = centered @ component
    return coords


def write_scatter_csv(
    keys: Sequence[tuple[int, int]], coords: np.ndarray, path: str | Path
) -> None:
    """Export projected points as ``id,frame,x,y`` CSV rows."""
    coords = np.asarray(coords)
    if len(keys) != len(coords):
        raise ValueError(f"{len(keys)} keys for {len(coords)} points")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "frame", "x", "y"])
        for (tid, frame), (px, py) in zip(keys, coords):
            writer.writerow([tid, frame, repr(float(px)), repr(float(py))])


# ---------------------------------------------------------------------------
# net serialization

NET_MANIFEST_NAME = "net.json"


def save_net(net: EmbeddingNet, out_dir: str | Path) -> Path:
    """Write one MTENSOR per weight/bias plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    layers = []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        weight_name = f"layer{l}.weight.mten"
        bias_name = f"layer{l}.bias.mten"
        write_tensor(w, out_dir / weight_name)
        write_tensor(b, out_dir / bias_name)
        layers.append({"weight": weight_name, "bias": bias_name})
    manifest = {
        "layer_dims": net.layer_dims,
        "normalize_output": net.normalize_output,
        "layers": layers,
    }
    manifest_path = out_dir / NET_MANIFEST_NAME
    write_json(manifest, manifest_path)
    return manifest_path


def load_net(manifest_path: str | Path) -> EmbeddingNet:
    """Read a net saved by ``save_net``; tensor paths resolve next to the manifest."""
    manifest_path = Path(manifest_path)
    manifest = expect(read_json(manifest_path), dict, str(manifest_path))
    base = manifest_path.parent
    weights = []
    biases = []
    for l, entry in enumerate(expect(manifest.get("layers"), list, f"{manifest_path}: layers")):
        expect(entry, dict, f"{manifest_path}: layers[{l}]")
        for key, tensors in (("weight", weights), ("bias", biases)):
            name = expect(entry.get(key), str, f"{manifest_path}: layers[{l}].{key}")
            tensors.append(read_tensor(base / name))
            if not np.isfinite(tensors[-1]).all():
                raise DataValidationError(f"{manifest_path}: layers[{l}].{key} is not finite")
    normalize_output = manifest.get("normalize_output", False)
    expect(normalize_output, bool, f"{manifest_path}: normalize_output")
    try:
        net = EmbeddingNet(weights=weights, biases=biases, normalize_output=normalize_output)
    except ValueError as exc:
        raise DataValidationError(f"{manifest_path}: {exc}") from exc
    declared = manifest.get("layer_dims")
    if declared is not None and expect(declared, list, f"{manifest_path}: layer_dims") != net.layer_dims:
        raise DataValidationError(
            f"{manifest_path}: declares layer_dims {_echo(declared)}, tensors give {net.layer_dims}"
        )
    return net
