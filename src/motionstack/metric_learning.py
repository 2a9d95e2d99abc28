"""Triplet-loss metric learning over tracklet features.

The pieces, in pipeline order:

* mining: every frame of every (already length-filtered) tracklet serves as
  an anchor; positives come from other frames of the anchor's own tracklet,
  negatives uniformly from all frames of tracklets with a different id that
  temporally overlap the anchor's, pooled in ascending id order. Anchors with
  no overlapping foreign tracklet are skipped.
* encoder: an MLP [D_in, 512, 256, 128] (hidden widths configurable, the
  128-d output fixed), affine -> ReLU -> affine -> ReLU -> affine, weights
  stored float32. Its arithmetic is in its inputs' dtype: float32 in
  training and inference, on the float32 features as the file holds them.
* loss: hinge on squared Euclidean distances,
  ``max(0, |ea-ep|^2 - |ea-en|^2 + margin)``, margin 1.0 by default.
* training: plain mini-batch gradient descent with analytic gradients and
  seeded shuffling; bit-reproducible for a given seed. Each batch runs one
  forward pass over its anchor, positive and negative rows stacked together,
  then back-propagates one stacked batch of the active triplets only
  (inactive hinges have zero gradient). A batch with no active hinge has no
  gradient set and so no update, and each batch's gradients are released
  before the next batch's are computed, so at most one gradient set is
  alive at a time. Results can differ in the last bits
  from versions that ran three per-stream passes; reruns stay
  byte-identical. Non-finite features are rejected. The optional output
  L2-normalization toggle affects inference (embeddings, centroids) only;
  training always optimizes the raw-output loss.
* re-identification: every frame embedded into one float32 matrix, each
  tracklet in blocks of at most 128 of its own rows, a net whose embeddings
  overflow float32 rejected; per-tracklet centroid embeddings, merge
  proposals for centroid pairs within a distance threshold that do not
  overlap in time (one individual cannot appear twice in a frame),
  separation statistics, and a deterministic 2-d PCA projection for scatter
  export, from the SVD of a QR factor built a block of centered rows at a
  time. Centroids, separation statistics and the projection compute in
  float64, widening the float32 embeddings a group or a block of rows at a
  time, so they give the bits of a float64 matrix without holding one.
  Separation statistics take distances from one BLAS product per block of
  rows, with cancelling pairs recomputed directly, in O(block) scratch
  memory, and add the row sums with ``math.fsum``, so the block size does
  not change how the distances are added.

Tracklets arrive as ``tracklets.Tracklets`` columns. (tracklet id, frame) keys
have one format, an int64 [..., 2] array: ``enumerate_keys``' [F, 2] keys, and
triplets' [T, 3, 2] keys (anchor, positive, negative) from mining through
training. ``FeatureTable.rows``, the one key-to-row lookup, maps a whole key
array with array arithmetic over the start, end and ``firsts`` columns.
Triplets interchange as JSON lines ``{"a": [id, frame], "p": ..., "n": ...}``,
read through ``jsonio.read_records`` with each key of kind ``"int pair"``; a
trained net as one MTENSOR per weight/bias plus a JSON manifest; scatter
plots as ``id,frame,x,y`` CSV, written from the key array through a line
template with the bytes ``csv.writer`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, array_rows, expect, read_json, read_records, write_json, write_lines
from .tensor_io import read_tensor, write_tensor
from .tracklets import Tracklets, enumerate_keys, temporal_overlap

OUT_DIM = 128
DEFAULT_HIDDEN = (512, 256)
DEFAULT_MERGE_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# feature table

class FeatureTable:
    """Binds a [T, D_in] feature matrix, held as float32 ``matrix``, to tracklet (id, frame) keys.

    Row lookup uses the tracklets' ``feature_rows`` column when they carry one,
    else enumeration order: file order, frames ascending, which must then fill
    the matrix. Tracklets that ``Tracklets.check_rules`` refuses raise ``DataValidationError``.

    The table keeps one dict entry per tracklet, its id, and the tracklets'
    start, end and ``firsts`` columns, so ``rows`` resolves a key array
    with array arithmetic and builds no object per key.
    """

    def __init__(self, tracklets: Tracklets, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float32)  # no copy of a float32 file
        if matrix.ndim != 2:
            raise DataValidationError(f"feature matrix must be [T, D], got shape {matrix.shape}")
        finite = np.isfinite(matrix)
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise DataValidationError(f"feature row {r} column {c} is not finite: {matrix[r, c]}")
        tracklets.check_rules(DataValidationError)
        # Slot s holds tracklets[s]; the last slot, with no frames, is where an unknown id goes.
        self._slots = dict(zip(tracklets.id.tolist(), range(len(tracklets))))
        self._starts = np.append(tracklets.start, 0)
        self._ends = np.append(tracklets.end, -1)
        self._firsts = tracklets.firsts
        self._rows = None  # enumeration order: the rows are the enumeration positions
        rows = tracklets.feature_rows
        if rows is not None:
            outside = rows >= len(matrix)
            if outside.any():
                i = int(np.argmax(outside))
                where = tracklets.entry_of("feature_rows", i)
                raise DataValidationError(f"{where}: feature row {rows[i]} outside matrix of {len(matrix)} rows")
            self._rows = rows.astype(np.intp)
        elif self._firsts[-1] != len(matrix):
            raise DataValidationError(
                f"feature matrix has {len(matrix)} rows, tracklets enumerate {self._firsts[-1]} frames"
            )
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self, keys: np.ndarray | Iterable[Sequence[int]]) -> np.ndarray:
        """Feature rows of ``(tracklet id, frame)`` keys, in key order (intp array).

        ``keys`` is an int64 [N, 2] array, or any sequence of pairs, which is
        converted to one. A key the table lacks raises ``DataValidationError``
        naming the first, with its index in ``keys`` as the error's ``position``.
        """
        if not isinstance(keys, np.ndarray):
            keys = np.array(list(keys), dtype=np.int64).reshape(-1, 2)
        ids, inverse = np.unique(keys[:, 0], return_inverse=True)
        slots = np.array([self._slots.get(i, -1) for i in ids.tolist()], dtype=np.intp)[inverse]
        starts = self._starts[slots]
        frames = keys[:, 1]
        # Comparisons first: a difference of int64 keys that are not in the table could wrap.
        found = (frames >= starts) & (frames <= self._ends[slots])
        if not found.all():
            k = int(np.argmin(found))
            exc = DataValidationError("no feature row for tracklet %s frame %s" % tuple(map(_echo, keys[k].tolist())))
            exc.position = k
            raise exc
        rows = self._firsts[slots] + (frames - starts).astype(np.intp)
        return rows if self._rows is None else self._rows[rows]


def load_feature_table(tracklets: Tracklets, path: str | Path) -> FeatureTable:
    matrix = read_tensor(path)
    try:
        return FeatureTable(tracklets, matrix)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# triplet mining

def mine_triplets(tracklets: Tracklets, rng_seed: int, per_anchor: int = 1) -> np.ndarray:
    """Sample triplets from an already min-length-filtered tracklet set.

    Every frame of every tracklet anchors ``per_anchor`` triplets, skipping
    anchors whose tracklet overlaps no foreign tracklet in time. The
    positive is drawn uniformly from the anchor tracklet's other frames
    (the anchor itself only for single-frame tracklets); the negative
    uniformly from the pooled frames of all temporally overlapping
    tracklets of another id, in ascending id order. Anchors are visited
    tracklet by tracklet, in file order. Deterministic for a given seed.
    Returns the triplets' [T, 3, 2] keys, as ``load_triplets_jsonl`` does.
    """
    if per_anchor < 1:
        raise ValueError(f"per_anchor must be >= 1, got {per_anchor}")
    keys = enumerate_keys(tracklets)
    by_id = np.argsort(tracklets.id, kind="stable")
    rng = np.random.default_rng(rng_seed)
    rows = [np.empty((0, 3), dtype=np.intp)]
    for pos, t in enumerate(tracklets):
        foreign = (temporal_overlap(t, tracklets) & (tracklets.id != t.id))[by_id]
        if not foreign.any():
            continue  # the tracklet appears in no triplet
        own = np.arange(tracklets.firsts[pos], tracklets.firsts[pos + 1])
        pool = tracklets.rows_of(by_id[foreign])
        anchor = np.repeat(np.arange(len(own)), per_anchor)
        if len(own) >= 2:
            # A positive then a negative draw per triplet, the stream of one scalar draw at
            # a time. A positive from len-1 slots skips past the anchor's own position.
            k, negative = rng.integers(np.tile([len(own) - 1, len(pool)], len(anchor))).reshape(-1, 2).T
            positive = k + (k >= anchor)
        else:
            positive, negative = anchor, rng.integers(len(pool), size=len(anchor))
        rows.append(np.stack([own[anchor], own[positive], pool[negative]], axis=1))
    return keys[np.concatenate(rows)]


def load_triplets_jsonl(path: str | Path) -> np.ndarray:
    columns = read_records(path, {"a": "int pair", "p": "int pair", "n": "int pair"})
    return np.stack([columns["a"], columns["p"], columns["n"]], axis=1)


def write_triplets_jsonl(triplets: np.ndarray, path: str | Path) -> None:
    write_lines(
        '{"a": [%d, %d], "p": [%d, %d], "n": [%d, %d]}\n', array_rows(*triplets.reshape(-1, 6).T), path
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
        """Embed [B, D_in] rows to [B, 128], honoring the normalize toggle.

        The arithmetic is in the dtype of the rows and the float32 weights:
        float32 for float32 rows, float64 for float64 rows.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.in_dim:
            raise ValueError(f"expected [B, {self.in_dim}] features, got shape {features.shape}")
        for out in _forward(list(zip(self.weights, self.biases)), features):
            pass  # each layer's output replaces the last, so one is kept at a time
        if self.normalize_output:
            norms = np.linalg.norm(out, axis=1, keepdims=True)
            out = np.divide(out, norms, out=np.zeros_like(out), where=norms > 0)
            out[np.isinf(norms[:, 0])] = np.nan  # a norm past the dtype's range would scale its row to 0
        return out


def _forward(params, x: np.ndarray):
    # Yields each layer's output of rows ``x``, the last one the embedding, in the dtype of
    # ``x`` and the (weight, bias) ``params``; the bias and the hidden layers' ReLU are applied in place.
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        x = x @ w.T
        x += b
        if l < last:
            np.maximum(x, 0.0, out=x)
        yield x


def gradients_on_params(params, xa, xp, xn, margin: float):
    """Analytic gradients of the mean batch loss.

    Returns (mean_loss, per_triplet_losses, grads) with grads a list of
    (dW, db) per layer, from one forward pass over the [3B, D] stack of
    anchor, positive and negative rows. The arithmetic is in the dtype of
    the rows and the params: float32 when both are float32, as in ``train``.
    Triplets whose hinge is inactive (loss term <= 0) contribute exact
    zeros, so only the active ones are back-propagated, as one stacked
    batch of their rows. A batch with no
    active hinge has an all-zero gradient, and grads is then the empty list.
    """
    acts = [np.concatenate([xa, xp, xn])]
    acts += _forward(params, acts[0])  # input first, embedding last
    ea, ep, en = np.split(acts.pop(), 3)
    terms = np.sum((ea - ep) ** 2, axis=1) - np.sum((ea - en) ** 2, axis=1) + margin
    losses = np.maximum(terms, 0.0)
    batch = len(losses)
    mean_loss = float(losses.mean()) if batch else 0.0
    act = np.flatnonzero(terms > 0.0)
    if len(act) == 0:
        return mean_loss, losses, []
    rows = np.concatenate([act, act + batch, act + 2 * batch])
    ea, ep, en = ea[act], ep[act], en[act]
    g = (2.0 / batch) * np.concatenate([en - ep, ep - ea, ea - en])
    grads = [None] * len(params)
    for l in range(len(params) - 1, -1, -1):
        a = acts.pop()[rows]  # layer l's input, active rows only; the whole activation is released
        grads[l] = (g.T @ a, g.sum(axis=0))
        if l > 0:
            # ReLU subgradient: strictly positive pre-activations pass, 0 at 0.
            # A ReLU output is > 0 exactly where its pre-activation is.
            g = g @ params[l][0]
            g *= a > 0.0
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
        if not 0.0 <= self.learning_rate < math.inf:  # so a zero gradient leaves a weight as it is
            raise ValueError(f"learning_rate must be finite and nonnegative, got {self.learning_rate}")


def train(
    net: EmbeddingNet,
    table: FeatureTable,
    triplets: np.ndarray,
    config: TrainConfig,
) -> tuple[EmbeddingNet, list[float]]:
    """Mini-batch gradient descent on the triplet loss over [T, 3, 2] keys; returns (net, loss trace).

    The triplet order is reshuffled each epoch from a generator seeded with
    ``config.seed``. The arithmetic and the updates are float32, on copies
    of the net's weights that replace them at the end. The trace holds each
    epoch's mean per-triplet loss, accumulated in a fixed order so it is
    invariant to the shuffle. An epoch whose loss sum is exactly 0 moved no
    weight, so every later epoch would repeat it: training stops there, and
    the trace repeats that epoch's value. A run whose final weights or
    losses are not finite float32 values raises ValueError and leaves the
    net unchanged.
    """
    if table.dim != net.in_dim:
        raise DataValidationError(f"net expects {net.in_dim}-d features, table holds {table.dim}-d")
    # [3, N] feature rows: anchors, positives, negatives, resolved in file order in one lookup, so a
    # missing key is the first one a reader of the file meets, at ``position`` 3 * triplet + (0, 1, 2).
    rows = table.rows(triplets.reshape(-1, 2)).reshape(-1, 3).T
    x = table.matrix
    params = [(w.copy(), b.copy()) for w, b in zip(net.weights, net.biases)]
    rng = np.random.default_rng(config.seed)
    count = len(triplets)
    trace: list[float] = []
    # A diverging run overflows mid-epoch; it is caught once, after the last epoch.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(count)
            epoch_losses = np.zeros(count, dtype=np.float64)
            for lo in range(0, count, config.batch_size):
                batch = order[lo : lo + config.batch_size]
                xa, xp, xn = x[rows[:, batch]]
                _, losses, grads = gradients_on_params(params, xa, xp, xn, config.margin)
                epoch_losses[batch] = losses
                # In place (the gradients are fresh, params copy the net); an idle batch has none.
                for (w, b), (gw, gb) in zip(params, grads):
                    w -= np.multiply(gw, config.learning_rate, out=gw)
                    b -= np.multiply(gb, config.learning_rate, out=gb)
                del grads  # before the next batch's, so one gradient set is alive at a time
            total = epoch_losses.sum()
            trace.append(float(total / max(count, 1)))
            if total == 0.0:  # no hinge was active, so no weight moved: every later epoch repeats this one
                trace += trace[-1:] * (config.epochs - len(trace))
                break
    # Reductions, not an elementwise test, so no weight-sized temporary is
    # allocated; NaN propagates through min and max and fails the test.
    limit = np.finfo(np.float32).max
    fits = all(-limit <= p.min() and p.max() <= limit for layer in params for p in layer)
    if not (fits and np.isfinite(trace).all()):
        raise ValueError(
            f"training diverged at learning_rate {config.learning_rate}: the weights or the loss "
            "are no longer finite float32 values"
        )
    net.weights[:], net.biases[:] = zip(*params)
    return net, trace


# ---------------------------------------------------------------------------
# re-identification

def tracklet_embeddings(
    net: EmbeddingNet, tracklets: Tracklets, table: FeatureTable
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Every frame's embedding, held once: (matrix, views by tracklet id).

    ``matrix`` is float32 [frames, 128] in ``enumerate_keys`` order, the dtype
    the net computes in, and each view is that tracklet's [frames, 128] slice
    of it. Each tracklet is embedded from its slice of one ``table.rows``
    lookup, in the fewest near-equal blocks of at most ``_EMBED_BLOCK_ROWS``
    of its own rows, straight into the matrix: the hidden layers held are one
    block's, however long the tracklet. A split tracklet's blocks hold 64 rows
    or more, never the few-row products that BLAS may round differently, so
    each view has the bits ``embed_batch`` gives all that tracklet's rows. A
    block that is not finite, from a net whose values overflow float32, raises
    ``DataValidationError`` naming its tracklet.
    """
    rows = table.rows(enumerate_keys(tracklets))
    matrix = np.empty((len(rows), OUT_DIM), dtype=np.float32)
    views: dict[int, np.ndarray] = {}
    for tid, lo, hi in zip(tracklets.id.tolist(), tracklets.firsts[:-1].tolist(), tracklets.firsts[1:].tolist()):
        views[tid] = matrix[lo:hi]
        blocks = max(1, -(-(hi - lo) // _EMBED_BLOCK_ROWS))
        edges = [lo + (hi - lo) * k // blocks for k in range(blocks + 1)]
        for a, b in zip(edges, edges[1:]):
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or nan, checked next
                matrix[a:b] = net.embed_batch(table.matrix[rows[a:b]])
            if not np.isfinite(matrix[a:b]).all():
                raise DataValidationError(f"tracklet {tid}: embeddings are not finite, the net overflows float32")
    return matrix, views


def tracklet_centroids(embeddings: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Float64 [128] mean of each tracklet's frame embeddings, the bits of averaging them widened."""
    return {tid: frames.mean(axis=0, dtype=np.float64) for tid, frames in embeddings.items()}


# Bytes of one block's [rows, len(b)] float64 distances in ``_distance_blocks``. A
# block also holds its norms (the same size), its mask and the flat indices of its
# cancelled pairs (at most the same size), and one recompute chunk fits the budget.
# At 300 samples per identity a whole group fits one block; at 3,000 a block is 43 rows.
_SEPARATION_BLOCK_BYTES = 1 << 20


def _distance_blocks(a: np.ndarray, b: np.ndarray, a2: np.ndarray | None = None, b2: np.ndarray | None = None):
    """Yield (first row, [rows, len(b)] Euclidean distances) for whole-row blocks of ``a``.

    ``a2`` and ``b2`` are the rows' squared norms, computed here if not given.
    The distances are float64: ``b`` is widened once, ``a`` a block of rows at
    a time. Squared distances come from the Gram expansion
    ``|a|^2 + |b|^2 - 2 a.b``, one BLAS product per block. Where that cancels,
    ``d2 < 1e-2 * (|a|^2 + |b|^2)``, the pair is recomputed as
    ``sum((a_i - b_j)**2)``, so coincident rows are exactly 0 and a kept pair
    is accurate to about 4e-13 relative.
    """
    a2 = _squared_norms(a) if a2 is None else a2
    b2 = _squared_norms(b) if b2 is None else b2
    wide_b = b.astype(np.float64, copy=False)
    wide_a = wide_b if a is b else a
    step = max(1, _SEPARATION_BLOCK_BYTES // (8 * len(b)))
    # A recompute chunk holds its [pairs, D] differences, the [pairs, D] rows of b
    # taken from them and the [pairs] sums, together inside the block budget.
    pairs = max(1, _SEPARATION_BLOCK_BYTES // (8 * (2 * b.shape[1] + 1)))
    for lo in range(0, len(a), step):
        rows = wide_a[lo : lo + step].astype(np.float64, copy=False)
        d2 = rows @ wide_b.T
        d2 *= -2.0
        norms = a2[lo : lo + step, None] + b2
        d2 += norms
        # Every d2 < 0 cancels too, as norms >= 0, so no distance comes out negative.
        cancelled = d2 < np.multiply(norms, 1e-2, out=norms)
        del norms
        if cancelled.any():  # most blocks between two groups have no such pair
            _recompute(d2, rows, wide_b, np.flatnonzero(cancelled), pairs)
        del cancelled, rows
        yield lo, np.sqrt(d2, out=d2)
        del d2  # the consumer has summed it: no spent block is held through the next product


def _squared_norms(x: np.ndarray) -> np.ndarray:
    # Each row's float64 sum of squares, squaring a budget of rows at a time: each row is summed
    # alone, so the bits are those of squaring ``x`` whole, without its [n, D] temporary.
    step = max(1, _SEPARATION_BLOCK_BYTES // (8 * max(1, x.shape[1])))
    blocks = (np.square(x[lo : lo + step], dtype=np.float64).sum(axis=1) for lo in range(0, len(x), step))
    return np.concatenate([np.empty(0), *blocks])


def _recompute(d2: np.ndarray, rows: np.ndarray, b: np.ndarray, flat: np.ndarray, pairs: int) -> None:
    """Set the flat entries ``flat`` of ``d2`` to ``sum((rows[r] - b[c])**2)``, ``pairs`` at a time."""
    for s in range(0, len(flat), pairs):  # in chunks, so no scratch grows with the pair count
        r, c = np.divmod(flat[s : s + pairs], len(b))
        diff = rows[r]
        diff -= b[c]
        d2[r, c] = np.square(diff, out=diff).sum(axis=1)
        del diff  # before the next chunk's is gathered


def _row_sums(a, b, upper: bool):
    """Yield each row's sum of distances from group ``a`` to group ``b``, block by block.

    Each group is a (rows, squared norms) pair. With ``upper`` (``a`` is
    ``b``), row r sums only its distances to rows r+1..: the lower triangle
    of each block is zeroed in place.
    """
    (a, a2), (b, b2) = a, b
    for lo, dist in _distance_blocks(a, b, a2, b2):
        if upper:
            dist[np.tri(*dist.shape, lo, dtype=bool)] = 0.0
        sums = dist.sum(axis=1).tolist()
        del dist  # dropped before the next block is computed
        yield from sums


def separation_metrics(groups: Mapping[object, Sequence[np.ndarray]]) -> dict:
    """Pooled pairwise-distance statistics over identity groups.

    ``intra_mean`` averages distances within groups of at least two
    samples; ``inter_mean`` averages distances across distinct groups;
    ``ratio`` is their quotient, defined as 0 for the degenerate inter == 0
    case. At least two identities are required.

    Each group stays in its own dtype, and its squared norms are computed
    once. The float64 distances come from ``_distance_blocks``, which widens
    one group and one block of rows at a time, so float32 groups give the bits
    of their float64 widening. They are within rel 1e-12 of the direct
    formula, and a distance between coincident samples is exactly 0. Each
    row's distances are summed with ``np.sum``, and all row sums with one
    correctly rounded ``math.fsum`` per mean, so the block size does not
    change how the distances are added, and reruns are bit-identical. BLAS
    may round a product differently at another block shape or thread count
    (a one-row block goes through gemv), which can move a mean by its last
    bit.
    """
    keys = list(groups.keys())
    if len(keys) < 2:
        raise DataValidationError(f"separation metrics need >= 2 identities, got {len(keys)}")
    vecs = [np.asarray(groups[k]) for k in keys]
    intra_count = sum(len(v) * (len(v) - 1) // 2 for v in vecs)
    inter_count = sum(len(a) * len(b) for i, a in enumerate(vecs) for b in vecs[i + 1 :])
    normed = [(v, _squared_norms(v)) for v in vecs]
    # fsum takes the row sums as they come, so no list grows with the rows or the groups, and
    # each pair's generator has ended, its last block dropped, before the next pair's begins.
    intra_sum = math.fsum(chain.from_iterable(_row_sums(a, a, upper=True) for a in normed))
    inter_sum = math.fsum(
        chain.from_iterable(_row_sums(a, b, upper=False) for i, a in enumerate(normed) for b in normed[i + 1 :])
    )
    intra_mean = intra_sum / intra_count if intra_count else 0.0
    inter_mean = inter_sum / inter_count if inter_count else 0.0
    ratio = intra_mean / inter_mean if inter_mean > 0 else 0.0
    return {"intra_mean": intra_mean, "inter_mean": inter_mean, "ratio": ratio}


def propose_merges(
    centroids: Mapping[int, np.ndarray],
    tracklets: Tracklets,
    threshold: float = DEFAULT_MERGE_THRESHOLD,
) -> list[tuple[int, int]]:
    """Candidate same-individual pairs, sorted by ascending centroid distance.

    A pair qualifies when its centroid distance is at most ``threshold``
    and the two tracklets do not overlap in time (a single individual
    cannot appear twice in one frame).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    position = {tid: pos for pos, tid in enumerate(tracklets.id.tolist())}
    for tid in centroids:
        if tid not in position:
            raise DataValidationError(f"centroid for unknown tracklet id {tid}")
    ids = sorted(centroids.keys())
    scored: list[tuple[float, int, int]] = []
    for i, a in enumerate(ids):
        overlaps = temporal_overlap(tracklets[position[a]], tracklets)
        for b in ids[i + 1 :]:
            if overlaps[position[b]]:
                continue
            dist = float(np.linalg.norm(np.asarray(centroids[a]) - np.asarray(centroids[b])))
            if dist <= threshold:
                scored.append((dist, a, b))
    scored.sort()
    return [(a, b) for _, a, b in scored]


# ---------------------------------------------------------------------------
# projection

# Centered rows per step of ``pca_project_2d``'s blocked QR. A step holds about four
# [rows + D, D] float64 arrays: 2.6 MB at D = 128, below the 3.7 MB copy that
# factoring 3,600 x 128 points whole would take.
_PCA_BLOCK_ROWS = 512

# Most rows per block of ``tracklet_embeddings``' forward pass. One 128-row block's
# 512- and 256-wide float32 hidden layers take 0.375 MiB, where a whole 4,096-frame
# tracklet's take 12 MiB.
_EMBED_BLOCK_ROWS = 128


def pca_project_2d(points: np.ndarray) -> np.ndarray:
    """Mean-centered projection of [N, D] ``points`` onto their top-2 principal directions.

    Each component's largest-magnitude loading is positive, rank-deficient
    data pads the missing coordinate with zeros, and at least 2 samples are
    required. ``points`` is read, never written, in its own dtype: the mean
    is taken in float64, and each block of rows is widened as it is centered,
    so float32 points give the bits of their float64 widening without a
    float64 copy of them all. The directions come from the SVD of the
    centered points' QR factor R, built ``_PCA_BLOCK_ROWS`` centered rows at
    a time under the last R (TSQR), so neither Q, U nor a copy of the points
    is formed. LAPACK's ``dgesdd`` takes that QR-first route itself when
    N >= 11/6 D, so such data of one block gives the direct SVD's bits; more
    rows, or shorter data, can differ in the last bits.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise DataValidationError(f"embeddings must be [N, D], got shape {points.shape}")
    if len(points) < 2:
        raise DataValidationError(f"projection needs >= 2 samples, got {len(points)}")
    mean = points.mean(axis=0, dtype=np.float64)
    blocks = [slice(lo, lo + _PCA_BLOCK_ROWS) for lo in range(0, len(points), _PCA_BLOCK_ROWS)]
    r = np.empty((0, points.shape[1]))
    for rows in blocks:
        r = np.linalg.qr(np.concatenate((r, points[rows] - mean)), mode="r")
    _, _, vt = np.linalg.svd(r, full_matrices=False)
    components = [-v if v[np.argmax(np.abs(v))] < 0 else v for v in vt[:2]]
    coords = np.zeros((len(points), 2), dtype=np.float64)
    for rows in blocks:
        centered = points[rows] - mean
        for c, component in enumerate(components):
            coords[rows, c] = centered @ component
    return coords


def write_scatter_csv(keys: np.ndarray, coords: np.ndarray, path: str | Path) -> None:
    """Export [N, 2] keys and their points as ``id,frame,x,y`` CSV rows, the bytes ``csv.writer`` gives.

    Each coordinate is written as the repr of the float it converts to.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if len(keys) != len(coords):
        raise ValueError(f"{len(keys)} keys for {len(coords)} points")
    write_lines("%d,%d,%r,%r\r\n", array_rows(*keys.T, *coords.T), path, head="id,frame,x,y\r\n")


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
