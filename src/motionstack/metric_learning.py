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
  statistics are computed in fixed row blocks, so their scratch memory is
  O(block * n * D), not O(n^2 * D), and each distance is bit-identical to the
  plain broadcast formula.

Triplets interchange as JSON lines ``{"a": [id, frame], "p": ..., "n": ...}``;
a trained net as one MTENSOR per weight/bias plus a JSON manifest; scatter
plots as ``id,frame,x,y`` CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataValidationError
from .jsonio import read_json, read_jsonl, write_json, write_jsonl
from .tensor_io import read_tensor, write_tensor
from .tracklets import Tracklet, enumerate_keys, overlap_graph, temporal_overlap

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
        with_rows = [t for t in tracklets if t.feature_rows is not None]
        if with_rows and len(with_rows) != len(tracklets):
            raise DataValidationError("either every tracklet or none may carry feature_rows")
        index: dict[tuple[int, int], int] = {}
        if with_rows:
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

    def row(self, tracklet_id: int, frame: int) -> int:
        try:
            return self._index[(tracklet_id, frame)]
        except KeyError:
            raise DataValidationError(f"no feature row for tracklet {tracklet_id} frame {frame}") from None

    def rows_for(self, tracklet: Tracklet) -> np.ndarray:
        return np.array([self.row(tracklet.id, f) for f in tracklet.frames], dtype=np.intp)


def load_feature_table(tracklets: Sequence[Tracklet], path: str | Path) -> FeatureTable:
    matrix = read_tensor(path)
    if matrix.ndim != 2:
        raise DataValidationError(f"{path}: feature matrix must be 2-d, got shape {matrix.shape}")
    return FeatureTable(tracklets, matrix)


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
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
    ):
        raise DataValidationError(f"{where}: expected [tracklet_id, frame], got {raw!r}")
    return (raw[0], raw[1])


def load_triplets_jsonl(path: str | Path) -> list[Triplet]:
    out: list[Triplet] = []
    for where, record in read_jsonl(path):
        if not all(k in record for k in ("a", "p", "n")):
            raise DataValidationError(f"{where}: expected an object with keys a, p, n")
        out.append(
            Triplet(
                anchor=_check_ref(record["a"], where),
                positive=_check_ref(record["p"], where),
                negative=_check_ref(record["n"], where),
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
        out = embed_on_params(params64(self), features)
        if self.normalize_output:
            norms = np.linalg.norm(out, axis=1, keepdims=True)
            out = np.divide(out, norms, out=np.zeros_like(out), where=norms > 0)
        return out


def params64(net: EmbeddingNet) -> list[tuple[np.ndarray, np.ndarray]]:
    """The net's layers as float64 (weight, bias) pairs."""
    return [
        (w.astype(np.float64), b.astype(np.float64)) for w, b in zip(net.weights, net.biases)
    ]


def set_params(net: EmbeddingNet, params: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    """Store float64 training params back into the net's float32 slots."""
    if len(params) != len(net.weights):
        raise ValueError(f"expected {len(net.weights)} layers, got {len(params)}")
    for l, (w, b) in enumerate(params):
        net.weights[l] = np.asarray(w, dtype=np.float32)
        net.biases[l] = np.asarray(b, dtype=np.float32)


def _forward_full(params, x):
    # Returns (acts, zs): acts[0] is the input, acts[-1] the embedding.
    acts = [x]
    zs = []
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(z if l == last else np.maximum(z, 0.0))
    return acts, zs


def embed_on_params(params, x: np.ndarray) -> np.ndarray:
    # The float ops of _forward_full, keeping one layer's output at a time.
    z = np.asarray(x, dtype=np.float64)
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        z = z @ w.T
        z += b
        if l < last:
            np.maximum(z, 0.0, out=z)
    return z


def _stacked_forward(params, xa, xp, xn, margin: float):
    # One pass over the [3B, D] stack of anchor, positive and negative rows;
    # returns (acts, zs) of the stack and the [B] hinge terms before the clamp.
    x = np.concatenate([xa, xp, xn], dtype=np.float64)
    acts, zs = _forward_full(params, x)
    ea, ep, en = np.split(acts[-1], 3)
    terms = np.sum((ea - ep) ** 2, axis=1) - np.sum((ea - en) ** 2, axis=1) + margin
    return acts, zs, terms


def batch_losses_on_params(params, xa, xp, xn, margin: float) -> np.ndarray:
    """Per-triplet hinge losses, float64 [B]."""
    return np.maximum(_stacked_forward(params, xa, xp, xn, margin)[2], 0.0)


def loss_on_params(params, xa, xp, xn, margin: float) -> float:
    """Mean hinge loss of a batch (the quantity training descends)."""
    return float(batch_losses_on_params(params, xa, xp, xn, margin).mean())


def gradients_on_params(params, xa, xp, xn, margin: float):
    """Analytic gradients of the mean batch loss.

    Returns (mean_loss, per_triplet_losses, grads) with grads a list of
    float64 (dW, db) per layer. Triplets whose hinge is inactive (loss
    term <= 0) contribute exact zeros, so only the active ones are
    back-propagated, as one stacked batch of their anchor, positive and
    negative rows.
    """
    acts, zs, terms = _stacked_forward(params, xa, xp, xn, margin)
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
            g = (g @ params[l][0]) * (zs[l - 1][rows] > 0.0)
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
    to the shuffle.
    """
    if table.dim != net.in_dim:
        raise DataValidationError(f"net expects {net.in_dim}-d features, table holds {table.dim}-d")
    # [3, N] feature rows: anchors, positives, negatives.
    rows = np.array(
        [[table.row(*t.anchor) for t in triplets],
         [table.row(*t.positive) for t in triplets],
         [table.row(*t.negative) for t in triplets]],
        dtype=np.intp,
    )
    x = table.matrix64

    params = params64(net)
    rng = np.random.default_rng(config.seed)
    count = len(triplets)
    trace: list[float] = []
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
            params = [
                (w - config.learning_rate * gw, b - config.learning_rate * gb)
                for (w, b), (gw, gb) in zip(params, grads)
            ]
        trace.append(float(epoch_losses.sum() / count))
    set_params(net, params)
    return net, trace


# ---------------------------------------------------------------------------
# re-identification

def tracklet_embeddings(
    net: EmbeddingNet, tracklets: Sequence[Tracklet], table: FeatureTable
) -> dict[int, np.ndarray]:
    """Each tracklet's frame embeddings, keyed by id (float64 [frames, 128])."""
    return {t.id: net.embed_batch(table.matrix64[table.rows_for(t)]) for t in tracklets}


def tracklet_centroids(
    net: EmbeddingNet,
    tracklets: Sequence[Tracklet],
    table: FeatureTable,
    embeddings: Mapping[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Mean embedding of each tracklet's frames, keyed by id (float64 [128]).

    ``embeddings``, as returned by ``tracklet_embeddings`` for the same
    arguments, are averaged instead of being computed again.
    """
    if embeddings is None:
        embeddings = tracklet_embeddings(net, tracklets, table)
    return {t.id: embeddings[t.id].mean(axis=0) for t in tracklets}


# Rows of ``a`` per scratch block in ``_pair_distances``. At 300 samples of
# 128-d embeddings the [4, 300, 128] float64 buffer is 1.2 MB and stays in a
# 2 MB L2 cache; 16 rows measured about 10% slower on such a core.
_SEPARATION_BLOCK = 4


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances [len(a), len(b)] between the rows of two float64 matrices.

    Same arithmetic, and so the same floats, as
    ``np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))``, but
    computed ``_SEPARATION_BLOCK`` rows of ``a`` at a time in one reused
    [block, len(b), D] buffer instead of one [len(a), len(b), D] temporary.
    """
    dist = np.empty((len(a), len(b)), dtype=np.float64)
    buf = np.empty((min(_SEPARATION_BLOCK, len(a)), len(b), a.shape[1]), dtype=np.float64)
    for lo in range(0, len(a), _SEPARATION_BLOCK):
        rows = a[lo : lo + _SEPARATION_BLOCK]
        part = buf[: len(rows)]
        np.subtract(rows[:, None, :], b[None, :, :], out=part)
        np.square(part, out=part)
        np.sqrt(part.sum(axis=2), out=dist[lo : lo + len(rows)])
    return dist


def separation_metrics(groups: Mapping[object, Sequence[np.ndarray]]) -> dict:
    """Pooled pairwise-distance statistics over identity groups.

    ``intra_mean`` averages distances within groups of at least two
    samples; ``inter_mean`` averages distances across distinct groups;
    ``ratio`` is their quotient, defined as 0 for the degenerate inter == 0
    case. At least two identities are required.
    """
    keys = list(groups.keys())
    if len(keys) < 2:
        raise DataValidationError(f"separation metrics need >= 2 identities, got {len(keys)}")
    vecs = {k: np.asarray(np.stack(groups[k]), dtype=np.float64) for k in keys}

    intra_sum = 0.0
    intra_count = 0
    for k in keys:
        v = vecs[k]
        if len(v) < 2:
            continue
        dist = _pair_distances(v, v)
        iu = np.triu_indices(len(v), k=1)
        intra_sum += float(dist[iu].sum())
        intra_count += len(iu[0])

    inter_sum = 0.0
    inter_count = 0
    for i, ka in enumerate(keys):
        for kb in keys[i + 1 :]:
            dist = _pair_distances(vecs[ka], vecs[kb])
            inter_sum += float(dist.sum())
            inter_count += dist.size

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
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("layers"), list):
        raise DataValidationError(f"{manifest_path}: expected an object with a 'layers' list")
    declared = manifest.get("layer_dims")
    if declared is not None and not isinstance(declared, list):
        raise DataValidationError(f"{manifest_path}: layer_dims must be a list of layer widths")
    base = manifest_path.parent
    weights = []
    biases = []
    for l, entry in enumerate(manifest["layers"]):
        if not isinstance(entry, dict) or "weight" not in entry or "bias" not in entry:
            raise DataValidationError(f"{manifest_path}: layers[{l}] must name weight and bias files")
        for key, tensors in (("weight", weights), ("bias", biases)):
            if not isinstance(entry[key], str):
                raise DataValidationError(f"{manifest_path}: layers[{l}].{key} must be a file name string")
            tensors.append(read_tensor(base / entry[key]))
            if not np.isfinite(tensors[-1]).all():
                raise DataValidationError(f"{manifest_path}: layers[{l}].{key} is not finite")
    normalize_output = manifest.get("normalize_output", False)
    if not isinstance(normalize_output, bool):
        raise DataValidationError(
            f"{manifest_path}: normalize_output must be true or false, got {json.dumps(normalize_output)}"
        )
    try:
        net = EmbeddingNet(weights=weights, biases=biases, normalize_output=normalize_output)
    except ValueError as exc:
        raise DataValidationError(f"{manifest_path}: {exc}") from exc
    if declared is not None and declared != net.layer_dims:
        raise DataValidationError(
            f"{manifest_path}: declares layer_dims {declared}, tensors give {net.layer_dims}"
        )
    return net
