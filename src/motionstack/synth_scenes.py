"""Deterministic synthetic scenes for desk-scale end-to-end verification.

``generate`` renders colored filled-circle blobs moving with constant
velocity and wall bounce over a flat or checkerboard background (a blob that
crosses the canvas within one frame bounces as often as its path requires,
so every box stays on the canvas at any speed), and emits every artifact
the rest of the pipeline consumes: PPM frames, per-frame
ground-truth boxes (class 0), tracklets (ground-truth trajectories split at
injected id switches, later fragments receiving fresh sequential ids), the
true identity grouping, and per-(object, frame) feature vectors built as
well-separated identity prototypes plus seeded Gaussian noise. Each disc is
tested only inside its bounding window, clamped to the canvas, with the
same float64 per-pixel expression as a test over the whole canvas.

``perturb_detections`` degrades ground truth into a detection set with
controlled drop-outs, corner jitter, and low-scoring false positives, which
gives the evaluation metrics something imperfect to measure.

Everything is bit-deterministic for a fixed seed. Spawn-time draws come
from one stream keyed on the seed; all per-frame randomness comes from
streams keyed on (seed, frame).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .det_metrics import BoxColumns, GroundTruth, as_columns, write_ground_truth_jsonl
from .jsonio import write_json
from .tensor_io import ImageFrame, write_ppm, write_tensor
from .tracklets import Tracklets, write_identity_map, write_tracklets_json

BACKGROUND_MODES = ("flat", "textured")
NOISE_SIGMA = 0.1
# Prototype scale 1.2 puts distinct prototypes 1.2*sqrt(2) apart, safely
# above the required 10 sigma, while keeping raw feature distances small
# enough that an untrained encoder still sees active triplet hinges.
PROTOTYPE_SCALE = 1.2
DEFAULT_FEATURE_DIM = 32

_FLAT_BG = (32, 32, 32)
_CHECKER_BG = ((24, 26, 30), (44, 46, 52))
_CHECKER_CELL = 8


@dataclass
class SceneConfig:
    """Geometry, motion, and identity layout of a synthetic scene."""

    width: int = 96
    height: int = 72
    num_frames: int = 64
    num_objects: int = 3
    radius_range: tuple[int, int] = (4, 7)
    velocity_range: tuple[float, float] = (1.0, 2.5)
    id_switch_events: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    background: str = "flat"
    feature_dim: int = DEFAULT_FEATURE_DIM

    def __post_init__(self) -> None:
        if self.seed < 0:  # checked before generate writes anything; numpy would reject it later
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        if self.num_objects < 1:
            raise ValueError(f"num_objects must be >= 1, got {self.num_objects}")
        r_min, r_max = self.radius_range
        if not (isinstance(r_min, int) and isinstance(r_max, int)) or r_min < 1 or r_min > r_max:
            raise ValueError(f"radius_range must be integers 1 <= min <= max, got {self.radius_range}")
        v_min, v_max = self.velocity_range
        if not (0 <= v_min <= v_max) or not (math.isfinite(v_min) and math.isfinite(v_max)):
            raise ValueError(f"velocity_range must satisfy 0 <= min <= max, got {self.velocity_range}")
        # Spawn interval for a blob center is [r, size-1-r]; it must be nonempty.
        if min(self.width, self.height) <= 2 * r_max + 1:
            raise ValueError(
                f"canvas {self.width}x{self.height} cannot fit a radius-{r_max} blob"
            )
        if self.background not in BACKGROUND_MODES:
            raise ValueError(
                f"background must be one of {BACKGROUND_MODES}, got {self.background!r}"
            )
        if self.feature_dim < self.num_objects:
            raise ValueError(
                f"feature_dim {self.feature_dim} cannot host {self.num_objects} orthogonal prototypes"
            )
        events = [tuple(e) for e in self.id_switch_events]
        seen: set[tuple[int, int]] = set()
        for obj, frame in events:
            if not (isinstance(obj, int) and isinstance(frame, int)):
                raise ValueError(f"id switch events must be (object, frame) integers, got {(obj, frame)!r}")
            if not 0 <= obj < self.num_objects:
                raise ValueError(f"id switch object {obj} outside 0..{self.num_objects - 1}")
            if not 1 <= frame <= self.num_frames - 1:
                raise ValueError(
                    f"id switch frame {frame} outside 1..{self.num_frames - 1}"
                )
            if (obj, frame) in seen:
                raise ValueError(f"duplicate id switch event {(obj, frame)}")
            seen.add((obj, frame))
        self.id_switch_events = tuple(events)


@dataclass
class _Blob:
    radius: int
    cx: float
    cy: float
    vx: float
    vy: float
    color: tuple[int, int, int]


def _spawn_blobs(config: SceneConfig) -> list[_Blob]:
    rng = np.random.default_rng([config.seed, 0])
    blobs = []
    for _ in range(config.num_objects):
        radius = int(rng.integers(config.radius_range[0], config.radius_range[1] + 1))
        cx = float(rng.uniform(radius, config.width - 1 - radius))
        cy = float(rng.uniform(radius, config.height - 1 - radius))
        speed = float(rng.uniform(*config.velocity_range))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        color = tuple(int(v) for v in rng.integers(64, 256, size=3))
        blobs.append(_Blob(radius, cx, cy, speed * math.cos(angle), speed * math.sin(angle), color))
    return blobs


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    # Fold a position that moved past a wall back into [lo, hi] (hi > lo).
    if lo <= pos <= hi:
        return pos, vel
    once = 2 * lo - pos if pos < lo else 2 * hi - pos
    if lo <= once <= hi:
        return once, -vel
    # Faster than the free span: the path is periodic with period 2 * span,
    # and the second half of each period is travelled after an odd number
    # of bounces. Python's % keeps the phase in [0, 2 * span].
    span = hi - lo
    phase = (pos - lo) % (2 * span)
    if phase <= span:
        return lo + phase, vel
    return lo + (2 * span - phase), -vel


def _step(blob: _Blob, width: int, height: int) -> None:
    # Advance one frame, reflecting off walls so the blob stays inside.
    blob.cx, blob.vx = _reflect(blob.cx + blob.vx, blob.vx, float(blob.radius), float(width - 1 - blob.radius))
    blob.cy, blob.vy = _reflect(blob.cy + blob.vy, blob.vy, float(blob.radius), float(height - 1 - blob.radius))


def _background(config: SceneConfig) -> np.ndarray:
    canvas = np.empty((config.height, config.width, 3), dtype=np.uint8)
    if config.background == "flat":
        canvas[:] = _FLAT_BG
    else:
        ys = np.arange(config.height)[:, None] // _CHECKER_CELL
        xs = np.arange(config.width)[None, :] // _CHECKER_CELL
        parity = (ys + xs) % 2
        canvas[:] = _CHECKER_BG[0]
        canvas[parity == 1] = _CHECKER_BG[1]
    return canvas


def _window(center: float, radius: float, size: int) -> tuple[int, int]:
    # The pixels a disc can cover, clamped into [0, size] so a negative end cannot wrap round.
    lo, hi = math.floor(center - radius), math.ceil(center + radius) + 1
    return min(max(lo, 0), size), min(max(hi, 0), size)


def _render(config: SceneConfig, background: np.ndarray, blobs: Sequence[_Blob]) -> np.ndarray:
    frame = background.copy()
    for blob in blobs:
        r = float(blob.radius)
        x0, x1 = _window(blob.cx, r, config.width)
        y0, y1 = _window(blob.cy, r, config.height)
        xs = np.arange(x0, x1, dtype=np.float64)[None, :]
        ys = np.arange(y0, y1, dtype=np.float64)[:, None]
        mask = (xs - blob.cx) ** 2 + (ys - blob.cy) ** 2 <= r ** 2
        frame[y0:y1, x0:x1][mask] = blob.color
    return frame


def _blob_box(blob: _Blob) -> tuple[float, float, float, float]:
    r = float(blob.radius)
    return (blob.cx - r, blob.cy - r, blob.cx + r, blob.cy + r)


def _split_tracklets(config: SceneConfig, boxes: np.ndarray) -> tuple[Tracklets, list[list[int]]]:
    # Fresh ids follow generation order of the events sorted by (frame, object).
    events = sorted((f, o) for o, f in config.id_switch_events)
    fresh = {(obj, frame): config.num_objects + k for k, (frame, obj) in enumerate(events)}

    spans: list[tuple[int, int, int, int]] = []  # (id, start, end, object)
    groups: list[list[int]] = []
    for obj in range(config.num_objects):
        cuts = sorted(f for o, f in config.id_switch_events if o == obj)
        starts = [0, *cuts]
        group = [obj if start == 0 else fresh[(obj, start)] for start in starts]
        spans += zip(group, starts, [*(c - 1 for c in cuts), config.num_frames - 1], [obj] * len(group))
        groups.append(group)
    tid, start, end, obj = np.array(sorted(spans), dtype=np.int64).T
    frames = np.concatenate([np.arange(lo, hi + 1) for lo, hi in zip(start, end)])
    objects = np.repeat(obj, end - start + 1)
    return Tracklets(tid, start, end, boxes[frames, objects], frames * config.num_objects + objects), groups


def generate(config: SceneConfig, out_dir: str | Path) -> dict:
    """Render a scene and write every artifact; returns its counts and file names.

    Layout under ``out_dir``: ``frames/frame_%06d.ppm``, ``gt.jsonl``,
    ``tracklets.json``, ``identity_map.json``, ``features.mten`` ([T, D]
    float32, row ``frame * num_objects + object``), and ``scene.json``
    recording the config and relative artifact paths. The returned dict
    holds the frame, tracklet and box counts, then every artifact's path
    relative to ``out_dir``.
    """
    out_dir = Path(out_dir)
    names = {
        "frames_dir": "frames",
        "gt": "gt.jsonl",
        "tracklets": "tracklets.json",
        "identity_map": "identity_map.json",
        "features": "features.mten",
    }
    frame_files = [f"frame_{f:06d}.ppm" for f in range(config.num_frames)]
    frames_dir = out_dir / names["frames_dir"]
    frames_dir.mkdir(parents=True, exist_ok=True)

    blobs = _spawn_blobs(config)
    background = _background(config)
    prototypes = PROTOTYPE_SCALE * np.eye(config.num_objects, config.feature_dim)

    boxes = np.empty((config.num_frames, config.num_objects, 4), dtype=np.float64)
    features = np.empty((config.num_frames, config.num_objects, config.feature_dim), dtype=np.float32)
    for frame in range(config.num_frames):
        if frame > 0:
            for blob in blobs:
                _step(blob, config.width, config.height)
        canvas = _render(config, background, blobs)
        write_ppm(
            ImageFrame(width=config.width, height=config.height, pixels=canvas), frames_dir / frame_files[frame]
        )
        boxes[frame] = [_blob_box(blob) for blob in blobs]
        noise = np.random.default_rng([config.seed, 1, frame]).normal(
            0.0, 1.0, size=(config.num_objects, config.feature_dim)
        )
        features[frame] = prototypes + NOISE_SIGMA * noise  # the float64 sum, rounded once

    tracklets, groups = _split_tracklets(config, boxes)

    gts = BoxColumns(  # in (frame, object) order, every box of class 0
        np.repeat(np.arange(config.num_frames), config.num_objects),
        boxes.reshape(-1, 4),
        np.zeros(config.num_frames * config.num_objects, dtype=np.int64),
    )
    write_ground_truth_jsonl(gts, out_dir / names["gt"])
    write_tracklets_json(tracklets, out_dir / names["tracklets"])
    write_identity_map(groups, out_dir / names["identity_map"])
    write_tensor(features.reshape(-1, config.feature_dim), out_dir / names["features"])
    report = {
        "num_frames": config.num_frames,
        "num_tracklets": len(tracklets),
        "num_ground_truth": len(gts),
        **names,
        "scene": "scene.json",
    }
    # frames_dir keeps its place ahead of frame_files when names is merged in.
    scene = {"config": asdict(config), "frames_dir": names["frames_dir"], "frame_files": frame_files}
    write_json({**scene, **names}, out_dir / report["scene"])
    return report


def _unit_span(lo: float, hi: float) -> tuple[float, float]:
    # One pixel around the midpoint of a collapsed span, halving before the
    # sum so it cannot overflow. From 2**52 up the half pixels round away;
    # then the span is the float step beside the midpoint, on its side
    # towards zero so that it stays finite.
    mid = lo / 2.0 + hi / 2.0
    if mid - 0.5 < mid + 0.5:
        return mid - 0.5, mid + 0.5
    step = math.nextafter(mid, 0.0)
    return min(mid, step), max(mid, step)


def perturb_detections(
    gts: Sequence[GroundTruth],
    drop_rate: float,
    jitter_px: float,
    fp_rate: float,
    seed: int = 0,
    canvas: tuple[int, int] | None = None,
) -> BoxColumns:
    """Degrade ground truth into detections with controlled imperfection.

    Each box survives with probability ``1 - drop_rate`` (score 1.0), its
    corners shifted independently by uniform offsets in [-jitter_px,
    jitter_px] (collapsed boxes are re-expanded minimally). Each frame then
    receives one false positive with probability ``fp_rate``, scored
    strictly below every true score. ``canvas`` bounds false-positive
    boxes; by default it is inferred from the ground-truth extents. A rate
    outside [0, 1], a negative or non-finite jitter, or one that pushes a
    corner past the float range raises ValueError.
    """
    for name, rate in (("drop_rate", drop_rate), ("fp_rate", fp_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    if not 0 <= jitter_px < math.inf:
        raise ValueError(f"jitter_px must be finite and nonnegative, got {jitter_px}")
    gts = as_columns(gts, scored=False)
    if canvas is not None:
        width, height = canvas
    elif len(gts):
        width = int(math.ceil(gts.boxes[:, 2].max())) + 1
        height = int(math.ceil(gts.boxes[:, 3].max())) + 1
    else:
        width, height = 64, 64

    rng = np.random.default_rng(seed)
    # Box by box: the drop draw, then a kept box's four corner draws into its row (random returns out).
    corners = np.empty((len(gts), 4))
    kept = np.flatnonzero([rng.random() >= drop_rate and rng.random(out=row) is row for row in corners])
    # uniform(-1, 1) is -1 + 2 * draw, exactly as numpy computes it.
    offsets = (corners[kept] * 2.0 - 1.0) * jitter_px
    with np.errstate(over="ignore"):
        boxes = gts.boxes[kept] + offsets
    finite = np.isfinite(boxes).all(axis=1)
    if not finite.all():
        frame = gts.frame[kept[np.argmin(finite)]]
        raise ValueError(f"jitter_px {jitter_px} moves a box corner in frame {frame} past the float range")
    # Jitter can invert a small box; keep it valid around its center.
    for lo, hi in ((0, 2), (1, 3)):
        for r in np.flatnonzero(boxes[:, hi] <= boxes[:, lo]).tolist():
            boxes[r, lo], boxes[r, hi] = _unit_span(float(boxes[r, lo]), float(boxes[r, hi]))

    fp_frames: list[int] = []
    fp_boxes: list[tuple[float, float, float, float]] = []
    fp_scores: list[float] = []
    for frame in sorted(set(gts.frame.tolist())):  # a bare np.unique would import numpy.ma, 0.6 MiB
        if float(rng.uniform()) >= fp_rate:
            continue
        w = float(rng.uniform(3.0, max(4.0, width / 4.0)))
        h = float(rng.uniform(3.0, max(4.0, height / 4.0)))
        x1 = float(rng.uniform(0.0, max(1.0, width - w)))
        y1 = float(rng.uniform(0.0, max(1.0, height - h)))
        fp_frames.append(frame)
        fp_boxes.append((x1, y1, x1 + w, y1 + h))
        fp_scores.append(float(rng.uniform(0.05, 0.95)) * 0.999)  # below every true score, 1.0
    return BoxColumns(
        np.concatenate((gts.frame[kept], np.array(fp_frames, dtype=np.int64))),
        np.concatenate((boxes, np.array(fp_boxes, dtype=np.float64).reshape(-1, 4))),
        np.concatenate((gts.label[kept], np.zeros(len(fp_frames), dtype=np.int64))),
        np.concatenate((np.ones(len(kept)), np.array(fp_scores, dtype=np.float64))),
    )
