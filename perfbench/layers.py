"""What the traced run wraps inside motionstack, and the per-layer metrics it reports.

Every public function a motionstack module defines is wrapped, plus
``FrameSequence.from_dir`` and ``cli.run`` (one span name per subcommand).
``det_metrics.iou`` is left alone: it is a scalar helper called about a
million times per crowded evaluation, and a span per call would cost more
than the call it measures.

A per-layer metric is named ``<workload>.<module>.<function>.<stat>``, where
``s`` is total span time per pass, ``self_s`` span time minus child spans,
``calls`` a count and ``peak_alloc_mb`` the call's tracemalloc peak; the
other names are the probe-derived values computed in ``layer_value``.
"""

from __future__ import annotations

import importlib
import os
import statistics
import zlib

import numpy as np

from tracing import Probe, Tracer, public_functions

MODULES = (
    "tensor_io",
    "frame_pipeline",
    "weight_surgery",
    "det_metrics",
    "roi_features",
    "tracklets",
    "metric_learning",
    "synth_scenes",
)
UNWRAPPED = {"det_metrics.iou"}
EXTRA_TARGETS = ("frame_pipeline.FrameSequence.from_dir", "cli.run")

MIB = float(1 << 20)

# Per workload: (metric name without the workload prefix, unit).
LAYER_METRICS = {
    "clip_prep": [
        ("synth_scenes.generate.self_s", "s"),
        ("synth_scenes.perturb_detections.s", "s"),
        ("tensor_io.write_ppm.s", "s"),
        ("tensor_io.read_ppm.s", "s"),
        ("tensor_io.write_tensor.s", "s"),
        ("tensor_io.write_tensor.calls", "count"),
        ("tensor_io.bytes_written", "MiB"),
        ("frame_pipeline.FrameSequence.from_dir.s", "s"),
        ("frame_pipeline.build_dataset.self_s", "s"),
        ("frame_pipeline.diff_image.calls", "count"),
        ("frame_pipeline.diff_reuse", "ratio"),
        ("frame_pipeline.build_dataset.peak_alloc_mb", "MiB"),
        ("weight_surgery.load_conv_layer.s", "s"),
        ("weight_surgery.expand_first_layer.s", "s"),
        ("det_metrics.evaluate.self_s", "s"),
        ("det_metrics.match_detections.s", "s"),
        ("det_metrics.match_detections.calls", "count"),
        ("cli.run.synth_generate.self_s", "s"),
        ("cli.run.synth_perturb.self_s", "s"),
        ("cli.run.eval.self_s", "s"),
        ("cli.run.stack.self_s", "s"),
        ("cli.run.surgery.self_s", "s"),
        ("tracing.overhead_s", "s"),
    ],
    "crowded_eval": [
        ("det_metrics.evaluate.self_s", "s"),
        ("det_metrics.match_detections.s", "s"),
        ("det_metrics.match_detections.calls", "count"),
        ("det_metrics.load_detections_jsonl.s", "s"),
        ("det_metrics.load_ground_truth_jsonl.s", "s"),
        ("cli.run.eval.self_s", "s"),
        ("tracing.overhead_s", "s"),
    ],
    "roi_pool": [
        ("roi_features.pool_boxes.s", "s"),
        ("roi_features.pool_boxes.peak_alloc_mb", "MiB"),
        ("tensor_io.read_tensor.s", "s"),
        ("tensor_io.bytes_read", "MiB"),
        ("cli.run.features.self_s", "s"),
        ("tracing.overhead_s", "s"),
    ],
    "reid_train": [
        ("tensor_io.read_tensor.s", "s"),
        ("tensor_io.bytes_read", "MiB"),
        ("tracklets.load_tracklets_json.s", "s"),
        ("tracklets.filter_min_length.s", "s"),
        ("metric_learning.mine_triplets.s", "s"),
        ("metric_learning.load_triplets_jsonl.s", "s"),
        ("metric_learning.train.self_s", "s"),
        ("metric_learning.gradients_on_params.s", "s"),
        ("metric_learning.gradients_on_params.calls", "count"),
        ("metric_learning.active_hinge_frac", "ratio"),
        ("metric_learning.tracklet_centroids.s", "s"),
        ("metric_learning.propose_merges.s", "s"),
        ("metric_learning.separation_metrics.s", "s"),
        ("metric_learning.pca_project_2d.s", "s"),
        ("metric_learning.save_net.s", "s"),
        ("cli.run.mine.self_s", "s"),
        ("cli.run.train.self_s", "s"),
        ("cli.run.reid.self_s", "s"),
        ("cli.run.project.self_s", "s"),
        ("tracing.overhead_s", "s"),
    ],
}


def _path_arg(args: tuple, kwargs: dict, pos: int) -> str:
    return args[pos] if len(args) > pos else kwargs["path"]


def _pixels(x) -> np.ndarray:
    return np.ascontiguousarray(getattr(x, "pixels", x))


def probes(tracer: Tracer) -> dict[str, Probe]:
    """Instrumentation beyond plain spans, keyed by target name."""
    seen_diffs: set[tuple] = set()

    def written(args, kwargs, result, state):
        return {"tensor_io.bytes_written": os.path.getsize(_path_arg(args, kwargs, 1))}

    def size_before(args, kwargs):
        return os.path.getsize(_path_arg(args, kwargs, 0))

    def read(args, kwargs, result, state):
        return {"tensor_io.bytes_read": state}

    def diff_key(args, kwargs, result, state):
        # Distinct by content, so the ratio holds however frames are cached.
        key = (tracer.pass_id, *(zlib.crc32(_pixels(a)) for a in args[:2]))
        fresh = key not in seen_diffs
        seen_diffs.add(key)
        return {"frame_pipeline.diff_image.distinct": int(fresh)}

    def hinges(args, kwargs, result, state):
        losses = result[1]
        return {
            "metric_learning.hinges_active": int(np.count_nonzero(losses > 0.0)),
            "metric_learning.hinges": len(losses),
        }

    def subcommand(args, kwargs):
        argv = args[0] if args else kwargs["argv"]
        return "cli.run." + "_".join(argv[:2] if argv[0] == "synth" else argv[:1])

    return {
        "tensor_io.write_tensor": Probe(after=written),
        "tensor_io.write_ppm": Probe(after=written),
        "tensor_io.read_tensor": Probe(before=size_before, after=read),
        "tensor_io.read_ppm": Probe(before=size_before, after=read),
        "frame_pipeline.diff_image": Probe(after=diff_key),
        "frame_pipeline.build_dataset": Probe(memory=True),
        "roi_features.pool_boxes": Probe(memory=True),
        "metric_learning.gradients_on_params": Probe(after=hinges),
        "cli.run": Probe(name=subcommand),
    }


def targets(tracer: Tracer) -> dict[str, Probe | None]:
    """Every wrapped function, as ``"module.function"``, with its probe if any."""
    out: dict[str, Probe | None] = {}
    for name in MODULES:
        module = importlib.import_module(f"motionstack.{name}")
        for fn in public_functions(module):
            target = f"{name}.{fn}"
            if target not in UNWRAPPED:
                out[target] = None
    for target in EXTRA_TARGETS:
        out[target] = None
    for target, probe in probes(tracer).items():
        if target not in out:
            raise KeyError(f"probe for unwrapped target {target}")
        out[target] = probe
    return out


def layer_value(metric: str, summary: dict, counters: dict) -> float:
    """One per-layer metric (without workload prefix) from a traced pass."""
    if metric == "tensor_io.bytes_written":
        return counters.get("tensor_io.bytes_written", 0) / MIB
    if metric == "tensor_io.bytes_read":
        return counters.get("tensor_io.bytes_read", 0) / MIB
    if metric == "frame_pipeline.diff_reuse":
        calls = summary.get("frame_pipeline.diff_image", {}).get("calls", 0)
        return counters.get("frame_pipeline.diff_image.distinct", 0) / calls if calls else 0.0
    if metric == "metric_learning.active_hinge_frac":
        hinges = counters.get("metric_learning.hinges", 0)
        return counters.get("metric_learning.hinges_active", 0) / hinges if hinges else 0.0
    span, _, stat = metric.rpartition(".")
    if stat == "peak_alloc_mb":
        return counters.get(f"{span}.peak_alloc_bytes", 0) / MIB
    # A function that was never called has no span.
    row = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
    return row[stat]


def needs_memory_pass(workload: str) -> bool:
    return any(m.endswith(".peak_alloc_mb") for m, _ in LAYER_METRICS[workload])


def per_layer(workload: str, traced: list[tuple[dict, dict]], overheads: list[float]) -> dict[str, float]:
    """Median over traced passes of each of ``workload``'s per-layer metrics."""
    out = {}
    for metric, _unit in LAYER_METRICS[workload]:
        if metric == "tracing.overhead_s":
            value = statistics.median(overheads)
        else:
            value = statistics.median(layer_value(metric, s, c) for s, c in traced)
        out[f"{workload}.{metric}"] = value
    return out


def all_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    return {f"{w}.{m}": u for w, rows in LAYER_METRICS.items() for m, u in rows}
