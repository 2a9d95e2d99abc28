"""Tests of the benchmark harness: seeded inputs, wrapper restoration, span arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench``. Workloads are shrunk
so the whole file takes a few seconds.
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import layers  # noqa: E402
import run  # noqa: E402
from motionstack import cli  # noqa: E402
from motionstack.frame_pipeline import FrameSequence  # noqa: E402
from tracing import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, ClipPrep, CrowdedEval, ReidTrain, RoiPool, _quiet_run  # noqa: E402


def _shrunk(cls, **sizes):
    """A workload whose size constants are overridden on the instance."""
    workload = cls()
    vars(workload).update(sizes)
    return workload


SMALL = {
    "clip_prep": _shrunk(ClipPrep, num_frames=12),
    "crowded_eval": _shrunk(CrowdedEval, frames=6, gt_per_frame=8, items=80),
    "roi_pool": _shrunk(RoiPool, channels=4, items=12),
    "reid_train": _shrunk(ReidTrain, num_frames=40),
}


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _namespaces() -> dict:
    """Every attribute of every motionstack module, plus FrameSequence's class dict."""
    snap = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.startswith("motionstack")
        for key, value in vars(module).items()
    }
    snap.update({("FrameSequence", key): value for key, value in vars(FrameSequence).items()})
    return snap


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    workload = SMALL[name]
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / sub).mkdir()
        workload.make_inputs(seed, tmp_path / sub)
    first, again, other = (_files(tmp_path / sub) for sub in "abc")
    assert first and first == again
    assert other != first
    out = tmp_path / "out"
    assert workload.commands(3, tmp_path / "a", out) == workload.commands(3, tmp_path / "a", out)


def test_uninstall_restores_every_wrapped_function():
    before = _namespaces()
    original_run = cli.run
    tracer = Tracer()
    tracer.install(layers.targets(tracer))
    try:
        during = _namespaces()
        assert cli.run is not original_run
        assert vars(FrameSequence)["from_dir"] is not before[("FrameSequence", "from_dir")]
        wrapped = [key for key in before if during[key] is not before[key]]
        assert len(wrapped) > 50
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_probe_time_stays_out_of_spans_and_errors_are_counted():
    tracer = Tracer()

    def slow_probe(args, kwargs, result, state):
        time.sleep(0.05)
        return {"probed": 1}

    def boom():
        raise ValueError("boom")

    inner = tracer.wrap("mod.inner", lambda: None, Probe(after=slow_probe))
    outer = tracer.wrap("mod.outer", lambda: inner())
    failing = tracer.wrap("other.boom", boom)
    caller = tracer.wrap("mod.caller", lambda: failing())
    outer()
    with pytest.raises(ValueError):
        caller()
    assert [s.name for s in tracer.spans] == ["mod.outer", "mod.inner", "mod.caller", "other.boom"]
    assert all(0.0 <= s.duration < 0.04 for s in tracer.spans)
    # The exception is counted where it was raised, not again in its caller.
    assert tracer.counters[-1] == {"probed": 1, "errors.other": 1}


@pytest.fixture(scope="module")
def traced_small(tmp_path_factory):
    """One traced pass of every shrunk workload, all under one tracer."""
    root = tmp_path_factory.mktemp("traced")
    tracer = Tracer(memory=True)
    targets = layers.targets(tracer)
    summaries = {}
    for pass_id, (name, workload) in enumerate(SMALL.items()):
        inputs, out = root / name / "in", root / name / "out"
        inputs.mkdir(parents=True)
        out.mkdir()
        workload.make_inputs(1, inputs)
        tracer.pass_id = pass_id
        tracer.install(targets)
        try:
            codes = [_quiet_run(cli, argv) for argv in workload.commands(1, inputs, out)]
        finally:
            tracer.uninstall()
        assert codes == [0] * len(codes)
        summaries[name] = (tracer.summary(pass_id), tracer.counters[pass_id], inputs, out)
    return tracer, summaries


def test_self_times_are_nonnegative_and_within_the_parent(traced_small):
    tracer, _ = traced_small
    assert len(tracer.spans) > 100
    self_times = tracer.self_times()
    subtree_self = [0.0] * len(tracer.spans)
    for idx in range(len(tracer.spans) - 1, -1, -1):
        span, self_s = tracer.spans[idx], self_times[idx]
        assert -1e-9 <= self_s <= span.duration
        subtree_self[idx] += self_s
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert span.pass_id == parent.pass_id
            subtree_self[span.parent] += subtree_self[idx]
    # The self times of a span's subtree add up to its duration.
    for span, total in zip(tracer.spans, subtree_self):
        assert abs(total - span.duration) < 1e-6


def test_every_per_layer_metric_is_recorded(traced_small):
    _, summaries = traced_small
    for name, rows in layers.LAYER_METRICS.items():
        summary, counters, _, _ = summaries[name]
        for metric, _unit in rows:
            span, _, stat = metric.rpartition(".")
            if stat in ("s", "self_s", "calls") and span != "tracing":
                assert span in summary, f"{name}: no span {span}"
            elif metric != "tracing.overhead_s":
                assert layers.layer_value(metric, summary, counters) > 0, f"{name}: {metric}"


def test_counts_on_the_shrunk_clip(traced_small):
    _, summaries = traced_small
    summary, counters, _, _ = summaries["clip_prep"]
    # diff_seq n=5 computes 4 diffs per target frame, each frame pair 4 times.
    assert summary["frame_pipeline.diff_image"]["calls"] == 12 * 4
    assert layers.layer_value("frame_pipeline.diff_reuse", summary, counters) == 12 / 48
    assert summary["det_metrics.match_detections"]["calls"] == 11


@pytest.mark.parametrize("name", ["clip_prep", "crowded_eval", "roi_pool"])
def test_output_checks_pass_on_traced_outputs(traced_small, name):
    _, summaries = traced_small
    _, _, inputs, out = summaries[name]
    assert SMALL[name].check(1, inputs, out) == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.all_metric_units()
