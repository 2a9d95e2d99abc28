"""motionstack benchmark: whole CLI jobs, timed in-process, on seeded inputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clip_prep --seed 1 --seconds 5 --trace 0

One run sets up the workload's inputs from the seed, then runs passes back
to back (a closed loop with one client, BLAS threads left at their default)
until ``--seconds`` have gone by and at least three passes are done. A pass
is the workload's fixed sequence of ``motionstack`` subcommands, each called
through ``motionstack.cli.run(argv)``, so flag parsing, file parsing,
validation and report writing are all inside the timing. Every pass must
write byte-identical files, and the last pass's outputs are checked against
independent references.

``--trace 0`` prints the end-to-end metrics of the workload. ``--trace 1``
prints the per-layer metrics instead: it sets up all four workloads and, per
round, runs each one once plainly and once with motionstack's public
functions wrapped in spans (see ``layers.py``); the difference of the two
pass times is the tracing overhead. Workloads with allocation-peak metrics
run a third pass with tracemalloc on, whose times are not used. Per-layer
metric names carry the workload they were measured on, so one traced run
covers them all, whichever ``--workload`` is named.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts subcommand
calls and ``failed`` those that exited non-zero or failed an output check.
A full report, with the machine and provenance, goes to
``.perfbench/results/``; traced runs also write their spans there.

Seed ``HELD_OUT_SEED`` is reserved for confirming a claimed gain: do not
tune against it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
from tracing import Tracer
from workloads import ROOT, WORKLOADS

SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
HELD_OUT_SEED = 9173
SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60
# A run must end within 180 s; no pass or round starts that would end past this.
DEADLINE_S = 150.0
STARTED = time.monotonic()

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with a non-zero exit."""


def import_program():
    """Import motionstack from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "motionstack"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no motionstack sources at {package}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise BenchError("tests/oracles.py, which referees the outputs, is missing")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    from motionstack import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported motionstack from {cli.__file__}, not from {package}")
    return cli


def digest(path: Path) -> str:
    """Hash of every file under ``path``: relative names and contents.

    Each file is also flushed to disk, so that writeback of one pass's
    outputs does not spill into the timing of the next.
    """
    h = hashlib.sha1()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        with open(f, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
            os.fsync(fh.fileno())
    return h.hexdigest()


def setup(name: str, seed: int, work: Path, repeats: int) -> tuple[Path, list[float], bool]:
    """Run ``repeats`` set-ups, each a fresh interpreter writing the inputs.

    Returns the last input directory, each set-up's wall time, and whether
    every set-up wrote identical inputs.
    """
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times, digests = [], []
    target = None
    for k in range(repeats):
        if target is not None:
            shutil.rmtree(target)
        target = work / f"inputs-{name}-{k}"
        argv = [sys.executable, str(BENCH_DIR / "workloads.py"), name, str(seed), str(target)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up of {name} took over {SETUP_TIMEOUT_S} s") from None
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up of {name} failed:\n{proc.stderr}")
        digests.append(digest(target))
    return target, times, len(set(digests)) == 1


@dataclass
class Pass:
    wall: float
    cpu: float
    codes: list[int]
    digest: str
    errors: list[str]


def one_pass(cli, commands: list[list[str]], out: Path) -> Pass:
    """Run one pass of subcommands into a fresh ``out``; only the calls are timed."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    codes, errors = [], []
    # Start every pass with no garbage left from the one before.
    gc.collect()
    t0 = time.perf_counter()
    c0 = time.process_time()
    for argv in commands:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.run(argv)
        except Exception:  # a crash is a failed subcommand, not a failed benchmark
            code = -1
            sink.write(traceback.format_exc())
        codes.append(code)
        if code != 0:
            errors.append(f"{' '.join(argv[:2])} exited {code}: {sink.getvalue().strip()}")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return Pass(wall, cpu, codes, digest(out), errors)


class Tally:
    """Subcommands attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.messages: list[str] = []

    def add_pass(self, p: Pass, reference: str) -> None:
        self.attempted += len(p.codes)
        self.messages += p.errors
        if p.digest != reference:
            self.messages.append("outputs differ from the first pass")

    @property
    def failed(self) -> int:
        return min(len(self.messages), self.attempted)


def checked(workload, seed: int, inputs: Path, out: Path) -> list[str]:
    """The workload's output check; a check that crashes counts as failed."""
    try:
        return workload.check(seed, inputs, out)
    except Exception:
        return [f"{workload.name} check crashed:\n{traceback.format_exc()}"]


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own git repository; None if it is not one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def time_left(next_step_s: float) -> bool:
    """Whether a step of this length, started now, ends before the deadline."""
    return time.monotonic() - STARTED + next_step_s < DEADLINE_S


def measure(cli, name: str, seed: int, seconds: float, work: Path) -> tuple[dict, Tally, dict]:
    """Untraced run of one workload: end-to-end metrics, tally, report details."""
    workload = WORKLOADS[name]
    inputs, setup_times, same_inputs = setup(name, seed, work, SETUP_REPEATS)
    tally = Tally()
    if not same_inputs:
        tally.messages.append("set-ups from one seed wrote different inputs")
    out = work / f"out-{name}"
    commands = workload.commands(seed, inputs, out)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if passes and not time_left(passes[-1].wall):
            break
        passes.append(one_pass(cli, commands, out))
        tally.add_pass(passes[-1], passes[0].digest)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.messages += checked(workload, seed, inputs, out)

    metrics = {
        "items_per_s": workload.items * len(passes) / sum(p.wall for p in passes),
        "job_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_times),
    }
    details = {
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "setup_times_s": setup_times,
        "rss_before_passes_mb": rss_before,
    }
    return metrics, tally, details


def traced_one_pass(cli, tracer: Tracer, targets: dict, commands: list[list[str]], out: Path,
                    memory: bool) -> Pass:
    """One pass with the wrappers installed, under a fresh pass id."""
    tracer.pass_id += 1
    tracer.memory = memory
    tracer.install(targets)
    try:
        return one_pass(cli, commands, out)
    finally:
        tracer.uninstall()


def trace(cli, seed: int, seconds: float, work: Path) -> tuple[dict, Tally, dict, Tracer]:
    """Traced run over every workload: per-layer metrics, tally, report details."""
    inputs = {name: setup(name, seed, work, 1)[0] for name in WORKLOADS}
    tracer = Tracer()
    targets = layers.targets(tracer)
    tally = Tally()
    traced: dict[str, list] = {name: [] for name in WORKLOADS}
    errors: dict[str, dict[str, float]] = {name: {} for name in WORKLOADS}
    overheads: dict[str, list[float]] = {name: [] for name in WORKLOADS}
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        for name, workload in WORKLOADS.items():
            out = work / f"out-{name}"
            commands = workload.commands(seed, inputs[name], out)
            plain = one_pass(cli, commands, out)
            traced_pass = traced_one_pass(cli, tracer, targets, commands, out, memory=False)
            summary, counters = tracer.summary(tracer.pass_id), tracer.counters[tracer.pass_id]
            for key, value in counters.items():
                if key.startswith("errors."):
                    errors[name][key] = errors[name].get(key, 0) + value
            passes = [plain, traced_pass]
            if layers.needs_memory_pass(name):
                passes.append(traced_one_pass(cli, tracer, targets, commands, out, memory=True))
                counters = {**counters, **tracer.counters[tracer.pass_id]}
            for p in passes:
                tally.add_pass(p, first_digest.setdefault(name, plain.digest))
            traced[name].append((summary, counters))
            overheads[name].append(traced_pass.wall - plain.wall)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or not time_left(elapsed / rounds):
            break
    for name, workload in WORKLOADS.items():
        tally.messages += checked(workload, seed, inputs[name], work / f"out-{name}")

    metrics = {}
    for name in WORKLOADS:
        metrics.update(layers.per_layer(name, traced[name], overheads[name]))
    # Exceptions that left wrapped calls, per workload and module, summed over
    # the timed traced passes. They are no error rate: see tracing.py.
    details = {"rounds": rounds, "errors_by_module": errors, "overhead_s": overheads}
    return metrics, tally, details, tracer


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                 "pass": s.pass_id}) + "\n")


def print_end_to_end(name: str, seed: int, metrics: dict, tally: Tally, details: dict) -> None:
    w = WORKLOADS[name]
    n = len(details["pass_wall_s"])
    print(f"{name}  seed={seed}  {n} passes, closed loop, 1 client, default BLAS threads")
    print(f"  items_per_s  {metrics['items_per_s']:12.3f} items/s  "
          f"(item = {w.item}, {w.items} per pass, over all passes)")
    print(f"  job_s        {metrics['job_s']:12.4f} s        (median of {n} passes; "
          "no high percentile, fewer than 10 samples beyond any)")
    print(f"  cpu_s        {metrics['cpu_s']:12.4f} s        (median user+sys per pass, all threads)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:12.1f} MiB      "
          f"(before the passes: {details['rss_before_passes_mb']:.1f} MiB)")
    print(f"  setup_s      {metrics['setup_s']:12.4f} s        (median of {SETUP_REPEATS} set-ups, "
          "each a fresh interpreter importing motionstack and writing the inputs)")
    print(f"  error_rate   {tally.failed / tally.attempted:12.4f} ratio    "
          f"({tally.failed} of {tally.attempted} subcommands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    (STATE / "results").mkdir(parents=True, exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, tally, details, tracer = trace(cli, args.seed, args.seconds, work)
            units = layers.all_metric_units()
            write_spans(tracer, STATE / "results" / f"spans-seed{args.seed}.jsonl")
            for key, value in metrics.items():
                print(f"  {key:58s} {value:14.6f} {units[key]}")
        else:
            metrics, tally, details = measure(cli, args.workload, args.seed, args.seconds, work)
            units = END_TO_END_UNITS
            print_end_to_end(args.workload, args.seed, metrics, tally, details)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = provenance()
    for message in tally.messages:
        print(f"  FAILED: {message}")
    print("provenance " + json.dumps(machine))
    result = {
        "correct": not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "held_out_seed": HELD_OUT_SEED, "machine": machine,
              "failures": tally.messages, "details": details}
    report_path = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
