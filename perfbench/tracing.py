"""Span tracer that wraps motionstack's public functions from outside the package.

``Tracer.install`` replaces each target function with a wrapper in every
``motionstack`` namespace that holds it (the defining module and every module
that imported it by name), and ``Tracer.uninstall`` puts the original objects
back. A wrapper records one span per call: name, start, end, parent span and
pass id. Spans stay in memory until the caller writes them out.

An exception leaving a wrapped call is counted once, under the module of
the innermost wrapped call it left, not again at each wrapped caller it
passes through. Exceptions the program catches inside a wrapped call are
counted too, and failures that ``cli.run`` turns into an exit code are not
raised at all, so the count is no error rate.

Per-call probes (bytes moved, distinct arguments, hinge activity, traced
allocation peaks) run with the span clock paused, so their cost shows up as
tracing overhead in wall time but in no span's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "motionstack"


@dataclass
class Probe:
    """Optional per-call instrumentation for one wrapped function.

    ``name`` maps the call's arguments to a span name (default: the target
    name). ``before`` runs ahead of the call and its return value is handed
    to ``after`` together with the call's result; ``after`` returns a dict
    of counter increments. ``memory`` records the call's tracemalloc peak
    while the tracer's ``memory`` switch is on.
    """

    name: Callable[[tuple, dict], str] | None = None
    before: Callable[[tuple, dict], object] | None = None
    after: Callable[[tuple, dict, object, object], dict] | None = None
    memory: bool = False


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # counters[pass_id][key] accumulates probe output and call errors.
    counters: dict[int, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )
    pass_id: int = -1
    # tracemalloc slows the calls it watches, so allocation peaks are taken
    # in passes of their own, whose span times are not used.
    memory: bool = False
    _stack: list[int] = field(default_factory=list)
    _paused: float = 0.0
    # The exception last counted, so that wrapped callers it passes through skip it.
    _last_error: BaseException | None = None
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def now(self) -> float:
        """Span clock: wall time minus the time spent inside probes."""
        return time.perf_counter() - self._paused

    def _probe(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._paused += time.perf_counter() - t0

    def _count(self, increments: dict) -> None:
        bucket = self.counters[self.pass_id]
        for key, value in increments.items():
            bucket[key] += value

    def _record_peak(self, key: str) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        bucket = self.counters[self.pass_id]
        bucket[key] = max(bucket[key], peak)

    def wrap(self, target: str, fn: Callable, probe: Probe | None = None) -> Callable:
        """A wrapper recording a span for every call of ``fn``."""
        probe = probe or Probe()
        module = target.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = self._probe(probe.name, args, kwargs) if probe.name else target
            state = self._probe(probe.before, args, kwargs) if probe.before else None
            watch_memory = probe.memory and self.memory
            if watch_memory:
                self._probe(tracemalloc.start)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, self.now(), 0.0, parent, self.pass_id))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx].end = self.now()
                if exc is not self._last_error:
                    self._last_error = exc
                    self._probe(self._count, {f"errors.{module}": 1})
                raise
            else:
                self.spans[idx].end = self.now()
            finally:
                self._stack.pop()
                if watch_memory:
                    self._probe(self._record_peak, f"{name}.peak_alloc_bytes")
            if probe.after:
                self._probe(lambda: self._count(probe.after(args, kwargs, result, state)))
            return result

        return wrapper

    def install(self, targets: dict[str, Probe | None]) -> None:
        """Wrap each ``"module.function"`` or ``"module.Class.method"`` target.

        Module-level functions are replaced in every loaded module of the
        package that binds the same object. Methods are replaced on their
        class, keeping a classmethod a classmethod.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for target, probe in targets.items():
                module_name, _, attr = target.partition(".")
                owner = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(target, raw.__func__, probe))
                    else:
                        patched = self.wrap(target, raw, probe)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, patched)
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(target, original, probe)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest patch first."""
        self._last_error = None
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations.

        Calls on one thread nest, so a span's children never overlap.
        """
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.duration
        return out

    def summary(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s`` for one pass."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if span.pass_id != pass_id:
                continue
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += span.duration
            row["self_s"] += self_s
        return out


def public_functions(module) -> list[str]:
    """Names of the public functions a module defines itself (not imports)."""
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_") and value.__module__ == module.__name__
    )
