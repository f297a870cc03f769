"""Shared machinery of the benchmark: layer access, tracing, item records.

A workload never imports `fmclab` itself.  It receives a `Layers` object
whose attributes are the layer modules (`L.machine`, `L.typesys`, ...).
Untraced, those are the modules themselves.  Traced, each one is a proxy
whose public functions record a span around every call the benchmark
makes; calls the program makes internally are not seen.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gen", "parser", "syntax", "machine", "typesys", "measure",
          "reduction", "equivalence", "bridge", "lambda_calc")


class Tracer:
    """Spans (id, parent, name, start_ns, end_ns) and counts, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def self_times(self, ranges) -> dict[tuple[str, str], float]:
        """Seconds of self time per (span name, parent span name), over the
        spans whose indices fall in the given [start, end) ranges."""
        out: dict = defaultdict(float)
        for lo, hi in ranges:
            child_ns: dict = defaultdict(int)
            for _, parent, _, start, end in self.spans[lo:hi]:
                child_ns[parent] += end - start
            for sid, parent, name, start, end in self.spans[lo:hi]:
                pname = self.spans[parent][2] if parent >= 0 else ""
                out[(name, pname)] += (end - start - child_ns[sid]) / 1e9
        return out


class _TracedModule:
    """A module whose public functions record a span per call."""

    def __init__(self, module, layer: str, tracer: Tracer):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                obj = _spanned(tracer, f"{layer}.{name}", obj)
            setattr(self, name, obj)


def _spanned(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)
    return call


class Layers:
    """The layer modules, plain or traced, plus span and count hooks.

    `call` records a span around a call that is not a module function (a
    method, or the consumption of a generator); `count` records work done
    at a layer boundary.  Both cost one function call when untraced.
    """

    def __init__(self, modules: dict, tracer: Tracer | None = None):
        self.tracer = tracer
        for layer, module in modules.items():
            setattr(self, layer, module if tracer is None else _TracedModule(module, layer, tracer))

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def count(self, name: str, n: int = 1):
        if self.tracer is not None:
            self.tracer.counts[name] += n


def import_layers(src_dir: str) -> dict:
    """Import every layer afresh from `src_dir`, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "fmclab" or m.startswith("fmclab.")]:
        del sys.modules[name]
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"fmclab.{layer}") for layer in LAYERS}
    origin = inspect.getfile(sys.modules["fmclab"])
    if not origin.startswith(src_dir):
        raise ImportError(f"fmclab imported from {origin}, not from {src_dir}")
    return modules


class Record:
    """Outcome of the timed phase: per-item times and steps (None for an
    item that failed), failures, and wrong outputs."""

    def __init__(self, name: str):
        self.name = name
        self.times: list[float | None] = []
        self.steps: list[int] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def correct(self) -> bool:
        return not self.problems

    def item(self, L: Layers, kind: str, work, check):
        """Time `work()` (which returns (result, steps)), then run `check(result)`.

        An exception from `work` counts the item as failed; a false
        expectation inside `check` marks the run incorrect.
        """
        start = time.perf_counter()
        try:
            result, steps = L.call(f"item.{kind}", work)
        except Exception as exc:  # the program's fault on this item: count it, go on
            self.times.append(None)
            self.steps.append(0)
            self.failed += 1
            if self.failed <= 5:
                print(f"[{self.name}] failed: {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        self.times.append(time.perf_counter() - start)
        self.steps.append(steps)
        try:
            L.call(f"check.{kind}", check, result)
        except Exception as exc:  # a check that cannot even be evaluated is a wrong output
            self.wrong(f"{kind}: check raised {type(exc).__name__}: {exc}")

    def expect(self, ok: bool, what: str):
        if not ok:
            self.wrong(what)

    def wrong(self, what: str):
        self.problems.append(what)
        if len(self.problems) <= 5:
            print(f"[{self.name}] wrong: {what}", file=sys.stderr)


class Quotas:
    """How many items each weight band still takes.

    Weights are split into bands `per_octave` to an octave (band b holds
    weights w with floor(per_octave * log2(w)) == b).  Filling fixed counts
    per band gives every seed inputs of nearly the same weight profile, so
    that a round costs about the same whatever the seed.
    """

    def __init__(self, counts: dict[int, int], per_octave: int):
        self.left = dict(counts)
        self.per_octave = per_octave

    def band(self, weight: int) -> int:
        return int(self.per_octave * math.log2(weight))

    def wants(self, weight: int) -> bool:
        return self.left.get(self.band(weight), 0) > 0

    def take(self, weight: int):
        self.left[self.band(weight)] -= 1

    def full(self) -> bool:
        return all(n <= 0 for n in self.left.values())

