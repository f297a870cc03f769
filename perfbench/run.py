"""Benchmark of fmclab: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload runlength --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; `fmclab` is imported from its `src/`.
One workload runs in one single-threaded process.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed`
and `metrics` (every end-to-end metric untraced, every per-layer metric
traced).  `--workload all` runs the four workloads one after another,
each in its own process, and prints one such line per workload before a
combined one.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import harness
import wl_laws
import wl_programs
import wl_rewrite
import wl_runlength

WORKLOADS = {"runlength": wl_runlength, "programs": wl_programs,
             "rewrite": wl_rewrite, "laws": wl_laws}
SETUP_REPEATS = 7
MIN_ITEMS = 1000
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

CHAIN_KINDS = [f"{family}.len{n}" for family in ("binder", "arith") for n in wl_programs.LENGTHS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import fmclab from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    rec = harness.Record(name)
    tracer = harness.Tracer() if traced else None

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = harness.import_layers(SRC)
        L = harness.Layers(modules, tracer)
        inputs = L.call("setup", wl.build, L, seed, rec)
        setup_times.append(time.perf_counter() - start)

    plain = harness.Layers(modules)
    traced_layers = harness.Layers(modules, tracer) if traced else None
    rounds = []  # (index of its first item, traced) of each round
    round_spans = []  # index ranges of the spans recorded in traced rounds
    start = time.perf_counter()
    round_no = 0
    while True:
        use_trace = traced and round_no % 2 == 1
        rounds.append((rec.attempted, use_trace))
        first_span = len(tracer.spans) if traced else 0
        wl.run_round(traced_layers if use_trace else plain, inputs, rec, round_no)
        if use_trace:
            round_spans.append((first_span, len(tracer.spans)))
        round_no += 1
        if (time.perf_counter() - start >= seconds and rec.attempted >= MIN_ITEMS
                and (not traced or round_spans)):
            break

    if traced:
        metrics = per_layer_metrics(tracer, round_spans, rec, rounds)
        write_trace(name, seed, tracer)
    else:
        metrics = end_to_end_metrics(rec, rounds, setup_times)
    print(f"[{name}] seed {seed}: {round_no} rounds, {rec.attempted} items, "
          f"{time.perf_counter() - start:.1f} s timed phase", file=sys.stderr)
    return {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def item_timings(rec: harness.Record, rounds, traced: bool) -> list[tuple[float, int]]:
    """(time, steps) of every item that did not fail, over all the rounds
    of the run of the given kind (traced or not)."""
    ends = [first for first, _ in rounds[1:]] + [rec.attempted]
    out = []
    for (first, kind), end in zip(rounds, ends):
        if kind == traced:
            out.extend((t, n) for t, n in zip(rec.times[first:end], rec.steps[first:end]) if t is not None)
    return out


def end_to_end_metrics(rec: harness.Record, rounds, setup_times: list[float]) -> dict:
    """Rates and latencies over every item timed in the run's timed phase."""
    timed = item_timings(rec, rounds, False)
    times = [t for t, _ in timed]
    busy = sum(times)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(times) / busy, "items/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_p99_ms": (statistics.quantiles(times, n=100, method="inclusive")[98] * 1e3, "ms"),
        "steps_per_s": (sum(n for _, n in timed) / busy, "steps/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tracer: harness.Tracer, round_spans, rec: harness.Record, rounds) -> dict:
    """Per-layer metrics from the traced rounds; times are seconds of self
    time per round.  A layer this workload does not call reads 0."""
    traced_rounds = len(round_spans)
    by_name_parent = tracer.self_times(ranges=round_spans)
    setup_table = tracer.self_times(ranges=[(0, round_spans[0][0])])
    counts = tracer.counts

    def self_s(*names, parent=None, table=by_name_parent):
        return sum(v for (n, p), v in table.items() if n in names and (parent is None or p == parent))

    def per_round(*names):
        return self_s(*names) / traced_rounds

    def rate(count, *names, parent=None, table=by_name_parent):
        busy = self_s(*names, parent=parent, table=table)
        return counts[count] / busy if busy else 0.0

    m = {
        "gen.terms_per_s": (rate("gen.terms", "gen.enumerate_closed_terms", table=setup_table), "terms/s"),
        "typesys.derive_s": (per_round("measure.lean_run_length_derivation"), "s"),
        "typesys.accepted_ratio": (counts["typesys.accepted"] / counts["typesys.attempted"]
                                   if counts["typesys.attempted"] else 0.0, "ratio"),
        "typesys.typed_terms": (counts["typesys.accepted"] / traced_rounds, "count"),
        "typesys.check_infer_s": (per_round("typesys.check_infer"), "s"),
        "measure.predict_s": (per_round("measure.machine_run_length", "measure.least_input_memory"), "s"),
        "machine.run_s": (per_round("machine.run"), "s"),
        "machine.trace_s": (per_round("machine.trace"), "s"),
    }
    for kind in CHAIN_KINDS + ["cbv"]:
        m[f"machine.steps_per_s.{kind}"] = (
            rate(f"machine.steps.{kind}", "machine.run", parent=f"item.{kind}"), "steps/s")
    m.update({
        "parser.parse_s": (per_round("parser.parse_term"), "s"),
        "parser.chars_per_s": (rate("parser.chars", "parser.parse_term"), "chars/s"),
        "parser.print_s": (per_round("parser.format_memory"), "s"),
        "reduction.graph_s": (per_round("reduction.reduction_graph"), "s"),
        "reduction.nodes_per_s": (rate("reduction.nodes", "reduction.reduction_graph"), "nodes/s"),
        "reduction.normalize_s": (per_round("reduction.normalize"), "s"),
        "reduction.perm_class_s": (per_round("reduction.perm_class"), "s"),
        "reduction.perm_terms_per_s": (rate("reduction.perm_terms", "reduction.perm_class"), "terms/s"),
        "syntax.canonical_key_s": (per_round("syntax.canonical_key"), "s"),
        "syntax.alpha_eq_s": (per_round("syntax.alpha_eq"), "s"),
        "equivalence.machine_equiv_s": (per_round("equivalence.machine_equiv"), "s"),
        "equivalence.points_per_s": (rate("equivalence.points", "equivalence.machine_equiv"), "points/s"),
        "bridge.to_fmc_s": (per_round("bridge.lambda_to_fmc"), "s"),
        "bridge.to_lambda_s": (per_round("bridge.fmc_to_lambda_closed"), "s"),
        "lambda_calc.beta_eta_eq_s": (per_round("lambda_calc.lambda_beta_eta_eq"), "s"),
        "trace.overhead_pct": (overhead_pct(rec, rounds), "%"),
    })
    return m


def overhead_pct(rec: harness.Record, rounds) -> float:
    """How much longer a round takes traced than untraced, in percent."""
    busy = {flag: sum(t for t, _ in item_timings(rec, rounds, flag))
                  / sum(1 for _, kind in rounds if kind == flag) for flag in (False, True)}
    return (busy[True] / busy[False] - 1) * 100


def write_trace(name: str, seed: int, tracer: harness.Tracer):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    print(f"[{name}] {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
