"""programs: straight-line programs and effect programs on the machine.

Per chain: parse the source, run it, print the final memory.  Per effect
program: encode the call-by-value source, run it (every TRACE_EVERY-th
one is traced instead) from the memory that mirrors the reference
interpreter's state, and print the final memory.  No inference runs here.
"""

from __future__ import annotations

import random

import harness

# Chains stay below the recursion fault of `syntax.size`/`free_vars`,
# which a binder chain of 800 or an arithmetic chain of 500 hits.
LENGTHS = (50, 100, 200, 400)
# Effect programs wanted per quarter-octave band of encoded size (band b
# holds sizes n with floor(4*log2(n)) == b), in proportion to how often
# random_cbv draws each band.  Fixed counts give every seed the same size
# profile, so the median item time does not wander with the seed.  With
# 8 chains and 142 effect programs a round has 150 items, and its 99th
# percentile falls between the binder chains of 100 and 200 actions.
EFFECT_BANDS = {8: 22, 9: 18, 12: 17, 14: 5, 15: 2, 16: 5, 17: 4, 18: 4, 19: 7,
                20: 13, 21: 12, 22: 12, 23: 10, 24: 9, 25: 2}
MAX_EFFECT_CANDIDATES = 5000
TRACE_EVERY = 5
CELLS = ("c", "d")
STREAM = 16


def binder_chain(n: int, c: int) -> str:
    return f"[{c}]." + ".".join(f"<x{i}>.[x{i}]" for i in range(n))


def arith_chain(values: list[int]) -> str:
    return ".".join([f"[{v}]" for v in values] + ["+"] * (len(values) - 1))


def as_int(L, term) -> int | None:
    """The integer a literal term denotes, read off its constant symbol."""
    if not isinstance(term, L.syntax.Const) or not isinstance(term.cont, L.syntax.Nil):
        return None
    try:
        return int(term.sym.name)
    except ValueError:
        return None


def build(L, seed: int, rec):
    rng = random.Random(seed)
    items = []
    for n in LENGTHS:
        c = rng.randint(0, 99)
        items.append(("chain", f"binder.len{n}", binder_chain(n, c), (c, 2 * n + 1)))
        values = [rng.randint(0, 9) for _ in range(n)]
        items.append(("chain", f"arith.len{n}", arith_chain(values), (sum(values), 2 * n - 1)))

    B = L.bridge
    quotas = harness.Quotas(EFFECT_BANDS, per_octave=4)
    kept = 0
    for batch in range(MAX_EFFECT_CANDIDATES // 100):
        for term in L.gen.random_cbv(seed * 1000 + batch, 100):
            state = B.CbvState(store={cell: B.VInt(rng.randint(0, 9)) for cell in CELLS},
                               output=[], input=[rng.randint(0, 99) for _ in range(STREAM)],
                               rnd=[rng.random() < 0.5 for _ in range(STREAM)],
                               nd=[rng.random() < 0.5 for _ in range(STREAM)])
            weight = L.syntax.size(B.encode_cbv(term))
            if not quotas.wants(weight):
                continue
            memory = B.cbv_initial_memory(state)
            try:
                value = B.cbv_eval(term, {}, state)
            except B.CbvStuck:
                continue  # the reference interpreter gets stuck: not a program to run
            quotas.take(weight)
            expected = {
                "out": [v.value for v in state.output] if all(isinstance(v, B.VInt) for v in state.output) else None,
                "cells": {cell: state.store[cell].value for cell in CELLS},
                "main": value.value if isinstance(value, B.VInt) else None,
                "in": list(state.input), "rnd": len(state.rnd), "nd": len(state.nd),
            }
            kept += 1
            kind = "cbv.trace" if kept % TRACE_EVERY == 0 else "cbv"
            items.append(("effect", kind, (term, memory), expected))
        if quotas.full():
            break
    rng.shuffle(items)
    return {"items": items, "order": [L.syntax.MAIN] + [L.syntax.Location(c) for c in CELLS]
            + [L.bridge.IN, L.bridge.OUT, L.bridge.RND, L.bridge.ND]}


def run_round(L, inputs, rec, round_no: int):
    order = inputs["order"]
    for family, kind, source, expected in inputs["items"]:
        if family == "chain":
            def work(src=source, kind=kind):
                term = L.parser.parse_term(src)
                L.count("parser.chars", len(src))
                result = L.machine.run({}, term)
                L.count(f"machine.steps.{kind}", result.steps)
                return (result, L.parser.format_memory(result.memory)), result.steps

            def check(out, kind=kind, expected=expected):
                result, printed = out
                value, steps = expected
                if result.status != "done" or result.steps != steps or printed != f"lam = {value}":
                    rec.wrong(f"{kind}: {result.status} after {result.steps} steps with "
                              f"{printed!r}, expected lam = {value} after {steps}")
        else:
            def work(source=source, kind=kind):
                term, memory = source
                encoded = L.bridge.encode_cbv(term)
                if kind == "cbv.trace":
                    states, result = L.machine.trace(memory, encoded)
                else:
                    states, result = None, L.machine.run(memory, encoded)
                    L.count("machine.steps.cbv", result.steps)
                return (states, result, L.parser.format_memory(result.memory, order)), result.steps

            def check(out, kind=kind, expected=expected):
                states, result, printed = out
                problems = effect_problems(L, result, expected)
                if states is not None and len(states) != result.steps + 1:
                    problems.append(f"trace holds {len(states)} states for {result.steps} steps")
                if problems or not printed:
                    rec.wrong(f"{kind}: " + "; ".join(problems or ["empty printout"]))

        rec.item(L, kind, work, check)


def effect_problems(L, result, expected) -> list[str]:
    """Where a machine run disagrees with the reference interpreter."""
    if result.status != "done":
        return [f"machine {result.status} ({result.reason})"]
    mem = result.memory
    ints = lambda loc: [as_int(L, t) for t in mem.get(loc, ())]
    problems = []
    if expected["out"] is not None and ints(L.bridge.OUT) != expected["out"]:
        problems.append(f"out {ints(L.bridge.OUT)} != {expected['out']}")
    for cell, value in expected["cells"].items():
        if ints(L.syntax.Location(cell)) != [value]:
            problems.append(f"cell {cell} {ints(L.syntax.Location(cell))} != [{value}]")
    main = mem.get(L.syntax.MAIN, ())
    if len(main) != 1 or (expected["main"] is not None and as_int(L, main[0]) != expected["main"]):
        problems.append(f"main stack {ints(L.syntax.MAIN)} != [{expected['main']}]")
    if ints(L.bridge.IN) != expected["in"]:
        problems.append(f"input left {ints(L.bridge.IN)} != {expected['in']}")
    for loc, key in ((L.bridge.RND, "rnd"), (L.bridge.ND, "nd")):
        if len(mem.get(loc, ())) != expected[key]:
            problems.append(f"{key} depth {len(mem.get(loc, ()))} != {expected[key]}")
    return problems
