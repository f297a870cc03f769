"""runlength: the run-length identity over every closed term up to a size.

Mirrors acceptance criterion 8 at a size one process covers in seconds.
Per term: derive a lean typing, predict the machine's step count from it,
and run the machine on the least input memory of the derived type.
"""

from __future__ import annotations

import random
from functools import lru_cache

MAX_SIZE = 9


@lru_cache(maxsize=None)
def count_terms(n: int, k: int) -> int:
    """Closed constant-free one-location terms of size exactly n with k
    variables in scope: nil; a variable then a term; a pop then a term with
    one more variable; a push of an argument then a term."""
    if n == 1:
        return 1
    return (k * count_terms(n - 1, k) + count_terms(n - 1, k + 1)
            + sum(count_terms(a, k) * count_terms(n - 1 - a, k) for a in range(1, n - 1)))


def build(L, seed: int, rec):
    terms = L.call("gen.enumerate_closed_terms",
                   lambda: list(L.gen.enumerate_closed_terms(MAX_SIZE)))
    L.count("gen.terms", len(terms))
    expected = sum(count_terms(n, 0) for n in range(1, MAX_SIZE + 1))
    rec.expect(len(terms) == expected,
               f"enumerated {len(terms)} terms of size <= {MAX_SIZE}, recurrence gives {expected}")
    random.Random(seed).shuffle(terms)
    return {"terms": terms, "typed": []}


def run_round(L, inputs, rec, round_no: int):
    untyped = L.typesys.TypeCheckError
    typed = 0

    for t in inputs["terms"]:
        def work(t=t):
            L.count("typesys.attempted")
            try:
                lean = L.measure.lean_run_length_derivation(t)
            except untyped:
                return None, 0
            L.count("typesys.accepted")
            predicted = L.measure.machine_run_length(lean)
            result = L.machine.run(L.measure.least_input_memory(lean.ty), t, fuel=10**6)
            return (predicted, result), result.steps

        def check(out):
            nonlocal typed
            if out is None:
                return
            typed += 1
            predicted, result = out
            if result.status != "done" or result.steps != predicted:
                rec.wrong(f"{L.parser.print_term(t)}: predicted {predicted} steps, "
                          f"machine {result.status} after {result.steps}")

        rec.item(L, "term", work, check)

    # inference is deterministic: every round types the same terms
    inputs["typed"].append(typed)
    rec.expect(typed == inputs["typed"][0],
               f"round {round_no} typed {typed} terms, round 0 typed {inputs['typed'][0]}")
