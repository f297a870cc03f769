"""laws: the equational theory and the lambda round trip.

Per law instance: test the two sides for machine equivalence (criterion 9:
the six laws and the derived product and exponent laws), and run the left
side on the machine from the first input memory that test tries.  Per
negative control: the same test on a pair known to differ, which must come
out distinguished.  Per round trip (criterion 10): translate a typed
lambda-term into the calculus, infer its derivation at the translated
type, translate back, compare up to beta-eta, and run the translation on
the machine.
"""

from __future__ import annotations

import random

LAW_INSTANCES = 60
DERIVED_INSTANCES = 30
ROUND_TRIPS = 150
LAMBDA_MAX_SIZE = 15


def build(L, seed: int, rec):
    E, S, T = L.equivalence, L.syntax, L.typesys
    p, Z = L.parser.parse_term, T.Base("Z")
    law_budget, derived_budget = E.TestBudget(size=7, points=8), E.TestBudget(points=6)
    laws, controls = [], []

    for i, law in enumerate(E.EqnLaw):
        instances = L.gen.random_law_instances(seed * 100 + i, law, LAW_INSTANCES)
        laws += [(law.value, inst.lhs, inst.rhs, inst.ty, law_budget) for inst in instances]
        if instances:
            first = instances[0]
            controls.append((first.lhs, mutate(L, first.rhs, first.ty), first.ty, law_budget))

    rng = random.Random(seed)
    one = T.Vector((Z,))
    pi1, pi2 = E.ccc_combinator("pi1", one, one), E.ccc_combinator("pi2", one, one)
    eps = E.ccc_combinator("eps")
    z_to_z = E.arrow_on_main(one, one)
    derived = {
        "product-existence-1": (z_to_z, z_to_z, lambda f, g: (
            S.compose(E.ccc_combinator("pair", f, g, one, one), pi1), f, z_to_z)),
        "product-existence-2": (z_to_z, z_to_z, lambda f, g: (
            S.compose(E.ccc_combinator("pair", f, g, one, one), pi2), g, z_to_z)),
        "product-uniqueness": (E.arrow_on_main(one, T.Vector((Z, Z))), None, lambda f, _: (
            f, E.ccc_combinator("pair", S.compose(f, pi1), S.compose(f, pi2), one, one),
            E.arrow_on_main(one, T.Vector((Z, Z))))),
        "exponent-existence": (E.arrow_on_main(T.Vector((Z, Z)), one), None, lambda m, _: (
            S.compose(E.ccc_combinator("curry", m, one), eps), m,
            E.arrow_on_main(T.Vector((Z, Z)), one))),
        "exponent-uniqueness": (E.arrow_on_main(one, T.Vector((z_to_z,))), None, lambda n, _: (
            E.ccc_combinator("curry", S.compose(n, eps), one), n,
            E.arrow_on_main(one, T.Vector((z_to_z,))))),
    }
    for name, (ty_f, ty_g, make) in derived.items():
        made = []
        while len(made) < DERIVED_INSTANCES:
            f = L.gen.random_closed_term_of(rng, ty_f)
            g = L.gen.random_closed_term_of(rng, ty_g) if ty_g is not None else True
            if f is not None and g is not None:
                made.append(make(f, g))
        laws += [(name, lhs, rhs, ty, derived_budget) for lhs, rhs, ty in made]
        lhs, rhs, ty = made[0]
        controls.append((lhs, mutate(L, rhs, ty), ty, derived_budget))
    controls.append((p("[1]"), p("[2]"), L.parser.parse_type("> Z"), law_budget))

    trips = []
    for lam, lty in L.gen.random_lambda_corpus(seed, ROUND_TRIPS, max_size=LAMBDA_MAX_SIZE):
        vec = L.bridge.lambda_type_vector(lty)
        trips.append((lam, lty, T.Arrow(T.mem({}), T.mem({S.MAIN: T.Vector(vec)})), len(vec)))

    items = ([("law",) + law + (first_point(L, law[3]),) for law in laws]
             + [("control", "control") + c + (None,) for c in controls]
             + [("trip", "roundtrip", trip) for trip in trips])
    rng.shuffle(items)
    return {"items": items}


def first_point(L, ty):
    """The first input memory `machine_equiv` tries at this type: the first
    canonical inhabitant of every input slot."""
    memory = {}
    for loc, vec in ty.input.entries:
        for slot in vec.items:
            memory[loc] = memory.get(loc, ()) + ((L.equivalence.inhabitants(slot, 7) or [L.syntax.NIL])[0],)
    return memory


def mutate(L, rhs, ty):
    """A right-hand side that must differ from the left: the top integer
    output is incremented, or else the main stack gets one extra value."""
    out = ty.output.get(L.syntax.MAIN).items
    if out and out[-1] == L.typesys.Base("Z"):
        return L.syntax.compose(rhs, L.parser.parse_term("<mz>.[mz].[1].+"))
    return L.syntax.compose(rhs, L.parser.parse_term("[7]"))


def run_round(L, inputs, rec, round_no: int):
    E = L.equivalence
    for item in inputs["items"]:
        family, kind = item[0], item[1]
        if family in ("law", "control"):
            def work(lhs=item[2], rhs=item[3], ty=item[4], budget=item[5], memory=item[6]):
                verdict = E.machine_equiv(lhs, rhs, ty, budget)
                L.count("equivalence.points", verdict.points)
                result = L.machine.run(memory, lhs) if memory is not None else None
                return (verdict, result), result.steps if result is not None else 0

            def check(out, item=item):
                verdict, result = out
                if verdict.distinguished != (item[0] == "control"):
                    rec.wrong(f"{item[1]}: {L.parser.print_term(item[2])} vs "
                              f"{L.parser.print_term(item[3])} at {L.parser.print_type(item[4])}: "
                              f"distinguished={verdict.distinguished} {verdict.detail}")
                if result is not None:
                    width = len(item[4].output.get(L.syntax.MAIN).items)
                    if result.status != "done" or len(result.memory.get(L.syntax.MAIN, ())) != width:
                        rec.wrong(f"{item[1]}: {L.parser.print_term(item[2])} {result.status} "
                                  f"({result.reason}) from its first input, {width} outputs expected")
        else:
            def work(trip=item[2]):
                lam, lty, ty, _ = trip
                fmc = L.bridge.lambda_to_fmc(lam, [], lty)
                deriv = L.typesys.check_infer({}, fmc, ty)
                back, _ = L.bridge.fmc_to_lambda_closed(deriv)
                same = L.lambda_calc.lambda_beta_eta_eq(back, lam, lty)
                result = L.machine.run({}, fmc)
                return (same, result), result.steps

            def check(out, trip=item[2]):
                same, result = out
                width = len(result.memory.get(L.syntax.MAIN, ()))
                if not same or result.status != "done" or width != trip[3]:
                    rec.wrong(f"round trip of {L.lambda_calc.print_lambda(trip[0])}: "
                              f"beta-eta equal {same}, machine {result.status} "
                              f"with {width} of {trip[3]} values")

        rec.item(L, kind, work, check)
