"""Seeded generators and enumerators for test corpora."""

from __future__ import annotations

import random
from typing import Iterator, Optional

from . import bridge
from .equivalence import inhabitants
from .lambda_calc import (
    LambdaTerm,
    LambdaType,
    LApp,
    LArrow,
    LBase,
    LLam,
    LProd,
    LTuple,
    LVar,
    PTuple,
    PVar,
    lsize,
)
from .syntax import (
    MAIN,
    NIL,
    Location,
    Pop,
    Push,
    SeqVar,
    Term,
    size,
    var,
)
from .typesys import (
    Arrow,
    Base,
    Scheme,
    SimpleType,
    TypeCheckError,
    Vector,
    infer,
    mem,
)

LOC_A = Location("a")


# -- random raw terms, filtered by inference ----------------------------------------

def random_term(rng: random.Random, budget: int, scope: tuple[str, ...],
                locs: tuple[Location, ...] = (MAIN,), depth: int = 0) -> Term:
    if budget <= 1:
        if scope and rng.random() < 0.5:
            return var(rng.choice(scope))
        return NIL
    roll = rng.random()
    if roll < 0.30:
        loc = rng.choice(locs)
        name = f"b{depth}"
        return Pop(loc, name, random_term(rng, budget - 1, scope + (name,), locs, depth + 1))
    if roll < 0.62:
        loc = rng.choice(locs)
        arg_budget = rng.randint(1, max(1, min(budget - 2, 5)))
        arg = random_term(rng, arg_budget, scope, locs, depth + 1)
        return Push(arg, loc, random_term(rng, budget - 1 - size(arg), scope, locs, depth))
    if roll < 0.82 and scope:
        return SeqVar(rng.choice(scope), random_term(rng, budget - 1, scope, locs, depth))
    return NIL


def random_typed_terms(seed: int, count: int, max_size: int = 20,
                       locs: tuple[Location, ...] = (MAIN, LOC_A),
                       max_tries: int = 200000) -> list[tuple[Term, Scheme]]:
    """Closed constant-free terms accepted by inference, deduplicated."""
    rng = random.Random(seed)
    out: list[tuple[Term, Scheme]] = []
    seen = set()
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        t = random_term(rng, rng.randint(2, max_size), ())
        if size(t) > max_size:
            continue
        if t in seen:
            continue
        seen.add(t)
        try:
            scheme = infer({}, t)
        except TypeCheckError:
            continue
        out.append((t, scheme))
    return out


# -- exhaustive enumeration of closed terms -------------------------------------------

def enumerate_closed_terms(max_size: int, locs: tuple[Location, ...] = (MAIN,)) -> Iterator[Term]:
    """All closed constant-free terms up to the size bound, binders named
    positionally."""
    memo: dict[tuple[int, int], list[Term]] = {}

    def terms(n: int, k: int) -> list[Term]:
        key = (n, k)
        if key in memo:
            return memo[key]
        out: list[Term] = []
        if n == 1:
            out.append(NIL)
        if n >= 2:
            for i in range(k):
                for cont in terms(n - 1, k):
                    out.append(SeqVar(f"e{i}", cont))
            for loc in locs:
                for cont in terms(n - 1, k + 1):
                    out.append(Pop(loc, f"e{k}", cont))
            for arg_size in range(1, n - 1):
                for arg in terms(arg_size, k):
                    for loc in locs:
                        for cont in terms(n - 1 - arg_size, k):
                            out.append(Push(arg, loc, cont))
        memo[key] = out
        return out

    for n in range(1, max_size + 1):
        yield from terms(n, 0)


# -- random ground types and typed closed inhabitants ----------------------------------

def random_simple_type(rng: random.Random, depth: int = 2, bases=("Z",),
                       allow_base: bool = True) -> SimpleType:
    if depth <= 0 or rng.random() < (0.55 if allow_base else 0.0):
        if allow_base:
            return Base(rng.choice(bases))
        return Arrow(mem({}), mem({}))
    return Arrow(mem({MAIN: random_vector(rng, depth - 1, 2, bases, allow_base)}),
                 mem({MAIN: random_vector(rng, depth - 1, 2, bases, allow_base)}))


def random_vector(rng: random.Random, depth: int = 1, max_len: int = 2,
                  bases=("Z",), allow_base: bool = True) -> Vector:
    return Vector(tuple(random_simple_type(rng, depth, bases, allow_base)
                        for _ in range(rng.randint(0, max_len))))


def random_closed_term_of(rng: random.Random, ty: Arrow, size_bound: int = 9) -> Optional[Term]:
    """A random closed inhabitant: canonical candidates, randomly chosen."""
    options = inhabitants(ty, size_bound, limit=8)
    if not options:
        return None
    return rng.choice(options)


# -- random typed lambda-terms ------------------------------------------------------------

def random_lambda_type(rng: random.Random, depth: int = 2, bases=("o", "p")) -> LambdaType:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return LBase(rng.choice(bases))
    if roll < 0.75:
        return LArrow(random_lambda_type(rng, depth - 1, bases),
                      random_lambda_type(rng, depth - 1, bases))
    # flat products only: components are bases or arrows
    n = rng.randint(2, 3)
    comps = []
    for _ in range(n):
        if rng.random() < 0.7:
            comps.append(LBase(rng.choice(bases)))
        else:
            comps.append(LArrow(random_lambda_type(rng, 0, bases),
                                random_lambda_type(rng, 0, bases)))
    return LProd(tuple(comps))


def random_typed_lambda(rng: random.Random, ty: LambdaType,
                        ctx: list[tuple[str, LambdaType]], budget: int) -> Optional[LambdaTerm]:
    """Type-directed generation of a well-typed lambda-term."""
    matching = [x for x, t in ctx if t == ty]
    choices = []
    if matching:
        choices.append("var")
    if isinstance(ty, LArrow):
        choices.append("lam")
    if isinstance(ty, LProd):
        choices.append("tuple")
    if budget > 4:
        choices.append("app")
    if not choices:
        return None
    rng.shuffle(choices)
    for choice in choices:
        if choice == "var":
            return LVar(rng.choice(matching))
        if choice == "lam" and isinstance(ty, LArrow):
            x = f"v{len(ctx)}"
            if isinstance(ty.dom, LProd) and rng.random() < 0.7:
                names = [f"v{len(ctx)}_{i}" for i in range(len(ty.dom.items))]
                inner = list(zip(names, ty.dom.items)) + ctx
                body = random_typed_lambda(rng, ty.cod, inner, budget - 1 - len(names))
                if body is None:
                    continue
                return LLam(PTuple(tuple(PVar(n) for n in names)), body)
            body = random_typed_lambda(rng, ty.cod, [(x, ty.dom)] + ctx, budget - 2)
            if body is None:
                continue
            return LLam(PVar(x), body)
        if choice == "tuple" and isinstance(ty, LProd):
            items = []
            per = max(2, (budget - 1) // max(1, len(ty.items)))
            for a in ty.items:
                item = random_typed_lambda(rng, a, ctx, per)
                if item is None:
                    break
                items.append(item)
            if len(items) == len(ty.items):
                return LTuple(tuple(items))
            continue
        if choice == "app":
            dom = random_lambda_type(rng, 1)
            fn = random_typed_lambda(rng, LArrow(dom, ty), ctx, budget // 2)
            arg = random_typed_lambda(rng, dom, ctx, budget // 2)
            if fn is not None and arg is not None:
                return LApp(fn, arg)
    return None


def random_lambda_corpus(seed: int, count: int, max_size: int = 15) -> list[tuple[LambdaTerm, LambdaType]]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ty = random_lambda_type(rng)
        t = random_typed_lambda(rng, ty, [], rng.randint(3, max_size))
        if t is not None and lsize(t) <= max_size:
            out.append((t, ty))
    return out


# -- random effectful call-by-value programs -------------------------------------------

def random_cbv(seed: int, count: int, cells=("c", "d")) -> list[bridge.CbvTerm]:
    rng = random.Random(seed)

    def gen_int(depth: int, scope: tuple[str, ...]) -> bridge.CbvTerm:
        ints = [x for x in scope if x.startswith("i")]
        roll = rng.random()
        if depth <= 0:
            if ints and roll < 0.4:
                return bridge.CVar(rng.choice(ints))
            if roll < 0.7:
                return bridge.CLit(rng.randint(0, 9))
            return rng.choice([bridge.CRead(), bridge.CDeref(rng.choice(cells))])
        if roll < 0.16:
            return bridge.CLit(rng.randint(0, 9))
        if roll < 0.28:
            return bridge.CRead()
        if roll < 0.40:
            return bridge.CDeref(rng.choice(cells))
        if roll < 0.52:
            return bridge.CWrite(gen_int(depth - 1, scope), gen_int(depth - 1, scope))
        if roll < 0.64:
            return bridge.CAssign(rng.choice(cells), gen_int(depth - 1, scope),
                                  gen_int(depth - 1, scope))
        if roll < 0.72:
            return bridge.CProb(gen_int(depth - 1, scope), gen_int(depth - 1, scope))
        if roll < 0.80:
            return bridge.CNondet(gen_int(depth - 1, scope), gen_int(depth - 1, scope))
        if roll < 0.90 and ints:
            return bridge.CVar(rng.choice(ints))
        x = f"i{len(scope)}"
        return bridge.CApp(bridge.CLam(x, gen_int(depth - 1, scope + (x,))),
                           gen_int(depth - 1, scope))

    return [gen_int(3, ()) for _ in range(count)]


# -- random equational-law instances ---------------------------------------------

def random_law_instances(seed: int, law, count: int):
    """Well-typed random bindings for one of the six equational laws."""
    from fmclab.equivalence import EqnLaw, IllTypedBinding, arrow_on_main, law_instance
    from fmclab.parser import parse_term, parse_type

    p = parse_term
    Z = Base("Z")
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < count * 80:
        tries += 1
        s = Vector(tuple(Z for _ in range(rng.randint(0, 2))))
        t = Vector(tuple(Z for _ in range(rng.randint(0, 2))))
        r = Vector(tuple(Z for _ in range(rng.randint(0, 2))))
        u = Vector(tuple(Z for _ in range(rng.randint(0, 2))))
        try:
            if law is EqnLaw.BETA:
                f_ty = parse_type("Z > Z")
                if rng.random() < 0.5:
                    arg_ty, n_term = f_ty, random_closed_term_of(rng, f_ty)
                    body_src, out_vec = rng.choice([
                        ("[x]", (f_ty,)), ("[1].x", (Z,)), ("[2].x.[x]", (Z, f_ty))])
                else:
                    arg_ty, n_term = Z, p(str(rng.randint(0, 3)))
                    body_src, out_vec = rng.choice([
                        ("[x]", (Z,)), ("[x].[x]", (Z, Z)), ("[x].[1].+", (Z,))])
                if n_term is None:
                    continue
                inst = law_instance(EqnLaw.BETA, m=p(body_src), n=n_term, x="x",
                                    arg_type=arg_ty, s=Vector(()), t=Vector(out_vec))
            elif law is EqnLaw.INTERCHANGE:
                m = random_closed_term_of(rng, arrow_on_main(s, t))
                nn = random_closed_term_of(rng, arrow_on_main(r, u))
                if m is None or nn is None:
                    continue
                inst = law_instance(law, m=m, n=nn, s=s, t=t, r=r, u=u)
            elif law in (EqnLaw.DIAGONAL, EqnLaw.TERMINAL):
                m = random_closed_term_of(rng, arrow_on_main(s, t))
                if m is None:
                    continue
                inst = law_instance(law, m=m, s=s, t=t)
            elif law is EqnLaw.ETA_FIRST_ORDER:
                inst = law_instance(law)
            else:
                inner = arrow_on_main(s, t)
                pt = Arrow(mem({MAIN: r}), mem({MAIN: Vector((inner,))}))
                pterm = random_closed_term_of(rng, pt)
                if pterm is None:
                    continue
                inst = law_instance(law, p=pterm, r=r, s=s, t=t)
        except IllTypedBinding:
            continue
        out.append(inst)
    return out


def run_length_shard(max_size: int, shard: int, nshards: int) -> tuple[int, int, list]:
    """One shard of the exhaustive run-length identity check (process-safe)."""
    from .machine import run
    from .measure import (
        lean_run_length_derivation,
        least_input_memory,
        machine_run_length,
    )
    from .parser import print_term
    from .typesys import TypeCheckError

    total = typed = 0
    failures: list = []
    for i, t in enumerate(enumerate_closed_terms(max_size)):
        if i % nshards != shard:
            continue
        total += 1
        try:
            lean = lean_run_length_derivation(t)
        except TypeCheckError:
            continue
        typed += 1
        try:
            predicted = machine_run_length(lean)
            result = run(least_input_memory(lean.ty), t, fuel=10**6)
            bad = result.status != "done" or result.steps != predicted
            note = (predicted, result.status, result.steps)
        except Exception as exc:  # any crash counts as a failure, not a hang
            bad, note = True, repr(exc)
        if bad:
            failures.append((print_term(t), note))
            if len(failures) >= 5:
                break
    return total, typed, failures
