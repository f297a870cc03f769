"""The six-law equational theory, machine-equivalence testing, combinators.

Machine equivalence compares closed terms by running them on enumerated
input memories built from canonical closed inhabitants and comparing
outputs recursively by type.  A Distinguished verdict replays; a
NotDistinguished verdict is sound only up to the budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .machine import DEFAULT_REGISTRY, DeltaRegistry, Memory, run
from .parser import print_term
from .reduction import normalize, perm_eq
from .syntax import (
    MAIN,
    NIL,
    Const,
    ConstSym,
    Location,
    Pop,
    Push,
    Term,
    compose,
    free_vars,
    fresh_name,
    size,
    substitute,
    var,
)
from .typesys import (
    DEFAULT_SIGNATURE,
    Arrow,
    Base,
    Mem,
    SimpleType,
    Signature,
    Vector,
    check_infer,
    mem,
)


class EqnLaw(enum.Enum):
    BETA = "beta"
    INTERCHANGE = "interchange"
    DIAGONAL = "diagonal"
    TERMINAL = "terminal"
    ETA_FIRST_ORDER = "eta-first-order"
    ETA_HIGHER_ORDER = "eta-higher-order"


@dataclass(frozen=True)
class TestBudget:
    size: int = 7  # max synthesized argument size
    points: int = 16  # max input memories per equivalence question
    depth: int = 3  # recursion depth for arrow-typed outputs
    fuel: int = 10**5
    seed: Optional[int] = None  # shuffles which input points the budget keeps


@dataclass(frozen=True)
class EquivVerdict:
    distinguished: bool
    witness: Optional[Memory] = None
    detail: str = ""
    points: int = 0

    def __bool__(self):  # truthy iff NOT distinguished, for convenient asserts
        return not self.distinguished


# -- canonical closed inhabitants ----------------------------------------------------

def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _pops_over(vec: Vector, names: list[str], cont: Term, loc: Location = MAIN) -> Term:
    """<?x>: pop the whole vector, top first, binding names bottom-to-top."""
    t = cont
    for name, ty in zip(names, vec.items):
        t = Pop(loc, name, t, ty)
    return t


def _pushes_over(names: list[str], cont: Term, loc: Location = MAIN) -> Term:
    """[!x]: push the named values back, bottom-to-top."""
    t = cont
    for name in reversed(names):
        t = Push(var(name), loc, t)
    return t


_INHABITANT_CACHE: dict = {}


def inhabitants(ty: SimpleType, size_bound: int = 7, limit: int = 6) -> list[Term]:
    """Canonical closed terms of a ground type, small first."""
    key = (ty, size_bound, limit)
    if key in _INHABITANT_CACHE:
        return _INHABITANT_CACHE[key]
    out: list[Term] = []
    match ty:
        case Base("Z"):
            out = [Const(ConstSym(str(n), 0, 1), NIL) for n in (0, 1, 2)]
        case Base("B"):
            out = [Const(ConstSym(b, 0, 1), NIL) for b in ("true", "false")]
        case Base(_):
            out = []
        case Arrow(inp, outp):
            slots = [(loc, i, t) for loc, vec in inp.entries for i, t in enumerate(vec.items)]
            binders: dict[tuple, str] = {}
            pops: Term = NIL

            def wrap(body: Term) -> Term:
                t = body
                for loc, vec in inp.entries:
                    names = [binders[(loc, i)] for i in range(len(vec.items))]
                    t = _pops_over(vec, names, t, loc)
                return t

            for loc, i, t in slots:
                binders[(loc, i)] = f"v{len(binders) + 1}_{loc.name if not loc.is_main() else 'm'}"
            # candidate fillers per output slot: matching popped vars, then
            # recursive canonical terms
            import itertools

            per_slot: list[list[Term]] = []
            out_slots = [(loc, t) for loc, vec in outp.entries for t in vec.items]
            for loc, t in out_slots:
                cands: list[Term] = [var(name) for (bloc, i), name in binders.items()
                                     if inp.get(bloc).items[i] == t]
                for sub in inhabitants(t, max(1, size_bound - 2), max(1, limit // 2)):
                    if all(sub != c for c in cands if not free_vars(c)):
                        cands.append(sub)
                if not cands:
                    _INHABITANT_CACHE[key] = []
                    return []
                per_slot.append(cands[:limit])
            combos = itertools.product(*per_slot) if per_slot else [()]
            for combo in combos:
                body: Term = NIL
                for (loc, _), filler in zip(reversed(out_slots), reversed(list(combo))):
                    body = Push(filler, loc, body)
                candidate = wrap(body)
                if size(candidate) <= size_bound or not out:
                    out.append(candidate)
                if len(out) >= limit:
                    break
        case _:
            out = []
    _INHABITANT_CACHE[key] = out
    return out


# -- machine equivalence ---------------------------------------------------------------

def machine_equiv(m: Term, n: Term, ty: SimpleType, budget: TestBudget = TestBudget(),
                  delta: DeltaRegistry = DEFAULT_REGISTRY) -> EquivVerdict:
    """Test observational equivalence of two closed terms at a ground type."""
    if isinstance(ty, Base):
        same = m == n
        return EquivVerdict(not same, None if same else {}, "base-type literals differ" if not same else "")
    assert isinstance(ty, Arrow)
    import itertools

    slots = [(loc, t) for loc, vec in ty.input.entries for t in vec.items]
    per_slot = [inhabitants(t, budget.size) or [NIL] for _, t in slots]
    if slots:
        combos = itertools.islice(itertools.product(*per_slot), 4 * budget.points)
        combos = list(combos)
        if budget.seed is not None:
            import random

            random.Random(budget.seed).shuffle(combos)
        combos = combos[: budget.points]
    else:
        combos = [()]
    points = 0
    for combo in combos:
        memory: Memory = {}
        for (loc, _), term in zip(slots, combo):
            memory[loc] = memory.get(loc, ()) + (term,)
        points += 1
        verdict = _compare_runs(m, n, memory, ty.output, budget, delta)
        if verdict is not None:
            return EquivVerdict(True, memory, verdict, points)
    return EquivVerdict(False, None, "", points)


def _compare_runs(m, n, memory, out_shape: Mem, budget, delta) -> Optional[str]:
    rm = run(dict(memory), m, delta, budget.fuel)
    rn = run(dict(memory), n, delta, budget.fuel)
    if rm.status != "done" or rn.status != "done":
        if rm.status == rn.status:
            return None  # both stuck or both out of fuel: not an observation
        return f"left {rm.status} ({rm.reason}), right {rn.status} ({rn.reason})"
    locs = set(rm.memory) | set(rn.memory) | {loc for loc, _ in out_shape.entries}
    for loc in sorted(locs, key=lambda l: l.name):
        sm, sn = rm.memory.get(loc, ()), rn.memory.get(loc, ())
        if len(sm) != len(sn):
            return f"output stacks on {loc.name or 'main'} differ in depth"
        types = out_shape.get(loc).items
        for i, (a, b) in enumerate(zip(sm, sn)):
            slot_ty = types[i] if i < len(types) else None
            if isinstance(slot_ty, Arrow) and budget.depth > 0:
                sub = machine_equiv(a, b, slot_ty,
                                    TestBudget(budget.size, max(2, budget.points // 2),
                                               budget.depth - 1, budget.fuel), delta)
                if sub.distinguished:
                    return f"outputs on {loc.name or 'main'}[{i}] distinguished: {sub.detail}"
            elif a != b:
                return f"outputs on {loc.name or 'main'}[{i}] differ: {print_term(a)} vs {print_term(b)}"
    return None


def machine_equiv_open(ctx: dict[str, SimpleType], m: Term, n: Term, ty: SimpleType,
                       budget: TestBudget = TestBudget()) -> EquivVerdict:
    """Close both terms with the same canonical substitutions, then test."""
    items = sorted(ctx.items())
    import itertools

    per_var = [inhabitants(t, budget.size) or [NIL] for _, t in items]
    for combo in itertools.islice(itertools.product(*per_var), max(1, budget.points // 2)):
        cm, cn = m, n
        for (x, _), w in zip(items, combo):
            cm = substitute(w, x, cm)
            cn = substitute(w, x, cn)
        verdict = machine_equiv(cm, cn, ty, budget)
        if verdict.distinguished:
            return verdict
    return EquivVerdict(False)


# -- combinators -----------------------------------------------------------------------

def ccc_combinator(name: str, *args) -> Term:
    """The structural combinators, as concrete terms over the main stack.

    Vector arguments fix the sizes and element types of the popped blocks.
    """
    match name, args:
        case "bang", (Vector() as t,):
            return _pops_over(t, _names("x", len(t.items)), NIL)
        case "delta", (Vector() as t,):
            xs = _names("x", len(t.items))
            return _pops_over(t, xs, _pushes_over(xs, _pushes_over(xs, NIL)))
        case "pi1", (Vector() as u, Vector() as t):
            xs, ys = _names("x", len(t.items)), _names("y", len(u.items))
            return _pops_over(t, xs, _pops_over(u, ys, _pushes_over(xs, NIL)))
        case "pi2", (Vector() as u, Vector() as t):
            xs, ys = _names("x", len(t.items)), _names("y", len(u.items))
            return _pops_over(t, xs, _pops_over(u, ys, _pushes_over(ys, NIL)))
        case "eps", _:
            return Pop(MAIN, "z", var("z"))
        case "eta_curry", (Vector() as t,):
            xs = _names("x", len(t.items))
            return _pops_over(t, xs, Push(_pushes_over(xs, NIL), MAIN, NIL))
        case "hom", (Term() as m, Term() as n):
            return Pop(MAIN, "z", Push(compose(m, compose(var("z"), n)), MAIN, NIL))
        case "pair", (Term() as first, Term() as second, Vector() as r, Vector() as s):
            # pair(F, S); pi1 ~ F and pair(F, S); pi2 ~ S, with F's output on top
            xs = _names("x", len(r.items))
            zs = _names("z", len(s.items))
            body = compose(first, _pops_over(s, zs, compose(second, _pushes_over(zs, NIL))))
            return _pops_over(r, xs, _pushes_over(xs, _pushes_over(xs, body)))
        case "curry", (Term() as m, Vector() as s):
            xs = _names("x", len(s.items))
            return _pops_over(s, xs, Push(_pushes_over(xs, m), MAIN, NIL))
        case "tensor_left", (Term() as m, Vector()):
            return m
        case "tensor_right", (Vector() as t, Term() as m):
            xs = _names("x", len(t.items))
            return _pops_over(t, xs, compose(m, _pushes_over(xs, NIL)))
    raise ValueError(f"unknown combinator {name} / {args}")


# -- equational law instances ------------------------------------------------------------

class IllTypedBinding(Exception):
    pass


@dataclass(frozen=True)
class LawInstance:
    law: EqnLaw
    lhs: Term
    rhs: Term
    ty: SimpleType


def _fresh_names(prefix: str, n: int, avoid: frozenset[str]) -> list[str]:
    out: list[str] = []
    taken = set(avoid)
    for i in range(n):
        name = f"{prefix}{i + 1}"
        while name in taken:
            name = fresh_name(name, frozenset(taken))
        taken.add(name)
        out.append(name)
    return out


def law_instance(law: EqnLaw, *, m: Optional[Term] = None, n: Optional[Term] = None,
                 p: Optional[Term] = None, x: str = "x", r: Vector = Vector(),
                 s: Vector = Vector(), t: Vector = Vector(), u: Vector = Vector(),
                 base: str = "Z", arg_type: Optional[SimpleType] = None,
                 sig: Signature = DEFAULT_SIGNATURE, typecheck: bool = True) -> LawInstance:
    """Build one concrete (lhs, rhs, type) instance of an equational law.

    Vector parameters give the block shapes; term parameters the bindings.
    Binders introduced by the schema are chosen fresh, so they never
    capture in the supplied terms.
    """
    avoid = frozenset().union(*(free_vars(q) for q in (m, n, p) if q is not None)) | {x}
    match law:
        case EqnLaw.BETA:
            if m is None or n is None or arg_type is None:
                raise IllTypedBinding("beta needs m (body), n (argument), arg_type")
            lhs = Push(n, MAIN, Pop(MAIN, x, m, arg_type))
            rhs = substitute(n, x, m)
            ty = arrow_on_main(s, t)
        case EqnLaw.INTERCHANGE:
            if m is None or n is None:
                raise IllTypedBinding("interchange needs m : ?s>!t and n : ?r>!u")
            xs = _fresh_names("ix", len(s.items), avoid)
            ys = _fresh_names("iy", len(t.items), avoid)
            lhs = _pops_over(s, xs, compose(n, _pushes_over(xs, m)))
            rhs = compose(m, _pops_over(t, ys, compose(n, _pushes_over(ys, NIL))))
            ty = arrow_on_main(Vector(r.items + s.items), Vector(u.items + t.items))
        case EqnLaw.DIAGONAL:
            if m is None:
                raise IllTypedBinding("diagonal needs m : ?s>!t")
            xs = _fresh_names("dx", len(s.items), avoid)
            ys = _fresh_names("dy", len(t.items), avoid)
            lhs = compose(m, _pops_over(t, ys, _pushes_over(ys, _pushes_over(ys, NIL))))
            rhs = _pops_over(s, xs, _pushes_over(xs, compose(m, _pushes_over(xs, m))))
            ty = arrow_on_main(s, Vector(t.items + t.items))
        case EqnLaw.TERMINAL:
            if m is None:
                raise IllTypedBinding("terminal needs m : ?s>!t")
            xs = _fresh_names("tx", len(s.items), avoid)
            ys = _fresh_names("ty", len(t.items), avoid)
            lhs = compose(m, _pops_over(t, ys, NIL))
            rhs = _pops_over(s, xs, NIL)
            ty = arrow_on_main(s, Vector())
        case EqnLaw.ETA_FIRST_ORDER:
            lhs = NIL
            rhs = Pop(MAIN, "a", Push(var("a"), MAIN, NIL), Base(base))
            ty = arrow_on_main(Vector((Base(base),)), Vector((Base(base),)))
        case EqnLaw.ETA_HIGHER_ORDER:
            if p is None:
                raise IllTypedBinding("higher-order eta needs p : ?r>(?s>!t)")
            inner = arrow_on_main(s, t)
            xs = _fresh_names("hx", len(r.items), avoid)
            lhs = p
            thunk = _pushes_over(xs, compose(p, Pop(MAIN, "z", var("z"), inner)))
            rhs = _pops_over(r, xs, Push(thunk, MAIN, NIL))
            ty = arrow_on_main(r, Vector((inner,)))
        case _:
            raise ValueError(law)
    if typecheck:
        for side in (lhs, rhs):
            try:
                check_infer({}, side, ty, sig)
            except Exception as e:
                raise IllTypedBinding(f"{law.value} instance does not check: {e}") from e
    return LawInstance(law, lhs, rhs, ty)


def arrow_on_main(inp: Vector, out: Vector) -> Arrow:
    return Arrow(mem({MAIN: inp}), mem({MAIN: out}))


# -- bounded equational prover -------------------------------------------------------------

@dataclass(frozen=True)
class EqnResult:
    status: str  # 'proved', 'refuted', 'unknown'
    witness: Optional[Memory] = None
    detail: str = ""


def eqn_check(m: Term, n: Term, ty: SimpleType, budget: TestBudget = TestBudget(),
              sig: Signature = DEFAULT_SIGNATURE, fuel: int = 10**4) -> EqnResult:
    """Join by beta-eta normalization modulo permutation, else try to refute.

    Sound on both sides: 'proved' only via validated conversions, 'refuted'
    only with a replayable machine witness; everything else is 'unknown'.
    """
    check_infer({}, m, ty, sig)
    check_infer({}, n, ty, sig)
    nm = normalize(m, fuel=fuel, eta=True)
    nn = normalize(n, fuel=fuel, eta=True)
    if nm.status == "normal" and nn.status == "normal" and perm_eq(nm.term, nn.term):
        return EqnResult("proved")
    verdict = machine_equiv(m, n, ty, budget)
    if verdict.distinguished:
        return EqnResult("refuted", verdict.witness, verdict.detail)
    return EqnResult("unknown")
