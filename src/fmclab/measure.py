"""Step-counting interpretation of typed terms over monotone functionals.

A term of arrow type denotes a monotone function from memory-shaped value
tuples to a counter paired with output values.  Collapsing a functional
(feeding least elements, projecting the counter) yields a natural number
that strictly decreases along beta reduction, which is the executable core
of the strong-normalization argument.  The `variant` flag drops the
argument-accounting summand from the push clause, turning the counter into
a machine-run-length predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import NIL, Location, Pop, Push, Term
from .typesys import (
    DEFAULT_SIGNATURE,
    Arrow,
    Base,
    Derivation,
    Mem,
    SimpleType,
    TVar,
    Vector,
    infer_shape_derivation,
)

MemVal = dict[Location, tuple["SnValue", ...]]


class VUnit:
    """The sole inhabitant of a base-type domain."""

    _instance: Optional["VUnit"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unit"


UNIT = VUnit()


@dataclass(frozen=True)
class VFun:
    """A suspended monotone functional together with its arrow type."""

    ty: Arrow
    fn: Callable[[MemVal], tuple[int, MemVal]]

    def __call__(self, arg: MemVal) -> tuple[int, MemVal]:
        return self.fn(arg)


SnValue = VUnit | VFun


def _norm(mv: MemVal) -> MemVal:
    return {loc: vals for loc, vals in mv.items() if vals}


def least(ty: SimpleType | Vector | Mem):
    """The least element 0_t of the domain of a (ground) type."""
    match ty:
        case Base(_):
            return UNIT
        case Arrow(_, out):
            bottom = least_mem(out)
            return VFun(ty, lambda s: (0, bottom))
        case Vector(items, None):
            return tuple(least(t) for t in items)
        case Mem(_):
            return least_mem(ty)
    raise ValueError(f"no least element for {ty}")


def least_mem(m: Mem) -> MemVal:
    return _norm({loc: tuple(least(t) for t in vec.items) for loc, vec in m.entries})


def apply(f: SnValue, arg: MemVal) -> tuple[int, MemVal]:
    if not isinstance(f, VFun):
        raise TypeError("only functionals can be applied")
    return f(arg)


def collapse(f: SnValue) -> int:
    """Feed least elements, project the counter."""
    if isinstance(f, VUnit):
        return 0
    return f(least_mem(f.ty.input))[0]


def _split_top(s: MemVal, shape: Mem) -> tuple[MemVal, MemVal]:
    below, top = dict(s), {}
    for loc, vec in shape.entries:
        k = len(vec.items)
        have = below.get(loc, ())
        if len(have) < k:
            raise ValueError(f"input too shallow on {loc.name}")
        below[loc], top[loc] = have[: len(have) - k], have[len(have) - k:]
    return _norm(below), _norm(top)


def _concat(below: MemVal, above: MemVal) -> MemVal:
    out = dict(below)
    for loc, vals in above.items():
        out[loc] = out.get(loc, ()) + vals
    return _norm(out)


def _push_val(s: MemVal, loc: Location, v: SnValue) -> MemVal:
    out = dict(s)
    out[loc] = out.get(loc, ()) + (v,)
    return out


def interpret(deriv: Derivation, valuation: dict[str, SnValue], variant: bool = False) -> SnValue:
    """The interpretation of a typing derivation under a valuation."""
    if isinstance(deriv.ty, Base):
        if deriv.rule == "base-var":
            return valuation[deriv.term.var]
        return UNIT  # literal constants

    def call(s: MemVal) -> tuple[int, MemVal]:
        match deriv.rule:
            case "nil":
                return (0, _norm(s))
            case "pop":
                loc = deriv.term.loc
                vals = s.get(loc, ())
                if not vals:
                    raise ValueError(f"pop clause on empty {loc.name}")
                popped, below = vals[-1], {**s, loc: vals[:-1]}
                inner = interpret(deriv.children[0],
                                  {**valuation, deriv.term.var: popped}, variant)
                m, t = apply(inner, _norm(below))
                return (1 + m, t)
            case "push":
                arg_deriv, cont_deriv = deriv.children
                f = interpret(arg_deriv, valuation, variant)
                m, t = apply(interpret(cont_deriv, valuation, variant),
                             _push_val(s, deriv.term.loc, f))
                extra = 0 if variant else collapse(f)
                return (1 + m + extra, t)
            case "seq-var":
                vt = deriv.var_type
                below, top = _split_top(s, vt.input)
                n, u = apply(valuation[deriv.term.var], top)
                m, t = apply(interpret(deriv.children[0], valuation, variant),
                             _concat(below, u))
                return (n + m, t)
            case "const":
                # constants are machine-level: one transition, least outputs
                vt = deriv.var_type
                below, _ = _split_top(s, vt.input)
                m, t = apply(interpret(deriv.children[0], valuation, variant),
                             _concat(below, least_mem(vt.output)))
                return (1 + m, t)
        raise ValueError(deriv.rule)

    return VFun(deriv.ty, call)


def least_valuation(ctx: dict[str, SimpleType]) -> dict[str, SnValue]:
    return {x: least(ty) for x, ty in ctx.items()}


def measure(deriv: Derivation, ctx: Optional[dict[str, SimpleType]] = None) -> int:
    """Collapse of the interpretation under the least valuation."""
    return collapse(interpret(deriv, least_valuation(ctx or {})))


def measure_variant(deriv: Derivation, ctx: Optional[dict[str, SimpleType]] = None) -> int:
    """Collapse of the run-length interpretation (push clause drops the
    argument summand)."""
    return collapse(interpret(deriv, least_valuation(ctx or {}), variant=True))


# -- canonical least-element input terms ------------------------------------------

def least_term(ty: SimpleType) -> Term:
    """The syntactic image of the least element: pop every input, push the
    least term of every output type.  Defined for base-free ground types."""
    match ty:
        case Arrow(inp, out):
            t: Term = NIL
            for loc in sorted(out.locations(), key=lambda l: l.name, reverse=True):
                for item in reversed(out.get(loc).items):
                    t = Push(least_term(item), loc, t)
            i = 0
            for loc in sorted(inp.locations(), key=lambda l: l.name, reverse=True):
                for item in inp.get(loc).items:
                    t = Pop(loc, f"_z{i}", t, item)
                    i += 1
            return t
        case TVar(_) | Base(_):
            raise ValueError(f"no canonical inhabitant for {ty}")
    raise TypeError(ty)


def least_input_memory(ty: Arrow) -> dict[Location, tuple[Term, ...]]:
    """Canonical machine inputs: one least term per input slot."""
    return {loc: tuple(least_term(t) for t in vec.items)
            for loc, vec in ty.input.entries if vec.items}


_LEAST_INPUT_CACHE: dict[SimpleType, SnValue] = {}


def _least_input_value(item: SimpleType) -> SnValue:
    """Run-length interpretation of the canonical least term of a type."""
    hit = _LEAST_INPUT_CACHE.get(item)
    if hit is None:
        from .typesys import check

        term = least_term(item)
        hit = interpret(check({}, term, item), {}, variant=True)
        _LEAST_INPUT_CACHE[item] = hit
    return hit


def machine_run_length(deriv: Derivation) -> int:
    """Predicted machine step count from canonical least-element inputs.

    The run-length interpretation is applied to the interpretations of the
    canonical input terms themselves (not the domain-least values, whose
    counters ignore the cost of consuming nontrivial canonical terms).
    """
    ty = deriv.ty
    assert isinstance(ty, Arrow)
    inputs: MemVal = {loc: tuple(_least_input_value(item) for item in vec.items)
                      for loc, vec in ty.input.entries}
    f = interpret(deriv, {}, variant=True)
    return apply(f, _norm(inputs))[0]


def lean_run_length_derivation(t, sig=None):
    """Cheap derivation for run-length prediction of constant-free terms.

    Only the root type is grounded in full; inner judgment types are
    placeholders and variable types keep just their ground stack shapes,
    which is all the run-length interpretation reads (see
    `typesys.infer_shape_derivation`).
    """
    return infer_shape_derivation(t, sig or DEFAULT_SIGNATURE)


# -- sampled comparison helpers ----------------------------------------------------

def value_leq(a: SnValue | tuple | MemVal, b, probes: list[MemVal] | None = None) -> bool:
    """Pointwise order, comparing functionals at the given probe inputs
    (plus the least input); sound for refutation only."""
    if isinstance(a, VUnit) and isinstance(b, VUnit):
        return True
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(value_leq(x, y, probes) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) | set(b)
        return all(value_leq(a.get(k, ()), b.get(k, ()), probes) for k in keys)
    if isinstance(a, VFun) and isinstance(b, VFun):
        points = [least_mem(a.ty.input)] + [p for p in (probes or []) if _fits(p, a.ty.input)]
        for p in points:
            na, ta = a(p)
            nb, tb = b(p)
            if na > nb or not value_leq(ta, tb, probes):
                return False
        return True
    return False


def value_eq(a, b, probes: list[MemVal] | None = None) -> bool:
    """Extensional equality at the probe inputs; exact on counters."""
    if isinstance(a, VUnit) and isinstance(b, VUnit):
        return True
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(value_eq(x, y, probes) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) | set(b)
        return all(value_eq(a.get(k, ()), b.get(k, ()), probes) for k in keys)
    if isinstance(a, VFun) and isinstance(b, VFun):
        points = [least_mem(a.ty.input)] + [p for p in (probes or []) if _fits(p, a.ty.input)]
        for p in points:
            na, ta = a(p)
            nb, tb = b(p)
            if na != nb or not value_eq(ta, tb, probes):
                return False
        return True
    return False


def _fits(p: MemVal, shape: Mem) -> bool:
    if {loc for loc, v in shape.entries if v.items} != set(p):
        return False
    return all(len(p[loc]) == len(vec.items) for loc, vec in shape.entries if vec.items)
