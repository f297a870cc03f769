"""Core term syntax: locations, constants, terms, substitution, composition.

Terms are immutable and considered modulo alpha-equivalence.  A term is a
sequence of *actions* (variable use, push, pop, constant) ending in the nil
term `*`; pushes carry an argument term and every action names a location,
with the main location written as the empty annotation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True, order=True)
class Location:
    """A named stack.  The main (computation) stack is `MAIN`."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("location names are non-empty")

    def is_main(self) -> bool:
        return self.name == MAIN_NAME

    def __str__(self) -> str:
        return "" if self.is_main() else self.name


MAIN_NAME = "λ"  # never written in concrete syntax
MAIN = Location(MAIN_NAME)


@dataclass(frozen=True)
class ConstSym:
    """A constant symbol with input/output arity on the main stack."""

    name: str
    arity_in: int
    arity_out: int

    def is_literal(self) -> bool:
        return self.arity_in == 0 and self.arity_out == 1


class Term:
    """Base class; concrete terms are Nil, SeqVar, Push, Pop, Const."""


    def __eq__(self, other) -> bool:
        """Structural equality including binder names (not alpha)."""
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self):
        raise NotImplementedError

    def __repr__(self) -> str:
        from .parser import print_term

        return f"<term {print_term(self)!r}>"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Nil(Term):

    def _key(self):
        return ("nil",)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class SeqVar(Term):
    """A variable used in sequence position: `x.M`."""

    var: str
    cont: Term

    def _key(self):
        return ("var", self.var, self.cont)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Push(Term):
    """An application / push action `[N]a.M`."""

    arg: Term
    loc: Location
    cont: Term

    def _key(self):
        return ("push", self.arg, self.loc, self.cont)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Pop(Term):
    """An abstraction / pop action `a<x>.M`, binding x in the continuation."""

    loc: Location
    var: str
    cont: Term
    annot: Optional["object"] = None  # optional SimpleType, ignored by alpha_eq

    def _key(self):
        return ("pop", self.loc, self.var, self.cont)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Const(Term):
    """A constant prefix `c.M` (literal or operator)."""

    sym: ConstSym
    cont: Term

    def _key(self):
        return ("const", self.sym, self.cont)


NIL = Nil()


def var(name: str) -> Term:
    """The term `x`, i.e. `x.*`."""
    return SeqVar(name, NIL)


# The traversals below walk the continuation spine in a loop, so that only
# `Push.arg` nests and long action sequences stay off the Python stack.

def size(t: Term) -> int:
    n = 1
    while type(t) is not Nil:
        if type(t) is Push:
            n += size(t.arg)
        n += 1
        t = t.cont
    return n


def free_vars(t: Term) -> frozenset[str]:
    free: set[str] = set()
    bound: set[str] = set()  # binders passed so far scope over the rest of the spine
    while True:
        kind = type(t)
        if kind is Nil:
            return frozenset(free)
        if kind is SeqVar:
            if t.var not in bound:
                free.add(t.var)
        elif kind is Push:
            inner = free_vars(t.arg)
            free.update(inner - bound if bound else inner)
        elif kind is Pop:
            bound.add(t.var)
        elif kind is not Const:
            raise TypeError(t)
        t = t.cont


def locations_of(t: Term) -> frozenset[Location]:
    locs: set[Location] = set()
    while True:
        kind = type(t)
        if kind is Nil:
            return frozenset(locs)
        if kind is Push:
            locs.add(t.loc)
            locs.update(locations_of(t.arg))
        elif kind is Pop:
            locs.add(t.loc)
        elif kind is not SeqVar and kind is not Const:
            raise TypeError(t)
        t = t.cont


def constants_of(t: Term) -> frozenset[ConstSym]:
    syms: set[ConstSym] = set()
    while True:
        kind = type(t)
        if kind is Nil:
            return frozenset(syms)
        if kind is Const:
            syms.add(t.sym)
        elif kind is Push:
            syms.update(constants_of(t.arg))
        elif kind is not SeqVar and kind is not Pop:
            raise TypeError(t)
        t = t.cont


_fresh_counter = itertools.count()


def fresh_name(base: str, avoid: frozenset[str] | set[str] = frozenset()) -> str:
    """A name not in `avoid`, derived from `base` by priming."""
    stem = base.rstrip("'0123456789") or "x"
    candidate = stem + "'"
    while candidate in avoid:
        candidate = f"{stem}'{next(_fresh_counter)}"
    return candidate


def rename_binder(t: Pop, fresh: str) -> Pop:
    """Alpha-rename the binder of a pop action."""
    return Pop(t.loc, fresh, substitute(var(fresh), t.var, t.cont), t.annot)


def substitute(p: Term, x: str, m: Term) -> Term:
    """Capture-avoiding substitution {P/x}M.

    Substituting into a variable in sequence position composes: the
    replacement runs first, then the continuation.
    """
    if x not in free_vars(m):
        return m
    match m:
        case Nil():
            return m
        case SeqVar(y, cont) if y == x:
            return compose(p, substitute(p, x, cont))
        case SeqVar(y, cont):
            return SeqVar(y, substitute(p, x, cont))
        case Push(arg, loc, cont):
            return Push(substitute(p, x, arg), loc, substitute(p, x, cont))
        case Pop(loc, y, cont, annot):
            if y == x:
                return m
            if y in free_vars(p):
                fresh = fresh_name(y, free_vars(p) | free_vars(cont) | {x})
                cont = substitute(var(fresh), y, cont)
                y = fresh
            return Pop(loc, y, substitute(p, x, cont), annot)
        case Const(sym, cont):
            return Const(sym, substitute(p, x, cont))
    raise TypeError(m)


def compose(n: Term, m: Term) -> Term:
    """Sequential composition N;M (associative, unit `*`)."""
    match n:
        case Nil():
            return m
        case SeqVar(x, cont):
            return SeqVar(x, compose(cont, m))
        case Push(arg, loc, cont):
            return Push(arg, loc, compose(cont, m))
        case Pop(loc, x, cont, annot):
            if x in free_vars(m):
                fresh = fresh_name(x, free_vars(m) | free_vars(cont))
                cont = substitute(var(fresh), x, cont)
                x = fresh
            return Pop(loc, x, compose(cont, m), annot)
        case Const(sym, cont):
            return Const(sym, compose(cont, m))
    raise TypeError(n)


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality modulo consistent renaming of pop binders.

    Binder annotations are checking hints and do not affect identity.
    """

    def go(a: Term, b: Term, env_a: dict, env_b: dict, depth: int) -> bool:
        match a, b:
            case Nil(), Nil():
                return True
            case SeqVar(x, ca), SeqVar(y, cb):
                return env_a.get(x, x) == env_b.get(y, y) and go(ca, cb, env_a, env_b, depth)
            case Push(pa, la, ca), Push(pb, lb, cb):
                return la == lb and go(pa, pb, env_a, env_b, depth) and go(ca, cb, env_a, env_b, depth)
            case Pop(la, x, ca, _), Pop(lb, y, cb, _):
                if la != lb:
                    return False
                return go(ca, cb, {**env_a, x: depth}, {**env_b, y: depth}, depth + 1)
            case Const(sa, ca), Const(sb, cb):
                return sa == sb and go(ca, cb, env_a, env_b, depth)
            case _:
                return False

    return go(a, b, {}, {}, 0)


def alpha_canonical(t: Term) -> Term:
    """Rename binders to position-determined names; alpha-invariant."""

    def go(t: Term, env: dict, depth: int) -> Term:
        match t:
            case Nil():
                return t
            case SeqVar(x, cont):
                return SeqVar(env.get(x, x), go(cont, env, depth))
            case Push(arg, loc, cont):
                return Push(go(arg, env, depth), loc, go(cont, env, depth))
            case Pop(loc, x, cont, annot):
                name = f"_v{depth}"
                return Pop(loc, name, go(cont, {**env, x: name}, depth + 1), annot)
            case Const(sym, cont):
                return Const(sym, go(cont, env, depth))
        raise TypeError(t)

    return go(t, {}, 0)


def canonical_key(t: Term) -> Term:
    """A hashable key identifying t up to alpha (annotations stripped)."""
    return strip_annotations(alpha_canonical(t))


def strip_annotations(t: Term) -> Term:
    match t:
        case Nil():
            return t
        case SeqVar(x, cont):
            return SeqVar(x, strip_annotations(cont))
        case Push(arg, loc, cont):
            return Push(strip_annotations(arg), loc, strip_annotations(cont))
        case Pop(loc, x, cont, _):
            return Pop(loc, x, strip_annotations(cont))
        case Const(sym, cont):
            return Const(sym, strip_annotations(cont))
    raise TypeError(t)


# -- head contexts -----------------------------------------------------------

@dataclass(frozen=True)
class PushFrame:
    arg: Term
    loc: Location


@dataclass(frozen=True)
class PopFrame:
    loc: Location
    var: str
    annot: Optional["object"] = None


Frame = PushFrame | PopFrame


@dataclass(frozen=True)
class HeadContext:
    """A sequence of push/pop frames terminating in a hole."""

    frames: tuple[Frame, ...] = ()

    def __len__(self) -> int:
        return len(self.frames)


def bound_vars(h: HeadContext) -> frozenset[str]:
    return frozenset(f.var for f in h.frames if isinstance(f, PopFrame))


def locations_of_context(h: HeadContext) -> frozenset[Location]:
    return frozenset(f.loc for f in h.frames)


def plug(h: HeadContext, m: Term) -> Term:
    """H.M: replace the hole with m; pop frames capture in m."""
    for f in reversed(h.frames):
        if isinstance(f, PushFrame):
            m = Push(f.arg, f.loc, m)
        else:
            m = Pop(f.loc, f.var, m, f.annot)
    return m


def decompose(t: Term, depth: int) -> tuple[HeadContext, Term]:
    """Split off the first `depth` spine actions as a head context."""
    frames: list[Frame] = []
    for _ in range(depth):
        match t:
            case Push(arg, loc, cont):
                frames.append(PushFrame(arg, loc))
                t = cont
            case Pop(loc, x, cont, annot):
                frames.append(PopFrame(loc, x, annot))
                t = cont
            case _:
                raise ValueError("term has no head frame at this depth")
    return HeadContext(tuple(frames)), t


# -- fragments ---------------------------------------------------------------

def fragment_of(t: Term) -> str:
    """Classify into 'sequential', 'poly', or 'full'.

    Sequential terms use only the main location; poly terms use sequencing
    only trivially (variables and constants end the action sequence).
    """
    if all(loc.is_main() for loc in locations_of(t)):
        return "sequential"
    if _trivial_sequencing(t):
        return "poly"
    return "full"


def _trivial_sequencing(t: Term) -> bool:
    match t:
        case Nil():
            return True
        case SeqVar(_, cont) | Const(_, cont):
            return isinstance(cont, Nil)
        case Push(arg, _, cont):
            return _trivial_sequencing(arg) and _trivial_sequencing(cont)
        case Pop(_, _, cont):
            return _trivial_sequencing(cont)
    raise TypeError(t)


def spine(t: Term) -> Iterator[Term]:
    """The nodes along the continuation spine, including the final one."""
    while True:
        yield t
        match t:
            case SeqVar(_, cont) | Push(_, _, cont) | Pop(_, _, cont) | Const(_, cont):
                t = cont
            case _:
                return
