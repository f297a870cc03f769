"""Core term syntax: locations, constants, terms, substitution, composition.

Terms are immutable and considered modulo alpha-equivalence: `==` and
`hash` compare de Bruijn keys.  A term is a sequence of *actions* (variable
use, push, pop, constant) ending in the nil term `*`; pushes carry an
argument term and every action names a location, with the main location
written as the empty annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


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
    """Base class; concrete terms are Nil, SeqVar, Push, Pop, Const.

    Equality is alpha-equivalence: two terms are equal when their de Bruijn
    keys are.  A node keeps the hash of its key once it is first hashed.
    """

    __slots__ = ("_hash",)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return _debruijn(self, {}, 0) == _debruijn(other, {}, 0)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(_debruijn(self, {}, 0))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        from .parser import print_term

        return f"<term {print_term(self)!r}>"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Nil(Term):
    """The empty instruction `*`."""


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class SeqVar(Term):
    """A variable used in sequence position: `x.M`."""

    var: str
    cont: Term


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Push(Term):
    """An application / push action `[N]a.M`."""

    arg: Term
    loc: Location
    cont: Term


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Pop(Term):
    """An abstraction / pop action `a<x>.M`, binding x in the continuation."""

    loc: Location
    var: str
    cont: Term
    annot: Optional["object"] = None  # optional SimpleType, ignored by ==


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Const(Term):
    """A constant prefix `c.M` (literal or operator)."""

    sym: ConstSym
    cont: Term


NIL = Nil()


def var(name: str) -> Term:
    """The term `x`, i.e. `x.*`."""
    return SeqVar(name, NIL)


# The traversals below walk the continuation spine in a loop, so that only
# `Push.arg` nests and long action sequences stay off the Python stack.

def _debruijn(t: Term, env: dict[str, int], depth: int) -> tuple:
    """The key of t under `depth` enclosing pops, `env` mapping each bound
    name to the depth of its binder.

    In preorder: a bound variable is its de Bruijn index (int), a free one
    its name (str), a constant its symbol, a pop its location, and a push
    the key of its argument (tuple) followed by its location.  Binder names
    and annotations are left out.
    """
    key = []
    shadowed = []  # (name, outer binder depth or None), restored on return
    while True:
        kind = type(t)
        if kind is Nil:
            break
        if kind is SeqVar:
            level = env.get(t.var)
            key.append(t.var if level is None else depth - 1 - level)
        elif kind is Push:
            key.append(_debruijn(t.arg, env, depth))
            key.append(t.loc)
        elif kind is Pop:
            shadowed.append((t.var, env.get(t.var)))
            env[t.var] = depth
            depth += 1
            key.append(t.loc)
        elif kind is Const:
            key.append(t.sym)
        else:
            raise TypeError(t)
        t = t.cont
    for name, level in reversed(shadowed):
        if level is None:
            del env[name]
        else:
            env[name] = level
    return tuple(key)


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


def fresh_name(base: str, avoid: frozenset[str] | set[str] = frozenset()) -> str:
    """The first of x', x'0, x'1, ... not in `avoid`, x being `base` without
    its primes and digits."""
    stem = base.rstrip("'0123456789") or "x"
    candidate = stem + "'"
    n = 0
    while candidate in avoid:
        candidate = f"{stem}'{n}"
        n += 1
    return candidate


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
    """Equality modulo renaming of pop binders; the same as `a == b`."""
    return a == b


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
    """A hashable key identifying t up to alpha: t itself."""
    return t


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
