"""The three-level type system: simple types, stack vectors, memory types.

Vectors are stored bottom-to-top: the last item is the top of the stack.
Checking is syntax-directed against ground types; inference threads row
metavariables (stack tails, one per location) through a symbolic run of the
term, in the style of concatenative-language typecheckers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    MAIN,
    NIL,
    Const,
    ConstSym,
    Location,
    Nil,
    Pop,
    Push,
    SeqVar,
    Term,
    locations_of,
)


# -- type syntax --------------------------------------------------------------

@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class TVar:
    """Inference-only type metavariable."""

    id: int


@dataclass(frozen=True)
class Vector:
    """A stack type; `row` is a metavariable for an unknown deeper part."""

    items: tuple["SimpleType", ...] = ()
    row: Optional[int] = None


@dataclass(frozen=True)
class Mem:
    """A memory type: location-indexed vectors; absent locations are empty."""

    entries: tuple[tuple[Location, Vector], ...] = ()

    def get(self, loc: Location) -> Vector:
        for k, v in self.entries:
            if k == loc:
                return v
        return EMPTY_VEC

    def set(self, loc: Location, vec: Vector) -> "Mem":
        items = dict(self.entries)
        items[loc] = vec
        return mem(items)

    def locations(self) -> list[Location]:
        return [k for k, _ in self.entries]


@dataclass(frozen=True)
class Arrow:
    input: Mem
    output: Mem


SimpleType = Base | Arrow | TVar

EMPTY_VEC = Vector()
EMPTY_MEM = Mem()


def mem(entries: dict[Location, Vector]) -> Mem:
    """Normalized memory type: sorted entries, empty closed vectors dropped."""
    kept = {k: v for k, v in entries.items() if v.items or v.row is not None}
    return Mem(tuple(sorted(kept.items(), key=lambda kv: kv[0].name)))


def singleton(loc: Location, *items: SimpleType) -> Mem:
    return mem({loc: Vector(tuple(items))})


def arrow(inp: dict[Location, Vector] | Mem, out: dict[Location, Vector] | Mem) -> Arrow:
    i = inp if isinstance(inp, Mem) else mem(inp)
    o = out if isinstance(out, Mem) else mem(out)
    return Arrow(i, o)


def is_ground(ty: SimpleType | Vector | Mem) -> bool:
    match ty:
        case Base(_):
            return True
        case TVar(_):
            return False
        case Arrow(i, o):
            return is_ground(i) and is_ground(o)
        case Vector(items, row):
            return row is None and all(is_ground(t) for t in items)
        case Mem(entries):
            return all(is_ground(v) for _, v in entries)
    raise TypeError(ty)


def concat_mem(below: Mem, above: Mem) -> Mem:
    """Pointwise concatenation of ground memory types; `above` is on top."""
    out = dict(below.entries)
    for loc, vec in above.entries:
        prev = out.get(loc, EMPTY_VEC)
        out[loc] = Vector(prev.items + vec.items)
    return mem(out)


def strip_suffix(whole: Mem, suffix: Mem) -> Optional[Mem]:
    """The part of `whole` below `suffix`, or None if it does not match."""
    out = dict(whole.entries)
    for loc, vec in suffix.entries:
        have = out.get(loc, EMPTY_VEC)
        n = len(vec.items)
        if n > len(have.items) or have.items[len(have.items) - n:] != vec.items:
            return None
        out[loc] = Vector(have.items[: len(have.items) - n])
    return mem(out)


# -- pretty-printing (bottom-to-top, main-location atoms written bare) --------

def pretty_type(ty: SimpleType) -> str:
    match ty:
        case Base(name):
            return name
        case TVar(i):
            return f"'t{i}"
        case Arrow(i, o):
            left, right = pretty_mem(i), pretty_mem(o)
            return f"{left} > {right}".strip() if left or right else ">"
    raise TypeError(ty)


def _pretty_atom(ty: SimpleType) -> str:
    if isinstance(ty, Arrow):
        return f"({pretty_type(ty)})"
    return pretty_type(ty)


def pretty_vector(vec: Vector) -> str:
    parts = ([f"~r{vec.row}"] if vec.row is not None else []) + [_pretty_atom(t) for t in vec.items]
    return " ".join(parts)


def pretty_mem(m: Mem) -> str:
    parts = []
    for loc, vec in m.entries:
        if not vec.items and vec.row is None:
            continue
        if loc.is_main():
            parts.append(pretty_vector(vec))
        else:
            parts.append(f"{loc.name}({pretty_vector(vec)})")
    return " ".join(parts)


# -- errors --------------------------------------------------------------------

class TypeCheckError(Exception):
    """Raised when a term fails to check or infer."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) if self.path else "root"
        return f"{self.message} (at {where})"


class TypeMismatch(TypeCheckError):
    def __init__(self, expected, found, path=()):
        super().__init__(f"expected {_show(expected)}, found {_show(found)}", path)
        self.expected = expected
        self.found = found


class UnboundVariable(TypeCheckError):
    def __init__(self, name: str, path=()):
        super().__init__(f"unbound variable {name}", path)
        self.name = name


class ArityMismatch(TypeCheckError):
    pass


class UnificationClash(TypeCheckError):
    pass


class OccursCheck(TypeCheckError):
    pass


class AmbiguousConstant(TypeCheckError):
    pass


def _show(x) -> str:
    if isinstance(x, (Base, Arrow, TVar)):
        return pretty_type(x)
    if isinstance(x, Vector):
        return pretty_vector(x)
    if isinstance(x, Mem):
        return pretty_mem(x) or "(empty)"
    return str(x)


# -- signatures ----------------------------------------------------------------

_INT_RE = re.compile(r"-?[0-9]+")

POLY = object()  # marker payload for the conditional's schematic signature


@dataclass
class Signature:
    """Base type names plus constant operator types (main-stack in/out)."""

    bases: frozenset[str]
    ops: dict[str, tuple[tuple[SimpleType, ...], tuple[SimpleType, ...]]]
    poly_ops: frozenset[str] = frozenset()

    def literal_base(self, name: str) -> Optional[str]:
        if _INT_RE.fullmatch(name):
            return "Z"
        if name in ("true", "false"):
            return "B"
        return None

    def is_const(self, name: str) -> bool:
        return name in self.ops or name in self.poly_ops or self.literal_base(name) is not None

    def const_sym(self, name: str) -> ConstSym:
        if self.literal_base(name) is not None:
            return ConstSym(name, 0, 1)
        if name in self.poly_ops:
            return ConstSym(name, 3, 1)
        ins, outs = self.ops[name]
        return ConstSym(name, len(ins), len(outs))

    def op_arrow(self, name: str) -> Arrow:
        ins, outs = self.ops[name]
        return arrow({MAIN: Vector(ins)}, {MAIN: Vector(outs)})


def default_signature() -> Signature:
    z, b = Base("Z"), Base("B")
    return Signature(
        bases=frozenset({"Z", "B"}),
        ops={"+": ((z, z), (z,)), "mul": ((z, z), (z,))},
        poly_ops=frozenset({"if"}),
    )


DEFAULT_SIGNATURE = default_signature()


def load_signature(src: str, base: Optional[Signature] = None) -> Signature:
    """Parse `base Name` / `const name : type` lines into a signature."""
    from .parser import ParseError, parse_type

    sig = base or default_signature()
    bases = set(sig.bases)
    ops = dict(sig.ops)
    for lineno, raw in enumerate(src.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("base "):
            bases.add(line[5:].strip())
        elif line.startswith("const "):
            name, _, tysrc = line[6:].partition(":")
            ty = parse_type(tysrc.strip())
            if not isinstance(ty, Arrow):
                raise ParseError(f"line {lineno}: constant type must be an arrow")
            for m in (ty.input, ty.output):
                if any(not loc.is_main() for loc, _ in m.entries):
                    raise ParseError(f"line {lineno}: constants operate on the main stack only")
            ops[name.strip()] = (ty.input.get(MAIN).items, ty.output.get(MAIN).items)
        else:
            raise ParseError(f"line {lineno}: expected `base ...` or `const ...`")
    return Signature(frozenset(bases), ops, sig.poly_ops)


# -- unification ----------------------------------------------------------------

class InferState:
    """Metavariable store: type vars and per-location row vars."""

    def __init__(self):
        self._next = 0
        self.tv: dict[int, SimpleType] = {}
        self.rv: dict[int, Vector] = {}
        self.anchors: list[Mem] = []  # judgment inputs, for row-privacy checks

    def fresh_tvar(self) -> TVar:
        self._next += 1
        return TVar(self._next)

    def fresh_row(self) -> int:
        self._next += 1
        return self._next

    def resolve_type(self, ty: SimpleType) -> SimpleType:
        while isinstance(ty, TVar) and ty.id in self.tv:
            ty = self.tv[ty.id]
        return ty

    def resolve_vector(self, vec: Vector) -> Vector:
        while vec.row is not None and vec.row in self.rv:
            below = self.rv[vec.row]
            vec = Vector(below.items + vec.items, below.row)
        return vec

    def resolve_mem(self, m: Mem) -> Mem:
        return Mem(tuple((loc, self.resolve_vector(v)) for loc, v in m.entries))

    def zonk(self, ty, _cache: Optional[dict] = None):
        """Deep resolution; remaining metavariables stay in the structure.

        Bindings form a DAG with heavy sharing, so results are memoized per
        metavariable (and shared in the output, keeping equality cheap).
        """
        cache = _cache if _cache is not None else {}
        match ty:
            case Base(_):
                return ty
            case TVar(i):
                key = ("t", i)
                if key in cache:
                    return cache[key]
                r = self.resolve_type(ty)
                out = r if isinstance(r, TVar) else self.zonk(r, cache)
                cache[key] = out
                return out
            case Arrow(i, o):
                key = ("a", id(ty))
                if key in cache:
                    return cache[key]
                out = Arrow(self.zonk(i, cache), self.zonk(o, cache))
                cache[key] = out
                return out
            case Vector(_, _):
                v = self.resolve_vector(ty)
                return Vector(tuple(self.zonk(t, cache) for t in v.items), v.row)
            case Mem(entries):
                # entries stay sorted; just drop ones that became empty
                out = tuple((loc, zv) for loc, v in entries
                            for zv in (self.zonk(v, cache),)
                            if zv.items or zv.row is not None)
                return Mem(out)
        raise TypeError(ty)

    # occurs checks walk the zonked structure
    def _occurs(self, kind: str, ident: int, obj, _seen: Optional[set] = None) -> bool:
        seen = _seen if _seen is not None else set()
        match obj:
            case Base(_):
                return False
            case TVar(i):
                r = self.resolve_type(obj)
                if isinstance(r, TVar):
                    return kind == "t" and r.id == ident
                if ("t", i) in seen:
                    return False
                seen.add(("t", i))
                return self._occurs(kind, ident, r, seen)
            case Arrow(i, o):
                key = ("a", id(obj))
                if key in seen:
                    return False
                seen.add(key)
                return self._occurs(kind, ident, i, seen) or self._occurs(kind, ident, o, seen)
            case Vector(_, _):
                if obj.row is not None and ("r", obj.row) in seen and not obj.items:
                    return False
                v = self.resolve_vector(obj)
                if kind == "r" and v.row == ident:
                    return True
                if obj.row is not None:
                    seen.add(("r", obj.row))
                return any(self._occurs(kind, ident, t, seen) for t in v.items)
            case Mem(entries):
                return any(self._occurs(kind, ident, v, seen) for _, v in entries)
        raise TypeError(obj)

    def unify_type(self, a: SimpleType, b: SimpleType, path=()):
        a, b = self.resolve_type(a), self.resolve_type(b)
        match a, b:
            case TVar(i), TVar(j) if i == j:
                return
            case TVar(i), _:
                if self._occurs("t", i, b):
                    raise OccursCheck(f"occurs check: 't{i} in {_show(self.zonk(b))}", path)
                self.tv[i] = b
            case _, TVar(_):
                self.unify_type(b, a, path)
            case Base(x), Base(y):
                if x != y:
                    raise UnificationClash(f"cannot unify {x} with {y}", path)
            case Arrow(i1, o1), Arrow(i2, o2):
                self.unify_mem(i1, i2, path)
                self.unify_mem(o1, o2, path)
            case _:
                raise UnificationClash(
                    f"cannot unify {_show(self.zonk(a))} with {_show(self.zonk(b))}", path
                )

    def unify_vector(self, a: Vector, b: Vector, path=()):
        # unifying item types can bind rows in the remainders, so re-resolve
        # on every round
        while True:
            a, b = self.resolve_vector(a), self.resolve_vector(b)
            if a.items and b.items:
                self.unify_type(a.items[-1], b.items[-1], path)
                a = Vector(a.items[:-1], a.row)
                b = Vector(b.items[:-1], b.row)
                continue
            if a.items:
                self._bind_row(b, a.row, a.items, path)
                return
            if b.items:
                self._bind_row(a, b.row, b.items, path)
                return
            if a.row == b.row:
                return
            if a.row is None:
                self._bind_row(b, None, (), path)
            elif b.row is None:
                self._bind_row(a, None, (), path)
            else:
                self.rv[a.row] = Vector((), b.row)
            return

    def _bind_row(self, short: Vector, below_row: Optional[int], extra, path):
        """Bind short.row to the leftover part (below_row ++ extra) of the other side."""
        if short.row is None:
            raise UnificationClash("stack vectors differ in length", path)
        target = Vector(tuple(extra), below_row)
        if self._occurs("r", short.row, target):
            raise OccursCheck(f"occurs check on stack tail ~r{short.row}", path)
        self.rv[short.row] = target

    def unify_mem(self, a: Mem, b: Mem, path=()):
        locs = {loc for loc, _ in a.entries} | {loc for loc, _ in b.entries}
        for loc in sorted(locs, key=lambda l: l.name):
            self.unify_vector(a.get(loc), b.get(loc), path)


def unify(a, b) -> InferState:
    """Standalone most-general unification; raises on clash or occurs."""
    st = InferState()
    if isinstance(a, Mem) and isinstance(b, Mem):
        st.unify_mem(a, b)
    elif isinstance(a, Vector) and isinstance(b, Vector):
        st.unify_vector(a, b)
    else:
        st.unify_type(a, b)
    return st


# -- checking (syntax-directed, ground expected types) ---------------------------

@dataclass(frozen=True)
class Derivation:
    """One typing-rule instance; children follow subterm order."""

    rule: str
    term: Term
    ty: SimpleType
    children: tuple["Derivation", ...] = ()
    binder_type: Optional[SimpleType] = None  # pop rule
    var_type: Optional[SimpleType] = None  # sequential-variable rule


Context = dict[str, SimpleType]


def check(ctx: Context, t: Term, ty: SimpleType, sig: Signature = DEFAULT_SIGNATURE,
          path: tuple[int, ...] = ()) -> Derivation:
    """Check t against a ground type, producing the full derivation."""
    if isinstance(ty, Base):
        match t:
            case SeqVar(x, Nil()):
                found = ctx.get(x)
                if found is None:
                    raise UnboundVariable(x, path)
                if found != ty:
                    raise TypeMismatch(ty, found, path)
                return Derivation("base-var", t, ty)
            case Const(sym, Nil()):
                lit = sig.literal_base(sym.name)
                if lit is None or Base(lit) != ty:
                    raise TypeMismatch(ty, sym.name, path)
                return Derivation("base-lit", t, ty)
            case _:
                raise TypeMismatch(ty, t, path)
    if not isinstance(ty, Arrow):
        raise TypeCheckError("expected type must be ground", path)
    inp, out = ty.input, ty.output
    match t:
        case Nil():
            if inp != out:
                raise TypeMismatch(Arrow(inp, inp), ty, path)
            return Derivation("nil", t, ty)
        case Pop(loc, x, cont, annot):
            vec = inp.get(loc)
            if not vec.items:
                raise ArityMismatch(f"pop on {loc.name} needs a {loc.name}-input", path)
            r = vec.items[-1]
            if annot is not None and annot != r:
                raise TypeMismatch(r, annot, path)
            rest = inp.set(loc, Vector(vec.items[:-1]))
            child = check({**ctx, x: r}, cont, Arrow(rest, out), sig, path + (0,))
            return Derivation("pop", t, ty, (child,), binder_type=r)
        case Push(arg, loc, cont):
            r = _argument_type(ctx, arg, sig, path + (0,))
            arg_deriv = check(ctx, arg, r, sig, path + (0,))
            grown = inp.set(loc, Vector(inp.get(loc).items + (r,)))
            child = check(ctx, cont, Arrow(grown, out), sig, path + (1,))
            return Derivation("push", t, ty, (arg_deriv, child))
        case SeqVar(x, cont):
            found = ctx.get(x)
            if found is None:
                raise UnboundVariable(x, path)
            if not isinstance(found, Arrow):
                raise TypeMismatch("an arrow type", found, path)
            below = strip_suffix(inp, found.input)
            if below is None:
                raise TypeMismatch(found.input, inp, path)
            child = check(ctx, cont, Arrow(concat_mem(below, found.output), out), sig, path + (0,))
            return Derivation("seq-var", t, ty, (child,), var_type=found)
        case Const(sym, cont):
            ins, outs = _const_instance(sym, inp, sig, path)
            below = strip_suffix(inp, mem({MAIN: Vector(ins)}))
            if below is None:
                raise TypeMismatch(Vector(ins), inp.get(MAIN), path)
            grown = concat_mem(below, mem({MAIN: Vector(outs)}))
            child = check(ctx, cont, Arrow(grown, out), sig, path + (0,))
            return Derivation("const", t, ty, (child,),
                              var_type=arrow({MAIN: Vector(ins)}, {MAIN: Vector(outs)}))
    raise TypeError(t)


def _const_instance(sym: ConstSym, inp: Mem, sig: Signature, path):
    """Resolve a constant prefix against the current main-stack type."""
    lit = sig.literal_base(sym.name)
    if lit is not None:
        return (), (Base(lit),)
    if sym.name in sig.poly_ops:
        items = inp.get(MAIN).items
        if len(items) < 3:
            raise ArityMismatch(f"{sym.name} needs three main-stack inputs", path)
        t = items[-2]
        if items[-3] != t or items[-1] != Base("B"):
            raise TypeMismatch(Vector((t, t, Base("B"))), Vector(items[-3:]), path)
        return (t, t, Base("B")), (t,)
    if sym.name in sig.ops:
        return sig.ops[sym.name]
    raise UnboundVariable(sym.name, path)


def _argument_type(ctx: Context, arg: Term, sig: Signature, path) -> SimpleType:
    """The type at which a push argument is checked.

    Bare variables and literals denote their own value; anything else is
    inferred and leftover metavariables are instantiated minimally.
    """
    match arg:
        case SeqVar(x, Nil()):
            found = ctx.get(x)
            if found is None:
                raise UnboundVariable(x, path)
            return found
        case Const(sym, Nil()):
            lit = sig.literal_base(sym.name)
            if lit is not None:
                return Base(lit)
            if sym.name in sig.poly_ops:
                raise AmbiguousConstant(
                    f"pushing polymorphic constant {sym.name} needs an annotation", path)
            if sym.name in sig.ops:
                return sig.op_arrow(sym.name)
            raise UnboundVariable(sym.name, path)
        case _:
            scheme = infer(ctx, arg, sig)
            return scheme.instantiate_minimal()


# -- inference -------------------------------------------------------------------

@dataclass
class Scheme:
    """A zonked arrow; its metavariables are implicitly quantified.

    Locations not mentioned behave as identity (same row in and out).
    """

    type_: Arrow

    def metavars(self) -> tuple[set[int], set[int]]:
        tvs: set[int] = set()
        rows: set[int] = set()

        def go(x):
            match x:
                case Base(_):
                    pass
                case TVar(i):
                    tvs.add(i)
                case Arrow(i, o):
                    go(i)
                    go(o)
                case Vector(items, row):
                    if row is not None:
                        rows.add(row)
                    for t in items:
                        go(t)
                case Mem(entries):
                    for _, v in entries:
                        go(v)

        go(self.type_)
        return tvs, rows

    def instantiate(self, tv_map: dict[int, SimpleType], row_map: dict[int, tuple[SimpleType, ...]]) -> Arrow:
        def go(x):
            match x:
                case Base(_):
                    return x
                case TVar(i):
                    return tv_map.get(i, Arrow(EMPTY_MEM, EMPTY_MEM))
                case Arrow(i, o):
                    return Arrow(go(i), go(o))
                case Vector(items, row):
                    below = row_map.get(row, ()) if row is not None else ()
                    return Vector(tuple(go(t) for t in below) + tuple(go(t) for t in items))
                case Mem(entries):
                    return mem({loc: go(v) for loc, v in entries})

        return go(self.type_)

    def instantiate_minimal(self) -> Arrow:
        return self.instantiate({}, {})

    def __str__(self) -> str:
        return pretty_type(self.type_)


def infer(ctx: Context, t: Term, sig: Signature = DEFAULT_SIGNATURE) -> Scheme:
    """Principal-ish scheme via a symbolic forward run of the term."""
    return infer_with_derivation(ctx, t, sig)[0]


def infer_with_derivation(ctx: Context, t: Term, sig: Signature = DEFAULT_SIGNATURE
                          ) -> tuple[Scheme, Derivation]:
    """Inference yielding both the scheme and the minimally instantiated
    ground derivation, which always validates.

    The optimistic mode freshens private pass-through tails at variable
    uses; if its derivation fails validation (over-eager generalization on
    unusual sharing), inference reruns in the conservative absorbing mode.
    """
    for fresh_tails in (True, False):
        st, inp, out, deriv = _infer(ctx, t, sig, fresh_tails)
        zcache: dict = {}
        scheme = Scheme(Arrow(st.zonk(inp, zcache), st.zonk(out, zcache)))
        ground = _ground_derivation(st, deriv, zcache, {})
        try:
            validate_derivation(ground, dict(ctx), sig)
        except TypeCheckError:
            if fresh_tails:
                continue
            raise
        return scheme, ground
    raise AssertionError("unreachable")


def check_infer(ctx: Context, t: Term, ty: Arrow, sig: Signature = DEFAULT_SIGNATURE) -> Derivation:
    """Check against a ground arrow by inference plus unification.

    Complements `check`: the expected type can determine push-argument
    types retroactively.  The produced derivation is validated, so a
    successful result is always a genuine typing derivation.
    """
    last: Optional[TypeCheckError] = None
    for fresh_tails in (True, False):
        st, inp, out, deriv = _infer(ctx, t, sig, fresh_tails)
        try:
            st.unify_mem(st.resolve_mem(inp), ty.input)
            st.unify_mem(st.resolve_mem(out), ty.output)
            ground = _ground_derivation(st, deriv)
            validate_derivation(ground, dict(ctx), sig)
            return ground
        except TypeCheckError as exc:
            last = exc
    assert last is not None
    raise last


def _infer(ctx: Context, t: Term, sig: Signature, fresh_tails: bool = True):
    st = InferState()
    st.fresh_tails = fresh_tails
    universe = sorted(locations_of(t) | {MAIN} | _ctx_locations(ctx), key=lambda l: l.name)
    inp = _fresh_open_mem(st, universe)
    st.anchors.append(inp)
    out, deriv = _infer_spine(st, dict(ctx), t, inp, universe, sig, (), inp)
    return st, inp, out, deriv


def _reachable_rows(st: InferState, obj, out: set[int], _seen: Optional[set] = None):
    """Row metavariables reachable from obj under the current bindings."""
    seen = _seen if _seen is not None else set()
    match obj:
        case Base(_):
            pass
        case TVar(i):
            r = st.resolve_type(obj)
            if not isinstance(r, TVar) and ("t", i) not in seen:
                seen.add(("t", i))
                _reachable_rows(st, r, out, seen)
        case Arrow(i, o):
            key = ("a", id(obj))
            if key not in seen:
                seen.add(key)
                _reachable_rows(st, i, out, seen)
                _reachable_rows(st, o, out, seen)
        case Vector(_, _):
            v = st.resolve_vector(obj)
            if v.row is not None:
                out.add(v.row)
            for t in v.items:
                _reachable_rows(st, t, out, seen)
        case Mem(entries):
            for _, v in entries:
                _reachable_rows(st, v, out, seen)
        case _:
            raise TypeError(obj)


def _ctx_locations(ctx: Context) -> set[Location]:
    locs: set[Location] = set()

    def go(x):
        match x:
            case Arrow(i, o):
                go(i)
                go(o)
            case Mem(entries):
                for loc, v in entries:
                    locs.add(loc)
                    go(v)
            case Vector(items, _):
                for t in items:
                    go(t)
            case _:
                pass

    for ty in ctx.values():
        go(ty)
    return locs


def _fresh_open_mem(st: InferState, universe) -> Mem:
    return Mem(tuple((loc, Vector((), st.fresh_row())) for loc in sorted(universe, key=lambda l: l.name)))


def _pop_symbolic(st: InferState, current: Mem, loc: Location, path) -> tuple[SimpleType, Mem]:
    vec = st.resolve_vector(current.get(loc))
    if vec.items:
        return vec.items[-1], current.set(loc, Vector(vec.items[:-1], vec.row))
    if vec.row is None:
        raise ArityMismatch(f"pop on {loc.name or 'the main stack'} from an empty stack type", path)
    tau = st.fresh_tvar()
    below = st.fresh_row()
    st.rv[vec.row] = Vector((tau,), below)
    return tau, current.set(loc, Vector((), below))


def _push_symbolic(st: InferState, current: Mem, loc: Location, ty: SimpleType) -> Mem:
    vec = st.resolve_vector(current.get(loc))
    return current.set(loc, Vector(vec.items + (ty,), vec.row))


def _infer_spine(st, ctx, t, current, universe, sig, path, inp) -> tuple[Mem, Derivation]:
    entry = current
    match t:
        case Nil():
            return current, Derivation("nil", t, Arrow(entry, entry))
        case Pop(loc, x, cont, annot):
            r, current = _pop_symbolic(st, current, loc, path)
            if annot is not None:
                st.unify_type(r, annot, path)
            final, child = _infer_spine(st, {**ctx, x: r}, cont, current, universe, sig, path + (0,), inp)
            return final, Derivation("pop", t, Arrow(entry, final), (child,), binder_type=r)
        case Push(arg, loc, cont):
            r, arg_deriv = _infer_argument(st, ctx, arg, universe, sig, path + (0,))
            current = _push_symbolic(st, current, loc, r)
            final, child = _infer_spine(st, ctx, cont, current, universe, sig, path + (1,), inp)
            return final, Derivation("push", t, Arrow(entry, final), (arg_deriv, child))
        case Const(sym, cont):
            lit = sig.literal_base(sym.name)
            if lit is not None:
                ins: tuple[SimpleType, ...] = ()
                outs: tuple[SimpleType, ...] = (Base(lit),)
            elif sym.name in sig.poly_ops:
                tau = st.fresh_tvar()
                ins, outs = (tau, tau, Base("B")), (tau,)
            elif sym.name in sig.ops:
                ins, outs = sig.ops[sym.name]
            else:
                raise UnboundVariable(sym.name, path)
            for expected in reversed(ins):
                r, current = _pop_symbolic(st, current, MAIN, path)
                st.unify_type(r, expected, path)
            for produced in outs:
                current = _push_symbolic(st, current, MAIN, produced)
            final, child = _infer_spine(st, ctx, cont, current, universe, sig, path + (0,), inp)
            return final, Derivation("const", t, Arrow(entry, final), (child,),
                                     var_type=arrow({MAIN: Vector(ins)}, {MAIN: Vector(outs)}))
        case SeqVar(x, cont):
            ty = ctx.get(x)
            if ty is None:
                raise UnboundVariable(x, path)
            ty = st.resolve_type(ty)
            if isinstance(ty, Base):
                raise TypeMismatch("an arrow type", ty, path)
            if isinstance(ty, TVar):
                # first use fixes the variable to consume the whole current stack
                if st._occurs("t", ty.id, current):
                    raise OccursCheck(f"variable {x} would consume itself", path)
                fresh_out = _fresh_open_mem(st, universe)
                st.tv[ty.id] = Arrow(current, fresh_out)
                current = fresh_out
                used = st.tv[ty.id]
            else:
                forbidden: set[int] = set()
                for mobj in st.anchors + [current]:
                    _reachable_rows(st, mobj, forbidden)
                for name, other in ctx.items():
                    if name != x:
                        _reachable_rows(st, other, forbidden)
                current = _apply_arrow(st, current, ty, path, forbidden,
                                       getattr(st, "fresh_tails", True))
                used = ty
            final, child = _infer_spine(st, ctx, cont, current, universe, sig, path + (0,), inp)
            return final, Derivation("seq-var", t, Arrow(entry, final), (child,), var_type=used)
    raise TypeError(t)


def _apply_arrow(st: InferState, current: Mem, ty: Arrow, path,
                 forbidden: Optional[set[int]] = None,
                 fresh_tails: bool = True) -> Mem:
    """Thread the current stack type through a use of an arrow-typed variable.

    Per location: closed vectors are consumed item-by-item on top of a
    pass-through region; a tail row shared between the variable's input and
    output *is* that pass-through region, so each use gets a fresh copy of
    it when the row is private to this type; anything else is unified
    wholesale (sound, possibly conservative).  Unifying one location can
    bind rows mentioned by the next, so everything re-resolves per step.
    """
    locs = {loc for loc, _ in ty.input.entries} | {loc for loc, _ in ty.output.entries}
    for loc in sorted(locs, key=lambda l: l.name):
        ix, ox = st.resolve_mem(ty.input), st.resolve_mem(ty.output)
        vi, vo = ix.get(loc), ox.get(loc)
        tail_counts: dict[int, int] = {}
        for m in (ix, ox):
            for _, vec in m.entries:
                if vec.row is not None:
                    tail_counts[vec.row] = tail_counts.get(vec.row, 0) + 1
        all_items = tuple(t for m in (ix, ox) for _, vec in m.entries for t in vec.items)
        if vi.row is None and vo.row is None:
            for expected in reversed(vi.items):
                r, current = _pop_symbolic(st, current, loc, path)
                st.unify_type(r, expected, path)
            for produced in vo.items:
                current = _push_symbolic(st, current, loc, produced)
        elif (fresh_tails
              and vi.row is not None and vi.row == vo.row and tail_counts[vi.row] == 2
              and vi.row not in (forbidden or set())
              and not any(st._occurs("r", vi.row, t) for t in all_items)):
            fresh = st.fresh_row()
            st.unify_vector(st.resolve_vector(current.get(loc)), Vector(vi.items, fresh), path)
            current = current.set(loc, Vector(vo.items, fresh))
        else:
            st.unify_vector(st.resolve_vector(current.get(loc)), vi, path)
            current = current.set(loc, st.resolve_vector(vo))
    return current


def _infer_argument(st, ctx, arg, universe, sig, path) -> tuple[SimpleType, Derivation]:
    match arg:
        case SeqVar(x, Nil()):
            ty = ctx.get(x)
            if ty is None:
                raise UnboundVariable(x, path)
            # resolved to base-var or a trivial seq-var use when grounded
            return ty, Derivation("arg-var", arg, ty)
        case Const(sym, Nil()):
            lit = sig.literal_base(sym.name)
            if lit is not None:
                return Base(lit), Derivation("base-lit", arg, Base(lit))
            if sym.name in sig.poly_ops:
                raise AmbiguousConstant(
                    f"pushing polymorphic constant {sym.name} needs an annotation", path)
            if sym.name in sig.ops:
                ar = sig.op_arrow(sym.name)
                nil_d = Derivation("nil", NIL, Arrow(ar.output, ar.output))
                return ar, Derivation("const", arg, ar, (nil_d,), var_type=ar)
            raise UnboundVariable(sym.name, path)
        case _:
            arg_inp = _fresh_open_mem(st, universe)
            st.anchors.append(arg_inp)
            try:
                out, deriv = _infer_spine(st, ctx, arg, arg_inp, universe, sig, path, arg_inp)
            finally:
                st.anchors.pop()
            return Arrow(arg_inp, out), deriv


# -- grounding and validating inferred derivations ----------------------------------

def _ground_ty(st: InferState, obj, zcache: Optional[dict] = None,
               fcache: Optional[dict] = None):
    """Zonk, then instantiate leftover metavariables minimally."""
    zcache = zcache if zcache is not None else {}
    fcache = fcache if fcache is not None else {}
    z = st.zonk(obj, zcache)

    def fill(x):
        match x:
            case Base(_):
                return x
            case TVar(_):
                return Arrow(EMPTY_MEM, EMPTY_MEM)
            case _:
                pass
        key = id(x)
        hit = fcache.get(key)
        if hit is not None:
            return hit
        match x:
            case Arrow(i, o):
                out = Arrow(fill(i), fill(o))
            case Vector(items, _):
                out = Vector(tuple(fill(t) for t in items))
            case Mem(entries):
                out = Mem(tuple((loc, fv) for loc, v in entries
                                for fv in (fill(v),) if fv.items))
            case _:
                raise TypeError(x)
        fcache[key] = out
        return out

    return fill(z)


def _ground_derivation(st: InferState, d: Derivation,
                       zcache: Optional[dict] = None,
                       fcache: Optional[dict] = None) -> Derivation:
    zcache = zcache if zcache is not None else {}
    fcache = fcache if fcache is not None else {}
    ty = _ground_ty(st, d.ty, zcache, fcache)
    if d.rule == "arg-var":
        if isinstance(ty, Base):
            return Derivation("base-var", d.term, ty)
        assert isinstance(ty, Arrow)
        nil_d = Derivation("nil", NIL, Arrow(ty.output, ty.output))
        return Derivation("seq-var", d.term, ty, (nil_d,), var_type=ty)
    return Derivation(
        d.rule, d.term, ty,
        tuple(_ground_derivation(st, c, zcache, fcache) for c in d.children),
        binder_type=None if d.binder_type is None else _ground_ty(st, d.binder_type, zcache, fcache),
        var_type=None if d.var_type is None else _ground_ty(st, d.var_type, zcache, fcache),
    )


def validate_derivation(d: Derivation, ctx: Context, sig: Signature = DEFAULT_SIGNATURE,
                        path: tuple[int, ...] = ()) -> None:
    """Confirm each node is a genuine rule instance; raises on failure."""
    match d.rule:
        case "base-var":
            if ctx.get(d.term.var) != d.ty:
                raise TypeMismatch(d.ty, ctx.get(d.term.var), path)
        case "base-lit":
            lit = sig.literal_base(d.term.sym.name)
            if lit is None or Base(lit) != d.ty:
                raise TypeMismatch(d.ty, d.term.sym.name, path)
        case "nil":
            if not isinstance(d.ty, Arrow) or d.ty.input != d.ty.output:
                raise TypeMismatch("an identity arrow", d.ty, path)
        case "pop":
            inp, out = d.ty.input, d.ty.output
            vec = inp.get(d.term.loc)
            if not vec.items or vec.items[-1] != d.binder_type:
                raise TypeMismatch(d.binder_type, vec, path)
            rest = inp.set(d.term.loc, Vector(vec.items[:-1]))
            child = d.children[0]
            if child.ty != Arrow(rest, out):
                raise TypeMismatch(Arrow(rest, out), child.ty, path)
            validate_derivation(child, {**ctx, d.term.var: d.binder_type}, sig, path + (0,))
        case "push":
            arg_d, child = d.children
            inp, out = d.ty.input, d.ty.output
            grown = inp.set(d.term.loc, Vector(inp.get(d.term.loc).items + (arg_d.ty,)))
            if child.ty != Arrow(grown, out):
                raise TypeMismatch(Arrow(grown, out), child.ty, path)
            validate_derivation(arg_d, ctx, sig, path + (0,))
            validate_derivation(child, ctx, sig, path + (1,))
        case "seq-var":
            found = ctx.get(d.term.var)
            if found != d.var_type or not isinstance(found, Arrow):
                raise TypeMismatch(d.var_type, found, path)
            below = strip_suffix(d.ty.input, found.input)
            if below is None:
                raise TypeMismatch(found.input, d.ty.input, path)
            child = d.children[0]
            if child.ty != Arrow(concat_mem(below, found.output), d.ty.output):
                raise TypeMismatch(Arrow(concat_mem(below, found.output), d.ty.output),
                                   child.ty, path)
            validate_derivation(child, ctx, sig, path + (0,))
        case "const":
            sym = d.term.sym
            ins, outs = d.var_type.input.get(MAIN).items, d.var_type.output.get(MAIN).items
            lit = sig.literal_base(sym.name)
            if lit is not None:
                if ins or outs != (Base(lit),):
                    raise TypeMismatch(Base(lit), d.var_type, path)
            elif sym.name in sig.poly_ops:
                if len(ins) != 3 or ins[0] != ins[1] or ins[2] != Base("B") or outs != (ins[0],):
                    raise TypeMismatch("a conditional instance", d.var_type, path)
            elif sig.ops.get(sym.name) != (ins, outs):
                raise TypeMismatch(sig.ops.get(sym.name), (ins, outs), path)
            below = strip_suffix(d.ty.input, mem({MAIN: Vector(ins)}))
            if below is None:
                raise TypeMismatch(Vector(ins), d.ty.input.get(MAIN), path)
            child = d.children[0]
            expected = Arrow(concat_mem(below, mem({MAIN: Vector(outs)})), d.ty.output)
            if child.ty != expected:
                raise TypeMismatch(expected, child.ty, path)
            validate_derivation(child, ctx, sig, path + (0,))
        case other:
            raise TypeCheckError(f"unknown rule {other}", path)
