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


def arrow(inp: dict[Location, Vector] | Mem, out: dict[Location, Vector] | Mem) -> Arrow:
    i = inp if isinstance(inp, Mem) else mem(inp)
    o = out if isinstance(out, Mem) else mem(out)
    return Arrow(i, o)


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

    def unify_type(self, a: SimpleType, b: SimpleType):
        a, b = self.resolve_type(a), self.resolve_type(b)
        match a, b:
            case TVar(i), TVar(j) if i == j:
                return
            case TVar(i), _:
                if self._occurs("t", i, b):
                    raise OccursCheck(f"occurs check: 't{i} in {_show(self.zonk(b))}")
                self.tv[i] = b
            case _, TVar(_):
                self.unify_type(b, a)
            case Base(x), Base(y):
                if x != y:
                    raise UnificationClash(f"cannot unify {x} with {y}")
            case Arrow(i1, o1), Arrow(i2, o2):
                self.unify_mem(i1, i2)
                self.unify_mem(o1, o2)
            case _:
                raise UnificationClash(f"cannot unify {_show(self.zonk(a))} with {_show(self.zonk(b))}")

    def unify_vector(self, a: Vector, b: Vector):
        # unifying item types can bind rows in the remainders, so re-resolve
        # on every round
        while True:
            a, b = self.resolve_vector(a), self.resolve_vector(b)
            if a.items and b.items:
                self.unify_type(a.items[-1], b.items[-1])
                a = Vector(a.items[:-1], a.row)
                b = Vector(b.items[:-1], b.row)
                continue
            if a.items:
                self._bind_row(b, a.row, a.items)
                return
            if b.items:
                self._bind_row(a, b.row, b.items)
                return
            if a.row == b.row:
                return
            if a.row is None:
                self._bind_row(b, None, ())
            elif b.row is None:
                self._bind_row(a, None, ())
            else:
                self.rv[a.row] = Vector((), b.row)
            return

    def _bind_row(self, short: Vector, below_row: Optional[int], extra):
        """Bind short.row to the leftover part (below_row ++ extra) of the other side."""
        if short.row is None:
            raise UnificationClash("stack vectors differ in length")
        target = Vector(tuple(extra), below_row)
        if self._occurs("r", short.row, target):
            raise OccursCheck(f"occurs check on stack tail ~r{short.row}")
        self.rv[short.row] = target

    def unify_mem(self, a: Mem, b: Mem):
        locs = {loc for loc, _ in a.entries} | {loc for loc, _ in b.entries}
        for loc in sorted(locs, key=lambda l: l.name):
            self.unify_vector(a.get(loc), b.get(loc))


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


def _build_spine(nodes: list, last: Derivation) -> Derivation:
    """Nest the derivations of a spine bottom-up.

    Each of `nodes` is (rule, term, input type, extra children, keyword
    fields); its last child is the derivation of the rest of the spine.
    Every judgment on a spine ends at the output type of `last`.
    """
    d, out = last, last.ty.output
    for rule, term, inp, extra, fields in reversed(nodes):
        d = Derivation(rule, term, Arrow(inp, out), extra + (d,), **fields)
    return d


def _frame(inp: Mem, ty: Arrow) -> Mem:
    """The frame rule on ground types: ty's inputs on top of inp become its outputs."""
    below = strip_suffix(inp, ty.input)
    if below is None:
        raise TypeMismatch(ty.input, inp)
    return concat_mem(below, ty.output)


def check(ctx: Context, t: Term, ty: SimpleType, sig: Signature = DEFAULT_SIGNATURE,
          path: tuple[int, ...] = ()) -> Derivation:
    """Check t against a ground type, producing the full derivation.

    The spine is walked in a loop; only push arguments nest.
    """
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
    ctx = dict(ctx)
    inp, out = ty.input, ty.output
    nodes: list = []
    try:
        while not isinstance(t, Nil):
            entry = inp
            match t:
                case Pop(loc, x, cont, annot):
                    vec = inp.get(loc)
                    if not vec.items:
                        raise ArityMismatch(f"pop on {loc.name} needs a {loc.name}-input")
                    r = vec.items[-1]
                    if annot is not None and annot != r:
                        raise TypeMismatch(r, annot)
                    inp = inp.set(loc, Vector(vec.items[:-1]))
                    ctx[x] = r
                    nodes.append(("pop", t, entry, (), {"binder_type": r}))
                case Push(arg, loc, cont):
                    r = _argument_type(ctx, arg, sig, (0,))
                    arg_deriv = check(ctx, arg, r, sig, (0,))
                    inp = inp.set(loc, Vector(inp.get(loc).items + (r,)))
                    nodes.append(("push", t, entry, (arg_deriv,), {}))
                case SeqVar(x, cont):
                    found = ctx.get(x)
                    if found is None:
                        raise UnboundVariable(x)
                    if not isinstance(found, Arrow):
                        raise TypeMismatch("an arrow type", found)
                    inp = _frame(inp, found)
                    nodes.append(("seq-var", t, entry, (), {"var_type": found}))
                case Const(sym, cont):
                    ins, outs = _const_instance(sym, inp, sig, ())
                    found = arrow({MAIN: Vector(ins)}, {MAIN: Vector(outs)})
                    inp = _frame(inp, found)
                    nodes.append(("const", t, entry, (), {"var_type": found}))
                case _:
                    raise TypeError(t)
            t = cont
        if inp != out:
            raise TypeMismatch(Arrow(inp, inp), Arrow(inp, out))
    except TypeCheckError as exc:  # a node's spine child follows its extra children
        exc.path = path + tuple(len(extra) for _, _, _, extra, _ in nodes) + exc.path
        raise
    return _build_spine(nodes, Derivation("nil", t, Arrow(out, out)))


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
        todo: list = [self.type_]
        while todo:
            match todo.pop():
                case TVar(i):
                    tvs.add(i)
                case Arrow(i, o):
                    todo += (i, o)
                case Vector(items, row):
                    if row is not None:
                        rows.add(row)
                    todo += items
                case Mem(entries):
                    todo += (v for _, v in entries)
        return tvs, rows

    def instantiate(self, tv_map: dict[int, SimpleType], row_map: dict[int, tuple[SimpleType, ...]]) -> Arrow:
        return _instantiate(self.type_, tv_map, row_map)

    def instantiate_minimal(self) -> Arrow:
        return self.instantiate({}, {})

    def __str__(self) -> str:
        return pretty_type(self.type_)


def _instantiate(x, tv_map: dict[int, SimpleType], row_map: dict[int, tuple[SimpleType, ...]]):
    match x:
        case Base(_):
            return x
        case TVar(i):
            return tv_map.get(i, Arrow(EMPTY_MEM, EMPTY_MEM))
        case Arrow(i, o):
            return Arrow(_instantiate(i, tv_map, row_map), _instantiate(o, tv_map, row_map))
        case Vector(items, row):
            below = row_map.get(row, ()) if row is not None else ()
            return Vector(tuple(_instantiate(t, tv_map, row_map) for t in below + items))
        case Mem(entries):
            return mem({loc: _instantiate(v, tv_map, row_map) for loc, v in entries})
    raise TypeError(x)


def infer(ctx: Context, t: Term, sig: Signature = DEFAULT_SIGNATURE) -> Scheme:
    """A type scheme via a symbolic forward run of the term."""
    return infer_with_derivation(ctx, t, sig)[0]


def infer_with_derivation(ctx: Context, t: Term, sig: Signature = DEFAULT_SIGNATURE
                          ) -> tuple[Scheme, Derivation]:
    """Inference yielding both the scheme and the minimally instantiated
    ground derivation.

    Every choice inference makes is a binding in its store, so the grounded
    derivation is valid by construction; it is validated all the same.
    """
    st, inp, out, deriv = _infer(ctx, t, sig)
    zcache: dict = {}
    scheme = Scheme(Arrow(st.zonk(inp, zcache), st.zonk(out, zcache)))
    ground = _ground_derivation(st, deriv, zcache)
    validate_derivation(ground, ctx, sig)
    return scheme, ground


def check_infer(ctx: Context, t: Term, ty: Arrow, sig: Signature = DEFAULT_SIGNATURE) -> Derivation:
    """Check against a ground arrow by inference plus unification.

    Complements `check`: the expected type can determine push-argument
    types retroactively.  The produced derivation is validated, so a
    successful result is always a genuine typing derivation.
    """
    st, inp, out, deriv = _infer(ctx, t, sig)
    st.unify_mem(st.resolve_mem(inp), ty.input)
    st.unify_mem(st.resolve_mem(out), ty.output)
    ground = _ground_derivation(st, deriv)
    validate_derivation(ground, ctx, sig)
    return ground


def infer_shape_derivation(t: Term, sig: Signature = DEFAULT_SIGNATURE) -> Derivation:
    """A cheap derivation of a closed constant-free term that keeps only
    stack shapes.

    The root type is the minimal ground instance.  Every inner judgment
    type is the placeholder `(>)`, and every variable type keeps just its
    ground stack widths, with `(>)` items.  Nothing is validated: every
    choice inference makes is a binding in its store, so these are the
    shapes of the derivation `infer_with_derivation` grounds and validates.
    """
    st, inp, out, deriv = _infer({}, t, sig)
    placeholder = Arrow(EMPTY_MEM, EMPTY_MEM)

    def shape(ty) -> Arrow:
        ty = st.resolve_type(ty)
        if isinstance(ty, TVar):
            return placeholder
        if not isinstance(ty, Arrow):
            raise TypeCheckError("constant-free terms only")
        return Arrow(*(mem({loc: Vector((placeholder,) * len(st.resolve_vector(vec).items))
                            for loc, vec in m.entries})
                       for m in (ty.input, ty.output)))

    def node(d: Derivation, children: tuple[Derivation, ...]) -> Derivation:
        if d.rule == "arg-var":
            return Derivation("seq-var", d.term, placeholder,
                              (Derivation("nil", d.term, placeholder),), var_type=shape(d.ty))
        return Derivation(d.rule, d.term, placeholder, children,
                          var_type=None if d.var_type is None else shape(d.var_type))

    d = _map_derivation(deriv, node)
    return Derivation(d.rule, d.term, _ground_ty(st, Arrow(inp, out), {}, {}), d.children,
                      var_type=d.var_type)


def _infer(ctx: Context, t: Term, sig: Signature):
    st = InferState()
    universe = sorted(locations_of(t) | {MAIN} | _ctx_locations(ctx), key=lambda l: l.name)
    inp = _fresh_open_mem(st, universe)
    st.anchors.append(inp)
    out, deriv = _infer_spine(st, dict(ctx), t, inp, universe, sig, ())
    return st, inp, out, deriv


def _ctx_locations(ctx: Context) -> set[Location]:
    locs: set[Location] = set()
    todo: list = list(ctx.values())
    while todo:
        match todo.pop():
            case Arrow(i, o):
                todo += (i, o)
            case Mem(entries):
                for loc, v in entries:
                    locs.add(loc)
                    todo += v.items
    return locs


def _fresh_open_mem(st: InferState, universe) -> Mem:
    return Mem(tuple((loc, Vector((), st.fresh_row())) for loc in sorted(universe, key=lambda l: l.name)))


def _pop_symbolic(st: InferState, current: Mem, loc: Location) -> tuple[SimpleType, Mem]:
    vec = st.resolve_vector(current.get(loc))
    if vec.items:
        return vec.items[-1], current.set(loc, Vector(vec.items[:-1], vec.row))
    if vec.row is None:
        raise ArityMismatch(f"pop on {loc.name or 'the main stack'} from an empty stack type")
    tau = st.fresh_tvar()
    below = st.fresh_row()
    st.rv[vec.row] = Vector((tau,), below)
    return tau, current.set(loc, Vector((), below))


def _push_symbolic(st: InferState, current: Mem, loc: Location, ty: SimpleType) -> Mem:
    vec = st.resolve_vector(current.get(loc))
    return current.set(loc, Vector(vec.items + (ty,), vec.row))


def _infer_spine(st: InferState, ctx: Context, t: Term, current: Mem, universe, sig: Signature,
                 path: tuple[int, ...]) -> tuple[Mem, Derivation]:
    """Run t symbolically from the stack type `current`.

    Returns the final stack type and the derivation.  The spine is walked
    in a loop, and only push arguments nest; the pops extend `ctx` in place.
    """
    nodes: list = []
    try:
        while not isinstance(t, Nil):
            entry = current
            match t:
                case Pop(loc, x, cont, annot):
                    r, current = _pop_symbolic(st, current, loc)
                    if annot is not None:
                        st.unify_type(r, annot)
                    ctx[x] = r
                    nodes.append(("pop", t, entry, (), {"binder_type": r}))
                case Push(arg, loc, cont):
                    r, arg_deriv = _infer_argument(st, ctx, arg, universe, sig, (0,))
                    current = _push_symbolic(st, current, loc, r)
                    nodes.append(("push", t, entry, (arg_deriv,), {}))
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
                        raise UnboundVariable(sym.name)
                    current = _frame_symbolic(st, current, MAIN, ins, outs)
                    nodes.append(("const", t, entry, (),
                                  {"var_type": arrow({MAIN: Vector(ins)}, {MAIN: Vector(outs)})}))
                case SeqVar(x, cont):
                    ty = ctx.get(x)
                    if ty is None:
                        raise UnboundVariable(x)
                    ty = st.resolve_type(ty)
                    if isinstance(ty, Base):
                        raise TypeMismatch("an arrow type", ty)
                    if isinstance(ty, TVar):
                        if st._occurs("t", ty.id, current):
                            # consuming a stack that holds the variable itself
                            # would be cyclic: it is used as the identity
                            st.tv[ty.id] = Arrow(EMPTY_MEM, EMPTY_MEM)
                        else:
                            # first use fixes the variable to consume the whole current stack
                            fresh_out = _fresh_open_mem(st, universe)
                            st.tv[ty.id] = Arrow(current, fresh_out)
                            current = fresh_out
                        ty = st.tv[ty.id]
                    else:
                        current = _apply_arrow(st, ctx, x, current, ty)
                    nodes.append(("seq-var", t, entry, (), {"var_type": ty}))
                case _:
                    raise TypeError(t)
            t = cont
    except TypeCheckError as exc:  # a node's spine child follows its extra children
        exc.path = path + tuple(len(extra) for _, _, _, extra, _ in nodes) + exc.path
        raise
    return current, _build_spine(nodes, Derivation("nil", t, Arrow(current, current)))


def _apply_arrow(st: InferState, ctx: Context, x: str, current: Mem, ty: Arrow) -> Mem:
    """Thread the current stack type through a sequential use of the
    variable x, of arrow type ty.

    Per location, a tail row that ty's input and output share is a
    pass-through region.  It is bound to the empty vector when it is
    private to ty, or when unifying it with the current stack would be
    cyclic because it occurs in the stack's items.  A location without
    rows then takes the closed frame rule: pop the inputs, push the
    outputs.  Any other location is unified with the current stack as a
    whole.  Every choice is a binding in the store, so the grounded
    derivation is valid.  Unifying one location can bind rows mentioned by
    the next, so everything re-resolves per step.
    """
    locs = {loc for loc, _ in ty.input.entries} | {loc for loc, _ in ty.output.entries}
    for loc in sorted(locs, key=lambda l: l.name):
        ix, ox = st.resolve_mem(ty.input), st.resolve_mem(ty.output)
        vi, vo = ix.get(loc), ox.get(loc)
        row = vi.row
        if row is not None and row == vo.row:
            # private: the tail of this location only, and reachable from no
            # other item, judgment input, stack or variable
            vecs = [vec for m in (ix, ox) for _, vec in m.entries]
            others = [*(item for vec in vecs for item in vec.items), *st.anchors, current,
                      *(other for name, other in ctx.items() if name != x)]
            seen: set = set()
            if ([vec.row for vec in vecs].count(row) == 2
                    and not any(st._occurs("r", row, obj, seen) for obj in others)
                    or any(st._occurs("r", row, item) for _, vec in current.entries
                           for item in st.resolve_vector(vec).items)):
                st.rv[row] = EMPTY_VEC
                vi, vo = Vector(vi.items), Vector(vo.items)
        if vi.row is None and vo.row is None:
            current = _frame_symbolic(st, current, loc, vi.items, vo.items)
        else:
            st.unify_vector(st.resolve_vector(current.get(loc)), vi)
            current = current.set(loc, st.resolve_vector(vo))
    return current


def _frame_symbolic(st: InferState, current: Mem, loc: Location, ins, outs) -> Mem:
    """The closed frame rule on one location: pop ins, then push outs."""
    for expected in reversed(ins):
        r, current = _pop_symbolic(st, current, loc)
        st.unify_type(r, expected)
    for produced in outs:
        current = _push_symbolic(st, current, loc, produced)
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
                out, deriv = _infer_spine(st, dict(ctx), arg, arg_inp, universe, sig, path)
            finally:
                st.anchors.pop()
            return Arrow(arg_inp, out), deriv


# -- grounding and validating inferred derivations ----------------------------------

def _ground_ty(st: InferState, obj, zcache: dict, fcache: dict):
    """Zonk, then instantiate leftover metavariables minimally."""
    return _fill(st.zonk(obj, zcache), fcache)


def _fill(x, fcache: dict):
    """Instantiate the metavariables of a zonked type minimally: a type
    variable becomes `(>)` and a row the empty vector."""
    match x:
        case Base(_):
            return x
        case TVar(_):
            return Arrow(EMPTY_MEM, EMPTY_MEM)
    hit = fcache.get(id(x))
    if hit is not None:
        return hit[1]
    match x:
        case Arrow(i, o):
            out = Arrow(_fill(i, fcache), _fill(o, fcache))
        case Vector(items, _):
            out = Vector(tuple(_fill(t, fcache) for t in items))
        case Mem(entries):
            out = Mem(tuple((loc, fv) for loc, v in entries
                            for fv in (_fill(v, fcache),) if fv.items))
        case _:
            raise TypeError(x)
    fcache[id(x)] = (x, out)  # holding x keeps its id from being reused
    return out


def _map_derivation(d: Derivation, node) -> Derivation:
    """Rebuild d bottom-up: node(old, rebuilt children) makes each new node.

    The spine is walked in a loop; only push arguments nest.
    """
    spine = []
    while d.children:
        spine.append(d)
        d = d.children[-1]
    out = node(d, ())
    for d in reversed(spine):
        out = node(d, tuple(_map_derivation(c, node) for c in d.children[:-1]) + (out,))
    return out


def _ground_derivation(st: InferState, d: Derivation, zcache: Optional[dict] = None) -> Derivation:
    zcache = zcache if zcache is not None else {}
    fcache: dict = {}

    def ground(x):
        return None if x is None else _ground_ty(st, x, zcache, fcache)

    def node(d: Derivation, children: tuple[Derivation, ...]) -> Derivation:
        ty = ground(d.ty)
        if d.rule == "arg-var":
            if isinstance(ty, Base):
                return Derivation("base-var", d.term, ty)
            nil_d = Derivation("nil", NIL, Arrow(ty.output, ty.output))
            return Derivation("seq-var", d.term, ty, (nil_d,), var_type=ty)
        return Derivation(d.rule, d.term, ty, children,
                          binder_type=ground(d.binder_type), var_type=ground(d.var_type))

    return _map_derivation(d, node)


def validate_derivation(d: Derivation, ctx: Context, sig: Signature = DEFAULT_SIGNATURE,
                        path: tuple[int, ...] = ()) -> None:
    """Confirm each node is a genuine rule instance; raises on failure.

    The spine is walked in a loop; only push arguments nest.
    """
    ctx = dict(ctx)
    steps: list[int] = []
    try:
        while d.children:
            inp, out = d.ty.input, d.ty.output
            match d.rule:
                case "pop":
                    vec = inp.get(d.term.loc)
                    if not vec.items or vec.items[-1] != d.binder_type:
                        raise TypeMismatch(d.binder_type, vec)
                    inp = inp.set(d.term.loc, Vector(vec.items[:-1]))
                    ctx[d.term.var] = d.binder_type
                case "push":
                    arg_d = d.children[0]
                    validate_derivation(arg_d, ctx, sig, (0,))
                    inp = inp.set(d.term.loc, Vector(inp.get(d.term.loc).items + (arg_d.ty,)))
                case "seq-var":
                    found = ctx.get(d.term.var)
                    if found != d.var_type or not isinstance(found, Arrow):
                        raise TypeMismatch(d.var_type, found)
                    inp = _frame(inp, found)
                case "const":
                    sym = d.term.sym
                    ins, outs = d.var_type.input.get(MAIN).items, d.var_type.output.get(MAIN).items
                    lit = sig.literal_base(sym.name)
                    if lit is not None:
                        if ins or outs != (Base(lit),):
                            raise TypeMismatch(Base(lit), d.var_type)
                    elif sym.name in sig.poly_ops:
                        if len(ins) != 3 or ins[0] != ins[1] or ins[2] != Base("B") or outs != (ins[0],):
                            raise TypeMismatch("a conditional instance", d.var_type)
                    elif sig.ops.get(sym.name) != (ins, outs):
                        raise TypeMismatch(sig.ops.get(sym.name), (ins, outs))
                    inp = _frame(inp, d.var_type)
                case other:
                    raise TypeCheckError(f"unknown rule {other}")
            child = d.children[-1]
            if child.ty != Arrow(inp, out):
                raise TypeMismatch(Arrow(inp, out), child.ty)
            steps.append(len(d.children) - 1)
            d = child
        match d.rule:
            case "base-var":
                if ctx.get(d.term.var) != d.ty:
                    raise TypeMismatch(d.ty, ctx.get(d.term.var))
            case "base-lit":
                lit = sig.literal_base(d.term.sym.name)
                if lit is None or Base(lit) != d.ty:
                    raise TypeMismatch(d.ty, d.term.sym.name)
            case "nil":
                if not isinstance(d.ty, Arrow) or d.ty.input != d.ty.output:
                    raise TypeMismatch("an identity arrow", d.ty)
            case other:
                raise TypeCheckError(f"unknown rule {other}")
    except TypeCheckError as exc:
        exc.path = path + tuple(steps) + exc.path  # the position of the failing node
        raise
