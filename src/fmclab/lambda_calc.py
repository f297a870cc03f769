"""Simply-typed lambda-calculus with n-ary tuples and patterns.

Target and source of the stack-calculus translations.  Equality of typed
terms is decided by comparing eta-long beta-normal forms; binder shapes in
eta-long forms follow the type, so tupled and curried presentations meet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


# -- syntax -------------------------------------------------------------------

@dataclass(frozen=True)
class LVar:
    name: str


@dataclass(frozen=True)
class LApp:
    fn: "LambdaTerm"
    arg: "LambdaTerm"


@dataclass(frozen=True)
class LLam:
    pattern: "Pattern"
    body: "LambdaTerm"


@dataclass(frozen=True)
class LTuple:
    items: tuple["LambdaTerm", ...]


LambdaTerm = LVar | LApp | LLam | LTuple


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PTuple:
    items: tuple["Pattern", ...]


Pattern = PVar | PTuple


@dataclass(frozen=True)
class LBase:
    name: str


@dataclass(frozen=True)
class LArrow:
    dom: "LambdaType"
    cod: "LambdaType"


@dataclass(frozen=True)
class LProd:
    items: tuple["LambdaType", ...]


LambdaType = LBase | LArrow | LProd

LUNIT = LProd(())


def pattern_vars(p: Pattern) -> list[str]:
    match p:
        case PVar(x):
            return [x]
        case PTuple(items):
            out = []
            for q in items:
                out.extend(pattern_vars(q))
            return out
    raise TypeError(p)


def lfree_vars(t: LambdaTerm) -> frozenset[str]:
    match t:
        case LVar(x):
            return frozenset({x})
        case LApp(f, a):
            return lfree_vars(f) | lfree_vars(a)
        case LLam(p, b):
            return lfree_vars(b) - frozenset(pattern_vars(p))
        case LTuple(items):
            return frozenset().union(*(lfree_vars(i) for i in items)) if items else frozenset()
    raise TypeError(t)


def lsize(t: LambdaTerm) -> int:
    match t:
        case LVar(_):
            return 1
        case LApp(f, a):
            return 1 + lsize(f) + lsize(a)
        case LLam(_, b):
            return 1 + lsize(b)
        case LTuple(items):
            return 1 + sum(lsize(i) for i in items)
    raise TypeError(t)


_counter = 0


def lfresh(base: str = "u") -> str:
    global _counter
    _counter += 1
    return f"{base}%{_counter}"


def lsubstitute(t: LambdaTerm, subs: dict[str, LambdaTerm]) -> LambdaTerm:
    if not subs:
        return t
    match t:
        case LVar(x):
            return subs.get(x, t)
        case LApp(f, a):
            return LApp(lsubstitute(f, subs), lsubstitute(a, subs))
        case LTuple(items):
            return LTuple(tuple(lsubstitute(i, subs) for i in items))
        case LLam(p, b):
            bound = set(pattern_vars(p))
            live = {x: n for x, n in subs.items() if x not in bound}
            if not live:
                return t
            clash = set().union(*(lfree_vars(n) for n in live.values())) & bound
            if clash:
                renames = {x: lfresh(x.split("%")[0]) for x in pattern_vars(p)}
                p = _rename_pattern(p, renames)
                b = lsubstitute(b, {x: LVar(y) for x, y in renames.items()})
            return LLam(p, lsubstitute(b, live))
    raise TypeError(t)


def _rename_pattern(p: Pattern, renames: dict[str, str]) -> Pattern:
    match p:
        case PVar(x):
            return PVar(renames.get(x, x))
        case PTuple(items):
            return PTuple(tuple(_rename_pattern(q, renames) for q in items))
    raise TypeError(p)


def lalpha_eq(a: LambdaTerm, b: LambdaTerm) -> bool:
    def go(a, b, ea, eb, depth):
        match a, b:
            case LVar(x), LVar(y):
                return ea.get(x, x) == eb.get(y, y)
            case LApp(f1, a1), LApp(f2, a2):
                return go(f1, f2, ea, eb, depth) and go(a1, a2, ea, eb, depth)
            case LTuple(i1), LTuple(i2):
                return len(i1) == len(i2) and all(go(x, y, ea, eb, depth) for x, y in zip(i1, i2))
            case LLam(p1, b1), LLam(p2, b2):
                v1, v2 = pattern_vars(p1), pattern_vars(p2)
                if len(v1) != len(v2) or _pattern_shape(p1) != _pattern_shape(p2):
                    return False
                ea2 = {**ea, **{x: depth + i for i, x in enumerate(v1)}}
                eb2 = {**eb, **{y: depth + i for i, y in enumerate(v2)}}
                return go(b1, b2, ea2, eb2, depth + len(v1))
            case _:
                return False

    return go(a, b, {}, {}, 0)


def _pattern_shape(p: Pattern):
    match p:
        case PVar(_):
            return "*"
        case PTuple(items):
            return tuple(_pattern_shape(q) for q in items)


# -- reduction ----------------------------------------------------------------

class LFuelExhausted(Exception):
    pass


def _match_pattern(p: Pattern, n: LambdaTerm) -> Optional[dict[str, LambdaTerm]]:
    """Bindings for a pattern against a term; tuples must be literal."""
    match p:
        case PVar(x):
            return {x: n}
        case PTuple(items):
            if isinstance(n, LTuple) and len(n.items) == len(items):
                out: dict[str, LambdaTerm] = {}
                for q, m in zip(items, n.items):
                    sub = _match_pattern(q, m)
                    if sub is None:
                        return None
                    out.update(sub)
                return out
            return None
    raise TypeError(p)


def _step(t: LambdaTerm) -> Optional[LambdaTerm]:
    """One leftmost-outermost pattern-beta step."""
    match t:
        case LApp(LLam(p, b), n):
            sub = _match_pattern(p, n)
            if sub is not None:
                return lsubstitute(b, sub)
        case _:
            pass
    match t:
        case LApp(f, a):
            f2 = _step(f)
            if f2 is not None:
                return LApp(f2, a)
            a2 = _step(a)
            if a2 is not None:
                return LApp(f, a2)
        case LLam(p, b):
            b2 = _step(b)
            if b2 is not None:
                return LLam(p, b2)
        case LTuple(items):
            for i, m in enumerate(items):
                m2 = _step(m)
                if m2 is not None:
                    return LTuple(items[:i] + (m2,) + items[i + 1:])
        case _:
            pass
    return None


def lambda_normalize(t: LambdaTerm, fuel: int = 10**5) -> LambdaTerm:
    for _ in range(fuel):
        nxt = _step(t)
        if nxt is None:
            return t
        t = nxt
    raise LFuelExhausted(f"no normal form within {fuel} steps")


def proj(i: int, n: int) -> LambdaTerm:
    """The i-th (1-based) projection out of an n-tuple, as sugar."""
    names = [f"pr{k}" for k in range(1, n + 1)]
    return LLam(PTuple(tuple(PVar(x) for x in names)), LVar(names[i - 1]))


def _is_proj(t: LambdaTerm) -> Optional[tuple[int, int]]:
    match t:
        case LLam(PTuple(items), LVar(x)) if all(isinstance(q, PVar) for q in items):
            names = [q.name for q in items]
            if x in names and len(set(names)) == len(names):
                return names.index(x) + 1, len(names)
    return None


# -- eta-long forms -----------------------------------------------------------

def _fresh_pattern(ty: LambdaType) -> tuple[Pattern, LambdaTerm, dict[str, LambdaType]]:
    """A type-shaped pattern of fresh variables, with its term image."""
    match ty:
        case LProd(items):
            ps, ts, ctx = [], [], {}
            for a in items:
                p, t, c = _fresh_pattern(a)
                ps.append(p)
                ts.append(t)
                ctx.update(c)
            return PTuple(tuple(ps)), LTuple(tuple(ts)), ctx
        case _:
            x = lfresh("e")
            return PVar(x), LVar(x), {x: ty}


def eta_long(t: LambdaTerm, ty: LambdaType, ctx: dict[str, LambdaType],
             fuel: int = 10**5) -> LambdaTerm:
    """Eta-long beta-normal form; canonical for typed terms."""
    t = lambda_normalize(t, fuel)
    match ty:
        case LArrow(dom, cod):
            p, image, bound = _fresh_pattern(dom)
            body = eta_long(LApp(t, image), cod, {**ctx, **bound}, fuel)
            return LLam(p, body)
        case LProd(items):
            n = len(items)
            if isinstance(t, LTuple) and len(t.items) == n:
                return LTuple(tuple(eta_long(m, a, ctx, fuel) for m, a in zip(t.items, items)))
            return LTuple(tuple(eta_long(LApp(proj(i + 1, n), t), a, ctx, fuel)
                                for i, a in enumerate(items)))
        case LBase(_):
            term, _ = _eta_long_neutral(t, ctx, fuel)
            return term
    raise TypeError(ty)


def _eta_long_neutral(t: LambdaTerm, ctx: dict[str, LambdaType], fuel: int):
    match t:
        case LVar(x):
            if x not in ctx:
                raise KeyError(f"untyped free variable {x}")
            return t, ctx[x]
        case LApp(f, a):
            hit = _is_proj(f)
            if hit is not None:
                i, n = hit
                inner, ity = _eta_long_neutral(a, ctx, fuel)
                if not isinstance(ity, LProd) or len(ity.items) != n:
                    raise TypeError(f"projection from non-product {ity}")
                return LApp(proj(i, n), inner), ity.items[i - 1]
            fn, fty = _eta_long_neutral(f, ctx, fuel)
            if not isinstance(fty, LArrow):
                raise TypeError(f"application of non-arrow {fty}")
            return LApp(fn, eta_long(a, fty.dom, ctx, fuel)), fty.cod
    raise TypeError(f"not a neutral term: {t}")


def lambda_beta_eta_eq(a: LambdaTerm, b: LambdaTerm, ty: LambdaType,
                       ctx: Optional[dict[str, LambdaType]] = None) -> bool:
    ctx = ctx or {}
    return lalpha_eq(eta_long(a, ty, ctx), eta_long(b, ty, ctx))


# -- type inference -----------------------------------------------------------

@dataclass(frozen=True)
class LMeta:
    id: int


class LTypeError(Exception):
    pass


class _LState:
    def __init__(self):
        self.next = 0
        self.subst: dict[int, LambdaType] = {}

    def fresh(self) -> LMeta:
        self.next += 1
        return LMeta(self.next)

    def resolve(self, ty):
        while isinstance(ty, LMeta) and ty.id in self.subst:
            ty = self.subst[ty.id]
        return ty

    def zonk(self, ty):
        ty = self.resolve(ty)
        match ty:
            case LArrow(a, b):
                return LArrow(self.zonk(a), self.zonk(b))
            case LProd(items):
                return LProd(tuple(self.zonk(a) for a in items))
            case _:
                return ty

    def occurs(self, i, ty) -> bool:
        ty = self.resolve(ty)
        match ty:
            case LMeta(j):
                return i == j
            case LArrow(a, b):
                return self.occurs(i, a) or self.occurs(i, b)
            case LProd(items):
                return any(self.occurs(i, a) for a in items)
            case _:
                return False

    def unify(self, a, b):
        a, b = self.resolve(a), self.resolve(b)
        match a, b:
            case LMeta(i), LMeta(j) if i == j:
                return
            case LMeta(i), _:
                if self.occurs(i, b):
                    raise LTypeError(f"occurs check {a} in {b}")
                self.subst[i] = b
            case _, LMeta(_):
                self.unify(b, a)
            case LBase(x), LBase(y):
                if x != y:
                    raise LTypeError(f"{x} /= {y}")
            case LArrow(a1, b1), LArrow(a2, b2):
                self.unify(a1, a2)
                self.unify(b1, b2)
            case LProd(i1), LProd(i2):
                if len(i1) != len(i2):
                    raise LTypeError("product arity mismatch")
                for x, y in zip(i1, i2):
                    self.unify(x, y)
            case _:
                raise LTypeError(f"cannot unify {a} with {b}")


def infer_lambda(t: LambdaTerm, ctx: Optional[dict[str, LambdaType]] = None,
                 default: LambdaType = LBase("o")) -> LambdaType:
    """Monomorphic inference; unconstrained metas default to a base type."""
    st = _LState()

    def pattern_type(p) -> tuple[LambdaType, dict]:
        match p:
            case PVar(x):
                m = st.fresh()
                return m, {x: m}
            case PTuple(items):
                tys, env = [], {}
                for q in items:
                    ty, e = pattern_type(q)
                    tys.append(ty)
                    env.update(e)
                return LProd(tuple(tys)), env

    def go(t, env):
        match t:
            case LVar(x):
                if x not in env:
                    raise LTypeError(f"unbound {x}")
                return env[x]
            case LApp(f, a):
                fty = go(f, env)
                aty = go(a, env)
                res = st.fresh()
                st.unify(fty, LArrow(aty, res))
                return res
            case LLam(p, b):
                pty, bound = pattern_type(p)
                return LArrow(pty, go(b, {**env, **bound}))
            case LTuple(items):
                return LProd(tuple(go(i, env) for i in items))
        raise TypeError(t)

    ty = go(t, dict(ctx or {}))

    def fill(ty):
        ty = st.resolve(ty)
        match ty:
            case LMeta(_):
                return default
            case LArrow(a, b):
                return LArrow(fill(a), fill(b))
            case LProd(items):
                return LProd(tuple(fill(a) for a in items))
            case _:
                return ty

    return fill(ty)


# -- concrete syntax ------------------------------------------------------------

_LTOKEN = re.compile(r"\s*(\\|\.|\(|\)|,|[A-Za-z_][A-Za-z0-9_'%]*|-?[0-9]+)")


def _ltokens(src: str) -> list[str]:
    toks, pos = [], 0
    while pos < len(src):
        m = _LTOKEN.match(src, pos)
        if not m:
            if src[pos:].strip():
                raise LTypeError(f"bad lambda syntax at {src[pos:pos+10]!r}")
            break
        toks.append(m.group(1))
        pos = m.end()
    toks.append("<eof>")
    return toks


def parse_lambda(src: str) -> LambdaTerm:
    toks = _ltokens(src)
    pos = 0

    def peek():
        return toks[pos]

    def advance():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def parse_pattern() -> Pattern:
        tok = advance()
        if tok == "(":
            items = []
            if peek() != ")":
                items.append(parse_pattern())
                while peek() == ",":
                    advance()
                    items.append(parse_pattern())
            if advance() != ")":
                raise LTypeError("expected ) in pattern")
            return PTuple(tuple(items))
        if tok.isidentifier():
            return PVar(tok)
        raise LTypeError(f"bad pattern token {tok!r}")

    def parse_term() -> LambdaTerm:
        if peek() == "\\":
            advance()
            p = parse_pattern()
            if advance() != ".":
                raise LTypeError("expected . after pattern")
            return LLam(p, parse_term())
        return parse_app()

    def parse_app() -> LambdaTerm:
        t = parse_atom()
        while peek() not in (")", ",", "<eof>"):
            t = LApp(t, parse_atom())
        return t

    def parse_atom() -> LambdaTerm:
        tok = advance()
        if tok == "(":
            if peek() == ")":
                advance()
                return LTuple(())
            first = parse_term()
            if peek() == ",":
                items = [first]
                while peek() == ",":
                    advance()
                    items.append(parse_term())
                if advance() != ")":
                    raise LTypeError("expected )")
                return LTuple(tuple(items))
            if advance() != ")":
                raise LTypeError("expected )")
            return first
        if tok == "\\":
            pos_back = pos  # a lambda can appear as an argument unparenthesized tail
            raise LTypeError("lambda must be parenthesized in application position")
        if tok and (tok.isidentifier() or tok.lstrip("-").isdigit()):
            return LVar(tok)
        raise LTypeError(f"unexpected token {tok!r}")

    t = parse_term()
    if peek() != "<eof>":
        raise LTypeError(f"trailing input {peek()!r}")
    return t


def print_lambda(t: LambdaTerm) -> str:
    match t:
        case LVar(x):
            return x
        case LLam(p, b):
            return f"\\{_print_pattern(p)}.{print_lambda(b)}"
        case LTuple(items):
            return "(" + ", ".join(print_lambda(i) for i in items) + ")"
        case LApp(f, a):
            fs = print_lambda(f)
            if isinstance(f, LLam):
                fs = f"({fs})"
            as_ = print_lambda(a)
            if isinstance(a, (LApp, LLam)):
                as_ = f"({as_})"
            return f"{fs} {as_}"
    raise TypeError(t)


def _print_pattern(p: Pattern) -> str:
    match p:
        case PVar(x):
            return x
        case PTuple(items):
            return "(" + ", ".join(_print_pattern(q) for q in items) + ")"
