"""Simply-typed lambda-calculus with n-ary tuples and patterns.

Target and source of the stack-calculus translations.  Equality of typed
terms is decided by normalization by evaluation: a term evaluates to a
semantic value (a closure, a tuple, or a neutral variable under
applications and projections), and a type-directed read-back returns its
eta-long beta-normal form.  Binder shapes in that form follow the type, so
tupled and curried presentations meet, and binders are named by de Bruijn
level, so beta-eta-equal terms have `==` normal forms.
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


class LTypeError(Exception):
    pass


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


def proj(i: int, n: int) -> LambdaTerm:
    """The i-th (1-based) projection out of an n-tuple, as sugar."""
    names = [f"pr{k}" for k in range(1, n + 1)]
    return LLam(PTuple(tuple(PVar(x) for x in names)), LVar(names[i - 1]))


# -- normalization by evaluation ------------------------------------------------

class _Closure:
    __slots__ = ("pattern", "body", "env")

    def __init__(self, pattern: Pattern, body: LambdaTerm, env: dict):
        self.pattern, self.body, self.env = pattern, body, env


class _Neutral:
    """A variable of type `ty` under a spine of eliminations: an int i in
    the spine projects component i, any other entry is an argument value."""

    __slots__ = ("head", "ty", "spine")

    def __init__(self, head: LVar, ty: LambdaType, spine: tuple = ()):
        self.head, self.ty, self.spine = head, ty, spine


def _eval(t: LambdaTerm, env: dict):
    match t:
        case LVar(x):
            if x not in env:
                raise LTypeError(f"untyped free variable {x}")
            return env[x]
        case LApp(f, a):
            return _apply(_eval(f, env), _eval(a, env))
        case LLam(p, b):
            return _Closure(p, b, env)
        case LTuple(items):
            return tuple(_eval(i, env) for i in items)
    raise TypeError(t)


def _apply(fn, arg):
    if type(fn) is _Neutral:
        return _Neutral(fn.head, fn.ty, fn.spine + (arg,))
    if type(fn) is not _Closure:
        raise LTypeError("application of a tuple")
    env = dict(fn.env)
    _bind(fn.pattern, arg, env)
    return _eval(fn.body, env)


def _components(v, n: int):
    """The n components of a tuple value; a neutral is projected."""
    if type(v) is _Neutral:
        return tuple(_Neutral(v.head, v.ty, v.spine + (i,)) for i in range(n))
    if type(v) is not tuple or len(v) != n:
        raise LTypeError(f"expected a {n}-tuple")
    return v


def _bind(p: Pattern, v, env: dict):
    if type(p) is PVar:
        env[p.name] = v
        return
    for q, w in zip(p.items, _components(v, len(p.items))):
        _bind(q, w, env)


def _reflect(ty: LambdaType, base: str, level: int):
    """A type-shaped pattern of variables named from `level` on, its value,
    and the next free level."""
    if type(ty) is LProd:
        pats, vals = [], []
        for a in ty.items:
            p, v, level = _reflect(a, base, level)
            pats.append(p)
            vals.append(v)
        return PTuple(tuple(pats)), tuple(vals), level
    name = f"{base}{level}"
    return PVar(name), _Neutral(LVar(name), ty), level + 1


def _reify(v, ty: LambdaType, base: str, level: int) -> LambdaTerm:
    """The eta-long beta-normal form of value v at type ty."""
    if type(ty) is LArrow:
        p, arg, inner = _reflect(ty.dom, base, level)
        return LLam(p, _reify(_apply(v, arg), ty.cod, base, inner))
    if type(ty) is LProd:
        parts = _components(v, len(ty.items))
        return LTuple(tuple(_reify(w, a, base, level) for w, a in zip(parts, ty.items)))
    if type(v) is not _Neutral:
        raise LTypeError(f"a function or tuple at base type {ty}")
    term, vty = v.head, v.ty
    for e in v.spine:
        if type(e) is int:
            if type(vty) is not LProd:
                raise LTypeError(f"projection from non-product {vty}")
            term, vty = LApp(proj(e + 1, len(vty.items)), term), vty.items[e]
        else:
            if type(vty) is not LArrow:
                raise LTypeError(f"application of non-arrow {vty}")
            term, vty = LApp(term, _reify(e, vty.dom, base, level)), vty.cod
    return term


def normal_form(t: LambdaTerm, ty: LambdaType,
                ctx: Optional[dict[str, LambdaType]] = None) -> LambdaTerm:
    """The eta-long beta-normal form of t at type ty, its free variables
    typed by ctx.  The k-th binder from the root is named base + k, the
    base chosen so that no name of ctx has that form."""
    ctx = ctx or {}
    base = "x"
    while any(re.fullmatch(re.escape(base) + "[0-9]+", x) for x in ctx):
        base += "'"
    env = {x: _Neutral(LVar(x), a) for x, a in ctx.items()}
    return _reify(_eval(t, env), ty, base, 0)


def lambda_beta_eta_eq(a: LambdaTerm, b: LambdaTerm, ty: LambdaType,
                       ctx: Optional[dict[str, LambdaType]] = None) -> bool:
    return normal_form(a, ty, ctx) == normal_form(b, ty, ctx)


# -- type inference -----------------------------------------------------------

@dataclass(frozen=True)
class LMeta:
    id: int


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

    def pattern_type(self, p: Pattern, env: dict) -> LambdaType:
        """The type of a pattern; its variables are bound in env."""
        match p:
            case PVar(x):
                env[x] = self.fresh()
                return env[x]
            case PTuple(items):
                return LProd(tuple(self.pattern_type(q, env) for q in items))
        raise TypeError(p)

    def infer(self, t: LambdaTerm, env: dict) -> LambdaType:
        match t:
            case LVar(x):
                if x not in env:
                    raise LTypeError(f"unbound {x}")
                return env[x]
            case LApp(f, a):
                fty = self.infer(f, env)
                aty = self.infer(a, env)
                res = self.fresh()
                self.unify(fty, LArrow(aty, res))
                return res
            case LLam(p, b):
                inner = dict(env)
                pty = self.pattern_type(p, inner)
                return LArrow(pty, self.infer(b, inner))
            case LTuple(items):
                return LProd(tuple(self.infer(i, env) for i in items))
        raise TypeError(t)

    def fill(self, ty, default: LambdaType) -> LambdaType:
        ty = self.resolve(ty)
        match ty:
            case LMeta(_):
                return default
            case LArrow(a, b):
                return LArrow(self.fill(a, default), self.fill(b, default))
            case LProd(items):
                return LProd(tuple(self.fill(a, default) for a in items))
            case _:
                return ty


def infer_lambda(t: LambdaTerm, ctx: Optional[dict[str, LambdaType]] = None,
                 default: LambdaType = LBase("o")) -> LambdaType:
    """Monomorphic inference; unconstrained metas default to a base type."""
    st = _LState()
    return st.fill(st.infer(t, dict(ctx or {})), default)


# -- concrete syntax ------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_LTOKEN = re.compile(r"\s*(\\|\.|\(|\)|,|" + _IDENT.pattern + r"|-?[0-9]+)")


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


class _LParser:
    def __init__(self, src: str):
        self.toks = _ltokens(src)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def advance(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def pattern(self) -> Pattern:
        tok = self.advance()
        if tok == "(":
            items = []
            if self.peek() != ")":
                items.append(self.pattern())
                while self.peek() == ",":
                    self.advance()
                    items.append(self.pattern())
            if self.advance() != ")":
                raise LTypeError("expected ) in pattern")
            return PTuple(tuple(items))
        if _IDENT.fullmatch(tok):
            return PVar(tok)
        raise LTypeError(f"bad pattern token {tok!r}")

    def term(self) -> LambdaTerm:
        if self.peek() == "\\":
            self.advance()
            p = self.pattern()
            names = pattern_vars(p)
            if len(set(names)) != len(names):
                raise LTypeError(f"pattern binds a name twice: {_print_pattern(p)}")
            if self.advance() != ".":
                raise LTypeError("expected . after pattern")
            return LLam(p, self.term())
        return self.app()

    def app(self) -> LambdaTerm:
        t = self.atom()
        while self.peek() not in (")", ",", "<eof>"):
            t = LApp(t, self.atom())
        return t

    def atom(self) -> LambdaTerm:
        tok = self.advance()
        if tok == "(":
            if self.peek() == ")":
                self.advance()
                return LTuple(())
            first = self.term()
            if self.peek() == ",":
                items = [first]
                while self.peek() == ",":
                    self.advance()
                    items.append(self.term())
                if self.advance() != ")":
                    raise LTypeError("expected )")
                return LTuple(tuple(items))
            if self.advance() != ")":
                raise LTypeError("expected )")
            return first
        if tok == "\\":
            raise LTypeError("lambda must be parenthesized in application position")
        if _IDENT.fullmatch(tok) or tok.lstrip("-").isdigit():
            return LVar(tok)
        raise LTypeError(f"unexpected token {tok!r}")


def parse_lambda(src: str) -> LambdaTerm:
    parser = _LParser(src)
    t = parser.term()
    if parser.peek() != "<eof>":
        raise LTypeError(f"trailing input {parser.peek()!r}")
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
