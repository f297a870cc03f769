"""Translations in and out of the stack calculus.

Three bridges: a call-by-value language with reader/writer effects encodes
into the calculus; typed sequential terms translate to lambda-terms with
tuples and patterns; typed lambda-terms translate back.  The round trip
lambda -> stack -> lambda is beta-eta-identity.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

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
    Pattern,
    PTuple,
    PVar,
    infer_lambda,
    proj,
)
from .machine import bool_term, int_term
from .syntax import MAIN, NIL, Const, ConstSym, Location, Nil, Pop, Push, SeqVar, Term, compose, var
from .typesys import DEFAULT_SIGNATURE, Arrow, Base, Derivation, Mem, SimpleType, Vector, mem

IN, OUT, RND, ND = Location("in"), Location("out"), Location("rnd"), Location("nd")
RESERVED_CELLS = {IN.name, OUT.name, RND.name, ND.name, "lam"}


# -- call-by-value source language ----------------------------------------------

@dataclass(frozen=True)
class CVar:
    name: str


@dataclass(frozen=True)
class CLit:
    value: int


@dataclass(frozen=True)
class CApp:
    fn: "CbvTerm"
    arg: "CbvTerm"


@dataclass(frozen=True)
class CLam:
    param: str
    body: "CbvTerm"


@dataclass(frozen=True)
class CRead:
    pass


@dataclass(frozen=True)
class CWrite:
    value: "CbvTerm"
    cont: "CbvTerm"


@dataclass(frozen=True)
class CAssign:
    cell: str
    value: "CbvTerm"
    cont: "CbvTerm"


@dataclass(frozen=True)
class CDeref:
    cell: str


@dataclass(frozen=True)
class CProb:
    left: "CbvTerm"
    right: "CbvTerm"


@dataclass(frozen=True)
class CNondet:
    left: "CbvTerm"
    right: "CbvTerm"


CbvTerm = CVar | CLit | CApp | CLam | CRead | CWrite | CAssign | CDeref | CProb | CNondet


class UndeclaredCell(Exception):
    pass


def cells_of(t: CbvTerm) -> frozenset[str]:
    match t:
        case CVar(_) | CLit(_) | CRead():
            return frozenset()
        case CApp(f, a):
            return cells_of(f) | cells_of(a)
        case CLam(_, b):
            return cells_of(b)
        case CWrite(v, c):
            return cells_of(v) | cells_of(c)
        case CAssign(cell, v, c):
            return {cell} | cells_of(v) | cells_of(c)
        case CDeref(cell):
            return frozenset({cell})
        case CProb(l, r) | CNondet(l, r):
            return cells_of(l) | cells_of(r)
    raise TypeError(t)


def encode_cbv(t: CbvTerm, cells: Optional[frozenset[str]] = None) -> Term:
    """The value-passing encoding: every subterm leaves its value on the
    main stack.  Choice pushes both branch thunks and forces the selected
    one, reading a boolean off the corresponding stream."""
    used = cells_of(t)
    if cells is not None:
        extra = used - cells
        if extra:
            raise UndeclaredCell(f"undeclared cells: {sorted(extra)}")
    bad = used & RESERVED_CELLS
    if bad:
        raise UndeclaredCell(f"reserved location names used as cells: {sorted(bad)}")
    return _encode(t)


def _encode(t: CbvTerm) -> Term:
    match t:
        case CVar(x):
            return Push(var(x), MAIN, NIL)
        case CLit(n):
            return Push(int_term(n), MAIN, NIL)
        case CLam(x, b):
            return Push(Pop(MAIN, x, _encode(b)), MAIN, NIL)
        case CApp(f, a):
            return compose(_encode(a), compose(_encode(f), Pop(MAIN, "zap", var("zap"))))
        case CRead():
            return Pop(IN, "zin", Push(var("zin"), MAIN, NIL))
        case CDeref(cell):
            loc = Location(cell)
            return Pop(loc, "zc", Push(var("zc"), loc, Push(var("zc"), MAIN, NIL)))
        case CWrite(v, c):
            return compose(_encode(v), Pop(MAIN, "zw", Push(var("zw"), OUT, _encode(c))))
        case CAssign(cell, v, c):
            loc = Location(cell)
            return compose(_encode(v), Pop(MAIN, "znew", Pop(loc, "zold", Push(var("znew"), loc, _encode(c)))))
        case CProb(l, r):
            return _choice(RND, _encode(l), _encode(r))
        case CNondet(l, r):
            return _choice(ND, _encode(l), _encode(r))
    raise TypeError(t)


def _choice(stream: Location, left_enc: Term, right_enc: Term) -> Term:
    # pushes the branch thunks, selects with the conditional, then forces
    chosen = Const(ConstSym("if", 3, 1), Pop(MAIN, "zsel", var("zsel")))
    return Pop(stream, "zb", Push(left_enc, MAIN, Push(right_enc, MAIN, Push(var("zb"), MAIN, chosen))))


# -- reference big-step interpreter -----------------------------------------------

@dataclass(frozen=True)
class VInt:
    value: int


@dataclass
class VClos:
    param: str
    body: CbvTerm
    env: dict


CbvValue = VInt | VClos


class CbvStuck(Exception):
    pass


@dataclass
class CbvState:
    """Mutable run state: streams are consumed from the end (the top)."""

    store: dict[str, CbvValue]
    output: list[CbvValue]
    input: list[int]
    rnd: list[bool]
    nd: list[bool]


def cbv_eval(t: CbvTerm, env: dict, state: CbvState) -> CbvValue:
    match t:
        case CVar(x):
            if x not in env:
                raise CbvStuck(f"unbound variable {x}")
            return env[x]
        case CLit(n):
            return VInt(n)
        case CLam(x, b):
            return VClos(x, b, dict(env))
        case CApp(f, a):
            arg = cbv_eval(a, env, state)  # argument first, as in the encoding
            fn = cbv_eval(f, env, state)
            if not isinstance(fn, VClos):
                raise CbvStuck("application of a non-function")
            return cbv_eval(fn.body, {**fn.env, fn.param: arg}, state)
        case CRead():
            if not state.input:
                raise CbvStuck("read from exhausted input")
            return VInt(state.input.pop())
        case CDeref(cell):
            if cell not in state.store:
                raise CbvStuck(f"dereference of unset cell {cell}")
            return state.store[cell]
        case CWrite(v, c):
            state.output.append(cbv_eval(v, env, state))
            return cbv_eval(c, env, state)
        case CAssign(cell, v, c):
            val = cbv_eval(v, env, state)
            if cell not in state.store:
                raise CbvStuck(f"assignment to unset cell {cell}")
            state.store[cell] = val
            return cbv_eval(c, env, state)
        case CProb(l, r):
            if not state.rnd:
                raise CbvStuck("probabilistic choice with exhausted stream")
            return cbv_eval(l if state.rnd.pop() else r, env, state)
        case CNondet(l, r):
            if not state.nd:
                raise CbvStuck("nondeterministic choice with exhausted stream")
            return cbv_eval(l if state.nd.pop() else r, env, state)
    raise TypeError(t)


def cbv_initial_memory(state: CbvState) -> dict[Location, tuple[Term, ...]]:
    """Machine memory mirroring a reference-interpreter state."""
    memory: dict[Location, tuple[Term, ...]] = {
        IN: tuple(int_term(n) for n in state.input),
        RND: tuple(bool_term(b) for b in state.rnd),
        ND: tuple(bool_term(b) for b in state.nd),
    }
    for cell, val in state.store.items():
        if not isinstance(val, VInt):
            raise CbvStuck("only integer cells can seed the machine")
        memory[Location(cell)] = (int_term(val.value),)
    return {loc: stack for loc, stack in memory.items() if stack}


# -- concrete syntax for the source language ----------------------------------------

def parse_cbv(src: str) -> CbvTerm:
    import re

    toks = re.findall(r"\(\+\)|:=|!|[()\\;.+]|[A-Za-z_][A-Za-z0-9_']*|-?[0-9]+", src)
    toks.append("<eof>")
    pos = 0

    def peek():
        return toks[pos]

    def advance():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def parse_term():
        if peek() == "\\":
            advance()
            x = advance()
            if advance() != ".":
                raise CbvStuck("expected . after lambda parameter")
            return CLam(x, parse_term())
        if peek() == "write":
            advance()
            v = parse_sum()
            if advance() != ";":
                raise CbvStuck("expected ; after write")
            return CWrite(v, parse_term())
        if peek().isidentifier() and toks[pos + 1] == ":=":
            cell = advance()
            advance()
            v = parse_sum()
            if advance() != ";":
                raise CbvStuck("expected ; after assignment")
            return CAssign(cell, v, parse_term())
        return parse_sum()

    def parse_sum():
        t = parse_app()
        while peek() in ("(+)", "+"):
            op = advance()
            rhs = parse_app()
            t = CProb(t, rhs) if op == "(+)" else CNondet(t, rhs)
        return t

    def parse_app():
        t = parse_atom()
        while peek() not in (")", ";", "(+)", "+", "<eof>"):
            t = CApp(t, parse_atom())
        return t

    def parse_atom():
        tok = advance()
        if tok == "(":
            t = parse_term()
            if advance() != ")":
                raise CbvStuck("expected )")
            return t
        if tok == "\\":
            raise CbvStuck("parenthesize lambdas in application position")
        if tok == "!":
            return CDeref(advance())
        if tok == "read":
            return CRead()
        if tok.lstrip("-").isdigit():
            return CLit(int(tok))
        if tok.isidentifier():
            return CVar(tok)
        raise CbvStuck(f"unexpected token {tok!r}")

    t = parse_term()
    if peek() != "<eof>":
        raise CbvStuck(f"trailing input near {peek()!r}")
    return t


def print_cbv(t: CbvTerm) -> str:
    match t:
        case CVar(x):
            return x
        case CLit(n):
            return str(n)
        case CLam(x, b):
            return f"\\{x}.{print_cbv(b)}"
        case CApp(f, a):
            fs = print_cbv(f)
            if isinstance(f, (CLam, CProb, CNondet, CWrite, CAssign)):
                fs = f"({fs})"
            as_ = print_cbv(a)
            if not isinstance(a, (CVar, CLit, CDeref, CRead)):
                as_ = f"({as_})"
            return f"{fs} {as_}"
        case CRead():
            return "read"
        case CDeref(cell):
            return f"!{cell}"
        case CWrite(v, c):
            return f"write {print_cbv(v)}; {print_cbv(c)}"
        case CAssign(cell, v, c):
            return f"{cell} := {print_cbv(v)}; {print_cbv(c)}"
        case CProb(l, r):
            return f"({print_cbv(l)}) (+) ({print_cbv(r)})"
        case CNondet(l, r):
            return f"({print_cbv(l)}) + ({print_cbv(r)})"
    raise TypeError(t)


# -- sequential calculus to lambda-calculus -------------------------------------------

def fmc_type_to_lambda(ty: SimpleType) -> LambdaType:
    match ty:
        case Base(name):
            return LBase(name)
        case Arrow(inp, out):
            return LArrow(_vector_to_lambda(inp.get(MAIN)), _vector_to_lambda(out.get(MAIN)))
    raise TypeError(ty)


def _vector_to_lambda(vec: Vector) -> LambdaType:
    tys = tuple(fmc_type_to_lambda(t) for t in vec.items)
    if len(tys) == 1:
        return tys[0]
    return LProd(tys)


class LambdaTranslationError(Exception):
    pass


def _require_sequential(m: Mem):
    for loc, vec in m.entries:
        if not loc.is_main() and (vec.items or vec.row is not None):
            raise LambdaTranslationError("lambda translation needs a sequential-fragment type")


class _Names:
    """Fresh names base1, base2, ... for one translation, none of them taken."""

    def __init__(self, taken: Callable[[str], bool]):
        self.taken, self.count = taken, 0

    def fresh(self, base: str) -> str:
        while True:
            self.count += 1
            name = f"{base}{self.count}"
            if not self.taken(name):
                return name


def _term_names(t: Term) -> set[str]:
    """Every variable and constant name that occurs in t."""
    names, todo = set(), [t]
    while todo:
        t = todo.pop()
        while type(t) is not Nil:
            if type(t) is SeqVar:
                names.add(t.var)
            elif type(t) is Const:
                names.add(t.sym.name)
            elif type(t) is Push:
                todo.append(t.arg)
            t = t.cont
    return names


def fmc_to_lambda(deriv: Derivation) -> tuple[list[str], list[LambdaTerm]]:
    """Open lambda-term for a sequential judgment: one context variable per
    input slot (bottom to top), one output term per output slot."""
    assert isinstance(deriv.ty, Arrow)
    _require_sequential(deriv.ty.input)
    names = _Names(_term_names(deriv.term).__contains__)
    ctx_vars = [names.fresh("s") for _ in deriv.ty.input.get(MAIN).items]
    outputs = _translate_spine(deriv, {}, [LVar(x) for x in ctx_vars], names)
    return ctx_vars, outputs


def _value_of(deriv: Derivation, valuation: dict[str, LambdaTerm], names: _Names) -> LambdaTerm:
    """The lambda-value of a push argument."""
    if isinstance(deriv.ty, Base):
        if deriv.rule == "base-var":
            return valuation.get(deriv.term.var, LVar(deriv.term.var))
        return LVar(deriv.term.sym.name)  # literal constant
    assert isinstance(deriv.ty, Arrow)
    _require_sequential(deriv.ty.input)
    params = [names.fresh("a") for _ in deriv.ty.input.get(MAIN).items]
    out = _pack(_translate_spine(deriv, valuation, [LVar(x) for x in params], names))
    if len(params) == 1:
        return LLam(PVar(params[0]), out)
    return LLam(PTuple(tuple(PVar(x) for x in params)), out)


def _pack(items: list[LambdaTerm]) -> LambdaTerm:
    return items[0] if len(items) == 1 else LTuple(tuple(items))


def _splice(result: LambdaTerm, width: int, stack: list[LambdaTerm]):
    if width == 1:
        stack.append(result)
    elif width > 1:
        for i in range(width):
            stack.append(LApp(proj(i + 1, width), result))


def _pop_args(vt: Arrow, stack: list[LambdaTerm]) -> list[LambdaTerm]:
    k = len(vt.input.get(MAIN).items)
    args = stack[len(stack) - k:] if k else []
    del stack[len(stack) - k:]
    return args


def _translate_spine(deriv: Derivation, valuation: dict[str, LambdaTerm],
                     stack: list[LambdaTerm], names: _Names) -> list[LambdaTerm]:
    valuation = dict(valuation)
    while deriv.rule != "nil":
        match deriv.rule:
            case "pop" | "push" if not deriv.term.loc.is_main():
                raise LambdaTranslationError("lambda translation needs a sequential term")
            case "pop":
                valuation[deriv.term.var] = stack.pop()
            case "push":
                stack.append(_value_of(deriv.children[0], valuation, names))
            case "seq-var":
                vt = deriv.var_type
                _require_sequential(vt.input)
                args = _pop_args(vt, stack)
                fn = valuation.get(deriv.term.var, LVar(deriv.term.var))
                result = LApp(fn, _pack(args) if args else LTuple(()))
                _splice(result, len(vt.output.get(MAIN).items), stack)
            case "const":
                vt = deriv.var_type
                args = _pop_args(vt, stack)
                head: LambdaTerm = LVar(deriv.term.sym.name)
                if args:
                    head = LApp(head, _pack(args))
                _splice(head, len(vt.output.get(MAIN).items), stack)
            case _:
                raise LambdaTranslationError(f"unexpected rule {deriv.rule}")
        deriv = deriv.children[-1]
    return stack


def fmc_to_lambda_closed(deriv: Derivation) -> tuple[LambdaTerm, LambdaType]:
    """A closed lambda-term (abstracting the context tuple) and its type."""
    ctx_vars, outputs = fmc_to_lambda(deriv)
    out_ty = _vector_to_lambda(deriv.ty.output.get(MAIN))
    body = _pack(outputs) if outputs else LTuple(())
    if not ctx_vars:
        return body, out_ty
    in_ty = _vector_to_lambda(deriv.ty.input.get(MAIN))
    if len(ctx_vars) == 1:
        return LLam(PVar(ctx_vars[0]), body), LArrow(in_ty, out_ty)
    return LLam(PTuple(tuple(PVar(x) for x in ctx_vars)), body), LArrow(in_ty, out_ty)


# -- lambda-calculus to sequential calculus --------------------------------------------

def lambda_type_to_fmc(ty: LambdaType) -> SimpleType:
    vec = lambda_type_vector(ty)
    if len(vec) == 1:
        return vec[0]
    raise ValueError("product types translate to stack vectors, not single types")


def lambda_type_vector(ty: LambdaType) -> tuple[SimpleType, ...]:
    match ty:
        case LBase(name):
            return (Base(name),)
        case LProd(items):
            out: tuple[SimpleType, ...] = ()
            for a in items:
                out += lambda_type_vector(a)
            return out
        case LArrow(dom, cod):
            return (Arrow(mem({MAIN: Vector(lambda_type_vector(dom))}),
                          mem({MAIN: Vector(lambda_type_vector(cod))})),)
    raise TypeError(ty)


def _flatten_pattern(p: Pattern, ty: LambdaType) -> list[tuple[str, LambdaType]]:
    match p, ty:
        case PVar(x), _:
            return [(x, ty)]
        case PTuple(items), LProd(tys) if len(items) == len(tys):
            out = []
            for q, a in zip(items, tys):
                out.extend(_flatten_pattern(q, a))
            return out
    raise LambdaTranslationError(f"pattern {p} does not match type {ty}")


def lambda_to_fmc(t: LambdaTerm, ctx: Optional[list[tuple[str, LambdaType]]] = None,
                  ty: Optional[LambdaType] = None) -> Term:
    """Translate a typed lambda-term; the result consumes the context off
    the stack (first binding deepest) and leaves the value's slots.  An
    earlier binding of a name shadows a later one."""
    ctx = list(ctx or [])
    if ty is None:
        ty = infer_lambda(t, dict(reversed(ctx)))
    return _to_fmc(t, ctx, ty, _Names(DEFAULT_SIGNATURE.is_const))


def _ctx_blocks(ctx: list[tuple[str, LambdaType]], names: _Names) -> list[tuple[str, list[str]]]:
    """One block of stack slots per context entry, one slot per value."""
    return [(name, [names.fresh("g") for _ in lambda_type_vector(ty)]) for name, ty in ctx]


def _pops_blocks(blocks, body: Term) -> Term:
    t = body
    for _, slots in blocks:
        for s in slots:
            t = Pop(MAIN, s, t)
    return t


def _pushes_blocks(blocks, body: Term) -> Term:
    t = body
    for _, slots in reversed(blocks):
        for s in reversed(slots):
            t = Push(var(s), MAIN, t)
    return t


def _to_fmc(t: LambdaTerm, ctx: list[tuple[str, LambdaType]], ty: LambdaType,
            names: _Names) -> Term:
    blocks = _ctx_blocks(ctx, names)
    match t:
        case LVar(x):
            for block in blocks:
                if block[0] == x:
                    return _pops_blocks(blocks, _pushes_blocks([block], NIL))
            raise LambdaTranslationError(f"unbound variable {x}")
        case LTuple(items):
            match ty:
                case LProd(tys) if len(tys) == len(items):
                    body: Term = NIL
                    for sub, sub_ty in zip(items, tys):
                        seg = _pushes_blocks(blocks, _to_fmc(sub, ctx, sub_ty, names))
                        body = compose(body, seg)
                    return _pops_blocks(blocks, body)
            raise LambdaTranslationError(f"tuple at non-product type {ty}")
        case LApp(f, a):
            aty = infer_lambda(a, dict(reversed(ctx)))
            seg_arg = _pushes_blocks(blocks, _to_fmc(a, ctx, aty, names))
            seg_fn = _pushes_blocks(blocks, _to_fmc(f, ctx, LArrow(aty, ty), names))
            force = Pop(MAIN, "k", var("k"))
            return _pops_blocks(blocks, compose(seg_arg, compose(seg_fn, force)))
        case LLam(p, b):
            match ty:
                case LArrow(dom, cod):
                    inner_ctx = _flatten_pattern(p, dom) + ctx
                    thunk = _pushes_blocks(blocks, _to_fmc(b, inner_ctx, cod, names))
                    return _pops_blocks(blocks, Push(thunk, MAIN, NIL))
            raise LambdaTranslationError(f"lambda at non-arrow type {ty}")
    raise TypeError(t)
