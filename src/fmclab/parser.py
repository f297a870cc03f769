"""Concrete syntax for terms, types, and memory literals.

Terms: dot-separated actions, e.g. `rnd<x>.[x].c<y>.[y].+.<z>.[z]c`.
The trailing `.*` may be omitted; the main location is never written.
Types: vectors are written bottom-to-top on both sides of `>`; bare atoms
belong to the main stack, other locations group their vector in parens.
Memory literals: `loc = term term ; loc = ...`, top of stack rightmost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import typesys
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
)
from .typesys import DEFAULT_SIGNATURE, Arrow, Base, Mem, Signature, Vector, mem

MAIN_SPELLING = "lam"  # accepted for the main location in memory literals


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None,
                 expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        loc = f" at {self.span}" if self.span else ""
        hint = f" (expected one of: {', '.join(sorted(self.expected))})" if self.expected else ""
        return f"{self.message}{loc}{hint}"


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'int', 'sym', 'eof'
    text: str
    span: SourceSpan


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT_RE = re.compile(r"-?[0-9]+")
_SYMS = set(".*[]<>():;=|+")


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            if c == "\n":
                line, col = line + 1, 1
            else:
                col += 1
            i += 1
            continue
        span_start = SourceSpan(i, i + 1, line, col)
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(src, i)
            text = m.group()
            toks.append(Token("ident", text, SourceSpan(i, m.end(), line, col)))
            col += len(text)
            i = m.end()
        elif c.isdigit() or (c == "-" and i + 1 < n and src[i + 1].isdigit()):
            m = _INT_RE.match(src, i)
            text = m.group()
            toks.append(Token("int", text, SourceSpan(i, m.end(), line, col)))
            col += len(text)
            i = m.end()
        elif c in _SYMS:
            toks.append(Token("sym", c, span_start))
            col += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", span_start)
    toks.append(Token("eof", "", SourceSpan(n, n, line, col)))
    return toks


class _Cursor:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.span,
                             frozenset({want}))
        return self.next()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text


def _resolve_loc(name: str) -> Location:
    return MAIN if name == MAIN_SPELLING else Location(name)


# -- terms ---------------------------------------------------------------------

def parse_term(src: str, sig: Signature = DEFAULT_SIGNATURE) -> Term:
    cur = _Cursor(tokenize(src))
    t = _parse_seq(cur, sig)
    cur.expect("eof")
    return t


def _parse_seq(cur: _Cursor, sig: Signature) -> Term:
    segs = [_parse_seg(cur, sig)]
    while cur.at_sym("."):
        cur.next()
        segs.append(_parse_seg(cur, sig))
    term: Term = NIL
    for build in reversed(segs):
        term = build(term)
    return term


def _parse_seg(cur: _Cursor, sig: Signature):
    """One action; returns a continuation-taking constructor."""
    tok = cur.peek()
    if tok.kind == "sym" and tok.text == "*":
        cur.next()
        return lambda cont: cont
    if tok.kind == "sym" and tok.text == "[":
        cur.next()
        arg = _parse_seq(cur, sig)
        cur.expect("sym", "]")
        loc = MAIN
        if cur.peek().kind == "ident":
            loc = _resolve_loc(cur.next().text)
        return lambda cont: Push(arg, loc, cont)
    if tok.kind == "sym" and tok.text == "<":
        return _parse_pop(cur, MAIN, sig)
    if tok.kind == "sym" and tok.text == "+":
        cur.next()
        return lambda cont: Const(sig.const_sym("+"), cont)
    if tok.kind == "int":
        cur.next()
        return lambda cont: Const(ConstSym(tok.text, 0, 1), cont)
    if tok.kind == "ident":
        if cur.peek(1).kind == "sym" and cur.peek(1).text == "<":
            cur.next()
            return _parse_pop(cur, _resolve_loc(tok.text), sig)
        cur.next()
        if sig.is_const(tok.text):
            return lambda cont: Const(sig.const_sym(tok.text), cont)
        return lambda cont: SeqVar(tok.text, cont)
    raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.span,
                     frozenset({"*", "[", "<", "identifier", "integer"}))


def _parse_pop(cur: _Cursor, loc: Location, sig: Signature):
    cur.expect("sym", "<")
    name = cur.expect("ident").text
    annot = None
    if cur.at_sym(":"):
        cur.next()
        annot = _parse_annot(cur)
    else:
        cur.expect("sym", ">")
    return lambda cont: Pop(loc, name, cont, annot)


def _parse_annot(cur: _Cursor):
    """Annotation followed by the closing `>`; `>` prefers the arrow reading."""
    save = cur.pos
    try:
        ty = _parse_type(cur)
        cur.expect("sym", ">")
        return ty
    except ParseError:
        cur.pos = save
    ty = _parse_type_atom(cur)
    cur.expect("sym", ">")
    return ty


# -- types -----------------------------------------------------------------------

def parse_type(src: str) -> typesys.SimpleType:
    cur = _Cursor(tokenize(src))
    ty = _parse_type(cur)
    cur.expect("eof")
    return ty


def _parse_type(cur: _Cursor) -> typesys.SimpleType:
    left, atoms = _parse_memvec(cur)
    if cur.at_sym(">"):
        cur.next()
        right, _ = _parse_memvec(cur)
        return Arrow(left, right)
    if len(atoms) == 1 and not left.entries:
        return atoms[0]
    if len(atoms) == 1 and left.entries == mem({MAIN: Vector((atoms[0],))}).entries:
        return atoms[0]
    tok = cur.peek()
    raise ParseError("expected `>` or a single type atom", tok.span, frozenset({">"}))


def _parse_memvec(cur: _Cursor) -> tuple[Mem, list]:
    """A sequence of `loc(...)` groups and bare main-stack atoms.

    A name is a location only when `(` follows it directly: `Z (Z > Z)` is
    two main-stack atoms, as `print_type` writes them.
    """
    entries: dict[Location, list] = {}
    bare: list = []
    while True:
        tok, after = cur.peek(), cur.peek(1)
        if tok.kind == "ident" and after.text == "(" and after.span.start == tok.span.end:
            loc = _resolve_loc(cur.next().text)
            cur.expect("sym", "(")
            vec = []
            while not cur.at_sym(")"):
                vec.append(_parse_type_atom(cur))
            cur.expect("sym", ")")
            entries.setdefault(loc, []).extend(vec)
        elif tok.kind == "ident" or (tok.kind == "sym" and tok.text == "("):
            atom = _parse_type_atom(cur)
            bare.append(atom)
            entries.setdefault(MAIN, []).append(atom)
        else:
            break
    return mem({loc: Vector(tuple(v)) for loc, v in entries.items()}), bare


def _parse_type_atom(cur: _Cursor) -> typesys.SimpleType:
    tok = cur.peek()
    if tok.kind == "ident":
        cur.next()
        return Base(tok.text)
    if tok.kind == "sym" and tok.text == "(":
        cur.next()
        if cur.at_sym(")"):  # unit-ish: `()` is the empty arrow
            cur.next()
            return Arrow(typesys.EMPTY_MEM, typesys.EMPTY_MEM)
        ty = _parse_type(cur)
        cur.expect("sym", ")")
        return ty
    raise ParseError(f"unexpected {tok.text or 'end of input'!r} in type", tok.span,
                     frozenset({"identifier", "("}))


# -- memories --------------------------------------------------------------------

def parse_memory(src: str, sig: Signature = DEFAULT_SIGNATURE) -> dict[Location, tuple[Term, ...]]:
    memory: dict[Location, tuple[Term, ...]] = {}
    for segment in re.split(r"[;|]", src):
        if not segment.strip():
            continue
        name, eq, elems = segment.partition("=")
        if not eq:
            raise ParseError(f"memory segment {segment.strip()!r} lacks `=`")
        loc = _resolve_loc(name.strip())
        stack = tuple(parse_term(chunk, sig) for chunk in _split_elements(elems))
        memory[loc] = memory.get(loc, ()) + stack
    return memory


def _split_elements(src: str) -> list[str]:
    """Split on whitespace at bracket depth zero."""
    chunks, depth, current = [], 0, []
    for c in src:
        if c in "[(<":
            depth += 1
        elif c in "])>":
            depth -= 1
        if c.isspace() and depth == 0:
            if current:
                chunks.append("".join(current))
                current = []
        else:
            current.append(c)
    if current:
        chunks.append("".join(current))
    return chunks


# -- printers --------------------------------------------------------------------

def print_term(t: Term, show_annots: bool = False) -> str:
    segs: list[str] = []
    while True:
        match t:
            case Nil():
                break
            case SeqVar(x, cont):
                segs.append(x)
                t = cont
            case Push(arg, loc, cont):
                segs.append(f"[{print_term(arg, show_annots)}]{loc}")
                t = cont
            case Pop(loc, x, cont, annot):
                label = f"{x}:{print_type(annot)}" if show_annots and annot is not None else x
                segs.append(f"{loc}<{label}>")
                t = cont
            case Const(sym, cont):
                segs.append(sym.name)
                t = cont
            case _:
                raise TypeError(t)
    return ".".join(segs) if segs else "*"


def print_type(ty) -> str:
    return typesys.pretty_type(ty)


def format_memory(memory: dict[Location, tuple[Term, ...]],
                  order: Optional[list[Location]] = None, sep: str = " ; ") -> str:
    locs = order if order is not None else sorted(memory, key=lambda l: l.name)
    parts = []
    for loc in locs:
        stack = memory.get(loc, ())
        name = MAIN_SPELLING if loc.is_main() else loc.name
        parts.append(f"{name} = {' '.join(print_term(el) for el in stack)}".rstrip())
    return sep.join(parts)
