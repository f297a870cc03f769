"""Beta/eta rewriting across head contexts, normalization, reduction graphs.

A beta redex is a push and a pop on the same location separated only by
actions on other locations; contraction substitutes across that head
context.  Both reductions are closed under all contexts, so redexes are
searched at every subterm position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import (
    HeadContext,
    Const,
    Pop,
    PopFrame,
    Push,
    PushFrame,
    SeqVar,
    Term,
    alpha_canonical,
    decompose,
    free_vars,
    fresh_name,
    plug,
    substitute,
    var,
)

Path = tuple[int, ...]


class StaleRedex(Exception):
    pass


class BoundExceeded(Exception):
    pass


@dataclass(frozen=True)
class Redex:
    """A beta or eta redex at `position`, spanning `depth` head frames."""

    kind: str  # 'beta' or 'eta'
    position: Path
    depth: int
    head: HeadContext
    var: str
    arg: Optional[Term] = None  # beta: pushed argument
    body: Optional[Term] = None  # beta: pop continuation; eta: push continuation


def subterm_at(t: Term, path: Path) -> Term:
    for step in path:
        match t, step:
            case Push(arg, _, _), 0:
                t = arg
            case Push(_, _, cont), 1:
                t = cont
            case (SeqVar(_, cont) | Pop(_, _, cont) | Const(_, cont)), 0:
                t = cont
            case _:
                raise StaleRedex(f"no subterm at {path}")
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    step, rest = path[0], path[1:]
    match t, step:
        case Push(arg, loc, cont), 0:
            return Push(replace_at(arg, rest, new), loc, cont)
        case Push(arg, loc, cont), 1:
            return Push(arg, loc, replace_at(cont, rest, new))
        case SeqVar(x, cont), 0:
            return SeqVar(x, replace_at(cont, rest, new))
        case Pop(loc, x, cont, annot), 0:
            return Pop(loc, x, replace_at(cont, rest, new), annot)
        case Const(sym, cont), 0:
            return Const(sym, replace_at(cont, rest, new))
    raise StaleRedex(f"cannot replace at {path}")


def positions(t: Term) -> Iterator[tuple[Path, Term]]:
    """All subterm positions in preorder (node, then argument, then rest)."""
    stack: list[tuple[Path, Term]] = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        match node:
            case Push(arg, _, cont):
                stack.append((path + (1,), cont))
                stack.append((path + (0,), arg))
            case SeqVar(_, cont) | Pop(_, _, cont) | Const(_, cont):
                stack.append((path + (0,), cont))
            case _:
                pass


def _scan_beta(node: Term) -> Optional[tuple[int, HeadContext, str, Term]]:
    """From a push, walk forward to the matching pop on the same location."""
    assert isinstance(node, Push)
    loc = node.loc
    frames = []
    t = node.cont
    while True:
        match t:
            case Pop(l, x, cont, _) if l == loc:
                return len(frames), HeadContext(tuple(frames)), x, cont
            case Pop(l, x, cont, annot):
                frames.append(PopFrame(l, x, annot))
                t = cont
            case Push(arg, l, cont):
                if l == loc:
                    return None
                frames.append(PushFrame(arg, l))
                t = cont
            case _:
                return None


def _freshen_frames(frames: tuple, body: Term, forbidden: frozenset[str]):
    """Rename pop-frame binders that clash with `forbidden`, consistently."""
    out = []
    frames = list(frames)
    i = 0
    while i < len(frames):
        f = frames[i]
        if isinstance(f, PopFrame) and f.var in forbidden:
            rest = plug(HeadContext(tuple(frames[i + 1:])), body)
            fresh = fresh_name(f.var, forbidden | free_vars(rest))
            rest = substitute(var(fresh), f.var, rest)
            h, body = decompose(rest, len(frames) - i - 1)
            frames[i + 1:] = list(h.frames)
            f = PopFrame(f.loc, fresh, f.annot)
        out.append(f)
        i += 1
    return HeadContext(tuple(out)), body


def beta_redexes(t: Term) -> list[Redex]:
    found = []
    for path, node in positions(t):
        if isinstance(node, Push):
            hit = _scan_beta(node)
            if hit is not None:
                depth, head, x, body = hit
                head, body = _freshen_frames(head.frames, Pop(node.loc, x, body), free_vars(node.arg))
                assert isinstance(body, Pop)
                found.append(Redex("beta", path, depth, head, body.var, node.arg, body.cont))
    return found


def _scan_eta(node: Term) -> Optional[tuple[int, HeadContext, Term]]:
    """From a pop, walk forward to a push of exactly the popped variable."""
    assert isinstance(node, Pop)
    loc, x = node.loc, node.var
    frames = []
    t = node.cont
    while True:
        match t:
            case Push(arg, l, cont) if l == loc:
                if arg == var(x) and x not in free_vars(cont):
                    return len(frames), HeadContext(tuple(frames)), cont
                return None
            case Push(arg, l, cont):
                frames.append(PushFrame(arg, l))
                t = cont
            case Pop(l, y, cont, annot) if l != loc and y != x:
                frames.append(PopFrame(l, y, annot))
                t = cont
            case _:
                return None


def eta_redexes(t: Term) -> list[Redex]:
    found = []
    for path, node in positions(t):
        if isinstance(node, Pop):
            hit = _scan_eta(node)
            if hit is not None:
                depth, head, cont = hit
                found.append(Redex("eta", path, depth, head, node.var, None, cont))
    return found


def reduce_at(t: Term, r: Redex) -> Term:
    node = subterm_at(t, r.position)
    if r.kind == "beta":
        if not isinstance(node, Push):
            raise StaleRedex("no push at redex position")
        hit = _scan_beta(node)
        if hit is None or hit[0] != r.depth:
            raise StaleRedex("beta redex no longer present")
        depth, head, x, body = hit
        head, popped = _freshen_frames(head.frames, Pop(node.loc, x, body), free_vars(node.arg))
        assert isinstance(popped, Pop)
        contractum = plug(head, substitute(node.arg, popped.var, popped.cont))
        return replace_at(t, r.position, contractum)
    if r.kind == "eta":
        if not isinstance(node, Pop):
            raise StaleRedex("no pop at redex position")
        hit = _scan_eta(node)
        if hit is None or hit[0] != r.depth:
            raise StaleRedex("eta redex no longer present")
        depth, head, cont = hit
        return replace_at(t, r.position, plug(head, cont))
    raise ValueError(r.kind)


@dataclass(frozen=True)
class NormalizeResult:
    status: str  # 'normal' or 'fuel'
    term: Term
    steps: int


def normalize(t: Term, strategy: str = "leftmost-outermost", fuel: int = 10**6,
              eta: bool = False) -> NormalizeResult:
    """Reduce to beta (optionally beta-eta) normal form, strategy-ordered."""
    if strategy not in ("leftmost-outermost", "rightmost-innermost"):
        raise ValueError(strategy)
    steps = 0
    while steps < fuel:
        redexes = beta_redexes(t)
        if eta:
            redexes += eta_redexes(t)
        if not redexes:
            return NormalizeResult("normal", t, steps)
        redexes.sort(key=lambda r: r.position)
        chosen = redexes[0] if strategy == "leftmost-outermost" else redexes[-1]
        t = reduce_at(t, chosen)
        steps += 1
    return NormalizeResult("fuel", t, steps)


# -- reduction graphs -----------------------------------------------------------

@dataclass
class ReductionGraph:
    root: Term
    nodes: dict  # term -> itself, as first reached; terms are keyed up to alpha
    edges: dict  # term -> list of (successor term, redex label)

    def normal_forms(self) -> list:
        return [k for k, succ in self.edges.items() if not succ]

    def depth(self) -> int:
        """Longest reduction path from the root (graph is acyclic: beta on
        typed terms strictly decreases the collapse measure)."""
        memo: dict = {}
        on_stack: set = set()

        def longest(k) -> int:
            if k in memo:
                return memo[k]
            if k in on_stack:
                raise BoundExceeded("reduction graph has a cycle")
            on_stack.add(k)
            best = 0
            for succ, _ in self.edges[k]:
                best = max(best, 1 + longest(succ))
            on_stack.discard(k)
            memo[k] = best
            return best

        return longest(self.root)


def reduction_graph(t: Term, node_bound: int = 10**4) -> ReductionGraph:
    """Exhaustive one-step beta expansion up to `node_bound` nodes."""
    nodes = {t: t}
    edges: dict = {}
    frontier = [t]
    while frontier:
        term = frontier.pop()
        if term in edges:
            continue
        succ = []
        for r in beta_redexes(term):
            reduced = reduce_at(term, r)
            node = nodes.setdefault(reduced, reduced)
            if node is reduced:
                if len(nodes) > node_bound:
                    raise BoundExceeded(f"more than {node_bound} nodes")
                frontier.append(node)
            succ.append((node, f"{'.'.join(map(str, r.position)) or 'root'}"))
        edges[term] = succ
    return ReductionGraph(t, nodes, edges)


def confluent_on(g: ReductionGraph) -> bool:
    """All maximal reduction paths in a finite graph share one normal form."""
    return len(g.normal_forms()) == 1


def to_dot(g: ReductionGraph) -> str:
    from .parser import print_term

    ids = {k: f"n{i}" for i, k in enumerate(g.nodes)}
    lines = ["digraph reduction {"]
    for k in g.nodes:
        label = print_term(k).replace("\\", "\\\\").replace('"', '\\"')
        shape = ', shape=box' if k == g.root else ""
        lines.append(f'  {ids[k]} [label="{label}"{shape}];')
    for k, succ in g.edges.items():
        for s, label in succ:
            lines.append(f'  {ids[k]} -> {ids[s]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


# -- permutation equivalence ------------------------------------------------------

def _swaps(t: Term) -> Iterator[Term]:
    """One-step adjacent swaps of independent actions, at every position."""
    match t:
        case Push(p, a, Push(n, b, m)) if a != b:
            yield Push(n, b, Push(p, a, m))
        case Pop(a, x, Push(n, b, m), annot) if a != b and x not in free_vars(n):
            yield Push(n, b, Pop(a, x, m, annot))
        case Push(n, b, Pop(a, x, m, annot)) if a != b and x not in free_vars(n):
            yield Pop(a, x, Push(n, b, m), annot)
        case Pop(a, x, Pop(b, y, m, an2), an1) if a != b and x != y:
            yield Pop(b, y, Pop(a, x, m, an1), an2)
    # congruence closure: recurse into children
    match t:
        case Push(arg, loc, cont):
            for s in _swaps(arg):
                yield Push(s, loc, cont)
            for s in _swaps(cont):
                yield Push(arg, loc, s)
        case SeqVar(x, cont):
            for s in _swaps(cont):
                yield SeqVar(x, s)
        case Pop(loc, x, cont, annot):
            for s in _swaps(cont):
                yield Pop(loc, x, s, annot)
        case Const(sym, cont):
            for s in _swaps(cont):
                yield Const(sym, s)


def perm_class(t: Term, bound: int = 5000) -> dict:
    """The permutation-equivalence class of t, each member mapped to itself.

    Binders are renamed apart first: `_swaps` never swaps two pops that
    bind the same name, and swaps keep every binder's name.
    """
    start = alpha_canonical(t)
    seen = {start: start}
    frontier = [start]
    while frontier:
        term = frontier.pop()
        for s in _swaps(term):
            if seen.setdefault(s, s) is s:
                if len(seen) > bound:
                    raise BoundExceeded(f"permutation class exceeds {bound} terms")
                frontier.append(s)
    return seen


def perm_eq(a: Term, b: Term, bound: int = 5000) -> bool:
    """Decide the congruence closure of the three swap clauses."""
    return a == b or b in perm_class(a, bound)
