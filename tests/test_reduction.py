import random
import re

import pytest

from fmclab.gen import random_term, random_typed_terms
from fmclab.parser import parse_term, print_term
from fmclab.reduction import (
    BoundExceeded,
    Redex,
    StaleRedex,
    beta_redexes,
    confluent_on,
    eta_redexes,
    normalize,
    perm_class,
    perm_eq,
    positions,
    reduce_at,
    reduction_graph,
    subterm_at,
    to_dot,
)
from fmclab.syntax import (
    MAIN,
    Location,
    Nil,
    Pop,
    Push,
    SeqVar,
    alpha_eq,
    bound_vars,
    free_vars,
    plug,
    size,
    substitute,
)
from fmclab.typesys import check_infer, infer_with_derivation, TypeCheckError

p = parse_term


# -- brute-force head-context oracle --------------------------------------------

def oracle_beta_positions(t):
    """Enumerate every decomposition of every subterm and test the schema
    with its side conditions directly."""
    found = set()
    for path, node in positions(t):
        if not isinstance(node, Push):
            continue
        frames = []
        rest = node.cont
        depth = 0
        while True:
            if isinstance(rest, Pop) and rest.loc == node.loc:
                head_locs = {f.loc for f in frames}
                if node.loc not in head_locs:
                    # binder clashes are repairable by alpha-conversion
                    found.add((path, depth))
            if isinstance(rest, (Push, Pop)):
                if isinstance(rest, Push):
                    frames.append(rest)
                else:
                    frames.append(rest)
                if rest.loc == node.loc:
                    break
                rest = rest.cont
                depth += 1
            else:
                break
    return found


def oracle_eta_positions(t):
    found = set()
    for path, node in positions(t):
        if not isinstance(node, Pop):
            continue
        frames = []
        rest = node.cont
        depth = 0
        while True:
            if (isinstance(rest, Push) and rest.loc == node.loc):
                if (rest.arg == SeqVar(node.var, Nil())
                        and node.loc not in {f.loc for f in frames}
                        and node.var not in {f.var for f in frames if isinstance(f, Pop)}
                        and node.var not in free_vars(rest.cont)):
                    found.add((path, depth))
                break
            if isinstance(rest, (Push, Pop)):
                if rest.loc == node.loc:
                    break
                frames.append(rest)
                rest = rest.cont
                depth += 1
            else:
                break
    return found


def test_beta_redexes_against_oracle():
    rng = random.Random(99)
    for _ in range(400):
        t = random_term(rng, rng.randint(2, 16), ("u",), (MAIN, Location("a"), Location("b")))
        got = {(r.position, r.depth) for r in beta_redexes(t)}
        assert got == oracle_beta_positions(t), print_term(t)


def test_eta_redexes_against_oracle():
    rng = random.Random(77)
    for _ in range(400):
        t = random_term(rng, rng.randint(2, 16), ("u",), (MAIN, Location("a")))
        got = {(r.position, r.depth) for r in eta_redexes(t)}
        assert got == oracle_eta_positions(t), print_term(t)


# -- redex goldens -----------------------------------------------------------------

def test_redex_at_root():
    rs = beta_redexes(p("[q].<x>.x"))
    assert [(r.position, r.depth) for r in rs] == [((), 0)]


def test_redex_across_other_location():
    rs = beta_redexes(p("[n]a.b<y>.a<x>.*"))
    assert len(rs) == 1
    assert rs[0].depth == 1
    assert bound_vars(rs[0].head) == {"y"}


def test_inner_pop_blocks():
    rs = beta_redexes(p("[n]a.a<y>.a<x>.*"))
    assert len(rs) == 1
    assert rs[0].var == "y" and rs[0].depth == 0


def test_capture_threat_renames_head_binder():
    # the head binder y clashes with the free y of the argument
    t = p("[y]a.b<y>.a<x>.[x].[y]b")
    rs = beta_redexes(t)
    assert len(rs) == 1
    out = reduce_at(t, rs[0])
    # the argument's free y must still be free after contraction
    assert "y" in free_vars(out)
    assert alpha_eq(out, p("b<w>.[y].[w]b"))


def test_reduce_beta_golden():
    t = p("[<z>.[z]].<x>.x")
    out = reduce_at(t, beta_redexes(t)[0])
    assert alpha_eq(out, p("<z>.[z]"))


def test_reduce_eta_golden():
    t = p("<x>.[x]")
    assert alpha_eq(reduce_at(t, eta_redexes(t)[0]), p("*"))


def test_eta_requires_unused_variable():
    assert eta_redexes(p("<x>.[x].[x]")) == []


def test_cbv_chain_step():
    # one contraction along the effectful example's reduction chain
    t = p("[<x>.[x].<v>.[v]out.c<y>.[y]c.[y]].<f>.[0].[f].<z>.z.[f].<w>.w")
    target = p("[0]out.c<y>.[y]out.[y]c.[y]")
    nf = normalize(t, fuel=1000)
    assert nf.status == "normal"
    assert alpha_eq(nf.term, target)


def test_stale_redex_detected():
    t = p("[1].<x>.[x].[2].<y>.[y]")
    r1, r2 = beta_redexes(t)[:2]
    t2 = reduce_at(t, r1)
    with pytest.raises(StaleRedex):
        # position paths shift after the first contraction
        reduce_at(t2, Redex("beta", (0, 0, 0, 0, 0), 3, r2.head, r2.var, r2.arg, r2.body))


def test_normalize_nil():
    assert normalize(p("*")).status == "normal"


def test_normalize_diverging_self_application():
    result = normalize(p("[<x>.[x].x].<x>.[x].x"), fuel=100)
    assert result.status == "fuel"


def test_sequencing_self_application_is_normal():
    # substituting into sequence position composes, so this one terminates
    result = normalize(p("[<x>.x.x].<x>.x.x"), fuel=100)
    assert result.status == "normal"


def test_strategies_agree_on_confluent_term():
    t = p("[<z>.[z]].<x>.[x].[x]")
    lo = normalize(t, strategy="leftmost-outermost")
    ri = normalize(t, strategy="rightmost-innermost")
    assert alpha_eq(lo.term, ri.term)


# -- graphs -----------------------------------------------------------------------

def test_graph_unique_normal_form():
    g = reduction_graph(p("[<z>.[z]].<x>.[x].[x]"))
    assert confluent_on(g)
    assert g.depth() >= 1


def test_graph_cycle_detected():
    g = reduction_graph(p("[<x>.[x].x].<x>.[x].x"), node_bound=50)
    with pytest.raises(BoundExceeded):
        g.depth()


def test_graph_bound():
    with pytest.raises(BoundExceeded):
        reduction_graph(p("[<x>.[x].[x].x].<x>.[x].[x].x"), node_bound=5)


def test_dot_export():
    g = reduction_graph(p("[1].<x>.[x]"))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert "->" in dot and "[1].<x>.[x]" in dot


def test_graph_nodes_do_not_depend_on_binder_names():
    checked = 0
    for t, _ in random_typed_terms(seed=37, count=60, max_size=14):
        renamed = p(re.sub(r"\bb(\d+)", r"r\1", print_term(t)))
        if print_term(renamed) == print_term(t):
            continue  # no binders
        assert renamed == t
        g, h = reduction_graph(t), reduction_graph(renamed)
        assert g.nodes.keys() == h.nodes.keys(), print_term(t)
        assert {k: len(s) for k, s in g.edges.items()} == {k: len(s) for k, s in h.edges.items()}
        assert g.depth() == h.depth()
        checked += 1
    assert checked >= 40


def test_confluence_on_typed_corpus():
    for t, scheme in random_typed_terms(seed=31, count=120, max_size=16):
        g = reduction_graph(t, node_bound=10**4)
        assert confluent_on(g), print_term(t)


# -- permutation equivalence ---------------------------------------------------------

def test_perm_push_push():
    assert perm_eq(p("[q]a.[n]b.*"), p("[n]b.[q]a.*"))


def test_perm_pop_push():
    assert perm_eq(p("a<x>.[n]b.[x]a"), p("[n]b.a<x>.[x]a"))


def test_perm_pop_pop():
    assert perm_eq(p("a<x>.b<y>.*"), p("b<y>.a<x>.*"))


def test_perm_same_location_blocked():
    assert not perm_eq(p("[1]a.[2]a.*"), p("[2]a.[1]a.*"))


def test_perm_capture_blocked():
    # moving the pop over a push that mentions its variable is not allowed
    assert not perm_eq(p("a<x>.[x]b.*"), p("[x]b.a<x>.*"))


def test_perm_class_renames_binders_apart():
    # swapping the two pops is fine once they bind different names
    members = perm_class(p("<x>.a<x>.[x]"))
    assert len(members) == 2
    assert p("a<y>.<x>.[y]") in members


def test_beta_factorization():
    # every beta step is a permutation to adjacency plus a strict contraction
    rng = random.Random(13)
    locs = (MAIN, Location("a"), Location("b"))
    checked = 0
    for _ in range(200):
        # build a term guaranteed to have a redex: push, detour frames, pop
        loc = rng.choice(locs)
        arg = random_term(rng, rng.randint(1, 6), ("u",), locs)
        body = random_term(rng, rng.randint(1, 8), ("x", "u"), locs)
        inner = Pop(loc, "x", body)
        for other in [l for l in locs if l != loc][: rng.randint(0, 2)]:
            if rng.random() < 0.5:
                inner = Push(random_term(rng, 2, ("u",), locs), other, inner)
            else:
                inner = Pop(other, f"w{rng.randint(0,9)}", inner)
        t = Push(arg, loc, inner)
        for r in beta_redexes(t):
            contracted = reduce_at(t, r)
            node = subterm_at(t, r.position)
            adjacent = plug(r.head, Push(node.arg, node.loc,
                                         Pop(node.loc, r.var, r.body)))
            moved = _replace(t, r.position, adjacent)
            assert perm_eq(t, moved), print_term(t)
            strict = _replace(t, r.position,
                              plug(r.head, substitute(node.arg, r.var, r.body)))
            assert alpha_eq(strict, contracted), print_term(t)
            checked += 1
    assert checked > 100


def _replace(t, path, new):
    from fmclab.reduction import replace_at

    return replace_at(t, path, new)


# -- eta and the measure ----------------------------------------------------------------

def test_eta_decreases_size_and_not_measure():
    from fmclab.measure import measure
    from fmclab.typesys import Arrow, Vector, mem, check_infer

    count = 0
    for t, scheme in random_typed_terms(seed=47, count=80, max_size=10):
        ty = scheme.instantiate_minimal()
        if not ty.input.entries:
            continue
        loc, vec = ty.input.entries[-1]
        expanded = Pop(loc, "eta_w", Push(SeqVar("eta_w", Nil()), loc, t))
        try:
            d_small = check_infer({}, t, ty)
            d_big = check_infer({}, expanded, ty)
        except TypeCheckError:
            continue
        assert size(expanded) > size(t)
        rs = [r for r in eta_redexes(expanded) if r.position == ()]
        assert rs, print_term(expanded)
        reduced = reduce_at(expanded, rs[0])
        assert alpha_eq(reduced, t)
        from fmclab.measure import measure as m_
        assert m_(d_big) >= m_(d_small)
        count += 1
    assert count >= 20
