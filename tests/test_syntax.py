import random

from hypothesis import given, settings, strategies as st

from fmclab.gen import random_term
from fmclab.parser import parse_term, print_term
from fmclab.syntax import (
    MAIN,
    NIL,
    Const,
    HeadContext,
    Location,
    Pop,
    PopFrame,
    Push,
    PushFrame,
    Term,
    alpha_eq,
    bound_vars,
    compose,
    decompose,
    free_vars,
    fresh_name,
    fragment_of,
    locations_of,
    plug,
    size,
    substitute,
    var,
)

p = parse_term


def terms(draw_scope=("x", "y", "z")):
    return st.builds(
        lambda seed, budget: random_term(random.Random(seed), budget, draw_scope, (MAIN, Location("a"))),
        st.integers(0, 10**9), st.integers(1, 14))


# -- free variables -----------------------------------------------------------

def test_free_vars_nil():
    assert free_vars(p("*")) == frozenset()


def test_free_vars_var_and_push():
    assert free_vars(p("x.[y]")) == {"x", "y"}


def test_free_vars_pop_binds():
    assert free_vars(p("<x>.[x].y")) == {"y"}


# -- substitution --------------------------------------------------------------

def test_substitute_nil():
    assert substitute(p("<q>.[q]"), "x", NIL) == NIL


def test_substitute_head_composes():
    assert alpha_eq(substitute(p("[1]"), "x", p("x")), p("[1]"))


def test_substitute_avoids_capture():
    # {y/x}(<y>.[x]) must rename the binder before substituting
    result = substitute(var("y"), "x", p("<y>.[x]"))
    assert alpha_eq(result, Pop(MAIN, "w", Push(var("y"), MAIN, NIL)))
    assert not alpha_eq(result, p("<y>.[y]"))
    assert free_vars(result) == {"y"}


def test_substitute_renames_the_same_way_every_time():
    # the renamed binder does not depend on the renamings made before
    first = print_term(substitute(p("[y].[y']"), "x", p("<y>.[x]")))
    assert first == "<y'0>.[[y].[y']]"
    assert print_term(substitute(p("[y].[y']"), "x", p("<y>.[x]"))) == first
    assert fresh_name("y", {"y'", "y'0"}) == fresh_name("y2", {"y'", "y'0"}) == "y'1"


def test_substitute_shadowed_binder():
    t = p("<x>.[x]")
    assert substitute(p("[1]"), "x", t) == t


# -- composition ----------------------------------------------------------------

def test_compose_left_unit():
    m = p("<x>.[x].y")
    assert compose(NIL, m) == m


def test_compose_right_unit():
    m = p("<x>.[x].y")
    assert alpha_eq(compose(m, NIL), m)


def test_compose_push_clause():
    assert alpha_eq(compose(p("[1]"), p("<x>.[x]")), p("[1].<x>.[x]"))


def test_compose_renames_binder():
    # the pop in the left term must not capture the free x of the right term
    left, right = p("<x>.[x]"), p("[x]")
    out = compose(left, right)
    assert "x" in free_vars(out)
    assert alpha_eq(out, p("<q>.[q].[x]"))


@settings(max_examples=150, deadline=None)
@given(terms(), terms(), terms())
def test_compose_associative(a, b, c):
    assert alpha_eq(compose(compose(a, b), c), compose(a, compose(b, c)))


@settings(max_examples=150, deadline=None)
@given(terms())
def test_compose_units(m):
    assert alpha_eq(compose(NIL, m), m)
    assert alpha_eq(compose(m, NIL), m)


@settings(max_examples=150, deadline=None)
@given(terms(), terms())
def test_substitution_free_vars(m, n):
    out = substitute(n, "x", m)
    if "x" in free_vars(m):
        assert free_vars(out) <= (free_vars(m) - {"x"}) | free_vars(n)
    else:
        assert alpha_eq(out, m)


# -- alpha equivalence ------------------------------------------------------------

def test_alpha_eq_rename():
    assert alpha_eq(p("<x>.[x]"), p("<y>.[y]"))
    assert p("<x>.[x]") == p("<y>.[y]")
    assert hash(p("<x>.[x]")) == hash(p("<y>.[y]"))
    assert p("<x:Z>.[x]") == p("<x>.[x]")  # annotations are not part of a term's identity


def test_alpha_eq_distinguishes_free():
    assert not alpha_eq(p("<x>.[x]"), p("<x>.[z]"))
    assert p("<x>.[z]") != p("<x>.[x]")


def test_alpha_eq_nested():
    assert alpha_eq(p("[<x>.x].<f>.f"), p("[<a>.a].<b>.b"))
    assert p("[<x>.x].<f>.f") == p("[<a>.a].<b>.b")
    assert p("[x].<x>.[x]") == p("[x].<y>.[y]")  # a push argument sees the binders around it
    assert p("<x>.<x>.[x]") != p("<x>.<y>.[x]")  # the inner binder shadows the outer
    assert p("<x>.<x>.[x]") == p("<y>.<x>.[x]")


@settings(max_examples=100, deadline=None)
@given(terms())
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


def test_equality_of_long_terms_stays_off_the_python_stack():
    n = 10_000
    chain = p("[5]." + ".".join(f"<x{i}>.[x{i}]" for i in range(n)))
    renamed = p("[5]." + ".".join(f"<y{i}>.[y{i}]" for i in range(n)))
    assert chain == renamed and hash(chain) == hash(renamed)
    assert chain != Push(p("5"), MAIN, renamed)
    assert _arith_chain(50_000) == _arith_chain(50_000)  # 99,999 actions
    assert hash(_arith_chain(50_000)) == hash(_arith_chain(50_000))


def _arith_chain(count: int) -> Term:
    """`[0].[1]. ... .+.+`: `count` pushes of digits, then count - 1 additions."""
    plus = p("+").sym
    digits = [p(str(d)) for d in range(10)]
    t = NIL
    for _ in range(count - 1):
        t = Const(plus, t)
    for i in reversed(range(count)):
        t = Push(digits[i % 10], MAIN, t)
    return t


# -- sizes, locations, fragments ----------------------------------------------------

def test_size_positive_and_decreasing():
    t = p("[<x>.[x]].<f>.f")
    assert size(t) >= 1
    assert size(t) > size(p("<f>.f"))  # continuation after removing the push
    assert size(t) > size(p("<x>.[x]"))


def test_locations_of():
    assert locations_of(p("rnd<x>.[x]c")) == {Location("rnd"), Location("c")}
    assert locations_of(p("rnd<x>.[x].[x]c")) == {Location("rnd"), MAIN, Location("c")}


def test_fragment_sequential():
    assert fragment_of(p("<x>.[x]")) == "sequential"


def test_fragment_poly():
    assert fragment_of(p("a<x>.[x]b.*")) == "poly"


def test_fragment_full():
    assert fragment_of(p("rnd<x>.[x].c<y>.[y].+.<z>.[z]c")) == "full"


# -- head contexts -------------------------------------------------------------------

def test_plug_and_bound_vars():
    h = HeadContext((PushFrame(p("[1]"), Location("b")), PopFrame(Location("a"), "y")))
    assert bound_vars(h) == {"y"}
    plugged = plug(h, var("y"))
    assert plugged == p("[[1]]b.a<y>.y")
    # the pop frame captures in the plugged term
    assert "y" not in free_vars(plugged)


@settings(max_examples=100, deadline=None)
@given(terms(), st.integers(0, 5))
def test_plug_decompose_roundtrip(t, depth):
    spine = []
    node = t
    while isinstance(node, (Push, Pop)) and len(spine) < depth:
        spine.append(node)
        node = node.cont
    d = len(spine)
    h, rest = decompose(t, d)
    assert plug(h, rest) == t
    assert print_term(plug(h, rest)) == print_term(t)  # binder names too
    h2, rest2 = decompose(plug(h, rest), d)
    assert (h2, rest2) == (h, rest)
