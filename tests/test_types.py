import gc
import itertools

import pytest

from fmclab.gen import enumerate_closed_terms, random_typed_terms
from fmclab.machine import run
from fmclab.measure import lean_run_length_derivation, least_input_memory
from fmclab.parser import parse_term, parse_type, print_term
from fmclab.reduction import beta_redexes, reduce_at
from fmclab.syntax import MAIN, Location, alpha_eq
from fmclab.typesys import (
    AmbiguousConstant,
    Arrow,
    Base,
    DEFAULT_SIGNATURE,
    InferState,
    Mem,
    OccursCheck,
    Scheme,
    TypeCheckError,
    TypeMismatch,
    UnboundVariable,
    UnificationClash,
    Vector,
    check,
    check_infer,
    infer,
    infer_with_derivation,
    load_signature,
    mem,
    pretty_type,
    unify,
    validate_derivation,
)

p = parse_term
Z = Base("Z")


# -- checking goldens -----------------------------------------------------------

def test_increment_typing():
    check({}, p("rnd<x>.[x].c<y>.[y].+.<z>.[z]c"), parse_type("rnd(Z) c(Z) > c(Z)"))


def test_countup_typing():
    check({}, p("[<x>.[x]out.[x].[1].+].<f>.[0].f.f.f"), parse_type("> out(Z Z Z) Z"))


def test_nil_identity_any_memory():
    check({}, p("*"), parse_type("a(Z) > a(Z)"))
    check({}, p("*"), parse_type("a(Z) b(B Z) Z > a(Z) b(B Z) Z"))


def test_mutations_rejected_with_positions():
    cases = [
        ("rnd<x>.[x].c<y>.[y].+.<z>.[z]c", "rnd(Z) c(Z) > out(Z)"),  # swapped location
        ("rnd<x>.[x].[y].+.<z>.[z]c", "rnd(Z) c(Z) > c(Z)"),  # dropped a pop
        ("rnd<x>.[x].c<y>.+.<z>.[z]c", "rnd(Z) c(Z) > c(Z)"),  # dropped a push
        ("[<x>.[x]out.[x].[1].+].<f>.[0].f.f.f", "> out(Z Z) Z"),  # wrong output arity
    ]
    for src, ty in cases:
        with pytest.raises(TypeCheckError) as err:
            check({}, p(src), parse_type(ty))
        assert isinstance(err.value.path, tuple)
    # the dual checker rejects them too
    for src, ty in cases:
        with pytest.raises(TypeCheckError):
            check_infer({}, p(src), parse_type(ty))


def test_base_variable_rule():
    check({"x": Z}, p("x"), Z)
    with pytest.raises(TypeCheckError):
        check({"x": Z}, p("x.*"), parse_type("Z > Z"))  # sequencing a base variable
    with pytest.raises(UnboundVariable):
        check({}, p("x"), Z)


def test_pop_annotation_must_match():
    check({}, p("<x:Z>.[x]"), parse_type("Z > Z"))
    with pytest.raises(TypeCheckError):
        check({}, p("<x:B>.[x]"), parse_type("Z > Z"))


def test_conditional_instances():
    check({}, p("[[1]].[[2]].[true].if.<z>.z"), parse_type("> Z"))
    check({}, p("<x:Z>.<y:Z>.[x].[y].[false].if"), parse_type("Z Z > Z"))


def test_pushing_polymorphic_constant_is_ambiguous():
    with pytest.raises(AmbiguousConstant):
        infer({}, p("[if]"))
    with pytest.raises(AmbiguousConstant):
        check({}, p("[if].<f>"), parse_type("> "))


def test_pushed_operator_checks_at_signature_type():
    check({}, p("[+].<f>.[1].[2].f"), parse_type("> Z"))


# -- inference ------------------------------------------------------------------

def test_infer_nil_is_identity_rows():
    scheme = infer({}, p("*"))
    ty = scheme.type_
    assert ty.input == ty.output
    assert all(vec.row is not None for _, vec in ty.input.entries) or not ty.input.entries


def test_infer_annotated_duplicator():
    scheme = infer({}, p("<x:Z>.[x].[x]"))
    ty = scheme.type_
    (_, vin), = ty.input.entries
    (_, vout), = ty.output.entries
    assert vin.items == (Z,) and vout.items == (Z, Z)
    assert vin.row == vout.row is not None


def test_infer_addition_shape():
    scheme = infer({}, p("+"))
    ty = scheme.type_
    (_, vin), = ty.input.entries
    (_, vout), = ty.output.entries
    assert vin.items == (Z, Z) and vout.items == (Z,)
    assert vin.row == vout.row is not None


def test_infer_mirrors_fig1_goldens():
    assert pretty_type(infer({}, p("rnd<x>.[x].c<y>.[y].+.<z>.[z]c")).instantiate_minimal()) \
        == "c(Z) rnd(Z) > c(Z)"
    assert pretty_type(infer({}, p("[<x>.[x]out.[x].[1].+].<f>.[0].f.f.f")).instantiate_minimal()) \
        == "> out(Z Z Z) Z"


def test_infer_rejects_unbound():
    with pytest.raises(UnboundVariable):
        infer({}, p("ghost.[1]"))


def test_infer_occurs_check():
    # M M for M = <e0>.[e0.<e1>].e0 runs forever from the empty memory, so
    # no type fits it: typed terms are strongly normalizing
    omega = p("[<e0>.[e0.<e1>].e0].<y>.[y].y")
    assert run({}, omega, fuel=100).status == "fuel"
    with pytest.raises(OccursCheck):
        infer({}, omega)
    for ty in (">", "(>) > (>)", "> (>)"):
        with pytest.raises(TypeCheckError):
            check({}, omega, parse_type(ty))


@pytest.mark.parametrize("src", [
    "[*]b.<b0>.b<b1>.b1.[*]b.[b1]a.a<b2>.b2",
    "<b0>.[<b2>].<b1>.b1.b0.<b2>.[b1].<b3>.b1.<b4>",
    "[*].<b1>.[[*].[b1].b1].b1",
    "<x>.[x].x",
    "[*].<e0>.e0.[e0].e0",
])
def test_infer_types_what_check_accepts(src):
    scheme, deriv = infer_with_derivation({}, p(src))
    validate_derivation(deriv, {})
    ty = scheme.instantiate_minimal()
    assert deriv.ty == ty
    check_infer({}, p(src), ty)


def test_infer_self_use_is_identity():
    # the variable's own type is on the stack at its first use
    assert pretty_type(infer({}, p("<x>.[x].x")).instantiate_minimal()) == "(>) > (>)"
    check({}, p("<x>.[x].x"), parse_type("(>) > (>)"))
    check_infer({}, p("[*]b.<b0>.b<b1>.b1.[*]b.[b1]a.a<b2>.b2"), parse_type("Z > b((>))"))


def test_infer_exhaustive_small_terms():
    # every closed one-location term of size <= 8; 2,330 is how many the
    # earlier two-mode inference typed
    total = typed = 0
    for t in enumerate_closed_terms(8):
        total += 1
        try:
            scheme, deriv = infer_with_derivation({}, t)
        except TypeCheckError:
            continue
        typed += 1
        ty = scheme.instantiate_minimal()
        assert deriv.ty == ty
        assert check_infer({}, t, ty).ty == ty, print_term(t)
    assert total == 2606
    assert typed >= 2330


def test_long_chains_type_without_recursion():
    n = 5000
    chain = p("[1]." + "[1].+." * (n - 1) + "[1].+")  # 2n + 1 actions
    assert pretty_type(infer({}, chain).instantiate_minimal()) == "> Z"
    assert check_infer({}, chain, parse_type("> Z")).ty == parse_type("> Z")
    assert check({}, chain, parse_type("> Z")).ty == parse_type("> Z")
    with pytest.raises(TypeCheckError) as err:
        check({}, chain, parse_type("> Z Z"))
    assert err.value.path == (1,) + (1, 0) * n  # the final nil


def test_typing_makes_no_reference_cycles():
    terms = [t for t, _ in random_typed_terms(seed=106, count=40, max_size=12)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for t in terms:
            scheme, _ = infer_with_derivation({}, t)
            ty = scheme.instantiate_minimal()
            check({}, t, ty)
            check_infer({}, t, ty)
            scheme.metavars()
            lean_run_length_derivation(t)
        gc.collect()
        leaked = [obj for obj in gc.garbage
                  if callable(obj) and getattr(obj, "__module__", None) == "fmclab.typesys"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


# -- unification -----------------------------------------------------------------

def test_unify_row_extension():
    st = InferState()
    rho, rho2 = st.fresh_row(), st.fresh_row()
    st.unify_vector(Vector((), rho), Vector((Z,), rho2))
    assert st.resolve_vector(Vector((), rho)) == Vector((Z,), rho2)


def test_unify_kind_clash():
    with pytest.raises(UnificationClash):
        unify(Z, Arrow(mem({}), mem({})))


def test_unify_identity_on_ground():
    ty = parse_type("rnd(Z) c(Z) > c(Z)")
    st = unify(ty, ty)
    assert not st.tv and not st.rv


def test_unify_length_mismatch():
    with pytest.raises(UnificationClash):
        unify(Vector((Z,)), Vector((Z, Z)))


# -- soundness of inference ---------------------------------------------------------

def _ground_instances(scheme: Scheme, max_each=2):
    tvs, rows = scheme.metavars()
    tv_opts = [Z, Arrow(mem({}), mem({}))]
    row_opts = [(), (Z,)]
    tv_list, row_list = sorted(tvs), sorted(rows)
    for tv_choice in itertools.product(tv_opts, repeat=len(tv_list)):
        for row_choice in itertools.product(row_opts, repeat=len(row_list)):
            yield scheme.instantiate(dict(zip(tv_list, tv_choice)),
                                     dict(zip(row_list, row_choice)))


def test_inference_sound_against_checker():
    # every ground instance yields a validated derivation; the plain
    # syntax-directed checker additionally accepts whenever its local
    # argument-type synthesis suffices (always true at minimal instances,
    # see test_check_infer_agrees_with_check)
    checked = 0
    for t, scheme in random_typed_terms(seed=101, count=150, max_size=12):
        for ground in itertools.islice(_ground_instances(scheme), 4):
            deriv = check_infer({}, t, ground)
            assert deriv.ty == ground
            checked += 1
    assert checked >= 300


def test_inferred_derivations_validate():
    for t, scheme in random_typed_terms(seed=102, count=150, max_size=14):
        _, deriv = infer_with_derivation({}, t)
        validate_derivation(deriv, {})
        assert deriv.ty == scheme.instantiate_minimal()


def test_check_infer_agrees_with_check():
    # both checkers accept the inferred minimal instance
    for t, scheme in random_typed_terms(seed=103, count=100, max_size=12):
        ty = scheme.instantiate_minimal()
        d1 = check({}, t, ty)
        d2 = check_infer({}, t, ty)
        assert d1.ty == d2.ty == ty


# -- subject reduction ----------------------------------------------------------------

def test_subject_reduction():
    reduced = 0
    for t, scheme in random_typed_terms(seed=104, count=200, max_size=16):
        ty = scheme.instantiate_minimal()
        for r in beta_redexes(t):
            t2 = reduce_at(t, r)
            check_infer({}, t2, ty)
            reduced += 1
    assert reduced >= 60


# -- machine type safety -----------------------------------------------------------------

def test_typed_runs_never_stick():
    for t, scheme in random_typed_terms(seed=105, count=150, max_size=16):
        ty = scheme.instantiate_minimal()
        memory = least_input_memory(ty)
        result = run(memory, t, fuel=10**5)
        assert result.status == "done", print_term(t)
        # the final memory checks element-wise against the output type
        for loc, vec in ty.output.entries:
            stack = result.memory.get(loc, ())
            assert len(stack) == len(vec.items), print_term(t)
            for element, ety in zip(stack, vec.items):
                check_infer({}, element, ety) if isinstance(ety, Arrow) else check({}, element, ety)
        for loc, stack in result.memory.items():
            if loc not in {l for l, _ in ty.output.entries}:
                assert stack == ()


# -- permutation of singleton types across locations -----------------------------------------

def test_memory_types_commute_across_locations():
    a = parse_type("a(Z) b(B) > b(B) a(Z)")
    b = parse_type("b(B) a(Z) > a(Z) b(B)")
    assert a == b
    check({}, p("*"), a)


# -- signature files ----------------------------------------------------------------------

def test_load_signature():
    sig = load_signature("base Q\nconst neg : Z > Z\n# comment\nconst pair2 : Z Z > Z Z\n")
    assert "Q" in sig.bases
    assert sig.ops["neg"] == ((Z,), (Z,))
    check({}, parse_term("neg", sig), parse_type("Z > Z"), sig)


def test_signature_rejects_non_main_ops():
    from fmclab.parser import ParseError

    with pytest.raises(ParseError):
        load_signature("const bad : a(Z) > Z\n")
