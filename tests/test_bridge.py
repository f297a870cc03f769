import gc
import random

import pytest

from fmclab.bridge import (
    CbvState,
    CbvStuck,
    CDeref,
    CLam,
    CLit,
    CVar,
    CWrite,
    IN,
    LambdaTranslationError,
    OUT,
    RND,
    ND,
    UndeclaredCell,
    VClos,
    VInt,
    cbv_eval,
    cbv_initial_memory,
    cells_of,
    encode_cbv,
    fmc_to_lambda,
    fmc_to_lambda_closed,
    lambda_to_fmc,
    lambda_type_to_fmc,
    lambda_type_vector,
    parse_cbv,
    print_cbv,
)
from fmclab.equivalence import ccc_combinator
from fmclab.gen import random_cbv, random_lambda_corpus
from fmclab.lambda_calc import (
    LApp,
    LArrow,
    LBase,
    LLam,
    LProd,
    LTuple,
    LTypeError,
    LVar,
    PTuple,
    PVar,
    infer_lambda,
    lambda_beta_eta_eq,
    normal_form,
    parse_lambda,
    print_lambda,
    proj,
)
from fmclab.machine import int_term, run
from fmclab.parser import parse_term, parse_type, print_term
from fmclab.reduction import normalize
from fmclab.syntax import Location, MAIN, alpha_eq, compose
from fmclab.typesys import Arrow, Base, Vector, check_infer, mem

p = parse_term
o = LBase("o")


# -- call-by-value encoding ----------------------------------------------------------

def test_encode_variable():
    assert alpha_eq(encode_cbv(CVar("x")), p("[x]"))


def test_encode_identity_function():
    assert alpha_eq(encode_cbv(parse_cbv("\\x.x")), p("[<x>.[x]]"))


def test_encode_deref_restores_cell():
    enc = encode_cbv(CDeref("c"))
    assert alpha_eq(enc, p("c<v>.[v]c.[v]"))


def test_encode_rejects_reserved_cells():
    with pytest.raises(UndeclaredCell):
        encode_cbv(parse_cbv("out := 1; 2"))
    with pytest.raises(UndeclaredCell):
        encode_cbv(parse_cbv("!c"), cells=frozenset({"d"}))


def test_paper_example_normal_form():
    t = parse_cbv("(\\f.f (f 0)) (\\x. write x; !c)")
    enc = encode_cbv(t)
    nf = normalize(enc, fuel=1000)
    assert nf.status == "normal"
    assert alpha_eq(nf.term, p("[0]out.c<y>.[y]out.[y]c.[y]"))


def test_paper_example_machine_run():
    enc = encode_cbv(parse_cbv("(\\f.f (f 0)) (\\x. write x; !c)"))
    # the cell must hold a value; a zero-initialized store gives out = 0 0
    result = run({Location("c"): (int_term(0),)}, enc)
    assert result.status == "done"
    assert result.memory[OUT] == (int_term(0), int_term(0))
    assert result.memory[Location("c")] == (int_term(0),)
    # from a truly empty memory the dereference pop sticks
    empty = run({}, enc)
    assert empty.status == "stuck" and "PopOnEmpty c" in empty.reason


def test_choice_runs_both_ways():
    enc = encode_cbv(parse_cbv("(write 1; 10) (+) (write 2; 20)"))
    left = run({RND: (p("true"),)}, enc)
    assert left.memory[OUT] == (int_term(1),) and left.memory[MAIN] == (int_term(10),)
    right = run({RND: (p("false"),)}, enc)
    assert right.memory[OUT] == (int_term(2),) and right.memory[MAIN] == (int_term(20),)


def test_cbv_parser_roundtrip():
    for src in ["read", "!c", "c := 1; !c", "write (read); 0",
                "(\\x.x) 3", "(1) + (2)", "(write 1; 2) (+) (3)"]:
        t = parse_cbv(src)
        assert parse_cbv(print_cbv(t)) == t


def test_reference_interpreter_matches_machine():
    agreements = 0
    for term in random_cbv(seed=77, count=120):
        state = CbvState(store={"c": VInt(3), "d": VInt(5)}, output=[],
                         input=list(range(10)), rnd=[True, False] * 8, nd=[False, True] * 8)
        memory = cbv_initial_memory(state)
        try:
            value = cbv_eval(term, {}, state)
        except CbvStuck:
            continue
        enc = encode_cbv(term)
        result = run(memory, enc, fuel=10**5)
        assert result.status == "done", print_cbv(term)
        # outputs match the emission order
        assert result.memory.get(OUT, ()) == tuple(int_term(v.value) for v in state.output)
        # cells match the final store
        for cell in ("c", "d"):
            assert result.memory[Location(cell)] == (int_term(state.store[cell].value),)
        # integer results appear on the main stack
        if isinstance(value, VInt):
            assert result.memory[MAIN] == (int_term(value.value),)
        # streams were consumed equally
        assert result.memory.get(IN, ()) == tuple(int_term(n) for n in state.input)
        assert len(result.memory.get(RND, ())) == len(state.rnd)
        assert len(result.memory.get(ND, ())) == len(state.nd)
        agreements += 1
    assert agreements >= 80


# -- stack calculus to lambda-calculus ---------------------------------------------------

def test_nil_translates_to_context():
    d = check_infer({}, p("*"), parse_type("Z > Z"))
    ctx_vars, outs = fmc_to_lambda(d)
    assert len(ctx_vars) == 1 and outs == [LVar(ctx_vars[0])]


def test_pop_push_translates_to_context():
    d = check_infer({}, p("<x>.[x]"), parse_type("Z > Z"))
    ctx_vars, outs = fmc_to_lambda(d)
    assert outs == [LVar(ctx_vars[0])]


def test_delta_translates_to_pairing():
    d = check_infer({}, ccc_combinator("delta", Vector((Base("Z"),))), parse_type("Z > Z Z"))
    lam, ty = fmc_to_lambda_closed(d)
    z = LBase("Z")
    assert lambda_beta_eta_eq(lam, parse_lambda("\\x.(x, x)"), LArrow(z, LProd((z, z))))


def test_constants_become_applied_symbols():
    d = check_infer({}, p("<x:Z>.[x].[1].+"), parse_type("Z > Z"))
    lam, ty = fmc_to_lambda_closed(d)
    z = LBase("Z")
    consts = {"+": LArrow(LProd((z, z)), z), "1": z}
    plus_one = LLam(PVar("n"), LApp(LVar("+"), LTuple((LVar("n"), LVar("1")))))
    assert lambda_beta_eta_eq(lam, plus_one, ty, consts)
    assert normal_form(lam, ty, consts) == LLam(
        PVar("x0"), LApp(LVar("+"), LTuple((LVar("x0"), LVar("1")))))


def test_translation_needs_sequential_terms():
    d = check_infer({}, p("a<x>.[x]a"), parse_type("a(Z) > a(Z)"))
    with pytest.raises(LambdaTranslationError):
        fmc_to_lambda(d)
    d = check_infer({}, p("[1]a.<x>.[x]"), parse_type("Z > a(Z) Z"))
    with pytest.raises(LambdaTranslationError):
        fmc_to_lambda(d)


# -- lambda-calculus to stack calculus ----------------------------------------------------

def test_variable_clause():
    t = lambda_to_fmc(LVar("x"), [("x", o)], o)
    assert alpha_eq(t, p("<a>.[a]"))


def test_abstraction_clause():
    t = lambda_to_fmc(parse_lambda("\\x.x"), [], LArrow(o, o))
    assert alpha_eq(t, p("[<a>.[a]]"))


def test_pattern_flattening():
    t = lambda_to_fmc(parse_lambda("\\(x,y).x"), [], LArrow(LProd((o, o)), o))
    assert alpha_eq(t, p("[<a2>.<a1>.[a1]]"))


def test_type_translation():
    assert lambda_type_vector(LProd((o, o))) == (Base("o"), Base("o"))
    arrow = lambda_type_to_fmc(LArrow(LProd((o, o)), o))
    assert arrow.input.get(MAIN).items == (Base("o"), Base("o"))


def test_roundtrip_pair_projection():
    lam = parse_lambda("\\(x,y).x")
    ty = LArrow(LProd((o, o)), o)
    _roundtrip_ok(lam, ty)


def test_roundtrip_corpus():
    corpus = random_lambda_corpus(seed=505, count=80, max_size=15)
    for lam, ty in corpus:
        _roundtrip_ok(lam, ty)
    assert len(corpus) == 80


def _roundtrip_ok(lam, ty):
    fmc = lambda_to_fmc(lam, [], ty)
    vec = lambda_type_vector(ty)
    fmc_ty = Arrow(mem({}), mem({MAIN: Vector(vec)}))
    deriv = check_infer({}, fmc, fmc_ty)
    back, back_ty = fmc_to_lambda_closed(deriv)
    assert lambda_beta_eta_eq(back, lam, ty)


# -- lambda-side equational theory ----------------------------------------------------------

def test_lambda_beta():
    t = parse_lambda("(\\x.x) y")
    assert normal_form(t, o, {"y": o}) == LVar("y")
    assert lambda_beta_eta_eq(t, LVar("y"), o, {"y": o})
    assert not lambda_beta_eta_eq(t, LVar("z"), o, {"y": o, "z": o})


def test_lambda_pattern_beta():
    t = parse_lambda("(\\(a,b).a) (m, n)")
    ctx = {"m": o, "n": o}
    assert normal_form(t, o, ctx) == LVar("m")
    assert not lambda_beta_eta_eq(t, LVar("n"), o, ctx)


def test_lambda_product_eta():
    m_ty = LProd((o, o))
    lhs = LTuple((LApp(proj(1, 2), LVar("m")), LApp(proj(2, 2), LVar("m"))))
    assert lambda_beta_eta_eq(lhs, LVar("m"), m_ty, {"m": m_ty})


def test_lambda_function_eta():
    f_ty = LArrow(o, o)
    assert lambda_beta_eta_eq(parse_lambda("\\x.f x"), LVar("f"), f_ty, {"f": f_ty})


def test_translations_respect_beta():
    # translating both sides of a contraction gives beta-eta-equal lambda-terms
    rng = random.Random(61)
    from fmclab.gen import random_typed_terms
    from fmclab.reduction import beta_redexes, reduce_at
    from fmclab.typesys import TypeCheckError

    checked = 0
    for t, scheme in random_typed_terms(seed=606, count=120, max_size=12, locs=(MAIN,)):
        ty = scheme.instantiate_minimal()
        for r in beta_redexes(t)[:1]:
            t2 = reduce_at(t, r)
            try:
                d1 = check_infer({}, t, ty)
                d2 = check_infer({}, t2, ty)
            except TypeCheckError:
                continue
            lam1, lty = fmc_to_lambda_closed(d1)
            lam2, _ = fmc_to_lambda_closed(d2)
            assert lambda_beta_eta_eq(lam1, lam2, lty), print_term(t)
            checked += 1
    assert checked >= 15


def test_sequencing_image():
    # the translation of a composition applies the parts in sequence
    n_term, m_term = p("<a>.[a].[a]"), p("<x>.<y>.[y]")
    n_ty = parse_type("Z > Z Z")
    m_ty = parse_type("Z Z > Z")
    whole = compose(n_term, m_term)
    d = check_infer({}, whole, parse_type("Z > Z"))
    dn = check_infer({}, n_term, n_ty)
    dm = check_infer({}, m_term, m_ty)
    lam, lty = fmc_to_lambda_closed(d)
    lam_n, _ = fmc_to_lambda_closed(dn)
    lam_m, _ = fmc_to_lambda_closed(dm)
    composed = LLam(PVar("s"), LApp(lam_m, LApp(lam_n, LVar("s"))))
    assert lambda_beta_eta_eq(lam, composed, LArrow(LBase("Z"), LBase("Z")))


# -- normal forms by evaluation ---------------------------------------------------------------

def test_pattern_binding_projects_a_neutral():
    t = parse_lambda("\\f.\\g.\\x.(\\(u,v). g v u) (f x)")
    renamed = parse_lambda("\\a.\\b.\\c.(\\(p,q). b q p) (a c)")
    ty = infer_lambda(t)
    assert lambda_beta_eta_eq(t, renamed, ty)
    assert print_lambda(normal_form(t, ty)) == (
        "\\x0.\\x1.\\x2.x1 ((\\(pr1, pr2).pr2) (x0 x2)) ((\\(pr1, pr2).pr1) (x0 x2))")


def _random_product(rng, depth):
    items = []
    for _ in range(rng.randint(2, 3)):
        items.append(_random_product(rng, depth - 1) if depth > 0 and rng.random() < 0.4
                     else LBase(rng.choice("op")))
    return LProd(tuple(items))


def _random_shape(rng, ty):
    """The shape of a pattern at ty: None binds one variable."""
    if isinstance(ty, LProd) and rng.random() < 0.8:
        return [_random_shape(rng, a) for a in ty.items]
    return None


def _shape_pattern(shape, names):
    if shape is None:
        return PVar(next(names))
    return PTuple(tuple(_shape_pattern(s, names) for s in shape))


def _shape_leaves(shape, ty, term):
    """(type, projection of term) for each variable of the pattern, in order."""
    if shape is None:
        return [(ty, term)]
    out = []
    for i, (s, a) in enumerate(zip(shape, ty.items)):
        out += _shape_leaves(s, a, LApp(proj(i + 1, len(ty.items)), term))
    return out


def pattern_redexes(seed: int, count: int):
    """Seeded (redex, binder-renamed redex, hand-projected form, type, context):
    a tuple-pattern abstraction applied to a neutral of product type."""
    rng = random.Random(seed)
    for _ in range(count):
        ty = _random_product(rng, 2)
        ctx = {"f": LArrow(o, ty), "m": ty, "x": o, "k": LArrow(o, o)}
        neutral = rng.choice([LApp(LVar("f"), LVar("x")), LVar("m")])
        shape = _random_shape(rng, ty)
        leaves = _shape_leaves(shape, ty, neutral)
        picks = [(rng.randrange(len(leaves)), rng.random() < 0.3) for _ in range(rng.randint(1, 4))]
        wrap = rng.random() < 0.5

        def body(leaf):
            items = [LApp(LVar("k"), leaf(i)) if apply_k and leaves[i][0] == o else leaf(i)
                     for i, apply_k in picks]
            if wrap:
                items.append(LVar("z"))
            out = items[0] if len(items) == 1 else LTuple(tuple(items))
            return LLam(PVar("z"), out) if wrap else out

        def redex(prefix):
            pattern = _shape_pattern(shape, (f"{prefix}{i}" for i in range(len(leaves))))
            return LApp(LLam(pattern, body(lambda i: LVar(f"{prefix}{i}"))), neutral)

        item_tys = [o if apply_k and leaves[i][0] == o else leaves[i][0] for i, apply_k in picks]
        if wrap:
            item_tys.append(o)
        body_ty = item_tys[0] if len(item_tys) == 1 else LProd(tuple(item_tys))
        if wrap:
            body_ty = LArrow(o, body_ty)
        yield redex("u"), redex("w"), body(lambda i: leaves[i][1]), body_ty, ctx


def test_pattern_redexes_on_neutrals():
    count = 0
    for lhs, renamed, projected, ty, ctx in pattern_redexes(seed=1616, count=250):
        assert infer_lambda(lhs, ctx) == ty
        nf = normal_form(lhs, ty, ctx)
        assert normal_form(projected, ty, ctx) == nf, print_lambda(lhs)
        assert normal_form(renamed, ty, ctx) == nf, print_lambda(lhs)
        count += 1
    assert count == 250


def test_normal_form_names_binders_apart_from_context():
    ty = LArrow(o, o)
    ctx = {"x0": ty, "x1": o}
    nf = normal_form(LVar("x0"), ty, ctx)
    assert nf == LLam(PVar("x'0"), LApp(LVar("x0"), LVar("x'0")))
    assert lambda_beta_eta_eq(parse_lambda("\\y.x0 y"), LVar("x0"), ty, ctx)
    assert not lambda_beta_eta_eq(parse_lambda("\\y.x0 x1"), LVar("x0"), ty, ctx)


def test_normal_form_rejects_untyped_input():
    with pytest.raises(LTypeError):
        normal_form(LVar("y"), o)
    with pytest.raises(LTypeError):
        normal_form(parse_lambda("\\x.x"), o)


# -- concrete lambda syntax ----------------------------------------------------------------

def test_lambda_identifiers_match_the_calculus():
    t = parse_lambda("\\x'.(x', y_1')")
    assert t == LLam(PVar("x'"), LTuple((LVar("x'"), LVar("y_1'"))))
    assert parse_lambda(print_lambda(t)) == t
    for bad in ("\\s%1.s%1", "x%", "\\(a, b%).a"):
        with pytest.raises(LTypeError):
            parse_lambda(bad)


def test_nonlinear_pattern_rejected():
    for src in ("\\(x,x).x", "\\(x,(y,x)).y", "f (\\(a,a).a)"):
        with pytest.raises(LTypeError):
            parse_lambda(src)
    assert parse_lambda("\\(x,y).\\x.x") == LLam(
        PTuple((PVar("x"), PVar("y"))), LLam(PVar("x"), LVar("x")))


def _corpus_translations():
    """(lambda-term, its translation, the translation's type, the translation back)
    for criterion 10's corpus."""
    for lam, ty in random_lambda_corpus(seed=424242, count=500, max_size=15):
        fmc = lambda_to_fmc(lam, [], ty)
        fmc_ty = Arrow(mem({}), mem({MAIN: Vector(lambda_type_vector(ty))}))
        back, _ = fmc_to_lambda_closed(check_infer({}, fmc, fmc_ty))
        yield lam, fmc, fmc_ty, back


def test_translations_print_and_parse_back():
    count = 0
    for lam, fmc, _, back in _corpus_translations():
        assert parse_lambda(print_lambda(lam)) == lam
        assert p(print_term(fmc)) == fmc
        assert parse_lambda(print_lambda(back)) == back
        count += 1
    assert count == 500
    for path, ty in (("corpus/identity.fmc", "Z > Z"), ("corpus/swap.fmc", "Z B > B Z")):
        with open(path, encoding="utf-8") as fh:
            d = check_infer({}, p(fh.read()), parse_type(ty))
        lam, _ = fmc_to_lambda_closed(d)
        assert parse_lambda(print_lambda(lam)) == lam
        fmc = lambda_to_fmc(lam, [], None)
        assert p(print_term(fmc)) == fmc
    with open("corpus/pair_first.lam", encoding="utf-8") as fh:
        fmc = lambda_to_fmc(parse_lambda(fh.read()))
    assert p(print_term(fmc)) == fmc


def test_translated_names_avoid_free_and_constant_names():
    free = {"s1": Base("Z"), "a2": Base("Z")}
    d = check_infer(free, p("<x>.[s1].[a2].[x]"), parse_type("Z > Z Z Z"))
    ctx_vars, outs = fmc_to_lambda(d)
    assert set(ctx_vars).isdisjoint({"s1", "a2"})
    assert outs[:2] == [LVar("s1"), LVar("a2")]
    t = lambda_to_fmc(parse_lambda("\\x.x"), [], LArrow(o, o))
    assert print_term(t) == "[<g1>.[g1]]"


def test_shadowed_names_translate_to_the_inner_binding():
    oo = LArrow(o, LArrow(o, o))
    inner = lambda_to_fmc(parse_lambda("\\x.\\x.x"), [], oo)
    assert inner == lambda_to_fmc(parse_lambda("\\x.\\y.y"), [], oo)
    assert inner != lambda_to_fmc(parse_lambda("\\x.\\y.x"), [], oo)
    assert lambda_to_fmc(LVar("x"), [("x", o), ("x", LProd((o, o)))]) == p("<a>.<b>.<c>.[c]")


def test_lambda_and_bridge_make_no_reference_cycles():
    corpus = random_lambda_corpus(seed=7, count=40, max_size=12)
    cbv = random_cbv(seed=7, count=40)
    d = check_infer({}, p("<x>.<y>.[y].[x]"), parse_type("Z Z > Z Z"))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for (lam, ty), prog in zip(corpus, cbv):
            parse_lambda(print_lambda(lam))
            infer_lambda(lam)
            normal_form(lam, ty)
            lambda_to_fmc(lam, [], ty)
            encode_cbv(prog)
            fmc_to_lambda_closed(d)
        gc.collect()
        modules = ("fmclab.lambda_calc", "fmclab.bridge")
        leaked = [obj for obj in gc.garbage if getattr(obj, "__module__", None) in modules]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
