import random

import pytest

from fmclab.gen import enumerate_closed_terms, random_simple_type, random_term
from fmclab.parser import (
    ParseError,
    format_memory,
    parse_memory,
    parse_term,
    parse_type,
    print_term,
    print_type,
)
from fmclab.syntax import MAIN, Location, Nil, Pop, alpha_eq
from fmclab.typesys import Arrow, Base, TypeCheckError, Vector, infer, mem

p = parse_term


def test_parse_increment_example():
    t = p("rnd<x>.[x].c<y>.[y].+.<z>.[z]c")
    assert print_term(t) == "rnd<x>.[x].c<y>.[y].+.<z>.[z]c"


def test_parse_nil():
    assert p("*") == Nil()


def test_parse_arithmetic():
    t = p("[4].[3].[2].+.mul.[1].+")
    assert print_term(t) == "[4].[3].[2].+.mul.[1].+"


def test_omitted_trailing_nil():
    assert p("<x>.[x]") == p("<x>.[x].*")


def test_print_countup_golden():
    t = p("[<x>.[x]out.[x].[1].+].<f>.[0].f.f.f")
    assert print_term(t) == "[<x>.[x]out.[x].[1].+].<f>.[0].f.f.f"


def test_roundtrip_simple():
    assert print_term(p("<x>.[x]")) == "<x>.[x]"


def test_annotations_parse_and_print():
    t = p("<x:Z>.[x]")
    assert isinstance(t, Pop) and t.annot == Base("Z")
    assert print_term(t) == "<x>.[x]"
    assert print_term(t, show_annots=True) == "<x:Z>.[x]"
    arrow = p("<f:Z Z > Z>.f")
    assert isinstance(arrow.annot, Arrow)


def test_parse_error_has_span():
    src = "<x>.[x"
    with pytest.raises(ParseError) as err:
        p(src)
    assert err.value.span is not None
    assert 0 <= err.value.span.start <= len(src)


def test_parse_error_expected_set():
    with pytest.raises(ParseError) as err:
        p("<x .")
    assert err.value.expected


def test_parse_memory():
    memory = parse_memory("c = 5 ; rnd = 3 7 1")
    assert memory[Location("c")] == (p("5"),)
    assert memory[Location("rnd")] == (p("3"), p("7"), p("1"))


def test_parse_memory_general_elements():
    memory = parse_memory("c = <x>.[x] 5")
    assert alpha_eq(memory[Location("c")][0], p("<x>.[x]"))


def test_memory_roundtrip():
    src = "c = 5 ; rnd = 3 7 1"
    memory = parse_memory(src)
    printed = format_memory(memory, order=[Location("c"), Location("rnd")])
    assert parse_memory(printed) == memory


def test_memory_accepts_pipe_separator():
    assert parse_memory("c = 5 | rnd = 3") == parse_memory("c = 5 ; rnd = 3")


# -- types ------------------------------------------------------------------------

def test_parse_type_increment():
    ty = parse_type("rnd(Z) c(Z) > c(Z)")
    assert ty == Arrow(
        mem({Location("rnd"): Vector((Base("Z"),)), Location("c"): Vector((Base("Z"),))}),
        mem({Location("c"): Vector((Base("Z"),))}),
    )


def test_parse_type_empty_arrow():
    ty = parse_type(">")
    assert ty == Arrow(mem({}), mem({}))


def test_parse_type_higher_order_fixpoint():
    src = "(a > a) >"
    ty = parse_type(src)
    assert parse_type(print_type(ty)) == ty
    assert print_type(parse_type(print_type(ty))) == print_type(ty)


def test_parse_type_bare_atoms_are_main():
    ty = parse_type("Z Z > Z")
    assert ty.input.get(MAIN).items == (Base("Z"), Base("Z"))


def test_type_print_parse_corpus():
    for src in ["Z", "B", ">", "Z > Z", "rnd(Z) c(Z) > c(Z)", "> out(Z Z Z) Z",
                "(Z > Z) Z > Z", "((>) > (>)) >"]:
        ty = parse_type(src)
        assert parse_type(print_type(ty)) == ty


def test_bare_atom_before_parenthesized_arrow():
    # `Z (` is an atom then an arrow; only `Z(` opens a location group
    ty = parse_type("Z (Z > Z Z) > Z Z Z")
    assert ty.input.get(MAIN).items == (Base("Z"), parse_type("Z > Z Z"))
    assert print_type(ty) == "Z (Z > Z Z) > Z Z Z"
    assert parse_type("Z(Z) > Z(Z)").input.get(Location("Z")).items == (Base("Z"),)


def test_printed_types_parse_back():
    rng = random.Random(7)
    types = [random_simple_type(rng, depth=3, bases=("Z", "B")) for _ in range(400)]
    for t in enumerate_closed_terms(6, (MAIN, Location("a"))):
        try:
            types.append(infer({}, t).instantiate_minimal())
        except TypeCheckError:
            pass
    assert len(types) > 1400
    for ty in types:
        assert parse_type(print_type(ty)) == ty, print_type(ty)


# -- fuzzed round trips ---------------------------------------------------------------

def test_fuzz_roundtrip_sample():
    rng = random.Random(20240811)
    for _ in range(1500):
        t = random_term(rng, rng.randint(1, 18), ("x", "y"), (MAIN, Location("a"), Location("out")))
        printed = print_term(t)
        again = p(printed)
        assert alpha_eq(again, t), printed
        assert print_term(again) == printed  # printing is idempotent
