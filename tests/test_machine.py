import random

from fmclab.bridge import CbvState, VInt, cbv_initial_memory, encode_cbv
from fmclab.gen import enumerate_closed_terms, random_cbv, random_typed_terms
from fmclab.machine import (
    DEFAULT_REGISTRY,
    MachineState,
    RunResult,
    Stepped,
    int_term,
    run,
    step,
    trace,
    trace_lines,
)
from fmclab.measure import least_input_memory
from fmclab.parser import format_memory, parse_memory, parse_term, print_term
from fmclab.reduction import normalize
from fmclab.syntax import (
    MAIN,
    Const,
    Location,
    Nil,
    Pop,
    Push,
    SeqVar,
    alpha_eq,
    substitute,
)

p = parse_term
INCREMENT = "rnd<x>.[x].c<y>.[y].+.<z>.[z]c"


def test_increment_run_table():
    memory = parse_memory("rnd = 9 7 3 ; c = 5")
    states, result = trace(memory, p(INCREMENT))
    assert result.status == "done"
    assert result.steps == 7
    assert len(states) == 8
    assert result.memory[Location("c")] == (int_term(8),)
    assert result.memory[Location("rnd")] == (int_term(9), int_term(7))
    assert result.memory.get(MAIN, ()) == ()


def test_trace_lines_render():
    memory = parse_memory("rnd = 9 7 3 ; c = 5")
    states, result = trace(memory, p(INCREMENT))
    lines = trace_lines(states, list(memory))
    assert len(lines) == 8
    assert lines[0].endswith("|| rnd<x>.[x].c<y>.[y].+.<z>.[z]c")
    assert lines[-1].endswith("|| *")
    assert "c = 8" in lines[-1].replace("  ", " ")


def test_nil_is_terminal():
    assert run({}, p("*")) == RunResult("done", {}, 0)
    states, result = trace({}, p("*"))
    assert len(states) == 1 and result.steps == 0


def test_pop_on_empty_sticks():
    result = run({}, p("<x>.*"))
    assert result.status == "stuck"
    assert "PopOnEmpty" in result.reason


def test_delta_underflow_and_undefined():
    result = run({}, p("[1].+"))
    assert result.status == "stuck" and "DeltaUnderflow" in result.reason
    result = run({}, p("[<q>.[q]].[1].+"))
    assert result.status == "stuck" and "DeltaUndefined" in result.reason


def test_push_pop_push_push():
    result = run({}, p("[1].<x>.[x].[x]"))
    assert result.status == "done"
    assert result.steps == 4
    assert result.memory[MAIN] == (int_term(1), int_term(1))


def test_arithmetic_returns_21():
    result = run({}, p("[4].[3].[2].+.mul.[1].+"))
    assert result.status == "done"
    assert result.memory[MAIN] == (int_term(21),)


def test_conditional_selects_branches():
    # stack bottom-to-top: left-thunk, right-thunk, boolean
    taken = run({}, p("[[1]].[[2]].[true].if.<z>.z"))
    assert taken.memory[MAIN] == (int_term(1),)
    other = run({}, p("[[1]].[[2]].[false].if.<z>.z"))
    assert other.memory[MAIN] == (int_term(2),)


def test_addition_grid():
    for a in (-3, -1, 0, 2, 7):
        for b in (-5, 0, 1, 9):
            result = run({}, p(f"[{a}].[{b}].+"))
            assert result.memory[MAIN] == (int_term(a + b),)
            result = run({}, p(f"[{a}].[{b}].mul"))
            assert result.memory[MAIN] == (int_term(a * b),)


def test_step_deterministic():
    memory = parse_memory("rnd = 3 ; c = 5")
    s = MachineState(memory, p(INCREMENT))
    first = step(s)
    second = step(s)
    assert isinstance(first, Stepped) and isinstance(second, Stepped)
    assert first.state.code == second.state.code
    assert first.state.memory == second.state.memory
    assert rendering([first.state]) == rendering([second.state])


def test_frame_property():
    # locations not mentioned in the code come out untouched
    rng = random.Random(5)
    extra = {Location("ghost"): (int_term(42), p("<q>.[q]")), Location("h2"): (int_term(0),)}
    for t, scheme in random_typed_terms(seed=11, count=40, max_size=12):
        ty = scheme.instantiate_minimal()
        memory = dict(least_input_memory(ty))
        memory.update(extra)
        result = run(memory, t, fuel=10**5)
        assert result.status == "done"
        for loc, stack in extra.items():
            assert result.memory.get(loc) == stack


def test_machine_agrees_with_reduction():
    # a finished run equals normalizing the term with its inputs pushed
    count = 0
    for t, scheme in random_typed_terms(seed=23, count=60, max_size=14):
        ty = scheme.instantiate_minimal()
        memory = least_input_memory(ty)
        direct = run(memory, t, fuel=10**5)
        assert direct.status == "done"
        loaded = t
        for loc, stack in sorted(memory.items(), key=lambda kv: kv[0].name, reverse=True):
            for element in reversed(stack):
                loaded = Push(element, loc, loaded)
        nf = normalize(loaded, fuel=10**4)
        assert nf.status == "normal"
        replay = run({}, nf.term, fuel=10**5)
        assert replay.status == "done"
        locs = set(direct.memory) | set(replay.memory)
        for loc in locs:
            a, b = direct.memory.get(loc, ()), replay.memory.get(loc, ())
            assert len(a) == len(b), (print_term(t), loc)
            # the machine leaves stack values unreduced, so compare reducts
            for x, y in zip(a, b):
                assert alpha_eq(normalize(x, fuel=10**4).term,
                                normalize(y, fuel=10**4).term), (print_term(t), loc)
        count += 1
    assert count == 60


# -- the substitution machine, as a reference ----------------------------------
#
# Each pop substitutes the popped term into the rest of the code.  This is
# the machine of the paper taken literally; the environment machine must
# agree with it on every run, down to binder names in the states it reports.
# `==` on terms is alpha-equivalence, so the names are compared as printed.

def rendering(states, result=None):
    """The printed memory and code of each state, then of the result's
    memory and state."""
    printed = [(format_memory(s.memory), print_term(s.code)) for s in states]
    if result is not None:
        printed.append(format_memory(result.memory))
        printed += rendering([result.state] if result.state else [])
    return printed


def reference_step(memory, code, delta=DEFAULT_REGISTRY):
    """(None, next memory, next code), or (stop reason, None, None); 'done' at `*`."""
    match code:
        case Nil():
            return "done", None, None
        case Push(arg, loc, cont):
            return None, {**memory, loc: memory.get(loc, ()) + (arg,)}, cont
        case Pop(loc, x, cont, _):
            stack = memory.get(loc, ())
            if not stack:
                return f"PopOnEmpty {loc.name}", None, None
            return None, {**memory, loc: stack[:-1]}, substitute(stack[-1], x, cont)
        case Const(sym, cont):
            fn = delta.lookup(sym)
            if fn is None:
                return f"DeltaUndefined {sym.name}", None, None
            stack = memory.get(MAIN, ())
            if len(stack) < sym.arity_in:
                return f"DeltaUnderflow {sym.name}", None, None
            inputs = stack[len(stack) - sym.arity_in:]
            outputs = fn(*reversed(inputs))
            if outputs is None:
                return f"DeltaUndefined {sym.name} {inputs}", None, None
            return None, {**memory, MAIN: stack[: len(stack) - sym.arity_in] + tuple(outputs)}, cont
        case SeqVar(x, _):
            return f"FreeVariable {x}", None, None


def reference_trace(memory, code, fuel):
    states = [MachineState(dict(memory), code)]
    while len(states) - 1 < fuel:
        stop, memory, code = reference_step(states[-1].memory, states[-1].code)
        if stop == "done":
            return states, RunResult("done", states[-1].memory, len(states) - 1)
        if stop is not None:
            return states, RunResult("stuck", states[-1].memory, len(states) - 1, states[-1], stop)
        states.append(MachineState(memory, code))
    return states, RunResult("fuel", states[-1].memory, fuel, states[-1])


# A memory that some enumerated terms consume: values on both locations,
# among them a function that duplicates its argument.
NON_EMPTY = parse_memory("lam = 1 <q>.[q].[q] ; a = [2].<y>.y 3")


def effect_programs(seed: int, count: int):
    rng = random.Random(seed)
    for term in random_cbv(seed, count):
        streams = lambda: [rng.random() < 0.5 for _ in range(16)]
        state = CbvState(store={cell: VInt(rng.randint(0, 9)) for cell in ("c", "d")},
                         output=[], input=[rng.randint(0, 99) for _ in range(16)],
                         rnd=streams(), nd=streams())
        yield cbv_initial_memory(state), encode_cbv(term)


def test_agrees_with_substitution_machine():
    cases = [(memory, t)
             for t in enumerate_closed_terms(7, (MAIN, Location("a")))
             for memory in ({}, NON_EMPTY)]
    assert len(cases) == 2 * 6635
    cases += list(effect_programs(seed=3, count=100))
    outcomes = set()
    for memory, t in cases:
        states, expected = reference_trace(memory, t, fuel=2000)
        ran = run(memory, t, fuel=2000)
        traced_states, traced = trace(memory, t, fuel=2000)
        assert ran == expected, print_term(t)
        assert (traced_states, traced) == (states, expected), print_term(t)
        assert rendering([], ran) == rendering([], expected), print_term(t)
        assert rendering(traced_states, traced) == rendering(states, expected), print_term(t)
        outcomes.add(expected.status)
    assert outcomes == {"done", "stuck"}


def test_fuel_cut_agrees_with_substitution_machine():
    omega = p("[<x>.[x].x].<x>.[x].x")
    for t in (omega, p(INCREMENT), p("[[1].<u>.[u].[u]].<f>.f.f.+")):
        memory = parse_memory("rnd = 9 7 3 ; c = 5")
        for fuel in range(12):
            states, expected = reference_trace(memory, t, fuel)
            ran = run(memory, t, fuel=fuel)
            traced_states = trace(memory, t, fuel=fuel)[0]
            assert ran == expected, (print_term(t), fuel)
            assert traced_states == states
            assert rendering([], ran) == rendering([], expected), (print_term(t), fuel)
            assert rendering(traced_states) == rendering(states)
            if fuel:
                stepped = step(states[-2])
                assert stepped == Stepped(states[-1])
                assert rendering([stepped.state]) == rendering(states[-1:])


def test_open_values_from_memory_read_back_up_to_alpha():
    # values given in the initial memory may be open; their free names must
    # not be caught by the bindings of the run
    memory = parse_memory("lam = e0 [e1].e0 ; a = <e1>.e0 e1")
    for t in enumerate_closed_terms(6, (MAIN, Location("a"))):
        states, expected = reference_trace(memory, t, fuel=200)
        got_states, got = trace(memory, t, fuel=200)
        assert (got.status, got.steps, got.reason) == (expected.status, expected.steps, expected.reason)
        assert len(got_states) == len(states)
        for a, b in zip(got_states, states):
            assert alpha_eq(a.code, b.code), print_term(t)
            assert a.memory.keys() == b.memory.keys()
            for loc in a.memory:
                assert all(alpha_eq(x, y) for x, y in zip(a.memory[loc], b.memory[loc], strict=True))


# -- long programs ---------------------------------------------------------------

def test_long_arithmetic_chain():
    rng = random.Random(1)
    values = [rng.randint(0, 9) for _ in range(50_000)]  # 99,999 actions
    src = ".".join([f"[{v}]" for v in values] + ["+"] * (len(values) - 1))
    result = run({}, p(src))
    assert result.status == "done" and result.steps == 2 * len(values) - 1
    assert result.memory == {MAIN: (int_term(sum(values)),)}


def test_long_binder_chain():
    n = 10_000
    result = run({}, p("[5]." + ".".join(f"<x{i}>.[x{i}]" for i in range(n))))
    assert result.status == "done" and result.steps == 2 * n + 1
    assert result.memory == {MAIN: (int_term(5),)}
