"""The functional abstract machine: push/pop/constant transitions over memories,
run as an environment machine."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional, Union

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
    compose,
    free_vars,
    fresh_name,
    locations_of,
    substitute,
    var,
)

Memory = dict[Location, tuple[Term, ...]]


@dataclass(frozen=True)
class MachineState:
    memory: Memory
    code: Term

    def stack(self, loc: Location) -> tuple[Term, ...]:
        return self.memory.get(loc, ())


@dataclass(frozen=True)
class Stepped:
    state: MachineState


@dataclass(frozen=True)
class Terminal:
    memory: Memory


@dataclass(frozen=True)
class Stuck:
    state: MachineState
    reason: str


DeltaFn = Callable[..., tuple[Term, ...] | None]


@dataclass
class DeltaRegistry:
    """Constant operator rules; literals always push themselves.

    A rule receives the popped main-stack terms top-first and returns the
    output terms to push (bottom-first), or None when undefined.
    """

    fns: dict[str, DeltaFn] = field(default_factory=dict)

    def lookup(self, sym: ConstSym) -> Optional[DeltaFn]:
        if sym.is_literal():
            return lambda: (Const(sym, NIL),)
        return self.fns.get(sym.name)


def _as_int(t: Term) -> Optional[int]:
    match t:
        case Const(sym, Nil()) if sym.arity_in == 0:
            try:
                return int(sym.name)
            except ValueError:
                return None
    return None


def int_term(n: int) -> Term:
    return Const(ConstSym(str(n), 0, 1), NIL)


def bool_term(b: bool) -> Term:
    return Const(ConstSym("true" if b else "false", 0, 1), NIL)


def _delta_arith(op) -> DeltaFn:
    def fn(top: Term, below: Term) -> Optional[tuple[Term, ...]]:
        a, b = _as_int(top), _as_int(below)
        if a is None or b is None:
            return None
        return (int_term(op(a, b)),)

    return fn


def _delta_if(top: Term, second: Term, third: Term) -> Optional[tuple[Term, ...]]:
    match top:
        case Const(ConstSym("true", 0, 1), Nil()):
            return (third,)
        case Const(ConstSym("false", 0, 1), Nil()):
            return (second,)
    return None


def default_registry() -> DeltaRegistry:
    return DeltaRegistry({
        "+": _delta_arith(lambda a, b: a + b),
        "mul": _delta_arith(lambda a, b: a * b),
        "if": _delta_if,
    })


DEFAULT_REGISTRY = default_registry()


@dataclass(frozen=True)
class RunResult:
    status: str  # 'done', 'stuck', 'fuel'
    memory: Memory
    steps: int
    state: Optional[MachineState] = None
    reason: Optional[str] = None

    @property
    def final(self) -> Memory:
        if self.status != "done":
            raise ValueError(f"run did not terminate: {self.status} ({self.reason})")
        return self.memory


# -- the environment machine ---------------------------------------------------
#
# Stack elements and suspended code are closures: a term with an environment
# for its free variables.  An environment is None or a persistent linked
# binding (name, closure, rest), newest binding first.  A pop extends the
# environment instead of substituting, and a sequence variable enters the
# closure bound to it, saving the rest of its own code on a continuation
# stack.  Entering a closure and resuming a continuation are not transitions,
# so a run counts exactly the push, pop and constant steps of the calculus.
# For a given program its time is linear in them: a push or pop takes
# constant time, and a lookup walks at most the binders that enclose the
# variable in the program.  Closures are read back into terms only where a
# result leaves the machine, and for the inputs of a constant rule.

Closure = tuple  # (Term, Env)
Env = Optional[tuple]  # (name, Closure, Env)


def _lookup(env: Env, name: str) -> Optional[Closure]:
    while env is not None:
        if env[0] == name:
            return env[1]
        env = env[2]
    return None


def _readback(term: Term, env: Env) -> Term:
    """The term a closure stands for: its free variables replaced by the
    values their newest bindings hold."""
    if env is None:
        return term
    todo = free_vars(term)
    values: dict[str, Term] = {}
    while todo and env is not None:
        name, (value, value_env), env = env
        if name in todo:
            todo = todo - {name}
            values[name] = _readback(value, value_env)
    if len(values) > 1 and any(free_vars(v) & values.keys() for v in values.values()):
        # A value from the initial memory may be open; rename the bound names
        # apart first so that one replacement cannot reach into another.
        avoid = set(free_vars(term)).union(values, *map(free_vars, values.values()))
        for name in list(values):
            fresh = fresh_name(name, avoid)
            avoid.add(fresh)
            term = substitute(var(fresh), name, term)
            values[fresh] = values.pop(name)
    for name, value in values.items():
        term = substitute(value, name, term)
    return term


def _stack(stack: list[Closure]) -> tuple[Term, ...]:
    return tuple([t if e is None else _readback(t, e) for t, e in stack])


def _memory(stacks: dict[Location, list[Closure]]) -> Memory:
    return {loc: _stack(stack) for loc, stack in stacks.items()}


def _code(code: Term, env: Env, kont: list[Closure]) -> Term:
    """The code as one term: the current closure, then every saved
    continuation, innermost first."""
    term = None
    for t, e in kont + [(code, env)]:
        t = _readback(t, e)
        term = t if term is None else compose(t, term)
    return term


def _run(memory: Memory, code: Term, delta: DeltaRegistry, fuel: int,
         observe: Optional[Callable] = None) -> RunResult:
    """The one run loop.  `observe`, if given, is called after every step
    with the stacks, the location the step changed, and the code."""
    stacks: dict[Location, list[Closure]] = {
        loc: [(t, None) for t in stack] for loc, stack in memory.items()}
    env: Env = None
    kont: list[Closure] = []
    steps = 0
    while steps < fuel:
        kind = type(code)
        if kind is Push:
            arg, loc = code.arg, code.loc
            closure = None
            if type(arg) is SeqVar and type(arg.cont) is Nil:  # [x] pushes x's closure
                closure = _lookup(env, arg.var)
            stack = stacks.get(loc)
            if stack is None:
                stack = stacks[loc] = []
            stack.append(closure or (arg, env))
            code = code.cont
        elif kind is Pop:
            loc = code.loc
            stack = stacks.get(loc)
            if not stack:
                return _stopped("stuck", stacks, code, env, kont, steps, f"PopOnEmpty {loc.name}")
            env = (code.var, stack.pop(), env)
            code = code.cont
        elif kind is SeqVar:
            closure = _lookup(env, code.var)
            if closure is None:
                return _stopped("stuck", stacks, code, env, kont, steps, f"FreeVariable {code.var}")
            if type(code.cont) is not Nil:
                kont.append((code.cont, env))
            code, env = closure
            continue
        elif kind is Nil:
            if not kont:
                return RunResult("done", _memory(stacks), steps)
            code, env = kont.pop()
            continue
        elif kind is Const:
            sym = code.sym
            fn = delta.lookup(sym)
            if fn is None:
                return _stopped("stuck", stacks, code, env, kont, steps, f"DeltaUndefined {sym.name}")
            stack = stacks.get(MAIN, [])
            arity = sym.arity_in
            if len(stack) < arity:
                return _stopped("stuck", stacks, code, env, kont, steps, f"DeltaUnderflow {sym.name}")
            inputs = tuple([t if e is None else _readback(t, e) for t, e in stack[len(stack) - arity:]])
            outputs = fn(*reversed(inputs))  # top of stack first
            if outputs is None:
                return _stopped("stuck", stacks, code, env, kont, steps,
                                f"DeltaUndefined {sym.name} {inputs}")
            del stack[len(stack) - arity:]
            stack.extend((t, None) for t in outputs)
            loc = MAIN
            stacks[loc] = stack
            code = code.cont
        else:
            raise TypeError(code)
        steps += 1
        if observe is not None:
            observe(stacks, loc, code, env, kont)
    return _stopped("fuel", stacks, code, env, kont, steps, None)


def _stopped(status: str, stacks, code: Term, env: Env, kont: list[Closure],
             steps: int, reason: Optional[str]) -> RunResult:
    memory = _memory(stacks)
    return RunResult(status, memory, steps, MachineState(memory, _code(code, env, kont)), reason)


def step(state: MachineState, delta: DeltaRegistry = DEFAULT_REGISTRY) -> Union[Stepped, Terminal, Stuck]:
    """One transition of the machine."""
    result = _run(state.memory, state.code, delta, fuel=1)
    if result.status == "done":
        return Terminal(state.memory)
    if result.status == "stuck":
        return Stuck(state, result.reason)
    return Stepped(result.state)


def run(memory: Memory, t: Term, delta: DeltaRegistry = DEFAULT_REGISTRY,
        fuel: int = 10**6) -> RunResult:
    if free_vars(t):
        raise ValueError(f"cannot run open term (free: {sorted(free_vars(t))})")
    return _run(memory, t, delta, fuel)


def trace(memory: Memory, t: Term, delta: DeltaRegistry = DEFAULT_REGISTRY,
          fuel: int = 10**6) -> tuple[list[MachineState], RunResult]:
    """All states of the run, initial state first."""
    if free_vars(t):
        raise ValueError(f"cannot trace open term (free: {sorted(free_vars(t))})")
    states = [MachineState(dict(memory), t)]

    def observe(stacks, loc, code, env, kont):
        memory = {**states[-1].memory, loc: _stack(stacks[loc])}
        states.append(MachineState(memory, _code(code, env, kont)))

    return states, _run(memory, t, delta, fuel, observe)


def trace_lines(states: list[MachineState], initial_order: Optional[list[Location]] = None) -> list[str]:
    """Render states as `loc = stack | ... || code` lines, top rightmost."""
    from .parser import format_memory, print_term

    order: list[Location] = list(initial_order or [])
    seen = set(order)
    for st in states:
        for loc in sorted(st.memory, key=lambda l: l.name):
            if loc not in seen and (st.memory.get(loc) or loc.is_main()):
                order.append(loc)
                seen.add(loc)
        for loc in sorted(locations_of(st.code), key=lambda l: l.name):
            if loc not in seen:
                order.append(loc)
                seen.add(loc)
    if MAIN not in seen:
        order.append(MAIN)
    lines = []
    for st in states:
        lines.append(f"{format_memory(st.memory, order, sep=' | ')} || {print_term(st.code)}")
    return lines
