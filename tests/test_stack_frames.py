"""Configurations keep their stack as a persistent frame chain.

Every observable of a configuration is checked against a plain tuple model of
the stack, on seeded random runs of every zoo fixture and on deterministic
pushdown machines; deep stacks and tail sharing are checked structurally.
"""

import random
import sys

import pytest

from gfgpda import zoo
from gfgpda.core import (
    BOTTOM, Configuration, Transition, enabled, is_deterministic, replay, step,
)
from gfgpda.resolvers import (
    DetPushdown,
    determinize_moore,
    moore_as_pdt,
    run_on_prefix,
)

FIXTURES = [fx.name for fx in zoo.all_fixtures()]


def model_step(state, stack, rule):
    """The tuple model: a rule replaces the top symbol by its push word."""
    assert (rule.source, rule.top) == (state, stack[-1])
    return rule.target, stack[:-1] + rule.push


def assert_agrees(c, state, stack):
    ref = Configuration(state, stack)
    assert (c.state, c.stack, c.height, c.top) == (state, stack, len(stack) - 1, stack[-1])
    assert str(c) == repr(c) == f"({state}, {''.join(stack)})" == str(ref)
    assert c == ref and ref == c and hash(c) == hash(ref)


def random_walk(pda, rng, length):
    c, ts = pda.initial_configuration(), []
    for _ in range(length):
        options = enabled(pda, c)
        if not options:
            break
        ts.append(rng.choice(options))
        c = step(c, ts[-1])
    return ts


def modelled_run(pda, seed, length=60):
    """Configurations of a seeded random run with their tuple-model stacks."""
    run = replay(pda, random_walk(pda, random.Random(seed), length))
    state, stack = pda.initial, (BOTTOM,)
    out = [(run.configurations[0], state, stack)]
    for t, c in zip(run.transitions, run.configurations[1:]):
        state, stack = model_step(state, stack, t)
        out.append((c, state, stack))
    return out


def assert_equal_iff_model_equal(entries):
    for c, state, stack in entries:
        for d, state2, stack2 in entries:
            same = (state, stack) == (state2, stack2)
            assert (c == d) is same and (c != d) is not same
            if same:
                assert hash(c) == hash(d)


@pytest.mark.parametrize("name", FIXTURES)
def test_random_runs_agree_with_the_tuple_model(name):
    pda = zoo.get(name).automaton
    entries = []
    for seed in range(4):
        # Two runs built apart: equal configurations share no frames.
        entries += modelled_run(pda, seed) + modelled_run(pda, seed)
    for c, state, stack in entries:
        assert_agrees(c, state, stack)
    assert_equal_iff_model_equal(entries[::3])


def deterministic_machines():
    """Deterministic pushdown machines: a hand machine that pops to the bottom
    and pushes again by epsilon rules, a counter, determinized Moore
    resolvers, and deterministic zoo automata and resolvers as transducers."""
    yield "dips", DetPushdown(("s", "p", "r", "t", "u"), "s", ("X", "Y", "Z"), (
        Transition("s", BOTTOM, "a", "s", (BOTTOM, "Y", "X"), 0),
        Transition("s", "X", "a", "p", (), 0),
        Transition("p", "Y", None, "r", (), 0),
        Transition("r", BOTTOM, None, "s", (BOTTOM, "Z", "X"), 0),
        Transition("p", "Z", None, "t", ("Z",), 0),
        Transition("t", "Z", None, "u", ("Z", "X"), 0),
        Transition("u", "X", "a", "u", ("X",), 0),
    ))
    yield "counter", DetPushdown(("s",), "s", ("X",), (
        Transition("s", BOTTOM, "a", "s", (BOTTOM, "X"), 0),
        Transition("s", "X", "a", "s", ("X", "X"), 0),
        Transition("s", BOTTOM, "b", "s", (BOTTOM,), 0),
        Transition("s", "X", "b", "s", (), 0),
    ))
    for fx in zoo.all_fixtures():
        name, pda = fx.name, fx.automaton
        if hasattr(fx.resolver, "delta"):
            yield f"{name}-moore", moore_as_pdt(pda, fx.resolver).machine
            name, pda = f"det-{name}", determinize_moore(pda, fx.resolver)
        if is_deterministic(pda)[0]:
            yield name, DetPushdown(pda.states, pda.initial, pda.stack_alphabet, pda.transitions)


MACHINES = dict(deterministic_machines())


@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES.keys())
def test_consume_paths_agree_with_the_tuple_model(machine):
    symbols = sorted({r.label for r in machine.transitions if r.label is not None}, key=str)
    entries = []
    for seed in range(3):
        rng = random.Random(seed)
        c = Configuration(machine.initial, (BOTTOM,))
        state, stack = c.state, (BOTTOM,)
        for _ in range(40):
            enabled_symbols = [a for a in symbols if machine.rule_at(state, stack[-1], a)]
            if not enabled_symbols:
                break
            symbol = rng.choice(enabled_symbols)
            rule = machine.rule_at(state, stack[-1], symbol)
            before = c
            for c in machine.trail(before, symbol):
                state, stack = model_step(state, stack, rule)
                entries.append((c, state, stack))
                rule = machine.rule_at(state, stack[-1], None)
            assert machine.consume(before, symbol) == c
    for c, state, stack in entries:
        assert_agrees(c, state, stack)
    assert_equal_iff_model_equal(entries[::2])


def test_configurations_that_differ_deep_in_the_stack_are_unequal():
    pda = zoo.lss().automaton
    push = next(t for t in pda.transitions if t.top == "N" and t.push == ("N", "N"))
    low = Configuration("1", (BOTTOM, "N"))
    a, b = Configuration("1", (BOTTOM, "N", "N")), Configuration("1", (BOTTOM, "M", "N"))
    for _ in range(30):
        a, b = step(a, push), step(b, push)
    assert a != b and b != a and hash(a) != hash(b)
    assert a.height == b.height and a.top == b.top and a.stack[2:] == b.stack[2:]
    assert step(low, push) == Configuration("1", (BOTTOM, "N", "N"))
    assert Configuration(a.state, a.frame) == a
    assert Configuration("2", a.frame) != a


DEEP = 50_000


def deep_lss_configuration():
    pda = zoo.lss().automaton
    first, push = (next(t for t in pda.transitions
                        if t.source == "1" and t.target == "1" and t.label == "(+,0)"
                        and t.top == top) for top in (BOTTOM, "N"))
    c = step(pda.initial_configuration(), first)
    for _ in range(DEEP - 1):
        c = step(c, push)
    return c


def test_a_deep_stack_hashes_compares_and_prints_without_recursion():
    limit = sys.getrecursionlimit()
    c, d = deep_lss_configuration(), deep_lss_configuration()
    copy = Configuration("1", (BOTTOM,) + ("N",) * DEEP)
    assert c.height == DEEP and c.top == "N"
    assert c == d == copy and hash(c) == hash(d) == hash(copy)
    assert c.stack == copy.stack and len(c.stack) == DEEP + 1
    assert str(c) == "(1, _" + "N" * DEEP + ")"
    assert c != Configuration("1", (BOTTOM,) + ("N",) * (DEEP - 1) + ("M",))
    assert sys.getrecursionlimit() == limit


def test_steps_share_the_frames_below_what_they_push():
    pda = zoo.example23().automaton
    c = Configuration("q1", (BOTTOM, "A", "N"))
    pop = next(t for t in pda.transitions if (t.source, t.top, t.push) == ("q1", "N", ()))
    assert step(c, pop).frame is c.frame.below
    kept = step(c, Transition("q1", "N", "c", "q1", ("N",), 1))
    assert kept.frame is c.frame
    replaced = step(c, Transition("q1", "N", "c", "q1", ("A",), 1))
    assert replaced.frame.below is c.frame.below and replaced.top == "A"
    pushed = step(c, Transition("q1", "N", "c", "q1", ("N", "A"), 1))
    assert pushed.frame.below is c.frame and pushed.top == "A"


def frames_of(configurations):
    """Distinct frames reachable from the configurations, counted by identity."""
    seen = set()
    for c in configurations:
        f = c.frame
        while f is not None and id(f) not in seen:
            seen.add(id(f))
            f = f.below
    return len(seen)


@pytest.mark.parametrize("n", [256, 1024])
def test_a_guided_run_makes_at_most_two_frames_per_letter(n):
    # Push, push, pop, replace: the stack grows by one every four letters.
    pda = zoo.lss().automaton
    word = ("(+,0)", "(+,-)", "(-,0)", "(0,+)") * (n // 4)
    g = run_on_prefix(pda, zoo.LssResolver(pda), word)
    assert len(g.run.transitions) == n and g.run.last.height == n // 4
    assert {len(t.push) for t in g.run.transitions} == {0, 1, 2}
    assert frames_of(g.run.configurations) <= 2 * n


def test_a_stack_without_symbols_is_refused():
    # A transducer rule that pops the bottom, as a strategy file may hold one.
    machine = DetPushdown(("s",), "s", (), (Transition("s", BOTTOM, "a", "s", (), 0),))
    with pytest.raises(ValueError, match="at least one symbol"):
        machine.consume(Configuration(machine.initial, (BOTTOM,)), "a")
    with pytest.raises(ValueError, match="at least one symbol"):
        Configuration("s", ())
