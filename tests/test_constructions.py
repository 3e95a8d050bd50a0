"""Every construction holds only what its initial state reaches."""

import random

import pytest

from gfgpda import zoo
from gfgpda.closure import MODES, product
from gfgpda.games import (
    Player1Wins,
    build_pd,
    gs_to_pushdown_game,
    make_universality_spec,
    synthesize_strategy_pdt,
)
from gfgpda.resolvers import determinize_moore
from helpers import copycat_spec, cycle_dpa, eps_block_spec, pq_drain_spec, random_spec


def _unreached(states, initial, edges) -> set:
    """The states that no path of ``(source, target)`` edges from
    ``initial`` visits."""
    succ: dict = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen, todo = {initial}, [initial]
    while todo:
        for v in succ.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return set(states) - seen


def _automaton(pda) -> set:
    return _unreached(pda.states, pda.initial, [(t.source, t.target) for t in pda.transitions])


def _specs():
    base = random.Random(940)
    return [copycat_spec(), pq_drain_spec(), eps_block_spec(),
            make_universality_spec(zoo.figure1().automaton)] + [
        random_spec(base) for _ in range(30)]


def _products():
    for fx in zoo.all_fixtures():
        for mode in MODES:
            yield product(fx.automaton, cycle_dpa(fx.automaton.input_alphabet), mode)


def _determinized():
    for name in ("example23", "figure1"):
        fx = zoo.get(name)
        yield determinize_moore(fx.automaton, fx.resolver)


def _block_automata():
    for spec in _specs():
        yield build_pd(spec)[0]


def _arenas():
    for spec in _specs():
        pd, info = build_pd(spec)
        game = gs_to_pushdown_game(pd, info)
        yield _unreached(game.states, game.initial, [(m.source, m.target) for m in game.moves])


def _strategies():
    for spec in _specs():
        try:
            m = synthesize_strategy_pdt(spec, budget=5_000).machine
        except Player1Wins:
            continue
        yield _unreached(m.states, m.initial, [(r.source, r.target) for r in m.transitions])


BUILDERS = {
    "product": lambda: map(_automaton, _products()),
    "determinize_moore": lambda: map(_automaton, _determinized()),
    "build_pd": lambda: map(_automaton, _block_automata()),
    "gs_to_pushdown_game": _arenas,
    "strategy_of": _strategies,
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_every_state_is_reachable_from_the_initial_one(builder):
    outputs = list(BUILDERS[builder]())
    assert len(outputs) >= 2
    assert [unreached for unreached in outputs if unreached] == []
