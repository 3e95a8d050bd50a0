"""Seeded inputs for the benchmark workloads.

Two kinds of input come from here:

* words and specifications drawn afresh from the run seed (the zoo samplers'
  words, the adversary lassos), which are many and cheap each;
* renamed copies of a fixed base corpus (the membership doubling series, the
  random Gale-Stewart specifications and the random pushdown games).  The
  run seed permutes the names of states, stack symbols and letters and
  shuffles the declaration order, so each seed gives different input text
  with the same structure.  The lss words of the guided workload are fixed
  too (the seed only orders them): the lss resolver reads letter names, so
  they cannot be renamed.  A few of these inputs cost most of a pass (the
  |u| = 64 lasso, the games that exhaust the vertex budget), and drawing them
  afresh moved a pass's time by 2x from seed to seed; renamed copies keep
  every hard instance in every run.

Everything here uses only the program's public types; the inputs reach the
program as text through its public parsers.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

# Fixed seeds of the base corpora.  PUSHDOWN_BASE_SEED is the one the roadmap
# names for the random pushdown-game corpus.
PUSHDOWN_BASE_SEED = 1
SPEC_BASE_SEED = 940
SERIES_BASE_SEED = 12345
VERIFY_BASE_SEED = 2024


def permutation(rng: random.Random, names) -> dict:
    """A seeded bijection of ``names`` onto themselves."""
    names = list(names)
    image = names[:]
    rng.shuffle(image)
    return dict(zip(names, image))


def rename_pda(api: SimpleNamespace, pda, rng: random.Random, letters=None):
    """Isomorphic copy of ``pda``: states, stack symbols and (unless a letter
    map is given) letters permuted, transitions shuffled.

    Returns ``(copy, transition_map, letter_map, stack_map)``;
    ``transition_map`` sends each original transition to its image.
    """
    core = api.core
    states = permutation(rng, pda.states)
    stack = permutation(rng, pda.stack_alphabet)
    stack[core.BOTTOM] = core.BOTTOM
    if letters is None:
        letters = permutation(rng, pda.input_alphabet)
    tmap = {
        t: core.Transition(
            states[t.source], stack[t.top],
            None if t.label is None else letters[t.label],
            states[t.target], tuple(stack[x] for x in t.push), t.color,
        )
        for t in pda.transitions
    }
    order = list(pda.transitions)
    rng.shuffle(order)
    copy = core.OmegaPDA(
        tuple(states[q] for q in pda.states),
        tuple(letters[a] for a in pda.input_alphabet),
        tuple(stack[x] for x in pda.stack_alphabet),
        states[pda.initial],
        tuple(tmap[t] for t in order),
    )
    return copy, tmap, letters, stack


def rename_word(api: SimpleNamespace, w, letters: dict):
    return api.core.LassoWord(
        tuple(letters[a] for a in w.prefix), tuple(letters[a] for a in w.loop)
    )


def rename_moore(api: SimpleNamespace, m, tmap: dict, letters: dict, stack: dict):
    """The Moore resolver ``m`` carried along a renaming of its automaton."""
    return api.resolvers.MooreResolver(
        m.states,
        m.initial,
        {(s, tmap[t]): s2 for (s, t), s2 in m.delta.items()},
        {(s, letters[a], stack[x]): tmap[t] for (s, a, x), t in m.output.items()},
    )


# ---------------------------------------------------------------------------
# Random Gale-Stewart specifications (the shape used by the game tests).
# ---------------------------------------------------------------------------


def random_spec(api: SimpleNamespace, rng: random.Random):
    """sigma1 = {a, b}, sigma2 = {x, y}, 1-4 states, optional stack symbol N,
    colors 0..3; about a third of the (state, letter) pairs have no move."""
    core, games = api.core, api.games
    sigma1, sigma2 = ("a", "b"), ("x", "y")
    letters = [games.pair_id(a, b) for a in sigma1 for b in sigma2]
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    stack = ("N",) if rng.random() < 0.6 else ()
    ts = []
    for q in states:
        for letter in letters:
            if rng.random() < 0.35:
                continue
            for top in (core.BOTTOM,) + stack:
                if rng.random() < 0.2:
                    continue
                kind = rng.randrange(3)
                if not stack:
                    push = (top,)
                elif kind == 0:
                    push = (top,) if top == core.BOTTOM else ()
                elif kind == 1:
                    push = (top, "N")
                else:
                    push = (top,)
                ts.append(core.Transition(q, top, letter, rng.choice(states), push,
                                          rng.randint(0, 3)))
    cond = core.OmegaPDA(states, tuple(letters), stack, states[0], tuple(ts))
    pairing = {games.pair_id(a, b): (a, b) for a in sigma1 for b in sigma2}
    return games.GaleStewartSpec(sigma1, sigma2, cond, pairing, True)


def rename_spec(api: SimpleNamespace, spec, rng: random.Random):
    """Isomorphic copy of a specification: both players' letters permuted
    (and the condition letters with them), states and stack renamed."""
    games = api.games
    p1 = permutation(rng, spec.sigma1)
    p2 = permutation(rng, spec.sigma2)
    letters = {
        letter: games.pair_id(p1[a1], p2[a2]) for letter, (a1, a2) in spec.pairing.items()
    }
    cond = rename_pda(api, spec.condition, rng, letters)[0]
    pairing = {letters[c]: (p1[a1], p2[a2]) for c, (a1, a2) in spec.pairing.items()}
    return games.GaleStewartSpec(spec.sigma1, spec.sigma2, cond, pairing, spec.gfg_claimed)


# ---------------------------------------------------------------------------
# Random pushdown parity games: 6 states, 3 stack symbols, 30 moves, colors 0..4.
# ---------------------------------------------------------------------------


def random_pushdown_game(api: SimpleNamespace, rng: random.Random):
    games, bottom = api.games, api.core.BOTTOM
    states = tuple(f"p{i}" for i in range(6))
    syms = ("A", "B", "C")
    owner = {s: rng.choice((games.EVE, games.ADAM)) for s in states}
    moves = []
    for _ in range(30):
        src = rng.choice(states)
        top = rng.choice((bottom,) + syms)
        kind = rng.randrange(3)
        if top == bottom:
            push = (bottom,) if kind == 0 else (bottom, rng.choice(syms))
        else:
            push = () if kind == 0 else ((top,) if kind == 1 else (top, rng.choice(syms)))
        moves.append(games.GameMove(src, top, rng.choice(states), push, rng.randint(0, 4)))
    return games.PushdownParityGame(states, syms, states[0], owner, tuple(moves))


def rename_pushdown_game(api: SimpleNamespace, g, rng: random.Random):
    games, bottom = api.games, api.core.BOTTOM
    sm = permutation(rng, g.states)
    km = permutation(rng, g.stack_alphabet)
    km[bottom] = bottom
    moves = [
        games.GameMove(sm[m.source], km[m.top], sm[m.target], tuple(km[x] for x in m.push),
                       m.color)
        for m in g.moves
    ]
    rng.shuffle(moves)
    return games.PushdownParityGame(
        tuple(sm[s] for s in g.states), tuple(km[x] for x in g.stack_alphabet),
        sm[g.initial], {sm[s]: o for s, o in g.owner.items()}, tuple(moves),
    )


def random_lasso(api: SimpleNamespace, rng: random.Random, letters, prefix_max: int,
                 loop_max: int):
    u = tuple(rng.choice(letters) for _ in range(rng.randint(0, prefix_max)))
    v = tuple(rng.choice(letters) for _ in range(rng.randint(1, loop_max)))
    return api.core.LassoWord(u, v)
