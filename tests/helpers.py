"""Shared game fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from collections import deque

from gfgpda.core import BOTTOM, LassoWord, OmegaPDA, Transition, step
from gfgpda.games import (
    ADAM,
    EVE,
    FiniteParityGame,
    GaleStewartSpec,
    pair_id,
)
from gfgpda.resolvers import Resolver


def random_pda(rng: random.Random) -> OmegaPDA:
    """Up to 3 states and 10 transitions; epsilon, swaps, pushes and pops mixed freely."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    letters = tuple("ab"[: rng.randint(1, 2)])
    stack = tuple("XY"[: rng.randint(1, 2)])
    ts = []
    for _ in range(rng.randint(3, 10)):
        src = rng.choice(states)
        top = rng.choice((BOTTOM,) + stack)
        label = rng.choice((None,) + letters)
        dst = rng.choice(states)
        if top == BOTTOM:
            push = rng.choice([(BOTTOM,), (BOTTOM, rng.choice(stack))])
        else:
            push = rng.choice([(), (rng.choice(stack),),
                               (rng.choice(stack), rng.choice(stack))])
        ts.append(Transition(src, top, label, dst, push, rng.randint(0, 3)))
    return OmegaPDA(states, letters, stack, states[0], tuple(ts))


def copycat_spec() -> GaleStewartSpec:
    """Eve wins by echoing: x after a, y after b."""
    sigma1, sigma2 = ("a", "b"), ("x", "y")
    letters = [pair_id(a1, a2) for a1 in sigma1 for a2 in sigma2]
    good = {("a", "x"), ("b", "y")}
    ts = tuple(
        Transition("s", BOTTOM, pair_id(a1, a2), "s", (BOTTOM,), 2)
        for a1 in sigma1
        for a2 in sigma2
        if (a1, a2) in good
    )
    cond = OmegaPDA(("s",), tuple(letters), (), "s", ts)
    pairing = {pair_id(a1, a2): (a1, a2) for a1 in sigma1 for a2 in sigma2}
    return GaleStewartSpec(sigma1, sigma2, cond, pairing, gfg_claimed=True)


def pq_drain_spec() -> GaleStewartSpec:
    """Eve wins by emitting p^n q^n p^omega; the condition counts on the stack."""
    sigma1, sigma2 = ("a",), ("p", "q")
    lp, lq = pair_id("a", "p"), pair_id("a", "q")
    ts = (
        Transition("rp", BOTTOM, lp, "rp", (BOTTOM, "N"), 1),
        Transition("rp", "N", lp, "rp", ("N", "N"), 1),
        Transition("rp", "N", lq, "rq", (), 1),
        Transition("rq", "N", lq, "rq", (), 1),
        Transition("rq", BOTTOM, lp, "rpw", (BOTTOM,), 1),
        Transition("rpw", BOTTOM, lp, "rpw", (BOTTOM,), 2),
    )
    cond = OmegaPDA(("rp", "rq", "rpw"), (lp, lq), ("N",), "rp", ts)
    pairing = {lp: ("a", "p"), lq: ("a", "q")}
    return GaleStewartSpec(sigma1, sigma2, cond, pairing, gfg_claimed=True)


def eps_block_spec() -> GaleStewartSpec:
    """Universal condition whose every run starts with an epsilon transition;
    exercises epsilon handling in blocks and in the delay transform."""
    sigma1, sigma2 = ("a",), ("z",)
    lz = pair_id("a", "z")
    ts = (
        Transition("u", BOTTOM, None, "v", (BOTTOM,), 0),
        Transition("v", BOTTOM, lz, "v", (BOTTOM,), 2),
    )
    cond = OmegaPDA(("u", "v"), (lz,), (), "u", ts)
    return GaleStewartSpec(sigma1, sigma2, cond, {lz: ("a", "z")}, gfg_claimed=True)


def random_finite_game(rng: random.Random) -> FiniteParityGame:
    n = rng.randint(3, 8)
    vertices = tuple(f"v{i}" for i in range(n))
    owner = {v: rng.choice((EVE, ADAM)) for v in vertices}
    edges = []
    for v in vertices:
        for _ in range(rng.randint(1, 2)):
            edges.append((v, rng.randint(0, 3), rng.choice(vertices)))
    return FiniteParityGame(vertices, owner, tuple(edges))


def _strategy_wins(g: FiniteParityGame, sigma: dict, v0) -> bool:
    """Does the positional Eve strategy win from v0 against every Adam play?"""
    succ: dict = {u: [] for u in g.vertices}
    for u, c, w in g.edges:
        succ[u].append((c, w))
    reach = {v0}
    queue = deque([v0])
    sub_edges = []
    while queue:
        u = queue.popleft()
        outs = succ[u]
        if g.owner[u] == EVE:
            if u not in sigma:
                return False  # Eve dead end reachable
            outs = [sigma[u]]
        elif not outs:
            continue  # Adam stuck: Eve wins this branch
        for c, w in outs:
            sub_edges.append((u, c, w))
            if w not in reach:
                reach.add(w)
                queue.append(w)
    for bad in sorted({c for _u, c, _w in sub_edges if c % 2}):
        small = [(u, c, w) for (u, c, w) in sub_edges if c <= bad]
        for u, c, w in small:
            if c == bad and _path_exists(small, w, u):
                return False
    return True


def _path_exists(edges, src, dst) -> bool:
    if src == dst:
        return True
    succ: dict = {}
    for u, _c, w in edges:
        succ.setdefault(u, set()).add(w)
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in succ.get(u, ()):
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def finite_game_oracle(g: FiniteParityGame, v0) -> str:
    """Winner at v0 by exhaustive enumeration of Eve's positional strategies."""
    succ: dict = {u: [] for u in g.vertices}
    for u, c, w in g.edges:
        succ[u].append((c, w))
    eve_vs = [v for v in g.vertices if g.owner[v] == EVE and succ[v]]

    def strategies(i: int, sigma: dict):
        if i == len(eve_vs):
            yield dict(sigma)
            return
        for choice in succ[eve_vs[i]]:
            sigma[eve_vs[i]] = choice
            yield from strategies(i + 1, sigma)
        sigma.pop(eve_vs[i], None)

    for sigma in strategies(0, {}):
        if _strategy_wins(g, sigma, v0):
            return EVE
    return ADAM


class MappedResolver(Resolver):
    """A base resolver transported along a transition bijection (by index),
    e.g. onto the letter-relabeled copy used in universality games."""

    def __init__(self, base: Resolver, base_pda: OmegaPDA, image_pda: OmegaPDA):
        self.base = base
        self.base_pda = base_pda
        self.fwd = dict(zip(base_pda.transitions, image_pda.transitions))
        self.bwd = dict(zip(image_pda.transitions, base_pda.transitions))
        self.letter_bwd = dict(zip(image_pda.input_alphabet, base_pda.input_alphabet))

    def start(self):
        return (self.base.start(), self.base_pda.initial_configuration())

    def feed(self, state, t):
        base_state, base_config = state
        bt = self.bwd[t]
        return (self.base.feed(base_state, bt), step(base_config, bt))

    def pick(self, state, config, letter):
        base_state, base_config = state
        return self.fwd[self.base.pick(base_state, base_config, self.letter_bwd[letter])]

    def summary(self, state):
        return self.base.summary(state[0])


def mapped_resolver(base, base_pda, image_pda) -> MappedResolver:
    return MappedResolver(base, base_pda, image_pda)


def random_adam_lassos(rng: random.Random, sigma1, count: int) -> list[LassoWord]:
    out = []
    for _ in range(count):
        u = tuple(rng.choice(sigma1) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(sigma1) for _ in range(rng.randint(1, 3)))
        out.append(LassoWord(u, v))
    return out
