"""Gale-Stewart games with pushdown winning conditions.

Pipeline: a condition automaton over paired letters is compiled into a
deterministic block-reading automaton (``build_pd``) that consumes both an
input word and a claimed run of the condition, moving all nondeterminism
into Player 2's letter choices; a deterministic epsilon-free condition has
no run to claim and is its own block automaton (``_own_pd``).  One table,
``PdInfo.rounds``, reads each letter of the block automaton as its round
``(x1, y)`` of Adam's and Eve's letters.  The game reduces to a parity game
on the configuration graph of a pushdown machine with two vertex kinds per
round (``gs_to_pushdown_game``): Adam picks a letter, then Eve takes the
block automaton's transition on a round of that letter; each move carries
the letter it picks.  It is solved exactly in two phases.  Interval
iteration on the height-truncated arenas of heights 1 to 3 comes first:
out-of-bound edges lead to a dead end owned by either player in turn, and
agreement of the two bounds is conclusive for the full game.
If these are inconclusive, Walukiewicz's claim game decides: a push makes
Eve claim where and with which max color the pushed frame returns, and Adam
either checks the claim above or takes one of its returns.  Both arenas are
numbered on dense int ids by ``core.explore`` under one vertex budget and
solved by Zielonka's algorithm with attractors to edges, no vertex added
(``solve_parity_ids``); ``FiniteParityGame`` is only the public API for
finite games.  Eve's choices in the phase that decided are one map, which
one builder (``_strategy_pdt``) packages as a pushdown transducer for the
original game (``strategy_of`` a solved game): positional ones from a
truncation keep the transducer's stack unused, claim-game ones push a
context per stack frame.  Where the block game builds the condition's run,
a state also stores Eve's letter until the block completes, the paper's
delay.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from .core import (
    BOTTOM,
    Configuration,
    FormatError,
    GuardExceeded,
    LassoDetector,
    LassoWord,
    OmegaPDA,
    PdaError,
    Record,
    ResourceExceeded,
    TokenValues,
    Transition,
    _push_fault,
    explore,
    format_pda,
    is_deterministic,
    pair_id,
    pda_declarations,
    push_from_text,
    push_to_text,
    read_declarations,
    replay,
)
from .analysis import _saturate
from .resolvers import DetPushdown, Resolver, resolver_query

EVE = "eve"
ADAM = "adam"
# A solve over its budget raises ``ResourceExceeded`` in ``core.explore``;
# callers of the solvers catch it from this module.
ResourceExceeded = ResourceExceeded


class Player1Wins(PdaError):
    """Synthesis was asked for a specification that Player 2 does not win."""


# ---------------------------------------------------------------------------
# Game specifications.
# ---------------------------------------------------------------------------


class GaleStewartSpec(Record):
    """Player 1 picks from sigma1, Player 2 from sigma2; Player 2 wins iff the
    paired outcome is in the condition language."""

    sigma1: tuple[str, ...]
    sigma2: tuple[str, ...]
    condition: OmegaPDA
    pairing: dict[str, tuple[str, str]]  # condition letter -> (a1, a2)
    gfg_claimed: bool = False

    def validate(self) -> list[str]:
        out = []
        letters, pairs = set(self.condition.input_alphabet), set()
        for letter, pair in self.pairing.items():
            if letter not in letters:
                out.append(f"pairing letter {letter!r} not in the condition alphabet")
            if pair in pairs:
                out.append(f"pair {pair} mapped twice")
            pairs.add(pair)
        if pairs != {(a1, a2) for a1 in self.sigma1 for a2 in self.sigma2}:
            out.append("pairing does not cover sigma1 x sigma2 exactly")
        if letters != set(self.pairing):
            out.append("condition alphabet and pairing domain differ")
        return out


def make_universality_spec(pda: OmegaPDA, gfg_claimed: bool = True) -> GaleStewartSpec:
    """Universality of L as the game over {(w, #^omega) : w in L}, with the
    automaton itself as the condition: each letter ``a`` names the pair
    ``(a, "#")``, so a play's ``pair_id`` letters are read through
    ``spec.pairing``."""
    pairing = {a: (a, "#") for a in pda.input_alphabet}
    return GaleStewartSpec(pda.input_alphabet, ("#",), pda, pairing, gfg_claimed)


# ---------------------------------------------------------------------------
# The deterministic block automaton P_d.
# ---------------------------------------------------------------------------


class PdInfo(Record):
    sigma1: tuple[str, ...]
    sigma2: tuple[str, ...]
    transition_ids: dict[Transition, str]
    rounds: dict[str, tuple[str, str]]  # block automaton letter -> (x1, y)

    @property
    def y_values(self) -> tuple[str, ...]:
        return self.sigma2 + tuple(self.transition_ids.values())

    @cached_property
    def transition_of(self) -> dict[str, Transition]:
        """The condition transition of each transition id."""
        return {tid: t for t, tid in self.transition_ids.items()}


def build_pd(spec: GaleStewartSpec) -> tuple[OmegaPDA, PdInfo]:
    """Deterministic automaton over sigma1 x (sigma2 + transitions) accepting
    exactly the well-formed block encodings of accepted (word, run) pairs.

    Pair reads carry color 0, raw run-construction reads color 1, and
    block-completing reads flush the block's accumulated max color shifted up
    by 2; so inputs that eventually only construct the run (starving the
    word) have limsup 1 and are rejected, while completed-block inputs keep
    the parity of the simulated run.  Missing transitions dead-end the run,
    which rejects; no explicit sink is added.
    """
    cond = spec.condition
    tids: dict[Transition, str] = {}
    for i, t in enumerate(cond.transitions):
        tids.setdefault(t, f"t{i}")  # a repeated transition keeps its first id
    ys = spec.sigma2 + tuple(tids.values())
    info = _pd_info(spec, tids, {pair_id(x1, y): (x1, y) for x1 in spec.sigma1 for y in ys})
    letter_of = {pair: letter for letter, pair in spec.pairing.items()}

    def name(node) -> str:
        if node[0] == "await":
            return f"W({node[1]})"
        _, q, letter, acc = node
        return f"P({q};{letter};{'-' if acc is None else acc})"

    def bump(acc: Optional[int], c: int) -> int:
        return c if acc is None else max(acc, c)

    by_source: dict[str, list[Transition]] = {}
    for t in tids:
        by_source.setdefault(t.source, []).append(t)

    def expand(order):
        for u, node in enumerate(order):
            src = name(node)
            if node[0] == "await":
                for x1 in spec.sigma1:
                    for a2 in spec.sigma2:
                        nxt = ("pending", node[1], letter_of[(x1, a2)], None)
                        dst, letter = name(nxt), pair_id(x1, a2)
                        for x in cond.gamma_bottom:
                            yield u, 0, nxt, Transition(src, x, letter, dst, (x,), 0)
                continue
            _, q, cond_letter, acc = node
            for t in by_source.get(q, ()):
                if t.label is None:
                    nxt, color = ("pending", t.target, cond_letter, bump(acc, t.color)), 1
                elif t.label == cond_letter:
                    nxt, color = ("await", t.target), bump(acc, t.color) + 2
                else:
                    continue
                dst = name(nxt)
                for x1 in spec.sigma1:
                    yield u, color, nxt, Transition(src, t.top, pair_id(x1, tids[t]), dst,
                                                    t.push, color)

    order, _, transitions = explore(("await", cond.initial), expand)
    pd = OmegaPDA(tuple(map(name, order)), tuple(info.rounds), cond.stack_alphabet,
                  name(order[0]), tuple(transitions))
    return pd, info


def _pd_info(spec: GaleStewartSpec, tids: dict[Transition, str],
             rounds: dict[str, tuple[str, str]]) -> PdInfo:
    """The ``PdInfo`` of a block automaton; an invalid ``spec`` raises."""
    bad = spec.validate()
    if bad:
        raise ValueError("; ".join(bad))
    return PdInfo(spec.sigma1, spec.sigma2, tids, rounds)


def _own_pd(spec: GaleStewartSpec) -> tuple[OmegaPDA, PdInfo]:
    """A deterministic epsilon-free condition as its own block automaton: its
    rounds are the spec's pairing, and it has no transition ids, so no run is
    constructed."""
    return spec.condition, _pd_info(spec, {}, spec.pairing)


# ---------------------------------------------------------------------------
# Parity games: finite (Zielonka) and pushdown (truncations, then claims).
# ---------------------------------------------------------------------------


class FiniteParityGame(Record):
    vertices: tuple
    owner: dict  # vertex -> EVE | ADAM
    edges: tuple  # (source, color, target)


class FiniteSolveResult(Record):
    winning: dict  # player -> frozenset of vertices
    strategy: dict  # player -> {vertex: edge index}

    def winner_of(self, v) -> str:
        return EVE if v in self.winning[EVE] else ADAM


def solve_finite_parity_game(g: FiniteParityGame) -> FiniteSolveResult:
    """Zielonka on a finite game; vertices are indexed once and solved by
    ``solve_parity_ids``."""
    index = {v: i for i, v in enumerate(g.vertices)}
    wins, strats = solve_parity_ids(
        [g.owner[v] for v in g.vertices], [(index[u], c, index[v]) for u, c, v in g.edges]
    )
    return FiniteSolveResult(
        {p: frozenset(g.vertices[v] for v in wins[p]) for p in (EVE, ADAM)},
        {p: {g.vertices[v]: j for v, j in strats[p].items()} for p in (EVE, ADAM)},
    )


def solve_parity_ids(owner: list, edges: list) -> tuple[dict, dict]:
    """Zielonka on an edge-colored game over vertices ``0..n-1`` owned by
    ``owner[v]``, with edges ``(u, color, v)``: a claim game, or a truncation
    as explored, plus a last, paradise vertex only if an edge overflows.
    Returns per player the winning vertices and a map from each of its
    vertices there to the index of the edge it takes.  A subgame is a vertex
    set and a color bound, with the edges between its vertices up to the
    bound.  The ``k``-th dead end gets the self-loop edge ``len(edges) + k``,
    whose color loses for its owner, so no strategy takes it."""
    out: list[list] = [[] for _ in owner]
    inc: list[list] = [[] for _ in owner]
    top = edges[0][1] if edges else 0
    for j, (u, c, v) in enumerate(edges):
        out[u].append((c, v, j))
        inc[v].append((c, u, j))
        if c > top:
            top = c
    for j, v in enumerate([v for v, succ in enumerate(out) if not succ], len(edges)):
        out[v].append((top | 1 if owner[v] == EVE else top + top % 2, v, j))
    for succ in out:
        succ.sort(reverse=True)
    stack = [_zielonka(set(range(len(owner))), top + 1, out, inc, owner)]
    result = None
    while stack:
        try:
            sub, bound = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_zielonka(sub, bound, out, inc, owner))
            result = None
    return result


def _attractor(player, sub, bound, out, inc, owner, targets, strat):
    """The vertices of the subgame ``(sub, bound)`` from which ``player``
    forces a visit to ``targets``, and ``strat`` with the edge that each of
    ``player``'s vertices there takes.  An opponent vertex joins once all
    its subgame edges lead into the attractor."""
    attracted = set(targets)
    counts: dict = {}
    queue = list(attracted)
    for u in queue:  # grows as vertices join
        for c, v, j in inc[u]:
            if c > bound or v in attracted or v not in sub:
                continue
            if owner[v] == player:
                strat[v] = j
            elif len(out[v]) > 1:  # else its one edge leads into the attractor
                if (k := counts.get(v)) is None:  # count its subgame edges
                    k = 0
                    for e, w, _ in out[v]:
                        if e <= bound and w in sub:
                            k += 1
                counts[v] = k - 1
                if k > 1:
                    continue
            attracted.add(v)
            queue.append(v)
    return attracted, strat


def _zielonka(sub, bound, out, inc, owner):
    """Winning regions and strategies on the subgame ``(sub, bound)``, which
    has no dead end.  The player ``p`` of its top color ``d`` attracts to
    the edges of color ``d``.  The rest, with bound ``d - 1``, is a trap for
    ``p`` without a dead end; unless it is empty, where ``p`` wins ``sub``,
    it is yielded and the caller sends its result back, so nesting lives on
    the caller's list, not the Python stack.  What is left after peeling the
    opponent's attractor to their wins there is solved by the loop."""
    wins_all: dict = {EVE: set(), ADAM: set()}
    strats_all: dict = {EVE: {}, ADAM: {}}
    while sub:
        d, top = float("-inf"), []
        for v in sub:
            for c, w, j in out[v]:  # colors descending
                if c < d:
                    break
                if c <= bound and w in sub:
                    if c > d:
                        d, top = c, []
                    top.append((v, j))
                    break
        p = EVE if d % 2 == 0 else ADAM
        opp = ADAM if p == EVE else EVE
        strat, targets = {}, []
        for v, j in top:
            if owner[v] == p:
                strat[v] = j
                targets.append(v)
                continue
            for e, w, _ in out[v]:  # the opponent joins if held to color d
                if e < d and w in sub:
                    break
            else:
                targets.append(v)
        region, rstrat = _attractor(p, sub, d - 1, out, inc, owner, targets, strat)
        wins, strats = (yield rest, d - 1) if (rest := sub - region) else ({opp: ()}, {p: {}})
        if not wins[opp]:
            wins_all[p] |= sub
            strats_all[p] |= strats[p] | rstrat
            break
        region2, bstrat = _attractor(opp, sub, d, out, inc, owner, wins[opp], {})
        wins_all[opp] |= region2
        strats_all[opp] |= strats[opp] | bstrat
        sub = sub - region2
    return wins_all, strats_all


class GameMove(NamedTuple):  # a tuple, so that arenas build their moves fast
    source: Any
    top: str
    target: Any
    push: tuple[str, ...]
    color: int
    letter: Optional[str] = None  # the letter a Gale-Stewart arena's move picks


class PushdownParityGame(Record):
    """Pushdown system plus owners; dead ends lose for their owner.  Its
    build checks each distinct ``(top, push)`` once by ``core._push_fault``;
    the first move that breaks it raises ``ValueError`` with the fault."""

    states: tuple
    stack_alphabet: tuple[str, ...]
    initial: Any
    owner: dict
    moves: tuple[GameMove, ...]

    def __post_init__(self):
        stack = set(self.stack_alphabet)
        if any(_push_fault(top, push, stack) for top, push in {(m.top, m.push) for m in self.moves}):
            for m in self.moves:
                if fault := _push_fault(m.top, m.push, stack):
                    raise ValueError(f"malformed move {m}: {fault}")

    @cached_property
    def moves_at(self) -> dict:
        idx: dict = {}
        for m in self.moves:
            idx.setdefault((m.source, m.top), []).append(m)
        return idx


class PushdownSolveResult(Record):
    """The winner from the initial configuration.  ``stats`` holds the
    vertices numbered in both phases, the height of the highest truncation
    solved (0 if none), ``decided_by`` (``"truncation"`` or ``"claims"``)
    and the claim game's vertices (0 if it was not built); ``claim_game`` is
    set if it decided.  On an Eve win, ``eve_strategy`` maps her vertices in
    the deciding phase to her GameMoves, and claim vertices to her claims."""

    winner: str
    eve_strategy: Optional[dict]
    stats: dict
    claim_game: Optional[ClaimGame] = None


TRUNCATION_HEIGHTS = (1, 2, 3)


def solve_pushdown_parity_game(
    game: PushdownParityGame, budget: int = 5_000_000
) -> PushdownSolveResult:
    """Exact solving in two phases, with one vertex budget.

    First, interval iteration on the truncations at heights 1, 2 and 3 (see
    ``_solve_truncation``).  These low truncations are the fast path: they
    decide most games in a few small arenas, where the claim game of the
    same game can be far larger.  If they are inconclusive, the winner is
    the winner of ``ClaimGame`` (Walukiewicz), built lazily from the initial
    vertex as ``solve_claim_game`` does.  Both phases number their vertices with
    ``core.explore``, which counts them against the budget as they are
    numbered, so ``ResourceExceeded`` comes after at most budget + 1 of them.
    ``stats["decided_by"]`` says which phase decided.
    """
    total = 0
    for height in TRUNCATION_HEIGHTS:
        result, total = _solve_truncation(game, height, total, budget)
        if result is not None:
            return result
    result = solve_claim_game(game, budget, total)
    result.stats["height"] = TRUNCATION_HEIGHTS[-1]
    return result


def _solve_truncation(
    game: PushdownParityGame, height: int, total: int, budget: int
) -> tuple[Optional[PushdownSolveResult], int]:
    """The truncation at ``height``: its result if conclusive, and ``total``
    plus its vertices.  Its configurations are numbered once by ``explore``,
    where a successor above ``height`` is ``None``.  With no such edge the
    truncation is the game, solved once.  Else they point at a paradise id,
    ``len(order)``, a dead end owned by one player at a time, so it loses
    for them: a player winning the truncation pessimistic for them wins the
    game.  Eve's goes first; if Adam's winning strategy there never reaches
    the paradise, it wins his too."""
    moves_at = game.moves_at

    def expand(order):
        for u, (state, stack) in enumerate(order):
            for m in moves_at.get((state, stack[-1]), ()):
                nstack = stack[:-1] + m.push
                yield u, m.color, (m.target, nstack) if len(nstack) <= height + 1 else None, m

    order, edges, edge_moves = explore((game.initial, (BOTTOM,)), expand, budget, total)
    total += len(order)
    stats = {"vertices": total, "height": height, "decided_by": "truncation",
             "claim_vertices": 0}
    owner = [game.owner[state] for state, _ in order]
    paradise = len(order)
    if not (whole := all(v is not None for _, _, v in edges)):
        edges = [(u, c, paradise if v is None else v) for u, c, v in edges]
    for player in (EVE, ADAM):
        wins, strats = solve_parity_ids(owner if whole else owner + [player], edges)
        winner = EVE if 0 in wins[EVE] else ADAM
        if whole or winner == player or player == EVE and not _reaches(paradise, edges, strats[ADAM]):
            strat = ({order[v]: edge_moves[j] for v, j in strats[EVE].items()}
                     if winner == EVE else None)
            return PushdownSolveResult(winner, strat, stats), total
    return None, total


def _reaches(goal: int, edges: list, strat: dict) -> bool:
    """Does a play from vertex 0 reach ``goal`` if the vertices of ``strat``
    take its edges and the others any edge?  Passes over ``edges`` to a fixpoint."""
    seen, size = {0}, 0
    while size < len(seen):
        size = len(seen)
        seen.update(v for j, (u, _, v) in enumerate(edges) if u in seen and strat.get(u, j) == j)
    return goal in seen


class ClaimGame:
    """Walukiewicz's claim game of a pushdown parity game (CAV'96), with the
    claims drawn from pop summaries.

    A main vertex ``("v", p, X, R, m)`` is owned by the owner of ``p``: ``R``
    is the claim of the current stack frame, a tuple of pairs ``(r, c)``
    "the frame pops to ``r`` with max color ``c``", and ``m`` is the max
    color since the frame began (-1 at its start and whenever ``R`` is
    empty, where it cannot matter).  A swap updates ``X`` and ``m``.  A pop
    of color ``c`` to ``r`` ends the play: Eve wins iff
    ``(r, max(m, c))`` is in ``R``.  A push ``(q, Y Z)`` leads to a claim
    vertex ``("e", q, Y, Z, R, m)``, where Eve claims a subset ``S`` of the
    universe of ``(q, Z)``; then at ``("a", q, Y, Z, R, m, S)`` Adam either
    plays on above, at ``("v", q, Z, S, -1)``, or picks ``(r, c)`` in ``S``
    and resumes the frame at ``("v", r, Y, R, max(m, c))`` through an edge
    of color ``c``.  The choice edges carry the minimal color.

    The universe of ``(q, Z)`` is the set of max-color pop facts
    ``(q, Z) =>* (r, eps)`` of ``analysis._saturate``: claiming a return
    that no run produces only gives Adam an option.  Pairs are ordered once
    for the whole game, so a claim, a sorted subset, has one representation.
    Claims are enumerated lazily, so a budget bounds the work on a large
    universe.
    """

    WIN = ("win",)
    LOSE = ("lose",)

    def __init__(self, game: PushdownParityGame):
        self.game = game
        self.moves_at = game.moves_at
        self.cmin = min((m.color for m in game.moves), default=0)
        facts, _ = _saturate(
            [(m.source, m.top, 0, m.target, m.push, m.color, m) for m in game.moves])
        rank: dict = {}  # (r, c) -> first-seen index
        universe: dict = {}
        for q, z, r, c, _ in facts:
            rank.setdefault((r, c), len(rank))
            universe.setdefault((q, z), {})[(r, c)] = None
        self._universe = {head: tuple(sorted(pairs, key=rank.__getitem__))
                          for head, pairs in universe.items()}

    def initial(self) -> tuple:
        return ("v", self.game.initial, BOTTOM, (), -1)

    def claims(self, q, z) -> Iterator[tuple]:
        """Every subset of the universe of ``(q, z)``, in bitmask order."""
        u = self._universe.get((q, z), ())
        for mask in range(1 << len(u)):
            yield tuple(u[i] for i in range(len(u)) if mask >> i & 1)

    @staticmethod
    def resume(y, claim: tuple, m: int, r, c: int) -> tuple:
        """The frame with top ``y``, claim and max color ``m`` after a frame
        above it popped to ``r`` with max color ``c``."""
        return ("v", r, y, claim, max(m, c) if claim else -1)

    @staticmethod
    def above(vertex: tuple, claim: tuple) -> tuple:
        """The frame that the push of a claim or check vertex begins."""
        return ("v", vertex[1], vertex[3], claim, -1)

    def after(self, vertex: tuple, move: GameMove) -> tuple:
        """The successor of a main vertex through one of its moves."""
        _, _, _, claim, m = vertex
        mc = max(m, move.color) if claim else -1
        push = move.push
        if not push:
            return self.WIN if (move.target, mc) in claim else self.LOSE
        if len(push) == 1:
            return ("v", move.target, push[0], claim, mc)
        return ("e", move.target, push[0], push[1], claim, mc)

    def successors(self, vertex: tuple) -> tuple[str, Iterable]:
        """The owner of ``vertex`` and its edges ``(color, successor, label)``;
        the label is the GameMove of a main vertex's edge and the claim of a
        claim vertex's edge.  A claim vertex's edges are a generator."""
        kind = vertex[0]
        if kind == "v":
            _, p, x, _, _ = vertex
            return self.game.owner[p], [(mv.color, self.after(vertex, mv), mv)
                                        for mv in self.moves_at.get((p, x), ())]
        cmin = self.cmin
        if kind == "e":
            _, q, _, z, _, _ = vertex
            return EVE, ((cmin, ("a",) + vertex[1:] + (s,), s) for s in self.claims(q, z))
        if kind == "a":
            _, q, y, z, claim, m, s = vertex
            out = [(cmin, self.above(vertex, s), None)]
            out += [(c, self.resume(y, claim, m, r, c), None) for r, c in s]
            return ADAM, out
        even = cmin + cmin % 2
        return EVE, [(even if vertex == self.WIN else even + 1, vertex, None)]


def solve_claim_game(
    game: PushdownParityGame, budget: int = 5_000_000, total: int = 0
) -> PushdownSolveResult:
    """The exact winner by ``ClaimGame``, built from its initial vertex;
    ``total`` vertices already count against ``budget``."""
    cg = ClaimGame(game)
    owner: list[str] = []

    def expand(order):
        for u, vertex in enumerate(order):
            who, succ = cg.successors(vertex)
            owner.append(who)
            for color, nxt, label in succ:
                yield u, color, nxt, label

    order, edges, labels = explore(cg.initial(), expand, budget, total)
    total += len(order)
    wins, strats = solve_parity_ids(owner, edges)
    winner = EVE if 0 in wins[EVE] else ADAM
    stats = {"vertices": total, "height": 0, "decided_by": "claims", "claim_vertices": len(order)}
    choice = ({order[v]: labels[j] for v, j in strats[EVE].items() if labels[j] is not None}
              if winner == EVE else None)
    return PushdownSolveResult(winner, choice, stats, cg)


# ---------------------------------------------------------------------------
# Gale-Stewart arena construction.
# ---------------------------------------------------------------------------


def gs_to_pushdown_game(dpda: OmegaPDA, info: PdInfo) -> PushdownParityGame:
    """Turn-based arena with two vertex kinds.  At ``("A", q)`` Adam picks a
    letter ``x1`` of ``info.sigma1`` by a move of the minimal color; at
    ``("E", q, x1)`` Eve picks ``y`` of ``info.y_values`` by taking the dpda's
    one transition on a letter of round ``(x1, y)`` in ``info.rounds``, with
    its push and color, back to Adam.  Each move carries the letter its
    player picks as its ``letter``.  One pass indexes the transitions and
    finds a dpda that is not deterministic, or else has a transition off the
    rounds' letters (an epsilon one could starve the word): ``ValueError``."""
    sigma1, gb, rounds = info.sigma1, dpda.gamma_bottom, info.rounds
    index: dict = {}  # (source, top, x1) -> [(transition, y)]
    keys, bad = set(), None
    for t in dpda.transitions:
        keys.add((t.source, t.top, t.label))
        if t.label in rounds:
            x1, y = rounds[t.label]
            index.setdefault((t.source, t.top, x1), []).append((t, y))
        elif bad is None:
            bad = t
    if bad is not None or len(keys) < len(dpda.transitions):
        det, pairs = is_deterministic(dpda)  # the first fault, for the message
        raise ValueError(f"arena needs an epsilon-free automaton over pair letters: {bad}" if det
                         else f"arena needs a deterministic automaton: {pairs[:1]}")
    cmin = min((t.color for t in dpda.transitions), default=0)

    def expand(order):
        for u, v in enumerate(order):
            if v[0] == "A":
                for x1 in sigma1:
                    tgt = ("E", v[1], x1)
                    for x in gb:
                        yield u, cmin, tgt, GameMove(v, x, tgt, (x,), cmin, x1)
                continue
            _, q, x1 = v
            for x in gb:
                for t, y in index.get((q, x, x1), ()):
                    tgt = ("A", t.target)
                    yield u, t.color, tgt, GameMove(v, x, tgt, t.push, t.color, y)

    states, _, moves = explore(("A", dpda.initial), expand)
    owner = {v: ADAM if v[0] == "A" else EVE for v in states}
    return PushdownParityGame(tuple(states), dpda.stack_alphabet, states[0], owner, tuple(moves))


class GsResult(Record):
    """The winner on the arena ``game`` of the block automaton of ``info``.
    An Adam win is ``sound`` if the condition is claimed good-for-games or
    deterministic."""

    winner: str
    sound: bool
    info: PdInfo
    game: PushdownParityGame
    solve: PushdownSolveResult


def solve_gale_stewart(spec: GaleStewartSpec, budget: int = 5_000_000) -> GsResult:
    """The winner on the arena of a block automaton: the condition itself if
    it is epsilon-free with one transition per ``(source, top, label)``
    (``_own_pd``), else ``build_pd``'s.  That direct game is exact: a round
    fires the one transition on its pair, or dead-ends at Eve, as the word
    has no run.  ``is_deterministic`` runs only for an unclaimed Adam win
    on ``build_pd``'s game, to say whether it is sound."""
    cond = spec.condition
    keys = {(t.source, t.top, t.label) for t in cond.transitions}
    own = len(keys) == len(cond.transitions) and all(label is not None for _, _, label in keys)
    pd, info = _own_pd(spec) if own else build_pd(spec)
    game = gs_to_pushdown_game(pd, info)
    res = solve_pushdown_parity_game(game, budget)
    sound = res.winner == EVE or spec.gfg_claimed or own or is_deterministic(cond)[0]
    return GsResult(res.winner, sound, info, game, res)


def universality(pda: OmegaPDA, budget: int = 5_000_000) -> bool:
    """Universality via the game over {(w, #^omega) : w in L}; sound negative
    verdicts require the automaton to be good-for-games."""
    return solve_gale_stewart(make_universality_spec(pda), budget).winner == EVE


# ---------------------------------------------------------------------------
# Strategy transducers.
# ---------------------------------------------------------------------------


class StrategyPDT(Record):
    """Deterministic pushdown transducer from input words to output letters;
    the output is read at the (epsilon-closed) end of the run."""

    machine: DetPushdown
    output: dict  # machine state -> output letter
    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]

    def round(self, cfg: Configuration, letter: str) -> tuple[Configuration, str]:
        nxt = self.machine.consume(cfg, letter)
        return nxt, self.output_at(nxt)

    def output_at(self, cfg: Configuration) -> str:
        try:
            return self.output[cfg.state]
        except KeyError:
            raise PdaError(f"strategy output undefined at {cfg.state}") from None


def strategy_of(gs: GsResult) -> StrategyPDT:
    """Eve's winning strategy for the original game, built by ``_strategy_pdt``
    from the phase that decided the solved game ``gs``; no second solve.

    A strategy from a truncation is positional: its vertices are
    configurations, every round is a swap and the transducer's stack stays
    unused.  A strategy from the claim game has main vertices, and the push
    or pop of Eve's move pushes or pops the context of the frame below.  An
    Adam win raises ``Player1Wins``."""
    if gs.winner != EVE:
        raise Player1Wins("Player 2 does not win this specification")
    choice, cg = gs.solve.eve_strategy, gs.solve.claim_game
    if cg is None:
        moves_at = gs.game.moves_at

        def step(cfg, move: GameMove):
            return move.target, cfg[1][:-1] + move.push

        def swap(cfg):
            return step(cfg, _chosen(choice, cfg)), None

        return _strategy_pdt((gs.game.initial, (BOTTOM,)), choice,
                             lambda cfg: moves_at.get((cfg[0], cfg[1][-1]), ()), step, swap,
                             gs.info)

    def eve_round(vertex):
        move = _chosen(choice, vertex)
        nxt = cg.after(vertex, move)
        if nxt == cg.LOSE:
            raise PdaError(f"no winning Adam vertex after Eve's move at {vertex}")
        if nxt == cg.WIN:
            return None, (move.target, max(vertex[4], move.color))
        if nxt[0] == "e":
            return cg.above(nxt, _chosen(choice, nxt)), (nxt[2], nxt[4], nxt[5])
        return nxt, None

    return _strategy_pdt(cg.initial(), choice, lambda v: cg.moves_at.get((v[1], v[2]), ()),
                         cg.after, eve_round, gs.info)


def _chosen(choice: dict, vertex):
    """Eve's choice at ``vertex``."""
    move = choice.get(vertex)
    if move is None:
        raise PdaError(f"Eve strategy undefined at {vertex}")
    return move


def _strategy_pdt(start, choice: dict, moves: Callable, after: Callable,
                  eve_round: Callable, info: PdInfo) -> StrategyPDT:
    """Eve's strategy ``choice`` on a Gale-Stewart arena as a transducer for
    the original game, with one stack symbol per stack frame below the
    current one.

    ``moves(vertex)`` are a vertex's GameMoves, each with its player's
    ``letter``, and ``after(vertex, move)`` its successor.  A state is a
    vertex where Eve picks her letter, plus the sigma2 letter it stores
    (``None`` until it stores one).  Each rule is one block-game round:
    ``eve_round(vertex)`` plays Eve's move, the block automaton's transition
    on her letter, and gives ``(vertex, None)`` for a swap, ``(vertex above,
    context)`` for a push and ``(None, (r, c))`` for a pop to ``r`` with max
    color ``c`` since the frame began; Adam's next letter follows.

    Eve's letter says what the state does, by the paper's three phases of
    the delay: the initial state reads Adam's first letter; on a game that
    builds the condition's run (``info.transition_ids``), Eve waits for the
    letter due and stores it, a sigma2 letter, then delays while she builds
    the run, skipping its epsilon transitions.  A store or a skip is one
    epsilon rule that feeds ``sigma1[0]`` as Adam's dummy letter.  Any other
    letter completes a block: the state outputs the stored letter (its own
    on a condition's own block automaton) and reads every sigma1 letter.

    A push pushes the interned context, a pop reads it and resumes the frame
    below by ``ClaimGame.resume``.  Rules exist for each mode (state, top
    symbol) a run reaches: a pushed symbol records the symbols it was pushed
    onto, so each state a pop reaches gets them as tops.
    """
    sigma1 = info.sigma1
    letters, dummy = tuple((x1, x1) for x1 in sigma1), ((sigma1[0], None),)

    def adam_read(vertex, x1: str):
        for move in moves(vertex):
            if move.letter == x1:
                return after(vertex, move)
        raise PdaError(f"no Adam move for {x1!r} at {vertex}")

    symbols: dict = {}  # context -> stack symbol
    contexts: dict = {}  # stack symbol -> context
    below: dict = {}  # stack symbol -> {symbol it was pushed onto: None}
    returns: dict = {}  # stack symbol -> {state its pop reaches: None}
    init = ("start", start)
    states: list = [init]
    output: dict = {}
    reads: dict = {}  # state -> ((Adam letter, rule label), ...), the letter stored next
    rules: list[Transition] = []
    seen: set = set()
    queue: deque = deque()

    def state(vertex, stored) -> tuple:
        node = ("play", vertex, stored)
        if node not in reads:
            states.append(node)
            y = _chosen(choice, vertex).letter
            if not info.transition_ids:  # a condition's own block automaton
                output[node], reads[node] = y, (letters, None)
            elif y in info.sigma2:
                reads[node] = dummy, y
            elif info.transition_of[y].label is None:
                reads[node] = dummy, stored
            else:
                output[node], reads[node] = stored, (letters, None)
        return node

    def mode(node, top) -> None:
        if (node, top) not in seen:
            seen.add((node, top))
            queue.append((node, top))

    for x1 in sigma1:
        node = state(adam_read(start, x1), None)
        rules.append(Transition(init, BOTTOM, x1, node, (BOTTOM,), 0))
        mode(node, BOTTOM)
    while queue:
        node, top = queue.popleft()
        nxt, context = eve_round(node[1])
        if nxt is None:
            if top == BOTTOM:
                raise PdaError(f"strategy pops the bottom frame at {node[1]}")
            nxt = ClaimGame.resume(*contexts[top], *context)
            push, tops = (), below[top]
        elif context is None:
            push, tops = (top,), (top,)
        else:
            symbol = symbols.setdefault(context, f"k{len(symbols)}")
            contexts[symbol] = context
            push, tops = (top, symbol), (symbol,)
            onto = below.setdefault(symbol, {})
            if top not in onto:
                onto[top] = None
                for target in returns.get(symbol, ()):
                    mode(target, top)
        pairs, stored = reads[node]
        for x1, label in pairs:
            target = state(adam_read(nxt, x1), stored)
            rules.append(Transition(node, top, label, target, push, 0))
            if not push:
                returns.setdefault(top, {})[target] = None
            for x in tops:
                mode(target, x)
    machine = DetPushdown(tuple(states), init, tuple(contexts), tuple(rules))
    return StrategyPDT(machine, output, sigma1, info.sigma2)


def synthesize_strategy_pdt(spec: GaleStewartSpec, budget: int = 5_000_000) -> StrategyPDT:
    """Winning strategy for Player 2: ``strategy_of`` the solved ``spec``."""
    return strategy_of(solve_gale_stewart(spec, budget))


def simulate_play(strategy: StrategyPDT, adam: LassoWord, guard: int = 2000) -> LassoWord:
    """Deterministic co-simulation; the outcome lasso is detected at a
    repeated (transducer state, top symbol, adam position) step.  Its letters
    are ``pair_id(a1, a2)``, the condition's letters only for a spec that
    names its pairs so; those of any other spec, a universality spec among
    them, are read through ``spec.pairing``.  Every
    configuration of a round counts, epsilon closure included: a round that
    dips below a candidate step and rebuilds the stack cancels it."""
    cfg = strategy.machine.start()
    outcome: list[str] = []
    pos = 0
    lasso = LassoDetector()
    while True:
        cut = lasso.visit((cfg.state, cfg.top, pos), cfg.height, len(outcome))
        if cut is not None:
            return LassoWord(tuple(outcome[:cut]), tuple(outcome[cut:]))
        x1 = adam.letter_at(pos)
        for cfg in strategy.machine.trail(cfg, x1):
            lasso.dip(cfg.height)
        outcome.append(pair_id(x1, strategy.output_at(cfg)))
        pos = adam.next_position(pos)
        if len(outcome) > guard:
            raise GuardExceeded(f"no outcome lasso within {guard} rounds")


def compose_sigma_d(
    spec: GaleStewartSpec, sigma: Callable[[tuple[str, ...]], str], resolver: Resolver,
    info: PdInfo,
) -> Callable[[tuple[str, ...]], str]:
    """The paper's sigma_D from the game reduction, kept as a construction
    although no other routine calls it: a strategy for the block game of
    ``build_pd(spec)`` (with ``info``) from a strategy for the original game
    plus a resolver.  It alternates between simulating sigma's letter choice
    and letting the resolver build the run infix that processes it."""
    cache: dict[tuple[str, ...], str] = {}
    letter_of = {pair: letter for letter, pair in spec.pairing.items()}

    def sd(v: tuple[str, ...]) -> str:
        v = tuple(v)
        if v in cache:
            return cache[v]
        outputs = [sd(v[:k]) for k in range(1, len(v))]
        if not outputs:
            out = sigma((v[0],))
        else:
            prev = outputs[-1]
            if prev not in spec.sigma2 and info.transition_of[prev].label is not None:
                word = tuple(v[j] for j in range(len(outputs)) if outputs[j] in spec.sigma2)
                out = sigma(word + (v[-1],))
            else:
                history = [info.transition_of[y] for y in outputs if y not in spec.sigma2]
                j_prime = max(j for j in range(len(outputs)) if outputs[j] in spec.sigma2)
                pending = letter_of[(v[j_prime], outputs[j_prime])]
                run = replay(spec.condition, tuple(history))
                tr = resolver_query(resolver, run, pending)
                out = info.transition_ids[tr]
        cache[v] = out
        return out

    return sd


# ---------------------------------------------------------------------------
# Text formats: game specifications and strategy transducers.
# ---------------------------------------------------------------------------


_GFG_CLAIMS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_gs_spec(text: str) -> GaleStewartSpec:
    """The condition automaton's declarations plus `sigma1 ...`, `sigma2 ...`,
    `pair <condition-letter> <a1> <a2>` and `gfg <claim>`, read in one pass.
    A claim is true/1/yes or false/0/no in any case; without one it is false."""
    sigma1: list[str] = []
    sigma2: list[str] = []
    pairs: list[list[str]] = []  # the declaration lines
    claim: list[bool] = []

    def gfg(tokens):
        flag = _GFG_CLAIMS.get(tokens[1].lower())
        if flag is None:
            raise ValueError(f"gfg takes true/1/yes or false/0/no, not {tokens[1]!r}")
        claim.append(flag)

    handlers, build = pda_declarations()
    handlers.update({"sigma1": (None, lambda tokens: sigma1.extend(tokens[1:])),
                     "sigma2": (None, lambda tokens: sigma2.extend(tokens[1:])),
                     "pair": (4, pairs.append), "gfg": (2, gfg)})
    read_declarations(text, handlers)
    pairing = {letter: (a1, a2) for _, letter, a1, a2 in pairs}
    spec = GaleStewartSpec(tuple(sigma1), tuple(sigma2), build(), pairing,
                           claim[-1] if claim else False)
    bad = spec.validate()
    if bad:
        raise FormatError("; ".join(bad))
    return spec


def format_gs_spec(spec: GaleStewartSpec) -> str:
    lines = [format_pda(spec.condition).rstrip("\n")]
    lines.append("sigma1 " + " ".join(spec.sigma1))
    lines.append("sigma2 " + " ".join(spec.sigma2))
    for letter, (a1, a2) in spec.pairing.items():
        lines.append(f"pair {letter} {a1} {a2}")
    lines.append(f"gfg {'true' if spec.gfg_claimed else 'false'}")
    return "\n".join(lines) + "\n"


def format_strategy_pdt(t: StrategyPDT) -> str:
    ids = {q: f"s{i}" for i, q in enumerate(t.machine.states)}
    lines = [f"tstate {ids[q]}" for q in t.machine.states]
    lines.append(f"tinitial {ids[t.machine.initial]}")
    lines += [f"tstacksym {x}" for x in t.machine.stack_alphabet]
    for r in t.machine.transitions:
        sym = "eps" if r.label is None else r.label
        lines.append(
            f"ttrans {ids[r.source]} {r.top} {sym} "
            f"{ids[r.target]} {push_to_text(r.push)}"
        )
    for q, out in t.output.items():
        lines.append(f"tout {ids[q]} {out}")
    lines.append("tinput " + " ".join(t.input_alphabet))
    lines.append("toutput " + " ".join(t.output_alphabet))
    return "\n".join(lines) + "\n"


def parse_strategy_pdt(text: str) -> StrategyPDT:
    states: list[str] = []  # the declaration lines' tokens: keyword, name, keyword, ...
    initial: list[str] = []
    stack: list[str] = []
    rules: list[Transition] = []
    outs: list[list[str]] = []  # the declaration lines
    input_alphabet: list[str] = []
    output_alphabet: list[str] = []
    pushes = TokenValues("push word", push_from_text, push_to_text)

    def ttrans(tokens):
        _, src, top, sym, dst, push = tokens
        rules.append(Transition(src, top, None if sym == "eps" else sym, dst, pushes[push], 0))

    read_declarations(text, {
        "tstate": (2, states.extend), "tinitial": (2, initial.extend),
        "tstacksym": (2, stack.extend), "ttrans": (6, ttrans), "tout": (3, outs.append),
        "tinput": (None, lambda tokens: input_alphabet.extend(tokens[1:])),
        "toutput": (None, lambda tokens: output_alphabet.extend(tokens[1:])),
    })
    if not initial:
        raise FormatError("missing 'tinitial' declaration")
    output = {q: out for _, q, out in outs}
    declared = {"state": set(states[1::2]), "input letter": set(input_alphabet),
                "output letter": set(output_alphabet)}
    used = [("tinitial", "state", initial[-1])] + [("tout", "state", q) for q in output]
    used += [("ttrans", "state", q) for r in rules for q in (r.source, r.target)]
    used += [("ttrans", "input letter", r.label) for r in rules if r.label is not None]
    used += [("tout", "output letter", out) for out in output.values()]
    for kind, what, name in used:
        if name not in declared[what]:
            raise FormatError(f"{kind} names undeclared {what} {name!r}")
    # The stack shape of core._push_fault, without its length rule.
    symbols = set(stack[1::2])
    for i, r in enumerate(rules):
        if fault := ("unknown top symbol" if r.top != BOTTOM and r.top not in symbols
                     else _push_fault(r.top, r.push, symbols, longest=None)):
            raise FormatError(f"rule {i} {r}: {fault}")
    machine = DetPushdown(tuple(states[1::2]), initial[-1], tuple(stack[1::2]), tuple(rules))
    return StrategyPDT(machine, output, tuple(input_alphabet), tuple(output_alphabet))
