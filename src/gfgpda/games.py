"""Gale-Stewart games with pushdown winning conditions.

Pipeline: a condition automaton over paired letters is compiled into a
deterministic block-reading automaton (``build_pd``) that consumes both an
input word and a claimed run of the condition, moving all nondeterminism
into Player 2's letter choices.  The resulting game reduces to a parity game
on the configuration graph of a pushdown machine, solved exactly in two
phases.  Interval iteration on the height-truncated arenas of heights 1 to 3
comes first: out-of-bound edges lead to a dead end owned by either player
in turn, and agreement of the two bounds is conclusive for the full game.
If these are inconclusive, Walukiewicz's claim game decides: a push makes
Eve claim where and with which max color the pushed frame returns, and Adam
either checks the claim above or takes one of its returns.  Both arenas are
numbered on dense int ids by one loop under one vertex budget (``_number``)
and solved by Zielonka's algorithm on ints (``solve_parity_ids``);
``FiniteParityGame`` is only the public API for finite games.  Eve's
winning strategies are packaged as pushdown transducers by one builder
(``_strategy_pdt``): positional ones from a truncation keep the
transducer's stack unused, claim-game ones push a context per stack frame.
The mode-tracking and three-phase delay transforms turn a transducer for
the block game into one for the original game.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Optional

from .core import (
    BOTTOM,
    Configuration,
    FormatError,
    GuardExceeded,
    LassoDetector,
    LassoWord,
    OmegaPDA,
    PdaError,
    Transition,
    format_pda,
    is_deterministic,
    pda_declarations,
    push_from_text,
    push_to_text,
    read_declarations,
    replay,
    top_to_text,
)
from .analysis import _saturate
from .resolvers import DetPushdown, PdtRule, Resolver, resolver_query

EVE = "eve"
ADAM = "adam"


class ResourceExceeded(PdaError):
    """The solver hit its vertex budget before reaching a conclusive bound."""


class Player1Wins(PdaError):
    """Synthesis was asked for a specification that Player 2 does not win."""


def pair_id(a1: str, a2: str) -> str:
    return f"({a1},{a2})"


# ---------------------------------------------------------------------------
# Game specifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaleStewartSpec:
    """Player 1 picks from sigma1, Player 2 from sigma2; Player 2 wins iff the
    paired outcome is in the condition language."""

    sigma1: tuple[str, ...]
    sigma2: tuple[str, ...]
    condition: OmegaPDA
    pairing: dict[str, tuple[str, str]]  # condition letter -> (a1, a2)
    gfg_claimed: bool = False

    def validate(self) -> list[str]:
        out = []
        pairs = {}
        for letter, pair in self.pairing.items():
            if letter not in self.condition.input_alphabet:
                out.append(f"pairing letter {letter!r} not in the condition alphabet")
            if pair in pairs.values():
                out.append(f"pair {pair} mapped twice")
            pairs[letter] = pair
        want = {(a1, a2) for a1 in self.sigma1 for a2 in self.sigma2}
        if set(pairs.values()) != want:
            out.append("pairing does not cover sigma1 x sigma2 exactly")
        if set(self.condition.input_alphabet) != set(self.pairing):
            out.append("condition alphabet and pairing domain differ")
        return out


def make_universality_spec(pda: OmegaPDA, gfg_claimed: bool = True) -> GaleStewartSpec:
    """Universality of L as the game over {(w, #^omega) : w in L}."""
    mark = "#"
    relabeled = OmegaPDA(
        pda.states,
        tuple(pair_id(a, mark) for a in pda.input_alphabet),
        pda.stack_alphabet,
        pda.initial,
        tuple(
            Transition(t.source, t.top, None if t.label is None else pair_id(t.label, mark),
                       t.target, t.push, t.color)
            for t in pda.transitions
        ),
    )
    pairing = {pair_id(a, mark): (a, mark) for a in pda.input_alphabet}
    return GaleStewartSpec(pda.input_alphabet, (mark,), relabeled, pairing, gfg_claimed)


# ---------------------------------------------------------------------------
# The deterministic block automaton P_d.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdInfo:
    sigma1: tuple[str, ...]
    sigma2: tuple[str, ...]
    condition: OmegaPDA
    transition_ids: dict[Transition, str]
    decomp: dict[str, tuple[str, str, Any]]  # pd letter -> (a1, kind, payload)
    pairing_rev: dict[tuple[str, str], str]  # (a1, a2) -> condition letter

    @property
    def y_values(self) -> tuple[str, ...]:
        return self.sigma2 + tuple(self.transition_ids.values())

    def pd_letter(self, x1: str, y: str) -> str:
        return f"{x1}&{y}"

    def transition_of(self, tid: str) -> Transition:
        """The condition transition whose id is ``tid``."""
        return self.decomp[self.pd_letter(self.sigma1[0], tid)][2]

    def letter_for(self, a1: str, a2: str) -> str:
        return self.pairing_rev[(a1, a2)]


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
    bad = spec.validate()
    if bad:
        raise ValueError("; ".join(bad))
    cond = spec.condition
    tids: dict[Transition, str] = {}
    for i, t in enumerate(cond.transitions):
        tids.setdefault(t, f"t{i}")  # a repeated transition keeps its first id
    pairing_rev = {pair: letter for letter, pair in spec.pairing.items()}
    decomp: dict[str, tuple[str, str, Any]] = {}
    info = PdInfo(spec.sigma1, spec.sigma2, cond, tids, decomp, pairing_rev)
    for x1 in spec.sigma1:
        for a2 in spec.sigma2:
            decomp[info.pd_letter(x1, a2)] = (x1, "a2", a2)
        for t in tids:
            decomp[info.pd_letter(x1, tids[t])] = (x1, "tr", t)

    def await_state(q: str) -> str:
        return f"W({q})"

    def pending_state(q: str, letter: str, acc: Optional[int]) -> str:
        return f"P({q};{letter};{'-' if acc is None else acc})"

    def bump(acc: Optional[int], c: int) -> int:
        return c if acc is None else max(acc, c)

    by_source: dict[str, list[Transition]] = {}
    for t in tids:
        by_source.setdefault(t.source, []).append(t)

    states: list[str] = []
    transitions: list[Transition] = []
    seen: set = set()
    queue: deque = deque()

    def visit(node) -> str:
        if node not in seen:
            seen.add(node)
            queue.append(node)
            states.append(node)
        kind = node[0]
        if kind == "await":
            return await_state(node[1])
        return pending_state(node[1], node[2], node[3])

    start = ("await", cond.initial)
    visit(start)
    while queue:
        node = queue.popleft()
        if node[0] == "await":
            q = node[1]
            src = await_state(q)
            for x1 in spec.sigma1:
                for a2 in spec.sigma2:
                    cond_letter = pairing_rev[(x1, a2)]
                    dst = visit(("pending", q, cond_letter, None))
                    for x in cond.gamma_bottom:
                        transitions.append(
                            Transition(src, x, info.pd_letter(x1, a2), dst, (x,), 0)
                        )
        else:
            _, q, cond_letter, acc = node
            src = pending_state(q, cond_letter, acc)
            for t in by_source.get(q, ()):
                if t.label is None:
                    dst = visit(("pending", t.target, cond_letter, bump(acc, t.color)))
                    color = 1
                elif t.label == cond_letter:
                    dst = visit(("await", t.target))
                    color = bump(acc, t.color) + 2
                else:
                    continue
                for x1 in spec.sigma1:
                    transitions.append(
                        Transition(src, t.top, info.pd_letter(x1, tids[t]), dst, t.push, color)
                    )

    names = [await_state(s[1]) if s[0] == "await" else pending_state(s[1], s[2], s[3])
             for s in states]
    alphabet = tuple(decomp)
    pd = OmegaPDA(tuple(names), alphabet, cond.stack_alphabet, await_state(cond.initial),
                  tuple(transitions))
    return pd, info


# ---------------------------------------------------------------------------
# Parity games: finite (Zielonka) and pushdown (truncations, then claims).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteParityGame:
    vertices: tuple
    owner: dict  # vertex -> EVE | ADAM
    edges: tuple  # (source, color, target)


@dataclass
class FiniteSolveResult:
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
    ``owner[v]``, with edges ``(u, color, v)``.  Returns per player the
    winning vertices and a map from each of its vertices there to the index
    of the edge it takes.  Internally ``n + j`` is the midpoint of edge
    ``j``, and each dead end gets a losing self-loop for its owner after
    those."""
    n, m = len(owner), len(edges)
    colors = [c for _, c, _ in edges]
    cmax = max(colors, default=0)
    cmin = min(colors, default=0)
    lose = {EVE: cmax + 1 + (cmax % 2), ADAM: cmax + 2 - (cmax % 2)}
    owner = owner + [EVE] * m
    color = [cmin] * n + colors
    succ: list[list[int]] = [[] for _ in range(n)] + [[v] for _, _, v in edges]
    pred: list[list[int]] = [[] for _ in range(n + m)]
    for j, (u, _, v) in enumerate(edges):
        succ[u].append(n + j)
        pred[n + j].append(u)
        pred[v].append(n + j)
    for v in range(n):
        if not succ[v]:
            succ[v].append(len(succ))
            pred[v].append(len(succ))
            owner.append(EVE)
            color.append(lose[owner[v]])
            succ.append([v])
            pred.append([v])

    stack = [_zielonka(set(range(len(succ))), succ, pred, owner, color)]
    result = None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_zielonka(sub, succ, pred, owner, color))
            result = None
    wins, strats = result
    return (
        {p: {v for v in wins[p] if v < n} for p in (EVE, ADAM)},
        {p: {v: w - n for v, w in strats[p].items() if v < n and w < n + m}
         for p in (EVE, ADAM)},
    )


def _attractor(player, targets, sub, succ, pred, owner):
    attracted = set(targets)
    strat: dict = {}
    counts: dict = {}
    queue = deque(sorted(targets))
    while queue:
        u = queue.popleft()
        for v in pred[u]:
            if v not in sub or v in attracted:
                continue
            if owner[v] == player:
                strat[v] = u
            else:
                if v not in counts:
                    counts[v] = sum(1 for w in succ[v] if w in sub)
                counts[v] -= 1
                if counts[v]:
                    continue
            attracted.add(v)
            queue.append(v)
    return attracted, strat


def _zielonka(sub, succ, pred, owner, color):
    """Winning regions and strategies on ``sub``.  The subgame left after
    peeling the opponent's attractor is solved by the loop; the subgame
    without the top color's attractor is yielded, and the caller sends its
    result back, so nesting lives on the caller's list, not the Python stack."""
    wins_all: dict = {EVE: set(), ADAM: set()}
    strats_all: dict = {EVE: {}, ADAM: {}}
    while sub:
        d = max(color[v] for v in sub)
        p = EVE if d % 2 == 0 else ADAM
        opp = ADAM if p == EVE else EVE
        targets = {v for v in sub if color[v] == d}
        region, rstrat = _attractor(p, targets, sub, succ, pred, owner)
        wins, strats = yield sub - region
        if not wins[opp]:
            wins_all[p] |= sub
            strats_all[p] |= strats[p] | rstrat
            for v in targets:
                if owner[v] == p:
                    strats_all[p][v] = next(w for w in succ[v] if w in sub)
            break
        region2, bstrat = _attractor(opp, wins[opp], sub, succ, pred, owner)
        wins_all[opp] |= region2
        strats_all[opp] |= strats[opp] | bstrat
        sub = sub - region2
    return wins_all, strats_all


@dataclass(frozen=True)
class GameMove:
    source: Any
    top: str
    target: Any
    push: tuple[str, ...]
    color: int


@dataclass(frozen=True)
class PushdownParityGame:
    """Pushdown system plus owners; dead ends lose for their owner."""

    states: tuple
    stack_alphabet: tuple[str, ...]
    initial: Any
    owner: dict
    moves: tuple[GameMove, ...]

    @cached_property
    def moves_at(self) -> dict:
        idx: dict = {}
        for m in self.moves:
            idx.setdefault((m.source, m.top), []).append(m)
        return idx


@dataclass
class PushdownSolveResult:
    """The winner from the initial configuration.  ``stats`` holds the
    vertices numbered in both phases, the height of the highest truncation
    solved (0 if none), ``decided_by`` (``"truncation"`` or ``"claims"``)
    and the claim game's vertices (0 if it was not built)."""

    winner: str
    eve_strategy: Optional[dict]  # (state, stack) -> GameMove, on the deciding truncation
    stats: dict
    claims: Optional[ClaimStrategy] = None  # Eve's win, when the claim game decided it


@dataclass
class ClaimStrategy:
    """Eve's winning strategy on a claim game: a main vertex maps to the
    GameMove she plays, a claim vertex to the claim she makes."""

    game: ClaimGame
    choice: dict


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
    vertex by ``solve_claim_game``.  Both phases number their vertices with
    ``_number``, which counts them against the budget as they are numbered,
    so ``ResourceExceeded`` comes after at most budget + 1 of them.
    ``stats["decided_by"]`` says which phase decided.  A malformed move
    raises ``ValueError``.
    """
    _check_moves(game)
    total = 0
    for height in TRUNCATION_HEIGHTS:
        result, total = _solve_truncation(game, height, total, budget)
        if result is not None:
            return result
    result = solve_claim_game(game, budget, total)
    result.stats["height"] = TRUNCATION_HEIGHTS[-1]
    return result


def _check_moves(game: PushdownParityGame) -> None:
    """Raise ``ValueError`` naming the first move whose push is longer than
    two symbols, does not keep the bottom at the bottom, or holds it
    anywhere else."""
    for m in game.moves:
        push, at_bottom = m.push, m.top == BOTTOM
        if len(push) > 2 or push.count(BOTTOM) != at_bottom or at_bottom and push[0] != BOTTOM:
            raise ValueError(f"malformed move {m}: a push has at most two symbols, "
                             "and the bottom stays at the bottom")


def _over_budget(vertices: int, budget: int) -> ResourceExceeded:
    return ResourceExceeded(f"{vertices} numbered vertices exceed the budget {budget}")


def _number(start, successors: Callable, total: int, budget: int) -> tuple[list, list, list]:
    """The vertices reached from ``start`` in discovery order, the edges
    ``(u, color, v)`` between their numbers and the edges' labels, from
    ``successors(vertex)``, an iterable of ``(color, successor, label)``
    called once per vertex in that order; a successor ``None`` keeps the
    number ``None``.  ``total`` vertices already count against ``budget``,
    which is checked at each new number."""
    if total >= budget:
        raise _over_budget(total + 1, budget)
    ids = {start: 0}
    order = [start]
    edges: list = []
    labels: list = []
    for u, vertex in enumerate(order):
        for color, nxt, label in successors(vertex):
            v = None if nxt is None else ids.setdefault(nxt, len(order))
            if v == len(order):
                order.append(nxt)
                if total + len(order) > budget:
                    raise _over_budget(total + len(order), budget)
            edges.append((u, color, v))
            labels.append(label)
    return order, edges, labels


def _solve_truncation(
    game: PushdownParityGame, height: int, total: int, budget: int
) -> tuple[Optional[PushdownSolveResult], int]:
    """The truncation at ``height``: its result if conclusive, and ``total``
    plus its vertices.  Its configurations are numbered once by ``_number``,
    where a successor above ``height`` is ``None``; those edges then point
    at one paradise id.  The paradise is a dead end owned by one player at
    a time, so it loses for them, and a player winning the truncation that
    is pessimistic for them wins the full game."""
    moves_at = game.moves_at

    def successors(cfg):
        state, stack = cfg
        for m in moves_at.get((state, stack[-1]), ()):
            nstack = stack[:-1] + m.push
            yield m.color, (m.target, nstack) if len(nstack) <= height + 1 else None, m

    order, edges, edge_moves = _number((game.initial, (BOTTOM,)), successors, total, budget)
    total += len(order)
    stats = {"vertices": total, "height": height, "decided_by": "truncation",
             "claim_vertices": 0}
    owner = [game.owner[state] for state, _ in order]
    paradise = len(order)
    boundary = any(v is None for _, _, v in edges)
    if boundary:
        edges = [(u, c, paradise if v is None else v) for u, c, v in edges]
    for player in (EVE, ADAM) if boundary else (None,):
        wins, strats = solve_parity_ids(owner + [player] if boundary else owner, edges)
        winner = EVE if 0 in wins[EVE] else ADAM
        if winner == player or not boundary:
            strat = ({order[v]: edge_moves[j] for v, j in strats[EVE].items()}
                     if winner == EVE else None)
            return PushdownSolveResult(winner, strat, stats), total
    return None, total


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
        colors = [m.color for m in game.moves]
        self.cmin = min(colors, default=0)
        facts, _ = _saturate(
            [Transition(m.source, m.top, None, m.target, m.push, m.color) for m in game.moves], ()
        )
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
    ``total`` vertices already count against ``budget``.  A malformed move
    raises ``ValueError``."""
    _check_moves(game)
    cg = ClaimGame(game)
    owner: list[str] = []

    def successors(vertex):
        who, succ = cg.successors(vertex)
        owner.append(who)
        return succ

    order, edges, labels = _number(cg.initial(), successors, total, budget)
    total += len(order)
    wins, strats = solve_parity_ids(owner, edges)
    winner = EVE if 0 in wins[EVE] else ADAM
    stats = {"vertices": total, "height": 0, "decided_by": "claims", "claim_vertices": len(order)}
    claims = None
    if winner == EVE:
        claims = ClaimStrategy(cg, {order[v]: labels[j] for v, j in strats[EVE].items()
                                    if labels[j] is not None})
    return PushdownSolveResult(winner, None, stats, claims)


# ---------------------------------------------------------------------------
# Gale-Stewart arena construction.
# ---------------------------------------------------------------------------


def gs_to_pushdown_game(
    dpda: OmegaPDA,
    sigma1: tuple[str, ...],
    sigma2p: tuple[str, ...],
    letter_of: dict[tuple[str, str], str],
) -> PushdownParityGame:
    """Turn-based arena: Adam picks a sigma1 letter, Eve a sigma2p letter,
    then the unique dpda transitions fire with their own colors.

    Letter-choice moves carry the minimal color.  Winner correspondence with
    the Gale-Stewart game requires that the dpda cannot starve on epsilon
    transitions (the block automata built here are epsilon-free).
    """
    det, pairs = is_deterministic(dpda)
    if not det:
        raise ValueError(f"arena needs a deterministic automaton: {pairs[:1]}")
    cmin = min((t.color for t in dpda.transitions), default=0)
    by_source_label: dict[tuple[str, Optional[str]], bool] = {}
    for t in dpda.transitions:
        by_source_label[(t.source, t.label)] = True
    gb = dpda.gamma_bottom

    states: list = []
    moves: list[GameMove] = []
    owner: dict = {}
    seen: set = set()
    queue: deque = deque()

    def visit(v):
        if v not in seen:
            seen.add(v)
            states.append(v)
            owner[v] = ADAM if v[0] == "A" else EVE
            queue.append(v)
        return v

    start = visit(("A", dpda.initial))
    while queue:
        v = queue.popleft()
        if v[0] == "A":
            q = v[1]
            for x1 in sigma1:
                tgt = visit(("E", q, x1))
                for x in gb:
                    moves.append(GameMove(v, x, tgt, (x,), cmin))
        elif v[0] == "E":
            _, q, x1 = v
            for y in sigma2p:
                letter = letter_of.get((x1, y))
                if letter is None or not by_source_label.get((q, letter)):
                    continue
                tgt = visit(("S", q, x1, y))
                for x in gb:
                    moves.append(GameMove(v, x, tgt, (x,), cmin))
        else:
            _, q, x1, y = v
            letter = letter_of[(x1, y)]
            for x in gb:
                eps = dpda.by_source_top.get((q, x), ())
                et = next((t for t in eps if t.label is None), None)
                if et is not None:
                    tgt = visit(("S", et.target, x1, y))
                    moves.append(GameMove(v, x, tgt, et.push, et.color))
                    continue
                lt = next((t for t in eps if t.label == letter), None)
                if lt is not None:
                    tgt = visit(("A", lt.target))
                    moves.append(GameMove(v, x, tgt, lt.push, lt.color))
    return PushdownParityGame(tuple(states), dpda.stack_alphabet, start, owner, tuple(moves))


@dataclass
class GsResult:
    winner: str
    sound: bool  # Adam verdicts are inconclusive unless the condition is GFG
    pd: OmegaPDA
    info: PdInfo
    game: PushdownParityGame
    solve: PushdownSolveResult


def solve_gale_stewart(spec: GaleStewartSpec, budget: int = 5_000_000) -> GsResult:
    pd, info = build_pd(spec)
    letter_of = {
        (x1, y): info.pd_letter(x1, y) for x1 in spec.sigma1 for y in info.y_values
    }
    game = gs_to_pushdown_game(pd, spec.sigma1, info.y_values, letter_of)
    res = solve_pushdown_parity_game(game, budget)
    sound = res.winner == EVE or spec.gfg_claimed
    return GsResult(res.winner, sound, pd, info, game, res)


def universality(pda: OmegaPDA, budget: int = 5_000_000, gfg_claimed: bool = True) -> bool:
    """Universality via the game over {(w, #^omega) : w in L}; sound negative
    verdicts require the automaton to be good-for-games."""
    return solve_gale_stewart(make_universality_spec(pda, gfg_claimed), budget).winner == EVE


# ---------------------------------------------------------------------------
# Strategy transducers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyPDT:
    """Deterministic pushdown transducer from input words to output letters;
    the output is read at the (epsilon-closed) end of the run."""

    machine: DetPushdown
    output: dict  # machine state -> output letter
    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]

    def start(self) -> Configuration:
        return self.machine.close(self.machine.initial_configuration())

    def round(self, cfg: Configuration, letter: str) -> tuple[Configuration, str]:
        nxt = self.machine.consume(cfg, letter)
        return nxt, self.output_at(nxt)

    def output_at(self, cfg: Configuration) -> str:
        try:
            return self.output[cfg.state]
        except KeyError:
            raise PdaError(f"strategy output undefined at {cfg.state}") from None


def extract_strategy_pdt(gs: GsResult) -> StrategyPDT:
    """Eve's winning strategy in the block game as a transducer over sigma1,
    built by ``_strategy_pdt`` from the phase that decided the game.

    A strategy from a truncation is positional: its vertices are
    configurations, every round is a swap and the transducer's stack stays
    unused.  A strategy from the claim game has main vertices, and a round's
    forced push or pop pushes or pops the context of the frame below."""
    if gs.winner != EVE:
        raise ValueError("no Eve strategy: Adam wins this specification")
    if gs.solve.claims is None:
        choice, moves_at = gs.solve.eve_strategy, gs.game.moves_at

        def step(cfg, move: GameMove):
            return move.target, cfg[1][:-1] + move.push

        def swap(cfg):
            sim = step(cfg, _chosen(choice, cfg))
            return step(sim, _chosen(choice, sim)), None

        return _strategy_pdt((gs.game.initial, (BOTTOM,)), choice,
                             lambda cfg: moves_at.get((cfg[0], cfg[1][-1]), ()), step, swap,
                             gs.info)
    cg, choice = gs.solve.claims.game, gs.solve.claims.choice

    def eve_round(vertex):
        sim = cg.after(vertex, _chosen(choice, vertex))
        move = _chosen(choice, sim)
        nxt = cg.after(sim, move)
        if nxt == cg.LOSE or move.target[0] != "A":
            raise PdaError(f"no winning Adam vertex after the forced move at {sim}")
        if nxt == cg.WIN:
            return None, (move.target, max(sim[4], move.color))
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
    """Eve's strategy ``choice`` on a Gale-Stewart arena as a transducer with
    one stack symbol per stack frame below the current one.

    A state is a vertex where Eve picks her letter; ``moves(vertex)`` are
    the vertex's GameMoves and ``after(vertex, move)`` its successor.  Each
    Adam letter is one round: ``eve_round(vertex)`` plays Eve's letter and
    the block's forced move, and gives ``(vertex, None)`` for a swap,
    ``(vertex above, context)`` for a push and ``(None, (r, c))`` for a pop
    to ``r`` with max color ``c`` since the frame began; Adam's next letter
    follows.  A push pushes the interned context, a pop reads it and resumes
    the frame below by ``ClaimGame.resume``.  Rules exist for each mode
    (state, top symbol) a run reaches: a pushed symbol records the symbols
    it was pushed onto, so each state a pop reaches gets them as tops.
    """
    sigma1 = info.sigma1

    def adam_read(vertex, x1: str):
        for move in moves(vertex):
            if move.target[2] == x1:
                return after(vertex, move)
        raise PdaError(f"no Adam move for {x1!r} at {vertex}")

    symbols: dict = {}  # context -> stack symbol
    contexts: dict = {}  # stack symbol -> context
    below: dict = {}  # stack symbol -> {symbol it was pushed onto: None}
    returns: dict = {}  # stack symbol -> {state its pop reaches: None}
    init = ("start", start)
    states: list = [init]
    output: dict = {}
    rules: list[PdtRule] = []
    seen: set = set()
    queue: deque = deque()

    def state(vertex) -> tuple:
        node = ("play", vertex)
        if node not in output:
            states.append(node)
            output[node] = _chosen(choice, vertex).target[3]
        return node

    def mode(node, top) -> None:
        if (node, top) not in seen:
            seen.add((node, top))
            queue.append((node, top))

    for x1 in sigma1:
        node = state(adam_read(start, x1))
        rules.append(PdtRule(init, BOTTOM, x1, node, (BOTTOM,)))
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
        for x1 in sigma1:
            target = state(adam_read(nxt, x1))
            rules.append(PdtRule(node, top, x1, target, push))
            if not push:
                returns.setdefault(top, {})[target] = None
            for x in tops:
                mode(target, x)
    machine = DetPushdown(tuple(states), init, tuple(contexts), tuple(rules))
    return StrategyPDT(machine, output, sigma1, info.y_values)


def reading_modes(t: StrategyPDT) -> set[tuple[Any, str]]:
    modes = set()
    for rule in t.machine.rules:
        if rule.symbol is not None:
            modes.add((rule.source, rule.top))
    return modes


def mode_tracking_pdt(t: StrategyPDT) -> StrategyPDT:
    """Track the mode (state, top symbol) in the state; pops go through a raw
    state that re-reads the uncovered symbol.

    Only the modes that rules read or reach are built, and raw states only
    for the targets of pops."""
    machine = t.machine
    gb = (BOTTOM,) + machine.stack_alphabet

    def mode(q, x):
        return ("mode", q, x)

    def raw(q):
        return ("raw", q)

    modes = {(machine.initial, BOTTOM)}
    pop_targets: set = set()
    rules: list[PdtRule] = []
    for r in machine.rules:
        modes.add((r.source, r.top))
        if r.push:
            modes.add((r.target, r.push[-1]))
            rules.append(PdtRule(mode(r.source, r.top), r.top, r.symbol,
                                 mode(r.target, r.push[-1]), r.push))
        else:
            pop_targets.add(r.target)
            rules.append(PdtRule(mode(r.source, r.top), r.top, r.symbol, raw(r.target), ()))
    popped = [q for q in machine.states if q in pop_targets]
    for q in popped:
        for x in gb:
            modes.add((q, x))
            rules.append(PdtRule(raw(q), x, None, mode(q, x), (x,)))
    rank = {q: i for i, q in enumerate(machine.states)}
    xrank = {x: i for i, x in enumerate(gb)}
    ordered = sorted(modes, key=lambda qx: (rank[qx[0]], xrank[qx[1]]))
    states = [mode(q, x) for q, x in ordered] + [raw(q) for q in popped]
    output = {mode(q, x): t.output[q] for q, x in ordered if q in t.output}
    tracked = DetPushdown(tuple(states), mode(machine.initial, BOTTOM),
                          machine.stack_alphabet, tuple(rules))
    return StrategyPDT(tracked, output, t.input_alphabet, t.output_alphabet)


def delay_transform(
    tprime: StrategyPDT,
    reading: set,
    classify: Callable[[str], str],  # 'sigma2' | 'eps_trans' | 'letter_trans'
    dummy: str,
    sigma1: tuple[str, ...],
    sigma2: tuple[str, ...],
) -> StrategyPDT:
    """Three-phase transform of a block-game transducer into a strategy for
    the original game: initialization until the first real letter, waiting
    until an output letter is due (stored), then a delay phase that feeds
    dummy letters while the run infix is constructed and finally emits the
    stored letter when the block completes."""

    def is_reading(q) -> bool:
        return q[0] == "mode" and (q[1], q[2]) in reading

    lam = tprime.output
    tags = ["i", "w"] + list(sigma2)
    states = [(q, tag) for q in tprime.machine.states for tag in tags]
    rules: list[PdtRule] = []
    for r in tprime.machine.rules:
        if r.symbol is None:
            for tag in tags:
                rules.append(PdtRule((r.source, tag), r.top, None, (r.target, tag), r.push))
            continue
        if r.symbol in sigma1:
            rules.append(PdtRule((r.source, "i"), r.top, r.symbol, (r.target, "w"), r.push))
        if r.symbol == dummy:
            out = lam.get(r.source)
            if out is not None and classify(out) == "sigma2":
                rules.append(PdtRule((r.source, "w"), r.top, None, (r.target, out), r.push))
            if is_reading(r.source) and out is not None and classify(out) == "eps_trans":
                for a2 in sigma2:
                    rules.append(PdtRule((r.source, a2), r.top, None, (r.target, a2), r.push))
        if r.symbol in sigma1 and is_reading(r.source):
            out = lam.get(r.source)
            if out is not None and classify(out) == "letter_trans":
                for a2 in sigma2:
                    rules.append(PdtRule((r.source, a2), r.top, r.symbol, (r.target, "w"), r.push))
    output = {}
    for q in tprime.machine.states:
        out = lam.get(q)
        if is_reading(q) and out is not None and classify(out) == "letter_trans":
            for a2 in sigma2:
                output[(q, a2)] = a2
    machine = DetPushdown(tuple(states), (tprime.machine.initial, "i"),
                          tprime.machine.stack_alphabet, tuple(rules))
    return StrategyPDT(machine, output, sigma1, tuple(sigma2))


def synthesize_strategy_pdt(spec: GaleStewartSpec, budget: int = 5_000_000) -> StrategyPDT:
    """Winning strategy for Player 2 as a pushdown transducer over sigma1."""
    gs = solve_gale_stewart(spec, budget)
    if gs.winner != EVE:
        raise Player1Wins("Player 2 does not win this specification")
    t = extract_strategy_pdt(gs)
    tprime = mode_tracking_pdt(t)

    def classify(y: str) -> str:
        if y in spec.sigma2:
            return "sigma2"
        return "eps_trans" if gs.info.transition_of(y).label is None else "letter_trans"

    return delay_transform(
        tprime, reading_modes(t), classify, spec.sigma1[0], spec.sigma1, spec.sigma2
    )


def simulate_play(strategy: StrategyPDT, adam: LassoWord, guard: int = 2000) -> LassoWord:
    """Deterministic co-simulation; the outcome lasso is detected at a
    repeated (transducer state, top symbol, adam position) step.  Every
    configuration of a round counts, epsilon closure included: a round that
    dips below a candidate step and rebuilds the stack cancels it."""
    cfg = strategy.start()
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

    def sd(v: tuple[str, ...]) -> str:
        v = tuple(v)
        if v in cache:
            return cache[v]
        outputs = [sd(v[:k]) for k in range(1, len(v))]
        if not outputs:
            out = sigma((v[0],))
        else:
            prev = outputs[-1]
            if prev not in spec.sigma2 and info.transition_of(prev).label is not None:
                word = tuple(v[j] for j in range(len(outputs)) if outputs[j] in spec.sigma2)
                out = sigma(word + (v[-1],))
            else:
                history = [info.transition_of(y) for y in outputs if y not in spec.sigma2]
                j_prime = max(j for j in range(len(outputs)) if outputs[j] in spec.sigma2)
                pending = info.letter_for(v[j_prime], outputs[j_prime])
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
    pairing: dict[str, tuple[str, str]] = {}
    claim: list[bool] = []

    def pair(letter, a1, a2):
        pairing[letter] = (a1, a2)

    def gfg(value):
        flag = _GFG_CLAIMS.get(value.lower())
        if flag is None:
            raise ValueError(f"gfg takes true/1/yes or false/0/no, not {value!r}")
        claim.append(flag)

    handlers, build = pda_declarations()
    handlers.update({"sigma1": (None, lambda *xs: sigma1.extend(xs)),
                     "sigma2": (None, lambda *xs: sigma2.extend(xs)),
                     "pair": (3, pair), "gfg": (1, gfg)})
    read_declarations(text, handlers)
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
    for r in t.machine.rules:
        sym = "eps" if r.symbol is None else r.symbol
        lines.append(
            f"ttrans {ids[r.source]} {top_to_text(r.top)} {sym} "
            f"{ids[r.target]} {push_to_text(r.push)}"
        )
    for q, out in t.output.items():
        lines.append(f"tout {ids[q]} {out}")
    lines.append("tinput " + " ".join(t.input_alphabet))
    lines.append("toutput " + " ".join(t.output_alphabet))
    return "\n".join(lines) + "\n"


def parse_strategy_pdt(text: str) -> StrategyPDT:
    states: list[str] = []
    initial: list[str] = []
    stack: list[str] = []
    rules: list[PdtRule] = []
    output: dict = {}
    input_alphabet: list[str] = []
    output_alphabet: list[str] = []

    def ttrans(src, top, sym, dst, push):
        rules.append(PdtRule(src, BOTTOM if top == "_" else top,
                             None if sym == "eps" else sym, dst, push_from_text(push)))

    def tout(q, out):
        output[q] = out

    read_declarations(text, {
        "tstate": (1, states.append), "tinitial": (1, initial.append),
        "tstacksym": (1, stack.append), "ttrans": (5, ttrans), "tout": (2, tout),
        "tinput": (None, lambda *xs: input_alphabet.extend(xs)),
        "toutput": (None, lambda *xs: output_alphabet.extend(xs)),
    })
    if not initial:
        raise FormatError("missing 'tinitial' declaration")
    declared = set(states)
    used = [("tinitial", initial[-1])] + [("tout", q) for q in output]
    used += [("ttrans", q) for r in rules for q in (r.source, r.target)]
    for kind, q in used:
        if q not in declared:
            raise FormatError(f"{kind} names undeclared state {q!r}")
    machine = DetPushdown(tuple(states), initial[-1], tuple(stack), tuple(rules))
    return StrategyPDT(machine, output, tuple(input_alphabet), tuple(output_alphabet))
