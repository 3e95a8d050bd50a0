"""Shared fixtures, builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterable, Optional

from gfgpda.analysis import EmptinessWitness, PAutomaton, _pa_of_heads
from gfgpda.closure import DeterministicParityAutomaton, zielonka_tree
from gfgpda.core import (
    BOTTOM,
    Configuration,
    LassoWord,
    OmegaPDA,
    Transition,
    explore,
    is_deterministic,
    replay,
    step,
)
from gfgpda.games import (
    ADAM,
    EVE,
    FiniteParityGame,
    GaleStewartSpec,
    GameMove,
    GsResult,
    PdInfo,
    PushdownParityGame,
    StrategyPDT,
    build_pd,
    gs_to_pushdown_game,
    pair_id,
    solve_finite_parity_game,
    solve_pushdown_parity_game,
)


# ---------------------------------------------------------------------------
# P-automata, witnesses, color normalization and the full lasso product.
# ---------------------------------------------------------------------------


def pa_from_words(words: Iterable[tuple[str, ...]]) -> PAutomaton:
    """Trie-shaped P-automaton accepting exactly the words ``stack + (state,)``."""
    trie: dict[tuple[str, str], str] = {}
    finals: set[str] = set()
    for word in words:
        cur = word[-1]
        for sym in reversed(word[:-1]):
            cur = trie.setdefault((cur, sym), f".n{len(trie)}")
        finals.add(cur)
    return PAutomaton(frozenset(finals), frozenset((s, sym, t) for (s, sym), t in trie.items()))


def pa_universal(pda: OmegaPDA) -> PAutomaton:
    """Accepts every configuration."""
    return _pa_of_heads(pda, [(q, x) for q in pda.states for x in pda.gamma_bottom])


def pa_empty() -> PAutomaton:
    return PAutomaton(frozenset(), frozenset())


def validate_witness(pda: OmegaPDA, w: EmptinessWitness, start: Optional[Configuration] = None):
    """Raise if the witness does not certify nonemptiness."""
    run = replay(pda, w.stem + w.loop + w.loop, start)
    k = len(w.stem)
    n = len(w.loop)
    c0, c1, c2 = run.configurations[k], run.configurations[k + n], run.configurations[k + 2 * n]
    if c0 != w.loop_start:
        raise AssertionError("loop start mismatch")
    for c in (c1, c2):
        if c.state != c0.state or c.top != c0.top or c.height < c0.height:
            raise AssertionError("loop does not pump")
    if min(c.height for c in run.configurations[k:]) < c0.height:
        raise AssertionError("loop dips below its start level")
    if not any(t.label is not None for t in w.loop):
        raise AssertionError("loop has no letter transition")
    if max(t.color for t in w.loop) % 2 != 0:
        raise AssertionError("loop max color is odd")


def normalize_colors(pda: OmegaPDA) -> OmegaPDA:
    """Language-equivalent automaton with color-0 epsilon transitions.

    A pending component accumulates the maximal color seen along an epsilon
    sequence; letter transitions flush it, shifted up by 2 to stay nonzero
    and parity-faithful.
    """

    def name(q: str, p: Optional[int]) -> str:
        return f"{q}~{'-' if p is None else p}"

    by_source: dict[str, list[Transition]] = {}
    for t in pda.transitions:
        by_source.setdefault(t.source, []).append(t)

    def bump(p: Optional[int], c: int) -> int:
        return c if p is None else max(p, c)

    start = (pda.initial, None)
    seen = {start}
    queue = deque([start])
    states = [start]
    transitions = []
    while queue:
        q, p = queue.popleft()
        for t in by_source.get(q, ()):
            if t.label is None:
                nxt = (t.target, bump(p, t.color))
                color = 0
            else:
                nxt = (t.target, None)
                color = bump(p, t.color) + 2
            transitions.append(
                Transition(name(q, p), t.top, t.label, name(*nxt), t.push, color)
            )
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                queue.append(nxt)
    return OmegaPDA(
        tuple(name(*s) for s in states),
        pda.input_alphabet,
        pda.stack_alphabet,
        name(*start),
        tuple(transitions),
    )


def full_lasso_product(pda: OmegaPDA, w: LassoWord) -> OmegaPDA:
    """Product with the |u|+|v| position tracker over every (transition, position) pair.

    The unrestricted product, reachable or not: the reference for the part
    that membership's head-driven pass (``analysis._lasso_heads``) reaches.
    """
    n = w.positions()

    def name(q: str, i: int) -> str:
        return f"{q}@{i}"

    transitions = []
    for t in pda.transitions:
        for i in range(n):
            if t.label is None:
                transitions.append(
                    Transition(name(t.source, i), t.top, None, name(t.target, i), t.push, t.color)
                )
            elif w.letter_at(i) == t.label:
                transitions.append(
                    Transition(
                        name(t.source, i), t.top, t.label,
                        name(t.target, w.next_position(i)), t.push, t.color,
                    )
                )
    states = tuple(name(q, i) for q in pda.states for i in range(n))
    return OmegaPDA(
        states, pda.input_alphabet, pda.stack_alphabet, name(pda.initial, 0), tuple(transitions)
    )


def det_run_accepts(pda: OmegaPDA, w: LassoWord) -> bool:
    """Exact membership of ``w`` for a deterministic automaton, by replaying
    its unique run, with no code of ``analysis``: the run repeats forever
    from the second of two configurations with the same lasso position,
    state and top, if the stack did not dip below the first's height in
    between.  The max color between them decides; if no letter was read
    there, the run diverges on epsilon and ``w`` is rejected, as it is when
    the run gets stuck."""
    assert is_deterministic(pda)[0]
    rule = {(t.source, t.top, t.label): t for t in pda.transitions}
    c, position, letters = pda.initial_configuration(), 0, 0
    colors: list[int] = []
    marks: dict[tuple, tuple[int, int]] = {}  # key -> (colors so far, letters read)
    open_keys: list[tuple[tuple, int]] = []  # (key, height), heights nondecreasing
    while True:
        while open_keys and open_keys[-1][1] > c.height:  # a dip drops the keys above
            del marks[open_keys.pop()[0]]
        key = (position, c.state, c.top)
        if key in marks:
            first, read = marks[key]
            return letters > read and max(colors[first:]) % 2 == 0
        marks[key] = (len(colors), letters)
        open_keys.append((key, c.height))
        t = rule.get((c.state, c.top, None)) or rule.get((c.state, c.top, w.letter_at(letters)))
        if t is None:
            return False
        c = step(c, t)
        colors.append(t.color)
        if t.label is not None:
            letters += 1
            position = w.next_position(position)


# ---------------------------------------------------------------------------
# Closure oracles: direct DPA simulation and Zielonka-tree memory verdicts.
# ---------------------------------------------------------------------------


def dpa_lasso_verdict(dpa: DeterministicParityAutomaton, w: LassoWord) -> bool:
    """Direct deterministic simulation of the unique run on ``u . v^omega``."""
    state = dpa.initial
    for a in w.prefix:
        state = dpa.delta[(state, a)]
    seen: dict[tuple[str, int], int] = {}
    trace: list[int] = []
    pos = 0
    while (state, pos) not in seen:
        seen[(state, pos)] = len(trace)
        a = w.loop[pos]
        trace.append(dpa.colors[(state, a)])
        state = dpa.delta[(state, a)]
        pos = (pos + 1) % len(w.loop)
    start = seen[(state, pos)]
    return max(trace[start:]) % 2 == 0


def cycle_dpa(alphabet, n=6):
    """Two states swapped by every letter; the colors of the (state, letter)
    pairs cycle through 0..n-1."""
    keys = [(q, a) for q in ("d0", "d1") for a in alphabet]
    return DeterministicParityAutomaton(
        ("d0", "d1"), tuple(alphabet), "d0",
        {(q, a): "d1" if q == "d0" else "d0" for q, a in keys},
        {key: i % n for i, key in enumerate(keys)},
    )


def zielonka_verdict(mode: str, pairs: list[tuple[int, int]], loop_from: int) -> bool:
    """Parity verdict of the Zielonka-tree memory over ``set(pairs)`` on the
    sequence ``pairs[:loop_from] . pairs[loop_from:]^omega``: its moves are
    driven until a (leaf, loop position) pair repeats, and the max color on
    that cycle decides."""
    move = zielonka_tree(mode, set(pairs))[1]
    leaf = 0
    for p in pairs[:loop_from]:
        leaf = move(leaf, p)[0]
    loop = pairs[loop_from:]
    seen: dict[tuple[int, int], int] = {}
    colors: list[int] = []
    pos = 0
    while (leaf, pos) not in seen:
        seen[(leaf, pos)] = len(colors)
        leaf, color = move(leaf, loop[pos])
        colors.append(color)
        pos = (pos + 1) % len(loop)
    return max(colors[seen[(leaf, pos)]:]) % 2 == 0


# ---------------------------------------------------------------------------
# Games: block encodings, embedded finite games, strategy responses.
# ---------------------------------------------------------------------------


def encode_blocks(spec: GaleStewartSpec, info: PdInfo, pairs, transitions) -> list[str]:
    """Block encoding of (pair word, condition run) for ``build_pd(spec)``
    with ``info``; fillers repeat a1."""
    letter_of = {pair: letter for letter, pair in spec.pairing.items()}
    out = []
    i = 0
    for a1, a2 in pairs:
        out.append(pair_id(a1, a2))
        block_letter = None
        while block_letter is None:
            if i >= len(transitions):
                raise ValueError("run ended before processing the pair word")
            t = transitions[i]
            i += 1
            out.append(pair_id(a1, info.transition_ids[t]))
            block_letter = t.label
        if block_letter != letter_of[(a1, a2)]:
            raise ValueError(f"run processes {block_letter!r}, word has ({a1},{a2})")
    if i != len(transitions):
        raise ValueError("trailing transitions after the pair word")
    return out


def decode_blocks(info: PdInfo, letters) -> tuple[list[tuple[str, str]], list[Transition]]:
    """Inverse of ``encode_blocks``; raises on malformed input."""
    pairs: list[tuple[str, str]] = []
    transitions: list[Transition] = []
    expecting_pair = True
    for letter in letters:
        a1, y = info.rounds[letter]
        if expecting_pair:
            if y not in info.sigma2:
                raise ValueError(f"expected a pair letter, got {letter!r}")
            pairs.append((a1, y))
            expecting_pair = False
        else:
            if y in info.sigma2:
                raise ValueError(f"expected a transition letter, got {letter!r}")
            t = info.transition_of[y]
            transitions.append(t)
            if t.label is not None:
                expecting_pair = True
    return pairs, transitions


def block_solve(spec: GaleStewartSpec, budget: int = 5_000_000) -> GsResult:
    """``solve_gale_stewart`` on ``build_pd``'s block automaton, whatever the
    condition: the paper's reduction, the reference for the direct game that
    ``solve_gale_stewart`` plays on a deterministic epsilon-free condition."""
    pd, info = build_pd(spec)
    game = gs_to_pushdown_game(pd, info)
    res = solve_pushdown_parity_game(game, budget)
    sound = res.winner == EVE or spec.gfg_claimed or is_deterministic(spec.condition)[0]
    return GsResult(res.winner, sound, info, game, res)


def three_kind_arena(dpda: OmegaPDA, info: PdInfo) -> PushdownParityGame:
    """The Gale-Stewart arena with a third vertex kind, kept as the reference
    for ``gs_to_pushdown_game``: Eve's move goes to ``("S", q, x1, y)``,
    which fires the dpda's transition on the pair letter by a forced move.

    Turn-based arena: Adam picks a letter of ``info.sigma1``, Eve one of
    ``info.y_values``, then the unique dpda transitions on the letter of
    their round in ``info.rounds`` fire with their own colors.

    Letter-choice moves carry the minimal color.  Winner correspondence with
    the Gale-Stewart game requires that the dpda cannot starve on epsilon
    transitions (the block automata built here are epsilon-free).
    """
    det, pairs = is_deterministic(dpda)
    if not det:
        raise ValueError(f"arena needs a deterministic automaton: {pairs[:1]}")
    cmin = min((t.color for t in dpda.transitions), default=0)
    sources: dict[str, set[str]] = {}  # letter -> states with a transition on it
    for t in dpda.transitions:
        if t.label is not None:
            sources.setdefault(t.label, set()).add(t.source)
    sigma1 = info.sigma1
    letter_of = {pair: letter for letter, pair in info.rounds.items()}
    choices: dict[tuple[str, str], list[str]] = {}  # (q, x1) -> Eve's y, y_values order
    for y in info.y_values:
        for x1 in sigma1:
            for q in sources.get(letter_of[(x1, y)], ()):
                choices.setdefault((q, x1), []).append(y)
    gb = dpda.gamma_bottom

    def expand(order):
        for u, v in enumerate(order):
            if v[0] == "A":
                for x1 in sigma1:
                    tgt = ("E", v[1], x1)
                    for x in gb:
                        yield u, cmin, tgt, GameMove(v, x, tgt, (x,), cmin)
            elif v[0] == "E":
                _, q, x1 = v
                for y in choices.get((q, x1), ()):
                    tgt = ("S", q, x1, y)
                    for x in gb:
                        yield u, cmin, tgt, GameMove(v, x, tgt, (x,), cmin)
            else:
                _, q, x1, y = v
                letter = letter_of[(x1, y)]
                for x in gb:  # deterministic: an epsilon excludes a letter
                    t = next((t for t in dpda.by_source_top.get((q, x), ())
                              if t.label is None or t.label == letter), None)
                    if t is not None:
                        tgt = ("S", t.target, x1, y) if t.label is None else ("A", t.target)
                        yield u, t.color, tgt, GameMove(v, x, tgt, t.push, t.color)

    states, _, moves = explore(("A", dpda.initial), expand)
    owner = {v: ADAM if v[0] == "A" else EVE for v in states}
    return PushdownParityGame(tuple(states), dpda.stack_alphabet, states[0], owner, tuple(moves))


def embed_finite_game(g: FiniteParityGame, initial) -> PushdownParityGame:
    """A finite parity game as a stackless pushdown game."""
    moves = tuple(GameMove(u, BOTTOM, v, (BOTTOM,), c) for (u, c, v) in g.edges)
    return PushdownParityGame(g.vertices, (), initial, dict(g.owner), moves)


def dual_game(game: PushdownParityGame) -> PushdownParityGame:
    """The same arena with the owners swapped and every color one higher."""
    owner = {s: ADAM if o == EVE else EVE for s, o in game.owner.items()}
    moves = tuple(GameMove(m.source, m.top, m.target, m.push, m.color + 1) for m in game.moves)
    return PushdownParityGame(game.states, game.stack_alphabet, game.initial, owner, moves)


def interval_iteration(game: PushdownParityGame, budget: int) -> Optional[tuple[str, int]]:
    """The winner by interval iteration at heights 1, 2, ... on
    ``FiniteParityGame`` truncations and the height that decided, or None
    once their vertices exceed ``budget``.  Overflow edges go to a paradise
    vertex whose loop is won by one player at a time; a player who wins the
    truncation where the paradise is their opponent's wins the game.  No
    solve is skipped: when Eve loses her pessimistic truncation, Adam's is
    solved too."""
    cmax = max((m.color for m in game.moves), default=0)
    even = cmax + 2 - cmax % 2
    start = (game.initial, (BOTTOM,))
    total = 0
    for height in itertools.count(1):
        seen, edges, queue = {start}, [], deque([start])
        while queue:
            cfg = queue.popleft()
            for m in game.moves_at.get((cfg[0], cfg[1][-1]), ()):
                nxt = (m.target, cfg[1][:-1] + m.push)
                if len(nxt[1]) - 1 > height:
                    nxt = "paradise"
                elif nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                edges.append((cfg, m.color, nxt))
        total += len(seen)
        if total > budget:
            return None
        owner = {cfg: game.owner[cfg[0]] for cfg in seen}
        owner["paradise"] = EVE
        for player, color in ((EVE, even + 1), (ADAM, even)):
            g = FiniteParityGame(tuple(owner), owner,
                                 tuple(edges) + (("paradise", color, "paradise"),))
            if solve_finite_parity_game(g).winner_of(start) == player:
                return player, height


def random_spec(rng: random.Random, max_states: int = 4) -> GaleStewartSpec:
    """sigma1 = {a, b}, sigma2 = {x, y}, 1 to ``max_states`` states, optional
    stack symbol N, colors 0..3; about a third of the (state, letter) pairs
    have no move.  With 4 states these are the draws of the benchmark's
    spec corpus, so seed 940 gives that corpus."""
    sigma1, sigma2 = ("a", "b"), ("x", "y")
    letters = [pair_id(a, b) for a in sigma1 for b in sigma2]
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    stack = ("N",) if rng.random() < 0.6 else ()
    ts = []
    for q in states:
        for letter in letters:
            if rng.random() < 0.35:
                continue
            for top in (BOTTOM,) + stack:
                if rng.random() < 0.2:
                    continue
                kind = rng.randrange(3)
                if not stack:
                    push = (top,)
                elif kind == 0:
                    push = (top,) if top == BOTTOM else ()
                elif kind == 1:
                    push = (top, "N")
                else:
                    push = (top,)
                ts.append(Transition(q, top, letter, rng.choice(states), push, rng.randint(0, 3)))
    cond = OmegaPDA(states, tuple(letters), stack, states[0], tuple(ts))
    pairing = {pair_id(a, b): (a, b) for a in sigma1 for b in sigma2}
    return GaleStewartSpec(sigma1, sigma2, cond, pairing, True)


def respond(strategy: StrategyPDT, word) -> str:
    """The strategy's answer to the last letter of a nonempty word."""
    cfg = strategy.machine.start()
    out = None
    for a in word:
        cfg, out = strategy.round(cfg, a)
    if out is None:
        raise ValueError("strategies are defined on nonempty words")
    return out


def epsilon_recursion(depth: int) -> OmegaPDA:
    """A deterministic automaton whose first ``a`` follows an epsilon recursion
    of ``depth`` levels.  Call ``c<k>`` pushes its return point ``A<k>``, runs
    ``c<k-1>``, swaps ``A<k>`` for ``B<k>`` in ``ret``, runs ``c<k-1>`` again
    and pops ``B<k>``; ``c0`` returns through ``leaf``.  The chain takes
    5 * 2**depth - 3 steps, peaks at height ``depth`` and ends in ``ret`` on
    the bottom, which loops on ``a`` with color 0."""
    symbols = tuple(f"{x}{k}" for k in range(1, depth + 1) for x in "AB")
    ts = [Transition("ret", BOTTOM, "a", "ret", (BOTTOM,), 0)]
    for k in range(depth + 1):
        tops = (BOTTOM,) if k == depth else (f"A{k + 1}", f"B{k + 1}")
        if k == 0:
            ts += [Transition("c0", x, None, "leaf", (x,), 0) for x in tops]
            ts += [Transition("leaf", x, None, "ret", (x,), 0) for x in tops]
        else:
            ts += [Transition(f"c{k}", x, None, f"c{k - 1}", (x, f"A{k}"), 0) for x in tops]
            ts += [Transition("ret", f"A{k}", None, f"c{k - 1}", (f"B{k}",), 0),
                   Transition("ret", f"B{k}", None, "ret", (), 0)]
    states = tuple(f"c{k}" for k in range(depth, -1, -1)) + ("leaf", "ret")
    return OmegaPDA(states, ("a",), symbols, f"c{depth}", tuple(ts))


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
    exercises epsilon handling in blocks and in the epsilon rules by which
    ``strategy_of`` builds the run."""
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


def random_hard_finite_game(rng: random.Random) -> FiniteParityGame:
    """Like ``random_finite_game``, but with colors 0..6, vertices of either
    owner without an out-edge, and parallel edges of different colors."""
    n = rng.randint(2, 7)
    vertices = tuple(f"v{i}" for i in range(n))
    owner = {v: rng.choice((EVE, ADAM)) for v in vertices}
    edges = []
    for v in vertices:
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            edges.append((v, rng.randint(0, 6), rng.choice(vertices)))
            if rng.random() < 0.25:
                edges.append((v, (edges[-1][1] + rng.randint(1, 6)) % 7, edges[-1][2]))
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


def condition_word(spec: GaleStewartSpec, w: LassoWord) -> LassoWord:
    """A play's outcome ``w``, over ``pair_id`` letters, as a word of the
    condition: each pair read through ``spec.pairing``."""
    letter_of = {pair_id(a1, a2): letter for letter, (a1, a2) in spec.pairing.items()}
    return LassoWord(tuple(letter_of[a] for a in w.prefix), tuple(letter_of[a] for a in w.loop))


def game_membership(pda: OmegaPDA, w: LassoWord, budget: int = 200_000) -> bool:
    """Does ``pda`` accept ``w``?  The lasso as a one-player pushdown parity
    game, solved by ``solve_pushdown_parity_game``: a reference for
    ``lasso_membership`` that shares no code with its heads.  Every vertex
    ``(q, i, m)`` is Eve's, ``i`` the position of the next letter and ``m``
    the max color since the last letter (-1 for none).  A letter step has
    color ``max(m, t.color) + 2`` and an epsilon step color 1, so a run that
    ends in epsilon steps loses and any other keeps its max recurring color's
    parity."""
    start = (pda.initial, 0, -1)
    order, moves, queue = {start: None}, [], deque([start])
    while queue:
        v = queue.popleft()
        q, i, m = v
        for t in pda.transitions:
            if t.source != q or t.label not in (None, w.letter_at(i)):
                continue
            if t.label is None:
                target, color = (t.target, i, max(m, t.color)), 1
            else:
                target, color = (t.target, w.next_position(i), -1), max(m, t.color) + 2
            moves.append(GameMove(v, t.top, target, t.push, color))
            if target not in order:
                order[target] = None
                queue.append(target)
    game = PushdownParityGame(tuple(order), pda.stack_alphabet, start,
                              dict.fromkeys(order, EVE), tuple(moves))
    return solve_pushdown_parity_game(game, budget).winner == EVE


def random_adam_lassos(rng: random.Random, sigma1, count: int) -> list[LassoWord]:
    out = []
    for _ in range(count):
        u = tuple(rng.choice(sigma1) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(sigma1) for _ in range(rng.randint(1, 3)))
        out.append(LassoWord(u, v))
    return out
