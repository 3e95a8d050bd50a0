import collections
import hashlib
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc

import pytest

import gfgpda
from gfgpda import analysis, zoo
from gfgpda.core import (
    BOTTOM, LassoWord, OmegaPDA, PdaError, Transition, is_deterministic, parse_lasso,
)
from gfgpda.games import (
    ADAM,
    EVE,
    ClaimGame,
    FiniteParityGame,
    GaleStewartSpec,
    GameMove,
    GsResult,
    Player1Wins,
    PushdownParityGame,
    PushdownSolveResult,
    ResourceExceeded,
    StrategyPDT,
    _own_pd,
    build_pd,
    compose_sigma_d,
    format_gs_spec,
    format_strategy_pdt,
    gs_to_pushdown_game,
    make_universality_spec,
    pair_id,
    parse_gs_spec,
    parse_strategy_pdt,
    simulate_play,
    solve_claim_game,
    solve_finite_parity_game,
    solve_gale_stewart,
    solve_parity_ids,
    solve_pushdown_parity_game,
    strategy_of,
    synthesize_strategy_pdt,
    universality,
)
from gfgpda.resolvers import DetPushdown, periodic_split

from helpers import (
    _strategy_wins,
    block_solve,
    condition_word,
    copycat_spec,
    decode_blocks,
    det_run_accepts,
    dual_game,
    embed_finite_game,
    encode_blocks,
    eps_block_spec,
    finite_game_oracle,
    full_lasso_product,
    interval_iteration,
    pq_drain_spec,
    random_adam_lassos,
    random_finite_game,
    random_hard_finite_game,
    random_spec,
    respond,
    three_kind_arena,
)


# -- build_pd ----------------------------------------------------------------------


def test_build_pd_deterministic_on_fixtures():
    for fx_name in ("figure1", "example23", "lss", "parity2"):
        spec = make_universality_spec(zoo.get(fx_name).automaton)
        pd, _ = build_pd(spec)
        ok, pairs = is_deterministic(pd)
        assert ok, (fx_name, pairs[:1])
        assert not any(t.label is None for t in pd.transitions)


def test_build_pd_size_polynomial():
    for fx_name in ("figure1", "example23", "lss"):
        cond = zoo.get(fx_name).automaton
        spec = make_universality_spec(cond)
        pd, _ = build_pd(spec)
        colors = max(t.color for t in cond.transitions) + 2
        c = 1 + len(spec.sigma1) * len(spec.sigma2) * (colors + 2)
        assert len(pd.states) <= c * len(cond.states)


def test_build_pd_refuses_an_invalid_spec():
    spec = copycat_spec()
    pairing = dict(list(spec.pairing.items())[1:])
    with pytest.raises(ValueError, match="pairing does not cover sigma1 x sigma2"):
        build_pd(GaleStewartSpec(spec.sigma1, spec.sigma2, spec.condition, pairing))


def test_build_pd_accepts_encoded_accepting_run():
    # block word for the q1-branch run of figure1 on a word with finitely many a's
    fx = zoo.figure1()
    spec = make_universality_spec(fx.automaton)
    pd, info = build_pd(spec)
    t = fx.automaton.transitions
    # (a,#) via i->q1, then b's looping at q1 (white, color 2): accepting
    prefix_pairs = [("a", "#")]
    prefix_run = [t[0]]
    loop_pairs = [("b", "#")]
    loop_run = [t[5]]
    enc_prefix = encode_blocks(spec, info, prefix_pairs, prefix_run)
    enc_loop = encode_blocks(spec, info, loop_pairs, loop_run)
    w = LassoWord(tuple(enc_prefix), tuple(enc_loop))
    assert analysis.lasso_membership(pd, w)
    # the rejecting branch: staying on the black state forever
    loop_pairs_bad = [("a", "#")]
    loop_run_bad = [t[6]]
    stem = encode_blocks(spec, info, [("a", "#")], [t[0]]) + encode_blocks(
        spec, info, [("a", "#")], [t[4]]
    )
    enc_bad = encode_blocks(spec, info, loop_pairs_bad, loop_run_bad)
    assert not analysis.lasso_membership(pd, LassoWord(tuple(stem), tuple(enc_bad)))


def test_build_pd_rejects_run_construction_starvation():
    # repeating only epsilon-transition reads never completes a block
    spec = eps_block_spec()
    pd, info = build_pd(spec)
    eps_t = spec.condition.transitions[0]
    letter = pair_id("a", info.transition_ids[eps_t])
    pair = pair_id("a", "z")
    assert not analysis.lasso_membership(pd, LassoWord((pair,), (letter,)))
    # while the well-formed encoding is accepted (epsilon fires once, at the start)
    t0, t1 = spec.condition.transitions
    good_prefix = encode_blocks(spec, info, [("a", "z")], [t0, t1])
    good_loop = encode_blocks(spec, info, [("a", "z")], [t1])
    assert analysis.lasso_membership(pd, LassoWord(tuple(good_prefix), tuple(good_loop)))


def test_pd_decode_inverts_encode():
    fx = zoo.example23()
    spec = make_universality_spec(fx.automaton)
    pd, info = build_pd(spec)
    w = parse_lasso("acd;#")
    split = periodic_split(spec.condition, fx.resolver, w)
    assert split.verdict == "accepted"
    pairs = [(w.letter_at(i), "#") for i in range(split.stem_letters + split.loop_letters)]
    letters = encode_blocks(spec, info, pairs, split.stem_transitions + split.loop_transitions)
    back_pairs, back_run = decode_blocks(info, letters)
    assert back_pairs == pairs
    assert tuple(back_run) == split.stem_transitions + split.loop_transitions


# -- arena construction ---------------------------------------------------------------


def test_gs_arena_alternates_owners():
    spec = make_universality_spec(zoo.figure1().automaton)
    pd, info = build_pd(spec)
    game = gs_to_pushdown_game(pd, info)
    for m in game.moves:
        kind_src = m.source[0]
        kind_dst = m.target[0]
        assert (kind_src, kind_dst) in {("A", "E"), ("E", "A")}
        assert game.owner[m.source] == (ADAM if kind_src == "A" else EVE)


def test_gs_arena_forced_colors_match_dpda():
    # Eve's moves at ("E", q, x1) on top x are exactly the block automaton's
    # transitions at (q, x) on the letters of the rounds (x1, y), each carrying y.
    for pd, info in (build_pd(make_universality_spec(zoo.figure1().automaton)),
                     _own_pd(copycat_spec()), build_pd(pq_drain_spec())):
        game = gs_to_pushdown_game(pd, info)
        eve = [v for v in game.states if v[0] == "E"]
        assert eve
        for v in eve:
            _, q, x1 = v
            for x in pd.gamma_bottom:
                want = sorted((y, ("A", t.target), t.push, t.color) for y in info.y_values
                              for t in pd.by_source_top.get((q, x), ())
                              if info.rounds[t.label] == (x1, y))
                got = sorted((m.letter, m.target, m.push, m.color)
                             for m in game.moves_at.get((v, x), ()))
                assert got == want, (v, x)


def test_gs_arena_requires_determinism():
    _, info = build_pd(make_universality_spec(zoo.figure1().automaton))
    with pytest.raises(ValueError, match="deterministic"):
        gs_to_pushdown_game(zoo.example23().automaton, info)


def test_gs_arena_refuses_epsilon_transitions():
    pd, info = _own_pd(copycat_spec())
    eps = Transition("e", BOTTOM, None, pd.initial, (BOTTOM,), 0)
    dpda = OmegaPDA(("e",) + pd.states, pd.input_alphabet, pd.stack_alphabet, "e",
                    (eps,) + pd.transitions)
    assert is_deterministic(dpda)[0]
    with pytest.raises(ValueError, match="epsilon"):
        gs_to_pushdown_game(dpda, info)


def _arena_outcome(arena, pd, info):
    try:
        return solve_pushdown_parity_game(arena(pd, info), budget=5_000).winner
    except ResourceExceeded:
        return ResourceExceeded


def test_two_kind_arena_matches_the_three_kind_reference():
    # The benchmark's seed-940 spec corpus, the fixtures' universality specs,
    # 200 more random specs and the named specs, each on build_pd's block
    # automaton and, for a deterministic epsilon-free condition, its own.
    seed940, draws = random.Random(940), random.Random(30)
    specs = [random_spec(seed940) for _ in range(150)]
    specs += [make_universality_spec(fx.automaton) for fx in zoo.all_fixtures()]
    specs += [random_spec(draws) for _ in range(200)]
    specs += [copycat_spec(), pq_drain_spec(), eps_block_spec()]
    arenas = 0
    for i, spec in enumerate(specs):
        blocks = [build_pd(spec)]
        cond = spec.condition
        if is_deterministic(cond)[0] and all(t.label is not None for t in cond.transitions):
            blocks.append(_own_pd(spec))
        for pd, info in blocks:
            arenas += 1
            assert (_arena_outcome(gs_to_pushdown_game, pd, info)
                    == _arena_outcome(three_kind_arena, pd, info)), i
    assert arenas > len(specs)


# -- finite parity games ----------------------------------------------------------------


def test_zielonka_trivial_loops():
    g = FiniteParityGame(("v",), {"v": EVE}, (("v", 0, "v"),))
    assert solve_finite_parity_game(g).winner_of("v") == EVE
    g = FiniteParityGame(("v",), {"v": EVE}, (("v", 1, "v"),))
    assert solve_finite_parity_game(g).winner_of("v") == ADAM
    g = FiniteParityGame(("v",), {"v": ADAM}, (("v", 1, "v"),))
    assert solve_finite_parity_game(g).winner_of("v") == ADAM


def test_zielonka_dead_ends_lose_for_owner():
    g = FiniteParityGame(("v", "w"), {"v": EVE, "w": ADAM}, (("v", 0, "w"),))
    res = solve_finite_parity_game(g)
    assert res.winner_of("w") == EVE  # Adam is stuck at w
    assert res.winner_of("v") == EVE


def test_zielonka_matches_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_finite_game(rng)
        res = solve_finite_parity_game(g)
        for v in g.vertices:
            assert res.winner_of(v) == finite_game_oracle(g, v), (g, v)


def _check_finite_strategies(g: FiniteParityGame, res) -> None:
    # Each player's strategy takes an edge of g at their own vertices and
    # wins from every vertex of their region: Eve's on the game itself,
    # Adam's as Eve's on the dual game (owners swapped, colors shifted by one).
    dual = FiniteParityGame(
        g.vertices, {v: ADAM if o == EVE else EVE for v, o in g.owner.items()},
        tuple((u, c + 1, w) for u, c, w in g.edges),
    )
    for player, game in ((EVE, g), (ADAM, dual)):
        for v, i in res.strategy[player].items():
            assert i < len(g.edges) and g.edges[i][0] == v and g.owner[v] == player, (g, v)
        sigma = {v: game.edges[i][1:] for v, i in res.strategy[player].items()}
        for v0 in res.winning[player]:
            assert _strategy_wins(game, sigma, v0), (g, player, v0)


def test_zielonka_strategies_pass_play_check():
    rng = random.Random(7)
    for _ in range(25):
        g = random_finite_game(rng)
        _check_finite_strategies(g, solve_finite_parity_game(g))


def test_zielonka_on_dead_ends_parallel_edges_and_seven_colors():
    rng = random.Random(16)
    seen: set = set()
    for _ in range(150):
        g = random_hard_finite_game(rng)
        res = solve_finite_parity_game(g)
        for v in g.vertices:
            assert res.winner_of(v) == finite_game_oracle(g, v), (g, v)
        _check_finite_strategies(g, res)
        sources = {u for u, _, _ in g.edges}
        seen |= {g.owner[v] for v in g.vertices if v not in sources}
        seen |= {c for _, c, _ in g.edges}
        colors: dict = {}
        for u, c, w in g.edges:
            colors.setdefault((u, w), set()).add(c)
        seen |= {"parallel" for cs in colors.values() if len(cs) > 1}
    # Dead ends of both owners, parallel edges and every color 0..6 occur.
    assert seen == {EVE, ADAM, "parallel", *range(7)}


def _deep_nesting_cycle(n: int = 400) -> FiniteParityGame:
    return FiniteParityGame(
        tuple(range(n)), {v: EVE if v % 2 == 0 else ADAM for v in range(n)},
        tuple((i, i, (i + 1) % n) for i in range(n)) + tuple((i, 0, i) for i in range(n)),
    )


def test_zielonka_deep_nesting_cycle():
    # Edge i of the cycle has color i, so the solver nests a level per color;
    # Eve wins everywhere because she can stay on her color-0 loop.
    n = 400
    g = _deep_nesting_cycle(n)
    res = solve_finite_parity_game(g)
    assert res.winning[EVE] == frozenset(range(n))
    sigma = {v: g.edges[i][1:] for v, i in res.strategy[EVE].items()}
    for v0 in (0, 1, n // 2, n - 1):
        assert _strategy_wins(g, sigma, v0), v0


def test_strategy_check_sees_every_odd_color():
    # Eve's only strategy lets Adam close a cycle whose top color is 5.
    owner = {"e": EVE, "a": ADAM}
    odd = FiniteParityGame(("e", "a"), owner, (("e", 4, "a"), ("a", 5, "e")))
    assert not _strategy_wins(odd, {"e": (4, "a")}, "e")
    assert finite_game_oracle(odd, "e") == ADAM
    assert solve_finite_parity_game(odd).winner_of("e") == ADAM
    even = FiniteParityGame(("e", "a"), owner, (("e", 4, "a"), ("a", 6, "e")))
    assert _strategy_wins(even, {"e": (4, "a")}, "e")


def test_zielonka_leaves_no_process_global_state():
    n = 3000
    cycle = FiniteParityGame(
        tuple(range(n)), {v: EVE if v % 2 == 0 else ADAM for v in range(n)},
        tuple((i, i, (i + 1) % n) for i in range(n)),
    )
    limit, threads = sys.getrecursionlimit(), threading.active_count()
    assert solve_finite_parity_game(cycle).winning[ADAM] == frozenset(range(n))
    # Disjoint loops of colors 0, 2, 4, ... nest one subgame per color,
    # deeper than the default recursion limit of 1000.
    loops = FiniteParityGame(
        tuple(range(1200)), {v: ADAM for v in range(1200)},
        tuple((i, 2 * i, i) for i in range(1200)),
    )
    assert solve_finite_parity_game(loops).winning[EVE] == frozenset(range(1200))
    assert sys.getrecursionlimit() == limit
    assert threading.active_count() == threads


def _with_dead_ends(rng: random.Random):
    # random_finite_game draws with the edges of one vertex removed, and
    # random_hard_finite_game draws that have a dead end.
    while True:
        g = random_finite_game(rng)
        dead = rng.choice(g.vertices)
        yield FiniteParityGame(g.vertices, g.owner, tuple(e for e in g.edges if e[0] != dead))
        g = random_hard_finite_game(rng)
        if set(g.vertices) - {u for u, _, _ in g.edges}:
            yield g


def test_zielonka_on_dead_ends_is_exact_and_takes_no_dead_end_loop():
    # Each winning region is exact, each strategy wins, and each strategy
    # edge index is an edge of its vertex or the k-th dead end's own loop,
    # len(edges) + k.
    draws = _with_dead_ends(random.Random(39))
    for _ in range(120):
        g = next(draws)
        index = {v: i for i, v in enumerate(g.vertices)}
        edges = [(index[u], c, index[w]) for u, c, w in g.edges]
        wins, strats = solve_parity_ids([g.owner[v] for v in g.vertices], edges)
        sources = {u for u, _, _ in edges}
        dead = [v for v in range(len(g.vertices)) if v not in sources]
        loop = {v: len(edges) + k for k, v in enumerate(dead)}
        for v, name in enumerate(g.vertices):
            assert (v in wins[EVE], v in wins[ADAM]) == \
                ((True, False) if finite_game_oracle(g, name) == EVE else (False, True)), (g, v)
        for player in (EVE, ADAM):
            for v, j in strats[player].items():
                assert j == loop.get(v) or j < len(edges) and edges[j][0] == v, (g, v, j)
        _check_finite_strategies(g, solve_finite_parity_game(g))


def test_zielonka_top_attractor_takes_every_vertex():
    # Eve's edge of the top color 4 attracts b (its one edge leads to e) and
    # then a (both its edges do): no vertex is left for a subgame below.
    g = FiniteParityGame(("e", "a", "b"), {"e": EVE, "a": ADAM, "b": ADAM},
                         (("e", 4, "a"), ("a", 1, "e"), ("a", 3, "b"), ("b", 0, "e"),
                          ("e", 2, "b")))
    res = solve_finite_parity_game(g)
    assert res.winning == {EVE: frozenset(g.vertices), ADAM: frozenset()}
    assert res.strategy == {EVE: {"e": 0}, ADAM: {}}
    _check_finite_strategies(g, res)


def _kernel_draws():
    # 150 draws each of random_finite_game and random_hard_finite_game (dead
    # ends, parallel edges, seven colors), and the deep-nesting cycle.
    rng = random.Random(41)
    draws = [draw(rng) for _ in range(150)
             for draw in (random_finite_game, random_hard_finite_game)]
    for g in draws + [_deep_nesting_cycle()]:
        index = {v: i for i, v in enumerate(g.vertices)}
        yield [g.owner[v] for v in g.vertices], [(index[u], c, index[w]) for u, c, w in g.edges]


# SHA-256 of solve_parity_ids' winning regions and strategy maps on
# _kernel_draws(), taken before the kernel's inner loops were rewritten for
# speed: the rewrite must not move a win or a strategy edge.
KERNEL_DIGEST = "161c9ff15915948b801798fd4f6955b7c4acc507c0cf33c7d51f64f43921b5e0"


def test_finite_kernel_output_is_pinned():
    h = hashlib.sha256()
    for owner, edges in _kernel_draws():
        wins, strats = solve_parity_ids(owner, edges)
        h.update(repr([(sorted(wins[p]), sorted(strats[p].items())) for p in (EVE, ADAM)])
                 .encode())
    assert h.hexdigest() == KERNEL_DIGEST


def test_strategy_rules_cover_tops_found_after_a_pop():
    # In this claim-decided spec's block-path strategy a pushed symbol is
    # pushed onto a new top after its pop was already recorded: each state
    # that pop reaches needs a rule for the new top too, or plays hit an
    # undefined output.
    spec = random_spec(random.Random(1137), 3)
    gs = block_solve(spec, budget=5_000)
    assert gs.winner == EVE and gs.solve.stats["decided_by"] == "claims"
    strategy = strategy_of(gs)
    machine = strategy.machine
    assert is_deterministic(machine)[0]
    sizes = len(machine.states), len(machine.transitions), len(machine.stack_alphabet)
    assert sizes == (13, 44, 3)
    for adam in random_adam_lassos(random.Random(3), spec.sigma1, 60):
        outcome = simulate_play(strategy, adam)
        assert analysis.lasso_membership(spec.condition, condition_word(spec, outcome)), \
            (adam, outcome)


def test_synthesized_strategy_text_is_independent_of_hash_seed(tmp_path):
    # figure1's universality game is decided by a truncation, spec 7 of the
    # seed-940 corpus by the claim game, whose strategy interns k<i> symbols.
    src = os.path.dirname(os.path.dirname(gfgpda.__file__))
    for name, game in (("figure1u", make_universality_spec(zoo.figure1().automaton)),
                       ("spec7", _claim_decided_specs()[0])):
        spec = tmp_path / f"{name}.gs"
        spec.write_text(format_gs_spec(game))
        texts = []
        for seed in ("0", "1"):
            out = tmp_path / f"{name}-seed{seed}.pdt"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "gfgpda.cli", "synth", str(spec), "-o", str(out)],
                           env=env, check=True, capture_output=True)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1], name


# -- pushdown solver ----------------------------------------------------------------------


def test_pushdown_solver_on_stackless_embeddings_matches_finite():
    rng = random.Random(11)
    for _ in range(30):
        g = random_finite_game(rng)
        finite = solve_finite_parity_game(g)
        for v in g.vertices[:3]:
            game = embed_finite_game(g, v)
            res = solve_pushdown_parity_game(game)
            assert res.winner == finite.winner_of(v), (g, v)


def test_pushdown_solver_one_player_matches_emptiness():
    for name, lasso in [("example23", "acd;#"), ("example23", "acdd;#"), ("lss", ";(-,-)")]:
        fx = zoo.get(name)
        product = full_lasso_product(fx.automaton, parse_lasso(lasso))
        moves = tuple(
            GameMove(t.source, t.top, t.target, t.push, t.color) for t in product.transitions
        )
        game = PushdownParityGame(
            product.states, product.stack_alphabet, product.initial,
            {q: EVE for q in product.states}, moves,
        )
        res = solve_pushdown_parity_game(game)
        expected = EVE if analysis.parity_nonempty(product) is not None else ADAM
        assert res.winner == expected, (name, lasso)


def test_pushdown_solver_dead_initial():
    game = PushdownParityGame(("v",), (), "v", {"v": EVE}, ())
    assert solve_pushdown_parity_game(game).winner == ADAM


def test_pushdown_solver_budget():
    # Eve can only pump: no truncation is conclusive, and the claim game
    # decides that the one play, of color 1 forever, is Adam's.
    moves = (GameMove("v", BOTTOM, "v", (BOTTOM, "N"), 1),
             GameMove("v", "N", "v", ("N", "N"), 1))
    game = PushdownParityGame(("v",), ("N",), "v", {"v": EVE}, moves)
    res = solve_pushdown_parity_game(game, budget=200)
    assert res.winner == ADAM and res.stats["decided_by"] == "claims"


def _branching_pusher() -> PushdownParityGame:
    # The truncation at height h has 2^(h+1) - 1 vertices: 3, 7 and 15.
    moves = tuple(GameMove("v", top, "v", (top, x), 1)
                  for top in (BOTTOM, "A", "B") for x in ("A", "B"))
    return PushdownParityGame(("v",), ("A", "B"), "v", {"v": EVE}, moves)


def _claiming_popper(pops: int = 2) -> PushdownParityGame:
    # Eve pumps N or pops it to r0, r1, ... with an odd color, so no
    # truncation is conclusive; the universe of (v, N) has pops * (pops + 1)
    # / 2 pairs: 3 pairs, 8 claims per push, for two pops.
    moves = [GameMove("v", BOTTOM, "v", (BOTTOM, "N"), 1), GameMove("v", "N", "v", ("N", "N"), 1)]
    states = ("v",) + tuple(f"r{i}" for i in range(pops))
    for i, r in enumerate(states[1:]):
        moves.append(GameMove("v", "N", r, (), 2 * i + 3))
        moves += [GameMove(r, x, "v", (x,), 1) for x in (BOTTOM, "N")]
    return PushdownParityGame(states, ("N",), "v", {s: EVE for s in states}, tuple(moves))


def test_pushdown_solver_budget_bounds_the_work():
    # The branching pusher crosses the budget in its height-3 truncation
    # (3 + 7 + 15 vertices); the claiming popper in its claim game, after
    # truncations that fit the budget.
    for build, budget, phase in ((_branching_pusher, 20, "truncation"),
                                 (_claiming_popper, 100, "claims")):
        game = build()
        stats = solve_pushdown_parity_game(game).stats
        in_truncations = stats["vertices"] - stats["claim_vertices"]
        assert stats["decided_by"] == "claims"
        assert (in_truncations > budget) == (phase == "truncation"), phase
        expanded = []

        class CountingMoves(dict):
            def get(self, key, default=None):
                expanded.append(key)
                return super().get(key, default)

        game.__dict__["moves_at"] = CountingMoves(game.moves_at)
        out_degree = max(len(ms) for ms in game.moves_at.values())
        with pytest.raises(ResourceExceeded) as exc:
            solve_pushdown_parity_game(game, budget=budget)
        built = int(str(exc.value).split()[0])
        assert budget < built <= budget + out_degree, phase
        assert len(expanded) <= budget, phase


def test_budget_bounds_claim_enumeration():
    # Five pops give a 15-pair universe, 32,768 claims per push: they are
    # enumerated one numbered vertex at a time, not all before the first.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceExceeded, match="^1001 states exceed the budget 1000$"):
            solve_pushdown_parity_game(_claiming_popper(5), budget=1_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_a_spent_budget_numbers_no_claim_vertex():
    # Truncations that used up the whole budget leave the claim game none.
    with pytest.raises(ResourceExceeded, match="^101 states exceed the budget 100$"):
        solve_claim_game(_claiming_popper(), budget=100, total=100)


@pytest.mark.parametrize("moves", [
    # A pop of the bottom: the truncations would index an empty stack.
    (GameMove("v", BOTTOM, "v", (), 0),),
    # A three-symbol push that the height-1 truncation alone would decide.
    (GameMove("v", BOTTOM, "v", (BOTTOM,), 0), GameMove("v", BOTTOM, "v", (BOTTOM, "N", "N"), 1)),
    # A three-symbol push that only the claim game, after its saturation, sees.
    (GameMove("v", BOTTOM, "v", (BOTTOM, "N"), 1), GameMove("v", "N", "v", ("N", "N", "N"), 1)),
    # The bottom above another symbol.
    (GameMove("v", BOTTOM, "v", (BOTTOM, "N"), 0), GameMove("v", "N", "v", ("N", BOTTOM), 0)),
    # A push of an undeclared symbol.
    (GameMove("v", BOTTOM, "v", (BOTTOM, "M"), 0),),
])
def test_malformed_pushdown_games_are_rejected(moves):
    with pytest.raises(ValueError, match=re.escape(f"malformed move {moves[-1]}")):
        PushdownParityGame(("v",), ("N",), "v", {"v": EVE}, moves)


def test_malformed_move_names_its_fault():
    # The pushed symbols are checked before the bottom shape.
    for move in (GameMove("v", "N", "v", ("N", "M"), 0),
                 GameMove("v", BOTTOM, "v", (BOTTOM, "M"), 0)):
        with pytest.raises(ValueError,
                           match=re.escape(f"malformed move {move}: unknown push symbol")):
            PushdownParityGame(("v",), ("N",), "v", {"v": EVE}, (move,))


def test_moves_are_checked_once_per_distinct_shape(monkeypatch):
    # Each distinct (top, push) is checked once; the moves are walked only
    # to name the first faulty one.
    states = tuple(f"p{i}" for i in range(40))
    shapes = ((BOTTOM, (BOTTOM,)), (BOTTOM, (BOTTOM, "N")), ("N", ()), ("N", ("N",)),
              ("N", ("N", "N")))
    moves = tuple(GameMove(p, top, q, push, 0)
                  for p in states for q in states[:5] for top, push in shapes)
    calls = []
    push_fault = gfgpda.games._push_fault
    monkeypatch.setattr(gfgpda.games, "_push_fault",
                        lambda *args: calls.append(args) or push_fault(*args))
    owner = dict.fromkeys(states, EVE)
    PushdownParityGame(states, ("N",), "p0", owner, moves)
    assert len(moves) == 1000 and len(calls) == len(shapes)
    bad = (GameMove("p3", "N", "p0", ("N", "M"), 0), GameMove("p1", "N", "p0", ("N", BOTTOM), 0))
    fault = f"malformed move {bad[0]}: unknown push symbol"
    with pytest.raises(ValueError, match=re.escape(fault)):
        PushdownParityGame(states, ("N",), "p0", owner, moves[:700] + bad + moves[700:])


def _random_pushdown_game(rng: random.Random) -> PushdownParityGame:
    states, syms = ("p0", "p1", "p2", "p3"), ("A", "B")
    moves = []
    for _ in range(14):
        top = rng.choice((BOTTOM,) + syms)
        base = (BOTTOM,) if top == BOTTOM else rng.choice(((), (top,)))
        push = base + rng.choice(((), (rng.choice(syms),)))
        moves.append(GameMove(rng.choice(states), top, rng.choice(states), push,
                              rng.randint(0, 4)))
    owner = {s: rng.choice((EVE, ADAM)) for s in states}
    return PushdownParityGame(states, syms, states[0], owner, tuple(moves))


def _check_eve_strategy(game: PushdownParityGame, res) -> None:
    """Follow Eve's strategy and every Adam move from the start: each reached
    Eve configuration plays one of its own moves, no move leaves the solved
    truncation, and Eve wins the graph of reached configurations."""
    height = res.stats["height"]
    start = (game.initial, (BOTTOM,))
    owner, edges, sigma = {start: game.owner[game.initial]}, [], {}
    queue = [start]
    while queue:
        cfg = queue.pop()
        state, stack = cfg
        moves = game.moves_at.get((state, stack[-1]), [])
        if owner[cfg] == EVE:
            move = res.eve_strategy.get(cfg)
            assert any(move is m for m in moves), (cfg, move)
            moves = [move]
        for m in moves:
            nxt = (m.target, stack[:-1] + m.push)
            assert len(nxt[1]) - 1 <= height, (cfg, m, height)
            edges.append((cfg, m.color, nxt))
            if owner[cfg] == EVE:
                sigma[cfg] = (m.color, nxt)
            if nxt not in owner:
                owner[nxt] = game.owner[m.target]
                queue.append(nxt)
    reached = FiniteParityGame(tuple(owner), owner, tuple(edges))
    assert _strategy_wins(reached, sigma, start)


def _check_claim_strategy(res) -> None:
    """Follow Eve's claim-game choices and every Adam edge from the initial
    vertex: each reached Eve vertex has a choice among its own edges (a
    sink its loop), and Eve wins the graph of reached vertices."""
    cg, choice = res.claim_game, res.eve_strategy
    start = cg.initial()
    owner, edges, sigma = {}, [], {}
    queue = [start]
    while queue:
        vertex = queue.pop()
        who, succ = cg.successors(vertex)
        owner[vertex] = who
        if who == EVE:
            picked = [e for e in succ if vertex in (cg.WIN, cg.LOSE)
                      or e[2] is not None and e[2] == choice.get(vertex)]
            assert len(picked) == 1, (vertex, choice.get(vertex))
            succ = picked
            sigma[vertex] = picked[0][:2]
        for color, nxt, _ in succ:
            edges.append((vertex, color, nxt))
            if nxt not in owner and nxt not in queue:
                queue.append(nxt)
    reached = FiniteParityGame(tuple(owner), owner, tuple(edges))
    assert _strategy_wins(reached, sigma, start)


def test_pushdown_eve_strategy_is_a_strategy_on_its_truncation():
    # A truncation's strategy is checked on the configuration graph, a claim
    # game's on the claim game.
    rng = random.Random(5)
    checked = claimed = 0
    for _ in range(80):
        game = _random_pushdown_game(rng)
        try:
            res = solve_pushdown_parity_game(game, budget=2_000)
        except ResourceExceeded:
            continue
        if res.winner == EVE and res.claim_game is None:
            _check_eve_strategy(game, res)
            checked += 1
        elif res.winner == EVE:
            _check_claim_strategy(res)
            claimed += 1
    assert checked >= 20 and claimed >= 1
    for spec in (copycat_spec(), pq_drain_spec()):
        gs = solve_gale_stewart(spec)
        _check_eve_strategy(gs.game, gs.solve)


# -- claim game ------------------------------------------------------------------------------


def _nested_return() -> PushdownParityGame:
    # Push A, push B, pop B with color 4, pop A with color 0, forever: Eve
    # wins only if the frame of A counts the color 4 of the frame above it.
    moves = (GameMove("p0", BOTTOM, "p1", (BOTTOM, "A"), 0),
             GameMove("p1", "A", "p2", ("A", "B"), 0),
             GameMove("p2", "B", "p3", (), 4),
             GameMove("p3", "A", "p4", (), 0),
             GameMove("p4", BOTTOM, "p0", (BOTTOM,), 1))
    states = ("p0", "p1", "p2", "p3", "p4")
    return PushdownParityGame(states, ("A", "B"), "p0", {s: EVE for s in states}, moves)


def test_claim_game_agrees_with_interval_iteration():
    assert interval_iteration(_nested_return(), 100) == (EVE, 2)
    assert solve_claim_game(_nested_return()).winner == EVE
    rng = random.Random(3)
    decided = 0
    for _ in range(60):
        game = _random_pushdown_game(rng)
        want = interval_iteration(game, 60_000)
        if want is not None:
            assert solve_claim_game(game).winner == want[0], game
            decided += 1
    assert decided >= 50


def _push_or_concede() -> PushdownParityGame:
    # Eve at e pushes A with color 0, or moves to Adam's a, whose loop has
    # color 1.  Every truncation is lost for Eve where the paradise is hers
    # and won where it is Adam's, as pushing reaches it; the claim game
    # lets her push forever.
    moves = tuple(GameMove("e", x, "e", (x, "A"), 0) for x in (BOTTOM, "A"))
    moves += tuple(GameMove(s, x, "a", (x,), c) for s, c in (("e", 0), ("a", 1))
                   for x in (BOTTOM, "A"))
    return PushdownParityGame(("e", "a"), ("A",), "e", {"e": EVE, "a": ADAM}, moves)


def test_truncation_shortcut_agrees_with_interval_iteration(monkeypatch):
    # The helper solves every truncation it needs, the solver skips Adam's
    # pessimistic one when his strategy in Eve's never reaches the paradise:
    # the same winner and the same deciding height (3 once the claim game
    # decides) on 60 random games, the seed-940 specs' arenas and the
    # fixtures' universality arenas.
    reaches, skipped = gfgpda.games._reaches, []

    def counted(*args):
        found = reaches(*args)
        if not found:
            skipped.append(args)
        return found

    monkeypatch.setattr(gfgpda.games, "_reaches", counted)
    rng, base = random.Random(3), random.Random(940)
    games = [_random_pushdown_game(rng) for _ in range(60)]
    games += [solve_gale_stewart(random_spec(base), 5_000).game for _ in range(150)]
    games += [solve_gale_stewart(make_universality_spec(fx.automaton)).game
              for fx in zoo.all_fixtures()]
    heights = collections.Counter()
    for game in games:
        want = interval_iteration(game, 60_000)
        if want is None:
            continue
        res = solve_pushdown_parity_game(game)
        height, phase = min(want[1], 3), "truncation" if want[1] <= 3 else "claims"
        assert (res.winner, res.stats["height"], res.stats["decided_by"]) == \
            (want[0], height, phase), game
        heights[want[1]] += 1
    # 217 decided here, 76 of them with Adam's pessimistic solve skipped.
    assert sum(heights.values()) >= 210 and heights[2] >= 10 and len(skipped) >= 70
    # Adam wins Eve's pessimistic truncations, but Eve's pushes reach the
    # paradise: a shortcut that skipped the second solve would answer ADAM.
    assert interval_iteration(_push_or_concede(), 2_000) is None
    res = solve_pushdown_parity_game(_push_or_concede())
    assert res.winner == EVE and res.stats["decided_by"] == "claims"


def test_a_truncation_without_overflow_is_solved_once_without_paradise(monkeypatch):
    # A stackless embedding never overflows: its first truncation is the
    # whole game, handed to the finite solver as explored, once, and Adam's
    # paradise check never runs.  Where edges overflow, the paradise is the
    # id after the explored configurations, owned by Eve and then by Adam.
    calls, reaches = [], []
    solve = gfgpda.games.solve_parity_ids
    monkeypatch.setattr(gfgpda.games, "solve_parity_ids",
                        lambda owner, edges: calls.append((owner, edges)) or solve(owner, edges))
    found = gfgpda.games._reaches
    monkeypatch.setattr(gfgpda.games, "_reaches",
                        lambda *args: reaches.append(args) or found(*args))
    rng = random.Random(41)
    for _ in range(20):
        g = random_finite_game(rng)
        calls.clear()
        res = solve_pushdown_parity_game(embed_finite_game(g, g.vertices[0]))
        assert res.winner == finite_game_oracle(g, g.vertices[0])
        assert (res.stats["height"], res.stats["decided_by"]) == (1, "truncation")
        reached, queue = {g.vertices[0]}, [g.vertices[0]]
        for u in queue:
            for w in (w for v, _, w in g.edges if v == u and w not in reached):
                reached.add(w)
                queue.append(w)
        assert len(calls) == 1
        owner, edges = calls[0]
        assert len(owner) == len(reached) == res.stats["vertices"]
        assert sorted(owner) == sorted(g.owner[v] for v in reached)
        assert len(edges) == sum(1 for v, _, _ in g.edges if v in reached)
        assert all(v < len(owner) for _, _, v in edges)
    assert reaches == []
    calls.clear()
    res = solve_pushdown_parity_game(_push_or_concede())
    assert res.winner == EVE and res.stats["decided_by"] == "claims"
    # Height 1 explores (e, _), (a, _), (e, _A) and (a, _A); the paradise is
    # id 4, Eve's in the first solve and Adam's in the second.
    for (owner, edges), player in zip(calls, (EVE, ADAM)):
        assert sorted(owner[:4]) == [ADAM, ADAM, EVE, EVE] and owner[4:] == [player]
        assert max(v for _, _, v in edges) == 4
    assert len(calls) == 7 and len(reaches) == 3  # two solves per height, then claims


def test_moves_are_checked_when_built_not_when_solved(monkeypatch):
    calls = []
    push_fault = gfgpda.games._push_fault
    monkeypatch.setattr(gfgpda.games, "_push_fault",
                        lambda *args: calls.append(args) or push_fault(*args))
    for build, phase in ((_push_or_concede, "claims"), (_nested_return, "truncation")):
        calls.clear()
        game = build()
        assert len(calls) == len({(m.top, m.push) for m in game.moves})
        calls.clear()
        assert solve_pushdown_parity_game(game).stats["decided_by"] == phase
        solve_claim_game(game)
        assert calls == []


def test_claim_game_is_determined():
    # The dual game (owners swapped, colors + 1) has the other winner.
    rng = random.Random(4)
    games = [_random_pushdown_game(rng) for _ in range(60)]
    for game in games + [_branching_pusher(), _claiming_popper()]:
        assert solve_claim_game(dual_game(game)).winner != solve_claim_game(game).winner, game


def test_claim_game_on_stackless_embeddings_matches_finite_oracle():
    rng = random.Random(12)
    for _ in range(30):
        g = random_finite_game(rng)
        for v in g.vertices[:3]:
            assert solve_claim_game(embed_finite_game(g, v)).winner == finite_game_oracle(g, v)


def _claim_decided_specs():
    # Specs 7, 77 and 83 of the benchmark's seed-940 corpus: no truncation up
    # to height 3 decides them.
    base = random.Random(940)
    specs = [random_spec(base) for _ in range(84)]
    return [specs[i] for i in (7, 77, 83)]


def test_claim_stack_strategies_win():
    rng = random.Random(13)
    for spec in _claim_decided_specs():
        gs = solve_gale_stewart(spec, budget=5_000)
        assert gs.winner == EVE and gs.solve.stats["decided_by"] == "claims"
        strategy = synthesize_strategy_pdt(spec, budget=5_000)
        assert strategy.machine.stack_alphabet and is_deterministic(strategy.machine)[0]
        again = parse_strategy_pdt(format_strategy_pdt(strategy))
        for adam in random_adam_lassos(rng, spec.sigma1, 20):
            outcome = simulate_play(strategy, adam)
            word = condition_word(spec, outcome)
            assert analysis.lasso_membership(spec.condition, word), (spec, adam, outcome)
            assert simulate_play(again, adam) == outcome


# -- Gale-Stewart solving -------------------------------------------------------------------


def test_solve_gale_stewart_fig1_universality_eve():
    spec = make_universality_spec(zoo.figure1().automaton)
    assert solve_gale_stewart(spec).winner == EVE


def test_solve_gale_stewart_fig2_universality_adam():
    spec = make_universality_spec(zoo.example23().automaton)
    result = solve_gale_stewart(spec)
    assert result.winner == ADAM and result.sound
    # Adam's win is witnessed by forcing a c^n d^(n+1) pattern
    assert not analysis.lasso_membership(zoo.example23().automaton, parse_lasso("acdd;#"))


def test_solve_gale_stewart_empty_condition_adam():
    spec = make_universality_spec(zoo.allodd().automaton)
    assert solve_gale_stewart(spec).winner == ADAM


def test_solve_gale_stewart_unsound_flag():
    spec = make_universality_spec(zoo.example23().automaton, gfg_claimed=False)
    result = solve_gale_stewart(spec)
    assert result.winner == ADAM and not result.sound


def test_soundness_pays_for_determinism_only_when_an_adam_win_needs_it(monkeypatch):
    calls = []
    check = gfgpda.games.is_deterministic
    monkeypatch.setattr(gfgpda.games, "is_deterministic",
                        lambda pda: calls.append(pda) or check(pda))
    # Direct (deterministic epsilon-free) conditions, one an unclaimed Adam
    # win, and a claimed universality spec: no determinism pass.
    ncw1 = make_universality_spec(zoo.ncw1().automaton, gfg_claimed=False)
    for spec, winner in ((copycat_spec(), EVE), (ncw1, ADAM),
                         (make_universality_spec(zoo.example23().automaton), ADAM)):
        result = solve_gale_stewart(spec)
        assert (result.winner, result.sound, calls) == (winner, True, [])
    spec = make_universality_spec(zoo.example23().automaton, gfg_claimed=False)
    result = solve_gale_stewart(spec)
    assert (result.winner, result.sound, calls) == (ADAM, False, [spec.condition])


def test_universality_fixtures():
    assert universality(zoo.figure1().automaton)
    assert not universality(zoo.example23().automaton)
    assert not universality(zoo.lss().automaton)


@pytest.mark.parametrize("name", ["figure1", "allodd", "parity2"])
def test_duplicate_transitions_keep_universality(name):
    # Transitions are values: a repeated trans line adds no run and must not
    # make the block automaton nondeterministic.
    pda = zoo.get(name).automaton
    want = universality(pda)
    for i in (0, len(pda.transitions) - 1):
        ts = pda.transitions
        dup = OmegaPDA(pda.states, pda.input_alphabet, pda.stack_alphabet, pda.initial,
                       ts[:i + 1] + ts[i:])
        assert universality(dup) == want, (name, i)
        y_values = build_pd(make_universality_spec(dup))[1].y_values
        assert len(set(y_values)) == len(y_values)


def test_copycat_and_pq_drain_are_eve_wins():
    assert solve_gale_stewart(copycat_spec()).winner == EVE
    assert solve_gale_stewart(pq_drain_spec()).winner == EVE
    assert solve_gale_stewart(eps_block_spec()).winner == EVE


# -- the direct game of a deterministic condition ---------------------------------------------


def test_direct_game_agrees_with_the_block_game():
    # A deterministic epsilon-free condition is its own block automaton: the
    # winner is the block path's, and each of Eve's strategies wins its plays.
    rng = random.Random(2029)
    specs = [random_spec(rng) for _ in range(200)] + [copycat_spec(), pq_drain_spec()]
    for fx in zoo.all_fixtures():
        pda = fx.automaton
        if is_deterministic(pda)[0] and all(t.label is not None for t in pda.transitions):
            specs.append(make_universality_spec(pda))
    eve = 0
    for spec in specs:
        gs = solve_gale_stewart(spec, budget=60_000)
        assert gs.info.transition_ids == {} and gs.info.y_values == spec.sigma2
        assert gs.winner == block_solve(spec, budget=60_000).winner, spec
        assert gs.sound
        if gs.winner != EVE:
            continue
        eve += 1
        strategy = synthesize_strategy_pdt(spec, budget=60_000)
        assert strategy.output_alphabet == spec.sigma2
        for adam in random_adam_lassos(rng, spec.sigma1, 8):
            word = condition_word(spec, simulate_play(strategy, adam))
            assert analysis.lasso_membership(spec.condition, word), (spec, adam, word)
            oracle = analysis.brute_force_lasso_oracle(spec.condition, word, 12, 60_000)
            assert oracle in (True, analysis.UNKNOWN), (spec, adam, word)
    assert eve == 19


def test_copycat_is_its_own_block_automaton():
    gs = solve_gale_stewart(copycat_spec())
    assert gs.info.transition_ids == {}
    assert (len(gs.game.states), len(gs.game.moves), gs.solve.stats["vertices"]) == (3, 4, 3)
    machine = synthesize_strategy_pdt(copycat_spec()).machine
    sizes = len(machine.states), len(machine.transitions), len(machine.stack_alphabet)
    assert sizes == (3, 6, 0)


def test_own_block_automaton_is_the_condition_with_its_pairing():
    for spec in (copycat_spec(), pq_drain_spec()):
        pd, info = _own_pd(spec)
        assert pd is spec.condition and info.rounds == spec.pairing


def test_build_pd_letters_are_the_rounds():
    for spec in (make_universality_spec(zoo.figure1().automaton), pq_drain_spec(),
                 eps_block_spec()):
        pd, info = build_pd(spec)
        assert pd.input_alphabet == tuple(info.rounds)
        for letter, (x1, y) in info.rounds.items():
            assert letter == pair_id(x1, y) and x1 in spec.sigma1 and y in info.y_values


def test_adam_moves_carry_their_letter():
    for spec in (make_universality_spec(zoo.figure1().automaton), copycat_spec()):
        game = solve_gale_stewart(spec).game
        adam = [m for m in game.moves if game.owner[m.source] == ADAM]
        assert adam and all(m.letter == m.target[2] for m in adam)


def test_play_outcome_is_read_through_the_pairing():
    # Outcome letters are pair_id(a1, a2): the condition's letters only when
    # the spec names its pairs that way.
    text = "\n".join(["state s", "initial s", "letter l1", "letter l2", "letter l3",
                      "letter l4", "trans s _ l1 s _ 2", "trans s _ l4 s _ 2",
                      "sigma1 a b", "sigma2 x y", "pair l1 a x", "pair l2 a y",
                      "pair l3 b x", "pair l4 b y", "gfg true"])
    spec = parse_gs_spec(text)
    strategy = synthesize_strategy_pdt(spec)
    for adam in (parse_lasso("a;a"), parse_lasso("ab;ba"), parse_lasso(";abb")):
        outcome = simulate_play(strategy, adam)
        assert not set(outcome.prefix + outcome.loop) & set(spec.condition.input_alphabet)
        read = condition_word(spec, outcome)
        assert analysis.lasso_membership(spec.condition, read), (adam, outcome)


# -- synthesis ---------------------------------------------------------------------------------


def _check_strategy_against(spec, strategy, seed, count=20):
    rng = random.Random(seed)
    for adam in random_adam_lassos(rng, spec.sigma1, count):
        outcome = simulate_play(strategy, adam)
        assert analysis.lasso_membership(spec.condition, condition_word(spec, outcome)), \
            (adam, outcome)


def test_synthesize_fig1_universality():
    spec = make_universality_spec(zoo.figure1().automaton)
    strategy = synthesize_strategy_pdt(spec)
    _check_strategy_against(spec, strategy, seed=5)


def test_synthesize_copycat():
    strategy = synthesize_strategy_pdt(copycat_spec())
    _check_strategy_against(copycat_spec(), strategy, seed=6)


def test_synthesize_pq_drain():
    strategy = synthesize_strategy_pdt(pq_drain_spec())
    _check_strategy_against(pq_drain_spec(), strategy, seed=7)


def test_synthesize_eps_blocks():
    strategy = synthesize_strategy_pdt(eps_block_spec())
    _check_strategy_against(eps_block_spec(), strategy, seed=8)


def test_synthesize_refuses_adam_wins():
    spec = make_universality_spec(zoo.example23().automaton)
    with pytest.raises(Player1Wins):
        synthesize_strategy_pdt(spec)
    # An Adam win is a negative verdict, not an input error (a ValueError).
    gs = solve_gale_stewart(spec)
    assert gs.winner == ADAM
    with pytest.raises(Player1Wins) as raised:
        strategy_of(gs)
    assert not isinstance(raised.value, ValueError)


def test_strategy_of_a_solved_game_is_the_synthesized_one():
    # Synthesis needs no second solve: the strategy of a GsResult in hand is,
    # byte for byte, the one synthesized from its spec, on the benchmark's
    # seed-940 corpus (at its budget) and figure1's universality spec.
    seed940 = random.Random(940)
    specs = [random_spec(seed940) for _ in range(150)]
    specs.append(make_universality_spec(zoo.figure1().automaton))
    eve = 0
    for spec in specs:
        gs = solve_gale_stewart(spec, budget=5_000)
        if gs.winner != EVE:
            with pytest.raises(Player1Wins):
                strategy_of(gs)
            continue
        eve += 1
        text = format_strategy_pdt(synthesize_strategy_pdt(spec, budget=5_000))
        assert format_strategy_pdt(strategy_of(gs)) == text, spec
    assert eve == 13 + 1


def _tampered(gs, choice=None, game=None):
    """``gs`` with Eve's choice map or the arena replaced, and its claim game
    (if one decided) rebuilt on the arena."""
    solve, game = gs.solve, game or gs.game
    res = PushdownSolveResult(gs.winner, solve.eve_strategy if choice is None else choice,
                              solve.stats, solve.claim_game and ClaimGame(game))
    return GsResult(gs.winner, gs.sound, gs.info, game, res)


def _strategy_fault(gs) -> str:
    """The message of the ``PdaError`` that ``strategy_of(gs)`` raises, or ""."""
    try:
        strategy_of(gs)
    except PdaError as e:
        return str(e)
    return ""


def _eve_wins_of_both_phases():
    return [solve_gale_stewart(make_universality_spec(zoo.figure1().automaton))] + [
        solve_gale_stewart(spec) for spec in _claim_decided_specs()]


def test_strategy_building_names_a_vertex_missing_from_the_choice_map():
    # Dropping any one of Eve's choices either leaves the transducer's
    # reachable vertices alone or is named; in the claim game, a dropped
    # claim (at an "e" vertex) is named too.
    kinds = collections.Counter()
    for gs in _eve_wins_of_both_phases():
        choice = gs.solve.eve_strategy
        for v in choice:
            fault = _strategy_fault(_tampered(gs, {u: m for u, m in choice.items() if u != v}))
            assert fault in ("", f"Eve strategy undefined at {v}"), (v, fault)
            if fault:
                kinds[gs.solve.stats["decided_by"], v[0] if v[0] in ("v", "e") else "cfg"] += 1
    assert set(kinds) == {("truncation", "cfg"), ("claims", "v"), ("claims", "e")}, kinds


def test_strategy_building_names_a_missing_adam_move():
    for gs in _eve_wins_of_both_phases():
        x1 = gs.info.sigma1[-1]
        game = gs.game
        moves = tuple(m for m in game.moves if game.owner[m.source] == EVE or m.letter != x1)
        game = PushdownParityGame(game.states, game.stack_alphabet, game.initial, game.owner, moves)
        with pytest.raises(PdaError, match=f"^no Adam move for '{x1}' at "):
            strategy_of(_tampered(gs, game=game))


def test_strategy_building_names_a_pop_to_an_unclaimed_return():
    # Eve's move at a main vertex swapped for one that pops to a return her
    # frame's claim does not hold: Adam wins there, which no strategy allows.
    named = 0
    for gs in _eve_wins_of_both_phases()[1:]:
        cg, choice = gs.solve.claim_game, gs.solve.eve_strategy
        for v in [u for u in choice if u[0] == "v"]:
            for m in cg.moves_at.get((v[1], v[2]), ()):
                if cg.after(v, m) == cg.LOSE:
                    fault = _strategy_fault(_tampered(gs, choice | {v: m}))
                    assert fault in ("", f"no winning Adam vertex after Eve's move at {v}")
                    named += bool(fault)
    assert named >= 2


# Outcomes of synthesized strategies against Adam lassos drawn by
# random_adam_lassos from one Random(20), ten per spec in this order.
GOLDEN_PLAYS = {
    "copycat": [
        "(b,y) (a,x);(b,y) (a,x) (a,x)",
        "(b,y);(a,x) (b,y)",
        "(b,y);(b,y)",
        "(b,y) (b,y) (a,x) (b,y);(b,y)",
        "(b,y) (b,y);(b,y)",
        "(a,x) (a,x) (a,x);(a,x)",
        "(a,x);(a,x)",
        "(b,y) (b,y) (b,y);(a,x) (a,x) (b,y)",
        "(a,x);(a,x) (a,x)",
        "(a,x) (b,y);(b,y)",
    ],
    "pq_drain": [
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p) (a,p) (a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p)",
        "(a,p) (a,q) (a,p) (a,p);(a,p)",
    ],
    "eps_block": [
        "(a,z) (a,z);(a,z)",
        "(a,z) (a,z);(a,z)",
        "(a,z) (a,z);(a,z)",
        "(a,z) (a,z) (a,z);(a,z)",
        "(a,z) (a,z) (a,z);(a,z) (a,z)",
        "(a,z) (a,z);(a,z)",
        "(a,z) (a,z);(a,z) (a,z)",
        "(a,z) (a,z) (a,z);(a,z) (a,z) (a,z)",
        "(a,z) (a,z);(a,z) (a,z) (a,z)",
        "(a,z) (a,z);(a,z)",
    ],
    "figure1u": [
        "(a,#) (b,#);(a,#) (b,#) (b,#)",
        "(b,#) (a,#) (a,#) (b,#);(b,#) (a,#) (b,#)",
        "(b,#) (a,#) (b,#) (b,#);(b,#)",
        "(a,#) (a,#) (b,#) (b,#);(b,#) (b,#)",
        "(a,#) (a,#) (b,#) (a,#) (a,#);(a,#)",
        "(a,#) (a,#) (a,#);(a,#) (a,#)",
        "(a,#) (a,#);(b,#) (b,#) (a,#)",
        "(b,#) (b,#);(b,#)",
        "(a,#) (b,#) (b,#) (b,#) (b,#);(a,#) (b,#) (b,#)",
        "(b,#) (b,#) (a,#) (a,#) (b,#);(a,#) (b,#)",
    ],
    "spec7": [
        "(b,x) (a,y) (a,y);(a,y) (a,y)",
        "(a,y) (a,y) (b,y) (a,y);(b,y) (a,y)",
        "(b,x) (a,y) (a,y);(a,y)",
        "(a,y) (a,y) (b,y) (b,y) (b,y) (b,y) (b,x);(b,y) (b,y) (b,x)",
        "(a,y) (b,y) (a,y) (a,y) (a,y);(a,y)",
        "(b,x) (a,y) (b,y) (b,y) (b,y) (b,y) (b,x);(b,y) (b,y) (b,x)",
        "(a,y) (a,y) (a,y);(a,y) (a,y)",
        "(b,x) (b,y) (a,y) (a,y);(b,y) (b,y) (a,y)",
        "(b,x) (b,y) (a,y);(b,y) (a,y)",
        "(a,y) (b,y) (b,y) (b,x);(b,y) (b,y) (b,x)",
    ],
    "spec77": [
        "(b,y);(b,y)",
        "(b,y) (a,x) (b,y) (a,x);(a,x) (a,x) (a,x)",
        "(a,x) (b,y) (b,y);(a,x) (b,y)",
        "(a,x) (a,x) (b,y);(b,y) (a,x) (b,y)",
        "(b,y) (a,x) (b,y) (a,x);(b,y) (a,x)",
        "(a,x) (a,x) (a,x);(a,x)",
        "(b,y) (a,x) (b,y) (a,x);(b,y) (a,x)",
        "(b,y) (b,y) (a,x) (b,y) (a,x);(b,y) (a,x)",
        "(a,x) (b,y) (b,y);(b,y)",
        "(a,x) (a,x) (a,x);(a,x) (a,x)",
    ],
    "spec83": [
        "(b,x) (b,y) (b,x) (b,x);(b,x) (b,x) (b,x)",
        "(a,y) (a,x) (b,x) (a,y);(a,y) (b,x) (a,y)",
        "(a,y) (b,y) (a,x) (b,y) (a,y) (b,x) (a,y);(b,x) (a,y)",
        "(b,x) (b,y) (b,x) (a,y);(b,x) (b,x) (a,y)",
        "(a,y) (a,x) (a,y);(a,y)",
        "(a,y) (a,x) (b,x) (b,x);(a,y) (b,x) (b,x)",
        "(a,y) (a,x) (a,y);(a,y)",
        "(b,x) (a,x) (b,y) (b,x) (b,x);(b,x) (b,x)",
        "(a,y) (a,x) (a,y);(a,y) (a,y)",
        "(a,y) (b,y) (a,x) (a,x) (b,y) (a,y) (a,y) (b,x) (a,y);(a,y) (b,x) (a,y)",
    ],
}


def test_golden_strategy_plays():
    specs = [("copycat", copycat_spec()), ("pq_drain", pq_drain_spec()),
             ("eps_block", eps_block_spec()),
             ("figure1u", make_universality_spec(zoo.figure1().automaton))]
    specs += zip(("spec7", "spec77", "spec83"), _claim_decided_specs())
    rng = random.Random(20)
    for name, spec in specs:
        strategy = synthesize_strategy_pdt(spec, budget=5_000)
        assert is_deterministic(strategy.machine)[0], name
        again = parse_strategy_pdt(format_strategy_pdt(strategy))
        plays = []
        for adam in random_adam_lassos(rng, spec.sigma1, 10):
            outcome = simulate_play(strategy, adam)
            assert simulate_play(again, adam) == outcome, (name, adam)
            word = condition_word(spec, outcome)
            assert analysis.lasso_membership(spec.condition, word), (name, adam)
            if is_deterministic(spec.condition)[0]:
                assert det_run_accepts(spec.condition, word), (name, adam)
            plays.append(f"{' '.join(outcome.prefix)};{' '.join(outcome.loop)}")
        assert plays == GOLDEN_PLAYS[name], name


def test_t_minus_d_deterministic():
    for spec in (make_universality_spec(zoo.figure1().automaton), copycat_spec(),
                 pq_drain_spec(), eps_block_spec()):
        strategy = synthesize_strategy_pdt(spec)
        assert is_deterministic(strategy.machine)[0]


@pytest.mark.parametrize("name", ["i", "w"])
def test_sigma2_letter_may_share_a_phase_tag(name):
    # A sigma2 letter plays like any other whatever its name, renamed in the
    # outcome: a strategy state stores its sigma2 letter next to its vertex,
    # so no letter name is reserved.  Strategies come from the block path,
    # where states store letters.
    for make in (copycat_spec, pq_drain_spec, eps_block_spec):
        base = make()
        old = re.compile(rf"\b{re.escape(base.sigma2[0])}\b")
        spec = parse_gs_spec(old.sub(name, format_gs_spec(base)))
        strategy, reference = strategy_of(block_solve(spec)), strategy_of(block_solve(base))
        assert is_deterministic(strategy.machine)[0]
        for adam in random_adam_lassos(random.Random(1), spec.sigma1, 10):
            expected = old.sub(name, str(simulate_play(reference, adam)))
            assert str(simulate_play(strategy, adam)) == expected, (make.__name__, adam)


def test_simulate_play_two_constants():
    strategy = synthesize_strategy_pdt(copycat_spec())
    adam = LassoWord((), ("a",))
    outcome = simulate_play(strategy, adam)
    assert len(outcome.loop) == 1 and outcome.loop[0] == pair_id("a", "x")


def test_simulate_play_sees_dips_inside_a_round():
    # Round 2 pops to the bottom and rebuilds _ZX by epsilon rules; round 3
    # dips again and answers y from then on.  A detector that saw only the
    # round ends would close the lasso at round 2 with x forever.
    rules = (
        Transition("s", BOTTOM, "a", "s", (BOTTOM, "Y", "X"), 0),
        Transition("s", "X", "a", "p", (), 0),
        Transition("p", "Y", None, "r", (), 0),
        Transition("r", BOTTOM, None, "s", (BOTTOM, "Z", "X"), 0),
        Transition("p", "Z", None, "t", ("Z",), 0),
        Transition("t", "Z", None, "u", ("Z", "X"), 0),
        Transition("u", "X", "a", "u", ("X",), 0),
    )
    machine = DetPushdown(("s", "p", "r", "t", "u"), "s", ("X", "Y", "Z"), rules)
    strategy = StrategyPDT(machine, {"s": "x", "u": "y"}, ("a",), ("x", "y"))
    again = parse_strategy_pdt(format_strategy_pdt(strategy))
    assert [r.push for r in again.machine.transitions] == [r.push for r in rules]
    ax, ay = pair_id("a", "x"), pair_id("a", "y")
    for s in (strategy, again):
        assert simulate_play(s, LassoWord((), ("a",))) == LassoWord((ax, ax, ay), (ay,))


def test_simulate_play_guard():
    from gfgpda.core import GuardExceeded

    strategy = synthesize_strategy_pdt(copycat_spec())
    with pytest.raises(GuardExceeded):
        simulate_play(strategy, LassoWord(("a", "b", "a"), ("b", "a")), guard=1)


# -- sigma_d composition --------------------------------------------------------------------


def test_compose_sigma_d_first_move_and_blocks():
    fx = zoo.figure1()
    spec = make_universality_spec(fx.automaton)
    pd, info = build_pd(spec)
    sigma = lambda v: "#"
    sd = compose_sigma_d(spec, sigma, fx.resolver, info)
    # first move simulates sigma
    assert sd(("a",)) == "#" and sd(("b",)) == "#"
    # after a completed block the next output is a sigma2 letter again
    rng = random.Random(3)
    for _ in range(20):
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        outputs = [sd(v[: k + 1]) for k in range(len(v))]
        prev = None
        for out in outputs:
            if prev is not None and prev not in spec.sigma2:
                tr = next(t for t, tid in info.transition_ids.items() if tid == prev)
                if tr.label is not None:
                    assert out in spec.sigma2
            prev = out
        # the block word consistent with sd decodes to word + run prefix
        letters = [pair_id(v[k], outputs[k]) for k in range(len(v))]
        try:
            pairs, run = decode_blocks(info, letters)
        except ValueError:
            pairs, run = decode_blocks(info, letters[: -1])  # trailing open block
        from gfgpda.core import replay

        replay(spec.condition, tuple(run))


# -- text formats -----------------------------------------------------------------------------


def test_gs_spec_round_trip():
    spec = pq_drain_spec()
    text = format_gs_spec(spec)
    again = parse_gs_spec(text)
    assert again == spec


def test_gs_spec_validate_golden_diagnostics():
    # Duplicate pairs, letters outside the condition alphabet, the uncovered
    # pair (a, y) and the domain mismatch, in this order.
    cond = OmegaPDA(("s",), ("(a,x)", "(a,y)", "(b,x)"), (), "s", ())
    pairing = {"(a,x)": ("a", "x"), "zz": ("a", "x"), "(b,x)": ("b", "x"),
               "ww": ("a", "x"), "vv": ("b", "y")}
    spec = GaleStewartSpec(("a", "b"), ("x", "y"), cond, pairing)
    assert spec.validate() == [
        "pairing letter 'zz' not in the condition alphabet",
        "pair ('a', 'x') mapped twice",
        "pairing letter 'ww' not in the condition alphabet",
        "pair ('a', 'x') mapped twice",
        "pairing letter 'vv' not in the condition alphabet",
        "pairing does not cover sigma1 x sigma2 exactly",
        "condition alphabet and pairing domain differ",
    ]


def test_strategy_pdt_round_trip():
    strategy = synthesize_strategy_pdt(copycat_spec())
    text = format_strategy_pdt(strategy)
    again = parse_strategy_pdt(text)
    assert len(again.machine.states) == len(strategy.machine.states)
    # behaves the same on a few words
    for word in (("a",), ("a", "b"), ("b", "b", "a")):
        assert respond(again, word) == respond(strategy, word)


def test_stackless_arena_size_bound():
    spec = make_universality_spec(zoo.figure1().automaton)
    pd, info = build_pd(spec)
    game = gs_to_pushdown_game(pd, info)
    q, s1 = len(pd.states), len(spec.sigma1)
    kinds = collections.Counter(v[0] for v in game.states)
    assert set(kinds) == {"A", "E"}
    assert kinds["A"] <= q
    assert kinds["E"] <= q * s1


def test_synthesis_delays_over_epsilon_steps():
    # eps_block_spec has one Adam letter; in the second condition, u -eps-> v
    # and v reads (a,z) back to v and (b,z) to u, so Adam's letter b leads
    # to a block that starts with an epsilon step.
    la, lb = pair_id("a", "z"), pair_id("b", "z")
    ts = (
        Transition("u", BOTTOM, None, "v", (BOTTOM,), 0),
        Transition("v", BOTTOM, la, "v", (BOTTOM,), 2),
        Transition("v", BOTTOM, lb, "u", (BOTTOM,), 2),
    )
    cond = OmegaPDA(("u", "v"), (la, lb), (), "u", ts)
    two = GaleStewartSpec(("a", "b"), ("z",), cond, {la: ("a", "z"), lb: ("b", "z")})
    for spec in (eps_block_spec(), two):
        gs = solve_gale_stewart(spec)
        tmd = strategy_of(gs)
        assert is_deterministic(tmd.machine)[0]
        assert respond(tmd, ("a",)) == "z"
        assert respond(tmd, ("a", "a", "a")) == "z"
        for adam in random_adam_lassos(random.Random(4), spec.sigma1, 10):
            outcome = simulate_play(tmd, adam)
            assert analysis.lasso_membership(spec.condition, condition_word(spec, outcome)), \
                (spec.sigma1, adam, outcome)


def test_random_specs_synthesis_consistency():
    # random partial conditions; whenever Eve wins, the synthesized strategy
    # must beat random periodic adversaries (outcome checked by the engine)
    from gfgpda.core import validate

    rng = random.Random(940)
    for _ in range(15):
        spec = random_spec(rng, max_states=3)
        assert validate(spec.condition) == []
        try:
            res = solve_gale_stewart(spec, budget=60_000)
        except ResourceExceeded:
            continue
        if res.winner != EVE:
            continue
        strategy = synthesize_strategy_pdt(spec, budget=60_000)
        for adam in random_adam_lassos(rng, spec.sigma1, 8):
            outcome = simulate_play(strategy, adam)
            assert analysis.lasso_membership(spec.condition, condition_word(spec, outcome)), \
                (spec, adam)
