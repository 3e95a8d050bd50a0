"""Layer benchmark of gfgpda: the package's cold import, parsing and
validation, lasso membership, emptiness, guided runs, one synthesis, Gale-Stewart
solving on both block automata, the finite games of pushdown solving, the
cycle family's deep Zielonka nesting, transducer epsilon closure, the
constructions built by ``core.explore``.

    python3 scripts/bench.py [OUTPUT.json]

Run from anywhere; the program is imported from the ``src/`` of this
checkout.  Every time is the best of five raw repeats (no calibration), in
milliseconds per call, measured in this one process.  Inputs come from the
zoo and from seeded generators below, so two runs read the same texts.  The
report goes to OUTPUT.json (default ``BENCH.json``) and, in short, to
standard output; its ``elapsed_s`` is the whole run's wall time.  Run it on
two commits on the same machine to compare them.
"""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
import json
import os
import platform
import random
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import corpus  # noqa: E402  (the benchmark's seeded specification corpus)
from gfgpda import analysis, closure, core, games, resolvers, zoo  # noqa: E402
from helpers import (  # noqa: E402  (test helpers)
    block_solve,
    epsilon_recursion,
    full_lasso_product,
    random_pda,
)

REPEATS = 5
MIN_REPEAT_S = 0.02
SERIES_LINES = (250, 500, 1000, 2000, 4000)
SERIES_DPA_STATES = (250, 500, 1000, 2000)
SERIES_GS_PAIRS = (100, 200, 400, 800, 1600)
SERIES_SEED = 7
GUARDS = (500, 1000, 2000, 4000)
PREFIX_LETTERS = (250, 500, 1000, 2000, 4000)
VERIFY_WORDS = 10
VERIFY_SEED = 2024
LIFTED_GUARD = 1000
MEMBERSHIP_PREFIXES = (16, 32, 64, 128)
MEMBERSHIP_SAMPLE = 20  # words per zoo fixture
EMPTINESS_SEED = 23  # the random_pda draws whose witnesses the tests pin
EMPTINESS_DRAWS = 50
SPECS = 150
GS_BUDGET = 5_000  # the games workload's solver budget
PUSHDOWN_SEEDS = (1, 2, 3)  # corpus seeds of the finite-solve row's pushdown games
PUSHDOWN_GAMES = 100  # games per seed, as many as the games workload solves
CYCLE_STATES = (250, 500, 1000)
CYCLE_REPEATS = 2
CLOSURE_DEPTHS = (8, 9, 10, 11)
PACKAGE_MODULES = ("core", "analysis", "closure", "games", "resolvers", "zoo", "cli")


def best_ms(fns: dict) -> dict:
    """Best of REPEATS repeats of each function, in ms per call.  The repeats
    of the functions are interleaved, so that a slow spell of the machine
    falls on all of them, and each repeat is long enough to time."""
    counts = {}
    for name, fn in fns.items():
        fn()  # warm lazy set-up
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
        counts[name] = max(1, int(MIN_REPEAT_S / max(once, 1e-7)))
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(REPEATS):
        for name, fn in fns.items():
            n, start = counts[name], time.perf_counter()
            for _ in range(n):
                fn()
            best[name] = min(best[name], (time.perf_counter() - start) / n)
    return {name: t * 1e3 for name, t in best.items()}


def import_layer() -> dict:
    """The package's size and cold import: each module's line count and AST
    node count (``ast.walk``) with their ``src/gfgpda`` totals, the compile
    time of each module's source and the fresh in-process import of the
    package and PACKAGE_MODULES that the benchmark's set-up pays, each the
    best of REPEATS single runs.  The set-up's peak RSS steps with the AST
    size of the modules it compiles.  A fresh
    import compiles only the sources without cached bytecode, so the row
    says whether bytecode writing was on and every module was cached."""
    package = os.path.join(ROOT, "src", "gfgpda")
    paths = {name: os.path.join(package, f"{name}.py") for name in ("__init__",) + PACKAGE_MODULES}
    compile_ms, lines, nodes = {}, {}, {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines[name] = source.count("\n")
        nodes[name] = sum(1 for _ in ast.walk(ast.parse(source)))
        compile_ms[name] = min(timed_ms(lambda: compile(source, path, "exec"))
                               for _ in range(REPEATS))
    cached = all(os.path.exists(importlib.util.cache_from_source(p)) for p in paths.values())
    loaded = {n: m for n, m in sys.modules.items() if n == "gfgpda" or n.startswith("gfgpda.")}

    def drop_package():
        for name in [n for n in sys.modules if n == "gfgpda" or n.startswith("gfgpda.")]:
            del sys.modules[name]

    def fresh_import():
        drop_package()
        importlib.import_module("gfgpda")
        for name in PACKAGE_MODULES:
            importlib.import_module(f"gfgpda.{name}")

    try:
        import_ms = min(timed_ms(fresh_import) for _ in range(REPEATS))
    finally:  # the rest of the bench keeps the modules it imported
        drop_package()
        sys.modules.update(loaded)
    return {"lines": lines, "lines_total": sum(lines.values()),
            "ast_nodes": nodes, "ast_nodes_total": sum(nodes.values()),
            "compile_ms": compile_ms, "compile_total_ms": sum(compile_ms.values()),
            "fresh_import_ms": import_ms, "bytecode_writing": not sys.dont_write_bytecode,
            "bytecode_cached": cached}


def timed_ms(fn) -> float:
    """Milliseconds of one call of ``fn``."""
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def generated_pda_text(lines: int, rng: random.Random) -> str:
    """A valid automaton with ``lines`` trans lines: states grow with the
    lines, four letters, three stack symbols, colors 0-5, every push shape."""
    states = [f"q{i}" for i in range(max(2, lines // 10))]
    letters, stack = ["a", "b", "c", "d"], ["X", "Y", "Z"]
    out = [f"state {q}" for q in states] + [f"initial {states[0]}"]
    out += [f"letter {a}" for a in letters] + [f"stacksym {x}" for x in stack]
    for _ in range(lines):
        top = rng.choice(["_"] + stack)
        if top == "_":
            push = rng.choice(["_"] + [f"_{x}" for x in stack])
        else:
            push = rng.choice(["eps"] + stack + [f"{x}.{y}" for x in stack for y in stack])
        label = rng.choice(["eps"] + letters)
        out.append(f"trans {rng.choice(states)} {top} {label} {rng.choice(states)} {push} "
                   f"{rng.randrange(6)}")
    return "\n".join(out) + "\n"


def generated_dpa_text(states: int, rng: random.Random) -> str:
    """A complete DPA with ``states`` states over two letters, colors 0-3."""
    names = [f"d{i}" for i in range(states)]
    delta = {(q, a): rng.choice(names) for q in names for a in "ab"}
    colors = {key: rng.randrange(4) for key in delta}
    return closure.format_dpa(
        closure.DeterministicParityAutomaton(tuple(names), ("a", "b"), names[0], delta, colors))


def generated_gs_text(pairs: int) -> str:
    """A specification with ``pairs`` pairing letters, ``pairs // 2`` letters
    for Player 1 and two for Player 2, and a one-state condition that loops
    on every paired letter."""
    sigma1, sigma2 = tuple(f"l{i}" for i in range(pairs // 2)), ("x", "y")
    pairing = {games.pair_id(a1, a2): (a1, a2) for a1 in sigma1 for a2 in sigma2}
    cond = core.OmegaPDA(("s",), tuple(pairing), (), "s", tuple(
        core.Transition("s", core.BOTTOM, letter, "s", (core.BOTTOM,), 0) for letter in pairing))
    return games.format_gs_spec(games.GaleStewartSpec(sigma1, sigma2, cond, pairing))


def one_state_dpa(letters) -> closure.DeterministicParityAutomaton:
    """One state looping on every letter, colors 0 and 1 alternating."""
    return closure.DeterministicParityAutomaton(
        ("d",), letters, "d", {("d", a): "d" for a in letters},
        {("d", a): i % 2 for i, a in enumerate(letters)})


def doubling_series(key: str, read, inputs: dict, unit: str = "parse_ms") -> list:
    """Best times of ``read`` on each input, keyed by size, with the growth
    from the size before."""
    sizes = list(inputs)
    times = best_ms({n: lambda t=inputs[n]: read(t) for n in sizes})
    return [{key: n, unit: times[n],
             "growth": None if i == 0 else times[n] / times[sizes[i - 1]]}
            for i, n in enumerate(sizes)]


def parse_layer() -> dict:
    # The gate of ROADMAP item 5: one parse against one tail-set query.
    ex23 = zoo.example23()
    det23 = resolvers.determinize_moore(ex23.automaton, ex23.resolver)
    det23_text = core.format_pda(det23)
    fns = {"parse": lambda: core.parse_pda(det23_text)}
    fns.update({a: lambda a=a: analysis.accepts_tail_of(det23, a) for a in det23.input_alphabet})
    tails = best_ms(fns)
    parse = tails.pop("parse")
    gate = {"transitions": len(det23.transitions), "parse_ms": parse,
            "accepts_tail_of_ms": tails,
            "parse_over_slowest_tail": parse / max(tails.values()),
            "parse_over_fastest_tail": parse / min(tails.values())}

    rng = random.Random(SERIES_SEED)
    texts = {lines: generated_pda_text(lines, rng) for lines in SERIES_LINES}
    for text in texts.values():
        core.parse_pda(text)  # raises if the generator wrote an invalid automaton
    series = doubling_series("lines", core.parse_pda, texts)
    dpa_series = doubling_series("states", closure.parse_dpa, {
        n: generated_dpa_text(n, rng) for n in SERIES_DPA_STATES})
    gs_series = doubling_series("pairs", games.parse_gs_spec, {
        n: generated_gs_text(n) for n in SERIES_GS_PAIRS})

    # Each of the five readers on a text its writer printed.
    lss, fig1 = zoo.lss().automaton, zoo.figure1()
    dpa = one_state_dpa(lss.input_alphabet)
    spec = games.make_universality_spec(fig1.automaton)
    texts = {
        "pda:lss": (core.parse_pda, core.format_pda(lss)),
        "moore:example23": (lambda t: resolvers.parse_moore(ex23.automaton, t),
                            resolvers.format_moore(ex23.automaton, ex23.resolver)),
        "dpa:lss-letters": (closure.parse_dpa, closure.format_dpa(dpa)),
        "gs:universality-figure1": (games.parse_gs_spec, games.format_gs_spec(spec)),
        "pdt:universality-figure1": (games.parse_strategy_pdt, games.format_strategy_pdt(
            games.synthesize_strategy_pdt(spec))),
    }
    times = best_ms({name: lambda r=read, t=text: r(t) for name, (read, text) in texts.items()})
    readers = {name: {"lines": text.count("\n"), "parse_ms": times[name]}
               for name, (_, text) in texts.items()}
    zoo_ms = best_ms({fx.name: lambda t=core.format_pda(fx.automaton): core.parse_pda(t)
                      for fx in zoo.all_fixtures()})
    return {"det_example23": gate, "series": series, "dpa_series": dpa_series,
            "gs_series": gs_series, "readers": readers, "zoo_parse_ms": zoo_ms}


def lss_lassos(sizes) -> dict:
    """Seeded lassos over lss's letters, of prefix length |u| and loop length
    |u| / 4, drawn in size order from SERIES_SEED."""
    rng, letters = random.Random(SERIES_SEED), zoo.lss().automaton.input_alphabet
    return {n: core.LassoWord(tuple(rng.choice(letters) for _ in range(n)),
                              tuple(rng.choice(letters) for _ in range(n // 4)))
            for n in sizes}


def head_counts(pda, w) -> collections.Counter:
    """Heads and pop facts of membership's pass, which reaches the heads from
    the start; the heads that ``lasso_membership`` hands to its SCC search
    (``_search``, wrapped for one call; 0 when it answers before); and the
    heads and pop facts of the emptiness summary of the unrestricted product
    (``full_lasso_product``, every state ``q@i``)."""
    adj, pops, *_ = analysis._lasso_heads(pda, w)
    searched, search = [0], analysis._search
    analysis._search = lambda heads, *args: searched.append(len(heads)) or search(heads, *args)
    try:
        analysis.lasso_membership(pda, w)
    finally:
        analysis._search = search
    product = full_lasso_product(pda, w)
    full = analysis._Summary(analysis._rules(product.transitions))
    heads = {(product.initial, core.BOTTOM)} | set(full.adj) | {key[:2] for key in full.defs}
    heads.update(move[0] for moves in full.adj.values() for move in moves)
    return collections.Counter(pass_heads=len(adj), searched_heads=sum(searched),
                               pass_facts=sum(map(len, pops.values())),
                               full_heads=len(heads), full_facts=len(full.defs))


def membership_layer() -> dict:
    """Lasso membership on the first MEMBERSHIP_SAMPLE sampled words of each
    zoo fixture: per fixture, one pass that parses its texts and one pass of
    ``lasso_membership`` on the parsed inputs, all timed in one ``best_ms``
    call and summed per phase; and ``lasso_membership`` of lss on
    ``lss_lassos``, all sizes timed in one ``best_ms`` call.  One call per
    group makes a drift of the machine's speed fall on all of its members.
    Each row also has the ``head_counts`` of its queries, summed."""
    queries = {}
    for fx in zoo.all_fixtures():
        text = core.format_pda(fx.automaton)
        queries[fx.name] = [(text, str(w), flag)
                            for w, flag in fx.sample(seed=SERIES_SEED, count=MEMBERSHIP_SAMPLE)]

    def parse_pass(name):
        return [(core.parse_pda(text), core.parse_lasso(word)) for text, word, _ in queries[name]]

    parsed = {name: parse_pass(name) for name in queries}

    def member_pass(name):
        return [analysis.lasso_membership(pda, w) for pda, w in parsed[name]]

    for name, qs in queries.items():
        if member_pass(name) != [flag for _, _, flag in qs]:
            raise AssertionError(f"a membership verdict on {name} disagrees with its sampler")
    lss, words = zoo.lss().automaton, lss_lassos(MEMBERSHIP_PREFIXES)
    series = doubling_series("u", lambda w: analysis.lasso_membership(lss, w), words,
                             unit="membership_ms")
    for row in series:
        w = words[row["u"]]
        row["accepted"] = analysis.lasso_membership(lss, w)
        row.update(head_counts(lss, w))
        if row["accepted"] != (max(zoo.loop_energy_deltas(w)) >= 0):
            raise AssertionError(f"lss membership of {w} disagrees with the closed form")
    phases = {"parse": parse_pass, "membership": member_pass}
    timed = best_ms({(name, phase): lambda name=name, fn=fn: fn(name)
                     for name in queries for phase, fn in phases.items()})
    fixture_ms = {name: {phase: timed[name, phase] for phase in phases} for name in queries}
    count = sum(map(len, queries.values()))
    parse_ms, member_ms = (sum(row[phase] for row in fixture_ms.values()) for phase in phases)
    ms = parse_ms + member_ms
    counts = sum((head_counts(pda, w) for name in parsed for pda, w in parsed[name]),
                 collections.Counter())
    return {"zoo_sample": {"queries": count, "ms": ms, "us_per_query": ms * 1e3 / count,
                           "parse_ms": parse_ms, "membership_ms": member_ms,
                           "parse_share": parse_ms / ms, "fixture_ms": fixture_ms, **counts},
            "lss_series": series}


def emptiness_layer() -> dict:
    """``parity_nonempty`` on every zoo fixture, det(example23) and the first
    EMPTINESS_DRAWS ``random_pda`` draws of EMPTINESS_SEED, timed as one set
    in one ``best_ms`` call; how many are nonempty, and the transitions of
    their witnesses' stems and loops."""
    ex23 = zoo.example23()
    automata = [fx.automaton for fx in zoo.all_fixtures()]
    automata.append(resolvers.determinize_moore(ex23.automaton, ex23.resolver))
    rng = random.Random(EMPTINESS_SEED)
    automata += [random_pda(rng) for _ in range(EMPTINESS_DRAWS)]
    found = [w for w in map(analysis.parity_nonempty, automata) if w is not None]
    ms = best_ms({"all": lambda: [analysis.parity_nonempty(pda) for pda in automata]})["all"]
    return {"automata": len(automata), "ms": ms, "nonempty": len(found),
            "witness_transitions": sum(len(w.stem) + len(w.loop) for w in found)}


def guided_layer() -> dict:
    """Resolver-guided runs of the lss resolver: ``verify_resolver`` on ten
    seeded accepted lassos (the guided workload's words) at doubling guards,
    ``run_on_prefix`` on prefixes of w_ss-bar of doubling length, and the
    lifted resolver verified on the union of lss with a one-state DPA."""
    lss = zoo.lss()
    pda, r = lss.automaton, zoo.LssResolver(lss.automaton)
    words, rng = [], random.Random(VERIFY_SEED)
    while len(words) < VERIFY_WORDS:
        words += [w for w, flag in lss.sample(seed=rng.randrange(2**31), count=20) if flag]
    suite = [(w, True) for w in words[:VERIFY_WORDS]]

    def verdicts(pda, r, guard):
        report = resolvers.verify_resolver(pda, r, suite, guard)
        counts = collections.Counter(verdict for _, _, verdict in report.entries)
        return dict(sorted(counts.items()))

    verify = doubling_series("guard", lambda g: resolvers.verify_resolver(pda, r, suite, g),
                             {g: g for g in GUARDS}, unit="verify_ms")
    for row in verify:
        row["verdicts"] = verdicts(pda, r, row["guard"])
    k = 1
    while len(zoo.w_ss_bar_prefix(k)) < PREFIX_LETTERS[-1]:
        k += 1
    wss = zoo.w_ss_bar_prefix(k)
    run = doubling_series("letters", lambda word: resolvers.run_on_prefix(pda, r, word),
                          {n: wss[:n] for n in PREFIX_LETTERS}, unit="run_ms")
    prod, info = closure.product_with_info(pda, one_state_dpa(pda.input_alphabet), "union")
    lifted = closure.lift_resolver(r, pda, info)
    ms = best_ms({"lifted": lambda: resolvers.verify_resolver(prod, lifted, suite, LIFTED_GUARD)})
    return {"words": [str(w) for w, _ in suite], "verify_series": verify, "run_series": run,
            "lifted_verify": {"guard": LIFTED_GUARD, "states": len(prod.states),
                              "transitions": len(prod.transitions), "verify_ms": ms["lifted"],
                              "verdicts": verdicts(prod, lifted, LIFTED_GUARD)}}


def synthesis_layer() -> dict:
    """Synthesis on figure1's universality game: time and strategy size."""
    spec = games.make_universality_spec(zoo.figure1().automaton)
    strategy = games.synthesize_strategy_pdt(spec)
    ms = best_ms({"synth": lambda: games.synthesize_strategy_pdt(spec)})["synth"]
    return {"universality-figure1": {"synth_ms": ms, "states": len(strategy.machine.states),
                                     "rules": len(strategy.machine.transitions)}}


def gale_stewart_layer() -> dict:
    """``solve_gale_stewart``, and ``strategy_of`` its result for Eve wins
    (one solve per spec), on the benchmark's 150 seed-940 specifications
    (deterministic epsilon-free conditions, so their own block automata),
    timed in one call beside the tests' ``block_solve`` on ``build_pd``'s
    block automata.  Solver vertices are summed by the phase that decided."""
    api = SimpleNamespace(core=core, games=games)
    base = random.Random(corpus.SPEC_BASE_SEED)
    specs = [corpus.random_spec(api, base) for _ in range(SPECS)]
    paths = {"direct": games.solve_gale_stewart, "block": block_solve}

    results: dict = {}  # path -> [(GsResult, strategy or None)] of its last timed call

    def run(name):
        results[name] = []
        for spec in specs:
            gs = paths[name](spec, GS_BUDGET)
            results[name].append((gs, games.strategy_of(gs) if gs.winner == games.EVE else None))

    ms = best_ms({name: lambda name=name: run(name) for name in paths})
    report = {}
    for name in paths:
        vertices: collections.Counter = collections.Counter()
        strategies = []  # (states, rules) of each Eve win's strategy
        for gs, strategy in results[name]:
            vertices[gs.solve.stats["decided_by"]] += gs.solve.stats["vertices"]
            if strategy is not None:
                m = strategy.machine
                strategies.append((len(m.states), len(m.transitions)))
        report[name] = {"specs": SPECS, "ms": ms[name], "eve_wins": len(strategies),
                        "vertices": dict(sorted(vertices.items())),
                        "strategy_states": sum(n for n, _ in strategies),
                        "strategy_rules": sum(r for _, r in strategies)}
    return report


def finite_solve_layer() -> dict:
    """``solve_parity_ids`` alone on the truncation games that solving the
    150 seed-940 specifications and the corpus' pushdown games of
    PUSHDOWN_SEEDS hands it, captured once by wrapping
    ``games.solve_parity_ids`` as ``benchmark/tracing.py`` does.  The row
    counts every finite solve per pushdown solve; a claim game, the last
    finite solve of a claim-decided one, is counted but not timed.  The
    pushdown solves' Zielonka levels (``_zielonka`` generators) and
    ``_reaches`` calls are counted in the capture, claim games included."""
    api = SimpleNamespace(core=core, games=games)
    base = random.Random(corpus.SPEC_BASE_SEED)
    specs = [corpus.random_spec(api, base) for _ in range(SPECS)]
    solves = [lambda spec=spec: games.solve_gale_stewart(spec, GS_BUDGET).solve for spec in specs]
    for seed in PUSHDOWN_SEEDS:
        rng = random.Random(seed)
        solves += [lambda g=corpus.random_pushdown_game(api, rng):
                   games.solve_pushdown_parity_game(g, GS_BUDGET) for _ in range(PUSHDOWN_GAMES)]
    solve_parity_ids, captured, truncations = games.solve_parity_ids, [], []
    zielonka, reaches, calls = games._zielonka, games._reaches, collections.Counter()
    games.solve_parity_ids = lambda owner, edges: (captured.append((owner, edges))
                                                   or solve_parity_ids(owner, edges))
    games._zielonka = lambda *args: calls.update(["zielonka"]) or zielonka(*args)
    games._reaches = lambda *args: calls.update(["reaches"]) or reaches(*args)
    claims = 0
    try:
        for solve in solves:
            captured.clear()
            try:
                if solve().stats["decided_by"] == "claims":
                    captured.pop()
                    claims += 1
            except games.ResourceExceeded:
                pass
            truncations += captured
    finally:
        games.solve_parity_ids = solve_parity_ids
        games._zielonka, games._reaches = zielonka, reaches
    ms = best_ms({"finite": lambda: [solve_parity_ids(o, e) for o, e in truncations]})
    return {"pushdown_solves": len(solves), "truncation_solves": len(truncations),
            "claim_solves": claims, "finite_per_pushdown": (len(truncations) + claims) / len(solves),
            "vertices": sum(len(o) for o, _ in truncations),
            "edges": sum(len(e) for _, e in truncations), "ms": ms["finite"],
            "zielonka_levels": calls["zielonka"], "reaches_calls": calls["reaches"]}


def cycle_game(n: int) -> games.PushdownParityGame:
    """The cycle family: n states at the bottom of the stack, owners
    alternating, the move from state i to i + 1 (mod n) of color i and a
    color-0 loop at each state."""
    moves = [games.GameMove(i, core.BOTTOM, (i + 1) % n, (core.BOTTOM,), i) for i in range(n)]
    moves += [games.GameMove(i, core.BOTTOM, i, (core.BOTTOM,), 0) for i in range(n)]
    owner = {i: games.EVE if i % 2 == 0 else games.ADAM for i in range(n)}
    return games.PushdownParityGame(tuple(range(n)), (), 0, owner, tuple(moves))


def cycle_family_layer() -> list:
    """``solve_pushdown_parity_game`` on ``cycle_game(n)`` at budget 10n for
    each n in CYCLE_STATES, best of CYCLE_REPEATS single runs.  The first
    truncation decides it on n vertices, and Zielonka nests one level per
    color, so the time grows faster than n (ROADMAP item 4)."""
    rows = []
    for i, n in enumerate(CYCLE_STATES):
        game, results = cycle_game(n), []
        ms = min(timed_ms(lambda: results.append(games.solve_pushdown_parity_game(game, 10 * n)))
                 for _ in range(CYCLE_REPEATS))
        rows.append({"states": n, "budget": 10 * n, "solve_ms": ms, "winner": results[0].winner,
                     "vertices": results[0].stats["vertices"],
                     "growth": None if i == 0 else ms / rows[-1]["solve_ms"]})
    return rows


def closure_layer() -> list:
    """``DetPushdown.start``, the epsilon closure of the initial configuration,
    on the tests' epsilon recursion of each depth in CLOSURE_DEPTHS; a level
    more doubles the chain of 5 * 2**depth - 3 steps."""
    machines = {}
    for depth in CLOSURE_DEPTHS:
        pda = epsilon_recursion(depth)
        machines[depth] = resolvers.DetPushdown(pda.states, pda.initial, pda.stack_alphabet,
                                                pda.transitions)
    series = doubling_series("depth", lambda m: m.start(), machines, unit="close_ms")
    for row in series:
        m = machines[row["depth"]]
        start = core.Configuration(m.initial, (core.BOTTOM,))
        row["steps"] = sum(1 for _ in m._epsilon_steps(start))
    return series


def constructions_layer() -> dict:
    """The constructions that ``core.explore`` builds from an initial state:
    det(example23) by its Moore resolver, and ``build_pd`` plus the arena on
    the benchmark's 150 seed-940 specifications."""
    ex23 = zoo.example23()
    det = resolvers.determinize_moore(ex23.automaton, ex23.resolver)
    ms = best_ms({"det": lambda: resolvers.determinize_moore(ex23.automaton, ex23.resolver)})

    api = SimpleNamespace(core=core, games=games)
    base = random.Random(corpus.SPEC_BASE_SEED)
    specs = [corpus.random_spec(api, base) for _ in range(SPECS)]

    def arenas():
        out = []
        for spec in specs:
            pd, info = games.build_pd(spec)
            out.append((pd, games.gs_to_pushdown_game(pd, info)))
        return out

    built = arenas()
    ms.update(best_ms({"arenas": arenas}))
    return {"determinize_moore:example23": {"ms": ms["det"], "states": len(det.states),
                                            "transitions": len(det.transitions)},
            "build_pd+arena:specs": {
                "specs": SPECS, "ms": ms["arenas"],
                "pd_states": sum(len(pd.states) for pd, _ in built),
                "pd_transitions": sum(len(pd.transitions) for pd, _ in built),
                "arena_states": sum(len(g.states) for _, g in built),
                "arena_moves": sum(len(g.moves) for _, g in built)}}


def main(argv: list[str]) -> int:
    out = argv[1] if len(argv) > 1 else "BENCH.json"
    started = time.perf_counter()
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "repeats": REPEATS, "series_seed": SERIES_SEED, "import": import_layer(),
              "parse": parse_layer(),
              "membership": membership_layer(), "emptiness": emptiness_layer(),
              "guided": guided_layer(),
              "synthesis": synthesis_layer(), "gale_stewart": gale_stewart_layer(),
              "finite_solve": finite_solve_layer(), "cycle_family": cycle_family_layer(),
              "closure": closure_layer(),
              "constructions": constructions_layer()}
    report["elapsed_s"] = time.perf_counter() - started
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    row = report["import"]
    print(f"import: fresh {row['fresh_import_ms']:.1f} ms (bytecode writing "
          f"{'on' if row['bytecode_writing'] else 'off'}, "
          f"{'all' if row['bytecode_cached'] else 'not all'} modules cached); compile "
          + ", ".join(f"{name} {ms:.1f}" for name, ms in row["compile_ms"].items())
          + f" = {row['compile_total_ms']:.1f} ms; lines "
          + ", ".join(f"{name} {n}" for name, n in row["lines"].items())
          + f" = {row['lines_total']}; ast nodes "
          + ", ".join(f"{name} {n}" for name, n in row["ast_nodes"].items())
          + f" = {row['ast_nodes_total']}")
    gate = report["parse"]["det_example23"]
    print(f"parse det(example23): {gate['parse_ms']:.3f} ms, "
          f"{gate['parse_over_slowest_tail']:.2f}-{gate['parse_over_fastest_tail']:.2f}x "
          f"one accepts_tail_of")
    for series, what in (("series", "lines"), ("dpa_series", "states"), ("gs_series", "pairs")):
        for row in report["parse"][series]:
            growth = "" if row["growth"] is None else f"  x{row['growth']:.2f}"
            print(f"{series} {row[what]:5d} {what}: {row['parse_ms']:.3f} ms{growth}")
    for name, row in report["parse"]["readers"].items():
        print(f"{name}: {row['parse_ms']:.3f} ms ({row['lines']} lines)")
    row = report["membership"]["zoo_sample"]
    print(f"membership zoo sample: {row['ms']:.3f} ms for {row['queries']} queries, "
          f"{row['us_per_query']:.1f} us each: parse {row['parse_ms']:.3f} ms "
          f"({row['parse_share']:.0%}), lasso_membership {row['membership_ms']:.3f} ms")
    print(f"membership zoo sample: heads {row['pass_heads']} of {row['full_heads']}, "
          f"pop facts {row['pass_facts']} of {row['full_facts']} (pass of unrestricted product), "
          f"{row['searched_heads']} heads searched")
    for row in report["membership"]["lss_series"]:
        growth = "" if row["growth"] is None else f"  x{row['growth']:.2f}"
        print(f"membership lss |u|={row['u']:3d}: {row['membership_ms']:.3f} ms, "
              f"accepted {row['accepted']}, heads {row['pass_heads']} of {row['full_heads']} "
              f"({row['searched_heads']} searched), "
              f"pop facts {row['pass_facts']} of {row['full_facts']}{growth}")
    row = report["emptiness"]
    print(f"emptiness: {row['ms']:.3f} ms for {row['automata']} automata, "
          f"{row['nonempty']} nonempty with {row['witness_transitions']} witness transitions")
    guided = report["guided"]
    for series, what, unit in (("verify_series", "guard", "verify_ms"),
                               ("run_series", "letters", "run_ms")):
        for row in guided[series]:
            growth = "" if row["growth"] is None else f"  x{row['growth']:.2f}"
            print(f"guided {series} {row[what]:5d} {what}: {row[unit]:.3f} ms{growth}")
    row = guided["lifted_verify"]
    print(f"guided lifted_verify guard {row['guard']}: {row['verify_ms']:.3f} ms "
          f"({row['states']} states, {row['transitions']} transitions)")
    for name, row in report["synthesis"].items():
        print(f"synth {name}: {row['synth_ms']:.3f} ms, {row['states']} states, "
              f"{row['rules']} rules")
    for name, row in report["gale_stewart"].items():
        vertices = ", ".join(f"{n} by {phase}" for phase, n in row["vertices"].items())
        print(f"gale_stewart {name} ({row['specs']} specs): {row['ms']:.3f} ms, "
              f"{row['eve_wins']} Eve wins with {row['strategy_states']} strategy states, "
              f"{row['strategy_rules']} rules; "
              f"solver vertices {vertices}")
    row = report["finite_solve"]
    print(f"finite_solve: {row['ms']:.3f} ms for {row['truncation_solves']} truncation games "
          f"({row['vertices']} vertices, {row['edges']} edges); "
          f"{row['finite_per_pushdown']:.3f} finite solves per pushdown solve "
          f"({row['pushdown_solves']} solves, {row['claim_solves']} claim games); "
          f"{row['zielonka_levels']} Zielonka levels, {row['reaches_calls']} _reaches calls")
    for row in report["cycle_family"]:
        growth = "" if row["growth"] is None else f"  x{row['growth']:.2f}"
        print(f"cycle_family {row['states']:4d} states (budget {row['budget']}): "
              f"{row['solve_ms']:.3f} ms, {row['winner']} on {row['vertices']} vertices{growth}")
    for row in report["closure"]:
        growth = "" if row["growth"] is None else f"  x{row['growth']:.2f}"
        print(f"closure recursion depth {row['depth']:2d}: {row['close_ms']:.3f} ms, "
              f"{row['steps']} steps{growth}")
    built = report["constructions"]
    row = built["determinize_moore:example23"]
    print(f"construct determinize_moore(example23): {row['ms']:.3f} ms, {row['states']} states, "
          f"{row['transitions']} transitions")
    row = built["build_pd+arena:specs"]
    print(f"construct build_pd+arena ({row['specs']} specs): {row['ms']:.3f} ms, "
          f"{row['pd_states']} pd states, {row['arena_states']} arena states, "
          f"{row['arena_moves']} moves")
    print(f"bench took {report['elapsed_s']:.1f} s; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
