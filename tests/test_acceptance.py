"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and count is pinned here.
"""

import random
import time

from gfgpda import analysis, zoo
from gfgpda.closure import (
    DeterministicParityAutomaton,
    muller_accepts,
    product,
)
from gfgpda.core import LassoWord, check_visibly, is_deterministic
from gfgpda.games import (
    ADAM,
    EVE,
    build_pd,
    make_universality_spec,
    simulate_play,
    solve_gale_stewart,
    solve_pushdown_parity_game,
    synthesize_strategy_pdt,
)
from gfgpda.resolvers import determinize_moore, periodic_split, verify_resolver
from gfgpda.zoo import all_fixtures

from helpers import (
    condition_word,
    copycat_spec,
    decode_blocks,
    dpa_lasso_verdict,
    embed_finite_game,
    encode_blocks,
    eps_block_spec,
    finite_game_oracle,
    pq_drain_spec,
    random_adam_lassos,
    random_finite_game,
    zielonka_verdict,
)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_membership_corpus():
    started = time.monotonic()
    checks = 0
    disagreements = []
    for fx in all_fixtures():
        for w, flag in fx.sample(seed=101, count=20):
            checks += 1
            if analysis.lasso_membership(fx.automaton, w) != flag:
                disagreements.append((fx.name, str(w)))
    elapsed = time.monotonic() - started
    report(
        "criterion-1 membership corpus",
        not disagreements and checks >= 180 and elapsed < 10.0,
        f"{checks} checks, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    conclusive = 0
    disagreements = []
    for fx in all_fixtures():
        for w, _flag in fx.sample(seed=101, count=20):
            verdict = analysis.brute_force_lasso_oracle(fx.automaton, w, 8, 30_000)
            if verdict == analysis.UNKNOWN:
                continue
            conclusive += 1
            if verdict != analysis.lasso_membership(fx.automaton, w):
                disagreements.append((fx.name, str(w)))
    report(
        "criterion-2 oracle equivalence",
        not disagreements and conclusive > 100,
        f"{conclusive} conclusive pairs, {len(disagreements)} disagreements",
    )


def test_criterion_3_universality_verdicts():
    t0 = time.monotonic()
    fig1 = solve_gale_stewart(make_universality_spec(zoo.figure1().automaton))
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    fig2 = solve_gale_stewart(make_universality_spec(zoo.example23().automaton))
    t2 = time.monotonic() - t0
    report(
        "criterion-3 universality via the game reduction",
        fig1.winner == EVE and fig2.winner == ADAM and t1 < 60 and t2 < 60,
        f"figure1={fig1.winner} in {t1:.1f}s, example23={fig2.winner} in {t2:.1f}s",
    )


def test_criterion_4_moore_determinization():
    fx = zoo.example23()
    d = determinize_moore(fx.automaton, fx.resolver)
    rng = random.Random(404)
    agree = total = 0
    for _ in range(50):
        u = tuple(rng.choice("abcd#") for _ in range(rng.randint(0, 5)))
        v = tuple(rng.choice(["#", "d", "c#"]) for _ in range(1))
        w = LassoWord(u, tuple("".join(v)))
        total += 1
        if analysis.lasso_membership(d, w) == analysis.lasso_membership(fx.automaton, w):
            agree += 1
    report(
        "criterion-4 Moore determinization language equality",
        agree == total == 50,
        f"{agree}/{total} lassos agree",
    )


def test_criterion_5_resolver_soundness():
    results = []
    for fx in (zoo.example23(), zoo.lss()):
        suite = [(w, f) for w, f in fx.sample(seed=505, count=30) if f]
        rep = verify_resolver(fx.automaton, fx.resolver, suite, guard=900)
        passed = all(e[2] == "pass" for e in rep.entries)
        results.append((fx.name, passed, len(rep.entries)))
    report(
        "criterion-5 resolver soundness",
        all(p for _, p, _ in results) and all(n >= 5 for _, _, n in results),
        "; ".join(f"{name}: {n} in-language lassos" for name, _p, n in results),
    )


def test_criterion_6_pushdown_solver_vs_finite_oracle():
    started = time.monotonic()
    rng = random.Random(606)
    agree = 0
    for _ in range(100):
        g = random_finite_game(rng)
        v0 = g.vertices[0]
        res = solve_pushdown_parity_game(embed_finite_game(g, v0))
        if res.winner == finite_game_oracle(g, v0):
            agree += 1
    elapsed = time.monotonic() - started
    report(
        "criterion-6 pushdown solver vs exhaustive enumeration",
        agree == 100 and elapsed < 60,
        f"{agree}/100 games agree, {elapsed:.1f}s",
    )


def test_criterion_7_synthesis_end_to_end():
    started = time.monotonic()
    specs = [
        ("figure1-universality", make_universality_spec(zoo.figure1().automaton)),
        ("copycat", copycat_spec()),
        ("pq-drain", pq_drain_spec()),
    ]
    failures = []
    for name, spec in specs:
        strategy = synthesize_strategy_pdt(spec)
        rng = random.Random(707)
        for adam in random_adam_lassos(rng, spec.sigma1, 20):
            outcome = simulate_play(strategy, adam)
            if not analysis.lasso_membership(spec.condition, condition_word(spec, outcome)):
                failures.append((name, str(adam)))
    elapsed = time.monotonic() - started
    report(
        "criterion-7 synthesis end-to-end",
        not failures and elapsed < 120,
        f"3 specs x 20 adversaries, {len(failures)} losses, {elapsed:.1f}s",
    )


def test_criterion_8_pd_round_trip():
    encodings = []
    for fx in (zoo.example23(), zoo.figure1()):
        spec = make_universality_spec(fx.automaton)
        pd, info = build_pd(spec)
        in_words = [w for w, f in fx.sample(seed=808, count=90) if f][:15]
        assert len(in_words) == 15
        for w in in_words:
            split = periodic_split(spec.condition, fx.resolver, w)
            assert split.verdict == "accepted"
            pairs = [(w.letter_at(i), "#") for i in range(split.stem_letters + split.loop_letters)]
            stem_pairs = pairs[: split.stem_letters]
            loop_pairs = pairs[split.stem_letters:]
            enc_stem = encode_blocks(spec, info, stem_pairs, split.stem_transitions)
            enc_loop = encode_blocks(spec, info, loop_pairs, split.loop_transitions)
            encoding = LassoWord(tuple(enc_stem), tuple(enc_loop))
            encodings.append((pd, info, spec, encoding))

    accepted = sum(
        1 for pd, _i, _s, enc in encodings if analysis.lasso_membership(pd, enc)
    )

    # decode direction on a seeded sample of accepted encodings (plus mutants)
    rng = random.Random(888)
    decoded_ok = sampled = 0
    for pd, info, spec, enc in encodings:
        variants = [enc]
        letters = list(enc.prefix + enc.loop)
        if letters:
            mutated = list(letters)
            mutated[rng.randrange(len(mutated))] = rng.choice(pd.input_alphabet)
            variants.append(LassoWord(tuple(mutated[: len(enc.prefix)]),
                                      tuple(mutated[len(enc.prefix):]) or enc.loop))
        for v in variants:
            try:
                if not analysis.lasso_membership(pd, v):
                    continue
            except ValueError:
                continue
            sampled += 1
            pairs, run = decode_blocks(info, v.prefix + v.loop)
            _, loop_run = decode_blocks(info, v.prefix + v.loop)
            from gfgpda.core import replay

            replay(spec.condition, tuple(run))
            _, stem_run = decode_blocks(info, v.prefix) if v.prefix else ([], [])
            loop_trs = run[len(stem_run):]
            if loop_trs and max(t.color for t in loop_trs) % 2 == 0:
                decoded_ok += 1

    report(
        "criterion-8 block encoding round trip",
        accepted == 30 and sampled >= 30 and decoded_ok == sampled,
        f"{accepted}/30 encodings accepted; {decoded_ok}/{sampled} decoded accepting",
    )


def test_criterion_9_closure_products_and_zielonka_memory():
    pda = zoo.example23().automaton
    dpa = DeterministicParityAutomaton(
        ("d0",), pda.input_alphabet, "d0",
        {("d0", a): "d0" for a in pda.input_alphabet},
        {("d0", a): (2 if a == "d" else 1) for a in pda.input_alphabet},
    )
    ops = {
        "intersect": lambda p, a: p and a,
        "union": lambda p, a: p or a,
        "minus": lambda p, a: p and not a,
    }
    rng = random.Random(909)
    words = [w for w, _ in zoo.example23().sample(seed=909, count=30)]
    while len(words) < 50:
        u = tuple(rng.choice("abcd#") for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice("abcd#") for _ in range(rng.randint(1, 2)))
        words.append(LassoWord(u, v))
    mismatches = 0
    for mode, op in ops.items():
        prod = product(pda, dpa, mode)
        for w in words:
            want = op(analysis.lasso_membership(pda, w), dpa_lasso_verdict(dpa, w))
            if analysis.lasso_membership(prod, w) != want:
                mismatches += 1

    tree_checks = tree_bad = 0
    pool = [(p, a) for p in range(3) for a in range(2)]
    for _ in range(200):
        prefix = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        loop = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        mode = rng.choice(("intersect", "union", "minus"))
        tree_checks += 1
        if zielonka_verdict(mode, prefix + loop, len(prefix)) != muller_accepts(
            mode, frozenset(loop)
        ):
            tree_bad += 1
    report(
        "criterion-9 closure products and Zielonka-tree memory",
        mismatches == 0 and tree_checks == 200 and tree_bad == 0,
        f"150 product checks, {mismatches} mismatches; 200 tree checks, {tree_bad} bad",
    )


def test_criterion_10_structural_determinism_and_visibly():
    pd_ok = True
    for name in ("figure1", "example23", "lss", "parity2", "twopump"):
        spec = make_universality_spec(zoo.get(name).automaton)
        pd, _ = build_pd(spec)
        pd_ok = pd_ok and is_deterministic(pd)[0]

    fx = zoo.example23()
    det_ok = is_deterministic(determinize_moore(fx.automaton, fx.resolver))[0]

    tmd_ok = True
    for spec in (make_universality_spec(zoo.figure1().automaton), copycat_spec(),
                 pq_drain_spec(), eps_block_spec()):
        strategy = synthesize_strategy_pdt(spec)
        tmd_ok = tmd_ok and is_deterministic(strategy.machine)[0]

    rep = zoo.repbdd()
    vis_ok = check_visibly(rep.automaton, rep.partition)[0]

    lss = zoo.lss()
    letters = list(lss.automaton.input_alphabet)
    rng = random.Random(1010)
    rejects = 0
    for _ in range(10):
        rng.shuffle(letters)
        k1, k2 = sorted(rng.sample(range(len(letters) + 1), 2))
        part = (tuple(letters[:k1]), tuple(letters[k1:k2]), tuple(letters[k2:]))
        if not check_visibly(lss.automaton, part)[0]:
            rejects += 1
    report(
        "criterion-10 structural determinism and visibly checks",
        pd_ok and det_ok and tmd_ok and vis_ok and rejects == 10,
        f"pd={pd_ok}, determinize={det_ok}, delay-transform={tmd_ok}, "
        f"repbdd-visibly={vis_ok}, lss-partitions-rejected={rejects}/10",
    )
