import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gfgpda import analysis, zoo
from gfgpda.analysis import (
    UNKNOWN,
    accepts_tail_of,
    brute_force_lasso_oracle,
    lasso_membership,
    parity_nonempty,
    saturate_pre_star,
)
from gfgpda.core import (
    BOTTOM, Configuration, LassoWord, OmegaPDA, Transition, is_deterministic, parse_lasso, replay,
)
from gfgpda.resolvers import determinize_moore
from helpers import (
    det_run_accepts, full_lasso_product, game_membership, normalize_colors, pa_empty,
    pa_from_words, pa_universal, random_pda, random_spec, started_at, validate_witness,
)


@pytest.fixture(scope="module")
def fig2():
    return zoo.example23().automaton


def all_configs(pda, max_height):
    for q in pda.states:
        for h in range(max_height + 1):
            for word in itertools.product(pda.stack_alphabet, repeat=h):
                yield Configuration(q, (BOTTOM,) + word)


def restrict(pda, allowed):
    """The automaton with only the allowed transitions."""
    kept = tuple(t for t in pda.transitions if allowed(t))
    return OmegaPDA(pda.states, pda.input_alphabet, pda.stack_alphabet, pda.initial, kept)


def reachable_by_bfs(pda, allowed, target_pa, config, height_cap=6, node_cap=4000):
    """Independent forward search: can `config` reach the target set?  Nodes
    are (state, stack) tuples, so the search does not lean on the
    configuration equality it checks; a Configuration is built only to ask
    the P-automaton."""
    start = (config.state, config.stack)
    seen = {start}
    queue = [start]
    while queue:
        q, stack = queue.pop()
        if target_pa.accepts(Configuration(q, stack)):
            return True
        for t in pda.by_source_top.get((q, stack[-1]), ()):
            if not allowed(t):
                continue
            nxt = (t.target, stack[:-1] + t.push)
            if len(nxt[1]) - 1 > height_cap or nxt in seen:
                continue
            if len(seen) > node_cap:
                return None
            seen.add(nxt)
            queue.append(nxt)
    return False


# -- saturation -------------------------------------------------------------


def test_pre_star_of_everything_is_everything(fig2):
    sat = saturate_pre_star(fig2, pa_universal(fig2))
    for c in all_configs(fig2, 2):
        assert sat.accepts(c)


def test_pre_star_of_empty_is_empty(fig2):
    sat = saturate_pre_star(fig2, pa_empty())
    for c in all_configs(fig2, 2):
        assert not sat.accepts(c)


def test_pre_star_fig2_hash_transitions(fig2):
    allowed = lambda t: t.label in (None, "#")
    target = pa_from_words([(BOTTOM, "q4")])
    sat = saturate_pre_star(restrict(fig2, allowed), target)
    assert sat.accepts(Configuration("q4", (BOTTOM,)))
    assert sat.accepts(Configuration("q2", (BOTTOM, "A")))
    assert sat.accepts(Configuration("q5", (BOTTOM, "B")))
    assert not sat.accepts(Configuration("q1", (BOTTOM, "N")))


def test_pre_star_matches_bfs_on_fixtures():
    target_height = 1
    for fx in zoo.all_fixtures():
        pda = fx.automaton
        targets = [c.stack + (c.state,) for c in all_configs(pda, target_height)][:6]
        target = pa_from_words(targets)
        for allowed in (lambda t: True, lambda t: t.label is None):
            sat = saturate_pre_star(restrict(pda, allowed), target)
            for c in all_configs(pda, 3):
                expect = reachable_by_bfs(pda, allowed, target, c)
                if expect is None:
                    continue
                assert sat.accepts(c) == expect, (fx.name, c)


def test_pre_star_is_a_fixpoint(fig2):
    allowed = lambda t: t.label in (None, "#")
    hash_only = restrict(fig2, allowed)
    sat = saturate_pre_star(hash_only, pa_from_words([(BOTTOM, "q4")]))
    sat2 = saturate_pre_star(hash_only, sat)
    for c in all_configs(fig2, 3):
        assert sat.accepts(c) == sat2.accepts(c)


def test_saturation_adds_no_states():
    # Each added edge leaves a control state and ends in a control state or
    # a state of the target, so pre* can be applied again without growing.
    for fx in zoo.all_fixtures():
        pda = fx.automaton
        targets = [
            pa_universal(pda),
            pa_from_words([c.stack + (c.state,) for c in all_configs(pda, 1)][:6]),
        ]
        for target in targets:
            known = set(pda.states) | target.finals | {e[i] for e in target.edges for i in (0, 2)}
            for allowed in (lambda t: True, lambda t: t.label is None):
                sat = saturate_pre_star(restrict(pda, allowed), target)
                for s, sym, t in sat.edges - target.edges:
                    assert s in pda.states and t in known, (fx.name, (s, sym, t))


# -- tail sets ---------------------------------------------------------------


def test_accepts_tail_of_fig2(fig2):
    C = accepts_tail_of(fig2, "#")
    assert C.accepts(Configuration("q4", (BOTTOM,)))
    assert C.accepts(Configuration("q2", (BOTTOM, "A")))
    assert C.accepts(Configuration("q5", (BOTTOM, "B")))
    assert not C.accepts(Configuration("q0", (BOTTOM,)))
    # from (q2, _AN) only d's can be read, so #^w is not accepted there
    assert not C.accepts(Configuration("q2", (BOTTOM, "A", "N")))
    assert not C.accepts(Configuration("q2", (BOTTOM, "N")))


def test_accepts_tail_matches_bfs_oracle(fig2):
    # independent check: C agrees with explicit bounded search over the
    # restricted step relation followed by a bounded accepting-lasso check
    C = accepts_tail_of(fig2, "#")
    for c in all_configs(fig2, 2):
        expect = _accepts_tail_brute(fig2, c, "#")
        if expect is not None:
            assert C.accepts(c) == expect, c


def _accepts_tail_brute(pda, config, letter, height_cap=5, node_cap=3000):
    """Bounded explicit check that letter^w is accepted from config: search
    the restricted configuration graph for a reachable cycle whose max color
    is even and which reads at least one letter.  Nodes are (state, stack)
    tuples, as in ``reachable_by_bfs``."""
    start = (config.state, config.stack)
    nodes = {start}
    queue = [start]
    edges = []
    overflow = False
    while queue:
        c = queue.pop()
        q, stack = c
        for t in pda.by_source_top.get((q, stack[-1]), ()):
            if t.label not in (None, letter):
                continue
            nxt = (t.target, stack[:-1] + t.push)
            if len(nxt[1]) - 1 > height_cap:
                overflow = True
                continue
            edges.append((c, t.color, t.label is not None, nxt))
            if nxt not in nodes:
                if len(nodes) > node_cap:
                    return None
                nodes.add(nxt)
                queue.append(nxt)

    def path(src, dst, bound):
        seen, stack = {src}, [src]
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            for (a, cc, _l, b) in edges:
                if a == u and cc <= bound and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return False

    colors = sorted({c for _, c, _, _ in edges})
    for d in colors:
        if d % 2 != 0:
            continue
        for (a1, c1, l1, b1) in edges:
            if c1 != d:
                continue
            for (a2, c2, l2, b2) in edges:
                if c2 > d or not l2:
                    continue
                if path(b1, a2, d) and path(b2, a1, d):
                    return True
    return False if not overflow else None


def test_tail_sets_of_every_fixture_match_brute_force():
    # Tail sets check heads with a pushed top symbol, so they need witnesses
    # that replay from a start configuration other than the initial one.
    decided = total = 0
    for fx in zoo.all_fixtures():
        pda = fx.automaton
        for letter in pda.input_alphabet:
            C = accepts_tail_of(pda, letter)
            for c in all_configs(pda, 2):
                expect = _accepts_tail_brute(pda, c, letter)
                total += 1
                if expect is not None:
                    decided += 1
                    assert C.accepts(c) == expect, (fx.name, letter, c)
    assert (decided, total) == (649, 717)


def _tail_set_automata():
    for fx in zoo.all_fixtures():
        yield fx.name, fx.automaton
    for name in ("example23", "figure1"):
        fx = zoo.get(name)
        yield f"det({name})", determinize_moore(fx.automaton, fx.resolver)


def test_tail_set_heads_match_per_start_emptiness(monkeypatch):
    # The accepting heads (the set saturation starts from) must be exactly
    # the heads whose per-start emptiness check finds a level-preserving
    # accepting run: from (q, _X) on the automaton without bottom moves,
    # from (q, _) on the automaton with them.
    seeds = []
    pa_of_heads = analysis._pa_of_heads
    monkeypatch.setattr(
        analysis, "_pa_of_heads",
        lambda pda, heads: seeds.append(pa_of_heads(pda, heads)) or seeds[-1],
    )
    for name, pda in _tail_set_automata():
        for letter in pda.input_alphabet:
            accepts_tail_of(pda, letter)
            heads = seeds.pop()
            kept = tuple(t for t in pda.transitions if t.label in (None, letter))
            parts = (pda.states, pda.input_alphabet, pda.stack_alphabet, pda.initial)
            bottom_level = OmegaPDA(*parts, kept)
            level = OmegaPDA(*parts, tuple(t for t in kept if t.top != BOTTOM))
            for q in pda.states:
                starts = [(bottom_level, (BOTTOM,))]
                starts += [(level, (BOTTOM, x)) for x in pda.stack_alphabet]
                for auto, stack in starts:
                    start = Configuration(q, stack)
                    expected = parity_nonempty(started_at(auto, start)) is not None
                    assert heads.accepts(start) == expected, (name, letter, start)


def test_tail_set_work_does_not_grow_with_heads(monkeypatch):
    # One summary, one saturation, one head adjacency: every even color
    # filters that adjacency, and no query builds a second one.  Membership
    # builds no summary and runs no saturation: its head-driven pass has both.
    fx = zoo.example23()
    det = determinize_moore(fx.automaton, fx.resolver)
    assert len(det.states) * (1 + len(det.stack_alphabet)) > 100
    calls = {"nonempty": 0, "summary": 0, "saturate": 0}
    nonempty, summary, saturate = analysis.parity_nonempty, analysis._Summary, analysis._saturate

    def counting_nonempty(*args, **kwargs):
        calls["nonempty"] += 1
        return nonempty(*args, **kwargs)

    def counting_saturate(*args, **kwargs):
        calls["saturate"] += 1
        return saturate(*args, **kwargs)

    class CountingSummary(summary):
        def __init__(self, *args, **kwargs):
            calls["summary"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "parity_nonempty", counting_nonempty)
    monkeypatch.setattr(analysis, "_Summary", CountingSummary)
    monkeypatch.setattr(analysis, "_saturate", counting_saturate)
    for letter in det.input_alphabet:
        calls.update(nonempty=0, summary=0, saturate=0)
        accepts_tail_of(det, letter)
        # One saturation: the tail set reads pre* off the summary's pop facts.
        assert calls == {"nonempty": 0, "summary": 1, "saturate": 1}, (letter, calls)
    six = zoo.parity_language(6).automaton
    assert sorted({t.color for t in six.transitions if t.color % 2 == 0}) == [2, 4, 6]
    queries = [
        (lambda: parity_nonempty(six), 1),
        (lambda: lasso_membership(six, LassoWord(("1",), ("5", "6"))), 0),
        (lambda: lasso_membership(six, LassoWord((), ("1",))), 0),
    ]
    for query, summaries in queries:
        calls.update(summary=0, saturate=0)
        query()
        assert calls["summary"] == calls["saturate"] == summaries, calls


def test_tail_set_is_pre_star_of_the_accepting_heads():
    # The tail set reads pre* off the summary's pop facts; saturate_pre_star
    # of the accepting heads over the letter-restricted automaton stays the
    # reference.
    rng = random.Random(2024)
    automata = list(_tail_set_automata()) + [("parity6", zoo.parity_language(6).automaton)]
    automata += [(f"random{i}", random_pda(rng)) for i in range(300)]
    for name, pda in automata:
        for letter in pda.input_alphabet:
            kept = restrict(pda, lambda t: t.label in (None, letter))
            heads = analysis._Summary(analysis._rules(kept.transitions)).accepting_heads()
            expected = saturate_pre_star(kept, analysis._pa_of_heads(pda, heads))
            assert accepts_tail_of(pda, letter) == expected, (name, letter)


def test_accepts_tail_of_all_odd():
    fx = zoo.allodd()
    C = accepts_tail_of(fx.automaton, "x")
    for c in all_configs(fx.automaton, 2):
        assert not C.accepts(c)


def test_accepts_tail_matches_membership_on_initial(fig2):
    # (q0, bottom) is in the #-tail set iff #^w is accepted from scratch
    C = accepts_tail_of(fig2, "#")
    assert C.accepts(fig2.initial_configuration()) == lasso_membership(
        fig2, LassoWord((), ("#",))
    )


# -- emptiness ---------------------------------------------------------------


def test_parity_nonempty_fig2_witness(fig2):
    w = parity_nonempty(fig2)
    assert w is not None
    validate_witness(fig2, w)
    assert all(t.source == "q4" for t in w.loop)


def test_parity_nonempty_all_odd():
    assert parity_nonempty(zoo.allodd().automaton) is None


def test_no_even_color_answers_before_any_pass(monkeypatch):
    # Without an even color no run accepts: membership (after its letter
    # check) and emptiness answer before the head pass or a saturation.
    def never(*_args):
        raise AssertionError("a pass ran on an automaton without an even color")

    monkeypatch.setattr(analysis, "_lasso_heads", never)
    monkeypatch.setattr(analysis, "_saturate", never)
    fx = zoo.allodd()
    for w, _flag in fx.sample():
        assert lasso_membership(fx.automaton, w) is False
    assert parity_nonempty(fx.automaton) is None
    with pytest.raises(ValueError, match="not in the input alphabet"):
        lasso_membership(fx.automaton, LassoWord((), ("y",)))


def test_odd_recolored_automata_reject_as_the_oracle_says():
    rng = random.Random(33)
    decided = 0
    for i in range(150):
        pda = random_pda(rng)
        odd = OmegaPDA(pda.states, pda.input_alphabet, pda.stack_alphabet, pda.initial, tuple(
            Transition(t.source, t.top, t.label, t.target, t.push, 2 * t.color + 1)
            for t in pda.transitions))
        assert parity_nonempty(odd) is None, i
        for _ in range(3):
            u = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(1, 3)))
            w = LassoWord(u, v)
            assert lasso_membership(odd, w) is False, (i, str(w))
            verdict = brute_force_lasso_oracle(odd, w, 5, 3_000)
            assert verdict in (False, UNKNOWN), (i, str(w))
            decided += verdict is False
    assert decided >= 300


def _game_membership_queries():
    """Each fixture's samples of seeds 0-2 and the ``;a`` tail of each of its
    letters, det(example23) on example23's samples, and 300 seeded random
    automata with one seeded lasso each."""
    for fx in zoo.all_fixtures():
        for seed in range(3):
            for w, _flag in fx.sample(seed, 10):
                yield fx.name, fx.automaton, w
        for a in fx.automaton.input_alphabet:
            yield fx.name, fx.automaton, LassoWord((), (a,))
    fx = zoo.example23()
    det = determinize_moore(fx.automaton, fx.resolver)
    for seed in range(3):
        for w, _flag in fx.sample(seed, 10):
            yield "det(example23)", det, w
    rng = random.Random(5)
    for i in range(300):
        pda = random_pda(rng)
        u = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(1, 3)))
        yield f"random {i}", pda, LassoWord(u, v)


def test_membership_agrees_with_the_one_player_game():
    # The game is exact where the bounded oracle gives up, as when every
    # accepting run pushes in every loop round: it leaves 78 of these
    # words UNKNOWN.
    unknown = 0
    for name, pda, w in _game_membership_queries():
        want = game_membership(pda, w)
        assert lasso_membership(pda, w) == want, (name, str(w))
        oracle = brute_force_lasso_oracle(pda, w, 12, 60_000)
        assert oracle in (want, UNKNOWN), (name, str(w))
        unknown += oracle == UNKNOWN
    assert unknown == 78


def test_parity_nonempty_lss_low_loop():
    fx = zoo.lss()
    w = parity_nonempty(fx.automaton)
    assert w is not None
    validate_witness(fx.automaton, w)
    assert max(t.color for t in w.loop) == 0
    # cross-check the witnessed word with the membership engine
    word = tuple(t.label for t in w.stem if t.label is not None)
    loop = tuple(t.label for t in w.loop if t.label is not None)
    assert lasso_membership(fx.automaton, LassoWord(word, loop))


def test_witnesses_validate_on_all_nonempty_fixtures():
    for fx in zoo.all_fixtures():
        w = parity_nonempty(fx.automaton)
        if w is not None:
            validate_witness(fx.automaton, w)


def test_witnesses_from_every_head_validate():
    for fx in zoo.all_fixtures():
        pda = fx.automaton
        for q in pda.states:
            for stack in [(BOTTOM,)] + [(BOTTOM, x) for x in pda.stack_alphabet]:
                started = started_at(pda, Configuration(q, stack))
                w = parity_nonempty(started)
                if w is not None:
                    validate_witness(started, w)


# The first witness parity_nonempty finds from the initial configuration,
# as indices of its stem and loop transitions.
FIXTURE_WITNESSES = {
    "figure1": ((0,), (5,)),
    "example23": ((0, 2, 5, 8), (12,)),
    "lss": ((), (0,)),
    "twopump": ((0, 1, 3, 6, 8), (15,)),
    "parity2": ((), (1, 0)),
    "parity3": ((), (1, 0)),
    "repbdd": ((0, 8), (18, 21)),
    "palindrome": ((0, 8, 15, 17), (18,)),
    "ncw1": ((0, 2, 5), (8,)),
    "ncw2": ((1, 3, 5), (6,)),
    "allodd": None,
    "det(example23)": ((0, 20, 29, 62, 40, 64, 77, 109), (115, 151, 115, 151)),
}
# Of the 50 automata random_pda draws from seed 23; the others are empty.
RANDOM_WITNESSES = {
    0: ((5, 6), (1, 6)), 3: ((1,), (0,)), 4: ((5,), (1, 1, 2)), 13: ((), (7,)),
    17: ((), (1, 0, 7)), 21: ((), (2, 0)), 23: ((7, 0), (2,)), 26: ((0, 3), (5,)),
    29: ((), (1, 0)), 32: ((), (6, 2, 0, 0, 6, 0)), 35: ((1,), (3, 6, 0, 6)),
    36: ((4,), (5, 7)), 38: ((), (4,)), 40: ((), (5,)), 42: ((1,), (4,)), 49: ((2,), (5,)),
}


def test_witnesses_are_pinned_as_transition_indices():
    def indices(pda):
        w = parity_nonempty(pda)
        if w is None:
            return None
        validate_witness(pda, w)
        index = {t: i for i, t in enumerate(pda.transitions)}
        return tuple(index[t] for t in w.stem), tuple(index[t] for t in w.loop)

    found = {fx.name: indices(fx.automaton) for fx in zoo.all_fixtures()}
    fx = zoo.example23()
    found["det(example23)"] = indices(determinize_moore(fx.automaton, fx.resolver))
    assert found == FIXTURE_WITNESSES
    rng = random.Random(23)
    found = {i: indices(random_pda(rng)) for i in range(50)}
    assert {i: w for i, w in found.items() if w is not None} == RANDOM_WITNESSES


# -- pop summaries against replay and a bounded search ---------------------------


def _pop_summary_automata():
    for fx in zoo.all_fixtures():
        yield fx.name, fx.automaton
    fx = zoo.example23()
    yield "det(example23)", determinize_moore(fx.automaton, fx.resolver)
    rng = random.Random(17)
    for i in range(100):
        yield f"random {i}", random_pda(rng)


def _bounded_pops(pda, height):
    """Pop facts ``(p, X, r, c, l)`` of the runs ``(p, _X) =>* (r, _)`` over
    stacks of at most ``height`` symbols above the bottom: ``c`` is the run's
    max color, ``l`` is 1 if it reads a letter."""
    found = set()
    for p in pda.states:
        for x in pda.stack_alphabet:
            start = (p, (x,), -1, 0)
            seen = {start}
            work = [start]
            while work:
                q, stack, c, l = work.pop()
                for t in pda.by_source_top.get((q, stack[-1]), ()):
                    nxt = (t.target, stack[:-1] + t.push,
                           max(c, t.color), l | (t.label is not None))
                    if not nxt[1]:
                        found.add((p, x, t.target, nxt[2], nxt[3]))
                    elif len(nxt[1]) <= height and nxt not in seen:
                        seen.add(nxt)
                        work.append(nxt)
    return found


def test_pop_facts_replay_as_pops():
    for name, pda in _pop_summary_automata():
        summary = analysis._Summary(analysis._rules(pda.transitions))
        for key in summary.defs:
            p, x, r, c, l = key
            ts = summary.expand(key)
            run = replay(pda, ts, Configuration(p, (BOTTOM, x)))
            assert run.last == Configuration(r, (BOTTOM,)), (name, key)
            assert all(cfg.height >= 1 for cfg in run.configurations[:-1]), (name, key)
            assert max(t.color for t in ts) == c, (name, key)
            assert any(t.label is not None for t in ts) == l, (name, key)


def test_pop_index_lists_each_fact_once_under_its_head():
    # The index is the saturation's own, in worklist order: each fact once,
    # under (p, X), with its derivation in the fact table.
    for name, pda in _pop_summary_automata():
        defs, by_head = analysis._saturate(analysis._rules(pda.transitions))
        listed = [(p, x, *entry[:3]) for (p, x), entries in by_head.items()
                  for entry in entries]
        assert sorted(listed) == sorted(defs), name
        for (p, x), entries in by_head.items():
            assert all(entry[3] == (p, x, *entry[:3]) for entry in entries), name


def test_pop_facts_include_every_bounded_pop():
    for name, pda in _pop_summary_automata():
        missing = _bounded_pops(pda, 3) - set(analysis._saturate(analysis._rules(pda.transitions))[0])
        assert not missing, (name, sorted(missing)[:3])


def test_color_layer_facts_are_the_color_restricted_facts():
    # A layer filters the shared facts by max color; that must be exactly
    # what saturating the automaton's transitions of color <= d gives.
    for name, pda in _pop_summary_automata():
        facts = set(analysis._saturate(analysis._rules(pda.transitions))[0])
        for d in sorted({t.color for t in pda.transitions if t.color % 2 == 0}):
            low = restrict(pda, lambda t: t.color <= d)
            kept = {key for key in facts if key[3] <= d}
            assert kept == set(analysis._saturate(analysis._rules(low.transitions))[0]), (name, d)


# -- membership ---------------------------------------------------------------


@pytest.mark.parametrize(
    "lasso,expected",
    [
        ("acd;#", True),
        ("bcdd;#", True),
        ("acdd;#", False),
        ("bccdddd;#", True),
        ("bcd;#", False),
        ("accdd;#", True),
        (";#", False),
        ("acd;d #", False),
    ],
)
def test_lasso_membership_fig2(fig2, lasso, expected):
    assert lasso_membership(fig2, parse_lasso(lasso)) == expected


def test_lasso_membership_fig1_universal():
    pda = zoo.figure1().automaton
    for text in (";a", ";b", "ab;ba", "bbb;ab"):
        assert lasso_membership(pda, parse_lasso(text))


def test_lasso_membership_rejects_foreign_letters(fig2):
    with pytest.raises(ValueError):
        lasso_membership(fig2, LassoWord((), ("z",)))


def test_oracle_examples(fig2):
    assert brute_force_lasso_oracle(fig2, parse_lasso("acd;#"), 5, 100) is True
    assert brute_force_lasso_oracle(fig2, parse_lasso("acdd;#"), 5, 100) is False


def test_oracle_unknown_when_bound_too_small():
    fx = zoo.repbdd()
    assert brute_force_lasso_oracle(fx.automaton, parse_lasso(";+"), 1, 100) == UNKNOWN


def test_oracle_unknown_past_its_node_bound(fig2):
    assert brute_force_lasso_oracle(fig2, parse_lasso("acd;#"), 5, 2) == UNKNOWN


def test_oracle_bounds_must_be_positive(fig2):
    for height, nodes in ((0, 10), (10, 0)):
        with pytest.raises(ValueError):
            brute_force_lasso_oracle(fig2, parse_lasso(";#"), height, nodes)


@given(st.sampled_from([f.name for f in zoo.all_fixtures()]), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_membership_agrees_with_oracle(name, seed):
    fx = zoo.get(name)
    (w, _flag) = fx.sample(seed=seed, count=1)[0]
    verdict = brute_force_lasso_oracle(fx.automaton, w, 7, 30_000)
    if verdict != UNKNOWN:
        assert verdict == lasso_membership(fx.automaton, w)


def _membership_queries():
    """Every fixture with its zoo sample, then 300 seeded random automata x 3 seeded words."""
    for fx in zoo.all_fixtures():
        for w, _flag in fx.sample():
            yield fx.name, fx.automaton, w
    rng = random.Random(29)
    for i in range(300):
        pda = random_pda(rng)
        for _ in range(3):
            u = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(1, 3)))
            yield f"random {i}", pda, LassoWord(u, v)


def _drain(epsilon):
    """a pushes X; b pops the Xs with color 1, and once the stack is empty
    stays at the bottom with color 2.  With ``epsilon``, b moves to a state
    that pops every X on epsilon instead.  Each pop repeats the position,
    state and top of the step before it, one level lower."""
    B = BOTTOM
    ts = [Transition("p", B, "a", "p", (B, "X"), 0), Transition("p", "X", "a", "p", ("X", "X"), 0),
          Transition("p", B, "b", "p", (B,), 2)]
    if epsilon:
        ts += [Transition("p", "X", "b", "e", ("X",), 0), Transition("e", "X", None, "e", (), 1),
               Transition("e", B, None, "p", (B,), 0)]
    else:
        ts.append(Transition("p", "X", "b", "p", (), 1))
    return OmegaPDA(("p", "e") if epsilon else ("p",), ("a", "b"), ("X",), "p", tuple(ts))


def _deterministic_queries():
    """The deterministic fixtures with their samples, det(example23) and
    det(figure1) with their fixtures' samples, both drains on a;b, aaa;b and
    a;abb, and the conditions of the seed-940 spec corpus that are their own
    block automata; each automaton also with 30 seeded random lassos."""
    rng = random.Random(10)
    automata = [(fx.name, fx.automaton, [w for w, _ in fx.sample()]) for fx in zoo.all_fixtures()
                if is_deterministic(fx.automaton)[0]]
    automata += [(f"det({fx.name})", determinize_moore(fx.automaton, fx.resolver),
                  [w for w, _ in fx.sample()]) for fx in (zoo.example23(), zoo.figure1())]
    drained = [parse_lasso(text) for text in ("a;b", "aaa;b", "a;abb")]
    automata += [(f"drain{i}", _drain(epsilon), list(drained))
                 for i, epsilon in enumerate((False, True))]
    seed940 = random.Random(940)
    for i in range(150):
        condition = random_spec(seed940).condition
        if is_deterministic(condition)[0] and all(t.label for t in condition.transitions):
            automata.append((f"spec{i}", condition, []))
    for name, pda, words in automata:
        for _ in range(30):
            u = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(0, 4)))
            v = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(1, 4)))
            words.append(LassoWord(u, v))
        for w in words:
            yield name, pda, w


def test_deterministic_runs_decide_as_membership():
    # The replay of the unique run to a pumping segment shares no code with
    # membership's head pass; both verdicts occur on every kind of automaton.
    verdicts = Counter()
    for name, pda, w in _deterministic_queries():
        expected = det_run_accepts(pda, w)
        assert lasso_membership(pda, w) == expected, (name, str(w))
        verdicts[name.rstrip("0123456789"), expected] += 1
    assert {kind for kind, _ in verdicts} == {
        "parity", "ncw", "allodd", "det(example23)", "det(figure1)", "spec", "drain"}
    # Only allodd accepts nothing and det(figure1) everything.
    assert len(verdicts) == 12, verdicts


def _control_reachable(pda):
    """States reachable from the initial state in the control graph (stacks ignored)."""
    succ = {}
    for t in pda.transitions:
        succ.setdefault(t.source, set()).add(t.target)
    seen = {pda.initial}
    work = [pda.initial]
    while work:
        for q in succ.get(work.pop(), ()):
            if q not in seen:
                seen.add(q)
                work.append(q)
    return seen


def test_reachable_product_membership_matches_full_product():
    # Membership searches forward from the start head on the reachable
    # product; the backward search over every head of the unrestricted
    # product is the reference, and the brute-force oracle where it decides.
    verdicts, decided = set(), 0
    for name, pda, w in _membership_queries():
        full = full_lasso_product(pda, w)
        summary = analysis._Summary(analysis._rules(full.transitions))
        expected = (full.initial, BOTTOM) in summary.accepting_heads()
        assert lasso_membership(pda, w) == expected, (name, str(w))
        verdict = brute_force_lasso_oracle(pda, w, 5, 3_000)
        if verdict != UNKNOWN:
            decided += 1
            assert verdict == expected, (name, str(w))
        verdicts.add(expected)
    assert verdicts == {True, False} and decided >= 1000


def _pass_names(pda, w):
    """Decodes the numbering of membership's pass: the head ``p * g + j`` is
    ``(q@i, X)`` for the product state ``p = k * n + i``, ``q`` the ``k``-th
    state and ``X`` the ``j``-th symbol of ``gamma_bottom``."""
    g, n = len(pda.gamma_bottom), w.positions()

    def head(h):
        p, j = divmod(h, g)
        return f"{pda.states[p // n]}@{p % n}", pda.gamma_bottom[j]
    return head


def _position(name: str) -> int:
    return int(name.rsplit("@", 1)[1])


def test_reachable_product_keeps_only_reachable_states():
    # Membership's pass numbers the product states (q, i) densely and starts
    # at the head (initial@0, _): every state it reaches, at a head or as a
    # pop fact's target (r, _), has one name and is control-reachable from
    # initial@0 in the full product, and on twopump they are fewer than all.
    for name, pda, w in _membership_queries():
        adj, pops, _loop = analysis._lasso_heads(pda, w)
        head = _pass_names(pda, w)
        targets = [head(r) for fs in pops.values() for r, _c, _l in fs]
        assert {x for _q, x in targets} <= {BOTTOM}, (name, str(w))
        names = {head(h)[0] for h in adj} | {q for q, _x in targets}
        full = full_lasso_product(pda, w)
        assert head(next(iter(adj))) == (full.initial, BOTTOM), (name, str(w))
        assert len({head(h) for h in adj}) == len(adj), (name, str(w))
        assert names <= _control_reachable(full), (name, str(w))
    fx = zoo.get("twopump")
    for w, _flag in fx.sample():
        adj, pops, _loop = analysis._lasso_heads(fx.automaton, w)
        head = _pass_names(fx.automaton, w)
        states = {head(h)[0] for h in adj} | {head(r)[0] for fs in pops.values() for r, *_ in fs}
        assert len(states) < len(fx.automaton.states) * w.positions(), str(w)


def test_lss_lassos_match_the_closed_form():
    # A word is in L(lss) iff one component's loop energy is nonnegative,
    # whatever the prefix: an oracle that shares nothing with the summary.
    lss, rng = zoo.lss().automaton, random.Random(64)
    letters = lss.input_alphabet
    verdicts = set()
    for n in (8, 16, 32, 64):
        for _ in range(3):
            w = LassoWord(tuple(rng.choice(letters) for _ in range(n)),
                          tuple(rng.choice(letters) for _ in range(n // 4)))
            expected = max(zoo.loop_energy_deltas(w)) >= 0
            assert lasso_membership(lss, w) == expected, str(w)
            verdicts.add(expected)
    assert verdicts == {True, False}


def _recording_summaries(monkeypatch) -> list:
    """Each ``_Summary`` built from now on, with a copy of its adjacency as built."""
    built = []

    class RecordingSummary(analysis._Summary):
        def __init__(self, rules):
            super().__init__(rules)
            built.append((self, {head: list(moves) for head, moves in self.adj.items()}))

    monkeypatch.setattr(analysis, "_Summary", RecordingSummary)
    return built


def _late_join_automaton(color: int, label) -> OmegaPDA:
    """Its one loop passes both late joins of the membership pass.

    The pass expands ``(s, _)``, which pushes onto ``(a, A)``; ``(a, A)``
    pops, a fact that arrives after that push was registered and gives
    ``(s, _)`` the swap to ``(b, _)``.  ``(b, _)`` pushes onto ``(c, A)``,
    and ``(c, A)`` swaps to ``(a, A)``, a head that already has its pop
    fact: that join gives ``(c, A)`` its fact, which fires the push from
    ``(b, _)`` and closes the loop ``(b, _) -> (b, _)`` through the pop of
    color ``color`` reading ``label``.
    """
    ts = (
        Transition("s", BOTTOM, None, "a", (BOTTOM, "A"), 0),
        Transition("a", "A", label, "b", (), color),
        Transition("b", BOTTOM, None, "c", (BOTTOM, "A"), 1),
        Transition("c", "A", None, "a", ("A",), 0),
    )
    return OmegaPDA(("s", "a", "b", "c"), ("x", "y"), ("A",), "s", ts)


def test_membership_joins_facts_and_moves_in_either_order():
    # A move to a head that already has pop facts joins them, and a pop
    # fact at a head joins the pushes onto it registered before; without
    # either join the accepting loop below is never found.
    verdicts = set()
    for color, label, accepted in [(2, "x", True), (1, "x", False), (2, None, False),
                                   (0, "y", False), (4, "y", True)]:
        pda = _late_join_automaton(color, label)
        for w in map(parse_lasso, (";x", "xx;x", ";y", "y;y", ";xy")):
            expected = accepted and set(w.prefix + w.loop) == {label}
            oracle = brute_force_lasso_oracle(pda, w, 4, 1_000)
            assert oracle == expected, (color, label, str(w))
            assert lasso_membership(pda, w) == expected, (color, label, str(w))
            verdicts.add(expected)
    assert verdicts == {True, False}


def _pass_and_full_summary(pda, w):
    """The membership pass on ``pda`` and ``w``: its moves and facts and its
    loop-position heads, each head named ``(q@i, X)`` and each fact's target
    ``q@i``; then the summary of the unrestricted product and the heads
    reachable from its start head."""
    adj, pops, loop = analysis._lasso_heads(pda, w)
    head = _pass_names(pda, w)
    moves = {head(h): [(head(dst), c, l, parts) for dst, c, l, parts in ms]
             for h, ms in adj.items()}
    facts = {(*head(h), head(r)[0], c, l) for h, fs in pops.items() for r, c, l in fs}
    assert len(facts) == sum(map(len, pops.values()))
    full = analysis._Summary(analysis._rules(full_lasso_product(pda, w).transitions))
    start = (f"{pda.initial}@0", BOTTOM)
    reached, work = {start}, [start]
    while work:
        for dst, _c, _l, _parts in full.adj.get(work.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                work.append(dst)
    return [head(h) for h in loop], moves, facts, full, reached


def test_head_moves_are_computed_once_per_summary(monkeypatch):
    # One head adjacency per summary, built with it: one direct move per
    # push rule, and one move per pop fact of the top a rule pushes over.
    # The head search, the backward search and every even color read it
    # and leave it as built.  Membership builds no summary: its pass has
    # the summary's moves, without parts, at the heads reachable from the start.
    built = _recording_summaries(monkeypatch)

    def moved(names=None):
        """The transitions of the direct moves, states renamed by ``names``."""
        (summary, adj), = built
        built.clear()
        assert summary.adj == adj
        out = []
        for (p, x), moves in adj.items():
            for (q, y), c, l, parts in moves:
                t = parts[0]
                if len(parts) == 2:
                    key = parts[1]
                    assert key in summary.defs and key[1] == t.push[1]
                    assert (q, y) == (key[2], t.push[0]) and c == max(t.color, key[3])
                    continue
                assert (x, y, l, c) == (t.top, t.push[-1], t.label is not None, t.color)
                if names is not None:
                    p, q = names[p], names[q]
                out.append(str(Transition(p, x, t.label, q, t.push, c)))
        facts = Counter(key[:2] for key in summary.defs)
        pops = sum(facts[rule[3], rule[4][1]] for rule in summary.rules if len(rule[4]) == 2)
        assert sum(map(len, adj.values())) == len(out) + pops
        return sorted(out)

    six = zoo.parity_language(6).automaton
    assert sorted({t.color for t in six.transitions if t.color % 2 == 0}) == [2, 4, 6]
    passes = []
    heads = analysis._lasso_heads
    monkeypatch.setattr(analysis, "_lasso_heads", lambda *a: passes.append(a) or heads(*a))
    fx = zoo.example23()
    lassos = [(six, w) for w in (LassoWord(("1",), ("5", "6")), LassoWord((), ("1",)),
                                 LassoWord(("2", "3"), ("6",)))]
    lassos += [(fx.automaton, w) for w, _flag in fx.sample(seed=5, count=6)]
    for pda, w in lassos:
        lasso_membership(pda, w)
        assert not built and len(passes) == 1, str(w)
        _loop, moves, _facts, full, reached = _pass_and_full_summary(pda, w)
        built.clear()
        passes.clear()
        assert set(moves) == reached, str(w)
        for head, ms in moves.items():
            assert all(parts is None for _dst, _c, _l, parts in ms), (str(w), head)
            expected = Counter(move[:3] for move in full.adj.get(head, ()))
            assert Counter(move[:3] for move in ms) == expected, (str(w), head)
    det = determinize_moore(fx.automaton, fx.resolver)
    for pda in (six, det):
        parity_nonempty(pda)
        assert moved() == sorted(str(t) for t in pda.transitions if t.push)
    for letter in det.input_alphabet:
        accepts_tail_of(det, letter)
        kept = [t for t in det.transitions if t.label in (None, letter) and t.push]
        assert moved() == sorted(map(str, kept)), letter


def test_membership_search_visits_only_heads_reachable_from_the_start(monkeypatch):
    # Membership's pass reaches exactly the heads reachable from (initial@0, _)
    # in the summary of the whole product, with that summary's pop facts at
    # them, and runs Tarjan on exactly the reached heads at loop positions
    # (i >= |u|), in the order reached; the whole product's saturation has
    # facts at heads that the pass never reaches, and some reached heads are
    # at prefix positions, which no search visits.
    visited = []
    tarjan = analysis._tarjan_sccs

    def counting_tarjan(nodes, adj, d):
        scc_of = tarjan(nodes, adj, d)
        visited.append(set(scc_of))
        return scc_of

    monkeypatch.setattr(analysis, "_tarjan_sccs", counting_tarjan)
    runs = pass_facts = full_facts = searched = prefix_heads = 0
    for name, pda, w in _membership_queries():
        visited.clear()
        lasso_membership(pda, w)
        loop, moves, facts, full, reached = _pass_and_full_summary(pda, w)
        assert set(moves) == reached, (name, str(w))
        assert facts == {key for key in full.defs if key[:2] in reached}, (name, str(w))
        at_loop = {h for h in reached if _position(h[0]) >= len(w.prefix)}
        assert loop == [h for h in moves if h in at_loop], (name, str(w))
        head = _pass_names(pda, w)
        for seen in visited:
            assert {head(h) for h in seen} == at_loop, (name, str(w))
        runs += len(visited)
        if visited:
            searched += len(at_loop)
            prefix_heads += len(reached - at_loop)
        pass_facts += len(facts)
        full_facts += len(full.defs)
    assert runs > 0 and pass_facts < full_facts and searched > 0 and prefix_heads > 0


def _bottom_push_automaton() -> OmegaPDA:
    """``x^omega`` is accepted only through two pushes onto the bottom.

    ``(s, _)`` pushes ``_ A`` to ``(a, A)``, which pops to ``b``: the push
    over ``BOTTOM`` (stack id 0) gives the move ``(s, _) -> (b, _)`` when
    the fact arrives.  ``(b, _)`` reads ``x`` and pushes ``_ A`` again onto
    ``(a, A)``, which has that fact already: the join gives the loop
    ``(b, _) -> (b, _)`` of color 2.  Read as "no symbol below", id 0 turns
    both moves into pop facts of a bottom and leaves ``(b, _)`` with no loop.
    """
    ts = (
        Transition("s", BOTTOM, None, "a", (BOTTOM, "A"), 0),
        Transition("a", "A", None, "b", (), 0),
        Transition("b", BOTTOM, "x", "a", (BOTTOM, "A"), 2),
    )
    return OmegaPDA(("s", "a", "b"), ("x", "y"), ("A",), "s", ts)


def _prefix_loop_automaton() -> OmegaPDA:
    """An even epsilon loop at every ``x`` position, and the only letter
    loop, of color 2, on ``y`` from ``t``, which ``y`` enters from ``s``.
    The initial state ``s`` is not the first state: state ``u``, first,
    reads ``y`` forever in color 1."""
    ts = (
        Transition("s", BOTTOM, None, "s", (BOTTOM,), 0),
        Transition("s", BOTTOM, "x", "s", (BOTTOM,), 1),
        Transition("s", BOTTOM, "y", "t", (BOTTOM,), 1),
        Transition("t", BOTTOM, "y", "t", (BOTTOM,), 2),
        Transition("u", BOTTOM, "y", "u", (BOTTOM,), 1),
    )
    return OmegaPDA(("u", "s", "t"), ("x", "y"), (), "s", ts)


def test_membership_numbering_keeps_pushes_onto_the_bottom_and_the_loop_entry():
    # The pass numbers stack symbols with BOTTOM as id 0, which is a symbol
    # below a push, not "none", and starts at the initial state's head,
    # wherever that state is declared.  Its search starts at position |u|: a
    # prefix head lies on no cycle that reads a letter, but a head at |u|
    # may, and with |v| = 1 it is the only loop position.
    cases = [(_bottom_push_automaton(), text, text.endswith(";x") and "y" not in text)
             for text in (";x", "x;x", "xx;x", ";y", "x;y", ";xy", "y;x")]
    cases += [(_prefix_loop_automaton(), text, want) for text, want in
               [("xxy;y", True), ("y;y", True), ("xy;y", True), (";y", True),
                ("x;x", False), ("xx;x", False), ("xxy;x", False), (";x", False),
                ("x;xy", False), ("y;yx", False)]]
    for pda, text, want in cases:
        w = parse_lasso(text)
        assert game_membership(pda, w) == want, text
        assert brute_force_lasso_oracle(pda, w, 4, 1_000) == want, text
        assert lasso_membership(pda, w) == want, text
    # (s, _) has its even epsilon loop at both prefix positions; the search
    # starts at position 2 = |u|, where y enters t and stays.
    pda, w = _prefix_loop_automaton(), parse_lasso("xx;y")
    adj, _pops, loop = analysis._lasso_heads(pda, w)
    head = _pass_names(pda, w)
    assert [head(h) for h in adj] == [("s@0", BOTTOM), ("s@1", BOTTOM), ("s@2", BOTTOM),
                                      ("t@2", BOTTOM)]
    assert [head(h) for h in loop] == [("s@2", BOTTOM), ("t@2", BOTTOM)]
    assert all((h, 0, 0, None) in adj[h] for h in adj if head(h)[0].startswith("s"))


# -- color normalization -------------------------------------------------------


def test_normalize_colors_shape():
    pda = zoo.palindrome().automaton
    out = normalize_colors(pda)
    for t in out.transitions:
        if t.label is None:
            assert t.color == 0
        else:
            assert t.color > 0


def test_normalize_colors_accumulates_epsilon_max():
    from gfgpda.core import OmegaPDA, Transition

    pda = OmegaPDA(
        ("u", "v", "w"), ("a",), (), "u",
        (
            Transition("u", BOTTOM, None, "v", (BOTTOM,), 3),
            Transition("v", BOTTOM, "a", "w", (BOTTOM,), 1),
            Transition("w", BOTTOM, "a", "w", (BOTTOM,), 2),
        ),
    )
    out = normalize_colors(pda)
    first = next(t for t in out.transitions if t.label == "a" and t.source.startswith("v"))
    assert first.color == 3 + 2

    chain = OmegaPDA(
        ("u", "v", "w", "x"), ("a",), (), "u",
        (
            Transition("u", BOTTOM, None, "v", (BOTTOM,), 2),
            Transition("v", BOTTOM, None, "w", (BOTTOM,), 1),
            Transition("w", BOTTOM, "a", "x", (BOTTOM,), 1),
            Transition("x", BOTTOM, "a", "x", (BOTTOM,), 2),
        ),
    )
    out = normalize_colors(chain)
    first = next(t for t in out.transitions if t.label == "a" and t.source.startswith("w"))
    assert first.color == 2 + 2


def test_normalize_colors_preserves_membership():
    for fx in zoo.all_fixtures():
        norm = normalize_colors(fx.automaton)
        for w, _flag in fx.sample(seed=11, count=10):
            assert lasso_membership(norm, w) == lasso_membership(fx.automaton, w), fx.name


def test_normalize_already_normalized_is_identity_like(fig2):
    out = normalize_colors(fig2)
    assert len(out.states) == len(fig2.states)
    assert len(out.transitions) == len(fig2.transitions)
