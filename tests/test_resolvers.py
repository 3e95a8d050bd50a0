import collections
import random
import tracemalloc

import pytest

from gfgpda import analysis, closure, resolvers, zoo
from gfgpda.core import (
    BOTTOM, Configuration, FormatError, GuardExceeded, LassoWord, OmegaPDA, RunPrefix,
    Transition, is_deterministic, parse_lasso, replay, step, validate,
)
from gfgpda.resolvers import (
    DetPushdown,
    EpsilonDivergence,
    MooreResolver,
    Resolver,
    ResolverStuck,
    ResolverUndefined,
    TransducerStuck,
    determinize_moore,
    ext,
    format_moore,
    moore_as_pdt,
    moore_lasso_acceptance,
    parse_moore,
    periodic_split,
    resolver_query,
    run_on_prefix,
    verify_resolver,
)

from helpers import epsilon_recursion


@pytest.fixture(scope="module")
def ex23():
    return zoo.example23()


@pytest.fixture(scope="module")
def lss_fx():
    return zoo.lss()


# -- ext / run_on_prefix -------------------------------------------------------


def test_ext_first_letter_pushes_a(ex23):
    g = ext(ex23.automaton, ex23.resolver, run_on_prefix(ex23.automaton, ex23.resolver, ()), "a")
    assert len(g.run) == 1
    t = g.run.transitions[0]
    assert (t.source, t.label, t.target, t.push) == ("q0", "a", "q1", (BOTTOM, "A"))


def test_ext_lss_first_plus_tracks_component_one(lss_fx):
    pda, r, letter = lss_fx.automaton, lss_fx.resolver, "(+,0)"
    g = ext(pda, r, run_on_prefix(pda, r, ()), letter)
    t = g.run.transitions[0]
    assert t.source == "1" and t.target == "1" and t.push == (BOTTOM, "N")


def test_ext_consumes_one_letter_one_nonepsilon(ex23):
    pda, r = zoo.palindrome().automaton, None

    class GuessLate(Resolver):
        """push phase forever on 0/1, jump to matching on demand: not correct,
        but enough to exercise epsilon stepping."""

        def start(self):
            return None

        def feed(self, state, t):
            return None

        def pick(self, state, config, letter):
            for t in pda.by_source_top.get((config.state, config.top), ()):
                if t.label == letter:
                    return t
            for t in pda.by_source_top.get((config.state, config.top), ()):
                if t.label is None:
                    return t
            raise ResolverUndefined("no move")

    g = run_on_prefix(pda, GuessLate(), ())
    for i, letter in enumerate("01#"):
        g = ext(pda, GuessLate(), g, letter)
        assert g.letters_consumed == i + 1
        assert sum(1 for t in g.run.transitions if t.label is not None) == i + 1


def test_ext_resolver_stuck(ex23):
    pda = ex23.automaton

    class Stubborn(Resolver):
        def start(self):
            return None

        def feed(self, state, t):
            return None

        def pick(self, state, config, letter):
            return pda.transitions[5]  # d-transition needing top N

    with pytest.raises(ResolverStuck):
        ext(pda, Stubborn(), run_on_prefix(pda, Stubborn(), ()), "a")


def test_ext_resolver_picks_a_disabled_transition(ex23):
    pda = ex23.automaton

    class Early(Resolver):
        def start(self):
            return None

        def feed(self, state, t):
            return None

        def pick(self, state, config, letter):
            return pda.transitions[2]  # a c-transition needing top A

    with pytest.raises(ResolverStuck, match="resolver returned disabled"):
        ext(pda, Early(), run_on_prefix(pda, Early(), ()), "c")


def test_moore_resolver_without_a_delta_entry_is_stuck(ex23):
    pda = ex23.automaton
    t = pda.transitions[0]
    r = MooreResolver(("m",), "m", {}, {("m", "a", BOTTOM): t})
    with pytest.raises(ResolverStuck, match="Moore delta undefined"):
        r.feed("m", t)
    assert periodic_split(pda, r, parse_lasso("a;#")).verdict == "stuck"


def test_ext_epsilon_divergence():
    from gfgpda.core import OmegaPDA, Transition

    pda = OmegaPDA(
        ("u",), ("a",), (), "u",
        (Transition("u", BOTTOM, None, "u", (BOTTOM,), 0),
         Transition("u", BOTTOM, "a", "u", (BOTTOM,), 2)),
    )

    class Spinner(Resolver):
        def start(self):
            return None

        def feed(self, state, t):
            return None

        def pick(self, state, config, letter):
            return pda.transitions[0]

        def key(self, state, w):
            return 0

    with pytest.raises(EpsilonDivergence, match="^epsilon loop"):
        ext(pda, Spinner(), run_on_prefix(pda, Spinner(), ()), "a")


@pytest.mark.parametrize("height", [0, 3])
def test_epsilon_cap_reads_the_entry_height(height):
    # The cap of an infix is |Q|*(h+2)*(|Gamma|+1)+1 epsilon steps, where h
    # is the height the infix was entered at; one more step raises.  The
    # epsilon steps pop down to the bottom first, so the height changes.
    # Here |Q| = 2 and |Gamma| = 2.
    pda = OmegaPDA(
        ("u", "v"), ("a", "b"), ("M", "N"), "u",
        (Transition("u", BOTTOM, "b", "u", (BOTTOM, "N"), 0),
         Transition("u", "N", "b", "u", ("N", "N"), 0),
         Transition("u", BOTTOM, None, "u", (BOTTOM,), 0),
         Transition("u", "N", None, "u", (), 0)),
    )
    spins = []

    class Spinner(Resolver):
        """Reads each b, spins on epsilon before an a."""

        def start(self):
            return None

        def feed(self, state, t):
            spins.append(t.label is None)
            return None

        def pick(self, state, config, letter):
            label = None if letter == "a" else letter
            return next(t for t in pda.by_source_top[(config.state, config.top)]
                        if t.label == label)

    g = run_on_prefix(pda, Spinner(), "b" * height)
    assert g.run.last.height == height
    cap = 2 * (height + 2) * 3 + 1
    spins.clear()
    with pytest.raises(GuardExceeded, match=f"^more than {cap} epsilon steps before 'a'$"):
        ext(pda, Spinner(), g, "a")
    assert spins == [True] * (cap + 1)


class Unsummarized(Resolver):
    """A resolver with its key hidden: verification runs to the guard, and a
    guided epsilon chain to the cap."""

    def __init__(self, base):
        self.start, self.feed, self.pick = base.start, base.feed, base.pick


def _state_following(pda):
    """The Moore resolver of a deterministic automaton that follows its state:
    the output is the transition enabled at (state, letter, top), and delta
    moves to that transition's target."""
    delta = {(q, t): t.target for q in pda.states for t in pda.transitions}
    output = {(t.source, a, t.top): t for t in pda.transitions
              for a in (pda.input_alphabet if t.label is None else (t.label,))}
    return MooreResolver(pda.states, pda.initial, delta, output)


@pytest.mark.parametrize("depth", [8, 9, 10, 11])
def test_summarized_resolver_runs_a_long_terminating_epsilon_chain(depth):
    # The chain of 5 * 2**depth - 3 epsilon steps outruns the cap
    # |Q|*(h+2)*(|Gamma|+1)+1, but no head (state, key, top) repeats at
    # two steps, so the guided run reaches its first a.
    pda = epsilon_recursion(depth)
    r = _state_following(pda)
    cap = len(pda.states) * 2 * (len(pda.stack_alphabet) + 1) + 1
    g = run_on_prefix(pda, r, "a")
    assert len(g.run) == 5 * 2**depth - 2 > cap
    assert g.run.last == Configuration("ret", (BOTTOM,))
    # The guard counts the chain's transitions too.
    report = verify_resolver(pda, r, [(parse_lasso(";a"), True)], guard=len(g.run) + 10)
    assert [e[2] for e in report.entries] == ["pass"]
    assert analysis.lasso_membership(pda, parse_lasso(";a"))


def test_summary_less_resolver_past_the_cap_is_inconclusive():
    # Past the cap a resolver without a key may still be on a terminating
    # chain, so the cap is a bound, and verification cannot fail it.
    pda = epsilon_recursion(8)
    r = Unsummarized(_state_following(pda))
    with pytest.raises(GuardExceeded, match="^more than 375 epsilon steps before 'a'$"):
        run_on_prefix(pda, r, "a")
    report = verify_resolver(pda, r, [(parse_lasso(";a"), True)])
    assert [e[2] for e in report.entries] == ["inconclusive"]


class KeyOnly(Unsummarized):
    """A Moore resolver that defines no hook but ``key``, the Moore state."""

    def key(self, state, w):
        return state


@pytest.mark.parametrize("depth", [8, 9, 10, 11])
def test_a_key_alone_runs_a_long_terminating_epsilon_chain(depth):
    # The key is the one fingerprint of epsilon chains: with it the guided
    # run goes past the cap, through the whole chain, to its first a.
    pda = epsilon_recursion(depth)
    r = KeyOnly(_state_following(pda))
    cap = len(pda.states) * 2 * (len(pda.stack_alphabet) + 1) + 1
    g = run_on_prefix(pda, r, "a")
    assert len(g.run) == 5 * 2**depth - 2 > cap
    assert g.run.last == Configuration("ret", (BOTTOM,))
    report = verify_resolver(pda, r, [(parse_lasso(";a"), True)], guard=len(g.run) + 10)
    assert [e[2] for e in report.entries] == ["pass"]


def test_undeclared_letter_is_checked_when_reached(ex23):
    pda, r = ex23.automaton, ex23.resolver
    with pytest.raises(ValueError, match="not in the input alphabet"):
        run_on_prefix(pda, r, "acz")
    # The run is stuck at the second d, before it reaches z.
    assert periodic_split(pda, r, parse_lasso("acddz;#")).verdict == "stuck"
    report = verify_resolver(pda, Unsummarized(r), [(parse_lasso("acddz;#"), True)])
    assert report.entries[0][2] == "fail"
    with pytest.raises(ValueError, match="not in the input alphabet"):
        periodic_split(pda, r, parse_lasso("acz;#"))
    with pytest.raises(ValueError, match="not in the input alphabet"):
        verify_resolver(pda, Unsummarized(r), [(parse_lasso("acz;#"), True)])


def test_run_on_prefix_acd_bcd(ex23):
    pda, r = ex23.automaton, ex23.resolver
    g = run_on_prefix(pda, r, "acd")
    assert g.run.last == Configuration("q2", (BOTTOM, "A"))
    g = run_on_prefix(pda, r, "bcd")
    assert g.run.last == Configuration("q3", (BOTTOM, "B", "N"))
    assert g.run.last.state == "q3" and g.run.last.stack.count("N") == 1
    g = run_on_prefix(pda, r, "")
    assert len(g.run) == 0


def test_resolver_query_one_shot(ex23):
    pda, r = ex23.automaton, ex23.resolver
    run = run_on_prefix(pda, r, "ac").run
    t = resolver_query(r, run, "d")
    assert t == pda.transitions[5]


# -- Moore lasso acceptance -----------------------------------------------------


def test_moore_lasso_acceptance_cases(ex23):
    pda, r = ex23.automaton, ex23.resolver
    assert moore_lasso_acceptance(pda, r, parse_lasso("acd;#")) == "accepted"
    assert moore_lasso_acceptance(pda, r, parse_lasso("acdd;#")) == "stuck"
    assert moore_lasso_acceptance(pda, r, parse_lasso("bccdddd;#")) == "accepted"


def test_moore_lasso_acceptance_always_q1_rejects_infinite_a():
    fx = zoo.figure1()
    bad = zoo.figure1_always_q1_resolver(fx.automaton)
    assert moore_lasso_acceptance(fx.automaton, bad, parse_lasso("b;a")) == "rejected"
    assert moore_lasso_acceptance(fx.automaton, bad, parse_lasso(";b")) == "accepted"


def test_moore_lasso_guard():
    fx = zoo.example23()
    with pytest.raises(GuardExceeded):
        moore_lasso_acceptance(fx.automaton, fx.resolver, parse_lasso("acd;#"), guard=2)
    # growing stacks are fine: every position is a step, the key repeats
    assert moore_lasso_acceptance(fx.automaton, fx.resolver, parse_lasso("ac;c")) == "rejected"


def test_periodic_split_structure(ex23):
    pda, r = ex23.automaton, ex23.resolver
    split = periodic_split(pda, r, parse_lasso("acd;#"))
    assert split.verdict == "accepted"
    assert split.loop_letters >= 1
    run = replay(pda, split.stem_transitions + split.loop_transitions)
    assert run.transitions == split.run.transitions


def test_periodic_split_stuck_keeps_processed_letters(ex23):
    pda, r = ex23.automaton, ex23.resolver
    split = periodic_split(pda, r, parse_lasso("acdd;#"))
    assert split.verdict == "stuck"
    assert split.run == run_on_prefix(pda, r, "acd").run


def test_periodic_split_stuck_drops_partial_infix():
    from gfgpda.core import OmegaPDA, Transition

    pda = OmegaPDA(
        ("u", "v"), ("a",), (), "u",
        (Transition("u", BOTTOM, "a", "u", (BOTTOM,), 2),
         Transition("u", BOTTOM, None, "v", (BOTTOM,), 0)),
    )

    class SecondLetterStuck(Resolver):
        """Reads one letter, then takes an epsilon step into a dead end."""

        def start(self):
            return 0

        def feed(self, state, t):
            return state + (t.label is not None)

        def pick(self, state, config, letter):
            if config.state == "v":
                raise ResolverUndefined("dead end")
            return pda.transitions[min(state, 1)]

        def key(self, state, w):
            return state

    r = SecondLetterStuck()
    split = periodic_split(pda, r, parse_lasso(";a"))
    assert split.verdict == "stuck"
    assert split.run == run_on_prefix(pda, r, "a").run


def _dip_in_an_infix() -> OmegaPDA:
    # s pushes A by epsilon; s2 reads a on A and pushes X, to q; q pops X by
    # epsilon, to r; r reads a on A and rewrites it as B X, back to q; r on B
    # pops by epsilon to a sink, which loops on a with color 1.
    ts = (
        Transition("s", BOTTOM, None, "s2", (BOTTOM, "A"), 2),
        Transition("s2", "A", "a", "q", ("A", "X"), 2),
        Transition("q", "X", None, "r", (), 2),
        Transition("r", "A", "a", "q", ("B", "X"), 2),
        Transition("r", "B", None, "sink", (), 2),
        Transition("sink", BOTTOM, "a", "sink", (BOTTOM,), 1),
    )
    return OmegaPDA(("s", "s2", "q", "r", "sink"), ("a",), ("A", "B", "X"), "s", ts)


def test_a_dip_inside_an_infix_drops_the_candidates_above_it():
    # After one and after two letters the run is at (q, X), height 2.  In
    # between, the second infix dips to height 1 at its first configuration,
    # (r, _A), so the two are no period; cutting there would read 'accepted'.
    # The run goes on to the sink's color-1 loop.
    pda = _dip_in_an_infix()
    r = _state_following(pda)
    w = parse_lasso(";a")
    split = periodic_split(pda, r, w)
    assert split.verdict == "rejected" and not analysis.lasso_membership(pda, w)
    assert [t.target for t in split.loop_transitions] == ["sink"]
    assert [(c.state, c.height) for c in split.run.configurations] == [
        ("s", 0), ("s2", 1), ("q", 2), ("r", 1), ("q", 2), ("r", 1), ("sink", 0), ("sink", 0),
        ("sink", 0)]


def test_the_guard_is_checked_between_letters_and_is_inclusive():
    # The same run has 8 transitions; its period is found after the last.
    # The guard is checked at the steps before, after 0, 2, 4 and 7
    # transitions, so guard 7 is the least that lets it through.
    pda, w = _dip_in_an_infix(), parse_lasso(";a")
    r = _state_following(pda)
    assert len(periodic_split(pda, r, w, guard=7).run.transitions) == 8
    with pytest.raises(GuardExceeded, match="^no period within 6 transitions$"):
        periodic_split(pda, r, w, guard=6)


# -- determinization -------------------------------------------------------------


def test_determinize_moore_state_count(ex23):
    # Of the 6 * 8 * (1 + 5) = 288 states (q, m) and (q, m, a), 42 are
    # reachable from the initial one, with 154 of the 974 transitions.
    d = determinize_moore(ex23.automaton, ex23.resolver)
    assert (len(d.states), len(d.transitions)) == (42, 154)


def test_determinize_moore_is_deterministic(ex23):
    d = determinize_moore(ex23.automaton, ex23.resolver)
    ok, pairs = is_deterministic(d)
    assert ok, pairs


def test_determinize_moore_language(ex23):
    d = determinize_moore(ex23.automaton, ex23.resolver)
    for text, expected in [
        ("acd;#", True), ("bcdd;#", True), ("acdd;#", False),
        ("bccdddd;#", True), ("ac;#", False), (";#", False),
    ]:
        assert analysis.lasso_membership(d, parse_lasso(text)) == expected, text


@pytest.mark.parametrize("name", ["example23", "figure1"])
def test_determinize_moore_random_lassos_agree(name):
    # The reachable part keeps the language: on the fixture's sample (both
    # verdicts for example23) and on random lassos, membership in it agrees
    # with the source and with the bounded brute-force oracle run on it.
    fx = zoo.get(name)
    rng = random.Random(42)
    d = determinize_moore(fx.automaton, fx.resolver)
    letters = fx.automaton.input_alphabet
    words = [w for w, _ in fx.sample(seed=42, count=20)]
    for _ in range(25):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        words.append(LassoWord(u, v))
    decided = 0
    for w in words:
        verdict = analysis.lasso_membership(d, w)
        assert verdict == analysis.lasso_membership(fx.automaton, w), w
        oracle = analysis.brute_force_lasso_oracle(d, w, 8, 30_000)
        assert oracle in (verdict, analysis.UNKNOWN), w
        decided += oracle != analysis.UNKNOWN
    assert decided >= 40


def test_determinize_moore_follows_an_epsilon_output():
    # Infinitely many a: the resolver reads each a as an epsilon push into r
    # and an a-pop back to p (color 2), never as the color-1 loop on p.  The
    # stored letter stays pending while the epsilon transition fires.
    ts = (
        Transition("p", BOTTOM, "a", "p", (BOTTOM,), 1),
        Transition("p", BOTTOM, None, "r", (BOTTOM, "A"), 1),
        Transition("r", "A", "a", "p", (), 2),
        Transition("p", BOTTOM, "b", "p", (BOTTOM,), 1),
    )
    pda = OmegaPDA(("p", "r"), ("a", "b"), ("A",), "p", ts)
    moore_of = {"p": "P", "r": "R"}
    delta = {(mm, t): moore_of[t.target] for mm in ("P", "R") for t in ts}
    output = {("P", "a", BOTTOM): ts[1], ("R", "a", "A"): ts[2], ("P", "b", BOTTOM): ts[3]}
    m = MooreResolver(("P", "R"), "P", delta, output)
    d = determinize_moore(pda, m)
    ok, pairs = is_deterministic(d)
    assert ok, pairs
    # (p, P), its two letter-holding states, and (r, R, a), which only the
    # epsilon output reaches.
    assert len(d.states) == 4 and sum(name.startswith("r|") for name in d.states) == 1
    rng = random.Random(7)
    verdicts = []
    for _ in range(40):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        w = LassoWord(u, v)
        expected = moore_lasso_acceptance(pda, m, w) == "accepted"
        assert analysis.lasso_membership(d, w) == expected, w
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


def test_determinize_moore_leaves_out_a_missing_delta_entry(ex23):
    # example23's resolver without its (ad, t8) hop and its sink entries:
    # where delta has no entry the guided run is stuck, and the determinized
    # automaton has no edge, so it accepts exactly the accepted words.
    pda, r = ex23.automaton, ex23.resolver
    delta = {k: m2 for k, m2 in r.delta.items() if m2 != "sink"}
    del delta[("ad", pda.transitions[8])]
    partial = MooreResolver(r.states, r.initial, delta, r.output)
    d = determinize_moore(pda, partial)
    verdicts = collections.Counter()
    for seed in range(6):
        for w, _ in ex23.sample(seed, 40):
            verdict = moore_lasso_acceptance(pda, partial, w)
            assert analysis.lasso_membership(d, w) == (verdict == "accepted"), w
            verdicts[verdict] += 1
    assert verdicts == {"stuck": 210, "accepted": 30}


def test_determinize_moore_state_names_are_injective():
    # Joining component names with "|" would name the read state of
    # ("a|b", "c") and the hold state of ("a", "b", letter "c") both "(a|b|c)".
    ts = (
        Transition("a|b", BOTTOM, "c", "a", (BOTTOM,), 0),
        Transition("a|b", BOTTOM, "d", "a|b", (BOTTOM,), 1),
        Transition("a", BOTTOM, "c", "a|b", (BOTTOM,), 0),
        Transition("a", BOTTOM, "d", "a", (BOTTOM,), 1),
    )
    pda = OmegaPDA(("a|b", "a"), ("c", "d"), (), "a|b", ts)
    moore_of = {"a|b": "c", "a": "b"}
    delta = {(mm, t): moore_of[t.target] for mm in ("c", "b") for t in ts}
    output = {(moore_of[t.source], t.label, BOTTOM): t for t in ts}
    d = determinize_moore(pda, MooreResolver(("c", "b"), "c", delta, output))
    # Reachable: each state with its own Moore state, both sides of the collision.
    assert len(d.states) == 6
    assert len(set(d.states)) == len(d.states)
    assert validate(d) == []
    for text in (";c", ";d", "d;cd", "cd;c", "dd;cc"):
        w = parse_lasso(text)
        assert analysis.lasso_membership(d, w) == analysis.lasso_membership(pda, w), text


# -- PDT resolvers -----------------------------------------------------------------


def test_pdt_wrapping_moore_behaves_identically(ex23):
    pda, r = ex23.automaton, ex23.resolver
    pdt = moore_as_pdt(pda, r)
    for word in ("acd", "bccdd", "a"):
        assert run_on_prefix(pda, pdt, word).run == run_on_prefix(pda, r, word).run


def test_pdt_resolver_step_base_case(ex23):
    pda, r = ex23.automaton, ex23.resolver
    pdt = moore_as_pdt(pda, r)
    t = resolver_query(pdt, replay(pda, ()), "a")
    assert t == pda.transitions[0]


def test_pdt_resolver_undefined(ex23):
    pda, r = ex23.automaton, ex23.resolver
    pdt = moore_as_pdt(pda, r)
    run = run_on_prefix(pda, pdt, "acd").run
    with pytest.raises(ResolverUndefined):
        resolver_query(pdt, run, "c")  # no output at (ad, c, A)


def test_det_pushdown_rejects_nondeterminism():
    # Both rules of core.is_deterministic, checked when the machine is built:
    # two rules at one head and symbol, and an epsilon rule beside a symbol rule.
    first = Transition("u", BOTTOM, "a", "u", (BOTTOM,), 0)
    for second in (Transition("u", BOTTOM, "a", "v", (BOTTOM,), 0),
                   Transition("u", BOTTOM, None, "v", (BOTTOM,), 0)):
        with pytest.raises(ValueError, match="nondeterministic"):
            DetPushdown(("u", "v"), "u", (), (first, second))


def _machine(pda):
    return DetPushdown(pda.states, pda.initial, pda.stack_alphabet, pda.transitions)


def test_det_pushdown_closes_a_long_terminating_recursion():
    # 10,237 epsilon steps that return to the bottom: no head repeats at two
    # steps, so the closure ends however long it is.
    machine = _machine(epsilon_recursion(11))
    start = Configuration(machine.initial, (BOTTOM,))
    assert sum(1 for _ in machine._epsilon_steps(start)) == 10_237
    assert machine.start() == Configuration("ret", (BOTTOM,))


EPSILON_LOOPS = {
    "swap": (Transition("s", BOTTOM, None, "t", (BOTTOM,), 0),
             Transition("t", BOTTOM, None, "s", (BOTTOM,), 0)),
    "push": (Transition("s", BOTTOM, None, "s", (BOTTOM, "X"), 0),
             Transition("s", "X", None, "s", ("X", "X"), 0)),
}


@pytest.mark.parametrize("rules", EPSILON_LOOPS.values(), ids=EPSILON_LOOPS.keys())
def test_det_pushdown_reports_an_epsilon_loop_within_a_few_steps(rules):
    machine = DetPushdown(("s", "t"), "s", ("X",), rules)
    start, steps = Configuration(machine.initial, (BOTTOM,)), []
    with pytest.raises(TransducerStuck, match="epsilon divergence"):
        steps.extend(machine._epsilon_steps(start))
    assert len(steps) == 2
    with pytest.raises(TransducerStuck, match="epsilon divergence"):
        machine.start()


@pytest.mark.parametrize("rules", EPSILON_LOOPS.values(), ids=EPSILON_LOOPS.keys())
def test_summarized_resolver_reports_an_epsilon_loop_within_a_few_steps(rules):
    pda = OmegaPDA(("s", "t"), ("a",), ("X",), "s", rules)
    r = _state_following(pda)
    transitions = []
    with pytest.raises(EpsilonDivergence, match="^epsilon loop at "):
        resolvers._infix(pda, r, r.start(), pda.initial_configuration(), "a", transitions, [])
    assert len(transitions) == 2
    assert periodic_split(pda, r, parse_lasso(";a")).verdict == "stuck"


# -- verify_resolver ------------------------------------------------------------------


def test_verify_resolver_fig6(ex23):
    suite = ex23.sample(seed=2, count=20)
    report = verify_resolver(ex23.automaton, ex23.resolver, suite)
    assert report.all_passed()
    assert not report.failures()


def test_verify_resolver_lss(lss_fx):
    suite = lss_fx.sample(seed=2, count=20)
    report = verify_resolver(lss_fx.automaton, lss_fx.resolver, suite, guard=800)
    assert report.all_passed()


def test_verify_resolver_flags_bad_resolver():
    fx = zoo.figure1()
    bad = zoo.figure1_always_q1_resolver(fx.automaton)
    report = verify_resolver(fx.automaton, bad, [(LassoWord((), ("a",)), True)])
    assert [e[2] for e in report.entries] == ["fail"]


def test_verify_resolver_exact_path_reports_an_exceeded_guard_as_inconclusive(ex23):
    # A resolver with a key; a guard too small for the period is no evidence
    # against it.
    suite = [(parse_lasso("b c c d d d d #;#"), True)]
    assert ex23.resolver.key(ex23.resolver.start(), suite[0][0]) is not None
    small = verify_resolver(ex23.automaton, ex23.resolver, suite, guard=2)
    assert [e[2] for e in small.entries] == ["inconclusive"]
    assert small.failures() == [] and not small.all_passed()
    large = verify_resolver(ex23.automaton, ex23.resolver, suite, guard=5000)
    assert [e[2] for e in large.entries] == ["pass"]


def test_verify_resolver_empty_suite(ex23):
    assert verify_resolver(ex23.automaton, ex23.resolver, []).entries == ()


def test_bounded_verification_memory_is_linear_in_the_guard(lss_fx):
    # On (+,0)^omega the stack grows every step: keeping each configuration
    # unshared would make the peak quadratic in the guard (about 4x per
    # doubling).  Without its key the resolver runs to the guard.
    w = parse_lasso(";(+,0)")

    def peak(guard):
        tracemalloc.start()
        try:
            report = verify_resolver(
                lss_fx.automaton, Unsummarized(zoo.LssResolver(lss_fx.automaton)), [(w, True)],
                guard)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.entries[0][2] == "inconclusive"
        return peak

    # The least of three runs: an unrelated allocation can raise one peak.
    assert min(peak(2000) for _ in range(3)) <= 2.5 * min(peak(1000) for _ in range(3))


def test_verify_resolver_lss_verdicts_are_membership():
    # With its key the lss resolver is decided on every sampled word at
    # guard 1,000, in-language or not: the guided run accepts iff the word
    # is in the language, as the resolver resolves the nondeterminism.
    fx = zoo.lss()
    pda, r = fx.automaton, zoo.LssResolver(fx.automaton)
    verdicts = collections.Counter()
    for seed in range(40):
        for w, member in fx.sample(seed=seed, count=20):
            verdict = verify_resolver(pda, r, [(w, True)], 1000).entries[0][2]
            assert verdict == ("pass" if member else "fail"), w
            verdicts[verdict] += 1
    assert verdicts == {"pass": 678, "fail": 122}


class CountingResolver(Resolver):
    """Summary-less resolver of a one-state, one-letter automaton: at step n
    it takes transition ``choice(n)``."""

    def __init__(self, pda, choice):
        self.pda = pda
        self.choice = choice

    def start(self):
        return 0

    def feed(self, state, t):
        return state + 1

    def pick(self, state, config, letter):
        return self.pda.transitions[self.choice(state)]


def _two_color_loop():
    return OmegaPDA(("q",), ("a",), (), "q", (
        Transition("q", BOTTOM, "a", "q", (BOTTOM,), 0),
        Transition("q", BOTTOM, "a", "q", (BOTTOM,), 1),
    ))


@pytest.mark.parametrize("guard", [1, 3, 12, 100, 1000])
def test_verify_resolver_inconclusive_without_a_cube(guard):
    # A resolver without a key is never decided: not even a tail of its
    # Thue-Morse picks, which are cube-free, repeats three times.
    pda = _two_color_loop()
    r = CountingResolver(pda, lambda n: bin(n).count("1") % 2)
    report = verify_resolver(pda, r, [(parse_lasso(";a"), True)], guard)
    assert [e[2] for e in report.entries] == ["inconclusive"]
    assert report.all_passed() is False and report.failures() == []


class LateSwitch(CountingResolver):
    """Picks transition ``first`` for 1,500 letters, then ``then``."""

    def __init__(self, pda, first, then):
        super().__init__(pda, lambda n: first if n < 1500 else then)


class KeyedLateSwitch(LateSwitch):
    def key(self, state, w):
        return min(state, 1500)  # every pick from step 1,500 on is the same


@pytest.mark.parametrize("first, then", [(0, 1), (1, 0)])
def test_verify_resolver_decides_a_late_switch_only_past_it(first, then):
    # Self-loops of colors 1 and 2: the guided run accepts iff the color
    # picked after the switch is 2.  Without a key no step can be matched,
    # and with one the run is decided only once the key stops changing.
    pda = OmegaPDA(("q",), ("a",), (), "q", (
        Transition("q", BOTTOM, "a", "q", (BOTTOM,), 1),
        Transition("q", BOTTOM, "a", "q", (BOTTOM,), 2),
    ))
    suite = [(parse_lasso(";a"), True)]

    def verdict(r, guard):
        return [e[2] for e in verify_resolver(pda, r, suite, guard).entries]

    for guard in (1000, 5000):
        assert verdict(LateSwitch(pda, first, then), guard) == ["inconclusive"]
    keyed = KeyedLateSwitch(pda, first, then)
    assert verdict(keyed, 1000) == ["inconclusive"]
    assert verdict(keyed, 5000) == ["pass" if then == 1 else "fail"]


def test_lss_resolver_no_late_state_switch(lss_fx):
    # once the tracked component is safe from some index, no color-1
    # transition appears after the position consuming index max(k, 1)
    pda, r = lss_fx.automaton, lss_fx.resolver
    cases = [
        (LassoWord(("(-,0)",), ("(+,+)",)), 1),   # safe from index 1 in both
        (LassoWord((), ("(+,0)",)), 0),           # component 1 safe from 0
        (LassoWord(("(-,-)", "(-,-)"), ("(+,+)",)), 2),
    ]
    for w, k in cases:
        g = run_on_prefix(pda, r, ())
        for i in range(12):
            g = ext(pda, r, g, w.letter_at(i))
        cut = max(k, 1) + 1
        tail = g.run.transitions[cut:]
        assert all(t.color == 0 for t in tail), (w, [str(t) for t in tail])


def test_lss_resolver_tracks_first_argmin_of_prefix_energy(lss_fx):
    # min S_i is the first position where component i's prefix energy is
    # minimal; the resolver moves to the component with the smaller one.
    pda, r = lss_fx.automaton, lss_fx.resolver
    letters = pda.input_alphabet
    rng = random.Random(5)
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 60)))
        run = run_on_prefix(pda, r, word).run
        assert len(run) == len(word)
        for k, t in enumerate(run.transitions):
            firsts = []
            for component in (1, 2):
                levels = [zoo.prefix_energy_level(word[:m], component) for m in range(k + 2)]
                firsts.append(levels.index(min(levels)))
            assert t.target == ("1" if firsts[0] <= firsts[1] else "2"), (word, k)



def test_lss_resolver_advances_once_per_letter(lss_fx):
    pda = lss_fx.automaton
    r = zoo.LssResolver(pda)
    calls = []
    advance = r._advance
    r._advance = lambda state, letter: calls.append(letter) or advance(state, letter)
    word = tuple(random.Random(3).choice(pda.input_alphabet) for _ in range(1000))
    assert len(run_on_prefix(pda, r, word).run) == 1000
    assert calls == list(word)


def test_lss_resolver_picks_as_its_advanced_state_says(lss_fx):
    # pick reads each component's next first-argmin position without
    # advancing the state; advancing and reading it there must agree.
    pda = lss_fx.automaton
    r = zoo.LssResolver(pda)
    for w, _ in lss_fx.sample(seed=7, count=20):
        state, c = r.start(), pda.initial_configuration()
        for i in range(len(w.prefix) + 3 * len(w.loop)):
            a = w.letter_at(i)
            _, (_, _, min1), (_, _, min2) = r._advance(state, a)
            t = r.pick(state, c, a)
            assert (t.label, t.target) == (a, "1" if min1 <= min2 else "2"), (w, i)
            state, c = r.feed(state, t), step(c, t)


# -- guided steps against the one-shot resolver ---------------------------------


def _assert_steps_are_queries(pda, r, run, letters):
    """Each transition of ``run`` is what ``resolver_query`` picks from the
    history before it and the letter it processes."""
    ts, cs = run.transitions, run.configurations
    read = 0
    for j, t in enumerate(ts):
        assert resolver_query(r, RunPrefix(ts[:j], cs[:j + 1]), letters[read]) == t, (letters, j)
        read += t.label is not None
    assert read == len(letters)


def _lss_words(lss_fx):
    words = [w.prefix + w.loop * 5 for w, _ in lss_fx.sample(seed=21, count=12)]
    return words + [zoo.w_ss_bar_prefix(5)]


def test_guided_runs_take_what_resolver_query_picks(lss_fx, ex23):
    pda, r = lss_fx.automaton, zoo.LssResolver(lss_fx.automaton)
    for word in _lss_words(lss_fx):
        _assert_steps_are_queries(pda, r, run_on_prefix(pda, r, word).run, word)
    for w, _ in ex23.sample(seed=4, count=20):
        split = periodic_split(ex23.automaton, ex23.resolver, w)
        letters = [w.letter_at(i) for i in range(split.stem_letters + split.loop_letters)]
        _assert_steps_are_queries(ex23.automaton, ex23.resolver, split.run, letters)


def test_lifted_guided_runs_take_what_resolver_query_picks(lss_fx):
    pda = lss_fx.automaton
    letters = pda.input_alphabet
    dpa = closure.DeterministicParityAutomaton(
        ("d",), letters, "d", {("d", a): "d" for a in letters},
        {("d", a): i % 2 for i, a in enumerate(letters)})
    prod, info = closure.product_with_info(pda, dpa, "union")
    lifted = closure.lift_resolver(zoo.LssResolver(pda), pda, info)
    for word in _lss_words(lss_fx):
        _assert_steps_are_queries(prod, lifted, run_on_prefix(prod, lifted, word).run, word)


def test_lss_pick_is_the_first_matching_transition(lss_fx):
    # Resolver states that force either target: both components stay far
    # above their minimum, so the earlier ``at`` wins.
    pda, r = lss_fx.automaton, zoo.LssResolver(lss_fx.automaton)
    forced = {"1": (5, (10, 0, 2), (10, 0, 4)), "2": (5, (10, 0, 4), (10, 0, 2))}
    reached = {}
    for word in _lss_words(lss_fx):
        for c in run_on_prefix(pda, r, word).run.configurations:
            reached.setdefault((c.state, c.top), c)
    assert len(reached) == 4
    for (q, x), c in reached.items():
        for a in pda.input_alphabet:
            for target, state in forced.items():
                first = next(t for t in pda.by_source_top[(q, x)]
                             if t.label == a and t.target == target)
                assert r.pick(state, c, a) is first


# -- Moore text format -----------------------------------------------------------------


def test_moore_text_round_trip(ex23):
    text = format_moore(ex23.automaton, ex23.resolver)
    again = parse_moore(ex23.automaton, text)
    assert again.states == ex23.resolver.states
    assert again.initial == ex23.resolver.initial
    assert again.delta == ex23.resolver.delta
    assert again.output == ex23.resolver.output
    assert format_moore(ex23.automaton, again) == text


@pytest.mark.parametrize("kind,field", [("mtrans", 2), ("mout", 4)])
@pytest.mark.parametrize("index", ["-1", "{n}", "x", "01"])
def test_moore_transition_index_out_of_range(ex23, kind, field, index):
    # Only 0..n-1 name a transition; a negative index is not the last one.
    lines = format_moore(ex23.automaton, ex23.resolver).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(kind))
    fields = lines[i].split()
    fields[field] = index.format(n=len(ex23.automaton.transitions))
    lines[i] = " ".join(fields)
    with pytest.raises(FormatError, match=rf"^line {i + 1}: "):
        parse_moore(ex23.automaton, "\n".join(lines))
