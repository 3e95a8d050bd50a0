import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from gfgpda import analysis, zoo
from gfgpda.closure import (
    AlphabetMismatch,
    DeterministicParityAutomaton,
    format_dpa,
    lift_resolver,
    muller_accepts,
    parse_dpa,
    product,
    product_with_info,
    zielonka_tree,
)
from gfgpda.core import (
    BOTTOM, LassoWord, OmegaPDA, ResourceExceeded, Transition, parse_lasso, validate,
)
from gfgpda.resolvers import (
    Resolver, ResolverStuck, moore_lasso_acceptance, run_on_prefix, verify_resolver,
)
from helpers import cycle_dpa, dpa_lasso_verdict, zielonka_verdict


def one_state_dpa(alphabet, color):
    return DeterministicParityAutomaton(
        ("d0",), tuple(alphabet), "d0",
        {("d0", a): "d0" for a in alphabet},
        {("d0", a): color for a in alphabet},
    )


def inf_many_d_dpa(alphabet):
    """Accepts words with infinitely many d's."""
    return DeterministicParityAutomaton(
        ("d0",), tuple(alphabet), "d0",
        {("d0", a): "d0" for a in alphabet},
        {("d0", a): (2 if a == "d" else 1) for a in alphabet},
    )


def contains_a_dpa(alphabet):
    """Accepts words containing at least one 'a'."""
    states = ("n", "y")
    delta = {}
    colors = {}
    for a in alphabet:
        delta[("n", a)] = "y" if a == "a" else "n"
        colors[("n", a)] = 2 if a == "a" else 1
        delta[("y", a)] = "y"
        colors[("y", a)] = 2
    return DeterministicParityAutomaton(states, tuple(alphabet), "n", delta, colors)


def corpus(seed, count=50):
    fx = zoo.example23()
    words = [w for w, _ in fx.sample(seed=seed, count=count - 10)]
    rng = random.Random(seed)
    while len(words) < count:
        u = tuple(rng.choice("abcd#") for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice("abcd#") for _ in range(rng.randint(1, 2)))
        words.append(LassoWord(u, v))
    return words


@pytest.mark.parametrize("mode,op", [
    ("intersect", lambda p, a: p and a),
    ("union", lambda p, a: p or a),
    ("minus", lambda p, a: p and not a),
])
@pytest.mark.parametrize("dpa_maker", [one_state_dpa, inf_many_d_dpa, contains_a_dpa])
def test_product_modes_match_independent_simulation(mode, op, dpa_maker):
    pda = zoo.example23().automaton
    if dpa_maker is one_state_dpa:
        dpa = one_state_dpa(pda.input_alphabet, 2)
    else:
        dpa = dpa_maker(pda.input_alphabet)
    prod = product(pda, dpa, mode)
    for w in corpus(seed=13, count=30):
        want = op(analysis.lasso_membership(pda, w), dpa_lasso_verdict(dpa, w))
        assert analysis.lasso_membership(prod, w) == want, (mode, w)


def test_product_with_all_accepting_intersect_is_identity():
    pda = zoo.example23().automaton
    dpa = one_state_dpa(pda.input_alphabet, 2)
    prod = product(pda, dpa, "intersect")
    assert analysis.lasso_membership(prod, parse_lasso("acd;#"))
    assert not analysis.lasso_membership(prod, parse_lasso("acdd;#"))


def test_product_with_all_rejecting_union_is_identity():
    pda = zoo.example23().automaton
    dpa = one_state_dpa(pda.input_alphabet, 1)
    prod = product(pda, dpa, "union")
    for w in corpus(seed=3, count=25):
        assert analysis.lasso_membership(prod, w) == analysis.lasso_membership(pda, w)


def test_product_minus_all_accepting_is_empty():
    pda = zoo.example23().automaton
    dpa = one_state_dpa(pda.input_alphabet, 2)
    prod = product(pda, dpa, "minus")
    assert analysis.parity_nonempty(prod) is None


def test_product_alphabet_mismatch():
    pda = zoo.example23().automaton
    with pytest.raises(AlphabetMismatch):
        product(pda, one_state_dpa(("a", "b"), 2), "intersect")


def test_unknown_modes_and_invalid_dpas_are_refused():
    pda = zoo.example23().automaton
    with pytest.raises(ValueError, match="unknown mode 'xor'"):
        muller_accepts("xor", frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="mode must be one of"):
        product_with_info(pda, one_state_dpa(pda.input_alphabet, 2), "xor")
    good = one_state_dpa(pda.input_alphabet, 2)
    bad = DeterministicParityAutomaton(good.states, good.alphabet, "d9", good.delta, good.colors)
    with pytest.raises(ValueError, match="initial 'd9' not declared"):
        product_with_info(pda, bad, "intersect")


def test_union_sink_gets_a_fresh_name():
    # The pushdown side already has a state named like the sink; the DPA
    # accepts the words with infinitely many b's.
    pda = OmegaPDA(("sink!",), ("a", "b"), (), "sink!",
                   (Transition("sink!", BOTTOM, "a", "sink!", (BOTTOM,), 2),))
    dpa = DeterministicParityAutomaton(("d",), ("a", "b"), "d", {("d", "a"): "d", ("d", "b"): "d"},
                                       {("d", "a"): 1, ("d", "b"): 2})
    prod, info = product_with_info(pda, dpa, "union")
    assert set(info.base_state.values()) == {"sink!", "sink!!"}
    for text, want in ((";a", True), ("a;b", True), ("b;a", False), (";ab", True)):
        assert analysis.lasso_membership(prod, parse_lasso(text)) == want, text


def test_product_epsilon_keeps_dpa_frozen():
    pda = zoo.palindrome().automaton
    dpa = contains_a_dpa(pda.input_alphabet)

    # palindrome has epsilon transitions; products must still agree
    prod = product(pda, dpa, "intersect")
    for w, _ in zoo.palindrome().sample(seed=5, count=15):
        want = analysis.lasso_membership(pda, w) and dpa_lasso_verdict(dpa, w)
        assert analysis.lasso_membership(prod, w) == want, w


# -- resolver lifting ------------------------------------------------------------


def test_lift_resolver_accepts_acd():
    fx = zoo.example23()
    dpa = one_state_dpa(fx.automaton.input_alphabet, 2)
    prod, info = product_with_info(fx.automaton, dpa, "intersect")
    lifted = lift_resolver(fx.resolver, fx.automaton, info)
    assert moore_lasso_acceptance(prod, lifted, parse_lasso("acd;#")) == "accepted"
    assert moore_lasso_acceptance(prod, lifted, parse_lasso("bccdddd;#")) == "accepted"


def test_lift_resolver_projection_identity():
    fx = zoo.example23()
    dpa = inf_many_d_dpa(fx.automaton.input_alphabet)
    prod, info = product_with_info(fx.automaton, dpa, "union")
    lifted = lift_resolver(fx.resolver, fx.automaton, info)
    g = run_on_prefix(prod, lifted, "acd")
    base_g = run_on_prefix(fx.automaton, fx.resolver, "acd")
    assert tuple(info.base_of[t] for t in g.run.transitions) == base_g.run.transitions
    assert g.run.last.stack == base_g.run.last.stack


def test_lifted_resolver_refuses_a_pick_outside_the_product():
    fx = zoo.example23()
    prod, info = product_with_info(fx.automaton, one_state_dpa(fx.automaton.input_alphabet, 2),
                                   "intersect")

    class Foreign(Resolver):
        def pick(self, state, config, letter):
            return Transition("q0", BOTTOM, "a", "q9", (BOTTOM, "A"), 1)

    lifted = lift_resolver(Foreign(), fx.automaton, info)
    with pytest.raises(ResolverStuck, match="no product transition extends"):
        lifted.pick(None, prod.initial_configuration(), "a")


def lss_union_product():
    """lss in union with a one-state DPA whose colors 0 and 1 alternate over
    the alphabet: every word of L(lss) stays in the product."""
    pda = zoo.lss().automaton
    letters = pda.input_alphabet
    lines = ["dstate d", "dinitial d"] + [f"dletter {a}" for a in letters]
    lines += [f"dtrans d {a} d {i % 2}" for i, a in enumerate(letters)]
    return pda, product_with_info(pda, parse_dpa("\n".join(lines) + "\n"), "union")


def test_lift_resolver_verdicts_match_the_base_on_lss():
    pda, (prod, info) = lss_union_product()
    lifted = lift_resolver(zoo.LssResolver(pda), pda, info)
    suite = zoo.lss().sample(seed=7, count=20)
    base = verify_resolver(pda, zoo.LssResolver(pda), suite, guard=600)
    assert verify_resolver(prod, lifted, suite, guard=600).entries == base.entries
    assert sum(e[2] == "pass" for e in base.entries) >= 5


def test_lifted_resolver_passes_on_the_guided_corpus_words():
    # The accepted lss words of the guided benchmark corpus (base seed 2024),
    # verified at its guard of 1,000 steps.
    pda, (prod, info) = lss_union_product()
    leaves = zielonka_tree("union", {(a, b) for a in (0, 1) for b in (0, 1)})[0]
    assert len(prod.states) <= (len(pda.states) + 1) * 1 * leaves  # |Q| (and the sink) |D|
    seeds = random.Random(2024)
    words = []
    while len(words) < 10:
        words += [w for w, flag in zoo.lss().sample(seed=seeds.randrange(2**31), count=20)
                  if flag][:10 - len(words)]
    lifted = lift_resolver(zoo.LssResolver(pda), pda, info)
    for w in words:
        assert verify_resolver(prod, lifted, [(w, True)], 1000).entries[0][2] == "pass", w


def test_lifted_resolver_verdicts_are_membership():
    # The lifted lss resolver is decided on every sampled word, and passes
    # iff the union product accepts the word.
    pda, (prod, info) = lss_union_product()
    lifted = lift_resolver(zoo.LssResolver(pda), pda, info)
    verdicts = collections.Counter()
    for seed in range(0, 40, 4):
        for w, _ in zoo.lss().sample(seed=seed, count=20):
            verdict = verify_resolver(prod, lifted, [(w, True)], 1000).entries[0][2]
            assert verdict == ("pass" if analysis.lasso_membership(prod, w) else "fail"), w
            verdicts[verdict] += 1
    assert verdicts == {"pass": 196, "fail": 4}


def test_lift_resolver_projection_at_depth():
    pda, (prod, info) = lss_union_product()
    lifted = lift_resolver(zoo.LssResolver(pda), pda, info)
    # 500 letters that switch the tracked component, then 500 that mostly
    # push: the stack ends dozens of symbols high.
    rng = random.Random(1)
    letters = pda.input_alphabet + ("(+,+)", "(+,0)", "(0,+)")
    word = zoo.w_ss_bar_prefix(8)[:500] + tuple(rng.choice(letters) for _ in range(500))
    g = run_on_prefix(prod, lifted, word)
    base_g = run_on_prefix(pda, zoo.LssResolver(pda), word)
    assert tuple(info.base_of[t] for t in g.run.transitions) == base_g.run.transitions
    assert g.run.last.stack == base_g.run.last.stack
    assert len({c.state for c in base_g.run.configurations}) == 2
    assert g.run.last.height > 50


def test_product_preserves_nondeterminism_degree():
    # the lifted resolver never faces a choice the base resolver didn't have
    fx = zoo.example23()
    dpa = inf_many_d_dpa(fx.automaton.input_alphabet)
    prod, info = product_with_info(fx.automaton, dpa, "intersect")
    base_fanout = {}
    for t in fx.automaton.transitions:
        base_fanout.setdefault((t.source, t.top, t.label), 0)
        base_fanout[(t.source, t.top, t.label)] += 1
    for (src, top, lab), group in _fanout(prod).items():
        base_src = src.split("*")[0]
        assert group == base_fanout[(base_src, top, lab)]


def test_product_state_names_are_injective():
    # Joining component names with "*" would name the pairs ("a*b", "c") and
    # ("a", "b*c") both "a*b*c*L0".
    ts = (
        Transition("a*b", BOTTOM, "x", "a", (BOTTOM,), 0),
        Transition("a*b", BOTTOM, "y", "a*b", (BOTTOM,), 1),
        Transition("a", BOTTOM, "x", "a*b", (BOTTOM,), 0),
        Transition("a", BOTTOM, "y", "a", (BOTTOM,), 1),
    )
    pda = OmegaPDA(("a*b", "a"), ("x", "y"), (), "a*b", ts)
    swap_on_x = {("c", "x"): "b*c", ("b*c", "x"): "c", ("c", "y"): "c", ("b*c", "y"): "b*c"}
    dpa = DeterministicParityAutomaton(
        ("c", "b*c"), ("x", "y"), "c", swap_on_x, {key: 0 for key in swap_on_x}
    )
    prod, _ = product_with_info(pda, dpa, "intersect")  # dpa accepts every word
    assert len(set(prod.states)) == len(prod.states)
    assert validate(prod) == []
    for text in (";x", ";y", "y;xy", "xy;x", "yy;xx"):
        w = parse_lasso(text)
        assert analysis.lasso_membership(prod, w) == analysis.lasso_membership(pda, w), text


def _fanout(pda):
    fan = {}
    for t in pda.transitions:
        fan.setdefault((t.source, t.top, t.label), 0)
        fan[(t.source, t.top, t.label)] += 1
    return fan


# -- Zielonka-tree memory -----------------------------------------------------------


@given(st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_zielonka_memory_matches_muller_on_periodic_sequences(data):
    pool = [(p, a) for p in range(3) for a in range(2)]
    alphabet = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    prefix = data.draw(st.lists(st.sampled_from(alphabet), max_size=5))
    loop = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=5))
    mode = data.draw(st.sampled_from(("intersect", "union", "minus")))
    pairs = list(prefix) + list(loop)
    got = zielonka_verdict(mode, pairs, len(prefix))
    want = muller_accepts(mode, frozenset(loop))
    assert got == want, (mode, prefix, loop)


@pytest.mark.parametrize("mode,leaves", [
    ("intersect", (1, 2, 2, 6, 6, 20)),
    ("union", (2, 2, 6, 6, 20, 20)),
    ("minus", (1, 2, 3, 6, 10, 20)),
])
def test_zielonka_tree_leaves_on_full_color_grids(mode, leaves):
    grids = ({(a, b) for a in range(d) for b in range(d)} for d in range(2, 8))
    assert tuple(zielonka_tree(mode, grid)[0] for grid in grids) == leaves


def random_dpa(rng, alphabet):
    states = tuple(f"d{i}" for i in range(rng.randint(1, 3)))
    keys = [(q, a) for q in states for a in alphabet]
    return DeterministicParityAutomaton(
        states, tuple(alphabet), "d0", {key: rng.choice(states) for key in keys},
        {key: rng.randint(0, 5) for key in keys},
    )


def test_products_match_both_sides_on_fixture_samples():
    ops = {"intersect": lambda p, a: p and a, "union": lambda p, a: p or a,
           "minus": lambda p, a: p and not a}
    rng = random.Random(17)
    checks = 0
    for fx in zoo.all_fixtures():
        pda = fx.automaton
        words = [w for w, _ in fx.sample(seed=17, count=4)]
        base = {w: analysis.lasso_membership(pda, w) for w in words}
        dpas = [cycle_dpa(pda.input_alphabet)]
        dpas += [random_dpa(rng, pda.input_alphabet) for _ in range(19)]
        for dpa in dpas:
            for mode, op in ops.items():
                prod = product(pda, dpa, mode)
                for w in words:
                    want = op(base[w], dpa_lasso_verdict(dpa, w))
                    assert analysis.lasso_membership(prod, w) == want, (fx.name, mode, w)
                    checks += 1
    assert checks >= 11 * 20 * 3 * 3


def test_cycle_union_product_stays_within_states_times_leaves():
    # A latest-appearance record over these pairs gives the union tens of
    # thousands of states; the Zielonka tree over them is a chain.
    pda = zoo.example23().automaton
    dpa = cycle_dpa(pda.input_alphabet)
    leaves = zielonka_tree("union", {(a, b) for a in (1, 2) for b in range(6)})[0]
    prod = product(pda, dpa, "union")
    assert leaves == 1
    assert len(prod.states) <= (len(pda.states) + 1) * len(dpa.states) * leaves  # + the sink


def test_product_budget_counts_states():
    pda = zoo.example23().automaton
    dpa = cycle_dpa(pda.input_alphabet)
    size = len(product(pda, dpa, "union").states)
    assert len(product(pda, dpa, "union", budget=size).states) == size
    with pytest.raises(ResourceExceeded, match=f"^{size} states exceed the budget {size - 1}$"):
        product_with_info(pda, dpa, "union", budget=size - 1)


# -- DPA text format -----------------------------------------------------------------


def test_dpa_text_round_trip():
    dpa = contains_a_dpa(("a", "b", "c", "d", "#"))
    text = format_dpa(dpa)
    again = parse_dpa(text)
    assert again == dpa
    assert format_dpa(again) == text


def test_dpa_validate_golden_diagnostics():
    dpa = DeterministicParityAutomaton(
        ("p", "q"), ("a", "b"), "r",
        {("p", "a"): "q", ("p", "b"): "p", ("q", "a"): "s", ("t", "c"): "p"},
        {("p", "a"): 0, ("q", "a"): 1},
    )
    assert dpa.validate() == [
        "color(p, b) missing",
        "delta(q, b) missing",
        "initial 'r' not declared",
        "dtrans q a s: state 's' not declared",
        "dtrans t c p: state 't' not declared",
        "dtrans t c p: letter 'c' not declared",
    ]
