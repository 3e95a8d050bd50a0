import hashlib
import json

import pytest

from gfgpda import analysis, zoo
from gfgpda.core import check_visibly, pair_id, parse_lasso, parse_pda, format_pda, validate
from gfgpda.resolvers import format_moore, verify_resolver
from gfgpda.zoo import loop_energy_deltas, prefix_energy_level, w_ss_bar_prefix


def test_registry_contents():
    assert set(zoo.ZOO) == {
        "figure1", "example23", "lss", "twopump", "parity2", "parity3",
        "repbdd", "palindrome", "ncw1", "ncw2", "allodd",
    }
    with pytest.raises(KeyError):
        zoo.get("nonesuch")


# SHA-256 of corpus_snapshot(): every benchmark workload and many tests draw
# their inputs from the zoo, so a change to an automaton, a resolver or a
# sampler's draws must be deliberate.  Recompute it only with such a change.
CORPUS_DIGEST = "242d8b10ff611be387db420d74661c45e40c7827de60bd92df44de40091f50c3"


def corpus_snapshot() -> str:
    """Canonical JSON of each fixture's text, the Moore resolvers' texts and
    ``sample(seed, n)`` for seeds 0-7 and n in 5 and 40."""
    fixtures = {}
    for name in zoo.ZOO:
        fx = zoo.get(name)
        fixtures[name] = {
            "pda": format_pda(fx.automaton),
            "samples": [
                [[list(w.prefix), list(w.loop), flag] for w, flag in fx.sample(seed, n)]
                for seed in range(8) for n in (5, 40)
            ],
        }
    fig1, ex23 = zoo.figure1(), zoo.example23()
    moore = {
        "figure1": format_moore(fig1.automaton, fig1.resolver),
        "figure1_always_q1": format_moore(
            fig1.automaton, zoo.figure1_always_q1_resolver(fig1.automaton)),
        "example23": format_moore(ex23.automaton, ex23.resolver),
    }
    return json.dumps({"fixtures": fixtures, "moore": moore}, sort_keys=True)


def test_corpus_is_pinned():
    digest = hashlib.sha256(corpus_snapshot().encode()).hexdigest()
    assert digest == CORPUS_DIGEST


def test_all_fixtures_validate():
    for fx in zoo.all_fixtures():
        assert validate(fx.automaton) == [], fx.name


def test_samplers_are_deterministic_and_large_enough():
    for fx in zoo.all_fixtures():
        a = fx.sample(seed=9, count=20)
        b = fx.sample(seed=9, count=20)
        assert a == b and len(a) == 20, fx.name


def test_corpus_engine_vs_closed_form():
    for fx in zoo.all_fixtures():
        for w, flag in fx.sample(seed=1, count=20):
            assert analysis.lasso_membership(fx.automaton, w) == flag, (fx.name, w)


@pytest.mark.parametrize(
    "name,lasso,expected",
    [
        ("figure1", ";a", True),
        ("figure1", ";b", True),
        ("figure1", "ab;ba", True),
        ("example23", "acd;#", True),
        ("example23", "bccdddd;#", True),
        ("example23", "bcd;#", False),
        ("lss", ";(+,0) (+,-)", True),
        ("lss", ";(-,-)", False),
        ("lss", "(-,0);(+,+)", True),
        ("twopump", "a#b#;#", True),
        ("twopump", "a#b#b#;#", True),
        ("twopump", "a#b#b#b#;#", False),
        ("parity2", ";2", True),
        ("parity2", ";12", True),
        ("parity3", ";3", False),
        ("repbdd", ";+-", True),
        ("repbdd", ";+", False),
        ("repbdd", "-;-", True),
        ("palindrome", "0110;#", True),
        ("palindrome", "01#10;#", True),
        ("palindrome", "010;#", False),
        ("ncw1", "ab;b", True),
        ("ncw2", "ba;b", True),
    ],
)
def test_named_examples(name, lasso, expected):
    fx = zoo.get(name)
    assert analysis.lasso_membership(fx.automaton, parse_lasso(lasso)) == expected


def test_fixture_resolvers_pass_verification():
    for fx in zoo.all_fixtures():
        if fx.resolver is None:
            continue
        report = verify_resolver(fx.automaton, fx.resolver, fx.sample(seed=4, count=20),
                                 guard=800)
        assert report.all_passed(), (fx.name, report.entries)


def test_repbdd_is_visibly_pushdown():
    fx = zoo.repbdd()
    ok, diags = check_visibly(fx.automaton, fx.partition)
    assert ok, diags


def test_w_ss_bar_prefix():
    x1 = (pair_id("+", "0"), pair_id("+", "-"))
    x2 = (pair_id("0", "+"), pair_id("-", "+"))
    assert w_ss_bar_prefix(1) == x1
    assert w_ss_bar_prefix(2) == x1 + x2 * 3
    # energy levels per the recurrence
    assert prefix_energy_level(w_ss_bar_prefix(3), 2) == -2
    assert prefix_energy_level(w_ss_bar_prefix(4), 1) == -2
    assert prefix_energy_level(w_ss_bar_prefix(5), 2) == -3


def test_loop_energy_deltas():
    w = parse_lasso(";(+,0) (+,-)")
    assert loop_energy_deltas(w) == (2, -1)


def test_dump_parse_round_trip():
    for name in zoo.ZOO:
        fx = zoo.get(name)
        assert parse_pda(format_pda(fx.automaton)) == fx.automaton


def test_lss_resolver_survives_wssbar_stress():
    # the exponentially alternating prefix exercises the min-S bookkeeping
    from gfgpda.resolvers import run_on_prefix

    fx = zoo.lss()
    word = w_ss_bar_prefix(5)
    assert len(word) > 100
    g = run_on_prefix(fx.automaton, fx.resolver, word)
    assert g.letters_consumed == len(word)
    # the word keeps both components diverging, so the run keeps switching:
    # color-1 transitions appear unboundedly often
    assert sum(1 for t in g.run.transitions if t.color == 1) >= 4
