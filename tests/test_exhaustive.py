"""Exhaustive and randomized cross-checks beyond the sampled corpus:

* every fixture automaton against its closed-form classifier on *all* lassos
  up to a per-fixture size bound;
* the membership engine against the bounded brute-force oracle on randomly
  generated automata (with epsilon transitions, swaps, pushes and pops mixed
  freely), wherever the oracle is conclusive.
"""

import itertools
import random

from gfgpda import analysis, zoo
from gfgpda.core import LassoWord, validate
from gfgpda.zoo import (
    _in_example23,
    _in_lss,
    _in_ncw1,
    _in_ncw2,
    _in_palindrome,
    _in_repbdd,
    _in_twopump,
)
from helpers import normalize_colors, random_pda, validate_witness


def all_lassos(alphabet, max_prefix, max_loop):
    for pl in range(max_prefix + 1):
        for u in itertools.product(alphabet, repeat=pl):
            for ll in range(1, max_loop + 1):
                for v in itertools.product(alphabet, repeat=ll):
                    yield LassoWord(u, v)


CLOSED_FORMS = {
    "figure1": ((3, 2), lambda w: True),
    "example23": ((3, 1), _in_example23),
    "lss": ((1, 1), _in_lss),
    "twopump": ((4, 1), _in_twopump),
    "parity2": ((2, 2), lambda w: max(int(p) for p in w.loop) % 2 == 0),
    "parity3": ((1, 2), lambda w: max(int(p) for p in w.loop) % 2 == 0),
    "repbdd": ((4, 2), _in_repbdd),
    "palindrome": ((3, 1), _in_palindrome),
    "ncw1": ((4, 1), _in_ncw1),
    "ncw2": ((4, 1), _in_ncw2),
    "allodd": ((7, 3), lambda w: False),
}


def test_every_fixture_exhaustively_small():
    for name, ((max_u, max_v), classify) in CLOSED_FORMS.items():
        fx = zoo.get(name)
        checked = 0
        for w in all_lassos(fx.automaton.input_alphabet, max_u, max_v):
            got = analysis.lasso_membership(fx.automaton, w)
            assert got == classify(w), (name, str(w), got)
            checked += 1
        assert checked > 20, name


def test_paper_energy_level_identities():
    # EL of component 1 after segments ending in an x2 block is -j (j > 1);
    # EL of component 2 after segments ending in an x1 block is -j (j > 0)
    from gfgpda.zoo import prefix_energy_level, w_ss_bar_prefix

    for j in range(2, 6):
        k = 2 * j  # prefix x1 (x2)^3 ... (x2)^(2^(2j)-1) has 2j segments
        assert prefix_energy_level(w_ss_bar_prefix(k), 1) == -j, j
    for j in range(1, 6):
        k = 2 * j - 1  # ... (x1)^(2^(2j-1)-1) has 2j-1 segments
        assert prefix_energy_level(w_ss_bar_prefix(k), 2) == -j, j


def test_engine_matches_oracle_on_random_automata():
    rng = random.Random(321)
    conclusive = 0
    for _ in range(150):
        pda = random_pda(rng)
        assert validate(pda) == []
        for _ in range(4):
            u = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(0, 2)))
            v = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(1, 2)))
            w = LassoWord(u, v)
            verdict = analysis.brute_force_lasso_oracle(pda, w, 5, 20_000)
            if verdict == analysis.UNKNOWN:
                continue
            conclusive += 1
            assert verdict == analysis.lasso_membership(pda, w), (pda, w)
    assert conclusive > 300


def test_normalize_colors_agrees_on_random_automata():
    rng = random.Random(654)
    for _ in range(60):
        pda = random_pda(rng)
        norm = normalize_colors(pda)
        for _ in range(3):
            u = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(0, 2)))
            v = tuple(rng.choice(pda.input_alphabet) for _ in range(rng.randint(1, 2)))
            w = LassoWord(u, v)
            assert analysis.lasso_membership(norm, w) == analysis.lasso_membership(pda, w)


def test_emptiness_witnesses_on_random_automata():
    rng = random.Random(987)
    nonempty = 0
    for _ in range(120):
        pda = random_pda(rng)
        witness = analysis.parity_nonempty(pda)
        if witness is not None:
            nonempty += 1
            validate_witness(pda, witness)
    assert nonempty > 30
