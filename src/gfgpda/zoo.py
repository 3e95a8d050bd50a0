"""Programmatic fixture corpus: every concrete automaton, resolver and word
family used by the tests, with samplers whose in/out classification comes
from closed-form definitions (energy levels, value recurrences, counting),
never from the membership engine.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Optional

from .core import BOTTOM, LassoWord, OmegaPDA, Record, Transition, pair_id
from .resolvers import MooreResolver, Resolver

Sample = list[tuple[LassoWord, bool]]


class Fixture(Record):
    name: str
    automaton: OmegaPDA
    sampler: Callable[[int, int], Sample]
    resolver: Optional[Resolver] = None
    partition: Optional[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = None

    def sample(self, seed: int = 0, count: int = 20) -> Sample:
        out = self.sampler(seed, count)
        assert len(out) >= count
        return out[:count] if count else out


def _pda(states, letters, stack, initial, transitions) -> OmegaPDA:
    return OmegaPDA(tuple(states), tuple(letters), tuple(stack), initial, tuple(transitions))


def _t(src, top, lab, dst, push, color) -> Transition:
    return Transition(src, top, lab, dst, tuple(push), color)


def _moore(pda: OmegaPDA, states, initial: str, hops: dict) -> MooreResolver:
    """The Moore resolver whose hop ``(m, i) -> m2`` picks transition ``i`` at
    ``m`` and moves to ``m2``; every other ``(m, t)`` moves to ``"sink"``."""
    delta = {(m, t): "sink" for m in states for t in pda.transitions}
    output = {}
    for (m, i), m2 in hops.items():
        t = pda.transitions[i]
        delta[(m, t)] = m2
        output[(m, t.label, t.top)] = t
    return MooreResolver(states, initial, delta, output)


def _lasso_sampler(words, letter, u_max: int, v_max: int, classify) -> Callable[[int, int], Sample]:
    """``words``, then lassos u v^w of ``letter(rng)``s, |u| <= u_max, |v| <= v_max."""

    def sampler(seed: int, count: int) -> Sample:
        rng = random.Random(seed)
        out = list(words)
        while len(out) < count:
            u = tuple(letter(rng) for _ in range(rng.randint(0, u_max)))
            v = tuple(letter(rng) for _ in range(rng.randint(1, v_max)))
            out.append(LassoWord(u, v))
        return [(w, classify(w)) for w in out]

    return sampler


# ---------------------------------------------------------------------------
# figure1: the 5-state stackless parity automaton recognizing {a,b}^omega.
# The q1 branch rejects words with infinitely many a's (color 3 into the
# black state), so a resolver that commits to q1 fails; the q2 branch is
# colored all-accepting, making "switch to q2, then track" a resolver.
# ---------------------------------------------------------------------------


def figure1() -> Fixture:
    B = BOTTOM
    ts = [
        _t("i", B, "a", "q1", (B,), 2),    # 0
        _t("i", B, "b", "q1", (B,), 2),    # 1
        _t("i", B, "a", "q2", (B,), 2),    # 2
        _t("i", B, "b", "q2", (B,), 2),    # 3
        _t("q1", B, "a", "bl", (B,), 3),   # 4
        _t("q1", B, "b", "q1", (B,), 2),   # 5
        _t("bl", B, "a", "bl", (B,), 3),   # 6
        _t("bl", B, "b", "q1", (B,), 2),   # 7
        _t("q2", B, "a", "w2", (B,), 2),   # 8
        _t("q2", B, "b", "q2", (B,), 2),   # 9
        _t("w2", B, "a", "w2", (B,), 2),   # 10
        _t("w2", B, "b", "q2", (B,), 2),   # 11
    ]
    pda = _pda(["i", "q1", "q2", "bl", "w2"], ["a", "b"], [], "i", ts)
    words = [LassoWord((), ("a",)), LassoWord((), ("b",)), LassoWord(("a", "b"), ("b", "a"))]
    sampler = _lasso_sampler(words, lambda rng: rng.choice("ab"), 4, 4, lambda w: True)
    return Fixture("figure1", pda, sampler, resolver=figure1_resolver(pda))


def figure1_resolver(pda: OmegaPDA) -> MooreResolver:
    """Switch to q2 immediately, then track the current state."""
    return _moore(pda, ("m0", "m2", "mw", "sink"), "m0", {
        ("m0", 2): "m2", ("m0", 3): "m2",
        ("m2", 8): "mw", ("m2", 9): "m2",
        ("mw", 10): "mw", ("mw", 11): "m2",
    })


def figure1_always_q1_resolver(pda: OmegaPDA) -> MooreResolver:
    """Commit to q1: not a resolver (rejects words with infinitely many a's)."""
    return _moore(pda, ("m0", "m1", "mb", "sink"), "m0", {
        ("m0", 0): "m1", ("m0", 1): "m1",
        ("m1", 4): "mb", ("m1", 5): "m1",
        ("mb", 6): "mb", ("mb", 7): "m1",
    })


# ---------------------------------------------------------------------------
# example23: { a c^n d^n #^w } u { b c^n d^2n #^w }, n >= 1, plus its
# finite-state resolver (remember the first letter, then track the state).
# ---------------------------------------------------------------------------


def _fig2_pda() -> OmegaPDA:
    B = BOTTOM
    ts = [
        _t("q0", B, "a", "q1", (B, "A"), 1),   # 0
        _t("q0", B, "b", "q1", (B, "B"), 1),   # 1
        _t("q1", "A", "c", "q1", ("A", "N"), 1),   # 2
        _t("q1", "B", "c", "q1", ("B", "N"), 1),   # 3
        _t("q1", "N", "c", "q1", ("N", "N"), 1),   # 4
        _t("q1", "N", "d", "q2", (), 1),   # 5
        _t("q1", "N", "d", "q3", ("N",), 1),   # 6
        _t("q2", "N", "d", "q2", (), 1),   # 7
        _t("q2", "A", "#", "q4", (), 1),   # 8
        _t("q3", "N", "d", "q5", (), 1),   # 9
        _t("q5", "N", "d", "q3", ("N",), 1),   # 10
        _t("q5", "B", "#", "q4", (), 1),   # 11
        _t("q4", B, "#", "q4", (B,), 2),   # 12
    ]
    return _pda(
        ["q0", "q1", "q2", "q3", "q4", "q5"], ["a", "b", "c", "d", "#"], ["A", "B", "N"],
        "q0", ts,
    )


def fig6_moore(pda: OmegaPDA) -> MooreResolver:
    return _moore(pda, ("i", "ua", "ub", "ad", "bd1", "bd2", "acc", "sink"), "i", {
        ("i", 0): "ua", ("i", 1): "ub",
        ("ua", 2): "ua", ("ua", 4): "ua", ("ua", 5): "ad",
        ("ub", 3): "ub", ("ub", 4): "ub", ("ub", 6): "bd1",
        ("ad", 7): "ad", ("ad", 8): "acc",
        ("bd1", 9): "bd2",
        ("bd2", 10): "bd1", ("bd2", 11): "acc",
        ("acc", 12): "acc",
    })


def _in_example23(w: LassoWord) -> bool:
    if set(w.loop) != {"#"}:
        return False
    core = "".join(w.prefix).rstrip("#")
    if "#" in core or not core:
        return False
    first, rest = core[0], core[1:]
    n = len(rest) - len(rest.lstrip("c"))
    ds = rest[n:]
    if n < 1 or set(ds) not in ({"d"}, set()):
        return False
    if first == "a":
        return len(ds) == n
    if first == "b":
        return len(ds) == 2 * n
    return False


def example23() -> Fixture:
    pda = _fig2_pda()

    def sampler(seed: int, count: int) -> Sample:
        rng = random.Random(seed)
        words = [
            LassoWord(tuple("acd#"), ("#",)),
            LassoWord(tuple("bccdddd#"), ("#",)),
            LassoWord(tuple("bcd"), ("#",)),
            LassoWord(tuple("acdd"), ("#",)),
            LassoWord(tuple("bcdd"), ("#",)),
            LassoWord((), ("#",)),
        ]
        while len(words) < count:
            n = rng.randint(1, 3)
            first = rng.choice("ab")
            d = rng.choice([n, 2 * n, n + 1, 2 * n - 1])
            tail = tuple("#" * rng.randint(0, 2))
            words.append(LassoWord((first,) + ("c",) * n + ("d",) * d + tail, ("#",)))
            if rng.random() < 0.3:
                words.append(LassoWord(tuple("acd"), tuple(rng.choice(["#", "d#"]))))
        return [(w, _in_example23(w)) for w in words]

    return Fixture("example23", pda, sampler, resolver=fig6_moore(pda))


# ---------------------------------------------------------------------------
# lss: the two-state energy-level automaton over I x I and its resolver
# tracking the component with the earliest still-safe suffix.
# ---------------------------------------------------------------------------

I_LETTERS = ("0", "+", "-")


def _lss_pda() -> OmegaPDA:
    B = BOTTOM
    letters = [pair_id(x, y) for x in I_LETTERS for y in I_LETTERS]
    ts = []
    for s, other in (("1", "2"), ("2", "1")):
        for x in I_LETTERS:
            for y in I_LETTERS:
                lab = pair_id(x, y)
                c = x if s == "1" else y
                if c == "0":
                    ts.append(_t(s, B, lab, s, (B,), 0))
                    ts.append(_t(s, "N", lab, s, ("N",), 0))
                elif c == "+":
                    ts.append(_t(s, B, lab, s, (B, "N"), 0))
                    ts.append(_t(s, "N", lab, s, ("N", "N"), 0))
                else:
                    ts.append(_t(s, "N", lab, s, (), 0))
                    ts.append(_t(s, B, lab, s, (B,), 1))
                ts.append(_t(s, B, lab, other, (B,), 1))
                ts.append(_t(s, "N", lab, other, ("N",), 1))
    return _pda(["1", "2"], letters, ["N"], "1", ts)


_DELTA = {"0": 0, "+": 1, "-": -1}


def _components(letter: str) -> tuple[str, str]:
    x, y = letter[1:-1].split(",")
    return x, y


class LssResolver(Resolver):
    """Track the component whose safe suffix starts earliest (ties favor 1).

    A suffix is safe while its energy stays nonnegative, so min S_i is the
    first position where component i's prefix energy reaches its minimum (the
    current length when no suffix is safe).  The state is the length plus,
    per component, ``(level, low, at)``: the prefix energy, its minimum so
    far and the first position attaining it.
    """

    def __init__(self, pda: OmegaPDA):
        self.pda = pda
        # Each letter's energy deltas, one per component.
        self._deltas = {a: tuple(_DELTA[c] for c in _components(a)) for a in pda.input_alphabet}
        # The first transition per (source, top, letter, target): reversed, the first wins.
        self._index = {(t.source, t.top, t.label, t.target): t for t in reversed(pda.transitions)}

    def start(self):
        return (0, (0, 0, 0), (0, 0, 0))

    def _advance(self, state, letter):
        n, (level1, low1, at1), (level2, low2, at2) = state
        delta1, delta2 = self._deltas[letter]
        level1 += delta1
        level2 += delta2
        return (n + 1, (level1, low1, at1) if level1 >= low1 else (level1, level1, n + 1),
                (level2, low2, at2) if level2 >= low2 else (level2, level2, n + 1))

    def feed(self, state, t):  # lss and its union products have no epsilon transition
        return self._advance(state, t.label)

    def pick(self, state, config, letter):
        # Each component's ``at`` after the letter; ``feed`` advances the state.
        n, (level1, low1, at1), (level2, low2, at2) = state
        delta1, delta2 = self._deltas[letter]
        min1 = at1 if level1 + delta1 >= low1 else n + 1
        min2 = at2 if level2 + delta2 >= low2 else n + 1
        try:
            return self._index[(config.state, config.top, letter, "1" if min1 <= min2 else "2")]
        except KeyError:  # pragma: no cover
            raise AssertionError("lss automaton is total per letter") from None

    def key(self, state, w):
        """Per component level - low, and the sign of at1 - at2, which with
        the letters fix every pick.  Where the loop's energy delta d is > 0,
        level - low is capped at |loop| + 1: above |loop| at a loop position,
        the next |loop| letters set no new low and add d, so no new low is
        ever set, whatever the value.  Where d <= 0 it stays exact and takes
        finitely many values per position; a cap there is unsound, as the
        capped value can repeat while the level falls to a new low."""
        _, (level1, low1, at1), (level2, low2, at2) = state
        d1, d2 = loop_energy_deltas(w)
        cap = len(w.loop) + 1
        e1, e2 = level1 - low1, level2 - low2
        return (min(e1, cap) if d1 > 0 else e1, min(e2, cap) if d2 > 0 else e2,
                (at1 > at2) - (at1 < at2))


@functools.lru_cache(maxsize=1024)  # key asks at every step of a guided run
def loop_energy_deltas(w: LassoWord) -> tuple[int, int]:
    d1 = d2 = 0
    for letter in w.loop:
        x, y = _components(letter)
        d1 += _DELTA[x]
        d2 += _DELTA[y]
    return d1, d2


def _in_lss(w: LassoWord) -> bool:
    # Safe suffix in component i iff prefix energy levels are bounded below,
    # i.e. the loop's energy delta is nonnegative.
    return max(loop_energy_deltas(w)) >= 0


def lss() -> Fixture:
    pda = _lss_pda()
    words = [
        LassoWord((), (pair_id("+", "0"), pair_id("+", "-"))),
        LassoWord((), (pair_id("-", "-"),)),
        LassoWord((pair_id("-", "0"),), (pair_id("+", "+"),)),
    ]
    sampler = _lasso_sampler(
        words, lambda rng: pair_id(rng.choice(I_LETTERS), rng.choice(I_LETTERS)), 3, 4, _in_lss)
    return Fixture("lss", pda, sampler, resolver=LssResolver(pda))


X1 = (pair_id("+", "0"), pair_id("+", "-"))
X2 = (pair_id("0", "+"), pair_id("-", "+"))


def w_ss_bar_prefix(k: int) -> tuple[str, ...]:
    """First k segments of x1 (x2)^3 (x1)^7 (x2)^15 ...; not a lasso."""
    out: tuple[str, ...] = ()
    for j in range(1, k + 1):
        seg = X1 if j % 2 == 1 else X2
        out += seg * (2**j - 1)
    return out


def prefix_energy_level(word, component: int) -> int:
    level = 0
    for letter in word:
        level += _DELTA[_components(letter)[component - 1]]
    return level


# ---------------------------------------------------------------------------
# twopump: (a#)^n (b#)^n #^w  u  (a#)^n (b#)^2n #^w  (guess-and-verify).
# ---------------------------------------------------------------------------


def _twopump_pda() -> OmegaPDA:
    B = BOTTOM
    ts = [
        _t("s0", B, "a", "ra#", (B, "N"), 1),
        _t("ra#", "N", "#", "ra", ("N",), 1),
        _t("ra", "N", "a", "ra#", ("N", "N"), 1),
        _t("ra", "N", "b", "b1h", (), 1),          # branch 1: pop every b
        _t("ra", "N", "b", "b2kh", ("N",), 1),     # branch 2: pop every other b
        _t("b1h", "N", "#", "b1b", ("N",), 1),
        _t("b1h", B, "#", "b1b", (B,), 1),
        _t("b1b", "N", "b", "b1h", (), 1),
        _t("b1b", B, "#", "tail", (B,), 1),
        _t("b2kh", "N", "#", "b2p", ("N",), 1),
        _t("b2p", "N", "b", "b2ph", (), 1),
        _t("b2ph", "N", "#", "b2k", ("N",), 1),
        _t("b2ph", B, "#", "b2k", (B,), 1),
        _t("b2k", "N", "b", "b2kh", ("N",), 1),
        _t("b2k", B, "#", "tail", (B,), 1),
        _t("tail", B, "#", "tail", (B,), 2),
    ]
    return _pda(
        ["s0", "ra#", "ra", "b1h", "b1b", "b2kh", "b2p", "b2ph", "b2k", "tail"],
        ["a", "b", "#"], ["N"], "s0", ts,
    )


def _in_twopump(w: LassoWord) -> bool:
    if set(w.loop) != {"#"}:
        return False
    core = "".join(w.prefix).rstrip("#")
    # core must be (a#)^n (b#)^m with the final # allowed to be eaten by the tail
    if core and not core.endswith("#"):
        core += "#"
    n = m = 0
    i = 0
    while core[i : i + 2] == "a#":
        n, i = n + 1, i + 2
    while core[i : i + 2] == "b#":
        m, i = m + 1, i + 2
    if i != len(core):
        return False
    return n >= 1 and (m == n or m == 2 * n)


def two_pump() -> Fixture:
    pda = _twopump_pda()

    def sampler(seed: int, count: int) -> Sample:
        rng = random.Random(seed)
        words = [
            LassoWord(tuple("a#b#"), ("#",)),
            LassoWord(tuple("a#b#b#"), ("#",)),
            LassoWord(tuple("a#b#b#b#"), ("#",)),
        ]
        while len(words) < count:
            n = rng.randint(1, 3)
            m = rng.choice([n, 2 * n, n + 1, 0, 3 * n])
            words.append(LassoWord(tuple("a#" * n + "b#" * m), ("#",)))
            if rng.random() < 0.25:
                words.append(LassoWord(tuple("a#b"), ("#", "b")))
        return [(w, _in_twopump(w)) for w in words]

    return Fixture("twopump", pda, sampler)


# ---------------------------------------------------------------------------
# parity_language(n): words over {1..n} whose maximal recurring letter is even.
# ---------------------------------------------------------------------------


def parity_language(n: int) -> Fixture:
    B = BOTTOM
    letters = [str(p) for p in range(1, n + 1)]
    ts = [_t("s", B, p, "s", (B,), int(p)) for p in letters]
    pda = _pda(["s"], letters, [], "s", ts)
    sampler = _lasso_sampler(
        [LassoWord((), (letters[-1],)), LassoWord((), tuple(letters))],
        lambda rng: rng.choice(letters), 3, 4, lambda w: max(int(p) for p in w.loop) % 2 == 0)
    return Fixture(f"parity{n}", pda, sampler)


# ---------------------------------------------------------------------------
# repbdd: push on +, pop on -, accept iff some value recurs forever.
# Nondeterministically mark the level claimed to recur (M), or claim the
# bottom level (qb); losing the mark downwards costs an odd color.
# ---------------------------------------------------------------------------


def _repbdd_pda() -> OmegaPDA:
    B = BOTTOM
    ts = [
        _t("qfree", B, "+", "qfree", (B, "N"), 1),
        _t("qfree", "N", "+", "qfree", ("N", "N"), 1),
        _t("qfree", "N", "-", "qfree", (), 1),
        _t("qfree", B, "-", "qfree", (B,), 1),
        _t("qfree", B, "+", "qm", (B, "M"), 1),
        _t("qfree", "N", "+", "qm", ("N", "M"), 1),
        _t("qfree", B, "+", "qb", (B, "N"), 2),
        _t("qfree", "N", "+", "qb", ("N", "N"), 1),
        _t("qfree", "N", "-", "qb", (), 1),
        _t("qfree", B, "-", "qb", (B,), 2),
        _t("qm", "M", "+", "qm", ("M", "N"), 2),
        _t("qm", "M", "-", "qp", (), 2),
        _t("qm", "N", "+", "qm", ("N", "N"), 1),
        _t("qm", "N", "-", "qm", (), 1),
        _t("qp", "N", "+", "qm", ("N", "M"), 1),
        _t("qp", B, "+", "qm", (B, "M"), 1),
        _t("qp", "N", "-", "qfree", (), 3),
        _t("qp", B, "-", "qb", (B,), 2),
        _t("qb", B, "+", "qb", (B, "N"), 2),
        _t("qb", B, "-", "qb", (B,), 2),
        _t("qb", "N", "+", "qb", ("N", "N"), 1),
        _t("qb", "N", "-", "qb", (), 1),
    ]
    return _pda(["qfree", "qm", "qp", "qb"], ["+", "-"], ["N", "M"], "qfree", ts)


def _in_repbdd(w: LassoWord) -> bool:
    # Some value recurs infinitely often iff values do not diverge, i.e. the
    # un-floored delta of the loop is nonpositive.
    return sum(1 if c == "+" else -1 for c in w.loop) <= 0


def repbdd() -> Fixture:
    words = [
        LassoWord((), ("+", "-")),
        LassoWord((), ("+",)),
        LassoWord(("-",), ("-",)),
        LassoWord(("+",), ("+", "+", "-")),
    ]
    sampler = _lasso_sampler(words, lambda rng: rng.choice("+-"), 4, 5, _in_repbdd)
    return Fixture("repbdd", _repbdd_pda(), sampler, partition=(("+",), ("-",), ()))


# ---------------------------------------------------------------------------
# palindrome: v #^w with h(v) an even-length palindrome (h erases #).
# ---------------------------------------------------------------------------


def _palindrome_pda() -> OmegaPDA:
    B = BOTTOM
    sym = {"0": "Z", "1": "O"}
    ts = []
    for x in (B, "Z", "O"):
        for letter in ("0", "1"):
            ts.append(_t("p", x, letter, "p", (x, sym[letter]), 1))
        ts.append(_t("p", x, "#", "p", (x,), 1))
        ts.append(_t("p", x, None, "m", (x,), 1))
        ts.append(_t("m", x, "#", "m", (x,), 1))
    ts.append(_t("m", "Z", "0", "m", (), 1))
    ts.append(_t("m", "O", "1", "m", (), 1))
    ts.append(_t("m", B, None, "t", (B,), 1))
    ts.append(_t("t", B, "#", "t", (B,), 2))
    return _pda(["p", "m", "t"], ["0", "1", "#"], ["Z", "O"], "p", ts)


def _in_palindrome(w: LassoWord) -> bool:
    if set(w.loop) != {"#"}:
        return False
    v = "".join(c for c in w.prefix if c != "#")
    return len(v) % 2 == 0 and v == v[::-1]


def palindrome() -> Fixture:
    pda = _palindrome_pda()

    def sampler(seed: int, count: int) -> Sample:
        rng = random.Random(seed)
        words = [
            LassoWord(tuple("0110"), ("#",)),
            LassoWord(tuple("01#10"), ("#",)),
            LassoWord(tuple("010"), ("#",)),
            LassoWord((), ("#",)),
        ]
        while len(words) < count:
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            good = x + x[::-1]
            if rng.random() < 0.5:
                body = good
            else:
                body = good + rng.choice("01")
            body_chars = list(body)
            if rng.random() < 0.4 and body_chars:
                body_chars.insert(rng.randrange(len(body_chars)), "#")
            words.append(LassoWord(tuple(body_chars), ("#",)))
        return [(w, _in_palindrome(w)) for w in words]

    return Fixture("palindrome", pda, sampler)


# ---------------------------------------------------------------------------
# Non-closure witness languages (deterministic membership corpora):
#   ncw1 = a^n b^n a^* b^w,  ncw2 = a^* b^n a^n b^w   (n >= 1).
# ---------------------------------------------------------------------------


def _blocks(word: str) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for c in word:
        if out and out[-1][0] == c:
            out[-1] = (c, out[-1][1] + 1)
        else:
            out.append((c, 1))
    return out


def _in_ncw1(w: LassoWord) -> bool:
    if set(w.loop) != {"b"}:
        return False
    blocks = _blocks("".join(w.prefix).rstrip("b"))
    if len(blocks) == 1:
        return blocks[0][0] == "a" and blocks[0][1] >= 1
    if len(blocks) == 2:
        return blocks[0][0] == "a" and blocks[1] == ("b", blocks[0][1])
    if len(blocks) == 3:
        return (
            blocks[0][0] == "a"
            and blocks[1] == ("b", blocks[0][1])
            and blocks[2][0] == "a"
        )
    return False


def _in_ncw2(w: LassoWord) -> bool:
    if set(w.loop) != {"b"}:
        return False
    blocks = _blocks("".join(w.prefix).rstrip("b"))
    if blocks and blocks[0][0] == "a":
        blocks = blocks[1:]
    return len(blocks) == 2 and blocks[0][0] == "b" and blocks[1] == ("a", blocks[0][1])


def _ncw1_pda() -> OmegaPDA:
    B = BOTTOM
    ts = [
        _t("rA", B, "a", "rA", (B, "N"), 1),
        _t("rA", "N", "a", "rA", ("N", "N"), 1),
        _t("rA", "N", "b", "rB", (), 1),
        _t("rB", "N", "b", "rB", (), 1),
        _t("rB", B, "a", "rA2", (B,), 1),
        _t("rB", B, "b", "rBw", (B,), 1),
        _t("rA2", B, "a", "rA2", (B,), 1),
        _t("rA2", B, "b", "rBw", (B,), 1),
        _t("rBw", B, "b", "rBw", (B,), 2),
    ]
    return _pda(["rA", "rB", "rA2", "rBw"], ["a", "b"], ["N"], "rA", ts)


def _ncw2_pda() -> OmegaPDA:
    B = BOTTOM
    ts = [
        _t("rA0", B, "a", "rA0", (B,), 1),
        _t("rA0", B, "b", "rB", (B, "N"), 1),
        _t("rB", "N", "b", "rB", ("N", "N"), 1),
        _t("rB", "N", "a", "rA", (), 1),
        _t("rA", "N", "a", "rA", (), 1),
        _t("rA", B, "b", "rBw", (B,), 1),
        _t("rBw", B, "b", "rBw", (B,), 2),
    ]
    return _pda(["rA0", "rB", "rA", "rBw"], ["a", "b"], ["N"], "rA0", ts)


def _ncw_sampler(classify) -> Callable[[int, int], Sample]:
    def sampler(seed: int, count: int) -> Sample:
        rng = random.Random(seed)
        words = [
            LassoWord(tuple("ab"), ("b",)),
            LassoWord(tuple("ba"), ("b",)),
            LassoWord(tuple("aab"), ("b",)),
            LassoWord(tuple("abab"), ("b",)),
        ]
        while len(words) < count:
            n = rng.randint(1, 3)
            shape = rng.randrange(4)
            if shape == 0:
                u = "a" * n + "b" * rng.choice([n, n + 1])
            elif shape == 1:
                u = "a" * n + "b" * n + "a" * rng.randint(0, 2)
            elif shape == 2:
                u = "a" * rng.randint(0, 2) + "b" * n + "a" * rng.choice([n, n + 1])
            else:
                u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
            words.append(LassoWord(tuple(u), ("b",)))
        return [(w, classify(w)) for w in words]

    return sampler


def ncw1() -> Fixture:
    return Fixture("ncw1", _ncw1_pda(), _ncw_sampler(_in_ncw1))


def ncw2() -> Fixture:
    return Fixture("ncw2", _ncw2_pda(), _ncw_sampler(_in_ncw2))


# ---------------------------------------------------------------------------
# allodd: rejects everything (no even color anywhere).
# ---------------------------------------------------------------------------


def allodd() -> Fixture:
    B = BOTTOM
    pda = _pda(["s"], ["x"], [], "s", [_t("s", B, "x", "s", (B,), 1)])

    def sampler(seed: int, count: int) -> Sample:
        return [(LassoWord(("x",) * i, ("x",)), False) for i in range(max(count, 1))]

    return Fixture("allodd", pda, sampler)


ZOO: dict[str, Callable[[], Fixture]] = {
    "figure1": figure1,
    "example23": example23,
    "lss": lss,
    "twopump": two_pump,
    "parity2": lambda: parity_language(2),
    "parity3": lambda: parity_language(3),
    "repbdd": repbdd,
    "palindrome": palindrome,
    "ncw1": ncw1,
    "ncw2": ncw2,
    "allodd": allodd,
}


def get(name: str) -> Fixture:
    try:
        return ZOO[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(sorted(ZOO))}") from None


def all_fixtures() -> list[Fixture]:
    return [make() for make in ZOO.values()]
