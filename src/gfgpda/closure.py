"""Products with deterministic parity automata: intersection, union and set
difference with omega-regular languages, via a latest-appearance-record over
the pairs of colors produced by the two sides.

Epsilon transitions of the pushdown side freeze the DPA coordinate and feed
the DPA's minimal color as a sentinel, which cannot change the DPA-side
limit verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Configuration, FormatError, OmegaPDA, Transition, read_declarations
from .resolvers import Resolver, ResolverStuck

MODES = ("intersect", "union", "minus")


class AlphabetMismatch(ValueError):
    """The automaton and the DPA read different alphabets."""


@dataclass(frozen=True)
class DeterministicParityAutomaton:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    delta: dict[tuple[str, str], str]
    colors: dict[tuple[str, str], int]

    def validate(self) -> list[str]:
        out = []
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    out.append(f"delta({q}, {a}) missing")
                elif (q, a) not in self.colors:
                    out.append(f"color({q}, {a}) missing")
        if self.initial not in self.states:
            out.append(f"initial {self.initial!r} not declared")
        for (q, a), q2 in self.delta.items():
            for kind, x, known in (("state", q, self.states), ("letter", a, self.alphabet),
                                   ("state", q2, self.states)):
                if x not in known:
                    out.append(f"dtrans {q} {a} {q2}: {kind} {x!r} not declared")
        return out

    def min_color(self) -> int:
        return min(self.colors.values())


@dataclass(frozen=True)
class LARState:
    """Permutation of occurring (pda color, dpa color) pairs plus hit position."""

    permutation: tuple[tuple[int, int], ...]
    hit: int


def lar_update(lar: LARState, pair: tuple[int, int]) -> LARState:
    hit = lar.permutation.index(pair)
    perm = (pair,) + tuple(p for p in lar.permutation if p != pair)
    return LARState(perm, hit)


def muller_accepts(mode: str, limit_pairs: frozenset[tuple[int, int]]) -> bool:
    pda_ok = max(p for p, _ in limit_pairs) % 2 == 0
    dpa_ok = max(a for _, a in limit_pairs) % 2 == 0
    if mode == "intersect":
        return pda_ok and dpa_ok
    if mode == "union":
        return pda_ok or dpa_ok
    if mode == "minus":
        return pda_ok and not dpa_ok
    raise ValueError(f"unknown mode {mode!r}")


def lar_color(mode: str, lar: LARState) -> int:
    """Parity color of an update: even iff the recurring record set satisfies the mode."""
    record = frozenset(lar.permutation[: lar.hit + 1])
    return 2 * lar.hit + 2 if muller_accepts(mode, record) else 2 * lar.hit + 1


@dataclass(frozen=True)
class ProductInfo:
    base_of: dict[Transition, Transition]
    # (product state, base transition) -> product transition
    extend: dict[tuple[str, Transition], Transition]
    # product state -> base state
    base_state: dict[str, str]


def _completed(pda: OmegaPDA) -> OmegaPDA:
    """Add an odd-colored rejecting sink so that every word has a run.

    Leaves the language unchanged; needed for union products, where a word
    without any run of the pushdown side must still get the DPA's verdict.
    """
    sink = "sink!"
    while sink in pda.states:
        sink += "!"
    extra = []
    for q in pda.states + (sink,):
        for x in pda.gamma_bottom:
            for a in pda.input_alphabet:
                extra.append(Transition(q, x, a, sink, (x,), 1))
    return OmegaPDA(
        pda.states + (sink,), pda.input_alphabet, pda.stack_alphabet, pda.initial,
        pda.transitions + tuple(extra),
    )


def product_with_info(
    pda: OmegaPDA, dpa: DeterministicParityAutomaton, mode: str
) -> tuple[OmegaPDA, ProductInfo]:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if set(dpa.alphabet) != set(pda.input_alphabet):
        raise AlphabetMismatch(f"{dpa.alphabet} vs {pda.input_alphabet}")
    bad = dpa.validate()
    if bad:
        raise ValueError("; ".join(bad))
    if mode == "union":
        pda = _completed(pda)
    sentinel = dpa.min_color()

    # First pass: the (state, dpa state) pairs and color pairs that can occur.
    by_source: dict[str, list[Transition]] = {}
    for t in pda.transitions:
        by_source.setdefault(t.source, []).append(t)
    seen = {(pda.initial, dpa.initial)}
    queue = deque(seen)
    pair_colors: set[tuple[int, int]] = set()
    while queue:
        q, d = queue.popleft()
        for t in by_source.get(q, ()):
            if t.label is None:
                pair_colors.add((t.color, sentinel))
                nxt = (t.target, d)
            else:
                pair_colors.add((t.color, dpa.colors[(d, t.label)]))
                nxt = (t.target, dpa.delta[(d, t.label)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    # LAR records are interned: each distinct (record, color pair) move runs
    # lar_update and lar_color once.
    lar0 = LARState(tuple(sorted(pair_colors)), 0)
    lars = [lar0]
    lar_ids = {lar0: 0}
    moves: dict[tuple[int, tuple[int, int]], tuple[int, int]] = {}
    # A product state is (q, d, LAR id); it is named, and queued, when found.
    ids: dict[tuple[str, int], int] = {}
    names: dict[tuple[str, str, int], str] = {}
    base_state: dict[str, str] = {}
    queue: deque[tuple[str, str, int]] = deque()

    def name(s: tuple[str, str, int]) -> str:
        n = names.get(s)
        if n is None:
            # Injective: the number after the last "*" stands for (d, lar).
            n = names[s] = f"{s[0]}*{ids.setdefault(s[1:], len(ids))}"
            base_state[n] = s[0]
            queue.append(s)
        return n

    initial = name((pda.initial, dpa.initial, 0))
    transitions: list[Transition] = []
    base_of: dict[Transition, Transition] = {}
    extend: dict[tuple[str, Transition], Transition] = {}
    while queue:
        s = queue.popleft()
        q, d, i = s
        source = names[s]
        for t in by_source.get(q, ()):
            if t.label is None:
                pair = (t.color, sentinel)
                d2 = d
            else:
                pair = (t.color, dpa.colors[(d, t.label)])
                d2 = dpa.delta[(d, t.label)]
            move = moves.get((i, pair))
            if move is None:
                lar2 = lar_update(lars[i], pair)
                j = lar_ids.setdefault(lar2, len(lars))
                if j == len(lars):
                    lars.append(lar2)
                move = moves[(i, pair)] = (j, lar_color(mode, lar2))
            j, color = move
            pt = Transition(source, t.top, t.label, name((t.target, d2, j)), t.push, color)
            transitions.append(pt)
            base_of[pt] = t
            extend[(source, t)] = pt

    product_pda = OmegaPDA(
        tuple(names.values()),
        pda.input_alphabet,
        pda.stack_alphabet,
        initial,
        tuple(transitions),
    )
    return product_pda, ProductInfo(base_of, extend, base_state)


def product(pda: OmegaPDA, dpa: DeterministicParityAutomaton, mode: str) -> OmegaPDA:
    return product_with_info(pda, dpa, mode)[0]


class LiftedResolver(Resolver):
    """Resolver for a product, delegating all choices to the base resolver.

    Its state is the base resolver's state.  A product run and its base run
    have the same stacks, since product transitions copy ``top`` and
    ``push``, so the base configuration is read off the product one.
    """

    def __init__(self, base: Resolver, base_pda: OmegaPDA, info: ProductInfo):
        self.base = base
        self.base_pda = base_pda
        self.info = info

    def start(self):
        return self.base.start()

    def feed(self, state, t):
        return self.base.feed(state, self.info.base_of[t])

    def pick(self, state, config, letter):
        base_config = Configuration(self.info.base_state[config.state], config.stack)
        bt = self.base.pick(state, base_config, letter)
        try:
            return self.info.extend[(config.state, bt)]
        except KeyError:
            raise ResolverStuck(f"no product transition extends {bt} at {config}") from None

    def summary(self, state):
        # The DPA and LAR components are functions of the history, so the
        # base summary (when finite) still pins down the future.
        return self.base.summary(state)


def lift_resolver(base: Resolver, base_pda: OmegaPDA, info: ProductInfo) -> LiftedResolver:
    return LiftedResolver(base, base_pda, info)


# ---------------------------------------------------------------------------
# DPA text format (the PDA format minus stack fields; rules in
# ``core.read_declarations``):
#   dstate <id> / dinitial <id> / dletter <id> / dtrans <src> <letter> <dst> <color>
# ---------------------------------------------------------------------------


def format_dpa(dpa: DeterministicParityAutomaton) -> str:
    lines = [f"dstate {q}" for q in dpa.states]
    lines.append(f"dinitial {dpa.initial}")
    lines += [f"dletter {a}" for a in dpa.alphabet]
    for (q, a), q2 in sorted(dpa.delta.items()):
        lines.append(f"dtrans {q} {a} {q2} {dpa.colors[(q, a)]}")
    return "\n".join(lines) + "\n"


def parse_dpa(text: str) -> DeterministicParityAutomaton:
    states: list[str] = []
    alphabet: list[str] = []
    initial: list[str] = []
    delta: dict[tuple[str, str], str] = {}
    colors: dict[tuple[str, str], int] = {}

    def dtrans(q, a, q2, color):
        delta[(q, a)], colors[(q, a)] = q2, int(color)

    read_declarations(text, {"dstate": (1, states.append), "dinitial": (1, initial.append),
                             "dletter": (1, alphabet.append), "dtrans": (4, dtrans)})
    if not initial:
        raise FormatError("missing 'dinitial' declaration")
    dpa = DeterministicParityAutomaton(tuple(states), tuple(alphabet), initial[-1], delta, colors)
    bad = dpa.validate()
    if bad:
        raise FormatError("; ".join(bad))
    return dpa
