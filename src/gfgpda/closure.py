"""Products with deterministic parity automata: intersection, union and set
difference with omega-regular languages.  The Muller condition on the color
pairs of the two sides becomes parity through the memory of its Zielonka tree,
one state per leaf, which is minimal (Casares, Colcombet and Fijalkow, 2021).

Epsilon transitions of the pushdown side freeze the DPA coordinate and feed
the DPA's minimal color as a sentinel, which cannot change the DPA-side
limit verdict.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional

from .core import (Configuration, FormatError, OmegaPDA, Record, TokenValues, Transition,
                   explore, read_declarations)
from .resolvers import Resolver, ResolverStuck

MODES = ("intersect", "union", "minus")


class AlphabetMismatch(ValueError):
    """The automaton and the DPA read different alphabets."""


class DeterministicParityAutomaton(Record):
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
        states, letters = set(self.states), set(self.alphabet)
        for (q, a), q2 in self.delta.items():
            for kind, x, known in (("state", q, states), ("letter", a, letters),
                                   ("state", q2, states)):
                if x not in known:
                    out.append(f"dtrans {q} {a} {q2}: {kind} {x!r} not declared")
        return out


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


def zielonka_tree(mode: str, pairs: Iterable[tuple[int, int]]) -> tuple[int, Callable]:
    """The Zielonka tree of ``muller_accepts(mode, .)`` over ``pairs`` as a parity
    memory: its leaf count and ``move(leaf, pair) -> (leaf, color)``; leaves are
    numbered left to right, 0 is the initial one.  A verdict depends only on the
    max PDA and DPA colors, so the children of ``S`` are the maximal sets
    ``{(a, b) in S : a <= x, b <= y}`` with the other verdict.  A pair read at a
    leaf climbs to the deepest node ``n`` holding it and goes to the leftmost leaf
    of the sibling cyclically after the child it came from; the color is even iff
    ``n`` accepts and falls with the depth of ``n``."""
    nodes: list[tuple] = []  # (set, accepts, depth, parent, children, leftmost leaf)
    leaves: list[int] = []

    def grow(s: frozenset, depth: int, parent: int) -> None:
        n, ok, kids = len(nodes), bool(s) and muller_accepts(mode, s), []
        nodes.append((s, ok, depth, parent, kids, len(leaves)))
        cuts = {frozenset(p for p in s if p[0] <= x and p[1] <= y): None
                for x in sorted({a for a, _ in s}) for y in sorted({b for _, b in s})}
        other = [c for c in cuts if c and muller_accepts(mode, c) != ok]
        for c in other:
            if not any(c < o for o in other):
                kids.append(len(nodes))
                grow(c, depth + 1, n)
        if not kids:
            leaves.append(n)

    grow(frozenset(pairs), 0, -1)
    height = max(node[2] for node in nodes)

    @functools.cache
    def move(leaf: int, pair: tuple[int, int]) -> tuple[int, int]:
        n, below = leaves[leaf], -1
        while pair not in nodes[n][0]:
            n, below = nodes[n][3], n
        _, ok, depth, _, kids, _ = nodes[n]
        color = 2 * (height - depth) + (0 if ok else 1)
        if below < 0:
            return leaf, color
        return nodes[kids[(kids.index(below) + 1) % len(kids)]][5], color

    return len(leaves), move


class ProductInfo(Record):
    base_of: dict[Transition, Transition]
    # (product state, base transition) -> product transition
    extend: dict[tuple[str, Transition], Transition]
    # product state -> base state
    base_state: dict[str, str]


def _completed(pda: OmegaPDA) -> OmegaPDA:
    """Add an odd-colored rejecting sink, so that a word without a run of the
    pushdown side still gets the DPA's verdict in a union product."""
    sink = "sink!"
    while sink in pda.states:
        sink += "!"
    extra = tuple(Transition(q, x, a, sink, (x,), 1) for q in pda.states + (sink,)
                  for x in pda.gamma_bottom for a in pda.input_alphabet)
    return OmegaPDA(pda.states + (sink,), pda.input_alphabet, pda.stack_alphabet, pda.initial,
                    pda.transitions + extra)


def product_with_info(
    pda: OmegaPDA, dpa: DeterministicParityAutomaton, mode: str,
    budget: Optional[int] = None,
) -> tuple[OmegaPDA, ProductInfo]:
    """The product and its map to ``pda``, built by ``core.explore``; over
    ``budget`` states raise ``ResourceExceeded``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if set(dpa.alphabet) != set(pda.input_alphabet):
        raise AlphabetMismatch(f"{dpa.alphabet} vs {pda.input_alphabet}")
    if bad := dpa.validate():
        raise ValueError("; ".join(bad))
    if mode == "union":
        pda = _completed(pda)
    sentinel = min(dpa.colors.values())

    def read(d: str, t: Transition) -> tuple[tuple[int, int], str]:  # pair, next DPA state
        if t.label is None:
            return (t.color, sentinel), d
        return (t.color, dpa.colors[(d, t.label)]), dpa.delta[(d, t.label)]

    by_source: dict[str, list[Transition]] = {}
    for t in pda.transitions:
        by_source.setdefault(t.source, []).append(t)

    def pairs(order):  # first pass: the color pairs of the (state, DPA state) graph
        for u, (q, d) in enumerate(order):
            for t in by_source.get(q, ()):
                pair, d2 = read(d, t)
                yield u, 0, (t.target, d2), pair

    # The memory is a leaf of the Zielonka tree over the occurring pairs;
    # each distinct (leaf, color pair) move is computed once.
    move = zielonka_tree(mode, set(explore((pda.initial, dpa.initial), pairs)[2]))[1]

    def expand(order):
        for u, (q, d, i) in enumerate(order):
            for t in by_source.get(q, ()):
                pair, d2 = read(d, t)
                j, color = move(i, pair)
                yield u, color, (t.target, d2, j), t

    # A product state (q, d, leaf) is named "q*k", where k numbers (d, leaf) in
    # discovery order: the number after the last "*" makes the names injective.
    order, edges, base = explore((pda.initial, dpa.initial, 0), expand, budget)
    ids: dict[tuple[str, int], int] = {}
    names = [f"{q}*{ids.setdefault((d, i), len(ids))}" for q, d, i in order]
    transitions = [Transition(names[u], t.top, t.label, names[v], t.push, c)
                   for (u, c, v), t in zip(edges, base)]
    product_pda = OmegaPDA(tuple(names), pda.input_alphabet, pda.stack_alphabet, names[0],
                           tuple(transitions))
    extend = {(pt.source, t): pt for pt, t in zip(transitions, base)}
    base_state = {n: q for n, (q, _, _) in zip(names, order)}
    return product_pda, ProductInfo(dict(zip(transitions, base)), extend, base_state)


def product(
    pda: OmegaPDA, dpa: DeterministicParityAutomaton, mode: str, budget: Optional[int] = None
) -> OmegaPDA:
    return product_with_info(pda, dpa, mode, budget)[0]


class LiftedResolver(Resolver):
    """Resolver for a product, delegating all choices to the base resolver.

    Its state and key are the base resolver's: the DPA and tree components
    are functions of the history.  A product run and its base run have the
    same stacks, since product transitions copy ``top`` and ``push``, so
    the base configuration is read off the product one, and
    ``lift_resolver`` reads no base automaton.
    """

    def __init__(self, base: Resolver, info: ProductInfo):
        self.base = base
        self.info = info

    def start(self):
        return self.base.start()

    def feed(self, state, t):
        return self.base.feed(state, self.info.base_of[t])

    def pick(self, state, config, letter):
        base_config = Configuration(self.info.base_state[config.state], config.frame)
        bt = self.base.pick(state, base_config, letter)
        try:
            return self.info.extend[(config.state, bt)]
        except KeyError:
            raise ResolverStuck(f"no product transition extends {bt} at {config}") from None

    def key(self, state, w):
        return self.base.key(state, w)


def lift_resolver(base: Resolver, base_pda: OmegaPDA, info: ProductInfo) -> LiftedResolver:
    return LiftedResolver(base, info)


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
    states: list[str] = []  # the declaration lines' tokens: keyword, name, keyword, ...
    alphabet: list[str] = []
    initial: list[str] = []
    delta: dict[tuple[str, str], str] = {}
    colors: dict[tuple[str, str], int] = {}
    values = TokenValues("color", int, str)

    def dtrans(tokens):
        _, q, a, q2, color = tokens
        delta[(q, a)], colors[(q, a)] = q2, values[color]

    read_declarations(text, {"dstate": (2, states.extend), "dinitial": (2, initial.extend),
                             "dletter": (2, alphabet.extend), "dtrans": (5, dtrans)})
    if not initial:
        raise FormatError("missing 'dinitial' declaration")
    dpa = DeterministicParityAutomaton(tuple(states[1::2]), tuple(alphabet[1::2]), initial[-1],
                                       delta, colors)
    if bad := dpa.validate():
        raise FormatError("; ".join(bad))
    return dpa
