"""Regular configuration sets, saturation, parity emptiness, lasso membership.

Regular configuration sets are P-automata (Bouajjani, Esparza & Maler,
CONCUR'97): the control states are the initial states, and ``(q, stack)`` is
accepted when ``q`` reads the stack top first into a final state.  One
worklist saturation (Esparza, Hansel, Rossmanith & Schwoon, CAV 2000) adds
edges between existing states only: the pop summaries of its rules, where
pre* reads the target's edges as pop rules.  Each fact records the max
color along its run and whether the run reads a letter.
Saturation and the summary read rule tuples ``(source, top, letter_bit,
target, push, color, tag)``: an automaton's transitions, each its own tag,
so witnesses expand to transitions.

Emptiness rests on one summary per automaton, which does not depend on the
start configuration (Bouajjani, Esparza & Maler, CONCUR'97): pop summaries
from one saturation and one head adjacency between heads ``(q, X)``, built
from the rules and the pop facts.  For each even color ``d`` the
color-``<= d`` head graph is that adjacency cut to max color ``<= d``.  A
head is *good* for ``d`` when its SCC has an internal color-``d`` edge and
an internal letter edge, i.e. it can pump: an abstract run from stack
``[X]`` back to state ``q`` with top ``X`` again, never dipping below the
start level, using only colors ``<= d``.  The letter edge makes
epsilon-only loops non-accepting directly, so no color normalization pass
is needed and witnesses replay on the input unchanged.

``parity_nonempty`` searches forward from the start: the heads it reaches
with their stems, Tarjan on them for each even color in ascending order,
and a stop at the lowest color with a good head.  ``lasso_membership`` runs
the same layers on the heads of the lasso product reached from the start,
found by one head-driven pass, ``_lasso_heads``, that saturates only them
and keeps no derivations, since a verdict needs no witness; the rule-driven
``_saturate`` serves the rest (each measured slower at the other's job).
``accepts_tail_of`` needs every accepting head at once: one backward search
over all heads, seeded at the good heads of every color.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Optional, Union

from .core import (
    BOTTOM,
    Configuration,
    LassoWord,
    OmegaPDA,
    Record,
    Transition,
    replay,
    step,
)

UNKNOWN = "unknown"


class PAutomaton(Record):
    """NFA over ``Gamma_bottom`` whose control states are its initial states.

    A configuration ``(q, stack)`` is accepted iff ``q`` reads the stack top
    first, ending in ``BOTTOM``, into a final state.  States that are not
    control states have names starting with ``.``, which no identifier of an
    automaton may contain.
    """

    finals: frozenset[str]
    edges: frozenset[tuple[str, str, str]]

    @cached_property
    def by_source_symbol(self) -> dict[tuple[str, str], tuple[str, ...]]:
        index: dict[tuple[str, str], list[str]] = {}
        for s, sym, t in self.edges:
            index.setdefault((s, sym), []).append(t)
        return {k: tuple(v) for k, v in index.items()}

    def accepts(self, config: Configuration) -> bool:
        frontier, f = {config.state}, config.frame
        while f is not None:
            frontier = {t for s in frontier for t in self.by_source_symbol.get((s, f.symbol), ())}
            f = f.below
        return bool(frontier & self.finals)

    def nonempty(self) -> bool:
        """Is some configuration accepted, i.e. does a control state reach a final?"""
        pred: dict[str, list[str]] = {}
        for s, _sym, t in self.edges:
            pred.setdefault(t, []).append(s)
        seen = set(self.finals)
        work = list(seen)
        while work:
            for s in pred.get(work.pop(), ()):
                if not s.startswith("."):
                    return True
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return False

    def bottom_first(self) -> tuple[str, str, frozenset[tuple[str, str, str]]]:
        """``(initial, final, edges)`` of an NFA over words ``stack + (state,)``.

        The edges reversed, a fresh initial state entering where a final was
        left, and ``q -q-> final`` out of each control state ``q``.
        """
        edges = {(t, sym, s) for s, sym, t in self.edges}
        edges |= {(".i", sym, s) for s, sym, t in self.edges if t in self.finals}
        edges |= {(s, s, ".end") for s, _sym, _t in self.edges if not s.startswith(".")}
        return ".i", ".end", frozenset(edges)


class EmptinessWitness(Record):
    """Finite certificate: replaying ``stem`` then ``loop`` forever is accepting."""

    stem: tuple[Transition, ...]
    loop: tuple[Transition, ...]
    loop_start: Configuration


def _pa_of_heads(pda: OmegaPDA, heads: Iterable[tuple[str, str]]) -> PAutomaton:
    """Accepts the configurations whose head ``(state, top)`` is in ``heads``."""
    edges = {(q, x, ".f" if x == BOTTOM else ".m") for q, x in heads}
    edges |= {(".m", x, ".m") for x in pda.stack_alphabet}
    edges.add((".m", BOTTOM, ".f"))
    return PAutomaton(frozenset({".f"}), frozenset(edges))


def _rules(transitions: Iterable[Transition]) -> list[tuple]:
    """The rule tuples of ``transitions``, each tagged with its transition."""
    return [(t.source, t.top, int(t.label is not None), t.target, t.push, t.color, t)
            for t in transitions]


def _saturate(rules: Iterable[tuple]) -> tuple[dict, dict]:
    """Saturated facts ``p -X-> r``: each mapped to its derivation, and indexed.

    Esparza, Hansel, Rossmanith & Schwoon (CAV 2000): a pop
    ``(p, X) -> (r, eps)`` is a fact outright; a swap ``(p, X) -> (q, Y)``
    and a fact ``q -Y-> r`` give ``p -X-> r``; a push
    ``(p, X) -> (q, Y Z)`` and a fact ``q -Z-> s`` give the derived swap
    ``(p, X) -> (s, Y)``.  Each fact leaves the worklist once and fires the
    swaps reading it; a new derived swap is joined at once with the facts
    already out.  The facts are the pop summaries ``(p, X) =>* (r, eps)``.
    A rule ``(p, X, l, q, push, c, tag)`` reads a letter iff ``l`` is 1.

    A fact is keyed ``(p, X, r, c, l)``: ``c`` is the max color along its
    run and ``l`` is 1 if the run reads a letter.  So one fact set serves
    every color bound: the facts with ``c <= d`` are those of the rules of
    color ``<= d``.  A derivation is the tuple of its parts in run order:
    rule tags, then the keys of earlier facts.  The index maps ``(p, X)`` to
    ``[(r, c, l, key)]`` in worklist order.
    """
    defs: dict = {}
    swaps: dict[tuple, list] = {}  # (q, Y) -> [(p, X, c, l, parts)]
    pushes: dict[tuple, list] = {}  # (q, Z) -> [push rule (p, X) -> (q, Y Z)]
    out: dict[tuple, list] = {}  # (q, Y) -> [(r, c, l, key)] already fired
    for rule in rules:
        p, x, l, q, push, c, tag = rule
        if not push:
            defs.setdefault((p, x, q, c, l), (tag,))
        elif len(push) == 1:
            swaps.setdefault((q, push[0]), []).append((p, x, c, l, (tag,)))
        else:
            pushes.setdefault((q, push[1]), []).append(rule)
    work = deque(defs)
    while work:
        key = work.popleft()
        q, y, r, c, l = key
        out.setdefault((q, y), []).append((r, c, l, key))
        for p, x, c0, l0, parts in swaps.get((q, y), ()):
            new = (p, x, r, c0 if c0 > c else c, l0 | l)
            if new not in defs:
                defs[new] = parts + (key,)
                work.append(new)
        for p, x, l0, _, push, c0, tag in pushes.get((q, y), ()):
            c0, l0 = c0 if c0 > c else c, l0 | l
            swaps.setdefault((r, push[0]), []).append((p, x, c0, l0, (tag, key)))
            for r2, c2, l2, key2 in out.get((r, push[0]), ()):
                new = (p, x, r2, c0 if c0 > c2 else c2, l0 | l2)
                if new not in defs:
                    defs[new] = (tag, key, key2)
                    work.append(new)
    return defs, out


def saturate_pre_star(pda: OmegaPDA, target: PAutomaton) -> PAutomaton:
    """pre* of ``target``: ``_saturate`` of the transitions and of each target
    edge ``p -X-> r`` as a pop of color -1, keys cut to ``(p, X, r)``.

    Every added edge leaves a control state and ends in a control state or
    a state of ``target``, so no state is added.  Precondition: an edge of
    ``target`` into a control state ``r`` must be a pop fact, ``p -X-> r``
    only if ``(p, X) =>* (r, eps)`` (as in a saturated automaton, so
    saturating again is a fixpoint).
    """
    pops = [(p, x, 0, r, (), -1, None) for p, x, r in target.edges]
    facts, _ = _saturate(_rules(pda.transitions) + pops)
    return PAutomaton(target.finals, frozenset(key[:3] for key in facts))


# ---------------------------------------------------------------------------
# The emptiness summary: pop summaries, head adjacency, forward search.
# ---------------------------------------------------------------------------


def _tarjan_sccs(nodes: Iterable, adj: dict, d: int) -> dict:
    """Iterative Tarjan on moves of color ``<= d``; node -> its SCC's root node."""
    index: dict = {}
    low: dict = {}
    scc_of: dict = {}
    stack: list = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        call = [(root, iter(adj.get(root, ())))]
        while call:
            v, it = call[-1]
            for w, c, _l, _parts in it:
                if c > d:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    call.append((w, iter(adj.get(w, ()))))
                    break
                if w not in scc_of and index[w] < low[v]:  # visited, unfinished: on the stack
                    low[v] = index[w]
            else:
                call.pop()
                if call and low[v] < low[call[-1][0]]:
                    low[call[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        scc_of[w] = v
                        if w == v:
                            break
    return scc_of


def _layers(heads: Iterable, adj: dict, evens: Iterable[int]):
    """``(d, scc_of, pumping)`` per even color ``d`` of ``evens``, ascending:
    SCCs of ``heads``, a set closed under the moves of ``adj``, and the roots
    of those whose heads are *good*: with internal color-``d`` and letter edges."""
    for d in evens:
        scc_of = _tarjan_sccs(heads, adj, d)
        with_d, with_letter = set(), set()
        for v in heads:
            scc = scc_of[v]
            for w, c, l, _parts in adj.get(v, ()):
                if c <= d and scc_of[w] is scc:
                    if c == d:
                        with_d.add(scc)
                    if l:
                        with_letter.add(scc)
        yield d, scc_of, with_d & with_letter


def _search(heads: Iterable, adj: dict, evens: Iterable[int]) -> Optional[tuple[int, dict, set]]:
    """The first layer of ``heads``, a set closed under moves, with a good head."""
    return next((layer for layer in _layers(heads, adj, evens) if layer[2]), None)


class _Summary:
    """Start-independent emptiness summary of a list of rule tuples.

    One ``_saturate`` gives the pop facts ``defs`` with their derivations
    and ``by_head``, ``(p, X) -> [(r, c, l, key)]`` in worklist order; one
    head adjacency, built with them in rule order, maps a head to its moves
    ``(dst, c, l, parts)``: abstract run infixes that never dip below the
    head's level, to the head a rule pushes on top and, for a push of two
    symbols, to each head exposed once that top is popped; ``c`` is the max
    color, ``l`` the letter bit, and ``parts`` expand to the infix.  Each
    even color's head graph is the adjacency cut to ``c <= d``.
    """

    def __init__(self, rules: list):
        self.rules = rules
        self.defs, self.by_head = _saturate(rules)
        self.adj = adj = {}
        for p, x, l, q, push, c, tag in rules:
            if not push:
                continue
            moves = adj.setdefault((p, x), [])
            moves.append(((q, push[-1]), c, l, (tag,)))
            if len(push) == 2:
                for r, c2, l2, key in self.by_head.get((q, push[1]), ()):
                    moves.append(((r, push[0]), c if c > c2 else c2, l | l2, (tag, key)))
        self.evens = sorted({rule[5] for rule in rules if rule[5] % 2 == 0})

    def expand(self, *parts) -> tuple:
        """Rule tags and fact keys (the tuples among ``parts``), as one tag sequence."""
        out: list = []
        stack = list(reversed(parts))
        while stack:
            part = stack.pop()
            if type(part) is tuple:
                stack.extend(reversed(self.defs[part]))
            else:
                out.append(part)
        return tuple(out)

    def heads_from(self, start: Configuration) -> dict:
        """Heads reachable from ``start`` in breadth-first order.

        Each head maps to its stem as a parent pointer: ``None`` for the
        empty stem, else ``(parent stem, rule tag or pop key)``.
        """
        facts: dict = {}
        work: deque = deque()

        def add(head, stem) -> None:
            if head not in facts:
                facts[head] = stem
                work.append(head)

        add((start.state, start.top), None)
        # Popping into the start stack exposes the symbols below the top;
        # one carrier per state, the first found, as add keeps the first stem.
        carriers, f = {start.state: None}, start.frame
        while f.below is not None:
            below: dict = {}
            for st, stem in carriers.items():
                for r, _c, _l, key in self.by_head.get((st, f.symbol), ()):
                    below.setdefault(r, (stem, key))
            carriers, f = below, f.below
            for st, stem in carriers.items():
                add((st, f.symbol), stem)

        while work:
            head = work.popleft()
            for dst, _c, _l, parts in self.adj.get(head, ()):
                stem = facts[head]
                for part in parts:
                    stem = (stem, part)
                add(dst, stem)
        return facts

    def loop(self, head, d: int, scc_of: dict) -> tuple:
        """Closed walk from a good ``head`` through a color-``d`` and a letter
        edge, the first of each in rule order (ranked by the rule tags); the
        edges ``(src, dst, c, l, parts)`` are those inside its SCC."""
        scc = scc_of[head]
        succ_e = {v: [(v, *e) for e in self.adj.get(v, ()) if e[1] <= d and scc_of[e[0]] is scc]
                  for v, root in scc_of.items() if root is scc}
        rank = {rule[6]: i for i, rule in reversed(list(enumerate(self.rules)))}
        internal = sorted((e for es in succ_e.values() for e in es), key=lambda e: rank[e[4][0]])
        e_d = next(e for e in internal if e[2] == d)
        e_l = next(e for e in internal if e[3])

        def path(src, dst) -> list:
            prev: dict = {src: None}
            queue = deque([src])
            while dst not in prev:
                for e in succ_e.get(queue.popleft(), ()):
                    if e[1] not in prev:
                        prev[e[1]] = e
                        queue.append(e[1])
            out = []
            while prev[dst] is not None:
                out.append(prev[dst])
                dst = prev[dst][0]
            return out[::-1]

        walk: list = []
        cur = head
        for e in [e_d] if e_d is e_l else [e_d, e_l]:
            walk += path(cur, e[0]) + [e]
            cur = e[1]
        walk += path(cur, head)
        return self.expand(*(part for e in walk for part in e[4]))

    def witness(self, pda: OmegaPDA, start: Configuration) -> Optional[EmptinessWitness]:
        """First witness from ``start`` on ``pda``: lowest even color, then first head found."""
        heads = self.heads_from(start)
        found = _search(heads, self.adj, self.evens)
        if found is None:
            return None
        d, scc_of, pumping = found
        head = next(head for head in heads if scc_of[head] in pumping)
        parts = []
        stem = heads[head]
        while stem is not None:
            stem, part = stem
            parts.append(part)
        stem_ts = self.expand(*reversed(parts))
        loop_start = replay(pda, stem_ts, start).last
        return EmptinessWitness(stem_ts, self.loop(head, d, scc_of), loop_start)

    def accepting_heads(self) -> set:
        """Heads ``(q, X)`` from which some run pumps without going below ``X``:
        one backward search over all heads from the good heads of every color."""
        pred: dict = {}
        for src, moves in self.adj.items():
            for dst, _c, _l, _parts in moves:
                pred.setdefault(dst, []).append(src)
        found = set()
        for _d, scc_of, pumping in _layers(list(self.adj), self.adj, self.evens):
            found.update(head for head, scc in scc_of.items() if scc in pumping)
        work = list(found)
        while work:
            for src in pred.get(work.pop(), ()):
                if src not in found:
                    found.add(src)
                    work.append(src)
        return found


def _all_odd(pda: OmegaPDA) -> bool:
    """No transition has an even color, so no run is accepting."""
    return all(t.color & 1 for t in pda.transitions)


def parity_nonempty(
    pda: OmegaPDA, start: Optional[Configuration] = None
) -> Optional[EmptinessWitness]:
    """First emptiness witness found (even colors ascending), or None."""
    if _all_odd(pda):
        return None
    if start is None:
        start = pda.initial_configuration()
    return _Summary(_rules(pda.transitions)).witness(pda, start)


# ---------------------------------------------------------------------------
# Ultimately periodic membership.
# ---------------------------------------------------------------------------


def _lasso_heads(pda: OmegaPDA, w: LassoWord) -> tuple[dict, dict, list, list]:
    """The heads ``(p, X)`` of the lasso product reached from ``(0, BOTTOM)``:
    their moves, their pop facts, the even colors of the rules they read, and
    the product states ``(q, i)`` that the numbers ``p`` stand for.

    Tabulation (Reps, Horwitz & Sagiv, POPL'95): ``_saturate``'s rules, driven
    by the heads reached.  A new head reads its rules from one ``(state,
    top, letter)`` index: a pop is a fact; a swap, and a push to its new top,
    is a head move, added at once and joined with the facts its target
    already has.  A new fact fires the moves waiting on its head: a swap
    gives a fact, a two-symbol push over ``Y`` the swap to ``(r, Y)``.  So
    the moves ``(dst, c, l, None)`` and facts ``(r, c, l)`` of a head are
    ``_Summary``'s, without the derivations that only a witness needs.
    """
    word = w.prefix + w.loop
    nexts = [*range(1, len(word)), len(w.prefix)]
    index: dict = {}
    for t in pda.transitions:
        index.setdefault((t.source, t.top, t.label), []).append(
            (t.target, int(t.label is not None), t.color, t.push))
    states, ids = [(pda.initial, 0)], {(pda.initial, 0): 0}
    heads, adj, evens = [(0, BOTTOM)], {(0, BOTTOM): []}, set()
    pops: dict = {}  # (p, X) -> [(r, c, l)], the facts fired so far
    waiting: dict = {}  # (q, Y) -> [(p, X, c, l, below)]: a swap, below None, or a push over below
    facts: set = set()
    work: deque = deque()  # facts (p, X, r, c, l) not fired yet

    def move(p, x, dst, c, l, below) -> None:
        adj[p, x].append((dst, c, l, None))
        if dst not in adj:
            adj[dst] = []
            heads.append(dst)
        waiting.setdefault(dst, []).append((p, x, c, l, below))
        for r, c2, l2 in pops.get(dst, ()):
            c2, l2 = c if c > c2 else c2, l | l2
            if below is not None:
                move(p, x, (r, below), c2, l2, None)
            elif (p, x, r, c2, l2) not in facts:
                facts.add((p, x, r, c2, l2))
                work.append((p, x, r, c2, l2))

    for p, x in heads:  # grows as heads are reached
        q, i = states[p]
        for label in (None, word[i]):
            for target, l, c, push in index.get((q, x, label), ()):
                if c % 2 == 0:
                    evens.add(c)
                dst = (target, nexts[i] if l else i)
                r = ids.get(dst)
                if r is None:
                    r = ids[dst] = len(states)
                    states.append(dst)
                if push:
                    move(p, x, (r, push[-1]), c, l, push[0] if len(push) == 2 else None)
                elif (p, x, r, c, l) not in facts:
                    facts.add((p, x, r, c, l))
                    work.append((p, x, r, c, l))
        while work:
            q, y, r, c, l = work.popleft()
            pops.setdefault((q, y), []).append((r, c, l))
            for p0, x0, c0, l0, below in waiting.get((q, y), ()):
                c0, l0 = c0 if c0 > c else c, l0 | l
                if below is not None:
                    move(p0, x0, (r, below), c0, l0, None)
                elif (p0, x0, r, c0, l0) not in facts:
                    facts.add((p0, x0, r, c0, l0))
                    work.append((p0, x0, r, c0, l0))
    return adj, pops, sorted(evens), states


def lasso_membership(pda: OmegaPDA, w: LassoWord) -> bool:
    """Does the automaton accept ``u . v^omega``?  A verdict only, no witness:
    ``_lasso_heads`` reaches the heads from the start and their moves, keeping
    no derivations, and the even-color layers look for a good head among them."""
    letters = pda.letters
    for letter in w.prefix + w.loop:
        if letter not in letters:
            raise ValueError(f"letter {letter!r} not in the input alphabet")
    if _all_odd(pda):
        return False
    adj, _pops, evens, _states = _lasso_heads(pda, w)
    return _search(list(adj), adj, evens) is not None


def brute_force_lasso_oracle(
    pda: OmegaPDA, w: LassoWord, height_bound: int, length_bound: int
) -> Union[bool, str]:
    """Independent bounded check of lasso membership.

    Explicit BFS over (configuration, lasso position) pairs with stack height
    at most ``height_bound``; Kosaraju SCC analysis decides acceptance.
    Returns UNKNOWN unless a lasso was found or the bounded graph is closed
    and no larger than ``length_bound`` nodes.
    """
    if height_bound <= 0 or length_bound <= 0:
        raise ValueError("bounds must be positive")
    start = (pda.initial_configuration(), 0)
    nodes = {start}
    queue = deque([start])
    out_edges: dict = {}
    boundary = False
    while queue:
        node = queue.popleft()
        config, i = node
        for t in pda.by_source_top.get((config.state, config.top), ()):
            if t.label is not None and t.label != w.letter_at(i):
                continue
            nxt_cfg = step(config, t)
            nxt = (nxt_cfg, i if t.label is None else w.next_position(i))
            if nxt_cfg.height > height_bound:
                boundary = True
                continue
            out_edges.setdefault(node, []).append((nxt, t.color, t.label is not None))
            if nxt not in nodes:
                if len(nodes) >= length_bound:
                    return UNKNOWN
                nodes.add(nxt)
                queue.append(nxt)

    if _bounded_graph_accepts(nodes, out_edges):
        return True
    return False if not boundary else UNKNOWN


def _bounded_graph_accepts(nodes, out_edges) -> bool:
    colors = sorted({c for es in out_edges.values() for _, c, _ in es})
    for d in colors:
        if d % 2 != 0:
            continue
        sub: dict = {}
        for v, es in out_edges.items():
            sub[v] = [(u, c, let) for (u, c, let) in es if c <= d]
        comp = _kosaraju(list(nodes), sub)
        has_d: dict = {}
        has_letter: dict = {}
        for v, es in sub.items():
            for u, c, let in es:
                if comp[v] == comp[u]:
                    if c == d:
                        has_d[comp[v]] = True
                    if let:
                        has_letter[comp[v]] = True
        if any(has_d.get(k) and has_letter.get(k) for k in has_d):
            return True
    return False


def _kosaraju(nodes: list, succ: dict) -> dict:
    order = []
    seen = set()
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter(succ.get(root, ())))]
        seen.add(root)
        while stack:
            v, it = stack[-1]
            pushed = False
            for e in it:
                u = e[0]
                if u not in seen:
                    seen.add(u)
                    stack.append((u, iter(succ.get(u, ()))))
                    pushed = True
                    break
            if not pushed:
                order.append(v)
                stack.pop()
    pred: dict = {}
    for v, es in succ.items():
        for e in es:
            pred.setdefault(e[0], []).append(v)
    comp: dict = {}
    current = 0
    for v in reversed(order):
        if v in comp:
            continue
        stack = [v]
        comp[v] = current
        while stack:
            x = stack.pop()
            for u in pred.get(x, ()):
                if u not in comp:
                    comp[u] = current
                    stack.append(u)
        current += 1
    return comp


# ---------------------------------------------------------------------------
# The tail configuration set.
# ---------------------------------------------------------------------------


def accepts_tail_of(pda: OmegaPDA, tail_letter: str) -> PAutomaton:
    """The regular set of configurations from which ``tail_letter^omega`` is accepted.

    First the accepting heads ``(q, X)``: those with a run on tail-letter and
    epsilon transitions that never goes below the height of ``X``.  They come
    from one emptiness summary of the restricted automaton: the good heads
    of every even color, then one backward search over its head adjacency.
    A head above the bottom never reaches a bottom head, so one summary
    decides both.  The seed accepts the configurations with an accepting
    head: ``q -X-> .m`` for each, ``.m`` reads the rest of the stack.  Its
    pre* over the same transitions adds only the summary's pop facts: the
    accepting heads, the backward closure of the good heads, are closed
    backward under head moves, so pre* derives no new edge into ``.m`` or
    ``.f``, and every edge it derives into a control state is a pop fact.
    """
    if tail_letter not in pda.input_alphabet:
        raise ValueError(f"{tail_letter!r} not in the input alphabet")

    rules = _rules(t for t in pda.transitions if t.label in (None, tail_letter))
    summary = _Summary(rules)
    seed = _pa_of_heads(pda, summary.accepting_heads())
    return PAutomaton(seed.finals, seed.edges | {key[:3] for key in summary.defs})
