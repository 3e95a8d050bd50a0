"""Resolvers: guided simulation, Moore machines, determinization, PDT resolvers.

A resolver answers "which transition next?" from the run history and the next
input letter.  Implementations fold the history into a state (start / feed)
and ``pick`` from that state and the current configuration, so guided runs
cost O(1) resolver work per step; ``resolver_query`` recovers the one-shot
function-of-history view.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Hashable, Iterator, Optional

from .core import (
    BOTTOM,
    Configuration,
    FormatError,
    GuardExceeded,
    LassoDetector,
    LassoWord,
    OmegaPDA,
    PdaError,
    Record,
    RunPrefix,
    Transition,
    explore,
    is_deterministic,
    read_declarations,
    step,
)


class ResolverStuck(PdaError):
    """The resolver returned a transition that is not enabled (or mislabeled)."""


class EpsilonDivergence(PdaError):
    """An epsilon chain repeats a head (state, key, top) at two steps: a proven loop."""


class ResolverUndefined(PdaError):
    """The resolver has no output for the current situation."""


class TransducerStuck(PdaError):
    """A pushdown transducer has no run on the given history."""


class Resolver:
    """Incremental resolver interface: ``pick`` sees the state fed with the
    transitions so far and the current configuration (in particular its top
    symbol); ``key`` fingerprints the state for ``periodic_split`` and ``_infix``."""

    def start(self) -> Any:
        raise NotImplementedError

    def feed(self, state: Any, t: Transition) -> Any:
        raise NotImplementedError

    def pick(self, state: Any, config: Configuration, letter: str) -> Transition:
        raise NotImplementedError

    def key(self, state: Any, w: LassoWord) -> Optional[Hashable]:
        """None, or a value with finitely many values along a guided run on
        ``w`` that, with the head and the position in ``w``, fixes every
        later pick on ``w``: a repeat is certain, so no cap is needed."""
        return None


def resolver_query(r: Resolver, history: RunPrefix, letter: str) -> Transition:
    """The resolver as a plain function of (transition history, next letter)."""
    st = r.start()
    for t in history.transitions:
        st = r.feed(st, t)
    return r.pick(st, history.last, letter)


class GuidedRun(Record):
    """Immutable snapshot of a resolver-guided simulation."""

    run: RunPrefix
    letters_consumed: int
    resolver_state: Any


def _infix(pda: OmegaPDA, r: Resolver, state, c: Configuration, a: str,
           transitions: list, configs: list):
    """Append the resolver-induced infix processing ``a`` from ``c`` to
    ``transitions``, and its configurations to ``configs``; return the new
    resolver state and configuration.  On an error the lists may end
    inside the infix.  The epsilon chain starts the guided run on a^omega
    from ``c``: with a key on that word, it loops iff a head (state, key,
    top) repeats at two steps.  Without one, a cap raises GuardExceeded."""
    if a not in pda.letters:
        raise ValueError(f"letter {a!r} not in the input alphabet")
    eps_steps = 0
    while True:
        t = r.pick(state, c, a)
        label = t.label
        if label is None:
            if not eps_steps:  # c is the entry: every epsilon step comes before a
                lasso, w = None, LassoWord((), (a,))
                eps_cap = len(pda.states) * (c.height + 2) * (len(pda.stack_alphabet) + 1) + 1
            if (key := r.key(state, w)) is not None:
                if lasso is None:
                    lasso = LassoDetector()
                if lasso.visit((c.state, key, c.top), c.height, True) is not None:
                    raise EpsilonDivergence(f"epsilon loop at {c} before {a!r}")
        elif label != a:
            raise ResolverStuck(f"resolver returned {t} while processing {a!r}")
        try:
            c = step(c, t)
        except PdaError:
            raise ResolverStuck(f"resolver returned disabled {t} in {c}") from None
        configs.append(c)
        transitions.append(t)
        state = r.feed(state, t)
        if label is not None:
            return state, c
        eps_steps += 1
        if lasso is None and eps_steps > eps_cap:
            raise GuardExceeded(f"more than {eps_cap} epsilon steps before {a!r}")


def ext(pda: OmegaPDA, r: Resolver, g: GuidedRun, a: str) -> GuidedRun:
    """Extend the guided run by the unique resolver-induced infix processing ``a``."""
    transitions, configs = list(g.run.transitions), list(g.run.configurations)
    state, _ = _infix(pda, r, g.resolver_state, g.run.last, a, transitions, configs)
    run = RunPrefix(tuple(transitions), tuple(configs))
    return GuidedRun(run, g.letters_consumed + 1, state)


def run_on_prefix(pda: OmegaPDA, r: Resolver, word) -> GuidedRun:
    c = pda.initial_configuration()
    transitions, configs = [], [c]
    state = r.start()
    letters = 0
    for a in word:
        state, c = _infix(pda, r, state, c, a, transitions, configs)
        letters += 1
    return GuidedRun(RunPrefix(tuple(transitions), tuple(configs)), letters, state)


# ---------------------------------------------------------------------------
# Moore-machine resolvers.
# ---------------------------------------------------------------------------


class MooreResolver(Record, Resolver):
    """Finite-state resolver: delta reads transitions, lambda picks the next one.

    Both maps may be partial.  A missing ``delta`` entry makes ``feed`` raise
    ResolverStuck, and ``determinize_moore`` leaves that edge out; a missing
    ``output`` entry is a resolver failure, surfaced as ResolverUndefined.
    """

    states: tuple[str, ...]
    initial: str
    delta: dict[tuple[str, Transition], str]
    output: dict[tuple[str, str, str], Transition]  # (m, letter, top) -> transition

    def start(self):
        return self.initial

    def feed(self, state, t):
        try:
            return self.delta[(state, t)]
        except KeyError:
            raise ResolverStuck(f"Moore delta undefined at ({state}, {t})") from None

    def pick(self, state, config, letter):
        key = (state, letter, config.top)
        try:
            return self.output[key]
        except KeyError:
            raise ResolverUndefined(f"Moore output undefined at {key}") from None

    def key(self, state, w):
        return state


class PeriodicSplit(Record):
    """Guided run on a lasso, split at two matched step positions."""

    verdict: str  # accepted / rejected / stuck
    run: RunPrefix
    stem_transitions: tuple[Transition, ...]
    loop_transitions: tuple[Transition, ...]
    stem_letters: int
    loop_letters: int


def moore_lasso_acceptance(
    pda: OmegaPDA, m: Resolver, w: LassoWord, guard: int = 5000
) -> str:
    """The verdict of ``periodic_split``: 'accepted', 'rejected' or 'stuck'."""
    return periodic_split(pda, m, w, guard).verdict


def periodic_split(pda, r, w, guard=5000) -> PeriodicSplit:
    """The guided run of ``r`` on ``u . v^omega``, cut at its first period:
    two step positions where the tuple (automaton state, resolver key, top
    symbol, lasso position) repeats; the max color between them decides
    acceptance.  A failing pick ends the run as 'stuck'.  Raises GuardExceeded
    after ``guard`` steps (always, unless stuck, for a key of None) or past
    ``_infix``'s keyless epsilon cap: bounds, not proofs."""
    c = pda.initial_configuration()
    transitions, configs = [], [c]
    state = r.start()
    word, restart = w.prefix + w.loop, len(w.prefix)
    position = 0
    letters = 0
    # Candidate steps are taken between letters.
    lasso = LassoDetector()
    while True:
        key = r.key(state, w)
        hit = None if key is None else lasso.visit(
            (c.state, key, c.top, position), c.height, (len(transitions), letters))
        if hit is not None:
            cut, stem_letters = hit
            run = RunPrefix(tuple(transitions), tuple(configs))
            loop = run.transitions[cut:]
            verdict = "accepted" if max(t.color for t in loop) % 2 == 0 else "rejected"
            return PeriodicSplit(
                verdict, run, run.transitions[:cut], loop, stem_letters, letters - stem_letters
            )

        if len(transitions) > guard:
            raise GuardExceeded(f"no period within {guard} transitions")
        before = len(transitions)
        try:
            state, c = _infix(pda, r, state, c, word[position], transitions, configs)
        except (ResolverStuck, ResolverUndefined, EpsilonDivergence):
            run = RunPrefix(tuple(transitions[:before]), tuple(configs[:before + 1]))
            return PeriodicSplit("stuck", run, run.transitions, (), letters, 0)
        letters += 1
        # Intra-block dips also invalidate candidate steps.
        for d in configs[before + 1:]:
            lasso.dip(d.height)
        position = position + 1 if position + 1 < len(word) else restart


def determinize_moore(pda: OmegaPDA, m: MooreResolver, budget: Optional[int] = None) -> OmegaPDA:
    """Deterministic automaton simulating the Moore-guided run.

    States are (q, m) plus (q, m, a); reading a letter stores it, then the
    Moore output is simulated by epsilon transitions until the letter is
    processed.  Recognizes the same language when ``m`` implements a resolver.
    A state is named ``q|k``, where ``k`` numbers ``(m,)`` or ``(m, a)``; ``q``
    is what precedes the last ``|``, so distinct states get distinct names.
    Only the states reachable from ``(initial, m.initial)`` are built, by
    ``core.explore``; more than ``budget`` of them raise ``ResourceExceeded``.
    """
    min_color = min((t.color for t in pda.transitions), default=0)

    def expand(order):  # an edge's label is its transition's (top, letter, push)
        for u, node in enumerate(order):
            if len(node) == 2:  # read a letter and store it
                for x in pda.gamma_bottom:
                    for a in pda.input_alphabet:
                        yield u, min_color, node + (a,), (x, a, (x,))
                continue
            q, mm, a = node
            for x in pda.gamma_bottom:
                t = m.output.get((mm, a, x))
                if t is None or t.source != q or t.top != x:
                    continue
                m2 = m.delta.get((mm, t))
                if m2 is None:
                    continue
                if t.label is None:
                    yield u, t.color, (t.target, m2, a), (x, None, t.push)
                elif t.label == a:
                    yield u, t.color, (t.target, m2), (x, None, t.push)

    order, edges, labels = explore((pda.initial, m.initial), expand, budget)
    ids: dict[tuple[str, ...], int] = {}
    names = [f"{node[0]}|{ids.setdefault(node[1:], len(ids))}" for node in order]
    return OmegaPDA(tuple(names), pda.input_alphabet, pda.stack_alphabet, names[0], tuple([
        Transition(names[u], x, a, names[v], push, c)
        for (u, c, v), (x, a, push) in zip(edges, labels)]))


# ---------------------------------------------------------------------------
# Deterministic pushdown machines with output (transducers).
# ---------------------------------------------------------------------------


class DetPushdown(Record):
    """Uncolored deterministic PDA: its transitions have color 0 and read the
    symbol in ``label`` (None: epsilon); runs are maximal (end epsilon-closed).
    A rule set that breaks ``core.is_deterministic`` raises ValueError."""

    states: tuple
    initial: Any
    stack_alphabet: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        det, pairs = is_deterministic(self)
        if not det:
            raise ValueError(f"nondeterministic transducer rules: {pairs[0]}")

    def rule_at(self, state, top, symbol) -> Optional[Transition]:
        return self._index.get((state, top, symbol))

    @cached_property
    def _index(self) -> dict:
        return {(t.source, t.top, t.label): t for t in self.transitions}

    def start(self) -> Configuration:
        """The initial configuration after its epsilon closure."""
        c = Configuration(self.initial, (BOTTOM,))
        for c in self._epsilon_steps(c):
            pass
        return c

    def _epsilon_steps(self, c: Configuration) -> Iterator[Configuration]:
        """The configurations of the epsilon closure of ``c``.  As the machine
        is deterministic, the closure diverges exactly when a head repeats at
        two steps, which raises TransducerStuck.  The detector is made when
        the first rule applies, so a configuration without one costs none."""
        if (rule := self.rule_at(c.state, c.top, None)) is None:
            return
        lasso = LassoDetector()
        while rule is not None:
            if lasso.visit((c.state, c.top), c.height, True) is not None:
                raise TransducerStuck(f"epsilon divergence in transducer at {c}")
            c = step(c, rule)
            yield c
            rule = self.rule_at(c.state, c.top, None)

    def trail(self, c: Configuration, symbol) -> Iterator[Configuration]:
        """Each configuration of reading ``symbol`` at ``c``: after its rule,
        then after each rule of the epsilon closure."""
        rule = self.rule_at(c.state, c.top, symbol)
        if rule is None:
            raise TransducerStuck(f"no rule for {symbol!r} at ({c.state}, {c.top})")
        c = step(c, rule)
        yield c
        yield from self._epsilon_steps(c)

    def consume(self, c: Configuration, symbol) -> Configuration:
        for c in self.trail(c, symbol):
            pass
        return c


class PDTResolver(Record, Resolver):
    """Resolver computed by a deterministic pushdown transducer.

    The transducer reads the subject automaton's transitions; its output
    function sees the transducer state, the next letter, and the subject's
    current top stack symbol (the oracle input).
    """

    machine: DetPushdown
    output: dict[tuple[Any, str, str], Transition]

    def start(self):
        return self.machine.start()

    def feed(self, state, t):
        return self.machine.consume(state, t)

    def pick(self, state, config, letter):
        key = (state.state, letter, config.top)
        try:
            return self.output[key]
        except KeyError:
            raise ResolverUndefined(f"transducer output undefined at {key}") from None


def moore_as_pdt(pda: OmegaPDA, m: MooreResolver) -> PDTResolver:
    """A Moore resolver as a stack-less pushdown transducer, as in the paper;
    kept as a construction although no other routine calls it."""
    rules = tuple(Transition(mm, BOTTOM, t, m2, (BOTTOM,), 0)
                  for (mm, t), m2 in sorted(m.delta.items(), key=str))
    machine = DetPushdown(tuple(m.states), m.initial, (), rules)
    output = {(mm, a, x): t for (mm, a, x), t in m.output.items()}
    return PDTResolver(machine, output)


# ---------------------------------------------------------------------------
# Conformance testing.
# ---------------------------------------------------------------------------


class ResolverReport(Record):
    entries: tuple[tuple[LassoWord, bool, str], ...]  # (word, expected, verdict)

    def failures(self) -> list:
        return [e for e in self.entries if e[2] == "fail"]

    def all_passed(self) -> bool:
        return all(e[2] in ("pass", "skipped") for e in self.entries)


def verify_resolver(
    pda: OmegaPDA, r: Resolver, suite, guard: int = 5000
) -> ResolverReport:
    """Check that the resolver induces accepting runs on in-language words.

    Each word is decided by ``periodic_split``: 'fail' on a stuck pick, and
    'inconclusive' when no key repeats within the guard.
    """
    entries = []
    for w, expected in suite:
        if not expected:
            verdict = "skipped"
        else:
            try:
                accepted = periodic_split(pda, r, w, guard).verdict == "accepted"
                verdict = "pass" if accepted else "fail"
            except GuardExceeded:
                verdict = "inconclusive"
        entries.append((w, expected, verdict))
    return ResolverReport(tuple(entries))


# ---------------------------------------------------------------------------
# Text format for Moore resolvers (rules in ``core.read_declarations``):
#   mstate <id> / minitial <id> / mtrans <m> <transition-index> <m'>
#   mout <m> <letter> <top|_> <transition-index>
# ---------------------------------------------------------------------------


def format_moore(pda: OmegaPDA, m: MooreResolver) -> str:
    lines = [f"mstate {s}" for s in m.states]
    lines.append(f"minitial {m.initial}")
    index = {t: i for i, t in enumerate(pda.transitions)}
    for (mm, t), m2 in sorted(m.delta.items(), key=lambda kv: (kv[0][0], index[kv[0][1]])):
        lines.append(f"mtrans {mm} {index[t]} {m2}")
    for (mm, a, x), t in sorted(m.output.items(), key=str):
        lines.append(f"mout {mm} {a} {x} {index[t]}")
    return "\n".join(lines) + "\n"


def parse_moore(pda: OmegaPDA, text: str) -> MooreResolver:
    states: list[str] = []  # the declaration lines' tokens: keyword, name, keyword, ...
    initial: list[str] = []
    delta: dict[tuple[str, Transition], str] = {}
    output: dict[tuple[str, str, str], Transition] = {}

    # Only the indices 0..n-1, written as format_moore writes them, name a
    # transition; a negative index is not counted from the end.
    by_index = {str(i): t for i, t in enumerate(pda.transitions)}

    def mtrans(tokens):
        _, m, i, m2 = tokens
        delta[(m, by_index[i])] = m2

    def mout(tokens):
        _, m, letter, top, i = tokens
        output[(m, letter, top)] = by_index[i]

    read_declarations(text, {"mstate": (2, states.extend), "minitial": (2, initial.extend),
                             "mtrans": (4, mtrans), "mout": (5, mout)})
    if not initial:
        raise FormatError("missing 'minitial' declaration")
    declared = set(states[1::2])
    for kind, what, names, known in (
        ("minitial", "Moore state", {initial[-1]}, declared),
        ("mtrans", "Moore state", {m for m, _ in delta} | set(delta.values()), declared),
        ("mout", "Moore state", {m for m, _, _ in output}, declared),
        ("mout", "letter", {a for _, a, _ in output}, set(pda.input_alphabet)),
        ("mout", "top", {x for _, _, x in output}, set(pda.gamma_bottom)),
    ):
        if not names <= known:
            raise FormatError(f"{kind} names undeclared {what} {min(names - known)!r}")
    return MooreResolver(tuple(states[1::2]), initial[-1], delta, output)
