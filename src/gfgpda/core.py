"""Omega-pushdown automata: data model, configuration semantics, validators.

Conventions used throughout the package:

* A stack is written bottom-first, top at the end; ``stack[0]`` is always
  the reserved bottom symbol ``BOTTOM``, which users cannot declare.
* A transition replaces the current top symbol by its ``push`` word, so
  the stack height changes by ``len(push) - 1``.
* Acceptance is transition-based parity: a run is accepting iff the
  maximal color occurring infinitely often is even.
* The transition list order of an automaton is stable and serves as the
  universal tie-breaker for "pick any" situations downstream.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

BOTTOM = "_"

# Tokens reserved by the text format.
_RESERVED_IDS = {BOTTOM, "eps"}


class PdaError(Exception):
    """Base class for errors raised by this package."""


class NotEnabled(PdaError):
    """A transition was applied in a configuration that does not enable it."""


class NotARun(PdaError):
    """A transition sequence is not replayable; ``index`` is the first bad position."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"transition at index {index} is not enabled")


class BadPartition(PdaError):
    """The given letter classes do not partition the input alphabet."""


class GuardExceeded(PdaError):
    """A bounded simulation exceeded its step guard."""


class FormatError(PdaError):
    """Malformed text-format input."""


class ResourceExceeded(PdaError):
    """A construction or solver hit its budget before it finished."""


class Record:
    """Base of the data classes.  The fields are the annotations in order; a
    class attribute of a field's name is its default.  Instances are frozen,
    equal only within one class and hashed by their fields; ``__post_init__``
    runs after ``__init__``.  Defining a class runs no generated code; its first
    construction compiles the class's own ``__init__``, as a loop over the
    fields shared by all classes would make every construction slower."""

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", {}))
        cls._values = attrgetter(*cls._fields)  # C code; one field gives its value

    def __init__(self, *args, **kwargs):
        cls, defaults = type(self), vars(type(self))
        params = ", ".join(f"{f}=_d[{f!r}]" if f in defaults else f for f in cls._fields)
        body = "".join(f"\n _set(self, {f!r}, {f})" for f in cls._fields)
        if hasattr(cls, "__post_init__"):
            body += "\n self.__post_init__()"
        namespace: dict[str, Any] = {"_set": object.__setattr__, "_d": defaults}
        exec(f"def __init__(self, {params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__(self, *args, **kwargs)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{name!r} of a frozen {type(self).__name__} cannot change")
    __delattr__ = __setattr__

    def __eq__(self, other):  # only between instances of one class
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


# Transitions and configurations are values: slotted classes whose fields are
# never assigned after construction, equal only to their own kind, hashed in
# O(1).  A configuration's stack, given as a bottom-first tuple or a frame, is
# a persistent chain of frames that steps share; each stores its height and hash.
class Transition:
    __slots__ = ("source", "top", "label", "target", "push", "color", "_hash")

    def __init__(self, source: str, top: str, label: Optional[str], target: str,
                 push: tuple[str, ...], color: int):
        self.source, self.top, self.label = source, top, label  # label None: epsilon
        self.target, self.push, self.color = target, push, color
        self._hash = hash((source, top, label, target, push, color))

    def __eq__(self, other):
        return type(other) is Transition and self._hash == other._hash and all(
            getattr(self, f) == getattr(other, f) for f in Transition.__slots__)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        lab = self.label if self.label is not None else "eps"
        push = push_to_text(self.push)
        return f"({self.source},{self.top},{lab},{self.target},{push},{self.color})"
    __repr__ = __str__


class _Frame:
    __slots__ = ("below", "symbol", "height", "hash")

    def __init__(self, below: Optional[_Frame], symbol: str):
        self.below, self.symbol = below, symbol
        self.height = 0 if below is None else below.height + 1
        self.hash = hash((None if below is None else below.hash, symbol))


class Configuration:
    __slots__ = ("state", "frame")

    def __init__(self, state: str, stack):
        if type(stack) is not _Frame:
            frame = None
            for symbol in stack or ():  # None: a step popped the last frame
                frame = _Frame(frame, symbol)
            if frame is None:
                raise ValueError("a stack holds at least one symbol")
            stack = frame
        self.state, self.frame = state, stack

    def __eq__(self, other):
        if type(other) is not Configuration or self.state != other.state:
            return False
        a, b = self.frame, other.frame
        while a is not b:  # down to the first frame both stacks share
            if a.hash != b.hash or a.height != b.height or a.symbol != b.symbol:
                return False
            a, b = a.below, b.below
        return True

    def __hash__(self) -> int:
        return hash((self.state, self.frame.hash))

    @property
    def height(self) -> int:
        return self.frame.height

    @property
    def top(self) -> str:
        return self.frame.symbol

    @property
    def stack(self) -> tuple[str, ...]:
        symbols, f = [], self.frame
        while f is not None:
            symbols.append(f.symbol)
            f = f.below
        return tuple(reversed(symbols))

    def __str__(self) -> str:
        return f"({self.state}, {''.join(self.stack)})"
    __repr__ = __str__


class OmegaPDA(Record):
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    stack_alphabet: tuple[str, ...]  # BOTTOM excluded, reserved
    initial: str
    transitions: tuple[Transition, ...]

    @cached_property
    def by_source_top(self) -> dict[tuple[str, str], tuple[Transition, ...]]:
        index: dict[tuple[str, str], list[Transition]] = {}
        for t in self.transitions:
            index.setdefault((t.source, t.top), []).append(t)
        return {k: tuple(v) for k, v in index.items()}

    @cached_property
    def letters(self) -> frozenset[str]:
        return frozenset(self.input_alphabet)

    @property
    def gamma_bottom(self) -> tuple[str, ...]:
        return (BOTTOM,) + self.stack_alphabet

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial, (BOTTOM,))


class RunPrefix(Record):
    """A finite run: transitions plus the derived configuration sequence.

    ``configurations`` is one longer than ``transitions`` and starts at the
    configuration the run was replayed from.
    """

    transitions: tuple[Transition, ...]
    configurations: tuple[Configuration, ...]

    @property
    def last(self) -> Configuration:
        return self.configurations[-1]

    def word(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.transitions if t.label is not None)

    def __len__(self) -> int:
        return len(self.transitions)


class LassoWord(Record):
    """Finite representation ``u . v^omega`` of an ultimately periodic word."""

    prefix: tuple[str, ...]
    loop: tuple[str, ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    def letter_at(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def positions(self) -> int:
        return len(self.prefix) + len(self.loop)

    def next_position(self, i: int) -> int:
        return i + 1 if i + 1 < self.positions() else len(self.prefix)

    def __str__(self) -> str:
        return f"{' '.join(self.prefix)};{' '.join(self.loop)}"


class LassoDetector:
    """First repeat of a key at two steps (positions after which the stack
    never drops below its current height) of a run fed one position at a
    time.  Candidate steps have unique keys, as a repeat is reported, not
    pushed."""

    def __init__(self):
        self._stack: list[tuple[Hashable, int]] = []
        self._marks: dict[Hashable, Any] = {}

    def dip(self, height: int) -> None:
        """The run went through ``height``: positions above it are no steps."""
        while self._stack and self._stack[-1][1] > height:
            del self._marks[self._stack.pop()[0]]

    def visit(self, key: Hashable, height: int, mark: Any) -> Any:
        """The mark of the candidate with ``key``, or None after recording this one."""
        self.dip(height)
        hit = self._marks.get(key)
        if hit is None:
            self._stack.append((key, height))
            self._marks[key] = mark
        return hit


def parse_lasso(text: str) -> LassoWord:
    """Parse ``u;v``: letters are space-separated; a part without spaces is
    split into single characters unless it is one parenthesized letter."""
    if ";" not in text:
        raise FormatError(f"lasso word needs a ';' separator: {text!r}")
    u_text, v_text = text.split(";", 1)

    def letters(part: str) -> tuple[str, ...]:
        part = part.strip()
        if not part:
            return ()
        if " " in part:
            return tuple(part.split())
        if part.startswith("(") and part.endswith(")") and part.count("(") == 1:
            return (part,)
        return tuple(part)

    loop = letters(v_text)
    if not loop:
        raise FormatError(f"lasso loop must be nonempty: {text!r}")
    return LassoWord(letters(u_text), loop)


def validate(pda: OmegaPDA) -> list[str]:
    """Structural diagnostics; empty list iff all invariants hold."""
    diags: list[str] = []
    states = set(pda.states)
    letters = set(pda.input_alphabet)
    stack = set(pda.stack_alphabet)

    kinds = (("state", pda.states, states), ("letter", pda.input_alphabet, letters),
             ("stack symbol", pda.stack_alphabet, stack))
    for kind, names, _ in kinds:
        for name in names:
            if name.split() != [name] or "." in name or name in _RESERVED_IDS:
                diags.append(f"{kind} {name!r} is not a legal identifier")
    for kind, names, declared in kinds:
        if len(declared) != len(names):
            diags.append(f"duplicate {kind} declarations")
    if pda.initial not in states:
        diags.append(f"initial state {pda.initial!r} not declared")

    # Check each distinct value once; walk the transitions only to name faults.
    ts = pda.transitions
    if (states.issuperset({t.source for t in ts}) and states.issuperset({t.target for t in ts})
            and letters.issuperset({t.label for t in ts} - {None})
            and min({t.color for t in ts} | {0}) >= 0
            and not any((top != BOTTOM and top not in stack) or _push_fault(top, push, stack)
                        for top, push in {(t.top, t.push) for t in ts})):
        return diags
    for i, t in enumerate(ts):
        faults = []
        if t.source not in states:
            faults.append("unknown source")
        if t.target not in states:
            faults.append("unknown target")
        if t.label is not None and t.label not in letters:
            faults.append("unknown letter")
        if t.top != BOTTOM and t.top not in stack:
            faults.append("unknown top symbol")
        if t.color < 0:
            faults.append("negative color")
        if fault := _push_fault(t.top, t.push, stack):
            faults.append(fault)
        diags += [f"transition {i} {t}: {fault}" for fault in faults]
    return diags


def _push_fault(top: str, push: tuple[str, ...], stack: set[str],
                longest: Optional[int] = 2) -> Optional[str]:
    if longest is not None and len(push) > longest:
        return "push too long"
    if top == BOTTOM:
        if push[:1] == (BOTTOM,) and stack.issuperset(push[1:]):
            return None
    elif BOTTOM not in push and stack.issuperset(push):
        return None
    # The pushed symbols are checked before the bottom shape.
    if set(push) - stack - {BOTTOM}:
        return "unknown push symbol"
    return "bottom deleted or buried" if top == BOTTOM else "bottom written"


def enabled(pda: OmegaPDA, c: Configuration) -> list[Transition]:
    """Transitions enabled in ``c``, in declaration order."""
    return list(pda.by_source_top.get((c.state, c.top), ()))


def step(c: Configuration, t: Transition) -> Configuration:
    """The configuration after ``t``: the only stack rewrite."""
    f, push = c.frame, t.push
    if t.source != c.state or t.top != f.symbol:
        raise NotEnabled(f"{t} not enabled in {c}")
    if not push:
        return Configuration(t.target, f.below)
    if push[0] != f.symbol:
        f = _Frame(f.below, push[0])
    for symbol in push[1:]:
        f = _Frame(f, symbol)
    return Configuration(t.target, f)


def replay(
    pda: OmegaPDA, ts: Sequence[Transition], start: Optional[Configuration] = None
) -> RunPrefix:
    """The unique run prefix with transition sequence ``ts`` from ``start``
    (by default the initial configuration)."""
    configs = [pda.initial_configuration() if start is None else start]
    for i, t in enumerate(ts):
        try:
            configs.append(step(configs[-1], t))
        except NotEnabled:
            raise NotARun(i) from None
    return RunPrefix(tuple(ts), tuple(configs))


def is_deterministic(pda) -> tuple[bool, list[tuple[Transition, Transition]]]:
    """Check the two determinism conditions on the ``transitions`` of an
    automaton or of a transducer's machine (``resolvers.DetPushdown``);
    returns violating transition pairs."""
    violations: list[tuple[Transition, Transition]] = []
    by_key: dict[tuple[str, str, Optional[str]], Transition] = {}
    for t in pda.transitions:
        key = (t.source, t.top, t.label)
        if key in by_key:
            violations.append((by_key[key], t))
        else:
            by_key[key] = t
    by_mode: dict[tuple[str, str], list[Transition]] = {}
    for t in pda.transitions:
        by_mode.setdefault((t.source, t.top), []).append(t)
    for ts in by_mode.values():
        eps = [t for t in ts if t.label is None]
        lets = [t for t in ts if t.label is not None]
        if eps and lets:
            violations.append((eps[0], lets[0]))
    return (not violations, violations)


def check_visibly(
    pda: OmegaPDA, partition: tuple[Iterable[str], Iterable[str], Iterable[str]]
) -> tuple[bool, list[str]]:
    """Visibly-pushdown shape check for a (calls, returns, internals) partition.

    Calls must push one symbol on top of the current top, returns must pop
    (or leave the empty stack unchanged), internals must not touch the stack,
    and no epsilon-transitions may exist.
    """
    calls, rets, ints = (frozenset(p) for p in partition)
    alphabet = frozenset(pda.input_alphabet)
    if calls | rets | ints != alphabet or (calls & rets) or (calls & ints) or (rets & ints):
        raise BadPartition(f"not a partition of {sorted(alphabet)}")

    diags: list[str] = []
    for i, t in enumerate(pda.transitions):
        where = f"transition {i} {t}"
        if t.label is None:
            diags.append(f"{where}: epsilon-transition not allowed")
        elif t.label in calls:
            if not (len(t.push) == 2 and t.push[0] == t.top):
                diags.append(f"{where}: call letter must push")
        elif t.label in rets:
            pops = t.top != BOTTOM and t.push == ()
            noop = t.top == BOTTOM and t.push == (BOTTOM,)
            if not (pops or noop):
                diags.append(f"{where}: return letter must pop or leave empty stack")
        else:
            if t.push != (t.top,):
                diags.append(f"{where}: internal letter must not change the stack")
    return (not diags, diags)


def explore(start: Hashable, expand: Callable, budget: Optional[int] = None,
            total: int = 0) -> tuple[list, list, list]:
    """The one worklist of the package's constructions: the nodes reached
    from ``start`` in discovery order, the edges ``(u, color, v)`` between
    their numbers and the edges' labels.  ``expand(order)`` yields
    ``(u, color, successor, label)`` for each number ``u`` of ``order`` in
    turn, while ``order`` grows; a successor ``None`` keeps the number
    ``None``.  ``total`` nodes already count against ``budget``, which is
    checked at each new number, so ``ResourceExceeded`` comes after at most
    ``budget + 1`` of them."""
    limit = float("inf") if budget is None else budget - total
    if limit < 1:
        raise _over_budget(total + 1, budget)
    ids = {start: 0}
    order = [start]
    edges: list = []
    labels: list = []
    for u, color, nxt, label in expand(order):
        v = None if nxt is None else ids.setdefault(nxt, len(order))
        if v == len(order):
            order.append(nxt)
            if len(order) > limit:
                raise _over_budget(total + len(order), budget)
        edges.append((u, color, v))
        labels.append(label)
    return order, edges, labels


def _over_budget(states: int, budget: Optional[int]) -> ResourceExceeded:
    return ResourceExceeded(f"{states} states exceed the budget {budget}")


# ---------------------------------------------------------------------------
# Text formats.
# ---------------------------------------------------------------------------


def read_declarations(
    text: str, handlers: dict[str, tuple[Optional[int], Callable[[list[str]], Any]]]
) -> None:
    """Feed each declaration line of ``text`` to its keyword's handler.

    All five text formats (automata, Moore resolvers, DPAs, game
    specifications, strategy transducers) share these rules: one declaration
    per line, a keyword followed by whitespace-separated fields; blank lines
    and lines whose first token starts with `#` are skipped.  ``handlers``
    maps each keyword to its line's exact token count, keyword included
    (None: any number), and a callable that receives the line's token list,
    keyword first.  Unknown keywords, wrong field counts and a ``ValueError``,
    ``IndexError`` or ``KeyError`` (an unknown name) from a handler become a
    ``FormatError`` naming the line.

    Automata: `state <id>` / `initial <id>` / `letter <id>` / `stacksym <id>` /
    `trans <src> <top|_> <letter|eps> <dst> <push|eps> <color>`.  `_` denotes
    the stack bottom.  A push word is `eps`, a single symbol, `_` (bottom kept
    alone), `_<sym>` (bottom plus one symbol) or two symbols joined by `.`.
    """
    lines = text.splitlines()
    try:
        for ln, tokens in enumerate(map(str.split, lines), start=1):
            if not tokens:
                continue
            count, handle = handlers.get(tokens[0], (-1, None))
            if len(tokens) != count:  # also a comment, an unknown keyword or a variadic one
                if tokens[0][0] == "#":
                    continue
                if handle is None:
                    raise ValueError(f"unknown declaration {tokens[0]!r}")
                if count is not None:
                    raise ValueError(f"{tokens[0]!r} takes {count - 1} field(s), "
                                     f"got {len(tokens) - 1}")
            handle(tokens)
    except (ValueError, IndexError, KeyError) as exc:
        reason = f"unknown {exc}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"line {ln}: {lines[ln - 1].strip()!r}: {reason}") from None


class TokenValues(dict):
    """The value of each distinct token of one parse, read once.  A token is
    valid only as ``write`` prints its value, so accepted texts round-trip."""

    def __init__(self, kind: str, read: Callable[[str], Any], write: Callable[[Any], str]):
        self.kind, self.read, self.write = kind, read, write  # dict.__new__ made the dict

    def __missing__(self, token: str) -> Any:
        value = self.read(token)
        if self.write(value) != token:
            raise ValueError(f"{self.kind} {token!r} must be written {self.write(value)!r}")
        self[token] = value
        return value


def pair_id(a1: str, a2: str) -> str:
    return f"({a1},{a2})"


def push_to_text(push: tuple[str, ...]) -> str:
    if not push:
        return "eps"
    if push[0] == BOTTOM:
        return "_" + ".".join(push[1:])
    return ".".join(push)


def push_from_text(text: str) -> tuple[str, ...]:
    if text == "eps":
        return ()
    if text.startswith("_"):
        rest = text[1:]
        if rest.startswith("."):
            rest = rest[1:]
        return (BOTTOM,) + (tuple(rest.split(".")) if rest else ())
    return tuple(text.split("."))


def format_pda(pda: OmegaPDA) -> str:
    lines = [f"state {q}" for q in pda.states]
    lines.append(f"initial {pda.initial}")
    lines += [f"letter {a}" for a in pda.input_alphabet]
    lines += [f"stacksym {x}" for x in pda.stack_alphabet]
    for t in pda.transitions:
        lab = t.label if t.label is not None else "eps"
        lines.append(
            f"trans {t.source} {t.top} {lab} {t.target} "
            f"{push_to_text(t.push)} {t.color}"
        )
    return "\n".join(lines) + "\n"


def pda_declarations() -> tuple[dict, Callable[[], OmegaPDA]]:
    """The automaton keyword table for ``read_declarations`` and a function
    that builds and validates the automaton once the text is read."""
    states: list[str] = []  # the declaration lines' tokens: keyword, name, keyword, ...
    letters: list[str] = []
    stack: list[str] = []
    initial: list[str] = []
    transitions: list[Transition] = []
    pushes = TokenValues("push word", push_from_text, push_to_text)
    colors = TokenValues("color", int, str)

    def trans(tokens):
        _, src, top, lab, dst, push, color = tokens
        transitions.append(Transition(
            src, top, None if lab == "eps" else lab, dst,
            pushes[push], colors[color],
        ))

    def build() -> OmegaPDA:
        if not initial:
            raise FormatError("missing 'initial' declaration")
        pda = OmegaPDA(tuple(states[1::2]), tuple(letters[1::2]), tuple(stack[1::2]),
                       initial[-1], tuple(transitions))
        diags = validate(pda)
        if diags:
            raise FormatError("; ".join(diags))
        return pda

    handlers = {"state": (2, states.extend), "initial": (2, initial.extend),
                "letter": (2, letters.extend), "stacksym": (2, stack.extend),
                "trans": (7, trans)}
    return handlers, build


def parse_pda(text: str) -> OmegaPDA:
    handlers, build = pda_declarations()
    read_declarations(text, handlers)
    return build()
