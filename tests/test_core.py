import random

import pytest
from hypothesis import given, settings, strategies as st

from gfgpda import core, zoo
from gfgpda.core import (
    BOTTOM,
    BadPartition,
    Configuration,
    FormatError,
    NotARun,
    NotEnabled,
    OmegaPDA,
    Transition,
    enabled,
    format_pda,
    is_deterministic,
    check_visibly,
    parse_lasso,
    parse_pda,
    replay,
    step,
    validate,
)
from gfgpda.resolvers import determinize_moore
from helpers import random_pda


@pytest.fixture(scope="module")
def fig2():
    return zoo.example23().automaton


def test_transitions_and_configurations_are_values():
    fields = ("q", "N", None, "p", (BOTTOM, "N"), 3)
    t, u = Transition(*fields), Transition(*fields)
    assert t == u and hash(t) == hash(u) and t is not u
    assert t != fields and fields != t and t != Transition("q", "N", "a", "p", (BOTTOM, "N"), 3)
    assert (t.source, t.top, t.label, t.target, t.push, t.color) == fields
    assert str(t) == repr(t) == "(q,N,eps,p,_N,3)"
    assert {t: 1}[u] == 1
    c, d = Configuration("q", (BOTTOM, "N")), Configuration("q", (BOTTOM, "N"))
    assert c == d and hash(c) == hash(d) and {c: 1}[d] == 1
    assert c != ("q", (BOTTOM, "N")) and c != Configuration("p", (BOTTOM, "N"))
    assert (c.state, c.stack, c.height, c.top, str(c)) == ("q", (BOTTOM, "N"), 1, "N", "(q, _N)")


def test_records_keep_the_data_class_contract():
    from functools import cached_property
    from typing import Optional

    class Pair(core.Record):
        left: int
        right: Optional[str] = None

        @cached_property
        def twice(self):
            return 2 * self.left

    class Other(core.Record):
        left: int
        right: Optional[str] = None

    assert "__init__" not in vars(Pair)  # defining a record compiles nothing
    p = Pair(1)
    assert (p.left, p.right, repr(p)) == (1, None, "test_records_keep_the_data_class_contract."
                                          "<locals>.Pair(left=1, right=None)")
    assert p == Pair(1, None) == Pair(left=1) and hash(p) == hash(Pair(right=None, left=1))
    assert p != Pair(1, "x") and p != Other(1) and Other(1) != p
    assert p.twice == 2 and p.twice == 2  # cached on a frozen instance
    for change in (lambda: setattr(p, "left", 2), lambda: delattr(p, "right"),
                   lambda: setattr(p, "new", 0)):
        with pytest.raises(AttributeError):
            change()
    for build in (lambda: Pair(), lambda: Pair(1, "x", 2), lambda: Pair(1, left=2),
                  lambda: Pair(1, size=2)):
        with pytest.raises(TypeError):
            build()
    assert "__init__" in vars(Pair) and Pair(2, "y").right == "y"  # compiled once
    with pytest.raises(TypeError):  # a record holding a dict is unhashable
        hash(Pair({}))
    with pytest.raises(ValueError, match="nonempty"):  # __post_init__ runs
        core.LassoWord(("a",), ())


def test_validate_fig2_clean(fig2):
    assert validate(fig2) == []


def test_validate_bottom_deleted():
    pda = OmegaPDA(
        ("q",), ("a",), (), "q",
        (Transition("q", BOTTOM, "a", "q", (), 0),),
    )
    diags = validate(pda)
    assert len(diags) == 1 and "bottom" in diags[0]


def test_validate_push_too_long():
    pda = OmegaPDA(
        ("q",), ("a",), ("X", "Y", "Z"), "q",
        (Transition("q", "X", "a", "q", ("X", "Y", "Z"), 0),),
    )
    diags = validate(pda)
    assert len(diags) == 1 and "push too long" in diags[0]


def test_validate_diagnostic_texts():
    T = Transition
    pda = OmegaPDA(
        ("q", "a b", "x.y", ""), ("a", "b\tc", "eps"), ("A", BOTTOM), "q",
        (
            T("p", "A", None, "r", (), 0),
            T("q", "A", "z", "q", (), 0),
            T("q", "Z", None, "q", (), -1),
            T("q", "A", None, "q", ("A", "A", "A"), 0),
            T("q", BOTTOM, None, "q", (), 0),
            T("q", BOTTOM, None, "q", ("A", BOTTOM), 0),
            T("q", "A", None, "q", (BOTTOM,), 0),
            T("q", "A", None, "q", ("Z",), 0),
            T("q", BOTTOM, "a", "q", (BOTTOM, "A"), 2),
        ),
    )
    assert validate(pda) == [
        "state 'a b' is not a legal identifier",
        "state 'x.y' is not a legal identifier",
        "state '' is not a legal identifier",
        "letter 'b\\tc' is not a legal identifier",
        "letter 'eps' is not a legal identifier",
        "stack symbol '_' is not a legal identifier",
        "transition 0 (p,A,eps,r,eps,0): unknown source",
        "transition 0 (p,A,eps,r,eps,0): unknown target",
        "transition 1 (q,A,z,q,eps,0): unknown letter",
        "transition 2 (q,Z,eps,q,eps,-1): unknown top symbol",
        "transition 2 (q,Z,eps,q,eps,-1): negative color",
        "transition 3 (q,A,eps,q,A.A.A,0): push too long",
        "transition 4 (q,_,eps,q,eps,0): bottom deleted or buried",
        "transition 5 (q,_,eps,q,A._,0): bottom deleted or buried",
        "transition 6 (q,A,eps,q,_,0): bottom written",
        "transition 7 (q,A,eps,q,Z,0): unknown push symbol",
    ]


def test_enabled_fig2_initial(fig2):
    ts = enabled(fig2, fig2.initial_configuration())
    assert [t.label for t in ts] == ["a", "b"]


def test_enabled_q4_bottom(fig2):
    ts = enabled(fig2, Configuration("q4", (BOTTOM,)))
    assert len(ts) == 1 and ts[0].label == "#" and ts[0].target == "q4"


def test_enabled_empty_case(fig2):
    assert enabled(fig2, Configuration("q4", (BOTTOM, "A"))) == []


def test_step_push_pop_swap(fig2):
    a = fig2.transitions[0]
    c1 = step(fig2.initial_configuration(), a)
    assert c1 == Configuration("q1", (BOTTOM, "A"))
    pop = fig2.transitions[5]
    c2 = step(Configuration("q1", (BOTTOM, "A", "N")), pop)
    assert c2 == Configuration("q2", (BOTTOM, "A"))
    swap = Transition("q1", "N", "c", "q1", ("N",), 1)
    c3 = step(Configuration("q1", (BOTTOM, "N")), swap)
    assert c3.stack == (BOTTOM, "N")


def test_step_not_enabled(fig2):
    with pytest.raises(NotEnabled):
        step(fig2.initial_configuration(), fig2.transitions[5])


def test_replay_acd_path(fig2):
    t = fig2.transitions
    run = replay(fig2, [t[0], t[2], t[5]])
    assert run.last == Configuration("q2", (BOTTOM, "A"))
    assert run.word() == ("a", "c", "d")


def test_replay_empty(fig2):
    run = replay(fig2, [])
    assert len(run) == 0 and run.last == fig2.initial_configuration()


def test_replay_reports_first_bad_index(fig2):
    t = fig2.transitions
    with pytest.raises(NotARun) as exc:
        replay(fig2, [t[0], t[5]])  # d needs top N, top is A
    assert exc.value.index == 1


def test_fig2_not_deterministic(fig2):
    ok, pairs = is_deterministic(fig2)
    assert not ok
    assert any({p[0].target, p[1].target} == {"q2", "q3"} for p in pairs)


def test_lss_not_deterministic():
    ok, pairs = is_deterministic(zoo.lss().automaton)
    assert not ok
    # the only nondeterministic choice is switching the state
    assert all(p[0].target != p[1].target for p in pairs)


def test_a_branch_restriction_deterministic(fig2):
    keep = [t for t in fig2.transitions if t.source not in ("q3", "q5")
            and t.target not in ("q3", "q5") and t.top != "B" and "B" not in t.push]
    sub = OmegaPDA(fig2.states, fig2.input_alphabet, fig2.stack_alphabet, fig2.initial,
                   tuple(t for t in keep if t.label != "b"))
    assert is_deterministic(sub)[0]


def test_check_visibly_repbdd():
    fx = zoo.repbdd()
    ok, diags = check_visibly(fx.automaton, fx.partition)
    assert ok, diags


def test_check_visibly_rejects_lss_any_partition():
    fx = zoo.lss()
    letters = list(fx.automaton.input_alphabet)
    ok, _ = check_visibly(fx.automaton, (letters, [], []))
    assert not ok


def test_check_visibly_rejects_epsilon():
    pda = zoo.palindrome().automaton
    ok, diags = check_visibly(pda, (["0"], ["1"], ["#"]))
    assert not ok and any("epsilon" in d for d in diags)


def test_check_visibly_bad_partition(fig2):
    with pytest.raises(BadPartition):
        check_visibly(fig2, (["a"], ["a"], ["b"]))


def test_parse_lasso_forms():
    w = parse_lasso("acd;#")
    assert w.prefix == ("a", "c", "d") and w.loop == ("#",)
    w = parse_lasso("(+,0) (-,-);(0,0)")
    assert w.prefix == ("(+,0)", "(-,-)") and w.loop == ("(0,0)",)
    assert parse_lasso(";a").prefix == ()


def _det(fx):
    return determinize_moore(fx.automaton, fx.resolver)


def test_text_format_round_trip_all_fixtures():
    # Every fixture, two determinized ones and 200 seeded random automata:
    # the same transitions in the same order, and the same text again.
    rng = random.Random(2024)
    automata = [fx.automaton for fx in zoo.all_fixtures()]
    automata += [_det(zoo.example23()), _det(zoo.figure1())]
    automata += [random_pda(rng) for _ in range(200)]
    for pda in automata:
        text = format_pda(pda)
        again = parse_pda(text)
        assert again == pda and again.transitions == pda.transitions
        assert format_pda(again) == text


# -- golden diagnostics of the automaton text format -----------------------

_HEAD = ["state q", "state p", "initial q", "letter a", "stacksym A"]
_T0 = "transition 0 (r,Z,b,s,Z,-1)"
# (case, lines after _HEAD, the exact FormatError text).
GOLDEN = [
    ("unknown source", ["trans r _ a q _ 0"],
     "transition 0 (r,_,a,q,_,0): unknown source"),
    ("unknown target", ["trans q _ a r _ 0"],
     "transition 0 (q,_,a,r,_,0): unknown target"),
    ("unknown letter", ["trans q _ b q _ 0"],
     "transition 0 (q,_,b,q,_,0): unknown letter"),
    ("unknown top", ["trans q Z a q eps 0"],
     "transition 0 (q,Z,a,q,eps,0): unknown top symbol"),
    ("negative color", ["trans q _ a q _ -1"],
     "transition 0 (q,_,a,q,_,-1): negative color"),
    ("push too long", ["trans q A a q A.A.A 0"],
     "transition 0 (q,A,a,q,A.A.A,0): push too long"),
    ("bottom deleted", ["trans q _ a q eps 0"],
     "transition 0 (q,_,a,q,eps,0): bottom deleted or buried"),
    ("bottom buried", ["trans q _ a q A._ 0"],
     "transition 0 (q,_,a,q,A._,0): bottom deleted or buried"),
    ("bottom written", ["trans q A a q _ 0"],
     "transition 0 (q,A,a,q,_,0): bottom written"),
    ("unknown push symbol", ["trans q A a q B 0"],
     "transition 0 (q,A,a,q,B,0): unknown push symbol"),
    # The symbols are checked before the bottom shape.
    ("unknown push symbol on the bottom", ["trans q _ a q _B 0"],
     "transition 0 (q,_,a,q,_B,0): unknown push symbol"),
    ("illegal identifiers", ["state x.y", "letter eps", "stacksym _", "trans q _ a q _ 0"],
     "state 'x.y' is not a legal identifier; letter 'eps' is not a legal identifier; "
     "stack symbol '_' is not a legal identifier"),
    ("duplicates", ["state q", "letter a", "stacksym A", "trans q _ a q _ 0"],
     "duplicate state declarations; duplicate letter declarations; "
     "duplicate stack symbol declarations"),
    ("undeclared initial", ["initial r", "trans q _ a q _ 0"],
     "initial state 'r' not declared"),
    ("six faults on one transition", ["trans r Z b s Z -1"],
     f"{_T0}: unknown source; {_T0}: unknown target; {_T0}: unknown letter; "
     f"{_T0}: unknown top symbol; {_T0}: negative color; {_T0}: unknown push symbol"),
    ("faults across transitions",
     ["trans q _ a q _ 0", "trans q A eps p A.B 2", "trans p _ eps q eps 1"],
     "transition 1 (q,A,eps,p,A.B,2): unknown push symbol; "
     "transition 2 (p,_,eps,q,eps,1): bottom deleted or buried"),
    ("declarations before transitions", ["state x.y", "state q", "trans q A b q A 0"],
     "state 'x.y' is not a legal identifier; duplicate state declarations; "
     "transition 0 (q,A,b,q,A,0): unknown letter"),
    ("non-integer color", ["trans q _ a q _ red"],
     "line 6: 'trans q _ a q _ red': invalid literal for int() with base 10: 'red'"),
]


@pytest.mark.parametrize("case,lines,message", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_format_errors_are_golden(case, lines, message):
    with pytest.raises(FormatError) as exc:
        parse_pda("\n".join(_HEAD + lines) + "\n")
    assert str(exc.value) == message


def test_missing_initial_is_golden():
    with pytest.raises(FormatError) as exc:
        parse_pda("state q\nletter a\ntrans q _ a q _ 0\n")
    assert str(exc.value) == "missing 'initial' declaration"


def test_parse_work_is_per_distinct_value(monkeypatch):
    # Each distinct push word is converted once, and validate checks the
    # distinct (top, push) shapes, not every transition, unless one is bad.
    # Six copies of det(example23), states renamed apart, share its shapes.
    one = _det(zoo.example23())
    copies = range(6)
    det = OmegaPDA(
        tuple(f"c{k}{q}" for k in copies for q in one.states), one.input_alphabet,
        one.stack_alphabet, f"c0{one.initial}",
        tuple(Transition(f"c{k}{t.source}", t.top, t.label, f"c{k}{t.target}", t.push, t.color)
              for k in copies for t in one.transitions))
    text = format_pda(det)
    calls = {"push": 0, "shape": 0}
    push_from_text, push_fault = core.push_from_text, core._push_fault

    def counting_push(text):
        calls["push"] += 1
        return push_from_text(text)

    def counting_fault(*args):
        calls["shape"] += 1
        return push_fault(*args)

    monkeypatch.setattr(core, "push_from_text", counting_push)
    monkeypatch.setattr(core, "_push_fault", counting_fault)
    assert parse_pda(text) == det
    shapes = {(t.top, t.push) for t in det.transitions}
    assert len(det.transitions) > 900 and len(shapes) < 100
    assert calls["push"] == len({t.push for t in det.transitions}) <= 10
    assert calls["shape"] == len(shapes)
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("trans"))
    fields = lines[k + 500].split()
    fields[3] = "zz"  # an undeclared letter
    lines[k + 500] = " ".join(fields)
    calls.update(shape=0)
    with pytest.raises(FormatError, match=r"^transition 500 \(\S+,zz,\S+\): unknown letter$"):
        parse_pda("\n".join(lines) + "\n")
    assert calls["shape"] == len(det.transitions)  # the walk ran to name the fault


def test_comment_and_blank_lines():
    text = "# a comment\n\n" + format_pda(zoo.allodd().automaton)
    assert parse_pda(text) == zoo.allodd().automaton


# -- properties ------------------------------------------------------------


def _random_run(pda, data, max_len=25):
    run = replay(pda, [])
    for _ in range(max_len):
        options = enabled(pda, run.last)
        if not options:
            break
        t = data.draw(st.sampled_from(options))
        run = replay(pda, run.transitions + (t,))
    return run


@st.composite
def fixture_runs(draw):
    fx = draw(st.sampled_from([f.name for f in zoo.all_fixtures()]))
    return zoo.get(fx).automaton, draw(st.data())


@given(st.sampled_from([f.name for f in zoo.all_fixtures()]), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_replay_identity_and_invariants(name, data):
    pda = zoo.get(name).automaton
    run = _random_run(pda, data)
    # replay of the extracted transition sequence is the identity
    assert replay(pda, run.transitions) == run
    for c, t, c2 in zip(run.configurations, run.transitions, run.configurations[1:]):
        # heights move by |push| - 1 and the bottom symbol stays put
        assert c2.height - c.height == len(t.push) - 1
        assert c2.stack[0] == BOTTOM and BOTTOM not in c2.stack[1:]


@given(st.sampled_from(["figure1", "example23", "twopump", "repbdd"]), st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_deterministic_means_single_choice(name, data):
    from gfgpda.resolvers import determinize_moore

    pda = zoo.get(name).automaton
    fx = zoo.get(name)
    if fx.resolver is not None and hasattr(fx.resolver, "states"):
        pda = determinize_moore(fx.automaton, fx.resolver)
    ok, _ = is_deterministic(pda)
    if not ok:
        return
    run = _random_run(pda, data, max_len=12)
    for c in run.configurations:
        by_label = {}
        for t in enabled(pda, c):
            by_label.setdefault(t.label, []).append(t)
        assert all(len(v) == 1 for v in by_label.values())
        if None in by_label:
            assert len(by_label) == 1
