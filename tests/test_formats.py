"""The five text formats share one declaration reader: exact field counts,
line-numbered FormatErrors, and no other exception type on malformed input."""

import pytest

from gfgpda import cli, zoo
from gfgpda.closure import DeterministicParityAutomaton, format_dpa, parse_dpa
from gfgpda.core import FormatError, format_pda, parse_pda, push_from_text, read_declarations
from gfgpda.games import (
    format_gs_spec,
    format_strategy_pdt,
    make_universality_spec,
    parse_gs_spec,
    parse_strategy_pdt,
    synthesize_strategy_pdt,
)
from gfgpda.resolvers import format_moore, parse_moore
from helpers import copycat_spec

VARIADIC = {"sigma1", "sigma2", "tinput", "toutput"}


def _dpa() -> DeterministicParityAutomaton:
    letters = ("a", "b")
    return DeterministicParityAutomaton(
        ("d0", "d1"), letters, "d0",
        {(q, a): ("d1" if a == "b" else q) for q in ("d0", "d1") for a in letters},
        {(q, a): (2 if q == "d1" else 1) for q in ("d0", "d1") for a in letters},
    )


def _cases():
    """(name, text, parse) per writer-produced text."""
    for fx in zoo.all_fixtures():
        yield f"pda:{fx.name}", format_pda(fx.automaton), parse_pda
    for fx in (zoo.figure1(), zoo.example23()):
        pda = fx.automaton
        yield (f"moore:{fx.name}", format_moore(pda, fx.resolver),
               lambda text, pda=pda: parse_moore(pda, text))
    yield "dpa", format_dpa(_dpa()), parse_dpa
    yield ("gs:figure1", format_gs_spec(make_universality_spec(zoo.figure1().automaton)),
           parse_gs_spec)
    yield ("pdt:copycat", format_strategy_pdt(synthesize_strategy_pdt(copycat_spec())),
           parse_strategy_pdt)


CASES = list(_cases())


@pytest.mark.parametrize("name,text,parse", CASES, ids=[c[0] for c in CASES])
def test_wrong_field_counts_name_their_line(name, text, parse):
    parse(text)  # the unmutated text is valid
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        for mutated in (fields[:-1], fields + ["extra"]):
            bad = "\n".join(lines[:i] + [" ".join(mutated)] + lines[i + 1:]) + "\n"
            if fields[0] in VARIADIC:
                try:
                    parse(bad)
                except FormatError:
                    pass
                continue
            with pytest.raises(FormatError, match=rf"^line {i + 1}: "):
                parse(bad)


def test_reader_skips_comments_and_blank_lines():
    seen = []
    read_declarations("# header\n\n  #x y\nkey a b\n   \nkey c d # not a comment\n",
                      {"key": (None, lambda tokens: seen.append(tuple(tokens[1:])))})
    assert seen == [("a", "b"), ("c", "d", "#", "not", "a", "comment")]


def test_reader_errors_carry_line_and_reason():
    handlers = {"one": (2, lambda tokens: int(tokens[1]))}
    with pytest.raises(FormatError, match=r"^line 3: 'two x': unknown declaration 'two'$"):
        read_declarations("one 1\n\ntwo x\n", handlers)
    with pytest.raises(FormatError, match=r"^line 1: 'one 1 2': 'one' takes 1 field"):
        read_declarations("one 1 2\n", handlers)
    with pytest.raises(FormatError, match=r"^line 2: 'one x': invalid literal"):
        read_declarations("one 1\none x\n", handlers)

    def lookup(tokens):
        return {}[tokens[1]]

    with pytest.raises(FormatError, match=r"^line 1: 'k z': unknown 'z'$"):
        read_declarations("k z\n", {"k": (2, lookup)})


@pytest.mark.parametrize("name,text,parse", CASES, ids=[c[0] for c in CASES])
def test_comments_and_blank_lines_before_each_declaration(name, text, parse):
    # A comment reaches the reader's count-mismatch branch under every keyword table.
    lines = text.splitlines()
    commented = "".join(f"# {line}\n\n{line}\n" for line in lines)
    assert parse(commented) == parse(text)
    variadic = {line.split()[0] for line in lines} & {"sigma1", "tinput"}
    for keyword in variadic:  # no fields: the line adds nothing
        assert parse(text + keyword + "\n") == parse(text)
    assert bool(variadic) == name.startswith(("gs:", "pdt:"))


def test_spec_errors_use_the_files_line_numbers():
    # Spec lines first: the condition lines are read in place, not re-joined
    # without the spec lines before them.
    text = format_gs_spec(make_universality_spec(zoo.figure1().automaton))
    cond = [line for line in text.splitlines() if line.split()[0] in
            ("state", "initial", "letter", "stacksym", "trans")]
    lines = ["# spec"] + [line for line in text.splitlines() if line not in cond] + cond
    n = len(lines) - 1
    lines[n] = lines[n].rsplit(" ", 1)[0] + " red"
    with pytest.raises(FormatError, match=rf"^line {n + 1}: "):
        parse_gs_spec("\n".join(lines))


@pytest.mark.parametrize("short", ["pair (a,#)", "gfg"])
def test_solve_short_spec_line_is_input_error(capsys, tmp_path, short):
    text = format_gs_spec(make_universality_spec(zoo.figure1().automaton))
    specfile = tmp_path / "short.gs"
    specfile.write_text(text + short + "\n")
    code = cli.main(["solve", str(specfile)])
    out = capsys.readouterr()
    n = len(text.splitlines()) + 1
    assert code == 4 and f"input error: line {n}: " in out.out
    assert "Traceback" not in out.err


@pytest.mark.parametrize("line,named", [
    ("dtrans d0 a d9 2", "state 'd9'"),
    ("dtrans d7 b d0 1", "state 'd7'"),
    ("dtrans d0 c d1 1", "letter 'c'"),
])
def test_dpa_transitions_use_declared_names(line, named):
    with pytest.raises(FormatError, match=f"{named} not declared"):
        parse_dpa(format_dpa(_dpa()) + line + "\n")


@pytest.mark.parametrize("line,kind,state", [
    ("tinitial s9", "tinitial", "s9"),
    ("tout s5 x", "tout", "s5"),
    ("ttrans s3 _ a s0 _", "ttrans", "s3"),
    ("ttrans s0 _ a s4 _", "ttrans", "s4"),
])
def test_strategy_transducer_uses_declared_states(line, kind, state):
    text = "tstate s0\ntinitial s0\ntinput a\ntoutput x\n"
    parse_strategy_pdt(text)
    with pytest.raises(FormatError, match=f"^{kind} names undeclared state '{state}'$"):
        parse_strategy_pdt(text + line + "\n")


STRATEGY_HEAD = "tstate s0\ntinitial s0\ntstacksym X\ntout s0 b\ntinput a\ntoutput b\n"


@pytest.mark.parametrize("top,push,fault", [
    ("_", "eps", "bottom deleted or buried"),
    ("_", "Y", "unknown push symbol"),
    ("X", "_", "bottom written"),
    ("_", "_Q", "unknown push symbol"),
    ("Q", "X", "unknown top symbol"),
    ("_", "X.X.X", "bottom deleted or buried"),
])
def test_strategy_rules_keep_the_stack_shape(top, push, fault):
    # Rules come first: the declarations they are checked against may follow.
    rule = f"ttrans s0 {top} a s0 {push}\n"
    with pytest.raises(FormatError, match=rf"^rule 0 \(s0,{top},a,s0,.*\): {fault}$"):
        parse_strategy_pdt(rule + STRATEGY_HEAD)


@pytest.mark.parametrize("top,push", [("_", "_X.X"), ("X", "eps"), ("X", "X.X.X")])
def test_strategy_rules_may_push_long_words(top, push):
    text = f"ttrans s0 {top} a s0 {push}\n" + STRATEGY_HEAD
    assert parse_strategy_pdt(text).machine.transitions[0].push == push_from_text(push)


# Tokens the writers never print: each is an input error naming its line,
# so that every text the readers accept prints back as it was read.
@pytest.mark.parametrize("push,color,reason", [
    ("_.", "1_0", "push word '_.' must be written '_'"),
    ("_", "1_0", "color '1_0' must be written '10'"),
    ("_", "+2", "color '+2' must be written '2'"),
    ("_", "٣", "color '٣' must be written '3'"),
    ("_.X", "1", "push word '_.X' must be written '_X'"),
])
def test_non_canonical_tokens_are_input_errors(push, color, reason):
    head = "state p\ninitial p\nletter a\nstacksym X\n"
    line = f"trans p _ a p {push} {color}"
    with pytest.raises(FormatError) as exc:
        parse_pda(head + line + "\n")
    assert str(exc.value) == f"line 5: {line!r}: {reason}"


def test_non_canonical_tokens_in_transducers_and_dpas():
    text = "tstate s0\ntinitial s0\ntstacksym X\ntinput a\ntoutput x\n"
    machine = parse_strategy_pdt(text + "ttrans s0 _ a s0 _X\n").machine
    assert machine.transitions[0].push == ("_", "X")
    with pytest.raises(FormatError, match=r"^line 6: .*push word '_\.X' must be written '_X'$"):
        parse_strategy_pdt(text + "ttrans s0 _ a s0 _.X\n")
    dpa = format_dpa(_dpa())
    for color in ("+2", "1_0", "٣"):
        bad = dpa.replace("dtrans d0 a d0 1", f"dtrans d0 a d0 {color}")
        with pytest.raises(FormatError) as exc:
            parse_dpa(bad)
        assert str(exc.value).startswith(f"line 6: 'dtrans d0 a d0 {color}': color '{color}'")


def test_non_canonical_token_is_cli_input_error(capsys, tmp_path):
    path = tmp_path / "bad.pda"
    path.write_text("state p\ninitial p\nletter a\ntrans p _ a p _ +2\n")
    assert cli.main(["validate", str(path)]) == 4
    assert "input error: line 4: " in capsys.readouterr().out
