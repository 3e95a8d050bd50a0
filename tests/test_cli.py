import argparse
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import gfgpda
from gfgpda import analysis, cli, games, zoo
from gfgpda.core import BOTTOM, Configuration, FormatError, format_pda, parse_pda
from gfgpda.resolvers import determinize_moore, format_moore, parse_moore

from helpers import copycat_spec, cycle_dpa, eps_block_spec, random_spec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_member_accepted(capsys):
    code, out = run(capsys, "member", "zoo:example23", "acd;#")
    assert code == 0 and "accepted" in out


def test_member_rejected_exit_one(capsys):
    code, out = run(capsys, "member", "zoo:example23", "acdd;#")
    assert code == 1 and "rejected" in out


def test_universal_figure1(capsys):
    code, out = run(capsys, "universal", "zoo:figure1")
    assert code == 0 and "universal" in out


def test_universal_example23(capsys):
    code, out = run(capsys, "universal", "zoo:example23")
    assert code == 1


def test_empty_allodd(capsys):
    code, out = run(capsys, "empty", "zoo:allodd")
    assert code == 1 and "empty" in out


def test_empty_witness(capsys):
    code, out = run(capsys, "empty", "zoo:example23")
    assert code == 0 and "nonempty" in out


def test_validate_and_input_error(capsys, tmp_path):
    code, _ = run(capsys, "validate", "zoo:figure1")
    assert code == 0
    bad = tmp_path / "bad.pda"
    bad.write_text("initial q\ntrans q _ a q _ 0\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 4 and "input error" in out


def test_missing_file_is_input_error(capsys):
    code, out = run(capsys, "member", "/nonexistent.pda", ";a")
    assert code == 4


def test_unreadable_paths_are_input_errors(capsys, tmp_path):
    code, out = run(capsys, "validate", str(tmp_path))
    assert code == 4 and "input error" in out
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    code, out = run(capsys, "synth", str(specfile), "-o", str(tmp_path))
    assert code == 4 and "input error" in out


def test_second_main_builds_no_parser(capsys, monkeypatch):
    run(capsys, "zoo", "list")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _ = run(capsys, "member", "zoo:example23", "acd;#")
    assert code == 0 and built == []


def test_tailset(capsys):
    code, out = run(capsys, "tailset", "zoo:example23", "#")
    assert code == 0 and "pa-edge" in out
    # Heads with a pushed top symbol get witnesses that replay from that head.
    code, out = run(capsys, "tailset", "zoo:lss", "(0,+)")
    assert code == 0 and out.startswith("nonempty")
    code, out = run(capsys, "tailset", "zoo:example23", "z")
    assert code == 4 and out == "input error: 'z' not in the input alphabet\n"


def test_json_tailset_prints_no_automaton(capsys, monkeypatch):
    # Under --json the printed P-automaton is never built.
    argv = ["--json", "tailset", "zoo:example23", "#"]
    docs = []
    for patched in (False, True):
        if patched:
            def refuse(self):
                raise AssertionError("bottom_first under --json")

            monkeypatch.setattr(analysis.PAutomaton, "bottom_first", refuse)
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        doc["stats"].pop("time_ms")
        docs.append((code, doc))
    assert docs[0] == docs[1] and docs[0][1]["verdict"] == "nonempty"


def _printed_pa(text):
    """Acceptance test of the printed ``pa-*`` lines over words ``stack + (state,)``."""
    initial, finals, edges = None, set(), {}
    for line in text.splitlines():
        kind, *fields = line.split()
        if kind == "pa-initial":
            initial = fields[0]
        elif kind == "pa-final":
            finals.add(fields[0])
        elif kind == "pa-edge":
            edges.setdefault((fields[0], fields[1]), set()).add(fields[2])

    def accepts(config):
        frontier = {initial}
        for sym in config.stack + (config.state,):
            frontier = {t for s in frontier for t in edges.get((s, sym), ())}
        return bool(frontier & finals)

    return accepts


def test_printed_tailset_matches_library(capsys, tmp_path):
    automata = [(f"zoo:{fx.name}", fx.automaton) for fx in zoo.all_fixtures()]
    for name in ("example23", "figure1"):
        fx = zoo.get(name)
        det = determinize_moore(fx.automaton, fx.resolver)
        path = tmp_path / f"det-{name}.pda"
        path.write_text(format_pda(det))
        automata.append((str(path), det))
    for path, pda in automata:
        configs = [
            Configuration(q, (BOTTOM,) + word)
            for q in pda.states
            for h in range(3)
            for word in itertools.product(pda.stack_alphabet, repeat=h)
        ]
        for letter in pda.input_alphabet:
            library = analysis.accepts_tail_of(pda, letter)
            code, out = run(capsys, "tailset", path, letter)
            printed = _printed_pa(out)
            accepted = [c for c in configs if library.accepts(c)]
            assert [c for c in configs if printed(c)] == accepted, (path, letter)
            assert code == (0 if accepted else 1), (path, letter)


def test_zoo_list_and_dump(capsys):
    code, out = run(capsys, "zoo", "list")
    assert code == 0 and "example23" in out
    code, out = run(capsys, "zoo", "dump", "figure1")
    assert code == 0
    assert parse_pda(out) == zoo.figure1().automaton


def test_zoo_dump_without_a_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["zoo", "dump"])
    lines = capsys.readouterr().err.splitlines()
    assert exc.value.code == 2 and lines[0].startswith("usage: gfgpda")
    assert lines[-1] == "gfgpda: error: zoo dump needs a fixture name"


def test_inputs_missing_a_part_are_input_errors(capsys, tmp_path, monkeypatch):
    # A lasso without ';' or with an empty loop, and a DPA, Moore machine or
    # strategy without its initial state: exit 4, and the first line says why.
    fx = zoo.example23()
    dfile = tmp_path / "no-initial.dpa"
    dfile.write_text("dstate d0\n" + "".join(
        f"dletter {a}\ndtrans d0 {a} d0 2\n" for a in fx.automaton.input_alphabet))
    mfile = tmp_path / "no-initial.moore"
    mfile.write_text("".join(line + "\n" for line in format_moore(
        fx.automaton, fx.resolver).splitlines() if not line.startswith("minitial ")))
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    tfile = tmp_path / "no-initial.pdt"
    tfile.write_text("tstate s0\ntout s0 x\ntinput a b\ntoutput x y\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    for argv, first in [
        (["member", "zoo:example23", "acd#"], "lasso word needs a ';' separator: 'acd#'"),
        (["member", "zoo:example23", "acd;"], "lasso loop must be nonempty: 'acd;'"),
        (["product", "zoo:example23", str(dfile), "--mode", "union"],
         "missing 'dinitial' declaration"),
        (["determinize", "zoo:example23", str(mfile)], "missing 'minitial' declaration"),
        (["play", str(specfile), str(tfile)], "missing 'tinitial' declaration"),
    ]:
        code, out = run(capsys, *argv)
        assert (code, out.splitlines()[0]) == (4, f"input error: {first}"), argv


def test_moore_names_must_be_declared(capsys, tmp_path):
    # An undeclared Moore state in minitial, mtrans or mout, and an undeclared
    # letter or top in mout: a FormatError naming it, and exit 4.
    fx = zoo.example23()
    lines = format_moore(fx.automaton, fx.resolver).splitlines()
    _, m, a, top, i = next(line for line in lines if line.startswith("mout ")).split()
    mfile = tmp_path / "bad.moore"
    for extra, first in [
        ("minitial zz", "minitial names undeclared Moore state 'zz'"),
        (f"mtrans {m} {i} zz", "mtrans names undeclared Moore state 'zz'"),
        (f"mtrans zz {i} {m}", "mtrans names undeclared Moore state 'zz'"),
        (f"mout zz {a} {top} {i}", "mout names undeclared Moore state 'zz'"),
        (f"mout {m} zz {top} {i}", "mout names undeclared letter 'zz'"),
        (f"mout {m} {a} ZZ {i}", "mout names undeclared top 'ZZ'"),
    ]:
        text = "\n".join(lines + [extra]) + "\n"
        with pytest.raises(FormatError) as exc:
            parse_moore(fx.automaton, text)
        assert str(exc.value) == first
        mfile.write_text(text)
        code, out = run(capsys, "determinize", "zoo:example23", str(mfile))
        assert (code, out.splitlines()[0]) == (4, f"input error: {first}"), extra


def test_closed_pipe_keeps_the_exit_code():
    # A reader that has gone (as in `| head -1`) ends the output, not the
    # command: the exit code is the command's own and stderr stays empty.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfgpda.__file__)))
    for argv, want in ((["zoo", "dump", "example23"], 0),
                       (["member", "zoo:example23", "acdd;#"], 1),
                       (["--json", "member", "zoo:example23", "acd;#"], 0)):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "gfgpda.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (want, b""), argv


def test_play_on_a_closed_pipe_keeps_the_exit_code(tmp_path):
    # play prints its prompt and each answer as the rounds go; a reader that
    # has gone ends that output too, not the command.
    specfile, strategyfile = tmp_path / "copycat.gs", tmp_path / "copycat.pdt"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    strategy = games.synthesize_strategy_pdt(copycat_spec())
    strategyfile.write_text(games.format_strategy_pdt(strategy))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfgpda.__file__)))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "gfgpda.cli", "play", str(specfile),
                               str(strategyfile)], input=b"a\nb\nzz\n:quit\n", stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


def test_play_strategy_without_output_is_engine_error(capsys, tmp_path, monkeypatch):
    # A round reaches a state with no tout line: exit 5, as README documents.
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    strategyfile = tmp_path / "mute.pdt"
    strategyfile.write_text("tstate s0\ntstate s1\ntinitial s0\nttrans s0 _ a s1 _\n"
                            "tout s0 x\ntinput a b\ntoutput x y\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert (code, out.splitlines()[-1]) == (5, "engine error: strategy output undefined at s1")


@pytest.mark.parametrize("old,new,error", [
    ("tout s3 #", "tout s3 zz", "tout names undeclared output letter 'zz'"),
    ("ttrans s0 _ a s1 _", "ttrans s0 _ q s1 _", "ttrans names undeclared input letter 'q'"),
    ("tinput a b", "tinput a b c", "strategy reads a b c, not sigma1 a b"),
    ("toutput #", "toutput # x", "strategy writes # x, not within sigma2 #"),
], ids=["tout", "ttrans", "tinput", "toutput"])
def test_play_strategy_with_other_letters_is_input_error(capsys, tmp_path, monkeypatch,
                                                        old, new, error):
    # figure1's universality strategy with one line changed: refused before
    # any round, not answered in one (tout) or stuck in one (ttrans).
    spec = games.make_universality_spec(zoo.figure1().automaton)
    text = games.format_strategy_pdt(games.synthesize_strategy_pdt(spec))
    assert text.count(old + "\n") == 1
    specfile, strategyfile = tmp_path / "u.gs", tmp_path / "other.pdt"
    specfile.write_text(games.format_gs_spec(spec))
    strategyfile.write_text(text.replace(old + "\n", new + "\n"))
    monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\na\n"))
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert (code, out.splitlines()[-1]) == (4, f"input error: {error}")


def test_json_report_schema(capsys):
    code, out = run(capsys, "--json", "member", "zoo:example23", "acd;#")
    doc = json.loads(out)
    assert doc["command"] == "member"
    assert doc["verdict"] == "accepted"
    assert "time_ms" in doc["stats"] and "vertices" in doc["stats"]


def test_json_stats_say_which_bound_decided(capsys, tmp_path):
    # Spec 7 of the seed-940 spec corpus needs the claim game; figure1's
    # universality game is decided by the height-1 truncation.
    base = random.Random(940)
    spec = [random_spec(base) for _ in range(8)][7]
    path = tmp_path / "spec7.gs"
    path.write_text(games.format_gs_spec(spec))
    code, out = run(capsys, "--json", "solve", str(path))
    stats = json.loads(out)["stats"]
    assert code == 0 and stats["decided_by"] == "claims" and stats["height"] == 3
    assert 0 < stats["claim_vertices"] < stats["vertices"]
    code, out = run(capsys, "--json", "universal", "zoo:figure1")
    stats = json.loads(out)["stats"]
    assert code == 0 and stats["decided_by"] == "truncation" and stats["height"] == 1
    assert stats["claim_vertices"] == 0 and stats["vertices"] > 0


def test_json_stable(capsys):
    _, out1 = run(capsys, "--json", "empty", "zoo:example23")
    _, out2 = run(capsys, "--json", "empty", "zoo:example23")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1["stats"].pop("time_ms"), d2["stats"].pop("time_ms")
    assert d1 == d2


def test_determinize(capsys, tmp_path):
    from gfgpda.resolvers import format_moore

    fx = zoo.example23()
    mfile = tmp_path / "fig6.moore"
    mfile.write_text(format_moore(fx.automaton, fx.resolver))
    code, out = run(capsys, "determinize", "zoo:example23", str(mfile))
    assert code == 0
    d = parse_pda(out)
    assert len(d.states) == 42  # the states reachable from the initial one


def test_product(capsys, tmp_path):
    from gfgpda.closure import DeterministicParityAutomaton, format_dpa

    pda = zoo.example23().automaton
    dpa = DeterministicParityAutomaton(
        ("d0",), pda.input_alphabet, "d0",
        {("d0", a): "d0" for a in pda.input_alphabet},
        {("d0", a): 2 for a in pda.input_alphabet},
    )
    dfile = tmp_path / "all.dpa"
    dfile.write_text(format_dpa(dpa))
    code, out = run(capsys, "product", "zoo:example23", str(dfile), "--mode", "intersect")
    assert code == 0 and parse_pda(out).initial


def test_product_and_determinize_count_states_against_the_budget(capsys, tmp_path):
    from gfgpda.closure import format_dpa
    from gfgpda.resolvers import format_moore

    fx = zoo.example23()
    dfile = tmp_path / "cycle.dpa"
    dfile.write_text(format_dpa(cycle_dpa(fx.automaton.input_alphabet)))
    code, out = run(capsys, "--budget", "3", "product", "zoo:example23", str(dfile),
                    "--mode", "union")
    assert code == 3 and "4 states exceed the budget 3" in out
    code, out = run(capsys, "--budget", "100", "product", "zoo:example23", str(dfile),
                    "--mode", "union")
    assert code == 0 and len(parse_pda(out).states) <= 100
    mfile = tmp_path / "fig6.moore"
    mfile.write_text(format_moore(fx.automaton, fx.resolver))
    code, out = run(capsys, "--budget", "41", "determinize", "zoo:example23", str(mfile))
    assert code == 3 and "42 states exceed the budget 41" in out
    code, out = run(capsys, "--budget", "42", "determinize", "zoo:example23", str(mfile))
    assert code == 0 and len(parse_pda(out).states) == 42


def test_product_alphabet_mismatch_is_input_error(capsys, tmp_path):
    from gfgpda.closure import DeterministicParityAutomaton, format_dpa

    dpa = DeterministicParityAutomaton(
        ("d0",), ("a", "b"), "d0", {("d0", "a"): "d0", ("d0", "b"): "d0"},
        {("d0", "a"): 2, ("d0", "b"): 2},
    )
    dfile = tmp_path / "ab.dpa"
    dfile.write_text(format_dpa(dpa))
    code, out = run(capsys, "product", "zoo:example23", str(dfile), "--mode", "union")
    assert code == 4 and "input error" in out


def test_product_undeclared_dpa_target_is_input_error(capsys, tmp_path):
    dfile = tmp_path / "bad.dpa"
    dfile.write_text("dstate d0\ndinitial d0\n" + "".join(
        f"dletter {a}\ndtrans d0 {a} d0 2\n" for a in zoo.example23().automaton.input_alphabet
    ) + "dtrans d0 a d9 2\n")
    code, out = run(capsys, "product", "zoo:example23", str(dfile), "--mode", "intersect")
    assert code == 4 and "state 'd9' not declared" in out


def test_solve_and_synth_and_play(capsys, tmp_path, monkeypatch):
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    code, out = run(capsys, "solve", str(specfile))
    assert code == 0 and "player 2" in out

    strategyfile = tmp_path / "copycat.pdt"
    code, out = run(capsys, "synth", str(specfile), "-o", str(strategyfile))
    assert code == 0 and strategyfile.exists()

    monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\nzzz\n:quit\n"))
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert code == 0
    assert "x" in out and "y" in out and "unknown letter" in out
    assert "transcript: (a,x) (b,y)" in out


def test_solve_adam_spec(capsys, tmp_path):
    spec = games.make_universality_spec(zoo.example23().automaton)
    specfile = tmp_path / "fig2u.gs"
    specfile.write_text(games.format_gs_spec(spec))
    code, out = run(capsys, "solve", str(specfile))
    assert code == 1 and "player 1" in out
    code, out = run(capsys, "--json", "synth", str(specfile), "-o", str(tmp_path / "no.pdt"))
    assert code == 1 and json.loads(out)["verdict"] == "player1"


def test_gfg_claim_typo_is_input_error(capsys, tmp_path):
    # A misspelt claim must not read as false, which would turn a sound
    # Player 1 win into an inconclusive one.
    text = games.format_gs_spec(games.make_universality_spec(zoo.example23().automaton))
    specfile = tmp_path / "fig2u.gs"
    for claim, code, verdict in (("YES", 1, "player 1 wins"), ("1", 1, "player 1 wins"),
                                 ("No", 1, "player 1 wins (inconclusive"),
                                 ("0", 1, "player 1 wins (inconclusive"),
                                 ("ture", 4, "input error: line")):
        specfile.write_text(text.replace("gfg true", f"gfg {claim}"))
        got, out = run(capsys, "solve", str(specfile))
        assert got == code and out.startswith(verdict), (claim, out)
    assert "gfg takes true/1/yes or false/0/no, not 'ture'" in out


def test_deterministic_player1_wins_are_sound(capsys, tmp_path):
    # A deterministic condition is good-for-games whatever the spec claims:
    # parity2 takes the direct game, an epsilon step keeps the block game.
    odd = games.format_gs_spec(eps_block_spec()).replace("(a,z) v _ 2", "(a,z) v _ 1")
    specfile = tmp_path / "det.gs"
    for text in (games.format_gs_spec(games.make_universality_spec(zoo.get("parity2").automaton)),
                 odd):
        specfile.write_text(text.replace("gfg true", "gfg false"))
        code, out = run(capsys, "solve", str(specfile))
        assert code == 1 and out == "player 1 wins\n", out


def test_synth_input_error_is_not_player1(capsys, tmp_path, monkeypatch):
    # Only a Player 1 win is a negative synthesis verdict; a ValueError
    # raised while synthesizing reports bad input.
    def fail(spec, budget):
        raise ValueError("nondeterministic rules")

    monkeypatch.setattr(games, "synthesize_strategy_pdt", fail)
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    code, out = run(capsys, "--json", "synth", str(specfile), "-o", str(tmp_path / "no.pdt"))
    assert code == 4 and json.loads(out)["verdict"] == "input-error"


def test_engine_error_exit_five(capsys, tmp_path, monkeypatch):
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    strategyfile = tmp_path / "stuck.pdt"
    strategyfile.write_text("tstate s0\ntinitial s0\ntinput a b\ntoutput x y\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert code == 5 and "engine error" in out


def test_play_undeclared_transducer_state_is_input_error(capsys, tmp_path):
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    strategyfile = tmp_path / "bad.pdt"
    strategyfile.write_text("tstate s0\ntinitial s9\ntinput a b\ntoutput x y\n")
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert code == 4 and "input error: tinitial names undeclared state 's9'" in out


def test_play_nondeterministic_transducer_is_input_error(capsys, tmp_path, monkeypatch):
    # An epsilon rule beside a letter rule at the same head: the machine is
    # refused when the file is read, before any round is played.
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    strategyfile = tmp_path / "nondet.pdt"
    strategyfile.write_text("tstate s0\ntinitial s0\nttrans s0 _ a s0 _\nttrans s0 _ eps s0 _\n"
                            "tout s0 x\ntinput a b\ntoutput x y\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert code == 4 and "input error: nondeterministic transducer rules" in out


def test_play_strategy_deleting_the_bottom_is_input_error(capsys, tmp_path, monkeypatch):
    # Refused when the file is read, not when the first round pops the bottom.
    specfile = tmp_path / "copycat.gs"
    specfile.write_text(games.format_gs_spec(copycat_spec()))
    strategyfile = tmp_path / "pop.pdt"
    strategyfile.write_text("tstate s0\ntinitial s0\ntstacksym X\nttrans s0 _ a s0 eps\n"
                            "tout s0 x\ntinput a b\ntoutput x y\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    code, out = run(capsys, "play", str(specfile), str(strategyfile))
    assert code == 4 and out.startswith("input error: rule 0 ")
    assert "bottom deleted or buried" in out and "enter letters" not in out


def test_budget_flag_resource_exit(capsys, tmp_path):
    spec = games.make_universality_spec(zoo.example23().automaton)
    specfile = tmp_path / "fig2u.gs"
    specfile.write_text(games.format_gs_spec(spec))
    code, out = run(capsys, "--budget", "3", "solve", str(specfile))
    assert code == 3 and "budget" in out
