import argparse
import io
import itertools
import json
import random

from gfgpda import analysis, cli, games, zoo
from gfgpda.core import BOTTOM, Configuration, format_pda, parse_pda
from gfgpda.resolvers import determinize_moore

from helpers import copycat_spec, random_spec


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
    assert len(d.states) == 6 * 8 * 6


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


def test_budget_flag_resource_exit(capsys, tmp_path):
    spec = games.make_universality_spec(zoo.example23().automaton)
    specfile = tmp_path / "fig2u.gs"
    specfile.write_text(games.format_gs_spec(spec))
    code, out = run(capsys, "--budget", "3", "solve", str(specfile))
    assert code == 3 and "budget" in out
