"""Command-line front end.

Subcommands: validate, member, empty, tailset, universal, solve, synth,
determinize, product, play, zoo.  Automaton arguments accept ``zoo:<name>``
pseudo-paths.  Exit codes: 0 ok, 1 negative verdict, 2 usage, 3 resource
budget exceeded, 4 malformed input, 5 engine error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import analysis, closure, games, zoo
from .core import (
    FormatError,
    OmegaPDA,
    PdaError,
    format_pda,
    parse_lasso,
    parse_pda,
)
from .games import Player1Wins, ResourceExceeded
from .resolvers import determinize_moore, parse_moore

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4
EXIT_ENGINE = 5


class CommandResult:
    def __init__(self, exit_code: int, human: str, report: Optional[dict] = None):
        self.exit_code = exit_code
        self.human = human
        self.report = report or {}


def say(text: str) -> None:
    """Print ``text``; once the reader has gone, stdout points at devnull, so
    that later prints and the flush at exit cannot fail."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def load_pda(path: str) -> OmegaPDA:
    if path.startswith("zoo:"):
        return zoo.get(path[4:]).automaton
    return parse_pda(read_text(path))


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_validate(args) -> CommandResult:
    load_pda(args.file)  # parse_pda raises FormatError on any diagnostic; zoo fixtures are valid
    return CommandResult(EXIT_OK, "valid", {"verdict": "valid"})


def cmd_member(args) -> CommandResult:
    pda = load_pda(args.file)
    word = parse_lasso(args.lasso)
    accepted = analysis.lasso_membership(pda, word)
    verdict = "accepted" if accepted else "rejected"
    return CommandResult(EXIT_OK if accepted else EXIT_NEGATIVE, verdict,
                         {"verdict": verdict})


def cmd_empty(args) -> CommandResult:
    pda = load_pda(args.file)
    witness = analysis.parity_nonempty(pda)
    if witness is None:
        return CommandResult(EXIT_NEGATIVE, "empty", {"verdict": "empty"})
    index = {t: i for i, t in enumerate(pda.transitions)}
    wit = {
        "stem": [index[t] for t in witness.stem],
        "loop": [index[t] for t in witness.loop],
    }
    return CommandResult(
        EXIT_OK,
        f"nonempty; witness stem {wit['stem']} loop {wit['loop']}",
        {"verdict": "nonempty", "witness": wit},
    )


def cmd_tailset(args) -> CommandResult:
    pda = load_pda(args.file)
    pa = analysis.accepts_tail_of(pda, args.letter)
    nonempty = pa.nonempty()
    verdict = "nonempty" if nonempty else "empty"
    lines = [verdict]
    if not args.json:  # the P-automaton is printed only as text
        initial, final, edges = pa.bottom_first()
        lines += [f"pa-initial {initial}", f"pa-final {final}"]
        lines += [f"pa-edge {s} {sym} {t}" for s, sym, t in sorted(edges)]
    return CommandResult(EXIT_OK if nonempty else EXIT_NEGATIVE, "\n".join(lines),
                         {"verdict": verdict})


def _game_verdict(spec, budget: int, eve_wins: tuple, player1_wins: str) -> CommandResult:
    """Solve ``spec``'s game: ``eve_wins`` is the (text, JSON verdict) if Player 2
    wins; else ``player1_wins``, inconclusive unless the condition is claimed GFG."""
    result = games.solve_gale_stewart(spec, budget)
    stats = result.solve.stats
    if result.winner == games.EVE:
        return CommandResult(EXIT_OK, eve_wins[0], {"verdict": eve_wins[1], "stats": stats})
    verdict = player1_wins if result.sound else f"{player1_wins} (inconclusive: not claimed good-for-games)"
    return CommandResult(EXIT_NEGATIVE, verdict, {"verdict": verdict, "stats": stats})


def cmd_universal(args) -> CommandResult:
    spec = games.make_universality_spec(load_pda(args.file), gfg_claimed=not args.not_gfg)
    return _game_verdict(spec, args.budget, ("universal", "universal"), "non-universal")


def cmd_solve(args) -> CommandResult:
    spec = games.parse_gs_spec(read_text(args.specfile))
    return _game_verdict(spec, args.budget, ("player 2 wins", "player2"), "player 1 wins")


def cmd_synth(args) -> CommandResult:
    spec = games.parse_gs_spec(read_text(args.specfile))
    try:
        strategy = games.synthesize_strategy_pdt(spec, args.budget)
    except Player1Wins as exc:
        return CommandResult(EXIT_NEGATIVE, str(exc), {"verdict": "player1"})
    text = games.format_strategy_pdt(strategy)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return CommandResult(
        EXIT_OK,
        f"strategy with {len(strategy.machine.states)} states written to {args.output}",
        {"verdict": "synthesized"},
    )


def cmd_determinize(args) -> CommandResult:
    pda = load_pda(args.file)
    moore = parse_moore(pda, read_text(args.moorefile))
    out = determinize_moore(pda, moore, args.budget)
    return CommandResult(EXIT_OK, format_pda(out), {"verdict": "ok"})


def cmd_product(args) -> CommandResult:
    pda = load_pda(args.file)
    dpa = closure.parse_dpa(read_text(args.dpafile))
    out = closure.product(pda, dpa, args.mode, args.budget)
    return CommandResult(EXIT_OK, format_pda(out), {"verdict": "ok"})


def cmd_play(args) -> CommandResult:
    spec = games.parse_gs_spec(read_text(args.specfile))
    strategy = games.parse_strategy_pdt(read_text(args.strategyfile))
    if set(strategy.input_alphabet) != set(spec.sigma1):
        raise FormatError(f"strategy reads {' '.join(strategy.input_alphabet)}, "
                          f"not sigma1 {' '.join(spec.sigma1)}")
    if not set(strategy.output_alphabet) <= set(spec.sigma2):
        raise FormatError(f"strategy writes {' '.join(strategy.output_alphabet)}, "
                          f"not within sigma2 {' '.join(spec.sigma2)}")
    cfg = strategy.machine.start()
    transcript = []
    say(f"enter letters from {' '.join(spec.sigma1)} (:quit to stop)")
    for line in sys.stdin:
        letter = line.strip()
        if letter == ":quit":
            break
        if letter not in spec.sigma1:
            say(f"unknown letter {letter!r}")
            continue
        cfg, answer = strategy.round(cfg, letter)
        transcript.append(games.pair_id(letter, answer))
        say(answer)
    return CommandResult(EXIT_OK, "transcript: " + " ".join(transcript),
                         {"verdict": "played"})


def cmd_zoo(args) -> CommandResult:
    if args.action == "list":
        names = sorted(zoo.ZOO)
        return CommandResult(EXIT_OK, "\n".join(names), {"verdict": "ok"})
    fixture = zoo.get(args.name)
    return CommandResult(EXIT_OK, format_pda(fixture.automaton), {"verdict": "ok"})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    p = argparse.ArgumentParser(prog="gfgpda")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--budget", type=int, default=5_000_000,
                   help="vertex budget of universal, solve and synth, state budget of "
                        "determinize and product; the other commands ignore it")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate");  s.add_argument("file"); s.set_defaults(fn=cmd_validate)
    s = sub.add_parser("member");    s.add_argument("file"); s.add_argument("lasso")
    s.set_defaults(fn=cmd_member)
    s = sub.add_parser("empty");     s.add_argument("file"); s.set_defaults(fn=cmd_empty)
    s = sub.add_parser("tailset");   s.add_argument("file"); s.add_argument("letter")
    s.set_defaults(fn=cmd_tailset)
    s = sub.add_parser("universal"); s.add_argument("file")
    s.add_argument("--not-gfg", action="store_true",
                   help="do not claim the automaton good-for-games")
    s.set_defaults(fn=cmd_universal)
    s = sub.add_parser("solve");     s.add_argument("specfile"); s.set_defaults(fn=cmd_solve)
    s = sub.add_parser("synth");     s.add_argument("specfile")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=cmd_synth)
    s = sub.add_parser("determinize"); s.add_argument("file"); s.add_argument("moorefile")
    s.set_defaults(fn=cmd_determinize)
    s = sub.add_parser("product");   s.add_argument("file"); s.add_argument("dpafile")
    s.add_argument("--mode", choices=closure.MODES, required=True)
    s.set_defaults(fn=cmd_product)
    s = sub.add_parser("play");      s.add_argument("specfile"); s.add_argument("strategyfile")
    s.set_defaults(fn=cmd_play)
    s = sub.add_parser("zoo")
    s.add_argument("action", choices=["list", "dump"])
    s.add_argument("name", nargs="?")
    s.set_defaults(fn=cmd_zoo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "zoo" and args.action == "dump" and not args.name:
        parser.error("zoo dump needs a fixture name")
    started = time.monotonic()
    try:
        result = args.fn(args)
    except ResourceExceeded as exc:
        result = CommandResult(EXIT_RESOURCE, f"resource budget exceeded: {exc}",
                               {"verdict": "resource-exceeded"})
    except (FormatError, OSError, KeyError, ValueError) as exc:
        result = CommandResult(EXIT_INPUT, f"input error: {exc}", {"verdict": "input-error"})
    except PdaError as exc:
        result = CommandResult(EXIT_ENGINE, f"engine error: {exc}", {"verdict": "engine-error"})
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.json:
        stats = result.report.pop("stats", {})
        stats.setdefault("vertices", 0)
        stats["time_ms"] = elapsed_ms
        doc = {
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items()
                       if k in ("file", "lasso", "letter", "specfile", "strategyfile",
                                "moorefile", "dpafile", "mode", "name", "action")
                       and v is not None},
            "verdict": result.report.get("verdict", ""),
            "stats": stats,
        }
        if "witness" in result.report:
            doc["witness"] = result.report["witness"]
        text = json.dumps(doc, sort_keys=True)
    else:
        text = result.human
    say(text)  # if the reader has gone, the command's exit code stands
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
