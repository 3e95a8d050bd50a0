"""Layer benchmark of gfgpda, first layer: parsing and validation.

    python3 scripts/bench.py [OUTPUT.json]

Run from anywhere; the program is imported from the ``src/`` of this
checkout.  Every time is the best of five raw repeats (no calibration), in
milliseconds per call, measured in this one process.  Inputs come from the
zoo and from seeded generators below, so two runs read the same texts.  The
report goes to OUTPUT.json (default ``BENCH.json``) and, in short, to
standard output.  Run it on two commits on the same machine to compare them.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gfgpda import analysis, closure, core, games, resolvers, zoo  # noqa: E402

REPEATS = 5
MIN_REPEAT_S = 0.02
SERIES_LINES = (250, 500, 1000, 2000, 4000)
SERIES_SEED = 7


def best_ms(fns: dict) -> dict:
    """Best of REPEATS repeats of each function, in ms per call.  The repeats
    of the functions are interleaved, so that a slow spell of the machine
    falls on all of them, and each repeat is long enough to time."""
    counts = {}
    for name, fn in fns.items():
        fn()  # warm lazy set-up
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
        counts[name] = max(1, int(MIN_REPEAT_S / max(once, 1e-7)))
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(REPEATS):
        for name, fn in fns.items():
            n, start = counts[name], time.perf_counter()
            for _ in range(n):
                fn()
            best[name] = min(best[name], (time.perf_counter() - start) / n)
    return {name: t * 1e3 for name, t in best.items()}


def generated_pda_text(lines: int, rng: random.Random) -> str:
    """A valid automaton with ``lines`` trans lines: states grow with the
    lines, four letters, three stack symbols, colors 0-5, every push shape."""
    states = [f"q{i}" for i in range(max(2, lines // 10))]
    letters, stack = ["a", "b", "c", "d"], ["X", "Y", "Z"]
    out = [f"state {q}" for q in states] + [f"initial {states[0]}"]
    out += [f"letter {a}" for a in letters] + [f"stacksym {x}" for x in stack]
    for _ in range(lines):
        top = rng.choice(["_"] + stack)
        if top == "_":
            push = rng.choice(["_"] + [f"_{x}" for x in stack])
        else:
            push = rng.choice(["eps"] + stack + [f"{x}.{y}" for x in stack for y in stack])
        label = rng.choice(["eps"] + letters)
        out.append(f"trans {rng.choice(states)} {top} {label} {rng.choice(states)} {push} "
                   f"{rng.randrange(6)}")
    return "\n".join(out) + "\n"


def parse_layer() -> dict:
    # The gate of ROADMAP item 5: one parse against one tail-set query.
    ex23 = zoo.example23()
    det23 = resolvers.determinize_moore(ex23.automaton, ex23.resolver)
    det23_text = core.format_pda(det23)
    fns = {"parse": lambda: core.parse_pda(det23_text)}
    fns.update({a: lambda a=a: analysis.accepts_tail_of(det23, a) for a in det23.input_alphabet})
    tails = best_ms(fns)
    parse = tails.pop("parse")
    gate = {"transitions": len(det23.transitions), "parse_ms": parse,
            "accepts_tail_of_ms": tails,
            "parse_over_slowest_tail": parse / max(tails.values()),
            "parse_over_fastest_tail": parse / min(tails.values())}

    rng = random.Random(SERIES_SEED)
    texts = {lines: generated_pda_text(lines, rng) for lines in SERIES_LINES}
    for text in texts.values():
        core.parse_pda(text)  # raises if the generator wrote an invalid automaton
    times = best_ms({lines: lambda t=text: core.parse_pda(t) for lines, text in texts.items()})
    series = [{"lines": lines, "parse_ms": times[lines],
               "growth": None if i == 0 else times[lines] / times[SERIES_LINES[i - 1]]}
              for i, lines in enumerate(SERIES_LINES)]

    # Each of the five readers on a text its writer printed.
    lss, fig1 = zoo.lss().automaton, zoo.figure1()
    letters = lss.input_alphabet
    dpa = closure.DeterministicParityAutomaton(
        ("d",), letters, "d", {("d", a): "d" for a in letters},
        {("d", a): i % 2 for i, a in enumerate(letters)})
    spec = games.make_universality_spec(fig1.automaton)
    texts = {
        "pda:lss": (core.parse_pda, core.format_pda(lss)),
        "moore:example23": (lambda t: resolvers.parse_moore(ex23.automaton, t),
                            resolvers.format_moore(ex23.automaton, ex23.resolver)),
        "dpa:lss-letters": (closure.parse_dpa, closure.format_dpa(dpa)),
        "gs:universality-figure1": (games.parse_gs_spec, games.format_gs_spec(spec)),
        "pdt:universality-figure1": (games.parse_strategy_pdt, games.format_strategy_pdt(
            games.synthesize_strategy_pdt(spec))),
    }
    times = best_ms({name: lambda r=read, t=text: r(t) for name, (read, text) in texts.items()})
    readers = {name: {"lines": text.count("\n"), "parse_ms": times[name]}
               for name, (_, text) in texts.items()}
    zoo_ms = best_ms({fx.name: lambda t=core.format_pda(fx.automaton): core.parse_pda(t)
                      for fx in zoo.all_fixtures()})
    return {"det_example23": gate, "series": series, "readers": readers, "zoo_parse_ms": zoo_ms}


def main(argv: list[str]) -> int:
    out = argv[1] if len(argv) > 1 else "BENCH.json"
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "repeats": REPEATS, "series_seed": SERIES_SEED, "parse": parse_layer()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    gate = report["parse"]["det_example23"]
    print(f"parse det(example23): {gate['parse_ms']:.3f} ms, "
          f"{gate['parse_over_slowest_tail']:.2f}-{gate['parse_over_fastest_tail']:.2f}x "
          f"one accepts_tail_of")
    for row in report["parse"]["series"]:
        growth = "" if row["growth"] is None else f"  x{row['growth']:.2f}"
        print(f"parse {row['lines']:5d} trans lines: {row['parse_ms']:.3f} ms{growth}")
    for name, row in report["parse"]["readers"].items():
        print(f"{name}: {row['parse_ms']:.3f} ms ({row['lines']} lines)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
