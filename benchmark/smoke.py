"""Reduced-size self-check of the benchmark.

    python3 benchmark/smoke.py

For every workload, at a tenth of the corpus size, it checks that

* every metric named in BENCHMARK.json is reported, with its unit, in the
  untraced (end-to-end) and the traced (per-layer) result;
* two seeds give different input files but the same number of operations of
  each type in a pass;
* the correctness gate finds no wrong verdict.

It also checks that ``run.py`` exits with an error, and prints no result, in
a directory that holds only BENCHMARK.json and the benchmark's own files.
Exits with 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

SIZE = 0.1
SEEDS = (3, 4)


def one_pass_kinds(workload, seed: int) -> tuple[dict, collections.Counter]:
    workdir = tempfile.mkdtemp(prefix=".work-smoke-", dir=run.HERE)
    try:
        ctx = workload.setup(run.fresh_import(), seed, workdir, SIZE)
        records: list = []
        run.run_passes(workload, ctx, 0.0, records, run.Speed())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ctx.inputs, collections.Counter(r.kind for r in records if r.pass_index == 0)


def check_metrics(result: dict, declared: list, label: str, problems: list) -> None:
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            problems.append(f"{label}: metric {m['name']} not reported")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got[m['name']]['unit']}, "
                            f"declared {m['unit']}")


def check_bare_directory(problems: list) -> None:
    bare = tempfile.mkdtemp(prefix=".work-bare-", dir=run.HERE)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            command = json.load(fh)["command"]
        out = subprocess.run(
            command + ["--workload", "membership", "--seed", "1", "--seconds", "1",
                       "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            problems.append("run.py succeeded or printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, run.SRC)
    import tracing
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from {list(workloads.WORKLOADS)}")
    for name in names:
        workload = workloads.WORKLOADS[name]
        lines: list = []
        plain = run.measure(workload, SEEDS[0], 0.0, False, tracing, SIZE, lines.append)
        traced = run.measure(workload, SEEDS[0], 0.0, True, tracing, SIZE, lines.append)
        check_metrics(plain, spec["end_to_end"], name, problems)
        check_metrics(traced, spec["per_layer"], f"{name} (traced)", problems)
        for result in (plain, traced):
            if not result["correct"]:
                problems.append(f"{name}: the gate found a wrong verdict")
        inputs_a, kinds_a = one_pass_kinds(workload, SEEDS[0])
        inputs_b, kinds_b = one_pass_kinds(workload, SEEDS[1])
        if inputs_a == inputs_b:
            problems.append(f"{name}: seeds {SEEDS} give the same inputs")
        if kinds_a != kinds_b:
            problems.append(f"{name}: operations per type differ between seeds: "
                            f"{dict(kinds_a)} vs {dict(kinds_b)}")
        print(f"{name}: {dict(kinds_a)}; {len(inputs_a)} input files", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print("PROBLEM:", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
