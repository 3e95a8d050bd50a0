"""Benchmark of gfgpda: one closed-loop client, one process, four workloads.

    python3 benchmark/run.py --workload membership --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``.
Each run sets up its inputs several times (``setup_s`` is the median), then
issues whole corpus passes, one operation at a time, until ``--seconds`` have
passed and at least ``MIN_OPS`` operations were issued.  Every operation is
then checked against its reference (the correctness gate), outside the timed
region.  The last line of standard output is one JSON object; the lines
before it are a human-readable summary.

With ``--trace 1`` half of the time goes to untraced passes and half to
traced passes; the per-layer metrics come from the traced spans, and the
ratio of the two throughputs is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "gfgpda"
MODULES = ("core", "analysis", "resolvers", "closure", "games", "zoo", "cli")
SETUP_REPS = 9
MIN_OPS = 100
# On a shared 2-vCPU virtual machine the speed drifts by 20-40% for periods of
# seconds, as other tenants load the cores.  Every time is therefore scaled by
# CAL_REFERENCE_S / (time of ``calibrate()`` just before it), i.e. reported at
# the speed of a machine on which ``calibrate()`` takes CAL_REFERENCE_S.  The
# loop is benchmark code, so no change to the program can move it.  An
# operation longer than CAL_EVERY_S is scaled by the mean of the speeds
# sampled before and after it.
CAL_REFERENCE_S = 1.0e-3
CAL_EVERY_S = 0.1


@dataclass
class Record:
    pass_index: int
    kind: str
    key: tuple
    tag: str
    latency: float
    status: str  # value / ended / error
    verdict: object
    error: str
    op: object
    scale: float  # CAL_REFERENCE_S / calibration time when the operation ran
    check: str = ""  # set by the gate


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop that allocates small
    objects and tuples, fills a dict and sorts: the kind of work the program
    does."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        cells = [_Cell(i, (i % 7, f"s{i % 31}")) for i in range(1500)]
        index: dict = {}
        for c in cells:
            index.setdefault(c.b, []).append(c.a)
        sorted(index.items(), key=lambda kv: kv[0][1])
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Machine speed, sampled by ``calibrate()`` at most every CAL_EVERY_S."""

    def __init__(self):
        self.sampled_at = -math.inf
        self.scale = 1.0
        self.scales: list[float] = []

    def now(self, fresh: bool = False) -> float:
        if fresh or time.perf_counter() - self.sampled_at > CAL_EVERY_S:
            self.scale = CAL_REFERENCE_S / calibrate()
            self.scales.append(self.scale)
            self.sampled_at = time.perf_counter()
        return self.scale


def fresh_import() -> SimpleNamespace:
    """Import the program from scratch, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def run_passes(workload, ctx, seconds: float, records: list, speed: Speed, tracer=None):
    """Whole corpus passes until ``seconds`` have passed and ``MIN_OPS`` were issued.

    Returns (passes, elapsed seconds, peak resident MB after the first pass).
    Later passes repeat the same work, so the program's peak is reached in the
    first; only the benchmark's own records grow after it."""
    clock = time.perf_counter
    passes = 0
    issued = 0
    started = clock()
    while passes == 0 or clock() - started < seconds or issued < MIN_OPS:
        gc.collect()  # every pass starts with the same garbage-collector state
        gen = workload.pass_ops(ctx)
        outcome = None
        while True:
            try:
                op = gen.send(outcome)
            except StopIteration:
                break
            scale = speed.now()
            if tracer is not None:
                tracer.op = len(records)
            t0 = clock()
            try:
                raw, status, error = op.call(), "value", ""
            except op.ends as exc:
                raw, status, error = None, "ended", type(exc).__name__
            except Exception as exc:  # an unexpected exception fails the operation
                raw, status, error = None, "error", _where(exc)
            latency = clock() - t0
            if latency > CAL_EVERY_S:
                # A long operation may span a change of speed: use the mean of
                # the speeds sampled before and after it.
                scale = (scale + speed.now(fresh=True)) / 2
            verdict = None
            if status == "value":
                try:
                    verdict = op.verdict(raw)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    status, error = "error", f"unreadable output ({type(exc).__name__})"
            # Only the first pass keeps its operations (for the gate), so that
            # the records of later passes stay small for the garbage collector.
            records.append(Record(passes, op.kind, op.key, op.tag, latency, status, verdict,
                                  error, op if passes == 0 else None, scale))
            outcome = SimpleNamespace(raw=raw, verdict=verdict, status=status)
            issued += 1
        passes += 1
        if passes == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, clock() - started, peak_mb


def _where(exc: BaseException) -> str:
    """Exception type and the innermost frame that raised it."""
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return type(exc).__name__
    return f"{type(exc).__name__} at {os.path.basename(frames[-1].filename)}:{frames[-1].lineno}"


def gate(records: list) -> None:
    """Check every operation against its reference; sets ``record.check``.

    The reference check runs once per distinct operation; later passes must
    repeat the first verdict."""
    ops = {(r.kind, r.key): r.op for r in records if r.op is not None}
    first: dict = {}
    for r in records:
        if r.status == "error":
            r.check = "error"
        elif r.status == "ended":
            r.check = "undecided"
        else:
            ident = (r.kind, r.key)
            if ident not in first:
                first[ident] = (r.verdict, ops[ident].check(r.verdict))
            verdict, check = first[ident]
            r.check = check if r.verdict == verdict else "wrong: verdict differs between passes"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(records) -> dict:
    """End-to-end figures of one phase.

    Counts are over every operation issued.  Times are scaled to the
    reference speed (see CAL_REFERENCE_S), and each distinct operation counts
    once, with the median of its scaled times over the passes."""
    samples: dict = collections.defaultdict(list)
    bad: set = set()
    for r in records:
        samples[(r.kind, r.key)].append(r.latency * r.scale)
        if r.check == "error" or r.check.startswith("wrong"):
            bad.add((r.kind, r.key))
    latencies = [statistics.median(v) for v in samples.values()]
    attempted = len(records)
    failed = sum(1 for r in records if r.check == "error" or r.check.startswith("wrong"))
    return {
        "attempted": attempted,
        "failed": failed,
        "decided": sum(1 for r in records if r.check in ("ok", "unchecked")),
        "unchecked": sum(1 for r in records if r.check == "unchecked"),
        "undecided": sum(1 for r in records if r.check == "undecided"),
        "distinct": len(samples),
        "ops_per_s": (len(samples) - len(bad)) / sum(latencies),
        "raw_ops_per_s": (attempted - failed) / sum(r.latency for r in records),
        "op_p50_ms": 1000 * percentile(latencies, 0.5),
        "op_p90_ms": 1000 * percentile(latencies, 0.9),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: {os.path.join(SRC, PACKAGE)} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), tracing)
    print(json.dumps(result))
    return 0


def measure(workload, seed: int, seconds: float, trace: bool, tracing, size: float = 1.0,
            report=print) -> dict:
    """One benchmark run; returns the result object that ``main`` prints."""
    workroot = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        speed = Speed()
        setup_times = []
        for rep in range(SETUP_REPS):
            gc.collect()
            factor = speed.now(fresh=True)
            t0 = time.perf_counter()
            api = fresh_import()
            if os.path.dirname(os.path.abspath(api.core.__file__)) != os.path.join(SRC, PACKAGE):
                raise RuntimeError(f"imported {api.core.__file__}, not the checkout's program")
            workdir = os.path.join(workroot, str(rep))
            os.mkdir(workdir)
            ctx = workload.setup(api, seed, workdir, size)
            elapsed = time.perf_counter() - t0
            setup_times.append(elapsed * (factor + speed.now(fresh=True)) / 2)

        # A traced run gives half its time to the untraced passes and half to
        # the traced ones, so that it takes as long as an untraced run.
        phase_seconds = seconds / 2 if trace else seconds
        records: list = []
        passes, elapsed, peak_rss_mb = run_passes(workload, ctx, phase_seconds, records, speed)
        traced: list = []
        if trace:
            tracer = tracing.Tracer()
            tracer.install(PACKAGE)
            try:
                traced_passes, _, _ = run_passes(workload, ctx, phase_seconds, traced, speed,
                                                 tracer)
            finally:
                tracer.uninstall()
        gate(records + traced)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    s = summarize(records)
    kinds = collections.Counter(r.kind for r in records if r.pass_index == 0)
    report(f"workload {workload.name}  seed {seed}  passes {passes}  "
           f"timed {elapsed:.2f} s  operations per pass: "
           + ", ".join(f"{k} {v}" for k, v in kinds.items()))
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_p90_ms": (s["op_p90_ms"], "ms"),
        "ok_share": (1 - s["failed"] / s["attempted"], "ratio"),
        "decided_share": (s["decided"] / s["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in e2e.items():
        report(f"  {name:<16} {value:12.6g} {unit}")
    report(f"  {'fail_share':<16} {s['failed'] / s['attempted']:12.6g} ratio"
           f"  ({s['failed']} of {s['attempted']} operations failed)")
    report(f"  times: median of {passes} passes for each of {s['distinct']} distinct operations, "
           f"at the reference speed; unscaled {s['raw_ops_per_s']:.6g} operations/s, "
           f"machine speed {statistics.median(speed.scales):.3f} of the reference")
    report(f"  {s['attempted']} operations: "
           f"{s['decided']} decided ({s['unchecked']} without an independent reference), "
           f"{s['undecided']} ended without a verdict")
    causes = collections.Counter(
        (r.kind, r.error or r.check) for r in records + traced
        if r.check == "error" or r.check.startswith("wrong"))
    by_kind = collections.defaultdict(list)
    for r in records:
        by_kind[r.kind].append(r.latency)
    for kind, lat in by_kind.items():
        report(f"  {kind:<14} n {len(lat):6d}  unscaled median "
               f"{1000 * statistics.median(lat):10.3f} ms  max {1000 * max(lat):10.3f} ms  "
               f"total {sum(lat):8.3f} s")
    for (kind, cause), count in sorted(causes.items()):
        report(f"  failure: {kind}: {cause} x{count}")
    correct = not any(r.check.startswith("wrong") for r in records + traced)

    if trace:
        layer = tracing.layer_metrics(tracer.spans, traced, traced_passes)
        traced_rate = summarize(traced)["ops_per_s"]
        layer["trace.overhead"] = (s["ops_per_s"] / traced_rate, "x")
        layer["trace.spans"] = (len(tracer.spans) / traced_passes, "count")
        layer["trace.missing"] = (len(tracer.missing), "count")
        for name in tracer.missing:
            report(f"  MISSING traced function {name}: its metrics read 0")
        if tracer.size_errors:
            report(f"  {tracer.size_errors} size readings failed; those sizes read 0")
        for name, (value, unit) in layer.items():
            report(f"  {name:<36} {value:14.6g} {unit}")
        metrics = layer
    else:
        metrics = e2e
    return {
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
