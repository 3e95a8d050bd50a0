"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``TRACED`` by a
wrapper, wherever the name is bound: in its own module and in every
``gfgpda`` module that imported it by name.  Calls through a module
attribute, including function-local ``from .core import ...`` imports,
therefore reach the wrapper.  Per-transition helpers such as ``core.step``
are not wrapped.  ``uninstall`` puts the original functions back.

A span is ``[name, start, end, parent, op, size, error]``; spans stay in
memory until the run ends.  Self time is a span's duration minus the
durations of its direct children (calls are nested on one thread).  Times
are scaled to the benchmark's reference speed like the end-to-end times.
"""

from __future__ import annotations

import statistics
import sys
import time


def _lasso_product(args, r):
    return {"states": len(r.states), "transitions": len(r.transitions)}


def _nonempty(args, r):
    return {"witness": 0 if r is None else len(r.stem) + len(r.loop)}


def _tailset(args, r):
    pda = args[0]
    return {"heads": len(pda.states) * len(pda.gamma_bottom)}


def _saturate(args, r):
    return {"edges": len(r.edges)}


def _run(args, r):
    return {"transitions": len(r.run.transitions)}


def _verify(args, r):
    return {"inconclusive": sum(1 for e in r.entries if e[2] == "inconclusive")}


def _product(args, r):
    return {"states": len(r[0].states), "transitions": len(r[0].transitions)}


def _build_pd(args, r):
    return {"states": len(r[0].states), "transitions": len(r[0].transitions)}


def _arena(args, r):
    return {"states": len(r.states), "moves": len(r.moves)}


def _pushdown(args, r):
    return {"vertices": r.stats["vertices"], "height": r.stats["height"]}


def _finite(args, r):
    return {"vertices": len(args[0].vertices), "edges": len(args[0].edges)}


def _synth(args, r):
    return {"states": len(r.machine.states)}


def _play(args, r):
    return {"rounds": r.positions()}


# (module, function, span name, sizer).  Several functions may share a span name.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("core", "parse_pda", "core.parse", None),
    ("core", "parse_lasso", "core.parse", None),
    ("core", "replay", "core.replay", None),
    ("analysis", "lasso_membership", "analysis.membership", None),
    ("analysis", "lasso_product", "analysis.lasso_product", _lasso_product),
    ("analysis", "parity_nonempty", "analysis.nonempty", _nonempty),
    ("analysis", "accepts_tail_of", "analysis.tailset", _tailset),
    ("analysis", "saturate_pre_star", "analysis.saturate", _saturate),
    ("resolvers", "ext", "resolvers.ext", None),
    ("resolvers", "run_on_prefix", "resolvers.run", _run),
    ("resolvers", "verify_resolver", "resolvers.verify", _verify),
    ("resolvers", "periodic_split", "resolvers.periodic", None),
    ("resolvers", "determinize_moore", "resolvers.determinize", None),
    ("closure", "product_with_info", "closure.product", _product),
    ("games", "build_pd", "games.build_pd", _build_pd),
    ("games", "gs_to_pushdown_game", "games.arena", _arena),
    ("games", "solve_pushdown_parity_game", "games.pushdown_solve", _pushdown),
    ("games", "solve_finite_parity_game", "games.finite_solve", _finite),
    ("games", "solve_gale_stewart", "games.gs_solve", None),
    ("games", "synthesize_strategy_pdt", "games.synth", _synth),
    ("games", "simulate_play", "games.play", _play),
)

NAME, START, END, PARENT, OP, SIZE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # index of the operation being run
        self.missing: list[str] = []
        self.size_errors = 0
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, sizer):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = exc
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if sizer is not None:
                try:
                    span[SIZE] = sizer(args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.size_errors += 1
            return result

        return traced

    def install(self, package: str = "gfgpda") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, name, sizer in TRACED:
            home = sys.modules.get(f"{package}.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(fn, name, sizer)
            for mod in modules:
                if getattr(mod, fn_name, None) is fn:
                    setattr(mod, fn_name, wrapper)
                    self._restore.append((mod, fn_name, fn))

    def uninstall(self) -> None:
        for mod, fn_name, fn in reversed(self._restore):
            setattr(mod, fn_name, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.
# ---------------------------------------------------------------------------

SERIES_TAGS = ("u8", "u16", "u32", "u64")
RUN_TAGS = ("L250", "L500", "L1000", "L2000")


def layer_metrics(spans: list, ops: list, passes: int) -> dict:
    """Per-pass layer metrics.  ``ops[i]`` is the record of operation ``i``
    (with ``kind``, ``key``, ``tag`` and ``pass_index``)."""
    n = max(passes, 1)
    # Durations at the reference speed of the benchmark (see run.CAL_REFERENCE_S).
    dur = [(s[END] - s[START]) * ops[s[OP]].scale for s in spans]
    children: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]] = children.get(s[PARENT], 0.0) + dur[i]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, self_time=False, where=None):
        out = 0.0
        for i in idx(name):
            s = spans[i]
            if where is None or where(ops[s[OP]]):
                out += dur[i] - (children.get(i, 0.0) if self_time else 0.0)
        return out / n

    def calls(name):
        return len(idx(name)) / n

    def size(name, field, agg=sum):
        values = [spans[i][SIZE][field] for i in idx(name) if spans[i][SIZE]]
        if agg is sum:
            return sum(values) / n
        return agg(values) if values else 0

    def per_word(name, tag):
        """Median over passes of the mean span time in operations tagged ``tag``."""
        per_pass: dict[int, list[float]] = {}
        for i in idx(name):
            op = ops[spans[i][OP]]
            if op.tag == tag:
                per_pass.setdefault(op.pass_index, []).append(dur[i])
        if not per_pass:
            return 0.0
        return statistics.median(sum(v) / len(v) for v in per_pass.values())

    def under(i, test):
        """Does some enclosing span of span ``i`` pass ``test``?"""
        p = spans[i][PARENT]
        while p >= 0:
            if test(p):
                return True
            p = spans[p][PARENT]
        return False

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("cli.main_s", total("cli.main", self_time=True), "s")
    put("cli.main_calls", calls("cli.main"), "count")
    put("core.parse_s", total("core.parse"), "s")
    put("core.parse_calls", calls("core.parse"), "count")
    put("core.replay_s", total("core.replay"), "s")
    put("core.replay_calls", calls("core.replay"), "count")

    put("analysis.membership_s", total("analysis.membership"), "s")
    put("analysis.membership_calls", calls("analysis.membership"), "count")
    put("analysis.lasso_product_s", total("analysis.lasso_product"), "s")
    put("analysis.product_states", size("analysis.lasso_product", "states"), "count")
    put("analysis.product_transitions", size("analysis.lasso_product", "transitions"), "count")
    put("analysis.nonempty_s", total("analysis.nonempty"), "s")
    put("analysis.nonempty_calls", calls("analysis.nonempty"), "count")
    put("analysis.witness_transitions", size("analysis.nonempty", "witness"), "count")
    previous = None
    for tag in SERIES_TAGS:
        value = per_word("analysis.membership", tag)
        put(f"analysis.membership_s.{tag}", value, "s")
        if previous is not None:
            put(f"analysis.membership_growth.{tag}", value / previous if previous else 0.0, "x")
        previous = value

    put("analysis.tailset_s", total("analysis.tailset"), "s")
    put("analysis.tailset_calls", calls("analysis.tailset"), "count")
    put("analysis.saturate_s", total("analysis.saturate"), "s")
    put("analysis.pa_edges", size("analysis.saturate", "edges"), "count")
    # Waste ratio on the determinized example23: parity_nonempty calls per
    # tail-set call, against its base, the number of heads (one call per head).
    det = [i for i in idx("analysis.tailset")
           if ops[spans[i][OP]].kind == "det_tailset" and ops[spans[i][OP]].key[0] == "example23"]
    det_set = set(det)
    nested = sum(under(i, det_set.__contains__) for i in idx("analysis.nonempty"))
    put("analysis.nonempty_per_tailset", nested / len(det) if det else 0.0, "count")
    put("analysis.tailset_heads",
        max((spans[i][SIZE]["heads"] for i in det if spans[i][SIZE]), default=0), "count")

    put("resolvers.ext_s", total("resolvers.ext"), "s")
    put("resolvers.ext_calls", calls("resolvers.ext"), "count")
    put("resolvers.run_transitions", size("resolvers.run", "transitions"), "count")
    previous = None
    for tag in RUN_TAGS:
        value = per_word("resolvers.run", tag)
        put(f"resolvers.run_s.{tag}", value, "s")
        if previous is not None:
            put(f"resolvers.run_growth.{tag}", value / previous if previous else 0.0, "x")
        previous = value
    put("resolvers.verify_s", total("resolvers.verify"), "s")
    put("resolvers.verify_calls", calls("resolvers.verify"), "count")
    put("resolvers.periodic_s", total("resolvers.periodic"), "s")
    put("resolvers.inconclusive", size("resolvers.verify", "inconclusive"), "count")
    put("resolvers.determinize_s", total("resolvers.determinize"), "s")

    put("closure.product_s", total("closure.product"), "s")
    put("closure.product_states", size("closure.product", "states"), "count")
    put("closure.product_transitions", size("closure.product", "transitions"), "count")
    put("closure.lifted_verify_s",
        total("resolvers.verify", where=lambda op: op.tag == "lifted"), "s")

    put("games.build_pd_s", total("games.build_pd"), "s")
    put("games.pd_states", size("games.build_pd", "states"), "count")
    put("games.pd_transitions", size("games.build_pd", "transitions"), "count")
    put("games.arena_s", total("games.arena"), "s")
    put("games.arena_states", size("games.arena", "states"), "count")
    put("games.arena_moves", size("games.arena", "moves"), "count")
    put("games.pushdown_solve_s", total("games.pushdown_solve", self_time=True), "s")
    pushdown_calls = calls("games.pushdown_solve")
    put("games.pushdown_solve_calls", pushdown_calls, "count")
    vertices = 0
    for i in idx("games.pushdown_solve"):
        # A budget-exceeded solve reports its vertex count in the message.
        words = str(spans[i][ERROR] or "").split()
        if spans[i][SIZE]:
            vertices += spans[i][SIZE]["vertices"]
        elif words and words[0].isdigit():
            vertices += int(words[0])
    put("games.truncated_vertices", vertices / n, "count")
    put("games.max_height", size("games.pushdown_solve", "height", max), "count")
    put("games.finite_solve_s", total("games.finite_solve"), "s")
    put("games.finite_solve_calls", calls("games.finite_solve"), "count")
    put("games.finite_vertices", size("games.finite_solve", "vertices"), "count")
    put("games.finite_edges", size("games.finite_solve", "edges"), "count")
    in_pushdown = sum(under(i, lambda p: spans[p][NAME] == "games.pushdown_solve")
                      for i in idx("games.finite_solve")) / n
    put("games.finite_per_pushdown", in_pushdown / pushdown_calls if pushdown_calls else 0.0,
        "count")
    put("games.undecided",
        sum(1 for i in idx("games.pushdown_solve")
            if type(spans[i][ERROR]).__name__ == "ResourceExceeded") / n, "count")
    put("games.synth_s", total("games.synth", self_time=True), "s")
    # Waste ratio: Gale-Stewart solves per specification that Eve wins, against
    # its base, the number of such specifications (ideally one solve each).
    eve = {op.key for op in ops if op.kind == "synth"}
    solves = sum(1 for i in idx("games.gs_solve")
                 if ops[spans[i][OP]].kind in ("gs_solve", "synth")
                 and ops[spans[i][OP]].key in eve)
    put("games.solves_per_spec", solves / n / len(eve) if eve else 0.0, "count")
    put("games.eve_specs", len(eve), "count")
    put("games.strategy_states", size("games.synth", "states"), "count")
    put("games.play_s", total("games.play"), "s")
    put("games.play_rounds", size("games.play", "rounds"), "count")
    return m
