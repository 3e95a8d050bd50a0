"""The four benchmark workloads.

Each workload builds its inputs once per set-up (``setup``) and then yields
one corpus pass of operations at a time (``pass_ops``).  A pass is a closed
loop: the generator receives each operation's outcome before it yields the
next, so later operations can use earlier results (a synthesized strategy is
played, a determinized automaton is analysed).

An operation's ``call`` is what is timed: it parses its text inputs through
the program's public parsers and calls the public API.  ``verdict`` turns
the raw result into a small comparable value, and ``check`` compares that
value with a reference that is not the timed path; both run outside the
timed region.  ``check`` returns one of

* ``"ok"``: decided and agreeing with the reference;
* ``"unchecked"``: decided, with no independent reference (Adam wins);
* ``"undecided"``: ended without a verdict (budget, guard, inconclusive);
* ``"wrong: <reason>"``: disagrees with the reference, a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Hashable

import corpus

BUDGET = 5_000  # solver vertex budget of the games workload
# verify_resolver guard of the guided workload.  The default guard of 5,000
# made verify_resolver on 55 lss words take 295 s.
GUARD = 1_000
ORACLE_HEIGHT = 12  # brute-force lasso oracle bounds used by the gate
ORACLE_NODES = 60_000


def _unchecked(_verdict) -> str:
    return "unchecked"


def _identity(raw):
    return raw


@dataclass
class Op:
    kind: str
    key: tuple  # identifies the input; equal across passes
    call: Callable[[], Any]
    verdict: Callable[[Any], Hashable] = _identity
    check: Callable[[Hashable], str] = _unchecked
    tag: str = ""  # groups operations for the per-layer metrics
    ends: tuple = ()  # exception types that end the operation without a verdict


@dataclass
class Context:
    api: SimpleNamespace
    workdir: str
    inputs: dict = field(default_factory=dict)  # file name -> text
    data: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        """Write an input file; returns its text."""
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.inputs[name] = text
        return text


def _lasso_text(api, w) -> str:
    text = str(w)
    if api.core.parse_lasso(text) != w:
        raise ValueError(f"lasso {text!r} does not round-trip through parse_lasso")
    return text


def _has_even_color(pda) -> bool:
    return any(t.color % 2 == 0 for t in pda.transitions)


def _check_witness(api, pda, stem_idx, loop_idx) -> str:
    """Replay an emptiness witness with core.replay and check that it pumps."""
    ts = pda.transitions
    stem = [ts[i] for i in stem_idx]
    loop = [ts[i] for i in loop_idx]
    if not loop:
        return "wrong: empty witness loop"
    try:
        run = api.core.replay(pda, stem + loop + loop)
    except api.core.PdaError as exc:
        return f"wrong: witness does not replay ({type(exc).__name__})"
    k, n = len(stem), len(loop)
    c0 = run.configurations[k]
    for c in (run.configurations[k + n], run.configurations[k + 2 * n]):
        if (c.state, c.top) != (c0.state, c0.top) or c.height < c0.height:
            return "wrong: witness loop does not pump"
    if min(c.height for c in run.configurations[k:]) < c0.height:
        return "wrong: witness loop dips below its start"
    if all(t.label is None for t in loop) or max(t.color for t in loop) % 2:
        return "wrong: witness loop is not accepting"
    return "ok"


def _emptiness_check(api, pda, nonempty_expected: bool):
    def check(verdict) -> str:
        if verdict is None:
            if nonempty_expected:
                return "wrong: empty, but the sampler has an accepted word"
            return "ok" if not _has_even_color(pda) else "unchecked"
        return _check_witness(api, pda, *verdict)

    return check


def _oracle(api, pda, w):
    return api.analysis.brute_force_lasso_oracle(pda, w, ORACLE_HEIGHT, ORACLE_NODES)


def _run_cli(api, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli.main(argv)
    return code, out.getvalue()


def _pa_accepts(text: str, config) -> bool:
    """Acceptance of a configuration by the P-automaton the CLI printed."""
    initial, finals, edges = None, set(), {}
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["pa-initial"]:
            initial = parts[1]
        elif parts[:1] == ["pa-final"]:
            finals.add(parts[1])
        elif parts[:1] == ["pa-edge"]:
            edges.setdefault((parts[1], parts[2]), set()).add(parts[3])
    frontier = {initial}
    for sym in config.stack + (config.state,):
        frontier = {t for s in frontier for t in edges.get((s, sym), ())}
    return bool(frontier & finals)


# ---------------------------------------------------------------------------
# membership: lasso membership and parity emptiness through the library.
# ---------------------------------------------------------------------------

SAMPLE_PER_FIXTURE = 100
SERIES_SIZES = (8, 16, 32, 64)
SERIES_WORDS = 2  # base words per size


class Membership:
    name = "membership"

    @staticmethod
    def setup(api, seed: int, workdir: str, size: float = 1.0) -> Context:
        ctx = Context(api, workdir)
        rng = random.Random(seed)
        fmt = api.core.format_pda
        queries, nonempty = [], []
        for fx in api.zoo.all_fixtures():
            text = fmt(fx.automaton)
            ctx.write(f"{fx.name}.pda", text)
            count = max(2, round(SAMPLE_PER_FIXTURE * size))
            sample = fx.sample(seed=rng.randrange(2**31), count=count)
            lines = []
            for w, flag in sample:
                lines.append(_lasso_text(api, w))
                queries.append((fx.name, text, lines[-1], flag))
            ctx.write(f"{fx.name}.lassos", "\n".join(lines) + "\n")
            nonempty.append((fx.name, text, fx.automaton, any(f for _, f in sample)))
        rng.shuffle(queries)

        base = api.zoo.lss()
        base_rng = random.Random(corpus.SERIES_BASE_SEED)
        letters = base.automaton.input_alphabet
        copy, _, lmap, _ = corpus.rename_pda(api, base.automaton, rng)
        series_text = ctx.write("lss-series.pda", fmt(copy))
        series = []
        for n in SERIES_SIZES:
            if n > max(SERIES_SIZES[0], SERIES_SIZES[-1] * size):
                break
            for j in range(SERIES_WORDS):
                w = api.core.LassoWord(
                    tuple(base_rng.choice(letters) for _ in range(n)),
                    tuple(base_rng.choice(letters) for _ in range(max(1, n // 4))),
                )
                expected = max(api.zoo.loop_energy_deltas(w)) >= 0
                text = _lasso_text(api, corpus.rename_word(api, w, lmap))
                series.append((n, j, text, expected))
        ctx.write("lss-series.lassos", "\n".join(s[2] for s in series) + "\n")
        ctx.data.update(queries=queries, nonempty=nonempty, series=series,
                        series_text=series_text)
        return ctx

    @staticmethod
    def pass_ops(ctx: Context):
        api = ctx.api

        def member(pda_text, word_text):
            core = api.core
            return lambda: api.analysis.lasso_membership(
                core.parse_pda(pda_text), core.parse_lasso(word_text))

        def expect(flag):
            return lambda v: "ok" if v == flag else f"wrong: expected {flag}"

        for i, (name, text, word, flag) in enumerate(ctx.data["queries"]):
            yield Op("member", (name, i), member(text, word), check=expect(flag))
        for n, j, word, flag in ctx.data["series"]:
            yield Op("series", (n, j), member(ctx.data["series_text"], word),
                     check=expect(flag), tag=f"u{n}")
        for name, text, fixture_pda, nonempty in ctx.data["nonempty"]:
            def call(text=text):
                pda = api.core.parse_pda(text)
                return pda, api.analysis.parity_nonempty(pda)

            def verdict(raw):
                pda, w = raw
                if w is None:
                    return None
                index = {t: i for i, t in enumerate(pda.transitions)}
                return (tuple(index[t] for t in w.stem), tuple(index[t] for t in w.loop))

            yield Op("nonempty", (name,), call, verdict,
                     _emptiness_check(api, fixture_pda, nonempty))


# ---------------------------------------------------------------------------
# tailset: tail sets and emptiness through the command line, in-process.
# ---------------------------------------------------------------------------

DETERMINIZED = ("example23", "figure1")
# Each fixture is given as three renamed copies, so that a pass has over 100
# operations and the p90 latency has at least ten samples beyond it.
COPIES = 3


class Tailset:
    name = "tailset"

    @staticmethod
    def setup(api, seed: int, workdir: str, size: float = 1.0) -> Context:
        ctx = Context(api, workdir)
        rng = random.Random(seed)
        fixtures = api.zoo.all_fixtures()
        if size < 1.0:
            fixtures = [fx for fx in fixtures if fx.name in DETERMINIZED or fx.name == "allodd"]
        entries = []
        for c in range(COPIES):
            for fx in fixtures:
                copy, tmap, lmap, smap = corpus.rename_pda(api, fx.automaton, rng)
                file = f"{fx.name}-{c}"
                ctx.write(f"{file}.pda", api.core.format_pda(copy))
                moore = None
                if c == 0 and fx.name in DETERMINIZED:
                    m = corpus.rename_moore(api, fx.resolver, tmap, lmap, smap)
                    ctx.write(f"{file}.moore", api.resolvers.format_moore(copy, m))
                    moore = ctx.path(f"{file}.moore")
                sample = fx.sample(seed=rng.randrange(2**31), count=12)
                entries.append(SimpleNamespace(
                    name=fx.name, copy=c, pda=copy, path=ctx.path(f"{file}.pda"), moore=moore,
                    det_path=ctx.path(f"det-{file}.pda"),
                    nonempty=any(f for _, f in sample),
                    words=[(corpus.rename_word(api, w, lmap), f) for w, f in sample],
                ))
        ctx.data["entries"] = entries
        ctx.data["order"] = [(e, a) for e in entries for a in e.pda.input_alphabet]
        rng.shuffle(ctx.data["order"])
        return ctx

    @staticmethod
    def pass_ops(ctx: Context):
        api = ctx.api

        def tailset_op(kind, key, path, letter, pda_of):
            def call():
                return _run_cli(api, ["--json", "tailset", path, letter])

            def verdict(raw):
                code, out = raw
                return code, json.loads(out)["verdict"]

            def check(v):
                code, verdict = v
                if (code == 0) != (verdict == "nonempty"):
                    return f"wrong: exit {code} with verdict {verdict}"
                pda = pda_of()
                w = api.core.LassoWord((), (letter,))
                expected = _oracle(api, pda, w)
                if expected == api.analysis.UNKNOWN:
                    return "unchecked"
                _, text = _run_cli(api, ["tailset", path, letter])
                if _pa_accepts(text, pda.initial_configuration()) != expected:
                    return f"wrong: initial configuration vs oracle {expected}"
                return "ok"

            return Op(kind, key, call, verdict, check)

        for e, letter in ctx.data["order"]:
            yield tailset_op("tailset", (e.name, e.copy, letter), e.path, letter,
                             lambda e=e: e.pda)
        for e in ctx.data["entries"]:
            def call(e=e):
                return _run_cli(api, ["--json", "empty", e.path])

            def verdict(raw):
                code, out = raw
                doc = json.loads(out)
                wit = doc.get("witness")
                return None if wit is None else (tuple(wit["stem"]), tuple(wit["loop"]))

            yield Op("empty", (e.name, e.copy), call, verdict,
                     _emptiness_check(api, e.pda, e.nonempty))
        for e in ctx.data["entries"]:
            if e.moore is None:
                continue

            def call(e=e):
                code, text = _run_cli(api, ["determinize", e.path, e.moore])
                with open(e.det_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                return code, text

            def verdict(raw):
                code, text = raw
                lines = text.splitlines()
                return (code, sum(ln.startswith("state ") for ln in lines),
                        sum(ln.startswith("trans ") for ln in lines))

            def check(v, e=e):
                with open(e.det_path, encoding="utf-8") as fh:
                    det = api.core.parse_pda(fh.read())
                if not api.core.is_deterministic(det)[0]:
                    return "wrong: determinized automaton is not deterministic"
                for w, flag in e.words:
                    got = _oracle(api, det, w)
                    if got != api.analysis.UNKNOWN and got != flag:
                        return f"wrong: determinized automaton on {w}: {got}"
                return "ok"

            yield Op("determinize", (e.name,), call, verdict, check)

            def det_pda(e=e):
                with open(e.det_path, encoding="utf-8") as fh:
                    return api.core.parse_pda(fh.read())

            for letter in e.pda.input_alphabet:
                yield tailset_op("det_tailset", (e.name, letter), e.det_path, letter, det_pda)


# ---------------------------------------------------------------------------
# games: Gale-Stewart solving, synthesis, plays, pushdown games, universality.
# ---------------------------------------------------------------------------

SPECS = 150
PUSHDOWN_GAMES = 100
PLAYS_PER_SPEC = 4


class Games:
    name = "games"

    @staticmethod
    def setup(api, seed: int, workdir: str, size: float = 1.0) -> Context:
        ctx = Context(api, workdir)
        rng = random.Random(seed)
        games = api.games
        base = random.Random(corpus.SPEC_BASE_SEED)
        specs = []
        for i in range(max(4, round(SPECS * size))):
            spec = corpus.rename_spec(api, corpus.random_spec(api, base), rng)
            text = ctx.write(f"spec{i:03d}.gs", games.format_gs_spec(spec))
            adversaries = [corpus.random_lasso(api, rng, spec.sigma1, 3, 3)
                           for _ in range(PLAYS_PER_SPEC)]
            specs.append((i, text, spec.condition, adversaries))
        rng.shuffle(specs)
        base = random.Random(corpus.PUSHDOWN_BASE_SEED)
        pushdown = [
            (i, corpus.rename_pushdown_game(api, corpus.random_pushdown_game(api, base), rng))
            for i in range(max(4, round(PUSHDOWN_GAMES * size)))
        ]
        rng.shuffle(pushdown)
        fixtures = []
        for fx in api.zoo.all_fixtures():
            copy = corpus.rename_pda(api, fx.automaton, rng)[0]
            fixtures.append((fx.name, ctx.write(f"{fx.name}.pda", api.core.format_pda(copy))))
        ctx.data.update(specs=specs, pushdown=pushdown, fixtures=fixtures)
        return ctx

    @staticmethod
    def pass_ops(ctx: Context):
        api = ctx.api
        games = api.games
        ends = (games.ResourceExceeded,)

        def eve_checked(v):
            # Eve verdicts are checked by the plays of the synthesized strategy.
            return "ok" if v[0] == games.EVE else "unchecked"

        for i, text, condition, adversaries in ctx.data["specs"]:
            def solve(text=text):
                r = games.solve_gale_stewart(games.parse_gs_spec(text), BUDGET)
                return r.winner, r.sound

            out = yield Op("gs_solve", (i,), solve, check=eve_checked, ends=ends)
            if out.verdict is None or out.verdict[0] != games.EVE:
                continue

            def synth(text=text):
                return games.synthesize_strategy_pdt(games.parse_gs_spec(text), BUDGET)

            out = yield Op("synth", (i,), synth, lambda s: len(s.machine.states),
                           check=lambda v: "ok", ends=ends)
            if out.raw is None:
                continue
            for j, adam in enumerate(adversaries):
                def play(strategy=out.raw, adam=adam):
                    return games.simulate_play(strategy, adam)

                def check(outcome, condition=condition):
                    got = _oracle(api, condition, outcome)
                    if got == api.analysis.UNKNOWN:
                        return "unchecked"
                    return "ok" if got else f"wrong: outcome {outcome} is rejected"

                yield Op("play", (i, j), play, check=check, ends=(api.core.GuardExceeded,))
        for i, game in ctx.data["pushdown"]:
            yield Op("pd_solve", (i,),
                     lambda game=game: games.solve_pushdown_parity_game(game, BUDGET).winner,
                     ends=ends)
        for name, text in ctx.data["fixtures"]:
            def universal(text=text):
                return games.universality(api.core.parse_pda(text), BUDGET)

            # The zoo samplers draw rejected words for every fixture but figure1.
            expected = name == "figure1"
            yield Op("universal", (name,), universal, ends=ends,
                     check=lambda v, e=expected: "ok" if v == e else f"wrong: expected {e}")


# ---------------------------------------------------------------------------
# guided: resolver-guided runs, resolver verification, lifted resolvers.
# ---------------------------------------------------------------------------

PREFIX_LENGTHS = (250, 500, 1000, 2000)
VERIFY_WORDS = 10
MOORE_WORDS = 45
LIFTED_WORDS = 4


def _one_state_dpa_text(letters) -> str:
    # Colors 0 and 1 alternate over the alphabet, so the union product with lss
    # has 240 states and 11,232 transitions; every word of L(lss) stays in it.
    lines = ["dstate d", "dinitial d"] + [f"dletter {a}" for a in letters]
    lines += [f"dtrans d {a} d {i % 2}" for i, a in enumerate(letters)]
    return "\n".join(lines) + "\n"


class Guided:
    name = "guided"

    @staticmethod
    def setup(api, seed: int, workdir: str, size: float = 1.0) -> Context:
        ctx = Context(api, workdir)
        rng = random.Random(seed)
        zoo = api.zoo
        lss = zoo.lss()
        lss_text = ctx.write("lss.pda", api.core.format_pda(lss.automaton))
        prefixes = []
        for n in PREFIX_LENGTHS:
            k = 1
            while len(zoo.w_ss_bar_prefix(k)) < n:
                k += 1
            prefixes.append((n, ctx.write(f"wss{n}.word", " ".join(zoo.w_ss_bar_prefix(k)[:n]))))
        # A resolver check costs up to the guard, and how much of it depends
        # on the word; the words are a fixed base set in seeded order.
        verify_count = max(2, round(VERIFY_WORDS * size))
        base_rng = random.Random(corpus.VERIFY_BASE_SEED)
        base_words = []
        while len(base_words) < verify_count:
            for w, flag in lss.sample(seed=base_rng.randrange(2**31), count=20):
                if flag and len(base_words) < verify_count:
                    base_words.append(_lasso_text(api, w))
        lifted = base_words[:max(1, round(LIFTED_WORDS * size))]
        accepted = base_words[:]
        rng.shuffle(accepted)
        ctx.write("lss.lassos", "\n".join(accepted) + "\n")
        moore = []
        for fx in (zoo.figure1(), zoo.example23()):
            pda_text = ctx.write(f"{fx.name}.pda", api.core.format_pda(fx.automaton))
            m_text = ctx.write(f"{fx.name}.moore",
                               api.resolvers.format_moore(fx.automaton, fx.resolver))
            count = max(10, round(MOORE_WORDS * size))
            sample = fx.sample(seed=rng.randrange(2**31), count=count)
            words = [_lasso_text(api, w) for w, _ in sample]
            ctx.write(f"{fx.name}.lassos", "\n".join(words) + "\n")
            moore += [(fx.name, pda_text, m_text, w, f) for w, (_, f) in zip(words, sample)]
        rng.shuffle(moore)
        dpa_text = ctx.write("parity.dpa", _one_state_dpa_text(lss.automaton.input_alphabet))
        ctx.data.update(lss_text=lss_text, prefixes=prefixes, accepted=accepted,
                        moore=moore, dpa_text=dpa_text, lifted=lifted)
        return ctx

    @staticmethod
    def pass_ops(ctx: Context):
        api = ctx.api
        core, res, zoo = api.core, api.resolvers, api.zoo
        lss_text = ctx.data["lss_text"]

        for n, word_text in ctx.data["prefixes"]:
            word = tuple(word_text.split())

            def run(word=word):
                pda = core.parse_pda(lss_text)
                return res.run_on_prefix(pda, zoo.LssResolver(pda), word)

            yield Op("run_on_prefix", (n,), run,
                     lambda g, word=word: (len(g.run.transitions), g.run.word() == word),
                     check=lambda v: "ok" if v[1] else "wrong: run word differs from input",
                     tag=f"L{n}")

        def verdict_check(v):
            return {"pass": "ok", "inconclusive": "undecided"}.get(v, f"wrong: {v}")

        for i, word_text in enumerate(ctx.data["accepted"]):
            def verify(word_text=word_text):
                pda = core.parse_pda(lss_text)
                w = core.parse_lasso(word_text)
                return res.verify_resolver(pda, zoo.LssResolver(pda), [(w, True)], GUARD)

            yield Op("verify", (i,), verify, lambda r: r.entries[0][2], verdict_check)

        for i, (name, pda_text, m_text, word_text, flag) in enumerate(ctx.data["moore"]):
            def accept(pda_text=pda_text, m_text=m_text, word_text=word_text):
                pda = core.parse_pda(pda_text)
                return res.moore_lasso_acceptance(
                    pda, res.parse_moore(pda, m_text), core.parse_lasso(word_text))

            def check(v, flag=flag):
                if flag:
                    return "ok" if v == "accepted" else f"wrong: {v} on an accepted word"
                return "ok" if v in ("rejected", "stuck") else "wrong: accepted a rejected word"

            yield Op("moore", (name, i), accept, check=check, ends=(core.GuardExceeded,))

        def product():
            pda = core.parse_pda(lss_text)
            prod, info = api.closure.product_with_info(
                pda, api.closure.parse_dpa(ctx.data["dpa_text"]), "union")
            return prod, api.closure.lift_resolver(zoo.LssResolver(pda), pda, info)

        out = yield Op("product", (), product,
                       lambda r: (len(r[0].states), len(r[0].transitions)))
        if out.raw is None:
            return
        prod, lifted = out.raw
        for i, word_text in enumerate(ctx.data["lifted"]):
            def verify(word_text=word_text):
                w = core.parse_lasso(word_text)
                return res.verify_resolver(prod, lifted, [(w, True)], GUARD)

            yield Op("lifted_verify", (i,), verify, lambda r: r.entries[0][2],
                     verdict_check, tag="lifted")


WORKLOADS = {w.name: w for w in (Membership, Tailset, Games, Guided)}
