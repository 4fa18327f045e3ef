"""The three workloads: input preparation, the timed closed loop, checks.

Each workload is one single-threaded client that sends its next op only
after the previous one has completed (a closed loop, one client). Every op
goes through the entry users call: ``contragen.cli.run_cli`` in-process,
or ``python -m contragen.cli`` as a child process. The seed draws symbol
names, permutation ranks, fixture and command order, and tamper positions;
the program sees only the generated inputs.

An op's time covers the call alone. Known-answer checks, tampering and
file reads run between ops, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import string
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracing
from speed import SpeedProbe
from common import (
    GOLDEN,
    HERE,
    SCENARIOS,
    child_env,
    median,
    spawn,
)

SIZES = {
    # closure_n: symbols per enumerate; deep_n: chain length of a round trip;
    # round_trips: generate→verify pairs after each enumerate (closure-7);
    # verify_inputs: prepared report and DIMACS files (cli-scenarios).
    "full": {"closure_n": 7, "deep_n": 64, "round_trips": 100, "verify_inputs": 6},
    "tiny": {"closure_n": 4, "deep_n": 8, "round_trips": 2, "verify_inputs": 2},
}
# Every TAMPER_EVERY-th verify audits a tampered copy, which must exit 2.
# A fixed share (with seeded positions) keeps the mix the same in every run.
TAMPER_EVERY = 4
GOLDEN_FIXTURES = {"medical.yaml": "medical", "contract_terms.yaml": "contract"}


@dataclass
class Op:
    kind: str
    start: float
    end: float
    problems: list[str]


@dataclass
class Loop:
    """What one workload run measured. Times are ``perf_counter`` readings,
    scaled to reference host speed only when metrics are computed."""

    probe: SpeedProbe = field(default_factory=SpeedProbe)
    ops: list[Op] = field(default_factory=list)
    # The ops of op_ms_* and ops_per_s, as the intervals each spent in the
    # program (two for a round trip, one otherwise): interval k runs from
    # starts[k] to ends[k] and belongs to op sample_of[k]. Flat arrays keep
    # the benchmark's own objects out of the program's garbage collections.
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    sample_of: array = field(default_factory=lambda: array("l"))
    count: int = 0
    peak_rss_kb: int = 0
    # The program's intervals in paired untraced/traced cycles, for
    # trace.overhead_ratio.
    plain: list[tuple[float, float]] = field(default_factory=list)
    traced: list[tuple[float, float]] = field(default_factory=list)
    traced_units: int = 0

    def add(self, kind: str, start: float, end: float, problems: list[str]) -> None:
        self.ops.append(Op(kind, start, end, problems))

    def add_sample(self, *intervals) -> None:
        for start, end in intervals:
            self.starts.append(start)
            self.ends.append(end)
            self.sample_of.append(self.count)
        self.count += 1

    def sample_seconds(self, seconds_of) -> list[float]:
        """Per op sample, ``seconds_of(start, end)`` summed over its intervals."""
        totals = [0.0] * self.count
        for k in range(len(self.starts)):
            totals[self.sample_of[k]] += seconds_of(self.starts[k], self.ends[k])
        return totals


def seeded_symbols(rng: random.Random, n: int) -> list[str]:
    """n distinct admissible atom names of varying length."""
    alphabet = string.ascii_letters + string.digits + "_"
    names: list[str] = []
    while len(names) < n:
        name = rng.choice(string.ascii_letters) + "".join(rng.choices(alphabet, k=rng.randint(3, 9)))
        if name not in names:
            names.append(name)
    return names


def run_cli_captured(argv, stdout=None) -> tuple[int, str, float, float]:
    """Call ``contragen.cli.run_cli`` in-process: (exit code, stdout, start, end).

    The function is looked up at call time so an installed tracer sees it.
    """
    cli = sys.modules["contragen.cli"]
    out = stdout if stdout is not None else io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        code = cli.run_cli([str(a) for a in argv])
        t1 = perf_counter()
    return code, out.getvalue(), t0, t1


class StreamClock(io.StringIO):
    """stdout stand-in for ``enumerate``: stamps each streamed ``perm`` line."""

    def __init__(self):
        super().__init__()
        self.stamps = array("d", [perf_counter()])

    def write(self, s):
        if s.startswith("perm "):
            self.stamps.append(perf_counter())
        return super().write(s)


class Traced:
    """Runs a CLI call with the tracer installed, or plainly when it is None.
    Each traced call gets its own op id."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls = 0

    def __call__(self, fn, *args):
        if self.tracer is None:
            return fn(*args)
        self.tracer.current_op = self.calls
        self.calls += 1
        restore = tracing.install(self.tracer)
        try:
            return fn(*args)
        finally:
            restore()


def round_trip(loop: Loop, work: Path, rng: random.Random, symbols, tag: str,
               verify_count: int, run: Traced) -> tuple[tuple[float, float], ...]:
    """generate --output, check, maybe tamper, verify, check.

    Returns the two timed intervals. ``run`` makes the two CLI calls
    (traced or not); checks and tampering stay outside.
    """
    rank = rng.randrange(math.factorial(len(symbols)))
    report = work / f"{tag}.json"
    code, _, g0, g1 = run(run_cli_captured, ["generate", *symbols, "--permutation", rank, "--output", report])
    problems = [f"generate exit {code}"] if code else []
    text = report.read_text(encoding="utf-8") if report.is_file() else "{}"
    problems += checks.check_report(json.loads(text), checks.permutation_by_rank(symbols, rank))
    loop.add("generate", g0, g1, problems)

    tampered = verify_count % TAMPER_EVERY == TAMPER_EVERY - 1
    if tampered:
        report.write_text(checks.tamper_report(text, rng.randrange(1 << 30), rng.randrange(1 << 30)),
                          encoding="utf-8")
    code, out, v0, v1 = run(run_cli_captured, ["verify", report])
    loop.add("verify", v0, v1, checks.check_verify(code, out, tampered))
    return (g0, g1), (v0, v1)


def drive(seconds: float, cycle) -> None:
    """Closed loop: run ``cycle(k)`` until the next one would overrun.

    A cycle is started only if the median cycle so far still fits in the
    time left, so a run lasts ``seconds`` give or take one cycle's spread;
    the first cycle always runs.
    """
    start = perf_counter()
    durations: list[float] = []
    k = 0
    while True:
        t0 = perf_counter()
        cycle(k)
        durations.append(perf_counter() - t0)
        k += 1
        if start + seconds - perf_counter() < median(durations):
            return


# --- closure-7 --------------------------------------------------------------

class Closure:
    """``enumerate`` over 7 seeded symbols: the whole 5040-set closure,
    each set certified, streamed one line per set. After each enumerate,
    100 n=7 generate→verify round trips on seeded symbols and ranks
    (truth-table side).

    An op of op_ms_* and ops_per_s is one set certified: the interval up to
    its streamed line.
    """

    name = "closure-7"

    def prepare(self, seed: int, work: Path, size: str) -> dict:
        return {"n": SIZES[size]["closure_n"], "round_trips": SIZES[size]["round_trips"]}

    def run(self, plan: dict, seed: int, work: Path, seconds: float, tracer=None) -> Loop:
        loop = Loop()
        trips = plan["round_trips"]

        def cycle(k: int, traced: Traced) -> list[tuple[float, float]]:
            rng = random.Random(f"{seed}:closure:{k}")
            symbols = seeded_symbols(rng, plan["n"])
            clock = StreamClock()
            code, out, e0, e1 = traced(run_cli_captured, ["enumerate", *symbols], clock)
            lines = out.splitlines()
            problems = checks.check_enumerate(code, lines[:-1], lines[-1] if lines else "", symbols)
            loop.add("enumerate", e0, e1, problems)
            stamps = clock.stamps
            for i in range(1, len(stamps)):
                loop.add_sample((stamps[i - 1], stamps[i]))
            spent = [(stamps[0], stamps[-1])]
            for r in range(trips):
                # Fresh symbols per round trip: how 7 names hash decides the
                # collisions in the program's small dicts and sets, so one
                # name set per cycle would bias a whole run.
                trip_rng = random.Random(f"{seed}:closure:{k}:{r}")
                trip_symbols = seeded_symbols(trip_rng, plan["n"])
                spent += round_trip(loop, work, trip_rng, trip_symbols, "closure",
                                    k * trips + r, traced)
            return spent

        run_pairs(loop, seconds, cycle, tracer, timer=True)
        return loop


# --- deep-chain -------------------------------------------------------------

class DeepChain:
    """Round trips at n=64, beyond the truth table: ``generate --output``
    certifies and replays with DPLL, then ``verify`` audits the report;
    every 4th verify gets a copy with one conclusion literal flipped.

    An op is one round trip (generate + verify).
    """

    name = "deep-chain"

    def prepare(self, seed: int, work: Path, size: str) -> dict:
        return {"n": SIZES[size]["deep_n"]}

    def run(self, plan: dict, seed: int, work: Path, seconds: float, tracer=None) -> Loop:
        loop = Loop()

        def cycle(k: int, traced: Traced) -> tuple[tuple[float, float], ...]:
            rng = random.Random(f"{seed}:deep:{k}")
            symbols = seeded_symbols(rng, plan["n"])
            intervals = round_trip(loop, work, rng, symbols, "deep", k, traced)
            loop.add_sample(*intervals)
            return intervals

        run_pairs(loop, seconds, cycle, tracer, timer=True)
        return loop


# --- cli-scenarios ----------------------------------------------------------

def ground_symbols(doc: dict) -> list[str]:
    """Instance-0 ground symbols of a scenario, in atom order: each
    variable takes the first constant of its grounding domain."""
    grounding = doc.get("grounding") or {}
    symbols = []
    for atom in doc["atoms"]:
        args = atom.get("args") or []
        variables = set(atom.get("variables") or [])
        if args:
            ground = [grounding[a][0] if a in variables else a for a in args]
            symbols.append(f"{atom['symbol']}({','.join(ground)})")
        else:
            symbols.append(atom["symbol"])
    return symbols


def golden_lines(stem: str):
    return ((GOLDEN / f"{stem}_clauses.txt").read_text().splitlines(),
            (GOLDEN / f"{stem}_conclusions.txt").read_text().splitlines())


# One block of commands; blocks repeat with fresh seeded parameters and
# order. The golden explains always run at rank 0, where the golden files apply.
BLOCK = (
    ["explain-golden"] * 2 + ["explain"] * 2 + ["explain-table"] * 2
    + ["generate"] * 4 + ["export-dimacs"] * 2 + ["export-cnf", "export-fof"]
    + ["verify-report"] * 3 + ["verify-dimacs"] * 3
)


class CliScenarios:
    """One child process per op: a seeded mix of explain (JSON and --table),
    generate, export (DIMACS, TPTP cnf/fof) and verify (prepared report and
    DIMACS files, a fixed share tampered) over the ``scenarios/*.yaml``
    fixtures. An op is one CLI call, timed from spawn to exit; the loop runs
    whole blocks of BLOCK, so every run has the same command mix.
    """

    name = "cli-scenarios"

    def prepare(self, seed: int, work: Path, size: str) -> dict:
        """Read the fixtures and write the files ``verify`` will audit
        (made with in-process ``generate`` / ``export``)."""
        import yaml

        rng = random.Random(f"{seed}:cli:prepare")
        fixtures = {}
        for path in sorted(SCENARIOS.glob("*.yaml")):
            doc = yaml.safe_load(path.read_text(encoding="utf-8"))
            fixtures[path.name] = ground_symbols(doc)
        names = sorted(fixtures)
        inputs = []
        for i in range(SIZES[size]["verify_inputs"]):
            for kind in ("report", "dimacs"):
                fixture = rng.choice(names)
                rank = rng.randrange(math.factorial(len(fixtures[fixture])))
                clean = work / f"verify-{kind}-{i}.{'json' if kind == 'report' else 'cnf'}"
                argv = (["generate", SCENARIOS / fixture, "--permutation", rank, "--output", clean]
                        if kind == "report" else
                        ["export", SCENARIOS / fixture, "--permutation", rank,
                         "--format", "dimacs", "--output", clean])
                run_cli_captured(argv)
                text = clean.read_text(encoding="utf-8")
                bad = clean.with_name(f"tampered-{clean.name}")
                bad.write_text(
                    checks.tamper_report(text, rng.randrange(1 << 30), rng.randrange(1 << 30))
                    if kind == "report" else checks.tamper_dimacs(text, rng.randrange(1 << 30)),
                    encoding="utf-8",
                )
                inputs.append({"kind": kind, "fixture": fixture, "rank": rank,
                               "clean": str(clean), "tampered": str(bad)})
        return {"fixtures": fixtures, "inputs": inputs}

    def check_prepared(self, plan: dict) -> list[str]:
        problems = []
        for item in plan["inputs"]:
            perm = checks.permutation_by_rank(plan["fixtures"][item["fixture"]], item["rank"])
            text = Path(item["clean"]).read_text(encoding="utf-8")
            if item["kind"] == "report":
                problems += checks.check_report(json.loads(text), perm)
            else:
                problems += checks.check_dimacs(text, perm)
        return problems

    def commands(self, plan: dict, seed: int, block: int):
        """(kind, argv, check) for one seeded block; check(code, out_path)."""
        rng = random.Random(f"{seed}:cli:{block}")
        fixtures = plan["fixtures"]
        names = sorted(fixtures)
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        goldens = sorted(GOLDEN_FIXTURES)
        verifies = 0
        for j, kind in enumerate(kinds):
            tag = f"b{block}-{j}"
            if kind == "verify-report" or kind == "verify-dimacs":
                pool = [i for i in plan["inputs"] if i["kind"] == kind.split("-")[1]]
                item = rng.choice(pool)
                tampered = verifies % TAMPER_EVERY == TAMPER_EVERY - 1
                verifies += 1
                argv = ["verify", item["tampered" if tampered else "clean"]]
                yield "verify", argv, _verify_check(tampered)
                continue
            if kind == "explain-golden":
                fixture, rank = goldens.pop(), 0
            else:
                fixture = rng.choice(names)
                rank = rng.randrange(math.factorial(len(fixtures[fixture])))
            symbols = fixtures[fixture]
            perm = checks.permutation_by_rank(symbols, rank)
            path = str(SCENARIOS / fixture)
            if kind.startswith("explain"):
                argv = ["explain", path, "--permutation", rank]
                if kind == "explain-table":
                    argv.append("--table")
                    yield "explain", argv, _file_check(lambda t, n=len(symbols): checks.check_table(t, n))
                else:
                    golden = golden_lines(GOLDEN_FIXTURES[fixture]) if kind == "explain-golden" else None
                    yield "explain", argv, _file_check(
                        lambda t, p=perm, g=golden: checks.check_explain(json.loads(t), p, g))
            elif kind == "generate":
                out = f"{tag}-report.json"
                argv = ["generate", path, "--permutation", rank, "--output", out]
                yield "generate", argv, _file_check(
                    lambda t, p=perm: checks.check_report(json.loads(t), p), out)
            elif kind == "export-dimacs":
                yield "export", ["export", path, "--permutation", rank, "--format", "dimacs"], \
                    _file_check(lambda t, p=perm: checks.check_dimacs(t, p))
            else:
                mode = kind.split("-")[1]
                yield "export", ["export", path, "--permutation", rank, "--format", "tptp",
                                 "--tptp-mode", mode], \
                    _file_check(lambda t, n=len(symbols), m=mode: checks.check_tptp(t, n, m))

    def run(self, plan: dict, seed: int, work: Path, seconds: float, tracer=None) -> Loop:
        loop = Loop()
        problems = self.check_prepared(plan)
        if problems:
            loop.add("prepare", 0.0, 0.0, problems)
        env = child_env()
        python = sys.executable

        def cycle(block: int, traced: Traced) -> list[tuple[float, float]]:
            spent = []
            for j, (kind, argv, check) in enumerate(self.commands(plan, seed, block)):
                argv = [str(a) for a in argv]
                out, err = work / f"op-{j}.out", work / "op.err"
                if traced.tracer is None:
                    head = [python, "-m", "contragen.cli"]
                else:
                    spans = work / f"spans-{j}.json"
                    head = [python, str(HERE / "traced_cli.py"), str(spans), str(traced.calls)]
                    traced.calls += 1
                code, t0, t1, rss = spawn(head + argv, out, err, work, env)
                loop.probe.sample()
                loop.peak_rss_kb = max(loop.peak_rss_kb, rss)
                loop.add(kind, t0, t1, check(code, out, work))
                out.unlink(missing_ok=True)
                if traced.tracer is not None and spans.is_file():
                    traced.tracer.merge_json(json.loads(spans.read_text()))
                    spans.unlink()
                loop.add_sample((t0, t1))
                spent.append((t0, t1))
            return spent

        run_pairs(loop, seconds, cycle, tracer, timer=False)
        return loop


def _verify_check(tampered: bool):
    def check(code, out_path, work):
        return checks.check_verify(code, Path(out_path).read_text(encoding="utf-8"), tampered)
    return check


def _file_check(validate, output=None):
    """Check exit 0, then validate the output file (``--output``) or stdout."""
    def check(code, out_path, work):
        if code != 0:
            return [f"exit {code}"]
        path = work / output if output else Path(out_path)
        if not path.is_file():
            return [f"no output at {path.name}"]
        text = path.read_text(encoding="utf-8")
        if output:
            path.unlink()
        try:
            return validate(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
    return check


# --- driving ----------------------------------------------------------------

def run_pairs(loop: Loop, seconds: float, cycle, tracer, timer: bool) -> None:
    """Untraced: cycles back to back, with host-speed probes from a timer
    when ``timer`` (in-process ops). Traced: each cycle runs untraced and
    then traced on the same inputs, so host drift hits both sides alike;
    probes run only between cycles, outside every span."""
    plain = Traced(None)
    loop.probe.sample()
    if tracer is None:
        with loop.probe.during() if timer else contextlib.nullcontext():
            drive(seconds, lambda k: cycle(k, plain))
        return
    traced = Traced(tracer)

    def pair(k: int) -> None:
        loop.plain.extend(cycle(k, plain))
        ops = loop.count
        loop.traced.extend(cycle(k, traced))
        loop.traced_units += loop.count - ops
        loop.probe.sample()

    drive(seconds, pair)


WORKLOADS = {w.name: w for w in (CliScenarios(), Closure(), DeepChain())}
