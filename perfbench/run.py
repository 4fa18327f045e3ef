"""Run one benchmark workload against this checkout and print its metrics.

    python3 perfbench/run.py --workload closure-7 --seed 1 --seconds 30 --trace 0

Workloads: cli-scenarios, closure-7, deep-chain (see perfbench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics with nothing
traced. With ``--trace 1`` it runs every op twice, untraced then traced,
and reports the per-layer metrics from the spans plus the tracing
overhead. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it name
each metric with its unit and record the machine. The exit code is 0 only
when every op matched its known answer.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from time import perf_counter

from common import (
    HERE,
    OUT_ROOT,
    WORK_ROOT,
    MissingSourceError,
    child_env,
    machine,
    median,
    percentile,
    spawn,
    use_checkout_source,
)
from speed import REFERENCE_MS, SpeedProbe

# Fresh interpreters per run that time import + input preparation.
SETUP_REPEATS = 5
# Pairs of `python -c pass` / `python -c "import contragen.cli"` children.
PROBE_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("generate_ms_p50", "ms"),
    ("verify_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric -> (unit, span name, statistic). Counts and self times
# are per op, an op being the unit of ops_per_s on that workload.
SPAN_METRICS = {
    "verifier.sat.calls.dpll": ("calls/op", "verifier.sat.dpll", "calls"),
    "verifier.sat.self_ms.dpll": ("ms/op", "verifier.sat.dpll", "self_ms"),
    "core.int_clauses.calls": ("calls/op", "core.int_clauses", "calls"),
    "core.int_clauses.self_ms": ("ms/op", "core.int_clauses", "self_ms"),
    "core.ClauseSet.init.calls": ("calls/op", "core.ClauseSet.init", "calls"),
    "core.ClauseSet.init.self_ms": ("ms/op", "core.ClauseSet.init", "self_ms"),
    "verifier.sat.calls.truth-table": ("calls/op", "verifier.sat.truth-table", "calls"),
    "verifier.sat.self_ms.truth-table": ("ms/op", "verifier.sat.truth-table", "self_ms"),
    "verifier.check_theorem.self_ms": ("ms/op", "verifier.check_theorem", "self_ms"),
    "generator.enumerate.self_ms": ("ms/op", "generator.enumerate", "self_ms"),
    "generator.build_ftsc.self_ms": ("ms/op", "generator.build_ftsc", "self_ms"),
    "generator.derive_theorems.self_ms": ("ms/op", "generator.derive_theorems", "self_ms"),
    "verifier.replay_trace.calls": ("calls/op", "verifier.replay_trace", "calls"),
    "verifier.replay_trace.self_ms": ("ms/op", "verifier.replay_trace", "self_ms"),
    "verifier.check_mus.self_ms": ("ms/op", "verifier.check_mus", "self_ms"),
    "report.from_json.self_ms": ("ms/op", "report.from_json", "self_ms"),
    "cli.run_cli.self_ms": ("ms/op", "cli.run_cli", "self_ms"),
    "explain.load_scenario.self_ms": ("ms/op", "explain.load_scenario", "self_ms"),
    "explain.gloss_map.calls": ("calls/op", "explain.gloss_map", "calls"),
    "explain.gloss_map.self_ms": ("ms/op", "explain.gloss_map", "self_ms"),
    "fol.ground_atoms.calls": ("calls/op", "fol.ground_atoms", "calls"),
    "fol.ground_atoms.self_ms": ("ms/op", "fol.ground_atoms", "self_ms"),
    "explain.verbalize.self_ms": ("ms/op", "explain.verbalize", "self_ms"),
    "explain.rank.self_ms": ("ms/op", "explain.rank", "self_ms"),
    "report.build_report.self_ms": ("ms/op", "report.build_report", "self_ms"),
    "report.to_json.self_ms": ("ms/op", "report.to_json", "self_ms"),
    "formats.emit_dimacs.self_ms": ("ms/op", "formats.emit_dimacs", "self_ms"),
    "formats.parse_dimacs.self_ms": ("ms/op", "formats.parse_dimacs", "self_ms"),
    "formats.emit_tptp.self_ms": ("ms/op", "formats.emit_tptp", "self_ms"),
}
OTHER_PER_LAYER = (
    ("verifier.sat.distinct_ratio", "ratio"),
    ("verifier.replay_trace.steps", "steps/op"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)
PER_LAYER = tuple((name, unit) for name, (unit, _, _) in SPAN_METRICS.items()) + OTHER_PER_LAYER


class SetupError(RuntimeError):
    pass


def measure_setup(workload: str, seed: int, work, size: str, repeats: int, probe: SpeedProbe):
    """Set up ``repeats`` times, each in a fresh interpreter; return the
    median seconds (raw and scaled to reference speed) and the last plan,
    whose files are the ones the run uses."""
    env = child_env()
    raw, scaled = [], []
    plan = None
    probe.sample()
    for i in range(repeats):
        target = work / f"setup-{i}"
        target.mkdir()
        argv = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(target), size]
        out, err = target / "setup.out", target / "setup.err"
        code, t0, t1, _ = spawn(argv, out, err, target, env)
        probe.sample()
        if code != 0:
            raise SetupError(f"setup failed (exit {code}): {err.read_text()[-2000:]}")
        seconds = json.loads(out.read_text().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        scaled.append(seconds * probe.factor(t0, t1))
        plan = json.loads((target / "plan.json").read_text())
    return median(raw), median(scaled), plan


def probe_interpreter(work, repeats: int) -> tuple[float, float]:
    """Median ms of a bare interpreter, and of importing contragen.cli on top."""
    env = child_env()
    bare, loaded = [], []
    for i in range(repeats):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import contragen.cli"], loaded)):
            code, t0, t1, _ = spawn(argv, work / "probe.out", work / "probe.err", work, env)
            if code != 0:
                raise SetupError(f"probe {argv[1:]} exited {code}")
            into.append((t1 - t0) * 1000.0)
    return median(bare), median(loaded) - median(bare)


def end_to_end(loop, setup_s: float, in_process: bool, seconds_of) -> dict:
    """The end-to-end metrics; ``seconds_of(start, end)`` times an interval."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else loop.peak_rss_kb
    op_ms = [s * 1000.0 for s in loop.sample_seconds(seconds_of)]

    def kind_ms(kind):
        return median([seconds_of(op.start, op.end) * 1000.0 for op in loop.ops if op.kind == kind])

    return {
        "setup_s": setup_s,
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "ops_per_s": len(op_ms) * 1000.0 / sum(op_ms),
        "generate_ms_p50": kind_ms("generate"),
        "verify_ms_p50": kind_ms("verify"),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(loop, tracer, interpreter_ms: float, import_ms: float, factor: float) -> dict:
    """The per-layer metrics; times are multiplied by the run's speed ``factor``."""
    seconds, calls = tracer.self_times()
    ops = max(loop.traced_units, 1)
    values = {}
    for name, (_, span, stat) in SPAN_METRICS.items():
        if stat == "calls":
            values[name] = calls.get(span, 0) / ops
        else:
            values[name] = seconds.get(span, 0.0) * 1000.0 * factor / ops
    sat_calls = calls.get("verifier.sat.dpll", 0) + calls.get("verifier.sat.truth-table", 0)
    values["verifier.sat.distinct_ratio"] = len(tracer.sat_keys) / sat_calls if sat_calls else 0.0
    values["verifier.replay_trace.steps"] = tracer.replay_steps / ops
    values["cli.interpreter_ms"] = interpreter_ms * factor
    values["cli.import_ms"] = import_ms * factor
    # Scaled per interval, so drift between the two sides of a pair cancels.
    values["trace.overhead_ratio"] = (sum(loop.probe.scaled(s, e) for s, e in loop.traced)
                                      / sum(loop.probe.scaled(s, e) for s, e in loop.plain))
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (result object, report lines)."""
    use_checkout_source()
    import tracing
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    work = WORK_ROOT / f"{workload}-{seed}-{trace:d}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = SpeedProbe()
    try:
        setup_raw, setup_s, plan = measure_setup(
            workload, seed, work, size, SETUP_REPEATS if size == "full" else 2, probe)
        import contragen.cli  # noqa: F401  (what the in-process ops call)

        lines = [f"machine: {json.dumps(machine(), sort_keys=True)}"]
        if trace:
            interpreter_ms, import_ms = probe_interpreter(work, PROBE_REPEATS if size == "full" else 1)
            tracer = tracing.Tracer()
            loop = spec.run(plan, seed, work, seconds, tracer)
            factor = REFERENCE_MS / loop.probe.mean_ms()
            values = per_layer(loop, tracer, interpreter_ms, import_ms, factor)
            units = dict(PER_LAYER)
            OUT_ROOT.mkdir(exist_ok=True)
            spans_path = OUT_ROOT / f"spans-{workload}.bin"
            tracer.write(spans_path)
            lines.append(f"spans: {len(tracer)} written to {spans_path.relative_to(OUT_ROOT.parent)}")
            lines.append(f"host speed: times below are scaled by {factor:.4f} to reference speed")
        else:
            loop = spec.run(plan, seed, work, seconds)
            in_process = workload != "cli-scenarios"
            values = end_to_end(loop, setup_s, in_process, loop.probe.scaled)
            units = dict(END_TO_END)
            wall = end_to_end(loop, setup_raw, in_process, lambda start, end: end - start)
            lines.append(
                f"host speed: kernel mean {loop.probe.mean_ms():.3f} ms "
                f"(reference {REFERENCE_MS} ms) over {len(loop.probe.start)} probes; "
                f"wall-clock figures, probes included: "
                + ", ".join(f"{k}={v:.6g}" for k, v in wall.items() if k != "peak_rss_mb"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(loop.ops)
    failed = sum(1 for op in loop.ops if op.problems)
    for op in loop.ops:
        for problem in op.problems[:3]:
            lines.append(f"FAILED {op.kind}: {problem}")
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in values.items()]
    lines.append(f"error_ratio = {failed / max(attempted, 1):.6g} ratio "
                 f"({failed} of {attempted} CLI calls wrong)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS  # benchmark code only; imports no contragen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (MissingSourceError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"wall_s = {perf_counter() - started:.3f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
