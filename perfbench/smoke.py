"""Smoke check: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

Exits 0 when each run is correct and prints exactly the metrics that
BENCHMARK.json declares for it. Takes well under a minute.
"""

from __future__ import annotations

import json
import sys

from common import ROOT
from run import run
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            result, lines = run(workload, seed=7, seconds=0.5, trace=bool(trace), size="tiny")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops wrong: "
                                + "; ".join(l for l in lines if l.startswith("FAILED")))
            if printed != declared[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed) ^ set(declared[trace]))}")
            print(f"{label}: {result['attempted']} ops, "
                  f"{'ok' if result['correct'] else 'WRONG'}")
    for problem in problems:
        print("SMOKE FAILED:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
