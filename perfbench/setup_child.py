"""One timed set-up in a fresh interpreter: import contragen.cli, prepare inputs.

    python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR SIZE

Writes WORKDIR/plan.json and prints {"setup_s": seconds}. run.py starts
several of these per run and reports the median as setup_s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from common import use_checkout_source
from workloads import WORKLOADS


def main() -> None:
    workload, seed, work, size = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    use_checkout_source()
    t0 = perf_counter()
    import contragen.cli  # noqa: F401

    plan = WORKLOADS[workload].prepare(seed, work, size)
    elapsed = perf_counter() - t0
    (work / "plan.json").write_text(json.dumps(plan))
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
