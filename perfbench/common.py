"""Paths, child processes and statistics shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# A child that runs longer than this is killed and its op counted as failed.
CHILD_TIMEOUT_S = 60.0


class MissingSourceError(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Import contragen from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "contragen" / "cli.py").is_file():
        raise MissingSourceError(f"no contragen sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # A configured model endpoint would send explain over the network.
    for var in ("CONTRAGEN_MODEL_ENDPOINT", "CONTRAGEN_MODEL_KEY"):
        os.environ.pop(var, None)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONTRAGEN_MODEL")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, out_path, err_path, cwd, env) -> tuple[int, float, float, int]:
    """Run one child to completion: (exit code, start, end, peak RSS in KiB),
    start and end being ``perf_counter`` readings.

    ``os.wait4`` gives the child's own peak RSS, unmixed with other children.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd, env=env
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def machine() -> dict:
    """Where the numbers came from: cores, interpreter, code identity."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "contragen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }
