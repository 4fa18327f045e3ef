"""Every demo prints exactly its golden output (tests/golden/demos/)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import contragen

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_golden(demo):
    golden = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    src = str(Path(contragen.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert child.stdout == golden.read_text(encoding="utf-8")
