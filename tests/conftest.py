import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from contragen import Clause, ClauseSet, Signature
from contragen.core import Literal, replace

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

# Grounds to two instances, one per patient; Audited is shared by both.
TWO_PATIENTS_SCENARIO = """
name: two-patients
domain: Test
atoms:
  - symbol: Holds
    args: [p]
    variables: [p]
    gloss: data about patient p is held
  - symbol: Consents
    args: [p]
    variables: [p]
    gloss: patient p consents
  - symbol: Audited
    gloss: the holder is audited
grounding:
  p: [alice, bob]
"""


# Symbols a chain admits, made of characters JSON escapes or writes as
# they are: no whitespace, and no negation sign in front.
ESCAPED_SYMBOLS = st.lists(
    st.text(st.sampled_from(['"', "\\", "/", "é", "😀", "\x7f", "\x00", "a", "~"]), min_size=1,
            max_size=3).filter(lambda s: s[0] != "~"),
    min_size=1, max_size=6, unique=True,
)


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


def random_clause_set(rng: random.Random, max_vars: int = 12) -> ClauseSet:
    """Seeded random clause set for oracle cross-checks."""
    n = rng.randint(1, max_vars)
    signature = Signature(tuple(f"v{i}" for i in range(1, n + 1)))
    clause_count = rng.randint(1, 3 * n)
    clauses = []
    for _ in range(clause_count):
        width = rng.randint(1, min(n, 4))
        symbols = rng.sample(signature.symbols, width)
        clauses.append(
            Clause(tuple(Literal(s, rng.random() < 0.5) for s in symbols))
        )
    return ClauseSet.build(clauses, signature)


def tamper_step(proof, s, **changes):
    """``proof`` with the given fields of step ``s`` changed."""
    steps = list(proof.steps)
    steps[s] = replace(steps[s], **changes)
    return replace(proof, steps=tuple(steps))
