# Independent certification: satisfiability against every assignment,
# minimality, and what happens when a theorem is tampered with.

import itertools
import random

from contragen import (
    Clause,
    ClauseSet,
    Signature,
    build_ftsc,
    check_mus,
    check_theorem,
    derive_theorems,
    evaluate_set,
    is_satisfiable,
    neg,
    pos,
    validate_input,
)
from contragen.core import replace

def verdict(satisfiable):
    return "satisfiable" if satisfiable else "unsatisfiable"


# The search is chosen by size: the truth table up to 13 variables, DPLL
# beyond. Its verdict agrees with trying every assignment.
rng = random.Random(11)
signature = Signature(tuple(f"v{i}" for i in range(1, 9)))
assignments = [
    dict(zip(signature.symbols, values))
    for values in itertools.product((True, False), repeat=signature.size)
]
for trial in range(5):
    clauses = []
    for _ in range(rng.randint(3, 16)):
        width = rng.randint(1, 4)
        chosen = rng.sample(signature.symbols, width)
        clauses.append(Clause(tuple(pos(s) if rng.random() < 0.5 else neg(s) for s in chosen)))
    clause_set = ClauseSet.build(clauses, signature)
    result = is_satisfiable(clause_set)
    exhaustive = any(evaluate_set(clause_set, a) for a in assignments)
    print(f"trial {trial}: {result.method}={verdict(result.satisfiable)}  exhaustive={verdict(exhaustive)}  agree={result.satisfiable == exhaustive}")

# Minimality report for a triangular chain: the set is unsatisfiable and
# every single-clause deletion restores satisfiability, witness included.
ftsc = build_ftsc(validate_input([pos("a"), pos("b"), pos("c")]))
report = check_mus(ftsc.clause_set)
print("\nunsatisfiable:", report.is_unsatisfiable, " minimal:", report.is_mus)
for i, deletion in enumerate(report.deletion_results, start=1):
    print(f"  drop clause {i}: {verdict(deletion.satisfiable)}, witness={deletion.witness}")

# Certification re-derives everything from the clause lists, so a flipped
# conclusion literal is caught even though the clause set is untouched.
theorem = derive_theorems(ftsc)[1]
print("\nhonest theorem:", check_theorem(theorem).certified)
tampered = replace(
    theorem,
    conclusion=tuple(l.negate() if l.symbol == "b" else l for l in theorem.conclusion),
)
print("tampered conclusion:", check_theorem(tampered).certified)
