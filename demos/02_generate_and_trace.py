# The medical walkthrough: build the triangular chain over four diagnostic
# predicates, derive all five entailments, and inspect the proof of one.
#
# The chain encodes "infection -> high WBC -> fever -> antibiotics" plus a
# final clause forbidding all four at once, so the conjunction contradicts
# itself. Removing any one clause leaves a satisfiable remainder that
# refutes exactly the removed clause.

from contragen import (
    build_ftsc,
    check_theorem,
    derive_theorems,
    pos,
    replay_trace,
    validate_input,
)
from contragen.generator import proof_steps, step_clause
from contragen.verifier import replay_theorems

signature = validate_input(
    [pos(s) for s in ("Infection", "HighWBC", "Fever", "RequiresAntibiotics")]
)
ftsc = build_ftsc(signature)

print("dependency clauses:")
for t, clause in enumerate(ftsc.clause_set.clauses, start=1):
    print(f"  {t}: {clause}")

print("\nentailments (remainder proves the negation of the removed clause):")
for theorem in derive_theorems(ftsc):
    checked = check_theorem(theorem)
    conclusion = " & ".join(str(l) for l in theorem.conclusion)
    print(f"  remove {theorem.removed_index}: |- {conclusion}   [{checked.certified}]")

# One proof of 3n-1 lemmas serves all five theorems. Removing clause 4 uses
# four of them, with no search: the first three literals as units, each
# from its own clause, then ~RequiresAntibiotics from the final clause
# under those units. Replay checks every step and finds the clauses each
# rests on; clause 4 is not among those of the theorem's last step.
proof = ftsc.proof
clauses = len(ftsc.clause_set.clauses)
theorem = derive_theorems(ftsc)[3]


def cites(r):
    return f"clause {r + 1}" if r < clauses else f"step {r - clauses}"


print(f"\nproof of removal of clause {theorem.removed_index} (steps it uses, of {len(proof.steps)}):")
for s in proof_steps(theorem):
    step = proof.steps[s]
    assumed = f", assuming steps {list(range(step.units))}" if step.units else ""
    print(f"  {s:2d}: {str(step_clause(ftsc, step)):22s} from "
          f"{', '.join(cites(r) for r in step.hints)}{assumed}")

replayed = replay_trace(proof, ftsc.clause_set)
rests = replayed.verdicts[proof.targets[3]]
print("replay accepts every step:", bool(replayed))
print("the last step rests on clauses:", [r + 1 for r in range(clauses) if rests >> r & 1])
print("theorems the proof fails:", sorted(replay_theorems(derive_theorems(ftsc))))
