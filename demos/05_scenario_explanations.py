# From a scenario file to a ranked remediation report.
#
# The healthcare data-sharing scenario declares five first-order atoms with
# glosses, a grounding, remediation texts, and one priority. Grounding
# turns the atoms into propositional symbols, the chain is built and
# certified, and the templates render each theorem as a narrative.

from pathlib import Path

from contragen import (
    build_ftsc,
    check_theorem,
    derive_theorems,
    load_scenario,
    rank,
    verbalize,
)

scenario_path = Path(__file__).parent.parent / "scenarios" / "healthcare_data_sharing.yaml"
scenario = load_scenario(scenario_path)
print(f"scenario: {scenario.name} ({scenario.domain_label}), {scenario.n} atoms")

ftsc = build_ftsc(scenario.signatures()[0])
print("ground symbols:", ftsc.permutation)

theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
explanations = [verbalize(t, scenario) for t in theorems]

# The consent theorem (clause 3) is the scenario's declared priority.
consent = explanations[2]
print(f"\nclause 3 role: {consent.role_label}")
print("narrative:")
print(" ", consent.narrative)

print("\nranked report:")
for position, entry in enumerate(rank(explanations).entries, start=1):
    e = entry.explanation
    print(f"  {position}. clause {e.removed_index} [{entry.priority}, {entry.score:.2f}] {e.remediation}")

# Multi-instance grounding: two patients give two independent chains.
from contragen import GroundingDomain, PredicateAtom, build_fol_ftsc, var

atoms = [
    PredicateAtom("Infection", (var("p"),)),
    PredicateAtom("Fever", (var("p"),)),
    PredicateAtom("Treats", (var("p"),)),
]
two_patients = GroundingDomain.from_mapping({"p": ["alice", "bob"]})
for ftsc in build_fol_ftsc(atoms, two_patients):
    verdicts = {check_theorem(t).certified for t in derive_theorems(ftsc)}
    print(f"\ninstance {ftsc.permutation[0]}: all theorems {verdicts}")
