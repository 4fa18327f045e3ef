# Interchange: DIMACS round-trip, TPTP in both dialects, JSON reports.

from pathlib import Path

from contragen import (
    Report,
    build_ftsc,
    build_report,
    check_theorem,
    derive_theorems,
    emit_dimacs,
    emit_tptp,
    load_scenario,
    parse_dimacs,
    pos,
    validate_input,
)

ftsc = build_ftsc(validate_input([pos("a"), pos("b"), pos("c")]))

# DIMACS: comments carry the symbol map, so parsing restores the set exactly.
dimacs = emit_dimacs(ftsc.clause_set)
print(dimacs)
assert parse_dimacs(dimacs) == ftsc.clause_set
print("round-trip exact\n")

# TPTP cnf mode: clauses as axioms, one conjecture per theorem. Conclusions
# are conjunctions of units, so conjectures use fof conjunction syntax.
theorems = derive_theorems(ftsc)
print(emit_tptp(ftsc, theorems, mode="cnf"))

# fof mode quantifies over the scenario's variables.
scenario = load_scenario(Path(__file__).parent.parent / "scenarios" / "finance_capital.yaml")
fol = build_ftsc(scenario.signatures()[0])
print(emit_tptp(fol, derive_theorems(fol)[:2], mode="fof", scenario=scenario))

# JSON reports round-trip losslessly; the timestamp is the only field that
# varies between runs.
certified = [check_theorem(t) for t in theorems]
report = build_report(ftsc, certified)
assert Report.from_json(report.to_json()) == report
print("report round-trip lossless; theorems:",
      [(t.removed_index, t.certified) for t in report.theorems])
