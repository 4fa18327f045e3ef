"""contragen: deterministic triangular contradiction theorems, verified and explained.

The package builds minimal unsatisfiable clause chains from literal lists,
derives every single-clause-removal entailment together with one replayable
proof per chain, certifies the results with an independent satisfiability
oracle, and renders them as domain-aligned explanations and ranked
remediation reports. DIMACS, TPTP, and a JSON report schema cover
interchange; the ``contragen`` console script drives the whole pipeline.

The package root re-exports the names the demos use. Everything else is
imported from the module that defines it (``contragen.core``,
``contragen.generator``, ``contragen.verifier``, ``contragen.fol``,
``contragen.explain``, ``contragen.formats``, ``contragen.report``).
"""

__version__ = "0.1.0"

from .core import (
    Clause,
    ClauseSet,
    ComplementaryPairError,
    Signature,
    canonicalize,
    evaluate_clause,
    evaluate_set,
    neg,
    pos,
    validate_input,
)
from .generator import (
    EnumerationCapExceededError,
    build_ftsc,
    closure_counts,
    derive_theorems,
    enumerate_ftscs,
)
from .verifier import check_mus, check_theorem, is_satisfiable, replay_trace
from .fol import GroundingDomain, PredicateAtom, build_fol_ftsc, var
from .explain import load_scenario, rank, verbalize
from .formats import emit_dimacs, emit_tptp, parse_dimacs
from .report import Report, build_report

__all__ = [
    "__version__",
    # core
    "Clause",
    "ClauseSet",
    "ComplementaryPairError",
    "Signature",
    "canonicalize",
    "evaluate_clause",
    "evaluate_set",
    "neg",
    "pos",
    "validate_input",
    # generator
    "EnumerationCapExceededError",
    "build_ftsc",
    "closure_counts",
    "derive_theorems",
    "enumerate_ftscs",
    # verifier
    "check_mus",
    "check_theorem",
    "is_satisfiable",
    "replay_trace",
    # fol
    "GroundingDomain",
    "PredicateAtom",
    "build_fol_ftsc",
    "var",
    # explain
    "load_scenario",
    "rank",
    "verbalize",
    # formats
    "emit_dimacs",
    "emit_tptp",
    "parse_dimacs",
    # report
    "Report",
    "build_report",
]
