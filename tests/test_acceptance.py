"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite progresses. Every tolerance is pinned here; nothing is deferred.
"""

import functools
import json
import math
import random
import re
import statistics
import time
from pathlib import Path

import pytest

from contragen import (
    Report,
    build_ftsc,
    check_mus,
    check_theorem,
    derive_theorems,
    enumerate_ftscs,
    emit_dimacs,
    emit_tptp,
    is_satisfiable,
    load_scenario,
    parse_dimacs,
    pos,
    rank,
    replay_trace,
    validate_input,
    verbalize,
)
from contragen import verifier
from contragen.cli import EXIT_OK, run_cli
from contragen.core import replace
from contragen.generator import CERT_VERIFIED

from conftest import SCENARIO_DIR, random_clause_set
from tptp_check import check_tptp

GOLDEN = Path(__file__).parent / "golden"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {title}")
                raise
            print(f"[criterion {number}] PASS: {title}")

        return wrapper

    return decorate


def chain_signature(n):
    return validate_input([pos(f"x{i}") for i in range(1, n + 1)])


@criterion(1, "construction sweep: unsatisfiable and minimal for n=1..8, under 10s")
def test_criterion_1_construction_sweep():
    started = time.perf_counter()
    for n in range(1, 9):
        clause_set = build_ftsc(chain_signature(n)).clause_set
        sat = is_satisfiable(clause_set)
        assert not sat.satisfiable, f"n={n} not unsatisfiable"
        report = check_mus(clause_set)
        assert report.is_mus, f"n={n} not minimal"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


@criterion(2, "every theorem certifies and its proof replays for n=1..8")
def test_criterion_2_theorem_certification():
    for n in range(1, 9):
        ftsc = build_ftsc(chain_signature(n))
        result = replay_trace(ftsc.proof, ftsc.clause_set)
        assert result, (n, result.failed_step, result.reason)
        theorems = derive_theorems(ftsc)
        assert verifier.replay_theorems(theorems) == {}, n
        for theorem in theorems:
            checked = check_theorem(theorem)
            assert checked.certified == CERT_VERIFIED, (n, theorem.removed_index)


@criterion(3, "closure: exactly n! pairwise-distinct clause sets for n=1..6")
def test_criterion_3_closure_count():
    for n in range(1, 7):
        seen = set()
        count = 0
        for ftsc in enumerate_ftscs(chain_signature(n)):
            count += 1
            seen.add(ftsc.clause_set.as_sets())
        expected = math.factorial(n)
        assert count == expected, f"n={n}: {count} != {expected}"
        assert len(seen) == expected, f"n={n}: only {len(seen)} distinct"
    assert math.factorial(4) == 24  # the n=4 count called out explicitly
    assert math.factorial(6) == 720


# Frozen by hand from the published case studies: the four-predicate
# medical chain and its five entailments.
_MEDICAL_CLAUSE_SETS = [
    {"Infection"},
    {"~Infection", "HighWBC"},
    {"~Infection", "~HighWBC", "Fever"},
    {"~Infection", "~HighWBC", "~Fever", "RequiresAntibiotics"},
    {"~Infection", "~HighWBC", "~Fever", "~RequiresAntibiotics"},
]


@criterion(4, "worked examples: medical clauses and conclusions, contract theorems")
def test_criterion_4_worked_examples(tmp_path, capsys):
    target = tmp_path / "medical.json"
    code = run_cli(
        [
            "generate",
            "Infection",
            "HighWBC",
            "Fever",
            "RequiresAntibiotics",
            "--output",
            str(target),
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    report = Report.from_json(target.read_text())

    golden_clauses = (GOLDEN / "medical_clauses.txt").read_text().splitlines()
    rendered = [" | ".join(c) for c in report.clauses]
    assert rendered == golden_clauses
    assert [set(c) for c in report.clauses] == _MEDICAL_CLAUSE_SETS

    golden_conclusions = (GOLDEN / "medical_conclusions.txt").read_text().splitlines()
    rendered = [
        f"{t.removed_index}: " + " & ".join(t.conclusion) for t in report.theorems
    ]
    assert rendered == golden_conclusions
    assert all(t.certified == CERT_VERIFIED for t in report.theorems)
    assert len(report.theorems) == 5

    # contract case: six theorems over the five contract predicates
    scenario = load_scenario(SCENARIO_DIR / "contract_terms.yaml")
    ftsc = build_ftsc(scenario.signatures()[0])
    theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
    assert len(theorems) == 6
    assert all(t.certified == CERT_VERIFIED for t in theorems)
    golden_contract = (GOLDEN / "contract_conclusions.txt").read_text().splitlines()
    rendered = [
        f"{t.removed_index}: " + " & ".join(str(l) for l in t.conclusion)
        for t in theorems
    ]
    assert rendered == golden_contract


@criterion(5, "size and cost shape: n(n+3)/2 literals exactly, cubic-bounded growth")
def test_criterion_5_cost_shape():
    for n in range(1, 65):
        ftsc = build_ftsc(chain_signature(n))
        total = sum(len(c) for c in ftsc.clause_set.clauses)
        assert total == n * (n + 3) // 2, n

    sizes = range(2, 13)
    counts = []
    for n in sizes:
        ftsc = build_ftsc(chain_signature(n))
        counts.append(sum(map(len, ftsc.clause_set.clauses)))
    fit = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(c) for c in counts]
    )
    assert fit.slope <= 3.2, f"log-log slope {fit.slope:.3f}"

    # full enumeration cost, desk-checkable only at small n
    for n in range(1, 7):
        ftscs = list(enumerate_ftscs(chain_signature(n)))
        assert len(ftscs) == math.factorial(n)
        literals = sum(sum(map(len, f.clause_set.clauses)) for f in ftscs)
        assert literals == math.factorial(n) * n * (n + 3) // 2


@criterion(6, "oracle cross-validation: DPLL vs truth table, zero disagreements")
def test_criterion_6_oracle_agreement():
    rng = random.Random(20260811)
    disagreements = 0
    for _ in range(1000):
        clause_set = random_clause_set(rng, max_vars=12)
        tt = verifier._truth_table(clause_set)
        dp = verifier._dpll(clause_set)
        if tt.satisfiable != dp.satisfiable:
            disagreements += 1
    assert disagreements == 0

    for n in range(1, 7):
        clause_set = build_ftsc(chain_signature(n)).clause_set
        for i in range(len(clause_set.clauses)):
            reduced = clause_set.without(i)
            tt = verifier._truth_table(reduced)
            dp = verifier._dpll(reduced)
            assert tt.satisfiable == dp.satisfiable == True  # noqa: E712


_APPENDIX_SCENARIOS = {
    # file name -> (flagged index, declared priority)
    "contract_supply.yaml": (4, "High"),
    "contract_logistics.yaml": (3, "Medium"),
    "contract_nda.yaml": (5, "Low"),
    "healthcare_data_sharing.yaml": (3, "High"),
    "healthcare_prescribing.yaml": (5, "Medium"),
    "healthcare_billing.yaml": (6, "Low"),
    "finance_capital.yaml": (5, "Medium"),
    "finance_trading.yaml": (6, "Low"),
    "regulatory_export.yaml": (2, "Medium"),
    "regulatory_privacy.yaml": (6, "Medium"),
}

_DOMAIN_GROUPS = {
    "contract": ["contract_supply.yaml", "contract_logistics.yaml", "contract_nda.yaml"],
    "healthcare": [
        "healthcare_data_sharing.yaml",
        "healthcare_prescribing.yaml",
        "healthcare_billing.yaml",
    ],
    "finance": ["finance_capital.yaml", "finance_trading.yaml"],
    "regulatory": ["regulatory_export.yaml", "regulatory_privacy.yaml"],
}


@criterion(7, "all ten case-study scenarios certify; remediations and ranking match")
def test_criterion_7_scenario_fixtures():
    flagged_explanations = {}
    for filename, (index, priority) in _APPENDIX_SCENARIOS.items():
        scenario = load_scenario(SCENARIO_DIR / filename)
        ftscs = [build_ftsc(s) for s in scenario.signatures()]
        assert len(ftscs) == 1, filename
        theorems = [check_theorem(t) for t in derive_theorems(ftscs[0])]
        assert all(t.certified == CERT_VERIFIED for t in theorems), filename
        flagged = next(t for t in theorems if t.removed_index == index)
        explanation = verbalize(flagged, scenario)
        fixture_text = scenario.remediation_for(index)
        assert explanation.remediation == fixture_text, filename
        assert explanation.declared_priority == priority, filename
        flagged_explanations[filename] = explanation

    order = {"High": 0, "Medium": 1, "Low": 2}
    for domain, files in _DOMAIN_GROUPS.items():
        report = rank([flagged_explanations[f] for f in files])
        got = [
            (e.explanation.scenario, e.explanation.removed_index, e.priority)
            for e in report.entries
        ]
        expected_priorities = [_APPENDIX_SCENARIOS[f][1] for f in files]
        assert [p for _, _, p in got] == sorted(
            expected_priorities, key=order.__getitem__
        ), (domain, got)
        # the declared flagged rows appear in priority order, High first
        ranks = [order[p] for _, _, p in got]
        assert ranks == sorted(ranks), (domain, got)


@criterion(8, "format round-trips: DIMACS exact, TPTP grammatical, JSON lossless")
def test_criterion_8_format_roundtrips():
    for n in range(1, 9):
        clause_set = build_ftsc(chain_signature(n)).clause_set
        assert parse_dimacs(emit_dimacs(clause_set)) == clause_set

    rng = random.Random(42)
    for _ in range(100):
        clause_set = random_clause_set(rng, max_vars=8)
        assert parse_dimacs(emit_dimacs(clause_set)) == clause_set

    medical = build_ftsc(
        validate_input(
            [pos(s) for s in ["Infection", "HighWBC", "Fever", "RequiresAntibiotics"]]
        )
    )
    theorems = derive_theorems(medical)
    assert check_tptp(emit_tptp(medical, theorems, mode="cnf")) == 10

    scenario = load_scenario(SCENARIO_DIR / "healthcare_data_sharing.yaml")
    ftsc = build_ftsc(scenario.signatures()[0])
    fol_theorems = derive_theorems(ftsc)
    assert check_tptp(emit_tptp(ftsc, fol_theorems, mode="fof", scenario=scenario)) == 12
    assert parse_dimacs(emit_dimacs(ftsc.clause_set)) == ftsc.clause_set

    from contragen import build_report

    certified = [check_theorem(t) for t in theorems]
    explanations = [
        verbalize(t, load_scenario(SCENARIO_DIR / "medical.yaml")) for t in certified
    ]
    report = replace(
        build_report(medical, certified, scenario="medical-diagnosis"),
        explanations=tuple(explanations),
        ranking=rank(explanations),
    )
    assert Report.from_json(report.to_json()) == report


@criterion(9, "degradation: template-only explain is deterministic without a model")
def test_criterion_9_degradation(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONTRAGEN_MODEL_ENDPOINT", raising=False)
    monkeypatch.delenv("CONTRAGEN_MODEL_KEY", raising=False)
    outputs = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        code = run_cli(
            [
                "explain",
                str(SCENARIO_DIR / "healthcare_data_sharing.yaml"),
                "--output",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        outputs.append(target.read_bytes())
    stripped = [
        re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', blob)
        for blob in outputs
    ]
    assert stripped[0] == stripped[1]
    report = json.loads(outputs[0])
    assert all(e["provenance"] == "template" for e in report["explanations"])
    assert report["ranking"]["entries"][0]["priority"] == "High"
