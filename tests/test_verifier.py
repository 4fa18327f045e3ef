"""Satisfiability oracles, minimality reports, certification, trace replay."""

import json
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import contragen.verifier as verifier
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
    replay_trace,
    validate_input,
)
from contragen.core import Literal, replace
from contragen.generator import (
    CERT_FAILED,
    CERT_VERIFIED,
    Ftsc,
    ProofTrace,
    Theorem,
    TraceStep,
    permutation_by_rank,
    conclusion_for,
)
from contragen.verifier import MusReport, SatResult, certification_failures, replay_theorems

from conftest import random_clause_set, tamper_step
from oracles import (
    brute_force_entails,
    brute_force_is_mus,
    brute_force_satisfiable,
    plain_clauses,
    unit_propagation_refutes,
)

MEDICAL = ["Infection", "HighWBC", "Fever", "RequiresAntibiotics"]


def signature_of(names):
    return validate_input([pos(s) for s in names])


def chain(names):
    return build_ftsc(signature_of(names))


class TestIsSatisfiable:
    def test_unit_contradiction(self):
        clause_set = ClauseSet.build(
            [Clause((pos("x1"),)), Clause((neg("x1"),))], Signature(("x1",))
        )
        assert not is_satisfiable(clause_set).satisfiable

    def test_unit_propagation_witness(self):
        clause_set = ClauseSet.build(
            [Clause((pos("x1"),)), Clause((pos("x2"), neg("x1")))],
            Signature(("x1", "x2")),
        )
        result = is_satisfiable(clause_set)
        assert result.satisfiable
        assert result.witness == {"x1": True, "x2": True}

    def test_medical_chain_unsatisfiable(self):
        assert not is_satisfiable(chain(MEDICAL).clause_set).satisfiable

    def test_empty_clause_unsatisfiable(self):
        clause_set = ClauseSet.build([Clause(())], Signature(("x1",)))
        for search in (verifier._truth_table, verifier._dpll):
            assert not search(clause_set).satisfiable

    def test_tautology_constrains_nothing(self):
        clause_set = ClauseSet.build(
            [Clause((pos("x1"),)), Clause((pos("x1"), neg("x1")))], Signature(("x1",))
        )
        for search in (verifier._truth_table, verifier._dpll):
            assert search(clause_set).witness == {"x1": True}

    def test_no_clauses_satisfiable(self):
        clause_set = ClauseSet((), Signature(("x1", "x2")))
        result = is_satisfiable(clause_set)
        assert result.satisfiable
        assert set(result.witness) == {"x1", "x2"}

    def test_method_selection(self):
        small = chain(["a", "b"]).clause_set
        assert is_satisfiable(small).method == "truth-table"
        big = chain([f"x{i}" for i in range(1, 19)]).clause_set
        assert is_satisfiable(big).method == "dpll"

    @pytest.mark.parametrize("above", [0, 1])
    def test_either_side_of_the_limit(self, above):
        # Random 3-SAT at 4.26 clauses per symbol, as the limit was measured on.
        n = verifier.TRUTH_TABLE_MAX_VARS + above
        rng = random.Random(n)
        signature = Signature(tuple(f"v{i}" for i in range(n)))
        clauses = [
            [Literal(s, rng.random() < 0.5) for s in rng.sample(signature.symbols, 3)]
            for _ in range(round(4.26 * n))
        ]
        clause_set = ClauseSet.build(clauses, signature)
        result = is_satisfiable(clause_set)
        assert result.method == ("dpll" if above else "truth-table")
        sat, model = brute_force_satisfiable(plain_clauses(clause_set), signature.symbols)
        assert (result.satisfiable, result.witness) == (sat, model)
        tt, dp = search_results(clause_set)
        assert [r.witness for r in tt] == [r.witness for r in dp]

    @pytest.mark.parametrize("check", [is_satisfiable, check_mus])
    def test_no_method_argument(self, check):
        with pytest.raises(TypeError):
            check(chain(["a", "b"]).clause_set, "dpll")

    def test_status_field(self):
        result = is_satisfiable(ClauseSet((), Signature(("a",))))
        assert result.satisfiable


@st.composite
def small_clause_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    signature = Signature(tuple(f"v{i}" for i in range(1, n + 1)))
    count = draw(st.integers(min_value=1, max_value=10))
    clauses = []
    for _ in range(count):
        width = draw(st.integers(min_value=1, max_value=n))
        chosen = draw(
            st.lists(
                st.sampled_from(signature.symbols),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        clauses.append(Clause(tuple(Literal(s, draw(st.booleans())) for s in chosen)))
    return ClauseSet.build(clauses, signature)


class TestOracleAgreement:
    @given(small_clause_sets())
    @settings(max_examples=150)
    def test_verdicts_agree_property(self, clause_set):
        tt = verifier._truth_table(clause_set)
        dp = verifier._dpll(clause_set)
        assert tt.satisfiable == dp.satisfiable

    def test_random_sets_agree_with_brute_force(self):
        rng = random.Random(2024)
        for _ in range(200):
            clause_set = random_clause_set(rng, max_vars=8)
            expected, _ = brute_force_satisfiable(
                plain_clauses(clause_set), clause_set.signature.symbols
            )
            tt = verifier._truth_table(clause_set)
            dp = verifier._dpll(clause_set)
            assert tt.satisfiable == dp.satisfiable == expected
            for result in (tt, dp):
                if result.satisfiable:
                    assert evaluate_set(clause_set, result.witness)

    def test_methods_return_identical_witnesses(self):
        rng = random.Random(99)
        for _ in range(100):
            clause_set = random_clause_set(rng, max_vars=7)
            tt = verifier._truth_table(clause_set)
            dp = verifier._dpll(clause_set)
            assert tt.witness == dp.witness


@st.composite
def int_cnf(draw):
    """Raw signed-integer CNF: empty clauses, repeated literals and
    tautologies allowed, plus unit clauses that may contradict each other."""
    n = draw(st.integers(min_value=1, max_value=6))
    literal = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from((v, -v))
    )
    clauses = draw(st.lists(st.lists(literal, max_size=5), max_size=10))
    units = [[lit] for lit in draw(st.lists(literal, max_size=3))]
    return n, clauses, units


def plain_int(clauses):
    """Integer clauses in the oracles' (symbol, negated) form."""
    return [[(f"v{abs(l)}", l < 0) for l in clause] for clause in clauses]


def int_clause_set(clauses, n):
    """The clauses as written, over v1..vn: not canonicalized, so repeated
    literals, tautologies and empty clauses reach the solver."""
    rows = plain_int(clauses)
    return ClauseSet(
        tuple(Clause(tuple(Literal(s, negated) for s, negated in row)) for row in rows),
        Signature(tuple(f"v{v}" for v in range(1, n + 1))),
    )


def dpll_model(clauses, n):
    """DPLL's witness as a list, or None when it finds the set unsatisfiable."""
    result = verifier._dpll(int_clause_set(clauses, n))
    if not result.satisfiable:
        return None
    return [result.witness[f"v{v}"] for v in range(1, n + 1)]


def oracle_model(clauses, n):
    """The lexicographically first model, true preferred, as a list."""
    symbols = [f"v{v}" for v in range(1, n + 1)]
    sat, env = brute_force_satisfiable(plain_int(clauses), symbols)
    return [env[s] for s in symbols] if sat else None


def pigeonhole(p):
    """PHP(p, p - 1): every pigeon in a hole, no hole shared; a MUS."""
    pigeons, holes = range(p), range(p - 1)
    signature = Signature(tuple(f"p{i}h{h}" for i in pigeons for h in holes))
    clauses = [[pos(f"p{i}h{h}") for h in holes] for i in pigeons]
    clauses += [
        [neg(f"p{i}h{h}"), neg(f"p{j}h{h}")]
        for h in holes for i in pigeons for j in pigeons if i < j
    ]
    return ClauseSet.build(clauses, signature)


class TestDpllSolver:
    @given(int_cnf())
    @settings(max_examples=300)
    def test_solve_agrees_with_brute_force(self, case):
        n, clauses, units = case
        assert dpll_model(clauses + units, n) == oracle_model(clauses + units, n)
        symbols = [f"v{v}" for v in range(1, n + 1)]
        for var in range(1, n + 1):
            for lit in (var, -var):
                entailed = brute_force_entails(
                    plain_int(clauses), symbols, (f"v{var}", lit < 0)
                )
                assert (dpll_model(clauses + [[-lit]], n) is None) == entailed

    def test_contradictory_assumptions(self):
        assert dpll_model([[1, 2], [1], [-1]], 2) is None
        assert dpll_model([[1, 2]], 2) == [True, True]

    def test_decisions_deeper_than_recursion_limit(self):
        # One all-negative clause: every variable but the last is decided
        # true, nested, before the last is forced false.
        n = sys.getrecursionlimit() + 100
        signature = Signature(tuple(f"x{i}" for i in range(1, n + 1)))
        clause_set = ClauseSet.build(
            [Clause(tuple(neg(s) for s in signature.symbols))], signature
        )
        result = verifier._dpll(clause_set)
        assert result.satisfiable
        assert [result.witness[s] for s in signature.symbols] == [True] * (n - 1) + [False]

    def test_pigeonhole_is_a_mus_by_search(self):
        # PHP(5) has 20 symbols, above the truth table's limit, so DPLL
        # searches the set and each of its 45 deletions.
        clause_set = pigeonhole(5)
        assert clause_set.signature.size == 20
        report = check_mus(clause_set)
        assert report.is_unsatisfiable and report.is_mus
        assert report.method == "dpll"
        assert report.searches == 46
        for i, result in enumerate(report.deletion_results):
            assert evaluate_set(clause_set.without(i), result.witness)


class TestCheckMus:
    def test_two_literal_chain_is_mus(self):
        clause_set = chain(["x1", "x2"]).clause_set
        # frozen via the independent brute-force oracle over 4 assignments
        assert brute_force_is_mus(
            plain_clauses(clause_set), clause_set.signature.symbols
        )
        report = check_mus(clause_set)
        assert report.is_unsatisfiable
        assert report.is_mus
        assert all(r.satisfiable for r in report.deletion_results)

    def test_unsat_but_not_minimal(self):
        signature = Signature(("x1", "x2"))
        clause_set = ClauseSet.build(
            [Clause((pos("x1"),)), Clause((neg("x1"),)), Clause((pos("x2"),))],
            signature,
        )
        report = check_mus(clause_set)
        assert report.is_unsatisfiable
        assert not report.is_mus
        # deleting (x2) leaves the contradiction intact
        assert not report.deletion_results[2].satisfiable

    def test_contract_chain_is_mus(self):
        names = [
            "ExclusiveSupply",
            "TimelyDelivery",
            "PenaltyForDelay",
            "TerminationWithoutCause",
            "FixedPricing",
        ]
        clause_set = chain(names).clause_set
        assert brute_force_is_mus(
            plain_clauses(clause_set), clause_set.signature.symbols
        )
        assert check_mus(clause_set).is_mus

    def test_satisfiable_set_not_mus(self):
        clause_set = ClauseSet.build([Clause((pos("a"),))], Signature(("a",)))
        report = check_mus(clause_set)
        assert not report.is_unsatisfiable
        assert not report.is_mus


@st.composite
def permuted_chains(draw, max_n=16):
    """A chain over up to ``max_n`` symbols in a random order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    order = draw(st.permutations([f"x{i}" for i in range(n)]))
    return build_ftsc(Signature(tuple(order)))


def search_results(clause_set):
    """Per search, truth table then DPLL, the results of one call on the
    set and one on each deletion, chosen by moving the size limit
    ``is_satisfiable`` reads at each call."""
    searches = []
    for limit in (clause_set.signature.size, -1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verifier, "TRUTH_TABLE_MAX_VARS", limit)
            searches.append([is_satisfiable(clause_set)] + [
                is_satisfiable(clause_set.without(i)) for i in range(len(clause_set.clauses))
            ])
    return searches


def model_of(mask, symbols):
    return {s: bool(mask >> j & 1) for j, s in enumerate(symbols)}


def assert_matches_searches(clause_set):
    """``check_mus`` against one search of the set and of each deletion:
    equal verdicts and witnesses. A deletion reads "certificate" exactly
    when the set is unsatisfiable and its candidate satisfies every other
    clause; otherwise its result is the search's. Returns the report."""
    report = check_mus(clause_set)
    overall = is_satisfiable(clause_set)
    assert report.is_unsatisfiable is not overall.satisfiable
    symbols, plain = clause_set.signature.symbols, plain_clauses(clause_set)
    for i, result in enumerate(report.deletion_results):
        searched = is_satisfiable(clause_set.without(i))
        assert (result.satisfiable, result.witness) == (searched.satisfiable, searched.witness)
        # The candidate: clause i's unnegated symbols false, every other true.
        falsified = {s for s, negated in plain[i] if not negated}
        model = {s: s not in falsified for s in symbols}
        certified = report.is_unsatisfiable and evaluate_set(clause_set.without(i), model)
        assert (result.method == "certificate") == certified
        if not certified:
            assert result == searched
    assert report.is_mus == (
        report.is_unsatisfiable and all(r.satisfiable for r in report.deletion_results)
    )
    return report


@st.composite
def certificate_cases(draw):
    """Clauses over up to 6 symbols, kept as written: empty clauses,
    tautologies and repeated literals included."""
    n = draw(st.integers(min_value=0, max_value=6))
    symbols = tuple(f"v{i}" for i in range(n))
    clauses = []
    if n:
        literal = st.builds(Literal, st.sampled_from(symbols), st.booleans())
        # Shortest clause 0, 1 or 2 literals: without units, some
        # unsatisfiable sets are ones propagation cannot refute.
        smallest = draw(st.integers(min_value=0, max_value=2))
        clause = st.lists(literal, min_size=smallest, max_size=3)
        clauses = draw(st.lists(clause, max_size=10))
    elif draw(st.booleans()):
        clauses = [[]]
    return ClauseSet(tuple(Clause(tuple(c)) for c in clauses), Signature(symbols))


def tree():
    """A deficiency-1 tree that is not a chain: x1 at the root, x2 below
    its positive side and x3 below its negative side."""
    x1, x2, x3 = pos("x1"), pos("x2"), pos("x3")
    clauses = [[x1, x2], [x1, x2.negate()], [x1.negate(), x3], [x1.negate(), x3.negate()]]
    return ClauseSet.build(clauses, Signature(("x1", "x2", "x3")))


def strengthened():
    """a, ~a | b, ~b: minimally unsatisfiable, yet deleting a leaves
    a = b = false as its only model, not the candidate with b true."""
    a, b = pos("a"), pos("b")
    return ClauseSet.build([[a], [a.negate(), b], [b.negate()]], Signature(("a", "b")))


class TestCertificates:
    @given(permuted_chains())
    @settings(max_examples=60, deadline=None)
    def test_chain_certificates_match_both_searches(self, ftsc):
        report = check_mus(ftsc.clause_set)
        assert report.searches == 0
        assert report.method == "certificate"
        assert (report.is_unsatisfiable, report.is_mus) == (True, True)
        for overall, *deletions in search_results(ftsc.clause_set):
            assert not overall.satisfiable
            assert all(r.satisfiable for r in deletions)
            assert [r.witness for r in report.deletion_results] == [r.witness for r in deletions]

    @given(permuted_chains(max_n=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_certificates_fall_back(self, ftsc, data):
        # A literal flipped leaves the chain satisfiable, so every deletion
        # is searched; one dropped keeps it unsatisfiable, and candidates
        # the kernel rejects are searched.
        clauses = [list(c.literals) for c in ftsc.clause_set.clauses]
        k = data.draw(st.integers(0, ftsc.n))
        j = data.draw(st.integers(0, len(clauses[k]) - 1))
        if data.draw(st.sampled_from(("flip", "drop"))) == "flip":
            clauses[k][j] = clauses[k][j].negate()
        else:
            del clauses[k][j]
        clause_set = ClauseSet(tuple(Clause(tuple(c)) for c in clauses), ftsc.signature)
        assert_matches_searches(clause_set)

    @pytest.mark.parametrize("mutation", ["duplicate", "drop"])
    @given(ftsc=permuted_chains(max_n=10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_mus_never_passes(self, mutation, ftsc, data):
        clauses = list(ftsc.clause_set.clauses)
        k = data.draw(st.integers(0, ftsc.n))
        if mutation == "duplicate":
            clauses.insert(data.draw(st.integers(0, len(clauses))), clauses[k])
        else:
            del clauses[k]
        report = assert_matches_searches(ClauseSet(tuple(clauses), ftsc.signature))
        assert not report.is_mus

    def test_refutation_propagation_cannot_find_is_searched(self):
        # Every pair of polarities over a, b: unsatisfiable, yet no clause is
        # a unit, so propagation has nothing to start from.
        a, b = pos("a"), pos("b")
        clauses = [[a, b], [a, b.negate()], [a.negate(), b], [a.negate(), b.negate()]]
        clause_set = ClauseSet.build(clauses, Signature(("a", "b")))
        report = check_mus(clause_set)
        assert report.is_unsatisfiable and report.is_mus
        assert report.method == "truth-table"
        assert report.searches == 1
        # Deleting clause i leaves exactly the model that violates it.
        assert [(r.method, r.witness) for r in report.deletion_results] == [
            ("certificate", model_of(mask, ("a", "b"))) for mask in (0b00, 0b10, 0b01, 0b11)
        ]

    def test_tree_is_certified_after_one_search(self):
        report = assert_matches_searches(tree())
        assert report.is_mus
        assert report.searches == 1

    def test_missing_certificates_are_searched(self):
        # a, ~a | b, ~a | ~b | c, ~c: refuted by propagation; deleting a or
        # ~a | b leaves no model with ~c's symbol true, so both are searched.
        a, b, c = pos("a"), pos("b"), pos("c")
        clauses = [[a], [a.negate(), b], [a.negate(), b.negate(), c], [c.negate()]]
        clause_set = ClauseSet.build(clauses, Signature(("a", "b", "c")))
        report = assert_matches_searches(clause_set)
        assert report.method == "certificate"
        assert [r.method for r in report.deletion_results] == [
            "truth-table", "truth-table", "certificate", "certificate"
        ]
        assert report.searches == 2
        assert report.is_mus

    def test_satisfiable_set_every_question_is_searched(self, monkeypatch):
        monkeypatch.setattr(verifier, "TRUTH_TABLE_MAX_VARS", 2)
        ftsc = chain(["a", "b", "c"])
        assert check_mus(ftsc.clause_set).searches == 0
        # The last clause's first literal flipped: a satisfiable set offers
        # no candidates, so the set and each deletion are searched.
        clauses = [list(c.literals) for c in ftsc.clause_set.clauses]
        clauses[-1][0] = clauses[-1][0].negate()
        report = check_mus(ClauseSet.build(clauses, ftsc.signature))
        assert report.method == "dpll"
        assert report.searches == 5
        assert [r.method for r in report.deletion_results] == ["dpll"] * 4

    @given(certificate_cases())
    @settings(max_examples=300, deadline=None)
    def test_derived_certificates_agree_with_oracles(self, clause_set):
        symbols, plain = clause_set.signature.symbols, plain_clauses(clause_set)
        report = assert_matches_searches(clause_set)
        refutes = unit_propagation_refutes(plain, symbols)
        assert (report.method == "certificate") == refutes
        sat, _ = brute_force_satisfiable(plain, symbols)
        assert report.is_unsatisfiable is not sat
        assert report.is_mus == brute_force_is_mus(plain, symbols)
        for i, result in enumerate(report.deletion_results):
            assert (result.satisfiable, result.witness) == brute_force_satisfiable(
                plain[:i] + plain[i + 1 :], symbols
            )

    @given(certificate_cases())
    @settings(max_examples=100, deadline=None)
    def test_blocks_give_the_one_block_report(self, clause_set):
        expected = TestPendingDeletionResults.eager(check_mus(clause_set))
        widths = []
        columns = verifier._candidate_columns

        def recording_columns(masks, n):
            widths.append(len(masks))
            return columns(masks, n)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verifier, "_BLOCK", 3)
            patch.setattr(verifier, "_candidate_columns", recording_columns)
            assert check_mus(clause_set) == expected
        assert all(width <= 3 for width in widths)
        if expected.is_unsatisfiable:
            assert sum(widths) == len(clause_set.clauses)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_reordered_chain_is_refuted_without_search(self, order, n):
        ftsc = chain([f"x{i}" for i in range(n)])
        positions = list(range(n + 1))[::-1]
        if order == "shuffled":
            random.Random(n).shuffle(positions)
        clauses = tuple(ftsc.clause_set.clauses[k] for k in positions)
        report = check_mus(ClauseSet(clauses, ftsc.signature))
        assert report.method == "certificate"
        assert report.searches == 0
        assert report.is_mus

    @pytest.mark.parametrize("flip", [False, True])
    def test_tautology_is_never_a_unit(self, flip):
        x, not_x = pos("x"), neg("x")
        # x | ~x and ~x: satisfiable, so propagation must not refute it.
        clauses = [[x, not_x], [not_x]]
        if flip:
            clauses.reverse()
        clause_set = ClauseSet.build(clauses, Signature(("x",)))
        report = assert_matches_searches(clause_set)
        assert report.method == "truth-table" and report.searches == 3
        assert (report.is_unsatisfiable, report.is_mus) == (False, False)
        # Nor may it hide a conflict: adding x is refuted by propagation.
        clause_set = ClauseSet.build(clauses + [[x]], Signature(("x",)))
        assert check_mus(clause_set).method == "certificate"


class TestPendingDeletionResults:
    """``check_mus`` keeps accepted certificates as masks and builds their
    results on first read; the report it gives is the eager one."""

    @staticmethod
    def eager(report):
        return MusReport(
            report.is_unsatisfiable, tuple(report.deletion_results), report.is_mus,
            report.method,
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_the_eager_report(self, n):
        ftsc = chain([f"x{i}" for i in range(n)][::-1])
        report = check_mus(ftsc.clause_set)
        symbols, plain = ftsc.signature.symbols, plain_clauses(ftsc.clause_set)
        # The oracle's first model of each deletion, written out eagerly.
        firsts = [brute_force_satisfiable(plain[:i] + plain[i + 1 :], symbols)[1]
                  for i in range(n + 1)]
        expected = MusReport(
            True, tuple(SatResult(True, first, "certificate") for first in firsts), True,
            "certificate",
        )
        assert repr(report) == repr(expected)
        assert report == expected
        # Witnesses are dicts, so neither report hashes.
        for value in (report, expected):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
        assert pickle.loads(pickle.dumps(report)) == expected
        assert [r.witness for r in report.deletion_results] == firsts

    @pytest.mark.parametrize("read", [repr, str, pickle.dumps, lambda r: r.deletion_results])
    def test_any_first_read_gives_the_same_report(self, read):
        ftsc = chain(["c", "a", "b"])
        report = check_mus(ftsc.clause_set)
        read(report)
        assert report == self.eager(check_mus(ftsc.clause_set))

    def test_second_read_returns_the_same_tuple(self):
        report = check_mus(strengthened())
        first = report.deletion_results
        assert report.deletion_results is first
        assert [r.method for r in first] == ["truth-table"] + ["certificate"] * 2
        assert report.searches == 1

    def test_verdicts_need_no_results(self):
        ftsc = chain(["a", "b", "c"])
        mus = ftsc.mus
        for theorem in derive_theorems(ftsc):
            assert certification_failures([theorem])[0] is None
        assert mus.is_mus and mus.searches == 0
        # ``deletion_results`` is still unbuilt: no slot is set.
        with pytest.raises(AttributeError):
            object.__getattribute__(mus, "deletion_results")

    def test_no_other_attribute_is_made_up(self):
        report = check_mus(chain(["a"]).clause_set)
        with pytest.raises(AttributeError, match="no_such"):
            report.no_such
        assert not hasattr(report, "__dict__")


@st.composite
def theorem_cases(draw):
    """A theorem over n+1 arbitrary clauses (empty clauses, repeated
    literals and tautologies allowed), a removed index in 0..n+2 and a
    conclusion that is exact or has one literal dropped, flipped or added."""
    n = draw(st.integers(min_value=1, max_value=6))
    symbols = tuple(f"v{i}" for i in range(1, n + 1))
    literal = st.builds(Literal, st.sampled_from(symbols), st.booleans())
    clauses = draw(
        st.lists(st.lists(literal, max_size=4), min_size=n + 1, max_size=n + 1)
    )
    clause_set = ClauseSet.build(clauses, Signature(symbols))
    i = draw(st.integers(min_value=0, max_value=n + 2))
    conclusion = []
    if 1 <= i <= n + 1:
        conclusion = [l.negate() for l in clause_set.clauses[i - 1].literals]
    edit = draw(st.sampled_from(("exact", "drop", "flip", "add")))
    if edit == "add":
        conclusion.insert(draw(st.integers(0, len(conclusion))), draw(literal))
    elif edit != "exact" and conclusion:
        k = draw(st.integers(0, len(conclusion) - 1))
        if edit == "drop":
            del conclusion[k]
        else:
            conclusion[k] = conclusion[k].negate()
    return Theorem(Ftsc(clause_set, symbols, n), i, tuple(conclusion))


def oracle_certifies(theorem):
    """The four certification conditions, decided by brute force."""
    i = theorem.removed_index
    if not 1 <= i <= theorem.source.n + 1:
        return False
    clauses = plain_clauses(theorem.source.clause_set)
    symbols = theorem.source.signature.symbols
    remainder = clauses[: i - 1] + clauses[i:]
    conclusion = [(l.symbol, l.negated) for l in theorem.conclusion]
    return (
        not brute_force_satisfiable(clauses, symbols)[0]
        and brute_force_satisfiable(remainder, symbols)[0]
        and set(conclusion) == {(s, not negated) for s, negated in clauses[i - 1]}
        and all(brute_force_entails(remainder, symbols, l) for l in conclusion)
    )


class TestCheckTheorem:
    @given(theorem_cases())
    @settings(max_examples=400)
    def test_agrees_with_brute_force(self, theorem):
        verified = check_theorem(theorem).certified == CERT_VERIFIED
        assert verified == oracle_certifies(theorem)

    def test_medical_all_verified(self):
        ftsc = chain(MEDICAL)
        for theorem in derive_theorems(ftsc):
            assert check_theorem(theorem).certified == CERT_VERIFIED

    def test_input_not_mutated(self):
        theorem = derive_theorems(chain(["a", "b"]))[0]
        checked = check_theorem(theorem)
        assert theorem.certified == "unchecked"
        assert checked is not theorem

    def test_tampered_conclusion_fails(self):
        ftsc = chain(MEDICAL)
        theorem = derive_theorems(ftsc)[3]  # removal of clause 4
        flipped = tuple(
            l.negate() if l.symbol == "RequiresAntibiotics" else l
            for l in theorem.conclusion
        )
        tampered = replace(theorem, conclusion=flipped)
        assert check_theorem(tampered).certified == CERT_FAILED

    def test_dropped_conjunct_fails(self):
        theorem = derive_theorems(chain(MEDICAL))[3]
        shortened = replace(theorem, conclusion=theorem.conclusion[:-1])
        assert check_theorem(shortened).certified == CERT_FAILED

    @pytest.mark.parametrize("index", [1, 7, 20, 21])
    def test_tampers_fail_on_dpll_path(self, index):
        ftsc = chain([f"x{i}" for i in range(1, 21)])
        theorem = derive_theorems(ftsc)[index - 1]
        assert check_theorem(theorem).certified == CERT_VERIFIED
        conclusion = theorem.conclusion
        flipped = (conclusion[0].negate(),) + conclusion[1:]
        for tampered in (
            replace(theorem, conclusion=flipped),
            replace(theorem, conclusion=conclusion[:-1]),
            replace(theorem, removed_index=0),
            replace(theorem, removed_index=22),
        ):
            assert check_theorem(tampered).certified == CERT_FAILED

    @pytest.mark.parametrize("n", [4, 20])
    def test_source_decided_once_per_construction(self, n, monkeypatch):
        searched, checked = [], []
        search, check = verifier.is_satisfiable, verifier._checked_models

        def counting_search(clause_set):
            searched.append(clause_set)
            return search(clause_set)

        def counting_check(clause_set):
            checked.append(clause_set)
            return check(clause_set)

        monkeypatch.setattr(verifier, "is_satisfiable", counting_search)
        monkeypatch.setattr(verifier, "_checked_models", counting_check)
        ftsc = chain([f"x{i}" for i in range(1, n + 1)])
        theorems = derive_theorems(ftsc)
        for theorem in theorems:
            assert check_theorem(theorem).certified == CERT_VERIFIED
        # One certificate check per construction, and no search at all.
        assert len(checked) == 1 and checked[0] is ftsc.clause_set
        assert searched == []
        # A different construction is decided afresh, not served from memory.
        # It is satisfiable, so a search decides it and no candidate is checked.
        clauses = ftsc.clause_set.clauses
        weak = ClauseSet(clauses[:-1] + (clauses[-2],), ftsc.signature)
        impostor = replace(ftsc, clause_set=weak)
        tampered = replace(theorems[0], source=impostor)
        assert check_theorem(tampered).certified == CERT_FAILED
        assert checked == [ftsc.clause_set]
        assert sum(c is weak for c in searched) == 1

    def test_short_source_fails_without_raising(self):
        ftsc = chain(["a", "b"])
        short = replace(ftsc, clause_set=ftsc.clause_set.without(2))
        for theorem in derive_theorems(ftsc):
            checked = check_theorem(replace(theorem, source=short))
            assert checked.certified == CERT_FAILED

    def test_degenerate_removal_of_final_clause(self):
        theorem = derive_theorems(chain(["x1"]))[1]
        assert [str(l) for l in theorem.conclusion] == ["x1"]
        assert check_theorem(theorem).certified == CERT_VERIFIED

    @pytest.mark.parametrize(
        "edit, verified",
        [
            (lambda c: c + (pos("ghost"),), False),
            (lambda c: (neg("ghost"),) + c[1:], False),
            (lambda c: c + c[:1], True),
            (lambda c: c[:1] + c, True),
            (lambda c: c[:-1] + (c[-1].negate(),), False),
            (lambda c: (c[0].negate(),) + c[1:], False),
        ],
        ids=["outside-added", "outside-replacing", "duplicate-last", "duplicate-first",
             "flipped-last", "flipped-first"],
    )
    @pytest.mark.parametrize("i", [1, 3, 5])
    def test_conclusion_edits(self, edit, verified, i):
        theorem = derive_theorems(chain(["a", "b", "c", "d"]))[i - 1]
        edited = replace(theorem, conclusion=edit(theorem.conclusion))
        assert oracle_certifies(edited) is verified
        assert (check_theorem(edited).certified == CERT_VERIFIED) is verified

    @pytest.mark.parametrize(
        "clauses, conclusion, verified",
        [
            # The empty clause alone is unsatisfiable; the unit left is not.
            ([[], [pos("v1")]], (), True),
            ([[], [pos("v1")]], (pos("v1"),), False),
            # With two empty clauses, removing one leaves the set unsatisfiable.
            ([[], []], (), False),
        ],
        ids=["empty-conclusion", "nonempty-conclusion", "remainder-unsatisfiable"],
    )
    def test_empty_removed_clause(self, clauses, conclusion, verified):
        symbols = ("v1",)
        source = Ftsc(ClauseSet.build(clauses, Signature(symbols)), symbols, 1)
        theorem = Theorem(source, 1, conclusion)
        assert oracle_certifies(theorem) is verified
        assert (check_theorem(theorem).certified == CERT_VERIFIED) is verified


@st.composite
def theorem_batches(draw):
    """Theorems of two chains and of one of them with a clause dropped, in
    any order, each with a removed index in 0..n+2 and a conclusion that is
    exact, flipped, reordered, shortened or names a foreign symbol."""
    sources = []
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=6))
        order = draw(st.permutations([f"x{i}" for i in range(n)]))
        sources.append(build_ftsc(Signature(tuple(order))))
    first = sources[0]
    dropped = first.clause_set.without(draw(st.integers(0, first.n)))
    sources.append(replace(first, clause_set=dropped))
    batch = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        source = draw(st.sampled_from(sources))
        i = draw(st.integers(min_value=0, max_value=source.n + 2))
        conclusion = list(conclusion_for(source, min(max(i, 1), source.n + 1)))
        edit = draw(st.sampled_from(("exact", "flip", "reorder", "shorten", "foreign")))
        k = draw(st.integers(0, len(conclusion) - 1))
        if edit == "flip":
            conclusion[k] = conclusion[k].negate()
        elif edit == "reorder":
            conclusion.append(conclusion.pop(k))
        elif edit == "shorten":
            del conclusion[k]
        elif edit == "foreign":
            conclusion[k] = Literal("ghost", conclusion[k].negated)
        batch.append(Theorem(source, i, tuple(conclusion)))
    return batch


class TestOneCheckPerConstruction:
    @given(theorem_batches())
    @settings(max_examples=200, deadline=None)
    def test_cached_check_equals_fresh(self, batch):
        for theorem in batch:
            source = theorem.source
            held = source.mus  # decided once, before any of its theorems
            fresh = Ftsc(source.clause_set, source.permutation, source.n)
            assert "mus" not in fresh.__dict__
            checked = check_theorem(theorem)
            assert checked.certified == check_theorem(replace(theorem, source=fresh)).certified
            assert checked.source is source and source.mus is held

    def test_each_source_checked_once(self, monkeypatch):
        checked = []
        check = verifier._checked_models

        def counting_check(clause_set):
            checked.append(clause_set)
            return check(clause_set)

        monkeypatch.setattr(verifier, "_checked_models", counting_check)
        one, two = chain(["a", "b", "c"]), chain(["c", "a", "b", "d"])
        interleaved = [t for pair in zip(derive_theorems(one), derive_theorems(two)) for t in pair]
        assert all(check_theorem(t).certified == CERT_VERIFIED for t in interleaved)
        assert checked == [one.clause_set, two.clause_set]


class TestCertificationFailure:
    """Each condition the verdict checks, named by one line."""

    @staticmethod
    def theorem(i=2, clauses=None, conclusion=None):
        ftsc = chain(["a", "b", "c"])
        if clauses is not None:
            ftsc = Ftsc(ClauseSet(clauses, ftsc.signature), ftsc.permutation, ftsc.n)
        theorem = Theorem(ftsc, i, conclusion_for(ftsc, min(max(i, 1), 4)))
        return theorem if conclusion is None else replace(theorem, conclusion=conclusion)

    def test_every_theorem_of_a_chain_certifies(self):
        for theorem in derive_theorems(chain(MEDICAL)):
            assert certification_failures([theorem])[0] is None

    @pytest.mark.parametrize("i", [0, 5, -1])
    def test_removed_index_out_of_range(self, i):
        assert certification_failures([self.theorem(i)])[0] == f"removed index {i} out of range 1..4"

    def test_clause_dropped(self):
        clauses = chain(["a", "b", "c"]).clause_set.clauses
        theorem = self.theorem(2, clauses=clauses[:1] + clauses[2:])
        assert certification_failures([theorem])[0] == (
            "removed index 2 out of range: the source has 3 clauses, not 4"
        )

    def test_source_satisfiable(self):
        # Clause 4 replaced by a copy of clause 3: all true satisfies the set.
        clauses = chain(["a", "b", "c"]).clause_set.clauses
        theorem = self.theorem(2, clauses=clauses[:3] + clauses[2:3])
        assert certification_failures([theorem])[0] == "source not unsatisfiable"

    def test_deletion_unsatisfiable(self):
        # A duplicated clause 1: deleting either copy leaves the other.
        clauses = chain(["a", "b", "c"]).clause_set.clauses
        theorem = self.theorem(1, clauses=clauses + clauses[:1])
        assert certification_failures([theorem])[0] == "deletion 1 not satisfiable"
        assert certification_failures([self.theorem(2, clauses=clauses + clauses[:1])])[0] is None

    def test_foreign_symbol(self):
        conclusion = self.theorem(3).conclusion + (pos("ghost"),)
        assert certification_failures([self.theorem(3, conclusion=conclusion)])[0] == (
            "conclusion symbol 'ghost' outside the signature"
        )

    def test_flipped_literal(self):
        conclusion = self.theorem(3).conclusion
        flipped = conclusion[:-1] + (conclusion[-1].negate(),)
        assert certification_failures([self.theorem(3, conclusion=flipped)])[0] == (
            "conclusion not the negated clause 3"
        )

    @given(theorem_batches())
    @settings(max_examples=100, deadline=None)
    def test_none_exactly_when_verified(self, batch):
        for theorem in batch:
            verified = check_theorem(theorem).certified == CERT_VERIFIED
            assert (certification_failures([theorem])[0] is None) == verified


def literal_set(positive, negative):
    """A step's masks as a set of (symbol index, negated) literals."""
    return {
        (j, negated)
        for negated, mask in ((False, positive), (True, negative))
        for j in range(mask.bit_length()) if mask >> j & 1
    }


def set_replay(proof, clause_set):
    """Reference replay over sets of (symbol index, negated) literals and
    sets of clause indices: the rule of ``replay_trace`` written plainly.
    (failed step, reason, per step the clauses it rests on or its reason,
    per established prefix its literals)."""
    index = clause_set.signature.index
    cited = [({(index[l.symbol], l.negated) for l in c}, {r})
             for r, c in enumerate(clause_set.clauses)]
    bound = len(cited) + len(proof.steps)
    prefixes = [(set(), set())]  # (literals, clauses they rest on)
    verdicts = []

    def verdict(step):
        if not 0 <= step.units < len(prefixes):
            return f"assumes {step.units} units, not established"
        literals, rests = prefixes[step.units]
        rests = set(rests)
        own = literal_set(step.positive, step.negative)
        true = {j for j, negated in literals if not negated} | {j for j, negated in own if negated}
        false = {j for j, negated in literals if negated} | {j for j, negated in own if not negated}
        for h, r in enumerate(step.hints):
            if not 0 <= r < len(cited):
                return f"hint {r} cites a later step" if 0 <= r < bound else f"hint {r} cites nothing"
            if isinstance(cited[r], str):
                return f"hint {r} cites an invalid step"
            clause, on = cited[r]
            if any(j in (false if negated else true) for j, negated in clause):
                return f"hint {r} is satisfied"
            rests |= on
            open_literals = [(j, negated) for j, negated in clause if j not in true | false]
            if not open_literals:
                return rests if h == len(step.hints) - 1 else f"hint {r} conflicts before the last hint"
            if len(open_literals) > 1:
                return f"hint {r} has two open literals"
            (j, negated), = open_literals
            (false if negated else true).add(j)
        return "no conflict"

    for s, step in enumerate(proof.steps):
        v = verdict(step)
        verdicts.append(v)
        own = literal_set(step.positive, step.negative)
        cited.append(v if isinstance(v, str) else (own, v))
        if not isinstance(v, str) and len(prefixes) == s + 1 and len(own) == 1:
            prefixes.append((prefixes[s][0] | own, prefixes[s][1] | v))
    failed = next((s for s, v in enumerate(verdicts) if isinstance(v, str)), None)
    return failed, None if failed is None else verdicts[failed], verdicts, prefixes


def set_theorem_failures(theorems):
    """Reference ``replay_theorems``: theorem i is accepted when its target
    is a valid one-literal step whose prefix and literal are the negation
    of clause i, resting on clauses without clause i."""
    failures = {}
    for position, theorem in enumerate(theorems):
        source, i = theorem.source, theorem.removed_index
        proof, index = source.proof, source.signature.index
        clauses = source.clause_set.clauses
        _, _, verdicts, prefixes = set_replay(proof, source.clause_set)
        if not 1 <= i <= min(len(proof.targets), len(clauses)):
            failures[position] = None, f"removed index {i} has no target"
            continue
        target = proof.targets[i - 1]
        if not 0 <= target < len(proof.steps):
            failures[position] = None, f"target {target} is no step"
            continue
        step = proof.steps[target]
        own = literal_set(step.positive, step.negative)
        negated = {(index[l.symbol], not l.negated) for l in clauses[i - 1]}
        if isinstance(verdicts[target], str):
            failures[position] = target, verdicts[target]
        elif len(own) != 1:
            failures[position] = target, "target has more than one literal"
        elif prefixes[step.units][0] | own != negated:
            failures[position] = target, f"target does not conclude the negated clause {i}"
        elif i - 1 in verdicts[target]:
            failures[position] = target, f"target rests on clause {i}"
    return failures


def assert_agrees_with_set_replay(proof, clause_set):
    result = replay_trace(proof, clause_set)
    failed, reason, verdicts, prefixes = set_replay(proof, clause_set)
    assert (result.ok, result.failed_step, result.reason) == (failed is None, failed, reason)
    assert [v if isinstance(v, str) else sum(1 << r for r in v) for v in verdicts] == list(
        result.verdicts
    )
    assert [literal_set(true, false) for true, false in zip(*result.units[:2])] == [
        literals for literals, _ in prefixes
    ]


def with_proof(ftsc, proof):
    """``ftsc`` with ``proof`` as its proof."""
    ftsc.__dict__["proof"] = proof
    return ftsc


def single_edits(proof, clauses):
    """``proof`` after each single-field edit: a hint dropped or retargeted
    to each clause or step, or to -1 or past the end; a bit of either mask
    flipped, one bit past the signature included; ``units`` set to each
    other prefix length; a target moved to each other step or past the end."""
    steps = proof.steps
    n = len(proof.targets) - 1
    bound = clauses + len(steps)
    for s, step in enumerate(steps):
        for h in range(len(step.hints)):
            hints = step.hints[:h] + step.hints[h + 1 :]
            yield tamper_step(proof, s, hints=hints)
            for r in range(-1, bound + 1):
                if r != step.hints[h]:
                    hints = step.hints[:h] + (r,) + step.hints[h + 1 :]
                    yield tamper_step(proof, s, hints=hints)
        for j in range(n + 1):
            yield tamper_step(proof, s, positive=step.positive ^ 1 << j)
            yield tamper_step(proof, s, negative=step.negative ^ 1 << j)
        for units in range(len(steps) + 1):
            if units != step.units:
                yield tamper_step(proof, s, units=units)
    for i, target in enumerate(proof.targets):
        for moved in range(len(steps) + 1):
            if moved != target:
                targets = proof.targets[:i] + (moved,) + proof.targets[i + 1 :]
                yield replace(proof, targets=targets)


def resting_on(proof, s, clauses):
    """The steps resting on step ``s``, itself included: those assuming it
    as a unit or citing one that rests on it."""
    resting = {s}
    for t, step in enumerate(proof.steps):
        if step.units > s or any(r - clauses in resting for r in step.hints):
            resting.add(t)
    return resting


@st.composite
def proofs_and_clauses(draw):
    """Up to 8 arbitrary steps over up to 5 arbitrary clauses, or a chain's
    proof with one field edited, over n <= 4 symbols; masks may reach one
    bit past the signature."""
    n = draw(st.integers(min_value=1, max_value=4), label="n")
    symbols = tuple(f"v{i}" for i in range(1, n + 1))
    if draw(st.booleans(), label="chain"):
        ftsc = chain(list(symbols))
        proof = draw(st.sampled_from(list(single_edits(ftsc.proof, n + 1))))
        return proof, ftsc.clause_set
    literal = st.builds(Literal, st.sampled_from(symbols), st.booleans())
    clauses = draw(st.lists(st.lists(literal, max_size=3), max_size=5))
    count = draw(st.integers(min_value=0, max_value=8))
    mask = st.integers(min_value=0, max_value=(1 << n + 1) - 1)
    hint = st.integers(min_value=-1, max_value=len(clauses) + count)
    step = st.builds(TraceStep, mask, mask, st.lists(hint, max_size=3).map(tuple),
                     st.integers(min_value=0, max_value=count))
    steps = draw(st.lists(step, min_size=count, max_size=count))
    return ProofTrace(tuple(steps), ()), ClauseSet.build(clauses, Signature(symbols))


class TestReplayTrace:
    def test_valid_medical_trace(self):
        ftsc = chain(MEDICAL)
        result = replay_trace(ftsc.proof, ftsc.clause_set)
        assert result
        assert result.failed_step is None
        assert all(v.__class__ is int for v in result.verdicts)

    def test_corrupted_premise_index(self):
        # Step 1, HighWBC from clause 2, made to cite clause 3: ~HighWBC is true there.
        ftsc = chain(MEDICAL)
        proof = tamper_step(ftsc.proof, 1, hints=(2,))
        result = replay_trace(proof, ftsc.clause_set)
        assert not result
        assert (result.failed_step, result.reason) == (1, "hint 2 is satisfied")
        assert result.units[0] == (0, 1)  # only Infection is established

    def test_empty_trace_rejected(self):
        # An empty proof has no invalid step, but it proves no theorem.
        ftsc = with_proof(chain(["a", "b"]), ProofTrace((), ()))
        assert replay_trace(ftsc.proof, ftsc.clause_set)
        failures = replay_theorems(derive_theorems(ftsc))
        assert failures == {k: (None, f"removed index {k + 1} has no target") for k in range(3)}

    def test_wrong_discharge_literal(self):
        # Removal 2's lemma ~HighWBC made HighWBC: E2 is then satisfied.
        ftsc = chain(MEDICAL)
        ftsc = with_proof(ftsc, tamper_step(ftsc.proof, 8, positive=2, negative=0))
        result = replay_trace(ftsc.proof, ftsc.clause_set)
        assert (result.failed_step, result.reason) == (8, "hint 10 is satisfied")
        assert replay_theorems(derive_theorems(ftsc)) == {1: (8, "hint 10 is satisfied")}

    def test_undischarged_assumption_rejected(self):
        # The last lemma dropped: removal 4's target is no step.
        ftsc = chain(MEDICAL)
        ftsc = with_proof(ftsc, replace(ftsc.proof, steps=ftsc.proof.steps[:-1]))
        assert replay_trace(ftsc.proof, ftsc.clause_set)
        assert replay_theorems(derive_theorems(ftsc)) == {3: (None, "target 10 is no step")}

    def test_unit_step_without_support_rejected(self):
        ftsc = chain(MEDICAL)
        # Fever from clause 3 assuming nothing: Infection and HighWBC are open.
        result = replay_trace(ProofTrace((TraceStep(4, 0, (2,), 0),), ()), ftsc.clause_set)
        assert not result
        assert (result.failed_step, result.reason) == (0, "hint 2 has two open literals")
        assert result.units == ((0,), (0,), (0,))

    def test_discharge_closes_the_scope(self):
        # The units a step may assume end at the first step that is not a
        # valid one-literal step, here the lemma E3 of three literals.
        ftsc = chain(["a", "b", "c", "d"])
        steps = (
            TraceStep(1, 0, (0,), 0),  # a from C1
            TraceStep(0, 7, (3, 4), 0),  # E3 = ~a | ~b | ~c from C4 and C5
            TraceStep(2, 0, (1,), 2),  # b from C2 under a and E3
            TraceStep(2, 0, (1,), 1),  # b from C2 under a
        )
        result = replay_trace(ProofTrace(steps, ()), ftsc.clause_set)
        assert (result.failed_step, result.reason) == (2, "assumes 2 units, not established")
        assert result.verdicts == (0b1, 0b11000, result.reason, 0b11)

    def test_foreign_assumption_is_not_refuted(self):
        # Setting a literal outside the signature false helps no hint.
        ftsc = chain(MEDICAL)
        steps = (TraceStep(1, 0, (0,), 0), TraceStep(1 << 4, 0, (4,), 1))
        result = replay_trace(ProofTrace(steps, ()), ftsc.clause_set)
        assert (result.failed_step, result.reason) == (1, "hint 4 has two open literals")

    def test_valid_trace_establishes_conclusion(self):
        ftsc = chain(MEDICAL)
        result = replay_trace(ftsc.proof, ftsc.clause_set)
        target = ftsc.proof.steps[ftsc.proof.targets[3]]
        true = result.units[0][target.units] | target.positive
        false = result.units[1][target.units] | target.negative
        symbols = ftsc.signature.symbols
        assert {Literal(symbols[j], negated) for j, negated in literal_set(true, false)} == {
            pos("Infection"), pos("HighWBC"), pos("Fever"), neg("RequiresAntibiotics")
        }

    # Clauses of chain a, b, c: C1 = a, C2 = ~a | b, C3 = ~a | ~b | c,
    # C4 = ~a | ~b | ~c, cited as hints 0..3. The ids name the faults of the
    # natural-deduction checker this table replaced, one case each; the
    # case is the nearest fault of a lemma. The reason is the last step's.
    @pytest.mark.parametrize(
        "steps, failed_step, reason",
        [
            pytest.param([(1, 0, (5,), 0)], 0, "hint 5 cites nothing",
                         id="steps0-0-premise index out of range: 5"),
            pytest.param([(1, 0, (0,), 0), (2, 0, (1,), 2)], 1, "assumes 2 units, not established",
                         id="steps1-1-unit derivation inside an assumption scope"),
            pytest.param([(1, 0, (), 0)], 0, "no conflict",
                         id="steps2-0-unit derivation needs a literal and a premise"),
            pytest.param([(1, 0, (0,), 0), (2, 0, (1, 0), 1)], 1,
                         "hint 1 conflicts before the last hint", id="steps3-1-nested assumption"),
            pytest.param([(0, 0, (1,), 0)], 0, "hint 1 has two open literals",
                         id="steps4-0-assumption needs a literal"),
            pytest.param([(2, 0, (1,), 0)], 0, "no conflict",
                         id="steps5-0-propagation outside an assumption scope"),
            pytest.param([(1, 0, (0,), 0), (2, 0, (), 1)], 1, "no conflict",
                         id="steps6-1-propagation needs a literal and a premise"),
            pytest.param([(1, 0, (0,), 0), (2, 0, (0,), 1)], 1, "hint 0 is satisfied",
                         id="steps7-1-derived literal does not occur in the cited clause"),
            pytest.param([(0, 0, (3,), 0)], 0, "hint 3 has two open literals",
                         id="steps8-0-empty-clause step outside an assumption scope"),
            pytest.param([(1, 0, (0,), 0), (0, 0, (), 1)], 1, "no conflict",
                         id="steps9-1-empty-clause step needs a premise"),
            pytest.param([(0, 1, (4,), 0)], 0, "hint 4 cites a later step",
                         id="steps10-0-discharge without a refuted assumption"),
            pytest.param([(1, 0, (0,), -1)], 0, "assumes -1 units, not established",
                         id="steps11-0-unknown step kind: 'leap'"),
            # A literal outside the signature (bit 3) occurs in no clause.
            pytest.param([(8, 0, (0,), 0)], 0, "no conflict",
                         id="steps12-0-derived literal does not occur in the cited clause"),
            pytest.param([(1, 0, (0,), 0), (8, 0, (1,), 1)], 1, "no conflict",
                         id="steps13-1-derived literal does not occur in the cited clause"),
            pytest.param([(0, 0, (), 0), (1, 0, (4,), 0)], 0, "hint 4 cites an invalid step",
                         id="steps14-0-assumption step cites a premise"),
            # A valid step of two literals establishes no unit.
            pytest.param([(3, 0, (0,), 0), (2, 0, (1,), 1)], 1, "assumes 1 units, not established",
                         id="steps15-1-empty-clause step carries a literal"),
            pytest.param([(1, 0, (0,), 0), (2, 0, (1,), 1), (4, 0, (6,), 2)], 2,
                         "hint 6 cites a later step", id="steps16-2-discharge step cites a premise"),
        ],
    )
    def test_malformed_step_rejected(self, steps, failed_step, reason):
        proof = ProofTrace(tuple(TraceStep(*step) for step in steps), ())
        result = replay_trace(proof, chain(["a", "b", "c"]).clause_set)
        assert not result
        assert (result.failed_step, result.verdicts[-1]) == (failed_step, reason)
        assert_agrees_with_set_replay(proof, chain(["a", "b", "c"]).clause_set)

    # Each literal a step derives is used by a later step: a negative one
    # derived as a unit or by propagation, a positive one refuted.
    @pytest.mark.parametrize(
        "clauses, steps, verdicts",
        [
            ([[neg("a")], [pos("a"), pos("b")]],
             [(0, 1, (0,), 0), (2, 0, (1,), 1)], (0b1, 0b11)),
            ([[neg("a"), neg("b")], [pos("b"), pos("c")], [neg("c")]],
             [(0, 1, (0, 1, 2), 0)], (0b111,)),
            ([[pos("a"), pos("b")], [neg("b")], [neg("a"), pos("c")]],
             [(1, 0, (0, 1), 0), (4, 0, (2,), 1)], (0b11, 0b111)),
        ],
        ids=["unit-negative", "propagated-negative", "discharged-positive"],
    )
    def test_derived_literals_serve_later_steps(self, clauses, steps, verdicts):
        premises = ClauseSet.build(clauses, Signature(("a", "b", "c")))
        result = replay_trace(ProofTrace(tuple(TraceStep(*s) for s in steps), ()), premises)
        assert result and result.verdicts == verdicts

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_generated_traces_replay(self, n):
        ftsc = chain([f"x{i}" for i in range(1, n + 1)])
        result = replay_trace(ftsc.proof, ftsc.clause_set)
        assert result and len(result.verdicts) == 3 * n - 1
        assert replay_theorems(derive_theorems(ftsc)) == {}

    def test_foreign_literal_established_by_name(self):
        # Contradictory clauses refute any literal, a foreign one too; it is
        # established on its own bit, past the signature's.
        premises = ClauseSet.build([[pos("a")], [neg("a")]], Signature(("a",)))
        result = replay_trace(ProofTrace((TraceStep(2, 0, (0, 1), 0),), ()), premises)
        assert result
        assert result.units == ((0, 2), (0, 0), (0, 0b11))

    @given(proofs_and_clauses())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_set_replay(self, case):
        assert_agrees_with_set_replay(*case)


class TestReplayTheorems:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_replay_trace_after_tampers(self, data):
        # Up to three single-field edits of the proof of n <= 10.
        n = data.draw(st.integers(min_value=1, max_value=10), label="n")
        ftsc = chain([f"x{k}" for k in range(1, n + 1)])
        proof = ftsc.proof
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            k = data.draw(st.integers(min_value=0, max_value=3 * n - 2))
            step = proof.steps[k]
            field = data.draw(st.sampled_from(("positive", "negative", "hints", "units", "targets")))
            if field in ("positive", "negative"):
                bit = data.draw(st.integers(min_value=0, max_value=n))
                proof = tamper_step(proof, k, **{field: getattr(step, field) ^ 1 << bit})
            elif field == "hints":
                hint = st.integers(min_value=-1, max_value=4 * n + 1)
                proof = tamper_step(proof, k, hints=tuple(data.draw(st.lists(hint, max_size=3))))
            elif field == "units":
                proof = tamper_step(proof, k, units=data.draw(st.integers(-1, 3 * n)))
            else:
                i = data.draw(st.integers(min_value=0, max_value=n))
                moved = data.draw(st.integers(min_value=-1, max_value=3 * n))
                proof = replace(proof, targets=proof.targets[:i] + (moved,) + proof.targets[i + 1 :])
        theorems = derive_theorems(with_proof(ftsc, proof))
        assert replay_theorems(theorems) == set_theorem_failures(theorems)

    def test_shared_unit_that_is_not_unit(self):
        # Unit step 1 made ~x1 from clause 2, x2 | ~x1: x2 is open, so no
        # conflict comes; only theorem 3, whose target it is, fails.
        ftsc = chain(["x1", "x2"])
        ftsc = with_proof(ftsc, tamper_step(ftsc.proof, 1, positive=0, negative=1))
        theorems = derive_theorems(ftsc)
        assert replay_theorems(theorems) == {2: (1, "no conflict")}
        assert set_theorem_failures(theorems) == {2: (1, "no conflict")}

    @pytest.mark.parametrize("premise_index", [0, 3, 4, -1])
    @pytest.mark.parametrize("step", [0, 8], ids=["assumption", "discharge"])
    def test_premise_index_on_assumption_or_discharge(self, step, premise_index):
        # The hint of the unit Infection, which removals 2..5 assume, or of
        # removal 2's lemma ~HighWBC, cites another clause or none.
        ftsc = chain(MEDICAL)
        ftsc = with_proof(ftsc, tamper_step(ftsc.proof, step, hints=(premise_index,)))
        theorems = derive_theorems(ftsc)
        failures = replay_theorems(theorems)
        assert failures == set_theorem_failures(theorems)
        reason = {
            (0, 0): None,  # the genuine hint
            (0, 3): "hint 3 is satisfied",
            (0, 4): "hint 4 is satisfied",
            (8, 0): "hint 0 is satisfied",
            (8, 3): "hint 3 has two open literals",
            (8, 4): "hint 4 has two open literals",
        }.get((step, premise_index), "hint -1 cites nothing")
        if reason is None:
            assert failures == {}
        elif step == 0:
            assert replay_trace(ftsc.proof, ftsc.clause_set).reason == reason
            assert sorted(failures) == [1, 2, 3, 4]
        else:
            assert failures == {1: (8, reason)}

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_literal_on_the_empty_clause_step(self, i):
        # Theorem i's lemma weakened by the literal a: only theorem i fails.
        ftsc = chain(["a", "b", "c"])
        target = ftsc.proof.targets[i - 1]
        ftsc = with_proof(ftsc, tamper_step(ftsc.proof, target, positive=1))
        theorems = derive_theorems(ftsc)
        failures = replay_theorems(theorems)
        assert failures == set_theorem_failures(theorems)
        assert list(failures) == [i - 1] and failures[i - 1][0] == target

    @pytest.mark.parametrize("n", range(1, 5))
    def test_agrees_with_replay_trace_after_every_single_edit(self, n):
        # Every single-field edit of the proof is judged as the reference
        # judges it, step by step and theorem by theorem.
        ftsc = chain([f"x{k}" for k in range(1, n + 1)])
        for proof in single_edits(ftsc.proof, n + 1):
            assert_agrees_with_set_replay(proof, ftsc.clause_set)
            theorems = derive_theorems(with_proof(chain([f"x{k}" for k in range(1, n + 1)]), proof))
            assert replay_theorems(theorems) == set_theorem_failures(theorems)

    def test_shared_step_citing_another_position(self):
        # E1 made to cite E3 (clause 4) in place of E2: c stays open, so E1
        # fails, and with it theorem 1's lemma, which cites E1.
        ftsc = chain(["a", "b", "c"])
        ftsc = with_proof(ftsc, tamper_step(ftsc.proof, 4, hints=(1, 3)))
        theorems = derive_theorems(ftsc)
        assert replay_theorems(theorems) == {0: (5, "hint 8 cites an invalid step")}
        assert set_theorem_failures(theorems) == replay_theorems(theorems)

    def test_shared_steps_after_the_run_stops(self):
        # The unit x1 given a second literal is still valid, but the units end
        # there: what assumes x1 fails, and theorem 1, which does not, holds.
        ftsc = chain(["a", "b"])
        ftsc = with_proof(ftsc, tamper_step(ftsc.proof, 0, positive=0b11))
        theorems = derive_theorems(ftsc)
        assert replay_theorems(theorems) == {
            1: (4, "assumes 1 units, not established"),
            2: (1, "assumes 1 units, not established"),
        }

    def test_each_theorem_replays_against_its_own_source(self):
        # A second construction whose last clause is ~a | ~b | c: the chain's
        # proof fails there at every step resting on that clause, and its
        # target for removing that clause concludes c, not ~c.
        genuine = chain(["a", "b", "c"])
        clauses = [*genuine.clause_set.clauses[:3], [neg("a"), neg("b"), pos("c")]]
        other = Ftsc(ClauseSet.build(clauses, genuine.signature), genuine.permutation, 3)
        theorems = derive_theorems(genuine) + derive_theorems(other)
        failed = replay_theorems(theorems)
        assert failed == set_theorem_failures(theorems)
        assert sorted(failed) == [4, 5, 6, 7]
        assert failed[7] == (2, "target does not conclude the negated clause 4")

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_generate_replays_a_genuine_construction_from_the_shared_runs(
        self, n, monkeypatch, capsys
    ):
        # ``generate`` replays the one proof once, through the module's name.
        from contragen.cli import run_cli

        calls = []
        real = verifier.replay_trace

        def counting(proof, clause_set):
            calls.append(len(proof.steps))
            return real(proof, clause_set)

        monkeypatch.setattr(verifier, "replay_trace", counting)
        assert run_cli(["generate", *(f"s{k}" for k in range(n))]) == 0
        out, err = capsys.readouterr()
        theorems = json.loads(out)["theorems"]
        assert len(theorems) == n + 1
        assert all(t["trace_replayed"] is True for t in theorems)
        assert err == ""
        assert calls == [3 * n - 1]

    @pytest.mark.parametrize("n", [*range(1, 11), 64])
    def test_each_mutant_fails_the_theorems_resting_on_it(self, n):
        # A hint dropped, citing a later step, no step, or (in theorem i's
        # lemma) the removed clause i; a literal flipped; ``units`` raised;
        # a target moved. Each fails exactly the theorems whose target rests
        # on the mutated step, but for two kinds of edit that leave a valid
        # proof: E(k) assuming a unit also rests on clause 1, which fails
        # theorem 1 alone, and theorem 1 moved to E1 = ~x1 is still proved.
        ftsc = chain([f"x{k}" for k in range(1, n + 1)])
        genuine, m = ftsc.proof, n + 1
        # At n = 64 every tenth step, and the first and last of each kind.
        every = range(3 * n - 1) if n <= 10 else sorted(
            {*range(0, 3 * n - 1, 10), 0, n - 1, n, 2 * n - 2, 2 * n - 1, 3 * n - 2}
        )
        for s in every:
            step = genuine.steps[s]
            edits = [tamper_step(genuine, s, hints=step.hints[:h] + step.hints[h + 1 :])
                     for h in range(len(step.hints))]
            edits += [tamper_step(genuine, s, hints=(r,) + step.hints[1:])
                      for r in (m + s, m + 3 * n, -1)]
            if s >= 2 * n - 1:  # theorem i's lemma citing clause i
                edits.append(tamper_step(genuine, s, hints=(s - 2 * n + 1,)))
            for j in {0, n // 2, n - 1, n}:
                edits.append(tamper_step(genuine, s, positive=step.positive ^ 1 << j))
                edits.append(tamper_step(genuine, s, negative=step.negative ^ 1 << j))
            edits.append(tamper_step(genuine, s, units=step.units + 1))
            resting = resting_on(genuine, s, m)
            dependents = {k for k, t in enumerate(genuine.targets) if t in resting}
            for proof in edits:
                failures = replay_theorems(derive_theorems(with_proof(chain(ftsc.permutation), proof)))
                if proof.steps[s].units > step.units and n <= s < 2 * n - 1:
                    assert set(failures) == {0}, s
                else:
                    assert set(failures) == dependents, (s, proof.steps[s])
        for i, target in enumerate(genuine.targets):
            for moved in {0, n - 1, n, 2 * n - 2, 2 * n - 1, 3 * n - 2} - {target}:
                proof = replace(genuine, targets=genuine.targets[:i] + (moved,) + genuine.targets[i + 1 :])
                failures = replay_theorems(derive_theorems(with_proof(chain(ftsc.permutation), proof)))
                equivalent = i == 0 and moved == 2 * n - 2 and n > 1  # E1 = ~x1
                assert set(failures) == (set() if equivalent else {i}), (i, moved)


def entailed_failures(theorems):
    """Per theorem, whether its remainder entails each literal of its
    negated clause, by ``brute_force_entails``."""
    entailed = []
    for theorem in theorems:
        source, i = theorem.source, theorem.removed_index
        remainder = plain_clauses(source.clause_set.without(i - 1))
        symbols = source.signature.symbols
        entailed.append(all(
            brute_force_entails(remainder, symbols, (l.symbol, not l.negated))
            for l in source.clause_set.clauses[i - 1]
        ))
    return entailed


class TestReplaySoundAndComplete:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepted_theorems_are_entailed(self, data):
        # A chain of n <= 6 in any permutation, its proof given one field edit
        # and, half the time, one of its clauses a literal flipped or dropped,
        # so that some theorems no longer hold.
        n = data.draw(st.integers(min_value=1, max_value=6), label="n")
        signature = signature_of([f"x{k}" for k in range(1, n + 1)])
        rank = data.draw(st.integers(min_value=0, max_value=math.factorial(n) - 1))
        ftsc = build_ftsc(permutation_by_rank(signature, rank))
        proof = data.draw(st.sampled_from(list(single_edits(ftsc.proof, n + 1))))
        if data.draw(st.booleans(), label="edit a clause"):
            clauses = [list(c.literals) for c in ftsc.clause_set.clauses]
            c = data.draw(st.integers(min_value=0, max_value=n))
            k = data.draw(st.integers(min_value=0, max_value=len(clauses[c]) - 1))
            if data.draw(st.booleans(), label="drop"):
                del clauses[c][k]
            else:
                clauses[c][k] = clauses[c][k].negate()
            ftsc = Ftsc(ClauseSet.build(clauses, ftsc.signature), ftsc.permutation, n)
        theorems = derive_theorems(with_proof(ftsc, proof))
        failures = replay_theorems(theorems)
        for position, entailed in enumerate(entailed_failures(theorems)):
            assert position in failures or entailed, position

    @given(proofs_and_clauses())
    @settings(max_examples=400, deadline=None)
    def test_valid_steps_are_entailed_by_what_they_rest_on(self, case):
        # Each step replay accepts, its clause, follows from the source
        # clauses its mask names; a bit past the signature is a fresh symbol.
        proof, clause_set = case
        symbols = clause_set.signature.symbols + ("ghost",)
        plain = plain_clauses(clause_set)
        for step, verdict in zip(proof.steps, replay_trace(proof, clause_set).verdicts):
            if verdict.__class__ is str:
                continue
            rests = [c for r, c in enumerate(plain) if verdict >> r & 1]
            refuted = [[(symbols[j], not negated)]
                       for j, negated in literal_set(step.positive, step.negative)]
            assert not brute_force_satisfiable(rests + refuted, symbols)[0], step

    @pytest.mark.parametrize("n", [*range(1, 11), 64])
    def test_genuine_proof_accepted(self, n):
        signature = signature_of([f"x{k}" for k in range(1, n + 1)])
        for rank in {0, math.factorial(n) // 2, math.factorial(n) - 1}:
            ftsc = build_ftsc(permutation_by_rank(signature, rank))
            assert replay_theorems(derive_theorems(ftsc)) == {}
            if n <= 6:
                assert all(entailed_failures(derive_theorems(ftsc)))


class TestWitnessValidity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_deletion_witnesses_satisfy(self, n):
        clause_set = chain([f"x{i}" for i in range(1, n + 1)]).clause_set
        report = check_mus(clause_set)
        for i, result in enumerate(report.deletion_results):
            assert result.satisfiable
            assert evaluate_set(clause_set.without(i), result.witness)


class TestEveryPermutationCertifies:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_permutations_minimal_and_verified(self, n):
        from contragen import enumerate_ftscs

        signature = signature_of([f"x{i}" for i in range(1, n + 1)])
        for ftsc in enumerate_ftscs(signature):
            assert check_mus(ftsc.clause_set).is_mus, ftsc.permutation
            for theorem in derive_theorems(ftsc):
                assert check_theorem(theorem).certified == CERT_VERIFIED
