"""Satisfiability oracles, minimality reports, certification, trace replay."""

import json
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
    STEP_ASSUME,
    STEP_DISCHARGE,
    STEP_EMPTY,
    STEP_PROPAGATE,
    STEP_UNIT,
    Ftsc,
    ProofTrace,
    Theorem,
    TraceStep,
    build_proof_trace,
    conclusion_for,
)
from contragen.verifier import MusReport, SatResult, certification_failures, replay_theorems

from conftest import random_clause_set
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
        assert result.status == "satisfiable"


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


def set_replay(trace, premises):
    """Reference replay over sets of (symbol, negated) literals: the rules
    of ``replay_trace`` written plainly. (ok, failed step, reason, units)."""
    clauses = [frozenset((l.symbol, l.negated) for l in c) for c in premises.clauses]
    units, known, scoped = set(), set(), set()
    assumption, contradicted = None, False

    def fail(idx, reason):
        return False, idx, reason, {Literal(s, n) for s, n in units}

    def unit_under(clause, lit, facts):
        return all((s, not n) in facts for s, n in clause if (s, n) != lit)

    if not trace.steps:
        return fail(None, "empty trace")
    for idx, step in enumerate(trace.steps):
        cited = None
        if step.premise_index is not None:
            if not 0 <= step.premise_index < len(clauses):
                return fail(idx, f"premise index out of range: {step.premise_index}")
            if step.kind in (STEP_ASSUME, STEP_DISCHARGE):
                return fail(idx, f"{step.kind} step cites a premise")
            cited = clauses[step.premise_index]
        lit = None if step.literal is None else (step.literal.symbol, step.literal.negated)
        if step.kind in (STEP_UNIT, STEP_PROPAGATE):
            unit = step.kind == STEP_UNIT
            if unit and assumption is not None:
                return fail(idx, "unit derivation inside an assumption scope")
            if not unit and assumption is None:
                return fail(idx, "propagation outside an assumption scope")
            if lit is None or cited is None:
                what = "unit derivation" if unit else "propagation"
                return fail(idx, f"{what} needs a literal and a premise")
            if lit not in cited:
                return fail(idx, "derived literal does not occur in the cited clause")
            if not unit_under(cited, lit, units if unit else known):
                return fail(idx, "cited clause is not unit under established literals")
            if unit:
                units.add(lit)
            elif lit not in known:
                scoped.add(lit)
            known.add(lit)
        elif step.kind == STEP_ASSUME:
            if assumption is not None:
                return fail(idx, "nested assumption")
            if lit is None:
                return fail(idx, "assumption needs a literal")
            if lit not in known:
                scoped.add(lit)
            known.add(lit)
            assumption, contradicted = lit, False
        elif step.kind == STEP_EMPTY:
            if assumption is None:
                return fail(idx, "empty-clause step outside an assumption scope")
            if cited is None:
                return fail(idx, "empty-clause step needs a premise")
            if lit is not None:
                return fail(idx, "empty-clause step carries a literal")
            if not unit_under(cited, None, known):
                return fail(idx, "cited clause is not fully falsified")
            contradicted = True
        elif step.kind == STEP_DISCHARGE:
            if assumption is None or not contradicted:
                return fail(idx, "discharge without a refuted assumption")
            if lit != (assumption[0], not assumption[1]):
                return fail(idx, "discharged literal must negate the assumption")
            known -= scoped
            scoped.clear()
            units.add(lit)
            known.add(lit)
            assumption, contradicted = None, False
        else:
            return fail(idx, f"unknown step kind: {step.kind!r}")
    if assumption is not None:
        return fail(len(trace.steps) - 1, "assumption left undischarged")
    return True, None, None, {Literal(s, n) for s, n in units}


@st.composite
def replay_cases(draw):
    """Premises and a trace over up to 4 symbols: either a generated trace
    with one step edited or dropped, or up to 10 arbitrary steps over
    arbitrary premises. Literals may fall outside the signature."""
    n = draw(st.integers(min_value=1, max_value=4))
    symbols = tuple(f"v{i}" for i in range(1, n + 1))
    literal = st.builds(Literal, st.sampled_from(symbols + ("ghost",)), st.booleans())
    if draw(st.booleans()):
        ftsc = build_ftsc(Signature(symbols))
        i = draw(st.integers(min_value=1, max_value=n + 1))
        premises = ftsc.premises_without(i)
        steps = list(build_proof_trace(ftsc, i).steps)
        k = draw(st.integers(min_value=0, max_value=len(steps) - 1))
        edit = draw(st.sampled_from(("literal", "premise_index", "drop")))
        if edit == "literal":
            steps[k] = replace(steps[k], literal=draw(st.none() | literal))
        elif edit == "premise_index":
            steps[k] = replace(steps[k], premise_index=draw(st.integers(0, n)))
        else:
            del steps[k]
    else:
        premise = st.lists(
            st.builds(Literal, st.sampled_from(symbols), st.booleans()), max_size=3
        )
        premises = ClauseSet.build(draw(st.lists(premise, max_size=5)), Signature(symbols))
        kinds = st.sampled_from((STEP_UNIT, STEP_ASSUME, STEP_PROPAGATE, STEP_EMPTY,
                                 STEP_DISCHARGE))
        index = st.none() | st.integers(min_value=-1, max_value=len(premises) + 1)
        steps = draw(st.lists(st.builds(TraceStep, kinds, st.none() | literal, index),
                              max_size=10))
    return ProofTrace(tuple(steps)), premises


class TestReplayTrace:
    def test_valid_medical_trace(self):
        ftsc = chain(MEDICAL)
        trace = build_proof_trace(ftsc, 4)
        result = replay_trace(trace, ftsc.premises_without(4))
        assert result
        assert result.failed_step is None

    def test_corrupted_premise_index(self):
        ftsc = chain(MEDICAL)
        trace = build_proof_trace(ftsc, 4)
        steps = list(trace.steps)
        steps[1] = replace(steps[1], premise_index=3)
        result = replay_trace(ProofTrace(tuple(steps)), ftsc.premises_without(4))
        assert not result
        assert result.failed_step == 1
        assert result.reason == "derived literal does not occur in the cited clause"
        assert result.established == {pos("Infection")}

    def test_empty_trace_rejected(self):
        ftsc = chain(["a", "b"])
        result = replay_trace(ProofTrace(()), ftsc.premises_without(1))
        assert not result
        assert result.reason == "empty trace"

    def test_wrong_discharge_literal(self):
        ftsc = chain(MEDICAL)
        trace = build_proof_trace(ftsc, 2)
        steps = list(trace.steps)
        steps[-1] = replace(steps[-1], literal=pos("HighWBC"))
        result = replay_trace(ProofTrace(tuple(steps)), ftsc.premises_without(2))
        assert not result
        assert result.failed_step == len(steps) - 1
        assert result.reason == "discharged literal must negate the assumption"
        assert result.established == {pos("Infection")}

    def test_undischarged_assumption_rejected(self):
        ftsc = chain(MEDICAL)
        trace = build_proof_trace(ftsc, 2)
        truncated = ProofTrace(trace.steps[:-1])
        result = replay_trace(truncated, ftsc.premises_without(2))
        assert not result
        assert result.failed_step == len(truncated) - 1
        assert result.reason == "assumption left undischarged"

    def test_unit_step_without_support_rejected(self):
        ftsc = chain(MEDICAL)
        premises = ftsc.premises_without(5)
        bogus = ProofTrace(
            (TraceStep(STEP_UNIT, pos("Fever"), 2),)  # clause 3 is not unit yet
        )
        result = replay_trace(bogus, premises)
        assert not result
        assert result.failed_step == 0
        assert result.reason == "cited clause is not unit under established literals"
        assert result.established == frozenset()

    def test_discharge_closes_the_scope(self):
        ftsc = chain(["a", "b", "c", "d"])
        trace = ProofTrace(
            (
                TraceStep(STEP_UNIT, pos("a"), 0),
                TraceStep(STEP_ASSUME, pos("b"), None),
                TraceStep(STEP_PROPAGATE, pos("c"), 1),
                TraceStep(STEP_PROPAGATE, pos("d"), 2),
                TraceStep(STEP_EMPTY, None, 3),
                TraceStep(STEP_DISCHARGE, neg("b"), None),
                TraceStep(STEP_ASSUME, pos("a"), None),
                # b and c belonged to the closed scope
                TraceStep(STEP_PROPAGATE, pos("d"), 2),
            )
        )
        result = replay_trace(trace, ftsc.premises_without(2))
        assert not result
        assert result.failed_step == 7
        assert result.reason == "cited clause is not unit under established literals"
        assert result.established == {pos("a"), neg("b")}

    def test_foreign_assumption_is_not_refuted(self):
        ftsc = chain(MEDICAL)
        trace = ProofTrace(
            (
                TraceStep(STEP_UNIT, pos("Infection"), 0),
                TraceStep(STEP_ASSUME, pos("Ghost"), None),
                TraceStep(STEP_EMPTY, None, 0),
            )
        )
        result = replay_trace(trace, ftsc.premises_without(5))
        assert not result
        assert result.failed_step == 2
        assert result.reason == "cited clause is not fully falsified"

    def test_valid_trace_establishes_conclusion(self):
        ftsc = chain(MEDICAL)
        result = replay_trace(build_proof_trace(ftsc, 4), ftsc.premises_without(4))
        assert result.established == {
            pos("Infection"), pos("HighWBC"), pos("Fever"), neg("RequiresAntibiotics")
        }

    # Premises of chain a, b, c without clause 3: [a], [b | ~a], [~a | ~b | ~c].
    @pytest.mark.parametrize(
        "steps, failed_step, reason",
        [
            ([(STEP_UNIT, pos("a"), 5)], 0, "premise index out of range: 5"),
            ([(STEP_ASSUME, pos("a"), None), (STEP_UNIT, pos("a"), 0)], 1,
             "unit derivation inside an assumption scope"),
            ([(STEP_UNIT, None, 0)], 0, "unit derivation needs a literal and a premise"),
            ([(STEP_ASSUME, pos("a"), None), (STEP_ASSUME, pos("b"), None)], 1,
             "nested assumption"),
            ([(STEP_ASSUME, None, None)], 0, "assumption needs a literal"),
            ([(STEP_PROPAGATE, pos("a"), 0)], 0, "propagation outside an assumption scope"),
            ([(STEP_ASSUME, pos("a"), None), (STEP_PROPAGATE, pos("b"), None)], 1,
             "propagation needs a literal and a premise"),
            ([(STEP_ASSUME, pos("a"), None), (STEP_PROPAGATE, pos("c"), 1)], 1,
             "derived literal does not occur in the cited clause"),
            ([(STEP_EMPTY, None, 2)], 0, "empty-clause step outside an assumption scope"),
            ([(STEP_ASSUME, pos("a"), None), (STEP_EMPTY, None, None)], 1,
             "empty-clause step needs a premise"),
            ([(STEP_DISCHARGE, neg("a"), None)], 0, "discharge without a refuted assumption"),
            ([("leap", pos("a"), None)], 0, "unknown step kind: 'leap'"),
            # Literals outside the signature occur in no premise.
            ([(STEP_UNIT, pos("ghost"), 0)], 0,
             "derived literal does not occur in the cited clause"),
            ([(STEP_ASSUME, neg("ghost"), None), (STEP_PROPAGATE, pos("ghost"), 1)], 1,
             "derived literal does not occur in the cited clause"),
            # An assumption or a discharge cites no clause; an empty clause derives nothing.
            ([(STEP_ASSUME, neg("a"), 0)], 0, "assumption step cites a premise"),
            ([(STEP_ASSUME, neg("a"), None), (STEP_EMPTY, pos("a"), 0)], 1,
             "empty-clause step carries a literal"),
            ([(STEP_ASSUME, neg("a"), None), (STEP_EMPTY, None, 0),
              (STEP_DISCHARGE, pos("a"), 0)], 2, "discharge step cites a premise"),
        ],
    )
    def test_malformed_step_rejected(self, steps, failed_step, reason):
        trace = ProofTrace(tuple(TraceStep(*step) for step in steps))
        result = replay_trace(trace, chain(["a", "b", "c"]).premises_without(3))
        assert not result
        assert (result.failed_step, result.reason) == (failed_step, reason)

    # Each literal a step derives is used by a later step: a negative one
    # derived by a unit or a propagation, a positive one by a discharge.
    @pytest.mark.parametrize(
        "clauses, steps, established",
        [
            ([[neg("a")], [pos("a"), pos("b")]],
             [(STEP_UNIT, neg("a"), 0), (STEP_UNIT, pos("b"), 1)],
             {neg("a"), pos("b")}),
            ([[neg("a"), neg("b")], [pos("b"), pos("c")], [neg("c")]],
             [(STEP_ASSUME, pos("a"), None), (STEP_PROPAGATE, neg("b"), 0),
              (STEP_PROPAGATE, pos("c"), 1), (STEP_EMPTY, None, 2),
              (STEP_DISCHARGE, neg("a"), None)],
             {neg("a")}),
            ([[pos("a"), pos("b")], [neg("b")], [neg("a"), pos("c")]],
             [(STEP_ASSUME, neg("a"), None), (STEP_PROPAGATE, pos("b"), 0),
              (STEP_EMPTY, None, 1), (STEP_DISCHARGE, pos("a"), None),
              (STEP_UNIT, pos("c"), 2)],
             {pos("a"), pos("c")}),
        ],
        ids=["unit-negative", "propagated-negative", "discharged-positive"],
    )
    def test_derived_literals_serve_later_steps(self, clauses, steps, established):
        premises = ClauseSet.build(clauses, Signature(("a", "b", "c")))
        result = replay_trace(ProofTrace(tuple(TraceStep(*step) for step in steps)), premises)
        assert result and result.established == established

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_generated_traces_replay(self, n):
        ftsc = chain([f"x{i}" for i in range(1, n + 1)])
        for i in range(1, n + 2):
            trace = build_proof_trace(ftsc, i)
            assert replay_trace(trace, ftsc.premises_without(i))


    def test_foreign_literal_established_by_name(self):
        # Contradictory premises refute any assumption, a foreign one too; its
        # discharged negation sits on a fresh bit and must come back by name.
        premises = ClauseSet.build([[pos("a")], [neg("a")]], Signature(("a",)))
        trace = ProofTrace(
            (
                TraceStep(STEP_UNIT, pos("a"), 0),
                TraceStep(STEP_ASSUME, pos("ghost"), None),
                TraceStep(STEP_EMPTY, None, 1),
                TraceStep(STEP_DISCHARGE, neg("ghost"), None),
            )
        )
        result = replay_trace(trace, premises)
        assert result
        assert result.established == {pos("a"), neg("ghost")}

    @given(replay_cases())
    @settings(max_examples=400)
    def test_agrees_with_set_replay(self, case):
        trace, premises = case
        result = replay_trace(trace, premises)
        expected = set_replay(trace, premises)
        assert (result.ok, result.failed_step, result.reason) == expected[:3]
        assert result.established == expected[3]


def assert_agrees_with_replay_trace(ftsc, theorems):
    """``replay_theorems`` fails exactly the traces ``replay_trace`` fails,
    with its results."""
    failed = replay_theorems(theorems)
    for position, theorem in enumerate(theorems):
        expected = replay_trace(theorem.trace, ftsc.premises_without(theorem.removed_index))
        assert failed.get(position) == (None if expected else expected), theorem.removed_index


TAMPERS = ("delete", "swap", "insert", "flip", "kind", "premise_index")


def tamper_once(data, steps, n, pool):
    """``steps`` with one step deleted, swapped, inserted from ``pool``, or
    given a flipped literal, another kind or another premise index."""
    steps = list(steps)
    tamper = data.draw(st.sampled_from(TAMPERS if steps else ("insert",)))
    k = data.draw(st.integers(min_value=0, max_value=max(len(steps) - 1, 0)))
    if tamper == "delete":
        del steps[k]
    elif tamper == "swap":
        other = data.draw(st.integers(min_value=0, max_value=len(steps) - 1))
        steps[k], steps[other] = steps[other], steps[k]
    elif tamper == "insert":
        steps.insert(k, data.draw(st.sampled_from(pool)))
    elif tamper == "flip":
        literal = steps[k].literal
        steps[k] = replace(steps[k], literal=pos("x1") if literal is None else literal.negate())
    elif tamper == "kind":
        kind = st.sampled_from((STEP_UNIT, STEP_ASSUME, STEP_PROPAGATE, STEP_EMPTY,
                                STEP_DISCHARGE))
        steps[k] = replace(steps[k], kind=data.draw(kind))
    else:  # none, before the first clause, past the last, or another clause
        index = st.sampled_from((None, -1, n)) | st.integers(min_value=0, max_value=n - 1)
        steps[k] = replace(steps[k], premise_index=data.draw(index))
    return tuple(steps)


def single_edits(steps, premises):
    """``steps`` after each single edit: a step deleted, duplicated, swapped
    with the next one, given its literal's negation, a literal over a symbol
    outside the signature, each other kind, or a premise index of None, -1,
    each position among ``premises`` clauses, or one past the end."""
    kinds = (STEP_UNIT, STEP_ASSUME, STEP_PROPAGATE, STEP_EMPTY, STEP_DISCHARGE)
    for k, step in enumerate(steps):
        yield steps[:k] + steps[k + 1 :]
        yield steps[: k + 1] + steps[k:]
        if k + 1 < len(steps):
            yield steps[:k] + (steps[k + 1], step) + steps[k + 2 :]
        edits = [replace(step, kind=kind) for kind in kinds if kind != step.kind]
        if step.literal is not None:
            edits.append(replace(step, literal=step.literal.negate()))
            edits.append(replace(step, literal=Literal("ghost", step.literal.negated)))
        edits += [replace(step, premise_index=p) for p in (None, -1, *range(premises + 1))
                  if p != step.premise_index]
        for edited in edits:
            yield steps[:k] + (edited,) + steps[k + 1 :]


class TestReplayTheorems:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_replay_trace_after_tampers(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10), label="n")
        ftsc = chain([f"x{k}" for k in range(1, n + 1)])
        pool = [step for t in derive_theorems(ftsc) for step in t.trace.steps]
        if data.draw(st.booleans(), label="tamper a shared step"):
            # The shared steps are generator data too, and are not trusted.
            units, propagations, empty = ftsc.trace_steps
            if propagations and data.draw(st.booleans()):
                propagations = tamper_once(data, propagations, n, pool)
            else:
                units = tamper_once(data, units, n, pool)
            ftsc.__dict__["trace_steps"] = units, propagations, empty
        theorems = derive_theorems(ftsc)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            theorem = data.draw(st.sampled_from(theorems))
            theorem.__dict__["trace"] = ProofTrace(tamper_once(data, theorem.trace.steps, n, pool))
        assert_agrees_with_replay_trace(ftsc, theorems)

    def test_shared_unit_that_is_not_unit(self):
        # ~x1 occurs in clause 2, x2 | ~x1, but x2 is not known false.
        ftsc = chain(["x1", "x2"])
        units, propagations, empty = ftsc.trace_steps
        ftsc.__dict__["trace_steps"] = (
            (units[0], TraceStep(STEP_UNIT, neg("x1"), 1)), propagations, empty
        )
        theorems = derive_theorems(ftsc)
        assert_agrees_with_replay_trace(ftsc, theorems)
        assert replay_theorems(theorems)[2].reason == (
            "cited clause is not unit under established literals"
        )

    @pytest.mark.parametrize("premise_index", [0, 3, 4, -1])
    @pytest.mark.parametrize("step", [1, -1], ids=["assumption", "discharge"])
    def test_premise_index_on_assumption_or_discharge(self, step, premise_index):
        # An assumption or a discharge cites no clause: an index out of range
        # is named as such, and one in range is refused too.
        ftsc = chain(MEDICAL)
        theorems = derive_theorems(ftsc)
        steps = list(theorems[1].trace.steps)
        steps[step] = replace(steps[step], premise_index=premise_index)
        theorems[1].__dict__["trace"] = ProofTrace(tuple(steps))
        assert_agrees_with_replay_trace(ftsc, theorems)
        reason = (f"{steps[step].kind} step cites a premise" if premise_index in (0, 3)
                  else f"premise index out of range: {premise_index}")
        assert replay_theorems(theorems)[1].reason == reason

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_literal_on_the_empty_clause_step(self, i):
        ftsc = chain(["a", "b", "c"])
        theorems = derive_theorems(ftsc)
        steps = list(theorems[i - 1].trace.steps)
        k = next(k for k, s in enumerate(steps) if s.kind == STEP_EMPTY)
        steps[k] = replace(steps[k], literal=pos("a"))
        theorems[i - 1].__dict__["trace"] = ProofTrace(tuple(steps))
        assert_agrees_with_replay_trace(ftsc, theorems)
        result = replay_theorems(theorems)[i - 1]
        assert (result.failed_step, result.reason) == (k, "empty-clause step carries a literal")

    @pytest.mark.parametrize("n", range(1, 5))
    def test_agrees_with_replay_trace_after_every_single_edit(self, n):
        # Every single edit of every trace, and of each of the shared steps the
        # traces are built from, is judged as replay_trace judges it; so is
        # each trace with its assumption and discharge on another literal.
        symbols = [f"x{k}" for k in range(1, n + 1)]
        ftsc = chain(symbols)
        literals = [Literal(s, negated) for s in [*symbols, "ghost"] for negated in (False, True)]
        for i in range(1, n + 2):
            steps = build_proof_trace(ftsc, i).steps
            edits = list(single_edits(steps, n))
            if i <= n:  # the assumption and its discharge moved to another literal
                edits += [
                    steps[: i - 1] + (replace(steps[i - 1], literal=literal),) + steps[i:-1]
                    + (replace(steps[-1], literal=literal.negate()),)
                    for literal in literals if literal != steps[i - 1].literal
                ]
            for edited in edits:
                theorems = derive_theorems(ftsc)
                theorems[i - 1].__dict__["trace"] = ProofTrace(edited)
                assert_agrees_with_replay_trace(ftsc, theorems)
        units, propagations, empty = ftsc.trace_steps
        shared = [(edited, propagations, empty) for edited in single_edits(units, n)]
        shared += [(units, edited, empty) for edited in single_edits(propagations, n)]
        shared += [(units, propagations, e[0]) for e in single_edits((empty,), n) if len(e) == 1]
        for trace_steps in shared:
            edited = chain(symbols)
            edited.__dict__["trace_steps"] = trace_steps
            assert_agrees_with_replay_trace(edited, derive_theorems(edited))

    def test_shared_step_citing_another_position(self):
        # Position 0 is clause 2 in remainder 1 but clause 1 in remainder 2, so
        # a shared propagation citing it at position 1 serves trace 1 only.
        genuine = chain(["a", "b", "c"])
        clauses = [*genuine.clause_set.clauses[:3], [neg("a"), neg("b")]]
        ftsc = Ftsc(ClauseSet.build(clauses, genuine.signature), genuine.permutation, 3)
        units, propagations, empty = ftsc.trace_steps
        ftsc.__dict__["trace_steps"] = units, (propagations[0], propagations[0]), empty
        theorems = derive_theorems(ftsc)
        assert_agrees_with_replay_trace(ftsc, theorems)
        result = replay_theorems(theorems)[1]
        assert (result.failed_step, result.reason) == (
            2, "derived literal does not occur in the cited clause"
        )

    def test_shared_steps_after_the_run_stops(self):
        # The chain's run stops at the step of an unknown kind, after an
        # empty-clause step; what follows it is replayed, not trusted.
        ftsc = chain(["a", "b"])
        units, propagations, empty = ftsc.trace_steps
        leap = TraceStep("leap", None, None)
        ftsc.__dict__["trace_steps"] = units, (*propagations, empty, leap), empty
        theorems = derive_theorems(ftsc)
        assert_agrees_with_replay_trace(ftsc, theorems)
        result = replay_theorems(theorems)[0]
        assert (result.failed_step, result.reason) == (3, "unknown step kind: 'leap'")

    def test_each_theorem_replays_against_its_own_source(self):
        # A second construction with the first one's steps but another last
        # clause is not judged by the first one's runs.
        genuine = chain(["a", "b", "c"])
        clauses = [*genuine.clause_set.clauses[:3], [neg("a"), neg("b"), pos("c")]]
        other = Ftsc(ClauseSet.build(clauses, genuine.signature), genuine.permutation, 3)
        theorems = derive_theorems(genuine) + derive_theorems(other)
        failed = replay_theorems(theorems)
        for position, theorem in enumerate(theorems):
            expected = replay_trace(
                theorem.trace, theorem.source.premises_without(theorem.removed_index)
            )
            assert failed.get(position) == (None if expected else expected)
        assert sorted(failed) == [4, 5, 6]

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_generate_replays_a_genuine_construction_from_the_shared_runs(
        self, n, monkeypatch, capsys
    ):
        from contragen import verifier
        from contragen.cli import run_cli

        def refuse(trace, premises):
            raise AssertionError("a genuine trace fell back to replay_trace")

        monkeypatch.setattr(verifier, "replay_trace", refuse)
        assert run_cli(["generate", *(f"s{k}" for k in range(n))]) == 0
        out, err = capsys.readouterr()
        theorems = json.loads(out)["theorems"]
        assert len(theorems) == n + 1
        assert all(t["trace_replayed"] is True for t in theorems)
        assert err == ""


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
