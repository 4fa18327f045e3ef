"""Construction shape, enumeration closure, theorem derivation, the proof."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from contragen import (
    Clause,
    ClauseSet,
    EnumerationCapExceededError,
    Signature,
    build_ftsc,
    closure_counts,
    derive_theorems,
    enumerate_ftscs,
    neg,
    pos,
    replay_trace,
    validate_input,
)
from contragen.generator import (
    CERT_UNCHECKED,
    Ftsc,
    ProofTrace,
    TraceStep,
    conclusion_for,
    permutation_by_rank,
    proof_steps,
    recover_permutation,
    step_clause,
    total_literals,
    trace_length,
)
from contragen.verifier import replay_theorems

from contragen.core import EmptyInputError, Literal, fields

from oracles import brute_force_entails, brute_force_satisfiable, plain_clauses

MEDICAL = ["Infection", "HighWBC", "Fever", "RequiresAntibiotics"]


def signature_of(names):
    return validate_input([pos(s) for s in names])


class TestBuildFtsc:
    def test_empty_signature_refused(self):
        with pytest.raises(EmptyInputError, match="cannot build over an empty signature"):
            build_ftsc(Signature(()))

    def test_single_literal_degenerate(self):
        ftsc = build_ftsc(signature_of(["x1"]))
        assert ftsc.clause_set.clauses == (
            Clause((pos("x1"),)),
            Clause((neg("x1"),)),
        )

    def test_medical_clauses(self):
        ftsc = build_ftsc(signature_of(MEDICAL))
        rendered = [str(c) for c in ftsc.clause_set.clauses]
        assert rendered == [
            "Infection",
            "~Infection | HighWBC",
            "~Infection | ~HighWBC | Fever",
            "~Infection | ~HighWBC | ~Fever | RequiresAntibiotics",
            "~Infection | ~HighWBC | ~Fever | ~RequiresAntibiotics",
        ]

    def test_three_literal_schema(self):
        ftsc = build_ftsc(signature_of(["a", "b", "c"]))
        assert ftsc.clause_set.as_sets() == frozenset(
            {
                frozenset({pos("a")}),
                frozenset({pos("b"), neg("a")}),
                frozenset({pos("c"), neg("a"), neg("b")}),
                frozenset({neg("a"), neg("b"), neg("c")}),
            }
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shape_invariant(self, n):
        ftsc = build_ftsc(signature_of([f"x{i}" for i in range(1, n + 1)]))
        clauses = ftsc.clause_set.clauses
        assert len(clauses) == n + 1
        for t, clause in enumerate(clauses[:-1], start=1):
            assert len(clause) == t
            positives = [l for l in clause if not l.negated]
            assert positives == [pos(f"x{t}")]
            assert {l.symbol for l in clause if l.negated} == {
                f"x{j}" for j in range(1, t)
            }
        assert len(clauses[-1]) == n
        assert all(l.negated for l in clauses[-1])
        assert sum(len(c) for c in clauses) == total_literals(n) == n * (n + 3) // 2

    def test_no_tautologies(self):
        ftsc = build_ftsc(signature_of(MEDICAL))
        assert not any(positive & negative for positive, negative in ftsc.clause_set.masks())

    def test_deterministic(self):
        signature = signature_of(MEDICAL)
        assert build_ftsc(signature) == build_ftsc(signature)

    def test_counter_counts_literals(self):
        clauses = build_ftsc(signature_of([f"x{i}" for i in range(1, 6)])).clause_set.clauses
        assert sum(map(len, clauses)) == total_literals(5)
        assert len(clauses) == 6


class TestClosedFormEncoding:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_literal_by_literal_encoding(self, n):
        order = [f"x{i}" for i in range(n)]
        random.Random(n).shuffle(order)
        signature = Signature(tuple(order))
        ftsc = build_ftsc(signature)
        reencoded = ClauseSet(ftsc.clause_set.clauses, signature)
        assert ftsc.clause_set.int_clauses() == reencoded.int_clauses()
        assert ftsc.clause_set.masks() == reencoded.masks()
        # Every deletion is certified without search, and its witness is the
        # oracle's first model of that deletion.
        mus = ftsc.mus
        assert mus.is_mus and mus.searches == 0
        plain = plain_clauses(ftsc.clause_set)
        for i, result in enumerate(mus.deletion_results):
            sat, first = brute_force_satisfiable(plain[:i] + plain[i + 1 :], signature.symbols)
            assert sat and result.witness == first

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_literals_are_the_clauses_own(self, n):
        ftsc = build_ftsc(signature_of([f"x{i}" for i in range(n)]))
        positives, negatives = ftsc.literals
        expected = [negatives[:t] + (x,) for t, x in enumerate(positives)] + [negatives]
        # The very objects, compared by identity.
        assert [list(map(id, c.literals)) for c in ftsc.clause_set.clauses] == [
            list(map(id, literals)) for literals in expected
        ]

    def test_caches_are_bounded(self):
        from contragen.generator import _chain_code
        from contragen.verifier import _candidate_columns

        for cache in (_chain_code, _candidate_columns):
            assert 0 < cache.cache_info().maxsize <= 16
        for n in range(1, 40):
            build_ftsc(signature_of([f"x{i}" for i in range(n)]))
        assert _chain_code.cache_info().currsize <= _chain_code.cache_info().maxsize


class TestEnumeration:
    def test_single(self):
        assert len(list(enumerate_ftscs(signature_of(["a"])))) == 1

    @pytest.mark.parametrize("n,expected", [(3, 6), (4, 24)])
    def test_counts(self, n, expected):
        signature = signature_of([f"x{i}" for i in range(1, n + 1)])
        ftscs = list(enumerate_ftscs(signature))
        assert len(ftscs) == expected
        distinct = {f.clause_set.as_sets() for f in ftscs}
        assert len(distinct) == expected

    def test_permutation_recovered_from_contents(self):
        signature = signature_of(["a", "b", "c", "d"])
        for ftsc in enumerate_ftscs(signature):
            shuffled = ClauseSet(ftsc.clause_set.clauses[::-1], ftsc.signature)
            assert recover_permutation(shuffled) == ftsc.permutation

    def test_non_chain_recovers_nothing(self):
        signature = signature_of(["a", "b"])
        two_units = ClauseSet((Clause((pos("a"),)), Clause((pos("b"),))), signature)
        assert recover_permutation(two_units) is None
        assert recover_permutation(ClauseSet((), signature)) is None

    @given(st.data())
    @settings(max_examples=300)
    def test_recovery_agrees_with_set_recovery(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        signature = Signature(tuple(f"v{i}" for i in range(1, n + 1)))
        if data.draw(st.booleans()):
            # A permuted chain, its clauses shuffled, one possibly dropped
            # or repeated.
            rank = data.draw(st.integers(0, math.factorial(n) - 1))
            clauses = list(build_ftsc(permutation_by_rank(signature, rank)).clause_set)
            clauses = data.draw(st.permutations(clauses))
            edit = data.draw(st.sampled_from(("none", "drop", "repeat")))
            if edit == "drop":
                del clauses[data.draw(st.integers(0, n))]
            elif edit == "repeat":
                clauses.append(data.draw(st.sampled_from(clauses)))
        else:
            # Arbitrary clauses, with repeated literals and tautologies.
            literal = st.builds(Literal, st.sampled_from(signature.symbols), st.booleans())
            clauses = data.draw(
                st.lists(st.lists(literal, max_size=n + 1).map(tuple).map(Clause),
                         max_size=n + 2)
            )
        clause_set = ClauseSet(tuple(clauses), signature)
        assert recover_permutation(clause_set) == set_recover_permutation(clause_set)

    def test_lexicographic_order(self):
        signature = signature_of(["a", "b", "c"])
        perms = [f.permutation for f in enumerate_ftscs(signature)]
        assert perms == [
            ("a", "b", "c"),
            ("a", "c", "b"),
            ("b", "a", "c"),
            ("b", "c", "a"),
            ("c", "a", "b"),
            ("c", "b", "a"),
        ]

    def test_cap(self):
        signature = signature_of([f"x{i}" for i in range(1, 12)])
        with pytest.raises(EnumerationCapExceededError):
            enumerate_ftscs(signature)
        # explicit override yields a working stream
        stream = enumerate_ftscs(signature, cap=None)
        first = next(stream)
        assert first.n == 11

    def test_lazy(self):
        signature = signature_of([f"x{i}" for i in range(1, 9)])
        stream = enumerate_ftscs(signature)
        head = list(itertools.islice(stream, 3))
        assert len(head) == 3  # never materializes 8! values

    @pytest.mark.parametrize("n", [7, 8])
    def test_counts_by_counting_only(self, n):
        # distinctness is covered exhaustively at n <= 6; here just the count
        signature = signature_of([f"x{i}" for i in range(1, n + 1)])
        assert sum(1 for _ in enumerate_ftscs(signature)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_value_is_build_ftsc_by_rank(self, n):
        signature = signature_of([f"x{i}" for i in range(n)][::-1])
        ftscs = list(enumerate_ftscs(signature))
        assert len(ftscs) == math.factorial(n)
        for k, ftsc in enumerate(ftscs):
            built = build_ftsc(permutation_by_rank(signature, k))
            assert ftsc == built
            assert ftsc.literals == built.literals and ftsc.signature.index == built.signature.index
            assert ftsc.clause_set.int_clauses() == built.clause_set.int_clauses()
            assert ftsc.clause_set.masks() == built.clause_set.masks()
        # Every value shares the base signature's 2n literals.
        base = {id(literal) for literal in ftscs[0].literals[0] + ftscs[0].literals[1]}
        assert len(base) == 2 * n
        for ftsc in ftscs:
            used = {id(literal) for clause in ftsc.clause_set for literal in clause}
            assert used == base
            assert {id(literal) for side in ftsc.literals for literal in side} == base

    def test_empty_signature_raises_on_first_next(self):
        stream = enumerate_ftscs(Signature(()))
        with pytest.raises(EmptyInputError):
            next(stream)

    def test_closure_counts_helper(self):
        assert closure_counts(4) == (24, 120)
        assert closure_counts(1) == (1, 2)


class TestPermutationRank:
    def test_rank_zero_is_identity(self):
        signature = signature_of(["a", "b", "c"])
        assert permutation_by_rank(signature, 0).symbols == ("a", "b", "c")

    def test_matches_enumeration_order(self):
        signature = signature_of(["a", "b", "c", "d"])
        expected = [f.permutation for f in enumerate_ftscs(signature)]
        for rank in range(math.factorial(4)):
            assert permutation_by_rank(signature, rank).symbols == expected[rank]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            permutation_by_rank(signature_of(["a", "b"]), 2)


class TestDeriveTheorems:
    def test_medical_five_theorems(self):
        ftsc = build_ftsc(signature_of(MEDICAL))
        theorems = derive_theorems(ftsc)
        assert [t.removed_index for t in theorems] == [1, 2, 3, 4, 5]
        assert all(t.certified == CERT_UNCHECKED for t in theorems)
        assert all(t.source.proof.targets[t.removed_index - 1] is not None for t in theorems)

    def test_degenerate_two_theorems(self):
        theorems = derive_theorems(build_ftsc(signature_of(["x1"])))
        assert [t.conclusion for t in theorems] == [(neg("x1"),), (pos("x1"),)]

    def test_contract_six_theorems(self):
        names = [
            "ExclusiveSupply",
            "TimelyDelivery",
            "PenaltyForDelay",
            "TerminationWithoutCause",
            "FixedPricing",
        ]
        theorems = derive_theorems(build_ftsc(signature_of(names)))
        assert len(theorems) == 6
        assert [str(l) for l in theorems[3].conclusion] == [
            "ExclusiveSupply",
            "TimelyDelivery",
            "PenaltyForDelay",
            "~TerminationWithoutCause",
        ]

    def test_traces_built_on_first_read_only(self, monkeypatch):
        # The proof is a pure function of n, built once per n and shared by
        # every construction of that size; a theorem holds no proof of its own.
        from contragen import generator

        calls = []
        real = generator._chain_proof.__wrapped__

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(generator, "_chain_proof", functools.lru_cache(maxsize=8)(counting))
        theorems = derive_theorems(build_ftsc(signature_of(MEDICAL)))
        assert calls == []
        assert list(fields(theorems[0])) == [
            "source", "removed_index", "conclusion", "certified"
        ]
        assert not hasattr(theorems[0], "__dict__")
        first = theorems[1].source.proof
        assert theorems[1].source.proof is first
        assert calls == [4]
        assert first == real(4)
        # Another construction of the same size shares the one proof.
        other = build_ftsc(permutation_by_rank(signature_of(MEDICAL), 5))
        assert other.proof is first and calls == [4]

    def test_conclusion_negates_removed_clause(self):
        ftsc = build_ftsc(signature_of(MEDICAL))
        for theorem in derive_theorems(ftsc):
            removed = ftsc.clause_set.clauses[theorem.removed_index - 1]
            assert set(theorem.conclusion) == {l.negate() for l in removed.literals}


def set_recover_permutation(clause_set):
    """``recover_permutation`` written plainly over each clause's literal set."""
    n = clause_set.signature.size
    order = [None] * n
    for clause in clause_set.clauses:
        literals = clause.as_set()
        positives = [l.symbol for l in literals if not l.negated]
        if len(positives) != 1:
            continue
        t = len(literals)
        if not 1 <= t <= n or order[t - 1] not in (None, positives[0]):
            return None
        order[t - 1] = positives[0]
    return None if None in order else tuple(order)


def reference_proof(n):
    """The chain's proof written from its description, one step at a time:
    each step as (its clause's literal set, cited clauses or steps, units),
    with symbol t standing for xt, clause t for Ct and ("E", k) for Ek."""
    steps = [({(t, False)}, [t], t - 1) for t in range(1, n + 1)]
    for k in range(n - 1, 0, -1):
        steps.append(({(j, True) for j in range(1, k + 1)}, [k + 1, ("E", k + 1)], 0))
    steps += [({(i, True)}, [("E", i)], i - 1) for i in range(1, n + 1)]
    return steps, [2 * n - 1 + i - 1 for i in range(1, n + 1)] + [n - 1]


def as_reference(ftsc, step):
    """A proof step of ``ftsc`` in ``reference_proof``'s terms."""
    n, syms = ftsc.n, ftsc.permutation
    literals = {(syms.index(l.symbol) + 1, l.negated) for l in step_clause(ftsc, step)}

    def cited(r):
        if r <= n:  # clause r+1; C(n+1) is En
            return r + 1 if r < n else ("E", n)
        return ("E", 2 * n - 1 - (r - n - 1))  # Ek is step 2n-1-k

    return literals, [cited(r) for r in step.hints], step.units


def steps_used(proof, target, clauses):
    """The steps ``target`` rests on, itself included, in order: the units
    each assumes and the steps each cites, followed back from it."""
    todo, used = [target], set()
    while todo:
        s = todo.pop()
        if s not in used:
            used.add(s)
            todo += range(proof.steps[s].units)
            todo += (r - clauses for r in proof.steps[s].hints if r >= clauses)
    return sorted(used)


class TestProofTraces:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_shared_steps_match_reference(self, n):
        # One proof of 3n-1 steps over the construction's own order, whatever
        # the permutation; its n+1 targets follow the description.
        signature = signature_of([f"x{i}" for i in range(1, n + 1)])
        ftsc = build_ftsc(permutation_by_rank(signature, math.factorial(n) // 3))
        steps, targets = reference_proof(n)
        assert len(ftsc.proof.steps) == 3 * n - 1
        assert [as_reference(ftsc, step) for step in ftsc.proof.steps] == steps
        assert list(ftsc.proof.targets) == targets
        for theorem in derive_theorems(ftsc):
            i = theorem.removed_index
            removed = ftsc.clause_set.clauses[i - 1].literals
            assert theorem.conclusion == tuple(l.negate() for l in removed)
            assert proof_steps(theorem) == steps_used(ftsc.proof, targets[i - 1], n + 1)

    def test_shuffled_replay_gives_the_same_results(self):
        # The proof of n=3 against the clauses of every construction of size
        # 3, so that some replays pass and some fail, in order then shuffled:
        # a replay keeps no state between calls.
        signature = signature_of(["x1", "x2", "x3"])
        sources = [build_ftsc(permutation_by_rank(signature, r)) for r in range(6)]
        crossed = [
            Ftsc(ClauseSet.build(other.clause_set.clauses, own.signature), own.permutation, 3)
            for own in sources for other in sources
        ]

        def replay(k):
            return sorted(replay_theorems(derive_theorems(crossed[k])).items())

        expected = [replay(k) for k in range(len(crossed))]
        assert sum(not failed for failed in expected) == 6
        shuffled = list(range(len(crossed))) * 2
        random.Random(13).shuffle(shuffled)
        for k in shuffled:
            assert replay(k) == expected[k]

    def test_medical_i4_structure(self):
        # Removing clause 4: the units x1..x3 from clauses 1..3, then ~x4 from
        # C5 under them.
        ftsc = build_ftsc(signature_of(MEDICAL))
        theorem = derive_theorems(ftsc)[3]
        used = proof_steps(theorem)
        assert used == [0, 1, 2, 10]
        steps = [ftsc.proof.steps[s] for s in used]
        assert [str(step_clause(ftsc, s)) for s in steps] == [
            "Infection", "HighWBC", "Fever", "~RequiresAntibiotics"
        ]
        assert [(s.hints, s.units) for s in steps] == [((0,), 0), ((1,), 1), ((2,), 2), ((4,), 3)]

    def test_medical_i5_units_only(self):
        ftsc = build_ftsc(signature_of(MEDICAL))
        theorem = derive_theorems(ftsc)[4]
        assert ftsc.proof.targets[4] == 3
        assert proof_steps(theorem) == [0, 1, 2, 3]
        assert [step_clause(ftsc, ftsc.proof.steps[s]).literals for s in range(4)] == [
            (pos(s),) for s in MEDICAL
        ]

    def test_middle_removal_has_propagation(self):
        # Removing clause 2 propagates backwards: E3 from C4 and C5, E2 from C3
        # and E3, then ~x2 from E2 under the unit x1.
        ftsc = build_ftsc(signature_of(MEDICAL))
        theorem = derive_theorems(ftsc)[1]
        used = proof_steps(theorem)
        assert used == [0, 4, 5, 8]
        steps = [ftsc.proof.steps[s] for s in used]
        assert [str(step_clause(ftsc, s)) for s in steps] == [
            "Infection",
            "~Infection | ~HighWBC | ~Fever",
            "~Infection | ~HighWBC",
            "~HighWBC",
        ]
        assert [s.hints for s in steps] == [(0,), (3, 4), (2, 9), (10,)]

    def test_degenerate_removal(self):
        ftsc = build_ftsc(signature_of(["x1"]))
        assert ftsc.proof == ProofTrace(
            (TraceStep(1, 0, (0,), 0), TraceStep(0, 1, (1,), 0)), (1, 0)
        )
        assert proof_steps(derive_theorems(ftsc)[0]) == [1]

    def test_index_out_of_range(self):
        ftsc = build_ftsc(signature_of(["x1"]))
        with pytest.raises(IndexError, match="clause index out of range: 3"):
            conclusion_for(ftsc, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trace_length_closed_form(self, n):
        # ``trace_steps`` keeps the v1 count, n+2 or n for theorem n+1; each
        # theorem uses n steps of the proof.
        ftsc = build_ftsc(signature_of([f"x{i}" for i in range(1, n + 1)]))
        for theorem in derive_theorems(ftsc):
            i = theorem.removed_index
            assert trace_length(n, i) == (n if i == n + 1 else n + 2)
            assert len(proof_steps(theorem)) == n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_traces_replay_and_match_oracle(self, n):
        ftsc = build_ftsc(signature_of([f"x{i}" for i in range(1, n + 1)]))
        theorems = derive_theorems(ftsc)
        assert replay_trace(ftsc.proof, ftsc.clause_set)
        assert replay_theorems(theorems) == {}
        for theorem in theorems:
            # independent cross-check: each conjunct really is entailed
            premises = ftsc.clause_set.without(theorem.removed_index - 1)
            plain = plain_clauses(premises)
            for lit in theorem.conclusion:
                assert brute_force_entails(
                    plain, premises.signature.symbols, (lit.symbol, lit.negated)
                )


class TestDeterminism:
    def test_serialized_identical(self):
        from contragen import build_report, derive_theorems

        signature = signature_of(MEDICAL)
        first = build_report(
            build_ftsc(signature),
            derive_theorems(build_ftsc(signature)),
            timestamp="",
        )
        second = build_report(
            build_ftsc(signature),
            derive_theorems(build_ftsc(signature)),
            timestamp="",
        )
        assert first.to_json() == second.to_json()
