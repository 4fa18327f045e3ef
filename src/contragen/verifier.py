"""Independent certification: satisfiability, minimality, entailment, replay.

Nothing in this module trusts generator metadata; every verdict is
recomputed from the clause lists. Satisfiability is decided two ways:

  * an exhaustive truth table, bit-packed so each of the 2^n assignments
    is one bit of a big integer; a clause is violated where every literal
    is false, the AND of one cached bit pattern (or its complement) per
    literal; ``is_satisfiable`` and ``check_mus`` choose it for signatures
    up to TRUTH_TABLE_MAX_VARS (13) symbols, where it is the faster search;
  * a deterministic, iterative DPLL search (``_dpll``) on the clause
    bitmasks. The assignment is two masks, the symbols known true and
    those known false, and a trail of the symbols set. Unit propagation
    takes clauses off a FIFO queue: every clause at the root, then, per
    symbol set, the clauses holding its other literal. Search backtracks
    chronologically, clearing the trail's bits from the flipped
    decision's mark, and branches on the lowest unassigned signature
    index, true first. It serves larger signatures.

Both methods return the same witness when one exists: the model that is
lexicographically first under "lower signature index decided first, true
preferred". No clause learning, no heuristics, no randomness. Each serves
as the other's cross-check.

Minimality is certified from certificates the check derives and then
checks (McConnell, Mehlhorn, Naeher & Schweitzer 2011, "Certifying
algorithms"). ``check_mus`` decides the set first: unit propagation
alone, run on the clause bitmasks, refutes it (a RUP refutation, Goldberg
& Novikov 2003), or else a search decides it. For an unsatisfiable set
it offers deletion i the model "clause i false, every other symbol true",
and checks all candidates at once by the truth table's kernel, with
candidate i in place of assignment i, in blocks of at most 1024. What
the kernel rejects, and every deletion of a satisfiable set, is searched
as above, so every witness is the search's. Generated chains and DIMACS
input take this one path. An accepted model is kept as its mask; its
``SatResult`` and witness dict are built when
``MusReport.deletion_results`` is first read.

A theorem is certified from its source's deletion-based minimality check
alone: the remainder R entails the negated removed clause l1 | ... | lk
exactly when R & (l1 | ... | lk), the source, is unsatisfiable. So
certification is "MUS at the removed index plus the conclusion equals the
negated clause". ``certification_failures``, the one certification entry
point, gives theorems their verdicts in one pass: None, or one line naming
the condition that failed; ``check_theorem`` returns one theorem's
certified copy from it. Each construction holds its one check
(``Ftsc.mus``), so a construction is decided once however its theorems are
ordered, and ``check_mus`` keeps no state between calls. The conclusion is
compared by masks: its (positive, negative) bitmask pair over the signature
must be the removed clause's pair swapped. From _PREFIX_MIN_VARS symbols
on, the kernel and certification start a clause or conclusion that repeats
the previous one's all-but-last literals (one tuple comparison) from the
result saved for them.

Proof replay runs on the source's clause bitmasks: ``replay_trace``
checks every step of a construction's proof by one rule, reverse unit
propagation over the step's hints, and gives each valid step the mask of
the source clauses it rests on; ``replay_theorems`` calls it once per
construction, then accepts each theorem by a few mask operations on its
target step.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .core import ClauseSet, Record, _setattr
from .generator import (
    CERT_FAILED,
    CERT_VERIFIED,
    ProofTrace,
    Theorem,
)

# The largest signature at which the truth table's minimality check still
# beat DPLL's, on random 3-SAT at 4.26 clauses per symbol and on the chain.
TRUTH_TABLE_MAX_VARS = 13

# Rows reuse prefixes from this many symbols on: the kernel's crossover (certification's is 10).
_PREFIX_MIN_VARS = 19

METHOD_TRUTH_TABLE = "truth-table"
METHOD_DPLL = "dpll"
#: The method of a result read from a checked certificate instead of a search.
METHOD_CERTIFICATE = "certificate"


class SatResult(Record):
    __slots__ = _fields = ("satisfiable", "witness", "method")


class MusReport(Record):
    """Deletion-based minimality check: the set is minimal iff it is
    unsatisfiable and every single-clause deletion is satisfiable.

    ``method`` says how the set itself was decided. It and each deletion
    result's method are "certificate" where a checked certificate settled
    the question, and name the search otherwise.

    ``check_mus`` keeps each accepted certificate as its model mask, and
    builds ``deletion_results`` from the masks when it is first read.
    """

    _fields = ("is_unsatisfiable", "deletion_results", "is_mus", "method")
    # ``_deletions``: per deletion, its accepted model mask or its result.
    __slots__ = _fields + ("_deletions", "_symbols")

    def __init__(
        self, is_unsatisfiable: bool, deletion_results: tuple[SatResult, ...], is_mus: bool,
        method: str,
    ):
        _setattr(self, "is_unsatisfiable", is_unsatisfiable)
        _setattr(self, "deletion_results", deletion_results)
        _setattr(self, "is_mus", is_mus)
        _setattr(self, "method", method)
        _setattr(self, "_deletions", deletion_results)

    @classmethod
    def _pending(
        cls, is_unsatisfiable: bool, deletions: tuple, is_mus: bool, method: str,
        symbols: tuple[str, ...],
    ) -> "MusReport":
        """A report whose ``deletion_results`` are built from ``deletions``,
        masks over ``symbols`` or results, when first read."""
        report = object.__new__(cls)
        _setattr(report, "is_unsatisfiable", is_unsatisfiable)
        _setattr(report, "is_mus", is_mus)
        _setattr(report, "method", method)
        _setattr(report, "_deletions", deletions)
        _setattr(report, "_symbols", symbols)
        return report

    def __getattr__(self, name):
        # Reached only for a slot not set: a pending report's results.
        if name != "deletion_results":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        symbols = self._symbols
        results = tuple([
            SatResult(True, _witness(d, symbols), METHOD_CERTIFICATE) if d.__class__ is int else d
            for d in self._deletions
        ])
        _setattr(self, "deletion_results", results)
        return results

    @property
    def searches(self) -> int:
        """How many decisions, of the set and of each deletion, were searched."""
        searched = [d.method for d in self._deletions if d.__class__ is not int]
        return sum(m != METHOD_CERTIFICATE for m in [self.method, *searched])


class ReplayResult(Record):
    """Outcome of replaying a proof; truthy iff every step was valid.

    On failure, ``failed_step`` is the 0-based index of the first invalid
    step and ``reason`` says why. ``verdicts`` holds, per step, the mask of
    the source clauses it rests on (bit r: clause r) when it is valid, and
    its reason when not. ``units`` is three tuples, indexed by k up to the
    first step that is not a valid one-literal step: the first k steps'
    literals as true and false masks, and the clauses those rest on.
    """

    __slots__ = _fields = ("ok", "failed_step", "reason", "verdicts", "units")

    def __repr__(self) -> str:
        return self._repr(self._fields[:3])  # the masks stay out

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=None)
def _bit_patterns(n: int) -> tuple[int, ...]:
    """Per symbol j, the bitmap over all 2^n assignment indices marking
    those with bit j set: 2^j zeros then 2^j ones, repeated."""
    full = (1 << (1 << n)) - 1
    return tuple(
        full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
        for j in range(n)
    )


def _violations(
    int_clauses: Sequence[tuple[int, ...]], patterns: Sequence[int], full: int
) -> Iterator[int]:
    """Yield, per clause, the positions where all its literals are false;
    position i makes symbol j true where bit i of ``patterns[j]`` is set."""
    # Where each literal is false, indexed by the literal (``-v`` from the end).
    false_at = [full, *(full ^ p for p in patterns), *reversed(patterns)]
    if len(patterns) < _PREFIX_MIN_VARS:
        for ints in int_clauses:
            block = full
            for lit in ints:
                block &= false_at[lit]
            yield block
        return
    prefix = ()  # the previous clause's all-but-last literals; ``before`` is their AND
    for ints in int_clauses:
        k = len(prefix)
        if not (k and k < len(ints) and ints[:k] == prefix):
            k, before = 0, full
        for lit in ints[k:-1]:
            before &= false_at[lit]
        prefix = ints[:-1]
        yield before & false_at[ints[-1]] if ints else full


def _witness(model: int, symbols: tuple[str, ...]) -> dict[str, bool]:
    """The assignment a model mask encodes: bit j is the value of ``symbols[j]``."""
    return {s: model >> j & 1 == 1 for j, s in enumerate(symbols)}


def _truth_table(clause_set: ClauseSet) -> SatResult:
    n = clause_set.signature.size
    full = (1 << (1 << n)) - 1
    patterns = _bit_patterns(n)
    violated = 0
    for block in _violations(clause_set.int_clauses(), patterns, full):
        violated |= block
        if violated == full:
            return SatResult(False, None, METHOD_TRUTH_TABLE)
    alive = full & ~violated
    # Preferred model: decide symbols in signature order, trying true first.
    chosen = 0
    for j, pattern in enumerate(patterns):
        if alive & pattern:
            alive &= pattern
            chosen |= 1 << j
        else:
            alive &= ~pattern
    return SatResult(True, _witness(chosen, clause_set.signature.symbols), METHOD_TRUTH_TABLE)


def _dpll(clause_set: ClauseSet) -> SatResult:
    """Chronological DPLL on the clause masks, as the module docstring says.
    A decision keeps only its trail mark and symbol, never a copy of the
    assignment, so memory stays linear in the signature."""
    masks = clause_set.masks()
    symbols = clause_set.signature.symbols
    n = len(symbols)
    # recheck[v][j]: the clauses that setting symbol j to v can make unit or
    # falsify, those holding its other literal.
    recheck = ([[] for _ in range(n)], [[] for _ in range(n)])
    for c, ints in enumerate(clause_set.int_clauses()):
        for lit in ints:
            recheck[lit < 0][abs(lit) - 1].append(c)
    true = false = 0
    free = (1 << n) - 1  # unassigned symbols
    trail: list[int] = []
    # One entry per open decision: (trail mark, symbol, flipped yet).
    decisions: list[tuple[int, int, bool]] = []
    queue = deque(range(len(masks)))  # at the root every clause is checked
    while True:
        conflict = False
        while queue:
            positive, negative = masks[queue.popleft()]
            if positive & true or negative & false:
                continue  # satisfied
            open_ = (positive | negative) & free
            if not open_:
                conflict = True
                break
            # A unit has one open literal; ``x | ~x`` has two on one symbol.
            if open_ & (open_ - 1) or positive & negative & open_:
                continue
            value = bool(positive & open_)
            if value:
                true |= open_
            else:
                false |= open_
            free ^= open_
            j = open_.bit_length() - 1
            trail.append(j)
            queue.extend(recheck[value][j])
        if conflict:
            # Flip the latest decision not yet flipped.
            queue.clear()
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return SatResult(False, None, METHOD_DPLL)
            mark, j, _ = decisions.pop()
            cleared = 0
            for k in trail[mark:]:
                cleared |= 1 << k
            del trail[mark:]
            true &= ~cleared
            false &= ~cleared
            free |= cleared
            value = False
        elif free:
            # Branch on the lowest unassigned symbol, true first.
            mark, j = len(trail), (free & -free).bit_length() - 1
            value = True
        else:
            return SatResult(True, _witness(true, symbols), METHOD_DPLL)
        decisions.append((mark, j, not value))  # true is tried first
        bit = 1 << j
        if value:
            true |= bit
        else:
            false |= bit
        free ^= bit
        trail.append(j)
        queue.extend(recheck[value][j])


def is_satisfiable(clause_set: ClauseSet) -> SatResult:
    """Decide satisfiability: by truth table up to TRUTH_TABLE_MAX_VARS
    symbols, where it is the faster search, and by DPLL above."""
    if clause_set.signature.size <= TRUTH_TABLE_MAX_VARS:
        return _truth_table(clause_set)
    return _dpll(clause_set)


def check_mus(clause_set: ClauseSet) -> MusReport:
    """Full deletion-based minimality check: the set must be unsatisfiable
    and each single-clause deletion satisfiable.

    The set is refuted by unit propagation or decided by a search. When
    it is unsatisfiable, every model of deletion i falsifies clause i, so
    "clause i false, every other symbol true" is that deletion's
    lexicographically first model whenever it is a model at all. That
    candidate is accepted if it satisfies every other clause; the rest,
    and every deletion of a satisfiable set, take one search each.
    """
    if _propagation_refutes(clause_set.masks()):
        is_unsat, method = True, METHOD_CERTIFICATE
    else:
        overall = is_satisfiable(clause_set)
        is_unsat, method = not overall.satisfiable, overall.method
    models = _checked_models(clause_set) if is_unsat else [None] * len(clause_set.clauses)
    # An accepted model stays a mask until ``deletion_results`` is read.
    deletions = tuple([
        is_satisfiable(clause_set.without(i)) if model is None else model
        for i, model in enumerate(models)
    ])
    is_mus = is_unsat and all(d.__class__ is int or d.satisfiable for d in deletions)
    return MusReport._pending(is_unsat, deletions, is_mus, method, clause_set.signature.symbols)


# Candidates per kernel call, so the kernel holds n x 1024 bits however
# many clauses the set has.
_BLOCK = 1024


def _checked_models(clause_set: ClauseSet) -> list[Optional[int]]:
    """Per deletion i, its candidate ``everything ^ positive_i`` (bit j set:
    symbol j true) if that satisfies every other clause, and None
    otherwise. The truth-table kernel evaluates a block of candidates at
    once, candidate i at bit i of its block."""
    masks = clause_set.masks()
    ints = clause_set.int_clauses()
    n = clause_set.signature.size
    everything = (1 << n) - 1
    models: list[Optional[int]] = []
    for start in range(0, len(masks), _BLOCK):
        block = masks[start : start + _BLOCK]
        width = len(block)
        columns = _candidate_columns(block, n)
        # Candidate i is rejected when a clause other than clause i violates it.
        rejected = 0
        for k, violated in enumerate(_violations(ints, columns, (1 << width) - 1), -start):
            if 0 <= k < width:
                violated &= ~(1 << k)
            rejected |= violated
        models += [
            None if rejected >> i & 1 else everything ^ positive
            for i, (positive, _) in enumerate(block)
        ]
    return models


@lru_cache(maxsize=16)
def _candidate_columns(masks: tuple[tuple[int, int], ...], n: int) -> tuple[int, ...]:
    """Per symbol j, the candidates that make it true: candidate i at bit i.
    Candidate i is every symbol but clause i's positive ones, so column j
    holds every candidate but those whose clause holds j unnegated. A pure
    function of the masks, so the chains over n symbols share one."""
    columns = [(1 << len(masks)) - 1] * n
    for i, (positive, _) in enumerate(masks):
        while positive:
            low = positive & -positive
            columns[low.bit_length() - 1] ^= 1 << i
            positive ^= low
    return tuple(columns)


def _propagation_refutes(masks: Sequence[tuple[int, int]]) -> bool:
    """True when unit propagation alone, over the clause masks, falsifies a
    clause. Passes run in clause order until one assigns nothing, so a chain
    in its own order takes one. A clause is a unit only when exactly one
    literal is open across both polarities, so ``x | ~x`` never is."""
    true = false = 0
    free = -1  # unassigned symbols; in an unsatisfied clause only these are open
    assigned = True
    while assigned:
        assigned = False
        for positive, negative in masks:
            if positive & true or negative & false:
                continue  # satisfied
            open_ = (positive | negative) & free
            if not open_:
                return True
            if not (open_ & (open_ - 1) or positive & negative & open_):
                if positive & open_:
                    true |= open_
                else:
                    false |= open_
                free ^= open_
                assigned = True
    return False


def check_theorem(theorem: Theorem) -> Theorem:
    """Certify one entailment; returns a copy with ``certified`` set from
    the verdict of ``certification_failures``. Failure is reported in the
    certification state, never raised."""
    state = CERT_FAILED if certification_failures((theorem,))[0] else CERT_VERIFIED
    return Theorem(theorem.source, theorem.removed_index, theorem.conclusion, state)


def certification_failures(theorems: Sequence[Theorem]) -> list[Optional[str]]:
    """Per theorem, None when it certifies, else one line naming the first
    condition that fails; the first theorem's source decides prefix reuse."""
    failures: list[Optional[str]] = []
    reuse = bool(theorems) and theorems[0].source.n >= _PREFIX_MIN_VARS
    source = prefix = None  # the source read last; its last walk's all-but-last literals
    for theorem in theorems:
        if theorem.source is not source:
            source, before = theorem.source, (0, 0, 0)  # the length of prefix and its masks
            masks, index, n = source.clause_set.masks(), source.signature.index, source.n
        i, conclusion, failure = theorem.removed_index, theorem.conclusion, None
        if not 1 <= i <= n + 1:
            failure = f"removed index {i} out of range 1..{n + 1}"
        elif n + 1 > len(masks):
            failure = (f"removed index {i} out of range: the source has {len(masks)} clauses, "
                       f"not {n + 1}")
        elif not source.mus.is_unsatisfiable:
            failure = "source not unsatisfiable"
        elif not ((d := source.mus._deletions[i - 1]).__class__ is int or d.satisfiable):
            failure = f"deletion {i} not satisfiable"
        else:
            k, positive, negative = before
            if k and not (k < len(conclusion) and conclusion[:k] == prefix):
                k = positive = negative = 0
            for literal in conclusion[k:] if k else conclusion:
                prior_positive, prior_negative = positive, negative
                j = index.get(literal.symbol)
                if j is None:  # a symbol outside the signature is in no clause
                    failure = f"conclusion symbol {literal.symbol!r} outside the signature"
                    break
                if literal.negated:
                    negative |= 1 << j
                else:
                    positive |= 1 << j
            else:
                if (negative, positive) != masks[i - 1]:
                    failure = f"conclusion not the negated clause {i}"
                if reuse and conclusion:
                    prefix = conclusion[:-1]
                    before = len(prefix), prior_positive, prior_negative
        failures.append(failure)
    return failures


def replay_trace(proof: ProofTrace, clause_set: ClauseSet) -> ReplayResult:
    """Check every step of ``proof`` against the source clauses by one rule.

    A step assumes the literals of the proof's first ``units`` steps, which
    are established only while each of those is a valid one-literal step.
    It sets its own literals false; each hint in turn must then be unit,
    and its open literal is set true, or falsified, a conflict, which must
    come at the last hint. The step is invalid when it assumes units not
    established, or a hint is satisfied, has two open literals, or cites no
    clause or an earlier valid step, or when no conflict comes. A valid
    step rests on the clauses its assumed units and its hints rest on.
    """
    clauses = clause_set.masks()
    m = len(clauses)
    # Per clause, then per step checked: its literal masks and the mask of
    # the clauses it rests on, or in ``rests`` the reason it is invalid.
    positives = [p for p, _ in clauses]
    negatives = [q for _, q in clauses]
    rests = [1 << r for r in range(m)]
    # Per established prefix of k steps: its literals, true and false, and
    # the clauses they rest on.
    units: tuple[list[int], list[int], list[int]] = ([0], [0], [0])
    for s, step in enumerate(proof.steps):
        positive, negative = step.positive, step.negative
        verdict = _verdict(step, positives, negatives, rests, units, m + len(proof.steps))
        positives.append(positive)
        negatives.append(negative)
        rests.append(verdict)
        if (verdict.__class__ is int and len(units[0]) == s + 1
                and positive.bit_count() + negative.bit_count() == 1):
            for known, mask in zip(units, (positive, negative, verdict)):
                known.append(known[s] | mask)
    verdicts = tuple(rests[m:])
    failed = next((s for s, v in enumerate(verdicts) if v.__class__ is str), None)
    reason = None if failed is None else verdicts[failed]
    return ReplayResult(failed is None, failed, reason, verdicts, tuple(map(tuple, units)))


def _verdict(step, positives, negatives, rests, units, bound):
    """The clauses ``step`` rests on as a mask, or the reason it is invalid.
    The lists hold the clauses and the steps before it, as ``replay_trace``
    keeps them; hints from their length up to ``bound`` cite later steps."""
    k = step.units
    if not 0 <= k < len(units[0]):
        return f"assumes {k} units, not established"
    true = units[0][k] | step.negative
    false = units[1][k] | step.positive
    rested = units[2][k]
    last = len(step.hints) - 1
    for h, r in enumerate(step.hints):
        if not 0 <= r < len(rests):
            return f"hint {r} cites a later step" if 0 <= r < bound else f"hint {r} cites nothing"
        if rests[r].__class__ is str:
            return f"hint {r} cites an invalid step"
        positive, negative = positives[r], negatives[r]
        if positive & true or negative & false:
            return f"hint {r} is satisfied"
        rested |= rests[r]
        open_ = (positive | negative) & ~(true | false)
        if not open_:
            return rested if h == last else f"hint {r} conflicts before the last hint"
        if open_ & (open_ - 1) or positive & negative & open_:
            return f"hint {r} has two open literals"
        if positive & open_:
            true |= open_
        else:
            false |= open_
    return "no conflict"


def replay_theorems(theorems: Sequence[Theorem]) -> dict[int, tuple[Optional[int], str]]:
    """Replay each theorem's proof; the failures, by position in
    ``theorems``, as (step, reason), with step None when no step is at
    fault.

    ``replay_trace`` checks each distinct source's ``proof`` once against
    its clauses. Theorem i is then accepted when its target step is a
    valid one-literal step, its assumed units plus its literal are clause
    i's masks swapped (the negated removed clause), and the clauses it
    rests on leave clause i out: so the remainder entails every literal of
    the conclusion.
    """
    replays: dict[int, tuple[ProofTrace, tuple, ReplayResult]] = {}
    failures: dict[int, tuple[Optional[int], str]] = {}
    for position, theorem in enumerate(theorems):
        source, i = theorem.source, theorem.removed_index
        if id(source) not in replays:
            proof, masks = source.proof, source.clause_set.masks()
            replays[id(source)] = proof, masks, replay_trace(proof, source.clause_set)
        proof, masks, result = replays[id(source)]
        if not 1 <= i <= min(len(proof.targets), len(masks)):
            failures[position] = None, f"removed index {i} has no target"
        elif not 0 <= (target := proof.targets[i - 1]) < len(proof.steps):
            failures[position] = None, f"target {target} is no step"
        elif (verdict := result.verdicts[target]).__class__ is str:
            failures[position] = target, verdict
        else:
            step = proof.steps[target]
            true, false = result.units[0][step.units], result.units[1][step.units]
            if step.positive.bit_count() + step.negative.bit_count() != 1:
                failures[position] = target, "target has more than one literal"
            elif (false | step.negative, true | step.positive) != masks[i - 1]:
                failures[position] = target, f"target does not conclude the negated clause {i}"
            elif verdict >> (i - 1) & 1:
                failures[position] = target, f"target rests on clause {i}"
    return failures
