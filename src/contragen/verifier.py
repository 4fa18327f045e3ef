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
negated clause". ``certification_failure`` gives the verdict: None, or
one line naming the condition that failed; ``check_theorem`` wraps it in
a certified copy. Each construction holds its one check (``Ftsc.mus``), so
a construction is decided once however its theorems are ordered, and
``check_mus`` keeps no state between calls. The conclusion
is compared by masks: its (positive, negative) bitmask pair over the
signature must be the removed clause's pair swapped. Trace replay runs on
the premises' clause bitmasks, with the known literals held as two masks,
true and false. One function, ``_step``, decides whether a step is valid:
``replay_trace`` is a loop over it, and ``replay_theorems`` runs each
construction's shared steps through it once, then only each trace's
assumption and discharge.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from .core import ClauseSet, Literal, Record, _setattr
from .generator import (
    CERT_FAILED,
    CERT_VERIFIED,
    STEP_ASSUME,
    STEP_DISCHARGE,
    STEP_EMPTY,
    STEP_PROPAGATE,
    STEP_UNIT,
    ProofTrace,
    Theorem,
)

# The largest signature at which the truth table's minimality check still
# beat DPLL's, on random 3-SAT at 4.26 clauses per symbol and on the chain.
TRUTH_TABLE_MAX_VARS = 13

METHOD_TRUTH_TABLE = "truth-table"
METHOD_DPLL = "dpll"
#: The method of a result read from a checked certificate instead of a search.
METHOD_CERTIFICATE = "certificate"


class SatResult(Record):
    __slots__ = _fields = ("satisfiable", "witness", "method")

    @property
    def status(self) -> str:
        return "satisfiable" if self.satisfiable else "unsatisfiable"


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
            _certified_result(d, symbols) if d.__class__ is int else d for d in self._deletions
        ])
        _setattr(self, "deletion_results", results)
        return results

    @property
    def searches(self) -> int:
        """How many decisions, of the set and of each deletion, were searched."""
        searched = [d.method for d in self._deletions if d.__class__ is not int]
        return sum(m != METHOD_CERTIFICATE for m in [self.method, *searched])


class ReplayResult(Record):
    """Outcome of replaying a proof trace; truthy iff every step was valid.

    ``established`` collects the literals the trace legitimately proved
    (units plus discharged conclusions). On failure, ``failed_step`` is the
    0-based index of the first invalid step and ``reason`` says why.
    """

    # ``units``: the established literals as (true, false) masks; bit j names symbols[j].
    _fields = ("ok", "failed_step", "reason", "units", "symbols")
    __slots__ = _fields + ("__dict__",)  # the cached established literals

    def __repr__(self) -> str:
        return self._repr(self._fields[:3])  # the masks and symbols stay out

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def established(self) -> frozenset[Literal]:
        return frozenset(
            Literal(self.symbols[j], negated)
            for negated, mask in zip((False, True), self.units)
            for j, bit in enumerate(reversed(format(mask, "b"))) if bit == "1"
        )


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
    for ints in int_clauses:
        block = full
        for lit in ints:
            block &= false_at[lit]
        yield block


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
    witness = {
        clause_set.signature.symbols[j]: bool(chosen >> j & 1) for j in range(n)
    }
    return SatResult(True, witness, METHOD_TRUTH_TABLE)


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
            model = reversed(format(true, f"0{n}b"))
            witness = {s: b == "1" for s, b in zip(symbols, model)}
            return SatResult(True, witness, METHOD_DPLL)
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


def _certified_result(model: int, symbols: tuple[str, ...]) -> SatResult:
    """The result of an accepted certificate: bit j of ``model`` is the
    value of ``symbols[j]``."""
    witness = dict.fromkeys(symbols, True)
    zeros = ((1 << len(symbols)) - 1) ^ model
    while zeros:
        low = zeros & -zeros
        witness[symbols[low.bit_length() - 1]] = False
        zeros ^= low
    return SatResult(True, witness, METHOD_CERTIFICATE)


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
    ``certification_failure``'s verdict. Failure is reported in the
    certification state, never raised."""
    state = CERT_FAILED if certification_failure(theorem) else CERT_VERIFIED
    return Theorem(theorem.source, theorem.removed_index, theorem.conclusion, state)


def certification_failure(theorem: Theorem) -> Optional[str]:
    """None when the theorem certifies, else one line naming the first
    condition that fails.

    Certification is the source's minimality check at the removed index
    plus a comparison: the full set is unsatisfiable, the remainder is
    satisfiable, and the stored conclusion is exactly the literal-wise
    negation of the removed clause. Entailment needs no solve of its own:
    the remainder entails every conclusion literal exactly when adding
    the removed clause back, the source, is unsatisfiable. The check is
    the source's ``mus``, decided once per construction. The conclusion
    is compared as a set, by masks.
    """
    source = theorem.source
    clause_set = source.clause_set
    masks = clause_set.masks()
    i, n = theorem.removed_index, source.n
    if not 1 <= i <= n + 1:
        return f"removed index {i} out of range 1..{n + 1}"
    if n + 1 > len(masks):
        return f"removed index {i} out of range: the source has {len(masks)} clauses, not {n + 1}"
    mus = source.mus
    if not mus.is_unsatisfiable:
        return "source not unsatisfiable"
    deletion = mus._deletions[i - 1]
    if not (deletion.__class__ is int or deletion.satisfiable):
        return f"deletion {i} not satisfiable"
    index = clause_set.signature.index
    positive = negative = 0  # the conclusion's masks
    for literal in theorem.conclusion:
        j = index.get(literal.symbol)
        if j is None:  # a symbol outside the signature is in no clause
            return f"conclusion symbol {literal.symbol!r} outside the signature"
        if literal.negated:
            negative |= 1 << j
        else:
            positive |= 1 << j
    if (negative, positive) != masks[i - 1]:
        return f"conclusion not the negated clause {i}"
    return None


def replay_trace(trace: ProofTrace, premises: ClauseSet) -> ReplayResult:
    """Re-run a proof trace step by step against the given premise clauses.

    Local validity per step kind: a unit derivation cites a premise clause
    whose other literals are all falsified by earlier units; an assumption
    opens a scope (one at a time, units are not allowed inside it); a
    propagation is a unit derivation that may additionally use the
    assumption and earlier propagations; the empty-clause step cites a
    premise falsified outright; a discharge requires a reached
    contradiction and concludes the assumption's negation. Assumptions and
    discharges cite no clause, and the empty-clause step carries no literal.
    A valid trace must be nonempty and must leave no assumption open.

    Each step is checked by ``_step``, the one definition of a valid step,
    which ``replay_theorems`` shares; this function is the loop over it.
    """
    clauses, index = premises.masks(), premises.signature.index
    extra: dict[str, int] = {}
    state, failed = _START, None
    reason = None if trace.steps else "empty trace"
    for failed, step in enumerate(trace.steps):
        after = _step(state, step, clauses, index, extra)
        if after.__class__ is str:
            reason = after
            break
        state = after
    if reason is None and state[2]:
        reason = "assumption left undischarged"
    ok = reason is None
    symbols = premises.signature.symbols + tuple(extra)
    return ReplayResult(ok, None if ok else failed, reason, state[:2], symbols)


# A replay state: (units true, units false, assumption, known true, known
# false, contradicted), from nothing known. The masks hold bit j for symbol
# j; the assumption is its literal's bit, negative when negated, and 0
# outside a scope. Outside a scope the known literals are exactly the units.
_START = (0, 0, 0, 0, 0, False)


def _step(state, step, clauses, index, extra):
    """The state after ``step``, or the reason it is invalid.

    ``clauses`` are the premises' (positive, negative) masks, and ``index``
    the signature's; the step cites a clause by position. A cited clause
    with the derived literal taken out is unit exactly when its positive
    mask lies inside the known-false one and its negative mask inside the
    known-true one. A literal over a symbol outside ``index`` gets a fresh
    high bit from ``extra``, one table per replayed sequence, so it can
    never match a premise literal.
    """
    units_true, units_false, assumed, true, false, contradicted = state
    kind, literal, p = step.kind, step.literal, step.premise_index
    cited: Optional[tuple[int, int]] = None
    if p is not None:
        if not 0 <= p < len(clauses):
            return f"premise index out of range: {p}"
        if kind == STEP_ASSUME or kind == STEP_DISCHARGE:
            return f"{kind} step cites a premise"
        cited = clauses[p]
    bit, negated = 0, False  # bit 0: no literal
    if literal is not None:
        j = index.get(literal.symbol)
        if j is None:
            j = extra.setdefault(literal.symbol, len(index) + len(extra))
        bit, negated = 1 << j, literal.negated

    if kind == STEP_UNIT or kind == STEP_PROPAGATE:
        unit = kind == STEP_UNIT
        if unit and assumed:
            return "unit derivation inside an assumption scope"
        if not unit and not assumed:
            return "propagation outside an assumption scope"
        if not bit or cited is None:
            return f"{'unit derivation' if unit else 'propagation'} needs a literal and a premise"
        positive, negative = cited
        if not (negative if negated else positive) & bit:
            return "derived literal does not occur in the cited clause"
        if negated:
            negative ^= bit
        else:
            positive ^= bit
        if positive & ~false or negative & ~true:
            return "cited clause is not unit under established literals"
        if negated:
            false |= bit
        else:
            true |= bit
        if unit:
            return (true, false, 0, true, false, False)
        return (units_true, units_false, assumed, true, false, contradicted)
    if kind == STEP_ASSUME:
        if assumed:
            return "nested assumption"
        if not bit:
            return "assumption needs a literal"
        if negated:
            return (units_true, units_false, -bit, true, false | bit, False)
        return (units_true, units_false, bit, true | bit, false, False)
    if kind == STEP_EMPTY:
        if not assumed:
            return "empty-clause step outside an assumption scope"
        if cited is None:
            return "empty-clause step needs a premise"
        if bit:
            return "empty-clause step carries a literal"
        if cited[0] & ~false or cited[1] & ~true:
            return "cited clause is not fully falsified"
        return (units_true, units_false, assumed, true, false, True)
    if kind == STEP_DISCHARGE:
        if not assumed or not contradicted:
            return "discharge without a refuted assumption"
        if (-bit if negated else bit) != -assumed:
            return "discharged literal must negate the assumption"
        if negated:
            units_false |= bit
        else:
            units_true |= bit
        return (units_true, units_false, 0, units_true, units_false, False)
    return f"unknown step kind: {kind!r}"


def replay_theorems(theorems: Sequence[Theorem]) -> dict[int, ReplayResult]:
    """Replay each theorem's trace against its remainder, with
    ``replay_trace``'s verdicts; the failed results, by position in
    ``theorems``. The construction is the first theorem's source.

    Its traces are slices of the shared steps (``Ftsc.trace_steps``), so
    ``_step`` runs those once, on the source's clause masks: the units from
    the empty state, and the propagations then the empty-clause step (the
    chain) from x1 assumed. A run stops at its first step that fails or
    does not cite its own position t, which every remainder that uses the
    step maps to one clause. Trace n+1 is accepted when it is the units and
    they all replay. Trace i <= n is accepted when it is ``units[:i-1]``,
    an assumption, ``chain[i-1:]`` and a discharge; the chain's n steps all
    replay; and ``_step`` takes the assumption from the units' state there
    to the chain's known literals at i-1, and the discharge from where the
    chain ends. A step's result depends only on the state, the step and
    the cited clause, so these are ``replay_trace``'s verdicts. Every other
    trace is replayed by ``replay_trace``, which also says why it fails.
    """
    ftsc = theorems[0].source
    masks, index, n = ftsc.clause_set.masks(), ftsc.signature.index, ftsc.n
    units, propagations, empty = ftsc.trace_steps
    chain = propagations + (empty,)
    runs = []
    for steps, state, clauses in (
        (units, _START, masks[:-1]),
        (chain, (0, 0, 1, 1, 0, False), masks[1:]),  # from x1 assumed
    ):
        states, extra = [state], {}
        for t, step in enumerate(steps):
            state = _step(state, step, clauses, index, extra) if step.premise_index == t else ""
            if state.__class__ is str:
                break
            states.append(state)
        runs.append(states)
    unit_states, chain_states = runs
    complete = len(chain_states) > len(chain) == n  # n steps, each replays
    end = chain_states[-1][3:]  # the known literals where the chain ends
    failures: dict[int, ReplayResult] = {}
    for position, theorem in enumerate(theorems):
        i, steps = theorem.removed_index, theorem.trace.steps
        own, accepted = theorem.source is ftsc, False
        if own and i == n + 1:
            accepted = 0 < len(steps) < len(unit_states) and steps == units
        elif (own and complete and 0 < i <= len(unit_states)
                and steps[: i - 1] == units[: i - 1] and steps[i:-1] == chain[i - 1 :]):
            # The assumption and the discharge cite no clause, so they are
            # checked against none; they share the trace's fresh-bit table.
            extra: dict[str, int] = {}
            state = _step(unit_states[i - 1], steps[i - 1], (), index, extra)
            if state.__class__ is not str and state[3:] == chain_states[i - 1][3:]:
                accepted = _step(state[:3] + end, steps[-1], (), index, extra).__class__ is not str
        if not accepted:
            result = replay_trace(theorem.trace, theorem.source.premises_without(i))
            if not result:
                failures[position] = result
    return failures
