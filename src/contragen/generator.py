"""Triangular contradiction construction, theorem derivation, the proof.

Over distinct non-complementary literals x1..xn the generator emits the
clause chain

    C1     = x1
    Ct     = xt | ~x1 | ... | ~x(t-1)        for t = 2..n
    C(n+1) = ~x1 | ~x2 | ... | ~xn

known as a full triangular standard contradiction (FTSC). The first n
clauses force every xt true by unit propagation and the final clause
rejects exactly that model, so the conjunction is unsatisfiable, and
removing any single clause leaves a satisfiable remainder. For each
clause C the remainder entails ~C, and because the dependency chain is
fixed by construction one proof serves all n+1 theorems and can be
written down directly, with no search. Its 3n-1 steps are lemmas, each
a reverse-unit-propagation step (Goldberg & Novikov 2003) citing at most
two clauses or earlier lemmas, as LRAT hints do:

  * units: xt from Ct, assuming x1..x(t-1), for t = 1..n;
  * backward lemmas: Ek = ~x1 | ... | ~xk from C(k+1) and E(k+1),
    assuming nothing, for k = n-1 down to 1 (En is C(n+1));
  * theorem lemmas: ~xi from Ei, assuming x1..x(i-1), for i = 1..n.

Theorem i <= n is its theorem lemma under the units it assumes, and
theorem n+1 is the unit xn under x1..x(n-1); neither rests on clause i,
as the verifier's ``replay_theorems`` checks.

The verifier's ``check_mus`` derives each deletion's model from the
clauses alone; ``Ftsc.mus`` holds that check, made once per construction.

Over its own order the chain's integer encoding and its proof depend on
n alone, so ``build_ftsc`` takes the clauses' integers and bitmasks, and
``Ftsc.proof`` its steps' masks, from one closed form per n instead of
encoding literal by literal. It builds the n positive and n negative
literals once, and the clauses and the conclusions (``Ftsc.literals``)
share them; a step's literals are built only to print it.

Everything here is deterministic. ``enumerate_ftscs`` streams one
construction per permutation of the literals, in lexicographic order,
guarded by a cap because the permutation space grows factorially. The
whole stream shares one set of 2n literals, permuted with the symbols.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, Optional

from .core import (
    Clause,
    ClauseSet,
    EmptyInputError,
    Literal,
    Record,
    Signature,
)

if TYPE_CHECKING:
    from .verifier import MusReport

# Certification states of a theorem.
CERT_UNCHECKED = "unchecked"
CERT_VERIFIED = "verified"
CERT_FAILED = "failed"

#: Permutation counts above this refuse to enumerate unless overridden.
DEFAULT_ENUMERATION_CAP = 10


class EnumerationCapExceededError(ValueError):
    """Enumeration refused: the permutation space is larger than the cap allows."""


class TraceStep(Record):
    """One lemma: the clause with literal masks ``positive`` and ``negative``
    (bit j: symbol j, as ``ClauseSet.masks``) follows by unit propagation
    from the literals of the proof's first ``units`` steps and the cited
    ``hints``, in order. Over m source clauses, hint r < m cites clause r
    (0-based) and hint r >= m cites step r - m, which must come earlier.
    """

    __slots__ = _fields = ("positive", "negative", "hints", "units")


class ProofTrace(Record):
    """A construction's one proof: its lemma ``steps``, and per theorem
    (1-based removed index i) the step ``targets[i - 1]`` that concludes it."""

    __slots__ = _fields = ("steps", "targets")


class Ftsc(Record):
    """A triangular contradiction: n+1 clauses over an n-literal ordering.

    ``permutation`` records the literal order the chain was built over
    (identical to the clause set's signature order). Clause t has exactly
    t literals for t <= n and the final clause has n, so the total literal
    count is n(n+3)/2.
    """

    _fields = ("clause_set", "permutation", "n")
    __slots__ = _fields + ("__dict__",)  # the cached properties' values

    @property
    def signature(self) -> Signature:
        return self.clause_set.signature

    @cached_property
    def literals(self) -> tuple[tuple[Literal, ...], tuple[Literal, ...]]:
        """(x1..xn, ~x1..~xn) over ``permutation``: every conclusion of this
        construction shares these values. ``build_ftsc`` stores the very
        literals of its clauses here."""
        return (
            tuple(Literal(s, False) for s in self.permutation),
            tuple(Literal(s, True) for s in self.permutation),
        )

    @cached_property
    def proof(self) -> ProofTrace:
        """The chain's proof over its own order, the one closed form for n.
        The verifier checks it against ``clause_set``, so a construction
        whose clauses are not that chain fails where they differ."""
        return _chain_proof(self.n)

    @cached_property
    def mus(self) -> MusReport:
        """This construction's deletion-based minimality check, decided once:
        ``check_mus`` over the clause set. Every theorem of the construction
        is certified from it."""
        from .verifier import check_mus  # the verifier imports this module

        return check_mus(self.clause_set)


class Theorem(Record):
    """One canonical entailment: remainder(source, removed_index) entails
    the conjunction of ``conclusion``.

    ``conclusion`` lists the negations of the removed clause's literals,
    in the clause's canonical order. ``certified`` stays "unchecked" until
    the verifier confirms or refutes the entailment. Its proof is the
    source's ``proof`` from step ``source.proof.targets[removed_index - 1]``.
    """

    __slots__ = _fields = ("source", "removed_index", "conclusion", "certified")
    _defaults = {"certified": CERT_UNCHECKED}


@lru_cache(maxsize=8)
def _chain_code(n: int):
    """(integer clauses, clause masks) of the chain over its own order of
    n symbols, as ``ClauseSet`` encodes them: clause t has the integers
    -1..-(t-1), t and the masks (2^(t-1), 2^(t-1) - 1), and C(n+1) has
    -1..-n and (0, 2^n - 1)."""
    negatives = tuple(range(-1, -n - 1, -1))
    ints = tuple(negatives[:t] + (t + 1,) for t in range(n)) + (negatives,)
    masks = tuple((1 << t, (1 << t) - 1) for t in range(n)) + ((0, (1 << n) - 1),)
    return ints, masks


@lru_cache(maxsize=8)
def _chain_proof(n: int) -> ProofTrace:
    """The chain's 3n-1 steps over its own order of n symbols, as the module
    docstring lays them out: units x1..xn at steps 0..n-1, then E(n-1)..E1,
    then the theorem lemmas ~x1..~xn. Hint ``lemma(k)`` cites Ek."""

    def lemma(k: int) -> int:  # C(n+1) for k = n, else step 2n-1-k, after the n+1 clauses
        return n if k == n else 3 * n - k

    units = [TraceStep(1 << t, 0, (t,), t) for t in range(n)]
    backward = [TraceStep(0, (1 << k) - 1, (k, lemma(k + 1)), 0) for k in range(n - 1, 0, -1)]
    theorems = [TraceStep(0, 1 << i, (lemma(i + 1),), i) for i in range(n)]
    return ProofTrace(tuple(units + backward + theorems), (*range(2 * n - 1, 3 * n - 1), n - 1))


def build_ftsc(signature: Signature) -> Ftsc:
    """Instantiate the triangular schema over the signature's symbol order.

    Deterministic: the same signature always yields the identical value.
    Emits clauses already in canonical literal order, encoded by the
    closed form for n.
    """
    n = signature.size
    if n == 0:
        raise EmptyInputError("cannot build over an empty signature")
    syms = signature.symbols
    return _assemble(
        signature, tuple(Literal(s, False) for s in syms), tuple(Literal(s, True) for s in syms)
    )


def _assemble(
    signature: Signature, positives: tuple[Literal, ...], negatives: tuple[Literal, ...]
) -> Ftsc:
    """The chain over the signature's order, from its literals x1..xn and
    ~x1..~xn already built. Each literal is shared: clause t is
    ~x1..~x(t-1), xt."""
    n = len(positives)
    clauses = tuple(Clause(negatives[:t] + (x,)) for t, x in enumerate(positives))
    ints, masks = _chain_code(n)
    clause_set = ClauseSet._trusted(clauses + (Clause(negatives),), signature, ints, masks)
    ftsc = Ftsc(clause_set, signature.symbols, n)
    ftsc.__dict__["literals"] = (positives, negatives)  # the clauses' own, as the cached value
    return ftsc


def conclusion_for(ftsc: Ftsc, removed_index: int) -> tuple[Literal, ...]:
    """The conjunct list of the negated removed clause: x1..x(i-1), ~xi
    when clause i <= n is removed, and x1..xn when clause n+1 is."""
    if not 1 <= removed_index <= ftsc.n + 1:
        raise IndexError(f"clause index out of range: {removed_index}")
    positives, negatives = ftsc.literals
    if removed_index > ftsc.n:
        return positives
    return positives[: removed_index - 1] + (negatives[removed_index - 1],)


def step_clause(ftsc: Ftsc, step: TraceStep) -> Clause:
    """The clause a step of ``ftsc.proof`` concludes, over the construction's
    own literals in canonical order; built only to print the step."""
    positives, negatives = ftsc.literals
    return Clause(tuple(
        literal
        for j in range(ftsc.n)
        for literal, mask in ((positives[j], step.positive), (negatives[j], step.negative))
        if mask >> j & 1
    ))


def proof_steps(theorem: Theorem) -> list[int]:
    """The steps of the chain's proof that the theorem rests on, in order:
    the units it assumes, E(n-1)..Ei and its theorem lemma, or for theorem
    n+1 the n units."""
    n, i = theorem.source.n, theorem.removed_index
    if i > n:
        return list(range(n))
    return [*range(i - 1), *range(n, 2 * n - i), 2 * n - 2 + i]


def derive_theorems(ftsc: Ftsc) -> list[Theorem]:
    """All n+1 canonical entailments of one construction, uncertified."""
    return [Theorem(ftsc, i, conclusion_for(ftsc, i)) for i in range(1, ftsc.n + 2)]


def enumerate_ftscs(
    signature: Signature,
    *,
    cap: Optional[int] = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Ftsc]:
    """Stream one construction per permutation, in lexicographic order.

    Yields exactly n! values, pairwise distinct as clause sets, each equal
    to ``build_ftsc`` over its order and sharing the signature's literals.
    Lazy: sets are built one at a time, never materialized in bulk. Raises
    EnumerationCapExceededError up front when n exceeds ``cap``; pass
    ``cap=None`` (or a larger cap) to override deliberately.
    """
    n = signature.size
    if cap is not None and n > cap:
        raise EnumerationCapExceededError(
            f"{n} literals mean {n}! permutations; raise the cap or pass cap=None"
        )

    def generate() -> Iterator[Ftsc]:
        if n == 0:
            raise EmptyInputError("cannot build over an empty signature")
        symbols = signature.symbols
        positives = [Literal(s, False) for s in symbols]
        negatives = [Literal(s, True) for s in symbols]
        for order in itertools.permutations(zip(symbols, positives, negatives)):
            permuted, xs, not_xs = zip(*order)
            yield _assemble(Signature(permuted), xs, not_xs)

    return generate()


def recover_permutation(clause_set: ClauseSet) -> Optional[tuple[str, ...]]:
    """The literal order a triangular chain was built over, read back from
    its clause contents alone: the one positive literal of the clause with
    t literals is xt. None if the contents do not pin down such an order.

    The result depends only on ``clause_set.as_sets()``, so two sets that
    recover different orders are different sets: a clause's masks hold
    one bit per distinct literal, so t is their popcount.
    """
    symbols = clause_set.signature.symbols
    n = len(symbols)
    order: list[Optional[str]] = [None] * n
    for positive, negative in clause_set.masks():
        if not positive or positive & (positive - 1):
            continue
        symbol = symbols[positive.bit_length() - 1]
        t = 1 + negative.bit_count()
        if t > n or order[t - 1] not in (None, symbol):
            return None
        order[t - 1] = symbol
    if None in order:
        return None
    return tuple(order)  # type: ignore[arg-type]


def permutation_by_rank(signature: Signature, rank: int) -> Signature:
    """The rank-th signature permutation in lexicographic order (0-based)."""
    n = signature.size
    total = math.factorial(n)
    if not 0 <= rank < total:
        raise IndexError(f"permutation rank out of range: {rank} (n!={total})")
    available = list(signature.symbols)
    order = []
    remainder = rank
    for k in range(n, 0, -1):
        step = math.factorial(k - 1)
        idx, remainder = divmod(remainder, step)
        order.append(available.pop(idx))
    return Signature(tuple(order))


def closure_counts(n: int) -> tuple[int, int]:
    """(number of permutation clause sets, total entailments across them).

    The construction family is counted two ways: one clause set per
    permutation (n! of them) and n+1 entailments per clause set. Both
    figures are reported wherever closure size matters; neither is treated
    as the single canonical count.
    """
    f = math.factorial(n)
    return f, f * (n + 1)


def total_literals(n: int) -> int:
    """Closed form for the literal count of one construction: n(n+3)/2."""
    return n * (n + 3) // 2


def trace_length(n: int, removed_index: int) -> int:
    """A report's ``trace_steps``, the v1 count: the steps of the theorem's
    natural-deduction trace, n+2 when a clause 1..n is removed (units,
    assumption, propagations, empty clause, discharge) and the n units when
    clause n+1 is. Schema v1 keeps it so reports stay byte-identical."""
    return n if removed_index == n + 1 else n + 2
