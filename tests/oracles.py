"""Independent brute-force oracles used to cross-check the package.

These work on plain data: a clause is a list of (symbol, negated) pairs.
They deliberately share no code with the package's verifier (and only
trivial adapters with core), so a bug there cannot hide here.
"""

from __future__ import annotations

import itertools


def plain_clauses(clause_set):
    """Adapter: package ClauseSet -> list of lists of (symbol, negated)."""
    return [
        [(lit.symbol, lit.negated) for lit in clause.literals]
        for clause in clause_set.clauses
    ]


def brute_force_satisfiable(clauses, symbols):
    """Exhaustive model search. Returns (satisfiable, witness_or_None)."""
    symbols = list(symbols)
    for bits in itertools.product([True, False], repeat=len(symbols)):
        env = dict(zip(symbols, bits))
        if all(any(env[s] != negated for s, negated in cl) for cl in clauses):
            return True, env
    return False, None


def brute_force_entails(clauses, symbols, literal):
    """clauses |= literal, by refutation: no model satisfies clauses + ~literal."""
    symbol, negated = literal
    augmented = list(clauses) + [[(symbol, not negated)]]
    sat, _ = brute_force_satisfiable(augmented, symbols)
    return not sat


def brute_force_is_mus(clauses, symbols):
    sat, _ = brute_force_satisfiable(clauses, symbols)
    if sat:
        return False
    for i in range(len(clauses)):
        reduced = clauses[:i] + clauses[i + 1 :]
        sat, _ = brute_force_satisfiable(reduced, symbols)
        if not sat:
            return False
    return True


def unit_propagation_refutes(clauses, symbols):
    """True when unit propagation alone falsifies a clause. A clause is a
    unit when every literal but one is false and none is true; its open
    literal is then made true. ``x | ~x`` has two open literals, so it is
    never a unit. Runs to a fixpoint; the order clauses are visited in does
    not change whether a conflict is reached."""
    symbols = set(symbols)
    value = {}  # symbol -> truth value, for the symbols propagation has set
    assigned = True
    while assigned:
        assigned = False
        for clause in clauses:
            literals = set(clause)
            assert all(s in symbols for s, _ in literals), "symbol outside the signature"
            if any(value.get(s) == (not negated) for s, negated in literals):
                continue
            open_literals = [(s, negated) for s, negated in literals if s not in value]
            if not open_literals:
                return True
            if len(open_literals) == 1:
                (s, negated), = open_literals
                value[s] = not negated
                assigned = True
    return False
