"""DIMACS CNF and TPTP interchange.

DIMACS emission is deterministic: a comment block maps each variable index
to its symbol (``c var 3 Fever``), then the standard ``p cnf`` header,
then one zero-terminated clause line per clause in canonical literal
order. ``parse_dimacs`` inverts ``emit_dimacs`` exactly on its own output
and is tolerant of extra comments and blank lines elsewhere.

TPTP emission covers two dialects. In cnf mode each dependency clause
becomes a ``cnf(..., axiom, ...)`` formula, and each theorem becomes one
conjecture. A theorem's conclusion is a conjunction of unit literals,
which a single CNF clause cannot express, so conjectures are written as
``fof`` conjunction formulas alongside the cnf axioms (TPTP files may mix
annotated formula languages); provers can then discharge each conjunct.
In fof mode the clauses themselves are emitted as universally quantified
formulas over the scenario's variables, which requires scenario metadata.

Names are normalized to TPTP conventions: predicate and constant tokens
start lowercase, variables start uppercase, and any character outside
[A-Za-z0-9_] becomes an underscore.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .core import (
    Clause,
    ClauseSet,
    Literal,
    Signature,
    ValidationError,
    split_symbol,
    validate_input,
)
from .generator import Ftsc, Theorem


class DimacsParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class HeaderMismatchError(ValueError):
    """Missing or malformed header, or header counts disagree with the body."""


class MissingScenarioMetadataError(ValueError):
    """fof emission needs the scenario's variable declarations."""


def emit_dimacs(clause_set: ClauseSet) -> str:
    """Render a clause set as DIMACS CNF text."""
    sig = clause_set.signature
    lines = []
    for i, symbol in enumerate(sig.symbols, start=1):
        lines.append(f"c var {i} {symbol}")
    lines.append(f"p cnf {sig.size} {len(clause_set.clauses)}")
    for ints in clause_set.int_clauses():
        lines.append(" ".join(str(l) for l in ints) + " 0")
    return "\n".join(lines) + "\n"


_VAR_COMMENT = re.compile(r"^c\s+var\s+(\d+)\s+(\S+)\s*$")
_HEADER = re.compile(r"^p\s+cnf\s+(\d+)\s+(\d+)\s*$")


def parse_dimacs(text: str) -> ClauseSet:
    """Parse DIMACS CNF text back into a clause set.

    Symbol names are recovered from ``c var`` comments when present;
    variables without one get a synthetic ``v<i>`` name. The signature
    holds, in index order, the variables that occur in a clause or are
    named; the header's count is only their upper bound. Raises
    HeaderMismatchError for a missing or malformed header or when the
    declared clause count disagrees with the body, and DimacsParseError
    (with the line number) for unreadable tokens, out-of-range variables,
    a ``c var`` comment whose index is outside 1..count or repeated, whose
    name is repeated, is the ``v<i>`` of an unnamed variable or is not an
    admissible literal symbol, or an unterminated final clause.
    """
    names: dict[int, str] = {}
    # Line of each ``c var`` comment by index and by name. Comments come
    # before the header, so indices are range-checked once it is read.
    index_line: dict[int, int] = {}
    name_line: dict[str, int] = {}
    num_vars: Optional[int] = None
    num_clauses: Optional[int] = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            match = _VAR_COMMENT.match(line)
            if match:
                index, name = int(match.group(1)), match.group(2)
                # A name must be admissible as a literal symbol, or it
                # would read back as another literal (``~a`` as not-a).
                try:
                    validate_input([Literal(name)])
                except ValidationError as exc:
                    raise DimacsParseError(str(exc), lineno) from None
                if index in index_line:
                    raise DimacsParseError(
                        f"variable {index} already named on line {index_line[index]}",
                        lineno,
                    )
                if name in name_line:
                    raise DimacsParseError(
                        f"name {name!r} already given on line {name_line[name]}", lineno
                    )
                names[index] = name
                index_line[index] = lineno
                name_line[name] = lineno
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise HeaderMismatchError(f"line {lineno}: duplicate header")
            match = _HEADER.match(line)
            if not match:
                raise HeaderMismatchError(f"line {lineno}: malformed header: {line!r}")
            num_vars = int(match.group(1))
            num_clauses = int(match.group(2))
            continue
        if num_vars is None:
            raise HeaderMismatchError(
                f"line {lineno}: clause data before the 'p cnf' header"
            )
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise DimacsParseError(f"unreadable token {token!r}", lineno) from None
            if value == 0:
                clauses.append(tuple(current))
                current = []
                continue
            if abs(value) > num_vars:
                raise DimacsParseError(
                    f"variable {abs(value)} exceeds declared count {num_vars}", lineno
                )
            current.append(value)

    if num_vars is None:
        raise HeaderMismatchError("no 'p cnf' header found")
    for index, lineno in index_line.items():
        if not 1 <= index <= num_vars:
            raise DimacsParseError(
                f"c var index {index} outside 1..{num_vars}", lineno
            )
    if current:
        raise DimacsParseError("final clause is not terminated by 0")
    if num_clauses != len(clauses):
        raise HeaderMismatchError(
            f"header declares {num_clauses} clauses, body has {len(clauses)}"
        )

    # Only variables that occur or are named enter the signature: the
    # header's count is an upper bound, never an allocation size.
    used = sorted(set(names).union(abs(v) for ints in clauses for v in ints))
    for i in used:
        if i not in names and f"v{i}" in name_line:
            raise DimacsParseError(
                f"name 'v{i}' is the default name of unnamed variable {i}",
                name_line[f"v{i}"],
            )
    symbols = {i: names.get(i, f"v{i}") for i in used}
    built = [
        Clause(tuple(Literal(symbols[abs(v)], v < 0) for v in ints))
        for ints in clauses
    ]
    return ClauseSet.build(built, Signature(tuple(symbols.values())))


# --- TPTP ---------------------------------------------------------------

_TOKEN_CLEANER = re.compile(r"[^A-Za-z0-9_]")


def _tptp_token(name: str, upper_first: bool) -> str:
    cleaned = _TOKEN_CLEANER.sub("_", name)
    if not cleaned:
        cleaned = "x"
    first = cleaned[0]
    if first.isdigit() or first == "_":
        cleaned = ("X" if upper_first else "x") + cleaned
    elif upper_first:
        cleaned = first.upper() + cleaned[1:]
    else:
        cleaned = first.lower() + cleaned[1:]
    return cleaned


def _tptp_atom(name: str, args: Sequence[tuple[str, bool]]) -> str:
    # ``args`` pairs each argument name with "is a variable" (uppercase).
    functor = _tptp_token(name, upper_first=False)
    if not args:
        return functor
    return f"{functor}({','.join(_tptp_token(a, upper) for a, upper in args)})"


def _check_distinct(tokens: dict[str, str], what: str) -> None:
    """Two names sharing one TPTP token, or one predicate at two arities
    (``p`` beside ``p(a)``), would state a different problem."""
    owners: dict[str, str] = {}
    heads: dict[str, tuple[str, int]] = {}
    for name, token in tokens.items():
        other = owners.setdefault(token, name)
        if other != name:
            raise ValidationError(f"TPTP {what} {other!r} and {name!r} both render as {token!r}")
        head, args = split_symbol(token)
        other, arity = heads.setdefault(head, (name, len(args)))
        if arity != len(args):
            raise ValidationError(f"TPTP predicate {head!r} has arity {arity} in "
                                  f"{other!r} and {len(args)} in {name!r}")


def emit_tptp(
    ftsc: Ftsc,
    theorems: Sequence[Theorem] = (),
    mode: str = "cnf",
    scenario=None,
) -> str:
    """Render a construction and its theorems as TPTP text.

    ``mode`` is "cnf" (the ground clauses) or "fof"
    (universally quantified scenario-level formulas; requires ``scenario``).
    In fof mode ``scenario.atoms_for`` raises ArityMismatchError, naming the
    scenario, when its atoms do not match the construction's signature in
    count or in symbols. Raises ValidationError when two symbols, or two
    variables, would render as one TPTP name, or one TPTP predicate would
    take two arities.
    """
    if mode not in ("cnf", "fof"):
        raise ValueError(f"unknown TPTP mode: {mode!r}")
    lines = [f"% dependency clauses: {ftsc.n + 1}, theorems: {len(theorems)}"]
    # symbol -> (TPTP atom, variables it quantifies over)
    atoms: dict[str, tuple[str, tuple[str, ...]]] = {}
    if mode == "cnf":
        for symbol in ftsc.signature.symbols:
            head, args = split_symbol(symbol)
            atoms[symbol] = (_tptp_atom(head, [(a, False) for a in args]), ())
    else:
        # fof: each clause is rebuilt over the scenario's atom declarations.
        if scenario is None:
            raise MissingScenarioMetadataError("fof mode requires a scenario")
        for symbol, atom in scenario.atoms_for(ftsc.signature).items():
            p = atom.predicate
            args = [(t.name, t.is_variable) for t in p.args]
            atoms[symbol] = (_tptp_atom(p.name, args), p.variables())
        tokens = {v: _tptp_token(v, upper_first=True) for _, vs in atoms.values() for v in vs}
        _check_distinct(tokens, "variables")
    _check_distinct({s: text for s, (text, _) in atoms.items()}, "symbols")

    def render_clause(lits, joiner: str) -> str:
        rendered = []
        variables: list[str] = []
        for lit in lits:
            text, names = atoms[lit.symbol]
            variables += [v for v in names if v not in variables]
            rendered.append(f"~{text}" if lit.negated else text)
        body = f" {joiner} ".join(rendered)
        if variables:
            quant = ",".join(_tptp_token(v, upper_first=True) for v in variables)
            return f"! [{quant}] : ({body})"
        return f"({body})"

    for t, clause in enumerate(ftsc.clause_set.clauses, start=1):
        lines.append(f"{mode}(dependency_{t}, axiom, {render_clause(clause.literals, '|')}).")
    for theorem in theorems:
        lines.append(
            f"fof(entailment_{theorem.removed_index}, conjecture, "
            f"{render_clause(theorem.conclusion, '&')})."
        )
    return "\n".join(lines) + "\n"
