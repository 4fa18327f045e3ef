"""Immutable clause algebra: literals, signatures, clauses, clause sets, evaluation.

Symbols are plain strings on the public surface. Internally a signature
interns each symbol to a small integer index. A ``ClauseSet`` computes its
signed-integer encoding (1-based, DIMACS style) once, at construction; that
lookup is also its symbol-binding check. The same pass over the literals
writes a second encoding, ``masks``: one (positive, negative) bitmask pair
per clause, for evaluating a model or a set of known literals against a
clause in a few integer operations. ``without`` slices both stored
encodings instead of re-validating. All types are immutable values: once
built they can be shared freely between workers. ``Record`` is the base
of every record type in the package: a record declares its fields once, and
is given a plain ``__init__`` unless it checks its input or derives state.
``replace`` copies one with changed fields.

Ground first-order atoms are handled as opaque propositional symbols of
the shape ``Name(c1,c2)``; ``split_symbol`` is the one reader of that
shape, so a symbol's arity and its export agree everywhere. Input passes
two gates: ``validate_input`` rules on symbols, ``read_input`` opens files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

#: Truth assignment: maps symbol names to booleans. Partial during search,
#: total (covering the whole signature) during truth-table enumeration.
Assignment = Mapping[str, bool]


class ValidationError(ValueError):
    """An input literal list violates a construction constraint."""


class EmptyInputError(ValidationError):
    """The literal list was empty."""


class DuplicateSymbolError(ValidationError):
    def __init__(self, symbol: str):
        super().__init__(f"symbol appears more than once: {symbol!r}")
        self.symbol = symbol


class ComplementaryPairError(ValidationError):
    def __init__(self, symbol: str):
        super().__init__(f"both {symbol!r} and its negation appear in the input")
        self.symbol = symbol


class UnboundSymbolError(LookupError):
    """A symbol is missing from an assignment or signature."""

    def __init__(self, symbol: str):
        super().__init__(f"unbound symbol: {symbol!r}")
        self.symbol = symbol


class SchemaViolationError(ValueError):
    """A document (scenario or report) lacks a field or holds the wrong type."""


_REQUIRED = object()


def require(
    mapping: Mapping, key: str, kind, where: str, items=None, default=_REQUIRED, choices=None
):
    """Return ``mapping[key]``, checked to be a ``kind`` (a type or a tuple).

    With ``items`` the value is a list and each item must be an ``items``.
    With ``default`` the field is optional: absent or null gives ``default``.
    With ``choices`` the value must be one of them. A bool never passes for
    a number. Raises SchemaViolationError naming ``where`` and the field.
    """
    if default is not _REQUIRED and mapping.get(key) is None:
        return default
    if key not in mapping:
        raise SchemaViolationError(f"{where}: missing required field {key!r}")
    value = mapping[key]
    _check_kind(value, kind, f"{where}: field {key!r}")
    if items is not None:
        for i, item in enumerate(value):
            _check_kind(item, items, f"{where}: field {key!r} item {i}")
    if choices is not None and value not in choices:
        raise SchemaViolationError(f"{where}: field {key!r} must be one of {choices}")
    return value


def _check_kind(value, kind, what: str) -> None:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise SchemaViolationError(f"{what} must be {names}, got {type(value).__name__}")


_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A record's attribute was assigned or deleted: records are immutable."""


class Record:
    """Base of the package's immutable records.

    A record names its fields, in order, in ``_fields`` and keeps them in
    ``__slots__``. A class body that sets ``_fields`` and no ``__init__`` gets
    a plain one, compiled from a ``def``: it takes the fields in order, the
    trailing ones defaulting to the values in the private mapping ``_defaults``.
    A record that checks its input or derives state writes its own. Either
    sets each field with ``object.__setattr__`` and takes the fields as its
    parameters, which pickling passes by position and ``replace`` by name.
    Assigning or deleting an attribute raises ``FrozenInstanceError``.
    Records of one type are equal when their fields are, the hash is that
    of the field tuple, and the repr reads ``Name(field=value, ...)``. Any
    other slot holds state derived from the fields and takes part in none.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        names, defaults = cls.__dict__.get("_fields"), cls.__dict__.get("_defaults", {})
        if names is not None and "__init__" not in cls.__dict__:
            optional = names[len(names) - len(defaults) :]
            if set(optional) != set(defaults):
                raise TypeError(f"{cls.__qualname__}._defaults must name its trailing fields")
            namespace = {"_setattr": _setattr, "__name__": cls.__module__}
            body = "".join(f"\n    _setattr(self, {name!r}, {name})" for name in names)
            exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
            cls.__init__ = init = namespace["__init__"]
            init.__defaults__ = tuple(defaults[name] for name in optional)
            init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _assign(self, values: Mapping) -> None:
        """Set each field from ``values``, an ``__init__``'s ``locals()``."""
        for name in self._fields:
            _setattr(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return self._repr(self._fields)

    def _repr(self, names: Sequence[str]) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def fields(record) -> tuple[str, ...]:
    """The field names of a record or record type, in order."""
    return record._fields


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, built through its
    ``__init__``: its checks run again, no cached value is copied, and a
    name that is not a field raises ``TypeError``."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})


class Literal(Record):
    """An atom or its negation. ``negate`` is an involution."""

    __slots__ = _fields = ("symbol", "negated")
    _defaults = {"negated": False}

    # Its own comparison and hash: literals fill every set and dict.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.symbol == other.symbol and self.negated == other.negated
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbol, self.negated))

    def negate(self) -> "Literal":
        return Literal(self.symbol, not self.negated)

    def __str__(self) -> str:
        return "~" + self.symbol if self.negated else self.symbol


def pos(symbol: str) -> Literal:
    return Literal(symbol, False)


def neg(symbol: str) -> Literal:
    return Literal(symbol, True)


_NEGATION_PREFIXES = ("~", "!", "¬")


def parse_literal(text: str) -> Literal:
    """Parse ``Symbol`` / ``~Symbol`` (also accepts ``!`` and ``¬`` prefixes)."""
    if not isinstance(text, str):
        raise ValidationError(f"literal must be a string, got {type(text).__name__}")
    text = text.strip()
    negated = False
    while text[:1] in _NEGATION_PREFIXES:
        negated = not negated
        text = text[1:].strip()
    if not text:
        raise ValidationError("empty literal")
    return Literal(text, negated)


def split_symbol(symbol: str) -> tuple[str, tuple[str, ...]]:
    """``"Name(a,b)"`` -> ``("Name", ("a", "b"))``; ``"Name"`` -> ``("Name", ())``.

    Empty arguments are dropped. Term names never hold ``(``, ``)`` or ``,``.
    """
    if symbol.endswith(")") and "(" in symbol:
        head, _, inner = symbol[:-1].partition("(")
        return head, tuple(a for a in inner.split(",") if a)
    return symbol, ()


class Signature(Record):
    """Ordered universe of distinct atom symbols.

    Order is significant: clause canonicalization and the triangular
    construction both key off the position of a symbol in the signature.
    """

    _fields = ("symbols",)
    __slots__ = _fields + ("_index",)

    def __init__(self, symbols: tuple[str, ...]):
        index = {}
        for i, sym in enumerate(symbols):
            if sym in index:
                raise DuplicateSymbolError(sym)
            index[sym] = i
        _setattr(self, "symbols", symbols)
        _setattr(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def arities(self) -> tuple[int, ...]:
        """Each symbol's arity: the length of its argument list."""
        return tuple(len(split_symbol(s)[1]) for s in self.symbols)

    @property
    def index(self) -> Mapping[str, int]:
        """Each symbol's position in ``symbols``, keyed by symbol."""
        return self._index

    def index_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnboundSymbolError(symbol) from None


def validate_input(literals: Sequence[Literal]) -> Signature:
    """Check the admission rules and build the signature, in input order.

    The rules: the list is nonempty; each symbol is nonempty, holds no
    whitespace and no ``?`` (an unsubstituted variable's sigil, so admitted
    symbols are ground) and does not start with a negation sign; no symbol
    occurs in both polarities (non-complementarity) or twice (uniqueness).
    Raises EmptyInputError, ComplementaryPairError, DuplicateSymbolError or,
    for a symbol, ValidationError.
    """
    if not literals:
        raise EmptyInputError("at least one input literal is required")
    seen: dict[str, bool] = {}
    for lit in literals:
        if not lit.symbol:
            raise ValidationError("literal symbols must be nonempty")
        if lit.symbol.split() != [lit.symbol]:  # splits where ``str.isspace`` holds
            raise ValidationError(f"literal symbols must not contain whitespace: {lit.symbol!r}")
        if "?" in lit.symbol:
            raise ValidationError(f"literal symbols must not contain '?': {lit.symbol!r}")
        if lit.symbol[0] in _NEGATION_PREFIXES:
            raise ValidationError(
                f"literal symbols must not start with a negation sign: {lit.symbol!r}"
            )
        if lit.symbol in seen:
            if seen[lit.symbol] != lit.negated:
                raise ComplementaryPairError(lit.symbol)
            raise DuplicateSymbolError(lit.symbol)
        seen[lit.symbol] = lit.negated
    return Signature(tuple(lit.symbol for lit in literals))


def read_input(path: Union[str, Path]) -> str:
    """The UTF-8 text of the regular file at ``path``. Any other path (missing,
    a directory, a device, a pipe) raises ValidationError before it is
    opened, so no read blocks or runs without end."""
    if not Path(path).is_file():
        raise ValidationError(f"no such file: {path}")
    return Path(path).read_text(encoding="utf-8")


class Clause(Record):
    """Disjunction of literals. The empty clause evaluates to false everywhere."""

    __slots__ = _fields = ("literals",)
    _defaults = {"literals": ()}

    def as_set(self) -> frozenset[Literal]:
        return frozenset(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return " | ".join(str(l) for l in self.literals) if self.literals else "⊥"


def canonicalize(clause: Clause, signature: Signature) -> Clause:
    """Drop duplicate literals and sort by (signature index, polarity).

    Idempotent; positive literals sort before negative ones on the same
    symbol. Every clause stored in a ClauseSet is kept in this form.
    """
    uniq = sorted(
        set(clause.literals),
        key=lambda l: (signature.index_of(l.symbol), l.negated),
    )
    return Clause(tuple(uniq))


ClauseLike = Union[Clause, Iterable[Literal]]


class ClauseSet(Record):
    """Ordered conjunction of clauses over a signature.

    Clause order is significant (theorem indexing relies on it); ``as_sets``
    is the set's content with clause order and literal order ignored.
    """

    _fields = ("clauses", "signature")
    __slots__ = _fields + ("_ints", "_masks")

    def __init__(self, clauses: tuple[Clause, ...], signature: Signature):
        # One pass over the literals writes both encodings. Encoding looks
        # every symbol up, so it is also the binding check.
        index = signature.index
        ints, masks = [], []
        try:
            for clause in clauses:
                row = []
                positive = negative = 0
                for lit in clause.literals:
                    j = index[lit.symbol]
                    if lit.negated:
                        row.append(-1 - j)
                        negative |= 1 << j
                    else:
                        row.append(j + 1)
                        positive |= 1 << j
                ints.append(tuple(row))
                masks.append((positive, negative))
        except KeyError as exc:
            raise UnboundSymbolError(exc.args[0]) from None
        _setattr(self, "clauses", clauses)
        _setattr(self, "signature", signature)
        _setattr(self, "_ints", tuple(ints))
        _setattr(self, "_masks", tuple(masks))

    @classmethod
    def _trusted(
        cls,
        clauses: tuple[Clause, ...],
        signature: Signature,
        ints: tuple[tuple[int, ...], ...],
        masks: tuple[tuple[int, int], ...],
    ) -> "ClauseSet":
        """Assemble from parts already encoded against ``signature``."""
        obj = object.__new__(cls)
        _setattr(obj, "clauses", clauses)
        _setattr(obj, "signature", signature)
        _setattr(obj, "_ints", ints)
        _setattr(obj, "_masks", masks)
        return obj

    @classmethod
    def build(cls, clauses: Iterable[ClauseLike], signature: Signature) -> "ClauseSet":
        """Construct with each clause canonicalized."""
        canon = []
        for c in clauses:
            clause = c if isinstance(c, Clause) else Clause(tuple(c))
            canon.append(canonicalize(clause, signature))
        return cls(tuple(canon), signature)

    def without(self, index: int) -> "ClauseSet":
        """Copy with the clause at 0-based ``index`` removed."""
        if not 0 <= index < len(self.clauses):
            raise IndexError(f"clause index out of range: {index}")
        return ClauseSet._trusted(
            self.clauses[:index] + self.clauses[index + 1 :],
            self.signature,
            self._ints[:index] + self._ints[index + 1 :],
            self._masks[:index] + self._masks[index + 1 :],
        )

    def as_sets(self) -> frozenset[frozenset[Literal]]:
        return frozenset(c.as_set() for c in self.clauses)

    def int_clauses(self) -> tuple[tuple[int, ...], ...]:
        """Signed 1-based integer encoding, for solver loops."""
        return self._ints

    def masks(self) -> tuple[tuple[int, int], ...]:
        """Per clause, the pair (positive, negative): bit j of the first is
        set when symbol j occurs unnegated, of the second when it occurs
        negated. A model ``m`` (bit j set: symbol j true) satisfies the
        clause iff ``positive & m or negative & ~m``."""
        return self._masks

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __str__(self) -> str:
        return " & ".join(f"({c})" for c in self.clauses)


def evaluate_clause(clause: Clause, assignment: Assignment) -> bool:
    """True iff at least one literal is satisfied. Requires every clause
    symbol to be bound in the assignment."""
    for lit in clause.literals:
        if lit.symbol not in assignment:
            raise UnboundSymbolError(lit.symbol)
    return any(assignment[l.symbol] != l.negated for l in clause.literals)


def evaluate_set(clause_set: ClauseSet, assignment: Assignment) -> bool:
    """Conjunction semantics: true iff every clause evaluates true.
    Requires the assignment to cover the whole signature."""
    for symbol in clause_set.signature.symbols:
        if symbol not in assignment:
            raise UnboundSymbolError(symbol)
    return all(evaluate_clause(c, assignment) for c in clause_set.clauses)
