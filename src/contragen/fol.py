"""First-order surface: predicate atoms, finite grounding, triangular sets.

Atoms with variables are grounded against finite constant domains; each
ground atom then acts as an opaque propositional symbol ``Name(c1,...,ck)``
and flows through the propositional machinery unchanged. Substitution is
uniform per instance (one constant per variable across the whole atom
list), and there is no unification and no function symbols.

A variable that is still unsubstituted renders with a ``?`` sigil
(``Name(?p)``); ground symbols never contain ``?``, which is how the
export layer tells the two apart. So that every symbol reads back as the
atom it renders, a term or predicate name is nonempty and holds none of
``(``, ``)``, ``,``, ``?`` or whitespace.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Mapping, Sequence

from .core import EmptyInputError, Literal, Record, ValidationError, validate_input
from .generator import Ftsc, build_ftsc

VARIABLE = "variable"
CONSTANT = "constant"


class UnboundVariableError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"no domain entry for variable {name!r}")
        self.name = name


class EmptyDomainError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"domain for variable {name!r} is empty")
        self.name = name


_RESERVED = re.compile(r"[(),?\s]")


def _check_name(name: str, what: str) -> None:
    if not name or _RESERVED.search(name):
        raise ValidationError(
            f"{what} name {name!r} must be nonempty and hold no '(', ')', ',', "
            "'?' or whitespace"
        )


class Term(Record):
    __slots__ = _fields = ("name", "kind")

    def __init__(self, name: str, kind: str = CONSTANT):
        self._assign(locals())
        if kind not in (VARIABLE, CONSTANT):
            raise ValueError(f"unknown term kind: {kind!r}")
        _check_name(name, "term")

    @property
    def is_variable(self) -> bool:
        return self.kind == VARIABLE

    def __str__(self) -> str:
        return "?" + self.name if self.is_variable else self.name


def var(name: str) -> Term:
    return Term(name, VARIABLE)


def const(name: str) -> Term:
    return Term(name, CONSTANT)


class PredicateAtom(Record):
    """A predicate applied to terms; arity is the argument count."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[Term, ...] = ()):
        self._assign(locals())
        _check_name(name, "predicate")

    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(t.name for t in self.args if t.is_variable))

    def substituted(self, substitution: Mapping[str, str]) -> "PredicateAtom":
        return PredicateAtom(
            self.name,
            tuple(
                const(substitution[t.name])
                if t.is_variable and t.name in substitution
                else t
                for t in self.args
            ),
        )

    def symbol(self) -> str:
        """Propositional rendering: ``Name`` or ``Name(arg,...)``."""
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(t) for t in self.args)})"

    def __str__(self) -> str:
        return self.symbol()


def atom_literal(atom: PredicateAtom, negated: bool = False) -> Literal:
    return Literal(atom.symbol(), negated)


class GroundingDomain(Record):
    """Finite, nonempty constant lists per variable, in declaration order."""

    __slots__ = _fields = ("bindings",)

    def __init__(self, bindings: tuple[tuple[str, tuple[str, ...]], ...]):
        self._assign(locals())
        for name, constants in bindings:
            if not constants:
                raise EmptyDomainError(name)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[str]]) -> "GroundingDomain":
        return cls(tuple((k, tuple(v)) for k, v in mapping.items()))

    def constants_for(self, name: str) -> tuple[str, ...]:
        for key, constants in self.bindings:
            if key == name:
                return constants
        raise UnboundVariableError(name)


EMPTY_DOMAIN = GroundingDomain(())

#: Most ground instances one atom list may expand to.
MAX_GROUND_INSTANCES = 1000


def ground_atoms(
    atoms: Sequence[PredicateAtom], domain: GroundingDomain = EMPTY_DOMAIN
) -> list[list[Literal]]:
    """Ground the atom list over every combination of constant choices.

    Variables are substituted uniformly within one instance. Instances are
    emitted in cartesian-product order over the variables' first occurrence
    and the domain's constant order, so output is deterministic. An atom
    list with no variables grounds to exactly one instance. More than
    MAX_GROUND_INSTANCES instances raise ValidationError before any is built.
    """
    if not atoms:
        raise EmptyInputError("at least one atom is required")
    names = tuple(dict.fromkeys(name for atom in atoms for name in atom.variables()))
    pools = [domain.constants_for(v) for v in names]
    count = math.prod(len(p) for p in pools)
    if count > MAX_GROUND_INSTANCES:
        raise ValidationError(
            f"grounding {list(names)} gives {count} instances, "
            f"more than the limit of {MAX_GROUND_INSTANCES}"
        )
    instances = []
    for combo in itertools.product(*pools):
        substitution = dict(zip(names, combo))
        instances.append(
            [atom_literal(atom.substituted(substitution)) for atom in atoms]
        )
    return instances


def build_fol_ftsc(
    atoms: Sequence[PredicateAtom], domain: GroundingDomain = EMPTY_DOMAIN
) -> list[Ftsc]:
    """One triangular construction per ground instance.

    Each instance's ground atoms pass the usual admission checks and are
    then treated as propositional literals; instances are independent of
    one another.
    """
    results = []
    for literals in ground_atoms(atoms, domain):
        results.append(build_ftsc(validate_input(literals)))
    return results
