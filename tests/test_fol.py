"""Grounding, first-order construction, instance independence."""

import re

import pytest

from contragen import (
    GroundingDomain,
    PredicateAtom,
    build_fol_ftsc,
    build_ftsc,
    check_theorem,
    derive_theorems,
    validate_input,
    var,
)
from contragen import fol
from contragen.core import EmptyInputError, ValidationError, split_symbol
from contragen.explain import load_scenario_text
from contragen.fol import (
    EmptyDomainError,
    UnboundVariableError,
    atom_literal,
    const,
    ground_atoms,
)
from contragen.generator import CERT_VERIFIED


def patient_atoms():
    return [
        PredicateAtom("Infection", (var("p"),)),
        PredicateAtom("HighWBC", (var("p"),)),
        PredicateAtom("Fever", (var("p"),)),
        PredicateAtom("RequiresAntibiotics", (var("p"),)),
    ]


class TestTerms:
    def test_kinds_distinct(self):
        assert var("p") != const("p")
        assert var("p").is_variable
        assert not const("p").is_variable

    def test_unknown_kind_rejected(self):
        from contragen.fol import Term

        with pytest.raises(ValueError):
            Term("p", "function")

    def test_variable_renders_with_sigil(self):
        atom = PredicateAtom("Holds", (var("p"),))
        assert atom.symbol() == "Holds(?p)"
        assert atom.variables() == ("p",)

    def test_ground_symbol(self):
        atom = PredicateAtom("Shares", (const("h1"), const("r1"), const("p1")))
        assert str(atom) == atom.symbol() == "Shares(h1,r1,p1)"
        assert atom.variables() == ()
        assert split_symbol(atom.symbol()) == ("Shares", ("h1", "r1", "p1"))

    def test_propositional_atom(self):
        atom = PredicateAtom("Fever")
        assert atom.symbol() == "Fever"
        assert split_symbol(atom.symbol()) == ("Fever", ())
        assert atom.variables() == ()


BAD_NAMES = ["", "a,b", "?x", "f(a)", "a)", "a b", "a\tb"]


class TestNames:
    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_term_name_rejected(self, name):
        message = re.escape(f"term name {name!r}")
        for make in (const, var):
            with pytest.raises(ValidationError, match=message) as info:
                make(name)
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_predicate_name_rejected(self, name):
        with pytest.raises(ValidationError, match=re.escape(f"predicate name {name!r}")):
            PredicateAtom(name)

    def test_comma_constant_rejected_while_grounding(self):
        # Grounded, "a,b" would read back as two arguments.
        atoms = [PredicateAtom("Holds", (var("p"),)), PredicateAtom("B")]
        domain = GroundingDomain.from_mapping({"p": ["a,b"]})
        with pytest.raises(ValidationError, match="term name 'a,b'"):
            build_fol_ftsc(atoms, domain)
        with pytest.raises(ValidationError, match="term name 'a,b'"):
            build_fol_ftsc([PredicateAtom("Holds", (const("a,b"),))])


class TestGroundAtoms:
    def test_single_patient(self):
        domain = GroundingDomain.from_mapping({"p": ["alice"]})
        instances = ground_atoms(patient_atoms(), domain)
        assert len(instances) == 1
        assert [str(l) for l in instances[0]] == [
            "Infection(alice)",
            "HighWBC(alice)",
            "Fever(alice)",
            "RequiresAntibiotics(alice)",
        ]

    def test_two_patients(self):
        domain = GroundingDomain.from_mapping({"p": ["alice", "bob"]})
        instances = ground_atoms(patient_atoms(), domain)
        assert len(instances) == 2
        assert instances[0][0].symbol == "Infection(alice)"
        assert instances[1][0].symbol == "Infection(bob)"

    def test_mixed_variables(self):
        atoms = [
            PredicateAtom("HoldsData", (var("h"), var("p"))),
            PredicateAtom("HasConsent", (var("p"),)),
        ]
        domain = GroundingDomain.from_mapping({"h": ["mercy"], "p": ["alice"]})
        instances = ground_atoms(atoms, domain)
        assert len(instances) == 1
        assert [str(l) for l in instances[0]] == [
            "HoldsData(mercy,alice)",
            "HasConsent(alice)",
        ]

    def test_substitution_is_uniform(self):
        atoms = [
            PredicateAtom("A", (var("p"),)),
            PredicateAtom("B", (var("p"),)),
        ]
        domain = GroundingDomain.from_mapping({"p": ["x", "y"]})
        for instance in ground_atoms(atoms, domain):
            constants = {l.symbol.split("(")[1].rstrip(")") for l in instance}
            assert len(constants) == 1

    def test_empty_atom_list(self):
        with pytest.raises(EmptyInputError, match="at least one atom is required"):
            ground_atoms([])

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            ground_atoms(patient_atoms(), GroundingDomain(()))

    def test_empty_domain(self):
        with pytest.raises(EmptyDomainError):
            GroundingDomain.from_mapping({"p": []})

    def test_instance_count_bounded_before_grounding(self, monkeypatch):
        # 3 variables x 11 constants: 1,331 instances, over the limit.
        atoms = [PredicateAtom("P", (var("x"), var("y"), var("z"))), PredicateAtom("Q")]
        constants = [f"c{i}" for i in range(11)]
        domain = GroundingDomain.from_mapping({v: constants for v in "xyz"})
        text = "name: big\ndomain: Test\natoms:\n" + (
            "  - {symbol: P, args: [x, y, z], variables: [x, y, z], gloss: p}\n"
            "  - {symbol: Q, gloss: q}\n"
            f"grounding: {{x: {constants}, y: {constants}, z: {constants}}}\n"
        )

        def no_instance(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(fol, "atom_literal", no_instance)
        message = re.escape(
            f"grounding ['x', 'y', 'z'] gives 1331 instances, more than the limit "
            f"of {fol.MAX_GROUND_INSTANCES}"
        )
        for load in (
            lambda: ground_atoms(atoms, domain),
            lambda: build_fol_ftsc(atoms, domain),
            lambda: load_scenario_text(text),
        ):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                load()

    def test_instance_limit_is_inclusive(self):
        atoms = [PredicateAtom("P", (var("x"),))]
        constants = [f"c{i}" for i in range(fol.MAX_GROUND_INSTANCES + 1)]
        domain = GroundingDomain.from_mapping({"x": constants[:-1]})
        assert len(ground_atoms(atoms, domain)) == fol.MAX_GROUND_INSTANCES
        with pytest.raises(ValidationError, match="more than the limit"):
            ground_atoms(atoms, GroundingDomain.from_mapping({"x": constants}))


class TestBuildFolFtsc:
    def test_single_instance_chain(self):
        atoms = [
            PredicateAtom("HoldsData", (var("h"), var("p"))),
            PredicateAtom("SharesData", (var("h"), var("r"), var("p"))),
            PredicateAtom("HasConsent", (var("p"),)),
            PredicateAtom("Encrypts", (var("h"), var("p"))),
            PredicateAtom("Retains", (var("h"), var("p"), var("t"))),
        ]
        domain = GroundingDomain.from_mapping(
            {"h": ["mercy"], "p": ["alice"], "r": ["lab"], "t": ["t1"]}
        )
        ftscs = build_fol_ftsc(atoms, domain)
        assert len(ftscs) == 1
        assert ftscs[0].n == 5
        assert len(ftscs[0].clause_set.clauses) == 6
        assert ftscs[0].signature.arities == (2, 3, 1, 2, 3)

    def test_two_patient_instances_independent(self):
        domain = GroundingDomain.from_mapping({"p": ["alice", "bob"]})
        ftscs = build_fol_ftsc(patient_atoms(), domain)
        assert len(ftscs) == 2
        for ftsc in ftscs:
            for theorem in derive_theorems(ftsc):
                assert check_theorem(theorem).certified == CERT_VERIFIED
        # same shape up to constant renaming
        renamed = [
            tuple(s.replace("alice", "bob") for s in ftscs[0].permutation),
            ftscs[1].permutation,
        ]
        assert renamed[0] == renamed[1]

    def test_ground_propositional_equivalence(self):
        domain = GroundingDomain.from_mapping({"p": ["alice"]})
        fol_ftsc = build_fol_ftsc(patient_atoms(), domain)[0]
        ground_literals = [
            atom_literal(a.substituted({"p": "alice"})) for a in patient_atoms()
        ]
        prop_signature = validate_input(ground_literals)
        prop_ftsc = build_ftsc(prop_signature)
        assert fol_ftsc.clause_set.as_sets() == prop_ftsc.clause_set.as_sets()
        assert fol_ftsc.permutation == prop_ftsc.permutation

    def test_repeated_predicate_distinct_constants(self):
        atoms = [
            PredicateAtom("Complies", (var("o"), const("r1"))),
            PredicateAtom("Complies", (var("o"), const("r2"))),
            PredicateAtom("Reports", (var("o"),)),
        ]
        domain = GroundingDomain.from_mapping({"o": ["org"]})
        ftscs = build_fol_ftsc(atoms, domain)
        assert ftscs[0].permutation == (
            "Complies(org,r1)",
            "Complies(org,r2)",
            "Reports(org)",
        )
