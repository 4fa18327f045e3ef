"""Clause algebra: literals, validation, canonicalization, evaluation."""

import re

import pytest
from hypothesis import assume, given, strategies as st

from contragen import (
    Clause,
    ClauseSet,
    ComplementaryPairError,
    Signature,
    canonicalize,
    evaluate_clause,
    evaluate_set,
    neg,
    pos,
    validate_input,
)
from contragen.core import (
    DuplicateSymbolError,
    EmptyInputError,
    Literal,
    SchemaViolationError,
    UnboundSymbolError,
    ValidationError,
    fields,
    parse_literal,
    read_input,
    require,
)
from contragen.fol import PredicateAtom, atom_literal, var

symbols = st.sampled_from([f"x{i}" for i in range(1, 7)])
literals = st.builds(Literal, symbols, st.booleans())


def sig(*names):
    return Signature(tuple(names))


class TestLiteral:
    def test_double_negation_examples(self):
        l = neg("a")
        assert l.negate() == pos("a")
        assert l.negate().negate() == l

    @given(literals)
    def test_double_negation_property(self, literal):
        assert literal.negate().negate() == literal

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Fever", pos("Fever")),
            ("~Fever", neg("Fever")),
            ("!Fever", neg("Fever")),
            ("¬Fever", neg("Fever")),
            ("~~Fever", pos("Fever")),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_literal(text) == expected

    def test_parse_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_literal("~")

    def test_str_roundtrip(self):
        assert str(neg("HighWBC")) == "~HighWBC"
        assert parse_literal(str(neg("HighWBC"))) == neg("HighWBC")


class TestRequire:
    def test_present_and_typed(self):
        assert require({"s": 2.5}, "s", (int, float), "doc") == 2.5
        assert require({"l": ["a"]}, "l", list, "doc", str) == ["a"]

    @pytest.mark.parametrize(
        "doc, kind, items, message",
        [
            ({}, int, None, "doc: missing required field 'f'"),
            ({"f": None}, int, None, "doc: field 'f' must be int, got NoneType"),
            ({"f": True}, (int, float), None,
             "doc: field 'f' must be int or float, got bool"),
            ({"f": ["a", 1]}, list, str, "doc: field 'f' item 1 must be str, got int"),
        ],
    )
    def test_rejects(self, doc, kind, items, message):
        with pytest.raises(SchemaViolationError) as info:
            require(doc, "f", kind, "doc", items)
        assert str(info.value) == message

    def test_default_covers_absent_and_null(self):
        assert require({}, "f", list, "doc", default=()) == ()
        assert require({"f": None}, "f", list, "doc", default=()) == ()
        with pytest.raises(SchemaViolationError):
            require({"f": 3}, "f", list, "doc", default=())

    def test_parse_literal_rejects_non_string(self):
        with pytest.raises(ValidationError, match="literal must be a string"):
            parse_literal(7)


class TestValidateInput:
    def test_medical_predicates(self):
        names = ["Infection", "HighWBC", "Fever", "RequiresAntibiotics"]
        signature = validate_input([pos(s) for s in names])
        assert signature.symbols == tuple(names)
        assert signature.size == 4
        assert signature.arities == (0, 0, 0, 0)

    def test_complementary_pair(self):
        with pytest.raises(ComplementaryPairError) as excinfo:
            validate_input([pos("a"), neg("a")])
        assert excinfo.value.symbol == "a"

    def test_duplicate(self):
        with pytest.raises(DuplicateSymbolError) as excinfo:
            validate_input([pos("a"), pos("a")])
        assert excinfo.value.symbol == "a"

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            validate_input([])

    @pytest.mark.parametrize(
        "symbol, message",
        [
            ("", "literal symbols must be nonempty"),
            ("a b", "literal symbols must not contain whitespace: 'a b'"),
            ("a?", "literal symbols must not contain '?': 'a?'"),
        ],
    )
    def test_malformed_symbol(self, symbol, message):
        with pytest.raises(ValidationError) as excinfo:
            validate_input([Literal(symbol)])
        assert str(excinfo.value) == message

    def test_non_ground_rejected(self):
        # An unsubstituted atom renders with the variable sigil: admission,
        # and no export, refuses it.
        lit = atom_literal(PredicateAtom("Holds", (var("p"),)))
        assert lit.symbol == "Holds(?p)"
        with pytest.raises(ValidationError, match=re.escape("contain '?': 'Holds(?p)'")):
            validate_input([lit])

    @given(st.text(st.characters(codec="utf-8") | st.sampled_from(
        "\u00a0\u0085\u1680\u2028\u001c\u001d\u001e\u001f\u200b"), min_size=1))
    def test_whitespace_is_what_isspace_says(self, symbol):
        refused = any(ch.isspace() for ch in symbol)
        assume(refused or ("?" not in symbol and symbol[0] not in "~!¬"))
        if refused:
            with pytest.raises(ValidationError, match="must not contain whitespace"):
                validate_input([Literal(symbol)])
        else:
            assert validate_input([Literal(symbol)]).symbols == (symbol,)

    def test_order_preserved(self):
        signature = validate_input([pos("z"), pos("a"), pos("m")])
        assert signature.symbols == ("z", "a", "m")

    def test_ground_atom_arity_inferred(self):
        signature = validate_input([pos("Holds(h1,p1)"), pos("Consents(p1)")])
        assert signature.arities == (2, 1)

    def test_arity_is_derived_not_stored(self):
        assert list(fields(Signature)) == ["symbols"]
        with pytest.raises(TypeError):
            Signature(("a", "P(x,y)"), (5, 0))
        assert Signature(("Q(z)", "a", "P(x,y)")).arities == (1, 0, 2)


class TestReadInput:
    def test_reads_utf8(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("café\n".encode("utf-8"))
        assert read_input(path) == read_input(str(path)) == "café\n"

    def test_refuses_what_is_not_a_regular_file(self, tmp_path):
        # A pipe, which would block if opened, is tried in a child process
        # by the CLI tests.
        for path in (tmp_path / "missing", tmp_path, "/dev/null"):
            with pytest.raises(ValidationError) as excinfo:
                read_input(path)
            assert str(excinfo.value) == f"no such file: {path}"

    def test_refuses_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("café".encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            read_input(path)


class TestClause:
    def test_tautology_flag(self):
        # The solvers read a tautology off its masks: a bit set in both.
        signature = sig("a", "b")
        tautology, plain = ClauseSet.build(
            [Clause((neg("a"), pos("a"))), Clause((pos("a"), neg("b")))], signature
        ).masks()
        assert tautology[0] & tautology[1]
        assert not plain[0] & plain[1]

    def test_empty_clause(self):
        empty = Clause(())
        assert len(empty) == 0 and str(empty) == "⊥"
        assert not evaluate_clause(empty, {"a": True})

    def test_canonicalize_dedup_and_order(self):
        signature = sig("x1", "x2")
        clause = Clause((neg("x2"), pos("x1"), neg("x2")))
        assert canonicalize(clause, signature) == Clause((pos("x1"), neg("x2")))

    def test_canonicalize_identity(self):
        signature = sig("x1")
        clause = Clause((pos("x1"),))
        assert canonicalize(clause, signature) == clause

    def test_canonicalize_sort_only(self):
        signature = sig("x1", "x2", "x3", "x4")
        clause = Clause((neg("x3"), neg("x1"), pos("x4"), neg("x2")))
        assert canonicalize(clause, signature) == Clause(
            (neg("x1"), neg("x2"), neg("x3"), pos("x4"))
        )

    @given(st.lists(literals, max_size=8))
    def test_canonicalize_idempotent(self, lits):
        signature = sig(*[f"x{i}" for i in range(1, 7)])
        once = canonicalize(Clause(tuple(lits)), signature)
        assert canonicalize(once, signature) == once


class TestEvaluation:
    def test_unit_true(self):
        assert evaluate_clause(Clause((pos("x1"),)), {"x1": True})

    def test_example_false(self):
        clause = Clause((pos("x2"), neg("x1")))
        assert not evaluate_clause(clause, {"x1": True, "x2": False})

    def test_both_negative(self):
        clause = Clause((neg("x1"), neg("x2")))
        assert not evaluate_clause(clause, {"x1": True, "x2": True})

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            evaluate_clause(Clause((pos("x1"), pos("x2"))), {"x1": False})

    def test_set_conjunction(self):
        signature = sig("x1")
        true_set = ClauseSet.build([Clause((pos("x1"),))], signature)
        assert evaluate_set(true_set, {"x1": True})
        contradiction = ClauseSet.build(
            [Clause((pos("x1"),)), Clause((neg("x1"),))], signature
        )
        assert not evaluate_set(contradiction, {"x1": True})
        assert not evaluate_set(contradiction, {"x1": False})

    def test_two_literal_chain_under_all_true(self):
        # Independent hand evaluation: x1 and (x2 | ~x1) hold under TT,
        # (~x1 | ~x2) fails, so the conjunction is false.
        signature = sig("x1", "x2")
        chain = ClauseSet.build(
            [
                Clause((pos("x1"),)),
                Clause((pos("x2"), neg("x1"))),
                Clause((neg("x1"), neg("x2"))),
            ],
            signature,
        )
        assert not evaluate_set(chain, {"x1": True, "x2": True})

    def test_set_requires_total_assignment(self):
        signature = sig("x1", "x2")
        clause_set = ClauseSet.build([Clause((pos("x1"),))], signature)
        with pytest.raises(UnboundSymbolError):
            evaluate_set(clause_set, {"x1": True})

    @given(st.lists(literals, min_size=1, max_size=6), literals)
    def test_adding_satisfied_literal_keeps_clause_true(self, lits, extra):
        assignment = {f"x{i}": bool(i % 2) for i in range(1, 7)}
        clause = Clause(tuple(lits))
        if not evaluate_clause(clause, assignment):
            return
        if assignment[extra.symbol] == extra.negated:
            extra = extra.negate()
        widened = Clause(tuple(lits) + (extra,))
        assert evaluate_clause(widened, assignment)


class TestClauseSet:
    def test_literal_must_be_in_signature(self):
        with pytest.raises(UnboundSymbolError):
            ClauseSet((Clause((pos("zz"),)),), sig("x1"))

    def test_str_keeps_clause_order(self):
        chain = ClauseSet.build([Clause((pos("b"),)), Clause((neg("b"), pos("a")))], sig("a", "b"))
        assert str(chain) == "(b) & (a | ~b)"

    def test_set_equality_ignores_order(self):
        signature = sig("a", "b")
        left = ClauseSet.build(
            [Clause((pos("a"), neg("b"))), Clause((pos("b"),))], signature
        )
        right = ClauseSet.build(
            [Clause((pos("b"),)), Clause((neg("b"), pos("a")))], signature
        )
        assert left.as_sets() == right.as_sets()
        assert left != right  # ordered equality is stricter

    def test_int_encoding(self):
        signature = sig("a", "b")
        clause_set = ClauseSet.build(
            [Clause((pos("a"),)), Clause((pos("b"), neg("a")))], signature
        )
        assert clause_set.int_clauses() == ((1,), (-1, 2))
        # Bit 0 is a, bit 1 is b: (positive, negative) per clause.
        assert clause_set.masks() == ((0b01, 0b00), (0b10, 0b01))
        assert clause_set.masks() is clause_set.masks()

    @given(
        st.lists(st.lists(literals, max_size=4), min_size=1, max_size=6),
        st.data(),
        st.booleans(),
    )
    def test_derived_encodings_match_fresh_sets(self, clauses, data, masked_first):
        signature = sig(*[f"x{i}" for i in range(1, 7)])
        clause_set = ClauseSet.build(clauses, signature)
        if masked_first:
            clause_set.masks()  # ``without`` then slices them
        index = data.draw(st.integers(min_value=0, max_value=len(clauses) - 1))
        removed = clause_set.without(index)
        fresh = ClauseSet(removed.clauses, signature)
        assert removed == fresh
        assert removed.int_clauses() == fresh.int_clauses()
        assert removed.masks() == fresh.masks()
        # A model satisfies a clause by its masks exactly when it does by
        # literal-wise evaluation.
        model = data.draw(st.integers(min_value=0, max_value=(1 << 6) - 1))
        assignment = {s: bool(model >> j & 1) for j, s in enumerate(signature.symbols)}
        for clause, (positive, negative) in zip(removed.clauses, removed.masks()):
            by_mask = bool(positive & model or negative & ~model)
            assert by_mask == evaluate_clause(clause, assignment)

    def test_without(self):
        signature = sig("a")
        clause_set = ClauseSet.build(
            [Clause((pos("a"),)), Clause((neg("a"),))], signature
        )
        assert clause_set.without(0).clauses == (Clause((neg("a"),)),)
        with pytest.raises(IndexError):
            clause_set.without(5)
