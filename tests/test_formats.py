"""DIMACS round-trips, TPTP syntax, JSON report round-trips."""

import json
import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from contragen import (
    Clause,
    ClauseSet,
    Report,
    Signature,
    build_ftsc,
    build_report,
    check_theorem,
    derive_theorems,
    emit_dimacs,
    emit_tptp,
    load_scenario,
    neg,
    parse_dimacs,
    pos,
    rank,
    validate_input,
    verbalize,
)
from contragen.core import Literal, replace
from contragen.explain import ArityMismatchError
from contragen.formats import (
    DimacsParseError,
    HeaderMismatchError,
    MissingScenarioMetadataError,
)
from contragen.report import _indented, current_timestamp

from conftest import ESCAPED_SYMBOLS, random_clause_set
from tptp_check import TptpSyntaxError, check_tptp

MEDICAL = ["Infection", "HighWBC", "Fever", "RequiresAntibiotics"]


def chain(names):
    return build_ftsc(validate_input([pos(s) for s in names]))


class TestEmitDimacs:
    def test_single_literal(self):
        text = emit_dimacs(chain(["x1"]).clause_set)
        lines = text.splitlines()
        assert "p cnf 1 2" in lines
        assert lines[-2:] == ["1 0", "-1 0"]

    def test_two_literals_final_clause(self):
        text = emit_dimacs(chain(["x1", "x2"]).clause_set)
        lines = text.splitlines()
        assert lines[2] == "p cnf 2 3"
        assert lines[-1] == "-1 -2 0"

    def test_symbol_map_comments(self):
        text = emit_dimacs(chain(MEDICAL).clause_set)
        assert "c var 1 Infection" in text
        assert "c var 4 RequiresAntibiotics" in text

    def test_deterministic(self):
        assert emit_dimacs(chain(MEDICAL).clause_set) == emit_dimacs(
            chain(MEDICAL).clause_set
        )


class TestParseDimacs:
    def test_roundtrip_medical(self):
        clause_set = chain(MEDICAL).clause_set
        assert parse_dimacs(emit_dimacs(clause_set)) == clause_set

    @pytest.mark.parametrize("n", range(1, 9))
    def test_roundtrip_chains(self, n):
        clause_set = chain([f"x{i}" for i in range(1, n + 1)]).clause_set
        assert parse_dimacs(emit_dimacs(clause_set)) == clause_set

    def test_roundtrip_random_sets(self):
        rng = random.Random(5)
        for _ in range(50):
            clause_set = random_clause_set(rng, max_vars=8)
            assert parse_dimacs(emit_dimacs(clause_set)) == clause_set

    def test_roundtrip_ground_fol_set(self):
        lits = [pos("HoldsData(mercy,alice)"), pos("HasConsent(alice)")]
        clause_set = build_ftsc(validate_input(lits)).clause_set
        assert parse_dimacs(emit_dimacs(clause_set)) == clause_set
        assert parse_dimacs(emit_dimacs(clause_set)).signature.arities == (2, 1)

    def test_tolerates_comments_and_blanks(self):
        text = "c a comment\n\np cnf 2 1\nc mid comment\n1 -2 0\n\n"
        clause_set = parse_dimacs(text)
        assert len(clause_set.clauses) == 1
        assert clause_set.signature.symbols == ("v1", "v2")

    @pytest.mark.parametrize(
        "text, symbols",
        [
            ("p cnf 5 1\n2 0\n", ("v2",)),
            ("c var 4 d\np cnf 5 1\n-2 0\n", ("v2", "d")),
            # v3 is unused and unnamed, so its default name is free.
            ("c var 1 v3\np cnf 3 1\n1 0\n", ("v3",)),
        ],
        ids=["unused-dropped", "named-kept", "default-name-free"],
    )
    def test_signature_holds_only_used_or_named_variables(self, text, symbols):
        assert parse_dimacs(text).signature.symbols == symbols

    def test_malformed_header(self):
        with pytest.raises(HeaderMismatchError):
            parse_dimacs("p dnf 2 1\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(HeaderMismatchError):
            parse_dimacs("1 0\n")

    def test_count_disagreement(self):
        with pytest.raises(HeaderMismatchError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_out_of_range_variable(self):
        with pytest.raises(DimacsParseError) as excinfo:
            parse_dimacs("p cnf 4 1\n5 0\n")
        assert excinfo.value.line == 2

    def test_unreadable_token(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 1\n1 x 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("c var 7 zz\np cnf 1 2\n1 0\n-1 0\n", 1, "c var index 7 outside 1..1"),
            ("c var 1 a\nc var 0 zz\np cnf 1 2\n1 0\n-1 0\n", 2,
             "c var index 0 outside 1..1"),
            ("c var 1 a\nc var 1 b\np cnf 2 1\n1 0\n", 2,
             "variable 1 already named on line 1"),
            ("c var 1 a\nc var 2 a\np cnf 2 1\n1 0\n", 2,
             "name 'a' already given on line 1"),
            ("c var 2 v1\np cnf 2 1\n1 0\n", 1,
             "name 'v1' is the default name of unnamed variable 1"),
            ("c var 1 a?\np cnf 1 2\n1 0\n-1 0\n", 1,
             "literal symbols must not contain '?': 'a?'"),
        ],
        ids=["index-above-count", "index-zero", "repeated-index", "repeated-name",
             "default-name-taken", "variable-sigil"],
    )
    def test_bad_var_comment(self, text, line, message):
        with pytest.raises(DimacsParseError) as excinfo:
            parse_dimacs(text)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"


@st.composite
def clause_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    signature = Signature(tuple(f"s{i}" for i in range(1, n + 1)))
    count = draw(st.integers(min_value=0, max_value=8))
    clauses = []
    for _ in range(count):
        width = draw(st.integers(min_value=0, max_value=n))
        chosen = draw(
            st.lists(
                st.sampled_from(signature.symbols),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        clauses.append(
            Clause(tuple(Literal(s, draw(st.booleans())) for s in chosen))
        )
    return ClauseSet.build(clauses, signature)


class TestDimacsProperty:
    @settings(max_examples=80)
    @given(clause_sets())
    def test_roundtrip(self, clause_set):
        assert parse_dimacs(emit_dimacs(clause_set)) == clause_set


class TestEmitTptp:
    def test_cnf_mode_counts(self):
        ftsc = chain(MEDICAL)
        theorems = derive_theorems(ftsc)
        text = emit_tptp(ftsc, theorems, mode="cnf")
        assert text.count("cnf(") == 5
        assert text.count("conjecture") == 5
        assert check_tptp(text) == 10

    def test_single_literal_two_axioms(self):
        ftsc = chain(["x1"])
        text = emit_tptp(ftsc, mode="cnf")
        assert text.count("cnf(") == 2
        assert check_tptp(text) == 2

    def test_cnf_mode_lowercases_names(self):
        text = emit_tptp(chain(MEDICAL), mode="cnf")
        assert "infection" in text
        assert "Infection" not in text

    def test_cnf_mode_prefixes_names_that_cannot_start_a_token(self):
        # An empty predicate name, a digit and an underscore cannot start a TPTP atom.
        text = emit_tptp(chain(["(a)", "1b", "_c"]), mode="cnf")
        assert "cnf(dependency_3, axiom, (~x(a) | ~x1b | x_c))." in text
        assert check_tptp(text) == 4

    def test_fof_mode_healthcare(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "healthcare_data_sharing.yaml")
        ftsc = build_ftsc(scenario.signatures()[0])
        theorems = derive_theorems(ftsc)
        text = emit_tptp(ftsc, theorems, mode="fof", scenario=scenario)
        assert check_tptp(text) == 12
        assert "! [H,P,R]" in text
        assert "hasConsent(P)" in text

    def test_fof_quantifies_variables_not_constants(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "regulatory_export.yaml")
        ftsc = build_ftsc(scenario.signatures()[0])
        text = emit_tptp(ftsc, derive_theorems(ftsc), mode="fof", scenario=scenario)
        check_tptp(text)
        assert "complies(O,r1)" in text
        assert "complies(O,r2)" in text

    def test_fof_requires_scenario(self):
        with pytest.raises(MissingScenarioMetadataError):
            emit_tptp(chain(MEDICAL), mode="fof")

    def test_fof_refuses_a_scenario_of_another_size(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "healthcare_data_sharing.yaml")
        ftsc = chain(MEDICAL[: scenario.n - 1])
        message = f"scenario {scenario.name!r} declares {scenario.n} atoms, signature has"
        with pytest.raises(ArityMismatchError, match=re.escape(message)):
            emit_tptp(ftsc, mode="fof", scenario=scenario)

    def test_unknown_mode(self):
        # Refused by name, not by fof's want of a scenario.
        for mode in ("tff", "xyz"):
            with pytest.raises(ValueError, match=f"^unknown TPTP mode: '{mode}'$"):
                emit_tptp(chain(MEDICAL), mode=mode)

    def test_checker_rejects_garbage(self):
        with pytest.raises(TptpSyntaxError):
            check_tptp("cnf(foo, axiom, (A |).\n")

    def test_checker_rejects_a_predicate_at_two_arities(self):
        with pytest.raises(TptpSyntaxError, match="arities 0 and 1"):
            check_tptp("cnf(c1, axiom, (~p | p(a))).\n")


class TestReportRoundTrip:
    def _full_report(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        ftsc = build_ftsc(scenario.signatures()[0])
        theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
        explanations = [verbalize(t, scenario) for t in theorems]
        report = build_report(
            ftsc, theorems, scenario=scenario.name, replay_results=[True] * len(theorems)
        )
        return replace(report, explanations=tuple(explanations), ranking=rank(explanations))

    def test_lossless_roundtrip(self, scenario_dir):
        report = self._full_report(scenario_dir)
        again = Report.from_json(report.to_json())
        assert again == report
        assert again.to_json() == report.to_json()

    def test_schema_version_present(self, scenario_dir):
        report = self._full_report(scenario_dir)
        assert report.to_dict()["schema_version"] == 1

    def test_bare_report_roundtrip(self):
        ftsc = chain(["a", "b"])
        report = build_report(ftsc, derive_theorems(ftsc))
        assert Report.from_json(report.to_json()) == report

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t,
            lambda t: replace(t, conclusion=t.conclusion[::-1]),
            lambda t: replace(t, conclusion=(t.conclusion[0].negate(),) + t.conclusion[1:]),
            lambda t: replace(t, conclusion=t.conclusion + (neg("ghost"),)),
            lambda t: replace(t, removed_index=t.removed_index + 1),
        ],
        ids=["exact", "reordered", "flipped", "foreign", "shifted"],
    )
    def test_conclusion_text_is_each_literal_written(self, edit):
        ftsc = chain(["a", "b", "c", "d"])
        theorems = [edit(t) for t in derive_theorems(ftsc)]
        report = build_report(ftsc, theorems, timestamp="")
        assert [r.conclusion for r in report.theorems] == [
            tuple(str(l) for l in t.conclusion) for t in theorems
        ]


# Any code point, surrogates and control characters included, with the
# characters JSON escapes specially made likely.
_CHARACTERS = st.integers(0, 0x10FFFF).map(chr) | st.sampled_from(
    ["\x00", "\x1f", "\x7f", '"', "\\", "/", "\n", "\u2028", "\ud800", "\udfff", "é", "😀"]
)
_TEXT = st.text(_CHARACTERS, max_size=8)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, float("inf"), float("-inf"), float("nan")])
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestReportWriter:
    """``Report.to_json`` writes the text ``json.dumps(..., indent=2)`` does."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    @example(["a", 1, "b"])  # an all-string list broken after its first item
    @example([True, 1, 0, False, None])
    @example({"": [], "a": {}, "b": ((), [[]])})
    @example([2**100, -(2**64), -0.0, 1e300, float("inf"), float("nan")])
    @example(["\ud800", "\x00\x1f", "é\u2028😀"])
    def test_writer_matches_the_stdlib(self, value):
        assert _indented(value, "\n") == json.dumps(value, indent=2)

    def test_unserializable_value_refused_alike(self):
        for value in ([object()], {"a": {1, 2}}, ["a", b"b"]):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                _indented(value, "\n")

    def test_full_report(self, scenario_dir):
        report = TestReportRoundTrip()._full_report(scenario_dir)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(ESCAPED_SYMBOLS, st.data())
    def test_report_of_escaped_symbols(self, symbols, data):
        ftsc = chain(symbols)
        theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
        count = len(theorems)
        replays = data.draw(st.none() | st.lists(st.booleans(), min_size=count, max_size=count))
        report = build_report(ftsc, theorems, scenario=data.draw(st.none() | _TEXT),
                              replay_results=replays, timestamp=data.draw(_TEXT))
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"
        # Read back with what the templates do not cover.
        recorded = json.loads(report.to_json())
        record = data.draw(st.sampled_from(recorded["theorems"]))
        if data.draw(st.booleans(), label="a conclusion text outside the signature"):
            record["conclusion"].append(data.draw(st.sampled_from(["ghost\\é", "~ghost\\é"])))
        if data.draw(st.booleans(), label="an empty clause"):
            recorded["clauses"][data.draw(st.integers(0, len(recorded["clauses"]) - 1))] = []
        if data.draw(st.booleans(), label="any JSON in trace_replayed"):
            record["trace_replayed"] = data.draw(_JSON_VALUES)
        if data.draw(st.booleans(), label="any JSON in schema_version"):
            recorded["schema_version"] = data.draw(_JSON_VALUES)
        again = Report.from_dict(recorded)
        assert again.to_json() == json.dumps(again.to_dict(), indent=2) + "\n"


def test_timestamp_is_utc_to_the_second():
    before = datetime.now(timezone.utc).isoformat(timespec="seconds")
    stamp = current_timestamp()
    after = datetime.now(timezone.utc).isoformat(timespec="seconds")
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)
    assert stamp in (before, after)
