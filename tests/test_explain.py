"""Scenario loading, template verbalization, ranking, model-client degradation."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from contragen import (
    PredicateAtom,
    Signature,
    build_ftsc,
    check_theorem,
    derive_theorems,
    emit_tptp,
    load_scenario,
    rank,
    verbalize,
)
from contragen.cli import EXIT_OK, run_cli
from contragen.core import DuplicateSymbolError, EmptyInputError, SchemaViolationError
from contragen.explain import (
    PROVENANCE_MODEL,
    PROVENANCE_TEMPLATE,
    ROLE_BASE,
    ROLE_GENERIC,
    ROLE_GLOBAL,
    ROLE_INTERMEDIATE,
    ROLE_LOCAL,
    ROLE_TERMINAL,
    ArityMismatchError,
    HttpModelClient,
    ModelClientError,
    ScenarioParseError,
    StaticModelClient,
    UncertifiedTheoremError,
    build_model_request,
    explain_via_model,
    load_scenario_text,
    role_for_index,
)
from contragen.generator import permutation_by_rank

from conftest import SCENARIO_DIR, TWO_PATIENTS_SCENARIO

MINIMAL_SCENARIO = """
name: minimal
domain: Test
atoms:
  - symbol: OnlyFact
    gloss: the single fact
"""


def certified_theorems(scenario):
    ftsc = build_ftsc(scenario.signatures()[0])
    return ftsc, [check_theorem(t) for t in derive_theorems(ftsc)]


class TestLoadScenario:
    def test_healthcare_fixture(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "healthcare_data_sharing.yaml")
        assert scenario.n == 5
        assert [a.symbol for a in scenario.atoms] == [
            "HoldsData",
            "SharesData",
            "HasConsent",
            "Encrypts",
            "Retains",
        ]
        assert scenario.priority_for(3) == "High"
        assert scenario.remediation_for(3) == (
            "Require explicit consent or anonymization before sharing."
        )

    def test_contract_fixture(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "contract_terms.yaml")
        assert [a.symbol for a in scenario.atoms] == [
            "ExclusiveSupply",
            "TimelyDelivery",
            "PenaltyForDelay",
            "TerminationWithoutCause",
            "FixedPricing",
        ]

    @pytest.mark.parametrize(
        "path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem
    )
    def test_fixture_atoms_read_back_from_their_symbols(self, path):
        from contragen.core import split_symbol

        scenario = load_scenario(path)
        for signature in scenario.signatures():
            for symbol, atom in scenario.atoms_for(signature).items():
                assert isinstance(atom.predicate, PredicateAtom)
                head, args = split_symbol(symbol)
                assert (head, len(args)) == (atom.symbol, len(atom.predicate.args))

    def test_duplicate_atom_rejected(self):
        text = """
name: dup
domain: Test
atoms:
  - {symbol: A, gloss: first}
  - {symbol: A, gloss: second}
"""
        with pytest.raises(DuplicateSymbolError):
            load_scenario_text(text)

    def test_yaml_error_carries_line(self):
        with pytest.raises(ScenarioParseError) as info:
            load_scenario_text("name: [unclosed")
        assert info.value.line == 1
        assert str(info.value) == "<scenario>: line 1: a flow collection must close on the line it opens"

    @pytest.mark.parametrize(
        "mutation",
        [
            "name",  # missing name
            "atoms",  # missing atoms
        ],
    )
    def test_missing_required_field(self, mutation):
        base = {
            "name": "name: x",
            "atoms": "atoms:\n  - {symbol: A, gloss: g}",
        }
        text = "domain: Test\n"
        for key, chunk in base.items():
            if key != mutation:
                text += chunk + "\n"
        with pytest.raises(SchemaViolationError):
            load_scenario_text(text)

    def test_bad_priority_value(self):
        text = MINIMAL_SCENARIO + "priorities:\n  1: Urgent\n"
        with pytest.raises(SchemaViolationError, match="priorities: field 1 must be one of"):
            load_scenario_text(text)

    def test_remediation_index_range(self):
        text = MINIMAL_SCENARIO + "remediations:\n  - {index: 9, text: fix}\n"
        with pytest.raises(SchemaViolationError):
            load_scenario_text(text)

    def test_repeated_remediation_index_rejected(self):
        text = MINIMAL_SCENARIO + (
            "remediations:\n  - {index: 2, text: first fix}\n  - {index: 2, text: second fix}\n"
        )
        with pytest.raises(
            SchemaViolationError,
            match=r"remediations\[2\]: clause index 2 already has a remediation$",
        ) as info:
            load_scenario_text(text)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("grounding: [x]\n", "field 'grounding' must be dict, got list"),
            ("rule_texts: [x]\n", "field 'rule_texts' must be dict, got list"),
            ("priorities: 3\n", "field 'priorities' must be dict, got int"),
            ("grounding:\n", None),
        ],
    )
    def test_optional_mapping_fields(self, extra, message):
        text = MINIMAL_SCENARIO + extra
        if message is None:
            assert load_scenario_text(text).grounding == ()
            return
        with pytest.raises(SchemaViolationError, match=message):
            load_scenario_text(text)

    @pytest.mark.parametrize(
        "atom, extra, message",
        [
            ("", "remediations: 5\n", "field 'remediations' must be list, got int"),
            (", variables: 5", "", "field 'variables' must be list, got int"),
            (", variables: pq", "", "field 'variables' must be list, got str"),
            (", arity: true", "", "field 'arity' must be int, got bool"),
            (
                "",
                "remediations:\n  - {index: 1, text: fix, formal: [1, 2]}\n",
                "field 'formal' must be str, got list",
            ),
            ("", "grounding: {p: 5}\n", "field 'p' must be list, got int"),
            ("", "grounding: {p: ab}\n", "field 'p' must be list, got str"),
            (
                "",
                "rule_texts: {2: [a, b]}\n",
                "rule_texts: field 2 must be str, got list",
            ),
            (", arity: 3", "", "atoms\\[1\\]: arity 3 disagrees with 2 args"),
            ("", "rule_texts: {x: t}\n", "rule_texts: clause index must be an integer"),
            ("", "remediations: [5]\n", "remediations\\[1\\]: each remediation must be a mapping"),
            ("", "remediations:\n  - {index: 1, text: ' '}\n",
             "remediations\\[1\\]: text must be nonempty"),
        ],
        ids=["remediations-int", "variables-int", "variables-str", "arity-bool",
             "formal-list", "grounding-int", "grounding-str", "rule-text-list",
             "arity-disagrees", "index-not-int", "remediation-int", "remediation-blank"],
    )
    def test_mistyped_fields_rejected(self, atom, extra, message):
        text = (
            "name: bad\ndomain: Test\natoms:\n"
            f"  - {{symbol: A, args: [p, q], gloss: g{atom}}}\n" + extra
        )
        with pytest.raises(SchemaViolationError, match=message) as info:
            load_scenario_text(text)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("- a\n- b\n", "document must be a mapping"),
            ("name: x\ndomain: T\natoms: []\n", "atoms list must be nonempty"),
            ("name: x\ndomain: T\natoms:\n  - A\n", "atoms[1]: each atom must be a mapping"),
        ],
        ids=["list", "no-atoms", "atom-not-mapping"],
    )
    def test_document_shape_rejected(self, text, message):
        with pytest.raises(SchemaViolationError) as info:
            load_scenario_text(text)
        assert str(info.value) == f"<scenario>: {message}"

    def test_atom_args_must_be_strings(self):
        text = """
name: bad
domain: Test
atoms:
  - {symbol: A, args: [x, 3], variables: [x], gloss: g}
"""
        with pytest.raises(SchemaViolationError, match="'args' item 1 must be str"):
            load_scenario_text(text)

    def test_variable_not_in_args(self):
        text = """
name: bad
domain: Test
atoms:
  - {symbol: A, args: [x], variables: [y], gloss: g}
"""
        with pytest.raises(SchemaViolationError):
            load_scenario_text(text)


class TestRoles:
    def test_fixed_endpoints(self):
        assert role_for_index(1, 4) == ROLE_BASE
        assert role_for_index(5, 4) == ROLE_GLOBAL

    def test_interior_mapping_n4(self):
        assert role_for_index(2, 4) == ROLE_LOCAL
        assert role_for_index(3, 4) == ROLE_INTERMEDIATE
        assert role_for_index(4, 4) == ROLE_TERMINAL

    def test_two_literal_middle_is_generic(self):
        assert role_for_index(2, 2) == ROLE_GENERIC

    def test_totality(self):
        for n in range(1, 9):
            for i in range(1, n + 2):
                assert role_for_index(i, n)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            role_for_index(0, 3)


class TestVerbalize:
    def test_medical_treatment_clause(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        explanation = verbalize(theorems[3], scenario)
        assert explanation.removed_index == 4
        assert explanation.role_label == ROLE_TERMINAL
        assert "RequiresAntibiotics" in explanation.narrative
        assert (
            "qualifying criteria before automatic antibiotic recommendation"
            in explanation.remediation.lower()
        )
        assert explanation.provenance == PROVENANCE_TEMPLATE

    def test_contract_termination_clause(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "contract_supply.yaml")
        _, theorems = certified_theorems(scenario)
        explanation = verbalize(theorems[3], scenario)
        assert explanation.remediation == (
            "Restrict termination rights to 'for cause' or require "
            "notice/compensation."
        )

    def test_minimal_scenario_generic_remediation(self):
        scenario = load_scenario_text(MINIMAL_SCENARIO)
        _, theorems = certified_theorems(scenario)
        explanation = verbalize(theorems[0], scenario)
        assert explanation.role_label == ROLE_BASE
        assert "base predicate" in explanation.remediation

    def test_rule_text_quoted(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        explanation = verbalize(theorems[1], scenario)
        assert "white-blood-cell count" in explanation.narrative

    def test_uncertified_rejected(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        ftsc = build_ftsc(scenario.signatures()[0])
        with pytest.raises(UncertifiedTheoremError):
            verbalize(derive_theorems(ftsc)[0], scenario)

    def test_arity_mismatch(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        other = load_scenario_text(MINIMAL_SCENARIO)
        _, theorems = certified_theorems(scenario)
        with pytest.raises(ArityMismatchError):
            verbalize(theorems[0], other)

    def test_deterministic(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        a = verbalize(theorems[2], scenario)
        b = verbalize(theorems[2], scenario)
        assert a == b
        assert a.narrative == b.narrative


class TestRank:
    def _explanations(self, scenario_dir, name, indices=None):
        scenario = load_scenario(scenario_dir / name)
        _, theorems = certified_theorems(scenario)
        chosen = theorems if indices is None else [
            t for t in theorems if t.removed_index in indices
        ]
        return [verbalize(t, scenario) for t in chosen]

    def test_declared_priorities_order(self, scenario_dir):
        # one scenario-shaped input with declarations on 3, 5, 6
        scenario = load_scenario(scenario_dir / "healthcare_data_sharing.yaml")
        from contragen.core import replace as dc_replace

        _, theorems = certified_theorems(scenario)
        explanations = [
            verbalize(t, scenario) for t in theorems if t.removed_index in (3, 5, 6)
        ]
        explanations = [
            dc_replace(e, declared_priority={3: "High", 5: "Medium", 6: "Low"}[e.removed_index])
            for e in explanations
        ]
        report = rank(explanations)
        assert [e.explanation.removed_index for e in report.entries] == [3, 5, 6]
        assert [e.priority for e in report.entries] == ["High", "Medium", "Low"]

    def test_single_entry(self, scenario_dir):
        explanations = self._explanations(scenario_dir, "medical.yaml", {2})
        report = rank(explanations)
        assert len(report.entries) == 1
        assert report.entries[0].score == pytest.approx(0.9)

    def test_tie_broken_by_removed_index(self, scenario_dir):
        explanations = self._explanations(scenario_dir, "medical.yaml", {1, 3, 4})
        report = rank(explanations)  # 3 is the earliest conditional; 1 and 4 tie on Low
        assert [e.explanation.removed_index for e in report.entries] == [3, 1, 4]
        assert report.entries[1].score == report.entries[2].score

    def test_input_order_irrelevant(self, scenario_dir):
        explanations = self._explanations(scenario_dir, "medical.yaml")
        forward = rank(explanations)
        backward = rank(list(reversed(explanations)))
        assert [e.explanation.removed_index for e in forward.entries] == [
            e.explanation.removed_index for e in backward.entries
        ]

    def test_priorities_never_inverted(self, scenario_dir):
        explanations = self._explanations(scenario_dir, "medical.yaml")
        report = rank(explanations)
        order = {"High": 0, "Medium": 1, "Low": 2}
        ranks = [order[e.priority] for e in report.entries]
        assert ranks == sorted(ranks)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            rank([])

    def test_model_policy_clamps(self, scenario_dir):
        from contragen.core import replace as dc_replace

        explanations = self._explanations(scenario_dir, "medical.yaml", {1, 3})
        boosted = [
            dc_replace(explanations[0], model_score=7.5),
            dc_replace(explanations[1], model_score=-0.2),
        ]
        report = rank(boosted)
        assert report.entries[0].score == 1.0
        assert report.entries[1].score == 0.0
        assert report.entries[0].priority == "High"
        assert report.entries[1].priority == "Low"


class TestExplainViaModel:
    def test_fixture_roundtrip(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        client = StaticModelClient(
            {"narrative": "fixture text", "remediation": "fixture fix", "score": 0.8}
        )
        explanation = explain_via_model(theorems[2], scenario, client=client)
        assert explanation.narrative == "fixture text"
        assert explanation.remediation == "fixture fix"
        assert explanation.provenance == PROVENANCE_MODEL
        assert explanation.model_score == pytest.approx(0.8)
        # request carries the agreed wire schema
        request = client.requests[0]
        assert set(request) == {"scenario", "clauses", "removed_index", "trace_summary"}
        assert request["removed_index"] == 3

    def test_failing_client_degrades_to_template(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        client = StaticModelClient(error=ModelClientError("connection refused"))
        explanation = explain_via_model(theorems[2], scenario, client=client)
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert explanation.warnings
        assert "connection refused" in explanation.warnings[0]
        assert explanation.narrative == verbalize(theorems[2], scenario).narrative

    def test_schema_violation_degrades(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        client = StaticModelClient({"narrative": "", "score": "high"})
        explanation = explain_via_model(theorems[2], scenario, client=client)
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert explanation.warnings

    @pytest.mark.parametrize(
        "response, message",
        [
            ({"narrative": "x", "remediation": 5, "score": 0.5},
             "response field 'remediation' must be a string"),
            ({"narrative": "x", "score": "0.5"}, "response field 'score' must be a number"),
            ({"score": 0.5}, "response field 'narrative' must be a nonempty string"),
            ({"narrative": " ", "score": 0.5},
             "response field 'narrative' must be a nonempty string"),
            ({"narrative": 7, "score": 0.5},
             "response field 'narrative' must be a nonempty string"),
        ],
        ids=["remediation-int", "score-str", "narrative-missing", "narrative-blank",
             "narrative-int"],
    )
    def test_mistyped_response_field_degrades(self, scenario_dir, response, message):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        explanation = explain_via_model(theorems[2], scenario, StaticModelClient(response))
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert explanation.narrative == verbalize(theorems[2], scenario).narrative
        assert explanation.warnings == (
            f"external model unavailable ({message}); template output used",
        )

    def test_unconfigured_endpoint_degrades(self, scenario_dir, monkeypatch):
        monkeypatch.delenv("CONTRAGEN_MODEL_ENDPOINT", raising=False)
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        explanation = explain_via_model(theorems[2], scenario)
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert "no model endpoint configured" in explanation.warnings[0]

    def test_unreachable_endpoint_degrades(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        client = HttpModelClient(endpoint="http://127.0.0.1:1/does-not-exist", timeout=0.2)
        explanation = explain_via_model(theorems[2], scenario, client=client)
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert explanation.warnings

    def test_bad_status_line_degrades(self, scenario_dir, monkeypatch):
        import socket
        from threading import Thread

        for proxy in ("http_proxy", "HTTP_PROXY"):  # the server is on loopback
            monkeypatch.delenv(proxy, raising=False)
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def answer(connections):
            # Not HTTP, so http.client reads the reply as a bad status line.
            for _ in range(connections):
                connection, _ = listener.accept()
                with connection:
                    connection.recv(65536)
                    connection.sendall(b"HELLO THERE\r\n")

        thread = Thread(target=answer, args=(2,), daemon=True)
        thread.start()
        try:
            endpoint = f"http://127.0.0.1:{listener.getsockname()[1]}/"
            client = HttpModelClient(endpoint=endpoint, timeout=5)
            with pytest.raises(ModelClientError, match="model request failed"):
                client.complete({"removed_index": 1})
            scenario = load_scenario(scenario_dir / "medical.yaml")
            _, theorems = certified_theorems(scenario)
            explanation = explain_via_model(theorems[2], scenario, client=client)
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert "model request failed" in explanation.warnings[0]

    @pytest.mark.parametrize(
        "body, cause",
        [
            (b"not json", "model response was not JSON"),
            (b"[0.9]", "model response must be a JSON object"),
        ],
        ids=["not-json", "array"],
    )
    def test_unusable_body_degrades_and_the_key_is_sent(
        self, scenario_dir, monkeypatch, body, cause
    ):
        import http.server
        from threading import Thread

        for proxy in ("http_proxy", "HTTP_PROXY"):  # the server is on loopback
            monkeypatch.delenv(proxy, raising=False)
        monkeypatch.setenv("CONTRAGEN_MODEL_KEY", "k3y")
        seen = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                seen.append(self.headers["Authorization"])
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpModelClient(endpoint=f"http://127.0.0.1:{server.server_port}/", timeout=5)
            scenario = load_scenario(scenario_dir / "medical.yaml")
            _, theorems = certified_theorems(scenario)
            explanation = explain_via_model(theorems[2], scenario, client=client)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == ["Bearer k3y"]
        assert explanation.provenance == PROVENANCE_TEMPLATE
        assert explanation.narrative == verbalize(theorems[2], scenario).narrative
        assert len(explanation.warnings) == 1 and cause in explanation.warnings[0]

    @pytest.mark.parametrize(
        "endpoint",
        ["file://{path}", 'data:application/json,{{"narrative": "x", "score": 1}}'],
        ids=["file", "data"],
    )
    def test_non_http_endpoint_degrades(self, scenario_dir, tmp_path, endpoint):
        response = tmp_path / "response.json"
        response.write_text('{"narrative": "Nothing is wrong", "score": 0.99}')
        client = HttpModelClient(endpoint=endpoint.format(path=response))
        with pytest.raises(ModelClientError, match="must be an http or https URL"):
            client.complete({"removed_index": 1})
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        for theorem in theorems:
            explanation = explain_via_model(theorem, scenario, client=client)
            assert explanation.provenance == PROVENANCE_TEMPLATE
            assert explanation.narrative == verbalize(theorem, scenario).narrative
            assert len(explanation.warnings) == 1

    def test_uncertified_still_rejected(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        ftsc = build_ftsc(scenario.signatures()[0])
        client = StaticModelClient({"narrative": "x", "score": 0.5})
        with pytest.raises(UncertifiedTheoremError):
            explain_via_model(derive_theorems(ftsc)[0], scenario, client=client)

    def test_request_mentions_removed_clause(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "medical.yaml")
        _, theorems = certified_theorems(scenario)
        request = build_model_request(theorems[3], scenario)
        assert request["removed_index"] == 4
        assert str(theorems[3].removed_index) in request["trace_summary"]
        assert len(request["clauses"]) == 5


class TestInstanceMatching:
    def test_permuted_second_instance_resolves_its_atoms(self):
        scenario = load_scenario_text(TWO_PATIENTS_SCENARIO)
        signature = permutation_by_rank(scenario.signatures()[1], 3)
        assert signature.symbols == ("Consents(bob)", "Audited", "Holds(bob)")
        assert scenario.gloss_map(signature) == {
            "Holds(bob)": "data about patient p is held",
            "Consents(bob)": "patient p consents",
            "Audited": "the holder is audited",
        }
        ftsc = build_ftsc(signature)
        theorems = [check_theorem(t) for t in derive_theorems(ftsc)]
        narrative = verbalize(theorems[0], scenario).narrative
        assert "'Consents(bob)' (patient p consents)" in narrative
        text = emit_tptp(ftsc, theorems, mode="fof", scenario=scenario)
        assert "fof(dependency_1, axiom, ! [P] : (consents(P)))." in text
        assert (
            "fof(dependency_3, axiom, ! [P] : (~consents(P) | ~audited | holds(P)))."
            in text
        )

    def test_signature_matching_no_instance(self):
        scenario = load_scenario_text(TWO_PATIENTS_SCENARIO)
        mixed = Signature(("Holds(alice)", "Consents(bob)", "Audited"))
        with pytest.raises(ArityMismatchError, match="any ground instance"):
            scenario.gloss_map(mixed)
        with pytest.raises(ArityMismatchError, match="any ground instance"):
            emit_tptp(build_ftsc(mixed), mode="fof", scenario=scenario)


NARRATIVES_GOLDEN = Path(__file__).parent / "golden" / "explain_narratives.txt"


def _explain_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(["explain", *argv]) == EXIT_OK
    return out.getvalue()


def fixture_narratives() -> str:
    """Every fixture's explanations at permutation 0, then its --table text."""
    blocks = []
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        report = json.loads(_explain_output(str(path)))
        lines = [f"== {path.name}"]
        for e in report["explanations"]:
            lines += [
                f"-- clause {e['removed_index']}: {e['role_label']}, "
                f"priority {e['declared_priority']}",
                f"remediation: {e['remediation']}",
                f"narrative: {e['narrative']}",
            ]
        lines.append("-- table")
        blocks.append("\n".join(lines) + "\n" + _explain_output(str(path), "--table"))
    return "".join(blocks)


def test_fixture_narratives_match_golden():
    assert fixture_narratives() == NARRATIVES_GOLDEN.read_text(encoding="utf-8")
