"""CLI subcommands, exit codes, determinism."""

import contextlib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from contragen import cli
from contragen.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION, run_cli
from contragen.report import Report

from conftest import ESCAPED_SYMBOLS, SCENARIO_DIR, TWO_PATIENTS_SCENARIO, tamper_step

MEDICAL = ["Infection", "HighWBC", "Fever", "RequiresAntibiotics"]


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


class TestGenerate:
    def test_medical_report(self, capsys):
        code, out, _ = run(capsys, "generate", *MEDICAL)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["metadata"]["n"] == 4
        assert len(report["theorems"]) == 5
        assert all(t["certified"] == "verified" for t in report["theorems"])
        assert all(t["trace_replayed"] for t in report["theorems"])
        assert report["clauses"][0] == ["Infection"]

    def test_scenario_positional(self, capsys, scenario_dir):
        code, out, _ = run(capsys, "generate", str(scenario_dir / "medical.yaml"))
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["scenario"] == "medical-diagnosis"

    def test_permutation_flag(self, capsys):
        code, out, _ = run(capsys, "generate", "a", "b", "c", "--permutation", "1")
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["permutation"] == ["a", "c", "b"]

    def test_validation_failure(self, capsys):
        code, _, err = run(capsys, "generate", "a", "~a")
        assert code == EXIT_VALIDATION
        assert "negation" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "generate")
        assert code == EXIT_VALIDATION

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "generate", "a", "b", "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["metadata"]["n"] == 2

    def test_deterministic_modulo_timestamp(self, capsys):
        _, first, _ = run(capsys, "generate", *MEDICAL)
        _, second, _ = run(capsys, "generate", *MEDICAL)
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_failed_replay_named_on_stderr(self, capsys, monkeypatch):
        import contragen.generator as generator

        # Step 9, ~Fever, is the theorem lemma of removal 3 alone. Made to cite
        # the removed clause 3 (hint 2) in place of E3, its hint is satisfied.
        proof = tamper_step(generator._chain_proof(4), 9, hints=(2,))
        monkeypatch.setattr(generator, "_chain_proof", lambda n: proof)
        code, out, err = run(capsys, "generate", *MEDICAL)
        assert code == EXIT_VERIFICATION
        assert err == "theorem 3: trace step 9: hint 2 is satisfied\n"
        theorems = json.loads(out)["theorems"]
        assert [t["trace_replayed"] for t in theorems] == [True, True, False, True, True]
        assert all(t["certified"] == "verified" for t in theorems)


class TestEnumerate:
    def test_three_literals(self, capsys):
        code, out, _ = run(capsys, "enumerate", "a", "b", "c")
        assert code == EXIT_OK
        assert "permutations=6 expected=6 distinct=6 entailments=24" in out
        assert "certified=6/6" in out

    def test_repeated_set_fails(self, capsys, monkeypatch):
        import contragen.cli as cli

        genuine = cli.enumerate_ftscs

        def repeating(signature, **kwargs):
            stream = list(genuine(signature, **kwargs))
            stream[3] = stream[2]  # same count, one set twice
            return iter(stream)

        monkeypatch.setattr(cli, "enumerate_ftscs", repeating)
        code, out, _ = run(capsys, "enumerate", "a", "b", "c")
        assert code == EXIT_VERIFICATION
        assert "permutations=6 expected=6 distinct=5 " in out

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "enumerate", *[f"x{i}" for i in range(1, 13)])
        assert code == EXIT_VALIDATION
        assert "cap" in err

    def test_default_cap_is_the_generator_constant(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_ENUMERATION_CAP", 3)
        code, _, err = run(capsys, "enumerate", "a", "b", "c", "d")
        assert code == EXIT_VALIDATION
        assert "4 literals mean 4! permutations" in err

    def test_cap_override(self, capsys):
        literals = [f"x{i}" for i in range(1, 5)]
        code, out, _ = run(capsys, "enumerate", *literals, "--n-cap", "4", "--no-certify")
        assert code == EXIT_OK
        assert "permutations=24" in out

    def test_cap_error_names_the_flag(self, capsys):
        code, out, err = run(capsys, "enumerate", "a", "b", "--n-cap", "1")
        assert code == EXIT_VALIDATION and out == ""
        assert err == (
            "error: 2 literals mean 2! permutations, above --n-cap 1; raise it with --n-cap 2\n"
        )
        assert "cap=None" not in err

    @pytest.mark.parametrize("value", ["-1", "-7"])
    def test_negative_cap_is_a_usage_error(self, capsys, value):
        code, out, err = run(capsys, "enumerate", "a", "b", "--n-cap", value)
        assert code == EXIT_VALIDATION and out == ""
        assert err == f"usage error: argument --n-cap: must not be negative: {value}\n"

    def test_zero_cap_refuses_every_input(self, capsys):
        code, _, err = run(capsys, "enumerate", "a", "--n-cap", "0")
        assert code == EXIT_VALIDATION
        assert "raise it with --n-cap 1" in err

    def test_failed_certification_names_the_condition(self, capsys, monkeypatch):
        from contragen.core import replace

        genuine = cli.derive_theorems

        def tampered(ftsc):
            theorems = genuine(ftsc)
            # Theorem 2 of the second order loses its last conjunct.
            if ftsc.permutation == ("b", "a"):
                theorems[1] = replace(theorems[1], conclusion=theorems[1].conclusion[:-1])
            return theorems

        monkeypatch.setattr(cli, "derive_theorems", tampered)
        code, out, _ = run(capsys, "enumerate", "a", "b")
        assert code == EXIT_VERIFICATION
        assert out.splitlines() == [
            "perm 0: (a, b) certified",
            "perm 1: (b, a) FAILED: conclusion not the negated clause 2",
            "permutations=2 expected=2 distinct=2 entailments=6 certified=1/2",
        ]


def _other_mus(data):
    # Another minimal unsatisfiable set over a, b; all its theorems hold.
    data["clauses"] = [["a", "b"], ["~a"], ["~b"]]
    for theorem, conclusion in zip(data["theorems"], [["~a", "~b"], ["a"], ["b"]]):
        theorem["conclusion"] = conclusion


def _no_symbols(data):
    # One empty clause over no symbols, and its one theorem.
    data["metadata"].update(n=0, permutation=[])
    data.update(signature=[], clauses=[[]], theorems=data["theorems"][:1])
    data["theorems"][0]["conclusion"] = []


_EXPLANATION = {
    "scenario": "s", "permutation": ["a"], "removed_index": 1, "role_label": "r",
    "narrative": "n", "remediation": "m", "provenance": "template",
    "declared_priority": None, "model_score": None, "warnings": [],
}

# Inputs of the genuine reports the edit test starts from: n <= 6, a
# permuted order, a ground binary atom and a scenario.
_EDIT_SOURCES = (
    ("a",),
    ("a", "b", "c"),
    ("a", "P(x,y)", "c", "d", "--permutation", "5"),
    ("a", "b", "c", "d", "e", "f"),
    (str(SCENARIO_DIR / "medical.yaml"), "--permutation", "3"),
)


@functools.lru_cache(maxsize=None)
def _genuine_report(source: int) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run_cli(["generate", *_EDIT_SOURCES[source]]) == EXIT_OK
    return out.getvalue()


def _verify_text(text: str) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as work:
        target = Path(work) / "report.json"
        target.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["verify", str(target)])
    return code, out.getvalue(), err.getvalue()


def _paths(value, path=()):
    """Every path in a report outside the fields verify does not regenerate."""
    if path in (("metadata", "timestamp"), ("explanations",), ("ranking",)):
        return
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats(-2, 70)
    | st.sampled_from(["", "a", "~a", "c", "~c", "P(x,y)", "verified", "failed"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from("ab"), inner, max_size=2),
    max_leaves=5,
)


def _at(data, path):
    return functools.reduce(lambda value, key: value[key], path, data)


@st.composite
def _report_edits(draw):
    """(source, path, kind, value): one edit of a genuine report. The kinds
    replace a value, reorder a list, drop an item or key, or add one."""
    source = draw(st.integers(0, len(_EDIT_SOURCES) - 1))
    data = json.loads(_genuine_report(source))
    path = draw(st.sampled_from(list(_paths(data))))
    node = _at(data, path)
    kinds = ["replace"] if path else []
    if isinstance(node, list):
        kinds += ["add", "drop"] if node else ["add"]
        if len(set(map(json.dumps, node))) > 1:
            kinds.append("reorder")
    elif isinstance(node, dict):
        kinds += ["add", "drop"]
    kind = draw(st.sampled_from(kinds))
    value = None
    if kind == "drop":
        keys = range(len(node)) if isinstance(node, list) else node.keys() - {"timestamp"}
        value = draw(st.sampled_from(sorted(keys)))
    elif kind != "reorder":
        value = draw(_JSON)
    if kind == "replace":
        # The scenario name is an input that a v1 report records but cannot
        # be regenerated from; a null trace_replayed records no replay run.
        assume(json.dumps(node) != json.dumps(value))
        assume(path != ("metadata", "scenario") or not isinstance(value, (str, type(None))))
        assume(path[-1] != "trace_replayed" or value is not None)
    return source, path, kind, value


def _apply_edit(data, path, kind, value):
    node = _at(data, path)
    if kind == "replace":
        _at(data, path[:-1])[path[-1]] = value
    elif kind == "reorder":
        node.append(node.pop(0))
    elif kind == "drop":
        del node[value]
    elif isinstance(node, list):
        node.append(value)
    else:
        node["extra"] = value


class TestVerify:
    def test_valid_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        run(capsys, "generate", *MEDICAL, "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out

    def test_report_suffix_in_any_case(self, capsys, tmp_path):
        # The reader is chosen by the suffix, whatever its case.
        target = tmp_path / "r.JSON"
        run(capsys, "generate", *MEDICAL, "--output", str(target))
        code, out, err = run(capsys, "verify", str(target))
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "verification passed"

    @settings(max_examples=50, deadline=None)
    @given(ESCAPED_SYMBOLS)
    def test_generated_report_of_escaped_symbols(self, symbols):
        with tempfile.TemporaryDirectory() as work:
            target = str(Path(work) / "report.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(["generate", *symbols, "--output", target]) == EXIT_OK
            text = Path(target).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert run_cli(["verify", target]) == EXIT_OK
        assert out.getvalue().splitlines()[-1] == "verification passed"

    def test_tampered_conclusion(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        run(capsys, "generate", *MEDICAL, "--output", str(target))
        data = json.loads(target.read_text())
        conclusion = data["theorems"][3]["conclusion"]
        conclusion[-1] = conclusion[-1].lstrip("~")  # flip ~X to X
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        assert "failed" in out

    def test_dimacs_input(self, capsys, tmp_path):
        target = tmp_path / "chain.cnf"
        run(capsys, "export", "a", "b", "c", "--format", "dimacs", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "minimal" in out

    def test_non_mus_dimacs(self, capsys, tmp_path):
        target = tmp_path / "loose.cnf"
        target.write_text("p cnf 2 3\n1 0\n-1 0\n2 0\n")
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION

    @staticmethod
    def scrambled_chain(capsys, tmp_path, n):
        """A chain export's clause lines, as lists of literals, after its
        variables are renumbered (``c var`` names kept) and the literals in
        each clause and the clause lines are shuffled; and the ``c var``
        lines."""
        source = tmp_path / "chain.cnf"
        symbols = [f"s{k}" for k in range(n)]
        run(capsys, "export", *symbols, "--format", "dimacs", "--output", str(source))
        rng = random.Random(n)
        number = list(range(1, n + 1))
        rng.shuffle(number)  # variable v becomes number[v - 1]
        names = [f"c var {number[v]} {symbol}" for v, symbol in enumerate(symbols)]
        clauses = []
        for line in source.read_text().splitlines():
            if not line.startswith(("c", "p")):
                literals = [int(l) for l in line.split()[:-1]]
                clauses.append([number[abs(l) - 1] * (1 if l > 0 else -1) for l in literals])
                rng.shuffle(clauses[-1])
        rng.shuffle(clauses)
        return clauses, names

    @staticmethod
    def verify_dimacs(capsys, tmp_path, clauses, names):
        target = tmp_path / "input.cnf"
        body = [" ".join(map(str, c)) + " 0" for c in clauses]
        target.write_text("\n".join(names + [f"p cnf {len(names)} {len(clauses)}"] + body) + "\n")
        return run(capsys, "verify", str(target))

    @pytest.mark.parametrize("n", [14, 64, 256])
    def test_scrambled_chain_export_is_certified_without_search(
        self, n, capsys, tmp_path, monkeypatch
    ):
        import contragen.verifier as verifier

        clauses, names = self.scrambled_chain(capsys, tmp_path, n)
        searched = []
        search = verifier.is_satisfiable

        def counting_search(clause_set):
            searched.append(clause_set)
            return search(clause_set)

        monkeypatch.setattr(verifier, "is_satisfiable", counting_search)
        assert self.verify_dimacs(capsys, tmp_path, clauses, names) == (
            EXIT_OK,
            "unsatisfiable: True\nminimal (every deletion satisfiable): True\n"
            "verification passed\n",
            "",
        )
        assert searched == []

    @pytest.mark.parametrize("tamper", ["flip", "drop", "duplicate"])
    @pytest.mark.parametrize("n", [14, 64])
    def test_scrambled_near_chain_keeps_its_verdict(self, n, tamper, capsys, tmp_path):
        # A flipped literal or a dropped clause leaves a chain satisfiable;
        # a duplicated clause leaves it unsatisfiable but not minimal.
        clauses, names = self.scrambled_chain(capsys, tmp_path, n)
        k = random.Random(n).randrange(len(clauses))
        if tamper == "flip":
            clauses[k][0] = -clauses[k][0]
        elif tamper == "drop":
            del clauses[k]
        else:
            clauses.insert(0, clauses[k])
        unsatisfiable = tamper == "duplicate"
        assert self.verify_dimacs(capsys, tmp_path, clauses, names) == (
            EXIT_VERIFICATION,
            f"unsatisfiable: {unsatisfiable}\nminimal (every deletion satisfiable): False\n"
            "verification FAILED\n",
            "",
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/report.json")
        assert code == EXIT_VALIDATION

    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "nested.json"
        target.write_text("[" * 200_000)
        code, out, err = run(capsys, "verify", str(target))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {target}: JSON nested too deeply to read\n"

    def test_nesting_near_the_recursion_limit(self, capsys, tmp_path):
        # Shallow enough to load but deep enough that comparing it recurses
        # past the limit somewhere in this range, wherever the stack stands.
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "--output", str(target))
        text = target.read_text()
        limit = sys.getrecursionlimit()
        for depth in range(limit - 200, limit + 10):
            deep = "[" * depth + "]" * depth
            target.write_text(text.replace('"certified"', f'"deep": {deep}, "certified"', 1))
            code, out, err = run(capsys, "verify", str(target))
            assert (code, out.splitlines()[-1:], err) in (
                (EXIT_VERIFICATION, ["verification FAILED"], ""),
                (EXIT_VALIDATION, [], f"error: {target}: JSON nested too deeply to read\n"),
            ), depth

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (
                lambda data: data["theorems"].clear(),
                'theorems: theorems[0] recorded (absent), regenerated {"removed_index": 1, '
                '"conclusion": ["~a"], "certified": "verified", "trace_steps": 5, '
                '"trace_replayed": null}',
            ),
            (
                lambda data: data.update(theorems=[data["theorems"][0]] * 4),
                "theorems: theorems[1].removed_index recorded 1, regenerated 2",
            ),
            (
                lambda data: data["clauses"].pop(),
                "clauses: recorded 6 literals, the chain over 3 symbols has 9",
            ),
        ],
        ids=["no-theorems", "theorem-1-four-times", "clause-missing"],
    )
    def test_theorem_coverage(self, capsys, tmp_path, tamper, message):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        data = json.loads(target.read_text())
        tamper(data)
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        assert message in out.splitlines()
        assert out.endswith("verification FAILED\n")

    @pytest.mark.parametrize(
        "tamper, expected",
        [
            (
                lambda data: data["signature"].append({"symbol": "d", "arity": 0}),
                'signature: signature[3] recorded {"symbol": "d", "arity": 0}, '
                "regenerated (absent)",
            ),
            (
                lambda data: data["metadata"].update(permutation=["c", "b", "a"]),
                'signature: signature[0].symbol recorded "a", regenerated "c"',
            ),
        ],
        ids=["extra-symbol", "permutation-reordered"],
    )
    def test_signature_matches_n_and_permutation(self, capsys, tmp_path, tamper, expected):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        data = json.loads(target.read_text())
        tamper(data)
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        assert expected in out.splitlines()
        assert out.endswith("verification FAILED\n")

    def test_recorded_arity_checked(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "P(x,y)", "c", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        data = json.loads(target.read_text())
        assert [s["arity"] for s in data["signature"]] == [0, 2, 0]
        data["signature"][0]["arity"] = 5
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        lines = [line for line in out.splitlines() if line.startswith("signature:")]
        assert lines == ["signature: signature[0].arity recorded 5, regenerated 0"]
        assert out.endswith("verification FAILED\n")

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_other_mus, "clauses: recorded 4 literals, the chain over 2 symbols has 5"),
            (
                _no_symbols,
                "metadata: metadata.permutation is not admissible: "
                "at least one input literal is required",
            ),
        ],
        ids=["other-mus", "no-symbols"],
    )
    def test_clauses_are_the_chain(self, capsys, tmp_path, tamper, message):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        data = json.loads(target.read_text())
        tamper(data)
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        lines = out.splitlines()
        assert lines[-2:] == [message, "verification FAILED"]
        assert all(not line.endswith(": failed") for line in lines)

    @pytest.mark.parametrize(
        "position, field, value, message",
        [
            (
                1, "trace_replayed", False,
                "theorems: theorems[1].trace_replayed recorded false, regenerated true",
            ),
            (
                2, "trace_steps", 999,
                "theorems: theorems[2].trace_steps recorded 999, regenerated 5",
            ),
        ],
        ids=["replay-false", "steps-999"],
    )
    def test_trace_fields_checked(self, capsys, tmp_path, position, field, value, message):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        data = json.loads(target.read_text())
        data["theorems"][position][field] = value
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        assert out.splitlines()[-2:] == [message, "verification FAILED"]

    def test_unreplayed_trace_passes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        data = json.loads(target.read_text())
        for theorem in data["theorems"]:
            theorem["trace_replayed"] = None
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out

    def test_each_set_decided_once_per_command(self, capsys, tmp_path, monkeypatch):
        import contragen.verifier as verifier

        searched, checked = [], []
        search, check = verifier.is_satisfiable, verifier._checked_models

        def counting_search(clause_set):
            searched.append(clause_set)
            return search(clause_set)

        def counting_check(clause_set):
            checked.append(clause_set)
            return check(clause_set)

        monkeypatch.setattr(verifier, "is_satisfiable", counting_search)
        monkeypatch.setattr(verifier, "_checked_models", counting_check)
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, "generate", "a", "b", "c", "d", "e", "--output", str(target))
        assert code == EXIT_OK
        # The chain is certified from the candidates it derives, once; nothing is searched.
        assert (len(checked), len(searched)) == (1, 0)
        checked.clear()
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        assert (len(checked), len(searched)) == (1, 0)

    def test_verify_checks_minimality_once(self, capsys, tmp_path, monkeypatch):
        import contragen.verifier as verifier

        calls = []
        check_mus = verifier.check_mus

        def counting_check_mus(clause_set, *args, **kwargs):
            calls.append(clause_set)
            return check_mus(clause_set, *args, **kwargs)

        target = tmp_path / "report.json"
        symbols = [f"s{i}" for i in range(1, 65)]
        code, _, _ = run(capsys, "generate", *symbols, "--output", str(target))
        assert code == EXIT_OK
        monkeypatch.setattr(verifier, "check_mus", counting_check_mus)
        monkeypatch.setattr(cli, "check_mus", counting_check_mus)
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert out.splitlines()[:2] == [
            "unsatisfiable: True", "minimal (every deletion satisfiable): True"
        ]
        # Certifying the theorems and printing the verdict read one check.
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (
                lambda data: data["metadata"].pop("n"),
                "report metadata: missing required field 'n'",
            ),
            (
                lambda data: data["metadata"].update(n="x"),
                "report metadata: field 'n' must be int, got str",
            ),
            (
                lambda data: data["metadata"].update(n=True),
                "report metadata: field 'n' must be int, got bool",
            ),
            (
                lambda data: data.update(signature={}),
                "report: field 'signature' must be list, got dict",
            ),
            (
                lambda data: data["clauses"][0].append(7),
                "literal must be a string, got int",
            ),
            (
                lambda data: data["theorems"][1].update(conclusion="~b"),
                "report theorems[1]: field 'conclusion' must be list, got str",
            ),
            (
                lambda data: data.update(ranking={"policy": "p"}),
                "report ranking: missing required field 'entries'",
            ),
            (
                lambda data: data.update(explanations=[7]),
                "report: field 'explanations' item 0 must be dict, got int",
            ),
            (
                lambda data: data.update(metadata=[]),
                "report: field 'metadata' must be dict, got list",
            ),
        ],
        ids=["n-missing", "n-string", "n-bool", "signature-object",
             "literal-number", "conclusion-string", "ranking-entries-missing",
             "explanation-number", "metadata-list"],
    )
    def test_malformed_report_names_field(self, capsys, tmp_path, tamper, message):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        data = json.loads(target.read_text())
        tamper(data)
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(target))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (
                lambda data: data["theorems"][2].update(certified="failed"),
                'theorems: theorems[2].certified recorded "failed", regenerated "verified"',
            ),
            (
                lambda data: [t.update(certified="unchecked") for t in data["theorems"]],
                'theorems: theorems[0].certified recorded "unchecked", regenerated "verified"',
            ),
            (
                lambda data: data["metadata"].update(tool="other"),
                'metadata: metadata.tool recorded "other", regenerated "contragen"',
            ),
            (
                lambda data: data["metadata"].update(version="9.9"),
                f'metadata: metadata.version recorded "9.9", regenerated "{cli.__version__}"',
            ),
            (
                lambda data: data.update(schema_version=2),
                "schema_version: schema_version recorded 2, regenerated 1",
            ),
            (
                lambda data: data["clauses"][2].reverse(),
                'clauses: clauses[2][0] recorded "c", regenerated "~a"',
            ),
            (
                lambda data: data["theorems"][2]["conclusion"].reverse(),
                'theorems: theorems[2].conclusion[0] recorded "~c", regenerated "a"',
            ),
            (
                lambda data: data.update(extra=1),
                "extra: extra recorded 1, regenerated (absent)",
            ),
            (
                lambda data: data["explanations"].append(_EXPLANATION),
                f"explanations: explanations[0] recorded {json.dumps(_EXPLANATION)}, "
                "regenerated (absent)",
            ),
        ],
        ids=["certified-failed", "all-unchecked", "tool", "version", "schema-version",
             "clause-reversed", "conclusion-reordered", "extra-key", "explanation-added"],
    )
    def test_regenerated_report_names_first_difference(self, capsys, tmp_path, tamper, message):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out
        data = json.loads(target.read_text())
        tamper(data)
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_VERIFICATION
        assert out.splitlines()[-2:] == [message, "verification FAILED"]

    # How verify reads recorded literal texts. A clause text must parse and
    # name a listed symbol; a conclusion text must parse. Then the comparison
    # names what differs.
    @pytest.mark.parametrize(
        "value, clause, conclusion",
        [
            ("!a", (2, '"!a"'), (2, '"!a"')),
            (" ~a ", (2, '" ~a "'), (2, '" ~a "')),
            ("¬a", (2, '"\\u00aca"'), (2, '"\\u00aca"')),
            ("~~a", (2, '"~~a"'), (2, '"~~a"')),
            (["a"], (1, "literal must be a string, got list"),
             (1, "literal must be a string, got list")),
            (7, (1, "literal must be a string, got int"),
             (1, "literal must be a string, got int")),
            ("zz", (1, "unbound symbol: 'zz'"), (2, '"zz"')),
            ("~zz", (1, "unbound symbol: 'zz'"), (2, '"~zz"')),
        ],
        ids=["bang", "padded", "not-sign", "double-negation", "list", "number",
             "unknown", "unknown-negated"],
    )
    def test_recorded_literal_texts(self, capsys, tmp_path, value, clause, conclusion):
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        genuine = target.read_text()
        checks = (
            (("clauses", 0, 0), clause, "clauses: clauses[0][0]", ""),
            (("theorems", 1, "conclusion", 0), conclusion,
             "theorems: theorems[1].conclusion[0]",
             "unsatisfiable: True\nminimal (every deletion satisfiable): True\n"
             "theorem 1: verified\ntheorem 2: failed\ntheorem 3: verified\n"
             "theorem 4: verified\n"),
        )
        for path, (code, message), where, lines in checks:
            data = json.loads(genuine)
            _at(data, path[:-1])[path[-1]] = value
            target.write_text(json.dumps(data))
            if code == EXIT_VALIDATION:
                expected = (EXIT_VALIDATION, "", f"error: {message}\n")
            else:
                out = f'{lines}{where} recorded {message}, regenerated "a"\n'
                expected = (EXIT_VERIFICATION, out + "verification FAILED\n", "")
            assert run(capsys, "verify", str(target)) == expected

    def test_clause_text_seen_in_a_conclusion_still_checked(self, capsys, tmp_path):
        # A conclusion text need not name a listed symbol, so passing there
        # does not let the same text pass in a clause.
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        data = json.loads(target.read_text())
        data["theorems"][0]["conclusion"][0] = "zz"
        data["clauses"][2][0] = "zz"
        target.write_text(json.dumps(data))
        expected = (EXIT_VALIDATION, "", "error: unbound symbol: 'zz'\n")
        assert run(capsys, "verify", str(target)) == expected

    @pytest.mark.parametrize("symbol", ["!b", " b", "~b", ""])
    def test_listed_symbol_that_does_not_read_as_itself(self, capsys, tmp_path, symbol):
        # A clause text equal to such a listed symbol is parsed as any other.
        target = tmp_path / "report.json"
        run(capsys, "generate", "a", "b", "c", "--output", str(target))
        data = json.loads(target.read_text())
        data["signature"][1]["symbol"] = symbol
        data["clauses"][1][1] = symbol
        target.write_text(json.dumps(data))
        message = "empty literal" if not symbol else "unbound symbol: 'b'"
        assert run(capsys, "verify", str(target)) == (EXIT_VALIDATION, "", f"error: {message}\n")

    def test_explain_report_narrative_not_audited(self, capsys, tmp_path, scenario_dir):
        target = tmp_path / "report.json"
        run(capsys, "explain", str(scenario_dir / "medical.yaml"), "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert out.splitlines()[-2:] == [
            "explanations, ranking: not audited; a v1 report does not record its scenario",
            "verification passed",
        ]

    @pytest.mark.parametrize("command", ["generate", "explain"])
    def test_scenario_name_not_audited(self, capsys, tmp_path, scenario_dir, command):
        # A v1 report cannot be regenerated from its scenario, so any name
        # passes; verify says so by the equal-text path and the schema path.
        target = tmp_path / "report.json"
        run(capsys, command, str(scenario_dir / "medical.yaml"), "--output", str(target))
        data = json.loads(target.read_text())
        data["metadata"]["scenario"] = "anything"
        for text in (target.read_text(), json.dumps(data, indent=2) + "\n", json.dumps(data)):
            code, out, _ = _verify_text(text)
            assert (code, out.splitlines()[-1]) == (EXIT_OK, "verification passed")
            assert out.splitlines().count(
                "metadata.scenario: not audited; a v1 report does not record its scenario"
            ) == 1

    def test_literal_report_names_no_scenario(self):
        text = _genuine_report(1)
        assert json.loads(text)["metadata"]["scenario"] is None
        for layout in (text, json.dumps(json.loads(text))):
            code, out, _ = _verify_text(layout)
            assert code == EXIT_OK and "metadata.scenario" not in out

    @settings(max_examples=150, deadline=None)
    @given(_report_edits())
    @example((1, ("theorems", 2, "certified"), "replace", "failed"))
    @example((1, ("metadata", "tool"), "replace", "other"))
    @example((1, ("clauses", 2), "reorder", None))
    def test_any_edit_of_a_genuine_report_fails(self, edit):
        source, path, kind, value = edit
        code, out, _ = _verify_text(_genuine_report(source))
        assert (code, out.splitlines()[-1]) == (EXIT_OK, "verification passed")
        data = json.loads(_genuine_report(source))
        _apply_edit(data, path, kind, value)
        code, out, err = _verify_text(json.dumps(data))
        # An edit that breaks the schema is an input error; any other fails.
        if code == EXIT_VALIDATION:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == EXIT_VERIFICATION
            assert out.endswith("verification FAILED\n")

    # verify compares the text with the regenerated report's first and reads
    # the schema only when they differ; both paths must give the same verdict.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_any_layout_of_a_genuine_report_verifies_alike(self, n):
        rank = 7919 % math.factorial(n)
        source = [f"s{i}" for i in range(n)] + ["--permutation", str(rank)]
        with contextlib.redirect_stdout(io.StringIO()) as generated:
            assert run_cli(["generate", *source]) == EXIT_OK
        text = generated.getvalue()
        data = json.loads(text)
        unreplayed = json.loads(text)
        for theorem in unreplayed["theorems"]:
            theorem["trace_replayed"] = None
        layouts = [
            json.dumps(data),
            json.dumps(data, indent=4),
            json.dumps(data, indent=2, sort_keys=True) + "\n",
            json.dumps(dict(reversed(data.items())), indent=2) + "\n",
            json.dumps(unreplayed, indent=2) + "\n",
        ]
        out = "".join(f"theorem {i}: verified\n" for i in range(1, n + 2))
        out = ("unsatisfiable: True\nminimal (every deletion satisfiable): True\n"
               f"{out}verification passed\n")
        for layout in [text, *layouts]:
            assert _verify_text(layout) == (EXIT_OK, out, "")

    def test_only_a_text_that_differs_is_read_by_the_schema(self, monkeypatch):
        # Either way the chain is built once.
        text = _genuine_report(2)
        reads, builds = [], []
        from_dict, build_ftsc = Report.from_dict.__func__, cli.build_ftsc

        def counting_from_dict(cls, data):
            reads.append(data)
            return from_dict(cls, data)

        def counting_build(signature):
            builds.append(signature)
            return build_ftsc(signature)

        monkeypatch.setattr(Report, "from_dict", classmethod(counting_from_dict))
        monkeypatch.setattr(cli, "build_ftsc", counting_build)
        assert _verify_text(text)[0] == EXIT_OK
        assert (len(reads), len(builds)) == (0, 1)
        assert _verify_text(json.dumps(json.loads(text)))[0] == EXIT_OK
        assert (len(reads), len(builds)) == (1, 2)
        data = json.loads(text)
        data["theorems"][1]["certified"] = "failed"
        assert _verify_text(json.dumps(data, indent=2) + "\n")[0] == EXIT_VERIFICATION
        assert (len(reads), len(builds)) == (2, 3)

    @settings(max_examples=100, deadline=None)
    @given(_report_edits())
    @example((1, ("theorems", 2, "certified"), "replace", "failed"))
    @example((1, ("theorems", 0, "trace_replayed"), "replace", False))
    @example((1, ("clauses",), "drop", 1))
    @example((4, ("metadata", "timestamp"), "replace", 5))
    @example((4, ("metadata", "scenario"), "replace", 5))
    def test_an_edit_reads_alike_in_the_generate_layout(self, edit):
        # The generate layout makes the text comparison as close as it gets
        # before the schema and the group-by-group comparison take over.
        source, path, kind, value = edit
        data = json.loads(_genuine_report(source))
        _apply_edit(data, path, kind, value)
        compact = _verify_text(json.dumps(data))
        assert _verify_text(json.dumps(data, indent=2) + "\n") == compact

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            # The timestamp is not regenerated, but it must be a string.
            (
                "timestamp", 5,
                (EXIT_VALIDATION, "error: report metadata: field 'timestamp' must be str, got int"),
            ),
            (
                "timestamp", [1],
                (EXIT_VALIDATION, "error: report metadata: field 'timestamp' must be str, got list"),
            ),
            (
                "scenario", 5,
                (EXIT_VALIDATION, "error: report metadata: field 'scenario' must be str, got int"),
            ),
            (
                "scenario", ["medical"],
                (EXIT_VALIDATION, "error: report metadata: field 'scenario' must be str, got list"),
            ),
            (
                "timestamp", None,
                (EXIT_VALIDATION,
                 "error: report metadata: field 'timestamp' must be str, got NoneType"),
            ),
        ],
    )
    def test_metadata_of_another_type_reads_as_the_schema_does(self, field, value, expected):
        data = json.loads(_genuine_report(4))
        data["metadata"][field] = value
        code, out, err = _verify_text(json.dumps(data, indent=2) + "\n")
        assert (code, (out or err).splitlines()[-1]) == expected

    def test_explain_report_with_a_malformed_explanation(self, capsys, tmp_path, scenario_dir):
        target = tmp_path / "report.json"
        run(capsys, "explain", str(scenario_dir / "medical.yaml"), "--output", str(target))
        data = json.loads(target.read_text())
        data["explanations"][1]["narrative"] = 7
        target.write_text(json.dumps(data, indent=2) + "\n")
        assert run(capsys, "verify", str(target)) == (
            EXIT_VALIDATION, "",
            "error: report explanations[1]: field 'narrative' must be str, got int\n",
        )

    @pytest.mark.parametrize(
        "position, field, value, message",
        [
            (0, "model_score", "very high", "field 'model_score' must be int or float, got str"),
            (0, "model_score", True, "field 'model_score' must be int or float, got bool"),
            (1, "declared_priority", [1, 2], "field 'declared_priority' must be str, got list"),
            (
                1, "declared_priority", "Urgent",
                "field 'declared_priority' must be one of ('High', 'Medium', 'Low')",
            ),
        ],
        ids=["score-string", "score-bool", "priority-list", "priority-unknown"],
    )
    def test_explain_report_with_a_mistyped_rank_field(
        self, capsys, tmp_path, scenario_dir, position, field, value, message
    ):
        target = tmp_path / "report.json"
        run(capsys, "explain", str(scenario_dir / "medical.yaml"), "--output", str(target))
        assert run(capsys, "verify", str(target))[0] == EXIT_OK
        data = json.loads(target.read_text())
        data["explanations"][position][field] = value
        target.write_text(json.dumps(data, indent=2) + "\n")
        assert run(capsys, "verify", str(target)) == (
            EXIT_VALIDATION, "", f"error: report explanations[{position}]: {message}\n",
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda data: data["explanations"][0].update(provenance="anything"),
                "report explanations[0]: field 'provenance' must be one of "
                "('template', 'external-model')",
            ),
            (
                lambda data: data["ranking"]["entries"][0].update(priority="Whatever", score=-5),
                "report ranking entries[0]: field 'priority' must be one of "
                "('High', 'Medium', 'Low')",
            ),
            (
                lambda data: data["ranking"].update(policy="nonsense"),
                "report ranking: field 'policy' must be one of ('default', 'external-model')",
            ),
            (
                lambda data: data["ranking"]["entries"][0].update(remediation=[1, 2]),
                "report ranking entries[0]: field 'remediation' must be str, got list",
            ),
            (
                lambda data: data["ranking"]["entries"][0].pop("remediation"),
                "report ranking entries[0]: missing required field 'remediation'",
            ),
            *[
                (
                    lambda data, key=key: data["explanations"][0].pop(key),
                    f"report explanations[0]: missing required field {key!r}",
                )
                for key in ("declared_priority", "model_score", "warnings")
            ],
            (
                lambda data: data["ranking"]["entries"][0].update(removed_index=99),
                "ranking references unknown explanation ('medical-diagnosis', 99)",
            ),
        ],
        ids=["provenance", "priority", "policy", "remediation-list", "remediation-missing",
             "declared-priority-missing", "model-score-missing", "warnings-missing",
             "ranking-unknown-explanation"],
    )
    def test_explain_report_outside_the_schema(
        self, capsys, tmp_path, scenario_dir, edit, message
    ):
        target = tmp_path / "report.json"
        run(capsys, "explain", str(scenario_dir / "medical.yaml"), "--output", str(target))
        data = json.loads(target.read_text())
        edit(data)
        target.write_text(json.dumps(data, indent=2) + "\n")
        assert run(capsys, "verify", str(target)) == (EXIT_VALIDATION, "", f"error: {message}\n")

    def test_every_fixture_explain_report_verifies(self, capsys, tmp_path, scenario_dir):
        target = tmp_path / "report.json"
        for fixture in sorted(scenario_dir.glob("*.yaml")):
            assert run(capsys, "explain", str(fixture), "--output", str(target))[0] == EXIT_OK
            code, out, err = run(capsys, "verify", str(target))
            assert (code, out.splitlines()[-2:], err) == (EXIT_OK, [
                "explanations, ranking: not audited; a v1 report does not record its scenario",
                "verification passed",
            ], ""), fixture.name

    def test_explain_report_rank_fields_read_back(self, capsys, tmp_path, scenario_dir):
        target = tmp_path / "report.json"
        run(capsys, "explain", str(scenario_dir / "medical.yaml"), "--output", str(target))
        data = json.loads(target.read_text())
        data["explanations"][0]["model_score"] = 0.5
        data["explanations"][1]["declared_priority"] = "Low"
        report = Report.from_dict(data)
        assert report.explanations[0].model_score == 0.5
        assert report.explanations[1].declared_priority == "Low"

    def test_long_permutation_refused_before_building(self, capsys, tmp_path, monkeypatch):
        # 5,000 symbols listed in a small file: the chain would hold
        # 12,507,500 literals, far more than the text, so nothing is built.
        def refuse(signature):
            raise AssertionError("build_ftsc called")

        data = json.loads(_genuine_report(1))
        data["metadata"]["permutation"] = [f"q{i}" for i in range(5000)]
        monkeypatch.setattr(cli, "build_ftsc", refuse)
        target = tmp_path / "report.json"
        for text in (json.dumps(data, indent=2) + "\n", json.dumps(data)):
            target.write_text(text)
            assert len(text) < 100_000
            assert run(capsys, "verify", str(target)) == (
                EXIT_VERIFICATION,
                "clauses: recorded 9 literals, the chain over 5000 symbols has 12507500\n"
                "verification FAILED\n",
                "",
            )

    def test_internal_key_error_is_not_an_input_error(self, monkeypatch):
        def broken(args):
            raise KeyError("n")

        monkeypatch.setitem(cli._COMMANDS, "verify", broken)
        with pytest.raises(KeyError):
            run_cli(["verify", "report.json"])

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("report.json", "[]", "report: document must be an object"),
            ("headers.cnf", "p cnf 1 2\np cnf 1 2\n1 0\n-1 0\n", "line 2: duplicate header"),
            ("comments.cnf", "c only\nc comments\n", "no 'p cnf' header found"),
        ],
        ids=["json-list", "two-headers", "comments-only"],
    )
    def test_input_refused_in_one_line(self, capsys, tmp_path, name, text, message):
        target = tmp_path / name
        target.write_text(text)
        assert run(capsys, "verify", str(target)) == (EXIT_VALIDATION, "", f"error: {message}\n")

    def test_dimacs_negated_variable_name(self, capsys, tmp_path):
        target = tmp_path / "negated.cnf"
        target.write_text("c var 1 a\nc var 2 ~b\np cnf 2 2\n1 0\n-2 0\n")
        code, _, err = run(capsys, "verify", str(target))
        assert code == EXIT_VALIDATION
        assert "line 2" in err
        assert "negation" in err


class TestExplain:
    def test_table_output(self, capsys, scenario_dir):
        code, out, _ = run(
            capsys,
            "explain",
            str(scenario_dir / "healthcare_data_sharing.yaml"),
            "--table",
        )
        assert code == EXIT_OK
        assert "High" in out
        assert "Require explicit consent" in out

    def test_json_report_with_ranking(self, capsys, scenario_dir):
        code, out, _ = run(capsys, "explain", str(scenario_dir / "medical.yaml"))
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["explanations"]) == 5
        assert report["ranking"]["policy"] == "default"
        assert all(
            e["provenance"] == "template" for e in report["explanations"]
        )

    def test_deterministic_without_endpoint(self, capsys, scenario_dir, monkeypatch):
        monkeypatch.delenv("CONTRAGEN_MODEL_ENDPOINT", raising=False)
        _, first, _ = run(capsys, "explain", str(scenario_dir / "medical.yaml"))
        _, second, _ = run(capsys, "explain", str(scenario_dir / "medical.yaml"))
        assert strip_timestamp(first) == strip_timestamp(second)

    @pytest.mark.parametrize(
        "command",
        [
            ["explain"],
            ["explain", "--table"],
            ["export", "--format", "tptp", "--tptp-mode", "fof"],
        ],
        ids=["json", "table", "fof"],
    )
    def test_scenario_grounded_once(self, capsys, monkeypatch, command):
        import contragen.explain as explain

        grounded = []
        genuine = explain.ground_atoms

        def counting(atoms, domain):
            grounded.append(atoms)
            return genuine(atoms, domain)

        monkeypatch.setattr(explain, "ground_atoms", counting)
        path = str(SCENARIO_DIR / "medical.yaml")
        code, _, _ = run(capsys, command[0], path, *command[1:])
        assert code == EXIT_OK
        assert len(grounded) == 1

    def test_instance_out_of_range_matches_generate(self, capsys, tmp_path):
        path = tmp_path / "two_patients.yaml"
        path.write_text(TWO_PATIENTS_SCENARIO)
        explain = run(capsys, "explain", str(path), "--instance", "9")
        generate = run(
            capsys, "generate", str(path), "--instance", "9"
        )
        assert explain == generate
        code, out, err = explain
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == (
            "error: instance 9 out of range; scenario grounds to 2 instance(s)\n"
        )

    def test_second_instance_permuted(self, capsys, tmp_path):
        path = tmp_path / "two_patients.yaml"
        path.write_text(TWO_PATIENTS_SCENARIO)
        code, out, _ = run(
            capsys, "explain", str(path), "--instance", "1", "--permutation", "3"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["metadata"]["permutation"] == [
            "Consents(bob)", "Audited", "Holds(bob)"
        ]
        assert "'Consents(bob)' (patient p consents)" in (
            report["explanations"][0]["narrative"]
        )
        code, out, _ = run(
            capsys, "export", str(path), "--instance", "1",
            "--permutation", "3", "--format", "tptp", "--tptp-mode", "fof",
        )
        assert code == EXIT_OK
        assert "fof(dependency_1, axiom, ! [P] : (consents(P)))." in out

    def test_unreachable_endpoint_falls_back(self, capsys, scenario_dir):
        code, out, _ = run(
            capsys,
            "explain",
            str(scenario_dir / "compliance.yaml"),
            "--model-endpoint",
            "http://127.0.0.1:1/nope",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert all(e["provenance"] == "template" for e in report["explanations"])
        assert all(e["warnings"] for e in report["explanations"])
        assert report["ranking"]["policy"] == "default"

    def test_model_endpoint_ranks_by_served_scores(
        self, capsys, scenario_dir, monkeypatch
    ):
        from http.server import BaseHTTPRequestHandler, HTTPServer
        from threading import Thread

        for proxy in ("http_proxy", "HTTP_PROXY"):  # the server is on loopback
            monkeypatch.delenv(proxy, raising=False)
        scores = {1: 0.1, 2: 0.95, 3: 0.5, 4: 0.3, 5: 0.8}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                request = json.loads(self.rfile.read(length))
                body = json.dumps(
                    {"narrative": "served", "score": scores[request["removed_index"]]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            endpoint = f"http://127.0.0.1:{server.server_address[1]}/"
            code, out, _ = run(
                capsys, "explain", str(scenario_dir / "medical.yaml"),
                "--model-endpoint", endpoint,
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert code == EXIT_OK
        report = json.loads(out)
        assert all(e["provenance"] == "external-model" for e in report["explanations"])
        assert all(e["narrative"] == "served" for e in report["explanations"])
        assert report["ranking"]["policy"] == "external-model"
        entries = report["ranking"]["entries"]
        assert [e["removed_index"] for e in entries] == [2, 5, 3, 4, 1]
        assert [e["score"] for e in entries] == [0.95, 0.8, 0.5, 0.3, 0.1]
        assert [e["priority"] for e in entries] == [
            "High", "High", "Medium", "Low", "Low",
        ]

    def test_failed_replay_refused(self, capsys, scenario_dir, monkeypatch):
        import contragen.generator as generator

        # Step 8, ~x2, is the theorem lemma of removal 2 alone.
        proof = tamper_step(generator._chain_proof(4), 8, hints=(-1,))
        monkeypatch.setattr(generator, "_chain_proof", lambda n: proof)
        path = str(scenario_dir / "medical.yaml")
        for table in ([], ["--table"]):
            code, out, err = run(capsys, "explain", path, *table)
            assert (code, out) == (EXIT_VERIFICATION, "")
            assert err == "theorem 2: trace step 8: hint -1 cites nothing\n"

    def test_failed_certification_refused(self, capsys, scenario_dir, monkeypatch):
        from contragen.core import replace

        genuine = cli.derive_theorems

        def tampered(ftsc):
            theorems = genuine(ftsc)
            theorems[1] = replace(theorems[1], conclusion=theorems[1].conclusion[:-1])
            return theorems

        monkeypatch.setattr(cli, "derive_theorems", tampered)
        path = str(scenario_dir / "medical.yaml")
        for table in ([], ["--table"]):
            code, out, err = run(capsys, "explain", path, *table)
            assert (code, out) == (EXIT_VERIFICATION, "")
            assert err == "certification failed; refusing to explain\n"

    def test_record_key_order(self, capsys, scenario_dir):
        # Report records are written from their fields, in order; a
        # reordered field would silently change report bytes.
        code, out, _ = run(capsys, "explain", str(scenario_dir / "medical.yaml"))
        assert code == EXIT_OK
        report = json.loads(out)
        assert list(report["theorems"][0]) == [
            "removed_index", "conclusion", "certified", "trace_steps", "trace_replayed",
        ]
        assert list(report["explanations"][0]) == [
            "scenario", "permutation", "removed_index", "role_label", "narrative",
            "remediation", "provenance", "declared_priority", "model_score", "warnings",
        ]


    @pytest.mark.parametrize("command", ["explain", "generate"])
    def test_fixture_reports_have_the_stdlib_layout(self, capsys, scenario_dir, command):
        fixtures = sorted(scenario_dir.glob("*.yaml"))
        assert len(fixtures) == 14
        for fixture in fixtures:
            code, out, _ = run(capsys, command, str(fixture))
            assert code == EXIT_OK
            assert out == json.dumps(json.loads(out), indent=2) + "\n", fixture.name
            # The report as read back is written alike, from its records.
            report = Report.from_json(out)
            assert report.to_json() == out == json.dumps(report.to_dict(), indent=2) + "\n"


_TWO_ATOMS = "name: dup\ndomain: Test\natoms:\n  - {symbol: A, gloss: a}\n  - {symbol: B, gloss: b}\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (_TWO_ATOMS + "priorities: {2: High, 2: Low}\n", 6, "repeated key 2"),
        (_TWO_ATOMS + "rule_texts:\n  2: first rule\n  2: second rule\n", 8, "repeated key 2"),
        (_TWO_ATOMS + "name: again\n", 6, "repeated key name"),
        ("name: [unclosed\n", 1, "a flow collection must close on the line it opens"),
        ("name: " + "[" * 50_000 + "]" * 50_000 + "\n", 1, "nesting deeper than 8 levels"),
        (
            "name: deep\ndomain: Test\natoms:\n" + "".join("  " * d + "-\n" for d in range(1, 3001)),
            11,
            "nesting deeper than 8 levels",
        ),
    ],
    ids=["flow-priorities", "block-rule-texts", "top-level-name", "unclosed", "deep-flow", "deep-block"],
)
def test_scenario_outside_the_yaml_subset_ends_in_one_line(capsys, tmp_path, text, line, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code, out, err = run(capsys, "explain", str(path))
    assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {path}: line {line}: {message}\n")


class TestExport:
    def test_dimacs(self, capsys):
        code, out, _ = run(capsys, "export", "a", "b", "--format", "dimacs")
        assert code == EXIT_OK
        assert "p cnf 2 3" in out

    def test_tptp_cnf(self, capsys):
        code, out, _ = run(capsys, "export", "a", "b", "--format", "tptp")
        assert code == EXIT_OK
        from tptp_check import check_tptp

        assert check_tptp(out) == 6

    def test_tptp_fof_needs_scenario(self, capsys):
        code, _, err = run(
            capsys, "export", "a", "b", "--format", "tptp", "--tptp-mode", "fof"
        )
        assert code == EXIT_VALIDATION

    def test_tptp_fof_with_scenario(self, capsys, scenario_dir):
        code, out, _ = run(
            capsys,
            "export",
            str(scenario_dir / "healthcare_data_sharing.yaml"),
            "--format",
            "tptp",
            "--tptp-mode",
            "fof",
        )
        assert code == EXIT_OK
        from tptp_check import check_tptp

        assert check_tptp(out) == 12

    @pytest.mark.parametrize("constant", ["a,b", "?x"])
    @pytest.mark.parametrize(
        "command",
        [
            ["generate"],
            ["export", "--format", "dimacs"],
            ["export", "--format", "tptp"],
            ["export", "--format", "tptp", "--tptp-mode", "fof"],
        ],
        ids=["generate", "dimacs", "tptp-cnf", "tptp-fof"],
    )
    def test_reserved_constant_rejected(self, capsys, tmp_path, constant, command):
        # "a,b" would export as a binary atom, "?x" as a variable.
        path = tmp_path / "reserved.yaml"
        path.write_text(
            "name: reserved\ndomain: Test\natoms:\n"
            "  - {symbol: Holds, args: [p], variables: [p], gloss: g}\n"
            "  - {symbol: B, gloss: h}\n"
            f'grounding:\n  p: ["{constant}"]\n'
        )
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: term name {constant!r} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "inputs, message",
        [
            (["a-b", "a_b"], "TPTP symbols 'a-b' and 'a_b' both render as 'a_b'"),
            (["Fever", "fever"], "TPTP symbols 'Fever' and 'fever' both render as 'fever'"),
            (None, "TPTP variables 'p' and 'P' both render as 'P'"),
        ],
        ids=["punctuation", "case", "variables"],
    )
    def test_tptp_name_collision_rejected(self, capsys, tmp_path, inputs, message):
        mode = "cnf"
        if inputs is None:
            path = tmp_path / "vars.yaml"
            path.write_text(
                "name: vars\ndomain: Test\natoms:\n"
                "  - {symbol: a, args: [p], variables: [p], gloss: g}\n"
                "  - {symbol: b, args: [P], variables: [P], gloss: h}\n"
                "grounding: {p: [c1], P: [c2]}\n"
            )
            inputs, mode = [str(path)], "fof"
        code, out, err = run(
            capsys, "export", *inputs, "--format", "tptp", "--tptp-mode", mode
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "inputs, message",
        [
            (["p", "p(a)"], "TPTP predicate 'p' has arity 0 in 'p' and 1 in 'p(a)'"),
            (["p(a)", "P(a,b)"], "TPTP predicate 'p' has arity 1 in 'p(a)' and 2 in 'P(a,b)'"),
            (None, "TPTP predicate 'has' has arity 1 in 'Has(c1)' and 0 in 'Has'"),
        ],
        ids=["constant-and-unary", "unary-and-binary", "fof"],
    )
    def test_tptp_predicate_keeps_one_arity(self, capsys, tmp_path, inputs, message):
        mode = "cnf"
        if inputs is None:
            path = tmp_path / "arity.yaml"
            path.write_text(
                "name: arity\ndomain: Test\natoms:\n"
                "  - {symbol: Has, args: [p], variables: [p], gloss: g}\n"
                "  - {symbol: Has, gloss: h}\n"
                "grounding: {p: [c1]}\n"
            )
            inputs, mode = [str(path)], "fof"
        code, out, err = run(
            capsys, "export", *inputs, "--format", "tptp", "--tptp-mode", mode
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "export", "a", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["n"] == 1

    @pytest.mark.parametrize(
        "inputs",
        [["a", "b", "c"], [str(SCENARIO_DIR / "medical.yaml")]],
        ids=["literals", "scenario"],
    )
    def test_json_is_the_generate_report(self, capsys, inputs):
        args = [*inputs, "--permutation", "3"]
        code, exported, _ = run(capsys, "export", *args, "--format", "json")
        assert code == EXIT_OK
        _, generated, _ = run(capsys, "generate", *args)
        assert strip_timestamp(exported) == strip_timestamp(generated)
        assert all(t["trace_replayed"] for t in json.loads(exported)["theorems"])


def test_cli_import_leaves_out_model_client_and_yaml():
    # The span tracer patches contragen.explain and contragen.fol, so the
    # CLI must import them; urllib and the scenario reader load only when a
    # command needs a model request or a scenario file, and yaml never.
    import contragen

    probe = (
        "import sys, contragen.cli; "
        "print(sorted(m for m in ('contragen.explain', 'contragen.fol', "
        "'urllib.request', 'yaml', 'contragen.scenario_yaml') if m in sys.modules))"
    )
    src = str(Path(contragen.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert child.stdout == "['contragen.explain', 'contragen.fol']\n"


def test_scenario_commands_run_with_yaml_blocked():
    # PyYAML is the scenario reader's test oracle, never a run-time need.
    import contragen

    probe = "import sys; sys.modules['yaml'] = None; from contragen.cli import main; main()"
    child = subprocess.run(
        [sys.executable, "-c", probe, "explain", str(SCENARIO_DIR / "medical.yaml"), "--table"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(contragen.__file__).parents[1])},
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("rank ")


def test_cli_import_adds_no_dataclasses():
    # ``dataclasses`` loads inspect, ast, dis and tokenize: about 10 ms of
    # each CLI child's start-up, before any class is built from it.
    import contragen

    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    src = str(Path(contragen.__file__).parents[1])

    def loaded(imports: str) -> set[str]:
        probe = f"import sys{imports}; print(*(m for m in {heavy!r} if m in sys.modules))"
        child = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        return set(child.stdout.split())

    assert loaded(", contragen.cli") - loaded("") == set()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == EXIT_VALIDATION

    def test_parser_built_once_per_process(self, capsys, tmp_path):
        target = str(tmp_path / "report.json")
        commands = [
            ["generate", "a", "b", "--permutation", "x"],
            ["generate", "a", "b", "c", "--output", target],
            ["verify", target],
        ]
        cli._build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in commands]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in commands:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [EXIT_VALIDATION, EXIT_OK, EXIT_OK]
        assert "usage error: argument --permutation" in shared[0][2]
        assert shared[2][1].endswith("verification passed\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "a b"], "error: literal symbols must not contain whitespace: 'a b'"),
            (["enumerate", "a", "--n-cap", "x"],
             "usage error: argument --n-cap: invalid int value: 'x'"),
        ],
        ids=["symbol-with-space", "cap-not-int"],
    )
    def test_refused_in_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_VALIDATION, "", message + "\n")

    def test_missing_format(self, capsys):
        code, _, err = run(capsys, "export", "a")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "command", [["generate"], ["enumerate"], ["export", "--format", "dimacs"]],
        ids=["generate", "enumerate", "export"],
    )
    def test_instance_needs_a_scenario(self, capsys, command):
        code, out, err = run(capsys, *command, "a", "b", "--instance", "3")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "error: instance 3 needs a scenario file; literal input has one instance\n"
        code, _, err = run(capsys, *command, "a", "b", "--instance", "0")
        assert (code, err) == (EXIT_OK, "")


def _exit_and_stderr(argv):
    """``run_cli``'s exit code and stderr, stdout dropped, with no model
    endpoint set, so ``explain`` never opens a connection."""
    err = io.StringIO()
    saved = os.environ.pop("CONTRAGEN_MODEL_ENDPOINT", None)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        if saved is not None:
            os.environ["CONTRAGEN_MODEL_ENDPOINT"] = saved
    return code, err.getvalue()


_DIMACS_TOKEN = st.integers(min_value=-4, max_value=4).map(str) | st.sampled_from(
    ["p", "cnf", "c", "var", "a", "~a", "-0", "+1", "1.5", "%", "99999999999"]
)
_DIMACS_LINES = st.lists(st.lists(_DIMACS_TOKEN, max_size=5).map(" ".join), max_size=8)
_FIXTURES = sorted(SCENARIO_DIR.glob("*.yaml"))
_LINE = st.text(alphabet=" :-[]{},#'\"&*|>~abcxyz12\t", max_size=16)


@st.composite
def _fixture_edits(draw):
    """A fixture's lines after one edit: a line dropped, doubled, swapped
    with the next, cut short, or replaced or preceded by a short line."""
    lines = draw(st.sampled_from(_FIXTURES)).read_text(encoding="utf-8").splitlines()
    k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    edit = draw(st.sampled_from(("drop", "double", "swap", "cut", "replace", "insert")))
    if edit == "drop":
        del lines[k]
    elif edit == "double":
        lines.insert(k, lines[k])
    elif edit == "swap":
        lines[k : k + 2] = lines[k : k + 2][::-1]
    elif edit == "cut":
        lines[k] = lines[k][: draw(st.integers(min_value=0, max_value=len(lines[k])))]
    else:
        lines[k : k + (edit == "replace")] = [draw(_LINE)]
    return "\n".join(lines) + "\n"


class TestParsersUnderFuzz:
    """Bounded malformed input reaches each parser through ``run_cli`` and
    ends in a documented exit code, never an escaped exception."""

    @settings(max_examples=300, deadline=None)
    @given(st.none() | st.tuples(st.integers(0, 4), st.integers(0, 6)), _DIMACS_LINES)
    def test_verify_dimacs_like_text(self, header, lines):
        header = [] if header is None else ["p cnf %d %d" % header]
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "input.cnf"
            path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
            code, err = _exit_and_stderr(["verify", str(path)])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION)
        assert "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(
        _fixture_edits(),
        st.sampled_from([
            ["explain", "--table"], ["generate"], ["export", "--format", "dimacs"],
            ["export", "--format", "tptp", "--tptp-mode", "fof"], ["enumerate", "--n-cap", "3"],
        ]),
    )
    def test_edited_fixture(self, text, command):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "scenario.yaml"
            path.write_text(text, encoding="utf-8")
            code, err = _exit_and_stderr([command[0], str(path), *command[1:]])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION)
        assert "Traceback" not in err
