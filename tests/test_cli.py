"""CLI subcommands, exit codes, determinism."""

import json
import re

from contragen.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION, run_cli

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

    def test_cap_override(self, capsys):
        literals = [f"x{i}" for i in range(1, 5)]
        code, out, _ = run(capsys, "enumerate", *literals, "--n-cap", "4", "--no-certify")
        assert code == EXIT_OK
        assert "permutations=24" in out


class TestVerify:
    def test_valid_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        run(capsys, "generate", *MEDICAL, "--output", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == EXIT_OK
        assert "verification passed" in out

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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/report.json")
        assert code == EXIT_VALIDATION


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
            "--scenario",
            str(scenario_dir / "healthcare_data_sharing.yaml"),
            "--format",
            "tptp",
            "--tptp-mode",
            "fof",
        )
        assert code == EXIT_OK
        from tptp_check import check_tptp

        assert check_tptp(out) == 12

    def test_json(self, capsys):
        code, out, _ = run(capsys, "export", "a", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["n"] == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == EXIT_VALIDATION

    def test_missing_format(self, capsys):
        code, _, err = run(capsys, "export", "a")
        assert code == EXIT_VALIDATION
