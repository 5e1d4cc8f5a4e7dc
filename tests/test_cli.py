"""Command-line harness: exit codes, report determinism, replay."""

import json

import numpy as np
import pytest

from commutant_lab import run_suite, save_matrix
from commutant_lab.cli import main

from conftest import diag


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(report):
    if isinstance(report, dict):
        return {k: strip_timing(v) for k, v in report.items() if k != "elapsed_seconds"}
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report


class TestVerify:
    def test_aef_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "lemma-aef", "--a", "1.0", "--dim", "3"])
        assert code == 0
        assert "suite lemma-aef: PASS" in out

    def test_theorem4_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "theorem-4", "--dims", "3,4", "--trials", "60", "--seed", "7",
             "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suites"][0]["failures"] == 0

    def test_dimension_below_three_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "lemma-1.8", "--dim", "2"])
        assert code == 2
        assert "below 3" in err

    def test_primitive_dims_validated(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "lemma-primitive", "--dims", "3,4"])
        assert code == 2
        assert "at least 4" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "lemma-nope"])
        assert code == 2

    def test_missing_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["verify"])
        assert code == 2
        assert "suite" in err

    def test_report_determinism(self, capsys, tmp_path):
        argv = ["verify", "brooke", "--trials", "40", "--seed", "11", "--format", "json"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert strip_timing(json.loads(out1)) == strip_timing(json.loads(out2))

    def test_out_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            ["verify", "lemma-scalar", "--trials", "8", "--out", str(out_path)],
        )
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["passed"] is True

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMUTANT_LAB_SEED", "99")
        code, out, _ = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["seed"] == 99
        code, out, _ = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4",
                                        "--seed", "5", "--format", "json"])
        assert json.loads(out)["seed"] == 5

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4",
                                          "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "--seed must be a nonnegative integer, got -1" in err

    @pytest.mark.parametrize("suite", ["lemma-aef", "lemma-primitive", "lemma-primitive1"])
    def test_trials_rejected_on_fixed_grid_suite(self, capsys, suite):
        code, out, err = run_cli(capsys, ["verify", suite, "--trials", "5"])
        assert code == 2
        assert out == ""
        assert f"suite {suite} runs a fixed grid and takes no trials" in err

    @pytest.mark.parametrize("suite", ["lemma-scalar", "theorem-4", "lemma-primitive"])
    def test_a_rejected_on_other_suite(self, capsys, suite):
        code, out, err = run_cli(capsys, ["verify", suite, "--a", "2.0"])
        assert code == 2
        assert out == ""
        assert f"suite {suite} takes no block-fixture weight; only lemma-aef does" in err

    def test_all_applies_trials_to_sampled_suites(self, capsys):
        """``all`` also applies --a to lemma-aef alone."""
        code, out, _ = run_cli(capsys, ["verify", "all", "--trials", "2", "--a", "2.0",
                                        "--format", "json"])
        assert code == 0
        suites = {s["name"]: s for s in json.loads(out)["suites"]}
        assert suites["lemma-aef"]["details"]["a_values"] == [2.0]
        trial_keys = {"brooke": "random_pairs", "lemma-scalar": "nonscalar_samples",
                      "lemma-4": "configurations", "lemma-1.8": "samples",
                      "lemma-7": "operators", "lemma-1.81": "samples",
                      "theorem-4": "trials_per_configuration",
                      "theorem-5": "trials_per_configuration"}
        for name, key in trial_keys.items():
            assert suites[name]["details"][key] == 2, name
        for name in ("lemma-aef", "lemma-primitive", "lemma-primitive1"):
            assert suites[name]["passed"] and suites[name]["checks"] > 0, name

    @pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("-3", "-3")])
    def test_invalid_seed_env_var_rejected(self, capsys, monkeypatch, value, shown):
        monkeypatch.setenv("COMMUTANT_LAB_SEED", value)
        code, out, err = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4"])
        assert code == 2
        assert out == ""
        assert f"COMMUTANT_LAB_SEED must be a nonnegative integer, got {shown}" in err


class TestRunSuite:
    @pytest.mark.parametrize("seed, shown", [(-1, "-1"), (1.5, "1.5"), ("3", "'3'"),
                                             (True, "True")])
    def test_seed_validated(self, seed, shown):
        with pytest.raises(ValueError,
                           match=f"^seed must be a nonnegative integer, got {shown}$"):
            run_suite("lemma-scalar", trials=1, seed=seed)

    def test_recorder_keeps_failed_records_only(self):
        from commutant_lab.suites import _Recorder

        def never_built():
            raise AssertionError("record built for a passing check")

        rec = _Recorder()
        assert rec.check(True, never_built)
        assert not rec.check(False, lambda: {"reason": "built"})
        assert not rec.check(False, {"reason": "given"})
        assert not rec.check(False)
        assert rec.result("demo", {"k": 1}) == {
            "name": "demo", "passed": False, "checks": 4, "failures": 3,
            "details": {"k": 1}, "counterexamples": [{"reason": "built"}, {"reason": "given"}],
        }

    def test_elapsed_seconds_set(self):
        result = run_suite("lemma-scalar", trials=1, seed=np.int64(2))
        assert result["passed"]
        assert result["elapsed_seconds"] >= 0.0


class TestCommutantCommand:
    def test_cc_dimension(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, 2, 3))
        code, out, _ = run_cli(capsys, ["commutant", "--input", str(path), "--which", "cc",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["real_dimension"] == 3

    def test_identity_commutant(self, capsys, tmp_path):
        path = tmp_path / "i.json"
        save_matrix(path, np.eye(3, dtype=complex))
        code, out, _ = run_cli(capsys, ["commutant", "--input", str(path), "--which", "c",
                                        "--format", "json"])
        assert json.loads(out)["real_dimension"] == 9

    def test_anticommutant_dimension(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        save_matrix(path, diag(1, -1))
        code, out, _ = run_cli(capsys, ["commutant", "--input", str(path), "--which", "anti",
                                        "--format", "json"])
        assert json.loads(out)["real_dimension"] == 2

    def test_quasi_parts(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        save_matrix(path, diag(1, -1))
        code, out, _ = run_cli(capsys, ["commutant", "--input", str(path), "--which", "quasi",
                                        "--format", "json"])
        report = json.loads(out)
        assert report["parts"] == {"commutant": 2, "anticommutant": 2}
        assert len(report["commutant_basis"]) == 2

    def test_non_hermitian_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries":
                                    [[[0, 0], [1, 0]], [[0.7, 0], [0, 0]]]}))
        code, _, err = run_cli(capsys, ["commutant", "--input", str(path)])
        assert code == 2
        assert "Hermitian" in err

    def test_non_finite_rejected(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"dim": 2, "entries":
                                    [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, _, err = run_cli(capsys, ["commutant", "--input", str(path)])
        assert code == 2
        assert "matrix has non-finite entries" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["commutant", "--input", str(tmp_path / "nope.json")])
        assert code == 2


class TestSearchCommand:
    def test_necessity_emits_replayable_violation(self, capsys, tmp_path):
        out_path = tmp_path / "necessity.json"
        code, out, _ = run_cli(capsys, ["search", "necessity-f", "--dim", "3",
                                        "--budget", "100", "--seed", "3",
                                        "--out", str(out_path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["violation"]["kind"] == "triadic-violation"
        # feed the emitted counterexample back through verify
        code, out, _ = run_cli(capsys, ["verify", "--replay", str(out_path)])
        assert code == 0
        assert "reproduced: True" in out

    def test_scalar_witness_on_nonscalar(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, 2, 3))
        code, out, _ = run_cli(capsys, ["search", "scalar-witness", "--input", str(path),
                                        "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "witness found"
        assert report["witness"]["dim"] == 3

    def test_scalar_witness_on_scalar(self, capsys, tmp_path):
        path = tmp_path / "i.json"
        save_matrix(path, 2.0 * np.eye(3, dtype=complex))
        code, out, _ = run_cli(capsys, ["search", "scalar-witness", "--input", str(path),
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "scalar input, no witness exists"

    def test_lemma7_refute_roundtrip(self, capsys, tmp_path):
        a_path = tmp_path / "a.json"
        x_path = tmp_path / "x.json"
        save_matrix(a_path, diag(1, 1, 2))
        save_matrix(x_path, diag(1, 2, 3))
        code, out, _ = run_cli(capsys, ["search", "lemma7-refute", "--input", str(a_path),
                                        "--target", str(x_path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["status"].startswith("refuted")
        assert report["witness"] is not None

    def test_lemma7_member_unrefuted(self, capsys, tmp_path):
        a_path = tmp_path / "a.json"
        x_path = tmp_path / "x.json"
        save_matrix(a_path, diag(1, 2, 3))
        save_matrix(x_path, diag(1, 2, 3))
        code, out, _ = run_cli(capsys, ["search", "lemma7-refute", "--input", str(a_path),
                                        "--target", str(x_path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"].startswith("unrefuted")

    def test_exhausted_scalar_witness_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, -1, 0.5))
        code, out, err = run_cli(capsys, ["search", "scalar-witness", "--input", str(path),
                                          "--tol-zero", "0.9", "--format", "json"])
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["passed"] is False
        assert report["status"].startswith("no scalar witness found")

    @pytest.mark.parametrize("kind, option", [
        ("necessity-f", "--input"), ("necessity-f", "--target"),
        ("scalar-witness", "--dim"), ("scalar-witness", "--budget"),
        ("scalar-witness", "--target"), ("lemma7-refute", "--dim"),
    ])
    def test_option_the_kind_does_not_read_is_usage_error(self, capsys, tmp_path,
                                                          kind, option):
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, 2, 3))
        inputs = [] if kind == "necessity-f" else ["--input", str(path)]
        value = str(path) if option in ("--input", "--target") else "4"
        code, out, err = run_cli(capsys, ["search", kind, *inputs, option, value])
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {option}" in err

    @pytest.mark.parametrize("kind", ["scalar-witness", "lemma7-refute"])
    def test_missing_input_is_usage_error(self, capsys, kind):
        code, out, err = run_cli(capsys, ["search", kind])
        assert code == 2
        assert out == ""
        assert "required: --input" in err

    def test_necessity_budget_below_one_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["search", "necessity-f", "--budget", "-1"])
        assert code == 2
        assert out == ""
        assert "budget must be at least 1, got -1" in err

    def test_lemma7_negative_budget_is_usage_error(self, capsys, tmp_path):
        a_path = tmp_path / "a.json"
        save_matrix(a_path, diag(1, 1, 2))
        code, out, err = run_cli(capsys, ["search", "lemma7-refute", "--input", str(a_path),
                                          "--budget", "-3"])
        assert code == 2
        assert out == ""
        assert "budget must be nonnegative, got -3" in err


class TestReportCommand:
    def test_pretty_print(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4",
                                      "--out", str(out_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["report", str(out_path)])
        assert code == 0
        assert "suite lemma-scalar: PASS" in out

    def test_non_report_rejected(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, 2, 3))
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert code == 2
        assert out == ""
        assert "is not a commutant-lab report" in err
