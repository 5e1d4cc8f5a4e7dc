"""Command-line harness: exit codes, report determinism, replay."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commutant_lab import (PreserverMap, ShiftPolicy, Tolerance, property_run,
                           random_hermitian, random_unitary, run_suite, save_matrix)
from commutant_lab.cli import main
from commutant_lab.hermitian import ENTRY_BOUND
from commutant_lab.suites import SUITE_NAMES, suite_calls, violation_to_payload

from conftest import diag, strip_elapsed


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Both commands refuse n < 3 with one message that names the reason.
BELOW_THREE = ("error: dimensions below 3 are outside the supported regime: at n = 2, maps "
               "outside the classified form preserve the commutative relation "
               "(README, 'Why n >= 3')\n")


class TestVerify:
    @pytest.mark.parametrize("value", ["1.0", "-4", "-2", "-0.5", "-0.25"])
    def test_aef_pass(self, capsys, value):
        """E = a (I - 2P) has its bulk at a, the bottom spectral point for a < 0."""
        code, out, err = run_cli(capsys, ["verify", "lemma-aef", f"--a={value}",
                                          "--dims", "3,4,5,8"])
        assert (code, err) == (0, "")
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
        code, _, err = run_cli(capsys, ["verify", "lemma-1.8", "--dims", "2"])
        assert code == 2
        assert err == BELOW_THREE

    def test_trials_beyond_one_entropy_word_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "brooke", "--dims", "3",
                                          "--trials", "5000000000"])
        assert (code, out) == (2, "")
        assert err == "error: trials must be at most 2**32 = 4294967296, got 5000000000\n"

    @pytest.mark.parametrize("suite", ["lemma-1.8", "theorem-4", "all"])
    def test_repeated_dimension_rejected(self, capsys, suite):
        # theorem-4 would run on {3} and record [3, 3]; lemma-1.8 would
        # draw other matrices than --dims 3 does
        code, out, err = run_cli(capsys, ["verify", suite, "--dims", "3,4,3"])
        assert (code, out) == (2, "")
        assert err == "error: dimensions must be distinct, got 3,4,3\n"

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
        assert strip_elapsed(json.loads(out1)) == strip_elapsed(json.loads(out2))

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

    @pytest.mark.parametrize("argv", [["lemma-aef", "--dim", "3"], ["lemma-1.8", "--dim", "2"],
                                      ["brooke", "--tol-z", "1e-6"]],
                             ids=["dim of lemma-aef", "dim of lemma-1.8", "tol-z"])
    def test_option_prefix_is_usage_error(self, capsys, argv):
        """An option matches by its full name only: ``--dim`` is not read
        as ``--dims``, nor ``--tol-z`` as ``--tol-zero``."""
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

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

    @pytest.mark.parametrize("argv, message", [
        (["--dims", "3"], "suite lemma-primitive needs dimensions of at least 4"),
        (["--a", "0"], "the block-fixture weight must be finite and nonzero, got 0.0"),
    ], ids=["dims 3", "a 0"])
    def test_all_checks_every_suite_before_running_one(self, capsys, monkeypatch, argv,
                                                       message):
        from commutant_lab import suites
        called = []

        def recorder(name):
            return lambda **kwargs: called.append(name) or {"name": name, "passed": True}

        for name in suites.SUITE_NAMES:
            monkeypatch.setitem(suites._SUITES, name, recorder(name))
        code, out, err = run_cli(capsys, ["verify", "all", *argv])
        assert (code, out, called) == (2, "", [])
        assert message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_a_must_be_finite_and_nonzero(self, capsys, value):
        code, out, err = run_cli(capsys, ["verify", "lemma-aef", f"--a={value}"])
        assert (code, out) == (2, "")
        assert "the block-fixture weight must be finite and nonzero" in err

    @pytest.mark.parametrize("weight, first", [
        ("1e-11", "E: two spectral points (a=1e-11, dim=3)"),
        ("1e-10", "alpha A - eps E vs F commutation (a=1e-10, dim=3, -2.0, -1.0)"),
    ], ids=["1e-11", "1e-10"])
    def test_aef_weight_near_the_cluster_cut_is_a_recorded_failure(self, capsys, weight,
                                                                   first):
        """E's points +-a lie 2a apart and join one cluster at or below the
        commutant cut, 1e-10 here: at a = 1e-11 the spectral checks of E
        fail instead of raising; at a = 1e-10 E keeps two points, and the
        first failure is a commutator of size about a that the zero test
        reads as zero."""
        code, out, err = run_cli(capsys, ["verify", "lemma-aef", "--a", weight, "--dims", "3",
                                          "--format", "json"])
        assert (code, err) == (1, "")
        suite = json.loads(out)["suites"][0]
        assert suite["counterexamples"][0] == {"context": first}

    @pytest.mark.parametrize("value", [ENTRY_BOUND, -ENTRY_BOUND])
    def test_aef_weight_at_the_bound_runs_clean(self, capsys, value):
        """No overflow at the bound (warnings are errors here); the checks
        that fail in that float regime are recorded failures."""
        code, out, err = run_cli(capsys, ["verify", "lemma-aef", f"--a={value!r}",
                                          "--dims", "3,8,64", "--format", "json"])
        assert (code, err) == (1, "")
        assert json.loads(out)["suites"][0]["failures"] > 0

    @pytest.mark.parametrize("value", ["1.01e75", "-1e76", "1e200"])
    def test_aef_weight_above_the_bound_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, ["verify", "lemma-aef", f"--a={value}"])
        assert (code, out) == (2, "")
        assert (f"error: the block-fixture weight must be at most 1e+75 in magnitude, "
                f"got {float(value)!r}") in err

    def test_text_report_is_not_json_encoded(self, capsys, monkeypatch, tmp_path):
        """``--format text`` encodes the JSON only for ``--out``, and then once.
        The writer is counted where ``cli`` looks it up, so its own recursion
        is not."""
        from commutant_lab import cli
        encoded = []
        write = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda value: encoded.append(1) or write(value))
        argv = ["verify", "lemma-aef", "--a", "1.0", "--dims", "3"]
        code, out, _ = run_cli(capsys, argv)
        assert (code, encoded) == (0, [])
        assert "suite lemma-aef: PASS" in out
        code, text, _ = run_cli(capsys, [*argv, "--out", str(tmp_path / "r.json")])
        assert (code, len(encoded)) == (0, 1)
        assert json.loads((tmp_path / "r.json").read_text())["passed"] is True
        assert text.splitlines()[:-1] == out.splitlines()[:-1]  # all but the elapsed time

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unwritable_out_leaves_stdout_empty(self, capsys, tmp_path, fmt):
        """``--out`` is written before stdout, so an unwritable one exits 2
        with no report printed, as every other input error does."""
        code, out, err = run_cli(capsys, ["verify", "lemma-aef", "--dims", "3", "--format", fmt,
                                          "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Is a directory" in err

    def test_exhausted_witness_search_is_a_recorded_failure(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "lemma-scalar", "--tol-zero", "0.9",
                                          "--trials", "20", "--format", "json"])
        assert (code, err) == (1, "")
        suite = json.loads(out)["suites"][0]
        assert suite["failures"] > 0
        assert {ce["reason"] for ce in suite["counterexamples"]} == {"witness search failed"}


class TestRunSuite:
    def test_all_routes_trials_to_sampled_suites_and_a_to_lemma_aef(self):
        """``verify all --trials 5 --a 2``; a named suite gets the options as given."""
        fixed_grid = ("lemma-aef", "lemma-primitive", "lemma-primitive1")
        tol = Tolerance()
        assert suite_calls("all", None, 5, 0, tol, 2.0) == [
            dict(name=name, dims=None, seed=0, tol=tol,
                 trials=None if name in fixed_grid else 5,
                 a_value=2.0 if name == "lemma-aef" else None)
            for name in SUITE_NAMES]
        assert suite_calls("lemma-4", (3,), 5, 7, tol, None) == [
            dict(name="lemma-4", dims=(3,), seed=7, tol=tol, trials=5, a_value=None)]

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


def edit_field(payload, keys, value):
    """Set the field at the key path ``keys`` to ``value``, or delete it
    when ``value`` is None."""
    for key in keys[:-1]:
        payload = payload[key]
    if value is None:
        del payload[keys[-1]]
    else:
        payload[keys[-1]] = value


# Edits of a 2x2 matrix file m.json that the reader rejects: (key path,
# value, message).  The message names the file as the command line gave it.
MALFORMED_GRIDS = {
    "three-number entry": (("entries", 0, 1), [1, 0, 0],
                           "m.json: field 'entries[0][1]' must be a [re, im] pair of numbers, "
                           "got [1, 0, 0]"),
    "boolean entry": (("entries", 1, 0), [True, 0],
                      "m.json: field 'entries[1][0]' must be a [re, im] pair of numbers, "
                      "got [true, 0]"),
    "string entry": (("entries", 1, 1), ["1", "0"],
                     "m.json: field 'entries[1][1]' must be a [re, im] pair of numbers, "
                     'got ["1", "0"]'),
    "short row": (("entries", 1), [[0, 0]],
                  "m.json: field 'entries[1]' must be an array of 2 [re, im] pairs, "
                  "got an array of 1"),
    "extra row": (("entries",), [[[1, 0], [0, 0]]] * 3,
                  "m.json: field 'entries' must hold 2 rows, got 3"),
    "fractional dim": (("dim",), 2.0, "m.json: field 'dim' must be a positive integer, got 2.0"),
    "string dim": (("dim",), "2", "m.json: field 'dim' must be a number, got a string"),
    "no dim": (("dim",), None, "m.json: field 'dim' is missing"),
}


def write_malformed_grid(directory, name):
    """Write ``m.json`` in ``directory`` with the edit ``MALFORMED_GRIDS[name]``
    and return the expected message."""
    keys, value, message = MALFORMED_GRIDS[name]
    payload = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    edit_field(payload, keys, value)
    (directory / "m.json").write_text(json.dumps(payload))
    return message


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

    @pytest.mark.parametrize("option", ["--tol-zero"])
    def test_option_commutant_does_not_read_is_usage_error(self, capsys, tmp_path, option):
        """Every ``--which`` decides at ``rank_cut`` alone."""
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, 2, 3))
        code, out, err = run_cli(capsys, ["commutant", "--input", str(path), option, "1e-9"])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {option} 1e-9" in err

    @pytest.mark.parametrize("name", list(MALFORMED_GRIDS))
    def test_malformed_grid_rejected(self, capsys, tmp_path, monkeypatch, name):
        message = write_malformed_grid(tmp_path, name)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["commutant", "--input", "m.json"])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["verify", "theorem-4", "--dims", "10000000", "--trials", "1"],
                                  ["verify", "lemma-aef", "--dims", "10000000"],
                                  ["search", "necessity-f", "--dim", "10000000"]], ids="-".join)
def test_dimension_beyond_memory_is_usage_error(capsys, argv):
    """An n x n complex array at n = 10^7 needs 1.42 PiB, more than any
    64-bit address space, so numpy's MemoryError comes before a page is
    touched; it exits 2 with a message, not 1 with a traceback."""
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate 1.42 PiB")


class TestEntryBound:
    """Matrix input has entries of magnitude at most ``ENTRY_BOUND``.  At
    1e160, |A|_F**2 overflows to inf and every relative zero test passes,
    so commutant read diag(1, 2, 3) * 1e160 as commuting with everything."""

    @pytest.mark.parametrize("argv", [["commutant", "--which", "c"],
                                      ["search", "scalar-witness"]], ids="-".join)
    def test_entry_above_the_bound_rejected(self, capsys, tmp_path, argv):
        path = tmp_path / "big.json"
        save_matrix(path, 1e160 * diag(1, 2, 3))
        code, out, err = run_cli(capsys, [*argv, "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: matrix entries must be at most 1e+75 in magnitude, "
                       f"got 3e+160\n")

    # I (x) ([[0, 1], [1, 0]] (+) [[1, 1], [1, 1]] / 2) of dimension 16: eigenvalues
    # 1, -1 and 0, eight, four and four times, and entries 1, 1/2 and 0
    DIMENSIONS = {"c": 96, "anti": 80, "cc": 3}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("argv", [*(["commutant", "--which", which] for which in
                                        ("c", "anti", "cc", "quasi")),
                                      ["search", "scalar-witness"],
                                      ["search", "lemma7-refute", "--budget", "4"]],
                             ids="-".join)
    def test_entries_at_the_bound_run_clean(self, capsys, tmp_path, argv, sign):
        """No overflow at the bound (warnings are errors here), and the
        dimensions are those of the spectrum."""
        block = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]])
        a = sign * ENTRY_BOUND * np.kron(np.eye(4), block)
        path = tmp_path / "a.json"
        save_matrix(path, a)
        code, out, err = run_cli(capsys, [*argv, "--input", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        if argv[0] == "search":
            assert report["witness"] is not None
        elif argv[-1] == "quasi":
            assert report["parts"] == {"commutant": 96, "anticommutant": 80}
        else:
            assert report["real_dimension"] == self.DIMENSIONS[argv[-1]]

class TestSearchCommand:
    def test_necessity_emits_replayable_violation(self, capsys, tmp_path):
        out_path = tmp_path / "necessity.json"
        code, out, _ = run_cli(capsys, ["search", "necessity-f", "--dim", "3",
                                        "--budget", "100", "--seed", "3",
                                        "--out", str(out_path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["violation"]["kind"] == "triadic-violation"
        # feed the emitted counterexample back through replay
        code, out, _ = run_cli(capsys, ["replay", str(out_path)])
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

    @pytest.mark.parametrize("name", ["three-number entry", "short row", "no dim"])
    def test_lemma7_malformed_target_named(self, capsys, tmp_path, monkeypatch, name):
        save_matrix(tmp_path / "a.json", diag(1, 1, 2))
        message = write_malformed_grid(tmp_path, name)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["search", "lemma7-refute", "--input", "a.json",
                                          "--target", "m.json"])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

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
        ("scalar-witness", "--tol-rank"),
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

    def test_necessity_dimension_below_three_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["search", "necessity-f", "--dim", "2"])
        assert code == 2
        assert out == ""
        assert err == BELOW_THREE

    @pytest.mark.parametrize("budget", ["10000000", "10000000000"])
    def test_necessity_budget_beyond_memory_decided_at_trial_zero(self, capsys, budget):
        code, out, err = run_cli(capsys, ["search", "necessity-f", "--budget", budget,
                                          "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "violation found after 1 trials"

    def test_lemma7_negative_budget_is_usage_error(self, capsys, tmp_path):
        a_path = tmp_path / "a.json"
        save_matrix(a_path, diag(1, 1, 2))
        code, out, err = run_cli(capsys, ["search", "lemma7-refute", "--input", str(a_path),
                                          "--budget", "-3"])
        assert code == 2
        assert out == ""
        assert "budget must be nonnegative, got -3" in err


def necessity_report(capsys, path):
    """Write a ``search necessity-f`` report to ``path`` and return it."""
    code, _, _ = run_cli(capsys, ["search", "necessity-f", "--out", str(path)])
    assert code == 0
    return json.loads(path.read_text())


# Map fields of a recorded violation set to bad values: (key path, value, message).
CORRUPT_MAPS = {
    "nan conjugator entry": (("conjugator", "entries", 0, 0, 0), float("nan"),
                             "conjugator has non-finite entries"),
    "2x3 conjugator": (("conjugator",), {"dim": 2, "entries": [[[1.0, 0.0]] * 3] * 2},
                       "field 'violation.map.conjugator.entries[0]' must be an array of 2 "
                       "[re, im] pairs, got an array of 3"),
    "nan shift value": (("shift", "value"), float("nan"), "shift value must be finite, got nan"),
}


def loose_theorem_report(capsys, path, suite="theorem-4"):
    """Write a ``verify`` report of ``suite`` (theorem-4 or theorem-5) at
    ``--tol-zero 0.5``, which finds violations that the default tolerance
    does not reproduce, and return it."""
    code, _, _ = run_cli(capsys, ["verify", suite, "--tol-zero", "0.5", "--dims", "3",
                                  "--trials", "100", "--out", str(path)])
    assert code == 1
    return json.loads(path.read_text())


# Top-level tolerance blocks of a report that replay rejects: (block, message).
MALFORMED_TOLERANCES = {
    "string value": ({"rel_zero": "0.5", "rank_cut": 1e-10, "cluster_gap": 1e-8},
                     "field 'tolerance.rel_zero' must be a number, got a string"),
    "boolean value": ({"rel_zero": True, "rank_cut": 1e-10, "cluster_gap": 1e-8},
                      "field 'tolerance.rel_zero' must be a number, got a boolean"),
    "missing field": ({"rel_zero": 0.5, "rank_cut": 1e-10},
                      "field 'tolerance.cluster_gap' is missing"),
    "extra field": ({"rel_zero": 0.5, "rank_cut": 1e-10, "cluster_gap": 1e-8, "slack": 1.0},
                    "field 'tolerance.slack' is not a tolerance; expected rel_zero, rank_cut, "
                    "cluster_gap"),
    "not an object": ([0.5, 1e-10, 1e-8], "field 'tolerance' must be an object, got an array"),
}

# Edits of a recorded violation: (key path, value or None to delete, message).
MALFORMED_RECORDS = {
    "string triple": (("triple",), "abc", "field 'triple' must be an object, got a string"),
    "no map.scale": (("map", "scale"), None, "field 'map.scale' is missing"),
    "no verdict": (("verdict",), None, "field 'verdict' is missing"),
    "string antiunitary": (("map", "antiunitary"), "false",
                           "field 'map.antiunitary' must be a boolean, got a string"),
    "no map.shift.kind": (("map", "shift", "kind"), None, "field 'map.shift.kind' is missing"),
    "array triple.c": (("triple", "c"), [1.0], "field 'triple.c' must be an object, got an array"),
    "number matrix row": (("triple", "a", "entries", 0), 1.0,
                          "field 'triple.a.entries[0]' must be an array of 3 [re, im] pairs, "
                          "got a number"),
}


class TestReplayCommand:
    def test_bare_record_replays(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        record = necessity_report(capsys, path)["violation"]
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["replay", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        replay = json.loads(out)
        assert replay["verdict"] == record["verdict"]
        assert replay["command"] == f"replay {path}"
        assert "seed" not in replay

    def test_suite_counterexample_replays_at_its_tolerance(self, capsys, tmp_path):
        path = tmp_path / "t4.json"
        code, _, _ = run_cli(capsys, ["verify", "theorem-4", "--dims", "3", "--trials", "100",
                                      "--tol-zero", "0.5", "--out", str(path)])
        assert code == 1
        first = json.loads(path.read_text())["suites"][0]["counterexamples"][0]
        code, out, err = run_cli(capsys, ["replay", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == first["verdict"]

    @pytest.mark.parametrize("suite", ["theorem-4", "theorem-5"])
    def test_report_replays_at_its_recorded_tolerance(self, capsys, tmp_path, suite):
        """Quasi-side records go through the same map and shift readers."""
        path = tmp_path / "t.json"
        report = loose_theorem_report(capsys, path, suite)
        first = report["suites"][0]["counterexamples"][0]
        code, out, err = run_cli(capsys, ["replay", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        replay = json.loads(out)
        assert (replay["verdict"], replay["reproduced"]) == (first["verdict"], True)
        assert replay["tolerance"] == report["tolerance"]
        assert replay["tolerance"]["rel_zero"] == 0.5

    def test_report_with_another_cluster_gap_replays_and_renders(self, capsys, tmp_path):
        """No computation reads ``cluster_gap``; a report that recorded a
        value other than the default still replays and renders."""
        path = tmp_path / "t4.json"
        report = loose_theorem_report(capsys, path)
        report["tolerance"]["cluster_gap"] = 1e-6
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, ["replay", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["tolerance"] == report["tolerance"]
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert (code, err) == (0, "")
        assert "tolerance: rel_zero=0.5 rank_cut=1e-10 cluster_gap=1e-06\n" in out

    def test_bare_record_replays_at_the_options(self, capsys, tmp_path):
        path = tmp_path / "t4.json"
        record = loose_theorem_report(capsys, path)["suites"][0]["counterexamples"][0]
        path.write_text(json.dumps(record))
        code, out, _ = run_cli(capsys, ["replay", str(path), "--format", "json"])
        assert code == 1
        assert json.loads(out)["reproduced"] is False
        code, out, _ = run_cli(capsys, ["replay", str(path), "--tol-zero", "0.5",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["tolerance"]["rel_zero"] == 0.5

    @pytest.mark.parametrize("name", list(MALFORMED_TOLERANCES))
    def test_malformed_tolerance_block_rejected(self, capsys, tmp_path, name):
        path = tmp_path / "t4.json"
        report = loose_theorem_report(capsys, path)
        report["tolerance"], message = MALFORMED_TOLERANCES[name]
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name", list(MALFORMED_RECORDS))
    def test_malformed_record_rejected(self, capsys, tmp_path, name):
        keys, value, message = MALFORMED_RECORDS[name]
        path = tmp_path / "v.json"
        record = necessity_report(capsys, path)["violation"]
        edit_field(record, keys, value)
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name", list(CORRUPT_MAPS))
    def test_corrupt_map_rejected(self, capsys, tmp_path, name):
        keys, value, message = CORRUPT_MAPS[name]
        path = tmp_path / "v.json"
        report = necessity_report(capsys, path)
        edit_field(report["violation"]["map"], keys, value)
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", ["json array", "scalar-witness report", "matrix file"])
    def test_file_without_record_rejected(self, capsys, tmp_path, kind):
        path = tmp_path / "x.json"
        if kind == "json array":
            path.write_text("[1, 2]")
        elif kind == "matrix file":
            save_matrix(path, diag(1, 2, 3))
        else:
            a_path = tmp_path / "a.json"
            save_matrix(a_path, diag(1, 2, 3))
            code, _, _ = run_cli(capsys, ["search", "scalar-witness", "--input", str(a_path),
                                          "--out", str(path)])
            assert code == 0
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path} holds no triadic-violation record\n"


    @pytest.mark.parametrize("option", [["--trials", "5"], ["--dims", "3"], ["--dim", "3"],
                                        ["--a", "2"], ["--seed", "7"], ["theorem-4"]],
                             ids=["trials", "dims", "dim", "a", "seed", "suite name"])
    def test_option_replay_does_not_read_is_usage_error(self, capsys, tmp_path, option):
        path = tmp_path / "v.json"
        necessity_report(capsys, path)
        code, out, err = run_cli(capsys, ["replay", str(path), *option])
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    def test_verify_takes_no_replay_option(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        necessity_report(capsys, path)
        code, out, err = run_cli(capsys, ["verify", "theorem-4", "--replay", str(path)])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --replay" in err

    @pytest.mark.parametrize("option", ["--tol-zero", "--tol-rank"])
    def test_tolerance_option_against_recorded_tolerance_is_usage_error(self, capsys, tmp_path,
                                                                         option):
        path = tmp_path / "t4.json"
        report = loose_theorem_report(capsys, path)
        code, out, err = run_cli(capsys, ["replay", str(path), option, "1e-9"])
        assert (code, out) == (2, "")
        name = {"--tol-zero": "rel_zero", "--tol-rank": "rank_cut"}[option]
        assert err == (f"error: {path} records {name}={report['tolerance'][name]!r}, the "
                       f"tolerance replay decides at; drop {option}\n")

    def test_non_array_suites_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"suites": 5}')
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: field 'suites' must be an array, got a number\n"

    def test_non_array_counterexamples_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"suites": [{"name": "theorem-4", "counterexamples": {}}]}')
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: field 'suites[0].counterexamples' must be an array, got an object\n"

    def test_malformed_suite_record_named_by_its_path(self, capsys, tmp_path):
        path = tmp_path / "t4.json"
        report = loose_theorem_report(capsys, path)
        del report["suites"][0]["counterexamples"][0]["triple"]["b"]
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, ["replay", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: field 'suites[0].counterexamples[0].triple.b' is missing\n"


# Edits of a saved verify report that ``report`` rejects: (key path, value, message).
MALFORMED_REPORTS = {
    "number suites": (("suites",), 5, "field 'suites' must be an array, got a number"),
    "short tolerance": (("tolerance", "rank_cut"), None, "field 'tolerance.rank_cut' is missing"),
    "suite without passed": (("suites", 0, "passed"), None, "field 'suites[0].passed' is missing"),
    "string checks": (("suites", 0, "checks"), "4",
                      "field 'suites[0].checks' must be a number, got a string"),
    "array details": (("suites", 0, "details"), [],
                      "field 'suites[0].details' must be an object, got an array"),
}


class TestReportCommand:
    def test_pretty_print(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4",
                                      "--out", str(out_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["report", str(out_path)])
        assert code == 0
        assert "suite lemma-scalar: PASS" in out

    def test_search_report_rendered(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        necessity_report(capsys, path)
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert (code, err) == (0, "")
        assert "command: search necessity-f\n" in out
        assert "\nviolation: {" in out and "\noverall: PASS\n" in out

    def test_non_report_rejected(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        save_matrix(path, diag(1, 2, 3))
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert code == 2
        assert out == ""
        assert "is not a commutant-lab report" in err

    def test_non_report_names_the_field(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"suites": 5}')
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not a commutant-lab report: field 'kind' is missing\n"

    @pytest.mark.parametrize("name", list(MALFORMED_REPORTS))
    def test_malformed_report_rejected(self, capsys, tmp_path, name):
        keys, value, message = MALFORMED_REPORTS[name]
        path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, ["verify", "lemma-scalar", "--trials", "4",
                                      "--out", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        edit_field(report, keys, value)
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_basis_rendered_from_its_payloads(self, capsys, tmp_path):
        a_path, out_path = tmp_path / "a.json", tmp_path / "r.json"
        save_matrix(a_path, diag(1, -1))
        code, _, _ = run_cli(capsys, ["commutant", "--input", str(a_path), "--which", "anti",
                                      "--out", str(out_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["report", str(out_path)])
        assert code == 0
        assert "basis (2 elements):" in out
        report = json.loads(out_path.read_text())
        report["basis"][1]["entries"][0] = 1.0
        out_path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, ["report", str(out_path)])
        assert (code, out) == (2, "")
        assert err == ("error: field 'basis[1].entries[0]' must be an array of 2 [re, im] pairs, "
                       "got a number\n")


# Each command given a prefix of one of its options, after any required
# ones: (argv, the unrecognized arguments).
OPTION_PREFIXES = {
    "replay": (["replay", "v.json", "--tol-z", "1e-6"], "--tol-z 1e-6"),
    "commutant": (["commutant", "--input", "a.json", "--whi", "c"], "--whi c"),
    "search necessity-f": (["search", "necessity-f", "--bud", "5"], "--bud 5"),
    "search scalar-witness": (["search", "scalar-witness", "--input", "a.json", "--form",
                               "json"], "--form json"),
    "search lemma7-refute": (["search", "lemma7-refute", "--input", "a.json", "--targ",
                              "x.json"], "--targ x.json"),
    "report": (["report", "r.json", "--he"], "--he"),
}


@pytest.mark.parametrize("argv, unrecognized", list(OPTION_PREFIXES.values()),
                         ids=list(OPTION_PREFIXES))
def test_no_command_matches_an_option_prefix(capsys, argv, unrecognized):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {unrecognized}" in err


# Every command, with its required arguments; none takes --tol-cluster.
COMMANDS = {
    "verify": ["verify", "all"],
    "replay": ["replay", "v.json"],
    "commutant": ["commutant", "--input", "a.json"],
    "search necessity-f": ["search", "necessity-f"],
    "search scalar-witness": ["search", "scalar-witness", "--input", "a.json"],
    "search lemma7-refute": ["search", "lemma7-refute", "--input", "a.json"],
}


@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_no_command_takes_tol_cluster(capsys, argv):
    """No computation reads ``cluster_gap``, so no command sets it."""
    code, out, err = run_cli(capsys, [*argv, "--tol-cluster", "1e-6"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol-cluster 1e-6" in err


def compliant_quasi_record(path):
    """Write the first violation of theorem-5's exploratory map at seed 0
    and dimension 3 as a bare record; its ``theorem_compliant_quasi`` shift
    decides at ``rank_cut``."""
    m = PreserverMap(scale=1.0, conjugator=random_unitary(3, [0, 11, 3]),
                     shift=ShiftPolicy("theorem_compliant_quasi",
                                       inner=ShiftPolicy("trace_based")),
                     relation_kind="quasi")
    violation = property_run({3: m}, trials=10, seed=104729).violations[0]
    path.write_text(json.dumps(violation_to_payload(violation, m)))


# Each --tol-* option of a command other than verify, on an input whose
# report body (tolerance and timing aside) it changes: (argv, option, value).
KEPT_TOLERANCES = {
    "replay --tol-zero": (["replay", "q.json"], "--tol-zero", "0.5"),
    "replay --tol-rank": (["replay", "q.json"], "--tol-rank", "0.5"),
    "commutant --tol-rank": (["commutant", "--input", "d.json"], "--tol-rank", "1e-6"),
    "search necessity-f --tol-zero": (["search", "necessity-f"], "--tol-zero", "0.9"),
    # at --tol-zero 0.9 the swap candidate of trial 0 breaks nothing, and
    # later candidates come from the anchor's anticommutant
    "search necessity-f --tol-rank": (["search", "necessity-f", "--tol-zero", "0.9"],
                                      "--tol-rank", "1"),
    "search scalar-witness --tol-zero": (["search", "scalar-witness", "--input", "s.json"],
                                         "--tol-zero", "0.5"),
    "search lemma7-refute --tol-zero": (["search", "lemma7-refute", "--input", "r.json"],
                                        "--tol-zero", "0.9"),
    "search lemma7-refute --tol-rank": (["search", "lemma7-refute", "--input", "r.json"],
                                        "--tol-rank", "0.5"),
}


@pytest.mark.parametrize("argv, option, value", list(KEPT_TOLERANCES.values()),
                         ids=list(KEPT_TOLERANCES))
def test_kept_tolerance_option_is_read(capsys, tmp_path, monkeypatch, argv, option, value):
    monkeypatch.chdir(tmp_path)
    save_matrix("d.json", diag(1, -1, 1 + 1e-9, 2, 0))
    save_matrix("s.json", diag(1, -1, 0.5))
    save_matrix("r.json", random_hermitian(4, 0))
    compliant_quasi_record(tmp_path / "q.json")
    bodies = []
    for given in ([], [option, value]):
        _, out, err = run_cli(capsys, [*argv, *given, "--format", "json"])
        assert err == ""
        report = strip_elapsed(json.loads(out))
        del report["tolerance"]
        bodies.append(report)
    assert bodies[0] != bodies[1]


@pytest.mark.parametrize("command", ["replay", "report"])
@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe", None],
                         ids=["not JSON", "not UTF-8", "missing"])
def test_unreadable_file_is_named(capsys, tmp_path, command, content):
    """Every file a command reads goes through one JSON reader, which names
    a file it cannot read or parse."""
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unreadable JSON file {path}: ")


def test_console_script_is_main():
    """pip installs the ``commutant-lab`` console script from this entry;
    every other test calls ``main`` in-process or through ``python -m``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    entry = re.search(r'^\[project\.scripts\]\ncommutant-lab = "(.*)"$', text, re.M)[1]
    module, _, name = entry.partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_parser_built_once_keeps_no_state(capsys, monkeypatch):
    """One process builds the parser once.  Calls made in turn in it give
    the exit codes, stderr and report bodies of fresh processes, so no
    option value of one call reaches the next."""
    from commutant_lab.cli import build_parser
    assert build_parser() is build_parser()
    monkeypatch.delenv("COMMUTANT_LAB_SEED", raising=False)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    calls = [["verify", "all", "--dims", "3"],
             ["verify", "lemma-aef", "--dim", "3"],
             ["verify", "lemma-aef", "--dims", "3", "--a", "2.0", "--seed", "5",
              "--tol-zero", "1e-6"],
             ["verify", "lemma-aef"]]
    for argv in calls:
        argv = [*argv, "--format", "json"]
        code, out, err = run_cli(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "commutant_lab", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, err) == (fresh.returncode, fresh.stderr), argv
        assert out == fresh.stdout == "" or (
            strip_elapsed(json.loads(out)) == strip_elapsed(json.loads(fresh.stdout))), argv


def test_each_call_starts_with_an_empty_pair_cache(capsys, tmp_path):
    """The eigen-pair cache lives for one command: after a call it holds
    the matrices that call decomposed and none of an earlier call's."""
    from commutant_lab.commutant import _cached_masks, _pair_masks
    first, second = diag(1, 2, 3), diag(1, 1, 2)
    for name, m, other in (("first", first, second), ("second", second, first)):
        save_matrix(tmp_path / f"{name}.json", m)
        code, _, _ = run_cli(capsys, ["commutant", "--input", str(tmp_path / f"{name}.json"),
                                      "--which", "cc"])
        assert code == 0
        before = _cached_masks.cache_info()
        assert before.currsize == 1
        _pair_masks(m, Tolerance())  # this call's matrix is held ...
        _pair_masks(other, Tolerance())  # ... and the earlier call's is not
        after = _cached_masks.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    code, _, _ = run_cli(capsys, ["commutant"])  # a usage error empties it too
    assert (code, _cached_masks.cache_info().currsize) == (2, 0)


def test_workload_commands_leave_numpy_ma_unloaded(tmp_path, monkeypatch):
    """``np.unique`` imports ``numpy.ma``, which raises the peak memory of
    a fresh process that has imported the CLI by about 1 MiB (29.3 to
    30.3 MiB).  ``verify theorem-4``, ``verify all`` and ``commutant
    --which quasi``, run in turn in one fresh process, never load it."""
    monkeypatch.delenv("COMMUTANT_LAB_SEED", raising=False)
    values = [2.0, -2.0, 1.0, 1.0, 0.0, 3.0]  # a sign pair, a double eigenvalue, a kernel
    u = random_unitary(len(values), 47)
    save_matrix(tmp_path / "a.json", (u * values) @ u.conj().T)
    calls = [["verify", "theorem-4"], ["verify", "all"],
             ["commutant", "--input", str(tmp_path / "a.json"), "--which", "quasi"]]
    code = ("import sys\nfrom commutant_lab.cli import main\n"
            f"codes = [main(argv) for argv in {calls!r}]\n"
            "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=300)
    assert (fresh.returncode, fresh.stderr) == (0, "[0, 0, 0] False\n")
