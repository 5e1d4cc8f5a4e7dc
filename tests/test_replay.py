"""Replay rule: suite reports reproduce their recorded report bodies.

The body of ``verify all --seed 0 --format json``, and of ``verify
theorem-4`` and ``verify theorem-5`` at ``--trials 2000 --seed 0``, with
every ``elapsed_seconds`` removed, must hash to the digests recorded in
``benchmarks/digests.json``; any change to a suite's checks, counts,
details or counterexamples shows up here.  The theorem suites pin the
triadic verdict engine (``preservers.property_run``).
"""

import hashlib
import json
import pathlib

import pytest

from commutant_lab.cli import main

DIGESTS = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "digests.json").read_text())


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def body_digest(capsys, argv):
    code = main([*argv, "--seed", "0", "--format", "json"])
    body = strip_elapsed(json.loads(capsys.readouterr().out))
    assert code == 0
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def test_verify_all_seed_0_matches_recorded_digest(capsys):
    assert body_digest(capsys, ["verify", "all"]) == DIGESTS["verify-all"]["0"][0]


@pytest.mark.parametrize("index, suite", [(0, "theorem-4"), (1, "theorem-5")],
                         ids=["theorem-4", "theorem-5"])
def test_form_check_seed_0_matches_recorded_digest(capsys, index, suite):
    digest = body_digest(capsys, ["verify", suite, "--trials", "2000"])
    assert digest == DIGESTS["form-check"]["0"][index]
