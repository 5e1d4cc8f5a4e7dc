"""Replay rule: ``verify all`` reproduces its recorded report body.

The body of ``verify all --seed 0 --format json``, with every
``elapsed_seconds`` removed, must hash to the digest recorded in
``benchmarks/digests.json``; any change to a suite's checks, counts,
details or counterexamples shows up here.
"""

import hashlib
import json
import pathlib

from commutant_lab.cli import main

DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "digests.json"


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def test_verify_all_seed_0_matches_recorded_digest(capsys):
    code = main(["verify", "all", "--seed", "0", "--format", "json"])
    body = strip_elapsed(json.loads(capsys.readouterr().out))
    assert code == 0
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    recorded = json.loads(DIGESTS.read_text())["verify-all"]["0"][0]
    assert digest == recorded
