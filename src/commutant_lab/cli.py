"""Command-line harness: run verification suites, compute commutant
structure for matrices supplied as JSON files, run counterexample searches,
replay recorded triadic violations and pretty-print saved reports.

Exit codes: 0 on pass, 1 on assertion failure, a replay that does not
reproduce or a mandatory search coming up empty, 2 on usage or input
errors.  The seed defaults to the ``COMMUTANT_LAB_SEED`` environment
variable and is overridden by ``--seed``; either must be a nonnegative
integer.  ``replay`` reads no seed.  Identical (command, seed, tolerance)
reproduce identical report bodies up to the timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

from .commutant import (
    SearchExhausted,
    _cached_masks,
    anticommutant,
    bicommutant,
    commutant,
    quasi_commutant,
    refute_biquasi_membership,
    scalar_witness,
)
from .hermitian import Tolerance, random_hermitian
from .matrixfile import (_checked, _field, _json_text, _path, _payload_entries, _read_json,
                         load_matrix, matrix_to_payload)
from .preservers import necessity_map, necessity_search
from .suites import (SUITE_NAMES, TARGET_GUARD, replay_violation, run_suite, suite_calls,
                     violation_to_payload)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

REPORT_KINDS = ("verify", "replay", "commutant", "search")
# The --tol-* options, by the Tolerance field each sets.  No computation
# reads cluster_gap, so no option sets it; reports record its default.
TOLERANCE_OPTIONS = {"rel_zero": "--tol-zero", "rank_cut": "--tol-rank"}


def _seed(args) -> int:
    """The run's seed: ``--seed``, else ``COMMUTANT_LAB_SEED``, else 0.

    Either source must hold a nonnegative integer; anything else is an
    input error rather than a silent fallback.
    """
    if args.seed is not None:
        source, seed = "--seed", args.seed
    else:
        source, text = "COMMUTANT_LAB_SEED", os.environ.get("COMMUTANT_LAB_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"{source} must be a nonnegative integer, got {text!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse dimension list {text!r}") from exc
    if not dims:
        raise ValueError("empty dimension list")
    return dims


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps no state between calls.
    # Options match by full name only, so a misspelled one is an error.
    parser = argparse.ArgumentParser(
        prog="commutant-lab", allow_abbrev=False,
        description="Verification harness for commutation-structure computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name: str, text: str) -> argparse.ArgumentParser:
        return parent.add_parser(name, help=text, allow_abbrev=False)

    def add_common(p, tolerances, seed=True):  # tolerances: the Tolerance fields it reads
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="suite seed (default: COMMUTANT_LAB_SEED or 0)")
        for name in tolerances:
            p.add_argument(TOLERANCE_OPTIONS[name], dest=name, type=float, default=None)
        p.add_argument("--out", type=Path, default=None,
                       help="also write the report to this path")
        p.add_argument("--format", choices=("text", "json"), default="text")

    verify = command(sub, "verify", "run one named suite or all of them")
    verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    verify.add_argument("--dims", type=str, default=None,
                        help="comma-separated dimensions, e.g. 3,4,5")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--a", type=float, default=None,
                        help="block-fixture weight (lemma-aef only)")
    add_common(verify, TOLERANCE_OPTIONS)

    replay = command(sub, "replay", "re-decide a recorded triadic violation at the tolerance "
                     "its file records (--tol-* for a bare record)")
    replay.add_argument("path", type=Path)
    add_common(replay, ("rel_zero", "rank_cut"), seed=False)

    comm = command(sub, "commutant", "commutant structure of a matrix file")
    comm.add_argument("--input", type=Path, required=True)
    comm.add_argument("--which", choices=("c", "anti", "quasi", "cc"), default="c")
    add_common(comm, ("rank_cut",))

    search = command(sub, "search", "counterexample and witness searches")
    kinds = search.add_subparsers(dest="kind", required=True)
    necessity = command(kinds, "necessity-f", "triple broken by a nonzero shift")
    necessity.add_argument("--dim", type=int, default=3)
    witness = command(kinds, "scalar-witness", "witness that A is not scalar")
    refute = command(kinds, "lemma7-refute", "refute second quasi-commutant membership")
    refute.add_argument("--target", type=Path, default=None, help="matrix file (X)")
    for p in (necessity, refute):
        p.add_argument("--budget", type=int, default=100)
    for p in (witness, refute):
        p.add_argument("--input", type=Path, required=True, help="matrix file (A)")
    for p in (necessity, witness, refute):
        add_common(p, ("rel_zero",) if p is witness else ("rel_zero", "rank_cut"))

    rep = command(sub, "report", "pretty-print a saved JSON report")
    rep.add_argument("path", type=Path)

    return parser


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _render_matrix(m) -> str:
    return "  " + " ".join(
        "[" + ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in row) + "]" for row in m)


def _suites(report: dict) -> list[tuple[str, dict]]:
    """The suite results of a report, each with its path."""
    return [(f"suites[{i}]", _checked(suite, "an object", f"suites[{i}]"))
            for i, suite in enumerate(_field(report, "suites", "an array", "", []))]


def render_text(report: dict) -> str:
    """The text form of a report; every field it formats is read through
    the JSON reader, so a malformed saved report is an input error."""
    lines = [f"commutant-lab {report.get('kind', 'report')}"]
    if "command" in report:
        lines.append(f"command: {report['command']}")
    if "seed" in report:
        lines.append(f"seed: {report['seed']}")
    if "tolerance" in report:
        lines.append("tolerance: " + " ".join(
            f"{name}={value:g}"
            for name, value in dataclasses.asdict(_recorded_tolerance(report)).items()))
    for where, suite in _suites(report):
        status = "PASS" if _field(suite, "passed", "a boolean", where) else "FAIL"
        lines.append(f"suite {_field(suite, 'name', 'a string', where)}: {status} "
                     f"(checks={_field(suite, 'checks', 'a number', where)} "
                     f"failures={_field(suite, 'failures', 'a number', where)})")
        for key, value in sorted(_field(suite, "details", "an object", where, {}).items()):
            lines.append(f"  {key}: {value}")
        for ce in _field(suite, "counterexamples", "an array", where, [])[:3]:
            lines.append(f"  counterexample: {json.dumps(ce, sort_keys=True)[:240]}")
    for key in ("which", "real_dimension", "parts", "status", "verdict", "reproduced"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    for key in ("basis", "commutant_basis", "anticommutant_basis"):
        if key in report:
            basis = _field(report, key, "an array")
            lines.append(f"{key} ({len(basis)} elements):")
            lines.extend(_render_matrix(_payload_entries(payload, f"{key}[{i}]"))
                         for i, payload in enumerate(basis))
    if "witness" in report and report["witness"] is not None:
        lines.append("witness: " + json.dumps(report["witness"], sort_keys=True))
    if "violation" in report and report["violation"] is not None:
        lines.append("violation: " + json.dumps(report["violation"], sort_keys=True)[:400])
    if "passed" in report:
        lines.append(f"overall: {'PASS' if _field(report, 'passed', 'a boolean') else 'FAIL'}")
    if "elapsed_seconds" in report:
        lines.append(f"elapsed: {_field(report, 'elapsed_seconds', 'a number'):.3f}s")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    """Write the report as JSON to ``--out``, then to stdout in ``--format``,
    so that an unwritable ``--out`` leaves stdout empty; the JSON is encoded
    only when one of them takes it."""
    text = (_json_text(report) + "\n"
            if args.format == "json" or args.out is not None else None)
    if args.out is not None:
        args.out.write_text(text)
    sys.stdout.write(text if args.format == "json" else render_text(report))


# --------------------------------------------------------------------------
# Commands.  Each returns its report body; main() adds the seed and the
# tolerance (a replay states the tolerance it decided at and reads no seed)
# and the wall time, emits the report and maps ``passed`` to the exit code.
# --------------------------------------------------------------------------


def _recorded_tolerance(report: dict) -> Tolerance:
    """The tolerance a report's ``tolerance`` block records."""
    block = _field(report, "tolerance", "an object")
    names = [field.name for field in dataclasses.fields(Tolerance)]
    for name in block:
        if name not in names:
            raise ValueError(f"field 'tolerance.{name}' is not a tolerance; expected "
                             f"{', '.join(names)}")
    return Tolerance(**{name: _field(block, name, "a number", "tolerance") for name in names})


def _replay_record(payload, path: Path) -> tuple[str, dict]:
    """The record ``replay`` re-decides and its path in the file: the file
    itself if it is a triadic-violation record, else the first one a report
    holds, as a search's ``violation`` or a suite's counterexample."""
    held = [("", payload)]
    if isinstance(payload, dict):
        held.append(("violation", payload.get("violation")))
        for where, suite in _suites(payload) if "suites" in payload else [("", payload)]:
            records = _field(suite, "counterexamples", "an array", where, [])
            held += [(_path(where, f"counterexamples[{i}]"), r) for i, r in enumerate(records)]
    for where, record in held:
        if isinstance(record, dict) and record.get("kind") == "triadic-violation":
            return where, record
    raise ValueError(f"{path} holds no triadic-violation record")


def cmd_replay(args, given: dict) -> dict:
    """Re-decide a recorded violation: a report's at the tolerance it
    records, which no --tol-* option may contradict; a bare record's at the
    --tol-* options ``given`` (by Tolerance field)."""
    payload = _read_json(args.path)
    where, record = _replay_record(payload, args.path)
    if isinstance(payload, dict) and "tolerance" in payload:
        tol = _recorded_tolerance(payload)
        if given:
            name = next(iter(given))
            raise ValueError(f"{args.path} records {name}={getattr(tol, name)!r}, the "
                             f"tolerance replay decides at; drop {TOLERANCE_OPTIONS[name]}")
    else:
        tol = Tolerance(**given)
    verdict, reproduced = replay_violation(record, tol, where)
    return {"kind": "replay", "command": f"replay {args.path}", "verdict": verdict,
            "tolerance": dataclasses.asdict(tol), "reproduced": reproduced, "passed": reproduced}


def cmd_verify(args, seed: int, tol: Tolerance) -> dict:
    calls = suite_calls(args.suite, None if args.dims is None else _parse_dims(args.dims),
                        args.trials, seed, tol, args.a)
    results = [run_suite(**call) for call in calls]
    return {"kind": "verify", "command": "verify " + " ".join(c["name"] for c in calls),
            "suites": results, "passed": all(r["passed"] for r in results)}


def cmd_commutant(args, seed: int, tol: Tolerance) -> dict:
    matrix = load_matrix(args.input)

    def basis_payload(subspace):
        return [matrix_to_payload(b) for b in subspace.basis]

    report = {
        "kind": "commutant",
        "command": f"commutant --input {args.input} --which {args.which}",
        "which": args.which,
        "input_dim": int(matrix.shape[0]),
        "passed": True,
    }
    # Built per call, so that a wrapped module attribute is the one called.
    solvers = {"c": commutant, "anti": anticommutant, "cc": bicommutant}
    if args.which in solvers:
        sub = solvers[args.which](matrix, tol)
        return {**report, "real_dimension": sub.real_dimension, "basis": basis_payload(sub)}
    qc = quasi_commutant(matrix, tol)
    return {**report, "parts": {"commutant": qc.commutant_part.real_dimension,
                                "anticommutant": qc.anticommutant_part.real_dimension},
            "commutant_basis": basis_payload(qc.commutant_part),
            "anticommutant_basis": basis_payload(qc.anticommutant_part)}


def cmd_search(args, seed: int, tol: Tolerance) -> dict:
    report = {"kind": "search", "command": f"search {args.kind}", "passed": True}
    try:
        if args.kind == "necessity-f":
            preserver = necessity_map(args.dim)
            trial_report = necessity_search(args.dim, budget=args.budget, seed=seed, tol=tol,
                                            preserver=preserver)
            return {**report, "status": f"violation found after {trial_report.trials} trials",
                    "violation": violation_to_payload(trial_report.violations[0], preserver)}
        matrix = load_matrix(args.input)
        if args.kind == "scalar-witness":
            witness = scalar_witness(matrix, seed=seed, tol=tol)
            label, found, empty = ("scalar-witness", "witness found",
                                  "scalar input, no witness exists")
        else:  # lemma7-refute
            if args.target is not None:
                target = load_matrix(args.target)
            else:
                bic = bicommutant(matrix, tol)
                target = random_hermitian(matrix.shape[0], seed)
                if bic.contains(target, TARGET_GUARD):
                    target = random_hermitian(matrix.shape[0], seed + 1)
                report["target"] = matrix_to_payload(target, label="sampled-target")
            [witness] = refute_biquasi_membership(target[None], matrix, budget=args.budget,
                                                  seed=seed, tol=tol)
            label, found, empty = ("refutation-witness",
                                  "refuted: target is outside the second quasi-commutant",
                                  "unrefuted (not a membership proof)")
    except SearchExhausted as exc:
        return {**report, "status": str(exc), "passed": False}
    if witness is None:
        return {**report, "status": empty, "witness": None}
    return {**report, "status": found, "witness": matrix_to_payload(witness, label=label)}


def cmd_report(args) -> int:
    payload = _read_json(args.path)
    try:
        if _field(_checked(payload, "an object", ""), "kind", "a string") not in REPORT_KINDS:
            raise ValueError(f"field 'kind' must be one of {', '.join(REPORT_KINDS)}")
        _field(payload, "passed", "a boolean")
    except ValueError as exc:
        raise ValueError(f"{args.path} is not a commutant-lab report: {exc}") from None
    sys.stdout.write(render_text(payload))
    return EXIT_PASS


def main(argv=None) -> int:
    _cached_masks.cache_clear()  # no decomposition outlives the command that made it
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "report":
            return cmd_report(args)
        start = time.perf_counter()
        given = {name: getattr(args, name) for name in TOLERANCE_OPTIONS
                 if getattr(args, name, None) is not None}
        if args.command == "replay":
            report = cmd_replay(args, given)
        else:
            seed, tol = _seed(args), Tolerance(**given)
            command = {"verify": cmd_verify, "commutant": cmd_commutant, "search": cmd_search}
            report = {"seed": seed, "tolerance": dataclasses.asdict(tol),
                      **command[args.command](args, seed, tol)}
        report["elapsed_seconds"] = time.perf_counter() - start
        _emit(report, args)
        return EXIT_PASS if report["passed"] else EXIT_FAIL
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
