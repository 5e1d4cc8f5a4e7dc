"""Command-line harness: run verification suites, compute commutant
structure for matrices supplied as JSON files, run counterexample searches
and pretty-print saved reports.

Exit codes: 0 on pass, 1 on assertion failure or a mandatory search coming
up empty, 2 on usage or input errors.  The seed defaults to the
``COMMUTANT_LAB_SEED`` environment variable and is overridden by ``--seed``;
either must be a nonnegative integer.  Identical (command, seed, tolerance)
reproduce identical report bodies up to the timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from .commutant import (
    SearchExhausted,
    anticommutant,
    bicommutant,
    commutant,
    quasi_commutant,
    refute_biquasi_membership,
    scalar_witness,
)
from .hermitian import Tolerance, frobenius, random_hermitian
from .matrixfile import load_matrix, matrix_to_payload
from .preservers import necessity_map, necessity_search
from .suites import (
    FIXED_GRID_SUITES,
    SUITE_NAMES,
    replay_violation,
    run_suite,
    violation_to_payload,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


REPORT_KINDS = ("verify", "replay", "commutant", "search")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commutant-lab",
        description="Verification harness for commutation-structure computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="suite seed (default: COMMUTANT_LAB_SEED or 0)")
        p.add_argument("--tol-zero", type=float, default=Tolerance().rel_zero)
        p.add_argument("--tol-rank", type=float, default=Tolerance().rank_cut)
        p.add_argument("--tol-cluster", type=float, default=Tolerance().cluster_gap)
        p.add_argument("--out", type=Path, default=None,
                       help="also write the report to this path")
        p.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run one named suite or all of them")
    verify.add_argument("suite", nargs="?", default=None,
                        choices=(*SUITE_NAMES, "all"))
    verify.add_argument("--dim", type=int, default=None, help="single dimension")
    verify.add_argument("--dims", type=str, default=None,
                        help="comma-separated dimensions, e.g. 3,4,5")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--a", type=float, default=None,
                        help="block-fixture weight (lemma-aef only)")
    verify.add_argument("--replay", type=Path, default=None,
                        help="re-validate a recorded counterexample file")
    add_common(verify)

    comm = sub.add_parser("commutant", help="commutant structure of a matrix file")
    comm.add_argument("--input", type=Path, required=True)
    comm.add_argument("--which", choices=("c", "anti", "quasi", "cc"), default="c")
    add_common(comm)

    search = sub.add_parser("search", help="counterexample and witness searches")
    kinds = search.add_subparsers(dest="kind", required=True)
    necessity = kinds.add_parser("necessity-f", help="triple broken by a nonzero shift")
    necessity.add_argument("--dim", type=int, default=3)
    witness = kinds.add_parser("scalar-witness", help="witness that A is not scalar")
    refute = kinds.add_parser("lemma7-refute", help="refute second quasi-commutant membership")
    refute.add_argument("--target", type=Path, default=None, help="matrix file (X)")
    for p in (necessity, refute):
        p.add_argument("--budget", type=int, default=100)
    for p in (witness, refute):
        p.add_argument("--input", type=Path, required=True, help="matrix file (A)")
    for p in (necessity, witness, refute):
        add_common(p)

    rep = sub.add_parser("report", help="pretty-print a saved JSON report")
    rep.add_argument("path", type=Path)

    return parser


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _render_matrix(payload: dict) -> str:
    rows = []
    for row in payload["entries"]:
        rows.append("[" + ", ".join(f"{re:+.6g}{im:+.6g}j" for re, im in row) + "]")
    return "  " + " ".join(rows)


def render_text(report: dict) -> str:
    lines = [f"commutant-lab {report.get('kind', 'report')}"]
    if "command" in report:
        lines.append(f"command: {report['command']}")
    if "seed" in report:
        lines.append(f"seed: {report['seed']}")
    if "tolerance" in report:
        t = report["tolerance"]
        lines.append(
            "tolerance: rel_zero=%g rank_cut=%g cluster_gap=%g"
            % (t["rel_zero"], t["rank_cut"], t["cluster_gap"])
        )
    for suite in report.get("suites", []):
        status = "PASS" if suite["passed"] else "FAIL"
        lines.append(
            f"suite {suite['name']}: {status} "
            f"(checks={suite['checks']} failures={suite['failures']})"
        )
        for key, value in sorted(suite.get("details", {}).items()):
            lines.append(f"  {key}: {value}")
        for ce in suite.get("counterexamples", [])[:3]:
            lines.append(f"  counterexample: {json.dumps(ce, sort_keys=True)[:240]}")
    for key in ("which", "real_dimension", "parts", "status", "verdict", "reproduced"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    for key in ("basis", "commutant_basis", "anticommutant_basis"):
        if key in report:
            lines.append(f"{key} ({len(report[key])} elements):")
            lines.extend(_render_matrix(payload) for payload in report[key])
    if "witness" in report and report["witness"] is not None:
        lines.append("witness: " + json.dumps(report["witness"], sort_keys=True))
    if "violation" in report and report["violation"] is not None:
        lines.append("violation: " + json.dumps(report["violation"], sort_keys=True)[:400])
    if "passed" in report:
        lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    if "elapsed_seconds" in report:
        lines.append(f"elapsed: {report['elapsed_seconds']:.3f}s")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text if args.format == "json" else render_text(report))
    if args.out is not None:
        args.out.write_text(text)


# --------------------------------------------------------------------------
# Commands.  Each returns its report body; main() adds the seed, the
# tolerance and the wall time, emits the report and maps ``passed`` to the
# exit code.
# --------------------------------------------------------------------------


def cmd_verify(args, seed: int, tol: Tolerance) -> dict:
    if args.replay is not None:
        payload = json.loads(args.replay.read_text())
        if "counterexamples" in payload:  # whole report: take the first record
            records = [ce for s in payload.get("suites", [payload])
                       for ce in s.get("counterexamples", [])
                       if ce.get("kind") == "triadic-violation"]
            if not records and payload.get("violation"):
                records = [payload["violation"]]
            if not records:
                raise ValueError("no replayable counterexample in the report")
            payload = records[0]
        elif payload.get("kind") != "triadic-violation" and payload.get("violation"):
            payload = payload["violation"]
        verdict, reproduced = replay_violation(payload, tol)
        return {"kind": "replay", "command": f"verify --replay {args.replay}",
                "verdict": verdict, "reproduced": reproduced, "passed": reproduced}

    if args.suite is None:
        raise ValueError("a suite name (or 'all') is required unless --replay is given")

    dims = None
    if args.dims is not None:
        dims = _parse_dims(args.dims)
    if args.dim is not None:
        dims = (args.dim,) if dims is None else (*dims, args.dim)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        # ``all`` applies --trials to the sampled suites and --a to lemma-aef only.
        every = args.suite == "all"
        trials = None if every and name in FIXED_GRID_SUITES else args.trials
        a_value = None if every and name != "lemma-aef" else args.a
        results.append(run_suite(name, dims=dims, trials=trials, seed=seed, tol=tol,
                                 a_value=a_value))
    return {"kind": "verify", "command": "verify " + " ".join(names), "suites": results,
            "passed": all(r["passed"] for r in results)}


def cmd_commutant(args, seed: int, tol: Tolerance) -> dict:
    matrix = load_matrix(args.input)

    def basis_payload(subspace):
        return [matrix_to_payload(b) for b in subspace.basis]

    report = {
        "kind": "commutant",
        "command": f"commutant --input {args.input} --which {args.which}",
        "which": args.which,
        "input_dim": int(matrix.shape[0]),
    }
    # Built per call, so that a wrapped module attribute is the one called.
    solvers = {"c": commutant, "anti": anticommutant, "cc": bicommutant}
    if args.which in solvers:
        sub = solvers[args.which](matrix, tol)
        report["real_dimension"] = sub.real_dimension
        report["basis"] = basis_payload(sub)
    else:
        qc = quasi_commutant(matrix, tol)
        report["parts"] = {
            "commutant": qc.commutant_part.real_dimension,
            "anticommutant": qc.anticommutant_part.real_dimension,
        }
        report["commutant_basis"] = basis_payload(qc.commutant_part)
        report["anticommutant_basis"] = basis_payload(qc.anticommutant_part)
    report["passed"] = True
    return report


def cmd_search(args, seed: int, tol: Tolerance) -> dict:
    report = {"kind": "search", "command": f"search {args.kind}"}
    try:
        if args.kind == "necessity-f":
            if args.dim < 3:
                raise ValueError("dimension must be at least 3")
            trial_report = necessity_search(args.dim, budget=args.budget, seed=seed, tol=tol)
            violation = trial_report.violations[0]
            report.update({
                "status": f"violation found after {trial_report.trials} trials",
                "violation": violation_to_payload(violation, necessity_map(args.dim, tol)),
                "passed": True,
            })
        elif args.kind == "scalar-witness":
            witness = scalar_witness(load_matrix(args.input), seed=seed, tol=tol)
            if witness is None:
                report.update({"status": "scalar input, no witness exists",
                               "witness": None, "passed": True})
            else:
                report.update({
                    "status": "witness found",
                    "witness": matrix_to_payload(witness, label="scalar-witness"),
                    "passed": True,
                })
        else:  # lemma7-refute
            matrix = load_matrix(args.input)
            if args.target is not None:
                target = load_matrix(args.target)
            else:
                bic = bicommutant(matrix, tol)
                target = random_hermitian(matrix.shape[0], seed)
                if bic.residual(target) <= 1e-6 * max(1.0, frobenius(target)):
                    target = random_hermitian(matrix.shape[0], seed + 1)
                report["target"] = matrix_to_payload(target, label="sampled-target")
            witness = refute_biquasi_membership(target, matrix, budget=args.budget,
                                                seed=seed, tol=tol)
            if witness is None:
                report.update({"status": "unrefuted (not a membership proof)",
                               "witness": None, "passed": True})
            else:
                report.update({
                    "status": "refuted: target is outside the second quasi-commutant",
                    "witness": matrix_to_payload(witness, label="refutation-witness"),
                    "passed": True,
                })
    except SearchExhausted as exc:
        return {**report, "status": str(exc), "passed": False}
    return report


def cmd_report(args) -> int:
    payload = json.loads(args.path.read_text())
    if (not isinstance(payload, dict) or payload.get("kind") not in REPORT_KINDS
            or not isinstance(payload.get("passed"), bool)):
        raise ValueError(f"{args.path} is not a commutant-lab report")
    sys.stdout.write(render_text(payload))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "report":
            return cmd_report(args)
        seed = _seed(args)
        tol = Tolerance(rel_zero=args.tol_zero, rank_cut=args.tol_rank,
                        cluster_gap=args.tol_cluster)
        start = time.perf_counter()
        command = {"verify": cmd_verify, "commutant": cmd_commutant, "search": cmd_search}
        report = command[args.command](args, seed, tol)
        report.update(seed=seed, tolerance=dataclasses.asdict(tol),
                      elapsed_seconds=time.perf_counter() - start)
        _emit(report, args)
        return EXIT_PASS if report["passed"] else EXIT_FAIL
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
