"""Workload definitions for the commutant-lab benchmark.

Each workload is a fixed set of CLI calls made in-process through
``commutant_lab.cli.main``; one *pass* makes every call once.  The inputs
depend only on the seed.  Every call's output goes through the workload's
correctness gate, which is computed here, independently of the library.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

# One BLAS thread for every measurement and for the recorded digests.  On a
# small shared machine, BLAS threads competing with other processes made
# single subspace queries slow down by up to 40x; one thread keeps runs
# comparable.  This must run before numpy is first imported.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

VERIFY_ALL = "verify-all"
FORM_CHECK = "form-check"
SUBSPACE_SCALE = "subspace-scale"
WORKLOADS = (VERIFY_ALL, FORM_CHECK, SUBSPACE_SCALE)

# Acceptance size of the form-check suites (ROADMAP item 2 targets these).
FORM_CHECK_SUITES = ("theorem-4", "theorem-5")
FORM_CHECK_TRIALS = 2000

SUBSPACE_SIZES = (4, 8, 12, 16)
SUBSPACE_KINDS = ("generic", "degenerate")
SUBSPACE_QUERIES = ("c", "anti", "cc", "quasi")

DIGEST_FILE = Path(__file__).with_name("digests.json")


def import_cli(root: Path):
    """Import ``commutant_lab.cli`` from ``root/src`` and nowhere else.

    Raises ``ImportError`` when the checkout has no package source, so the
    benchmark never measures a copy installed elsewhere.
    """
    src = (root / "src").resolve()
    if not (src / "commutant_lab" / "__init__.py").is_file():
        raise ImportError(f"no package source at {src / 'commutant_lab'}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("commutant_lab.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"commutant_lab was imported from {cli.__file__}, not {src}")
    return cli


CRASHED = -1  # exit code recorded for a call that raised out of cli.main


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main(argv)`` with stdout captured; returns (exit code, stdout).

    An exception escaping ``cli.main`` is printed to stderr and returned as
    exit code ``CRASHED``, so the gate counts it and the run goes on.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return CRASHED, buf.getvalue()
    return code, buf.getvalue()


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def body_digest(report: dict) -> str:
    """SHA-256 of the report body with every ``elapsed_seconds`` removed."""
    body = json.dumps(_strip_elapsed(report), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


# --------------------------------------------------------------------------
# Suite workloads: verify-all and form-check
# --------------------------------------------------------------------------


def suite_argvs(workload: str, seed: int) -> list[list[str]]:
    """The CLI calls of one pass of a suite workload."""
    common = ["--seed", str(seed), "--format", "json"]
    if workload == VERIFY_ALL:
        return [["verify", "all", *common]]
    return [["verify", name, "--trials", str(FORM_CHECK_TRIALS), *common]
            for name in FORM_CHECK_SUITES]


def load_digests() -> dict:
    """Report digests recorded at the seed commit, keyed workload -> seed."""
    return json.loads(DIGEST_FILE.read_text())


def suite_gate(code: int, text: str) -> tuple[str | None, str]:
    """Check one suite call; returns (failure reason or None, body digest)."""
    if code != 0:
        return f"exit code {code}", ""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"stdout is not a JSON report: {exc}", ""
    digest = body_digest(report)
    if not report.get("passed") or not report.get("suites"):
        return "report not passed", digest
    for suite in report["suites"]:
        if not suite["passed"] or suite["failures"] != 0:
            return f"suite {suite['name']} failed", digest
    return None, digest


def replay_gate(recorded: str | None):
    """Gate for one suite call under the replay rule.

    The report must pass and its body digest must equal ``recorded``; with
    no record, every pass must equal the first passing one.
    """
    reference = [recorded]

    def gate(code: int, text: str) -> str | None:
        reason, digest = suite_gate(code, text)
        if reason is None:
            if reference[0] is None:
                reference[0] = digest
            elif digest != reference[0]:
                reason = f"report digest {digest[:12]} differs from {reference[0][:12]}"
        return reason

    return gate


def suite_calls(workload: str, seed: int) -> tuple[list, bool]:
    """(argv, gate) pairs of one suite-workload pass, and whether the seed
    has recorded digests."""
    recorded = load_digests()[workload].get(str(seed))
    argvs = suite_argvs(workload, seed)
    calls = [(argv, replay_gate(recorded[i] if recorded else None))
             for i, argv in enumerate(argvs)]
    return calls, recorded is not None


# --------------------------------------------------------------------------
# subspace-scale: matrix files with known spectra
# --------------------------------------------------------------------------


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def spectrum(kind: str, n: int, rng: np.random.Generator) -> list[tuple[float, int]]:
    """Eigenvalue clusters ``(value, multiplicity)`` of one input matrix.

    ``generic``: n simple eigenvalues, at least 0.1 apart, at least 0.5 away
    from zero and with no two summing to less than 0.1 in magnitude, so no
    ``+-lambda`` pair and no kernel.  ``degenerate``: a kernel, a ``+-lambda``
    pair and one more value, each of multiplicity n/4 except the last,
    which takes the rest.
    """
    if kind == "generic":
        magnitudes = 0.5 + np.cumsum(rng.uniform(0.1, 0.4, size=n))
        signs = rng.choice([-1.0, 1.0], size=n)
        return [(float(v), 1) for v in magnitudes * signs]
    m = n // 4
    lam = float(rng.uniform(0.5, 2.0))
    mu = lam + float(rng.uniform(0.5, 1.5))
    return [(0.0, m), (lam, m), (-lam, m), (mu, n - 3 * m)]


def expected_dimensions(clusters: list[tuple[float, int]]) -> dict[str, int]:
    """Real dimensions from the spectrum alone.

    commutant: sum of m_i^2; bicommutant: number of distinct values;
    anticommutant: m_0^2 for the kernel plus 2 m_i m_j for every
    ``+-lambda`` pair.  Values are compared exactly: the generator places
    the pairs exactly and keeps everything else at least 0.1 apart.
    """
    mult = dict(clusters)
    anti = mult.get(0.0, 0) ** 2
    anti += sum(2 * m * mult[-v] for v, m in clusters if v > 0 and -v in mult)
    return {
        "c": sum(m * m for _, m in clusters),
        "cc": len(clusters),
        "anti": anti,
    }


def write_subspace_inputs(seed: int, workdir: Path) -> list[tuple[Path, dict[str, int]]]:
    """Write one matrix file per (size, kind); returns (path, expected dims)."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for n in SUBSPACE_SIZES:
        for k, kind in enumerate(SUBSPACE_KINDS):
            rng = np.random.default_rng([seed, n, k])
            clusters = spectrum(kind, n, rng)
            values = np.repeat([v for v, _ in clusters], [m for _, m in clusters])
            v = _haar_unitary(rng, n)
            a = (v * values) @ v.conj().T
            a = (a + a.conj().T) / 2.0
            payload = {
                "dim": n,
                "label": f"{kind}-n{n}",
                "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
            }
            path = workdir / f"{kind}-n{n}.json"
            path.write_text(json.dumps(payload))
            inputs.append((path, expected_dimensions(clusters)))
    return inputs


def subspace_calls(inputs, seed: int) -> list:
    """(argv, gate) pairs of one subspace-scale pass."""
    return [
        (["commutant", "--input", str(path), "--which", which,
          "--seed", str(seed), "--format", "json"],
         functools.partial(subspace_gate, expected=expected, which=which))
        for path, expected in inputs
        for which in SUBSPACE_QUERIES
    ]


def subspace_gate(code: int, text: str, expected: dict[str, int], which: str) -> str | None:
    """Check one commutant query against the spectrum's dimension formulas."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"stdout is not a JSON report: {exc}"
    if which == "quasi":
        got = report.get("parts", {})
        want = {"commutant": expected["c"], "anticommutant": expected["anti"]}
        sizes = (len(report.get("commutant_basis", ())),
                 len(report.get("anticommutant_basis", ())))
        if got != want or sizes != (want["commutant"], want["anticommutant"]):
            return f"quasi parts {got}, bases {sizes}, expected {want}"
        return None
    got = report.get("real_dimension")
    if got != expected[which] or len(report.get("basis", ())) != expected[which]:
        return f"--which {which}: real_dimension {got}, expected {expected[which]}"
    return None
