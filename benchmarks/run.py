"""commutant-lab benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics (``setup_s``,
``wall_s``, ``peak_rss_mb``) with the package untouched; with ``--trace 1``
it wraps every layer's public functions and reports the per-layer metrics.
Every call's output goes through the workload's correctness gate.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (  # first: it pins BLAS threads before numpy loads
    BLAS_THREAD_VARIABLES,
    FORM_CHECK_SUITES,
    SUBSPACE_SCALE,
    VERIFY_ALL,
    WORKLOADS,
    import_cli,
    run_cli,
    subspace_calls,
    suite_calls,
    write_subspace_inputs,
)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# Fresh processes started per run to measure set-up; the median is reported.
SETUP_PROBES = 9
# Every run measures at least this many passes, so that the median of a
# run with long passes (verify-all takes about 10 s per pass) is not a mean.
MIN_PASSES = 3


# --------------------------------------------------------------------------
# Environment block
# --------------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    """Commit of ``root`` read from its own ``.git``, or None outside git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_build() -> dict:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        return {"blas": "unavailable", "lapack": "unavailable"}
    return {
        key: {k: config[key].get(k) for k in ("name", "version", "openblas configuration")
              if config[key].get(k) is not None}
        for key in ("blas", "lapack") if key in config
    }


def environment(package_version: str) -> dict:
    return {
        "package_version": package_version,
        "git_commit": _git_commit(ROOT),
        "numpy": np.__version__,
        **_blas_build(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


# --------------------------------------------------------------------------
# Workload passes
# --------------------------------------------------------------------------


class Workload:
    """The (argv, gate) calls of one pass, and the failures the gates found."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        if name == SUBSPACE_SCALE:
            inputs = write_subspace_inputs(seed, workdir)
            self.calls = subspace_calls(inputs, seed)
            self.first_call = ["commutant", "--input", str(inputs[0][0]), "--which", "cc",
                               "--format", "json"]
        else:
            self.calls, recorded = suite_calls(name, seed)
            if not recorded:
                print(f"note: no digest recorded for seed {seed}; the gate checks "
                      "that passes agree with each other only", file=sys.stderr)
            suite = "brooke" if name == VERIFY_ALL else FORM_CHECK_SUITES[0]
            self.first_call = ["verify", suite, "--dims", "3", "--trials", "1",
                               "--seed", str(seed), "--format", "json"]
        self.failures: list[str] = []

    def run_pass(self, cli) -> list[tuple[int, str]]:
        return [run_cli(cli, argv) for argv, _ in self.calls]

    def check_pass(self, outputs: list[tuple[int, str]]) -> int:
        """Gate every call of one pass; returns the number that failed."""
        failed = 0
        for (argv, gate), (code, text) in zip(self.calls, outputs):
            reason = gate(code, text)
            if reason is not None:
                failed += 1
                self.failures.append(f"{' '.join(argv)}: {reason}")
        return failed


def timed_passes(workload: Workload, cli, seconds: float, min_passes: int, tracer=None):
    """Run whole passes, at least ``min_passes``, until the next would
    overrun ``seconds``.

    Returns per-pass wall times, the number of calls and failures and the
    bytes of report text emitted.  The gate runs outside the timed region.
    """
    times: list[float] = []
    attempted = failed = report_bytes = 0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        if tracer is None:
            outputs = workload.run_pass(cli)
        else:
            with tracer.span("bench.pass"):
                outputs = workload.run_pass(cli)
        times.append(time.perf_counter() - start)
        attempted += len(outputs)
        failed += workload.check_pass(outputs)
        report_bytes += sum(len(text.encode()) for _, text in outputs)
        elapsed = time.perf_counter() - begin
        if len(times) >= min_passes and elapsed + statistics.median(times) > seconds:
            return times, attempted, failed, report_bytes


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------


def setup_probes(workload: Workload) -> tuple[list[float], int]:
    """Wall time of fresh ``python3 -m commutant_lab`` processes making the
    workload's first call on its smallest input; returns (times, failures)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "commutant_lab", *workload.first_call]
    times, failures = [], 0
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures += 1
            workload.failures.append(f"set-up probe exited {proc.returncode}: "
                                     f"{proc.stderr.decode(errors='replace').strip()}")
    return times, failures


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def measure(workload: Workload, cli, seconds: float) -> tuple[dict, int, int, list[str]]:
    probe_times, probe_failures = setup_probes(workload)
    warm_code, _ = run_cli(cli, workload.first_call)
    times, attempted, failed, _ = timed_passes(workload, cli, seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(probe_times), "s"),
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    lines = [
        f"setup_s      {metrics['setup_s'][0]:.4f} s   median of fresh processes "
        f"({_summary(probe_times)})",
        f"wall_s       {metrics['wall_s'][0]:.4f} s   median per pass ({_summary(times)})",
        f"peak_rss_mb  {rss_mb:.1f} MiB peak resident set of this process",
    ]
    failed += probe_failures + (warm_code != 0)
    attempted += SETUP_PROBES + 1
    return metrics, attempted, failed, lines


def measure_traced(workload: Workload, cli, seconds: float, env: dict):
    from commutant_lab.suites import SUITE_NAMES
    from tracer import Tracer, unit

    warm_code, _ = run_cli(cli, workload.first_call)
    # Untraced and traced passes share the time budget; their difference
    # is what the tracing costs.
    plain, attempted, failed, _ = timed_passes(workload, cli, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, t_attempted, t_failed, report_bytes = timed_passes(
            workload, cli, seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(len(traced), report_bytes, SUITE_NAMES)
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    path = OUT / f"trace-{workload.name}.npz"
    tracer.save(path, env)
    metrics = {key: (value, unit(key)) for key, value in layer.items()}
    lines = [f"{key:34s} {value:.6g} {u}" for key, (value, u) in metrics.items()]
    lines.append("commutant.kernel_entries and kernel_bytes (8 x entries) are computed "
                 "from system shapes, not measured")
    lines.append(f"{len(tracer.span_name)} spans written to {path.relative_to(ROOT)}")
    return (metrics, attempted + t_attempted + 1,
            failed + t_failed + (warm_code != 0), lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="commutant-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        cli = import_cli(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import commutant_lab

    env = environment(commutant_lab.__version__)
    print("environment " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        workload = Workload(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, lines = measure_traced(workload, cli, args.seconds, env)
        else:
            metrics, attempted, failed, lines = measure(workload, cli, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  error_rate   {failed / attempted:.4g}   ({failed} of {attempted} calls failed "
          "the correctness gate)")
    for reason in workload.failures[:20]:
        print(f"  gate failure: {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
