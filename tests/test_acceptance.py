"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance and budget is pinned here; the library defaults are only
used where the criterion states none.  Counts that have one value in every
run (lemma-4 candidates, the lemma-aef grid, the lemma-7 refutation budget,
the ten theorem map configurations) are constants of
``commutant_lab.suites``.
"""

import time

import numpy as np
import pytest

from commutant_lab import (
    PreserverMap,
    ShiftPolicy,
    anticommutant,
    bicommutant,
    check_triadic,
    commutant,
    is_scalar,
    necessity_search,
    random_hermitian,
    random_unitary,
    rel_q,
    scalar_witness,
    subspace_eq,
)
from commutant_lab.preservers import default_necessity_anchor
from commutant_lab.suites import (
    suite_brooke,
    suite_lemma_18,
    suite_lemma_181,
    suite_lemma_4,
    suite_lemma_7,
    suite_lemma_aef,
    suite_lemma_primitive,
    suite_lemma_primitive1,
    suite_theorem_4,
    suite_theorem_5,
)
from commutant_lab.commutant import _krylov_bicommutant
from oracles import (
    anticommutant_dim_formula,
    bicommutant_dim_formula,
    commutant_dim_formula,
    kernel_anticommutant,
    kernel_bicommutant,
    kernel_commutant,
)

SEED = 20240811


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_brooke_equivalence():
    """>=1000 random pairs (dims 3-8) plus 2x200 constructed pairs; every
    detected quasi-commutation has factor within 1e-6 of +-1; under 10 s."""
    start = time.perf_counter()
    result = suite_brooke(dims=(3, 4, 5, 6, 7, 8), trials=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    passed = result["passed"] and elapsed < 10.0
    report(
        "brooke-equivalence", passed,
        f"{result['checks']} pairs, {result['failures']} violations, "
        f"max lambda error {result['details']['max_lambda_error']:.2e}, {elapsed:.1f}s",
    )
    assert result["failures"] == 0
    assert elapsed < 10.0


def test_commutant_dimension_oracle_agreement():
    """Four-way agreement on 500 matrices, dims 3-10, in under 30 s: the
    eigenbasis route, the kernel-solver oracles and, for the second
    commutant, the Krylov oracle give equal subspaces, and all have the
    dimensions of the spectral formulas."""
    start = time.perf_counter()
    disagreements = 0
    for i in range(500):
        rng = np.random.default_rng([SEED, 1, i])
        dim = int(rng.integers(3, 11))
        if rng.random() < 0.5:
            a = random_hermitian(dim, rng)
        else:
            # controlled spectra exercise repeats, sign pairs and kernels
            values = rng.choice(np.arange(-3, 4), size=dim, replace=True).astype(float)
            v = random_unitary(dim, rng)
            a = (v * values) @ v.conj().T
            a = (a + a.conj().T) / 2.0
        ok = True
        for fast, checks, formula in (
            (commutant, (kernel_commutant,), commutant_dim_formula),
            (anticommutant, (kernel_anticommutant,), anticommutant_dim_formula),
            (bicommutant, (kernel_bicommutant, _krylov_bicommutant), bicommutant_dim_formula),
        ):
            s, expected = fast(a), formula(a)
            for check in checks:
                t = check(a)
                ok = ok and s.real_dimension == t.real_dimension == expected and subspace_eq(s, t)
        disagreements += 0 if ok else 1
    elapsed = time.perf_counter() - start
    passed = disagreements == 0 and elapsed < 30.0
    report(
        "commutant-dimension-oracles", passed,
        f"500 matrices, {disagreements} disagreements, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert elapsed < 30.0


def test_lemma_aef_fixtures():
    """Spectra within 1e-10 and the exact commutation pattern on the 5x5
    weight grid for a in {0.25, 0.5, 1, 2, 4} and dims {3, 4, 7}."""
    result = suite_lemma_aef(
        dims=(3, 4, 7),
        a_values=(0.25, 0.5, 1.0, 2.0, 4.0),
    )
    report(
        "lemma-aef", result["passed"],
        f"{result['checks']} exact checks, {result['failures']} failures",
    )
    assert result["failures"] == 0


def test_lemma_18_and_181_partition_oracle():
    """Predicate equals partition oracle on 500 nonscalar samples with 2-5
    distinct eigenvalues; a witness is emitted for every failing case."""
    r18 = suite_lemma_18(dims=(3, 4, 5, 6, 7, 8), trials=300, seed=SEED)
    r181 = suite_lemma_181(dims=(3, 4, 5, 6, 7, 8), trials=200, seed=SEED)
    failures = r18["failures"] + r181["failures"]
    samples = r18["details"]["samples"] + r181["details"]["samples"]
    passed = failures == 0 and samples >= 500
    report(
        "lemma-1.8/1.81", passed,
        f"{samples} samples, {failures} disagreements, "
        f"{r18['details']['witnesses_emitted']} witnesses emitted",
    )
    assert failures == 0
    assert samples >= 500


def test_lemma_18_and_181_at_large_dimension():
    """The partition oracles at n = 16 and 32, 20 samples each, pass with no
    disagreement in under 30 s.  The Krylov bicommutant holds at most n
    matrices; the realified kernel solve it replaced builds a system of
    2 k n^4 real entries (k the commutant dimension), gigabytes at n = 32."""
    start = time.perf_counter()
    r18 = suite_lemma_18(dims=(16, 32), trials=20, seed=SEED)
    r181 = suite_lemma_181(dims=(16, 32), trials=20, seed=SEED)
    elapsed = time.perf_counter() - start
    failures = r18["failures"] + r181["failures"]
    report(
        "lemma-1.8/1.81 at n = 16, 32", failures == 0 and elapsed < 30.0,
        f"{r18['checks'] + r181['checks']} checks, {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 30.0


def test_lemma_7_containment():
    """200 operators (dims 3-6), 50 outsiders each: every outsider refuted;
    second-commutant members never refuted when the quasi-commutant is a
    subspace."""
    result = suite_lemma_7(dims=(3, 4, 5, 6), trials=200, seed=SEED, targets=50)
    report(
        "lemma-7", result["passed"],
        f"{result['details']['outsiders_refuted']} outsiders refuted, "
        f"{result['details']['members_checked']} members checked, "
        f"{result['failures']} failures",
    )
    assert result["failures"] == 0


def test_lemma_7_at_large_dimension():
    """8 operators at n = 32 pass in under 30 s (2-3 s on a 2-vCPU VM).
    Each member check scans a refutation pool of about 160 candidates of
    size 32, so the cost of deciding that pool shows here far more than at
    the default dimensions."""
    start = time.perf_counter()
    result = suite_lemma_7(dims=(32,), trials=8, seed=SEED)
    elapsed = time.perf_counter() - start
    report(
        "lemma-7 at n = 32", result["passed"] and elapsed < 30.0,
        f"{result['details']['outsiders_refuted']} outsiders refuted, "
        f"{result['details']['members_checked']} members checked, "
        f"{result['failures']} failures, {elapsed:.1f}s",
    )
    assert result["failures"] == 0
    assert elapsed < 30.0


def test_theorem_4_at_large_dimension():
    """256 triples per map at n = 32 pass in under 30 s (1.4-1.7 s on a
    2-vCPU VM).  ``property_run`` stacks 16 trials at a time there, not
    128, so that each block's stacks stay in cache."""
    start = time.perf_counter()
    result = suite_theorem_4(dims=(32,), trials=256, seed=SEED)
    elapsed = time.perf_counter() - start
    report(
        "theorem-4 at n = 32", result["passed"] and elapsed < 30.0,
        f"{result['checks']} triples, {result['failures']} violations, {elapsed:.1f}s",
    )
    assert result["failures"] == 0
    assert elapsed < 30.0


def test_lemma_primitive_witness_chains():
    """Witness constructions give the (2, 3, 4) bicommutant chain at dim 4
    and strict containments at dims 4-6; the quasi-side variant additionally
    keeps every piece's anticommutant inside its commutant."""
    plain = suite_lemma_primitive(dims=(4, 5, 6), seed=SEED)
    quasi = suite_lemma_primitive1(dims=(4, 5, 6), seed=SEED)
    failures = plain["failures"] + quasi["failures"]
    report(
        "lemma-primitive/primitive1", failures == 0,
        f"{plain['checks'] + quasi['checks']} checks over "
        f"{plain['details']['configurations'] + quasi['details']['configurations']} "
        f"configurations, {failures} failures",
    )
    assert failures == 0


def test_theorem_4_form_check():
    """10 configurations (c in {+-0.5, +-1, +-3}, random unitary, both
    flags, three shift kinds), 2000 structured+random triples each at dims
    {3, 4, 5}: zero violations, under 60 s."""
    start = time.perf_counter()
    result = suite_theorem_4(dims=(3, 4, 5), trials=2000, seed=SEED)
    elapsed = time.perf_counter() - start
    passed = result["passed"] and elapsed < 60.0
    report(
        "theorem-4-form-check", passed,
        f"{result['checks']} triples, {result['failures']} violations, {elapsed:.1f}s",
    )
    assert result["failures"] == 0
    assert elapsed < 60.0


def test_theorem_5_form_check():
    """Same regime with the identically vanishing shift on the quasi
    relation: zero violations."""
    start = time.perf_counter()
    result = suite_theorem_5(dims=(3, 4, 5), trials=2000, seed=SEED)
    elapsed = time.perf_counter() - start
    passed = result["passed"] and elapsed < 60.0
    exploratory = result["details"]["exploratory_nonzero_shift"]
    report(
        "theorem-5-form-check", passed,
        f"{result['checks']} triples, {result['failures']} violations, "
        f"exploratory nonzero shift: {exploratory['violations_observed']} violations "
        f"in {exploratory['trials']} trials (reported, not asserted), {elapsed:.1f}s",
    )
    assert result["failures"] == 0
    assert elapsed < 60.0


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_necessity_of_vanishing_shift(dim):
    """A nonzero shift on a partnered matrix breaks the quasi relation within
    100 trials, and the emitted triple re-validates on replay."""
    violation = necessity_search(dim, budget=100, seed=SEED)
    anchor = default_necessity_anchor(dim)
    preserver = PreserverMap(
        scale=1.0,
        conjugator=np.eye(dim, dtype=complex),
        shift=ShiftPolicy("pinned", value=1.0, anchor=anchor),
        relation_kind="quasi",
    )
    replayed = check_triadic(preserver, violation.a, violation.b, violation.c)
    passed = violation.trial < 100 and replayed == violation.direction
    report(
        f"necessity-of-vanishing-shift(dim={dim})", passed,
        f"violation after {violation.trial + 1} trials, replay verdict {replayed}",
    )
    assert violation.trial < 100
    assert replayed == violation.direction


def test_lemma_4_and_scalar_witness_searches():
    """Rigidity holds for 20 (lambda, P) configurations; the scalar-witness
    search succeeds on 100 nonscalar matrices and correctly returns nothing
    for scalars."""
    r4 = suite_lemma_4(dims=(3, 4, 5, 8), trials=20, seed=SEED)
    witness_ok = 0
    checked = 0
    for i in range(100):
        rng = np.random.default_rng([SEED, 2, i])
        dim = int(rng.integers(3, 8))
        a = random_hermitian(dim, rng)
        if is_scalar(a):
            continue
        checked += 1
        b = scalar_witness(a, seed=SEED + i)
        if b is not None and not rel_q(b - a, b):
            witness_ok += 1
    scalar_none = all(
        scalar_witness(t * np.eye(4, dtype=complex)) is None for t in (0.0, 1.0, -2.5)
    )
    passed = r4["failures"] == 0 and witness_ok == checked and scalar_none
    report(
        "lemma-4-and-scalar-witness", passed,
        f"{r4['checks']} rigidity configurations, {witness_ok}/{checked} witnesses, "
        f"scalars report none: {scalar_none}",
    )
    assert r4["failures"] == 0
    assert witness_ok == checked
    assert scalar_none
