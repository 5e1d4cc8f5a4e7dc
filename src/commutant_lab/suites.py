"""Named verification suites behind the command-line harness.

Every suite is a pure function of ``(dims, seed, tol)``, plus ``trials``
for the sampled suites; ``lemma-aef`` and the two primitive suites run a
fixed grid, and ``lemma-aef`` reads weights, not a seed.  Each returns a
plain dict: name, pass flag, check/failure counts, suite-specific details
and counterexample records carrying full matrices for replay.  Identical
arguments reproduce identical results; :func:`run_suite` adds the wall
time as ``elapsed_seconds``, which replay comparisons ignore.
"""

from __future__ import annotations

import time
from math import isfinite

import numpy as np

from .commutant import (
    SearchExhausted,
    bicommutant,
    commutant,
    quasi_commutant,
    quasi_equals_commutant,
    refute_biquasi_membership,
    scalar_witness,
    subspace_eq,
    subspace_proper_lt,
)
from .hermitian import (
    DEFAULT_TOLERANCE,
    ENTRY_BOUND,
    Tolerance,
    _check_seed,
    _generators,
    _projection,
    _spectral,
    _symmetrize,
    frobenius,
    is_scalar,
    random_hermitian,
    random_projection,
    random_scalar,
    random_unitary,
    rel_c,
    rel_q,
    rel_stack,
)
from .matrixfile import _field, _path, _payload_entries, matrix_to_payload, payload_to_matrix
from .preservers import (
    _BELOW_THREE,
    PreserverMap,
    ShiftPolicy,
    check_triadic,
    lemma4_check,
    property_run,
)
from .spectral import (
    build_aef,
    distinct_count,
    has_two_point_spectrum,
    in_k,
    lemma18_minimality,
    lemma18_witness,
    lemma181_condition,
    lemma181_oracle,
    lemma_primitive_witnesses,
    spectral_decompose,
)

__all__ = [
    "SUITE_NAMES",
    "map_from_payload",
    "map_to_payload",
    "run_suite",
    "shift_from_payload",
    "shift_to_payload",
    "suite_calls",
    "violation_to_payload",
]

LAMBDA_TOLERANCE = 1e-6
# Commuting and anticommuting pairs the brooke suite builds, of each kind.
CONSTRUCTED_PAIRS = 200
# Trials of theorem-5's exploratory run of a compliant nonzero shift.
EXPLORATORY_TRIALS = 200
# Candidates per lemma-4 configuration, the lemma-aef weight grid and the
# random candidates per part of each lemma-7 refutation search.
LEMMA4_CANDIDATES = 1000
AEF_GRID = (-2.0, -1.0, 0.5, 1.0, 2.0)
REFUTATION_BUDGET = 16
# A lemma-7 target in the second commutant at this tolerance is skipped or redrawn.
TARGET_GUARD = Tolerance(rel_zero=1e-6)


class _Recorder:
    """Checks, failures and counterexample records of one suite run."""

    def __init__(self) -> None:
        self.checks = self.failures = 0
        self.counterexamples: list[dict] = []

    def check(self, ok, record=None) -> bool:
        """Count one check; a failed one also counts a failure and keeps
        ``record`` (a dict, or a function building it, so that passing
        checks never serialize matrices).  Returns ``ok``."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if record is not None:
                self.counterexamples.append(record() if callable(record) else record)
        return ok

    def result(self, name: str, details: dict) -> dict:
        return {
            "name": name,
            "passed": self.failures == 0,
            "checks": self.checks,
            "failures": self.failures,
            "details": details,
            "counterexamples": self.counterexamples,
        }


def _composition(rng, total: int, parts: int) -> list[int]:
    """Random composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    edges = np.concatenate([[0], cuts, [total]])
    return list(np.diff(edges).astype(int))


# --------------------------------------------------------------------------
# Commutation-or-anticommutation suite
# --------------------------------------------------------------------------


def _proportionality_fit(a, b, tol: Tolerance):
    """Fit of ``AB = lam BA``: ``None`` when ``|BA|_F`` passes the zero test
    at scale ``|A|_F |B|_F`` (the pair then commutes and anticommutes), else
    the least-squares ``lam``, ``|AB - lam BA|_F`` and whether that passes
    the same zero test."""
    ba = b @ a
    ba_norm, scale = frobenius(ba), frobenius(a) * frobenius(b)
    if tol.is_zero(ba_norm, scale):
        return None
    ab = a @ b
    lam = complex(np.sum(ba.conj() * ab)) / (ba_norm ** 2)
    residual = frobenius(ab - lam * ba)
    return lam, residual, bool(tol.is_zero(residual, scale))


def suite_brooke(dims=(3, 4, 5, 8), trials=1000, seed=0, tol=DEFAULT_TOLERANCE):
    """Whenever AB is proportional to BA for a Hermitian pair, the factor is +-1.

    Runs ``trials`` random pairs plus ``CONSTRUCTED_PAIRS`` commuting and
    ``CONSTRUCTED_PAIRS`` anticommuting pairs; the constructed ones must be
    detected with the matching sign.

    Pairs go through :func:`_proportionality_fit`.  A pair whose ``|BA|_F``
    passes the zero test is trivially proportional.  For Hermitian pairs
    the fit residual is ``|BA|_F sqrt(1 - |lam|^2)``, so a relative
    ``|BA|_F`` in ``(rel_zero, rel_zero / sqrt(1 - |lam|^2)]`` is still
    accepted with an uninformative ``lam`` and fails the sign check.
    """
    dims = tuple(dims)
    rec = _Recorder()
    errors = []  # distance of each detected factor from +-1

    def lambda_check(a, b, expected_sign=None):
        fit = _proportionality_fit(a, b, tol)
        if fit is None:
            rec.check(True)
            return
        lam, residual, accepted = fit
        if not accepted:
            rec.check(expected_sign is None, lambda: {
                "a": matrix_to_payload(a), "b": matrix_to_payload(b),
                "reason": "constructed pair not detected"})
            return
        err = min(abs(lam - 1.0), abs(lam + 1.0))
        errors.append(err)
        sign_ok = err <= LAMBDA_TOLERANCE
        if expected_sign is not None:
            sign_ok = sign_ok and abs(lam - expected_sign) <= LAMBDA_TOLERANCE
        rec.check(sign_ok, lambda: {"a": matrix_to_payload(a), "b": matrix_to_payload(b),
                                    "lambda": [lam.real, lam.imag], "residual": residual})

    for rng in _generators([seed, 1], range(trials)):
        dim = dims[int(rng.integers(len(dims)))]
        lambda_check(random_hermitian(dim, rng), random_hermitian(dim, rng))
    for rng in _generators([seed, 2], range(CONSTRUCTED_PAIRS)):
        dim = dims[int(rng.integers(len(dims)))]
        a = random_hermitian(dim, rng)
        _, v = np.linalg.eigh(a)
        lambda_check(a, _spectral(v, rng.uniform(0.5, 2.0, size=dim)
                                  * rng.choice([-1.0, 1.0], size=dim)), expected_sign=1.0)
    for rng in _generators([seed, 3], range(CONSTRUCTED_PAIRS)):
        dim = dims[int(rng.integers(len(dims)))]
        lam = float(rng.uniform(0.5, 2.0))
        values = np.concatenate([[lam, -lam], rng.standard_normal(dim - 2)])
        # Build the pair in one shared eigenbasis so it anticommutes exactly.
        v = random_unitary(dim, rng)
        a = _spectral(v, values)
        swap = np.zeros((dim, dim), dtype=complex)
        swap[0, 1] = swap[1, 0] = 1.0
        lambda_check(a, _symmetrize(v @ swap @ v.conj().T), expected_sign=-1.0)

    return rec.result("brooke", {"random_pairs": trials,
                                 "constructed_pairs": 2 * CONSTRUCTED_PAIRS,
                                 "detected": len(errors),
                                 "max_lambda_error": max(errors, default=0.0)})


# --------------------------------------------------------------------------
# Scalar characterization suite
# --------------------------------------------------------------------------


def suite_lemma_scalar(dims=(3, 4, 5, 8), trials=100, seed=0, tol=DEFAULT_TOLERANCE):
    """Scalars are exactly the matrices whose commutant is everything; every
    nonscalar matrix admits a witness B with B - A neither commuting nor
    anticommuting with B."""
    rec = _Recorder()
    witnesses = 0

    for dim in dims:
        full = dim * dim
        for a, anti_expected in (
            (random_scalar(dim, [seed, dim]), 0),
            (np.zeros((dim, dim), dtype=complex), full),
        ):
            qc = quasi_commutant(a, tol)
            rec.check(qc.commutant_part.real_dimension == full)
            rec.check(qc.anticommutant_part.real_dimension == anti_expected)
            rec.check(scalar_witness(a, seed=seed, tol=tol) is None)

    for t, rng in enumerate(_generators([seed, 4], range(trials))):
        dim = dims[t % len(dims)]
        a = random_hermitian(dim, rng)
        if is_scalar(a, tol):
            continue
        rec.check(commutant(a, tol).real_dimension < dim * dim,
                  lambda: {"a": matrix_to_payload(a), "reason": "full commutant"})
        try:
            b = scalar_witness(a, seed=seed + t, tol=tol)
        except SearchExhausted:  # a loose rel_zero: counted as a failed check
            b = None
        if rec.check(b is not None and not rel_q(b - a, b, tol),
                     lambda: {"a": matrix_to_payload(a), "reason": "witness search failed"}):
            witnesses += 1

    return rec.result("lemma-scalar", {"nonscalar_samples": trials,
                                       "witnesses_found": witnesses})


# --------------------------------------------------------------------------
# Shifted-anticommutation rigidity suite
# --------------------------------------------------------------------------


def suite_lemma_4(dims=(3, 4, 5, 8), trials=20, seed=0, tol=DEFAULT_TOLERANCE):
    """Mutual shifted anticommutation at a nonzero shift pins B to A."""
    rec = _Recorder()
    for t, rng in enumerate(_generators([seed, 5], range(trials))):
        dim = dims[t % len(dims)]
        lam = float(rng.choice([0.7, -1.5, 2.0, 3.0, -0.5]))
        rank = int(rng.integers(1, dim + 1))
        p = random_projection(dim, rank, rng)
        ok = lemma4_check(lam, p, candidates=LEMMA4_CANDIDATES, seed=seed + 7 * t, tol=tol)
        rec.check(ok, lambda: {"p": matrix_to_payload(p), "lambda": lam})
    return rec.result("lemma-4", {"configurations": trials,
                                  "candidates_per_configuration": LEMMA4_CANDIDATES})


# --------------------------------------------------------------------------
# Block-fixture suite
# --------------------------------------------------------------------------


def suite_lemma_aef(dims=(3, 4, 5, 8), tol=DEFAULT_TOLERANCE,
                    a_values=(0.25, 0.5, 1.0, 2.0, 4.0)):
    """Spectra and the exact commutation pattern of the A/E/F block fixtures,
    over a finite exact grid; nothing is sampled, so it takes no seed."""
    rec = _Recorder()
    grid = np.array(AEF_GRID)[:, None, None]  # one weight per (n, n) slice

    for a in a_values:
        lam = float(np.sqrt(1.0 + a * a))
        for dim in dims:
            fa, fe, ff = build_aef(a, dim)
            for mat, pair, label in ((fa, (-lam, lam), "A"), (fe, (-abs(a), abs(a)), "E"),
                                     (ff, (-1.0, 1.0), "F")):
                sd = spectral_decompose(mat, tol)
                # scalar * (I - 2 * rank-one projection) decomposition, by the
                # bulk: the point of multiplicity dim - 1 (lam, a or 1, the
                # bottom point of E for a < 0); a one-point spectrum fails
                # the checks
                bulk = sd.distinct_values[np.argmax(sd.multiplicities)]
                proj = (np.eye(dim) - mat / bulk) / 2.0
                for ok, what in (
                    (sd.count == 2, "two spectral points"),
                    (bool(np.all(np.abs(sd.distinct_values - np.array(pair)) <= 1e-10)),
                     "spectrum matches"),
                    (in_k(mat, tol), "scaled reflection"),
                    (frobenius(proj @ proj - proj) <= 1e-10
                     and abs(np.trace(proj).real - 1.0) <= 1e-10,
                     "rank-one reflection direction"),
                ):
                    rec.check(ok, {"context": f"{label}: {what} (a={a}, dim={dim})"})
            # alpha A - w E against F and alpha A - w F against E as one
            # (alpha, side, w) stack, each entry computed as for one pair
            lhs = grid[:, None, None] * fa - grid * np.array([fe, ff])[:, None]
            commutes, anticommutes = rel_stack(lhs, np.array([ff, fe])[:, None], tol)
            for i, alpha in enumerate(AEF_GRID):
                for j, (term, name) in enumerate((("eps E", "F"), ("phi F", "E"))):
                    for k, w in enumerate(AEF_GRID):
                        where = f"(a={a}, dim={dim}, {alpha}, {w})"
                        rec.check(commutes[i, j, k] == (alpha == w),
                                  {"context": f"alpha A - {term} vs {name} commutation {where}"})
                        rec.check(not anticommutes[i, j, k],
                                  {"context": f"(alpha A - {term}) o {name} nonzero {where}"})

    return rec.result("lemma-aef", {"a_values": list(a_values), "dims": list(dims),
                                    "grid": list(AEF_GRID)})


# --------------------------------------------------------------------------
# Two-point-spectrum minimality suites
# --------------------------------------------------------------------------


def _controlled_sample(rng, dim: int, value_pool) -> np.ndarray:
    """Nonscalar matrix with 2..min(5, dim) exact distinct eigenvalues."""
    k = int(rng.integers(2, min(5, dim) + 1))
    values = rng.choice(value_pool, size=k, replace=False).astype(float)
    mults = _composition(rng, dim, k)
    return _spectral(random_unitary(dim, rng), np.repeat(values, mults))


def suite_lemma_18(dims=(3, 4, 5, 8), trials=120, seed=0, tol=DEFAULT_TOLERANCE):
    """Two-point spectra are exactly the matrices whose strictly-smaller
    second commutants all come from scalars; checked predicate-vs-partition
    oracle, with a witness emitted for every failing matrix."""
    rec = _Recorder()
    witnesses = 0
    pool = np.arange(-5, 6)
    for rng in _generators([seed, 6], range(trials)):
        dim = dims[int(rng.integers(len(dims)))]
        a = _controlled_sample(rng, dim, pool)
        pred = has_two_point_spectrum(a, tol)
        oracle = lemma18_minimality(a, tol)
        if not rec.check(pred == oracle, lambda: {"a": matrix_to_payload(a),
                                                  "predicate": pred, "oracle": oracle}):
            continue
        if not oracle:
            b = lemma18_witness(a, tol)
            ok = (
                b is not None
                and not is_scalar(b, tol)
                and subspace_proper_lt(bicommutant(b, tol), bicommutant(a, tol), tol)
            )
            if rec.check(ok, lambda: {"a": matrix_to_payload(a), "reason": "bad witness"}):
                witnesses += 1
    return rec.result("lemma-1.8", {"samples": trials, "witnesses_emitted": witnesses})


def suite_lemma_181(dims=(3, 4, 5, 8), trials=100, seed=0, tol=DEFAULT_TOLERANCE):
    """Quasi-side variant over matrices whose anticommutant sits inside the
    commutant: two points not adding to zero, against the restricted
    partition oracle."""
    rec = _Recorder()
    pool = np.arange(0, 9)  # nonnegative values: no sign-symmetric pairs
    for rng in _generators([seed, 7], range(trials)):
        dim = dims[int(rng.integers(len(dims)))]
        a = _controlled_sample(rng, dim, pool)
        if not quasi_equals_commutant(a, tol):
            rec.check(False, lambda: {"a": matrix_to_payload(a), "reason": "precondition"})
            continue
        pred = lemma181_condition(a, tol)
        oracle = lemma181_oracle(a, tol)
        rec.check(pred == oracle, lambda: {"a": matrix_to_payload(a), "predicate": pred,
                                           "oracle": oracle})
    return rec.result("lemma-1.81", {"samples": trials})


# --------------------------------------------------------------------------
# Second-quasi-commutant containment suite
# --------------------------------------------------------------------------


def suite_lemma_7(dims=(3, 4, 5, 8), trials=40, seed=0, tol=DEFAULT_TOLERANCE, targets=12):
    """The second quasi-commutant sits inside the second commutant: every
    sampled matrix outside the latter is conclusively refuted, and when the
    quasi-commutant is a subspace, no member of the second commutant is."""
    rec = _Recorder()
    refuted = members_checked = 0
    for i, rng in enumerate(_generators([seed, 8], range(trials))):
        dim = dims[int(rng.integers(len(dims)))]
        a = random_hermitian(dim, rng)
        qc = quasi_commutant(a, tol)
        bic = bicommutant(a, tol)
        outsiders = [x for x in (random_hermitian(dim, target_rng)
                                 for target_rng in _generators([seed, 9, i], range(targets)))
                     if not bic.contains(x, TARGET_GUARD)]
        members = []
        if quasi_equals_commutant(a, tol):
            members = list(bic.basis) + [np.eye(dim, dtype=complex), a]
            members += [bic.random_element(rng) for _ in range(3)]
        if not outsiders and not members:
            continue
        witnesses = refute_biquasi_membership(np.array(outsiders + members), a,
                                              budget=REFUTATION_BUDGET, seed=seed, tol=tol)
        for x, witness in zip(outsiders, witnesses):
            # the search chose the witness by the verdict rel_q gives on this
            # pair, so only the witness's membership is left to check
            ok = witness is not None and qc.contains(witness, tol)
            if rec.check(ok, lambda: {"a": matrix_to_payload(a), "x": matrix_to_payload(x)}):
                refuted += 1
        members_checked += len(members)
        for z, witness in zip(members, witnesses[len(outsiders):]):
            rec.check(witness is None, lambda: {"a": matrix_to_payload(a),
                                                "z": matrix_to_payload(z),
                                                "witness": matrix_to_payload(witness)})
    return rec.result("lemma-7", {"operators": trials, "targets_per_operator": targets,
                                  "outsiders_refuted": refuted,
                                  "members_checked": members_checked})


# --------------------------------------------------------------------------
# Primitive-operator witness suites
# --------------------------------------------------------------------------

_PRIMITIVE_CONFIGS = ((1.0, 0.0), (-1.5, 0.75), (2.0, -1.0))
# The quasi-side variant needs spectra of A = alpha P + beta I free of
# sign-symmetric pairs, so keep alpha != -2 beta.
_PRIMITIVE1_CONFIGS = ((1.0, 0.0), (-1.5, 0.5), (2.0, -0.75))


def _primitive_chain_checks(rec, a, b, c, tol, quasi_side: bool):
    d_a, d_c, d_ab = bicommutant(a, tol), bicommutant(c, tol), bicommutant(a - b, tol)
    checks = [
        (distinct_count(b, tol) == 2, "witness B has two spectral points"),
        (rel_c(a, b, tol), "witness B commutes with A"),
        (not subspace_eq(commutant(b, tol), commutant(a, tol), tol),
         "commutant of B differs from commutant of A"),
        ((d_a.real_dimension, d_c.real_dimension, d_ab.real_dimension) == (2, 3, 4),
         "bicommutant dimensions form the (2, 3, 4) chain"),
        (subspace_proper_lt(d_a, d_c, tol), "first strict containment"),
        (subspace_proper_lt(d_c, d_ab, tol), "second strict containment"),
    ]
    if quasi_side:
        checks += [(quasi_equals_commutant(m, tol), f"{label}: anticommutant inside commutant")
                   for label, m in (("A", a), ("B", b), ("C", c))]
        checks.append((rel_q(a, b, tol), "B quasi-commutes with A"))
    for ok, context in checks:
        rec.check(ok, {"context": context})


def _suite_primitive(name, dims, seed, tol, quasi_side: bool):
    rec = _Recorder()
    configurations = 0
    configs = _PRIMITIVE1_CONFIGS if quasi_side else _PRIMITIVE_CONFIGS
    for dim in dims:
        if dim < 4:
            raise ValueError("primitive suites need dimension at least 4")
        for rank in range(2, dim - 1):
            for alpha, beta in configs:
                configurations += 1
                p = random_projection(dim, rank, [seed, dim, rank])
                a = alpha * p + beta * np.eye(dim)
                b, c = lemma_primitive_witnesses(p, alpha)
                _primitive_chain_checks(rec, a, b, c, tol, quasi_side)
        # Converse: with a rank-one direction there is no room for a chain;
        # any two-point B commuting with A leaves the difference with at
        # most three spectral points.
        p1 = random_projection(dim, 1, [seed, dim, 1])
        w, v = np.linalg.eigh(p1)
        for take in (1, 2, dim - 1):
            idx = np.argsort(-w)[:take]
            b1 = 2.0 * _projection(v[:, idx]) + 0.5 * np.eye(dim)
            rec.check(bicommutant(p1 - b1, tol).real_dimension <= 3,
                      {"context": f"rank-one converse at dim {dim}"})
        # Precondition probes
        try:
            lemma_primitive_witnesses(p1, 1.0)
            rec.check(False, {"context": "rank-one projection must be rejected"})
        except ValueError:
            rec.check(True)

    return rec.result(name, {"configurations": configurations, "dims": list(dims)})


def suite_lemma_primitive(dims=(4, 5, 8), seed=0, tol=DEFAULT_TOLERANCE):
    """Witness pair (B, C) realizing the strict bicommutant chain for
    projections with rank and corank at least two."""
    return _suite_primitive("lemma-primitive", dims, seed, tol, quasi_side=False)


def suite_lemma_primitive1(dims=(4, 5, 8), seed=0, tol=DEFAULT_TOLERANCE):
    """Quasi-side variant: the same witnesses additionally keep their
    anticommutants inside their commutants."""
    return _suite_primitive("lemma-primitive1", dims, seed, tol, quasi_side=True)


# --------------------------------------------------------------------------
# Preserver form-check suites
# --------------------------------------------------------------------------

_MAP_CONFIGS = (
    (0.5, False, ("zero", 0.0)),
    (-0.5, True, ("constant", 1.2)),
    (1.0, False, ("trace_based", 0.0)),
    (-1.0, True, ("zero", 0.0)),
    (3.0, False, ("constant", -0.7)),
    (-3.0, True, ("trace_based", 0.0)),
    (0.5, True, ("trace_based", 0.0)),
    (1.0, True, ("constant", 2.5)),
    (-3.0, False, ("zero", 0.0)),
    (3.0, True, ("trace_based", 0.0)),
)


def _theorem_suite(name, relation_kind, dims, trials, seed, tol, zero_shift):
    rec = _Recorder()
    for idx, (scale, anti, (shift_kind, shift_value)) in enumerate(_MAP_CONFIGS):
        shift = ShiftPolicy("zero") if zero_shift else ShiftPolicy(shift_kind, shift_value)
        maps = {
            dim: PreserverMap(
                scale=scale,
                conjugator=random_unitary(dim, [seed, 10, idx, dim]),
                antiunitary=anti,
                shift=shift,
                relation_kind=relation_kind,
            )
            for dim in dims
        }
        report = property_run(maps, trials=trials, seed=seed + 7919 * idx, tol=tol)
        # One check per triple; the first four violations of a map keep a record.
        rec.checks += report.trials
        rec.failures += len(report.violations)
        rec.counterexamples += [violation_to_payload(v, maps[v.a.shape[0]])
                                for v in report.violations[:4]]
    return rec.result(name, {"configurations": len(_MAP_CONFIGS),
                             "trials_per_configuration": trials, "dims": list(dims)})


def suite_theorem_4(dims=(3, 4, 5, 8), trials=300, seed=0, tol=DEFAULT_TOLERANCE):
    """Maps of the classified commutative form preserve the triadic relation
    in both directions: zero violations over structured and random triples."""
    return _theorem_suite("theorem-4", "commutative", dims, trials, seed, tol,
                          zero_shift=False)


def suite_theorem_5(dims=(3, 4, 5, 8), trials=300, seed=0, tol=DEFAULT_TOLERANCE):
    """Quasi form-check with an identically vanishing shift, plus a
    non-acceptance exploratory run of a compliant nonzero shift whose
    violation count is reported without being asserted."""
    result = _theorem_suite("theorem-5", "quasi", dims, trials, seed, tol, zero_shift=True)
    # A documented negative control, not a compliant probe: not even a
    # constant inner shift r would cancel, since C maps to C + rI.  Its
    # violations are recorded, never asserted (see ShiftPolicy).
    exploratory = {
        dim: PreserverMap(
            scale=1.0,
            conjugator=random_unitary(dim, [seed, 11, dim]),
            antiunitary=False,
            shift=ShiftPolicy("theorem_compliant_quasi", inner=ShiftPolicy("trace_based")),
            relation_kind="quasi",
        )
        for dim in dims
    }
    report = property_run(exploratory, trials=EXPLORATORY_TRIALS, seed=seed + 104729, tol=tol)
    result["details"]["exploratory_nonzero_shift"] = {
        "trials": report.trials,
        "violations_observed": len(report.violations),
        "note": "behavior of a compliant nonzero shift is reported, not asserted",
    }
    return result


# --------------------------------------------------------------------------
# Serialization of maps and violations for replay
# --------------------------------------------------------------------------


def shift_to_payload(shift: ShiftPolicy) -> dict:
    if not isinstance(shift, ShiftPolicy):
        raise ValueError("only ShiftPolicy shifts are serializable")
    payload = {"kind": shift.kind, "value": shift.value}
    if shift.anchor is not None:
        payload["anchor"] = matrix_to_payload(shift.anchor)
    if shift.inner is not None:
        payload["inner"] = shift_to_payload(shift.inner)
    return payload


def shift_from_payload(payload: dict, where: str = "map.shift") -> ShiftPolicy:
    """The shift policy of the object at path ``where``."""
    anchor = (payload_to_matrix(payload["anchor"], f"{where}.anchor")
              if "anchor" in payload else None)
    inner = (shift_from_payload(_field(payload, "inner", "an object", where), f"{where}.inner")
             if "inner" in payload else None)
    return ShiftPolicy(_field(payload, "kind", "a string", where),
                       value=float(_field(payload, "value", "a number", where, 0.0)),
                       anchor=anchor, inner=inner)


def map_to_payload(m: PreserverMap) -> dict:
    return {
        "scale": m.scale,
        "antiunitary": m.antiunitary,
        "relation_kind": m.relation_kind,
        "conjugator": matrix_to_payload(m.conjugator),
        "shift": shift_to_payload(m.shift),
    }


def map_from_payload(payload: dict, where: str = "map") -> PreserverMap:
    """The map of the object at path ``where``."""
    return PreserverMap(
        scale=float(_field(payload, "scale", "a number", where)),
        conjugator=_payload_entries(_field(payload, "conjugator", "an object", where),
                                    f"{where}.conjugator"),
        antiunitary=_field(payload, "antiunitary", "a boolean", where),
        shift=shift_from_payload(_field(payload, "shift", "an object", where), f"{where}.shift"),
        relation_kind=_field(payload, "relation_kind", "a string", where),
    )


def violation_to_payload(violation, preserver: PreserverMap) -> dict:
    """Replayable record of one counterexample triple and its map."""
    return {
        "kind": "triadic-violation",
        "relation_kind": preserver.relation_kind,
        "verdict": violation.direction,
        "map": map_to_payload(preserver),
        "triple": {
            "a": matrix_to_payload(violation.a),
            "b": matrix_to_payload(violation.b),
            "c": matrix_to_payload(violation.c),
        },
    }


def replay_violation(payload: dict, tol: Tolerance = DEFAULT_TOLERANCE,
                     where: str = "") -> tuple[str, bool]:
    """Re-run the counterexample record at path ``where`` (``""`` for a
    whole file); returns (verdict, reproduced).

    A missing or malformed field of the record raises ValueError naming its
    path.
    """
    recorded = _field(payload, "verdict", "a string", where)
    m = map_from_payload(_field(payload, "map", "an object", where), _path(where, "map"))
    triple = _field(payload, "triple", "an object", where)
    a, b, c = (payload_to_matrix(_field(triple, name, "an object", _path(where, "triple")),
                                 _path(where, f"triple.{name}"))
               for name in "abc")
    verdict = check_triadic(m, a, b, c, tol)
    return verdict, verdict == recorded


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_SUITES = {
    "brooke": suite_brooke,
    "lemma-scalar": suite_lemma_scalar,
    "lemma-4": suite_lemma_4,
    "lemma-aef": suite_lemma_aef,
    "lemma-1.8": suite_lemma_18,
    "lemma-7": suite_lemma_7,
    "lemma-1.81": suite_lemma_181,
    "lemma-primitive": suite_lemma_primitive,
    "lemma-primitive1": suite_lemma_primitive1,
    "theorem-4": suite_theorem_4,
    "theorem-5": suite_theorem_5,
}

SUITE_NAMES = tuple(_SUITES)

_PRIMITIVE_SUITES = ("lemma-primitive", "lemma-primitive1")
# Suites that run a finite exact grid and take no ``trials``.
FIXED_GRID_SUITES = ("lemma-aef", *_PRIMITIVE_SUITES)


def _suite_kwargs(name, dims, trials, seed, tol, a_value) -> dict:
    """The keyword arguments of suite ``name`` under :func:`run_suite`'s
    overrides, with no seed for lemma-aef, which samples nothing; raises
    ValueError on any override the suite cannot take."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(_SUITES)}")
    _check_seed(seed)
    kwargs = {"tol": tol} if name == "lemma-aef" else {"seed": seed, "tol": tol}
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if any(d < 3 for d in dims):
            raise ValueError(_BELOW_THREE)
        # a repeated dimension would be sampled twice as often, and recorded
        if len(set(dims)) != len(dims):
            raise ValueError(f"dimensions must be distinct, got {','.join(map(str, dims))}")
        if name in _PRIMITIVE_SUITES and any(d < 4 for d in dims):
            raise ValueError(f"suite {name} needs dimensions of at least 4")
        kwargs["dims"] = dims
    if trials is not None:
        if name in FIXED_GRID_SUITES:
            raise ValueError(f"suite {name} runs a fixed grid and takes no trials")
        if trials < 1:
            raise ValueError("trials must be positive")
        if trials > 2**32:  # trial indices are single 32-bit entropy words
            raise ValueError(f"trials must be at most 2**32 = {2**32}, got {trials}")
        kwargs["trials"] = int(trials)
    if a_value is not None:
        if name != "lemma-aef":
            raise ValueError(f"suite {name} takes no block-fixture weight; only lemma-aef does")
        if not (isfinite(a_value) and a_value != 0.0):
            raise ValueError(f"the block-fixture weight must be finite and nonzero, "
                             f"got {a_value!r}")
        if abs(a_value) > ENTRY_BOUND:
            raise ValueError(f"the block-fixture weight must be at most {ENTRY_BOUND:g} "
                             f"in magnitude, got {a_value!r}")
        kwargs["a_values"] = (float(a_value),)
    return kwargs


def suite_calls(suite, dims, trials, seed, tol, a_value) -> list[dict]:
    """The :func:`run_suite` keyword dicts of ``verify suite``, all checked before one runs;
    ``"all"`` gives ``trials`` to the sampled suites and ``a_value`` to lemma-aef only."""
    every = suite == "all"
    calls = [dict(name=name, dims=dims, seed=seed, tol=tol,
                  trials=None if every and name in FIXED_GRID_SUITES else trials,
                  a_value=None if every and name != "lemma-aef" else a_value)
             for name in (SUITE_NAMES if every else (suite,))]
    for call in calls:
        _suite_kwargs(**call)
    return calls


def run_suite(name, dims=None, trials=None, seed=0, tol=DEFAULT_TOLERANCE, a_value=None):
    """Run one named suite with optional overrides for dims/trials/seed (a
    valid seed, which lemma-aef does not read) and for the block-fixture
    weight (``a_value``, lemma-aef only: finite, nonzero, at most
    ``hermitian.ENTRY_BOUND`` in magnitude).  An override the suite cannot take
    raises ValueError before the suite starts.

    The result carries the suite's wall time as ``elapsed_seconds``.
    """
    kwargs = _suite_kwargs(name, dims, trials, seed, tol, a_value)
    start = time.perf_counter()
    result = _SUITES[name](**kwargs)
    result["elapsed_seconds"] = round(time.perf_counter() - start, 6)
    return result
