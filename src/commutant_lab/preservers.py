"""Maps of the classified form ``A -> c U A U* + shift(A) I`` (with an
optional entrywise conjugation for the antiunitary case), and property
machinery that tests whether they preserve the triadic relations in both
directions over sampled triples.

Shift rules are arbitrary per-input real functions; the quasi-side
"theorem-compliant" rule returns zero on every matrix that admits a
noncommuting anticommuting partner.  The necessity search demonstrates that
dropping this constraint breaks the quasi relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .commutant import SearchExhausted, anticommutant, quasi_equals_commutant
from .hermitian import (
    RELATION_KINDS,
    Tolerance,
    _check_seed,
    _frobenius_stack,
    _tol,
    frobenius,
    random_hermitian,
    random_projection,
    random_unitary,
    rel_c,
    rel_stack,
    triadic_relation,
)
from .spectral import build_aef

__all__ = [
    "BOTH_FAIL",
    "BOTH_HOLD",
    "PreserverMap",
    "SearchExhausted",
    "ShiftPolicy",
    "TrialReport",
    "VIOLATION_BACKWARD",
    "VIOLATION_FORWARD",
    "Violation",
    "apply_map",
    "check_triadic",
    "compose",
    "default_necessity_anchor",
    "is_violation",
    "lemma4_check",
    "necessity_map",
    "necessity_search",
    "property_run",
]

BOTH_HOLD = "both_hold"
BOTH_FAIL = "both_fail"
VIOLATION_FORWARD = "violation_forward"
VIOLATION_BACKWARD = "violation_backward"

SHIFT_KINDS = ("zero", "constant", "trace_based", "theorem_compliant_quasi", "pinned")

# Sampled trials (and lemma-4 candidates) are drawn, stacked and evaluated
# this many at a time.  In form-check passes on a 2-vCPU VM, blocks of 128
# ran as fast as blocks of 256 (64 was 4% slower) and raised the peak
# resident set by under 1 MiB, against 1.5 MiB for 256 and 6.5 MiB for 1024.
BLOCK = 128


@dataclass(eq=False)
class ShiftPolicy:
    """Deterministic rule assigning a real scalar shift to each input matrix.

    Kinds: ``zero``; ``constant`` (always ``value``); ``trace_based``
    (trace divided by dimension); ``pinned`` (``value`` on one anchor
    matrix, byte-exact after symmetrization, zero elsewhere);
    ``theorem_compliant_quasi`` (the inner policy where
    :func:`quasi_equals_commutant` holds, zero elsewhere).  ``tol=None``
    means the default :class:`Tolerance`.
    """

    kind: str
    value: float = 0.0
    anchor: np.ndarray | None = None
    inner: "ShiftPolicy | None" = None
    tol: Tolerance | None = None

    def __post_init__(self) -> None:
        self.tol = _tol(self.tol)
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if self.kind == "pinned" and self.anchor is None:
            raise ValueError("pinned shift needs an anchor matrix")
        if self.kind == "theorem_compliant_quasi" and self.inner is None:
            self.inner = ShiftPolicy("zero")

    def __call__(self, a: np.ndarray) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "trace_based":
            return float(np.trace(a).real) / a.shape[0]
        if self.kind == "pinned":
            sym = (np.asarray(a, dtype=complex) + np.asarray(a, dtype=complex).conj().T) / 2.0
            anchor = (self.anchor + self.anchor.conj().T) / 2.0
            return self.value if np.array_equal(sym, anchor) else 0.0
        # theorem_compliant_quasi
        return self.inner(a) if quasi_equals_commutant(a, self.tol) else 0.0


@dataclass(eq=False)
class PreserverMap:
    """The classified map form: scale, unitary conjugation, optional
    entrywise conjugation first (the antiunitary case), and a scalar shift.
    """

    scale: float
    conjugator: np.ndarray
    antiunitary: bool = False
    shift: ShiftPolicy = field(default_factory=lambda: ShiftPolicy("zero"))
    relation_kind: str = "commutative"

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and self.scale != 0.0):
            raise ValueError("scale must be nonzero and finite")
        u = np.asarray(self.conjugator, dtype=complex)
        n = u.shape[0]
        if frobenius(u.conj().T @ u - np.eye(n)) > 1e-12:
            raise ValueError("conjugator is not unitary within 1e-12")
        if self.relation_kind not in RELATION_KINDS:
            raise ValueError(f"unknown relation kind {self.relation_kind!r}")
        self.conjugator = u

    @property
    def dim(self) -> int:
        return int(self.conjugator.shape[0])


def apply_map(m: PreserverMap, a: np.ndarray) -> np.ndarray:
    """Evaluate the map on one Hermitian matrix; the output is Hermitian."""
    a = np.asarray(a, dtype=complex)
    if a.shape != m.conjugator.shape:
        raise ValueError(f"dimension mismatch: map is {m.conjugator.shape}, input {a.shape}")
    x = a.conj() if m.antiunitary else a
    out = m.scale * (m.conjugator @ x @ m.conjugator.conj().T)
    out = (out + out.conj().T) / 2.0
    return out + m.shift(a) * np.eye(a.shape[0])


def _apply_map_stack(m: PreserverMap, x: np.ndarray) -> np.ndarray:
    """:func:`apply_map` on every matrix of a stack ``(..., n, n)``; the
    shift is still evaluated matrix by matrix."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if x.shape[-2:] != m.conjugator.shape:
        raise ValueError(
            f"dimension mismatch: map is {m.conjugator.shape}, input {x.shape[-2:]}")
    y = x.conj() if m.antiunitary else x
    out = m.scale * (m.conjugator @ y @ m.conjugator.conj().T)
    out = (out + out.conj().swapaxes(-1, -2)) / 2.0
    shifts = np.array([m.shift(a) for a in x.reshape(-1, n, n)], dtype=float)
    diagonal = np.arange(n)
    out[..., diagonal, diagonal] += shifts.reshape(x.shape[:-2] + (1,))
    return out


def compose(outer: PreserverMap, inner: PreserverMap) -> PreserverMap:
    """Map of the same form acting like ``outer`` after ``inner``."""
    if outer.relation_kind != inner.relation_kind:
        raise ValueError("composition requires matching relation kinds")
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch between the two maps")
    u_inner = inner.conjugator.conj() if outer.antiunitary else inner.conjugator
    u = outer.conjugator @ u_inner

    def shift(a: np.ndarray) -> float:
        return outer.scale * inner.shift(a) + outer.shift(apply_map(inner, a))

    return PreserverMap(
        scale=outer.scale * inner.scale,
        conjugator=u,
        antiunitary=outer.antiunitary != inner.antiunitary,
        shift=shift,  # a raw callable: composed maps are not serializable
        relation_kind=outer.relation_kind,
    )


def check_triadic(
    m: PreserverMap,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tol: Tolerance | None = None,
) -> str:
    """Compare the triadic relation on (A, B, C) against its image triple.

    Returns ``both_hold``/``both_fail`` when the map preserves the verdict,
    ``violation_forward`` when the relation holds only at the source and
    ``violation_backward`` when it holds only at the image.
    """
    source = triadic_relation(a, b, c, m.relation_kind, tol)
    image = triadic_relation(
        apply_map(m, a), apply_map(m, b), apply_map(m, c), m.relation_kind, tol
    )
    if source and not image:
        return VIOLATION_FORWARD
    if image and not source:
        return VIOLATION_BACKWARD
    return BOTH_HOLD if source else BOTH_FAIL


def is_violation(verdict: str) -> bool:
    return verdict in (VIOLATION_FORWARD, VIOLATION_BACKWARD)


@dataclass
class Violation:
    """One counterexample triple, with full matrices for replay."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    direction: str
    trial: int


@dataclass
class TrialReport:
    """Outcome of one property suite run."""

    trials: int
    violations: list[Violation]

    @property
    def passed(self) -> bool:
        return not self.violations


def _structured_triple(rng: np.random.Generator, dim: int, tol: Tolerance):
    """Triple biased so the source relation is often true or a near miss.

    Random triples essentially never satisfy the relation, so generators
    draw the third matrix from structures commuting or anticommuting with
    the difference of the first two.
    """
    mode = int(rng.integers(6))
    if mode == 0:  # scalar difference: relation true for every C
        b = random_hermitian(dim, rng)
        a = b + float(rng.standard_normal()) * np.eye(dim)
        c = random_hermitian(dim, rng)
        return a, b, c
    if mode == 1:  # C a spectral function of the difference: commutes
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        w, v = np.linalg.eigh(a - b)
        c = (v * rng.standard_normal(dim)) @ v.conj().T
        return a, b, (c + c.conj().T) / 2.0
    if mode == 2:  # difference with a sign-symmetric pair, C the partner
        lam = float(rng.uniform(0.5, 2.0))
        values = np.concatenate([[lam, -lam], rng.standard_normal(dim - 2)])
        v = random_unitary(dim, rng)
        d = (v * values) @ v.conj().T
        d = (d + d.conj().T) / 2.0
        swap = np.zeros((dim, dim), dtype=complex)
        swap[0, 1] = swap[1, 0] = 1.0 / np.sqrt(2.0)
        c = v @ swap @ v.conj().T
        b = random_hermitian(dim, rng)
        return b + d, b, (c + c.conj().T) / 2.0
    if mode == 3:  # block fixtures on a weight grid: boundary cases
        weight = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        fa, fe, ff = build_aef(weight, dim)
        grid = [-2.0, -1.0, 0.5, 1.0, 2.0]
        alpha = float(rng.choice(grid))
        eps = alpha if rng.random() < 0.5 else float(rng.choice(grid))
        return alpha * fa, eps * fe, ff
    if mode == 4:  # affine projections
        rank_a = int(rng.integers(1, dim))
        rank_b = int(rng.integers(1, dim))
        a = float(rng.standard_normal()) * random_projection(dim, rank_a, rng) + float(
            rng.standard_normal()
        ) * np.eye(dim)
        b = float(rng.standard_normal()) * random_projection(dim, rank_b, rng) + float(
            rng.standard_normal()
        ) * np.eye(dim)
        c = random_projection(dim, int(rng.integers(1, dim)), rng)
        return a, b, c
    # mode 5: C from the anticommutant of a sign-symmetric difference
    lam = float(rng.uniform(0.5, 2.0))
    fill = rng.standard_normal(dim - 2) if dim > 2 else np.zeros(0)
    values = np.concatenate([[lam, -lam], fill])
    v = random_unitary(dim, rng)
    d = (v * values) @ v.conj().T
    d = (d + d.conj().T) / 2.0
    part = anticommutant(d, tol)
    c = part.random_element(rng) if part.real_dimension else random_hermitian(dim, rng)
    b = random_hermitian(dim, rng)
    return b + d, b, c


def _triadic_stack(triples: np.ndarray, kind: str, tol: Tolerance) -> np.ndarray:
    """Triadic relation of each triple of a ``(T, 3, n, n)`` stack."""
    commutes, anticommutes = rel_stack(triples[:, 0] - triples[:, 1], triples[:, 2], tol)
    return commutes if kind == "commutative" else commutes | anticommutes


def _violations_stack(m: PreserverMap, drawn: list, tol: Tolerance) -> list[Violation]:
    """:func:`check_triadic` on every ``(trial, (a, b, c))`` of ``drawn`` in
    one stack; returns the violations in the order of ``drawn``."""
    source = np.array([triple for _, triple in drawn], dtype=complex)
    held = _triadic_stack(source, m.relation_kind, tol)
    mapped = _triadic_stack(_apply_map_stack(m, source), m.relation_kind, tol)
    return [Violation(*drawn[i][1], trial=drawn[i][0],
                      direction=VIOLATION_FORWARD if held[i] else VIOLATION_BACKWARD)
            for i in np.flatnonzero(held != mapped)]


def property_run(
    maps: PreserverMap | dict[int, PreserverMap],
    trials: int,
    seed: int = 0,
    tol: Tolerance | None = None,
) -> TrialReport:
    """Aggregate triadic verdicts on ``trials`` sampled triples.

    ``maps`` is one map or a dict keyed by dimension; each trial derives its
    own generator from ``(seed, trial index)``, so runs replay exactly and
    trials may be evaluated in any order.  Each trial draws a structured
    or a fully random triple with equal probability.  Triples are drawn
    ``BLOCK`` trials at a time and each block is evaluated per dimension in
    one stack; the verdicts are those of :func:`check_triadic`, and
    violations are listed in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_seed(seed)
    tol = _tol(tol)
    if isinstance(maps, PreserverMap):
        maps = {maps.dim: maps}
    dims = tuple(sorted(maps))
    violations: list[Violation] = []
    for start in range(0, trials, BLOCK):
        drawn: dict[int, list] = {}  # dim -> [(trial, (a, b, c))]
        for t in range(start, min(start + BLOCK, trials)):
            rng = np.random.default_rng([seed, t])
            dim = dims[int(rng.integers(len(dims)))]
            if rng.random() < 0.5:
                triple = _structured_triple(rng, dim, tol)
            else:
                triple = tuple(random_hermitian(dim, rng) for _ in range(3))
            drawn.setdefault(dim, []).append((t, triple))
        found = [v for dim, group in drawn.items()
                 for v in _violations_stack(maps[dim], group, tol)]
        violations += sorted(found, key=lambda v: v.trial)
    return TrialReport(trials=trials, violations=violations)


def default_necessity_anchor(dim: int) -> np.ndarray:
    """diag(1, -1, 0, ...): the canonical matrix with an anticommuting,
    noncommuting partner."""
    if dim < 3:
        raise ValueError("dimension must be at least 3")
    values = np.zeros(dim)
    values[0], values[1] = 1.0, -1.0
    return np.diag(values).astype(complex)


def necessity_map(dim: int, tol: Tolerance | None = None) -> PreserverMap:
    """The quasi-side map that fails the vanishing-shift condition: identity
    conjugation, shifted by one on ``diag(1, -1, 0, ...)`` and nowhere else."""
    return PreserverMap(
        scale=1.0,
        conjugator=np.eye(dim, dtype=complex),
        antiunitary=False,
        shift=ShiftPolicy("pinned", value=1.0, anchor=default_necessity_anchor(dim), tol=tol),
        relation_kind="quasi",
    )


def necessity_search(
    dim: int,
    budget: int = 100,
    seed: int = 0,
    tol: Tolerance | None = None,
    preserver: PreserverMap | None = None,
) -> TrialReport:
    """Exhibit a triple broken by a quasi-side map whose shift is nonzero on
    a matrix with a noncommuting anticommuting partner.

    The default map is :func:`necessity_map`; candidate triples pair its
    anchor ``diag(1, -1, 0, ...)`` with a scalar and a third matrix drawn
    from the anchor's anticommutant but not its commutant.  Raises
    :class:`SearchExhausted` when no violation shows up within ``budget``
    trials, which is the expected outcome for a compliant (all-zero) shift.
    """
    _check_seed(seed)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    tol = _tol(tol)
    a0 = default_necessity_anchor(dim)
    if preserver is None:
        preserver = necessity_map(dim, tol)
    part = anticommutant(a0, tol)
    swap = np.zeros((dim, dim), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0 / np.sqrt(2.0)

    def candidate(trial: int, rng: np.random.Generator) -> np.ndarray:
        if trial == 0:
            return swap
        for _ in range(16):
            c = part.random_element(rng)
            if not rel_c(a0, c, tol):
                return c
        return swap

    zero = np.zeros((dim, dim), dtype=complex)
    for t in range(budget):
        rng = np.random.default_rng([seed, t])
        c = candidate(t, rng)
        verdict = check_triadic(preserver, a0, zero, c, tol)
        if is_violation(verdict):
            return TrialReport(trials=t + 1, violations=[
                Violation(a=a0, b=zero, c=c, direction=verdict, trial=t)])
    raise SearchExhausted(
        f"no violating triple within {budget} trials; the shift appears compliant"
    )


def lemma4_check(
    lam: float,
    projection: np.ndarray,
    candidates: int = 1000,
    seed: int = 0,
    tol: Tolerance | None = None,
) -> bool:
    """Rigidity of the mutual shifted-anticommutation premises at ``A = lam P``.

    Confirms that B = A satisfies both ``(A - lam I) o B = 0`` and
    ``(B - lam I) o A = 0``, then checks that no sampled B farther than
    1e-6 from A satisfies both.  Perturbations of A, rescalings of A and
    fresh random matrices are all tried, ``BLOCK`` candidates per stack.
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    _check_seed(seed)
    tol = _tol(tol)
    a = lam * np.asarray(projection, dtype=complex)
    n = a.shape[0]
    lam_eye = lam * np.eye(n, dtype=complex)

    def premises(b: np.ndarray) -> np.ndarray:
        """Both premises for each B of a stack ``(T, n, n)``."""
        _, first = rel_stack(np.broadcast_to(a - lam_eye, b.shape), b, tol)
        _, second = rel_stack(b - lam_eye, np.broadcast_to(a, b.shape), tol)
        return first & second

    def candidate(t: int) -> np.ndarray:
        rng = np.random.default_rng([seed, t])
        mode = t % 3
        if mode == 0:
            x = random_hermitian(n, rng)
            x = x / frobenius(x)
            eps = 10.0 ** rng.uniform(-4, 1)
            return a + eps * x
        if mode == 1:
            return random_hermitian(n, rng) * max(1.0, frobenius(a))
        return float(rng.uniform(-3.0, 3.0)) * a

    if not premises(a[None])[0]:
        return False
    for start in range(0, candidates, BLOCK):
        b = np.array([candidate(t) for t in range(start, min(start + BLOCK, candidates))])
        if (premises(b) & (_frobenius_stack(b - a) > 1e-6)).any():
            return False
    return True
