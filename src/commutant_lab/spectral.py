"""Spectral decomposition with eigenvalue clustering, and the structure
predicates built on it: two-point spectra, balanced spectra, partition
oracles for bicommutant minimality, and the explicit block
fixtures used by the preserver suites.

The partition oracles rest on a finite-dimensional reduction: if the second
commutant of B is properly contained in that of A, then B lies in the
second commutant of A, i.e. B is a function of A.  Such functions only
matter through the partition they induce on the distinct eigenvalues of A,
so quantifying over all B reduces to enumerating proper partitions of the
eigenvalue clusters (feasible for at most ten clusters).  Each containment
is tested on Krylov bicommutants, which share no code with the
eigendecomposition that finds the clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .commutant import (_coincident_runs, _krylov_bicommutant, quasi_equals_commutant,
                        subspace_proper_lt)
from .hermitian import DEFAULT_TOLERANCE, Tolerance, _projection, _symmetrize, frobenius, is_scalar

__all__ = [
    "SpectralData",
    "build_aef",
    "distinct_count",
    "has_two_point_spectrum",
    "in_k",
    "lemma18_minimality",
    "lemma18_witness",
    "lemma181_condition",
    "lemma181_oracle",
    "lemma_primitive_witnesses",
    "spectral_decompose",
]

MAX_PARTITION_CLUSTERS = 10


@dataclass
class SpectralData:
    """Clustered eigendecomposition of a Hermitian matrix.

    ``distinct_values`` are ascending cluster representatives,
    ``multiplicities`` the cluster sizes (summing to the dimension), and
    ``projections`` the spectral projections, which are idempotent,
    mutually orthogonal and resolve the identity.
    """

    distinct_values: np.ndarray
    multiplicities: np.ndarray
    projections: np.ndarray

    @property
    def count(self) -> int:
        return int(self.distinct_values.shape[0])


def spectral_decompose(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> SpectralData:
    """Eigendecompose ``a`` and cluster its eigenvalues into the runs of
    :func:`~commutant_lab.commutant._coincident_runs`.

    Consecutive eigenvalues join one cluster when their gap is at or below
    the commutant cut ``rank_cut * max(spread, max(1, |A|_F))``, the cut at
    which :func:`~commutant_lab.commutant.commutant` joins them, so there
    are as many clusters as ``bicommutant(a)`` has dimensions.  Each
    cluster reports its mean value and the projection onto the span of its
    eigenvectors.
    """
    w, runs = _coincident_runs(a, tol)
    return SpectralData(
        distinct_values=np.array([float(np.mean(w[run])) for run, _ in runs]),
        multiplicities=np.array([run.stop - run.start for run, _ in runs], dtype=int),
        projections=np.array([p for _, p in runs]),
    )


def distinct_count(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Number of eigenvalue clusters."""
    return spectral_decompose(a, tol).count


def has_two_point_spectrum(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    return distinct_count(a, tol) == 2


def in_k(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True for scaled reflections: two spectral points adding up to zero.

    These are exactly the matrices ``alpha (I - 2P)`` with P a nontrivial
    projection and alpha nonzero.
    """
    sd = spectral_decompose(a, tol)
    if sd.count != 2:
        return False
    return bool(tol.is_zero(abs(sd.distinct_values[0] + sd.distinct_values[1]), frobenius(a)))


def _set_partitions(items: Sequence[int]):
    """All partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _merge_clusters(sd: SpectralData, blocks: list[list[int]]) -> np.ndarray:
    """Matrix with the given clusters merged, block i mapped to value i+1."""
    out = np.zeros_like(sd.projections[0])
    for value, block in enumerate(blocks, start=1):
        for idx in block:
            out = out + float(value) * sd.projections[idx]
    return out


def _require(a: np.ndarray, tol: Tolerance, what: str, quasi_side: bool) -> None:
    """Raise on scalar ``a`` and, on the quasi side, when its anticommutant
    does not sit inside its commutant."""
    if is_scalar(a, tol):
        raise ValueError(f"{what} is undefined for scalar input")
    if quasi_side and not quasi_equals_commutant(a, tol):
        raise ValueError("precondition violated: anticommutant not inside commutant")


def _partition_oracle(a: np.ndarray, tol: Tolerance,
                      accept: Callable[[np.ndarray], bool]) -> bool:
    """False when some proper cluster merge B of ``a`` that is nonscalar
    and passes ``accept`` has a second commutant strictly inside that of
    ``a`` (Krylov bicommutants, independent of the eigendecomposition that
    finds the clusters); True otherwise."""
    sd = spectral_decompose(a, tol)
    if sd.count > MAX_PARTITION_CLUSTERS:
        raise ValueError(f"partition enumeration infeasible for {sd.count} clusters")
    bic_a = _krylov_bicommutant(a, tol)
    for blocks in _set_partitions(range(sd.count)):
        if len(blocks) >= sd.count or len(blocks) == 1:
            continue  # not a proper merge / scalar image cannot violate
        b = _merge_clusters(sd, blocks)
        if is_scalar(b, tol) or not accept(b):
            continue
        if subspace_proper_lt(_krylov_bicommutant(b, tol), bic_a, tol):
            return False
    return True


def lemma18_minimality(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Decide whether every operator with strictly smaller second commutant
    than ``a`` is scalar, by exhaustive partition enumeration.

    Any B with a strictly smaller second commutant is a function of ``a``,
    hence determined up to values by a proper partition of the eigenvalue
    clusters; each candidate is checked against the Krylov
    bicommutant.  Holds exactly for two-point spectra.  Raises on scalar
    input and on more than ten clusters (enumeration infeasible).

    Window: the Krylov bicommutant joins two eigenvalues up to a relative
    gap of about 7.5e-7 (see :func:`~commutant_lab.commutant._krylov_bicommutant`),
    the clusters only up to the commutant cut.  Where a gap is also too
    large for a merge to pass the ``rel_zero`` containment test, no merge
    fits strictly inside and the answer is True for more than two spectral
    points: on ``U diag(0, d, 1, 2) U*`` at d from 3.2e-9 to 1.8e-7.
    """
    _require(a, tol, "minimality", quasi_side=False)
    return _partition_oracle(a, tol, accept=lambda b: True)


def lemma18_witness(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray | None:
    """Nonscalar B with second commutant strictly inside that of ``a``.

    Exists exactly when ``a`` has at least three spectral points; the
    witness is the spectral projection onto the two lowest clusters.
    """
    sd = spectral_decompose(a, tol)
    if sd.count <= 2:
        return None
    return sd.projections[0] + sd.projections[1]


def lemma181_condition(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Two spectral points that do not add up to zero.

    Requires nonscalar ``a`` whose anticommutant sits inside its commutant;
    raises otherwise.
    """
    _require(a, tol, "condition", quasi_side=True)
    return has_two_point_spectrum(a, tol) and not in_k(a, tol)


def lemma181_oracle(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Partition-oracle cross-check of :func:`lemma181_condition`.

    Enumerates proper cluster merges of ``a`` restricted to candidates whose
    anticommutant the engine verifies to sit inside their commutant, and
    tests the bicommutant containment with the Krylov bicommutant.  It
    shares the window of :func:`lemma18_minimality`: True on
    ``U diag(0, d, 1, 2) U*`` at d from 3.2e-9 to 1.8e-7.
    """
    _require(a, tol, "oracle", quasi_side=True)
    return _partition_oracle(a, tol, accept=lambda b: quasi_equals_commutant(b, tol))


def lemma_primitive_witnesses(p: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Witness pair (B, C) separating ``alpha P + beta I`` from primitivity,
    the same pair for every real ``beta``.

    For a projection P with rank and corank both at least two (dimension at
    least four), returns a two-point-spectrum B commuting with P and a C
    whose second commutant sits strictly between those of A = alpha P +
    beta I and A - B.  Built from the rank-one projections Q1 <= P and
    Q2 <= I - P onto the first eigenvectors of P in their ranges:

        B = -2|alpha| (Q1 + Q2) - 2 I
        C = Q1 + 2 (P - Q1) + 3 (I - P)

    so that A - B has four distinct spectral points with projections
    Q1, P - Q1, Q2, I - P - Q2, and the bicommutant chain has real
    dimensions (2, 3, 4).  The spectra of B and C stay clear of
    sign-symmetric pairs, which the quasi-side variant of the check needs.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    p = np.asarray(p, dtype=complex)
    n = p.shape[0]
    if n < 4:
        raise ValueError("dimension must be at least 4")
    if frobenius(p @ p - p) > 1e-8 * max(1.0, frobenius(p)):
        raise ValueError("input is not an orthogonal projection")
    rank = int(round(np.trace(p).real))
    if rank < 2 or n - rank < 2:
        raise ValueError("projection must have rank >= 2 and corank >= 2")
    w, v = np.linalg.eigh(p)  # first unit vectors in the ranges of P and I - P
    q1, q2 = _projection(v[:, w > 0.5][:, :1]), _projection(v[:, w <= 0.5][:, :1])
    eye = np.eye(n, dtype=complex)
    gamma = 2.0 * abs(alpha)
    b = -gamma * (q1 + q2) - 2.0 * eye
    c = q1 + 2.0 * (p - q1) + 3.0 * (eye - p)
    return _symmetrize(b), _symmetrize(c)


def build_aef(a: float, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three block fixtures on the first two coordinates plus a bulk.

    With lam = sqrt(1 + a^2):

        A = [[-a, 1], [1, a]] (+) lam I
        E = [[-a, 0], [0, a]] (+) a I
        F = [[ 0, 1], [1, 0]] (+) I

    Each has a two-point sign-symmetric spectrum ({lam, -lam}, {a, -a} and
    {1, -1}), i.e. each is a scaled reflection across a rank-one direction.
    For nonzero weights, ``alpha A - eps E`` commutes with F exactly when
    alpha = eps (and likewise for ``alpha A - phi F`` against E), while the
    corresponding Jordan products never vanish.
    """
    if a == 0.0:
        raise ValueError("the weight a must be nonzero")
    if dim < 3:
        raise ValueError("dimension must be at least 3")
    lam = float(np.sqrt(1.0 + a * a))
    mat_a = np.zeros((dim, dim), dtype=complex)
    mat_e = np.zeros((dim, dim), dtype=complex)
    mat_f = np.zeros((dim, dim), dtype=complex)
    mat_a[:2, :2] = [[-a, 1.0], [1.0, a]]
    mat_e[:2, :2] = [[-a, 0.0], [0.0, a]]
    mat_f[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    bulk = np.arange(2, dim)
    mat_a[bulk, bulk] = lam
    mat_e[bulk, bulk] = a
    mat_f[bulk, bulk] = 1.0
    return mat_a, mat_e, mat_f
