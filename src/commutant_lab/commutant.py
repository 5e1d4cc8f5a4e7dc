"""Commutant, anticommutant and second-commutant subspaces of a Hermitian matrix.

The Hermitian matrices of size n form a real inner-product space of
dimension n^2 under the pairing ``<X, Y> = Re tr(X* Y)``.  The commutant of
``A`` is the kernel of the real-linear map ``X -> AX - XA`` restricted to
that space, and the anticommutant the kernel of ``X -> AX + XA``.  In the
eigenbasis of ``A`` both maps are diagonal on unit eigenvector pairs, with
singular values ``|w_a - w_b|`` and ``|w_a + w_b|``, so the production
routes read both kernels, and the second commutant, off one
eigendecomposition.  Singular values at or below ``rank_cut`` times
max(largest singular value, input scale) count as zero, the scale floor
matching the relative-zero semantics of the binary relations.

The second commutant also has an oracle here that uses neither an
eigendecomposition nor an SVD: the algebra generated by ``A``, built by
Arnoldi in the Frobenius space.  The partition oracles of
:mod:`~commutant_lab.spectral` rest on it.  The realified SVD kernel solves
of all three subspaces live with the tests, in ``tests/oracles.py``.

The quasi-commutant is kept as the union of the two kernels, never as a
span: the union is not a vector space, so membership means membership in
either part.  The second quasi-commutant has no finite linear description
when the two parts differ, so only a refutation search is exposed for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    Tolerance,
    _check_same_dim,
    _check_seed,
    _rng,
    _tol,
    frobenius,
    is_scalar,
    random_hermitian,
    rel_c,
    rel_q,
)

__all__ = [
    "MatrixSubspace",
    "QuasiCommutant",
    "SearchExhausted",
    "anticommutant",
    "bicommutant",
    "commutant",
    "noncommuting_anticommuting_partner",
    "quasi_commutant",
    "quasi_equals_commutant",
    "refute_biquasi_membership",
    "scalar_witness",
    "subspace_eq",
    "subspace_leq",
    "subspace_proper_lt",
]


class SearchExhausted(RuntimeError):
    """A search that must produce a finding ran out of budget."""


@dataclass
class MatrixSubspace:
    """Real-linear subspace of Hermitian n x n matrices.

    ``basis`` has shape (k, n, n) and is orthonormal under the real
    Frobenius pairing; ``k`` may be zero.
    """

    dim: int
    basis: np.ndarray

    @property
    def real_dimension(self) -> int:
        return int(self.basis.shape[0])

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Pairing of ``x`` against each basis element."""
        if self.real_dimension == 0:
            return np.zeros(0)
        return np.einsum("kij,ij->k", self.basis.conj(), x).real

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the subspace."""
        if self.real_dimension == 0:
            return np.zeros_like(np.asarray(x, dtype=complex))
        return np.tensordot(self.coefficients(x), self.basis, axes=1)

    def residual(self, x: np.ndarray) -> float:
        return frobenius(x - self.project(x))

    def contains(self, x: np.ndarray, tol: Tolerance | None = None) -> bool:
        return bool(_tol(tol).is_zero(self.residual(x), frobenius(x)))

    def random_element(self, rng) -> np.ndarray:
        """Random real combination of the basis with unit Frobenius norm."""
        if self.real_dimension == 0:
            raise ValueError("cannot sample from the zero subspace")
        c = _rng(rng).standard_normal(self.real_dimension)
        return np.tensordot(c / np.linalg.norm(c), self.basis, axes=1)


def _pair_masks(a: np.ndarray, tol: Tolerance):
    """``w``, ``V`` of ``A = V diag(w) V*``, the commutant and anticommutant
    pair masks, and the commutant cut.

    The eigenvector pair (a, b) spans singular vectors of ``X -> AX - XA``
    and ``X -> AX + XA`` with singular values ``|w_a - w_b|`` and
    ``|w_a + w_b|``; it is in a mask when that value is at or below the cut
    of a realified SVD solve: ``rank_cut`` * max(largest singular value of
    that map, max(1, |A|_F)).
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    scale = max(1.0, frobenius(a))
    diffs, sums = np.abs(w[:, None] - w), np.abs(w[:, None] + w)
    cut = tol.rank_cut * max(float(diffs.max()), scale)
    anti_cut = tol.rank_cut * max(float(sums.max()), scale)
    return w, v, diffs <= cut, sums <= anti_cut, cut


def _pair_subspace(v: np.ndarray, keep: np.ndarray) -> MatrixSubspace:
    """Span of the eigenvector pairs (a, b), a <= b, marked in ``keep``.

    A diagonal pair gives ``v_a v_a*``; an off-diagonal pair gives
    ``(v_a v_b* + v_b v_a*)/sqrt(2)`` and ``i (v_a v_b* - v_b v_a*)/sqrt(2)``.
    The result is orthonormal because the eigenvectors are.
    """
    rows, cols = np.nonzero(np.triu(keep))
    outer = np.einsum("ip,jp->pij", v[:, rows], v[:, cols].conj())
    off = outer[rows != cols]
    adj = off.conj().transpose(0, 2, 1)
    s = 1.0 / np.sqrt(2.0)
    basis = np.concatenate([outer[rows == cols], s * (off + adj), 1j * s * (off - adj)])
    return MatrixSubspace(dim=v.shape[0], basis=basis)


def _spectral_runs(w: np.ndarray, v: np.ndarray, gap: float) -> list[tuple[slice, np.ndarray]]:
    """Runs of the ascending eigenvalues ``w`` whose consecutive gaps are at
    most ``gap``, each with the projection onto its eigenvectors (columns
    of ``v``), symmetrized so it is exactly Hermitian."""
    starts = [0, *(np.flatnonzero(np.diff(w) > gap) + 1), w.size]
    runs = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        block = v[:, lo:hi]
        p = block @ block.conj().T
        runs.append((slice(lo, hi), (p + p.conj().T) / 2.0))
    return runs


def commutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Hermitian solutions of ``AX = XA``; always contains the identity and A.

    Read off one eigendecomposition: the commutant pairs of
    :func:`_pair_masks`, ``|w_a - w_b|`` at or below its cut.
    """
    _, v, comm, _, _ = _pair_masks(a, _tol(tol))
    return _pair_subspace(v, comm)


def anticommutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Hermitian solutions of ``AX + XA = 0``; possibly the zero subspace.

    Read off one eigendecomposition: the anticommutant pairs of
    :func:`_pair_masks`, ``|w_a + w_b|`` at or below its cut.
    """
    _, v, _, anti, _ = _pair_masks(a, _tol(tol))
    return _pair_subspace(v, anti)


@dataclass
class QuasiCommutant:
    """The set of Hermitian X commuting *or* anticommuting with A.

    Held as the union of two subspaces; the union is not convex, so it is
    never flattened into a single span.
    """

    commutant_part: MatrixSubspace
    anticommutant_part: MatrixSubspace

    @property
    def dim(self) -> int:
        return self.commutant_part.dim

    def contains(self, x: np.ndarray, tol: Tolerance | None = None) -> bool:
        return self.commutant_part.contains(x, tol) or self.anticommutant_part.contains(x, tol)


def quasi_commutant(a: np.ndarray, tol: Tolerance | None = None) -> QuasiCommutant:
    """Commutant and anticommutant of ``A``, paired, from one eigendecomposition."""
    _, v, comm, anti, _ = _pair_masks(a, _tol(tol))
    return QuasiCommutant(_pair_subspace(v, comm), _pair_subspace(v, anti))


def bicommutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Hermitian X commuting with every element of ``commutant(A)``.

    The commutant joins eigenvectors whose eigenvalues lie within its cut,
    so its commutant is spanned by the projections onto the runs of sorted
    eigenvalues whose consecutive gaps are within that cut; the basis is
    ``P / sqrt(run length)``.
    """
    tol = _tol(tol)
    # benchmarks/tracer.py sizes each bicommutant call by the commutant
    # call nested inside it, so the commutant stays a call of its own.
    commutant(a, tol)
    w, v, _, _, cut = _pair_masks(a, tol)
    basis = [p / np.sqrt(run.stop - run.start) for run, p in _spectral_runs(w, v, cut)]
    return MatrixSubspace(dim=w.size, basis=np.array(basis))


# --------------------------------------------------------------------------
# Krylov oracle: neither an eigendecomposition nor an SVD; the partition
# oracles of spectral.py test their containments on it.
# --------------------------------------------------------------------------


def _krylov_bicommutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Oracle for :func:`bicommutant`: the unital algebra ``span{I, A, A^2, ...}``.

    By the double commutant theorem in finite dimension this algebra is the
    second commutant of a Hermitian ``A``; by Cayley-Hamilton it has at most
    n dimensions.  Arnoldi in the real Frobenius space builds an orthonormal
    basis from ``I / sqrt(n)``: each step symmetrizes ``A X_k``,
    orthogonalizes it twice against the basis under ``Re tr(X* Y)`` and
    keeps it, normalized, while its residual is above the cut.

    The cut: ``A X_k`` carries roundoff of about ``eps |A|_F`` (``eps`` the
    float epsilon), so an element normalized from a residual ``r`` is off
    the algebra by about ``eps |A|_F / r``.  Keeping that below the
    ``rel_zero`` that :func:`subspace_leq` allows gives the cut
    ``eps max(1, |A|_F) / rel_zero``.

    Window: the last residual shrinks with the gap between two eigenvalues
    (about ``0.29 gap |A|_F`` on the gap sweep of ``tests/test_commutant.py``),
    so there this solve joins two eigenvalues up to a relative gap of about
    7.5e-7, the eigenbasis route only up to about 4e-10.  In between it
    returns one dimension too few; outside, the eigenbasis route's
    subspace.  At every gap each element it returns commutes with ``A``.
    Roundoff grows by about ``|A|_F`` over the residual at each step, so
    many distinct eigenvalues degrade it: on spectra drawn uniformly from
    [-3, 3] it missed the eigenbasis route's subspace in none of 100 draws
    at n = 10 but in 16 at n = 16.  The cap of n elements bounds the damage.
    """
    tol = _tol(tol)
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    noise = np.finfo(float).eps * max(1.0, frobenius(a))
    basis = np.zeros((n, n, n), dtype=complex)
    basis[0] = np.eye(n) / np.sqrt(n)
    # Rows of real numbers whose dot products are Re tr(X* Y); views of basis.
    flat = basis.reshape(n, -1).view(float)
    k = 1
    while k < n:
        y = a @ basis[k - 1]
        y = ((y + y.conj().T) / 2.0).reshape(-1).view(float)
        for _ in range(2):
            y = y - (flat[:k] @ y) @ flat[:k]
        r = float(np.linalg.norm(y))
        if r * tol.rel_zero <= noise:  # r <= noise / rel_zero, also for rel_zero = 0
            break
        flat[k] = y / r
        k += 1
    return MatrixSubspace(dim=n, basis=basis[:k])


def subspace_leq(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance | None = None) -> bool:
    """True when every basis element of ``s`` lies in ``t`` (containment)."""
    tol = _tol(tol)
    if s.dim != t.dim:
        raise ValueError(f"ambient dimension mismatch: {s.dim} vs {t.dim}")
    return all(tol.is_zero(t.residual(b)) for b in s.basis)


def subspace_eq(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance | None = None) -> bool:
    return subspace_leq(s, t, tol) and subspace_leq(t, s, tol)


def subspace_proper_lt(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance | None = None) -> bool:
    return subspace_leq(s, t, tol) and s.real_dimension < t.real_dimension


def quasi_equals_commutant(a: np.ndarray, tol: Tolerance | None = None) -> bool:
    """True when the anticommutant of ``A`` sits inside its commutant: no
    eigenvector pair of :func:`_pair_masks` is in the anticommutant mask
    and outside the commutant mask.  Away from the cuts, the spectrum of
    ``A`` then meets its negative only in 0."""
    _, _, comm, anti, _ = _pair_masks(a, _tol(tol))
    return not np.any(anti & ~comm)


def noncommuting_anticommuting_partner(
    a: np.ndarray, tol: Tolerance | None = None
) -> np.ndarray | None:
    """Unit Hermitian ``B = (v_a v_b* + v_b v_a*) / sqrt(2)`` of the first
    eigenvector pair (a, b) that :func:`quasi_equals_commutant` rules out;
    ``None`` exactly when it holds.  ``|AB - BA|_F = |w_a - w_b|`` is above
    the commutant cut but may be below ``rel_zero * max(1, |A|_F)``, where
    ``rel_c`` reads B as commuting with ``A``.
    """
    _, v, comm, anti, _ = _pair_masks(a, _tol(tol))
    pairs = np.argwhere(anti & ~comm)
    if len(pairs) == 0:
        return None
    b = np.outer(v[:, pairs[0][0]], v[:, pairs[0][1]].conj())
    return (b + b.conj().T) / np.sqrt(2.0)


def refute_biquasi_membership(
    x: np.ndarray,
    a: np.ndarray,
    budget: int = 32,
    seed=0,
    tol: Tolerance | None = None,
    quasi: QuasiCommutant | None = None,
) -> np.ndarray | None:
    """Search for M in the quasi-commutant of A that fails to quasi-commute with X.

    A returned witness proves X is outside the second quasi-commutant of A;
    ``None`` (no witness within budget) is not a membership proof.  The
    candidate pool holds the basis of both parts, scalar-shifted copies
    ``lam I + M`` of commutant elements, and ``budget`` random unit
    combinations inside each part; a negative ``budget`` raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    tol = _tol(tol)
    _check_same_dim(np.asarray(x), np.asarray(a))
    qc = quasi if quasi is not None else quasi_commutant(a, tol)
    n = qc.dim
    eye = np.eye(n, dtype=complex)
    shifts = (1.0, -1.0, 0.5)

    def candidates():
        yield from qc.commutant_part.basis
        yield from qc.anticommutant_part.basis
        for m in qc.commutant_part.basis:
            for s in shifts:
                yield s * eye + m
        rng = _rng(seed)
        for _ in range(budget):
            for part in (qc.commutant_part, qc.anticommutant_part):
                if part.real_dimension == 0:
                    continue
                m = part.random_element(rng)
                yield m
                if part is qc.commutant_part:
                    yield eye + m

    for m in candidates():
        if not rel_q(x, m, tol):
            return m
    return None


def scalar_witness(a: np.ndarray, seed=0, tol: Tolerance | None = None) -> np.ndarray | None:
    """For nonscalar A, a Hermitian B whose difference from A neither commutes
    nor anticommutes with B; ``None`` for scalar A (no witness exists).

    Search over B = tT with T a sampled matrix not commuting with A: such a
    B never commutes with B - A, and at most one real t can make the pair
    anticommute, so a two-point t grid already suffices.  A loose ``rel_zero``
    can exhaust its 64 attempts: :class:`SearchExhausted`.
    """
    _check_seed(seed)
    tol = _tol(tol)
    a = np.asarray(a, dtype=complex)
    if is_scalar(a, tol):
        return None
    n = a.shape[0]
    for attempt in range(64):
        t_mat = random_hermitian(n, [seed, attempt])
        if rel_c(a, t_mat, tol):
            continue
        for t in (1.0, 2.0, 0.5, -1.0):
            b = t * t_mat
            if not rel_q(b - a, b, tol):
                return b
    raise SearchExhausted("no scalar witness found for a nonscalar matrix; widen the search")
