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

The ``kernel_*`` functions solve the same kernels by realifying each map
into a ``2 n^2 x n^2`` system and reading the kernel off an SVD.  They are
independent of the eigenbasis route and serve as its oracles.

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
    rel_j,
    rel_q,
)

__all__ = [
    "MatrixSubspace",
    "QuasiCommutant",
    "anticommutant",
    "bicommutant",
    "commutant",
    "hermitian_basis",
    "kernel_anticommutant",
    "kernel_bicommutant",
    "kernel_commutant",
    "noncommuting_anticommuting_partner",
    "quasi_commutant",
    "quasi_equals_commutant",
    "refute_biquasi_membership",
    "scalar_witness",
    "subspace_eq",
    "subspace_leq",
    "subspace_proper_lt",
]


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n^2-dimensional real space of Hermitian matrices.

    Order: diagonal units, then symmetric off-diagonal pairs, then
    antisymmetric imaginary pairs; all unit-norm under ``Re tr(X* Y)``.
    """
    mats = np.zeros((n * n, n, n), dtype=complex)
    k = 0
    for i in range(n):
        mats[k, i, i] = 1.0
        k += 1
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            mats[k, i, j] = s
            mats[k, j, i] = s
            k += 1
    for i in range(n):
        for j in range(i + 1, n):
            mats[k, i, j] = 1j * s
            mats[k, j, i] = -1j * s
            k += 1
    return mats


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
        tol = _tol(tol)
        return self.residual(x) <= tol.rel_zero * max(1.0, frobenius(x))

    def random_element(self, rng, unit: bool = True) -> np.ndarray:
        """Random real combination of the basis, unit Frobenius norm by default."""
        if self.real_dimension == 0:
            raise ValueError("cannot sample from the zero subspace")
        c = _rng(rng).standard_normal(self.real_dimension)
        if unit:
            c = c / np.linalg.norm(c)
        return np.tensordot(c, self.basis, axes=1)


def _eigen_cut(a: np.ndarray, tol: Tolerance, sign: float):
    """Eigendecomposition of ``A`` and the kernel cut of ``X -> AX + sign XA``.

    In the eigenbasis ``A = V diag(w) V*`` the realified map is diagonal on
    the unit Hermitian matrices built from eigenvector pairs (a, b): its
    singular values are ``|w_a + sign w_b|``.  Returns ``w``, ``V``, that
    matrix of singular values and the cut of :func:`kernel_commutant`:
    ``rank_cut`` times max(largest singular value, max(1, |A|_F)).
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    svals = np.abs(w[:, None] + sign * w[None, :])
    cut = tol.rank_cut * max(float(svals.max()), max(1.0, frobenius(a)))
    return w, v, svals, cut


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

    Read off one eigendecomposition: the eigenvector pairs (a, b) with
    ``|w_a - w_b|`` at or below the cut of :func:`kernel_commutant`.
    """
    _, v, svals, cut = _eigen_cut(a, _tol(tol), -1.0)
    return _pair_subspace(v, svals <= cut)


def anticommutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Hermitian solutions of ``AX + XA = 0``; possibly the zero subspace.

    Read off one eigendecomposition: the eigenvector pairs (a, b) with
    ``|w_a + w_b|`` at or below the cut of :func:`kernel_anticommutant`.
    """
    _, v, svals, cut = _eigen_cut(a, _tol(tol), 1.0)
    return _pair_subspace(v, svals <= cut)


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
    """Commutant and anticommutant of ``A``, paired."""
    return QuasiCommutant(commutant(a, tol), anticommutant(a, tol))


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
    w, v, _, cut = _eigen_cut(a, tol, -1.0)
    basis = [p / np.sqrt(run.stop - run.start) for run, p in _spectral_runs(w, v, cut)]
    return MatrixSubspace(dim=w.size, basis=np.array(basis))


# --------------------------------------------------------------------------
# Kernel oracles: the realified SVD solves, independent of the eigenbasis
# route above and kept for cross-checks.
# --------------------------------------------------------------------------


def _kernel_subspace(images: np.ndarray, n: int, tol: Tolerance,
                     scale: float = 1.0) -> MatrixSubspace:
    """Kernel of a real-linear map given by its images on ``hermitian_basis(n)``.

    ``images`` has shape (n^2, n, n), or (n^2, k, n, n) for k maps at once;
    column i of the realified system is the flattened real and imaginary
    parts of ``images[i]``.  Singular
    values at or below ``rank_cut`` times max(largest singular value,
    ``scale``) count as zero; the scale floor keeps maps that are pure
    float noise (e.g. commutation with a conjugated scalar) from being
    mistaken for structure.
    """
    flat = images.reshape(n * n, -1)
    system = np.concatenate([flat.real, flat.imag], axis=1).T  # (2 k n^2, n^2)
    _, svals, vt = np.linalg.svd(system, full_matrices=False)
    cut = tol.rank_cut * max(float(svals[0]) if svals.size else 0.0, scale)
    rank = int(np.sum(svals > cut))
    coeffs = vt[rank:]
    basis = np.tensordot(coeffs, hermitian_basis(n), axes=1)
    return MatrixSubspace(dim=n, basis=basis)


def _images(a: np.ndarray, basis: np.ndarray, sign: float) -> np.ndarray:
    """Images ``A X + sign X A`` of every basis element ``X``."""
    left, right = np.einsum("ij,kjl->kil", a, basis), np.einsum("kij,jl->kil", basis, a)
    return left + right if sign > 0 else left - right


def _kernel_oracle(a: np.ndarray, tol: Tolerance | None, sign: float) -> MatrixSubspace:
    """Kernel of the realified ``X -> AX + sign XA``."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    return _kernel_subspace(_images(a, hermitian_basis(n), sign), n, _tol(tol),
                            scale=max(1.0, frobenius(a)))


def kernel_commutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Oracle for :func:`commutant`: kernel of the realified ``X -> AX - XA``."""
    return _kernel_oracle(a, tol, -1.0)


def kernel_anticommutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Oracle for :func:`anticommutant`: kernel of the realified ``X -> AX + XA``."""
    return _kernel_oracle(a, tol, 1.0)


def kernel_bicommutant(a: np.ndarray, tol: Tolerance | None = None) -> MatrixSubspace:
    """Oracle for :func:`bicommutant`: joint kernel of the commutation maps
    of every basis element of ``kernel_commutant(A)``.

    Known fault: for two eigenvalues a relative gap of about 5e-10 to 3e-6
    apart, the SVD null vectors of :func:`kernel_commutant` are accurate
    only to about ``eps |A| / gap`` (``eps`` the float epsilon).  The
    difference of the two spectral projections then fails to commute with
    that basis by more than the cut, so this solve merges two eigenvalue
    clusters that its own commutant keeps apart and returns one dimension
    too few (5 where the answer is 6 at n = 6).  The gap sweep in
    ``tests/test_commutant.py`` pins the window.
    """
    tol = _tol(tol)
    n = np.asarray(a).shape[0]
    basis = hermitian_basis(n)
    # Joint kernel: the images under every commutant basis element's
    # commutation map, side by side, form one tall realified system.
    # Generators are unit-norm, so 1.0 is the right scale floor here.
    images = np.stack([_images(c, basis, -1.0) for c in kernel_commutant(a, tol).basis], axis=1)
    return _kernel_subspace(images, n, tol)


def subspace_leq(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance | None = None) -> bool:
    """True when every basis element of ``s`` lies in ``t`` (containment)."""
    tol = _tol(tol)
    if s.dim != t.dim:
        raise ValueError(f"ambient dimension mismatch: {s.dim} vs {t.dim}")
    return all(t.residual(b) <= tol.rel_zero for b in s.basis)


def subspace_eq(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance | None = None) -> bool:
    return subspace_leq(s, t, tol) and subspace_leq(t, s, tol)


def subspace_proper_lt(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance | None = None) -> bool:
    return subspace_leq(s, t, tol) and s.real_dimension < t.real_dimension


def quasi_equals_commutant(a: np.ndarray, tol: Tolerance | None = None) -> bool:
    """True when every anticommuting Hermitian partner of ``A`` also commutes.

    Equivalent spectral statement (used as an oracle in tests): the spectrum
    of ``A`` meets its negative only in 0.
    """
    return subspace_leq(anticommutant(a, tol), commutant(a, tol), tol)


def noncommuting_anticommuting_partner(
    a: np.ndarray, tol: Tolerance | None = None
) -> np.ndarray | None:
    """Unit-norm Hermitian B with ``AB + BA = 0`` and ``AB != BA``, if one exists.

    Built in the eigenbasis of ``A`` from an eigenvalue pair (lam, -lam)
    with lam != 0; returns ``None`` when the spectrum has no such pair,
    which happens exactly when the anticommutant sits inside the commutant.
    """
    tol = _tol(tol)
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    thr = tol.rel_zero * max(1.0, frobenius(a))
    n = a.shape[0]
    for i in range(n):
        if abs(w[i]) <= thr:
            continue
        for j in range(i + 1, n):
            if abs(w[i] + w[j]) > thr:
                continue
            b = np.outer(v[:, i], v[:, j].conj()) + np.outer(v[:, j], v[:, i].conj())
            b = b / frobenius(b)
            if rel_j(a, b, tol) and not rel_c(a, b, tol):
                return b
    return None


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
    combinations inside each part.
    """
    tol = _tol(tol)
    _check_same_dim(np.asarray(x), np.asarray(a))
    qc = quasi if quasi is not None else quasi_commutant(a, tol)
    n = qc.dim
    eye = np.eye(n, dtype=complex)
    shifts = (1.0, -1.0, 0.5)

    def candidates():
        for m in qc.commutant_part.basis:
            yield m
        for m in qc.anticommutant_part.basis:
            yield m
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
    anticommute, so a two-point t grid already suffices.
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
    raise RuntimeError("no scalar witness found for a nonscalar matrix; widen the search")
