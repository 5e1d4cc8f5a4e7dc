"""Commutant, anticommutant and second-commutant subspaces of a Hermitian matrix.

The Hermitian matrices of size n form a real inner-product space of
dimension n^2 under the pairing ``<X, Y> = Re tr(X* Y)``.  The commutant of
``A`` is the kernel of the real-linear map ``X -> AX - XA`` restricted to
that space, and the anticommutant the kernel of ``X -> AX + XA``.  In the
eigenbasis of ``A`` both maps are diagonal on unit eigenvector pairs, with
singular values ``|w_a - w_b|`` and ``|w_a + w_b|``, so the production
routes read both kernels, and the second commutant, off one
eigendecomposition.  The cut of each map is ``rank_cut`` times
max(largest singular value, input scale), the scale floor matching the
relative-zero semantics of the binary relations.  A pair is in the
anticommutant when its sum is at or below the cut.  The commutant joins
whole runs of eigenvalues whose consecutive gaps are at or below the cut,
so on a chain of close eigenvalues it keeps pairs whose difference is
above the cut, where a realified SVD solve cuts pair by pair.

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

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .hermitian import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _check_seed,
    _frobenius_stack,
    _projection,
    _rng,
    _stack_depth,
    _symmetrize,
    frobenius,
    is_scalar,
    random_hermitian,
    rel_c,
    rel_q,
    rel_stack,
)

__all__ = [
    "MatrixSubspace",
    "QuasiCommutant",
    "SearchExhausted",
    "anticommutant",
    "bicommutant",
    "commutant",
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

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    @property
    def real_dimension(self) -> int:
        return int(self.basis.shape[0])

    def residual(self, x: np.ndarray) -> float:
        """Frobenius norm of ``x`` minus its orthogonal projection onto the subspace."""
        if self.real_dimension == 0:
            return frobenius(x)
        return frobenius(x - self._combine(np.einsum("kij,ij->k", self.basis.conj(), x).real))

    def contains(self, x: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        return bool(tol.is_zero(self.residual(x), frobenius(x)))

    def random_element(self, rng) -> np.ndarray:
        """Random real combination of the basis with unit Frobenius norm."""
        if self.real_dimension == 0:
            raise ValueError("cannot sample from the zero subspace")
        c = _rng(rng).standard_normal(self.real_dimension)
        return self._combine(c / np.linalg.norm(c))

    def _combine(self, c: np.ndarray) -> np.ndarray:
        """``sum_k c[k] basis[k]`` as one ``(1, k) x (k, n * n)`` product.
        It is the product ``np.tensordot`` makes, so it rounds the same,
        without the Python overhead that cost 4x the product at n <= 8."""
        return np.dot(c[None], self.basis.reshape(len(c), -1)).reshape(self.basis.shape[1:])


def _cut_masks(w: np.ndarray, norm, tol: Tolerance):
    """The commutant and anticommutant pair masks of the ascending
    eigenvalues ``w`` of a matrix of Frobenius norm ``norm``; on a stack,
    each of ``w (..., n)`` and ``norm (...)`` decides alone.

    The eigenvector pair (a, b) spans singular vectors of ``X -> AX - XA``
    and ``X -> AX + XA`` with singular values ``|w_a - w_b|`` and
    ``|w_a + w_b|``.  The cut of each map is that of a realified SVD solve:
    ``rank_cut`` * max(largest singular value of that map, max(1, |A|_F));
    the largest ``|w_a - w_b|`` is the spread ``w[-1] - w[0]``.  A pair is
    in the anticommutant mask when its sum is at or below its cut.  The
    commutant joins whole runs: eigenvalue i is labelled by how many
    consecutive gaps up to i lie above the cut, and a pair is in the
    commutant mask when its two labels are equal.  So a chain of gaps each
    at or below the cut is one run, even where its ends lie farther apart
    than the cut, and the commutant has dimension sum m**2 over the runs'
    lengths m.
    """
    scale = np.maximum(1.0, norm)
    cut = tol.rank_cut * np.maximum(w[..., -1] - w[..., 0], scale)
    labels = np.zeros(w.shape, dtype=np.intp)
    (w[..., 1:] - w[..., :-1] > cut[..., None]).cumsum(axis=-1, out=labels[..., 1:])
    sums = np.abs(w[..., None] + w[..., None, :])
    anti_cut = tol.rank_cut * np.maximum(sums.max(axis=(-2, -1)), scale)
    return labels[..., None] == labels[..., None, :], sums <= anti_cut[..., None, None]


def _pair_masks(a: np.ndarray, tol: Tolerance):
    """``w``, ``V`` of ``A = V diag(w) V*`` and the :func:`_cut_masks` of ``w``, for one
    matrix or a stack ``(..., n, n)``, each slice decided bit for bit as it is alone.

    One matrix goes through :func:`_cached_masks`, a ``functools.lru_cache``
    of the last 16 matrices keyed by the bytes of the complex matrix, its
    size and ``tol``, and its arrays are read-only; a stack is decomposed
    afresh.  The suites ask for one matrix's masks several times
    (``bicommutant`` alone asks twice): without the cache, a seed-0
    ``verify all`` makes about 2,170 single-matrix decompositions of 741
    distinct matrices.  The cache is scoped to one command:
    :func:`~commutant_lab.cli.main` empties it at the start of every call,
    so no decomposition outlives the command that made it, and many
    commands run in one process cost what they cost as separate processes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        return _decompose(a, tol)
    return _cached_masks(a.tobytes(), a.shape[0], tol)


@functools.lru_cache(maxsize=16)
def _cached_masks(data: bytes, n: int, tol: Tolerance):
    """:func:`_decompose` of the n x n complex matrix of bytes ``data``, with
    read-only arrays."""
    masks = _decompose(np.frombuffer(data, complex).reshape(n, n), tol)
    for array in masks:
        array.flags.writeable = False
    return masks


def _decompose(a: np.ndarray, tol: Tolerance):
    """:func:`_pair_masks` without the cache, for a complex matrix or stack."""
    w, v = np.linalg.eigh(a)
    # each norm equals frobenius of that matrix byte for byte
    return w, v, *_cut_masks(w, _frobenius_stack(a), tol)


def _pair_basis(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """A basis ``(k, n, n)`` of the span of the eigenvector pairs (a, b),
    a <= b, marked in ``keep``, for one eigenbasis ``v``; or one basis
    ``(..., k, n, n)`` for each of a stack ``(..., n, n)`` of eigenbases
    sharing ``keep``.

    A diagonal pair gives ``v_a v_a*``; an off-diagonal pair gives
    ``(v_a v_b* + v_b v_a*)/sqrt(2)`` and ``i (v_a v_b* - v_b v_a*)/sqrt(2)``.
    The basis is orthonormal because the eigenvectors are.
    """
    rows, cols = np.nonzero(np.triu(keep))
    outer = np.einsum("...ip,...jp->...pij", v[..., rows], v[..., cols].conj())
    off = outer[..., rows != cols, :, :]
    adj = off.conj().swapaxes(-1, -2)
    s = 1.0 / np.sqrt(2.0)
    return np.concatenate([outer[..., rows == cols, :, :], s * (off + adj), 1j * s * (off - adj)],
                          axis=-3)


def _coincident_runs(a: np.ndarray, tol: Tolerance
                     ) -> tuple[np.ndarray, list[tuple[slice, np.ndarray]]]:
    """The one rule for "these eigenvalues coincide": the ascending
    eigenvalues ``w`` of ``a`` and its runs, the blocks of the commutant
    mask of :func:`_pair_masks` (maximal stretches of ``w`` whose
    consecutive gaps are at or below the commutant cut), each with the
    projection onto its eigenvectors, symmetrized so it is exactly
    Hermitian."""
    w, v, comm, _ = _pair_masks(a, tol)
    starts = [0, *(np.flatnonzero(~np.diagonal(comm, 1)) + 1), w.size]
    return w, [(slice(lo, hi), _projection(v[:, lo:hi])) for lo, hi in zip(starts[:-1], starts[1:])]


def commutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
    """Hermitian solutions of ``AX = XA``; always contains the identity and A.

    Read off one eigendecomposition: the commutant pairs of
    :func:`_pair_masks`, ``|w_a - w_b|`` at or below its cut.
    """
    _, v, comm, _ = _pair_masks(a, tol)
    return MatrixSubspace(_pair_basis(v, comm))


def anticommutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
    """Hermitian solutions of ``AX + XA = 0``; possibly the zero subspace.

    Read off one eigendecomposition: the anticommutant pairs of
    :func:`_pair_masks`, ``|w_a + w_b|`` at or below its cut.
    """
    _, v, _, anti = _pair_masks(a, tol)
    return MatrixSubspace(_pair_basis(v, anti))


@dataclass
class QuasiCommutant:
    """The set of Hermitian X commuting *or* anticommuting with A.

    Held as the union of two subspaces; the union is not convex, so it is
    never flattened into a single span.
    """

    commutant_part: MatrixSubspace
    anticommutant_part: MatrixSubspace

    def contains(self, x: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        return self.commutant_part.contains(x, tol) or self.anticommutant_part.contains(x, tol)


def quasi_commutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> QuasiCommutant:
    """Commutant and anticommutant of ``A``, paired, from one eigendecomposition."""
    _, v, comm, anti = _pair_masks(a, tol)
    return QuasiCommutant(*(MatrixSubspace(_pair_basis(v, keep)) for keep in (comm, anti)))


def bicommutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
    """Hermitian X commuting with every element of ``commutant(A)``.

    The commutant joins eigenvectors whose eigenvalues lie within its cut,
    so its commutant is spanned by the projections onto the
    :func:`_coincident_runs`; the basis is ``P / sqrt(run length)``.
    """
    # benchmarks/tracer.py sizes each bicommutant call by the commutant
    # call nested inside it, so the commutant stays a call of its own.
    commutant(a, tol)
    w, runs = _coincident_runs(a, tol)
    basis = [p / np.sqrt(run.stop - run.start) for run, p in runs]
    return MatrixSubspace(np.array(basis))


# --------------------------------------------------------------------------
# Krylov oracle: neither an eigendecomposition nor an SVD; the partition
# oracles of spectral.py test their containments on it.
# --------------------------------------------------------------------------


def _krylov_bicommutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
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
        y = _symmetrize(y).reshape(-1).view(float)
        for _ in range(2):
            y = y - (flat[:k] @ y) @ flat[:k]
        r = float(np.linalg.norm(y))
        if r * tol.rel_zero <= noise:  # r <= noise / rel_zero, also for rel_zero = 0
            break
        flat[k] = y / r
        k += 1
    return MatrixSubspace(basis[:k])


def subspace_leq(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when every basis element of ``s`` lies in ``t`` (containment)."""
    if s.dim != t.dim:
        raise ValueError(f"ambient dimension mismatch: {s.dim} vs {t.dim}")
    return all(tol.is_zero(t.residual(b)) for b in s.basis)


def subspace_eq(s: MatrixSubspace, t: MatrixSubspace, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    return subspace_leq(s, t, tol) and subspace_leq(t, s, tol)


def subspace_proper_lt(s: MatrixSubspace, t: MatrixSubspace,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    return subspace_leq(s, t, tol) and s.real_dimension < t.real_dimension


def quasi_equals_commutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool | np.ndarray:
    """True when the anticommutant of ``A`` sits inside its commutant: no
    eigenvector pair of :func:`_pair_masks` is in the anticommutant mask
    and outside the commutant mask.  Away from the cuts, the spectrum of
    ``A`` then meets its negative only in 0.  A ``bool``, or an array of
    them for a stack ``(..., n, n)``."""
    _, _, comm, anti = _pair_masks(a, tol)
    held = ~np.any(anti & ~comm, axis=(-2, -1))
    return held if held.ndim else bool(held)


def refute_biquasi_membership(
    x: np.ndarray,
    a: np.ndarray,
    budget: int = 32,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[np.ndarray | None]:
    """For each target X of a stack ``(k, n, n)``, search for M in the
    quasi-commutant of A that fails to quasi-commute with X: a list of k
    witnesses or ``None``.  A witness proves its target is outside the
    second quasi-commutant of A; ``None`` is not a membership proof.

    The candidate pool holds, in order, the basis of both parts,
    scalar-shifted copies ``lam I + M`` of commutant elements, and
    ``budget`` rounds of random unit combinations inside each part (with
    ``I + M`` after each commutant one), drawn from ``default_rng(seed)``.
    The targets share the pool, built lazily and decided by
    :func:`rel_stack` in chunks: the first candidate alone, since most
    outsiders fail it, then as many at a time as
    :func:`~commutant_lab.hermitian._stack_depth` gives, each for every
    target not yet refuted.  Each witness is the first failing candidate
    in pool order, whatever the chunk size and the other targets.  A
    negative budget, a seed that is not a nonnegative integer or targets
    of another shape raise ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    _check_seed(seed)
    n = np.shape(a)[0]
    targets = np.asarray(x)
    if targets.ndim != 3 or targets.shape[1:] != (n, n):
        raise ValueError(f"dimension mismatch: expected targets of shape (k, {n}, {n}), "
                         f"got {targets.shape}")
    qc = quasi_commutant(a, tol)
    comm, anti = qc.commutant_part, qc.anticommutant_part
    eye = np.eye(n, dtype=complex)

    def candidates():
        yield from comm.basis
        yield from anti.basis
        for m in comm.basis:
            for s in (1.0, -1.0, 0.5):
                yield s * eye + m
        rng = np.random.default_rng(seed)
        for _ in range(budget):  # the commutant holds the identity, so it is never empty
            m = comm.random_element(rng)
            yield m
            yield eye + m
            if anti.real_dimension:
                yield anti.random_element(rng)

    witnesses = [None] * len(targets)
    open_targets = list(range(len(targets)))
    pool = candidates()
    size = 1
    while open_targets and (chunk := list(islice(pool, size))):
        stack = np.array(chunk)
        for t in open_targets:
            commutes, anticommutes = rel_stack(targets[t], stack, tol)
            broken = np.flatnonzero(~(commutes | anticommutes))
            if broken.size:
                witnesses[t] = chunk[broken[0]]
        open_targets = [t for t in open_targets if witnesses[t] is None]
        size = _stack_depth(n)
    return witnesses


def scalar_witness(a: np.ndarray, seed=0, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray | None:
    """For nonscalar A, a Hermitian B whose difference from A neither commutes
    nor anticommutes with B; ``None`` for scalar A (no witness exists).

    Search over B = tT with T a sampled matrix not commuting with A: such a
    B never commutes with B - A, and at most one real t can make the pair
    anticommute, so a two-point t grid already suffices.  A loose ``rel_zero``
    can exhaust its 64 attempts: :class:`SearchExhausted`.
    """
    _check_seed(seed)
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
