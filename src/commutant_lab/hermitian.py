"""Hermitian matrix arithmetic, commutation relations and seeded sampling.

Matrices are plain complex ``numpy`` arrays.  A matrix is *Hermitian* when
``H == H.conj().T``; :func:`as_hermitian` validates and symmetrizes input so
that downstream code can rely on exact Hermiticity.  The binary relations
are zero tests of the commutator ``AB - BA`` and the Jordan product
``AB + BA``, made robust at float precision by a relative threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

__all__ = [
    "Tolerance",
    "as_hermitian",
    "commutator",
    "frobenius",
    "is_hermitian",
    "is_scalar",
    "jordan_product",
    "random_hermitian",
    "random_projection",
    "random_scalar",
    "random_unitary",
    "rel_c",
    "rel_j",
    "rel_q",
    "rel_stack",
    "triadic_relation",
]

RELATION_KINDS = ("commutative", "quasi")


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every zero test in the package.

    rel_zero
        Threshold of :meth:`is_zero`, the zero test of every relation
        verdict (commutators, Jordan products, projection residuals).
    rank_cut
        Relative singular-value cutoff for kernel computations.
    cluster_gap
        Relative gap below which two eigenvalues belong to one cluster.
    """

    rel_zero: float = 1e-9
    rank_cut: float = 1e-10
    cluster_gap: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rel_zero", "rank_cut", "cluster_gap"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")

    def is_zero(self, norm, scale=1.0):
        """The one zero test, elementwise: ``norm <= rel_zero * max(1, scale)``."""
        return norm <= self.rel_zero * np.maximum(1.0, scale)


DEFAULT_TOLERANCE = Tolerance()


def _tol(tol: Tolerance | None) -> Tolerance:
    return DEFAULT_TOLERANCE if tol is None else tol


def _check_seed(seed) -> None:
    """Raise unless ``seed`` is a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def frobenius(x: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(x))


def is_hermitian(x: np.ndarray, rel: float = 1e-12) -> bool:
    """True when ``x`` is square and equals its conjugate transpose within ``rel``."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        return False
    return frobenius(x - x.conj().T) <= rel * max(1.0, frobenius(x))


def as_hermitian(entries, rel: float = 1e-12) -> np.ndarray:
    """Validate a square matrix as Hermitian and return its symmetrization.

    The input must be finite and satisfy ``H = H*`` within ``rel`` (relative
    Frobenius); the returned copy is ``(H + H*)/2`` so the invariant holds
    exactly and representation noise does not leak into downstream solves.
    """
    h = np.asarray(entries, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    if not is_hermitian(h, rel):
        raise ValueError(f"matrix is not Hermitian within relative tolerance {rel:g}")
    return (h + h.conj().T) / 2.0


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``AB - BA``."""
    _check_same_dim(a, b)
    return a @ b - b @ a


def jordan_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A o B = AB + BA``; Hermitian whenever both factors are."""
    _check_same_dim(a, b)
    return a @ b + b @ a


def rel_c(a: np.ndarray, b: np.ndarray, tol: Tolerance | None = None) -> bool:
    """True when ``A`` and ``B`` commute: ``AB - BA = 0`` up to tolerance."""
    return bool(_tol(tol).is_zero(frobenius(commutator(a, b)), frobenius(a) * frobenius(b)))


def rel_j(a: np.ndarray, b: np.ndarray, tol: Tolerance | None = None) -> bool:
    """True when ``A`` and ``B`` anticommute: ``A o B = 0`` up to tolerance."""
    return bool(_tol(tol).is_zero(frobenius(jordan_product(a, b)), frobenius(a) * frobenius(b)))


def rel_q(a: np.ndarray, b: np.ndarray, tol: Tolerance | None = None) -> bool:
    """True when ``A`` and ``B`` either commute or anticommute."""
    return rel_c(a, b, tol) or rel_j(a, b, tol)


def _frobenius_stack(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack ``(T, n, n)``."""
    flat = np.ascontiguousarray(x, dtype=complex).view(np.float64).reshape(len(x), -1)
    return np.sqrt(np.einsum("ti,ti->t", flat, flat))


def rel_stack(
    x: np.ndarray, y: np.ndarray, tol: Tolerance | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rel_c` and :func:`rel_j` of each pair of slices of two stacks.

    ``x`` and ``y`` are ``(T, n, n)`` arrays; returns two boolean arrays of
    length ``T``, the slices that commute and the slices that anticommute.
    Each slice gets its own zero test with scale ``|X|_F |Y|_F``,
    so a verdict equals the serial one except for last-bit differences in
    the norms.
    """
    tol = _tol(tol)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 3 or x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    xy = x @ y
    yx = y @ x
    scale = _frobenius_stack(x) * _frobenius_stack(y)
    return (tol.is_zero(_frobenius_stack(xy - yx), scale),
            tol.is_zero(_frobenius_stack(xy + yx), scale))


def triadic_relation(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    kind: str = "commutative",
    tol: Tolerance | None = None,
) -> bool:
    """Evaluate the three-operator relation on (A, B, C).

    ``commutative``: the difference ``A - B`` commutes with ``C``.
    ``quasi``: the difference commutes or anticommutes with ``C``.
    """
    if kind not in RELATION_KINDS:
        raise ValueError(f"unknown relation kind {kind!r}; expected one of {RELATION_KINDS}")
    _check_same_dim(a, b)
    _check_same_dim(a, c)
    d = a - b
    if kind == "commutative":
        return rel_c(d, c, tol)
    return rel_q(d, c, tol)


def is_scalar(a: np.ndarray, tol: Tolerance | None = None) -> bool:
    """True when ``A`` is a real multiple of the identity (0 included)."""
    a = np.asarray(a)
    n = a.shape[0]
    mean = np.trace(a).real / n
    return bool(_tol(tol).is_zero(frobenius(a - mean * np.eye(n)), frobenius(a)))


def random_hermitian(dim: int, seed) -> np.ndarray:
    """Gaussian Hermitian matrix: i.i.d. complex normal entries, symmetrized."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-fixed so the distribution is invariant under
    left multiplication by any fixed unitary.
    """
    rng = _rng(seed)
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projection(dim: int, rank: int, seed) -> np.ndarray:
    """Orthogonal projection of exact ``rank`` from a Haar-random frame."""
    if not 1 <= rank <= dim:
        raise ValueError(f"invalid rank {rank} for dimension {dim}")
    u = random_unitary(dim, seed)
    frame = u[:, :rank]
    p = frame @ frame.conj().T
    return (p + p.conj().T) / 2.0


def random_scalar(dim: int, seed) -> np.ndarray:
    """Random real multiple of the identity."""
    rng = _rng(seed)
    return float(rng.standard_normal()) * np.eye(dim, dtype=complex)
