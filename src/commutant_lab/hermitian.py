"""Hermitian matrix arithmetic, commutation relations and seeded sampling.

Matrices are plain complex ``numpy`` arrays.  A matrix is *Hermitian* when
``H == H.conj().T``; :func:`as_hermitian` validates and symmetrizes input so
that downstream code can rely on exact Hermiticity.  The binary relations
are zero tests of ``AB - BA`` and ``AB + BA`` at a relative threshold, all
decided by :func:`rel_stack`; ``rel_c``/``rel_j``/``rel_q`` are its 0-d case.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import chain
from math import isfinite

import numpy as np

__all__ = [
    "Tolerance",
    "as_hermitian",
    "frobenius",
    "is_scalar",
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
# Largest entry magnitude of an input matrix, and of the block-fixture
# weight.  Norms are taken unscaled: a matrix with entries of magnitude m
# has |A|_F**2 up to n**2 m**2, which at m = 1e160 overflows to inf, and
# against an infinite scale every relative zero test passes.  A product of
# two such matrices has squared norm up to n**4 m**4, finite at 1e75 up to
# n = 115; the block fixtures' sparse products overflow from a = 3e76 at
# dim 64, and at 1e75 only at dimensions far beyond memory.
ENTRY_BOUND = 1e75


def _stack_depth(n: int) -> int:
    """How many ``n x n`` items a stacked search builds and decides at a
    time: as many as fit in 16,384 entries (256 KiB of complex numbers),
    and at least one: 256 at n = 8, 1820 at n = 3, 113 at n = 12, 16 at
    n = 32.  ``lemma4_check`` candidates and refutation candidates go by
    it, and ``property_run`` builds a dimension's trials once it holds
    ``_stack_depth(n) // len(dims)`` of them: 455, 256, 163 and 64 at dims
    3, 4, 5, 8, so that every dimension's stack holds about 12,288 entries.

    On a 2-vCPU VM, a form-check pass of ``benchmarks/run.py``
    (``verify theorem-4`` and ``theorem-5`` at 2000 trials, dims 3, 4, 5,
    8) took a median 1.29 s this way against 1.67 s when all dimensions
    shared blocks of ``_stack_depth(8)`` = 256 trials, since a stack splits
    into one group per mode and small groups pay the overhead of each
    stacked call.  Larger stacks outgrow a core's cache: at n = 32, stacked
    commutation verdicts took 6.8 ms per 128 pairs in stacks of 128 and
    3.1-3.9 ms in stacks of 16-64, against 5.6 ms for 128 pairs decided one
    at a time by a commutator and ``np.linalg.norm``.
    """
    return max(1, 16384 // (n * n))


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every zero test in the package.

    rel_zero
        Threshold of :meth:`is_zero`, the zero test of every relation
        verdict (commutators, Jordan products, projection residuals).
    rank_cut
        Relative singular-value cutoff for kernel computations.
    cluster_gap
        Recorded in every report's ``tolerance`` block, and read by no
        computation: eigenvalues coincide at the ``rank_cut`` commutant cut
        (see :func:`~commutant_lab.spectral.spectral_decompose`).
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


def _check_seed(seed) -> None:
    """Raise unless ``seed`` is a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx):
# a pool of four 32-bit words, the hash of entropy into the pool and the
# hash of the pool into the output state.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Indices hashed per pass of _generators: at least _stack_depth(3) = 1820,
# so that every block of a stacked search is hashed in one pass.
_HASH_BLOCK = 4096


def _int_words(value) -> list[int]:
    """numpy's split of a nonnegative integer into 32-bit entropy words,
    least significant first; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"entropy words must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@functools.cache
def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k = 0 .. count, as a read-only
    uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(x: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    x = (x ^ before) * after
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _state_words(prefix, ts) -> np.ndarray:
    """``SeedSequence([*prefix, t]).generate_state(4, np.uint64)`` for each
    ``t`` of ``ts``, as one ``(len(ts), 4)`` array, in one pass of uint32
    arithmetic over all ``ts``.

    Each ``t`` must be one entropy word, ``0 <= t < 2**32``; the prefix
    follows numpy's rule and may be any number of words.  The hash runs in
    numpy's order, but a source word's hashes into the three other pool
    words are one array operation, since none of them changes that word.
    """
    ts = np.asarray(ts)
    if ts.ndim != 1 or ts.dtype.kind not in "iu" or ((ts < 0) | (ts > _MASK32)).any():
        raise ValueError("trial indices must be integers in [0, 2**32)")
    head = [w for value in prefix for w in _int_words(value)]
    entropy = np.zeros((max(len(head) + 1, _POOL), len(ts)), dtype=np.uint32)
    entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head)] = ts
    a = _powers(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool = _hashmix(entropy[:_POOL], a[:_POOL], a[1:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # mix every pool word into every other one
        dst = np.arange(_POOL) != src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + 3], a[k + 1:k + 4]))
        k += 3
    for src in range(_POOL, len(entropy)):  # entropy longer than the pool
        pool = _mix(pool, _hashmix(entropy[src], a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
        k += _POOL
    b = _powers(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(pool[np.arange(2 * _POOL) % _POOL], b[:-1], b[1:])
    # numpy joins the 32-bit words little-endian into 64-bit ones
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _given_state() -> type:
    """A seed sequence that hands ``PCG64`` state words computed elsewhere.

    Built on first use, so that importing the package does not import
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {_POOL} uint64 state words, asked for {n_words} "
                                 f"of {np.dtype(dtype)}")
            return self.words

    return GivenState


def _generators(prefix, ts):
    """The generators ``np.random.default_rng([*prefix, t])`` for each ``t``
    of the sequence ``ts`` (each ``0 <= t < 2**32``), in order, with the
    same streams.

    ``default_rng`` hashes its seed through a ``SeedSequence`` object per
    generator; this computes the four state words of ``_HASH_BLOCK``
    indices in one vectorized pass (:func:`_state_words`) as the iteration
    reaches them, and seeds each ``PCG64`` with its words.  The first block
    is hashed at the call, so a bad index in it raises before any
    generator is made.
    """
    given = _given_state()
    first = _state_words(prefix, ts[:_HASH_BLOCK])
    rest = (_state_words(prefix, ts[start:start + _HASH_BLOCK])
            for start in range(_HASH_BLOCK, len(ts), _HASH_BLOCK))
    return (np.random.Generator(np.random.PCG64(given(words)))
            for block in chain([first], rest) for words in block)


def frobenius(x: np.ndarray) -> float:
    """Frobenius norm, summed row-major whatever the layout, as :func:`_frobenius_stack` sums it."""
    return float(np.linalg.norm(np.ravel(x)))


def as_hermitian(entries, rel: float = 1e-12) -> np.ndarray:
    """Validate a square matrix as Hermitian and return its symmetrization.

    The input must be finite, have entries of magnitude at most
    ``ENTRY_BOUND`` and satisfy ``H = H*`` within ``rel`` (relative
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
    largest = float(np.abs(h).max())
    if largest > ENTRY_BOUND:
        raise ValueError(f"matrix entries must be at most {ENTRY_BOUND:g} in magnitude, "
                         f"got {largest:g}")
    if frobenius(h - h.conj().T) > rel * max(1.0, frobenius(h)):
        raise ValueError(f"matrix is not Hermitian within relative tolerance {rel:g}")
    return _symmetrize(h)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _one_pair(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The 0-d :func:`rel_stack` verdicts of two ``n x n`` matrices, never of stacks."""
    if np.ndim(a) != 2 or np.ndim(b) != 2:
        raise ValueError(f"dimension mismatch: {np.shape(a)} vs {np.shape(b)}")
    return rel_stack(a, b, tol)


def rel_c(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when ``A`` and ``B`` commute: ``AB - BA = 0`` up to tolerance."""
    return bool(_one_pair(a, b, tol)[0])


def rel_j(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when ``A`` and ``B`` anticommute: ``AB + BA = 0`` up to tolerance."""
    return bool(_one_pair(a, b, tol)[1])


def rel_q(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when ``A`` and ``B`` either commute or anticommute."""
    return bool(np.logical_or(*_one_pair(a, b, tol)))


def _frobenius_stack(x: np.ndarray) -> np.ndarray:
    """:func:`frobenius` of each matrix of a stack ``(..., n, n)``, byte for
    byte (``test_hermitian.py::test_frobenius_stack_equals_frobenius``)."""
    x = np.asarray(x, dtype=complex)
    flat = x.reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1])
    square = flat.real @ flat.real.swapaxes(-1, -2) + flat.imag @ flat.imag.swapaxes(-1, -2)
    return np.sqrt(square[..., 0, 0])


def rel_stack(
    x: np.ndarray, y: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray]:
    """Which pairs of two ``(..., n, n)`` stacks whose leading axes broadcast,
    as ``@`` pairs them, commute and which anticommute: ``|XY -+ YX|_F``
    against ``rel_zero * max(1, |X|_F |Y|_F)``, as two boolean arrays of the
    broadcast leading shape (0-d for two matrices).  Stacked ``@`` and
    :func:`_frobenius_stack` reproduce the per-pair products and norms byte
    for byte, so each verdict equals a serial one on its pair, bit for bit,
    in either order (``test_hermitian.py::TestExactFlip``).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    try:  # ``@`` raises on leading axes that do not broadcast
        if x.ndim < 2 or not x.shape[-2:] == y.shape[-2:] == 2 * x.shape[-1:]:
            raise ValueError
        xy, yx = x @ y, y @ x
    except ValueError:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}") from None
    scale = _frobenius_stack(x) * _frobenius_stack(y)
    return (tol.is_zero(_frobenius_stack(xy - yx), scale),
            tol.is_zero(_frobenius_stack(xy + yx), scale))


def triadic_relation(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    kind: str = "commutative",
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> bool | np.ndarray:
    """Evaluate the three-operator relation on (A, B, C).

    ``commutative``: the difference ``A - B`` commutes with ``C``.
    ``quasi``: the difference commutes or anticommutes with ``C``.
    Takes one triple of ``(n, n)`` matrices and returns a ``bool``, or
    three stacks ``(T, n, n)`` and returns a boolean array of length ``T``;
    either way every verdict is a :func:`rel_stack` verdict.
    """
    if kind not in RELATION_KINDS:
        raise ValueError(f"unknown relation kind {kind!r}; expected one of {RELATION_KINDS}")
    _check_same_dim(a, b)
    _check_same_dim(a, c)
    commutes, anticommutes = rel_stack(a - b, c, tol)
    held = commutes if kind == "commutative" else commutes | anticommutes
    return held if held.ndim else bool(held)


def is_scalar(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when ``A`` is a real multiple of the identity (0 included)."""
    a = np.asarray(a)
    n = a.shape[0]
    mean = np.trace(a).real / n
    return bool(tol.is_zero(frobenius(a - mean * np.eye(n)), frobenius(a)))


def _symmetrize(x: np.ndarray) -> np.ndarray:
    """The Hermitian part ``(X + X*)/2`` of one matrix or of each of a stack."""
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def _hermitian(normals: np.ndarray) -> np.ndarray:
    """The symmetrized complex Gaussian of :func:`random_hermitian` from real
    normals of shape ``(..., 2, n, n)``: one matrix, or one per leading index.

    ``normals[..., 0, :, :]`` and ``normals[..., 1, :, :]`` are the real and
    imaginary parts.  A generator fills one ``(2, n, n)`` draw in the order
    of two ``(n, n)`` draws, so the samplers' one draw reproduces the two.
    """
    return _symmetrize(normals[..., 0, :, :] + 1j * normals[..., 1, :, :])


def _unitary(normals: np.ndarray) -> np.ndarray:
    """The phase-fixed QR factor of :func:`random_unitary` from real normals
    of shape ``(..., 2, n, n)``: one matrix, or one per leading index."""
    g = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _spectral(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``V diag(values) V*``, symmetrized, for one eigenbasis or a stack."""
    return _symmetrize((v * values[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _projection(frame: np.ndarray) -> np.ndarray:
    """Projection onto the span of the orthonormal columns of ``frame``,
    symmetrized, for one frame or a stack."""
    return _symmetrize(frame @ frame.conj().swapaxes(-1, -2))


def random_hermitian(dim: int, seed) -> np.ndarray:
    """Gaussian Hermitian matrix: i.i.d. complex normal entries, symmetrized."""
    return _hermitian(_rng(seed).standard_normal((2, dim, dim)))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-fixed so the distribution is invariant under
    left multiplication by any fixed unitary.
    """
    return _unitary(_rng(seed).standard_normal((2, dim, dim)))


def random_projection(dim: int, rank: int, seed) -> np.ndarray:
    """Orthogonal projection of exact ``rank`` from a Haar-random frame."""
    if not 1 <= rank <= dim:
        raise ValueError(f"invalid rank {rank} for dimension {dim}")
    return _projection(random_unitary(dim, seed)[:, :rank])


def random_scalar(dim: int, seed) -> np.ndarray:
    """Random real multiple of the identity."""
    rng = _rng(seed)
    return float(rng.standard_normal()) * np.eye(dim, dtype=complex)
