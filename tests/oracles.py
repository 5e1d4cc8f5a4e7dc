"""Oracles for the relation route of ``commutant_lab.hermitian``, the
subspace routes of ``commutant_lab.commutant`` and the triadic verdict
engine of ``commutant_lab.preservers``, independent of the routes they
cross-check.

Spectral formulas.  For a Hermitian matrix with distinct eigenvalues v_i of
multiplicities m_i:

* commutant dimension   = sum of m_i^2,
* bicommutant dimension = number of distinct eigenvalues,
* anticommutant dimension = m_0^2 (kernel block) plus 2 m_i m_j over pairs
  with v_i = -v_j and v_i != 0.

Subspace route.  ``subspace_quasi_equals_commutant`` decides whether the
anticommutant sits inside the commutant by projecting the anticommutant
basis onto the commutant, where ``quasi_equals_commutant`` compares two
eigenvalue-pair masks; it shares only the bases with the route it checks.

Kernel solvers.  ``kernel_commutant``, ``kernel_anticommutant`` and
``kernel_bicommutant`` realify each commutation map into a ``2 n^2 x n^2``
system on ``hermitian_basis(n)`` and read its kernel off an SVD.  They use
neither the eigendecomposition of the production routes nor the Krylov
bicommutant of the partition oracles.  Their cost, O(n^6) time and
``2 k n^4`` entries for the bicommutant (k the commutant dimension), keeps
them in the tests.

Serial relations.  ``serial_rel_c``, ``serial_rel_j`` and ``serial_rel_q``
decide one pair with a plain ``a @ b -+ b @ a`` and ``np.linalg.norm``, as
the package did before ``rel_stack`` became its one relation route (of
which ``rel_c``, ``rel_j`` and ``rel_q`` are now the one-pair case).  They
share no code with ``rel_stack``, yet its stacked products and norms agree
with theirs byte for byte, so every verdict agrees too, even at the exact
flip of the zero test (``test_hermitian.py::TestExactFlip``).
``test_oracle_independence.py`` keeps this module off the production
relation and triadic code.

Serial triadic route.  ``serial_apply_map`` and ``serial_check_triadic``
evaluate a map and a triadic verdict one matrix at a time, deciding the
relation with ``serial_rel_c`` / ``serial_rel_q``.  The production
``apply_map`` and ``check_triadic`` take stacks and decide through
``rel_stack``; every verdict must agree, at the exact flip too.

Serial refutation search.  ``serial_refute_biquasi_membership`` walks the
refutation pool one candidate at a time with ``serial_rel_q``, building
each candidate only when the one before it passed, as the search did
before it decided its pool on stacks.  The stacked route must return
``None`` where it does and otherwise a byte-equal witness.

Per-entry matrix writer.  ``per_entry_payload`` converts a matrix to its
JSON payload one entry at a time, as ``matrix_to_payload`` did before it
converted the grid in one numpy call; the two must give the same JSON.

Serial triple generator.  ``serial_triple`` draws one ``property_run``
trial's triple with one sampler call per matrix, as the generator did
before it was staged; the staged coroutines of ``preservers`` must make
the same draws and return the same triples byte for byte.
"""

import numpy as np

from commutant_lab import (
    MatrixSubspace,
    Tolerance,
    anticommutant,
    build_aef,
    commutant,
    frobenius,
    quasi_commutant,
    random_hermitian,
    random_projection,
    random_unitary,
    spectral_decompose,
    subspace_leq,
)
from commutant_lab.hermitian import DEFAULT_TOLERANCE
from commutant_lab.preservers import (
    BOTH_FAIL,
    BOTH_HOLD,
    VIOLATION_BACKWARD,
    VIOLATION_FORWARD,
)


def per_entry_payload(m, label=None) -> dict:
    """Oracle for ``matrix_to_payload``: each ``[re, im]`` pair converted
    with ``float`` on its own."""
    m = np.asarray(m, dtype=complex)
    payload = {"dim": int(m.shape[0]),
               "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
    if label is not None:
        payload["label"] = label
    return payload


def _zero_threshold(a, tol: Tolerance) -> float:
    return tol.rel_zero * max(1.0, frobenius(a))


def commutant_dim_formula(a, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    sd = spectral_decompose(a, tol)
    return int(np.sum(sd.multiplicities.astype(np.int64) ** 2))


def bicommutant_dim_formula(a, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    return spectral_decompose(a, tol).count


def anticommutant_dim_formula(a, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    sd = spectral_decompose(a, tol)
    thr = _zero_threshold(a, tol)
    total = 0
    for i, (vi, mi) in enumerate(zip(sd.distinct_values, sd.multiplicities)):
        if abs(vi) <= thr:
            total += int(mi) ** 2
            continue
        for j in range(i + 1, sd.count):
            if abs(vi + sd.distinct_values[j]) <= thr:
                total += 2 * int(mi) * int(sd.multiplicities[j])
    return total


def spectrum_has_sign_pair(a, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when some nonzero eigenvalue has its negative in the spectrum."""
    sd = spectral_decompose(a, tol)
    thr = _zero_threshold(a, tol)
    for i, vi in enumerate(sd.distinct_values):
        if abs(vi) <= thr:
            continue
        for j in range(i + 1, sd.count):
            if abs(vi + sd.distinct_values[j]) <= thr:
                return True
    return False


def subspace_quasi_equals_commutant(a, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Oracle for ``quasi_equals_commutant``: the anticommutant basis, one
    element at a time, projected onto the commutant basis."""
    return subspace_leq(anticommutant(a, tol), commutant(a, tol), tol)


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
    return MatrixSubspace(basis)


def _images(a: np.ndarray, basis: np.ndarray, sign: float) -> np.ndarray:
    """Images ``A X + sign X A`` of every basis element ``X``."""
    left, right = np.einsum("ij,kjl->kil", a, basis), np.einsum("kij,jl->kil", basis, a)
    return left + right if sign > 0 else left - right


def _kernel_oracle(a: np.ndarray, tol: Tolerance, sign: float) -> MatrixSubspace:
    """Kernel of the realified ``X -> AX + sign XA``."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    return _kernel_subspace(_images(a, hermitian_basis(n), sign), n, tol,
                            scale=max(1.0, frobenius(a)))


def kernel_commutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
    """Oracle for ``commutant``: kernel of the realified ``X -> AX - XA``."""
    return _kernel_oracle(a, tol, -1.0)


def kernel_anticommutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
    """Oracle for ``anticommutant``: kernel of the realified ``X -> AX + XA``."""
    return _kernel_oracle(a, tol, 1.0)


def kernel_bicommutant(a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixSubspace:
    """Oracle for ``bicommutant``: joint kernel of the commutation maps
    of every basis element of ``kernel_commutant(A)``.

    Known fault: for two eigenvalues a relative gap of about 5e-10 to 3e-6
    apart, the SVD null vectors of :func:`kernel_commutant` are accurate
    only to about ``eps |A| / gap`` (``eps`` the float epsilon).  The
    difference of the two spectral projections then fails to commute with
    that basis by more than the cut, so this solve merges two eigenvalue
    clusters that its own commutant keeps apart and returns one dimension
    too few (5 where the answer is 6 at n = 6).  The gap sweep in
    ``tests/test_commutant.py`` pins the window.  The partition oracles of
    ``commutant_lab.spectral`` no longer use this solve.
    """
    n = np.asarray(a).shape[0]
    basis = hermitian_basis(n)
    # Joint kernel: the images under every commutant basis element's
    # commutation map, side by side, form one tall realified system.
    # Generators are unit-norm, so 1.0 is the right scale floor here.
    images = np.stack([_images(c, basis, -1.0) for c in kernel_commutant(a, tol).basis], axis=1)
    return _kernel_subspace(images, n, tol)


def _serial_zero_test(product, a, b, tol: Tolerance) -> bool:
    """``|product|_F <= rel_zero * max(1, |A|_F |B|_F)``, each norm summed row-major."""
    scale = np.linalg.norm(np.ravel(a)) * np.linalg.norm(np.ravel(b))
    return bool(np.linalg.norm(np.ravel(product)) <= tol.rel_zero * max(1.0, scale))


def serial_rel_c(a, b, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Oracle for ``rel_c``: the zero test of ``AB - BA``."""
    return _serial_zero_test(a @ b - b @ a, a, b, tol)


def serial_rel_j(a, b, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Oracle for ``rel_j``: the zero test of ``AB + BA``."""
    return _serial_zero_test(a @ b + b @ a, a, b, tol)


def serial_rel_q(a, b, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Oracle for ``rel_q``: ``serial_rel_c`` or ``serial_rel_j``."""
    return serial_rel_c(a, b, tol) or serial_rel_j(a, b, tol)


def serial_apply_map(m, a, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Oracle for ``apply_map`` on one matrix, its shift taken at ``tol``."""
    a = np.asarray(a, dtype=complex)
    if a.shape != m.conjugator.shape:
        raise ValueError(f"dimension mismatch: map is {m.conjugator.shape}, input {a.shape}")
    x = a.conj() if m.antiunitary else a
    out = m.scale * (m.conjugator @ x @ m.conjugator.conj().T)
    out = (out + out.conj().T) / 2.0
    return out + m.shift(a, tol) * np.eye(a.shape[0])


def serial_check_triadic(m, a, b, c, tol: Tolerance = DEFAULT_TOLERANCE) -> str:
    """Oracle for ``check_triadic`` on one triple: ``serial_rel_c``
    (commutative) or ``serial_rel_q`` (quasi) of ``A - B`` and ``C``, at
    the source and at the ``serial_apply_map`` image."""
    relation = serial_rel_c if m.relation_kind == "commutative" else serial_rel_q
    source = relation(a - b, c, tol)
    fa, fb, fc = (serial_apply_map(m, x, tol) for x in (a, b, c))
    image = relation(fa - fb, fc, tol)
    if source and not image:
        return VIOLATION_FORWARD
    if image and not source:
        return VIOLATION_BACKWARD
    return BOTH_HOLD if source else BOTH_FAIL


def serial_refute_biquasi_membership(x, a, budget: int = 32, seed: int = 0,
                                     tol: Tolerance = DEFAULT_TOLERANCE):
    """Oracle for ``refute_biquasi_membership`` on one target: the first
    candidate of its pool that neither commutes nor anticommutes with ``x``
    under ``serial_rel_q``, or ``None``."""
    qc = quasi_commutant(a, tol)
    eye = np.eye(np.shape(a)[0], dtype=complex)

    def candidates():
        yield from qc.commutant_part.basis
        yield from qc.anticommutant_part.basis
        for m in qc.commutant_part.basis:
            for s in (1.0, -1.0, 0.5):
                yield s * eye + m
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            for part in (qc.commutant_part, qc.anticommutant_part):
                if part.real_dimension == 0:
                    continue
                m = part.random_element(rng)
                yield m
                if part is qc.commutant_part:
                    yield eye + m

    return next((m for m in candidates() if not serial_rel_q(x, m, tol)), None)


def serial_structured_triple(rng: np.random.Generator, dim: int, tol: Tolerance):
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


def serial_triple(rng: np.random.Generator, dim: int, tol: Tolerance):
    """Oracle for the staged generator of ``property_run``: one trial's
    triple after its dimension draw, structured or fully random with equal
    probability."""
    if rng.random() < 0.5:
        return serial_structured_triple(rng, dim, tol)
    return tuple(random_hermitian(dim, rng) for _ in range(3))
