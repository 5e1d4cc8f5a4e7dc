"""Core relations: Jordan product, commute/anticommute predicates, sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commutant_lab import (
    MatrixSubspace,
    Tolerance,
    as_hermitian,
    commutant,
    commutator,
    frobenius,
    in_k,
    is_scalar,
    jordan_product,
    projection_decomposition,
    random_hermitian,
    random_projection,
    random_scalar,
    random_unitary,
    rel_c,
    rel_j,
    rel_q,
    rel_stack,
    subspace_leq,
    triadic_relation,
)
from commutant_lab.suites import LAMBDA_TOLERANCE, _proportionality_fit

from conftest import SWAP2, diag


class TestJordanProduct:
    def test_identity_absorbs(self):
        b = random_hermitian(4, 1)
        assert np.allclose(jordan_product(np.eye(4, dtype=complex), b), 2 * b)

    def test_zero_annihilates(self):
        a = random_hermitian(3, 2)
        assert np.allclose(jordan_product(a, np.zeros((3, 3))), 0)

    def test_anticommuting_pair(self):
        # diag(1,-1) o swap: computed by direct 2x2 multiplication
        assert np.allclose(jordan_product(diag(1, -1), SWAP2), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            jordan_product(np.eye(2), np.eye(3))

    def test_result_hermitian(self):
        for seed in range(30):
            a = random_hermitian(5, [seed, 0])
            b = random_hermitian(5, [seed, 1])
            j = jordan_product(a, b)
            assert frobenius(j - j.conj().T) <= 1e-12 * max(1.0, frobenius(j))


class TestRelations:
    def test_rel_c_self(self):
        a = random_hermitian(4, 3)
        assert rel_c(a, a)

    def test_rel_c_counterexamples(self):
        # commutator of diag(1,2) with the swap is off-diagonal and nonzero
        assert not rel_c(diag(1, 2), SWAP2)
        # anticommuting but not commuting
        assert not rel_c(diag(1, -1), SWAP2)

    def test_rel_j_examples(self):
        assert rel_j(random_hermitian(3, 4), np.zeros((3, 3)))
        assert rel_j(diag(1, -1), SWAP2)
        assert not rel_j(np.eye(2), np.eye(2))

    def test_rel_q_examples(self):
        assert rel_q(diag(1, -1), SWAP2)
        assert rel_q(diag(1, 2), diag(3, 4))
        assert not rel_q(diag(1, 2), SWAP2)

    def test_symmetry(self):
        for seed in range(20):
            a = random_hermitian(4, [seed, 10])
            b = random_hermitian(4, [seed, 11])
            assert rel_c(a, b) == rel_c(b, a)
            assert rel_j(a, b) == rel_j(b, a)

    def test_scalar_absorption_exact(self):
        # the commutator of A + tI with B equals that of A with B
        a = random_hermitian(4, 12)
        b = random_hermitian(4, 13)
        for t in (-3.0, -0.5, 0.1, 2.0, 17.0):
            assert rel_c(a + t * np.eye(4), b) == rel_c(a, b)

    def test_rel_q_implied(self):
        for seed in range(25):
            a = random_hermitian(3, [seed, 20])
            w, v = np.linalg.eigh(a)
            commuting = (v * np.sign(w)) @ v.conj().T
            assert rel_c(a, commuting) and rel_q(a, commuting)
        anti = SWAP2
        assert rel_j(diag(1, -1), anti) and rel_q(diag(1, -1), anti)


class TestTriadic:
    def test_equal_pair_always_holds(self):
        a = random_hermitian(3, 30)
        c = random_hermitian(3, 31)
        assert triadic_relation(a, a, c, "commutative")
        assert triadic_relation(a, a, c, "quasi")

    def test_quasi_via_anticommutation(self):
        assert triadic_relation(diag(2, 0), diag(1, 1), SWAP2, "quasi")

    def test_commutative_failure(self):
        assert not triadic_relation(diag(2, 0), diag(0, 1), SWAP2, "commutative")

    def test_unknown_kind(self):
        a = np.eye(2)
        with pytest.raises(ValueError, match="relation kind"):
            triadic_relation(a, a, a, "sideways")


def relation_pairs(seed, dim):
    """A commuting, an anticommuting and a generic pair of Hermitian matrices."""
    rng = np.random.default_rng([seed, dim])
    a = random_hermitian(dim, rng)
    w, v = np.linalg.eigh(a)
    commuting = (v * rng.standard_normal(dim)) @ v.conj().T
    lam = float(rng.uniform(0.5, 2.0))
    u = random_unitary(dim, rng)
    signed = (u * np.concatenate([[lam, -lam], np.zeros(dim - 2)])) @ u.conj().T
    swap = np.zeros((dim, dim), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0
    return [
        (a, (commuting + commuting.conj().T) / 2.0),
        ((signed + signed.conj().T) / 2.0, u @ swap @ u.conj().T),
        (a, random_hermitian(dim, rng)),
    ]


class TestRelStack:
    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_matches_serial_relations(self, dim):
        pairs = [pair for seed in range(5) for pair in relation_pairs(seed, dim)]
        x, y = (np.array(side) for side in zip(*pairs))
        commutes, anticommutes = rel_stack(x, y)
        assert list(commutes) == [rel_c(a, b) for a, b in pairs]
        assert list(anticommutes) == [rel_j(a, b) for a, b in pairs]
        assert commutes.any() and anticommutes.any() and not (commutes | anticommutes).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            rel_stack(np.zeros((2, 3, 3)), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            rel_stack(np.eye(3), np.eye(3))


class TestScaleFloor:
    """The threshold ``rel_zero * max(1, |A|_F |B|_F)`` is relative only
    while the norm product is at least 1; below, it is an absolute
    ``rel_zero``."""

    @staticmethod
    def verdicts(a, b, c):
        commutes, anticommutes = rel_stack(a[None], b[None])
        return (rel_c(a, b), rel_j(a, b), rel_q(a, b),
                triadic_relation(a, b, c, "commutative"), triadic_relation(a, b, c, "quasi"),
                bool(commutes[0]), bool(anticommutes[0]))

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_invariant_under_scaling_up(self, dim):
        seen = set()
        for seed in range(10):
            c = random_hermitian(dim, [seed, 40])
            for a, b in relation_pairs(seed, dim):
                plain = self.verdicts(a, b, c)
                assert self.verdicts(1e6 * a, 1e6 * b, 1e6 * c) == plain
                seen.add(plain)
        assert len(seen) == 3  # commuting, anticommuting and generic pairs

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_every_pair_passes_when_scaled_down(self, dim):
        for seed in range(10):
            a, b, c = (1e-6 * random_hermitian(dim, [seed, k]) for k in range(3))
            assert all(self.verdicts(a, b, c))


def _commutator_norm(a, b):
    return frobenius(a @ b - b @ a)


def _jordan_norm(a, b):
    return frobenius(a @ b + b @ a)


def _pair_site(verdict, norm):
    def site(s):
        a, b = s * random_hermitian(3, 60), s * random_hermitian(3, 61)
        return norm(a, b), frobenius(a) * frobenius(b), lambda tol: verdict(a, b, tol)
    return site


def _triadic_site(kind, norm):
    def site(s):
        a, b, c = (s * random_hermitian(3, [62, k]) for k in range(3))
        d = a - b
        return (norm(d, c), frobenius(d) * frobenius(c),
                lambda tol: triadic_relation(a, b, c, kind, tol))
    return site


def _stack_site(index, norm):
    return _pair_site(lambda a, b, tol: bool(rel_stack(a[None], b[None], tol)[index][0]), norm)


def _either_norm(a, b):
    return min(_commutator_norm(a, b), _jordan_norm(a, b))


def _scalar_site(s):
    a = s * (np.eye(3) + 1e-3 * diag(1, -1, 0))
    spread = frobenius(a - np.trace(a).real / 3 * np.eye(3))
    return spread, frobenius(a), lambda tol: is_scalar(a, tol)


DIAGONALS = diag(1, 2, 3)  # its commutant is the real diagonal matrices


def _contains_site(s):
    x = s * (DIAGONALS + 1e-3 * random_hermitian(3, 63))
    off = frobenius(x - np.diag(np.diag(x)))
    return off, frobenius(x), lambda tol: commutant(DIAGONALS).contains(x, tol)


def _leq_site(s):
    x = DIAGONALS + s * 1e-3 * random_hermitian(3, 64)
    x = x / frobenius(x)
    inner = MatrixSubspace(dim=3, basis=x[None])
    return (frobenius(x - np.diag(np.diag(x))), 1.0,
            lambda tol: subspace_leq(inner, commutant(DIAGONALS), tol))


def _in_k_site(s):
    a = s * diag(1, -(1 - 1e-3), -(1 - 1e-3))
    return abs(s - s * (1 - 1e-3)), frobenius(a), lambda tol: in_k(a, tol)


def _dropped_term_site(s):
    a = s * diag(2, 0.01, 0.01)
    return s * 0.01, frobenius(a), lambda tol: len(projection_decomposition(a, tol)) == 1


def _unfitted_site(s):
    a = s * diag(1, 0, 0)
    b = s * (diag(0, 1, 1) + 1e-3 * random_hermitian(3, 65))
    return (frobenius(b @ a), frobenius(a) * frobenius(b),
            lambda tol: _proportionality_fit(a, b, tol) is None)


# Each site maps a factor s to (norm, scale, verdict): the verdict reads
# True on the zero side of ``Tolerance.is_zero(norm, scale)``.
ZERO_TEST_SITES = {
    "rel_c": _pair_site(rel_c, _commutator_norm),
    "rel_j": _pair_site(rel_j, _jordan_norm),
    "rel_q": _pair_site(rel_q, _either_norm),
    "rel_stack-commutes": _stack_site(0, _commutator_norm),
    "rel_stack-anticommutes": _stack_site(1, _jordan_norm),
    "triadic-commutative": _triadic_site("commutative", _commutator_norm),
    "triadic-quasi": _triadic_site("quasi", _either_norm),
    "is_scalar": _scalar_site,
    "contains": _contains_site,
    "subspace_leq": _leq_site,
    "in_k": _in_k_site,
    "projection_decomposition": _dropped_term_site,
    "proportionality_fit": _unfitted_site,
}


@pytest.mark.parametrize("s", [0.1, 10.0])
@pytest.mark.parametrize("site", sorted(ZERO_TEST_SITES))
def test_every_verdict_flips_at_its_zero_test_ratio(site, s):
    """Each verdict reads the one zero test: it flips where ``rel_zero``
    crosses ``r = norm / max(1, scale)``, for scales below and above 1
    (``subspace_leq`` always uses scale 1)."""
    norm, scale, verdict = ZERO_TEST_SITES[site](s)
    assert scale == 1.0 or (scale < 1.0) == (s < 1.0)
    r = norm / max(1.0, scale)
    assert verdict(Tolerance(rel_zero=r * (1 + 1e-6)))
    assert not verdict(Tolerance(rel_zero=r * (1 - 1e-6)))


class TestBrookeProperty:
    """Quasi-commuting Hermitian pairs have proportionality factor +-1."""

    @staticmethod
    def least_squares_factor(a, b):
        ba = b @ a
        ab = a @ b
        return complex(np.sum(ba.conj() * ab)) / (frobenius(ba) ** 2)

    def test_commuting_factor_is_plus_one(self):
        for seed in range(50):
            a = random_hermitian(4, [seed, 40])
            w, v = np.linalg.eigh(a)
            b = (v * (1.0 + np.abs(w))) @ v.conj().T
            lam = self.least_squares_factor(a, b)
            assert abs(lam - 1.0) <= 1e-6

    def test_anticommuting_factor_is_minus_one(self):
        for seed in range(50):
            rng = np.random.default_rng([seed, 41])
            dim = int(rng.integers(3, 7))
            lam0 = float(rng.uniform(0.5, 2.0))
            values = np.concatenate([[lam0, -lam0], rng.standard_normal(dim - 2)])
            v = random_unitary(dim, rng)
            a = (v * values) @ v.conj().T
            swap = np.zeros((dim, dim), dtype=complex)
            swap[0, 1] = swap[1, 0] = 1.0
            b = v @ swap @ v.conj().T
            lam = self.least_squares_factor(a, b)
            assert abs(lam + 1.0) <= 1e-6
            assert rel_j(a, b) and not rel_c(a, b)


class TestBrookeWindow:
    """A pair whose ``|BA|_F`` passes the zero test commutes and
    anticommutes, so the brooke fit counts it as trivially proportional.
    Above that, the fit residual of a Hermitian pair is
    ``|BA|_F sqrt(1 - |lam|^2)``: a relative ``|BA|_F`` in
    ``(rel_zero, rel_zero / sqrt(1 - |lam|^2)]`` is still accepted with an
    uninformative factor, which fails the suite's sign check.  On this pair
    (relative ``|BA|_F`` 4.09e-11, residual 3.82e-11) that is ``rel_zero``
    in [3.82e-11, 4.09e-11)."""

    A = diag(1, 0, 0)
    B = diag(0, 1, 1) + 1e-10 * random_hermitian(3, 1)

    def test_pair_inside_the_window_is_accepted_with_a_wrong_factor(self):
        scale = frobenius(self.A) * frobenius(self.B)
        ba = frobenius(self.B @ self.A)
        assert ba / scale == pytest.approx(4.09e-11, rel=1e-2)
        lam, residual, accepted = _proportionality_fit(self.A, self.B, Tolerance(rel_zero=3.9e-11))
        assert accepted
        assert residual / scale == pytest.approx(3.82e-11, rel=1e-2)
        assert residual == pytest.approx(ba * np.sqrt(1.0 - abs(lam) ** 2), rel=1e-6)
        assert lam == pytest.approx(0.3565, abs=1e-4)
        assert min(abs(lam - 1.0), abs(lam + 1.0)) > LAMBDA_TOLERANCE

    def test_window_edges(self, tol):
        # below the window the fit is rejected; above it, and at the default
        # tolerance, the pair passes both relations and is not fitted
        assert not _proportionality_fit(self.A, self.B, Tolerance(rel_zero=3.7e-11))[2]
        assert _proportionality_fit(self.A, self.B, Tolerance(rel_zero=4.2e-11)) is None
        assert _proportionality_fit(self.A, self.B, tol) is None
        assert rel_c(self.A, self.B, tol) and rel_j(self.A, self.B, tol)


class TestSampling:
    def test_projection_contract(self):
        p = random_projection(3, 1, 7)
        assert frobenius(p @ p - p) <= 1e-12
        assert frobenius(p - p.conj().T) <= 1e-12
        assert abs(np.trace(p).real - 1.0) <= 1e-12

    def test_full_rank_projection_is_identity(self):
        assert np.allclose(random_projection(4, 4, 8), np.eye(4), atol=1e-12)

    def test_unitary_contract(self):
        u = random_unitary(4, 9)
        assert frobenius(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="invalid rank"):
            random_projection(3, 0, 1)
        with pytest.raises(ValueError, match="invalid rank"):
            random_projection(3, 4, 1)

    def test_determinism_per_seed(self):
        for sampler in (random_hermitian, random_unitary, random_scalar,
                        lambda dim, seed: random_projection(dim, 2, seed)):
            assert np.array_equal(sampler(4, 123), sampler(4, 123))

    def test_scalar_sample_is_scalar(self):
        assert is_scalar(random_scalar(5, 11))


class TestIngestion:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_hermitian(m)

    def test_symmetrizes_noise(self):
        noisy = random_hermitian(4, 50)
        noisy[0, 1] += 1e-14  # representation noise below the ingestion tolerance
        out = as_hermitian(noisy)
        assert frobenius(out - out.conj().T) == 0.0

    def test_is_scalar_includes_zero(self):
        assert is_scalar(np.zeros((3, 3)))
        assert is_scalar(2.5 * np.eye(3))
        assert not is_scalar(diag(1, 1, 2))


class TestToleranceValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(rel_zero=-1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tolerance(rank_cut=float("nan"))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=6),
    t=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_relation_invariants_hold_generically(seed, dim, t):
    a = random_hermitian(dim, [seed, 0])
    b = random_hermitian(dim, [seed, 1])
    assert rel_c(a, b) == rel_c(b, a)
    assert rel_c(a + t * np.eye(dim), b) == rel_c(a, b)
    if rel_c(a, b) or rel_j(a, b):
        assert rel_q(a, b)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(["commuting", "perturbed", "random"]),
    exponent=st.floats(min_value=-14, max_value=-4, allow_nan=False),
    s=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_rel_c_invariant_under_scalar_shift(seed, dim, kind, exponent, s):
    """``rel_c(A + sI, B) == rel_c(A, B)``: the commutator does not change,
    but the threshold ``rel_zero max(1, |A|_F |B|_F)`` moves with s, so
    only pairs at least 10x from both thresholds are compared."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(dim, rng)
    w, v = np.linalg.eigh(a)
    b = (v * np.cos(w)) @ v.conj().T  # a function of A: commutes
    if kind == "perturbed":
        b = b + 10.0 ** exponent * random_hermitian(dim, rng)
    elif kind == "random":
        b = random_hermitian(dim, rng)
    shifted = a + s * np.eye(dim)
    norm = frobenius(commutator(a, b))
    margins = [norm / (1e-9 * max(1.0, frobenius(x) * frobenius(b))) for x in (a, shifted)]
    assume(all(m <= 0.1 for m in margins) or all(m >= 10.0 for m in margins))
    assert rel_c(shifted, b) == rel_c(a, b)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=3, max_value=6),
    shift=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_triadic_verdicts_invariant_under_unitary_and_antiunitary_conjugation(seed, dim, shift):
    """Stacked triadic verdicts on a scalar-difference triple (holds) and a
    random triple (fails), each at least 10x away from the threshold."""
    rng = np.random.default_rng(seed)
    b = random_hermitian(dim, rng)
    triples = [(b + shift * np.eye(dim), b, random_hermitian(dim, rng)),
               tuple(random_hermitian(dim, rng) for _ in range(3))]
    for a, b, c in triples:
        scale = 1e-9 * max(1.0, frobenius(a - b) * frobenius(c))
        for product in (commutator(a - b, c), jordan_product(a - b, c)):
            margin = frobenius(product) / scale
            assume(margin <= 0.1 or margin >= 10.0)
    u = random_unitary(dim, rng)
    stack = np.array(triples)

    def verdicts(x):
        commutes, anticommutes = rel_stack(x[:, 0] - x[:, 1], x[:, 2])
        return list(commutes), list(commutes | anticommutes)

    expected = verdicts(stack)
    assert expected == ([True, False], [True, False])
    assert verdicts(u @ stack @ u.conj().T) == expected
    assert verdicts(stack.conj()) == expected
