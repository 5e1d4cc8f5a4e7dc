"""Commutant engine: the eigenbasis route against the kernel-solver, Krylov
and spectral-formula oracles, subspace comparison, refutation search, witness
constructions."""

import importlib
import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutant_lab import (
    MatrixSubspace,
    SearchExhausted,
    Tolerance,
    anticommutant,
    bicommutant,
    commutant,
    frobenius,
    is_scalar,
    quasi_commutant,
    quasi_equals_commutant,
    random_hermitian,
    random_unitary,
    refute_biquasi_membership,
    rel_c,
    rel_j,
    rel_q,
    scalar_witness,
    subspace_eq,
    subspace_leq,
    subspace_proper_lt,
)
from commutant_lab import suites
from commutant_lab.commutant import (_cached_masks, _cut_masks, _decompose,
                                     _krylov_bicommutant, _pair_masks)
from commutant_lab.hermitian import _stack_depth
from oracles import (
    anticommutant_dim_formula,
    bicommutant_dim_formula,
    commutant_dim_formula,
    hermitian_basis,
    kernel_anticommutant,
    kernel_bicommutant,
    kernel_commutant,
    serial_refute_biquasi_membership,
    serial_rel_q,
    spectrum_has_sign_pair,
    subspace_quasi_equals_commutant,
)

from conftest import diag, spectrum_matrix


def mixed_sample(rng, dim):
    """Gaussian or controlled-spectrum matrix; the latter exercises repeated
    eigenvalues, sign-symmetric pairs and kernels."""
    if rng.random() < 0.5:
        return random_hermitian(dim, rng)
    values = rng.choice(np.arange(-3, 4), size=dim, replace=True).astype(float)
    return spectrum_matrix(rng, dim, values)


def pair_element(a, i, j):
    """Unit Hermitian ``(v_i v_j* + v_j v_i*) / sqrt(2)`` from the
    eigenvectors i and j of ``np.linalg.eigh(a)``; it anticommutes with
    ``A`` when ``w_i + w_j = 0`` and commutes with it when ``w_i = w_j``."""
    v = np.linalg.eigh(a)[1]
    x = np.outer(v[:, i], v[:, j].conj())
    return (x + x.conj().T) / np.sqrt(2.0)


class TestHermitianBasis:
    def test_orthonormal(self):
        basis = hermitian_basis(4)
        gram = np.einsum("kij,lij->kl", basis.conj(), basis).real
        assert np.abs(gram - np.eye(16)).max() <= 1e-14

    def test_every_element_hermitian(self):
        for b in hermitian_basis(3):
            assert frobenius(b - b.conj().T) == 0.0


class TestSubspaceInvariants:
    def test_computed_subspaces_are_orthonormal_hermitian(self):
        for seed in range(8):
            a = mixed_sample(np.random.default_rng([seed, 90]), 5)
            for sub in (commutant(a), anticommutant(a), bicommutant(a),
                        _krylov_bicommutant(a)):
                k = sub.real_dimension
                assert k <= 25
                if k == 0:
                    continue
                gram = np.einsum("kij,lij->kl", sub.basis.conj(), sub.basis).real
                assert np.abs(gram - np.eye(k)).max() <= 1e-10
                for b in sub.basis:
                    assert frobenius(b - b.conj().T) <= 1e-12


class TestCommutant:
    def test_identity_has_full_commutant(self):
        assert commutant(np.eye(3, dtype=complex)).real_dimension == 9

    def test_distinct_diagonal(self):
        assert commutant(diag(1, 2, 3)).real_dimension == 3

    def test_repeated_diagonal_block_structure(self):
        assert commutant(diag(1, 1, 2)).real_dimension == 5

    def test_contains_identity_and_argument(self):
        for seed in range(10):
            a = mixed_sample(np.random.default_rng([seed, 0]), 4)
            sub = commutant(a)
            assert sub.residual(np.eye(4, dtype=complex)) <= 1e-10
            assert sub.residual(a) <= 1e-10

    def test_zero_matrix_degenerate_case(self):
        zero = np.zeros((3, 3), dtype=complex)
        assert commutant(zero).real_dimension == 9
        assert anticommutant(zero).real_dimension == 9
        assert quasi_equals_commutant(zero)

    def test_conjugated_scalar_is_full_commutant(self):
        # V (c I) V* carries float noise; the kernel cut must not read the
        # noise as structure
        v = random_unitary(3, 99)
        a = (v * np.full(3, -3.0)) @ v.conj().T
        a = (a + a.conj().T) / 2.0
        assert commutant(a).real_dimension == 9
        assert bicommutant(a).real_dimension == 1
        assert anticommutant(a).real_dimension == 0


class TestAnticommutant:
    def test_sign_pair(self):
        assert anticommutant(diag(1, -1)).real_dimension == 2

    def test_identity_zero_anticommutant(self):
        assert anticommutant(np.eye(3, dtype=complex)).real_dimension == 0

    def test_pair_with_spectator(self):
        assert anticommutant(diag(1, -1, 2)).real_dimension == 2

    def test_kernel_block(self):
        # values {0, 0, 2}: only the kernel block anticommutes
        assert anticommutant(diag(0, 0, 2)).real_dimension == 4


class TestBicommutant:
    def test_distinct_count(self):
        assert bicommutant(diag(1, 2, 3)).real_dimension == 3
        assert bicommutant(diag(1, 1, 2)).real_dimension == 2
        assert bicommutant(2.0 * np.eye(3, dtype=complex)).real_dimension == 1

    def test_argument_inside_and_below_commutant(self):
        for seed in range(8):
            a = mixed_sample(np.random.default_rng([seed, 1]), 4)
            bic = bicommutant(a)
            assert bic.residual(a) <= 1e-9
            assert subspace_leq(bic, commutant(a))

    def test_spectral_span_oracle(self):
        # the bicommutant equals the span of the spectral projections
        from commutant_lab import spectral_decompose

        for seed in range(8):
            a = mixed_sample(np.random.default_rng([seed, 2]), 5)
            sd = spectral_decompose(a)
            bic = bicommutant(a)
            assert bic.real_dimension == sd.count
            for p in sd.projections:
                assert bic.residual(p) <= 1e-8

    def test_krylov_oracle_keeps_at_most_n_elements(self):
        # Cayley-Hamilton caps the algebra at n dimensions.  With a close
        # pair in a spread-out spectrum, roundoff can keep the residual
        # above the cut after n steps: without the cap one of these draws
        # (n = 16) ran to 255 elements.
        for seed in range(40):
            rng = np.random.default_rng([seed, 12])
            n = int(rng.integers(2, 17))
            values = rng.uniform(-3, 3, size=n)
            values[-1] = values[0] * (1 + 10 ** rng.uniform(-12, -4))
            a = spectrum_matrix(rng, n, values)
            assert _krylov_bicommutant(a).real_dimension <= n, seed
        assert _krylov_bicommutant(np.zeros((3, 3), dtype=complex)).real_dimension == 1
        assert _krylov_bicommutant(diag(2.0)).real_dimension == 1


class TestDimensionFormulas:
    """Eigenbasis route and spectral formulas agree on random matrices."""

    @pytest.mark.parametrize("dim", [3, 4, 6, 8])
    def test_agreement(self, dim):
        for seed in range(12):
            a = mixed_sample(np.random.default_rng([seed, dim]), dim)
            assert commutant(a).real_dimension == commutant_dim_formula(a)
            assert anticommutant(a).real_dimension == anticommutant_dim_formula(a)
            assert bicommutant(a).real_dimension == bicommutant_dim_formula(a)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dimensions_invariant_under_unitary_and_antiunitary_conjugation(values, seed):
    """Integer spectra keep every eigenvalue gap far from the cut, so the
    real dimensions of all three subspaces and the quasi decision must
    survive ``A -> U A U*`` and entrywise conjugation ``A -> conj(A)``."""
    dim = len(values)
    a = spectrum_matrix(np.random.default_rng([seed, 0]), dim, values)
    u = random_unitary(dim, [seed, 1])
    rotated = u @ a @ u.conj().T
    for image in ((rotated + rotated.conj().T) / 2.0, a.conj()):
        for solver in (commutant, anticommutant, bicommutant):
            assert solver(image).real_dimension == solver(a).real_dimension, solver.__name__
        assert quasi_equals_commutant(image) == quasi_equals_commutant(a)


class TestGapSweep:
    """One eigenvalue gap swept from 1e-12 to 1e-5 (relative), with a
    +-lam pair and a near-zero eigenvalue present.

    ``rank_cut`` applies to eigenvalue differences (commutant, bicommutant)
    and sums (anticommutant): below the cut the two eigenvalues are joined,
    above it they are kept apart.  For gaps of about 5e-10 to 3e-6 the SVD
    null vectors of the kernel oracles are off by about eps |A| / gap, more
    than ``rel_zero``, so there the oracles and the eigenbasis route give
    different subspaces (see ``kernel_bicommutant``).

    The Krylov oracle stops at a residual of ``eps max(1, |A|_F) /
    rel_zero``; here the pair leaves a last residual of about 0.29 gap
    |A|_F, so the oracle joins the pair up to a gap of about 7.5e-7.
    Inside ``KRYLOV_WINDOW`` it returns one dimension fewer than the
    eigenbasis route, outside it the same subspace.  On a grid of 57 gaps
    it returned 5 dimensions against the eigenbasis route's 6 from 5.6e-10
    to 7.5e-7, and agreed at every other gap.
    """

    LAM = 1.3
    GAPS = np.logspace(-12, -5, 15)
    WINDOW = (4e-10, 5e-6)
    KRYLOV_WINDOW = (4e-10, 8e-7)

    def values(self, gap):
        return np.array([-self.LAM, self.LAM, self.LAM * (1.0 + gap), 1e-13, 2.1, -3.4])

    def matrix(self, gap):
        return spectrum_matrix(np.random.default_rng(77), 6, self.values(gap))

    def test_dimensions_follow_the_rank_cut(self, tol):
        for gap in self.GAPS:
            values = self.values(gap)
            scale = max(1.0, np.linalg.norm(values))
            diff_cut = tol.rank_cut * max(np.ptp(values), scale)
            sum_cut = tol.rank_cut * max(2.0 * np.abs(values).max(), scale)
            joined, anti_joined = gap * self.LAM <= diff_cut, gap * self.LAM <= sum_cut
            a = self.matrix(gap)
            # joined: one 2x2 block (4 + 4 singles) and 5 runs; apart: 6
            # singles and 6 runs.  -lam pairs with each eigenvalue joined to
            # lam (2 each) and the near-zero value anticommutes alone (1).
            assert commutant(a).real_dimension == (8 if joined else 6), gap
            assert bicommutant(a).real_dimension == (5 if joined else 6), gap
            assert anticommutant(a).real_dimension == (5 if anti_joined else 3), gap

    def test_routes_agree_outside_the_window(self):
        lo, hi = self.WINDOW
        for gap in self.GAPS[(self.GAPS < lo) | (self.GAPS > hi)]:
            a = self.matrix(gap)
            assert subspace_eq(commutant(a), kernel_commutant(a)), gap
            assert subspace_eq(anticommutant(a), kernel_anticommutant(a)), gap
            assert subspace_eq(bicommutant(a), kernel_bicommutant(a)), gap

    def test_krylov_oracle_window(self):
        lo, hi = self.KRYLOV_WINDOW
        for gap in self.GAPS:
            a = self.matrix(gap)
            krylov, fast = _krylov_bicommutant(a), bicommutant(a)
            assert all(rel_c(a, b) for b in krylov.basis), gap
            if lo < gap < hi:
                assert krylov.real_dimension == fast.real_dimension - 1 == 5, gap
            else:
                assert krylov.real_dimension == fast.real_dimension, gap
                assert subspace_eq(krylov, fast), gap

    def test_eigenbasis_elements_satisfy_the_relation(self):
        # the only guarantee inside the window, and it holds at every gap
        for gap in self.GAPS:
            a = self.matrix(gap)
            assert all(rel_c(a, b) for b in commutant(a).basis), gap
            assert all(rel_c(a, b) for b in bicommutant(a).basis), gap
            assert all(rel_j(a, b) for b in anticommutant(a).basis), gap


class TestQuasiGapSweep:
    """The quasi decision swept across its cuts: one eigenvalue pair of
    each spectrum moves by ``delta`` from 1e-12 to 1e-6, conjugated by a
    fixed Haar unitary.

    ``quasi_equals_commutant`` reads one pair rule: a pair lies in the
    anticommutant mask (``|w_a + w_b|`` at or below its ``rank_cut`` cut)
    and outside the commutant mask (``|w_a - w_b|`` above its cut).  The
    swept pair is the two lowest eigenvalues of both spectra, so its
    element, the partner, is ``pair_element(a, 0, 1)``, from ``eigh``.

    * (0, delta, 5, 5.0001): the pair (0, delta) leaves the commutant at a
      difference cut of about 7.1e-10 and the anticommutant at a sum cut
      of about 1.0e-9, so a partner exists only in between.  There
      ``|[A, B]|_F = delta`` is below ``rel_zero |A|_F`` (7.1e-9), so
      ``rel_c`` still reads the partner as commuting: ``PARTNER_COMMUTES``.
    * (lam, -lam + delta, 2): the pair anticommutes up to a sum cut of
      4e-10 and never commutes, so its partner passes ``rel_j`` only.
    """

    LAM = 1.3
    DELTAS = np.sort(np.concatenate([np.geomspace(1.2e-12, 1.2e-6, 19), [8e-10, 9e-10]]))
    PARTNER_COMMUTES = (7e-10, 1.01e-9)

    def spectra(self, delta):
        return ([0.0, delta, 5.0, 5.0001], [self.LAM, -self.LAM + delta, 2.0])

    def matrices(self, delta):
        for values in self.spectra(delta):
            u = random_unitary(len(values), 77)
            m = (u * np.asarray(values)) @ u.conj().T
            yield np.asarray(values), (m + m.conj().T) / 2.0

    @staticmethod
    def cuts(values, tol):
        """The commutant (difference) and anticommutant (sum) cuts."""
        scale = max(1.0, np.linalg.norm(values))
        return (tol.rank_cut * max(np.ptp(values), scale),
                tol.rank_cut * max(2.0 * np.abs(values).max(), scale))

    def test_partner_exists_exactly_when_the_decision_is_false(self, tol):
        """The pair element is a partner on the cuts, its anticommutator at
        or below the sum cut and its commutator above the difference cut,
        exactly where the decision is false."""
        for delta in self.DELTAS:
            for values, a in self.matrices(delta):
                diff_cut, sum_cut = self.cuts(values, tol)
                b = pair_element(a, 0, 1)
                partnered = (frobenius(a @ b + b @ a) <= sum_cut
                             and frobenius(a @ b - b @ a) > diff_cut)
                assert quasi_equals_commutant(a) == (not partnered), delta

    def test_decision_matches_the_subspace_route(self):
        for delta in self.DELTAS:
            for _, a in self.matrices(delta):
                assert quasi_equals_commutant(a) == subspace_quasi_equals_commutant(a), delta

    def test_decision_follows_the_pair_cuts(self, tol):
        for delta in self.DELTAS:
            for values, a in self.matrices(delta):
                diff_cut, sum_cut = self.cuts(values, tol)
                pair_sum, pair_diff = abs(values[0] + values[1]), abs(values[1] - values[0])
                partnered = pair_sum <= sum_cut and pair_diff > diff_cut
                assert quasi_equals_commutant(a) == (not partnered), delta

    def test_partner_commutes_only_inside_the_window(self):
        lo, hi = self.PARTNER_COMMUTES
        assert any(lo < delta < hi for delta in self.DELTAS)
        for delta in self.DELTAS:
            (_, first), (_, second) = self.matrices(delta)
            for a, window in ((first, (lo, hi)), (second, (0.0, 0.0))):
                if quasi_equals_commutant(a):
                    continue
                b = pair_element(a, 0, 1)
                assert abs(frobenius(b) - 1.0) <= 1e-12
                assert frobenius(b - b.conj().T) == 0.0
                assert rel_j(a, b), delta
                assert rel_c(a, b) == (window[0] < delta < window[1]), delta


# The pair sums d of the quasi window (tests/test_preservers.py::TestQuasiWindow).
QUASI_WINDOW_D = (6e-10, 1e-9, 1.2e-9, 2.5e-9)


def pair_cut_stack(n):
    """A stack of size-n matrices on both sides of every pair cut: zero, a
    scalar, one pair (1.3, -1.3 + d) swept across the cuts (the gap sweep's
    deltas and every quasi-window d) above a fixed rest of the spectrum in
    the basis ``random_unitary(n, 77)``, which at n = 3 gives the window's
    matrices themselves, and random matrices of norms 1e-3 to 1e3."""
    v = random_unitary(n, 77)
    stack = [np.zeros((n, n), dtype=complex), 2.5 * np.eye(n, dtype=complex)]
    for d in (*TestQuasiGapSweep.DELTAS, *QUASI_WINDOW_D):
        m = (v * np.array([1.3, -1.3 + d, 2.0, *np.linspace(2.5, 4.0, n - 3)])) @ v.conj().T
        stack.append((m + m.conj().T) / 2.0)
    stack += [random_hermitian(n, [45, n, t]) * 10.0 ** (t % 7 - 3) for t in range(11)]
    return np.array(stack)


@pytest.mark.parametrize("n", [3, 8, 9, 16])
def test_pair_masks_of_a_stack_match_its_slices(n, tol):
    """Each slice of a stacked eigen-pair decision, at every leading shape,
    equals bit for bit the decision on that matrix alone."""
    stack = pair_cut_stack(n)
    alone = [_pair_masks(a, tol) for a in stack]
    for a, (w, _, *masks) in zip(stack, alone):  # the cuts of the frobenius norm
        for got, want in zip(masks, _cut_masks(w, frobenius(a), tol), strict=True):
            assert got.tobytes() == want.tobytes()
    held = [quasi_equals_commutant(a, tol) for a in stack]
    assert all(type(h) is bool for h in held) and True in held and False in held
    for x in (stack, stack.reshape(2, -1, n, n)):
        masks = [m.reshape(len(stack), *m.shape[x.ndim - 2:]) for m in _pair_masks(x, tol)]
        for i, one in enumerate(alone):
            for got, want in zip(masks, one, strict=True):
                assert got[i].tobytes() == np.asarray(want).tobytes(), (n, i)
        got = quasi_equals_commutant(x, tol)
        assert got.shape == x.shape[:-2] and got.dtype == bool
        assert list(got.ravel()) == held


class TestSubspaceComparison:
    def test_reflexive(self):
        s = commutant(diag(1, 2, 3))
        assert subspace_leq(s, s)
        assert subspace_eq(s, s)
        assert not subspace_proper_lt(s, s)

    def test_proper_containment_of_diagonal_spans(self):
        small = bicommutant(diag(1, 1, 2))
        large = bicommutant(diag(1, 2, 3))
        assert subspace_leq(small, large)
        assert subspace_proper_lt(small, large)
        assert not subspace_leq(large, small)

    def test_dimension_two_not_inside_scalars(self):
        scalars = MatrixSubspace(np.eye(2, dtype=complex)[None, :, :] / np.sqrt(2))
        assert not subspace_leq(commutant(diag(1, 2)), scalars)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            subspace_leq(commutant(diag(1, 2)), commutant(diag(1, 2, 3)))


class TestQuasiCommutant:
    def test_identity_parts(self):
        qc = quasi_commutant(np.eye(3, dtype=complex))
        assert qc.commutant_part.real_dimension == 9
        assert qc.anticommutant_part.real_dimension == 0

    def test_distinct_diagonal_parts(self):
        qc = quasi_commutant(diag(1, 2, 3))
        assert (qc.commutant_part.real_dimension,
                qc.anticommutant_part.real_dimension) == (3, 0)

    def test_sign_pair_parts(self):
        qc = quasi_commutant(diag(1, -1))
        assert (qc.commutant_part.real_dimension,
                qc.anticommutant_part.real_dimension) == (2, 2)

    def test_commutant_part_contains_identity(self):
        for seed in range(6):
            a = mixed_sample(np.random.default_rng([seed, 3]), 4)
            qc = quasi_commutant(a)
            assert qc.commutant_part.residual(np.eye(4, dtype=complex)) <= 1e-10

    def test_membership_is_union_not_span(self):
        a = diag(1, -1)
        qc = quasi_commutant(a)
        commuting = diag(2, 5)
        anti = np.array([[0, 1], [1, 0]], dtype=complex)
        assert qc.contains(commuting)
        assert qc.contains(anti)
        # the sum lies in neither part although both summands are members
        assert not qc.contains(commuting + anti)


class TestQuasiEqualsCommutant:
    def test_examples(self):
        assert quasi_equals_commutant(diag(1, 2, 3))
        assert not quasi_equals_commutant(diag(1, -1, 2))
        assert quasi_equals_commutant(diag(0, 0, 2))

    def test_spectral_oracle_agreement(self):
        for seed in range(40):
            rng = np.random.default_rng([seed, 4])
            a = mixed_sample(rng, int(rng.integers(3, 7)))
            assert quasi_equals_commutant(a) == (not spectrum_has_sign_pair(a))

    def test_partner_existence_matches_predicate(self):
        """``eigh`` finds an eigenvalue pair of opposite sign, whose element
        anticommutes with A and does not commute with it, exactly where the
        decision is false."""
        for seed in range(40):
            rng = np.random.default_rng([seed, 5])
            a = mixed_sample(rng, int(rng.integers(3, 7)))
            w = np.linalg.eigvalsh(a)
            pairs = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))
                     if abs(w[i] + w[j]) <= 1e-6 < abs(w[i] - w[j])]
            assert (not pairs) == quasi_equals_commutant(a)
            for i, j in pairs:
                b = pair_element(a, i, j)
                assert abs(frobenius(b) - 1.0) <= 1e-9
                assert rel_j(a, b) and not rel_c(a, b)


def refute_one(x, a, **kwargs):
    """``refute_biquasi_membership`` of the one-target stack ``[x]``."""
    [witness] = refute_biquasi_membership(x[None], a, **kwargs)
    return witness


class TestRefutation:
    def test_members_unrefuted(self):
        a = diag(1, 2, 3)
        assert refute_biquasi_membership(np.array([a, np.eye(3)]), a, seed=1) == [None, None]

    def test_outsider_refuted_with_valid_witness(self):
        a = diag(1, 1, 2)
        x = diag(1, 2, 3)  # commutes with a but is outside its bicommutant
        witness = refute_one(x, a, seed=2)
        assert witness is not None
        assert quasi_commutant(a).contains(witness)
        assert not rel_q(x, witness)

    def test_random_outsiders_all_refuted(self):
        for seed in range(15):
            rng = np.random.default_rng([seed, 6])
            dim = int(rng.integers(3, 6))
            a = random_hermitian(dim, rng)
            bic = bicommutant(a)
            x = random_hermitian(dim, rng)
            if bic.residual(x) <= 1e-6 * max(1.0, frobenius(x)):
                continue
            assert refute_one(x, a, seed=seed) is not None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^budget must be nonnegative, got -3$"):
            refute_one(diag(1, 2, 3), diag(1, 1, 2), budget=-3)

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), -1, True, 1.0])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got "):
            refute_one(diag(1, 2, 3), diag(1, 1, 2), seed=seed)

    def test_zero_budget_searches_the_fixed_candidates_only(self):
        # basis and shifted candidates alone refute this outsider
        assert refute_one(diag(1, 2, 3), diag(1, 1, 2), budget=0) is not None

    def test_shifted_candidates_catch_anticommuting_members(self):
        # X anticommutes with a commutant element M: only lam I + M separates
        a = diag(1, -1)
        x = np.array([[0, 1], [1, 0]], dtype=complex)  # in the anticommutant part
        witness = refute_one(x, a, seed=3)
        assert witness is not None
        assert not rel_q(x, witness)


def same_witness(got, expected) -> bool:
    """Both ``None``, or byte-equal matrices."""
    if got is None or expected is None:
        return got is None and expected is None
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def refuted_as_serial(targets, a, **kwargs) -> list:
    """``refute_biquasi_membership`` of the stack ``targets``, once each
    entry is checked byte-equal to ``serial_refute_biquasi_membership`` on
    that target alone."""
    got = refute_biquasi_membership(np.array(targets), a, **kwargs)
    assert isinstance(got, list) and len(got) == len(targets)
    for x, witness in zip(targets, got, strict=True):
        assert same_witness(witness, serial_refute_biquasi_membership(x, a, **kwargs))
    return got


def fixed_pool_size(qc) -> int:
    """Both bases and three shifted copies of each commutant basis element."""
    return 4 * qc.commutant_part.real_dimension + qc.anticommutant_part.real_dimension


class TestStackedRefutation:
    """``refute_biquasi_membership`` against the serial oracle
    ``serial_refute_biquasi_membership``."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 8, 16])  # 16: chunks of 64
    def test_members_and_outsiders_match_serial(self, dim):
        outcomes = set()
        for seed in range(6):
            rng = np.random.default_rng([seed, dim, 40])
            a = mixed_sample(rng, dim)
            bic = bicommutant(a)
            targets = [random_hermitian(dim, rng), np.eye(dim, dtype=complex), a,
                       bic.random_element(rng)]
            outcomes |= {w is None for w in refuted_as_serial(targets, a, budget=8, seed=seed)}
        assert outcomes == {True, False}

    def test_empty_anticommutant(self):
        a = diag(1, 2, 3)
        assert quasi_commutant(a).anticommutant_part.real_dimension == 0
        targets = [diag(4, -1, 2), random_hermitian(3, 41), random_hermitian(3, 42)]
        refuted_as_serial(targets, a, budget=16, seed=3)
        assert refute_one(random_hermitian(3, 41), a, budget=16) is not None

    def test_zero_budget(self):
        for x, a in ((diag(1, 2, 3), diag(1, 1, 2)), (diag(1, -1, 5), diag(1, -1, 0)),
                     (diag(2, 3, 3), diag(1, 1, 2))):
            refuted_as_serial([x], a, budget=0)

    # X commutes with the commutant and with the kernel projection of A, and
    # anticommutes with the off-diagonal anticommutant elements; only a
    # random combination of the anticommutant's basis breaks it.
    RANDOM_PART = {
        "one chunk": (diag(1, -1, 0), diag(1, -1, 5)),
        "past two chunks": (diag(1, 1, 1, 1, 1, -1, -1, -1, -1, -1, 0, 0),
                            diag(1, 1, 1, 1, 1, -1, -1, -1, -1, -1, 5, 5)),
    }

    @pytest.mark.parametrize("name", list(RANDOM_PART))
    def test_witness_from_the_random_part(self, name):
        a, x = self.RANDOM_PART[name]
        assert refute_one(x, a, budget=0) is None
        for seed in range(4):
            [witness] = refuted_as_serial([x], a, budget=16, seed=seed)
            assert witness is not None

    def test_pool_longer_than_one_chunk(self):
        a, x = self.RANDOM_PART["past two chunks"]
        # after the first candidate, chunks of _stack_depth(12) = 113; the
        # fixed pool of 270 fills two of them, and the random part starts
        # in the fourth chunk
        assert fixed_pool_size(quasi_commutant(a)) > 1 + 2 * _stack_depth(12)
        members = [a, np.eye(12, dtype=complex), -2.5 * a]
        assert all(w is None for w in refuted_as_serial(members, a, budget=16, seed=1))


class TestRefutationOfAStack:
    """A stack of targets shares one pool; each entry is the single-target
    search's result."""

    @staticmethod
    def cases(n):
        """An operator with both parts nonzero (a sign pair) and targets:
        outsiders and members, interleaved."""
        rng = np.random.default_rng([n, 46])
        values = np.concatenate([[1.0, -1.0], rng.choice(np.arange(2, 6), size=n - 2)])
        a = spectrum_matrix(rng, n, values)
        bic = bicommutant(a)
        targets = [random_hermitian(n, rng), np.eye(n, dtype=complex), a,
                   random_hermitian(n, rng), bic.random_element(rng), -2.5 * a]
        return a, targets

    @pytest.mark.parametrize("n", [3, 32])
    @pytest.mark.parametrize("budget", [0, 8])
    def test_each_entry_is_the_single_target_result(self, n, budget):
        a, targets = self.cases(n)
        assert quasi_commutant(a).anticommutant_part.real_dimension > 0
        got = refuted_as_serial(targets, a, budget=budget, seed=5)
        for x, witness in zip(targets, got, strict=True):
            assert same_witness(witness, refute_one(x, a, budget=budget, seed=5))
        assert {w is None for w in got} == {True, False}

    def test_empty_stack_and_shape_checks(self):
        a = diag(1, 2, 3)
        assert refute_biquasi_membership(np.zeros((0, 3, 3)), a) == []
        for x in (np.zeros((3, 3)), np.zeros((2, 4, 4)), np.zeros((1, 2, 3, 3))):
            with pytest.raises(ValueError, match=r"^dimension mismatch: expected targets of "
                                                 r"shape \(k, 3, 3\), got "):
                refute_biquasi_membership(x, a)

    def test_parameters(self):
        parameters = inspect.signature(refute_biquasi_membership).parameters
        assert list(parameters) == ["x", "a", "budget", "seed", "tol"]

    def test_lemma_7_witnesses_break_their_outsiders(self, monkeypatch):
        """``suite_lemma_7`` checks only that a witness lies in the
        quasi-commutant; that it neither commutes nor anticommutes with its
        outsider is decided here, by ``serial_rel_q``, for every witness of
        a seed-0 run."""
        searches = []

        def recorded(x, a, **kwargs):
            searches.append((x, refute_biquasi_membership(x, a, **kwargs)))
            return searches[-1][1]

        monkeypatch.setattr(suites, "refute_biquasi_membership", recorded)
        result = suites.suite_lemma_7(seed=0)
        assert result["passed"]
        pairs = [(x, witness) for targets, witnesses in searches
                 for x, witness in zip(targets, witnesses, strict=True) if witness is not None]
        assert len(pairs) == result["details"]["outsiders_refuted"] > 0
        assert not any(serial_rel_q(x, witness) for x, witness in pairs)


class TestPairMaskCache:
    """Single matrices' pair masks are kept, read-only, for the current command."""

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("rank_cut", [1e-10, 0.05])
    def test_cached_arrays_are_read_only_and_equal_an_uncached_call(self, n, rank_cut):
        tol = Tolerance(rank_cut=rank_cut)
        a = spectrum_matrix(np.random.default_rng([n, 49]), n, [1, -1, *range(n - 2)])
        _cached_masks.cache_clear()
        first = _pair_masks(a, tol)
        assert _pair_masks(a.copy(), tol) is first  # keyed by the bytes, not the object
        fresh = _decompose(a, tol)
        stacked = _pair_masks(a[None], tol)  # stacks bypass the cache
        info = _cached_masks.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        for got, want, slices in zip(first, fresh, stacked, strict=True):
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())
            assert got.tobytes() == np.asarray(slices)[0].tobytes()
        for array in first[:4]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_keyed_by_tolerance_and_bounded(self):
        a = diag(1, 2, 3)
        _cached_masks.cache_clear()
        assert _pair_masks(a, Tolerance(rank_cut=0.5)) is not _pair_masks(a, Tolerance())
        assert _cached_masks.cache_info().currsize == 2
        kept = _pair_masks(a, Tolerance())
        size = _cached_masks.cache_info().maxsize
        assert size == 16
        for k in range(2 * size):
            _pair_masks(diag(1, 2, 4 + k), Tolerance())
            _pair_masks(a, Tolerance())  # used last, so never the one evicted
        assert _cached_masks.cache_info().currsize == size
        assert _pair_masks(a, Tolerance()) is kept


class TestScalarWitness:
    def test_scalar_input_has_no_witness(self):
        assert scalar_witness(3.0 * np.eye(4, dtype=complex)) is None
        assert scalar_witness(np.zeros((3, 3), dtype=complex)) is None

    def test_nonscalar_inputs_yield_witnesses(self):
        for seed in range(25):
            rng = np.random.default_rng([seed, 7])
            dim = int(rng.integers(3, 7))
            a = mixed_sample(rng, dim)
            if is_scalar(a):
                continue
            b = scalar_witness(a, seed=seed)
            assert b is not None
            assert not rel_q(b - a, b)

    def test_loose_tolerance_exhausts_the_search(self):
        # nonscalar at rel_zero 0.9, but every sampled T then passes rel_c
        loose = Tolerance(rel_zero=0.9)
        a = diag(1, -1, 0.5)
        assert not is_scalar(a, loose)
        with pytest.raises(SearchExhausted, match="no scalar witness"):
            scalar_witness(a, tol=loose)
        assert issubclass(SearchExhausted, RuntimeError)

    def test_full_commutant_characterizes_scalars(self):
        for seed in range(10):
            a = random_hermitian(4, [seed, 8])
            assert commutant(a).real_dimension < 16
        assert commutant(1.5 * np.eye(4, dtype=complex)).real_dimension == 16


def test_package_attribute_commutant_is_the_function_not_the_module():
    """The package re-exports the function ``commutant`` under the name of
    its submodule, so attribute access, ``from ... import`` and
    ``import ... as`` all give the function; ``importlib.import_module`` and
    ``sys.modules`` give the module."""
    import commutant_lab
    import commutant_lab.commutant as via_import
    from commutant_lab import commutant as via_from

    module = importlib.import_module("commutant_lab.commutant")
    assert module is sys.modules["commutant_lab.commutant"]
    assert hasattr(module, "MatrixSubspace")
    assert commutant_lab.commutant is via_import is via_from is commutant
    assert not hasattr(commutant, "MatrixSubspace")
