"""Commutant engine: the eigenbasis route against the kernel-solver, Krylov
and spectral-formula oracles, subspace comparison, refutation search, witness
constructions."""

import importlib
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
    noncommuting_anticommuting_partner,
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
from commutant_lab.commutant import _krylov_bicommutant
from oracles import (
    anticommutant_dim_formula,
    bicommutant_dim_formula,
    commutant_dim_formula,
    hermitian_basis,
    kernel_anticommutant,
    kernel_bicommutant,
    kernel_commutant,
    spectrum_has_sign_pair,
    subspace_quasi_equals_commutant,
)

from conftest import diag


def spectrum_matrix(rng, dim, values):
    v = random_unitary(dim, rng)
    m = (v * np.asarray(values, dtype=float)) @ v.conj().T
    return (m + m.conj().T) / 2.0


def mixed_sample(rng, dim):
    """Gaussian or controlled-spectrum matrix; the latter exercises repeated
    eigenvalues, sign-symmetric pairs and kernels."""
    if rng.random() < 0.5:
        return random_hermitian(dim, rng)
    values = rng.choice(np.arange(-3, 4), size=dim, replace=True).astype(float)
    return spectrum_matrix(rng, dim, values)


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

    ``quasi_equals_commutant`` and ``noncommuting_anticommuting_partner``
    read one pair rule: a pair lies in the anticommutant mask (``|w_a +
    w_b|`` at or below its ``rank_cut`` cut) and outside the commutant mask
    (``|w_a - w_b|`` above its cut).

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

    def test_partner_exists_exactly_when_the_decision_is_false(self):
        for delta in self.DELTAS:
            for _, a in self.matrices(delta):
                assert (noncommuting_anticommuting_partner(a) is None) == \
                    quasi_equals_commutant(a), delta

    def test_decision_matches_the_subspace_route(self):
        for delta in self.DELTAS:
            for _, a in self.matrices(delta):
                assert quasi_equals_commutant(a) == subspace_quasi_equals_commutant(a), delta

    def test_decision_follows_the_pair_cuts(self, tol):
        for delta in self.DELTAS:
            for values, a in self.matrices(delta):
                scale = max(1.0, np.linalg.norm(values))
                diff_cut = tol.rank_cut * max(np.ptp(values), scale)
                sum_cut = tol.rank_cut * max(2.0 * np.abs(values).max(), scale)
                pair_sum, pair_diff = abs(values[0] + values[1]), abs(values[1] - values[0])
                partnered = pair_sum <= sum_cut and pair_diff > diff_cut
                assert quasi_equals_commutant(a) == (not partnered), delta

    def test_partner_commutes_only_inside_the_window(self):
        lo, hi = self.PARTNER_COMMUTES
        assert any(lo < delta < hi for delta in self.DELTAS)
        for delta in self.DELTAS:
            (_, first), (_, second) = self.matrices(delta)
            for a, window in ((first, (lo, hi)), (second, (0.0, 0.0))):
                b = noncommuting_anticommuting_partner(a)
                if b is None:
                    continue
                assert abs(frobenius(b) - 1.0) <= 1e-12
                assert frobenius(b - b.conj().T) == 0.0
                assert rel_j(a, b), delta
                assert rel_c(a, b) == (window[0] < delta < window[1]), delta


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
        scalars = MatrixSubspace(dim=2, basis=np.eye(2, dtype=complex)[None, :, :] / np.sqrt(2))
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
        for seed in range(40):
            rng = np.random.default_rng([seed, 5])
            a = mixed_sample(rng, int(rng.integers(3, 7)))
            partner = noncommuting_anticommuting_partner(a)
            assert (partner is None) == quasi_equals_commutant(a)
            if partner is not None:
                assert abs(frobenius(partner) - 1.0) <= 1e-9
                assert rel_j(a, partner) and not rel_c(a, partner)


class TestPartner:
    def test_explicit_pair(self):
        b = noncommuting_anticommuting_partner(diag(1, -1, 0))
        assert b is not None
        assert rel_j(diag(1, -1, 0), b)
        assert not rel_c(diag(1, -1, 0), b)

    def test_none_cases(self):
        assert noncommuting_anticommuting_partner(diag(1, 2, 3)) is None
        assert noncommuting_anticommuting_partner(np.eye(4, dtype=complex)) is None


class TestRefutation:
    def test_members_unrefuted(self):
        a = diag(1, 2, 3)
        assert refute_biquasi_membership(a, a, seed=1) is None
        assert refute_biquasi_membership(np.eye(3, dtype=complex), a, seed=1) is None

    def test_outsider_refuted_with_valid_witness(self):
        a = diag(1, 1, 2)
        x = diag(1, 2, 3)  # commutes with a but is outside its bicommutant
        qc = quasi_commutant(a)
        witness = refute_biquasi_membership(x, a, seed=2, quasi=qc)
        assert witness is not None
        assert qc.contains(witness)
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
            assert refute_biquasi_membership(x, a, seed=seed) is not None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^budget must be nonnegative, got -3$"):
            refute_biquasi_membership(diag(1, 2, 3), diag(1, 1, 2), budget=-3)

    def test_zero_budget_searches_the_fixed_candidates_only(self):
        # basis and shifted candidates alone refute this outsider
        assert refute_biquasi_membership(diag(1, 2, 3), diag(1, 1, 2), budget=0) is not None

    def test_shifted_candidates_catch_anticommuting_members(self):
        # X anticommutes with a commutant element M: only lam I + M separates
        a = diag(1, -1)
        x = np.array([[0, 1], [1, 0]], dtype=complex)  # in the anticommutant part
        witness = refute_biquasi_membership(x, a, seed=3)
        assert witness is not None
        assert not rel_q(x, witness)


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
