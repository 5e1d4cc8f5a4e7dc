"""Spectral decomposition, structure predicates, partition oracles,
primitive witnesses and the block fixtures."""

import numpy as np
import pytest

from commutant_lab import (
    Tolerance,
    bicommutant,
    build_aef,
    commutant,
    distinct_count,
    frobenius,
    has_two_point_spectrum,
    in_k,
    is_scalar,
    lemma18_minimality,
    lemma18_witness,
    lemma181_condition,
    lemma181_oracle,
    lemma_primitive_witnesses,
    quasi_equals_commutant,
    random_hermitian,
    random_projection,
    random_unitary,
    rel_c,
    rel_q,
    spectral_decompose,
    subspace_eq,
    subspace_proper_lt,
)

from conftest import diag, spectrum_matrix


class TestSpectralData:
    def test_identity(self):
        sd = spectral_decompose(np.eye(4, dtype=complex))
        assert sd.count == 1
        assert np.allclose(sd.distinct_values, [1.0])
        assert sd.multiplicities.tolist() == [4]
        assert np.allclose(sd.projections[0], np.eye(4))

    def test_exact_diagonal(self):
        sd = spectral_decompose(diag(1, 1, 2))
        assert np.allclose(sd.distinct_values, [1.0, 2.0])
        assert sd.multiplicities.tolist() == [2, 1]

    def test_invariants_on_random_matrices(self):
        for seed in range(500):
            rng = np.random.default_rng([seed, 0])
            dim = int(rng.integers(3, 17))
            if rng.random() < 0.5:
                a = random_hermitian(dim, rng)
            else:
                values = rng.choice(np.arange(-3, 4), size=dim, replace=True)
                a = spectrum_matrix(rng, dim, values)
            sd = spectral_decompose(a)
            assert int(sd.multiplicities.sum()) == dim
            total = sd.projections.sum(axis=0)
            assert frobenius(total - np.eye(dim)) <= 1e-10
            for i, p in enumerate(sd.projections):
                assert frobenius(p @ p - p) <= 1e-10
                for q in sd.projections[i + 1:]:
                    assert frobenius(p @ q) <= 1e-10
            spectral_sum = np.tensordot(sd.distinct_values, sd.projections, axes=1)
            assert frobenius(spectral_sum - a) <= 1e-8 * max(1.0, frobenius(a))
            gaps = np.diff(sd.distinct_values)
            assert np.all(gaps > _cluster_gap(a))


def _cluster_gap(a):
    """The commutant cut, at or below which eigenvalues join one cluster:
    ``rank_cut`` * max(spread, max(1, |A|_F))."""
    w = np.linalg.eigvalsh(a)
    return Tolerance().rank_cut * max(w[-1] - w[0], max(1.0, frobenius(a)))


class TestCountPredicates:
    def test_counts(self):
        assert distinct_count(3.0 * np.eye(3, dtype=complex)) == 1
        assert distinct_count(diag(1, 2, 3)) == 3
        p = random_projection(4, 2, 1)
        assert distinct_count(p) == 2
        assert has_two_point_spectrum(p)
        assert not has_two_point_spectrum(diag(1, 2, 3))


class TestProjectionDecomposition:
    """``a`` is the real combination of its spectral projections, one term
    per distinct eigenvalue."""

    def test_projection_single_term(self):
        p = random_projection(4, 2, 5)
        sd = spectral_decompose(p)
        assert sd.count == 2
        assert abs(sd.distinct_values[1] - 1.0) <= 1e-10
        assert frobenius(sd.projections[1] - p) <= 1e-10

    def test_scalar(self):
        sd = spectral_decompose(2.0 * np.eye(3, dtype=complex))
        assert sd.count == 1
        assert abs(sd.distinct_values[0] - 2.0) <= 1e-12
        assert np.allclose(sd.projections[0], np.eye(3))

    def test_distinct_diagonal_gives_rank_one_terms(self):
        sd = spectral_decompose(diag(1, 2, 3))
        assert sd.count == 3
        assert [round(c) for c in sd.distinct_values] == [1, 2, 3]
        for proj in sd.projections:
            assert abs(np.trace(proj).real - 1.0) <= 1e-10

    def test_reconstruction_and_term_bound(self):
        for seed in range(10):
            a = random_hermitian(6, [seed, 1])
            sd = spectral_decompose(a)
            assert sd.count <= 6
            total = sum(c * p for c, p in zip(sd.distinct_values, sd.projections))
            assert frobenius(total - a) <= 1e-8 * max(1.0, frobenius(a))


class TestInK:
    def test_reflection_of_rank_one(self):
        p = random_projection(3, 1, 6)
        assert in_k(np.eye(3) - 2.0 * p)

    def test_scaled_reflection(self):
        assert in_k(diag(3, -3, 3))

    def test_projection_not_in_k(self):
        assert not in_k(random_projection(4, 2, 7))

    def test_scalar_not_in_k(self):
        assert not in_k(np.eye(3, dtype=complex))


class TestLemma18:
    def test_two_point_minimal(self):
        assert lemma18_minimality(diag(1, 1, 2))
        assert lemma18_minimality(random_projection(4, 2, 9))

    def test_three_point_not_minimal_with_witness(self):
        a = diag(1, 2, 3)
        assert not lemma18_minimality(a)
        b = lemma18_witness(a)
        assert b is not None
        assert not is_scalar(b)
        # the witness is the spectral projection onto the lower values
        assert np.allclose(b, diag(1, 1, 0), atol=1e-10)
        assert subspace_proper_lt(bicommutant(b), bicommutant(a))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            lemma18_minimality(np.eye(3, dtype=complex))

    def test_witness_none_for_two_point(self):
        assert lemma18_witness(diag(1, 1, 2)) is None

    def test_equivalence_on_controlled_spectra(self):
        for seed in range(30):
            rng = np.random.default_rng([seed, 3])
            dim = int(rng.integers(3, 8))
            k = int(rng.integers(2, min(5, dim) + 1))
            values = rng.choice(np.arange(-5, 6), size=k, replace=False)
            mults = np.ones(k, dtype=int)
            for _ in range(dim - k):
                mults[rng.integers(k)] += 1
            a = spectrum_matrix(rng, dim, np.repeat(values, mults))
            assert lemma18_minimality(a) == has_two_point_spectrum(a)


class TestClusterGapSweep:
    """A = U diag(0, d, 1, 2) U*, U = ``random_unitary(4, 7)``, with the gap
    d swept over quarter decades from 1e-12 to 1e-5."""

    GAPS = np.logspace(-12, -5, 29)
    # lemma18_minimality and lemma181_oracle answer True, for four spectral
    # points, at the gaps inside this window: 3.2e-9 to 1.8e-7
    KRYLOV_WINDOW = (2e-9, 2.5e-7)

    def matrix(self, gap):
        return spectrum_matrix(7, 4, [0.0, gap, 1.0, 2.0])

    def test_clusters_are_the_bicommutant_runs(self):
        """By the double commutant theorem, dim C(C(A)) is the number of
        distinct eigenvalues, and dim C(A) the sum of their squared
        multiplicities."""
        for gap in self.GAPS:
            a = self.matrix(gap)
            sd = spectral_decompose(a)
            assert distinct_count(a) == bicommutant(a).real_dimension, gap
            assert commutant(a).real_dimension == int(np.sum(sd.multiplicities ** 2)), gap

    def test_a_chain_of_gaps_under_the_cut_is_one_run(self):
        """On diag(0, 0.8c, 1.6c, 1), c = 1e-10 the commutant cut, both gaps
        of the chain are under the cut and its ends are not: the three
        points are one run, in the commutant as in the clusters."""
        c = 1e-10
        a = diag(0, 0.8 * c, 1.6 * c, 1)
        assert _cluster_gap(a) == c
        sd = spectral_decompose(a)
        assert sd.multiplicities.tolist() == [3, 1]
        assert commutant(a).real_dimension == int(np.sum(sd.multiplicities ** 2)) == 10
        assert distinct_count(a) == bicommutant(a).real_dimension == 2

    def test_partition_oracles_inside_the_krylov_window(self):
        """The Krylov bicommutant joins 0 and d up to a relative gap of about
        7.5e-7, the clusters only up to the commutant cut; once d is also
        too large for a merge to pass the containment test at ``rel_zero``,
        the oracles find no smaller second commutant and answer True,
        although the lemma holds only for two-point spectra."""
        lo, hi = self.KRYLOV_WINDOW
        for gap in self.GAPS:
            a = self.matrix(gap)
            assert not has_two_point_spectrum(a), gap
            assert lemma18_minimality(a) == (lo < gap < hi), gap
            if quasi_equals_commutant(a):
                assert lemma181_oracle(a) == (lo < gap < hi), gap
                assert not lemma181_condition(a), gap


class TestLemma181:
    def test_values(self):
        assert lemma181_condition(random_projection(4, 2, 10))
        assert lemma181_condition(diag(1, 1, 2))
        assert not lemma181_condition(diag(1, 2, 3))

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="scalar"):
            lemma181_condition(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="precondition"):
            lemma181_condition(diag(1, -1, 2))

    def test_oracle_equivalence(self):
        for seed in range(25):
            rng = np.random.default_rng([seed, 4])
            dim = int(rng.integers(3, 8))
            k = int(rng.integers(2, min(5, dim) + 1))
            values = rng.choice(np.arange(0, 9), size=k, replace=False)
            mults = np.ones(k, dtype=int)
            for _ in range(dim - k):
                mults[rng.integers(k)] += 1
            a = spectrum_matrix(rng, dim, np.repeat(values, mults))
            assert lemma181_condition(a) == lemma181_oracle(a)


class TestPrimitiveWitnesses:
    def test_reference_chain_dim4(self):
        p = random_projection(4, 2, 11)
        b, c = lemma_primitive_witnesses(p, 1.0)
        a = p.astype(complex)
        assert distinct_count(b) == 2
        assert rel_c(a, b)
        assert not subspace_eq(commutant(b), commutant(a))
        chain = (bicommutant(a), bicommutant(c), bicommutant(a - b))
        assert tuple(s.real_dimension for s in chain) == (2, 3, 4)
        assert subspace_proper_lt(chain[0], chain[1])
        assert subspace_proper_lt(chain[1], chain[2])

    @pytest.mark.parametrize("dim,rank", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_chain_across_dims(self, dim, rank):
        p = random_projection(dim, rank, [12, dim, rank])
        alpha, beta = -1.5, 0.5
        a = alpha * p + beta * np.eye(dim)
        b, c = lemma_primitive_witnesses(p, alpha)
        chain = (bicommutant(a), bicommutant(c), bicommutant(a - b))
        assert tuple(s.real_dimension for s in chain) == (2, 3, 4)
        assert subspace_proper_lt(chain[0], chain[1])
        assert subspace_proper_lt(chain[1], chain[2])

    def test_quasi_side_conditions(self):
        p = random_projection(5, 2, 13)
        alpha, beta = 1.0, 0.0
        a = alpha * p + beta * np.eye(5)
        b, c = lemma_primitive_witnesses(p, alpha)
        for m in (a, b, c, a - b):
            assert quasi_equals_commutant(m)
        assert rel_q(a, b)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="rank"):
            lemma_primitive_witnesses(random_projection(4, 1, 14), 1.0)
        with pytest.raises(ValueError, match="rank"):
            lemma_primitive_witnesses(random_projection(4, 3, 14), 1.0)
        with pytest.raises(ValueError, match="at least 4"):
            lemma_primitive_witnesses(random_projection(3, 2, 14), 1.0)
        with pytest.raises(ValueError, match="nonzero"):
            lemma_primitive_witnesses(random_projection(4, 2, 14), 0.0)
        with pytest.raises(ValueError, match="projection"):
            lemma_primitive_witnesses(random_hermitian(4, 15), 1.0)

    def test_deterministic(self):
        p = random_projection(6, 3, 16)
        b1, c1 = lemma_primitive_witnesses(p, 2.0)
        b2, c2 = lemma_primitive_witnesses(p, 2.0)
        assert np.array_equal(b1, b2) and np.array_equal(c1, c2)


class TestBlockFixtures:
    def test_reference_spectra(self):
        a_val = 1.0
        fa, fe, ff = build_aef(a_val, 3)
        lam = np.sqrt(2.0)
        assert np.allclose(np.unique(np.round(np.linalg.eigvalsh(fa), 10)), [-lam, lam])
        assert np.allclose(np.unique(np.round(np.linalg.eigvalsh(fe), 10)), [-1.0, 1.0])
        assert np.allclose(np.unique(np.round(np.linalg.eigvalsh(ff), 10)), [-1.0, 1.0])

    @pytest.mark.parametrize("a_val", [0.25, 0.5, 1.0, 2.0, 4.0, -1.0])
    @pytest.mark.parametrize("dim", [3, 4, 7])
    def test_commutation_pattern(self, a_val, dim):
        fa, fe, ff = build_aef(a_val, dim)
        grid = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
        for alpha in grid:
            for eps in grid:
                lhs = alpha * fa - eps * fe
                assert rel_c(lhs, ff) == (alpha == eps)
                assert frobenius(lhs @ ff + ff @ lhs) > 1e-9
            for phi in grid:
                lhs = alpha * fa - phi * ff
                assert rel_c(lhs, fe) == (alpha == phi)
                assert frobenius(lhs @ fe + fe @ lhs) > 1e-9

    def test_scaled_reflection_structure(self):
        for a_val in (0.5, 2.0):
            for mat in build_aef(a_val, 4):
                assert in_k(mat)
                sd = spectral_decompose(mat)
                scalar = sd.distinct_values[1]
                proj = (np.eye(4) - mat / scalar) / 2.0
                assert frobenius(proj @ proj - proj) <= 1e-10
                assert abs(np.trace(proj).real - 1.0) <= 1e-10

    def test_unitary_conjugation_covers_generic_embedding(self):
        # the canonical first-two-coordinates embedding loses no generality
        fa, fe, ff = build_aef(1.5, 5)
        u = random_unitary(5, 17)
        rot = [u @ m @ u.conj().T for m in (fa, fe, ff)]
        for alpha in (-1.0, 0.5, 2.0):
            for eps in (-1.0, 0.5, 2.0):
                lhs = alpha * rot[0] - eps * rot[1]
                assert rel_c(lhs, rot[2]) == (alpha == eps)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_aef(0.0, 3)
        with pytest.raises(ValueError, match="at least 3"):
            build_aef(1.0, 2)
