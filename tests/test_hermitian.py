"""Core relations: commute/anticommute predicates against their serial oracles, sampling."""

import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commutant_lab import (
    MatrixSubspace,
    PreserverMap,
    Tolerance,
    as_hermitian,
    check_triadic,
    commutant,
    frobenius,
    in_k,
    is_scalar,
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
from commutant_lab.hermitian import (
    _HASH_BLOCK,
    _frobenius_stack,
    _generators,
    _given_state,
    _hermitian,
    _stack_depth,
    _state_words,
    _unitary,
)
from commutant_lab.suites import LAMBDA_TOLERANCE, _proportionality_fit

from conftest import SWAP2, diag, exact_flip
from oracles import (serial_apply_map, serial_check_triadic, serial_rel_c, serial_rel_j,
                     serial_rel_q)


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

    @pytest.mark.parametrize("relation", [rel_c, rel_j, rel_q])
    def test_one_pair_only(self, relation):
        """Stacks and vectors raise, naming both shapes: a stack whose first
        pair commutes and whose second does not has no one verdict."""
        a = diag(1, 2, 3)
        x = np.array([a, a])
        y = np.array([diag(4, 5, 6), random_hermitian(3, 5)])
        assert list(rel_stack(x, y)[0]) == [True, False]
        for u, v in [(x, y), (a, y), (np.ones(3), np.ones(3)), (np.eye(2), np.eye(3))]:
            message = f"dimension mismatch: {np.shape(u)} vs {np.shape(v)}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                relation(u, v)

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
        assert list(commutes) == [serial_rel_c(a, b) for a, b in pairs]
        assert list(anticommutes) == [serial_rel_j(a, b) for a, b in pairs]
        for (a, b), c, j in zip(pairs, commutes, anticommutes):
            assert (rel_c(a, b), rel_j(a, b), rel_q(a, b)) == (c, j, serial_rel_q(a, b))
        assert commutes.any() and anticommutes.any() and not (commutes | anticommutes).all()

    def test_dimension_mismatch(self):
        """Two matrices give 0-d verdicts; matrices of different sizes,
        leading axes that do not broadcast and 1-D inputs raise."""
        eye = np.eye(3)
        commutes, anticommutes = rel_stack(eye, eye)
        assert commutes.ndim == anticommutes.ndim == 0
        assert (commutes, anticommutes) == (serial_rel_c(eye, eye), serial_rel_j(eye, eye))
        for x, y in [(np.zeros((2, 3, 3)), np.zeros((2, 4, 4))), (np.eye(4), np.zeros((2, 3, 3))),
                     (np.zeros((2, 3, 3)), np.zeros((3, 3, 3))), (np.zeros(3), np.zeros(3)),
                     (np.zeros(3), np.zeros((2, 3, 3))), (np.zeros((3, 2)), np.zeros((3, 2)))]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                rel_stack(x, y)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_one_matrix_against_a_stack(self, dim):
        """One matrix paired with every slice decides as its broadcast
        stack does, and the verdicts do not depend on the argument order."""
        pairs = [pair for seed in range(5) for pair in relation_pairs(seed, dim)]
        y = np.array([b for _, b in pairs])
        for x, _ in pairs[:4]:
            one = rel_stack(x, y)
            for other in (rel_stack(np.broadcast_to(x, y.shape), y),
                          rel_stack(y, np.broadcast_to(x, y.shape))):
                assert all(np.array_equal(u, v) for u, v in zip(one, other))
            assert list(one[0]) == [serial_rel_c(x, b) for b in y]
            assert list(one[1]) == [serial_rel_j(x, b) for b in y]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 16, 32])
def test_frobenius_stack_equals_frobenius(n):
    """Each norm of a stack equals ``frobenius`` of its matrix byte for byte,
    on leading shapes (T,) and (2, T), with entries of magnitude 1e-3 to
    1e3, for row-major matrices and for column-major ones; and a
    column-major matrix has the norm of its row-major copy."""
    rng = np.random.default_rng([71, n])
    for lead in [(20,), (2, 10)]:
        magnitude = 10.0 ** rng.uniform(-3.0, 3.0, (*lead, n, n))
        x = magnitude * np.exp(2j * np.pi * rng.uniform(size=magnitude.shape))
        for stack in (x, x.swapaxes(-1, -2)):
            norms = _frobenius_stack(stack)
            assert norms.shape == lead
            assert norms.tobytes() == np.array(
                [frobenius(stack[i]) for i in np.ndindex(lead)]).tobytes()
        one = x.reshape(-1, n, n)[0]
        assert _frobenius_stack(one).tobytes() == np.float64(frobenius(one)).tobytes()
        for m in x.reshape(-1, n, n).swapaxes(-1, -2):  # one summation order for every layout
            copy = np.ascontiguousarray(m)
            assert np.float64(frobenius(m)).tobytes() == np.float64(frobenius(copy)).tobytes()


class TestExactFlip:
    """At the two consecutive ``rel_zero`` values where the serial oracle
    ``serial_rel_c`` or ``serial_rel_j`` flips on a pair, ``rel_c``,
    ``rel_j``, ``rel_q`` and every stacked route give the serial verdict.
    The pairs commute or anticommute up to roundoff, so each flip sits near
    ``rel_zero = 1e-16``, where a last-bit change in any norm moves it."""

    @staticmethod
    def flip_pairs(seed, dim):
        """(relation, index of its rel_stack verdict, triadic kind, x, y)."""
        commuting, anticommuting, _ = relation_pairs(seed, dim)
        return [(rel_c, 0, "commutative", *commuting), (rel_j, 1, "quasi", *anticommuting)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [3, 8])
    def test_rel_stack_and_triadic_relation(self, seed, dim):
        others = relation_pairs(seed + 10, dim)
        for relation, index, kind, x, y in self.flip_pairs(seed, dim):
            xs, ys = (np.array(side) for side in zip(*others[:2], (x, y), others[2]))
            zero = np.zeros_like(x)
            for tol, held in zip(exact_flip(index, x, y), (False, True)):
                assert relation(x, y, tol) is held
                assert rel_q(x, y, tol) is held
                assert rel_stack(x, y, tol)[index] == held
                assert rel_stack(x, ys, tol)[index][2] == held
                assert rel_stack(ys, x, tol)[index][2] == held
                assert rel_stack(xs, ys, tol)[index][2] == held
                assert rel_stack(xs.reshape(2, 2, dim, dim), ys.reshape(2, 2, dim, dim),
                                 tol)[index][1, 0] == held
                assert triadic_relation(x, zero, y, kind, tol) is held
                assert triadic_relation(xs, np.zeros_like(xs), ys, kind, tol)[2] == held

    @pytest.mark.parametrize("seed", range(4))
    def test_check_triadic_matches_serial_oracle(self, seed):
        """Flipping the source pair or the image pair of a triple (X, 0, Y):
        ``check_triadic`` gives ``serial_check_triadic``'s verdict alone and
        inside a stack of other triples."""
        u = random_unitary(3, [seed, 72])
        others = [tuple(random_hermitian(3, [seed, 73, t, k]) for k in range(3)) for t in range(3)]
        seen = set()
        for _, index, kind, x, y in self.flip_pairs(seed, 3):
            m = PreserverMap(2.0, u, relation_kind=kind)
            triple = (x, np.zeros_like(x), y)
            fa, fb, fc = (serial_apply_map(m, t) for t in triple)
            stack = [np.array(side) for side in zip(*others[:2], triple, others[2])]
            for pair in ((x, y), (fa - fb, fc)):
                for tol in exact_flip(index, *pair):
                    expected = serial_check_triadic(m, *triple, tol)
                    assert check_triadic(m, *triple, tol) == expected
                    assert check_triadic(m, *stack, tol)[2] == expected
                    seen.add(expected)
        assert len(seen) > 1


@pytest.mark.parametrize("n, depth", [(1, 16384), (3, 1820), (8, 256), (9, 202), (11, 135),
                                      (12, 113), (32, 16), (129, 1)])
def test_stack_depth_holds_at_most_16384_entries(n, depth):
    """One rule sizes every stacked search: as many ``n x n`` items as fit
    in 16,384 entries, and at least one."""
    assert _stack_depth(n) == depth


class TestScaleFloor:
    """The threshold ``rel_zero * max(1, |A|_F |B|_F)`` is relative only
    while the norm product is at least 1; below, it is an absolute
    ``rel_zero``."""

    @staticmethod
    def verdicts(a, b, c):
        commutes, anticommutes = rel_stack(a, b)
        return (rel_c(a, b), rel_j(a, b), rel_q(a, b),
                triadic_relation(a, b, c, "commutative"), triadic_relation(a, b, c, "quasi"),
                bool(commutes), bool(anticommutes))

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
    return _pair_site(lambda a, b, tol: bool(rel_stack(a, b, tol)[index]), norm)


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
    inner = MatrixSubspace(x[None])
    return (frobenius(x - np.diag(np.diag(x))), 1.0,
            lambda tol: subspace_leq(inner, commutant(DIAGONALS), tol))


def _in_k_site(s):
    a = s * diag(1, -(1 - 1e-3), -(1 - 1e-3))
    return abs(s - s * (1 - 1e-3)), frobenius(a), lambda tol: in_k(a, tol)


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    def test_samplers_reproduce_two_draws_of_real_and_imaginary_parts(self, dim):
        # The samplers draw both parts as one (2, n, n) array; the report
        # digests were recorded with two (n, n) draws.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert random_hermitian(dim, seed).tobytes() == ((g + g.conj().T) / 2.0).tobytes()
            rng = np.random.default_rng(seed)
            g = (rng.standard_normal((dim, dim))
                 + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            assert random_unitary(dim, seed).tobytes() == (q * (d / np.abs(d))).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_stacked_samplers_match_each_slice(self, dim):
        # Staged triple generation relies on stacked QR, eigh and matmul
        # reproducing the per-matrix calls bit for bit on this BLAS.
        normals = np.random.default_rng(dim).standard_normal((7, 2, dim, dim))
        stacks = _hermitian(normals), _unitary(normals)
        w, v = np.linalg.eigh(stacks[0])
        products = stacks[1] @ stacks[0]
        for i, x in enumerate(normals):
            assert _hermitian(x).tobytes() == stacks[0][i].tobytes()
            assert _unitary(x).tobytes() == stacks[1][i].tobytes()
            wi, vi = np.linalg.eigh(_hermitian(x))
            assert (wi.tobytes(), vi.tobytes()) == (w[i].tobytes(), v[i].tobytes())
            assert (_unitary(x) @ _hermitian(x)).tobytes() == products[i].tobytes()


FACTORY_SEEDS = (0, 1, 7919 * 9, 2**32 - 1, 2**32, 2**64 + 3)
# entropy [s, t], [s, k, t] and [s, 9, i, j], and seven words before t: more
# than the four-word pool of a SeedSequence
FACTORY_PREFIXES = ([*([s] for s in FACTORY_SEEDS), *([s, 5] for s in FACTORY_SEEDS),
                     *([s, 9, 7] for s in FACTORY_SEEDS), [2**64 + 3, 2**40, 7, 1]])
FACTORY_TRIALS = (0, 1, 2**32 - 1)


class TestGeneratorFactory:
    """``_generators`` and ``_state_words`` against numpy's ``SeedSequence``
    and ``default_rng``."""

    @pytest.mark.parametrize("prefix", FACTORY_PREFIXES, ids=str)
    def test_state_words_match_seed_sequence(self, prefix):
        words = _state_words(prefix, FACTORY_TRIALS)
        assert words.shape == (len(FACTORY_TRIALS), 4)
        for t, row in zip(FACTORY_TRIALS, words, strict=True):
            expected = np.random.SeedSequence([*prefix, t]).generate_state(4, np.uint64)
            assert (row.dtype, row.tobytes()) == (expected.dtype, expected.tobytes())

    @pytest.mark.parametrize("prefix", FACTORY_PREFIXES, ids=str)
    def test_streams_match_default_rng(self, prefix):
        for t, rng in zip(FACTORY_TRIALS, _generators(prefix, FACTORY_TRIALS), strict=True):
            expected = np.random.default_rng([*prefix, t]).standard_normal(1000)
            assert rng.standard_normal(1000).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ts", [[-1], [2**32], [3, 2**32 + 5], [2**64], [1.0]])
    def test_trial_index_beyond_one_word_rejected(self, ts):
        with pytest.raises(ValueError, match=r"trial indices must be integers in \[0, 2\*\*32\)"):
            _generators([0], ts)

    @pytest.mark.parametrize("ts", [range(2 * _HASH_BLOCK + 1), range(5, 6 * _HASH_BLOCK + 8, 3)])
    def test_streams_across_block_boundaries(self, ts):
        for k, rng in enumerate(_generators([9, 2], ts)):
            if k % _HASH_BLOCK in (0, _HASH_BLOCK - 1):
                expected = np.random.default_rng([9, 2, ts[k]]).standard_normal(8)
                assert rng.standard_normal(8).tobytes() == expected.tobytes(), k
        assert k == 2 * _HASH_BLOCK

    def test_first_generator_hashes_one_block(self):
        tracemalloc.start()
        try:
            next(_generators([0, 1], range(10**7)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_later_block_checked_when_reached(self):
        made = _generators([0], [*range(_HASH_BLOCK), 2**32])
        for _ in range(_HASH_BLOCK):
            next(made)
        with pytest.raises(ValueError, match=r"trial indices must be integers in \[0, 2\*\*32\)"):
            next(made)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError, match="entropy words must be nonnegative"):
            _generators([0, -1], [0])

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                                (8, np.uint64)])
    def test_given_state_refuses_other_requests(self, n_words, dtype):
        words = _state_words([3], [4])[0]
        given = _given_state()(words)
        assert given.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError, match="holds 4 uint64 state words"):
            given.generate_state(n_words, dtype)

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        import commutant_lab

        src = pathlib.Path(commutant_lab.__file__).resolve().parents[1]
        code = "import sys, commutant_lab.cli; sys.exit('numpy.random' in sys.modules)"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": str(src)}, timeout=60)


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
    norm = frobenius(a @ b - b @ a)
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
        d = a - b
        for product in (d @ c - c @ d, d @ c + c @ d):
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
