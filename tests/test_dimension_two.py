"""Why the lab refuses n = 2: there the commutative triadic relation has
preservers far outside the classified form ``A -> c U A U* + s(A) I``.

Write a 2 x 2 Hermitian matrix as ``A = a0 I + x_A . sigma`` with the Pauli
matrices sigma.  Then ``[A - B, C] = 0`` exactly when
``(x_A - x_B) x x_C = 0``, and for every L in GL(3),
``Lu x Lv = det(L) L^{-T} (u x v)``.  So ``f(A) = s(A) I + (L x_A) . sigma``
preserves the relation in both directions for every invertible L and every
real function s: nine parameters, where the classified form has four
(a scaled rotation, or a scaled reflection for the antiunitary case).  The
quasi relation is not preserved: traceless D and C anticommute exactly
when ``x_D . x_C = 0``, which only a scaled orthogonal L keeps.

The triples are those that ``property_run``, which refuses n = 2, would
draw there (``preservers._draw`` and ``_build``), without mode 3, whose
block fixtures need n >= 3.
"""

import numpy as np
import pytest

from commutant_lab import Tolerance, triadic_relation
from commutant_lab.hermitian import _generators
from commutant_lab.preservers import _build, _draw

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@pytest.fixture(scope="module")
def triples():
    """The ``(T, 3, 2, 2)`` triples of 3000 seed-0 trials, mode 3 left out."""
    groups = {}
    for rng in _generators([0], range(3000)):
        _, mode, draws = _draw(rng, (2,))
        if mode != 3:
            groups.setdefault(mode, []).append(draws)
    return np.concatenate([_build(mode, 2, draws, Tolerance()) for mode, draws in groups.items()])


def pauli_map(x, l, shift):
    """``shift(A) I + (L x_A) . sigma`` for each A of the stack ``x``."""
    vectors = np.einsum("kij,tji->tk", PAULI, x).real / 2.0
    scalars = shift(x, vectors)[:, None, None] * np.eye(2)
    return scalars + np.einsum("kj,tj,kab->tab", l, vectors, PAULI)


def image(triples, l, shift, kind):
    fa, fb, fc = (pauli_map(triples[:, i], l, shift) for i in range(3))
    return triadic_relation(fa, fb, fc, kind)


def test_commutative_relation_holds_on_a_real_share(triples):
    held = triadic_relation(triples[:, 0], triples[:, 1], triples[:, 2])
    assert held.mean() > 0.1


@pytest.mark.parametrize("seed", range(3))
def test_every_invertible_map_preserves_the_commutative_relation(triples, seed):
    l = np.random.default_rng([2, seed]).standard_normal((3, 3))
    gram = l @ l.T
    assert abs(np.linalg.det(l)) > 0.1
    assert not np.allclose(gram, np.trace(gram) / 3.0 * np.eye(3))  # no scaled rotation

    def shift(x, vectors):
        return np.sin(1.5 * np.trace(x, axis1=1, axis2=2).real) + vectors[:, 0] ** 2

    source = triadic_relation(triples[:, 0], triples[:, 1], triples[:, 2])
    assert (image(triples, l, shift, "commutative") == source).all()


def test_a_stretch_breaks_the_quasi_relation(triples):
    source = triadic_relation(triples[:, 0], triples[:, 1], triples[:, 2], "quasi")
    stretched = image(triples, np.diag([1.0, 1.0, 2.0]), lambda x, _: np.zeros(len(x)), "quasi")
    assert (source & ~stretched).any()
