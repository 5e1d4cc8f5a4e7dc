"""Computable commutation structure for finite-dimensional Hermitian matrices.

The package turns operator-level statements about commutants,
anticommutants, second commutants and relation-preserving maps into
seeded, reproducible desk-scale computations:

* :mod:`~commutant_lab.hermitian` — the binary relations (commute,
  anticommute, either) with tolerance semantics, decided over broadcast
  stacks of pairs by one route whose 0-d case is the one-pair test, plus
  seeded sampling of Hermitian matrices, projections and Haar unitaries;
* :mod:`~commutant_lab.commutant` — commutant / anticommutant /
  quasi-commutant / second-commutant subspaces read off one
  eigendecomposition, a Krylov oracle for the second commutant, subspace
  comparison and refutation search;
* :mod:`~commutant_lab.spectral` — clustered eigendecomposition,
  two-point-spectrum predicates, partition oracles and the explicit block
  fixtures;
* :mod:`~commutant_lab.preservers` — maps ``A -> c U A U* + shift(A) I``
  (optionally antiunitary), triadic-relation property runs, necessity and
  rigidity searches;
* :mod:`~commutant_lab.suites` / :mod:`~commutant_lab.cli` — the named
  verification suites and the ``commutant-lab`` command-line harness.
"""

from .commutant import (
    MatrixSubspace,
    QuasiCommutant,
    anticommutant,
    bicommutant,
    commutant,
    noncommuting_anticommuting_partner,
    quasi_commutant,
    quasi_equals_commutant,
    refute_biquasi_membership,
    scalar_witness,
    subspace_eq,
    subspace_leq,
    subspace_proper_lt,
)
from .hermitian import (
    Tolerance,
    as_hermitian,
    frobenius,
    is_scalar,
    random_hermitian,
    random_projection,
    random_scalar,
    random_unitary,
    rel_c,
    rel_j,
    rel_q,
    rel_stack,
    triadic_relation,
)
from .matrixfile import load_matrix, matrix_to_payload, payload_to_matrix, save_matrix
from .preservers import (
    PreserverMap,
    SearchExhausted,
    ShiftPolicy,
    TrialReport,
    Violation,
    apply_map,
    check_triadic,
    is_violation,
    lemma4_check,
    necessity_map,
    necessity_search,
    property_run,
)
from .spectral import (
    SpectralData,
    build_aef,
    distinct_count,
    has_two_point_spectrum,
    in_k,
    lemma18_minimality,
    lemma18_witness,
    lemma181_condition,
    lemma181_oracle,
    lemma_primitive_witnesses,
    spectral_decompose,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
