"""Preserver maps: application, shift policies, triadic checking, property
runs, necessity and rigidity searches, maps composed of two maps."""

import numpy as np
import pytest

from commutant_lab import (
    PreserverMap,
    SearchExhausted,
    ShiftPolicy,
    Tolerance,
    Violation,
    apply_map,
    build_aef,
    check_triadic,
    frobenius,
    is_violation,
    lemma4_check,
    necessity_map,
    necessity_search,
    property_run,
    quasi_equals_commutant,
    random_hermitian,
    random_projection,
    random_unitary,
    rel_c,
    rel_j,
    scalar_witness,
    triadic_relation,
)
from commutant_lab import preservers
from commutant_lab.hermitian import _stack_depth
from commutant_lab.preservers import (
    BOTH_FAIL,
    BOTH_HOLD,
    VIOLATION_BACKWARD,
    VIOLATION_FORWARD,
    _BELOW_THREE,
    _aef_fixtures,
    _lemma4_candidates,
    _stacks,
    _swap_partner,
    default_necessity_anchor,
)
from commutant_lab.suites import replay_violation, suite_theorem_5, violation_to_payload

from conftest import diag, exact_flip
from oracles import (
    serial_apply_map,
    serial_check_triadic,
    serial_rel_j,
    serial_structured_triple,
    serial_triple,
)


def identity_map(dim, kind="commutative", shift=None):
    return PreserverMap(
        scale=1.0,
        conjugator=np.eye(dim, dtype=complex),
        antiunitary=False,
        shift=shift or ShiftPolicy("zero"),
        relation_kind=kind,
    )


def compose(outer, inner):
    """Map of the classified form acting like ``outer`` after ``inner``.  Its
    shift is a plain callable, so it exercises ``apply_map`` with a shift
    that is not a :class:`ShiftPolicy`, and it cannot be serialized."""
    u_inner = inner.conjugator.conj() if outer.antiunitary else inner.conjugator

    def shift(a, tol):
        return outer.scale * inner.shift(a, tol) + outer.shift(apply_map(inner, a, tol), tol)

    return PreserverMap(
        scale=outer.scale * inner.scale,
        conjugator=outer.conjugator @ u_inner,
        antiunitary=outer.antiunitary != inner.antiunitary,
        shift=shift,
        relation_kind=outer.relation_kind,
    )


class TestApplyMap:
    def test_identity(self):
        m = identity_map(3)
        a = random_hermitian(3, 0)
        assert np.allclose(apply_map(m, a), a)

    def test_antiunitary_is_entrywise_conjugation(self):
        m = PreserverMap(1.0, np.eye(2, dtype=complex), antiunitary=True)
        x = np.array([[0, 1j], [-1j, 0]])
        assert np.allclose(apply_map(m, x), np.array([[0, -1j], [1j, 0]]))

    def test_scale_and_shift_spectrum(self):
        p = random_projection(3, 1, 1)
        m = PreserverMap(2.0, np.eye(3, dtype=complex),
                         shift=ShiftPolicy("constant", value=1.0))
        out = apply_map(m, p)
        values = np.unique(np.round(np.linalg.eigvalsh(out), 9))
        assert np.allclose(values, [1.0, 3.0])

    def test_output_hermitian(self):
        m = PreserverMap(-1.7, random_unitary(4, 2), antiunitary=True,
                         shift=ShiftPolicy("trace_based"))
        a = random_hermitian(4, 3)
        out = apply_map(m, a)
        assert frobenius(out - out.conj().T) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_map(identity_map(3), np.eye(4))

    @pytest.mark.parametrize("conjugator, message", [
        (np.ones((2, 3)), r"^conjugator must be a square matrix, got shape \(2, 3\)$"),
        (np.diag([1.0, np.nan]), "^conjugator has non-finite entries$"),
        (np.diag([1.0, np.inf]), "^conjugator has non-finite entries$"),
    ], ids=["2x3", "nan", "inf"])
    def test_malformed_conjugator_rejected(self, conjugator, message):
        with pytest.raises(ValueError, match=message):
            PreserverMap(1.0, conjugator)

    def test_validation(self):
        with pytest.raises(ValueError, match="scale"):
            PreserverMap(0.0, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            PreserverMap(1.0, np.ones((2, 2)))
        with pytest.raises(ValueError, match="relation kind"):
            PreserverMap(1.0, np.eye(2, dtype=complex), relation_kind="both")


class TestShiftPolicies:
    def test_zero_and_constant(self):
        a = random_hermitian(3, 4)
        assert ShiftPolicy("zero")(a) == 0.0
        assert ShiftPolicy("constant", value=-2.5)(a) == -2.5

    def test_trace_based(self):
        assert ShiftPolicy("trace_based")(diag(1, 2, 3)) == pytest.approx(2.0)

    def test_theorem_compliant_vanishes_on_partnered_matrices(self):
        shift = ShiftPolicy("theorem_compliant_quasi",
                                  inner=ShiftPolicy("trace_based"))
        partnered = diag(1, -1, 0)
        swap = _swap_partner(np.eye(3, dtype=complex))
        assert rel_j(partnered, swap) and not rel_c(partnered, swap)
        assert shift(partnered) == 0.0
        partner_free = diag(1, 2, 3)
        assert shift(partner_free) == pytest.approx(2.0)

    def test_theorem_compliant_with_zero_inner_is_zero(self):
        shift = ShiftPolicy("theorem_compliant_quasi")
        for seed in range(10):
            assert shift(random_hermitian(4, seed)) == 0.0

    def test_pinned_is_byte_exact(self):
        anchor = default_necessity_anchor(3)
        shift = ShiftPolicy("pinned", value=1.0, anchor=anchor)
        assert shift(anchor) == 1.0
        assert shift(anchor + 1e-15 * np.eye(3)) == 0.0
        assert shift(random_hermitian(3, 5)) == 0.0

    @staticmethod
    def shift_stack(dim):
        """A partnered matrix, then Hermitian matrices whose diagonals mix
        magnitudes, so that the order of a trace's sum shows."""
        return np.array([default_necessity_anchor(dim)]
                        + [random_hermitian(dim, [41, dim, t]) * 10.0 ** (t % 7 - 3)
                           + (t - 6) * np.eye(dim) for t in range(1, 12)])

    @pytest.mark.parametrize("dim", [3, 8, 9, 16])
    @pytest.mark.parametrize("kind", ["zero", "constant", "trace_based", "pinned",
                                      "theorem_compliant_quasi", "composed"])
    def test_shift_of_a_stack_matches_its_slices(self, kind, dim):
        """A shift called on a stack gives each matrix, byte for byte, the
        shift of a call on it alone, which is a ``float``.  From n = 8 on,
        numpy sums a trace in unrolled partial sums, not left to right."""
        stack = self.shift_stack(dim)
        policies = {
            "zero": ShiftPolicy("zero"),
            "constant": ShiftPolicy("constant", value=-0.7),
            "trace_based": ShiftPolicy("trace_based"),
            "pinned": ShiftPolicy("pinned", value=1.5, anchor=stack[3]),
            "theorem_compliant_quasi": ShiftPolicy("theorem_compliant_quasi",
                                                   inner=ShiftPolicy("trace_based")),
        }
        if kind == "composed":
            shift = compose(quasi_map(dim, 41, scale=2.0, shift=policies["trace_based"]),
                            quasi_map(dim, 42, antiunitary=True, shift=policies["pinned"])).shift
        else:
            shift = policies[kind]
        tol = Tolerance()
        for x in (stack, stack.reshape(3, 4, dim, dim)):
            got = shift(x, tol)
            assert got.shape == x.shape[:-2] and got.dtype == np.float64
            for value, y in zip(got.ravel(), x.reshape(-1, dim, dim), strict=True):
                one = shift(y, tol)
                assert type(one) is float and np.float64(one).tobytes() == value.tobytes()
        if kind == "trace_based":
            assert [shift(y, tol) for y in stack] == [float(np.trace(y).real) / dim
                                                      for y in stack]
        if kind == "pinned":  # the anchor, and only the anchor, is shifted
            assert list(np.flatnonzero(shift(stack, tol))) == [3]
        if kind == "theorem_compliant_quasi":  # zero on the partnered matrix alone
            assert list(np.flatnonzero(shift(stack, tol) == 0.0)) == [0]

    def test_pinned_anchor_of_another_size_matches_nothing(self):
        shift = ShiftPolicy("pinned", value=1.0, anchor=default_necessity_anchor(4))
        one = shift(default_necessity_anchor(3))
        assert type(one) is float and one == 0.0
        stack = self.shift_stack(3).reshape(3, 4, 3, 3)
        got = shift(stack)
        assert got.shape == (3, 4) and got.dtype == np.float64 and not got.any()

    def test_callable_shift_is_called_once_on_the_stack(self):
        """A plain callable shift is called once, on the whole stack, at the
        tolerance of the call; each slice of the image is the serial one."""
        seen = []

        def shift(a, tol):
            seen.append((a.shape, tol))
            return a[..., 0, 0].real - 2.0 * a[..., 1, 1].real

        m = PreserverMap(-1.5, random_unitary(4, 43), antiunitary=True, shift=shift)
        stack = self.shift_stack(4).reshape(2, 6, 4, 4)
        tol = Tolerance(rel_zero=1e-7)
        out = apply_map(m, stack, tol)
        assert out.shape == stack.shape and seen == [((2, 6, 4, 4), tol)]
        for y, x in zip(out.reshape(-1, 4, 4), stack.reshape(-1, 4, 4)):
            assert y.tobytes() == serial_apply_map(m, x, tol).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="shift kind"):
            ShiftPolicy("affine")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match=f"^shift value must be finite, got {value!r}$"):
            ShiftPolicy("constant", value=value)


class TestCheckTriadic:
    def test_identity_never_violates(self):
        m = identity_map(3, "quasi")
        for seed in range(30):
            a, b, c = (random_hermitian(3, [seed, i]) for i in range(3))
            assert check_triadic(m, a, b, c) in (BOTH_HOLD, BOTH_FAIL)

    def test_forward_violation_construction(self):
        # shift 1 on the anchor, 0 elsewhere: image difference picks up a
        # scalar which destroys anticommutation with the partner
        a0 = default_necessity_anchor(3)
        m = PreserverMap(1.0, np.eye(3, dtype=complex),
                         shift=ShiftPolicy("pinned", value=1.0, anchor=a0),
                         relation_kind="quasi")
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = c[1, 0] = 1.0 / np.sqrt(2.0)
        verdict = check_triadic(m, a0, np.zeros((3, 3), dtype=complex), c)
        assert verdict == VIOLATION_FORWARD

    def test_scalar_shift_cancels_for_commutative_kind(self):
        maps = {
            d: PreserverMap(-2.0, random_unitary(d, [6, d]), antiunitary=True,
                            shift=ShiftPolicy("trace_based"),
                            relation_kind="commutative")
            for d in (3, 4)
        }
        for seed in range(100):
            rng = np.random.default_rng([seed, 7])
            dim = int(rng.integers(3, 5))
            a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
            w, v = np.linalg.eigh(a - b)
            c = (v * rng.standard_normal(dim)) @ v.conj().T
            assert not is_violation(check_triadic(maps[dim], a, b, (c + c.conj().T) / 2))


def test_is_violation_of_one_verdict_and_of_an_array():
    verdicts = [BOTH_HOLD, VIOLATION_FORWARD, BOTH_FAIL, VIOLATION_BACKWARD]
    alone = [is_violation(v) for v in verdicts]
    assert alone == [False, True, False, True] and all(type(x) is bool for x in alone)
    got = is_violation(np.array(verdicts).reshape(2, 2))
    assert got.dtype == bool and list(got.ravel()) == alone


@pytest.mark.parametrize("dim", range(3, 9))
def test_swap_partner_of_the_identity_is_the_unit_entry_swap(dim):
    """necessity_search's partner of diag(1, -1, 0, ...) is the swap of the
    first two coordinates, scaled to unit norm, byte for byte."""
    swap = np.zeros((dim, dim), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0 / np.sqrt(2.0)
    assert _swap_partner(np.eye(dim, dtype=complex)).tobytes() == swap.tobytes()


def near_tie():
    """A map, a triple and the tolerance at the exact flip of the image
    relation: the least ``rel_zero`` at which ``serial_rel_c`` holds on the
    image pair, below the source's flip, so the source fails."""
    rng = np.random.default_rng(3)
    triple = tuple(random_hermitian(3, rng) for _ in range(3))
    m = PreserverMap(2.0, random_unitary(3, 0), relation_kind="commutative")
    fa, fb, fc = (serial_apply_map(m, x) for x in triple)
    return m, triple, exact_flip(0, fa - fb, fc)[1]


class TestOneEngine:
    """A triple gets the same verdict alone, inside a stack and on replay."""

    def test_recorded_violation_replays(self):
        m, triple, tol = near_tie()
        violation = Violation(*triple, direction=VIOLATION_BACKWARD, trial=0)
        assert replay_violation(violation_to_payload(violation, m), tol) == (
            VIOLATION_BACKWARD, True)

    def test_verdict_alone_equals_verdict_in_stack(self):
        m, triple, tol = near_tie()
        others = [tuple(random_hermitian(3, [37, t, k]) for k in range(3)) for t in range(4)]
        triples = others[:2] + [triple] + others[2:]
        verdicts = check_triadic(m, *(np.array(x) for x in zip(*triples)), tol)
        assert isinstance(verdicts, np.ndarray) and verdicts.shape == (5,)
        alone = [check_triadic(m, *t, tol) for t in triples]
        assert all(type(v) is str for v in alone)
        assert alone == list(verdicts)
        assert alone[2] == VIOLATION_BACKWARD

    def test_relation_returns_bool_alone_and_array_on_a_stack(self):
        _, (a, b, c), tol = near_tie()
        held = triadic_relation(np.array([a, b]), np.array([b, b]), np.array([c, c]),
                                "commutative", tol)
        assert held.dtype == bool and list(held) == [
            triadic_relation(a, b, c, "commutative", tol), True]
        assert type(triadic_relation(a, b, c, "quasi", tol)) is bool


def quasi_window(d):
    """A with eigenvalues (1.3, -1.3 + d, 2) in the basis ``random_unitary(3,
    77)``, and the unit pair element of its first two eigenvectors."""
    v = random_unitary(3, 77)
    a = (v * np.array([1.3, -1.3 + d, 2.0])) @ v.conj().T
    pair = np.outer(v[:, 0], v[:, 1].conj())
    return (a + a.conj().T) / 2.0, (pair + pair.conj().T) / np.sqrt(2.0)


COMPLIANT_QUASI = PreserverMap(1.0, np.eye(3, dtype=complex), relation_kind="quasi",
                               shift=ShiftPolicy("theorem_compliant_quasi",
                                                 inner=ShiftPolicy("trace_based")))
TIGHT_RANK_CUT = Tolerance(rank_cut=1e-8)


class TestQuasiWindow:
    """``quasi_equals_commutant``, and so the compliant shift, decides by the
    ``rank_cut`` pair cuts, while the relations decide by ``rel_zero``.  For
    a pair sum d above the anticommutant cut (4e-10) and below the relation
    scale (2.7e-9), the decision is True although the pair element passes
    ``rel_j`` and fails ``rel_c``: the shift keeps its inner value on a
    matrix with a noncommuting anticommuting partner, and the compliant map
    breaks a triple.  A rank cut of 1e-8 closes the window for these d."""

    @pytest.mark.parametrize("d", [6e-10, 1.2e-9, 2.5e-9])
    def test_window(self, d):
        a, pair = quasi_window(d)
        zero = np.zeros((3, 3), dtype=complex)
        assert quasi_equals_commutant(a)
        assert rel_j(a, pair) and not rel_c(a, pair)
        assert check_triadic(COMPLIANT_QUASI, a, zero, pair) == VIOLATION_FORWARD
        assert not quasi_equals_commutant(a, TIGHT_RANK_CUT)
        assert check_triadic(COMPLIANT_QUASI, a, zero, pair, TIGHT_RANK_CUT) == BOTH_HOLD

    def test_window_decided_on_a_stack(self):
        """Every window value of d, in one stack, decides as it does alone,
        and the compliant shift of the stack is each matrix's own shift."""
        stack = np.array([quasi_window(d)[0] for d in (6e-10, 1e-9, 1.2e-9, 2.5e-9)])
        for tol, held in ((Tolerance(), True), (TIGHT_RANK_CUT, False)):
            got = quasi_equals_commutant(stack, tol)
            assert got.dtype == bool
            assert list(got) == [quasi_equals_commutant(a, tol) for a in stack] == [held] * 4
            shifts = COMPLIANT_QUASI.shift(stack, tol)
            assert shifts.tobytes() == np.array([COMPLIANT_QUASI.shift(a, tol)
                                                 for a in stack]).tobytes()
            assert shifts.any() == held

    def test_shift_decides_at_the_tolerance_of_the_check(self):
        """One map, two checks: each verdict follows its own tolerance, and
        each record replays at that tolerance."""
        a, pair = quasi_window(1e-9)
        triple = (a, np.zeros((3, 3), dtype=complex), pair)
        for tol, expected in ((Tolerance(), VIOLATION_FORWARD), (TIGHT_RANK_CUT, BOTH_HOLD)):
            verdict = check_triadic(COMPLIANT_QUASI, *triple, tol)
            assert verdict == expected
            record = violation_to_payload(Violation(*triple, direction=verdict, trial=0),
                                          COMPLIANT_QUASI)
            assert replay_violation(record, tol) == (expected, True)


@pytest.mark.parametrize("seed, observed", [(0, 32), (1, 24), (2, 26)])
def test_compliant_quasi_shift_breaks_the_quasi_relation(seed, observed):
    """The ``theorem_compliant_quasi`` shift vanishes on matrices that have
    a noncommuting anticommuting partner, but the quasi relation reads the
    difference A - B, so the compliant map of theorem-5's exploratory run
    (trace-based inner shift, 200 trials) breaks triples."""
    details = suite_theorem_5(trials=1, seed=seed)["details"]["exploratory_nonzero_shift"]
    assert (details["trials"], details["violations_observed"]) == (200, observed)


class TestAntiunitaryConsistency:
    def test_spectrum_preserved(self):
        for seed in range(10):
            a = random_hermitian(4, [seed, 8])
            assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(a.conj()))

    def test_relations_invariant_under_conjugation(self):
        for seed in range(20):
            a = random_hermitian(3, [seed, 9])
            b = random_hermitian(3, [seed, 10])
            assert rel_c(a, b) == rel_c(a.conj(), b.conj())
            assert rel_j(a, b) == rel_j(a.conj(), b.conj())


class TestPropertyRun:
    def test_identity_clean(self):
        assert property_run({3: identity_map(3)}, trials=100, seed=0) == []

    def test_commutative_form_clean(self):
        maps = {
            d: PreserverMap(-2.0, random_unitary(d, [11, d]), antiunitary=True,
                            shift=ShiftPolicy("trace_based"),
                            relation_kind="commutative")
            for d in (3, 4, 5)
        }
        assert property_run(maps, trials=600, seed=1) == []

    def test_quasi_zero_shift_clean(self):
        maps = {
            d: PreserverMap(1.0, random_unitary(d, [12, d]),
                            shift=ShiftPolicy("zero"), relation_kind="quasi")
            for d in (3, 4, 5)
        }
        assert property_run(maps, trials=600, seed=2) == []

    def test_deterministic_replay(self):
        maps = {4: identity_map(4, "quasi")}
        r1 = property_run(maps, trials=50, seed=3)
        r2 = property_run(maps, trials=50, seed=3)
        assert [(v.trial, v.direction) for v in r1] == [(v.trial, v.direction) for v in r2]

    def test_structured_generator_hits_true_sources(self):
        # without structured triples the forward direction would be vacuous
        hits = 0
        for t in range(200):
            rng = np.random.default_rng([13, t])
            a, b, c = serial_structured_triple(rng, 4, Tolerance())
            if triadic_relation(a, b, c, "commutative"):
                hits += 1
        assert hits > 40

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials"):
            property_run({3: identity_map(3)}, trials=0)

    # Each is refused before the first draw, so at every seed: at n = 2 only
    # mode 3 (build_aef) would refuse, and an empty dict has no draw to make.
    @pytest.mark.parametrize("seed", range(6))
    def test_map_of_wrong_dimension_rejected(self, seed):
        wrong = PreserverMap(1.0, random_unitary(4, 28))
        message = r"^dimension mismatch: map is \(4, 4\), input \(3, 3\)$"
        with pytest.raises(ValueError, match=message):
            property_run({3: wrong, 4: identity_map(4)}, trials=5, seed=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_dimension_below_three_rejected(self, seed):
        for maps in ({2: identity_map(2)}, {2: identity_map(2), 3: identity_map(3)}):
            with pytest.raises(ValueError) as info:
                property_run(maps, trials=4, seed=seed)
            assert str(info.value) == _BELOW_THREE

    @pytest.mark.parametrize("seed", range(6))
    def test_empty_maps_rejected(self, seed):
        with pytest.raises(ValueError, match="^maps must hold at least one dimension$"):
            property_run({}, trials=3, seed=seed)


def flush_depth(dims, dim):
    """How many held trials of ``dim`` make ``property_run`` build a stack."""
    return max(1, _stack_depth(dim) // len(dims))


def trials_per_dim(seed, dims, trials):
    """How many of trials ``0 .. trials - 1`` draw each dimension."""
    drawn = [dims[int(np.random.default_rng([seed, t]).integers(len(dims)))]
             for t in range(trials)]
    return {dim: drawn.count(dim) for dim in dims}


def assert_flushes(seed, dims, trials):
    """Every dimension of a run fills at least one stack and ends on a
    partial one."""
    for dim, count in trials_per_dim(seed, dims, trials).items():
        depth = flush_depth(dims, dim)
        assert count > depth and count % depth, (dim, count, depth)


def block_triples(dims, trials, tol):
    """``(trial, dim, triple)`` of trials ``0 .. trials - 1`` made by
    ``_stacks``, in trial order.  Each dimension's stacks hold its flush
    depth, but its last, which holds the rest."""
    stacks = list(_stacks(11, trials, dims, tol))
    for dim, count in trials_per_dim(11, dims, trials).items():
        depth = flush_depth(dims, dim)
        sizes = [len(indices) for d, indices, _ in stacks if d == dim]
        assert sizes == [depth] * (count // depth) + [count % depth] * bool(count % depth)
    made = [(t, dim, tuple(triple)) for dim, indices, stack in stacks
            for t, triple in zip(indices, stack, strict=True)]
    return sorted(made, key=lambda item: item[0])


class TestStagedGenerator:
    """The draw-then-build generator of ``property_run`` against
    ``serial_triple``, which makes one sampler call per matrix."""

    # A rank cut loose enough to join eigenvalue pairs of mode 5's
    # difference, so that its trials draw other coefficient counts.
    LOOSE = Tolerance(rank_cut=0.05)

    @pytest.mark.parametrize("dims", [(3, 4, 5, 8), (16,)], ids=["3-4-5-8", "16"])
    # A zero rank cut empties most of mode 5's anticommutants, so its
    # trials take the branch that draws C whole.
    @pytest.mark.parametrize("tol", [Tolerance(), LOOSE, Tolerance(rank_cut=0.0)],
                             ids=["default", "loose-rank-cut", "zero-rank-cut"])
    def test_matches_serial_triple_byte_for_byte(self, dims, tol):
        trials = {(3, 4, 5, 8): 2000, (16,): 172}[dims]
        assert_flushes(11, dims, trials)
        made = block_triples(dims, trials, tol)
        assert [t for t, _, _ in made] == list(range(trials))
        for t, dim, triple in made:
            rng = np.random.default_rng([11, t])
            assert dim == dims[int(rng.integers(len(dims)))]
            for x, y in zip(triple, serial_triple(rng, dim, tol), strict=True):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())

    @pytest.mark.parametrize("dims", [(3, 4, 5, 8), (16,)], ids=["3-4-5-8", "16"])
    def test_loose_rank_cut_changes_mode_5_draws(self, dims):
        # only mode 5 reads the tolerance, so a changed triple is a mode-5
        # trial whose anticommutant dimension moved
        default = block_triples(dims, _stack_depth(max(dims)), Tolerance())
        loose = block_triples(dims, _stack_depth(max(dims)), self.LOOSE)
        assert any(x.tobytes() != y.tobytes()
                   for (_, _, p), (_, _, q) in zip(default, loose) for x, y in zip(p, q))

    def test_cached_aef_fixtures_are_read_only(self):
        cached = _aef_fixtures(0.5, 4)
        assert cached is _aef_fixtures(0.5, 4)
        for x in cached:
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.0
        fresh, again = build_aef(0.5, 4), build_aef(0.5, 4)
        for x, y, z in zip(fresh, again, cached):
            assert x.flags.writeable and x is not y and x is not z
            assert x.tobytes() == z.tobytes()
            x[0, 0] = 7.0
        assert _aef_fixtures(0.5, 4)[0][0, 0] == -0.5


def serial_property_run(maps, trials, seed):
    """``property_run`` with the same draws, one ``serial_check_triadic``
    per trial."""
    tol = Tolerance()
    dims = tuple(sorted(maps))
    found = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        dim = dims[int(rng.integers(len(dims)))]
        a, b, c = serial_triple(rng, dim, tol)
        verdict = serial_check_triadic(maps[dim], a, b, c, tol)
        if is_violation(verdict):
            found.append((t, verdict, a, b, c))
    return found


def quasi_map(dim, seed, antiunitary=False, shift=None, scale=1.0):
    return PreserverMap(scale, random_unitary(dim, [seed, dim]), antiunitary=antiunitary,
                        shift=shift or ShiftPolicy("zero"), relation_kind="quasi")


ORACLE_MAPS = {
    "trace_based": (True, lambda d: quasi_map(d, 30, shift=ShiftPolicy("trace_based"))),
    "antiunitary": (True, lambda d: quasi_map(d, 31, antiunitary=True, scale=-0.5,
                                              shift=ShiftPolicy("trace_based"))),
    "composed": (True, lambda d: compose(
        quasi_map(d, 32, scale=2.0, shift=ShiftPolicy("constant", value=0.5)),
        quasi_map(d, 33, antiunitary=True, scale=1.5, shift=ShiftPolicy("trace_based")))),
    "theorem_compliant": (True, lambda d: quasi_map(d, 34, shift=ShiftPolicy(
        "theorem_compliant_quasi", inner=ShiftPolicy("trace_based")))),
    "necessity_map": (False, necessity_map),
    "commutative": (False, lambda d: PreserverMap(
        -3.0, random_unitary(d, [35, d]), antiunitary=True, shift=ShiftPolicy("trace_based"))),
}


class TestBatchedOracle:
    """The stacked evaluation in ``apply_map``, ``property_run`` and
    ``lemma4_check`` against serial loops over the oracles
    ``serial_apply_map``, ``serial_check_triadic`` and ``serial_rel_j``."""

    @pytest.mark.parametrize("name", list(ORACLE_MAPS))
    def test_apply_map_stack_matches_serial_per_slice(self, name):
        _, build = ORACLE_MAPS[name]
        m = build(4)
        # the anchor makes the pinned shift of the necessity map fire
        stack = np.array([default_necessity_anchor(4)]
                         + [random_hermitian(4, [36, t]) for t in range(5)])
        out = apply_map(m, stack)
        assert out.shape == stack.shape
        for x, y in zip(out, stack):
            assert x.tobytes() == serial_apply_map(m, y).tobytes()
        single = apply_map(m, stack[0])
        assert single.shape == (4, 4) and single.tobytes() == out[0].tobytes()

    @pytest.mark.parametrize("dim", [3, 8, 9, 16, 32])
    @pytest.mark.parametrize("kind, value", [("zero", 0.0), ("constant", -0.7),
                                             ("trace_based", 0.0)])
    def test_closed_form_shift_on_a_stack_matches_serial(self, kind, value, dim):
        """The closed-form shifts run on the whole stack.  From n = 8 on,
        numpy sums a complex trace in unrolled partial sums, not left to
        right, and the stacked sum must follow it."""
        m = quasi_map(dim, 39, antiunitary=True, scale=-1.5, shift=ShiftPolicy(kind, value))
        # diagonals of mixed magnitudes, so that the order of a sum shows
        stack = np.array([random_hermitian(dim, [39, dim, t]) * 10.0 ** (t % 7 - 3)
                          + (t - 12) * np.eye(dim) for t in range(30)])
        # property_run's layout: every B of a (T, 3, n, n) block
        for x in (stack, stack.reshape(2, 15, dim, dim), stack.reshape(10, 3, dim, dim)[:, 1]):
            out = apply_map(m, x)
            assert out.shape == x.shape
            for y, z in zip(out.reshape(-1, dim, dim), x.reshape(-1, dim, dim)):
                assert y.tobytes() == serial_apply_map(m, z).tobytes()

    def test_violation_copies_its_matrices(self):
        block = np.array([random_hermitian(3, [40, t]) for t in range(6)]).reshape(2, 3, 3, 3)
        v = Violation(*block[1], direction=VIOLATION_FORWARD, trial=1)
        for x, y in zip((v.a, v.b, v.c), block[1]):
            assert not np.shares_memory(x, block) and x.tobytes() == y.tobytes()

    @staticmethod
    def check_property_run(name, dims, trials):
        """``property_run`` against ``serial_property_run`` over a run in
        which every dimension fills at least one stack and ends on a
        partial one."""
        violates, build = ORACLE_MAPS[name]
        maps = {d: build(d) for d in dims}
        assert_flushes(5, dims, trials)
        violations = property_run(maps, trials=trials, seed=5)
        expected = serial_property_run(maps, trials, seed=5)
        assert bool(expected) == violates
        assert [v.trial for v in violations] == sorted(v.trial for v in violations)
        assert [(v.trial, v.direction) for v in violations] == [
            (t, direction) for t, direction, *_ in expected]
        for v, (_, _, a, b, c) in zip(violations, expected):
            assert all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                       for x, y in ((v.a, a), (v.b, b), (v.c, c)))
        if violates:
            assert {v.a.shape[0] for v in violations} == set(dims)

    @pytest.mark.parametrize("name", list(ORACLE_MAPS))
    def test_property_run_matches_check_triadic(self, name):
        self.check_property_run(name, (3, 4, 5), 2000)  # stacks of 606, 341 and 218

    @pytest.mark.parametrize("name", list(ORACLE_MAPS))
    def test_property_run_matches_check_triadic_at_n32(self, name):
        self.check_property_run(name, (32,), 53)  # four stacks of up to 16

    def test_property_run_flushes_mixed_dimensions(self):
        """Stacks of 910 trials at n = 3 and of 32 at n = 16: n = 16 fills
        many stacks while n = 3 fills one, and violations of both come back
        in trial order."""
        assert (flush_depth((3, 16), 3), flush_depth((3, 16), 16)) == (910, 32)
        assert trials_per_dim(5, (3, 16), 2000)[16] > 2 * 32
        self.check_property_run("trace_based", (3, 16), 2000)

    @staticmethod
    def serial_lemma4(lam, projection, candidates, seed, tol):
        """``lemma4_check`` as a loop over ``serial_rel_j``, same candidate draws,
        one candidate built at a time.  Returns the first candidate that
        refutes rigidity, -1 when B = A fails the premises, or None."""
        a = lam * np.asarray(projection, dtype=complex)
        n = a.shape[0]
        eye = np.eye(n, dtype=complex)

        def premises(x, y):
            return serial_rel_j(x - lam * eye, y, tol) and serial_rel_j(y - lam * eye, x, tol)

        if not premises(a, a):
            return -1
        for t in range(candidates):
            b = TestBatchedOracle.serial_lemma4_candidate(a, seed, t)
            if frobenius(b - a) > 1e-6 and premises(a, b):
                return t
        return None

    @staticmethod
    def serial_lemma4_candidate(a, seed, t):
        """Candidate ``t`` of ``lemma4_check`` around ``A``, built alone."""
        rng = np.random.default_rng([seed, t])
        n = a.shape[0]
        if t % 3 == 0:
            x = random_hermitian(n, rng)
            x = x / frobenius(x)
            return a + 10.0 ** rng.uniform(-4, 1) * x
        if t % 3 == 1:
            return random_hermitian(n, rng) * max(1.0, frobenius(a))
        return float(rng.uniform(-3.0, 3.0)) * a

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_lemma4_candidates_match_serial_build(self, dim):
        """Every mode byte for byte."""
        a = -1.5 * random_projection(dim, dim // 2, [38, dim])
        step = _stack_depth(dim)
        for start, stop in ((0, 1), (0, 2), (step, step + 1), (step, 2 * step),
                            (2 * step, 2 * step + 44)):
            stack = _lemma4_candidates(a, 9, start, stop)
            assert stack.shape == (stop - start, dim, dim)
            for t, b in zip(range(start, stop), stack):
                assert b.tobytes() == self.serial_lemma4_candidate(a, 9, t).tobytes()

    # Candidate counts at n = 3 .. 8 as (full stacks, candidates past them):
    # each ends in a partial stack, some of one or two candidates (so with
    # modes missing).
    COUNTS = ((0, 1), (0, 2), (1, 1), (2, 2), (2, 44), (2, 1))

    @pytest.mark.parametrize("lam, projection, candidates, seed, tol, refuted_by", [
        (2.0, random_projection(4, 2, 36), 2 * _stack_depth(4) + 44, 8, Tolerance(), None),
        *((lam, random_projection(dim, rank, [36, dim]), full * _stack_depth(dim) + extra, 8,
           Tolerance(), None)
          for dim, lam, rank, (full, extra) in zip(range(3, 9), (2.0, 0.7, -1.5, 3.0, -0.5, 2.0),
                                                   (1, 2, 4, 1, 3, 5), COUNTS)),
        # stacks of 113 candidates at n = 12
        (-1.5, random_projection(12, 5, [36, 12]), 2 * _stack_depth(12) + 44, 8, Tolerance(),
         None),
        # a loose zero test lets small perturbations of A pass both premises
        (2.0, random_projection(4, 2, 36), 2 * _stack_depth(4) + 44, 8,
         Tolerance(rel_zero=0.05), 0),
        # a looser one lets a fresh random matrix (candidate 1) pass them first
        (2.0, random_projection(4, 1, [50, 4, 3]), 2, 3, Tolerance(rel_zero=1.0), 1),
        # not a projection: B = A already fails the premises
        (1.5, random_hermitian(3, 37), 2 * _stack_depth(3) + 44, 8, Tolerance(), -1),
    ], ids=["rigid", *(f"rigid-dim{dim}" for dim in range(3, 9)), "rigid-dim12",
            "loose-tolerance",
            "loose-tolerance-mode1", "not-a-projection"])
    def test_lemma4_matches_rel_j_loop(self, lam, projection, candidates, seed, tol,
                                       refuted_by):
        first = self.serial_lemma4(lam, projection, candidates, seed, tol)
        assert (first if first is None or first < 0 else first % 3) == refuted_by
        rigid = first is None
        assert lemma4_check(lam, projection, candidates=candidates, seed=seed, tol=tol) == rigid


class TestNecessitySearch:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_finds_violation_quickly(self, dim):
        violation = necessity_search(dim, budget=100, seed=4)
        assert violation.trial < 100
        # the emitted triple re-validates
        m = necessity_map(dim)
        assert check_triadic(m, violation.a, violation.b, violation.c) == violation.direction

    def test_necessity_map_shifts_only_the_anchor(self):
        m = necessity_map(4)
        anchor = default_necessity_anchor(4)
        assert m.relation_kind == "quasi"
        assert np.array_equal(m.conjugator, np.eye(4))
        assert frobenius(apply_map(m, anchor) - anchor - np.eye(4)) == 0.0
        other = random_hermitian(4, 8)
        assert frobenius(apply_map(m, other) - other) <= 1e-12

    def test_compliant_shift_exhausts(self):
        compliant = PreserverMap(1.0, np.eye(3, dtype=complex),
                                 shift=ShiftPolicy("zero"), relation_kind="quasi")
        with pytest.raises(SearchExhausted):
            necessity_search(3, budget=25, seed=5, preserver=compliant)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match=f"^budget must be at least 1, got {budget}$"):
            necessity_search(3, budget=budget)

    @pytest.mark.parametrize("dim", [3, 6])
    def test_anticommutant_built_only_when_trial_0_does_not_decide(self, monkeypatch, dim):
        """Trial 0, the swap partner, decides the default search without the
        anchor's anticommutant; a search that goes on builds it once."""
        built = []
        solve = preservers.anticommutant
        monkeypatch.setattr(preservers, "anticommutant",
                            lambda a, tol: built.append(dim) or solve(a, tol))
        assert necessity_search(dim).trial == 0
        assert built == []
        compliant = PreserverMap(1.0, np.eye(dim, dtype=complex),
                                 shift=ShiftPolicy("zero"), relation_kind="quasi")
        with pytest.raises(SearchExhausted):
            necessity_search(dim, budget=5, preserver=compliant)
        assert built == [dim]


class TestLemma4Check:
    def test_reference_configuration(self):
        assert lemma4_check(2.0, random_projection(3, 1, 14), candidates=500, seed=6)

    def test_premises_hold_at_equality(self):
        lam = 2.0
        p = random_projection(4, 2, 15)
        a = lam * p
        eye = np.eye(4)
        assert rel_j(a - lam * eye, a)

    def test_rescaled_copy_fails_premises(self):
        lam = 2.0
        p = random_projection(3, 1, 16)
        a = lam * p
        b = 2.0 * a
        eye = np.eye(3)
        assert not (rel_j(a - lam * eye, b) and rel_j(b - lam * eye, a))

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            lemma4_check(0.0, random_projection(3, 1, 17))

    @pytest.mark.parametrize("lam,dim,rank", [(0.7, 3, 1), (-1.5, 4, 2), (3.0, 5, 4)])
    def test_rigidity_across_configurations(self, lam, dim, rank):
        assert lemma4_check(lam, random_projection(dim, rank, [18, dim, rank]),
                            candidates=400, seed=7)


class TestComposition:
    @pytest.mark.parametrize("anti1,anti2", [(False, False), (True, False),
                                             (False, True), (True, True)])
    def test_pointwise_agreement(self, anti1, anti2):
        m1 = PreserverMap(2.0, random_unitary(3, 19), antiunitary=anti1,
                          shift=ShiftPolicy("trace_based"))
        m2 = PreserverMap(-0.5, random_unitary(3, 20), antiunitary=anti2,
                          shift=ShiftPolicy("constant", value=0.3))
        comp = compose(m2, m1)
        for seed in range(20):
            a = random_hermitian(3, [seed, 21])
            assert frobenius(apply_map(m2, apply_map(m1, a)) - apply_map(comp, a)) <= 1e-10

    def test_verdicts_match_on_sampled_triples(self):
        m1 = PreserverMap(1.5, random_unitary(4, 22), antiunitary=True,
                          relation_kind="quasi")
        m2 = PreserverMap(-1.0, random_unitary(4, 23), relation_kind="quasi")
        comp = compose(m2, m1)
        for t in range(200):
            rng = np.random.default_rng([24, t])
            a, b, c = (random_hermitian(4, rng) for _ in range(3))
            two_step = check_triadic(m2, apply_map(m1, a), apply_map(m1, b), apply_map(m1, c))
            # composing the evaluations must agree with the composed-form map
            one_step = check_triadic(comp, a, b, c)
            source = triadic_relation(a, b, c, "quasi")
            image_two = triadic_relation(
                apply_map(m2, apply_map(m1, a)),
                apply_map(m2, apply_map(m1, b)),
                apply_map(m2, apply_map(m1, c)),
                "quasi",
            )
            expected = (
                BOTH_HOLD if source and image_two else
                BOTH_FAIL if not source and not image_two else
                VIOLATION_FORWARD if source else "violation_backward"
            )
            assert one_step == expected

    def test_composed_map_not_serializable(self):
        from commutant_lab.suites import violation_to_payload

        m1 = PreserverMap(1.0, random_unitary(3, 25), relation_kind="quasi")
        m2 = PreserverMap(2.0, random_unitary(3, 26), relation_kind="quasi",
                          shift=ShiftPolicy("constant", value=0.5))
        comp = compose(m2, m1)
        a, b, c = (random_hermitian(3, [27, k]) for k in range(3))
        violation = Violation(a=a, b=b, c=c, direction=VIOLATION_FORWARD, trial=0)
        with pytest.raises(ValueError, match="only ShiftPolicy shifts are serializable"):
            violation_to_payload(violation, comp)


class TestSeedValidation:
    @pytest.mark.parametrize("seed, shown", [(-1, "-1"), (1.5, "1.5")],
                             ids=["negative", "fractional"])
    @pytest.mark.parametrize("search", [
        lambda seed: property_run({3: identity_map(3)}, trials=1, seed=seed),
        lambda seed: necessity_search(3, budget=1, seed=seed),
        lambda seed: lemma4_check(2.0, diag(1, 0, 0), candidates=1, seed=seed),
        lambda seed: scalar_witness(diag(1, 2, 3), seed=seed),
    ], ids=["property_run", "necessity_search", "lemma4_check", "scalar_witness"])
    def test_bad_seed_rejected(self, search, seed, shown):
        with pytest.raises(ValueError,
                           match=f"^seed must be a nonnegative integer, got {shown}$"):
            search(seed)
