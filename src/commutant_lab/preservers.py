"""Maps of the classified form ``A -> c U A U* + shift(A) I`` (with an
optional entrywise conjugation for the antiunitary case), and property
machinery that tests whether they preserve the triadic relations in both
directions over sampled triples.

Shift rules are arbitrary per-input real functions; the quasi-side
"theorem-compliant" rule returns zero on every matrix that admits a
noncommuting anticommuting partner.  The necessity search demonstrates that
dropping this constraint breaks the quasi relation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .commutant import (
    SearchExhausted,
    _cut_masks,
    _pair_subspace,
    anticommutant,
    quasi_equals_commutant,
)
from .hermitian import (
    DEFAULT_TOLERANCE,
    RELATION_KINDS,
    Tolerance,
    _check_seed,
    _frobenius_stack,
    _hermitian,
    _projection,
    _stack_depth,
    _unitary,
    frobenius,
    rel_c,
    rel_stack,
    triadic_relation,
)
from .spectral import build_aef

__all__ = [
    "BOTH_FAIL",
    "BOTH_HOLD",
    "PreserverMap",
    "SearchExhausted",
    "ShiftPolicy",
    "TrialReport",
    "VIOLATION_BACKWARD",
    "VIOLATION_FORWARD",
    "Violation",
    "apply_map",
    "check_triadic",
    "compose",
    "default_necessity_anchor",
    "is_violation",
    "lemma4_check",
    "necessity_map",
    "necessity_search",
    "property_run",
]

BOTH_HOLD = "both_hold"
BOTH_FAIL = "both_fail"
VIOLATION_FORWARD = "violation_forward"
VIOLATION_BACKWARD = "violation_backward"
# Indexed by 2 * (source verdict) + (image verdict).
_VERDICTS = np.array([BOTH_FAIL, VIOLATION_BACKWARD, VIOLATION_FORWARD, BOTH_HOLD])

SHIFT_KINDS = ("zero", "constant", "trace_based", "theorem_compliant_quasi", "pinned")


@dataclass(eq=False)
class ShiftPolicy:
    """Deterministic rule assigning a real scalar shift to each input matrix.

    Kinds: ``zero``; ``constant`` (always ``value``); ``trace_based``
    (trace divided by dimension); ``pinned`` (``value`` on one anchor
    matrix, byte-exact after symmetrization, zero elsewhere);
    ``theorem_compliant_quasi`` (the inner policy where
    :func:`quasi_equals_commutant` holds, zero elsewhere).  A shift is
    called with the tolerance of the check that applies it, and only the
    quasi decision reads it.
    """

    kind: str
    value: float = 0.0
    anchor: np.ndarray | None = None
    inner: "ShiftPolicy | None" = None

    def __post_init__(self) -> None:
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if not np.isfinite(self.value):
            raise ValueError(f"shift value must be finite, got {self.value!r}")
        if self.kind == "pinned" and self.anchor is None:
            raise ValueError("pinned shift needs an anchor matrix")
        if self.kind == "theorem_compliant_quasi" and self.inner is None:
            self.inner = ShiftPolicy("zero")

    def __call__(self, a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "trace_based":
            return float(np.trace(a).real) / a.shape[0]
        if self.kind == "pinned":
            sym = (np.asarray(a, dtype=complex) + np.asarray(a, dtype=complex).conj().T) / 2.0
            anchor = (self.anchor + self.anchor.conj().T) / 2.0
            return self.value if np.array_equal(sym, anchor) else 0.0
        # theorem_compliant_quasi
        return self.inner(a, tol) if quasi_equals_commutant(a, tol) else 0.0


@dataclass(eq=False)
class PreserverMap:
    """The classified map form: scale, unitary conjugation, optional
    entrywise conjugation first (the antiunitary case), and a scalar shift.
    """

    scale: float
    conjugator: np.ndarray
    antiunitary: bool = False
    shift: ShiftPolicy = field(default_factory=lambda: ShiftPolicy("zero"))
    relation_kind: str = "commutative"

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and self.scale != 0.0):
            raise ValueError("scale must be nonzero and finite")
        u = np.asarray(self.conjugator, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"conjugator must be a square matrix, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("conjugator has non-finite entries")
        n = u.shape[0]
        if frobenius(u.conj().T @ u - np.eye(n)) > 1e-12:
            raise ValueError("conjugator is not unitary within 1e-12")
        if self.relation_kind not in RELATION_KINDS:
            raise ValueError(f"unknown relation kind {self.relation_kind!r}")
        self.conjugator = u

    @property
    def dim(self) -> int:
        return int(self.conjugator.shape[0])


def apply_map(m: PreserverMap, a: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Evaluate the map on one Hermitian matrix, or on each matrix of a stack
    ``(..., n, n)``; the output is Hermitian.  The shift is evaluated
    matrix by matrix, at ``tol``."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != m.conjugator.shape:
        raise ValueError(f"dimension mismatch: map is {m.conjugator.shape}, input {a.shape[-2:]}")
    n = m.dim
    x = a.conj() if m.antiunitary else a
    out = m.scale * (m.conjugator @ x @ m.conjugator.conj().T)
    out = (out + out.conj().swapaxes(-1, -2)) / 2.0
    shifts = np.array([m.shift(y, tol) for y in a.reshape(-1, n, n)], dtype=float)
    return out + shifts.reshape(a.shape[:-2] + (1, 1)) * np.eye(n)


def compose(outer: PreserverMap, inner: PreserverMap) -> PreserverMap:
    """Map of the same form acting like ``outer`` after ``inner``."""
    if outer.relation_kind != inner.relation_kind:
        raise ValueError("composition requires matching relation kinds")
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch between the two maps")
    u_inner = inner.conjugator.conj() if outer.antiunitary else inner.conjugator
    u = outer.conjugator @ u_inner

    def shift(a: np.ndarray, tol: Tolerance) -> float:
        return outer.scale * inner.shift(a, tol) + outer.shift(apply_map(inner, a, tol), tol)

    return PreserverMap(
        scale=outer.scale * inner.scale,
        conjugator=u,
        antiunitary=outer.antiunitary != inner.antiunitary,
        shift=shift,  # a raw callable: composed maps are not serializable
        relation_kind=outer.relation_kind,
    )


def check_triadic(
    m: PreserverMap,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> str | np.ndarray:
    """Compare the triadic relation on (A, B, C) against its image triple.

    Returns ``both_hold``/``both_fail`` when the map preserves the verdict,
    ``violation_forward`` when the relation holds only at the source and
    ``violation_backward`` when it holds only at the image.  Takes one
    triple and returns a ``str``, or three stacks ``(T, n, n)`` and returns
    an array of ``T`` verdicts.  The map's shift decides at ``tol`` too.
    """
    source = triadic_relation(a, b, c, m.relation_kind, tol)
    image = triadic_relation(*apply_map(m, np.stack([a, b, c]), tol), m.relation_kind, tol)
    verdict = _VERDICTS[2 * np.asarray(source, dtype=int) + image]
    return verdict if verdict.ndim else str(verdict)


def is_violation(verdict: str) -> bool:
    return verdict in (VIOLATION_FORWARD, VIOLATION_BACKWARD)


@dataclass
class Violation:
    """One counterexample triple, with full matrices for replay."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    direction: str
    trial: int


@dataclass
class TrialReport:
    """Outcome of one property suite run."""

    trials: int
    violations: list[Violation]

    @property
    def passed(self) -> bool:
        return not self.violations


@functools.lru_cache(maxsize=64)
def _aef_fixtures(weight: float, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`build_aef`, cached and read-only, since mode-3 triples hold
    these very arrays."""
    fixtures = build_aef(weight, dim)
    for x in fixtures:
        x.flags.writeable = False
    return fixtures


def _spectral(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``V diag(values) V*``, symmetrized, for one eigenbasis or a stack."""
    c = (v * values[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (c + c.conj().swapaxes(-1, -2)) / 2.0


def _swap_partner(v: np.ndarray) -> np.ndarray:
    """``V S V*``, symmetrized, for one unitary or a stack; ``S`` swaps the
    first two coordinates and has unit Frobenius norm."""
    n = v.shape[-1]
    swap = np.zeros((n, n), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0 / np.sqrt(2.0)
    c = v @ swap @ v.conj().swapaxes(-1, -2)
    return (c + c.conj().swapaxes(-1, -2)) / 2.0


def _structured_trial(rng: np.random.Generator, dim: int, tol: Tolerance):
    """Triple biased so the source relation is often true or a near miss.

    Random triples essentially never satisfy the relation, so generators
    draw the third matrix from structures commuting or anticommuting with
    the difference of the first two.  A coroutine of :func:`_staged_triples`:
    it yields its linear algebra as requests and returns the triple.
    """
    def normals():
        return rng.standard_normal((2, dim, dim))

    mode = int(rng.integers(6))
    if mode == 0:  # scalar difference: relation true for every C
        raw_b, shift = normals(), float(rng.standard_normal())
        b, c = yield (_hermitian, raw_b), (_hermitian, normals())
        return b + shift * np.eye(dim), b, c
    if mode == 1:  # C a spectral function of the difference: commutes
        a, b = yield (_hermitian, normals()), (_hermitian, normals())
        (_, v), = yield (np.linalg.eigh, a - b),
        c, = yield (_spectral, v, rng.standard_normal(dim)),
        return a, b, c
    if mode == 2:  # difference with a sign-symmetric pair, C the partner
        lam = float(rng.uniform(0.5, 2.0))
        values = np.concatenate([[lam, -lam], rng.standard_normal(dim - 2)])
        v, b = yield (_unitary, normals()), (_hermitian, normals())
        d, c = yield (_spectral, v, values), (_swap_partner, v)
        return b + d, b, c
    if mode == 3:  # block fixtures on a weight grid: boundary cases
        weight = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        fa, fe, ff = _aef_fixtures(weight, dim)
        grid = [-2.0, -1.0, 0.5, 1.0, 2.0]
        alpha = float(rng.choice(grid))
        eps = alpha if rng.random() < 0.5 else float(rng.choice(grid))
        return alpha * fa, eps * fe, ff
    if mode == 4:  # affine projections
        rank_a, rank_b = int(rng.integers(1, dim)), int(rng.integers(1, dim))
        # A = s_a P_a + t_a I and B = s_b P_b + t_b I
        s_a, raw_a, t_a = float(rng.standard_normal()), normals(), float(rng.standard_normal())
        s_b, raw_b, t_b = float(rng.standard_normal()), normals(), float(rng.standard_normal())
        rank_c = int(rng.integers(1, dim))
        u_a, u_b, u_c = yield (_unitary, raw_a), (_unitary, raw_b), (_unitary, normals())
        eye = np.eye(dim)
        return (s_a * _projection(u_a, rank_a) + t_a * eye,
                s_b * _projection(u_b, rank_b) + t_b * eye,
                _projection(u_c, rank_c))
    # mode 5: C from the anticommutant of a sign-symmetric difference
    lam = float(rng.uniform(0.5, 2.0))
    fill = rng.standard_normal(dim - 2) if dim > 2 else np.zeros(0)
    values = np.concatenate([[lam, -lam], fill])
    v, = yield (_unitary, normals()),
    d, = yield (_spectral, v, values),
    # The one boundary that depends on data: how many coefficients the
    # trial draws next is the dimension of the anticommutant of d.
    (w, vectors), = yield (np.linalg.eigh, d),
    _, anti, _ = _cut_masks(w, frobenius(d), tol)
    part = _pair_subspace(vectors, anti)
    if part.real_dimension:
        c = part.random_element(rng)
        b, = yield (_hermitian, normals()),
    else:
        c, b = yield (_hermitian, normals()), (_hermitian, normals())
    return b + d, b, c


def _trial(rng: np.random.Generator, dims: tuple[int, ...], tol: Tolerance):
    """One trial of :func:`property_run` as a coroutine of
    :func:`_staged_triples`: a dimension, then a structured or a fully
    random triple with equal probability.  Returns ``(dim, (a, b, c))``."""
    dim = dims[int(rng.integers(len(dims)))]
    if rng.random() < 0.5:
        return dim, (yield from _structured_trial(rng, dim, tol))
    a, b, c = yield tuple((_hermitian, rng.standard_normal((2, dim, dim))) for _ in range(3))
    return dim, (a, b, c)


def _staged_triples(seed: int, start: int, stop: int, dims: tuple[int, ...], tol: Tolerance):
    """``(dim, (a, b, c))`` of the trials ``start .. stop - 1``, in trial order.

    Each trial is a coroutine with its own generator ``default_rng([seed,
    t])`` that makes every draw in the order of the serial generator
    (``tests/oracles.py``) and yields its linear algebra as a tuple of
    requests ``(function, *arrays)``.  A round advances every pending trial
    to its next requests, then makes each group of requests with the same
    function and first-array shape one call on stacked arrays, which
    treats every slice as the per-matrix call would, and sends each trial
    its slices.
    """
    trials = [_trial(np.random.default_rng([seed, t]), dims, tol) for t in range(start, stop)]
    triples = [None] * len(trials)
    replies: list = [None] * len(trials)
    pending = range(len(trials))
    while pending:
        groups: dict = {}
        waiting = []
        for i in pending:
            try:
                requests = trials[i].send(replies[i])
            except StopIteration as done:
                triples[i] = done.value
                continue
            waiting.append(i)
            replies[i] = [None] * len(requests)
            for j, (fn, *args) in enumerate(requests):
                groups.setdefault((fn, args[0].shape), []).append((i, j, args))
        for (fn, _), group in groups.items():
            out = fn(*(np.stack(column) for column in zip(*(args for _, _, args in group))))
            for (i, j, _), result in zip(group, zip(*out) if isinstance(out, tuple) else out):
                replies[i][j] = result
        pending = waiting
    return triples


def property_run(
    maps: PreserverMap | dict[int, PreserverMap],
    trials: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> TrialReport:
    """Aggregate triadic verdicts on ``trials`` sampled triples.

    ``maps`` is one map or a dict keyed by dimension; each trial derives its
    own generator from ``(seed, trial index)``, so runs replay exactly and
    trials may be evaluated in any order.  Each trial draws a structured
    or a fully random triple with equal probability.  Triples are drawn
    ``BLOCK`` trials at a time (fewer past n = 11 for the largest dimension,
    see :func:`~commutant_lab.hermitian._stack_depth`) by
    :func:`_staged_triples`, and each block is evaluated per dimension in
    one stack; the verdicts are those of :func:`check_triadic`, and
    violations are listed in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_seed(seed)
    if isinstance(maps, PreserverMap):
        maps = {maps.dim: maps}
    dims = tuple(sorted(maps))
    violations: list[Violation] = []
    step = _stack_depth(max(dims))
    for start in range(0, trials, step):
        drawn: dict[int, list] = {}  # dim -> [(trial, (a, b, c))]
        stop = min(start + step, trials)
        for t, (dim, triple) in enumerate(_staged_triples(seed, start, stop, dims, tol), start):
            drawn.setdefault(dim, []).append((t, triple))
        found = []
        for dim, group in drawn.items():
            stack = np.array([triple for _, triple in group], dtype=complex)
            verdicts = check_triadic(maps[dim], stack[:, 0], stack[:, 1], stack[:, 2], tol)
            found += [Violation(*group[i][1], direction=str(verdicts[i]), trial=group[i][0])
                      for i in np.flatnonzero((verdicts == VIOLATION_FORWARD)
                                              | (verdicts == VIOLATION_BACKWARD))]
        violations += sorted(found, key=lambda v: v.trial)
    return TrialReport(trials=trials, violations=violations)


def default_necessity_anchor(dim: int) -> np.ndarray:
    """diag(1, -1, 0, ...): the canonical matrix with an anticommuting,
    noncommuting partner."""
    if dim < 3:
        raise ValueError("dimension must be at least 3")
    values = np.zeros(dim)
    values[0], values[1] = 1.0, -1.0
    return np.diag(values).astype(complex)


def necessity_map(dim: int) -> PreserverMap:
    """The quasi-side map that fails the vanishing-shift condition: identity
    conjugation, shifted by one on ``diag(1, -1, 0, ...)`` and nowhere else."""
    return PreserverMap(
        scale=1.0,
        conjugator=np.eye(dim, dtype=complex),
        antiunitary=False,
        shift=ShiftPolicy("pinned", value=1.0, anchor=default_necessity_anchor(dim)),
        relation_kind="quasi",
    )


def necessity_search(
    dim: int,
    budget: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOLERANCE,
    preserver: PreserverMap | None = None,
) -> TrialReport:
    """Exhibit a triple broken by a quasi-side map whose shift is nonzero on
    a matrix with a noncommuting anticommuting partner.

    The default map is :func:`necessity_map`; candidate triples pair its
    anchor ``diag(1, -1, 0, ...)`` with a scalar and a third matrix drawn
    from the anchor's anticommutant but not its commutant.  Raises
    :class:`SearchExhausted` when no violation shows up within ``budget``
    trials, which is the expected outcome for a compliant (all-zero) shift.
    """
    _check_seed(seed)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    a0 = default_necessity_anchor(dim)
    if preserver is None:
        preserver = necessity_map(dim)
    part = anticommutant(a0, tol)
    swap = np.zeros((dim, dim), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0 / np.sqrt(2.0)

    def candidate(trial: int, rng: np.random.Generator) -> np.ndarray:
        if trial == 0:
            return swap
        for _ in range(16):
            c = part.random_element(rng)
            if not rel_c(a0, c, tol):
                return c
        return swap

    zero = np.zeros((dim, dim), dtype=complex)
    for t in range(budget):
        rng = np.random.default_rng([seed, t])
        c = candidate(t, rng)
        verdict = check_triadic(preserver, a0, zero, c, tol)
        if is_violation(verdict):
            return TrialReport(trials=t + 1, violations=[
                Violation(a=a0, b=zero, c=c, direction=verdict, trial=t)])
    raise SearchExhausted(
        f"no violating triple within {budget} trials; the shift appears compliant"
    )


def _lemma4_candidates(a: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """The :func:`lemma4_check` candidates ``start .. stop - 1`` around ``A``.

    Each generator ``default_rng([seed, t])`` makes its draws in the order
    of a per-candidate build; then each mode's arithmetic runs once on the
    stack of its rows.  The stacked norm of mode 0 may differ from
    ``frobenius`` in the last bit, and so may those candidates.
    """
    n = a.shape[0]
    mode = np.arange(start, stop) % 3
    normals = np.zeros((stop - start, 2, n, n))  # mode 2 draws none
    draw = np.zeros(stop - start)  # log10 eps (mode 0) or the factor (mode 2)
    for i, t in enumerate(range(start, stop)):
        rng = np.random.default_rng([seed, t])
        if t % 3 == 2:
            draw[i] = rng.uniform(-3.0, 3.0)
        else:
            rng.standard_normal(out=normals[i])
            if t % 3 == 0:
                draw[i] = rng.uniform(-4, 1)
    h = _hermitian(normals)
    b = draw[:, None, None] * a
    perturb, fresh = mode == 0, mode == 1
    x = h[perturb] / _frobenius_stack(h)[perturb, None, None]
    b[perturb] = a + (10.0 ** draw[perturb])[:, None, None] * x
    b[fresh] = h[fresh] * max(1.0, frobenius(a))
    return b


def lemma4_check(
    lam: float,
    projection: np.ndarray,
    candidates: int = 1000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> bool:
    """Rigidity of the mutual shifted-anticommutation premises at ``A = lam P``.

    Confirms that B = A satisfies both ``(A - lam I) o B = 0`` and
    ``(B - lam I) o A = 0``, then checks that no sampled B farther than
    1e-6 from A satisfies both.  Candidate ``t`` draws from its own
    generator ``default_rng([seed, t])`` and, by ``t % 3``, is a
    perturbation ``A + eps X`` of A (X a unit random matrix), a fresh
    random matrix or a rescaling of A.  Candidates are built by
    :func:`_lemma4_candidates` and tested ``BLOCK`` at a time (fewer past
    n = 11, see :func:`~commutant_lab.hermitian._stack_depth`).
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    _check_seed(seed)
    a = lam * np.asarray(projection, dtype=complex)
    n = a.shape[0]
    lam_eye = lam * np.eye(n, dtype=complex)

    def premises(b: np.ndarray) -> np.ndarray:
        """Both premises for each B of a stack ``(T, n, n)``."""
        _, first = rel_stack(a - lam_eye, b, tol)
        _, second = rel_stack(a, b - lam_eye, tol)  # (B - lam I) o A
        return first & second

    if not premises(a[None])[0]:
        return False
    step = _stack_depth(n)
    for start in range(0, candidates, step):
        b = _lemma4_candidates(a, seed, start, min(start + step, candidates))
        if (premises(b) & (_frobenius_stack(b - a) > 1e-6)).any():
            return False
    return True
