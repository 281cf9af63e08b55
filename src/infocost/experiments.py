"""Finite statistical experiments and their ordering algebra.

An experiment is a family of probability rows over a common signal set, one
row per state.  This module provides the validated container types plus the
operations the cost theory is built on: products (independent observation),
dilution (observe with probability alpha), garbling (post-processing by a
stochastic matrix), Kullback-Leibler divergence, Bayesian posteriors, the
distribution of the log-likelihood-ratio vector, and a least-squares test
of informativeness dominance.

All probabilities are strictly positive by construction: entries at or below
1e-12 are rejected, never clamped, because clamping would silently corrupt
divergence values downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import NDArray

from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    DuplicateValues,
    InfoCostError,
    NonPositiveEntry,
    NotFullSupport,
    PriorNotFullSupport,
    RowSumViolation,
    SolverFailure,
    StateSpaceMismatch,
    ValidationError,
    _is_real,
    _real,
)

ENTRY_FLOOR = 1e-12
ROW_SUM_TOL = 1e-9
LLR_MERGE_TOL = 1e-12
DOMINANCE_TOL = 1e-8


def _check_reals(obj, what: str) -> None:
    """ValidationError unless every entry of obj, read through lists, tuples
    and ranges, is a real (`_is_real`: no bools, no strings) or an integer
    or float array."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fiu":
            raise ValidationError(f"{what}: {obj.dtype} array is not real")
    elif isinstance(obj, (list, tuple)):
        if not set(map(type, obj)) <= {float, int}:  # else every entry is real
            for x in obj:
                _check_reals(x, what)
    elif not isinstance(obj, range) and not _is_real(obj):
        raise ValidationError(f"{what}: {obj!r} is not a real number")


def _floats(obj, what: str, shape: tuple | None = None) -> np.ndarray:
    """A float array copy of obj; ValidationError if ragged, if some entry is
    not a real number (`_check_reals`) or is an integer too large for a
    float, DimensionMismatch if not of `shape`."""
    _check_reals(obj, what)
    try:
        out = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if shape is not None and out.shape != shape:
        raise DimensionMismatch(f"{what}: shape {out.shape}, expected {shape}")
    return out


def _parsed(text: str, what: str) -> float:
    """The number that text spells, as float() reads it; ValidationError if
    it spells none."""
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _finite(obj, what: str, shape: tuple | None = None) -> np.ndarray:
    """`_floats(obj, what, shape)`; ValidationError unless every entry is finite."""
    out = _floats(obj, what, shape)
    if not np.isfinite(out).all():
        raise ValidationError(f"non-finite {what}")
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    """a, at least 2-d and read-only."""
    a = np.atleast_2d(a)
    a.flags.writeable = False
    return a


def _labels(obj, what: str) -> tuple:
    """obj as a tuple of labels; ValidationError unless it is a sequence of
    distinct hashable labels."""
    try:
        labels = tuple(obj)
        repeated = len(set(labels)) != len(labels)
    except TypeError:
        raise ValidationError(f"{what} labels must be a sequence of hashables") from None
    if repeated:
        raise ValidationError(f"{what} labels must be unique")
    return labels


def _check_prob_matrix(
    probs: np.ndarray, what: str, error=NonPositiveEntry, positive: bool = True
) -> None:
    """Reject a probability row, or matrix of rows, with a bad entry
    (`error`) or a row that does not sum to 1 (RowSumViolation).

    Entries must be finite and above ENTRY_FLOOR or, when not `positive`,
    non-negative; an infinite entry then fails the row sum.  NaN fails
    every comparison.
    """
    if positive:
        ok = np.isfinite(probs) & (probs > ENTRY_FLOOR)
        bound = f"finite and above the floor {ENTRY_FLOOR:g}"
    else:
        ok = probs >= 0.0
        bound = "non-negative"
    if not ok.all():
        at = np.argwhere(~ok)[0]
        where = ",".join(map(str, at))
        raise error(f"{what}: entry ({where}) = {probs[tuple(at)]:g} is not {bound}")
    sums = np.atleast_1d(probs.sum(axis=-1))
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RowSumViolation(f"{what}: row {i} sums to {float(sums[i])!r}")


def _full_support_row(p, n: int, what: str, error=NotFullSupport) -> np.ndarray:
    """A copy of `p` as a float vector, checked to have length n, full
    support above ENTRY_FLOOR (else `error`) and sum 1."""
    p = _floats(p, what, (n,))
    _check_prob_matrix(p, what, error)
    return p


@dataclass(frozen=True)
class StateSpace:
    """Ordered state labels, optionally with numeric positions attached.

    Values are needed only by the one-dimensional coefficient rules and the
    continuity diagnostics; plain labeled states work everywhere else.
    """

    labels: tuple
    values: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", _labels(self.labels, "state"))
        if len(self.labels) < 2:
            raise ValidationError("need at least 2 states")
        if self.values is not None:
            vals = _finite(self.values, "state values", (len(self.labels),))
            object.__setattr__(self, "values", tuple(vals.tolist()))
            if len(set(self.values)) != len(self.values):
                raise DuplicateValues("state values must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)


@dataclass(frozen=True, eq=False)
class Experiment:
    """State-indexed probability rows over a common signal set."""

    states: StateSpace
    signals: tuple
    probs: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "signals", _labels(self.signals, "signal"))
        shape = (self.states.n, len(self.signals))
        probs = _freeze(_floats(self.probs, "experiment probs", shape))
        object.__setattr__(self, "probs", probs)
        _check_prob_matrix(probs, "experiment")

    @property
    def n_states(self) -> int:
        return self.states.n

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    def row(self, i: int) -> np.ndarray:
        return self.probs[i]


def make_experiment(states: StateSpace, signals: Sequence, probs) -> Experiment:
    """Validating constructor; rejects zeros and unnormalized rows."""
    return Experiment(states, signals, probs)


def make_normalized_experiment(states: StateSpace, signals: Sequence, probs) -> Experiment:
    """Constructor that rescales each row to sum to 1 before validating.

    Convenience for inputs assembled from unnormalized weights.  Note this
    alters the data it is given: the stored rows are the rescaled ones.
    """
    p = np.atleast_2d(_floats(probs, "experiment probs"))
    sums = p.sum(axis=1, keepdims=True)
    if np.any(sums <= 0) or not np.all(np.isfinite(sums)):
        raise ValidationError("rows must have positive finite mass")
    return Experiment(states, signals, p / sums)


def binary_experiment(p: float, states: StateSpace | None = None) -> Experiment:
    """Two-state two-signal experiment with rows (p, 1-p) and (1-p, p)."""
    if states is None:
        states = StateSpace(("H", "L"))
    if states.n != 2:
        raise DimensionMismatch("binary_experiment needs exactly 2 states")
    p = _real(p, "p", -math.inf)
    return Experiment(states, ("h", "t"), np.array([[p, 1 - p], [1 - p, p]]))


def uninformative_experiment(states: StateSpace, weights: Sequence[float] = (1.0,)) -> Experiment:
    """Experiment whose rows are all equal; carries no information."""
    w = _floats(weights, "weights").ravel()
    signals = tuple(f"u{k}" for k in range(w.size))
    return make_normalized_experiment(states, signals, np.tile(w, (states.n, 1)))


@dataclass(frozen=True, eq=False)
class GarblingMatrix:
    """Row-stochastic post-processing kernel from source to target signals."""

    probs: NDArray[np.float64]

    def __post_init__(self):
        probs = _freeze(_floats(self.probs, "garbling"))
        object.__setattr__(self, "probs", probs)
        _check_prob_matrix(probs, "garbling", positive=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape


def product(a: Experiment, b: Experiment) -> Experiment:
    """Independent observation of both experiments.

    Signals are ordered pairs (s, t) in row-major order over
    a.signals x b.signals; probabilities multiply state by state.
    """
    if a.states != b.states:
        raise StateSpaceMismatch("product requires a common state space")
    signals = tuple((s, t) for s in a.signals for t in b.signals)
    probs = np.einsum("is,it->ist", a.probs, b.probs).reshape(a.n_states, -1)
    return Experiment(a.states, signals, probs)


def dilute(mu: Experiment, alpha: float) -> Experiment:
    """Run mu with probability alpha, otherwise emit one fresh null symbol.

    alpha = 1 returns a copy without the extra symbol.  alpha = 0 is
    rejected; a pure null experiment is a single-column make_experiment call.
    """
    alpha = _real(alpha, "alpha", 0.0, 1.0, AlphaOutOfRange, closed=True)
    if alpha == 1.0:
        return Experiment(mu.states, mu.signals, mu.probs)
    # deterministic fresh name: "o", then "o1", "o2", ... on collision
    fresh = "o"
    k = 1
    while fresh in mu.signals:
        fresh = f"o{k}"
        k += 1
    probs = np.hstack(
        [alpha * mu.probs, np.full((mu.n_states, 1), 1.0 - alpha)]
    )
    return Experiment(mu.states, mu.signals + (fresh,), probs)


def garble(mu: Experiment, g: GarblingMatrix) -> Experiment:
    """Post-process signals through g; target signals are indexed 0..m-1."""
    if g.shape[0] != mu.n_signals:
        raise DimensionMismatch(
            f"garbling has {g.shape[0]} rows for {mu.n_signals} signals"
        )
    probs = mu.probs @ g.probs
    return Experiment(mu.states, tuple(range(g.shape[1])), probs)


def _nonnegative(cost: float) -> float:
    """cost clamped at 0, which can only shrink the rounding error of a sum
    of divergences; NaN and inf pass unchanged."""
    return 0.0 if cost < 0.0 else cost


def kl_divergence(p, q) -> float:
    """Expected log-likelihood ratio sum(p * ln(p/q)), in nats.

    Strictly positive rows only; zero entries are outside this model class.
    Non-negative, clamped at 0 as _nonnegative clamps, and 0 when p equals q.
    """
    p = _floats(p, "kl first argument").ravel()
    q = _floats(q, "kl second argument", p.shape)
    _check_prob_matrix(p, "kl first argument")
    _check_prob_matrix(q, "kl second argument")
    return _nonnegative(float(np.dot(p, np.log(p / q))))


def posterior_distribution(mu: Experiment, prior) -> list[tuple[np.ndarray, float]]:
    """Bayesian posteriors and signal marginals, one pair per signal."""
    prior = _full_support_row(prior, mu.n_states, "prior", PriorNotFullSupport)
    return _posteriors(mu, prior)


def _posteriors(mu: Experiment, q: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """`posterior_distribution` at a prior q already checked."""
    joint = q[:, None] * mu.probs
    marginals = joint.sum(axis=0)
    posteriors = joint / marginals
    return [
        (posteriors[:, s].copy(), float(marginals[s]))
        for s in range(mu.n_signals)
    ]


def _merge_point_rows(
    points: np.ndarray, weights: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Group the lexicographically sorted rows of `points`; sum weights.

    Walking the sorted rows, a row joins the current group when it lies
    within componentwise tol of the group's first member (its anchor), and
    starts a new group otherwise.  So every member lies within tol of its
    anchor and groups never chain beyond 2 tol per component, but rows
    within tol of each other stay apart when the sort puts a row of another
    group between them.  Each group is represented, in sorted order, by the
    plain mean of its members.  `weights` has one column per point and any
    number of rows.  Points must be finite.

    The sort is one stable `np.argsort`, so equal rows keep their input
    order and the permutation is `np.lexsort`'s.  Its key is the float
    itself in one dimension and the pair as a complex number, ordered by
    real then imaginary part, in two.  From three on it is the row's bytes:
    each coordinate, -0.0 folded into +0.0, as the unsigned integer of the
    same order (its bits with the sign bit flipped, or all bits flipped when
    negative), big-endian.  Timsort merges presorted runs without re-sorting.

    Every anchor precedes its members in the sort, so its first coordinate
    is no larger than theirs: a first-coordinate gap above tol between
    neighbouring rows always starts a new group.  Those gaps cut the rows
    into segments, and a segment whose rows all lie within tol of its first
    row is exactly one group.  One elementwise test, |row - its segment's
    first row| > tol, finds the other segments; only they need the
    sequential anchor walk.
    """
    k, d = points.shape
    if d == 1:
        key = points[:, 0]
    elif d == 2:
        key = np.ascontiguousarray(points).view(np.complex128)[:, 0]
    else:
        bits = (points + 0.0).view(np.int64)
        key = np.ascontiguousarray(bits ^ ((bits >> 63) | (-1 << 63)), ">i8")
        key = key.view(f"S{8 * d}")[:, 0]
    order = np.argsort(key, kind="stable")
    sorted_points = points.take(order, axis=0)
    first = sorted_points[:, 0]
    # True at each group start: first the segment starts, then the walk's
    starts = np.empty(k, dtype=bool)
    starts[0] = True
    np.greater(first[1:] - first[:-1], tol, out=starts[1:])
    idx = starts.nonzero()[0]
    counts = np.concatenate((idx[1:], [k])) - idx
    far = np.abs(sorted_points - np.repeat(sorted_points[idx], counts, axis=0)) > tol
    if far.any():
        walk = np.logical_or.reduceat(far.any(axis=1), idx)
        for lo, n in zip(idx[walk].tolist(), counts[walk].tolist()):
            # plain floats keep the walk off the numpy scalar path
            rows = sorted_points[lo : lo + n].tolist()
            anchor = rows[0]
            for s in range(1, n):
                if any(abs(a - x) > tol for a, x in zip(anchor, rows[s])):
                    starts[lo + s] = True
                    anchor = rows[s]
        idx = starts.nonzero()[0]
        counts = np.concatenate((idx[1:], [k])) - idx
    merged_points = np.add.reduceat(sorted_points, idx, axis=0) / counts[:, None]
    merged_weights = np.add.reduceat(weights.take(order, axis=1), idx, axis=1)
    return merged_points, merged_weights


@dataclass(frozen=True, eq=False)
class LLRDistribution:
    """Joint law of the log-likelihood-ratio vector under each state.

    atoms has one row per distinct LLR vector (components are ln of state i
    versus state 0 likelihood ratios, i = 1..n-1); weights row i gives the
    probability of each atom under state i, i = 0..n-1.
    """

    atoms: NDArray[np.float64]
    weights: NDArray[np.float64]

    def __post_init__(self):
        atoms = _freeze(_finite(self.atoms, "atoms"))
        weights = _freeze(_floats(self.weights, "atom weights"))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.shape[0] != weights.shape[1]:
            raise DimensionMismatch(
                f"{atoms.shape[0]} atoms but weight rows of length "
                f"{weights.shape[1]}"
            )
        if weights.shape[0] != atoms.shape[1] + 1:
            raise DimensionMismatch(
                "need one weight row per state (atom dimension + 1)"
            )
        _check_prob_matrix(weights, "atom weights", positive=False)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]


def llr_distribution(mu: Experiment) -> LLRDistribution:
    """Distribution of the LLR vector, with coinciding signals merged.

    Signals are merged by `_merge_point_rows` at componentwise tolerance
    1e-12: each atom gathers signals whose LLR vectors lie within 1e-12 of
    its lexicographically first one, and atoms come out in lexicographic
    order.  Vectors within 1e-12 of each other can still give two atoms
    when the sort puts another signal's vector between them.
    """
    xi = np.log(mu.probs[1:] / mu.probs[0]).T  # one row per signal
    atoms, weights = _merge_point_rows(xi, mu.probs, LLR_MERGE_TOL)
    dist = LLRDistribution(atoms, weights)
    if not check_admissible(dist, 1e-8):
        raise InfoCostError("internal: merged LLR distribution inadmissible")
    return dist


def check_admissible(sigma: LLRDistribution, tol: float = 1e-8) -> bool:
    """Whether the weight rows satisfy sigma_i = exp(xi_i) * sigma_0 per atom.

    Exactly the distributions arising from some experiment pass this.
    """
    tol = _real(tol, "tol")
    expected = np.exp(sigma.atoms.T) * sigma.weights[0]
    return bool(np.all(np.abs(sigma.weights[1:] - expected) <= tol))


def convolve_llr(a: LLRDistribution, b: LLRDistribution) -> LLRDistribution:
    """LLR distribution of the product experiment: atoms add, weights multiply.

    Statewise convolution with a shared atom merge, so the result stays
    admissible.  Avoids materializing product experiments whose signal count
    grows geometrically.

    The ka * kb product rows form min(ka, kb) runs: the larger operand's
    atoms, which the merge left sorted, shifted by one atom of the smaller.
    So the merge's stable sort meets a few long, nearly sorted runs, and
    unequal counts give the same bits in either operand order.
    """
    if a.n_states != b.n_states:
        raise DimensionMismatch("state counts differ")
    if a.n_atoms > b.n_atoms:
        a, b = b, a
    ka, kb = a.n_atoms, b.n_atoms
    points = (a.atoms[:, None, :] + b.atoms[None, :, :]).reshape(ka * kb, -1)
    weights = (a.weights[:, :, None] * b.weights[:, None, :]).reshape(
        a.n_states, ka * kb
    )
    merged_points, merged_weights = _merge_point_rows(
        points, weights, LLR_MERGE_TOL
    )
    return LLRDistribution(merged_points, merged_weights)


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson non-negative least squares: x >= 0 minimising |A x - b|
    (Lawson & Hanson 1974, ch. 23).  It stops once w = A^T (b - A x) <= tol
    off the passive set, a Farkas certificate for A x = b, x >= 0 when the
    residual is nonzero, or when a step fails to reduce the residual.

    blackwell_dominates calls it only for a pair that its least-squares
    solve and witnesses leave undecided.
    """
    n = A.shape[1]
    tol = 10 * max(A.shape) * np.finfo(float).eps * np.abs(A).sum(axis=0).max()
    x, r = np.zeros(n), b
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        w = A.T @ r
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x
        passive[j] = True
        y = x
        while True:
            AP = A[:, passive]
            s = np.zeros(n)
            s[passive] = np.linalg.solve(AP.T @ AP, AP.T @ b)
            back = passive & (s <= 0.0)
            if not back.any():
                break
            step = np.divide(y, y - s, out=np.zeros(n), where=back & (y > 0.0))
            y = y + step[back].min() * (s - y)
            passive &= y > tol
        r_s = b - A @ s
        if r_s @ r_s >= r @ r:
            return x
        x, r = s, r_s
    raise SolverFailure("non-negative least squares hit the iteration cap")


def _slack(mu: np.ndarray, nu: np.ndarray, R: np.ndarray, tol: float) -> float:
    """Bound on V_nu(R) - V_mu(R), as computed, for every garbling that
    blackwell_dominates' acceptance test passes at this tol; the
    derivation is in its docstring."""
    n, k = mu.shape
    m = nu.shape[1]
    rounding = 4 * (n + k + m) * np.finfo(float).eps
    return float(np.abs(R).max()) * (m * n + (2 * m + 1) * float(mu.sum())) * (tol + rounding)


def _refutes(mu: np.ndarray, nu: np.ndarray, R: np.ndarray, tol: float) -> bool:
    """Whether the decision problem R (states x actions) is worth more
    under nu than under mu by more than _slack, so nu is no garbling of mu.
    V_E(R) = sum_c max_u (E^T R)_cu is E's value of R."""
    gap = (nu.T @ R).max(axis=1).sum() - (mu.T @ R).max(axis=1).sum()
    return bool(gap > _slack(mu, nu, R, tol))


def blackwell_dominates(
    mu: Experiment, nu: Experiment, tol: float = DOMINANCE_TOL
) -> bool:
    """Whether nu is a garbling of mu, by least squares.

    The unknown x is the k x m garbling g with row c scaled by mu's mass on
    signal c, so every column of the system A x = b has 1-norm 2 and rare
    signals fit as closely as common ones.  The acceptance test normalises
    the rows of an x >= 0 into g and passes it when g >= -tol, its rows sum
    to 1 within tol and mu g matches nu.probs within tol: the verdict True,
    with g as its witness.

    One least-squares solve of A x = b comes first, with three outcomes:

    1. x >= 0.  A feasible unconstrained minimiser is the non-negative one,
       so the acceptance test decides at x; a False verdict there carries
       no witness.
    2. Some x < 0.  Two decision problems R are tried, and a False verdict
       has the first R that _refutes as its witness: V_nu(R) - V_mu(R)
       exceeds the slack below, with V_E(R) = sum_c max_u (E^T R)_cu.
       - The fit block of the residual r = b - A x, as an n x m matrix.
         At the least-squares optimum A^T r = 0, so (mu^T R)_cu does not
         depend on u, and nu playing action u at its signal u gains at
         least b.r = |r|^2 over mu.
       - When A has full column rank (mu's columns are independent),
         R = [0, -v] with mu^T v = e_c for the row c of g with the most
         negative mass: mu's value is 0, and nu's is that mass when
         mu g = nu.
    3. Neither decides.  _nnls finds x >= 0 and the acceptance test
       decides at it; a False verdict there carries no witness.

    The slack.  Let g pass the acceptance test: g = g+ - g- with
    0 <= g- <= tol, row sums 1 + d_c with |d_c| <= tol, and
    nu = mu g + E with |E| <= tol.  Put M_c = max_u (mu^T R)_cu and
    S = sum_ic mu_ic.  For each signal s of nu,
    max_u (nu^T R)_su <= sum_c g+_cs M_c + tol S max|R| + tol n max|R|,
    bounding the g- part by |(mu^T R)_cu| <= max|R| sum_i mu_ic.  Summed
    over the m signals, sum_s g+_cs = 1 + d_c + sum_s g-_cs lies within
    (1 + m) tol of 1, and sum_c |M_c| <= S max|R|, so
    V_nu(R) - V_mu(R) <= tol max|R| (m n + (2m + 1) S).
    _slack takes tol + 4 (n + k + m) eps in place of tol, the second term
    covering the rounding of the gap and of the acceptance test.  R is
    checked directly, so how it was found has no bearing on soundness.
    """
    if mu.states != nu.states:
        raise StateSpaceMismatch("dominance needs a common state space")
    tol = _real(tol, "tol")
    n, k, m = mu.n_states, mu.n_signals, nu.n_signals
    mass = mu.probs.sum(axis=0)
    fit = np.einsum("ic,tu->itcu", mu.probs / mass, np.eye(m)).reshape(-1, k * m)
    A = np.vstack([np.repeat(np.eye(k), m, axis=1), fit])
    b = np.concatenate([mass, nu.probs.ravel()])
    x, _, rank, _ = np.linalg.lstsq(A, b)
    if x.min() < 0.0:
        if _refutes(mu.probs, nu.probs, (b - A @ x)[k:].reshape(n, m), tol):
            return False
        if rank == k * m:
            c = int(np.argmin(np.minimum(x.reshape(k, m), 0.0).sum(axis=1) / mass))
            v = np.linalg.lstsq(mu.probs.T, np.eye(k)[c])[0]
            if _refutes(mu.probs, nu.probs, np.column_stack([np.zeros(n), -v]), tol):
                return False
        x = _nnls(A, b)
    x = x.reshape(k, m)
    rows = x.sum(axis=1, keepdims=True)
    # a row the fit leaves at zero is free: fill it uniformly
    g = np.divide(x, rows, out=np.full((k, m), 1.0 / m), where=rows > 0.0)
    residual = float(np.max(np.abs(mu.probs @ g - nu.probs)))
    row_err = float(np.max(np.abs(g.sum(axis=1) - 1.0)))
    return residual <= tol and row_err <= tol and float(g.min()) >= -tol


def experiment_to_json(mu: Experiment) -> dict:
    obj = {
        "states": list(mu.states.labels),
        "signals": [list(s) if isinstance(s, tuple) else s for s in mu.signals],
        "probs": [[float(x) for x in row] for row in mu.probs],
    }
    if mu.states.values is not None:
        obj["values"] = list(mu.states.values)
    return obj


def _tuples(label):
    """A JSON label with its lists, at any depth, back to the tuples that
    JSON writes as lists (product signals are pairs)."""
    return tuple(map(_tuples, label)) if isinstance(label, list) else label


def _json_labels(obj: dict, key: str) -> tuple:
    """The labels under `key` of a JSON object, which must be a list, with
    the lists inside them read back as tuples."""
    labels = obj[key]
    if not isinstance(labels, list):
        raise ValidationError(f"{key} must be a JSON list, not {type(labels).__name__}")
    return _tuples(labels)


def experiment_from_json(obj: dict) -> Experiment:
    """Parse {"states": [...], "values": [...]?, "signals": [...], "probs": [[...]]}."""
    try:
        labels = _json_labels(obj, "states")
        signals = _json_labels(obj, "signals")
        probs = obj["probs"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"experiment JSON missing field: {exc}") from exc
    states = StateSpace(labels, obj.get("values"))
    return make_experiment(states, signals, probs)
