"""Finite statistical experiments and their ordering algebra.

An experiment is a family of probability rows over a common signal set, one
row per state.  This module provides the validated container types plus the
operations the cost theory is built on: products (independent observation),
dilution (observe with probability alpha), garbling (post-processing by a
stochastic matrix), Kullback-Leibler divergence, Bayesian posteriors, the
distribution of the log-likelihood-ratio vector, and a linear-programming
test of informativeness dominance.

All probabilities are strictly positive by construction: entries at or below
1e-12 are rejected, never clamped, because clamping would silently corrupt
divergence values downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
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
    StateSpaceMismatch,
    ValidationError,
)
from .simplex import phase1_solve

ENTRY_FLOOR = 1e-12
ROW_SUM_TOL = 1e-9
LLR_MERGE_TOL = 1e-12
DOMINANCE_TOL = 1e-8


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


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
    p = np.array(p, dtype=float).ravel()
    if p.size != n:
        raise DimensionMismatch(f"{what}: length {p.size}, expected {n}")
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
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValidationError("need at least 2 states")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("state labels must be unique")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            object.__setattr__(self, "values", vals)
            if len(vals) != len(self.labels):
                raise DimensionMismatch(
                    f"{len(vals)} values for {len(self.labels)} states"
                )
            if not all(math.isfinite(v) for v in vals):
                raise ValidationError("state values must be finite")
            if len(set(vals)) != len(vals):
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
        object.__setattr__(self, "signals", tuple(self.signals))
        if len(set(self.signals)) != len(self.signals):
            raise ValidationError("signal labels must be unique")
        probs = _freeze(np.atleast_2d(np.asarray(self.probs, dtype=float)))
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.states.n, len(self.signals)):
            raise DimensionMismatch(
                f"probs shape {probs.shape}, expected "
                f"({self.states.n}, {len(self.signals)})"
            )
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
    return Experiment(states, tuple(signals), np.asarray(probs, dtype=float))


def make_normalized_experiment(states: StateSpace, signals: Sequence, probs) -> Experiment:
    """Constructor that rescales each row to sum to 1 before validating.

    Convenience for inputs assembled from unnormalized weights.  Note this
    alters the data it is given: the stored rows are the rescaled ones.
    """
    p = np.asarray(probs, dtype=float)
    sums = p.sum(axis=1, keepdims=True)
    if np.any(sums <= 0) or not np.all(np.isfinite(sums)):
        raise ValidationError("rows must have positive finite mass")
    return Experiment(states, tuple(signals), p / sums)


def binary_experiment(p: float, states: StateSpace | None = None) -> Experiment:
    """Two-state two-signal experiment with rows (p, 1-p) and (1-p, p)."""
    if states is None:
        states = StateSpace(("H", "L"))
    if states.n != 2:
        raise DimensionMismatch("binary_experiment needs exactly 2 states")
    return Experiment(states, ("h", "t"), np.array([[p, 1 - p], [1 - p, p]]))


def uninformative_experiment(states: StateSpace, weights: Sequence[float] = (1.0,)) -> Experiment:
    """Experiment whose rows are all equal; carries no information."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    signals = tuple(f"u{k}" for k in range(len(w)))
    return Experiment(states, signals, np.tile(w, (states.n, 1)))


@dataclass(frozen=True, eq=False)
class GarblingMatrix:
    """Row-stochastic post-processing kernel from source to target signals."""

    probs: NDArray[np.float64]

    def __post_init__(self):
        probs = _freeze(np.atleast_2d(np.asarray(self.probs, dtype=float)))
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
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0) or not math.isfinite(alpha):
        raise AlphaOutOfRange(f"alpha = {alpha!r} outside (0, 1]")
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


def kl_divergence(p, q) -> float:
    """Expected log-likelihood ratio sum(p * ln(p/q)), in nats.

    Strictly positive rows only; zero entries are outside this model class.
    Non-negative, and zero exactly when p equals q.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise DimensionMismatch(f"length {p.size} vs {q.size}")
    _check_prob_matrix(p, "kl first argument")
    _check_prob_matrix(q, "kl second argument")
    return float(np.dot(p, np.log(p / q)))


def posterior_distribution(mu: Experiment, prior) -> list[tuple[np.ndarray, float]]:
    """Bayesian posteriors and signal marginals, one pair per signal."""
    prior = _full_support_row(prior, mu.n_states, "prior", PriorNotFullSupport)
    joint = prior[:, None] * mu.probs
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
    number of rows.

    Every anchor precedes its members in the sort, so its first coordinate
    is no larger than theirs: a first-coordinate gap above tol between
    neighbouring rows always starts a new group.  Those gaps cut the rows
    into segments, and a segment whose rows all lie within tol of its first
    row is exactly one group.  Only the other segments need the sequential
    anchor walk.
    """
    k = points.shape[0]
    order = np.lexsort(points.T[::-1])
    sorted_points = points[order]
    # True at each group start: first the segment starts, then the walk's
    starts = np.empty(k, dtype=bool)
    starts[0] = True
    np.greater(np.diff(sorted_points[:, 0]), tol, out=starts[1:])
    seg = np.flatnonzero(starts)
    ends = np.append(seg[1:], k)
    spread = np.abs(sorted_points - np.repeat(sorted_points[seg], ends - seg, axis=0))
    one_group = np.maximum.reduceat(spread.max(axis=1), seg) <= tol
    for lo, hi in zip(seg[~one_group].tolist(), ends[~one_group].tolist()):
        # plain floats keep the walk off the numpy scalar path
        rows = sorted_points[lo:hi].tolist()
        anchor = rows[0]
        for s in range(1, hi - lo):
            if any(abs(a - x) > tol for a, x in zip(anchor, rows[s])):
                starts[lo + s] = True
                anchor = rows[s]
    idx = np.flatnonzero(starts)
    counts = np.diff(np.append(idx, k))
    merged_points = np.add.reduceat(sorted_points, idx, axis=0) / counts[:, None]
    merged_weights = np.add.reduceat(weights[:, order], idx, axis=1)
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
        atoms = _freeze(np.atleast_2d(np.asarray(self.atoms, dtype=float)))
        weights = _freeze(np.atleast_2d(np.asarray(self.weights, dtype=float)))
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
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("non-finite atom")
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
    expected = np.exp(sigma.atoms.T) * sigma.weights[0]
    return bool(np.all(np.abs(sigma.weights[1:] - expected) <= tol))


def convolve_llr(a: LLRDistribution, b: LLRDistribution) -> LLRDistribution:
    """LLR distribution of the product experiment: atoms add, weights multiply.

    Statewise convolution with a shared atom merge, so the result stays
    admissible.  Avoids materializing product experiments whose signal count
    grows geometrically.
    """
    if a.n_states != b.n_states:
        raise DimensionMismatch("state counts differ")
    ka, kb = a.n_atoms, b.n_atoms
    points = (a.atoms[:, None, :] + b.atoms[None, :, :]).reshape(ka * kb, -1)
    weights = (a.weights[:, :, None] * b.weights[:, None, :]).reshape(
        a.n_states, ka * kb
    )
    merged_points, merged_weights = _merge_point_rows(
        points, weights, LLR_MERGE_TOL
    )
    return LLRDistribution(merged_points, merged_weights)


def blackwell_dominates(
    mu: Experiment, nu: Experiment, tol: float = DOMINANCE_TOL
) -> bool:
    """Whether nu is a garbling of mu, decided by LP feasibility.

    Searches for a row-stochastic g with ||mu.probs @ g - nu.probs||_inf
    below tol via a phase-1 simplex (Bland's rule, deterministic).
    """
    if mu.states != nu.states:
        raise StateSpaceMismatch("dominance needs a common state space")
    k, m = mu.n_signals, nu.n_signals
    nvar = k * m
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    # row-stochasticity of g
    for s in range(k):
        r = np.zeros(nvar)
        r[s * m : (s + 1) * m] = 1.0
        rows.append(r)
        rhs.append(1.0)
    # matching constraints, one per (state, target signal)
    for i in range(mu.n_states):
        for t in range(m):
            r = np.zeros(nvar)
            r[t::m] = mu.probs[i]
            rows.append(r)
            rhs.append(float(nu.probs[i, t]))
    x = phase1_solve(np.array(rows), np.array(rhs))
    g = x.reshape(k, m)
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


def experiment_from_json(obj: dict) -> Experiment:
    """Parse {"states": [...], "values": [...]?, "signals": [...], "probs": [[...]]}."""
    try:
        labels = obj["states"]
        signals = obj["signals"]
        probs = obj["probs"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"experiment JSON missing field: {exc}") from exc
    states = StateSpace(tuple(labels), obj.get("values"))
    signals = tuple(tuple(s) if isinstance(s, list) else s for s in signals)
    return make_experiment(states, signals, probs)
