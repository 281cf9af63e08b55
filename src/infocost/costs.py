"""Information-cost functionals over experiments.

The central object is the weighted log-likelihood-ratio cost

    C(mu) = sum over ordered state pairs (i, j) of beta_ij * KL(mu_i || mu_j)

together with its closed forms for binary and normal families, its
posterior-separable (Bayesian) representation, partition costs for testing a
hypothesis about the state, and the mutual-information cost used as the
rational-inattention baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    EpsilonOutOfRange,
    IncompleteInput,
    MissingValues,
    POutOfRange,
    PriorNotFullSupport,
    SigmaNonPositive,
    SolverFailure,
    StateSpaceMismatch,
    ValidationError,
)
from .experiments import (
    Experiment,
    LLRDistribution,
    StateSpace,
    _full_support_row,
    posterior_distribution,
)

# materialization cap for dense coefficient matrices built from rules
_DENSE_CAP = 2048
# largest value span for which partition aggregation runs in exact integers
_EXACT_SPAN_CAP = 2048


@dataclass(frozen=True, eq=False)
class BetaMatrix:
    """Distinguishability prices beta_ij, one per ordered state pair.

    Either an explicit coefficient matrix (diagonal ignored) or a lazy
    rule-backed form.  The lazy form exists because one-dimensional
    inverse-square rules are used on grids far too large to materialize; it
    is produced by the rule constructors below, never directly.
    """

    states: StateSpace
    coef: NDArray[np.float64] | None
    rule: tuple[str, float] | None = None

    def __post_init__(self):
        if self.coef is None and self.rule is None:
            raise IncompleteInput("need a coefficient matrix or a rule")
        if self.coef is not None:
            coef = np.array(self.coef, dtype=float, copy=True)
            if coef.shape != (self.states.n, self.states.n):
                raise DimensionMismatch(
                    f"coef shape {coef.shape} for {self.states.n} states"
                )
            off = ~np.eye(self.states.n, dtype=bool)
            if not np.all(np.isfinite(coef[off])):
                raise ValidationError("non-finite off-diagonal coefficient")
            if np.any(coef[off] < 0):
                raise ValidationError("negative off-diagonal coefficient")
            np.fill_diagonal(coef, 0.0)
            coef.flags.writeable = False
            object.__setattr__(self, "coef", coef)

    @property
    def n(self) -> int:
        return self.states.n

    def dense(self) -> np.ndarray:
        """Materialized coefficient matrix with zero diagonal."""
        if self.coef is not None:
            return self.coef
        if self.n > _DENSE_CAP:
            raise ValidationError(
                f"{self.n} states: coefficient matrix too large to materialize"
            )
        return _rule_matrix(self.states, self.rule)


def _rule_scale(rule: tuple[str, float], n: int) -> float:
    """Constant c such that beta_ij = c / (v_i - v_j)^2."""
    name, kappa = rule
    if name == "one_dimensional":
        return kappa / (n * (n - 1))
    if name == "inverse_square":
        return kappa
    raise ValidationError(f"unknown rule {name!r}")


def _rule_matrix(states: StateSpace, rule: tuple[str, float]) -> np.ndarray:
    c = _rule_scale(rule, states.n)
    v = np.asarray(states.values, dtype=float)
    diff = v[:, None] - v[None, :]
    np.fill_diagonal(diff, 1.0)  # placeholder, diagonal zeroed below
    coef = c / diff**2
    np.fill_diagonal(coef, 0.0)
    coef.flags.writeable = False
    return coef


def _rule_beta(states: StateSpace, rule_name: str, kappa: float) -> BetaMatrix:
    if states.values is None:
        raise MissingValues("rule needs a StateSpace with values")
    if not (kappa > 0) or not math.isfinite(kappa):
        raise ValidationError(f"kappa = {kappa!r} must be positive")
    rule = (rule_name, float(kappa))
    coef = _rule_matrix(states, rule) if states.n <= _DENSE_CAP else None
    return BetaMatrix(states, coef, rule)


def one_dimensional_betas(states: StateSpace, kappa: float) -> BetaMatrix:
    """beta_ij = kappa / (n (n-1) (v_i - v_j)^2).

    The normalized one-dimensional rule: with these coefficients a
    unit-variance normal experiment costs the same on every state grid.
    """
    return _rule_beta(states, "one_dimensional", kappa)


def inverse_square_betas(states: StateSpace, kappa: float) -> BetaMatrix:
    """beta_ij = kappa / (v_i - v_j)^2, without the n(n-1) normalization."""
    return _rule_beta(states, "inverse_square", kappa)


def constant_betas(states: StateSpace, value: float) -> BetaMatrix:
    coef = np.full((states.n, states.n), float(value))
    return BetaMatrix(states, coef)


def _kl_rows(P: np.ndarray) -> np.ndarray:
    """D[i, j] = KL(P[i] || P[j]) for the rows of a non-negative row matrix.

    All-zero columns are dropped first.  A zero entry counts 0 ln 0 = 0, and
    D[i, j] is inf where row i puts mass on a column that row j does not.
    """
    pos = P > 0.0
    if pos.all():
        L = np.log(P)
    else:
        keep = pos.any(axis=0)
        P, pos = P[:, keep], pos[:, keep]
        L = np.log(np.where(pos, P, 1.0))
    own = (P * L).sum(axis=1)
    D = own[:, None] - P @ L.T  # (P @ L.T)[i, j] = sum_s P[i,s] ln P[j,s]
    if not pos.all():
        D[pos @ ~pos.T] = np.inf
    np.fill_diagonal(D, 0.0)
    return D


def kl_matrix(mu: Experiment) -> np.ndarray:
    """D[i, j] = KL(row i || row j) for every ordered state pair."""
    return _kl_rows(mu.probs)


def llr_cost(mu: Experiment, beta: BetaMatrix) -> float:
    """Weighted sum of pairwise KL divergences between the state rows."""
    if mu.states != beta.states:
        raise StateSpaceMismatch("experiment and beta disagree on states")
    return float(np.sum(beta.dense() * kl_matrix(mu)))


def llr_cost_from_distribution(dist: LLRDistribution, beta: BetaMatrix) -> float:
    """Same cost evaluated from the merged LLR representation.

    KL(mu_i || mu_j) equals the first moment of (xi_i - xi_j) under state
    i's atom weights, so the cost needs only the distribution.
    """
    if dist.n_states != beta.n:
        raise DimensionMismatch("state counts differ")
    xi = np.hstack([np.zeros((dist.n_atoms, 1)), dist.atoms])
    M = dist.weights @ xi  # M[i, c] = E_i[xi_c]
    D = np.diag(M)[:, None] - M
    return float(np.sum(beta.dense() * D))


def binary_cost(p: float, beta: BetaMatrix) -> float:
    """Closed form for the symmetric two-signal experiment with rows
    (p, 1-p) and (1-p, p):  (b01 + b10) * [p ln(p/(1-p)) + (1-p) ln((1-p)/p)].
    """
    if beta.n != 2:
        raise DimensionMismatch("binary_cost needs a 2-state beta")
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise POutOfRange(f"p = {p!r} outside (0, 1)")
    coef = beta.dense()
    div = p * math.log(p / (1 - p)) + (1 - p) * math.log((1 - p) / p)
    return (coef[0, 1] + coef[1, 0]) * div


def normal_cost(means: Sequence[float], sigma: float, beta: BetaMatrix) -> float:
    """Cost of observing state-dependent mean m_i plus N(0, sigma^2) noise:
    sum of beta_ij (m_j - m_i)^2 / (2 sigma^2).
    """
    m = np.asarray(means, dtype=float).ravel()
    if m.size != beta.n:
        raise DimensionMismatch(f"{m.size} means for {beta.n} states")
    sigma = float(sigma)
    if not (sigma > 0) or not math.isfinite(sigma):
        raise SigmaNonPositive(f"sigma = {sigma!r}")
    diff = m[None, :] - m[:, None]
    return float(np.sum(beta.dense() * diff**2) / (2.0 * sigma**2))


def _entropy(p: np.ndarray) -> float:
    return float(-np.dot(p, np.log(p)))


def mutual_information_cost(mu: Experiment, prior, lam: float = 1.0) -> float:
    """lam times the expected entropy drop from prior to posterior."""
    if not (lam > 0) or not math.isfinite(lam):
        raise ValidationError(f"lambda = {lam!r} must be positive")
    prior = np.asarray(prior, dtype=float).ravel()
    pairs = posterior_distribution(mu, prior)
    expected = sum(m * _entropy(post) for post, m in pairs)
    return lam * (_entropy(prior) - expected)


def posterior_separable_value(beta: BetaMatrix, prior, p) -> float:
    """Potential F(p) = sum beta_ij (p_i / q_i) ln(p_i / p_j).

    The expected change of F from prior to posterior reproduces the LLR
    cost for every experiment, so F is the cost's posterior-separable face.
    """
    q = _full_support_row(prior, beta.n, "prior", error=PriorNotFullSupport)
    p = _full_support_row(p, beta.n, "posterior")
    lp = np.log(p)
    M = lp[:, None] - lp[None, :]
    return float(np.sum(beta.dense() * (p / q)[:, None] * M))


def llr_cost_via_posteriors(mu: Experiment, beta: BetaMatrix, prior) -> float:
    """E[F(posterior)] - F(prior); agrees with llr_cost at any full-support prior."""
    if mu.states != beta.states:
        raise StateSpaceMismatch("experiment and beta disagree on states")
    pairs = posterior_distribution(mu, prior)
    total = sum(
        m * posterior_separable_value(beta, prior, post) for post, m in pairs
    )
    return total - posterior_separable_value(beta, prior, prior)


@dataclass(frozen=True)
class Hypothesis:
    """A proper, non-empty subset of state indices."""

    states: StateSpace
    members: frozenset

    def __post_init__(self):
        members = frozenset(int(i) for i in self.members)
        object.__setattr__(self, "members", members)
        if not all(0 <= i < self.states.n for i in members):
            raise ValidationError("member index out of range")
        if not 0 < len(members) < self.states.n:
            raise ValidationError("hypothesis must be proper and non-empty")


def partition_coefficient(beta: BetaMatrix, h: Hypothesis) -> float:
    """Sum of beta_ij + beta_ji over pairs straddling the hypothesis boundary.

    For inverse-square rules on integer grids the crossing pairs are
    counted by value distance with one FFT cross-correlation, so the cost
    grows with the span of the values rather than with the number of pairs,
    and no dense matrix is built.  On spans up to 2048 the weighted sum runs
    in exact integer arithmetic, so it agrees bit for bit with naive
    enumeration.
    """
    if beta.states != h.states:
        raise StateSpaceMismatch("hypothesis and beta disagree on states")
    mask = np.zeros(beta.n, dtype=bool)
    mask[list(h.members)] = True
    if beta.rule is not None and beta.states.values is not None:
        vals = np.asarray(beta.states.values)
        ints = np.rint(vals)
        if np.all(vals == ints):
            return _partition_by_distance(
                ints.astype(np.int64),
                mask,
                _rule_scale(beta.rule, beta.n),
            )
    coef = beta.dense()
    return float(coef[np.ix_(mask, ~mask)].sum() + coef[np.ix_(~mask, mask)].sum())


def _crossing_counts(vals: np.ndarray, member: np.ndarray) -> np.ndarray:
    """counts[d] = number of unordered crossing pairs at value distance d.

    vals are integers and member a boolean mask over them.  The counts are
    the FFT cross-correlation of the member and non-member indicators on
    [min(vals), max(vals)], rounded back to exact integers, so time and
    memory grow with the span of the values.
    """
    vmin = int(vals.min())
    span = int(vals.max()) - vmin
    a = np.zeros(span + 1)
    b = np.zeros(span + 1)
    a[vals[member] - vmin] = 1.0
    b[vals[~member] - vmin] = 1.0
    size = 1
    while size < 2 * (span + 1):
        size *= 2
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    corr = np.fft.irfft(np.conj(fa) * fb + np.conj(fb) * fa, size)[: span + 1]
    counts = np.rint(corr)
    if np.max(np.abs(corr - counts)) > 0.25:
        raise SolverFailure("crossing-count FFT lost integer precision")
    counts = counts.astype(np.int64)
    counts[0] = 0
    return counts


def _partition_by_distance(vals: np.ndarray, member: np.ndarray, c: float) -> float:
    counts = _crossing_counts(vals, member)
    span = counts.size - 1
    d = np.flatnonzero(counts)
    if d.size == 0:
        return 0.0
    if span <= _EXACT_SPAN_CAP:
        # exact: scale by lcm(1..span)^2 so every 2/d^2 term is an integer
        lcm2 = reduce(math.lcm, range(1, span + 1), 1) ** 2
        num = sum(
            int(counts[dd]) * (2 * lcm2 // (int(dd) * int(dd))) for dd in d
        )
        return float(Fraction(c) * Fraction(num, lcm2))
    return float(2.0 * c * np.sum(counts[d] / (d.astype(float) ** 2)))


def hypothesis_test_cost(beta: BetaMatrix, h: Hypothesis, alpha: float) -> float:
    """Cost of the two-signal test that reports membership with accuracy alpha."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise AlphaOutOfRange(f"alpha = {alpha!r} outside (0, 1)")
    factor = alpha * math.log(alpha / (1 - alpha)) + (1 - alpha) * math.log(
        (1 - alpha) / alpha
    )
    return partition_coefficient(beta, h) * factor


def partition_experiment(h: Hypothesis, alpha: float) -> Experiment:
    """The explicit two-signal experiment behind hypothesis_test_cost."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha = {alpha!r} outside (0, 1)")
    n = h.states.n
    probs = np.empty((n, 2))
    for i in range(n):
        probs[i] = (alpha, 1 - alpha) if i in h.members else (1 - alpha, alpha)
    return Experiment(h.states, ("in", "out"), probs)


def verification_asymmetry(epsilon: float, kappa: float = 1.0) -> tuple[float, float]:
    """Costs of verifying versus falsifying a rare-event claim.

    Experiment I confirms a true rate eps^2 against a claimed rate eps;
    experiment II refutes a claimed rate eps given true rate eps^2.  With
    price kappa on the one informative direction:

        cost_I  = kappa * KL((1-eps^2, eps^2) || (1-eps, eps))
        cost_II = kappa * KL((1-eps, eps) || (1-eps^2, eps^2))

    cost_I is of order kappa*eps while cost_II carries an extra ln(1/eps).
    Evaluated through log1p so tiny eps stays accurate.
    """
    eps = float(epsilon)
    if not (0.0 < eps < 0.5) or not math.isfinite(eps):
        raise EpsilonOutOfRange(f"epsilon = {eps!r} outside (0, 0.5)")
    if not (kappa > 0) or not math.isfinite(kappa):
        raise ValidationError(f"kappa = {kappa!r} must be positive")
    e2 = eps * eps
    gap = math.log1p(-e2) - math.log1p(-eps)  # ln((1-eps^2)/(1-eps)) > 0
    cost_i = kappa * ((1.0 - e2) * gap + e2 * math.log(eps))
    cost_ii = kappa * ((1.0 - eps) * (-gap) + eps * (-math.log(eps)))
    return cost_i, cost_ii


def beta_to_json(beta: BetaMatrix) -> dict:
    if beta.rule is not None:
        name, kappa = beta.rule
        return {"rule": name, "kappa": kappa}
    obj = {"states": list(beta.states.labels), "coef": beta.dense().tolist()}
    if beta.states.values is not None:
        obj["values"] = list(beta.states.values)
    return obj


def beta_from_json(obj: dict, states: StateSpace | None = None) -> BetaMatrix:
    """Parse a coefficient matrix or a named rule.

    Rule forms need `states` from context (the experiment or problem being
    priced); an explicit "states"/"coef" form carries its own.
    """
    if not isinstance(obj, dict):
        raise ValidationError("beta JSON must be an object")
    if "rule" in obj:
        if states is None:
            raise IncompleteInput("rule-form beta needs a state space context")
        name = obj["rule"]
        if name in ("one_dimensional", "inverse_square"):
            if "kappa" not in obj:
                raise IncompleteInput(f"rule {name!r} needs kappa")
            return _rule_beta(states, name, float(obj["kappa"]))
        if name == "constant":
            if "value" not in obj:
                raise IncompleteInput("rule 'constant' needs value")
            return constant_betas(states, float(obj["value"]))
        raise ValidationError(f"unknown beta rule {name!r}")
    if "coef" not in obj or "states" not in obj:
        raise IncompleteInput("beta JSON needs 'coef' and 'states', or 'rule'")
    own = StateSpace(tuple(obj["states"]), obj.get("values"))
    if states is not None:
        if own.labels != states.labels:
            raise StateSpaceMismatch("beta file states disagree with context")
        own = states  # adopt context values so equality checks pass
    return BetaMatrix(own, np.asarray(obj["coef"], dtype=float))
