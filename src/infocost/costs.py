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
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
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
    _real,
)
from .experiments import (
    Experiment,
    LLRDistribution,
    StateSpace,
    _finite,
    _floats,
    _full_support_row,
    _json_labels,
    _nonnegative,
    _parsed,
    _posteriors,
)

# largest rule-backed matrix dense() builds; its square caps the value span
# of the integer grids that price by FFT (_rule_apply, the crossing count)
# and the FFT points _rule_apply transforms at once
_DENSE_CAP = 2048
# largest value span for which partition aggregation is exact, and the
# fractional bits of its fixed-point sum (_partition_by_distance)
_EXACT_SPAN_CAP, _FIXED_BITS = 2048, 200


@dataclass(frozen=True, eq=False)
class BetaMatrix:
    """Distinguishability prices beta_ij, one per ordered state pair.

    Either an explicit coefficient matrix (diagonal ignored) or a rule
    (name, kappa), "one_dimensional" or "inverse_square", on states with
    values.  A rule keeps no matrix: coef stays None, and dense() builds a
    fresh read-only one on each call, for at most _DENSE_CAP states.  Every
    price goes through apply(X) = B @ X: on integer grids whose values span
    at most _DENSE_CAP**2 points it runs by FFT (_rule_apply) whenever that
    takes no more points than the matrix has entries (above _DENSE_CAP
    states, per column), at any size, so the prices and partition
    coefficients work on grids far too large to materialize.  Rules come
    from the constructors below.
    """

    states: StateSpace
    coef: NDArray[np.float64] | None
    rule: tuple[str, float] | None = None

    def __post_init__(self):
        coef = self.coef
        if self.rule is not None:
            if not (isinstance(self.rule, tuple) and len(self.rule) == 2):
                raise ValidationError(f"rule {self.rule!r} is not a (name, kappa) pair")
            name, kappa = self.rule
            if name not in ("one_dimensional", "inverse_square"):
                raise ValidationError(f"unknown rule {name!r}")
            if self.states.values is None:
                raise MissingValues("rule needs a StateSpace with values")
            object.__setattr__(self, "rule", (name, _real(kappa, "kappa")))
        if coef is None:
            if self.rule is None:
                raise IncompleteInput("need a coefficient matrix or a rule")
            return
        coef = _floats(coef, "beta coef", (self.states.n, self.states.n))
        np.fill_diagonal(coef, 0.0)
        if not np.isfinite(coef).all():
            raise ValidationError("non-finite off-diagonal coefficient")
        if (coef < 0).any():
            raise ValidationError("negative off-diagonal coefficient")
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    @property
    def n(self) -> int:
        return self.states.n

    def dense(self) -> np.ndarray:
        """Materialized coefficient matrix with zero diagonal; a rule's is
        built afresh on each call, and refused above _DENSE_CAP states."""
        if self.coef is not None:
            return self.coef
        if self.n > _DENSE_CAP:
            raise ValidationError(
                f"{self.n} states: coefficient matrix too large to materialize"
            )
        # c / (v_i - v_j)^2 in one n x n buffer, as it runs on every call
        v = np.asarray(self.states.values, dtype=float)
        c = _rule_scale(self.rule, self.n)
        with np.errstate(over="ignore"):  # an entry past the range is refused
            coef = v[:, None] - v[None, :]
            np.fill_diagonal(coef, 1.0)  # placeholder, diagonal zeroed below
            coef **= 2
            np.divide(c, coef, out=coef)
            span = max(self.states.values) - min(self.states.values)
            if math.isinf(span * span):
                # a gap whose square passes the range divides twice, in
                # halves, as the gap itself may pass it
                half = np.abs(v[:, None] / 2 - v[None, :] / 2)
                wide = np.isinf(4 * half * half)
                coef[wide] = c / 4 / half[wide] / half[wide]
        if not np.isfinite(coef).all():
            raise ValidationError("non-finite off-diagonal coefficient")
        np.fill_diagonal(coef, 0.0)
        coef.flags.writeable = False
        return coef

    def apply(self, X: np.ndarray) -> np.ndarray:
        """B @ X for an (n, k) matrix X: by FFT for a rule on an integer grid
        (_rule_grid) whose k columns take no more FFT points than B has
        entries, else by dense(), which refuses a rule above _DENSE_CAP.
        Above the cap only one column's points count: dense() is no
        alternative there, and _rule_apply bounds its memory in blocks."""
        vals = _rule_grid(self) if self.coef is None else None
        k = X.shape[1] if self.n <= _DENSE_CAP else 1
        if vals is not None and _fft_size(int(vals.max())) * k <= self.n**2:
            return _rule_apply(self, vals, X)
        return self.dense() @ X


def _rule_scale(rule: tuple[str, float], n: int) -> float:
    """Constant c such that beta_ij = c / (v_i - v_j)^2."""
    name, kappa = rule
    return kappa / (n * (n - 1)) if name == "one_dimensional" else kappa


def _rule_grid(beta: BetaMatrix) -> np.ndarray | None:
    """A rule's state values as int64 offsets from the smallest, when they
    are integers spanning at most _DENSE_CAP**2 points, else None (also for
    a matrix beta).  Offsets, not values, so that integers beyond int64
    such as 1e19 still count; the float subtraction is exact there, and in
    Python floats a span past the double range is inf without a warning."""
    if beta.rule is None:
        return None
    vals = np.fromiter(beta.states.values, float, len(beta.states.values))
    ints = np.rint(vals)
    lo, hi = float(ints.min()), float(ints.max())
    if np.all(vals == ints) and hi - lo + 1 <= _DENSE_CAP**2:
        return (ints - lo).astype(np.int64)
    return None


def _fft_size(span: int) -> int:
    """The least power of two >= 2 (span + 1): holds a correlation over
    [0, span] unwrapped."""
    return 1 << (2 * span + 1).bit_length()


def _spread(vals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (k, span + 1) rows of X with entry j placed at value vals[j] on
    [min(vals), max(vals)], zeros between."""
    at = vals - vals.min()
    grid = np.zeros((len(X), int(at.max()) + 1))
    for row, x in zip(grid, X):
        row[at] = x  # one row at a time: 4x faster than grid[:, at] = X
    return grid


def _rule_apply(beta: BetaMatrix, vals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """B @ X for the (n, k) matrix X and a rule on the integer offsets vals
    (_rule_grid), without building B.

    beta_ij = c / (v_i - v_j)^2 depends only on the value distance, so each
    column of B @ X is that column, spread over the value span, convolved
    with the kernel c / d^2 (0 at d = 0): one FFT product per column, in
    time and memory that grow with the span rather than with n^2.  Columns
    go through in blocks of at most _DENSE_CAP**2 FFT points (one column at
    least), which bounds the memory whatever k is.
    """
    span = int(vals.max())
    size = _fft_size(span)
    d = np.arange(1, span + 1)
    kernel = np.zeros(size)
    kernel[d] = kernel[size - d] = 1.0 / d.astype(float) ** 2
    fk = np.fft.rfft(kernel)
    step = max(1, _DENSE_CAP**2 // size)
    BX = np.empty(X.shape)
    for lo in range(0, X.shape[1], step):
        grid = _spread(vals, X[:, lo : lo + step].T)
        block = np.fft.irfft(np.fft.rfft(grid, size) * fk, size)
        BX[:, lo : lo + step] = block[:, vals].T  # vals are offsets
    return _rule_scale(beta.rule, beta.n) * BX


def one_dimensional_betas(states: StateSpace, kappa: float) -> BetaMatrix:
    """beta_ij = kappa / (n (n-1) (v_i - v_j)^2).

    The normalized one-dimensional rule: with these coefficients a
    unit-variance normal experiment costs the same on every state grid.
    """
    return BetaMatrix(states, None, ("one_dimensional", kappa))


def inverse_square_betas(states: StateSpace, kappa: float) -> BetaMatrix:
    """beta_ij = kappa / (v_i - v_j)^2, without the n(n-1) normalization."""
    return BetaMatrix(states, None, ("inverse_square", kappa))


def constant_betas(states: StateSpace, value: float) -> BetaMatrix:
    coef = np.full((states.n, states.n), _real(value, "value", -math.inf))
    return BetaMatrix(states, coef)


def kl_matrix(mu: Experiment) -> np.ndarray:
    """D[i, j] = KL(row i || row j) for every ordered state pair of the
    experiment's positive rows, clamped at 0 as _nonnegative clamps."""
    P = mu.probs
    L = np.log(P)
    D = (P * L).sum(axis=1)[:, None] - P @ L.T  # (P @ L.T)_ij = sum_s P_is ln P_js
    np.fill_diagonal(D, 0.0)
    return np.maximum(D, 0.0, out=D)


def _rule_cost(P: np.ndarray, beta: BetaMatrix) -> float:
    """sum_ij beta_ij KL(P[i] || P[j]) for a non-negative row matrix P, as
    the LLR sum over its used columns.  It is inf where a positive beta_ij
    meets P_ia > 0 = P_ja; a zero price contributes nothing, even there."""
    P = P[:, P.max(axis=0) > 0.0]  # an unused action costs nothing
    pos = P > 0.0
    if not pos.all() and np.any(beta.apply((~pos).astype(float))[pos] > 0.0):
        return math.inf  # (B 1[P = 0])_ia > 0 where P_ia > 0
    # logs against row 0, else against the column's largest entry; ln 1 = 0
    # fills the zeros, as only L_ia - L_ja of positive pairs reaches the sum
    ref = np.where(pos[0], P[0], P.max(axis=0))
    X = np.empty((P.shape[0], P.shape[1] + 1))
    np.log(np.where(pos, P, ref) / ref, out=X[:, 1:])
    return _nonnegative(_llr_sum(beta, P, X))


def _llr_sum(beta: BetaMatrix, W: np.ndarray, X: np.ndarray) -> float:
    """sum_ij B_ij sum_s W_is (L_is - L_js) = sum W o (L o (B 1) - B L) for the
    (n, k) weights W and logs L held in columns 1: of the (n, k + 1) scratch
    X, whose column 0 is overwritten.  Only L_is - L_js counts, so callers
    pass log-ratios against state 0: near zero, they cut rounding.  Not
    clamped: it also gives the potential F(p), which can be negative."""
    X[:, 0] = 1.0
    BX = beta.apply(X)
    return float(np.vdot(W, X[:, 1:] * BX[:, :1] - BX[:, 1:]))


def llr_cost(mu: Experiment, beta: BetaMatrix) -> float:
    """Weighted sum of pairwise KL divergences between the state rows."""
    if mu.states != beta.states:
        raise StateSpaceMismatch("experiment and beta disagree on states")
    P = mu.probs
    X = np.empty((P.shape[0], P.shape[1] + 1))
    np.log(P / P[0], out=X[:, 1:])  # an experiment's entries are positive
    return _nonnegative(_llr_sum(beta, P, X))


def llr_cost_from_distribution(dist: LLRDistribution, beta: BetaMatrix) -> float:
    """Same cost evaluated from the merged LLR representation.

    KL(mu_i || mu_j) equals the first moment of (xi_i - xi_j) under state
    i's atom weights, so the cost needs only the distribution.
    """
    if dist.n_states != beta.n:
        raise DimensionMismatch("state counts differ")
    X = np.zeros((dist.n_states, dist.n_atoms + 1))
    X[1:, 1:] = dist.atoms.T  # xi_0 = 0
    return _nonnegative(_llr_sum(beta, dist.weights, X))


def binary_cost(p: float, beta: BetaMatrix) -> float:
    """Closed form for the symmetric two-signal experiment with rows
    (p, 1-p) and (1-p, p):  (b01 + b10) * [p ln(p/(1-p)) + (1-p) ln((1-p)/p)].
    """
    if beta.n != 2:
        raise DimensionMismatch("binary_cost needs a 2-state beta")
    p = _real(p, "p", 0.0, 1.0, POutOfRange)
    # b01 + b10 is the partition coefficient of {0}
    return hypothesis_test_cost(beta, Hypothesis(beta.states, {0}), p)


def _flip_divergence(x: float) -> float:
    """KL((x, 1-x) || (1-x, x)) = (2x - 1) ln(x / (1 - x)), written as
    d ln(1 + d/a) with d = |2x - 1| and a = min(x, 1 - x).  a is exact (1 - x
    is, for x >= 1/2) and so is d for x >= 1/4, so no digits cancel near
    x = 1/2, and the value is never negative."""
    d, a = abs(2 * x - 1), min(x, 1 - x)
    return d * math.log1p(d / a)


def normal_cost(means: Sequence[float], sigma: float, beta: BetaMatrix) -> float:
    """Cost of observing state-dependent mean m_i plus N(0, sigma^2) noise:
    sum of beta_ij (m_j - m_i)^2 / (2 sigma^2).
    """
    m = _finite(means, "means", (beta.n,))
    sigma = _real(sigma, "sigma", error=SigmaNonPositive)
    # sum_ij B_ij (m_i - m_j)^2 = m^2 . (B 1) + sum B m^2 - 2 m . B m, for
    # any beta, and unchanged by a shift of m
    m -= m.mean()
    BX = beta.apply(np.column_stack([np.ones_like(m), m, m * m]))
    total = (m * m) @ BX[:, 0] + BX[:, 2].sum() - 2.0 * (m @ BX[:, 1])
    return float(total / (2.0 * sigma**2))


def _mutual_information(q: np.ndarray, P: np.ndarray) -> float:
    """sum_ia q_i P_ia ln(P_ia / p_a), p = q @ P: the mutual information in
    nats of the prior q and the row-stochastic rule P.

    An entry that is 0, or whose column's marginal underflows to 0 while it
    stays subnormal, is left out: its true term is below P_ia ln(1/q_i).
    """
    pb = q @ P
    mask = (P > 0.0) & (pb > 0.0)
    ratio = np.ones_like(P)
    ratio[mask] = P[mask] / np.broadcast_to(pb, P.shape)[mask]
    terms = q[:, None] * np.where(mask, P * np.log(ratio), 0.0)
    return _nonnegative(float(np.sum(terms)))


def mutual_information_cost(mu: Experiment, prior, lam: float = 1.0) -> float:
    """lam times the expected entropy drop from prior to posterior."""
    lam = _real(lam, "lambda")
    prior = _full_support_row(prior, mu.n_states, "prior", PriorNotFullSupport)
    return lam * _mutual_information(prior, mu.probs)


def posterior_separable_value(beta: BetaMatrix, prior, p) -> float:
    """Potential F(p) = sum beta_ij (p_i / q_i) ln(p_i / p_j).

    The expected change of F from prior to posterior reproduces the LLR
    cost for every experiment, so F is the cost's posterior-separable face.
    """
    q = _full_support_row(prior, beta.n, "prior", error=PriorNotFullSupport)
    p = _full_support_row(p, beta.n, "posterior")
    return _potential(beta, q, p)


def _potential(beta: BetaMatrix, q: np.ndarray, p: np.ndarray) -> float:
    """F(p) for a checked prior q and a positive posterior p: the LLR sum
    with one signal, weights p_i / q_i and logs ln p_i."""
    X = np.empty((beta.n, 2))
    np.log(p / p[0], out=X[:, 1])
    return _llr_sum(beta, (p / q)[:, None], X)


def llr_cost_via_posteriors(mu: Experiment, beta: BetaMatrix, prior) -> float:
    """E[F(posterior)] - F(prior); agrees with llr_cost at any full-support prior.

    Only the prior is checked: a posterior of a valid prior and experiment
    is positive, though its entries may fall below ENTRY_FLOOR.
    """
    if mu.states != beta.states:
        raise StateSpaceMismatch("experiment and beta disagree on states")
    q = _full_support_row(prior, beta.n, "prior", PriorNotFullSupport)
    total = sum(m * _potential(beta, q, post) for post, m in _posteriors(mu, q))
    return _nonnegative(total - _potential(beta, q, q))


@dataclass(frozen=True)
class Hypothesis:
    """A proper, non-empty subset of state indices."""

    states: StateSpace
    members: frozenset

    def __post_init__(self):
        bad = "members must be int or numpy integer state indices"
        try:
            members = tuple(self.members)
        except TypeError:
            raise ValidationError(bad) from None
        if not all(
            issubclass(t, (int, np.integer)) and not issubclass(t, bool)
            for t in set(map(type, members))
        ):
            raise ValidationError(bad)
        members = frozenset(map(int, members))
        object.__setattr__(self, "members", members)
        n = self.states.n
        if members and not (0 <= min(members) and max(members) < n):
            raise ValidationError("member index out of range")
        if not 0 < len(members) < n:
            raise ValidationError("hypothesis must be proper and non-empty")


def partition_coefficient(beta: BetaMatrix, h: Hypothesis) -> float:
    """Sum of beta_ij + beta_ji over pairs straddling the hypothesis boundary.

    For inverse-square rules on integer grids whose values span at most
    2048**2 points, the crossing pairs are counted by value distance with
    one FFT cross-correlation, so the cost grows with the span of the values
    rather than with the number of pairs, and no dense matrix is built.  On
    spans up to 2048 the weighted sum agrees bit for bit with exact
    enumeration: a 200-bit fixed-point sum brackets it, and the double both
    ends round to is returned; when they round apart it is summed exactly
    over lcm(1..span)^2.  Wider spans sum the counts in floating point;
    matrix betas and other grids take the dense sum, which holds at most
    2048 states.  A coefficient beyond the double range is inf.
    """
    if beta.states != h.states:
        raise StateSpaceMismatch("hypothesis and beta disagree on states")
    mask = _member_mask(h)
    vals = _rule_grid(beta)
    if vals is not None:
        return _partition_by_distance(vals, mask, _rule_scale(beta.rule, beta.n))
    coef = beta.dense()
    with np.errstate(over="ignore"):  # past the double range the sum is inf
        return float(coef[np.ix_(mask, ~mask)].sum() + coef[np.ix_(~mask, mask)].sum())


def _member_mask(h: Hypothesis) -> np.ndarray:
    """Boolean mask over the states, True on the hypothesis' members."""
    mask = np.zeros(h.states.n, dtype=bool)
    mask[np.fromiter(h.members, np.intp, len(h.members))] = True
    return mask


def _crossing_counts(vals: np.ndarray, member: np.ndarray) -> np.ndarray:
    """counts[d] = number of unordered crossing pairs at value distance d.

    vals are integers and member a boolean mask over them.  The counts are
    the FFT cross-correlation of the member and non-member indicators on
    [min(vals), max(vals)], rounded back to exact integers, so time and
    memory grow with the span of the values.
    """
    grid = _spread(vals, np.stack([member, ~member]))
    span = grid.shape[1] - 1
    size = _fft_size(span)
    fa, fb = (np.fft.rfft(row, size) for row in grid)
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
    if span <= _EXACT_SPAN_CAP:
        # 2^_FIXED_BITS sum 2 counts/d^2 is in [T, T + len(d)), each floor
        # short by less than 1: when c times both ends rounds to one double,
        # so does the exact sum, rounding being monotone (Ziv's test)
        cn, cd = float(c).as_integer_ratio()
        T = sum(
            (k << (_FIXED_BITS + 1)) // (dd * dd)
            for dd, k in zip(d.tolist(), counts[d].tolist())
        )
        lo, hi = (_quotient(cn * t, cd << _FIXED_BITS) for t in (T, T + d.size))
        if lo == hi:
            return lo
        # else exact: scale by lcm(1..span)^2 so every 2/d^2 term is an integer
        lcm2 = reduce(math.lcm, range(1, span + 1), 1) ** 2
        num = sum(
            int(counts[dd]) * (2 * lcm2 // (int(dd) * int(dd))) for dd in d
        )
        return _quotient(cn * num, cd * lcm2)
    # Python floats: a product past the double range is inf, without a warning
    return 2.0 * c * float(np.sum(counts[d] / (d.astype(float) ** 2)))


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded, as int / int is; inf beyond the double
    range, where int / int raises OverflowError."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def hypothesis_test_cost(beta: BetaMatrix, h: Hypothesis, alpha: float) -> float:
    """Cost of the two-signal test that reports membership with accuracy alpha.

    A coefficient past the double range is priced again with every price
    scaled by 2^-64, which commutes with rounding, and the product scaled
    back, so a finite cost stays finite; beyond the range it is inf."""
    alpha = _real(alpha, "alpha", 0.0, 1.0, AlphaOutOfRange)
    # an uninformative test costs 0, also where the coefficient is inf
    kl = _flip_divergence(alpha)
    if not kl:
        return 0.0
    coef = partition_coefficient(beta, h)
    if coef < math.inf:
        return coef * kl
    if beta.rule is None:
        small = BetaMatrix(beta.states, beta.coef * 2.0**-64)
    else:
        small = BetaMatrix(beta.states, None, (beta.rule[0], beta.rule[1] * 2.0**-64))
    # a product, not math.ldexp, which raises where the cost passes the range
    return partition_coefficient(small, h) * kl * 2.0**64


def partition_experiment(h: Hypothesis, alpha: float) -> Experiment:
    """The explicit two-signal experiment behind hypothesis_test_cost."""
    alpha = _real(alpha, "alpha", 0.0, 1.0, AlphaOutOfRange)
    member = _member_mask(h)[:, None]
    probs = np.where(member, (alpha, 1 - alpha), (1 - alpha, alpha))
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
    eps = _real(epsilon, "epsilon", 0.0, 0.5, EpsilonOutOfRange)
    kappa = _real(kappa, "kappa")
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
            return BetaMatrix(states, None, (name, _rule_number(obj, "kappa")))
        if name == "constant":
            return constant_betas(states, _rule_number(obj, "value"))
        raise ValidationError(f"unknown beta rule {name!r}")
    if "coef" not in obj or "states" not in obj:
        raise IncompleteInput("beta JSON needs 'coef' and 'states', or 'rule'")
    own = StateSpace(_json_labels(obj, "states"), obj.get("values"))
    if states is not None:
        if own.labels != states.labels:
            raise StateSpaceMismatch("beta file states disagree with context")
        own = states  # adopt context values so equality checks pass
    return BetaMatrix(own, obj["coef"])


def _rule_number(obj: dict, key: str) -> float:
    """The number under `key` of a rule-form beta object."""
    if key not in obj:
        raise IncompleteInput(f"rule {obj['rule']!r} needs {key}")
    value = obj[key]
    if isinstance(value, str):  # rule files may spell numbers as strings
        value = _parsed(value, key)
    return _real(value, key, -math.inf)
