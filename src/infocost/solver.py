"""Optimal information acquisition in finite decision problems.

A decision maker with prior q picks a state-dependent action distribution
(a choice rule, formally an experiment whose signals are actions) to
maximize expected utility minus an information cost.  Two costs are
supported: the weighted log-likelihood-ratio cost and lambda times mutual
information.  Both solvers are deterministic; identical inputs give
bit-identical results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import BetaMatrix, _kl_rows, inverse_square_betas
from .errors import (
    DimensionMismatch,
    DuplicateValues,
    NonConcaveWarning,
    PriorNotFullSupport,
    StateSpaceMismatch,
    ValidationError,
    ZeroProbabilityOnSupport,
)
from .experiments import StateSpace, _check_prob_matrix, _full_support_row

# an action is out of support when its probability is below this in every state
SUPPORT_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """States with a prior, actions, and a payoff matrix u(a, i)."""

    states: StateSpace
    actions: tuple
    utility: np.ndarray  # rows indexed by action, columns by state
    prior: np.ndarray

    def __post_init__(self):
        actions = tuple(self.actions)
        if len(actions) == 0:
            raise ValidationError("no actions")
        if len(set(actions)) != len(actions):
            raise ValidationError("duplicate action identifiers")
        u = np.array(self.utility, dtype=float, copy=True)
        if u.shape != (len(actions), self.states.n):
            raise DimensionMismatch(
                f"utility shape {u.shape}, expected "
                f"({len(actions)}, {self.states.n})"
            )
        if not np.all(np.isfinite(u)):
            raise ValidationError("non-finite utility")
        q = _full_support_row(self.prior, self.states.n, "prior", PriorNotFullSupport)
        u.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utility", u)
        object.__setattr__(self, "prior", q)

    @property
    def n_states(self) -> int:
        return self.states.n

    @property
    def n_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True, eq=False)
class ChoiceRule:
    """Row i is the action distribution prescribed in state i."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.array(self.probs, dtype=float, copy=True))
        _check_prob_matrix(p, "choice rule", positive=False)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 200000

    def __post_init__(self):
        if not (self.tol > 0) or not math.isfinite(self.tol):
            raise ValidationError(f"tol = {self.tol!r}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter = {self.max_iter!r}")


@dataclass(frozen=True)
class SolveResult:
    rule: ChoiceRule
    objective: float
    cost: float
    expected_utility: float
    foc_residual: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.probs.tolist(),
            "objective": self.objective,
            "cost": self.cost,
            "expected_utility": self.expected_utility,
            "foc_residual": self.foc_residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def summary(self) -> str:
        tag = "converged" if self.converged else "NOT converged"
        return (
            f"{tag} after {self.iterations} iterations: "
            f"objective {self.objective:.9g} = utility "
            f"{self.expected_utility:.9g} - cost {self.cost:.9g}, "
            f"FOC residual {self.foc_residual:.3g}"
        )


def _check_dimensions(problem: DecisionProblem, rule: ChoiceRule):
    if rule.probs.shape != (problem.n_states, problem.n_actions):
        raise DimensionMismatch(
            f"rule shape {rule.probs.shape}, expected "
            f"({problem.n_states}, {problem.n_actions})"
        )


def _rule_cost(P: np.ndarray, B: np.ndarray) -> float:
    """sum_ij B[i, j] KL(P[i] || P[j]); a zero price contributes nothing,
    even against an infinite divergence."""
    D = _kl_rows(P)
    D[B == 0.0] = 0.0
    return float(np.sum(B * D))


def _expected_utility(problem: DecisionProblem, P: np.ndarray) -> float:
    qU = problem.prior[:, None] * problem.utility.T
    return float(np.sum(qU * P))


def objective(problem: DecisionProblem, rule: ChoiceRule, beta: BetaMatrix) -> float:
    """Expected utility minus the rule's information cost.

    A zero probability on a supported action makes some KL divergence
    infinite; with a positive price on that pair the objective is -inf,
    not an error.
    """
    _check_dimensions(problem, rule)
    if beta.states != problem.states:
        raise StateSpaceMismatch("beta and problem disagree on states")
    eu = _expected_utility(problem, rule.probs)
    return eu - _rule_cost(rule.probs, beta.dense())


def _cost_gradient(P: np.ndarray, B: np.ndarray, Bsum: np.ndarray) -> np.ndarray:
    """Marginal costs c~(i, a) = dC/dP_ia of a rule with positive entries.

    Column a is the gradient of f(x) = sum_ij beta_ij x_i ln(x_i / x_j) at
    x = P[:, a]; f is 1-homogeneous, so <c~(., a), P[:, a]> = f(P[:, a]).
    """
    L = np.log(P)
    return Bsum[:, None] * (L + 1.0) - B @ L - (B.T @ P) / P


def _cost_hessian(x: np.ndarray, B: np.ndarray, Bsum: np.ndarray) -> np.ndarray:
    """Hessian of f at x > 0; singular along x itself (H x = 0)."""
    H = -(B / x[None, :] + B.T / x[:, None])
    np.fill_diagonal(H, Bsum / x + (B.T @ x) / (x * x))
    return H


def _kkt_step(H: np.ndarray, A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction d maximizing <g, d> - d'Hd/2 subject to A d = 0."""
    m = A.shape[0]
    M = np.block([[H, A.T], [A, np.zeros((m, m))]])
    return np.linalg.solve(M, np.concatenate([g, np.zeros(m)]))[: H.shape[0]]


def _residual(R: np.ndarray) -> float:
    """Largest spread, over states, of q_i u(a, i) - c~(i, a) across the
    columns of R."""
    if R.shape[1] <= 1:
        return 0.0
    return float(np.max(R.max(axis=1) - R.min(axis=1)))


def foc_residual(
    problem: DecisionProblem, beta: BetaMatrix, rule: ChoiceRule
) -> float:
    """Largest violation of q_i [u(i,a1) - u(i,a2)] = c~(i,a1) - c~(i,a2)
    over states and pairs of supported actions.
    """
    _check_dimensions(problem, rule)
    if beta.states != problem.states:
        raise StateSpaceMismatch("beta and problem disagree on states")
    P = rule.probs
    support = P.max(axis=0) > SUPPORT_EPS
    Q = P[:, support]
    if np.any(Q <= 0.0):
        raise ZeroProbabilityOnSupport(
            "rule has a zero probability on a supported action"
        )
    B = beta.dense()
    qU = (problem.prior[:, None] * problem.utility.T)[:, support]
    return _residual(qU - _cost_gradient(Q, B, B.sum(axis=1)))


def solve_llr(
    problem: DecisionProblem, beta: BetaMatrix, opts: SolveOptions | None = None
) -> SolveResult:
    """Maximize expected utility minus the log-likelihood-ratio cost.

    The cost splits over actions, C(P) = sum_a f(P[:, a]) with
    f(x) = sum_ij beta_ij x_i ln(x_i / x_j) convex and 1-homogeneous, so
    the objective is sum_a <w_a, P[:, a]> - f(P[:, a]) with
    w_a = q * u(a, .), and the solve is an active-set method over actions:

    1. Start at the no-information corner of the best uninformed action.
    2. On the supported columns, take equality-constrained Newton steps
       (one dense KKT solve each, row sums held at 1), halving the step
       until it stays positive and the objective, concave along it, has
       risen or not yet peaked.  A column the full step drives out of the
       simplex is dropped as exact zeros when dropping it at that boundary
       does not lower the objective.  More columns than states are
       linearly dependent; the objective is then linear along a rescaling
       of the columns, which is followed until one column vanishes.
    3. Once the first-order residual on the support is within tol, price
       the states at lam_i = sum_a P_ia (w_a - grad f(P[:, a]))_i and test
       every excluded action b with v_b = max over the simplex of
       <w_b - lam, y> - f(y), a damped Newton solve on one n-vector from
       the uniform point.  By concavity and homogeneity v_b is at most
       max_i (w_b - lam - grad f(y))_i at any y, and a positive v_b is the
       objective's slope along mass moved onto b in proportion to y.
    4. If every test is within tol the rule is optimal: return it as
       converged.  Otherwise add the action with the largest v_b along its
       maximiser, by the same halving search, and go back to 2.

    ``iterations`` counts Newton steps, on the support and in the tests,
    and the rescalings of step 2; ``opts.max_iter`` caps them.  Excluded actions get probability exactly
    0, so a corner rule costs exactly 0.  With some zero prices a warning
    is issued: the Newton systems may then be singular and the maximizer
    need not be unique.
    """
    opts = opts or SolveOptions()
    if beta.states != problem.states:
        raise StateSpaceMismatch("beta and problem disagree on states")
    B = beta.dense()
    off = ~np.eye(B.shape[0], dtype=bool)
    if np.any(B[off] == 0.0):
        warnings.warn(
            "non-strict concavity: some distinguishability prices are zero",
            NonConcaveWarning,
            stacklevel=2,
        )
    Bsum = B.sum(axis=1)
    W = problem.prior[:, None] * problem.utility.T  # column a is w_a
    n, m = W.shape
    tol = opts.tol
    it = 0

    def gains(X, C):
        # gradient of sum_a <C[:, a], X[:, a]> - f(X[:, a]); by Euler's
        # identity its inner product with X is that objective itself
        return C - _cost_gradient(X, B, Bsum)

    def ascend(X, D, C, value):
        # the first of X + D, X + D/2, ... that is positive and, the
        # objective being concave along D, either gains on `value` or has
        # not passed its peak; None once the step no longer moves X
        t = 1.0
        while True:
            Y = X + t * D
            if np.array_equal(Y, X):
                return None
            if np.all(Y > 0.0):
                G = gains(Y, C)
                if np.sum(G * D) >= 0.0 or np.sum(G * Y) > value:
                    return Y
            t *= 0.5

    def test(c):
        # bounds lower <= v <= upper on v = max_y <c, y> - f(y) over the
        # simplex, and the y attaining `lower`
        nonlocal it
        C = c[:, None]
        y = np.full((n, 1), 1.0 / n)
        while True:
            g = gains(y, C)
            lower, upper = float(np.sum(g * y)), float(g.max())
            if upper <= tol or upper - lower <= tol or it >= opts.max_iter:
                break
            it += 1
            try:
                d = _kkt_step(
                    _cost_hessian(y[:, 0], B, Bsum), np.ones((1, n)), g[:, 0]
                )
            except np.linalg.LinAlgError:
                break
            y_next = ascend(y, d[:, None], C, lower)
            if y_next is None:
                break
            y = y_next
        return lower, upper, y[:, 0]

    cols = [int(np.argmax(W.sum(axis=0)))]
    X = np.ones((n, 1))
    converged = False
    while it < opts.max_iter:
        C = W[:, cols]
        G = gains(X, C)
        value = float(np.sum(G * X))
        k = len(cols)
        if k > n:
            # more columns than states are linearly dependent, and the
            # Newton system singular; with X t = 0 the objective is linear
            # along X_a -> X_a (1 + s t_a), f being 1-homogeneous, so move
            # the way it does not fall until a whole column reaches zero
            it += 1
            t = np.linalg.svd(X)[2][-1]
            if np.dot(t, np.sum(G * X, axis=0)) < 0.0:
                t = -t
            a = int(np.argmin(t))
            X = np.delete(X * (1.0 - t / t[a]), a, axis=1)
            X /= X.sum(axis=1, keepdims=True)
            del cols[a]
            continue
        if _residual(G) > tol:
            it += 1
            H = np.zeros((n * k, n * k))
            for a in range(k):
                H[a * n : (a + 1) * n, a * n : (a + 1) * n] = _cost_hessian(
                    X[:, a], B, Bsum
                )
            try:
                D = _kkt_step(H, np.tile(np.eye(n), k), G.T.ravel())
            except np.linalg.LinAlgError:
                break
            D = D.reshape(k, n).T
            reach = np.full_like(X, np.inf)
            neg = D < 0.0
            reach[neg] = X[neg] / -D[neg]
            i, a = np.unravel_index(np.argmin(reach), reach.shape)
            if reach[i, a] <= 1.0:
                Z = np.delete(X + reach[i, a] * D, a, axis=1)
                Z /= Z.sum(axis=1, keepdims=True)
                if np.all(Z > 0.0) and np.sum(
                    gains(Z, np.delete(C, a, axis=1)) * Z
                ) >= value:
                    X = Z
                    del cols[a]
                    continue
            step = ascend(X, D, C, value)
            if step is None:
                break
            X = step
            continue
        lam = np.sum(X * G, axis=1)
        tests = {b: test(W[:, b] - lam) for b in range(m) if b not in cols}
        if all(upper <= tol for _, upper, _ in tests.values()):
            converged = True
            break
        b = max(tests, key=lambda b: tests[b][0])
        lower, _, y = tests[b]
        if lower <= 0.0:
            break
        step = ascend(
            np.column_stack([X, np.zeros(n)]),
            np.column_stack([-X * y[:, None], y]),
            np.column_stack([C, W[:, b]]),
            value,
        )
        if step is None:
            break
        X = step
        cols.append(b)

    P = np.zeros((n, m))
    P[:, cols] = X
    eu = float(np.sum(W * P))
    cost = _rule_cost(P, B)
    G = gains(X, W[:, cols])
    return SolveResult(
        rule=ChoiceRule(P),
        objective=eu - cost,
        cost=cost,
        expected_utility=eu,
        foc_residual=_residual(G[:, X.max(axis=0) > SUPPORT_EPS]),
        iterations=it,
        converged=converged,
    )


def solve_mutual_information(
    problem: DecisionProblem, lam: float, opts: SolveOptions | None = None
) -> SolveResult:
    """Maximize expected utility minus lam times mutual information.

    The optimal rule is P_ia = p_a E_ia / (E p)_i, E_ia = exp((u(a, i) -
    max_b u(b, i)) / lam), where the action marginal p maximizes the
    concave F(p) = sum_i q_i ln (E p)_i on the simplex (Matejka & McKay
    2015).  Its gradient g = E'(q / E p) has <p, g> = 1, so lam ln max_a g_a
    bounds the rule's distance from the optimal objective: the
    Matejka-McKay certificate.  ``converged`` means that it and
    ``foc_residual``, the rule's sup-norm distance from its fixed-point
    image, are within tol; ``iterations`` counts active-set Newton steps.
    """
    opts = opts or SolveOptions()
    lam = float(lam)
    if not (lam > 0) or not math.isfinite(lam):
        raise ValidationError(f"lambda = {lam!r} must be positive")
    q, tol = problem.prior, opts.tol
    W = problem.utility.T / lam  # (state, action)
    E = np.exp(W - W.max(axis=1, keepdims=True))

    def rises(p, Ep, y, d):
        # F, concave along d, has not peaked at y, or F(y) >= F(p) summed in
        # log1p terms; E y >= 1e-150 keeps q / E y finite, and (E p)_i >= q_i
        # at the optimum
        Ey, x = E @ y, E @ (y - p) / Ep
        return bool(np.all(Ey >= 1e-150) and np.all(x > -1.0)) and (
            (q / Ey) @ (E @ d) >= 0.0 or q @ np.log1p(x) >= 0.0
        )

    p, it = np.full(problem.n_actions, 1.0 / problem.n_actions), 0
    while True:
        Ep = E @ p
        g = E.T @ (q / Ep)
        S = p > 0.0
        P = p * E / Ep[:, None]
        M = (q @ P) * E
        res = float(np.max(np.abs(P - M / M.sum(axis=1, keepdims=True))))
        converged = res <= tol and lam * math.log(g.max()) <= tol
        if converged or it >= opts.max_iter:
            break
        it += 1
        d = np.zeros_like(p)
        k = int(S.sum())
        if k > 1 and (res > tol or lam * math.log(g[S].max()) > tol):
            # Newton step on sum(d) = 0; floored eigenvalues send it far uphill
            # where duplicate or dominated actions make the Hessian singular,
            # and g - 1 keeps it as accurate as the spread of g that sets it
            H = (E[:, S].T * (q / Ep**2)) @ E[:, S]
            J = np.eye(k) - 1.0 / k
            w, V = np.linalg.eigh(J @ H @ J)
            w = np.maximum(w, k * np.finfo(float).eps * np.trace(H))
            d[S] = J @ V @ ((V.T @ (J @ (g[S] - 1.0))) / w)
            reach = np.divide(p, -d, out=np.full_like(p, np.inf), where=d < 0.0)
            a = int(np.argmin(reach))
            if reach[a] <= 1.0:
                # drop a, and any tie such as a duplicate action, at 0
                z = np.maximum(p + reach[a] * d, 0.0)
                z[a] = 0.0
                z /= z.sum()
                if rises(p, Ep, z, d):
                    p = z
                    continue
        else:
            # the best excluded action b enters along e_b - p
            b = int(np.argmax(np.where(S, -np.inf, g)))
            d[b] = 1.0
            d -= p
            d *= (g[b] - 1.0) / max(g[b] - 1.0, float(q @ ((E @ d) / Ep) ** 2))
        # halve the step until it stays positive and rises (as it does
        # once it no longer moves p, which ends the solve)
        while not (np.all((p + d)[S | (d != 0.0)] > 0.0) and rises(p, Ep, p + d, d)):
            d *= 0.5
        if np.array_equal(p + d, p):
            break
        p = p + d

    # an action whose marginal underflows to 0 can keep subnormal entries;
    # their true terms are below P ln(1/q_i), so they are left out
    pb = q @ P
    mask = (P > 0.0) & (pb > 0.0)
    ratio = np.ones_like(P)
    ratio[mask] = P[mask] / np.broadcast_to(pb, P.shape)[mask]
    mi = float(np.sum(q[:, None] * np.where(mask, P * np.log(ratio), 0.0)))
    eu = _expected_utility(problem, P)
    cost = lam * mi
    return SolveResult(
        rule=ChoiceRule(P),
        objective=eu - cost,
        cost=cost,
        expected_utility=eu,
        foc_residual=res,
        iterations=it,
        converged=converged,
    )


def perception_problem(r: int) -> DecisionProblem:
    """Dot-counting task: i blue dots out of 100, i uniform on
    {50-r..49, 51..50+r}; guess whether blue (B) or red (R) dots are the
    majority, payoff 1 for a correct guess.
    """
    r = int(r)
    if not 1 <= r <= 50:
        raise ValidationError(f"r = {r} outside 1..50")
    values = list(range(50 - r, 50)) + list(range(51, 51 + r))
    states = StateSpace(tuple(str(v) for v in values), values)
    u = np.array(
        [
            [1.0 if v < 50 else 0.0 for v in values],  # R
            [1.0 if v > 50 else 0.0 for v in values],  # B
        ]
    )
    prior = np.full(len(values), 1.0 / len(values))
    return DecisionProblem(states, ("R", "B"), u, prior)


def psychometric_curve(
    r: int,
    kappa: float,
    cost_kind: str,
    lam: float = 1.0,
    opts: SolveOptions | None = None,
) -> list[tuple[int, float, float, float]]:
    """Rows (state, P(guess B), P(guess R), P(correct)) for the dot task
    solved under the requested cost ("llr" or "mi").
    """
    problem = perception_problem(r)
    if cost_kind == "llr":
        beta = inverse_square_betas(problem.states, kappa)
        result = solve_llr(problem, beta, opts)
    elif cost_kind == "mi":
        result = solve_mutual_information(problem, lam, opts)
    else:
        raise ValidationError(f"cost kind {cost_kind!r} not one of llr, mi")
    P = result.rule.probs
    rows = []
    for i, v in enumerate(problem.states.values):
        correct = P[i, 1] if v > 50 else P[i, 0]
        rows.append((int(v), float(P[i, 1]), float(P[i, 0]), float(correct)))
    return rows


def lipschitz_check(
    rule: ChoiceRule, values: Sequence[float], u_norm: float, gamma: float = 2.0
) -> tuple[float, bool]:
    """Largest |mu_i(a) - mu_j(a)| / (sqrt(u_norm) d(i,j)^(gamma/2)) over
    actions and state pairs, and whether it stays below 1.

    When every price beta_ij is at least 1/d(i,j)^gamma, optimal rules obey
    this bound; it quantifies how fast choice probabilities may move across
    nearby states.
    """
    v = np.asarray(values, dtype=float).ravel()
    P = rule.probs
    if v.size != P.shape[0]:
        raise DimensionMismatch(f"{v.size} values for {P.shape[0]} states")
    if not (u_norm > 0) or not math.isfinite(u_norm):
        raise ValidationError(f"u_norm = {u_norm!r} must be positive")
    dist = np.abs(v[:, None] - v[None, :])
    off = ~np.eye(v.size, dtype=bool)
    if np.any(dist[off] == 0.0):
        raise DuplicateValues("coincident state values")
    gap = np.max(np.abs(P[:, None, :] - P[None, :, :]), axis=2)
    ratio = gap[off] / (math.sqrt(u_norm) * dist[off] ** (gamma / 2.0))
    max_ratio = float(ratio.max()) if ratio.size else 0.0
    return max_ratio, max_ratio <= 1.0 + 1e-9


def problem_to_json(problem: DecisionProblem) -> dict:
    obj = {
        "states": list(problem.states.labels),
        "actions": list(problem.actions),
        "utility": problem.utility.tolist(),
        "prior": problem.prior.tolist(),
    }
    if problem.states.values is not None:
        obj["values"] = list(problem.states.values)
    return obj


def problem_from_json(obj: dict) -> DecisionProblem:
    for key in ("states", "actions", "utility", "prior"):
        if key not in obj:
            raise ValidationError(f"problem JSON missing {key!r}")
    states = StateSpace(tuple(obj["states"]), obj.get("values"))
    return DecisionProblem(
        states,
        tuple(obj["actions"]),
        np.asarray(obj["utility"], dtype=float),
        np.asarray(obj["prior"], dtype=float),
    )
