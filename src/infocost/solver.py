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

from .costs import BetaMatrix, inverse_square_betas
from .errors import (
    DimensionMismatch,
    DuplicateValues,
    NonConcaveWarning,
    PriorNotFullSupport,
    RowSumViolation,
    StateSpaceMismatch,
    ValidationError,
    ZeroProbabilityOnSupport,
)
from .experiments import ENTRY_FLOOR, ROW_SUM_TOL, StateSpace

# an action is out of support when its probability is below this in every state
SUPPORT_EPS = 1e-10

_STEP_MIN = 1e-18
_STEP_MAX = 1e3


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
        q = np.array(self.prior, dtype=float, copy=True).ravel()
        if q.size != self.states.n:
            raise DimensionMismatch(f"prior length {q.size}")
        if not np.all(np.isfinite(q)) or np.any(q <= ENTRY_FLOOR):
            raise PriorNotFullSupport(
                f"prior needs full support above {ENTRY_FLOOR:g}"
            )
        if abs(float(q.sum()) - 1.0) > ROW_SUM_TOL:
            raise RowSumViolation(f"prior sums to {float(q.sum())!r}")
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
        if not np.all(np.isfinite(p)):
            raise ValidationError("non-finite choice probability")
        if np.any(p < 0):
            raise ValidationError("negative choice probability")
        sums = p.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise RowSumViolation(f"row {i} sums to {float(sums[i])!r}")
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


def _restricted_cost(P: np.ndarray, B: np.ndarray) -> float:
    """Rule cost with all-zero action columns dropped.

    A zero probability on a supported action makes some KL divergence, and
    hence the cost, infinite; that is reported as inf, not an error.
    """
    keep = P.max(axis=0) > 0.0
    Q = P[:, keep]
    if Q.shape[1] == 0:
        return 0.0
    if np.all(Q > 0.0):
        L = np.log(Q)
        own = (Q * L).sum(axis=1)
        D = own[:, None] - Q @ L.T
        return float(np.sum(B * D))
    n = Q.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or B[i, j] == 0.0:
                continue
            pi, pj = Q[i], Q[j]
            on = pi > 0.0
            if np.any(pj[on] == 0.0):
                return math.inf
            total += B[i, j] * float(
                np.dot(pi[on], np.log(pi[on] / pj[on]))
            )
    return total


def _expected_utility(problem: DecisionProblem, P: np.ndarray) -> float:
    qU = problem.prior[:, None] * problem.utility.T
    return float(np.sum(qU * P))


def objective(problem: DecisionProblem, rule: ChoiceRule, beta: BetaMatrix) -> float:
    """Expected utility minus the rule's information cost."""
    _check_dimensions(problem, rule)
    if beta.states != problem.states:
        raise StateSpaceMismatch("beta and problem disagree on states")
    eu = _expected_utility(problem, rule.probs)
    return eu - _restricted_cost(rule.probs, beta.dense())


def _ctilde(P: np.ndarray, L: np.ndarray, B: np.ndarray, Bsum: np.ndarray):
    """Marginal cost terms c~(i, a) of the first-order conditions."""
    return -((B @ L) - Bsum[:, None] * L + (B.T @ P) / P)


def _residual(qU: np.ndarray, ct: np.ndarray, support: np.ndarray) -> float:
    R = (qU - ct)[:, support]
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
    Bsum = B.sum(axis=1)
    qU = (problem.prior[:, None] * problem.utility.T)[:, support]
    ct = _ctilde(Q, np.log(Q), B, Bsum)
    if Q.shape[1] <= 1:
        return 0.0
    R = qU - ct
    return float(np.max(R.max(axis=1) - R.min(axis=1)))


def _objective_parts(P, B, qU):
    L = np.log(P)
    own = (P * L).sum(axis=1)
    cost = float(np.sum(B * (own[:, None] - P @ L.T)))
    eu = float(np.sum(qU * P))
    return eu, cost


def solve_llr(
    problem: DecisionProblem, beta: BetaMatrix, opts: SolveOptions | None = None
) -> SolveResult:
    """Maximize expected utility minus the log-likelihood-ratio cost.

    Mirror ascent on the product of action simplices: every state row takes
    a multiplicative-weights step along the objective gradient, with one
    global step size backtracked on the true objective.  The cost's
    x log x terms push iterates away from the boundary, so the rows stay
    strictly positive throughout.  Strict concavity (all off-diagonal
    prices positive) makes the maximizer unique; with zero prices a
    warning is issued and the result need not be unique.
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
    U = problem.utility
    qU = problem.prior[:, None] * U.T

    # per-row natural scaling: at unit step the scaled mirror update is the
    # fixed-point map of the first-order conditions themselves
    top = float(Bsum.max())
    if top > 0.0:
        scale = 1.0 / np.maximum(Bsum, 1e-3 * top)[:, None]
    else:
        scale = np.ones((B.shape[0], 1))

    def mirror_step(P, L, s):
        grad = qU - (Bsum[:, None] * (L + 1.0) - B @ L - (B.T @ P) / P)
        G = grad * scale
        G -= G.max(axis=1, keepdims=True)
        Q = P * np.exp(s * G)
        Q /= Q.sum(axis=1, keepdims=True)
        Q = np.maximum(Q, 1e-300)
        return Q / Q.sum(axis=1, keepdims=True)

    def residual_at(P, L):
        ct = _ctilde(P, L, B, Bsum)
        return _residual(qU, ct, P.max(axis=0) > SUPPORT_EPS)

    def newton_polish(P0, budget):
        # equality-constrained Newton on the supported columns; the cost
        # is a sum over columns, so its Hessian is block diagonal with one
        # n x n block per column:
        #   H_a[i,i] = sum_j beta_ij / mu_i + sum_j beta_ji mu_j / mu_i^2
        #   H_a[i,j] = -(beta_ij / mu_j + beta_ji / mu_i)
        # steps keep row sums fixed and are accepted only when the
        # first-order residual strictly decreases
        sup = P0.max(axis=0) > SUPPORT_EPS
        k = int(sup.sum())
        n = P0.shape[0]
        if k <= 1 or budget <= 0 or n * k > 1000:
            return P0, 0, residual_at(P0, np.log(P0))
        X = np.array(P0[:, sup])
        nk = n * k
        A = np.zeros((n, nk))
        for i in range(n):
            A[i, i * k : (i + 1) * k] = 1.0

        def res_of(Y):
            full = np.array(P0)
            full[:, sup] = Y
            return residual_at(full, np.log(full))

        used = 0
        res = res_of(X)
        while used < budget and res > opts.tol:
            used += 1
            Lx = np.log(X)
            ct = Bsum[:, None] * Lx - B @ Lx - (B.T @ X) / X
            g = ct + Bsum[:, None] - qU[:, sup]
            M = np.zeros((nk + n, nk + n))
            rhs = np.zeros(nk + n)
            for a in range(k):
                x = X[:, a]
                bt = B.T @ x
                Ha = -(B / x[None, :] + B.T / x[:, None])
                np.fill_diagonal(Ha, Bsum / x + bt / (x * x))
                idx = np.arange(n) * k + a
                M[np.ix_(idx, idx)] = Ha
                rhs[idx] = -g[:, a]
            M[nk:, :nk] = A
            M[:nk, nk:] = A.T
            try:
                sol = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                break
            dx = sol[:nk].reshape(n, k)
            t = 1.0
            neg = dx < 0.0
            if np.any(neg):
                t = min(1.0, 0.99 * float(np.min(-X[neg] / dx[neg])))
            improved = False
            for _ in range(12):
                Xt = X + t * dx
                if np.all(Xt > 0.0):
                    rt = res_of(Xt)
                    if rt < res:
                        X, res = Xt, rt
                        improved = True
                        break
                t *= 0.5
            if not improved:
                break
        out = np.array(P0)
        out[:, sup] = X
        return out, used, res

    def evict_cols(P, obj, cols):
        # an action leaving the support decays multiplicatively and would
        # take thousands of sweeps to become negligible on its own; push
        # the marked columns out in one move, provided the objective
        # confirms they were indeed worthless
        Q = np.array(P)
        Q[:, cols] = 1e-300
        Q /= Q.sum(axis=1, keepdims=True)
        new_eu, new_cost = _objective_parts(Q, B, qU)
        new_obj = new_eu - new_cost
        if new_obj >= obj - 1e-11 * (1.0 + abs(obj)):
            return Q, new_obj
        return None

    # deterministic utility-tilted interior start
    T = U.T / (1.0 + float(np.max(np.abs(U))))
    T = T - T.max(axis=1, keepdims=True)
    P = np.exp(T)
    P /= P.sum(axis=1, keepdims=True)

    eu, cost = _objective_parts(P, B, qU)
    obj = eu - cost
    prev_obj = -math.inf
    step = 1.0
    it = 0
    converged = False
    gap_min = max(100.0 * opts.tol, 1e-5)
    rounds = 0

    # alternate monotone mirror ascent with an occasional Newton polish;
    # ascent makes the global progress and settles the support, Newton
    # finishes ill-conditioned endgames the multiplicative map would
    # only close at a linear rate
    while it < opts.max_iter and not converged:
        want_polish = False
        mark = math.inf
        while it < opts.max_iter:
            it += 1
            L = np.log(P)
            ct = _ctilde(P, L, B, Bsum)
            colmax = P.max(axis=0)
            res = _residual(qU, ct, colmax > SUPPORT_EPS)
            if (
                it > 1
                and res <= opts.tol
                and obj - prev_obj <= opts.tol * (1.0 + abs(obj))
            ):
                converged = True
                break
            # eviction candidates, checked every sweep: columns that are
            # already negligible (their ragged log ratios pollute the
            # gradient and throttle the line search), and small columns
            # dominated at first order in every state (strictly
            # everywhere, clearly in at least one), which would otherwise
            # crawl toward zero for thousands of sweeps
            live = colmax > 1e-250
            R = np.where((colmax > SUPPORT_EPS)[None, :], qU - ct, -np.inf)
            gap = R.max(axis=1, keepdims=True) - (qU - ct)
            dominated = np.all(gap > 0.0, axis=0) & (gap.max(axis=0) > gap_min)
            cols = live & ((colmax < 1e-7) | ((colmax < 1e-2) & dominated))
            if np.any(cols):
                got = evict_cols(P, obj, cols)
                if got is not None:
                    P, obj = got
                    prev_obj = -math.inf
                    mark = math.inf
                    continue
            # a residual that has not even halved over the last 256 sweeps
            # marks a linear-rate tail worth handing to the polish
            if it % 256 == 0:
                if res <= 1e-2 and res > 0.5 * mark:
                    want_polish = True
                    break
                mark = res
            s = step
            accepted = False
            while s >= _STEP_MIN:
                Q = mirror_step(P, L, s)
                new_eu, new_cost = _objective_parts(Q, B, qU)
                new_obj = new_eu - new_cost
                if new_obj >= obj:
                    accepted = True
                    break
                s *= 0.5
            if not accepted or new_obj == obj:
                # objective exhausted at float resolution
                want_polish = True
                break
            prev_obj = obj
            P = Q
            obj = new_obj
            step = min(s * 1.25, _STEP_MAX)
        if converged or not want_polish:
            break
        rounds += 1
        if rounds > 8:
            break
        P, used, res = newton_polish(P, min(60, opts.max_iter - it))
        it += used
        eu, cost = _objective_parts(P, B, qU)
        obj = eu - cost
        prev_obj = -math.inf
        if res <= opts.tol:
            converged = True

    eu, cost = _objective_parts(P, B, qU)
    res = residual_at(P, np.log(P))
    return SolveResult(
        rule=ChoiceRule(P),
        objective=eu - cost,
        cost=cost,
        expected_utility=eu,
        foc_residual=res,
        iterations=it,
        converged=converged and res <= opts.tol,
    )


def _mi_map(pbar: np.ndarray, E: np.ndarray) -> np.ndarray:
    M = pbar[None, :] * E
    return M / M.sum(axis=1, keepdims=True)


def solve_mutual_information(
    problem: DecisionProblem, lam: float, opts: SolveOptions | None = None
) -> SolveResult:
    """Maximize expected utility minus lam times mutual information.

    Damped fixed-point iteration on the unconditional action distribution
    p: the optimal rule satisfies mu_i(a) proportional to p(a) e^{u(a,i)/lam}.
    The reported residual is the sup-norm distance of the returned rule
    from its own fixed-point image.
    """
    opts = opts or SolveOptions()
    lam = float(lam)
    if not (lam > 0) or not math.isfinite(lam):
        raise ValidationError(f"lambda = {lam!r} must be positive")
    q = problem.prior
    W = problem.utility.T / lam  # (state, action)
    E = np.exp(W - W.max(axis=1, keepdims=True))

    pbar = np.full(problem.n_actions, 1.0 / problem.n_actions)
    it = 0
    for it in range(1, opts.max_iter + 1):
        P = _mi_map(pbar, E)
        consistent = q @ P
        res = float(np.max(np.abs(P - _mi_map(consistent, E))))
        if res <= opts.tol:
            break
        pbar = 0.5 * pbar + 0.5 * consistent

    # one extra application of the map so states with identical payoff
    # columns get exactly identical rows
    P = _mi_map(q @ P, E)
    pb = q @ P
    res = float(np.max(np.abs(P - _mi_map(pb, E))))

    # an action whose marginal underflows to 0 can keep subnormal entries;
    # their true terms are below P ln(1/q_i), so they are left out
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
        converged=res <= opts.tol,
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
