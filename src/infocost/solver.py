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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .costs import BetaMatrix, _mutual_information, _rule_cost, inverse_square_betas
from .errors import (
    DimensionMismatch,
    DuplicateValues,
    NonConcaveWarning,
    PriorNotFullSupport,
    StateSpaceMismatch,
    ValidationError,
    ZeroProbabilityOnSupport,
    _integer,
    _real,
)
from .experiments import (
    StateSpace,
    _check_prob_matrix,
    _finite,
    _floats,
    _freeze,
    _full_support_row,
    _json_fields,
    _json_labels,
    _labels,
)

# an action is out of support when its probability is below this in every state
SUPPORT_EPS = 1e-10
# most entries in one stack of the n x n Hessians of solve_llr's per-action
# tests (16 MB of float64); the support step solves one system of its own
_STACK_ENTRIES = 1 << 21


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """States with a prior, actions, and a payoff matrix u(a, i); the
    (state, action) table q_i u(a, i) is kept read-only as _qu, no field."""

    states: StateSpace
    actions: tuple
    utility: np.ndarray  # rows indexed by action, columns by state
    prior: np.ndarray

    def __post_init__(self):
        actions = _labels(self.actions, "action")
        if len(actions) == 0:
            raise ValidationError("no actions")
        u = _finite(self.utility, "utility", (len(actions), self.states.n))
        q = _full_support_row(self.prior, self.states.n, "prior", PriorNotFullSupport)
        qu = q[:, None] * u.T
        for a in (u, q, qu):
            a.flags.writeable = False
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utility", u)
        object.__setattr__(self, "prior", q)
        object.__setattr__(self, "_qu", qu)

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
        p = _freeze(_floats(self.probs, "choice rule"))
        _check_prob_matrix(p, "choice rule", positive=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 200000

    def __post_init__(self):
        object.__setattr__(self, "tol", _real(self.tol, "tol"))
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter", 1))


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
        """The fields in order, the rule as its nested list of probabilities."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"rule": self.rule.probs.tolist()}

    def summary(self) -> str:
        tag = "converged" if self.converged else "NOT converged"
        return (
            f"{tag} after {self.iterations} iterations: "
            f"objective {self.objective:.9g} = utility "
            f"{self.expected_utility:.9g} - cost {self.cost:.9g}, "
            f"FOC residual {self.foc_residual:.3g}"
        )


def _check_dimensions(problem: DecisionProblem, rule: ChoiceRule, beta: BetaMatrix):
    if rule.probs.shape != (problem.n_states, problem.n_actions):
        raise DimensionMismatch(
            f"rule shape {rule.probs.shape}, expected "
            f"({problem.n_states}, {problem.n_actions})"
        )
    if beta.states != problem.states:
        raise StateSpaceMismatch("beta and problem disagree on states")


def _expected_utility(problem: DecisionProblem, P: np.ndarray) -> float:
    return float(np.sum(problem._qu * P))


def _result(problem, P, cost, foc, iterations, converged) -> SolveResult:
    eu = _expected_utility(problem, P)
    return SolveResult(ChoiceRule(P), eu - cost, cost, eu, foc, iterations, converged)


def objective(problem: DecisionProblem, rule: ChoiceRule, beta: BetaMatrix) -> float:
    """Expected utility minus the rule's information cost (_rule_cost).

    A zero probability on a supported action makes some KL divergence
    infinite; with a positive price on that pair the objective is -inf,
    not an error.
    """
    _check_dimensions(problem, rule, beta)
    return _expected_utility(problem, rule.probs) - _rule_cost(rule.probs, beta)


def _cost_gradient(P: np.ndarray, B: np.ndarray, Bsum: np.ndarray) -> np.ndarray:
    """Marginal costs c~(i, a) = dC/dP_ia of a rule with positive entries.

    Column a is the gradient of f(x) = sum_ij beta_ij x_i ln(x_i / x_j) at
    x = P[:, a]; f is 1-homogeneous, so <c~(., a), P[:, a]> = f(P[:, a]).
    """
    L = np.log(P)
    return Bsum[:, None] * (L + 1.0) - B @ L - (B.T @ P) / P


def _cost_hessian(X: np.ndarray, B: np.ndarray, Bsum: np.ndarray) -> np.ndarray:
    """Hessians of f at the columns x > 0 of X, stacked by column.  Each has
    v'H v = sum_ij B_ij x_i (v_i / x_i - v_j / x_j)^2, so H x = 0, and H v = 0
    only for v = x rescaled by a constant on each connected component of the
    price graph B + B' > 0."""
    n, r = X.shape
    Xt = X.T.copy()  # C order, so that S and H are laid out slice by slice
    S = B / -Xt[:, None, :]
    H = S + S.transpose(0, 2, 1)  # -(B_ij / x_j + B_ji / x_i)
    H.reshape(r, -1)[:, :: n + 1] = Bsum / Xt + (X.T @ B) / (Xt * Xt)
    return H


def _support_step(X: np.ndarray, G: np.ndarray, B: np.ndarray, Bsum: np.ndarray):
    """The Newton direction D of solve_llr's support step: it maximizes
    sum_a <G[:, a], D[:, a]> - D[:, a]' H_a D[:, a] / 2, H_a the Hessian of
    f at X[:, a], subject to zero row sums.  The last column is eliminated,
    D[:, -1] = -sum of the others, leaving the system
    (blockdiag(H_1..H_k-1) + 11' (x) H_k) e = (G[:, a] - G[:, -1])_a<k, the
    Hessian reduced to the null space of the row-sum constraint.  By the
    null space of each H_a it is singular exactly when, on the states of some
    connected component of the price graph, the columns of X are linearly
    dependent: on a connected graph, only when the columns themselves are.
    LinAlgError is raised when its LU factorisation meets a zero pivot.
    K is written in place: H_k into every n-square block of its view as
    (k-1, n, k-1, n), then H_1..H_k-1 added through a writeable view of the
    diagonal blocks."""
    n, k = X.shape
    H = _cost_hessian(X, B, Bsum)
    K = np.empty(((k - 1) * n, (k - 1) * n))
    Kb = K.reshape(k - 1, n, k - 1, n)
    Kb[...] = H[-1][:, None, :]
    np.einsum("anam->anm", Kb)[...] += H[:-1]
    E = np.linalg.solve(K, (G[:, :-1] - G[:, -1:]).T.ravel()).reshape(k - 1, n).T
    return np.column_stack([E, -E.sum(axis=1)])


def _test_steps(Y: np.ndarray, G: np.ndarray, B: np.ndarray, Bsum: np.ndarray):
    """The Newton directions of the per-action tests of solve_llr, one for
    each column y of Y and g of G: d maximizes <g, d> - d'H d / 2, H the
    Hessian of f at y, subject to sum(d) = 0.  The last entry is eliminated,
    d_n = -(d_1 + ... + d_n-1), leaving Z'H Z e = g_<n - g_n for Z = [I; -1'].
    A system is singular exactly when the price graph is disconnected, so a
    stack of at most _STACK_ENTRIES Hessian entries is singular as a whole
    and then gives d = 0."""
    n, r = Y.shape
    w = max(1, _STACK_ENTRIES // (n * n))
    if r > w:
        return np.hstack(
            [_test_steps(Y[:, j : j + w], G[:, j : j + w], B, Bsum) for j in range(0, r, w)]
        )
    H = _cost_hessian(Y, B, Bsum)
    K = H[:, :-1, :-1] - H[:, -1:, :-1]  # Z'H Z: less the last row,
    K -= H[:, :-1, -1:] - H[:, -1:, -1:]  # then less the last column
    try:
        E = np.linalg.solve(K, (G[:-1] - G[-1]).T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        return np.zeros_like(Y)
    return np.concatenate([E, -E.sum(axis=0, keepdims=True)])


def _residual(R: np.ndarray) -> float:
    """Largest spread, over states, of q_i u(a, i) - c~(i, a) across the
    columns of R, at least one."""
    return float(np.max(R.max(axis=1) - R.min(axis=1)))


def foc_residual(
    problem: DecisionProblem, beta: BetaMatrix, rule: ChoiceRule
) -> float:
    """Largest violation of q_i [u(i,a1) - u(i,a2)] = c~(i,a1) - c~(i,a2)
    over states and pairs of supported actions.
    """
    _check_dimensions(problem, rule, beta)
    P = rule.probs
    support = P.max(axis=0) > SUPPORT_EPS
    Q = P[:, support]
    if np.any(Q <= 0.0):
        raise ZeroProbabilityOnSupport(
            "rule has a zero probability on a supported action"
        )
    B = beta.dense()
    return _residual(problem._qu[:, support] - _cost_gradient(Q, B, B.sum(axis=1)))


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
       (row sums held at 1), halving the step until it stays positive and
       the objective, concave along it, has risen or not yet peaked.  A
       column the full step drives out of the simplex is dropped as exact
       zeros when dropping it at that boundary does not lower the
       objective.  More columns than states are linearly dependent; the
       objective is then linear along a rescaling of the columns, which is
       followed until one column vanishes.  The Hessian is block-diagonal
       over columns and the row sums are its only coupling, so each step
       eliminates the last column's direction and solves one
       (k-1)n-square system, k columns on n states, in the null space of
       the row-sum constraint.
    3. Once the first-order residual on the support is within tol, price
       the states at lam_i = sum_a P_ia (w_a - grad f(P[:, a]))_i and test
       every excluded action b with v_b = max over the simplex of
       <w_b - lam, y> - f(y).  By concavity and homogeneity v_b lies
       between <g, y> and max_i g_i, g = w_b - lam - grad f(y), at any y,
       and a positive v_b is the objective's slope along mass moved onto b
       in proportion to its maximiser.  Each test starts from its own last
       maximiser in this solve (the uniform point the first time) and
       stops as soon as its bounds decide it: the upper bound is within
       tol (b does not pay), the lower bound is above tol (b pays, and the
       entering step and the support steps after it refine its column, so
       a sharper maximiser buys nothing), or the gap between the bounds is
       within tol; it also stops once its step no longer moves y.  The
       open tests take damped Newton steps together, a halving per test:
       each step eliminates the last state's entry of every direction and
       solves one stack of (n-1)-square systems, singular all together
       when the price graph is disconnected, and then no test moves.
    4. If every test ends with its upper bound within tol the rule is
       optimal: return it as converged.  Otherwise add the action with the
       largest lower bound (lowest index on ties) along its maximiser, by
       the same halving search, and go back to 2.

    A converged rule's objective is within n * tol of the optimum, n the
    number of states:
    - sum_i lam_i = objective(P) (Euler's identity);
    - with v_a as in step 3 for every action a, v_a <= max_i (w_a - lam -
      grad f(y))_i at any y;
    - every test's upper bound is at most tol, and at y = P[:, a] so is
      every supported action's, being at most the support residual;
    - the optimum's column masses m_a sum to n, so
      OPT <= sum_i lam_i + sum_a m_a v_a <= objective(P) + n * tol.

    ``iterations`` counts Newton steps, on the support and each test's
    own, and the rescalings of step 2; ``opts.max_iter`` caps them.  Excluded
    actions get probability exactly 0, so a corner rule costs exactly 0.
    With some zero prices a warning is issued: the Newton systems may then
    be singular and the maximizer need not be unique.
    """
    opts = opts or SolveOptions()
    if beta.states != problem.states:
        raise StateSpaceMismatch("beta and problem disagree on states")
    B = beta.dense()
    if np.count_nonzero(B) < B.size - B.shape[0]:  # the diagonal is 0
        warnings.warn(
            "non-strict concavity: some distinguishability prices are zero",
            NonConcaveWarning,
            stacklevel=2,
        )
    Bsum = B.sum(axis=1)
    W = problem._qu  # column a is w_a
    n, m = W.shape
    tol = opts.tol
    it = 0

    def gains(X, C, axis=None):
        # gradient G of sum_a <C[:, a], X[:, a]> - f(X[:, a]) and <G, X>,
        # summed over `axis`: by Euler's identity that objective itself
        G = C - _cost_gradient(X, B, Bsum)
        return G, (G * X).sum(axis)

    def ascend(X, D, C, value, axis=None):
        # the first of X + D, X + D/2, ... that is positive and, the
        # objective being concave along D, either gains on `value` or has
        # not passed its peak; with axis=0 column by column, each column
        # against its own value.  Returns that point, its gains and
        # objective, and whether it moved from X at all; a point that left
        # the simplex is priced at the placeholder 1, which `pos` masks
        while True:
            Y = X + D
            moved = (Y != X).any(axis)
            pos = (Y > 0.0).all(axis)
            Y = np.where(pos, Y, 1.0)
            G, v = gains(Y, C, axis)
            done = ~moved | pos & (((G * D).sum(axis) >= 0.0) | (v > value))
            if done.all():
                return Y, G, v, moved
            D = np.where(done, D, 0.5 * D)

    def tests(C, Y):
        # bounds lower <= v <= upper on v = max_y <c, y> - f(y) over the
        # simplex for each column c of C, by damped Newton steps taken
        # together from the columns of Y, which end at the y attaining
        # `lower`; a test stops once its bounds decide it (upper within tol,
        # lower above tol: entering refines a paying column, so its
        # maximiser need not be sharp) or upper - lower is within tol, or
        # once its step (zero if its Newton system is singular) no longer
        # moves y
        nonlocal it
        G, lower = gains(Y, C, axis=0)
        upper = G.max(axis=0)
        live = np.arange(C.shape[1])
        y, g, c, lo, up, moved = Y, G, C, lower, upper, True
        while True:
            keep = moved & (lo <= tol) & (up > tol) & (up - lo > tol)
            keep[opts.max_iter - it :] = False  # tests past the cap stop here
            if not keep.all():
                live, lo = live[keep], lo[keep]
                y, g, c = y[:, keep], g[:, keep], c[:, keep]
            if live.size == 0:
                return lower, upper, Y
            it += live.size
            y, g, lo, moved = ascend(y, _test_steps(y, g, B, Bsum), c, lo, axis=0)
            up = g.max(axis=0)
            Y[:, live], lower[live], upper[live] = y, lo, up

    cols = [int(np.argmax(W.sum(axis=0)))]
    X = np.ones((n, 1))
    G, value = gains(X, W[:, cols])  # X, its gains and objective move together
    Ys = np.full((n, m), 1.0 / n)  # column b: the last maximiser of b's test
    converged = False
    while it < opts.max_iter:
        C = W[:, cols]
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
            G, value = gains(X, W[:, cols])
            continue
        if _residual(G) > tol:
            it += 1
            try:
                D = _support_step(X, G, B, Bsum)
            except np.linalg.LinAlgError:
                break
            reach = np.divide(X, -D, out=np.full_like(X, np.inf), where=D < 0.0)
            i, a = np.unravel_index(np.argmin(reach), reach.shape)
            if reach[i, a] <= 1.0:
                Z = np.delete(X + reach[i, a] * D, a, axis=1)
                Z /= Z.sum(axis=1, keepdims=True)
                if np.all(Z > 0.0):
                    GZ, vZ = gains(Z, np.delete(C, a, axis=1))
                    if vZ >= value:
                        X, G, value = Z, GZ, vZ
                        del cols[a]
                        continue
            X, G, value, moved = ascend(X, D, C, value)
            if not moved:
                break
            continue
        lam = np.sum(X * G, axis=1)
        out = [b for b in range(m) if b not in cols]
        lower, upper, Ys[:, out] = tests(W[:, out] - lam[:, None], Ys[:, out])
        if (upper <= tol).all():
            converged = True
            break
        j = int(lower.argmax())
        if lower[j] <= 0.0:
            break
        b, y = out[j], Ys[:, out[j]]
        step, Gs, v, moved = ascend(
            np.column_stack([X, np.zeros(n)]),
            np.column_stack([-X * y[:, None], y]),
            np.column_stack([C, W[:, b]]),
            value,
        )
        if not moved:
            break
        X, G, value = step, Gs, v
        cols.append(b)

    P = np.zeros((n, m))
    P[:, cols] = X
    foc = _residual(G[:, X.max(axis=0) > SUPPORT_EPS])
    return _result(problem, P, _rule_cost(P, beta), foc, it, converged)


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
    lam = _real(lam, "lambda")
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

    return _result(problem, P, lam * _mutual_information(q, P), res, it, converged)


def perception_problem(r: int) -> DecisionProblem:
    """Dot-counting task: i blue dots out of 100, i uniform on
    {50-r..49, 51..50+r}; guess whether blue (B) or red (R) dots are the
    majority, payoff 1 for a correct guess.
    """
    r = _integer(r, "r", 1, 50)
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
    P = rule.probs
    v = _finite(values, "values", (P.shape[0],))
    u_norm, gamma = _real(u_norm, "u_norm"), _real(gamma, "gamma")
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
    _json_fields(obj, "problem", "states", "actions", "utility", "prior")
    states = StateSpace(_json_labels(obj, "states"), obj.get("values"))
    actions = _json_labels(obj, "actions")
    return DecisionProblem(states, actions, obj["utility"], obj["prior"])
