"""Optimal acquisition: decision problems, the LLR solver against
independent oracles, the mutual-information baseline, the perception
task, and the smoothness bound.

The LLR solver gets three kinds of scrutiny: a one-dimensional first-order
condition solved by bisection on symmetric matching problems, a dense
two-parameter grid search on asymmetric two-state problems, and batches
of random rules that must never beat the reported optimum.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from conftest import rand_beta, rand_problem, rand_rule
from infocost import (
    BetaMatrix,
    ChoiceRule,
    DecisionProblem,
    Experiment,
    NonConcaveWarning,
    SolveOptions,
    StateSpace,
    Xoshiro256,
    constant_betas,
    foc_residual,
    inverse_square_betas,
    kl_matrix,
    lipschitz_check,
    llr_cost,
    mutual_information_cost,
    objective,
    one_dimensional_betas,
    perception_problem,
    problem_from_json,
    problem_to_json,
    psychometric_curve,
    solve_llr,
    solve_mutual_information,
)
from infocost.errors import (
    DimensionMismatch,
    DuplicateValues,
    PriorNotFullSupport,
    RowSumViolation,
    StateSpaceMismatch,
    ValidationError,
    ZeroProbabilityOnSupport,
)
from infocost.solver import _cost_gradient, _cost_hessian, _support_step, _test_steps


def _matching_problem(payoff=1.0):
    states = StateSpace(("s0", "s1"))
    u = np.array([[payoff, 0.0], [0.0, payoff]])
    return DecisionProblem(states, ("a0", "a1"), u, np.array([0.5, 0.5]))


def _mm_gap(problem, lam, P):
    """Matejka-McKay gap lam ln max_a sum_i q_i E_ia / sum_b pbar_b E_ib of
    a rule with marginal pbar = q P: a bound on how far its objective is
    below the optimum under mutual information."""
    q = problem.prior
    W = problem.utility.T / lam
    E = np.exp(W - W.max(axis=1, keepdims=True))
    return lam * math.log(np.max(E.T @ (q / (E @ (q @ P)))))


def _loop_cost(P, B):
    """Rule cost by a per-pair loop, the reference of the LLR-sum kernel:
    inf as soon as a priced pair leaves the support, zero-price pairs
    skipped."""
    Q = P[:, P.max(axis=0) > 0.0]
    total = 0.0
    for i in range(Q.shape[0]):
        for j in range(Q.shape[0]):
            if i == j or B[i, j] == 0.0:
                continue
            on = Q[i] > 0.0
            if np.any(Q[j][on] == 0.0):
                return math.inf
            total += B[i, j] * float(np.dot(Q[i][on], np.log(Q[i][on] / Q[j][on])))
    return total


def _solved_corpus(seed, lo, hi):
    """Criterion 06's draw: 100 random problems with prices in [lo, hi],
    each solved at the default tolerance, and the generator left to draw
    their rivals."""
    rng = Xoshiro256(seed)
    solved = []
    for _ in range(100):
        problem = rand_problem(rng, rng.randint(2, 5), rng.randint(2, 4))
        beta = rand_beta(rng, problem.states, lo=lo, hi=hi)
        solved.append((problem, beta, solve_llr(problem, beta)))
    return solved, rng


def _quadratic_grid(values, m):
    """Quadratic loss u(a, i) = -((a - v_i) / span)^2 with m actions evenly
    spaced over the range of the state values v and a uniform prior."""
    v = np.asarray(values, dtype=float)
    actions = np.linspace(v[0], v[-1], m)
    return DecisionProblem(
        StateSpace(tuple(f"s{i}" for i in range(v.size)), v),
        tuple(f"a{j}" for j in range(m)),
        -(((actions[:, None] - v[None, :]) / (v[-1] - v[0])) ** 2),
        np.full(v.size, 1.0 / v.size),
    )


def _matching_oracle(b, target):
    """Solve target = b (2 ln r + r - 1/r) for r by bisection; return
    the implied diagonal choice probability r / (1 + r)."""

    def f(r):
        return b * (2.0 * math.log(r) + r - 1.0 / r)

    lo, hi = 1.0, 2.0
    while f(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return r / (1.0 + r)


class TestDecisionProblem:
    def test_basic_construction(self):
        p = _matching_problem()
        assert p.n_states == 2 and p.n_actions == 2
        assert p.actions == ("a0", "a1")

    def test_rejects_empty_actions(self):
        states = StateSpace(("s0", "s1"))
        with pytest.raises(ValidationError):
            DecisionProblem(states, (), np.zeros((0, 2)), (0.5, 0.5))

    def test_rejects_duplicate_actions(self):
        states = StateSpace(("s0", "s1"))
        with pytest.raises(ValidationError):
            DecisionProblem(
                states, ("a", "a"), np.zeros((2, 2)), (0.5, 0.5)
            )

    def test_rejects_utility_shape(self):
        states = StateSpace(("s0", "s1"))
        with pytest.raises(DimensionMismatch):
            DecisionProblem(states, ("a",), np.zeros((2, 2)), (0.5, 0.5))

    def test_rejects_nonfinite_utility(self):
        states = StateSpace(("s0", "s1"))
        with pytest.raises(ValidationError):
            DecisionProblem(
                states, ("a", "b"), np.array([[1.0, math.inf], [0.0, 0.0]]),
                (0.5, 0.5),
            )

    def test_prior_must_have_full_support_and_sum(self):
        states = StateSpace(("s0", "s1"))
        u = np.zeros((2, 2))
        with pytest.raises(PriorNotFullSupport):
            DecisionProblem(states, ("a", "b"), u, (1.0, 0.0))
        for bad in ((math.nan, 1.0), (math.inf, 0.5)):
            with pytest.raises(PriorNotFullSupport):
                DecisionProblem(states, ("a", "b"), u, bad)
        with pytest.raises(RowSumViolation):
            DecisionProblem(states, ("a", "b"), u, (0.5, 0.6))


class TestChoiceRule:
    def test_rows_must_normalize(self):
        with pytest.raises(RowSumViolation):
            ChoiceRule(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ChoiceRule(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_zeros_are_allowed(self):
        r = ChoiceRule(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert r.probs[0, 1] == 0.0

    def test_probs_are_immutable(self):
        r = ChoiceRule(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            r.probs[0, 0] = 0.9


class TestSolveOptions:
    def test_defaults(self):
        o = SolveOptions()
        assert o.tol == 1e-8 and o.max_iter == 200000

    def test_validation(self):
        # a fractional max_iter once reached solve_llr and failed there as
        # a TypeError on a slice index
        for kw in (
            {"tol": 0.0},
            {"tol": math.inf},
            {"tol": math.nan},
            {"tol": "1e-8"},
            {"tol": None},
            {"max_iter": 0},
            {"max_iter": 1000.5},
            {"max_iter": True},
            {"max_iter": "10"},
        ):
            with pytest.raises(ValidationError):
                SolveOptions(**kw)
        assert SolveOptions(tol=np.float64(1e-6), max_iter=np.int64(5)).max_iter == 5


class TestObjective:
    def test_matches_utility_minus_experiment_cost(self):
        rng = Xoshiro256(50)
        for _ in range(20):
            problem = rand_problem(rng, rng.randint(2, 4), rng.randint(2, 4))
            rule = rand_rule(rng, problem.n_states, problem.n_actions)
            beta = constant_betas(problem.states, rng.uniform_in(0.1, 1.0))
            eu = sum(
                problem.prior[i]
                * sum(
                    rule.probs[i, a] * problem.utility[a, i]
                    for a in range(problem.n_actions)
                )
                for i in range(problem.n_states)
            )
            as_experiment = Experiment(
                problem.states,
                tuple(range(problem.n_actions)),
                rule.probs,
            )
            want = eu - llr_cost(as_experiment, beta)
            assert objective(problem, rule, beta) == pytest.approx(
                want, rel=1e-11, abs=1e-12
            )

    def test_all_zero_columns_are_free(self):
        states = StateSpace(("s0", "s1"))
        u = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        problem = DecisionProblem(states, ("a", "b", "c"), u, (0.5, 0.5))
        beta = constant_betas(states, 0.5)
        wide = ChoiceRule(np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]]))
        narrow = ChoiceRule(np.array([[0.7, 0.3], [0.2, 0.8]]))
        narrow_problem = DecisionProblem(
            states, ("a", "b"), u[:2], (0.5, 0.5)
        )
        assert objective(problem, wide, beta) == pytest.approx(
            objective(narrow_problem, narrow, beta), rel=1e-14
        )

    def test_mixed_zero_column_costs_infinity(self):
        states = StateSpace(("s0", "s1"))
        u = np.zeros((2, 2))
        problem = DecisionProblem(states, ("a", "b"), u, (0.5, 0.5))
        beta = constant_betas(states, 1.0)
        rule = ChoiceRule(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert objective(problem, rule, beta) == -math.inf

    def test_zero_price_on_an_infinite_pair_contributes_nothing(self):
        # KL(row 0 || row 1) = ln 2, while KL(row 1 || row 0) is infinite
        states = StateSpace(("s0", "s1"))
        problem = DecisionProblem(states, ("a", "b"), np.zeros((2, 2)), (0.5, 0.5))
        rule = ChoiceRule(np.array([[1.0, 0.0], [0.5, 0.5]]))
        b = 0.7
        only_01 = BetaMatrix(states, np.array([[0.0, b], [0.0, 0.0]]))
        assert objective(problem, rule, only_01) == pytest.approx(
            -b * math.log(2.0), rel=1e-15
        )
        both = BetaMatrix(states, np.array([[0.0, b], [0.3, 0.0]]))
        assert objective(problem, rule, both) == -math.inf

    def test_rules_with_zeros_match_the_loop(self):
        rng = Xoshiro256(59)
        finite_with_zeros = 0
        for _ in range(400):
            n, m = rng.randint(2, 4), rng.randint(2, 5)
            states = StateSpace(tuple(f"s{i}" for i in range(n)))
            P = np.array(
                [[rng.uniform() if rng.uniform() < 0.8 else 0.0 for _ in range(m)]
                 for _ in range(n)]
            )
            P[P.sum(axis=1) == 0.0, 0] = 1.0
            P /= P.sum(axis=1, keepdims=True)
            B = np.array(
                [[rng.uniform_in(0.1, 2.0) if rng.uniform() < 0.6 else 0.0
                  for _ in range(n)] for _ in range(n)]
            )
            problem = DecisionProblem(
                states, tuple(range(m)), np.zeros((m, n)), np.full(n, 1.0 / n)
            )
            beta = BetaMatrix(states, B)
            got = -objective(problem, ChoiceRule(P), beta)
            want = _loop_cost(P, beta.dense())
            if math.isinf(want):
                assert got == math.inf
            else:
                finite_with_zeros += bool(np.any(P[:, P.max(axis=0) > 0.0] == 0.0))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert finite_with_zeros >= 50, finite_with_zeros

    def test_positive_rules_cost_their_experiment_bit_for_bit(self):
        # a positive rule is priced as the experiment whose signals are its
        # actions, through the same LLR sum; the KL-matrix sum agrees to
        # rounding.  Up to 12 actions, as from 8 columns on numpy's row sums
        # round differently on a column-major copy of the rule
        rng = Xoshiro256(58)
        for _ in range(50):
            problem = rand_problem(rng, rng.randint(2, 5), rng.randint(2, 12))
            problem = DecisionProblem(
                problem.states,
                problem.actions,
                np.zeros_like(problem.utility),
                problem.prior,
            )
            beta = rand_beta(rng, problem.states)
            rule = rand_rule(rng, problem.n_states, problem.n_actions)
            mu = Experiment(problem.states, problem.actions, rule.probs)
            got = objective(problem, rule, beta)
            assert got == -llr_cost(mu, beta)
            cost = float(np.sum(beta.dense() * kl_matrix(mu)))
            assert got == pytest.approx(-cost, rel=1e-13)

    def test_integer_grid_rules_price_by_fft(self, monkeypatch):
        # 300 states and 3 actions: apply runs by FFT, and must agree with
        # the dense matrix of the same rule, which it no longer builds
        n, m = 300, 3
        states = StateSpace(tuple(f"s{i}" for i in range(n)), tuple(range(0, 2 * n, 2)))
        problem = DecisionProblem(
            states, tuple(range(m)), np.zeros((m, n)), np.full(n, 1.0 / n)
        )
        beta = one_dimensional_betas(states, 2.0)
        dense = BetaMatrix(states, beta.dense())
        rule = rand_rule(Xoshiro256(61), n, m)
        P = rule.probs.copy()
        P[7] = (0.0, 0.4, 0.6)  # column 0 mixes zeros with positive entries
        want = objective(problem, rule, dense)
        assert objective(problem, ChoiceRule(P), dense) == -math.inf
        monkeypatch.setattr(BetaMatrix, "dense", None)
        assert objective(problem, rule, beta) == pytest.approx(want, rel=1e-12)
        assert objective(problem, ChoiceRule(P), beta) == -math.inf

    def test_integer_grid_rules_price_above_the_dense_cap(self):
        n = 2100
        states = StateSpace(tuple(f"s{i}" for i in range(n)), tuple(range(n)))
        problem = DecisionProblem(
            states, ("a", "b"), np.zeros((2, n)), np.full(n, 1.0 / n)
        )
        beta = inverse_square_betas(states, 1.0)
        rule = rand_rule(Xoshiro256(62), n, 2)
        mu = Experiment(states, problem.actions, rule.probs)
        assert objective(problem, rule, beta) == -llr_cost(mu, beta)

    def test_dimension_checks(self):
        problem = _matching_problem()
        beta = constant_betas(problem.states, 1.0)
        with pytest.raises(DimensionMismatch):
            objective(problem, ChoiceRule(np.full((3, 2), 0.5)), beta)
        other = constant_betas(StateSpace(("x", "y")), 1.0)
        rule = ChoiceRule(np.full((2, 2), 0.5))
        with pytest.raises(StateSpaceMismatch):
            objective(problem, rule, other)


class TestFocResidual:
    def test_uniform_rule_is_far_from_optimal(self):
        problem = _matching_problem()
        beta = constant_betas(problem.states, 0.2)
        rule = ChoiceRule(np.full((2, 2), 0.5))
        assert foc_residual(problem, beta, rule) > 0.01

    def test_agrees_with_solver_report(self):
        rng = Xoshiro256(51)
        for _ in range(10):
            problem = rand_problem(rng, rng.randint(2, 4), rng.randint(2, 4))
            beta = constant_betas(problem.states, rng.uniform_in(0.3, 1.5))
            res = solve_llr(problem, beta, SolveOptions(tol=1e-9))
            assert res.converged
            assert foc_residual(problem, beta, res.rule) == pytest.approx(
                res.foc_residual, abs=1e-10
            )

    def test_rejects_zero_on_supported_action(self):
        problem = DecisionProblem(
            StateSpace(("s0", "s1")),
            ("a", "b", "c"),
            np.zeros((3, 2)),
            (0.5, 0.5),
        )
        beta = constant_betas(problem.states, 1.0)
        rule = ChoiceRule(np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25]]))
        with pytest.raises(ZeroProbabilityOnSupport):
            foc_residual(problem, beta, rule)


class TestSolveLLR:
    def test_matching_first_order_condition(self):
        problem = _matching_problem()
        for b in (0.1, 0.25, 0.6, 2.0):
            beta = constant_betas(problem.states, b)
            res = solve_llr(problem, beta, SolveOptions(tol=1e-10))
            assert res.converged
            want = _matching_oracle(b, target=0.5)
            assert res.rule.probs[0, 0] == pytest.approx(want, abs=1e-8)
            assert res.rule.probs[1, 1] == pytest.approx(want, abs=1e-8)

    def test_two_state_grid_search(self):
        states = StateSpace(("lo", "hi"))
        u = np.array([[1.2, -0.3], [-0.5, 1.0]])
        prior = np.array([0.6, 0.4])
        problem = DecisionProblem(states, ("a0", "a1"), u, prior)
        beta = BetaMatrix(states, [[0.0, 0.4], [0.7, 0.0]])
        res = solve_llr(problem, beta, SolveOptions(tol=1e-10))
        assert res.converged

        def grid_best(p_lo, p_hi, q_lo, q_hi, m):
            p = np.linspace(p_lo, p_hi, m)[:, None]
            q2 = np.linspace(q_lo, q_hi, m)[None, :]
            eu = prior[0] * (p * u[0, 0] + (1 - p) * u[1, 0]) + prior[1] * (
                q2 * u[0, 1] + (1 - q2) * u[1, 1]
            )
            kl01 = p * np.log(p / q2) + (1 - p) * np.log((1 - p) / (1 - q2))
            kl10 = q2 * np.log(q2 / p) + (1 - q2) * np.log((1 - q2) / (1 - p))
            val = eu - 0.4 * kl01 - 0.7 * kl10
            k = np.unravel_index(np.argmax(val), val.shape)
            return float(val[k]), float(p[k[0], 0]), float(q2[0, k[1]])

        best, p0, q0 = grid_best(1e-4, 1 - 1e-4, 1e-4, 1 - 1e-4, 801)
        step = (1 - 2e-4) / 800
        best, p0, q0 = grid_best(
            max(p0 - 2 * step, 1e-6),
            min(p0 + 2 * step, 1 - 1e-6),
            max(q0 - 2 * step, 1e-6),
            min(q0 + 2 * step, 1 - 1e-6),
            801,
        )
        assert res.objective >= best - 1e-6
        assert res.objective == pytest.approx(best, abs=1e-4)

    def test_never_loses_to_random_rules(self):
        rng = Xoshiro256(52)
        for _ in range(15):
            problem = rand_problem(rng, rng.randint(2, 5), rng.randint(2, 4))
            beta = BetaMatrix(
                problem.states,
                np.array(
                    [
                        [
                            0.0 if i == j else rng.uniform_in(0.05, 3.0)
                            for j in range(problem.n_states)
                        ]
                        for i in range(problem.n_states)
                    ]
                ),
            )
            res = solve_llr(problem, beta, SolveOptions(tol=1e-8))
            assert res.converged
            for _ in range(30):
                rule = rand_rule(rng, problem.n_states, problem.n_actions)
                assert objective(problem, rule, beta) <= res.objective + 1e-7

    def test_deterministic(self):
        rng = Xoshiro256(53)
        problem = rand_problem(rng, 3, 3)
        beta = constant_betas(problem.states, 0.4)
        a = solve_llr(problem, beta)
        b = solve_llr(problem, beta)
        assert a.rule.probs.tobytes() == b.rule.probs.tobytes()
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert a.foc_residual == b.foc_residual

    def test_evicts_dominated_action(self):
        states = StateSpace(("s0", "s1"))
        u = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, -2.0]])
        problem = DecisionProblem(states, ("a0", "a1", "bad"), u, (0.5, 0.5))
        beta = constant_betas(states, 0.3)
        res = solve_llr(problem, beta, SolveOptions(tol=1e-9))
        assert res.converged
        assert res.rule.probs[:, 2].max() < 1e-8

    def test_state_independent_payoffs_need_no_information(self):
        states = StateSpace(("s0", "s1"))
        u = np.array([[1.0, 1.0], [0.2, 0.2]])
        problem = DecisionProblem(states, ("good", "poor"), u, (0.5, 0.5))
        beta = constant_betas(states, 1.0)
        res = solve_llr(problem, beta, SolveOptions(tol=1e-9))
        assert res.converged
        assert res.cost == pytest.approx(0.0, abs=1e-9)
        assert res.expected_utility == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(res.rule.probs[:, 0], 1.0, atol=1e-8)

    def test_warns_on_zero_price_pair(self):
        problem = _matching_problem()
        beta = BetaMatrix(problem.states, [[0.0, 0.5], [0.0, 0.0]])
        with pytest.warns(NonConcaveWarning):
            solve_llr(problem, beta, SolveOptions(tol=1e-6, max_iter=5000))

    def test_rejects_state_mismatch(self):
        problem = _matching_problem()
        beta = constant_betas(StateSpace(("x", "y")), 1.0)
        with pytest.raises(StateSpaceMismatch):
            solve_llr(problem, beta)

    def test_interior_optimum_corpus(self):
        # prices 100 times below criterion 06's make most optima interior;
        # draws 29, 41 and 42 have two-action optima that a solver can stop
        # short of, or miss for a nearby corner (at draw 29 the corner's
        # test for action a1 is only +0.0089)
        solved, rng = _solved_corpus(7, 0.005, 0.05)
        for problem, beta, res in solved:
            assert res.converged
            assert foc_residual(problem, beta, res.rule) <= 1e-6
            for _ in range(30):
                rule = rand_rule(rng, problem.n_states, problem.n_actions)
                assert objective(problem, rule, beta) <= res.objective + 1e-7
        for draw, want in ((29, 1.3160520), (41, 1.3700500), (42, 1.4415117)):
            res = solved[draw][2]
            assert res.objective == pytest.approx(want, abs=1e-7)
            assert np.count_nonzero(res.rule.probs.max(axis=0)) == 2

    def test_converged_objective_is_within_n_tol_of_the_optimum(self):
        # the bound in solve_llr's docstring; a tol-1e-13 solve's objective
        # is at most the optimum, converged or not, so it stands in for OPT
        rng = Xoshiro256(7)
        converged = 0
        for _ in range(200):
            problem = rand_problem(rng, rng.randint(2, 5), rng.randint(2, 5))
            beta = rand_beta(rng, problem.states)
            best = solve_llr(problem, beta, SolveOptions(tol=1e-13)).objective
            for tol in (1e-2, 1e-3, 1e-5):
                res = solve_llr(problem, beta, SolveOptions(tol=tol))
                if res.converged:
                    converged += 1
                    assert best - res.objective <= problem.n_states * tol
        assert converged == 600

    def test_several_entering_actions_stay_within_n_tol(self):
        # larger problems than the test above, where several actions enter
        # and a test may stop as soon as its lower bound clears tol
        rng = Xoshiro256(2210)
        for k in range(200):
            problem = rand_problem(rng, rng.randint(5, 8), rng.randint(4, 6))
            scale = math.exp(rng.uniform_in(math.log(1e-3), math.log(3.0)))
            beta = rand_beta(rng, problem.states, lo=0.25 * scale, hi=scale)
            tol = (1e-3, 1e-5, 1e-8)[k % 3]
            best = solve_llr(problem, beta, SolveOptions(tol=1e-13)).objective
            res = solve_llr(problem, beta, SolveOptions(tol=tol))
            assert res.converged
            assert best - res.objective <= problem.n_states * tol

    def test_quadratic_loss_grids_converge(self):
        for n in (15, 25, 50, 200):
            problem = _quadratic_grid(np.linspace(0.0, 1.0, n), 10)
            beta = one_dimensional_betas(problem.states, 1.0)
            res = solve_llr(problem, beta, SolveOptions(tol=1e-8))
            assert res.converged and res.foc_residual <= 1e-8
            support = np.flatnonzero(res.rule.probs.max(axis=0))
            assert support.tolist() == [4, 5]
            if n == 50:
                assert res.objective == pytest.approx(-0.0897741, abs=1e-7)

    def test_moderate_price_grid_warm_starts_its_tests(self):
        # 30 states, 40 actions at kappa = 1e-3: nearly every Newton step
        # is a per-action test, which from the uniform point each round took
        # 5,759 iterations
        problem = _quadratic_grid(np.linspace(0.0, 1.0, 30), 40)
        t0 = time.perf_counter()
        res = solve_llr(problem, one_dimensional_betas(problem.states, 1e-3))
        assert time.perf_counter() - t0 < 60.0
        assert res.converged
        assert np.count_nonzero(res.rule.probs.max(axis=0)) == 8
        assert res.objective == pytest.approx(-0.0340746971875154, abs=1e-12)
        assert res.iterations <= 1000

    def test_wide_grid_stops_each_test_once_decided(self, monkeypatch):
        # 100 states, 40 actions at kappa = 1e-3: a test stops once its
        # lower bound clears tol, which took the solve from 1,671 test-step
        # columns to 604
        columns = []
        steps = _test_steps

        def counted(Y, *args):
            columns.append(Y.shape[1])
            return steps(Y, *args)

        monkeypatch.setattr("infocost.solver._test_steps", counted)
        problem = _quadratic_grid(np.linspace(0.0, 1.0, 100), 40)
        res = solve_llr(problem, one_dimensional_betas(problem.states, 1e-3))
        assert res.converged
        assert np.count_nonzero(res.rule.probs.max(axis=0)) == 6
        assert res.objective == pytest.approx(-0.0339835769289294, abs=1e-12)
        assert sum(columns) < 1000

    def test_interior_grid_evaluates_each_gradient_once(self, monkeypatch):
        # 15 states, 10 actions at kappa = 1e-3, 8 of them used: the gains
        # of the point each step accepts carry on to the next pass and to
        # the final residual, which took the solve from 312 gradient
        # evaluations to 234
        calls = []
        gradient = _cost_gradient

        def counted(*args):
            calls.append(1)
            return gradient(*args)

        monkeypatch.setattr("infocost.solver._cost_gradient", counted)
        problem = _quadratic_grid(np.linspace(0.0, 1.0, 15), 10)
        res = solve_llr(problem, one_dimensional_betas(problem.states, 1e-3))
        assert res.converged
        assert np.count_nonzero(res.rule.probs.max(axis=0)) == 8
        assert res.objective == pytest.approx(-0.03427203255723822, abs=1e-12)
        assert res.iterations == 152
        assert len(calls) < 260

    def test_low_price_integer_grid_converges(self):
        # 40 states on 0..39, 16 actions at kappa = 0.01: the prices are
        # 39^2 times lower than on the unit grid, every action is used, and
        # most of the solve is support Newton steps, up to 16 columns wide
        problem = _quadratic_grid(np.arange(40), 16)
        t0 = time.perf_counter()
        res = solve_llr(problem, one_dimensional_betas(problem.states, 0.01))
        assert time.perf_counter() - t0 < 60.0
        assert res.converged
        assert np.count_nonzero(res.rule.probs.max(axis=0)) == 16
        assert res.objective == pytest.approx(-0.0020885450847356627, abs=1e-12)
        assert res.iterations <= 500

    def test_stacked_tests_match_one_at_a_time(self, monkeypatch):
        # the per-action test systems are solved in stacks, split above
        # _STACK_ENTRIES Hessian entries; with all prices zero every system
        # of a stack is singular, and every test direction is zero
        grid = _quadratic_grid(np.linspace(0.0, 1.0, 15), 12)
        free = rand_problem(Xoshiro256(5), 4, 4)
        cases = [
            (grid, one_dimensional_betas(grid.states, 1e-3)),
            (free, BetaMatrix(free.states, np.zeros((4, 4)))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConcaveWarning)
            stacked = [solve_llr(p, b) for p, b in cases]
            monkeypatch.setattr("infocost.solver._STACK_ENTRIES", 1)
            alone = [solve_llr(p, b) for p, b in cases]
        for want, got in zip(stacked, alone):
            assert got.converged == want.converged
            np.testing.assert_array_equal(
                got.rule.probs.max(axis=0) > 0.0, want.rule.probs.max(axis=0) > 0.0
            )
            assert got.objective == pytest.approx(want.objective, abs=1e-12)
        assert stacked[0].converged

    def test_no_ghost_entries_or_negative_costs(self):
        solved, _ = _solved_corpus(606, 0.05, 5.0)
        for _, _, res in solved:
            P = res.rule.probs
            assert res.cost >= 0.0
            assert not np.any((P > 0.0) & (P < 1e-200))
            if np.count_nonzero(P.max(axis=0)) == 1:
                assert res.cost == 0.0

    def test_result_dict_layout(self):
        problem = _matching_problem()
        res = solve_llr(problem, constant_betas(problem.states, 0.5))
        d = res.to_dict()
        assert set(d) == {
            "rule",
            "objective",
            "cost",
            "expected_utility",
            "foc_residual",
            "iterations",
            "converged",
        }
        assert d["converged"] is True
        assert "converged" in res.summary()


def test_support_step_is_the_bordered_kkt_direction():
    # the reduced system of _support_step against the dense (nk + n)-square
    # KKT system [[blockdiag(H_1..H_k), A'], [A, 0]], A = [I ... I], that
    # holds the row sums of the direction at zero; asymmetric prices with
    # one-directional zeros, and k <= n columns, as solve_llr never steps
    # on more columns than states
    rng = np.random.default_rng(12)
    for n in (2, 6, 50):
        for k in range(2, min(n, 6) + 1):
            X = rng.uniform(0.05, 1.0, size=(n, k))
            X /= X.sum(axis=1, keepdims=True)
            B = _random_prices(rng, n)
            Bsum = B.sum(axis=1)
            G = rng.normal(size=(n, k))
            M = np.zeros((n * k + n, n * k + n))
            for a, H in enumerate(_cost_hessian(X, B, Bsum)):
                M[a * n : (a + 1) * n, a * n : (a + 1) * n] = H
            A = np.tile(np.eye(n), k)
            M[: n * k, n * k :], M[n * k :, : n * k] = A.T, A
            rhs = np.concatenate([G.T.ravel(), np.zeros(n)])
            want = np.linalg.solve(M, rhs)[: n * k].reshape(k, n).T
            D = _support_step(X, G, B, Bsum)
            assert np.max(np.abs(D - want)) <= 1e-10 * np.max(np.abs(want))
            assert np.max(np.abs(D.sum(axis=1))) <= 1e-12
    # states s0 and s1 alike, priced only within {s0, s1} and {s2, s3}: every
    # H_a is then a multiple of [[1, -1], [-1, 1]] on {s0, s1}, so moving
    # mass along (1, 1, 0, 0) from one action to another is free; the dyadic
    # entries keep that multiple exact, so the LU meets an exact zero pivot
    B = np.zeros((4, 4))
    B[0, 1] = B[1, 0] = 1.0
    B[2, 3] = B[3, 2] = 0.5
    X = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
    with pytest.raises(np.linalg.LinAlgError):
        _support_step(X, np.ones((4, 2)), B, B.sum(axis=1))


@pytest.mark.parametrize(
    "kind, n, iterations, support, value",
    [
        ("perception", 10, 6, [0, 1], 0.5120443282693417),
        ("perception", 25, 5, [0, 1], 0.5099918512407644),
        ("perception", 50, 5, [0, 1], 0.5093550961289296),
        ("unit", 10, 16, [4, 5], -0.10487381170798331),
        ("unit", 25, 15, [4, 5], -0.09331332261632717),
        ("unit", 50, 15, [4, 5], -0.08977405894849876),
        ("integer", 40, 306, list(range(16)), -0.0020885450847702713),
    ],
)
def test_support_steps_keep_each_solve(kind, n, iterations, support, value):
    # the support step's system, however it is assembled, is the same up to
    # rounding: each solve keeps the iteration count, support and objective
    # of the tiled-block assembly it replaced.  Perception at r = n, kappa =
    # 1; unit grids n x 10 at kappa = 1; the integer grid 40 x 16 at 0.01
    if kind == "perception":
        problem = perception_problem(n)
        beta = inverse_square_betas(problem.states, 1.0)
    elif kind == "unit":
        problem = _quadratic_grid(np.linspace(0.0, 1.0, n), 10)
        beta = one_dimensional_betas(problem.states, 1.0)
    else:
        problem = _quadratic_grid(np.arange(n), 16)
        beta = one_dimensional_betas(problem.states, 0.01)
    res = solve_llr(problem, beta)
    assert res.converged
    assert res.iterations == iterations
    assert np.flatnonzero(res.rule.probs.max(axis=0)).tolist() == support
    assert res.objective == pytest.approx(value, abs=1e-12)


def _random_prices(rng, n):
    """Connected prices with some one-directional zeros: B[i, i+1] = 0 for
    even i, every other off-diagonal price in [0.01, 2]."""
    B = rng.uniform(0.01, 2.0, size=(n, n))
    np.fill_diagonal(B, 0.0)
    B[np.arange(0, n - 1, 2), np.arange(1, n, 2)] = 0.0
    return B


def test_test_steps_are_the_bordered_kkt_directions():
    # the eliminated systems of _test_steps against the bordered KKT
    # systems [[H, 1], [1', 0]] that hold sum(d) at zero, one per test
    rng = np.random.default_rng(13)
    n, r = 6, 5
    Y = rng.uniform(0.05, 1.0, size=(n, r))
    Y /= Y.sum(axis=0)
    G = rng.normal(size=(n, r))
    B = _random_prices(rng, n)
    Bsum = B.sum(axis=1)
    D = _test_steps(Y, G, B, Bsum)
    for j, H in enumerate(_cost_hessian(Y, B, Bsum)):
        M = np.ones((n + 1, n + 1))
        M[:n, :n], M[n, n] = H, 0.0
        want = np.linalg.solve(M, np.append(G[:, j], 0.0))[:n]
        assert np.max(np.abs(D[:, j] - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(D.sum(axis=0))) <= 1e-15
    # all prices zero: every system of the stack is singular
    zero = np.zeros((n, n))
    np.testing.assert_array_equal(_test_steps(Y, G, zero, zero.sum(axis=1)), 0.0)


def test_cost_hessian_quadratic_form():
    # v'H v = sum_ij B_ij x_i (v_i / x_i - v_j / x_j)^2 for each column x
    rng = np.random.default_rng(14)
    n = 6
    X = rng.uniform(0.05, 1.0, size=(n, 4))
    B = _random_prices(rng, n)
    for x, H in zip(X.T, _cost_hessian(X, B, B.sum(axis=1))):
        v = rng.normal(size=n)
        ratio = v / x
        want = np.sum(B * x[:, None] * (ratio[:, None] - ratio[None, :]) ** 2)
        assert v @ H @ v == pytest.approx(want, rel=1e-12)
        assert np.max(np.abs(H @ x)) <= 1e-12 * np.max(np.abs(H))

class TestSolveMutualInformation:
    def test_symmetric_closed_form(self):
        problem = _matching_problem()
        for lam in (0.4, 0.7, 1.0, 3.0):
            res = solve_mutual_information(problem, lam, SolveOptions(tol=1e-12))
            assert res.converged
            want = 1.0 / (1.0 + math.exp(-1.0 / lam))
            assert res.rule.probs[0, 0] == pytest.approx(want, abs=1e-10)

    def test_frozen_half_payoff_value(self):
        problem = _matching_problem(payoff=0.5)
        res = solve_mutual_information(problem, 0.7, SolveOptions(tol=1e-12))
        assert res.rule.probs[0, 0] == pytest.approx(
            0.6713474534827301, abs=1e-12
        )

    def test_reported_cost_is_lambda_times_information(self):
        # textbook double sum with 0 ln 0 = 0; optimal rules routinely put
        # exactly zero mass on unused actions, so the oracle must too
        rng = Xoshiro256(54)
        for _ in range(12):
            problem = rand_problem(rng, rng.randint(2, 4), rng.randint(2, 4))
            lam = rng.uniform_in(0.3, 2.0)
            res = solve_mutual_information(problem, lam, SolveOptions(tol=1e-11))
            assert res.converged
            P = res.rule.probs
            q = problem.prior
            pbar = q @ P
            mi = sum(
                q[i] * P[i, a] * math.log(P[i, a] / pbar[a])
                for i in range(problem.n_states)
                for a in range(problem.n_actions)
                if P[i, a] > 0.0
            )
            assert res.cost == pytest.approx(lam * mi, rel=1e-9, abs=1e-12)

    def test_interior_cost_matches_experiment_pricing(self):
        # the matching family keeps every entry interior, so the rule can
        # be priced directly as an experiment
        for lam in (0.4, 1.0, 2.7):
            problem = _matching_problem()
            res = solve_mutual_information(problem, lam, SolveOptions(tol=1e-12))
            as_experiment = Experiment(
                problem.states, ("a0", "a1"), res.rule.probs
            )
            want = mutual_information_cost(as_experiment, problem.prior, lam)
            assert res.cost == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_identical_payoff_columns_give_identical_rows(self):
        states = StateSpace(("s0", "s1", "s2"))
        u = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        problem = DecisionProblem(
            states, ("a", "b"), u, np.full(3, 1.0 / 3.0)
        )
        res = solve_mutual_information(problem, 0.8)
        np.testing.assert_array_equal(res.rule.probs[0], res.rule.probs[1])

    def test_expensive_information_stays_uniform(self):
        problem = _matching_problem()
        res = solve_mutual_information(problem, 1e3, SolveOptions(tol=1e-12))
        np.testing.assert_allclose(res.rule.probs, 0.5, atol=1e-3)

    def test_underflowed_action_keeps_cost_finite(self):
        # the 83rd draw: a damped fixed point let action a0's marginal
        # underflow to 0 while one of its entries stayed subnormal, and
        # stopped at cost 1.735e-7; the certified optimum is the corner
        rng = np.random.default_rng(5)
        for _ in range(83):
            n = rng.integers(2, 6)
            m = rng.integers(2, 5)
            u = rng.uniform(-1, 2, (m, n))
            q = rng.uniform(0.1, 1, n)
            q = q / q.sum()
            lam = rng.uniform(0.1, 2)
        assert (n, m) == (3, 4)
        problem = DecisionProblem(
            StateSpace(tuple(f"s{i}" for i in range(n))),
            tuple(f"a{j}" for j in range(m)),
            u,
            q,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_mutual_information(problem, lam)
        assert res.converged
        assert res.cost == 0.0
        assert res.objective >= 1.0353100276891023  # the fixed point's
        assert res.objective == pytest.approx(res.expected_utility - res.cost)

    def test_certified_on_random_corpus(self):
        # 200 problems, 2-8 states and actions, lambda in [0.05, 2]: every
        # solve certified within a few Newton steps and free of ghost
        # entries, which a damped fixed point stopping on its own residual
        # is not (gap 7.2e-8, 43,227 iterations, 36 entries below 1e-200)
        rng = Xoshiro256(5)
        lams = np.random.default_rng(11).uniform(0.05, 2.0, 200)
        for lam in lams:
            problem = rand_problem(rng, rng.randint(2, 8), rng.randint(2, 8))
            res = solve_mutual_information(problem, lam)
            P = res.rule.probs
            assert res.converged
            assert _mm_gap(problem, lam, P) <= 2e-8
            assert res.iterations <= 100
            assert not np.any((P > 0.0) & (P < 1e-200))

    def test_certified_at_extreme_lambda(self):
        # near-deterministic rules (entries of E underflow to 0) and
        # near-uniform ones, plus duplicate actions, which make the
        # Newton system singular
        rng = Xoshiro256(61)
        cases = []
        for lam in (1e-3, 1e-2, 10.0, 100.0):
            for _ in range(25):
                problem = rand_problem(rng, rng.randint(2, 8), rng.randint(2, 8))
                cases.append((problem, lam))
        twin = rand_problem(rng, 4, 5)
        u = twin.utility.copy()
        u[3] = u[1]
        cases.append((DecisionProblem(twin.states, twin.actions, u, twin.prior), 0.4))
        opts = SolveOptions(max_iter=1000)
        for problem, lam in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = solve_mutual_information(problem, lam, opts)
            assert res.converged
            assert _mm_gap(problem, lam, res.rule.probs) <= 2e-8

    def test_rejects_bad_lambda(self):
        problem = _matching_problem()
        for lam in (0.0, -1.0, math.inf):
            with pytest.raises(ValidationError):
                solve_mutual_information(problem, lam)


class TestPerception:
    def test_problem_layout(self):
        problem = perception_problem(3)
        assert problem.states.values == (47.0, 48.0, 49.0, 51.0, 52.0, 53.0)
        assert problem.actions == ("R", "B")
        # R pays on red majorities, B on blue ones
        np.testing.assert_array_equal(
            problem.utility,
            [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]],
        )

    def test_r_out_of_range(self):
        for r in (0, 51):
            with pytest.raises(ValidationError):
                perception_problem(r)

    def test_llr_curve_is_strictly_increasing_and_symmetric(self):
        rows = psychometric_curve(5, 1.0, "llr", opts=SolveOptions(tol=1e-10))
        pb = [row[1] for row in rows]
        assert all(b2 > b1 for b1, b2 in zip(pb, pb[1:]))
        for row in rows:
            assert row[1] + row[2] == pytest.approx(1.0, abs=1e-12)
        # mirror states: P(B | 50 - d) = P(R | 50 + d)
        k = len(rows)
        for j in range(k // 2):
            assert rows[j][1] == pytest.approx(rows[k - 1 - j][2], abs=1e-6)

    def test_mi_curve_is_flat_per_side(self):
        rows = psychometric_curve(5, 1.0, "mi", opts=SolveOptions(tol=1e-12))
        left = [row[1] for row in rows if row[0] < 50]
        right = [row[1] for row in rows if row[0] > 50]
        assert max(left) - min(left) < 1e-10
        assert max(right) - min(right) < 1e-10
        assert right[0] > 0.5 > left[0]

    def test_rejects_unknown_cost_kind(self):
        with pytest.raises(ValidationError):
            psychometric_curve(3, 1.0, "entropy")


class TestLipschitzCheck:
    def test_flat_rule_scores_zero(self):
        rule = ChoiceRule(np.full((3, 2), 0.5))
        ratio, ok = lipschitz_check(rule, [0.0, 1.0, 2.0], 1.0)
        assert ratio == 0.0 and ok

    def test_steep_rule_fails_close_states(self):
        rule = ChoiceRule(np.array([[1.0, 0.0], [0.0, 1.0]]))
        ratio, ok = lipschitz_check(rule, [0.0, 0.01], 1.0)
        assert ratio == pytest.approx(100.0, rel=1e-12)
        assert not ok

    def test_optimal_perception_rule_obeys_bound(self):
        problem = perception_problem(4)
        beta = inverse_square_betas(problem.states, 1.0)
        res = solve_llr(problem, beta, SolveOptions(tol=1e-9))
        ratio, ok = lipschitz_check(
            res.rule, problem.states.values, u_norm=1.0
        )
        assert ok and ratio <= 1.0

    def test_validation(self):
        rule = ChoiceRule(np.full((2, 2), 0.5))
        with pytest.raises(DuplicateValues):
            lipschitz_check(rule, [1.0, 1.0], 1.0)
        with pytest.raises(ValidationError):
            lipschitz_check(rule, [0.0, 1.0], 0.0)
        with pytest.raises(DimensionMismatch):
            lipschitz_check(rule, [0.0, 1.0, 2.0], 1.0)


class TestProblemJson:
    def test_round_trip(self):
        problem = perception_problem(2)
        back = problem_from_json(problem_to_json(problem))
        assert back.states == problem.states
        assert back.actions == problem.actions
        np.testing.assert_array_equal(back.utility, problem.utility)
        np.testing.assert_array_equal(back.prior, problem.prior)

    def test_tuple_and_nested_tuple_labels_survive_json(self):
        states = StateSpace((("x", 1), ("y", ("z", 2))), (0.0, 1.0))
        problem = DecisionProblem(
            states, (("go", 1), (("stop", 2), 3)), np.eye(2), (0.25, 0.75)
        )
        back = problem_from_json(json.loads(json.dumps(problem_to_json(problem))))
        assert back.states == problem.states
        assert back.actions == problem.actions
        np.testing.assert_array_equal(back.utility, problem.utility)
        np.testing.assert_array_equal(back.prior, problem.prior)

    def test_missing_key(self):
        obj = problem_to_json(_matching_problem())
        del obj["utility"]
        with pytest.raises(ValidationError):
            problem_from_json(obj)
