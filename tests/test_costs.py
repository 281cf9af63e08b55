"""Pricing layer: KL matrices, the LLR cost and its closed forms, the
posterior route, partition coefficients, and the verification asymmetry.

Partition coefficients promise bit-exact agreement with naive enumeration
on small grids, so the oracle here sums crossing pairs in exact rational
arithmetic and rounds once, mirroring what the fast path guarantees.
"""

import json
import math
import time
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import reduce

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_beta, rand_experiment, rand_prior, rand_problem, rand_states
from infocost import (
    BetaMatrix,
    Experiment,
    Hypothesis,
    StateSpace,
    Xoshiro256,
    beta_from_json,
    beta_to_json,
    binary_cost,
    binary_experiment,
    constant_betas,
    hypothesis_test_cost,
    inverse_square_betas,
    kl_divergence,
    kl_matrix,
    llr_cost,
    llr_cost_from_distribution,
    llr_cost_via_posteriors,
    llr_distribution,
    make_experiment,
    mutual_information_cost,
    normal_cost,
    one_dimensional_betas,
    partition_coefficient,
    partition_experiment,
    posterior_separable_value,
    solve_mutual_information,
    uninformative_experiment,
    verification_asymmetry,
)
from infocost import costs
from infocost.costs import (
    _crossing_counts,
    _flip_divergence,
    _llr_sum,
    _rule_apply,
    _rule_cost,
    _rule_grid,
)
from infocost.reproduce import gdp_rows
from infocost.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    EpsilonOutOfRange,
    IncompleteInput,
    MissingValues,
    POutOfRange,
    SigmaNonPositive,
    StateSpaceMismatch,
    ValidationError,
)

# both directions of the 0.8 coin at unit prices: 2 * 0.6 * ln 4
BINARY_08_COST = 1.663553233343869


def _grid_states(n, start=0, step=1):
    vals = [start + step * i for i in range(n)]
    return StateSpace(tuple(f"v{v}" for v in vals), vals)


class TestBetaMatrix:
    def test_needs_coef_or_rule(self):
        with pytest.raises(IncompleteInput):
            BetaMatrix(StateSpace(("a", "b")), None)

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValidationError):
            BetaMatrix(StateSpace(("a", "b")), [[0.0, -1.0], [1.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            BetaMatrix(StateSpace(("a", "b")), [[0.0, math.inf], [1.0, 0.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            BetaMatrix(StateSpace(("a", "b")), np.ones((3, 3)))

    def test_diagonal_is_ignored(self):
        b = BetaMatrix(StateSpace(("a", "b")), [[7.0, 2.0], [3.0, 7.0]])
        np.testing.assert_array_equal(b.dense(), [[0.0, 2.0], [3.0, 7.0 * 0]])

    def test_constant_rule(self):
        b = constant_betas(StateSpace(("a", "b", "c")), 1.5)
        dense = b.dense()
        assert np.all(dense[~np.eye(3, dtype=bool)] == 1.5)
        assert np.all(np.diag(dense) == 0.0)

    def test_one_dimensional_matches_formula(self):
        states = _grid_states(5, start=2, step=3)
        kappa = 1.7
        dense = one_dimensional_betas(states, kappa).dense()
        c = kappa / (5 * 4)
        for i in range(5):
            for j in range(5):
                want = 0.0 if i == j else c / (states.values[i] - states.values[j]) ** 2
                assert dense[i, j] == want

    def test_inverse_square_matches_formula(self):
        states = _grid_states(4)
        dense = inverse_square_betas(states, 2.5).dense()
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert dense[i, j] == 2.5 / (i - j) ** 2

    def test_rules_need_values(self):
        with pytest.raises(MissingValues):
            inverse_square_betas(StateSpace(("a", "b")), 1.0)

    def test_rules_reject_bad_kappa(self):
        states = _grid_states(3)
        for kappa in (0.0, -1.0, math.inf):
            with pytest.raises(ValidationError):
                one_dimensional_betas(states, kappa)

    def test_rule_form_is_checked_on_construction(self):
        # a rule passed to BetaMatrix directly meets the constructors' checks
        states = _grid_states(2)
        for rule in (
            ("one_dimensional", -1.0),
            ("inverse_square", math.nan),
            ("inverse_square",),
            "ab",
        ):
            with pytest.raises(ValidationError):
                BetaMatrix(states, None, rule)
        with pytest.raises(ValidationError, match="unknown rule"):
            BetaMatrix(states, None, ("nope", 1.0))
        with pytest.raises(MissingValues):
            BetaMatrix(StateSpace(("a", "b")), None, ("one_dimensional", 1.0))
        beta = BetaMatrix(states, None, ("one_dimensional", 2))
        assert beta.rule == ("one_dimensional", 2.0)
        np.testing.assert_array_equal(beta.dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_huge_grids_stay_lazy(self):
        states = _grid_states(3000)
        beta = inverse_square_betas(states, 1.0)
        assert beta.coef is None
        with pytest.raises(ValidationError):
            beta.dense()

    @pytest.mark.parametrize("rule", ["one_dimensional", "inverse_square"])
    def test_rule_keeps_no_matrix(self, rule):
        # construction checks the rule and stores nothing of size n^2;
        # dense() builds the formula's matrix, read-only, on each call
        states = _grid_states(2000, start=-700, step=3)
        tracemalloc.start()
        try:
            beta = BetaMatrix(states, None, (rule, 1.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert beta.coef is None
        dense = beta.dense()
        assert not dense.flags.writeable
        with pytest.raises(ValueError):
            dense[0, 1] = 0.0
        c = 1.5 / (2000 * 1999) if rule == "one_dimensional" else 1.5
        rng = Xoshiro256(40)
        for _ in range(200):
            i, j = rng.randint(0, 1999), rng.randint(0, 1999)
            d = states.values[i] - states.values[j]
            assert dense[i, j] == (0.0 if i == j else c / d**2)
        assert np.all(np.diag(dense) == 0.0)


class TestBetaJson:
    def test_coef_round_trip(self):
        rng = Xoshiro256(30)
        states = rand_states(rng, 3)
        beta = rand_beta(rng, states)
        back = beta_from_json(beta_to_json(beta))
        assert back.states == beta.states
        np.testing.assert_array_equal(back.dense(), beta.dense())

    def test_tuple_and_nested_tuple_labels_survive_json(self):
        states = StateSpace((("x", 1), ("y", ("z", 2)), "w"))
        beta = rand_beta(Xoshiro256(31), states)
        back = beta_from_json(json.loads(json.dumps(beta_to_json(beta))))
        assert back.states == beta.states
        np.testing.assert_array_equal(back.dense(), beta.dense())

    def test_rule_round_trip_needs_context(self):
        states = _grid_states(4)
        beta = inverse_square_betas(states, 2.0)
        obj = beta_to_json(beta)
        assert obj == {"rule": "inverse_square", "kappa": 2.0}
        back = beta_from_json(obj, states=states)
        np.testing.assert_array_equal(back.dense(), beta.dense())
        with pytest.raises(IncompleteInput):
            beta_from_json(obj)

    def test_constant_rule_form(self):
        states = StateSpace(("a", "b"))
        back = beta_from_json({"rule": "constant", "value": 2.0}, states=states)
        np.testing.assert_array_equal(back.dense(), [[0.0, 2.0], [2.0, 0.0]])
        # a rule file may spell its number as a string
        spelled = beta_from_json({"rule": "constant", "value": "2.0"}, states=states)
        np.testing.assert_array_equal(spelled.dense(), back.dense())

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValidationError):
            beta_from_json({"rule": "nope"}, states=StateSpace(("a", "b")))

    def test_rejects_missing_kappa(self):
        with pytest.raises(IncompleteInput):
            beta_from_json({"rule": "inverse_square"}, states=_grid_states(2))

    def test_rejects_state_disagreement(self):
        states = StateSpace(("a", "b"))
        obj = beta_to_json(constant_betas(states, 1.0))
        with pytest.raises(StateSpaceMismatch):
            beta_from_json(obj, states=StateSpace(("x", "y")))


class TestKLMatrix:
    def test_matches_divergence_loop(self):
        rng = Xoshiro256(31)
        for _ in range(20):
            states = rand_states(rng, rng.randint(2, 5))
            mu = rand_experiment(rng, states, rng.randint(2, 6))
            D = kl_matrix(mu)
            assert np.all(np.diag(D) == 0.0)
            for i in range(states.n):
                for j in range(states.n):
                    if i != j:
                        assert D[i, j] == pytest.approx(
                            kl_divergence(mu.probs[i], mu.probs[j]), rel=1e-12
                        )


class TestLLRCost:
    def test_frozen_binary_value(self):
        mu = binary_experiment(0.8)
        beta = constant_betas(mu.states, 1.0)
        assert llr_cost(mu, beta) == pytest.approx(BINARY_08_COST, rel=1e-13)
        assert llr_cost(mu, beta) == pytest.approx(1.2 * math.log(4.0), rel=1e-13)

    def test_matches_weighted_loop(self):
        rng = Xoshiro256(32)
        for _ in range(25):
            states = rand_states(rng, rng.randint(2, 5))
            mu = rand_experiment(rng, states, rng.randint(2, 6))
            beta = rand_beta(rng, states)
            coef = beta.dense()
            want = sum(
                coef[i, j] * kl_divergence(mu.probs[i], mu.probs[j])
                for i in range(states.n)
                for j in range(states.n)
                if i != j
            )
            assert llr_cost(mu, beta) == pytest.approx(want, rel=1e-12)

    def test_uninformative_is_free(self):
        states = StateSpace(("a", "b", "c"))
        mu = uninformative_experiment(states, (1.0, 2.0))
        assert abs(llr_cost(mu, constant_betas(states, 4.0))) < 1e-14

    def test_rejects_state_mismatch(self):
        mu = binary_experiment(0.8)
        other = constant_betas(StateSpace(("x", "y")), 1.0)
        with pytest.raises(StateSpaceMismatch):
            llr_cost(mu, other)

    @given(st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    def test_binary_closed_form(self, p):
        mu = binary_experiment(p)
        coef = np.array([[0.0, 0.7], [1.9, 0.0]])
        beta = BetaMatrix(mu.states, coef)
        assert binary_cost(p, beta) == pytest.approx(llr_cost(mu, beta), rel=1e-12)

    def test_binary_closed_form_is_the_hypothesis_test_bit_for_bit(self):
        # explicit prices, the normalized rule on integer grids (exact
        # partition sum) and the inverse-square rule on non-integer grids
        # (dense sum): the pair sum b01 + b10 has the same bits either way
        rng = Xoshiro256(36)
        for kind in ("explicit", "one_dimensional", "inverse_square"):
            for _ in range(100):
                if kind == "explicit":
                    beta = rand_beta(rng, rand_states(rng, 2))
                else:
                    lo, gap = rng.uniform_in(-50.0, 50.0), rng.uniform_in(0.5, 40.0)
                    if kind == "one_dimensional":
                        lo, gap = round(lo), round(gap)
                    states = StateSpace(("a", "b"), (lo, lo + gap))
                    beta = BetaMatrix(states, None, (kind, rng.uniform_in(0.1, 5.0)))
                p = rng.uniform_in(0.01, 0.99)
                coef = beta.dense()
                got = binary_cost(p, beta)
                assert got == (coef[0, 1] + coef[1, 0]) * _flip_divergence(p)
                assert got == hypothesis_test_cost(beta, Hypothesis(beta.states, {0}), p)

    def test_binary_closed_form_rejects_bad_p(self):
        beta = constant_betas(StateSpace(("a", "b")), 1.0)
        for p in (0.0, 1.0, math.nan):
            with pytest.raises(POutOfRange):
                binary_cost(p, beta)

    def test_flip_closed_forms_keep_their_digits(self):
        # both closed forms scale (2x - 1) ln(x / (1 - x)), which cancels
        # near x = 1/2 when summed as two log terms; against 60 digits from
        # alpha - 1/2 = +-1e-12 out to x = 1e-29 and 1 - 1e-15
        states = StateSpace(("a", "b"))
        beta = BetaMatrix(states, [[0.0, 0.7], [1.9, 0.0]])
        h = Hypothesis(states, {0})
        steps = [m * 10.0**-k for k in range(1, 13) for m in (1, 2, 3.3, 5, 7.1)]
        xs = [0.5 + s * d for d in steps if d < 0.5 for s in (1, -1)]
        xs += [1e-29, 1e-10, 0.1, 1 - 1e-15]
        with mp.workdps(60):
            for x in xs:
                flip = (2 * mp.mpf(x) - 1) * mp.log(mp.mpf(x) / (1 - mp.mpf(x)))
                for got, scale in (
                    (binary_cost(x, beta), mp.mpf(0.7) + mp.mpf(1.9)),
                    (hypothesis_test_cost(beta, h, x), mp.mpf(partition_coefficient(beta, h))),
                ):
                    want = scale * flip
                    assert got >= 0.0
                    assert abs(got - want) <= 1e-15 * want, x


def _near_uninformative(rng):
    """Rows (1 - eps) m + eps R around their mean row m, eps log-uniform on
    1e-15..1e-6, priced on [0.1, 1]: divergences so small that rounding can
    take a signed sum below 0."""
    states = rand_states(rng, rng.randint(2, 5))
    R = rand_experiment(rng, states, rng.randint(2, 5)).probs
    eps = 10.0 ** rng.uniform_in(-15.0, -6.0)
    P = (1.0 - eps) * R.mean(axis=0) + eps * R
    mu = Experiment(states, tuple(range(P.shape[1])), P / P.sum(axis=1, keepdims=True))
    return mu, rand_beta(rng, states, 0.1, 1.0)


class TestPricesAreNeverNegative:
    def test_near_uninformative_experiments(self):
        # unclamped, about a third of these sums round below 0
        rng = Xoshiro256(2024)
        for _ in range(40):
            mu, beta = _near_uninformative(rng)
            prior = np.full(mu.n_states, 1.0 / mu.n_states)
            assert np.all(kl_matrix(mu) >= 0.0)
            for price in (
                llr_cost(mu, beta),
                llr_cost_from_distribution(llr_distribution(mu), beta),
                llr_cost_via_posteriors(mu, beta, prior),
                _rule_cost(mu.probs, beta),
                mutual_information_cost(mu, prior),
            ):
                assert price >= 0.0

    def test_mutual_information_corners(self):
        # unclamped, the last problem's single-action corners cost
        # -2.2e-16 lam
        rng = Xoshiro256(2023)
        corners = []
        for _ in range(31):
            problem = rand_problem(rng, rng.randint(2, 5), rng.randint(2, 5))
            for lam in (0.1, 1.0, 10.0):
                res = solve_mutual_information(problem, lam)
                assert res.cost >= 0.0
                if np.count_nonzero(res.rule.probs.max(axis=0)) == 1:
                    corners.append(res.cost)
        assert corners[-3:] == [0.0, 0.0, 0.0]


class TestPosteriorRoute:
    """The potential-function route must reproduce the direct cost at any
    full-support prior, not just the uniform one."""

    def test_agreement_with_direct_cost(self):
        rng = Xoshiro256(33)
        for _ in range(30):
            states = rand_states(rng, rng.randint(2, 5))
            mu = rand_experiment(rng, states, rng.randint(2, 6))
            beta = rand_beta(rng, states)
            prior = rand_prior(rng, states.n)
            assert llr_cost_via_posteriors(mu, beta, prior) == pytest.approx(
                llr_cost(mu, beta), rel=1e-10, abs=1e-12
            )

    def test_uninformative_changes_nothing(self):
        states = StateSpace(("a", "b"))
        mu = uninformative_experiment(states, (1.0, 1.0, 2.0))
        beta = constant_betas(states, 2.0)
        assert llr_cost_via_posteriors(mu, beta, (0.3, 0.7)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_prior_needs_full_support(self):
        mu = binary_experiment(0.8)
        beta = constant_betas(mu.states, 1.0)
        from infocost.errors import PriorNotFullSupport

        with pytest.raises(PriorNotFullSupport):
            llr_cost_via_posteriors(mu, beta, (1.0, 0.0))

    def test_extreme_valid_prior_prices_like_the_direct_cost(self):
        # the posterior after signal "x" puts 7.5e-13 on state "b", below the
        # floor a user-given row must clear, yet the prior itself is valid
        states = StateSpace(("a", "b"))
        mu = make_experiment(states, ("x", "y"), [[0.5, 0.5], [0.25, 0.75]])
        beta = constant_betas(states, 1.0)
        prior = (1.0 - 1.5e-12, 1.5e-12)
        assert llr_cost_via_posteriors(mu, beta, prior) == pytest.approx(
            llr_cost(mu, beta), rel=1e-12
        )

    def test_potential_is_zero_at_its_prior(self):
        beta = constant_betas(StateSpace(("a", "b", "c")), 1.3)
        q = np.array([0.2, 0.3, 0.5])
        # F(q) with the prior plugged in twice collapses to sum beta_ij ln(q_i/q_j)
        lq = np.log(q)
        want = sum(
            1.3 * (lq[i] - lq[j]) for i in range(3) for j in range(3) if i != j
        )
        assert posterior_separable_value(beta, q, q) == pytest.approx(
            want, abs=1e-12
        )

    def test_potential_matches_pairwise_loop(self):
        # asymmetric prices, prior and posterior of full support; terms of
        # both signs cancel, so the error scales with their absolute sum
        rng = Xoshiro256(59)
        for _ in range(20):
            states = rand_states(rng, rng.randint(2, 6))
            n = states.n
            beta = rand_beta(rng, states)
            q, p = rand_prior(rng, n), rand_prior(rng, n)
            coef = beta.dense()
            terms = [
                coef[i, j] * (p[i] / q[i]) * math.log(p[i] / p[j])
                for i in range(n)
                for j in range(n)
                if i != j
            ]
            scale = sum(map(abs, terms))
            assert posterior_separable_value(beta, q, p) == pytest.approx(
                sum(terms), rel=1e-12, abs=1e-14 * scale
            )

    def test_potential_rejects_bad_rows_by_class(self):
        from infocost.errors import (
            NotFullSupport,
            PriorNotFullSupport,
            RowSumViolation,
        )

        beta = constant_betas(StateSpace(("a", "b")), 1.0)
        with pytest.raises(PriorNotFullSupport):
            posterior_separable_value(beta, (1.0, 0.0), (0.5, 0.5))
        with pytest.raises(PriorNotFullSupport):
            posterior_separable_value(beta, (math.nan, 1.0), (0.5, 0.5))
        with pytest.raises(NotFullSupport) as exc:
            posterior_separable_value(beta, (0.5, 0.5), (1.0, 0.0))
        assert not isinstance(exc.value, PriorNotFullSupport)
        with pytest.raises(RowSumViolation):
            posterior_separable_value(beta, (0.5, 0.5), (0.5, 0.6))
        with pytest.raises(DimensionMismatch):
            posterior_separable_value(beta, (0.5, 0.5), (0.2, 0.3, 0.5))


class TestMutualInformationCost:
    def test_hand_computed_binary_value(self):
        mu = binary_experiment(0.8)
        want = math.log(2.0) + 0.8 * math.log(0.8) + 0.2 * math.log(0.2)
        assert mutual_information_cost(mu, (0.5, 0.5)) == pytest.approx(
            want, rel=1e-12
        )

    def test_lambda_scales(self):
        mu = binary_experiment(0.7)
        one = mutual_information_cost(mu, (0.5, 0.5), lam=1.0)
        assert mutual_information_cost(mu, (0.5, 0.5), lam=2.5) == pytest.approx(
            2.5 * one, rel=1e-14
        )

    def test_uninformative_is_free(self):
        states = StateSpace(("a", "b"))
        mu = uninformative_experiment(states, (1.0, 3.0))
        assert mutual_information_cost(mu, (0.4, 0.6)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_nonnegative(self):
        rng = Xoshiro256(34)
        for _ in range(20):
            states = rand_states(rng, rng.randint(2, 4))
            mu = rand_experiment(rng, states, rng.randint(2, 5))
            prior = rand_prior(rng, states.n)
            assert mutual_information_cost(mu, prior) >= -1e-12


class TestNormalCost:
    def test_unit_frozen_value(self):
        states = _grid_states(2)
        beta = one_dimensional_betas(states, 1.0)
        assert normal_cost([0.0, 1.0], 1.0, beta) == 0.5

    def test_grid_invariance_of_normalized_rule(self):
        # with means equal to the state values, the n(n-1) normalization
        # makes the answer kappa / (2 sigma^2) on every grid
        rng = Xoshiro256(35)
        for n in (2, 3, 7, 15):
            vals = sorted(
                {rng.randint(-100, 100) for _ in range(3 * n)}
            )[:n]
            states = StateSpace(tuple(f"v{v}" for v in vals), vals)
            kappa = rng.uniform_in(0.5, 3.0)
            sigma = rng.uniform_in(0.5, 2.0)
            beta = one_dimensional_betas(states, kappa)
            got = normal_cost(vals, sigma, beta)
            assert got == pytest.approx(kappa / (2 * sigma**2), rel=1e-12)

    def test_matches_pairwise_loop(self):
        rng = Xoshiro256(36)
        states = rand_states(rng, 4)
        beta = rand_beta(rng, states)
        means = [rng.uniform_in(-2.0, 2.0) for _ in range(4)]
        sigma = 0.8
        coef = beta.dense()
        want = sum(
            coef[i, j] * (means[i] - means[j]) ** 2
            for i in range(4)
            for j in range(4)
            if i != j
        ) / (2 * sigma**2)
        assert normal_cost(means, sigma, beta) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        states = _grid_states(2)
        beta = one_dimensional_betas(states, 1.0)
        with pytest.raises(SigmaNonPositive):
            normal_cost([0.0, 1.0], 0.0, beta)
        with pytest.raises(DimensionMismatch):
            normal_cost([0.0, 1.0, 2.0], 1.0, beta)
        for means in ([math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValidationError, match="non-finite mean"):
                normal_cost(means, 1.0, beta)
        with pytest.raises(ValidationError, match="means"):
            normal_cost(["x", 0.0], 1.0, beta)


def _naive_partition_fraction(states, members, c):
    """Crossing-pair sum for beta_ij = c / (v_i - v_j)^2 as a Fraction."""
    vals = states.values
    total = Fraction(0)
    for i in members:
        for j in range(states.n):
            if j in members:
                continue
            d = int(vals[i]) - int(vals[j])
            total += Fraction(2, d * d)
    return Fraction(c) * total


def _naive_partition_exact(states, members, c):
    """_naive_partition_fraction correctly rounded to a float."""
    return float(_naive_partition_fraction(states, members, c))


def _halfway_between_floats(x: Fraction) -> bool:
    """Whether x lies exactly midway between two adjacent floats."""
    f = float(x)
    g = math.nextafter(f, math.inf if x > f else -math.inf)
    return x != f and 2 * x == Fraction(f) + Fraction(g)


class TestPartition:
    def test_hypothesis_validation(self):
        states = _grid_states(4)
        with pytest.raises(ValidationError):
            Hypothesis(states, frozenset())
        with pytest.raises(ValidationError):
            Hypothesis(states, frozenset(range(4)))
        with pytest.raises(ValidationError):
            Hypothesis(states, frozenset({0, 9}))

    @pytest.mark.parametrize(
        "members",
        [{"x"}, 5, [None], {1.7}, {"1"}, {True}, [0, True], {np.bool_(True)}],
        ids="str int none fraction digit-str bool int-and-bool np-bool".split(),
    )
    def test_hypothesis_members_must_be_indices(self, members):
        with pytest.raises(ValidationError):
            Hypothesis(_grid_states(4), members)

    def test_hypothesis_takes_numpy_integers(self):
        h = Hypothesis(_grid_states(4), [np.int64(2), np.uint8(0), 3])
        assert h.members == frozenset({0, 2, 3})
        assert all(type(i) is int for i in h.members)

    def test_threshold_fast_path_is_bit_exact(self):
        for n in (2, 3, 17, 60, 200):
            states = _grid_states(n)
            beta = inverse_square_betas(states, 1.0)
            for k in {1, 2, n // 2, n - 1} & set(range(1, n)):
                h = Hypothesis(states, frozenset(range(k)))
                got = partition_coefficient(beta, h)
                want = _naive_partition_exact(states, h.members, 1.0)
                assert got == want

    def test_parity_fast_path_is_bit_exact(self):
        for n in (5, 64, 199):
            states = _grid_states(n)
            beta = inverse_square_betas(states, 0.7)
            h = Hypothesis(states, frozenset(range(0, n, 2)))
            assert partition_coefficient(beta, h) == _naive_partition_exact(
                states, h.members, 0.7
            )

    def test_scattered_members_are_bit_exact(self):
        rng = Xoshiro256(37)
        for _ in range(10):
            n = rng.randint(5, 120)
            states = _grid_states(n)
            members = frozenset(
                i for i in range(n) if rng.uniform() < 0.4
            )
            if not members or len(members) == n:
                continue
            beta = inverse_square_betas(states, 1.3)
            h = Hypothesis(states, members)
            assert partition_coefficient(beta, h) == _naive_partition_exact(
                states, members, 1.3
            )

    def test_gapped_grid_is_bit_exact(self):
        vals = (0, 1, 4, 6, 13, 20, 21)
        states = StateSpace(tuple(f"v{v}" for v in vals), vals)
        beta = inverse_square_betas(states, 2.0)
        h = Hypothesis(states, frozenset({0, 3, 4}))
        assert partition_coefficient(beta, h) == _naive_partition_exact(
            states, h.members, 2.0
        )

    @staticmethod
    def _wide_span_corpus():
        # sparse integer grids on 0..span, span 2..2048, both rules, integral
        # and non-integral kappa, as (beta, hypothesis, c = beta_ij d^2)
        rng = Xoshiro256(41)
        for idx in range(60):
            span = 2048 if idx == 0 else 1 + idx if idx < 10 else rng.randint(2, 2048)
            n = rng.randint(2, min(span + 1, 40))
            vals = sorted({0, span} | {rng.randint(0, span) for _ in range(n - 2)})
            states = StateSpace(tuple(map(str, vals)), vals)
            members = frozenset(i for i in range(len(vals)) if rng.uniform() < 0.5)
            members = members if 0 < len(members) < len(vals) else frozenset({0})
            kappa = float(rng.randint(1, 5)) if idx % 2 else rng.uniform_in(0.1, 3.0)
            rule = (inverse_square_betas, one_dimensional_betas)[idx % 4 // 2]
            n = len(vals)
            c = kappa if rule is inverse_square_betas else kappa / (n * (n - 1))
            yield rule(states, kappa), Hypothesis(states, members), c

    def _lcm_sums(self, monkeypatch):
        calls = []
        monkeypatch.setattr(costs, "reduce", lambda *a: calls.append(1) or reduce(*a))
        return calls

    def test_fixed_point_sum_is_bit_exact(self, monkeypatch):
        # the fixed-point bounds decide every sum but one exactly halfway
        # between two floats, which no bound short of the exact value can
        # round; the lcm sum decides that one (values 0, 3, 4 in the corpus)
        lcm_sums = self._lcm_sums(monkeypatch)
        for beta, h, c in self._wide_span_corpus():
            exact = _naive_partition_fraction(h.states, h.members, c)
            before = len(lcm_sums)
            assert partition_coefficient(beta, h) == float(exact)
            assert (len(lcm_sums) > before) == _halfway_between_floats(exact)
        assert len(lcm_sums) == 1

    def test_lcm_fallback_is_bit_exact(self, monkeypatch):
        # with 2 fractional bits the two ends of the fixed-point bound round
        # apart, and the exact sum over lcm(1..span)^2 decides
        monkeypatch.setattr(costs, "_FIXED_BITS", 2)
        lcm_sums = self._lcm_sums(monkeypatch)
        for beta, h, c in self._wide_span_corpus():
            want = _naive_partition_exact(h.states, h.members, c)
            assert partition_coefficient(beta, h) == want
        assert len(lcm_sums) > 50

    @pytest.mark.parametrize(
        "vals, fixed_bits, lcm",
        [(range(50), 200, 0), (range(50), 2, 1), ((*range(49), 4999), 200, 0)],
        ids=["fixed-point", "lcm", "wide-span"],
    )
    def test_sum_beyond_the_double_range_is_inf(self, vals, fixed_bits, lcm, monkeypatch):
        # 3e307 times a crossing sum of about 8.2 is past the double range
        # on each route: the fixed-point bounds, the exact lcm sum (2 bits
        # leave the lower bound 5.0 in range), and the floating-point sum of
        # a span above 2,048; hypothesis_test_cost prices the inf
        # coefficient again at 2^-64 of its prices, so it sums twice
        monkeypatch.setattr(costs, "_FIXED_BITS", fixed_bits)
        lcm_sums = self._lcm_sums(monkeypatch)
        vals = tuple(vals)
        states = StateSpace(tuple(map(str, vals)), vals)
        beta = inverse_square_betas(states, 3e307)
        h = Hypothesis(states, frozenset(range(25)))
        assert partition_coefficient(beta, h) == math.inf
        assert hypothesis_test_cost(beta, h, 0.9) == math.inf
        assert hypothesis_test_cost(beta, h, 0.5) == 0.0
        assert len(lcm_sums) == 3 * lcm
        two = StateSpace(("a", "b"), (0, 1))
        assert binary_cost(0.9, inverse_square_betas(two, 1e308)) == math.inf
        assert binary_cost(0.5, inverse_square_betas(two, 1e308)) == 0.0
        # the dense route, silently too: a matrix beta overflows in the
        # reduction, a non-integer grid in adding the two directions
        three = StateSpace(("a", "b", "c"))
        assert partition_coefficient(constant_betas(three, 1e308), Hypothesis(three, {0})) == math.inf
        grid = StateSpace(("a", "b", "c"), (0, 1.5, 3))
        assert partition_coefficient(
            inverse_square_betas(grid, 1.7e308), Hypothesis(grid, {0})
        ) == math.inf

    @pytest.mark.parametrize(
        "beta, members, alpha",
        [
            (inverse_square_betas(StateSpace(("a", "b"), (0, 1)), 1e308), {0}, 0.5 + 1e-10),
            (inverse_square_betas(_grid_states(10), 1e308), set(range(5)), 0.5 + 1e-6),
            (constant_betas(StateSpace(("a", "b", "c")), 1e308), {0}, 0.5 + 1e-9),
        ],
        ids=["two-state", "integer-grid", "matrix"],
    )
    def test_finite_cost_of_a_coefficient_past_the_double_range(self, beta, members, alpha):
        # the coefficient is inf, but the test's cost is not
        h = Hypothesis(beta.states, frozenset(members))
        assert partition_coefficient(beta, h) == math.inf
        with mp.workdps(50):
            c = mp.mpf(beta.rule[1]) if beta.rule else None
            v = beta.states.values
            pairs = sum(
                c / (mp.mpf(v[i]) - v[j]) ** 2 if c else mp.mpf(beta.dense()[i, j])
                for i in range(beta.n)
                for j in range(beta.n)
                if (i in members) != (j in members)
            )
            a = mp.mpf(alpha)
            want = float(pairs * (2 * a - 1) * mp.log(a / (1 - a)))
        assert hypothesis_test_cost(beta, h, alpha) == pytest.approx(want, rel=1e-12)
        if beta.n == 2:
            assert binary_cost(alpha, beta) == pytest.approx(1.6000002647691982e289, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_rule_entries_past_the_double_range_refuse_without_a_warning(self):
        states = StateSpace(("a", "b", "c"), (0, 0.5, 1.5))
        beta = inverse_square_betas(states, 1e308)
        with pytest.raises(ValidationError, match="non-finite"):
            partition_coefficient(beta, Hypothesis(states, {0}))

    @pytest.mark.filterwarnings("error")
    def test_gaps_whose_square_passes_the_range_keep_their_coefficients(self):
        # (1e160)^2 passes the double range, 1e308 / 1e320 does not
        two = StateSpace(("a", "b"), (0, 1e160))
        got = partition_coefficient(inverse_square_betas(two, 1e308), Hypothesis(two, {0}))
        with mp.workdps(50):
            want = float(2 * mp.mpf(1e308) / mp.mpf(1e160) ** 2)
        assert got == pytest.approx(want, rel=1e-15)
        # ordinary gaps and gaps past 1.3e154 in one grid, entry by entry
        vals = (0.0, 1.5, 2e154, -3e155, 7e200)
        states = StateSpace(tuple("abcde"), vals)
        for beta, c in (
            (inverse_square_betas(states, 3e300), mp.mpf(3e300)),
            (one_dimensional_betas(states, 1e300), mp.mpf(1e300) / 20),
        ):
            coef = beta.dense()
            with mp.workdps(50):
                for i, vi in enumerate(vals):
                    for j, vj in enumerate(vals):
                        if i != j:
                            want = float(c / (mp.mpf(vi) - mp.mpf(vj)) ** 2)
                            assert coef[i, j] == pytest.approx(want, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_gaps_past_the_double_range_keep_their_coefficients(self):
        # 1e308 - (-1e308) itself passes the double range, on the integer
        # grid check and in the dense matrix; the true coefficient is the
        # subnormal 2.5e-309, and the crossing sum adds it twice exactly
        two = StateSpace(("a", "b"), (-1e308, 1e308))
        beta = inverse_square_betas(two, 1e308)
        with mp.workdps(50):
            want = float(mp.mpf(1e308) / (mp.mpf(1e308) - mp.mpf(-1e308)) ** 2)
        assert want == 2.5e-309
        np.testing.assert_array_equal(beta.dense(), [[0.0, want], [want, 0.0]])
        assert partition_coefficient(beta, Hypothesis(two, {0})) == 2 * want

    def test_one_dimensional_rule_carries_normalization(self):
        states = _grid_states(10)
        h = Hypothesis(states, frozenset(range(5)))
        a = partition_coefficient(inverse_square_betas(states, 1.0), h)
        b = partition_coefficient(one_dimensional_betas(states, 1.0), h)
        assert b == pytest.approx(a / (10 * 9), rel=1e-12)

    def test_dense_path_matches_loop(self):
        rng = Xoshiro256(38)
        states = rand_states(rng, 6)
        beta = rand_beta(rng, states)
        coef = beta.dense()
        members = frozenset({0, 2, 5})
        h = Hypothesis(states, members)
        want = sum(
            coef[i, j] + coef[j, i]
            for i in members
            for j in range(6)
            if j not in members
        )
        assert partition_coefficient(beta, h) == pytest.approx(want, rel=1e-13)

    def test_partition_experiment_layout(self):
        states = _grid_states(3)
        h = Hypothesis(states, frozenset({1}))
        mu = partition_experiment(h, 0.9)
        assert mu.signals == ("in", "out")
        np.testing.assert_allclose(
            mu.probs, [[0.1, 0.9], [0.9, 0.1], [0.1, 0.9]], atol=1e-15
        )

    def test_cost_formula_matches_explicit_experiment(self):
        rng = Xoshiro256(39)
        for _ in range(25):
            n = rng.randint(3, 8)
            states = _grid_states(n)
            members = frozenset(
                i for i in range(n) if rng.uniform() < 0.5
            )
            if not members or len(members) == n:
                continue
            h = Hypothesis(states, members)
            alpha = rng.uniform_in(0.55, 0.99)
            beta = inverse_square_betas(states, rng.uniform_in(0.2, 3.0))
            want = llr_cost(partition_experiment(h, alpha), beta)
            assert hypothesis_test_cost(beta, h, alpha) == pytest.approx(
                want, rel=1e-12
            )

    def test_alpha_validation(self):
        states = _grid_states(3)
        h = Hypothesis(states, frozenset({0}))
        beta = inverse_square_betas(states, 1.0)
        for alpha in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(AlphaOutOfRange):
                hypothesis_test_cost(beta, h, alpha)

    def test_runs_on_grids_too_large_to_materialize(self):
        states = _grid_states(3000)
        beta = inverse_square_betas(states, 1.0)
        h = Hypothesis(states, frozenset(range(1500)))
        assert partition_coefficient(beta, h) > 0.0

    def test_wide_value_span_takes_the_dense_sum(self):
        # a span of 10**9 would need FFTs of 2**31 points; three states
        # need only the dense 3 x 3 sum
        states = StateSpace(("a", "b", "c"), (0, 1, 10**9))
        beta = inverse_square_betas(states, 1.0)
        h = Hypothesis(states, frozenset({1}))
        coef = beta.dense()
        want = coef[1, [0, 2]].sum() + coef[[0, 2], 1].sum()
        assert partition_coefficient(beta, h) == want

    def test_integer_values_beyond_int64_take_the_fft_count(self):
        # integers near 1e19 overflow int64; the count runs on offsets
        states = StateSpace(("a", "b", "c"), (1e19, 1e19 + 2048, 1e19 + 4096))
        beta = inverse_square_betas(states, 1.0)
        h = Hypothesis(states, frozenset({1}))
        coef = beta.dense()
        want = coef[1, [0, 2]].sum() + coef[[0, 2], 1].sum()
        assert partition_coefficient(beta, h) == pytest.approx(want, rel=1e-15)

    def test_wide_value_span_beyond_the_dense_cap_raises(self):
        vals = tuple(range(0, 3000 * 10**4, 10**4))
        states = StateSpace(tuple(str(v) for v in vals), vals)
        h = Hypothesis(states, frozenset(range(1500)))
        with pytest.raises(ValidationError, match="too large"):
            partition_coefficient(inverse_square_betas(states, 1.0), h)

    def test_rule_prices_refuse_non_integer_grids_too_large_to_materialize(self):
        # only integer grids have the FFT operator; above the dense cap the
        # other grids refuse instead of building 3000 x 3000 entries
        states = _grid_states(3000, step=0.5)
        beta = one_dimensional_betas(states, 1.0)
        mu = partition_experiment(Hypothesis(states, frozenset(range(1500))), 0.9)
        uniform = np.full(3000, 1.0 / 3000)
        with pytest.raises(ValidationError, match="too large"):
            llr_cost(mu, beta)
        with pytest.raises(ValidationError, match="too large"):
            normal_cost(np.arange(3000.0), 1.0, beta)
        with pytest.raises(ValidationError, match="too large"):
            posterior_separable_value(beta, uniform, uniform)

    @pytest.mark.parametrize("rule", ["one_dimensional", "inverse_square"])
    def test_rule_apply_matches_dense(self, rule, monkeypatch):
        # integer grids with gaps and negative values, below the cap so the
        # dense product is the reference; then again with an FFT budget so
        # small that the columns go through one at a time
        rng = Xoshiro256(41)
        cases = []
        for _ in range(6):
            n = rng.randint(2, 300)
            vals = sorted({rng.randint(-3000, 3000) for _ in range(2 * n)})[:n]
            states = StateSpace(tuple(f"v{v}" for v in vals), vals)
            beta = BetaMatrix(states, None, (rule, rng.uniform_in(0.2, 3.0)))
            X = np.array(
                [[rng.uniform_in(0.1, 2.0) for _ in range(3)] for _ in range(n)]
            )
            cases.append((beta, _rule_grid(beta), X, beta.dense() @ X))
        for budget in (costs._DENSE_CAP, 2):
            monkeypatch.setattr(costs, "_DENSE_CAP", budget)
            for beta, offsets, X, want in cases:
                np.testing.assert_allclose(
                    _rule_apply(beta, offsets, X), want, rtol=1e-12, atol=0.0
                )

    def test_sparse_wide_grid_above_the_cap_refuses_without_fft(self):
        # 2,049 integer states spanning nearly 2048**2 points: the FFT of
        # 2**23 points per column would outweigh the 2049 x 2049 matrix, so
        # the rule prices refuse as for any grid too large to materialize
        vals = [2047 * i for i in range(2049)]
        states = StateSpace(tuple(f"v{v}" for v in vals), vals)
        beta = inverse_square_betas(states, 1.0)
        mu = partition_experiment(Hypothesis(states, frozenset(range(1000))), 0.9)
        dist = llr_distribution(mu)
        uniform = np.full(2049, 1.0 / 2049)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="too large"):
                llr_cost(mu, beta)
            with pytest.raises(ValidationError, match="too large"):
                llr_cost_from_distribution(dist, beta)
            with pytest.raises(ValidationError, match="too large"):
                normal_cost(np.arange(2049.0), 1.0, beta)
            with pytest.raises(ValidationError, match="too large"):
                posterior_separable_value(beta, uniform, uniform)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sparse_wide_grid_below_the_cap_takes_the_dense_sum(self):
        # three states spanning 10**6: the 3 x 3 matrix, not 2**21-point FFTs
        states = StateSpace(("a", "b", "c"), (0, 1, 10**6))
        beta = one_dimensional_betas(states, 1.0)
        mu = make_experiment(states, ("x", "y"), [[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
        tracemalloc.start()
        try:
            got = llr_cost(mu, beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        # against beta_ij KL_ij summed in 50 digits from the same floats
        coef, probs = beta.dense(), mu.probs
        with localcontext(Context(prec=50)):
            want = sum(
                Decimal(coef[i, j])
                * sum(
                    Decimal(probs[i, s])
                    * (Decimal(probs[i, s]).ln() - Decimal(probs[j, s]).ln())
                    for s in range(2)
                )
                for i in range(3)
                for j in range(3)
                if i != j
            )
        assert got == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("rule", ["one_dimensional", "inverse_square"])
    @pytest.mark.parametrize("question", ["threshold", "parity"])
    def test_gdp_experiments_price_like_their_tests(self, rule, question):
        # the paper's GDP example end to end: the explicit two-signal
        # experiment on 60,001 states costs what its partition coefficient
        # says, although most of the price mass sits on within-class pairs
        # that the operator's sum must cancel
        vals = np.arange(20000, 80001)
        states = StateSpace(tuple(str(v) for v in vals), vals)
        beta = BetaMatrix(states, None, (rule, 1.0))
        mask = vals >= 50000 if question == "threshold" else vals % 2 == 0
        h = Hypothesis(states, frozenset(np.flatnonzero(mask).tolist()))
        for alpha in (0.6, 0.9, 0.999):
            mu = partition_experiment(h, alpha)
            t0 = time.perf_counter()
            got = llr_cost(mu, beta)
            assert time.perf_counter() - t0 < 1.0
            want = hypothesis_test_cost(beta, h, alpha)
            assert got == pytest.approx(want, rel=1e-9)
            # the merged LLR route applies the same operator
            got = llr_cost_from_distribution(llr_distribution(mu), beta)
            assert got == pytest.approx(want, rel=1e-9)

    def test_other_rule_prices_run_above_the_dense_cap(self):
        n = 3000
        states = _grid_states(n)
        kappa, sigma = 2.5, 1.7
        beta = one_dimensional_betas(states, kappa)
        # means equal to the values: kappa / (2 sigma^2) on every grid
        got = normal_cost(np.arange(n) + 1e4, sigma, beta)
        assert got == pytest.approx(kappa / (2 * sigma**2), rel=1e-11)
        # the posterior route prices through posterior_separable_value
        mu = partition_experiment(Hypothesis(states, frozenset(range(0, n, 3))), 0.8)
        prior = np.linspace(1.0, 2.0, n)
        prior /= prior.sum()
        cost = llr_cost(mu, beta)
        assert llr_cost_via_posteriors(mu, beta, prior) == pytest.approx(
            cost, rel=1e-9
        )

    def test_rule_prices_above_the_cap_take_any_number_of_signals(self):
        # 541 columns of 8,192 FFT points outnumber the 2,100^2 entries, but
        # above the cap there is no dense matrix to take instead, and the
        # FFT runs its columns in blocks; the sum is additive over columns,
        # so the two halves, each priced on its own, give the reference
        n, m = 2100, 540
        beta = inverse_square_betas(_grid_states(n), 1.0)
        rng = np.random.default_rng(2100)
        P = rng.uniform(0.05, 1.0, (n, m))
        P /= P.sum(axis=1, keepdims=True)
        want = 0.0
        for W in (P[:, : m // 2], P[:, m // 2 :]):
            X = np.empty((n, W.shape[1] + 1))
            np.log(W / W[0], out=X[:, 1:])
            want += _llr_sum(beta, W, X)
        got = llr_cost(Experiment(beta.states, tuple(range(m)), P), beta)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gdp_scale_counts_match_closed_forms(self):
        # crossing counts on the 60,001-state income grid, threshold and
        # parity, against their closed forms
        vals = np.arange(20000, 80001)
        n = vals.size
        d = np.arange(1, n)
        below = int(np.sum(vals < 50000))
        threshold = np.zeros(n, dtype=np.int64)
        # pairs (i, i + d) with i < below <= i + d
        threshold[1:] = (
            np.minimum(below - 1, n - 1 - d) - np.maximum(0, below - d) + 1
        )
        parity = np.zeros(n, dtype=np.int64)
        parity[1:] = np.where(d % 2 == 1, n - d, 0)
        got_threshold = _crossing_counts(vals, vals >= 50000)
        got_parity = _crossing_counts(vals, vals % 2 == 0)
        np.testing.assert_array_equal(got_threshold, threshold)
        np.testing.assert_array_equal(got_parity, parity)

    def test_gdp_rows_keep_their_bits(self):
        # the reproduction labels its states with their integer values;
        # labels never reach the coefficients, so both rows keep the bits
        # they had under string labels
        got = {name: value.hex() for name, value in gdp_rows(1.0)}
        assert got == {"H1": "0x1.662d5da1db0e4p+4", "H2": "0x1.2120a1666b53ep+17"}


def _asymmetry_reference(eps, kappa):
    """60-digit evaluation of the two KL divergences."""
    with mp.workdps(60):
        e = mp.mpf(eps)
        k = mp.mpf(kappa)
        a = (mp.mpf(1) - e * e, e * e)
        b = (mp.mpf(1) - e, e)
        kl_ab = sum(x * mp.log(x / y) for x, y in zip(a, b))
        kl_ba = sum(x * mp.log(x / y) for x, y in zip(b, a))
        return float(k * kl_ab), float(k * kl_ba)


class TestVerificationAsymmetry:
    def test_matches_explicit_experiment_at_moderate_eps(self):
        for eps in (0.1, 0.01, 0.001):
            e2 = eps * eps
            mu = make_experiment(
                StateSpace(("claim_true", "claim_false")),
                ("fail", "stop"),
                [[1.0 - e2, e2], [1.0 - eps, eps]],
            )
            kappa = 1.4
            states = mu.states
            b_i = BetaMatrix(states, [[0.0, kappa], [0.0, 0.0]])
            b_ii = BetaMatrix(states, [[0.0, 0.0], [kappa, 0.0]])
            cost_i, cost_ii = verification_asymmetry(eps, kappa)
            assert cost_i == pytest.approx(llr_cost(mu, b_i), rel=1e-12)
            assert cost_ii == pytest.approx(llr_cost(mu, b_ii), rel=1e-12)

    def test_matches_high_precision_reference_at_tiny_eps(self):
        for eps in (1e-4, 1e-5, 1e-8):
            want_i, want_ii = _asymmetry_reference(eps, 1.0)
            got_i, got_ii = verification_asymmetry(eps)
            assert got_i == pytest.approx(want_i, rel=1e-13)
            assert got_ii == pytest.approx(want_ii, rel=1e-13)

    def test_asymptotic_window(self):
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            cost_i, cost_ii = verification_asymmetry(eps)
            assert 0.9 <= cost_i / eps <= 1.1
            ratio = cost_ii / cost_i
            assert math.log(1 / eps) - 2.0 <= ratio <= math.log(1 / eps)

    def test_kappa_is_a_pure_scale(self):
        base = verification_asymmetry(1e-3, 1.0)
        scaled = verification_asymmetry(1e-3, 7.0)
        assert scaled[0] == 7.0 * base[0]
        assert scaled[1] == 7.0 * base[1]

    def test_validation(self):
        for eps in (0.0, 0.5, -0.1, math.nan):
            with pytest.raises(EpsilonOutOfRange):
                verification_asymmetry(eps)
        with pytest.raises(ValidationError):
            verification_asymmetry(1e-3, kappa=0.0)
