"""Pricing layer: KL matrices, the LLR cost and its closed forms, the
posterior route, partition coefficients, and the verification asymmetry.

Partition coefficients promise bit-exact agreement with naive enumeration
on small grids, so the oracle here sums crossing pairs in exact rational
arithmetic and rounds once, mirroring what the fast path guarantees.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_beta, rand_experiment, rand_prior, rand_states
from infocost import (
    BetaMatrix,
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
    llr_cost_via_posteriors,
    make_experiment,
    mutual_information_cost,
    normal_cost,
    one_dimensional_betas,
    partition_coefficient,
    partition_experiment,
    posterior_separable_value,
    uninformative_experiment,
    verification_asymmetry,
)
from infocost.costs import _crossing_counts
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

    def test_huge_grids_stay_lazy(self):
        states = _grid_states(3000)
        beta = inverse_square_betas(states, 1.0)
        assert beta.coef is None
        with pytest.raises(ValidationError):
            beta.dense()


class TestBetaJson:
    def test_coef_round_trip(self):
        rng = Xoshiro256(30)
        states = rand_states(rng, 3)
        beta = rand_beta(rng, states)
        back = beta_from_json(beta_to_json(beta))
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

    def test_binary_closed_form_rejects_bad_p(self):
        beta = constant_betas(StateSpace(("a", "b")), 1.0)
        for p in (0.0, 1.0, math.nan):
            with pytest.raises(POutOfRange):
                binary_cost(p, beta)


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


def _naive_partition_exact(states, members, c):
    """Crossing-pair sum for beta_ij = c / (v_i - v_j)^2 in exact rationals."""
    vals = states.values
    total = Fraction(0)
    for i in members:
        for j in range(states.n):
            if j in members:
                continue
            d = int(vals[i]) - int(vals[j])
            total += Fraction(2, d * d)
    return float(Fraction(c) * total)


class TestPartition:
    def test_hypothesis_validation(self):
        states = _grid_states(4)
        with pytest.raises(ValidationError):
            Hypothesis(states, frozenset())
        with pytest.raises(ValidationError):
            Hypothesis(states, frozenset(range(4)))
        with pytest.raises(ValidationError):
            Hypothesis(states, frozenset({0, 9}))

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

    def test_other_rule_prices_refuse_grids_too_large_to_materialize(self):
        # only the partition coefficients have a lazy form; the dense
        # prices refuse the grid instead of building 3000 x 3000 entries
        states = _grid_states(3000)
        beta = one_dimensional_betas(states, 1.0)
        mu = partition_experiment(Hypothesis(states, frozenset(range(1500))), 0.9)
        uniform = np.full(3000, 1.0 / 3000)
        with pytest.raises(ValidationError, match="too large"):
            llr_cost(mu, beta)
        with pytest.raises(ValidationError, match="too large"):
            normal_cost(np.arange(3000.0), 1.0, beta)
        with pytest.raises(ValidationError, match="too large"):
            posterior_separable_value(beta, uniform, uniform)

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
