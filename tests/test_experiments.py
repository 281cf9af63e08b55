"""Experiment algebra: construction, product, dilution, garbling,
posteriors, LLR distributions, and Blackwell dominance.

The dominance tests lean on a two-state fact: with a uniform prior,
mu dominates nu exactly when E|p - z| under mu's posterior law is at
least nu's for every z in [0, 1].  Both functions are piecewise linear
in z with kinks only at posterior atoms, so checking the kink points is
an exact, LP-free oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_beta, rand_experiment, rand_prior, rand_states
from infocost import (
    Experiment,
    GarblingMatrix,
    StateSpace,
    Xoshiro256,
    binary_experiment,
    blackwell_dominates,
    check_admissible,
    constant_betas,
    convolve_llr,
    dilute,
    experiment_from_json,
    experiment_to_json,
    garble,
    kl_divergence,
    llr_cost,
    llr_cost_from_distribution,
    llr_distribution,
    make_experiment,
    make_normalized_experiment,
    posterior_distribution,
    product,
    uninformative_experiment,
)
from infocost.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    DuplicateValues,
    NonPositiveEntry,
    PriorNotFullSupport,
    RowSumViolation,
    StateSpaceMismatch,
    ValidationError,
)
from infocost.experiments import LLR_MERGE_TOL, _merge_point_rows

LN4 = math.log(4.0)


def _exp(rows, signals=None, labels=None):
    rows = np.asarray(rows, dtype=float)
    states = StateSpace(labels or tuple(f"s{i}" for i in range(rows.shape[0])))
    return make_experiment(states, signals or tuple(range(rows.shape[1])), rows)


class TestStateSpace:
    def test_labels_become_tuple(self):
        s = StateSpace(["a", "b", "c"])
        assert s.labels == ("a", "b", "c")
        assert s.n == 3
        assert s.values is None

    def test_values_stored_as_floats(self):
        s = StateSpace(("a", "b"), [1, 4])
        assert s.values == (1.0, 4.0)

    def test_needs_two_states(self):
        with pytest.raises(ValidationError):
            StateSpace(("only",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            StateSpace(("a", "a"))

    def test_rejects_duplicate_values(self):
        with pytest.raises(DuplicateValues):
            StateSpace(("a", "b"), (2.0, 2.0))

    def test_rejects_value_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(("a", "b"), (1.0,))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValidationError):
            StateSpace(("a", "b"), (0.0, math.inf))


class TestExperimentConstruction:
    def test_round_trips_probs(self):
        mu = _exp([[0.6, 0.4], [0.1, 0.9]])
        assert mu.n_states == 2 and mu.n_signals == 2
        np.testing.assert_array_equal(mu.probs, [[0.6, 0.4], [0.1, 0.9]])

    def test_rejects_zero_entry(self):
        with pytest.raises(NonPositiveEntry):
            _exp([[1.0, 0.0], [0.5, 0.5]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(RowSumViolation):
            _exp([[0.6, 0.6], [0.5, 0.5]])

    def test_rejects_duplicate_signals(self):
        states = StateSpace(("a", "b"))
        with pytest.raises(ValidationError):
            Experiment(states, ("s", "s"), np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_shape_mismatch(self):
        states = StateSpace(("a", "b"))
        with pytest.raises(DimensionMismatch):
            Experiment(states, ("s",), np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_normalized_constructor_rescales(self):
        states = StateSpace(("a", "b"))
        mu = make_normalized_experiment(states, (0, 1), [[3.0, 1.0], [1.0, 4.0]])
        np.testing.assert_allclose(mu.probs, [[0.75, 0.25], [0.2, 0.8]])

    def test_normalized_constructor_rejects_zero_mass(self):
        with pytest.raises(ValidationError):
            make_normalized_experiment(
                StateSpace(("a", "b")), (0, 1), [[0.0, 0.0], [1.0, 1.0]]
            )

    def test_probs_are_immutable(self):
        mu = binary_experiment(0.7)
        with pytest.raises(ValueError):
            mu.probs[0, 0] = 0.5


class TestStockExperiments:
    def test_binary_layout(self):
        mu = binary_experiment(0.8)
        assert mu.states.labels == ("H", "L")
        assert mu.signals == ("h", "t")
        np.testing.assert_allclose(mu.probs, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_binary_rejects_extreme_p(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                binary_experiment(p)

    def test_uninformative_is_free(self):
        states = StateSpace(("a", "b", "c"))
        mu = uninformative_experiment(states, (2.0, 1.0, 1.0))
        assert np.ptp(mu.probs, axis=0).max() == 0.0
        beta = constant_betas(states, 3.0)
        assert llr_cost(mu, beta) == 0.0


class TestKLDivergence:
    def test_matches_direct_sum(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.5, 0.3])
        want = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        assert kl_divergence(p, q) == pytest.approx(want, rel=1e-15)

    def test_zero_on_identical(self):
        p = np.array([0.4, 0.6])
        assert kl_divergence(p, p) == 0.0

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_nonnegative(self, a, b):
        assert kl_divergence([a, 1 - a], [b, 1 - b]) >= 0.0

    def test_rejects_bad_rows_by_class(self):
        good = [0.5, 0.5]
        with pytest.raises(NonPositiveEntry):
            kl_divergence([1.0, 0.0], good)
        with pytest.raises(RowSumViolation):
            kl_divergence(good, [0.5, 0.6])
        with pytest.raises(ValidationError):
            kl_divergence([float("nan"), 1.0], good)


class TestProduct:
    def test_signal_pairs_row_major(self):
        a = binary_experiment(0.8)
        b = binary_experiment(0.6)
        ab = product(a, b)
        assert ab.signals == (("h", "h"), ("h", "t"), ("t", "h"), ("t", "t"))

    def test_probs_multiply_statewise(self):
        rng = Xoshiro256(11)
        states = rand_states(rng, 3)
        a = rand_experiment(rng, states, 3)
        b = rand_experiment(rng, states, 2)
        ab = product(a, b)
        for i in range(3):
            want = [
                a.probs[i, s] * b.probs[i, t]
                for s in range(3)
                for t in range(2)
            ]
            np.testing.assert_allclose(ab.probs[i], want, rtol=1e-15)

    def test_rejects_state_mismatch(self):
        a = binary_experiment(0.8)
        b = _exp([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(StateSpaceMismatch):
            product(a, b)

    def test_cost_adds(self):
        rng = Xoshiro256(12)
        states = rand_states(rng, 3)
        beta = rand_beta(rng, states)
        a = rand_experiment(rng, states, 3)
        b = rand_experiment(rng, states, 4)
        total = llr_cost(product(a, b), beta)
        assert total == pytest.approx(
            llr_cost(a, beta) + llr_cost(b, beta), rel=1e-12
        )


class TestDilution:
    def test_alpha_one_is_identity_without_null_symbol(self):
        mu = binary_experiment(0.8)
        d = dilute(mu, 1.0)
        assert d.signals == mu.signals
        np.testing.assert_array_equal(d.probs, mu.probs)

    def test_adds_single_null_column(self):
        mu = binary_experiment(0.8)
        d = dilute(mu, 0.25)
        assert d.signals == ("h", "t", "o")
        np.testing.assert_allclose(d.probs[:, :2], 0.25 * mu.probs)
        np.testing.assert_allclose(d.probs[:, 2], [0.75, 0.75])

    def test_fresh_symbol_avoids_collision(self):
        mu = _exp([[0.5, 0.5], [0.2, 0.8]], signals=("o", "x"))
        d = dilute(mu, 0.5)
        assert d.signals[-1] == "o1"

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            dilute(binary_experiment(0.8), alpha)

    @given(st.floats(0.05, 0.95), st.floats(0.01, 0.999999))
    @settings(max_examples=80, deadline=None)
    def test_cost_scales_linearly(self, p, alpha):
        mu = binary_experiment(p)
        beta = constant_betas(mu.states, 1.0)
        assert llr_cost(dilute(mu, alpha), beta) == pytest.approx(
            alpha * llr_cost(mu, beta), rel=1e-10, abs=1e-12
        )


class TestGarbling:
    def test_matrix_rejects_negative(self):
        with pytest.raises(NonPositiveEntry):
            GarblingMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_matrix_rejects_bad_rows(self):
        with pytest.raises(RowSumViolation):
            GarblingMatrix([[0.9, 0.0], [0.5, 0.5]])

    def test_applies_kernel(self):
        mu = binary_experiment(0.8)
        g = GarblingMatrix([[0.7, 0.3], [0.2, 0.8]])
        nu = garble(mu, g)
        assert nu.signals == (0, 1)
        np.testing.assert_allclose(nu.probs, mu.probs @ g.probs, rtol=1e-15)

    def test_rejects_row_count_mismatch(self):
        mu = binary_experiment(0.8)
        with pytest.raises(DimensionMismatch):
            garble(mu, GarblingMatrix([[1.0], [1.0], [1.0]]))

    def test_never_raises_cost(self):
        rng = Xoshiro256(13)
        for _ in range(25):
            states = rand_states(rng, rng.randint(2, 4))
            mu = rand_experiment(rng, states, rng.randint(2, 5))
            m = rng.randint(2, 4)
            g = np.array(
                [
                    [rng.uniform_in(0.05, 1.0) for _ in range(m)]
                    for _ in range(mu.n_signals)
                ]
            )
            g /= g.sum(axis=1, keepdims=True)
            beta = rand_beta(rng, states)
            assert llr_cost(garble(mu, GarblingMatrix(g)), beta) <= llr_cost(
                mu, beta
            ) + 1e-10


class TestPosteriors:
    def test_matches_bayes_by_hand(self):
        mu = binary_experiment(0.8)
        prior = (0.3, 0.7)
        post = posterior_distribution(mu, prior)
        # signal h: joint (0.24, 0.14), marginal 0.38
        p0, m0 = post[0]
        assert m0 == pytest.approx(0.38, rel=1e-15)
        np.testing.assert_allclose(p0, [0.24 / 0.38, 0.14 / 0.38], rtol=1e-14)
        p1, m1 = post[1]
        assert m1 == pytest.approx(0.62, rel=1e-15)
        np.testing.assert_allclose(p1, [0.06 / 0.62, 0.56 / 0.62], rtol=1e-14)

    def test_rows_and_marginals_normalize(self):
        rng = Xoshiro256(14)
        for _ in range(20):
            states = rand_states(rng, rng.randint(2, 5))
            mu = rand_experiment(rng, states, rng.randint(2, 6))
            prior = rand_prior(rng, states.n)
            post = posterior_distribution(mu, prior)
            assert sum(m for _, m in post) == pytest.approx(1.0, abs=1e-12)
            for p, _ in post:
                assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_partial_support_prior(self):
        with pytest.raises(PriorNotFullSupport):
            posterior_distribution(binary_experiment(0.8), (1.0, 0.0))
        with pytest.raises(PriorNotFullSupport):
            posterior_distribution(binary_experiment(0.8), (math.nan, 1.0))


class TestLLRDistribution:
    def test_binary_atoms_and_weights(self):
        d = llr_distribution(binary_experiment(0.8))
        np.testing.assert_allclose(d.atoms, [[-LN4], [LN4]], rtol=1e-14)
        np.testing.assert_allclose(d.weights, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_merges_equally_informative_signals(self):
        # splitting the second column in half must not change the law
        split = _exp([[0.8, 0.1, 0.1], [0.2, 0.4, 0.4]], signals=("a", "b", "c"))
        d = llr_distribution(split)
        base = llr_distribution(binary_experiment(0.8))
        assert d.n_atoms == base.n_atoms == 2
        np.testing.assert_allclose(d.atoms, base.atoms, atol=1e-12)
        np.testing.assert_allclose(d.weights, base.weights, atol=1e-12)

    def test_random_laws_are_admissible(self):
        rng = Xoshiro256(15)
        for _ in range(30):
            states = rand_states(rng, rng.randint(2, 5))
            mu = rand_experiment(rng, states, rng.randint(2, 6))
            d = llr_distribution(mu)
            expected = np.exp(d.atoms.T) * d.weights[0]
            np.testing.assert_allclose(d.weights[1:], expected, atol=1e-12)
            assert check_admissible(d)

    def test_rejects_bad_weights_by_class(self):
        from infocost import LLRDistribution

        atoms = [[0.0], [1.0]]
        with pytest.raises(NonPositiveEntry):
            LLRDistribution(atoms, [[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(RowSumViolation):
            LLRDistribution(atoms, [[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(NonPositiveEntry):
            LLRDistribution(atoms, [[math.nan, 0.5], [0.5, 0.5]])

    def test_check_admissible_rejects_corrupted_weights(self):
        d = llr_distribution(binary_experiment(0.8))
        w = d.weights.copy()
        w[1] = w[1][::-1]
        from infocost import LLRDistribution

        bad = LLRDistribution(d.atoms, w)
        assert not check_admissible(bad)

    def test_convolution_matches_product_route(self):
        rng = Xoshiro256(16)
        for _ in range(15):
            states = rand_states(rng, rng.randint(2, 4))
            a = rand_experiment(rng, states, rng.randint(2, 4))
            b = rand_experiment(rng, states, rng.randint(2, 4))
            via_product = llr_distribution(product(a, b))
            via_conv = convolve_llr(llr_distribution(a), llr_distribution(b))
            beta = rand_beta(rng, states)
            assert llr_cost_from_distribution(
                via_conv, beta
            ) == pytest.approx(
                llr_cost_from_distribution(via_product, beta), rel=1e-10
            )

    def test_cost_from_distribution_matches_direct(self):
        rng = Xoshiro256(17)
        for _ in range(25):
            states = rand_states(rng, rng.randint(2, 5))
            mu = rand_experiment(rng, states, rng.randint(2, 6))
            beta = rand_beta(rng, states)
            assert llr_cost_from_distribution(
                llr_distribution(mu), beta
            ) == pytest.approx(llr_cost(mu, beta), rel=1e-12)


def _walk_merge(points, weights, tol):
    """The anchor walk over every sorted row: the reference the segmented
    merge must reproduce bit for bit."""
    k = points.shape[0]
    order = np.lexsort(points.T[::-1])
    sorted_points = points[order]
    rows = [tuple(r) for r in sorted_points.tolist()]
    starts = [0]
    anchor = rows[0]
    for s in range(1, k):
        r = rows[s]
        if any(abs(a - x) > tol for a, x in zip(anchor, r)):
            starts.append(s)
            anchor = r
    idx = np.array(starts)
    counts = np.diff(np.append(idx, k))
    merged_points = np.add.reduceat(sorted_points, idx, axis=0) / counts[:, None]
    merged_weights = np.add.reduceat(weights[:, order], idx, axis=1)
    return merged_points, merged_weights


def _first_coordinate_segments(points, tol):
    """Number of runs cut by first-coordinate gaps above tol."""
    first = np.sort(points[:, 0])
    return 1 + int(np.count_nonzero(np.diff(first) > tol))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMergePointRows:
    """Rows group with the first row of their group (the anchor) in
    lexicographic order.  Each case below has a run of rows, unbroken by
    first-coordinate gaps above tol, that is not a single group."""

    def test_chain_on_one_axis_splits_at_the_anchor(self):
        tol = LLR_MERGE_TOL
        # input order 1.2, 0, 1.8, 0.6 (times tol); dyadic weights add exactly
        points = np.array([[1.2], [0.0], [1.8], [0.6]]) * tol
        weights = np.array([[0.25, 0.125, 0.5, 0.125], [0.125, 0.5, 0.125, 0.25]])
        merged_points, merged_weights = _merge_point_rows(points, weights, tol)
        # {0, 0.6} and {1.2, 1.8}: 1.2 is beyond tol of the anchor 0, although
        # every neighbouring gap is 0.6 tol
        np.testing.assert_allclose(merged_points, [[0.3 * tol], [1.5 * tol]], rtol=1e-14)
        np.testing.assert_array_equal(merged_weights, [[0.25, 0.75], [0.75, 0.25]])

    def test_equal_first_coordinates_group_by_the_second(self):
        tol = LLR_MERGE_TOL
        points = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 3.5], [0.0, 0.5]]) * tol
        weights = np.array([[0.125, 0.25, 0.5, 0.125]])
        merged_points, merged_weights = _merge_point_rows(points, weights, tol)
        np.testing.assert_allclose(
            merged_points, [[0.0, 0.25 * tol], [0.0, 3.25 * tol]], rtol=1e-14
        )
        np.testing.assert_array_equal(merged_weights, [[0.375, 0.625]])

    def test_clusters_interleaved_by_the_sort_stay_apart(self):
        tol = LLR_MERGE_TOL
        # two clusters near (0, 0) and (0, 3 tol); sorted by first coordinate
        # their rows alternate, and each row breaks from the previous anchor
        points = np.array([[0.5, 3.2], [0.0, 0.0], [0.5, 0.2], [0.0, 3.0]]) * tol
        weights = np.array([[0.125, 0.25, 0.5, 0.125]])
        merged_points, merged_weights = _merge_point_rows(points, weights, tol)
        np.testing.assert_array_equal(merged_points, points[[1, 3, 2, 0]])
        np.testing.assert_array_equal(merged_weights, [[0.25, 0.125, 0.5, 0.125]])

    def test_bitwise_equal_to_the_walk_on_convolve_inputs(self):
        rng = Xoshiro256(18)
        walked = clean = 0
        for _ in range(25):
            states = rand_states(rng, rng.randint(2, 4))
            da = llr_distribution(rand_experiment(rng, states, rng.randint(2, 5)))
            db = llr_distribution(rand_experiment(rng, states, rng.randint(2, 5)))
            ka, kb = da.n_atoms, db.n_atoms
            points = (da.atoms[:, None, :] + db.atoms[None, :, :]).reshape(ka * kb, -1)
            weights = (da.weights[:, :, None] * db.weights[:, None, :]).reshape(
                states.n, ka * kb
            )
            # the merge tolerance, and coarser ones under which atoms chain
            for tol in (LLR_MERGE_TOL, 0.02, 0.1, 0.4):
                jitter = np.array(
                    [[rng.uniform_in(-0.4, 0.4) * tol for _ in row] for row in points]
                )
                for pts in (points, points + jitter):
                    got = _merge_point_rows(pts, weights, tol)
                    want = _walk_merge(pts, weights, tol)
                    assert _same_bits(got[0], want[0])
                    assert _same_bits(got[1], want[1])
                    if want[0].shape[0] > _first_coordinate_segments(pts, tol):
                        walked += 1
                    else:
                        clean += 1
        # the corpus reaches both the vectorised path and the walk
        assert walked > 0 and clean > 0


def _abs_moment_profile(mu):
    """z -> E|p - z| evaluated at every posterior atom, uniform prior."""
    w = mu.probs.mean(axis=0)
    p = 0.5 * mu.probs[0] / w
    kinks = np.concatenate([[0.0], np.sort(p), [1.0]])

    def at(z):
        return float(np.sum(w * np.abs(p - z)))

    return p, w, kinks, at


def _two_state_margin(mu, nu):
    """min over kinks of E_mu|p - z| - E_nu|p - z|; >= 0 iff mu dominates."""
    p_a, w_a, kinks_a, f_a = _abs_moment_profile(mu)
    p_b, w_b, kinks_b, f_b = _abs_moment_profile(nu)
    zs = np.concatenate([kinks_a, kinks_b])
    return min(f_a(z) - f_b(z) for z in zs)


class TestBlackwellDominance:
    def test_reflexive(self):
        mu = binary_experiment(0.8)
        assert blackwell_dominates(mu, mu)

    def test_garbling_implies_dominance(self):
        rng = Xoshiro256(18)
        for _ in range(20):
            states = rand_states(rng, rng.randint(2, 4))
            mu = rand_experiment(rng, states, rng.randint(2, 4))
            m = rng.randint(2, 4)
            g = np.array(
                [
                    [rng.uniform_in(0.05, 1.0) for _ in range(m)]
                    for _ in range(mu.n_signals)
                ]
            )
            g /= g.sum(axis=1, keepdims=True)
            nu = garble(mu, GarblingMatrix(g))
            assert blackwell_dominates(mu, nu)
            # strictly cheaper experiments cannot dominate pricier ones
            beta = constant_betas(states, 1.0)
            if llr_cost(mu, beta) > llr_cost(nu, beta) + 1e-6:
                assert not blackwell_dominates(nu, mu)

    def test_two_state_oracle_agreement(self):
        rng = Xoshiro256(19)
        states = StateSpace(("H", "L"))
        checked = both = 0
        for _ in range(250):
            mu = rand_experiment(rng, states, rng.randint(2, 5))
            nu = rand_experiment(rng, states, rng.randint(2, 5))
            margin = _two_state_margin(mu, nu)
            if abs(margin) <= 1e-6:
                continue  # too close to the LP tolerance to score
            checked += 1
            assert blackwell_dominates(mu, nu) is (margin > 0)
            if margin > 0:
                both += 1
        assert checked >= 150  # the corpus must actually exercise the oracle

    def test_uninformative_is_dominated_by_everything(self):
        rng = Xoshiro256(20)
        states = StateSpace(("H", "L"))
        null = uninformative_experiment(states)
        for _ in range(10):
            mu = rand_experiment(rng, states, rng.randint(2, 4))
            assert blackwell_dominates(mu, null)


class TestJsonRoundTrip:
    def test_preserves_everything(self):
        rng = Xoshiro256(21)
        states = StateSpace(("a", "b", "c"), (0.0, 1.5, 4.0))
        mu = rand_experiment(rng, states, 4)
        back = experiment_from_json(experiment_to_json(mu))
        assert back.states == mu.states
        assert back.signals == mu.signals
        np.testing.assert_array_equal(back.probs, mu.probs)

    def test_tuple_signals_survive(self):
        a = binary_experiment(0.8)
        ab = product(a, a)
        back = experiment_from_json(experiment_to_json(ab))
        assert back.signals == ab.signals

    def test_missing_key_raises(self):
        obj = experiment_to_json(binary_experiment(0.8))
        del obj["probs"]
        with pytest.raises(ValidationError):
            experiment_from_json(obj)
