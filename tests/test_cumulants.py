"""Moment and cumulant machinery.

The conversion code runs the moment-cumulant recursion, so the tests
check it against the formula it claims to equal: the alternating sum over
ordered collections of multi-indices, evaluated in exact rational
arithmetic.  Cumulants are additionally checked against a high-precision
numerical differentiation of the cumulant generating function, which
knows nothing about either implementation.  The whole-array kernels are
held to the bits of plain per-index loops, kept here as the reference.
"""

import importlib
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from infocost import (
    CumulantVector,
    FiniteDistribution,
    MomentVector,
    binary_experiment,
    convolve,
    cumulants,
    cumulants_to_moments,
    enumerate_lambda,
    finite_distribution,
    finite_distribution_from_llr,
    lambda_count,
    llr_distribution,
    moments,
    moments_to_cumulants,
    multi_indices,
)
from infocost.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IncompleteInput,
    ValidationError,
)

LN4 = math.log(4.0)
# the submodule; the package's `cumulants` name is the function
CUMULANTS = importlib.import_module("infocost.cumulants")


def _mfact(alpha):
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _dyadic_dist():
    """Atoms and weights exactly representable, so package moments are
    exact and can seed the rational oracles."""
    atoms = [
        [Fraction(1, 2), Fraction(-1, 4)],
        [Fraction(1), Fraction(1, 2)],
        [Fraction(-1, 2), Fraction(3, 4)],
    ]
    weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    return atoms, weights


def _frac_moments(atoms, weights, dim, order):
    vals = {}
    for alpha in multi_indices(dim, order):
        total = Fraction(0)
        for x, w in zip(atoms, weights):
            term = w
            for d, e in enumerate(alpha):
                term *= x[d] ** e
            total += term
        vals[alpha] = total
    return vals


def _literal_moments_to_cumulant(mom, alpha):
    """kappa(alpha) = sum over ordered collections (l1..lq) of
    (-1)^(q-1)/q * alpha!/(l1!...lq!) * m(l1)...m(lq)."""
    total = Fraction(0)
    for lam in enumerate_lambda(alpha):
        q = len(lam)
        term = Fraction((-1) ** (q - 1), q) * _mfact(alpha)
        for part in lam:
            term = term * mom[part] / _mfact(part)
        total += term
    return total


def _literal_cumulants_to_moment(kap, alpha):
    """m(alpha) = sum over ordered collections of
    1/q! * alpha!/(l1!...lq!) * kappa(l1)...kappa(lq)."""
    total = Fraction(0)
    for lam in enumerate_lambda(alpha):
        q = len(lam)
        term = Fraction(1, math.factorial(q)) * _mfact(alpha)
        for part in lam:
            term = term * kap[part] / _mfact(part)
        total += term
    return total


class TestMultiIndices:
    def test_small_box_in_lexicographic_order(self):
        assert multi_indices(2, 2) == [
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (2, 2),
        ]

    def test_box_size(self):
        assert len(multi_indices(3, 4)) == 5**3 - 1

    def test_caps(self):
        with pytest.raises(DimensionTooLarge):
            multi_indices(5, 2)
        with pytest.raises(DimensionTooLarge):
            multi_indices(2, 5)
        with pytest.raises(DimensionTooLarge):
            multi_indices(2, 0)


# a double whose sum of three, divided by 3, is itself again
THIRDS_EXACT = 1.5 * 2.0**1023


class TestFiniteDistribution:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            FiniteDistribution(np.array([[0.0], [1.0]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            FiniteDistribution(np.array([[0.0], [1.0]]), np.array([0.7, 0.7]))
        with pytest.raises(ValidationError):
            FiniteDistribution(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
        with pytest.raises(ValidationError):
            FiniteDistribution(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))
        # more points than weights, and more weights than points
        with pytest.raises(DimensionMismatch):
            finite_distribution([[0.0], [1.0], [2.0]], [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            finite_distribution([[0.0], [1.0], [2.0]], [0.3, 0.3, 0.4, 0.0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FiniteDistribution([[0.0, 1.0], [2.0]], [0.5, 0.5]),
            lambda: FiniteDistribution([["x"], ["y"]], [0.5, 0.5]),
            lambda: finite_distribution([[0.0, 1.0], [2.0]], [0.5, 0.5]),
            lambda: finite_distribution([["x"], ["y"]], [0.5, 0.5]),
            lambda: finite_distribution_from_llr(
                llr_distribution(binary_experiment(0.8)), 0.5
            ),
            # no coordinates, and no points: unchecked, the merge's sort
            # and anchor raise TypeError and IndexError
            lambda: finite_distribution([[]], [1.0]),
            lambda: finite_distribution(np.zeros((0, 2)), []),
        ],
        ids=[
            "ragged",
            "not-numeric",
            "merged-ragged",
            "merged-not-numeric",
            "llr",
            "merged-no-coordinates",
            "merged-no-points",
        ],
    )
    def test_out_of_model_input_raises_validation_error(self, build):
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("col", [0, 1], ids=["first", "later"])
    def test_non_finite_point_raises_before_the_merge(self, bad, col):
        points = [[0.0, 1.0], [2.0, 3.0], [2.0, 4.0]]
        points[1][col] = points[2][col] = bad
        with pytest.raises(ValidationError, match="non-finite atom"):
            finite_distribution(points, [0.25, 0.25, 0.5])

    @pytest.mark.parametrize(
        "points, weights, atoms, merged",
        [
            ([[-1e308], [1e308]], [0.5, 0.5], [[-1e308], [1e308]], [0.5, 0.5]),
            ([[1.5e308], [1.5e308]], [0.5, 0.5], [[1.5e308]], [1.0]),
            (
                [[THIRDS_EXACT, -THIRDS_EXACT]] * 3 + [[0.0, 1.0]],
                [0.25] * 4,
                [[0.0, 1.0], [THIRDS_EXACT, -THIRDS_EXACT]],
                [0.25, 0.75],
            ),
        ],
        ids=["gap-past-the-range", "pair-sum-past-it", "triple-sum-past-it"],
    )
    def test_points_across_the_double_range_merge_without_warnings(
        self, points, weights, atoms, merged
    ):
        # the gap test and a group's sum pass the range; the group mean does not
        d = finite_distribution(points, weights)
        np.testing.assert_array_equal(d.atoms, atoms)
        np.testing.assert_array_equal(d.weights, merged)

    def test_constructor_merges_nearby_points(self):
        d = finite_distribution([[1.0], [1.0 + 1e-15], [2.0]], [0.3, 0.3, 0.4])
        assert d.n_atoms == 2
        i = int(np.argmin(np.abs(d.atoms[:, 0] - 1.0)))
        assert d.weights[i] == pytest.approx(0.6, abs=1e-15)

    def test_from_llr_picks_the_state_row(self):
        sigma = llr_distribution(binary_experiment(0.8))
        d0 = finite_distribution_from_llr(sigma, 0)
        d1 = finite_distribution_from_llr(sigma, 1)
        np.testing.assert_allclose(d0.atoms, [[-LN4], [LN4]], rtol=1e-14)
        np.testing.assert_allclose(d0.weights, [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(d1.weights, [0.2, 0.8], atol=1e-15)
        with pytest.raises(ValidationError):
            finite_distribution_from_llr(sigma, 2)

    def test_llr_first_moment_is_signed_divergence(self):
        # E_0[xi] = -KL(mu_0 || mu_1) for the 0.8 coin
        sigma = llr_distribution(binary_experiment(0.8))
        m0 = moments(finite_distribution_from_llr(sigma, 0), 1)
        m1 = moments(finite_distribution_from_llr(sigma, 1), 1)
        assert m0[(1,)] == pytest.approx(-0.6 * LN4, rel=1e-12)
        assert m1[(1,)] == pytest.approx(0.6 * LN4, rel=1e-12)


class TestConvolve:
    def test_pairwise_sums_with_merge(self):
        a = finite_distribution([[-1.0], [1.0]], [0.5, 0.5])
        s = convolve(a, a)
        order = np.argsort(s.atoms[:, 0])
        np.testing.assert_allclose(s.atoms[order, 0], [-2.0, 0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(s.weights[order], [0.25, 0.5, 0.25], atol=1e-12)

    def test_mean_and_variance_add(self):
        a = finite_distribution([[0.0], [1.0], [3.0]], [0.2, 0.5, 0.3])
        b = finite_distribution([[-1.0], [2.0]], [0.6, 0.4])
        ka = cumulants(a, 2)
        kb = cumulants(b, 2)
        ks = cumulants(convolve(a, b), 2)
        assert ks[(1,)] == pytest.approx(ka[(1,)] + kb[(1,)], rel=1e-12)
        assert ks[(2,)] == pytest.approx(ka[(2,)] + kb[(2,)], rel=1e-12)

    def test_dimension_mismatch(self):
        a = finite_distribution([[0.0], [1.0]], [0.5, 0.5])
        b = finite_distribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            convolve(a, b)

    def test_sums_past_the_double_range_refuse_without_warnings(self):
        # 1e308 + 1e308 overflows; the suite turns a RuntimeWarning into an error
        a = FiniteDistribution([[1e308], [0.0]], [0.5, 0.5])
        with pytest.raises(ValidationError, match="non-finite atoms"):
            convolve(a, a)


class TestLambdaEnumeration:
    def test_frozen_small_cases(self):
        assert enumerate_lambda((2,)) == (((2,),), ((1,), (1,)))
        assert lambda_count((2,)) == 2
        assert lambda_count((1, 1)) == 3

    def test_univariate_counts_are_compositions(self):
        # ordered collections of positive integers summing to n: 2^(n-1)
        for n in (1, 2, 3, 4):
            assert lambda_count((n,)) == 2 ** (n - 1)

    def test_all_ones_counts_are_ordered_set_partitions(self):
        # parts are nonempty subsets of coordinates, ordered: Fubini numbers
        assert lambda_count((1, 1)) == 3
        assert lambda_count((1, 1, 1)) == 13
        assert lambda_count((1, 1, 1, 1)) == 75

    def test_enumeration_matches_count(self):
        for alpha in [(3,), (4,), (2, 1), (2, 2), (1, 1, 2)]:
            lams = enumerate_lambda(alpha)
            assert len(lams) == lambda_count(alpha)
            assert len(set(lams)) == len(lams)
            for lam in lams:
                assert all(any(part) for part in lam)
                total = tuple(sum(col) for col in zip(*lam))
                assert total == alpha

    def test_enumeration_cap(self):
        assert lambda_count((4, 4, 4, 4)) > 2_000_000
        with pytest.raises(DimensionTooLarge):
            enumerate_lambda((4, 4, 4, 4))

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            lambda_count((0, 0))
        with pytest.raises(ValidationError):
            lambda_count((-1, 2))
        with pytest.raises(DimensionTooLarge):
            lambda_count((5,))
        with pytest.raises(DimensionTooLarge):
            lambda_count((1,) * 5)


class TestMoments:
    def test_exact_on_dyadic_atoms(self):
        atoms, weights = _dyadic_dist()
        d = finite_distribution(
            [[float(x) for x in row] for row in atoms],
            [float(w) for w in weights],
        )
        got = moments(d, 3)
        want = _frac_moments(atoms, weights, 2, 3)
        for alpha in multi_indices(2, 3):
            assert got[alpha] == float(want[alpha])

    def test_rejects_out_of_box_order(self):
        d = finite_distribution([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(DimensionTooLarge):
            moments(d, 5)

    def test_vector_requires_complete_box(self):
        with pytest.raises(IncompleteInput):
            MomentVector(1, 2, {(1,): 0.5})


class TestConversions:
    def test_matches_literal_alternating_sum(self):
        atoms, weights = _dyadic_dist()
        d = finite_distribution(
            [[float(x) for x in row] for row in atoms],
            [float(w) for w in weights],
        )
        mom = _frac_moments(atoms, weights, 2, 3)
        got = moments_to_cumulants(moments(d, 3))
        for alpha in multi_indices(2, 3):
            want = _literal_moments_to_cumulant(mom, alpha)
            assert got[alpha] == pytest.approx(float(want), rel=1e-12, abs=1e-13)

    def test_inverse_matches_literal_exponential_sum(self):
        kap = {
            alpha: Fraction(numer, 4)
            for alpha, numer in zip(multi_indices(2, 3), range(-7, 100))
        }
        vec = CumulantVector(2, 3, {a: float(v) for a, v in kap.items()})
        got = cumulants_to_moments(vec)
        for alpha in multi_indices(2, 3):
            want = _literal_cumulants_to_moment(kap, alpha)
            assert got[alpha] == pytest.approx(float(want), rel=1e-12, abs=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for dim, order in [(1, 4), (2, 3), (3, 2), (4, 2), (3, 4), (4, 4)]:
            k = rng.integers(3, 6)
            d = finite_distribution(
                rng.normal(size=(k, dim)), np.full(k, 1.0 / k)
            )
            m = moments(d, order)
            back = cumulants_to_moments(moments_to_cumulants(m))
            for alpha in multi_indices(dim, order):
                assert back[alpha] == pytest.approx(
                    m[alpha], rel=1e-10, abs=1e-12
                )

    def test_first_two_orders_are_mean_and_variance(self):
        d = finite_distribution([[0.0], [1.0], [4.0]], [0.5, 0.3, 0.2])
        k = cumulants(d, 2)
        mean = 0.3 + 0.8
        var = 0.5 * mean**2 + 0.3 * (1 - mean) ** 2 + 0.2 * (4 - mean) ** 2
        assert k[(1,)] == pytest.approx(mean, rel=1e-14)
        assert k[(2,)] == pytest.approx(var, rel=1e-13)


class TestBernoulli:
    """Closed forms for the coin: kappa_1 = p, kappa_2 = p(1-p),
    kappa_3 = p(1-p)(1-2p), kappa_4 = p(1-p)(1-6p+6p^2)."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.77])
    def test_closed_forms(self, p):
        d = finite_distribution([[0.0], [1.0]], [1.0 - p, p])
        k = cumulants(d, 4)
        v = p * (1 - p)
        assert k[(1,)] == pytest.approx(p, rel=1e-12)
        assert k[(2,)] == pytest.approx(v, rel=1e-12)
        assert k[(3,)] == pytest.approx(v * (1 - 2 * p), rel=1e-11, abs=1e-13)
        assert k[(4,)] == pytest.approx(
            v * (1 - 6 * p + 6 * p * p), rel=1e-11, abs=1e-13
        )


def _cgf_reference(atoms, weights, alpha):
    """d^alpha log E[exp(t . X)] at t = 0, via 50-digit differentiation."""
    with mp.workdps(50):

        def cgf(*t):
            acc = mp.mpf(0)
            for x, w in zip(atoms, weights):
                acc += w * mp.e ** mp.fsum(
                    ti * xi for ti, xi in zip(t, x)
                )
            return mp.log(acc)

        return float(mp.diff(cgf, (0,) * len(alpha), alpha))


class TestGeneratingFunctionOracle:
    def test_univariate_against_numerical_cgf(self):
        atoms = [[-0.5], [0.25], [1.5]]
        weights = [0.3, 0.45, 0.25]
        d = finite_distribution(atoms, weights)
        k = cumulants(d, 4)
        for order in range(1, 5):
            want = _cgf_reference(atoms, weights, (order,))
            assert k[(order,)] == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_bivariate_against_numerical_cgf(self):
        atoms = [[0.0, 1.0], [1.0, -0.5], [-1.0, 0.5], [0.5, 0.25]]
        weights = [0.25, 0.35, 0.2, 0.2]
        d = finite_distribution(atoms, weights)
        k = cumulants(d, 3)
        for alpha in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 0), (2, 2)]:
            if max(alpha) > 3:
                continue
            want = _cgf_reference(atoms, weights, alpha)
            assert k[alpha] == pytest.approx(want, rel=1e-8, abs=1e-10)


class TestAdditivity:
    def test_cumulants_add_under_convolution(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            order = int(rng.integers(2, 5)) if dim < 3 else 2
            ka_atoms = rng.normal(size=(int(rng.integers(2, 5)), dim))
            kb_atoms = rng.normal(size=(int(rng.integers(2, 5)), dim))
            wa = rng.uniform(0.1, 1.0, size=ka_atoms.shape[0])
            wb = rng.uniform(0.1, 1.0, size=kb_atoms.shape[0])
            a = finite_distribution(ka_atoms, wa / wa.sum())
            b = finite_distribution(kb_atoms, wb / wb.sum())
            ka = cumulants(a, order)
            kb = cumulants(b, order)
            ks = cumulants(convolve(a, b), order)
            for alpha in multi_indices(dim, order):
                assert ks[alpha] == pytest.approx(
                    ka[alpha] + kb[alpha], rel=1e-9, abs=1e-10
                )


def _scalar_moments(dist, order):
    """m(alpha) one index at a time: the product over the non-zero
    exponents, then one dot with the weights."""
    powers = [
        np.vander(dist.atoms[:, d], order + 1, increasing=True)
        for d in range(dist.dim)
    ]
    vals = {}
    for alpha in multi_indices(dist.dim, order):
        prod = np.ones(dist.n_atoms)
        for d, e in enumerate(alpha):
            if e:
                prod = prod * powers[d][:, e]
        vals[alpha] = float(np.dot(dist.weights, prod))
    return vals


def _scalar_terms(alpha):
    """(beta, alpha - beta, coefficient) of alpha's recursion, beta != alpha,
    beta in lexicographic order."""
    d = max(j for j, a in enumerate(alpha) if a)
    axes = [
        [(b, a - b, math.comb(a - (j == d), b - (j == d)))
         for b in range(j == d, a + 1)]
        for j, a in enumerate(alpha)
    ]
    for parts in itertools.product(*axes):
        beta, rest, coefs = zip(*parts)
        if any(rest):
            yield beta, rest, float(math.prod(coefs))


def _scalar_moments_to_cumulants(mv, dim, order):
    k = {}
    for alpha in multi_indices(dim, order):
        s = 0.0
        for b, r, c in _scalar_terms(alpha):
            s += c * k[b] * mv[r]
        k[alpha] = mv[alpha] - s
    return k


def _scalar_cumulants_to_moments(kv, dim, order):
    m = {}
    for alpha in multi_indices(dim, order):
        s = 0.0
        for b, r, c in _scalar_terms(alpha):
            s += c * kv[b] * m[r]
        m[alpha] = kv[alpha] + s
    return m


def _bits(vals):
    return {alpha: float(v).hex() for alpha, v in vals.items()}


class TestScalarReference:
    """Same bits as the per-index loops, sums taken left to right."""

    @pytest.mark.parametrize(
        "dim, order", [(d, o) for d in (1, 2, 3, 4) for o in (1, 2, 3, 4)]
    )
    def test_kernels_match_scalar_loops(self, dim, order, monkeypatch):
        rng = np.random.default_rng([dim, order])
        three = rng.uniform(-0.6, 0.6, size=(3, dim))
        origin = np.vstack([np.zeros(dim), rng.uniform(-2.0, 2.0, size=(4, dim))])
        many = rng.uniform(-1.0, 1.0, size=(40, dim))
        # a point mass whose odd powers are -0.0
        point = np.array([[-0.0] * (dim - 1) + [-0.5]])
        for atoms in (three, origin, many, point):
            w = rng.uniform(0.1, 1.0, atoms.shape[0])
            d = finite_distribution(atoms, w / w.sum())
            want = _scalar_moments(d, order)
            # whole table, a few rows per block, and one row per block
            for block in (CUMULANTS.TABLE_BLOCK, 4 * atoms.shape[0], 1):
                monkeypatch.setattr(CUMULANTS, "TABLE_BLOCK", block)
                m = moments(d, order)
                assert _bits(m.values) == _bits(want)
            k = moments_to_cumulants(m)
            assert _bits(k.values) == _bits(
                _scalar_moments_to_cumulants(m.values, dim, order)
            )
            back = cumulants_to_moments(k)
            assert _bits(back.values) == _bits(
                _scalar_cumulants_to_moments(k.values, dim, order)
            )
        # cumulants of mixed signs over six decades
        box = multi_indices(dim, order)
        signs = rng.choice([-1.0, 1.0], len(box))
        kv = dict(zip(box, signs * 10.0 ** rng.uniform(-3, 3, len(box))))
        got = cumulants_to_moments(CumulantVector(dim, order, kv))
        assert _bits(got.values) == _bits(
            _scalar_cumulants_to_moments(kv, dim, order)
        )

    @pytest.mark.parametrize(
        "dim, order", [(d, o) for d in (1, 2, 3, 4) for o in (1, 2, 3, 4)]
    )
    def test_plan_lists_the_scalar_terms(self, dim, order):
        # each column holds its alpha's terms in the scalar loop's order
        # between padding rows: random values can miss a reordered term,
        # this list cannot
        plan = CUMULANTS._plan(dim, order)
        box, pad = plan.box, len(plan.box)
        columns = []
        for tgt, B, R, C in plan.grades:
            for i, pos in enumerate(tgt.tolist()):
                want = list(_scalar_terms(box[pos]))
                k = len(want)
                got = zip(B[1 : k + 1, i], R[1 : k + 1, i], C[1 : k + 1, i])
                assert [(box[b], box[r], c) for b, r, c in got] == want
                padding = np.r_[0, k + 1 : B.shape[0]]
                assert (B[padding, i] == pad).all() and (R[padding, i] == pad).all()
                assert (C[padding, i] == 0.0).all()
                columns.append(pos)
        # one column for every alpha of grade 2 and above, none for grade 1
        assert sorted(columns) == [p for p, a in enumerate(box) if sum(a) >= 2]

    def test_moments_of_more_atoms_than_one_block(self):
        # 2,000 atoms at 625 grid rows exceed the block, so the table is
        # built 125 rows at a time
        rng = np.random.default_rng(2000)
        atoms = rng.uniform(-1.0, 1.0, size=(2000, 4))
        assert 625 * 2000 > CUMULANTS.TABLE_BLOCK
        d = finite_distribution(atoms, np.full(2000, 1 / 2000))
        assert _bits(moments(d, 4).values) == _bits(_scalar_moments(d, 4))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_signed_zeros_follow_the_scalar_sums(self, dim):
        # zeros of mixed sign make terms of -0.0, and a sum of them started
        # from +0.0 is +0.0, not -0.0
        rng = np.random.default_rng(dim)
        box = multi_indices(dim, 3)
        zeros = dict(zip(box, rng.choice([-0.0, 0.0], len(box))))
        got = moments_to_cumulants(MomentVector(dim, 3, zeros))
        assert _bits(got.values) == _bits(_scalar_moments_to_cumulants(zeros, dim, 3))
        got = cumulants_to_moments(CumulantVector(dim, 3, zeros))
        assert _bits(got.values) == _bits(_scalar_cumulants_to_moments(zeros, dim, 3))


class TestVectorValidation:
    def test_names_the_first_missing_index(self):
        box = multi_indices(2, 2)
        vals = {alpha: 1.0 for alpha in reversed(box) if alpha not in {(0, 2), (1, 1)}}
        with pytest.raises(IncompleteInput, match=r"missing index \(0, 2\)"):
            MomentVector(2, 2, vals)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_its_index(self, bad):
        vals = {alpha: 0.5 for alpha in multi_indices(2, 2)}
        vals[(1, 2)] = bad
        vals[(2, 0)] = bad
        with pytest.raises(ValidationError, match=r"non-finite value at \(1, 2\)"):
            MomentVector(2, 2, vals)

    def test_overflow_in_a_conversion_is_refused(self):
        vals = {alpha: 1e200 for alpha in multi_indices(2, 3)}
        with pytest.raises(ValidationError, match="non-finite value"):
            cumulants_to_moments(CumulantVector(2, 3, vals))
        # and in moments, where (1e308)^2 passes the range, without a warning
        d = FiniteDistribution([[-1e308], [1e308]], [0.5, 0.5])
        with pytest.raises(ValidationError, match=r"non-finite value at \(2,\)"):
            moments(d, 2)

    def test_other_real_types_are_accepted(self):
        m = MomentVector(1, 2, {(1,): Fraction(1, 2), (2,): 1})
        assert moments_to_cumulants(m)[(2,)] == 0.75

    def test_numpy_floats_are_accepted(self):
        m = MomentVector(1, 2, {(1,): np.float64(0.5), (2,): 1})
        assert moments_to_cumulants(m)[(2,)] == 0.75
        # a 0-d array too, as in every other array field
        m = MomentVector(1, 2, {(1,): np.array(0.5), (2,): np.array(1)})
        assert moments_to_cumulants(m)[(2,)] == 0.75

    def test_values_are_kept_as_one_read_only_array(self):
        # box order, then the 0.0 that the plan's padded terms read
        box = multi_indices(2, 2)
        m = MomentVector(2, 2, {alpha: Fraction(i, 4) for i, alpha in enumerate(box)})
        np.testing.assert_array_equal(m._x, [i / 4 for i in range(len(box))] + [0.0])
        with pytest.raises(ValueError, match="read-only"):
            m._x[0] = 1.0
        assert m[(0, 1)] == Fraction(0, 4)  # values keep what they were given

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bools_are_refused(self, flag):
        with pytest.raises(ValidationError, match=r"value at \(1,\) = .* is not a real number"):
            MomentVector(1, 2, {(1,): flag, (2,): 1.0})

    def test_multi_indices_returns_a_fresh_list(self):
        first = multi_indices(2, 2)
        first.clear()
        assert len(multi_indices(2, 2)) == 8
        MomentVector(2, 2, {alpha: 0.0 for alpha in multi_indices(2, 2)})
        with pytest.raises(IncompleteInput):
            MomentVector(2, 2, {(0, 1): 0.0})
