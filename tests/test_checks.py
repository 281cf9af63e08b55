"""Property-suite plumbing: suites pass on healthy code, replay
deterministically, and actually report violations when the cost they
test is sabotaged."""

import hashlib

import numpy as np
import pytest

from conftest import (
    rand_beta,
    rand_experiment,
    rand_prior,
    rand_problem,
    rand_rule,
    rand_states,
    rand_valued_states,
)
from test_acceptance import _rand_dist

from infocost import PropertyResult, checks, llr_cost, run_suite
from infocost.checks import (
    _rand_beta,
    _rand_distribution,
    _rand_experiment,
    _rand_garbling,
    _rand_prior,
    _rand_states,
)
from infocost.errors import ValidationError
from infocost.rng import Xoshiro256

AXIOM_NAMES = (
    "product_additivity",
    "dilution_linearity",
    "blackwell_monotonicity",
    "column_split_invariance",
    "posterior_representation",
    "garbling_dominance",
)
APPENDIX_NAMES = (
    "cumulant_additivity",
    "moment_cumulant_round_trip",
    "self_convolution_scaling",
    "llr_moment_consistency",
)


class TestPropertyResult:
    def test_passed_compares_deviation_to_bound(self):
        assert PropertyResult("x", 10, 1e-12, 1e-10).passed
        assert not PropertyResult("x", 10, 1e-9, 1e-10).passed


class TestRunSuite:
    def test_axioms_pass(self):
        results = run_suite("axioms", seed=5, trials=60)
        assert tuple(r.name for r in results) == AXIOM_NAMES
        for r in results:
            assert r.passed, f"{r.name}: {r.max_deviation} vs {r.bound}"

    def test_appendix_passes(self):
        results = run_suite("appendix", seed=5, trials=60)
        assert tuple(r.name for r in results) == APPENDIX_NAMES
        for r in results:
            assert r.passed, f"{r.name}: {r.max_deviation} vs {r.bound}"

    def test_all_is_both_in_order(self):
        results = run_suite("all", seed=1, trials=25)
        assert tuple(r.name for r in results) == AXIOM_NAMES + APPENDIX_NAMES

    def test_trials_are_recorded(self):
        results = run_suite("axioms", seed=0, trials=17)
        assert all(r.trials <= 17 for r in results)
        assert results[0].trials == 17

    def test_deterministic_replay(self):
        a = run_suite("all", seed=9, trials=30)
        b = run_suite("all", seed=9, trials=30)
        for ra, rb in zip(a, b):
            assert ra.name == rb.name
            assert ra.max_deviation == rb.max_deviation

    def test_seed_changes_the_draw(self):
        a = run_suite("axioms", seed=1, trials=40)
        b = run_suite("axioms", seed=2, trials=40)
        assert any(
            ra.max_deviation != rb.max_deviation for ra, rb in zip(a, b)
        )

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            run_suite("everything")


class TestFaultInjection:
    """A faulty pricer swapped in for `llr_cost` must surface as a reported
    violation: the suite tests the package's own cost, and its reporting."""

    def test_corrupted_coefficients_fail_monotonicity(self, monkeypatch):
        # negating every coefficient negates the cost, so garbling pays
        monkeypatch.setattr(checks, "llr_cost", lambda mu, beta: -llr_cost(mu, beta))
        results = run_suite("axioms", seed=3, trials=80)
        by_name = {r.name: r for r in results}
        assert not by_name["blackwell_monotonicity"].passed

    def test_nan_coefficient_fails_monotonicity(self, monkeypatch):
        # a NaN deviation must survive the running maximum, not be dropped
        monkeypatch.setattr(checks, "llr_cost", lambda mu, beta: np.nan)
        results = run_suite("axioms", seed=3, trials=20)
        mono = {r.name: r for r in results}["blackwell_monotonicity"]
        assert np.isnan(mono.max_deviation)
        assert not mono.passed


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _draws(name, rng):
    # the arrays of one instance of each seeded generator, by name
    if name == "checks.experiment":
        states = _rand_states(rng, rng.randint(2, 4))
        return [_rand_experiment(rng, states).probs]
    if name == "checks.beta":
        return [_rand_beta(rng, _rand_states(rng, 3)).coef]
    if name == "checks.garbling":
        return [_rand_garbling(rng, rng.randint(2, 4), rng.randint(2, 4)).probs]
    if name == "checks.prior":
        return [_rand_prior(rng, 4)]
    if name == "checks.distribution":
        d = _rand_distribution(rng, rng.randint(1, 2))
        return [d.atoms, d.weights]
    if name == "tests.experiment":
        return [rand_experiment(rng, rand_states(rng, 3), 4).probs]
    if name == "tests.prior":
        return [rand_prior(rng, 3)]
    if name == "tests.beta":
        return [rand_beta(rng, rand_states(rng, 3)).coef]
    if name == "tests.problem":
        p = rand_problem(rng, 3, 2)
        return [p.utility, p.prior]
    if name == "tests.rule":
        return [rand_rule(rng, 3, 4).probs]
    if name == "tests.valued_states":
        return [rand_valued_states(rng, 4).values]
    if name == "tests.acceptance_distribution":
        d = _rand_dist(rng, rng.randint(1, 3))
        return [d.atoms, d.weights]
    raise KeyError(name)


# sha256 prefixes of the first five instances of each generator, drawn in
# one stream from Xoshiro256(seed)
DRAW_DIGESTS = {
    "checks.experiment": (501, "33f1fa03764e2501"),
    "checks.beta": (502, "82f506bc8a5303ac"),
    "checks.garbling": (503, "1a02191ef648e33b"),
    "checks.prior": (504, "d78cdf142b99776d"),
    "checks.distribution": (505, "a8e6fff60e815d8d"),
    "tests.experiment": (506, "fd8d1a7908e0e069"),
    "tests.prior": (507, "cabac17cf1f4a8b7"),
    "tests.beta": (508, "50e4a0ae4b263c86"),
    "tests.problem": (509, "afa70fd3428538cd"),
    "tests.rule": (510, "b82aa561f7701bff"),
    "tests.valued_states": (511, "71a4ea244759543a"),
    "tests.acceptance_distribution": (512, "d2cd8d20e345a17e"),
}

# run_suite("all", seed=0, trials=20), property by property, as float.hex
SUITE_DEVIATIONS = (
    ("product_additivity", "0x1.07f9a2c5f4135p-52"),
    ("dilution_linearity", "0x1.18761ad46702ep-52"),
    ("blackwell_monotonicity", "0x0.0p+0"),
    ("column_split_invariance", "0x1.0000000000000p-49"),
    ("posterior_representation", "0x1.c770eba25d63dp-52"),
    ("garbling_dominance", "0x0.0p+0"),
    ("cumulant_additivity", "0x1.17c605592b6e3p-50"),
    ("moment_cumulant_round_trip", "0x1.8000000000000p-55"),
    ("self_convolution_scaling", "0x1.df84c1f34876dp-47"),
    ("llr_moment_consistency", "0x1.0000000000000p-49"),
)


class TestSeededDraws:
    """The seeded instance generators and the suite deviations replay the
    recorded values bit for bit: a refactor of the generators or of the
    cost kernels must leave every seeded sequence unchanged.  The
    deviations are rounding-level numbers recorded on x86-64 with numpy
    2.4; a platform whose log or matrix product rounds differently may need
    them recorded again."""

    @pytest.mark.parametrize("name", sorted(DRAW_DIGESTS))
    def test_first_draws_replay(self, name):
        seed, want = DRAW_DIGESTS[name]
        rng = Xoshiro256(seed)
        arrays = [a for _ in range(5) for a in _draws(name, rng)]
        assert _digest(arrays) == want

    @pytest.mark.parametrize(
        "seed, first",
        [
            (3.0, 0xB0CDABDAE5668CC0),
            (np.uint64(5), 0x49D55178CA54CF69),
            (-1, 0x8F5520D52A7EAD08),
            (2**70, 0x99EC5F36CB75F2B4),
        ],
        ids=["float-3", "uint64-5", "minus-1", "2**70"],
    )
    def test_integral_seeds_keep_their_streams(self, seed, first):
        # any integral real seeds as itself mod 2**64
        assert Xoshiro256(seed).next_u64() == first

    def test_suite_deviations_replay(self):
        got = tuple(
            (r.name, float.hex(r.max_deviation))
            for r in run_suite("all", seed=0, trials=20)
        )
        assert got == SUITE_DEVIATIONS
