"""Randomized property suites behind the `check` command.

Every property is one trial: it draws an instance from the package's own
seedable PRNG and yields that instance's deviation or deviations.
`run_suite` owns the rest from one table of (name, bound, trial cap,
trial): it runs the trials in order from one generator, so a (suite, seed,
trials) triple names one exact sequence of checks, and keeps the largest
deviation from 0.0 up.  A NaN deviation is kept as the result, so it fails
its bound; the command line turns any failure into a nonzero exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cumulants import (
    FiniteDistribution,
    convolve,
    cumulants,
    cumulants_to_moments,
    finite_distribution,
    finite_distribution_from_llr,
    moments,
    moments_to_cumulants,
    multi_indices,
)
from .costs import BetaMatrix, llr_cost, llr_cost_via_posteriors
from .errors import ValidationError, _integer
from .experiments import (
    Experiment,
    GarblingMatrix,
    StateSpace,
    blackwell_dominates,
    dilute,
    garble,
    llr_distribution,
    product,
)
from .rng import Xoshiro256


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    max_deviation: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.bound


def _rand_rows(rng: Xoshiro256, n: int, m: int, floor: float) -> np.ndarray:
    """n rows of m draws from [floor, 1), drawn row by row, each normalised.

    The one body behind every seeded experiment, garbling, prior and rule,
    here and in the test suite.
    """
    rows = np.array([[rng.uniform_in(floor, 1.0) for _ in range(m)] for _ in range(n)])
    return rows / rows.sum(axis=1, keepdims=True)


def _rand_states(rng: Xoshiro256, n: int) -> StateSpace:
    return StateSpace(tuple(f"s{i}" for i in range(n)))


def _rand_experiment(
    rng: Xoshiro256, states: StateSpace, max_signals: int = 5
) -> Experiment:
    m = rng.randint(2, max_signals)
    return Experiment(states, tuple(range(m)), _rand_rows(rng, states.n, m, 0.05))


def _rand_beta(rng: Xoshiro256, states: StateSpace) -> BetaMatrix:
    # draws the diagonal too, unlike the tests' rand_beta, so the two
    # seeded sequences differ and stay two functions
    n = states.n
    coef = np.array(
        [[rng.uniform_in(0.05, 2.0) for _ in range(n)] for _ in range(n)]
    )
    np.fill_diagonal(coef, 0.0)
    return BetaMatrix(states, coef)


def _rand_garbling(rng: Xoshiro256, m_in: int, m_out: int) -> GarblingMatrix:
    return GarblingMatrix(_rand_rows(rng, m_in, m_out, 0.01))


def _rand_prior(rng: Xoshiro256, n: int) -> np.ndarray:
    return _rand_rows(rng, 1, n, 0.1)[0]


def _rand_distribution(
    rng: Xoshiro256, dim: int, amplitude: float = 1.0, floor: float = 0.1
) -> FiniteDistribution:
    """2 to 4 atoms in [-amplitude, amplitude)^dim, weights from floor up."""
    k = rng.randint(2, 4)
    pts = np.array(
        [[rng.uniform_in(-amplitude, amplitude) for _ in range(dim)] for _ in range(k)]
    )
    return finite_distribution(pts, _rand_rows(rng, 1, k, floor)[0])


def _product_additivity(rng: Xoshiro256) -> Iterator[float]:
    states = _rand_states(rng, rng.randint(2, 4))
    mu = _rand_experiment(rng, states)
    nu = _rand_experiment(rng, states)
    beta = _rand_beta(rng, states)
    lhs = llr_cost(product(mu, nu), beta)
    rhs = llr_cost(mu, beta) + llr_cost(nu, beta)
    yield abs(lhs - rhs) / (1.0 + abs(rhs))


def _dilution_linearity(rng: Xoshiro256) -> Iterator[float]:
    states = _rand_states(rng, rng.randint(2, 4))
    mu = _rand_experiment(rng, states)
    beta = _rand_beta(rng, states)
    alpha = rng.uniform_in(0.05, 0.999)
    lhs = llr_cost(dilute(mu, alpha), beta)
    rhs = alpha * llr_cost(mu, beta)
    yield abs(lhs - rhs) / (1.0 + abs(rhs))


def _blackwell_monotonicity(rng: Xoshiro256) -> Iterator[float]:
    states = _rand_states(rng, rng.randint(2, 4))
    mu = _rand_experiment(rng, states)
    beta = _rand_beta(rng, states)
    g = _rand_garbling(rng, mu.n_signals, rng.randint(2, mu.n_signals + 1))
    base = llr_cost(mu, beta)
    garbled = llr_cost(garble(mu, g), beta)
    yield (garbled - base) / (1.0 + abs(base))


def _column_split_invariance(rng: Xoshiro256) -> Iterator[float]:
    # splitting one signal into two with state-independent proportions is a
    # garbling with a garbled inverse, so the cost must be unchanged
    states = _rand_states(rng, rng.randint(2, 4))
    mu = _rand_experiment(rng, states)
    beta = _rand_beta(rng, states)
    j = rng.randint(0, mu.n_signals - 1)
    t = rng.uniform_in(0.05, 0.95)
    split = np.eye(mu.n_signals, mu.n_signals + 1)
    split[j, j], split[j, -1] = t, 1.0 - t
    nu = garble(mu, GarblingMatrix(split))
    yield abs(llr_cost(nu, beta) - llr_cost(mu, beta))


def _posterior_representation(rng: Xoshiro256) -> Iterator[float]:
    states = _rand_states(rng, rng.randint(2, 4))
    mu = _rand_experiment(rng, states)
    beta = _rand_beta(rng, states)
    prior = _rand_prior(rng, states.n)
    direct = llr_cost(mu, beta)
    bayes = llr_cost_via_posteriors(mu, beta, prior)
    yield abs(direct - bayes) / (1.0 + abs(direct))


def _garbling_dominance(rng: Xoshiro256) -> Iterator[float]:
    # garbling can never increase informativeness, so dominance must hold
    states = _rand_states(rng, rng.randint(2, 3))
    mu = _rand_experiment(rng, states, max_signals=4)
    g = _rand_garbling(rng, mu.n_signals, rng.randint(2, mu.n_signals))
    nu = garble(mu, g)
    yield 0.0 if blackwell_dominates(mu, nu) else 1.0


def _cumulant_additivity(rng: Xoshiro256) -> Iterator[float]:
    dim = rng.randint(1, 2)
    a = _rand_distribution(rng, dim)
    b = _rand_distribution(rng, dim)
    ka = cumulants(a, 3)
    kb = cumulants(b, 3)
    kc = cumulants(convolve(a, b), 3)
    for alpha in multi_indices(dim, 3):
        dev = abs(kc[alpha] - ka[alpha] - kb[alpha])
        yield dev / (1.0 + abs(ka[alpha] + kb[alpha]))


def _moment_round_trip(rng: Xoshiro256) -> Iterator[float]:
    dim = rng.randint(1, 2)
    d = _rand_distribution(rng, dim)
    m = moments(d, 3)
    back = cumulants_to_moments(moments_to_cumulants(m))
    for alpha in multi_indices(dim, 3):
        yield abs(back[alpha] - m[alpha])


def _self_convolution_scaling(rng: Xoshiro256) -> Iterator[float]:
    d = _rand_distribution(rng, 1)
    k = rng.randint(2, 4)
    acc = d
    for _ in range(k - 1):
        acc = convolve(acc, d)
    k1 = cumulants(d, 3)
    kk = cumulants(acc, 3)
    for alpha in multi_indices(1, 3):
        dev = abs(kk[alpha] - k * k1[alpha])
        yield dev / (1.0 + abs(k * k1[alpha]))


def _llr_moment_consistency(rng: Xoshiro256) -> Iterator[float]:
    # moments of the log-likelihood-ratio vector under state i, computed
    # from the merged distribution, must match direct signal-space sums
    states = _rand_states(rng, rng.randint(2, 4))
    mu = _rand_experiment(rng, states)
    dist = llr_distribution(mu)
    xi = np.log(mu.probs[1:] / mu.probs[0]).T  # (signal, dim)
    dim = states.n - 1
    for i in range(states.n):
        fd = finite_distribution_from_llr(dist, i)
        mom = moments(fd, 2)
        for alpha in multi_indices(dim, 2):
            direct = float(
                np.dot(mu.probs[i], np.prod(xi ** np.array(alpha), axis=1))
            )
            yield abs(mom[alpha] - direct)


# (name, bound, trial cap, one trial); garbling_dominance is capped because
# each of its trials solves a small feasibility program
_AXIOMS = (
    ("product_additivity", 1e-10, None, _product_additivity),
    ("dilution_linearity", 1e-10, None, _dilution_linearity),
    ("blackwell_monotonicity", 1e-9, None, _blackwell_monotonicity),
    ("column_split_invariance", 1e-10, None, _column_split_invariance),
    ("posterior_representation", 1e-9, None, _posterior_representation),
    ("garbling_dominance", 0.5, 60, _garbling_dominance),
)
_APPENDIX = (
    ("cumulant_additivity", 1e-9, None, _cumulant_additivity),
    ("moment_cumulant_round_trip", 1e-10, None, _moment_round_trip),
    ("self_convolution_scaling", 1e-9, None, _self_convolution_scaling),
    ("llr_moment_consistency", 1e-9, None, _llr_moment_consistency),
)


def run_suite(suite: str, seed: int = 0, trials: int = 200) -> list[PropertyResult]:
    """Run the named property suite deterministically.

    suite is one of "axioms", "appendix", "all".  The same (suite, seed,
    trials) always produces the same instances and deviations.
    """
    if suite == "axioms":
        props = _AXIOMS
    elif suite == "appendix":
        props = _APPENDIX
    elif suite == "all":
        props = _AXIOMS + _APPENDIX
    else:
        raise ValidationError(f"suite {suite!r} not one of axioms, appendix, all")
    trials = _integer(trials, "trials", 1)
    rng = Xoshiro256(seed)
    results = []
    for name, bound, cap, trial in props:
        n = trials if cap is None else min(trials, cap)
        worst = 0.0
        for _ in range(n):
            for dev in trial(rng):
                if dev > worst or dev != dev:  # a NaN, once seen, stays
                    worst = dev
        results.append(PropertyResult(name, n, worst, bound))
    return results
