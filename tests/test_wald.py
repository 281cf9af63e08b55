"""Wald's identity as an exact oracle for the LLR cost of stopped experiments.

In state i a walk steps +1 with probability p_i and -1 otherwise, and stops
at the first time tau it reaches -b or +b, or at the horizon T.  Its signal
is the pair (position, time): that fixes the numbers of up and down steps,
so every path to a signal has the same likelihood ratio, and the signal is
as informative as the whole path.  By Wald's identity the stopped
experiment then has KL(mu_i || mu_j) = E_i[tau] KL(nu_i || nu_j), nu_i the
one-step law (p_i, 1 - p_i), so its cost is

    sum_ij beta_ij E_i[tau] KL(nu_i || nu_j).

The stopping law and E_i[tau] are exact in fractions, and the reference
is summed in 40-digit mpmath, so the only rounding left is the price's own.
Short horizons go through an Experiment; long ones have entries at or
below ENTRY_FLOOR, so they build the LLRDistribution directly.
"""

from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from conftest import rand_beta, rand_prior
from infocost import (
    Experiment,
    LLRDistribution,
    StateSpace,
    Xoshiro256,
    llr_cost,
    llr_cost_from_distribution,
    llr_cost_via_posteriors,
    llr_distribution,
)
from infocost.experiments import ENTRY_FLOOR

UPS = {
    "2 states": (F(1, 2), F(13, 20)),
    "4 states": (F(3, 10), F(1, 2), F(13, 20), F(4, 5)),
    "6 states": (F(1, 5), F(3, 10), F(9, 20), F(1, 2), F(13, 20), F(4, 5)),
}
TOL = 1e-14


def _stopping_counts(b, T):
    """{(x, t): number of paths from 0 that first reach x = -b or +b at
    step t, or stay strictly inside and end at x at step t = T}."""
    alive, counts = {0: 1}, {}
    for t in range(1, T + 1):
        step = {}
        for x, c in alive.items():
            for y in (x - 1, x + 1):
                step[y] = step.get(y, 0) + c
        alive = {}
        for x, c in step.items():
            if abs(x) == b or t == T:
                counts[(x, t)] = c
            else:
                alive[x] = c
    return counts


def _stopped_walk(ups, b, T):
    """The signals (x, t), the exact probability rows, one per state, and
    the exact E_i[tau]."""
    counts = _stopping_counts(b, T)
    signals = sorted(counts)
    rows = [
        [counts[x, t] * p ** ((t + x) // 2) * (1 - p) ** ((t - x) // 2) for x, t in signals]
        for p in ups
    ]
    for row in rows:
        assert sum(row) == 1
    taus = [sum(t * r for (_, t), r in zip(signals, row)) for row in rows]
    return signals, rows, taus


def _mpf(x):
    return mp.mpf(x.numerator) / x.denominator


def _wald_cost(ups, taus, coef):
    """sum_ij beta_ij E_i[tau] KL(nu_i || nu_j) in 40-digit arithmetic."""
    with mp.workdps(40):
        total = mp.mpf(0)
        for i, (pi, tau) in enumerate(zip(ups, taus)):
            for j, pj in enumerate(ups):
                if i != j:
                    a, c = _mpf(pi), _mpf(pj)
                    kl = a * mp.log(a / c) + (1 - a) * mp.log((1 - a) / (1 - c))
                    total += mp.mpf(float(coef[i, j])) * _mpf(tau) * kl
        return float(total)


def _llr_atoms(ups, signals):
    """The LLR vector of each signal, ln of state i's likelihood against
    state 0's for i >= 1, rounded once from 40-digit arithmetic."""
    with mp.workdps(40):
        up = [mp.log(_mpf(p) / _mpf(ups[0])) for p in ups[1:]]
        down = [mp.log((1 - _mpf(p)) / (1 - _mpf(ups[0]))) for p in ups[1:]]
        return np.array(
            [
                [float((t + x) // 2 * u + (t - x) // 2 * d) for u, d in zip(up, down)]
                for x, t in signals
            ]
        )


def _setup(name, seed):
    ups = UPS[name]
    states = StateSpace(tuple(f"p={p}" for p in ups))
    rng = Xoshiro256(seed)
    return ups, states, rand_beta(rng, states), rand_prior(rng, states.n)


def _relative_error(got, want):
    return abs(got - want) / want


@pytest.mark.parametrize("name", sorted(UPS))
@pytest.mark.parametrize("b, T", [(1, 1), (2, 7), (4, 30), (6, 40)])
def test_experiment_route_prices_at_wald_cost(name, b, T):
    ups, states, beta, prior = _setup(name, 100 * b + T)
    signals, rows, taus = _stopped_walk(ups, b, T)
    probs = np.array([[float(r) for r in row] for row in rows])
    assert probs.min() > ENTRY_FLOOR
    mu = Experiment(states, tuple(signals), probs)
    want = _wald_cost(ups, taus, beta.dense())
    for got in (
        llr_cost(mu, beta),
        llr_cost_via_posteriors(mu, beta, prior),
        llr_cost_from_distribution(llr_distribution(mu), beta),
    ):
        assert _relative_error(got, want) <= TOL


@pytest.mark.parametrize("name", sorted(UPS))
@pytest.mark.parametrize("b, T", [(6, 40), (10, 120), (20, 400)])
def test_distribution_route_prices_at_wald_cost(name, b, T):
    ups, states, beta, _ = _setup(name, 100 * b + T)
    signals, rows, taus = _stopped_walk(ups, b, T)
    weights = np.array([[float(r) for r in row] for row in rows])
    dist = LLRDistribution(_llr_atoms(ups, signals), weights)
    want = _wald_cost(ups, taus, beta.dense())
    assert _relative_error(llr_cost_from_distribution(dist, beta), want) <= TOL


def test_long_horizons_fall_below_the_entry_floor():
    # why the long walks take the distribution route
    _, rows, taus = _stopped_walk(UPS["4 states"], 20, 400)
    assert min(min(row) for row in rows) <= ENTRY_FLOOR
    assert all(1 < tau < 400 for tau in taus)
