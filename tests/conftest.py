"""Deterministic random instances shared across the test modules.

Bulk numerical checks draw from the package's own xoshiro256** generator
so a given seed replays the exact same corpus on every platform and
every run; hypothesis hunts the adversarial end separately where a test
opts in.  Experiments, priors and rules are drawn by the generators of
`infocost.checks`, with the tests' own floors.
"""

import numpy as np

from infocost import BetaMatrix, ChoiceRule, DecisionProblem, Experiment, StateSpace
from infocost.checks import _rand_prior as rand_prior
from infocost.checks import _rand_rows
from infocost.checks import _rand_states as rand_states


def rand_valued_states(rng, n):
    """States on a strictly increasing integer grid with random gaps."""
    vals = []
    v = rng.randint(-40, 40)
    for _ in range(n):
        v += rng.randint(1, 5)
        vals.append(v)
    return StateSpace(tuple(f"s{i}" for i in range(n)), vals)


def rand_experiment(rng, states, n_signals, floor=0.02):
    rows = _rand_rows(rng, states.n, n_signals, floor)
    return Experiment(states, tuple(range(n_signals)), rows)


def rand_beta(rng, states, lo=0.05, hi=2.0):
    # off-diagonal draws only: a different sequence from checks._rand_beta
    n = states.n
    coef = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                coef[i, j] = rng.uniform_in(lo, hi)
    return BetaMatrix(states, coef)


def rand_problem(rng, n_states, n_actions, u_lo=-1.0, u_hi=2.0):
    states = rand_states(rng, n_states)
    u = np.array(
        [
            [rng.uniform_in(u_lo, u_hi) for _ in range(n_states)]
            for _ in range(n_actions)
        ]
    )
    return DecisionProblem(
        states,
        tuple(f"a{j}" for j in range(n_actions)),
        u,
        rand_prior(rng, n_states),
    )


def rand_rule(rng, n_states, n_actions, floor=0.02):
    return ChoiceRule(_rand_rows(rng, n_states, n_actions, floor))
