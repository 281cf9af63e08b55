"""Desk-scale reproductions of the worked numerical examples.

Each function returns plot-ready rows; the command line wraps them in CSV.

* coinflip: LLR versus mutual-information cost of k independent biased
  coin flips.  The LLR column grows linearly without bound, the mutual
  information column saturates at ln 2.
* perception: psychometric curves for the dot-counting task, sigmoidal
  under the LLR cost and flat-per-side under mutual information.
* gdp: partition coefficients for two hypotheses about a GDP figure on the
  integer grid 20000..80000, a threshold (easy) and a parity (absurdly
  hard) question.
* swans: cost of verifying versus falsifying a rare-event claim across
  epsilon, exhibiting the log(1/eps) asymmetry.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import (
    Hypothesis,
    _mutual_information,
    inverse_square_betas,
    partition_coefficient,
    verification_asymmetry,
)
from .errors import EpsilonOutOfRange, UnknownReproduction, _integer, _real
from .experiments import StateSpace

Rows = list[tuple]


def _binomial_rows(k: int, p: float) -> np.ndarray:
    """Likelihoods of the count of heads in k flips, bias p (row 0) and 1-p
    (row 1).

    Built in log space and normalised per row, so a large k neither
    overflows the binomial coefficients nor leaves a row of zeros.
    """
    j = np.arange(k + 1)
    # ln C(k, j) by the running product C(k, j) = C(k, j-1) (k-j+1) / j
    log_comb = np.concatenate(
        [[0.0], np.cumsum(np.log(k - j[:-1]) - np.log(j[1:]))]
    )
    lp, lq = math.log(p), math.log1p(-p)
    log_rows = log_comb + np.array([j * lp + (k - j) * lq, j * lq + (k - j) * lp])
    rows = np.exp(log_rows - log_rows.max(axis=1, keepdims=True))
    return rows / rows.sum(axis=1, keepdims=True)


def coinflip_rows(k_max: int = 20, kappa: float = 1.0, lam: float = 1.0) -> Rows:
    """(k, llr_cost, mi_cost) for k = 1..k_max flips of a 0.8/0.2 coin.

    The count of heads is a sufficient statistic, so the k-flip experiment
    collapses to k+1 signals; costs are computed straight from those
    likelihood arrays.  The LLR of j heads is (2j - k) ln(p/(1-p)), so the
    LLR cost needs no ratio of likelihoods.  Prices are kappa/2 per
    direction, prior uniform.
    """
    k_max = _integer(k_max, "k", 1)
    kappa, lam = _real(kappa, "kappa"), _real(lam, "lambda")
    p = 0.8
    half = np.full(2, 0.5)
    rows = []
    for k in range(1, k_max + 1):
        P = _binomial_rows(k, p)
        llr_sign = 2 * np.arange(k + 1) - k
        llr = 0.5 * kappa * math.log(p / (1 - p)) * float((P[0] - P[1]) @ llr_sign)
        rows.append((k, llr, lam * _mutual_information(half, P)))
    return rows


def perception_rows(r: int = 10, kappa: float = 1.0, lam: float = 1.0) -> Rows:
    """(state, P(guess R) under LLR, P(guess R) under MI) per state."""
    from .solver import psychometric_curve  # the only reproduction that solves

    llr = psychometric_curve(r, kappa, "llr", lam)
    mi = psychometric_curve(r, kappa, "mi", lam)
    return [
        (row_l[0], row_l[2], row_m[2]) for row_l, row_m in zip(llr, mi)
    ]


def gdp_rows(kappa: float = 1.0) -> Rows:
    """Partition coefficients for the two GDP hypotheses.

    H1: GDP is at least 50000 (threshold).  H2: GDP is even (parity).
    Prices follow the unnormalized inverse-square rule kappa/(i-j)^2.
    """
    v = np.arange(20000, 80001)
    states = StateSpace(tuple(v.tolist()), v)
    beta = inverse_square_betas(states, kappa)
    h1 = Hypothesis(states, frozenset(np.flatnonzero(v >= 50000).tolist()))
    h2 = Hypothesis(states, frozenset(np.flatnonzero(v % 2 == 0).tolist()))
    return [
        ("H1", partition_coefficient(beta, h1)),
        ("H2", partition_coefficient(beta, h2)),
    ]


_SWAN_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def swans_rows(kappa: float = 1.0, epsilon: float | None = None) -> Rows:
    """(epsilon, cost_I, cost_II, cost_II/cost_I) over an epsilon grid."""
    grid = _SWAN_GRID
    if epsilon is not None:
        grid = (_real(epsilon, "epsilon", 0.0, 0.5, EpsilonOutOfRange),)
    rows = []
    for eps in grid:
        ci, cii = verification_asymmetry(eps, kappa)
        rows.append((eps, ci, cii, cii / ci))
    return rows


def reproduce_rows(
    name: str,
    kappa: float = 1.0,
    lam: float = 1.0,
    r: int = 10,
    k: int = 20,
    epsilon: float | None = None,
) -> tuple[tuple[str, ...], Rows]:
    """Dispatch by reproduction name; returns (header, rows)."""
    if name == "coinflip":
        return ("k", "llr_cost", "mi_cost"), coinflip_rows(k, kappa, lam)
    if name == "perception":
        return ("state", "p_R_llr", "p_R_mi"), perception_rows(r, kappa, lam)
    if name == "gdp":
        return ("hypothesis", "partition_coefficient"), gdp_rows(kappa)
    if name == "swans":
        return ("epsilon", "cost_I", "cost_II", "ratio"), swans_rows(
            kappa, epsilon
        )
    raise UnknownReproduction(f"no reproduction named {name!r}")
