"""Independent computations that the benchmark checks the package against.

Nothing here imports infocost.  Each check takes plain arrays or numbers and
returns a list of error strings, empty when the output is right, so that the
self-test can feed it a corrupted output and see it complain.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# a choice-rule column is in the support when some state plays it with at
# least this probability; solver ghosts (~1e-300) and exact zeros are out
SUPPORT_MIN = 1e-9


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --- costs ---------------------------------------------------------------


def kl_pairs(P: np.ndarray) -> np.ndarray:
    """D[i, j] = sum_s P[i, s] ln(P[i, s] / P[j, s]), one state at a time."""
    n = P.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        D[i] = np.sum(P[i] * np.log(P[i] / P), axis=1)
    D[np.arange(n), np.arange(n)] = 0.0
    return D


def llr_cost(P: np.ndarray, B: np.ndarray) -> float:
    """sum over i != j of beta_ij KL(P_i || P_j)."""
    off = ~np.eye(P.shape[0], dtype=bool)
    return float(np.sum(B[off] * kl_pairs(P)[off]))


def check_cost(P, B, got: float, rel: float = 1e-10) -> list[str]:
    want = llr_cost(P, B)
    if not rel_gap(got, want) <= rel:
        return [f"cost {got!r} vs KL sum {want!r}"]
    return []


def posterior_route(P, B, prior) -> float:
    """E[F(posterior)] - F(prior), F(p) = sum_ij beta_ij (p_i/q_i) ln(p_i/p_j)."""
    q = np.asarray(prior, dtype=float)

    def F(p):
        lp = np.log(p)
        return float(np.sum(B * (p / q)[:, None] * (lp[:, None] - lp[None, :])))

    joint = q[:, None] * P
    marg = joint.sum(axis=0)
    return sum(m * F(joint[:, s] / m) for s, m in enumerate(marg)) - F(q)


def check_kfold(single: float, k: int, got: float) -> list[str]:
    if not rel_gap(got, k * single) <= 1e-9:
        return [f"{k}-fold cost {got!r} vs {k} x {single!r}"]
    return []


def check_llr_atoms(atoms: np.ndarray, weights: np.ndarray) -> list[str]:
    """Rows are laws of one atom set; sigma_i = exp(xi_i) sigma_0 per atom."""
    errs = []
    if np.any(weights < 0):
        errs.append("negative atom weight")
    sums = weights.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        errs.append(f"weight rows sum to {sums.tolist()}")
    want = np.exp(atoms.T) * weights[0]
    dev = float(np.max(np.abs(weights[1:] - want))) if atoms.shape[1] else 0.0
    if not dev <= 1e-10:
        errs.append(f"sigma_i deviates from exp(xi_i) sigma_0 by {dev:.3g}")
    return errs


# --- partition coefficients ------------------------------------------------


def crossing_counts(values, members) -> np.ndarray:
    """counts[d] = unordered member/non-member pairs at distance d, by brute
    force over all pairs."""
    v = np.asarray(values, dtype=np.int64)
    mask = np.zeros(v.size, dtype=bool)
    mask[list(members)] = True
    d = np.abs(np.subtract.outer(v[mask], v[~mask])).ravel()
    return np.bincount(d, minlength=int(v.max() - v.min()) + 1)


def threshold_counts(lo: int, cut: int, hi: int) -> np.ndarray:
    """Crossing pairs of the grid lo..hi split at cut (members >= cut)."""
    d = np.arange(hi - lo + 1)
    first = np.maximum(lo, cut - d)
    last = np.minimum(cut - 1, hi - d)
    counts = np.maximum(0, last - first + 1)
    counts[0] = 0
    return counts


def parity_counts(n: int) -> np.ndarray:
    """Crossing pairs of even against odd values on n consecutive integers."""
    d = np.arange(n)
    return np.where(d % 2 == 1, n - d, 0)


def partition_exact(counts, c: float) -> float:
    """2 c sum_d counts[d] / d^2, in exact rationals, rounded once."""
    total = sum(Fraction(2 * int(k), d * d) for d, k in enumerate(counts) if k)
    return float(Fraction(c) * total)


def partition_fsum(counts, c: float) -> float:
    """The same sum with each class term rounded once and an exact sum."""
    return 2.0 * c * math.fsum(int(k) / (d * d) for d, k in enumerate(counts) if k)


def check_partition(got: float, counts, c: float, exact: bool) -> list[str]:
    if exact:
        want = partition_exact(counts, c)
        if got != want:
            return [f"partition coefficient {got!r} != exact {want!r}"]
        return []
    want = partition_fsum(counts, c)
    if not rel_gap(got, want) <= 1e-12:
        return [f"partition coefficient {got!r} vs class sum {want!r}"]
    return []


# --- moments and cumulants -----------------------------------------------


def raw_moment(atoms: np.ndarray, weights: np.ndarray, alpha) -> float:
    return float(np.dot(weights, np.prod(atoms ** np.asarray(alpha), axis=1)))


def bernoulli_cumulants(p: float) -> list[float]:
    q = 1.0 - p
    return [p, p * q, p * q * (1.0 - 2.0 * p), p * q * (1.0 - 6.0 * p * q)]


def check_bernoulli(p: float, kappa: dict) -> list[str]:
    errs = []
    for j, want in enumerate(bernoulli_cumulants(p), start=1):
        got = kappa[(j,)]
        if not abs(got - want) <= 1e-12:
            errs.append(f"Bernoulli({p:.4f}) kappa_{j} {got!r} vs {want!r}")
    return errs


def check_second_cumulants(atoms, weights, kappa: dict) -> list[str]:
    """Variances and covariances against sums over the atoms."""
    dim = atoms.shape[1]
    mean = weights @ atoms
    errs = []
    for i in range(dim):
        for j in range(i, dim):
            alpha = [0] * dim
            alpha[i] += 1
            alpha[j] += 1
            want = float(weights @ ((atoms[:, i] - mean[i]) * (atoms[:, j] - mean[j])))
            got = kappa[tuple(alpha)]
            if not abs(got - want) <= 1e-12:
                errs.append(f"second cumulant {tuple(alpha)} {got!r} vs {want!r}")
    return errs


def check_moments(atoms, weights, m: dict) -> list[str]:
    errs = []
    for alpha, got in m.items():
        want = raw_moment(atoms, weights, alpha)
        if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            errs.append(f"moment {alpha} {got!r} vs {want!r}")
    return errs


def check_additive(ka: dict, kb: dict, kc: dict) -> list[str]:
    errs = []
    for alpha, c in kc.items():
        s = ka[alpha] + kb[alpha]
        if not abs(c - s) <= 1e-9 * max(abs(s), abs(c), 1.0):
            errs.append(f"cumulant {alpha} of the sum {c!r} vs {s!r}")
    return errs


def check_round_trip(m: dict, back: dict) -> list[str]:
    errs = []
    for alpha, want in m.items():
        if not abs(back[alpha] - want) <= 1e-10 * max(abs(want), 1.0):
            errs.append(f"round trip {alpha}: {back[alpha]!r} vs {want!r}")
    return errs


# --- decision problems ----------------------------------------------------


def rule_cost(P: np.ndarray, B: np.ndarray) -> float:
    """LLR cost of a choice rule; columns played by no state drop out, a
    column played in state i but not in state j costs infinity."""
    total = 0.0
    n = P.shape[0]
    for i in range(n):
        on = P[i] > 0.0
        for j in range(n):
            if i == j or B[i, j] == 0.0:
                continue
            if np.any(P[j, on] == 0.0):
                return math.inf
            total += B[i, j] * float(np.sum(P[i, on] * np.log(P[i, on] / P[j, on])))
    return total


def foc_residual(q, U, B, P) -> float:
    """Largest spread over supported actions of the marginal objective
    q_i u(a, i) - dC/dP_ia, per state; zero at an interior optimum."""
    sup = P.max(axis=0) > SUPPORT_MIN
    X = P[:, sup]
    if X.shape[1] <= 1:
        return 0.0
    if np.any(X <= 0.0):
        return math.inf
    L = np.log(X)
    Bs = B.sum(axis=1)
    dC = Bs[:, None] * (L + 1.0) - B @ L - (B.T @ X) / X
    g = q[:, None] * U.T[:, sup] - dC
    return float(np.max(g.max(axis=1) - g.min(axis=1)))


def rival_objectives(q, U, B, R: np.ndarray) -> np.ndarray:
    """Objective of each rule R[k] (all entries positive), vectorized."""
    L = np.log(R)
    own = np.einsum("kia,kia->ki", R, L)
    cross = np.einsum("kia,kja->kij", R, L)
    cost = np.einsum("ij,kij->k", B, own[:, :, None] - cross)
    eu = np.einsum("i,ai,kia->k", q, U, R)
    return eu - cost


def check_llr_solve(q, U, B, P, cost: float, objective: float, rivals) -> list[str]:
    """First-order conditions on the support, the reported values, and no
    sampled rival rule beating the returned one by more than 1e-7."""
    errs = []
    res = foc_residual(q, U, B, P)
    if not res <= 1e-6:
        errs.append(f"first-order conditions violated by {res:.3g}")
    c = rule_cost(P, B)
    eu = float(np.sum(q[:, None] * U.T * P))
    if not abs(cost - c) <= 1e-9 * (1.0 + abs(c)):
        errs.append(f"reported cost {cost!r} vs rule cost {c!r}")
    if not abs(objective - (eu - c)) <= 1e-9 * (1.0 + abs(eu)):
        errs.append(f"reported objective {objective!r} vs {eu - c!r}")
    if rivals is not None and len(rivals):
        margin = float(np.min((eu - c) - rival_objectives(q, U, B, rivals)))
        if margin < -1e-7:
            errs.append(f"a sampled rival rule wins by {-margin:.3g}")
    return errs


def check_mi_solve(q, U, lam: float, P, cost: float) -> list[str]:
    """Matejka-McKay: with p = q P, the rule is P_ia prop. to p_a e^{u/lam}
    and sum_i q_i e^{u(a,i)/lam} / sum_b p_b e^{u(b,i)/lam} <= 1 for every a."""
    errs = []
    W = U.T / lam
    E = np.exp(W - W.max(axis=1, keepdims=True))
    p = q @ P
    Z = E @ p
    gap = float(np.max((q[:, None] * E / Z[:, None]).sum(axis=0)) - 1.0)
    if not gap <= 1e-6:
        errs.append(f"Matejka-McKay condition violated by {gap:.3g}")
    dev = float(np.max(np.abs(P - p[None, :] * E / Z[:, None])))
    if not dev <= 1e-6:
        errs.append(f"rule is {dev:.3g} from its logit form")
    # p_a >= q_i P_ia, so a marginal that underflows to 0 carries terms
    # below P_ia ln(1/q_i), which are themselves below 1e-300
    live = (P > 0.0) & (p[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(live, P * np.log(P / p[None, :]), 0.0)
    mi = float(np.sum(q[:, None] * terms))
    if not abs(cost - lam * mi) <= 1e-9 * (1.0 + abs(lam * mi)):
        errs.append(f"reported cost {cost!r} vs lambda * MI {lam * mi!r}")
    return errs


def check_perception(P: np.ndarray, values) -> list[str]:
    """P(guess B) strictly increasing in the dot count, and choice
    probabilities moving no faster than sqrt(|u|) d(i, j) across states
    (prices at least 1/d^2, unit payoffs)."""
    errs = []
    pb = P[:, 1]
    if not np.all(np.diff(pb) > 0.0):
        errs.append("P(guess B) not strictly increasing")
    v = np.asarray(values, dtype=float)
    dist = np.abs(v[:, None] - v[None, :])
    off = ~np.eye(v.size, dtype=bool)
    gap = np.max(np.abs(P[:, None, :] - P[None, :, :]), axis=2)
    ratio = float(np.max(gap[off] / dist[off]))
    if not ratio <= 1.0 + 1e-9:
        errs.append(f"Lipschitz ratio {ratio:.4f} above 1")
    return errs


def random_rules(rng, k: int, n: int, m: int) -> np.ndarray:
    R = rng.uniform(0.02, 1.0, size=(k, n, m))
    return R / R.sum(axis=2, keepdims=True)
