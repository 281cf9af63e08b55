"""Acceptance gate: every headline number and structural guarantee, one
verdict line per criterion.

Run directly for the full report:

    python tests/test_acceptance.py

or under pytest, where each criterion is one test.  Tolerances and time
budgets are part of the criteria, so a slow pass counts as a failure.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from conftest import (
    rand_beta,
    rand_experiment,
    rand_prior,
    rand_problem,
    rand_rule,
    rand_states,
    rand_valued_states,
)
from infocost import (
    DecisionProblem,
    Hypothesis,
    SolveOptions,
    StateSpace,
    Xoshiro256,
    binary_cost,
    binary_experiment,
    coinflip_rows,
    constant_betas,
    convolve,
    convolve_llr,
    cumulants,
    cumulants_to_moments,
    finite_distribution,
    foc_residual,
    gdp_rows,
    hypothesis_test_cost,
    inverse_square_betas,
    lipschitz_check,
    llr_cost,
    llr_cost_from_distribution,
    llr_cost_via_posteriors,
    llr_distribution,
    moments_to_cumulants,
    multi_indices,
    mutual_information_cost,
    normal_cost,
    objective,
    one_dimensional_betas,
    partition_coefficient,
    partition_experiment,
    perception_problem,
    product,
    psychometric_curve,
    run_suite,
    solve_llr,
    verification_asymmetry,
)
from infocost.checks import _rand_distribution


# ---------------------------------------------------------------- criteria


def _c01_coinflip():
    rows = coinflip_rows(30, 1.0, 1.0)
    mi = np.array([r[2] for r in rows])
    llr = np.array([r[1] for r in rows])
    dev = abs(mi[0] - 0.192745)
    assert dev <= 1e-5, f"one-flip mi cost {mi[0]:.7f}, expected 0.192745"
    scaled = coinflip_rows(1, 1.0, 3.5)[0][2]
    assert math.isclose(scaled, 3.5 * mi[0], rel_tol=1e-12), (
        "mi cost is not linear in the information price"
    )
    direct = mutual_information_cost(binary_experiment(0.8), np.array([0.5, 0.5]))
    assert math.isclose(direct, mi[0], rel_tol=1e-12), (
        "row disagrees with the direct mutual-information route"
    )
    gaps = np.diff(mi)
    assert np.all(gaps > 0.0), "mi cost not strictly increasing in k"
    assert np.all(np.diff(gaps) <= 1e-12), "mi cost not concave in k"
    assert np.all(mi <= math.log(2.0) + 1e-12), "mi cost exceeds ln 2"
    lin = np.abs(llr / (np.arange(1, 31) * llr[0]) - 1.0).max()
    assert lin <= 1e-9, f"llr cost off linear in k by {lin:.3g} relative"
    return (
        f"mi(1) = {mi[0]:.6f} (dev {dev:.1e}), curve concave, capped at ln 2; "
        f"llr linear in k to {lin:.1e}"
    )


def _c02_product_additivity():
    rng = Xoshiro256(202)
    worst = 0.0
    checked = 0
    reached_ten = 0
    for _ in range(100):
        states = rand_states(rng, rng.randint(2, 5))
        mu = rand_experiment(rng, states, rng.randint(2, 6))
        beta = rand_beta(rng, states)
        base = llr_cost(mu, beta)
        # dual route at k = 2: explicit product experiment
        dev2 = abs(llr_cost(product(mu, mu), beta) - 2.0 * base) / (2.0 * base)
        worst = max(worst, dev2)
        # higher k through the llr distribution, atom count permitting
        one = llr_distribution(mu)
        acc, k = one, 1
        while k < 10 and acc.n_atoms * one.n_atoms <= 8000:
            acc = convolve_llr(acc, one)
            k += 1
            dev = abs(llr_cost_from_distribution(acc, beta) - k * base) / (k * base)
            worst = max(worst, dev)
            checked += 1
        reached_ten += k == 10
    assert worst <= 1e-9, f"k-fold cost off by {worst:.3g} relative"
    assert reached_ten >= 5, f"only {reached_ten} experiments reached k = 10"
    return (
        f"{checked} k-fold checks over 100 experiments "
        f"({reached_ten} reached k = 10), worst rel dev {worst:.1e}"
    )


def _naive_partition(values, members, n) -> float:
    """Brute force over ordered crossing pairs, exact rational arithmetic."""
    per_dsq: dict[int, int] = {}
    for i in members:
        vi = int(values[i])
        for j in range(n):
            if j in members:
                continue
            d = vi - int(values[j])
            per_dsq[d * d] = per_dsq.get(d * d, 0) + 2
    return float(sum(Fraction(c, dsq) for dsq, c in per_dsq.items()))


def _c03_gdp():
    t0 = time.perf_counter()
    got = dict(gdp_rows(1.0))
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"60001-state grid took {dt:.2f}s"
    h1, h2 = got["H1"], got["H2"]
    assert 21.0 <= h1 <= 23.5, f"threshold coefficient {h1}"
    assert 147900.0 <= h2 <= 148200.0, f"parity coefficient {h2}"
    grids = 0
    for n in range(2, 201):
        states = StateSpace(tuple(f"v{v}" for v in range(n)), range(n))
        beta = inverse_square_betas(states, 1.0)
        hyps = {frozenset(range(n // 2)), frozenset(range(0, n, 2))}
        if n > 2:
            hyps.add(frozenset({0, n - 1}))
        for members in hyps:
            if not 0 < len(members) < n:
                continue
            fast = partition_coefficient(beta, Hypothesis(states, members))
            exact = _naive_partition(states.values, members, n)
            assert fast == exact, (
                f"n = {n}, members {sorted(members)}: {fast!r} != {exact!r}"
            )
            grids += 1
    return (
        f"H1 = {h1:.4f}, H2 = {h2:.2f} in {dt:.2f}s; "
        f"{grids} grids up to 200 states equal exact enumeration bitwise"
    )


def _c04_axiom_suite():
    results = {r.name: r for r in run_suite("axioms", seed=41, trials=1000)}
    bounds = {
        "product_additivity": 1e-10,
        "dilution_linearity": 1e-10,
        "blackwell_monotonicity": 1e-9,
        "column_split_invariance": 1e-10,
    }
    for name, bound in bounds.items():
        r = results[name]
        assert r.trials == 1000, f"{name} ran {r.trials} trials"
        assert r.max_deviation <= bound, (
            f"{name} deviates by {r.max_deviation:.3g}, bound {bound:g}"
        )
    for r in results.values():
        assert r.passed, f"{r.name} failed at {r.max_deviation:.3g}"
    used = max(results[n].max_deviation / b for n, b in bounds.items())
    return (
        f"all {len(results)} properties pass at 1000 trials, "
        f"worst deviation {used:.1e} of its bound"
    )


def _c05_posterior_route():
    rng = Xoshiro256(505)
    worst = 0.0
    for _ in range(1000):
        states = rand_states(rng, rng.randint(2, 5))
        mu = rand_experiment(rng, states, rng.randint(2, 6))
        beta = rand_beta(rng, states)
        prior = rand_prior(rng, states.n)
        dev = abs(llr_cost(mu, beta) - llr_cost_via_posteriors(mu, beta, prior))
        worst = max(worst, dev)
    assert worst <= 1e-9, f"posterior route off by {worst:.3g}"
    return f"1000 triples with non-uniform priors, worst |direct - posterior| = {worst:.1e}"


def _matching_root(b: float, target: float) -> float:
    """P(correct) in the symmetric matching problem by scalar bisection.

    The stationarity condition in the odds ratio r = p/(1-p) reads
    b (2 ln r + r - 1/r) = target; the left side is strictly increasing.
    """

    def f(r: float) -> float:
        return b * (2.0 * math.log(r) + r - 1.0 / r)

    lo, hi = 1.0, 2.0
    while f(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return r / (1.0 + r)


def _c06_solver():
    rng = Xoshiro256(606)
    solved = []
    worst_foc = 0.0
    for _ in range(100):
        problem = rand_problem(rng, rng.randint(2, 5), rng.randint(2, 4))
        beta = rand_beta(rng, problem.states, lo=0.05, hi=5.0)
        res = solve_llr(problem, beta)
        assert res.converged, "solver failed to converge"
        worst_foc = max(worst_foc, foc_residual(problem, beta, res.rule))
        solved.append((problem, beta, res.objective))
    assert worst_foc <= 1e-6, f"first-order conditions violated by {worst_foc:.3g}"
    worst_margin = math.inf
    for problem, beta, best in solved:
        for _ in range(100):
            rival = rand_rule(rng, problem.n_states, problem.n_actions)
            worst_margin = min(worst_margin, best - objective(problem, rival, beta))
    assert worst_margin >= -1e-7, f"a random rule won by {-worst_margin:.3g}"
    states = StateSpace(("s0", "s1"))
    matching = DecisionProblem(
        states, ("a0", "a1"), np.eye(2), np.array([0.5, 0.5])
    )
    res = solve_llr(matching, constant_betas(states, 0.1), SolveOptions(tol=1e-10))
    p = float(res.rule.probs[0, 0])
    p_star = _matching_root(0.1, 0.5)
    assert abs(p - p_star) <= 1e-6, f"matching probability {p} vs bisection {p_star}"
    return (
        f"max FOC residual {worst_foc:.1e} on 100 problems; worst margin over "
        f"100 rivals each {worst_margin:+.1e}; matching dev {abs(p - p_star):.1e}"
    )


def _c07_perception():
    problem = perception_problem(10)
    res = solve_llr(problem, inverse_square_betas(problem.states, 1.0))
    assert res.converged, "perception solve did not converge"
    pb = res.rule.probs[:, 1]
    assert np.all(np.diff(pb) > 0.0), "P(guess B) not strictly increasing"
    assert np.all((pb > 0.01) & (pb < 0.99)), "psychometric curve saturates"
    ratio, ok = lipschitz_check(res.rule, problem.states.values, 1.0)
    assert ok, f"choice probabilities move too fast across states: {ratio:.4f}"
    correct = np.array([row[3] for row in psychometric_curve(10, 1.0, "mi")])
    flat = max(np.ptp(correct[:10]), np.ptp(correct[10:]))
    assert flat <= 1e-4, f"mi accuracy varies by {flat:.2e} within a side"
    return (
        f"curve rises {pb[0]:.4f} -> {pb[-1]:.4f} over 20 states, smoothness "
        f"ratio {ratio:.3f}; mi accuracy flat to {flat:.1e} per side"
    )


def _c08_verification_asymmetry():
    eps = 1e-4
    cost_i, cost_ii = verification_asymmetry(eps, 1.0)
    first_order = cost_i / eps
    assert 0.9 <= first_order <= 1.1, f"cost_I/eps = {first_order:.4f}"
    ratio = cost_ii / cost_i
    lo, hi = math.log(1.0 / eps) - 2.0, math.log(1.0 / eps)
    assert lo <= ratio <= hi, f"cost_II/cost_I = {ratio:.4f} outside [{lo:.3f}, {hi:.3f}]"
    return f"cost_I/eps = {first_order:.6f}, cost_II/cost_I = {ratio:.4f} in [{lo:.3f}, {hi:.3f}]"


def _rand_dist(rng, dim):
    # amplitudes below one keep the twelfth-degree mixed moments behind the
    # largest index boxes well conditioned in double precision
    return _rand_distribution(rng, dim, amplitude=0.6, floor=0.2)


def _cf_cumulant(p: float, j: int) -> float:
    """j-th Bernoulli cumulant by finite-differencing log E e^{itX} at 0."""
    with mp.workdps(40):
        d = mp.diff(lambda t: mp.log(1 - p + p * mp.exp(1j * t)), 0, j)
        return float(mp.re(d / mp.mpc(0, 1) ** j))


def _c09_cumulants():
    rng = Xoshiro256(909)
    worst_add = 0.0
    worst_rt = 0.0
    for _ in range(500):
        dim = rng.randint(1, 3)
        order = rng.randint(2, 4)
        a, b = _rand_dist(rng, dim), _rand_dist(rng, dim)
        ka = cumulants(a, order)
        kb = cumulants(b, order)
        kc = cumulants(convolve(a, b), order)
        for alpha in multi_indices(dim, order):
            s = ka[alpha] + kb[alpha]
            scale = max(abs(s), abs(kc[alpha]), 1.0)
            worst_add = max(worst_add, abs(kc[alpha] - s) / scale)
        back = moments_to_cumulants(cumulants_to_moments(ka))
        for alpha in multi_indices(dim, order):
            scale = max(abs(ka[alpha]), 1.0)
            worst_rt = max(worst_rt, abs(back[alpha] - ka[alpha]) / scale)
    assert worst_add <= 1e-9, f"additivity off by {worst_add:.3g} relative"
    assert worst_rt <= 1e-10, f"round trip off by {worst_rt:.3g} relative"
    worst_cf = 0.0
    for p in (0.08, 0.3, 0.5, 0.77):
        k = cumulants(finite_distribution([[0.0], [1.0]], [1.0 - p, p]), 4)
        for j in range(1, 5):
            worst_cf = max(worst_cf, abs(k[(j,)] - _cf_cumulant(p, j)))
    assert worst_cf <= 1e-6, f"Bernoulli cumulants off the cf oracle by {worst_cf:.3g}"
    return (
        f"500 convolution pairs additive to {worst_add:.1e}, round trip "
        f"{worst_rt:.1e}, Bernoulli vs cf oracle {worst_cf:.1e}"
    )


def _c10_closed_forms():
    rng = Xoshiro256(1010)
    worst = 0.0
    for i in range(100):
        states = rand_states(rng, 2)
        beta = rand_beta(rng, states)
        u = rng.uniform_in(0.05, 0.45)
        p = u if i % 2 else 1.0 - u
        closed = binary_cost(p, beta)
        explicit = llr_cost(binary_experiment(p, states), beta)
        worst = max(worst, abs(closed - explicit) / max(abs(closed), abs(explicit)))
    for i in range(100):
        states = rand_valued_states(rng, rng.randint(2, 8))
        members = frozenset(
            j for j in range(states.n) if rng.uniform() < 0.5
        )
        if not 0 < len(members) < states.n:
            members = frozenset({rng.randint(0, states.n - 1)})
        h = Hypothesis(states, members)
        beta = (
            inverse_square_betas(states, rng.uniform_in(0.5, 2.0))
            if i % 2
            else rand_beta(rng, states)
        )
        u = rng.uniform_in(0.05, 0.45)
        alpha = u if i % 4 < 2 else 1.0 - u
        closed = hypothesis_test_cost(beta, h, alpha)
        explicit = llr_cost(partition_experiment(h, alpha), beta)
        worst = max(worst, abs(closed - explicit) / max(abs(closed), abs(explicit)))
    assert worst <= 1e-12, f"closed forms off by {worst:.3g} relative"
    two = StateSpace(("t0", "t1"), (0, 1))
    half = normal_cost(two.values, 1.0, one_dimensional_betas(two, 1.0))
    assert half == 0.5, f"normal cost at unit scale is {half!r}, not 0.5"
    return f"200 instances match explicit constructions to {worst:.1e}; normal cost exactly 0.5"


_CRITERIA = [
    (1, "coin-flip information costs", 1.0, _c01_coinflip),
    (2, "cost linear in independent repetitions", 5.0, _c02_product_additivity),
    (3, "partition coefficients on the income grid", None, _c03_gdp),
    (4, "axiom property suite", 30.0, _c04_axiom_suite),
    (5, "posterior-separable representation", 10.0, _c05_posterior_route),
    (6, "optimal acquisition solver", 60.0, _c06_solver),
    (7, "psychometric curves", 30.0, _c07_perception),
    (8, "verification asymmetry", 1.0, _c08_verification_asymmetry),
    (9, "cumulant machinery", 30.0, _c09_cumulants),
    (10, "closed-form costs", None, _c10_closed_forms),
]


def _run(num, title, budget, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        ok = False
    elapsed = time.perf_counter() - t0
    if ok and budget is not None and elapsed >= budget:
        ok = False
        detail = f"finished but took {elapsed:.2f}s, budget {budget:g}s"
    line = (
        f"criterion {num:2d} {'PASS' if ok else 'FAIL'} {elapsed:6.2f}s  "
        f"{title}: {detail}"
    )
    print(line, flush=True)
    return ok, line


@pytest.mark.parametrize(
    "num,title,budget,fn", _CRITERIA, ids=[f"{c[0]:02d}_{c[3].__name__[5:]}" for c in _CRITERIA]
)
def test_criterion(num, title, budget, fn):
    ok, line = _run(num, title, budget, fn)
    assert ok, line


def main() -> int:
    failures = 0
    for num, title, budget, fn in _CRITERIA:
        ok, _ = _run(num, title, budget, fn)
        failures += not ok
    print(f"{len(_CRITERIA) - failures} of {len(_CRITERIA)} criteria pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
