"""The four workloads: their inputs, operations, checks and layer metrics.

Each `build_*` function makes a workload's inputs from the seed and returns
its Batch of operations.  Every operation calls a public function of the
package; every check compares the output with `oracle`, which does not use
the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import infocost as ic
import infocost.cli
from harness import Batch, Op, Tracer, Verdict, tail_value
import oracle

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "from infocost.cli import entry; entry()"
CHILD_TIMEOUT_S = 120

# the solver corpora are fixed: whether a solve fails, and how many
# iterations it takes (a heavy-tailed count), depend on the instance, so
# seeded corpora would change the failed share and the batch time with the
# seed; the seed draws the rival rules of the checks
CORNER_CORPUS_SEED = 1812
INTERIOR_CORPUS_SEED = 4211
MI_CORPUS_SEED = 2018


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        **kw,
    )


def fresh_import():
    """One fresh interpreter importing the package: the set-up every CLI
    call and every library session pays."""
    proc = python(["-c", "import infocost"])
    if proc.returncode != 0:
        raise RuntimeError(f"import infocost failed: {proc.stderr.strip()[-400:]}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The workload's generator; any integer seed, negative ones included."""
    return np.random.default_rng([seed % 2**64, stream])


def _states(n: int, values=None) -> ic.StateSpace:
    return ic.StateSpace(tuple(f"s{i}" for i in range(n)), values)


def _stochastic(rng, n: int, m: int, lo: float) -> np.ndarray:
    P = rng.uniform(lo, 1.0, size=(n, m))
    return P / P.sum(axis=1, keepdims=True)


def _prices(rng, n: int, lo: float, hi: float) -> np.ndarray:
    B = rng.uniform(lo, hi, size=(n, n))
    np.fill_diagonal(B, 0.0)
    return B


def _solve_faults(res) -> str | None:
    why = []
    if not res.converged:
        why.append(f"not converged, residual {res.foc_residual:.2g}")
    if res.cost < 0.0:
        why.append(f"negative cost {res.cost:.2g}")
    return "; ".join(why) or None


# --- cli -------------------------------------------------------------------


def _exit_fault(proc) -> str | None:
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {proc.returncode}: {tail[0][:200]}"
    return None


def _perception_inputs(r: int):
    values = list(range(50 - r, 50)) + list(range(51, 51 + r))
    U = np.array([[float(v < 50) for v in values], [float(v > 50) for v in values]])
    v = np.array(values, dtype=float)
    d = v[:, None] - v[None, :]
    np.fill_diagonal(d, 1.0)
    B = 1.0 / d**2
    np.fill_diagonal(B, 0.0)
    return values, U, np.full(len(values), 1.0 / len(values)), B


def build_cli(seed: int, scale: str, workdir: Path) -> Batch:
    rng = _rng(seed, 0)
    workdir.mkdir(parents=True, exist_ok=True)
    P = _stochastic(rng, 3, 3, 0.05)
    B = _prices(rng, 3, 0.05, 2.0)
    prior = rng.uniform(0.1, 1.0, 3)
    prior /= prior.sum()
    labels = ["a", "b", "c"]
    files = {
        "exp": {"states": labels, "signals": ["x", "y", "z"], "probs": P.tolist()},
        "beta": {"states": labels, "coef": B.tolist()},
        "beta_rule": {"rule": "inverse_square", "kappa": 1.0},
    }
    values, U, q, Bp = _perception_inputs(10)
    files["problem"] = {
        "states": [str(v) for v in values],
        "values": values,
        "actions": ["R", "B"],
        "utility": U.tolist(),
        "prior": q.tolist(),
    }
    path = {}
    for name, obj in files.items():
        path[name] = str(workdir / f"{name}.json")
        with open(path[name], "w") as fh:
            json.dump(obj, fh)
    prior_arg = ",".join(repr(float(x)) for x in prior)
    rivals = oracle.random_rules(rng, 50, len(values), 2)
    trials = "50" if scale == "full" else "5"

    def check_import(proc):
        return Verdict(fault=_exit_fault(proc))

    def check_cost(proc):
        fault = _exit_fault(proc)
        if fault:
            return Verdict(fault=fault)
        out = json.loads(proc.stdout)
        errs = oracle.check_cost(P, B, out["cost"])
        via = oracle.posterior_route(P, B, prior)
        if not abs(out["cost_via_posteriors"] - via) <= 1e-9:
            errs.append(f"cost_via_posteriors {out['cost_via_posteriors']!r} vs {via!r}")
        errs += oracle.check_cost(P, B, out["cost_via_posteriors"], rel=1e-9)
        kl = oracle.kl_pairs(P)
        if not np.max(np.abs(np.array(out["kl"]) - kl)) <= 1e-12:
            errs.append("kl matrix disagrees with the pairwise sums")
        return Verdict(errors=errs)

    def check_solve(proc):
        if proc.returncode not in (0, 3):
            return Verdict(fault=_exit_fault(proc))
        out = json.loads(proc.stdout)
        why = []
        if not out["converged"]:
            why.append(f"not converged, residual {out['foc_residual']:.2g}")
        if out["cost"] < 0.0:
            why.append(f"negative cost {out['cost']:.2g}")
        if why:
            return Verdict(fault="; ".join(why))
        R = np.array(out["rule"])
        errs = oracle.check_llr_solve(q, U, Bp, R, out["cost"], out["objective"], rivals)
        errs += oracle.check_perception(R, values)
        return Verdict(errors=errs)

    def check_reproduce(proc):
        fault = _exit_fault(proc)
        if fault:
            return Verdict(fault=fault)
        rows = dict(line.split(",") for line in proc.stdout.strip().splitlines()[1:])
        errs = []
        h1 = oracle.partition_fsum(oracle.threshold_counts(20000, 50000, 80000), 1.0)
        h2 = oracle.partition_fsum(oracle.parity_counts(60001), 1.0)
        # the CSV carries nine significant digits
        for key, want in (("H1", h1), ("H2", h2)):
            if not oracle.rel_gap(float(rows[key]), want) <= 1e-8:
                errs.append(f"{key} = {rows[key]} vs class sum {want!r}")
        return Verdict(errors=errs)

    def check_check(proc):
        fault = _exit_fault(proc)
        if fault:
            return Verdict(fault=fault)
        lines = proc.stdout.strip().splitlines()
        errs = []
        if len(lines) != 10 or not all(line.endswith(" PASS") for line in lines):
            errs.append(f"expected 10 PASS lines, got {lines!r}"[:300])
        return Verdict(errors=errs)

    calls = [
        ("cli_import", ["-c", "import infocost"], check_import),
        (
            "cli_cost",
            ["-c", ENTRY, "cost", "--experiment", path["exp"], "--beta", path["beta"],
             "--prior", prior_arg, "--format", "json"],
            check_cost,
        ),
        (
            "cli_solve",
            ["-c", ENTRY, "solve", "--cost", "llr", "--problem", path["problem"],
             "--beta", path["beta_rule"]],
            check_solve,
        ),
        ("cli_reproduce", ["-c", ENTRY, "reproduce", "gdp"], check_reproduce),
        (
            "cli_check",
            ["-c", ENTRY, "check", "--trials", trials],
            check_check,
        ),
    ]
    ops = [
        Op(kind, kind, (lambda a=args: python(a)), check)
        for kind, args, check in calls
    ]
    # argv of each subcommand for infocost.cli.main, without "-c ENTRY"
    inproc = {kind[len("cli_"):]: args[2:] for kind, args, _ in calls[1:]}
    return Batch(ops, lambda tracer: _cli_probe(tracer, inproc, int(trials)), _bare_stack_start)


def _bare_stack_start():
    """The reference work of the cli workload: a fresh interpreter that
    imports the package's own dependencies, numpy and scipy.signal, but not
    the package, so it slows with the host as the CLI calls do."""
    proc = python(["-c", "import numpy, scipy.signal"])
    if proc.returncode != 0:
        raise RuntimeError(f"reference interpreter failed: {proc.stderr.strip()[-400:]}")


def _importtime_self_s(stderr: str, prefix: str) -> float:
    """Sum of self times of the modules under `prefix`, from -X importtime."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if name.strip().split(".")[0] == prefix:
            total_us += int(self_us)
    return total_us / 1e6


def _cli_probe(tracer: Tracer, inproc: dict, trials: int):
    """Traced-run extras: interpreter and numpy floors, the import profile,
    and each subcommand through infocost.cli.main in this process."""
    for name, code in (("cli.python_start_s", "pass"), ("cli.numpy_import_s", "import numpy")):
        t0 = time.perf_counter()
        python(["-c", code])
        tracer.note(name, time.perf_counter() - t0)
    proc = python(["-X", "importtime", "-c", "import infocost"])
    tracer.note("cli.import_scipy_s", _importtime_self_s(proc.stderr, "scipy"))
    tracer.note("cli.import_infocost_self_s", _importtime_self_s(proc.stderr, "infocost"))
    sink = io.StringIO()
    for sub, argv in inproc.items():
        with contextlib.redirect_stdout(sink), tracer.span(f"cli.{sub}_inproc"):
            infocost.cli.main(list(argv))
    for suite in ("axioms", "appendix"):
        with tracer.span(f"checks.{suite}"):
            ic.run_suite(suite, trials=trials)


# --- price -----------------------------------------------------------------

# (dimension, order) boxes of the cumulant conversions.  At order 4 in
# dims 3 and 4 the series conversions miss their stated bounds on some
# draws (round trip 1e-10, additivity 1e-9), so those ops would fail on
# some seeds only: the dim-4 order-4 box runs one moments-to-cumulants
# conversion, checked against the atoms, and the dim-3 order-4 box has no
# additivity op
FULL_BOXES = [(d, o) for d in (1, 2, 3, 4) for o in (2, 3, 4)]
TINY_BOXES = [(1, 4), (2, 3)]
ONE_WAY_BOXES = {(4, 4)}
NO_ADDITIVITY_BOXES = {(3, 4), (4, 4)}


def _rand_dist(rng, dim: int):
    atoms = rng.uniform(-0.6, 0.6, size=(3, dim))
    w = rng.uniform(0.2, 1.0, 3)
    return atoms, w / w.sum()


def build_price(seed: int, scale: str, workdir: Path) -> Batch:
    rng = _rng(seed, 1)
    full = scale == "full"
    ops: list[Op] = []

    # k-fold repetition: shapes cycle over 2..5 states x 2..6 signals so
    # that the atom counts, and with them the work, do not depend on the seed
    shapes = [(n, m) for n in range(2, 6) for m in range(2, 7)] * (2 if full else 1)
    if not full:
        shapes = shapes[::5]
    for idx, (n, m) in enumerate(shapes):
        P = _stochastic(rng, n, m, 0.02)
        B = _prices(rng, n, 0.05, 2.0)
        mu = ic.Experiment(_states(n), tuple(range(m)), P)
        beta = ic.BetaMatrix(mu.states, B)
        ops.append(Op(f"kfold#{idx}", "kfold", _kfold_run(mu, beta), _kfold_check(P, B)))

    # dense pricing of experiments with hundreds of states
    sizes = (200, 300, 400, 500) * 2 if full else (40,)
    for idx, n in enumerate(sizes):
        P = _stochastic(rng, n, 40, 0.02)
        B = _prices(rng, n, 0.05, 2.0)
        mu = ic.Experiment(_states(n), tuple(range(40)), P)
        beta = ic.BetaMatrix(mu.states, B)
        ops.append(
            Op(
                f"llr_cost{n}#{idx}",
                "llr_cost",
                lambda mu=mu, beta=beta: ic.llr_cost(mu, beta),
                lambda got, P=P, B=B: Verdict(errors=oracle.check_cost(P, B, got)),
            )
        )

    # moments and cumulants
    for p in rng.uniform(0.05, 0.95, 4 if full else 1):
        d = ic.finite_distribution([[0.0], [1.0]], [1.0 - p, p])
        ops.append(
            Op(
                f"bernoulli{p:.3f}",
                "bernoulli",
                lambda d=d: ic.cumulants(d, 4),
                lambda k, p=p: Verdict(errors=oracle.check_bernoulli(p, k.values)),
            )
        )
    for dim, order in FULL_BOXES if full else TINY_BOXES:
        if (dim, order) not in NO_ADDITIVITY_BOXES:
            a, b = _rand_dist(rng, dim), _rand_dist(rng, dim)
            da = ic.finite_distribution(*a)
            db = ic.finite_distribution(*b)
            ops.append(
                Op(
                    f"additivity{dim}x{order}",
                    "additivity",
                    _additivity_run(da, db, order),
                    _additivity_check(a),
                )
            )
        atoms, w = _rand_dist(rng, dim)
        dist = ic.finite_distribution(atoms, w)
        kind = "conversion" if (dim, order) in ONE_WAY_BOXES else "round_trip"
        ops.append(
            Op(
                f"{kind}{dim}x{order}",
                kind,
                _round_trip_run(dist, order, kind == "round_trip"),
                _round_trip_check(atoms, w),
            )
        )

    # partition coefficients: the GDP grid's threshold and parity, and one
    # grid whose member set is neither, so the FFT path runs
    lo, cut, hi = 20000, 50000, 80000
    gdp = _states(hi - lo + 1, range(lo, hi + 1))
    gdp_beta = ic.inverse_square_betas(gdp, 1.0)
    values = np.arange(lo, hi + 1)
    threshold = ic.Hypothesis(gdp, frozenset(np.flatnonzero(values >= cut).tolist()))
    parity = ic.Hypothesis(gdp, frozenset(np.flatnonzero(values % 2 == 0).tolist()))
    counts = {
        "threshold": oracle.threshold_counts(lo, cut, hi),
        "parity": oracle.parity_counts(hi - lo + 1),
    }
    n = 2000 if full else 200
    kappa = float(rng.uniform(0.5, 2.0))
    grid = _states(n, range(n))
    members = frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist())
    parts = [
        ("threshold", gdp_beta, threshold, 1.0, False),
        ("parity", gdp_beta, parity, 1.0, False),
        ("fft", ic.inverse_square_betas(grid, kappa), ic.Hypothesis(grid, members), kappa, True),
    ]
    counts["fft"] = oracle.crossing_counts(range(n), members)
    for name, beta, h, c, exact in parts:
        ops.append(
            Op(
                f"partition_{name}",
                "partition",
                lambda beta=beta, h=h: ic.partition_coefficient(beta, h),
                lambda got, k=counts[name], c=c, exact=exact: Verdict(
                    errors=oracle.check_partition(got, k, c, exact)
                ),
            )
        )

    # Blackwell dominance of garbled pairs, both directions
    # shapes cycle over 2..4 states x 2..4 signals x 2..m garbled signals
    shapes = [(n, m, k) for n in (2, 3, 4) for m in (2, 3, 4) for k in range(2, m + 1)]
    for idx in range(40 if full else 4):
        n, m, k = shapes[idx % len(shapes)]
        P = _stochastic(rng, n, m, 0.05)
        G = _stochastic(rng, m, k, 0.01)
        states = _states(n)
        mu = ic.Experiment(states, tuple(range(m)), P)
        nu = ic.Experiment(states, tuple(range(k)), P @ G)
        ops.append(
            Op(
                f"dominance#{idx}",
                "dominance",
                lambda mu=mu, nu=nu: (ic.blackwell_dominates(mu, nu), ic.blackwell_dominates(nu, mu)),
                _dominance_check(P, P @ G),
            )
        )
    return Batch(ops)


def _kfold_run(mu, beta):
    def run():
        single = ic.llr_cost(mu, beta)
        one = ic.llr_distribution(mu)
        acc, k = one, 1
        chain = [(1, one, ic.llr_cost_from_distribution(one, beta))]
        while k < 10 and acc.n_atoms * one.n_atoms <= 8000:
            acc = ic.convolve_llr(acc, one)
            k += 1
            chain.append((k, acc, ic.llr_cost_from_distribution(acc, beta)))
        return single, chain

    return run


def _kfold_check(P, B):
    def check(out):
        single, chain = out
        errs = oracle.check_cost(P, B, single)
        want = oracle.llr_cost(P, B)
        if chain[-1][0] < 2:
            errs.append("no repetition reached")
        for k, dist, cost in chain:
            errs += oracle.check_kfold(want, k, cost)
            errs += oracle.check_llr_atoms(np.asarray(dist.atoms), np.asarray(dist.weights))
        return Verdict(errors=errs)

    return check


def _additivity_run(da, db, order):
    def run():
        return (
            ic.cumulants(da, order),
            ic.cumulants(db, order),
            ic.cumulants(ic.convolve(da, db), order),
        )

    return run


def _additivity_check(a):
    def check(out):
        ka, kb, kc = (k.values for k in out)
        errs = oracle.check_additive(ka, kb, kc)
        errs += oracle.check_second_cumulants(a[0], a[1], ka)
        return Verdict(errors=errs)

    return check


def _round_trip_run(dist, order, back: bool):
    def run():
        m = ic.moments(dist, order)
        k = ic.moments_to_cumulants(m)
        return m, k, ic.cumulants_to_moments(k) if back else None

    return run


def _round_trip_check(atoms, w):
    def check(out):
        m, k, back = out
        errs = oracle.check_moments(atoms, w, m.values)
        errs += oracle.check_second_cumulants(atoms, w, k.values)
        if back is not None:
            errs += oracle.check_round_trip(m.values, back.values)
        return Verdict(errors=errs)

    return check


def _dominance_check(P, Q):
    ones = np.ones((P.shape[0], P.shape[0]))

    def check(out):
        forward, reverse = out
        errs = []
        if not forward:
            errs.append("an experiment does not dominate its own garbling")
        cp, cq = oracle.llr_cost(P, ones), oracle.llr_cost(Q, ones)
        if reverse and cq < cp - 1e-6 * (1.0 + cp):
            errs.append(f"a garbling costing {cq:.4g} < {cp:.4g} dominates its source")
        return Verdict(errors=errs)

    return check


# --- solve_corpus ------------------------------------------------------------


def _rand_problem(rng):
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    U = rng.uniform(-1.0, 2.0, size=(m, n))
    q = rng.uniform(0.1, 1.0, n)
    q /= q.sum()
    states = _states(n)
    return ic.DecisionProblem(states, tuple(f"a{j}" for j in range(m)), U, q), U, q


def _llr_op(label, kind, problem, beta, U, q, B, rivals, values=None):
    """solve_llr under `beta`; the checks price with the matrix B and, given
    the perception task's state `values`, check its psychometric curve."""

    def check(res):
        fault = _solve_faults(res)
        if fault:
            return Verdict(fault=fault)
        P = np.asarray(res.rule.probs)
        errs = oracle.check_llr_solve(q, U, B, P, res.cost, res.objective, rivals)
        if values is not None:
            errs += oracle.check_perception(P, values)
        return Verdict(errors=errs)

    return Op(label, kind, lambda: ic.solve_llr(problem, beta), check)


def build_solve_corpus(seed: int, scale: str, workdir: Path) -> Batch:
    full = scale == "full"
    rng = _rng(seed, 2)
    ops = []
    corpora = [
        ("corner", CORNER_CORPUS_SEED, 0.05, 5.0, 20 if full else 4),
        ("interior", INTERIOR_CORPUS_SEED, 0.005, 0.05, 25 if full else 4),
    ]
    for kind, corpus_seed, lo, hi, count in corpora:
        fixed = np.random.default_rng(corpus_seed)
        for idx in range(count):
            problem, U, q = _rand_problem(fixed)
            B = _prices(fixed, problem.n_states, lo, hi)
            rivals = oracle.random_rules(rng, 50, problem.n_states, problem.n_actions)
            beta = ic.BetaMatrix(problem.states, B)
            ops.append(_llr_op(f"{kind}#{idx}", f"llr_{kind}", problem, beta, U, q, B, rivals))
    fixed = np.random.default_rng(MI_CORPUS_SEED)
    for idx in range(25 if full else 4):
        problem, U, q = _rand_problem(fixed)
        lam = float(fixed.uniform(0.1, 2.0))

        def check(res, U=U, q=q, lam=lam):
            fault = _solve_faults(res)
            if fault:
                return Verdict(fault=fault)
            P = np.asarray(res.rule.probs)
            return Verdict(errors=oracle.check_mi_solve(q, U, lam, P, res.cost))

        ops.append(
            Op(
                f"mi#{idx}",
                "mi",
                lambda problem=problem, lam=lam: ic.solve_mutual_information(problem, lam),
                check,
            )
        )
    return Batch(ops)


# --- solve_grid --------------------------------------------------------------


def build_solve_grid(seed: int, scale: str, workdir: Path) -> Batch:
    """Perception problems and quadratic-loss grids; both are fixed by
    definition, and the seed draws the rival rules of the checks."""
    full = scale == "full"
    rng = _rng(seed, 3)
    ops = []
    for r in (10, 25, 50) if full else (10,):
        values, U, q, B = _perception_inputs(r)
        states = ic.StateSpace(tuple(str(v) for v in values), values)
        problem = ic.DecisionProblem(states, ("R", "B"), U, q)
        beta = ic.inverse_square_betas(states, 1.0)
        rivals = oracle.random_rules(rng, 50, len(values), 2)
        ops.append(
            _llr_op(f"perception{r}", "perception", problem, beta, U, q, B, rivals, values)
        )
    actions = np.linspace(0.0, 1.0, 10)
    for n in (10, 15, 20, 25, 50) if full else (10, 15):
        v = np.linspace(0.0, 1.0, n)
        U = -((actions[:, None] - v[None, :]) ** 2)
        q = np.full(n, 1.0 / n)
        states = _states(n, v)
        problem = ic.DecisionProblem(states, tuple(f"a{j}" for j in range(10)), U, q)
        beta = ic.one_dimensional_betas(states, 1.0)
        d = v[:, None] - v[None, :]
        np.fill_diagonal(d, 1.0)
        B = 1.0 / (n * (n - 1) * d**2)
        np.fill_diagonal(B, 0.0)
        rivals = oracle.random_rules(rng, 50, n, 10)
        ops.append(_llr_op(f"grid{n}x10", "grid", problem, beta, U, q, B, rivals))
    return Batch(ops, reference=_mirror_steps)


# fixed inputs of the solve_grid reference work
_MIRROR_RNG = np.random.default_rng(0)
_MIRROR_P = _MIRROR_RNG.uniform(0.1, 1.0, size=(50, 10))
_MIRROR_P /= _MIRROR_P.sum(axis=1, keepdims=True)
_MIRROR_B = _MIRROR_RNG.uniform(0.1, 1.0, size=(50, 50)) / 50.0
np.fill_diagonal(_MIRROR_B, 0.0)
_MIRROR_QU = _MIRROR_RNG.uniform(-0.02, 0.0, size=(50, 10))


def _mirror_steps():
    """The reference work of solve_grid: 40 multiplicative-weights steps on
    a fixed 50-state, 10-action rule with 50x50 prices, written here with
    numpy alone.  Its arrays have the shapes of the grid solves, so it slows
    with the host as they do; the mixed reference_work, whose sorts and FFTs
    run over larger arrays, did not follow them as closely."""
    P = _MIRROR_P
    Bsum = _MIRROR_B.sum(axis=1)[:, None]
    for _ in range(40):
        L = np.log(P)
        G = _MIRROR_QU - (Bsum * (L + 1.0) - _MIRROR_B @ L - (_MIRROR_B.T @ P) / P)
        Q = P * np.exp(0.5 * (G - G.max(axis=1, keepdims=True)))
        P = Q / Q.sum(axis=1, keepdims=True)
    return P


BUILDERS = {
    "cli": build_cli,
    "price": build_price,
    "solve_corpus": build_solve_corpus,
    "solve_grid": build_solve_grid,
}


# --- traced runs -------------------------------------------------------------


def _tally_convolve(args, result):
    return {"rows_in": args[0].n_atoms * args[1].n_atoms, "atoms_out": result.n_atoms}


def _tally_solve(args, res):
    P = np.asarray(res.rule.probs)
    return {
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "negative": bool(res.cost < 0.0),
        "ghosts": int(np.count_nonzero((P > 0.0) & (P < 1e-250))),
        "support": int(np.count_nonzero(P.max(axis=0) > oracle.SUPPORT_MIN)),
    }


TRACE_TARGETS = [
    ("infocost.experiments", "llr_distribution", "experiments.llr_distribution", None),
    ("infocost.experiments", "convolve_llr", "experiments.convolve_llr", _tally_convolve),
    ("infocost.experiments", "blackwell_dominates", "experiments.blackwell_dominates", None),
    ("infocost.costs", "llr_cost", "costs.llr_cost", None),
    ("infocost.costs", "llr_cost_from_distribution", "costs.llr_cost_from_distribution", None),
    ("infocost.costs", "partition_coefficient", "costs.partition_coefficient", None),
    ("infocost.cumulants", "moments", "cumulants.moments", None),
    ("infocost.cumulants", "moments_to_cumulants", "cumulants.moments_to_cumulants", None),
    ("infocost.cumulants", "cumulants_to_moments", "cumulants.cumulants_to_moments", None),
    ("infocost.cumulants", "convolve", "cumulants.convolve", None),
    ("infocost.solver", "solve_llr", "solver.solve_llr", _tally_solve),
    ("infocost.solver", "solve_mutual_information", "solver.solve_mi", _tally_solve),
    ("infocost.reproduce", "gdp_rows", "reproduce.gdp_rows", None),
]

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "cli.python_start_s": "s",
    "cli.numpy_import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_infocost_self_s": "s",
    "cli.import_s": "s",
    "cli.cost_s": "s",
    "cli.solve_s": "s",
    "cli.reproduce_s": "s",
    "cli.check_s": "s",
    "cli.cost_inproc_ms": "ms",
    "cli.solve_inproc_ms": "ms",
    "cli.reproduce_inproc_ms": "ms",
    "cli.check_inproc_ms": "ms",
    "experiments.convolve_llr_ms": "ms",
    "experiments.convolve_llr_calls": "count",
    "experiments.merge_rows_in": "count",
    "experiments.atoms_out": "count",
    "experiments.llr_distribution_ms": "ms",
    "experiments.blackwell_dominates_ms": "ms",
    "experiments.blackwell_dominates_calls": "count",
    "costs.llr_cost_ms": "ms",
    "costs.llr_cost_calls": "count",
    "costs.llr_cost_from_distribution_ms": "ms",
    "costs.partition_coefficient_ms": "ms",
    "cumulants.moments_ms": "ms",
    "cumulants.moments_to_cumulants_ms": "ms",
    "cumulants.cumulants_to_moments_ms": "ms",
    "cumulants.convolve_ms": "ms",
    "cumulants.conversions": "count",
    "solver.solve_llr_ms": "ms",
    "solver.solve_llr_calls": "count",
    "solver.llr_iterations": "count",
    "solver.llr_iterations_max": "count",
    "solver.ms_per_iteration": "ms",
    "solver.corner_solves": "count",
    "solver.corner_ms": "ms",
    "solver.interior_solves": "count",
    "solver.interior_ms": "ms",
    "solver.solve_mi_ms": "ms",
    "solver.mi_iterations": "count",
    "solver.mi_iterations_max": "count",
    "solver.unconverged": "count",
    "solver.negative_cost": "count",
    "solver.ghost_entries": "count",
    "solver.solve_p50_ms": "ms",
    "solver.solve_tail_ms": "ms",
    "checks.axioms_ms": "ms",
    "checks.appendix_ms": "ms",
    "reproduce.gdp_rows_ms": "ms",
    "trace.batch_s": "s",
    "trace.batch_ref": "ref",
}


def layer_metrics(tracer: Tracer, rounds: int, summary: dict) -> dict:
    """Per-layer metrics of a traced run: busy time and counts per round,
    medians for the per-call CLI figures."""
    spans = tracer.by_name()

    def per_round(x):
        return x / rounds

    def busy_ms(name):
        return per_round(1000.0 * sum(s.seconds for s in spans.get(name, ())))

    def calls(name):
        return per_round(len(spans.get(name, ())))

    def total(name, key, pick=sum):
        vals = [s.attrs.get(key, 0) for s in spans.get(name, ())]
        return float(pick(vals)) if vals else 0.0

    def median(xs, scale=1.0):
        xs = list(xs)
        return scale * statistics.median(xs) if xs else 0.0

    llr = spans.get("solver.solve_llr", [])
    mi = spans.get("solver.solve_mi", [])
    corner = [s for s in llr if s.attrs.get("support") == 1]
    interior = [s for s in llr if s.attrs.get("support", 0) > 1]
    llr_iters = total("solver.solve_llr", "iterations")
    tail = tail_value([s.seconds for s in llr + mi])
    m = {
        "cli.import_s": median(s.seconds for s in spans.get("op.cli_import", ())),
        "experiments.convolve_llr_ms": busy_ms("experiments.convolve_llr"),
        "experiments.convolve_llr_calls": calls("experiments.convolve_llr"),
        "experiments.merge_rows_in": per_round(total("experiments.convolve_llr", "rows_in")),
        "experiments.atoms_out": per_round(total("experiments.convolve_llr", "atoms_out")),
        "experiments.llr_distribution_ms": busy_ms("experiments.llr_distribution"),
        "experiments.blackwell_dominates_ms": busy_ms("experiments.blackwell_dominates"),
        "experiments.blackwell_dominates_calls": calls("experiments.blackwell_dominates"),
        "costs.llr_cost_ms": busy_ms("costs.llr_cost"),
        "costs.llr_cost_calls": calls("costs.llr_cost"),
        "costs.llr_cost_from_distribution_ms": busy_ms("costs.llr_cost_from_distribution"),
        "costs.partition_coefficient_ms": busy_ms("costs.partition_coefficient"),
        "cumulants.moments_ms": busy_ms("cumulants.moments"),
        "cumulants.moments_to_cumulants_ms": busy_ms("cumulants.moments_to_cumulants"),
        "cumulants.cumulants_to_moments_ms": busy_ms("cumulants.cumulants_to_moments"),
        "cumulants.convolve_ms": busy_ms("cumulants.convolve"),
        "cumulants.conversions": calls("cumulants.moments_to_cumulants")
        + calls("cumulants.cumulants_to_moments"),
        "solver.solve_llr_ms": busy_ms("solver.solve_llr"),
        "solver.solve_llr_calls": calls("solver.solve_llr"),
        "solver.llr_iterations": per_round(llr_iters),
        "solver.llr_iterations_max": total("solver.solve_llr", "iterations", max),
        "solver.ms_per_iteration": (
            1000.0 * sum(s.seconds for s in llr) / llr_iters if llr_iters else 0.0
        ),
        "solver.corner_solves": per_round(len(corner)),
        "solver.corner_ms": per_round(1000.0 * sum(s.seconds for s in corner)),
        "solver.interior_solves": per_round(len(interior)),
        "solver.interior_ms": per_round(1000.0 * sum(s.seconds for s in interior)),
        "solver.solve_mi_ms": busy_ms("solver.solve_mi"),
        "solver.mi_iterations": per_round(total("solver.solve_mi", "iterations")),
        "solver.mi_iterations_max": total("solver.solve_mi", "iterations", max),
        "solver.unconverged": per_round(
            sum(not s.attrs.get("converged", True) for s in llr + mi)
        ),
        "solver.negative_cost": per_round(sum(s.attrs.get("negative", False) for s in llr + mi)),
        "solver.ghost_entries": per_round(total("solver.solve_llr", "ghosts")),
        "solver.solve_p50_ms": median((s.seconds for s in llr + mi), 1000.0),
        "solver.solve_tail_ms": 1000.0 * tail if tail is not None else 0.0,
        "checks.axioms_ms": busy_ms("checks.axioms"),
        "checks.appendix_ms": busy_ms("checks.appendix"),
        "reproduce.gdp_rows_ms": busy_ms("reproduce.gdp_rows"),
        "trace.batch_s": summary["batch_s"],
        "trace.batch_ref": summary["batch_ref"],
    }
    for sub in ("cost", "solve", "reproduce", "check"):
        m[f"cli.{sub}_s"] = median(s.seconds for s in spans.get(f"op.cli_{sub}", ()))
        m[f"cli.{sub}_inproc_ms"] = median(
            (s.seconds for s in spans.get(f"cli.{sub}_inproc", ())), 1000.0
        )
    for name in ("cli.python_start_s", "cli.numpy_import_s", "cli.import_scipy_s",
                 "cli.import_infocost_self_s"):
        m[name] = median(tracer.notes.get(name, ()))
    return {name: m[name] for name in PER_LAYER}
