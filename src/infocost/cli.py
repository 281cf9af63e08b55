"""Command-line interface.

Subcommands: cost (price an experiment), solve (optimal acquisition in a
decision problem), reproduce (regenerate the worked numerical examples as
CSV), check (run the randomized property suites).

Exit codes: 0 success, 1 property violation, 2 input error, 3 solver
non-convergence.  All output is deterministic given inputs and options;
CSV files carry a header row and 9-significant-digit numbers.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .checks import run_suite
from .costs import beta_from_json, kl_matrix, llr_cost_via_posteriors
from .errors import ValidationError
from .experiments import experiment_from_json
from .reproduce import reproduce_rows
from .solver import SolveOptions, problem_from_json, solve_llr, solve_mutual_information


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.9g}"
    return str(x)


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv(header, rows) -> str:
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_prior(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"bad prior {text!r}: {exc}") from None


def _cmd_cost(args) -> int:
    mu = experiment_from_json(_load_json(args.experiment))
    beta = beta_from_json(_load_json(args.beta), states=mu.states)
    kl = kl_matrix(mu)
    coef = beta.dense()
    cost = float(np.sum(coef * kl))  # llr_cost(mu, beta), reusing kl
    report = {"cost": cost}
    if args.prior is not None:
        prior = _parse_prior(args.prior)
        via = llr_cost_via_posteriors(mu, beta, prior)
        report["cost_via_posteriors"] = via
        report["delta"] = abs(cost - via)
    if args.format == "json":
        report["kl"] = kl.tolist()
        report["beta"] = coef.tolist()
        _write(json.dumps(report, indent=2) + "\n", args.out)
    else:
        rows = [("cost", "", "", cost)]
        for key in ("cost_via_posteriors", "delta"):
            if key in report:
                rows.append((key, "", "", report[key]))
        labels = mu.states.labels
        for i in range(mu.n_states):
            for j in range(mu.n_states):
                if i != j:
                    rows.append(("kl", labels[i], labels[j], kl[i, j]))
                    rows.append(("beta", labels[i], labels[j], coef[i, j]))
        _write(_csv(("quantity", "state_i", "state_j", "value"), rows), args.out)
    return 0


def _cmd_solve(args) -> int:
    problem = problem_from_json(_load_json(args.problem))
    opts = SolveOptions(tol=args.tol)
    if args.cost == "llr":
        if args.beta is None:
            raise ValidationError("--cost llr needs --beta")
        beta = beta_from_json(_load_json(args.beta), states=problem.states)
        result = solve_llr(problem, beta, opts)
    else:
        lam = 1.0 if args.lam is None else args.lam
        result = solve_mutual_information(problem, lam, opts)
    _write(json.dumps(result.to_dict(), indent=2) + "\n", args.out)
    if not result.converged:
        sys.stderr.write(f"did not converge: {result.summary()}\n")
        return 3
    return 0


def _cmd_reproduce(args) -> int:
    header, rows = reproduce_rows(
        args.name,
        kappa=args.kappa,
        lam=args.lam,
        r=args.r,
        k=args.k,
        epsilon=args.epsilon,
    )
    _write(_csv(header, rows), args.out)
    return 0


def _cmd_check(args) -> int:
    results = run_suite(args.suite, seed=args.seed, trials=args.trials)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name}: trials={r.trials} max_dev={r.max_deviation:.3g} "
            f"bound={r.bound:.3g} {status}"
        )
    if failed:
        print(f"{len(failed)} properties violated", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocost",
        description="Log-likelihood-ratio information costs: price "
        "experiments, solve decision problems, reproduce worked examples, "
        "check properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="price an experiment")
    p.add_argument("--experiment", required=True, help="experiment JSON file")
    p.add_argument("--beta", required=True, help="coefficient JSON file")
    p.add_argument("--prior", help="comma-separated prior, e.g. 0.5,0.5")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("solve", help="optimal information acquisition")
    p.add_argument("--problem", required=True, help="decision problem JSON file")
    p.add_argument("--cost", choices=("llr", "mi"), required=True)
    p.add_argument("--beta", help="coefficient JSON file (llr)")
    p.add_argument("--lambda", dest="lam", type=float, help="MI price (mi)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reproduce", help="regenerate a worked example as CSV")
    p.add_argument(
        "name", choices=("coinflip", "perception", "gdp", "swans")
    )
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--r", type=int, default=10, help="perception half-width")
    p.add_argument("--k", type=int, default=20, help="max flips (coinflip)")
    p.add_argument("--epsilon", type=float, help="single epsilon (swans)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("check", help="run randomized property suites")
    p.add_argument("--suite", choices=("axioms", "appendix", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


def entry():
    sys.exit(main())
