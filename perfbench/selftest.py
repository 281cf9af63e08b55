"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at tiny size, traced and untraced, and checks the
metric names against BENCHMARK.json.  Then it feeds each correctness check
one deliberately corrupted output and requires the check to flag it: a check
that cannot fail would pass a broken program.  Exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run as bench

sys.path.insert(0, str(bench.ROOT / "src"))

import numpy as np  # noqa: E402

import infocost as ic  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

KNOWN_FAULTS = ("negative cost", "not converged")
WORKDIR = bench.OUT / "work" / "selftest"
problems: list[str] = []


def expect(flagged: bool, what: str):
    print(f"{'ok  ' if flagged else 'MISS'} {what}")
    if not flagged:
        problems.append(what)


def tiny_runs():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    expect(e2e == list(bench.END_TO_END), "end-to-end names match BENCHMARK.json")
    expect(layers == list(workloads.PER_LAYER), "per-layer names match BENCHMARK.json")
    for w in spec["workloads"]:
        for traced in (False, True):
            rec = bench.run(w["name"], seed=5, seconds=0.0, traced=traced, scale="tiny")
            tag = f"{w['name']} tiny run (trace {int(traced)})"
            expect(rec["correct"] and rec["attempted"] >= 1, f"{tag} correct: {rec['errors']}")
            odd = [f for f in rec["failures"] if not f["reason"].startswith(KNOWN_FAULTS)]
            expect(not odd, f"{tag} fails only by the known faults: {odd}")
            metrics = rec["per_layer"] if traced else rec["end_to_end"]
            expect(
                all(isinstance(v, float) and math.isfinite(v) for v in metrics.values()),
                f"{tag} reports finite metrics",
            )


def ops_of(name: str):
    batch = workloads.BUILDERS[name](5, "tiny", WORKDIR)
    return {op.label: op for op in batch.ops}


def flags(op, out) -> bool:
    v = op.check(out)
    return v.fault is not None or bool(v.errors)


def first(ops, kind):
    return next(op for op in ops.values() if op.kind == kind)


def corrupt_price():
    ops = ops_of("price")
    op = first(ops, "kfold")
    single, chain = op.run()
    expect(not flags(op, (single, chain)), "k-fold check passes the real output")
    expect(flags(op, (single * (1 + 1e-7), chain)), "k-fold check flags a shifted single cost")
    k, dist, cost = chain[-1]
    expect(flags(op, (single, chain[:-1] + [(k, dist, cost * (1 + 1e-7))])),
           "k-fold check flags a shifted k-fold cost")
    w = np.array(dist.weights)
    w[0, [0, 1]] = w[0, [1, 0]]
    swapped = ic.LLRDistribution(dist.atoms, w)
    expect(flags(op, (single, chain[:-1] + [(k, swapped, cost)])),
           "k-fold check flags a swapped atom weight")

    op = first(ops, "llr_cost")
    got = op.run()
    expect(not flags(op, got) and flags(op, got * (1 + 1e-8)), "dense cost check flags a shifted cost")

    op = first(ops, "bernoulli")
    kappa = op.run()
    bad = dict(kappa.values)
    bad[(3,)] += 1e-9
    expect(not flags(op, kappa) and flags(op, ic.CumulantVector(1, 4, bad)),
           "Bernoulli check flags a perturbed cumulant")

    op = next(o for o in ops.values() if o.label == "additivity2x3")
    ka, kb, kc = op.run()
    expect(not flags(op, (ka, kb, kc)), "additivity check passes the real output")
    bad = dict(kc.values)
    bad[(1, 2)] += 1e-6
    expect(flags(op, (ka, kb, ic.CumulantVector(2, 3, bad))), "additivity check flags a perturbed sum")
    # the same shift in a summand and in the sum keeps additivity, so only
    # the covariance check can see it
    bad_a, bad_c = dict(ka.values), dict(kc.values)
    bad_a[(1, 1)] += 1e-9
    bad_c[(1, 1)] += 1e-9
    expect(flags(op, (ic.CumulantVector(2, 3, bad_a), kb, ic.CumulantVector(2, 3, bad_c))),
           "covariance check flags a perturbed mixed second cumulant")

    op = first(ops, "round_trip")
    m, k, back = op.run()
    expect(not flags(op, (m, k, back)), "round-trip check passes the real output")
    bad = dict(back.values)
    key = next(iter(bad))
    bad[key] += 1e-8
    expect(flags(op, (m, k, ic.MomentVector(back.dim, back.order, bad))),
           "round-trip check flags a perturbed moment")

    for name in ("partition_threshold", "partition_fft"):
        op = ops[name]
        got = op.run()
        expect(not flags(op, got) and flags(op, got * (1 + 1e-11) if "threshold" in name
                                               else math.nextafter(got, math.inf)),
               f"{name} check flags a shifted coefficient")

    op = first(ops, "dominance")
    out = op.run()
    expect(out[0] and not flags(op, out), "dominance check passes the real output")
    expect(flags(op, (False, out[1])), "dominance check flags a garbling not dominated")
    expect(flags(op, (True, True)), "dominance check flags a cheaper garbling that dominates")


def corrupt_solvers():
    ops = ops_of("solve_corpus")
    for op in (o for o in ops.values() if o.kind == "llr_interior"):
        res = op.run()
        P = np.array(res.rule.probs)
        if op.check(res).fault is None and np.sum(P.max(axis=0) > oracle.SUPPORT_MIN) > 1:
            break
    expect(not flags(op, res), f"{op.label}: solve check passes the real output")
    sup = np.flatnonzero(P.max(axis=0) > oracle.SUPPORT_MIN)
    i = int(np.argmax(P[:, sup].min(axis=1)))
    Q = P.copy()
    Q[i, sup[0]] -= 1e-4
    Q[i, sup[1]] += 1e-4
    expect(flags(op, dataclasses.replace(res, rule=ic.ChoiceRule(Q))),
           "solve check flags a perturbed rule")
    expect(flags(op, dataclasses.replace(res, cost=res.cost + 1e-6)), "solve check flags a shifted cost")
    expect(flags(op, dataclasses.replace(res, cost=-1e-300)), "solve check fails a negative cost")
    expect(flags(op, dataclasses.replace(res, converged=False)), "solve check fails a non-converged solve")
    q, U, B = np.full(2, 0.5), np.eye(2), np.array([[0.0, 1e-3], [1e-3, 0.0]])
    uniform = np.full((2, 2), 0.5)
    rival = np.array([[0.9, 0.1], [0.1, 0.9]])
    errs = oracle.check_llr_solve(q, U, B, uniform, 0.0, 0.5, rival[None])
    expect(any("rival" in e for e in errs), "solve check flags a rival rule that wins")

    op = first(ops, "mi")
    res = op.run()
    P = np.array(res.rule.probs)
    Q = 0.999 * P + 0.001 / P.shape[1]
    expect(not flags(op, res) and flags(op, dataclasses.replace(res, rule=ic.ChoiceRule(Q))),
           "MI check flags a rule off its logit form")
    expect(flags(op, dataclasses.replace(res, cost=res.cost + 1e-6)), "MI check flags a shifted cost")

    ops = ops_of("solve_grid")
    op = ops["perception10"]
    res = op.run()
    P = np.array(res.rule.probs)
    expect(not flags(op, res), "perception check passes the real output")
    expect(bool(oracle.check_perception(P[::-1], range(P.shape[0]))),
           "perception check flags a decreasing P(guess B)")
    n = P.shape[0]
    steep = np.where(np.arange(n)[:, None] < n // 2, [[0.9, 0.1]], [[0.1, 0.9]])
    expect(bool(oracle.check_perception(steep, 0.1 * np.arange(n))),
           "perception check flags a rule moving faster than its Lipschitz bound")
    res = ops["grid15x10"].run()
    expect(ops["grid15x10"].check(res).fault is not None, "grid check fails a non-converged solve")


def edited(proc, **changes) -> subprocess.CompletedProcess:
    fields = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    fields.update(changes)
    return subprocess.CompletedProcess(proc.args, **fields)


def corrupt_cli():
    ops = ops_of("cli")
    outs = {label: op.run() for label, op in ops.items()}
    for label, op in ops.items():
        expect(not flags(op, outs[label]), f"{label} check passes the real output")
    broken = edited(outs["cli_import"], returncode=1)
    expect(flags(ops["cli_import"], broken), "cli_import check fails a non-zero exit")

    def edit_json(label, key, fn):
        obj = json.loads(outs[label].stdout)
        obj[key] = fn(obj[key])
        return edited(outs[label], stdout=json.dumps(obj))

    expect(flags(ops["cli_cost"], edit_json("cli_cost", "cost", lambda c: c * (1 + 1e-8))),
           "cli_cost check flags a shifted cost")
    expect(flags(ops["cli_cost"], edit_json("cli_cost", "cost_via_posteriors", lambda c: c + 1e-8)),
           "cli_cost check flags a shifted posterior-route cost")

    def nudge(rule):
        rule[3] = [rule[3][0] - 1e-4, rule[3][1] + 1e-4]
        return rule

    expect(flags(ops["cli_solve"], edit_json("cli_solve", "rule", nudge)),
           "cli_solve check flags a perturbed rule")
    text = outs["cli_reproduce"].stdout.replace("H1,2", "H1,3")
    expect(flags(ops["cli_reproduce"], edited(outs["cli_reproduce"], stdout=text)),
           "cli_reproduce check flags a wrong coefficient")
    text = outs["cli_check"].stdout.replace("PASS", "FAIL", 1)
    expect(flags(ops["cli_check"], edited(outs["cli_check"], stdout=text)),
           "cli_check check flags a failed property")


def main() -> int:
    try:
        corrupt_price()
        corrupt_solvers()
        corrupt_cli()
        tiny_runs()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
