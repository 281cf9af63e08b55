"""Benchmark of infocost: one workload per run, result as a JSON last line.

    python3 perfbench/run.py --workload cli|price|solve_corpus|solve_grid \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 the run wraps the package's public
functions in spans and the last line carries the per-layer metrics.  A
results file goes to .perfbench/results/ and, when traced, the spans to
.perfbench/spans/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread, fixed before numpy loads: solves replay bit for
# bit and the load stays within the machine's two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
DEFAULT_SEED = 17

END_TO_END = {"setup_s": "s", "batch_ref": "ref", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload", required=True, choices=("cli", "price", "solve_corpus", "solve_grid")
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str) -> dict:
    """Set up, measure and check one workload; returns the results record."""
    import harness
    import workloads

    build = workloads.BUILDERS[workload]
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    tracer = harness.Tracer() if traced else None
    try:
        setup_times = []
        for _ in range(SETUP_REPS if scale == "full" else 1):
            t0 = time.perf_counter()
            workloads.fresh_import()
            batch = build(seed, scale, workdir)
            setup_times.append(time.perf_counter() - t0)
        probe = None
        if traced and batch.probe is not None:
            probe = lambda: batch.probe(tracer)  # noqa: E731
        if traced:
            with tracer.installed(workloads.TRACE_TARGETS):
                rounds = harness.run_rounds(batch, seconds, tracer, probe)
        else:
            rounds = harness.run_rounds(batch, seconds, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = harness.summarize(rounds)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "batch_ref": summary["batch_ref"],
        "peak_rss_mb": harness.peak_rss_mb(include_children=workload == "cli"),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "scale": scale,
        "environment": harness.environment(),
        "rounds": summary["rounds"],
        "batch_s": summary["batch_s"],
        "reference_s": summary["reference_s"],
        "round_s": summary["round_s"],
        "per_op": summary["per_op"],
        "ops_per_round": len(batch.ops),
        "setup_times_s": setup_times,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "correct": summary["correct"],
        "failures": summary["failures"],
        "errors": summary["errors"],
        "end_to_end": e2e,
    }
    if traced:
        record["per_layer"] = workloads.layer_metrics(tracer, len(rounds), summary)
        record["spans"] = len(tracer.spans)
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.dump(str(OUT / "spans" / f"{workload}_seed{seed}.json"))
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "infocost" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'infocost'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), "full")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(OUT / "results" / name, "w") as fh:
        json.dump(record, fh, indent=2)

    if args.trace:
        import workloads

        metrics = {k: {"value": record["per_layer"][k], "unit": u} for k, u in workloads.PER_LAYER.items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    for item in record["failures"]:
        print(f"failed: {item['op']}: {item['reason']}", file=sys.stderr)
    for item in record["errors"]:
        print(f"WRONG: {item['op']}: {item['reason']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
