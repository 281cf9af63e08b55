"""Timing loop, span tracer and statistics of the benchmark.

Nothing here imports infocost; the workloads hand in their operations as
plain callables and the tracer patches the package's public functions only
while a traced run is in progress.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    """One operation of a workload's batch.

    `run` does the timed work and returns its output; `check` looks at that
    output outside the timed span and returns a Verdict.
    """

    label: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "Verdict"]


@dataclass
class Verdict:
    """`fault` names a failure the program itself commits (an exception, a
    non-zero exit, a non-converged or negative-cost solve); `errors` lists
    outputs that disagree with the independent computation."""

    fault: str | None = None
    errors: list[str] = field(default_factory=list)


# fixed inputs of the in-process reference work; the same in every run
_REF_RNG = np.random.default_rng(0)
_REF_RULE = _REF_RNG.uniform(0.1, 1.0, size=(5, 4))
_REF_PRIOR = _REF_RNG.uniform(0.1, 1.0, 5)
_REF_VECTOR = _REF_RNG.random(60_000)
_REF_MATRIX = _REF_RNG.random((120, 120))


def reference_work() -> None:
    """About 7 ms of fixed work that does not touch the package: a plain
    Python loop, a fixed-point loop over a 5x4 array (the shape of a small
    solve) and sorting, a product, an FFT and a unique over larger arrays.

    The host this runs on switches between a fast and a slow state (about
    1.6 times slower for this mix) within seconds, and stays longer in one
    or the other over minutes.  Timed just before and just after every
    operation, this mix gives the host's speed at that moment for code like
    the package's.  It is the default reference of a Batch; workloads whose
    code differs from it (long solves, fresh interpreters) bring their own."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    P = _REF_RULE
    for _ in range(300):
        L = np.log(P / (_REF_PRIOR @ P))
        P = np.exp(L - L.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
    np.sort(_REF_VECTOR)
    _REF_MATRIX @ _REF_MATRIX
    np.fft.rfft(_REF_VECTOR)
    np.unique(np.round(_REF_VECTOR, 3))


@dataclass
class Batch:
    """A workload's operations, what a traced run measures between rounds
    besides them, and the reference work timed around every operation."""

    ops: list[Op]
    probe: Callable[["Tracer"], None] | None = None
    reference: Callable[[], Any] = reference_work


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the package's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def _open(self):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, start, name, attrs):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.op, attrs))

    @contextmanager
    def span(self, name: str):
        """Span around a block; the yielded dict becomes its attributes."""
        attrs: dict = {}
        sid, parent, start = self._open()
        try:
            yield attrs
        finally:
            self._close(sid, parent, start, name, attrs)

    @contextmanager
    def op_span(self, op: "Op"):
        """Root span of one operation; spans opened inside carry its id."""
        self.op = next(self._ids)
        try:
            with self.span("op." + op.kind) as attrs:
                attrs["label"] = op.label
                yield
        finally:
            self.op = None

    def note(self, name: str, value: float):
        """A measured value that is not a span, such as an import self-time."""
        self.notes[name].append(float(value))

    def wrap(self, fn, name: str, tally=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            attrs: dict = {}
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, start, name, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            self._stack.pop()
            if tally is not None:
                attrs = tally(args, result)
            self.spans.append(Span(sid, name, start, end, parent, self.op, attrs))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each (module, function, span name, tally) target by a
        traced wrapper in every loaded module of the package, so calls made
        inside the package are traced too; restore the originals on exit."""
        saved = []
        for modname, attr, name, tally in targets:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(original, name, tally)
            package = modname.split(".")[0]
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith(package):
                    continue
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
                    saved.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s)
        return out

    def dump(self, path: str):
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "notes": self.notes}, fh)


def tail_value(values) -> float | None:
    """The highest whole percentile with at least ten samples above it, by
    nearest rank; None with fewer than forty samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 40:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return xs[max(1, math.ceil(p / 100.0 * n)) - 1]


# each reference slot repeats the reference work for at least this share of
# the longer of the two operations beside it, and at least once: a few
# milliseconds of it cannot stand for the host's speed over a solve of
# seconds
REFERENCE_SHARE = 0.25


@dataclass
class RoundLog:
    seconds: float
    # (op label, seconds, mean seconds of one reference repetition in the
    # slots just before and just after the operation)
    durations: list[tuple[str, float, float]]
    verdicts: list[tuple[str, Verdict]]


def _reference_slot(reference, seconds: float) -> tuple[float, int]:
    """Repeat `reference` until `seconds` have passed, at least once;
    returns the time taken and the number of repetitions."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        reference()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed, reps


def run_round(batch: Batch, tracer: Tracer | None, previous: list[float] | None = None) -> RoundLog:
    """One round of the batch with a reference slot before, between and
    after its operations.  `previous` holds the operations' times in the
    last round; it sizes each slot before an operation is run."""
    ops = batch.ops
    ahead = list(previous or [0.0] * len(ops)) + [0.0]
    times = []
    slots = [_reference_slot(batch.reference, REFERENCE_SHARE * ahead[0])]
    outputs = []
    for j, op in enumerate(ops):
        with tracer.op_span(op) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            out = _guarded(op.run)
            times.append(time.perf_counter() - t0)
        slots.append(_reference_slot(batch.reference, REFERENCE_SHARE * max(times[j], ahead[j + 1])))
        outputs.append(out)
    durations = [
        (op.label, dt, (slots[j][0] + slots[j + 1][0]) / (slots[j][1] + slots[j + 1][1]))
        for j, (op, dt) in enumerate(zip(ops, times))
    ]
    verdicts = []
    for op, out in zip(ops, outputs):
        if isinstance(out, _Raised):
            verdicts.append((op.label, Verdict(fault=out.reason)))
            continue
        try:
            verdicts.append((op.label, op.check(out)))
        except Exception as exc:  # a check that cannot read the output
            verdicts.append(
                (op.label, Verdict(errors=[f"check raised {type(exc).__name__}: {exc}"]))
            )
    return RoundLog(sum(d for _, d, _ in durations), durations, verdicts)


@dataclass
class _Raised:
    reason: str


def _guarded(fn):
    try:
        return fn()
    except Exception as exc:
        return _Raised(f"raised {type(exc).__name__}: {exc}")


def run_rounds(batch, seconds, tracer, between=None) -> list[RoundLog]:
    """Whole rounds of the same operations until `seconds` have passed; at
    least one.  `between` runs after each round, outside its timing."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        previous = [d for _, d, _ in rounds[-1].durations] if rounds else None
        rounds.append(run_round(batch, tracer, previous))
        if between is not None:
            between()
    return rounds


def summarize(rounds: list[RoundLog]) -> dict:
    """Counts, failures and end-to-end timing of a set of rounds."""
    attempted = sum(len(r.durations) for r in rounds)
    faults: dict[tuple[str, str], int] = defaultdict(int)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    failed = 0
    for r in rounds:
        for label, v in r.verdicts:
            if v.fault is not None:
                failed += 1
                faults[(label, v.fault)] += 1
            else:
                for e in v.errors:
                    errors[(label, e)] += 1
    per_op: dict[str, list[float]] = defaultdict(list)
    per_op_ref: dict[str, list[float]] = defaultdict(list)
    refs = []
    for r in rounds:
        for label, d, ref in r.durations:
            per_op[label].append(d)
            per_op_ref[label].append(d / ref)
            refs.append(ref)
    return {
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "failures": [
            {"op": op, "reason": why, "rounds": n} for (op, why), n in faults.items()
        ],
        "errors": [
            {"op": op, "reason": why, "rounds": n} for (op, why), n in errors.items()
        ],
        # each operation at its median over the rounds, so that one slow
        # round on a shared machine does not set the figure
        "batch_s": sum(statistics.median(ds) for ds in per_op.values()),
        # the same in units of the reference work timed around each
        # operation, which takes out the host's drift in speed
        "batch_ref": sum(statistics.median(xs) for xs in per_op_ref.values()),
        "reference_s": statistics.median(refs),
        "per_op": {
            label: {"seconds": per_op[label], "in_ref": per_op_ref[label]} for label in per_op
        },
        "round_s": [r.seconds for r in rounds],
    }


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }
