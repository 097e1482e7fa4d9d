"""One workload in one fresh process: set up, run operations, print a result.

run.py starts this file; it is not meant to be called by hand. The parent
passes its monotonic clock reading taken just before the spawn (``--t0``),
so ``setup_s`` spans interpreter start, imports (including qvarlab.mixture's
closed-form validation) and the workload's own set-up, up to the first timed
call. With ``--setup-only`` the process stops there.

The load is closed-loop with one caller: the next operation starts only
after the previous one has returned and been checked. Untraced runs time
every operation bare, with the reference kernel of reference.py timed
between operations, which gives ``op_ref_ratio``. Traced runs time each
operation twice on the same inputs, once bare and once with spans recorded,
alternating which goes first, which gives ``trace.overhead_frac``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter

import numpy as np

from qvarlab.states import DegenerateGroundSpaceWarning

import spans
from workloads import WORKLOADS

SCHEMA_VERSION = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_one(workload, i: int, tracer: spans.Tracer | None) -> dict:
    """Time operation i (traced when a tracer is given), then check it."""
    problems: list[str] = []
    outcome = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op = i
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = workload.run(i)
        except Exception as exc:
            problems.append(_describe(exc))
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None
    if outcome is not None:
        try:
            problems.extend(workload.check(outcome))
        except Exception as exc:
            problems.append("check raised " + _describe(exc))
    kinds = Counter(w.category.__name__ for w in caught)
    return {
        "i": i,
        "traced": tracer is not None,
        "seconds": elapsed,
        "ok": not problems,
        "returned": outcome is not None,
        "problems": problems,
        "quality": None if outcome is None else outcome.quality,
        "csv_bytes": 0 if outcome is None else outcome.csv_bytes,
        "warnings": dict(kinds),
        "degenerate_warnings": kinds.get(DegenerateGroundSpaceWarning.__name__, 0),
    }


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({os.path.basename(frame.filename)}:{frame.lineno})"


REF_MIN_CALLS = 2
REF_SHARE = 0.1


class HostSpeed:
    """The reference kernel of reference.py, run in its own process and
    timed between operations."""

    def __enter__(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
        # One BLAS thread: idle OpenBLAS threads spin for a while after each
        # call, so a multi-threaded kernel would take a core from the
        # operation that follows it.
        env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.proc = subprocess.Popen(
            [sys.executable, path], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        return self

    def measure(self, calls: int) -> float:
        """Mean wall seconds of one kernel call, over ``calls`` calls."""
        self.proc.stdin.write(f"{calls}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_ops(workload, seconds: float, trace: bool) -> tuple[list[dict], spans.Tracer | None]:
    """Operations 0, 1, ... until the next one would end past the deadline.

    At least one operation (one bare/traced pair when tracing) always runs.
    Untraced operations are each bracketed by timings of the reference
    kernel; ``ref_s`` is the mean of the two, the host's speed around the
    operation. Each timing spends about REF_SHARE of the last operation's
    time in the kernel, so that it averages the host's speed over a span
    that grows with the operation's.
    """
    if trace:
        return _run_ops(workload, seconds, spans.Tracer(), None)
    with HostSpeed() as speed:
        return _run_ops(workload, seconds, None, speed)


def _run_ops(workload, seconds, tracer, speed):
    records: list[dict] = []
    deadline = time.perf_counter() + seconds
    ref = speed.measure(REF_MIN_CALLS) if speed is not None else None
    i = 0
    while True:
        began = time.perf_counter()
        if tracer is None:
            rec = run_one(workload, i, None)
            after = speed.measure(max(REF_MIN_CALLS, math.ceil(REF_SHARE * rec["seconds"] / ref)))
            rec["ref_s"] = 0.5 * (ref + after)
            ref = after
            records.append(rec)
        else:
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            for tr in order:
                rec = run_one(workload, i, tr)
                if tr is not None:
                    rec["layers"] = spans.layer_metrics([s for s in tracer.spans if s.op == i])
                records.append(rec)
        i += 1
        step = time.perf_counter() - began
        if time.perf_counter() + step > deadline:
            return records, tracer


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(workload, records: list[dict]) -> dict:
    """Medians over untraced operations that returned, whether or not their
    checks passed: a failed check still did all the work. Operations that
    raised are left out, having stopped early, unless no operation returned.
    """
    bare = [r for r in records if not r["traced"]]
    done = [r for r in bare if r["returned"]] or bare
    times = [r["seconds"] for r in done]
    metrics = {workload.op_metric: {"value": median(times), "unit": "s", "n": len(times)}}
    if "ref_s" in done[0]:
        ratios = [r["seconds"] / r["ref_s"] for r in done]
        metrics["op_ref_ratio"] = {"value": median(ratios), "unit": "ratio", "n": len(ratios)}
        metrics["ref_s"] = {"value": median(r["ref_s"] for r in done), "unit": "s", "n": len(done)}
    if workload.quality is not None:
        name, unit = workload.quality
        values = [r["quality"] for r in done if r["quality"] is not None]
        metrics[name] = {"value": median(values), "unit": unit, "n": len(values)}
    return metrics


def per_layer(workload, records: list[dict], tracer: spans.Tracer) -> dict:
    """Counts of the first traced operation; times as medians over traced ones.

    Operation 0's inputs depend only on the seed, so its counts repeat
    exactly from run to run, whereas the number of operations that fit in
    the time budget does not.
    """
    traced = [r for r in records if r["traced"]]
    out = {}
    for name, value in traced[0]["layers"].items():
        unit = spans.LAYER_UNITS[name]
        if unit in ("s", "ns"):
            out[name] = {"value": median(r["layers"][name] for r in traced), "unit": unit, "n": len(traced)}
        else:
            out[name] = {"value": value, "unit": unit, "n": 1}
    out["states.degenerate_warnings"] = {"value": traced[0]["degenerate_warnings"], "unit": "count", "n": 1}
    out["cli.csv_bytes"] = {"value": traced[0]["csv_bytes"], "unit": "bytes", "n": 1}
    grad_s, grad_apps = grad_probe(workload, tracer)
    out["training.grad_s"] = {"value": grad_s, "unit": "s", "n": 1 if grad_apps else 0}
    out["training.grad_gate_apps"] = {"value": grad_apps, "unit": "count", "n": 1}
    ratios = []
    for i in sorted({r["i"] for r in traced}):
        pair = {r["traced"]: r["seconds"] for r in records if r["i"] == i}
        ratios.append(pair[True] / pair[False] - 1.0)
    out["trace.overhead_frac"] = {"value": median(ratios), "unit": "frac", "n": len(ratios)}
    return out


def grad_probe(workload, tracer: spans.Tracer) -> tuple[float, int]:
    """One traced public training.gradient call at the workload's config."""
    probe = workload.grad_probe()
    if probe is None:
        return 0.0, 0
    tracer.op = -1
    with tracer:
        probe()
    tracer.op = None
    probe_spans = [s for s in tracer.spans if s.op == -1]
    grad = next(s for s in probe_spans if s.name == "training.gradient")
    return grad.duration, spans.descendants_sum(probe_spans, "training.gradient", "gate_apps")


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {
            k: os.environ.get(k) for k in THREAD_VARS
        },
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    origin = time.perf_counter()
    records, tracer = run_ops(workload, args.seconds, bool(args.trace))
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    result = {
        "schema": SCHEMA_VERSION,
        "workload": workload.name,
        "op_metric": workload.op_metric,
        "env": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failures": Counter(p for r in records for p in r["problems"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "end_to_end": end_to_end(workload, records),
        "ops": [
            {k: r.get(k) for k in ("i", "traced", "seconds", "ref_s", "ok", "quality", "warnings")}
            for r in records
        ],
    }
    if tracer is not None:
        result["per_layer"] = per_layer(workload, records, tracer)
        path = os.path.join(args.out_dir, f"spans-{workload.name}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            for rec in spans.span_records(tracer.spans, origin):
                fh.write(json.dumps(rec) + "\n")
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
