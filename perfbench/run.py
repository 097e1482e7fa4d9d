"""qvarlab benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload mix5-train --seed 1 --seconds 35 --trace 0

Run from the repository root (or any checkout holding ``src/qvarlab``).
Each workload runs in its own fresh worker process (worker.py); with
``--trace 0`` a few more fresh processes only set up, so that ``setup_s``
is a median. BLAS threads are capped at the number of usable cores.

Standard output ends with two JSON lines: the full report (environment,
every metric with unit and sample count, failure causes), then the summary
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones of BENCHMARK.json (``--trace 0``) or its per-layer ones
(``--trace 1``). ``--workload all`` runs every workload in turn. Reports and
span files are also written under ``perfbench/out/``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mix5-train", "cluster8-cli", "ising10-chain")
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str | None:
    """HEAD commit, or None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process and parse the last line it prints."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    env = worker_env()
    common = ["--workload", name, "--seed", str(seed), "--out-dir", str(OUT_DIR)]
    setups = []
    if not trace:
        setups = [spawn([*common, "--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    setups.append(result.pop("setup_s"))
    result["env"]["git_commit"] = git_commit(ROOT)
    result["env"]["trace"] = trace
    result["env"]["seconds"] = seconds
    e2e = result["end_to_end"]
    e2e["setup_s"] = {"value": statistics.median(setups), "unit": "s", "n": len(setups)}
    e2e["peak_rss_mb"] = {"value": result.pop("peak_rss_mb"), "unit": "MB", "n": 1}
    e2e["fail_frac"] = {"value": result["failed"] / result["attempted"], "unit": "frac", "n": result["attempted"]}
    result["setup_samples_s"] = setups
    return result


def summary(report: dict, trace: int) -> dict:
    """The contract line: BENCHMARK.json's end-to-end or per-layer metrics."""
    if trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["per_layer"].items()}
    else:
        e2e = report["end_to_end"]
        metrics = {
            "setup_s": {"value": e2e["setup_s"]["value"], "unit": "s"},
            "op_ref_ratio": {"value": e2e["op_ref_ratio"]["value"], "unit": "ratio"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"]["value"], "unit": "MB"},
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qvarlab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qvarlab" / "__init__.py").is_file():
        print(f"qvarlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            report = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            path = OUT_DIR / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(report, indent=1) + "\n")
            print(json.dumps(report), flush=True)
            lines.append((name, summary(report, args.trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for _, s in lines),
            "attempted": sum(s["attempted"] for _, s in lines),
            "failed": sum(s["failed"] for _, s in lines),
            "metrics": {f"{n}/{k}": v for n, s in lines for k, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
