"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload builds its fixed inputs in ``__init__`` (counted as set-up),
runs one operation per ``run(i)`` call (the timed unit) and returns the list
of problems ``check`` finds in that operation's outputs. Operation ``i``
draws its seeds from ``(seed, i)`` only, so a run can be repeated exactly.
Why each workload exists is written down in README.md beside this file.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from qvarlab import circuits, cli, fisher, observables, training
from qvarlab.mixture import MixtureModel

MIX_MAX_ITERS = 5
CLUSTER_MAX_ITERS = 3
CLUSTER_EVAL_POINTS = 4
# m=1 would hit a known defect on some seeds: with two outcomes the adjusted
# variance equals 1/I_c exactly, and fisher.bound_chain's absolute CHAIN_TOL
# reads rounding at 1/I_c ~ 1e3-1e6 as a chain violation. See README.md and
# test_cli_m1_has_no_chain_violation in tests/.
CLUSTER_M = 2
ISING_GRID = np.linspace(0.05, 2.0, 40)  # the CLI's Ising label window
ALLOWED_CSV_FLAGS = {"", "boundary", "nonconverged", "zero-slope"}
LOSS_RTOL = 1e-9


def child_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one operation produced: its quality figure and raw data to check."""

    quality: float | None = None
    csv_bytes: int = 0
    data: object = None


def random_probe(seed, trainset, circuit, m) -> Callable[[], np.ndarray]:
    """One public ``training.gradient`` call at a workload's config, seeded."""
    rng = np.random.default_rng([seed, 1])
    lambdas = rng.standard_normal(2**m)
    theta = rng.uniform(0.0, 2.0 * np.pi, circuit.param_count)
    config = training.TrainConfig()
    # looked up at call time, so that a traced run sees the rebound name
    return lambda: training.gradient(lambdas, theta, trainset, config, circuit, m)


def cluster_trainset(n: int, points: int) -> training.TrainSet:
    family = cli.FAMILY_BUILDERS["cluster"](cli.ExperimentConfig("cluster", n=n))
    lo, hi = cli.LABEL_RANGES["cluster"]
    return training.make_trainset(family, points, lo, hi)


class Mix5Train:
    """One restart of ``training.train`` on the n=5 mixture (dense engine mode)."""

    name = "mix5-train"
    op_metric = "train_s"
    quality = ("final_loss", "loss")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        family = MixtureModel(n=5, r=0.25).family()
        self.trainset = training.make_trainset(family, 10, 0.0, 1.0)
        self.circuit = circuits.hea(5, 5)
        self.m = 3
        self.config = training.TrainConfig(restarts=1, max_iters=MIX_MAX_ITERS)

    def run(self, i: int) -> Outcome:
        config = replace(self.config, seed=child_seed(self.seed, i))
        result = training.train(self.circuit, self.m, self.trainset, config)
        return Outcome(quality=result.loss, data=(config, result))

    def check(self, outcome: Outcome) -> list[str]:
        config, result = outcome.data
        history = np.asarray(result.loss_history)
        problems = []
        if not np.all(np.isfinite(history)):
            problems.append("non-finite loss in loss_history")
        if np.any(np.diff(history) > 0.0):
            problems.append("loss_history increases")
        again = training.loss(
            result.lambdas, result.theta, self.trainset, config, self.circuit, self.m
        )
        if not abs(again - result.loss) <= LOSS_RTOL * abs(result.loss):
            problems.append(f"training.loss gives {again!r}, TrainResult.loss {result.loss!r}")
        return problems

    def grad_probe(self) -> Callable[[], np.ndarray]:
        return random_probe(self.seed, self.trainset, self.circuit, self.m)


class Cluster8Cli:
    """One in-process ``qvarlab cluster`` run: train a qcnn readout, write CSVs."""

    name = "cluster8-cli"
    op_metric = "experiment_s"
    quality = ("mean_sq_error", "label2")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.argv = [
            "cluster", "--n", "8", "--m", str(CLUSTER_M), "--ansatz", "qcnn",
            "--restarts", "1", "--max-iters", str(CLUSTER_MAX_ITERS),
            "--train-points", "10", "--eval-points", str(CLUSTER_EVAL_POINTS),
        ]

    def run(self, i: int) -> Outcome:
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            prefix = os.path.join(tmp, "cluster8")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main([*self.argv, "--seed", str(child_seed(self.seed, i)), "--out", prefix])
            csv_path = f"{prefix}_m{CLUSTER_M}.csv"
            text = None
            if os.path.exists(csv_path):
                with open(csv_path) as fh:
                    text = fh.read()
            listed = [os.path.relpath(p, tmp) for p in printed.getvalue().split()]
        rows = [line.split(",") for line in text.splitlines()] if text else []
        sq = [float(r[2]) for r in rows[1:] if len(r) == 8 and r[2]]
        return Outcome(
            quality=sum(sq) / len(sq) if sq else None,
            csv_bytes=len(text.encode()) if text else 0,
            data=(code, listed, rows),
        )

    def check(self, outcome: Outcome) -> list[str]:
        code, listed, rows = outcome.data
        if code != 0:
            return [f"cli.main exit code {code}"]
        problems = []
        if listed != [f"cluster8_m{CLUSTER_M}.csv", "cluster8_config.txt"]:
            problems.append(f"cli.main reported files {listed}")
        if not rows or ",".join(rows[0]) != cli.CSV_HEADER:
            return problems + ["CSV header differs from cli.CSV_HEADER"]
        body = rows[1:]
        if len(body) != CLUSTER_EVAL_POINTS:
            problems.append(f"{len(body)} CSV rows for {CLUSTER_EVAL_POINTS} eval points")
        for row in body:
            if len(row) != 8:
                problems.append(f"CSV row has {len(row)} fields")
                continue
            if any(not row[k] for k in range(4)):
                problems.append(f"missing alpha, prediction, sq_error or variance in row {row}")
            if any(v and not math.isfinite(float(v)) for v in row[:7]):
                problems.append(f"non-finite value in row {row}")
            flags = set(row[7].split("+"))
            if not flags <= ALLOWED_CSV_FLAGS:
                problems.append(f"flag {row[7]!r} at alpha={row[0]}")
        return problems

    def grad_probe(self) -> Callable[[], np.ndarray]:
        return random_probe(self.seed, cluster_trainset(8, 10), circuits.qcnn(8), CLUSTER_M)


class Ising10Chain:
    """``fisher.bound_chain`` at one grid point of the n=10 Ising ring family."""

    name = "ising10-chain"
    op_metric = "point_s"
    quality = None

    def __init__(self, seed: int, out_dir: str):
        self.family = cli.FAMILY_BUILDERS["ising"](cli.ExperimentConfig("ising", n=10))
        circuit = circuits.hea(10, 2)
        rng = np.random.default_rng([seed, 2])
        self.theta = rng.uniform(0.0, 2.0 * np.pi, circuit.param_count)
        self.obs = observables.ParamObservable(
            circuit=circuit, m=3, lambdas=rng.standard_normal(8)
        )
        # h=0.05 leads every run: its gap is below states.GAP_TOL, a known defect
        self.alphas = [float(ISING_GRID[0]), *map(float, rng.permutation(ISING_GRID[1:]))]

    def run(self, i: int) -> Outcome:
        alpha = self.alphas[i % len(self.alphas)]
        reports = fisher.bound_chain(self.obs, self.theta, self.family, [alpha], on_violation="flag")
        return Outcome(data=(alpha, reports))

    def check(self, outcome: Outcome) -> list[str]:
        alpha, reports = outcome.data
        if len(reports) != 1 or reports[0].alpha != alpha:
            return [f"expected one report at alpha={alpha}"]
        rep = reports[0]
        values = (rep.adjusted_variance, rep.inv_cfi, rep.inv_qfi)
        if not all(math.isfinite(v) for v in values):
            return [f"non-finite report at alpha={alpha}: {values}"]
        tol = fisher.CHAIN_TOL
        if rep.adjusted_variance < rep.inv_cfi - tol or rep.inv_cfi < rep.inv_qfi - tol:
            return [f"bound chain out of order at alpha={alpha}: {values}"]
        return []

    def grad_probe(self) -> None:
        return None


WORKLOADS = {w.name: w for w in (Mix5Train, Cluster8Cli, Ising10Chain)}
