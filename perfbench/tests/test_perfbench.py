"""Exact work counters and the benchmark's own contract.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import worker
from workloads import WORKLOADS, cluster_trainset, random_probe

from qvarlab import circuits, cli, training
from qvarlab.mixture import MixtureModel

ROOT = Path(__file__).resolve().parents[2]


def _gradient_gate_apps(trainset, circuit, m):
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer:
        random_probe(7, trainset, circuit, m)()
    return spans.descendants_sum(tracer.spans, "training.gradient", "gate_apps")


def test_gradient_gate_apps_hea_mixture():
    trainset = training.make_trainset(MixtureModel(n=5, r=0.25).family(), 3, 0.0, 1.0)
    assert _gradient_gate_apps(trainset, circuits.hea(5, 5), 3) == 5040


@pytest.mark.parametrize("circuit, expected", [
    (circuits.qcnn(8), 4466),
    (circuits.hva_cluster(8, 10), 960),
])
def test_gradient_gate_apps_cluster(circuit, expected):
    assert _gradient_gate_apps(cluster_trainset(8, 2), circuit, 1) == expected


def test_tracer_restores_every_name():
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.INSTRUMENTED]
    with spans.Tracer():
        wrapped = [owner.__dict__[attr] for owner, attr, _, _ in spans.INSTRUMENTED]
    after = [owner.__dict__[attr] for owner, attr, _, _ in spans.INSTRUMENTED]
    assert after == before
    assert all(w is not b for w, b in zip(wrapped, before))


def test_self_time_subtracts_direct_children():
    parent = spans.Span(0, "cli.main", 0.0, None, 0, end=10.0)
    child = spans.Span(1, "training.train", 1.0, 0, 0, end=7.0)
    grandchild = spans.Span(2, "circuits.apply_circuit", 2.0, 1, 0, end=5.0)
    selfs = spans.self_times([parent, child, grandchild])
    assert selfs == {0: 4.0, 1: 3.0, 2: 3.0}


def _traced_counters(workload):
    records, tracer = worker.run_ops(workload, seconds=0.0, trace=True)
    layers = worker.per_layer(workload, records, tracer)
    assert all(r["ok"] for r in records), [r["problems"] for r in records]
    assert {k: v["unit"] for k, v in layers.items()} == spans.LAYER_UNITS
    return {k: v["value"] for k, v in layers.items() if v["unit"] not in ("s", "ns", "frac")}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat(name, tmp_path):
    first = _traced_counters(WORKLOADS[name](3, str(tmp_path)))
    second = _traced_counters(WORKLOADS[name](3, str(tmp_path)))
    assert first == second
    assert first["circuits.gate_apps"] > 0


def test_untraced_run_times_the_reference_kernel(tmp_path):
    workload = WORKLOADS["mix5-train"](3, str(tmp_path))
    records, tracer = worker.run_ops(workload, seconds=0.0, trace=False)
    assert tracer is None
    assert len(records) == 1 and records[0]["ok"]
    assert records[0]["ref_s"] > 0.0
    metrics = worker.end_to_end(workload, records)
    assert metrics["op_ref_ratio"]["value"] == records[0]["seconds"] / records[0]["ref_s"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == spans.LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_ref_ratio", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)


# Operation 3 of cluster8-cli at seed 1510655247, when that workload ran m=1.
M1_FLAGGED_SEED = 3936786074


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: with m=1 the adjusted variance equals 1/I_c exactly, and "
    "fisher.bound_chain's absolute CHAIN_TOL reads rounding at 1/I_c ~ 1e3 as a "
    "chain violation; cluster8-cli runs m=2 until this is fixed"
))
def test_cli_m1_has_no_chain_violation(tmp_path):
    argv = [
        "cluster", "--n", "8", "--m", "1", "--ansatz", "qcnn", "--restarts", "1",
        "--max-iters", "3", "--train-points", "10", "--eval-points", "4",
        "--seed", str(M1_FLAGGED_SEED), "--out", str(tmp_path / "c"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    rows = (tmp_path / "c_m1.csv").read_text().splitlines()[1:]
    assert not [row for row in rows if "chain-violation" in row.split(",")[7]]
