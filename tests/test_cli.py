import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import qvarlab
from qvarlab import cli
from qvarlab.cli import CSV_HEADER, ConfigError, ExperimentConfig, main, run
from qvarlab.circuits import apply_circuit, hea
from qvarlab.mixture import qfi_commuting, variance_full, variance_partial
from qvarlab.observables import ensemble_outcomes
from qvarlab.states import LabeledState, white_noise_ensemble
from qvarlab.training import TrainSet, _Engine

import oracles
from oracles import density


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    keys = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row = {}
        for key, part in zip(keys, parts):
            if key == "flag":
                row[key] = part
            else:
                row[key] = float(part) if part else None
        rows.append(row)
    return rows


def test_analytic_frozen_values(tmp_path):
    out = str(tmp_path / "ana")
    code = main(
        ["analytic", "--n", "4", "--m", "1,4", "--eval-points", "3", "--out", out]
    )
    assert code == 0
    rows = _read_rows(tmp_path / "ana_m1.csv")
    assert len(rows) == 3
    first = rows[0]
    assert first["alpha"] == 0.0
    assert first["variance"] == 1.0
    assert first["inv_cfi"] == 1.0
    assert abs(first["inv_qfi"] - 1.0 / 9.0) < 1e-14
    assert first["analytic_variance"] == 1.0
    assert first["flag"] == ""
    last = rows[-1]
    assert last["alpha"] == 1.0
    assert last["flag"] == "boundary"
    assert last["inv_cfi"] is None and last["inv_qfi"] is None
    assert last["variance"] == 0.0

    full = _read_rows(tmp_path / "ana_m4.csv")
    mid = full[1]
    assert abs(mid["variance"] - variance_full(0.5, 4, 0.25)) < 1e-14
    # a full eigenbasis readout of a commuting family reaches the quantum bound
    assert abs(mid["inv_cfi"] - mid["inv_qfi"]) < 1e-12
    assert abs(mid["inv_qfi"] - 1.0 / qfi_commuting(0.5, 4, 0.25)) < 1e-14
    assert abs(mid["variance"] - mid["inv_qfi"]) < 1e-12


def test_analytic_rerun_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(experiment="analytic", n=3, m=(1, 2), eval_points=11,
                           out=str(tmp_path / "a"))
    paths1 = run(cfg)
    blobs = {p: open(p, "rb").read() for p in paths1}
    paths2 = run(cfg)
    assert paths1 == paths2
    for p in paths2:
        assert open(p, "rb").read() == blobs[p]


def test_module_route_runs_without_runtime_warning(tmp_path):
    # `python -m qvarlab.cli` warns if importing the package loaded cli already
    src = str(Path(qvarlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["analytic", "--n", "2", "--m", "1", "--eval-points", "3", "--out", str(tmp_path / "a")]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qvarlab.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# the reference implementations that live in tests/oracles.py, by the module
# (or class) that held them before; no pipeline path calls any of them
ORACLE_NAMES = {
    "fisher": ["cfi", "sld", "qfi_fidelity", "QfiStepWarning", "QFI_STEP_REL"],
    "states": ["fidelity", "_sqrt_spectrum"],
    "states.LabeledState": ["density"],
    "linalg": ["solve_lyapunov", "LYAPUNOV_MIN_EIG", "herm_fn", "haar_unitary"],
    "mixture": [
        "qfi_alpha_printed", "f_divergence", "check_majorization", "MAJORIZATION_TOL",
        "OptimalityReport", "projector_optimality_oracle", "optimal_observable_matrix",
    ],
    "hamiltonians": ["pauli_matrix", "pauli_sum_dense"],
}


def test_import_qvarlab_exposes_no_test_oracle():
    # a fresh interpreter, so that nothing a test imported or patched counts
    assert all(hasattr(oracles, n) for names in ORACLE_NAMES.values() for n in names)
    script = (
        "import json, operator, sys, qvarlab\n"
        "found = [f'{owner}.{n}' for owner, names in json.loads(sys.argv[1]).items()\n"
        "         for n in names if hasattr(operator.attrgetter(owner)(qvarlab), n)]\n"
        "print(json.dumps([found, sorted(qvarlab.__all__)]))\n"
    )
    src = str(Path(qvarlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(ORACLE_NAMES)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    found, exported = json.loads(proc.stdout)
    assert found == []
    assert not set(exported) & {n for names in ORACLE_NAMES.values() for n in names}


def test_run_reports_written_files(tmp_path):
    cfg = ExperimentConfig(experiment="analytic", n=2, m=(1,), eval_points=3,
                           out=str(tmp_path / "r"))
    written = run(cfg)
    assert written == [str(tmp_path / "r_m1.csv"), str(tmp_path / "r_config.txt")]
    for p in written:
        assert (tmp_path / p.split("/")[-1]).exists()


def test_sidecar_records_configuration(tmp_path):
    out = str(tmp_path / "s")
    assert main(["analytic", "--n", "2", "--m", "1", "--eval-points", "3",
                 "--out", out, "--seed", "11"]) == 0
    text = (tmp_path / "s_config.txt").read_text().splitlines()
    assert text[0] == f"version={qvarlab.__version__}"
    entries = dict(line.split("=", 1) for line in text)
    assert entries["experiment"] == "analytic"
    assert entries["n"] == "2"
    assert entries["m"] == "1"
    assert entries["seed"] == "11"
    assert entries["out"] == out


def test_exit_code_one_on_config_errors(tmp_path):
    out = str(tmp_path / "x")
    assert main(["warp", "--out", out]) == 1
    assert main(["analytic", "--n", "2", "--m", "7", "--out", out]) == 1
    assert main(["analytic", "--n", "2", "--m", "banana", "--out", out]) == 1
    # Hamiltonian builders' own n rules, met by solving the first training state
    assert main(["ising", "--n", "1", "--out", out]) == 1
    assert main(["cluster", "--n", "2", "--out", out]) == 1
    assert main(["schwinger", "--n", "3", "--out", out]) == 1
    assert main(["--out", out]) == 1  # no experiment anywhere
    assert main(["analytic", "--train-points", "1", "--out", out]) == 1
    assert main(["analytic", "--n", "2", "--m", "1,1", "--out", out]) == 1
    assert main(["analytic", "--n", "2", "--naimark", "1", "--m", "7", "--out", out]) == 1
    assert main(["mixture", "--n", "2", "--naimark", "-1", "--out", out]) == 1
    assert main(["mixture", "--n", "2", "--m", "1", "--seed", "-1", "--out", out]) == 1
    assert main(["mixture", "--n", "2", "--m", "1", "--out", str(tmp_path / "no" / "x")]) == 1
    # ansatz builders' own n rules, checked before the train set is built
    assert main(["ising", "--n", "2", "--m", "1", "--ansatz", "hva", "--out", out]) == 1
    assert main(["mixture", "--n", "1", "--m", "1", "--ansatz", "qcnn", "--out", out]) == 1
    # non-finite floats
    assert main(["mixture", "--n", "2", "--m", "1", "--w-var", "nan", "--out", out]) == 1
    assert main(["cluster", "--n", "3", "--m", "1", "--eps", "inf", "--out", out]) == 1
    assert not list(tmp_path.iterdir())


def test_exit_code_zero_on_help():
    assert main(["--help"]) == 0


def test_exit_code_one_on_unknown_flag():
    assert main(["analytic", "--bogus", "3"]) == 1


def test_exit_code_two_on_runtime_failure(tmp_path):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# analytic sweep\n"
        "experiment=analytic\n"
        "n=3\n"
        "m=1,2\n"
        "eval_points=3\n"
        f"out={tmp_path / 'c'}\n"
    )
    assert main(["--config", str(cfgfile), "--m", "1"]) == 0
    assert (tmp_path / "c_m1.csv").exists()
    assert not (tmp_path / "c_m2.csv").exists()
    entries = dict(
        line.split("=", 1) for line in (tmp_path / "c_config.txt").read_text().splitlines()
    )
    assert entries["m"] == "1"
    assert entries["n"] == "3"


def test_config_file_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment=analytic\nthis is not a key value pair\n")
    assert main(["--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("experiment=analytic\nwarp_factor=9\n")
    assert main(["--config", str(unknown)]) == 1
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text(f"experiment=analytic\nn=2\nm=1,1\nout={tmp_path / 'r'}\n")
    assert main(["--config", str(repeated)]) == 1
    assert not (tmp_path / "r_m1.csv").exists()


def test_parse_m():
    assert cli._parse_m("1,3,5") == (1, 3, 5)
    assert cli._parse_m("2") == (2,)
    with pytest.raises(ConfigError):
        cli._parse_m("1,x")


def test_trained_mixture_small_run(tmp_path):
    out = str(tmp_path / "t")
    code = main(
        [
            "mixture", "--n", "2", "--m", "1", "--layers", "2",
            "--train-points", "4", "--eval-points", "5", "--seed", "3",
            "--restarts", "2", "--max-iters", "300", "--out", out,
        ]
    )
    assert code == 0
    rows = _read_rows(tmp_path / "t_m1.csv")
    assert [row["alpha"] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    # the family is only defined on [0, 1], so the edge rows lack a stencil
    assert rows[0]["flag"].endswith("boundary")
    assert rows[-1]["flag"].endswith("boundary")
    assert rows[0]["inv_cfi"] is None
    for row in rows[1:-1]:
        assert row["inv_cfi"] is not None
        assert row["sq_error"] < 1e-3
        assert abs(row["analytic_variance"] - variance_partial(row["alpha"], 1)) < 1e-14
        # raw variance tracks the closed form; only the slope-adjusted value
        # is bounded by it, and bound_chain left the row unflagged
        assert abs(row["variance"] - row["analytic_variance"]) < 0.05
        assert row["flag"] == ""
    preds = [row["prediction"] for row in rows]
    assert all(abs(p - a) < 0.05 for p, a in zip(preds, [0, 0.25, 0.5, 0.75, 1.0]))


def test_naimark_run_writes_single_file(tmp_path):
    out = str(tmp_path / "nm")
    code = main(
        [
            "mixture", "--n", "1", "--naimark", "1", "--layers", "2",
            "--train-points", "4", "--eval-points", "3", "--seed", "1",
            "--restarts", "2", "--max-iters", "200", "--out", out,
        ]
    )
    assert code == 0
    assert (tmp_path / "nm_naimark1.csv").exists()
    assert not (tmp_path / "nm_m1.csv").exists()
    rows = _read_rows(tmp_path / "nm_naimark1.csv")
    for row in rows:
        # the embedding preserves the model, so the full-basis curve applies
        assert abs(row["analytic_variance"] - variance_full(row["alpha"], 1, 0.25)) < 1e-14
    assert rows[1]["inv_cfi"] is not None


def _ancilla_zero(ma):
    anc = np.zeros((2**ma, 2**ma), dtype=complex)
    anc[0, 0] = 1.0
    return anc


@pytest.mark.parametrize("ma", [1, 2])
@pytest.mark.parametrize("experiment", ["ising", "mixture"])
def test_embed_item_appends_ancillas_in_zero(experiment, ma):
    # one formula for pure and mixed items: rho x |0...0><0...0|, with the
    # ancillas at the least significant end
    fam = cli.FAMILY_BUILDERS[experiment](ExperimentConfig(experiment, n=2))
    item = fam.state(0.4)
    big = LabeledState(item.label, cli._embed(item.ens, ma))
    assert big.label == item.label and big.dim == 4 * 2**ma
    # a pure item (one row, no noise) stays pure
    pure = len(item.ens.rows) == 1 and item.ens.noise == 0.0
    assert (len(big.ens.rows) == 1 and big.ens.noise == 0.0) == pure
    want = np.kron(density(item), _ancilla_zero(ma))
    assert np.abs(density(big) - want).max() < 1e-15
    # measuring the ancillas of any row gives outcome 0 with certainty
    rows = big.ens.rows
    p = ensemble_outcomes(rows, np.eye(len(rows)), 0.0, ma)
    assert np.allclose(p, np.eye(2**ma)[0], rtol=0, atol=1e-15)


def test_naimark_mixture_items_share_their_noise_rows():
    # the embedded noise is d rows e_j x |0>, the same bytes in every item,
    # so the engine evolves 2 signal rows plus d noise rows for the whole set
    fam = cli.FAMILY_BUILDERS["mixture"](ExperimentConfig("mixture", n=2))
    labels = (0.0, 0.4, 0.7, 1.0)
    ts = TrainSet(tuple(LabeledState(a, cli._embed(fam.state(a).ens, 1)) for a in labels))
    for it in ts.items:
        want = np.kron(density(fam.state(it.label)), _ancilla_zero(1))
        assert np.abs(density(it) - want).max() < 1e-15
        assert it.ens.noise == 0.0
    circuit = hea(3, 2)
    engine = _Engine(circuit, 1, ts)
    assert engine.batch0.shape == (2 + 4, 8)
    theta = np.random.default_rng(3).uniform(0, 2 * np.pi, circuit.param_count)
    want = []
    for it in ts.items:
        ens = white_noise_ensemble(density(it))
        rows = apply_circuit(circuit, theta, ens.rows)
        want.append(ensemble_outcomes(rows, ens.weights, ens.noise, 1))
    assert np.max(np.abs(engine.probs(theta) - np.array(want))) < 1e-12


@pytest.mark.parametrize("argv", [
    ["analytic", "--n", "3", "--m", "1,3", "--r", "0.3", "--eval-points", "5"],
    ["mixture", "--n", "2", "--m", "1,2", "--layers", "1", "--train-points", "3",
     "--eval-points", "3", "--restarts", "1", "--max-iters", "3", "--seed", "4"],
    # the qcnn ansatz: u3/cu3 gates and one-gate rzz phase steps
    ["cluster", "--n", "4", "--m", "1,2", "--ansatz", "qcnn", "--restarts", "1",
     "--max-iters", "2", "--train-points", "3", "--eval-points", "3"],
    # an odd-n ground-state family through training and bound_chain
    ["ising", "--n", "3", "--m", "1", "--layers", "1", "--restarts", "1", "--max-iters", "2",
     "--train-points", "3", "--eval-points", "3"],
    # even n: the real parity-sector solve and the even-sector choice
    ["ising", "--n", "4", "--m", "1,2", "--layers", "1", "--restarts", "1", "--max-iters", "2",
     "--train-points", "3", "--eval-points", "3"],
])
def test_sidecar_replays_to_identical_csvs(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", str(tmp_path / "a_config.txt"), "--out", str(tmp_path / "b")]) == 0
    first = sorted(tmp_path.glob("a_*.csv"))
    assert first and len(first) == len(list(tmp_path.glob("b_*.csv")))
    for path in first:
        assert path.read_bytes() == (tmp_path / path.name.replace("a_", "b_", 1)).read_bytes()


@pytest.mark.parametrize("argv", [
    ["ising", "--n", "8", "--m", "1,2", "--restarts", "1", "--max-iters", "3",
     "--eval-points", "9", "--seed", "5"],
    ["mixture", "--n", "4", "--m", "1,3", "--restarts", "1", "--max-iters", "10",
     "--eval-points", "9", "--seed", "5"],
    ["ising", "--n", "10", "--m", "1,3", "--layers", "1", "--restarts", "1", "--max-iters", "2",
     "--train-points", "3", "--eval-points", "5", "--seed", "6"],
], ids=["ising", "mixture", "ising10"])
def test_csvs_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # the thread count is set in the child's environment only, before numpy
    # loads its BLAS
    src = str(Path(qvarlab.__file__).resolve().parents[1])
    csvs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "qvarlab.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs[threads] = {
            p.name[len(out.name):]: p.read_bytes() for p in tmp_path.glob(f"{out.name}_m*.csv")
        }
    assert len(csvs["1"]) == 2 and csvs["1"] == csvs["2"]


def test_sidecar_replay_keeps_an_out_path_holding_a_hash(tmp_path):
    # only a line whose first non-blank character is # is a comment
    out = tmp_path / "hash#dir"
    out.mkdir()
    argv = ["analytic", "--n", "2", "--m", "1", "--eval-points", "3", "--out", str(out / "a")]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    sidecar = tmp_path / "replay.cfg"
    sidecar.write_bytes(first["a_config.txt"])
    for p in out.iterdir():
        p.unlink()
    assert main(["--config", str(sidecar)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hash#dir", "replay.cfg"]


def _other_value(f):
    """A non-default value for one ExperimentConfig field, as text and parsed."""
    if f.name == "m":
        return "2,3", (2, 3)
    default = "" if f.default is MISSING else f.default
    if isinstance(default, str):
        return "other", "other"
    return str(default + 3), default + 3


def test_every_config_field_is_settable_by_flag_and_by_file(tmp_path):
    cfgfile = tmp_path / "one.cfg"
    for f in fields(ExperimentConfig):
        raw, value = _other_value(f)
        if f.name == "experiment":
            flag_argv = [raw]
        else:
            flag_argv = ["analytic", "--" + f.name.replace("_", "-"), raw]
        cfgfile.write_text(f"experiment=analytic\n{f.name}={raw}\n")
        file_argv = ["--config", str(cfgfile)]
        for argv in (flag_argv, file_argv):
            config = cli._config_from_args(cli._build_parser().parse_args(argv))
            assert getattr(config, f.name) == value
            others = {g.name for g in fields(ExperimentConfig)} - {f.name, "experiment"}
            for name in others:
                assert getattr(config, name) == getattr(ExperimentConfig("analytic"), name)


def test_one_failed_readout_keeps_the_others(tmp_path, monkeypatch, capsys):
    real_train = cli.train

    def train_failing_m1(circuit, m, trainset, config):
        if m == 1:
            raise RuntimeError("injected failure")
        return real_train(circuit, m, trainset, config)

    monkeypatch.setattr(cli, "train", train_failing_m1)
    out = str(tmp_path / "f")
    code = main(
        ["mixture", "--n", "2", "--m", "1,2", "--layers", "1", "--train-points", "3",
         "--eval-points", "3", "--restarts", "1", "--max-iters", "3", "--out", out]
    )
    assert code == 2
    assert not (tmp_path / "f_m1.csv").exists()
    assert (tmp_path / "f_m2.csv").exists()
    assert (tmp_path / "f_config.txt").exists()
    err = capsys.readouterr().err
    assert "m=1" in err and "injected failure" in err and "m=2" not in err


def test_family_ranges_cover_the_label_windows():
    assert set(cli.LABEL_RANGES) == set(cli.FAMILY_BUILDERS)
    for name, (lo, hi) in cli.LABEL_RANGES.items():
        family = cli.FAMILY_BUILDERS[name](ExperimentConfig(name, n=4))
        # the family labels its own states; _validate solves this one first
        assert family.state(lo).label == lo
        if name in ("mixture", "analytic"):
            # the mixture is defined on [0, 1] only; its edges are boundary rows
            assert family.alpha_range == (lo, hi)
        else:
            # ground-state windows get Fisher columns at both edges
            assert family.contains_stencil(lo)
            assert family.contains_stencil(hi)
