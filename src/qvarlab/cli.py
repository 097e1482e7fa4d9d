"""Experiment runner: trains readouts on state families and writes CSV tables.

Each experiment trains one observable per requested measured-qubit count m
(or, in Naimark mode, a single observable reading freshly appended ancillas)
and evaluates prediction, variance and the Fisher bound columns on a dense
label grid. Output is one CSV per m plus a sidecar text file recording the
full configuration; identical configurations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import __version__
from .circuits import Circuit, hea, hva_cluster, qcnn
from .fisher import StateFamily, bound_chain, cfi_mixture_closed
from .hamiltonians import cluster, ising, schwinger
from .mixture import (
    MixtureModel,
    qfi_commuting,
    rho1_spectrum,
    variance_full,
    variance_partial,
)
from .observables import ParamObservable, moments, probabilities
from .states import ENSEMBLE_FLOOR, Ensemble, ground_state, white_noise_ensemble
from .training import TrainConfig, TrainSet, make_trainset, train

CSV_HEADER = "alpha,prediction,sq_error,variance,inv_cfi,inv_qfi,analytic_variance,flag"

# label windows the figures use; families extend further where the states
# stay well defined so that centered stencils exist at the window edges
LABEL_RANGES = {
    "mixture": (0.0, 1.0),
    "analytic": (0.0, 1.0),
    "ising": (0.05, 2.0),
    "schwinger": (-2.0, 1.0),
    "cluster": (0.0, 1.0),
}


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 5
    m: tuple[int, ...] = (1,)
    ansatz: str = "hea"
    layers: int = 5
    train_points: int = 10
    eval_points: int = 101
    seed: int = TrainConfig.seed
    restarts: int = TrainConfig.restarts
    max_iters: int = TrainConfig.max_iters
    w_ls: float = TrainConfig.w_ls
    w_var: float = TrainConfig.w_var
    r: float = 0.25
    eps: float = 1e-2
    w: float = 1.0
    g: float = 1.0
    naimark: int = 0
    out: str = "experiment"


def _ground_family(hamiltonian, alpha_range: tuple[float, float]) -> StateFamily:
    return StateFamily(lambda a: white_noise_ensemble(ground_state(hamiltonian(a))), alpha_range)


FAMILY_BUILDERS = {
    "mixture": lambda c: MixtureModel(n=c.n, r=c.r).family(),
    "ising": lambda c: _ground_family(lambda h: ising(c.n, h), (1e-3, 2.5)),
    "schwinger": lambda c: _ground_family(
        lambda mu: schwinger(c.n, mu, w=c.w, g=c.g), (-2.2, 1.2)
    ),
    "cluster": lambda c: _ground_family(lambda x: cluster(c.n, x, eps=c.eps), (-0.2, 1.2)),
}
# the analytic experiment tabulates the mixture's closed forms
FAMILY_BUILDERS["analytic"] = FAMILY_BUILDERS["mixture"]

ANSATZ_BUILDERS = {
    "hea": lambda n, layers: hea(n, layers),
    "qcnn": lambda n, layers: qcnn(n),
    "hva": lambda n, layers: hva_cluster(n, layers),
}


def _validate(config: ExperimentConfig) -> tuple[StateFamily, Circuit, TrainConfig]:
    """Check every input and build what the run uses, before any training.

    The rules stated here are those no constructor owns; the family, the
    circuit on n + naimark qubits and the TrainConfig check their own inputs,
    and a ValueError from any of them is a ConfigError. A Hamiltonian family
    builds its matrices lazily, so its size rule is checked by solving its
    first training state here, which make_trainset reuses when it is pure.
    """
    if config.experiment not in FAMILY_BUILDERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    if config.ansatz not in ANSATZ_BUILDERS:
        raise ConfigError(f"unknown ansatz {config.ansatz!r}")
    if config.naimark < 0:
        raise ConfigError("naimark ancilla count must be nonnegative")
    # a Naimark run reads its ancillas instead; the analytic tables always use m
    if config.naimark == 0 or config.experiment == "analytic":
        if not config.m:
            raise ConfigError("need at least one m value")
        if any(not 1 <= m <= config.n for m in config.m):
            raise ConfigError(f"m values must lie in 1..{config.n}")
        if len(set(config.m)) != len(config.m):
            raise ConfigError(f"m values must not repeat, got {config.m}")
    if config.train_points < 2:
        raise ConfigError("train_points must be at least 2")
    if config.eval_points < 2:
        raise ConfigError("eval_points must be at least 2")
    # qcnn reads no layer count, so only this rule rejects it with layers < 1
    if config.layers < 1:
        raise ConfigError("layers must be positive")
    if not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ConfigError(f"output directory of {config.out!r} does not exist")
    try:
        family = FAMILY_BUILDERS[config.experiment](config)
        circuit = ANSATZ_BUILDERS[config.ansatz](config.n + config.naimark, config.layers)
        # every TrainConfig field has a same-named ExperimentConfig field
        tc = TrainConfig(**{f.name: getattr(config, f.name) for f in fields(TrainConfig)})
        family.state(LABEL_RANGES[config.experiment][0])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return family, circuit, tc


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_csv(path: str, rows: list[tuple]) -> None:
    lines = [CSV_HEADER]
    for *values, flag in rows:
        lines.append(",".join([_fmt(x) for x in values] + [flag]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_sidecar(path: str, config: ExperimentConfig) -> None:
    lines = [f"version={__version__}"]
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _closed_form(config: ExperimentConfig, m: int):
    """The mixture's optimal variance curve for an m-qubit readout, else None."""
    n, r = config.n, config.r
    if config.experiment not in ("mixture", "analytic"):
        return None
    if m == n:
        return lambda a: variance_full(a, n, r)
    return lambda a: variance_partial(a, m)


def _analytic_rows(config: ExperimentConfig, m: int, grid: np.ndarray) -> list[tuple]:
    n, r = config.n, config.r
    ana = _closed_form(config, m)
    if m == n:
        p1 = rho1_spectrum(n, r)
    else:
        p1 = np.zeros(2**m)
        p1[0] = 1.0
    uniform = np.full(len(p1), 1.0 / len(p1))
    rows = []
    for a in grid:
        a = float(a)
        var = ana(a)
        if a >= 1.0:
            # both information quantities diverge where the noise floor closes
            rows.append((a, a, 0.0, var, None, None, var, "boundary"))
            continue
        icv = 1.0 / cfi_mixture_closed(a, p1, uniform)
        iqv = 1.0 / qfi_commuting(a, n, r)
        rows.append((a, a, 0.0, var, icv, iqv, var, ""))
    return rows


def _trained_rows(
    tc: TrainConfig,
    family: StateFamily,
    circuit: Circuit,
    m: int,
    trainset: TrainSet,
    grid: np.ndarray,
    analytic_m,
) -> list[tuple]:
    result = train(circuit, m, trainset, tc)
    run_flag = "" if result.converged else "nonconverged"
    obs = ParamObservable(circuit=circuit, m=m, lambdas=result.lambdas)
    interior = [float(a) for a in grid if family.contains_stencil(float(a))]
    reports = {
        rep.alpha: rep
        for rep in bound_chain(obs, result.theta, family, interior, on_violation="flag")
    }
    rows = []
    for a in grid:
        a = float(a)
        p = probabilities(obs, result.theta, family.state(a))
        pred, var = map(float, moments(p, result.lambdas))
        ana = analytic_m(a) if analytic_m is not None else None
        rep = reports.get(a)
        # a point without a centred stencil has no Fisher columns
        icv, iqv, chain = (rep.inv_cfi, rep.inv_qfi, rep.flag) if rep else (None, None, "boundary")
        flags = [f for f in (run_flag, *chain.split(",")) if f]
        rows.append((a, pred, (a - pred) ** 2, var, icv, iqv, ana, "+".join(flags)))
    return rows


def run(config: ExperimentConfig) -> list[str]:
    """Execute one experiment; returns the list of files written.

    A readout whose training or evaluation raises writes no CSV; the other
    readouts and the sidecar are still written, and one RuntimeError naming
    every failed m is raised at the end.
    """
    family, circuit, tc = _validate(config)
    lo, hi = LABEL_RANGES[config.experiment]
    grid = np.linspace(lo, hi, config.eval_points)
    written, failures = [], []

    if config.experiment == "analytic":
        for m in config.m:
            path = f"{config.out}_m{m}.csv"
            _write_csv(path, _analytic_rows(config, m, grid))
            written.append(path)
    else:
        k = config.naimark
        if k:
            base = family
            family = StateFamily(lambda a: _embed(base.state(a).ens, k), base.alpha_range)
            # the embedding preserves the model, so the full-basis curve applies
            readouts = [(f"naimark{k}", k, _closed_form(config, config.n))]
        else:
            readouts = [(f"m{m}", m, _closed_form(config, m)) for m in config.m]
        trainset = make_trainset(family, config.train_points, lo, hi)
        for suffix, m, closed in readouts:
            try:
                rows = _trained_rows(tc, family, circuit, m, trainset, grid, closed)
            except Exception as exc:  # keep the other readouts' results
                failures.append(f"m={m}: {type(exc).__name__}: {exc}")
                continue
            path = f"{config.out}_{suffix}.csv"
            _write_csv(path, rows)
            written.append(path)

    sidecar = f"{config.out}_config.txt"
    _write_sidecar(sidecar, config)
    written.append(sidecar)
    if failures:
        raise RuntimeError("readout failed: " + "; ".join(failures))
    return written


def _embed(ens: Ensemble, ma: int) -> Ensemble:
    """The ensemble with ma fresh |0> ancillas appended at the least
    significant end, for the Naimark family's evaluator.

    Each row r becomes r x |0...0>, and the noise, white on the d data
    dimensions only, becomes d rows e_j x |0...0> of weight noise/d each
    (dropped at or below ENSEMBLE_FLOOR), with no noise left. The e_j rows
    are the same bytes in every state, so the training engine evolves them
    once per train set. A pure state is one row of weight 1 with no noise,
    so it stays pure.
    """
    d = ens.rows.shape[1]
    rows, weights = ens.rows, ens.weights
    if ens.noise / d > ENSEMBLE_FLOOR:
        rows = np.concatenate([rows, np.eye(d, dtype=complex)])
        weights = np.concatenate([weights, np.full(d, ens.noise / d)])
    embedded = np.zeros((len(rows), d, 2**ma), dtype=complex)
    embedded[:, :, 0] = rows
    return Ensemble(weights, embedded.reshape(len(rows), -1), 0.0)


def _parse_m(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ConfigError(f"bad m list {text!r}") from exc


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):  # a value may hold a #
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _field_parser(f):
    if f.name == "m":
        return _parse_m
    # experiment has no default; every other field parses as its default's type
    return str if f.default is MISSING else type(f.default)


# one parser per ExperimentConfig field, shared by the --flags and config files
_FIELD_PARSERS = {f.name: _field_parser(f) for f in fields(ExperimentConfig)}
_FLAG_HELP = {
    "m": "comma-separated measured-qubit counts, e.g. 1,3,5",
    "ansatz": "|".join(ANSATZ_BUILDERS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvarlab",
        description="Train variance-aware quantum readouts and emit CSV tables.",
    )
    parser.add_argument("experiment", nargs="?", help="|".join(FAMILY_BUILDERS))
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for key in _FIELD_PARSERS:
        if key != "experiment":
            parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAG_HELP.get(key))
    return parser


def _parse_value(key: str, raw: str):
    try:
        value = _FIELD_PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for {key}") from exc
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key == "version":  # written by _write_sidecar, so a sidecar replays
                continue
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    for key in _FIELD_PARSERS:
        raw = getattr(args, key)
        if raw is not None:
            values[key] = _parse_value(key, raw)
    if "experiment" not in values:
        raise ConfigError("an experiment name is required")
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _config_from_args(args)
        written = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, distinct exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
