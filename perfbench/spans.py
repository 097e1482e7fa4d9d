"""Spans around calls into qvarlab's public functions, recorded from outside.

The tracer rebinds names where the package's callers look them up (for
example ``training.apply_circuit`` or ``cli.train``) to wrappers that record
one span per call: name, start, end, parent span and the operation it belongs
to, plus exact work counts computed from the call's arguments and result.
Nothing under ``src/`` is edited; ``uninstall`` restores every original.
"""
from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from qvarlab import cli, fisher, linalg, observables, training

COMPLEX_BYTES = 16


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(states) -> int:
    shape = np.shape(states)
    return 1 if len(shape) == 1 else shape[0]


def _circuit_attrs(args, result):
    c = args["circuit"]
    gates = len(c.gates) - args.get("start", 0)
    rows = _rows(args["states"])
    return {"gate_apps": gates, "amp_updates": gates * rows * 2**c.n}


def _trace_attrs(args, result):
    out = _circuit_attrs(args, result)
    c = args["circuit"]
    out["snapshot_bytes"] = (len(c.gates) + 1) * _rows(args["states"]) * 2**c.n * COMPLEX_BYTES
    return out


def _unitary_attrs(args, result):
    c = args["circuit"]
    d = 2**c.n
    return {"gate_apps": len(c.gates), "amp_updates": len(c.gates) * d * d}


def _train_attrs(args, result):
    cfg = args["config"]
    return {
        "restarts": cfg.restarts,
        "joint_iters": len(result.loss_history) - 1,
        "converged": int(result.converged),
    }


def _matrix_attrs(args, result):
    obs = args["obs"]
    d = 2**obs.circuit.n
    return {"matrix_bytes": 2**obs.m * d * d * COMPLEX_BYTES}


def _chain_attrs(args, result):
    return {
        "points": len(args["alphas"]),
        "flagged": sum(1 for rep in result if rep.flag),
    }


def _state_attrs(args, result):
    return {"alpha": float(args["alpha"])}


def _eig_attrs(args, result):
    return {"dim": len(result.values)}


# (owner, attribute, span name, attrs from (bound arguments, result))
INSTRUMENTED = (
    (training, "apply_circuit", "circuits.apply_circuit", _circuit_attrs),
    (training, "apply_circuit_trace", "circuits.apply_circuit_trace", _trace_attrs),
    (observables, "apply_circuit", "circuits.apply_circuit", _circuit_attrs),
    (observables, "unitary", "circuits.unitary", _unitary_attrs),
    (training, "train", "training.train", _train_attrs),
    (cli, "train", "training.train", _train_attrs),
    (training, "gradient", "training.gradient", None),
    (cli, "probabilities", "observables.probabilities", None),
    (fisher, "matrix", "observables.matrix", _matrix_attrs),
    (fisher, "bound_chain", "fisher.bound_chain", _chain_attrs),
    (cli, "bound_chain", "fisher.bound_chain", _chain_attrs),
    (fisher.StateFamily, "state", "fisher.state", _state_attrs),
    (cli, "ground_state", "states.ground_state", None),
    (cli, "ising", "hamiltonians.ising", None),
    (cli, "cluster", "hamiltonians.cluster", None),
    (cli, "schwinger", "hamiltonians.schwinger", None),
    (linalg, "herm_eig", "linalg.herm_eig", _eig_attrs),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Records spans for calls made while installed; keeps them in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs_fn in INSTRUMENTED:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, orig, name, attrs_fn):
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_fn is not None:
                span.attrs = attrs_fn(_bind(sig, args, kwargs), result)
            return result

        return wrapper


def _bind(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def descendants_sum(spans: list[Span], ancestor: str, key: str) -> int:
    """Sum of attrs[key] over spans that have an ancestor named `ancestor`."""
    by_id = {s.id: s for s in spans}
    total = 0
    for s in spans:
        if key not in s.attrs:
            continue
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == ancestor:
                total += s.attrs[key]
                break
            p = by_id[p].parent
    return total


def span_records(spans: list[Span], origin: float) -> list[dict]:
    """JSON-ready spans with times in seconds from `origin`."""
    return [
        {
            "id": s.id,
            "name": s.name,
            "start": s.start - origin,
            "end": s.end - origin,
            "parent": s.parent,
            "op": s.op,
            **({"error": True} if s.error else {}),
            **s.attrs,
        }
        for s in spans
    ]


# Per-layer metric name -> unit. Counts and sizes are exact; "s" and "ns" are
# times. layer_metrics computes all but the last five, which worker.py adds.
LAYER_UNITS = {
    "circuits.calls": "count",
    "circuits.gate_apps": "count",
    "circuits.amp_updates": "count",
    "circuits.snapshot_mb": "MB",
    "circuits.self_s": "s",
    "circuits.ns_per_amp": "ns",
    "training.joint_iters": "count",
    "training.converged_frac": "frac",
    "training.gate_apps_per_restart": "count",
    "training.self_s": "s",
    "observables.prob_calls": "count",
    "observables.prob_s": "s",
    "observables.matrix_calls": "count",
    "observables.matrix_s": "s",
    "observables.matrix_mb": "MB",
    "fisher.points": "count",
    "fisher.self_s": "s",
    "fisher.flagged": "count",
    "fisher.errors": "count",
    "fisher.state_calls": "count",
    "fisher.state_s": "s",
    "fisher.state_unique_frac": "frac",
    "states.ground_calls": "count",
    "states.ground_s": "s",
    "hamiltonians.builds": "count",
    "hamiltonians.build_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.eig_max_dim": "dim",
    "cli.self_s": "s",
    "states.degenerate_warnings": "count",
    "cli.csv_bytes": "bytes",
    "training.grad_s": "s",
    "training.grad_gate_apps": "count",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The span-derived LAYER_UNITS metrics of one operation."""
    selfs = self_times(spans)

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def layer_self(layer):
        return sum(selfs[s.id] for s in spans if s.layer == layer)

    def busy(group):
        return sum(s.duration for s in group)

    def attr(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    circ = [s for s in spans if s.layer == "circuits"]
    amps = attr(circ, "amp_updates")
    circ_self = layer_self("circuits")
    trains = named("training.train")
    restarts = attr(trains, "restarts")
    probs = named("observables.probabilities")
    mats = named("observables.matrix")
    chains = named("fisher.bound_chain")
    fam = named("fisher.state")
    grounds = named("states.ground_state")
    builds = named("hamiltonians.")
    eigs = named("linalg.herm_eig")
    return {
        "circuits.calls": len(circ),
        "circuits.gate_apps": attr(circ, "gate_apps"),
        "circuits.amp_updates": amps,
        "circuits.snapshot_mb": attr(circ, "snapshot_bytes") / 1e6,
        "circuits.self_s": circ_self,
        "circuits.ns_per_amp": circ_self * 1e9 / amps if amps else 0.0,
        "training.joint_iters": attr(trains, "joint_iters"),
        "training.converged_frac": attr(trains, "converged") / len(trains) if trains else 0.0,
        "training.gate_apps_per_restart": (
            descendants_sum(spans, "training.train", "gate_apps") / restarts if restarts else 0.0
        ),
        "training.self_s": layer_self("training"),
        "observables.prob_calls": len(probs),
        "observables.prob_s": busy(probs),
        "observables.matrix_calls": len(mats),
        "observables.matrix_s": busy(mats),
        "observables.matrix_mb": attr(mats, "matrix_bytes") / 1e6,
        "fisher.points": attr(chains, "points"),
        "fisher.self_s": layer_self("fisher"),
        "fisher.flagged": attr(chains, "flagged"),
        "fisher.errors": sum(1 for s in chains if s.error),
        "fisher.state_calls": len(fam),
        "fisher.state_s": busy(fam),
        "fisher.state_unique_frac": (
            len({s.attrs["alpha"] for s in fam if "alpha" in s.attrs}) / len(fam) if fam else 0.0
        ),
        "states.ground_calls": len(grounds),
        "states.ground_s": busy(grounds),
        "hamiltonians.builds": len(builds),
        "hamiltonians.build_s": busy(builds),
        "linalg.eig_calls": len(eigs),
        "linalg.eig_s": busy(eigs),
        "linalg.eig_max_dim": max((s.attrs.get("dim", 0) for s in eigs), default=0),
        "cli.self_s": layer_self("cli"),
    }
