"""Parametrized circuits: gate records, ansatz builders, unitaries.

A Circuit is a flat gate list over a shared parameter vector. Gates reference
parameter slots by index, so several gates may read the same angle (the
convolutional ansatz shares its slots within a level). Application order is
list order: the first gate in the list acts on the state first, i.e. it is the
rightmost factor of the overall unitary.

Rotation conventions:
  rx/rz and the two-qubit rxx/ryy/rzz implement exp(-i theta P) for the named
  Pauli string (no half angle). u3(theta, phi, lam) composes
  R_Z(phi) R_Y(theta) R_Z(lam) in the half-angle convention, and cu3 applies a
  u3 on the target controlled on the first qubit of the pair. The sum gates
  exponentiate a whole translation-invariant generator at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .hamiltonians import PauliString, pauli_sum

GATE_QUBITS = {
    "rx": 1,
    "rz": 1,
    "rzz": 2,
    "rxx": 2,
    "ryy": 2,
    "u3": 1,
    "cu3": 2,
    "sumx": 0,
    "sumz": 0,
    "sumzxz": 0,
}
GATE_SLOTS = {
    "rx": 1,
    "rz": 1,
    "rzz": 1,
    "rxx": 1,
    "ryy": 1,
    "u3": 3,
    "cu3": 3,
    "sumx": 1,
    "sumz": 1,
    "sumzxz": 1,
}


@dataclass(frozen=True)
class Gate:
    """One gate record: kind, 1-based target qubits, parameter slot indices."""

    name: str
    qubits: tuple[int, ...]
    slots: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]
    param_count: int


def _validate_circuit(n: int, gates: Sequence[Gate], param_count: int) -> None:
    for g in gates:
        if g.name not in GATE_QUBITS:
            raise ValueError(f"unknown gate {g.name!r}")
        if len(g.qubits) != GATE_QUBITS[g.name]:
            raise ValueError(f"{g.name} expects {GATE_QUBITS[g.name]} qubits")
        if len(g.slots) != GATE_SLOTS[g.name]:
            raise ValueError(f"{g.name} expects {GATE_SLOTS[g.name]} slots")
        if any(not 1 <= q <= n for q in g.qubits):
            raise ValueError(f"gate targets {g.qubits} outside 1..{n}")
        if len(set(g.qubits)) != len(g.qubits):
            raise ValueError(f"repeated target in {g.qubits}")
        if any(not 0 <= s < param_count for s in g.slots):
            raise ValueError(f"slot indices {g.slots} outside 0..{param_count - 1}")


def make_circuit(n: int, gates: Iterable[Gate], param_count: int) -> Circuit:
    gates = tuple(gates)
    _validate_circuit(n, gates, param_count)
    return Circuit(n=n, gates=gates, param_count=param_count)


# ---------------------------------------------------------------------------
# gate matrices

def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep = np.exp(0.5j * phi)
    el = np.exp(0.5j * lam)
    # R_Z(phi) R_Y(theta) R_Z(lam), half-angle convention
    return np.array(
        [
            [ct / (ep * el), -st * el / ep],
            [st * ep / el, ct * ep * el],
        ],
        dtype=complex,
    )


_XX = np.array(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
)
_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)


@lru_cache(maxsize=None)
def _sum_generator_eig(name: str, n: int):
    """Cached eigendecomposition of a translation-invariant sum generator."""
    if name == "sumx":
        strings = [PauliString(n, {q: "X"}) for q in range(1, n + 1)]
    elif name == "sumz":
        strings = [PauliString(n, {q: "Z"}) for q in range(1, n + 1)]
    elif name == "sumzxz":
        strings = []
        for i in range(1, n + 1):
            j = i % n + 1
            k = j % n + 1
            strings.append(PauliString(n, {i: "Z", j: "X", k: "Z"}))
    else:
        raise ValueError(f"unknown sum generator {name!r}")
    es = linalg.herm_eig(pauli_sum(strings))
    return es.values, es.vectors


def gate_matrix(gate: Gate, params: np.ndarray) -> np.ndarray:
    """Local 2x2 or 4x4 matrix of a one- or two-qubit gate.

    Sum gates have no local matrix; _apply_gate runs them through their
    cached eigenbasis.
    """
    angles = [float(params[s]) for s in gate.slots]
    name = gate.name
    if name in ("rx", "rz", "rzz", "rxx", "ryy"):
        (theta,) = angles
        c, s = np.cos(theta), np.sin(theta)
        if name == "rx":
            return np.array([[c, -1j * s], [-1j * s, c]])
        if name == "rz":
            return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
        if name == "rzz":
            e_m, e_p = c - 1j * s, c + 1j * s
            return np.diag([e_m, e_p, e_p, e_m]).astype(complex)
        if name == "rxx":
            return np.eye(4, dtype=complex) * c - 1j * s * _XX
        return np.eye(4, dtype=complex) * c - 1j * s * _YY
    if name == "u3":
        return _u3_matrix(*angles)
    if name == "cu3":
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = _u3_matrix(*angles)
        return out
    raise ValueError(f"gate {name!r} has no local matrix")


# ---------------------------------------------------------------------------
# state application

def _apply_local(batch: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int):
    """Apply a 1- or 2-qubit matrix to batch axes; batch shape (B, 2, ..., 2)."""
    if len(qubits) == 1:
        ax = qubits[0]
        out = np.tensordot(batch, mat, axes=([ax], [1]))
        return np.moveaxis(out, -1, ax)
    a, b = qubits
    g = mat.reshape(2, 2, 2, 2)
    out = np.tensordot(batch, g, axes=([a, b], [2, 3]))
    return np.moveaxis(out, (-2, -1), (a, b))


def _apply_gate(batch: np.ndarray, gate: Gate, theta: np.ndarray, n: int) -> np.ndarray:
    """One gate applied to a tensor-shaped batch (B, 2, ..., 2)."""
    if gate.qubits:
        mat = gate_matrix(gate, theta)
        return _apply_local(batch, mat, gate.qubits, n)
    # sum gates act through their cached eigenbasis, never through a dense matrix
    vals, vecs = _sum_generator_eig(gate.name, n)
    shape = batch.shape
    flat = batch.reshape(shape[0], -1)
    coef = flat @ vecs.conj()
    coef *= np.exp(-1j * float(theta[gate.slots[0]]) * vals)
    return (coef @ vecs.T).reshape(shape)


def apply_circuit(
    circuit: Circuit, theta: np.ndarray, states: np.ndarray, start: int = 0
) -> np.ndarray:
    """Evolve one state vector or a batch of them through the circuit.

    states has shape (2**n,) or (B, 2**n); the same shape comes back. With
    start > 0 only gates[start:] are applied, which lets callers resume from a
    cached intermediate state.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.param_count,):
        raise ValueError(
            f"theta must have length {circuit.param_count}, got {theta.shape}"
        )
    states = np.asarray(states, dtype=complex)
    single = states.ndim == 1
    batch = np.atleast_2d(states)
    if batch.shape[1] != 2**circuit.n:
        raise ValueError(f"state dimension {batch.shape[1]} does not match n={circuit.n}")
    nb = batch.shape[0]
    batch = batch.reshape([nb] + [2] * circuit.n)
    for gate in circuit.gates[start:]:
        batch = _apply_gate(batch, gate, theta, circuit.n)
    out = batch.reshape(nb, 2**circuit.n)
    return out[0] if single else out


def apply_circuit_trace(
    circuit: Circuit, theta: np.ndarray, states: np.ndarray
) -> list[np.ndarray]:
    """Like apply_circuit on a (B, 2**n) batch, but keeps every intermediate.

    Returns a list of length len(gates) + 1 of flat (B, 2**n) snapshots;
    entry k is the state before gate k, the last entry is the final state.
    """
    theta = np.asarray(theta, dtype=float)
    batch = np.asarray(states, dtype=complex)
    nb, d = batch.shape
    if d != 2**circuit.n:
        raise ValueError(f"state dimension {d} does not match n={circuit.n}")
    snaps = [batch.copy()]
    tensor = batch.reshape([nb] + [2] * circuit.n)
    for gate in circuit.gates:
        tensor = _apply_gate(tensor, gate, theta, circuit.n)
        snaps.append(tensor.reshape(nb, d).copy())
    return snaps


def unitary(circuit: Circuit, theta: np.ndarray) -> np.ndarray:
    """Dense unitary of the whole circuit (first gate rightmost)."""
    d = 2**circuit.n
    basis = np.eye(d, dtype=complex)
    evolved = apply_circuit(circuit, theta, basis)  # row k is U e_k
    return evolved.T


# ---------------------------------------------------------------------------
# ansatz builders

def hea(n: int, layers: int) -> Circuit:
    """Hardware-efficient ansatz.

    Each layer applies an rzz on every neighboring pair (i, i+1), i = 1..n-1,
    then an rz and an rx on every qubit (one fresh slot each). Parameter
    count is layers * (3n - 1).

    The entangler leads and the rotations trail on purpose: conjugating a
    computational-basis projector, trailing diagonal gates (rz, rzz) drop out,
    so a rotations-first layout would waste its last entangling block and cap
    how well a measured-qubit observable can align with a state family. With
    rx applied last and rz just before it, the readout axis on every qubit
    sweeps the full sphere.
    """
    if n < 1 or layers < 1:
        raise ValueError("need n >= 1 and layers >= 1")
    gates = []
    slot = 0
    for _ in range(layers):
        for q in range(1, n):
            gates.append(Gate("rzz", (q, q + 1), (slot,)))
            slot += 1
        for q in range(1, n + 1):
            gates.append(Gate("rz", (q,), (slot,)))
            slot += 1
        for q in range(1, n + 1):
            gates.append(Gate("rx", (q,), (slot,)))
            slot += 1
    return make_circuit(n, gates, slot)


def _conv_block(a: int, b: int, base: int) -> list[Gate]:
    return [
        Gate("u3", (a,), (base, base + 1, base + 2)),
        Gate("u3", (b,), (base + 3, base + 4, base + 5)),
        Gate("rxx", (a, b), (base + 6,)),
        Gate("ryy", (a, b), (base + 7,)),
        Gate("rzz", (a, b), (base + 8,)),
        Gate("u3", (a,), (base + 9, base + 10, base + 11)),
        Gate("u3", (b,), (base + 12, base + 13, base + 14)),
    ]


def qcnn(n: int) -> Circuit:
    """Convolution/pooling hierarchy that halves the active register per level.

    Every level lays one shared 15-slot convolution block on each neighboring
    pair of active qubits (plus the closing last-to-first pair once more than
    two are active), then pools disjoint pairs with a shared 3-slot
    controlled-u3. The lower-index qubit of a pooled pair acts as control and
    drops out; the higher-index survivor stays active, so survivors collect at
    the measured (least significant) end of the register.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    gates: list[Gate] = []
    active = list(range(1, n + 1))
    base = 0
    while len(active) >= 2:
        k = len(active)
        pairs = [(active[i], active[i + 1]) for i in range(k - 1)]
        if k > 2:
            pairs.append((active[-1], active[0]))
        for a, b in pairs:
            gates.extend(_conv_block(a, b, base))
        survivors = []
        i = 0
        while i + 1 < k:
            control, keep = active[i], active[i + 1]
            gates.append(Gate("cu3", (control, keep), (base + 15, base + 16, base + 17)))
            survivors.append(keep)
            i += 2
        if i < k:
            survivors.append(active[i])
        active = sorted(survivors)
        base += 18
    return make_circuit(n, gates, base)


def hva_cluster(n: int, layers: int) -> Circuit:
    """Variational ansatz alternating the three cluster-model generator sums.

    Per layer: exp(-i t1 sum X), then exp(-i t2 sum Z), then
    exp(-i t3 sum ZXZ); three fresh slots per layer.
    """
    if n < 3 or layers < 1:
        raise ValueError("need n >= 3 and layers >= 1")
    gates = []
    slot = 0
    for _ in range(layers):
        gates.append(Gate("sumx", (), (slot,)))
        gates.append(Gate("sumz", (), (slot + 1,)))
        gates.append(Gate("sumzxz", (), (slot + 2,)))
        slot += 3
    return make_circuit(n, gates, slot)


# ---------------------------------------------------------------------------
# plain-text serialization

def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented dump: header, then one gate per line (name qubits slots)."""
    lines = [f"circuit n={circuit.n} params={circuit.param_count}"]
    for g in circuit.gates:
        fields = [g.name, *map(str, g.qubits), *map(str, g.slots)]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("circuit "):
        raise ValueError("missing circuit header line")
    header = dict(tok.split("=") for tok in lines[0].split()[1:])
    n = int(header["n"])
    param_count = int(header["params"])
    gates = []
    for ln in lines[1:]:
        toks = ln.split()
        name = toks[0]
        if name not in GATE_QUBITS:
            raise ValueError(f"unknown gate {name!r} in line {ln!r}")
        nq = GATE_QUBITS[name]
        ns = GATE_SLOTS[name]
        if len(toks) != 1 + nq + ns:
            raise ValueError(f"malformed gate line {ln!r}")
        qubits = tuple(int(t) for t in toks[1 : 1 + nq])
        slots = tuple(int(t) for t in toks[1 + nq :])
        gates.append(Gate(name, qubits, slots))
    return make_circuit(n, gates, param_count)
