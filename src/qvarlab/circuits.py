"""Parametrized circuits: gate records, ansatz builders, unitaries.

A Circuit is a flat gate list over a shared parameter vector. Gates reference
parameter slots by index, so several gates may read the same angle (the
convolutional ansatz shares its slots within a level). Application order is
list order: the first gate in the list acts on the state first, i.e. it is the
rightmost factor of the overall unitary.

Gate kinds: GATES is the one table of gate names. Each entry gives the
target count (0 for a sum gate), the slot count, and the Pauli string P of a
rotation (None for u3 and cu3); validation, the local matrices and the
application loop all read it.

Rotation conventions:
  every rotation kind implements exp(-i theta P) = cos(theta) I - i sin(theta) P
  (no half angle). The sum gates have no targets: their string's terms on the
  ring positions (i, i+1, ...) mod n commute, so exp(-i theta sum_i P_i) is
  the product of the per-position rotations. u3(theta, phi, lam) composes
  R_Z(phi) R_Y(theta) R_Z(lam) in the half-angle convention, and cu3 applies a
  u3 on the target controlled on the first qubit of the pair.

Kernel: a state batch is a (B, 2, ..., 2) tensor, axis q holding qubit q,
and a circuit is applied as Circuit.steps, each with one operator at theta
(step_operator). Each gate that is not diagonal is a step, its operator its
local matrix on k target qubits: one BLAS product, with the target axes moved
last by a transpose (its axis plan cached per target tuple and rank), the
tensor flattened to (rows, 2**k) and multiplied by the transposed matrix, and
the axes moved back. sumx and sumzxz make one such product per ring position.
rz, rzz and sumz have all-Z strings, so they are diagonal: each maximal
stretch of them is a step whose operator is the phase table
exp(-i sum_t theta_t z_t(s)) on the qubits it touches (the +-1 signs z_t(s)
tabled once per circuit), multiplied into the batch broadcast over the rest.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .hamiltonians import PAULI


@dataclass(frozen=True)
class GateKind:
    """Target count (0: a sum gate over the ring), slot count, and the Pauli
    string a rotation exponentiates (None for u3 and cu3)."""

    targets: int
    slots: int
    pauli: str | None = None


GATES = {
    "rx": GateKind(1, 1, "X"),
    "rz": GateKind(1, 1, "Z"),
    "rzz": GateKind(2, 1, "ZZ"),
    "rxx": GateKind(2, 1, "XX"),
    "ryy": GateKind(2, 1, "YY"),
    "u3": GateKind(1, 3),
    "cu3": GateKind(2, 3),
    "sumx": GateKind(0, 1, "X"),
    "sumz": GateKind(0, 1, "Z"),
    "sumzxz": GateKind(0, 1, "ZXZ"),
}
_DIAGONAL = {name for name, kind in GATES.items() if set(kind.pauli or "") == {"Z"}}


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

    @cached_property
    def steps(self) -> tuple[tuple, ...]:
        """(lo, hi, slots, signs, shape) per step of gates[lo:hi]: for a diagonal
        run, one slot per gate, a sign table (row t: gate t's term signs summed,
        on the qubits the run touches) and its phase's broadcast shape; else None."""
        steps, lo = [], 0
        for diagonal, group in itertools.groupby(self.gates, lambda g: g.name in _DIAGONAL):
            group = list(group)
            hi = lo + len(group)
            if diagonal:
                terms = [_positions(g, self.n) for g in group]
                axes = sorted({q for t in terms for pos in t for q in pos})
                bits = np.arange(2 ** len(axes))
                z = {q: 1.0 - 2.0 * ((bits >> len(axes) - 1 - i) & 1) for i, q in enumerate(axes)}
                table = [sum(np.prod([z[q] for q in pos], axis=0) for pos in t) for t in terms]
                shape = [2 if q in z else 1 for q in range(1, self.n + 1)]
                steps.append((lo, hi, np.array([g.slots[0] for g in group]), np.array(table), shape))
            else:
                steps.extend((k, k + 1, None, None, None) for k in range(lo, hi))
            lo = hi
        return tuple(steps)


def _validate_circuit(n: int, gates: Sequence[Gate], param_count: int) -> None:
    for g in gates:
        kind = GATES.get(g.name)
        if kind is None:
            raise ValueError(f"unknown gate {g.name!r}")
        if len(g.qubits) != kind.targets:
            raise ValueError(f"{g.name} expects {kind.targets} qubits")
        if len(g.slots) != kind.slots:
            raise ValueError(f"{g.name} expects {kind.slots} slots")
        if any(not 1 <= q <= n for q in g.qubits):
            raise ValueError(f"gate targets {g.qubits} outside 1..{n}")
        if len(set(g.qubits)) != len(g.qubits):
            raise ValueError(f"repeated target in {g.qubits}")
        if not kind.targets and len(kind.pauli) > n:
            raise ValueError(f"{g.name} needs at least {len(kind.pauli)} qubits")
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


def _rotation_basis(string: str) -> np.ndarray:
    """I and -iP as the two rows of a (2, 4**k) array, P the string's matrix."""
    p = linalg.kron([PAULI[c] for c in string])
    return np.stack([np.eye(len(p)), -1j * p]).reshape(2, -1)


_ROTATION_BASIS = {name: _rotation_basis(kind.pauli) for name, kind in GATES.items() if kind.pauli}


def gate_matrix(gate: Gate, params: np.ndarray) -> np.ndarray:
    """Local matrix of a gate on its targets, or of one ring term of a sum gate.

    A rotation is (cos theta, sin theta) times its basis rows, reshaped: the
    entries are cos(theta) I - i sin(theta) P, exact since P holds 0 and +-1.
    """
    name = gate.name
    pauli = GATES[name].pauli
    if pauli:
        theta = float(params[gate.slots[0]])
        k = 2 ** len(pauli)
        return np.dot((np.cos(theta), np.sin(theta)), _ROTATION_BASIS[name]).reshape(k, k)
    angles = [float(params[s]) for s in gate.slots]
    if name == "u3":
        return _u3_matrix(*angles)
    # cu3, the one other kind without a Pauli string
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = _u3_matrix(*angles)
    return out


# ---------------------------------------------------------------------------
# state application

@lru_cache(maxsize=None)
def _axis_plan(qubits: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutation moving the target axes last, and its inverse."""
    perm = tuple(ax for ax in range(ndim) if ax not in qubits) + qubits
    inv = tuple(int(i) for i in np.argsort(perm))
    return perm, inv


def _apply_local(batch: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit matrix to batch axes; batch shape (B, 2, ..., 2).

    One zgemm on the target axes moved last. The operands and their layout
    are those np.tensordot builds, so the floats are the same; einsum or
    elementwise products round differently. np.matmul issues the zgemm that
    np.dot would, but lets OpenBLAS split a tall product over its threads;
    each output row is still one thread's (1 x 2^k)(2^k x 2^k) product, so
    the bits depend on neither the call nor the BLAS thread count.
    """
    perm, inv = _axis_plan(qubits, batch.ndim)
    moved = batch.transpose(perm)
    out = np.matmul(moved.reshape(-1, mat.shape[0]), mat.T)
    return out.reshape(moved.shape).transpose(inv)


@lru_cache(maxsize=None)
def _ring(width: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The ring positions (i, i+1, ...) mod n, i = 1..n, of a width-qubit string."""
    return tuple(tuple((i + j) % n + 1 for j in range(width)) for i in range(n))


def _positions(gate: Gate, n: int) -> tuple[tuple[int, ...], ...]:
    """Target tuples of a gate's local matrix: its qubits, or a sum gate's ring."""
    return (gate.qubits,) if gate.qubits else _ring(len(GATES[gate.name].pauli), n)


def _apply_gate(
    batch: np.ndarray, gate: Gate, theta: np.ndarray, n: int, mat: np.ndarray | None = None
) -> np.ndarray:
    """One gate applied to a tensor-shaped batch (B, 2, ..., 2).

    mat is the gate's local matrix at theta if already built; without it the
    matrix is built here. A sum gate applies it at each ring position.
    """
    if mat is None:
        mat = gate_matrix(gate, theta)
    for qubits in _positions(gate, n):
        batch = _apply_local(batch, mat, qubits)
    return batch


def step_operator(circuit: Circuit, index: int, theta: np.ndarray) -> np.ndarray:
    """Operator of circuit.steps[index] at theta: a gate's local matrix or a run's phase table."""
    lo, _, slots, signs, shape = circuit.steps[index]
    if signs is None:
        return gate_matrix(circuit.gates[lo], theta)
    return np.exp(-1j * (np.asarray(theta, dtype=float)[slots] @ signs)).reshape(shape)


def _evolve(circuit: Circuit, theta: np.ndarray, states: np.ndarray, start: int, ops):
    """Validate the inputs, then yield the batch as a (B, 2, ..., 2) tensor:
    first as given, then after each of gates[start:], except that a diagonal
    run is one step: the entries of its gates but the last are the batch
    before it, the same array. A start inside a run applies the whole run.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.param_count,):
        raise ValueError(
            f"theta must have length {circuit.param_count}, got {theta.shape}"
        )
    batch = np.atleast_2d(np.asarray(states, dtype=complex))
    if batch.shape[1] != 2**circuit.n:
        raise ValueError(f"state dimension {batch.shape[1]} does not match n={circuit.n}")
    tensor = batch.reshape([len(batch)] + [2] * circuit.n)
    yield tensor
    for i, (lo, hi, _, signs, _) in enumerate(circuit.steps):
        if hi <= start:
            continue
        op = step_operator(circuit, i, theta) if ops is None else ops[i]
        if signs is None:
            tensor = _apply_gate(tensor, circuit.gates[lo], theta, circuit.n, op)
        else:
            for _ in range(max(lo, start) + 1, hi):
                yield tensor
            tensor = tensor * op
        yield tensor


def apply_circuit(
    circuit: Circuit,
    theta: np.ndarray,
    states: np.ndarray,
    start: int = 0,
    ops: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Evolve one state vector or a batch of them through the circuit.

    states has shape (2**n,) or (B, 2**n); the same shape comes back. With
    start > 0 only gates[start:] are applied, which lets callers resume from
    entry start of apply_circuit_trace (inside a diagonal run, the whole run is
    applied). ops, when given, holds step_operator(circuit, i, theta) for
    every step i, so that the operators are not rebuilt.
    """
    for tensor in _evolve(circuit, theta, states, start, ops):
        pass
    out = tensor.reshape(len(tensor), 2**circuit.n)
    return out[0] if np.ndim(states) == 1 else out


def apply_circuit_trace(
    circuit: Circuit,
    theta: np.ndarray,
    states: np.ndarray,
    ops: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Like apply_circuit on a (B, 2**n) batch, but keeps every intermediate.

    Returns a list of length len(gates) + 1 of flat (B, 2**n) snapshots;
    entry k is the state before gate k, or before its run if gate k lies in
    a diagonal run (every such entry is the same array), and the last entry
    is the final state. apply_circuit with start=k resumes from entry k.
    ops is as in apply_circuit.
    """
    # the input is copied once; reshape copies a transposed gate output, a
    # contiguous one is a fresh array already, and no gate writes to its input;
    # a batch yielded again inside a run is flattened once
    trace, last = [], None
    for t in _evolve(circuit, theta, np.array(states, dtype=complex), 0, ops):
        if t is not last:
            last, flat = t, t.reshape(len(t), 2**circuit.n)
        trace.append(flat)
    return trace


# Bytes of identity rows evolved per batch in unitary. At about 1 MB each
# gate's input, transposed copy and output stay cache-sized, and the d x d
# result is allocated once instead of a fresh d x d batch per gate (at n=10,
# 16 MB each). That is 64 rows at n=10, and the whole identity in one batch at
# n <= 8. Between 0.5 and 2 MB, hea(10, 2)'s unitary took about the same time
# on a 2-core x86 VM; 0.25 MB and 4 MB or more were slower.
UNITARY_BLOCK_BYTES = 2**20


def unitary(circuit: Circuit, theta: np.ndarray) -> np.ndarray:
    """Dense unitary of the whole circuit (first gate rightmost).

    Row k of the evolved identity is U e_k, the column k of U. The identity is
    evolved in blocks of UNITARY_BLOCK_BYTES worth of rows, each written into
    one preallocated d x d array. Rows evolve independently and every block
    meets the same BLAS product per gate, so U is bitwise the one-batch
    apply_circuit(circuit, theta, I).T.
    """
    d = 2**circuit.n
    rows = max(1, UNITARY_BLOCK_BYTES // (16 * d))
    evolved = np.empty((d, d), dtype=complex)
    for k in range(0, d, rows):
        block = np.eye(min(rows, d - k), d, k, dtype=complex)
        evolved[k : k + len(block)] = apply_circuit(circuit, theta, block)
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
