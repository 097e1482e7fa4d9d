"""Spin-chain Hamiltonians assembled from Pauli strings.

All builders return dense Hermitian matrices on 2**n dimensions with qubit 1
as the most significant bit. Periodic models wrap indices modulo n. A Pauli
string is added as a bit-flip mask plus a phase per basis state, so no
builder forms Kronecker products; pauli_matrix keeps the dense Kronecker
form as the reference the tests compare against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A scaled product of single-qubit Paulis on an n-qubit register.

    letters maps 1-based qubit indices to 'X', 'Y' or 'Z'; omitted qubits
    carry the identity.
    """

    n: int
    letters: tuple[tuple[int, str], ...]
    coeff: float = 1.0

    def __init__(self, n: int, letters: Mapping[int, str], coeff: float = 1.0):
        if n < 1:
            raise ValueError("need at least one qubit")
        items = tuple(sorted(letters.items()))
        for q, p in items:
            if not 1 <= q <= n:
                raise ValueError(f"qubit index {q} outside 1..{n}")
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {p!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", items)
        object.__setattr__(self, "coeff", float(coeff))


def pauli_matrix(ps: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string."""
    lookup = dict(ps.letters)
    factors = [PAULI[lookup.get(q, "I")] for q in range(1, ps.n + 1)]
    return ps.coeff * linalg.kron(factors)


def _flip_and_phase(ps: PauliString) -> tuple[int, np.ndarray]:
    """Bit-flip mask and per-column phase of a Pauli string, coefficient aside.

    Column s of the string's matrix holds one nonzero entry, phase[s], in row
    s ^ flip: X and Y flip their qubit's bit, Y contributes i (bit 0) or -i
    (bit 1), and Z contributes -1 on bit 1.
    """
    n = ps.n
    idx = np.arange(2**n)
    flip = 0
    power = np.zeros(2**n, dtype=np.int64)  # phase = i**power
    for q, p in ps.letters:
        bit = n - q
        b = (idx >> bit) & 1
        if p != "Z":
            flip |= 1 << bit
        if p == "Y":
            power += 1 + 2 * b
        elif p == "Z":
            power += 2 * b
    return flip, np.array([1, 1j, -1, -1j])[power % 4]


def pauli_sum(strings: Sequence[PauliString]) -> np.ndarray:
    """Dense sum of Pauli strings sharing one register size.

    Each string adds coeff * phase into out[s ^ flip, s] for every column s,
    O(2**n) work per string. The values added are exactly those of the dense
    pauli_matrix, in the same order per entry, so the sum is bitwise the same.
    """
    if not strings:
        raise ValueError("empty Pauli sum")
    n = strings[0].n
    if any(ps.n != n for ps in strings):
        raise ValueError("all strings must act on the same register")
    out = np.zeros((2**n, 2**n), dtype=complex)
    cols = np.arange(2**n)
    for ps in strings:
        flip, phase = _flip_and_phase(ps)
        out[cols ^ flip, cols] += ps.coeff * phase
    return out


def ising(n: int, h: float) -> np.ndarray:
    """Transverse-field Ising ring: sum_i Z_i Z_{i+1} + h sum_i X_i.

    Periodic boundary; for n=2 both bond terms hit the same pair, so the
    coupling there is effectively doubled.
    """
    if n < 2:
        raise ValueError("ising needs n >= 2")
    terms = []
    for i in range(1, n + 1):
        j = i % n + 1
        terms.append(PauliString(n, {i: "Z", j: "Z"}))
        terms.append(PauliString(n, {i: "X"}, coeff=h))
    return pauli_sum(terms)


def schwinger(n: int, mu: float, w: float = 1.0, g: float = 1.0) -> np.ndarray:
    """Lattice gauge chain with open hopping terms and a staggered mass.

    H = w sum_{j<n} (X_j X_{j+1} + Y_j Y_{j+1})
        + (mu/2) sum_j (-1)^j Z_j
        - (g/2) sum_j sum_{l<=j} (Z_l + (-1)^j I).

    The field term is expanded as written above, including the staggered
    identity shift inside the nested sum (it only moves the spectrum's
    offset): qubit l collects -(g/2)(n - l + 1) Z_l and the identity
    -g n/4, since sum_j j (-1)^j = n/2 for even n. The third term is
    therefore a linearly varying longitudinal field, so the ground family
    changes smoothly across mu without a sharp critical feature.
    """
    if n < 2 or n % 2:
        raise ValueError("schwinger needs even n >= 2")
    terms = []
    for j in range(1, n):
        terms.append(PauliString(n, {j: "X", j + 1: "X"}, coeff=w))
        terms.append(PauliString(n, {j: "Y", j + 1: "Y"}, coeff=w))
    for j in range(1, n + 1):
        z = (mu / 2.0) * (-1) ** j - 0.5 * g * (n - j + 1)
        terms.append(PauliString(n, {j: "Z"}, coeff=z))
    terms.append(PauliString(n, {}, coeff=g * n * -0.25))
    return pauli_sum(terms)


def cluster(n: int, x: float, eps: float = 1e-2) -> np.ndarray:
    """Interpolated cluster ring with a small symmetry-breaking field.

    H(x) = -cos(pi x / 2) sum_i Z_i X_{i+1} Z_{i+2}
           - sin(pi x / 2) sum_i X_i - eps sum_i Z_i,
    indices periodic. At x=1 (and eps=0) the ground state is |+>^n; at x=0
    the three-body stabilizer terms dominate.
    """
    if n < 3:
        raise ValueError("cluster needs n >= 3")
    cx = np.cos(np.pi * x / 2.0)
    sx = np.sin(np.pi * x / 2.0)
    terms = []
    for i in range(1, n + 1):
        j = i % n + 1
        k = j % n + 1
        terms.append(PauliString(n, {i: "Z", j: "X", k: "Z"}, coeff=-cx))
        terms.append(PauliString(n, {i: "X"}, coeff=-sx))
        terms.append(PauliString(n, {i: "Z"}, coeff=-eps))
    return pauli_sum(terms)
