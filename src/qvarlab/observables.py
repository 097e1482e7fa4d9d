"""Trainable readout observables measured on the trailing qubits.

A ParamObservable pairs a parametrized circuit U(theta) on n qubits with a
computational-basis measurement of the last m qubits (the least significant
bits) and one real eigenvalue lambda_i per outcome. The represented operator
is

    M = sum_i lambda_i U(theta)^dag (I x |i><i|) U(theta),

so every projector has rank 2**(n-m). Probabilities, expectation values and
variances are computed by evolving the state's weighted pure rows (see
states.white_noise_ensemble) and marginalizing the outcome bits, which agrees
with the dense projector route but stays cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuits import Circuit, apply_circuit, unitary
from .states import LabeledState, white_noise_ensemble

PROB_CLAMP = 1e-14


@dataclass(frozen=True)
class ParamObservable:
    """Circuit, measured-qubit count, and one eigenvalue per outcome."""

    circuit: Circuit
    m: int
    lambdas: np.ndarray

    def __post_init__(self):
        if not 1 <= self.m <= self.circuit.n:
            raise ValueError(f"m must lie in 1..{self.circuit.n}, got {self.m}")
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (2**self.m,):
            raise ValueError(
                f"lambdas must have length {2**self.m}, got shape {lam.shape}"
            )
        object.__setattr__(self, "lambdas", lam)

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def outcomes(self) -> int:
        return 2**self.m


@dataclass(frozen=True)
class SpectralObservable:
    """Explicit eigenvalue/projector form of a readout observable."""

    lambdas: np.ndarray
    projectors: np.ndarray  # shape (outcomes, d, d)

    def operator(self) -> np.ndarray:
        return np.einsum("k,kij->ij", self.lambdas, self.projectors)


def _coerce_state(state) -> np.ndarray:
    if isinstance(state, LabeledState):
        return state.psi if state.is_pure else state.rho
    arr = np.asarray(state, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"state must be a vector or density matrix, got {arr.ndim}d")
    return arr


def ensemble_outcomes(rows: np.ndarray, weights: np.ndarray, noise, m: int) -> np.ndarray:
    """weights @ (outcome marginals of the evolved rows) + noise / 2**m.

    rows holds evolved ensemble rows (R, 2**n); weights is (R,) for one state
    or (B, R) for a batch of states, with noise a scalar or (B, 1) to match.
    White noise stays white under the circuit, so it spreads evenly over the
    outcomes.
    """
    r, d = rows.shape
    marginals = (np.abs(rows) ** 2).reshape(r, d // 2**m, 2**m).sum(axis=1)
    return weights @ marginals + noise / 2**m


def probabilities(obs: ParamObservable, theta: np.ndarray, state) -> np.ndarray:
    """Outcome distribution over the 2**m readout results.

    state is a vector, a density matrix, or a LabeledState. Values below
    1e-14 are clamped to exactly zero.
    """
    ens = white_noise_ensemble(_coerce_state(state))
    rows = apply_circuit(obs.circuit, theta, ens.rows)
    p = ensemble_outcomes(rows, ens.weights, ens.noise, obs.m)
    p[p < PROB_CLAMP] = 0.0
    return p


def expectation(obs: ParamObservable, theta: np.ndarray, state) -> float:
    p = probabilities(obs, theta, state)
    return float(p @ obs.lambdas)


def variance(obs: ParamObservable, theta: np.ndarray, state) -> float:
    """<M^2> - <M>^2 for the represented observable in the given state."""
    p = probabilities(obs, theta, state)
    mean = p @ obs.lambdas
    return float(p @ obs.lambdas**2 - mean**2)


def matrix(obs: ParamObservable, theta: np.ndarray) -> SpectralObservable:
    """Dense eigenvalue/projector form M = sum_i lambda_i U^dag P_i U."""
    u = unitary(obs.circuit, theta)
    d = u.shape[0]
    step = 2**obs.m
    projectors = np.empty((step, d, d), dtype=complex)
    for i in range(step):
        rows = u[i::step]
        projectors[i] = rows.conj().T @ rows
    return SpectralObservable(lambdas=obs.lambdas.copy(), projectors=projectors)


def naimark_embed(state, n_ancilla: int):
    """Append n_ancilla fresh |0> qubits at the least significant end."""
    if n_ancilla < 1:
        raise ValueError("need at least one ancilla")
    arr = _coerce_state(state)
    if arr.ndim == 1:
        anc = np.zeros(2**n_ancilla, dtype=complex)
        anc[0] = 1.0
        return linalg.kron(arr, anc)
    anc_rho = np.zeros((2**n_ancilla, 2**n_ancilla), dtype=complex)
    anc_rho[0, 0] = 1.0
    return linalg.kron(arr, anc_rho)
