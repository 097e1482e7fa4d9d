"""Trainable readout observables measured on the trailing qubits.

A ParamObservable pairs a parametrized circuit U(theta) on n qubits with a
computational-basis measurement of the last m qubits (the least significant
bits) and one real eigenvalue lambda_i per outcome. The represented operator
is

    M = sum_i lambda_i U(theta)^dag (I x |i><i|) U(theta),

so every projector has rank 2**(n-m). Probabilities, expectation values and
variances are computed by evolving the state's weighted pure rows and
marginalizing the outcome bits, which agrees with the dense projector route
but stays cheap. as_ensemble gives every state its rows, here and in
fisher.outcome_probs: a LabeledState brings its own (LabeledState.ensemble:
a pure state's one row, or a mixed state's ensemble, such as the mixture
family's closed form with two rows); a bare vector or density matrix is
first checked to be a state (states.check_state), then decomposed by
states.white_noise_ensemble: a bare density matrix costs an eigvalsh and an
eigendecomposition per call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, apply_circuit, unitary
from .states import Ensemble, LabeledState, check_state, white_noise_ensemble

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


def as_ensemble(state) -> Ensemble:
    """The state's ensemble: a LabeledState's own (valid by construction), or
    states.white_noise_ensemble of a bare vector or density matrix once
    states.check_state accepts it."""
    if isinstance(state, LabeledState):
        return state.ensemble()
    return white_noise_ensemble(check_state(np.asarray(state, dtype=complex)))


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

    state is a vector, a density matrix, or a LabeledState; a LabeledState
    is evolved as its own ensemble (LabeledState.ensemble), so a mixture
    family state costs no eigendecomposition. Values below 1e-14 are clamped
    to exactly zero.
    """
    ens = as_ensemble(state)
    rows = apply_circuit(obs.circuit, theta, ens.rows)
    p = ensemble_outcomes(rows, ens.weights, ens.noise, obs.m)
    p[p < PROB_CLAMP] = 0.0
    return p


def moments(p: np.ndarray, lambdas: np.ndarray):
    """Readout mean and variance <M^2> - <M>^2; p may stack distributions as rows."""
    mean = p @ lambdas
    return mean, p @ lambdas**2 - mean**2


def expectation(obs: ParamObservable, theta: np.ndarray, state) -> float:
    return float(moments(probabilities(obs, theta, state), obs.lambdas)[0])


def variance(obs: ParamObservable, theta: np.ndarray, state) -> float:
    """<M^2> - <M>^2 for the represented observable in the given state."""
    return float(moments(probabilities(obs, theta, state), obs.lambdas)[1])


def matrix(obs: ParamObservable, theta: np.ndarray) -> SpectralObservable:
    """Dense eigenvalue/projector form M = sum_i lambda_i U^dag P_i U.

    Projector i is R^dag R, R the rows i, i + 2**m, ... of U (the outcome's
    basis states); each product is written straight into the (2**m, d, d)
    stack, with no d x d temporary per outcome.
    """
    u = unitary(obs.circuit, theta)
    d = u.shape[0]
    step = 2**obs.m
    projectors = np.empty((step, d, d), dtype=complex)
    for i in range(step):
        rows = u[i::step]
        np.matmul(rows.conj().T, rows, out=projectors[i])
    return SpectralObservable(lambdas=obs.lambdas.copy(), projectors=projectors)

