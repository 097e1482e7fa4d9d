"""State constructors, labeled states, and fidelity."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg

GAP_TOL = 1e-10
EIGENVALUE_CLIP = -1e-10
NORM_TOL = 1e-10
ENSEMBLE_FLOOR = 1e-13


class DegenerateGroundSpaceWarning(UserWarning):
    """Raised when the two lowest eigenvalues are closer than the gap tolerance."""


@dataclass(frozen=True)
class LabeledState:
    """A quantum state tagged with the real label it encodes.

    Exactly one of psi (unit vector) or rho (density matrix) is set.
    """

    label: float
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None

    def __post_init__(self):
        if (self.psi is None) == (self.rho is None):
            raise ValueError("exactly one of psi or rho must be given")
        if self.psi is not None:
            psi = np.asarray(self.psi, dtype=complex)
            if psi.ndim != 1:
                raise ValueError(f"psi must be a vector, got shape {psi.shape}")
            nrm = np.linalg.norm(psi)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"psi must be normalized (norm {nrm:.12f})")
            object.__setattr__(self, "psi", psi)
        else:
            rho = linalg.require_hermitian(self.rho, tol=1e-10)
            tr = np.trace(rho).real
            if abs(tr - 1.0) > 1e-8:
                raise ValueError(f"rho must have unit trace (got {tr:.12f})")
            object.__setattr__(self, "rho", rho)

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

    @property
    def dim(self) -> int:
        return len(self.psi) if self.psi is not None else self.rho.shape[0]

    def density(self) -> np.ndarray:
        if self.psi is not None:
            return np.outer(self.psi, self.psi.conj())
        return self.rho

    def ensemble(self) -> Ensemble:
        """This state as weighted pure rows plus white noise."""
        return white_noise_ensemble(self.psi if self.is_pure else self.rho)


class Ensemble(NamedTuple):
    """rho = sum_k weights[k] |rows[k]><rows[k]| + noise * I/d."""

    weights: np.ndarray
    rows: np.ndarray
    noise: float


def white_noise_ensemble(state) -> Ensemble:
    """Weighted pure rows plus a white-noise weight that sum to the state.

    A vector is one row of weight 1 with no noise. A density matrix is
    eigendecomposed once: with lambda_min its smallest eigenvalue,
    rho = sum_k (lambda_k - lambda_min) |v_k><v_k| + d lambda_min I/d exactly,
    and rows of weight at or below ENSEMBLE_FLOOR are dropped. Since
    U (I/d) U^dag = I/d, only the rows need evolving: a rank-r state mixed
    with white noise costs r rows, and I/d itself costs none.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return Ensemble(np.ones(1), arr[None, :], 0.0)
    es = linalg.herm_eig(arr, tol=1e-10)
    floor = es.values[0]
    weights = es.values - floor
    keep = weights > ENSEMBLE_FLOOR
    return Ensemble(weights[keep], es.vectors[:, keep].T, float(len(weights) * floor))


def ghz(n: int, sign: int = +1) -> np.ndarray:
    """(|0...0> + sign |1...1>)/sqrt(2) on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[-1] = sign / np.sqrt(2.0)
    return v


def rank2_state(r: float, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Density matrix r |v1><v1| + (1-r) |v2><v2| for orthonormal v1, v2."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"weight r must lie in [0, 1], got {r}")
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    if v1.shape != v2.shape or v1.ndim != 1:
        raise ValueError("v1 and v2 must be vectors of equal length")
    for name, v in (("v1", v1), ("v2", v2)):
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"{name} must be normalized (norm {nrm:.12f})")
    overlap = abs(np.vdot(v1, v2))
    if overlap > NORM_TOL:
        raise ValueError(f"v1 and v2 must be orthogonal (|<v1|v2>| = {overlap:.3e})")
    return r * np.outer(v1, v1.conj()) + (1.0 - r) * np.outer(v2, v2.conj())


def mixture_state(alpha: float, rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Convex combination alpha rho1 + (1 - alpha) rho2."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    rho1 = linalg.as_matrix(rho1)
    rho2 = linalg.as_matrix(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"shape mismatch {rho1.shape} vs {rho2.shape}")
    return alpha * rho1 + (1.0 - alpha) * rho2


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    es = linalg.herm_eig(linalg.hermitianize(rho), tol=1e-10)
    if es.values.min() < EIGENVALUE_CLIP:
        raise ValueError(
            f"negative eigenvalue beyond tolerance: {es.values.min():.3e}"
        )
    vals = np.sqrt(np.clip(es.values, 0.0, None))
    return (es.vectors * vals) @ es.vectors.conj().T


def fidelity(rho: np.ndarray, tau: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) tau sqrt(rho)).

    Inputs are symmetrized and eigenvalue-clipped at -1e-10 first; anything
    more negative raises.
    """
    rho = linalg.as_matrix(rho)
    tau = linalg.as_matrix(tau)
    if rho.shape != tau.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {tau.shape}")
    s = _psd_sqrt(rho)
    inner = linalg.hermitianize(s @ linalg.hermitianize(tau) @ s)
    vals = np.linalg.eigvalsh(inner)
    if vals.min() < EIGENVALUE_CLIP:
        raise ValueError(f"negative eigenvalue beyond tolerance: {vals.min():.3e}")
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def ground_state(h: np.ndarray, gap_tol: float = GAP_TOL) -> np.ndarray:
    """Lowest eigenvector of a Hermitian matrix, phase-fixed.

    If the spectral gap above the ground energy is below gap_tol the ground
    space is effectively degenerate; the lowest-index eigenvector is still
    returned but a DegenerateGroundSpaceWarning is emitted.
    """
    es = linalg.herm_eig(h)
    if len(es.values) > 1 and es.values[1] - es.values[0] < gap_tol:
        warnings.warn(
            f"ground space is degenerate within {gap_tol:.1e} "
            f"(gap {es.values[1] - es.values[0]:.3e})",
            DegenerateGroundSpaceWarning,
            stacklevel=2,
        )
    return es.vectors[:, 0].copy()
