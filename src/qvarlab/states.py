"""State constructors, labeled states, and fidelity."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg

GAP_TOL = 1e-10
EIGENVALUE_CLIP = -1e-10
NORM_TOL = 1e-10
ENSEMBLE_FLOOR = 1e-13
ENSEMBLE_TOL = 1e-10


class DegenerateGroundSpaceWarning(UserWarning):
    """Raised when the two lowest eigenvalues are closer than the gap tolerance."""


@dataclass(frozen=True)
class LabeledState:
    """A quantum state tagged with the real label it encodes.

    Exactly one of psi (unit vector) or rho (density matrix) is set. A rho
    may come with its ensemble (weighted pure rows plus white noise) when
    the caller knows it in closed form; it is checked against rho to
    ENSEMBLE_TOL at construction.
    """

    label: float
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None
    ens: Ensemble | None = field(default=None, repr=False)

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
        if self.ens is not None:
            if self.rho is None:
                raise ValueError("an ensemble may only accompany rho")
            shape = np.shape(self.ens.rows)
            if shape != (len(self.ens.weights), self.dim):
                raise ValueError(f"ensemble rows have shape {shape} for dimension {self.dim}")
            defect = np.max(np.abs(_ensemble_density(self.ens) - self.rho))
            if defect > ENSEMBLE_TOL:
                raise ValueError(f"ensemble misses rho by {defect:.3e}")

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
        """This state as weighted pure rows plus white noise.

        The ensemble given at construction if there is one (the mixture
        family's closed form, whose rows every item of a train set shares
        byte for byte), else white_noise_ensemble of psi or rho.
        """
        if self.ens is not None:
            return self.ens
        return white_noise_ensemble(self.psi if self.is_pure else self.rho)


class Ensemble(NamedTuple):
    """rho = sum_k weights[k] |rows[k]><rows[k]| + noise * I/d."""

    weights: np.ndarray
    rows: np.ndarray
    noise: float


def _ensemble_density(ens: Ensemble) -> np.ndarray:
    """The d x d matrix sum_k w_k |r_k><r_k| + noise * I/d."""
    rows = np.asarray(ens.rows, dtype=complex)
    dim = rows.shape[1]
    rho = (rows.T * ens.weights) @ rows.conj()
    rho[np.diag_indices(dim)] += ens.noise / dim
    return rho


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


def _sqrt_spectrum(values: np.ndarray) -> np.ndarray:
    """Square roots of a PSD spectrum clipped at 0; below EIGENVALUE_CLIP raises."""
    if values.min() < EIGENVALUE_CLIP:
        raise ValueError(f"negative eigenvalue beyond tolerance: {values.min():.3e}")
    return np.sqrt(np.clip(values, 0.0, None))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    es = linalg.herm_eig(linalg.hermitianize(rho), tol=1e-10)
    return (es.vectors * _sqrt_spectrum(es.values)) @ es.vectors.conj().T


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
    return float(np.sum(_sqrt_spectrum(np.linalg.eigvalsh(inner))))


def _check_gap(values: np.ndarray) -> None:
    if len(values) > 1 and values[1] - values[0] < GAP_TOL:
        warnings.warn(
            f"ground space is degenerate within {GAP_TOL:.1e} "
            f"(gap {values[1] - values[0]:.3e})",
            DegenerateGroundSpaceWarning,
            stacklevel=3,
        )


def ground_state(h: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of a Hermitian matrix, phase-fixed.

    A matrix of even size that commutes with the global spin flip X^{(x)n},
    which maps basis index s to d-1-s, so that h[::-1, ::-1] == h exactly,
    is solved per flip-parity sector. With A the upper-left block and B the
    upper-right block of h, the even and odd sectors are the d/2-wide
    matrices A + B J and A - B J (J reverses the columns). Such an h is
    Hermitian exactly when both sectors are, so herm_eig's check of each
    sector is the only check; the whole matrix is not checked. If the
    imaginary part of h is exactly zero (the Ising ring, the cluster chain at
    eps == 0), the sectors are split from h.real and solved as real symmetric
    matrices. The lower sector's ground vector x is returned as
    [x, +-x[::-1]]/sqrt(2), complex128 and phase-fixed. Sector energies
    within GAP_TOL of each other select the even sector: the Ising ring at
    even n, near-degenerate at small field, has an even ground state exactly,
    since conjugating by the product of Z makes it stoquastic. Any other
    matrix (for example the cluster chain at eps != 0 or the Schwinger chain)
    is eigensolved whole, in complex arithmetic.

    A DegenerateGroundSpaceWarning is emitted when the two lowest eigenvalues
    of the matrix solved (the whole matrix or the chosen sector) are closer
    than GAP_TOL; the lowest-index eigenvector is still returned.
    """
    h = linalg.as_matrix(h)
    d = len(h)
    if d % 2 or not np.array_equal(h[::-1, ::-1], h):
        es = linalg.herm_eig(h)
        _check_gap(es.values)
        return es.vectors[:, 0].copy()
    if not h.imag.any():
        h = h.real
    a = h[: d // 2, : d // 2]
    bj = h[: d // 2, d // 2 :][:, ::-1]
    even, odd = linalg.herm_eig(a + bj), linalg.herm_eig(a - bj)
    sign, es = (1.0, even) if even.values[0] < odd.values[0] + GAP_TOL else (-1.0, odd)
    _check_gap(es.values)
    x = es.vectors[:, 0]
    psi = np.concatenate([x, sign * x[::-1]]) / np.sqrt(2.0)
    return linalg._fix_phases(psi[:, None])[:, 0].astype(complex, copy=False)
