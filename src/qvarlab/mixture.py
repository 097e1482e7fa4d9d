"""Closed-form optimal observables for the rank-2 plus white-noise mixture.

The model interpolates rho_alpha = alpha rho1 + (1-alpha) I/2^n where rho1 is
a rank-2 state r|v1><v1| + (1-r)|v2><v2|. Estimating alpha from measurement
statistics admits closed forms: the optimal full-basis eigenvalues, the
optimal coarse observable when only m qubits are read out, and the variances
of both. The test suite checks every closed form against dense matrix
algebra (the dense optimal projectors and a Haar search for better ones live
in tests/oracles.py), because two printed forms circulating for this model
are inconsistent with the defining constraints; tests/oracles.py keeps one,
qfi_alpha_printed, only as a documented reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .fisher import StateFamily, fisher_information
from .states import ENSEMBLE_FLOOR, Ensemble, ghz, mixture_state
from .states import check_rank2, rank2_state

EIG_FLOOR = 1e-15
SLOPE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Rank-2 signal state mixed with white noise on n qubits."""

    n: int
    r: float
    v1: np.ndarray = None
    v2: np.ndarray = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        v1 = ghz(self.n, +1) if self.v1 is None else self.v1
        v2 = ghz(self.n, -1) if self.v2 is None else self.v2
        v1, v2 = check_rank2(self.r, v1, v2)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    @property
    def dim(self) -> int:
        return 2**self.n

    def rho1(self) -> np.ndarray:
        return rank2_state(self.r, self.v1, self.v2)

    def rho2(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex) / self.dim

    def rho(self, alpha: float) -> np.ndarray:
        return mixture_state(alpha, self.rho1(), self.rho2())

    def ensemble(self, alpha: float) -> Ensemble:
        """rho(alpha) in closed form: rows v1, v2 of weights alpha r and
        alpha (1-r), the ones at or below ENSEMBLE_FLOOR dropped, plus noise
        1 - alpha. The rows are taken from one array built once per model, so
        the states of a train set share them byte for byte and the training
        engine evolves two rows for the whole set.
        """
        weights = alpha * np.array([self.r, 1.0 - self.r])
        keep = weights > ENSEMBLE_FLOOR
        return Ensemble(weights[keep], self._signal_rows[keep], 1.0 - alpha)

    @cached_property
    def _signal_rows(self) -> np.ndarray:
        return np.stack([self.v1, self.v2])

    def family(self) -> StateFamily:
        return StateFamily(self.ensemble, (0.0, 1.0))

    def eigenbasis(self) -> np.ndarray:
        """Orthonormal columns: eigenvectors of rho1 in descending eigenvalue
        order (the signal pair first, then a deterministic completion of the
        kernel).
        """
        first = [self.v1, self.v2] if self.r >= 0.5 else [self.v2, self.v1]
        seed = np.concatenate(
            [np.stack(first, axis=1), np.eye(self.dim, dtype=complex)], axis=1
        )
        q = np.linalg.qr(seed)[0][:, : self.dim]
        return linalg._fix_phases(q)


def qfi_half_closed(n: int, r: float) -> float:
    """Quantum Fisher information of the model at alpha = 1/2."""
    d = 2**n
    return 4.0 - 8.0 * (r - 1.0) / (d * (r - 1.0) - 1.0) - 8.0 * r / (d * r + 1.0)


def rho1_spectrum(n: int, r: float) -> np.ndarray:
    """Eigenvalues of rho1 in descending order: the signal pair, then zeros."""
    return np.concatenate([[max(r, 1 - r), min(r, 1 - r)], np.zeros(2**n - 2)])


def qfi_commuting(alpha: float, n: int, r: float) -> float:
    """QFI along the mixture path from its eigenvalue flow, sum (dl_i)^2/l_i.

    Valid because rho_alpha shares one eigenbasis for all alpha. Diverges as
    alpha -> 1 when the kernel of rho1 closes, so alpha = 1 is rejected.
    """
    d = 2**n
    p = rho1_spectrum(n, r)
    lams = alpha * p + (1 - alpha) / d
    return fisher_information(lams, p - 1 / d, floor=EIG_FLOOR, slope_tol=SLOPE_TOL)


def optimal_eigenvalues_full(n: int, r: float) -> np.ndarray:
    """Eigenvalues of the variance-optimal full-basis observable, ordered to
    match the eigenvectors of rho1 sorted by descending eigenvalue.

    lambda(p) = 1/2 + (2/I_q(rho_{1/2})) (p - 2^-n)/(p + 2^-n) applied to the
    eigenvalues p of rho1; the 2^n - 2 kernel vectors share 1/2 - 2/I_q,
    which is negative (the trace constraint against white noise forces it).
    """
    d = 2**n
    iq = qfi_half_closed(n, r)
    p = rho1_spectrum(n, r)
    return 0.5 + (2.0 / iq) * (p - 1 / d) / (p + 1 / d)


def optimal_eigenvalues_partial(n: int, m: int) -> np.ndarray:
    """Outcome values of the optimal observable reading m of n qubits: 1 on
    the block holding the signal pair, 1/(1-2^m) on the other 2^m - 1 blocks.
    Each outcome projector has rank 2^(n-m).
    """
    if m >= n:
        raise ValueError("partial measurement requires m < n")
    if m < 1:
        raise ValueError("m must be at least 1")
    out = np.full(2**m, 1.0 / (1.0 - 2**m))
    out[0] = 1.0
    return out


def variance_full(alpha: float, n: int, r: float) -> float:
    """Variance of the optimal full-basis observable on rho_alpha."""
    d = 2**n
    a_c = (1.0 - 2.0 * r) ** 2
    b_c = 1.0 - d + d * (d - 4.0) * (r - 1.0) * r
    c_c = r * (r - 1.0)
    return (
        (1.0 - alpha) * alpha
        + (2.0 * alpha - 1.0) * (1.0 - d * a_c) * a_c / b_c**2
        + (2.0 * (2.0 + d) * c_c - alpha * (1.0 + 2.0 * (4.0 + d) * c_c)) / b_c
    )


def variance_partial(alpha: float, m: int) -> float:
    """Variance of the optimal m-qubit readout on rho_alpha; r drops out."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return (1.0 - alpha) * (1.0 / (2**m - 1.0) + alpha)


def total_variance_partial(m: int) -> tuple[float, float]:
    """Integral of variance_partial over alpha in [0, 1], by two routes:
    1/I_c - 1/12 with I_c = 4(2^m - 1)/(2^m + 1), and the direct polynomial
    integral. Returns (from_fisher, from_integral); the pair must agree.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    ic = 4.0 * (2**m - 1.0) / (2**m + 1.0)
    from_fisher = 1.0 / ic - 1.0 / 12.0
    from_integral = 0.5 / (2**m - 1.0) + 1.0 / 6.0
    return from_fisher, from_integral

