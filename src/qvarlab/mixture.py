"""Closed-form optimal observables for the rank-2 plus white-noise mixture.

The model interpolates rho_alpha = alpha rho1 + (1-alpha) I/2^n where rho1 is
a rank-2 state r|v1><v1| + (1-r)|v2><v2|. Estimating alpha from measurement
statistics admits closed forms: the optimal full-basis eigenvalues, the
optimal coarse observable when only m qubits are read out, and the variances
of both. The test suite checks every closed form against dense matrix
algebra, because two printed forms circulating for this model are
inconsistent with the defining constraints; see qfi_alpha_printed for the one
kept only as a documented reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import linalg
from .fisher import StateFamily, fisher_information, outcome_probs
from .observables import SpectralObservable
from .states import ENSEMBLE_FLOOR, Ensemble, LabeledState, ghz, mixture_state
from .states import check_rank2, rank2_state

EIG_FLOOR = 1e-15
SLOPE_TOL = 1e-12
MAJORIZATION_TOL = 1e-10


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
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [0, 1]")
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
        return StateFamily(
            evaluator=lambda a: LabeledState(label=float(a), ens=self.ensemble(a)),
            alpha_range=(0.0, 1.0),
        )

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


def qfi_alpha_printed(
    alpha: float, n: int, r: float, allow_invalid: bool = False
) -> float:
    """A rational closed form for the alpha-dependent QFI that FAILS the
    dense-oracle validation (for n=2, r=1/2, alpha=1/2 it returns -4/21
    where the commuting-family and spectral routes both give 4/3).

    Kept only as a documented reference; raises unless allow_invalid=True.
    Use qfi_commuting or fisher.qfi_spectral for trustworthy values.
    """
    if not allow_invalid:
        raise ValueError(
            "this closed form fails validation against the spectral oracle; "
            "pass allow_invalid=True to evaluate it anyway"
        )
    d = 2**n
    big_d = 1.0 - d * (1.0 + r)
    big_e = 1.0 - d * r
    num = alpha * big_d * big_e - 2.0 * r * (1.0 - big_d) + d - 1.0
    den = (1.0 - alpha) * (1.0 - alpha * big_d) * (1.0 - alpha * big_e)
    return num / den


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


def optimal_observable_matrix(
    model: MixtureModel, m: Union[int, str] = "full"
) -> SpectralObservable:
    """Dense optimal observable, either the full-basis one (m="full" or m=n)
    or the rank-2^(n-m) block observable for a partial readout.

    The block projectors partition the descending eigenbasis of rho1 into
    2^m consecutive groups; the first group contains the signal pair.
    """
    basis = model.eigenbasis()
    d = model.dim
    if m == "full" or m == model.n:
        lams = optimal_eigenvalues_full(model.n, model.r)
        proj = np.einsum("ik,jk->kij", basis, basis.conj())
        return SpectralObservable(lambdas=lams, projectors=proj)
    if not isinstance(m, int):
        raise TypeError("m must be an integer or 'full'")
    if m > model.n:
        raise ValueError("cannot measure more qubits than the model has")
    lams = optimal_eigenvalues_partial(model.n, m)
    rank = d // 2**m
    proj = np.empty((2**m, d, d), dtype=complex)
    for k in range(2**m):
        block = basis[:, k * rank : (k + 1) * rank]
        proj[k] = block @ block.conj().T
    return SpectralObservable(lambdas=lams, projectors=proj)


def f_divergence(p, q) -> float:
    """D_f(p || q) = sum (p_i - q_i)^2 / (p_i + q_i), the chi-square-like
    divergence whose maximization picks the optimal coarse projectors.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("p and q must have equal length")
    if np.any(q <= 0.0):
        raise ValueError("q must be strictly positive")
    if np.any(p < -1e-12):
        raise ValueError("p must be nonnegative")
    return float(np.sum((p - q) ** 2 / (p + q)))


def check_majorization(p_prime, p, tol: float = MAJORIZATION_TOL) -> bool:
    """True when p_prime is majorized by p: every prefix sum of the
    descending sort of p_prime stays below p's, and the totals agree.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    p = np.asarray(p, dtype=float)
    if p_prime.shape != p.shape:
        raise ValueError("vectors must have equal length")
    cp = np.cumsum(np.sort(p_prime)[::-1])
    cq = np.cumsum(np.sort(p)[::-1])
    if abs(cp[-1] - cq[-1]) > tol:
        return False
    return bool(np.all(cp <= cq + tol))


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of a random search over competing projector families."""

    optimal_value: float
    max_found: float
    trials: int
    majorization_ok: bool

    @property
    def passed(self) -> bool:
        return self.max_found <= self.optimal_value + 1e-10


def projector_optimality_oracle(
    model: MixtureModel, m: int, trials: int, seed: int = 0
) -> OptimalityReport:
    """Search for a rank-2^(n-m) projector family beating the optimal one.

    Each trial conjugates the optimal family by a Haar-random unitary and
    evaluates the f-divergence between the induced outcome distributions of
    rho1 and white noise (the latter is basis-independent, so it stays
    uniform). Also verifies the majorization relation the optimality proof
    rests on. Raises if any trial exceeds the closed-form optimum.
    """
    if m >= model.n:
        raise ValueError("partial measurement requires m < n")
    opt = optimal_observable_matrix(model, m)
    rho1 = model.rho1()
    uniform = np.full(2**m, 2.0**-m)
    p_opt = outcome_probs(opt, rho1)
    d_opt = f_divergence(p_opt, uniform)
    eigs = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    basis = model.eigenbasis()
    best = -np.inf
    maj_ok = True
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        u = linalg.haar_unitary(model.dim, rng)
        proj = np.einsum("ab,kbc,dc->kad", u, opt.projectors, u.conj())
        p = np.clip(outcome_probs(proj, rho1), 0.0, None)
        vs = u @ basis
        diag = np.einsum("ja,jk,ka->a", vs.conj(), rho1, vs).real
        if not check_majorization(diag, eigs):
            maj_ok = False
        d = f_divergence(p, uniform)
        if d > best:
            best = d
        if d > d_opt + 1e-10:
            raise AssertionError(
                f"trial {t} found divergence {d:.12f} above optimum "
                f"{d_opt:.12f}"
            )
    return OptimalityReport(
        optimal_value=d_opt,
        max_found=best if trials else d_opt,
        trials=trials,
        majorization_ok=maj_ok,
    )
