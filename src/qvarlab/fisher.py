"""Classical and quantum Fisher information and the variance bound chain.

For a one-parameter family rho_alpha and a readout observable M the adjusted
variance Var(M)/|d<M>/d alpha|^2 is bounded below by 1/I_c (classical Fisher
information of the outcome distribution) which in turn is bounded below by
1/I_q (quantum Fisher information of the family). bound_chain evaluates all
three on a grid and checks the ordering.

All parameter derivatives are central finite differences: step 1e-4 for
probabilities, expectations and density matrices, step 1e-5 for state vectors
(renormalized and phase-aligned before differencing).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .observables import ParamObservable, SpectralObservable, matrix
from .states import LabeledState, fidelity

PROB_STEP = 1e-4
PSI_STEP = 1e-5
PROB_FLOOR = 1e-12
DPROB_TOL = 1e-8
SLOPE_FLOOR = 1e-10
CHAIN_TOL = 1e-6
QFI_STEP_REL = 1e-2


class QfiStepWarning(UserWarning):
    """Fidelity-based QFI changed by more than 1% under step halving."""


class ChainViolationError(RuntimeError):
    """The variance/Fisher bound ordering failed beyond tolerance."""


@dataclass(frozen=True)
class StateFamily:
    """A differentiable path alpha -> state over a validity interval."""

    evaluator: Callable[[float], LabeledState]
    alpha_range: tuple[float, float]

    def state(self, alpha: float) -> LabeledState:
        lo, hi = self.alpha_range
        if not lo <= alpha <= hi:
            raise ValueError(f"alpha={alpha} outside family range [{lo}, {hi}]")
        return self.evaluator(alpha)

    def contains_stencil(self, alpha: float, step: float) -> bool:
        lo, hi = self.alpha_range
        return lo <= alpha - step and alpha + step <= hi


@dataclass
class FisherReport:
    """One grid point of the bound chain."""

    alpha: float
    adjusted_variance: float
    inv_cfi: float
    inv_qfi: float
    flag: str = ""


def outcome_probs(projectors, state) -> np.ndarray:
    """Probabilities Tr(P_k rho) for a stack of projectors."""
    if isinstance(projectors, SpectralObservable):
        projectors = projectors.projectors
    proj = np.asarray(projectors, dtype=complex)
    if isinstance(state, LabeledState):
        state = state.psi if state.is_pure else state.rho
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        p = np.einsum("kij,i,j->k", proj, state.conj(), state).real
    else:
        p = np.einsum("kij,ji->k", proj, state).real
    p[np.abs(p) < 1e-14] = 0.0
    return p


def _cfi_from_probs(p0: np.ndarray, dp: np.ndarray) -> float:
    total = 0.0
    for pi, di in zip(p0, dp):
        if pi < PROB_FLOOR:
            if abs(di) < DPROB_TOL:
                continue
            raise ValueError(
                f"classical Fisher information diverges: probability {pi:.3e} "
                f"with slope {di:.3e}"
            )
        total += di * di / pi
    return total


def cfi(family: StateFamily, projectors, alpha: float, step: float = PROB_STEP) -> float:
    """Classical Fisher information sum_i (d_alpha p_i)^2 / p_i by central FD.

    Outcomes with probability below 1e-12 and slope below 1e-8 are dropped;
    a vanishing probability with a surviving slope raises, since the true
    information diverges there.
    """
    p0 = outcome_probs(projectors, family.state(alpha))
    pp = outcome_probs(projectors, family.state(alpha + step))
    pm = outcome_probs(projectors, family.state(alpha - step))
    dp = (pp - pm) / (2.0 * step)
    return _cfi_from_probs(p0, dp)


def cfi_mixture_closed(alpha: float, p1, p2) -> float:
    """Closed-form CFI sum_i (p1_i - p2_i)^2 / (alpha p1_i + (1-alpha) p2_i)
    for an outcome distribution that interpolates linearly between p1 and p2.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("p1 and p2 must have equal length")
    total = 0.0
    for a, b in zip(p1, p2):
        den = alpha * a + (1.0 - alpha) * b
        num = (a - b) ** 2
        if den < PROB_FLOOR:
            if num < DPROB_TOL**2:
                continue
            raise ValueError(
                f"closed-form CFI diverges: mixture probability {den:.3e} "
                f"with difference {a - b:.3e}"
            )
        total += num / den
    return total


def qfi_pure(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """QFI of a pure family: 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    The second term removes the global-phase component of the derivative; it
    vanishes for real parametrizations.
    """
    psi = np.asarray(psi, dtype=complex)
    dpsi = np.asarray(dpsi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"psi must be normalized (norm {nrm:.10f})")
    return float(4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2))


def qfi_spectral(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI from the spectral sum 2 sum_{ij} |<i|drho|j>|^2 / (l_i + l_j),
    restricted to eigenvalue pairs with l_i + l_j > 1e-12.
    """
    es = linalg.herm_eig(rho, tol=1e-10)
    drho = linalg.require_hermitian(drho, tol=1e-8)
    t = es.vectors.conj().T @ drho @ es.vectors
    denom = es.values[:, None] + es.values[None, :]
    mask = denom > 1e-12
    return float(2.0 * np.sum(np.abs(t[mask]) ** 2 / denom[mask]))


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L solving (rho L + L rho)/2 = drho."""
    return linalg.solve_lyapunov(rho, 2.0 * np.asarray(drho, dtype=complex))


def qfi_fidelity(family: StateFamily, alpha: float, dalpha: float = 1e-3) -> float:
    """QFI estimated from the fidelity drop 8 (1 - F(rho_a, rho_{a+da})) / da^2.

    A second evaluation at half the step must agree to 1% or a QfiStepWarning
    is emitted; the full-step value is returned either way.
    """
    rho0 = family.state(alpha).density()
    out = []
    for step in (dalpha, dalpha / 2.0):
        rho1 = family.state(alpha + step).density()
        out.append(8.0 * (1.0 - fidelity(rho0, rho1)) / step**2)
    i1, i2 = out
    scale = max(abs(i1), abs(i2), 1e-12)
    if abs(i1 - i2) / scale > QFI_STEP_REL:
        warnings.warn(
            f"fidelity QFI at alpha={alpha} moved from {i1:.6g} to {i2:.6g} "
            f"under step halving",
            QfiStepWarning,
            stacklevel=2,
        )
    return i1


def _fd_dpsi(family: StateFamily, alpha: float, step: float) -> np.ndarray:
    """Central-difference state derivative with renormalization and phase
    alignment (the forward state is rotated so <psi_-|psi_+> is real positive).
    """
    sp = family.state(alpha + step).psi
    sm = family.state(alpha - step).psi
    sp = sp / np.linalg.norm(sp)
    sm = sm / np.linalg.norm(sm)
    overlap = np.vdot(sm, sp)
    if abs(overlap) > 0.0:
        sp = sp * (overlap.conj() / abs(overlap))
    return (sp - sm) / (2.0 * step)


def _family_qfi(family: StateFamily, state0: LabeledState, alpha: float) -> float:
    if state0.is_pure:
        dpsi = _fd_dpsi(family, alpha, PSI_STEP)
        return qfi_pure(state0.psi, dpsi)
    rp = family.state(alpha + PROB_STEP).rho
    rm = family.state(alpha - PROB_STEP).rho
    drho = (rp - rm) / (2.0 * PROB_STEP)
    return qfi_spectral(state0.rho, drho)


def bound_chain(
    obs: ParamObservable,
    theta: np.ndarray,
    family: StateFamily,
    alphas: Sequence[float],
    step: float = PROB_STEP,
    chain_tol: float = CHAIN_TOL,
    on_violation: str = "raise",
) -> list[FisherReport]:
    """Adjusted variance, 1/CFI and 1/QFI for every grid point.

    Grid points must be interior to the family range by at least the FD step.
    A slope |d<M>/d alpha| below 1e-10 leaves the adjusted variance undefined
    (reported as inf with a zero-slope flag). Ordering violations beyond
    chain_tol raise a ChainViolationError, and a diverging classical Fisher
    information raises the ValueError of cfi. With on_violation="flag" both
    mark the report's flag instead; a divergent point reports inv_cfi = 0.0
    under a cfi-divergent flag and skips the ordering check.
    """
    if on_violation not in ("raise", "flag"):
        raise ValueError("on_violation must be 'raise' or 'flag'")
    spec_obs = matrix(obs, theta)
    lam = spec_obs.lambdas
    reports = []
    for alpha in alphas:
        alpha = float(alpha)
        if not family.contains_stencil(alpha, step):
            raise ValueError(
                f"alpha={alpha} too close to the family range boundary for "
                f"step {step}"
            )
        flags = []
        st0 = family.state(alpha)
        p0 = outcome_probs(spec_obs, st0)
        pp = outcome_probs(spec_obs, family.state(alpha + step))
        pm = outcome_probs(spec_obs, family.state(alpha - step))
        dp = (pp - pm) / (2.0 * step)

        mean = p0 @ lam
        var = float(p0 @ lam**2 - mean**2)
        slope = float(dp @ lam)
        if abs(slope) < SLOPE_FLOOR:
            adjusted = float("inf")
            flags.append("zero-slope")
        else:
            adjusted = var / slope**2

        try:
            ic = _cfi_from_probs(p0, dp)
        except ValueError:
            if on_violation == "raise":
                raise
            ic = float("inf")
            flags.append("cfi-divergent")
        inv_cfi = 1.0 / ic if ic > 1e-300 else float("inf")
        iq = _family_qfi(family, st0, alpha)
        inv_qfi = 1.0 / iq if iq > 1e-300 else float("inf")

        out_of_order = (adjusted < inv_cfi - chain_tol) or (inv_cfi < inv_qfi - chain_tol)
        if out_of_order and "cfi-divergent" not in flags:
            msg = (
                f"bound chain violated at alpha={alpha}: adjusted={adjusted:.9g}, "
                f"1/I_c={inv_cfi:.9g}, 1/I_q={inv_qfi:.9g}"
            )
            if on_violation == "raise":
                raise ChainViolationError(msg)
            flags.append("chain-violation")

        reports.append(
            FisherReport(
                alpha=alpha,
                adjusted_variance=adjusted,
                inv_cfi=inv_cfi,
                inv_qfi=inv_qfi,
                flag=",".join(flags),
            )
        )
    return reports
