"""Classical and quantum Fisher information and the variance bound chain.

For a one-parameter family rho_alpha and a readout observable M the adjusted
variance Var(M)/|d<M>/d alpha|^2 is bounded below by 1/I_c (classical Fisher
information of the outcome distribution) which in turn is bounded below by
1/I_q (quantum Fisher information of the family). bound_chain evaluates all
three on a grid and checks the ordering.

Every label derivative is a central finite difference over one stencil, the
states at alpha and alpha +- PROB_STEP (1e-4). Every state enters as its
ensemble (observables.as_ensemble), a pure state as one row of weight 1, so
pure and mixed states share one route and no d x d state is formed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .observables import PROB_CLAMP, ParamObservable, SpectralObservable, as_ensemble
from .observables import matrix  # noqa: F401  (uncalled; perfbench/spans.py traces fisher.matrix)
from .observables import moments, projector_blocks
from .states import Ensemble, LabeledState, fidelity

PROB_STEP = 1e-4
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
    """A differentiable path alpha -> state over a validity interval.

    evaluator maps a label to the state's Ensemble, and state(alpha) labels
    it: LabeledState(float(alpha), ens) is built here and nowhere else, so a
    family state's label is its alpha. Pure states (one row, no noise) are
    memoized per alpha on the family object, so a grid point that
    validation, training, the bound-chain stencil (alpha, alpha +-
    PROB_STEP) and the CSV rows all visit costs one evaluation (one
    ground-state solve for the spin-chain families). Mixed states, even of
    one row, are not kept: a Naimark-embedded mixed state carries d + 2 rows
    of its own, so a kept grid would hold hundreds of MB at n=8, while the
    mixture's closed form is cheap to redo.
    """

    evaluator: Callable[[float], Ensemble]
    alpha_range: tuple[float, float]
    _pure: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def state(self, alpha: float) -> LabeledState:
        lo, hi = self.alpha_range
        if not lo <= alpha <= hi:
            raise ValueError(f"alpha={alpha} outside family range [{lo}, {hi}]")
        st = self._pure.get(alpha)
        if st is None:
            st = LabeledState(float(alpha), self.evaluator(alpha))
            if len(st.ens.rows) == 1 and st.ens.noise == 0.0:
                self._pure[alpha] = st
        return st

    def contains_stencil(self, alpha: float) -> bool:
        """Whether the label stencil alpha +- PROB_STEP lies in the range."""
        lo, hi = self.alpha_range
        return lo <= alpha - PROB_STEP and alpha + PROB_STEP <= hi


@dataclass
class FisherReport:
    """One grid point of the bound chain."""

    alpha: float
    adjusted_variance: float
    inv_cfi: float
    inv_qfi: float
    flag: str = ""


def outcome_probs(projectors, state) -> np.ndarray:
    """Probabilities Tr(P_k rho) = noise Tr(P_k)/d + sum_r w_r <r|P_k|r> for a
    stack of projectors, clamped to zero below PROB_CLAMP. One row (every pure
    state) keeps the bits of einsum("kij,i,j->k"); several rows take one
    batched BLAS matmul P_k @ rows^T, not one naive einsum pass per row, and
    sum the weighted rows per outcome, so that each outcome's bits do not
    depend on how many projectors share the stack (bound_chain's blocks)."""
    if isinstance(projectors, SpectralObservable):
        projectors = projectors.projectors
    proj = np.asarray(projectors, dtype=complex)
    w, rows, noise = as_ensemble(state)
    p = noise * np.einsum("kii->k", proj).real / proj.shape[1]
    if len(rows) == 1:
        p += w[0] * np.einsum("kij,i,j->k", proj, rows[0].conj(), rows[0]).real
    else:
        p += (np.einsum("kir,ri->kr", proj @ rows.T, rows.conj()).real * w).sum(axis=1)
    p[np.abs(p) < PROB_CLAMP] = 0.0
    return p


def fisher_information(p, dp, floor: float = PROB_FLOOR, slope_tol: float = DPROB_TOL) -> float:
    """Fisher information sum_k dp_k^2 / p_k of a distribution p with slope dp.

    Entries with p_k below floor are dropped when |dp_k| is below slope_tol;
    a vanishing p_k with a surviving slope raises, since the true information
    diverges there.
    """
    total = 0.0
    for pk, dk in zip(p, dp):
        if pk < floor:
            if abs(dk) < slope_tol:
                continue
            raise ValueError(f"Fisher information diverges: weight {pk:.3e} with slope {dk:.3e}")
        total += dk * dk / pk
    return total


def _stencil(family: StateFamily, alpha: float) -> tuple[LabeledState, ...]:
    """The states at alpha - PROB_STEP, alpha and alpha + PROB_STEP."""
    return tuple(family.state(a) for a in (alpha - PROB_STEP, alpha, alpha + PROB_STEP))


def _slope(values: Sequence):
    """Central FD in alpha, step PROB_STEP, of a quantity's values at the
    stencil's three labels (alpha - PROB_STEP, alpha, alpha + PROB_STEP)."""
    lo, _, hi = values
    return (hi - lo) / (2.0 * PROB_STEP)


def cfi(family: StateFamily, projectors, alpha: float) -> float:
    """Classical Fisher information sum_i (d_alpha p_i)^2 / p_i by central FD
    with step PROB_STEP; see fisher_information for vanishing outcomes.
    """
    ps = [outcome_probs(projectors, st) for st in _stencil(family, alpha)]
    return fisher_information(ps[1], _slope(ps))


def cfi_mixture_closed(alpha: float, p1, p2) -> float:
    """Closed-form CFI sum_i (p1_i - p2_i)^2 / (alpha p1_i + (1-alpha) p2_i)
    for an outcome distribution that interpolates linearly between p1 and p2.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("p1 and p2 must have equal length")
    return fisher_information(alpha * p1 + (1.0 - alpha) * p2, p1 - p2)


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


def _family_qfi(stencil: Sequence[LabeledState]) -> float:
    """QFI at the stencil's centre in the span of its rows (Liu, Jing & Wang,
    Commun. Theor. Phys. 61, 45 (2014)): with Q of width k an orthonormal
    basis of the distinct rows, qfi_spectral of Q^dag rho Q and Q^dag drho Q,
    plus (d - k) noise'^2 / (d noise) for the white part off span(Q): 0 for
    a noise slope below DPROB_TOL (rounding, as in fisher_information), inf
    where the noise leaves 0."""
    ens = [st.ens for st in stencil]
    mid, d = ens[1], stencil[1].dim
    distinct = {r.tobytes(): r for e in ens for r in e.rows}
    q = np.linalg.qr(np.reshape(list(distinct.values()), (-1, d)).T)[0]
    k = q.shape[1]

    def compressed(e) -> np.ndarray:
        a = q.conj().T @ e.rows.T
        rho = (a * e.weights) @ a.conj().T
        rho[np.diag_indices(k)] += e.noise / d
        return rho

    iq = 0.0
    if k:
        rhos = [compressed(e) for e in ens]
        iq = qfi_spectral(rhos[1], _slope(rhos))
    dnoise = _slope([e.noise for e in ens])
    if k < d and abs(dnoise) >= DPROB_TOL:
        iq += (d - k) * dnoise**2 / (d * mid.noise) if mid.noise > 0 else float("inf")
    return iq


def bound_chain(
    obs: ParamObservable,
    theta: np.ndarray,
    family: StateFamily,
    alphas: Sequence[float],
    on_violation: str = "raise",
) -> list[FisherReport]:
    """Adjusted variance, 1/CFI and 1/QFI for every grid point.

    Grid points need their stencil alpha +- PROB_STEP inside the family range;
    every point is checked before any state or unitary is computed.
    A slope |d<M>/d alpha| below 1e-10 leaves the adjusted variance undefined
    (reported as inf with a zero-slope flag). Ordering violations beyond
    CHAIN_TOL raise a ChainViolationError, and a diverging classical Fisher
    information raises the ValueError of cfi. With on_violation="flag" both
    mark the report's flag instead; a divergent point reports inv_cfi = 0.0
    under a cfi-divergent flag and skips the ordering check.

    The readout projectors are streamed in observables.projector_blocks
    blocks, never held as one (2**m, d, d) stack: the loop runs over blocks
    outside and grid points inside, and fills a (points, 3, 2**m) table of
    the stencils' outcome probabilities. For each block and point the three
    states are fetched on the calling thread (pure states from the family
    memo; mixed ones are evaluated again, since a Naimark-embedded state
    holds d + 2 rows), and their three outcome_probs calls run concurrently
    on a pool of three threads, made per call and shut down on any
    exception. einsum and BLAS release the GIL, each worker runs the
    unchanged single-state call, and outcome_probs' bits do not depend on
    the block, so the bits depend on neither the scheduling, the thread
    count nor the block size. Each point's QFI is taken in the first block.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off `import qvarlab`

    if on_violation not in ("raise", "flag"):
        raise ValueError("on_violation must be 'raise' or 'flag'")
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not family.contains_stencil(alpha):
            raise ValueError(
                f"alpha={alpha} too close to the family range boundary for "
                f"step {PROB_STEP}"
            )
    lam = obs.lambdas
    table = np.empty((len(alphas), 3, obs.outcomes))
    iqs = []
    lo = 0
    with ThreadPoolExecutor(3) as pool:
        for block in projector_blocks(obs, theta):
            probs = partial(outcome_probs, block)
            for ps, alpha in zip(table, alphas):
                # one caller for the family memo, LAPACK and the benchmark tracer
                stencil = _stencil(family, alpha)
                if not lo:
                    iqs.append(_family_qfi(stencil))
                ps[:, lo : lo + len(block)] = list(pool.map(probs, stencil))
            lo += len(block)

    reports = []
    for alpha, ps, iq in zip(alphas, table, iqs):
        flags = []
        p0, dp = ps[1], _slope(ps)
        var = float(moments(p0, lam)[1])
        slope = float(dp @ lam)
        if abs(slope) < SLOPE_FLOOR:
            adjusted = float("inf")
            flags.append("zero-slope")
        else:
            adjusted = var / slope**2

        try:
            ic = fisher_information(p0, dp)
        except ValueError:
            if on_violation == "raise":
                raise
            ic = float("inf")
            flags.append("cfi-divergent")
        inv_cfi = 1.0 / ic if ic > 1e-300 else float("inf")
        inv_qfi = 1.0 / iq if iq > 1e-300 else float("inf")

        out_of_order = (adjusted < inv_cfi - CHAIN_TOL) or (inv_cfi < inv_qfi - CHAIN_TOL)
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
