"""Reference implementations that the tests check qvarlab against.

No pipeline path calls any of these: they are independent routes to the
quantities the package computes (the classical Fisher information from a
dense projector stack, the SLD and fidelity QFI routes, the Uhlmann
fidelity, a Lyapunov solver, dense Pauli strings and sums, the dense optimal
projectors of the mixture model and a Haar search for better ones), plus
one printed closed form that is known to be wrong (qfi_alpha_printed),
pinned so that criterion 2 can show it disagrees with every oracle.
Acceptance criteria 1, 2 and 4 import from here.

Pipeline helpers are read as module attributes (fisher.outcome_probs,
fisher._stencil, linalg.herm_eig, ...), so a test that monkeypatches one
reaches these routes too.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from qvarlab import fisher, hamiltonians, linalg, mixture, states
from qvarlab.observables import SpectralObservable

QFI_STEP_REL = 1e-2
LYAPUNOV_MIN_EIG = 1e-12
MAJORIZATION_TOL = 1e-10


class QfiStepWarning(UserWarning):
    """Fidelity-based QFI changed by more than 1% under step halving."""


def density(state: states.LabeledState) -> np.ndarray:
    """The d x d matrix sum_k w_k |r_k><r_k| + noise * I/d of a
    LabeledState, summed from its ensemble on each call."""
    w, rows, noise = state.ens
    rho = (rows.T * w) @ rows.conj()
    rho[np.diag_indices(state.dim)] += noise / state.dim
    return rho


def herm_fn(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    f receives the eigenvalue array and may return complex values (so gate
    exponentials work). Non-finite results mean f is undefined somewhere on
    the spectrum and raise.
    """
    es = linalg.herm_eig(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        fvals = np.asarray(f(es.values))
    if fvals.shape != es.values.shape:
        raise ValueError("f must map the eigenvalue array elementwise")
    if not np.all(np.isfinite(fvals)):
        bad = es.values[~np.isfinite(fvals)]
        raise ValueError(f"function undefined at eigenvalue(s) {bad}")
    return (es.vectors * fvals) @ es.vectors.conj().T


def solve_lyapunov(a, b) -> np.ndarray:
    """Solve A X + X A = B for Hermitian A, B with A strictly positive.

    Solved in the eigenbasis of A: X_ij = B_ij / (a_i + a_j). A minimum
    eigenvalue at or below 1e-12 makes the problem singular and raises.
    """
    a = linalg.require_hermitian(a)
    b = linalg.require_hermitian(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    es = linalg.herm_eig(a)
    if es.values.min() <= LYAPUNOV_MIN_EIG:
        raise ValueError(
            f"A must be strictly positive (min eigenvalue {es.values.min():.3e})"
        )
    v = es.vectors
    btil = v.conj().T @ b @ v
    denom = es.values[:, None] + es.values[None, :]
    x = v @ (btil / denom) @ v.conj().T
    return linalg.hermitianize(x)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def pauli_matrix(ps: hamiltonians.PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string."""
    lookup = dict(ps.letters)
    factors = [hamiltonians.PAULI[lookup.get(q, "I")] for q in range(1, ps.n + 1)]
    return ps.coeff * linalg.kron(factors)


def pauli_sum_dense(strings) -> np.ndarray:
    """Dense sum of Pauli strings, each added into its bit-flip mask's
    entries of one d x d matrix, out[s ^ flip, s] += coeff * phase."""
    n = strings[0].n
    out = np.zeros((2**n, 2**n), dtype=complex)
    cols = np.arange(2**n)
    for ps in strings:
        flip, phase = hamiltonians._flip_and_phase(ps)
        out[cols ^ flip, cols] += ps.coeff * phase
    return out


def _sqrt_spectrum(values: np.ndarray) -> np.ndarray:
    """Square roots of a PSD spectrum clipped at 0; below EIGENVALUE_CLIP raises."""
    if values.min() < states.EIGENVALUE_CLIP:
        raise ValueError(f"negative eigenvalue beyond tolerance: {values.min():.3e}")
    return np.sqrt(np.clip(values, 0.0, None))


def fidelity(rho: np.ndarray, tau: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) tau sqrt(rho)).

    Inputs are symmetrized and eigenvalue-clipped at -1e-10 first; anything
    more negative raises.
    """
    rho = linalg.as_matrix(rho)
    tau = linalg.as_matrix(tau)
    if rho.shape != tau.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {tau.shape}")
    s = herm_fn(linalg.hermitianize(rho), _sqrt_spectrum)
    inner = linalg.hermitianize(s @ linalg.hermitianize(tau) @ s)
    return float(np.sum(_sqrt_spectrum(np.linalg.eigvalsh(inner))))


def cfi(family: fisher.StateFamily, projectors, alpha: float) -> float:
    """Classical Fisher information sum_i (d_alpha p_i)^2 / p_i by central FD
    with step PROB_STEP; see fisher_information for vanishing outcomes.
    """
    ps = [fisher.outcome_probs(projectors, st) for st in fisher._stencil(family, alpha)]
    return fisher.fisher_information(ps[1], fisher._slope(ps))


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L solving (rho L + L rho)/2 = drho."""
    return solve_lyapunov(rho, 2.0 * np.asarray(drho, dtype=complex))


def qfi_fidelity(family: fisher.StateFamily, alpha: float, dalpha: float = 1e-3) -> float:
    """QFI estimated from the fidelity drop 8 (1 - F(rho_a, rho_{a+da})) / da^2.

    A second evaluation at half the step must agree to 1% or a QfiStepWarning
    is emitted; the full-step value is returned either way.
    """
    rho0 = density(family.state(alpha))
    out = []
    for step in (dalpha, dalpha / 2.0):
        rho1 = density(family.state(alpha + step))
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


def qfi_alpha_printed(alpha: float, n: int, r: float) -> float:
    """A rational closed form for the alpha-dependent QFI that FAILS the
    dense-oracle validation (for n=2, r=1/2, alpha=1/2 it returns -4/21
    where the commuting-family and spectral routes both give 4/3).

    Kept only as a documented reference. Use mixture.qfi_commuting or
    fisher.qfi_spectral for trustworthy values.
    """
    d = 2**n
    big_d = 1.0 - d * (1.0 + r)
    big_e = 1.0 - d * r
    num = alpha * big_d * big_e - 2.0 * r * (1.0 - big_d) + d - 1.0
    den = (1.0 - alpha) * (1.0 - alpha * big_d) * (1.0 - alpha * big_e)
    return num / den


def optimal_observable_matrix(
    model: mixture.MixtureModel, m: Union[int, str] = "full"
) -> SpectralObservable:
    """Dense optimal observable, either the full-basis one (m="full" or m=n)
    or the rank-2^(n-m) block observable for a partial readout.

    The block projectors partition the descending eigenbasis of rho1 into
    2^m consecutive groups; the first group contains the signal pair.
    """
    basis = model.eigenbasis()
    d = model.dim
    if m == "full" or m == model.n:
        lams = mixture.optimal_eigenvalues_full(model.n, model.r)
        proj = np.einsum("ik,jk->kij", basis, basis.conj())
        return SpectralObservable(lambdas=lams, projectors=proj)
    if not isinstance(m, int):
        raise TypeError("m must be an integer or 'full'")
    if m > model.n:
        raise ValueError("cannot measure more qubits than the model has")
    lams = mixture.optimal_eigenvalues_partial(model.n, m)
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
    model: mixture.MixtureModel, m: int, trials: int, seed: int = 0
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
    p_opt = fisher.outcome_probs(opt, rho1)
    d_opt = f_divergence(p_opt, uniform)
    eigs = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    basis = model.eigenbasis()
    best = -np.inf
    maj_ok = True
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        u = haar_unitary(model.dim, rng)
        proj = np.einsum("ab,kbc,dc->kad", u, opt.projectors, u.conj())
        p = np.clip(fisher.outcome_probs(proj, rho1), 0.0, None)
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
