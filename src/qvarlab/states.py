"""State constructors, labeled states, and fidelity."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg

GAP_TOL = 1e-10
EIGENVALUE_CLIP = -1e-10
NORM_TOL = 1e-10
ENSEMBLE_FLOOR = 1e-13
TRACE_TOL = 1e-8


class DegenerateGroundSpaceWarning(UserWarning):
    """Raised when the two lowest eigenvalues are closer than the gap tolerance."""


@dataclass(frozen=True)
class LabeledState:
    """A quantum state tagged with the real label it encodes.

    Exactly one of psi (unit vector) or ens (weighted unit rows plus white
    noise) is set: a mixed state is its ensemble. The ensemble is checked at
    construction: one unit row per weight, weights >= 0, noise no lower than
    d * EIGENVALUE_CLIP (the rounding white_noise_ensemble lets through), and
    sum(weights) + noise = 1.
    """

    label: float
    psi: np.ndarray | None = None
    ens: Ensemble | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.psi is None) == (self.ens is None):
            raise ValueError("exactly one of psi or ens must be given")
        if self.psi is not None:
            psi = np.asarray(self.psi, dtype=complex)
            if psi.ndim != 1:
                raise ValueError(f"psi must be a vector, got shape {psi.shape}")
            nrm = np.linalg.norm(psi)
            # each check is written as "not <=" so that a NaN fails it too
            if not abs(nrm - 1.0) <= NORM_TOL:
                raise ValueError(f"psi must be normalized (norm {nrm:.12f})")
            object.__setattr__(self, "psi", psi)
            return
        # asarray keeps the caller's arrays, so states built from one array share it
        w = np.asarray(self.ens.weights, dtype=float)
        rows = np.asarray(self.ens.rows, dtype=complex)
        noise = float(self.ens.noise)
        if rows.ndim != 2 or w.shape != (len(rows),):
            raise ValueError(f"ensemble has weights of shape {w.shape} for rows {rows.shape}")
        if np.any(w < 0.0) or noise < rows.shape[1] * EIGENVALUE_CLIP:
            raise ValueError(f"ensemble weights and noise must be nonnegative (noise {noise:.3e})")
        if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= NORM_TOL):
            raise ValueError("ensemble rows must be normalized")
        if not abs(w.sum() + noise - 1.0) <= TRACE_TOL:
            raise ValueError(f"ensemble weights and noise must sum to 1 ({w.sum() + noise:.12f})")
        object.__setattr__(self, "ens", Ensemble(w, rows, noise))

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

    @property
    def dim(self) -> int:
        return len(self.psi) if self.psi is not None else self.ens.rows.shape[1]

    def density(self) -> np.ndarray:
        """The d x d matrix, for the dense routines only (bound_chain's
        projector stack and mixed-state QFI, fidelity). A mixed state's is
        summed from its ensemble once and kept, read-only, on the object."""
        if self.psi is not None:
            return np.outer(self.psi, self.psi.conj())
        return self._density

    @cached_property
    def _density(self) -> np.ndarray:
        """sum_k w_k |r_k><r_k| + noise * I/d."""
        w, rows, noise = self.ens
        rho = (rows.T * w) @ rows.conj()
        rho[np.diag_indices(self.dim)] += noise / self.dim
        rho.flags.writeable = False
        return rho

    def ensemble(self) -> Ensemble:
        """This state as weighted pure rows plus white noise: a pure state's
        one row of weight 1, or a mixed state's own ensemble."""
        if self.ens is not None:
            return self.ens
        return white_noise_ensemble(self.psi)


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
    with white noise costs r rows, and I/d itself costs none. A lambda_min
    below EIGENVALUE_CLIP (the rule fidelity uses) raises: the matrix is no
    state, and its noise weight would be negative.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return Ensemble(np.ones(1), arr[None, :], 0.0)
    es = linalg.herm_eig(arr, tol=1e-10)
    floor = es.values[0]
    if floor < EIGENVALUE_CLIP:
        raise ValueError(f"negative eigenvalue beyond tolerance: {floor:.3e}")
    weights = es.values - floor
    keep = weights > ENSEMBLE_FLOOR
    return Ensemble(weights[keep], es.vectors[:, keep].T, float(len(weights) * floor))


def check_state(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is a state, else ValueError: a vector of unit norm to
    NORM_TOL, or a matrix that is Hermitian to 1e-10 (white_noise_ensemble's
    tolerance), of unit trace to TRACE_TOL, with no eigenvalue below
    EIGENVALUE_CLIP."""
    if arr.ndim == 1:
        nrm = np.linalg.norm(arr)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector must be normalized (norm {nrm:.12f})")
        return arr
    linalg.require_hermitian(arr, tol=1e-10)
    tr = np.trace(arr).real
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace (got {tr:.12f})")
    floor = np.linalg.eigvalsh(arr)[0]
    if not floor >= EIGENVALUE_CLIP:
        raise ValueError(f"negative eigenvalue beyond tolerance: {floor:.3e}")
    return arr


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


def _reflection(sector: np.ndarray, sign: float):
    """The site reflection on a flip sector of width 2**(n-1), as (r, c), or
    None when the width is no power of two or the sector does not commute
    with it exactly.

    Reversing the n bits of an index mirrors the chain and commutes with the
    flip. On the sector's basis states (|s> + sign |d-1-s>)/sqrt(2), s < half,
    it is a signed permutation: s goes to r = rev(s) with factor c = 1, or,
    when rev(s) lies in the upper half, to d-1-rev(s) with factor c = sign.
    """
    half = len(sector)
    n = half.bit_length()
    if half != 1 << (n - 1):
        return None
    s = np.arange(half)
    rev = np.zeros_like(s)
    for bit in range(n):
        rev |= ((s >> bit) & 1) << (n - 1 - bit)
    upper = rev >= half
    r, c = np.where(upper, 2 * half - 1 - rev, rev), np.where(upper, sign, 1.0)
    return (r, c) if np.array_equal(sector[np.ix_(r, r)] * np.outer(c, c), sector) else None


def _first_lowest(energies) -> int:
    """Index of the first energy within GAP_TOL of the lowest: ties go to the
    even flip sector, and within a sector to the even reflection block."""
    low = min(energies)
    return next(i for i, e in enumerate(energies) if e < low + GAP_TOL)


def _blocks(sector: np.ndarray, sign: float) -> list:
    """Solve one flip sector: per reflection block if it commutes with the
    reflection exactly, else whole. Returns (EigenSystem, lift) per nonempty
    block, reflection-even first; lift maps a unit block vector to its sector
    vector divided by sqrt(2), the upper half of the state.

    In the block of reflection parity q (+1 or -1), a fixed point f of the
    reflection with factor q is the basis vector e_f, and a 2-cycle s < t = r(s)
    is (e_s + q c_t e_t)/sqrt(2). The sector maps the block into itself, so
    (sector v)[t] = q c_s (sector v)[s] and each block entry is gathered from
    rows s and columns s and t of the sector; no basis change is multiplied.
    """
    mirror = _reflection(sector, sign)
    if mirror is None:
        return [(linalg.herm_eig(sector), lambda y: y / np.sqrt(2.0))]
    r, c = mirror
    s = np.arange(len(sector))
    fixed, pair = r == s, s < r
    out = []
    for q in (1.0, -1.0):
        keep = (fixed & (c == q)) | pair
        if not keep.any():
            continue
        idx, t, paired = s[keep], r[keep], pair[keep]
        # column coefficient q c_t on e_t, and the 1/sqrt(2) of a 2-cycle's
        # column with the sqrt(2) of its row, which leave pair-pair entries bare
        coef = np.where(paired, q * c[t], 0.0)
        block = sector[np.ix_(idx, idx)] + sector[np.ix_(idx, t)] * coef
        scale = np.where(paired, np.sqrt(2.0), 1.0)
        block = block * scale[:, None] / scale
        es = linalg.herm_eig(block)
        # the lift folds in ground_state's 1/sqrt(2): a 2-cycle's entries are
        # y/2, exact, and a fixed point's y/sqrt(2), one rounding as unsplit
        divisor = np.where(paired, 2.0, np.sqrt(2.0))

        def lift(y, idx=idx, t=t, coef=coef, divisor=divisor):
            x = np.zeros(len(sector), dtype=y.dtype)
            x[idx] = y / divisor
            x[t] += coef * y / divisor
            return x

        out.append((es, lift))
    return out


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
    matrices. A sector that commutes exactly with the site reflection (bit
    reversal of the index, as for both of those) is solved per reflection
    block (_blocks), each block checked by herm_eig on its own; any other
    sector is solved whole. The lowest block's ground vector, lifted to its
    sector's x, is returned as [x, +-x[::-1]]/sqrt(2), renormalized (which
    leaves a norm error of about one ulp, not the eigensolver's few),
    complex128 and phase-fixed. Energies within GAP_TOL of each other select the even flip
    sector first, then the even reflection block: the Ising ring at even n,
    near-degenerate at small field, has a flip-even ground state exactly,
    since conjugating by the product of Z makes it stoquastic. Any other
    matrix (for example the cluster chain at eps != 0 or the Schwinger chain)
    is eigensolved whole, in complex arithmetic.

    A DegenerateGroundSpaceWarning is emitted when the two lowest eigenvalues
    of the matrix solved (the whole matrix, or the chosen flip sector over
    all its blocks) are closer than GAP_TOL; the lowest-index eigenvector of
    the chosen block is still returned.
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
    sectors = [_blocks(a + bj, 1.0), _blocks(a - bj, -1.0)]
    pick = _first_lowest([min(es.values[0] for es, _ in blocks) for blocks in sectors])
    sign, blocks = (1.0, -1.0)[pick], sectors[pick]
    _check_gap(np.sort(np.concatenate([es.values[:2] for es, _ in blocks])))
    es, lift = blocks[_first_lowest([es.values[0] for es, _ in blocks])]
    x = lift(es.vectors[:, 0])
    psi = np.concatenate([x, sign * x[::-1]])
    psi /= np.linalg.norm(psi)
    return linalg._fix_phases(psi[:, None])[:, 0].astype(complex, copy=False)
