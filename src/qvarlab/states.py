"""State constructors, labeled states, fidelity, and ground states.

A LabeledState is a label and its ensemble, checked by check_ensemble;
white_noise_ensemble makes one from a vector or a density matrix.

ground_state solves a Hamiltonian per block of its exact symmetries: the
global spin flip and the ring translation, each used only when the matrix
commutes with it bit for bit. A block is one momentum k and one flip parity
f; ties within GAP_TOL go to the even parity, then to the lowest k. The
degeneracy warning reads the two lowest levels of the chosen parity over
all its k blocks. At n=10 the Ising ring's widest block has 56 rows, and
its states have the same bits at 1 and 2 BLAS threads.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache
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
    """A quantum state, as its ensemble, tagged with the real label it encodes.

    The label must be finite, and ens is checked at construction
    (check_ensemble). A pure state is LabeledState(label,
    white_noise_ensemble(psi)): one row of weight 1 with no noise.
    """

    label: float
    ens: Ensemble = field(repr=False)

    def __post_init__(self):
        if not np.isfinite(self.label):
            raise ValueError(f"label must be finite, got {self.label}")
        object.__setattr__(self, "ens", check_ensemble(self.ens))

    @property
    def dim(self) -> int:
        return self.ens.rows.shape[1]

    def density(self) -> np.ndarray:
        """The d x d matrix sum_k w_k |r_k><r_k| + noise * I/d, summed from
        the ensemble on each call, for the dense routines only (fidelity,
        qfi_fidelity); nothing on the bound-chain or training path reads it."""
        w, rows, noise = self.ens
        rho = (rows.T * w) @ rows.conj()
        rho[np.diag_indices(self.dim)] += noise / self.dim
        return rho


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


def check_ensemble(ens) -> Ensemble:
    """ens with float weights, complex rows and a float noise if it is a
    state, else ValueError: one unit row (to NORM_TOL) per weight in a 2-d
    array, weights >= 0, noise no lower than d * EIGENVALUE_CLIP (the
    rounding white_noise_ensemble lets through), and sum(weights) + noise = 1
    (unit trace) to TRACE_TOL. asarray keeps the caller's arrays, so states
    built from one array share it."""
    w = np.asarray(ens.weights, dtype=float)
    rows = np.asarray(ens.rows, dtype=complex)
    noise = float(ens.noise)
    if rows.ndim != 2 or w.shape != (len(rows),):
        raise ValueError(f"ensemble has weights of shape {w.shape} for rows {rows.shape}")
    if np.any(w < 0.0) or noise < rows.shape[1] * EIGENVALUE_CLIP:
        raise ValueError(f"ensemble weights and noise must be nonnegative (noise {noise:.3e})")
    # the remaining checks are written as "not <=" so that a NaN fails them too
    if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= NORM_TOL):
        raise ValueError("ensemble rows must be normalized")
    total = w.sum() + noise
    if not abs(total - 1.0) <= TRACE_TOL:
        raise ValueError(f"ensemble weights and noise must sum to 1, a unit trace ({total:.12f})")
    return Ensemble(w, rows, noise)


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


def check_rank2(r: float, v1, v2) -> tuple[np.ndarray, np.ndarray]:
    """v1 and v2 as complex vectors if r lies in [0, 1] and v1, v2 are
    orthonormal to NORM_TOL, else ValueError; no matrix is built."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"weight r must lie in [0, 1], got {r}")
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    if v1.shape != v2.shape or v1.ndim != 1:
        raise ValueError("v1 and v2 must be vectors of equal length")
    # written as "not <=" so that a NaN fails too
    for name, v in (("v1", v1), ("v2", v2)):
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"{name} must be normalized (norm {nrm:.12f})")
    overlap = abs(np.vdot(v1, v2))
    if not overlap <= NORM_TOL:
        raise ValueError(f"v1 and v2 must be orthogonal (|<v1|v2>| = {overlap:.3e})")
    return v1, v2


def rank2_state(r: float, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Density matrix r |v1><v1| + (1-r) |v2><v2| for orthonormal v1, v2."""
    v1, v2 = check_rank2(r, v1, v2)
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


def fidelity(rho: np.ndarray, tau: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) tau sqrt(rho)).

    Inputs are symmetrized and eigenvalue-clipped at -1e-10 first; anything
    more negative raises.
    """
    rho = linalg.as_matrix(rho)
    tau = linalg.as_matrix(tau)
    if rho.shape != tau.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {tau.shape}")
    s = linalg.herm_fn(linalg.hermitianize(rho), _sqrt_spectrum)
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


def _flip_symmetric(h: np.ndarray) -> bool:
    """Whether h commutes exactly with the global flip (s to d-1-s), that is
    h[::-1, ::-1] == h: checked on the top half alone, whose reversal is the
    bottom half exactly when the whole matrix is flip-invariant."""
    d = len(h)
    return d % 2 == 0 and np.array_equal(h[: d // 2][::-1, ::-1], h[d // 2 :])


def _shift_symmetric(h: np.ndarray) -> bool:
    """Whether h commutes exactly with the ring translation, which rotates
    the n bits of a basis index: a one-bit rotation s = 2a + b to b d/2 + a
    compared on two 4-axis views of h, with no gather."""
    d = len(h)
    rotated = h.reshape(d // 2, 2, d // 2, 2).transpose(1, 0, 3, 2)
    return np.array_equal(rotated, h.reshape(2, d // 2, 2, d // 2))


@cache
def _orbits(d: int, flip: bool, shift: bool):
    """Orbit tables of the group made by the flip F (s -> d-1-s), if flip, and
    the translation T (s rotated left one bit, d = 2**n), if shift.

    The group elements are T^js[g] F^fs[g], flip-free first. order lists the
    basis orbit by orbit, each orbit's least index (its representative)
    first and the orbits by ascending representative; orbit o begins at
    order[starts[o]]. gen[i] is the first element taking order[i]'s
    representative to order[i], and stab[g, o] says whether element g fixes
    orbit o's representative.
    """
    n = d.bit_length() - 1
    s = np.arange(d)
    js = np.arange(n if shift else 1)
    rot = ((s << js[:, None]) | (s >> (n - js[:, None]))) & (d - 1) if shift else s[None, :]
    perms = np.concatenate([rot, d - 1 - rot]) if flip else rot
    js, fs = np.tile(js, 1 + flip), np.repeat(np.arange(1 + flip), len(js))
    rep = perms.min(axis=0)
    order = np.argsort(rep, kind="stable")
    starts = np.flatnonzero(np.diff(rep[order], prepend=-1))
    gen = (perms[:, rep[order]] == order).argmax(axis=0)
    reps = order[starts]
    return order, starts, js, fs, gen, (perms[:, reps] == reps).astype(float)


def ground_state(h: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of a Hermitian matrix, phase-fixed.

    h is solved per block of the abelian group made by the global spin flip
    F (X^{(x)n}: basis index s to d-1-s), used when d is even and
    h[::-1, ::-1] == h exactly, and the ring translation T (rotating the n
    bits of s), used when d = 2**n, n > 1 and h commutes with T exactly.
    The Ising ring and the cluster chain at eps == 0 have both. A matrix
    with neither is eigensolved whole, in complex arithmetic: the Schwinger
    chain, and the cluster chain at eps != 0, whose pinning field is summed
    in another order on rotated entries, so it is T-invariant only to
    rounding. For each character chi (momentum k, flip parity f) the block
    over the orbits on whose stabilizer chi is trivial is
    B[r, r'] = sqrt(N_r' / N_r) sum_{s in orbit r} conj(chi(g_s)) h[s, r'],
    with r, r' orbit representatives, N their orbit sizes and g_s the group
    element taking r to s: one row reduction of h[:, reps] over the orbits
    (Sandvik, arXiv:1101.3281). Each block is checked and solved by herm_eig,
    in real arithmetic when h has no imaginary part and chi is real (k = 0
    or n/2). The k and n-k blocks of such a real h are complex conjugates
    with one spectrum, so only k <= n/2 is solved. A flip-only matrix gives
    the two sectors A +- B J (A, B the upper blocks of h, J reversing the
    columns) bit for bit.

    Energies within GAP_TOL of each other go to the even flip parity first
    (the even-n Ising ring, near-degenerate at small field, has a flip-even
    ground state exactly, since conjugating by a product of Z makes it
    stoquastic), then to the lowest k. The chosen block's ground vector y is
    lifted as psi_s = chi(g_s) y_r / sqrt(N_r), renormalized (which leaves a
    norm error of about one ulp, not the eigensolver's few), and returned
    complex128 and phase-fixed. A DegenerateGroundSpaceWarning is emitted
    when the two lowest eigenvalues of the matrix solved (the whole matrix,
    or the chosen flip parity over all its k blocks, the n-k twin of a real
    h's block counted too) are closer than GAP_TOL; the lowest-index
    eigenvector of the chosen block is still returned.
    """
    h = linalg.as_matrix(h)
    d = len(h)
    n = d.bit_length() - 1
    flip = _flip_symmetric(h)
    shift = n > 1 and d == 1 << n and _shift_symmetric(h)
    if not (flip or shift):
        es = linalg.herm_eig(h)
        _check_gap(es.values)
        return es.vectors[:, 0].copy()
    real = not h.imag.any()
    if real:
        h = h.real
    order, starts, js, fs, gen, stab = _orbits(d, flip, shift)
    sizes = np.diff(starts, append=d)
    cols = h[np.ix_(order, order[starts])]
    parities = []
    for f in (1.0, -1.0)[: 1 + flip]:
        blocks = []
        for k in range(n // 2 + 1 if real else n) if shift else [0]:
            chi = f**fs * np.exp(2j * np.pi * (k * js % n) / n)
            if 2 * k % n == 0:
                chi = chi.real.round()  # exactly +-1
            keep = np.abs(chi @ stab) > 0.5
            if keep.any():
                phase = chi[gen]
                block = np.add.reduceat(cols * phase.conj()[:, None], starts)[np.ix_(keep, keep)]
                block = block * np.sqrt(sizes[keep] / sizes[keep][:, None])
                copies = 1 + (real and 2 * k % n != 0)
                blocks.append((linalg.herm_eig(block), keep, phase, copies))
        parities.append(blocks)
    lows = [min(es.values[0] for es, *_ in blocks) for blocks in parities]
    pick = next(i for i, e in enumerate(lows) if e < min(lows) + GAP_TOL)
    blocks = parities[pick]
    _check_gap(np.sort(np.concatenate([np.tile(es.values[:2], c) for es, _, _, c in blocks])))
    es, keep, phase, _ = next(b for b in blocks if b[0].values[0] < lows[pick] + GAP_TOL)
    y = np.zeros(len(starts), es.vectors.dtype)
    y[keep] = es.vectors[:, 0] / np.sqrt(sizes[keep])
    psi = np.empty(d, np.result_type(y, phase))
    psi[order] = phase * np.repeat(y, sizes)
    psi /= np.linalg.norm(psi)
    return linalg._fix_phases(psi[:, None])[:, 0].astype(complex, copy=False)
