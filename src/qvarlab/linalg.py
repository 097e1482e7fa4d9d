"""Dense linear algebra helpers shared by the rest of the package.

Conventions used everywhere: states live in 2**n dimensional complex spaces,
qubit 1 is the most significant bit of the basis index, eigenvalues come back
sorted ascending, and eigenvector phases are fixed so the first component of
magnitude above 1e-10 is real and positive (for a real vector: its sign is
positive). herm_eig, hermitianize and hermiticity_defect keep the arithmetic
of their input: a real matrix is handled in float64 and any other in
complex128, so a real symmetric matrix is eigensolved as one. Within a
degenerate eigenspace herm_eig returns whatever basis the solver gives;
states.ground_state resolves the degeneracies the spin-chain families meet,
between spin-flip parities and ring momenta, by solving each symmetry block
on its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

HERMITICITY_TOL = 1e-12
PHASE_TOL = 1e-10
LYAPUNOV_MIN_EIG = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    values are real and ascending; column k of vectors pairs with values[k].
    """

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, dtype=complex) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_own_matrix(a) -> np.ndarray:
    """A square matrix in float64 if the input is real, else in complex128."""
    return as_matrix(a, dtype=complex if np.iscomplexobj(a) else float)


def hermiticity_defect(a) -> float:
    """Max-norm distance from A to its own adjoint."""
    a = _as_own_matrix(a)
    return float(np.abs(a - a.conj().T).max())


def _check_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    defect = hermiticity_defect(a)
    # "not <=" so that a NaN defect fails too
    if not defect <= tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return a


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    return _check_hermitian(as_matrix(a), tol)


def hermitianize(a) -> np.ndarray:
    """Symmetrized (A + A^dag)/2, in the input's arithmetic."""
    a = _as_own_matrix(a)
    return 0.5 * (a + a.conj().T)


def kron(*ops) -> np.ndarray:
    """Kronecker product of the operands, left factor most significant."""
    if len(ops) == 1 and isinstance(ops[0], (list, tuple)):
        ops = tuple(ops[0])
    if not ops:
        raise ValueError("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above PHASE_TOL is real positive.

    Columns with no such component are returned unchanged. The pivot modulus
    is taken with hypot and each column is scaled by its own factor in one
    inner ufunc loop, the arithmetic of a per-column loop, so the result is
    bitwise the same as rotating the columns one at a time.
    """
    mask = np.abs(vectors) > PHASE_TOL
    cols = np.flatnonzero(mask.any(axis=0))
    pivots = vectors[mask.argmax(axis=0)[cols], cols]
    factors = pivots.conj() / np.hypot(pivots.real, pivots.imag)
    out = vectors.copy()
    out[:, cols] = (vectors[:, cols].T * factors[:, None]).T
    return out


def herm_eig(a, tol: float = HERMITICITY_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    The input is checked against tol, symmetrized, and handed to the dense
    eigensolver in its own arithmetic: a real input is solved as a real
    symmetric float64 matrix and returns float64 vectors, about 8x cheaper
    than the complex solve at d=512; any other input is solved as complex128.
    Phases follow the module convention; for degenerate spectra the basis
    within an eigenspace is whatever the solver returns.
    """
    a = _check_hermitian(_as_own_matrix(a), tol)
    values, vectors = np.linalg.eigh(hermitianize(a))
    return EigenSystem(values=values, vectors=_fix_phases(vectors))


def herm_fn(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    f receives the eigenvalue array and may return complex values (so gate
    exponentials work). Non-finite results mean f is undefined somewhere on
    the spectrum and raise.
    """
    es = herm_eig(a)
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
    a = require_hermitian(a)
    b = require_hermitian(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    es = herm_eig(a)
    if es.values.min() <= LYAPUNOV_MIN_EIG:
        raise ValueError(
            f"A must be strictly positive (min eigenvalue {es.values.min():.3e})"
        )
    v = es.vectors
    btil = v.conj().T @ b @ v
    denom = es.values[:, None] + es.values[None, :]
    x = v @ (btil / denom) @ v.conj().T
    return hermitianize(x)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
