import numpy as np
import pytest

from qvarlab import linalg

from oracles import haar_unitary, herm_fn, solve_lyapunov


def test_kron_matches_manual_fold():
    a = np.array([[1, 2], [3, 4.0]])
    b = np.array([[0, 1], [1, 0.0]])
    c = np.eye(2)
    got = linalg.kron(a, b, c)
    want = np.kron(np.kron(a, b), c)
    assert np.array_equal(got, want)
    # a list argument folds the same way
    assert np.array_equal(linalg.kron([a, b, c]), want)


def test_kron_scalar_identity():
    a = np.array([[2.0, 0], [0, 2.0]])
    assert np.array_equal(linalg.kron(a), a)


def test_hermiticity_helpers():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    assert linalg.hermiticity_defect(h) == 0.0
    bad = h + np.array([[0, 1e-6], [0, 0]])
    with pytest.raises(ValueError):
        linalg.require_hermitian(bad, tol=1e-9)
    fixed = linalg.hermitianize(bad)
    assert linalg.hermiticity_defect(fixed) < 1e-16


def test_herm_eig_sorted_and_phase_fixed():
    rng = np.random.default_rng(7)
    for trial in range(5):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = m + m.conj().T
        es = linalg.herm_eig(h)
        assert np.all(np.diff(es.values) >= -1e-12)
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert np.allclose(recon, h, atol=1e-10)
        for k in range(6):
            col = es.vectors[:, k]
            lead = col[np.argmax(np.abs(col) > 1e-10)]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_herm_fn_matches_series():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4))
    h = (m + m.T) / 4
    got = herm_fn(h, np.exp)
    series = np.eye(4)
    term = np.eye(4)
    for k in range(1, 40):
        term = term @ h / k
        series = series + term
    assert np.allclose(got, series, atol=1e-12)


def test_herm_fn_rejects_nonfinite():
    h = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        herm_fn(h, np.log)


def test_solve_lyapunov_residual():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = m @ m.conj().T + 0.5 * np.eye(5)
    w = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = w + w.conj().T
    x = solve_lyapunov(a, b)
    assert linalg.hermiticity_defect(x) < 1e-12
    assert np.abs(a @ x + x @ a - b).max() < 1e-10


def test_solve_lyapunov_rejects_singular():
    a = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        solve_lyapunov(a, np.eye(2))


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(8, np.random.default_rng(42))
    u2 = haar_unitary(8, np.random.default_rng(42))
    assert np.array_equal(u1, u2)
    assert np.abs(u1.conj().T @ u1 - np.eye(8)).max() < 1e-12


def test_haar_unitary_column_spread():
    # crude isotropy check: averaged projector over draws approaches I/d
    d = 4
    acc = np.zeros((d, d), dtype=complex)
    for k in range(200):
        u = haar_unitary(d, np.random.default_rng(k))
        acc += np.outer(u[:, 0], u[:, 0].conj())
    acc /= 200
    assert np.abs(acc - np.eye(d) / d).max() < 0.1


def _fix_phases_loop(vectors):
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > linalg.PHASE_TOL)
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        out[:, k] = col * (pivot.conj() / abs(pivot))
    return out


@pytest.mark.parametrize("d, cols", [(1, 1), (2, 2), (3, 1), (5, 2), (8, 8), (17, 9), (64, 64), (256, 100)])
def test_fix_phases_bitwise_matches_column_loop(d, cols):
    rng = np.random.default_rng([41, d, cols])
    v = rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))
    # leading entries below PHASE_TOL in every other column, so the pivot
    # is found further down
    v[: min(2, d - 1), ::2] *= 1e-11
    if cols > 1:
        v[:, 1] = 0.0  # no pivot at all: the column passes through unchanged
    assert linalg._fix_phases(v).tobytes() == _fix_phases_loop(v).tobytes()
    w = np.linalg.eigh(v @ v.conj().T)[1][:, :cols]
    assert linalg._fix_phases(w).tobytes() == _fix_phases_loop(w).tobytes()


def test_herm_eig_keeps_real_arithmetic():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(7, 7))
    h = m + m.T
    real = linalg.herm_eig(h)
    assert real.values.dtype == real.vectors.dtype == np.float64
    cplx = linalg.herm_eig(h.astype(complex))
    assert cplx.vectors.dtype == np.complex128
    assert np.abs(real.values - cplx.values).max() < 1e-12
    # both follow the phase convention, so the vectors agree column by column
    assert np.abs(real.vectors - cplx.vectors).max() < 1e-12
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.herm_eig(h + np.triu(np.full((7, 7), 1e-6), 1))
