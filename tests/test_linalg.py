import numpy as np
import pytest

from qvarlab import linalg


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
    got = linalg.herm_fn(h, np.exp)
    series = np.eye(4)
    term = np.eye(4)
    for k in range(1, 40):
        term = term @ h / k
        series = series + term
    assert np.allclose(got, series, atol=1e-12)


def test_herm_fn_rejects_nonfinite():
    h = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        linalg.herm_fn(h, np.log)


def test_solve_lyapunov_residual():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = m @ m.conj().T + 0.5 * np.eye(5)
    w = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = w + w.conj().T
    x = linalg.solve_lyapunov(a, b)
    assert linalg.hermiticity_defect(x) < 1e-12
    assert np.abs(a @ x + x @ a - b).max() < 1e-10


def test_solve_lyapunov_rejects_singular():
    a = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        linalg.solve_lyapunov(a, np.eye(2))


def test_haar_unitary_is_unitary_and_seeded():
    u1 = linalg.haar_unitary(8, np.random.default_rng(42))
    u2 = linalg.haar_unitary(8, np.random.default_rng(42))
    assert np.array_equal(u1, u2)
    assert np.abs(u1.conj().T @ u1 - np.eye(8)).max() < 1e-12


def test_haar_unitary_column_spread():
    # crude isotropy check: averaged projector over draws approaches I/d
    d = 4
    acc = np.zeros((d, d), dtype=complex)
    for k in range(200):
        u = linalg.haar_unitary(d, np.random.default_rng(k))
        acc += np.outer(u[:, 0], u[:, 0].conj())
    acc /= 200
    assert np.abs(acc - np.eye(d) / d).max() < 0.1
