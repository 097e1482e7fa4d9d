import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qvarlab
from qvarlab import circuits as qc
from qvarlab import fisher
from qvarlab import observables as obs_mod
from qvarlab.observables import (
    ParamObservable,
    expectation,
    matrix,
    probabilities,
    variance,
)
from qvarlab.states import LabeledState, ghz, white_noise_ensemble


def _identity_obs(n, m, lambdas=None):
    c = qc.make_circuit(n, [], 0)
    lam = np.arange(2**m, dtype=float) if lambdas is None else lambdas
    return ParamObservable(c, m, lam)


def test_param_observable_validation():
    c = qc.hea(2, 1)
    with pytest.raises(ValueError):
        ParamObservable(c, 0, np.array([1.0]))
    with pytest.raises(ValueError):
        ParamObservable(c, 3, np.ones(8))
    with pytest.raises(ValueError):
        ParamObservable(c, 2, np.ones(3))
    ok = ParamObservable(c, 2, np.ones(4))
    assert ok.n == 2
    assert ok.outcomes == 4


def test_outcome_groups_trailing_bits():
    # index 5 = binary 101 on three qubits: the last two bits give outcome 01
    psi = np.zeros(8, dtype=complex)
    psi[5] = 1.0
    obs = _identity_obs(3, 2)
    p = probabilities(obs, np.array([]), psi)
    assert np.array_equal(p, np.array([0.0, 1.0, 0.0, 0.0]))


def test_ghz_marginals():
    psi = ghz(2)
    theta = np.zeros(5)
    obs1 = ParamObservable(qc.hea(2, 1), 1, np.array([0.0, 1.0]))
    assert np.allclose(probabilities(obs1, theta, psi), [0.5, 0.5], atol=1e-15)
    obs2 = ParamObservable(qc.hea(2, 1), 2, np.arange(4.0))
    assert np.allclose(probabilities(obs2, theta, psi), [0.5, 0, 0, 0.5], atol=1e-15)


def test_probability_clamp_to_exact_zero():
    psi = np.array([np.sqrt(1 - 1e-16), 1e-8], dtype=complex)
    p = probabilities(_identity_obs(1, 1), np.array([]), psi)
    assert p[1] == 0.0


def test_density_route_matches_pure_route():
    rng = np.random.default_rng(3)
    c = qc.hea(3, 2)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    obs = ParamObservable(c, 2, rng.normal(size=4))
    p_vec = probabilities(obs, theta, psi)
    p_rho = probabilities(obs, theta, np.outer(psi, psi.conj()))
    assert np.allclose(p_vec, p_rho, atol=1e-13)
    assert abs(p_vec.sum() - 1.0) < 1e-12


def test_labeled_state_inputs():
    psi = ghz(2)
    obs = _identity_obs(2, 1)
    direct = probabilities(obs, np.array([]), psi)
    tagged = probabilities(obs, np.array([]), LabeledState(0.3, psi=psi))
    assert np.array_equal(direct, tagged)
    rho = np.outer(psi, psi.conj())
    tagged_rho = probabilities(obs, np.array([]), LabeledState(0.3, ens=white_noise_ensemble(rho)))
    assert np.allclose(direct, tagged_rho, atol=1e-14)


def test_non_psd_matrix_is_rejected_not_clamped():
    # eigenvalue -0.2: the outcome probabilities would be 1.2 and -0.2
    with pytest.raises(ValueError, match="negative eigenvalue"):
        probabilities(_identity_obs(1, 1), np.array([]), np.diag([1.2, -0.2]))


def test_bare_states_are_validated():
    proj = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    # unit trace, but eigenvalue -0.2: once read as probabilities [1.2, -0.2]
    with pytest.raises(ValueError, match="negative eigenvalue"):
        fisher.outcome_probs(proj, np.diag([1.2, -0.2]))
    with pytest.raises(ValueError, match="normalized"):
        fisher.outcome_probs(proj, np.array([1.0, 0.1]))
    with pytest.raises(ValueError, match="unit trace"):
        fisher.outcome_probs(proj, np.diag([0.6, 0.6]))
    with pytest.raises(ValueError, match="not Hermitian"):
        fisher.outcome_probs(proj, np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="normalized"):
        probabilities(_identity_obs(1, 1), np.array([]), np.array([0.6, 0.6]))
    psi = np.array([0.6, 0.8j])
    assert np.allclose(fisher.outcome_probs(proj, psi), [0.36, 0.64], atol=1e-15)
    assert np.allclose(fisher.outcome_probs(proj, np.outer(psi, psi.conj())), [0.36, 0.64])


def test_coerce_rejects_higher_rank():
    with pytest.raises(ValueError):
        probabilities(_identity_obs(1, 1), np.array([]), np.zeros((2, 2, 2)))


def test_expectation_and_variance_match_dense_operator():
    rng = np.random.default_rng(11)
    for trial in range(5):
        c = qc.hea(3, 1)
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        lam = rng.normal(size=2)
        obs = ParamObservable(c, 1, lam)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        m = matrix(obs, theta).operator()
        want_mean = np.vdot(psi, m @ psi).real
        want_var = np.vdot(psi, m @ m @ psi).real - want_mean**2
        assert abs(expectation(obs, theta, psi) - want_mean) < 1e-12
        assert abs(variance(obs, theta, psi) - want_var) < 1e-12


def test_matrix_projectors_complete_and_orthogonal():
    rng = np.random.default_rng(23)
    c = qc.hea(3, 2)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    spec = matrix(ParamObservable(c, 2, np.arange(4.0)), theta)
    total = spec.projectors.sum(axis=0)
    assert np.allclose(total, np.eye(8), atol=1e-12)
    for i in range(4):
        pi = spec.projectors[i]
        assert np.allclose(pi @ pi, pi, atol=1e-12)
        assert abs(np.trace(pi).real - 2.0) < 1e-12  # rank 2**(n-m)
        for j in range(i + 1, 4):
            assert np.allclose(pi @ spec.projectors[j], 0.0, atol=1e-12)


def test_matrix_writes_the_projectors_bitwise_as_the_product_formula():
    rng = np.random.default_rng(41)
    for c, m in ((qc.hea(5, 2), 2), (qc.qcnn(4), 1), (qc.hea(3, 1), 3)):
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        spec = matrix(ParamObservable(c, m, rng.normal(size=2**m)), theta)
        u = qc.unitary(c, theta)
        step = 2**m
        want = np.stack([u[i::step].conj().T @ u[i::step] for i in range(step)])
        assert spec.projectors.tobytes() == want.tobytes()


_MATRIX_DIGEST = """
import hashlib, sys
import numpy as np
from qvarlab import circuits, observables
for circuit, m in ((circuits.qcnn(8), 1), (circuits.hea(10, 2), 3)):
    rng = np.random.default_rng(7)
    theta = rng.uniform(0, 2 * np.pi, circuit.param_count)
    obs = observables.ParamObservable(circuit, m, rng.normal(size=2**m))
    print(hashlib.sha256(observables.matrix(obs, theta).projectors.tobytes()).hexdigest())
"""


def test_matrix_does_not_depend_on_the_blas_thread_count():
    # the thread count is set in the child's environment only, before numpy
    # loads its BLAS; the readouts are the CLI's qcnn(8) m=1 and an n=10 hea m=3
    src = str(Path(qvarlab.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _MATRIX_DIGEST], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.split()
    assert len(digests["1"]) == 2 and digests["1"] == digests["2"]


def test_probabilities_agree_with_projector_route():
    rng = np.random.default_rng(31)
    c = qc.hea(3, 2)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    obs = ParamObservable(c, 2, np.arange(4.0))
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    spec = matrix(obs, theta)
    want = np.einsum("kij,i,j->k", spec.projectors, psi.conj(), psi).real
    assert np.allclose(probabilities(obs, theta, psi), want, atol=1e-12)


def test_clamp_constant_exported():
    assert obs_mod.PROB_CLAMP == 1e-14
