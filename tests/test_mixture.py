import numpy as np
import pytest

from qvarlab import mixture as mx
from qvarlab.fisher import cfi_mixture_closed, outcome_probs, qfi_spectral, sld
from qvarlab.mixture import (
    MixtureModel,
    check_majorization,
    f_divergence,
    optimal_eigenvalues_full,
    optimal_eigenvalues_partial,
    optimal_observable_matrix,
    projector_optimality_oracle,
    qfi_alpha_printed,
    qfi_commuting,
    qfi_half_closed,
    total_variance_partial,
    variance_full,
    variance_partial,
)
from qvarlab.observables import SpectralObservable
from qvarlab.states import ghz


def test_model_validation():
    with pytest.raises(ValueError):
        MixtureModel(0, 0.5)
    with pytest.raises(ValueError):
        MixtureModel(2, 1.5)
    with pytest.raises(ValueError):
        MixtureModel(2, 0.5, v1=ghz(2), v2=ghz(2))  # not orthogonal
    with pytest.raises(ValueError, match="normalized"):
        MixtureModel(1, 0.5, v1=[np.nan, 0.0], v2=[0.0, 1.0])
    m = MixtureModel(3, 0.25)
    assert m.dim == 8
    assert np.allclose(m.v1, ghz(3, +1))
    assert np.allclose(m.v2, ghz(3, -1))


def test_rho_endpoints_and_family():
    m = MixtureModel(2, 0.3)
    assert np.allclose(m.rho(0.0), np.eye(4) / 4, atol=1e-15)
    assert np.allclose(m.rho(1.0), m.rho1(), atol=1e-15)
    assert abs(np.trace(m.rho(0.4)).real - 1.0) < 1e-14
    fam = m.family()
    st = fam.state(0.4)
    assert st.label == 0.4
    assert np.allclose(st.density(), m.rho(0.4), atol=1e-15)
    with pytest.raises(ValueError):
        fam.state(1.5)


def test_family_states_carry_the_closed_form_ensemble():
    # rows v1, v2 of weights (alpha r, alpha (1-r)), zero weights dropped,
    # noise 1 - alpha; LabeledState checks each against rho
    for r, kept in ((0.3, 2), (0.0, 1), (1.0, 1)):
        m = MixtureModel(3, r)
        fam = m.family()
        for a in (0.0, 0.25, 1.0):
            ens = fam.state(a).ens
            assert ens.noise == 1.0 - a
            assert len(ens.rows) == len(ens.weights) == (0 if a == 0.0 else kept)
            assert abs(ens.weights.sum() - a) < 1e-15
        # every state's rows are the same bytes, row for row
        assert fam.state(0.5).ens.rows.tobytes() == fam.state(0.9).ens.rows.tobytes()


def test_eigenbasis_diagonalizes_rho1_descending():
    for r in (0.25, 0.5, 0.8):
        m = MixtureModel(3, r)
        basis = m.eigenbasis()
        assert np.allclose(basis.conj().T @ basis, np.eye(8), atol=1e-12)
        diag = basis.conj().T @ m.rho1() @ basis
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) < 1e-12
        vals = np.diag(diag).real
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(vals[0] - max(r, 1 - r)) < 1e-12


def test_qfi_half_closed_frozen_values():
    assert abs(qfi_half_closed(2, 0.5) - 4.0 / 3.0) < 1e-14
    for n in range(2, 6):
        want = 4.0 - 8.0 / (2 ** (n - 1) + 1)
        assert abs(qfi_half_closed(n, 0.5) - want) < 1e-12


def test_qfi_commuting_matches_routes():
    for a in (0.2, 0.5, 0.8):
        assert abs(qfi_commuting(a, 2, 0.5) - 1.0 / (1.0 - a * a)) < 1e-12
    m = MixtureModel(3, 0.25)
    drho = m.rho1() - m.rho2()
    for a in (0.3, 0.6):
        spec = qfi_spectral(m.rho(a), drho)
        assert abs(qfi_commuting(a, 3, 0.25) - spec) < 1e-8


def test_qfi_commuting_divergence_at_one():
    with pytest.raises(ValueError, match="diverges"):
        qfi_commuting(1.0, 2, 0.5)
    # a single qubit has no kernel, so alpha = 1 stays finite there
    assert abs(qfi_commuting(1.0, 1, 0.25) - 1.0 / 3.0) < 1e-14


def test_qfi_alpha_printed_is_quarantined():
    with pytest.raises(ValueError):
        qfi_alpha_printed(0.5, 2, 0.5)
    bad = qfi_alpha_printed(0.5, 2, 0.5, allow_invalid=True)
    assert abs(bad - (-4.0 / 21.0)) < 1e-12
    assert abs(bad - qfi_commuting(0.5, 2, 0.5)) > 1.0


def test_optimal_eigenvalues_full_frozen():
    assert np.allclose(
        optimal_eigenvalues_full(2, 0.5), [1.0, 1.0, -1.0, -1.0], atol=1e-12
    )
    assert np.allclose(
        optimal_eigenvalues_full(2, 1.0), [1.0, -1.0 / 3, -1.0 / 3, -1.0 / 3], atol=1e-12
    )
    for n, r in ((3, 0.3), (4, 0.7)):
        lams = optimal_eigenvalues_full(n, r)
        assert lams.shape == (2**n,)
        assert np.all(lams[2:] < 0.0)  # kernel values sit below zero
        assert np.all(lams[2:] == lams[2])


def test_optimal_eigenvalues_partial_frozen():
    assert np.allclose(optimal_eigenvalues_partial(3, 1), [1.0, -1.0], atol=1e-15)
    lams = optimal_eigenvalues_partial(5, 3)
    assert lams[0] == 1.0
    assert np.allclose(lams[1:], -1.0 / 7.0, atol=1e-15)
    assert abs(lams.sum()) < 1e-14  # white noise averages the observable to zero
    with pytest.raises(ValueError):
        optimal_eigenvalues_partial(3, 3)
    with pytest.raises(ValueError):
        optimal_eigenvalues_partial(3, 0)


def _dense_variance(spec: SpectralObservable, rho: np.ndarray) -> float:
    mat = spec.operator()
    mean = np.trace(mat @ rho).real
    return float(np.trace(mat @ mat @ rho).real - mean**2)


def test_closed_forms_match_dense_algebra():
    """Every closed form against dense algebra at n in {2, 3}. Two printed
    forms for this model contradict the defining constraints, so blind
    transcription is unsafe; this guards regressions.
    """
    for n in (2, 3):
        for r in (0.25, 0.5):
            model = MixtureModel(n=n, r=r)
            full = optimal_observable_matrix(model, "full")
            mat = full.operator()
            rho1 = model.rho1()
            if abs(np.trace(mat @ rho1).real - 1.0) > 1e-10:
                raise AssertionError("full observable violates Tr(M rho1) = 1")
            if abs(np.trace(mat).real / 2**n) > 1e-10:
                raise AssertionError("full observable violates Tr(M rho2) = 0")
            for alpha in (0.0, 0.3, 0.7, 1.0):
                rho = model.rho(alpha)
                if abs(np.trace(mat @ rho).real - alpha) > 1e-10:
                    raise AssertionError("expectation is not alpha")
                if abs(_dense_variance(full, rho) - variance_full(alpha, n, r)) > 1e-10:
                    raise AssertionError("variance_full disagrees with dense")
            drho = rho1 - model.rho2()
            iq = qfi_spectral(model.rho(0.5), drho)
            if abs(iq - qfi_half_closed(n, r)) > 1e-8:
                raise AssertionError("qfi_half_closed disagrees with spectral")
            part = optimal_observable_matrix(model, 1)
            p1 = outcome_probs(part, rho1)
            for alpha in (0.2, 0.5, 0.8):
                want = variance_partial(alpha, 1)
                got = _dense_variance(part, model.rho(alpha))
                if abs(got - want) > 1e-10:
                    raise AssertionError("variance_partial disagrees with dense")
                ic = cfi_mixture_closed(alpha, p1, np.full(2, 0.5))
                if abs(1.0 / ic - want) > 1e-10:
                    raise AssertionError("partial variance is not 1/I_c")


def test_observable_calibration_at_new_size():
    # test_closed_forms_match_dense_algebra covers n in {2, 3}; extend the
    # invariants once more
    model = MixtureModel(4, 0.3)
    for m in ("full", 2):
        mat = optimal_observable_matrix(model, m).operator()
        assert abs(np.trace(mat).real) < 1e-10
        assert abs(np.trace(mat @ model.rho1()).real - 1.0) < 1e-10
        for a in (0.0, 0.4, 1.0):
            assert abs(np.trace(mat @ model.rho(a)).real - a) < 1e-10


def test_partial_projectors_have_block_rank():
    model = MixtureModel(4, 0.3)
    spec = optimal_observable_matrix(model, 2)
    for k in range(4):
        pk = spec.projectors[k]
        assert np.allclose(pk @ pk, pk, atol=1e-12)
        assert abs(np.trace(pk).real - 4.0) < 1e-12
    assert np.allclose(spec.projectors.sum(axis=0), np.eye(16), atol=1e-12)
    # the signal pair fills the first block, so rho1 lands on outcome 0
    p1 = outcome_probs(spec, model.rho1())
    assert np.allclose(p1, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_optimal_observable_matrix_arguments():
    model = MixtureModel(3, 0.25)
    full_a = optimal_observable_matrix(model, "full").operator()
    full_b = optimal_observable_matrix(model, 3).operator()
    assert np.allclose(full_a, full_b, atol=1e-14)
    with pytest.raises(TypeError):
        optimal_observable_matrix(model, 1.5)
    with pytest.raises(ValueError):
        optimal_observable_matrix(model, 4)


def test_variance_full_attains_quantum_bound():
    for n in (2, 3, 4):
        for r in (0.1, 0.5, 0.9):
            got = variance_full(0.5, n, r)
            assert abs(got - 1.0 / qfi_half_closed(n, r)) < 1e-12
    for a in (0.1, 0.5, 0.9):
        assert abs(variance_full(a, 2, 0.5) - (1.0 - a * a)) < 1e-12


def test_variance_full_reduces_to_partial_at_half_r():
    grid = np.linspace(0.0, 1.0, 101)
    for n in (2, 3, 4):
        for a in grid:
            lhs = variance_full(a, n, 0.5)
            rhs = variance_partial(a, n - 1)
            assert abs(lhs - rhs) < 1e-10


def test_variance_partial_frozen_value():
    assert abs(variance_partial(0.5, 1) - 0.75) < 1e-15
    with pytest.raises(ValueError):
        variance_partial(0.5, 0)


def test_total_variance_partial_routes_agree():
    ff, fi = total_variance_partial(1)
    assert abs(ff - 2.0 / 3.0) < 1e-14
    assert abs(fi - 2.0 / 3.0) < 1e-14
    ff, fi = total_variance_partial(2)
    assert abs(ff - 1.0 / 3.0) < 1e-14
    for m in range(1, 6):
        ff, fi = total_variance_partial(m)
        assert abs(ff - fi) < 1e-14
        nodes, weights = np.polynomial.legendre.leggauss(8)
        quad = 0.5 * sum(
            w * variance_partial(0.5 * (x + 1.0), m) for x, w in zip(nodes, weights)
        )
        assert abs(quad - fi) < 1e-12
    with pytest.raises(ValueError):
        total_variance_partial(0)


def test_sld_residual_on_mixture_path():
    for n in (2, 3):
        model = MixtureModel(n, 0.25)
        drho = model.rho1() - model.rho2()
        for a in (0.2, 0.6):
            rho = model.rho(a)
            el = sld(rho, drho)
            resid = 0.5 * (rho @ el + el @ rho) - drho
            assert np.max(np.abs(resid)) < 1e-9


def test_f_divergence_values_and_errors():
    assert abs(f_divergence([1.0, 0.0], [0.5, 0.5]) - 2.0 / 3.0) < 1e-15
    for m in (1, 2, 3):
        k = 2**m
        onehot = np.zeros(k)
        onehot[0] = 1.0
        want = 2.0 * (k - 1.0) / (k + 1.0)
        assert abs(f_divergence(onehot, np.full(k, 1.0 / k)) - want) < 1e-14
    assert f_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    with pytest.raises(ValueError):
        f_divergence([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        f_divergence([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        f_divergence([-0.1, 1.1], [0.5, 0.5])


def test_check_majorization_cases():
    assert check_majorization([0.5, 0.5], [1.0, 0.0])
    assert not check_majorization([1.0, 0.0], [0.5, 0.5])
    assert check_majorization([0.3, 0.7], [0.7, 0.3])
    assert check_majorization([0.5 + 5e-11, 0.5 - 5e-11], [0.5, 0.5])
    assert not check_majorization([0.6, 0.6], [1.0, 0.0])  # totals differ
    with pytest.raises(ValueError):
        check_majorization([0.5, 0.5], [1.0])


def test_projector_optimality_oracle_small_search():
    model = MixtureModel(3, 0.7)
    report = projector_optimality_oracle(model, 1, trials=40, seed=2)
    assert report.trials == 40
    assert abs(report.optimal_value - 2.0 / 3.0) < 1e-12
    assert report.max_found <= report.optimal_value + 1e-10
    assert report.majorization_ok
    assert report.passed
    with pytest.raises(ValueError):
        projector_optimality_oracle(model, 3, trials=1)


def test_oracle_zero_trials_degenerate():
    model = MixtureModel(2, 0.5)
    report = projector_optimality_oracle(model, 1, trials=0)
    assert report.max_found == report.optimal_value
    assert report.passed


def test_module_constants():
    assert mx.MAJORIZATION_TOL == 1e-10
    assert mx.EIG_FLOOR == 1e-15
