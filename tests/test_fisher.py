import numpy as np
import pytest

from qvarlab import circuits as qc
from qvarlab import fisher
from qvarlab.fisher import (
    ChainViolationError,
    FisherReport,
    QfiStepWarning,
    StateFamily,
    bound_chain,
    cfi,
    cfi_mixture_closed,
    outcome_probs,
    qfi_fidelity,
    qfi_pure,
    qfi_spectral,
    sld,
)
from qvarlab.mixture import MixtureModel, optimal_observable_matrix
from qvarlab.observables import ParamObservable, matrix
from qvarlab.states import LabeledState

Z_PROJ = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)


def _bloch_family(global_phase=False):
    def ev(a):
        psi = np.array([np.cos(a), np.sin(a)], dtype=complex)
        if global_phase:
            psi = np.exp(1j * a) * psi
        return LabeledState(a, psi=psi)

    return StateFamily(ev, (-1.0, 2.0))


def _diag_family(g):
    def ev(a):
        return LabeledState(a, rho=np.diag([1.0 - g(a), g(a)]).astype(complex))

    return StateFamily(ev, (-1.0, 2.0))


def test_state_family_range_and_stencil():
    fam = _bloch_family()
    with pytest.raises(ValueError):
        fam.state(2.5)
    assert fam.contains_stencil(0.0, 1e-4)
    assert not fam.contains_stencil(-1.0, 1e-4)
    assert not fam.contains_stencil(2.0, 1e-4)


def test_outcome_probs_input_forms():
    psi = np.array([0.6, 0.8], dtype=complex)
    want = np.array([0.36, 0.64])
    assert np.allclose(outcome_probs(Z_PROJ, psi), want, atol=1e-15)
    assert np.allclose(outcome_probs(Z_PROJ, np.outer(psi, psi)), want, atol=1e-15)
    assert np.allclose(
        outcome_probs(Z_PROJ, LabeledState(0.1, psi=psi)), want, atol=1e-15
    )
    spec = matrix(ParamObservable(qc.make_circuit(1, [], 0), 1, np.arange(2.0)), np.array([]))
    assert np.allclose(outcome_probs(spec, psi), want, atol=1e-15)


def test_outcome_probs_clamps_tiny_values():
    psi = np.array([1.0, 1e-8], dtype=complex)
    psi /= np.linalg.norm(psi)
    p = outcome_probs(Z_PROJ, psi)
    assert p[1] == 0.0


def test_cfi_constant_family_is_zero():
    fam = _diag_family(lambda a: 0.25)
    assert cfi(fam, Z_PROJ, 0.5) == 0.0


def test_cfi_drops_flat_zero_outcomes():
    fam = _diag_family(lambda a: 0.0)
    assert cfi(fam, Z_PROJ, 0.5) == 0.0


def test_cfi_raises_on_divergent_outcome():
    fam = _diag_family(lambda a: max(a, 0.0))
    with pytest.raises(ValueError, match="diverges"):
        cfi(fam, Z_PROJ, 0.0)


def test_cfi_optimal_partial_projectors_at_half():
    # at alpha = 1/2 the mixture CFI is twice the f-divergence, and the
    # optimal rank-2^(n-m) measurement attains 4 (2^m - 1)/(2^m + 1)
    model = MixtureModel(3, 0.25)
    fam = model.family()
    for m in (1, 2):
        spec = optimal_observable_matrix(model, m)
        want = 4.0 * (2**m - 1) / (2**m + 1)
        assert abs(cfi(fam, spec, 0.5) - want) < 1e-9
        # the finite-difference route agrees with the closed interpolation form
        p1 = outcome_probs(spec, model.rho1())
        p2 = outcome_probs(spec, model.rho2())
        for a in (0.2, 0.5, 0.8):
            assert abs(cfi(fam, spec, a) - cfi_mixture_closed(a, p1, p2)) < 1e-9


def test_cfi_mixture_closed_frozen_value():
    assert abs(cfi_mixture_closed(0.5, [1.0, 0.0], [0.5, 0.5]) - 4.0 / 3.0) < 1e-15


def test_cfi_mixture_closed_errors():
    with pytest.raises(ValueError):
        cfi_mixture_closed(0.5, [1.0, 0.0], [0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="diverges"):
        cfi_mixture_closed(1.0, [1.0, 0.0], [0.0, 1.0])


def test_qfi_pure_bloch_rotation():
    psi = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
    dpsi = np.array([-np.sin(0.3), np.cos(0.3)], dtype=complex)
    assert abs(qfi_pure(psi, dpsi) - 4.0) < 1e-14


def test_qfi_pure_removes_global_phase():
    # d/da [e^{ia} psi(a)] gains i psi, which the projection term cancels
    a = 0.3
    psi = np.exp(1j * a) * np.array([np.cos(a), np.sin(a)], dtype=complex)
    dpsi = 1j * psi + np.exp(1j * a) * np.array([-np.sin(a), np.cos(a)])
    assert abs(qfi_pure(psi, dpsi) - 4.0) < 1e-14
    # a pure global-phase path carries no information at all
    flat = np.array([1.0, 0.0], dtype=complex)
    assert abs(qfi_pure(flat, 1j * flat)) < 1e-14


def test_qfi_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        qfi_pure(np.array([1.0, 1.0]), np.zeros(2))


def test_qfi_spectral_frozen_mixture_value():
    model = MixtureModel(2, 0.5)
    rho = model.rho(0.5)
    drho = model.rho1() - model.rho2()  # the path is linear in alpha
    assert abs(qfi_spectral(rho, drho) - 4.0 / 3.0) < 1e-12


def test_qfi_spectral_matches_sld_trace():
    rng = np.random.default_rng(7)
    for trial in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        drho = 1j * (rho @ h - h @ rho)  # unitary path keeps the trace fixed
        el = sld(rho, drho)
        resid = 0.5 * (rho @ el + el @ rho) - drho
        assert np.max(np.abs(resid)) < 1e-10
        want = np.trace(rho @ el @ el).real
        assert abs(qfi_spectral(rho, drho) - want) < 1e-8 * max(1.0, abs(want))


def test_qfi_fidelity_tracks_commuting_closed_form():
    fam = MixtureModel(2, 0.5).family()
    for a in (0.2, 0.5, 0.8):
        want = 1.0 / (1.0 - a * a)
        got = qfi_fidelity(fam, a)
        # the finite-step bias grows toward the alpha=1 divergence
        assert abs(got - want) / want < 5e-3
    assert abs(qfi_fidelity(fam, 0.2) - 1.0416666666666667) < 5e-4


def test_qfi_fidelity_warns_on_unstable_step():
    def ev(a):
        psi = np.array([1.0, 0.0]) if a < 0.5006 else np.array([0.0, 1.0])
        return LabeledState(a, psi=psi.astype(complex))

    fam = StateFamily(ev, (0.0, 1.0))
    with pytest.warns(QfiStepWarning):
        qfi_fidelity(fam, 0.5)


def test_bound_chain_ordering_random_settings():
    rng = np.random.default_rng(41)
    fam = MixtureModel(3, 0.25).family()
    c = qc.hea(3, 1)
    for trial in range(8):
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        lam = rng.normal(size=2)
        obs = ParamObservable(c, 1, lam)
        reports = bound_chain(obs, theta, fam, [0.2, 0.5, 0.8])
        for rep in reports:
            assert rep.adjusted_variance >= rep.inv_cfi - 1e-6
            assert rep.inv_cfi >= rep.inv_qfi - 1e-6
            # an insensitive readout direction is legitimate, a violation is not
            assert "chain-violation" not in rep.flag


def test_bound_chain_two_outcome_pure_family_saturates_cfi():
    # with two outcomes the adjusted variance equals 1/I_c identically
    rng = np.random.default_rng(43)
    fam = _bloch_family()
    c = qc.hea(1, 1)
    for trial in range(6):
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        obs = ParamObservable(c, 1, rng.normal(size=2))
        reports = bound_chain(obs, theta, fam, [0.3, 0.7])
        for rep in reports:
            if rep.flag:
                continue
            assert abs(rep.adjusted_variance - rep.inv_cfi) < 1e-9
            assert rep.inv_qfi == pytest.approx(0.25, rel=1e-6)


def test_bound_chain_zero_slope_flag():
    fam = MixtureModel(2, 0.25).family()
    obs = ParamObservable(qc.hea(2, 1), 1, np.array([1.0, 1.0]))
    reports = bound_chain(obs, np.zeros(5), fam, [0.5])
    assert reports[0].flag == "zero-slope"
    assert reports[0].adjusted_variance == float("inf")


def test_bound_chain_boundary_and_mode_validation():
    fam = MixtureModel(2, 0.25).family()
    obs = ParamObservable(qc.hea(2, 1), 1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="boundary"):
        bound_chain(obs, np.zeros(5), fam, [1.0])
    with pytest.raises(ValueError):
        bound_chain(obs, np.zeros(5), fam, [0.5], on_violation="ignore")


def test_bound_chain_flag_mode_marks_instead_of_raising():
    fam = MixtureModel(3, 0.25).family()
    rng = np.random.default_rng(3)
    c = qc.hea(3, 2)
    obs = ParamObservable(c, 1, np.array([0.0, 1.0]))
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    # an impossible tolerance forces the violation path without a real defect
    with pytest.raises(ChainViolationError):
        bound_chain(obs, theta, fam, [0.5], chain_tol=-10.0)
    reports = bound_chain(obs, theta, fam, [0.5], chain_tol=-10.0, on_violation="flag")
    assert "chain-violation" in reports[0].flag


def test_bound_chain_flags_divergent_cfi():
    # at alpha=5e-7 outcome 1 has probability 2.5e-13 but slope 1e-6, so the
    # classical Fisher information diverges there
    fam = _bloch_family()
    obs = ParamObservable(qc.make_circuit(1, [], 0), 1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="diverges"):
        bound_chain(obs, np.array([]), fam, [5e-7])
    (rep,) = bound_chain(obs, np.array([]), fam, [5e-7], on_violation="flag")
    assert rep.flag == "cfi-divergent"
    assert rep.inv_cfi == 0.0
    assert rep.inv_qfi == pytest.approx(0.25, rel=1e-6)


def test_fisher_report_defaults():
    rep = FisherReport(alpha=0.5, adjusted_variance=1.0, inv_cfi=0.5, inv_qfi=0.25)
    assert rep.flag == ""
    assert fisher.PROB_STEP == 1e-4
    assert fisher.PSI_STEP == 1e-5
