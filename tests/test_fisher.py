import threading
import tracemalloc

import numpy as np
import pytest

from qvarlab import circuits as qc
from qvarlab import fisher
from qvarlab.cli import _embed
from qvarlab.fisher import (
    ChainViolationError,
    FisherReport,
    StateFamily,
    bound_chain,
    cfi_mixture_closed,
    outcome_probs,
    qfi_spectral,
)
from qvarlab.hamiltonians import ising
from qvarlab.linalg import herm_eig
from qvarlab.mixture import MixtureModel, qfi_commuting
from qvarlab.observables import ParamObservable, matrix, moments, projector_blocks
from qvarlab.states import Ensemble, LabeledState, ground_state, white_noise_ensemble

from oracles import QfiStepWarning, cfi, density, optimal_observable_matrix, qfi_fidelity, sld

Z_PROJ = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)


def _bloch_family(global_phase=False):
    def ev(a):
        psi = np.array([np.cos(a), np.sin(a)], dtype=complex)
        if global_phase:
            psi = np.exp(1j * a) * psi
        return white_noise_ensemble(psi)

    return StateFamily(ev, (-1.0, 2.0))


def _diag_family(g):
    def ev(a):
        return white_noise_ensemble(np.diag([1.0 - g(a), g(a)]))

    return StateFamily(ev, (-1.0, 2.0))


def test_state_family_range_and_stencil():
    fam = _bloch_family()
    with pytest.raises(ValueError):
        fam.state(2.5)
    assert fam.contains_stencil(0.0)
    assert not fam.contains_stencil(-1.0)
    assert not fam.contains_stencil(2.0)


def test_state_family_memoizes_pure_states_only():
    calls = []

    def ev(a):
        calls.append(a)
        return white_noise_ensemble(np.array([np.cos(a), np.sin(a)]))

    fam = StateFamily(ev, (-1.0, 2.0))
    first = fam.state(0.3)
    assert fam.state(0.3) is first and fam.state(np.float64(0.3)) is first
    fam.state(0.4)
    assert calls == [0.3, 0.4]
    # a separate family object starts with no states
    assert StateFamily(ev, (-1.0, 2.0)).state(0.3) is not first
    assert calls == [0.3, 0.4, 0.3]
    mixed = _diag_family(lambda a: 0.5 * a)
    assert mixed.state(0.3) is not mixed.state(0.3)


def test_outcome_probs_input_forms():
    psi = np.array([0.6, 0.8], dtype=complex)
    want = np.array([0.36, 0.64])
    assert np.allclose(outcome_probs(Z_PROJ, psi), want, atol=1e-15)
    assert np.allclose(outcome_probs(Z_PROJ, np.outer(psi, psi)), want, atol=1e-15)
    assert np.allclose(
        outcome_probs(Z_PROJ, LabeledState(0.1, white_noise_ensemble(psi))), want, atol=1e-15
    )
    spec = matrix(ParamObservable(qc.make_circuit(1, [], 0), 1, np.arange(2.0)), np.array([]))
    assert np.allclose(outcome_probs(spec, psi), want, atol=1e-15)


def _random_ensemble(rng, d, rank, noise):
    rows = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    w = rng.uniform(0.1, 1.0, rank)
    return Ensemble(w * (1.0 - noise) / w.sum(), rows, noise)


def test_outcome_probs_of_a_pure_state_keep_the_vector_einsum_bits():
    rng = np.random.default_rng(12)
    c = qc.hea(4, 2)
    spec = matrix(ParamObservable(c, 2, np.arange(4.0)), rng.uniform(0, 2 * np.pi, c.param_count))
    for trial in range(4):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        want = np.einsum("kij,i,j->k", spec.projectors, psi.conj(), psi).real
        want[np.abs(want) < 1e-14] = 0.0
        assert np.array_equal(outcome_probs(spec, psi), want)
        st = LabeledState(0.1, white_noise_ensemble(psi))
        assert np.array_equal(outcome_probs(spec, st), want)


def test_outcome_probs_of_an_ensemble_match_the_dense_trace():
    rng = np.random.default_rng(13)
    c = qc.hea(3, 2)
    spec = matrix(ParamObservable(c, 2, np.arange(4.0)), rng.uniform(0, 2 * np.pi, c.param_count))
    white = Ensemble(np.zeros(0), np.zeros((0, 8), dtype=complex), 1.0)
    naimark = _embed(MixtureModel(2, 0.25).family().state(0.4).ens, 1)
    for ens in (_random_ensemble(rng, 8, 3, 0.3), white, naimark):
        st = LabeledState(0.4, ens=ens)
        want = np.einsum("kij,ji->k", spec.projectors, density(st)).real
        assert np.abs(outcome_probs(spec, st) - want).max() < 1e-14


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 11) for m in sorted({1, min(n, 3)})] + [(9, 4)]
)
def test_outcome_probs_is_block_independent(n, m):
    # bound_chain reads the projectors in projector_blocks blocks: one block up
    # to n = 8, 4 projectors per block at n = 9 and 1 at n = 10
    rng = np.random.default_rng(100 + 10 * n + m)
    c = qc.hea(n, 1)
    obs = ParamObservable(c, m, rng.normal(size=2**m))
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    d = 2**n
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    states = [
        LabeledState(0.1, white_noise_ensemble(psi / np.linalg.norm(psi))),
        LabeledState(0.1, _random_ensemble(rng, d, 2, 0.3)),
        LabeledState(0.1, _random_ensemble(rng, d, 6, 0.1)),
    ]
    spec = matrix(obs, theta)
    whole = [outcome_probs(spec, st) for st in states]
    del spec
    sizes, parts = [], []
    for block in projector_blocks(obs, theta):
        sizes.append(len(block))
        parts.append([outcome_probs(block, st) for st in states])
    assert sizes == [min(2**m, 4 ** (10 - n))] * max(1, 2**m // 4 ** (10 - n))
    for k, want in enumerate(whole):
        assert np.array_equal(np.concatenate([p[k] for p in parts]), want)


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


def _span_qfi(fam, alpha):
    return fisher._family_qfi(fisher._stencil(fam, alpha))


@pytest.mark.parametrize("n", [3, 5, 8, 10])
def test_span_qfi_matches_the_commuting_mixture_form(n):
    fam = MixtureModel(n, 0.25).family()
    for a in (0.1, 0.5, 0.9):
        want = qfi_commuting(a, n, 0.25)
        assert abs(_span_qfi(fam, a) / want - 1.0) < 1e-12


@pytest.mark.parametrize("d", [16, 64])
def test_span_qfi_matches_dense_qfi_spectral(d):
    # rank-R ensembles of non-orthogonal rows plus white noise, every weight
    # and row moving with alpha
    rng = np.random.default_rng(d)
    for rank in range(1, 5):
        e0, e1 = _random_ensemble(rng, d, rank, 0.3), _random_ensemble(rng, d, rank, 0.2)

        def ev(a, e0=e0, e1=e1):
            rows = np.cos(a) * e0.rows + np.sin(a) * e1.rows
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            w = (1.0 - a) * e0.weights + a * e1.weights
            return Ensemble(w, rows, (1.0 - a) * e0.noise + a * e1.noise)

        fam = StateFamily(ev, (0.0, 1.0))
        for a in (0.2, 0.6):
            stencil = fisher._stencil(fam, a)
            rhos = [density(st) for st in stencil]
            want = qfi_spectral(rhos[1], fisher._slope(rhos))
            assert abs(fisher._family_qfi(stencil) / want - 1.0) < 1e-10


def test_span_qfi_at_a_centre_with_no_rows():
    # rho(a) = |a| |e_s><e_s| + (1 - |a|) I/4, s the sign of a: the centre is
    # I/4, whose ensemble has no rows, and drho = (|e_0><e_0| - |e_1><e_1|)/2
    eye = np.eye(4, dtype=complex)

    def ev(a):
        if a == 0.0:
            return Ensemble(np.zeros(0), eye[:0], 1.0)
        return Ensemble(np.array([abs(a)]), eye[[int(a < 0)]], 1.0 - abs(a))

    stencil = fisher._stencil(StateFamily(ev, (-1.0, 1.0)), 0.0)
    want = qfi_spectral(np.eye(4) / 4, fisher._slope([density(st) for st in stencil]))
    assert abs(want - 2.0) < 1e-9
    assert abs(fisher._family_qfi(stencil) - want) < 1e-12
    # white noise at every stencil point: no rows anywhere, no information
    flat = StateFamily(lambda a: Ensemble(np.zeros(0), eye[:0], 1.0), (-1, 1))
    assert _span_qfi(flat, 0.0) == 0.0


def test_qfi_pure_bloch_rotation():
    # the Bloch rotation (cos a, sin a) has QFI 4 through the span route
    assert abs(_span_qfi(_bloch_family(), 0.3) - 4.0) < 1e-7


def test_qfi_pure_removes_global_phase():
    # the phase e^{ia} on the Bloch rotation adds nothing
    plain = _span_qfi(_bloch_family(), 0.3)
    assert abs(_span_qfi(_bloch_family(global_phase=True), 0.3) - plain) < 1e-10
    # a pure global-phase path carries no information at all
    phase = StateFamily(lambda a: white_noise_ensemble(np.array([np.exp(1j * a), 0.0])), (-1, 1))
    assert abs(_span_qfi(phase, 0.3)) < 1e-14


def test_span_qfi_diverges_where_the_noise_weight_leaves_zero():
    # rho(a) = b |0><0| + (1 - b) I/4 with b = 1 - max(a, 0): at a = 0 the
    # noise weight leaves 0 with slope 1/2 over the stencil, so (d - k)
    # (dnoise)^2 / (d noise) is infinite; elsewhere the span route is exact
    eye = np.eye(4, dtype=complex)

    def ev(a):
        b = max(a, 0.0)
        return Ensemble(np.array([1.0 - b]), eye[:1], b)

    fam = StateFamily(ev, (-1.0, 1.0))
    assert _span_qfi(fam, 0.0) == float("inf")
    stencil = fisher._stencil(fam, 0.5)
    want = qfi_spectral(density(stencil[1]), fisher._slope([density(st) for st in stencil]))
    assert abs(fisher._family_qfi(stencil) / want - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 16, 64])
def test_span_qfi_of_decomposed_pure_densities_matches_the_vectors(d):
    # white_noise_ensemble of |psi><psi| stores noise d lambda_min, rounding
    # of either sign that moves between stencil points; the white term must
    # read it as no noise, not as noise leaving 0 (inf QFI, inv_qfi 0)
    rng = np.random.default_rng(d)
    u, v = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2))
    v -= np.vdot(u, v) / np.vdot(u, u) * u
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)

    def psi(a):
        return np.cos(a) * u + np.exp(1j * a) * np.sin(a) * v

    vec = StateFamily(lambda a: white_noise_ensemble(psi(a)), (-1.0, 2.0))
    dense = StateFamily(
        lambda a: white_noise_ensemble(np.outer(psi(a), psi(a).conj())), (-1.0, 2.0)
    )
    noises = []
    for a in np.linspace(0.1, 1.4, 14):
        stencil = fisher._stencil(dense, a)
        noises += [st.ens.noise for st in stencil]
        assert abs(fisher._family_qfi(stencil) / _span_qfi(vec, a) - 1.0) < 1e-7
    assert min(noises) < 0.0 and max(map(abs, noises)) < 1e-12


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
        return white_noise_ensemble(psi.astype(complex))

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


@pytest.mark.parametrize("pure", [False, True])
def test_bound_chain_and_cfi_read_one_three_state_stencil(pure):
    # density states are not memoized, so each family.state call reaches the
    # evaluator; pure states are, so each call is a distinct label
    calls = []

    def ev(a):
        calls.append(a)
        if pure:
            psi = np.array([np.cos(a), np.sin(a)], dtype=complex)
            return white_noise_ensemble(psi)
        return white_noise_ensemble(np.diag([1.0 - 0.5 * a, 0.5 * a]))

    alpha, h = 0.3, fisher.PROB_STEP
    obs = ParamObservable(qc.make_circuit(1, [], 0), 1, np.array([0.0, 1.0]))
    bound_chain(obs, np.array([]), StateFamily(ev, (-1.0, 2.0)), [alpha], on_violation="flag")
    assert sorted(calls) == [alpha - h, alpha, alpha + h]
    calls.clear()
    cfi(StateFamily(ev, (-1.0, 2.0)), Z_PROJ, alpha)
    assert sorted(calls) == [alpha - h, alpha, alpha + h]


@pytest.mark.parametrize("n", [3, 4])
def test_bound_chain_qfi_matches_exact_ising_linear_response(n):
    # I_q = 4 sum_{k>0} |<v_k|dH/dh|v_0>|^2 / (E_k - E_0)^2, with dH/dh exact
    # since ising(n, h) is affine in h
    fam = StateFamily(lambda h: white_noise_ensemble(ground_state(ising(n, h))), (0.0, 2.5))
    dh = ising(n, 1.0).dense() - ising(n, 0.0).dense()
    rng = np.random.default_rng(5)
    c = qc.hea(n, 1)
    obs = ParamObservable(c, 1, rng.normal(size=2))
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    for h in (0.3, 0.7, 1.0, 1.7):
        es = herm_eig(ising(n, h).dense())
        amp = es.vectors[:, 1:].conj().T @ (dh @ es.vectors[:, 0])
        iq = 4.0 * np.sum(np.abs(amp) ** 2 / (es.values[1:] - es.values[0]) ** 2)
        (rep,) = bound_chain(obs, theta, fam, [h], on_violation="flag")
        assert abs(rep.inv_qfi * iq - 1.0) < 1e-6


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


def test_bound_chain_flag_mode_marks_instead_of_raising(monkeypatch):
    fam = MixtureModel(3, 0.25).family()
    rng = np.random.default_rng(3)
    c = qc.hea(3, 2)
    obs = ParamObservable(c, 1, np.array([0.0, 1.0]))
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    # an impossible tolerance forces the violation path without a real defect
    monkeypatch.setattr(fisher, "CHAIN_TOL", -10.0)
    with pytest.raises(ChainViolationError):
        bound_chain(obs, theta, fam, [0.5])
    reports = bound_chain(obs, theta, fam, [0.5], on_violation="flag")
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


def _serial_chain(obs, theta, family, alphas):
    """bound_chain's report fields on one thread: outcome_probs of each
    stencil state in turn, then the same dp, var, slope, CFI and QFI."""
    spec = matrix(obs, theta)
    lam = spec.lambdas
    out = []
    for alpha in alphas:
        stencil = fisher._stencil(family, alpha)
        lo, p0, hi = (outcome_probs(spec, st) for st in stencil)
        dp = (hi - lo) / (2.0 * fisher.PROB_STEP)
        var = float(moments(p0, lam)[1])
        slope = float(dp @ lam)
        ic = fisher.fisher_information(p0, dp)
        iq = fisher._family_qfi(stencil)
        out.append((alpha, var / slope**2, 1.0 / ic, 1.0 / iq, ""))
    return out


def _ising4():
    return StateFamily(lambda h: white_noise_ensemble(ground_state(ising(4, h))), (0.05, 2.0))


def _ising10():
    return StateFamily(lambda h: white_noise_ensemble(ground_state(ising(10, h))), (0.05, 2.0))


def _naimark_mixture():
    base = MixtureModel(2, 0.25).family()
    return StateFamily(lambda a: _embed(base.state(a).ens, 1), base.alpha_range)


@pytest.mark.parametrize(
    "family, circuit, m, alphas",
    [
        (_ising4, qc.hea(4, 1), 1, [0.3, 1.0, 1.7]),
        (_ising4, qc.hea(4, 1), 2, [0.3, 1.0, 1.7]),
        (lambda: MixtureModel(3, 0.25).family(), qc.hea(3, 1), 2, [0.2, 0.5, 0.8]),
        # d + 2 = 6 rows per state: the several-row matmul in outcome_probs
        (_naimark_mixture, qc.hea(3, 2), 2, [0.2, 0.5, 0.8]),
        # 8 one-projector blocks, against the whole 128 MB stack
        (_ising10, qc.hea(10, 1), 3, [0.7, 1.3]),
    ],
    ids=["ising4-m1", "ising4-m2", "mixture3", "naimark-mixture", "ising10-m3-blocks"],
)
def test_bound_chain_bits_match_a_serial_stencil(family, circuit, m, alphas):
    # the stencil's three outcome distributions run on worker threads, one
    # projector block at a time; each is the unchanged single-state call, so
    # the floats match a serial pass over the whole stack and repeat from run
    # to run whatever the scheduling
    rng = np.random.default_rng(17)
    obs = ParamObservable(circuit, m, rng.normal(size=2**m))
    theta = rng.uniform(0, 2 * np.pi, circuit.param_count)
    want = _serial_chain(obs, theta, family(), alphas)
    for _ in range(2):
        got = bound_chain(obs, theta, family(), alphas)
        fields = [(r.alpha, r.adjusted_variance, r.inv_cfi, r.inv_qfi, r.flag) for r in got]
        assert fields == want


def test_bound_chain_errors_raise_through_the_pool_and_leave_no_threads(monkeypatch):
    threads = threading.active_count()
    # a 2-dimensional state against 4-dimensional projectors fails inside a worker
    obs = ParamObservable(qc.hea(2, 1), 1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        bound_chain(obs, np.zeros(5), _bloch_family(), [0.3])
    assert threading.active_count() == threads
    c = qc.hea(3, 2)
    obs = ParamObservable(c, 1, np.array([0.0, 1.0]))
    theta = np.random.default_rng(3).uniform(0, 2 * np.pi, c.param_count)
    monkeypatch.setattr(fisher, "CHAIN_TOL", -10.0)
    with pytest.raises(ChainViolationError):
        bound_chain(obs, theta, MixtureModel(3, 0.25).family(), [0.5])
    assert threading.active_count() == threads


def test_bound_chain_point_at_n10_holds_one_projector_not_the_stack():
    # one cold n=10, m=3 point: the unitary, one 16 MB projector block and the
    # ground-state solves, not the 128 MB (8, 1024, 1024) stack
    c = qc.hea(10, 1)
    rng = np.random.default_rng(23)
    obs = ParamObservable(c, 3, rng.normal(size=8))
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    family = _ising10()
    tracemalloc.start()
    try:
        bound_chain(obs, theta, family, [0.7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_bound_chain_on_an_empty_grid_builds_nothing(monkeypatch):
    # the CLI passes an empty grid when no point has a centred stencil
    # (mixture --eval-points 2: the grid {0, 1} is the family's edges)
    def no_blocks(*args, **kwargs):
        raise AssertionError("projector blocks built for an empty grid")

    monkeypatch.setattr(fisher, "projector_blocks", no_blocks)
    obs = ParamObservable(qc.hea(2, 1), 1, np.array([0.0, 1.0]))
    fam = MixtureModel(2, 0.25).family()
    assert bound_chain(obs, np.zeros(5), fam, []) == []
    with pytest.raises(ValueError, match="on_violation"):
        bound_chain(obs, np.zeros(5), fam, [], on_violation="ignore")


def test_bound_chain_checks_every_alpha_before_any_work():
    calls = []

    def ev(a):
        calls.append(a)
        return white_noise_ensemble(np.array([np.cos(a), np.sin(a)], dtype=complex))

    c = qc.hea(1, 1)
    obs = ParamObservable(c, 1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="boundary"):
        bound_chain(obs, np.zeros(c.param_count), StateFamily(ev, (-1.0, 2.0)), [0.3, 0.7, 2.0])
    assert calls == []


def test_fisher_report_defaults():
    rep = FisherReport(alpha=0.5, adjusted_variance=1.0, inv_cfi=0.5, inv_qfi=0.25)
    assert rep.flag == ""
    assert fisher.PROB_STEP == 1e-4
