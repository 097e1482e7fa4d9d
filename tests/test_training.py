import numpy as np
import pytest

from qvarlab import circuits as qc
from qvarlab import observables as obs_mod
from qvarlab.mixture import MixtureModel, variance_partial
from qvarlab.observables import ParamObservable
from qvarlab.observables import ensemble_outcomes
from qvarlab.states import LabeledState, white_noise_ensemble
from qvarlab.training import (
    _Engine,
    _spread,
    _theta_gradient,
    GRAD_STEP,
    TrainConfig,
    TrainSet,
    gradient,
    loss,
    make_trainset,
    train,
)

BASIS_TS = TrainSet(
    items=(
        LabeledState(0.0, white_noise_ensemble(np.array([1.0, 0.0], dtype=complex))),
        LabeledState(1.0, white_noise_ensemble(np.array([0.0, 1.0], dtype=complex))),
    )
)
ID1 = qc.make_circuit(1, [], 0)


def test_make_trainset_labels_and_validation():
    fam = MixtureModel(2, 0.25).family()
    ts = make_trainset(fam, 5, 0.1, 0.9)
    assert np.allclose(ts.labels, np.linspace(0.1, 0.9, 5))
    assert len(ts) == 5
    assert ts.dim == 4
    with pytest.raises(ValueError):
        make_trainset(fam, 1, 0.1, 0.9)
    with pytest.raises(ValueError):
        make_trainset(fam, 5, 0.9, 0.1)


def test_trainset_validation():
    one = LabeledState(0.0, white_noise_ensemble(np.array([1.0, 0.0], dtype=complex)))
    with pytest.raises(ValueError):
        TrainSet(items=(one,))
    other = LabeledState(1.0, white_noise_ensemble(np.array([0, 0, 0, 1.0], dtype=complex)))
    with pytest.raises(ValueError):
        TrainSet(items=(one, other))


def test_trainconfig_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TrainConfig(w_ls=bad)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TrainConfig(w_var=bad)
    with pytest.raises(ValueError):
        TrainConfig(restarts=0)
    with pytest.raises(ValueError):
        TrainConfig(max_iters=0)
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)


def test_loss_frozen_deterministic_outcomes():
    # basis states give deterministic readouts: predictions are the lambdas
    # themselves and every variance term vanishes
    cfg = TrainConfig(w_ls=1.0, w_var=1e-4)
    lam = np.array([0.25, 0.75])
    got = loss(lam, np.array([]), BASIS_TS, cfg, ID1, 1)
    assert abs(got - 0.125) < 1e-15


def test_loss_frozen_superposition_variance():
    plus = LabeledState(0.5, white_noise_ensemble(np.array([1.0, 1.0]) / np.sqrt(2)))
    zero = LabeledState(0.0, white_noise_ensemble(np.array([1.0, 0.0], dtype=complex)))
    ts = TrainSet(items=(zero, plus))
    cfg = TrainConfig(w_ls=1.0, w_var=0.5)
    lam = np.array([0.25, 0.75])
    # ls = (0 - 0.25)^2; var on the superposition is 0.0625
    want = 0.0625 + 0.5 * 0.0625
    assert abs(loss(lam, np.array([]), ts, cfg, ID1, 1) - want) < 1e-15


def test_loss_matches_observable_route():
    rng = np.random.default_rng(9)
    fam = MixtureModel(2, 0.25).family()
    ts = make_trainset(fam, 4, 0.1, 0.9)
    c = qc.hea(2, 2)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    lam = rng.normal(size=2)
    cfg = TrainConfig(w_ls=1.3, w_var=0.2)
    obs = ParamObservable(c, 1, lam)
    want = 0.0
    for it in ts.items:
        pred = obs_mod.expectation(obs, theta, it)
        want += 1.3 * (it.label - pred) ** 2 + 0.2 * obs_mod.variance(obs, theta, it)
    got = loss(lam, theta, ts, cfg, c, 1)
    assert abs(got - want) < 1e-12


def _random_orthonormal_pair(rng, d):
    g = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    q = np.linalg.qr(g)[0]
    return q[:, 0], q[:, 1]


def _per_item_probs(circuit, theta, m, items):
    """Each item's outcome distribution from its own eigendecomposition of rho."""
    out = []
    for it in items:
        ens = white_noise_ensemble(it.density())
        rows = qc.apply_circuit(circuit, theta, ens.rows)
        out.append(ensemble_outcomes(rows, ens.weights, ens.noise, m))
    return np.array(out)


def test_pure_train_set_engine_rows_are_its_states():
    # distinct pure rows are the batch as they are, in order, with a one-hot mix
    rng = np.random.default_rng(5)
    psis = rng.normal(size=(6, 16)) + 1j * rng.normal(size=(6, 16))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    ts = TrainSet(
        items=tuple(LabeledState(0.1 * k, white_noise_ensemble(p)) for k, p in enumerate(psis))
    )
    e = _Engine(qc.hea(4, 1), 2, ts)
    assert e.batch0.tobytes() == psis.tobytes()
    assert np.array_equal(e.mix, np.eye(6))
    assert not e.noise.any()


def test_mixture_train_set_evolves_two_rows():
    # random v1, v2, so an eigensolver would return distinct rows per item;
    # the family's closed form gives every item the same two rows
    rng = np.random.default_rng(8)
    v1, v2 = _random_orthonormal_pair(rng, 8)
    model = MixtureModel(3, 0.3, v1, v2)
    ts = make_trainset(model.family(), 10, 0.0, 1.0)
    c = qc.hea(3, 2)
    e = _Engine(c, 2, ts)
    assert e.batch0.shape == (2, 8)
    assert np.array_equal(e.batch0, np.stack([model.v1, model.v2]))
    # the alpha = 0 item is white noise: no rows, all weight on the noise
    assert len(ts.items[0].ens.rows) == 0
    assert not e.mix[0].any() and e.noise[0, 0] == 1.0
    for _ in range(3):
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        got = e.probs(theta)
        assert np.allclose(got[0], 0.25, rtol=0, atol=1e-15)
        want = _per_item_probs(c, theta, 2, ts.items)
        assert np.max(np.abs(got - want)) < 1e-12


def test_loss_permutation_invariant():
    rng = np.random.default_rng(13)
    fam = MixtureModel(2, 0.25).family()
    ts = make_trainset(fam, 4, 0.1, 0.9)
    perm = TrainSet(items=ts.items[::-1])
    c = qc.hea(2, 1)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    lam = rng.normal(size=2)
    cfg = TrainConfig()
    a = loss(lam, theta, ts, cfg, c, 1)
    b = loss(lam, theta, perm, cfg, c, 1)
    assert abs(a - b) < 1e-14


def test_lambda_shape_validation():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        loss(np.ones(3), np.array([]), BASIS_TS, cfg, ID1, 1)
    with pytest.raises(ValueError):
        gradient(np.ones(3), np.array([]), BASIS_TS, cfg, ID1, 1)


def _naive_theta_gradient(f, theta):
    # central differences of f, each probe a fresh full-circuit evaluation
    h = GRAD_STEP
    out = np.empty(theta.size)
    for s in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[s] += h
        tm[s] -= h
        out[s] = (f(tp) - f(tm)) / (2 * h)
    return out


def _naive_gradient(lam, theta, ts, cfg, circuit, m):
    h = GRAD_STEP
    out = np.empty(lam.size)
    for i in range(lam.size):
        lp, lm = lam.copy(), lam.copy()
        lp[i] += h
        lm[i] -= h
        out[i] = (
            loss(lp, theta, ts, cfg, circuit, m) - loss(lm, theta, ts, cfg, circuit, m)
        ) / (2 * h)
    grad_theta = _naive_theta_gradient(lambda th: loss(lam, th, ts, cfg, circuit, m), theta)
    return np.concatenate([out, grad_theta])


def test_gradient_bitwise_matches_naive_probes():
    # the snapshot cache must not change a single bit of the FD gradient of
    # either objective: the loss and the warmup spread
    rng = np.random.default_rng(21)
    cfg = TrainConfig(w_var=0.3)
    fam = MixtureModel(2, 0.25).family()
    mixed_ts = make_trainset(fam, 3, 0.1, 0.9)
    pure_ts = TrainSet(
        items=tuple(
            LabeledState(float(a), white_noise_ensemble(np.array([np.cos(a), 0, 0, np.sin(a)])))
            for a in (0.2, 0.7, 1.1)
        )
    )
    c = qc.hea(2, 2)
    for ts in (mixed_ts, pure_ts):
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        lam = rng.normal(size=2)
        fast = gradient(lam, theta, ts, cfg, c, 1)
        slow = _naive_gradient(lam, theta, ts, cfg, c, 1)
        assert np.array_equal(fast, slow)
        _, fast = _theta_gradient(_Engine(c, 1, ts), theta, _spread)
        slow = _naive_theta_gradient(lambda th: _spread(_Engine(c, 1, ts).probs(th)), theta)
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("circuit", [qc.hea(4, 2), qc.qcnn(8), qc.hva_cluster(6, 2)])
def test_probs_shift_bitwise_matches_full_evaluation(circuit):
    # probs_shift rebuilds only the operators of the steps reading the slot;
    # qcnn shares slots within a level and its u3/cu3 gates read three
    rng = np.random.default_rng(29)
    d = 2**circuit.n
    rows = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    ts = TrainSet(
        items=tuple(LabeledState(float(k), white_noise_ensemble(r)) for k, r in enumerate(rows))
    )
    engine = _Engine(circuit, 1, ts)
    fresh = _Engine(circuit, 1, ts)
    theta = rng.uniform(0, 2 * np.pi, circuit.param_count)
    engine.probs(theta)
    for slot in range(circuit.param_count):
        shifted = np.array(theta, copy=True)
        shifted[slot] += 1e-5
        got = engine.probs_shift(slot, shifted[slot])
        assert got.tobytes() == fresh.probs(shifted).tobytes()


def test_engine_builds_no_matrix_for_a_diagonal_gate(monkeypatch):
    # hea(5, 5) has 70 gates, 45 of them rz or rzz in five runs: only its 25
    # rx gates have a local matrix
    built = []
    monkeypatch.setattr(qc, "gate_matrix", lambda g, th: built.append(g) or np.eye(2))
    c = qc.hea(5, 5)
    rng = np.random.default_rng(41)
    rows = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    ts = TrainSet(tuple(LabeledState(k, white_noise_ensemble(r)) for k, r in enumerate(rows)))
    engine = _Engine(c, 1, ts)
    engine.probs(rng.uniform(0, 2 * np.pi, c.param_count))
    assert len(built) == 25 and {g.name for g in built} == {"rx"}
    built.clear()
    for slot in range(c.param_count):
        if c.gates[slot].name != "rx":  # hea's slot s is read by gate s alone
            engine.probs_shift(slot, 0.1)
    assert built == []


def test_gradient_matches_directional_derivative():
    rng = np.random.default_rng(27)
    cfg = TrainConfig(w_var=0.1)
    fam = MixtureModel(2, 0.25).family()
    ts = make_trainset(fam, 3, 0.1, 0.9)
    c = qc.hea(2, 1)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    lam = rng.normal(size=2)
    g = gradient(lam, theta, ts, cfg, c, 1)
    v = rng.normal(size=g.size)
    v /= np.linalg.norm(v)
    t = 1e-5
    fp = loss(lam + t * v[:2], theta + t * v[2:], ts, cfg, c, 1)
    fm = loss(lam - t * v[:2], theta - t * v[2:], ts, cfg, c, 1)
    assert abs((fp - fm) / (2 * t) - g @ v) < 1e-4


def test_gradient_zero_at_exact_fit_with_deterministic_probs():
    cfg = TrainConfig(w_var=1.0)
    lam = np.array([0.0, 1.0])  # equals the labels; variance is identically 0
    g = gradient(lam, np.array([]), BASIS_TS, cfg, ID1, 1)
    # analytic gradient is zero; the probes only leave float rounding behind
    assert np.max(np.abs(g)) < 1e-11


def test_pure_and_density_train_sets_agree_on_loss():
    rng = np.random.default_rng(33)
    c = qc.hva_cluster(8, 1)
    theta = rng.uniform(0, 2 * np.pi, c.param_count)
    lam = rng.normal(size=2)
    cfg = TrainConfig(w_var=0.2)
    psis = []
    for k in range(2):
        v = rng.normal(size=256) + 1j * rng.normal(size=256)
        psis.append(v / np.linalg.norm(v))
    pure_ts = TrainSet(
        items=tuple(LabeledState(0.3 * k, white_noise_ensemble(p)) for k, p in enumerate(psis))
    )
    dens_ts = TrainSet(
        items=tuple(
            LabeledState(0.3 * k, ens=white_noise_ensemble(np.outer(p, p.conj())))
            for k, p in enumerate(psis)
        )
    )
    a = loss(lam, theta, pure_ts, cfg, c, 1)
    # each rho = |psi><psi| is eigendecomposed into one row, psi up to phase,
    # so pure and density train sets of the same states give the same loss
    b = loss(lam, theta, dens_ts, cfg, c, 1)
    assert abs(a - b) < 1e-10
    small = qc.hea(2, 1)
    th2 = rng.uniform(0, 2 * np.pi, small.param_count)
    psi2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi2 /= np.linalg.norm(psi2)
    ts_p = TrainSet(
        items=(
            LabeledState(0.0, white_noise_ensemble(psi2)),
            LabeledState(1.0, white_noise_ensemble(np.roll(psi2, 1))),
        )
    )
    ts_d = TrainSet(
        items=(
            LabeledState(0.0, ens=white_noise_ensemble(np.outer(psi2, psi2.conj()))),
            LabeledState(
                1.0, ens=white_noise_ensemble(np.outer(np.roll(psi2, 1), np.roll(psi2, 1).conj()))
            ),
        )
    )
    assert abs(
        loss(lam, th2, ts_p, cfg, small, 1) - loss(lam, th2, ts_d, cfg, small, 1)
    ) < 1e-12


def test_ensemble_route_matches_dense_trace():
    # oracle: Tr(P_k rho), Tr(M rho) and Tr(M^2 rho) from the dense operator,
    # to 1e-10, for random full-rank states at d=8 and d=256 and for I/d,
    # whose ensemble has no rows at all
    rng = np.random.default_rng(41)
    cfg = TrainConfig(w_ls=1.0, w_var=0.3)
    for n in (3, 8):
        d = 2**n
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        dense = (rho, np.eye(d, dtype=complex) / d)
        ts = TrainSet(
            items=tuple(
                LabeledState(label, ens=white_noise_ensemble(r))
                for label, r in zip((0.2, 0.7), dense)
            )
        )
        c = qc.hea(n, 1)
        theta = rng.uniform(0, 2 * np.pi, c.param_count)
        lam = rng.normal(size=2)
        obs = ParamObservable(c, 1, lam)
        spec = obs_mod.matrix(obs, theta)
        op = spec.operator()
        want = 0.0
        for it, rho_it in zip(ts.items, dense):
            exact = np.einsum("kij,ji->k", spec.projectors, rho_it).real
            assert np.allclose(obs_mod.probabilities(obs, theta, it), exact, rtol=0, atol=1e-10)
            mean = np.trace(op @ rho_it).real
            var = np.trace(op @ op @ rho_it).real - mean**2
            want += (it.label - mean) ** 2 + 0.3 * var
        assert abs(loss(lam, theta, ts, cfg, c, 1) - want) < 1e-10


def test_train_identity_circuit_recovers_labels():
    cfg = TrainConfig(seed=1, restarts=2, max_iters=100)
    res = train(ID1, 1, BASIS_TS, cfg)
    assert res.converged
    assert np.allclose(res.lambdas, [0.0, 1.0], atol=1e-6)
    assert res.theta.size == 0
    assert res.loss == min(res.restart_losses)
    assert len(res.restart_losses) == 2
    hist = np.array(res.loss_history)
    assert np.all(np.diff(hist) <= 0.0)


def test_train_deterministic_given_seed(monkeypatch):
    cfg = TrainConfig(seed=7, restarts=2, max_iters=40)
    fam = MixtureModel(2, 0.25).family()
    ts = make_trainset(fam, 3, 0.1, 0.9)
    c = qc.hea(2, 1)
    # training evolves each item's ensemble rows; no item sums its d x d matrix
    monkeypatch.setattr(LabeledState, "density", lambda self: pytest.fail("density() summed"))
    r1 = train(c, 1, ts, cfg)
    r2 = train(c, 1, ts, cfg)
    assert np.array_equal(r1.lambdas, r2.lambdas)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.loss_history == r2.loss_history
    assert r1.restart_losses == r2.restart_losses


def test_train_mixture_reaches_closed_form_variance():
    # the optimal single-bit readout of the n=2 mixture has variance
    # (1 - a)(1 + a); a small trained model should get close to it
    model = MixtureModel(2, 0.25)
    ts = make_trainset(model.family(), 6, 0.0, 1.0)
    c = qc.hea(2, 3)
    cfg = TrainConfig(seed=3, restarts=3, max_iters=200, w_var=1e-4)
    res = train(c, 1, ts, cfg)
    obs = ParamObservable(c, 1, res.lambdas)
    sq_errs = []
    var_mid = None
    for it in ts.items:
        pred = obs_mod.expectation(obs, res.theta, it)
        sq_errs.append((pred - it.label) ** 2)
    assert max(sq_errs) < 1e-4
    mid = LabeledState(0.5, ens=white_noise_ensemble(model.rho(0.5)))
    var_mid = obs_mod.variance(obs, res.theta, mid)
    assert abs(var_mid - variance_partial(0.5, 1)) < 0.05
