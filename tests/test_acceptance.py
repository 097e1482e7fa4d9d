"""Acceptance gates: one test per criterion, one verdict line per criterion.

Run with -s to see the scoreboard. Criteria 1-4 and 7 are cheap closed-form
and oracle checks; 5 and 6 retrain the mixture and Ising readouts (minutes);
criterion 8 retrains the n=8 models and only runs with -m slow.
"""
import numpy as np
import pytest

from qvarlab.circuits import hea, hva_cluster, qcnn
from qvarlab.cli import FAMILY_BUILDERS, ExperimentConfig
from qvarlab.fisher import bound_chain, qfi_fidelity, qfi_spectral, sld
from qvarlab.linalg import solve_lyapunov
from qvarlab.mixture import (
    MixtureModel,
    optimal_observable_matrix,
    projector_optimality_oracle,
    qfi_alpha_printed,
    qfi_half_closed,
    total_variance_partial,
    variance_full,
    variance_partial,
)
from qvarlab.observables import ParamObservable, probabilities
from qvarlab.training import TrainConfig, make_trainset, train


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _dense(spec) -> np.ndarray:
    return np.einsum("k,kij->ij", spec.lambdas, spec.projectors)


def _mean_curves(circ, m, res, family, grid):
    obs = ParamObservable(circ, m, res.lambdas)
    sq, var = [], []
    for a in grid:
        p = probabilities(obs, res.theta, family.state(float(a)))
        pred = float(p @ res.lambdas)
        sq.append((pred - float(a)) ** 2)
        var.append(float(p @ res.lambdas**2 - pred**2))
    return np.array(sq), np.array(var)


def test_criterion_1_closed_form_identities():
    worst = 0.0
    # (a) integral of the partial-readout variance curve over the label window
    nodes, weights = np.polynomial.legendre.leggauss(8)
    a_nodes = 0.5 * (nodes + 1.0)
    for m in range(1, 6):
        quad = 0.5 * sum(w * variance_partial(a, m) for w, a in zip(weights, a_nodes))
        ic = 4.0 * (2**m - 1) / (2**m + 1)
        worst = max(worst, abs(quad - (1.0 / ic - 1.0 / 12.0)))
        ftotal, itotal = total_variance_partial(m)
        worst = max(worst, abs(ftotal - quad), abs(itotal - quad))
    # (b) the full observable at r=1/2 degrades to one fewer measured qubit
    alphas = np.linspace(0.0, 1.0, 101)
    for n in range(2, 7):
        for a in alphas:
            worst = max(worst, abs(variance_full(a, n, 0.5) - variance_partial(a, n - 1)))
    # (c) calibration traces for every optimal observable; the Lyapunov
    # stationarity equation holds for the full-basis optimum (the partial
    # optimum satisfies the trace conditions plus the criterion-4 optimality)
    lyap_worst = 0.0
    for n in range(2, 6):
        for r in (0.25, 0.7):
            model = MixtureModel(n=n, r=r)
            d = model.dim
            rho1 = model.rho1()
            white = np.eye(d) / d
            for m in ("full", 1, n - 1):
                if m != "full" and not 1 <= m < n:
                    continue
                mat = _dense(optimal_observable_matrix(model, m))
                worst = max(worst, abs(np.trace(mat @ rho1).real - 1.0))
                worst = max(worst, abs(np.trace(mat @ white).real))
            full = _dense(optimal_observable_matrix(model, "full"))
            rho_half = 0.5 * rho1 + 0.5 * white
            rhs = rho_half + (2.0 / qfi_half_closed(n, r)) * (rho1 - white)
            lyap_worst = max(
                lyap_worst, np.abs(rho_half @ full + full @ rho_half - rhs).max()
            )
            rebuilt = solve_lyapunov(rho_half, rhs)
            lyap_worst = max(lyap_worst, np.abs(rebuilt - full).max())
    ok = worst < 1e-10 and lyap_worst < 1e-9
    _verdict(1, ok, f"identity residual {worst:.2e}, Lyapunov residual {lyap_worst:.2e}")


def test_criterion_2_qfi_oracle_cross_validation():
    def close(x, y):
        return abs(x - y) < 1e-8 or abs(x - y) / max(abs(x), abs(y)) < 1e-3

    worst_rel = 0.0
    ok = True
    for n in (2, 3, 4):
        for r in (0.0, 0.25, 0.5, 1.0):
            model = MixtureModel(n=n, r=r)
            fam = model.family()
            drho = model.rho1() - np.eye(model.dim) / model.dim
            for a in (0.1, 0.25, 0.5, 0.75, 0.85):
                rho = fam.state(a).density()
                spectral = qfi_spectral(rho, drho)
                ell = sld(rho, drho)
                trace_route = np.trace(rho @ ell @ ell).real
                fid_route = qfi_fidelity(fam, a, dalpha=1e-4)
                ok = ok and close(spectral, trace_route) and close(spectral, fid_route)
                worst_rel = max(
                    worst_rel,
                    abs(spectral - fid_route) / max(spectral, 1e-12),
                )
                if a == 0.5:
                    ok = ok and close(spectral, qfi_half_closed(n, r))
    # the printed alpha-dependent closed form disagrees with every oracle at
    # this point; its quarantined value is pinned so regressions surface
    printed = qfi_alpha_printed(0.5, 2, 0.5, allow_invalid=True)
    oracle = 4.0 / 3.0
    ok = ok and abs(printed - (-4.0 / 21.0)) < 1e-12 and abs(printed - oracle) > 1.0
    _verdict(2, ok, f"worst fidelity-route rel err {worst_rel:.2e}, printed form divergence confirmed")


def test_criterion_3_bound_chain_random_settings():
    # slack is 1e-6 at unit scale; near-flat slopes push 1/I_c to ~1e4 where
    # only a relative slack keeps the check about ordering, not FD roundoff
    def holds(lo, hi, tol=1e-6):
        return hi >= lo - tol * max(1.0, abs(lo))

    violations = 0
    zero_slope = 0
    checked = 0
    for k in range(100):
        rng = np.random.default_rng([1105, k])
        n = int(rng.integers(2, 5))
        model = MixtureModel(n=n, r=float(rng.uniform(0.05, 0.95)))
        circ = hea(n, int(rng.integers(1, 3)))
        m = int(rng.integers(1, min(n, 2) + 1))
        lam = rng.normal(0.0, 1.0, 2**m)
        theta = rng.uniform(0.0, 2.0 * np.pi, circ.param_count)
        alpha = float(rng.uniform(0.05, 0.95))
        obs = ParamObservable(circ, m, lam)
        rep = bound_chain(obs, theta, model.family(), [alpha], on_violation="flag")[0]
        checked += 1
        if "zero-slope" in rep.flag:
            zero_slope += 1
            continue
        if not (holds(rep.inv_cfi, rep.adjusted_variance) and holds(rep.inv_qfi, rep.inv_cfi)):
            violations += 1
    ok = checked == 100 and violations == 0
    _verdict(3, ok, f"100 settings, {violations} violations, {zero_slope} zero-slope (chain vacuous)")


def test_criterion_4_projector_optimality():
    worst_margin = -np.inf
    ok = True
    for m in (1, 2):
        for r in (0.3, 0.7):
            report = projector_optimality_oracle(
                MixtureModel(n=4, r=r), m, trials=50, seed=m * 10 + int(10 * r)
            )
            ok = ok and report.passed and report.majorization_ok
            worst_margin = max(worst_margin, report.max_found - report.optimal_value)
    ok = ok and worst_margin <= 1e-10
    _verdict(4, ok, f"200 families, worst margin above optimum {worst_margin:.2e}")


def test_criterion_5_mixture_training_reproduction():
    model = MixtureModel(n=5, r=0.25)
    fam = model.family()
    ts = make_trainset(fam, 10, 0.0, 1.0)
    circ = hea(5, 5)
    grid = np.linspace(0.0, 1.0, 101)
    curves = {}
    max_sq = 0.0
    max_dev = 0.0
    for m in (1, 3, 5):
        res = train(circ, m, ts, TrainConfig(seed=0, restarts=5, max_iters=500))
        sq, var = _mean_curves(circ, m, res, fam, grid)
        ana = np.array(
            [
                variance_full(a, 5, 0.25) if m == 5 else variance_partial(a, m)
                for a in grid
            ]
        )
        curves[m] = var
        max_sq = max(max_sq, sq.max())
        max_dev = max(max_dev, np.abs(var - ana).max())
    below = grid < 0.9
    ordered = bool(
        np.all(curves[1][below] > curves[3][below])
        and np.all(curves[3][below] > curves[5][below])
    )
    ok = max_sq < 1e-4 and max_dev < 0.05 and ordered
    _verdict(
        5,
        ok,
        f"max sq err {max_sq:.2e}, max |var - closed form| {max_dev:.3f}, "
        f"ordering m1>m3>m5 {ordered}",
    )


def test_criterion_6_ising_training_reproduction():
    grid = np.linspace(0.05, 2.0, 21)

    # n=3: a two-outcome readout can saturate 1/I_q on the two-dimensional
    # ground family; the variance weight is turned up so the optimizer pins
    # the span restriction to a rank-1 projector (see the decisions ledger)
    fam3 = FAMILY_BUILDERS["ising"](ExperimentConfig("ising", n=3))
    ts3 = make_trainset(fam3, 10, 0.05, 2.0)
    c3 = hea(3, 2)
    res3 = train(c3, 1, ts3, TrainConfig(seed=0, restarts=5, max_iters=500, w_var=0.1))
    reps3 = bound_chain(
        ParamObservable(c3, 1, res3.lambdas), res3.theta, fam3, grid, on_violation="flag"
    )
    sat3 = max(r.adjusted_variance / r.inv_qfi for r in reps3)
    ok3 = sat3 <= 1.1 and all("zero-slope" not in r.flag for r in reps3)

    # n=4: the ground family leaves the two-dimensional regime, so the
    # two-outcome readout saturates 1/I_c but visibly not 1/I_q
    fam4 = FAMILY_BUILDERS["ising"](ExperimentConfig("ising", n=4))
    ts4 = make_trainset(fam4, 10, 0.05, 2.0)
    c4 = hea(4, 4)
    res41 = train(c4, 1, ts4, TrainConfig(seed=0, restarts=5, max_iters=500))
    reps41 = bound_chain(
        ParamObservable(c4, 1, res41.lambdas), res41.theta, fam4, grid, on_violation="flag"
    )
    cfi_sat = max(r.adjusted_variance / r.inv_cfi for r in reps41)
    qfi_gap = max(r.adjusted_variance / r.inv_qfi for r in reps41)
    ok41 = cfi_sat <= 1.1 and qfi_gap > 1.05

    res44 = train(c4, 4, ts4, TrainConfig(seed=0, restarts=5, max_iters=500))
    _, var1 = _mean_curves(c4, 1, res41, fam4, grid)
    _, var4 = _mean_curves(c4, 4, res44, fam4, grid)
    wins = int((var4 < var1).sum())
    ok44 = wins > len(grid) // 2

    ok = ok3 and ok41 and ok44
    _verdict(
        6,
        ok,
        f"n=3 saturation {sat3:.3f} (<=1.1), n=4 m=1 1/I_c ratio {cfi_sat:.3f} "
        f"with 1/I_q gap {qfi_gap:.2f} (>1.05), n=4 m=4 below m=1 at {wins}/{len(grid)}",
    )


def test_criterion_7_pure_state_observations():
    fam = FAMILY_BUILDERS["ising"](ExperimentConfig("ising", n=3))
    hs = np.linspace(0.05, 2.0, 20)
    stack = np.stack([fam.state(h).ens.rows[0] for h in hs])
    svals = np.linalg.svd(stack, compute_uv=False)
    third_sv = svals[2]
    max_imag = np.abs(stack.imag).max()

    # Observation 2: two-outcome readouts sit exactly on the classical bound
    circ = hea(3, 2)
    worst_gap = 0.0
    flagged = 0
    for k in range(10):
        rng = np.random.default_rng([2207, k])
        theta = rng.uniform(0.0, 2.0 * np.pi, circ.param_count)
        lam = np.sort(rng.normal(0.0, 1.0, 2))[::-1]
        h = float(rng.uniform(0.2, 1.8))
        rep = bound_chain(
            ParamObservable(circ, 1, lam), theta, fam, [h], on_violation="flag"
        )[0]
        if "zero-slope" in rep.flag:
            flagged += 1
            continue
        gap = abs(rep.adjusted_variance - rep.inv_cfi) / max(1.0, rep.inv_cfi)
        worst_gap = max(worst_gap, gap)
    ok = third_sv < 1e-8 and max_imag < 1e-10 and flagged == 0 and worst_gap < 1e-8
    _verdict(
        7,
        ok,
        f"third singular value {third_sv:.2e}, max imag amplitude {max_imag:.2e}, "
        f"two-outcome identity gap {worst_gap:.2e}",
    )


@pytest.mark.slow
def test_criterion_8_appendix_models():
    results = {}
    jobs = [
        ("schwinger", FAMILY_BUILDERS["schwinger"](ExperimentConfig("schwinger", n=8)),
         qcnn(8), (1, 2), (-2.0, 1.0)),
        ("cluster", FAMILY_BUILDERS["cluster"](ExperimentConfig("cluster", n=8)),
         qcnn(8), (1, 3), (0.0, 1.0)),
    ]
    for name, fam, circ, ms, (lo, hi) in jobs:
        ts = make_trainset(fam, 10, lo, hi)
        grid = np.linspace(lo, hi, 41)
        for m in ms:
            res = train(circ, m, ts, TrainConfig(seed=0, restarts=5, max_iters=500))
            sq, var = _mean_curves(circ, m, res, fam, grid)
            results[name, m] = (sq.mean(), var.mean())
    # the Hamiltonian-variational run backs the cluster figure; it has a
    # single m, so it carries no ordering assertion of its own
    cf = FAMILY_BUILDERS["cluster"](ExperimentConfig("cluster", n=8))
    hva = hva_cluster(8, 10)
    res = train(hva, 3, make_trainset(cf, 10, 0.0, 1.0), TrainConfig(seed=0, restarts=5, max_iters=500))
    hva_sq, hva_var = _mean_curves(hva, 3, res, cf, np.linspace(0.0, 1.0, 41))

    ok = True
    details = []
    for name, lo_m, hi_m in (("schwinger", 1, 2), ("cluster", 1, 3)):
        sq_lo, var_lo = results[name, lo_m]
        sq_hi, var_hi = results[name, hi_m]
        won = sq_hi < sq_lo and var_hi < var_lo
        ok = ok and won
        details.append(
            f"{name} m={hi_m} vs m={lo_m}: sq {sq_hi:.2e}<{sq_lo:.2e}, var {var_hi:.3f}<{var_lo:.3f}"
        )
    details.append(f"hva m=3 sq {hva_sq.mean():.2e} var {hva_var.mean():.3f}")
    _verdict(8, ok, "; ".join(details))
