import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qvarlab import hamiltonians, linalg, states

from oracles import density, fidelity


def test_ghz_vectors():
    plus = states.ghz(3, +1)
    minus = states.ghz(3, -1)
    s = 1 / np.sqrt(2)
    assert np.allclose(plus[[0, 7]], [s, s]) and np.allclose(plus[1:7], 0)
    assert np.allclose(minus[[0, 7]], [s, -s])
    assert abs(np.vdot(plus, minus)) < 1e-15


def test_rank2_state_spectrum():
    v1 = states.ghz(2, +1)
    v2 = states.ghz(2, -1)
    rho = states.rank2_state(0.3, v1, v2)
    w = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(w, [0, 0, 0.3, 0.7], atol=1e-14)


def test_rank2_state_rejects_bad_inputs():
    v1 = states.ghz(2, +1)
    with pytest.raises(ValueError):
        states.rank2_state(1.5, v1, states.ghz(2, -1))
    with pytest.raises(ValueError):
        states.rank2_state(0.5, v1, v1)  # not orthogonal
    with pytest.raises(ValueError):
        states.rank2_state(0.5, v1, 2.0 * states.ghz(2, -1))  # not normalized


def test_mixture_state_interpolates():
    v1, v2 = states.ghz(2, +1), states.ghz(2, -1)
    rho1 = states.rank2_state(0.25, v1, v2)
    rho2 = np.eye(4) / 4
    mixed = states.mixture_state(0.6, rho1, rho2)
    assert np.allclose(mixed, 0.6 * rho1 + 0.4 * rho2)
    assert abs(np.trace(mixed) - 1) < 1e-14
    with pytest.raises(ValueError):
        states.mixture_state(-0.1, rho1, rho2)


def test_labeled_state_validation():
    psi = np.array([1.0, 0.0], dtype=complex)
    st = states.LabeledState(label=0.3, ens=states.white_noise_ensemble(psi))
    assert [f.name for f in dataclasses.fields(st)] == ["label", "ens"] and st.dim == 2
    assert np.allclose(density(st), np.diag([1.0, 0.0]))
    assert len(st.ens.rows) == 1 and st.ens.weights[0] == 1.0 and st.ens.noise == 0.0
    with pytest.raises(ValueError):
        states.LabeledState(label=0.1, ens=states.white_noise_ensemble(2 * psi))
    with pytest.raises(ValueError, match="normalized"):
        states.LabeledState(label=0.1, ens=states.white_noise_ensemble(np.array([np.nan, 0.0])))
    with pytest.raises(TypeError):
        states.LabeledState(label=0.1, rho=np.diag([1.0, 0.0]))
    # a non-finite label would only fail in the joint fit, after the warmup
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            states.LabeledState(label=bad, ens=states.white_noise_ensemble(psi))


def test_labeled_state_ensemble_is_validated():
    v = np.eye(4, dtype=complex)[[0, 3]]
    ens = states.Ensemble(np.array([0.375, 0.125]), v, 0.5)
    st = states.LabeledState(label=0.5, ens=ens)
    assert st.dim == 4
    # the rows are kept as given, so states built from one array share it
    assert st.ens.rows is v
    # weights and noise must sum to 1
    with pytest.raises(ValueError, match="sum to 1"):
        states.LabeledState(label=0.5, ens=states.Ensemble(np.array([0.375, 0.2]), v, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        states.LabeledState(label=0.5, ens=states.Ensemble(ens.weights, v, np.nan))
    # every row is a unit vector
    with pytest.raises(ValueError, match="normalized"):
        states.LabeledState(label=0.5, ens=states.Ensemble(ens.weights, 2 * v, 0.5))
    # one row per weight, as a 2-d array
    with pytest.raises(ValueError, match="shape"):
        states.LabeledState(label=0.5, ens=states.Ensemble(np.ones(1) * 0.5, v, 0.5))
    with pytest.raises(ValueError, match="shape"):
        states.LabeledState(label=0.5, ens=states.Ensemble(np.ones(1), v[0], 0.0))
    # white noise alone: no rows at all
    white = states.LabeledState(label=0.0, ens=states.Ensemble(np.zeros(0), v[:0], 1.0))
    assert len(white.ens.rows) == 0
    assert np.array_equal(density(white), np.eye(4) / 4)


def test_labeled_state_rejects_negative_weights():
    v = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="nonnegative"):
        states.LabeledState(label=0.5, ens=states.Ensemble(np.array([1.2, -0.2]), v, 0.0))


def test_labeled_state_rejects_noise_below_rounding():
    v = np.eye(2, dtype=complex)[:1]
    # the floor is d * EIGENVALUE_CLIP, what white_noise_ensemble lets through
    floor = 2 * states.EIGENVALUE_CLIP
    states.LabeledState(label=0.5, ens=states.Ensemble(np.array([1.0 - floor]), v, floor))
    with pytest.raises(ValueError, match="noise"):
        states.LabeledState(label=0.5, ens=states.Ensemble(np.array([1.4]), v, -0.4))
    with pytest.raises(ValueError, match="noise"):
        states.LabeledState(
            label=0.5, ens=states.Ensemble(np.array([1.0 - 2 * floor]), v, 2 * floor)
        )


def test_white_noise_ensemble_rejects_non_psd():
    # a unit-trace Hermitian matrix with eigenvalue -0.2 is no state; its
    # ensemble would carry noise -0.4
    with pytest.raises(ValueError, match="negative eigenvalue"):
        states.white_noise_ensemble(np.diag([1.2, -0.2]))
    # rounding below zero, within EIGENVALUE_CLIP, is still a state
    ens = states.white_noise_ensemble(np.diag([1.0 + 5e-11, -5e-11]))
    assert ens.noise == pytest.approx(-1e-10, abs=1e-20)
    states.LabeledState(label=0.0, ens=ens)


def test_density_sums_the_ensemble():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    st = states.LabeledState(label=0.2, ens=states.white_noise_ensemble(rho))
    assert np.abs(density(st) - rho).max() < 1e-14
    psi = g[0] / np.linalg.norm(g[0])
    pure = states.LabeledState(label=0.2, ens=states.white_noise_ensemble(psi))
    assert np.abs(density(pure) - np.outer(psi, psi.conj())).max() < 1e-15


def test_fidelity_known_values():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(fidelity(e0, e0) - 1.0) < 1e-12
    assert fidelity(e0, e1) < 1e-12
    # pure against maximally mixed: F = sqrt(<psi|rho|psi>) = sqrt(1/2)
    assert abs(fidelity(e0, np.eye(2) / 2) - np.sqrt(0.5)) < 1e-12


def test_fidelity_symmetric_on_random_pairs():
    rng = np.random.default_rng(21)
    for trial in range(6):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ra = a @ a.conj().T
        rb = b @ b.conj().T
        ra /= np.trace(ra).real
        rb /= np.trace(rb).real
        f1 = fidelity(ra, rb)
        f2 = fidelity(rb, ra)
        assert abs(f1 - f2) < 1e-10
        assert -1e-12 <= f1 <= 1 + 1e-12


def test_ground_state_phase_and_warning():
    h = np.diag([3.0, -1.0, 2.0, 5.0]).astype(complex)
    g = states.ground_state(h)
    assert np.allclose(g, [0, 1, 0, 0])
    with pytest.warns(states.DegenerateGroundSpaceWarning):
        states.ground_state(np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))
    # a 1x1 matrix has one eigenvalue, so no gap to check and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", states.DegenerateGroundSpaceWarning)
        assert np.array_equal(states.ground_state(np.array([[2.5 + 0j]])), [1.0])


@pytest.mark.parametrize("energies", [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
def test_degenerate_ground_space_warning_points_at_the_caller(energies):
    # the first diagonal is flip- and translation-symmetric, so it is solved
    # per block; the second has neither symmetry and is solved whole
    h = np.diag(energies)
    for ham in (h, hamiltonians.FlipSum.from_dense(h)):
        with pytest.warns(states.DegenerateGroundSpaceWarning) as record:
            states.ground_state(ham)
        assert [w.filename for w in record] == [__file__]


def test_ising10_ground_state_builds_no_dense_matrix():
    # the dense n=10 matrix alone is 16 MB; the orbit tables are made afresh
    states._orbits.cache_clear()
    tracemalloc.start()
    try:
        states.ground_state(hamiltonians.ising(10, 0.7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_ground_state_leading_amplitude_positive():
    rng = np.random.default_rng(9)
    for trial in range(5):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = m + m.conj().T
        g = states.ground_state(h)
        lead = g[np.argmax(np.abs(g) > 1e-10)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0
        assert abs(np.linalg.norm(g) - 1) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 10])
def test_ising_ground_state_solved_in_parity_sector(n):
    # the global flip maps s to d-1-s, so psi[::-1] is X^n psi
    for h in (0.05, 0.3, 1.0, 2.0):
        form = hamiltonians.ising(n, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", states.DegenerateGroundSpaceWarning)
            psi = states.ground_state(form)
        ham = form.dense()
        assert abs(np.vdot(psi, psi[::-1]).real - (-1) ** n) < 1e-12
        energy = np.vdot(psi, ham @ psi).real
        assert abs(energy - np.linalg.eigvalsh(ham)[0]) < 1e-10
        lead = psi[np.argmax(np.abs(psi) > linalg.PHASE_TOL)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_ground_state_warns_on_degenerate_parity_sector():
    # flip-symmetric, and each sector of the identity is itself degenerate
    with pytest.warns(states.DegenerateGroundSpaceWarning):
        states.ground_state(np.eye(4, dtype=complex))


def test_cluster_ground_state_is_the_whole_matrix_solution():
    # the pinning field breaks the flip symmetry, so no sector split happens
    for n, x in itertools.product((6, 8), (-0.2, 0.0, 0.5, 1.0, 1.2)):
        ham = hamiltonians.cluster(n, x)
        want = linalg.herm_eig(ham.dense()).vectors[:, 0]
        assert states.ground_state(ham).tobytes() == want.tobytes()


def _complex_sector_ground_state(ham):
    # the complex reference: both sectors as complex herm_eig, even on a tie
    d = len(ham)
    a = ham[: d // 2, : d // 2]
    bj = ham[: d // 2, d // 2 :][:, ::-1]
    even, odd = linalg.herm_eig(a + bj), linalg.herm_eig(a - bj)
    if even.values[0] < odd.values[0] + states.GAP_TOL:
        sign, x = 1.0, even.vectors[:, 0]
    else:
        sign, x = -1.0, odd.vectors[:, 0]
    return np.concatenate([x, sign * x[::-1]]) / np.sqrt(2.0)


def _record_eig_inputs(monkeypatch):
    seen = []
    solve = linalg.herm_eig

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "herm_eig", recording)
    return seen


def _assert_equal_up_to_phase(psi, want):
    phase = np.vdot(want, psi)
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.abs(psi - want * phase / abs(phase)).max() < 1e-10


def _oracle_hamiltonians():
    # as FlipSum forms; flip and translation: the Ising ring and the cluster
    # ring at eps=0
    for n, h in itertools.product(range(2, 11), (0.05, 0.3, 1.0, 2.0)):
        yield hamiltonians.ising(n, h)
    for n, x in itertools.product(range(3, 9), (0.0, 0.3, 0.7, 1.0, 1.2)):
        yield hamiltonians.cluster(n, x, eps=0.0)
    # translation only: the pinning field breaks the flip, and at n=3 its
    # diagonal sums are exact in every order
    for x in (0.0, 0.3, 0.7, 1.2):
        yield hamiltonians.cluster(3, x)
    # flip only: X on qubit 1 alone breaks the translation
    for n in (3, 4, 6):
        yield hamiltonians.FlipSum.from_dense(
            hamiltonians.ising(n, 0.7).dense()
            + hamiltonians.pauli_sum([hamiltonians.PauliString(n, {1: "X"}, coeff=0.4)]).dense()
        )


def _tiled_width(seen, ham):
    # a complex block of a real matrix stands for its k and n-k blocks
    real = not np.iscomplexobj(ham) or not ham.imag.any()
    return sum(len(a) * (2 if real and np.iscomplexobj(a) else 1) for a in seen)


def test_symmetry_blocks_match_the_whole_solve(monkeypatch):
    seen = _record_eig_inputs(monkeypatch)
    for form in _oracle_hamiltonians():
        ham = form.dense()
        whole = np.linalg.eigh(ham)
        del seen[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", states.DegenerateGroundSpaceWarning)
            psi = states.ground_state(form)
        # the widest n=10 Ising block has 56 rows
        assert len(seen) > 1 and _tiled_width(seen, ham) == len(ham)
        assert max(len(a) for a in seen) <= 64
        assert psi.dtype == np.complex128
        energy = np.vdot(psi, ham @ psi).real
        assert abs(energy - whole.eigenvalues[0]) < 1e-10
        # below GAP_TOL the whole solve does not resolve its own ground vector
        if whole.eigenvalues[1] - whole.eigenvalues[0] >= states.GAP_TOL:
            _assert_equal_up_to_phase(psi, whole.eigenvectors[:, 0])


def _whole_flip_symmetric(h):
    return len(h) % 2 == 0 and np.array_equal(h[::-1, ::-1], h)


def _whole_shift_symmetric(h, n):
    t = h.reshape([2] * (2 * n))
    roll = [*range(1, n), 0]
    return np.array_equal(t.transpose(roll + [n + a for a in roll]), t)


def _symmetries(form):
    # the column checks, asserted to give the whole-matrix forms' booleans
    got = (states._flip_symmetric(form), states._shift_symmetric(form))
    ham = form.dense()
    assert got == (_whole_flip_symmetric(ham), _whole_shift_symmetric(ham, form.n))
    return got


def _edited(form, masks=None, cols=None):
    return hamiltonians.FlipSum(
        form.n, form.masks if masks is None else masks, form.cols if cols is None else cols
    )


def test_symmetry_checks_match_the_whole_matrix_forms():
    # the column checks on every builder's form, and on the same matrix
    # split into all its 2**n columns, give the booleans of the whole-matrix
    # forms
    forms = [hamiltonians.ising(n, h) for n in range(2, 11) for h in (0.05, 0.7)]
    for eps in (0.0, 1e-2):
        forms += [hamiltonians.cluster(n, x, eps) for n in range(3, 9) for x in (0.0, 0.3, 1.0)]
    forms += [hamiltonians.schwinger(n, mu) for n in range(2, 11, 2) for mu in (-0.5, 0.0, 1.0)]
    forms += list(_oracle_hamiltonians())
    seen = set()
    for form in forms:
        got = _symmetries(form)
        assert _symmetries(hamiltonians.FlipSum.from_dense(form.dense())) == got
        seen.add(got)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_symmetry_checks_reject_perturbed_forms():
    n = 4
    form = hamiltonians.ising(n, 0.7)  # masks 0 (the bonds) and one per X_i
    assert _symmetries(form) == (True, True)
    # one entry changed
    cols = form.cols.copy()
    cols[1, 3] += 1e-15
    assert _symmetries(_edited(form, cols=cols)) == (False, False)
    # one mask dropped: its orbit's other masks lose their images under T;
    # the flip keeps every mask, so it still holds
    assert _symmetries(_edited(form, form.masks[:-1], form.cols[:-1])) == (True, False)
    # one mask added whose rotation is missing (0b0011 -> 0b0110): a nonzero
    # column breaks T, an all-zero one does not
    masks = np.append(form.masks, 0b0011)
    for value, want in ((0.25, (True, False)), (0.0, (True, True))):
        cols = np.vstack([form.cols, np.full(2**n, value, dtype=complex)])
        assert _symmetries(_edited(form, masks, cols)) == want
    # a NaN compares unequal to itself
    cols = form.cols.copy()
    cols[0, 0] = np.nan
    assert _symmetries(_edited(form, cols=cols)) == (False, False)
    cols = np.vstack([form.cols, np.zeros(2**n, dtype=complex)])
    cols[-1, 5] = np.nan
    assert _symmetries(_edited(form, masks, cols)) == (False, False)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 10])
def test_ising_real_sector_solve_matches_complex_sector_solve(n, monkeypatch):
    seen = _record_eig_inputs(monkeypatch)
    for h in (0.05, 0.3, 1.0, 2.0):
        form = hamiltonians.ising(n, h)
        del seen[:]
        psi = states.ground_state(form)
        # k = 0..n//2 per flip parity; the k = 0 and k = n/2 blocks have real
        # characters and run real, the others complex
        assert len(seen) == 2 * (n // 2 + 1)
        assert sum(a.dtype == np.float64 for a in seen) == (2 if n % 2 else 4)
        assert psi.dtype == np.complex128
        _assert_equal_up_to_phase(psi, _complex_sector_ground_state(form.dense()))


_ISING_DIGEST = """
import hashlib
from qvarlab import hamiltonians, states
for h in (0.05, 0.3, 0.7, 1.0, 2.0):
    print(hashlib.sha256(states.ground_state(hamiltonians.ising(10, h)).tobytes()).hexdigest())
"""


def test_ising_ring_states_do_not_depend_on_the_blas_thread_count():
    # every n=10 block is at most 64 wide; the thread count is set in the
    # child's environment only, before numpy loads its BLAS
    src = str(Path(states.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _ISING_DIGEST], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.split()
    assert len(digests["1"]) == 5 and digests["1"] == digests["2"]


def test_flip_symmetric_matrix_without_reflection_is_solved_per_sector(monkeypatch):
    # X on qubit 1 alone keeps the flip symmetry but breaks the translation
    n = 6
    terms = [hamiltonians.PauliString(n, {1: "X"}, coeff=0.4)]
    for i in range(1, n + 1):
        terms.append(hamiltonians.PauliString(n, {i: "Z", i % n + 1: "Z"}))
        terms.append(hamiltonians.PauliString(n, {i: "X"}, coeff=0.7))
    form = hamiltonians.pauli_sum(terms)
    ham = form.dense()
    assert np.array_equal(ham[::-1, ::-1], ham)
    seen = _record_eig_inputs(monkeypatch)
    psi = states.ground_state(form)
    assert [len(a) for a in seen] == [2 ** (n - 1)] * 2
    _assert_equal_up_to_phase(psi, _complex_sector_ground_state(ham))


def _translation_matrix(n):
    # T|s> = |s rotated left one bit>, as a real permutation matrix
    s = np.arange(2**n)
    t = np.zeros((2**n, 2**n))
    t[((s << 1) | (s >> (n - 1))) & (2**n - 1), s] = 1.0
    return t


def test_momentum_tie_goes_to_the_even_flip_then_the_lowest_k():
    # a diagonal matrix that is 0 on one orbit of 8 (trivial stabilizer, so
    # the orbit meets every (k, f) block) and 1 elsewhere: every block's lowest
    # energy is 0, the even flip and then k = 0 win, and the level warns
    n = 4
    orbit = [1, 2, 4, 8, 14, 13, 11, 7]
    energies = np.ones(2**n)
    energies[orbit] = 0.0
    with pytest.warns(states.DegenerateGroundSpaceWarning):
        psi = states.ground_state(np.diag(energies))
    want = np.zeros(2**n)
    want[orbit] = 1 / np.sqrt(8)
    assert np.abs(psi - want).max() < 1e-15


def test_ground_state_warns_on_a_plus_minus_k_degenerate_level(monkeypatch):
    # T + T^T at n=3 is 2 cos(2 pi k / 3) on the momentum-k blocks: its lowest
    # level -1 sits in the one-row k=1 block of each flip parity, and only the
    # k=2 twin, which a real matrix does not solve, makes it degenerate
    t = _translation_matrix(3)
    ham = t + t.T
    seen = _record_eig_inputs(monkeypatch)
    with pytest.warns(states.DegenerateGroundSpaceWarning):
        psi = states.ground_state(ham)
    assert sorted(len(a) for a in seen) == [1, 1, 2, 2]
    assert abs(np.vdot(psi, ham @ psi).real + 1.0) < 1e-12
    # the lowest k of the even flip parity: T psi = exp(-2 pi i / 3) psi
    assert np.abs(t @ psi - np.exp(-2j * np.pi / 3) * psi).max() < 1e-12
    assert np.abs(psi - psi[::-1]).max() < 1e-15


def test_nan_matrix_is_not_hermitian():
    # a NaN defect used to pass "defect > tol", and ground_state returned [1, 0]
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        states.ground_state(bad)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.herm_eig(bad)


def test_flip_symmetric_non_hermitian_matrix_raises():
    ham = hamiltonians.ising(4, 0.7).dense()
    d = len(ham)
    t = _translation_matrix(4)
    for bump in (1e-6, 1e-6j):
        bad = ham.copy()
        bad[0, 1] += bump  # in A, and mirrored so the flip symmetry stays
        bad[d - 1, d - 2] += bump
        assert np.array_equal(bad[::-1, ::-1], bad)
        with pytest.raises(ValueError, match="not Hermitian"):
            states.ground_state(bad)
        # bumped at every translation of those entries too, so the matrix keeps
        # both symmetries and a momentum block's check must catch the defect
        for bit in (2, 4, 8):  # 1 rotated by one, two and three places
            bad[0, bit] += bump
            bad[d - 1, d - 1 - bit] += bump
        assert np.array_equal(t @ bad @ t.T, bad) and np.array_equal(bad[::-1, ::-1], bad)
        with pytest.raises(ValueError, match="not Hermitian"):
            states.ground_state(bad)


def test_flip_symmetric_complex_hamiltonian_stays_complex(monkeypatch):
    # Y1 Z2 commutes with X^n (two sign flips) and is purely imaginary
    n = 4
    terms = [hamiltonians.PauliString(n, {1: "Y", 2: "Z"}, coeff=0.3)]
    for i in range(1, n + 1):
        terms.append(hamiltonians.PauliString(n, {i: "Z", i % n + 1: "Z"}))
        terms.append(hamiltonians.PauliString(n, {i: "X"}, coeff=0.7))
    form = hamiltonians.pauli_sum(terms)
    ham = form.dense()
    assert ham.imag.any() and np.array_equal(ham[::-1, ::-1], ham)
    seen = _record_eig_inputs(monkeypatch)
    psi = states.ground_state(form)
    assert [a.dtype for a in seen] == [np.complex128, np.complex128]
    energy = np.vdot(psi, ham @ psi).real
    assert abs(energy - np.linalg.eigvalsh(ham)[0]) < 1e-10
