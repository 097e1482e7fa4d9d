import numpy as np
import pytest

from qvarlab import hamiltonians as ham
from qvarlab.linalg import kron

from oracles import pauli_matrix, pauli_sum_dense

X = ham.PAULI["X"]
Y = ham.PAULI["Y"]
Z = ham.PAULI["Z"]
I2 = ham.PAULI["I"]


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        ham.PauliString(2, {3: "X"})
    with pytest.raises(ValueError):
        ham.PauliString(2, {1: "Q"})
    ps = ham.PauliString(3, {2: "Y", 1: "X"}, coeff=0.5)
    assert ps.letters == ((1, "X"), (2, "Y"))


def test_pauli_matrix_placement():
    got = pauli_matrix(ham.PauliString(3, {2: "Z"}, coeff=2.0))
    assert np.array_equal(got, 2.0 * kron(I2, Z, I2))
    got2 = pauli_matrix(ham.PauliString(2, {1: "X", 2: "Y"}))
    assert np.array_equal(got2, kron(X, Y))


def test_pauli_sum_register_mismatch():
    with pytest.raises(ValueError):
        ham.pauli_sum([ham.PauliString(2, {1: "X"}), ham.PauliString(3, {1: "X"})])
    with pytest.raises(ValueError):
        ham.pauli_sum([])


def test_ising_small_matrices():
    # n=2 ring doubles the single bond
    got = ham.ising(2, 0.7).dense()
    want = 2 * kron(Z, Z) + 0.7 * (kron(X, I2) + kron(I2, X))
    assert np.allclose(got, want, atol=1e-14)


def test_ising_ground_energies():
    # frustrated 3-ring at h=0: best spin assignment leaves one unhappy bond
    w = np.linalg.eigvalsh(ham.ising(3, 0.0).dense())
    assert abs(w[0] - (-1.0)) < 1e-12
    # strong transverse field: E0 -> -n h with O(1/h) corrections
    e0 = np.linalg.eigvalsh(ham.ising(3, 50.0).dense())[0]
    assert abs(e0 / 50.0 + 3.0) < 0.01


def test_ising_hermitian_real():
    h = ham.ising(4, 0.3).dense()
    assert np.abs(h - h.conj().T).max() < 1e-14
    assert np.abs(h.imag).max() < 1e-14


def test_schwinger_reduces_to_longitudinal_field_form():
    # the nested field sum collapses to a linear longitudinal profile; check
    # the n=2 case against a hand-expanded form
    mu, w, g = 0.43, 1.2, 0.8
    got = ham.schwinger(2, mu, w=w, g=g).dense()
    hop = w * (kron(X, X) + kron(Y, Y))
    mass = (mu / 2.0) * (-kron(Z, I2) + kron(I2, Z))
    field = g * (-kron(Z, I2) - 0.5 * kron(I2, Z) - 0.5 * np.eye(4))
    assert np.allclose(got, hop + mass + field, atol=1e-13)


def test_schwinger_validation_and_gap():
    with pytest.raises(ValueError):
        ham.schwinger(3, 0.0)
    with pytest.raises(ValueError):
        ham.schwinger(0, 0.0)
    w = np.linalg.eigvalsh(ham.schwinger(4, -0.7).dense())
    assert w[1] - w[0] > 1e-3  # smooth ground family across the mu window


def test_cluster_limits():
    # x=1: pure transverse field plus the small pinning term
    h1 = ham.cluster(4, 1.0, eps=0.0).dense()
    want = -sum(
        pauli_matrix(ham.PauliString(4, {i: "X"})) for i in range(1, 5)
    )
    assert np.allclose(h1, want, atol=1e-13)
    e0 = np.linalg.eigvalsh(ham.cluster(4, 1.0).dense())[0]
    assert abs(e0 - (-4.0)) < 1e-3  # eps=1e-2 moves it only at second order
    # x=0: stabilizer terms dominate, energy -n at eps=0
    e0 = np.linalg.eigvalsh(ham.cluster(4, 0.0, eps=0.0).dense())[0]
    assert abs(e0 - (-4.0)) < 1e-12


def test_cluster_validation():
    with pytest.raises(ValueError):
        ham.cluster(2, 0.5)


def test_pauli_sum_bitwise_matches_dense_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        strings = []
        for _ in range(8):
            qubits = rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, n + 1)), replace=False)
            letters = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
            strings.append(ham.PauliString(n, letters, coeff=float(rng.normal())))
        want = np.zeros((2**n, 2**n), dtype=complex)
        for ps in strings:
            want += pauli_matrix(ps)
        assert np.array_equal(ham.pauli_sum(strings).dense(), want)


BUILDS = (
    [(ham.ising, (n, 0.7)) for n in range(2, 11)]
    + [(ham.cluster, (n, 0.3, eps)) for eps in (0.0, 1e-2) for n in range(3, 9)]
    + [(ham.schwinger, (n, 0.43)) for n in range(2, 11, 2)]
)


@pytest.mark.parametrize(
    "build, args", BUILDS, ids=[f"{b.__name__}{a}".replace(" ", "") for b, a in BUILDS]
)
def test_builder_forms_are_the_dense_sums_bit_for_bit(monkeypatch, build, args):
    # the term list each builder hands to pauli_sum, summed by the dense
    # loop and by Kronecker products
    seen = []
    pauli_sum = ham.pauli_sum
    monkeypatch.setattr(ham, "pauli_sum", lambda terms: seen.append(terms) or pauli_sum(terms))
    got = build(*args).dense()
    (terms,) = seen
    assert got.tobytes() == pauli_sum_dense(terms).tobytes()
    want = np.zeros_like(got)
    for ps in terms:
        want += pauli_matrix(ps)
    assert got.tobytes() == want.tobytes()


def test_flip_sum_from_dense_round_trips_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in range(0, 6):
        d = 2**n
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h[0, -1] = complex(-0.0, np.nan)
        form = ham.FlipSum.from_dense(h)
        assert form.cols.shape == (d, d)
        assert form.dense().tobytes() == h.tobytes()
    with pytest.raises(ValueError, match="2\\*\\*n"):
        ham.FlipSum.from_dense(np.eye(6))


def _schwinger_nested_reference(n, mu, w, g):
    # the docstring's formula term by term, with dense Pauli matrices
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    for j in range(1, n):
        out += w * pauli_matrix(ham.PauliString(n, {j: "X", j + 1: "X"}))
        out += w * pauli_matrix(ham.PauliString(n, {j: "Y", j + 1: "Y"}))
    for j in range(1, n + 1):
        out += (mu / 2.0) * (-1) ** j * pauli_matrix(ham.PauliString(n, {j: "Z"}))
    eye = np.eye(d, dtype=complex)
    for j in range(1, n + 1):
        field = np.zeros((d, d), dtype=complex)
        for l in range(1, j + 1):
            field -= 0.5 * (pauli_matrix(ham.PauliString(n, {l: "Z"})) + (-1) ** j * eye)
        out += g * field
    return out


@pytest.mark.parametrize("n", [2, 4, 6])
def test_schwinger_matches_nested_field_formula(n):
    for mu, w, g in ((-2.2, 1.0, 1.0), (0.43, 1.2, 0.8), (1.2, 0.7, 1.3)):
        got = ham.schwinger(n, mu, w=w, g=g).dense()
        assert np.abs(got - _schwinger_nested_reference(n, mu, w, g)).max() < 1e-12
