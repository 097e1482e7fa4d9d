import numpy as np
import pytest

from qvarlab import circuits as qc
from qvarlab import hamiltonians as ham
from qvarlab.linalg import herm_fn, kron

X = ham.PAULI["X"]
Y = ham.PAULI["Y"]
Z = ham.PAULI["Z"]
I2 = ham.PAULI["I"]


def _gate(name, qubits, slots):
    return qc.Gate(name, tuple(qubits), tuple(slots))


def test_single_qubit_rotations_full_angle():
    th = 0.37
    got = qc.gate_matrix(_gate("rx", (1,), (0,)), np.array([th]))
    want = np.cos(th) * I2 - 1j * np.sin(th) * X
    assert np.allclose(got, want, atol=1e-15)
    got = qc.gate_matrix(_gate("rz", (1,), (0,)), np.array([th]))
    assert np.allclose(got, np.diag([np.exp(-1j * th), np.exp(1j * th)]), atol=1e-15)


def test_two_qubit_rotations_match_expm():
    th = -0.81
    for name, gen in (("rzz", kron(Z, Z)), ("rxx", kron(X, X)), ("ryy", kron(Y, Y))):
        got = qc.gate_matrix(_gate(name, (1, 2), (0,)), np.array([th]))
        want = herm_fn(gen, lambda w: np.exp(-1j * th * w))
        assert np.allclose(got, want, atol=1e-14), name


def test_u3_is_zyz_half_angle_product():
    th, ph, lm = 0.9, -1.3, 2.1

    def rz(a):
        return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])

    def ry(a):
        c, s = np.cos(a / 2), np.sin(a / 2)
        return np.array([[c, -s], [s, c]])

    got = qc.gate_matrix(_gate("u3", (1,), (0, 1, 2)), np.array([th, ph, lm]))
    assert np.allclose(got, rz(ph) @ ry(th) @ rz(lm), atol=1e-14)


def test_cu3_controls_on_first_qubit():
    params = np.array([0.4, 0.2, -0.5])
    got = qc.gate_matrix(_gate("cu3", (1, 2), (0, 1, 2)), params)
    u = qc.gate_matrix(_gate("u3", (1,), (0, 1, 2)), params)
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = np.eye(2)
    want[2:, 2:] = u
    assert np.allclose(got, want, atol=1e-14)


def test_sum_gate_matches_dense_exponential():
    th = 0.61
    for name in ("sumx", "sumz", "sumzxz"):
        c = qc.make_circuit(3, [_gate(name, (), (0,))], 1)
        got = qc.unitary(c, np.array([th]))
        if name == "sumx":
            gen = sum(ham.pauli_matrix(ham.PauliString(3, {q: "X"})) for q in (1, 2, 3))
        elif name == "sumz":
            gen = sum(ham.pauli_matrix(ham.PauliString(3, {q: "Z"})) for q in (1, 2, 3))
        else:
            gen = sum(
                ham.pauli_matrix(
                    ham.PauliString(3, {i: "Z", i % 3 + 1: "X", (i % 3 + 1) % 3 + 1: "Z"})
                )
                for i in (1, 2, 3)
            )
        want = herm_fn(gen, lambda w: np.exp(-1j * th * w))
        assert np.allclose(got, want, atol=1e-13), name


def test_gate_placement_msb_convention():
    # qubit 1 is the most significant bit: a gate there acts on the left factor
    th = 0.5
    c1 = qc.make_circuit(2, [_gate("rx", (1,), (0,))], 1)
    c2 = qc.make_circuit(2, [_gate("rx", (2,), (0,))], 1)
    rx = np.cos(th) * I2 - 1j * np.sin(th) * X
    assert np.allclose(qc.unitary(c1, np.array([th])), kron(rx, I2), atol=1e-14)
    assert np.allclose(qc.unitary(c2, np.array([th])), kron(I2, rx), atol=1e-14)


def test_first_gate_applied_first():
    thetas = np.array([0.3, 1.1])
    c = qc.make_circuit(1, [_gate("rx", (1,), (0,)), _gate("rz", (1,), (1,))], 2)
    rx = np.cos(0.3) * I2 - 1j * np.sin(0.3) * X
    rz = np.diag([np.exp(-1.1j), np.exp(1.1j)])
    assert np.allclose(qc.unitary(c, thetas), rz @ rx, atol=1e-14)


def test_unordered_pair_targets():
    # (2,1) ordering swaps the tensor legs relative to (1,2)
    params = np.array([0.4, 0.2, -0.5])
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    c12 = qc.make_circuit(2, [_gate("cu3", (1, 2), (0, 1, 2))], 3)
    c21 = qc.make_circuit(2, [_gate("cu3", (2, 1), (0, 1, 2))], 3)
    u12 = qc.unitary(c12, params)
    u21 = qc.unitary(c21, params)
    assert np.allclose(u21, swap @ u12 @ swap, atol=1e-14)


def test_apply_circuit_matches_unitary():
    rng = np.random.default_rng(17)
    c = qc.hea(3, 2)
    th = rng.uniform(0, 2 * np.pi, c.param_count)
    u = qc.unitary(c, th)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    assert np.allclose(qc.apply_circuit(c, th, psi), u @ psi, atol=1e-12)
    batch = np.stack([psi, u[:, 0]])
    out = qc.apply_circuit(c, th, batch)
    assert np.allclose(out[0], u @ psi, atol=1e-12)
    assert np.allclose(out[1], u @ u[:, 0], atol=1e-12)


def test_apply_circuit_resume_and_trace():
    rng = np.random.default_rng(19)
    c = qc.hea(2, 2)
    th = rng.uniform(0, 2 * np.pi, c.param_count)
    batch = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    trace = qc.apply_circuit_trace(c, th, batch)
    assert len(trace) == len(c.gates) + 1
    assert np.array_equal(trace[0], batch)
    full = qc.apply_circuit(c, th, batch)
    assert np.array_equal(trace[-1], full)
    for k in (0, 3, len(c.gates)):
        resumed = qc.apply_circuit(c, th, trace[k], start=k)
        assert np.array_equal(resumed, full)


def test_apply_circuit_accepts_empty_batch():
    # a white-noise state has no pure rows, so its batch is (0, 2**n)
    c = qc.hea(3, 1)
    th = np.zeros(c.param_count)
    empty = np.zeros((0, 8), dtype=complex)
    assert qc.apply_circuit(c, th, empty).shape == (0, 8)
    assert qc.apply_circuit(c, th, empty, start=2).shape == (0, 8)
    trace = qc.apply_circuit_trace(c, th, empty)
    assert all(s.shape == (0, 8) for s in trace)


def test_circuit_validation_errors():
    with pytest.raises(ValueError):
        qc.make_circuit(2, [_gate("rx", (3,), (0,))], 1)
    with pytest.raises(ValueError):
        qc.make_circuit(2, [_gate("rx", (1,), (5,))], 1)
    with pytest.raises(ValueError):
        qc.make_circuit(2, [_gate("rzz", (1, 1), (0,))], 1)
    with pytest.raises(ValueError):
        qc.make_circuit(2, [_gate("nope", (1,), (0,))], 1)


def test_hea_structure():
    c = qc.hea(3, 2)
    assert c.param_count == 2 * (3 * 3 - 1)
    # entangler first, rotations after, rx last so the readout axis is free
    names = [g.name for g in c.gates[: 2 + 3 + 3]]
    assert names == ["rzz"] * 2 + ["rz"] * 3 + ["rx"] * 3
    assert [g.qubits for g in c.gates[:2]] == [(1, 2), (2, 3)]
    # every slot is used exactly once in the HEA
    used = [s for g in c.gates for s in g.slots]
    assert sorted(used) == list(range(c.param_count))


def test_qcnn_structure():
    c = qc.qcnn(8)
    assert c.param_count == 54  # 18 shared slots per halving level
    assert c.n == 8
    last = c.gates[-1]
    assert last.name == "cu3"
    assert last.qubits == (4, 8)  # control low, survivor high: readout end
    c4 = qc.qcnn(4)
    assert c4.param_count == 36
    pool_targets = [g.qubits for g in c4.gates if g.name == "cu3"]
    assert pool_targets == [(1, 2), (3, 4), (2, 4)]


def test_qcnn_shared_slots_within_level():
    c = qc.qcnn(4)
    level1_convs = [g for g in c.gates if g.name == "u3"][:8]
    # convolution blocks on different pairs reuse the same parameter slots;
    # each block holds four u3 gates, so blocks start at multiples of four
    assert level1_convs[0].slots == level1_convs[4].slots
    assert level1_convs[0].qubits != level1_convs[4].qubits


def test_hva_structure():
    c = qc.hva_cluster(4, 3)
    assert c.param_count == 9
    assert [g.name for g in c.gates[:3]] == ["sumx", "sumz", "sumzxz"]


def test_circuit_text_roundtrip():
    for c in (qc.hea(3, 2), qc.qcnn(4), qc.hva_cluster(4, 2)):
        text = qc.circuit_to_text(c)
        back = qc.circuit_from_text(text)
        assert back == c


def test_circuit_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        qc.circuit_from_text("not a circuit header\n")
    good = qc.circuit_to_text(qc.hea(2, 1))
    with pytest.raises(ValueError):
        qc.circuit_from_text(good.replace("rx", "zz"))
