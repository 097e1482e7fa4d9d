import itertools
import tracemalloc

import numpy as np
import pytest

from qvarlab import circuits as qc
from qvarlab import hamiltonians as ham
from qvarlab.linalg import kron

from oracles import herm_fn, pauli_matrix

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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sum_gate_matches_dense_exponential(n):
    th = 0.61
    ring = range(1, n + 1)
    strings = {
        "sumx": [{q: "X"} for q in ring],
        "sumz": [{q: "Z"} for q in ring],
        "sumzxz": [{i: "Z", i % n + 1: "X", (i + 1) % n + 1: "Z"} for i in ring],
    }
    for name, terms in strings.items():
        c = qc.make_circuit(n, [_gate(name, (), (0,))], 1)
        got = qc.unitary(c, np.array([th]))
        gen = sum(pauli_matrix(ham.PauliString(n, t)) for t in terms)
        want = herm_fn(gen, lambda w: np.exp(-1j * th * w))
        assert np.allclose(got, want, atol=1e-13), name


def test_sum_gate_rejects_register_narrower_than_its_string():
    # on two qubits the ring positions of Z X Z repeat a site
    with pytest.raises(ValueError, match="needs at least 3 qubits"):
        qc.make_circuit(2, [_gate("sumzxz", (), (0,))], 1)
    qc.make_circuit(1, [_gate("sumx", (), (0,))], 1)


def test_sum_gate_needs_no_dense_generator():
    # the per-position rule and the sum Z phase touch only the batch, 8x8
    # local matrices and 2^n-long sign rows; a dense 2^n x 2^n generator at
    # n=10 alone is 16 MB
    c = qc.hva_cluster(10, 1)
    th = np.array([0.3, -0.7, 1.1])
    psi = np.zeros(2**10, dtype=complex)
    psi[5] = 1.0
    tracemalloc.start()
    try:
        qc.apply_circuit(c, th, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


@pytest.mark.parametrize(
    "circuit",
    [qc.hea(10, 2), qc.qcnn(8), qc.hva_cluster(6, 2), qc.hea(1, 1)],
    ids=["hea10", "qcnn8", "hva6", "hea1"],
)
def test_unitary_row_blocks_are_bitwise_one_batch(circuit):
    # n=10 evolves the identity in 16 blocks of 64 rows, n <= 8 in one block
    th = np.random.default_rng(circuit.n).uniform(0, 2 * np.pi, circuit.param_count)
    d = 2**circuit.n
    want = qc.apply_circuit(circuit, th, np.eye(d, dtype=complex)).T
    assert qc.unitary(circuit, th).tobytes() == want.tobytes()


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


def _tensordot_reference(batch, mat, qubits):
    if len(qubits) == 1:
        ax = qubits[0]
        return np.moveaxis(np.tensordot(batch, mat, axes=([ax], [1])), -1, ax)
    a, b = qubits
    out = np.tensordot(batch, mat.reshape(2, 2, 2, 2), axes=([a, b], [2, 3]))
    return np.moveaxis(out, (-2, -1), (a, b))


@pytest.mark.parametrize("n", [*range(1, 7), 10])
def test_apply_local_bitwise_matches_tensordot(n):
    # the kernel calls np.matmul and must give the bits of the zgemm that
    # tensordot makes through np.dot, at any BLAS thread count; einsum rounds
    # differently. n=10 with 64 rows is a blocked unitary's 1 MB row block,
    # the shape at which OpenBLAS splits matmul's product over its threads
    # and not dot's: 1- and 2-qubit gates on the first, a middle and the last
    # qubit
    rng = np.random.default_rng(n)
    local = {name: kind for name, kind in qc.GATES.items() if 0 < kind.targets <= n}
    sites, sizes = (range(1, n + 1), (1, 3)) if n <= 6 else ((1, n // 2, n), (64,))
    for name, kind in local.items():
        for qubits in itertools.permutations(sites, kind.targets):
            gate = _gate(name, qubits, range(kind.slots))
            mat = qc.gate_matrix(gate, rng.uniform(0, 2 * np.pi, 3))
            for nb in sizes:
                shape = (nb,) + (2,) * n
                raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                # gate outputs are transposed views, so check one as input too
                for batch in (raw, raw.transpose((0,) + tuple(range(n, 0, -1)))):
                    got = qc._apply_local(batch, mat, qubits)
                    assert np.array_equal(got, _tensordot_reference(batch, mat, qubits))


@pytest.mark.parametrize("circuit", [qc.hea(3, 2), qc.qcnn(4), qc.hva_cluster(4, 2)])
def test_apply_circuit_with_precomputed_matrices_is_bitwise_equal(circuit):
    rng = np.random.default_rng(23)
    th = rng.uniform(0, 2 * np.pi, circuit.param_count)
    d = 2**circuit.n
    batch = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    # one operator per step: a gate's local matrix or a run's phase table
    ops = [qc.step_operator(circuit, i, th) for i in range(len(circuit.steps))]
    for (lo, _, _, signs, shape), op in zip(circuit.steps, ops):
        k = 2 ** len(qc._positions(circuit.gates[lo], circuit.n)[0])
        assert op.shape == ((k, k) if signs is None else tuple(shape))
    full = qc.apply_circuit(circuit, th, batch)
    assert qc.apply_circuit(circuit, th, batch, ops=ops).tobytes() == full.tobytes()
    trace = qc.apply_circuit_trace(circuit, th, batch, ops=ops)
    assert trace[-1].tobytes() == full.tobytes()
    for k in range(len(circuit.gates) + 1):
        resumed = qc.apply_circuit(circuit, th, trace[k], start=k, ops=ops)
        assert resumed.tobytes() == full.tobytes(), k


def _per_gate_reference(circuit, theta, batch):
    """The unfused kernel: every gate through _apply_gate, in list order."""
    tensor = batch.reshape([len(batch)] + [2] * circuit.n)
    for g in circuit.gates:
        tensor = qc._apply_gate(tensor, g, theta, circuit.n)
    return tensor.reshape(len(batch), 2**circuit.n)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 10])
def test_diagonal_runs_match_per_gate_kernel(n):
    # every Z-only gate is in a run, a lone one too (qcnn's rzz, the rz of
    # hea(1, L)); its elementwise product rounds apart from the zgemm
    rng = np.random.default_rng(n)
    for c in (qc.hea(n, 2), qc.qcnn(n), qc.hva_cluster(n, 2), qc.hea(1, n)):
        for lo, hi, _, signs, _ in c.steps:
            z_only = any(g.name in qc._DIAGONAL for g in c.gates[lo:hi])
            assert z_only == (signs is not None)
        d = 2**c.n
        th = rng.uniform(0, 2 * np.pi, c.param_count)
        batch = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        got = qc.apply_circuit(c, th, batch)
        assert np.max(np.abs(got - _per_gate_reference(c, th, batch))) < 1e-13
        want = _per_gate_reference(c, th, np.eye(d, dtype=complex)).T
        assert np.max(np.abs(qc.unitary(c, th) - want)) < 1e-13


@pytest.mark.parametrize("circuit", [qc.hea(3, 2), qc.hva_cluster(4, 2), qc.qcnn(4)])
def test_resume_from_every_trace_entry_is_bitwise_full(circuit):
    rng = np.random.default_rng(31)
    th = rng.uniform(0, 2 * np.pi, circuit.param_count)
    d = 2**circuit.n
    batch = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    full = qc.apply_circuit(circuit, th, batch)
    trace = qc.apply_circuit_trace(circuit, th, batch)
    for k in range(len(circuit.gates) + 1):
        resumed = qc.apply_circuit(circuit, th, trace[k], start=k)
        assert resumed.tobytes() == full.tobytes(), k


def test_trace_entries_inside_a_run_are_one_array():
    c = qc.hea(3, 2)
    runs = [(lo, hi) for lo, hi, _, signs, _ in c.steps if signs is not None]
    # each layer's two rzz and three rz, then its three rx one by one
    assert runs == [(0, 5), (8, 13)]
    rng = np.random.default_rng(37)
    batch = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    trace = qc.apply_circuit_trace(c, rng.uniform(0, 2 * np.pi, c.param_count), batch)
    for lo, hi in runs:
        assert all(trace[k] is trace[lo] for k in range(lo, hi))
        assert trace[hi] is not trace[lo]


def test_apply_circuit_and_trace_reject_wrong_theta_length():
    c = qc.hea(2, 1)
    batch = np.eye(4, dtype=complex)
    for theta in (np.zeros(c.param_count - 1), np.zeros(c.param_count + 1)):
        with pytest.raises(ValueError, match="theta must have length"):
            qc.apply_circuit(c, theta, batch)
        with pytest.raises(ValueError, match="theta must have length"):
            qc.apply_circuit_trace(c, theta, batch)


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
