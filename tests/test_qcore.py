"""States, densities, Pauli strings, channels, Choi matrices, distances."""

import numpy as np
import pytest

from qramsim.boolfn import DataTable
from qramsim.errors import InvariantViolation, SizeCapError
from qramsim.qcore import (
    DensityMatrix,
    PauliString,
    PauliSubset,
    QuantumChannel,
    StateVector,
    apply_channel,
    fidelity_pure,
    match_signed_pauli,
    pauli_matrix,
    pauli_subset,
    plus_state,
    pure_density,
    qram_unitary,
    resource_state,
    subset_size,
    trace_distance,
)

from oracles import (
    choi,
    compose,
    dephasing_channel,
    enumerate_paulis,
    identity_channel,
    measure_computational,
    partial_trace,
    pauli_product,
    principal_eig,
    tensor,
    unitary_channel,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(n, rng):
    d = 1 << n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m))


def test_qram_unitary_cases():
    assert np.array_equal(qram_unitary(DataTable.zero(2)), np.ones(4))
    assert np.array_equal(qram_unitary(DataTable.from_string("01")), [1, -1])
    cz = qram_unitary(DataTable.from_string("0001"))
    assert np.array_equal(cz, [1, 1, 1, -1])


def test_qram_unitary_composition():
    rng = np.random.default_rng(0)
    g = DataTable.random(3, rng)
    h = DataTable.random(3, rng)
    assert np.array_equal(qram_unitary(g) * qram_unitary(h), qram_unitary(g ^ h))


def test_resource_state_cases():
    assert np.allclose(resource_state(DataTable.zero(2)).amplitudes,
                       plus_state(2).amplitudes)
    minus = resource_state(DataTable.from_string("01"))
    assert np.allclose(minus.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_resource_state_overlap_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = DataTable.random(3, rng)
        h = DataTable.random(3, rng)
        overlap = np.vdot(resource_state(g).amplitudes, resource_state(h).amplitudes)
        agree = sum(g.value(x) == h.value(x) for x in range(8))
        assert abs(overlap - (agree - (8 - agree)) / 8) < 1e-12


def test_register_cap():
    with pytest.raises(SizeCapError):
        resource_state(DataTable.zero(7))


def test_pauli_matrix_cases():
    assert np.array_equal(pauli_matrix(PauliString(1, 0, 0, 0)), np.eye(2))
    y = pauli_matrix(PauliString(1, 0, 1, 1))
    assert np.allclose(y, Y)
    z = pauli_matrix(PauliString(1, 0, 1, 0))
    assert np.allclose(z, Z)
    x = pauli_matrix(PauliString(1, 0, 0, 1))
    assert np.allclose(x, X)


def test_pauli_matrix_hermitian_unitary_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        p = PauliString(n, int(rng.integers(2)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        m = pauli_matrix(p)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(1 << n))


def test_pauli_product_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        p = PauliString(n, int(rng.integers(2)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        q = PauliString(n, int(rng.integers(2)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        r, extra = pauli_product(p, q)
        assert np.allclose(pauli_matrix(p) @ pauli_matrix(q),
                           extra * pauli_matrix(r))


def test_pauli_subset_classification():
    assert pauli_subset(PauliString(1, 0, 0, 0)) is PauliSubset.IDENTITY
    assert pauli_subset(PauliString(1, 1, 0, 0)) is PauliSubset.MINUS_IDENTITY
    assert pauli_subset(PauliString(1, 0, 1, 0)) is PauliSubset.Z_TYPE
    assert pauli_subset(PauliString(1, 1, 1, 0)) is PauliSubset.Z_TYPE
    assert pauli_subset(PauliString(1, 0, 0, 1)) is PauliSubset.EVEN
    assert pauli_subset(PauliString(1, 0, 1, 1)) is PauliSubset.ODD


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_subset_sizes_partition(n):
    counts = {kind: 0 for kind in PauliSubset}
    for p in enumerate_paulis(n):
        counts[pauli_subset(p)] += 1
    assert sum(counts.values()) == 1 << (2 * n + 1)
    for kind in PauliSubset:
        assert counts[kind] == subset_size(kind, n)


def test_match_signed_pauli():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        p = PauliString(n, int(rng.integers(2)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        assert match_signed_pauli(pauli_matrix(p)) == p
    # a non-Pauli unitary does not match
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert match_signed_pauli(had) is None
    assert match_signed_pauli(1j * X) is None


def test_channel_identity_and_tp_check():
    rng = np.random.default_rng(5)
    rho = random_density(2, rng)
    assert trace_distance(apply_channel(identity_channel(2), rho), rho) < 1e-12
    with pytest.raises(InvariantViolation):
        QuantumChannel(1, 1, (np.eye(2) * 0.5,))
    with pytest.raises(InvariantViolation):
        QuantumChannel(1, 1, (np.diag([1.0, np.nan]),))


def test_state_vector_norm_check():
    for amps in ([1.0, 1.0], [np.nan, 1.0]):
        with pytest.raises(InvariantViolation):
            StateVector(1, np.array(amps))


def test_density_invariants():
    with pytest.raises(InvariantViolation):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(InvariantViolation):
        DensityMatrix(1, np.array([[0.8, 0], [0, 0.8]]))
    with pytest.raises(InvariantViolation):
        DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))
    # the PSD threshold is PSD_TOL = -1e-8 on the smallest eigenvalue, in
    # any basis
    u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for low, ok in ((-2e-8, False), (-5e-9, True)):
        mat = u @ np.diag([1 - low, low]) @ u.T
        if ok:
            DensityMatrix(1, mat)
        else:
            with pytest.raises(InvariantViolation):
                DensityMatrix(1, mat)
    for entry in ((0, 0), (0, 1)):
        mat = np.eye(2) / 2
        mat[entry] = np.nan
        with pytest.raises(InvariantViolation):
            DensityMatrix(1, mat)


def test_tensor_and_partial_trace_round_trip():
    rng = np.random.default_rng(6)
    a = random_density(1, rng)
    b = random_density(2, rng)
    joint = tensor(a, b)
    assert joint.num_qubits == 3
    assert trace_distance(partial_trace(joint, [0]), a) < 1e-12
    assert trace_distance(partial_trace(joint, [1, 2]), b) < 1e-12


def test_partial_trace_of_pure_product():
    psi = tensor(plus_state(1), StateVector(1, np.array([1, 0], dtype=complex)))
    rho = pure_density(psi)
    reduced = partial_trace(rho, [0])
    assert trace_distance(reduced, pure_density(plus_state(1))) < 1e-12


def test_measure_probabilities_and_dephasing_equivalence():
    rng = np.random.default_rng(7)
    rho = random_density(3, rng)
    outcomes = measure_computational(rho, [0, 2])
    probs = [p for _, p, _ in outcomes]
    assert abs(sum(probs) - 1.0) < 1e-9
    mix = np.zeros_like(rho.matrix)
    for _, p, post in outcomes:
        if post is not None:
            mix += p * post.matrix
    dephased = apply_channel(dephasing_channel(3, [0, 2]), rho)
    assert np.abs(mix - dephased.matrix).max() < 1e-10


def test_choi_of_identity_and_unitary():
    c = choi(identity_channel(1))
    omega = np.zeros((4, 4), dtype=complex)
    # maximally entangled pair with reference on the low qubit
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = 1 / np.sqrt(2)
    omega = np.outer(v, v.conj())
    assert np.abs(c - omega).max() < 1e-12


def random_channel(n, rng, k=3):
    d = 1 << n
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    iso = q[:, :d]
    return QuantumChannel(n, n, tuple(iso[i * d:(i + 1) * d, :] for i in range(k)))


def test_choi_composition_consistency():
    rng = np.random.default_rng(8)
    for _ in range(5):
        u1 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        u2 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        ch = compose(unitary_channel(u2), unitary_channel(u1))
        direct = unitary_channel(u2 @ u1)
        assert np.abs(choi(ch) - choi(direct)).max() < 1e-12
    # general Kraus channels: the Choi of a composition equals applying the
    # composition to the entangled pair directly
    for n in (1, 2):
        for _ in range(5):
            a = random_channel(n, rng)
            b = random_channel(n, rng)
            composed = compose(b, a)
            d = 1 << n
            v = np.zeros(d * d, dtype=complex)
            v[np.arange(d) * (d + 1)] = 1 / np.sqrt(d)
            omega = np.outer(v, v.conj())
            direct = omega.copy()
            for ch in (a, b):
                acc = np.zeros_like(direct)
                for kk in ch.kraus:
                    full = np.kron(kk, np.eye(d))
                    acc += full @ direct @ full.conj().T
                direct = acc
            assert np.abs(choi(composed) - direct).max() < 1e-12


def test_trace_distance_properties():
    rng = np.random.default_rng(9)
    a = random_density(2, rng)
    b = random_density(2, rng)
    assert trace_distance(a, a) == 0
    d1, d2 = trace_distance(a, b), trace_distance(b, a)
    assert abs(d1 - d2) < 1e-12
    assert 0 <= d1 <= 1


def test_fidelity_pure_of_resource_state():
    g = DataTable.from_string("0110")
    psi = resource_state(g)
    assert abs(fidelity_pure(pure_density(psi), psi) - 1.0) < 1e-12


def test_principal_eig():
    rng = np.random.default_rng(10)
    rho = random_density(2, rng)
    val, vec = principal_eig(rho)
    assert np.abs(rho.matrix @ vec - val * vec).max() < 1e-9
    assert val == pytest.approx(rho.eigenvalues()[-1])
