"""Twirl set sampling, dataset transformation, Pauli conjugation, averaging."""

import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qramsim.boolfn import CLASSICAL_N_CAP, DataTable, parity
from qramsim.device import (
    DeadRouterNoise,
    DephasingNoise,
    DepolarizingNoise,
    EncodingNoise,
    NoisyDevice,
    PresetNoise,
    coherent_rotation_device,
    custom_kraus_device,
    dead_router_device,
    dead_router_fidelity,
    dephasing_device,
    global_depolarizing_device,
    noiseless_device,
    noisy_resource_state,
    pauli_channel,
    pauli_floor,
)
from qramsim.errors import DimensionMismatchError, PreconditionError, SizeCapError
from qramsim import device, qcore, twirlset
from qramsim.qcore import (
    PauliString,
    fidelity_pure,
    pauli_matrix,
    pauli_subset,
    plus_state,
    pure_density,
    qram_unitary,
    resource_state,
    subset_size,
)
from qramsim.rngutil import derive_rng
from qramsim.twirlset import (
    TwirlElement,
    all_gl_matrices,
    conjugate_pauli,
    enumerate_twirls,
    exact_twirl_coefficients,
    sample_twirl,
    twirl_dataset,
    twirl_set_size,
    twirled_state,
)

from oracles import (
    Gate,
    clifford_gate_list,
    clifford_matrix,
    encoding_channel,
    identity_twirl,
    oracle_draw_twirl,
)

# chi-square critical values at p = 0.001
CHI2_CRIT = {5: 20.515, 13: 34.528}


# ---------------------------------------------------------------------------
# Dense uint8 GF(2) matrix algebra: the oracle for the packed-row forms.

def gf2_rank(mat: np.ndarray) -> int:
    m = (np.array(mat, dtype=np.uint8) & 1).copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivots = np.flatnonzero(m[rank:, c]) + rank
        if len(pivots) == 0:
            continue
        p = pivots[0]
        m[[rank, p]] = m[[p, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_inverse(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([(np.array(mat, dtype=np.uint8) & 1), np.eye(n, dtype=np.uint8)], axis=1)
    for c in range(n):
        pivots = np.flatnonzero(aug[c:, c]) + c
        if len(pivots) == 0:
            raise DimensionMismatchError("matrix is singular over GF(2)")
        p = pivots[0]
        aug[[c, p]] = aug[[p, c]]
        for r in range(n):
            if r != c and aug[r, c]:
                aug[r] ^= aug[c]
    return aug[:, n:].copy()


def unpack(rows, n):
    """The uint8 n x n matrix with packed rows: M[i, j] is bit j of rows[i]."""
    return ((np.array(rows, dtype=np.int64)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def bits(x, n):
    return (x >> np.arange(n)) & 1


def pack(vec):
    return int(np.asarray(vec, dtype=np.int64) @ (1 << np.arange(len(vec))))


def test_gf2_rank_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        c = sample_twirl(n, rng)
        a = unpack(c.A, n)
        inv = gf2_inverse(a)
        assert np.array_equal((a @ inv) % 2, np.eye(n, dtype=np.uint8))
        assert [pack(inv @ bits(x, n) % 2) for x in range(1 << n)] == c.a_inverse.tolist()
    singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    assert gf2_rank(singular) == 1


# The dense-oracle property tests skip hypothesis's shrink phase: each
# candidate re-runs the oracle, so shrinking a failure took minutes.
@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_packed_rows_match_dense_matrices(n, seed):
    # every packed-row formula against the same formula in uint8 matrices
    rng = np.random.default_rng(seed)
    c = sample_twirl(n, rng)
    a, b = unpack(c.A, n), unpack(c.B, n)
    a_inv = gf2_inverse(a)
    assert gf2_rank(a) == n and not np.tril(b).any()
    xb = [bits(x, n) for x in range(1 << n)]
    assert c.forward.tolist() == [pack(a @ xv % 2) for xv in xb]
    assert c.a_inverse.tolist() == [pack(a_inv @ xv % 2) for xv in xb]

    g = DataTable.random(n, rng)
    v = bits(c.v, n)
    expect = [g.value(pack(a @ xv % 2) ^ c.u) ^ int(xv @ v + xv @ b @ xv) % 2 for xv in xb]
    assert twirl_dataset(g, c) == DataTable.from_array(expect)

    dense = np.zeros((1 << n, 1 << n))
    for x in range(1 << n):
        y = a_inv @ bits(x ^ c.u, n) % 2
        dense[pack(y), x] = (-1) ** int(y @ b @ y + y @ v)
    assert np.array_equal(clifford_matrix(c), dense)

    for _ in range(8):
        p = PauliString(n, int(rng.integers(2)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        bp = a_inv @ bits(p.b, n) % 2
        ap = (a.T @ bits(p.a, n) + (b + b.T) @ bp) % 2
        sign = (p.s + (p.a & c.u).bit_count() + int(bp @ b @ bp) + int(bp @ v)) % 2
        assert conjugate_pauli(c, p) == PauliString(n, sign, pack(ap), pack(bp))


def test_sample_twirl_n1_structure():
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(200):
        c = sample_twirl(1, rng)
        assert c.A == (1,)
        seen.add((c.u, c.v))
    assert seen == {(u, v) for u in (0, 1) for v in (0, 1)}


def test_sample_twirl_gl2_uniform_chisquare():
    rng = np.random.default_rng(2)
    keys = dict.fromkeys(all_gl_matrices(2), 0)
    assert len(keys) == 6
    trials = 100_000
    for a in twirlset._draw_twirls(2, trials, rng)[0].tolist():
        keys[tuple(a)] += 1
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in keys.values())
    assert chi2 < CHI2_CRIT[5]


def test_sample_twirl_always_invertible():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = sample_twirl(3, rng)
        assert gf2_rank(unpack(c.A, 3)) == 3


@pytest.mark.parametrize("n", [-1, 0, CLASSICAL_N_CAP + 1])
def test_sample_twirl_refuses_bad_n_before_drawing(n):
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(PreconditionError):
        sample_twirl(n, rng)
    assert rng.bit_generator.state == before


def test_twirl_element_validation():
    with pytest.raises(PreconditionError):
        TwirlElement(2, (0b11, 0b11), (0, 0), 0, 0)         # singular A
    with pytest.raises(PreconditionError):
        TwirlElement(2, (0b01, 0b10), (0b01, 0), 0, 0)      # B has a diagonal bit
    with pytest.raises(PreconditionError):
        TwirlElement(2, (0b01, 0b10), (0, 0b01), 0, 0)      # B has a lower bit
    with pytest.raises(DimensionMismatchError):
        TwirlElement(2, (0b01, 0b110), (0, 0), 0, 0)        # row wider than n
    with pytest.raises(DimensionMismatchError):
        TwirlElement(2, (0b01,), (0, 0), 0, 0)
    with pytest.raises(DimensionMismatchError):
        TwirlElement(2, (0b01, 0b10), (0, 0), 4, 0)
    with pytest.raises(PreconditionError):
        TwirlElement(0, (), (), 0, 0)
    c = TwirlElement(2, np.array([3, 2]), [np.int64(2), 0], 1, 2)
    assert c == TwirlElement(2, (3, 2), (2, 0), 1, 2) and hash(c) == hash(
        TwirlElement(2, (3, 2), (2, 0), 1, 2))
    assert c.forward.tolist() == [0, 1, 3, 2] and c.a_inverse.tolist() == [0, 1, 3, 2]


def test_enumerate_twirls_count():
    assert sum(1 for _ in enumerate_twirls(1)) == twirl_set_size(1) == 4
    assert sum(1 for _ in enumerate_twirls(2)) == twirl_set_size(2) == 192
    assert twirl_set_size(3) == len(all_gl_matrices(3)) * 2**3 * 4**3
    with pytest.raises(PreconditionError):
        next(enumerate_twirls(3))


def test_twirl_dataset_identity_and_linear():
    rng = np.random.default_rng(4)
    g = DataTable.random(3, rng)
    assert twirl_dataset(g, identity_twirl(3)) == g
    c = TwirlElement(3, (0b001, 0b010, 0b100), (0, 0, 0), 0, 0b001)
    gc = twirl_dataset(g, c)
    for x in range(8):
        assert gc.value(x) == g.value(x) ^ (x & 1)


def test_twirl_consistency_statevector_identity():
    # the gate maps the clean state of g onto the clean state of g_C, so the
    # adjoint restores the state of g from a query on g_C
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        g = DataTable.random(n, rng)
        c = sample_twirl(n, rng)
        gc = twirl_dataset(g, c)
        u = clifford_matrix(c)
        assert np.abs(u @ resource_state(g).amplitudes
                      - resource_state(gc).amplitudes).max() < 1e-12
        assert np.abs(u.conj().T @ resource_state(gc).amplitudes
                      - resource_state(g).amplitudes).max() < 1e-12


# Dense gate matrices: the oracle for the gate list of a twirl element.

def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    d = 1 << n
    x = np.arange(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    if gate.kind == "X":
        mat[x ^ (1 << gate.wires[0]), x] = 1.0
    elif gate.kind == "Z":
        mat[x, x] = 1.0 - 2.0 * ((x >> gate.wires[0]) & 1)
    elif gate.kind == "CZ":
        i, j = gate.wires
        mat[x, x] = 1.0 - 2.0 * (((x >> i) & 1) & ((x >> j) & 1))
    elif gate.kind == "CNOT":
        ctrl, tgt = gate.wires
        mat[x ^ (((x >> ctrl) & 1) << tgt), x] = 1.0
    else:
        raise AssertionError(f"unknown gate kind {gate.kind}")
    return mat


def gate_list_matrix(gates: list[Gate], n: int) -> np.ndarray:
    u = np.eye(1 << n, dtype=np.complex128)
    for g in gates:
        u = gate_matrix(g, n) @ u
    return u


def test_clifford_gate_list_matches_matrix():
    rng = np.random.default_rng(6)
    assert np.array_equal(clifford_matrix(identity_twirl(2)), np.eye(4))
    c = TwirlElement(1, (1,), (0,), 1, 0)
    assert np.allclose(clifford_matrix(c), np.array([[0, 1], [1, 0]]))
    for _ in range(20):
        c = sample_twirl(3, rng)
        gates = clifford_gate_list(c)
        assert np.abs(gate_list_matrix(gates, 3) - clifford_matrix(c)).max() < 1e-12


def test_conjugate_pauli_identity_and_sign():
    c = sample_twirl(2, np.random.default_rng(7))
    ident = PauliString(2, 0, 0, 0)
    assert conjugate_pauli(c, ident) == ident
    # u = 1 flips the sign of Z on qubit 0
    cu = TwirlElement(1, (1,), (0,), 1, 0)
    z = PauliString(1, 0, 1, 0)
    assert conjugate_pauli(cu, z) == PauliString(1, 1, 1, 0)


def test_conjugate_pauli_exhaustive_n2():
    # closed form equals dense conjugation for all 192 x 32 pairs
    mats = {}
    for c in enumerate_twirls(2):
        u = clifford_matrix(c)
        for s in (0, 1):
            for a in range(4):
                for b in range(4):
                    p = PauliString(2, s, a, b)
                    expect = u @ pauli_matrix(p) @ u.conj().T
                    got = conjugate_pauli(c, p)
                    assert np.abs(pauli_matrix(got) - expect).max() < 1e-12


def test_uniform_spreading_exact_counts_n2():
    # each Pauli maps onto its own subset with equal counts per element
    twirls = list(enumerate_twirls(2))
    for s in (0, 1):
        for a in range(4):
            for b in range(4):
                p = PauliString(2, s, a, b)
                kind = pauli_subset(p)
                counts = {}
                for c in twirls:
                    q = conjugate_pauli(c, p)
                    assert pauli_subset(q) == kind
                    counts[q] = counts.get(q, 0) + 1
                size = subset_size(kind, 2)
                assert len(counts) == size
                assert set(counts.values()) == {len(twirls) // size}


def test_uniform_spreading_chisquare_n3():
    rng = np.random.default_rng(8)
    p = PauliString(3, 0, 0b011, 0b000)  # a Z-type Pauli
    size = subset_size(pauli_subset(p), 3)
    assert size == 14
    counts = {}
    trials = 100_000
    a, b, u, v = twirlset._draw_twirls(3, trials, rng)
    for c in zip(a.tolist(), twirlset._upper_rows(b).tolist(), u.tolist(), v.tolist()):
        q = conjugate_pauli(TwirlElement(3, *c), p)
        counts[q] = counts.get(q, 0) + 1
    assert len(counts) == size
    expected = trials / size
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT[13]


def test_offdiagonal_tensor_average_vanishes_n2():
    # exhaustive over all Pauli pairs with P != +/- P'
    twirls = list(enumerate_twirls(2))
    paulis = [PauliString(2, s, a, b) for s in (0, 1)
              for a in range(4) for b in range(4)]
    conj = {p: np.stack([pauli_matrix(conjugate_pauli(c, p)) for c in twirls])
            for p in paulis}
    for i, p in enumerate(paulis):
        for q in paulis[i + 1:]:
            if (p.a, p.b) == (q.a, q.b):
                continue  # q = +/-p is excluded
            acc = np.einsum("kab,kcd->abcd", conj[p], conj[q]) / len(twirls)
            assert np.abs(acc).max() < 1e-12


def test_odd_pauli_expectation_vanishes():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        odd = [p for p in
               (PauliString(n, s, a, b) for s in (0, 1)
                for a in range(1 << n) for b in range(1 << n))
               if pauli_subset(p).value == "Podd"]
        for _ in range(10):
            g = DataTable.random(n, rng)
            psi = resource_state(g).amplitudes
            for p in odd:
                val = psi.conj() @ pauli_matrix(p) @ psi
                assert abs(val) < 1e-12


def test_twirled_state_noiseless_is_pure():
    g = DataTable.from_string("0110")
    res = twirled_state(g, noiseless_device(2), mode="exact")
    target = pure_density(resource_state(g))
    assert np.abs(res.state.matrix - target.matrix).max() < 1e-12
    assert res.num_samples == 192


def test_twirled_state_exact_spectrum_dead_router():
    g = DataTable.from_string("0101")
    dev = dead_router_device(2, [1])
    res = twirled_state(g, dev, mode="exact")
    psi = resource_state(g)
    # eigenvalue equation with the ideal resource state as eigenvector
    lam = fidelity_pure(res.state, psi)
    residual = res.state.matrix @ psi.amplitudes - lam * psi.amplitudes
    assert np.abs(residual).max() < 1e-9
    others = sorted(np.linalg.eigvalsh(res.state.matrix))[:-1]
    assert all(v <= 0.5 + 1e-9 for v in others)
    # eigenvalue equals the average per-element fidelity
    fids = []
    for c in enumerate_twirls(2):
        gc = twirl_dataset(g, c)
        fids.append(fidelity_pure(noisy_resource_state(dev, gc), resource_state(gc)))
    assert lam == pytest.approx(np.mean(fids), abs=1e-9)


def test_twirled_state_exact_coherent_device():
    g = DataTable.from_string("0011")
    dev = coherent_rotation_device(2, 0.2)
    res = twirled_state(g, dev, mode="exact")
    psi = resource_state(g)
    lam = fidelity_pure(res.state, psi)
    residual = res.state.matrix @ psi.amplitudes - lam * psi.amplitudes
    assert np.abs(residual).max() < 1e-9
    assert lam > 0.8
    assert sorted(np.linalg.eigvalsh(res.state.matrix))[-2] <= 0.5 + 1e-9


def test_twirled_state_mc_matches_exact():
    g = DataTable.from_string("0110")
    dev = dead_router_device(2, [2])
    exact = twirled_state(g, dev, mode="exact").state
    mc = twirled_state(g, dev, mode="mc", num_samples=20000, seed=31).state
    assert np.abs(exact.matrix - mc.matrix).max() < 0.02
    # reproducibility: same seed gives the same matrix bit for bit
    mc2 = twirled_state(g, dev, mode="mc", num_samples=20000, seed=31).state
    assert np.array_equal(mc.matrix, mc2.matrix)


def test_twirled_state_exact_cap():
    # the closed form covers every register up to the cap
    g = DataTable.from_string("01101011")
    dev = dead_router_device(3, [2, 5])
    exact = twirled_state(g, dev, mode="exact")
    assert exact.num_samples == twirl_set_size(3)
    mc = twirled_state(g, dev, mode="mc", num_samples=10000, seed=31).state
    assert np.abs(exact.state.matrix - mc.matrix).max() < 0.02
    with pytest.raises(SizeCapError):
        twirled_state(DataTable.zero(7), noiseless_device(7), mode="exact")
    with pytest.raises(DimensionMismatchError):
        twirled_state(DataTable.zero(2), dev, mode="exact")
    with pytest.raises(DimensionMismatchError):
        twirled_state(g, dev, mode="exact", encoding=EncodingNoise.none(2))


def test_twirled_state_mc_sample_cap(monkeypatch):
    # the draws of every sample are held at once, so a count above the cap
    # fails before any draw or allocation
    def refuse(*args):
        raise AssertionError("an over-cap sample count reached the draws")

    monkeypatch.setattr(twirlset, "_twirled_state_mc", refuse)
    g, dev = DataTable.from_string("0110" * 16), dead_router_device(6, [1])
    tracemalloc.start()
    with pytest.raises(SizeCapError, match="capped"):
        twirled_state(g, dev, mode="mc", num_samples=twirlset.MC_SAMPLE_CAP + 1, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Closed-form exact twirl against the enumerated twirl set.

def random_kraus_device(n, rng, count=3):
    """A custom channel of ``count`` random complex Kraus operators."""
    d = 1 << n
    shape = (count * d, d)
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return custom_kraus_device(n, [q[i * d:(i + 1) * d] for i in range(count)])


DEVICES = {
    "dead_router": lambda n, rng: dead_router_device(
        n, rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)),
    "depolarizing": lambda n, rng: global_depolarizing_device(n, float(rng.uniform())),
    "dephasing": lambda n, rng: dephasing_device(n, float(rng.uniform(0, 0.5))),
    "coherent": lambda n, rng: coherent_rotation_device(n, float(rng.uniform(-np.pi, np.pi))),
    "noiseless": lambda n, rng: noiseless_device(n),
    "random_kraus": random_kraus_device,
}


def oracle_twirled_state_exact(g, dev, encoding):
    """The exact twirl as the class-mean Pauli channel on psi psi': every
    Pauli weight replaced by the mean of chi over its unsigned class."""
    n = g.n
    d = 1 << n
    x = np.arange(d)
    chi = dev.post_noise.chi
    if encoding is not None:
        chi = sum(w * chi[np.ix_(x ^ p.a, x ^ p.b)] for p, w in encoding.weights)
    a, b = x[:, None], x[None, :]
    cls = np.where(b == 0, np.minimum(a, 1), 2 + parity(a & b)).ravel()
    means = np.bincount(cls, chi.ravel(), 4) / np.bincount(cls, None, 4)
    psi = qram_unitary(g) / np.sqrt(d)
    return pauli_channel(means[cls].reshape(d, d), np.outer(psi, psi))


def enumerated_twirl(g, dev, encoding):
    acc = np.zeros((1 << g.n,) * 2, dtype=np.complex128)
    for c in enumerate_twirls(g.n):
        phi = noisy_resource_state(dev, twirl_dataset(g, c))
        if encoding is not None:
            phi = encoding_channel(encoding, g.n).apply(phi)
        u = clifford_matrix(c)
        acc += u.conj().T @ phi.matrix @ u
    return acc / twirl_set_size(g.n)


@pytest.mark.parametrize("encoded", [False, True])
@pytest.mark.parametrize("kind", sorted(DEVICES))
@pytest.mark.parametrize("n", [1, 2])
@settings(derandomize=True, database=None, max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_twirl_matches_enumeration(n, kind, encoded, seed):
    rng = np.random.default_rng(seed)
    dev = DEVICES[kind](n, rng)
    g = DataTable.random(n, rng)
    enc = (EncodingNoise.random_tail(n, float(rng.uniform(0.5, 1.0)), rng)
           if encoded else None)
    res = twirled_state(g, dev, mode="exact", encoding=enc)
    assert res.num_samples == twirl_set_size(n)
    assert np.abs(res.state.matrix - enumerated_twirl(g, dev, enc)).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(derandomize=True, database=None, max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_twirl_dead_router_eigenvalue(n, seed):
    # the twirled state has the ideal state as eigenvector, with the
    # dataset-independent closed-form fidelity as its eigenvalue
    rng = np.random.default_rng(seed)
    d = 1 << n
    k = int(rng.integers(0, d + 1))
    dev = dead_router_device(n, rng.choice(d, size=k, replace=False))
    g = DataTable.random(n, rng)
    psi = resource_state(g).amplitudes
    rho = twirled_state(g, dev, mode="exact").state.matrix
    lam = dead_router_fidelity(n, k)
    assert np.abs(rho @ psi - lam * psi).max() < 1e-12


@pytest.mark.parametrize("encoded", [False, True])
@pytest.mark.parametrize("kind", sorted(DEVICES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(derandomize=True, database=None, max_examples=2, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_twirl_is_isotropic(n, kind, encoded, seed):
    # T(psi) = alpha psi psi' + beta I, with (alpha, beta) the same for
    # every dataset, equal to the class-mean Pauli channel it replaced
    rng = np.random.default_rng(seed)
    d = 1 << n
    dev = DEVICES[kind](n, rng)
    enc = (EncodingNoise.random_tail(n, float(rng.uniform(0.5, 1.0)), rng)
           if encoded else None)
    coefficients = []
    for _ in range(2):
        g = DataTable.random(n, rng)
        psi = resource_state(g).amplitudes.real
        rho = twirled_state(g, dev, mode="exact", encoding=enc).state.matrix
        assert np.abs(rho - oracle_twirled_state_exact(g, dev, enc)).max() < 1e-12
        fid = psi @ rho @ psi
        beta = (np.trace(rho) - fid) / (d - 1)
        alpha = fid - beta
        assert np.abs(rho - alpha * np.outer(psi, psi) - beta * np.eye(d)).max() < 1e-12
        coefficients.append((alpha, beta))
    assert np.allclose(coefficients[0], coefficients[1], rtol=0, atol=1e-12)


def test_exact_twirl_not_trace_preserving():
    # beta comes from the class means, not from 1 - alpha, so a channel
    # that loses trace still gives the class-mean Pauli channel; a
    # QuantumChannel refuses a lossy Kraus list and a DensityMatrix a trace
    # below 1, so a stand-in device carries only the Pauli weights
    rng = np.random.default_rng(21)
    n = 3
    d = 1 << n
    lossy = [0.9 * k for k in random_kraus_device(n, rng).post_noise.kraus]
    dev = SimpleNamespace(n=n, post_noise=SimpleNamespace(chi=qcore.pauli_weights(lossy, n)))
    g = DataTable.random(n, rng)
    alpha, beta = exact_twirl_coefficients(dev, None)
    psi = qram_unitary(g) / np.sqrt(d)
    rho = alpha * np.outer(psi, psi) + beta * np.eye(d)
    assert abs(np.trace(rho) - 0.81) < 1e-12
    assert np.abs(rho - oracle_twirled_state_exact(g, dev, None)).max() < 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo twirl against the per-sample dense average it replaced.

def oracle_gl_batch(n, count, rng):
    """(A, A^-1) per sample, drawing exactly as the Monte Carlo twirl does."""
    if n <= 4:
        table = all_gl_matrices(n)
        mats = [table[i] for i in rng.integers(0, len(table), size=count)]
    else:
        mats = [oracle_draw_twirl(n, rng)[0] for _ in range(count)]
    mats = [unpack(m, n) for m in mats]
    return np.stack(mats), np.stack([gf2_inverse(m) for m in mats])


def oracle_twirled_state_mc(g, device, num_samples, seed, encoding):
    """Dense per-sample Monte Carlo twirl: one noisy state per sample, each
    restored by its own adjoint gate, then the mean."""
    def superoperator(kraus):
        return sum(np.kron(k, k.conj()) for k in kraus)

    n = g.n
    d = 1 << n
    rng = derive_rng(seed, 0x7719)
    amats, inv_amats = oracle_gl_batch(n, num_samples, rng)
    bmats = np.triu(rng.integers(0, 2, size=(num_samples, n, n), dtype=np.uint8), k=1)
    us = rng.integers(0, d, size=num_samples)
    vs = rng.integers(0, 2, size=(num_samples, n)).astype(np.uint8)

    xb = ((np.arange(d)[:, None] >> np.arange(n)) & 1).astype(np.int64)
    weights = (1 << np.arange(n)).astype(np.int64)
    y = np.matmul(xb[None, :, :], amats.astype(np.int64).transpose(0, 2, 1)) % 2
    y_int = (y @ weights) ^ us[:, None]
    lin = (vs.astype(np.int64) @ xb.T) % 2
    quad = (np.matmul(xb[None, :, :], bmats.astype(np.int64)) * xb[None, :, :]).sum(-1) % 2
    tables = g.to_array().astype(np.int64)[y_int] ^ lin ^ quad
    diag = 1.0 - 2.0 * tables

    base = pure_density(plus_state(n)).matrix
    rho = diag[:, :, None] * diag[:, None, :] * base[None, :, :]
    sup = superoperator(device.post_noise.kraus)
    if encoding is not None:
        sup = superoperator(np.sqrt(w) * pauli_matrix(p) for p, w in encoding.weights) @ sup
    rho = (rho.reshape(num_samples, d * d) @ sup.T).reshape(num_samples, d, d)

    z_bits = (((np.arange(d)[None, :] ^ us[:, None])[:, :, None] >> np.arange(n)) & 1)
    sig_bits = np.matmul(z_bits.astype(np.int64),
                         inv_amats.astype(np.int64).transpose(0, 2, 1)) % 2
    sig_int = sig_bits @ weights
    ph_at = np.take_along_axis(1.0 - 2.0 * (quad ^ lin), sig_int, axis=1)
    rows = np.take_along_axis(rho, sig_int[:, :, None], axis=1)
    conj = np.take_along_axis(rows, sig_int[:, None, :], axis=2)
    return (conj * ph_at[:, :, None] * ph_at[:, None, :]).mean(axis=0)


MC_DEVICES = {
    "noiseless": lambda n, rng: noiseless_device(n),
    "dead_router": lambda n, rng: dead_router_device(
        n, rng.choice(1 << n, size=int(rng.integers(1, min(1 << n, 3) + 1)), replace=False)),
    "dephasing": DEVICES["dephasing"],
    "coherent": DEVICES["coherent"],
    "depolarizing": DEVICES["depolarizing"],
    # three complex factors: dense at n = 1, factored from n = 2
    "random_kraus": random_kraus_device,
}


def takes_factors(dev, enc) -> bool:
    """Whether the Monte Carlo twirl restores from factors: fewer than d of
    them per state, the device's times the Paulis above the floor."""
    rank = (dev.post_noise.num_factors
            * (1 if enc is None else np.count_nonzero(pauli_floor(enc.table)[1])))
    return rank < 1 << dev.n


# encoded: False (none), True (random tail) or "depolarizing"; the oracle's
# dense superoperator of d^2 Paulis limits the depolarizing encoding to n <= 4
@pytest.mark.parametrize("kind, n, encoded", [
    (k, n, e) for k in sorted(MC_DEVICES) for n in range(1, 6)
    for e in (False, True, "depolarizing")
    if (k != "depolarizing" or n <= 3) and (e != "depolarizing" or n <= 4)])
@settings(derandomize=True, database=None, max_examples=2, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), num_samples=st.integers(1, 24),
       chunk=st.sampled_from([1, 100, twirlset._MC_CHUNK]),
       block=st.sampled_from([1, 3, None]))
def test_mc_twirl_matches_oracle(kind, n, seed, num_samples, encoded, chunk, block):
    rng = np.random.default_rng(seed)
    dev = MC_DEVICES[kind](n, rng)
    g = DataTable.random(n, rng)
    if encoded == "depolarizing":
        enc = EncodingNoise.depolarizing(n, float(rng.uniform(0, 0.9)))
    elif encoded:
        enc = EncodingNoise.random_tail(n, float(rng.uniform(0.5, 1.0)), rng)
    else:
        enc = None
    check_mc_twirl(g, dev, num_samples, seed, enc, chunk, block)


def check_mc_twirl(g, dev, num_samples, seed, enc, chunk, block):
    """The Monte Carlo twirl with ``_MC_CHUNK`` = chunk and restore blocks
    of ``block`` samples (None: the default ``_MC_BLOCK``) on the path it
    takes, factors or dense states, repeats byte for byte and matches the
    per-sample oracle."""
    d = 1 << g.n
    per_sample = d if takes_factors(dev, enc) else d * d     # entries per gather
    block_entries = twirlset._MC_BLOCK if block is None else block * per_sample
    with mock.patch.object(twirlset, "_MC_CHUNK", chunk), \
            mock.patch.object(twirlset, "_MC_BLOCK", block_entries):
        res = twirled_state(g, dev, mode="mc", num_samples=num_samples, seed=seed, encoding=enc)
        again = twirled_state(g, dev, mode="mc", num_samples=num_samples, seed=seed,
                              encoding=enc)
    assert res.num_samples == num_samples
    assert np.array_equal(res.state.matrix, again.state.matrix)
    expect = oracle_twirled_state_mc(g, dev, num_samples, seed, enc)
    assert np.abs(res.state.matrix - expect).max() <= 1e-12


# sample counts on both sides of one and two default restore blocks
# (_MC_BLOCK / d^2 samples on dense states, _MC_BLOCK / d on factors), with
# the default chunk and with a chunk that ends inside a block; coherent
# rotations make the states complex. Dense: coherent at n = 1 and the dead
# router at n = 2 (the identity and four tail Paulis), dephasing; the rest
# factored.
@pytest.mark.parametrize("kind, n, encoded", [
    ("coherent", 1, True), ("coherent", 3, True), ("coherent", 5, False),
    ("dead_router", 2, True), ("dephasing", 4, True), ("noiseless", 3, False)])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 1), (2, 1)])
def test_mc_twirl_block_edges_match_oracle(kind, n, encoded, blocks, extra):
    rng = np.random.default_rng(100 * n + 10 * blocks + extra)
    dev = MC_DEVICES[kind](n, rng)
    g = DataTable.random(n, rng)
    enc = EncodingNoise.random_tail(n, 0.9, rng) if encoded else None
    block = twirlset._MC_BLOCK >> (n if takes_factors(dev, enc) else 2 * n)
    num_samples = blocks * block + extra
    seed = int(rng.integers(1 << 32))
    for chunk in (twirlset._MC_CHUNK, (block + block // 2) << (2 * n)):
        check_mc_twirl(g, dev, num_samples, seed, enc, chunk, None)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("extra", [-1, 0])
def test_mc_twirl_factor_boundary(n, extra, monkeypatch):
    # d - 1 Kraus operators restore from factors, d from the dense stack:
    # the path not taken is patched to fail
    d = 1 << n
    rng = np.random.default_rng(10 * n - extra)
    dev = random_kraus_device(n, rng, d + extra)
    assert takes_factors(dev, None) == (extra < 0)

    def refuse(self, psi):
        raise AssertionError("the twirl took the other path")

    monkeypatch.setattr(qcore.QuantumChannel, "on_states" if extra < 0 else "factors", refuse)
    g = DataTable.random(n, rng)
    check_mc_twirl(g, dev, 40, int(rng.integers(1 << 32)), None, twirlset._MC_CHUNK, 3)


def test_mc_twirl_factored_without_dense_states(monkeypatch):
    # at n = 5 a dead router with a random-tail encoding never builds a
    # dense noisy state: neither the preset's on_states nor pauli_channel
    # runs, and the result still matches the per-sample oracle
    n = 5
    rng = np.random.default_rng(55)
    dev = dead_router_device(n, [3, 17])
    enc = EncodingNoise.random_tail(n, 0.95, rng)
    g = DataTable.random(n, rng)

    def refuse(*args):
        raise AssertionError("a dense noisy state was built")

    monkeypatch.setattr(DeadRouterNoise, "on_states", refuse)
    monkeypatch.setattr(device, "pauli_channel", refuse)
    monkeypatch.setattr(twirlset, "pauli_channel", refuse)
    res = twirled_state(g, dev, mode="mc", num_samples=60, seed=8, encoding=enc).state.matrix
    assert np.abs(res - oracle_twirled_state_mc(g, dev, 60, 8, enc)).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_mc_twirl_uniform_encoding(n):
    # equal weight on every Pauli leaves no factor above the floor: the
    # encoding maps every state to I/d
    d = 1 << n
    paulis = [PauliString(n, 0, a, b) for a in range(d) for b in range(d)]
    enc = EncodingNoise(1.0, tuple((p, 1.0 / d**2) for p in paulis))
    g = DataTable.random(n, np.random.default_rng(n))
    for dev in (noiseless_device(n), dead_router_device(n, [0])):
        assert takes_factors(dev, enc)
        res = twirled_state(g, dev, mode="mc", num_samples=50, seed=3, encoding=enc).state
        assert np.abs(res.matrix - np.eye(d) / d).max() <= 1e-12


# ---------------------------------------------------------------------------
# The closed form of the preset Monte Carlo twirls against the factor and
# dense restores.

def as_plain_channel(dev):
    """The device with its noise behind a plain channel object, which the
    Monte Carlo twirl restores from factors (or dense states, for
    dephasing)."""
    noise = dev.post_noise
    plain = SimpleNamespace(in_qubits=dev.n, out_qubits=dev.n, factors=noise.factors,
                            on_states=noise.on_states, num_factors=noise.num_factors)
    return NoisyDevice(dev.n, plain)


CLOSED_FORM_DEVICES = {
    "noiseless": MC_DEVICES["noiseless"],
    "dead_router_1": lambda n, rng: dead_router_device(n, [int(rng.integers(1 << n))]),
    "dead_router_k": lambda n, rng: dead_router_device(
        n, rng.choice(1 << n, size=int(rng.integers(2, (1 << n) + 1)), replace=False)),
    "depolarizing": DEVICES["depolarizing"],
    "dephasing": DEVICES["dephasing"],
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_DEVICES))
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("encoded", [False, True])
def test_mc_twirl_closed_form_matches_restore(kind, n, encoded):
    # with no encoding or the depolarizing one (only the identity above its
    # floor) a preset twirl takes the closed form: it repeats byte for byte
    # and, with the default chunk and with chunks of 7 samples, matches the
    # same noise restored sample by sample from factors or dense states
    rng = np.random.default_rng(1000 * n + 10 * len(kind) + encoded)
    dev = CLOSED_FORM_DEVICES[kind](n, rng)
    enc = EncodingNoise.depolarizing(n, float(rng.uniform(0, 0.9))) if encoded else None
    g = DataTable.random(n, rng)
    seed = int(rng.integers(1 << 32))
    closed = twirled_state(g, dev, mode="mc", num_samples=30, seed=seed, encoding=enc)
    again = twirled_state(g, dev, mode="mc", num_samples=30, seed=seed, encoding=enc)
    assert np.array_equal(closed.state.matrix, again.state.matrix)
    restored = twirled_state(g, as_plain_channel(dev), mode="mc", num_samples=30, seed=seed,
                             encoding=enc).state.matrix
    assert np.abs(closed.state.matrix - restored).max() <= 1e-12
    with mock.patch.object(twirlset, "_MC_CHUNK", 7 << (2 * n)):
        chunked = twirled_state(g, dev, mode="mc", num_samples=30, seed=seed, encoding=enc)
    assert np.abs(chunked.state.matrix - restored).max() <= 1e-12


def test_mc_twirl_closed_form_path(monkeypatch):
    # the path not taken is patched to fail: the presets, bare or with the
    # depolarizing encoding, run no restore; with a random tail (as in the
    # trajectory config) they restore from factors (dephasing from dense
    # states), never reach the closed form, and match the per-sample oracle
    def refuse(*args):
        raise AssertionError("the twirl took the other path")

    n = 3
    rng = np.random.default_rng(31)
    g = DataTable.random(n, rng)
    presets = (dead_router_device(n, [5]), global_depolarizing_device(n, 0.2),
               dephasing_device(n, 0.1))
    with monkeypatch.context() as m:
        for name in ("_phases", "pauli_factors", "pauli_channel"):
            m.setattr(twirlset, name, refuse)
        for cls in (DeadRouterNoise, DepolarizingNoise, DephasingNoise):
            m.setattr(cls, "factors", refuse)
        m.setattr(PresetNoise, "on_states", refuse)
        m.setattr(DephasingNoise, "on_states", refuse)
        for dev in presets + (noiseless_device(n),):
            for enc in (None, EncodingNoise.depolarizing(n, 0.1)):
                twirled_state(g, dev, mode="mc", num_samples=50, seed=2, encoding=enc)
    for cls in (DeadRouterNoise, DepolarizingNoise, DephasingNoise):
        monkeypatch.setattr(cls, "twirl_kernel", refuse)
    enc = EncodingNoise.random_tail(n, 0.98, derive_rng(42, 0xE2C))
    assert takes_factors(presets[0], enc)
    for dev in presets:
        res = twirled_state(g, dev, mode="mc", num_samples=50, seed=2, encoding=enc).state
        assert np.abs(res.matrix - oracle_twirled_state_mc(g, dev, 50, 2, enc)).max() <= 1e-12


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_twirl_factored_memory():
    # n = 6, 2,000 samples on a dead router: the dense stack of one chunk's
    # distinct states took 17.5 MiB; its factors take one vector a state
    g = DataTable.random(6, np.random.default_rng(61))
    dev = dead_router_device(6, [3, 17])
    peak = traced_peak(lambda: twirled_state(g, dev, mode="mc", num_samples=2000, seed=6))
    assert peak < 6 << 20


def test_mc_twirl_trajectory_case_memory():
    # the twirl of the shipped noisy trajectory config: n = 3, a dead router
    # on [5], its random tail and 10,000 samples; 5,088,675 bytes is the
    # peak of the dense restore this path replaced
    enc = EncodingNoise.random_tail(3, 0.98, derive_rng(42, 0xE2C))
    dev = dead_router_device(3, [5])
    g = DataTable.random(3, np.random.default_rng(77))
    peak = traced_peak(lambda: twirled_state(g, dev, mode="mc", num_samples=10_000, seed=77,
                                             encoding=enc))
    assert peak <= 5_088_675


# Recorded from the per-sample implementation; the draws must not drift.
# sample_twirl: (packed rows of A, packed rows of B, u, v), two draws per seed.
SAMPLE_TWIRL_STREAM = {
    (3, 0): [((6, 4, 1), (0, 4, 0), 1, 6), ((5, 6, 7), (4, 0, 0), 4, 7)],
    (3, 11): [((1, 3, 6), (6, 4, 0), 3, 1), ((3, 6, 4), (2, 4, 0), 7, 4)],
    (5, 0): [((27, 17, 2, 3, 31), (14, 12, 0, 16, 0), 26, 21),
             ((1, 13, 28, 7, 19), (22, 8, 8, 0, 0), 0, 21)],
    (5, 11): [((5, 7, 23, 9, 19), (28, 16, 24, 16, 0), 11, 4),
              ((16, 23, 12, 6, 25), (26, 4, 8, 16, 0), 9, 17)],
}
# Monte Carlo twirl of DataTable.random(n, default_rng(seed)) on
# dead_router_device(n, [1]): Philox (counter[0], buffer_pos, has_uint32,
# uinteger) after the draws.
MC_STREAM = {
    (3, 40, 5): (37, 1, 0, 2052198441),
    (3, 40, 2024): (37, 1, 0, 3470506337),
    (5, 6, 5): (27, 2, 0, 2171201955),
    (5, 6, 2024): (27, 2, 0, 1708203463),
    (6, 6, 5): (36, 1, 0, 1445301995),
    (6, 6, 2024): (36, 1, 0, 3121291588),
    (5, 300, 7): (1322, 4, 1, 681707462),
}


def test_twirl_streams_unchanged(monkeypatch):
    for (n, seed), expect in SAMPLE_TWIRL_STREAM.items():
        rng = np.random.default_rng(seed)
        got = []
        for _ in expect:
            c = sample_twirl(n, rng)
            got.append((c.A, c.B, c.u, c.v))
        assert got == expect

    made = []

    def spy(*args):
        made.append(derive_rng(*args))
        return made[-1]

    monkeypatch.setattr(twirlset, "derive_rng", spy)
    for (n, num_samples, seed), expect in MC_STREAM.items():
        g = DataTable.random(n, np.random.default_rng(seed))
        twirled_state(g, dead_router_device(n, [1]), mode="mc",
                      num_samples=num_samples, seed=seed)
        state = made[-1].bit_generator.state
        assert (int(state["state"]["counter"][0]), state["buffer_pos"],
                state["has_uint32"], state["uinteger"]) == expect


# ---------------------------------------------------------------------------
# Bulk twirl draws against the per-element oracle.

def same_state(a, b) -> bool:
    """Equal bit-generator states (dicts that may hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def make_rng(kind: str, seed: int) -> np.random.Generator:
    return derive_rng(seed, 0x7719) if kind == "philox" else np.random.default_rng(seed)


def assert_draws_match_oracle(n, count, bulk, scalar):
    """``_draw_twirls(n, count, bulk)`` equals ``count`` oracle draws from
    ``scalar`` in A, B, u and v, and both generators end in one state."""
    a, b, u, v = twirlset._draw_twirls(n, count, bulk)
    expect = [oracle_draw_twirl(n, scalar) for _ in range(count)]
    assert a.tolist() == [e[0] for e in expect]
    assert b.dtype == np.uint8 and np.array_equal(b, np.stack([e[1] for e in expect]))
    assert u.tolist() == [e[2] for e in expect]
    assert v.tolist() == [e[3] for e in expect]
    assert same_state(bulk.bit_generator.state, scalar.bit_generator.state)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(n=st.integers(1, 6), count=st.integers(1, 64),
       seed=st.integers(0, 2**63 - 1), kind=st.sampled_from(["philox", "pcg64"]))
@example(n=1, count=1, seed=0, kind="pcg64")
@example(n=6, count=1, seed=1, kind="philox")
def test_draw_gl_rows_matches_scalar_draws(n, count, seed, kind):
    bulk, scalar = make_rng(kind, seed), make_rng(kind, seed)
    assert_draws_match_oracle(n, count, bulk, scalar)
    assert bulk.random() == scalar.random()


def test_draw_twirls_at_the_classical_cap():
    # no table of 2^n entries: the decoder runs at n = 24
    n = CLASSICAL_N_CAP
    bulk, scalar = make_rng("pcg64", 5), make_rng("pcg64", 5)
    assert_draws_match_oracle(n, 3, bulk, scalar)
    for rows in twirlset._draw_twirls(n, 3, bulk)[0]:
        assert gf2_rank(unpack(rows, n)) == n


class CountingRng:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("kind", ["philox", "pcg64"])
def test_draw_gl_rows_falls_back_on_rejection(kind, monkeypatch):
    # a rejected word makes numpy draw again, shifting the block's stream;
    # flag one word and the raw draws, one call at a time, must reproduce
    # the oracle
    real = twirlset._lemire_rejects
    calls = []

    def flag_one(m, k):
        calls.append(k)
        out = real(m, k)
        if len(calls) == 1:
            out[len(out) // 2] = True
        return out

    monkeypatch.setattr(twirlset, "_lemire_rejects", flag_one)
    for n, count in ((2, 5), (5, 9), (6, 40)):
        calls.clear()
        bulk, scalar = CountingRng(make_rng(kind, n)), make_rng(kind, n)
        assert_draws_match_oracle(n, count, bulk, scalar)
        assert calls == [(1 << f) - 1 for f in range(n, 1, -1)]    # the t_sel ranges
        # the block, then per element A's draws, B, u and v
        assert bulk.calls == 1 + count * (n * (n + 1) // 2 + 3)


def untemper(y: int) -> int:
    """The MT19937 state word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    r = y
    for _ in range(5):
        r = y ^ ((r << 7) & 0x9D2C5680)
    y = r & 0xFFFFFFFF
    r = y
    for _ in range(3):
        r = y ^ (r >> 11)
    return r


def planted_mt19937(words: dict[int, int]) -> np.random.Generator:
    """An MT19937 generator whose next 32-bit outputs at the given offsets
    are the given words (every offset below 624, so no twist intervenes)."""
    rng = np.random.Generator(np.random.MT19937(0))
    state = rng.bit_generator.state
    key = state["state"]["key"].copy()
    for offset, word in words.items():
        key[offset] = untemper(word)
    rng.bit_generator.state = {"bit_generator": "MT19937",
                               "state": {"key": key, "pos": 0}}
    return rng


def test_draw_gl_rows_real_rejection():
    # 63^-1 mod 2^32 times 63 leaves 1 < 2^32 mod 63 = 4: numpy rejects the
    # word and draws again, which the bulk decode must detect
    k, rejected = 63, pow(63, -1, 1 << 32)
    probe = planted_mt19937({0: 12345})
    assert probe.integers(0, 1 << 32, dtype=np.uint64) == 12345
    assert twirlset._lemire_rejects(np.array([rejected, 12345], dtype=np.uint64) * k,
                                    k).tolist() == [True, False]
    probe = planted_mt19937({0: rejected})
    probe.integers(1, 64)
    assert probe.bit_generator.state["state"]["pos"] == 2

    n, count, width = 6, 3, 31            # row 0 of sample 1 starts at word 31
    bulk = CountingRng(planted_mt19937({width: rejected}))
    scalar = planted_mt19937({width: rejected})
    assert_draws_match_oracle(n, count, bulk, scalar)
    assert bulk.calls > 1                 # the raw draws ran
    assert scalar.bit_generator.state["state"]["pos"] == count * width + 1


def test_n6_presets_twirl_without_kraus_lists():
    # d^2 + 1 dense Kraus operators would take 268 MB at n=6
    n, d = 6, 64
    g = DataTable.random(n, np.random.default_rng(6))
    psi = resource_state(g).amplitudes
    for make, expect in (
            (lambda: dead_router_device(n, range(d)), np.eye(d) / d),
            (lambda: global_depolarizing_device(n, 0.1),
             0.9 * np.outer(psi, psi) + 0.1 * np.eye(d) / d)):
        tracemalloc.start()
        dev = make()
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert built < 1 << 20
        rho = noisy_resource_state(dev, g).matrix
        assert np.abs(rho - expect).max() <= 1e-12
        start = time.perf_counter()
        res = twirled_state(g, dev, mode="mc", num_samples=2000, seed=9)
        assert time.perf_counter() - start < 3.0
        assert np.abs(res.state.matrix - expect).max() <= 1e-12
        tracemalloc.start()
        twirled_state(g, dev, mode="mc", num_samples=2000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 200 << 20
        assert "kraus" not in vars(dev.post_noise)


def test_mc_twirl_long_kraus_list_memory():
    # the d^2 + 1 operators of the depolarizing preset as a custom channel:
    # a stack of every K_r psi for 1,024 tables would take 537 MB at n=5
    n, d = 5, 32
    g = DataTable.random(n, np.random.default_rng(5))
    preset = global_depolarizing_device(n, 0.3)
    custom = custom_kraus_device(n, preset.post_noise.kraus)
    expect = twirled_state(g, preset, mode="mc", num_samples=d * d, seed=4).state.matrix
    tracemalloc.start()
    res = twirled_state(g, custom, mode="mc", num_samples=d * d, seed=4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 150 << 20
    assert np.abs(res.state.matrix - expect).max() <= 1e-12


def test_exact_twirl_computes_pauli_weights_once(monkeypatch):
    calls = []

    original = qcore.pauli_weights

    def spy(kraus, n):
        calls.append(n)
        return original(kraus, n)

    monkeypatch.setattr(qcore, "pauli_weights", spy)
    rng = np.random.default_rng(12)
    for dev, expect in ((coherent_rotation_device(3, 0.3), 1), (dead_router_device(3, [1, 6]), 0),
                        (random_kraus_device(3, rng), 1)):
        for _ in range(4):
            twirled_state(DataTable.random(3, rng), dev, mode="exact")
        assert len(calls) == expect
        calls.clear()


def test_all_gl_matrices_order():
    for n in (1, 2, 3):
        codes = range(1 << (n * n))
        mats = [((c >> (n * np.arange(n)[:, None] + np.arange(n))) & 1).astype(np.uint8)
                for c in codes]
        expect = [tuple(pack(r) for r in m) for m in mats if gf2_rank(m) == n]
        assert all_gl_matrices(n) == tuple(expect)
    codes = np.array([sum(r << (4 * i) for i, r in enumerate(a)) for a in all_gl_matrices(4)])
    assert len(codes) == 20160
    assert np.all(np.diff(codes) > 0)


def test_gl_permutation_tables():
    for n in (1, 2, 3, 4):
        fwd = twirlset._gl_permutations(n)
        inv = twirlset._all_gl_inverses(n)
        x = np.arange(1 << n)
        xb = (x[:, None] >> np.arange(n)) & 1
        for a, f, i in zip(all_gl_matrices(n), fwd, inv):
            assert np.array_equal((xb @ unpack(a, n).T % 2) @ (1 << np.arange(n)), f)
            assert np.array_equal(f[i], x)


def test_twirled_state_mc_validation():
    g = DataTable.from_string("0110")
    dev = dead_router_device(2, [1])
    with pytest.raises(SizeCapError):
        twirled_state(DataTable.zero(7), noiseless_device(7), mode="mc",
                      num_samples=10, seed=1)
    for bad in (-5, 0, 2.5, True, None, np.int64(10), "10"):
        with pytest.raises(PreconditionError):
            twirled_state(g, dev, mode="mc", num_samples=bad, seed=1)
    with pytest.raises(PreconditionError):
        twirled_state(g, dev, mode="mc", num_samples=10)
    with pytest.raises(DimensionMismatchError):
        twirled_state(DataTable.zero(3), dev, mode="mc", num_samples=10, seed=1)
    with pytest.raises(PreconditionError):
        twirled_state(g, dev, mode="dense")
