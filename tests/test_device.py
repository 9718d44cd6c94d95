"""Device noise models, dead-router closed form, Pauli twirl, encoding noise."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qramsim.boolfn import DataTable
from qramsim.device import (
    EncodingNoise,
    apply_encoding_noise,
    coherent_rotation_device,
    dead_router_device,
    dead_router_fidelity,
    dephasing_device,
    global_depolarizing_device,
    noiseless_device,
    noisy_resource_state,
    custom_kraus_device,
    pauli_channel,
    pauli_factors,
    pauli_floor,
    pauli_twirl_channel,
)
from qramsim.errors import DimensionMismatchError, PreconditionError
from qramsim.qcore import (
    DensityMatrix,
    PauliString,
    QuantumChannel,
    apply_channel,
    apply_kraus,
    fidelity_pure,
    pauli_matrix,
    pauli_weights,
    pure_density,
    qram_unitary,
    resource_state,
    trace_distance,
)

from oracles import (
    choi,
    encoding_channel,
    unitary_channel,
)


def test_noiseless_resource_state():
    g = DataTable.from_string("0110")
    rho = noisy_resource_state(noiseless_device(2), g)
    assert trace_distance(rho, pure_density(resource_state(g))) < 1e-12


def test_depolarizing_fidelity_formula():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        p = float(rng.uniform(0.05, 0.6))
        g = DataTable.random(n, rng)
        rho = noisy_resource_state(global_depolarizing_device(n, p), g)
        fid = fidelity_pure(rho, resource_state(g))
        assert fid == pytest.approx((1 - p) + p / 2**n, abs=1e-12)


def test_dead_router_empty_is_noiseless():
    g = DataTable.from_string("01100101")
    dev = dead_router_device(3, [])
    rho = noisy_resource_state(dev, g)
    assert fidelity_pure(rho, resource_state(g)) == pytest.approx(1.0, abs=1e-12)


def test_dead_router_fidelity_matches_closed_form():
    rng = np.random.default_rng(1)
    assert dead_router_fidelity(2, 1) == pytest.approx(0.625)
    for n in (1, 2, 3, 4):
        d = 1 << n
        for k in (0, 1, d // 2, d):
            addresses = list(rng.choice(d, size=k, replace=False))
            dev = dead_router_device(n, addresses)
            g = DataTable.random(n, rng)
            fid = fidelity_pure(noisy_resource_state(dev, g), resource_state(g))
            assert fid == pytest.approx(dead_router_fidelity(n, k), abs=1e-12)


def test_dead_router_commutes_with_dataset_change():
    # diagonal noise: conjugating by V(h)V(g) maps the g-state to the h-state
    rng = np.random.default_rng(2)
    dev = dead_router_device(3, [5])
    g = DataTable.random(3, rng)
    h = DataTable.random(3, rng)
    diag = qram_unitary(g) * qram_unitary(h)
    rho_g = noisy_resource_state(dev, g).matrix
    rho_h = noisy_resource_state(dev, h).matrix
    mapped = rho_g * np.outer(diag, diag)
    assert np.abs(mapped - rho_h).max() < 1e-12


def test_pauli_twirl_identity_channel():
    res = pauli_twirl_channel(unitary_channel(np.eye(4)))
    assert res.chi_II == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    from qramsim.qcore import DensityMatrix
    rho = DensityMatrix(2, rho / np.trace(rho))
    assert trace_distance(apply_channel(res.channel, rho), rho) < 1e-12


def test_pauli_twirl_z_rotation_gives_dephasing():
    theta = 0.37
    u = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    res = pauli_twirl_channel(unitary_channel(u))
    # Z weight sin^2(theta/2), identity weight cos^2(theta/2)
    assert res.chi_II == pytest.approx(np.cos(theta / 2) ** 2, abs=1e-12)
    assert res.weights[(1, 0)] == pytest.approx(np.sin(theta / 2) ** 2, abs=1e-12)
    assert set(res.weights) == {(0, 0), (1, 0)}


def random_noisy_channel(n, rng, coherent_angle=0.2):
    """Random Kraus channel composed with a coherent rotation."""
    d = 1 << n
    k = 3
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    iso = q[:, :d]  # isometry: stacked blocks form a Kraus set
    kraus = [iso[i * d:(i + 1) * d, :] for i in range(k)]
    herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = (herm + herm.conj().T) / 2
    w, v = np.linalg.eigh(herm)
    u = v @ np.diag(np.exp(1j * coherent_angle * w / np.abs(w).max())) @ v.conj().T
    return QuantumChannel(n, n, tuple(u @ kk for kk in kraus))


def test_pauli_twirl_choi_diagonal_random_channels():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        for _ in range(5):
            ch = random_noisy_channel(n, rng)
            res = pauli_twirl_channel(ch)
            # the construction asserts diagonality internally; confirm the
            # returned channel reproduces the twirled action on a test state
            g = DataTable.random(n, rng)
            psi = resource_state(g)
            rho = pure_density(psi)
            twirled = apply_channel(res.channel, rho)
            fid = fidelity_pure(twirled, psi)
            assert fid >= res.chi_II - 1e-9


# The dense-oracle property tests skip hypothesis's shrink phase: each
# candidate re-runs the oracle, so shrinking a failure took minutes.
@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_pauli_twirl_matches_brute_force_average(n, seed):
    rng = np.random.default_rng(seed)
    d = 1 << n
    ch = random_noisy_channel(n, rng)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    expect = np.zeros((d, d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            p = pauli_matrix(PauliString(n, 0, a, b))
            expect += p.conj().T @ apply_kraus(ch.kraus, p @ rho @ p.conj().T) @ p
    got = apply_channel(pauli_twirl_channel(ch).channel, DensityMatrix(n, rho))
    assert np.abs(got.matrix - expect / d**2).max() < 1e-12


def test_encoding_noise_identity_and_depolarizing():
    rng = np.random.default_rng(5)
    g = DataTable.random(2, rng)
    psi = resource_state(g)
    rho = pure_density(psi)
    enc0 = EncodingNoise.none(2)
    assert trace_distance(apply_encoding_noise(enc0, rho), rho) < 1e-12

    q = 0.2
    enc = EncodingNoise.depolarizing(2, q)
    out = apply_encoding_noise(enc, rho)
    # exact depolarizing action on a pure input
    assert fidelity_pure(out, psi) == pytest.approx((1 - q) + q / 4, abs=1e-12)
    mixed_part = out.matrix - (1 - q) * rho.matrix
    assert np.abs(mixed_part - q * np.eye(4) / 4).max() < 1e-12


def test_encoding_noise_multiplicative_fidelity_bound():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        enc = EncodingNoise.random_tail(n, 0.9, rng)
        g = DataTable.random(n, rng)
        psi = resource_state(g)
        fid = fidelity_pure(apply_encoding_noise(enc, pure_density(psi)), psi)
        assert fid >= 0.9 - 1e-12


def test_encoding_noise_config_checks():
    with pytest.raises(PreconditionError):
        EncodingNoise.depolarizing(1, 1.2)
    from qramsim.qcore import PauliString
    with pytest.raises(PreconditionError):
        EncodingNoise(0.01, ((PauliString(1, 0, 0, 0), 0.5),
                             (PauliString(1, 0, 1, 0), 0.5)))
    # -I acts as I, so the identity weight sums both signs, as the table does
    signed = EncodingNoise(0.05, ((PauliString(1, 0, 0, 0), 0.5),
                                  (PauliString(1, 1, 0, 0), 0.45),
                                  (PauliString(1, 0, 0, 1), 0.05)))
    plain = EncodingNoise(0.05, ((PauliString(1, 0, 0, 0), 0.95),
                                 (PauliString(1, 0, 0, 1), 0.05)))
    assert signed.identity_weight == pytest.approx(0.95)
    assert np.array_equal(signed.table, plain.table)
    with pytest.raises(PreconditionError):
        EncodingNoise(0.04, signed.weights)


def test_encoding_noise_size_and_table():
    # weights on mixed qubit counts are refused, so enc.n holds for all
    with pytest.raises(DimensionMismatchError):
        EncodingNoise(0.5, ((PauliString(2, 0, 0, 0), 0.5),
                            (PauliString(1, 0, 1, 0), 0.5)))
    enc = EncodingNoise.random_tail(3, 0.9, np.random.default_rng(8))
    assert enc.n == 3
    # the table is built once, is read-only, and sums the signed duplicates
    assert enc.table is enc.table
    assert not enc.table.flags.writeable
    signed = EncodingNoise(0.5, ((PauliString(1, 0, 0, 0), 0.5),
                                 (PauliString(1, 0, 1, 1), 0.25),
                                 (PauliString(1, 1, 1, 1), 0.25)))
    assert np.array_equal(signed.table, [[0.5, 0.0], [0.0, 0.5]])
    rho = DensityMatrix(2, np.eye(4) / 4)
    with pytest.raises(DimensionMismatchError):
        apply_encoding_noise(signed, rho)


def test_encoding_channel_is_tp():
    rng = np.random.default_rng(7)
    enc = EncodingNoise.random_tail(2, 0.95, rng)
    ch = encoding_channel(enc, 2)
    c = choi(ch)
    assert abs(np.trace(c) - 1.0) < 1e-9


def test_coherent_and_dephasing_devices_are_valid():
    rng = np.random.default_rng(8)
    g = DataTable.random(2, rng)
    for dev in (coherent_rotation_device(2, 0.3), dephasing_device(2, 0.1)):
        rho = noisy_resource_state(dev, g)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Closed forms of the presets against their lazily built Kraus lists.

def _dead_router(n, rng):
    d = 1 << n
    return dead_router_device(n, rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))


PRESETS = {
    "dead_router": _dead_router,
    "dead_router_empty": lambda n, rng: dead_router_device(n, []),
    "dead_router_duplicates": lambda n, rng: dead_router_device(
        n, [int(a) for a in rng.integers(0, 1 << n, size=3)] * 2),
    "depolarizing": lambda n, rng: global_depolarizing_device(
        n, float(rng.choice([0.0, 1.0, rng.uniform()]))),
    "dephasing": lambda n, rng: dephasing_device(
        n, float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))),
    "coherent": lambda n, rng: coherent_rotation_device(n, float(rng.uniform(-np.pi, np.pi))),
}

ENCODINGS = {
    "none": lambda n, rng: None,
    "random_tail": lambda n, rng: EncodingNoise.random_tail(n, float(rng.uniform(0.5, 1.0)), rng),
    "depolarizing": lambda n, rng: EncodingNoise.depolarizing(n, float(rng.uniform(0, 0.9))),
}


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("kind", sorted(PRESETS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@settings(derandomize=True, database=None, max_examples=2, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_structured_noise_matches_kraus(n, kind, encoding, seed):
    # real +-1/sqrt(d) states (the twirled resource states) and one complex state
    rng = np.random.default_rng(seed)
    d = 1 << n
    dev = PRESETS[kind](n, rng)
    enc = ENCODINGS[encoding](n, rng)
    real = (1.0 - 2.0 * rng.integers(0, 2, size=(3, d))) / np.sqrt(d)
    cplx = rng.normal(size=d) + 1j * rng.normal(size=d)
    for psi in (real, (cplx / np.linalg.norm(cplx))[None]):
        got = dev.post_noise.on_states(psi)
        if enc is not None:
            got = pauli_channel(enc.table, got)
        if kind != "coherent" and np.isrealobj(psi):
            assert np.isrealobj(got)
        for state, out in zip(psi, got):
            expect = apply_kraus(dev.post_noise.kraus, np.outer(state, state.conj()))
            if enc is not None:
                expect = apply_kraus(encoding_channel(enc, n).kraus, expect)
            assert np.abs(out - expect).max() <= 1e-12


def _random_kraus(n, rng):
    d = 1 << n
    q, _ = np.linalg.qr(rng.normal(size=(3 * d, d)) + 1j * rng.normal(size=(3 * d, d)))
    return custom_kraus_device(n, [q[i * d:(i + 1) * d] for i in range(3)])


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("kind", sorted(PRESETS) + ["kraus"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(derandomize=True, database=None, max_examples=2, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_factors_match_kraus(n, kind, encoding, seed):
    # sum_r phi_r phi_r' + mass I/d from ``factors``, then ``pauli_factors``,
    # is the Kraus action, with num_factors times T factors per state
    rng = np.random.default_rng(seed)
    d = 1 << n
    dev = (_random_kraus if kind == "kraus" else PRESETS[kind])(n, rng)
    enc = ENCODINGS[encoding](n, rng)
    noise = dev.post_noise
    real = (1.0 - 2.0 * rng.integers(0, 2, size=(3, d))) / np.sqrt(d)
    cplx = rng.normal(size=d) + 1j * rng.normal(size=d)
    for psi in (real, (cplx / np.linalg.norm(cplx))[None]):
        phi, mass = noise.factors(psi)
        rank = noise.num_factors
        if enc is not None:
            phi, mass = pauli_factors(enc.table, phi, mass)
            rank *= np.count_nonzero(pauli_floor(enc.table)[1])
        assert phi.shape == (len(psi), rank, d) and mass.shape == (len(psi),)
        if kind not in ("coherent", "kraus") and np.isrealobj(psi):
            assert np.isrealobj(phi)
        got = phi.transpose(0, 2, 1) @ phi.conj() + mass[:, None, None] * np.eye(d) / d
        for state, out in zip(psi, got):
            expect = apply_kraus(noise.kraus, np.outer(state, state.conj()))
            if enc is not None:
                expect = apply_kraus(encoding_channel(enc, n).kraus, expect)
            assert np.abs(out - expect).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_channel_floor_matches_superoperator(n):
    # EncodingNoise.depolarizing puts every Pauli but the identity on its
    # floor q/d^2, so pauli_channel visits one X-pattern and adds the floor
    # as q tr(rho) I/d; a table with a floor under several Paulis as well
    rng = np.random.default_rng(40 + n)
    d = 1 << n
    rho = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    floor = rng.uniform(0.1, 1.0) * np.ones((d, d))
    floor[rng.integers(0, d, size=4), rng.integers(0, d, size=4)] += rng.uniform(size=4)
    depolarizing = EncodingNoise.depolarizing(n, float(rng.uniform(0, 0.9)))
    for w, kraus in ((depolarizing.table, encoding_channel(depolarizing, n).kraus),
                     (floor, [np.sqrt(floor[a, b]) * pauli_matrix(PauliString(n, 0, a, b))
                              for a in range(d) for b in range(d)])):
        sup = sum(np.kron(k, k.conj()) for k in kraus)
        expect = (rho.reshape(3, d * d) @ sup.T).reshape(3, d, d)
        assert np.abs(pauli_channel(w, rho) - expect).max() <= 1e-12
        assert pauli_floor(w)[0] == w.min()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_preset_chi_matches_pauli_weights(n):
    rng = np.random.default_rng(n)
    d = 1 << n
    devices = [dead_router_device(n, []), dead_router_device(n, range(d)),
               dead_router_device(n, [0, 0, d - 1]), _dead_router(n, rng)]
    devices += [global_depolarizing_device(n, p) for p in (0.0, 1.0, rng.uniform())]
    devices += [dephasing_device(n, p) for p in (0.0, 0.5, 1.0, rng.uniform())]
    for dev in devices:
        noise = dev.post_noise
        assert np.abs(noise.chi - pauli_weights(noise.kraus, n)).max() <= 1e-12


def test_preset_equality_builds_no_kraus_list():
    devices = [dead_router_device(6, range(64)), global_depolarizing_device(6, 0.1),
               dephasing_device(6, 0.2)]
    again = [dead_router_device(6, range(64)), global_depolarizing_device(6, 0.1),
             dephasing_device(6, 0.2)]
    assert devices == again
    assert len({*devices, *again}) == 3
    assert dead_router_device(6, [1]) != dead_router_device(6, [2])
    assert global_depolarizing_device(6, 0.1) != dephasing_device(6, 0.1)
    assert global_depolarizing_device(5, 0.1) != global_depolarizing_device(6, 0.1)
    assert all("kraus" not in vars(dev.post_noise) for dev in devices + again)


def test_preset_kraus_list_is_lazy_and_cached():
    g = DataTable.from_string("01101001")
    for dev in (dead_router_device(3, [2, 5]), global_depolarizing_device(3, 0.3),
                dephasing_device(3, 0.2)):
        noise = dev.post_noise
        rho = noisy_resource_state(dev, g)
        assert "kraus" not in vars(noise)
        assert noise.kraus is noise.kraus
        dense = noise.apply(pure_density(resource_state(g)))
        assert np.abs(dense.matrix - rho.matrix).max() <= 1e-12
        assert pauli_twirl_channel(noise).chi_II == pytest.approx(noise.chi[0, 0], abs=1e-15)
