"""Teleportation channels, the adaptive protocol, hierarchy check, costs."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qramsim import teleport
from qramsim.boolfn import (
    NEG_INF,
    DataTable,
    SignedDataTable,
    degree,
    degree_signed,
    hat_function,
    shift,
    update_rule,
    update_rule_signed,
)
from qramsim.cli import _build_dataset, _build_device, cmd_teleport_run
from qramsim.device import (
    DeadRouterNoise,
    EncodingNoise,
    coherent_rotation_device,
    dead_router_device,
    dephasing_device,
    global_depolarizing_device,
    noiseless_device,
    noisy_resource_state,
)
from qramsim.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvariantViolation,
    PreconditionError,
    SizeCapError,
)
from qramsim.qcore import (
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    plus_state,
    pure_density,
    qram_unitary,
    resource_state,
    trace_distance,
)
from qramsim.rngutil import derive_rng
from qramsim.teleport import (
    ComposedChannel,
    DistillerSpec,
    ProtocolConfig,
    branch_multiplier,
    choi_gap,
    estimate_costs,
    run_protocol,
    verify_clifford_hierarchy,
)
from qramsim.twirlset import exact_twirl_coefficients, twirled_state

from oracles import (
    choi,
    measure_computational,
    partial_trace,
    tensor,
)


def random_density(n, rng):
    d = 1 << n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m))


# ---------------------------------------------------------------------------
# Dense teleportation oracles: the 2n-qubit circuit and the Kraus channels
# that the closed form (branch_multiplier, choi_gap, teleport-run) replaces.

def ideal_teleport_channel(g: DataTable) -> QuantumChannel:
    """The mixture over outcomes m of applying the m-shifted dataset phase,
    with m recorded in a classical register above the data qubits."""
    n = g.n
    d = 1 << n
    kraus = []
    scale = 1.0 / np.sqrt(d)
    for m in range(d):
        diag = qram_unitary(shift(g, m))
        op = np.zeros((d * d, d), dtype=np.complex128)
        op[m * d + np.arange(d), np.arange(d)] = scale * diag
        kraus.append(op)
    return QuantumChannel(n, 2 * n, tuple(kraus))


def teleport_channel_from_resource(phi: DensityMatrix) -> QuantumChannel:
    """Teleportation with an arbitrary resource state, as a Kraus channel.

    Decomposing phi into eigenvectors v_i, the Kraus operator for outcome m
    and component i is sqrt(q_i) diag_x(v_i[x xor m]) stacked under |m>.
    """
    n = phi.num_qubits
    d = 1 << n
    vals, vecs = np.linalg.eigh(phi.matrix)
    keep = vals > 1e-14
    vals, vecs = vals[keep], vecs[:, keep]
    kraus = []
    x = np.arange(d)
    for m in range(d):
        for i in range(vecs.shape[1]):
            op = np.zeros((d * d, d), dtype=np.complex128)
            op[m * d + x, x] = np.sqrt(vals[i]) * vecs[x ^ m, i]
            kraus.append(op)
    return QuantumChannel(n, 2 * n, tuple(kraus))


def teleport_once(rho_addr: DensityMatrix, resource: DensityMatrix,
                  rng: np.random.Generator) -> tuple[int, DensityMatrix]:
    """Dense teleportation circuit: tensor the registers, apply the
    transversal CNOTs (address controls, resource targets), measure the
    resource register, and return (outcome, post address state)."""
    n = rho_addr.num_qubits
    if resource.num_qubits != n:
        raise DimensionMismatchError("register sizes differ")
    joint = tensor(rho_addr, resource)
    d = 1 << n
    z = np.arange(d * d)
    addr, res = z % d, z // d
    perm = addr + d * (res ^ addr)  # CNOT fan: resource bit k ^= address bit k
    mat = joint.matrix[np.ix_(perm, perm)]
    post = DensityMatrix(2 * n, mat)
    outcomes = measure_computational(post, range(n, 2 * n))
    probs = np.array([p for _, p, _ in outcomes])
    m = int(rng.choice(len(outcomes), p=probs / probs.sum()))
    collapsed = outcomes[m][2]
    return m, partial_trace(collapsed, range(n))


def test_ideal_teleport_channel_zero_dataset():
    g = DataTable.zero(2)
    ch = ideal_teleport_channel(g)
    rng = np.random.default_rng(0)
    rho = random_density(2, rng)
    out = apply_channel(ch, rho)
    # data register untouched, outcome register uniform
    kept = np.zeros((4, 4), dtype=complex)
    for m in range(4):
        block = out.matrix[m * 4:(m + 1) * 4, m * 4:(m + 1) * 4]
        assert abs(np.trace(block).real - 0.25) < 1e-12
        kept += block
    assert np.abs(kept - rho.matrix).max() < 1e-12


def test_ideal_teleport_channel_minus_state():
    # teleporting the one-qubit sign dataset applies Z on both branches
    g = DataTable.from_string("01")
    ch = ideal_teleport_channel(g)
    rng = np.random.default_rng(1)
    rho = random_density(1, rng)
    out = apply_channel(ch, rho)
    z = np.diag([1.0, -1.0])
    expect = z @ rho.matrix @ z
    total = out.matrix[:2, :2] + out.matrix[2:, 2:]
    assert np.abs(total - expect).max() < 1e-12


def test_ideal_teleport_channel_marginal_formula():
    rng = np.random.default_rng(2)
    g = DataTable.random(2, rng)
    rho = random_density(2, rng)
    out = apply_channel(ideal_teleport_channel(g), rho)
    acc = np.zeros((4, 4), dtype=complex)
    for m in range(4):
        diag = qram_unitary(shift(g, m))
        acc += 0.25 * np.outer(diag, diag) * rho.matrix
        block = out.matrix[m * 4:(m + 1) * 4, m * 4:(m + 1) * 4]
        expect = 0.25 * np.outer(diag, diag) * rho.matrix
        assert np.abs(block - expect).max() < 1e-12


def test_teleport_once_perfect_resource():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        g = DataTable.random(n, rng)
        resource = pure_density(resource_state(g))
        rho = random_density(n, rng)
        m, out = teleport_once(rho, resource, rng)
        diag = qram_unitary(shift(g, m))
        expect = np.outer(diag, diag) * rho.matrix
        assert np.abs(out.matrix - expect).max() < 1e-10


def test_teleport_once_outcome_uniformity():
    # uniform outcomes for every pure resource dataset and every input state
    rng = np.random.default_rng(4)
    for n in (1, 2):
        d = 1 << n
        z = np.arange(d * d)
        addr, res = z % d, z // d
        perm = addr + d * (res ^ addr)
        for _ in range(8):
            g = DataTable.random(n, rng)
            resource = pure_density(resource_state(g))
            rho = random_density(n, rng)
            joint = tensor(rho, resource)
            post = DensityMatrix(2 * n, joint.matrix[np.ix_(perm, perm)])
            outcomes = measure_computational(post, range(n, 2 * n))
            assert all(abs(p - 1 / d) < 1e-12 for _, p, _ in outcomes)


def test_teleport_once_maximally_mixed_resource():
    rng = np.random.default_rng(5)
    mixed = DensityMatrix(2, np.eye(4) / 4)
    rho = random_density(2, rng)
    outs = []
    for g in (DataTable.zero(2), DataTable.random(2, rng)):
        _, out = teleport_once(rho, mixed, np.random.default_rng(9))
        outs.append(out.matrix)
    assert np.abs(outs[0] - outs[1]).max() < 1e-12


def test_branch_multiplier_matches_channel():
    rng = np.random.default_rng(6)
    phi = random_density(2, rng)
    rho = random_density(2, rng)
    ch = teleport_channel_from_resource(phi)
    out = apply_channel(ch, rho)
    for m in range(4):
        block = out.matrix[m * 4:(m + 1) * 4, m * 4:(m + 1) * 4]
        expect = branch_multiplier(phi.matrix, m) * rho.matrix
        assert np.abs(block - expect).max() < 1e-12


def test_choi_gap_perfect_resource_and_bound():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        g = DataTable.random(n, rng)
        perfect = pure_density(resource_state(g))
        assert choi_gap(perfect, g) < 1e-12
        for _ in range(10):
            phi = random_density(n, rng)
            gap = choi_gap(phi, g)
            dist = trace_distance(perfect, phi)
            assert gap <= dist + 1e-9


def test_choi_gap_mixed_resource_strictly_positive():
    g = DataTable.from_string("0110")
    mixed = DensityMatrix(2, np.eye(4) / 4)
    assert choi_gap(mixed, g) > 0.1


def _oracle_resource(kind, g, rng):
    n = g.n
    d = 1 << n
    if kind == "pure":  # the ideal resource of g, or of another dataset
        h = g if rng.integers(2) else DataTable.random(n, rng)
        return pure_density(resource_state(h))
    if kind == "random_rank":
        raw = rng.normal(size=(d, int(rng.integers(1, d + 1))))
        raw = raw + 1j * rng.normal(size=raw.shape)
        mat = raw @ raw.conj().T
        return DensityMatrix(n, mat / np.trace(mat))
    dead = [int(a) for a in rng.choice(d, size=int(rng.integers(1, d + 1)),
                                       replace=False)]
    device = dead_router_device(n, dead)
    if kind == "dead_router":
        return noisy_resource_state(device, g)
    return twirled_state(g, device, mode="exact").state


# The dense-oracle property tests skip hypothesis's shrink phase: each
# candidate re-runs the oracle, so shrinking a failure took minutes.
@pytest.mark.parametrize("kind", ["pure", "random_rank", "dead_router",
                                  "exact_twirl"])
@settings(derandomize=True, database=None, max_examples=6, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_choi_gap_matches_dense_choi_oracle(kind, n, seed):
    rng = np.random.default_rng(seed)
    g = DataTable.random(n, rng)
    phi = _oracle_resource(kind, g, rng)
    dense = trace_distance(choi(ideal_teleport_channel(g)),
                           choi(teleport_channel_from_resource(phi)))
    assert abs(choi_gap(phi, g) - dense) <= 1e-12


def test_choi_gap_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        choi_gap(DensityMatrix(2, np.eye(4) / 4), DataTable.zero(3))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("device", [None, "dead_router", "coherent"])
@pytest.mark.parametrize("seed", [0, 7])
def test_teleport_run_matches_circuit_oracle(n, device, seed):
    config = {"n": n, "dataset": {"random_seed": seed + 1}, "trials": 150}
    if device == "dead_router":
        config["device"] = {"type": "dead_router", "addresses": [0, (1 << n) - 1]}
    elif device == "coherent":
        config["device"] = {"type": "coherent", "theta": 0.4}
    payload = cmd_teleport_run(config, seed)

    g = _build_dataset(config["dataset"], n, seed)
    dev = _build_device(config.get("device"), n)
    resource = (pure_density(resource_state(g)) if dev is None
                else noisy_resource_state(dev, g))
    rng = derive_rng(seed, 0x7E1E)
    probe = pure_density(plus_state(n))
    counts = {}
    for _ in range(config["trials"]):
        key = format(teleport_once(probe, resource, rng)[0], "x")
        counts[key] = counts.get(key, 0) + 1
    assert payload["outcome_counts"] == counts
    dense = trace_distance(choi(ideal_teleport_channel(g)),
                           choi(teleport_channel_from_resource(resource)))
    assert abs(payload["choi_gap"] - dense) <= 1e-12


def test_correction_identity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = DataTable.random(n, rng)
        m = int(rng.integers(1 << n))
        h = update_rule(g, m)
        lhs = qram_unitary(h) * qram_unitary(shift(g, m))
        assert np.array_equal(lhs, qram_unitary(g))


def test_protocol_noiseless_enumeration_n3():
    rng = np.random.default_rng(9)
    cfg = ProtocolConfig(n=3, branch_mode="enumerate_branches")
    for _ in range(5):
        f = DataTable.random(3, rng)
        record, trace = run_protocol(f, cfg)
        assert isinstance(record, ComposedChannel)
        assert record.choi_gap <= 1e-10
        assert record.rounds_used <= 3
        assert trace.strictly_decreasing_degrees()


def test_protocol_constant_dataset_zero_rounds():
    cfg = ProtocolConfig(n=2, branch_mode="enumerate_branches")
    record, trace = run_protocol(DataTable.ones(2), cfg)
    assert record.rounds_used == 0
    assert record.choi_gap <= 1e-12
    assert trace.rounds == []


def test_protocol_bbit_enumeration():
    rng = np.random.default_rng(10)
    cfg = ProtocolConfig(n=2, b=2, branch_mode="enumerate_branches")
    for _ in range(3):
        f = SignedDataTable.random(2, 2, rng)
        record, trace = run_protocol(f, cfg)
        assert record.choi_gap <= 1e-10
        assert record.rounds_used <= 3


def test_data_load_unitary_is_unitary_and_correct():
    rng = np.random.default_rng(11)
    f = SignedDataTable.random(2, 2, rng)
    u = data_load_unitary(f)
    assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-12
    for x in range(4):
        for bus in range(4):
            col = u[:, x + 4 * bus]
            nz = np.flatnonzero(np.abs(col) > 0.5)
            assert len(nz) == 1
            assert nz[0] == x + 4 * (bus ^ f.data_value(x))


@pytest.mark.parametrize("n, b", [(n, b) for b in range(1, 6) for n in range(1, 7 - b)])
def test_bus_frame_turns_data_load_into_phase_unitary(n, b):
    # phase kickback: the bus Hadamards carry the data-load unitary to the
    # phase unitary of the flattened table, which enumeration composes
    rng = np.random.default_rng(n * 8 + b)
    for _ in range(3):
        f = SignedDataTable.random(n, b, rng)
        w = _bus_frame(f)
        phase = np.diag(qram_unitary(hat_function(f)))
        assert np.abs(w @ data_load_unitary(f) @ w - phase).max() < 1e-15


def test_protocol_trajectory_noiseless():
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(1, 5))
        f = DataTable.random(n, rng)
        cfg = ProtocolConfig(n=n, branch_mode="trajectory", seed=trial)
        action, trace = run_protocol(f, cfg, trial=trial)
        assert action.matches
        assert action.max_deviation < 1e-9
        assert trace.strictly_decreasing_degrees()
        assert len(trace.rounds) <= n
        assert trace.terminal_constant in (0, 1)
        if trace.rounds:
            assert trace.total_copies == len(trace.rounds)
            assert trace.gates_used == len(trace.rounds) * (n + n)


def test_protocol_trajectory_bbit_noiseless():
    rng = np.random.default_rng(16)
    cfg = ProtocolConfig(n=2, b=1, branch_mode="trajectory", seed=4)
    for trial in range(5):
        f = SignedDataTable.random(2, 1, rng)
        action, trace = run_protocol(f, cfg, trial=trial)
        assert action.matches
        assert action.max_deviation < 1e-9
        assert len(trace.rounds) <= 3  # degree of the flattened table <= n+1
        assert trace.strictly_decreasing_degrees()


@pytest.mark.parametrize("n,b", [(2, 1), (3, 1), (2, 2)])
def test_signed_trajectory_follows_signed_update(n, b):
    # replay each recorded outcome through the signed update rule from f: the
    # protocol runs on the flattened table, the replay never flattens it
    rng = np.random.default_rng(40 + 10 * n + b)
    cfg = ProtocolConfig(n=n, b=b, branch_mode="trajectory", seed=7)
    for trial in range(6):
        f = SignedDataTable.random(n, b, rng)
        _, trace = run_protocol(f, cfg, trial=trial)
        current = f
        for record in trace.rounds:
            assert degree_signed(current) == record.degree_before
            current = update_rule_signed(current, record.m_outcome)
        assert degree_signed(current) in (NEG_INF, 0)
        assert all(p.bits == 0 for p in current.f_data)
        assert trace.terminal_constant == (1 if current.f_sign.bits else 0)


def test_protocol_trajectory_trace_serialization():
    f = DataTable.from_string("01101001")
    cfg = ProtocolConfig(n=3, branch_mode="trajectory", seed=5)
    _, trace = run_protocol(f, cfg)
    payload = trace.to_json()
    assert "rounds" in payload


@pytest.mark.parametrize("twirl_mode", ["off", "mc"])
def test_trajectory_overlap_is_largest_resource_eigenvalue(twirl_mode):
    # without a distiller the overlap comes from the trajectory's own eigh;
    # replay each round's resource and compare with its eigvalsh
    rng = np.random.default_rng(23)
    f = DataTable.random(3, rng)
    cfg = ProtocolConfig(n=3, device=dead_router_device(3, [2, 5]),
                         encoding=EncodingNoise.random_tail(3, 0.9, rng),
                         twirl_mode=twirl_mode,
                         twirl_samples=500 if twirl_mode == "mc" else None,
                         seed=11, branch_mode="trajectory")
    for trial in range(4):
        _, trace = run_protocol(f, cfg, trial=trial)
        table = f
        assert trace.rounds
        for r, record in enumerate(trace.rounds):
            rho = teleport._resource_density(cfg, table, (trial, r)).matrix
            assert abs(record.overlap - np.linalg.eigvalsh(rho)[-1]) <= 1e-12
            table = update_rule(table, record.m_outcome)


def test_enumeration_without_distiller_runs_no_eigvalsh():
    # the kernel DP discards the overlap, so composing the datasets of a
    # twirl-off run without a distiller takes no eigendecomposition; the
    # Choi gap's trace distance is the run's only eigvalsh
    eigvalsh, trace_distance = np.linalg.eigvalsh, teleport.trace_distance
    calls, before_gap = [], []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    def gap(a, b):
        before_gap.append(len(calls))
        return trace_distance(a, b)

    f = DataTable.random(4, np.random.default_rng(5))
    cfg = ProtocolConfig(n=4, device=dead_router_device(4, [3, 9]),
                         branch_mode="enumerate_branches")
    with mock.patch.object(np.linalg, "eigvalsh", counted), \
            mock.patch.object(teleport, "trace_distance", gap):
        record, _ = run_protocol(f, cfg)
    assert before_gap == [0]
    assert len(calls) == 1
    assert 0 < record.choi_gap < 1


def test_protocol_enumeration_cap():
    cfg = ProtocolConfig(n=6, b=1, branch_mode="enumerate_branches")
    with pytest.raises(SizeCapError):
        run_protocol(SignedDataTable.random(6, 1, np.random.default_rng(0)), cfg)


def test_protocol_error_budget_linear_accumulation():
    # per-round distillation error eps/n keeps the composed channel within
    # eps of the target (errors across rounds add at most linearly)
    eps = 0.02
    n = 2
    cfg = ProtocolConfig(
        n=n, branch_mode="enumerate_branches",
        device=dead_router_device(n, [1]),
        twirl_mode="exact",
        distiller=DistillerSpec(kind="swap_test", eps_dist=eps / n),
    )
    rng = np.random.default_rng(13)
    for _ in range(5):
        f = DataTable.random(n, rng)
        record, _ = run_protocol(f, cfg)
        assert record.choi_gap <= eps + 1e-9


def test_ideal_channel_equals_pure_resource_channel():
    rng = np.random.default_rng(14)
    for n in (1, 2):
        g = DataTable.random(n, rng)
        a = choi(ideal_teleport_channel(g))
        b = choi(teleport_channel_from_resource(pure_density(resource_state(g))))
        assert np.abs(a - b).max() < 1e-12


# The oracles walk datasets through the signed update rule, independently of
# the protocol, which runs on the flattened table.

def _flat_table(f):
    return hat_function(f) if isinstance(f, SignedDataTable) else f


def _flat_degree(f):
    return degree(_flat_table(f))


def data_load_unitary(f: SignedDataTable) -> np.ndarray:
    """|x>|u> -> (-1)^sign(x) |x>|u xor data(x)> as a dense matrix."""
    d = 1 << (f.n + f.b)
    size = 1 << f.n
    mat = np.zeros((d, d), dtype=np.complex128)
    for x in range(size):
        sgn = -1.0 if f.f_sign.value(x) else 1.0
        load = f.data_value(x)
        for u in range(1 << f.b):
            mat[x + size * (u ^ load), x + size * u] = sgn
    return mat


def _bus_frame(f):
    """The Hadamards on the bus of a b-bit dataset, bus qubits high, and the
    identity for plain data: real, symmetric and orthogonal."""
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    w = np.eye(1 << f.n)
    for _ in range(getattr(f, "b", 0)):
        w = np.kron(had, w)
    return w


def _load_frame_choi(f, kernel):
    """Choi matrix of the enumerated channel rho -> w ((w rho w) * kernel) w,
    w = _bus_frame(f): the kernel's channel carried to the data-load picture.
    Column s of the support is (w x w)|s, s>, reference register low."""
    w = _bus_frame(f)
    d = len(kernel)
    support = (w[:, None, :] * w[None, :, :]).reshape(d * d, d)
    return support @ kernel @ support.T / d


def _apply_update(f, m):
    if isinstance(f, SignedDataTable):
        return update_rule_signed(f, m)
    return update_rule(f, m)


def _adaptive_channel_brute_force(f, cfg):
    """Compose the adaptive channel from explicit per-outcome Kraus maps,
    fully independently of the enumeration fast path."""
    from qramsim.teleport import _distilled_state, _resource_density

    n = f.n
    d = 1 << n

    def channel_kraus(table):
        phi, _, _ = _distilled_state(cfg, _resource_density(cfg, table,
                                                            (table.bits, 0x3B1)),
                                     (table.bits, 0x3B1))
        vals, vecs = np.linalg.eigh(np.asarray(phi))
        keep = vals > 1e-14
        vals, vecs = vals[keep], vecs[:, keep]
        per_m = []
        x = np.arange(d)
        for m in range(d):
            ops = [np.diag(np.sqrt(v) * vecs[x ^ m, i])
                   for i, v in enumerate(vals)]
            per_m.append(ops)
        return per_m

    def compose(table):
        deg = _flat_degree(table)
        if deg == NEG_INF or deg == 0:
            return [np.eye(d, dtype=complex)]
        per_m = channel_kraus(table)
        out = []
        for m in range(d):
            tail = compose(update_rule(table, m))
            out.extend(t @ k for k in per_m[m] for t in tail)
        return out

    kraus = compose(f)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1 / np.sqrt(d)
    omega = np.outer(v, v.conj())
    acc = np.zeros_like(omega)
    for k in kraus:
        full = np.kron(k, np.eye(d))
        acc += full @ omega @ full.conj().T
    return acc


def test_enumeration_matches_brute_force_composition():
    rng = np.random.default_rng(15)
    noiseless = ProtocolConfig(n=2, branch_mode="enumerate_branches")
    noisy = ProtocolConfig(
        n=2, branch_mode="enumerate_branches",
        device=dead_router_device(2, [3]),
        twirl_mode="exact",
        distiller=DistillerSpec(kind="swap_test", eps_dist=0.05),
    )
    for cfg in (noiseless, noisy):
        for _ in range(3):
            f = DataTable.random(2, rng)
            record, _ = run_protocol(f, cfg)
            brute = _adaptive_channel_brute_force(f, cfg)
            assert np.abs(_load_frame_choi(f, record.kernel) - brute).max() < 1e-10


def _enumeration_oracle(f, cfg):
    """Branch enumeration by brute force: one d^2 x d^2 Choi matrix carried
    down every outcome path, conjugated by the bus Hadamards for b-bit data.
    Returns (Choi matrix, target Choi matrix, highest degree per depth)."""
    from qramsim.teleport import _distilled_state, _resource_density

    d = 1 << cfg.total_qubits

    def pipeline(current):
        table = _flat_table(current)
        stream = (table.bits, 0x3B1)
        phi, _, _ = _distilled_state(cfg, _resource_density(cfg, table, stream), stream)
        return np.asarray(phi)

    omega = np.zeros(d * d, dtype=complex)
    omega[np.arange(d) * (d + 1)] = 1 / np.sqrt(d)
    depth_degrees = {}

    def recurse(current, rho, depth):
        deg = _flat_degree(current)
        if deg == NEG_INF or deg == 0:
            return rho
        assert depth < cfg.round_limit
        depth_degrees[depth] = max(depth_degrees.get(depth, NEG_INF), deg)
        phi = pipeline(current)
        t4 = rho.reshape(d, d, d, d)  # (sys, ref, sys', ref')
        acc = np.zeros_like(rho)
        for m in range(d):
            factor = branch_multiplier(phi, m)
            branch = (t4 * factor[:, None, :, None]).reshape(d * d, d * d)
            acc += recurse(_apply_update(current, m), branch, depth + 1)
        return acc

    final = recurse(f, np.outer(omega, omega.conj()), 0)
    if isinstance(f, SignedDataTable):
        w = _bus_frame(f)
        full = np.kron(w, w)
        final = full @ final @ full.conj().T
        target_u = data_load_unitary(f)
    else:
        target_u = np.diag(qram_unitary(f).astype(complex))
    target_vec = (target_u / np.sqrt(d)).reshape(-1)
    degrees = [depth_degrees[k] for k in sorted(depth_degrees)]
    return final, np.outer(target_vec, target_vec.conj()), degrees


ORACLE_DEVICES = {
    "dead_router": lambda nq, rng: dead_router_device(nq, [int(rng.integers(1 << nq))]),
    "dephasing": lambda nq, rng: dephasing_device(nq, float(rng.uniform(0.12, 0.18))),
    "depolarizing": lambda nq, rng: global_depolarizing_device(nq, float(rng.uniform(0.3, 0.45))),
    "coherent": lambda nq, rng: coherent_rotation_device(
        nq, float(rng.choice([-1, 1]) * rng.uniform(0.55, 0.65) * np.sqrt(2 / nq))),
}

DISTILLERS = {
    "none": DistillerSpec(),
    "swap_test": DistillerSpec(kind="swap_test", eps_dist=0.05),
    "qpca_simple": DistillerSpec(kind="qpca_simple", eps_dist=0.2),
}


def _oracle_config(n, b, kind, rng, **overrides):
    """"noiseless", or "[device][+enc].distiller" with the exact twirl; the
    device defaults to a dead router on one address and "+enc" adds a
    random-tail encoding noise."""
    if kind == "noiseless":
        return ProtocolConfig(n=n, b=b, branch_mode="enumerate_branches")
    device, _, distiller = kind.rpartition(".")
    name = device.removesuffix("+enc") or "dead_router"
    nq = n + b
    dev = ORACLE_DEVICES[name](nq, rng)
    enc = (EncodingNoise.random_tail(nq, float(rng.uniform(0.95, 1.0)), rng)
           if device.endswith("+enc") else None)
    return ProtocolConfig(n=n, b=b, branch_mode="enumerate_branches", device=dev,
                          encoding=enc, twirl_mode="exact",
                          distiller=DISTILLERS[distiller], **overrides)


# a dead router on one of two addresses leaves a state neither distiller
# accepts, so the noisy configurations start at two register qubits; the
# bare distiller names are the dead router without encoding noise
ORACLE_KINDS = ["noiseless", "swap_test", "qpca_simple"] + [
    f"{device}{enc}.{distiller}" for device in ORACLE_DEVICES for enc in ("", "+enc")
    for distiller in DISTILLERS
    if (device, enc, distiller) not in {("dead_router", "", "swap_test"),
                                        ("dead_router", "", "qpca_simple")}]
ORACLE_CASES = [(n, b, kind)
                for n, b in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]
                for kind in ORACLE_KINDS
                if kind == "noiseless" or n + b > 1]


@pytest.mark.parametrize("n, b, kind", ORACLE_CASES)
@settings(derandomize=True, database=None, max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_enumeration_matches_oracle(n, b, kind, seed):
    rng = np.random.default_rng(seed)
    f = DataTable.random(n, rng) if b == 0 else SignedDataTable.random(n, b, rng)
    cfg = _oracle_config(n, b, kind, rng)
    record, trace = run_protocol(f, cfg)
    choi_ref, target_ref, degrees_ref = _enumeration_oracle(f, cfg)
    assert np.abs(_load_frame_choi(f, record.kernel) - choi_ref).max() < 1e-12
    assert abs(record.choi_gap - trace_distance(choi_ref, target_ref)) < 1e-12
    assert trace.degrees() == degrees_ref
    assert record.rounds_used == len(degrees_ref)


def _kernel_dp_on_exact_twirl(f, cfg):
    """The Schur-kernel enumeration run on the exact-twirl resources: the
    configuration asks for no twirl, so the kernel path runs, and the
    resource of each dataset is computed as if it had asked for the exact
    twirl."""
    real = teleport._resource_density

    def exact_resources(off_cfg, table, stream):
        return real(dataclasses.replace(off_cfg, twirl_mode="exact"), table, stream)

    with mock.patch.object(teleport, "_resource_density", exact_resources):
        return run_protocol(f, dataclasses.replace(cfg, twirl_mode="off"))


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(shape=st.sampled_from([(4, 0), (3, 1), (2, 2)]),
       device=st.sampled_from(sorted(ORACLE_DEVICES)), encoded=st.booleans(),
       distiller=st.sampled_from(sorted(DISTILLERS)), seed=st.integers(0, 2**32 - 1))
def test_scalar_enumeration_matches_kernel_dp(shape, device, encoded, distiller, seed):
    n, b = shape
    rng = np.random.default_rng(seed)
    f = DataTable.random(n, rng) if b == 0 else SignedDataTable.random(n, b, rng)
    kind = f"{device}{'+enc' if encoded else ''}.{distiller}"
    cfg = _oracle_config(n, b, kind, rng, seed=int(rng.integers(1 << 31)))

    def outcome(run):
        try:
            return run(f, cfg)
        except (BudgetExceededError, PreconditionError) as exc:
            return exc, None

    (scalar, scalar_trace), (dp, dp_trace) = (
        outcome(run_protocol), outcome(_kernel_dp_on_exact_twirl))
    if isinstance(dp, Exception):
        assert type(scalar) is type(dp) and str(scalar) == str(dp)
        return
    assert not isinstance(scalar, Exception)
    assert np.abs(scalar.kernel - dp.kernel).max() < 1e-12
    assert abs(scalar.choi_gap - dp.choi_gap) < 1e-12
    assert scalar_trace.degrees() == dp_trace.degrees()
    assert scalar.rounds_used == dp.rounds_used


def test_scalar_enumeration_budget_error_matches_kernel_dp():
    # a copy budget the swap test exceeds fails both paths alike
    rng = np.random.default_rng(23)
    f = DataTable.random(3, rng)
    cfg = _oracle_config(3, 0, "dephasing.swap_test", rng, copy_budget=4)
    for run in (run_protocol, _kernel_dp_on_exact_twirl):
        with pytest.raises(BudgetExceededError, match="copy budget exhausted"):
            run(f, cfg)


@pytest.mark.parametrize("n, gap", [(2, 0.7499999999999999), (3, 0.8928571428571428)])
def test_scalar_enumeration_negative_alpha_matches_kernel_dp(n, gap):
    # full dephasing gives alpha < 0, so psi's weight is the smallest entry
    # of the resource spectrum and sits last once the spectrum is sorted;
    # the gaps were recorded from the dense diagonal state's distillation
    device = dephasing_device(n, 1.0)
    assert exact_twirl_coefficients(device, None)[0] < 0
    f = DataTable.random(n, np.random.default_rng(41))
    cfg = ProtocolConfig(n=n, branch_mode="enumerate_branches", device=device,
                         twirl_mode="exact")
    (scalar, scalar_trace), (dp, dp_trace) = (
        run_protocol(f, cfg), _kernel_dp_on_exact_twirl(f, cfg))
    assert np.abs(scalar.kernel - dp.kernel).max() < 1e-12
    assert abs(scalar.choi_gap - dp.choi_gap) < 1e-12
    assert abs(scalar.choi_gap - gap) < 1e-12
    assert scalar_trace.degrees() == dp_trace.degrees() == [2, 1]


def _reachable(root: DataTable, round_limit: int):
    """Level-by-level pass over the distinct datasets the protocol reaches.

    Returns the highest degree at each depth where some branch still holds a
    nonconstant dataset, and the updated dataset of every outcome for each
    nonconstant dataset reached. A dataset can sit at several depths, so the
    degrees cannot come from the kernel memo.
    """
    depth_degrees: list[float] = []
    children: dict[DataTable, list[DataTable]] = {}
    level = {root}
    while True:
        degrees = {g: degree(g) for g in level}
        degrees = {g: deg for g, deg in degrees.items() if deg > 0}
        if not degrees:
            return depth_degrees, children
        if len(depth_degrees) >= round_limit:
            raise BudgetExceededError("round limit hit with nonconstant dataset")
        depth_degrees.append(max(degrees.values()))
        for g in degrees.keys() - children.keys():
            children[g] = [update_rule(g, m) for m in range(root.size)]
        level = {h for g in degrees for h in children[g]}


REACHABLE_SHAPES = [(n, b) for b in range(3) for n in range(1, 7 - b)]


@pytest.mark.parametrize("n, b", REACHABLE_SHAPES)
@settings(derandomize=True, database=None, max_examples=2, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_enumeration_depth_degrees_match_level_pass(n, b, seed):
    # the memo's per-dataset profiles give the level pass's degrees, also
    # where a dataset is reached at several depths; the kernel path is
    # checked on the small registers, where it is fast
    rng = np.random.default_rng(seed)
    f = DataTable.random(n, rng) if b == 0 else SignedDataTable.random(n, b, rng)
    cfg = ProtocolConfig(n=n, b=b, branch_mode="enumerate_branches")
    degrees, _ = _reachable(_flat_table(f), cfg.round_limit)
    configs = [cfg]
    if n + b <= 3:
        configs.append(dataclasses.replace(cfg, device=dead_router_device(n + b, [1])))
    for config in configs:
        record, trace = run_protocol(f, config)
        assert trace.degrees() == degrees
        assert record.rounds_used == len(degrees)


def _refuse(*args, **kwargs):
    raise AssertionError("an isotropic resource took a per-dataset dense path")


@pytest.mark.parametrize("kind", ["noiseless", "noiseless_device", "depolarizing",
                                  "swap_test", "coherent+enc.qpca_simple"])
def test_isotropic_enumeration_is_scalar(monkeypatch, kind):
    # no per-dataset twirled state, resource density, dense state or Schur
    # kernel when every resource is alpha psi psi' + beta I: under the exact
    # twirl, and without a twirl or encoding on a depolarizing device, where
    # it is (1 - p) psi psi' + p I/d
    rng = np.random.default_rng(29)
    f = SignedDataTable.random(2, 1, rng)
    if kind == "noiseless_device":
        cfg = ProtocolConfig(n=2, b=1, branch_mode="enumerate_branches",
                             device=noiseless_device(3))
    elif kind == "depolarizing":
        cfg = ProtocolConfig(n=2, b=1, branch_mode="enumerate_branches",
                             device=global_depolarizing_device(3, 0.2),
                             distiller=DISTILLERS["swap_test"])
    else:
        cfg = _oracle_config(2, 1, kind, rng)
    choi_ref, target_ref, degrees_ref = _enumeration_oracle(f, cfg)
    for name in ("twirled_state", "_resource_density", "branch_multiplier",
                 "DensityMatrix"):
        monkeypatch.setattr(teleport, name, _refuse)
    # nor an eigendecomposition: the copy source is built from the spectrum
    monkeypatch.setattr(teleport.CopySource, "from_density", _refuse)
    record, trace = run_protocol(f, cfg)
    assert np.abs(_load_frame_choi(f, record.kernel) - choi_ref).max() < 1e-12
    assert abs(record.choi_gap - trace_distance(choi_ref, target_ref)) < 1e-12
    assert trace.degrees() == degrees_ref


@pytest.mark.parametrize("branch_mode", ["trajectory", "enumerate_branches"])
@pytest.mark.parametrize("twirl_mode", ["off", "exact", "mc"])
def test_config_checks_register_sizes(branch_mode, twirl_mode):
    # the device and the encoding act on all n + b qubits, and a twirl needs
    # a device; the configuration refuses anything else before a run
    base = dict(n=2, b=1, branch_mode=branch_mode, twirl_mode=twirl_mode, twirl_samples=10)
    rng = np.random.default_rng(31)
    good = ProtocolConfig(**base, device=dead_router_device(3, [1]),
                          encoding=EncodingNoise.random_tail(3, 0.98, rng))
    run_protocol(SignedDataTable.random(2, 1, rng), good)
    with pytest.raises(DimensionMismatchError):
        ProtocolConfig(**base, device=dead_router_device(2, [1]))
    with pytest.raises(DimensionMismatchError):
        ProtocolConfig(**base, device=dead_router_device(4, [1]))
    with pytest.raises(DimensionMismatchError):
        ProtocolConfig(**base, device=dead_router_device(3, [1]),
                       encoding=EncodingNoise.random_tail(2, 0.98, rng))
    if twirl_mode == "off":
        ProtocolConfig(**base)
    else:
        with pytest.raises(PreconditionError, match="requires a device"):
            ProtocolConfig(**base)


def test_scalar_enumeration_n6_pinned_gap():
    # the scalar path at the register cap: the Choi gap was recorded once
    # from the Schur-kernel enumeration on the same input (778 reachable
    # datasets, about 2 s)
    f = DataTable(6, 0xF07FB5C364BBC6D3)
    cfg = ProtocolConfig(n=6, branch_mode="enumerate_branches",
                         device=dead_router_device(6, [5, 22, 47]), twirl_mode="exact",
                         distiller=DistillerSpec(kind="swap_test", eps_dist=0.05))
    record, trace = run_protocol(f, cfg)
    assert abs(record.choi_gap - 0.17169016461236278) < 1e-12
    assert trace.degrees() == [4, 3, 2, 1]
    assert record.rounds_used == 4


@pytest.mark.parametrize("n, b", [(5, 0), (4, 1)])
def test_protocol_noiseless_enumeration_large(n, b):
    rng = np.random.default_rng(17)
    f = DataTable.random(n, rng) if b == 0 else SignedDataTable.random(n, b, rng)
    cfg = ProtocolConfig(n=n, b=b, branch_mode="enumerate_branches")
    record, trace = run_protocol(f, cfg)
    assert record.choi_gap <= 1e-10
    assert 0 < record.rounds_used <= cfg.round_limit
    assert trace.strictly_decreasing_degrees()


def test_enumeration_streams_cover_wide_tables(monkeypatch):
    # at n=6 the table is 64 bits wide; x1 x2 x6 and every dataset reached
    # through an outcome with m6 = 0 vanish on the 32 addresses with x6 = 0
    seeds = {}

    def recording_twirl(table, device, **kwargs):
        seeds[table] = kwargs["seed"]
        return SimpleNamespace(state=pure_density(resource_state(table)))

    monkeypatch.setattr(teleport, "twirled_state", recording_twirl)
    f = DataTable.from_array([(x & 1) * ((x >> 1) & 1) * ((x >> 5) & 1)
                              for x in range(64)])
    cfg = ProtocolConfig(n=6, branch_mode="enumerate_branches",
                         device=dead_router_device(6, [0]), twirl_mode="mc",
                         twirl_samples=1)
    record, _ = run_protocol(f, cfg)
    assert record.choi_gap <= 1e-10
    low_zero = [t for t in seeds if t.bits & 0xFFFFFFFF == 0]
    assert len(low_zero) >= 2
    assert len({seeds[t] for t in low_zero}) == len(low_zero)


def test_protocol_checks_invariants_in_both_modes(monkeypatch):
    # a noise model whose output has trace 2 is caught inside the protocol,
    # not only when a caller builds a state by hand
    real = DeadRouterNoise.on_states
    monkeypatch.setattr(DeadRouterNoise, "on_states", lambda self, psi: 2 * real(self, psi))
    f = DataTable.from_string("0001")
    for mode in ("trajectory", "enumerate_branches"):
        cfg = ProtocolConfig(n=2, branch_mode=mode, device=dead_router_device(2, [1]))
        with pytest.raises(InvariantViolation):
            run_protocol(f, cfg)


def test_round_limit_bounds_every_run():
    # the flattened table has degree at most round_limit (n + 1 when b >= 1,
    # n when b = 0) and every update lowers it, so no run takes more rounds
    tables = [DataTable(n, bits) for n in (1, 2, 3) for bits in range(1 << (1 << n))]
    rng = np.random.default_rng(53)
    tables += [SignedDataTable.random(n, b, rng)
               for b in range(1, 6) for n in range(1, 7 - b) for _ in range(20)]
    for f in tables:
        cfg = ProtocolConfig(n=f.n, b=getattr(f, "b", 0))
        table = _flat_table(f)
        deg = degree(table)
        assert deg <= cfg.round_limit
        if deg > 0:
            assert all(degree(update_rule(table, m)) < deg for m in range(table.size))


def test_config_validation():
    with pytest.raises(PreconditionError):
        ProtocolConfig(n=2, branch_mode="both")
    with pytest.raises(PreconditionError):
        DistillerSpec(kind="swap_test", eps_dist=0.0)


def test_clifford_hierarchy_levels():
    # linear datasets realize Pauli-Z strings
    assert verify_clifford_hierarchy(DataTable.from_string("0110")) == 1
    assert verify_clifford_hierarchy(DataTable.from_string("01")) == 1
    # the two-bit AND realizes CZ
    assert verify_clifford_hierarchy(DataTable.from_string("0001")) == 2
    # the three-bit AND sits at the third level
    and3 = DataTable.from_array([1 if x == 7 else 0 for x in range(8)])
    assert verify_clifford_hierarchy(and3) == 3
    with pytest.raises(SizeCapError):
        verify_clifford_hierarchy(DataTable.zero(4))


def test_estimate_costs():
    est = estimate_costs(4, 0, 1.0, 0.1)
    assert est.queries == 0
    est = estimate_costs(16, 512, 0.5, 0.01)
    assert est.nonclifford == pytest.approx(16**2 * 528 / (2 * 0.01))
    base = estimate_costs(5, 0, 0.7, 0.05)
    wide = estimate_costs(5, 7, 0.7, 0.05)
    assert wide.gates / base.gates == pytest.approx((5 + 7) ** 2 / 25)
    with pytest.raises(PreconditionError):
        estimate_costs(4, 0, 0.0, 0.1)


@pytest.mark.parametrize("fidelity", [1e-300, 1e-160])
def test_estimate_costs_outside_float_range(fidelity):
    # fidelity**2 underflows to 0.0 at 1e-300, and the queries overflow to
    # infinity at 1e-160
    with pytest.raises(SizeCapError, match="float range"):
        estimate_costs(4, 0, fidelity, 0.1)
