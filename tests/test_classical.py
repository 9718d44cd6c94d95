"""Update-rule engines, shallow circuit structure, WH transform reductions."""

import numpy as np
import pytest

from qramsim import classical
from qramsim.boolfn import DataTable, update_rule
from qramsim.classical import (
    COPY,
    ClassicalCircuit,
    CountingEngine,
    _character,
    build_shallow_ur_circuit,
    circuit_metrics,
    fwht,
    fwht_via_ur,
    simulate_circuit,
    simulate_circuit_batch,
    ur_naive,
    ur_via_fwht,
)
from qramsim.errors import DimensionMismatchError, PreconditionError

from oracles import (
    gate_layers_wire_length,
    oracle_fwht,
    oracle_parity,
    shallow_ur_gate_layers,
    simulate_gate_layers,
    wh_factor,
)


def test_ur_naive_matches_definition():
    rng = np.random.default_rng(0)
    g = DataTable.random(20, rng)
    m = int(rng.integers(1 << 20))
    h = ur_naive(g, m)
    for x in rng.integers(0, 1 << 20, size=50):
        x = int(x)
        assert h.value(x) == g.value(x) ^ g.value(x ^ m)
    assert ur_naive(g, 0) == DataTable.zero(20)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_triple_equality_exhaustive(n):
    size = 1 << n
    circ = build_shallow_ur_circuit(n)
    all_g = np.arange(1 << size)
    tables = ((all_g[:, None] >> np.arange(size)) & 1).astype(np.uint8)
    for m in range(size):
        shifted = tables[:, np.arange(size) ^ m]
        expected = tables ^ shifted
        m_bits = np.tile([(m >> i) & 1 for i in range(n)], (len(all_g), 1))
        got = simulate_circuit_batch(circ, tables, m_bits)
        assert np.array_equal(got, expected)
        # fwht engine on a sample of datasets per m
        for bits in (0, 1, (1 << size) - 1, int(all_g[-1] // 3)):
            g = DataTable(n, bits)
            assert ur_via_fwht(g, m) == ur_naive(g, m)


def test_triple_equality_randomized():
    rng = np.random.default_rng(1)
    for n in range(5, 13):
        circ = build_shallow_ur_circuit(n)
        count = 30
        tables = rng.integers(0, 2, size=(count, 1 << n), dtype=np.uint8)
        m_vals = rng.integers(0, 1 << n, size=count)
        m_bits = ((m_vals[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        got = simulate_circuit_batch(circ, tables, m_bits)
        for row in range(count):
            g = DataTable.from_array(tables[row])
            m = int(m_vals[row])
            expected = ur_naive(g, m)
            assert DataTable.from_array(got[row]) == expected
            assert ur_via_fwht(g, m) == expected


def test_ur_via_fwht_default_width_reaches_n16():
    # the entries need 2n + 2 bits, more than 32 past n = 14; the default
    # width is the int64 arithmetic's own
    rng = np.random.default_rng(16)
    g = DataTable.random(16, rng)
    for m in (1, 0xBEEF, 0xFFFF):
        assert ur_via_fwht(g, m) == ur_naive(g, m)
    with pytest.raises(OverflowError):
        ur_via_fwht(g, 1, width=32)


def test_circuit_depth_formula():
    for n in range(2, 11):
        circ = build_shallow_ur_circuit(n)
        assert circuit_metrics(circ)["depth"] == 2 * n + 1


def test_circuit_width_and_guard():
    circ = build_shallow_ur_circuit(3)
    assert circ.width == 2 * 8 + 3 * 4
    with pytest.raises(PreconditionError):
        build_shallow_ur_circuit(13)


def test_circuit_intermediate_states_n3():
    # step-by-step action for n = 3, m = (1, 0, 1)
    n, m = 3, 0b101
    rng = np.random.default_rng(2)
    g = DataTable.random(n, rng)
    circ = build_shallow_ur_circuit(n)
    out, snaps = simulate_circuit(circ, g, m, record_steps=True)
    g_arr = g.to_array()
    work = circ.roles["work"]
    data = circ.roles["data"]
    # after layer 1 (copy layer): the working cells hold g
    assert np.array_equal(snaps[1][work], g_arr)
    # after the n-1 fan-out layers every outcome copy is populated
    fan = snaps[1 + (n - 1)]
    for i, block in enumerate(circ.roles["m_blocks"]):
        assert np.all(fan[block] == ((m >> i) & 1))
    # after swap sub-layer i the working cell for x holds g(x ^ m_<=i)
    x = np.arange(1 << n)
    for i in range(n):
        snap = snaps[1 + (n - 1) + i + 1]
        partial = m & ((1 << (i + 1)) - 1)
        assert np.array_equal(snap[work], g_arr[x ^ partial])
    # final layer adds the shifted copy into the data cells
    assert np.array_equal(snaps[-1][data], g_arr ^ g_arr[x ^ m])
    assert out == update_rule(g, m)


@pytest.mark.parametrize("n", range(1, 13))
def test_circuit_matches_gate_list_oracle(n):
    # the wire arrays hold the gate-by-gate circuit: same kinds, same cells
    # row by row, same wire length, same cell state after every layer
    circ = build_shallow_ur_circuit(n)
    width, layers, roles = shallow_ur_gate_layers(n)
    assert circ.width == width and len(circ.layers) == len(layers)
    for (kind, wires), gates in zip(circ.layers, layers):
        assert {g.kind for g in gates} == {kind}
        assert np.array_equal(wires, [g.wires for g in gates])
    for key in ("data", "work", "m_blocks"):
        assert np.array_equal(circ.roles[key], roles[key])
    assert circ.roles["n"] == n
    assert circuit_metrics(circ) == {
        "depth": len(layers), "width": width,
        "total_wire_length_1d": gate_layers_wire_length(layers, circ.positions)}
    rng = np.random.default_rng(100 + n)
    for _ in range(2):
        g = DataTable.random(n, rng)
        m = int(rng.integers(1 << n))
        out, snaps = simulate_circuit(circ, g, m, record_steps=True)
        expected = simulate_gate_layers(width, layers, roles, g.to_array(), m)
        assert len(snaps) == len(expected)
        for got, want in zip(snaps, expected):
            assert np.array_equal(got, want)
        assert out == update_rule(g, m)


def test_circuit_layer_checks():
    # two gates of one layer on a shared cell, a cell outside [0, width),
    # and a gate kind the simulator does not know
    pos = np.arange(4)
    with pytest.raises(PreconditionError):
        ClassicalCircuit(4, [(COPY, np.array([[0, 1], [1, 2]]))], pos)
    for cell in (4, -1):
        with pytest.raises(DimensionMismatchError):
            ClassicalCircuit(4, [(COPY, np.array([[0, cell]]))], pos)
    # a shared cell comes first when another cell is out of range, whether
    # the shared cell is inside or outside [0, width)
    for wires in ([[0, 1], [1, 9]], [[0, 9], [9, 1]], [[-1, 2], [3, -1]]):
        with pytest.raises(PreconditionError):
            ClassicalCircuit(4, [(COPY, np.array(wires))], pos)
    ClassicalCircuit(4, [(COPY, np.zeros((0, 2), dtype=np.int64))], pos)
    circ = build_shallow_ur_circuit(2)
    circ.layers[0] = ("NAND", circ.layers[0][1])
    with pytest.raises(PreconditionError, match="unknown gate kind"):
        simulate_circuit(circ, DataTable.zero(2), 1)


def test_wire_length_density_monotone():
    densities = []
    for n in range(4, 13):
        met = circuit_metrics(build_shallow_ur_circuit(n))
        densities.append(met["total_wire_length_1d"] / (met["width"] * met["depth"]))
    assert all(b > a for a, b in zip(densities, densities[1:]))


def test_fwht_involution_and_delta():
    rng = np.random.default_rng(3)
    for n in (1, 3, 6):
        v = rng.integers(-50, 50, size=1 << n)
        assert np.array_equal(fwht(fwht(v)), (1 << n) * np.asarray(v))
    delta = np.zeros(4, dtype=np.int64)
    delta[0] = 1
    assert np.array_equal(fwht(delta), np.ones(4))


def test_fwht_matches_dense_factor_product():
    rng = np.random.default_rng(8)
    for n in range(9):
        d = 1 << n
        prod = np.eye(d)
        for i in range(n):
            prod = wh_factor(n, i) @ prod
        v = rng.integers(-1000, 1000, size=d)
        before = v.copy()
        out = fwht(v)
        assert out.dtype == np.int64
        assert np.array_equal(out, prod @ v)
        assert np.array_equal(v, before)


def test_wh_factorization():
    for n in (2, 4, 6):
        d = 1 << n
        prod = np.eye(d)
        for i in range(n):
            prod = wh_factor(n, i) @ prod
        x = np.arange(d)
        parity = np.zeros((d, d), dtype=np.int64)
        for i in range(n):
            parity ^= (((x[:, None] >> i) & 1) & ((x[None, :] >> i) & 1))
        dense = (1.0 - 2.0 * parity)  # 2^(n/2) H
        assert np.abs(prod - dense).max() < 1e-9


def test_ur_via_fwht_worked_example_n1():
    g = DataTable.from_string("01")
    # intermediate integer pipeline: (1,-1) -> (2,0) -> (2,2) -> (1,1)
    vals = g.to_array().astype(np.int64)
    freq = fwht(vals)
    assert list(freq) == [1, -1]
    x = np.arange(2)
    masked = freq * 2 * (1 - (x & 1))
    assert list(masked) == [2, 0]
    back = fwht(masked)
    assert list(back) == [2, 2]
    assert ur_via_fwht(g, 1) == DataTable.from_string("11")
    assert ur_via_fwht(g, 1) == ur_naive(g, 1)


def test_fwht_matches_butterfly_oracle():
    rng = np.random.default_rng(23)
    for n in range(15):
        for _ in range(3):
            v = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
            assert np.array_equal(fwht(v), oracle_fwht(v))
    for n in (0, 1, 5, 6, 11):
        for i in range(1 << n) if n < 7 else rng.integers(0, 1 << n, size=8):
            unit = np.zeros(1 << n, dtype=np.int64)
            unit[i] = 1
            assert np.array_equal(fwht(unit), oracle_fwht(unit))
    vec = rng.integers(-100, 100, size=64)
    before = vec.copy()
    assert np.array_equal(fwht(vec), oracle_fwht(before))
    assert np.array_equal(vec, before)


@pytest.mark.parametrize("n", [0, 3, 10, 17])
def test_fwht_exactness_bound(n):
    # float64 passes are exact while max|v| 2^n < 2^53
    top = (1 << (53 - n)) - 1
    rng = np.random.default_rng(n)
    v = top * rng.choice([-1, 1], size=1 << n)
    v[0] = top
    assert np.array_equal(fwht(v), oracle_fwht(v))
    for edge in (top + 1, -(top + 1), np.iinfo(np.int64).min):
        bad = v.copy()
        bad[-1] = edge
        with pytest.raises(OverflowError):
            fwht(bad)


def test_fwht_empty_vector_has_no_length_n():
    # 0 is not 2^n for any n
    for transform in (fwht, fwht_via_ur):
        with pytest.raises(DimensionMismatchError):
            transform(np.zeros(0, dtype=np.int64))
        with pytest.raises(DimensionMismatchError):
            transform(np.zeros(6, dtype=np.int64))


def test_character_is_a_hadamard_row():
    for n in range(1, 12):
        y = np.arange(1 << n)
        for m in range(1 << n) if n < 8 else (0, 1, 0x2A5, (1 << n) - 1):
            out = np.empty(1 << n)
            _character(m, out)
            assert np.array_equal(out, 1 - 2 * oracle_parity(y & m))


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_ur_via_fwht_matches_naive_at_large_n(n):
    rng = np.random.default_rng(n)
    g = DataTable.random(n, rng)
    for m in (0, 1, int(rng.integers(2, 1 << n)), (1 << n) - 1):
        assert ur_via_fwht(g, m) == ur_naive(g, m)


def test_ur_via_fwht_inexact_transform_raises(monkeypatch):
    # the low-bits check is a raise, not an assert, so python -O keeps it
    honest = classical._wht

    def perturbed(buf, spare):
        out, spare = honest(buf, spare)
        out[0] += 1
        return out, spare

    monkeypatch.setattr(classical, "_wht", perturbed)
    g = DataTable.random(6, np.random.default_rng(0))
    with pytest.raises(OverflowError):
        ur_via_fwht(g, 5)


def test_fwht_via_ur_matches_butterfly():
    rng = np.random.default_rng(4)
    # delta input: the transform of an indicator is the all-ones vector
    delta = np.zeros(4, dtype=np.int64)
    delta[0] = 1
    assert np.array_equal(fwht_via_ur(delta, width=16), np.ones(4, dtype=np.int64))
    for n in range(1, 9):
        v = rng.integers(-8, 8, size=1 << n)
        engine = CountingEngine()
        got = fwht_via_ur(v, ur_engine=engine, width=16)
        assert np.array_equal(got, fwht(v))
        assert engine.calls == n * 16


def test_fwht_via_ur_overflow_guard():
    v = np.full(8, 30000, dtype=np.int64)
    with pytest.raises(OverflowError):
        fwht_via_ur(v, width=16)
    # np.abs wraps the most negative int64 to itself; the width check does not
    most_negative = np.array([np.iinfo(np.int64).min, 0])
    with pytest.raises(OverflowError):
        fwht_via_ur(most_negative, width=16)
