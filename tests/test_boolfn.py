"""Truth tables, ANF, degree, shifts, update rule, signed tables, file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qramsim import boolfn
from qramsim.boolfn import (
    NEG_INF,
    AnfPolynomial,
    DataTable,
    SignedDataTable,
    anf_from_truth_table,
    degree,
    hat_function,
    parity,
    shift,
    truth_table_from_anf,
    update_rule,
    update_rule_signed,
)
from qramsim.errors import DimensionMismatchError, PreconditionError, SizeCapError

from oracles import oracle_parity


def brute_force_anf_eval(poly, x):
    """Evaluate an ANF at x by summing its monomials directly."""
    acc = 0
    for e in poly.monomials():
        acc ^= 1 if (x & e) == e else 0
    return acc


@settings(derandomize=True, database=None, max_examples=50)
@given(st.lists(st.integers(0, 2**63 - 1), max_size=40))
def test_parity_matches_popcount(values):
    assert parity(values).tolist() == [bin(v).count("1") & 1 for v in values]


@settings(derandomize=True, database=None, max_examples=50)
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
def test_parity_matches_fold_on_signed_int64(values):
    # negative entries count their two's-complement sign bits
    got = parity(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle_parity(values))


def test_parity_edge_inputs():
    small = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert np.array_equal(parity(small), oracle_parity(small))
    assert parity(small).shape == (16, 16)
    extremes = [-1, -2, -2**63, 2**63 - 1, 0]
    assert parity(extremes).tolist() == oracle_parity(extremes).tolist() == [0, 1, 1, 1, 0]
    empty = parity([])
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_anf_parity_and_and():
    parity = DataTable.from_string("0110")
    p = anf_from_truth_table(parity)
    assert sorted(p.monomials()) == [0b01, 0b10]

    g_and = DataTable.from_string("0001")
    p = anf_from_truth_table(g_and)
    assert p.monomials() == [0b11]


def test_anf_round_trip_random_n4():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = DataTable.random(4, rng)
        p = anf_from_truth_table(g)
        assert truth_table_from_anf(p) == g
        # independent oracle: evaluate the polynomial at all 16 points
        evals = [brute_force_anf_eval(p, x) for x in range(16)]
        assert DataTable.from_array(evals) == g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mobius_round_trip_exhaustive(n):
    for bits in range(1 << (1 << n)):
        g = DataTable(n, bits)
        assert truth_table_from_anf(anf_from_truth_table(g)) == g


def test_mobius_round_trip_random_large():
    rng = np.random.default_rng(5)
    for n in range(5, 13):
        for _ in range(20):
            g = DataTable.random(n, rng)
            assert truth_table_from_anf(anf_from_truth_table(g)) == g


def test_degree_cases():
    assert degree(DataTable.zero(3)) == NEG_INF
    assert degree(DataTable.ones(3)) == 0
    for n in (2, 3, 4):
        top = DataTable.from_array([1 if x == (1 << n) - 1 else 0 for x in range(1 << n)])
        # AND of all bits has the single top monomial plus lower terms
        assert degree(top) == n
    # f(x) = x1 x2 + x3
    vals = [((x & 1) & ((x >> 1) & 1)) ^ ((x >> 2) & 1) for x in range(8)]
    assert degree(DataTable.from_array(vals)) == 2


def degree_oracle(g):
    """Degree by popcounting the unpacked exponents of every ANF monomial."""
    coeffs = anf_from_truth_table(g).coefficients
    if coeffs == 0:
        return NEG_INF
    raw = np.frombuffer(coeffs.to_bytes(max(g.size // 8, 1), "little"), dtype=np.uint8)
    exps = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    return int(np.bitwise_count(exps).max())


@pytest.mark.parametrize("n", range(1, 21))
def test_degree_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    tables = [DataTable.random(n, rng) for _ in range(3 if n <= 16 else 1)]
    tables += [DataTable.zero(n), DataTable.ones(n)]
    # one single-monomial table x_S for each weight k: its ANF is x_S alone
    for k in range(n + 1):
        e = sum(1 << int(i) for i in rng.choice(n, k, replace=False))
        tables.append(truth_table_from_anf(AnfPolynomial(n, 1 << e)))
    for g in tables:
        assert degree(g) == degree_oracle(g)
    assert degree(tables[-1]) == n


def test_shift_identity_and_involution():
    rng = np.random.default_rng(2)
    g = DataTable.random(3, rng)
    assert shift(g, 0) == g
    one = DataTable.from_string("01")
    assert shift(one, 1) == DataTable.from_string("10")
    for _ in range(10):
        g = DataTable.random(3, rng)
        m = int(rng.integers(8))
        assert shift(shift(g, m), m) == g


def test_update_rule_examples():
    g = DataTable.from_string("0001")  # x1 * x2
    h = update_rule(g, 0b01)  # m = (1, 0)
    assert h == DataTable.from_string("0011")  # h(x) = x2
    assert update_rule(g, 0) == DataTable.zero(2)
    with pytest.raises(DimensionMismatchError):
        update_rule(g, 4)


def test_update_rule_matches_per_address_recomputation():
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        g = DataTable.random(n, rng)
        m = int(rng.integers(1 << n))
        h = update_rule(g, m)
        for x in rng.integers(0, 1 << n, size=32):
            x = int(x)
            assert h.value(x) == g.value(x) ^ g.value(x ^ m)


def test_update_rule_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        g = DataTable.random(n, rng)
        m = int(rng.integers(1 << n))
        h = update_rule(g, m)
        assert shift(h, m) == h


def norm_deg(d):
    return 0 if d == NEG_INF else d


def test_degree_descent_exhaustive_n3():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            g = DataTable(n, bits)
            d = degree(g)
            if d == NEG_INF or d == 0:
                continue
            for m in range(1 << n):
                assert norm_deg(degree(update_rule(g, m))) <= max(d - 1, 0)


def test_update_rule_iteration_terminates():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        g = DataTable.random(n, rng)
        for _ in range(n):
            g = update_rule(g, int(rng.integers(1 << n)))
        assert degree(g) in (NEG_INF, 0)


def test_hat_function_cases():
    rng = np.random.default_rng(7)
    # f_sign = 0, b = 1: hat(x, u) = u1 * g(x)
    g = DataTable.random(2, rng)
    f = SignedDataTable(2, 1, DataTable.zero(2), (g,))
    hat = hat_function(f)
    for x in range(4):
        for u in range(2):
            assert hat.value(x + 4 * u) == (u & g.value(x))
    # f_data = 0: hat(x, u) = f_sign(x)
    sgn = DataTable.random(2, rng)
    f = SignedDataTable(2, 2, sgn, (DataTable.zero(2), DataTable.zero(2)))
    hat = hat_function(f)
    for z in range(16):
        assert hat.value(z) == sgn.value(z & 3)


def test_hat_function_degree_bound():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        f = SignedDataTable.random(n, b, rng)
        d = boolfn.degree_signed(f)
        assert d == NEG_INF or d <= n + 1


def test_hat_degree_bound_exhaustive_small():
    # exhaust every signed table whose parameter count stays below 2^16 bits;
    # larger shapes with n+b <= 8 are covered by the randomized test above
    for n, b in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        size = 1 << n
        for code in range(1 << (size * (b + 1))):
            sgn = code & ((1 << size) - 1)
            planes = tuple(
                DataTable(n, (code >> (size * (i + 1))) & ((1 << size) - 1))
                for i in range(b))
            f = SignedDataTable(n, b, DataTable(n, sgn), planes)
            d = boolfn.degree_signed(f)
            assert d == NEG_INF or d <= n + 1


def test_update_rule_signed_zero_and_componentwise():
    rng = np.random.default_rng(10)
    f = SignedDataTable.random(2, 2, rng)
    out = update_rule_signed(f, 0)
    assert out.f_sign == DataTable.zero(2)
    assert all(p == DataTable.zero(2) for p in out.f_data)

    # m_B = 0: reduces to the plain update rule on each plane
    m_a = 0b10
    out = update_rule_signed(f, m_a)
    assert out.f_sign == update_rule(f.f_sign, m_a)
    for i in range(2):
        assert out.f_data[i] == update_rule(f.f_data[i], m_a)


def test_update_rule_signed_hat_consistency():
    rng = np.random.default_rng(12)
    for _ in range(30):
        f = SignedDataTable.random(2, 2, rng)
        m = int(rng.integers(1 << 4))
        lhs = hat_function(update_rule_signed(f, m))
        rhs = update_rule(hat_function(f), m)
        assert lhs == rhs


def test_table_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    g = DataTable.random(5, rng)
    path = tmp_path / "plain.qramtbl"
    boolfn.save_table(g, path)
    assert boolfn.load_table(path) == g

    f = SignedDataTable.random(3, 4, rng)
    path = tmp_path / "signed.qramtbl"
    boolfn.save_table(f, path)
    assert boolfn.load_table(path) == f


def test_table_file_bad_header(tmp_path):
    path = tmp_path / "bad.qramtbl"
    path.write_text("NOTATBL v9 n=2 b=0\n00\n")
    with pytest.raises(PreconditionError):
        boolfn.load_table(path)


@pytest.mark.parametrize("n", [0, boolfn.CLASSICAL_N_CAP + 1, 36])
def test_table_file_header_n_capped(tmp_path, monkeypatch, n):
    # the header's n is checked before any 2^n-bit mask is built
    masks = []
    monkeypatch.setattr(boolfn, "_full_mask", lambda k: masks.append(k) or 0)
    path = tmp_path / "huge.qramtbl"
    path.write_text(f"QRAMTBL v1 n={n} b=0\n00\n")
    with pytest.raises(SizeCapError):
        boolfn.load_table(path)
    assert masks == []


def test_table_invariants():
    with pytest.raises(DimensionMismatchError):
        DataTable(2, 1 << 16)
    with pytest.raises(PreconditionError):
        DataTable(0, 0)
    with pytest.raises(PreconditionError):
        DataTable(25, 0)
