"""Swap tests, fractional swap, LMR exponentiation, simple and recursive QPCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qramsim import distill
from qramsim.boolfn import DataTable
from qramsim.device import dead_router_device
from qramsim.distill import (
    CHERNOFF_CONSTANT,
    CopySource,
    _evolve_components,
    iterated_swap_test,
    lmr_step,
    qpca_lambda2_bound,
    qpca_recursive,
    qpca_simple,
    qpca_simple_parameters,
    sample_swap_test_copies,
    swap_test_depth,
    swap_test_levels,
    swap_test_spectrum,
)
from qramsim.errors import BudgetExceededError, PreconditionError, SizeCapError
from qramsim.rngutil import derive_rng
from qramsim.twirlset import twirled_state

from oracles import (
    block_encoding_sequence,
    fractional_swap_unitary,
    sequence_product,
    swap_operator,
    swap_test_step,
    theta_angles,
)


def random_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


# ---------------------------------------------------------------------------
# swap test closed forms

def test_swap_test_pure_state():
    psi = np.array([1, 1j]) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    p, out = swap_test_step(rho)
    assert p == pytest.approx(1.0)
    assert np.abs(out - rho).max() < 1e-12


def test_swap_test_maximally_mixed_qubit():
    p, out = swap_test_step(np.eye(2) / 2)
    assert p == pytest.approx(0.75)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_swap_test_two_level_example():
    rho = np.diag([0.9, 0.1])
    p, out = swap_test_step(rho)
    assert p == pytest.approx((1 + 0.82) / 2)
    assert np.allclose(np.diag(out), [0.9 * 1.9 / 1.82, 0.1 * 1.1 / 1.82])


def explicit_swap_test_circuit(rho):
    """Two copies + ancilla, H - CSWAP - H, postselect ancilla 0."""
    d = rho.shape[0]
    joint = np.kron(np.kron(rho, rho), np.outer([1, 0], [1, 0]))  # anc low
    dim = 2 * d * d
    z = np.arange(dim)
    anc, c1, c2 = z & 1, (z >> 1) % d, (z >> 1) // d
    h = np.kron(np.eye(d * d), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    cswap = np.zeros((dim, dim))
    target = np.where(anc == 1, 1 + 2 * (c2 + d * c1), z)
    cswap[target, z] = 1.0
    u = h @ cswap @ h
    out = u @ joint @ u.conj().T
    keep = np.flatnonzero(anc == 0)
    block = out[np.ix_(keep, keep)]
    p = float(np.trace(block).real)
    block /= p
    # index within keep is c1 + d*c2; trace out the second copy c2
    reduced = block.reshape(d, d, d, d)  # (c2, c1, c2', c1')
    return p, np.einsum("abad->bd", reduced)


def test_swap_test_matches_explicit_circuit():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        rho = random_density_matrix(d, rng)
        p, out = swap_test_step(rho)
        p2, out2 = explicit_swap_test_circuit(rho)
        assert p == pytest.approx(p2, abs=1e-12)
        assert np.abs(out - out2).max() < 1e-12


def test_swap_test_monotone_principal_eigenvalue():
    rng = np.random.default_rng(1)
    for _ in range(20):
        eigs = rng.dirichlet(np.ones(5))
        eigs.sort()
        if eigs[-1] > 1 - 1e-6:
            continue
        _, out = swap_test_spectrum(eigs)
        assert out.max() > eigs.max()


def _depth_by_full_ladder(spectrum, eps):
    """The depth search as a scan of the whole 60-level ladder."""
    levels, _ = swap_test_levels(spectrum, 60)
    return next((k for k, lv in enumerate(levels) if 1 - lv[0] <= eps), None)


# integer weights tie the top eigenvalue often; eps cannot be reached then
_weights = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
).filter(lambda w: sum(w) > 0)


@settings(derandomize=True, database=None, max_examples=300)
@given(_weights, st.floats(1e-9, 0.999))
def test_swap_test_depth_matches_full_ladder(weights, eps):
    spectrum = np.sort(np.array(weights, dtype=np.float64) / sum(weights))[::-1]
    expected = _depth_by_full_ladder(spectrum, eps)
    if expected is None:
        with pytest.raises(BudgetExceededError):
            swap_test_depth(spectrum, eps)
    else:
        assert swap_test_depth(spectrum, eps) == expected


def test_principal_eigenvalue_trace_distance_conversion():
    # a state with principal eigenvalue 1 - eta sits at trace distance eta
    # from its principal eigenvector
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        eigs = rng.dirichlet(np.ones(d) * 0.7)
        eigs[::-1].sort()
        u = random_unitary(d, rng)
        rho = (u * eigs) @ u.conj().T
        eta = 1.0 - eigs[0]
        proj = np.outer(u[:, 0], u[:, 0].conj())
        dist = 0.5 * np.abs(np.linalg.eigvalsh(rho - proj)).sum()
        assert abs(dist - eta) < 1e-9


# ---------------------------------------------------------------------------
# iterated swap test

def test_iterated_swap_test_k0():
    # k = 0 passes one copy through without a draw: the input itself, one
    # copy, no test, one storage slot, and the generator untouched
    src = CopySource.from_density(np.diag([0.8, 0.2, 0.0, 0.0]))
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    rep = iterated_swap_test(src, 0, rng)
    assert rng.bit_generator.state == state
    assert (rep.distiller, rep.params, rep.copies_consumed, rep.steps) == (
        "iterated_swap_test", {"k": 0}, 1, 0)
    assert rep.success and rep.storage_slots == 1
    assert rep.overlap == pytest.approx(0.8)
    assert np.array_equal(rep.weights, src.spectrum)
    assert np.array_equal(rep.output, src.rebuild(src.spectrum))
    assert rep.success_probability is None and rep.extra == {}
    # the one copy is consumed, so a budget below one fails
    rep = iterated_swap_test(src, 0, rng, budget=0)
    assert not rep.success and rep.output is None
    assert rng.bit_generator.state == state


def test_iterated_swap_test_eta_recursion_bound():
    # eta_in = 0.1, d = 4: eta_k <= 2^-k eta_in / (1 - 4 eta_in)
    spectrum = [0.9, 0.06, 0.03, 0.01]
    levels, _ = swap_test_levels(np.array(spectrum), 5)
    for k in range(1, 6):
        eta_k = 1.0 - levels[k][0]
        assert eta_k <= 2.0**-k * 0.1 / (1 - 0.4) + 1e-12


def test_iterated_swap_test_copy_statistics():
    spectrum = np.array([0.9, 0.06, 0.03, 0.01])
    _, p_pass = swap_test_levels(spectrum, 4)
    rng = np.random.default_rng(3)
    copies, _ = sample_swap_test_copies(p_pass, rng, trials=10_000)
    bound = 2**4 / np.sqrt(1 - 0.4)
    sem = copies.std(ddof=1) / np.sqrt(len(copies))
    assert copies.mean() <= bound + 3 * sem


def test_iterated_swap_test_report_and_budget():
    src = CopySource.from_density(np.diag([0.9, 0.06, 0.03, 0.01]))
    rep = iterated_swap_test(src, 3, np.random.default_rng(4))
    assert rep.success
    assert rep.storage_slots == 4
    assert rep.overlap > 0.98
    rho = src.rebuild(src.spectrum)
    assert np.abs(rep.output @ rho - rho @ rep.output).max() < 1e-9

    # tiny budget forces a reported failure, never a hang
    src2 = CopySource.from_spectrum([0.55, 0.45])
    rep2 = iterated_swap_test(src2, 12, np.random.default_rng(5), budget=50)
    assert not rep2.success
    assert rep2.copies_consumed == 50


def test_low_fidelity_iterated_swap_test():
    # gamma_in = 0.2 with lambda2/lambda1 <= 1e-3 lives in dimension 4001
    spectrum = np.concatenate([[0.2], np.full(4000, 0.8 / 4000)])
    levels, p_pass = swap_test_levels(spectrum, 9)
    assert levels[9][0] > 5 / 6
    rng = np.random.default_rng(6)
    copies, _ = sample_swap_test_copies(p_pass, rng, trials=2000)
    # the measured mean must agree with the exact process expectation
    exact = 2**9 * np.prod([1.0 / p for p in p_pass])
    sem = copies.std(ddof=1) / np.sqrt(len(copies))
    assert abs(copies.mean() - exact) <= 3 * sem


# ---------------------------------------------------------------------------
# fractional swap and LMR

def test_fractional_swap_endpoints():
    d = 3
    assert np.abs(fractional_swap_unitary(0.0, d) - np.eye(d * d)).max() < 1e-12
    assert np.abs(fractional_swap_unitary(np.pi / 2, d)
                  + 1j * swap_operator(d)).max() < 1e-12
    with pytest.raises(PreconditionError):
        fractional_swap_unitary(2.0, d)


def test_theta_angles_product_identities():
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = float(rng.uniform(0, np.pi / 2))
        tp, tm = theta_angles(t)
        assert np.cos(tp) * np.cos(tm) == pytest.approx(np.cos(t) / 2, abs=1e-12)
        assert np.sin(tp) * np.sin(tm) == pytest.approx(np.sin(t) / 2, abs=1e-12)


def test_block_encoding_sequence():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        for _ in range(5):
            t = float(rng.uniform(0, np.pi / 2))
            u = sequence_product(block_encoding_sequence(t, d))
            # ancilla |0> block equals -exp(-i S t); the |1> block completes
            # a unitary, and the product uses exactly 3 controlled swaps
            target = -fractional_swap_unitary(t, d)
            assert np.abs(u[: d * d, : d * d] - target).max() < 1e-10
            assert np.abs(u[d * d:, : d * d]).max() < 1e-10


def test_single_cswap_block_encodes_half():
    d = 2
    t = 0.7
    tp, tm = theta_angles(t)
    seq = block_encoding_sequence(t, d)
    u = seq[1][1] @ seq[0][1]  # CSWAP . Rx
    u = np.kron(np.array([[np.cos(tp), np.sin(tp)],
                          [-np.sin(tp), np.cos(tp)]]), np.eye(d * d)) @ u
    block = u[: d * d, : d * d]
    assert np.abs(block - fractional_swap_unitary(t, d) / 2).max() < 1e-10


def explicit_lmr_circuit(varsigma, varrho, t, dim_a):
    d1 = varrho.shape[0]
    joint = np.kron(varrho, varsigma)  # S2 on top of (A, S1)
    da = dim_a
    dim = da * d1 * d1
    z = np.arange(dim)
    a, s1, s2 = z % da, (z // da) % d1, z // (da * d1)
    perm = a + da * (s2 + d1 * s1)
    uswap = np.zeros((dim, dim))
    uswap[perm, z] = 1.0
    u = np.cos(t) * np.eye(dim) - 1j * np.sin(t) * uswap
    out = u @ joint @ u.conj().T
    t4 = out.reshape(d1, da * d1, d1, da * d1)
    return np.einsum("iaib->ab", t4)


def test_lmr_step_t0_and_oracle():
    rng = np.random.default_rng(9)
    sig = random_density_matrix(6, rng)  # A of dim 2, S1 of dim 3
    rho = random_density_matrix(3, rng)
    assert np.abs(lmr_step(sig, rho, 0.0, dim_a=2) - sig).max() < 1e-12
    for _ in range(10):
        t = float(rng.uniform(0, 1.2))
        da = int(rng.integers(1, 4))
        d1 = int(rng.integers(2, 5))
        sig = random_density_matrix(da * d1, rng)
        rho = random_density_matrix(d1, rng)
        closed = lmr_step(sig, rho, t, dim_a=da)
        oracle = explicit_lmr_circuit(sig, rho, t, da)
        assert np.abs(closed - oracle).max() < 1e-12
        assert abs(np.trace(closed).real - 1.0) < 1e-12


def trace_norm(m):
    return float(np.abs(np.linalg.svd(m, compute_uv=False)).sum())


def test_lmr_repeated_step_drift_bound():
    # per-eigencomponent drift after r steps is at most 2 r t^2
    rng = np.random.default_rng(10)
    kb = np.diag([0.0, 1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    for _ in range(20):
        lam = float(rng.uniform(0, 1))
        t = float(rng.uniform(0.01, 0.5))
        r = int(rng.integers(1, 40))
        sig = plus.copy()
        c2, cs, s2 = np.cos(t)**2, np.cos(t) * np.sin(t), np.sin(t)**2
        for _ in range(r):
            sig = c2 * sig + 1j * cs * lam * (sig @ kb - kb @ sig) + s2 * kb
        ideal = np.diag(np.exp(-1j * r * lam * t * np.diag(kb)))
        target = ideal @ plus @ ideal.conj().T
        assert trace_norm(sig - target) <= 2 * r * t**2 + 1e-12


# ---------------------------------------------------------------------------
# simple QPCA

def criterion_spectrum_d32():
    rest = np.full(30, 0.66 / 30)
    return np.concatenate([[0.3, 0.04], rest])


def test_qpca_simple_parameters_match_formulas():
    r, t = qpca_simple_parameters(0.3, 0.2)
    assert r == 1920
    assert t == pytest.approx(np.pi / 1152)
    assert 0.04 <= qpca_lambda2_bound(0.3, 0.2)


def test_qpca_simple_distillation_run():
    rng = np.random.default_rng(11)
    v = random_unitary(32, rng)
    lam = criterion_spectrum_d32()
    rho_in = (v * lam) @ v.conj().T
    src = CopySource.from_density(rho_in)
    rep = qpca_simple(src, 0.3, 0.2)
    assert rep.success_probability >= 0.3 / 3
    assert rep.overlap >= 0.8
    assert rep.copies_consumed == 1921
    comm = rep.output @ rho_in - rho_in @ rep.output
    assert np.abs(comm).max() < 1e-9


def test_qpca_simple_pure_input():
    src = CopySource.from_spectrum([0.95, 0.05])
    rep = qpca_simple(src, 0.9, 0.09)
    assert rep.overlap > 0.95


def test_qpca_simple_precondition_guards():
    with pytest.raises(PreconditionError):
        qpca_simple(CopySource.from_spectrum([0.5, 0.5]), 0.05, 0.2)
    bad = np.concatenate([[0.3, 0.2], np.full(10, 0.05)])
    with pytest.raises(PreconditionError):
        qpca_simple(CopySource.from_spectrum(bad), 0.3, 0.2)


def stepwise_qpca_simple(lam, gamma, eps_dist):
    """The r LMR steps of ``qpca_simple`` taken one at a time per
    eigencomponent, then the minus-outcome postselection: returns the
    success probability and the output weights."""
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    kb1 = np.diag([0.0, 1.0]).astype(np.complex128)
    r, t = qpca_simple_parameters(gamma, eps_dist)
    sig = np.repeat(plus[None], len(lam), axis=0)
    c2, cs, s2 = np.cos(t)**2, np.cos(t) * np.sin(t), np.sin(t)**2
    for _ in range(r):
        comm = sig @ kb1 - kb1 @ sig
        sig = c2 * sig + 1j * cs * lam[:, None, None] * comm + s2 * kb1
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    p_minus = np.einsum("a,nab,b->n", minus, sig, minus).real
    success = (lam * p_minus).sum()
    return success, lam * p_minus / success


def test_evolve_components_matches_stepwise_oracle():
    # the closed form of r affine steps m -> c^2 m + i c s lam [m, |1><1|]
    # + s^2 lam |1><1| from w |+><+|, entry by entry, for both QPCA variants
    rng = np.random.default_rng(31)
    kb1 = np.diag([0.0, 1.0])
    for r in (1, 2, 7, 60):
        lam = rng.dirichlet(np.ones(5))
        w = rng.dirichlet(np.ones(5))
        t = float(rng.uniform(0.01, 0.5))
        lin, const = _evolve_components(lam, t, r)
        sig = w[:, None, None] * np.full((2, 2), 0.5)
        c2, cs, s2 = np.cos(t)**2, np.cos(t) * np.sin(t), np.sin(t)**2
        for _ in range(r):
            sig = (c2 * sig + 1j * cs * lam[:, None, None] * (sig @ kb1 - kb1 @ sig)
                   + s2 * lam[:, None, None] * kb1)
        closed = (w[:, None] * lin + const).reshape(-1, 2, 2)
        assert np.abs(closed - sig).max() < 1e-12


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_qpca_simple_matches_stepwise_oracle(seed):
    rng = np.random.default_rng(seed)
    while True:
        d = int(rng.integers(2, 33))
        gamma = float(rng.uniform(0.3, 0.95))
        eps = float(rng.uniform(0.02, min(0.5, 1 - gamma)))
        top = float(rng.uniform(gamma, min(1.0, 3 * gamma)))
        rest = rng.dirichlet(np.ones(d - 1)) * (1 - top)
        if rest.max() <= min(qpca_lambda2_bound(gamma, eps), top):
            break
    lam = np.concatenate([[top], rest])
    rep = qpca_simple(CopySource.from_spectrum(lam), gamma, eps)
    success, weights = stepwise_qpca_simple(lam, gamma, eps)
    assert abs(rep.success_probability - success) < 1e-12
    assert abs(rep.overlap - weights[0]) < 1e-12


# ---------------------------------------------------------------------------
# recursive QPCA

def test_qpca_recursive_high_gamma():
    rng = np.random.default_rng(12)
    v = random_unitary(8, rng)
    lam = np.array([0.9, 0.05, 0.03, 0.02, 0, 0, 0, 0])
    rho_in = (v * lam) @ v.conj().T
    src = CopySource.from_density(rho_in)
    rep = qpca_recursive(src, 0.9, 0.1, 0.05, np.random.default_rng(99),
                         budget=10**9)
    assert rep.success
    assert rep.overlap >= 0.95
    comm = rep.output @ rho_in - rho_in @ rep.output
    assert np.abs(comm).max() < 1e-9


def test_qpca_recursive_low_gamma_coarse_phase():
    # gamma < 2/3 exercises the coarse doubling schedule before the fine one;
    # the copy counter is astronomical at this precision, the work is not
    rng = np.random.default_rng(31)
    v = random_unitary(16, rng)
    lam = np.concatenate([[0.4], np.full(15, 0.04)])
    rho_in = (v * lam) @ v.conj().T
    src = CopySource.from_density(rho_in)
    rep = qpca_recursive(src, 0.4, 0.2, 0.2, np.random.default_rng(32),
                         budget=10**12)
    assert rep.success
    assert rep.overlap >= 0.8
    assert rep.steps >= 3  # one coarse iteration plus two fine ones


def test_qpca_recursive_pure_input():
    src = CopySource.from_spectrum([1.0, 0.0])
    rep = qpca_recursive(src, 0.9, 0.1, 0.05, np.random.default_rng(100),
                         budget=10**9)
    assert rep.success
    assert rep.overlap == pytest.approx(1.0)
    assert rep.extra["restarts"] == 0


def test_qpca_recursive_copy_statistics_logged():
    lam = np.array([0.9, 0.05, 0.03, 0.02])
    measured = []
    for seed in range(100):
        src = CopySource.from_spectrum(lam)
        rep = qpca_recursive(src, 0.9, 0.1, 0.05,
                             np.random.default_rng(1000 + seed), budget=10**9)
        assert rep.success
        measured.append(rep.copies_consumed)
    mean = float(np.mean(measured))
    gamma, alpha, eps = 0.9, 0.1, 0.05
    formula = (1 - gamma) / ((1 - alpha) ** 2 * gamma**2) * (1 / eps + 1 / gamma)
    # the asymptotic formula has an unspecified constant; assert finiteness
    # and log the measured ratio for inspection
    assert np.isfinite(mean) and mean > 0
    print(f"qpca_recursive copies: mean={mean:.3e}, unit-constant formula="
          f"{formula:.3e}, ratio={mean / formula:.3e}")


def test_qpca_recursive_budget_failure():
    src = CopySource.from_spectrum([0.9, 0.1])
    rep = qpca_recursive(src, 0.9, 0.2, 0.05, np.random.default_rng(101),
                         budget=1000)
    assert not rep.success
    assert rep.extra["reason"] == "copy budget exhausted"
    assert rep.extra["failure_bound"] == 0.0625    # one fine iteration, 2^-4
    assert rep.extra["phase_estimates"] == []


@pytest.mark.parametrize("gamma, alpha, eps, bound", [
    (0.85, 0.1, 0.05, 0.09375),                 # fine schedule 2^-5 + 2^-4
    (0.4, 0.2, 0.2, 0.15625),                   # one coarse 2^-4, then the fine one
])
def test_qpca_recursive_reports_failure_bound_and_phases(gamma, alpha, eps, bound):
    lam = np.concatenate([[gamma + 0.05], np.full(15, (0.95 - gamma) / 15)])
    threshold = (1 + alpha) * gamma / 2
    restarted = False
    for seed in range(8):
        rep = qpca_recursive(CopySource.from_spectrum(lam), gamma, alpha, eps,
                             np.random.default_rng(seed), budget=10**12, chernoff=1)
        assert rep.success
        assert rep.extra["failure_bound"] == bound
        phases = rep.extra["phase_estimates"]
        assert len(phases) == rep.steps
        # each iteration either accepts (estimate above the threshold) or
        # restarts; the run ends on one accepted pass through the schedule
        assert sum(p <= threshold for p in phases) == rep.extra["restarts"]
        assert all(p > threshold for p in phases[-len(distill._phase_schedule(
            gamma, alpha, eps)):])
        restarted |= rep.extra["restarts"] > 0
    assert restarted
    assert "phase_estimates" not in rep.to_json() and "failure_bound" not in rep.to_json()


def oracle_qpca_recursive(src, gamma, alpha, eps_dist, rng, *, budget, chernoff):
    """The per-repetition loop that ``qpca_recursive`` replaced: every
    Hadamard test builds the 2x2 ancilla states w lin + const, measures
    them densely and draws its own coin. Returns (success, copies, steps,
    restarts, weights)."""
    lam = src.spectrum
    delta = (1 - alpha) * gamma / 2.0
    tau = np.pi / (3 * gamma + delta)
    threshold = (1 + alpha) * gamma / 2.0
    schedule = distill._phase_schedule(gamma, alpha, eps_dist)
    copies = iterations = restarts = 0
    weights = lam.copy()
    idx = 0
    while idx < len(schedule):
        eps_i, zeta_i = schedule[idx]
        r_reps = int(np.ceil(chernoff * np.log(2.0 / eps_i) / delta**2))
        total_time = 2 * r_reps * tau
        t_step = zeta_i / (3.0 * total_time)
        r_lmr = int(np.ceil(tau / t_step))
        t_step = tau / r_lmr
        cost = 2 * r_reps * r_lmr
        if copies + cost > budget:
            return False, copies, iterations, restarts, weights
        copies += cost
        iterations += 1
        lin, const = _evolve_components(lam, t_step, r_lmr)
        w = weights
        estimates = []
        for pos_vec, neg_vec in ((distill._PLUS_VEC, distill._MINUS_VEC),
                                 (distill._PLUS_I_VEC, distill._MINUS_I_VEC)):
            counts = 0
            for _ in range(r_reps):
                mats = (w[:, None] * lin + const).reshape(-1, 2, 2)
                p_pos = np.clip(distill._measure_probs(mats, pos_vec), 0.0, None)
                p_neg = np.clip(distill._measure_probs(mats, neg_vec), 0.0, None)
                total_pos = p_pos.sum()
                total = total_pos + p_neg.sum()
                if rng.random() < total_pos / total:
                    counts += 1
                    w = p_pos / total_pos
                else:
                    w = p_neg / p_neg.sum()
            estimates.append(2.0 * counts / r_reps - 1.0)
        lam_est = (np.angle(estimates[0] - 1j * estimates[1]) % (2 * np.pi)) / tau
        if lam_est > threshold:
            weights = w
            idx += 1
        else:
            weights = lam.copy()
            idx = 0
            restarts += 1
    return True, copies, iterations, restarts, weights


def dead_router_n5_state():
    # the wide-twirl benchmark's input: an n=5 dead-router MC twirl
    g = DataTable.random(5, np.random.default_rng(5))
    return twirled_state(g, dead_router_device(5, [3, 17]), mode="mc",
                         num_samples=2000, seed=11).state.matrix


def high_gamma_state():
    v = random_unitary(8, np.random.default_rng(12))
    return (v * np.array([0.9, 0.05, 0.03, 0.02, 0, 0, 0, 0])) @ v.conj().T


def low_gamma_state():
    v = random_unitary(16, np.random.default_rng(31))
    return (v * np.concatenate([[0.4], np.full(15, 0.04)])) @ v.conj().T


# (state, gamma, alpha, eps_dist, chernoff, rng); the gamma < 2/3 case runs
# the coarse schedule with chernoff = 1, which also makes restarts common
QPCA_ORACLE_CASES = {
    "dead_router_n5": (dead_router_n5_state, 0.85, 0.1, 0.05, CHERNOFF_CONSTANT,
                       lambda seed: derive_rng(seed, 2)),
    "high_gamma": (high_gamma_state, 0.9, 0.1, 0.05, CHERNOFF_CONSTANT,
                   np.random.default_rng),
    "low_gamma_coarse": (low_gamma_state, 0.4, 0.2, 0.2, 1, np.random.default_rng),
}


@pytest.mark.parametrize("case", sorted(QPCA_ORACLE_CASES))
def test_qpca_recursive_matches_per_repetition_oracle(case):
    make_state, gamma, alpha, eps, chernoff, make_rng = QPCA_ORACLE_CASES[case]
    rho = make_state()
    for seed in range(50):
        src, ref = CopySource.from_density(rho), CopySource.from_density(rho)
        rep = qpca_recursive(src, gamma, alpha, eps, make_rng(seed),
                             budget=10**12, chernoff=chernoff)
        success, copies, steps, restarts, weights = oracle_qpca_recursive(
            ref, gamma, alpha, eps, make_rng(seed), budget=10**12, chernoff=chernoff)
        assert (rep.success, rep.copies_consumed, rep.steps, rep.extra["restarts"]) == (
            success, copies, steps, restarts)
        assert abs(rep.overlap - weights[0]) <= 1e-12
        assert np.abs(rep.output - ref.rebuild(weights)).max() <= 1e-12


def test_sample_swap_test_copies_refuses_counts_past_int64():
    # at k = 61 the copy count passes 2^63 on the spectrum [0.6, 0.4]; every
    # trial that fits keeps its draws, and one that would wrap raises first
    _, p_pass = swap_test_levels(np.array([0.6, 0.4]), 61)
    copies, tests = sample_swap_test_copies(p_pass[:60], derive_rng(0, 0x0D15))
    assert (int(copies[0]), int(tests[0])) == (5764607317266933056, 4675539097076546361)
    with pytest.raises(SizeCapError, match="int64"):
        sample_swap_test_copies(p_pass, derive_rng(0, 0x0D15))
    with pytest.raises(SizeCapError, match="int64"):
        sample_swap_test_copies(p_pass, derive_rng(0, 0x0D15), trials=3)


def plain_state(rng) -> dict:
    """The generator's state with its arrays as lists, comparable by ==."""
    def plain(x):
        return {k: plain(v) for k, v in x.items()} if isinstance(x, dict) else np.asarray(
            x).tolist()
    return plain(rng.bit_generator.state)


def oracle_swap_test_copies(p_pass, rng):
    """One trial of ``sample_swap_test_copies`` drawn as size-1 arrays."""
    need, tests = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for p in p_pass[::-1]:
        fails = rng.negative_binomial(need, p)
        if (fails > np.iinfo(np.int64).max // 2 - need).any():
            raise SizeCapError("swap-test copy count exceeds int64")
        tests += need + fails
        need = 2 * (need + fails)
    return need, tests


def test_single_trial_draws_match_size_one_arrays():
    # one trial draws scalars: the same (copies, tests) and the same end
    # state of the generator as the size-1 array form, on many streams
    _, p_pass = swap_test_levels(np.array([0.6, 0.3, 0.1]), 7)
    for seed in range(1500):
        rng, ref = derive_rng(seed, 0xD15), derive_rng(seed, 0xD15)
        got, expect = sample_swap_test_copies(p_pass, rng), oracle_swap_test_copies(p_pass, ref)
        assert [a.tolist() for a in got] == [a.tolist() for a in expect]
        assert got[0].dtype == got[1].dtype == np.int64
        assert plain_state(rng) == plain_state(ref)
    # copy counts near 2^62, and the level that would pass int64 raises in both
    _, p_pass = swap_test_levels(np.array([0.6, 0.4]), 61)
    for seed in range(20):
        rng, ref = derive_rng(seed, 0x0D15), derive_rng(seed, 0x0D15)
        got, expect = sample_swap_test_copies(p_pass[:60], rng), oracle_swap_test_copies(
            p_pass[:60], ref)
        assert [a.tolist() for a in got] == [a.tolist() for a in expect]
        for draw in (sample_swap_test_copies, oracle_swap_test_copies):
            with pytest.raises(SizeCapError, match="int64"):
                draw(p_pass, derive_rng(seed, 0x0D15))
