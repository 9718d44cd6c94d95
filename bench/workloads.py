"""The four benchmark workloads.

Each workload builds a fixed list of ops from the seed. A pass runs the list
once, in order; the warm-up and every measured pass run the same list, so
per-op counts repeat exactly from run to run. An op calls the library through
its module attributes at call time (``lib.teleport.run_protocol``), so the
tracer's patched bindings are the ones used, and returns ``None`` when its
output passes the workload's correctness check or a message saying what
failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Shipped config (configs/<name>.json) that each workload's set-up runs,
# with the CLI command that runs it.
SHIPPED_CONFIGS = {"protocol_noiseless_n3": "protocol",
                   "protocol_noisy_trajectories": "protocol",
                   "distill_qpca_simple": "distill",
                   "bench_classical": "bench-classical"}

# Correctness tolerances.
NOISELESS_GAP_TOL = 1e-10      # Choi gap of a noiseless enumeration
REFERENCE_TOL = 1e-9           # noisy enumeration against the recorded gap
FIDELITY_TOL = 1e-9            # wide twirl fidelity against the closed form

# Distiller parameters of the wide_twirl workload (gamma, alpha, eps).
WIDE_GAMMA, WIDE_ALPHA, WIDE_EPS = 0.85, 0.1, 0.05
# The recursive QPCA counts copies without simulating them; its process law
# needs about 4.4e8 copies here, above the library's default budget.
WIDE_COPY_BUDGET = 10**12


@dataclass
class Op:
    label: str
    run: Callable[[], str | None]


@dataclass
class Workload:
    """Ops of one pass, the shipped config its set-up runs, and the sizes
    that go into the provenance block."""

    config: str
    ops: list[Op]
    sizes: dict
    end_pass: Callable[[], list[str]] = field(default=lambda: [])


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _table_of_degree(lib, n: int, deg: int, rng: np.random.Generator):
    while True:
        f = lib.boolfn.DataTable.random(n, rng)
        if lib.boolfn.degree(f) == deg:
            return f


def _signed_of_degree(lib, n: int, b: int, deg: int, rng: np.random.Generator):
    while True:
        f = lib.boolfn.SignedDataTable.random(n, b, rng)
        if lib.boolfn.degree_signed(f) == deg:
            return f


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# enumerate: exact branch enumeration over a fixed case list.

# (branches, distinct nonconstant datasets) of the n=4 noisy pool members:
# each distinct dataset costs one Monte-Carlo twirl, so the pool fixes it.
N4_MC_SHAPE = (208, 7)


def _enumeration_shape(lib, f) -> tuple[int, int]:
    """Branches enumerated and distinct nonconstant datasets reached."""
    B = lib.boolfn
    seen, branches = set(), 0
    stack = [f]
    while stack:
        g = stack.pop()
        if B.degree(g) in (B.NEG_INF, 0):
            continue
        seen.add(g.bits)
        branches += 1 << g.n
        stack.extend(B.update_rule(g, m) for m in range(1 << g.n))
    return branches, len(seen)


def noisy_enumeration_pools(lib) -> dict[str, list[tuple[str, object, object]]]:
    """Candidate noisy cases, each (key, dataset, ProtocolConfig).

    The pools do not depend on the benchmark seed, so their Choi gaps can be
    recorded once from the seed code (``record_reference.py``); the seed
    picks one member of each pool. Members of a pool cost the same work.
    """
    T, D = lib.teleport, lib.device
    exact = []
    for bits in range(16):
        f = lib.boolfn.DataTable(2, bits)
        if lib.boolfn.degree(f) != 2:
            continue
        for addr in range(4):
            cfg = T.ProtocolConfig(
                n=2, branch_mode="enumerate_branches",
                device=D.dead_router_device(2, [addr]), twirl_mode="exact",
                distiller=T.DistillerSpec(kind="qpca_simple", eps_dist=0.2))
            exact.append((f"n2.dead{addr}.exact.qpca_simple.{bits:x}", f, cfg))
    mc = []
    rng = np.random.default_rng(2024)
    while len(mc) < 8:
        f = _table_of_degree(lib, 4, 2, rng)
        if _enumeration_shape(lib, f) != N4_MC_SHAPE:
            continue
        addr = int(rng.integers(16))
        seed = int(rng.integers(1 << 31))
        cfg = T.ProtocolConfig(
            n=4, branch_mode="enumerate_branches",
            device=D.dead_router_device(4, [addr]), twirl_mode="mc",
            twirl_samples=2000,
            distiller=T.DistillerSpec(kind="swap_test", eps_dist=0.05), seed=seed)
        mc.append((f"n4.dead{addr}.mc2000.swap.{f.bits:04x}.{seed}", f, cfg))
    return {"n2_dead_exact": exact, "n4_dead_mc": mc}


def _enumeration_op(lib, label: str, f, cfg, reference: float | None) -> Op:
    def run() -> str | None:
        try:
            record, _ = lib.teleport.run_protocol(f, cfg)
        except Exception as exc:  # an op that raises is a failed op
            return _failure(exc)
        if record.rounds_used > cfg.round_limit:
            return f"{record.rounds_used} rounds exceed the bound {cfg.round_limit}"
        if reference is None:
            if not record.choi_gap <= NOISELESS_GAP_TOL:
                return f"noiseless Choi gap {record.choi_gap:.3e}"
        elif not abs(record.choi_gap - reference) <= REFERENCE_TOL:
            return f"Choi gap {record.choi_gap!r} differs from reference {reference!r}"
        return None
    return Op(label, run)


def enumerate_workload(lib, seed: int) -> Workload:
    T = lib.teleport
    rng = _rng(seed, 1)
    ops = []
    for i in range(8):
        f = _table_of_degree(lib, 3, 3, rng)
        cfg = T.ProtocolConfig(n=3, branch_mode="enumerate_branches")
        ops.append(_enumeration_op(lib, f"n3.deg3.{i}", f, cfg, None))
    f = _signed_of_degree(lib, 3, 1, 3, rng)
    cfg = T.ProtocolConfig(n=3, b=1, branch_mode="enumerate_branches")
    ops.append(_enumeration_op(lib, "n3.b1.deg3", f, cfg, None))
    f = _signed_of_degree(lib, 2, 2, 3, rng)
    cfg = T.ProtocolConfig(n=2, b=2, branch_mode="enumerate_branches")
    ops.append(_enumeration_op(lib, "n2.b2.deg3", f, cfg, None))
    f = _table_of_degree(lib, 4, 3, rng)
    cfg = T.ProtocolConfig(n=4, branch_mode="enumerate_branches")
    ops.append(_enumeration_op(lib, "n4.deg3", f, cfg, None))

    reference = json.loads(REFERENCE_PATH.read_text())
    picked = []
    for pool in noisy_enumeration_pools(lib).values():
        key, f, cfg = pool[int(rng.integers(len(pool)))]
        ops.append(_enumeration_op(lib, key, f, cfg, reference[key]))
        picked.append(key)

    sizes = {
        "cases": [
            {"n": 3, "b": 0, "degree": 3, "count": 8, "noise": "none"},
            {"n": 3, "b": 1, "degree": 3, "count": 1, "noise": "none"},
            {"n": 2, "b": 2, "degree": 3, "count": 1, "noise": "none"},
            {"n": 4, "b": 0, "degree": 3, "count": 1, "noise": "none"},
            {"n": 2, "b": 0, "degree": 2, "count": 1,
             "noise": "dead router, exact twirl, qpca_simple eps 0.2"},
            {"n": 4, "b": 0, "degree": 2, "count": 1,
             "noise": "dead router, mc twirl 2000 samples, swap test eps 0.05"},
        ],
        "noisy_cases": picked,
    }
    return Workload("protocol_noiseless_n3", ops, sizes)


# ---------------------------------------------------------------------------
# trajectories: noisy Monte-Carlo trajectories with the parameters of
# configs/protocol_noisy_trajectories.json.

TRAJECTORY_TRIALS = 16


def trajectories_workload(lib, seed: int) -> Workload:
    T, D = lib.teleport, lib.device
    rng = _rng(seed, 2)
    f = _table_of_degree(lib, 3, 3, rng)
    # the CLI derives the random tail from the config's tail_seed this way
    encoding = D.EncodingNoise.random_tail(
        3, 0.98, lib.rngutil.derive_rng(42, 0xE2C))
    cfg = T.ProtocolConfig(
        n=3, device=D.dead_router_device(3, [5]), encoding=encoding,
        twirl_mode="mc", twirl_samples=10_000,
        distiller=T.DistillerSpec(kind="swap_test", eps_dist=0.02),
        seed=int(rng.integers(1 << 31)), branch_mode="trajectory")
    matches: dict[int, bool] = {}

    def trial_op(trial: int) -> Op:
        def run() -> str | None:
            try:
                action, trace = lib.teleport.run_protocol(f, cfg, trial=trial)
            except Exception as exc:
                return _failure(exc)
            matches[trial] = bool(action.matches)
            if not trace.strictly_decreasing_degrees():
                return f"degrees {trace.degrees()} do not strictly decrease"
            return None
        return Op(f"trial.{trial}", run)

    def end_pass() -> list[str]:
        """Run-level check: success rate >= 0.9 - 3 sigma over the pass."""
        if not matches:
            return []
        k = len(matches)
        rate = sum(matches.values()) / k
        sigma = np.sqrt(max(rate * (1 - rate), 1e-9) / k)
        missed = [t for t, ok in matches.items() if not ok]
        matches.clear()
        if rate >= 0.9 - 3 * sigma:
            return []
        return [f"success rate {rate:.3f} below 0.9 - 3 sigma (trial {t})"
                for t in missed]

    # A trajectory of a degree-3 table runs 1, 2 or 3 rounds, set by the
    # outcome stream of (cfg.seed, trial) alone; the noiseless trajectory
    # with the same seed draws the same outcomes. The pass takes the first
    # trials that run all 3 rounds, so that every op does the same work.
    clean = T.ProtocolConfig(n=3, seed=cfg.seed, branch_mode="trajectory")
    trials, trial = [], 0
    while len(trials) < TRAJECTORY_TRIALS:
        if len(T.run_protocol(f, clean, trial=trial)[1].rounds) == 3:
            trials.append(trial)
        trial += 1
    ops = [trial_op(t) for t in trials]
    sizes = {"n": 3, "b": 0, "degree": 3, "rounds": 3, "trials": trials,
             "twirl_samples": 10_000, "dead_router": [5],
             "encoding": "random tail, identity 0.98", "swap_test_eps": 0.02}
    return Workload("protocol_noisy_trajectories", ops, sizes, end_pass)


# ---------------------------------------------------------------------------
# wide_twirl: the n=5 Monte-Carlo twirl, then three distillers.

WIDE_N, WIDE_SAMPLES, WIDE_OPS = 5, 2000, 2


def _swap_levels_for(lib, spectrum, eps: float) -> int:
    levels, _ = lib.distill.swap_test_levels(spectrum, 60)
    return next(i for i, lv in enumerate(levels) if 1 - lv[0] <= eps)


def wide_twirl_workload(lib, seed: int) -> Workload:
    rng = _rng(seed, 3)
    expected = lib.device.dead_router_fidelity(WIDE_N, 2)
    ops = []
    for i in range(WIDE_OPS):
        g = lib.boolfn.DataTable.random(WIDE_N, rng)
        addrs = [int(a) for a in rng.choice(1 << WIDE_N, size=2, replace=False)]
        device = lib.device.dead_router_device(WIDE_N, addrs)
        twirl_seed = int(rng.integers(1 << 62))
        distill_seed = int(rng.integers(1 << 62))

        def run(g=g, device=device, twirl_seed=twirl_seed,
                distill_seed=distill_seed) -> str | None:
            D = lib.distill
            try:
                res = lib.twirlset.twirled_state(
                    g, device, mode="mc", num_samples=WIDE_SAMPLES, seed=twirl_seed)
                fid = lib.qcore.fidelity_pure(res.state, lib.qcore.resource_state(g))
                if not abs(fid - expected) <= FIDELITY_TOL:
                    return f"twirled fidelity {fid!r} differs from {expected!r}"
                src = D.CopySource.from_density(res.state.matrix)
                k = _swap_levels_for(lib, src.spectrum, WIDE_EPS)
                reports = [
                    D.iterated_swap_test(src, k, lib.rngutil.derive_rng(distill_seed, 1)),
                    D.qpca_simple(src, WIDE_GAMMA, WIDE_EPS),
                    D.qpca_recursive(src, WIDE_GAMMA, WIDE_ALPHA, WIDE_EPS,
                                     lib.rngutil.derive_rng(distill_seed, 2),
                                     budget=WIDE_COPY_BUDGET),
                ]
            except Exception as exc:
                return _failure(exc)
            failed = [r.distiller for r in reports if not r.success]
            return f"distillers reported failure: {failed}" if failed else None

        ops.append(Op(f"n5.dead{addrs[0]}_{addrs[1]}.{i}", run))
    sizes = {"n": WIDE_N, "twirl_samples": WIDE_SAMPLES, "dead_addresses": 2,
             "encoding": None, "ops_per_pass": WIDE_OPS,
             "distillers": {"gamma": WIDE_GAMMA, "alpha": WIDE_ALPHA,
                            "eps": WIDE_EPS}}
    return Workload("distill_qpca_simple", ops, sizes)


# ---------------------------------------------------------------------------
# classical: update-rule engines at large n.

CLASSICAL_SIZES = (12, 16, 20)
FWHT_N = 10


def classical_workload(lib, seed: int) -> Workload:
    C, B = lib.classical, lib.boolfn
    rng = _rng(seed, 4)
    circuit = C.build_shallow_ur_circuit(C.CIRCUIT_N_CAP)
    # entries stay within the 16-bit default width through n=10 butterflies
    fwht_input = rng.integers(-16, 16, size=1 << FWHT_N)
    ops = []
    degrees = {}
    for n in CLASSICAL_SIZES:
        g = B.DataTable.random(n, rng)
        m = int(rng.integers(1, 1 << n))
        degrees[n] = B.degree(g)

        def run(g=g, m=m, n=n) -> str | None:
            try:
                outs = {"naive": C.ur_naive(g, m),
                        "fwht": C.ur_via_fwht(g, m, width=64)}
                if n <= C.CIRCUIT_N_CAP:
                    outs["circuit"] = C.simulate_circuit(circuit, g, m)
                deg_in, deg_out = B.degree(g), B.degree(outs["naive"])
                wh = None
                if n == CLASSICAL_SIZES[0]:
                    wh = C.fwht_via_ur(fwht_input)
                    wh_ok = np.array_equal(wh, C.fwht(fwht_input))
            except Exception as exc:
                return _failure(exc)
            if len({o.bits for o in outs.values()}) != 1:
                return f"engines disagree: {sorted(outs)}"
            if not deg_out <= deg_in - 1:
                return f"degree {deg_in} -> {deg_out} does not descend"
            if wh is not None and not wh_ok:
                return "fwht_via_ur differs from the butterfly"
            return None

        ops.append(Op(f"ur.n{n}", run))
    sizes = {"update_rule_n": list(CLASSICAL_SIZES), "degrees": degrees,
             "circuit_n": C.CIRCUIT_N_CAP, "fwht_via_ur_n": FWHT_N}
    return Workload("bench_classical", ops, sizes)


WORKLOADS = {
    "enumerate": enumerate_workload,
    "trajectories": trajectories_workload,
    "wide_twirl": wide_twirl_workload,
    "classical": classical_workload,
}
