"""Resource-state teleportation, the adaptive correction protocol, the
Clifford-hierarchy membership check, and the cost formulas.

Teleportation of a resource state phi into an address register acts, for
measurement outcome m, as elementwise multiplication of the address density
matrix by the m-shifted resource matrix:
rho[x, y] -> phi[x xor m, y xor m] * rho[x, y] (subnormalized; the trace is
the outcome probability). This closed form drives both protocol modes and
the ``teleport-run`` command; the dense CNOT-and-measure circuit and Kraus
channels survive only as test oracles.

The teleportation Choi matrix is block diagonal in the outcome m, block m
being (1/d) sum_{s,t} phi[s xor m, t xor m] |s,s><t,t|. So each block of its
difference from the ideal channel is a permutation of phi - psi psi^dagger
(psi the ideal resource state) scaled by 1/d, and the Choi gap equals
trace_distance(phi, psi psi^dagger): one d x d eigendecomposition.

Exact branch enumeration composes these Schur products over every outcome
path, in one memoised pass over the distinct reachable datasets. The channel
is rho -> rho * K(f) elementwise, with one d x d kernel per dataset:
K(f) = sum_m branch_multiplier(phi(f), m) * K(update(f, m)), and
K(constant) = all-ones. Under the exact twirl, and without a twirl or
encoding on an absent or depolarizing device, every resource is
alpha psi_f psi_f' + beta I with one (alpha, beta), and the
distillers act on its spectrum [alpha + beta, beta, ..., beta] only. So the
run builds one copy source from that spectrum, with no eigendecomposition,
and each dataset distills it with its own stream to a weight w on psi. The
distilled state is a psi_f psi_f' + (1 - a)/d I with a = (d w - 1)/(d - 1),
and K(f) = r t t' + (1 - r) I with t = qram_unitary(f) and one scalar
r(f) = a(f) mean_m r(update(f, m)) per dataset, r = 1 on constants.

Both modes run on the flattened table hat(f)(x, u) = sign(x) xor u.data(x)
of a b-bit dataset: Hadamards on the bus turn the data-load unitary into
diag(qram_unitary(hat f)) (phase kickback), and they conjugate both Choi
matrices by the same orthogonal map, so the gap is the same in either
picture. The maximally entangled input is supported on the diagonal pairs
|s, s>, so the composed Choi matrix is K(f) / d lifted onto that support,
and the target vector t / sqrt(d), t = qram_unitary(hat f), lies in it: the
Choi gap is one d x d eigenproblem, trace_distance(K, t t') / d.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import boolfn
from .boolfn import NEG_INF, DataTable, SignedDataTable
from .device import DepolarizingNoise, NoisyDevice, apply_encoding_noise, noisy_resource_state
from .distill import (
    DEFAULT_COPY_BUDGET,
    CopySource,
    iterated_swap_test,
    qpca_simple,
    swap_test_depth,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    PreconditionError,
    SizeCapError,
)
from .qcore import (
    REGISTER_QUBIT_CAP,
    DensityMatrix,
    PauliString,
    match_signed_pauli,
    pauli_matrix,
    pure_density,
    qram_unitary,
    resource_state,
    trace_distance,
)
from .rngutil import derive_rng
from .twirlset import exact_twirl_coefficients, twirled_state

ENUMERATE_CAP = REGISTER_QUBIT_CAP  # total register qubits for exact branch enumeration


# ---------------------------------------------------------------------------
# Teleportation channels.

def branch_multiplier(phi_matrix: np.ndarray, m: int) -> np.ndarray:
    """Elementwise factor applied to the address density matrix by the
    teleportation branch with outcome m (subnormalized by the outcome
    probability)."""
    d = phi_matrix.shape[0]
    idx = np.arange(d) ^ m
    return phi_matrix[np.ix_(idx, idx)]


def choi_gap(phi: DensityMatrix, g: DataTable) -> float:
    """Half the trace distance between the Choi matrices of the ideal
    teleportation channel for g and the channel using phi; a lower bound on
    the diamond distance. It equals the trace distance of phi to the ideal
    resource state (see the module docstring)."""
    return trace_distance(phi, pure_density(resource_state(g)))


# ---------------------------------------------------------------------------
# Protocol configuration and trace.

@dataclass(frozen=True)
class DistillerSpec:
    kind: str = "none"             # none | swap_test | qpca_simple
    eps_dist: float = 0.0
    gamma: float | None = None     # qpca_simple only

    def __post_init__(self):
        if self.kind not in ("none", "swap_test", "qpca_simple"):
            raise PreconditionError(f"unknown distiller {self.kind!r}")
        if self.kind != "none" and not 0 < self.eps_dist < 1:
            raise PreconditionError("eps_dist must lie in (0, 1)")


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    b: int = 0
    device: NoisyDevice | None = None
    encoding: object = None        # EncodingNoise | None
    twirl_mode: str = "off"        # off | exact | mc
    twirl_samples: int | None = None
    distiller: DistillerSpec = field(default_factory=DistillerSpec)
    seed: int = 0
    branch_mode: str = "trajectory"
    copy_budget: int = DEFAULT_COPY_BUDGET

    def __post_init__(self):
        if self.branch_mode not in ("trajectory", "enumerate_branches"):
            raise PreconditionError(f"unknown branch mode {self.branch_mode!r}")
        if self.twirl_mode not in ("off", "exact", "mc"):
            raise PreconditionError(f"unknown twirl mode {self.twirl_mode!r}")
        nq = self.total_qubits
        if (self.device is not None and self.device.n != nq) or (
                self.encoding is not None and self.encoding.n != nq):
            raise DimensionMismatchError("device and encoding must act on n + b qubits")
        if self.twirl_mode != "off" and self.device is None:
            raise PreconditionError("twirling requires a device model")

    @property
    def total_qubits(self) -> int:
        return self.n + self.b

    @property
    def round_limit(self) -> int:
        """Most rounds a run takes: the flattened table has degree at most
        n + 1 when b >= 1 and at most n when b = 0, and each round's update
        (a discrete derivative) lowers the degree."""
        return self.n + (1 if self.b else 0)


@dataclass
class RoundRecord:
    round_index: int
    degree_before: int
    m_outcome: int | None
    copies: int
    overlap: float


@dataclass
class ProtocolTrace:
    rounds: list[RoundRecord] = field(default_factory=list)
    terminal_constant: int | None = None
    total_copies: int = 0
    gates_used: int = 0

    def degrees(self) -> list[float]:
        return [r.degree_before for r in self.rounds]

    def strictly_decreasing_degrees(self) -> bool:
        degs = self.degrees()
        return all(b < a for a, b in zip(degs, degs[1:]))

    def to_json(self) -> str:
        return json.dumps({
            "rounds": [
                {"round": r.round_index,
                 "degree": r.degree_before,
                 "m_hex": None if r.m_outcome is None else format(r.m_outcome, "x"),
                 "copies": r.copies,
                 "overlap": r.overlap}
                for r in self.rounds
            ],
            "terminal_constant": self.terminal_constant,
            "total_copies": self.total_copies,
        }, sort_keys=True)


@dataclass
class EffectiveAction:
    """Net diagonal applied along one trajectory, with the phase-invariant
    comparison against the target dataset diagonal."""
    diagonal: np.ndarray
    target_diagonal: np.ndarray
    max_deviation: float
    matches: bool


@dataclass
class ComposedChannel:
    """The enumerated adaptive channel rho -> rho * kernel (``*`` elementwise)
    on the flattened table's register, and its Choi gap to the target phase
    unitary. For b-bit data the bus Hadamards w carry it to the data-load
    picture, rho -> w ((w rho w) * kernel) w, with the same gap."""
    kernel: np.ndarray
    choi_gap: float
    rounds_used: int


# ---------------------------------------------------------------------------
# Per-round resource preparation and distillation.

def _resource_density(cfg: ProtocolConfig, table: DataTable,
                      stream: tuple) -> DensityMatrix:
    """Per-copy state entering distillation for the current dataset."""
    device = cfg.device
    if cfg.twirl_mode == "off":
        rho = noisy_resource_state(device, table)
        if cfg.encoding is not None:
            rho = apply_encoding_noise(cfg.encoding, rho)
        return rho
    if cfg.twirl_mode == "exact":
        return twirled_state(table, device, mode="exact",
                             encoding=cfg.encoding).state
    seed = derive_rng(cfg.seed, *stream).integers(1 << 62)
    return twirled_state(table, device, mode="mc",
                         num_samples=cfg.twirl_samples, seed=int(seed),
                         encoding=cfg.encoding).state


def _distill(cfg: ProtocolConfig, src: CopySource, stream: tuple):
    """Returns (distilled weights over the eigenbasis of ``src``, copies
    consumed)."""
    spec = cfg.distiller
    if spec.kind == "none":
        return src.spectrum, 1
    if spec.kind == "swap_test":
        k = swap_test_depth(src.spectrum, spec.eps_dist)
        rep = iterated_swap_test(src, k, derive_rng(cfg.seed, 0xD15, *stream),
                                 budget=cfg.copy_budget)
        if not rep.success:
            raise BudgetExceededError("distillation copy budget exhausted")
    else:
        gamma = spec.gamma if spec.gamma is not None else float(src.spectrum[0])
        rep = qpca_simple(src, gamma, spec.eps_dist, budget=cfg.copy_budget)
    return rep.weights, rep.copies_consumed


def _distilled_state(cfg: ProtocolConfig, rho: DensityMatrix, stream: tuple):
    """Returns (dense distilled state, copies consumed, overlap). The
    distiller sees only the spectrum of rho, and the state is rebuilt once
    from its weights. Without a distiller the overlap is None: it is rho's
    largest eigenvalue, which only a trajectory reads, from its own eigh."""
    if cfg.distiller.kind == "none":
        return rho.matrix, 1, None
    src = CopySource.from_density(rho.matrix)
    weights, copies = _distill(cfg, CopySource.from_spectrum(src.spectrum), stream)
    return src.rebuild(weights), copies, float(weights[0])


# ---------------------------------------------------------------------------
# Trajectory mode.

def _run_trajectory(root: DataTable, cfg: ProtocolConfig, trial: int):
    nq = cfg.total_qubits
    d = 1 << nq
    rng = derive_rng(cfg.seed, trial, 0xA11CE)
    table = root
    deg = boolfn.degree(table)
    diag = np.ones(d, dtype=np.complex128)
    trace = ProtocolTrace()
    rounds = 0
    while deg > 0:
        phi, copies, overlap = _distilled_state(
            cfg, _resource_density(cfg, table, (trial, rounds)), (trial, rounds))
        vals, vecs = np.linalg.eigh(phi)
        if overlap is None:
            overlap = float(vals[-1])
        vals = np.clip(vals, 0.0, None)
        comp = int(rng.choice(len(vals), p=vals / vals.sum()))
        m = int(rng.integers(d))  # outcomes are uniform for any pure component
        component = vecs[:, comp]
        diag = diag * component[np.arange(d) ^ m] * np.sqrt(d)
        trace.rounds.append(RoundRecord(rounds + 1, deg, m, copies, overlap))
        trace.total_copies += copies
        # controlled swaps per consumed copy, the teleportation CNOT fan, and
        # the restoring twirl Cliffords (unit-constant accounting)
        trace.gates_used += copies * nq + nq
        if cfg.twirl_mode != "off":
            trace.gates_used += copies * nq * nq
        table = boolfn.update_rule(table, m)
        deg = boolfn.degree(table)
        rounds += 1
    trace.terminal_constant = 1 if table.bits else 0

    target = qram_unitary(root).astype(np.complex128)
    ratio = diag / target
    anchor = ratio[0] / abs(ratio[0]) if abs(ratio[0]) > 1e-12 else 1.0
    deviation = float(np.abs(ratio - anchor).max())
    action = EffectiveAction(diag, target, deviation, deviation <= 0.5)
    return action, trace


# ---------------------------------------------------------------------------
# Exact branch enumeration.

def _stream_key(table: DataTable) -> tuple:
    """Random stream of one dataset's twirl and distillation: the table's
    32-bit words, low word first."""
    words = max(1, table.size >> 5)
    return tuple((table.bits >> (32 * i)) & 0xFFFFFFFF for i in range(words)) + (0x3B1,)


def _run_enumeration(root: DataTable, cfg: ProtocolConfig):
    d = 1 << cfg.total_qubits
    exact = cfg.twirl_mode == "exact"
    # one (alpha, beta) gives every resource alpha psi psi' + beta I under the
    # exact twirl, and (1 - p, p/d) with no twirl or encoding on a depolarizing
    # device; no device is the noiseless one, the preset at p = 0
    noise = (cfg.device or NoisyDevice(cfg.total_qubits, None)).post_noise
    scalar = exact or (cfg.twirl_mode == "off" and cfg.encoding is None
                       and isinstance(noise, DepolarizingNoise))
    if scalar:
        # each dataset's resource has the spectrum [alpha + beta, beta, ...],
        # its first entry on psi; the distillers sort it, so psi's weight sits
        # first, or last when alpha < 0
        alpha, beta = (exact_twirl_coefficients(cfg.device, cfg.encoding) if exact
                       else (1 - noise.p, noise.p / d))
        spectrum = np.clip([alpha + beta] + [beta] * (d - 1), 0.0, None)
        iso = CopySource.from_spectrum(spectrum)
        psi_at = 0 if spectrum[0] >= spectrum[1] else d - 1
    leaf = 1.0 if scalar else np.ones((d, d), dtype=np.complex128)
    memo: dict[DataTable, tuple] = {}

    def compose(table: DataTable):
        """K(table), or the scalar r(table) on the scalar path, and the
        highest degree at each depth from ``table`` down where a branch is
        still nonconstant."""
        if table in memo:
            return memo[table]
        deg = boolfn.degree(table)
        if deg <= 0:
            memo[table] = leaf, []
            return memo[table]
        stream = _stream_key(table)
        if scalar:
            w = _distill(cfg, iso, stream)[0][psi_at]
        else:
            phi = _distilled_state(cfg, _resource_density(cfg, table, stream), stream)[0]
        kernels, profiles = zip(*(compose(boolfn.update_rule(table, m))
                                  for m in range(d)))
        if scalar:
            value = (d * w - 1) / (d - 1) * np.mean(kernels)
        else:
            value = sum(branch_multiplier(phi, m) * k for m, k in enumerate(kernels))
        below = itertools.zip_longest(*profiles, fillvalue=NEG_INF)
        memo[table] = value, [deg] + [max(level) for level in below]
        return memo[table]

    composed, depth_degrees = compose(root)
    t = qram_unitary(root)
    target = np.outer(t, t)
    if scalar:
        composed = composed * target + (1 - composed) * np.eye(d)
    # the Choi matrix is K/d on the support |s, s>, and the target vector t
    # lies in that support; d is a power of two, so dividing by d is exact
    gap = trace_distance(composed, target) / d

    trace = ProtocolTrace()
    trace.rounds = [RoundRecord(depth + 1, deg, None, 0, 1.0)
                    for depth, deg in enumerate(depth_degrees)]
    record = ComposedChannel(composed, gap, len(depth_degrees))
    return record, trace


def run_protocol(f, cfg: ProtocolConfig, trial: int = 0):
    """Run the adaptive protocol; returns (record, trace).

    Trajectory mode samples one adaptive run and records the net diagonal
    actually applied (exact per trajectory because each round's resource
    collapses onto one eigenvector). Enumeration mode composes the exact
    adaptive channel over all outcome branches and reports its Schur kernel
    and its Choi gap to the target action.
    """
    if isinstance(f, SignedDataTable):
        if f.n != cfg.n or f.b != cfg.b:
            raise DimensionMismatchError("dataset does not match the configuration")
    elif f.n != cfg.n or cfg.b:
        raise DimensionMismatchError("dataset does not match the configuration")
    if cfg.branch_mode == "enumerate_branches" and cfg.total_qubits > ENUMERATE_CAP:
        raise SizeCapError(f"branch enumeration capped at {ENUMERATE_CAP} qubits")
    # the flattened table of a signed dataset follows the plain update rule:
    # hat(update_rule_signed(f, m)) == update_rule(hat(f), m)
    root = boolfn.hat_function(f) if isinstance(f, SignedDataTable) else f
    if cfg.branch_mode == "trajectory":
        return _run_trajectory(root, cfg, trial)
    return _run_enumeration(root, cfg)


# ---------------------------------------------------------------------------
# Clifford hierarchy membership.

HIERARCHY_N_CAP = 3


def verify_clifford_hierarchy(f: DataTable) -> int:
    """Smallest k such that conjugating the dataset phase unitary by the
    X/Z generators recursively lands in the signed Paulis after k-1 steps."""
    if f.n > HIERARCHY_N_CAP:
        raise SizeCapError(f"hierarchy check capped at n <= {HIERARCHY_N_CAP}")
    n = f.n
    u0 = np.diag(qram_unitary(f).astype(np.complex128))
    # X_q, then Z_q, on each qubit q (PauliString(n, s, a, b) is X^b Z^a)
    gens = [pauli_matrix(PauliString(n, 0, a, b))
            for q in range(n) for a, b in ((0, 1 << q), (1 << q, 0))]
    cache: dict[bytes, int] = {}

    def level(u: np.ndarray, depth: int) -> int:
        if depth > n + 2:
            raise PreconditionError("hierarchy recursion exceeded its bound")
        key = np.round(u, 9).tobytes()
        if key in cache:
            return cache[key]
        if match_signed_pauli(u) is not None:
            cache[key] = 1
            return 1
        worst = 1
        for g in gens:
            worst = max(worst, level(u @ g @ u.conj().T, depth + 1))
        cache[key] = worst + 1
        return worst + 1

    return level(u0, 0)


# ---------------------------------------------------------------------------
# Cost formulas (unit-constant estimates, not guarantees).

@dataclass(frozen=True)
class CostEstimate:
    queries: float          # physical device queries / encodings
    gates: float            # additional fault-tolerant operations
    nonclifford: float      # non-Clifford estimate for the b-bit variant


def estimate_costs(n: int, b: int, fidelity: float, eps: float) -> CostEstimate:
    if not 0 < fidelity <= 1:
        raise PreconditionError("fidelity must lie in (0, 1]")
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    try:
        q = n * (1 - fidelity) / fidelity**2 * (n / eps + 1 / fidelity)
        est = CostEstimate(q, (n + b) ** 2 * q, n**2 * (n + b) / (2 * eps))
    except (ZeroDivisionError, OverflowError) as exc:   # fidelity**2 underflows to 0
        raise SizeCapError("cost estimate exceeds the float range") from exc
    if not np.isfinite([est.queries, est.gates, est.nonclifford]).all():
        raise SizeCapError("cost estimate exceeds the float range")
    return est
