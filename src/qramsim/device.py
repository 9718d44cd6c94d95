"""Noisy physical QRAM device models with dataset-independent noise, the
dead-router example, stochastic encoding noise, and Pauli twirling of
arbitrary channels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import DataTable, parity
from .errors import DimensionMismatchError, PreconditionError
from .qcore import (
    DensityMatrix,
    PauliString,
    QuantumChannel,
    apply_kraus,
    check_register_cap,
    pauli_matrix,
    plus_state,
    pure_density,
    qram_unitary,
)


@dataclass(frozen=True)
class NoisyDevice:
    """A device whose noise does not depend on the dataset it is queried
    with: the query acts as post_noise . V(g) on |+>^n, where post_noise is
    a fixed channel (never a function of g) and None means noiseless."""

    n: int
    post_noise: QuantumChannel | None
    label: str = "custom"

    def __post_init__(self):
        ch = self.post_noise
        if ch is not None and (ch.in_qubits != self.n or ch.out_qubits != self.n):
            raise DimensionMismatchError("noise channel size differs from device")


def noisy_resource_state(dev: NoisyDevice, g: DataTable) -> DensityMatrix:
    """post_noise[ V(g) |+><+|^n V(g)' ]."""
    if g.n != dev.n:
        raise DimensionMismatchError("dataset size differs from device")
    check_register_cap(dev.n)
    rho = pure_density(plus_state(dev.n)).matrix
    diag = qram_unitary(g)
    rho = rho * np.outer(diag, diag)
    if dev.post_noise is not None:
        rho = apply_kraus(dev.post_noise.kraus, rho)
    return DensityMatrix(dev.n, rho)


# ---------------------------------------------------------------------------
# Presets.

def noiseless_device(n: int) -> NoisyDevice:
    return NoisyDevice(n, None, "noiseless")


def dead_router_device(n: int, addresses) -> NoisyDevice:
    """Querying any address in `addresses` crashes the device and replaces
    the output with the maximally mixed state; all other addresses pass
    through untouched. Realized as the explicit Kraus list
    {I - Pi} + {|z><x| / 2^(n/2) : x in addresses, z}."""
    d = 1 << n
    addresses = sorted(set(int(a) for a in addresses))
    if any(not 0 <= a < d for a in addresses):
        raise PreconditionError("addresses outside {0,1}^n")
    proj_rest = np.eye(d, dtype=np.complex128)
    for a in addresses:
        proj_rest[a, a] = 0.0
    kraus = [proj_rest]
    scale = 1.0 / np.sqrt(d)
    for a in addresses:
        for z in range(d):
            op = np.zeros((d, d), dtype=np.complex128)
            op[z, a] = scale
            kraus.append(op)
    post = QuantumChannel(n, n, tuple(kraus))
    return NoisyDevice(n, post, f"dead_router[{len(addresses)}]")


def dead_router_fidelity(n: int, num_addresses: int) -> float:
    """Closed-form fidelity of the dead-router device on the |+>^n input."""
    d = 1 << n
    k = num_addresses
    return (d - k) * (d - 1 - k) / d**2 + 1.0 / d


def global_depolarizing_device(n: int, p: float) -> NoisyDevice:
    """Output is replaced by the maximally mixed state with probability p."""
    if not 0 <= p <= 1:
        raise PreconditionError("p must be in [0, 1]")
    d = 1 << n
    kraus = [np.sqrt(1 - p) * np.eye(d, dtype=np.complex128)]
    for z in range(d):
        for x in range(d):
            op = np.zeros((d, d), dtype=np.complex128)
            op[z, x] = np.sqrt(p / d)
            kraus.append(op)
    return NoisyDevice(n, QuantumChannel(n, n, tuple(kraus)), f"depolarizing({p})")


def dephasing_device(n: int, p: float) -> NoisyDevice:
    """Independent phase flip with probability p on every qubit."""
    if not 0 <= p <= 1:
        raise PreconditionError("p must be in [0, 1]")
    d = 1 << n
    x = np.arange(d)
    kraus = []
    for flips in range(d):
        weight = np.sqrt((1 - p) ** (n - bin(flips).count("1")) * p ** bin(flips).count("1"))
        if weight == 0.0:
            continue
        op = np.zeros((d, d), dtype=np.complex128)
        signs = 1.0 - 2.0 * parity(x & flips)
        op[x, x] = weight * signs
        kraus.append(op)
    return NoisyDevice(n, QuantumChannel(n, n, tuple(kraus)), f"dephasing({p})")


def coherent_rotation_device(n: int, theta: float) -> NoisyDevice:
    """Coherent over-rotation exp(-i theta X) on every qubit after the query."""
    c, s = np.cos(theta), -1j * np.sin(theta)
    u1 = np.array([[c, s], [s, c]], dtype=np.complex128)
    u = np.array([[1.0]], dtype=np.complex128)
    for _ in range(n):
        u = np.kron(u, u1)
    return NoisyDevice(n, QuantumChannel(n, n, (u,)), f"coherent({theta})")


def custom_kraus_device(n: int, kraus, label: str = "custom") -> NoisyDevice:
    return NoisyDevice(n, QuantumChannel(n, n, tuple(kraus)), label)


# ---------------------------------------------------------------------------
# Pauli twirl of an arbitrary channel.

@dataclass(frozen=True)
class PauliTwirlResult:
    channel: QuantumChannel
    chi_identity: float
    weights: dict

    @property
    def chi_II(self) -> float:
        return self.chi_identity


def pauli_weights(kraus, n: int) -> np.ndarray:
    """Pauli-twirl weights chi[a, b] = sum_k |tr((X^b Z^a)' K_k)|^2 / d^2.

    For each X-pattern b the diagonal k_b[x] = K[x xor b, x] is
    Walsh-Hadamard transformed, which yields the traces for every Z-pattern
    a at once: O(d^3) per Kraus operator.
    """
    d = 1 << n
    x = np.arange(d)
    sign = 1.0 - 2.0 * parity(x[:, None] & x)   # (-1)^(a.x), symmetric
    shifted = x[None, :] ^ x[:, None]           # shifted[b, x] = x xor b
    chi = np.zeros((d, d))
    for k in kraus:
        chi += np.abs(k[shifted, x] @ sign) ** 2  # indexed [b, a]
    return chi.T / d**2


def pauli_twirl_channel(ch: QuantumChannel) -> PauliTwirlResult:
    """Average of G' . ch(G . G') . G over unsigned Pauli strings G: the
    stochastic Pauli channel with weights ``pauli_weights``, whose
    identity-Pauli weight chi_II is exposed."""
    n = ch.in_qubits
    if ch.out_qubits != n:
        raise DimensionMismatchError("twirl needs equal input and output sizes")
    chi = pauli_weights(ch.kraus, n)
    weights = {}
    kraus = []
    for a in range(1 << n):
        for b in range(1 << n):
            w = float(chi[a, b])
            if w > 1e-15:
                weights[(a, b)] = w
                kraus.append(np.sqrt(w) * pauli_matrix(PauliString(n, 0, a, b)))
    chan = QuantumChannel(n, n, tuple(kraus))
    return PauliTwirlResult(chan, float(weights.get((0, 0), 0.0)), weights)


# ---------------------------------------------------------------------------
# Encoding noise: a stochastic Pauli channel standing in for the logical
# error introduced when unprotected physical states are encoded.

@dataclass(frozen=True)
class EncodingNoise:
    """Stochastic Pauli model of the encoding step.

    ``weights`` maps signed Pauli strings to probabilities; the identity
    weight must be at least 1 - eps_enc (a configuration check).
    """

    eps_enc: float
    weights: tuple  # ((PauliString, float), ...)

    def __post_init__(self):
        if not 0 <= self.eps_enc <= 1:
            raise PreconditionError("eps_enc must be in [0, 1]")
        total = sum(w for _, w in self.weights)
        if abs(total - 1.0) > 1e-9:
            raise PreconditionError("Pauli weights must sum to 1")
        ident = sum(w for p, w in self.weights if p.a == 0 and p.b == 0 and p.s == 0)
        if ident < 1.0 - self.eps_enc - 1e-12:
            raise PreconditionError("identity weight below 1 - eps_enc")

    @property
    def identity_weight(self) -> float:
        return sum(w for p, w in self.weights if p.a == 0 and p.b == 0 and p.s == 0)

    @classmethod
    def none(cls, n: int) -> "EncodingNoise":
        return cls(0.0, ((PauliString(n, 0, 0, 0), 1.0),))

    @classmethod
    def depolarizing(cls, n: int, q: float) -> "EncodingNoise":
        """Pauli weights realizing rho -> (1-q) rho + q I/2^n exactly:
        weight q/4^n on every unsigned Pauli plus 1-q extra on identity."""
        if not 0 <= q < 1:
            raise PreconditionError("q must be in [0, 1)")
        total = 1 << (2 * n)
        items = [(PauliString(n, 0, 0, 0), 1.0 - q + q / total)]
        for a in range(1 << n):
            for b in range(1 << n):
                if a or b:
                    items.append((PauliString(n, 0, a, b), q / total))
        return cls(q, tuple(items))

    @classmethod
    def random_tail(cls, n: int, identity_weight: float, rng: np.random.Generator,
                    tail_size: int = 4) -> "EncodingNoise":
        """Identity with the given weight plus a random Pauli tail."""
        if not 0 < identity_weight <= 1:
            raise PreconditionError("identity_weight must be in (0, 1]")
        items = [(PauliString(n, 0, 0, 0), identity_weight)]
        raw = rng.random(tail_size)
        raw = raw / raw.sum() * (1.0 - identity_weight)
        for w in raw:
            a = int(rng.integers(1 << n))
            b = int(rng.integers(1 << n))
            if a == 0 and b == 0:
                a = 1
            items.append((PauliString(n, 0, a, b), float(w)))
        return cls(1.0 - identity_weight, tuple(items))


def apply_encoding_noise(enc: EncodingNoise, rho: DensityMatrix) -> DensityMatrix:
    out = np.zeros_like(rho.matrix)
    for p, w in enc.weights:
        if p.n != rho.num_qubits:
            raise DimensionMismatchError("encoding noise size differs from state")
        pm = pauli_matrix(p)
        out += w * (pm @ rho.matrix @ pm.conj().T)
    return DensityMatrix(rho.num_qubits, out)


def encoding_channel(enc: EncodingNoise, n: int) -> QuantumChannel:
    kraus = tuple(np.sqrt(w) * pauli_matrix(p) for p, w in enc.weights if w > 0)
    return QuantumChannel(n, n, kraus)
