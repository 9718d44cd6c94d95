"""Noisy physical QRAM device models with dataset-independent noise, the
dead-router example, stochastic encoding noise, and Pauli twirling of
arbitrary channels.

A device's noise is a ``QuantumChannel``. The presets give theirs in closed
form: the output on a stack of pure states in factored form
sum_r phi_r phi_r' + mass I/d (``factors``, from which ``on_states`` builds
the dense stack), the Pauli-twirl weights (``chi``) and the Monte Carlo
twirl as a kernel from the sampled address maps (``twirl_kernel``), so that
neither the noisy resource state nor the twirled state needs a Kraus list.
A preset builds its Kraus list only when something asks for ``kraus``
(``QuantumChannel.apply`` or a dense test oracle), and then keeps it. The
encoding noise acts on dense stacks (``pauli_channel``) and on factors
(``pauli_factors``), each with the floor of its weights as a depolarizing
part (``pauli_floor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boolfn import DataTable, parity
from .errors import DimensionMismatchError, PreconditionError
from .qcore import (
    DensityMatrix,
    PauliString,
    QuantumChannel,
    check_register_cap,
    pauli_matrix,
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


def noisy_resource_state(dev: NoisyDevice | None, g: DataTable) -> DensityMatrix:
    """post_noise[ V(g) |+><+|^n V(g)' ], through ``post_noise.on_states``;
    ``dev=None`` is the noiseless device."""
    if dev is not None and g.n != dev.n:
        raise DimensionMismatchError("dataset size differs from device")
    check_register_cap(g.n)
    psi = qram_unitary(g) / np.sqrt(1 << g.n)             # V(g)|+>^n, real
    if dev is None or dev.post_noise is None:
        return DensityMatrix(g.n, np.outer(psi, psi))
    return DensityMatrix(g.n, dev.post_noise.on_states(psi[None])[0])


# ---------------------------------------------------------------------------
# Presets.

class PresetNoise(QuantumChannel):
    """An n-qubit preset channel given by closed forms, with its parameters
    as attributes. Subclasses define ``factors`` (which keeps a real stack
    real) and their count ``num_factors`` (one unless overridden), ``chi``,
    ``twirl_kernel`` and ``_kraus``, the Kraus list that ``kraus`` builds on
    first access. ``twirl_kernel(fwd, u)`` takes the address tables
    x -> A_s x (N, d) and shifts u_s of N twirl samples and returns (K, c):
    the channel conjugated by each sample's restore, summed over the
    samples, maps psi psi' to psi psi' o K + N c I.
    The trace-preservation check of ``QuantumChannel`` runs then, not at
    construction. Equality and hashing go by the class, n and the
    parameters, and never build the list."""

    num_factors = 1

    def __init__(self, n: int, **params):
        for name, value in dict(params, in_qubits=n, out_qubits=n).items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", (type(self), n, tuple(sorted(params.items()))))

    def __eq__(self, other) -> bool:
        return isinstance(other, PresetNoise) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.in_qubits})"

    @cached_property
    def kraus(self) -> tuple:
        return QuantumChannel(self.in_qubits, self.out_qubits, self._kraus()).kraus

    def on_states(self, psi: np.ndarray) -> np.ndarray:
        """The stack sum_r phi_r phi_r' + mass I/d of ``factors``."""
        phi, mass = self.factors(psi)
        d = phi.shape[-1]
        rho = phi.transpose(0, 2, 1) @ phi.conj()
        rho[:, np.arange(d), np.arange(d)] += mass[:, None] / d
        return rho


class DeadRouterNoise(PresetNoise):
    """rho -> (I - Pi) rho (I - Pi) + tr(Pi rho) I/d, with Pi the projector
    onto the dead ``addresses``."""

    def factors(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(I - Pi) psi, with mass |Pi psi|^2."""
        dead = list(self.addresses)
        live = psi.copy()
        live[:, dead] = 0.0
        return live[:, None], (np.abs(psi[:, dead]) ** 2).sum(axis=1)

    def twirl_kernel(self, fwd: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
        """A restore x -> Ax xor u maps I - Pi to I - Pi_s, off the image
        D_s = A D xor u of the dead set, and the mass stays k/d: K[w, w']
        counts the samples whose image misses w and w', N - n(w) - n(w') +
        n(w, w') for the counts n of images holding them, from one bincount
        over the k^2 pairs of each image; c = k/d^2."""
        d = fwd.shape[1]
        img = fwd[:, list(self.addresses)] ^ u[:, None]
        both = np.bincount((img[:, :, None] * d + img[:, None, :]).ravel(),
                           minlength=d * d).reshape(d, d)
        once = np.diag(both)
        return len(fwd) - once[:, None] - once + both, len(self.addresses) / d**2

    @cached_property
    def chi(self) -> np.ndarray:
        """chi[a, b] = [b = 0] (d [a = 0] - S_a)^2 / d^2 + k / d^3 with
        S_a = sum over dead x of (-1)^(a.x): I - Pi is diagonal and each
        |z><x| / 2^(n/2) has weight 1/d^3 on every Pauli."""
        d = 1 << self.in_qubits
        x = np.arange(d)
        s = (1.0 - 2.0 * parity(x[:, None] & np.array(self.addresses, dtype=int))).sum(axis=1)
        chi = np.full((d, d), len(self.addresses) / d**3)
        chi[:, 0] += (d * (x == 0) - s) ** 2 / d**2
        return chi

    def _kraus(self) -> list:
        d = 1 << self.in_qubits
        eye = np.eye(d)
        live = eye.copy()
        live[self.addresses, self.addresses] = 0.0
        return [live] + [np.outer(eye[z], eye[a]) / np.sqrt(d)
                         for a in self.addresses for z in range(d)]


class DepolarizingNoise(PresetNoise):
    """rho -> (1 - p) rho + p tr(rho) I/d."""

    def factors(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(1 - p) psi, with mass p |psi|^2."""
        return np.sqrt(1 - self.p) * psi[:, None], self.p * (np.abs(psi) ** 2).sum(axis=1)

    def twirl_kernel(self, fwd: np.ndarray, u: np.ndarray) -> tuple[float, float]:
        """Every restore leaves the channel as it is: K = (1 - p) N and
        c = p/d."""
        return (1 - self.p) * len(fwd), self.p / (1 << self.in_qubits)

    @cached_property
    def chi(self) -> np.ndarray:
        """p/d^2 on every Pauli, plus 1 - p on the identity."""
        d = 1 << self.in_qubits
        chi = np.full((d, d), self.p / d**2)
        chi[0, 0] += 1 - self.p
        return chi

    def _kraus(self) -> list:
        d = 1 << self.in_qubits
        eye = np.eye(d)
        return [np.sqrt(1 - self.p) * eye] + [np.sqrt(self.p / d) * np.outer(eye[z], eye[x])
                                              for z in range(d) for x in range(d)]


class DephasingNoise(PresetNoise):
    """Independent phase flip with probability p on every qubit: the Schur
    product rho -> rho o (1 - 2p)^|x xor y|. It has up to d factors, so the
    dense ``on_states`` keeps that O(d^2) product per state."""

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """sqrt(w_f) (-1)^(f.x) for each flip pattern f of nonzero weight
        w_f = chi[f, 0]: the diagonals of the Kraus operators sqrt(w_f) Z^f."""
        w = self.chi[:, 0]
        flips = np.flatnonzero(w)
        x = np.arange(len(w))
        return np.sqrt(w[flips])[:, None] * (1.0 - 2.0 * parity(flips[:, None] & x))

    @property
    def num_factors(self) -> int:
        return len(self._diagonals)

    def factors(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(w_f) Z^f psi for each nonzero weight w_f, with mass 0."""
        return psi[:, None, :] * self._diagonals, np.zeros(len(psi))

    @cached_property
    def _schur_kernel(self) -> np.ndarray:
        x = np.arange(1 << self.in_qubits)
        return (1.0 - 2.0 * self.p) ** np.bitwise_count(x[:, None] ^ x)

    def on_states(self, psi: np.ndarray) -> np.ndarray:
        return psi[:, :, None] * psi.conj()[:, None, :] * self._schur_kernel

    def twirl_kernel(self, fwd: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
        """A restore x -> Ax xor u maps Z^f to +-Z^(A^-T f), so K[w, w'] is
        F[w xor w'] with F(z) = sum_s w_hat(A_s^-1 z): the Walsh-Hadamard
        transform w_hat(y) = (1 - 2p)^|y| of the flip weights, pushed through
        y -> A_s y by one bincount; c = 0."""
        d = fwd.shape[1]
        f = np.bincount(fwd.ravel(), np.tile(self._schur_kernel[0], len(fwd)), d)
        x = np.arange(d)
        return f[x[:, None] ^ x], 0.0

    @cached_property
    def chi(self) -> np.ndarray:
        """p^|a| (1 - p)^(n - |a|) on Z^a, zero on every Pauli with X part."""
        n = self.in_qubits
        flips = np.bitwise_count(np.arange(1 << n))
        chi = np.zeros((1 << n, 1 << n))
        chi[:, 0] = self.p ** flips * (1 - self.p) ** (n - flips)
        return chi

    def _kraus(self) -> list:
        return list(map(np.diag, self._diagonals))


def noiseless_device(n: int) -> NoisyDevice:
    return NoisyDevice(n, None, "noiseless")


def dead_router_device(n: int, addresses) -> NoisyDevice:
    """Querying any address in `addresses` crashes the device and replaces
    the output with the maximally mixed state; all other addresses pass
    through untouched. Its Kraus list, built on request, is
    {I - Pi} + {|z><x| / 2^(n/2) : x in addresses, z}."""
    d = 1 << n
    addresses = sorted(set(int(a) for a in addresses))
    if any(not 0 <= a < d for a in addresses):
        raise PreconditionError("addresses outside {0,1}^n")
    return NoisyDevice(n, DeadRouterNoise(n, addresses=tuple(addresses)),
                       f"dead_router[{len(addresses)}]")


def dead_router_fidelity(n: int, num_addresses: int) -> float:
    """Closed-form fidelity of the dead-router device on the |+>^n input."""
    d = 1 << n
    k = num_addresses
    return (d - k) * (d - 1 - k) / d**2 + 1.0 / d


def global_depolarizing_device(n: int, p: float) -> NoisyDevice:
    """Output is replaced by the maximally mixed state with probability p
    (on request, d^2 + 1 Kraus operators)."""
    if not 0 <= p <= 1:
        raise PreconditionError("p must be in [0, 1]")
    return NoisyDevice(n, DepolarizingNoise(n, p=p), f"depolarizing({p})")


def dephasing_device(n: int, p: float) -> NoisyDevice:
    """Independent phase flip with probability p on every qubit."""
    if not 0 <= p <= 1:
        raise PreconditionError("p must be in [0, 1]")
    return NoisyDevice(n, DephasingNoise(n, p=p), f"dephasing({p})")


def coherent_rotation_device(n: int, theta: float) -> NoisyDevice:
    """Coherent over-rotation exp(-i theta X) on every qubit after the query:
    a one-operator Kraus channel, whose one factor is U psi."""
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
    chi_II: float
    weights: dict


def pauli_twirl_channel(ch: QuantumChannel) -> PauliTwirlResult:
    """Average of G' . ch(G . G') . G over unsigned Pauli strings G: the
    stochastic Pauli channel with weights ``ch.chi``, whose
    identity-Pauli weight chi_II is exposed."""
    n = ch.in_qubits
    if ch.out_qubits != n:
        raise DimensionMismatchError("twirl needs equal input and output sizes")
    chi = ch.chi
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
        if any(p.n != self.n for p, _ in self.weights):
            raise DimensionMismatchError("Pauli weights act on different qubit counts")
        if self.identity_weight < 1.0 - self.eps_enc - 1e-12:
            raise PreconditionError("identity weight below 1 - eps_enc")

    @property
    def n(self) -> int:
        """The qubit count every weighted Pauli acts on."""
        return self.weights[0][0].n

    @property
    def identity_weight(self) -> float:
        """The weight on I, signs summed as in ``table``."""
        return float(self.table[0, 0])

    @cached_property
    def table(self) -> np.ndarray:
        """The weights as w[a, b] on the unsigned Paulis X^b Z^a (a sign
        drops out of P rho P'), built once and read-only."""
        w = np.zeros((1 << self.n, 1 << self.n))
        for p, weight in self.weights:
            w[p.a, p.b] += weight
        w.flags.writeable = False
        return w

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


def pauli_floor(w: np.ndarray) -> tuple[float, np.ndarray]:
    """The Pauli weights w[a, b] split at their floor w_min = min w: the
    floor on every unsigned Pauli is the depolarizing part
    rho -> w_min d tr(rho) I, and w - w_min is zero on every Pauli at it."""
    floor = float(w.min())
    return floor, w - floor


def pauli_channel(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_{a,b} w[a, b] X^b Z^a rho Z^a X^b for a stack rho (..., d, d).

    The floor of ``pauli_floor`` adds w_min d tr(rho) I. Above it, at
    [y, y'] this is sum_b w_hat[y xor y', b] rho[y xor b, y' xor b], where
    w_hat is the Walsh-Hadamard transform over a of w - w_min. Only the
    X-patterns b with a weight above the floor are visited, so the work is
    O(d^2) per such b and state, and a real stack stays real.
    """
    d = w.shape[0]
    floor, above = pauli_floor(w)
    x = np.arange(d)
    xor = x[:, None] ^ x                                      # xor[b, y] = y xor b
    w_hat = above.T @ (1.0 - 2.0 * parity(x[:, None] & x))    # [b, y xor y']
    flat = rho.reshape(rho.shape[:-2] + (d * d,))
    out = np.zeros_like(rho)
    for b in np.flatnonzero(above.any(axis=0)):
        out += w_hat[b, xor] * np.take(flat, xor[b, :, None] * d + xor[b], axis=-1)
    out[..., x, x] += floor * d * np.trace(rho, axis1=-2, axis2=-1)[..., None]
    return out


def pauli_factors(w: np.ndarray, phi: np.ndarray,
                  mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pauli_channel`` on the factored stack sum_r phi_r phi_r' + mass I/d
    (phi (k, R, d), mass (k,)), in the same form: R T factors per state for
    the T Paulis above the floor of ``pauli_floor``. Such a Pauli X^b Z^a
    maps phi to (-1)^(a.(y xor b)) phi[y xor b], scaled by
    sqrt(w - w_min); the mass becomes mass sum(w) + w_min d^2 sum_r |phi_r|^2.
    """
    d = w.shape[0]
    floor, above = pauli_floor(w)
    a, b = np.nonzero(above)
    src = np.arange(d) ^ b[:, None]                                   # y xor b
    signs = np.sqrt(above[a, b])[:, None] * (1.0 - 2.0 * parity(a[:, None] & src))
    out = phi[:, :, src] * signs                                      # (k, R, T, d)
    mass = mass * w.sum() + floor * d * d * (np.abs(phi) ** 2).sum(axis=(1, 2))
    return out.reshape(len(phi), -1, d), mass


def apply_encoding_noise(enc: EncodingNoise, rho: DensityMatrix) -> DensityMatrix:
    """The encoding noise on one state, through ``pauli_channel``."""
    if enc.n != rho.num_qubits:
        raise DimensionMismatchError("encoding noise size differs from state")
    return DensityMatrix(rho.num_qubits, pauli_channel(enc.table, rho.matrix))
