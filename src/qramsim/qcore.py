"""Dense complex linear algebra: states, density matrices, signed Pauli
strings, Kraus channels, distances, and the QRAM diagonal/resource state.

Qubit k (0-based) is bit k of the basis index, so the first address bit is
the least significant bit, matching `boolfn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .boolfn import DataTable, parity
from .errors import DimensionMismatchError, InvariantViolation, SizeCapError

REGISTER_QUBIT_CAP = 6    # dense pure registers (resource states)

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = -1e-8           # absorbs roundoff from long channel compositions
NORM_TOL = 1e-9
TP_TOL = 1e-8

def check_register_cap(num_qubits: int) -> None:
    if num_qubits > REGISTER_QUBIT_CAP:
        raise SizeCapError(
            f"register of {num_qubits} qubits exceeds cap {REGISTER_QUBIT_CAP}")


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.num_qubits,):
            raise DimensionMismatchError("amplitude vector length is not 2^q")
        if not abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL:   # NaN fails too
            raise InvariantViolation("state vector is not normalized")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True)
class DensityMatrix:
    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", mat)
        d = 1 << self.num_qubits
        if mat.shape != (d, d):
            raise DimensionMismatchError("density matrix is not 2^q x 2^q")
        # a NaN or infinite entry makes the difference NaN, which fails too
        if not np.abs(mat - mat.conj().T).max() <= HERMITICITY_TOL:
            raise InvariantViolation("density matrix is not a finite Hermitian matrix")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL:
            raise InvariantViolation("density matrix trace differs from 1")
        # mat - PSD_TOL I has a Cholesky factor iff no eigenvalue of mat lies
        # below PSD_TOL
        try:
            np.linalg.cholesky(mat - PSD_TOL * np.eye(d))
        except np.linalg.LinAlgError:
            raise InvariantViolation("density matrix has a negative eigenvalue") from None

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def pure_density(psi: StateVector) -> DensityMatrix:
    v = psi.amplitudes
    return DensityMatrix(psi.num_qubits, np.outer(v, v.conj()))


def plus_state(n: int) -> StateVector:
    check_register_cap(n)
    d = 1 << n
    return StateVector(n, np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128))


def qram_unitary(g: DataTable) -> np.ndarray:
    """Diagonal of the dataset phase unitary: entry x is (-1)^g(x)."""
    check_register_cap(g.n)
    return 1.0 - 2.0 * g.to_array().astype(np.float64)


def resource_state(g: DataTable) -> StateVector:
    """The phase state with amplitude (-1)^g(x) / 2^(n/2) at x."""
    check_register_cap(g.n)
    d = 1 << g.n
    return StateVector(g.n, qram_unitary(g).astype(np.complex128) / np.sqrt(d))


# ---------------------------------------------------------------------------
# Signed Pauli strings: canonical form i^(a.b mod 2) (-1)^s X^b Z^a.

class PauliSubset(Enum):
    IDENTITY = "P0"
    MINUS_IDENTITY = "P1"
    Z_TYPE = "PZ"
    EVEN = "Peven"
    ODD = "Podd"


@dataclass(frozen=True, slots=True)
class PauliString:
    """Signed n-qubit Pauli i^(a.b) (-1)^s X^b Z^a with a, b packed as ints.

    Two PauliStrings are equal iff (s, a, b) are equal; the i factor makes
    every element Hermitian.
    """

    n: int
    s: int
    a: int
    b: int

    def __post_init__(self):
        top = 1 << self.n
        if not (0 <= self.a < top and 0 <= self.b < top and self.s in (0, 1)):
            raise DimensionMismatchError("Pauli components out of range")

    @property
    def phase(self) -> complex:
        p = 1j if (self.a & self.b).bit_count() & 1 else 1.0
        return -p if self.s else p


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense realization; Hermitian and unitary by construction."""
    check_register_cap(p.n)
    d = 1 << p.n
    x = np.arange(d)
    za = 1.0 - 2.0 * parity(x & p.a)  # (-1)^(a.x)
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[x ^ p.b, x] = p.phase * za
    return mat


def pauli_subset(p: PauliString) -> PauliSubset:
    if p.a == 0 and p.b == 0:
        return PauliSubset.MINUS_IDENTITY if p.s else PauliSubset.IDENTITY
    if p.b == 0:
        return PauliSubset.Z_TYPE
    if (p.a & p.b).bit_count() & 1:
        return PauliSubset.ODD
    return PauliSubset.EVEN


def subset_size(kind: PauliSubset, n: int) -> int:
    """Cardinalities of the canonical partition (verified by enumeration)."""
    if kind in (PauliSubset.IDENTITY, PauliSubset.MINUS_IDENTITY):
        return 1
    if kind is PauliSubset.Z_TYPE:
        return 2 * ((1 << n) - 1)
    # EVEN and ODD each contain 2^n (2^n - 1) elements.
    return (1 << n) * ((1 << n) - 1)


def match_signed_pauli(matrix: np.ndarray, tol: float = 1e-9):
    """Return the PauliString whose dense form equals `matrix`, else None."""
    d = matrix.shape[0]
    n = d.bit_length() - 1
    nz = np.flatnonzero(np.abs(matrix[:, 0]) > 0.5)
    if len(nz) != 1:
        return None
    b = int(nz[0])
    x = np.arange(d)
    vals = matrix[x ^ b, x]  # phase * (-1)^(a.x)
    if np.abs(np.abs(vals) - 1.0).max() > tol:
        return None
    rel = vals / vals[0]  # (-1)^(a.x) when the input is a Pauli
    if np.abs(rel.imag).max() > tol:
        return None
    a = 0
    for i in range(n):
        if rel.real[1 << i] < 0:
            a |= 1 << i
    for s in (0, 1):
        cand = PauliString(n, s, a, b)
        if np.abs(pauli_matrix(cand) - matrix).max() <= tol:
            return cand
    return None


# ---------------------------------------------------------------------------
# Channels.

@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map given by a Kraus list."""

    in_qubits: int
    out_qubits: int
    kraus: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        din, dout = 1 << self.in_qubits, 1 << self.out_qubits
        for k in ops:
            if k.shape != (dout, din):
                raise DimensionMismatchError("Kraus operator has wrong shape")
        acc = sum(k.conj().T @ k for k in ops)
        if not np.abs(acc - np.eye(din)).max() <= TP_TOL:   # NaN fails too
            raise InvariantViolation("channel is not trace preserving")

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.num_qubits != self.in_qubits:
            raise DimensionMismatchError("channel/state size mismatch")
        out = apply_kraus(self.kraus, rho.matrix)
        return DensityMatrix(self.out_qubits, out)

    @property
    def num_factors(self) -> int:
        """The number of factors per state that ``factors`` returns."""
        return len(self.kraus)

    def factors(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The output on the stack psi (k, din) of pure input vectors in
        factored form sum_r phi_r phi_r' + mass I/dout: the factors
        phi[k, r] = K_r psi_k (k, r, dout), and mass 0 (k,)."""
        psi = np.asarray(psi, dtype=np.complex128)
        return np.stack([psi @ op.T for op in self.kraus], axis=1), np.zeros(len(psi))

    def on_states(self, psi: np.ndarray) -> np.ndarray:
        """The stack (k, dout, dout) of sum_r (K_r psi)(K_r psi)' for the
        stack psi (k, din) of pure input vectors: O(r d^2) per vector.

        The operators are taken dout at a time, so the work space is the
        size of the output stack, however long the Kraus list.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        dout = 1 << self.out_qubits
        out = np.zeros((len(psi), dout, dout), dtype=np.complex128)
        phi = np.empty((len(psi), min(dout, len(self.kraus)), dout), dtype=np.complex128)
        for lo in range(0, len(self.kraus), dout):
            batch = self.kraus[lo:lo + dout]
            for r, op in enumerate(batch):
                np.matmul(psi, op.T, out=phi[:, r])        # [k, r, i] = (K_r psi_k)_i
            part = phi[:, :len(batch)]
            out += part.transpose(0, 2, 1) @ part.conj()
        return out

    @cached_property
    def chi(self) -> np.ndarray:
        """Pauli-twirl weights ``pauli_weights`` of a channel with equal
        input and output sizes, computed on first access."""
        return pauli_weights(self.kraus, self.in_qubits)


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


def apply_kraus(kraus, mat: np.ndarray) -> np.ndarray:
    out = np.zeros((kraus[0].shape[0], kraus[0].shape[0]), dtype=np.complex128)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


def apply_channel(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    return ch.apply(rho)


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError("trace distance of unequal shapes")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(ma - mb)).sum())


def fidelity_pure(rho: DensityMatrix, psi: StateVector) -> float:
    if rho.num_qubits != psi.num_qubits:
        raise DimensionMismatchError("fidelity size mismatch")
    v = psi.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))
