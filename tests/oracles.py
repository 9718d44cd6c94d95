"""Dense reference code that only the tests use.

Kraus-list channel algebra, Choi matrices, registers joined and split,
computational-basis measurement, Pauli products, the twirl draws made one
element at a time, the dense twirl gate and its gate list, the encoding
noise as a Kraus channel, the shift-and-xor parity fold, the dense swap
test, the fractional swap with its 3-controlled-swap block encoding, the
dense Walsh-Hadamard factors, the int64 butterfly transform, and the
shallow update-rule circuit built and run one ``Gate`` at a time.
The library runs none of these: its closed forms are checked against them.

Qubit k (0-based) is bit k of the basis index, as in ``qramsim.qcore``:
``tensor(a, b)`` places a on the low qubits and b above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qramsim.classical import COPY, CSWAP, XOR_INTO
from qramsim.device import EncodingNoise
from qramsim.distill import _as_matrix
from qramsim.errors import DimensionMismatchError, PreconditionError, SizeCapError
from qramsim.qcore import (
    DensityMatrix,
    PauliString,
    QuantumChannel,
    StateVector,
    check_register_cap,
    pauli_matrix,
)
from qramsim.twirlset import TwirlElement, _phases

JOINT_QUBIT_CAP = 12      # dense joint density matrices


def check_joint_cap(num_qubits: int) -> None:
    if num_qubits > JOINT_QUBIT_CAP:
        raise SizeCapError(
            f"joint system of {num_qubits} qubits exceeds cap {JOINT_QUBIT_CAP}")


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: its kind and the wires it acts on, in the order the kind
    defines (bit cells of a classical circuit, or qubits)."""

    kind: str
    wires: tuple[int, ...]


# ---------------------------------------------------------------------------
# Bit parity.

def oracle_parity(v) -> np.ndarray:
    """Parity of the popcount of every entry of an integer array, read as
    64-bit two's complement: fold the 64-bit words onto their low bit."""
    v = np.array(v, dtype=np.int64)
    shift = 32
    while shift:
        v ^= v >> shift
        shift >>= 1
    return v & 1


# ---------------------------------------------------------------------------
# Walsh-Hadamard factors and the integer butterfly.

def oracle_fwht(v) -> np.ndarray:
    """Unnormalized transform 2^(n/2) H v in int64: n in-place butterfly
    sweeps on a copy of v."""
    vals = np.array(v, dtype=np.int64, copy=True)
    size = len(vals)
    if size & (size - 1):
        raise DimensionMismatchError("length must be a power of two")
    scratch = np.empty(size // 2, dtype=vals.dtype)
    h = 1
    while h < size:
        pairs = vals.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(-1, h)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        h *= 2
    return vals


def wh_factor(n: int, i: int) -> np.ndarray:
    """Dense sparse-factor H^(i): the bit-i butterfly stage, scaled by 2^(1/2)."""
    d = 1 << n
    mat = np.zeros((d, d))
    x = np.arange(d)
    mat[x, x ^ (1 << i)] = 1.0
    mat[x, x] = 1.0 - 2.0 * ((x >> i) & 1)
    return mat


# ---------------------------------------------------------------------------
# The shallow update-rule circuit, one Gate at a time.

def shallow_ur_gate_layers(n: int) -> tuple[int, list[list[Gate]], dict]:
    """(width, layers, roles) of the depth-(2n+1) update-rule circuit of
    ``classical.build_shallow_ur_circuit``, built gate by gate in the same
    cell layout and gate order."""
    size = 1 << n
    half = 1 << (n - 1)
    data = [2 * x for x in range(size)]
    work = [2 * x + 1 for x in range(size)]
    m_base = 2 * size
    m_block = [[m_base + i * half + j for j in range(half)] for i in range(n)]
    width = 2 * size + n * half

    layers: list[list[Gate]] = []
    layers.append([Gate(COPY, (data[x], work[x])) for x in range(size)])

    copies = [1] * n
    for _ in range(n - 1):
        layer = []
        for i in range(n):
            have = copies[i]
            new = min(have, half - have)
            for j in range(new):
                layer.append(Gate(COPY, (m_block[i][j], m_block[i][have + j])))
            copies[i] += new
        layers.append(layer)

    for i in range(n):
        layer = []
        pair = 0
        for x in range(size):
            if (x >> i) & 1:
                continue
            layer.append(Gate(CSWAP, (m_block[i][pair], work[x], work[x ^ (1 << i)])))
            pair += 1
        layers.append(layer)

    layers.append([Gate(XOR_INTO, (work[x], data[x])) for x in range(size)])

    roles = {"data": data, "work": work, "m_blocks": m_block, "n": n}
    return width, layers, roles


def gate_layers_wire_length(layers: list[list[Gate]], positions) -> int:
    """Total 1D wire length: the spread of each gate's cell positions."""
    total = 0
    for layer in layers:
        for gate in layer:
            pos = [int(positions[c]) for c in gate.wires]
            total += max(pos) - min(pos)
    return total


def simulate_gate_layers(width: int, layers: list[list[Gate]], roles: dict,
                         g_arr, m: int) -> list[np.ndarray]:
    """Cell states of one run, before the first layer and after each one,
    applying every gate on its own."""
    cells = [0] * width
    for x, c in enumerate(roles["data"]):
        cells[c] = int(g_arr[x])
    for i, block in enumerate(roles["m_blocks"]):
        cells[block[0]] = (m >> i) & 1
    snaps = [np.array(cells, dtype=np.uint8)]
    for layer in layers:
        for gate in layer:
            w = gate.wires
            if gate.kind == COPY:
                cells[w[1]] = cells[w[0]]
            elif gate.kind == XOR_INTO:
                cells[w[1]] ^= cells[w[0]]
            elif gate.kind == CSWAP:
                if cells[w[0]]:
                    cells[w[1]], cells[w[2]] = cells[w[2]], cells[w[1]]
            else:
                raise AssertionError(f"unknown gate kind {gate.kind}")
        snaps.append(np.array(cells, dtype=np.uint8))
    return snaps


# ---------------------------------------------------------------------------
# Pauli strings.

def pauli_product(p: PauliString, q: PauliString) -> tuple[PauliString, complex]:
    """Canonical form of the operator product: p @ q = extra * canonical.

    ``extra`` is 1 when the two strings commute and +/-i otherwise (the
    product of two Hermitian Paulis is Hermitian only in the commuting case).
    """
    if p.n != q.n:
        raise DimensionMismatchError("Pauli sizes differ")
    a, b = p.a ^ q.a, p.b ^ q.b
    t = ((p.a & p.b).bit_count() & 1) + ((q.a & q.b).bit_count() & 1)
    t += 2 * (p.s + q.s + ((p.a & q.b).bit_count() & 1))
    delta = (t - ((a & b).bit_count() & 1)) % 4
    s = 1 if delta in (2, 3) else 0
    extra = 1j if delta % 2 else 1.0
    return PauliString(p.n, s, a, b), extra


def enumerate_paulis(n: int):
    for s in (0, 1):
        for a in range(1 << n):
            for b in range(1 << n):
                yield PauliString(n, s, a, b)


# ---------------------------------------------------------------------------
# Channels as Kraus lists.

def identity_channel(n: int) -> QuantumChannel:
    return QuantumChannel(n, n, (np.eye(1 << n),))


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    d = u.shape[0]
    n = d.bit_length() - 1
    return QuantumChannel(n, n, (u,))


def compose(after: QuantumChannel, before: QuantumChannel) -> QuantumChannel:
    """after . before as a single Kraus list."""
    if before.out_qubits != after.in_qubits:
        raise DimensionMismatchError("channel composition size mismatch")
    ops = tuple(a @ b for a in after.kraus for b in before.kraus)
    return QuantumChannel(before.in_qubits, after.out_qubits, ops)


def dephasing_channel(n: int, qubits) -> QuantumChannel:
    """Complete dephasing of the given qubits (projectors onto their values)."""
    d = 1 << n
    qubits = sorted(qubits)
    ops = []
    x = np.arange(d)
    for outcome in range(1 << len(qubits)):
        sel = np.ones(d, dtype=bool)
        for j, q in enumerate(qubits):
            sel &= ((x >> q) & 1) == ((outcome >> j) & 1)
        proj = np.zeros((d, d), dtype=np.complex128)
        idx = np.flatnonzero(sel)
        proj[idx, idx] = 1.0
        ops.append(proj)
    return QuantumChannel(n, n, tuple(ops))


def encoding_channel(enc: EncodingNoise, n: int) -> QuantumChannel:
    """The encoding noise as a Kraus channel, one operator per Pauli."""
    kraus = tuple(np.sqrt(w) * pauli_matrix(p) for p, w in enc.weights if w > 0)
    return QuantumChannel(n, n, kraus)


def choi(ch: QuantumChannel) -> np.ndarray:
    """Normalized Choi matrix (trace one): (id x ch) on the maximally
    entangled pair, with the reference register on the low qubits."""
    din = 1 << ch.in_qubits
    check_joint_cap(ch.in_qubits + ch.out_qubits)
    k = np.stack(ch.kraus)  # (K, dout, din)
    vecs = k.reshape(k.shape[0], -1)  # row k = K_k flattened as (out, ref)
    return (vecs.T @ vecs.conj()) / din


# ---------------------------------------------------------------------------
# Joint registers and measurement.

def tensor(a, b):
    """Joint system with `a` on the low qubits and `b` above it."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        nq = a.num_qubits + b.num_qubits
        check_joint_cap(nq)
        return StateVector(nq, np.kron(b.amplitudes, a.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        nq = a.num_qubits + b.num_qubits
        check_joint_cap(nq)
        return DensityMatrix(nq, np.kron(b.matrix, a.matrix))
    raise DimensionMismatchError("tensor expects two states or two densities")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not in `keep`; kept qubits are re-packed in order."""
    q = rho.num_qubits
    keep = sorted(keep)
    traced = [i for i in range(q) if i not in keep]
    t = rho.matrix.reshape([2] * (2 * q))
    # axis of row-bit k is q-1-k, of column-bit k is 2q-1-k
    row = {k: q - 1 - k for k in range(q)}
    col = {k: 2 * q - 1 - k for k in range(q)}
    labels = [0] * (2 * q)
    nxt = 0
    for k in traced:
        labels[row[k]] = labels[col[k]] = nxt
        nxt += 1
    out_row, out_col = [], []
    for k in reversed(keep):  # most significant kept bit first
        labels[row[k]] = nxt
        out_row.append(nxt)
        nxt += 1
    for k in reversed(keep):
        labels[col[k]] = nxt
        out_col.append(nxt)
        nxt += 1
    res = np.einsum(t, labels, out_row + out_col)
    d = 1 << len(keep)
    return DensityMatrix(len(keep), res.reshape(d, d))


def measure_computational(rho: DensityMatrix, qubits):
    """Projective measurement of `qubits` in the computational basis.

    Returns (outcome, probability, post_state) triples over all outcomes;
    the post state keeps the full register (collapsed and renormalized) and
    is None for zero-probability outcomes.
    """
    q = rho.num_qubits
    qubits = sorted(qubits)
    d = 1 << q
    x = np.arange(d)
    results = []
    for outcome in range(1 << len(qubits)):
        sel = np.ones(d, dtype=bool)
        for j, qq in enumerate(qubits):
            sel &= ((x >> qq) & 1) == ((outcome >> j) & 1)
        idx = np.flatnonzero(sel)
        prob = float(rho.matrix[idx, idx].real.sum())
        if prob < 1e-15:
            results.append((outcome, max(prob, 0.0), None))
            continue
        post = np.zeros_like(rho.matrix)
        post[np.ix_(idx, idx)] = rho.matrix[np.ix_(idx, idx)] / prob
        results.append((outcome, prob, DensityMatrix(q, post)))
    return results


def principal_eig(rho: DensityMatrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its eigenvector."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    return float(vals[-1]), vecs[:, -1]


# ---------------------------------------------------------------------------
# Twirl elements drawn one at a time, as dense unitaries and as gate lists.

def oracle_draw_twirl(n: int, rng: np.random.Generator):
    """The draws of one uniform twirl element, one ``rng.integers`` call at
    a time in stream order: the packed rows of A, then the n x n bits whose
    strict upper triangle is B, u and v.

    Row i of A is drawn uniformly from the complement of the span of the
    previous rows: t_sel picks a nonzero combination of the free (non-pivot)
    coordinates, and one coin per basis row adds a span element. The new
    row is then reduced against the basis, and the basis against it.
    """
    basis: list[int] = []   # reduced rows
    pivots: list[int] = []
    rows: list[int] = []
    for _ in range(n):
        free = [j for j in range(n) if j not in pivots]
        t_sel = int(rng.integers(1, 1 << len(free)))
        t = 0
        for j, pos in enumerate(free):
            if (t_sel >> j) & 1:
                t |= 1 << pos
        v = t
        for row in basis:
            if rng.integers(2):
                v ^= row
        rows.append(v)
        red = v
        for row, p in zip(basis, pivots):
            if (red >> p) & 1:
                red ^= row
        p = red.bit_length() - 1
        for i, row in enumerate(basis):
            if (row >> p) & 1:
                basis[i] ^= red
        basis.append(red)
        pivots.append(p)
    b = rng.integers(0, 2, size=(n, n), dtype=np.uint8)   # B is its upper triangle
    u = int(rng.integers(1 << n))
    return rows, b, u, int(rng.integers(1 << n))


def identity_twirl(n: int) -> TwirlElement:
    return TwirlElement(n, tuple(1 << i for i in range(n)), (0,) * n, 0, 0)


def clifford_matrix(c: TwirlElement) -> np.ndarray:
    """Dense unitary: |x> -> (-1)^(y^T B y xor v.y) |y>, y = A^(-1)(x xor u)."""
    check_register_cap(c.n)
    d = 1 << c.n
    x = np.arange(d)
    y = c.a_inverse[x ^ c.u]
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[y, x] = 1.0 - 2.0 * _phases(c.B, c.v)[y]
    return mat


def _cnot_schedule(rows: tuple[int, ...]) -> list[Gate]:
    """CNOT list realizing |x> -> |A^(-1) x> via swap-free Gaussian
    elimination of A, given as packed rows.

    Row additions E_k ... E_1 reduce A to the identity, so their product is
    A^(-1): applied to the state in the order they are made, they realize
    A^(-1). Adding row c into row t is a CNOT with control qubit c and
    target qubit t. At most n^2 gates.
    """
    m = list(rows)
    n = len(m)
    gates: list[Gate] = []
    for c in range(n):
        if not (m[c] >> c) & 1:
            j = next(r for r in range(c + 1, n) if (m[r] >> c) & 1)
            m[c] ^= m[j]
            gates.append(Gate("CNOT", (j, c)))
        for r in range(n):
            if r != c and (m[r] >> c) & 1:
                m[r] ^= m[c]
                gates.append(Gate("CNOT", (c, r)))
    return gates


def clifford_gate_list(c: TwirlElement) -> list[Gate]:
    """Elementary gates in application order (first gate acts first)."""
    gates = [Gate("X", (q,)) for q in range(c.n) if (c.u >> q) & 1]
    gates += _cnot_schedule(c.A)
    gates += [Gate("CZ", (i, j)) for i in range(c.n) for j in range(i + 1, c.n)
              if (c.B[i] >> j) & 1]
    gates += [Gate("Z", (q,)) for q in range(c.n) if (c.v >> q) & 1]
    limit = 2 * c.n + c.n * (c.n - 1) // 2 + c.n * c.n
    assert len(gates) <= limit
    return gates


# ---------------------------------------------------------------------------
# Dense swap test, fractional swap and its block encoding.

def swap_test_step(rho) -> tuple[float, np.ndarray]:
    """Success probability and post-state of one swap test on two copies:
    p = (1 + tr(rho^2)) / 2 and rho_out = (rho + rho^2) / (1 + tr(rho^2))."""
    mat = _as_matrix(rho)
    sq = mat @ mat
    purity = float(np.trace(sq).real)
    p = (1.0 + purity) / 2.0
    return p, (mat + sq) / (1.0 + purity)



def swap_operator(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    hi, lo = np.divmod(np.arange(d * d), d)  # joint index = lo + d * hi
    s[lo + d * hi, hi + d * lo] = 1.0
    return s


def fractional_swap_unitary(t: float, d: int) -> np.ndarray:
    """exp(-i S t) = cos(t) I - i sin(t) S on two d-dimensional systems."""
    if not 0 <= t <= np.pi / 2:
        raise PreconditionError("t must lie in [0, pi/2]")
    return np.cos(t) * np.eye(d * d) - 1j * np.sin(t) * swap_operator(d)


def theta_angles(t: float) -> tuple[float, float]:
    ct, st = np.cos(t), np.sin(t)
    plus = np.arccos((ct - st) / 2.0)
    minus = np.arccos((ct + st) / 2.0)
    return (plus + minus) / 2.0, (plus - minus) / 2.0


_X1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y1 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z1 = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _rot(axis: np.ndarray, angle: float) -> np.ndarray:
    return np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * axis


def block_encoding_sequence(t: float, d: int) -> list[tuple[str, np.ndarray]]:
    """Gate factors realizing the fractional swap with 3 controlled swaps and
    4 single-qubit gates on one ancilla (one oblivious amplitude
    amplification round of the single-controlled-swap block encoding).

    Factors are listed in application order; their product U satisfies
    U[ancilla 0-block] = -exp(-i S t). The ancilla is the top tensor factor.
    """
    tp, tm = theta_angles(t)
    cs = np.zeros((2 * d * d, 2 * d * d), dtype=np.complex128)
    cs[: d * d, : d * d] = np.eye(d * d)
    cs[d * d:, d * d:] = swap_operator(d)

    def anc(u: np.ndarray) -> np.ndarray:
        return np.kron(u, np.eye(d * d))

    seq = [
        ("Rx(-theta_minus)", anc(_rot(_X1, -tm))),
        ("CSWAP", cs),
        ("Ry(-theta_plus) Z Ry(theta_plus)", anc(_rot(_Y1, -tp) @ _Z1 @ _rot(_Y1, tp))),
        ("CSWAP", cs),
        ("Rx(-theta_minus) Z Rx(theta_minus)", anc(_rot(_X1, -tm) @ _Z1 @ _rot(_X1, tm))),
        ("CSWAP", cs),
        ("Ry(theta_plus)", anc(_rot(_Y1, tp))),
    ]
    return seq


def sequence_product(seq) -> np.ndarray:
    u = None
    for _, factor in seq:
        u = factor if u is None else factor @ u
    return u
