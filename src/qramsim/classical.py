"""Classical update-rule engines: the packed reference engine, an O(n)-depth
shallow circuit with a fixed 1D layout and wire-length accounting, and the
two reductions between the update rule and the Walsh-Hadamard transform.

Each layer of the circuit is one gate kind and one integer array of the
cells its gates act on."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import boolfn
from .boolfn import DataTable
from .errors import DimensionMismatchError, PreconditionError

CIRCUIT_N_CAP = 12

COPY = "COPY"
XOR_INTO = "XOR_INTO"
CSWAP = "CSWAP"


@dataclass
class ClassicalCircuit:
    """Layered reversible bit-cell circuit with a fixed 1D layout.

    Each layer is a pair (kind, wires): one gate kind and an integer array
    of shape (gates, arity) whose rows are the cells of its gates, in the
    order the kind defines. Gates within one layer touch disjoint cells.
    ``positions`` holds the integer 1D coordinate of each cell; the wire
    length of a gate is the maximum pairwise distance among its cells.
    """

    width: int
    layers: list[tuple[str, np.ndarray]]
    positions: np.ndarray
    roles: dict = field(default_factory=dict)

    def __post_init__(self):
        for _, wires in self.layers:
            cells = wires.ravel()
            inside = cells.size == 0 or (cells.min() >= 0 and cells.max() < self.width)
            # a shared cell outranks a cell out of range, so only then sort
            uses = (np.bincount(cells, minlength=1) if inside
                    else np.unique(cells, return_counts=True)[1])
            if uses.max() > 1:
                raise PreconditionError("gates within a layer must be disjoint")
            if not inside:
                raise DimensionMismatchError("gate cell index out of range")


def build_shallow_ur_circuit(n: int) -> ClassicalCircuit:
    """Depth 2n+1 circuit computing the update rule with all-to-all gates.

    Cells: data bit for address x at 2x, its working copy at 2x+1; the n
    outcome bits, each followed by 2^(n-1)-1 copy cells, appended after.
    Layer plan: one copy layer, n-1 doubling layers that fan each outcome
    bit out to 2^(n-1) copies, n layers of outcome-controlled swaps walking
    the copies along the hypercube directions, one final xor layer.
    """
    if not 1 <= n <= CIRCUIT_N_CAP:
        raise PreconditionError(f"n must be within [1, {CIRCUIT_N_CAP}]")
    size = 1 << n
    half = 1 << (n - 1)
    x = np.arange(size)
    data, work = 2 * x, 2 * x + 1
    m_blocks = 2 * size + np.arange(n * half).reshape(n, half)
    width = 2 * size + n * half

    layers = [(COPY, np.stack([data, work], axis=1))]
    for k in range(n - 1):
        have = 1 << k
        pairs = np.stack([m_blocks[:, :have], m_blocks[:, have:2 * have]], axis=-1)
        layers.append((COPY, pairs.reshape(-1, 2)))
    for i in range(n):
        low = x[(x >> i) & 1 == 0]
        layers.append((CSWAP, np.stack([m_blocks[i], work[low], work[low | (1 << i)]],
                                       axis=1)))
    layers.append((XOR_INTO, np.stack([work, data], axis=1)))

    roles = {"data": data, "work": work, "m_blocks": m_blocks, "n": n}
    return ClassicalCircuit(width, layers, np.arange(width), roles)


def _initial_cells(circ: ClassicalCircuit, g_arr: np.ndarray,
                   m_arr: np.ndarray) -> np.ndarray:
    """Batched cell state: shape (batch, width)."""
    cells = np.zeros((g_arr.shape[0], circ.width), dtype=np.uint8)
    cells[:, circ.roles["data"]] = g_arr
    cells[:, circ.roles["m_blocks"][:, 0]] = m_arr
    return cells


def _apply_layer(cells: np.ndarray, kind: str, wires: np.ndarray) -> None:
    if kind == COPY:
        cells[:, wires[:, 1]] = cells[:, wires[:, 0]]
    elif kind == XOR_INTO:
        cells[:, wires[:, 1]] ^= cells[:, wires[:, 0]]
    elif kind == CSWAP:
        ctrl, a, b = (cells[:, w] for w in wires.T)
        t = (a ^ b) & ctrl
        cells[:, wires[:, 1]] = a ^ t
        cells[:, wires[:, 2]] = b ^ t
    else:
        raise PreconditionError(f"unknown gate kind {kind}")


def simulate_circuit(circ: ClassicalCircuit, g: DataTable, m: int,
                     record_steps: bool = False):
    """Run the circuit on one input; optionally capture the cell state after
    every layer."""
    n = circ.roles["n"]
    if g.n != n or not 0 <= m < (1 << n):
        raise DimensionMismatchError("input size does not match the circuit")
    g_arr = g.to_array()[None, :]
    m_arr = np.array([[(m >> i) & 1 for i in range(n)]], dtype=np.uint8)
    cells = _initial_cells(circ, g_arr, m_arr)
    snapshots = [cells[0].copy()] if record_steps else None
    for kind, wires in circ.layers:
        _apply_layer(cells, kind, wires)
        if record_steps:
            snapshots.append(cells[0].copy())
    out = DataTable.from_array(cells[0, circ.roles["data"]])
    return (out, snapshots) if record_steps else out


def simulate_circuit_batch(circ: ClassicalCircuit, g_arrs: np.ndarray,
                           m_bits: np.ndarray) -> np.ndarray:
    """Vectorized run over a batch of (truth table, outcome bits) pairs."""
    cells = _initial_cells(circ, np.asarray(g_arrs, dtype=np.uint8),
                           np.asarray(m_bits, dtype=np.uint8))
    for kind, wires in circ.layers:
        _apply_layer(cells, kind, wires)
    return cells[:, circ.roles["data"]]


def circuit_metrics(circ: ClassicalCircuit) -> dict:
    total = sum(int(np.ptp(circ.positions[wires], axis=1).sum())
                for _, wires in circ.layers)
    return {
        "depth": len(circ.layers),
        "width": circ.width,
        "total_wire_length_1d": total,
    }


# ---------------------------------------------------------------------------
# Update-rule engines.

def ur_naive(g: DataTable, m: int) -> DataTable:
    """Word-packed reference engine (shift and xor on the packed table)."""
    return boolfn.update_rule(g, m)


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform engines. fwht is unnormalized: it computes
# 2^(n/2) H v, so fwht(fwht(v)) = 2^n v. It runs in float64 and is exact:
# every entry is an integer, every product is an entry times +-1, and every
# partial sum in every pass is at most 2^n max|v| in magnitude. Below 2^53
# float64 holds all such integers, so each addition is exact whatever order
# BLAS sums in.

RADIX_BITS = 5
FLOAT_EXACT_BITS = 53

# H[x, y] = (-1)^(x.y) for x, y < 2^RADIX_BITS; its leading 2^k block is H_k
_BLOCK = np.arange(1 << RADIX_BITS)
_HADAMARD = 1.0 - 2.0 * boolfn.parity(np.bitwise_and.outer(_BLOCK, _BLOCK))
_HADAMARD.flags.writeable = False


def _num_bits(size: int) -> int:
    """n with size = 2^n, for a vector length."""
    n = size.bit_length() - 1
    if size < 1 or 1 << n != size:
        raise DimensionMismatchError("length must be a power of two")
    return n


def _max_abs(values: np.ndarray) -> int:
    """max|v| of a nonempty int64 array, in Python integers: np.abs wraps
    at the most negative int64."""
    return max(int(values.max()), -int(values.min()))


def _check_width(values: np.ndarray, width: int) -> None:
    if _max_abs(values) >= 1 << (width - 1):
        raise OverflowError(f"entries exceed the configured {width}-bit width")


def _digits(n: int) -> list[tuple[int, int]]:
    """(shift, bits) of each radix-2^RADIX_BITS digit of an n-bit index."""
    return [(s, min(RADIX_BITS, n - s)) for s in range(0, n, RADIX_BITS)]


def _wht(buf: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized transform of the float64 vector buf: one matmul by the
    Hadamard block of each index digit, alternating between buf and spare.
    Returns (result, the other buffer)."""
    size = buf.size
    for s, k in _digits(size.bit_length() - 1):
        h = _HADAMARD[: 1 << k, : 1 << k]
        rows = size >> (s + k)
        if s == 0:   # the digit is the fastest axis: one (rows, 2^k) GEMM
            np.matmul(buf.reshape(rows, 1 << k), h, out=spare.reshape(rows, 1 << k))
        else:
            shape = (rows, 1 << k, 1 << s)
            np.matmul(h, buf.reshape(shape), out=spare.reshape(shape))
        buf, spare = spare, buf
    return buf, spare


def fwht(v) -> np.ndarray:
    """2^(n/2) H v of an integer vector of length 2^n, as a new int64 array.

    Raises OverflowError unless max|v| 2^n < 2^53, the bound that keeps the
    float64 passes exact."""
    vals = np.asarray(v, dtype=np.int64)
    n = _num_bits(len(vals))
    if _max_abs(vals) << n >= 1 << FLOAT_EXACT_BITS:
        raise OverflowError(f"max|v| 2^n reaches 2^{FLOAT_EXACT_BITS}")
    buf = vals.astype(np.float64)
    return _wht(buf, np.empty_like(buf))[0].astype(np.int64)


def ur_via_fwht(g: DataTable, m: int, width: int = 64) -> DataTable:
    """Transform, mask the frequencies aligned with m, transform back.

    The masked spectrum doubles entries with m.x = 0 and zeroes the rest;
    dividing by 2^n and reducing mod 2 recovers the update rule exactly.
    The whole pipeline stays in two float64 buffers, with the mask
    1 + (-1)^(m.y) applied in place: its partial sums are at most 2^(2n+1),
    which CLASSICAL_N_CAP = 24 keeps at 2^49, below 2^53.
    """
    n = g.n
    if not 0 <= m < (1 << n):
        raise DimensionMismatchError("m does not have length n")
    if 2 * n + 2 >= width:
        raise OverflowError("configured width too small for exact arithmetic")
    buf = g.to_array().astype(np.float64)
    freq, spare = _wht(buf, np.empty_like(buf))
    _character(m, out=spare)
    spare += 1
    freq *= spare
    back, spare = _wht(freq, spare)
    # convert once, into the free buffer, and test the low bits in the other
    ints = spare.view(np.int64)
    np.copyto(ints, back, casting="unsafe")
    if np.bitwise_and(ints, (1 << n) - 1, out=back.view(np.int64)).any():
        raise OverflowError("back-transform is not a multiple of 2^n: arithmetic was inexact")
    ints >>= n
    return DataTable.from_array(ints)


def _character(m: int, out: np.ndarray) -> None:
    """Write (-1)^(m.y) for every index y into out: row m of the 2^n
    Hadamard matrix, the outer product of the block rows m's digits pick."""
    rows = [_HADAMARD[(m >> s) & ((1 << k) - 1), : 1 << k]
            for s, k in _digits(out.size.bit_length() - 1)]
    chi = np.ones(1)
    for row in rows[:-1]:
        chi = np.multiply.outer(row, chi).reshape(-1)
    np.multiply.outer(rows[-1], chi, out=out.reshape(len(rows[-1]), -1))


def fwht_via_ur(v, ur_engine=None, width: int = 16) -> np.ndarray:
    """Walsh-Hadamard transform built from bit-plane update-rule calls.

    Applies the n sparse factors in sequence; each factor uses one
    update-rule call per bit plane of the entries (n * width calls total)
    plus local copy, xor, negate, and add steps. Entries must stay within
    the configured two's-complement width throughout.
    """
    vals = np.asarray(v, dtype=np.int64)
    size = len(vals)
    n = _num_bits(size)
    _check_width(vals, width)
    engine = ur_engine if ur_engine is not None else boolfn.update_rule
    mask = (1 << width) - 1
    x = np.arange(size)
    for i in range(n):
        # bit planes of the two's-complement representation
        unsigned = vals & mask
        swapped = np.zeros(size, dtype=np.int64)
        for j in range(width):
            plane_bits = (unsigned >> j) & 1
            ur_out = engine(DataTable.from_array(plane_bits), 1 << i)
            # xor the local plane back in to obtain the neighbor's bit
            swapped |= (ur_out.to_array().astype(np.int64) ^ plane_bits) << j
        neighbor = swapped - ((swapped >> (width - 1)) << width)
        signed_local = np.where((x >> i) & 1, -vals, vals)
        vals = neighbor + signed_local
        _check_width(vals, width)
    return vals


class CountingEngine:
    """Wraps an update-rule engine and counts invocations."""

    def __init__(self, engine=None):
        self.engine = engine if engine is not None else boolfn.update_rule
        self.calls = 0

    def __call__(self, g: DataTable, m: int) -> DataTable:
        self.calls += 1
        return self.engine(g, m)
