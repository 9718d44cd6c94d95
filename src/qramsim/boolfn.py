"""Boolean data tables over F2: truth tables, algebraic normal form, degree,
shifts, the update rule, and the multi-output-bit generalization.

Bit convention (used by every module in this package): an address
``x in {0,1}^n`` packs its first coordinate ``x_1`` into the least
significant bit of the integer ``x``; equivalently ``x_i = (x >> (i-1)) & 1``.
Truth tables are stored as packed bit vectors (one Python integer), with the
bit at position ``x`` holding ``f(x)``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, SizeCapError

CLASSICAL_N_CAP = 24

#: Degree of the all-zero function. A dedicated sentinel (not -1) so that
#: "degree decreases by one" assertions never conflate the zero function
#: with the constant-one function (degree 0).
NEG_INF = float("-inf")

def parity(v) -> np.ndarray:
    """Parity (0 or 1, int64) of the popcount of every entry of an integer
    array, read as 64-bit two's complement: the uint64 view keeps the sign
    bits of negative entries, which a popcount of int64 would drop."""
    count = np.bitwise_count(np.asarray(v, dtype=np.int64).view(np.uint64))
    return (count & 1).astype(np.int64)


@lru_cache(maxsize=None)
def _level_mask(n: int, i: int) -> int:
    """Packed mask of the 2^n positions x with bit i of x equal to 0."""
    m = (1 << (1 << i)) - 1
    width = 1 << (i + 1)
    while width < 1 << n:
        m |= m << width
        width <<= 1
    return m


@lru_cache(maxsize=None)
def _weight_masks(n: int) -> tuple[int, ...]:
    """Packed masks W_0..W_n of the 2^n positions x of Hamming weight k.

    Appending bit i copies the 2^i positions so far, one weight higher:
    W_k(i+1) = W_k(i) | W_{k-1}(i) << 2^i.
    """
    masks = (1,)
    for i in range(n):
        masks = tuple(lo | (hi << (1 << i))
                      for lo, hi in zip(masks + (0,), (0,) + masks))
    return masks


def _full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def _mobius(bits: int, n: int) -> int:
    """In-place butterfly over packed words; self-inverse over F2."""
    for i in range(n):
        step = 1 << i
        lo = _level_mask(n, i)
        bits ^= (bits & lo) << step
    return bits


def _xor_permute(bits: int, n: int, m: int) -> int:
    """Permute bit positions by x -> x XOR m (a product of half-swaps)."""
    for i in range(n):
        if (m >> i) & 1:
            step = 1 << i
            lo = _level_mask(n, i)
            bits = ((bits & lo) << step) | ((bits >> step) & lo)
    return bits


@dataclass(frozen=True, slots=True)
class DataTable:
    """A Boolean dataset f: {0,1}^n -> {0,1} stored as a packed bit vector.

    ``bits`` packs f(x) at bit position x; the vector length is exactly 2^n.
    """

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= CLASSICAL_N_CAP:
            raise PreconditionError(f"n={self.n} outside [1, {CLASSICAL_N_CAP}]")
        if not 0 <= self.bits <= _full_mask(self.n):
            raise DimensionMismatchError("bit vector length is not 2^n")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, x: int) -> int:
        return (self.bits >> x) & 1

    def to_array(self) -> np.ndarray:
        """Truth table as a uint8 array of length 2^n."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.size].copy()

    @classmethod
    def from_array(cls, values) -> "DataTable":
        values = np.asarray(values, dtype=np.uint8) & 1
        size = len(values)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise DimensionMismatchError("truth table length must be a power of two")
        packed = int.from_bytes(np.packbits(values, bitorder="little").tobytes(), "little")
        return cls(n, packed)

    @classmethod
    def from_string(cls, s: str) -> "DataTable":
        """Parse '0110'-style truth tables listed in address order 0,1,2,..."""
        return cls.from_array([int(c) for c in s.strip()])

    @classmethod
    def zero(cls, n: int) -> "DataTable":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "DataTable":
        return cls(n, _full_mask(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "DataTable":
        nbytes = (1 << n) // 8 if n >= 3 else 1
        raw = rng.integers(0, 256, size=max(nbytes, 1), dtype=np.uint8).tobytes()
        bits = int.from_bytes(raw, "little") & _full_mask(n)
        return cls(n, bits)

    def to_hex(self) -> str:
        """Little-endian packed bits, hex encoded (the file-format payload)."""
        return _bits_to_hex(self.bits, self.n)

    def __xor__(self, other: "DataTable") -> "DataTable":
        if self.n != other.n:
            raise DimensionMismatchError("tables have different n")
        return DataTable(self.n, self.bits ^ other.bits)


@dataclass(frozen=True, slots=True)
class AnfPolynomial:
    """Algebraic normal form: coefficient c_e packed at bit position e."""

    n: int
    coefficients: int

    def coefficient(self, e: int) -> int:
        return (self.coefficients >> e) & 1

    def monomials(self) -> list[int]:
        """Exponent masks of the monomials present."""
        c = self.coefficients
        out = []
        while c:
            low = c & -c
            out.append(low.bit_length() - 1)
            c ^= low
        return out


def anf_from_truth_table(g: DataTable) -> AnfPolynomial:
    """Unique F2 polynomial coefficients of g (in-place Moebius transform)."""
    return AnfPolynomial(g.n, _mobius(g.bits, g.n))


def truth_table_from_anf(p: AnfPolynomial) -> DataTable:
    """Evaluate the ANF at all points (the transform is self-inverse)."""
    return DataTable(p.n, _mobius(p.coefficients, p.n))


def degree(g: DataTable):
    """Max Hamming weight of a monomial exponent; NEG_INF for the zero function."""
    coeffs = _mobius(g.bits, g.n)
    masks = _weight_masks(g.n)
    for k in range(g.n, -1, -1):
        if coeffs & masks[k]:
            return k
    return NEG_INF


def shift(g: DataTable, m: int) -> DataTable:
    """The table x -> g(x XOR m)."""
    _check_m(g.n, m)
    return DataTable(g.n, _xor_permute(g.bits, g.n, m))


def update_rule(g: DataTable, m: int) -> DataTable:
    """g XOR g(. XOR m): the classical correction after teleport outcome m."""
    _check_m(g.n, m)
    return DataTable(g.n, g.bits ^ _xor_permute(g.bits, g.n, m))


def _check_m(n: int, m: int) -> None:
    if not 0 <= m < (1 << n):
        raise DimensionMismatchError(f"outcome string m={m} does not have length {n}")


@dataclass(frozen=True, slots=True)
class SignedDataTable:
    """Dataset with one sign bit and b data bits per address.

    ``f_data`` holds the b output bit-planes, plane i storing output bit i+1
    of every address.
    """

    n: int
    b: int
    f_sign: DataTable
    f_data: tuple[DataTable, ...]

    def __post_init__(self):
        if self.b < 1:
            raise PreconditionError("b must be >= 1 (use DataTable for b=0)")
        if self.f_sign.n != self.n or any(p.n != self.n for p in self.f_data):
            raise DimensionMismatchError("plane size mismatch")
        if len(self.f_data) != self.b:
            raise DimensionMismatchError("expected b data planes")

    def data_value(self, x: int) -> int:
        """The b-bit data word stored at address x."""
        return sum(p.value(x) << i for i, p in enumerate(self.f_data))

    @classmethod
    def random(cls, n: int, b: int, rng: np.random.Generator) -> "SignedDataTable":
        return cls(n, b, DataTable.random(n, rng),
                   tuple(DataTable.random(n, rng) for _ in range(b)))

    @classmethod
    def zero(cls, n: int, b: int) -> "SignedDataTable":
        return cls(n, b, DataTable.zero(n), tuple(DataTable.zero(n) for _ in range(b)))


def hat_function(f: SignedDataTable) -> DataTable:
    """Flatten to one table over n+b bits: (x, u) -> f_sign(x) XOR (u . f_data(x)).

    The address packs x into the low n bits and the bus word u above it.
    The degree of the result is at most n+1 regardless of b.
    """
    total = f.n + f.b
    if total > CLASSICAL_N_CAP:
        raise PreconditionError(f"n+b={total} exceeds classical cap {CLASSICAL_N_CAP}")
    out = 0
    block = 1 << f.n
    for u in range(1 << f.b):
        bits = f.f_sign.bits
        for i in range(f.b):
            if (u >> i) & 1:
                bits ^= f.f_data[i].bits
        out |= bits << (u * block)
    return DataTable(total, out)


def shift_signed(f: SignedDataTable, m: int) -> SignedDataTable:
    """Generalized shift by m = (m_A, m_B) of length n+b.

    Data planes shift by m_A only; the sign plane additionally absorbs the
    planes selected by m_B, so that hat(shift_signed(f, m)) equals
    hat(f) shifted by m.
    """
    if not 0 <= m < (1 << (f.n + f.b)):
        raise DimensionMismatchError(f"m must have length n+b={f.n + f.b}")
    m_a = m & ((1 << f.n) - 1)
    m_b = m >> f.n
    planes = tuple(shift(p, m_a) for p in f.f_data)
    sign = shift(f.f_sign, m_a)
    for i in range(f.b):
        if (m_b >> i) & 1:
            sign = sign ^ planes[i]
    return SignedDataTable(f.n, f.b, sign, planes)


def update_rule_signed(f: SignedDataTable, m: int) -> SignedDataTable:
    """Componentwise f XOR shift_signed(f, m) for an (n+b)-bit outcome m."""
    shifted = shift_signed(f, m)
    return SignedDataTable(
        f.n, f.b,
        f.f_sign ^ shifted.f_sign,
        tuple(a ^ b for a, b in zip(f.f_data, shifted.f_data)),
    )


def degree_signed(f: SignedDataTable):
    """Degree of the flattened table (drives the protocol's round count)."""
    return degree(hat_function(f))


# ---------------------------------------------------------------------------
# Dataset file format: header "QRAMTBL v1 n=<n> b=<b>", then one line of
# hex-encoded little-endian packed bits per table (sign first, then the b
# data bit-planes). Round trips are bit exact.

_HEADER_RE = re.compile(r"^QRAMTBL v1 n=(\d+) b=(\d+)$")


def _bits_to_hex(bits: int, n: int) -> str:
    nbytes = max((1 << n) // 8, 1)
    return bits.to_bytes(nbytes, "little").hex()


def _bits_from_hex(s: str, n: int) -> int:
    bits = int.from_bytes(bytes.fromhex(s.strip()), "little")
    if bits > _full_mask(n):
        raise DimensionMismatchError("hex payload longer than 2^n bits")
    return bits


def save_table(f, path: str | os.PathLike) -> None:
    if isinstance(f, DataTable):
        n, b = f.n, 0
        lines = [_bits_to_hex(f.bits, n)]
    else:
        n, b = f.n, f.b
        lines = [_bits_to_hex(f.f_sign.bits, n)]
        lines += [_bits_to_hex(p.bits, n) for p in f.f_data]
    with open(path, "w") as fh:
        fh.write(f"QRAMTBL v1 n={n} b={b}\n")
        fh.write("\n".join(lines) + "\n")


def load_table(path: str | os.PathLike):
    with open(path) as fh:
        header = fh.readline().strip()
        match = _HEADER_RE.match(header)
        if not match:
            raise PreconditionError(f"bad dataset header: {header!r}")
        n, b = int(match.group(1)), int(match.group(2))
        if not 1 <= n <= CLASSICAL_N_CAP:
            raise SizeCapError(f"dataset file n={n} outside [1, {CLASSICAL_N_CAP}]")
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != b + 1:
        raise PreconditionError(f"expected {b + 1} tables, found {len(lines)}")
    sign = DataTable(n, _bits_from_hex(lines[0], n))
    if b == 0:
        return sign
    planes = tuple(DataTable(n, _bits_from_hex(s, n)) for s in lines[1:])
    return SignedDataTable(n, b, sign, planes)
