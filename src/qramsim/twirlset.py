"""The partial Clifford twirl set: Cliffords of the form Z^v Q_B M_A' X^u
(generated by Z, X, CZ, CNOT) that map dataset phase unitaries to dataset
phase unitaries. Provides uniform sampling, the dataset transformation
g -> g_C, closed-form Pauli conjugation, and the averaged (twirled) noisy
resource state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfn import DataTable, parity
from .device import pauli_weights
from .errors import DimensionMismatchError, PreconditionError
from .qcore import DensityMatrix, PauliString, check_register_cap, resource_state
from .rngutil import derive_rng

# ---------------------------------------------------------------------------
# GF(2) linear algebra on small matrices (rows as numpy uint8).


def gf2_rank(mat: np.ndarray) -> int:
    m = (np.array(mat, dtype=np.uint8) & 1).copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivots = np.flatnonzero(m[rank:, c]) + rank
        if len(pivots) == 0:
            continue
        p = pivots[0]
        m[[rank, p]] = m[[p, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_inverse(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([(np.array(mat, dtype=np.uint8) & 1), np.eye(n, dtype=np.uint8)], axis=1)
    for c in range(n):
        pivots = np.flatnonzero(aug[c:, c]) + c
        if len(pivots) == 0:
            raise DimensionMismatchError("matrix is singular over GF(2)")
        p = pivots[0]
        aug[[c, p]] = aug[[p, c]]
        for r in range(n):
            if r != c and aug[r, c]:
                aug[r] ^= aug[c]
    return aug[:, n:].copy()


def int_to_bits(x: int, n: int) -> np.ndarray:
    return (x >> np.arange(n)) & 1


def bits_to_int(bits: np.ndarray) -> int:
    return int((np.asarray(bits, dtype=np.int64) << np.arange(len(bits))).sum())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwirlElement:
    """One twirl gate, parameterized by (A, B, u, v).

    A is invertible over GF(2), B strictly upper triangular; u and v are
    packed bit strings. The realized gate is Z^v Q_B M_A' X^u where M_A maps
    |x> to |Ax> and Q_B applies CZ on every pair with B_ij = 1.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    u: int
    v: int

    def __post_init__(self):
        a = np.array(self.A, dtype=np.uint8) & 1
        b = np.array(self.B, dtype=np.uint8) & 1
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        n = self.n
        if a.shape != (n, n) or b.shape != (n, n):
            raise DimensionMismatchError("A and B must be n x n")
        if gf2_rank(a) != n:
            raise PreconditionError("A is not invertible over GF(2)")
        if np.tril(b).any():
            raise PreconditionError("B must be strictly upper triangular")
        if not (0 <= self.u < (1 << n) and 0 <= self.v < (1 << n)):
            raise DimensionMismatchError("u, v must be n-bit strings")

    @property
    def a_inverse(self) -> np.ndarray:
        inv = getattr(self, "_a_inv", None)
        if inv is None:
            inv = gf2_inverse(self.A)
            object.__setattr__(self, "_a_inv", inv)
        return inv


def identity_twirl(n: int) -> TwirlElement:
    return TwirlElement(n, np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8), 0, 0)


def sample_twirl(n: int, rng: np.random.Generator) -> TwirlElement:
    """Uniform element of the twirl set.

    A is sampled exactly uniformly over GL(n, 2) by drawing each row
    uniformly from the complement of the span of the previous rows (split
    as span element xor nonzero combination of free coordinates).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
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
        # insert into the reduced basis
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
    a = np.array([int_to_bits(r, n) for r in rows], dtype=np.uint8)
    b = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), k=1)
    return TwirlElement(n, a, b, int(rng.integers(1 << n)), int(rng.integers(1 << n)))


@lru_cache(maxsize=None)
def all_gl_matrices(n: int) -> tuple:
    """Every invertible n x n GF(2) matrix (cached; intended for n <= 4)."""
    if n > 4:
        raise PreconditionError("GL enumeration supported only for n <= 4")
    out = []
    for code in range(1 << (n * n)):
        m = np.array([(code >> (n * i + np.arange(n))) & 1 for i in range(n)], dtype=np.uint8)
        if gf2_rank(m) == n:
            out.append(m)
    return tuple(out)


def twirl_set_size(n: int) -> int:
    """|GL(n,2)| * 2^(n(n-1)/2) * 4^n."""
    size = 4**n << (n * (n - 1) // 2)
    for i in range(n):
        size *= (1 << n) - (1 << i)
    return size


def enumerate_twirls(n: int):
    """All twirl_set_size(n) twirl elements (test oracle for the closed-form
    twirl)."""
    if n > 2:
        raise PreconditionError("exact twirl enumeration supported only for n <= 2")
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for a in all_gl_matrices(n):
        for bcode in range(1 << len(upper)):
            b = np.zeros((n, n), dtype=np.uint8)
            for k, (i, j) in enumerate(upper):
                b[i, j] = (bcode >> k) & 1
            for u in range(1 << n):
                for v in range(1 << n):
                    yield TwirlElement(n, a, b, u, v)


# ---------------------------------------------------------------------------
# Dataset transformation and dense realization.

def _address_bits(n: int) -> np.ndarray:
    x = np.arange(1 << n)
    return ((x[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def twirl_dataset(g: DataTable, c: TwirlElement) -> DataTable:
    """g_C(x) = g(Ax xor u) xor (x . v) xor (x^T B x)."""
    if g.n != c.n:
        raise DimensionMismatchError("dataset and twirl size differ")
    n = g.n
    xb = _address_bits(n)
    y = (xb @ c.A.T % 2).astype(np.int64) @ (1 << np.arange(n))
    y ^= c.u
    lin = xb @ int_to_bits(c.v, n) % 2
    quad = ((xb @ c.B) * xb).sum(axis=1) % 2
    vals = g.to_array()[y] ^ lin.astype(np.uint8) ^ quad.astype(np.uint8)
    return DataTable.from_array(vals)


def clifford_matrix(c: TwirlElement) -> np.ndarray:
    """Dense unitary: |x> -> (-1)^(y^T B y xor v.y) |y>, y = A^(-1)(x xor u)."""
    check_register_cap(c.n)
    n = c.n
    d = 1 << n
    xb = _address_bits(n)
    ainv = c.a_inverse
    x = np.arange(d)
    yb = ((x[:, None] ^ c.u) >> np.arange(n) & 1) @ ainv.T % 2
    y = yb.astype(np.int64) @ (1 << np.arange(n))
    quad = ((yb @ c.B) * yb).sum(axis=1) % 2
    lin = yb @ int_to_bits(c.v, n) % 2
    phase = 1.0 - 2.0 * ((quad ^ lin).astype(np.float64))
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[y, x] = phase
    return mat


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str            # "X" | "Z" | "CZ" | "CNOT"
    qubits: tuple[int, ...]


def _cnot_schedule(a_inv: np.ndarray) -> list[Gate]:
    """CNOT list realizing |x> -> |A^(-1) x| via swap-free Gaussian elimination.

    Reduces A^(-1) to the identity with row additions; each addition of row
    c into row t is a CNOT with control qubit c and target qubit t. At most
    n^2 gates.
    """
    m = a_inv.copy()
    n = m.shape[0]
    ops: list[tuple[int, int]] = []   # (control, target): row_t ^= row_c
    for c in range(n):
        if not m[c, c]:
            j = next(r for r in range(c + 1, n) if m[r, c])
            m[c] ^= m[j]
            ops.append((j, c))
        for r in range(n):
            if r != c and m[r, c]:
                m[r] ^= m[c]
                ops.append((c, r))
    # ops reduce a_inv to I, so a_inv = E_1 E_2 ... in reverse application
    # order; the gate that must act first on the state is the last op.
    return [Gate("CNOT", op) for op in reversed(ops)]


def clifford_gate_list(c: TwirlElement) -> list[Gate]:
    """Elementary gates in application order (first gate acts first)."""
    gates = [Gate("X", (q,)) for q in range(c.n) if (c.u >> q) & 1]
    gates += _cnot_schedule(c.a_inverse)
    gates += [Gate("CZ", (i, j)) for i in range(c.n) for j in range(i + 1, c.n)
              if c.B[i, j]]
    gates += [Gate("Z", (q,)) for q in range(c.n) if (c.v >> q) & 1]
    limit = 2 * c.n + c.n * (c.n - 1) // 2 + c.n * c.n
    assert len(gates) <= limit
    return gates


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    d = 1 << n
    x = np.arange(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    if gate.kind == "X":
        mat[x ^ (1 << gate.qubits[0]), x] = 1.0
    elif gate.kind == "Z":
        mat[x, x] = 1.0 - 2.0 * ((x >> gate.qubits[0]) & 1)
    elif gate.kind == "CZ":
        i, j = gate.qubits
        mat[x, x] = 1.0 - 2.0 * (((x >> i) & 1) & ((x >> j) & 1))
    elif gate.kind == "CNOT":
        ctrl, tgt = gate.qubits
        mat[x ^ (((x >> ctrl) & 1) << tgt), x] = 1.0
    else:
        raise PreconditionError(f"unknown gate kind {gate.kind}")
    return mat


def gate_list_matrix(gates: list[Gate], n: int) -> np.ndarray:
    u = np.eye(1 << n, dtype=np.complex128)
    for g in gates:
        u = gate_matrix(g, n) @ u
    return u


# ---------------------------------------------------------------------------
# Closed-form Pauli conjugation.

def conjugate_pauli(c: TwirlElement, p: PauliString) -> PauliString:
    """C P C' in canonical signed form, via the conjugation identities of the
    four gate layers (X flips the sign by u.a, CNOTs act linearly on (a, b),
    CZ adds (B xor B^T) b' to the Z part with a quadratic sign, Z flips the
    sign by v.b')."""
    if c.n != p.n:
        raise DimensionMismatchError("twirl and Pauli size differ")
    n = c.n
    a_bits = int_to_bits(p.a, n)
    b_bits = int_to_bits(p.b, n)
    bp_bits = c.a_inverse @ b_bits % 2
    ap_bits = (c.A.T @ a_bits + (c.B + c.B.T) @ bp_bits) % 2
    sign = (p.s
            + (p.a & c.u).bit_count()
            + int(bp_bits @ c.B @ bp_bits)
            + int(bp_bits @ int_to_bits(c.v, n))) % 2
    return PauliString(n, int(sign), bits_to_int(ap_bits), bits_to_int(bp_bits))


# ---------------------------------------------------------------------------
# Twirled resource states.

@dataclass(frozen=True)
class TwirlResult:
    state: DensityMatrix
    mode: str
    num_samples: int
    seed: int | None


def twirled_state(g: DataTable, device, mode: str = "exact", *,
                  num_samples: int | None = None, seed: int | None = None,
                  encoding=None) -> TwirlResult:
    """Average over the twirl set of restoring the state prepared from g_C.

    The sampled gate maps the clean states as C|psi(g)> = |psi(g_C)>, so the
    restoring operation applied after querying g_C is the adjoint C'. The
    adjoint of every element is again an element of the set up to a global
    sign, so the restored ensemble is the same twirl ensemble.

    ``mode='exact'`` evaluates the average over the whole set in closed
    form (n <= 6); ``mode='mc'`` averages ``num_samples`` uniformly sampled
    elements with per-sample streams derived from (seed, index), accumulated
    in a fixed order so the result is bit reproducible.
    """
    if mode == "exact":
        check_register_cap(g.n)
        state = _twirled_state_exact(g, device, encoding)
        return TwirlResult(state, "exact", twirl_set_size(g.n), None)

    if mode == "mc":
        if not num_samples or seed is None:
            raise PreconditionError("mc mode requires num_samples and seed")
        state = _twirled_state_mc(g, device, num_samples, seed, encoding)
        return TwirlResult(state, "mc", num_samples, seed)

    raise PreconditionError(f"unknown twirl mode {mode!r}")


def _twirled_state_exact(g: DataTable, device, encoding) -> DensityMatrix:
    """T(psi) = sum_S (mean of chi over S) sum_{Q in S} Q psi Q.

    The twirl set contains every Pauli, so the channel E = encoding .
    post_noise is first Pauli-twirled into weights chi; conjugation by the
    set then spreads each Pauli uniformly over its unsigned class of
    ``pauli_subset`` (identity, Z-type, even, odd).
    """
    n = g.n
    if device.n != n or (encoding is not None
                         and any(p.n != n for p, _ in encoding.weights)):
        raise DimensionMismatchError("dataset, device and encoding sizes differ")
    d = 1 << n
    x = np.arange(d)
    noise = device.post_noise
    chi = pauli_weights(noise.kraus if noise is not None else (np.eye(d),), n)
    if encoding is not None:
        # Pauli channels compose by xor-convolving their weights
        chi = sum(w * chi[np.ix_(x ^ p.a, x ^ p.b)] for p, w in encoding.weights)
    a, b = x[:, None], x[None, :]
    dot = parity(a & b)                                  # a.b mod 2
    cls = np.where(b == 0, np.minimum(a, 1), 2 + dot).ravel()
    means = np.bincount(cls, chi.ravel(), 4) / np.bincount(cls, None, 4)
    # sum_{a,b} w[a,b] X^b Z^a rho Z^a X^b at [y, y'] is
    # sum_b w_hat[y xor y', b] rho[y xor b, y' xor b], where w_hat is the
    # Walsh-Hadamard transform of w over a
    w_hat = (1.0 - 2.0 * dot) @ means[cls].reshape(d, d)
    psi = resource_state(g).amplitudes
    rows = x[None, :] ^ x[:, None]                       # rows[b, y] = y xor b
    rho = np.outer(psi, psi.conj())[rows[:, :, None], rows[:, None, :]]
    out = (w_hat.T[:, rows] * rho).sum(axis=0)
    return DensityMatrix(n, out)


@lru_cache(maxsize=None)
def _all_gl_inverses(n: int) -> tuple:
    return tuple(gf2_inverse(m) for m in all_gl_matrices(n))


def _kraus_superoperator(kraus) -> np.ndarray:
    """Row-major vectorization: vec(K rho K') = (K kron K*) vec(rho)."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def _sample_gl_batch(n: int, count: int, rng: np.random.Generator):
    """(A, A^-1) pairs, exactly uniform over GL(n, 2)."""
    if n <= 4:
        table = all_gl_matrices(n)
        inv_table = _all_gl_inverses(n)
        idx = rng.integers(0, len(table), size=count)
        return (np.stack([table[i] for i in idx]),
                np.stack([inv_table[i] for i in idx]))
    mats = [sample_twirl(n, rng).A for _ in range(count)]
    return np.stack(mats), np.stack([gf2_inverse(m) for m in mats])


def _twirled_state_mc(g: DataTable, device, num_samples: int, seed: int,
                      encoding) -> DensityMatrix:
    """Vectorized Monte Carlo average over twirl samples."""
    from .qcore import pauli_matrix, plus_state, pure_density

    n = g.n
    d = 1 << n
    rng = derive_rng(seed, 0x7719)
    amats, inv_amats = _sample_gl_batch(n, num_samples, rng)            # (N,n,n)
    bmats = np.triu(rng.integers(0, 2, size=(num_samples, n, n), dtype=np.uint8), k=1)
    us = rng.integers(0, d, size=num_samples)
    vs = rng.integers(0, 2, size=(num_samples, n)).astype(np.uint8)

    xb = _address_bits(n).astype(np.int64)                              # (d,n)
    weights = (1 << np.arange(n)).astype(np.int64)

    # dataset tables g_C for every sample (batched matmuls over GF(2))
    amats64 = amats.astype(np.int64)
    bmats64 = bmats.astype(np.int64)
    y = np.matmul(xb[None, :, :], amats64.transpose(0, 2, 1)) % 2       # (N,d,n)
    y_int = (y @ weights) ^ us[:, None]
    lin = (vs.astype(np.int64) @ xb.T) % 2                              # (N,d)
    quad = (np.matmul(xb[None, :, :], bmats64) * xb[None, :, :]).sum(-1) % 2
    garr = g.to_array().astype(np.int64)
    tables = garr[y_int] ^ lin ^ quad                                   # (N,d)
    diag = 1.0 - 2.0 * tables                                           # signs of V(g_C)

    # physical state per sample: post_noise[ V(g_C) |+><+| V(g_C)' ]
    base = pure_density(plus_state(n)).matrix
    rho = diag[:, :, None] * diag[:, None, :] * base[None, :, :]
    sup = None
    if device.post_noise is not None:
        sup = _kraus_superoperator(device.post_noise.kraus)
    if encoding is not None:
        enc_sup = _kraus_superoperator(
            np.sqrt(w) * pauli_matrix(p) for p, w in encoding.weights)
        sup = enc_sup if sup is None else enc_sup @ sup
    if sup is not None:
        rho = (rho.reshape(num_samples, d * d) @ sup.T).reshape(num_samples, d, d)

    # restore with the adjoint gate: with sigma(w) = A^(-1)(w xor u),
    # rho'[w,w'] = ph(sigma(w)) ph(sigma(w')) rho[sigma(w), sigma(w')],
    # where ph is the diagonal phase pattern already computed above
    z_int = np.arange(d)[None, :] ^ us[:, None]
    z_bits = ((z_int[:, :, None] >> np.arange(n)) & 1).astype(np.int64)
    sig_bits = np.matmul(z_bits, inv_amats.astype(np.int64).transpose(0, 2, 1)) % 2
    sig_int = sig_bits @ weights                                         # (N,d)
    ph = 1.0 - 2.0 * ((quad ^ lin).astype(np.float64))                   # over all y
    ph_at = np.take_along_axis(ph, sig_int, axis=1)
    rows = np.take_along_axis(rho, sig_int[:, :, None], axis=1)
    conj = np.take_along_axis(rows, sig_int[:, None, :], axis=2)
    out = conj * ph_at[:, :, None] * ph_at[:, None, :]
    return DensityMatrix(n, out.mean(axis=0))
