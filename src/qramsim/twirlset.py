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
from .qcore import (
    DensityMatrix,
    PauliString,
    check_register_cap,
    pauli_matrix,
    resource_state,
)
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


def _draw_twirl(n: int, rng: np.random.Generator):
    """The draws of one uniform twirl element, in stream order: the packed
    rows of A, then the n x n bits whose strict upper triangle is B, u and v.

    A is exactly uniform over GL(n, 2): each row is drawn uniformly from the
    complement of the span of the previous rows (split as span element xor
    nonzero combination of free coordinates).
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
    b = rng.integers(0, 2, size=(n, n), dtype=np.uint8)   # B is its upper triangle
    u = int(rng.integers(1 << n))
    return rows, b, u, int(rng.integers(1 << n))


def sample_twirl(n: int, rng: np.random.Generator) -> TwirlElement:
    """Uniform element of the twirl set (the draws of ``_draw_twirl``)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    rows, b, u, v = _draw_twirl(n, rng)
    a = np.array([int_to_bits(r, n) for r in rows], dtype=np.uint8)
    return TwirlElement(n, a, np.triu(b, k=1), u, v)


def _columns(mats: np.ndarray) -> np.ndarray:
    """Packed columns (..., n) of GF(2) matrices (..., n, n): bit i of
    column j is M[i, j]."""
    n = mats.shape[-1]
    return np.left_shift(mats, np.arange(n, dtype=mats.dtype)[:, None]).sum(
        axis=-2, dtype=mats.dtype)


def _images(cols: np.ndarray) -> np.ndarray:
    """x -> Mx (..., 2^n) for the GF(2) matrices with packed columns cols
    (..., n): Mx is the xor of the columns at the set bits of x."""
    n = cols.shape[-1]
    out = np.zeros(cols.shape[:-1] + (1 << n,), dtype=cols.dtype)
    for j in range(n):
        out[..., 1 << j:2 << j] = out[..., :1 << j] ^ cols[..., j, None]
    return out


@lru_cache(maxsize=None)
def all_gl_matrices(n: int) -> tuple:
    """Every invertible n x n GF(2) matrix in ascending code order, where bit
    n*i + j of the code is A[i, j] (cached; n <= 4). Every code is tested at
    once: A is invertible iff Ax != 0 for every x != 0."""
    if n > 4:
        raise PreconditionError("GL enumeration supported only for n <= 4")
    codes = np.arange(1 << (n * n))
    bit = n * np.arange(n)[:, None] + np.arange(n)
    mats = ((codes[:, None, None] >> bit) & 1).astype(np.uint8)
    mats = mats[(_images(_columns(mats))[:, 1:] != 0).all(axis=1)]
    mats.flags.writeable = False
    return tuple(mats)


@lru_cache(maxsize=None)
def _gl_permutations(n: int) -> np.ndarray:
    """(|GL(n,2)|, 2^n) table of x -> Ax, rows in ``all_gl_matrices`` order."""
    table = _images(_columns(np.stack(all_gl_matrices(n))))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _all_gl_inverses(n: int) -> np.ndarray:
    """(|GL(n,2)|, 2^n) table of x -> A^-1 x: each row inverts the
    permutation of ``_gl_permutations``."""
    table = np.argsort(_gl_permutations(n), axis=1).astype(np.uint8)
    table.flags.writeable = False
    return table


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
    form; ``mode='mc'`` averages ``num_samples`` (a positive int) uniformly
    sampled elements drawn from one stream of ``seed``, accumulated in a
    fixed order so the result is bit reproducible. Both modes cover n <= 6.
    """
    if mode not in ("exact", "mc"):
        raise PreconditionError(f"unknown twirl mode {mode!r}")
    n = g.n
    check_register_cap(n)
    if device.n != n or (encoding is not None
                         and any(p.n != n for p, _ in encoding.weights)):
        raise DimensionMismatchError("dataset, device and encoding sizes differ")
    if mode == "exact":
        state = _twirled_state_exact(g, device, encoding)
        return TwirlResult(state, "exact", twirl_set_size(n), None)
    if (not isinstance(num_samples, int) or isinstance(num_samples, bool)
            or num_samples < 1 or seed is None):
        raise PreconditionError("mc mode requires a positive int num_samples and a seed")
    state = _twirled_state_mc(g, device, num_samples, seed, encoding)
    return TwirlResult(state, "mc", num_samples, seed)


def _twirled_state_exact(g: DataTable, device, encoding) -> DensityMatrix:
    """T(psi) = sum_S (mean of chi over S) sum_{Q in S} Q psi Q.

    The twirl set contains every Pauli, so the channel E = encoding .
    post_noise is first Pauli-twirled into weights chi; conjugation by the
    set then spreads each Pauli uniformly over its unsigned class of
    ``pauli_subset`` (identity, Z-type, even, odd).
    """
    n = g.n
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


def _superoperator_t(kraus) -> np.ndarray:
    """S^T for S = sum_k K_k kron K_k*, the row-major vectorization
    vec(K rho K') = (K kron K*) vec(rho), as one GEMM over k."""
    ks = np.asarray(kraus)
    d = ks.shape[-1]
    m = ks.reshape(-1, d * d)
    s4 = (m.T @ m.conj()).reshape(d, d, d, d)       # [a, b, c, e] = sum_k K_ab K*_ce
    return s4.transpose(1, 3, 0, 2).reshape(d * d, d * d)


# (sample, matrix entry) pairs per streamed chunk of the Monte Carlo twirl:
# its peak memory is O(_MC_CHUNK) whatever the number of samples
_MC_CHUNK = 1 << 20


def _twirled_state_mc(g: DataTable, device, num_samples: int, seed: int,
                      encoding) -> DensityMatrix:
    """Monte Carlo average over twirl samples, streamed in chunks.

    The draws come from one stream of ``seed``, in a fixed order: the GL
    matrices (an index into ``all_gl_matrices`` for n <= 4, the draws of
    ``_draw_twirl`` for larger n), then B, u and v for every sample. Three
    facts make the average cheap:

    1. The element (A, B, u, v) acts on addresses as the permutation
       y = Ax xor u, so g_C(x) = g(Ax xor u) xor v.x xor x'Bx. For n <= 4
       x -> Ax and x -> A^-1 x are rows of the cached tables
       ``_gl_permutations`` and ``_all_gl_inverses``; for larger n they
       come from the packed rows of each draw.
    2. The noisy state E(psi(g_C) psi(g_C)') depends only on the table g_C
       up to a global sign, which cancels. So the composed superoperator is
       applied once per distinct sign-normalised table of a chunk, as one
       real x complex GEMM through a float view of S^T.
    3. Restoring with the adjoint gate is, with sigma(w) = A^-1 (w xor u)
       and s(w) = (-1)^ph(sigma(w)), ph(x) = v.x xor x'Bx,
       rho'[w, w'] = s(w) s(w') rho[sigma(w), sigma(w')]: one flat gather
       per sample from the stacked states of the distinct tables, summed
       with its signs in one einsum.

    Samples are summed in draw order, chunk by chunk.
    """
    n = g.n
    d = 1 << n
    x = np.arange(d)
    rng = derive_rng(seed, 0x7719)
    if n <= 4:
        pick = rng.integers(0, len(all_gl_matrices(n)), size=num_samples)
        fwd_table, inv_table = _gl_permutations(n), _all_gl_inverses(n)
    else:
        rows = np.array([_draw_twirl(n, rng)[0] for _ in range(num_samples)])
        a_cols = _columns(((rows[:, :, None] >> x[:n]) & 1).astype(np.uint8))
    bmats = np.triu(rng.integers(0, 2, size=(num_samples, n, n), dtype=np.uint8), k=1)
    us = rng.integers(0, d, size=num_samples)
    vs = rng.integers(0, 2, size=(num_samples, n)) @ (1 << x[:n])
    b_cols = _columns(bmats)

    sup_t = None                                 # S^T of encoding . post_noise
    if device.post_noise is not None:
        sup_t = _superoperator_t(device.post_noise.kraus)
    if encoding is not None:
        enc_t = _superoperator_t([np.sqrt(w) * pauli_matrix(p) for p, w in encoding.weights])
        sup_t = enc_t if sup_t is None else sup_t @ enc_t

    garr = g.to_array()
    chunk = max(1, _MC_CHUNK // (d * d))
    acc = 0.0
    for lo in range(0, num_samples, chunk):
        part = slice(lo, lo + chunk)
        u = us[part, None]
        if n <= 4:
            fwd, inv = fwd_table[pick[part]], inv_table[pick[part]]
        else:
            fwd = _images(a_cols[part])
            inv = np.argsort(fwd, axis=1)
        ph = parity(x & (_images(b_cols[part]) ^ vs[part, None]))    # v.x xor x'Bx
        tables = garr[fwd ^ u] ^ ph
        tables ^= tables[:, :1]                                     # bit 0 is now 0
        codes = (tables[:, 1:] << x[:-1]).sum(axis=1)
        _, first, which = np.unique(codes, return_index=True, return_inverse=True)
        k = len(first)
        psi = (1.0 - 2.0 * tables[first]) / np.sqrt(d)              # V(g_C)|+>
        rho = (psi[:, :, None] * psi[:, None, :]).reshape(k, d * d)
        if sup_t is not None:
            rho = (rho @ sup_t.view(np.float64)).view(np.complex128)
        sig = np.take_along_axis(inv, x ^ u, axis=1)
        idx = ((which.reshape(-1, 1) * d + sig) * d)[:, :, None] + sig[:, None, :]
        sign = 1.0 - 2.0 * np.take_along_axis(ph, sig, axis=1)      # (-1)^ph(sigma(w))
        acc = acc + np.einsum("sw,sv,swv->wv", sign, sign, rho.ravel()[idx])
    return DensityMatrix(n, acc / num_samples)
