"""The partial Clifford twirl set: Cliffords of the form Z^v Q_B M_A' X^u
(generated by Z, X, CZ, CNOT) that map dataset phase unitaries to dataset
phase unitaries. Provides uniform sampling, the dataset transformation
g -> g_C, closed-form Pauli conjugation, and the averaged (twirled) noisy
resource state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .boolfn import CLASSICAL_N_CAP, DataTable, parity
from .device import EncodingNoise, PresetNoise, pauli_channel, pauli_factors, pauli_floor
from .errors import DimensionMismatchError, PreconditionError, SizeCapError
from .qcore import DensityMatrix, PauliString, check_register_cap, qram_unitary
from .rngutil import derive_rng

# largest Monte Carlo sample count: on every path, the closed form's too,
# the draws of every sample are held at once, and at n = 6 a call's
# tracemalloc peak grows by about 620 B per sample (624 B between 100k and
# 200k samples), so this bounds a call near 0.6 GB
MC_SAMPLE_CAP = 10**6

# ---------------------------------------------------------------------------
# GF(2) data as packed integers: bit j of row i is M_ij, and an address x
# packs x_j into bit j.


def _transpose(rows) -> np.ndarray:
    """Packed rows (..., n) of M' from the packed rows (..., n) of M."""
    rows = np.asarray(rows)
    i = np.arange(rows.shape[-1])
    return (((rows[..., None, :] >> i[:, None]) & 1) << i).sum(axis=-1)


def _images(cols: np.ndarray) -> np.ndarray:
    """x -> Mx (..., 2^n) for the GF(2) matrices with packed columns cols
    (..., n): Mx is the xor of the columns at the set bits of x."""
    n = cols.shape[-1]
    out = np.zeros(cols.shape[:-1] + (1 << n,), dtype=cols.dtype)
    for j in range(n):
        out[..., 1 << j:2 << j] = out[..., :1 << j] ^ cols[..., j, None]
    return out


def _xor_rows(rows, x: int) -> int:
    """M'x for the GF(2) matrix M with packed rows: the xor of the rows at
    the set bits of x."""
    out = 0
    for i, row in enumerate(rows):
        if (x >> i) & 1:
            out ^= row
    return out


def _upper_rows(bits: np.ndarray) -> np.ndarray:
    """Packed rows (..., n) of the strict upper triangles of the bit
    matrices (..., n, n), by one matmul of the flattened matrices: entry
    (i, j) adds 2^j to row i when j > i."""
    n = bits.shape[-1]
    weights = np.triu(np.ones((n, n), dtype=np.int64), 1) << np.arange(n)
    spread = np.eye(n, dtype=np.int64)[:, None, :] * weights[:, :, None]
    return bits.reshape(bits.shape[:-2] + (n * n,)) @ spread.reshape(n * n, n)


def _phases(b_rows, v) -> np.ndarray:
    """ph(x) = v.x xor x'Bx at every address x (..., 2^n), for B with packed
    rows b_rows (..., n). Since x'Bx = x'B'x, the rows of B serve as the
    packed columns of B'."""
    images = _images(np.asarray(b_rows))
    return parity(np.arange(images.shape[-1]) & (images ^ v))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwirlElement:
    """One twirl gate, parameterized by (A, B, u, v).

    A is invertible over GF(2) and B strictly upper triangular, each given
    as n packed rows (bit j of ``A[i]`` is A_ij); u and v are packed bit
    strings. The realized gate is Z^v Q_B M_A' X^u where M_A maps |x> to
    |Ax> and Q_B applies CZ on every pair with B_ij = 1. ``forward`` is the
    address table x -> Ax.
    """

    n: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    u: int
    v: int
    forward: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        a = tuple(int(r) for r in self.A)
        b = tuple(int(r) for r in self.B)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        if not 1 <= n <= CLASSICAL_N_CAP:
            raise PreconditionError(f"n={n} outside [1, {CLASSICAL_N_CAP}]")
        if len(a) != n or len(b) != n or any(not 0 <= r < 1 << n for r in a + b):
            raise DimensionMismatchError("A and B must be n packed rows of n bits")
        if any(r & ((2 << i) - 1) for i, r in enumerate(b)):
            raise PreconditionError("B must be strictly upper triangular")
        if not (0 <= self.u < (1 << n) and 0 <= self.v < (1 << n)):
            raise DimensionMismatchError("u, v must be n-bit strings")
        forward = _images(_transpose(a))
        if not forward[1:].all():                  # Ax != 0 for every x != 0
            raise PreconditionError("A is not invertible over GF(2)")
        forward.flags.writeable = False
        object.__setattr__(self, "forward", forward)

    @property
    def a_inverse(self) -> np.ndarray:
        """The address table x -> A^-1 x, the inverse of ``forward``."""
        inv = getattr(self, "_a_inv", None)
        if inv is None:
            inv = np.argsort(self.forward)
            inv.flags.writeable = False
            object.__setattr__(self, "_a_inv", inv)
        return inv


def _lemire_rejects(m: np.ndarray, k: int) -> np.ndarray:
    """Whether numpy's bounded draw from [0, k) rejects the 32-bit words
    with products m = w k: iff (w k) mod 2^32 < 2^32 mod k (Lemire 2019)."""
    return (m & 0xFFFFFFFF) < (1 << 32) % k


def _draw_twirls(n: int, count: int, rng: np.random.Generator):
    """``count`` uniform twirl elements drawn from ``rng``: the packed rows
    (count, n) of A, the bits (count, n, n) whose strict upper triangle is
    B, and u and v (count,).

    Per element, in stream order: row i of A takes t_sel from [1, 2^(n-i)),
    then i coins from [0, 2); one uint8 draw takes B's n^2 bits; u and v
    come from [0, 2^n). These draws are decoded from one block of 32-bit
    words. numpy draws an integer from [lo, lo + k) out of one word w as
    lo + (w k >> 32), and takes no word when k = 1 (the last t_sel); a
    uint8 bit is the top bit of one byte of a word, low byte first, so B
    takes ceil(n^2 / 4) words. Only the t_sel ranges k = 2^f - 1 are not
    powers of two, so only their words can be rejected, each with
    probability 2^(32 mod f) / 2^32 (at most 4 / 2^32 for n <= 6). If
    ``_lemire_rejects`` one in the block, the state is restored and the
    same draws are taken one ``rng.integers`` call at a time.

    A is exactly uniform over GL(n, 2): row i is t xor a combination of
    rows 0..i-1 (the coins pick the combination), where t puts the bits of
    t_sel on the coordinates that are not pivots of the reduced basis of
    those rows, lowest first. t is nonzero, so the row is outside their
    span. The basis is kept reduced (a 1 at its own pivot, 0 at the
    others), so t is also the row's reduced form: its top bit is the new
    pivot, which t clears from the earlier basis rows.
    """
    spans = []                                          # (lo, k) per scalar draw
    for i in range(n):
        spans += [(1, (1 << (n - i)) - 1)] + [(0, 2)] * i
    spans += [(0, 1 << n)] * 2
    na = len(spans) - 2                                 # draws of A
    wa = n - 1 + n * (n - 1) // 2                       # words of A
    nb = (n * n + 3) // 4                               # words of B
    state = rng.bit_generator.state
    words = rng.integers(0, 1 << 32, size=(count, wa + nb + 2), dtype=np.uint32)
    b = words[:, wa:wa + nb].astype("<u4", copy=False).view(np.uint8) >> 7
    b = b[:, :n * n].reshape(count, n, n)
    # every draw and packed row has at most n <= 24 bits
    draws = np.empty((len(spans), count), dtype=np.int32)
    rejected = False
    col = iter([*range(wa), wa + nb, wa + nb + 1])      # u's and v's follow B's
    for c, (lo, k) in enumerate(spans):
        if k == 1:                                      # no word
            draws[c] = lo
            continue
        m = words[:, next(col)] * np.uint64(k)
        if k & (k - 1):                                 # only 2^f - 1 can reject
            rejected |= bool(_lemire_rejects(m, k).any())
        draws[c] = lo + (m >> 32)
    if rejected:
        rng.bit_generator.state = state
        for s in range(count):
            draws[:na, s] = [rng.integers(a, a + z) for a, z in spans[:na]]
            b[s] = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
            draws[na:, s] = [rng.integers(a, a + z) for a, z in spans[na:]]
    rows = np.empty((n, count), dtype=np.int32)
    basis = np.empty((n, count), dtype=np.int32)
    free = list(range(n))                               # ascending
    for i in range(n):
        c = i * (i + 1) // 2
        t_sel = draws[c]
        t = 0
        for j, pos in enumerate(free):
            t = t | ((t_sel >> j) & 1) << pos
        rows[i] = t ^ np.bitwise_xor.reduce(basis[:i] * draws[c + 1:c + 1 + i], axis=0)
        p = np.frexp(t)[1] - 1                          # t's top bit
        basis[:i] ^= t * ((basis[:i] >> p) & 1)
        basis[i] = t
        free = [np.where(free[j] < p, free[j], free[j + 1]) for j in range(n - i - 1)]
    return rows.T, b, draws[na], draws[na + 1]


def sample_twirl(n: int, rng: np.random.Generator) -> TwirlElement:
    """Uniform element of the twirl set: one draw of ``_draw_twirls``."""
    if not 1 <= n <= CLASSICAL_N_CAP:
        raise PreconditionError(f"n={n} outside [1, {CLASSICAL_N_CAP}]")
    a, b, u, v = _draw_twirls(n, 1, rng)
    return TwirlElement(n, a[0], _upper_rows(b[0]), int(u[0]), int(v[0]))


@lru_cache(maxsize=None)
def all_gl_matrices(n: int) -> tuple:
    """Every invertible n x n GF(2) matrix as a tuple of packed rows, in
    ascending code order, where the code concatenates the rows (bit n*i + j
    is A_ij; cached; n <= 4). Every code is tested at once: A is invertible
    iff A'x != 0 for every x != 0, and the rows of A are the columns of A'."""
    if n > 4:
        raise PreconditionError("GL enumeration supported only for n <= 4")
    codes = np.arange(1 << (n * n))
    rows = ((codes[:, None] >> (n * np.arange(n))) & ((1 << n) - 1)).astype(np.uint8)
    rows = rows[(_images(rows)[:, 1:] != 0).all(axis=1)]
    return tuple(map(tuple, rows.tolist()))


@lru_cache(maxsize=None)
def _gl_permutations(n: int) -> np.ndarray:
    """(|GL(n,2)|, 2^n) table of x -> Ax, rows in ``all_gl_matrices`` order."""
    table = _images(_transpose(all_gl_matrices(n))).astype(np.uint8)
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
            b = [0] * n
            for k, (i, j) in enumerate(upper):
                b[i] |= ((bcode >> k) & 1) << j
            for u in range(1 << n):
                for v in range(1 << n):
                    yield TwirlElement(n, a, b, u, v)


# ---------------------------------------------------------------------------
# Dataset transformation.

def twirl_dataset(g: DataTable, c: TwirlElement) -> DataTable:
    """g_C(x) = g(Ax xor u) xor (x . v) xor (x^T B x)."""
    if g.n != c.n:
        raise DimensionMismatchError("dataset and twirl size differ")
    return DataTable.from_array(g.to_array()[c.forward ^ c.u] ^ _phases(c.B, c.v))


# ---------------------------------------------------------------------------
# Closed-form Pauli conjugation.

def conjugate_pauli(c: TwirlElement, p: PauliString) -> PauliString:
    """C P C' in canonical signed form, via the conjugation identities of the
    four gate layers (X flips the sign by u.a, CNOTs act linearly as
    b' = A^-1 b and a -> A^T a, CZ adds (B xor B^T) b' to the Z part with a
    quadratic sign, Z flips the sign by v.b')."""
    if c.n != p.n:
        raise DimensionMismatchError("twirl and Pauli size differ")
    bp = int(c.a_inverse[p.b])
    b_bp = sum(((row & bp).bit_count() & 1) << i for i, row in enumerate(c.B))   # B b'
    ap = _xor_rows(c.A, p.a) ^ b_bp ^ _xor_rows(c.B, bp)
    sign = (p.s + (p.a & c.u).bit_count() + (bp & b_bp).bit_count()
            + (bp & c.v).bit_count()) % 2
    return PauliString(c.n, sign, ap, bp)


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
    form; ``mode='mc'`` averages ``num_samples`` (a positive int, at most
    ``MC_SAMPLE_CAP``) uniformly sampled elements drawn from one stream of
    ``seed``, accumulated in a fixed order so the result is bit
    reproducible. Both modes cover n <= 6. ``encoding=None`` is the
    identity weight table ``EncodingNoise.none``.
    """
    if mode not in ("exact", "mc"):
        raise PreconditionError(f"unknown twirl mode {mode!r}")
    n = g.n
    check_register_cap(n)
    encoding = encoding or EncodingNoise.none(n)
    if device.n != n or encoding.n != n:
        raise DimensionMismatchError("dataset, device and encoding sizes differ")
    if mode == "exact":
        alpha, beta = exact_twirl_coefficients(device, encoding)
        psi = qram_unitary(g) / np.sqrt(1 << n)
        state = DensityMatrix(n, alpha * np.outer(psi, psi) + beta * np.eye(1 << n))
        return TwirlResult(state, "exact", twirl_set_size(n), None)
    if (not isinstance(num_samples, int) or isinstance(num_samples, bool)
            or num_samples < 1 or seed is None):
        raise PreconditionError("mc mode requires a positive int num_samples and a seed")
    if num_samples > MC_SAMPLE_CAP:
        raise SizeCapError(f"mc twirl capped at {MC_SAMPLE_CAP} samples")
    state = _twirled_state_mc(g, device, num_samples, seed, encoding)
    return TwirlResult(state, "mc", num_samples, seed)


def exact_twirl_coefficients(device, encoding) -> tuple[float, float]:
    """(alpha, beta) of the exact twirl T(psi) = alpha psi psi' + beta I,
    the same for every dataset of the device's size.

    The twirl set contains every Pauli, so the channel E = encoding .
    post_noise is first Pauli-twirled into weights chi (the device's cached
    ``post_noise.chi``); conjugation by the set then spreads each Pauli
    uniformly over its unsigned class S of ``pauli_subset`` (identity,
    Z-type, even, odd), which acts with the mean m_S of chi over S. As psi is
    real with entries +-1/sqrt(d), the Z class sums to I - psi psi', the even
    class to (d/2)((d - 2)/d I + psi psi') and the odd class to (d - 1) I
    minus that. beta is not 1 - alpha, so a lossy channel keeps its sums.
    ``encoding=None`` is the identity weight table ``EncodingNoise.none``.
    """
    d = 1 << device.n
    x = np.arange(d)
    encoding = encoding or EncodingNoise.none(device.n)
    chi = device.post_noise.chi
    # Pauli channels compose by xor-convolving their weights
    chi = sum(w * chi[np.ix_(x ^ p.a, x ^ p.b)] for p, w in encoding.weights)
    a, b = x[:, None], x[None, :]
    cls = np.where(b == 0, np.minimum(a, 1), 2 + parity(a & b)).ravel()
    m_id, m_z, m_even, m_odd = np.bincount(cls, chi.ravel(), 4) / np.bincount(cls, None, 4)
    alpha = m_id - m_z + d / 2 * (m_even - m_odd)
    beta = m_z + (d - 2) / 2 * m_even + d / 2 * m_odd
    return float(alpha), float(beta)


# (sample, matrix entry) pairs per streamed chunk of the Monte Carlo twirl:
# this bounds the chunk's address tables, its noisy states (dense, or their
# fewer factors) and the closed form's pairs of dead-set images, but on
# every path A, B, u and v are drawn for every sample up front, so memory
# grows with the count up to MC_SAMPLE_CAP
_MC_CHUNK = 1 << 20
# entries per gather of the restore: a block of _MC_BLOCK / d samples for
# each factor's (samples, d) gather, or of _MC_BLOCK / d^2 samples for the
# dense stack's gather and signed sum; the block's index and gather (256 KB
# each in float64) stay in cache
_MC_BLOCK = 1 << 15


def _twirled_state_mc(g: DataTable, device, num_samples: int, seed: int,
                      encoding) -> DensityMatrix:
    """Monte Carlo average over twirl samples, streamed in chunks.

    The draws come from one stream of ``seed``, in a fixed order: the GL
    matrices (an index into ``all_gl_matrices`` for n <= 4; for larger n the
    A of whole ``_draw_twirls`` elements, whose B, u and v go unused), then
    B, u and v for every sample. Four facts make the average cheap:

    1. The element (A, B, u, v) acts on addresses as the permutation
       y = Ax xor u, so g_C(x) = g(Ax xor u) xor v.x xor x'Bx. For n <= 4
       x -> Ax and x -> A^-1 x are rows of the cached tables
       ``_gl_permutations`` and ``_all_gl_inverses``; for larger n they
       come from the packed rows of each draw.
    2. The noisy state E(psi(g_C) psi(g_C)') depends only on the table g_C
       up to a global sign, which cancels. So the noise acts once per
       distinct sign-normalised table of a chunk, on the pure states
       psi = V(g_C)|+> directly, in the factored form
       sum_r phi_r phi_r' + m I/d: the device through
       ``post_noise.factors`` and the encoding through ``pauli_factors``,
       R = r T factors for the device's r and the T Paulis above the
       encoding's floor (r = 1 when noiseless, T = 1 without encoding).
       When R >= d (dephasing, a Kraus list of d or more operators, a wide
       encoding) the dense d x d states cost no more, and the device acts
       through ``post_noise.on_states`` and the encoding through
       ``pauli_channel``, at O(d^2) per state and Kraus operator or
       X-pattern. Every preset but the coherent rotation, and every
       encoding, keeps the real states real, so the restore below then runs
       in float64.
    3. Restoring with the adjoint gate is, with sigma(w) = A^-1 (w xor u)
       and s(w) = (-1)^ph(sigma(w)), ph(x) = v.x xor x'Bx,
       rho'[w, w'] = s(w) s(w') rho[sigma(w), sigma(w')]. A^-1 is linear
       over GF(2), so sigma(w) = A^-1 w xor A^-1 u is one xor of the
       inverse table with its entry at u. sigma permutes, so on factors the
       restored state is sum_j y_j y_j' + m I/d with
       y_j[w] = s(w) phi_j[sigma(w)]: each block of samples gathers one
       (samples, d) array Y_j per factor and adds the matrix product
       Y_j' conj(Y_j), and the masses add (sum m / d) I once at the end.
       The dense states are gathered and summed with their signs instead.
       Either way a gather covers about ``_MC_BLOCK`` entries, so no
       (samples, d, d) index or gather is built.

    4. By 1 and 3 the restore of sample s is the signed permutation
       U_s = S_s Pi_sigma, and U_s psi(g_C) = +-psi(g) for psi(g) = V(g)|+>.
       So the twirled state is the mean of U_s E(U_s' psi psi' U_s) U_s',
       the channel conjugated by each sample. For the presets that
       conjugate has a closed form on psi that depends on (A, u) alone, and
       the sum is psi psi' o K + N c I for a kernel K and a weight c from
       each preset's ``twirl_kernel`` (noiseless, p = 0: K = N, c = 0). An
       encoding with only the identity above its floor w_min commutes with
       every U_s: it scales that state by w_I - w_min and adds w_min d I.
       These cases skip facts 2 and 3; B and v cancel, but are still drawn
       so the stream does not change. The coherent rotation, Kraus lists
       and encodings with other Paulis above their floor keep them.

    Samples are summed in draw order, block by block and chunk by chunk;
    within a block the matrix product fixes the order.
    """
    n = g.n
    d = 1 << n
    x = np.arange(d)
    rng = derive_rng(seed, 0x7719)
    # n <= 6, so packed rows, and the address tables made from them per
    # chunk, fit in uint8 like the GL tables
    if n <= 4:
        pick = rng.integers(0, len(all_gl_matrices(n)), size=num_samples)
        fwd_table, inv_table = _gl_permutations(n), _all_gl_inverses(n)
    else:
        a_cols = _transpose(_draw_twirls(n, num_samples, rng)[0]).astype(np.uint8)
    b_bits = rng.integers(0, 2, size=(num_samples, n, n), dtype=np.uint8)
    us = rng.integers(0, d, size=num_samples)
    vs = rng.integers(0, 2, size=(num_samples, n)) @ (1 << x[:n])

    def forward(part):
        """The address tables x -> Ax of the chunk's samples."""
        return fwd_table[pick[part]] if n <= 4 else _images(a_cols[part])

    noise = device.post_noise
    floor, above = pauli_floor(encoding.table)
    chunk = max(1, _MC_CHUNK // (d * d))
    if isinstance(noise, PresetNoise) and not above.ravel()[1:].any():   # fact 4
        kernel = 0
        for lo in range(0, num_samples, chunk):
            part = slice(lo, lo + chunk)
            k, c = noise.twirl_kernel(forward(part), us[part])
            kernel = kernel + k
        psi = qram_unitary(g) / np.sqrt(d)
        rho = np.outer(psi, psi) * kernel / num_samples + c * np.eye(d)
        return DensityMatrix(n, above[0, 0] * rho + floor * d * np.eye(d))

    # factors per state: the noise's, times the Paulis above the floor
    rank = noise.num_factors * np.count_nonzero(above)
    factored = rank < d
    garr = g.to_array()
    block = max(1, _MC_BLOCK // (d if factored else d * d))
    acc, mass = 0.0, 0.0
    for lo in range(0, num_samples, chunk):
        part = slice(lo, lo + chunk)
        u = us[part, None]
        fwd = forward(part)
        inv = inv_table[pick[part]] if n <= 4 else np.argsort(fwd, axis=1)
        ph = _phases(_upper_rows(b_bits[part]), vs[part, None])     # v.x xor x'Bx
        tables = garr[fwd ^ u] ^ ph
        tables ^= tables[:, :1]                                     # bit 0 is now 0
        codes = tables[:, 1:] @ (1 << x[:-1])
        _, first, which = np.unique(codes, return_index=True, return_inverse=True)
        psi = (1.0 - 2.0 * tables[first]) / np.sqrt(d)              # V(g_C)|+>
        sig = (inv ^ np.take_along_axis(inv, u, axis=1)).astype(np.intp)  # A^-1 w xor A^-1 u
        # (-1)^ph(sigma(w)), read through the flat index of ph(sigma(w))
        sign = 1.0 - 2.0 * ph.ravel()[sig + np.arange(0, ph.size, d)[:, None]]
        if factored:
            phi, m = pauli_factors(encoding.table, *noise.factors(psi))
            mass += m[which].sum()
            flat = phi.ravel()
        else:
            flat = pauli_channel(encoding.table, noise.on_states(psi)).ravel()
            rows = (which.reshape(-1, 1) * d + sig) * d
        for p in (slice(b, b + block) for b in range(0, len(sig), block)):
            if factored:
                base = which[p, None] * (rank * d) + sig[p]         # factor 0 at sigma(w)
                for j in range(0, rank * d, d):
                    y = flat[base + j] * sign[p]
                    acc = acc + y.T @ y.conj()
            else:
                acc = acc + np.einsum("sw,sv,swv->wv", sign[p], sign[p],
                                      flat[rows[p, :, None] + sig[p, None, :]])
    # with every Pauli on the encoding's floor there are no factors, only mass
    return DensityMatrix(n, (acc + mass / d * np.eye(d)) / num_samples)
