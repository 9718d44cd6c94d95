"""State-agnostic purity amplification.

All distillers here consume identical copies of an input state and aim to
output its principal eigenvector. The swap-test recursion and both QPCA
variants act within the eigenbasis of the input, so they are computed on the
spectrum where possible; dense outputs are reconstructed from the stored
eigenvectors. Dimensions are general (qudits), not restricted to powers of
two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, PreconditionError, SizeCapError

DEFAULT_COPY_BUDGET = 10**6
SWAP_TEST_LEVEL_CAP = 60  # deepest swap-test recursion ``swap_test_depth`` tries

_KB1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)  # |1><1|


def _as_matrix(state) -> np.ndarray:
    if hasattr(state, "matrix"):
        return np.asarray(state.matrix, dtype=np.complex128)
    return np.asarray(state, dtype=np.complex128)


class CopySource:
    """A stream of fresh, identical copies of one input state.

    Every copy equals the configured input exactly; each distiller reports
    the copies it consumed as ``DistillReport.copies_consumed``.
    """

    def __init__(self, spectrum: np.ndarray, vectors: np.ndarray | None):
        order = np.argsort(spectrum)[::-1]
        self.spectrum = np.asarray(spectrum, dtype=np.float64)[order]
        self.vectors = None if vectors is None else np.asarray(vectors)[:, order]
        self.dim = len(self.spectrum)
        if abs(self.spectrum.sum() - 1.0) > 1e-9 or self.spectrum[-1] < -1e-10:
            raise PreconditionError("spectrum is not a probability vector")

    @classmethod
    def from_density(cls, rho) -> "CopySource":
        mat = _as_matrix(rho)
        vals, vecs = np.linalg.eigh(mat)
        return cls(np.clip(vals, 0.0, None), vecs)

    @classmethod
    def from_spectrum(cls, spectrum) -> "CopySource":
        return cls(np.asarray(spectrum, dtype=np.float64), None)

    def rebuild(self, weights: np.ndarray) -> np.ndarray | None:
        """Dense state with the given weights in the stored eigenbasis."""
        if self.vectors is None:
            return None
        return (self.vectors * weights) @ self.vectors.conj().T


@dataclass
class DistillReport:
    distiller: str
    params: dict
    copies_consumed: int
    steps: int
    success: bool
    overlap: float
    output: np.ndarray | None = None
    weights: np.ndarray | None = None   # the output's spectrum, over the input's eigenbasis
    success_probability: float | None = None
    storage_slots: int | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "distiller": self.distiller,
            "params": self.params,
            "copies": self.copies_consumed,
            "steps": self.steps,
            "success": self.success,
            "overlap": self.overlap,
        }
        if self.success_probability is not None:
            payload["success_probability"] = self.success_probability
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Swap test.

def swap_test_spectrum(eigs: np.ndarray) -> tuple[float, np.ndarray]:
    """Success probability p = (1 + tr(rho^2)) / 2 and post-state spectrum
    (rho + rho^2) / (1 + tr(rho^2)) of one swap test on two copies of rho,
    computed on its spectrum (the test preserves the eigenbasis)."""
    eigs = np.asarray(eigs, dtype=np.float64)
    purity = float((eigs**2).sum())
    return (1.0 + purity) / 2.0, (eigs + eigs**2) / (1.0 + purity)


def swap_test_levels(spectrum: np.ndarray, k: int):
    """Spectra and pass probabilities of k successive successful swap tests.

    Returns (levels, p_pass) where levels[i] is the spectrum after i
    successes and p_pass[i] is the probability that the test producing
    level i+1 passes.
    """
    levels = [np.asarray(spectrum, dtype=np.float64)]
    p_pass = []
    for _ in range(k):
        p, nxt = swap_test_spectrum(levels[-1])
        p_pass.append(p)
        levels.append(nxt)
    return levels, p_pass


def swap_test_depth(spectrum: np.ndarray, eps_dist: float) -> int:
    """Fewest successful swap tests that lift the top eigenvalue of a
    descending spectrum to within eps_dist of 1, stepping one level at a time
    and stopping at the first level that qualifies."""
    lam, k = np.asarray(spectrum, dtype=np.float64), 0
    while 1 - lam[0] > eps_dist:
        if k == SWAP_TEST_LEVEL_CAP:
            raise BudgetExceededError("swap-test recursion cannot reach eps_dist")
        _, lam = swap_test_spectrum(lam)
        k += 1
    return k


def sample_swap_test_copies(p_pass, rng: np.random.Generator,
                            trials: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sample (copies, tests) needed for one success at the top level.

    The streaming recursion consumes two fresh level-(i-1) successes per
    attempt at level i, with attempts geometric in the pass probability;
    the totals therefore compose as negative binomials level by level,
    which is sampled here directly (same process law, vectorized). One
    trial draws scalars, which give the same draws as size-1 arrays at a
    twentieth of the cost.

    The attempts at least double per level, so the tests stay below the
    copies, and a copy count past int64 raises ``SizeCapError`` before it
    wraps. As p_pass > 1/2, each draw's mean is below ``need``, so the draw
    itself stays in range.
    """
    scalar = trials == 1
    need = 1 if scalar else np.ones(trials, dtype=np.int64)
    tests = 0
    half = np.iinfo(np.int64).max // 2
    for i in range(len(p_pass) - 1, -1, -1):
        fails = rng.negative_binomial(need, p_pass[i])
        wraps = fails > half - need           # 2 * attempts would wrap
        if wraps if scalar else wraps.any():
            raise SizeCapError("swap-test copy count exceeds int64")
        attempts = need + fails
        tests = tests + attempts
        need = 2 * attempts
    return np.array(need, dtype=np.int64, ndmin=1), np.array(tests, dtype=np.int64, ndmin=1)


def iterated_swap_test(src: CopySource, k: int, rng: np.random.Generator, *,
                       budget: int = DEFAULT_COPY_BUDGET) -> DistillReport:
    """k successful swap-test iterations in the streaming arrangement.

    The output state is the k-th level of the swap-test recursion; the
    streaming schedule stores at most one copy of each intermediate level,
    so storage never exceeds k+1 register slots. Copy and test counters are
    sampled from the exact process law; exceeding the budget is reported as
    a failure with the partial counters. k = 0 passes one copy through and
    draws nothing.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0")
    levels, p_pass = swap_test_levels(src.spectrum, k)
    copies, tests = sample_swap_test_copies(p_pass, rng)
    copies, tests = int(copies[0]), int(tests[0])
    if copies > budget:
        return DistillReport("iterated_swap_test", {"k": k}, budget, tests, False,
                             float(src.spectrum[0]), None,
                             storage_slots=k + 1,
                             extra={"reason": "copy budget exhausted"})
    out = src.rebuild(levels[k])
    return DistillReport("iterated_swap_test", {"k": k}, copies, tests, True,
                         float(levels[k][0]), out, levels[k], storage_slots=k + 1)


# ---------------------------------------------------------------------------
# LMR density matrix exponentiation.

def lmr_step(varsigma, varrho, t: float, *, dim_a: int = 1) -> np.ndarray:
    """One fractional-swap step: couple the trailing system of `varsigma`
    to a fresh copy `varrho` for time t and discard the copy.

    Computed by the four-term closed form
    cos^2 s + i cos sin [s, I_A x r] + sin^2 TrS1[s] x r,
    where the A register occupies the leading (low) indices.
    """
    s = _as_matrix(varsigma)
    r = _as_matrix(varrho)
    d1 = r.shape[0]
    if s.shape[0] % d1 != 0 or s.shape[0] // d1 != dim_a:
        raise DimensionMismatchError("system dimensions do not match")
    ct, st = np.cos(t), np.sin(t)
    full = np.kron(r, np.eye(dim_a))
    traced = np.einsum("iaib->ab", s.reshape(d1, dim_a, d1, dim_a))
    out = ((ct**2) * s + 1j * ct * st * (s @ full - full @ s)
           + (st**2) * np.kron(r, traced))
    return out


# ---------------------------------------------------------------------------
# Per-eigencomponent ancilla evolution of both QPCA variants: the fresh
# copies |1><1| x rho_in enter through one affine step per eigenvalue.

def _component_step_matrix(lam: np.ndarray, t: float) -> np.ndarray:
    """Linear parts of the per-component ancilla update m -> c^2 m +
    i c s lam [m, |1><1|], as 4x4 maps on row-major vec(2x2), one per
    eigenvalue: vec(m K) = (I x K') vec(m) and vec(K m) = (K x I) vec(m)."""
    c2, cs = np.cos(t)**2, np.cos(t) * np.sin(t)
    comm = np.kron(np.eye(2), _KB1.T) - np.kron(_KB1, np.eye(2))
    return c2 * np.eye(4) + 1j * cs * lam[:, None, None] * comm


def _evolve_components(lam: np.ndarray, t: float, r: int):
    """Affine closed form of r LMR steps applied to w * |+><+| per
    component: returns (linear images of |+><+|, constant terms)."""
    l_mat = _component_step_matrix(lam, t)
    l_pow = np.linalg.matrix_power(l_mat, r)
    c = np.sin(t)**2 * lam[:, None] * _KB1.reshape(4)
    # geometric sum (I + L + ... + L^(r-1)) c = (I - L)^-1 (I - L^r) c
    geo = np.linalg.solve(np.eye(4) - l_mat, (np.eye(4) - l_pow) @ c[..., None])[..., 0]
    return l_pow @ np.full(4, 0.5), geo


_PLUS_VEC = np.array([1.0, 1.0]) / np.sqrt(2)
_MINUS_VEC = np.array([1.0, -1.0]) / np.sqrt(2)
_PLUS_I_VEC = np.array([1.0, 1.0j]) / np.sqrt(2)
_MINUS_I_VEC = np.array([1.0, -1.0j]) / np.sqrt(2)


def _measure_probs(mats: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("a,nab,b->n", vec.conj(), mats, vec))


# ---------------------------------------------------------------------------
# Simple QPCA (single postselected phase-discrimination run).

def qpca_simple_parameters(gamma: float, eps_dist: float) -> tuple[int, float]:
    r = int(np.ceil(3 * np.pi**2 * (1 - gamma) / (2 * gamma**3 * eps_dist)))
    t = np.pi / (2 * r * gamma)
    return r, t


def qpca_lambda2_bound(gamma: float, eps_dist: float) -> float:
    return gamma * np.sqrt(8 * gamma * eps_dist / (3 * np.pi**2 * (1 - gamma)))


def qpca_simple(src: CopySource, gamma: float, eps_dist: float, *,
                budget: int = DEFAULT_COPY_BUDGET) -> DistillReport:
    """One run of the ancilla-driven LMR loop with postselection on the
    minus outcome; success probability computed exactly from the final
    state, no sampling."""
    lam = src.spectrum
    if not (gamma <= lam[0] <= 3 * gamma):
        raise PreconditionError("principal eigenvalue outside [gamma, 3 gamma]")
    if eps_dist > 1 - gamma:
        raise PreconditionError("eps_dist must be at most 1 - gamma")
    if len(lam) > 1 and lam[1] > qpca_lambda2_bound(gamma, eps_dist) + 1e-12:
        raise PreconditionError("second eigenvalue above the distillation bound")
    r, t = qpca_simple_parameters(gamma, eps_dist)
    if r + 1 > budget:
        raise BudgetExceededError(f"r+1 = {r + 1} exceeds copy budget {budget}")

    lin, const = _evolve_components(lam, t, r)
    joint = _measure_probs((lam[:, None] * lin + const).reshape(-1, 2, 2), _MINUS_VEC)
    success_prob = float(joint.sum())
    weights = joint / success_prob
    overlap = float(weights[0])
    return DistillReport(
        "qpca_simple",
        {"gamma": gamma, "eps_dist": eps_dist, "r": r, "t": t},
        r + 1, r, True, overlap, src.rebuild(weights), weights,
        success_probability=success_prob, storage_slots=None,
    )


# ---------------------------------------------------------------------------
# Recursive QPCA with iterative eigenvalue filtering.

#: Repetition constant of the one-bit phase discriminator; any estimator
#: meeting the (precision, failure probability) contract is valid here.
CHERNOFF_CONSTANT = 32


def _phase_schedule(gamma: float, alpha: float, eps_dist: float):
    """(epsilon_i, zeta_i) pairs: a coarse doubling phase when gamma < 2/3,
    then a fine halving phase down to eps_dist."""
    schedule = []
    if gamma < 2.0 / 3.0:
        ell_a = int(np.ceil(np.log2(1.0 / (3.0 * gamma)))) + 1
        for i in range(1, ell_a + 1):
            e = 2.0 ** ((1 - i) / 2.0) / 16.0
            schedule.append((e, e))
    if eps_dist <= 1.0 / 3.0:
        ell = max(int(np.ceil(np.log2((1.0 - gamma) / eps_dist))), 1)
        for i in range(1, ell + 1):
            schedule.append((2.0 ** (-4 - ell + i), 2.0 ** (-3 - i)))
    return schedule


def qpca_recursive(src: CopySource, gamma: float, alpha: float,
                   eps_dist: float, rng: np.random.Generator, *,
                   budget: int = DEFAULT_COPY_BUDGET,
                   chernoff: int = CHERNOFF_CONSTANT) -> DistillReport:
    """Iterative eigenvalue filtering via one-bit phase discrimination.

    Each iteration estimates (cos, sin) of the component phases at a single
    evolution time tau = pi / (3 gamma + delta) from repeated Hadamard tests
    (X- then Y-basis ancilla measurements, each repeated
    R = ceil(chernoff ln(2/eps_i) / delta^2) times), accepts when the
    estimate clears the threshold (1+alpha) gamma / 2, and restarts from
    scratch otherwise. The single-time estimator is valid when
    6 gamma + 2 delta > 1, which covers every configuration exercised here.
    """
    lam = src.spectrum
    if lam[0] < gamma - 1e-12:
        raise PreconditionError("principal eigenvalue below gamma")
    if len(lam) > 1 and lam[1] > alpha * gamma + 1e-12:
        raise PreconditionError("second eigenvalue above alpha * gamma")
    if eps_dist >= 1 - gamma:
        raise PreconditionError("eps_dist must be below 1 - gamma")

    delta = (1 - alpha) * gamma / 2.0
    tau = np.pi / (3 * gamma + delta)
    threshold = (1 + alpha) * gamma / 2.0
    schedule = _phase_schedule(gamma, alpha, eps_dist)
    failure_bound = float(sum(eps_i for eps_i, _ in schedule))

    copies = 0
    iterations = 0
    restarts = 0
    phase_estimates: list[float] = []
    weights = lam.copy()
    idx = 0
    while idx < len(schedule):
        eps_i, zeta_i = schedule[idx]
        r_reps = int(np.ceil(chernoff * np.log(2.0 / eps_i) / delta**2))
        total_time = 2 * r_reps * tau
        t_step = zeta_i / (3.0 * total_time)
        r_lmr = int(np.ceil(tau / t_step))
        t_step = tau / r_lmr
        cost = 2 * r_reps * r_lmr
        if copies + cost > budget:
            return DistillReport(
                "qpca_recursive",
                {"gamma": gamma, "alpha": alpha, "eps_dist": eps_dist},
                copies, iterations, False, float(weights[0]), None,
                extra={"reason": "copy budget exhausted", "restarts": restarts,
                       "failure_bound": failure_bound,
                       "phase_estimates": phase_estimates},
            )
        copies += cost
        iterations += 1

        # the ancilla of component k is in w_k lin_k + const_k, so each
        # outcome probability is affine in w: w a + b, one row per outcome
        lin, const = (m.reshape(-1, 2, 2) for m in _evolve_components(lam, t_step, r_lmr))
        w = weights
        estimates = []
        for vecs in ((_PLUS_VEC, _MINUS_VEC), (_PLUS_I_VEC, _MINUS_I_VEC)):
            a, b = (np.stack([_measure_probs(m, v) for v in vecs]) for m in (lin, const))
            counts = 0
            for coin in rng.random(r_reps).tolist():
                p = np.maximum(w * a + b, 0.0)
                total_pos, total_neg = p.sum(axis=1).tolist()
                if coin < total_pos / (total_pos + total_neg):
                    counts += 1
                    w = p[0] / total_pos
                else:
                    w = p[1] / total_neg
            estimates.append(2.0 * counts / r_reps - 1.0)
        cos_est, sin_est = estimates[0], -estimates[1]
        lam_est = (np.angle(cos_est + 1j * sin_est) % (2 * np.pi)) / tau
        phase_estimates.append(float(lam_est))
        if lam_est > threshold:
            weights = w
            idx += 1
        else:
            weights = lam.copy()
            idx = 0
            restarts += 1

    overlap = float(weights[0])
    return DistillReport(
        "qpca_recursive",
        {"gamma": gamma, "alpha": alpha, "eps_dist": eps_dist,
         "chernoff": chernoff},
        copies, iterations, True, overlap, src.rebuild(weights), weights,
        extra={"restarts": restarts, "failure_bound": failure_bound,
               "phase_estimates": phase_estimates},
    )
