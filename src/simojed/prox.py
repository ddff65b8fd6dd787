"""Joint detection solver: alternating minimization with per-entry projection
onto the constellation hull.

The solver runs on the Gram matrix of the received block, through the
scaled iteration matrix that ``preprocess`` builds from the exact shifted
inverse or its two-term series. A step (``iterate_once``) is one
matrix-vector product, a scaled hull clip and a pilot pin; it returns the
new iterate and the scaled product. ``iterate``, the one loop, stops once
the whole stack's iterate repeats word for word, as every later step
would. A traced run then scales the kept products into the unscaled
iterate and computes every step's diagnostics (objective, gradient
residual, hull-boundary gap) in one pass.

Every step takes a stack of blocks with a leading trial axis (``Y`` of
shape (T, B, N), ``G`` of shape (T, N, N), iterates of shape (T, N)), or one
block's arrays without it; the trials of a stack are solved independently.
The solver sees the received block only through ``G``: ``solve_stack``
(``(pre, c, params) -> decisions``, as ``fxp.solve_fixed_stack``) is the
detection pass of sweeps and the tuner, and ``channel_estimate`` is where
a received block meets the decisions and is checked. The detectors of
``baselines`` return decisions only too. The verify suites call
``iterate`` and ``iterate_once`` on blocks they drew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError
from .linalg import check_finite, invert_shifted, neumann_two_term
from .model import Constellation, check_int, check_real


@dataclass(frozen=True)
class ProxParams:
    """Solver knobs.

    The shift factor is ``alpha_scale`` times the Gram spectral norm and must
    stay above it, so ``alpha_scale`` is finite and above 1. The projection
    gain is ``2**rho_log2`` (a hardware shift). ``rho_log2 >= 0`` and
    ``t_max >= 1`` are integers. Every field is kept as a Python number.
    Preprocessing scales the iteration matrix so its largest component
    magnitude is one.
    """

    alpha_scale: float = 2.0
    rho_log2: int = 1
    t_max: int = 5

    def __post_init__(self):
        object.__setattr__(self, "alpha_scale", check_real(self.alpha_scale, "alpha_scale"))
        if not 1.0 < self.alpha_scale < np.inf:
            raise ParameterError(f"alpha_scale must be finite and exceed 1, not {self.alpha_scale}")
        object.__setattr__(self, "rho_log2", check_int(self.rho_log2, "rho_log2"))
        object.__setattr__(self, "t_max", check_int(self.t_max, "t_max", 1))

    @property
    def rho(self) -> float:
        return float(2**self.rho_log2)


@dataclass
class PreprocessedMatrix:
    """Scaled iteration matrix plus the quantities needed to reason about it.

    ``gamma * Ghat`` is the raw (unscaled) matrix: the shifted inverse, or
    its two-term series for the ``aprox`` variant. ``gamma`` is the raw
    matrix's largest component magnitude. ``G`` is kept so diagnostics can
    evaluate the objective without the received block. For a stack,
    ``gamma`` holds one value per trial, ``alpha`` what was given.
    """

    Ghat: np.ndarray
    gamma: float | np.ndarray
    alpha: float | np.ndarray
    G: np.ndarray

    def beta(self, rho: float) -> float | np.ndarray:
        """Norm-promotion weight implied by (alpha, gamma, rho).

        Recovered from rho = theta * gamma and theta = alpha / (alpha - beta).
        Outside (0, alpha) the objective is not meaningful: ``iterate``'s
        trace gives NaN for it there.
        """
        return self.alpha * (1.0 - self.gamma / rho)


@dataclass
class SolverTrace:
    """Diagnostics of every iteration, row ``t`` after step ``t + 1``:
    arrays of shape (t_max,) for one block, (t_max, T) for a stack. Rows
    past the last step run repeat its row, as those steps would."""

    objective: np.ndarray
    grad_residual: np.ndarray
    boundary_gap: np.ndarray


@dataclass
class SolverState:
    """What ``iterate`` returns: the final iterate ``s_cur``, the number of
    steps run and, when recorded, the trace."""

    s_cur: np.ndarray
    steps: int
    trace: SolverTrace | None = None


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for one matrix and vector or for stacks of them."""
    return (A @ v[..., None])[..., 0]


def preprocess(G: np.ndarray, alpha, approx: bool = False) -> PreprocessedMatrix:
    """The scaled iteration matrix for shift factors ``alpha``, a scalar or one
    per matrix (normally ``alpha_scale * spectral_norm(G)``): from the exact
    shifted inverse, or with ``approx`` its two-term series; a zero shift gives I."""
    G = np.ascontiguousarray(G, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.float64)[()]
    zero = alpha == 0.0
    shift = np.where(zero, 1.0, alpha)  # zero-shift matrices get the identity below
    raw = (neumann_two_term if approx else invert_shifted)(G, shift)
    raw[zero] = np.eye(G.shape[-1])
    # The largest magnitude among the real and imaginary components.
    gamma = np.max(np.abs(raw.view(np.float64)), axis=(-2, -1))
    raw /= gamma[..., None, None]
    return PreprocessedMatrix(Ghat=raw, gamma=gamma, alpha=alpha, G=G)


def init_s(G: np.ndarray, c: Constellation) -> np.ndarray:
    """Matched-filter start: the pilot-row correlations normalized by the
    pilot-slot energy, times the pilot ``c.points[0]``."""
    G = np.asarray(G, dtype=np.complex128)
    n = G.shape[-1]
    g00 = G[..., 0, 0].real
    threshold = 1e-12 * np.trace(G, axis1=-2, axis2=-1).real / n
    if np.any(g00 <= threshold):
        raise DegenerateInputError("no received energy in the pilot slot")
    return c.points[0] * G[..., :, 0] / g00[..., None]


def _clip_to_hull(v: np.ndarray, c: Constellation) -> np.ndarray:
    """``v``, a fresh complex array, clipped in place on its interleaved real
    view by one bound (QPSK's two are equal); BPSK's imaginary parts become +0.0."""
    parts = v.view(np.float64)
    if c.im_bound == 0.0:
        re = parts[..., ::2]
        re.clip(-c.re_bound, c.re_bound, out=re)
        v.imag = 0.0
    elif not parts.clip(-c.re_bound, c.re_bound, out=parts).all():
        # Zeros take the signs that complex arithmetic gives re + 1j * im.
        v += 0.0 * v.imag
    return v


def hull_gaps(s: np.ndarray, c: Constellation) -> np.ndarray:
    """Per-entry distance to the hull boundary (BPSK reads the real part
    only)."""
    if c.im_bound == 0.0:
        return c.re_bound - np.abs(s.real)
    return c.re_bound - np.maximum(np.abs(s.real), np.abs(s.imag))


def _boundary_gap(s: np.ndarray, c: Constellation) -> np.ndarray:
    """Distance of the entry closest to the hull boundary, pilot excluded."""
    if s.shape[-1] < 2:
        return np.zeros(s.shape[:-1])
    return np.min(hull_gaps(s[..., 1:], c), axis=-1)


def iterate_once(
    s: np.ndarray,
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One solver step from the iterate ``s``: matrix-vector product, scaled
    hull clip, pilot pin. Returns the new iterate and the scaled product
    ``q_tilde``; the unscaled iterate is ``pre.gamma * q_tilde``."""
    q_tilde = _matvec(pre.Ghat, s)
    s_new = _clip_to_hull(params.rho * q_tilde, c)
    s_new[..., 0] = c.points[0]
    return s_new, q_tilde


def iterate(
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
    record_trace: bool = True,
) -> SolverState:
    """Up to ``params.t_max`` solver steps from the matched-filter start;
    ``steps`` in the state counts those run. The loop stops after the first
    step whose iterate repeats the one before it word for word over the
    whole stack, as every later step would.

    With ``record_trace`` the state's ``SolverTrace`` holds the diagnostics
    of the steps run, computed in one pass after the loop, its last row
    repeated up to ``t_max`` rows; the objective is NaN for trials whose
    reconstructed weight beta is outside (0, alpha). Without it the trace
    is None."""
    s_cur = init_s(pre.G, c)
    if record_trace:
        s_all = np.empty((params.t_max + 1,) + s_cur.shape, dtype=np.complex128)
        q_all = np.empty_like(s_all[1:])
        s_all[0] = s_cur
    for steps in range(1, params.t_max + 1):
        s_new, q_tilde = iterate_once(s_cur, pre, c, params)
        if record_trace:
            s_all[steps], q_all[steps - 1] = s_new, q_tilde
        if s_new.tobytes() == s_cur.tobytes():
            break
        s_cur = s_new
    if not record_trace:
        return SolverState(s_cur, steps)
    # Only the rows run are scaled: the others hold whatever np.empty left.
    q = np.asarray(pre.gamma)[..., None] * q_all[:steps]
    s_prev, s_new = s_all[:steps], s_all[1 : steps + 1]
    grad_residual = pre.alpha * np.linalg.norm(s_prev - s_new, axis=-1)
    beta = pre.beta(params.rho)
    valid = (0.0 < beta) & (beta < pre.alpha)
    obj = np.where(valid, objective(q, s_new, pre.G, pre.alpha, beta), np.nan)
    rows = np.minimum(np.arange(params.t_max), steps - 1)
    trace = SolverTrace(obj[rows], grad_residual[rows], _boundary_gap(s_new, c)[rows])
    return SolverState(s_cur, steps, trace)


def hard_decision(s: np.ndarray, c: Constellation) -> np.ndarray:
    """Per-entry nearest constellation point, sliced by sign as in the
    fixed-point datapath (``Constellation.decide``): a value on an axis
    goes to the point on its positive side."""
    s = np.asarray(s, dtype=np.complex128)
    return c.decide(s.real, s.imag)


def channel_estimate(Y: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate of each block of ``Y`` (B, K+1), or of a
    stack (T, B, K+1), from its detected symbol vector: where a received
    block meets the decisions. A non-finite ``Y`` is a ``ParameterError``;
    decisions that are not one (K+1,) vector per block are a
    ``DimensionError``."""
    Y = check_finite(Y, "received block")
    if Y.ndim < 2 or np.shape(s_hat) != Y.shape[:-2] + Y.shape[-1:]:
        raise DimensionError(f"decisions of shape {np.shape(s_hat)} for blocks of shape {Y.shape}")
    energy = np.linalg.norm(s_hat, axis=-1) ** 2
    if np.any(energy == 0.0):
        raise DegenerateInputError("cannot estimate a channel from a zero symbol vector")
    return _matvec(Y, s_hat) / energy[..., None]


def objective(
    q: np.ndarray,
    s: np.ndarray,
    G: np.ndarray,
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
) -> float | np.ndarray:
    """Relaxed-problem objective -|Yq|^2/2 + alpha|q-s|^2/2 - beta|s|^2/2,
    with |Yq|^2 taken from the Gram matrix G = Y^H Y."""
    q = np.asarray(q, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    return (
        -0.5 * np.sum((q.conj() * _matvec(np.asarray(G), q)).real, axis=-1)
        + 0.5 * alpha * np.linalg.norm(q - s, axis=-1) ** 2
        - 0.5 * beta * np.linalg.norm(s, axis=-1) ** 2
    )


def solve_stack(pre: PreprocessedMatrix, c: Constellation, params: ProxParams) -> np.ndarray:
    """Float detection pass over the ``preprocess`` result of a stack of
    blocks' Gram matrices (T, N, N), or of one block's (N, N): iterate
    without a trace and slice. Returns the detected symbol vectors, one row
    per trial, as ``fxp.solve_fixed_stack`` does in fixed point.
    """
    return hard_decision(iterate(pre, c, params, record_trace=False).s_cur, c)
