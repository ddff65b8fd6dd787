"""Joint detection solver: alternating minimization with per-entry projection
onto the constellation hull.

The solver runs on the Gram matrix of the received block. Preprocessing
builds the scaled iteration matrix either from the exact shifted inverse or
from its cheap two-term series approximation; each iteration
(``iterate_once``) is one matrix-vector product, a scaled clip onto the
hull, and a pilot-slot overwrite. ``iterate`` is the one iteration loop.
When it records a trace it keeps every iterate and, after the last step,
computes the diagnostics of all steps (objective value, gradient residual,
distance to the hull boundary) in one pass over the stacked iterates, as
one ``SolverTrace`` of per-step arrays; they support the convergence test
suites.

Every step takes a stack of blocks with a leading trial axis (``Y`` of
shape (T, B, N), ``G`` of shape (T, N, N), iterates of shape (T, N)), or one
block's arrays without it; the trials of a stack are solved independently.
``solve_stack`` is the one detection pass (on a ``preprocess`` result) and
the entry that checks the caller's blocks; traced runs call ``iterate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError
from .linalg import invert_shifted, neumann_two_term, spectral_norm
from .model import Constellation


@dataclass(frozen=True)
class ProxParams:
    """Solver knobs.

    The shift factor is ``alpha_scale`` times the Gram spectral norm and must
    stay above it, so ``alpha_scale > 1``. The projection gain is the power
    of two ``2**rho_log2`` (a hardware shift). Preprocessing scales the
    iteration matrix so its largest component magnitude is one.
    """

    alpha_scale: float = 2.0
    rho_log2: int = 1
    t_max: int = 5

    def __post_init__(self):
        if self.alpha_scale <= 1.0:
            raise ParameterError("alpha_scale must exceed 1")
        if self.t_max < 1:
            raise ParameterError("t_max must be at least 1")
        if self.rho_log2 < 0:
            raise ParameterError("rho_log2 must be non-negative")

    @property
    def rho(self) -> float:
        return float(2**self.rho_log2)


@dataclass
class PreprocessedMatrix:
    """Scaled iteration matrix plus the quantities needed to reason about it.

    ``gamma * Ghat`` is the raw (unscaled) matrix: the shifted inverse, or
    its two-term series for the ``aprox`` variant. ``gamma`` is the raw
    matrix's largest component magnitude. ``G`` is kept so
    diagnostics can evaluate the objective without the received block. For
    a stack, ``gamma`` and ``alpha`` hold one value per trial.
    """

    Ghat: np.ndarray
    gamma: float | np.ndarray
    alpha: float | np.ndarray
    G: np.ndarray

    def beta(self, rho: float) -> float | np.ndarray:
        """Norm-promotion weight implied by (alpha, gamma, rho).

        Recovered from rho = theta * gamma and theta = alpha / (alpha - beta).
        Can come out non-positive, in which case objective diagnostics are
        not meaningful and callers should skip them.
        """
        return self.alpha * (1.0 - self.gamma / rho)


@dataclass
class SolverTrace:
    """Diagnostics of every iteration, row ``t`` after step ``t + 1``:
    arrays of shape (t_max,) for one block, (t_max, T) for a stack."""

    objective: np.ndarray
    grad_residual: np.ndarray
    boundary_gap: np.ndarray


@dataclass
class SolverState:
    s_cur: np.ndarray
    q_cur: np.ndarray
    trace: SolverTrace | None = None


@dataclass
class SolveResult:
    """Hard decisions ``s_hat`` and channel estimates ``h_hat`` of one
    detection pass, by the solver or by a baseline."""

    s_hat: np.ndarray
    h_hat: np.ndarray


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for one matrix and vector or for stacks of them."""
    return (A @ v[..., None])[..., 0]


def preprocess(G: np.ndarray, params: ProxParams, approx: bool = False) -> PreprocessedMatrix:
    """Build the scaled iteration matrix from the exact shifted inverse, or
    with ``approx`` from its two-term series; a Gram matrix of zero
    spectral norm gets the identity."""
    G = np.ascontiguousarray(G, dtype=np.complex128)
    norm = spectral_norm(G)
    alpha = params.alpha_scale * norm
    zero = norm == 0.0
    shift = np.where(zero, 1.0, alpha)  # zero-norm trials get the identity below
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
    re = np.clip(v.real, -c.re_bound, c.re_bound)
    if c.im_bound == 0.0:
        return re.astype(np.complex128)
    return re + 1j * np.clip(v.imag, -c.im_bound, c.im_bound)


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
    state: SolverState,
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
) -> SolverState:
    """One solver step: matrix-vector product, scaled hull clip, pilot pin."""
    q_tilde = _matvec(pre.Ghat, state.s_cur)
    s_new = _clip_to_hull(params.rho * q_tilde, c)
    s_new[..., 0] = c.points[0]
    q = np.asarray(pre.gamma)[..., None] * q_tilde
    return SolverState(s_cur=s_new, q_cur=q)


def iterate(
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
    record_trace: bool = True,
) -> SolverState:
    """``params.t_max`` solver steps from the matched-filter start.

    With ``record_trace`` the iterates are kept, and after the last step the
    diagnostics of every step are computed in one pass over them into the
    state's ``SolverTrace``; without it the trace is None. The objective is
    NaN for trials whose reconstructed weight beta is outside (0, alpha)."""
    state = SolverState(s_cur=init_s(pre.G, c), q_cur=np.zeros_like(pre.G[..., 0]))
    if record_trace:
        s_all = np.empty((params.t_max + 1,) + state.s_cur.shape, dtype=np.complex128)
        q_all = np.empty_like(s_all[1:])
        s_all[0] = state.s_cur
    for t in range(params.t_max):
        state = iterate_once(state, pre, c, params)
        if record_trace:
            s_all[t + 1], q_all[t] = state.s_cur, state.q_cur
    if record_trace:
        s_prev, s_new = s_all[:-1], s_all[1:]
        grad_residual = pre.alpha * np.linalg.norm(s_prev - s_new, axis=-1)
        beta = pre.beta(params.rho)
        valid = (0.0 < beta) & (beta < pre.alpha)
        obj = np.where(valid, objective(q_all, s_new, pre.G, pre.alpha, beta), np.nan)
        state.trace = SolverTrace(obj, grad_residual, _boundary_gap(s_new, c))
    return state


def hard_decision(s: np.ndarray, c: Constellation) -> np.ndarray:
    """Per-entry nearest constellation point, sliced by sign as in the
    fixed-point datapath (``Constellation.decide``): a value on an axis
    goes to the point on its positive side."""
    s = np.asarray(s, dtype=np.complex128)
    return c.decide(s.real, s.imag)


def channel_estimate(Y: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from a detected symbol vector."""
    energy = np.linalg.norm(s_hat, axis=-1) ** 2
    if np.any(energy == 0.0):
        raise DegenerateInputError("cannot estimate a channel from a zero symbol vector")
    return _matvec(np.asarray(Y), s_hat) / energy[..., None]


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


def solve_stack(
    Y: np.ndarray,
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
) -> SolveResult:
    """Full detection pass over a stack of blocks (or one block) on their
    ``preprocess`` result (of either variant): initialize, iterate, slice,
    and re-estimate each channel from its hard decisions.

    A non-finite ``Y`` is a ``ParameterError``; Gram matrices ``pre.G``
    whose shape is not one (N, N) matrix per block of N slots are a
    ``DimensionError``.
    """
    Y = np.asarray(Y)
    if not np.all(np.isfinite(Y)):
        raise ParameterError("received block has a non-finite entry")
    shape = np.shape(pre.G)
    if Y.ndim < 2 or shape != Y.shape[:-2] + 2 * Y.shape[-1:]:
        raise DimensionError(f"Gram matrices of shape {shape} for blocks of shape {Y.shape}")
    state = iterate(pre, c, params, record_trace=False)
    s_hat = hard_decision(state.s_cur, c)
    s_hat[..., 0] = c.points[0]
    return SolveResult(s_hat=s_hat, h_hat=channel_estimate(Y, s_hat))
