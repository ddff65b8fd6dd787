"""Joint detection solver: alternating minimization with per-entry projection
onto the constellation hull.

The solver runs on the Gram matrix of the received block. Preprocessing
builds the scaled iteration matrix either from the exact shifted inverse or
from its cheap two-term series approximation; each iteration is one
matrix-vector product, a scaled clip onto the hull, and a pilot-slot
overwrite. Per-iteration diagnostics (objective value, gradient residual,
distance to the hull boundary) support the convergence test suites.

Every step takes one block's arrays or a stack of them with a leading trial
axis (``Y`` of shape (T, B, N), ``G`` of shape (T, N, N), iterates of shape
(T, N)); the trials of a stack are solved independently. ``solve_stack`` is
the one detection loop, and ``solve`` runs it on a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .linalg import invert_shifted, neumann_two_term, spectral_norm
from .model import Constellation, ReceivedBlock

MODE_EXACT = "exact"
MODE_APPROX = "approx"
GAMMA_MAX_ABS = "max_abs"


@dataclass(frozen=True)
class ProxParams:
    """Solver knobs.

    The shift factor is ``alpha_scale`` times the Gram spectral norm and must
    stay above it, so ``alpha_scale > 1``. The projection gain is the power
    of two ``2**rho_log2`` (a hardware shift). ``gamma_rule`` is either
    ``"max_abs"`` (scale the iteration matrix so its largest component
    magnitude is one) or a fixed positive number.
    """

    alpha_scale: float = 2.0
    rho_log2: int = 1
    t_max: int = 5
    mode: str = MODE_EXACT
    gamma_rule: str | float = GAMMA_MAX_ABS

    def __post_init__(self):
        if self.alpha_scale <= 1.0:
            raise ParameterError("alpha_scale must exceed 1")
        if self.t_max < 1:
            raise ParameterError("t_max must be at least 1")
        if self.rho_log2 < 0:
            raise ParameterError("rho_log2 must be non-negative")
        if self.mode not in (MODE_EXACT, MODE_APPROX):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not isinstance(self.gamma_rule, str):
            if self.gamma_rule <= 0:
                raise ParameterError("fixed gamma must be positive")
        elif self.gamma_rule != GAMMA_MAX_ABS:
            raise ParameterError(f"unknown gamma rule {self.gamma_rule!r}")

    @property
    def rho(self) -> float:
        return float(2**self.rho_log2)


@dataclass
class PreprocessedMatrix:
    """Scaled iteration matrix plus the quantities needed to reason about it.

    ``gamma * Ghat`` is the raw (unscaled) matrix; in exact mode that is the
    shifted inverse, in approx mode the two-term series. ``G`` is kept so
    diagnostics can evaluate the objective without the received block. For
    a stack, ``gamma`` and ``alpha`` hold one value per trial.
    """

    Ghat: np.ndarray
    gamma: float | np.ndarray
    alpha: float | np.ndarray
    mode: str
    G: np.ndarray

    def beta(self, rho: float) -> float | np.ndarray:
        """Norm-promotion weight implied by (alpha, gamma, rho).

        Recovered from rho = theta * gamma and theta = alpha / (alpha - beta).
        Can come out non-positive, in which case objective diagnostics are
        not meaningful and callers should skip them.
        """
        return self.alpha * (1.0 - self.gamma / rho)


@dataclass
class IterationRecord:
    """Diagnostics after one iteration; arrays of one value per trial for a
    stack."""

    objective: float | np.ndarray
    grad_residual: float | np.ndarray
    boundary_gap: float | np.ndarray


@dataclass
class SolverState:
    s_cur: np.ndarray
    q_cur: np.ndarray
    iter: int = 0
    trace: list[IterationRecord] = field(default_factory=list)


@dataclass
class SolveResult:
    s_hat: np.ndarray
    h_hat: np.ndarray
    state: SolverState


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for one matrix and vector or for stacks of them."""
    return (A @ v[..., None])[..., 0]


def preprocess(G: np.ndarray, params: ProxParams) -> PreprocessedMatrix:
    """Build the scaled iteration matrix for the requested mode; a Gram
    matrix of zero spectral norm gets the identity."""
    G = np.asarray(G, dtype=np.complex128)
    norm = spectral_norm(G)
    alpha = params.alpha_scale * norm
    zero = norm == 0.0
    shift = np.where(zero, 1.0, alpha)  # zero-norm trials get the identity below
    if params.mode == MODE_EXACT:
        raw = invert_shifted(G, shift)
    else:
        raw = neumann_two_term(G, shift)
    raw = np.where(zero[..., None, None], np.eye(G.shape[-1]), raw)
    if params.gamma_rule == GAMMA_MAX_ABS:
        gamma = np.max(np.maximum(np.abs(raw.real), np.abs(raw.imag)), axis=(-2, -1))
    else:
        gamma = np.full(np.shape(norm), float(params.gamma_rule))[()]
    return PreprocessedMatrix(
        Ghat=raw / gamma[..., None, None], gamma=gamma, alpha=alpha, mode=params.mode, G=G
    )


def init_s(G: np.ndarray, s_check: complex) -> np.ndarray:
    """Matched-filter start: the pilot-row correlations normalized by the
    pilot-slot energy."""
    G = np.asarray(G, dtype=np.complex128)
    n = G.shape[-1]
    g00 = G[..., 0, 0].real
    threshold = 1e-12 * np.trace(G, axis1=-2, axis2=-1).real / n
    if np.any(g00 <= threshold):
        raise DegenerateInputError("no received energy in the pilot slot")
    return s_check * G[..., :, 0] / g00[..., None]


def _clip_to_hull(v: np.ndarray, c: Constellation) -> np.ndarray:
    re = np.clip(v.real, -c.re_bound, c.re_bound)
    if c.im_bound == 0.0:
        return re.astype(np.complex128)
    return re + 1j * np.clip(v.imag, -c.im_bound, c.im_bound)


def _boundary_gap(s: np.ndarray, c: Constellation) -> float | np.ndarray:
    """Distance of the entry closest to the hull boundary, pilot excluded."""
    if s.shape[-1] < 2:
        return np.zeros(s.shape[:-1])[()]
    body = s[..., 1:]
    if c.im_bound == 0.0:
        gaps = c.re_bound - np.abs(body.real)
    else:
        gaps = c.re_bound - np.maximum(np.abs(body.real), np.abs(body.imag))
    return np.min(gaps, axis=-1)


def iterate_once(
    state: SolverState,
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
    s_check: complex,
    record_trace: bool = True,
) -> SolverState:
    """One solver step: matrix-vector product, scaled hull clip, pilot pin."""
    s_prev = state.s_cur
    q_tilde = _matvec(pre.Ghat, s_prev)
    s_new = _clip_to_hull(params.rho * q_tilde, c)
    s_new[..., 0] = s_check
    q = np.asarray(pre.gamma)[..., None] * q_tilde
    trace = state.trace
    if record_trace:
        grad_residual = pre.alpha * np.linalg.norm(s_prev - s_new, axis=-1)
        beta = pre.beta(params.rho)
        valid = (0.0 < beta) & (beta < pre.alpha)
        obj = np.where(valid, objective(q, s_new, pre.G, pre.alpha, beta), np.nan)[()]
        trace = trace + [IterationRecord(obj, grad_residual, _boundary_gap(s_new, c))]
    return SolverState(s_cur=s_new, q_cur=q, iter=state.iter + 1, trace=trace)


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
    c: Constellation | None = None,
) -> float | np.ndarray:
    """Relaxed-problem objective -|Yq|^2/2 + alpha|q-s|^2/2 - beta|s|^2/2,
    with |Yq|^2 taken from the Gram matrix G = Y^H Y; +inf when s leaves
    the hull (checked when a constellation is supplied)."""
    q = np.asarray(q, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    value = (
        -0.5 * np.sum((q.conj() * _matvec(np.asarray(G), q)).real, axis=-1)
        + 0.5 * alpha * np.linalg.norm(q - s, axis=-1) ** 2
        - 0.5 * beta * np.linalg.norm(s, axis=-1) ** 2
    )
    if c is not None:
        tol = 1e-9
        outside = (np.abs(s.real) > c.re_bound + tol) | (np.abs(s.imag) > c.im_bound + tol)
        value = np.where(np.any(outside, axis=-1), np.inf, value)[()]
    return value


def solve_stack(
    Y: np.ndarray,
    G: np.ndarray | PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
    s_check: complex | None = None,
    record_trace: bool = True,
) -> SolveResult:
    """Full detection pass over a stack of blocks (or one block): preprocess,
    initialize, iterate, slice, and re-estimate each channel from its hard
    decisions. ``G`` holds the Gram matrices of ``Y``, or their
    ``preprocess(G, params)`` result, which is then used as given."""
    s_check = c.points[0] if s_check is None else s_check
    pre = G if isinstance(G, PreprocessedMatrix) else preprocess(G, params)
    state = SolverState(s_cur=init_s(pre.G, s_check), q_cur=np.zeros_like(pre.G[..., 0]))
    for _ in range(params.t_max):
        state = iterate_once(state, pre, c, params, s_check, record_trace=record_trace)
    s_hat = hard_decision(state.s_cur, c)
    s_hat[..., 0] = s_check
    return SolveResult(s_hat=s_hat, h_hat=channel_estimate(Y, s_hat), state=state)


def solve(
    block: ReceivedBlock,
    c: Constellation,
    params: ProxParams,
    s_check: complex | None = None,
    record_trace: bool = True,
) -> SolveResult:
    """``solve_stack`` on one block."""
    return solve_stack(block.Y, block.G, c, params, s_check, record_trace)
