"""Reference detectors and the exhaustive maximum-likelihood oracle.

All detectors report the first slot as the known pilot ``c.points[0]``, so
error counting is comparable across methods; errors are only ever counted on
slots 2..K+1. Every detector and the downlink evaluation take one block's
arrays or a stack of them with a leading trial axis, and treat the trials
independently. Every detector returns decisions only, as both solver
passes do: ``mrc`` combines the received block ``Y`` (B, K+1) with a
channel it is given, the true one or ``chest_pilot``'s estimate, and the
ML oracle takes the block's Gram matrix. A sweep chooses each method's
channel estimate in one place; for the oracle it is
``prox.channel_estimate(Y, s_hat)``, which is where ``Y`` meets the
decisions. Nothing here draws randoms: the downlink evaluation takes its
``model.DownlinkDraws`` from ``model.draw_blocks``, which owns the whole
stream layout.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DegenerateInputError, ParameterError
from .linalg import _require_square, check_finite
from .model import Constellation, DownlinkDraws, check_int
from .prox import hard_decision

ML_JED_BUDGET = 2**20  # the most candidates ml_jed_exhaustive enumerates
_ENUM_CHUNK = 1 << 14


def chest_pilot(Y: np.ndarray, c: Constellation) -> np.ndarray:
    """Channel estimate from the pilot ``c.points[0]`` in the first slot.

    The first received column is h times the conjugated pilot, so
    multiplying by the pilot itself recovers h exactly when noise-free.
    """
    return Y[..., :, 0] * c.points[0] / c.sigma**2


def mrc(Y: np.ndarray, h: np.ndarray, c: Constellation) -> np.ndarray:
    """Matched-filter combining with the channel ``h`` (B,), the true one or
    an estimate such as ``chest_pilot(Y, c)``, then slicing each slot; slot 1
    is reported as the pilot ``c.points[0]``. Returns the decisions.

    The combined statistic is (y_k^H h)/|h|^2, which equals s_k noise-free
    (the received block carries conjugated symbols). A non-finite ``Y`` or
    ``h`` is a ``ParameterError``, and a zero channel a
    ``DegenerateInputError``.
    """
    Y = check_finite(Y, "received block")
    h = check_finite(np.asarray(h, dtype=complex), "channel")
    energy = np.linalg.norm(h, axis=-1) ** 2
    if np.any(energy == 0.0):
        raise DegenerateInputError("zero channel vector")
    z = (Y.conj().swapaxes(-1, -2) @ h[..., None])[..., 0] / energy[..., None]
    s_hat = hard_decision(z, c)
    s_hat[..., 0] = c.points[0]
    return s_hat


def _enumerate_slots(c: Constellation, K: int, start: int, cands: np.ndarray, slots) -> None:
    """Write ``slots`` (of 1..K) of the candidate symbol vectors with
    enumeration indices start, start+1, ... into the columns of ``cands``
    (one row per slot).

    Index digits are read most-significant-first into slots 1..K, so
    ascending indices enumerate candidates in lexicographic order over the
    canonical point ordering.
    """
    m = len(c.points)
    idx = np.arange(start, start + cands.shape[1], dtype=np.int64)
    for k in slots:
        np.take(c.points, (idx // m ** (K - k)) % m, out=cands[k])


def check_ml_budget(c: Constellation, K: int) -> int:
    """The m^K candidates ``ml_jed_exhaustive`` enumerates for K data slots
    of ``c``; a ``CapacityError`` beyond ``ML_JED_BUDGET``."""
    total = len(c.points) ** check_int(K, "K")
    if total > ML_JED_BUDGET:
        raise CapacityError(
            f"{len(c.points)}^{K} = {total} candidates exceeds the budget of {ML_JED_BUDGET}; "
            "reduce K or use BPSK"
        )
    return total


def ml_jed_exhaustive(G: np.ndarray, c: Constellation) -> np.ndarray:
    """Exact joint-detection oracle on a stack of blocks' Gram matrices
    (T, N, N), or on one block's (N, N): enumerate every symbol vector with
    the pinned first slot and keep the one with the largest received-energy
    correlation. Ties go to the first candidate in lexicographic order.
    Returns the decisions, one row per trial, as both solver passes do.

    The energy |Yx|^2 = x^H G x is scored from ``G`` alone. Every slot of
    every candidate has the same modulus, so the diagonal terms are the
    same for all candidates of a trial and only Re sum_{i<j} conj(x_i) G_ij
    x_j is compared: one real matrix product of the stack's upper triangles
    with the pair products of each candidate chunk. Real candidates (BPSK)
    need only Re G. A ``G`` that is empty or not square is a
    ``DimensionError``, and a non-finite one a ``ParameterError``, before
    any candidate is scored.
    """
    G = _require_square(G)
    K = G.shape[-1] - 1
    m = len(c.points)
    total = check_ml_budget(c, K)
    iu, ju = np.triu_indices(K + 1, 1)
    upper = G.reshape(-1, K + 1, K + 1)[:, iu, ju]
    real = not np.any(c.points.imag)
    # Re(G_ij p) = Re G_ij Re p - Im G_ij Im p, as one real product.
    upper = upper.real.copy() if real else np.concatenate([upper.real, -upper.imag], axis=1)
    row_start = np.concatenate([[0], np.cumsum(np.arange(K, 0, -1))])
    # The last `low` digits of the enumeration index cycle with a period
    # that divides the chunk size, so their candidate rows, and the pair
    # rows among them (the tail of the slot-major pair order), are the same
    # in every chunk and are built once; only slots 1..fixed-1 change.
    low = 0
    while low < K and _ENUM_CHUNK % m ** (low + 1) == 0:
        low += 1
    fixed = K + 1 - low
    cands = np.empty((K + 1, min(_ENUM_CHUNK, total)), dtype=np.complex128)
    cands[0] = c.points[0]
    _enumerate_slots(c, K, 0, cands, range(fixed, K + 1))
    x = cands.real if real else cands
    pairs = np.empty((len(iu), cands.shape[1]), dtype=x.dtype)

    def pair_rows(slots, n):
        for i in slots:
            rows = pairs[row_start[i] : row_start[i + 1], :n]
            np.multiply(x[i, :n].conj(), x[i + 1 :, :n], out=rows)

    pair_rows(range(fixed, K), cands.shape[1])
    trials = np.arange(len(upper))
    best_val = np.full(len(upper), -np.inf)
    best_vec = np.empty((len(upper), K + 1), dtype=np.complex128)
    for start in range(0, total, _ENUM_CHUNK):
        n = min(_ENUM_CHUNK, total - start)
        _enumerate_slots(c, K, start, cands[:, :n], range(1, fixed))
        pair_rows(range(min(fixed, K)), n)
        chunk = pairs[:, :n] if real else np.concatenate([pairs[:, :n].real, pairs[:, :n].imag])
        vals = upper @ chunk
        local = np.argmax(vals, axis=1)
        top = vals[trials, local]
        better = top > best_val
        best_val[better] = top[better]
        best_vec[better] = cands[:, local[better]].T
    return best_vec.reshape(G.shape[:-2] + (K + 1,))


def downlink_ser(
    h: np.ndarray,
    h_hat: np.ndarray,
    c: Constellation,
    n0: float | np.ndarray,
    draws: DownlinkDraws,
) -> float | np.ndarray:
    """Error rate of beamformed downlink transmission through the reciprocal
    (transposed) channel; one rate per trial for a stack.

    The beam is the normalized conjugate of the channel estimate. The
    receiver learns the composite gain from one known reference symbol (the
    pilot ``c.points[0]``), which also removes any global phase
    rotation of the estimate, then slices the data symbols of ``draws``
    (drawn by ``model.draw_blocks``). A zero composite-gain estimate loses every
    symbol. The noise variance ``n0`` is one value for every trial, or one
    value per trial of the draws' trial axis. A non-finite ``h`` or
    ``h_hat`` is a ``ParameterError``.
    """
    n0 = np.asarray(n0, dtype=np.float64)
    if n0.shape not in ((), draws.data.shape[-2:-1]):
        raise ParameterError(
            f"noise variances of shape {n0.shape} for downlink draws of shape {draws.data.shape}"
        )
    if not np.all(np.isfinite(n0)) or np.any(n0 < 0):
        raise ParameterError("noise variance must be finite and non-negative")
    h_hat = check_finite(np.asarray(h_hat, dtype=complex), "channel estimate")
    h = check_finite(np.asarray(h, dtype=complex), "channel")
    norm = np.linalg.norm(h_hat, axis=-1)
    if np.any(norm == 0.0):
        raise DegenerateInputError("zero channel estimate")
    w = np.conj(h_hat) / norm[..., None]
    g = np.sum(h * w, axis=-1)
    scale = np.sqrt(n0 / 2.0)

    pilot = c.points[0]
    z_ref = g * pilot + scale * (draws.ref_noise[..., 0] + 1j * draws.ref_noise[..., 1])
    g_hat = z_ref * np.conj(pilot) / c.sigma**2
    lost = g_hat == 0.0

    n = draws.data.shape[-1]
    noise = np.empty(draws.data.shape, dtype=np.complex128)
    np.multiply(scale[..., None], draws.noise[..., :n], out=noise.real)
    np.multiply(scale[..., None], draws.noise[..., n:], out=noise.imag)
    z = g[..., None] * c.points[draws.data]
    z += noise
    z /= np.where(lost, 1.0, g_hat)[..., None]
    errors = c.decide_index(z.real, z.imag) != draws.data
    return np.where(lost, 1.0, np.mean(errors, axis=-1))[()]
