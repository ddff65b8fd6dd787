"""Reference detectors and the exhaustive maximum-likelihood oracle.

All detectors report the first slot as the known pilot ``c.points[0]``, so
error counting is comparable across methods; errors are only ever counted on
slots 2..K+1. Every detector and the downlink evaluation take one block's
arrays (``Y`` of shape (B, K+1), channels of shape (B,)) or a stack of them
with a leading trial axis, and treat the trials independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DegenerateInputError, ParameterError
from .linalg import gram
from .model import Constellation
from .prox import channel_estimate, hard_decision

ML_JED_DEFAULT_BUDGET = 2**20
_ENUM_CHUNK = 1 << 14


@dataclass
class DetectionResult:
    s_hat: np.ndarray
    h_hat: np.ndarray | None


def _mrc_slice(Y: np.ndarray, h: np.ndarray, c: Constellation) -> np.ndarray:
    """Matched-filter combine and slice each slot; slot 1 is reported as the
    pilot ``c.points[0]``.

    The combined statistic is (y_k^H h)/|h|^2, which equals s_k noise-free
    (the received block carries conjugated symbols).
    """
    energy = np.linalg.norm(h, axis=-1) ** 2
    if np.any(energy == 0.0):
        raise DegenerateInputError("zero channel vector")
    z = (Y.conj().swapaxes(-1, -2) @ h[..., None])[..., 0] / energy[..., None]
    s_hat = hard_decision(z, c)
    s_hat[..., 0] = c.points[0]
    return s_hat


def mrc_csir(Y: np.ndarray, h: np.ndarray, c: Constellation) -> DetectionResult:
    """Combining with the true channel (perfect receive-side CSI)."""
    h = np.asarray(h, dtype=complex)
    return DetectionResult(s_hat=_mrc_slice(Y, h, c), h_hat=h)


def chest_pilot(Y: np.ndarray, c: Constellation) -> np.ndarray:
    """Channel estimate from the pilot ``c.points[0]`` in the first slot.

    The first received column is h times the conjugated pilot, so
    multiplying by the pilot itself recovers h exactly when noise-free.
    """
    return Y[..., :, 0] * c.points[0] / c.sigma**2


def mrc_chest(Y: np.ndarray, c: Constellation) -> DetectionResult:
    """Pilot-based channel estimation followed by combining."""
    h_hat = chest_pilot(Y, c)
    return DetectionResult(s_hat=_mrc_slice(Y, h_hat, c), h_hat=h_hat)


def mrc_retrained(Y: np.ndarray, c: Constellation) -> DetectionResult:
    """Pilot-based detection, then the channel re-estimated from the detected
    symbol vector."""
    first = mrc_chest(Y, c)
    return DetectionResult(s_hat=first.s_hat, h_hat=channel_estimate(Y, first.s_hat))


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


def ml_jed_exhaustive(
    Y: np.ndarray,
    c: Constellation,
    budget: int = ML_JED_DEFAULT_BUDGET,
    G: np.ndarray | None = None,
) -> DetectionResult:
    """Exact joint-detection oracle: enumerate every symbol vector with the
    pinned first slot and keep the one with the largest received-energy
    correlation. Ties go to the first candidate in lexicographic order.

    The energy |Yx|^2 = x^H G x is scored from the Gram matrices G of the
    whole stack. Every slot of every candidate has the same modulus, so the
    diagonal terms are the same for all candidates of a trial and only
    Re sum_{i<j} conj(x_i) G_ij x_j is compared: one real matrix product of
    the stack's upper triangles with the pair products of each candidate
    chunk. Real candidates (BPSK) need only Re G. ``G`` holds the Gram
    matrices of ``Y``, taken as given; without it they are computed (and
    ``Y`` checked) by ``linalg.gram``.
    """
    G = gram(Y) if G is None else G
    K = G.shape[-1] - 1
    m = len(c.points)
    total = m**K
    if total > budget:
        raise CapacityError(
            f"{m}^{K} = {total} candidates exceeds the budget of {budget}; "
            "reduce K or use BPSK"
        )
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
    s_hat = best_vec.reshape(G.shape[:-2] + (K + 1,))
    return DetectionResult(s_hat=s_hat, h_hat=channel_estimate(Y, s_hat))


class DownlinkDraws(NamedTuple):
    """The random inputs of downlink evaluations, with any leading trial
    axis: standard normals of the reference symbol's noise (..., 2), data
    symbol indices (..., n) and standard normals of the data noise
    (..., 2n), real parts first."""

    ref_noise: np.ndarray
    data: np.ndarray
    noise: np.ndarray


def draw_downlink(
    rng: np.random.Generator, c: Constellation, n_symbols: int, T: int | None = None
) -> DownlinkDraws:
    """The downlink randoms of one trial, or of a stack of ``T`` trials,
    drawn from ``rng`` one array each in this order: the reference noise,
    the data indices, the data noise."""
    lead = () if T is None else (T,)
    return DownlinkDraws(
        rng.standard_normal(lead + (2,)),
        rng.integers(0, len(c.points), size=lead + (n_symbols,)),
        rng.standard_normal(lead + (2 * n_symbols,)),
    )


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
    (see ``draw_downlink``). A zero composite-gain estimate loses every
    symbol. The noise variance ``n0`` is one value for every trial, or one
    value per trial of the draws' trial axis.
    """
    n0 = np.asarray(n0, dtype=np.float64)
    if n0.shape not in ((), draws.data.shape[-2:-1]):
        raise ParameterError(
            f"noise variances of shape {n0.shape} for downlink draws of shape {draws.data.shape}"
        )
    if not np.all(np.isfinite(n0)) or np.any(n0 < 0):
        raise ParameterError("noise variance must be finite and non-negative")
    h_hat = np.asarray(h_hat, dtype=complex)
    norm = np.linalg.norm(h_hat, axis=-1)
    if np.any(norm == 0.0):
        raise DegenerateInputError("zero channel estimate")
    w = np.conj(h_hat) / norm[..., None]
    g = np.sum(np.asarray(h, dtype=complex) * w, axis=-1)
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
