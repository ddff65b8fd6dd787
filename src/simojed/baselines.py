"""Reference detectors and the exhaustive maximum-likelihood oracle.

All detectors report the pinned first slot as the known reference symbol so
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
    method: str


def _mrc_slice(Y: np.ndarray, h: np.ndarray, c: Constellation, s_check: complex) -> np.ndarray:
    """Matched-filter combine and slice each slot; slot 1 is reported as the
    known reference symbol.

    The combined statistic is (y_k^H h)/|h|^2, which equals s_k noise-free
    (the received block carries conjugated symbols).
    """
    energy = np.linalg.norm(h, axis=-1) ** 2
    if np.any(energy == 0.0):
        raise DegenerateInputError("zero channel vector")
    z = (Y.conj().swapaxes(-1, -2) @ h[..., None])[..., 0] / energy[..., None]
    s_hat = hard_decision(z, c)
    s_hat[..., 0] = s_check
    return s_hat


def mrc_csir(
    Y: np.ndarray, h: np.ndarray, c: Constellation, s_check: complex | None = None
) -> DetectionResult:
    """Combining with the true channel (perfect receive-side CSI)."""
    s_check = c.points[0] if s_check is None else s_check
    h = np.asarray(h, dtype=complex)
    return DetectionResult(s_hat=_mrc_slice(Y, h, c, s_check), h_hat=h, method="mrc-csir")


def chest_pilot(Y: np.ndarray, s_check: complex, c: Constellation) -> np.ndarray:
    """Channel estimate from the single known first-slot symbol.

    The first received column is h times the conjugated reference symbol, so
    multiplying by the symbol itself recovers h exactly when noise-free.
    """
    return Y[..., :, 0] * s_check / c.sigma**2


def mrc_chest(
    Y: np.ndarray, s_check: complex | None = None, c: Constellation | None = None
) -> DetectionResult:
    """Pilot-based channel estimation followed by combining."""
    if c is None:
        raise ParameterError("pilot-based detection needs the constellation c")
    s_check = c.points[0] if s_check is None else s_check
    h_hat = chest_pilot(Y, s_check, c)
    return DetectionResult(s_hat=_mrc_slice(Y, h_hat, c, s_check), h_hat=h_hat, method="mrc-chest")


def mrc_retrained(
    Y: np.ndarray, s_check: complex | None = None, c: Constellation | None = None
) -> DetectionResult:
    """Pilot-based detection, then the channel re-estimated from the detected
    symbol vector."""
    first = mrc_chest(Y, s_check, c)
    h_rt = channel_estimate(Y, first.s_hat)
    return DetectionResult(s_hat=first.s_hat, h_hat=h_rt, method="mrc-rt")


def _candidate_chunk(
    c: Constellation, K: int, s_check: complex, start: int, stop: int
) -> np.ndarray:
    """Candidate symbol vectors for enumeration indices [start, stop), one
    column each (one row per slot).

    Index digits are read most-significant-first into slots 2..K+1, so
    ascending indices enumerate candidates in lexicographic order over the
    canonical point ordering.
    """
    m = len(c.points)
    idx = np.arange(start, stop, dtype=np.int64)
    cands = np.empty((K + 1, stop - start), dtype=np.complex128)
    cands[0] = s_check
    for j in range(K):
        np.take(c.points, (idx // m ** (K - 1 - j)) % m, out=cands[1 + j])
    return cands


def ml_jed_exhaustive(
    Y: np.ndarray,
    c: Constellation,
    s_check: complex | None = None,
    budget: int = ML_JED_DEFAULT_BUDGET,
) -> DetectionResult:
    """Exact joint-detection oracle: enumerate every symbol vector with the
    pinned first slot and keep the one with the largest received-energy
    correlation. Ties go to the first candidate in lexicographic order.

    The energy |Yx|^2 = x^H G x is scored from the Gram matrices G of the
    whole stack. Every slot of every candidate has the same modulus, so the
    diagonal terms are the same for all candidates of a trial and only
    Re sum_{i<j} conj(x_i) G_ij x_j is compared: one real matrix product of
    the stack's upper triangles with the pair products of each candidate
    chunk. Real candidates (BPSK with a real reference symbol) need only
    Re G.
    """
    s_check = c.points[0] if s_check is None else s_check
    G = gram(Y)
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
    real = not np.any(c.points.imag) and np.imag(s_check) == 0
    # Re(G_ij p) = Re G_ij Re p - Im G_ij Im p, as one real product.
    upper = upper.real.copy() if real else np.concatenate([upper.real, -upper.imag], axis=1)
    row_start = np.concatenate([[0], np.cumsum(np.arange(K, 0, -1))])
    trials = np.arange(len(upper))
    best_val = np.full(len(upper), -np.inf)
    best_vec = np.empty((len(upper), K + 1), dtype=np.complex128)
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        cands = _candidate_chunk(c, K, s_check, start, stop)
        x = cands.real if real else cands
        pairs = np.empty((len(iu), stop - start), dtype=x.dtype)
        for i in range(K):
            np.multiply(x[i].conj(), x[i + 1 :], out=pairs[row_start[i] : row_start[i + 1]])
        if not real:
            pairs = np.concatenate([pairs.real, pairs.imag])
        vals = upper @ pairs
        local = np.argmax(vals, axis=1)
        top = vals[trials, local]
        better = top > best_val
        best_val[better] = top[better]
        best_vec[better] = cands[:, local[better]].T
    s_hat = best_vec.reshape(G.shape[:-2] + (K + 1,))
    return DetectionResult(s_hat=s_hat, h_hat=channel_estimate(Y, s_hat), method="ml-jed")


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
    n0: float,
    draws: DownlinkDraws,
) -> float | np.ndarray:
    """Error rate of beamformed downlink transmission through the reciprocal
    (transposed) channel; one rate per trial for a stack.

    The beam is the normalized conjugate of the channel estimate. The
    receiver learns the composite gain from one known reference symbol (the
    same pinned constellation point), which also removes any global phase
    rotation of the estimate, then slices the data symbols of ``draws``
    (see ``draw_downlink``). A zero composite-gain estimate loses every
    symbol.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    norm = np.linalg.norm(h_hat, axis=-1)
    if np.any(norm == 0.0):
        raise DegenerateInputError("zero channel estimate")
    w = np.conj(h_hat) / norm[..., None]
    g = np.sum(np.asarray(h, dtype=complex) * w, axis=-1)
    scale = np.sqrt(n0 / 2.0)

    s_check = c.points[0]
    z_ref = g * s_check + scale * (draws.ref_noise[..., 0] + 1j * draws.ref_noise[..., 1])
    g_hat = z_ref * np.conj(s_check) / c.sigma**2
    lost = g_hat == 0.0

    n = draws.data.shape[-1]
    data = c.points[draws.data]
    noise = scale * (draws.noise[..., :n] + 1j * draws.noise[..., n:])
    z = g[..., None] * data + noise
    decisions = hard_decision(z / np.where(lost, 1.0, g_hat)[..., None], c)
    return np.where(lost, 1.0, np.mean(decisions != data, axis=-1))[()]
