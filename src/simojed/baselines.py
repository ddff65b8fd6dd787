"""Reference detectors and the exhaustive maximum-likelihood oracle.

All detectors report the pinned first slot as the known reference symbol so
error counting is comparable across methods; errors are only ever counted on
slots 2..K+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateInputError, ParameterError
from .model import Constellation, ReceivedBlock
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
    energy = float(np.linalg.norm(h) ** 2)
    if energy == 0.0:
        raise DegenerateInputError("zero channel vector")
    z = (Y.conj().T @ h) / energy
    s_hat = hard_decision(z, c)
    s_hat[0] = s_check
    return s_hat


def mrc_csir(
    block: ReceivedBlock, h: np.ndarray, c: Constellation, s_check: complex | None = None
) -> DetectionResult:
    """Combining with the true channel (perfect receive-side CSI)."""
    s_check = c.points[0] if s_check is None else s_check
    return DetectionResult(
        s_hat=_mrc_slice(block.Y, h, c, s_check), h_hat=np.asarray(h, dtype=complex), method="mrc-csir"
    )


def chest_pilot(block: ReceivedBlock, s_check: complex, c: Constellation) -> np.ndarray:
    """Channel estimate from the single known first-slot symbol.

    The first received column is h times the conjugated reference symbol, so
    multiplying by the symbol itself recovers h exactly when noise-free.
    """
    return block.Y[:, 0] * s_check / c.sigma**2


def mrc_chest(
    block: ReceivedBlock, s_check: complex | None = None, c: Constellation | None = None
) -> DetectionResult:
    """Pilot-based channel estimation followed by combining."""
    if c is None:
        raise ParameterError("pilot-based detection needs the constellation c")
    s_check = c.points[0] if s_check is None else s_check
    h_hat = chest_pilot(block, s_check, c)
    return DetectionResult(
        s_hat=_mrc_slice(block.Y, h_hat, c, s_check), h_hat=h_hat, method="mrc-chest"
    )


def mrc_retrained(
    block: ReceivedBlock, s_check: complex | None = None, c: Constellation | None = None
) -> DetectionResult:
    """Pilot-based detection, then the channel re-estimated from the detected
    symbol vector."""
    first = mrc_chest(block, s_check, c)
    h_rt = channel_estimate(block.Y, first.s_hat)
    return DetectionResult(s_hat=first.s_hat, h_hat=h_rt, method="mrc-rt")


def _candidate_chunk(
    c: Constellation, K: int, s_check: complex, start: int, stop: int
) -> np.ndarray:
    """Candidate symbol matrix for enumeration indices [start, stop).

    Index digits are read most-significant-first into slots 2..K+1, so
    ascending indices enumerate candidates in lexicographic order over the
    canonical point ordering.
    """
    m = len(c.points)
    idx = np.arange(start, stop, dtype=np.int64)
    cands = np.empty((stop - start, K + 1), dtype=np.complex128)
    cands[:, 0] = s_check
    for j in range(K):
        digits = (idx // m ** (K - 1 - j)) % m
        cands[:, 1 + j] = c.points[digits]
    return cands


def ml_jed_exhaustive(
    block: ReceivedBlock,
    c: Constellation,
    s_check: complex | None = None,
    budget: int = ML_JED_DEFAULT_BUDGET,
) -> DetectionResult:
    """Exact joint-detection oracle: enumerate every symbol vector with the
    pinned first slot and keep the one with the largest received-energy
    correlation. Ties go to the first candidate in lexicographic order.
    """
    s_check = c.points[0] if s_check is None else s_check
    K = block.num_slots - 1
    m = len(c.points)
    total = m**K
    if total > budget:
        raise CapacityError(
            f"{m}^{K} = {total} candidates exceeds the budget of {budget}; "
            "reduce K or use BPSK"
        )
    best_val = -1.0
    best_vec = None
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        cands = _candidate_chunk(c, K, s_check, start, stop)
        vals = np.sum(np.abs(block.Y @ cands.T) ** 2, axis=0)
        local = int(np.argmax(vals))
        if vals[local] > best_val:
            best_val = float(vals[local])
            best_vec = cands[local]
    h_hat = channel_estimate(block.Y, best_vec)
    return DetectionResult(s_hat=best_vec, h_hat=h_hat, method="ml-jed")


def downlink_ser(
    h: np.ndarray,
    h_hat: np.ndarray,
    c: Constellation,
    n_symbols: int,
    n0: float,
    rng: np.random.Generator,
) -> float:
    """Error rate of beamformed downlink transmission through the reciprocal
    (transposed) channel.

    The beam is the normalized conjugate of the channel estimate. The
    receiver learns the composite gain from one known reference symbol (the
    same pinned constellation point), which also removes any global phase
    rotation of the estimate, then slices ``n_symbols`` random data symbols.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    if np.linalg.norm(h_hat) == 0.0:
        raise DegenerateInputError("zero channel estimate")
    w = np.conj(h_hat) / np.linalg.norm(h_hat)
    g = np.asarray(h, dtype=complex) @ w
    scale = np.sqrt(n0 / 2.0)

    s_check = c.points[0]
    z_ref = g * s_check + scale * (rng.standard_normal() + 1j * rng.standard_normal())
    g_hat = z_ref * np.conj(s_check) / c.sigma**2
    if g_hat == 0.0:
        return 1.0

    data = c.points[rng.integers(0, len(c.points), size=n_symbols)]
    noise = scale * (rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))
    z = g * data + noise
    decisions = hard_decision(z / g_hat, c)
    return float(np.mean(decisions != data))
