"""Deterministic grid search for the solver gains.

The projection gain and the shift-factor scale are the two knobs the
algorithm leaves open; this searches the fixed grids ``RHO_LOG2_GRID`` x
``ALPHA_SCALE_GRID`` on a seeded paired batch and returns the best setting,
scoring each by the data-slot decisions of one ``prox.solve_stack`` over the
whole batch. Every call runs the whole search, which takes a fraction of a
second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .model import Constellation, check_int, check_real, draw_blocks
from .prox import ProxParams, preprocess, solve_stack

RHO_LOG2_GRID = tuple(range(0, 7))
ALPHA_SCALE_GRID = (1.25, 1.5, 2.0, 4.0)


@dataclass(frozen=True)
class TunedParams:
    rho_log2: int
    alpha_scale: float
    ser: float


def tune_rho(
    B: int,
    K: int,
    constellation: str,
    snr_db: float,
    trials: int,
    seed: int,
    approx: bool = False,
    t_max: int = ProxParams.t_max,
) -> TunedParams:
    """Grid-search the solver gains on a paired seeded batch.

    Every setting sees byte-identical blocks. The batch is preprocessed once,
    from one set of spectral norms, as one (``alpha_scale``, trial) stack
    that each ``rho_log2`` solves once; only the data slots are scored.
    ``approx`` tunes the ``aprox`` variant (two-term series) instead of
    ``prox``. Ties in error count break to the smallest ``rho_log2``, then
    the smallest ``alpha_scale``.
    A bad ``B``, ``K``, ``trials``, seed, SNR, ``t_max`` or constellation
    is a ``ParameterError``, raised before any draw.
    """
    B, K, trials = (check_int(v, name, 1) for v, name in ((B, "B"), (K, "K"), (trials, "trials")))
    seed, snr_db = check_int(seed, "the seed"), check_real(snr_db, "snr_db")
    t_max = ProxParams(t_max=t_max).t_max
    c = Constellation(constellation)
    # Trial t is the one-trial chunk keyed by (t,).
    _, G, s, *_ = draw_blocks(B, K, c, seed, [((t,), snr_db, 1) for t in range(trials)])
    alpha = np.multiply.outer(ALPHA_SCALE_GRID, spectral_norm(G))
    pre = preprocess(np.broadcast_to(G, alpha.shape + G.shape[1:]), alpha, approx)
    candidates = []
    for rho_log2 in RHO_LOG2_GRID:
        s_hat = solve_stack(pre, c, ProxParams(rho_log2=rho_log2, t_max=t_max))[..., 1:]
        ser = np.sum(s_hat != s[:, 1:], axis=(-2, -1)) / (trials * K)
        candidates += [TunedParams(rho_log2, a, e) for a, e in zip(ALPHA_SCALE_GRID, ser.tolist())]
    return min(candidates, key=lambda t: (t.ser, t.rho_log2, t.alpha_scale))
