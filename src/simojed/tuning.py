"""Deterministic grid search for the solver gains, with a JSON result cache.

The projection gain and the shift-factor scale are the two knobs the
algorithm leaves open; this searches the fixed grids ``RHO_LOG2_GRID`` x
``ALPHA_SCALE_GRID`` on a seeded paired batch and keeps the best setting per
search configuration, scoring each by the hard decisions of one untraced
``prox.iterate`` over the whole batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .linalg import spectral_norm
from .model import Constellation, check_int, check_real, draw_blocks
from .prox import ProxParams, hard_decision, iterate, preprocess

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
    cache_path: str | Path | None = None,
) -> TunedParams:
    """Grid-search the solver gains on a paired seeded batch.

    Every setting sees byte-identical blocks. The batch is preprocessed once,
    from one set of spectral norms, as one (``alpha_scale``, trial) stack
    that each ``rho_log2`` iterates once, slicing only the data slots.
    ``approx`` tunes the ``aprox`` variant (two-term series) instead of
    ``prox``. Ties in error count break to the smallest ``rho_log2``, then
    the smallest ``alpha_scale``.
    When a cache file is given and already holds a result for these exact
    arguments and grids (everything but the cache path), it is returned
    without re-searching. A bad ``B``, ``K``, ``trials``, seed, SNR or
    ``t_max`` (checked before the cache is read), a cache file that does not
    hold a JSON object, or a matching entry without the three numbers of a
    ``TunedParams``, is a ``ParameterError``, raised before any draw.
    """
    B, K, trials = (check_int(v, name, 1) for v, name in ((B, "B"), (K, "K"), (trials, "trials")))
    seed, snr_db = check_int(seed, "the seed"), check_real(snr_db, "snr_db")
    t_max = ProxParams(t_max=t_max).t_max  # a bad t_max fails here, before the cache is read
    variant = "approx" if approx else "exact"
    key = (
        f"B{B}_K{K}_{constellation}_{variant}_snr{snr_db!r}_tmax{t_max}_trials{trials}"
        f"_seed{seed}_rho{list(RHO_LOG2_GRID)}_alpha{list(ALPHA_SCALE_GRID)}"
    )
    cache: dict = {}
    if cache_path is not None and Path(cache_path).exists():
        try:
            cache = json.loads(Path(cache_path).read_text())
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read tuning cache {str(cache_path)!r}: {exc}") from None
        if not isinstance(cache, dict):
            raise ParameterError(f"tuning cache {str(cache_path)!r} does not hold a JSON object")
        if key in cache:
            hit = cache[key]
            fields = ("rho_log2", "alpha_scale", "ser")
            values = [hit.get(f) if isinstance(hit, dict) else None for f in fields]
            if not all(isinstance(v, (int, float)) for v in values):
                raise ParameterError(
                    f"tuning cache {str(cache_path)!r} entry {key!r} needs the numbers {fields}"
                )
            return TunedParams(*values)

    c = Constellation.by_name(constellation)
    # Trial t is the one-trial chunk keyed by (t,).
    _, G, s, *_ = draw_blocks(B, K, c, seed, [((t,), snr_db, 1) for t in range(trials)])
    alpha = np.multiply.outer(ALPHA_SCALE_GRID, spectral_norm(G))
    pre = preprocess(np.broadcast_to(G, alpha.shape + G.shape[1:]), alpha, approx)
    candidates = []
    for rho_log2 in RHO_LOG2_GRID:
        state = iterate(pre, c, ProxParams(rho_log2=rho_log2, t_max=t_max), record_trace=False)
        s_hat = hard_decision(state.s_cur[..., 1:], c)
        ser = np.sum(s_hat != s[:, 1:], axis=(-2, -1)) / (trials * K)
        candidates += [TunedParams(rho_log2, a, e) for a, e in zip(ALPHA_SCALE_GRID, ser.tolist())]
    best = min(candidates, key=lambda t: (t.ser, t.rho_log2, t.alpha_scale))

    if cache_path is not None:
        cache[key] = {"rho_log2": best.rho_log2, "alpha_scale": best.alpha_scale, "ser": best.ser}
        Path(cache_path).write_text(json.dumps(cache, indent=2, sort_keys=True) + "\n")
    return best
