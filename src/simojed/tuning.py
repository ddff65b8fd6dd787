"""Deterministic grid search for the solver gains, with a JSON result cache.

The projection gain and the shift-factor scale are the two knobs the
algorithm leaves open; this searches the fixed grids ``RHO_LOG2_GRID`` x
``ALPHA_SCALE_GRID`` on a seeded paired batch and keeps the best setting per
search configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .model import Constellation, draw_blocks
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
    cache_path: str | Path | None = None,
) -> TunedParams:
    """Grid-search the solver gains on a paired seeded batch.

    Every setting sees byte-identical blocks, detected as one stack; the
    stack is preprocessed once per ``alpha_scale``, since the iteration
    matrix does not depend on the projection gain. ``approx`` tunes the
    ``aprox`` variant (two-term series) instead of ``prox``. Ties in error
    count break to the smallest ``rho_log2``, then the smallest
    ``alpha_scale``.
    When a cache file is given and already holds a result for these exact
    arguments and grids (everything but the cache path), it is returned
    without re-searching. No trials, or a cache file that does not hold a
    JSON object, is a ``ParameterError``, raised before any block is drawn.
    """
    if trials < 1:
        raise ParameterError(f"need at least one tuning trial, got {trials}")
    variant = "approx" if approx else "exact"
    key = (
        f"B{B}_K{K}_{constellation}_{variant}_snr{float(snr_db)!r}_tmax{t_max}_trials{trials}"
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
            return TunedParams(hit["rho_log2"], hit["alpha_scale"], hit["ser"])

    c = Constellation.by_name(constellation)
    # Trial t is the one-trial chunk keyed by (t,).
    Y, G, s, *_ = draw_blocks(B, K, c, seed, [((t,), snr_db, 1) for t in range(trials)])
    data_true = s[:, 1:]

    candidates = []
    for alpha_scale in ALPHA_SCALE_GRID:
        params = ProxParams(alpha_scale=alpha_scale, t_max=t_max)
        pre = preprocess(G, params, approx)
        for rho_log2 in RHO_LOG2_GRID:
            res = solve_stack(Y, pre, c, replace(params, rho_log2=rho_log2))
            ser = int(np.sum(res.s_hat[:, 1:] != data_true)) / (trials * K)
            candidates.append(TunedParams(rho_log2, alpha_scale, ser))
    best = min(candidates, key=lambda t: (t.ser, t.rho_log2, t.alpha_scale))

    if cache_path is not None:
        cache[key] = {"rho_log2": best.rho_log2, "alpha_scale": best.alpha_scale, "ser": best.ser}
        Path(cache_path).write_text(json.dumps(cache, indent=2, sort_keys=True) + "\n")
    return best
