"""Monte-Carlo sweep engine: seeded paired trials, aggregation, CSV/JSON
output, fixed-vs-float comparison, and the timing table.

Trials are drawn in fixed chunks of ``_TRIAL_CHUNK``, each a seeded stack
of ``model.draw_blocks`` keyed by (snr index, first trial of the chunk). The
chunk size is part of that stream layout. Chunks are drawn and detected in
packs: runs of consecutive chunks, in (snr, trial) order, holding at most
``_TRIAL_CHUNK`` trials, drawn along one trial axis by one ``draw_blocks``
call. Pack membership depends on the config alone and workers take whole
packs, so results are bit-identical for a given seed regardless of the
worker count. All methods in a sweep, and both arithmetics of a
float-vs-fixed comparison, consume the same blocks (paired comparison), and
the downlink evaluation takes each chunk's randoms once and evaluates every
method's estimate on a pack's draws in one call. A pack's tallies are
arrays with a trailing chunk axis; the sweep joins them along it, and each
SNR point's cells reduce its contiguous run of chunks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import check_ml_budget, chest_pilot, downlink_ser, ml_jed_exhaustive, mrc
from .errors import ParameterError
from .fxp import check_datapath_gain, latency_cycles, solve_fixed_stack, throughput_bps
from .linalg import spectral_norm
from .model import Constellation, LosGeometry, check_int, check_los, check_real, draw_blocks, snr_to_n0
from .prox import PreprocessedMatrix, ProxParams, channel_estimate, preprocess, solve_stack

WORKERS_ENV = "SIMOJED_WORKERS"
# Fixed: it sets the stream layout, the float reduction order and the
# largest detection stack, so results do not depend on the worker count.
_TRIAL_CHUNK = 512

SOLVER_METHODS = ("prox", "aprox")  # the methods that take solver gains
METHOD_NAMES = SOLVER_METHODS + ("mrc-csir", "mrc-chest", "mrc-rt", "ml-jed")

CSV_COLUMNS = "method,snr_db,uplink_ser,downlink_ser,chest_mse,trials,errors,ci_lo,ci_hi"
WILSON_Z = 1.959963984540054  # the two-sided 95% normal quantile


@dataclass(frozen=True)
class MethodSpec:
    """A detector of the sweep. The solver methods, ``prox`` (exact shifted
    inverse) and ``aprox`` (its two-term series), always have ``params``,
    the default gains unless given; a baseline given gains is a
    ``ParameterError``, and so are gains that are not a ``ProxParams``."""

    name: str
    params: ProxParams | None = None

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ParameterError(f"unknown method {self.name!r}; choose from {METHOD_NAMES}")
        if not isinstance(self.params, (ProxParams, type(None))):
            raise ParameterError(f"params must be a ProxParams or None, not {self.params!r}")
        if self.name not in SOLVER_METHODS:
            if self.params is not None:
                raise ParameterError(f"the baseline {self.name!r} takes no solver gains")
        elif self.params is None:
            object.__setattr__(self, "params", ProxParams())


@dataclass(frozen=True)
class SweepConfig:
    """One seeded sweep, checked before any draw (``ml-jed`` by ``check_ml_budget``)
    and stored as Python numbers, a lower-case kind and an unset
    ``downlink_symbols`` as ``K``, so equal sweeps compare and hash alike."""

    B: int
    K: int
    constellation: str
    snr_points_db: tuple[float, ...]
    trials: int
    master_seed: int
    methods: tuple[MethodSpec, ...]
    los: LosGeometry | None = None  # None: Rayleigh
    arithmetic: str = "float"
    downlink_symbols: int | None = None  # None: stored as K

    def __post_init__(self):
        if self.downlink_symbols is None:
            object.__setattr__(self, "downlink_symbols", self.K)
        for name in ("B", "K", "trials", "downlink_symbols"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        object.__setattr__(self, "master_seed", check_int(self.master_seed, "the master seed"))
        points = self.snr_points_db
        if not isinstance(points, (tuple, list)) and np.ndim(points) != 1:
            raise ParameterError(f"snr_points_db must be a sequence of SNR points, not {points!r}")
        snrs = tuple(check_real(snr_db, "an SNR point") for snr_db in points)
        object.__setattr__(self, "snr_points_db", snrs)
        if not snrs:
            raise ParameterError("need at least one SNR point")
        if len(set(snrs)) < len(snrs):
            raise ParameterError(f"each SNR point may appear once, got {snrs}")
        if self.arithmetic not in ("float", "fixed"):
            raise ParameterError(f"unknown arithmetic {self.arithmetic!r}")
        check_los(self.los)
        methods = self.methods
        if not isinstance(methods, (tuple, list)) or not all(
            isinstance(m, MethodSpec) for m in methods
        ):
            raise ParameterError(f"methods must be a tuple or list of MethodSpec, not {methods!r}")
        object.__setattr__(self, "methods", tuple(methods))
        if not self.methods:
            raise ParameterError("need at least one method")
        names = [m.name for m in self.methods]
        if len(set(names)) < len(names):
            raise ParameterError(f"each method may run once per sweep, got {names}")
        if self.arithmetic == "fixed":
            for m in self.methods:
                if m.params is not None:
                    check_datapath_gain(m.params.rho_log2)
        c = Constellation(self.constellation)
        object.__setattr__(self, "constellation", c.kind)  # one hash for "QPSK" and "qpsk"
        for snr_db in self.snr_points_db:
            snr_to_n0(snr_db, c)  # a NaN or -inf point fails here, before any draw
        if "ml-jed" in names:
            check_ml_budget(c, self.K)

    def config_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class SweepCell:
    """Aggregates for one (method, snr) point."""

    trials: int
    symbol_errors: int
    downlink_errors: int
    chest_mse: float
    data_symbols: int
    downlink_symbols: int

    @property
    def uplink_ser(self) -> float:
        return self.symbol_errors / self.data_symbols

    @property
    def downlink_ser(self) -> float:
        return self.downlink_errors / self.downlink_symbols

    def wilson_interval(self) -> tuple[float, float]:
        return wilson_interval(self.symbol_errors, self.data_symbols)


@dataclass
class SweepResult:
    config_hash: str
    master_seed: int
    version: str
    cells: dict[tuple[str, float], SweepCell] = field(default_factory=dict)

    def curve(self, method: str, quantity: str = "uplink_ser") -> dict[float, float]:
        return {
            snr: getattr(cell, quantity)
            for (m, snr), cell in sorted(self.cells.items(), key=lambda kv: kv[0][1])
            if m == method
        }

    def to_csv(self) -> str:
        lines = [CSV_COLUMNS]
        for (m, snr), cell in sorted(self.cells.items()):
            lo, hi = cell.wilson_interval()
            lines.append(
                f"{m},{snr!r},{cell.uplink_ser!r},{cell.downlink_ser!r},"
                f"{cell.chest_mse!r},{cell.trials},{cell.symbol_errors},{lo!r},{hi!r}"
            )
        return "\n".join(lines) + "\n"

    def metadata(self) -> dict:
        cell = next(iter(self.cells.values()), None)
        return {
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "version": self.version,
            "trials": cell.trials if cell else 0,
            "data_symbols_per_trial": cell.data_symbols // cell.trials if cell else 0,
            "downlink_symbols_per_trial": cell.downlink_symbols // cell.trials if cell else 0,
        }


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def db_at_ser(curve: dict[float, float], target: float) -> float | None:
    """SNR at which the curve crosses ``target``, by log-linear interpolation
    between adjacent sweep points; None when the curve never crosses."""
    pts = sorted(curve.items())
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if y1 >= target > y2 and y1 > 0 and y2 > 0:
            return x1 + (x2 - x1) * math.log(y1 / target) / math.log(y1 / y2)
    return None


def _detect(
    spec: MethodSpec,
    Y: np.ndarray,
    G: np.ndarray,
    pre: PreprocessedMatrix | None,
    h_true: np.ndarray,
    c,
    arithmetic: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The decisions and channel estimates ``(s_hat, h_hat)`` of a pack's
    stacked blocks from one method, in one stacked call: the one place
    where a method's estimate is chosen, since every detector returns
    decisions only. ``mrc-csir`` combines with the true channel ``h_true``
    and reports it, ``mrc-chest`` with the pilot estimate and reports that.
    The solver in ``arithmetic`` (on the pack's preprocessed Gram matrices
    ``pre``), ``ml-jed`` (on the Gram matrices ``G`` of ``Y``) and
    ``mrc-rt`` (``mrc-chest``'s decisions) share one tail:
    ``channel_estimate``."""
    if spec.name == "mrc-csir":
        return mrc(Y, h_true, c), h_true
    if spec.name == "mrc-chest":
        h_hat = chest_pilot(Y, c)
        return mrc(Y, h_hat, c), h_hat
    if spec.params is not None:
        s_hat = (solve_stack if arithmetic == "float" else solve_fixed_stack)(pre, c, spec.params)
    elif spec.name == "mrc-rt":
        s_hat = mrc(Y, chest_pilot(Y, c), c)
    else:
        s_hat = ml_jed_exhaustive(G, c)
    return s_hat, channel_estimate(Y, s_hat)


def _run_pack(cfg: SweepConfig, arithmetics: tuple[str, ...], chunks: list[tuple[int, int, int]]):
    """Counts for a pack of chunks ``(snr_index, trial_lo, trial_hi)``, each
    block detected in every one of ``arithmetics``.

    One ``draw_blocks`` call draws the pack, each chunk as its own seeded
    stack keyed by ``(snr_index, trial_lo)`` with its downlink randoms. A
    solver method runs once on the pack per arithmetic, and a baseline,
    which has no arithmetic, once for all of them; the solver methods share
    the pack's spectral norms, and both arithmetics a method's
    preprocessing, released before the next method runs. One
    ``downlink_ser`` call, with each trial's noise variance, evaluates the
    estimates of every method and arithmetic.

    Returns ``(errors, mse, agree)``, each with a trailing chunk axis:
    int64 uplink and downlink error counts of shape (2, key, chunk), with
    one key per (method, arithmetic), methods outer; each chunk's
    ``np.sum`` of its trials' channel MSEs, of shape (key, chunk), summed
    later in fixed order for worker-count independence; and how many hard
    decisions of the first solver method agree between float and fixed
    arithmetic per chunk (0 unless both run). The integer counts of all
    chunks are one segmented sum (``np.add.reduceat``) over the pack.
    """
    c = Constellation(cfg.constellation)
    solver = next((m for m in cfg.methods if m.params is not None), None)
    keyed = [((i, lo), cfg.snr_points_db[i], hi - lo) for i, lo, hi in chunks]
    Y, G, s_true, h_true, n0, draws = draw_blocks(
        cfg.B, cfg.K, c, cfg.master_seed, keyed, cfg.los, cfg.downlink_symbols
    )
    norm = None if solver is None else spectral_norm(G)
    detections = []
    decisions = {}
    for spec in cfg.methods:
        approx = spec.name == "aprox"
        pre = None if spec.params is None else preprocess(G, spec.params.alpha_scale * norm, approx)
        for arithmetic in arithmetics:
            # A baseline ignores the arithmetic: it runs once per pack.
            if pre is not None or arithmetic == arithmetics[0]:
                s_hat, h_hat = _detect(spec, Y, G, pre, h_true, c, arithmetic)
            if spec is solver:
                decisions[arithmetic] = s_hat[:, 1:]
            detections.append((s_hat, h_hat))
    # One evaluation of every estimate: the pack's draws broadcast over the
    # leading key axis.
    h_hats = np.stack([h_hat for _, h_hat in detections])
    dl_ser = downlink_ser(h_true, h_hats, c, n0, draws)
    uplink = [np.sum(s_hat[:, 1:] != s_true[:, 1:], axis=1) for s_hat, _ in detections]
    starts = np.cumsum([0] + [hi - lo for _, lo, hi in chunks[:-1]])
    counts = np.stack([uplink, np.rint(dl_ser * cfg.downlink_symbols).astype(np.int64)])
    errors = np.add.reduceat(counts, starts, axis=-1)
    # A float reduceat would not sum pairwise as np.sum does, and its digits
    # would change: each chunk's MSE is an np.sum over its own slice.
    mse = np.sum(np.abs(h_hats - h_true) ** 2, axis=-1) / cfg.B
    mse = np.stack([np.sum(part, axis=-1) for part in np.split(mse, starts[1:], axis=-1)], axis=-1)
    agree = np.zeros(len(chunks), dtype=np.int64)
    if decisions.keys() == {"float", "fixed"}:
        agree = np.add.reduceat(np.sum(decisions["float"] == decisions["fixed"], axis=1), starts)
    return errors, mse, agree


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ParameterError(f"{WORKERS_ENV} must be a positive integer, not {raw!r}")
    return int(raw)


def _sweep_packs(cfg: SweepConfig) -> list[list[tuple[int, int, int]]]:
    """Every chunk ``(snr_index, trial_lo, trial_hi)`` of the sweep, in
    (snr, trial) order, grouped greedily into packs of consecutive chunks
    holding at most ``_TRIAL_CHUNK`` trials: a new pack starts when the
    next chunk would overfill the current one. The packs depend on the
    config alone."""
    packs = []
    size = _TRIAL_CHUNK
    for snr_index in range(len(cfg.snr_points_db)):
        for lo in range(0, cfg.trials, _TRIAL_CHUNK):
            hi = min(lo + _TRIAL_CHUNK, cfg.trials)
            if size + hi - lo > _TRIAL_CHUNK:
                packs.append([])
                size = 0
            packs[-1].append((snr_index, lo, hi))
            size += hi - lo
    return packs


def _sweep_chunks(cfg: SweepConfig, arithmetics: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """The ``_run_pack`` arrays of the whole paired sweep, the packs joined
    along the chunk axis in (snr, trial) order, so that float reductions
    are identical for any worker count. Workers take whole packs."""
    jobs = [(cfg, arithmetics, pack) for pack in _sweep_packs(cfg)]
    workers = _worker_count()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_pack, *zip(*jobs), chunksize=1))
    else:
        outputs = [_run_pack(*j) for j in jobs]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*outputs))


def _sweep_result(cfg: SweepConfig, errors: np.ndarray, mse: np.ndarray) -> SweepResult:
    """The cells of ``cfg``, in the arithmetic it names and hashed as it
    is, from that arithmetic's ``errors`` (2, method, chunk) and ``mse``
    (method, chunk). Every SNR point holds the same number of chunks, one
    contiguous run of the chunk axis."""
    result = SweepResult(
        config_hash=cfg.config_hash(),
        master_seed=cfg.master_seed,
        version=__version__,
    )
    points = len(cfg.snr_points_db)
    counts = errors.reshape(2, len(cfg.methods), points, -1).sum(axis=-1).tolist()
    mse = mse.reshape(len(cfg.methods), points, -1)
    for i, snr_db in enumerate(cfg.snr_points_db):
        for m, spec in enumerate(cfg.methods):
            result.cells[(spec.name, snr_db)] = SweepCell(
                trials=cfg.trials,
                symbol_errors=counts[0][m][i],
                downlink_errors=counts[1][m][i],
                chest_mse=math.fsum(mse[m, i]) / cfg.trials,
                data_symbols=cfg.trials * cfg.K,
                downlink_symbols=cfg.trials * cfg.downlink_symbols,
            )
    return result


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run the full paired sweep; deterministic for a given master seed
    regardless of the worker count."""
    errors, mse, _ = _sweep_chunks(cfg, (cfg.arithmetic,))
    return _sweep_result(cfg, errors, mse)


@dataclass
class HwCompareReport:
    agreement_rate: float
    float_result: SweepResult
    fixed_result: SweepResult
    gap_db_at: dict[float, float | None]


def hw_compare(
    cfg: SweepConfig,
    agreement_snr_db: float | None = None,
    gap_targets: tuple[float, ...] = (1e-2,),
) -> HwCompareReport:
    """Paired float-vs-fixed comparison for the solver methods in ``cfg``.

    One sweep draws each block once and detects it in both arithmetics,
    giving one ``SweepResult`` per arithmetic, each from ``cfg`` with that
    arithmetic and hashed as it. The hard-decision agreement rate of the
    first solver method is counted on the same blocks at ``agreement_snr_db``, which
    must be a sweep point (the grid's midpoint by default). The gap is the
    horizontal dB distance between the two SER curves at each target.
    Building the fixed config checks the fixed half as a fixed sweep:
    every solver method needs a gain the datapath takes
    (``check_datapath_gain``), before any draw.
    """
    gap_targets = [check_real(target, "a gap target") for target in gap_targets]
    solver_methods = [m for m in cfg.methods if m.params is not None]
    if not solver_methods:
        raise ParameterError("hw_compare needs a prox or aprox method in the config")
    float_cfg, fixed_cfg = (replace(cfg, arithmetic=a) for a in ("float", "fixed"))
    snr_db = cfg.snr_points_db[len(cfg.snr_points_db) // 2]
    if agreement_snr_db is not None:
        snr_db = check_real(agreement_snr_db, "agreement_snr_db")
    if snr_db not in cfg.snr_points_db:
        raise ParameterError(f"agreement SNR {snr_db} dB is not a sweep point {cfg.snr_points_db}")
    snr_index = cfg.snr_points_db.index(snr_db)

    # Keys run method by method, float then fixed within each method.
    errors, mse, agree = _sweep_chunks(cfg, ("float", "fixed"))
    float_res = _sweep_result(float_cfg, errors[:, 0::2], mse[0::2])
    fixed_res = _sweep_result(fixed_cfg, errors[:, 1::2], mse[1::2])
    agree = int(agree.reshape(len(cfg.snr_points_db), -1)[snr_index].sum())

    name = solver_methods[0].name
    gaps: dict[float, float | None] = {}
    for target in gap_targets:
        f_db = db_at_ser(float_res.curve(name), target)
        x_db = db_at_ser(fixed_res.curve(name), target)
        gaps[target] = None if f_db is None or x_db is None else x_db - f_db
    return HwCompareReport(
        agreement_rate=agree / (cfg.trials * cfg.K),
        float_result=float_res,
        fixed_result=fixed_res,
        gap_db_at=gaps,
    )


def timing_report(
    K_list: list[int],
    t_max_list: list[int],
    f_clk_list: list[float],
    bits: int = 2,
) -> list[dict]:
    """Latency/throughput for every (K, t_max, f_clk) combination."""
    rows = []
    for K in K_list:
        for t_max in t_max_list:
            for f_clk in f_clk_list:
                rows.append(
                    {
                        "K": K,
                        "t_max": t_max,
                        "f_clk_mhz": check_real(f_clk, "f_clk_hz") / 1e6,
                        "latency_cycles": latency_cycles(K, t_max),
                        "throughput_mbps": throughput_bps(K, t_max, f_clk, bits) / 1e6,
                    }
                )
    return rows


def timing_csv(rows: list[dict]) -> str:
    header = "K,t_max,f_clk_mhz,latency_cycles,throughput_mbps"
    lines = [header] + [
        f"{r['K']},{r['t_max']},{r['f_clk_mhz']!r},{r['latency_cycles']},{r['throughput_mbps']!r}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"
