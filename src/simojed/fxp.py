"""Bit-exact golden model of the fixed-point datapath.

Word formats: iterate entries are 6-bit words with 3 fraction bits, matrix
entries 12-bit with 11 fraction bits, accumulators 15-bit with 11 fraction
bits, and the clip thresholds 12-bit with 11 fraction bits. Multiplier
outputs are exact 18-bit/14-fraction products; each partial drops its 3
fraction LSBs by truncation, the cross-term add/subtract wraps at 15 bits,
and accumulation saturates at 15 bits. Rounding is truncation toward
negative infinity throughout: that is this model's contract where the
hardware leaves a choice.

The processing-element array is a ring of N = K+1 elements. Element 1 is a
pass-through that only circulates the known reference symbol; every other
element holds one matrix row stored in cyclic order starting at its own
diagonal entry, so in cycle j it consumes column (k+j-1) mod N together with
the iterate entry arriving on the ring. After the N feed cycles, 2 cycles
flush the MAC pipeline and 1 cycle projects, giving K+4 cycles per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .model import Constellation, ReceivedBlock
from .prox import PreprocessedMatrix, ProxParams, init_s, preprocess

# Datapath formats (word bits, fraction bits).
S_BITS, S_FRAC = 6, 3
G_BITS, G_FRAC = 12, 11
ACC_BITS, ACC_FRAC = 15, 11
RHO_INV_BITS, RHO_INV_FRAC = 12, 11

WRAP = "wrap"
SATURATE = "saturate"


@dataclass(frozen=True)
class FixedPointFormat:
    word_bits: int
    frac_bits: int
    overflow: str = SATURATE

    def __post_init__(self):
        if self.word_bits < self.frac_bits + 1:
            raise ParameterError("need at least one non-fraction (sign) bit")
        if self.overflow not in (WRAP, SATURATE):
            raise ParameterError(f"unknown overflow mode {self.overflow!r}")

    @property
    def min_raw(self) -> int:
        return -(1 << (self.word_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.word_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.min_raw / (1 << self.frac_bits)

    @property
    def max_value(self) -> float:
        return self.max_raw / (1 << self.frac_bits)


S_FMT = FixedPointFormat(S_BITS, S_FRAC, SATURATE)
G_FMT = FixedPointFormat(G_BITS, G_FRAC, SATURATE)
ACC_FMT = FixedPointFormat(ACC_BITS, ACC_FRAC, SATURATE)
RHO_INV_FMT = FixedPointFormat(RHO_INV_BITS, RHO_INV_FRAC, SATURATE)


@dataclass(frozen=True)
class FxpWord:
    raw: int
    fmt: FixedPointFormat

    def __post_init__(self):
        if not (self.fmt.min_raw <= self.raw <= self.fmt.max_raw):
            raise ParameterError(f"raw {self.raw} does not fit {self.fmt}")

    @property
    def value(self) -> float:
        return self.raw / (1 << self.fmt.frac_bits)


def _wrap(raw: int, bits: int) -> int:
    half = 1 << (bits - 1)
    return ((raw + half) % (1 << bits)) - half


def _sat(raw: int, bits: int) -> int:
    half = 1 << (bits - 1)
    return max(-half, min(half - 1, raw))


def quantize(x: float, fmt: FixedPointFormat) -> FxpWord:
    """Scale, truncate toward negative infinity, then wrap or saturate."""
    raw = int(np.floor(x * (1 << fmt.frac_bits)))
    raw = _sat(raw, fmt.word_bits) if fmt.overflow == SATURATE else _wrap(raw, fmt.word_bits)
    return FxpWord(raw, fmt)


def quantize_complex(x: complex, fmt: FixedPointFormat) -> tuple[FxpWord, FxpWord]:
    return quantize(x.real, fmt), quantize(x.imag, fmt)


def mac_step(
    acc: tuple[FxpWord, FxpWord],
    g: tuple[FxpWord, FxpWord],
    s: tuple[FxpWord, FxpWord],
) -> tuple[FxpWord, FxpWord]:
    """One complex multiply-accumulate through the pipelined datapath.

    Products are exact (18b/14f); each drops 3 fraction LSBs; the cross-term
    add/subtract wraps; the accumulation saturates.
    """
    gr, gi = g[0].raw, g[1].raw
    sr, si = s[0].raw, s[1].raw
    prr = (gr * sr) >> 3
    pii = (gi * si) >> 3
    pri = (gr * si) >> 3
    pir = (gi * sr) >> 3
    cross_re = _wrap(prr - pii, ACC_BITS)
    cross_im = _wrap(pri + pir, ACC_BITS)
    re = _sat(acc[0].raw + cross_re, ACC_BITS)
    im = _sat(acc[1].raw + cross_im, ACC_BITS)
    return FxpWord(re, ACC_FMT), FxpWord(im, ACC_FMT)


def rho_inverse_word(rho_log2: int) -> FxpWord:
    """The +1/rho clip threshold as a datapath constant."""
    if rho_log2 < 1:
        raise ParameterError("projection gain must exceed 1 (rho_log2 >= 1)")
    return quantize(1.0 / (1 << rho_log2), RHO_INV_FMT)


def projection_unit(q_bar: FxpWord, rho_log2: int, inv_rho: FxpWord) -> FxpWord:
    """Clip the scaled accumulator output onto [-1, +1].

    The comparisons against +-1/rho use saturating 15-bit adds and only
    their sign bits; the pass-through path left-shifts by rho_log2
    (saturating at 15 bits, which never binds on a selected input) and keeps
    the 6 highest bits below the two redundant sign bits, i.e. 3 fraction
    bits survive.
    """
    if rho_log2 < 1:
        raise ParameterError("projection gain must exceed 1 (rho_log2 >= 1)")
    hi = _sat(q_bar.raw - inv_rho.raw, ACC_BITS)
    lo = _sat(q_bar.raw + inv_rho.raw, ACC_BITS)
    if hi >= 0:
        return FxpWord(8, S_FMT)  # +1.0
    if lo < 0:
        return FxpWord(-8, S_FMT)  # -1.0
    shifted = _sat(q_bar.raw << rho_log2, ACC_BITS)
    return FxpWord(shifted >> 8, S_FMT)


@dataclass(frozen=True)
class PeArrayConfig:
    N: int
    t_max: int
    rho_log2: int
    pipeline_stages: int = 3
    real_only: bool = False  # BPSK drops the imaginary datapath

    def __post_init__(self):
        if self.N < 2:
            raise ParameterError("need at least two processing elements")
        if not (1 <= self.rho_log2 <= 15):
            raise ParameterError("shift count must fit a 4-bit field and exceed 0")
        if self.t_max < 1:
            raise ParameterError("t_max must be at least 1")


@dataclass
class CycleRecord:
    cycle: int
    pe: int
    action: str  # mac | shift | project | idle
    col: int | None = None
    g_re: int = 0
    g_im: int = 0
    s_re: int = 0
    s_im: int = 0
    acc_re: int = 0
    acc_im: int = 0

    def to_line(self) -> str:
        if self.action == "mac":
            re_ops = f"{self.g_re}*{self.s_re}"
            im_ops = f"{self.g_im}*{self.s_im}"
        elif self.action == "shift":
            re_ops, im_ops = f"{self.s_re}", f"{self.s_im}"
        else:
            re_ops = im_ops = ""
        return f"{self.cycle},{self.pe},{self.action},{re_ops},{im_ops},{self.acc_re}:{self.acc_im}"


@dataclass
class CycleTrace:
    records: list[CycleRecord] = field(default_factory=list)

    def cycles(self) -> int:
        return max(r.cycle for r in self.records) if self.records else 0

    def to_text(self) -> str:
        header = "cycle,pe,action,re_operands,im_operands,acc"
        return "\n".join([header] + [r.to_line() for r in self.records]) + "\n"


def quantize_matrix(Ghat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix entries as raw integer arrays (real, imaginary)."""
    scale = 1 << G_FRAC
    re = np.clip(np.floor(Ghat.real * scale), G_FMT.min_raw, G_FMT.max_raw).astype(np.int64)
    im = np.clip(np.floor(Ghat.imag * scale), G_FMT.min_raw, G_FMT.max_raw).astype(np.int64)
    return re, im


def quantize_iterate(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterate entries as raw integer arrays (real, imaginary)."""
    scale = 1 << S_FRAC
    re = np.clip(np.floor(s.real * scale), S_FMT.min_raw, S_FMT.max_raw).astype(np.int64)
    im = np.clip(np.floor(s.imag * scale), S_FMT.min_raw, S_FMT.max_raw).astype(np.int64)
    return re, im


def pe_array_iteration(
    s_in: tuple[np.ndarray, np.ndarray],
    Ghat_q: tuple[np.ndarray, np.ndarray],
    cfg: PeArrayConfig,
    s_check_q: tuple[int, int],
) -> tuple[tuple[np.ndarray, np.ndarray], CycleTrace]:
    """Cycle-accurate simulation of one array iteration.

    ``s_in``/``Ghat_q`` carry raw integers. Element 0 is the pass-through
    reference element; its output is pinned to ``s_check_q``. Iterate
    entries circulate element k -> element k-1 each feed cycle while element
    k consumes its row in cyclic order starting at the diagonal.
    """
    N = cfg.N
    gre, gim = Ghat_q
    sre = np.array(s_in[0], dtype=np.int64)
    sim = np.array(s_in[1], dtype=np.int64)
    if gre.shape != (N, N) or len(sre) != N:
        raise DimensionError("matrix/vector sizes do not match the array size")
    if cfg.real_only:
        sim = np.zeros_like(sim)

    trace = CycleTrace()
    inv_rho = rho_inverse_word(cfg.rho_log2)
    acc = [(FxpWord(0, ACC_FMT), FxpWord(0, ACC_FMT)) for _ in range(N)]
    ring_re, ring_im = sre.copy(), sim.copy()

    for j in range(N):  # feed cycles 1..N
        cycle = j + 1
        trace.records.append(
            CycleRecord(cycle, 0, "shift", s_re=int(ring_re[0]), s_im=int(ring_im[0]))
        )
        for k in range(1, N):
            col = (k + j) % N
            g = (FxpWord(int(gre[k, col]), G_FMT), FxpWord(int(gim[k, col]), G_FMT))
            s = (FxpWord(int(ring_re[k]), S_FMT), FxpWord(int(ring_im[k]), S_FMT))
            acc[k] = mac_step(acc[k], g, s)
            trace.records.append(
                CycleRecord(
                    cycle,
                    k,
                    "mac",
                    col=col,
                    g_re=g[0].raw,
                    g_im=g[1].raw,
                    s_re=s[0].raw,
                    s_im=s[1].raw,
                    acc_re=acc[k][0].raw,
                    acc_im=acc[k][1].raw,
                )
            )
        # Each element hands its iterate entry to the previous one.
        ring_re = np.roll(ring_re, -1)
        ring_im = np.roll(ring_im, -1)

    flush = cfg.pipeline_stages - 1
    for f in range(flush):  # pipeline flush
        cycle = N + 1 + f
        for k in range(N):
            ar, ai = (acc[k][0].raw, acc[k][1].raw) if k else (0, 0)
            trace.records.append(CycleRecord(cycle, k, "idle", acc_re=ar, acc_im=ai))

    cycle = N + flush + 1  # projection cycle
    out_re = np.empty(N, dtype=np.int64)
    out_im = np.zeros(N, dtype=np.int64)
    out_re[0], out_im[0] = s_check_q
    trace.records.append(CycleRecord(cycle, 0, "idle", s_re=int(out_re[0]), s_im=int(out_im[0])))
    for k in range(1, N):
        out_re[k] = projection_unit(acc[k][0], cfg.rho_log2, inv_rho).raw
        if not cfg.real_only:
            out_im[k] = projection_unit(acc[k][1], cfg.rho_log2, inv_rho).raw
        trace.records.append(
            CycleRecord(cycle, k, "project", acc_re=acc[k][0].raw, acc_im=acc[k][1].raw,
                        s_re=int(out_re[k]), s_im=int(out_im[k]))
        )
    return (out_re, out_im), trace


def direct_iteration(
    s_in: tuple[np.ndarray, np.ndarray],
    Ghat_q: tuple[np.ndarray, np.ndarray],
    cfg: PeArrayConfig,
    s_check_q: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Non-scheduled fixed-point reference for one iteration.

    Takes one block's raw integers (iterate entries of shape (N,), matrix
    entries (N, N)) or a stack of them with any leading trial axes, all run
    through the same array configuration. Row k accumulates its products
    in the same diagonal-start cyclic order as the array (saturating
    accumulation is order-dependent, so the order is part of the datapath
    contract). All truncated cross-terms are order-free and computed in one
    shot; only the saturating accumulation walks the cycles. Both steps
    work in place on buffers allocated once per call, because a fresh
    temporary per step dominates the cost of a large stack.
    """
    N = cfg.N
    gre, gim = Ghat_q
    sre = np.asarray(s_in[0], dtype=np.int64)
    sim = np.zeros_like(sre) if cfg.real_only else np.asarray(s_in[1], dtype=np.int64)
    sre, sim = sre[..., None, :], sim[..., None, :]
    shape = np.broadcast_shapes(np.shape(gre), sre.shape)
    cross = np.empty((2,) + shape, dtype=np.int64)  # (re, im) of every product pair
    part = np.empty(shape, dtype=np.int64)
    re, im = cross
    np.right_shift(np.multiply(gre, sre, out=re), 3, out=re)
    re -= np.right_shift(np.multiply(gim, sim, out=part), 3, out=part)
    np.right_shift(np.multiply(gre, sim, out=im), 3, out=im)
    im += np.right_shift(np.multiply(gim, sre, out=part), 3, out=part)
    half = np.int64(1 << (ACC_BITS - 1))
    cross += half  # wrap at ACC_BITS
    cross &= np.int64((1 << ACC_BITS) - 1)
    cross -= half
    rows = np.arange(N)
    # Row k consumes column (k+j) mod N in cycle j: row j of cycle_cols
    # holds those columns' offsets in the flattened (row, column) axes.
    cycle_cols = rows[None, :] * N + (rows[None, :] + rows[:, None]) % N
    flat = cross.reshape(*cross.shape[:-2], N * N)
    acc = np.zeros(flat.shape[:-1] + (N,), dtype=np.int64)
    step = np.empty_like(acc)
    for cols in cycle_cols:  # in range: "clip" lets take write straight into step
        acc += np.take(flat, cols, axis=-1, out=step, mode="clip")
        np.maximum(acc, -half, out=acc)  # saturate at ACC_BITS
        np.minimum(acc, half - 1, out=acc)
    inv = rho_inverse_word(cfg.rho_log2).raw
    out_re, out_im = _project_arr(acc, cfg.rho_log2, inv)
    if cfg.real_only:
        out_im = np.zeros_like(out_im)
    out_re[..., 0], out_im[..., 0] = s_check_q
    return out_re, out_im


def _sat_arr(v: np.ndarray, bits: int) -> np.ndarray:
    half = 1 << (bits - 1)
    return np.minimum(np.maximum(v, -half), half - 1)


def _project_arr(qbar: np.ndarray, rho_log2: int, inv_raw: int) -> np.ndarray:
    hi = _sat_arr(qbar - inv_raw, ACC_BITS)
    lo = _sat_arr(qbar + inv_raw, ACC_BITS)
    shifted = _sat_arr(qbar << rho_log2, ACC_BITS) >> 8
    return np.where(hi >= 0, 8, np.where(lo < 0, -8, shifted)).astype(np.int64)


def quantize_block(
    G: np.ndarray | PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
    s_check: complex | None = None,
) -> tuple[PeArrayConfig, tuple, tuple, tuple[int, int]]:
    """The array for a block's Gram matrix ``G`` (or a stack of them with a
    leading trial axis) and its raw-integer (real, imaginary) inputs: the
    iteration matrix, the initial iterate and the reference symbol. A
    ``preprocess(G, params)`` result in place of ``G`` is used as given.

    Preprocessing runs in floating point (it happens off the array); the
    iterate and the reference are normalized so the hull clip sits at +-1
    per component before they are quantized.
    """
    if params.rho_log2 < 1:
        raise ParameterError("the datapath needs a projection gain above 1 (rho_log2 >= 1)")
    pre = G if isinstance(G, PreprocessedMatrix) else preprocess(G, params)
    cfg = PeArrayConfig(
        N=pre.G.shape[-1], t_max=params.t_max, rho_log2=params.rho_log2, real_only=c.im_bound == 0.0
    )
    s_check = c.points[0] if s_check is None else s_check
    bound = c.re_bound  # per-component hull half-width
    scq = quantize_complex(complex(s_check / bound), S_FMT)
    sq = quantize_iterate(init_s(pre.G, s_check) / bound)
    return cfg, quantize_matrix(pre.Ghat), sq, (scq[0].raw, scq[1].raw)


def solve_fixed_stack(
    G: np.ndarray | PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
    s_check: complex | None = None,
) -> np.ndarray:
    """Full fixed-point detection pass over the Gram matrices of a stack of
    blocks (T, N, N), or of one block (N, N), or over their ``preprocess``
    result.

    The stack is quantized by ``quantize_block`` and iterated on the integer
    datapath; hard decisions come from the output sign bits. Returns the
    detected symbol vectors, one row per trial.
    """
    s_check = c.points[0] if s_check is None else s_check
    cfg, Gq, state, sc_raw = quantize_block(G, c, params, s_check)
    for _ in range(params.t_max):
        state = direct_iteration(state, Gq, cfg, sc_raw)
    return _sign_decisions(state, c, s_check)


def solve_fixed(
    block: ReceivedBlock,
    c: Constellation,
    params: ProxParams,
    s_check: complex | None = None,
) -> np.ndarray:
    """``solve_fixed_stack`` on one block."""
    return solve_fixed_stack(block.G, c, params, s_check)


def _sign_decisions(state: tuple[np.ndarray, np.ndarray], c: Constellation, s_check: complex) -> np.ndarray:
    """Hard decisions from the sign bits of the final iterate."""
    out = c.decide(*state)
    out[..., 0] = s_check
    return out


def latency_cycles(K: int, t_max: int) -> int:
    """Clock cycles to finish a block: K+4 per iteration."""
    if K < 1 or t_max < 1:
        raise ParameterError("K and t_max must be positive")
    return t_max * (K + 4)


def throughput_bps(K: int, t_max: int, f_clk_hz: float, bits_per_symbol: int) -> float:
    """Detected payload bits per second: K data slots per block."""
    if K < 1 or t_max < 1 or f_clk_hz <= 0 or bits_per_symbol < 1:
        raise ParameterError("all inputs must be positive")
    return bits_per_symbol * K * f_clk_hz / (t_max * (K + 4))
