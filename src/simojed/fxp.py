"""Bit-exact golden model of the fixed-point datapath, on int64 arrays.

Word formats: iterate entries are 6-bit words with 3 fraction bits, matrix
entries 12-bit with 11 fraction bits, accumulators 15-bit with 11 fraction
bits, and the clip thresholds 12-bit with 11 fraction bits. Multiplier
outputs are exact 18-bit/14-fraction products; each partial drops its 3
fraction LSBs by truncation, the cross-term add/subtract wraps at 15 bits,
and accumulation saturates at 15 bits. Rounding is truncation toward
negative infinity throughout: that is this model's contract where the
hardware leaves a choice.

The cross-term wrap almost never binds. For in-range 12-bit matrix and
6-bit iterate words each truncated partial lies in [-8188, 8192], so the
real cross-term (a difference of two) stays in [-16380, 16380] and never
wraps. The imaginary one (a sum) leaves 15 bits only when both partials
are 8192: at the (real, imaginary) words g = (-2048, -2048) and
s = (-32, -32), the values -1 - 1j and -4 - 4j, where 16384 wraps to
-16384. The products are bilinear and truncation is monotone, so the 16
corners of the word ranges bound every cross-term.

Every word is a raw integer in an int64 array, and each arithmetic rule has
one definition: ``quantize_array`` (scale, truncate, saturate),
``_cross_terms`` (truncated products and the wrapping cross-term),
``mac_step`` (one multiply-accumulate per element) and ``projection_unit``
(the hull clip). ``direct_iteration`` runs a whole stack of blocks at once;
``pe_array_iteration`` replays one block cycle by cycle for the trace.

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

FLUSH_CYCLES = 2  # a 3-stage MAC pipeline drains in 2 cycles after the last feed

_HALF = np.int64(1 << (ACC_BITS - 1))


def quantize_array(z, word_bits: int, frac_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw (real, imaginary) int64 words of complex values: scale by
    2**frac_bits, truncate toward negative infinity, saturate at
    ``word_bits``."""
    z = np.asarray(z)
    half = 1 << (word_bits - 1)
    raw = np.floor(np.stack([z.real, z.imag]) * (1 << frac_bits))
    re, im = np.clip(raw, -half, half - 1).astype(np.int64)
    return re, im


def _cross_terms(g: tuple, s: tuple) -> np.ndarray:
    """Products g * s of raw complex words, (re, im) stacked on a new leading
    axis: each exact 18b/14f partial drops its 3 fraction LSBs and the
    cross-term add/subtract wraps at ACC_BITS. Works in place on buffers
    allocated once per call, because a fresh temporary per step dominates
    the cost of a large stack."""
    (gre, gim), (sre, sim) = g, s
    shape = np.broadcast_shapes(*(np.shape(a) for a in (gre, gim, sre, sim)))
    cross = np.empty((2,) + shape, dtype=np.int64)
    part = np.empty(shape, dtype=np.int64)
    re, im = cross[0, ...], cross[1, ...]  # views, also for scalar words
    np.right_shift(np.multiply(gre, sre, out=re), 3, out=re)
    re -= np.right_shift(np.multiply(gim, sim, out=part), 3, out=part)
    np.right_shift(np.multiply(gre, sim, out=im), 3, out=im)
    im += np.right_shift(np.multiply(gim, sre, out=part), 3, out=part)
    cross += _HALF  # wrap at ACC_BITS
    cross &= np.int64((1 << ACC_BITS) - 1)
    cross -= _HALF
    return cross


def _saturate(acc: np.ndarray) -> np.ndarray:
    """Saturate accumulator words at ACC_BITS, in place."""
    np.maximum(acc, -_HALF, out=acc)
    return np.minimum(acc, _HALF - 1, out=acc)


def mac_step(acc: tuple, g: tuple, s: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One complex multiply-accumulate per element through the pipelined
    datapath, on (real, imaginary) pairs of raw-integer arrays.

    Products are exact (18b/14f); each drops 3 fraction LSBs; the cross-term
    add/subtract wraps; the accumulation saturates.
    """
    cross = _cross_terms(g, s)
    cross += np.asarray(acc, dtype=np.int64)
    re, im = _saturate(cross)
    return re, im


def projection_unit(q_bar, rho_log2: int) -> np.ndarray:
    """Clip raw accumulator outputs onto [-1, +1] as raw iterate words.

    The comparisons against the +-1/rho threshold use saturating 15-bit adds
    and only their sign bits, which saturation never flips: they equal
    plain comparisons. The pass-through path left-shifts by rho_log2
    (saturating at 15 bits, which never binds on a selected input) and keeps
    the 6 highest bits below the two redundant sign bits, i.e. 3 fraction
    bits survive. ``rho_log2`` is a gain ``PeArrayConfig`` accepts.
    """
    inv_rho = (1 << RHO_INV_FRAC) >> rho_log2  # the 12-bit 1/rho word
    q_bar = np.asarray(q_bar, dtype=np.int64)
    return np.where(q_bar >= inv_rho, 8, np.where(q_bar < -inv_rho, -8, (q_bar << rho_log2) >> 8))


@dataclass(frozen=True)
class PeArrayConfig:
    N: int
    t_max: int
    rho_log2: int
    real_only: bool = False  # BPSK drops the imaginary datapath

    def __post_init__(self):
        if self.N < 2:
            raise ParameterError("need at least two processing elements")
        if not (1 <= self.rho_log2 <= 15):
            raise ParameterError(
                "the datapath needs rho_log2 in 1..15 (a 4-bit shift count above 0), "
                f"not {self.rho_log2}"
            )
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
    k consumes its row in cyclic order starting at the diagonal, so in feed
    cycle j element k meets column (k+j) mod N of its row and the iterate
    entry of that column. Each feed cycle is one ``mac_step`` over elements
    1..N-1 and the projection cycle one ``projection_unit`` call.
    """
    N = cfg.N
    gre, gim = (np.asarray(a, dtype=np.int64) for a in Ghat_q)
    sre = np.asarray(s_in[0], dtype=np.int64)
    sim = np.zeros_like(sre) if cfg.real_only else np.asarray(s_in[1], dtype=np.int64)
    if gre.shape != (N, N) or gim.shape != (N, N) or sre.shape != (N,) or sim.shape != (N,):
        raise DimensionError("matrix/vector sizes do not match the array size")

    pes = np.arange(1, N)
    cols = (pes + np.arange(N)[:, None]) % N  # cols[j, k-1]: element k's column in feed cycle j
    g_re, g_im, s_re, s_im = gre[pes, cols], gim[pes, cols], sre[cols], sim[cols]
    acc = (np.zeros(N - 1, dtype=np.int64),) * 2
    trace = CycleTrace()
    records = trace.records
    for j in range(N):  # feed cycles 1..N
        cycle = j + 1
        acc = mac_step(acc, (g_re[j], g_im[j]), (s_re[j], s_im[j]))
        records.append(CycleRecord(cycle, 0, "shift", s_re=int(sre[j]), s_im=int(sim[j])))
        ops = np.stack([cols[j], g_re[j], g_im[j], s_re[j], s_im[j], *acc], axis=1).tolist()
        records.extend(CycleRecord(cycle, k, "mac", *row) for k, row in enumerate(ops, 1))

    acc_rows = np.stack(acc, axis=1).tolist()
    for cycle in range(N + 1, N + 1 + FLUSH_CYCLES):  # pipeline flush
        records.append(CycleRecord(cycle, 0, "idle"))
        records.extend(
            CycleRecord(cycle, k, "idle", acc_re=ar, acc_im=ai)
            for k, (ar, ai) in enumerate(acc_rows, 1)
        )

    cycle = N + FLUSH_CYCLES + 1  # projection cycle
    out = np.empty((2, N), dtype=np.int64)
    out[:, 1:] = projection_unit(np.stack(acc), cfg.rho_log2)
    if cfg.real_only:
        out[1] = 0
    out[:, 0] = s_check_q
    out_re, out_im = out
    records.append(CycleRecord(cycle, 0, "idle", s_re=int(out_re[0]), s_im=int(out_im[0])))
    projected = zip(acc_rows, out_re[1:].tolist(), out_im[1:].tolist())
    records.extend(
        CycleRecord(cycle, k, "project", acc_re=ar, acc_im=ai, s_re=sr, s_im=si)
        for k, ((ar, ai), sr, si) in enumerate(projected, 1)
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
    shot; only the saturating accumulation walks the cycles, in place on
    buffers allocated once per call.
    """
    N = cfg.N
    sre = np.asarray(s_in[0], dtype=np.int64)
    sim = np.zeros_like(sre) if cfg.real_only else np.asarray(s_in[1], dtype=np.int64)
    cross = _cross_terms(Ghat_q, (sre[..., None, :], sim[..., None, :]))
    rows = np.arange(N)
    # Row k consumes column (k+j) mod N in cycle j: row j of cycle_cols
    # holds those columns' offsets in the flattened (row, column) axes.
    cycle_cols = rows[None, :] * N + (rows[None, :] + rows[:, None]) % N
    flat = cross.reshape(*cross.shape[:-2], N * N)
    acc = np.zeros(flat.shape[:-1] + (N,), dtype=np.int64)
    step = np.empty_like(acc)
    for cols in cycle_cols:  # in range: "clip" lets take write straight into step
        acc += np.take(flat, cols, axis=-1, out=step, mode="clip")
        _saturate(acc)
    out_re, out_im = projection_unit(acc, cfg.rho_log2)
    if cfg.real_only:
        out_im = np.zeros_like(out_im)
    out_re[..., 0], out_im[..., 0] = s_check_q
    return out_re, out_im


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
    The array configuration is checked before anything is preprocessed.

    Preprocessing runs in floating point (it happens off the array); the
    iterate and the reference are normalized so the hull clip sits at +-1
    per component before they are quantized.
    """
    given = isinstance(G, PreprocessedMatrix)
    shape = np.shape(G.G if given else G)
    cfg = PeArrayConfig(
        N=shape[-1] if shape else 0,
        t_max=params.t_max,
        rho_log2=params.rho_log2,
        real_only=c.im_bound == 0.0,
    )
    pre = G if given else preprocess(G, params)
    s_check = c.points[0] if s_check is None else s_check
    bound = c.re_bound  # per-component hull half-width
    sc_re, sc_im = quantize_array(s_check / bound, S_BITS, S_FRAC)
    sq = quantize_array(init_s(pre.G, s_check) / bound, S_BITS, S_FRAC)
    return cfg, quantize_array(pre.Ghat, G_BITS, G_FRAC), sq, (int(sc_re), int(sc_im))


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
