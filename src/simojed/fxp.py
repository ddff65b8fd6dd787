"""Bit-exact golden model of the fixed-point datapath, on int32 words.

Word formats: iterate entries are 6-bit words with 3 fraction bits, matrix
entries 12-bit with 11 fraction bits, accumulators 15-bit with 11 fraction
bits, and the clip thresholds 12-bit with 11 fraction bits. Multiplier
outputs are exact 18-bit/14-fraction products; each partial drops its 3
fraction LSBs by truncation, the cross-term add/subtract wraps at 15 bits,
and accumulation saturates at 15 bits. Rounding is truncation toward
negative infinity throughout: that is this model's contract where the
hardware leaves a choice.

Every intermediate fits in int32: the largest product is
(-2048) * (-32) = 2**16, an accumulator plus a cross-term stays within
2**15, and the projection's left shift of a 15-bit word by at most 15 is
at most 2**29.

The cross-term wrap binds at one word corner only, so only the imaginary
cross-term is wrapped. For in-range 12-bit matrix and 6-bit iterate words
each truncated partial lies in [-8188, 8192], so the real cross-term (a
difference of two) stays in [-16380, 16380] and never wraps. The imaginary
one (a sum) leaves 15 bits only when both partials are 8192: at the (real,
imaginary) words g = (-2048, -2048) and s = (-32, -32), the values -1 - 1j
and -4 - 4j, where 16384 wraps to -16384. The products are bilinear and
truncation is monotone, so the 16 corners of the word ranges bound every
cross-term. The argument holds only for in-range words, so
``direct_iteration`` and ``pe_array_iteration`` reject words outside their
formats.

Every word is a raw integer: ``quantize_block`` writes int32 arrays and
``direct_iteration`` keeps its iterate and buffers in int32, while the
cycle trace keeps int64 grids. Each arithmetic rule has one definition:
``quantize_array`` (scale, truncate, saturate), ``_cross_terms`` (truncated
products and the wrapping cross-term), ``_saturate`` (the accumulator
clamp) and ``projection_unit`` (the hull clip). Both iterations form all
their cross-terms in one ``_cross_terms`` call and walk only the saturating
adds cycle by cycle. ``direct_iteration`` runs a whole stack of blocks at
once, and ``solve_fixed_stack`` (quantize, iterate, slice) is the one
fixed-point detection pass; ``pe_array_iteration`` replays one block cycle
by cycle for the trace.

The processing-element array is a ring of N = K+1 elements. Element 1 is a
pass-through that only circulates the known reference symbol; every other
element holds one matrix row stored in cyclic order starting at its own
diagonal entry, so in cycle j it consumes column (k+j-1) mod N together with
the iterate entry arriving on the ring. After the N feed cycles, 2 cycles
flush the MAC pipeline and 1 cycle projects, giving K+4 cycles per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .model import Constellation, check_int, check_real
from .prox import PreprocessedMatrix, ProxParams, init_s

# Datapath formats (word bits, fraction bits).
S_BITS, S_FRAC = 6, 3
G_BITS, G_FRAC = 12, 11
ACC_BITS, ACC_FRAC = 15, 11
RHO_INV_BITS, RHO_INV_FRAC = 12, 11

FLUSH_CYCLES = 2  # a 3-stage MAC pipeline drains in 2 cycles after the last feed

# Typed int32 bounds keep int32 words int32, and spare ndarray.clip the range
# lookup it makes for a Python-int bound, which every per-cycle saturation would pay.
_ACC_MIN, _ACC_MAX = np.int32(-(1 << (ACC_BITS - 1))), np.int32((1 << (ACC_BITS - 1)) - 1)


def quantize_array(z, word_bits: int, frac_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw (real, imaginary) int32 words of complex values: scale by
    2**frac_bits, truncate toward negative infinity, saturate at
    ``word_bits`` (infinities too). ``word_bits`` is an integer in 1..32
    and ``frac_bits`` one in 0..32, else a ``ParameterError``; NaN has no
    word: ``ParameterError``."""
    word_bits, frac_bits = check_int(word_bits, "word_bits", 1), check_int(frac_bits, "frac_bits")
    for name, bits in (("word_bits", word_bits), ("frac_bits", frac_bits)):
        if bits > 32:
            raise ParameterError(f"{name} must be at most 32 for int32 words, not {bits}")
    z = np.asarray(z)
    half = 1 << (word_bits - 1)
    raw = np.stack([z.real, z.imag], dtype=np.float64)
    raw *= 1 << frac_bits
    np.floor(raw, out=raw)
    if np.isnan(raw).any():
        raise ParameterError("cannot quantize NaN")
    re, im = np.clip(raw, -half, half - 1, out=raw).astype(np.int32)
    return re, im


def _cross_terms(g: tuple, s: tuple) -> np.ndarray:
    """Products g * s of in-range raw complex words, (re, im) stacked on a
    new leading axis of the words' integer type: each exact 18b/14f partial
    drops its 3 fraction LSBs and the cross-term add/subtract wraps at
    ACC_BITS. Only the imaginary sum can wrap (see the module docstring), so
    only it is sign-extended from ACC_BITS. Works in place on buffers
    allocated once per call, because a fresh temporary per step dominates
    the cost of a large stack."""
    (gre, gim), (sre, sim) = g, s
    shape = np.broadcast(gre, gim, sre, sim).shape
    dtype = np.result_type(gre, gim, sre, sim)
    cross = np.empty((2,) + shape, dtype=dtype)
    part = np.empty(shape, dtype=dtype)
    re, im = cross[0, ...], cross[1, ...]  # views, also for scalar words
    np.right_shift(np.multiply(gre, sre, out=re), 3, out=re)
    re -= np.right_shift(np.multiply(gim, sim, out=part), 3, out=part)
    np.right_shift(np.multiply(gre, sim, out=im), 3, out=im)
    im += np.right_shift(np.multiply(gim, sre, out=part), 3, out=part)
    unused = 8 * dtype.itemsize - ACC_BITS  # bits above the accumulator word
    im <<= unused
    im >>= unused
    return cross


def _saturate(acc: np.ndarray) -> np.ndarray:
    """Saturate accumulator words at ACC_BITS, in place."""
    return acc.clip(_ACC_MIN, _ACC_MAX, out=acc)


def projection_unit(q_bar, rho_log2: int) -> np.ndarray:
    """Clip raw accumulator outputs onto [-1, +1] as raw iterate words.

    The comparisons against the +-1/rho threshold use saturating 15-bit adds
    and only their sign bits, which saturation never flips: they equal
    plain comparisons. The pass-through path left-shifts by rho_log2
    (saturating at 15 bits, which never binds on a selected input) and keeps
    the 6 highest bits below the two redundant sign bits, i.e. 3 fraction
    bits survive. ``rho_log2`` must be a gain ``check_datapath_gain``
    accepts, else a ``ParameterError``. The output keeps the input's
    integer type.

    The lower clip is a floor at -8: at and above -1/rho the pass-through
    word is at least -8, and below it the shifted word is at most -9 (or
    -16 when the 1/rho word is 0, at rho_log2 >= 12).
    """
    rho_log2 = check_datapath_gain(rho_log2)
    inv_rho = (1 << RHO_INV_FRAC) >> rho_log2  # the 12-bit 1/rho word
    q_bar = np.asarray(q_bar)
    return np.where(q_bar >= inv_rho, 8, np.maximum((q_bar << rho_log2) >> 8, -8))


def check_datapath_gain(rho_log2: int) -> int:
    """``rho_log2`` as a Python int; a ``ParameterError`` unless the datapath can shift by it."""
    rho_log2 = check_int(rho_log2, "rho_log2")
    if not 1 <= rho_log2 <= 15:
        raise ParameterError(
            f"the datapath needs rho_log2 in 1..15 (a 4-bit shift count above 0), not {rho_log2}"
        )
    return rho_log2


@dataclass(frozen=True)
class PeArrayConfig:
    N: int
    t_max: int
    rho_log2: int
    real_only: bool = False  # BPSK drops the imaginary datapath

    def __post_init__(self):
        object.__setattr__(self, "N", check_int(self.N, "the number of processing elements N", 2))
        object.__setattr__(self, "t_max", check_int(self.t_max, "t_max", 1))
        object.__setattr__(self, "rho_log2", check_datapath_gain(self.rho_log2))


ACTIONS = ("idle", "shift", "mac", "project")
IDLE, SHIFT, MAC, PROJECT = range(len(ACTIONS))


@dataclass(frozen=True)
class CycleTrace:
    """One array iteration, cycle by cycle: every field is an int64 grid of
    shape (cycles, N), row ``cycle - 1`` and column ``pe``. ``action``
    indexes ``ACTIONS``; ``col`` is a MAC's matrix column and ``g_*`` its
    matrix word; ``s_*`` holds a shift's ring entry, a MAC's iterate
    operand, a projection's output and, in the last row, element 0's pilot;
    ``acc_*`` holds the accumulators in every cycle. Other cells hold 0.
    """

    action: np.ndarray
    col: np.ndarray
    g_re: np.ndarray
    g_im: np.ndarray
    s_re: np.ndarray
    s_im: np.ndarray
    acc_re: np.ndarray
    acc_im: np.ndarray

    def cycles(self) -> int:
        return len(self.action)

    def to_text(self) -> str:
        """A header and one ``cycle,pe,action,re_operands,im_operands,acc``
        line per element per cycle, in (cycle, pe) order."""
        lines = ["cycle,pe,action,re_operands,im_operands,acc"]
        n = self.action.shape[1]
        grids = (self.action, self.g_re, self.g_im, self.s_re, self.s_im, self.acc_re, self.acc_im)
        for i, (a, gr, gi, sr, si, ar, ai) in enumerate(zip(*(g.ravel().tolist() for g in grids))):
            if a == MAC:
                ops = f"{gr}*{sr},{gi}*{si}"
            elif a == SHIFT:
                ops = f"{sr},{si}"
            else:
                ops = ","
            lines.append(f"{i // n + 1},{i % n},{ACTIONS[a]},{ops},{ar}:{ai}")
        return "\n".join(lines) + "\n"


def _checked_words(
    s_in: tuple, Ghat_q: tuple, cfg: PeArrayConfig, s_check_q: tuple[int, int]
) -> tuple[np.ndarray, ...]:
    """The raw (gre, gim, sre, sim) words as int32 arrays, with the iterate's
    imaginary part zero on a real-only array, and the (real, imaginary)
    pilot words. Shapes must match the array size (leading trial axes
    allowed), the pilot must be one pair of words, and every word an
    integer in its format: the imaginary-only wrap of ``_cross_terms`` is
    exact only for in-range words."""
    N = cfg.N
    gre, gim = (np.asarray(a) for a in Ghat_q)
    sre = np.asarray(s_in[0])
    sim = np.zeros_like(sre) if cfg.real_only else np.asarray(s_in[1])
    shapes_match = sre.shape[-1:] == (N,) and sim.shape == sre.shape
    if not (shapes_match and gre.shape == gim.shape == sre.shape + (N,)):
        raise DimensionError("matrix/vector sizes do not match the array size")
    pilot = tuple(np.asarray(w) for w in s_check_q) if np.iterable(s_check_q) else ()
    if len(pilot) != 2 or any(w.ndim for w in pilot):
        raise ParameterError(f"the pilot must be one (real, imaginary) pair of words, not {s_check_q!r}")
    for what, bits, words in (
        ("matrix", G_BITS, (gre, gim)),
        ("iterate", S_BITS, (sre, sim)),
        ("pilot", S_BITS, pilot),
    ):
        half = 1 << (bits - 1)
        for w in words:
            # A NaN or a fraction would pass the range test and be cast to a wrong word.
            if w.dtype.kind not in "iu":
                raise ParameterError(f"{what} words must be integers, not {w.dtype}")
            if w.min(initial=0) < -half or w.max(initial=0) >= half:
                raise ParameterError(
                    f"{what} words must be {bits}-bit integers in [{-half}, {half - 1}]"
                )
    return (*(w.astype(np.int32, copy=False) for w in (gre, gim, sre, sim)), pilot)


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
    entry of that column. The operands of all N feed cycles are gathered
    into the trace's grids and their cross-terms formed in one call; each
    feed cycle then only adds its cross-terms into elements 1..N-1's
    accumulators and saturates them, and the projection cycle is one
    ``projection_unit`` call.
    """
    N = cfg.N
    if np.ndim(s_in[0]) != 1:
        raise DimensionError("matrix/vector sizes do not match the array size")
    gre, gim, sre, sim, pilot = _checked_words(s_in, Ghat_q, cfg, s_check_q)

    grid = np.zeros((8, N + FLUSH_CYCLES + 1, N), dtype=np.int64)  # CycleTrace's fields
    action, col, g, s, acc = grid[0], grid[1], grid[2:4], grid[4:6], grid[6:]
    pes = np.arange(N)
    # cols[j, k]: the column element k meets in feed cycle j; element 0
    # shifts that column's ring entry on.
    cols = (pes + pes[:, None]) % N
    action[:N] = MAC
    action[:N, 0] = SHIFT
    action[-1, 1:] = PROJECT
    col[:N, 1:] = cols[:, 1:]
    g[:, :N, 1:] = gre[pes[1:], cols[:, 1:]], gim[pes[1:], cols[:, 1:]]
    s[:, :N] = sre[cols], sim[cols]
    # Cycle-major int32 sums, so that each cycle adds and saturates one
    # contiguous row; a lone cross-term fits ACC_BITS.
    sums = _cross_terms(g[:, :N, 1:], s[:, :N, 1:]).swapaxes(0, 1).astype(np.int32, order="C")
    for j in range(1, N):  # feed cycles 2..N
        _saturate(np.add(sums[j - 1], sums[j], out=sums[j]))
    acc[:, :N, 1:] = sums.swapaxes(0, 1)
    acc[:, N:] = acc[:, N - 1 : N]  # the sums stay through the flush and projection

    s[:, -1, 1:] = projection_unit(acc[:, -1, 1:], cfg.rho_log2)
    if cfg.real_only:
        s[1, -1] = 0
    s[:, -1, 0] = pilot
    out_re, out_im = s[:, -1].copy()
    return (out_re, out_im), CycleTrace(*grid)


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
    int32 buffers allocated once per call.
    """
    N = cfg.N
    gre, gim, sre, sim, pilot = _checked_words(s_in, Ghat_q, cfg, s_check_q)
    cross = _cross_terms((gre, gim), (sre[..., None, :], sim[..., None, :]))
    rows = np.arange(N)
    # Row k consumes column (k+j) mod N in cycle j: row j of cycle_cols
    # holds those columns' offsets in the flattened (row, column) axes.
    cycle_cols = rows[None, :] * N + (rows[None, :] + rows[:, None]) % N
    flat = cross.reshape(*cross.shape[:-2], N * N)
    acc = np.zeros(flat.shape[:-1] + (N,), dtype=np.int32)
    step = np.empty_like(acc)
    for cols in cycle_cols:  # in range: "clip" lets take write straight into step
        acc += np.take(flat, cols, axis=-1, out=step, mode="clip")
        _saturate(acc)
    out_re, out_im = projection_unit(acc, cfg.rho_log2)
    if cfg.real_only:
        out_im = np.zeros_like(out_im)
    out_re[..., 0], out_im[..., 0] = pilot
    return out_re, out_im


def quantize_block(
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
) -> tuple[PeArrayConfig, tuple, tuple, tuple[int, int]]:
    """The array for a ``preprocess`` result (of one block's Gram matrix or
    of a stack of them with a leading trial axis) and its raw-integer
    (real, imaginary) inputs: the iteration matrix, the initial iterate and
    the pilot ``c.points[0]``.

    Preprocessing runs in floating point (it happens off the array); the
    iterate and the reference are normalized so the hull clip sits at +-1
    per component before they are quantized.
    """
    cfg = PeArrayConfig(
        N=pre.G.shape[-1],
        t_max=params.t_max,
        rho_log2=params.rho_log2,
        real_only=c.im_bound == 0.0,
    )
    bound = c.re_bound  # per-component hull half-width
    sc_re, sc_im = quantize_array(c.points[0] / bound, S_BITS, S_FRAC)
    sq = quantize_array(init_s(pre.G, c) / bound, S_BITS, S_FRAC)
    return cfg, quantize_array(pre.Ghat, G_BITS, G_FRAC), sq, (int(sc_re), int(sc_im))


def solve_fixed_stack(
    pre: PreprocessedMatrix,
    c: Constellation,
    params: ProxParams,
) -> np.ndarray:
    """Full fixed-point detection pass over the ``preprocess`` result of a
    stack of blocks' Gram matrices (T, N, N), or of one block's (N, N).

    The stack is quantized by ``quantize_block`` and iterated on the integer
    datapath; hard decisions come from the output sign bits. Returns the
    detected symbol vectors, one row per trial.
    """
    cfg, Gq, state, sc_raw = quantize_block(pre, c, params)
    for _ in range(params.t_max):
        state = direct_iteration(state, Gq, cfg, sc_raw)
    return c.decide(*state)


def latency_cycles(K: int, t_max: int) -> int:
    """Clock cycles to finish a block: per iteration, the rows of
    ``pe_array_iteration``'s trace (N = K+1 feeds, the flush, the projection)."""
    return check_int(t_max, "t_max", 1) * (check_int(K, "K", 1) + 1 + FLUSH_CYCLES + 1)


def throughput_bps(K: int, t_max: int, f_clk_hz: float, bits: int) -> float:
    """Detected payload bits per second: K data slots per block."""
    f_clk_hz = check_real(f_clk_hz, "f_clk_hz")
    if not 0 < f_clk_hz < np.inf:
        raise ParameterError(f"f_clk_hz must be finite and positive, not {f_clk_hz}")
    return check_int(bits, "bits", 1) * check_int(K, "K", 1) * f_clk_hz / latency_cycles(K, t_max)
