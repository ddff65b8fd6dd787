"""Signal model: constellations, channels, and block transmission.

A single-antenna user sends K+1 symbols (the first one the known pilot
``c.points[0]``) to a B-antenna receiver over a channel that stays constant
for the whole block. ``draw_blocks`` is the package's one way to draw
blocks and a downlink evaluation's randoms: it lays independent,
reproducible substreams out for a list of seeded chunks of trials (one
chunk of ``T=1`` for one block), draws them into one set of arrays, and
seeds the Generators of all those substreams in one vectorized pass of
numpy's ``SeedSequence`` hash. A noise-free block is a chunk at an
infinite SNR, whose ``Y`` is exactly ``h s^H``. This is the only module
that builds a ``SeedSequence``; its ``check_int`` and ``check_real`` are
the package's one rule for scalar arguments.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DimensionError, ParameterError
from .linalg import gram

_SQRT2 = np.sqrt(2.0)


def check_int(value, what: str, least: int = 0) -> int:
    """``value`` as a Python int; a ``ParameterError`` naming ``what`` and
    the value unless it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        rule = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
        raise ParameterError(f"{what} must be {rule}, not {value!r}")
    return int(value)


def check_real(value, what: str) -> float:
    """``value`` as a Python float; a ``ParameterError`` naming ``what`` and
    the value unless it is a real number (not a bool). Finiteness and range
    are the caller's rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a real number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class Constellation:
    """Constant-modulus symbol alphabet ``Constellation(kind, sigma=1.0)``,
    the kind ``"bpsk"`` or ``"qpsk"`` in any letter case, kept in lower case.

    ``points`` is the canonical ordering that symbol indices refer to:
    BPSK is [+sigma, -sigma]; QPSK runs counter-clockwise from the first
    quadrant. Every point has magnitude ``sigma``, a finite positive real
    kept as a Python float. ``points`` follows from ``kind`` and ``sigma``
    and takes no part in ``==`` or ``hash``.
    """

    kind: str
    sigma: float = 1.0
    points: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        kind = self.kind.lower() if isinstance(self.kind, str) else self.kind
        if kind not in ("bpsk", "qpsk"):
            raise ParameterError(f"unknown constellation {self.kind!r}")
        sigma = check_real(self.sigma, "sigma")
        if not 0 < sigma < np.inf:
            raise ParameterError(f"sigma must be finite and positive, not {sigma}")
        if kind == "bpsk":
            pts = np.array([sigma, -sigma], dtype=np.complex128)
        else:
            c = sigma / _SQRT2
            pts = np.array([c + 1j * c, -c + 1j * c, -c - 1j * c, c - 1j * c])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "points", pts)

    @property
    def re_bound(self) -> float:
        """Half-width of the hull along the real axis."""
        return self.sigma if self.kind == "bpsk" else self.sigma / _SQRT2

    @property
    def im_bound(self) -> float:
        """Half-width of the hull along the imaginary axis (0 for BPSK:
        the hull is a segment of the real line)."""
        return 0.0 if self.kind == "bpsk" else self.sigma / _SQRT2

    def decide_index(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """Indices into ``points`` of the hard decisions from the signs of
        the real and imaginary parts, the hardware slicer: the nearest
        point for BPSK and QPSK, whose decision regions are the half-planes
        and quadrants. BPSK reads only the real sign. A zero part counts as
        positive, so a value on an axis goes to the point on its positive
        side (0 - 0.5j gives 1 - j).
        """
        west = (np.asarray(re) < 0).view(np.uint8)
        if self.kind == "bpsk":
            return west
        # Counter-clockwise from the first quadrant, the points below the
        # real axis are 3 (east) and 2 (west): the index is west XOR 3*south.
        index = (np.asarray(im) < 0).view(np.uint8)
        index *= 3
        index ^= west
        return index

    def decide(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """The points of ``decide_index``'s hard decisions."""
        return self.points[self.decide_index(re, im)]


@dataclass(frozen=True)
class LosGeometry:
    """Line-of-sight placement: a user at ``user_distance`` wavelengths from
    the center of a uniform linear array, at ``user_angle`` radians off
    broadside. ``antenna_spacing`` is in wavelengths."""

    antenna_spacing: float = 0.5
    user_distance: float = 50.0
    user_angle: float = 0.0

    def __post_init__(self):
        lows = {"antenna_spacing": 0.0, "user_distance": 0.0, "user_angle": -np.inf}
        for name, low in lows.items():
            what = name.replace("_", " ")
            value = check_real(getattr(self, name), what)
            if not low < value < np.inf:
                rule = "finite and positive" if low == 0 else "finite"
                raise ParameterError(f"{what} must be {rule}, not {value!r}")
            object.__setattr__(self, name, value)


def check_los(los) -> LosGeometry | None:
    """``los``; a ``ParameterError`` unless it is a ``LosGeometry`` or None
    (Rayleigh)."""
    if not isinstance(los, (LosGeometry, type(None))):
        raise ParameterError(f"los must be a LosGeometry or None, not {los!r}")
    return los


def gen_los_channel(B: int, geom: LosGeometry) -> np.ndarray:
    """Spherical-wave line-of-sight channel over a uniform linear array.

    Antenna b sits at (b - (B-1)/2) * spacing along the array axis; each
    entry has unit magnitude and phase set by the exact user-to-antenna
    distance in wavelengths.
    """
    if check_int(B, "B") < 1:
        raise DimensionError("need at least one receive antenna")
    positions = (np.arange(B) - (B - 1) / 2.0) * geom.antenna_spacing
    ux = geom.user_distance * np.sin(geom.user_angle)
    uy = geom.user_distance * np.cos(geom.user_angle)
    dist = np.sqrt((ux - positions) ** 2 + uy**2)
    return np.exp(-2j * np.pi * dist)


def snr_to_n0(snr_db: float, c: Constellation) -> float:
    """Noise variance for a given per-receive-antenna average SNR in dB.

    Both channel conventions here have unit average gain per antenna, so
    n0 = sigma^2 / 10^(snr/10). An infinite SNR gives no noise; a NaN or
    -inf one, which gives no noise variance, is a ``ParameterError``, and
    so is an SNR that ``check_real`` rejects.
    """
    snr_db = check_real(snr_db, "snr_db")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ParameterError(f"an SNR of {snr_db} dB gives no noise variance")
    return c.sigma**2 / 10.0 ** (snr_db / 10.0)


class DownlinkDraws(NamedTuple):
    """The random inputs of downlink evaluations, with any leading trial
    axis: standard normals of the reference symbol's noise (..., 2), data
    symbol indices (..., n) and standard normals of the data noise
    (..., 2n), real parts first."""

    ref_noise: np.ndarray
    data: np.ndarray
    noise: np.ndarray


class Blocks(NamedTuple):
    """The trials of one ``draw_blocks`` call, chunk after chunk: received
    blocks ``Y`` (T, B, K+1), their Gram matrices ``G`` (T, K+1, K+1), the
    sent symbols ``s`` (T, K+1) and channels ``h`` (T, B), each trial's
    noise variance ``n0`` (T,), and the ``downlink`` draws (None without
    downlink symbols)."""

    Y: np.ndarray
    G: np.ndarray
    s: np.ndarray
    h: np.ndarray
    n0: np.ndarray
    downlink: DownlinkDraws | None


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the mixing
# hash's multiplier starts at _INIT_A and is multiplied by _MULT_A at every
# step, the output hash's by _MULT_B from _INIT_B; _MIX_L and _MIX_R weigh a
# pool word and a hashed word when they are mixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4


def _multipliers(init: int, mult: int, start: int, steps: int) -> np.ndarray:
    """The hash multiplier before step ``start`` and after each of the
    ``steps`` steps from there, as uint32."""
    out = [init * pow(mult, start, 1 << 32) & 0xFFFFFFFF]
    for _ in range(steps):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False
    return out


# The output hash's multipliers before and after each of the eight steps
# that make PCG64's four seed words, as (2, pool) arrays.
_OUT_MULT = _multipliers(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)
_OUT_BEFORE = _OUT_MULT[:-1].reshape(2, _POOL_SIZE)
_OUT_AFTER = _OUT_MULT[1:].reshape(2, _POOL_SIZE)


@functools.cache
def _mix_multipliers(start: int, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n_words, pool) multipliers that the mixing hash applies before
    and after each step that mixes ``n_words`` spawn-key words into the
    pool, from step ``start`` on."""
    m = _multipliers(_INIT_A, _MULT_A, start, _POOL_SIZE * n_words)
    return m[:-1].reshape(n_words, _POOL_SIZE), m[1:].reshape(n_words, _POOL_SIZE)


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first
    (one word for 0), as ``SeedSequence`` splits its entropy."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


class _StateWords(ISeedSequence):
    """Hands ``PCG64`` the four state words computed for one child."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _generators(seed: int, spawn_keys: list[tuple[int, ...]]) -> list[np.random.Generator]:
    """One Generator per spawn key, each equal to
    ``default_rng(SeedSequence(seed, spawn_key=key))``, all seeded together.

    With a spawn key, ``SeedSequence`` mixes the seed's words, zero-padded
    to the pool size, and then the key's words into its pool. So every
    child starts from the pool of ``SeedSequence(seed)``, with the mixing
    hash at the same step: one step per pool word, 12 to mix the pool
    words with each other, and four per seed word beyond the pool. Each
    key word then takes four steps, one per pool word. The key words are
    mixed in for all children of one key length at once, and the output
    hash gives each child the words ``generate_state(4, uint64)`` returns.
    """
    pool0 = np.random.SeedSequence(seed).pool
    start = _POOL_SIZE * max(len(_words(seed)), _POOL_SIZE)
    key_words = [[w for k in key for w in _words(k)] for key in spawn_keys]
    rngs = [None] * len(spawn_keys)
    for n_words in {len(w) for w in key_words}:
        rows = [r for r, w in enumerate(key_words) if len(w) == n_words]
        before, after = _mix_multipliers(start, n_words)
        hashed = np.array([key_words[r] for r in rows], dtype=np.uint32)[:, :, None] ^ before
        hashed *= after
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        pool = pool0
        for j in range(n_words):
            pool = pool * _MIX_L - hashed[:, j]
            pool ^= pool >> 16
        # generate_state(4, uint64): eight hashed words, cycling through
        # the pool, read in little-endian pairs.
        words = pool[:, None, :] ^ _OUT_BEFORE
        words *= _OUT_AFTER
        words ^= words >> 16
        state = words.reshape(-1, 2 * _POOL_SIZE).astype("<u4", copy=False).view("<u8")
        for r, w in zip(rows, state.astype(np.uint64, copy=False)):
            rngs[r] = np.random.Generator(np.random.PCG64(_StateWords(w)))
    return rngs


def draw_blocks(
    B: int,
    K: int,
    c: Constellation,
    seed: int,
    chunks: Sequence[tuple[tuple[int, ...], float, int]],
    los: LosGeometry | None = None,
    downlink_symbols: int = 0,
) -> Blocks:
    """The seeded trials of ``chunks``, each ``(key, snr_db, T)``, joined
    along the trial axis: the package's only stream layout.

    Each chunk is a stack of ``T`` trials at ``snr_db`` with its own
    streams: child ``i`` of ``SeedSequence(seed, spawn_key=key)``, that is
    ``SeedSequence(seed, spawn_key=key + (i,))``, feeds one Generator,
    which draws the chunk's whole stack in one call per array, trial after
    trial. Child 0 draws the Rayleigh channel as standard normals
    (T, 2, B), real parts first, each entry (re + j im)/sqrt(2) of unit
    variance (unused for a line-of-sight channel); child 1 the data
    indices (T, K), uniform over the points, which fill the slots after
    the pilot ``c.points[0]`` (unused when K is 0); child 2 the noise as
    standard normals (T, 2, B, K+1), real parts first (unused when the SNR
    gives no noise, which leaves ``Y`` exactly ``h s^H``); child 3, only
    with ``downlink_symbols`` n > 0, the downlink's reference noise (T, 2),
    data indices (T, n) and data noise (T, 2n), in that order. So trial 0
    of any chunk uses each stream exactly as a one-trial chunk of the same
    key does, and a chunk draws the same samples whichever call it is part
    of. The Generators of all used children are seeded together, in one
    vectorized pass of numpy's seeding hash (``_generators``), and no
    ``SeedSequence`` is built per child. Every chunk's normals land in
    arrays allocated once for the whole call; the channels, symbols, noise
    scaling and Gram matrices are then formed once for all trials. The
    counts, ``seed`` and every key entry must pass ``check_int``, each
    SNR ``snr_to_n0``, and ``los`` ``check_los``.
    """
    if check_int(B, "B") < 1:
        raise DimensionError("need at least one receive antenna")
    K, downlink_symbols = check_int(K, "K"), check_int(downlink_symbols, "downlink_symbols")
    seed, los = check_int(seed, "the seed"), check_los(los)
    keys = [tuple(check_int(k, "a key entry") for k in key) for key, _, _ in chunks]
    sizes = [check_int(n, "a chunk's trial count") for _, _, n in chunks]
    n0s = [snr_to_n0(snr_db, c) for _, snr_db, _ in chunks]
    T = sum(sizes)
    m = len(c.points)
    h_normals = np.empty((T, 2, B)) if los is None else None
    data = np.empty((T, K), dtype=np.int64)
    normals = np.empty((T, 2, B, K + 1))
    dl = None
    if downlink_symbols > 0:
        dl = DownlinkDraws(
            np.empty((T, 2)),
            np.empty((T, downlink_symbols), dtype=np.int64),
            np.empty((T, 2 * downlink_symbols)),
        )
    # The children each chunk uses, in the order the loop below takes them.
    children = [
        (*key, i)
        for key, chunk_n0 in zip(keys, n0s)
        for i, used in enumerate((los is None, K > 0, chunk_n0 > 0, dl is not None))
        if used
    ]
    rngs = iter(_generators(seed, children))
    n0 = np.empty(T)
    lo = 0
    for n, chunk_n0 in zip(sizes, n0s):
        part = slice(lo, lo + n)
        lo += n
        n0[part] = chunk_n0
        if h_normals is not None:
            next(rngs).standard_normal(out=h_normals[part])
        if K > 0:
            data[part] = next(rngs).integers(0, m, size=(n, K))
        if chunk_n0 > 0:
            next(rngs).standard_normal(out=normals[part])
        else:
            # x + -0.0 is x for every x, signed zeros included.
            normals[part] = -0.0
        if dl is not None:
            rng = next(rngs)
            rng.standard_normal(out=dl.ref_noise[part])
            dl.data[part] = rng.integers(0, m, size=(n, downlink_symbols))
            rng.standard_normal(out=dl.noise[part])
    if los is None:
        h = (h_normals[:, 0] + 1j * h_normals[:, 1]) / _SQRT2
    else:
        h = np.tile(gen_los_channel(B, los), (T, 1))
    s = np.empty((T, K + 1), dtype=np.complex128)
    s[:, 0] = c.points[0]
    s[:, 1:] = c.points[data]
    Y = h[:, :, None] * s.conj()[:, None, :]
    normals *= np.sqrt(n0 / 2.0)[:, None, None, None]
    Y.real += normals[:, 0]
    Y.imag += normals[:, 1]
    del normals
    return Blocks(Y, gram(Y), s, h, n0, dl)
