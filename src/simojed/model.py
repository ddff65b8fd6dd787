"""Signal model: constellations, channel generation, and block transmission.

A single-antenna user sends K+1 symbols (the first one the known pilot
``c.points[0]``) to a B-antenna receiver over a channel that stays constant
for the whole block. All generators take an explicit
``numpy.random.Generator`` so trials can run on independent, reproducible
substreams. ``draw_blocks`` lays those substreams out for a list of seeded
chunks of trials (one chunk of ``T=1`` for one block), drawn into one set of
arrays together with their downlink randoms. It is the only way the package
draws a block or a downlink evaluation's randoms, and the only place that
builds a ``SeedSequence``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import gram

_SQRT2 = np.sqrt(2.0)

@dataclass(frozen=True)
class Constellation:
    """Constant-modulus symbol alphabet.

    ``points`` is the canonical ordering that symbol indices refer to:
    BPSK is [+sigma, -sigma]; QPSK runs counter-clockwise from the first
    quadrant. Every point has magnitude ``sigma``.
    """

    kind: str
    sigma: float
    points: np.ndarray

    @staticmethod
    def bpsk(sigma: float = 1.0) -> "Constellation":
        pts = np.array([sigma, -sigma], dtype=np.complex128)
        return Constellation("bpsk", sigma, pts)

    @staticmethod
    def qpsk(sigma: float = 1.0) -> "Constellation":
        c = sigma / _SQRT2
        pts = np.array([c + 1j * c, -c + 1j * c, -c - 1j * c, c - 1j * c])
        return Constellation("qpsk", sigma, pts)

    @staticmethod
    def by_name(name: str, sigma: float = 1.0) -> "Constellation":
        name = name.lower()
        if name == "bpsk":
            return Constellation.bpsk(sigma)
        if name == "qpsk":
            return Constellation.qpsk(sigma)
        raise ParameterError(f"unknown constellation {name!r}")

    @property
    def bits_per_symbol(self) -> int:
        return 1 if self.kind == "bpsk" else 2

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
        if self.antenna_spacing <= 0:
            raise ParameterError("antenna spacing must be positive")
        if self.user_distance <= 0:
            raise ParameterError("user distance must be positive")


def _rayleigh(z: np.ndarray) -> np.ndarray:
    """Channels from standard normals (..., 2, B): real parts, then
    imaginary parts, scaled to unit variance per entry."""
    return (z[..., 0, :] + 1j * z[..., 1, :]) / _SQRT2


def gen_rayleigh_channel(B: int, rng: np.random.Generator, T: int | None = None) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian channel, unit variance
    per entry: one (B,) vector, or a (T, B) stack of ``T`` trials drawn
    trial after trial, each as its B real parts, then its B imaginary
    parts."""
    if B < 1:
        raise DimensionError("need at least one receive antenna")
    return _rayleigh(rng.standard_normal((2, B) if T is None else (T, 2, B)))


def gen_los_channel(B: int, geom: LosGeometry) -> np.ndarray:
    """Spherical-wave line-of-sight channel over a uniform linear array.

    Antenna b sits at (b - (B-1)/2) * spacing along the array axis; each
    entry has unit magnitude and phase set by the exact user-to-antenna
    distance in wavelengths.
    """
    if B < 1:
        raise DimensionError("need at least one receive antenna")
    positions = (np.arange(B) - (B - 1) / 2.0) * geom.antenna_spacing
    ux = geom.user_distance * np.sin(geom.user_angle)
    uy = geom.user_distance * np.cos(geom.user_angle)
    dist = np.sqrt((ux - positions) ** 2 + uy**2)
    return np.exp(-2j * np.pi * dist)


def _with_pilot(c: Constellation, data: np.ndarray) -> np.ndarray:
    """Symbol vectors (..., K+1): the pilot ``c.points[0]``, then the points
    of the data indices (..., K)."""
    s = np.empty(data.shape[:-1] + (data.shape[-1] + 1,), dtype=np.complex128)
    s[..., 0] = c.points[0]
    s[..., 1:] = c.points[data]
    return s


def random_data_vector(
    c: Constellation, K: int, rng: np.random.Generator, T: int | None = None
) -> np.ndarray:
    """K+1 symbols: the pilot ``c.points[0]`` first, then uniform draws; a
    (T, K+1) stack of ``T`` trials, drawn as one (T, K) index array."""
    lead = () if T is None else (T,)
    return _with_pilot(c, rng.integers(0, len(c.points), size=lead + (K,)))


def snr_to_n0(snr_db: float, c: Constellation) -> float:
    """Noise variance for a given per-receive-antenna average SNR in dB.

    Both channel conventions here have unit average gain per antenna, so
    n0 = sigma^2 / 10^(snr/10).
    """
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


def _child(seed: int, key: tuple[int, ...], i: int) -> np.random.Generator:
    """A Generator on child ``i`` of ``SeedSequence(seed, spawn_key=key)``,
    built without its siblings."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, i)))


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
    streams: child ``i`` of ``SeedSequence(seed, spawn_key=key)`` (built
    directly as ``SeedSequence(seed, spawn_key=key + (i,))``) feeds one
    Generator, which draws the chunk's whole stack in one call per array,
    trial after trial. Child 0 draws the Rayleigh channel as standard
    normals (T, 2, B), real parts first (not built for a line-of-sight
    channel); child 1 the data indices (T, K) (not built when K is 0);
    child 2 the noise as standard normals (T, 2, B, K+1), real parts first
    (not built when the SNR gives no noise); child 3, only with
    ``downlink_symbols`` n > 0, the downlink's reference noise (T, 2), data
    indices (T, n) and data noise (T, 2n), in that order. So trial 0 of any
    chunk uses each stream exactly as a one-trial chunk of the same key
    does, and a chunk draws the same samples whichever call it is part of.
    Every chunk's normals land in arrays allocated once for the whole
    call; the channels, symbols, noise scaling and Gram matrices are then
    formed once for all trials.
    """
    if B < 1:
        raise DimensionError("need at least one receive antenna")
    T = sum(n for _, _, n in chunks)
    m = len(c.points)
    n0 = np.empty(T)
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
    lo = 0
    for key, snr_db, n in chunks:
        part = slice(lo, lo + n)
        lo += n
        if h_normals is not None:
            _child(seed, key, 0).standard_normal(out=h_normals[part])
        if K > 0:
            data[part] = _child(seed, key, 1).integers(0, m, size=(n, K))
        n0[part] = chunk_n0 = snr_to_n0(snr_db, c)
        if np.isnan(chunk_n0):
            raise ParameterError(f"an SNR of {snr_db} dB gives no noise variance")
        if chunk_n0 > 0:
            _child(seed, key, 2).standard_normal(out=normals[part])
        else:
            # x + -0.0 is x for every x, signed zeros included.
            normals[part] = -0.0
        if dl is not None:
            rng = _child(seed, key, 3)
            rng.standard_normal(out=dl.ref_noise[part])
            dl.data[part] = rng.integers(0, m, size=(n, downlink_symbols))
            rng.standard_normal(out=dl.noise[part])
    h = _rayleigh(h_normals) if los is None else np.tile(gen_los_channel(B, los), (T, 1))
    s = _with_pilot(c, data)
    Y = h[:, :, None] * s.conj()[:, None, :]
    normals *= np.sqrt(n0 / 2.0)[:, None, None, None]
    Y.real += normals[:, 0]
    Y.imag += normals[:, 1]
    del normals
    return Blocks(Y, gram(Y), s, h, n0, dl)
