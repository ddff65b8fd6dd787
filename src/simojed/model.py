"""Signal model: constellations, channel generation, and block transmission.

A single-antenna user sends K+1 symbols (the first one the known pilot
``c.points[0]``) to a B-antenna receiver over a channel that stays constant
for the whole block. All generators take an explicit
``numpy.random.Generator`` so trials can run on independent, reproducible
substreams; ``draw_blocks`` lays those substreams out for a seeded stack of
trials (``T=1`` for one block) and is the only way the package draws a
block.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def gen_rayleigh_channel(B: int, rng: np.random.Generator, T: int | None = None) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian channel, unit variance
    per entry: one (B,) vector, or a (T, B) stack of ``T`` trials drawn
    trial after trial, each as its B real parts, then its B imaginary
    parts."""
    if B < 1:
        raise DimensionError("need at least one receive antenna")
    z = rng.standard_normal((2, B) if T is None else (T, 2, B))
    return (z[..., 0, :] + 1j * z[..., 1, :]) / _SQRT2


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


def random_data_vector(
    c: Constellation, K: int, rng: np.random.Generator, T: int | None = None
) -> np.ndarray:
    """K+1 symbols: the pilot ``c.points[0]`` first, then uniform draws; a
    (T, K+1) stack of ``T`` trials, drawn as one (T, K) index array."""
    lead = () if T is None else (T,)
    s = np.empty(lead + (K + 1,), dtype=np.complex128)
    s[..., 0] = c.points[0]
    if K > 0:
        s[..., 1:] = c.points[rng.integers(0, len(c.points), size=lead + (K,))]
    return s


def _receive(h: np.ndarray, s: np.ndarray, n0: float, rng: np.random.Generator) -> np.ndarray:
    """h s^H plus noise, for one block or a stack. The noise is drawn block
    after block, each as its real parts, then its imaginary parts (none
    when ``n0`` is 0), and scaled and added in place."""
    h = np.asarray(h, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    Y = h[..., :, None] * s.conj()[..., None, :]
    if n0 > 0:
        z = rng.standard_normal(Y.shape[:-2] + (2,) + Y.shape[-2:])
        z *= np.sqrt(n0 / 2.0)
        Y.real += z[..., 0, :, :]
        Y.imag += z[..., 1, :, :]
    return Y


def snr_to_n0(snr_db: float, c: Constellation) -> float:
    """Noise variance for a given per-receive-antenna average SNR in dB.

    Both channel conventions here have unit average gain per antenna, so
    n0 = sigma^2 / 10^(snr/10).
    """
    return c.sigma**2 / 10.0 ** (snr_db / 10.0)


def draw_blocks(
    B: int,
    K: int,
    c: Constellation,
    snr_db: float,
    seed: int,
    key: tuple[int, ...],
    T: int,
    los: LosGeometry | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.random.Generator]:
    """The blocks of ``T`` seeded trials: the package's only stream layout.

    The four children of ``SeedSequence(seed, spawn_key=key).spawn(4)``
    feed one Generator each. Children 0-2 draw the whole stack in one call
    each, trial after trial: the channel as standard normals (T, 2, B),
    real parts first; the data indices (T, K); the noise as standard
    normals (T, 2, B, K+1), real parts first. Child 3 comes back as the
    stack's downlink Generator. So trial 0 of any stack uses each stream
    exactly as a one-trial draw does. Returns the stacked ``Y`` (T, B, K+1),
    its Gram matrices ``G`` (T, K+1, K+1), the sent symbols (T, K+1) and
    channels (T, B), and the downlink Generator.
    """
    ch_rng, data_rng, noise_rng, dl_rng = (
        np.random.default_rng(ss) for ss in np.random.SeedSequence(seed, spawn_key=key).spawn(4)
    )
    if los is None:
        h = gen_rayleigh_channel(B, ch_rng, T)
    else:
        h = np.tile(gen_los_channel(B, los), (T, 1))
    s = random_data_vector(c, K, data_rng, T)
    Y = _receive(h, s, snr_to_n0(snr_db, c), noise_rng)
    return Y, gram(Y), s, h, dl_rng
