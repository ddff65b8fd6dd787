"""Signal model: constellations, channel generation, and block transmission.

A single-antenna user sends K+1 symbols (the first one fixed and known) to a
B-antenna receiver over a channel that stays constant for the whole block.
All generators take an explicit ``numpy.random.Generator`` so trials can run
on independent, reproducible substreams; ``draw_block`` lays those
substreams out for one seeded trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import gram

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Constellation:
    """Constant-modulus symbol alphabet.

    ``points`` is the canonical ordering used for hard-decision tie-breaks:
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


@dataclass(frozen=True)
class TransmissionGroundTruth:
    """What was actually sent: the symbol vector (first entry pinned), the
    channel vector, and the per-entry complex noise variance."""

    s_true: np.ndarray
    h_true: np.ndarray
    n0: float

    def __post_init__(self):
        if self.n0 < 0:
            raise ParameterError("noise variance must be non-negative")


@dataclass
class ReceivedBlock:
    """Received B x (K+1) matrix with its Gram matrix cached; ground truth is
    attached for simulated blocks and absent for field data.

    A Gram matrix passed in is taken as given, after checking that it is
    (K+1) x (K+1) and that it and ``Y`` are finite."""

    Y: np.ndarray
    G: np.ndarray = field(default=None)  # type: ignore[assignment]
    truth: TransmissionGroundTruth | None = None

    def __post_init__(self):
        if self.G is None:
            self.G = gram(self.Y)
            return
        n = self.num_slots
        if np.shape(self.G) != (n, n):
            raise ParameterError(f"Gram matrix of shape {np.shape(self.G)} for a block of {n} slots")
        if not (np.all(np.isfinite(self.Y)) and np.all(np.isfinite(self.G))):
            raise ParameterError("received block or its Gram matrix has a non-finite entry")

    @property
    def num_antennas(self) -> int:
        return self.Y.shape[0]

    @property
    def num_slots(self) -> int:
        return self.Y.shape[1]


def gen_rayleigh_channel(B: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian channel, unit variance
    per entry."""
    if B < 1:
        raise DimensionError("need at least one receive antenna")
    return (rng.standard_normal(B) + 1j * rng.standard_normal(B)) / _SQRT2


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
    c: Constellation, K: int, s_check: complex, rng: np.random.Generator
) -> np.ndarray:
    """K+1 symbols: the pinned reference first, then uniform draws."""
    if not np.any(np.isclose(c.points, s_check, rtol=0, atol=1e-12)):
        raise ParameterError(f"{s_check} is not a constellation point")
    s = np.empty(K + 1, dtype=np.complex128)
    s[0] = s_check
    if K > 0:
        s[1:] = c.points[rng.integers(0, len(c.points), size=K)]
    return s


def transmit(truth: TransmissionGroundTruth, rng: np.random.Generator) -> ReceivedBlock:
    """Rank-1 signal plus circularly-symmetric Gaussian noise of variance
    ``n0`` per complex entry; the Gram matrix is computed and cached."""
    h = np.asarray(truth.h_true, dtype=np.complex128)
    s = np.asarray(truth.s_true, dtype=np.complex128)
    Y = np.outer(h, s.conj())
    if truth.n0 > 0:
        B, n = Y.shape
        scale = np.sqrt(truth.n0 / 2.0)
        Y = Y + scale * (rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n)))
    return ReceivedBlock(Y=Y, truth=truth)


def snr_to_n0(snr_db: float, c: Constellation) -> float:
    """Noise variance for a given per-receive-antenna average SNR in dB.

    Both channel conventions here have unit average gain per antenna, so
    n0 = sigma^2 / 10^(snr/10).
    """
    return c.sigma**2 / 10.0 ** (snr_db / 10.0)


def make_block(
    B: int,
    K: int,
    c: Constellation,
    snr_db: float,
    channel_rng: np.random.Generator,
    data_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    los: LosGeometry | None = None,
    s_check: complex | None = None,
) -> ReceivedBlock:
    """Draw one complete block: channel, data (pinned first slot), noise."""
    s_check = c.points[0] if s_check is None else s_check
    h = gen_los_channel(B, los) if los is not None else gen_rayleigh_channel(B, channel_rng)
    s = random_data_vector(c, K, s_check, data_rng)
    truth = TransmissionGroundTruth(s_true=s, h_true=h, n0=snr_to_n0(snr_db, c))
    return transmit(truth, noise_rng)


def draw_block(
    B: int,
    K: int,
    c: Constellation,
    snr_db: float,
    seed: int,
    key: tuple[int, ...],
    los: LosGeometry | None = None,
) -> tuple[ReceivedBlock, np.random.SeedSequence]:
    """The block of one seeded trial: the package's only stream layout.

    Children 0-2 of ``SeedSequence(seed, spawn_key=key).spawn(4)`` draw the
    channel, the data and the noise; child 3 is returned for the trial's
    downlink evaluation.
    """
    *streams, dl_ss = np.random.SeedSequence(seed, spawn_key=key).spawn(4)
    rngs = [np.random.default_rng(ss) for ss in streams]
    return make_block(B, K, c, snr_db, *rngs, los=los), dl_ss
