import ast
import re
from pathlib import Path

import numpy as np
import pytest

from simojed import model
from simojed.errors import DimensionError, ParameterError
from simojed.model import Constellation, LosGeometry
from simojed.linalg import spectral_norm
from simojed.prox import ProxParams, channel_estimate, preprocess, solve_stack


def one_block(B, K, c, snr_db, seed, key, los=None):
    """The block of the one-trial chunk keyed ``key``: (Y, s, h)."""
    Y, _, s, h, *_ = model.draw_blocks(B, K, c, seed, [(key, snr_db, 1)], los)
    return Y[0], s[0], h[0]


def names_seed_sequence(path: Path) -> bool:
    """Whether the module at ``path`` refers to a ``SeedSequence`` in its
    code (docstrings and comments do not count)."""
    return any(
        (isinstance(node, ast.Name) and node.id == "SeedSequence")
        or (isinstance(node, ast.Attribute) and node.attr == "SeedSequence")
        for node in ast.walk(ast.parse(path.read_text()))
    )


class TestConstellation:
    def test_bpsk_points(self):
        c = Constellation("bpsk")
        assert np.array_equal(c.points, [1.0, -1.0])
        assert c.re_bound == 1.0 and c.im_bound == 0.0

    def test_qpsk_points_counter_clockwise(self):
        c = Constellation("qpsk")
        expected = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)
        assert np.allclose(c.points, expected, atol=1e-15)

    def test_constant_modulus(self):
        for c in (Constellation("bpsk"), Constellation("qpsk"), Constellation("qpsk", 2.0)):
            assert np.all(np.abs(np.abs(c.points) - c.sigma) <= 1e-15)

    def test_by_name(self):
        # The kind is taken in any letter case and stored in lower case.
        c = Constellation("BPSK", 2)
        assert c.kind == "bpsk" and c.points.tobytes() == Constellation("bpsk", 2.0).points.tobytes()
        with pytest.raises(ParameterError, match="^unknown constellation '16QAM'$"):
            Constellation("16QAM")

    def test_equal_by_kind_and_sigma_and_hashable(self):
        # The points array used to take part in == (a ValueError) and in
        # hash (a TypeError).
        assert Constellation("qpsk") == Constellation("QPSK") == Constellation("Qpsk", 1)
        assert Constellation("bpsk", 2.0) == Constellation("Bpsk", 2)
        assert Constellation("qpsk") != Constellation("bpsk")
        assert Constellation("qpsk") != Constellation("qpsk", 2.0)
        table = {Constellation("bpsk"): "bpsk", Constellation("qpsk"): "qpsk"}
        assert table[Constellation("QPSK")] == "qpsk"
        kinds = {Constellation("qpsk"), Constellation("QPSK"), Constellation("qpsk", 2.0)}
        assert len(kinds) == 2


class TestRayleigh:
    # The channels ``Blocks.h`` of noise-free pilot-only draws.
    def test_deterministic(self):
        # Two chunks of one key draw the same channel; another key does not.
        chunks = [((0,), np.inf, 1), ((0,), np.inf, 1), ((1,), np.inf, 1)]
        h = model.draw_blocks(4, 0, Constellation("bpsk"), 42, chunks).h
        assert np.array_equal(h[0], h[1])
        assert not np.array_equal(h[0], h[2])

    def test_zero_antennas_raises(self):
        with pytest.raises(DimensionError):
            model.draw_blocks(0, 2, Constellation("bpsk"), 0, [((), 0.0, 1)])

    def test_unit_power(self):
        h = model.draw_blocks(1, 0, Constellation("bpsk"), 7, [((), np.inf, 100_000)]).h
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_component_variances(self):
        h = model.draw_blocks(100, 0, Constellation("bpsk"), 8, [((), np.inf, 1000)]).h
        assert np.var(h.real) == pytest.approx(0.5, rel=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, rel=0.01)


class TestLos:
    def test_single_antenna_unit_magnitude(self):
        h = model.gen_los_channel(1, LosGeometry())
        assert h.shape == (1,)
        assert abs(abs(h[0]) - 1.0) < 1e-12

    def test_all_unit_magnitude(self):
        h = model.gen_los_channel(16, LosGeometry(user_distance=3.0, user_angle=0.4))
        assert np.all(np.abs(np.abs(h) - 1.0) < 1e-12)

    def test_far_field_broadside_phases_converge(self):
        h = model.gen_los_channel(8, LosGeometry(user_distance=1e6, user_angle=0.0))
        phases = np.angle(h)
        diffs = np.angle(np.exp(1j * np.diff(phases)))
        assert np.all(np.abs(diffs) < 1e-3)

    def test_no_antennas_raises(self):
        with pytest.raises(DimensionError, match="at least one receive antenna"):
            model.gen_los_channel(0, LosGeometry())

    def test_invalid_geometry(self):
        with pytest.raises(ParameterError):
            LosGeometry(user_distance=-1.0)
        with pytest.raises(ParameterError):
            LosGeometry(antenna_spacing=0.0)

    @pytest.mark.parametrize("field", ["antenna_spacing", "user_distance", "user_angle"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_geometry_rejected(self, field, value):
        # Such a geometry used to fail only in the sweep, where gram blamed
        # the received block for its non-finite entries.
        with pytest.raises(ParameterError, match=field.replace("_", " ")):
            LosGeometry(**{field: value})


class TestDataVector:
    # The sent symbols ``Blocks.s``: the pilot, then the data symbols.
    def test_k_zero(self):
        s = model.draw_blocks(2, 0, Constellation("bpsk"), 0, [((), 0.0, 1)]).s
        assert np.array_equal(s, [[1.0]])

    def test_membership_and_reproducibility(self):
        c = Constellation("bpsk")
        r1 = model.draw_blocks(2, 4, c, 5, [((), np.inf, 1)]).s
        r2 = model.draw_blocks(2, 4, c, 5, [((), np.inf, 1)]).s
        assert np.array_equal(r1, r2)
        assert r1[0, 0] == c.points[0]
        assert all(x in (1.0, -1.0) for x in r1[0])

    def test_uniform_frequencies(self):
        c = Constellation("qpsk")
        s = model.draw_blocks(1, 10, c, 9, [((), np.inf, 10_000)]).s[:, 1:]
        for p in c.points:
            freq = np.mean(np.isclose(s, p, atol=1e-12))
            assert freq == pytest.approx(0.25, abs=0.01)


class TestTransmit:
    def test_noise_free_rank_one(self):
        # Infinite SNR means zero noise variance: no noise is drawn.
        c = Constellation("qpsk")
        Y, s, h = one_block(6, 4, c, np.inf, 10, ())
        assert model.snr_to_n0(np.inf, c) == 0.0
        assert np.array_equal(Y, np.outer(h, s.conj()))
        svals = np.linalg.svd(Y, compute_uv=False)
        assert svals[1] <= 1e-12 * c.sigma * np.linalg.norm(h)

    def test_single_antenna_row(self):
        Y, s, h = one_block(1, 3, Constellation("bpsk"), np.inf, 11, ())
        assert np.array_equal(Y[0], h[0] * s.conj())

    def test_noise_variance(self):
        c = Constellation("bpsk")
        snr_db = -10.0 * np.log10(0.7)
        Y, _, s, h, *_ = model.draw_blocks(200, 499, c, 12, [((), snr_db, 1)])
        resid = Y[0] - np.outer(h[0], s[0].conj())
        assert np.mean(np.abs(resid) ** 2) == pytest.approx(model.snr_to_n0(snr_db, c), rel=0.02)

    def test_gram_cached(self):
        from simojed.linalg import gram

        c = Constellation("bpsk")
        for T in (1, 3):
            Y, G, *_ = model.draw_blocks(4, 3, c, 13, [((), 10.0, T)])
            assert all(np.array_equal(G[t], gram(Y[t])) for t in range(T))

    # A caller's blocks are checked where they meet the decisions.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, bad):
        Y = np.ones((4, 3), dtype=complex)
        Y[2, 1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            channel_estimate(Y, np.ones(3, dtype=complex))

    def test_explicit_gram_checked(self):
        # A NaN in Y next to the block's original Gram matrix used to pass
        # through the solver into the channel estimate.
        c, params = Constellation("qpsk"), ProxParams()
        Y, G, *_ = model.draw_blocks(8, 4, c, 1, [((0,), 0.0, 2)])
        pre = preprocess(G, params.alpha_scale * spectral_norm(G))
        s_hat = solve_stack(pre, c, params)
        bad_Y = Y.copy()
        bad_Y[1, 3, 2] = np.nan
        bad_G = G.copy()
        bad_G[0, 1, 1] = np.inf
        with pytest.raises(ParameterError, match="non-finite"):
            channel_estimate(bad_Y, s_hat)
        for wrong in (Y[:, :, :-1], Y[:1], Y[0]):
            with pytest.raises(DimensionError, match="shape"):
                channel_estimate(wrong, s_hat)
        with pytest.raises(ParameterError, match="non-finite"):
            preprocess(bad_G, pre.alpha)
        with pytest.raises(DimensionError, match="shape"):
            channel_estimate(Y, solve_stack(preprocess(G[:, :-1, :-1], pre.alpha), c, params))

    def test_draw_block_stream_layout(self):
        # Child i of the chunk's SeedSequence feeds the channel (0), the
        # data (1), the noise (2) and, with downlink symbols, the downlink
        # randoms (3): reference noise, data indices, data noise.
        c = Constellation("qpsk")
        got = model.draw_blocks(8, 5, c, 21, [((2, 7), 3.0, 1)], downlink_symbols=3)
        streams = np.random.SeedSequence(21, spawn_key=(2, 7)).spawn(4)
        ch, data, noise, dl = (np.random.default_rng(ss) for ss in streams)
        z = ch.standard_normal((2, 8))
        h = (z[0] + 1j * z[1]) / np.sqrt(2.0)
        idx = data.integers(0, 4, size=5)
        s = np.concatenate([c.points[:1], c.points[idx]])
        z = noise.standard_normal((2, 8, 6))
        n0 = model.snr_to_n0(3.0, c)
        Y = np.outer(h, s.conj()) + np.sqrt(n0 / 2.0) * (z[0] + 1j * z[1])
        assert np.array_equal(got.h[0], h)
        assert np.array_equal(got.s[0], s)
        assert np.array_equal(got.Y[0], Y)
        assert np.array_equal(got.n0, [n0])
        downlink = (dl.standard_normal(2), dl.integers(0, 4, size=3), dl.standard_normal(6))
        assert all(np.array_equal(a[0], b) for a, b in zip(got.downlink, downlink, strict=True))
        assert model.draw_blocks(8, 5, c, 21, [((2, 7), 3.0, 1)]).downlink is None

    @pytest.mark.parametrize(
        "seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5, np.uint64(2**63 + 7)]
    )
    def test_generators_equal_numpy_children(self, seed):
        # Seeded together, every child equals numpy's own: keys of one to
        # three words (2**70 takes three), mixed lengths in one call, and
        # seeds of one to five words.
        keys = [(), (0,), (3, 2**32 + 3), (2**70,), (np.int64(9), 1)]
        spawn_keys = [(*key, i) for key in keys for i in range(4)]
        for call in [spawn_keys, *([k] for k in spawn_keys)]:
            for key, got in zip(call, model._generators(seed, call), strict=True):
                want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
                assert got.bit_generator.state == want.bit_generator.state
                assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
                assert np.array_equal(got.integers(0, 4, 5), want.integers(0, 4, 5))

    def test_mixed_key_lengths_draw_numpy_children(self):
        # Through draw_blocks: a five-word seed and keys of one and four
        # words in one call; each chunk's channel is its child 0.
        c, seed = Constellation("bpsk"), 2**128 + 5
        keys = [(1,), (2**32, 2**40)]
        got = model.draw_blocks(4, 2, c, seed, [(key, 0.0, 3) for key in keys])
        for t, key in enumerate(keys):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, 0)))
            z = rng.standard_normal((3, 2, 4))
            assert np.array_equal(got.h[3 * t : 3 * t + 3], (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))

    @pytest.mark.parametrize("bad", [-1, None, True, 1.5, "3", np.int64(-2)])
    def test_bad_seed_rejected(self, bad):
        # A negative seed used to fail inside numpy, and None drew fresh
        # OS entropy for every child.
        c = Constellation("bpsk")
        with pytest.raises(ParameterError, match=f"the seed .* not {re.escape(repr(bad))}"):
            model.draw_blocks(4, 3, c, bad, [((0,), 0.0, 1)])
        with pytest.raises(ParameterError, match=f"a key entry .* not {re.escape(repr(bad))}"):
            model.draw_blocks(4, 3, c, 1, [((0,), 0.0, 1), ((2, bad), 0.0, 1)])

    @pytest.mark.parametrize("downlink_symbols", [0, 5])
    @pytest.mark.parametrize(
        "los", [None, LosGeometry(user_distance=7.0, user_angle=0.3)], ids=["rayleigh", "los"]
    )
    def test_chunks_equal_their_one_chunk_draws(self, los, downlink_symbols):
        # Drawn together, each chunk gets bit for bit the arrays it gets
        # alone: chunk sizes 1, 7 and 30, mixed SNRs and a noise-free chunk.
        c = Constellation("qpsk")
        chunks = [((0, 0), -3.0, 7), ((0, 7), np.inf, 1), ((2, 512), 4.5, 30), ((5,), 0.0, 1)]
        pack = model.draw_blocks(6, 4, c, 33, chunks, los, downlink_symbols)
        assert len(pack.Y) == 39
        lo = 0
        for chunk in chunks:
            part = slice(lo, lo + chunk[2])
            lo = part.stop
            alone = model.draw_blocks(6, 4, c, 33, [chunk], los, downlink_symbols)
            for got, want in zip(pack[:5], alone[:5], strict=True):
                assert got[part].tobytes() == want.tobytes()
            if downlink_symbols:
                for got, want in zip(pack.downlink, alone.downlink, strict=True):
                    assert got[part].tobytes() == want.tobytes()
            else:
                assert pack.downlink is None and alone.downlink is None
        # The infinite-SNR chunk draws no noise.
        assert pack.n0[7] == 0.0
        assert pack.Y[7].tobytes() == (pack.h[7][:, None] * pack.s[7].conj()).tobytes()

    def test_nan_snr_rejected(self):
        # It used to draw a noise-free block without a word.
        c = Constellation("bpsk")
        with pytest.raises(ParameterError, match="SNR of nan dB"):
            model.draw_blocks(4, 3, c, 1, [((0,), 0.0, 2), ((1,), np.nan, 2)])

    def test_minus_inf_snr_rejected(self):
        # It used to end in a ZeroDivisionError.
        c = Constellation("bpsk")
        with pytest.raises(ParameterError, match="SNR of -inf dB"):
            model.draw_blocks(4, 3, c, 1, [((0,), 0.0, 2), ((1,), float("-inf"), 2)])

    def test_only_model_builds_seed_sequences(self):
        # One module owns the stream layout: no other module of the
        # package names numpy's SeedSequence.
        package = Path(model.__file__).parent
        naming = sorted(p.name for p in package.glob("*.py") if names_seed_sequence(p))
        assert naming == ["model.py"]

    def test_draw_block_keys_are_independent(self):
        c = Constellation("bpsk")
        a = one_block(4, 3, c, 0.0, 5, (0, 1))[0]
        b = one_block(4, 3, c, 0.0, 5, (0, 1))[0]
        other = one_block(4, 3, c, 0.0, 5, (1, 0))[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_draw_block_los_channel(self):
        geom = LosGeometry()
        h = one_block(6, 2, Constellation("bpsk"), 0.0, 1, (0,), los=geom)[2]
        assert np.array_equal(h, model.gen_los_channel(6, geom))

    def test_phase_ambiguity_of_objective(self):
        rng = np.random.default_rng(14)
        c = Constellation("qpsk")
        Y, s, _ = one_block(8, 5, c, 6.0, 14, ())
        for phi in rng.uniform(0, 2 * np.pi, size=5):
            assert np.linalg.norm(Y @ (s * np.exp(1j * phi))) == pytest.approx(
                np.linalg.norm(Y @ s), rel=1e-12
            )


class TestSnr:
    def test_zero_db(self):
        assert model.snr_to_n0(0.0, Constellation("bpsk")) == 1.0

    def test_ten_db(self):
        assert model.snr_to_n0(10.0, Constellation("bpsk")) == pytest.approx(0.1, rel=1e-12)

    def test_three_db(self):
        assert model.snr_to_n0(3.0103, Constellation("bpsk")) == pytest.approx(0.5, abs=1e-6)

    def test_scales_with_sigma(self):
        assert model.snr_to_n0(0.0, Constellation("qpsk", 2.0)) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "snr_db",
        [float("nan"), float("-inf"), np.float64("nan"), np.float64("-inf")],
        ids=["nan", "-inf", "numpy-nan", "numpy-minus-inf"],
    )
    def test_no_noise_variance_rejected(self, snr_db):
        # A float -inf used to raise ZeroDivisionError, a numpy one give an
        # infinite variance, and NaN a NaN variance.
        with pytest.raises(ParameterError, match=f"an SNR of {snr_db} dB gives no noise variance"):
            model.snr_to_n0(snr_db, Constellation("bpsk"))
