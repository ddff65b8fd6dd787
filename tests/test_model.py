import numpy as np
import pytest

from simojed import model
from simojed.errors import DimensionError, ParameterError
from simojed.model import Constellation, LosGeometry
from simojed.prox import ProxParams, preprocess, solve_stack


def one_block(B, K, c, snr_db, seed, key, los=None):
    """Trial 0 of the one-trial stack: (Y, s, h)."""
    Y, _, s, h, _ = model.draw_blocks(B, K, c, snr_db, seed, key, 1, los)
    return Y[0], s[0], h[0]


class TestConstellation:
    def test_bpsk_points(self):
        c = Constellation.bpsk()
        assert np.array_equal(c.points, [1.0, -1.0])
        assert c.bits_per_symbol == 1
        assert c.re_bound == 1.0 and c.im_bound == 0.0

    def test_qpsk_points_counter_clockwise(self):
        c = Constellation.qpsk()
        expected = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)
        assert np.allclose(c.points, expected, atol=1e-15)
        assert c.bits_per_symbol == 2

    def test_constant_modulus(self):
        for c in (Constellation.bpsk(), Constellation.qpsk(), Constellation.qpsk(2.0)):
            assert np.all(np.abs(np.abs(c.points) - c.sigma) <= 1e-15)

    def test_by_name(self):
        assert Constellation.by_name("BPSK").kind == "bpsk"
        with pytest.raises(ParameterError):
            Constellation.by_name("16qam")


class TestRayleigh:
    def test_deterministic(self):
        a = model.gen_rayleigh_channel(4, np.random.default_rng(42))
        b = model.gen_rayleigh_channel(4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_zero_antennas_raises(self):
        with pytest.raises(DimensionError):
            model.gen_rayleigh_channel(0, np.random.default_rng(0))

    def test_unit_power(self):
        rng = np.random.default_rng(7)
        draws = np.concatenate([model.gen_rayleigh_channel(1, rng) for _ in range(100_000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_component_variances(self):
        rng = np.random.default_rng(8)
        h = model.gen_rayleigh_channel(100_000, rng)
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

    def test_invalid_geometry(self):
        with pytest.raises(ParameterError):
            LosGeometry(user_distance=-1.0)
        with pytest.raises(ParameterError):
            LosGeometry(antenna_spacing=0.0)


class TestDataVector:
    def test_k_zero(self):
        c = Constellation.bpsk()
        s = model.random_data_vector(c, 0, np.random.default_rng(0))
        assert np.array_equal(s, [1.0])

    def test_membership_and_reproducibility(self):
        c = Constellation.bpsk()
        r1 = model.random_data_vector(c, 4, np.random.default_rng(5))
        r2 = model.random_data_vector(c, 4, np.random.default_rng(5))
        assert np.array_equal(r1, r2)
        assert all(x in (1.0, -1.0) for x in r1)

    def test_uniform_frequencies(self):
        c = Constellation.qpsk()
        rng = np.random.default_rng(9)
        s = model.random_data_vector(c, 100_000, rng)[1:]
        for p in c.points:
            freq = np.mean(np.isclose(s, p, atol=1e-12))
            assert freq == pytest.approx(0.25, abs=0.01)


class TestTransmit:
    def test_noise_free_rank_one(self):
        # Infinite SNR means zero noise variance: no noise is drawn.
        c = Constellation.qpsk()
        Y, s, h = one_block(6, 4, c, np.inf, 10, ())
        assert model.snr_to_n0(np.inf, c) == 0.0
        assert np.array_equal(Y, np.outer(h, s.conj()))
        svals = np.linalg.svd(Y, compute_uv=False)
        assert svals[1] <= 1e-12 * c.sigma * np.linalg.norm(h)

    def test_single_antenna_row(self):
        Y, s, h = one_block(1, 3, Constellation.bpsk(), np.inf, 11, ())
        assert np.array_equal(Y[0], h[0] * s.conj())

    def test_noise_variance(self):
        c = Constellation.bpsk()
        snr_db = -10.0 * np.log10(0.7)
        Y, _, s, h, _ = model.draw_blocks(200, 499, c, snr_db, 12, (), 1)
        resid = Y[0] - np.outer(h[0], s[0].conj())
        assert np.mean(np.abs(resid) ** 2) == pytest.approx(model.snr_to_n0(snr_db, c), rel=0.02)

    def test_gram_cached(self):
        from simojed.linalg import gram

        c = Constellation.bpsk()
        for T in (1, 3):
            Y, G, *_ = model.draw_blocks(4, 3, c, 10.0, 13, (), T)
            assert all(np.array_equal(G[t], gram(Y[t])) for t in range(T))

    # A caller's blocks are checked where they enter the solver.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, bad):
        Y = np.ones((4, 3), dtype=complex)
        Y[2, 1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            solve_stack(Y, np.eye(3), Constellation.bpsk(), ProxParams())

    def test_explicit_gram_checked(self):
        # A NaN in Y next to the block's original Gram matrix used to pass
        # through the solver into the channel estimate.
        c, params = Constellation.qpsk(), ProxParams()
        Y, G, *_ = model.draw_blocks(8, 4, c, 0.0, 1, (0,), 2)
        pre = preprocess(G, params)
        bad_Y = Y.copy()
        bad_Y[1, 3, 2] = np.nan
        bad_G = G.copy()
        bad_G[0, 1, 1] = np.inf
        for given in (G, pre):
            with pytest.raises(ParameterError, match="non-finite"):
                solve_stack(bad_Y, given, c, params)
            for wrong in (Y[:, :, :-1], Y[:1], Y[0]):
                with pytest.raises(DimensionError, match="shape"):
                    solve_stack(wrong, given, c, params)
        with pytest.raises(ParameterError, match="non-finite"):
            solve_stack(Y, bad_G, c, params)
        with pytest.raises(DimensionError, match="shape"):
            solve_stack(Y, G[:, :-1, :-1], c, params)
        assert np.array_equal(solve_stack(Y, pre, c, params).s_hat, solve_stack(Y, G, c, params).s_hat)

    def test_draw_block_stream_layout(self):
        # Children 0-2 of the trial stream feed channel, data and noise;
        # child 3 comes back for the downlink evaluation.
        c = Constellation.qpsk()
        Y_got, _, s_got, h_got, dl_rng = model.draw_blocks(8, 5, c, 3.0, 21, (2, 7), 1)
        ch, data, noise, dl = np.random.SeedSequence(21, spawn_key=(2, 7)).spawn(4)
        z = np.random.default_rng(ch).standard_normal((2, 8))
        h = (z[0] + 1j * z[1]) / np.sqrt(2.0)
        idx = np.random.default_rng(data).integers(0, 4, size=5)
        s = np.concatenate([c.points[:1], c.points[idx]])
        z = np.random.default_rng(noise).standard_normal((2, 8, 6))
        Y = np.outer(h, s.conj()) + np.sqrt(model.snr_to_n0(3.0, c) / 2.0) * (z[0] + 1j * z[1])
        assert np.array_equal(h_got[0], h)
        assert np.array_equal(s_got[0], s)
        assert np.array_equal(Y_got[0], Y)
        assert np.array_equal(dl_rng.bit_generator.seed_seq.generate_state(4), dl.generate_state(4))

    def test_draw_block_keys_are_independent(self):
        c = Constellation.bpsk()
        a = one_block(4, 3, c, 0.0, 5, (0, 1))[0]
        b = one_block(4, 3, c, 0.0, 5, (0, 1))[0]
        other = one_block(4, 3, c, 0.0, 5, (1, 0))[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_draw_block_los_channel(self):
        geom = LosGeometry()
        h = one_block(6, 2, Constellation.bpsk(), 0.0, 1, (0,), los=geom)[2]
        assert np.array_equal(h, model.gen_los_channel(6, geom))

    def test_phase_ambiguity_of_objective(self):
        rng = np.random.default_rng(14)
        c = Constellation.qpsk()
        Y = one_block(8, 5, c, 6.0, 14, ())[0]
        s = model.random_data_vector(c, 5, rng)
        for phi in rng.uniform(0, 2 * np.pi, size=5):
            assert np.linalg.norm(Y @ (s * np.exp(1j * phi))) == pytest.approx(
                np.linalg.norm(Y @ s), rel=1e-12
            )


class TestSnr:
    def test_zero_db(self):
        assert model.snr_to_n0(0.0, Constellation.bpsk()) == 1.0

    def test_ten_db(self):
        assert model.snr_to_n0(10.0, Constellation.bpsk()) == pytest.approx(0.1, rel=1e-12)

    def test_three_db(self):
        assert model.snr_to_n0(3.0103, Constellation.bpsk()) == pytest.approx(0.5, abs=1e-6)

    def test_scales_with_sigma(self):
        assert model.snr_to_n0(0.0, Constellation.qpsk(2.0)) == pytest.approx(4.0)
