import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simojed import baselines, model, prox
from simojed.baselines import (
    DownlinkDraws,
    chest_pilot,
    downlink_ser,
    draw_downlink,
    ml_jed_exhaustive,
    mrc_chest,
    mrc_csir,
    mrc_retrained,
)
from simojed.errors import CapacityError, DegenerateInputError, DimensionError, ParameterError
from simojed.linalg import gram
from simojed.model import Constellation

from oracles import downlink_ser_formula, ml_jed_bruteforce


def noise_free_block(seed, B=6, K=5, kind="qpsk"):
    rng = np.random.default_rng(seed)
    c = Constellation.by_name(kind)
    h = model.gen_rayleigh_channel(B, rng)
    s = model.random_data_vector(c, K, rng)
    return np.outer(h, s.conj()), c, h, s


def noisy_block(seed, B=16, K=8, kind="qpsk", snr_db=0.0):
    """The one-trial stack of ``seed``: (Y, h) of its block, and c."""
    c = Constellation.by_name(kind)
    Y, _, _, h, _ = model.draw_blocks(B, K, c, snr_db, seed, (), 1)
    return Y[0], h[0], c


class TestMrcCsir:
    def test_noise_free_recovery(self):
        Y, c, h, s = noise_free_block(0)
        assert np.array_equal(mrc_csir(Y, h, c).s_hat, s)

    def test_single_antenna_slices_conjugate(self):
        Y, c, h, s = noise_free_block(1, B=1, kind="bpsk")
        res = mrc_csir(Y, h, c)
        # With a unit channel the combined statistic is conj of the received
        # row, which carries conj(s): slicing recovers s.
        assert np.array_equal(res.s_hat, s)

    def test_zero_channel_raises(self):
        Y, c, _, _ = noise_free_block(2)
        with pytest.raises(DegenerateInputError):
            mrc_csir(Y, np.zeros(len(Y), dtype=complex), c)

    def test_beats_chest_on_paired_batch(self):
        c = Constellation.bpsk()
        e_csir = e_chest = 0
        Y, _, s, h, _ = model.draw_blocks(16, 16, c, -8.0, 3000, (), 300)
        for t in range(300):
            st = s[t, 1:]
            e_csir += int(np.sum(mrc_csir(Y[t], h[t], c).s_hat[1:] != st))
            e_chest += int(np.sum(mrc_chest(Y[t], c).s_hat[1:] != st))
        assert e_csir < e_chest


class TestChestPilot:
    def test_noise_free_exact(self):
        Y, c, h, _ = noise_free_block(4)
        assert np.allclose(chest_pilot(Y, c), h, atol=1e-12)

    def test_unbiased_and_variance(self):
        # The estimation error does not depend on the channel, so every
        # trial may draw its own.
        c = Constellation.qpsk()
        n0 = 0.8
        trials = 30_000
        Y, _, _, h, _ = model.draw_blocks(2, 0, c, -10.0 * np.log10(n0), 5, (), trials)
        err = chest_pilot(Y, c) - h
        assert np.max(np.abs(err.mean(axis=0))) < 0.01
        assert np.mean(np.abs(err) ** 2) == pytest.approx(n0 / c.sigma**2, rel=0.02)


class TestMrcChest:
    def test_noise_free_recovery(self):
        Y, c, _, s = noise_free_block(6)
        assert np.array_equal(mrc_chest(Y, c).s_hat, s)

    def test_ser_monotone_in_snr(self):
        c = Constellation.qpsk()
        sers = []
        for snr in (-8.0, -4.0, 0.0, 4.0):
            errs = 0
            Y, _, s, _, _ = model.draw_blocks(16, 8, c, snr, 7000, (), 400)
            for t in range(400):
                errs += int(np.sum(mrc_chest(Y[t], c).s_hat[1:] != s[t, 1:]))
            sers.append(errs)
        assert all(b <= a for a, b in zip(sers, sers[1:]))


class TestMrcRetrained:
    def test_noise_free(self):
        Y, c, h, s = noise_free_block(8)
        res = mrc_retrained(Y, c)
        assert np.array_equal(res.s_hat, s)
        assert np.allclose(res.h_hat, h, atol=1e-12)

    def test_retraining_improves_channel_mse(self):
        c = Constellation.qpsk()
        mse_rt = mse_chest = 0.0
        Y, _, _, h, _ = model.draw_blocks(16, 8, c, 0.0, 9000, (), 2000)
        for t in range(2000):
            rt = mrc_retrained(Y[t], c)
            ch = mrc_chest(Y[t], c)
            mse_rt += float(np.sum(np.abs(rt.h_hat - h[t]) ** 2))
            mse_chest += float(np.sum(np.abs(ch.h_hat - h[t]) ** 2))
        assert mse_rt < mse_chest

    def test_solver_estimate_beats_pilot_estimate(self):
        c = Constellation.qpsk()
        mse_prox = mse_chest = 0.0
        Y, G, _, h_true, _ = model.draw_blocks(16, 8, c, 0.0, 11000, (), 1000)
        for t in range(1000):
            h = h_true[t]
            res = prox.solve_stack(Y[t], G[t], c, prox.ProxParams(t_max=5), record_trace=False)
            mse_prox += float(np.sum(np.abs(res.h_hat - h) ** 2))
            mse_chest += float(np.sum(np.abs(chest_pilot(Y[t], c) - h) ** 2))
        assert mse_prox < mse_chest


class TestMlJed:
    def test_noise_free_recovery(self):
        Y, c, _, s = noise_free_block(10, B=4, K=6, kind="bpsk")
        assert np.array_equal(ml_jed_exhaustive(Y, c).s_hat, s)

    def test_tiny_example(self):
        c = Constellation.bpsk()
        Y = np.array([[1.0, -1.0, 1.0]], dtype=complex)
        res = ml_jed_exhaustive(Y, c)
        assert np.array_equal(res.s_hat, [1.0, -1.0, 1.0])

    def test_budget_error(self):
        Y, _, c = noisy_block(11, B=2, K=12, kind="qpsk")
        with pytest.raises(CapacityError):
            ml_jed_exhaustive(Y, c, budget=2**20)

    def test_lexicographic_tie_break(self):
        c = Constellation.qpsk()
        res = ml_jed_exhaustive(np.zeros((2, 4), dtype=complex), c)
        assert np.array_equal(res.s_hat, np.full(4, c.points[0]))

    def test_lexicographic_tie_break_bpsk(self):
        c = Constellation.bpsk()
        res = ml_jed_exhaustive(np.zeros((2, 4), dtype=complex), c)
        assert np.array_equal(res.s_hat, np.full(4, c.points[0]))

    @given(
        kind=st.sampled_from(["bpsk", "qpsk"]),
        B=st.integers(1, 8),
        K=st.integers(1, 6),
        T=st.sampled_from([None, 1, 3]),
        chunk=st.sampled_from([None, 1, 5, 64]),
        integer=st.booleans(),
        given_gram=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bruteforce(self, kind, B, K, T, chunk, integer, given_gram, seed):
        # Integer entries and points of 1 +- 1j or +-1 keep every score
        # exact in both forms, so the many exact ties they make must go to
        # the same (first) candidate, also across chunk boundaries when the
        # chunk is shrunk; Gaussian entries cover the default constellation.
        rng = np.random.default_rng(seed)
        c = Constellation.by_name(kind, sigma=np.sqrt(2) if integer and kind == "qpsk" else 1.0)
        shape = (B, K + 1) if T is None else (T, B, K + 1)
        if integer:
            Y = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
        else:
            Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(baselines, "_ENUM_CHUNK", chunk)
            G = gram(Y) if given_gram else None
            s_hat = ml_jed_exhaustive(Y, c, G=G).s_hat
        blocks = Y.reshape(-1, B, K + 1)
        expected = [ml_jed_bruteforce(Yt, c.points, c.points[0]) for Yt in blocks]
        assert np.array_equal(s_hat.reshape(-1, K + 1), expected)

    @pytest.mark.parametrize(
        "Y, error",
        [
            (np.where(np.arange(24).reshape(2, 3, 4) == 23, np.nan, 1.0), ParameterError),
            (np.zeros((0, 3)), DimensionError),
            (np.ones(3), DimensionError),
        ],
        ids=["non-finite", "no-antennas", "vector"],
    )
    def test_bad_input_rejected(self, Y, error):
        with pytest.raises(error):
            ml_jed_exhaustive(Y, Constellation.bpsk())

    def test_given_gram_taken_as_given(self, monkeypatch):
        # A Gram stack passed in is scored as it is, without recomputing
        # it from Y; the channel estimate still comes from Y.
        c = Constellation.bpsk()
        Y, G, *_ = model.draw_blocks(8, 5, c, -4.0, 12001, (), 4)
        other, G_other, *_ = model.draw_blocks(8, 5, c, -4.0, 12002, (), 4)
        monkeypatch.setattr(baselines, "gram", None)
        res = ml_jed_exhaustive(Y, c, G=G_other)
        assert np.array_equal(res.s_hat, [ml_jed_bruteforce(Yt, c.points, c.points[0]) for Yt in other])
        assert np.array_equal(res.h_hat, prox.channel_estimate(Y, res.s_hat))

    def test_oracle_dominance(self):
        c = Constellation.bpsk()
        Y, G, *_ = model.draw_blocks(8, 6, c, -6.0, 12000, (), 50)
        for t in range(50):
            ml = ml_jed_exhaustive(Y[t], c)
            px = prox.solve_stack(Y[t], G[t], c, prox.ProxParams(t_max=5), record_trace=False)
            assert np.linalg.norm(Y[t] @ ml.s_hat) >= np.linalg.norm(Y[t] @ px.s_hat) - 1e-12

    def test_chunking_consistent(self):
        Y, _, c = noisy_block(13, B=4, K=9, kind="bpsk", snr_db=-8.0)
        import simojed.baselines as bl

        old = bl._ENUM_CHUNK
        try:
            bl._ENUM_CHUNK = 64
            chunked = ml_jed_exhaustive(Y, c)
        finally:
            bl._ENUM_CHUNK = old
        whole = ml_jed_exhaustive(Y, c)
        assert np.array_equal(chunked.s_hat, whole.s_hat)


class TestDownlink:
    def test_matched_noise_free(self):
        rng = np.random.default_rng(14)
        c = Constellation.qpsk()
        h = model.gen_rayleigh_channel(8, rng)
        assert downlink_ser(h, h, c, 0.0, draw_downlink(rng, c, 100)) == 0.0

    def test_global_phase_compensated_by_reference(self):
        # The receiver estimates the composite gain from the known reference
        # symbol, so a rotated channel estimate costs nothing noise-free.
        rng = np.random.default_rng(15)
        c = Constellation.qpsk()
        h = model.gen_rayleigh_channel(8, rng)
        rotated = h * np.exp(1j * 1.234)
        assert downlink_ser(h, rotated, c, 0.0, draw_downlink(rng, c, 100)) == 0.0

    def test_zero_estimate_raises(self):
        rng = np.random.default_rng(16)
        with pytest.raises(DegenerateInputError):
            c = Constellation.qpsk()
            downlink_ser(np.ones(4, dtype=complex), np.zeros(4), c, 0.1, draw_downlink(rng, c, 10))

    @pytest.mark.parametrize(
        "n0",
        [-1.0, np.nan, np.inf, [0.1, -0.1, 0.1], [0.1, np.nan, 0.1]],
        ids=["negative", "nan", "inf", "negative-entry", "nan-entry"],
    )
    def test_bad_noise_variance_rejected(self, n0):
        # A negative or non-finite variance once gave error rates (here
        # 0.75, 0.875 and 0.9375) instead of an error.
        rng = np.random.default_rng(18)
        c = Constellation.qpsk()
        h = model.gen_rayleigh_channel(8, rng, 3)
        with pytest.raises(ParameterError, match="noise variance"):
            downlink_ser(h, h, c, n0, draw_downlink(rng, c, 16, 3))

    @pytest.mark.parametrize("T, n0", [(3, [0.1, 0.2]), (3, [[0.1, 0.2, 0.3]]), (None, [0.1])])
    def test_noise_variance_must_match_the_trial_axis(self, T, n0):
        rng = np.random.default_rng(19)
        c = Constellation.qpsk()
        h = model.gen_rayleigh_channel(8, rng, T)
        with pytest.raises(ParameterError, match="noise variances of shape"):
            downlink_ser(h, h, c, n0, draw_downlink(rng, c, 16, T))

    def test_per_trial_noise_variance_matches_scalar_calls(self):
        # One noise variance per trial gives each trial the rate of a
        # scalar call on that trial alone, with estimates stacked over a
        # leading method axis too.
        rng = np.random.default_rng(20)
        c = Constellation.qpsk()
        T = 6
        h = model.gen_rayleigh_channel(8, rng, T)
        h_hats = h + 0.6 * model.gen_rayleigh_channel(8, rng, T)
        h_hats = np.stack([h_hats, h_hats.conj(), h])
        n0 = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 10.0])
        draws = draw_downlink(rng, c, 40, T)
        ser = downlink_ser(h, h_hats, c, n0, draws)
        assert ser.shape == (3, T)
        assert len(np.unique(ser[0])) > 2
        for t in range(T):
            one = DownlinkDraws(*(part[t] for part in draws))
            for m in range(3):
                assert ser[m, t] == downlink_ser(h[t], h_hats[m, t], c, n0[t], one)

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("per_trial", [False, True], ids=["scalar-n0", "per-trial-n0"])
    def test_bit_equal_to_the_gathering_formula(self, kind, per_trial):
        # Comparing decided indices with the sent ones gives the rates of
        # comparing the decided points with the sent points, bit for bit.
        rng = np.random.default_rng(21)
        c = Constellation.by_name(kind)
        T = 7
        h = model.gen_rayleigh_channel(8, rng, T)
        h_hats = np.stack([h + 0.8 * model.gen_rayleigh_channel(8, rng, T), h])
        n0 = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]) if per_trial else 3.0
        draws = draw_downlink(rng, c, 33, T)
        # Trial 2 loses its gain: a beam orthogonal to the channel and no
        # reference noise.
        h[2] = 0.0
        h[2, 0] = 1.0
        h_hats[:, 2] = 0.0
        h_hats[:, 2, 1] = 1.0
        draws.ref_noise[2] = 0.0
        ser = downlink_ser(h, h_hats, c, n0, draws)
        assert ser[0, 2] == 1.0 and len(np.unique(ser)) > 3
        args = (c.points, c.sigma, n0) + tuple(draws)
        assert np.array_equal(ser, downlink_ser_formula(h, h_hats, *args))
        one = DownlinkDraws(*(part[4] for part in draws))
        n0_4 = n0[4] if per_trial else n0
        assert downlink_ser(h[4], h_hats[0, 4], c, n0_4, one) == downlink_ser_formula(
            h[4], h_hats[0, 4], c.points, c.sigma, n0_4, *one
        )

    def test_solver_beam_beats_pilot_beam(self):
        c = Constellation.qpsk()
        tot_prox = tot_chest = 0.0
        n0 = model.snr_to_n0(0.0, c)
        Y, G, _, h_true, dl_rng = model.draw_blocks(16, 8, c, 0.0, 17000, (), 1000)
        for t in range(1000):
            h = h_true[t]
            px = prox.solve_stack(Y[t], G[t], c, prox.ProxParams(t_max=5), record_trace=False)
            ch = mrc_chest(Y[t], c)
            draws = draw_downlink(dl_rng, c, 8)
            tot_prox += downlink_ser(h, px.h_hat, c, n0, draws)
            tot_chest += downlink_ser(h, ch.h_hat, c, n0, draws)
        assert tot_prox < tot_chest


class TestStacks:
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_stack_equals_per_block(self, kind):
        blocks = [noisy_block(300 + t, B=6, K=4, kind=kind, snr_db=-2.0)[:2] for t in range(6)]
        c = Constellation.by_name(kind)
        Y, h = map(np.stack, zip(*blocks))
        per_trial = [draw_downlink(np.random.default_rng(t), c, 9) for t in range(6)]
        draws = DownlinkDraws(*map(np.stack, zip(*per_trial)))
        detectors = (
            lambda Y, h: mrc_csir(Y, h, c),
            lambda Y, h: mrc_chest(Y, c),
            lambda Y, h: mrc_retrained(Y, c),
            lambda Y, h: ml_jed_exhaustive(Y, c),
        )
        for detect in detectors:
            stacked = detect(Y, h)
            ser = downlink_ser(h, stacked.h_hat, c, 0.5, draws)
            for t in range(6):
                one = detect(Y[t], h[t])
                assert np.array_equal(one.s_hat, stacked.s_hat[t])
                assert np.allclose(one.h_hat, stacked.h_hat[t], rtol=1e-12, atol=0)
                assert downlink_ser(h[t], one.h_hat, c, 0.5, per_trial[t]) == ser[t]
