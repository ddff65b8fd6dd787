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
from simojed.model import Constellation, ReceivedBlock

from oracles import ml_jed_bruteforce


def noise_free_block(seed, B=6, K=5, kind="qpsk"):
    rng = np.random.default_rng(seed)
    c = Constellation.by_name(kind)
    h = model.gen_rayleigh_channel(B, rng)
    s = model.random_data_vector(c, K, c.points[0], rng)
    return ReceivedBlock(Y=np.outer(h, s.conj())), c, h, s


def noisy_block(seed, B=16, K=8, kind="qpsk", snr_db=0.0):
    c = Constellation.by_name(kind)
    return model.draw_block(B, K, c, snr_db, seed, ())[0], c


class TestMrcCsir:
    def test_noise_free_recovery(self):
        block, c, h, s = noise_free_block(0)
        assert np.array_equal(mrc_csir(block.Y, h, c).s_hat, s)

    def test_single_antenna_slices_conjugate(self):
        block, c, h, s = noise_free_block(1, B=1, kind="bpsk")
        res = mrc_csir(block.Y, h, c)
        # With a unit channel the combined statistic is conj of the received
        # row, which carries conj(s): slicing recovers s.
        assert np.array_equal(res.s_hat, s)

    def test_zero_channel_raises(self):
        block, c, _, _ = noise_free_block(2)
        with pytest.raises(DegenerateInputError):
            mrc_csir(block.Y, np.zeros(block.num_antennas, dtype=complex), c)

    def test_beats_chest_on_paired_batch(self):
        c = Constellation.bpsk()
        e_csir = e_chest = 0
        Y, _, s, h, _ = model.draw_blocks(16, 16, c, -8.0, 3000, (), 300)
        for t in range(300):
            st = s[t, 1:]
            e_csir += int(np.sum(mrc_csir(Y[t], h[t], c).s_hat[1:] != st))
            e_chest += int(np.sum(mrc_chest(Y[t], c=c).s_hat[1:] != st))
        assert e_csir < e_chest


class TestChestPilot:
    def test_noise_free_exact(self):
        block, c, h, _ = noise_free_block(4)
        assert np.allclose(chest_pilot(block.Y, c.points[0], c), h, atol=1e-12)

    def test_unbiased_and_variance(self):
        # The estimation error does not depend on the channel, so every
        # trial may draw its own.
        c = Constellation.qpsk()
        n0 = 0.8
        trials = 30_000
        Y, _, _, h, _ = model.draw_blocks(2, 0, c, -10.0 * np.log10(n0), 5, (), trials)
        err = chest_pilot(Y, c.points[0], c) - h
        assert np.max(np.abs(err.mean(axis=0))) < 0.01
        assert np.mean(np.abs(err) ** 2) == pytest.approx(n0 / c.sigma**2, rel=0.02)


class TestMrcChest:
    def test_noise_free_recovery(self):
        block, c, _, s = noise_free_block(6)
        assert np.array_equal(mrc_chest(block.Y, c=c).s_hat, s)

    def test_ser_monotone_in_snr(self):
        c = Constellation.qpsk()
        sers = []
        for snr in (-8.0, -4.0, 0.0, 4.0):
            errs = 0
            Y, _, s, _, _ = model.draw_blocks(16, 8, c, snr, 7000, (), 400)
            for t in range(400):
                errs += int(np.sum(mrc_chest(Y[t], c=c).s_hat[1:] != s[t, 1:]))
            sers.append(errs)
        assert all(b <= a for a, b in zip(sers, sers[1:]))


    def test_needs_constellation(self):
        block, _ = noisy_block(3)
        with pytest.raises(ParameterError):
            mrc_chest(block.Y)


class TestMrcRetrained:
    def test_needs_constellation(self):
        block, _ = noisy_block(3)
        with pytest.raises(ParameterError):
            mrc_retrained(block.Y)

    def test_noise_free(self):
        block, c, h, s = noise_free_block(8)
        res = mrc_retrained(block.Y, c=c)
        assert np.array_equal(res.s_hat, s)
        assert np.allclose(res.h_hat, h, atol=1e-12)

    def test_retraining_improves_channel_mse(self):
        c = Constellation.qpsk()
        mse_rt = mse_chest = 0.0
        Y, _, _, h, _ = model.draw_blocks(16, 8, c, 0.0, 9000, (), 2000)
        for t in range(2000):
            rt = mrc_retrained(Y[t], c=c)
            ch = mrc_chest(Y[t], c=c)
            mse_rt += float(np.sum(np.abs(rt.h_hat - h[t]) ** 2))
            mse_chest += float(np.sum(np.abs(ch.h_hat - h[t]) ** 2))
        assert mse_rt < mse_chest

    def test_solver_estimate_beats_pilot_estimate(self):
        c = Constellation.qpsk()
        mse_prox = mse_chest = 0.0
        Y, G, _, h_true, _ = model.draw_blocks(16, 8, c, 0.0, 11000, (), 1000)
        for t in range(1000):
            block, h = ReceivedBlock(Y=Y[t], G=G[t]), h_true[t]
            res = prox.solve(block, c, prox.ProxParams(t_max=5), record_trace=False)
            mse_prox += float(np.sum(np.abs(res.h_hat - h) ** 2))
            mse_chest += float(np.sum(np.abs(chest_pilot(block.Y, c.points[0], c) - h) ** 2))
        assert mse_prox < mse_chest


class TestMlJed:
    def test_noise_free_recovery(self):
        block, c, _, s = noise_free_block(10, B=4, K=6, kind="bpsk")
        assert np.array_equal(ml_jed_exhaustive(block.Y, c).s_hat, s)

    def test_tiny_example(self):
        c = Constellation.bpsk()
        Y = np.array([[1.0, -1.0, 1.0]], dtype=complex)
        block = model.ReceivedBlock(Y=Y)
        res = ml_jed_exhaustive(block.Y, c)
        assert np.array_equal(res.s_hat, [1.0, -1.0, 1.0])

    def test_budget_error(self):
        block, c = noisy_block(11, B=2, K=12, kind="qpsk")
        with pytest.raises(CapacityError):
            ml_jed_exhaustive(block.Y, c, budget=2**20)

    def test_lexicographic_tie_break(self):
        c = Constellation.qpsk()
        block = model.ReceivedBlock(Y=np.zeros((2, 4), dtype=complex))
        res = ml_jed_exhaustive(block.Y, c)
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
        s_check=st.sampled_from([None, 1j, -1.0, 1.0 - 1.0j]),
        chunk=st.sampled_from([None, 1, 5, 64]),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bruteforce(self, kind, B, K, T, s_check, chunk, integer, seed):
        # Integer entries and points of 1 +- 1j or +-1 keep every score
        # exact in both forms, so the many exact ties they make must go to
        # the same (first) candidate, also across chunk boundaries when the
        # chunk is shrunk; Gaussian entries cover the default constellation.
        # BPSK with a complex reference symbol needs the complex scores.
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
            s_hat = ml_jed_exhaustive(Y, c, s_check).s_hat
        ref = c.points[0] if s_check is None else s_check
        blocks = Y.reshape(-1, B, K + 1)
        expected = [ml_jed_bruteforce(Yt, c.points, ref) for Yt in blocks]
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

    def test_oracle_dominance(self):
        c = Constellation.bpsk()
        Y, G, *_ = model.draw_blocks(8, 6, c, -6.0, 12000, (), 50)
        for t in range(50):
            block = ReceivedBlock(Y=Y[t], G=G[t])
            ml = ml_jed_exhaustive(block.Y, c)
            px = prox.solve(block, c, prox.ProxParams(t_max=5), record_trace=False)
            assert np.linalg.norm(block.Y @ ml.s_hat) >= np.linalg.norm(
                block.Y @ px.s_hat
            ) - 1e-12

    def test_chunking_consistent(self):
        block, c = noisy_block(13, B=4, K=9, kind="bpsk", snr_db=-8.0)
        import simojed.baselines as bl

        old = bl._ENUM_CHUNK
        try:
            bl._ENUM_CHUNK = 64
            chunked = ml_jed_exhaustive(block.Y, c)
        finally:
            bl._ENUM_CHUNK = old
        whole = ml_jed_exhaustive(block.Y, c)
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

    def test_solver_beam_beats_pilot_beam(self):
        c = Constellation.qpsk()
        tot_prox = tot_chest = 0.0
        n0 = model.snr_to_n0(0.0, c)
        Y, G, _, h_true, dl_rng = model.draw_blocks(16, 8, c, 0.0, 17000, (), 1000)
        for t in range(1000):
            block, h = ReceivedBlock(Y=Y[t], G=G[t]), h_true[t]
            px = prox.solve(block, c, prox.ProxParams(t_max=5), record_trace=False)
            ch = mrc_chest(block.Y, c=c)
            draws = draw_downlink(dl_rng, c, 8)
            tot_prox += downlink_ser(h, px.h_hat, c, n0, draws)
            tot_chest += downlink_ser(h, ch.h_hat, c, n0, draws)
        assert tot_prox < tot_chest


class TestStacks:
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_stack_equals_per_block(self, kind):
        blocks = [noisy_block(300 + t, B=6, K=4, kind=kind, snr_db=-2.0)[0] for t in range(6)]
        c = Constellation.by_name(kind)
        Y = np.stack([block.Y for block in blocks])
        h = np.stack([block.truth.h_true for block in blocks])
        per_trial = [draw_downlink(np.random.default_rng(t), c, 9) for t in range(6)]
        draws = DownlinkDraws(*map(np.stack, zip(*per_trial)))
        detectors = (
            lambda Y, h: mrc_csir(Y, h, c),
            lambda Y, h: mrc_chest(Y, c=c),
            lambda Y, h: mrc_retrained(Y, c=c),
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
