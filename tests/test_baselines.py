import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simojed import baselines, model, prox
from simojed.baselines import (
    chest_pilot,
    downlink_ser,
    ml_jed_exhaustive,
    mrc,
)
from simojed.errors import CapacityError, DegenerateInputError, DimensionError, ParameterError
from simojed.linalg import gram, spectral_norm
from simojed.model import Constellation, DownlinkDraws

from oracles import downlink_ser_formula, ml_jed_bruteforce


def noise_free_block(seed, B=6, K=5, kind="qpsk"):
    """The block of the noise-free one-trial stack of ``seed``, exactly
    h s^H: (Y, c, h, s)."""
    c = Constellation(kind)
    Y, _, s, h, *_ = model.draw_blocks(B, K, c, seed, [((), np.inf, 1)])
    return Y[0], c, h[0], s[0]


def downlink_trials(seed, c, n, T=1):
    """Channels (T, 8) and downlink draws of ``n`` symbols of the noise-free
    pilot-only stack of ``seed``."""
    blocks = model.draw_blocks(8, 0, c, seed, [((), np.inf, T)], downlink_symbols=n)
    return blocks.h, blocks.downlink


def re_estimated(Y, s_hat):
    """Decisions with their least-squares channel estimate ``(s_hat,
    h_hat)``, as a sweep pairs them for ``mrc-rt`` and ``ml-jed``."""
    return s_hat, prox.channel_estimate(Y, s_hat)


def noisy_block(seed, B=16, K=8, kind="qpsk", snr_db=0.0):
    """The one-trial stack of ``seed``: (Y, h) of its block, and c."""
    c = Constellation(kind)
    Y, _, _, h, *_ = model.draw_blocks(B, K, c, seed, [((), snr_db, 1)])
    return Y[0], h[0], c


class TestMrcCsir:
    def test_noise_free_recovery(self):
        Y, c, h, s = noise_free_block(0)
        assert np.array_equal(mrc(Y, h, c), s)

    def test_single_antenna_slices_conjugate(self):
        Y, c, h, s = noise_free_block(1, B=1, kind="bpsk")
        # With a unit channel the combined statistic is conj of the received
        # row, which carries conj(s): slicing recovers s.
        assert np.array_equal(mrc(Y, h, c), s)

    def test_zero_channel_raises(self):
        Y, c, _, _ = noise_free_block(2)
        with pytest.raises(DegenerateInputError):
            mrc(Y, np.zeros(len(Y), dtype=complex), c)

    def test_beats_chest_on_paired_batch(self):
        c = Constellation("bpsk")
        e_csir = e_chest = 0
        Y, _, s, h, *_ = model.draw_blocks(16, 16, c, 3000, [((), -8.0, 300)])
        for t in range(300):
            st = s[t, 1:]
            e_csir += int(np.sum(mrc(Y[t], h[t], c)[1:] != st))
            e_chest += int(np.sum(mrc(Y[t], chest_pilot(Y[t], c), c)[1:] != st))
        assert e_csir < e_chest


class TestNonFiniteInputRejected:
    # Each used to be detected or evaluated as it was: a NaN at Y[0, 0, 1]
    # still gave trial 0 decisions, and a NaN channel a downlink SER of 1.0.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["mrc-csir", "mrc-chest", "mrc-rt"])
    def test_received_block(self, method, bad):
        c = Constellation("qpsk")
        Y, _, _, h, *_ = model.draw_blocks(8, 4, c, 3, [((0,), 0.0, 2)])
        Y[0, 0, 1] = bad
        detect = {
            "mrc-csir": lambda: mrc(Y, h, c),
            "mrc-chest": lambda: mrc(Y, chest_pilot(Y, c), c),
            "mrc-rt": lambda: re_estimated(Y, mrc(Y, chest_pilot(Y, c), c)),
        }[method]
        with pytest.raises(ParameterError, match="^received block has a non-finite entry$"):
            detect()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_true_channel(self, bad):
        c = Constellation("qpsk")
        Y, _, _, h, *_ = model.draw_blocks(8, 4, c, 3, [((0,), 0.0, 2)])
        h[1, 2] = bad
        with pytest.raises(ParameterError, match="^channel has a non-finite entry$"):
            mrc(Y, h, c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["channel", "channel estimate"])
    def test_downlink_channels(self, which, bad):
        c = Constellation("qpsk")
        blocks = model.draw_blocks(8, 4, c, 3, [((0,), 0.0, 2)], downlink_symbols=5)
        h, h_hat = blocks.h.copy(), blocks.h.copy()
        (h if which == "channel" else h_hat)[1, 2] = bad
        with pytest.raises(ParameterError, match=f"^{which} has a non-finite entry$"):
            downlink_ser(h, h_hat, c, blocks.n0, blocks.downlink)


class TestChestPilot:
    def test_noise_free_exact(self):
        Y, c, h, _ = noise_free_block(4)
        assert np.allclose(chest_pilot(Y, c), h, atol=1e-12)

    def test_unbiased_and_variance(self):
        # The estimation error does not depend on the channel, so every
        # trial may draw its own.
        c = Constellation("qpsk")
        n0 = 0.8
        trials = 30_000
        Y, _, _, h, *_ = model.draw_blocks(2, 0, c, 5, [((), -10.0 * np.log10(n0), trials)])
        err = chest_pilot(Y, c) - h
        assert np.max(np.abs(err.mean(axis=0))) < 0.01
        assert np.mean(np.abs(err) ** 2) == pytest.approx(n0 / c.sigma**2, rel=0.02)


class TestMrcChest:
    def test_noise_free_recovery(self):
        Y, c, _, s = noise_free_block(6)
        assert np.array_equal(mrc(Y, chest_pilot(Y, c), c), s)

    def test_ser_monotone_in_snr(self):
        c = Constellation("qpsk")
        sers = []
        for snr in (-8.0, -4.0, 0.0, 4.0):
            errs = 0
            Y, _, s, _, *_ = model.draw_blocks(16, 8, c, 7000, [((), snr, 400)])
            for t in range(400):
                errs += int(np.sum(mrc(Y[t], chest_pilot(Y[t], c), c)[1:] != s[t, 1:]))
            sers.append(errs)
        assert all(b <= a for a, b in zip(sers, sers[1:]))


class TestMrcRetrained:
    def test_noise_free(self):
        Y, c, h, s = noise_free_block(8)
        s_hat, h_hat = re_estimated(Y, mrc(Y, chest_pilot(Y, c), c))
        assert np.array_equal(s_hat, s)
        assert np.allclose(h_hat, h, atol=1e-12)

    def test_retraining_improves_channel_mse(self):
        c = Constellation("qpsk")
        mse_rt = mse_chest = 0.0
        Y, _, _, h, *_ = model.draw_blocks(16, 8, c, 9000, [((), 0.0, 2000)])
        for t in range(2000):
            ch = chest_pilot(Y[t], c)
            rt = prox.channel_estimate(Y[t], mrc(Y[t], ch, c))
            mse_rt += float(np.sum(np.abs(rt - h[t]) ** 2))
            mse_chest += float(np.sum(np.abs(ch - h[t]) ** 2))
        assert mse_rt < mse_chest

    def test_solver_estimate_beats_pilot_estimate(self):
        c = Constellation("qpsk")
        mse_prox = mse_chest = 0.0
        Y, G, _, h_true, *_ = model.draw_blocks(16, 8, c, 11000, [((), 0.0, 1000)])
        params = prox.ProxParams(t_max=5)
        alpha = params.alpha_scale * spectral_norm(G)
        for t in range(1000):
            h = h_true[t]
            s_hat = prox.solve_stack(prox.preprocess(G[t], alpha[t]), c, params)
            mse_prox += float(np.sum(np.abs(prox.channel_estimate(Y[t], s_hat) - h) ** 2))
            mse_chest += float(np.sum(np.abs(chest_pilot(Y[t], c) - h) ** 2))
        assert mse_prox < mse_chest


class TestMlJed:
    def test_noise_free_recovery(self):
        Y, c, _, s = noise_free_block(10, B=4, K=6, kind="bpsk")
        assert np.array_equal(ml_jed_exhaustive(gram(Y), c), s)

    def test_tiny_example(self):
        c = Constellation("bpsk")
        Y = np.array([[1.0, -1.0, 1.0]], dtype=complex)
        assert np.array_equal(ml_jed_exhaustive(gram(Y), c), [1.0, -1.0, 1.0])

    def test_budget_error(self):
        Y, _, c = noisy_block(11, B=2, K=12, kind="qpsk")
        with pytest.raises(CapacityError):
            ml_jed_exhaustive(gram(Y), c)

    def test_lexicographic_tie_break(self):
        c = Constellation("qpsk")
        s_hat = ml_jed_exhaustive(gram(np.zeros((2, 4), dtype=complex)), c)
        assert np.array_equal(s_hat, np.full(4, c.points[0]))

    def test_lexicographic_tie_break_bpsk(self):
        c = Constellation("bpsk")
        s_hat = ml_jed_exhaustive(gram(np.zeros((2, 4), dtype=complex)), c)
        assert np.array_equal(s_hat, np.full(4, c.points[0]))

    @given(
        kind=st.sampled_from(["bpsk", "qpsk"]),
        B=st.integers(1, 8),
        K=st.integers(1, 6),
        T=st.sampled_from([None, 1, 3]),
        chunk=st.sampled_from([None, 1, 5, 64]),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bruteforce(self, kind, B, K, T, chunk, integer, seed):
        # Integer entries and points of 1 +- 1j or +-1 keep every score
        # exact in both forms, so the many exact ties they make must go to
        # the same (first) candidate, also across chunk boundaries when the
        # chunk is shrunk; Gaussian entries cover the default constellation.
        rng = np.random.default_rng(seed)
        c = Constellation(kind, sigma=np.sqrt(2) if integer and kind == "qpsk" else 1.0)
        shape = (B, K + 1) if T is None else (T, B, K + 1)
        if integer:
            Y = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
        else:
            Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(baselines, "_ENUM_CHUNK", chunk)
            s_hat = ml_jed_exhaustive(gram(Y), c)
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
            ml_jed_exhaustive(gram(Y), Constellation("bpsk"))

    @pytest.mark.parametrize(
        "G, error",
        [
            (
                np.where(np.arange(220 * 17 * 17).reshape(220, 17, 17) == 1, np.nan, np.eye(17)),
                ParameterError,
            ),
            (np.ones(17), DimensionError),
            (np.ones((220, 17, 16)), DimensionError),
            (np.zeros((220, 0, 0)), DimensionError),
        ],
        ids=["non-finite", "vector", "non-square", "empty"],
    )
    def test_bad_gram_rejected_before_enumeration(self, G, error, monkeypatch):
        # The oracle once checked a block given beside its Gram stack only
        # in its channel-estimate tail, after scoring every candidate.
        def scored(*args):
            raise AssertionError("a candidate was enumerated")

        monkeypatch.setattr(baselines, "_enumerate_slots", scored)
        with pytest.raises(error):
            ml_jed_exhaustive(G, Constellation("bpsk"))

    def test_oracle_dominance(self):
        c = Constellation("bpsk")
        Y, G, *_ = model.draw_blocks(8, 6, c, 12000, [((), -6.0, 50)])
        params = prox.ProxParams(t_max=5)
        alpha = params.alpha_scale * spectral_norm(G)
        for t in range(50):
            ml = ml_jed_exhaustive(G[t], c)
            px = prox.solve_stack(prox.preprocess(G[t], alpha[t]), c, params)
            assert np.linalg.norm(Y[t] @ ml) >= np.linalg.norm(Y[t] @ px) - 1e-12

    def test_chunking_consistent(self):
        Y, _, c = noisy_block(13, B=4, K=9, kind="bpsk", snr_db=-8.0)
        import simojed.baselines as bl

        old = bl._ENUM_CHUNK
        try:
            bl._ENUM_CHUNK = 64
            chunked = ml_jed_exhaustive(gram(Y), c)
        finally:
            bl._ENUM_CHUNK = old
        whole = ml_jed_exhaustive(gram(Y), c)
        assert np.array_equal(chunked, whole)


class TestDownlink:
    def test_matched_noise_free(self):
        c = Constellation("qpsk")
        h, draws = downlink_trials(14, c, 100)
        assert downlink_ser(h, h, c, 0.0, draws).tolist() == [0.0]

    def test_global_phase_compensated_by_reference(self):
        # The receiver estimates the composite gain from the known reference
        # symbol, so a rotated channel estimate costs nothing noise-free.
        c = Constellation("qpsk")
        h, draws = downlink_trials(15, c, 100)
        rotated = h * np.exp(1j * 1.234)
        assert downlink_ser(h, rotated, c, 0.0, draws).tolist() == [0.0]

    def test_zero_estimate_raises(self):
        c = Constellation("qpsk")
        _, draws = downlink_trials(16, c, 10)
        with pytest.raises(DegenerateInputError):
            downlink_ser(np.ones(4, dtype=complex), np.zeros(4), c, 0.1, draws)

    @pytest.mark.parametrize(
        "n0",
        [-1.0, np.nan, np.inf, [0.1, -0.1, 0.1], [0.1, np.nan, 0.1]],
        ids=["negative", "nan", "inf", "negative-entry", "nan-entry"],
    )
    def test_bad_noise_variance_rejected(self, n0):
        # A negative or non-finite variance once gave error rates (here
        # 0.75, 0.875 and 0.9375) instead of an error.
        c = Constellation("qpsk")
        h, draws = downlink_trials(18, c, 16, T=3)
        with pytest.raises(ParameterError, match="noise variance"):
            downlink_ser(h, h, c, n0, draws)

    @pytest.mark.parametrize("T, n0", [(3, [0.1, 0.2]), (3, [[0.1, 0.2, 0.3]]), (None, [0.1])])
    def test_noise_variance_must_match_the_trial_axis(self, T, n0):
        c = Constellation("qpsk")
        h, draws = downlink_trials(19, c, 16, T=T or 1)
        if T is None:
            h, draws = h[0], DownlinkDraws(*(part[0] for part in draws))
        with pytest.raises(ParameterError, match="noise variances of shape"):
            downlink_ser(h, h, c, n0, draws)

    def test_per_trial_noise_variance_matches_scalar_calls(self):
        # One noise variance per trial gives each trial the rate of a
        # scalar call on that trial alone, with estimates stacked over a
        # leading method axis too.
        c = Constellation("qpsk")
        T = 6
        h, draws = downlink_trials(20, c, 40, T=T)
        h_hats = h + 0.6 * model.draw_blocks(8, 0, c, 120, [((), np.inf, T)]).h
        h_hats = np.stack([h_hats, h_hats.conj(), h])
        n0 = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 10.0])
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
        c = Constellation(kind)
        T = 7
        h, draws = downlink_trials(21, c, 33, T=T)
        h_hats = np.stack([h + 0.8 * model.draw_blocks(8, 0, c, 121, [((), np.inf, T)]).h, h])
        n0 = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]) if per_trial else 3.0
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
        c = Constellation("qpsk")
        blocks = model.draw_blocks(16, 8, c, 17000, [((), 0.0, 1000)], downlink_symbols=8)
        Y, G, _, h, n0, draws = blocks
        params = prox.ProxParams(t_max=5)
        px = prox.solve_stack(prox.preprocess(G, params.alpha_scale * spectral_norm(G)), c, params)
        tot_prox = np.sum(downlink_ser(h, prox.channel_estimate(Y, px), c, n0, draws))
        tot_chest = np.sum(downlink_ser(h, chest_pilot(Y, c), c, n0, draws))
        assert tot_prox < tot_chest


class TestStacks:
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_stack_equals_per_block(self, kind):
        blocks = [noisy_block(300 + t, B=6, K=4, kind=kind, snr_db=-2.0)[:2] for t in range(6)]
        c = Constellation(kind)
        Y, h = map(np.stack, zip(*blocks))
        chunks = [((t,), np.inf, 1) for t in range(6)]
        draws = model.draw_blocks(1, 0, c, 6, chunks, downlink_symbols=9).downlink
        per_trial = [DownlinkDraws(*(part[t] for part in draws)) for t in range(6)]
        detectors = (
            lambda Y, h: (mrc(Y, h, c), h),
            lambda Y, h: (mrc(Y, chest_pilot(Y, c), c), chest_pilot(Y, c)),
            lambda Y, h: re_estimated(Y, mrc(Y, chest_pilot(Y, c), c)),
            lambda Y, h: re_estimated(Y, ml_jed_exhaustive(gram(Y), c)),
        )
        for detect in detectors:
            s_stack, h_stack = detect(Y, h)
            ser = downlink_ser(h, h_stack, c, 0.5, draws)
            for t in range(6):
                s_one, h_one = detect(Y[t], h[t])
                assert np.array_equal(s_one, s_stack[t])
                assert np.allclose(h_one, h_stack[t], rtol=1e-12, atol=0)
                assert downlink_ser(h[t], h_one, c, 0.5, per_trial[t]) == ser[t]
