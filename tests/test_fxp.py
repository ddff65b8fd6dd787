import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simojed import fxp, model, prox
from simojed.linalg import spectral_norm
from simojed.errors import DimensionError, ParameterError, SimojedError
from simojed.fxp import (
    ACC_BITS,
    ACTIONS,
    ACC_FRAC,
    G_BITS,
    G_FRAC,
    MAC,
    S_BITS,
    S_FRAC,
    PeArrayConfig,
    direct_iteration,
    latency_cycles,
    mac_step,
    pe_array_iteration,
    projection_unit,
    quantize_array,
    quantize_block,
    solve_fixed_stack,
    throughput_bps,
)
from simojed.model import Constellation

from oracles import int_iteration, int_mac, int_projection, int_quantize

FORMATS = [(S_BITS, S_FRAC), (G_BITS, G_FRAC), (ACC_BITS, ACC_FRAC)]
ACC_CODES = np.arange(-(1 << (ACC_BITS - 1)), 1 << (ACC_BITS - 1))
# The 16 corners of the 12-bit x 6-bit word ranges, one (gre, gim, sre, sim)
# row each; row 0, (-2048, -2048) x (-32, -32), is the one whose imaginary
# cross-term wraps.
CORNERS = np.array(np.meshgrid([-2048, 2047], [-2048, 2047], [-32, 31], [-32, 31]))
CORNERS = CORNERS.reshape(4, 16).T


def raw_words(rng, bits, size):
    return rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), size=size)


def clip_threshold(rho_log2):
    """The 12-bit 1/rho word, from the big-integer quantizer."""
    return int_quantize(1.0 / (1 << rho_log2), 12, 11)


class TestQuantize:
    def test_exact_value(self):
        re, im = quantize_array(0.625 - 0.25j, S_BITS, S_FRAC)
        assert (int(re), int(im)) == (5, -2)
        assert re.dtype == np.int32

    def test_saturation_ceiling(self):
        re, im = quantize_array(np.array([4.2, -4.2]), S_BITS, S_FRAC)
        assert re.tolist() == [31, -32] and im.tolist() == [0, 0]

    def test_infinities_saturate(self):
        re, im = quantize_array(np.array([np.inf, -np.inf, complex(0.0, np.inf)]), S_BITS, S_FRAC)
        assert re.tolist() == [31, -32, 0] and im.tolist() == [0, 0, 31]

    @pytest.mark.parametrize(
        "z",
        [[np.nan, 1.0], [complex(1.0, np.nan)], [0.5, complex(np.nan, np.nan)]],
        ids=["real-nan", "imaginary-nan", "both-nan"],
    )
    def test_nan_rejected(self, z):
        # A NaN used to become the word -2**63 with only a RuntimeWarning.
        with pytest.raises(ParameterError, match="NaN"):
            quantize_array(z, S_BITS, S_FRAC)

    def test_truncation_toward_negative_infinity(self):
        re, _ = quantize_array(np.array([-0.0626, 0.0624]), S_BITS, S_FRAC)
        assert re.tolist() == [-1, 0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for bits, frac in FORMATS:
            z = rng.uniform(-20, 20, size=50) + 1j * rng.uniform(-20, 20, size=50)
            once = quantize_array(z, bits, frac)
            again = quantize_array((once[0] + 1j * once[1]) / (1 << frac), bits, frac)
            assert np.array_equal(again[0], once[0]) and np.array_equal(again[1], once[1])

    def test_saturating_formats_monotone(self):
        raws, _ = quantize_array(np.linspace(-6, 6, 401), S_BITS, S_FRAC)
        assert np.all(np.diff(raws) >= 0)

    def test_matches_integer_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-40, 40, size=200) + 1j * rng.uniform(-40, 40, size=200)
        for bits, frac in FORMATS:
            re, im = quantize_array(z, bits, frac)
            assert re.tolist() == [int_quantize(x.real, bits, frac) for x in z]
            assert im.tolist() == [int_quantize(x.imag, bits, frac) for x in z]


class TestMacStep:
    def test_near_identity_multiply(self):
        g = quantize_array(1.0, G_BITS, G_FRAC)  # saturates to 2047/2048
        s = quantize_array(1.0, S_BITS, S_FRAC)
        re, im = mac_step((0, 0), g, s)
        assert int(re) == (2047 * 8) >> 3 == 2047
        assert int(im) == 0

    def test_zero_operand_keeps_acc(self):
        zero_g = quantize_array(0.0, G_BITS, G_FRAC)
        s = quantize_array(0.5 - 0.25j, S_BITS, S_FRAC)
        re, im = mac_step((123, -77), zero_g, s)
        assert (int(re), int(im)) == (123, -77)

    def test_cross_term_wraps(self):
        # The only in-range operands whose cross-term leaves 15 bits: the
        # imaginary part 2 * (-2048 * -32 >> 3) = 16384 wraps to -16384.
        g, s = (-2048, -2048), (-32, -32)
        re, im = mac_step((0, 0), g, s)
        assert (int(re), int(im)) == int_mac(0, 0, *g, *s) == (0, -16384)

    def test_cross_term_range_at_word_corners(self):
        # Cross-terms are bilinear in the words and truncation is monotone,
        # so the 16 corners of the 12-bit x 6-bit ranges bound them: the
        # real part spans [-16380, 16380] and the imaginary part reaches
        # 16384, the only value that wraps, at one corner.
        # The same holds on the int32 words of the datapath.
        gre, gim, sre, sim = CORNERS.T
        re = (gre * sre >> 3) - (gim * sim >> 3)
        im = (gre * sim >> 3) + (gim * sre >> 3)
        assert (re.min(), re.max(), im.min(), im.max()) == (-16380, 16380, -16376, 16384)
        wraps = im == 16384
        assert np.flatnonzero(wraps).tolist() == [0]
        assert (gre[0], gim[0], sre[0], sim[0]) == (-2048, -2048, -32, -32)
        for dtype in (np.int64, np.int32):
            words = CORNERS.T.astype(dtype)
            cross = fxp._cross_terms(words[:2], words[2:])
            assert cross.dtype == dtype
            assert np.array_equal(cross[0], re)
            assert np.array_equal(cross[1], np.where(wraps, -16384, im))

    def test_random_batch_matches_big_integer_oracle(self):
        # 2000 random MACs as one array call.
        rng = np.random.default_rng(2)
        acc = raw_words(rng, ACC_BITS, (2, 2000))
        g = raw_words(rng, G_BITS, (2, 2000))
        s = raw_words(rng, S_BITS, (2, 2000))
        re, im = mac_step(acc, g, s)
        ref = [int_mac(*args) for args in zip(*acc.tolist(), *g.tolist(), *s.tolist())]
        assert list(zip(re.tolist(), im.tolist())) == ref


class TestProjectionUnit:
    def test_upper_clip(self):
        q, _ = quantize_array(0.9, ACC_BITS, ACC_FRAC)  # 0.9 >= 1/4
        assert int(projection_unit(q, 2)) == 8

    def test_lower_clip(self):
        q, _ = quantize_array(-0.9, ACC_BITS, ACC_FRAC)
        assert int(projection_unit(q, 2)) == -8

    def test_exact_threshold_is_clip(self):
        # q == +1/rho exactly clips; one code below passes through.
        inv = clip_threshold(3)
        assert projection_unit([inv, inv - 1], 3).tolist() == [8, 7]

    def test_interior_matches_oracle_sample(self):
        rng = np.random.default_rng(3)
        for r in (1, 3, 6):
            raws = raw_words(rng, ACC_BITS, 500)
            ref = [int_projection(raw, r, clip_threshold(r)) for raw in raws.tolist()]
            assert projection_unit(raws, r).tolist() == ref

    def test_exhaustive_single_rho(self):
        # Every 15-bit code, as int64 and as the datapath's int32 words, at
        # the extreme gains too: at rho_log2 >= 12 the 1/rho word is 0, and
        # at 15 the pass-through shift reaches 2**29.
        for r in (2, 1, 11, 12, 15):
            ref = [int_projection(raw, r, clip_threshold(r)) for raw in ACC_CODES.tolist()]
            for dtype in (np.int64, np.int32):
                out = projection_unit(ACC_CODES.astype(dtype), r)
                assert out.dtype == dtype and out.tolist() == ref


class TestPeArrayConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(N=5, t_max=1, rho_log2=0), "rho_log2"),
            (dict(N=5, t_max=1, rho_log2=16), "rho_log2"),
            (dict(N=1, t_max=1, rho_log2=1), "processing elements"),
            (dict(N=5, t_max=0, rho_log2=1), "t_max"),
        ],
        ids=["rho_log2=0", "rho_log2=16", "N=1", "t_max=0"],
    )
    def test_rejects_out_of_range(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            PeArrayConfig(**kwargs)

    def test_accepts_extreme_gains(self):
        assert PeArrayConfig(N=2, t_max=1, rho_log2=1).rho_log2 == 1
        assert PeArrayConfig(N=2, t_max=1, rho_log2=15).rho_log2 == 15


def random_quantized_instance(rng, N):
    gre, gim = raw_words(rng, G_BITS, (N, N)), raw_words(rng, G_BITS, (N, N))
    sre, sim = raw_words(rng, S_BITS, N), raw_words(rng, S_BITS, N)
    return (gre, gim), (sre, sim)


class TestPeArray:
    def test_input_cyclic_operand_order_n3(self):
        # Element 1 must consume its row starting at the diagonal: columns
        # 1, 2, 0 on the first three cycles, with the matching iterate entry.
        rng = np.random.default_rng(4)
        G_q, s_q = random_quantized_instance(rng, 3)
        cfg = PeArrayConfig(N=3, t_max=1, rho_log2=1)
        _, trace = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        assert np.flatnonzero(trace.action[:, 1] == MAC).tolist() == [0, 1, 2]
        assert trace.col[:3, 1].tolist() == [1, 2, 0]
        assert trace.g_re[:3, 1].tolist() == [int(G_q[0][1, c]) for c in (1, 2, 0)]
        assert trace.s_re[:3, 1].tolist() == [int(s_q[0][c]) for c in (1, 2, 0)]

    @pytest.mark.parametrize("N", [3, 5, 9])
    def test_matches_direct_reference(self, N):
        rng = np.random.default_rng(5)
        cfg = PeArrayConfig(N=N, t_max=1, rho_log2=2)
        for _ in range(25):
            G_q, s_q = random_quantized_instance(rng, N)
            out_sched, trace = pe_array_iteration(s_q, G_q, cfg, (8, 0))
            out_direct = direct_iteration(s_q, G_q, cfg, (8, 0))
            assert np.array_equal(out_sched[0], out_direct[0])
            assert np.array_equal(out_sched[1], out_direct[1])
            assert trace.cycles() == (N - 1) + 4

    def test_cycle_budget_and_actions(self):
        rng = np.random.default_rng(6)
        N = 5
        G_q, s_q = random_quantized_instance(rng, N)
        cfg = PeArrayConfig(N=N, t_max=1, rho_log2=1)
        _, trace = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        K = N - 1
        assert trace.cycles() == K + 4
        for grid in vars(trace).values():
            assert grid.shape == (K + 4, N) and grid.dtype == np.int64
        actions = [[ACTIONS[a] for a in row] for row in trace.action.tolist()]
        for row in actions[:N]:  # feed cycles
            assert row == ["shift"] + ["mac"] * K
        for row in actions[N : N + 2]:  # flush
            assert row == ["idle"] * N
        assert actions[N + 2] == ["idle"] + ["project"] * K

    def test_pilot_element_passes_reference(self):
        rng = np.random.default_rng(7)
        G_q, s_q = random_quantized_instance(rng, 4)
        cfg = PeArrayConfig(N=4, t_max=1, rho_log2=1)
        out, _ = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        assert out[0][0] == 8 and out[1][0] == 0

    def test_real_only_zeroes_imag(self):
        rng = np.random.default_rng(8)
        G_q, s_q = random_quantized_instance(rng, 4)
        cfg = PeArrayConfig(N=4, t_max=1, rho_log2=1, real_only=True)
        out, _ = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        assert np.all(out[1] == 0)

    def test_trace_text_round_shape(self):
        rng = np.random.default_rng(9)
        G_q, s_q = random_quantized_instance(rng, 3)
        cfg = PeArrayConfig(N=3, t_max=1, rho_log2=1)
        _, trace = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        text = trace.to_text()
        lines = text.strip().split("\n")
        assert lines[0] == "cycle,pe,action,re_operands,im_operands,acc"
        assert len(lines) == 1 + trace.action.size
        assert all(line.count(",") == 5 for line in lines[1:])

    @given(
        N=st.integers(2, 17),
        rho_log2=st.integers(1, 6),
        real_only=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_integer_oracle(self, N, rho_log2, real_only, seed):
        # Independent of the array helpers the simulator shares with
        # direct_iteration: the final iterate against the big-integer
        # iteration, every MAC cell's accumulator against a running
        # big-integer MAC over the operands it logged, and every other
        # cell against the ring entries, the final sums and the outputs.
        rng = np.random.default_rng(seed)
        G_q, s_q = random_quantized_instance(rng, N)
        s_check_q = tuple(raw_words(rng, S_BITS, 2).tolist())
        cfg = PeArrayConfig(N=N, t_max=1, rho_log2=rho_log2, real_only=real_only)
        (out_re, out_im), trace = pe_array_iteration(s_q, G_q, cfg, s_check_q)
        ref = int_iteration(s_q, G_q, N, rho_log2, real_only, s_check_q)
        assert out_re.tolist() == ref[0] and out_im.tolist() == ref[1]
        s_im = [0] * N if real_only else s_q[1].tolist()
        assert int(np.sum(trace.action == MAC)) == N * (N - 1)
        acc = {k: (0, 0) for k in range(1, N)}
        for j, k in zip(*np.nonzero(trace.action == MAC)):
            col = int(trace.col[j, k])
            g = int(trace.g_re[j, k]), int(trace.g_im[j, k])
            s = int(trace.s_re[j, k]), int(trace.s_im[j, k])
            assert col == (k + j) % N
            assert g == (int(G_q[0][k, col]), int(G_q[1][k, col]))
            assert s == (int(s_q[0][col]), s_im[col])
            acc[k] = int_mac(*acc[k], *g, *s)
            assert (int(trace.acc_re[j, k]), int(trace.acc_im[j, k])) == acc[k]
        # Element 0 shifts the ring entries on, and holds no sum.
        assert trace.s_re[:N, 0].tolist() == s_q[0].tolist()
        assert trace.s_im[:N, 0].tolist() == s_im
        assert not trace.acc_re[:, 0].any() and not trace.acc_im[:, 0].any()
        # The flush and projection rows hold the final sums.
        final_re, final_im = ([acc[k][i] for k in range(1, N)] for i in (0, 1))
        assert trace.acc_re[N:, 1:].tolist() == [final_re] * 3
        assert trace.acc_im[N:, 1:].tolist() == [final_im] * 3
        # The last row carries the outputs, and element 0 the pilot.
        assert trace.s_re[-1].tolist() == ref[0] and trace.s_im[-1].tolist() == ref[1]
        assert (ref[0][0], ref[1][0]) == s_check_q


class TestWordChecks:
    @pytest.mark.parametrize("iteration", [direct_iteration, pe_array_iteration])
    @pytest.mark.parametrize("N", [5, 3], ids=["N=5", "N=3"])
    def test_size_mismatch_rejected(self, iteration, N):
        # direct_iteration used to fail with numpy's reshape error here.
        G_q, s_q = random_quantized_instance(np.random.default_rng(10), 4)
        with pytest.raises(DimensionError, match="do not match the array size"):
            iteration(s_q, G_q, PeArrayConfig(N=N, t_max=1, rho_log2=1), (8, 0))

    @pytest.mark.parametrize(
        "g_shape, s_shape",
        [((2, 4, 4), (3, 4)), ((2, 4, 4), (4,)), ((4, 4), (2, 4))],
        ids=["trials-differ", "one-iterate", "one-matrix"],
    )
    def test_stack_mismatch_rejected(self, g_shape, s_shape):
        g, s = np.zeros(g_shape, dtype=np.int32), np.zeros(s_shape, dtype=np.int32)
        with pytest.raises(DimensionError, match="do not match the array size"):
            direct_iteration((s, s), (g, g), PeArrayConfig(N=4, t_max=1, rho_log2=1), (8, 0))

    def test_stacked_words_rejected_by_the_array(self):
        g, s = np.zeros((2, 4, 4), dtype=np.int32), np.zeros((2, 4), dtype=np.int32)
        with pytest.raises(DimensionError, match="do not match the array size"):
            pe_array_iteration((s, s), (g, g), PeArrayConfig(N=4, t_max=1, rho_log2=1), (8, 0))

    @pytest.mark.parametrize("iteration", [direct_iteration, pe_array_iteration])
    @pytest.mark.parametrize(
        "field, value, pilot, match",
        [
            ("gre", 2048, (8, 0), "matrix words must be 12-bit"),
            ("gim", -2049, (8, 0), "matrix words must be 12-bit"),
            ("sre", 32, (8, 0), "iterate words must be 6-bit"),
            ("sim", -33, (8, 0), "iterate words must be 6-bit"),
            (None, None, (99, 0), "pilot words must be 6-bit"),
            (None, None, (0, -33), "pilot words must be 6-bit"),
        ],
        ids=[f"{w}-{end}" for w in ("matrix", "iterate", "pilot") for end in ("high", "low")],
    )
    def test_words_outside_format_rejected(self, iteration, field, value, pilot, match):
        (gre, gim), (sre, sim) = random_quantized_instance(np.random.default_rng(11), 4)
        words = dict(gre=gre, gim=gim, sre=sre, sim=sim)
        if field is not None:
            words[field][-1, ...] = value
        cfg = PeArrayConfig(N=4, t_max=1, rho_log2=1)
        with pytest.raises(ParameterError, match=match):
            iteration((words["sre"], words["sim"]), (words["gre"], words["gim"]), cfg, pilot)

    @pytest.mark.parametrize("iteration", [direct_iteration, pe_array_iteration])
    def test_saturated_words_no_longer_pass(self, iteration):
        # Matrix words all 5000 and the iterate (40, 0, 0) used to give the
        # iterate (8, -8, -8) without a word of warning.
        g = np.full((3, 3), 5000)
        cfg = PeArrayConfig(N=3, t_max=1, rho_log2=1)
        with pytest.raises(ParameterError, match="12-bit"):
            iteration((np.array([40, 0, 0]), np.zeros(3, dtype=int)), (g, g), cfg, (8, 0))

    def test_real_only_ignores_the_imaginary_iterate(self):
        # A real-only array drops the imaginary iterate before any check.
        G_q, (sre, _) = random_quantized_instance(np.random.default_rng(12), 4)
        cfg = PeArrayConfig(N=4, t_max=1, rho_log2=1, real_only=True)
        s_q = sre, np.full(4, 99)
        _, out_im = direct_iteration(s_q, G_q, cfg, (8, 0))
        (_, arr_im), _ = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        assert out_im.tolist() == arr_im.tolist() == [0] * 4


class TestInt32Headroom:
    @pytest.mark.parametrize("rho_log2", [1, 11, 12, 15])
    @pytest.mark.parametrize("real_only", [False, True], ids=["complex", "real-only"])
    def test_word_corners_match_integer_oracle(self, rho_log2, real_only):
        # Every word at a corner of its range: one block per corner, whose
        # products are all that corner's (so its sums saturate), and blocks
        # that mix corners entry by entry. Both iterations against the
        # big-integer model.
        N = 5
        uniform = np.broadcast_to(CORNERS[:, :, None, None], (16, 4, N, N))
        mixed = CORNERS[np.random.default_rng(rho_log2).integers(0, 16, size=(16, N, N))]
        blocks = np.concatenate([uniform, mixed.transpose(0, 3, 1, 2)])
        gre, gim = blocks[:, 0], blocks[:, 1]
        sre, sim = blocks[:, 2, 0], blocks[:, 3, 0]
        cfg = PeArrayConfig(N=N, t_max=1, rho_log2=rho_log2, real_only=real_only)
        pilot = (-32, 31)
        out_re, out_im = direct_iteration((sre, sim), (gre, gim), cfg, pilot)
        assert out_re.dtype == out_im.dtype == np.int32
        for t in range(len(blocks)):
            words = (sre[t], sim[t]), (gre[t], gim[t])
            ref = int_iteration(*words, N, rho_log2, real_only, pilot)
            (arr_re, arr_im), _ = pe_array_iteration(*words, cfg, pilot)
            assert out_re[t].tolist() == arr_re.tolist() == ref[0]
            assert out_im[t].tolist() == arr_im.tolist() == ref[1]


class TestSolveFixed:
    def test_words_stay_int32(self):
        c = Constellation("qpsk")
        params = prox.ProxParams(t_max=2, rho_log2=1)
        G = model.draw_blocks(16, 8, c, 15, [((), 0.0, 3)])[1]
        pre = prox.preprocess(G, params.alpha_scale * spectral_norm(G))
        cfg, Gq, state, _ = quantize_block(pre, c, params)
        assert {a.dtype for a in (*Gq, *state)} == {np.dtype(np.int32)}
        for _ in range(params.t_max):
            state = direct_iteration(state, Gq, cfg, (8, 0))
            assert {a.dtype for a in state} == {np.dtype(np.int32)}

    def test_noise_free_matches_float(self):
        c = Constellation("qpsk")
        _, G, s = model.draw_blocks(16, 8, c, 10, [((), np.inf, 1)])[:3]
        params = prox.ProxParams(t_max=5, rho_log2=1)
        fixed = solve_fixed_stack(prox.preprocess(G, params.alpha_scale * spectral_norm(G)), c, params)
        assert np.array_equal(fixed, s)

    def test_cycle_accurate_equals_fast_path(self):
        # The cycle-accurate array, run block by block, reaches the final
        # iterate and the decisions of the stacked datapath.
        c = Constellation("qpsk")
        params = prox.ProxParams(t_max=3, rho_log2=1)
        _, G, *_ = model.draw_blocks(16, 6, c, 100, [((), 0.0, 5)])
        pre = prox.preprocess(G, params.alpha_scale * spectral_norm(G))
        cfg, Gq, state, sc = quantize_block(pre, c, params)
        for _ in range(params.t_max):
            state = direct_iteration(state, Gq, cfg, sc)
        decisions = solve_fixed_stack(pre, c, params)
        for t, G_t in enumerate(G):
            cfg_t, Gq_t, s_t, sc_t = quantize_block(prox.preprocess(G_t, pre.alpha[t]), c, params)
            for _ in range(params.t_max):
                s_t, _ = pe_array_iteration(s_t, Gq_t, cfg_t, sc_t)
            assert np.array_equal(s_t[0], state[0][t])
            assert np.array_equal(s_t[1], state[1][t])
            assert np.array_equal(c.decide(*s_t), decisions[t])

    def test_bpsk_real_only(self):
        c = Constellation("bpsk")
        G = model.draw_blocks(16, 8, c, 12, [((), -4.0, 1)])[1]
        params = prox.ProxParams(t_max=5, rho_log2=1)
        out = solve_fixed_stack(prox.preprocess(G, params.alpha_scale * spectral_norm(G)), c, params)
        assert set(np.unique(out)) <= {1.0 + 0j, -1.0 + 0j}

    def test_non_finite_gram_rejected(self):
        # Rejected before the eigensolver, whose LinAlgError is not a
        # package error.
        c = Constellation("qpsk")
        G = model.draw_blocks(4, 3, c, 14, [((), 0.0, 1)])[1]
        G[0, 1, 1] = np.nan
        params = prox.ProxParams(rho_log2=1)
        with pytest.raises(ParameterError, match="non-finite"):
            solve_fixed_stack(prox.preprocess(G, 2.0), c, params)

    @pytest.mark.parametrize("G", [np.complex128(1.0), np.ones(3)], ids=["scalar", "vector"])
    def test_non_matrix_rejected(self, G):
        params = prox.ProxParams()
        with pytest.raises(SimojedError):
            solve_fixed_stack(prox.preprocess(G, 2.0), Constellation("qpsk"), params)

    def test_rho_one_rejected(self):
        # The array configuration rejects the gain; the callers check it
        # before anything is preprocessed.
        c = Constellation("bpsk")
        G = model.draw_blocks(4, 3, c, 13, [((), 0.0, 1)])[1]
        params = prox.ProxParams(t_max=1, rho_log2=0)
        with pytest.raises(ParameterError, match="rho_log2"):
            solve_fixed_stack(prox.preprocess(G, params.alpha_scale * spectral_norm(G)), c, params)


class TestStackedDatapath:
    @given(
        T=st.integers(1, 24),
        N=st.integers(2, 17),
        rho_log2=st.integers(1, 4),
        real_only=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_direct_iteration_stack_matches_blocks_and_oracle(self, T, N, rho_log2, real_only, seed):
        rng = np.random.default_rng(seed)
        gre, gim = raw_words(rng, G_BITS, (T, N, N)), raw_words(rng, G_BITS, (T, N, N))
        sre, sim = raw_words(rng, S_BITS, (T, N)), raw_words(rng, S_BITS, (T, N))
        cfg = PeArrayConfig(N=N, t_max=1, rho_log2=rho_log2, real_only=real_only)
        out_re, out_im = direct_iteration((sre, sim), (gre, gim), cfg, (8, 0))
        assert out_re.shape == out_im.shape == (T, N)
        for t in range(T):
            one = direct_iteration((sre[t], sim[t]), (gre[t], gim[t]), cfg, (8, 0))
            assert np.array_equal(one[0], out_re[t]) and np.array_equal(one[1], out_im[t])
            ref = int_iteration((sre[t], sim[t]), (gre[t], gim[t]), N, rho_log2, real_only, (8, 0))
            assert out_re[t].tolist() == ref[0] and out_im[t].tolist() == ref[1]

    @given(
        T=st.integers(1, 24),
        N=st.integers(2, 17),
        rho_log2=st.integers(1, 4),
        real_only=st.booleans(),
        t_max=st.integers(1, 6),
        snr_db=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solve_fixed_stack_matches_blocks(self, T, N, rho_log2, real_only, t_max, snr_db, seed):
        c = Constellation("bpsk") if real_only else Constellation("qpsk")
        params = prox.ProxParams(alpha_scale=1.25, rho_log2=rho_log2, t_max=t_max)
        G = model.draw_blocks(8, N - 1, c, seed, [((), snr_db, T)])[1]
        alpha = params.alpha_scale * spectral_norm(G)
        stacked = solve_fixed_stack(prox.preprocess(G, alpha), c, params)
        assert stacked.shape == (T, N)
        for t in range(T):
            one = solve_fixed_stack(prox.preprocess(G[t], alpha[t]), c, params)
            assert np.array_equal(one, stacked[t])


class TestTiming:
    def test_latency_table(self):
        assert latency_cycles(4, 1) == 8
        assert latency_cycles(8, 1) == 12
        assert latency_cycles(16, 1) == 20
        assert latency_cycles(32, 1) == 36
        assert latency_cycles(8, 3) == 36

    def test_throughput_values(self):
        assert throughput_bps(8, 1, 341e6, 2) / 1e6 == pytest.approx(454.7, abs=0.05)
        assert throughput_bps(8, 3, 341e6, 2) / 1e6 == pytest.approx(151.6, abs=0.05)
        assert throughput_bps(16, 2, 846e6, 1) / 1e6 == pytest.approx(338.4, abs=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            latency_cycles(0, 1)
        with pytest.raises(ParameterError):
            throughput_bps(8, 1, -1.0, 2)
