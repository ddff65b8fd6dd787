import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simojed import fxp, model, prox
from simojed.errors import ParameterError
from simojed.fxp import (
    ACC_FMT,
    G_FMT,
    S_FMT,
    FixedPointFormat,
    FxpWord,
    PeArrayConfig,
    direct_iteration,
    latency_cycles,
    mac_step,
    pe_array_iteration,
    projection_unit,
    quantize,
    quantize_block,
    rho_inverse_word,
    solve_fixed,
    solve_fixed_stack,
    throughput_bps,
)
from simojed.model import Constellation, TransmissionGroundTruth

from oracles import int_iteration, int_mac, int_projection, int_quantize


class TestQuantize:
    def test_exact_value(self):
        w = quantize(0.625, S_FMT)
        assert w.raw == 5 and w.value == 0.625

    def test_saturation_ceiling(self):
        assert quantize(4.2, S_FMT).value == 3.875

    def test_wrap_semantics(self):
        # 15-bit/11-fraction words span [-8, 8): 16.5 wraps into 0.5.
        assert quantize(16.5, FixedPointFormat(15, 11, fxp.WRAP)).value == 0.5
        # A 16-bit word with the same fraction spans [-16, 16): 16.5 -> -15.5.
        assert quantize(16.5, FixedPointFormat(16, 11, fxp.WRAP)).value == -15.5

    def test_truncation_toward_negative_infinity(self):
        assert quantize(-0.0626, S_FMT).raw == -1
        assert quantize(0.0624, S_FMT).raw == 0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for fmt in (S_FMT, G_FMT, ACC_FMT):
            for x in rng.uniform(-20, 20, size=50):
                once = quantize(x, fmt)
                assert quantize(once.value, fmt).raw == once.raw

    def test_saturating_formats_monotone(self):
        xs = np.linspace(-6, 6, 401)
        raws = [quantize(x, S_FMT).raw for x in xs]
        assert all(b >= a for a, b in zip(raws, raws[1:]))

    def test_matches_integer_oracle(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-40, 40, size=200):
            assert quantize(x, ACC_FMT).raw == int_quantize(x, 15, 11, True)
            wrap_fmt = FixedPointFormat(15, 11, fxp.WRAP)
            assert quantize(x, wrap_fmt).raw == int_quantize(x, 15, 11, False)

    def test_invalid_format(self):
        with pytest.raises(ParameterError):
            FixedPointFormat(3, 3)


class TestMacStep:
    def _zero_acc(self):
        return (FxpWord(0, ACC_FMT), FxpWord(0, ACC_FMT))

    def test_near_identity_multiply(self):
        g = (quantize(1.0, G_FMT), quantize(0.0, G_FMT))  # saturates to 2047/2048
        s = (quantize(1.0, S_FMT), quantize(0.0, S_FMT))
        out = mac_step(self._zero_acc(), g, s)
        assert out[0].raw == (2047 * 8) >> 3 == 2047
        assert out[1].raw == 0

    def test_zero_operand_keeps_acc(self):
        acc = (FxpWord(123, ACC_FMT), FxpWord(-77, ACC_FMT))
        zero_g = (quantize(0.0, G_FMT), quantize(0.0, G_FMT))
        s = (quantize(0.5, S_FMT), quantize(-0.25, S_FMT))
        out = mac_step(acc, zero_g, s)
        assert (out[0].raw, out[1].raw) == (123, -77)

    def test_random_batch_matches_big_integer_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            acc = (
                FxpWord(int(rng.integers(ACC_FMT.min_raw, ACC_FMT.max_raw + 1)), ACC_FMT),
                FxpWord(int(rng.integers(ACC_FMT.min_raw, ACC_FMT.max_raw + 1)), ACC_FMT),
            )
            g = (
                FxpWord(int(rng.integers(G_FMT.min_raw, G_FMT.max_raw + 1)), G_FMT),
                FxpWord(int(rng.integers(G_FMT.min_raw, G_FMT.max_raw + 1)), G_FMT),
            )
            s = (
                FxpWord(int(rng.integers(S_FMT.min_raw, S_FMT.max_raw + 1)), S_FMT),
                FxpWord(int(rng.integers(S_FMT.min_raw, S_FMT.max_raw + 1)), S_FMT),
            )
            out = mac_step(acc, g, s)
            ref = int_mac(acc[0].raw, acc[1].raw, g[0].raw, g[1].raw, s[0].raw, s[1].raw)
            assert (out[0].raw, out[1].raw) == ref


class TestProjectionUnit:
    def test_upper_clip(self):
        inv = rho_inverse_word(2)
        q = quantize(0.9, ACC_FMT)  # 0.9 >= 1/4
        assert projection_unit(q, 2, inv).raw == 8

    def test_lower_clip(self):
        inv = rho_inverse_word(2)
        q = quantize(-0.9, ACC_FMT)
        assert projection_unit(q, 2, inv).raw == -8

    def test_exact_threshold_is_clip(self):
        inv = rho_inverse_word(3)
        q = FxpWord(inv.raw, ACC_FMT)  # q == +1/rho exactly
        assert projection_unit(q, 3, inv).raw == 8

    def test_interior_matches_oracle_sample(self):
        rng = np.random.default_rng(3)
        for r in (1, 3, 6):
            inv = rho_inverse_word(r)
            for raw in rng.integers(ACC_FMT.min_raw, ACC_FMT.max_raw + 1, size=500):
                got = projection_unit(FxpWord(int(raw), ACC_FMT), r, inv).raw
                assert got == int_projection(int(raw), r, inv.raw)

    def test_exhaustive_single_rho(self):
        r = 2
        inv = rho_inverse_word(r)
        for raw in range(ACC_FMT.min_raw, ACC_FMT.max_raw + 1):
            assert projection_unit(FxpWord(raw, ACC_FMT), r, inv).raw == int_projection(
                raw, r, inv.raw
            )

    def test_rho_must_exceed_one(self):
        with pytest.raises(ParameterError):
            rho_inverse_word(0)


def random_quantized_instance(rng, N):
    gre = rng.integers(G_FMT.min_raw, G_FMT.max_raw + 1, size=(N, N)).astype(np.int64)
    gim = rng.integers(G_FMT.min_raw, G_FMT.max_raw + 1, size=(N, N)).astype(np.int64)
    sre = rng.integers(S_FMT.min_raw, S_FMT.max_raw + 1, size=N).astype(np.int64)
    sim = rng.integers(S_FMT.min_raw, S_FMT.max_raw + 1, size=N).astype(np.int64)
    return (gre, gim), (sre, sim)


class TestPeArray:
    def test_input_cyclic_operand_order_n3(self):
        # Element 1 must consume its row starting at the diagonal: columns
        # 1, 2, 0 on the first three cycles, with the matching iterate entry.
        rng = np.random.default_rng(4)
        G_q, s_q = random_quantized_instance(rng, 3)
        cfg = PeArrayConfig(N=3, t_max=1, rho_log2=1)
        _, trace = pe_array_iteration(s_q, G_q, cfg, (8, 0))
        pe1 = [r for r in trace.records if r.pe == 1 and r.action == "mac"]
        assert [r.cycle for r in pe1] == [1, 2, 3]
        assert [r.col for r in pe1] == [1, 2, 0]
        assert [r.g_re for r in pe1] == [int(G_q[0][1, c]) for c in (1, 2, 0)]
        assert [r.s_re for r in pe1] == [int(s_q[0][c]) for c in (1, 2, 0)]

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
        by_cycle = {}
        for r in trace.records:
            by_cycle.setdefault(r.cycle, []).append(r)
        for cyc in range(1, N + 1):  # feed cycles
            actions = {r.pe: r.action for r in by_cycle[cyc]}
            assert actions[0] == "shift"
            assert all(actions[k] == "mac" for k in range(1, N))
        for cyc in (N + 1, N + 2):  # flush
            assert all(r.action == "idle" for r in by_cycle[cyc])
        actions = {r.pe: r.action for r in by_cycle[N + 3]}
        assert actions[0] == "idle"
        assert all(actions[k] == "project" for k in range(1, N))

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
        assert len(lines) == 1 + len(trace.records)
        assert all(line.count(",") == 5 for line in lines[1:])


class TestSolveFixed:
    def test_noise_free_matches_float(self):
        rng = np.random.default_rng(10)
        c = Constellation.qpsk()
        h = model.gen_rayleigh_channel(16, rng)
        s = model.random_data_vector(c, 8, c.points[0], rng)
        block = model.transmit(TransmissionGroundTruth(s, h, 0.0), rng)
        params = prox.ProxParams(t_max=5, rho_log2=1)
        fixed = solve_fixed(block, c, params)
        assert np.array_equal(fixed, s)

    def test_cycle_accurate_equals_fast_path(self):
        # The cycle-accurate array, run block by block, reaches the final
        # iterate and the decisions of the stacked datapath.
        c = Constellation.qpsk()
        params = prox.ProxParams(t_max=3, rho_log2=1)
        blocks = []
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            blocks.append(model.make_block(16, 6, c, 0.0, r, r, r))
        G = np.stack([block.G for block in blocks])
        cfg, Gq, state, sc = quantize_block(G, c, params)
        for _ in range(params.t_max):
            state = direct_iteration(state, Gq, cfg, sc)
        decisions = solve_fixed_stack(G, c, params)
        for t, block in enumerate(blocks):
            cfg_t, Gq_t, s_t, sc_t = quantize_block(block.G, c, params)
            for _ in range(params.t_max):
                s_t, _ = pe_array_iteration(s_t, Gq_t, cfg_t, sc_t)
            assert np.array_equal(s_t[0], state[0][t])
            assert np.array_equal(s_t[1], state[1][t])
            assert np.array_equal(fxp._sign_decisions(s_t, c, c.points[0]), decisions[t])

    def test_bpsk_real_only(self):
        rng = np.random.default_rng(12)
        c = Constellation.bpsk()
        block = model.make_block(16, 8, c, -4.0, rng, rng, rng)
        out = solve_fixed(block, c, prox.ProxParams(t_max=5, rho_log2=1))
        assert set(np.unique(out)) <= {1.0 + 0j, -1.0 + 0j}

    def test_non_finite_gram_rejected(self):
        # Rejected before the eigensolver, whose LinAlgError is not a
        # package error.
        rng = np.random.default_rng(14)
        c = Constellation.qpsk()
        block = model.make_block(4, 3, c, 0.0, rng, rng, rng)
        G = block.G.copy()
        G[1, 1] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            solve_fixed(model.ReceivedBlock(Y=block.Y, G=G), c, prox.ProxParams(rho_log2=1))

    def test_rho_one_rejected(self):
        rng = np.random.default_rng(13)
        c = Constellation.bpsk()
        block = model.make_block(4, 3, c, 0.0, rng, rng, rng)
        with pytest.raises(ParameterError):
            solve_fixed(block, c, prox.ProxParams(t_max=1, rho_log2=0))


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
        gre = rng.integers(G_FMT.min_raw, G_FMT.max_raw + 1, size=(T, N, N))
        gim = rng.integers(G_FMT.min_raw, G_FMT.max_raw + 1, size=(T, N, N))
        sre = rng.integers(S_FMT.min_raw, S_FMT.max_raw + 1, size=(T, N))
        sim = rng.integers(S_FMT.min_raw, S_FMT.max_raw + 1, size=(T, N))
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
        c = Constellation.bpsk() if real_only else Constellation.qpsk()
        params = prox.ProxParams(alpha_scale=1.25, rho_log2=rho_log2, t_max=t_max)
        blocks = [model.draw_block(8, N - 1, c, snr_db, seed, (t,))[0] for t in range(T)]
        stacked = solve_fixed_stack(np.stack([block.G for block in blocks]), c, params)
        assert stacked.shape == (T, N)
        for t, block in enumerate(blocks):
            assert np.array_equal(solve_fixed(block, c, params), stacked[t])


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
