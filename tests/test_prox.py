import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simojed import fxp, linalg, model, prox
from simojed.errors import DegenerateInputError, ParameterError
from simojed.model import Constellation, ReceivedBlock
from simojed.prox import (
    PreprocessedMatrix,
    ProxParams,
    SolverState,
    channel_estimate,
    hard_decision,
    init_s,
    iterate_once,
    preprocess,
    solve,
    solve_stack,
)

from oracles import prox_iteration_scalar


def make_noisy_block(seed, B=8, K=6, kind="qpsk", snr_db=8.0):
    c = Constellation.by_name(kind)
    return model.draw_block(B, K, c, snr_db, seed, ())[0], c


class TestParams:
    def test_alpha_scale_must_exceed_one(self):
        with pytest.raises(ParameterError):
            ProxParams(alpha_scale=0.5)

    def test_rho_is_power_of_two(self):
        assert ProxParams(rho_log2=3).rho == 8.0

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            ProxParams(mode="fancy")

    def test_bad_gamma(self):
        with pytest.raises(ParameterError):
            ProxParams(gamma_rule=-1.0)


class TestPreprocess:
    def test_zero_gram_exact(self):
        pre = preprocess(np.zeros((3, 3)), ProxParams(mode="exact", gamma_rule=1.0))
        assert np.array_equal(pre.Ghat, np.eye(3))

    def test_diag_approx(self):
        G = np.diag([1.0, 2.0]).astype(complex)
        pre = preprocess(G, ProxParams(alpha_scale=2.0, mode="approx", gamma_rule=1.0))
        assert pre.alpha == pytest.approx(4.0, rel=1e-9)
        assert np.allclose(pre.Ghat, np.diag([1.25, 1.5]), atol=1e-9)

    def test_exact_mode_residual_invariant(self):
        block, _ = make_noisy_block(0)
        pre = preprocess(block.G, ProxParams(mode="exact"))
        n = block.G.shape[0]
        resid = pre.gamma * pre.Ghat @ (np.eye(n) - block.G / pre.alpha) - np.eye(n)
        assert np.linalg.norm(resid) <= 1e-8

    def test_approx_mode_definition(self):
        block, _ = make_noisy_block(1)
        pre = preprocess(block.G, ProxParams(mode="approx"))
        raw = np.eye(block.G.shape[0]) + block.G / pre.alpha
        assert np.array_equal(pre.Ghat, raw / pre.gamma)

    def test_max_abs_scaling(self):
        block, _ = make_noisy_block(2)
        pre = preprocess(block.G, ProxParams())
        peak = max(np.max(np.abs(pre.Ghat.real)), np.max(np.abs(pre.Ghat.imag)))
        assert abs(peak - 1.0) <= 1e-12


class TestInit:
    def test_identity_gram(self):
        s0 = init_s(np.eye(4, dtype=complex), 1.0)
        assert np.array_equal(s0, [1.0, 0.0, 0.0, 0.0])

    def test_noise_free_single_antenna_recovers_exactly(self):
        rng = np.random.default_rng(3)
        c = Constellation.bpsk()
        s = model.random_data_vector(c, 5, c.points[0], rng)
        block = ReceivedBlock(Y=np.outer([1.0 + 0j], s.conj()))
        assert np.allclose(init_s(block.G, c.points[0]), s, atol=1e-14)

    def test_matches_scalar_recomputation(self):
        block, c = make_noisy_block(4)
        s0 = init_s(block.G, c.points[0])
        expected = np.array(
            [c.points[0] * block.G[k, 0] / block.G[0, 0].real for k in range(block.G.shape[0])]
        )
        assert np.max(np.abs(s0 - expected)) < 1e-14

    def test_degenerate_pilot_energy(self):
        G = np.zeros((3, 3), dtype=complex)
        G[1, 1] = G[2, 2] = 1.0
        with pytest.raises(DegenerateInputError):
            init_s(G, 1.0)


class TestIterate:
    def _pre_identity(self, n):
        return PreprocessedMatrix(
            Ghat=np.eye(n, dtype=complex),
            gamma=1.0,
            alpha=1.0,
            mode="exact",
            G=np.zeros((n, n), dtype=complex),
        )

    def test_identity_fixed_point(self):
        c = Constellation.qpsk()
        s_prev = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.6j])
        state = SolverState(s_cur=s_prev.copy(), q_cur=np.zeros(3, dtype=complex))
        out = iterate_once(state, self._pre_identity(3), c, ProxParams(rho_log2=0), c.points[0])
        assert np.allclose(out.s_cur[1:], s_prev[1:], atol=1e-15)
        assert out.s_cur[0] == c.points[0]

    def test_clip_example(self):
        c = Constellation.qpsk()
        state = SolverState(
            s_cur=np.array([c.points[0], 3.2 + 0.1j]), q_cur=np.zeros(2, dtype=complex)
        )
        out = iterate_once(state, self._pre_identity(2), c, ProxParams(rho_log2=0), c.points[0])
        assert out.s_cur[1].real == pytest.approx(c.re_bound)
        assert out.s_cur[1].imag == pytest.approx(0.1)

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_matches_scalar_reference(self, kind):
        block, c = make_noisy_block(5, kind=kind)
        params = ProxParams(rho_log2=1)
        pre = preprocess(block.G, params)
        s = init_s(block.G, c.points[0])
        state = SolverState(s_cur=s, q_cur=np.zeros_like(s))
        for _ in range(4):
            q_ref, s_ref = prox_iteration_scalar(
                pre.Ghat, state.s_cur, params.rho, c.re_bound, c.im_bound, c.points[0]
            )
            state = iterate_once(state, pre, c, params, c.points[0])
            assert np.max(np.abs(state.s_cur - s_ref)) < 1e-14

    def test_hull_membership_and_pilot_pin(self):
        block, c = make_noisy_block(6)
        params = ProxParams()
        pre = preprocess(block.G, params)
        state = SolverState(s_cur=init_s(block.G, c.points[0]), q_cur=None)
        for _ in range(10):
            state = iterate_once(state, pre, c, params, c.points[0])
            assert np.all(np.abs(state.s_cur.real) <= c.re_bound + 1e-12)
            assert np.all(np.abs(state.s_cur.imag) <= c.im_bound + 1e-12)
            assert state.s_cur[0] == c.points[0]


class TestHardDecision:
    def test_bpsk_slicing(self):
        c = Constellation.bpsk()
        out = hard_decision(np.array([0.3, -0.7]), c)
        assert np.array_equal(out, [1.0, -1.0])

    def test_idempotent_on_points(self):
        for c in (Constellation.bpsk(), Constellation.qpsk()):
            assert np.array_equal(hard_decision(c.points, c), c.points)

    def test_axis_ties_go_to_positive_side(self):
        # The sign-bit slicer counts a zero part as positive, in float and
        # in the fixed-point datapath alike.
        c = Constellation.bpsk()
        assert hard_decision(np.array([0.0]), c)[0] == 1.0
        q = Constellation.qpsk()
        assert hard_decision(np.array([0.5 + 0j]), q)[0] == q.points[0]
        assert hard_decision(np.array([0 - 0.5j]), q)[0] == q.points[3]
        fixed = fxp._sign_decisions((np.array([5, 0]), np.array([0, -7])), q, q.points[0])
        assert fixed[1] == q.points[3]

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_nearest_point(self, kind):
        # Off the axes the sign slicer is the nearest-point rule; BPSK
        # statistics may carry an imaginary part, which it ignores.
        c = Constellation.by_name(kind)
        rng = np.random.default_rng(14)
        s = rng.standard_normal((64, 9)) + 1j * rng.standard_normal((64, 9))
        nearest = c.points[np.argmin(np.abs(s[..., None] - c.points), axis=-1)]
        assert np.array_equal(hard_decision(s, c), nearest)


class TestChannelEstimate:
    def test_noise_free_identity(self):
        rng = np.random.default_rng(7)
        c = Constellation.qpsk()
        h = model.gen_rayleigh_channel(5, rng)
        s = model.random_data_vector(c, 4, c.points[0], rng)
        block = ReceivedBlock(Y=np.outer(h, s.conj()))
        assert np.allclose(channel_estimate(block.Y, s), h, atol=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(channel_estimate(Y, 2.0 * s), 0.5 * channel_estimate(Y, s))

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateInputError):
            channel_estimate(np.eye(3, dtype=complex), np.zeros(3, dtype=complex))


class TestSolve:
    def test_noise_free_exact_recovery(self):
        rng = np.random.default_rng(9)
        c = Constellation.bpsk()
        h = model.gen_rayleigh_channel(16, rng)
        s = model.random_data_vector(c, 8, c.points[0], rng)
        block = ReceivedBlock(Y=np.outer(h, s.conj()))
        res = solve(block, c, ProxParams(t_max=5))
        assert np.array_equal(res.s_hat, s)
        assert np.allclose(res.h_hat, h, atol=1e-10)

    def test_k_zero(self):
        c = Constellation.qpsk()
        block, _ = model.draw_block(4, 0, c, 10.0, 10, ())
        res = solve(block, c, ProxParams(t_max=3))
        assert np.array_equal(res.s_hat, [c.points[0]])

    def test_more_iterations_do_not_hurt(self):
        # Paired batch: error count with t_max=5 must not exceed t_max=1.
        c = Constellation.bpsk()
        errs = {1: 0, 5: 0}
        Y, G, s_true, _, _ = model.draw_blocks(16, 8, c, 5.0, 1000, (), 400)
        for trial in range(400):
            block = ReceivedBlock(Y=Y[trial], G=G[trial])
            for t in (1, 5):
                res = solve(block, c, ProxParams(t_max=t), record_trace=False)
                errs[t] += int(np.sum(res.s_hat[1:] != s_true[trial, 1:]))
        assert errs[5] <= errs[1]

    def test_scale_invariance_of_decisions(self):
        block, c = make_noisy_block(11)
        params = ProxParams()
        scaled = model.ReceivedBlock(Y=3.7 * block.Y)
        pre_a = preprocess(block.G, params)
        pre_b = preprocess(scaled.G, params)
        assert np.allclose(pre_a.Ghat, pre_b.Ghat, atol=1e-12)
        res_a = solve(block, c, params)
        res_b = solve(scaled, c, params)
        assert np.max(np.abs(res_a.state.s_cur - res_b.state.s_cur)) < 1e-12
        assert np.array_equal(res_a.s_hat, res_b.s_hat)


class TestSolveStack:
    @settings(max_examples=40)
    @given(
        T=st.integers(1, 40),
        B=st.integers(1, 16),
        K=st.integers(1, 16),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        mode=st.sampled_from(["exact", "approx"]),
        alpha_scale=st.floats(1.05, 4.0),
        rho_log2=st.integers(0, 6),
        t_max=st.integers(1, 8),
        snr_db=st.floats(-10.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_block_solve(
        self, T, B, K, kind, mode, alpha_scale, rho_log2, t_max, snr_db, seed
    ):
        c = Constellation.by_name(kind)
        blocks = [model.draw_block(B, K, c, snr_db, seed, (t,))[0] for t in range(T)]
        params = ProxParams(alpha_scale=alpha_scale, rho_log2=rho_log2, t_max=t_max, mode=mode)
        stacked = solve_stack(
            np.stack([b.Y for b in blocks]), np.stack([b.G for b in blocks]), c, params
        )
        assert stacked.s_hat.shape == (T, K + 1)
        assert stacked.h_hat.shape == (T, B)
        for t, block in enumerate(blocks):
            single = solve(block, c, params)
            assert np.array_equal(stacked.s_hat[t], single.s_hat)
            np.testing.assert_allclose(stacked.h_hat[t], single.h_hat, rtol=1e-12, atol=0)
            for rec_stack, rec in zip(stacked.state.trace, single.state.trace):
                np.testing.assert_allclose(rec_stack.objective[t], rec.objective, rtol=1e-12)
                np.testing.assert_allclose(rec_stack.grad_residual[t], rec.grad_residual, rtol=1e-12)

    def test_zero_gram_in_a_stack_gets_identity(self):
        block, _ = make_noisy_block(15)
        G = np.stack([block.G, np.zeros_like(block.G)])
        pre = preprocess(G, ProxParams())
        assert np.array_equal(pre.Ghat[1], np.eye(block.G.shape[0]))
        assert np.array_equal(pre.Ghat[0], preprocess(block.G, ProxParams()).Ghat)

    def test_degenerate_trial_fails_the_stack(self):
        block, c = make_noisy_block(16)
        G = np.stack([block.G, np.zeros_like(block.G)])
        with pytest.raises(DegenerateInputError):
            solve_stack(np.stack([block.Y, 0 * block.Y]), G, c, ProxParams())

    def test_non_finite_gram_rejected(self):
        # Rejected before the eigensolver, whose LinAlgError is not a
        # package error.
        block, c = make_noisy_block(17)
        G = block.G.copy()
        G[0, 2] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            solve(model.ReceivedBlock(Y=block.Y, G=G), c, ProxParams())


class TestDiagnostics:
    def test_objective_plugin_values(self):
        assert prox.objective(np.zeros(2), np.zeros(2), np.zeros((2, 2)), 2.0, 0.0) == 0.0
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert prox.objective(e1, np.zeros(2), np.zeros((2, 2)), 2.0, 0.0) == pytest.approx(1.0)

    def test_objective_outside_hull_is_inf(self):
        c = Constellation.bpsk()
        s = np.array([2.5 + 0j])
        assert prox.objective(s, s, np.ones((1, 1)), 2.0, 0.1, c) == math.inf

    def test_monotone_objective_exact_mode(self):
        seen = 0
        for seed in range(20):
            block, c = make_noisy_block(100 + seed, B=8, K=6)
            params = ProxParams(t_max=30)
            pre = preprocess(block.G, params)
            if not (0.0 < pre.beta(params.rho) < pre.alpha):
                continue
            res = solve(block, c, params)
            objs = [r.objective for r in res.state.trace]
            for a, b in zip(objs[1:], objs[:-1]):
                assert a <= b + 1e-9 * max(1.0, abs(b))
            seen += 1
        assert seen >= 10

    def test_gradient_identity_exact_mode(self):
        # Analytic gradient of the relaxed objective at the fresh iterate
        # equals alpha * (s_prev - s_new); checked on early iterations where
        # the step is O(1).
        for seed in range(20):
            block, c = make_noisy_block(200 + seed, B=8, K=6)
            params = ProxParams(t_max=1)
            pre = preprocess(block.G, params)
            s_prev = init_s(block.G, c.points[0])
            state = SolverState(s_cur=s_prev.copy(), q_cur=None)
            state = iterate_once(state, pre, c, params, c.points[0])
            q = state.q_cur
            lhs = -block.G @ q + pre.alpha * (q - state.s_cur)
            rhs = pre.alpha * (s_prev - state.s_cur)
            denom = max(np.linalg.norm(rhs), np.linalg.norm(lhs))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * denom

    def test_gradient_residual_decays(self):
        block, c = make_noisy_block(12, B=16, K=8)
        params = ProxParams(t_max=100)
        res = solve(block, c, params)
        resid = [r.grad_residual for r in res.state.trace]
        n = block.G.shape[0]
        pre_alpha = preprocess(block.G, params).alpha
        assert resid[-1] <= 1e-6 * pre_alpha * np.sqrt(n)

    def test_boundary_gap_small_after_convergence(self):
        block, c = make_noisy_block(13, B=16, K=8)
        res = solve(block, c, ProxParams(t_max=100))
        last = res.state.trace[-1]
        if last.grad_residual < 1e-8 and np.linalg.norm(res.state.s_cur) > 0:
            assert last.boundary_gap <= 1e-6

    def test_exact_vs_approx_within_neumann_bound(self):
        block, _ = make_noisy_block(14)
        exact = preprocess(block.G, ProxParams(mode="exact"))
        approx = preprocess(block.G, ProxParams(mode="approx"))
        gap = np.linalg.norm(exact.gamma * exact.Ghat - approx.gamma * approx.Ghat, ord=2)
        assert gap <= linalg.neumann_error_bound(block.G, exact.alpha) * (1 + 1e-9)
