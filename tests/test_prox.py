
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simojed import fxp, linalg, model, prox
from simojed.errors import DegenerateInputError, ParameterError
from simojed.model import Constellation
from simojed.prox import (
    PreprocessedMatrix,
    ProxParams,
    SolverState,
    channel_estimate,
    hard_decision,
    init_s,
    iterate,
    iterate_once,
    preprocess,
    solve_stack,
)

from oracles import prox_iteration_scalar, step_diagnostics


def make_noisy_block(seed, B=8, K=6, kind="qpsk", snr_db=8.0):
    """The block of the one-trial stack of ``seed``: (Y, G, c)."""
    c = Constellation.by_name(kind)
    Y, G = model.draw_blocks(B, K, c, seed, [((), snr_db, 1)])[:2]
    return Y[0], G[0], c


class TestParams:
    def test_alpha_scale_must_exceed_one(self):
        with pytest.raises(ParameterError):
            ProxParams(alpha_scale=0.5)

    def test_rho_is_power_of_two(self):
        assert ProxParams(rho_log2=3).rho == 8.0


class TestPreprocess:
    def test_zero_gram_exact(self):
        pre = preprocess(np.zeros((3, 3)), ProxParams())
        assert np.array_equal(pre.gamma * pre.Ghat, np.eye(3))

    def test_diag_approx(self):
        G = np.diag([1.0, 2.0]).astype(complex)
        pre = preprocess(G, ProxParams(alpha_scale=2.0), approx=True)
        assert pre.alpha == pytest.approx(4.0, rel=1e-9)
        assert np.allclose(pre.gamma * pre.Ghat, np.diag([1.25, 1.5]), atol=1e-9)

    def test_exact_mode_residual_invariant(self):
        _, G, _ = make_noisy_block(0)
        pre = preprocess(G, ProxParams())
        n = G.shape[0]
        resid = pre.gamma * pre.Ghat @ (np.eye(n) - G / pre.alpha) - np.eye(n)
        assert np.linalg.norm(resid) <= 1e-8

    def test_approx_mode_definition(self):
        _, G, _ = make_noisy_block(1)
        pre = preprocess(G, ProxParams(), approx=True)
        raw = np.eye(G.shape[0]) + G / pre.alpha
        assert np.array_equal(pre.Ghat, raw / pre.gamma)

    def test_max_abs_scaling(self):
        _, G, _ = make_noisy_block(2)
        pre = preprocess(G, ProxParams())
        peak = max(np.max(np.abs(pre.Ghat.real)), np.max(np.abs(pre.Ghat.imag)))
        assert abs(peak - 1.0) <= 1e-12


class TestInit:
    def test_identity_gram(self):
        s0 = init_s(np.eye(4, dtype=complex), Constellation.bpsk())
        assert np.array_equal(s0, [1.0, 0.0, 0.0, 0.0])

    def test_noise_free_single_antenna_recovers_exactly(self):
        c = Constellation.bpsk()
        _, G, s = model.draw_blocks(1, 5, c, 3, [((), np.inf, 1)])[:3]
        assert np.allclose(init_s(G, c), s, atol=1e-14)

    def test_matches_scalar_recomputation(self):
        _, G, c = make_noisy_block(4)
        s0 = init_s(G, c)
        expected = np.array([c.points[0] * G[k, 0] / G[0, 0].real for k in range(G.shape[0])])
        assert np.max(np.abs(s0 - expected)) < 1e-14

    def test_degenerate_pilot_energy(self):
        G = np.zeros((3, 3), dtype=complex)
        G[1, 1] = G[2, 2] = 1.0
        with pytest.raises(DegenerateInputError):
            init_s(G, Constellation.bpsk())


class TestIterate:
    def _pre_identity(self, n):
        return PreprocessedMatrix(
            Ghat=np.eye(n, dtype=complex),
            gamma=1.0,
            alpha=1.0,
            G=np.zeros((n, n), dtype=complex),
        )

    def test_identity_fixed_point(self):
        c = Constellation.qpsk()
        s_prev = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.6j])
        state = SolverState(s_cur=s_prev.copy(), q_cur=np.zeros(3, dtype=complex))
        out = iterate_once(state, self._pre_identity(3), c, ProxParams(rho_log2=0))
        assert np.allclose(out.s_cur[1:], s_prev[1:], atol=1e-15)
        assert out.s_cur[0] == c.points[0]

    def test_clip_example(self):
        c = Constellation.qpsk()
        state = SolverState(
            s_cur=np.array([c.points[0], 3.2 + 0.1j]), q_cur=np.zeros(2, dtype=complex)
        )
        out = iterate_once(state, self._pre_identity(2), c, ProxParams(rho_log2=0))
        assert out.s_cur[1].real == pytest.approx(c.re_bound)
        assert out.s_cur[1].imag == pytest.approx(0.1)

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_matches_scalar_reference(self, kind):
        _, G, c = make_noisy_block(5, kind=kind)
        params = ProxParams(rho_log2=1)
        pre = preprocess(G, params)
        s = init_s(G, c)
        state = SolverState(s_cur=s, q_cur=np.zeros_like(s))
        for _ in range(4):
            q_ref, s_ref = prox_iteration_scalar(
                pre.Ghat, state.s_cur, params.rho, c.re_bound, c.im_bound, c.points[0]
            )
            state = iterate_once(state, pre, c, params)
            assert np.max(np.abs(state.s_cur - s_ref)) < 1e-14

    def test_hull_membership_and_pilot_pin(self):
        _, G, c = make_noisy_block(6)
        params = ProxParams()
        pre = preprocess(G, params)
        state = SolverState(s_cur=init_s(G, c), q_cur=None)
        for _ in range(10):
            state = iterate_once(state, pre, c, params)
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
        fixed = fxp._sign_decisions((np.array([5, 0]), np.array([0, -7])), q)
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
        c = Constellation.qpsk()
        Y, _, s, h = model.draw_blocks(5, 4, c, 7, [((), np.inf, 1)])[:4]
        assert np.allclose(channel_estimate(Y, s), h, atol=1e-12)

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
        c = Constellation.bpsk()
        Y, G, s, h = model.draw_blocks(16, 8, c, 9, [((), np.inf, 1)])[:4]
        params = ProxParams(t_max=5)
        res = solve_stack(Y, preprocess(G, params), c, params)
        assert np.array_equal(res.s_hat, s)
        assert np.allclose(res.h_hat, h, atol=1e-10)

    def test_k_zero(self):
        c = Constellation.qpsk()
        Y, G = model.draw_blocks(4, 0, c, 10, [((), 10.0, 1)])[:2]
        params = ProxParams(t_max=3)
        res = solve_stack(Y, preprocess(G, params), c, params)
        assert np.array_equal(res.s_hat, [[c.points[0]]])

    def test_more_iterations_do_not_hurt(self):
        # Paired batch: error count with t_max=5 must not exceed t_max=1.
        c = Constellation.bpsk()
        errs = {1: 0, 5: 0}
        Y, G, s_true, _, *_ = model.draw_blocks(16, 8, c, 1000, [((), 5.0, 400)])
        for t in (1, 5):
            params = ProxParams(t_max=t)
            res = solve_stack(Y, preprocess(G, params), c, params)
            errs[t] = int(np.sum(res.s_hat[:, 1:] != s_true[:, 1:]))
        assert errs[5] <= errs[1]

    def test_scale_invariance_of_decisions(self):
        Y, G, c = make_noisy_block(11)
        params = ProxParams()
        G_scaled = linalg.gram(3.7 * Y)
        pre_a = preprocess(G, params)
        pre_b = preprocess(G_scaled, params)
        assert np.allclose(pre_a.Ghat, pre_b.Ghat, atol=1e-12)
        s_a = iterate(pre_a, c, params).s_cur
        s_b = iterate(pre_b, c, params).s_cur
        assert np.max(np.abs(s_a - s_b)) < 1e-12
        res_a = solve_stack(Y, pre_a, c, params)
        res_b = solve_stack(3.7 * Y, pre_b, c, params)
        assert np.array_equal(res_a.s_hat, res_b.s_hat)


class TestSolveStack:
    @settings(max_examples=40)
    @given(
        T=st.integers(1, 40),
        B=st.integers(1, 16),
        K=st.integers(1, 16),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        approx=st.booleans(),
        alpha_scale=st.floats(1.05, 4.0),
        rho_log2=st.integers(0, 6),
        t_max=st.integers(1, 8),
        snr_db=st.floats(-10.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_block_solve(
        self, T, B, K, kind, approx, alpha_scale, rho_log2, t_max, snr_db, seed
    ):
        c = Constellation.by_name(kind)
        Y, G = model.draw_blocks(B, K, c, seed, [((), snr_db, T)])[:2]
        params = ProxParams(alpha_scale=alpha_scale, rho_log2=rho_log2, t_max=t_max)
        pre = preprocess(G, params, approx)
        stacked = solve_stack(Y, pre, c, params)
        trace = iterate(pre, c, params).trace
        assert stacked.s_hat.shape == (T, K + 1)
        assert stacked.h_hat.shape == (T, B)
        for t in range(T):
            pre_t = preprocess(G[t], params, approx)
            single = solve_stack(Y[t], pre_t, c, params)
            assert np.array_equal(stacked.s_hat[t], single.s_hat)
            np.testing.assert_allclose(stacked.h_hat[t], single.h_hat, rtol=1e-12, atol=0)
            single_trace = iterate(pre_t, c, params).trace
            for name in ("objective", "grad_residual"):
                got, want = getattr(trace, name)[:, t], getattr(single_trace, name)
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_gram_in_a_stack_gets_identity(self):
        _, G1, _ = make_noisy_block(15)
        pre = preprocess(np.stack([G1, np.zeros_like(G1)]), ProxParams())
        assert np.array_equal(pre.Ghat[1], np.eye(G1.shape[0]))
        assert np.array_equal(pre.Ghat[0], preprocess(G1, ProxParams()).Ghat)

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    def test_memory_layout_does_not_matter(self, approx):
        _, G1, _ = make_noisy_block(18)
        G = np.stack([G1, 2.0 * G1])
        got = preprocess(np.asfortranarray(G), ProxParams(), approx)
        assert np.array_equal(got.Ghat, preprocess(G, ProxParams(), approx).Ghat)

    def test_degenerate_trial_fails_the_stack(self):
        Y, G, c = make_noisy_block(16)
        pre = preprocess(np.stack([G, np.zeros_like(G)]), ProxParams())
        with pytest.raises(DegenerateInputError):
            solve_stack(np.stack([Y, 0 * Y]), pre, c, ProxParams())

    def test_non_finite_gram_rejected(self):
        # Rejected before the eigensolver, whose LinAlgError is not a
        # package error.
        _, G, _ = make_noisy_block(17)
        G[0, 2] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            preprocess(G, ProxParams())


class TestTrace:
    @settings(max_examples=60)
    @given(
        T=st.one_of(st.none(), st.integers(1, 20)),
        N=st.integers(2, 17),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        approx=st.booleans(),
        alpha_scale=st.floats(1.05, 4.0),
        rho_log2=st.integers(0, 6),
        t_max=st.integers(1, 40),
        snr_db=st.floats(-10.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_equals_per_step_reference(
        self, T, N, kind, approx, alpha_scale, rho_log2, t_max, snr_db, seed
    ):
        # rho_log2 = 0 puts beta at or below zero on every block, so both
        # the masked and the evaluated objective are covered.
        c = Constellation.by_name(kind)
        G = model.draw_blocks(8, N - 1, c, seed, [((), snr_db, T or 1)])[1]
        G = G[0] if T is None else G
        params = ProxParams(alpha_scale=alpha_scale, rho_log2=rho_log2, t_max=t_max)
        pre = preprocess(G, params, approx)
        beta = pre.beta(params.rho)
        traced = iterate(pre, c, params)
        trace = traced.trace
        fields = (trace.objective, trace.grad_residual, trace.boundary_gap)
        assert all(f.shape == (t_max,) + G.shape[:-2] for f in fields)
        state = SolverState(s_cur=init_s(G, c), q_cur=None)
        for t in range(t_max):
            s_prev = state.s_cur
            state = iterate_once(state, pre, c, params)
            want = step_diagnostics(
                s_prev, state.s_cur, state.q_cur, G, pre.alpha, beta, c.re_bound, c.im_bound
            )
            for f, w in zip(fields, want):
                assert np.shape(f[t]) == np.shape(w)
                assert np.array_equal(f[t], w, equal_nan=True)
        bare = iterate(pre, c, params, record_trace=False)
        assert bare.trace is None
        for final in (traced, bare):
            assert np.array_equal(final.s_cur, state.s_cur)
            assert np.array_equal(final.q_cur, state.q_cur)


class TestDiagnostics:
    def test_objective_plugin_values(self):
        assert prox.objective(np.zeros(2), np.zeros(2), np.zeros((2, 2)), 2.0, 0.0) == 0.0
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert prox.objective(e1, np.zeros(2), np.zeros((2, 2)), 2.0, 0.0) == pytest.approx(1.0)

    def test_monotone_objective_exact_mode(self):
        seen = 0
        for seed in range(20):
            _, G, c = make_noisy_block(100 + seed, B=8, K=6)
            params = ProxParams(t_max=30)
            pre = preprocess(G, params)
            if not (0.0 < pre.beta(params.rho) < pre.alpha):
                continue
            objs = iterate(pre, c, params).trace.objective
            for a, b in zip(objs[1:], objs[:-1]):
                assert a <= b + 1e-9 * max(1.0, abs(b))
            seen += 1
        assert seen >= 10

    def test_gradient_identity_exact_mode(self):
        # Analytic gradient of the relaxed objective at the fresh iterate
        # equals alpha * (s_prev - s_new); checked on early iterations where
        # the step is O(1).
        for seed in range(20):
            _, G, c = make_noisy_block(200 + seed, B=8, K=6)
            params = ProxParams(t_max=1)
            pre = preprocess(G, params)
            s_prev = init_s(G, c)
            state = SolverState(s_cur=s_prev.copy(), q_cur=None)
            state = iterate_once(state, pre, c, params)
            q = state.q_cur
            lhs = -G @ q + pre.alpha * (q - state.s_cur)
            rhs = pre.alpha * (s_prev - state.s_cur)
            denom = max(np.linalg.norm(rhs), np.linalg.norm(lhs))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * denom

    def test_gradient_residual_decays(self):
        _, G, c = make_noisy_block(12, B=16, K=8)
        params = ProxParams(t_max=100)
        pre = preprocess(G, params)
        resid = iterate(pre, c, params).trace.grad_residual
        n = G.shape[0]
        assert resid[-1] <= 1e-6 * pre.alpha * np.sqrt(n)

    def test_boundary_gap_small_after_convergence(self):
        _, G, c = make_noisy_block(13, B=16, K=8)
        params = ProxParams(t_max=100)
        state = iterate(preprocess(G, params), c, params)
        trace = state.trace
        if trace.grad_residual[-1] < 1e-8 and np.linalg.norm(state.s_cur) > 0:
            assert trace.boundary_gap[-1] <= 1e-6

    def test_exact_vs_approx_within_neumann_bound(self):
        _, G, _ = make_noisy_block(14)
        exact = preprocess(G, ProxParams())
        approx = preprocess(G, ProxParams(), approx=True)
        gap = np.linalg.norm(exact.gamma * exact.Ghat - approx.gamma * approx.Ghat, ord=2)
        assert gap <= linalg.neumann_error_bound(G, exact.alpha) * (1 + 1e-9)
