
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
    channel_estimate,
    hard_decision,
    init_s,
    iterate,
    iterate_once,
    preprocess,
    solve_stack,
)

from oracles import hull_clip_two_pass, iterate_all_steps, prox_iteration_scalar, step_diagnostics


def make_noisy_block(seed, B=8, K=6, kind="qpsk", snr_db=8.0):
    """The block of the one-trial stack of ``seed``: (Y, G, c)."""
    c = Constellation(kind)
    Y, G = model.draw_blocks(B, K, c, seed, [((), snr_db, 1)])[:2]
    return Y[0], G[0], c


class TestParams:
    def test_alpha_scale_must_exceed_one(self):
        with pytest.raises(ParameterError):
            ProxParams(alpha_scale=0.5)

    def test_rho_is_power_of_two(self):
        assert ProxParams(rho_log2=3).rho == 8.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rho_log2", 1.5),
            ("rho_log2", 2.0),
            ("rho_log2", True),
            ("rho_log2", -1),
            ("t_max", 2.5),
            ("t_max", False),
            ("alpha_scale", np.nan),
            ("alpha_scale", np.inf),
        ],
    )
    def test_bad_field_rejected_by_name(self, field, value):
        # A float gain used to run a sweep silently at rho = 2**1.5, and a
        # float t_max or a NaN alpha_scale failed only inside the solve.
        with pytest.raises(ParameterError, match=field):
            ProxParams(**{field: value})

    def test_integer_fields_take_numpy_integers(self):
        params = ProxParams(rho_log2=np.int64(0), t_max=np.int32(3))
        assert params.rho == 1.0 and params.t_max == 3


class TestPreprocess:
    def test_zero_gram_exact(self):
        pre = preprocess(np.zeros((3, 3)), 0.0)
        assert np.array_equal(pre.gamma * pre.Ghat, np.eye(3))

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0], ids=["norm-below-one", "ordinary"])
    def test_zero_shift_needs_an_all_zero_matrix(self, scale, approx):
        # A zero shift on a matrix with energy used to give the identity
        # silently (spectral norm below 1) or to fail on a negative pivot;
        # a scalar shift and one zero shift inside a stack alike.
        G = scale * model.draw_blocks(16, 4, Constellation("qpsk"), 1, [((0,), 0.0, 3)]).G
        alpha = 2.0 * linalg.spectral_norm(G)
        alpha[1] = 0.0
        for shift in (0.0, alpha):
            with pytest.raises(ParameterError, match="^a zero shift factor needs an all-zero matrix$"):
                preprocess(G, shift, approx)

    def test_diag_approx(self):
        G = np.diag([1.0, 2.0]).astype(complex)
        pre = preprocess(G, 2.0 * linalg.spectral_norm(G), approx=True)
        assert pre.alpha == pytest.approx(4.0, rel=1e-9)
        assert np.allclose(pre.gamma * pre.Ghat, np.diag([1.25, 1.5]), atol=1e-9)

    def test_exact_mode_residual_invariant(self):
        _, G, _ = make_noisy_block(0)
        pre = preprocess(G, 2.0 * linalg.spectral_norm(G))
        n = G.shape[0]
        resid = pre.gamma * pre.Ghat @ (np.eye(n) - G / pre.alpha) - np.eye(n)
        assert np.linalg.norm(resid) <= 1e-8

    def test_approx_mode_definition(self):
        _, G, _ = make_noisy_block(1)
        pre = preprocess(G, 2.0 * linalg.spectral_norm(G), approx=True)
        raw = np.eye(G.shape[0]) + G / pre.alpha
        assert np.array_equal(pre.Ghat, raw / pre.gamma)

    def test_max_abs_scaling(self):
        _, G, _ = make_noisy_block(2)
        pre = preprocess(G, 2.0 * linalg.spectral_norm(G))
        peak = max(np.max(np.abs(pre.Ghat.real)), np.max(np.abs(pre.Ghat.imag)))
        assert abs(peak - 1.0) <= 1e-12


class TestInit:
    def test_identity_gram(self):
        s0 = init_s(np.eye(4, dtype=complex), Constellation("bpsk"))
        assert np.array_equal(s0, [1.0, 0.0, 0.0, 0.0])

    def test_noise_free_single_antenna_recovers_exactly(self):
        c = Constellation("bpsk")
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
            init_s(G, Constellation("bpsk"))


class TestIterate:
    def _pre_identity(self, n):
        return PreprocessedMatrix(
            Ghat=np.eye(n, dtype=complex),
            gamma=1.0,
            alpha=1.0,
            G=np.zeros((n, n), dtype=complex),
        )

    def test_identity_fixed_point(self):
        c = Constellation("qpsk")
        s_prev = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.6j])
        s_new, _ = iterate_once(s_prev.copy(), self._pre_identity(3), c, ProxParams(rho_log2=0))
        assert np.allclose(s_new[1:], s_prev[1:], atol=1e-15)
        assert s_new[0] == c.points[0]

    def test_clip_example(self):
        c = Constellation("qpsk")
        s = np.array([c.points[0], 3.2 + 0.1j])
        s_new, _ = iterate_once(s, self._pre_identity(2), c, ProxParams(rho_log2=0))
        assert s_new[1].real == pytest.approx(c.re_bound)
        assert s_new[1].imag == pytest.approx(0.1)

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_matches_scalar_reference(self, kind):
        _, G, c = make_noisy_block(5, kind=kind)
        params = ProxParams(rho_log2=1)
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        s = init_s(G, c)
        for _ in range(4):
            q_ref, s_ref = prox_iteration_scalar(
                pre.Ghat, s, params.rho, c.re_bound, c.im_bound, c.points[0]
            )
            s, q_tilde = iterate_once(s, pre, c, params)
            assert np.max(np.abs(s - s_ref)) < 1e-14
            assert np.max(np.abs(q_tilde - q_ref)) < 1e-14

    def test_hull_membership_and_pilot_pin(self):
        _, G, c = make_noisy_block(6)
        params = ProxParams()
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        s = init_s(G, c)
        for _ in range(10):
            s, _ = iterate_once(s, pre, c, params)
            assert np.all(np.abs(s.real) <= c.re_bound + 1e-12)
            assert np.all(np.abs(s.imag) <= c.im_bound + 1e-12)
            assert s[0] == c.points[0]


class TestHullClip:
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_byte_identical_to_two_clips(self, kind):
        # Signed zeros count: every pairing of zeros, bounds, values beyond
        # them and infinities as real and imaginary parts, and random values.
        c = Constellation(kind)
        b = c.re_bound
        edges = [0.0, -0.0, b, -b, np.nextafter(b, 0), -np.nextafter(b, 0), 3 * b, -3 * b, np.inf, -np.inf]
        re, im = np.meshgrid(edges, edges)
        rng = np.random.default_rng(4)
        v = np.empty((2, 100), dtype=np.complex128)
        v[0].real, v[0].imag = re.ravel(), im.ravel()
        v[1] = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        want = hull_clip_two_pass(v, c.re_bound, c.im_bound)
        got = prox._clip_to_hull(v.copy(), c)
        assert got.tobytes() == want.tobytes()
        if kind == "bpsk":
            assert not np.any(np.signbit(got.imag)) and np.all(got.imag == 0.0)

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_step_leaves_its_inputs(self, kind):
        _, G, c = make_noisy_block(7, kind=kind)
        params = ProxParams(rho_log2=3)
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        s = init_s(G, c)
        s_before, Ghat_before = s.copy(), pre.Ghat.copy()
        s_new, q_tilde = iterate_once(s, pre, c, params)
        assert s.tobytes() == s_before.tobytes()
        assert pre.Ghat.tobytes() == Ghat_before.tobytes()
        assert not np.shares_memory(s_new, s)
        assert not np.shares_memory(s_new, q_tilde)


class TestHardDecision:
    def test_bpsk_slicing(self):
        c = Constellation("bpsk")
        out = hard_decision(np.array([0.3, -0.7]), c)
        assert np.array_equal(out, [1.0, -1.0])

    def test_idempotent_on_points(self):
        for c in (Constellation("bpsk"), Constellation("qpsk")):
            assert np.array_equal(hard_decision(c.points, c), c.points)

    def test_axis_ties_go_to_positive_side(self):
        # The sign-bit slicer counts a zero part as positive, in float and
        # in the fixed-point datapath alike.
        c = Constellation("bpsk")
        assert hard_decision(np.array([0.0]), c)[0] == 1.0
        q = Constellation("qpsk")
        assert hard_decision(np.array([0.5 + 0j]), q)[0] == q.points[0]
        assert hard_decision(np.array([0 - 0.5j]), q)[0] == q.points[3]
        fixed = q.decide(np.array([5, 0]), np.array([0, -7]))
        assert fixed[1] == q.points[3]

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_nearest_point(self, kind):
        # Off the axes the sign slicer is the nearest-point rule; BPSK
        # statistics may carry an imaginary part, which it ignores.
        c = Constellation(kind)
        rng = np.random.default_rng(14)
        s = rng.standard_normal((64, 9)) + 1j * rng.standard_normal((64, 9))
        nearest = c.points[np.argmin(np.abs(s[..., None] - c.points), axis=-1)]
        assert np.array_equal(hard_decision(s, c), nearest)


class TestChannelEstimate:
    def test_noise_free_identity(self):
        c = Constellation("qpsk")
        Y, _, s, h = model.draw_blocks(5, 4, c, 7, [((), np.inf, 1)])[:4]
        assert np.allclose(channel_estimate(Y, s), h, atol=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(channel_estimate(Y, 2.0 * s), 0.5 * channel_estimate(Y, s))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=repr)
    def test_non_finite_decisions_rejected(self, bad):
        # They used to give all-NaN estimates and a RuntimeWarning.
        Y, _, s = model.draw_blocks(16, 4, Constellation("qpsk"), 3, [((0,), 0.0, 4)])[:3]
        s[2, 1] = bad
        with pytest.raises(ParameterError, match="^decisions has a non-finite entry$"):
            channel_estimate(Y, s)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateInputError):
            channel_estimate(np.eye(3, dtype=complex), np.zeros(3, dtype=complex))


class TestSolve:
    def test_noise_free_exact_recovery(self):
        c = Constellation("bpsk")
        Y, G, s, h = model.draw_blocks(16, 8, c, 9, [((), np.inf, 1)])[:4]
        params = ProxParams(t_max=5)
        s_hat = solve_stack(preprocess(G, params.alpha_scale * linalg.spectral_norm(G)), c, params)
        assert np.array_equal(s_hat, s)
        assert np.allclose(channel_estimate(Y, s_hat), h, atol=1e-10)

    def test_k_zero(self):
        c = Constellation("qpsk")
        G = model.draw_blocks(4, 0, c, 10, [((), 10.0, 1)]).G
        params = ProxParams(t_max=3)
        s_hat = solve_stack(preprocess(G, params.alpha_scale * linalg.spectral_norm(G)), c, params)
        assert np.array_equal(s_hat, [[c.points[0]]])

    def test_more_iterations_do_not_hurt(self):
        # Paired batch: error count with t_max=5 must not exceed t_max=1.
        c = Constellation("bpsk")
        errs = {1: 0, 5: 0}
        _, G, s_true, *_ = model.draw_blocks(16, 8, c, 1000, [((), 5.0, 400)])
        for t in (1, 5):
            params = ProxParams(t_max=t)
            s_hat = solve_stack(preprocess(G, params.alpha_scale * linalg.spectral_norm(G)), c, params)
            errs[t] = int(np.sum(s_hat[:, 1:] != s_true[:, 1:]))
        assert errs[5] <= errs[1]

    def test_scale_invariance_of_decisions(self):
        Y, G, c = make_noisy_block(11)
        params = ProxParams()
        G_scaled = linalg.gram(3.7 * Y)
        pre_a = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        pre_b = preprocess(G_scaled, params.alpha_scale * linalg.spectral_norm(G_scaled))
        assert np.allclose(pre_a.Ghat, pre_b.Ghat, atol=1e-12)
        s_a = iterate(pre_a, c, params).s_cur
        s_b = iterate(pre_b, c, params).s_cur
        assert np.max(np.abs(s_a - s_b)) < 1e-12
        assert np.array_equal(solve_stack(pre_a, c, params), solve_stack(pre_b, c, params))


@pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
def test_pilot_slot_decides_to_the_pilot(kind):
    # Neither detection pass pins slot 0 after slicing: the pinned iterate,
    # float or quantized, already slices to the pilot.
    c = Constellation(kind)
    G = model.draw_blocks(8, 5, c, 23, [((), -8.0, 200)]).G
    for rho_log2 in (1, 3):
        params = ProxParams(alpha_scale=1.25, rho_log2=rho_log2, t_max=3)
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        assert np.all(solve_stack(pre, c, params)[:, 0] == c.points[0])
        assert np.all(fxp.solve_fixed_stack(pre, c, params)[:, 0] == c.points[0])


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
        c = Constellation(kind)
        Y, G = model.draw_blocks(B, K, c, seed, [((), snr_db, T)])[:2]
        params = ProxParams(alpha_scale=alpha_scale, rho_log2=rho_log2, t_max=t_max)
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G), approx)
        stacked = solve_stack(pre, c, params)
        h_hat = channel_estimate(Y, stacked)
        trace = iterate(pre, c, params).trace
        assert stacked.shape == (T, K + 1)
        assert h_hat.shape == (T, B)
        for t in range(T):
            pre_t = preprocess(G[t], params.alpha_scale * linalg.spectral_norm(G[t]), approx)
            single = solve_stack(pre_t, c, params)
            assert np.array_equal(stacked[t], single)
            np.testing.assert_allclose(h_hat[t], channel_estimate(Y[t], single), rtol=1e-12, atol=0)
            single_trace = iterate(pre_t, c, params).trace
            for name in ("objective", "grad_residual"):
                got, want = getattr(trace, name)[:, t], getattr(single_trace, name)
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_gram_in_a_stack_gets_identity(self):
        _, G1, _ = make_noisy_block(15)
        G = np.stack([G1, np.zeros_like(G1)])
        pre = preprocess(G, 2.0 * linalg.spectral_norm(G))
        assert np.array_equal(pre.Ghat[1], np.eye(G1.shape[0]))
        assert np.array_equal(pre.Ghat[0], preprocess(G1, 2.0 * linalg.spectral_norm(G1)).Ghat)

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    def test_memory_layout_does_not_matter(self, approx):
        _, G1, _ = make_noisy_block(18)
        G = np.stack([G1, 2.0 * G1])
        alpha = 2.0 * linalg.spectral_norm(G)
        got = preprocess(np.asfortranarray(G), alpha, approx)
        assert np.array_equal(got.Ghat, preprocess(G, alpha, approx).Ghat)

    def test_degenerate_trial_fails_the_stack(self):
        _, G, c = make_noisy_block(16)
        G = np.stack([G, np.zeros_like(G)])
        pre = preprocess(G, 2.0 * linalg.spectral_norm(G))
        with pytest.raises(DegenerateInputError):
            solve_stack(pre, c, ProxParams())

    def test_non_finite_gram_rejected(self):
        # Rejected before the eigensolver, whose LinAlgError is not a
        # package error, and by either preprocessing variant.
        _, G, _ = make_noisy_block(17)
        G[0, 2] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            linalg.spectral_norm(G)
        for approx in (False, True):
            with pytest.raises(ParameterError, match="non-finite"):
                preprocess(G, 2.0, approx)


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
        c = Constellation(kind)
        G = model.draw_blocks(8, N - 1, c, seed, [((), snr_db, T or 1)])[1]
        G = G[0] if T is None else G
        params = ProxParams(alpha_scale=alpha_scale, rho_log2=rho_log2, t_max=t_max)
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G), approx)
        beta = pre.beta(params.rho)
        traced = iterate(pre, c, params)
        trace = traced.trace
        fields = (trace.objective, trace.grad_residual)
        assert all(f.shape == (t_max,) + G.shape[:-2] for f in fields)
        s = init_s(G, c)
        for t in range(t_max):
            s_new, q_tilde = iterate_once(s, pre, c, params)
            q = np.asarray(pre.gamma)[..., None] * q_tilde
            want = step_diagnostics(s, s_new, q, G, pre.alpha, beta, c.re_bound, c.im_bound)
            for f, w in zip(fields, want[:2]):
                assert np.shape(f[t]) == np.shape(w)
                assert np.array_equal(f[t], w, equal_nan=True)
            s = s_new
        bare = iterate(pre, c, params, record_trace=False)
        assert bare.trace is None
        for final in (traced, bare):
            assert np.array_equal(final.s_cur, s)

    @pytest.mark.parametrize("T", [None, 3])
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_pilot_only_blocks_have_zero_boundary_gap(self, kind, T):
        # With no data slot (K=0, N=1) no entry is left to measure.
        c = Constellation(kind)
        G = model.draw_blocks(4, 0, c, 3, [((), 0.0, T or 1)]).G
        G = G[0] if T is None else G
        params = ProxParams(t_max=4)
        state = iterate(preprocess(G, params.alpha_scale * linalg.spectral_norm(G)), c, params)
        assert np.array_equal(prox._boundary_gap(state.s_cur, c), np.zeros(G.shape[:-2]))
        assert np.array_equal(state.s_cur, np.full(G.shape[:-1], c.points[0]))


def _stop_case(kind, T, snr_db, approx, t_max, seed=41):
    """The inputs of one stop test: a stack of T blocks (one block for
    None) of 16 antennas and 8 data slots, preprocessed at the default
    gains with ``t_max`` steps."""
    c = Constellation(kind)
    G = model.draw_blocks(16, 8, c, seed, [((), snr_db, T or 1)])[1]
    G = G[0] if T is None else G
    params = ProxParams(t_max=t_max)
    return preprocess(G, params.alpha_scale * linalg.spectral_norm(G), approx), c, params


def _first_repeat(s_all):
    """The first step whose iterate repeats the one before it word for word
    over the whole stack, in stacked iterates from the start on; None if
    none does."""
    repeats = [t for t in range(1, len(s_all)) if s_all[t].tobytes() == s_all[t - 1].tobytes()]
    return repeats[0] if repeats else None


class TestStop:
    """``iterate`` stops once the stack's iterate repeats word for word;
    its outputs are those of all ``t_max`` steps, byte for byte."""

    @pytest.mark.parametrize("t_max", [1, 5, 100])
    @pytest.mark.parametrize("T", [None, 6], ids=["one", "stack"])
    @pytest.mark.parametrize("snr_db", [np.inf, -10.0], ids=["noise-free", "-10dB"])
    @pytest.mark.parametrize("approx", [False, True], ids=["prox", "aprox"])
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_equals_all_steps(self, kind, approx, snr_db, T, t_max):
        pre, c, params = _stop_case(kind, T, snr_db, approx, t_max)
        s_all, want = iterate_all_steps(pre, c, params)
        traced = iterate(pre, c, params)
        got = (traced.trace.objective, traced.trace.grad_residual)
        for g, w in zip(got, want[:2]):
            assert g.shape == w.shape == (t_max,) + pre.G.shape[:-2]
            assert g.tobytes() == w.tobytes()
        # The boundary suite reads the final iterate's gap.
        assert prox._boundary_gap(traced.s_cur, c).tobytes() == want[2][-1].tobytes()
        for final in (traced, iterate(pre, c, params, record_trace=False)):
            assert final.s_cur.tobytes() == s_all[-1].tobytes()
        assert traced.steps == (_first_repeat(s_all) or t_max)

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_counts_steps(self, kind, monkeypatch):
        pre, c, params = _stop_case(kind, 6, -4.0, False, 100)
        k = _first_repeat(iterate_all_steps(pre, c, params)[0])
        assert k is not None and 3 <= k < 100
        calls = []

        def counting(*args):
            calls.append(None)
            return iterate_once(*args)

        monkeypatch.setattr(prox, "iterate_once", counting)
        # Repeats after k steps; still changing at t_max = k - 1.
        for t_max, steps in ((100, k), (k, k), (k - 1, k - 1)):
            params = ProxParams(t_max=t_max)
            for record_trace in (True, False):
                calls.clear()
                state = iterate(pre, c, params, record_trace)
                assert len(calls) == state.steps == steps
            calls.clear()
            solve_stack(pre, c, params)
            assert len(calls) == steps


class TestSubStackStep:
    # A step on the trials still moving must give each of them the bytes it
    # gets in the whole-stack step; that rests on numpy's batched matvec
    # giving one matrix the same bytes whatever stack it sits in.
    @pytest.mark.parametrize("T", [7, 120, 512])
    @pytest.mark.parametrize("K", [4, 8, 16])
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk"])
    def test_gathered_rows_step_like_the_whole_stack(self, kind, K, T):
        c = Constellation(kind)
        G = model.draw_blocks(16, K, c, 60 + K, [((), -2.0, T)]).G
        params = ProxParams()
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        s = iterate(pre, c, ProxParams(t_max=2), record_trace=False).s_cur
        whole = iterate_once(s, pre, c, params)
        rng = np.random.default_rng(T + K)
        subsets = [np.sort(rng.choice(T, n, replace=False)) for n in (1, 2, 3, T // 2, T - 1, T)]
        for rows in subsets + list(rng.choice(T, 6, replace=False)):
            # An index array keeps the trial axis; a single index drops it.
            sub = PreprocessedMatrix(pre.Ghat[rows], pre.gamma[rows], pre.alpha[rows], pre.G[rows])
            for got, want in zip(iterate_once(s[rows], sub, c, params), whole):
                assert got.tobytes() == want[rows].tobytes()


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
            pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
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
            pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
            s_prev = init_s(G, c)
            s_new, q_tilde = iterate_once(s_prev, pre, c, params)
            q = pre.gamma * q_tilde
            lhs = -G @ q + pre.alpha * (q - s_new)
            rhs = pre.alpha * (s_prev - s_new)
            denom = max(np.linalg.norm(rhs), np.linalg.norm(lhs))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * denom

    def test_gradient_residual_decays(self):
        _, G, c = make_noisy_block(12, B=16, K=8)
        params = ProxParams(t_max=100)
        pre = preprocess(G, params.alpha_scale * linalg.spectral_norm(G))
        resid = iterate(pre, c, params).trace.grad_residual
        n = G.shape[0]
        assert resid[-1] <= 1e-6 * pre.alpha * np.sqrt(n)

    def test_boundary_gap_small_after_convergence(self):
        _, G, c = make_noisy_block(13, B=16, K=8)
        params = ProxParams(t_max=100)
        state = iterate(preprocess(G, params.alpha_scale * linalg.spectral_norm(G)), c, params)
        if state.trace.grad_residual[-1] < 1e-8 and np.linalg.norm(state.s_cur) > 0:
            assert prox._boundary_gap(state.s_cur, c) <= 1e-6

    def test_exact_vs_approx_within_neumann_bound(self):
        _, G, _ = make_noisy_block(14)
        exact = preprocess(G, 2.0 * linalg.spectral_norm(G))
        approx = preprocess(G, 2.0 * linalg.spectral_norm(G), approx=True)
        gap = np.linalg.norm(exact.gamma * exact.Ghat - approx.gamma * approx.Ghat, ord=2)
        assert gap <= linalg.neumann_error_bound(linalg.spectral_norm(G), exact.alpha) * (1 + 1e-9)
