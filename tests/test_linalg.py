import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simojed import linalg
from simojed.errors import DimensionError, NumericError, ParameterError

from oracles import gram_triple_loop, jacobi_eigenvalues


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n):
    A = random_complex(rng, n, n)
    return linalg.gram(A)


class TestGram:
    def test_identity(self):
        Y = np.eye(2, dtype=np.complex128)
        assert np.array_equal(linalg.gram(Y), np.eye(2))

    def test_single_row(self):
        Y = np.array([[1 + 1j, 0.0]])
        G = linalg.gram(Y)
        assert np.allclose(G, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        Y = random_complex(rng, 4, 3)
        G = linalg.gram(Y)
        assert np.max(np.abs(G - gram_triple_loop(Y))) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            linalg.gram(np.zeros((0, 3)))
        with pytest.raises(DimensionError):
            linalg.gram(np.zeros((3, 0)))

    def test_non_finite_raises(self):
        Y = np.ones((3, 2), dtype=complex)
        Y[0, 1] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            linalg.gram(Y)

    def test_stack_equals_per_block(self):
        rng = np.random.default_rng(15)
        Y = random_complex(rng, 7, 16, 9)
        G = linalg.gram(Y)
        for t in range(7):
            one = linalg.gram(Y[t])
            assert np.max(np.abs(G[t] - one)) <= 1e-12 * np.max(np.abs(one))

    def test_non_finite_in_stack_raises(self):
        Y = np.ones((4, 3, 2), dtype=complex)
        Y[2, 0, 1] = np.inf
        with pytest.raises(ParameterError, match="non-finite"):
            linalg.gram(Y)

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(2)
        G = linalg.gram(random_complex(rng, 5, 4))
        for i in range(4):
            for j in range(4):
                assert G[i, j] == np.conj(G[j, i])
        assert np.all(np.imag(np.diag(G)) == 0.0)
        assert np.all(np.real(np.diag(G)) >= 0.0)

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(3)
        G = linalg.gram(random_complex(rng, 6, 5))
        fro = np.linalg.norm(G)
        for _ in range(100):
            x = random_complex(rng, 5)
            qf = np.real(np.vdot(x, G @ x))
            assert qf >= -1e-12 * np.linalg.norm(x) ** 2 * fro


class TestSpectralNorm:
    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, rel=1e-12)

    def test_identity(self):
        assert linalg.spectral_norm(np.eye(7)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        assert linalg.spectral_norm(np.zeros((4, 4))) == 0.0

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = random_psd(rng, 5)
            exact = jacobi_eigenvalues(A)[-1]
            est = linalg.spectral_norm(A)
            assert abs(est - exact) <= 1e-9 * exact

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            linalg.spectral_norm(np.zeros((3, 4)))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
    @pytest.mark.parametrize(
        "fn",
        [
            linalg.spectral_norm,
            lambda A: linalg.invert_shifted(A, 1.0),
            lambda A: linalg.neumann_two_term(A, 1.0),
        ],
        ids=["spectral_norm", "invert_shifted", "neumann_two_term"],
    )
    def test_empty_matrix_raises(self, fn, shape):
        # A 0x0 matrix once ended in a raw IndexError (spectral_norm) or
        # ValueError (invert_shifted), or passed as an empty result.
        with pytest.raises(DimensionError, match="non-empty square"):
            fn(np.zeros(shape))

    def test_non_finite_raises(self):
        A = np.eye(3, dtype=complex)
        A[2, 0] = np.inf
        with pytest.raises(ParameterError, match="non-finite"):
            linalg.spectral_norm(np.stack([np.eye(3), A]))

    @settings(max_examples=30)
    @given(T=st.integers(1, 8), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_stack_against_jacobi_oracle(self, T, n, seed):
        rng = np.random.default_rng(seed)
        A = np.stack([random_psd(rng, n) for _ in range(T)])
        norms = linalg.spectral_norm(A)
        assert norms.shape == (T,)
        for t in range(T):
            exact = jacobi_eigenvalues(A[t])[-1]
            assert abs(norms[t] - exact) <= 1e-10 * exact

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        A = random_psd(rng, 5)
        assert linalg.spectral_norm(A) == linalg.spectral_norm(A)


class TestInvertShifted:
    def test_zero_matrix(self):
        assert np.allclose(linalg.invert_shifted(np.zeros((3, 3)), 2.0), np.eye(3), atol=1e-15)

    def test_diagonal_example(self):
        M = linalg.invert_shifted(np.diag([1.0, 2.0]).astype(complex), 4.0)
        assert np.allclose(M, np.diag([4.0 / 3.0, 2.0]), atol=1e-12)

    def test_residual_and_hermitian(self):
        rng = np.random.default_rng(7)
        G = random_psd(rng, 6)
        alpha = 2.0 * linalg.spectral_norm(G)
        M = linalg.invert_shifted(G, alpha)
        shifted = np.eye(6) - G / alpha
        assert np.linalg.norm(shifted @ M - np.eye(6)) <= 1e-9 * 6
        assert np.max(np.abs(M - M.conj().T)) <= 1e-12

    def test_shifted_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(8)
        G = random_psd(rng, 5)
        alpha = 1.5 * linalg.spectral_norm(G)
        evals = jacobi_eigenvalues(np.eye(5) - G / alpha)
        assert np.all(evals > 0.0)
        assert np.all(evals <= 1.0 + 1e-12)

    def test_alpha_below_norm_raises(self):
        rng = np.random.default_rng(9)
        G = random_psd(rng, 5)
        with pytest.raises(ParameterError):
            linalg.invert_shifted(G, 0.5 * linalg.spectral_norm(G))

    def test_stack_equals_per_matrix(self):
        rng = np.random.default_rng(13)
        G = np.stack([random_psd(rng, 5) for _ in range(4)])
        alpha = np.array([1.1, 1.5, 2.0, 4.0]) * linalg.spectral_norm(G)
        M = linalg.invert_shifted(G, alpha)
        for t in range(4):
            assert np.array_equal(M[t], linalg.invert_shifted(G[t], alpha[t]))

    @pytest.mark.parametrize("n", [1, 2, 9, 17])
    @pytest.mark.parametrize("T", [1, 5, 330])
    def test_matches_numpy_inverse(self, n, T):
        rng = np.random.default_rng(n * 1000 + T)
        G = linalg.gram(random_complex(rng, T, n + 2, n))
        alpha = rng.uniform(1.05, 4.0, T) * linalg.spectral_norm(G)
        M = linalg.invert_shifted(G, alpha)
        ref = np.linalg.inv(np.eye(n) - G / alpha[:, None, None])
        assert M.shape == (T, n, n) and M.flags.c_contiguous
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_one_matrix_matches_numpy_inverse(self):
        rng = np.random.default_rng(16)
        G = random_psd(rng, 9)
        alpha = 1.3 * linalg.spectral_norm(G)
        M = linalg.invert_shifted(G, alpha)
        ref = np.linalg.inv(np.eye(9) - G / alpha)
        assert M.shape == (9, 9)
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [5, 9, 17])
    def test_split_stack_is_bit_equal(self, n):
        # Each matrix of a stack comes out the same whatever else is in
        # the stack: sweep results must not depend on how trials are packed.
        rng = np.random.default_rng(n)
        G = linalg.gram(random_complex(rng, 330, n + 2, n))
        alpha = 2.0 * linalg.spectral_norm(G)
        M = linalg.invert_shifted(G, alpha)
        parts = [linalg.invert_shifted(G[a:b], alpha[a:b]) for a, b in ((0, 1), (1, 8), (8, 330))]
        assert np.array_equal(np.concatenate(parts), M)
        for t in (0, 5, 329):
            assert np.array_equal(linalg.invert_shifted(G[t], alpha[t]), M[t])

    def test_last_pivot_not_positive_raises(self):
        # I - G/alpha has positive leading minors up to N-1 but a negative
        # determinant, so only the last pivot of the sweep fails.
        n = 6
        u = np.full(n, np.sqrt(0.4 / (n - 1)), dtype=complex) * np.exp(1j * np.arange(n))
        u[-1] = np.sqrt(0.6)
        G = np.stack([np.eye(n), 2.0 * np.outer(u, u.conj())])
        with pytest.raises(ParameterError, match="spectral norm") as exc:
            linalg.invert_shifted(G, np.array([2.0, 1.0]))
        assert f"pivot {n - 1}" in str(exc.value)

    def test_subnormal_last_pivot_raises_numeric_error(self):
        # Every pivot passes its check, but the last one is subnormal and
        # its reciprocal overflows. With G = I + [[0, v], [v^T, 0]] and
        # alpha = 2 the first pivots are 1/2 and the last is about half of
        # 1 - sum v_k^2: each v_k is the largest double whose rounded square
        # stays below what is left of 1, so each step cancels all but about
        # 2^-52 of it, and 20 steps pass the smallest normal double.
        left, v = 1.0, []
        while left >= 2.0**-1023:
            x = np.sqrt(left)
            while x * x >= left:
                x = np.nextafter(x, 0.0)
            v.append(x)
            left -= x * x
        n = len(v) + 1
        G = np.eye(n, dtype=complex)
        G[-1, :-1] = G[:-1, -1] = v
        with pytest.raises(NumericError, match="non-finite"), pytest.warns(RuntimeWarning) as seen:
            linalg.invert_shifted(G, 2.0)
        assert "overflow encountered in divide" in [str(w.message) for w in seen]

    def test_one_bad_shift_in_a_stack_raises(self):
        rng = np.random.default_rng(14)
        G = np.stack([random_psd(rng, 5) for _ in range(3)])
        alpha = np.array([2.0, 0.5, 2.0]) * linalg.spectral_norm(G)
        with pytest.raises(ParameterError):
            linalg.invert_shifted(G, alpha)


def _with_nan(n=3):
    G = np.eye(n, dtype=complex)
    G[0, 1] = np.nan
    return G


# Each of these once returned a matrix or a number without complaint.
@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.invert_shifted(np.eye(3), -1.0),
        lambda: linalg.invert_shifted(np.eye(3), 0.0),
        lambda: linalg.invert_shifted(np.eye(3), np.inf),
        lambda: linalg.invert_shifted(np.eye(3), np.nan),
        lambda: linalg.invert_shifted(np.stack([np.eye(3)] * 2), np.array([2.0, -2.0])),
        lambda: linalg.invert_shifted(_with_nan(), 2.0),
        lambda: linalg.neumann_two_term(_with_nan(), 2.0),
        lambda: linalg.neumann_two_term(np.eye(3), np.nan),
        lambda: linalg.neumann_two_term(np.eye(3), np.inf),
        lambda: linalg.neumann_error_bound(1.0, -2.0),
        lambda: linalg.neumann_error_bound(1.0, np.nan),
        lambda: linalg.neumann_error_bound(np.nan, 2.0),
        lambda: linalg.neumann_error_bound(np.array([1.0, -1.0]), 2.0),
    ],
    ids=[
        "invert-negative-shift",
        "invert-zero-shift",
        "invert-inf-shift",
        "invert-nan-shift",
        "invert-negative-shift-in-stack",
        "invert-nan-matrix",
        "neumann-nan-matrix",
        "neumann-nan-shift",
        "neumann-inf-shift",
        "bound-negative-shift",
        "bound-nan-shift",
        "bound-nan-norm",
        "bound-negative-norm-in-stack",
    ],
)
def test_bad_shift_or_matrix_raises(call):
    with pytest.raises(ParameterError, match="non-finite|finite and"):
        call()


@pytest.mark.parametrize(
    "fn",
    [
        linalg.invert_shifted,
        linalg.neumann_two_term,
        pytest.param(
            lambda G, alpha: linalg.neumann_error_bound(linalg.spectral_norm(G), alpha),
            id="neumann_error_bound",
        ),
    ],
)
@pytest.mark.parametrize("G", [np.eye(3), np.stack([np.eye(3)] * 3)], ids=["one", "stack-of-3"])
def test_shift_shape_must_match_the_stack(fn, G):
    # Two shifts for one matrix once gave a (2, 3, 3) stack; for a stack of
    # three they ended in a raw numpy broadcast error.
    with pytest.raises(DimensionError, match="shift factors of shape"):
        fn(G, np.array([4.0, 8.0]))


class TestNeumann:
    def test_zero_matrix(self):
        assert np.array_equal(linalg.neumann_two_term(np.zeros((3, 3)), 4.0), np.eye(3))

    def test_scalar_example(self):
        assert np.allclose(linalg.neumann_two_term(np.diag([2.0]), 4.0), np.diag([1.5]))

    def test_definition(self):
        rng = np.random.default_rng(10)
        G = random_complex(rng, 4, 4)
        assert np.array_equal(linalg.neumann_two_term(G, 3.0), np.eye(4) + G / 3.0)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            linalg.neumann_two_term(np.zeros((2, 3)), 1.0)

    def test_bound_halfway_point(self):
        # |G|/alpha = 0.5 -> 0.25 / 0.5 = 0.5
        assert linalg.neumann_error_bound(1.0, 2.0) == pytest.approx(0.5, rel=1e-9)

    def test_bound_zero_matrix(self):
        assert linalg.neumann_error_bound(0.0, 1.0) == 0.0

    def test_bound_invalid_alpha(self):
        with pytest.raises(ParameterError):
            linalg.neumann_error_bound(1.0, 0.5)

    def test_measured_gap_within_bound(self):
        # The bound is attained exactly at the dominant eigenvalue, so allow
        # rounding slack on the comparison.
        rng = np.random.default_rng(11)
        G = random_psd(rng, 6)
        alpha = 2.0 * linalg.spectral_norm(G)
        gap = np.linalg.norm(
            linalg.invert_shifted(G, alpha) - linalg.neumann_two_term(G, alpha), ord=2
        )
        bound = linalg.neumann_error_bound(linalg.spectral_norm(G), alpha)
        assert gap <= bound * (1 + 1e-9)

    def test_bound_of_stack_equals_per_matrix(self):
        rng = np.random.default_rng(13)
        G = np.stack([random_psd(rng, 5) for _ in range(4)])
        norm = linalg.spectral_norm(G)
        alpha = np.array([1.1, 1.5, 2.0, 4.0]) * norm
        bounds = linalg.neumann_error_bound(norm, alpha)
        assert bounds.shape == (4,)
        for t in range(4):
            assert bounds[t] == linalg.neumann_error_bound(norm[t], alpha[t])

    def test_bound_and_gap_shrink_with_alpha(self):
        rng = np.random.default_rng(12)
        G = random_psd(rng, 6)
        norm = linalg.spectral_norm(G)
        scales = [1.1, 1.5, 2.0, 4.0]
        gaps, bounds = [], []
        for s in scales:
            alpha = s * norm
            gaps.append(
                np.linalg.norm(
                    linalg.invert_shifted(G, alpha) - linalg.neumann_two_term(G, alpha),
                    ord=2,
                )
            )
            bounds.append(linalg.neumann_error_bound(norm, alpha))
        for a, b in zip(gaps[1:], gaps[:-1]):
            assert a <= b
        for a, b in zip(bounds[1:], bounds[:-1]):
            assert a <= b
