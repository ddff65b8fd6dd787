import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simojed import linalg
from simojed.errors import DimensionError, ParameterError

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

    def test_one_bad_shift_in_a_stack_raises(self):
        rng = np.random.default_rng(14)
        G = np.stack([random_psd(rng, 5) for _ in range(3)])
        alpha = np.array([2.0, 0.5, 2.0]) * linalg.spectral_norm(G)
        with pytest.raises(ParameterError):
            linalg.invert_shifted(G, alpha)


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
        assert linalg.neumann_error_bound(np.diag([1.0]), 2.0) == pytest.approx(0.5, rel=1e-9)

    def test_bound_zero_matrix(self):
        assert linalg.neumann_error_bound(np.zeros((3, 3)), 1.0) == 0.0

    def test_bound_invalid_alpha(self):
        with pytest.raises(ParameterError):
            linalg.neumann_error_bound(np.eye(3), 0.5)

    def test_measured_gap_within_bound(self):
        # The bound is attained exactly at the dominant eigenvalue, so allow
        # rounding slack on the comparison.
        rng = np.random.default_rng(11)
        G = random_psd(rng, 6)
        alpha = 2.0 * linalg.spectral_norm(G)
        gap = np.linalg.norm(
            linalg.invert_shifted(G, alpha) - linalg.neumann_two_term(G, alpha), ord=2
        )
        bound = linalg.neumann_error_bound(G, alpha)
        assert gap <= bound * (1 + 1e-9)

    def test_bound_of_stack_equals_per_matrix(self):
        rng = np.random.default_rng(13)
        G = np.stack([random_psd(rng, 5) for _ in range(4)])
        alpha = np.array([1.1, 1.5, 2.0, 4.0]) * linalg.spectral_norm(G)
        bounds = linalg.neumann_error_bound(G, alpha)
        assert bounds.shape == (4,)
        for t in range(4):
            assert bounds[t] == linalg.neumann_error_bound(G[t], alpha[t])

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
            bounds.append(linalg.neumann_error_bound(G, alpha))
        for a, b in zip(gaps[1:], gaps[:-1]):
            assert a <= b
        for a, b in zip(bounds[1:], bounds[:-1]):
            assert a <= b
