"""Complex-matrix primitives used by the solver.

Everything here operates on plain ``numpy`` complex arrays and is pure: no
shared state, safe to call from worker processes. The functions on square
matrices also take stacks of shape ``(..., N, N)`` and treat every leading
index as an independent matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError, ParameterError


def _require_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"need a square matrix or a stack of them, got shape {A.shape}")
    return A


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    # (A + A^H)/2 is exactly Hermitian in IEEE arithmetic and zeroes the
    # diagonal imaginary parts.
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def gram(Y: np.ndarray) -> np.ndarray:
    """Gram matrix of the received block, or of every block of a stack of
    shape (..., B, N): columns correlated against columns.

    The result is Hermitian by construction (symmetrized exactly) with real,
    non-negative diagonal. A block with a non-finite entry is rejected.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim < 2 or Y.shape[-2] < 1 or Y.shape[-1] < 1:
        raise DimensionError(f"need a non-empty matrix or a stack of them, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ParameterError("received block has a non-finite entry")
    return _hermitian_part(Y.conj().swapaxes(-1, -2) @ Y)


def spectral_norm(A: np.ndarray) -> np.ndarray | float:
    """Largest eigenvalue of a Hermitian PSD matrix, from the exact LAPACK
    eigensolver and clamped at zero: a float for one matrix, an array of
    one value per matrix for a stack.

    Only the lower triangle is read. A matrix with a non-finite entry is
    rejected.
    """
    A = _require_square(A)
    if not np.all(np.isfinite(A)):
        raise ParameterError("matrix has a non-finite entry")
    return np.maximum(np.linalg.eigvalsh(A)[..., -1], 0.0)


def invert_shifted(G: np.ndarray, alpha) -> np.ndarray:
    """Inverse of (I - G/alpha) for Hermitian PSD G with alpha above the
    spectral norm; ``alpha`` is a scalar or one value per matrix of a stack.

    The shifted matrix is Hermitian positive definite exactly when alpha
    exceeds the largest eigenvalue of G, so a failed Cholesky factorization
    is reported as a parameter error. The inverse is L^-H L^-1 from the
    factor L, symmetrized exactly. A zero alpha takes G as zero.
    """
    G = _require_square(G)
    alpha = np.asarray(alpha, dtype=np.float64)[..., None, None]
    shifted = _hermitian_part(np.eye(G.shape[-1]) - G / np.where(alpha == 0, np.inf, alpha))
    try:
        L = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            "shift factor must exceed the spectral norm (shifted matrix not "
            f"positive definite): {exc}"
        ) from None
    L_inv = np.linalg.inv(L)
    M = L_inv.conj().swapaxes(-1, -2) @ L_inv
    if not np.all(np.isfinite(M)):
        raise NumericError("inverting the Cholesky factor produced non-finite entries")
    return _hermitian_part(M)


def neumann_two_term(G: np.ndarray, alpha) -> np.ndarray:
    """Two-term series approximation of the shifted inverse: I + G/alpha,
    with ``alpha`` a scalar or one value per matrix of a stack."""
    G = _require_square(G)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0):
        raise ParameterError("alpha must be positive")
    return np.eye(G.shape[-1], dtype=np.complex128) + G / alpha[..., None, None]


def neumann_error_bound(G: np.ndarray, alpha) -> np.ndarray | float:
    """Spectral-norm bound on the two-term truncation error, with ``alpha``
    a scalar or one value per matrix of a stack: a float for one matrix, an
    array of one bound per matrix for a stack.

    With r = |G|/alpha < 1 the dropped tail is bounded by r^2 / (1 - r).
    """
    r = spectral_norm(G) / np.asarray(alpha, dtype=np.float64)
    if np.any(r >= 1.0):
        raise ParameterError(f"bound undefined: |G|/alpha = {np.max(r)} >= 1")
    return (r * r / (1.0 - r))[()]
