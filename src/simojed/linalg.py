"""Complex-matrix primitives used by the solver.

Everything here operates on plain ``numpy`` complex arrays and is pure: no
shared state, safe to call from worker processes. The functions on square
matrices also take stacks of shape ``(..., N, N)`` and treat every leading
index as an independent matrix. The spectral norm calls LAPACK once per
matrix; the shifted inverse instead runs one Gauss-Jordan sweep of N
whole-stack steps over a trial-last copy, because for the small matrices
of a solver stack the per-matrix call costs more than its arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError, ParameterError


def _require_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"need a square matrix or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ParameterError("matrix has a non-finite entry")
    return A


def _require_shift(alpha, lead: tuple[int, ...], zero_ok: bool = False) -> np.ndarray:
    """Shift factors as float64: a scalar, or one per matrix of a stack with
    leading axes ``lead``; each must be finite and positive, or zero where
    ``zero_ok``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape not in ((), lead):
        raise DimensionError(f"shift factors of shape {alpha.shape} for a stack of shape {lead}")
    ok = ((alpha >= 0.0) if zero_ok else (alpha > 0.0)) & (alpha < np.inf)
    if not np.all(ok):
        sign = "non-negative" if zero_ok else "positive"
        raise ParameterError(f"shift factor must be finite and {sign}, got {alpha[~ok][0]}")
    return alpha


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    # (A + A^H)/2 is exactly Hermitian in IEEE arithmetic and zeroes the
    # diagonal imaginary parts.
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def _hermitian_part_trial_last(A: np.ndarray, work: np.ndarray) -> None:
    """``_hermitian_part`` in place on a trial-last (N, N, T) stack, bit for
    bit; ``work`` is scratch of the same shape."""
    np.conjugate(A, out=work)
    np.add(A, work.swapaxes(0, 1), out=A)
    A *= 0.5


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
    return np.maximum(np.linalg.eigvalsh(A)[..., -1], 0.0)


def invert_shifted(G: np.ndarray, alpha) -> np.ndarray:
    """Inverse of (I - G/alpha) for Hermitian PSD G with alpha above the
    spectral norm; ``alpha`` is a scalar or one value per matrix of a stack.

    The Hermitian part of the shifted matrix is inverted by one
    Gauss-Jordan sweep without pivoting, run on a contiguous trial-last
    (N, N, T) copy of the stack: each of the N steps works on every matrix
    at once, and on each one alone, so a matrix's inverse does not depend
    on the rest of its stack. Elimination on a Hermitian matrix meets only
    real positive pivots exactly when the matrix is positive definite, that
    is when alpha exceeds the largest eigenvalue of G, so a pivot that is
    not positive is reported as a parameter error. The inverse is
    symmetrized exactly. A zero alpha takes G as zero; a negative or
    non-finite alpha, or a non-finite G, is a parameter error.
    """
    G = _require_square(G)
    alpha = _require_shift(alpha, G.shape[:-2], zero_ok=True)
    n = G.shape[-1]
    stack = G.reshape(-1, n, n)
    # Two buffers of the stack's size serve every step: fresh memory for a
    # temporary costs more than the arithmetic on it at these sizes.
    A = np.empty((n, n, len(stack)), dtype=np.complex128)
    work = np.empty_like(A)
    shifted = work.reshape(stack.shape)
    np.divide(stack, np.where(alpha == 0, np.inf, alpha).reshape(-1, 1, 1), out=shifted)
    np.subtract(np.eye(n), shifted, out=shifted)
    A[...] = np.moveaxis(shifted, 0, -1)
    _hermitian_part_trial_last(A, work)
    # Row k is scaled on its real view, (n, 2T) with real and imaginary
    # parts interleaved, by the real reciprocal of its pivot.
    parts = A.view(np.float64)
    for k in range(n):
        lowest = A[k, k].real.min(initial=np.inf)
        if not lowest > 0.0:
            raise ParameterError(
                "shift factor must exceed the spectral norm (shifted matrix not "
                f"positive definite: pivot {k} is {lowest:.3g})"
            )
        inverse = 1.0 / A[k, k].real
        col = A[:, k].copy()
        col[k] = 0.0
        parts[k] *= np.repeat(inverse, 2)
        A[:, k] = 0.0
        A[k, k] = inverse
        np.multiply(col[:, None], A[k], out=work)
        A -= work
    _hermitian_part_trial_last(A, work)
    if not np.all(np.isfinite(A)):
        raise NumericError("the Gauss-Jordan sweep produced non-finite entries")
    M = work.reshape(stack.shape)
    M[...] = np.moveaxis(A, -1, 0)
    return M.reshape(G.shape)


def neumann_two_term(G: np.ndarray, alpha) -> np.ndarray:
    """Two-term series approximation of the shifted inverse: I + G/alpha,
    with ``alpha`` a scalar or one value per matrix of a stack; it must be
    finite and positive, and G finite."""
    G = _require_square(G)
    alpha = _require_shift(alpha, G.shape[:-2])
    return np.eye(G.shape[-1], dtype=np.complex128) + G / alpha[..., None, None]


def neumann_error_bound(G: np.ndarray, alpha) -> np.ndarray | float:
    """Spectral-norm bound on the two-term truncation error, with ``alpha``
    a scalar or one value per matrix of a stack: a float for one matrix, an
    array of one bound per matrix for a stack.

    With r = |G|/alpha < 1 the dropped tail is bounded by r^2 / (1 - r);
    alpha must be finite and positive.
    """
    norm = spectral_norm(G)
    r = norm / _require_shift(alpha, np.shape(norm))
    if np.any(r >= 1.0):
        raise ParameterError(f"bound undefined: |G|/alpha = {np.max(r)} >= 1")
    return (r * r / (1.0 - r))[()]
