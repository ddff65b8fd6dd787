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


def check_finite(a, what: str) -> np.ndarray:
    """``a`` as an array; a ``ParameterError`` naming ``what`` if an entry
    is not finite."""
    a = np.asarray(a)
    # numpy's float isfinite loop is about twice as fast as its complex one.
    as_floats = a.dtype == np.complex128 and a.ndim > 0 and a.flags.c_contiguous
    if not np.isfinite(a.view(np.float64) if as_floats else a).all():
        raise ParameterError(f"{what} has a non-finite entry")
    return a


def _require_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise DimensionError(f"need a non-empty square matrix or a stack of them, got shape {A.shape}")
    return check_finite(A, "matrix")


def _require_shift(alpha, lead: tuple[int, ...]) -> np.ndarray:
    """Shift factors as float64: a scalar, or one per matrix of a stack with
    leading axes ``lead``; each must be finite and positive."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape not in ((), lead):
        raise DimensionError(f"shift factors of shape {alpha.shape} for a stack of shape {lead}")
    ok = (alpha > 0.0) & (alpha < np.inf)
    if not np.all(ok):
        raise ParameterError(f"shift factor must be finite and positive, got {alpha[~ok][0]}")
    return alpha


def _hermitian_part(A: np.ndarray, axes: tuple[int, int], work: np.ndarray | None = None) -> np.ndarray:
    """``A`` replaced in place by (A + A^H)/2 over its matrix axes ``axes``,
    and returned: exactly Hermitian in IEEE arithmetic, with zero diagonal
    imaginary parts. The one conjugate copy goes to ``work``, scratch of
    ``A``'s shape, or to fresh memory without it."""
    work = np.conjugate(A, out=work)
    A += work.swapaxes(*axes)
    A *= 0.5
    return A


def gram(Y: np.ndarray) -> np.ndarray:
    """Gram matrix of the received block, or of every block of a stack of
    shape (..., B, N): columns correlated against columns.

    The result is Hermitian by construction (the product is symmetrized
    exactly, in place) with real, non-negative diagonal. A block with a
    non-finite entry is rejected.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim < 2 or Y.shape[-2] < 1 or Y.shape[-1] < 1:
        raise DimensionError(f"need a non-empty matrix or a stack of them, got shape {Y.shape}")
    check_finite(Y, "received block")
    return _hermitian_part(Y.conj().swapaxes(-1, -2) @ Y, (-1, -2))


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
    symmetrized exactly. An alpha that is not finite and positive, or a
    non-finite G, is a parameter error.
    """
    G = _require_square(G)
    alpha = _require_shift(alpha, G.shape[:-2])
    n = G.shape[-1]
    stack = G.reshape(-1, n, n)
    # Two buffers of the stack's size serve every step: fresh memory for a
    # temporary costs more than the arithmetic on it at these sizes.
    A = np.empty((n, n, len(stack)), dtype=np.complex128)
    work = np.empty_like(A)
    shifted = work.reshape(stack.shape)
    np.divide(stack, alpha.reshape(-1, 1, 1), out=shifted)
    np.subtract(np.eye(n), shifted, out=shifted)
    A[...] = np.moveaxis(shifted, 0, -1)
    _hermitian_part(A, (0, 1), work)
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
    _hermitian_part(A, (0, 1), work)
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


def neumann_error_bound(norm, alpha) -> np.ndarray | float:
    """Spectral-norm bound on the two-term truncation error of a Gram
    matrix of spectral norm ``norm`` (``spectral_norm``'s value), or of a
    stack given one norm per matrix, with ``alpha`` a scalar or one value
    per norm: a float for one matrix, an array of one bound per matrix for
    a stack.

    With r = norm/alpha < 1 the dropped tail is bounded by r^2 / (1 - r);
    the norm must be finite and non-negative, alpha finite and positive.
    """
    norm = np.asarray(norm, dtype=np.float64)
    if not np.all((norm >= 0.0) & (norm < np.inf)):
        raise ParameterError("spectral norm must be finite and non-negative")
    r = norm / _require_shift(alpha, norm.shape)
    if np.any(r >= 1.0):
        raise ParameterError(f"bound undefined: |G|/alpha = {np.max(r)} >= 1")
    return (r * r / (1.0 - r))[()]
