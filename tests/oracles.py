"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's code paths: explicit scalar loops,
a cyclic-Jacobi eigensolver, and an arbitrary-precision integer model of the
fixed-point datapath. They are slow and simple on purpose. The tuner's
reference and the solver loop's are the exceptions: they run the library's
solver one grid setting at a time, and its step ``t_max`` times.
"""

from __future__ import annotations

import itertools

import numpy as np


def gram_triple_loop(Y):
    """Entrywise conjugate-multiply Gram computation."""
    B, n = Y.shape
    G = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for b in range(B):
                acc += np.conj(Y[b, i]) * Y[b, j]
            G[i, j] = acc
    return G


def jacobi_eigenvalues(H, tol=1e-13, max_sweeps=60):
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Each rotation first strips the phase of the targeted off-diagonal entry,
    then applies the classic real symmetric 2x2 rotation. Returns the
    eigenvalues sorted ascending.
    """
    A = np.array(H, dtype=np.complex128)
    n = A.shape[0]
    norm = np.linalg.norm(A)
    if norm == 0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(A - np.diag(np.diag(A))) ** 2))
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                a = A[p, q]
                if abs(a) <= tol * norm / (10 * n):
                    continue
                phi = np.angle(a)
                app = A[p, p].real
                aqq = A[q, q].real
                r = abs(a)
                tau = (aqq - app) / (2.0 * r)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # V = D @ R restricted to (p, q), D = diag(1, e^{-i phi})
                V = np.eye(n, dtype=np.complex128)
                V[p, p] = c
                V[p, q] = s
                V[q, p] = -s * np.exp(-1j * phi)
                V[q, q] = c * np.exp(-1j * phi)
                A = V.conj().T @ A @ V
    return np.sort(np.real(np.diag(A)))


def prox_iteration_scalar(Ghat, s_prev, rho, re_bound, im_bound, s_check):
    """One solver iteration with explicit scalar loops.

    Matrix-vector product entry by entry, then the per-component clip onto
    the hull, then the pilot-slot overwrite. ``im_bound`` of 0 models the
    real-line hull (imaginary part collapses to zero).
    """
    n = len(s_prev)
    q = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += Ghat[k, j] * s_prev[j]
        q[k] = acc
    s_new = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        v = rho * q[k]
        re = min(max(v.real, -re_bound), re_bound)
        im = min(max(v.imag, -im_bound), im_bound)
        s_new[k] = re + 1j * im
    s_new[0] = s_check
    return q, s_new


def hull_clip_two_pass(v, re_bound, im_bound):
    """The hull clip as two ``np.clip`` calls on the real and imaginary
    parts, put back together by complex arithmetic; ``im_bound`` of 0 gives
    real values with +0.0 imaginary parts."""
    re = np.clip(v.real, -re_bound, re_bound)
    if im_bound == 0.0:
        return re.astype(np.complex128)
    return re + 1j * np.clip(v.imag, -im_bound, im_bound)


def step_diagnostics(s_prev, s_new, q, G, alpha, beta, re_bound, im_bound):
    """Diagnostics of one solver step from that step's arrays alone, with
    any leading trial axis: (objective, gradient residual, boundary gap).

    These are the per-iteration formulas, evaluated one step at a time with
    the same numpy reductions, so a solver that evaluates all steps in one
    pass must match them bit for bit. The objective
    -|Yq|^2/2 + alpha|q-s|^2/2 - beta|s|^2/2 (|Yq|^2 from G) is NaN where
    beta is outside (0, alpha); the gap is that of the non-pilot entry
    closest to the hull boundary, zero without one.
    """
    grad_residual = alpha * np.linalg.norm(s_prev - s_new, axis=-1)
    Gq = (G @ q[..., None])[..., 0]
    value = (
        -0.5 * np.sum((q.conj() * Gq).real, axis=-1)
        + 0.5 * alpha * np.linalg.norm(q - s_new, axis=-1) ** 2
        - 0.5 * beta * np.linalg.norm(s_new, axis=-1) ** 2
    )
    objective = np.where((0.0 < beta) & (beta < alpha), value, np.nan)
    body = s_new[..., 1:]
    if body.shape[-1] == 0:
        gap = np.zeros(s_new.shape[:-1])
    elif im_bound == 0.0:
        gap = np.min(re_bound - np.abs(body.real), axis=-1)
    else:
        gap = np.min(re_bound - np.maximum(np.abs(body.real), np.abs(body.imag)), axis=-1)
    return objective, grad_residual, gap


def iterate_all_steps(pre, c, params):
    """``prox.iterate`` without its stop: all ``params.t_max`` steps of
    ``prox.iterate_once`` from the matched-filter start, each step's
    unscaled iterate ``gamma * q_tilde`` formed as the step returns, then
    the diagnostics of every step in one pass over all the rows. Returns
    the iterates from the start on, stacked along a new leading axis, and
    each step's (objective, gradient residual, boundary gap)."""
    from simojed import prox

    s_all, q_all = [prox.init_s(pre.G, c)], []
    for _ in range(params.t_max):
        s_new, q_tilde = prox.iterate_once(s_all[-1], pre, c, params)
        s_all.append(s_new)
        q_all.append(np.asarray(pre.gamma)[..., None] * q_tilde)
    s_all = np.stack(s_all)
    diagnostics = step_diagnostics(
        s_all[:-1], s_all[1:], np.stack(q_all), pre.G, pre.alpha,
        pre.beta(params.rho), c.re_bound, c.im_bound,
    )
    return s_all, diagnostics


# ---------------------------------------------------------------------------
# Arbitrary-precision integer model of the fixed-point datapath
# ---------------------------------------------------------------------------

def int_wrap(v: int, bits: int) -> int:
    half = 1 << (bits - 1)
    return ((v + half) % (1 << bits)) - half


def int_sat(v: int, bits: int) -> int:
    half = 1 << (bits - 1)
    return max(-half, min(half - 1, v))


def int_quantize(x: float, word_bits: int, frac_bits: int) -> int:
    """Scale, truncate toward negative infinity, saturate."""
    import math

    return int_sat(math.floor(x * (1 << frac_bits)), word_bits)


def int_mac(acc_re, acc_im, g_re, g_im, s_re, s_im):
    """One complex multiply-accumulate on raw integers.

    Products are exact; each partial drops 3 fraction LSBs (floor shift),
    the cross-term add/sub wraps at 15 bits, the accumulation saturates at
    15 bits.
    """
    prr = (g_re * s_re) >> 3
    pii = (g_im * s_im) >> 3
    pri = (g_re * s_im) >> 3
    pir = (g_im * s_re) >> 3
    cross_re = int_wrap(prr - pii, 15)
    cross_im = int_wrap(pri + pir, 15)
    return int_sat(acc_re + cross_re, 15), int_sat(acc_im + cross_im, 15)


def int_projection(qbar: int, rho_log2: int, inv_rho: int) -> int:
    """Raw 15-bit MAC output -> raw 6-bit hull-clipped iterate."""
    hi = int_sat(qbar - inv_rho, 15)
    lo = int_sat(qbar + inv_rho, 15)
    if hi >= 0:
        return 8
    if lo < 0:
        return -8
    shifted = int_sat(qbar << rho_log2, 15)
    return shifted >> 8



def int_iteration(s_q, G_q, N, rho_log2, real_only, s_check_q):
    """One datapath iteration on raw integers, one row and one cycle at a
    time: row k (k >= 1) runs ``int_mac`` over columns k, k+1, ..., wrapping
    around, then ``int_projection`` on each component; row 0 passes the
    reference symbol. Real-only iterates drop the imaginary parts."""
    inv = int_quantize(1.0 / (1 << rho_log2), 12, 11)
    out_re, out_im = [s_check_q[0]], [s_check_q[1]]
    for k in range(1, N):
        acc = (0, 0)
        for j in range(N):
            col = (k + j) % N
            s_im = 0 if real_only else int(s_q[1][col])
            acc = int_mac(*acc, int(G_q[0][k, col]), int(G_q[1][k, col]), int(s_q[0][col]), s_im)
        out_re.append(int_projection(acc[0], rho_log2, inv))
        out_im.append(0 if real_only else int_projection(acc[1], rho_log2, inv))
    return out_re, out_im

# ---------------------------------------------------------------------------
# Downlink evaluation of one trial, one symbol at a time
# ---------------------------------------------------------------------------

def downlink_ser_scalar(h, h_hat, points, sigma, n0, ref_noise, data, noise):
    """Beamformed downlink error rate of one trial from its randoms: the
    reference noise (real, imaginary), the data indices, and the data
    noise's real parts followed by its imaginary parts. Slicing picks the
    nearest point, ties to the lowest index."""
    w = np.conj(h_hat) / np.linalg.norm(h_hat)
    g = sum(h[b] * w[b] for b in range(len(h)))
    scale = np.sqrt(n0 / 2.0)
    z_ref = g * points[0] + scale * (ref_noise[0] + 1j * ref_noise[1])
    g_hat = z_ref * np.conj(points[0]) / sigma**2
    if g_hat == 0:
        return 1.0
    n_symbols = len(data)
    noise_re, noise_im = noise[:n_symbols], noise[n_symbols:]
    errors = 0
    for i in range(n_symbols):
        z = (g * points[data[i]] + scale * (noise_re[i] + 1j * noise_im[i])) / g_hat
        nearest = min(range(len(points)), key=lambda p: abs(z - points[p]))
        errors += nearest != data[i]
    return errors / n_symbols


def downlink_ser_formula(h, h_hat, points, sigma, n0, ref_noise, data, noise):
    """The whole-array form of the downlink error rate that gathers the
    sent points and compares complex decisions with them: one rate per
    trial of the draws' trial axis, estimates stacked on leading axes,
    ``n0`` a scalar or one value per trial. Slicing is by sign, a zero part
    counting as positive."""
    n0 = np.asarray(n0, dtype=np.float64)
    h_hat = np.asarray(h_hat, dtype=complex)
    norm = np.linalg.norm(h_hat, axis=-1)
    w = np.conj(h_hat) / norm[..., None]
    g = np.sum(np.asarray(h, dtype=complex) * w, axis=-1)
    scale = np.sqrt(n0 / 2.0)
    z_ref = g * points[0] + scale * (ref_noise[..., 0] + 1j * ref_noise[..., 1])
    g_hat = z_ref * np.conj(points[0]) / sigma**2
    lost = g_hat == 0.0
    n = data.shape[-1]
    sent = points[data]
    z = g[..., None] * sent + scale[..., None] * (noise[..., :n] + 1j * noise[..., n:])
    z = z / np.where(lost, 1.0, g_hat)[..., None]
    west = (z.real < 0).astype(np.intp)
    if len(points) == 2:
        decisions = points[west]
    else:
        decisions = points[np.array([[0, 1], [3, 2]])[(z.imag < 0).astype(np.intp), west]]
    return np.where(lost, 1.0, np.mean(decisions != sent, axis=-1))[()]


# ---------------------------------------------------------------------------
# Exhaustive maximum-likelihood joint detection of one block
# ---------------------------------------------------------------------------

def ml_jed_bruteforce(Y, points, s_check):
    """Symbol vector maximizing |Y x|^2 over every x with first slot
    ``s_check`` and the other slots from ``points``, enumerated by
    ``itertools.product`` (lexicographic in the given point order) and
    scored with scalar loops; the first maximum wins."""
    rows = np.asarray(Y, dtype=np.complex128).tolist()
    best_score, best = None, None
    for tail in itertools.product(list(points), repeat=len(rows[0]) - 1):
        x = (complex(s_check),) + tuple(complex(p) for p in tail)
        score = 0.0
        for row in rows:
            acc = 0j
            for y, xk in zip(row, x):
                acc += y * xk
            score += acc.real * acc.real + acc.imag * acc.imag
        if best_score is None or score > best_score:
            best_score, best = score, x
    return np.array(best)


# ---------------------------------------------------------------------------
# The gain grid search, one setting at a time
# ---------------------------------------------------------------------------

def tune_rho_loop(B, K, constellation, snr_db, trials, seed, approx=False, t_max=5):
    """``tuning.tune_rho``'s search as a loop over the grid: the tuner's
    blocks, one preprocessing per ``alpha_scale`` and one detection pass per
    (``alpha_scale``, ``rho_log2``). Returns the best
    (rho_log2, alpha_scale, ser), ties broken as the tuner breaks them."""
    from simojed import linalg, model, prox, tuning

    c = model.Constellation(constellation)
    Y, G, s, *_ = model.draw_blocks(B, K, c, seed, [((t,), snr_db, 1) for t in range(trials)])
    norm = linalg.spectral_norm(G)
    candidates = []
    for alpha_scale in tuning.ALPHA_SCALE_GRID:
        pre = prox.preprocess(G, alpha_scale * norm, approx)
        for rho_log2 in tuning.RHO_LOG2_GRID:
            params = prox.ProxParams(alpha_scale=alpha_scale, rho_log2=rho_log2, t_max=t_max)
            s_hat = prox.solve_stack(pre, c, params)
            ser = int(np.sum(s_hat[:, 1:] != s[:, 1:])) / (trials * K)
            candidates.append((ser, rho_log2, alpha_scale))
    ser, rho_log2, alpha_scale = min(candidates)
    return rho_log2, alpha_scale, ser
