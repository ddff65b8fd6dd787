"""Randomized verification suites for the solver's convergence guarantees
and the series-truncation error bound.

Three suites:

* descent: on exact-inverse instances (the ``prox`` variant) the
  reconstructed norm-promotion weight is in (0, alpha), the relaxed
  objective is non-increasing along the trajectory and the gradient
  residual drops below 1e-6 * alpha * sqrt(K+1) within the iteration
  budget. An instance whose weight is outside (0, alpha) fails.
* boundary: every converged iterate has at least one entry on the hull
  boundary (checked on the non-pilot entries, which is the stronger
  form); the per-entry boundary fraction is reported as information.
* series bound: the measured spectral gap between the exact shifted inverse
  and its two-term series never exceeds the analytic bound. Their
  difference is PSD, so the gap is its largest eigenvalue.

A gradient-identity suite checks that the analytic gradient at a fresh
exact-inverse iterate equals alpha times the iterate difference.

Each suite draws its instances' shapes in one call of a seeded generator,
then their blocks with one ``draw_blocks`` call per shape, each block a
one-trial chunk keyed by its instance index. It preprocesses one stack per
matrix size and solves it per constellation (a matrix's norm, inverse and
gamma do not depend on the rest of its stack), and reports in draw order: each
checked instance goes through ``SuiteReport.tally``, and its line reads
``name: pass (P passed, F failed; worst margin M)``. Every suite checks
its count (at least 1) and seed through ``model.check_int`` at entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import gram, invert_shifted, neumann_error_bound, neumann_two_term, spectral_norm
from .model import Constellation, check_int, draw_blocks
from .prox import (
    PreprocessedMatrix,
    ProxParams,
    hull_gaps,
    init_s,
    iterate,
    iterate_once,
    preprocess,
)

# Float slack for the non-increase check: a true descent violation is O(1),
# rounding noise is ~1e-13 at these problem scales.
_DESCENT_SLACK = 1e-9

RESIDUAL_FACTOR = 1e-6
BOUNDARY_TOL = 1e-6
CONVERGED_RESIDUAL = 1e-8
GRAD_IDENTITY_RTOL = 1e-10

# The truncation bound is exactly tight for PSD matrices (the tail attains
# it at the dominant eigenvalue), so the measured-vs-bound comparison needs
# rounding slack; a genuine violation would be O(bound), not O(1e-15).
_BOUND_SLACK = 1e-9


@dataclass
class SuiteReport:
    name: str
    instances: int = 0
    passed: int = 0
    failed: int = 0
    worst_margin: float = float("inf")
    notes: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def tally(self, margin: float, failure: str | None) -> None:
        """Count one checked instance: fold its ``margin`` into the worst
        one, and count it passed, or failed with the message ``failure``."""
        self.instances += 1
        self.worst_margin = min(self.worst_margin, margin)
        if failure is None:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(failure)

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (
            f"{self.name}: {status} ({self.passed} passed, {self.failed} failed; "
            f"worst margin {self.worst_margin:.3g})"
        )


@dataclass
class VerificationReport:
    descent: SuiteReport
    boundary: SuiteReport
    series_bound: SuiteReport
    gradient_identity: SuiteReport

    @property
    def suites(self) -> tuple[SuiteReport, ...]:
        return (self.descent, self.boundary, self.series_bound, self.gradient_identity)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def lines(self) -> list[str]:
        return [s.line() for s in self.suites]


def _draw_stacks(rng: np.random.Generator, seed: int, indices: range) -> list:
    """Instances ``indices`` of a suite at 0 dB, as one ``(c, K, index, B,
    G)`` stack per (K, constellation), in order of first appearance: the
    solver sees only the Gram matrix, so B does not split a stack. Every
    shape comes from one draw of the suite's ``rng``, a row of three 0-or-1
    choices per instance (B and K of 4 or 16, BPSK or QPSK), the values
    that three ``rng.choice`` calls per instance give; then the Gram
    matrices of each (B, K, constellation) come from one ``draw_blocks``
    call, instance ``i`` the one-trial chunk keyed by ``(i,)``. ``index``
    holds each row's instance, rising, and ``B`` its antenna count."""
    B_all, K_all, qpsk = rng.integers(0, 2, size=(len(indices), 3)).T
    B_all, K_all = 4 + 12 * B_all, 4 + 12 * K_all
    stacks = []
    for K, q in dict.fromkeys(zip(K_all.tolist(), qpsk.tolist())):
        rows = (K_all == K) & (qpsk == q)
        index, B = np.array(indices)[rows], B_all[rows]
        c = Constellation(("bpsk", "qpsk")[q])
        G = np.empty((len(index), K + 1, K + 1), dtype=np.complex128)
        for b in dict.fromkeys(B.tolist()):
            chunks = [((i,), 0.0, 1) for i in index[B == b].tolist()]
            G[B == b] = draw_blocks(b, K, c, seed, chunks).G
        stacks.append((c, K, index, B, G))
    return stacks


def _preprocessed_stacks(stacks: list, alpha_scale: float):
    """``_draw_stacks``'s ``(c, K, index, B, G)`` stacks as ``(c, K, index,
    B, pre)``: the stacks of one K are preprocessed as one, at
    ``alpha_scale`` times each matrix's spectral norm, and each gets its
    contiguous slice of the result."""
    by_size: dict[int, list] = {}
    for stack in stacks:
        by_size.setdefault(stack[1], []).append(stack)
    for group in by_size.values():
        G = np.concatenate([G for *_, G in group])
        pre = preprocess(G, alpha_scale * spectral_norm(G))
        stop = 0
        for c, K, index, B, _ in group:
            part = slice(stop, stop := stop + len(index))
            yield c, K, index, B, PreprocessedMatrix(
                pre.Ghat[part], pre.gamma[part], pre.alpha[part], pre.G[part]
            )


def _descent_rows(pre: PreprocessedMatrix, c: Constellation, K: int, params: ProxParams):
    """Run ``params.t_max`` traced iterations on a stack of instances and
    return, per instance, whether its weight is valid (its objectives are
    not NaN), its worst descent margin (-inf for an invalid weight), whether
    the objective never increased, the final residual and its threshold,
    whether it converged, its final boundary gap and its per-entry boundary
    fraction."""
    state = iterate(pre, c, params)
    objs = state.trace.objective  # (t_max, T)
    valid = ~np.isnan(objs[0])
    prev, nxt = objs[:-1], objs[1:]
    slack = _DESCENT_SLACK * np.maximum(1.0, np.abs(prev))
    margins = np.where(valid, np.min(prev + slack - nxt, axis=0, initial=np.inf), -np.inf)
    descends = ~np.any(nxt > prev + slack, axis=0)
    resid = state.trace.grad_residual[-1]
    threshold = RESIDUAL_FACTOR * pre.alpha * np.sqrt(K + 1)
    converged = resid < CONVERGED_RESIDUAL
    fraction = np.mean(hull_gaps(state.s_cur, c) <= BOUNDARY_TOL, axis=-1)
    gap = state.trace.boundary_gap[-1]
    return zip(valid, margins, descends, resid, threshold, converged, gap, fraction)


def run_descent_and_boundary(
    seed: int, n_instances: int, t_max: int = 100
) -> tuple[SuiteReport, SuiteReport]:
    """Descent and boundary suites over instances 1..``n_instances``.

    Checks the weight, monotonicity and residual convergence of every
    instance, and the boundary property of each one that converged: the
    boundary suite's ``instances`` are the converged ones, so
    ``descent.instances - boundary.instances`` did not converge. The pinned
    gains keep every weight valid: with alpha twice the largest eigenvalue
    of G, (I - G/alpha)^-1 has its spectrum in [1, 2], so its largest
    component gamma lies in [1, 2] and beta = alpha * (1 - gamma/2) in
    [0, alpha/2], zero only when a unit vector is a top eigenvector of G.
    """
    n_instances = check_int(n_instances, "n_instances", 1)
    seed = check_int(seed, "the seed")
    rng = np.random.default_rng(seed)
    descent = SuiteReport(name="descent")
    boundary = SuiteReport(name="boundary")
    params = ProxParams(alpha_scale=2.0, rho_log2=1, t_max=t_max)
    rows = []  # (instance, label, *checks)
    stacks = _draw_stacks(rng, seed, range(1, n_instances + 1))
    for c, K, index, B, pre in _preprocessed_stacks(stacks, params.alpha_scale):
        checks = _descent_rows(pre, c, K, params)
        rows += [(i, f"B={b},K={K},{c.kind},attempt={i}", *r) for i, b, r in zip(index, B, checks)]

    fractions = []
    for _, label, valid, margin, descends, resid, threshold, converged, gap, frac in sorted(rows):
        failure = None
        if not valid:
            failure = f"{label}: weight outside (0, alpha)"
        elif not resid <= threshold:
            failure = f"{label}: residual {resid:.3g} > {threshold:.3g}"
        elif not descends:
            failure = f"{label}: objective increased"
        descent.tally(margin, failure)

        if converged:
            fractions.append(frac)
            failure = None if gap <= BOUNDARY_TOL else f"{label}: boundary gap {gap:.3g}"
            boundary.tally(BOUNDARY_TOL - gap, failure)
    if fractions:
        boundary.notes["mean_boundary_fraction"] = float(np.mean(fractions))
    return descent, boundary


def run_series_bound(seed: int, n_matrices: int = 50) -> SuiteReport:
    """Measured truncation error against the analytic bound, across sizes
    and shift factors; the matrices of one size are checked as one stack
    over every (shift factor, matrix) pair. The error, the inverse less
    its two-term series, is PSD, so its spectral norm is its largest
    eigenvalue."""
    n_matrices = check_int(n_matrices, "n_matrices", 1)
    rng = np.random.default_rng(check_int(seed, "the seed"))
    report = SuiteReport(name="series_bound")
    scales = (1.1, 1.5, 2.0, 4.0)
    by_size: dict[int, list] = {}
    for i in range(n_matrices):
        n = (5, 9, 17)[rng.integers(3)]  # the value and state of rng.choice
        A = rng.standard_normal((n + 2, n)) + 1j * rng.standard_normal((n + 2, n))
        by_size.setdefault(n, []).append((i, A))
    rows = []  # (matrix, scale index, n, gap, bound)
    for n, items in by_size.items():
        G = gram(np.stack([A for _, A in items]))
        norm = spectral_norm(G)
        alpha = np.multiply.outer(scales, norm)  # (scale, matrix)
        G = np.broadcast_to(G, alpha.shape + G.shape[-2:])
        gap = np.linalg.eigvalsh(invert_shifted(G, alpha) - neumann_two_term(G, alpha))[..., -1]
        bound = neumann_error_bound(np.broadcast_to(norm, alpha.shape), alpha)
        rows += [
            (i, j, n, g, b)
            for j in range(len(scales))
            for (i, _), g, b in zip(items, gap[j], bound[j])
        ]

    for i, j, n, gap, bound in sorted(rows):
        tol = _BOUND_SLACK * bound
        failure = None
        if not gap <= bound + tol:
            failure = f"matrix {i} (n={n}), scale {scales[j]}: {gap} > {bound}"
        report.tally(bound + tol - gap, failure)
    return report


def run_gradient_identity(seed: int, n_instances: int = 100) -> SuiteReport:
    """Analytic gradient at a fresh exact-inverse iterate vs the scaled iterate
    difference, on first iterations where the step is order one."""
    n_instances = check_int(n_instances, "n_instances", 1)
    seed = check_int(seed, "the seed")
    rng = np.random.default_rng(seed)
    report = SuiteReport(name="gradient_identity")
    params = ProxParams(alpha_scale=2.0, rho_log2=1)
    rows = []  # (instance, err, denom, shape)
    stacks = _draw_stacks(rng, seed, range(n_instances))
    for c, K, index, B, pre in _preprocessed_stacks(stacks, params.alpha_scale):
        G = pre.G
        s_prev = init_s(G, c)
        s_new, q_tilde = iterate_once(s_prev, pre, c, params)
        q = pre.gamma[:, None] * q_tilde
        alpha = pre.alpha[:, None]
        lhs = -(G @ q[..., None])[..., 0] + alpha * (q - s_new)
        rhs = alpha * (s_prev - s_new)
        denom = np.maximum(np.linalg.norm(lhs, axis=-1), np.linalg.norm(rhs, axis=-1))
        err = np.linalg.norm(lhs - rhs, axis=-1)
        rows += [(i, e, d, f"B={b},K={K},{c.kind}") for i, e, d, b in zip(index, err, denom, B)]

    for i, err, denom, shape in sorted(rows):
        failure = None
        if not err <= GRAD_IDENTITY_RTOL * denom:
            failure = f"instance {i} ({shape}): {err} vs {denom}"
        report.tally(GRAD_IDENTITY_RTOL * denom - err, failure)
    return report


def verify_theorems(seed: int, n_instances: int = 100) -> VerificationReport:
    """Run every suite; any failed assertion shows up in the report. Each
    suite checks its own count and seed through ``model.check_int``."""
    seed = check_int(seed, "the seed")  # seed + 1 and seed + 2 as Python ints
    descent, boundary = run_descent_and_boundary(seed, n_instances)
    series = run_series_bound(seed + 1)
    grad = run_gradient_identity(seed + 2, n_instances)
    return VerificationReport(
        descent=descent, boundary=boundary, series_bound=series, gradient_identity=grad
    )
