"""Randomized verification suites for the solver's convergence guarantees
and the series-truncation error bound.

Three suites:

* descent: on exact-mode instances with a valid reconstructed norm-promotion
  weight, the relaxed objective is non-increasing along the trajectory and
  the gradient residual drops below 1e-6 * alpha * sqrt(K+1) within the
  iteration budget. Instances whose reconstructed weight is not in (0,
  alpha) are flagged and skipped, never failed.
* boundary: every converged nonzero iterate has at least one entry on the
  hull boundary (checked on the non-pilot entries, which is the stronger
  form); the per-entry boundary fraction is reported as information.
* series bound: the measured spectral gap between the exact shifted inverse
  and its two-term series never exceeds the analytic bound.

A gradient-identity suite checks that the analytic gradient at a fresh
exact-mode iterate equals alpha times the iterate difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import gram, invert_shifted, neumann_error_bound, neumann_two_term, spectral_norm
from .model import Constellation, draw_block
from .prox import ProxParams, SolverState, init_s, iterate_once, preprocess, solve

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
    skipped: int = 0
    worst_margin: float = float("inf")
    notes: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (
            f"{self.name}: {status} ({self.passed} passed, {self.failed} failed, "
            f"{self.skipped} skipped; worst margin {self.worst_margin:.3g})"
        )


@dataclass
class VerificationReport:
    descent: SuiteReport
    boundary: SuiteReport
    series_bound: SuiteReport
    gradient_identity: SuiteReport

    @property
    def ok(self) -> bool:
        return all(
            s.ok for s in (self.descent, self.boundary, self.series_bound, self.gradient_identity)
        )

    def lines(self) -> list[str]:
        return [
            s.line()
            for s in (self.descent, self.boundary, self.series_bound, self.gradient_identity)
        ]


def _draw_instance(rng: np.random.Generator, seed: int, index: int):
    """Instance ``index`` of a suite at 0 dB: its shape comes from the
    suite's ``rng``, its block from ``draw_block`` keyed by ``(index,)``."""
    B = int(rng.choice([4, 16]))
    K = int(rng.choice([4, 16]))
    kind = str(rng.choice(["bpsk", "qpsk"]))
    c = Constellation.by_name(kind)
    block, _ = draw_block(B, K, c, 0.0, seed, (index,))
    return block, c, B, K, kind


def run_descent_and_boundary(
    seed: int, n_instances: int, t_max: int = 100, max_attempts_factor: int = 4
) -> tuple[SuiteReport, SuiteReport]:
    """Descent and boundary suites over shared random instances.

    Draws instances until ``n_instances`` of them have a valid reconstructed
    weight (others are counted as skipped), then checks monotonicity,
    residual convergence, and the boundary property per instance.
    """
    rng = np.random.default_rng(seed)
    descent = SuiteReport(name="descent")
    boundary = SuiteReport(name="boundary")
    params = ProxParams(alpha_scale=2.0, rho_log2=1, t_max=t_max, mode="exact")
    fractions = []
    attempts = 0
    while descent.instances < n_instances and attempts < max_attempts_factor * n_instances:
        attempts += 1
        block, c, B, K, kind = _draw_instance(rng, seed, attempts)
        pre = preprocess(block.G, params)
        beta = pre.beta(params.rho)
        if not (0.0 < beta < pre.alpha):
            descent.skipped += 1
            continue
        descent.instances += 1
        label = f"B={B},K={K},{kind},attempt={attempts}"
        res = solve(block, c, params)
        objs = [r.objective for r in res.state.trace]
        resids = [r.grad_residual for r in res.state.trace]

        ok = True
        for a, b in zip(objs[1:], objs[:-1]):
            slack = _DESCENT_SLACK * max(1.0, abs(b))
            descent.worst_margin = min(descent.worst_margin, b + slack - a)
            if a > b + slack:
                ok = False
        threshold = RESIDUAL_FACTOR * pre.alpha * np.sqrt(K + 1)
        if resids[-1] > threshold:
            ok = False
            descent.failures.append(f"{label}: residual {resids[-1]:.3g} > {threshold:.3g}")
        if ok:
            descent.passed += 1
        else:
            descent.failed += 1
            if label not in "".join(descent.failures):
                descent.failures.append(f"{label}: objective increased")

        # Boundary check on instances that actually converged.
        if resids[-1] < CONVERGED_RESIDUAL and np.linalg.norm(res.state.s_cur) > 0:
            boundary.instances += 1
            gap = res.state.trace[-1].boundary_gap
            boundary.worst_margin = min(boundary.worst_margin, BOUNDARY_TOL - gap)
            s = res.state.s_cur
            if c.im_bound == 0.0:
                per_entry = c.re_bound - np.abs(s.real)
            else:
                per_entry = c.re_bound - np.maximum(np.abs(s.real), np.abs(s.imag))
            fractions.append(float(np.mean(per_entry <= BOUNDARY_TOL)))
            if gap <= BOUNDARY_TOL:
                boundary.passed += 1
            else:
                boundary.failed += 1
                boundary.failures.append(f"{label}: boundary gap {gap:.3g}")
        else:
            boundary.skipped += 1
    if fractions:
        boundary.notes["mean_boundary_fraction"] = float(np.mean(fractions))
    return descent, boundary


def run_series_bound(seed: int, n_matrices: int = 50) -> SuiteReport:
    """Measured truncation error against the analytic bound, across sizes
    and shift factors."""
    rng = np.random.default_rng(seed)
    report = SuiteReport(name="series_bound")
    scales = (1.1, 1.5, 2.0, 4.0)
    for i in range(n_matrices):
        n = int(rng.choice([5, 9, 17]))
        A = rng.standard_normal((n + 2, n)) + 1j * rng.standard_normal((n + 2, n))
        G = gram(A)
        norm = spectral_norm(G)
        for scale in scales:
            alpha = scale * norm
            report.instances += 1
            gap = float(
                np.linalg.norm(invert_shifted(G, alpha) - neumann_two_term(G, alpha), ord=2)
            )
            bound = neumann_error_bound(G, alpha)
            tol = _BOUND_SLACK * bound
            report.worst_margin = min(report.worst_margin, bound + tol - gap)
            if gap <= bound + tol:
                report.passed += 1
            else:
                report.failed += 1
                report.failures.append(f"matrix {i} (n={n}), scale {scale}: {gap} > {bound}")
    return report


def run_gradient_identity(seed: int, n_instances: int = 100) -> SuiteReport:
    """Analytic gradient at a fresh exact-mode iterate vs the scaled iterate
    difference, on first iterations where the step is order one."""
    rng = np.random.default_rng(seed)
    report = SuiteReport(name="gradient_identity")
    params = ProxParams(alpha_scale=2.0, rho_log2=1, t_max=1, mode="exact")
    for i in range(n_instances):
        block, c, B, K, kind = _draw_instance(rng, seed, i)
        pre = preprocess(block.G, params)
        s_prev = init_s(block.G, c.points[0])
        state = SolverState(s_cur=s_prev.copy(), q_cur=None)
        state = iterate_once(state, pre, c, params, c.points[0])
        q = state.q_cur
        lhs = -block.G @ q + pre.alpha * (q - state.s_cur)
        rhs = pre.alpha * (s_prev - state.s_cur)
        report.instances += 1
        denom = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
        err = float(np.linalg.norm(lhs - rhs))
        report.worst_margin = min(report.worst_margin, GRAD_IDENTITY_RTOL * denom - err)
        if err <= GRAD_IDENTITY_RTOL * denom:
            report.passed += 1
        else:
            report.failed += 1
            report.failures.append(f"instance {i} (B={B},K={K},{kind}): {err} vs {denom}")
    return report


def verify_theorems(seed: int, n_instances: int = 100) -> VerificationReport:
    """Run every suite; any failed assertion shows up in the report."""
    descent, boundary = run_descent_and_boundary(seed, n_instances)
    series = run_series_bound(seed + 1)
    grad = run_gradient_identity(seed + 2, n_instances)
    return VerificationReport(
        descent=descent, boundary=boundary, series_bound=series, gradient_identity=grad
    )
