"""Randomized verification suites for the solver's convergence guarantees
and the series-truncation error bound.

Three suites:

* descent: on exact-inverse instances (the ``prox`` variant) with a valid
  reconstructed norm-promotion weight, the relaxed objective is
  non-increasing along the trajectory and the gradient residual drops
  below 1e-6 * alpha * sqrt(K+1) within the iteration budget. Instances
  whose reconstructed weight is not in (0, alpha) are flagged and
  skipped, never failed.
* boundary: every converged nonzero iterate has at least one entry on the
  hull boundary (checked on the non-pilot entries, which is the stronger
  form); the per-entry boundary fraction is reported as information.
* series bound: the measured spectral gap between the exact shifted inverse
  and its two-term series never exceeds the analytic bound.

A gradient-identity suite checks that the analytic gradient at a fresh
exact-inverse iterate equals alpha times the iterate difference.

Each suite draws its instances' shapes one by one from a seeded generator,
then their blocks with one ``draw_blocks`` call per shape, each block a
one-trial chunk keyed by its instance index. It solves them as stacks, one
per matrix size (and constellation), and reports in draw order: each
checked instance goes through ``SuiteReport.tally``. Every suite rejects a
seed that is not a non-negative integer, and a count below one, at entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .linalg import gram, invert_shifted, neumann_error_bound, neumann_two_term, spectral_norm
from .model import Constellation, check_seed, draw_blocks
from .prox import PreprocessedMatrix, ProxParams, hull_gaps, init_s, iterate, preprocess

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
    def suites(self) -> tuple[SuiteReport, ...]:
        return (self.descent, self.boundary, self.series_bound, self.gradient_identity)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def lines(self) -> list[str]:
        return [s.line() for s in self.suites]


def _check_args(seed, n: int, what: str) -> int:
    """A suite's ``seed`` as an int; a ``ParameterError`` unless the count
    ``n`` of ``what`` is at least 1 and the seed a non-negative integer."""
    if n < 1:
        raise ParameterError(f"{what} must be at least 1, got {n}")
    return check_seed(seed, "the seed")


def _draw_instances(rng: np.random.Generator, seed: int, indices: range) -> list:
    """Instances ``indices`` of a suite at 0 dB, as ``(G, c, B, K, kind)``:
    every shape comes from the suite's ``rng``, instance after instance;
    then the Gram matrices of each shape come from one ``draw_blocks`` call,
    instance ``i`` the one-trial chunk keyed by ``(i,)``."""
    shapes = [
        (int(rng.choice([4, 16])), int(rng.choice([4, 16])), str(rng.choice(["bpsk", "qpsk"])))
        for _ in indices
    ]
    groups: dict[tuple[int, int, str], list[int]] = {}
    for pos, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(pos)
    instances = [None] * len(shapes)
    for (B, K, kind), positions in groups.items():
        c = Constellation.by_name(kind)
        G = draw_blocks(B, K, c, seed, [((indices[p],), 0.0, 1) for p in positions]).G
        for p, g in zip(positions, G):
            instances[p] = (g, c, B, K, kind)
    return instances


def _stacks(instances: list) -> dict[tuple[int, str], list[int]]:
    """Positions of ``instances`` grouped by (K, constellation): the
    solver sees only the Gram matrix, so B does not split a stack."""
    groups: dict[tuple[int, str], list[int]] = {}
    for i, (_, _, _, K, kind) in enumerate(instances):
        groups.setdefault((K, kind), []).append(i)
    return groups


def _descent_rows(pre: PreprocessedMatrix, c: Constellation, K: int, params: ProxParams):
    """Run ``params.t_max`` traced iterations on a stack of valid instances
    and return, per instance, its worst descent margin, whether the
    objective never increased, the final residual and its threshold,
    whether it converged to a nonzero iterate, its final boundary gap and
    its per-entry boundary fraction."""
    state = iterate(pre, c, params)
    objs = state.trace.objective  # (t_max, T)
    prev, nxt = objs[:-1], objs[1:]
    slack = _DESCENT_SLACK * np.maximum(1.0, np.abs(prev))
    margins = np.min(prev + slack - nxt, axis=0, initial=np.inf)
    descends = ~np.any(nxt > prev + slack, axis=0)
    resid = state.trace.grad_residual[-1]
    threshold = RESIDUAL_FACTOR * pre.alpha * np.sqrt(K + 1)
    s = state.s_cur
    converged = (resid < CONVERGED_RESIDUAL) & (np.linalg.norm(s, axis=-1) > 0)
    fraction = np.mean(hull_gaps(s, c) <= BOUNDARY_TOL, axis=-1)
    return zip(margins, descends, resid, threshold, converged, state.trace.boundary_gap[-1], fraction)


def run_descent_and_boundary(
    seed: int, n_instances: int, t_max: int = 100, max_attempts_factor: int = 4
) -> tuple[SuiteReport, SuiteReport]:
    """Descent and boundary suites over shared random instances.

    Draws instances until ``n_instances`` of them have a valid reconstructed
    weight (others are counted as skipped), then checks monotonicity,
    residual convergence, and the boundary property per instance. Running
    out of attempts first is a descent failure.
    """
    seed = _check_args(seed, n_instances, "n_instances")
    rng = np.random.default_rng(seed)
    descent = SuiteReport(name="descent")
    boundary = SuiteReport(name="boundary")
    params = ProxParams(alpha_scale=2.0, rho_log2=1, t_max=t_max)
    max_attempts = max_attempts_factor * n_instances
    rows = []  # (attempt, label, *checks) per valid instance
    attempts = 0
    while len(rows) < n_instances and attempts < max_attempts:
        # A batch of as many attempts as instances are missing cannot
        # overshoot: it ends where one-at-a-time drawing would stop.
        first = attempts + 1
        attempts = min(attempts + n_instances - len(rows), max_attempts)
        batch = _draw_instances(rng, seed, range(first, attempts + 1))
        for (K, kind), idx in _stacks(batch).items():
            pre = preprocess(np.stack([batch[i][0] for i in idx]), params)
            beta = pre.beta(params.rho)
            valid = (0.0 < beta) & (beta < pre.alpha)
            descent.skipped += int(np.sum(~valid))
            if not np.any(valid):
                continue
            kept = PreprocessedMatrix(pre.Ghat[valid], pre.gamma[valid], pre.alpha[valid], pre.G[valid])
            labels = [
                (first + i, f"B={batch[i][2]},K={K},{kind},attempt={first + i}")
                for i, ok in zip(idx, valid)
                if ok
            ]
            c = batch[idx[0]][1]
            rows += [(*lab, *checks) for lab, checks in zip(labels, _descent_rows(kept, c, K, params))]

    fractions = []
    for _, label, margin, descends, resid, threshold, converged, gap, fraction in sorted(rows):
        failure = None
        if not resid <= threshold:
            failure = f"{label}: residual {resid:.3g} > {threshold:.3g}"
        elif not descends:
            failure = f"{label}: objective increased"
        descent.tally(margin, failure)

        # Boundary check on instances that actually converged.
        if not converged:
            boundary.skipped += 1
            continue
        fractions.append(fraction)
        failure = None if gap <= BOUNDARY_TOL else f"{label}: boundary gap {gap:.3g}"
        boundary.tally(BOUNDARY_TOL - gap, failure)
    if descent.instances < n_instances:
        descent.failed += 1
        descent.failures.append(
            f"only {descent.instances} of {n_instances} instances had a valid weight "
            f"in {attempts} attempts"
        )
    if fractions:
        boundary.notes["mean_boundary_fraction"] = float(np.mean(fractions))
    return descent, boundary


def run_series_bound(seed: int, n_matrices: int = 50) -> SuiteReport:
    """Measured truncation error against the analytic bound, across sizes
    and shift factors; the matrices of one size are checked as one stack
    over every (shift factor, matrix) pair."""
    seed = _check_args(seed, n_matrices, "n_matrices")
    rng = np.random.default_rng(seed)
    report = SuiteReport(name="series_bound")
    scales = (1.1, 1.5, 2.0, 4.0)
    by_size: dict[int, list] = {}
    for i in range(n_matrices):
        n = int(rng.choice([5, 9, 17]))
        A = rng.standard_normal((n + 2, n)) + 1j * rng.standard_normal((n + 2, n))
        by_size.setdefault(n, []).append((i, A))
    rows = []  # (matrix, scale index, n, gap, bound)
    for n, items in by_size.items():
        G = gram(np.stack([A for _, A in items]))
        alpha = np.multiply.outer(scales, spectral_norm(G))  # (scale, matrix)
        G = np.broadcast_to(G, alpha.shape + G.shape[-2:])
        gap = np.linalg.norm(
            invert_shifted(G, alpha) - neumann_two_term(G, alpha), ord=2, axis=(-2, -1)
        )
        bound = neumann_error_bound(G, alpha)
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
    seed = _check_args(seed, n_instances, "n_instances")
    rng = np.random.default_rng(seed)
    report = SuiteReport(name="gradient_identity")
    params = ProxParams(alpha_scale=2.0, rho_log2=1, t_max=1)
    instances = _draw_instances(rng, seed, range(n_instances))
    rows = []  # (instance, err, denom)
    for (K, kind), idx in _stacks(instances).items():
        c = instances[idx[0]][1]
        G = np.stack([instances[i][0] for i in idx])
        pre = preprocess(G, params)
        s_prev = init_s(G, c)
        state = iterate(pre, c, params, record_trace=False)
        q, s_new = state.q_cur, state.s_cur
        alpha = pre.alpha[:, None]
        lhs = -(G @ q[..., None])[..., 0] + alpha * (q - s_new)
        rhs = alpha * (s_prev - s_new)
        denom = np.maximum(np.linalg.norm(lhs, axis=-1), np.linalg.norm(rhs, axis=-1))
        err = np.linalg.norm(lhs - rhs, axis=-1)
        rows += list(zip(idx, err, denom))

    for i, err, denom in sorted(rows):
        _, _, B, K, kind = instances[i]
        failure = None
        if not err <= GRAD_IDENTITY_RTOL * denom:
            failure = f"instance {i} (B={B},K={K},{kind}): {err} vs {denom}"
        report.tally(GRAD_IDENTITY_RTOL * denom - err, failure)
    return report


def verify_theorems(seed: int, n_instances: int = 100) -> VerificationReport:
    """Run every suite; any failed assertion shows up in the report. Each
    suite checks its own arguments: fewer than one instance, or a seed that
    is not a non-negative integer, is a ``ParameterError``."""
    descent, boundary = run_descent_and_boundary(seed, n_instances)
    series = run_series_bound(seed + 1)
    grad = run_gradient_identity(seed + 2, n_instances)
    return VerificationReport(
        descent=descent, boundary=boundary, series_bound=series, gradient_identity=grad
    )
