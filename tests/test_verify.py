import numpy as np
import pytest

from simojed import verify
from simojed.errors import ParameterError
from simojed.verify import (
    run_descent_and_boundary,
    run_gradient_identity,
    run_series_bound,
    verify_theorems,
)

# Report lines of the one-instance-at-a-time suites, recorded before the
# suites ran on stacks; the stacked suites must print the same.
PINNED_LINES = {
    424242: [
        "descent: pass (100 passed, 0 failed, 0 skipped; worst margin 3.66e-08)",
        "boundary: pass (100 passed, 0 failed, 0 skipped; worst margin 1e-06)",
        "series_bound: pass (200 passed, 0 failed, 0 skipped; worst margin 8.33e-11)",
        "gradient_identity: pass (100 passed, 0 failed, 0 skipped; worst margin 3.14e-09)",
    ],
    1: [
        "descent: pass (100 passed, 0 failed, 0 skipped; worst margin 4.51e-08)",
        "boundary: pass (100 passed, 0 failed, 0 skipped; worst margin 1e-06)",
        "series_bound: pass (200 passed, 0 failed, 0 skipped; worst margin 8.33e-11)",
        "gradient_identity: pass (100 passed, 0 failed, 0 skipped; worst margin 2.72e-09)",
    ],
}


# Full-precision worst margins (descent, boundary, series bound, gradient
# identity) and mean boundary fraction, recorded while each step's
# diagnostics were still computed inside the iteration loop.
PINNED_MARGINS = {
    424242: (
        ["3.65536791946397e-08", "1e-06", "8.333295165030563e-11", "3.137702886859465e-09"],
        "1.0",
    ),
    1: (
        ["4.509248441308955e-08", "1e-06", "8.333304879482029e-11", "2.72161517924882e-09"],
        "1.0",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_LINES))
def test_report_pinned(seed):
    report = verify_theorems(seed, 100)
    assert report.lines() == PINNED_LINES[seed]
    suites = (report.descent, report.boundary, report.series_bound, report.gradient_identity)
    margins, fraction = PINNED_MARGINS[seed]
    assert [repr(float(s.worst_margin)) for s in suites] == margins
    assert list(report.boundary.notes) == ["mean_boundary_fraction"]
    assert repr(report.boundary.notes["mean_boundary_fraction"]) == fraction


@pytest.mark.parametrize(
    "suite",
    [verify_theorems, run_descent_and_boundary, run_gradient_identity, run_series_bound],
)
@pytest.mark.parametrize("count", [0, -3])
def test_counts_below_one_rejected(suite, count):
    with pytest.raises(ParameterError, match="at least 1"):
        suite(1, count)


def test_attempt_budget_shortfall_fails():
    descent, _ = run_descent_and_boundary(1, 10, max_attempts_factor=0)
    assert not descent.ok
    assert descent.failures == ["only 0 of 10 instances had a valid weight in 0 attempts"]
    assert "FAIL" in descent.line()


def test_skipped_attempts_keep_the_instance_set(monkeypatch):
    # Instances whose pilot energy is above a threshold get a weight
    # outside (0, alpha); the suite must draw further batches and stop at
    # the same attempt as drawing one instance at a time.
    threshold = 40.0
    real = verify.preprocess

    def preprocess(G, params):
        pre = real(G, params)
        pre.gamma = np.where(G[..., 0, 0].real > threshold, 10 * pre.gamma, pre.gamma)
        return pre

    monkeypatch.setattr(verify, "preprocess", preprocess)
    seed, n = 3, 6
    rng = np.random.default_rng(seed)
    valid = skipped = attempt = 0
    while valid < n:
        attempt += 1
        G = verify._draw_instance(rng, seed, attempt)[0]
        if G[0, 0].real > threshold:
            skipped += 1
        else:
            valid += 1
    assert skipped > 0
    descent, boundary = run_descent_and_boundary(seed, n, t_max=20)
    assert (descent.instances, descent.skipped) == (n, skipped)
    assert descent.ok and boundary.instances + boundary.skipped == n
