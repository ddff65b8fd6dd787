import re
from collections import Counter

import numpy as np
import pytest

from simojed import verify
from simojed.errors import ParameterError
from simojed.linalg import gram, invert_shifted, neumann_two_term, spectral_norm
from simojed.model import draw_blocks
from simojed.prox import preprocess
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
        "descent: pass (100 passed, 0 failed; worst margin 3.66e-08)",
        "boundary: pass (100 passed, 0 failed; worst margin 1e-06)",
        "series_bound: pass (200 passed, 0 failed; worst margin 8.33e-11)",
        "gradient_identity: pass (100 passed, 0 failed; worst margin 3.14e-09)",
    ],
    1: [
        "descent: pass (100 passed, 0 failed; worst margin 4.51e-08)",
        "boundary: pass (100 passed, 0 failed; worst margin 1e-06)",
        "series_bound: pass (200 passed, 0 failed; worst margin 8.33e-11)",
        "gradient_identity: pass (100 passed, 0 failed; worst margin 2.72e-09)",
    ],
}


# Full-precision worst margins (descent, boundary, series bound, gradient
# identity) and mean boundary fraction. The descent and boundary values
# were recorded while each step's diagnostics were still computed inside
# the iteration loop; the series-bound and gradient-identity values with
# the Gauss-Jordan shifted inverse.
PINNED_MARGINS = {
    424242: (
        ["3.65536791946397e-08", "1e-06", "8.333304879482029e-11", "3.1377045234197573e-09"],
        "1.0",
    ),
    1: (
        ["4.509248441308955e-08", "1e-06", "8.33330626726081e-11", "2.721620939071678e-09"],
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
@pytest.mark.parametrize(
    ("seed", "count", "match"),
    [(1, 0, "at least 1"), (1, -3, "at least 1"), (-1, 1, "the seed must be a non-negative")],
    ids=["0", "-3", "seed=-1"],
)
def test_counts_below_one_rejected(suite, seed, count, match):
    # Every entry point checks its own count and seed.
    with pytest.raises(ParameterError, match=match):
        suite(seed, count)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("indices", [range(1), range(37), range(5, 29)], ids=["1", "37", "5-28"])
def test_shapes_drawn_in_one_call(seed, indices):
    # One integers call gives the shapes that three rng.choice calls per
    # instance gave, and leaves the generator in the same state.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    stacks = verify._draw_stacks(rng, seed, indices)
    shapes = {
        i: (int(ref.choice([4, 16])), int(ref.choice([4, 16])), str(ref.choice(["bpsk", "qpsk"])))
        for i in indices
    }
    assert rng.bit_generator.state == ref.bit_generator.state
    assert [(K, c.kind) for c, K, *_ in stacks] == list(dict.fromkeys(s[1:] for s in shapes.values()))
    got = {}
    for c, K, index, B, G in stacks:
        assert index.tolist() == sorted(index.tolist())
        for i, b, g in zip(index.tolist(), B.tolist(), G):
            got[i] = (b, K, c.kind)
            assert np.array_equal(g, draw_blocks(b, K, c, seed, [((i,), 0.0, 1)]).G[0])
    assert got == shapes


def test_invalid_weight_fails_descent(monkeypatch):
    # Instances whose pilot energy is above a threshold get a weight
    # outside (0, alpha): each fails the descent suite by name, with no
    # redraw, and every other instance passes.
    threshold = 40.0
    real = verify.preprocess

    def preprocess(G, alpha):
        pre = real(G, alpha)
        pre.gamma = np.where(G[..., 0, 0].real > threshold, 10 * pre.gamma, pre.gamma)
        return pre

    monkeypatch.setattr(verify, "preprocess", preprocess)
    seed, n = 3, 6
    stacks = verify._draw_stacks(np.random.default_rng(seed), seed, range(1, n + 1))
    invalid = sorted(
        i
        for _, _, index, _, G in stacks
        for i, g in zip(index.tolist(), G)
        if g[0, 0].real > threshold
    )
    assert 0 < len(invalid) < n
    descent, boundary = run_descent_and_boundary(seed, n, t_max=20)
    assert descent.instances == n
    assert (descent.passed, descent.failed) == (n - len(invalid), len(invalid))
    pattern = r"B=\d+,K=\d+,[bq]psk,attempt=(\d+): weight outside \(0, alpha\)"
    assert [int(re.fullmatch(pattern, f)[1]) for f in descent.failures] == invalid
    assert descent.worst_margin == -np.inf and "FAIL" in descent.line()
    assert boundary.ok and boundary.instances == n  # every instance converged


@pytest.mark.parametrize("n", [5, 9, 17])
def test_series_gap_is_the_largest_eigenvalue(n):
    # The series-bound suite's gap: on its shapes the inverse less its
    # two-term series is PSD, so its largest eigenvalue is its spectral norm.
    rng = np.random.default_rng(n)
    G = gram(rng.standard_normal((17, n + 2, n)) + 1j * rng.standard_normal((17, n + 2, n)))
    alpha = np.multiply.outer((1.1, 1.5, 2.0, 4.0), spectral_norm(G))
    G = np.broadcast_to(G, alpha.shape + G.shape[-2:])
    D = invert_shifted(G, alpha) - neumann_two_term(G, alpha)
    eig = np.linalg.eigvalsh(D)
    assert np.all(eig[..., 0] >= -1e-15 * eig[..., -1])
    norm = np.linalg.norm(D, ord=2, axis=(-2, -1))
    np.testing.assert_allclose(eig[..., -1], norm, rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_size_stack_preprocesses_each_slice_alone(seed):
    # The suites preprocess the BPSK and QPSK stacks of one K as one stack;
    # each stack's slice must get the bytes it gets preprocessed alone.
    stacks = verify._draw_stacks(np.random.default_rng(seed), seed, range(40))
    assert sorted((K, c.kind) for c, K, *_ in stacks) == [
        (4, "bpsk"), (4, "qpsk"), (16, "bpsk"), (16, "qpsk")
    ]
    drawn = {(K, c): (index, B, G) for c, K, index, B, G in stacks}
    sliced = list(verify._preprocessed_stacks(stacks, 2.0))
    assert len(sliced) == len(stacks)
    for c, K, index, B, pre in sliced:
        index_alone, B_alone, G = drawn.pop((K, c))
        assert index is index_alone and B is B_alone
        alone = preprocess(G, 2.0 * spectral_norm(G))
        for name in ("Ghat", "gamma", "alpha", "G"):
            assert getattr(pre, name).tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("n", [1, 20])
@pytest.mark.parametrize(
    ("suite", "first"), [(run_descent_and_boundary, 1), (run_gradient_identity, 0)]
)
def test_one_norm_one_preprocess_per_matrix_size(suite, first, n, monkeypatch):
    # A suite preprocesses one stack per matrix size drawn, every instance
    # once, and solves one stack per (K, constellation).
    seed = 4
    stacks = verify._draw_stacks(np.random.default_rng(seed), seed, range(first, first + n))
    calls = Counter()

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            if name == "preprocess":
                calls["preprocessed rows"] += len(args[0])
            return real(*args)

        return call

    for name in ("spectral_norm", "preprocess", "iterate", "iterate_once"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    suite(seed, n)
    sizes = len({K for _, K, *_ in stacks})
    assert calls["spectral_norm"] == calls["preprocess"] == sizes
    assert calls["preprocessed rows"] == n
    assert calls["iterate"] + calls["iterate_once"] == len(stacks)


@pytest.mark.parametrize("n", [5, 9, 17])
def test_pinned_gain_keeps_gamma_in_one_to_two(n):
    # The fact the descent suite rests on: at alpha twice the largest
    # eigenvalue the exact shifted inverse has its spectrum in [1, 2], so
    # its largest component gamma is in [1, 2] and the weight
    # alpha * (1 - gamma / 2) is never negative. Gram matrices of fewer
    # and of more rows than columns.
    rng = np.random.default_rng(n)
    for rows in (4, n + 2):
        A = rng.standard_normal((200, rows, n)) + 1j * rng.standard_normal((200, rows, n))
        G = gram(A)
        gamma = preprocess(G, 2.0 * spectral_norm(G)).gamma
        assert np.all((1.0 <= gamma) & (gamma <= 2.0)), (gamma.min(), gamma.max())


@pytest.mark.parametrize(
    ("patch", "suite", "message"),
    [
        (
            {"RESIDUAL_FACTOR": -1.0},
            "descent",
            r"B=\d+,K=\d+,[bq]psk,attempt=\d+: residual \S+ > -\S+",
        ),
        (
            {"RESIDUAL_FACTOR": np.inf, "_DESCENT_SLACK": -1.0},
            "descent",
            r"B=\d+,K=\d+,[bq]psk,attempt=\d+: objective increased",
        ),
        ({"BOUNDARY_TOL": -1.0}, "boundary", r"B=\d+,K=\d+,[bq]psk,attempt=\d+: boundary gap \S+"),
        ({"_BOUND_SLACK": -2.0}, "series_bound", r"matrix \d+ \(n=\d+\), scale [\d.]+: \S+ > \S+"),
        (
            {"GRAD_IDENTITY_RTOL": -1.0},
            "gradient_identity",
            r"instance \d+ \(B=\d+,K=\d+,[bq]psk\): \S+ vs \S+",
        ),
    ],
    ids=["residual", "descent", "boundary", "series-bound", "gradient-identity"],
)
def test_each_suite_reports_its_failures(patch, suite, message, monkeypatch):
    # Thresholds no instance can meet make every checked instance fail
    # with its suite's message, and leave the other suites passing.
    for name, value in patch.items():
        monkeypatch.setattr(verify, name, value)
    report = verify_theorems(5, 3)
    failing = getattr(report, suite)
    assert not report.ok and failing.failed == failing.instances > 0
    assert all(re.fullmatch(message, f) for f in failing.failures), failing.failures
    assert failing.line().startswith(f"{suite}: FAIL (0 passed, {failing.failed} failed")
    assert [s.name for s in report.suites if not s.ok] == [suite]


def test_boundary_suite_skips_unconverged_instances(monkeypatch):
    # A residual no iterate reaches leaves no converged instance to check:
    # the boundary suite counts only converged instances, so all three
    # descent instances are the unconverged ones.
    monkeypatch.setattr(verify, "CONVERGED_RESIDUAL", 0.0)
    descent, boundary = run_descent_and_boundary(5, 3)
    assert descent.ok and descent.instances == 3
    assert descent.instances - boundary.instances == 3
    assert boundary.ok and boundary.notes == {}
    assert boundary.line() == "boundary: pass (0 passed, 0 failed; worst margin inf)"
