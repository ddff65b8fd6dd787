"""The four benchmark workloads: inputs built from a seed, the public entry
point each one calls, what counts as a trial, and the output checks.

Each workload offers the same methods:

* ``inputs(seed, tiny)``: the inputs of one call, built only from ``seed``;
  ``tiny`` gives the smallest input, used for set-up and warm-up.
* ``run(inputs)``: the call into ``simojed``; the only part that is timed.
* ``trials(inputs, result)``: the work that call completed, in trials.
* ``problems(inputs, result)``: failed output checks of one call.
* ``tally(inputs, result)``: counts pooled over every call of a run, which
  ``pooled_problems`` checks against the reference recorded at the parent
  commit (statistical checks need more trials than one call holds).
* ``digest(result)``: a short hash of the call's result.
* ``needed_solves(inputs)``: solver calls the reported sweep cells need.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from bootstrap import import_simojed

import_simojed()

# Entry points are called through their modules, never bound here, so the
# tracer's swapped-in wrappers see the benchmark's own calls.
from simojed import fxp, harness, tuning, verify  # noqa: E402
from simojed.harness import MethodSpec, SweepConfig  # noqa: E402
from simojed.prox import ProxParams  # noqa: E402

# Solver gains returned at the parent commit by the acceptance fixtures'
# tuner calls, tune_rho(16, 8, "bpsk", -6.0, trials=1000, seed=42) and
# tune_rho(16, 8, "qpsk", -1.0, trials=1000, seed=43). Pinned so that a
# change to the tuner does not move the sweeps.
BPSK_GAINS = ProxParams(alpha_scale=1.5, rho_log2=0, t_max=5)
QPSK_GAINS = ProxParams(alpha_scale=1.25, rho_log2=0, t_max=5)
FIDELITY_GAINS = ProxParams(alpha_scale=1.25, rho_log2=1, t_max=5)

# The fixed-vs-float acceptance gate: at least 99% hard-decision agreement.
AGREEMENT_BOUND = 0.99
AGREEMENT_SNR_DB = -2.0
SER_TARGET = 1e-2

# Seed of the fixed tiny input used for set-up and warm-up; its result's
# digest is compared with the reference.
PROBE_SEED = 20261017

# Half-width of the pooled error-count band, in standard deviations.
BAND_Z = 5.0

SOLVER_METHODS = ("prox", "aprox")


def seed_for(seed: int, repeat: int) -> int:
    """Master seed of one repeat, derived from the run seed."""
    return int(np.random.SeedSequence([seed, repeat]).generate_state(1, np.uint32)[0])


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


def _cell_problems(cfg: SweepConfig, result, label: str) -> list[str]:
    """Integer counts and symbol totals consistent with the config."""
    want = {(m.name, s) for m in cfg.methods for s in cfg.snr_points_db}
    if set(result.cells) != want:
        return [f"{label}: cells {sorted(result.cells)} do not match the config"]
    n_dl = cfg.downlink_symbols or cfg.K
    out = []
    for key, cell in result.cells.items():
        counts = (
            cell.trials,
            cell.symbol_errors,
            cell.downlink_errors,
            cell.data_symbols,
            cell.downlink_symbols,
        )
        if not all(isinstance(v, numbers.Integral) for v in counts):
            out.append(f"{label} {key}: non-integer count in {counts}")
        elif (cell.trials, cell.data_symbols, cell.downlink_symbols) != (
            cfg.trials,
            cfg.trials * cfg.K,
            cfg.trials * n_dl,
        ):
            out.append(f"{label} {key}: symbol totals {counts} inconsistent with the config")
        elif not (
            0 <= cell.symbol_errors <= cell.data_symbols
            and 0 <= cell.downlink_errors <= cell.downlink_symbols
        ):
            out.append(f"{label} {key}: error count outside [0, symbols] in {counts}")
        if not (math.isfinite(cell.chest_mse) and cell.chest_mse >= 0.0):
            out.append(f"{label} {key}: channel MSE {cell.chest_mse!r}")
    return out


def _error_tally(cfg: SweepConfig, result) -> Counter:
    """Uplink and downlink error totals per method over all SNR points."""
    tally = Counter()  # update(), not +=, keeps zero totals
    for (method, _snr), cell in result.cells.items():
        tally[f"{method}/{cfg.arithmetic}/uplink"] += int(cell.symbol_errors)
        tally[f"{method}/{cfg.arithmetic}/downlink"] += int(cell.downlink_errors)
    return tally


def _band_problems(tally: Counter, reference: dict) -> list[str]:
    """Each pooled error total against its reference.

    ``tally["columns"]`` trials were run at every SNR point. The reference
    gives, per key, the mean and variance of the error count of one such
    column (one trial at each SNR point) over ``draws`` independent
    columns at the parent commit. The band is BAND_Z standard deviations of
    the pooled count, including the uncertainty of the reference mean. The
    variance is measured, not binomial, because the errors of one block are
    correlated.
    """
    n = tally["columns"]
    draws = reference["draws"]
    out = []
    for key, (mean, var) in sorted(reference["per_column"].items()):
        if key not in tally:
            out.append(f"{key}: no errors counted")
            continue
        expected = n * mean
        sd = math.sqrt(n * var + n * n * var / draws)
        if abs(tally[key] - expected) > BAND_Z * sd + 0.5:
            out.append(
                f"{key}: {tally[key]} errors in {n} trials per SNR point, "
                f"reference {expected:.1f} +- {BAND_Z * sd:.1f}"
            )
    return out


@dataclass(frozen=True)
class SweepWorkload:
    """One ``run_sweep`` call per repeat; a trial is one drawn block run
    through every method at one SNR point."""

    name: str
    template: SweepConfig
    trials_per_point: int
    cycle = None  # every call gets fresh inputs

    def inputs(self, seed: int, tiny: bool = False) -> SweepConfig:
        return replace(self.template, master_seed=seed, trials=1 if tiny else self.trials_per_point)

    def run(self, cfg: SweepConfig):
        return harness.run_sweep(cfg)

    def trials(self, cfg: SweepConfig, result) -> int:
        return cfg.trials * len(cfg.snr_points_db)

    def needed_solves(self, cfg: SweepConfig) -> int:
        solvers = sum(m.name in SOLVER_METHODS for m in cfg.methods)
        return cfg.trials * len(cfg.snr_points_db) * solvers

    def problems(self, cfg: SweepConfig, result) -> list[str]:
        return _cell_problems(cfg, result, "sweep")

    def tally(self, cfg: SweepConfig, result) -> Counter:
        tally = _error_tally(cfg, result)
        tally["columns"] = cfg.trials
        return tally

    def pooled_problems(self, tally: Counter, reference: dict) -> list[str]:
        return _band_problems(tally, reference)

    def digest(self, result) -> str:
        return _sha(result.to_csv().encode())


class FidelityWorkload(SweepWorkload):
    """One ``hw_compare`` call per repeat; a trial is one (block, SNR) pair
    handled in both arithmetics."""

    def run(self, cfg: SweepConfig):
        return harness.hw_compare(cfg, agreement_snr_db=AGREEMENT_SNR_DB, gap_targets=(SER_TARGET,))

    def needed_solves(self, cfg: SweepConfig) -> int:
        return 2 * super().needed_solves(cfg)

    def problems(self, cfg: SweepConfig, report) -> list[str]:
        out = _cell_problems(replace(cfg, arithmetic="float"), report.float_result, "float")
        out += _cell_problems(replace(cfg, arithmetic="fixed"), report.fixed_result, "fixed")
        if not 0.0 <= report.agreement_rate <= 1.0:
            out.append(f"agreement rate {report.agreement_rate!r} outside [0, 1]")
        if set(report.gap_db_at) != {SER_TARGET}:
            out.append(f"gap targets {sorted(report.gap_db_at)} != [{SER_TARGET}]")
        return out

    def tally(self, cfg: SweepConfig, report) -> Counter:
        tally = _error_tally(replace(cfg, arithmetic="float"), report.float_result)
        tally.update(_error_tally(replace(cfg, arithmetic="fixed"), report.fixed_result))
        tally["columns"] = cfg.trials
        decisions = cfg.trials * cfg.K
        tally["agree"] = round(report.agreement_rate * decisions)
        tally["decisions"] = decisions
        return tally

    def pooled_problems(self, tally: Counter, reference: dict) -> list[str]:
        out = _band_problems(tally, reference)
        rate = tally["agree"] / tally["decisions"]
        if rate < AGREEMENT_BOUND:
            out.append(f"pooled agreement {rate:.4%} below {AGREEMENT_BOUND:.0%}")
        return out

    def digest(self, report) -> str:
        return _sha(
            report.float_result.to_csv().encode(),
            report.fixed_result.to_csv().encode(),
            repr((report.agreement_rate, sorted(report.gap_db_at.items()))).encode(),
        )


@dataclass(frozen=True)
class SuiteInputs:
    seed: int
    n_instances: int
    tune_trials: int
    pe_instances: tuple  # ((N, gre, gim, sre, sim), ...)


@dataclass(frozen=True)
class SuiteOutcome:
    report: object
    tuned: object
    pe: list  # (N, scheduled output, cycles, direct output)


@dataclass(frozen=True)
class SuiteWorkload:
    """The non-sweep work of the acceptance gate: the verification suites,
    an uncached tuner grid, and the cycle-accurate array simulation checked
    against its direct reference. A trial is one checked instance.

    Calls cycle through ``cycle`` input sets and a traced run measures
    whole cycles: how many instances the descent suite draws depends on the
    data, so fresh inputs for every call would make per-trial call counts
    depend on how many calls fit in the time."""

    name: str
    n_instances: int
    tune_trials: int
    pe_sizes: tuple[int, ...]
    pe_per_size: int
    cycle: int

    def inputs(self, seed: int, tiny: bool = False) -> SuiteInputs:
        rng = np.random.default_rng(seed)
        pe = []
        for N in self.pe_sizes[:1] if tiny else self.pe_sizes:
            for _ in range(1 if tiny else self.pe_per_size):
                pe.append(
                    (
                        N,
                        rng.integers(-2048, 2048, size=(N, N)),
                        rng.integers(-2048, 2048, size=(N, N)),
                        rng.integers(-32, 32, size=N),
                        rng.integers(-32, 32, size=N),
                    )
                )
        return SuiteInputs(
            seed=seed,
            n_instances=1 if tiny else self.n_instances,
            tune_trials=1 if tiny else self.tune_trials,
            pe_instances=tuple(pe),
        )

    def run(self, inp: SuiteInputs) -> SuiteOutcome:
        report = verify.verify_theorems(inp.seed, n_instances=inp.n_instances)
        tuned = tuning.tune_rho(16, 8, "bpsk", -6.0, trials=inp.tune_trials, seed=inp.seed)
        pe = []
        for N, gre, gim, sre, sim in inp.pe_instances:
            cfg = fxp.PeArrayConfig(N=N, t_max=1, rho_log2=2)
            out_s, trace = fxp.pe_array_iteration((sre, sim), (gre, gim), cfg, (8, 0))
            out_d = fxp.direct_iteration((sre, sim), (gre, gim), cfg, (8, 0))
            pe.append((N, out_s, trace.cycles(), out_d))
        return SuiteOutcome(report, tuned, pe)

    def trials(self, inp: SuiteInputs, out: SuiteOutcome) -> int:
        r = out.report
        suites = r.descent.instances + r.series_bound.instances + r.gradient_identity.instances
        grid = len(tuning.RHO_LOG2_GRID) * len(tuning.ALPHA_SCALE_GRID)
        return suites + inp.tune_trials * grid + len(out.pe)

    def needed_solves(self, inp: SuiteInputs) -> int:
        return 0

    def problems(self, inp: SuiteInputs, out: SuiteOutcome) -> list[str]:
        problems = []
        if not out.report.ok:
            problems += [ln for ln in out.report.lines() if "FAIL" in ln]
        if out.report.descent.instances != inp.n_instances:
            problems.append(
                f"descent suite checked {out.report.descent.instances} of {inp.n_instances} instances"
            )
        t = out.tuned
        on_grid = t.rho_log2 in tuning.RHO_LOG2_GRID and t.alpha_scale in tuning.ALPHA_SCALE_GRID
        if not (on_grid and 0 <= t.ser <= 1):
            problems.append(f"tuner returned {t}")
        for N, out_s, cycles, out_d in out.pe:
            if not (np.array_equal(out_s[0], out_d[0]) and np.array_equal(out_s[1], out_d[1])):
                problems.append(f"array schedule differs from the direct reference at N={N}")
            if cycles != (N - 1) + 4:
                problems.append(f"array iteration took {cycles} cycles at N={N}, not K+4")
        return problems

    def tally(self, inp: SuiteInputs, out: SuiteOutcome) -> Counter:
        return Counter()

    def pooled_problems(self, tally: Counter, reference: dict) -> list[str]:
        return []

    def digest(self, out: SuiteOutcome) -> str:
        parts = ["\n".join(out.report.lines()).encode(), repr(out.tuned).encode()]
        for N, out_s, cycles, out_d in out.pe:
            parts += [np.asarray(out_s[0]).tobytes(), np.asarray(out_s[1]).tobytes(), str(cycles).encode()]
        return _sha(*parts)


def _sweep(constellation: str, snrs: range, methods: tuple, K: int = 8, **kw) -> SweepConfig:
    """A B=16 sweep template; each call sets its own seed and trial count."""
    return SweepConfig(
        B=16,
        K=K,
        constellation=constellation,
        snr_points_db=tuple(float(s) for s in snrs),
        trials=1,
        master_seed=0,
        methods=methods,
        **kw,
    )


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="bpsk-nearml",
            template=_sweep(
                "bpsk",
                range(-10, 1),
                (MethodSpec("prox", BPSK_GAINS), MethodSpec("ml-jed"), MethodSpec("mrc-chest")),
            ),
            trials_per_point=20,
        ),
        SweepWorkload(
            name="qpsk-downlink",
            template=_sweep(
                "qpsk",
                range(-6, 5),
                (MethodSpec("prox", QPSK_GAINS), MethodSpec("mrc-chest")),
                downlink_symbols=64,
            ),
            trials_per_point=30,
        ),
        FidelityWorkload(
            name="fxp-fidelity",
            template=_sweep("qpsk", range(-5, 1), (MethodSpec("prox", FIDELITY_GAINS),), K=16),
            trials_per_point=20,
        ),
        SuiteWorkload(
            name="oracle-suites",
            n_instances=20,
            tune_trials=8,
            pe_sizes=(5, 9, 17, 33),
            pe_per_size=2,
            cycle=12,
        ),
    )
}
