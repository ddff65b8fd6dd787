"""simojed benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload bpsk-nearml --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; ``simojed`` is imported from its ``src/``.
Each workload is a closed loop from one process: a call into a public entry
point, its output checks, the next call. BLAS and the harness run
single-threaded. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run. A record with the environment, digests,
every repeat's timing and any failed check goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("bpsk-nearml", "qpsk-downlink", "fxp-fidelity", "oracle-suites")

SETUP_RUNS = 7  # set-up probes per run; setup_s is their median
SETUP_TIMEOUT_S = 30
MIN_REPEATS = 5  # timed repeats per phase, however long they take

# Timed results are rescaled to a machine on which the speed probe takes
# this long. The probe runs between calls; on a shared machine whose speed
# drifts by a third from one minute to the next, the rescaled figures stay
# steady while the raw ones do not. Raw figures go to the output record.
PROBE_REF_MS = 8.0
# Set-up time (process start, imports, first calls) follows machine speed
# about half as strongly as the probe: runs with the probe near 5 ms set up
# in about 0.47 s, runs near 8.5 ms in about 0.6 s. It is rescaled by the
# probe ratio to this power.
SETUP_SPEED_EXPONENT = 0.5

LAYERS = ("model", "linalg", "prox", "baselines", "fxp", "harness", "tuning", "verify")
FUNCTIONS = (
    "model.make_block",
    "linalg.gram",
    "linalg.spectral_norm",
    "linalg.invert_shifted",
    "linalg.neumann_two_term",
    "prox.preprocess",
    "prox.iterate_once",
    "prox.hard_decision",
    "prox.channel_estimate",
    "baselines.ml_jed_exhaustive",
    "baselines.mrc_chest",
    "baselines.downlink_ser",
    "fxp.solve_fixed",
    "fxp.direct_iteration",
    "fxp.pe_array_iteration",
)
SOLVER_CALLS = {"prox.solve", "fxp.solve_fixed"}
HARNESS_ENTRIES = {"harness.run_sweep", "harness.hw_compare"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Session:
    """Calls into one workload, with every output check counted."""

    def __init__(self, workload, seed: int, reference: dict):
        self.wl = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tally = Counter()
        self.next_repeat = 0

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def call(self, inputs, context=None):
        """One call and its checks: (seconds, trials, result), or None if
        it raised. Only the call itself is timed and traced."""
        self.attempted += 1
        try:
            with context or nullcontext():
                t0 = time.perf_counter()
                result = self.wl.run(inputs)
                seconds = time.perf_counter() - t0
        except Exception:
            self.fail([traceback.format_exc()])
            return None
        problems = self.wl.problems(inputs, result)
        if problems:
            self.fail(problems)
        self.tally.update(self.wl.tally(inputs, result))
        return seconds, self.wl.trials(inputs, result), result

    def repeat_inputs(self):
        from workloads import seed_for

        r = self.next_repeat if self.wl.cycle is None else self.next_repeat % self.wl.cycle
        self.next_repeat += 1
        return self.wl.inputs(seed_for(self.seed, r))

    def measure(self, seconds: float, probe, context=None) -> dict:
        """Closed loop of full-size calls for ``seconds`` and at least
        MIN_REPEATS calls. A traced loop over a workload that cycles through
        a set of inputs ends on a whole cycle, so that per-trial call counts
        do not depend on how many calls fit. The machine-speed probe runs
        between calls; each call is paired with the mean of the probes on
        either side."""
        samples, needed = [], 0
        deadline = time.perf_counter() + seconds
        cycle = (self.wl.cycle or 1) if context is not None else 1
        calls = 0
        before = probe()
        while calls < MIN_REPEATS or time.perf_counter() < deadline or calls % cycle:
            calls += 1
            inputs = self.repeat_inputs()
            out = self.call(inputs, context)
            after = probe()
            if out is not None:
                samples.append({"seconds": out[0], "trials": out[1], "probe_ms": (before + after) / 2})
                needed += self.wl.needed_solves(inputs)
            before = after
        return {"samples": samples, "needed_solves": needed}

    def pooled_check(self) -> None:
        """The statistical checks over every call of the run count as one
        more operation."""
        self.attempted += 1
        problems = self.wl.pooled_problems(self.tally, self.reference)
        if problems:
            self.fail(problems)


def setup_seconds(workload: str, seed: int, session: Session, probe) -> list[dict]:
    """Wall time of fresh processes that import simojed, build the configs
    and make the first call on a tiny input, each paired with the
    machine-speed probe; failed probes are counted."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    runs = []
    before = probe()
    for _ in range(SETUP_RUNS):
        session.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        after = probe()
        if proc is None or proc.returncode != 0:
            why = "timed out" if proc is None else f"exited {proc.returncode}: {proc.stderr[-2000:]}"
            session.fail([f"set-up probe {why}"])
        else:
            runs.append({"seconds": wall, "probe_ms": (before + after) / 2})
        before = after
    return runs


def at_reference_speed(seconds: float, probe_ms: float) -> float:
    """A duration rescaled to a machine on which the probe takes
    PROBE_REF_MS."""
    return seconds * PROBE_REF_MS / probe_ms


def quartiles(values) -> dict:
    v = sorted(values)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    return {"median": statistics.median(v), "q1": q[0], "q3": q[2], "samples": len(v)}


def per_layer_metrics(tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the spans of the traced phase. Times are
    rescaled to the reference machine speed like the end-to-end ones."""
    summary = tracer.summary()
    samples = traced["samples"]
    trials = sum(s["trials"] for s in samples)
    wall = sum(s["seconds"] for s in samples)
    scale = PROBE_REF_MS / statistics.median(s["probe_ms"] for s in samples)
    metrics = {}
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_us_per_trial"] = (own * scale * 1e6 / trials, "us")
        metrics[f"{layer}.share"] = (own / wall, "ratio")
    for name in FUNCTIONS:
        s = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls_per_trial"] = (s["calls"] / trials, "count")
        per_call = s["self_s"] * scale * 1e6 / s["calls"] if s["calls"] else 0.0
        metrics[f"{name}.self_us_per_call"] = (per_call, "us")
    made = tracer.calls_under(HARNESS_ENTRIES, SOLVER_CALLS)
    needed = traced["needed_solves"]
    metrics["harness.useful_solve_ratio"] = (needed / made if made else 1.0, "ratio")

    def per_trial(phase):
        return statistics.median(
            at_reference_speed(s["seconds"], s["probe_ms"]) / s["trials"] for s in phase["samples"]
        )

    metrics["trace.overhead"] = (per_trial(traced) / per_trial(untraced) - 1.0, "ratio")
    metrics["trace.coverage"] = (sum(v["self_s"] for v in summary.values()) / wall, "ratio")
    return metrics


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = bootstrap.pin_environment()
    if problem:
        return refuse(problem)
    try:
        import workloads
    except ImportError as exc:
        return refuse(f"cannot import simojed from this checkout: {exc}")
    import machine
    from tracer import Tracer

    blas = machine.blas_libraries()
    unpinned = machine.unpinned_blas(blas)
    if unpinned:
        return refuse("BLAS threads are not pinned to 1: " + "; ".join(unpinned))
    reference = json.loads(REFERENCE.read_text())
    wl = workloads.WORKLOADS[args.workload]
    session = Session(wl, args.seed, reference["workloads"][wl.name])
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    record["environment"] = machine.environment(blas)

    setup = [] if args.trace else setup_seconds(wl.name, args.seed, session, machine.speed_probe)

    # Warm-up: a tiny call on the fixed probe input, whose digest shows
    # whether sampled data moved since the reference commit, then one
    # untimed full-size call on the run's own inputs.
    digests = {}
    out = session.call(wl.inputs(workloads.PROBE_SEED, tiny=True))
    if out is not None:
        digest = wl.digest(out[2])
        same = digest == session.reference["probe_digest"]
        digests["probe"] = f"{digest} {'identical' if same else 'changed'}"
    out = session.call(session.repeat_inputs())
    if out is not None:
        digests["seeded"] = wl.digest(out[2])
    record["digests"] = digests

    if args.trace:
        phases = {"untraced": session.measure(args.seconds / 3, machine.speed_probe)}
        tracer = Tracer(bootstrap.import_simojed())
        phases["traced"] = session.measure(2 * args.seconds / 3, machine.speed_probe, tracer)
    else:
        phases = {"timed": session.measure(args.seconds, machine.speed_probe)}
    session.pooled_check()
    record["setup_runs"] = setup
    record["phases"] = phases
    probes = [s["probe_ms"] for ph in phases.values() for s in ph["samples"]]
    record["speed_probe_ms"] = quartiles(probes) if probes else None

    metrics = {}
    if not args.trace:
        samples = phases["timed"]["samples"]
        raw = [s["trials"] / s["seconds"] for s in samples]
        rates = [s["trials"] / at_reference_speed(s["seconds"], s["probe_ms"]) for s in samples]
        record["trials_per_s"] = quartiles(rates) if rates else None
        record["trials_per_wall_s"] = quartiles(raw) if raw else None
        metrics["trials_per_s"] = (statistics.median(rates) if rates else 0.0, "trials/s")
        setups = [s["seconds"] * (PROBE_REF_MS / s["probe_ms"]) ** SETUP_SPEED_EXPONENT for s in setup]
        record["setup_wall_s"] = quartiles(s["seconds"] for s in setup) if setup else None
        metrics["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    elif all(ph["samples"] for ph in phases.values()):
        metrics = per_layer_metrics(tracer, phases["traced"], phases["untraced"])
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        tracer.save(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.npz")
    failed_frac = session.failed / session.attempted
    record["attempted"], record["failed"], record["failed_frac"] = session.attempted, session.failed, failed_frac
    record["problems"] = session.problems
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for kind, d in digests.items():
        print(f"digest {kind} {d}")
    for name in ("speed_probe_ms", "trials_per_wall_s", "setup_wall_s"):
        if record.get(name):
            print(f"{name} " + json.dumps(record[name]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {failed_frac!r} ratio ({session.failed}/{session.attempted})")
    for p in session.problems[:10]:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
