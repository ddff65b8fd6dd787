"""Minor page faults per call of one benchmark workload, counted inside the
benchmark's own process.

    python3 tools/faults.py --workload qpsk-downlink --seed 1 --seconds 5
    python3 tools/faults.py --stages --workload bpsk-nearml --seed 1 --seconds 5

Run from the root of a checkout; every argument but ``--stages`` goes to
``perfbench/run.py`` unchanged. ``run.py`` is loaded through ``runpy`` and
its ``main`` runs in this process, so the counts (``getrusage`` of this
process: the set-up probes, which run in child processes, are not counted)
see the benchmark's own allocator state. Prints ``run.py``'s last line,
then one JSON line:

* ``minor_faults``: the faults of the whole ``main`` call
* ``attempted``: ``run.py``'s count of attempted operations
* ``minor_faults_per_call``: the first divided by the second
* ``calls`` and ``faults_per_workload_call``: the calls into the workload
  (warm-ups and timed calls) and the faults taken inside them, per call
* ``stages``, only with ``--stages``: for each of ``STAGES``, the faults
  taken inside it per workload call. A stage's count includes those of the
  stages it calls (``harness._run_pack`` all of the harness stages,
  ``harness.draw_blocks`` ``model.gram``, ``harness.preprocess`` the
  shifted inverse and its series). Each wrapper costs about a microsecond
  per call, so time nothing with ``--stages``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import runpy
import sys
from collections import Counter
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
# (module, name) pairs, each wrapped where that module looks the name up.
STAGES = (
    ("harness", "_run_pack"),
    ("harness", "draw_blocks"),
    ("model", "gram"),
    ("harness", "spectral_norm"),
    ("harness", "preprocess"),
    ("prox", "invert_shifted"),
    ("prox", "neumann_two_term"),
    ("harness", "solve_stack"),
    ("harness", "solve_fixed_stack"),
    ("harness", "channel_estimate"),
    ("harness", "chest_pilot"),
    ("harness", "mrc"),
    ("harness", "ml_jed_exhaustive"),
    ("harness", "downlink_ser"),
)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counting(real, counts: Counter, key: str):
    """``real``, adding the faults taken inside each call to ``counts[key]``."""

    def wrapper(*args, **kwargs):
        before = minor_faults()
        try:
            return real(*args, **kwargs)
        finally:
            counts[key] += minor_faults() - before

    return wrapper


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], epilog="Every other argument goes to perfbench/run.py."
    )
    p.add_argument("--stages", action="store_true", help="also count the faults of each stage")
    args, run_argv = p.parse_known_args(argv)
    # run.py imports its neighbours (bootstrap, workloads) by name. Loading
    # it under another name than __main__ leaves its main to this script.
    sys.path.insert(0, str(RUN.parent))
    run = runpy.run_path(str(RUN), run_name="perfbench_run")
    calls, stages = Counter(), Counter()
    session_call = run["Session"].call

    def call(self, *a, **kw):
        # The workload module, and simojed with it, is imported by now.
        if args.stages and not calls:
            modules = {name: sys.modules[f"simojed.{name}"] for name in ("harness", "model", "prox")}
            for module, name in STAGES:
                real = getattr(modules[module], name)
                setattr(modules[module], name, counting(real, stages, f"{module}.{name}"))
        before = minor_faults()
        try:
            return session_call(self, *a, **kw)
        finally:
            calls["calls"] += 1
            calls["faults"] += minor_faults() - before

    run["Session"].call = call
    out = io.StringIO()
    before = minor_faults()
    with contextlib.redirect_stdout(out):
        code = run["main"](run_argv)
    faults = minor_faults() - before
    lines = out.getvalue().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out.getvalue())
        return code or 1
    print(lines[-1])
    attempted = json.loads(lines[-1])["attempted"]
    n = max(calls["calls"], 1)
    record = {
        "minor_faults": faults,
        "attempted": attempted,
        "minor_faults_per_call": faults / attempted,
        "calls": calls["calls"],
        "faults_per_workload_call": calls["faults"] / n,
    }
    if args.stages:
        record["stages"] = {f"{m}.{name}": stages[f"{m}.{name}"] / n for m, name in STAGES}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
