"""Record ``reference.json``, the data the benchmark's output checks compare
against: per workload, the digest of the warm-up call on the fixed probe
input and, for every sweep method, the mean and variance of its error count
over many independent one-trial draws.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose sampled data is trusted; later
commits are checked against what it records.
"""

from __future__ import annotations

import json
import statistics
import sys

import bootstrap

# Entropy of the reference draws; run seeds are small non-negative
# integers, so the draws never coincide with a run's inputs.
REFERENCE_ENTROPY = 0x5EF_0D0C_5EED
DRAWS = 2000


def main() -> int:
    problem = bootstrap.pin_environment()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import machine
    import workloads
    from run import REFERENCE

    env = machine.environment(machine.blas_libraries())
    out = {"git_sha": env["git_sha"], "git_dirty": env["git_dirty"], "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        probe = wl.inputs(workloads.PROBE_SEED, tiny=True)
        entry = {"probe_digest": wl.digest(wl.run(probe))}
        if wl.cycle is None:
            samples: dict[str, list[int]] = {}
            for i in range(DRAWS):
                cfg = wl.inputs(workloads.seed_for(REFERENCE_ENTROPY, i), tiny=True)
                result = wl.run(cfg)
                if wl.problems(cfg, result):
                    raise SystemExit(f"{wl.name}: reference draw {i} fails its checks")
                for key, count in wl.tally(cfg, result).items():
                    if "/" in key:
                        samples.setdefault(key, []).append(count)
            entry["draws"] = DRAWS
            entry["per_column"] = {
                key: [statistics.fmean(v), statistics.variance(v)] for key, v in sorted(samples.items())
            }
        out["workloads"][wl.name] = entry
        print(wl.name, json.dumps(entry), flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
