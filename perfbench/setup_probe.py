"""Set-up probe: import simojed, build one workload's configs and make the
first call into its entry point on a tiny input, then exit.

``run.py`` times whole runs of this script, interpreter start included, so
work that the package does lazily on first use shows up in ``setup_s``.

    python3 perfbench/setup_probe.py --workload qpsk-downlink --seed 7
"""

import argparse
import sys

import bootstrap


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    args = p.parse_args()
    problem = bootstrap.pin_environment()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.inputs(workloads.seed_for(args.seed, 0))
    # A fixed tiny input, so that set-up time does not vary with the data.
    tiny = wl.inputs(workloads.PROBE_SEED, tiny=True)
    problems = wl.problems(tiny, wl.run(tiny))
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
