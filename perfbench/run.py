"""Wall-clock benchmark of pairid over two tiers.

    python3 perfbench/run.py --workload {curve-session,lab-games}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; pairid is imported from its src/.  Each
run is a closed loop with one client (see workloads.py), pinned with its
threads and set-up probes to one CPU.  It first times set-up in
SETUP_SAMPLES fresh interpreters (setup_probe.py), sets up once in-process,
and checks bench.bench_all against EXPECTED.  Then:

  --trace 0  measures for S seconds and reports the end-to-end metrics.
  --trace 1  measures S/2 seconds untraced, times the real-size kernels,
             then measures at least S/2 seconds with spans.Tracer installed
             on a counted suite and reports the per-layer metrics.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  failed_ratio = failed / attempted; it is
printed on the line before, since a metric that is 0 on correct code cannot
serve as a relative bound.  The exit status is 1 when any gate failed.
"""

import argparse
import os
import sys

from checkout import use_checkout_sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curve-session", "lab-games"))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = use_checkout_sources()
    # On a 2-CPU shared host, the hand-off between a loopback session's two
    # threads waited on cross-CPU wake-ups: unpinned, the p90 of single
    # sessions on the q = 523 desk curve ranged from 0.9 to 3.1 ms over ten
    # seeds; on one CPU, from 0.62 to 0.68 ms over five.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import pairid.cli  # noqa: F401  (compiles and caches the package before the probes)
    from harness import run

    return run(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    sys.exit(main())
