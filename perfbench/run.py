"""Closed-loop benchmark of the dense and the factored T-Riccati solvers.

    python3 perfbench/run.py --workload dense-newton --seed 0 --seconds 10 --trace 0

One process, one caller: the workload's problems are built through
``triccati.generators`` (set-up, repeated and timed), then solved one after
another in rounds until --seconds have passed (at least two rounds).  Every
round solves fresh copies of the same problems, so each pays for its own
factorizations.  Every answer is checked apart from the solver
(``checks.py``).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds).
With --trace 1 the calls into each triccati module are timed as spans
(``spans.py``) and the metrics are per-module self times and counts, per
round; the spans themselves go to perfbench/out/.  See README.md.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKLOADS = ["dense-newton", "lowrank-krylov", "lowrank-sparse"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "triccati", "__init__.py")):
        print("run.py: the triccati sources are not at %s" % SRC, file=sys.stderr)
        return 2
    # One BLAS thread unless the caller asks for more: on the 2-vCPU machine
    # of README.md two threads were no faster on any workload and collapse
    # when any other process is busy (README.md, "BLAS threads").
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, SRC)
    import bench
    print(json.dumps(bench.run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
