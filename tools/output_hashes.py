"""Print a fingerprint of every benchmark cell's solver output.

    python tools/output_hashes.py [TREE]

Solves the twelve cells that perfbench solves, with its settings, using
the package sources of TREE (default: the checkout holding this script),
and prints one line per cell: status, trace length, solution rank, and
SHA-256 prefixes of the solution (X, or the factors P1 and P2) and of the
JSON trace rows.  Two trees whose outputs are the same bytes print the
same lines, so diffing the output of a parent checkout against that of a
change shows whether the change moved any number:

    python tools/output_hashes.py ../parent > parent.txt
    python tools/output_hashes.py > change.txt
    diff parent.txt change.txt

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set: the
thread count orders BLAS sums, and so moves the last bits of the outputs.
"""

import hashlib
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
TREE = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(TREE, "src"))

import numpy as np  # noqa: E402  (after the thread setting and the path)

from triccati import generators, newton_lowrank, riccati_dense  # noqa: E402

N = 10000  # order of the factored cells
SEEDS = range(3)


def cells():
    """(label, solve) for every cell, in a fixed order."""
    lowrank = newton_lowrank.InexactNewtonConfig(eps=1e-6)
    for seed in SEEDS:
        yield ("Ex2Dense n=300 seed=%d" % seed,
               lambda s=seed: riccati_dense.solve_newton(
                   generators.generate_ex2_dense(300, seed=s)[0],
                   tol=1e-12, line_search="exact"))
    for seed in SEEDS:
        yield ("Ex1LowRank q=5 seed=%d" % seed,
               lambda s=seed: newton_lowrank.solve_inexact_newton(
                   generators.generate_ex1_lowrank(
                       N, p=1, q=5, gamma=1e4, seed=s)[0], lowrank))
    for q in (1, 5):
        for seed in SEEDS:
            yield ("Ex2LowRank q=%d seed=%d" % (q, seed),
                   lambda q=q, s=seed: newton_lowrank.solve_inexact_newton(
                       generators.generate_ex2_lowrank(
                           N, p=1, q=q, seed=s)[0], lowrank))


def digest(*arrays_or_text):
    h = hashlib.sha256()
    for a in arrays_or_text:
        h.update(a.encode() if isinstance(a, str)
                 else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:10]


def main():
    for label, solve in cells():
        X, report = solve()
        factors = [X] if isinstance(X, np.ndarray) else [X.P1, X.P2]
        rows = json.dumps(report.trace_rows(), sort_keys=True)
        print("%-24s %-16s trace=%-3d rank=%-4d X=%s trace=%s" % (
            label, report.status.value, len(report.iterations),
            report.solution_rank, digest(*factors), digest(rows)),
            flush=True)


if __name__ == "__main__":
    main()
