"""Print a fingerprint of every benchmark cell's solver output.

    python tools/output_hashes.py [TREE]

Solves the twelve cells that perfbench solves, with its settings, and a
thirteenth, the run of the acceptance check ``test_09`` (Ex1LowRank n=900
with its command line's settings), using the package sources of TREE
(default: the checkout holding this script), and prints one line per cell:
status, trace length, solution rank, and SHA-256 prefixes of the problem's
data (see ``problem_data``), of the solution (X, or the factors P1 and P2)
and of the JSON trace rows.  Every cell adds its final relative residual.
A dense cell adds its forward error ||X - X_exact||_F / ||X_exact||_F, the
back-substitutions of each trace row (its=1,1,1,2) and the LAPACK routine
that factored its pencils (qz=dgges3; qz=dgges for a tree that names none,
whose ``tsylv_dense`` calls ``scipy.linalg.qz``); a factored cell adds,
per trace row, the inner passes, the order of the last projected equation,
the dropped Krylov columns and the iterate rank (inner=1,2,4
basis=20,48,96 dropped=4,0,0 ranks=13,21,36), each read from the trace
rows, whose keys hold across trees.  So a change that moves a cell's bits
shows what that did to its accuracy and whether its discrete choices held.
The forward error measures accuracy only where Newton from X_0 = 0 reaches
X_exact, which the generator does not promise (see
``generators.generate_ex2_dense``); on these cells it does.  The residual
holds wherever the run ends.

A factored run whose last inner solve stopped short of its tolerance, as
``test_09``'s does, also prints that solve's residual history as
``test_09`` reads it: the entry of its minimum out of its length, and how
far it fell to that minimum and rose after it (history=25/30 fell=8.8e+10
rose=2.17).  That reading moves with the last bits of the run, so the
line shows whether a change keeps ``test_09`` passing under the thread
count set below.  The thirteenth cell adds about 30-50 s to the run.

Two trees whose set-ups and outputs are the same bytes print the same
lines, so diffing the output of a parent checkout against that of a change
shows whether the change moved any number, the generated problems'
included:

    python tools/output_hashes.py ../parent > parent.txt
    python tools/output_hashes.py > change.txt
    diff parent.txt change.txt

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set: the
thread count orders BLAS sums, and so moves the last bits of the outputs
and of most set-ups (the generators' norms and products).
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

from triccati import generators, newton_lowrank, riccati_dense, tsylv_dense  # noqa: E402

N = 10000  # order of the factored cells
SEEDS = range(3)


def cells():
    """(label, build, solve) for every cell, in a fixed order: build()
    gives the pair (problem, metadata), solve(problem) the pair (X, report)."""
    lowrank = newton_lowrank.InexactNewtonConfig(eps=1e-6)
    dense = lambda prob: riccati_dense.solve_newton(
        prob, tol=1e-12, line_search="exact")
    factored = lambda prob: newton_lowrank.solve_inexact_newton(
        prob, lowrank)
    for seed in SEEDS:
        yield ("Ex2Dense n=300 seed=%d" % seed,
               lambda s=seed: generators.generate_ex2_dense(300, seed=s),
               dense)
    for seed in SEEDS:
        yield ("Ex1LowRank q=5 seed=%d" % seed,
               lambda s=seed: generators.generate_ex1_lowrank(
                   N, p=1, q=5, gamma=1e4, seed=s), factored)
    for q in (1, 5):
        for seed in SEEDS:
            yield ("Ex2LowRank q=%d seed=%d" % (q, seed),
                   lambda q=q, s=seed: generators.generate_ex2_lowrank(
                       N, p=1, q=q, seed=s), factored)
    test_09 = newton_lowrank.InexactNewtonConfig(eps=1e-12, max_outer=25,
                                                 m_max=30)
    yield ("Ex1LowRank n=900 q=5",
           lambda: generators.generate_ex1_lowrank(
               900, p=1, q=5, gamma=1e4, seed=0),
           lambda prob: newton_lowrank.solve_inexact_newton(prob, test_09))


def problem_data(prob):
    """The arrays that define a problem: dense A, B, C, D, or the CSC
    arrays of A and D followed by the factors B1, B2, C1, C2."""
    if isinstance(prob, riccati_dense.TRiccatiProblem):
        return [prob.A, prob.B, prob.C, prob.D]
    return ([a for op in (prob.A, prob.D)
             for a in (op.A.data, op.A.indices, op.A.indptr)]
            + [prob.B1, prob.B2, prob.C1, prob.C2])


def digest(*arrays_or_text):
    h = hashlib.sha256()
    for a in arrays_or_text:
        h.update(a.encode() if isinstance(a, str)
                 else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:10]


def main():
    for label, build, solve in cells():
        prob, meta = build()
        setup = digest(*problem_data(prob))
        X, report = solve(prob)
        factors = [X] if isinstance(X, np.ndarray) else [X.P1, X.P2]
        rows = report.trace_rows()
        per_row = lambda name: ",".join(str(r.get(name)) for r in rows)
        extra = " rel=%.1e" % report.final_relative_residual
        if "X_exact" in meta:
            Xe = meta["X_exact"]
            extra += " err=%.1e its=%s qz=%s" % (
                np.linalg.norm(X - Xe) / np.linalg.norm(Xe),
                per_row("inner_its"),
                getattr(tsylv_dense, "QZ_ROUTINE", "dgges"))
        else:
            extra += " inner=%s basis=%s dropped=%s ranks=%s" % (
                per_row("inner_its"), per_row("basis_dim"),
                per_row("dropped_cols"), per_row("rank"))
            if "inner_message" in rows[-1]:
                h = np.asarray(rows[-1]["inner_residuals"])
                j = int(np.argmin(h))
                extra += " history=%d/%d fell=%.1e rose=%.2f" % (
                    j + 1, h.size, h[0] / h[j], h[-1] / h[j])
        print("%-24s %-16s trace=%-3d rank=%-4d setup=%s X=%s trace=%s%s" % (
            label, report.status.value, len(report.iterations),
            report.solution_rank, setup, digest(*factors),
            digest(json.dumps(rows, sort_keys=True)),
            extra), flush=True)


if __name__ == "__main__":
    main()
