"""The workloads, the timed loop and the result of one benchmark run.

Imported by run.py once the package sources are on the path.
"""

import contextlib
import copy
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import checks
import spans
from triccati import generators, newton_lowrank, riccati_dense
from triccati.errors import TRiccatiError
from triccati.reports import Status

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

EPS = 1e-6           # stopping accuracy of the factored solves, relative to ||C||_F
DENSE_TOL = 1e-12    # stopping accuracy of the dense solve
INSTANCES = 3        # reference problem instances: generator seeds 0, 1, 2
# set-ups per run, a multiple of INSTANCES: about 1 s on the cheap workloads,
# two builds of each instance (~11 s) on lowrank-sparse, whose median is then
# the mean of two builds of instance 2 rather than a single one
SETUP_REPEATS = {"dense-newton": 90, "lowrank-krylov": 120, "lowrank-sparse": 6}
SELF_CHECK_TOL = 1e-6
# a run's solve_s never rests on a single solve: one dense-newton round is
# one ~22 s solve, and identical solves vary by up to 15% from one to the
# next on the 2-vCPU machine of README.md
MIN_ROUNDS = 2

UNITS = {"setup_s": "s", "solve_s": "s", "outer_iterations": "count",
         "solution_rank": "count", "peak_rss_mb": "MB"}


class Workload:
    """The problems of one workload, how to solve them and how to check the answers.

    The generator seed of the solved problems is --seed mod INSTANCES, so
    every run solves one of the same few reference instances; set-up is
    timed on all of them (see README.md, "Seeds").
    """

    def __init__(self, name, seed):
        self.name = name
        self.instance = seed % INSTANCES
        self.dense = name == "dense-newton"

    def build(self, instance, n=10000):
        """[(problem, meta)] of the workload; n sizes the low-rank problems."""
        if self.dense:
            return [generators.generate_ex2_dense(300, seed=instance)]
        if self.name == "lowrank-krylov":
            return [generators.generate_ex1_lowrank(n, p=1, q=5, gamma=1e4, seed=instance)]
        return [generators.generate_ex2_lowrank(n, p=1, q=q, seed=instance) for q in (1, 5)]

    def solve(self, prob):
        if self.dense:
            return riccati_dense.solve_newton(prob, tol=DENSE_TOL, line_search="exact")
        return newton_lowrank.solve_inexact_newton(
            prob, newton_lowrank.InexactNewtonConfig(eps=EPS))

    def check(self, prob, meta, X, report):
        if report.status is not Status.CONVERGED:
            return ["status %s" % report.status.value]
        if self.dense:
            return checks.check_dense(prob, meta, X, report)
        return checks.check_lowrank(prob, EPS, X, report)

    def self_check(self):
        """Largest gap between the blocked and the dense residual, at n=400."""
        if self.dense:
            return 0.0
        prob, _ = self.build(self.instance, n=400)[-1]
        X, _ = self.solve(prob)
        return checks.self_check_lowrank(prob, X, np.random.default_rng(self.instance))


def same_answer(a, b):
    """True when two (X, report) results are the same answer, bit for bit."""
    (Xa, ra), (Xb, rb) = a, b
    fa = [Xa] if isinstance(Xa, np.ndarray) else [Xa.P1, Xa.P2]
    fb = [Xb] if isinstance(Xb, np.ndarray) else [Xb.P1, Xb.P2]
    return (ra.status is rb.status and ra.trace_rows() == rb.trace_rows()
            and len(fa) == len(fb) and all(np.array_equal(x, y) for x, y in zip(fa, fb)))


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    try:
        return int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads(), "cpus": os.cpu_count()}


def run(workload, seed, seconds, trace):
    """Run one workload; returns the result object that run.py prints."""
    clock = time.perf_counter
    phases = {}
    t_phase = clock()
    wl = Workload(workload, seed)
    gap = wl.self_check()
    phases["self_check"] = clock() - t_phase
    tracer = spans.Tracer() if trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    with tracer.installed() if tracer else contextlib.nullcontext():
        # set-up cycles through the instances, starting at the one solved
        setup_s = []
        t_phase = clock()
        for k in range(SETUP_REPEATS[workload]):
            instance = (wl.instance + k) % INSTANCES
            with span("bench.setup"):
                t0 = clock()
                built = wl.build(instance)
                setup_s.append(clock() - t0)
            if instance == wl.instance:
                problems = built
            del built
        phases["setup"] = clock() - t_phase

        rounds = []  # (seconds, [(X, report) or None per problem])
        t_phase = clock()
        while len(rounds) < MIN_ROUNDS or clock() - t_phase < seconds:
            fresh = copy.deepcopy([prob for prob, _ in problems])
            outs = []
            with span("bench.solve"):
                t0 = clock()
                for prob in fresh:
                    try:
                        outs.append(wl.solve(prob))
                    except TRiccatiError as e:
                        print("solve failed: %s" % e, file=sys.stderr)
                        outs.append(None)
                round_s = clock() - t0
            rounds.append((round_s, outs))
            del fresh
        phases["solve"] = clock() - t_phase
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_phase = clock()
    attempted = failed = 0
    fails = []
    if not gap <= SELF_CHECK_TOL:
        fails.append("residual checker disagrees with the dense residual by %.2e" % gap)
    checked = {}  # problem index -> (answer, failures) of its last full check
    for _, outs in rounds:
        for i, ((prob, meta), out) in enumerate(zip(problems, outs)):
            attempted += 1
            if out is None:
                failed += 1
                continue
            if i in checked and same_answer(checked[i][0], out):
                fails += checked[i][1]
                continue
            checked[i] = (out, wl.check(prob, meta, *out))
            fails += checked[i][1]
    for f in sorted(set(fails)):
        print("check failed: %s" % f, file=sys.stderr)
    phases["check"] = clock() - t_phase

    print("%s seed %d: %d set-ups, %d rounds, round times %s, checker gap %.1e, "
          "phase seconds %s, %s"
          % (workload, seed, len(setup_s), len(rounds), ["%.3f" % s for s, _ in rounds], gap,
             {k: round(v, 2) for k, v in phases.items()}, json.dumps(environment())),
          file=sys.stderr)
    if tracer:
        metrics = tracer.layer_metrics(len(rounds), len(setup_s))
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed)))
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
    else:
        done = [[out for out in outs if out is not None] for _, outs in rounds]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "solve_s": statistics.median(s for s, _ in rounds),
            "outer_iterations": statistics.median(
                sum(len(rep.iterations) for _, rep in outs) for outs in done),
            "solution_rank": statistics.median(
                sum(rep.solution_rank for _, rep in outs) for outs in done),
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
