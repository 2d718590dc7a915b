"""Command-line harness.

Subcommands:
  generate       write a problem instance as Matrix Market files + manifest
  solve-dense    run the dense fixed-point or Newton solver on a family/file
  solve-lowrank  run the factored inexact Newton solver on a family/file
  bench          run the smoke grid of solves and write one report per cell

Exit codes: 0 when the solve converged, 2 when a solver finished without
converging (max iterations, inner failure, divergence), 1 for usage or
I/O errors.
"""

import argparse
import sys

from .reports import Status
from .runner import READS, ProblemSpec, emit_report, run_experiment

_FAMILY_BY_FLAG = {
    "ex1-dense": "Ex1Dense",
    "ex1-lowrank": "Ex1LowRank",
    "ex2-dense": "Ex2Dense",
    "ex2-lowrank": "Ex2LowRank",
}


# problem flag -> its default; a flag the source does not read (runner's
# READS) is an error, not silently dropped
_PROBLEM_FLAGS = {"n": 100, "p": 1, "q": 1, "gamma": 1e4, "seed": 0}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (2 is reserved for non-convergence)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_problem_args(p):
    p.add_argument("--problem", metavar="FILE",
                   help="manifest of a saved problem (overrides --family)")
    p.add_argument("--family", choices=sorted(_FAMILY_BY_FLAG),
                   help="generated problem family")
    for flag, default in _PROBLEM_FLAGS.items():
        p.add_argument("--" + flag, type=type(default),
                       help="default %g; only for families that read it"
                       % default)


def _add_output_args(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="DIR", help="directory for report files")


def _spec_from_args(args):
    if args.problem:
        family = "File"
    elif args.family:
        family = _FAMILY_BY_FLAG[args.family]
    else:
        raise ValueError("need --family or --problem")
    given = {f: getattr(args, f) for f in _PROBLEM_FLAGS
             if getattr(args, f) is not None}
    unread = ["--" + f for f in given if f not in READS[family]]
    if unread:
        source = "--problem" if family == "File" else "family " + family
        raise ValueError("%s does not read %s" % (source, ", ".join(unread)))
    if family == "File":
        return ProblemSpec(family="File", path=args.problem)
    values = {f: given.get(f, _PROBLEM_FLAGS[f]) for f in READS[family]}
    return ProblemSpec(family=family, **values)


def _finish(run, args, tag):
    if args.out:
        path = "%s/%s.%s" % (args.out, tag, args.format)
        emit_report(run, fmt=args.format, path=path)
        print(path)
    else:
        print(emit_report(run, fmt=args.format))
    return 0 if run.status == Status.CONVERGED else 2


def _cmd_generate(args):
    from . import mmio
    from .runner import build_problem
    spec = _spec_from_args(args)
    prob, _ = build_problem(spec)
    out = args.out or "."
    path = mmio.save_problem(out, prob, name=args.name)
    print(path)
    return 0


def _cmd_solve_dense(args):
    spec = _spec_from_args(args)
    if args.solver == "fixed-point":
        config = {"tol": args.tol, "max_iter": args.max_outer}
        solver = "fixed-point"
    else:
        ls = {"none": "off", "exact": "exact"}[args.line_search]
        config = {"tol": args.tol, "max_iter": args.max_outer,
                  "line_search": ls}
        solver = "newton"
    run = run_experiment(spec, solver, config)
    return _finish(run, args, "%s_%s" % (spec.family.lower(), solver))


def _cmd_solve_lowrank(args):
    spec = _spec_from_args(args)
    config = {"eps": args.tol, "eta_bar": args.eta_bar, "alpha": args.alpha,
              "max_outer": args.max_outer, "m_max": args.max_inner}
    run = run_experiment(spec, "inexact-newton", config)
    return _finish(run, args, "%s_inexact-newton" % spec.family.lower())


_SMOKE_CELLS = [
    (ProblemSpec(family="Ex2Dense", n=100, seed=0), "newton",
     {"tol": 1e-12, "line_search": "off"}),
    (ProblemSpec(family="Ex1Dense", n=100, seed=0), "newton",
     {"tol": 1e-12, "line_search": "exact"}),
    (ProblemSpec(family="Ex2LowRank", n=400, p=1, q=1, seed=0),
     "inexact-newton", {"eps": 1e-6}),
]


def _cmd_bench(args):
    out = args.out or "bench_out"
    worst = 0
    for i, (spec, solver, config) in enumerate(_SMOKE_CELLS):
        run = run_experiment(spec, solver, config)
        tag = "%02d_%s_%s" % (i, spec.family.lower(), solver)
        path = "%s/%s.%s" % (out, tag, args.format)
        emit_report(run, fmt=args.format, path=path)
        status = run.status.value
        rel = run.report.final_relative_residual
        print("%-40s %-16s rel_res=%.3e  %s" % (tag, status, rel, path))
        if run.status != Status.CONVERGED:
            worst = 2
    return worst


def build_parser():
    parser = _Parser(prog="triccati",
                     description="Benchmark harness for quadratic matrix "
                                 "equations with a transposed unknown")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a problem to disk")
    _add_problem_args(g)
    g.add_argument("--name", default="problem")
    g.add_argument("--out", metavar="DIR")
    g.set_defaults(func=_cmd_generate)

    d = sub.add_parser("solve-dense", help="dense solvers")
    _add_problem_args(d)
    d.add_argument("--solver", choices=("fixed-point", "newton"),
                   default="newton")
    d.add_argument("--line-search", choices=("none", "exact"),
                   default="none")
    d.add_argument("--tol", type=float, default=1e-12)
    d.add_argument("--max-outer", type=int, default=50)
    _add_output_args(d)
    d.set_defaults(func=_cmd_solve_dense)

    l = sub.add_parser("solve-lowrank", help="factored inexact Newton")
    _add_problem_args(l)
    l.add_argument("--tol", type=float, default=1e-6)
    l.add_argument("--max-outer", type=int, default=30)
    l.add_argument("--max-inner", type=int, default=50)
    l.add_argument("--eta-bar", type=float, default=0.5)
    l.add_argument("--alpha", type=float, default=0.1)
    _add_output_args(l)
    l.set_defaults(func=_cmd_solve_lowrank)

    b = sub.add_parser("bench", help="run the smoke grid")
    _add_output_args(b)
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
