"""Command-line harness.

Subcommands:
  generate       write a problem instance as Matrix Market files + manifest
  solve-dense    run the dense fixed-point or Newton solver on a family/file
  solve-lowrank  run the factored inexact Newton solver on a family/file

The CLI keeps no defaults of its own.  A problem flag the user leaves out
takes ProblemSpec's default, and a solver flag the user leaves out is not
passed on, so the solver's signature supplies it; each flag's help names
the parameter it sets.  A flag the chosen family or solver does not read
is an error.

Exit codes: 0 when the solve converged, 2 when a solver finished without
converging (max iterations, inner failure, divergence), 1 for usage or
I/O errors.
"""

import argparse
import dataclasses
import sys

from . import mmio
from .reports import Status
from .runner import (READS, ProblemSpec, build_problem, emit_report,
                     run_experiment, solver_defaults)

_FAMILY_BY_FLAG = {
    "ex1-dense": "Ex1Dense",
    "ex1-lowrank": "Ex1LowRank",
    "ex2-dense": "Ex2Dense",
    "ex2-lowrank": "Ex2LowRank",
}

# a flag the source does not read (runner's READS) is an error, not
# silently dropped
_PROBLEM_FLAGS = ("n", "p", "q", "gamma", "seed")

# subcommand -> (its solvers, default first; {flag: the parameter it sets})
_SOLVE_FLAGS = {
    "solve-dense": (("newton", "fixed-point"),
                    {"tol": "tol", "max-outer": "max_iter",
                     "line-search": "line_search"}),
    "solve-lowrank": (("inexact-newton",),
                      {"tol": "eps", "max-outer": "max_outer",
                       "max-inner": "m_max", "eta-bar": "eta_bar",
                       "alpha": "alpha"}),
}
_LINE_SEARCH = {"none": "off", "exact": "exact"}  # CLI -> solve_newton


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
    defaults = {f.name: f.default for f in dataclasses.fields(ProblemSpec)}
    for flag in _PROBLEM_FLAGS:
        p.add_argument("--" + flag, type=type(defaults[flag]),
                       help="default %g; only for families that read it"
                       % defaults[flag])


def _add_solver_args(p, command):
    solvers, flags = _SOLVE_FLAGS[command]
    p.set_defaults(func=_cmd_solve, solver=solvers[0])
    if len(solvers) > 1:
        p.add_argument("--solver", choices=sorted(solvers),
                       help="default %s" % solvers[0])
    for flag, param in flags.items():
        found = {s: solver_defaults(s)[param] for s in solvers
                 if param in solver_defaults(s)}
        shown = ", ".join("%s for %s" % (v, s) for s, v in found.items())
        kind = type(next(iter(found.values())))
        choices = list(_LINE_SEARCH) if param == "line_search" else None
        p.add_argument("--" + flag, dest=param, type=kind, choices=choices,
                       help="sets %s (default %s)" % (param, shown))


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
    return ProblemSpec(family=family, path=args.problem, **given)


def _cmd_generate(args):
    prob, _ = build_problem(_spec_from_args(args))
    print(mmio.save_problem(args.out, prob, name=args.name))
    return 0


def _cmd_solve(args):
    spec = _spec_from_args(args)
    config = {param: getattr(args, param)
              for param in _SOLVE_FLAGS[args.command][1].values()
              if getattr(args, param) is not None}
    if "line_search" in config:
        config["line_search"] = _LINE_SEARCH[config["line_search"]]
    run = run_experiment(spec, args.solver, config)
    path = None
    if args.out:
        path = "%s/%s_%s.%s" % (args.out, spec.family.lower(), args.solver,
                                args.format)
    text = emit_report(run, fmt=args.format, path=path)
    print(path or text)
    return 0 if run.status == Status.CONVERGED else 2


def build_parser():
    parser = _Parser(prog="triccati",
                     description="Benchmark harness for quadratic matrix "
                                 "equations with a transposed unknown")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a problem to disk")
    _add_problem_args(g)
    g.add_argument("--name", default="problem")
    g.add_argument("--out", metavar="DIR", default=".")
    g.set_defaults(func=_cmd_generate)

    for command, text in (("solve-dense", "dense solvers"),
                          ("solve-lowrank", "factored inexact Newton")):
        s = sub.add_parser(command, help=text)
        _add_problem_args(s)
        _add_solver_args(s, command)
        s.add_argument("--format", choices=("json", "csv"), default="json")
        s.add_argument("--out", metavar="DIR",
                       help="directory for report files")
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
