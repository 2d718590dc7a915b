"""Experiment harness: build a problem from a family spec (or files), run
the requested solver, audit the problem against the structural hypotheses
(dense problems at every n, factored ones up to n = 200), and serialize one
report per run as JSON or CSV.

Reports are deterministic for a fixed (spec, solver, config) triple apart
from the wall-time field, which is what the determinism test masks out.
The solvers return their failures as statuses inside the report, so a
failed solve never raises out of run_experiment.
"""

import csv
import dataclasses
import inspect
import io
import json
import pathlib

import numpy as np

from . import generators, mmio
from .lowrank import LowRankTRiccatiProblem
from .newton_lowrank import (InexactNewtonConfig, min_entry_ratio,
                             solve_inexact_newton)
from .reports import SolveReport, Status
from .riccati_dense import TRiccatiProblem, solve_fixed_point, solve_newton

__all__ = ["ProblemSpec", "RunReport", "build_problem", "run_experiment",
           "emit_report"]

_GENERATORS = {
    "Ex1Dense": generators.generate_ex1_dense,
    "Ex1LowRank": generators.generate_ex1_lowrank,
    "Ex2Dense": generators.generate_ex2_dense,
    "Ex2LowRank": generators.generate_ex2_lowrank,
}
# family -> the ProblemSpec fields it reads (its generator's parameters)
READS = {f: tuple(inspect.signature(g).parameters)
         for f, g in _GENERATORS.items()}
READS["File"] = ("path",)


@dataclasses.dataclass
class ProblemSpec:
    family: str
    n: int = 100
    p: int = 1
    q: int = 1
    gamma: float = 1e4
    seed: int = 0
    path: str = None  # File family: manifest location

    def __post_init__(self):
        if self.family not in READS:
            raise ValueError("unknown family %r (expected one of %s)"
                             % (self.family, ", ".join(READS)))
        if self.family == "File" and not self.path:
            raise ValueError("File family needs a manifest path")

    def to_dict(self):
        """The family and the fields it reads."""
        return {"family": self.family,
                **{k: getattr(self, k) for k in READS[self.family]}}


def build_problem(spec):
    """Instantiate (problem, metadata) for a spec, from its READS fields."""
    f = spec.family
    if f == "File":
        prob = mmio.load_problem(spec.path)
        return prob, {"family": "File", "path": str(spec.path)}
    for k, low in (("n", 1), ("p", 0), ("q", 0), ("seed", 0)):
        if k in READS[f] and getattr(spec, k) < low:
            raise ValueError("%s needs %s >= %d, got %s=%d"
                             % (f, k, low, k, getattr(spec, k)))
    return _GENERATORS[f](**{k: getattr(spec, k) for k in READS[f]})


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # RFC 8259 has no NaN or Infinity; the status says what happened
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


@dataclasses.dataclass
class RunReport:
    spec: ProblemSpec
    solver: str
    config: dict
    report: SolveReport
    audit: dict = None
    metadata: dict = None

    @property
    def status(self):
        return self.report.status

    def to_dict(self):
        d = {"spec": self.spec.to_dict(), "solver": self.solver,
             "config": dict(self.config)}
        d.update(self.report.to_dict())
        d["audit"] = self.audit
        d["metadata"] = self.metadata or {}
        return _jsonable(d)


# a factored problem's audit forms the dense B1 B2^T, so larger ones skip it
_AUDIT_MAX_N = 200


def _audit_problem(prob):
    """Structural-hypothesis audit; None for a factored problem above
    _AUDIT_MAX_N."""
    if isinstance(prob, LowRankTRiccatiProblem):
        if prob.n > _AUDIT_MAX_N:
            return None
        prob = TRiccatiProblem(A=prob.A.to_dense(), B=prob.B1 @ prob.B2.T,
                               C=prob.C1.T @ prob.C2, D=prob.D.to_dense())
    return prob.check_assumption1()


# solver name -> (solve function, what takes the config keys, problem class)
_SOLVERS = {
    "fixed-point": (solve_fixed_point, solve_fixed_point, TRiccatiProblem),
    "newton": (solve_newton, solve_newton, TRiccatiProblem),
    "inexact-newton": (solve_inexact_newton, InexactNewtonConfig,
                       LowRankTRiccatiProblem),
}


def solver_defaults(solver):
    """Each setting the solver takes (see run_experiment), with its default."""
    if solver not in _SOLVERS:
        raise ValueError("unknown solver %r" % (solver,))
    params = inspect.signature(_SOLVERS[solver][1]).parameters
    return {k: p.default for k, p in params.items() if k != "prob"}


def run_experiment(spec, solver, config=None):
    """One (problem, solver) cell; returns a RunReport whose status says
    whether the solve converged.  A factored solve's metadata holds the
    min_entry_ratio of the returned solution, which reads every entry
    (0.30-0.35 s at n = 10000, where an Ex2LowRank q = 5 solve takes
    0.55-0.60 s).  err_rel, the forward error against a generator's X_exact,
    measures accuracy only where the solver reached X_exact (see
    ``generate_ex2_dense``).  The audit factors (D, A) once when their
    Z-sign test passes (0.25-0.31 s at n = 300).

    config holds keyword arguments of the dense solver, or the fields of
    InexactNewtonConfig, checked before the problem is built; a key that
    is neither raises ValueError, and so does a problem whose class the
    solver does not take.  The report's config is every setting the
    solver ran with, defaults included.
    """
    config = dict(config or {})
    defaults = solver_defaults(solver)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError("unknown %s config key(s): %s (expected some of %s)"
                         % (solver, ", ".join(unknown), ", ".join(defaults)))
    config = {**defaults, **config}
    solve, takes, kind = _SOLVERS[solver]
    args = config if takes is solve else {"cfg": takes(**config)}
    prob, meta = build_problem(spec)
    if not isinstance(prob, kind):
        raise ValueError("solver %r takes a %s, got a %s"
                         % (solver, kind.__name__, type(prob).__name__))
    x_exact = meta.pop("X_exact", None)
    X, rep = solve(prob, **args)
    audit = _audit_problem(prob)
    if kind is LowRankTRiccatiProblem:
        meta["min_entry_ratio"] = min_entry_ratio(X)
    if x_exact is not None and rep.status == Status.CONVERGED:
        meta["err_rel"] = float(np.linalg.norm(X - x_exact)
                                / np.linalg.norm(x_exact))
    return RunReport(spec=spec, solver=solver, config=config, report=rep,
                     audit=audit, metadata=meta)


def emit_report(run_report, fmt="json", path=None):
    """Serialize one report; returns the text, writing it to path if given.

    CSV flattens the trace (one line per iteration, plot-ready); JSON
    carries the whole report, with null for a non-finite number.
    """
    if fmt == "json":
        text = json.dumps(run_report.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False)
    elif fmt == "csv":
        buf = io.StringIO()
        fields = ["k", "res", "rel_res", "lambda", "inner_its", "rank"]
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in run_report.report.trace_rows():
            writer.writerow(row)
        text = buf.getvalue()
    else:
        raise ValueError("format must be 'json' or 'csv', got %r" % (fmt,))
    if path is not None:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text
