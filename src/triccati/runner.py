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
from .newton_lowrank import InexactNewtonConfig, solve_inexact_newton
from .reports import SolveReport, Status
from .riccati_dense import TRiccatiProblem, solve_fixed_point, solve_newton

__all__ = ["ProblemSpec", "RunReport", "build_problem", "run_experiment",
           "emit_report"]

_FAMILIES = ("Ex1Dense", "Ex1LowRank", "Ex2Dense", "Ex2LowRank", "File")


@dataclasses.dataclass
class ProblemSpec:
    family: str
    n: int = 0
    p: int = 1
    q: int = 1
    gamma: float = 1e4
    seed: int = 0
    path: str = None  # File family: manifest location

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError("unknown family %r (expected one of %s)"
                             % (self.family, ", ".join(_FAMILIES)))
        if self.family == "File" and not self.path:
            raise ValueError("File family needs a manifest path")

    def to_dict(self):
        d = dataclasses.asdict(self)
        if d["path"] is None:
            del d["path"]
        return d


def build_problem(spec):
    """Instantiate (problem, metadata) for a spec."""
    f = spec.family
    if f != "File" and spec.n < 1:
        raise ValueError("%s needs n >= 1, got n=%d" % (f, spec.n))
    if f != "File" and spec.seed < 0:
        raise ValueError("%s needs seed >= 0, got seed=%d" % (f, spec.seed))
    if f == "Ex1Dense":
        return generators.generate_ex1_dense(spec.n, gamma=spec.gamma,
                                             seed=spec.seed)
    if f == "Ex1LowRank":
        return generators.generate_ex1_lowrank(
            spec.n, p=spec.p, q=spec.q, gamma=spec.gamma, seed=spec.seed)
    if f == "Ex2Dense":
        return generators.generate_ex2_dense(spec.n, seed=spec.seed)
    if f == "Ex2LowRank":
        return generators.generate_ex2_lowrank(
            spec.n, p=spec.p, q=spec.q, seed=spec.seed)
    prob = mmio.load_problem(spec.path)
    return prob, {"family": "File", "path": str(spec.path)}


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
    if callable(obj):  # e.g. an eta_schedule in the config
        try:
            return "%s.%s" % (obj.__module__, obj.__qualname__)
        except AttributeError:
            return repr(obj)
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


def run_experiment(spec, solver, config=None):
    """One (problem, solver) cell; returns a RunReport whose status says
    whether the solve converged.

    config holds keyword arguments of the dense solver, or the fields of
    InexactNewtonConfig; a key that is neither raises ValueError, and so
    does a problem whose class the solver does not take.
    """
    config = dict(config or {})
    if solver not in _SOLVERS:
        raise ValueError("unknown solver %r" % (solver,))
    solve, takes, kind = _SOLVERS[solver]
    keys = [k for k in inspect.signature(takes).parameters if k != "prob"]
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError("unknown %s config key(s): %s (expected some of %s)"
                         % (solver, ", ".join(unknown), ", ".join(keys)))
    prob, meta = build_problem(spec)
    if not isinstance(prob, kind):
        raise ValueError("solver %r takes a %s, got a %s"
                         % (solver, kind.__name__, type(prob).__name__))
    x_exact = meta.pop("X_exact", None)
    if takes is solve:
        X, rep = solve(prob, **config)
    else:
        X, rep = solve(prob, takes(**config))
    audit = _audit_problem(prob)
    if x_exact is not None and rep.status == Status.CONVERGED:
        Xd = X.to_dense() if hasattr(X, "to_dense") else X
        meta["err_rel"] = float(np.linalg.norm(Xd - x_exact)
                                / np.linalg.norm(x_exact))
    return RunReport(spec=spec, solver=solver, config=config, report=rep,
                     audit=_jsonable(audit) if audit else None,
                     metadata=_jsonable(meta))


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
