"""Experiment harness: build a problem from a family spec (or files), run
the requested solver, audit small instances against the structural
hypotheses, and serialize one report per run as JSON or CSV.

Reports are deterministic for a fixed (spec, solver, config) triple apart
from the wall-time field, which is what the determinism test masks out.
The solvers return their failures as statuses inside the report, so a
failed solve never raises out of run_experiment.
"""

import csv
import dataclasses
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
    sign_consistency: bool = True
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
    if f == "Ex1Dense":
        return generators.generate_ex1_dense(spec.n, gamma=spec.gamma,
                                             seed=spec.seed)
    if f == "Ex1LowRank":
        return generators.generate_ex1_lowrank(
            spec.n, p=spec.p, q=spec.q, gamma=spec.gamma, seed=spec.seed,
            sign_consistency=spec.sign_consistency)
    if f == "Ex2Dense":
        return generators.generate_ex2_dense(spec.n, seed=spec.seed)
    if f == "Ex2LowRank":
        return generators.generate_ex2_lowrank(
            spec.n, p=spec.p, q=spec.q, seed=spec.seed,
            sign_consistency=spec.sign_consistency)
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
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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


def _audit_problem(prob, max_n=200):
    """Structural-hypothesis audit on small instances; None when skipped."""
    if isinstance(prob, LowRankTRiccatiProblem):
        if prob.n > max_n:
            return None
        dense = TRiccatiProblem(A=prob.A.to_dense(), B=prob.B1 @ prob.B2.T,
                                C=prob.C1.T @ prob.C2, D=prob.D.to_dense())
        return dense.check_assumption1(max_n=max_n)
    if prob.n > max_n:
        return None
    return prob.check_assumption1(max_n=max_n)


def run_experiment(spec, solver, config=None):
    """One (problem, solver) cell; returns a RunReport whose status says
    whether the solve converged."""
    config = dict(config or {})
    prob, meta = build_problem(spec)
    x_exact = meta.pop("X_exact", None)
    if solver == "fixed-point":
        X, rep = solve_fixed_point(
            prob, tol=config.get("tol", 1e-12),
            max_iter=config.get("max_iter", 10000))
    elif solver == "newton":
        X, rep = solve_newton(
            prob, tol=config.get("tol", 1e-12),
            max_iter=config.get("max_iter", 50),
            line_search=config.get("line_search", "off"))
    elif solver == "inexact-newton":
        keys = ("eps", "eta_bar", "alpha", "max_outer", "m_max",
                "trunc_tol", "rank_cap")
        cfg = InexactNewtonConfig(**{k: config[k] for k in keys
                                     if k in config})
        X, rep = solve_inexact_newton(prob, cfg)
    else:
        raise ValueError("unknown solver %r" % (solver,))
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
    carries the whole report and round-trips losslessly.
    """
    if fmt == "json":
        text = json.dumps(run_report.to_dict(), indent=2, sort_keys=True)
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
