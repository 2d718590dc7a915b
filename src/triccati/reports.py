"""Iteration records, solve reports, and the outer loop every solver runs."""

import operator
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["Status", "IterationRecord", "SolveReport", "StepFailed", "iterate"]


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INNER_SOLVE_FAILED = "InnerSolveFailed"
    DIVERGED = "Diverged"


@dataclass
class IterationRecord:
    """One trace row: a start that already converges (k = 0), an accepted
    outer iteration, or a failed one.

    residual_norm is the Frobenius norm of the T-Riccati residual at the
    iterate produced by this iteration; step_size is the step taken (0 at
    k = 0 and on a failure row, 1 for an iteration without step sizes);
    inner_iterations counts the inner solves (projected solves of a
    factored sweep, T-Sylvester back-substitutions of a dense step);
    iterate_rank is the rank of the iterate.  extras holds every other
    field the step reported, written to the row under its own name unless
    it is None (the factored sweep's are listed in ``newton_lowrank``).
    """

    k: int
    residual_norm: float
    relative_residual: float
    step_size: float = 0.0
    inner_iterations: int = 0
    iterate_rank: int = 0
    extras: dict = field(default_factory=dict)

    def to_row(self):
        row = {
            "k": self.k,
            "res": float(self.residual_norm),
            "rel_res": float(self.relative_residual),
            "lambda": float(self.step_size),
            "inner_its": int(self.inner_iterations),
            "rank": int(self.iterate_rank),
        }
        row.update((name, value) for name, value in self.extras.items()
                   if value is not None)
        return row


@dataclass
class SolveReport:
    """Outcome of one solver run."""

    status: Status
    iterations: list = field(default_factory=list)
    wall_time: float = 0.0
    final_relative_residual: float = np.nan
    rhs_norm: float = np.nan
    memory_metric: int = 0
    solution_rank: int = 0
    min_step_size: float | None = None
    warnings: list = field(default_factory=list)
    iterates: list | None = None

    @property
    def iteration_count(self):
        return len(self.iterations)

    def trace_rows(self):
        return [rec.to_row() for rec in self.iterations]

    def to_dict(self):
        d = {
            "status": self.status.value,
            "trace": self.trace_rows(),
            "wall_time_s": float(self.wall_time),
            "final_relative_residual": float(self.final_relative_residual),
            "rhs_norm": float(self.rhs_norm),
            "mem_dim": int(self.memory_metric),
            "solution_rank": int(self.solution_rank),
            "warnings": list(self.warnings),
        }
        if self.min_step_size is not None:
            d["min_lambda"] = float(self.min_step_size)
        return d


def _check_setting(name, value, count=False):
    """Raise ValueError naming the setting unless value >= 0 and, for an
    iteration count, a non-bool Python or numpy integer (operator.index)."""
    if count:
        try:
            operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise ValueError("%s must be an integer, got %r"
                             % (name, value)) from None
    if not value >= 0:
        raise ValueError("%s must be >= 0, got %r" % (name, value))


class StepFailed(Exception):
    """Raised by a step of ``iterate`` that cannot be taken: the run ends
    with ``status``, the warning ``message`` and a row of ``row_fields``."""

    def __init__(self, status, message, **row_fields):
        super().__init__(message)
        self.status = status
        self.row_fields = row_fields


def iterate(X, res, c_norm, tol, max_iter, step, rank, keep_iterates,
            **start_fields):
    """The outer loop of every solver; returns (X, SolveReport).

    From X_0 = X of residual norm res, step(k, X_k, res_k) gives (X_{k+1},
    res_{k+1}, lam_k, row_fields) until res_k <= tol * c_norm, for at most
    max_iter steps.  An X_0 that meets the test gives one row, k = 0, with
    start_fields; otherwise step k gives row k + 1 with row_fields, step
    lam_k (1 for None: an iteration without step sizes) and rank(X_{k+1}).
    A step that raises StepFailed ends the run with its status and warning
    and a row of step 0 at the residual and rank of the X_k kept, unless
    its row_fields override them; a non-finite residual ends it Diverged.
    Fields that are not IterationRecord's own go to the row's extras.
    The report's min_step_size is the smallest lam_k, memory_metric the
    largest basis_dim in the rows' extras, final_relative_residual that of
    X.  X holds X_k until step k returns, so X_k stays alive for the whole
    step and is released only then (never, with keep_iterates).
    """
    t0 = time.perf_counter()
    rel = lambda res: res / c_norm if c_norm > 0 else res
    records, warnings, lams = [], [], []
    iterates = [X] if keep_iterates else None

    def record(k, residual_norm, step_size=0.0, inner_iterations=0,
               iterate_rank=0, **extras):
        records.append(IterationRecord(k, residual_norm, rel(residual_norm),
                                       step_size, inner_iterations,
                                       iterate_rank, extras))

    if res <= tol * c_norm:
        status = Status.CONVERGED
        record(0, res, iterate_rank=rank(X), **start_fields)
    else:
        status = Status.MAX_ITERATIONS
        for k in range(max_iter):
            try:
                X, res, lam, row_fields = step(k, X, res)
            except StepFailed as e:
                status = e.status
                warnings.append(str(e))
                record(k + 1, **{"residual_norm": res,
                                 "iterate_rank": rank(X), **e.row_fields})
                break
            if lam is not None:
                lams.append(lam)
            record(k + 1, res, step_size=1.0 if lam is None else lam,
                   iterate_rank=rank(X), **row_fields)
            if keep_iterates:
                iterates.append(X)
            if not np.isfinite(res):
                status = Status.DIVERGED
                warnings.append("iterate overflowed at iteration %d" % (k + 1))
                break
            if res <= tol * c_norm:
                status = Status.CONVERGED
                break
    report = SolveReport(
        status=status, iterations=records, wall_time=time.perf_counter() - t0,
        final_relative_residual=rel(res), rhs_norm=c_norm,
        memory_metric=max((r.extras.get("basis_dim") or 0 for r in records),
                          default=0),
        solution_rank=rank(X), min_step_size=min(lams, default=None),
        warnings=warnings, iterates=iterates)
    return X, report
