"""Iteration records and solve reports shared by all solvers."""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["Status", "IterationRecord", "SolveReport"]


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INNER_SOLVE_FAILED = "InnerSolveFailed"
    DIVERGED = "Diverged"


@dataclass
class IterationRecord:
    """One accepted outer iteration.

    residual_norm is the Frobenius norm of the T-Riccati residual at the
    iterate produced by this iteration; step_size is the line-search step
    (1 when no search ran); rank_before_cut is the width of a factored
    iterate before its truncation to iterate_rank; inner_residuals keeps
    the per-expansion history of the inner projected solver when one was
    used, basis_dim the order of its last projected equation,
    dropped_cols the candidate columns it dropped, capacitance_rcond the
    smaller rcond of its two SMW capacitance matrices, and inner_message
    why it failed (on a failure row only); nonnegative and min_entry_ratio
    observe the sign of factored iterates.
    """

    k: int
    residual_norm: float
    relative_residual: float
    step_size: float = 1.0
    inner_iterations: int = 0
    iterate_rank: int = 0
    rank_before_cut: int | None = None
    inner_residuals: list | None = None
    nonnegative: bool | None = None
    min_entry_ratio: float | None = None
    basis_dim: int | None = None
    dropped_cols: int | None = None
    capacitance_rcond: float | None = None
    inner_message: str | None = None

    def to_row(self):
        row = {
            "k": self.k,
            "res": float(self.residual_norm),
            "rel_res": float(self.relative_residual),
            "lambda": float(self.step_size),
            "inner_its": int(self.inner_iterations),
            "rank": int(self.iterate_rank),
        }
        if self.rank_before_cut is not None:
            row["rank_before_cut"] = int(self.rank_before_cut)
        if self.inner_residuals is not None:
            row["inner_residuals"] = [float(r) for r in self.inner_residuals]
        if self.nonnegative is not None:
            row["nonnegative"] = bool(self.nonnegative)
        if self.min_entry_ratio is not None:
            row["min_entry_ratio"] = float(self.min_entry_ratio)
        if self.basis_dim is not None:
            row["basis_dim"] = int(self.basis_dim)
        if self.dropped_cols is not None:
            row["dropped_cols"] = int(self.dropped_cols)
        if self.capacitance_rcond is not None:
            row["capacitance_rcond"] = float(self.capacitance_rcond)
        if self.inner_message is not None:
            row["inner_message"] = self.inner_message
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
