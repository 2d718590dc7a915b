"""The outer loop every solver runs (``reports.iterate``), on a toy scalar
iteration X_{k+1} = X_k / 2 whose residual is |X|."""

import math

from triccati.reports import Status, StepFailed, iterate


def halve(k, X, res, lam=0.5):
    return X / 2, abs(X / 2), lam, {"basis_dim": k + 1}


def run(step=halve, X0=1.0, c_norm=2.0, tol=0.1, max_iter=10, **start_fields):
    return iterate(X0, abs(X0), c_norm, tol, max_iter, step,
                   lambda X: int(X * 100), True, **start_fields)


def test_converged_at_entry_row_carries_start_fields():
    def never(k, X, res):
        raise AssertionError("no step is taken from a converged X_0")

    X, rep = run(never, X0=0.0, basis_dim=0, nonnegative=True)
    assert rep.status is Status.CONVERGED and X == 0.0
    [row] = rep.iterations
    assert (row.k, row.step_size, row.extras["basis_dim"],
            row.extras["nonnegative"]) == (0, 0.0, 0, True)
    assert rep.iterates == [0.0] and rep.min_step_size is None
    assert rep.memory_metric == 0 and rep.final_relative_residual == 0.0


def test_steps_until_the_test_is_met():
    # |X_k| = 2^-k <= 0.1 * 2 first at k = 3
    X, rep = run()
    assert rep.status is Status.CONVERGED and X == 0.125
    assert [r.k for r in rep.iterations] == [1, 2, 3]
    assert [r.relative_residual for r in rep.iterations] == [0.25, 0.125, 0.0625]
    assert [r.iterate_rank for r in rep.iterations] == [50, 25, 12]
    assert rep.iterates == [1.0, 0.5, 0.25, 0.125]
    assert rep.solution_rank == 12 and rep.final_relative_residual == 0.0625
    assert rep.min_step_size == 0.5
    # memory_metric is the largest basis_dim of any row
    assert rep.memory_metric == 3


def test_step_reports_a_field_the_loop_does_not_name():
    def timed(k, X, res):
        X, res, lam, _ = halve(k, X, res)
        return X, res, lam, {"timings": {"inner_s": 0.1}}

    X, rep = run(timed)
    timings = [row["timings"] for row in rep.trace_rows()]
    assert timings == [{"inner_s": 0.1}] * 3


def test_max_iterations_reports_the_last_iterate():
    X, rep = run(max_iter=2)
    assert rep.status is Status.MAX_ITERATIONS and X == 0.25
    assert rep.final_relative_residual == 0.125
    X, rep = run(max_iter=0)
    assert rep.status is Status.MAX_ITERATIONS and X == 1.0
    assert rep.iterations == [] and rep.final_relative_residual == 0.5


def test_steps_without_step_sizes_read_one():
    X, rep = run(lambda k, X, res: halve(k, X, res, lam=None))
    assert [r.step_size for r in rep.iterations] == [1.0, 1.0, 1.0]
    assert rep.min_step_size is None and "min_lambda" not in rep.to_dict()


def test_min_step_size_is_the_smallest_returned():
    lams = [0.9, 0.3, 0.6]
    X, rep = run(lambda k, X, res: halve(k, X, res, lam=lams[k]))
    assert rep.min_step_size == 0.3


def test_failed_step_row_describes_the_kept_iterate():
    def fail_second(k, X, res):
        if k == 1:
            raise StepFailed(Status.INNER_SOLVE_FAILED, "step 2 failed",
                             basis_dim=7, inner_message="why")
        return halve(k, X, res)

    X, rep = run(fail_second)
    assert rep.status is Status.INNER_SOLVE_FAILED and X == 0.5
    assert rep.warnings == ["step 2 failed"]
    row = rep.iterations[-1]
    assert (row.k, row.step_size, row.residual_norm, row.relative_residual,
            row.iterate_rank) == (2, 0.0, 0.5, 0.25, 50)
    assert (row.extras["basis_dim"],
            row.extras["inner_message"]) == (7, "why")
    assert rep.memory_metric == 7 and rep.min_step_size == 0.5
    assert rep.iterates == [1.0, 0.5]


def test_failed_step_row_fields_override_residual_and_rank():
    def too_wide(k, X, res):
        raise StepFailed(Status.DIVERGED, "too wide", residual_norm=0.2,
                         iterate_rank=99)

    X, rep = run(too_wide)
    assert rep.status is Status.DIVERGED and X == 1.0
    [row] = rep.iterations
    assert (row.residual_norm, row.relative_residual, row.iterate_rank) == (0.2, 0.1, 99)
    # the report describes the X returned, not the row's
    assert rep.final_relative_residual == 0.5 and rep.solution_rank == 100
    assert rep.min_step_size is None


def test_non_finite_residual_diverges():
    def overflow(k, X, res):
        return 1e300, math.inf, 1.0, {}

    X, rep = run(overflow)
    assert rep.status is Status.DIVERGED and X == 1e300
    assert rep.warnings == ["iterate overflowed at iteration 1"]
    [row] = rep.iterations
    assert row.k == 1 and row.residual_norm == math.inf
    assert rep.final_relative_residual == math.inf


def test_zero_rhs_reads_absolute_residuals():
    X, rep = run(X0=1.0, c_norm=0.0, tol=0.1, max_iter=1)
    assert rep.iterations[0].relative_residual == 0.5
    assert rep.final_relative_residual == 0.5
