"""Dense solvers for the nonsymmetric T-Riccati equation

    R(X) = D X + X^T A - X^T B X + C = 0.

Two iterations are provided, both started at X_0 = 0:

* ``solve_fixed_point``: solve the T-Sylvester equation
  D X_{k+1} + X_{k+1}^T A = X_k^T B X_k - C each step.  Under the sign and
  M-matrix structure checked by ``check_assumption1`` (entrywise signs and
  one T-Sylvester solve) the iterates increase monotonically (entrywise)
  to the minimal nonnegative solution.

* ``solve_newton``: Newton-Kleinman steps
  (D - X_k^T B) X_{k+1} + X_{k+1}^T (A - B X_k) = -X_k^T B X_k - C,
  optionally safeguarded by an exact line search on (0, 2].

The line search minimizes the quartic

    p(lam) = ||R(X_k + lam S_k)||_F^2
           = (1-lam)^2 a + lam^2 b + lam^4 d
             + 2 lam (1-lam) g - 2 lam^2 (1-lam) e - 2 lam^3 x

built from the expansion R(X_k + lam S) = (1-lam) R_k + lam L - lam^2 S^T B S,
with a = ||R_k||^2, b = ||L||^2, g = <R_k, L>, d = ||S^T B S||^2,
e = <R_k, S^T B S>, x = <L, S^T B S>.  Note p'(0) = -2a + 2g < 0 whenever
the inner residual L is small enough relative to R_k, so a descent step
always exists.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import dense_core
from .errors import SingularOperatorError
from .reports import IterationRecord, SolveReport, Status
from .tsylv_dense import TSylvSolver

__all__ = [
    "TRiccatiProblem",
    "LineSearchPoly",
    "residual",
    "solve_fixed_point",
    "solve_newton",
    "line_search_poly",
    "minimize_quartic",
    "verify_minimality",
]


@dataclass
class TRiccatiProblem:
    """Dense problem data (A, B, C, D), all n-by-n."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        n = self.A.shape[0]
        for name in "ABCD":
            M = getattr(self, name)
            if M.ndim != 2 or M.shape != (n, n):
                raise ValueError("%s must be %d-by-%d" % (name, n, n))

    @property
    def n(self):
        return self.A.shape[0]

    def check_assumption1(self):
        """Audit the structural hypotheses: B >= 0, C <= 0, and the matrix K
        of the linear operator X -> D X + X^T A on vec(X) being a
        nonsingular M-matrix.  Returns a dict of findings.

        For n >= 2 every entry of A and every off-diagonal entry of D lands
        alone off the diagonal of K, so K is a Z-matrix exactly when
        offdiag(D) <= 0 and A <= 0 within ``default_order_tol`` of all four
        coefficients; for n = 1, K = D + A.  A Z-matrix K is a nonsingular
        M-matrix iff x = K^{-1} 1 > 0 (Berman & Plemmons, 1994, ch. 6), and
        then x >= 1 / diag(K) by the Neumann series.  So one solve of
        D X + X^T A = 1 1^T decides, with diag(K)_ij = D_ii + [i=j] A_ii;
        K itself is never formed.
        """
        tol = dense_core.default_order_tol(self.A, self.B, self.C, self.D)
        zero = np.zeros_like(self.A)
        audit = {
            "b_nonnegative": dense_core.elementwise_leq(zero, self.B, tol),
            "c_nonpositive": dense_core.elementwise_leq(self.C, zero, tol),
            "operator_m_matrix": False,
        }
        d = np.diag(self.D)
        diag_k = d[:, None] + np.diag(np.diag(self.A))
        is_z = self.n < 2 or (
            dense_core.elementwise_leq(self.D - np.diag(d), zero, tol)
            and dense_core.elementwise_leq(self.A, zero, tol))
        if is_z and np.all(diag_k > 0):
            try:
                X = TSylvSolver(self.D, self.A).solve(np.ones_like(self.A))
                audit["operator_m_matrix"] = bool(np.all(X * diag_k >= 1.0 - 1e-8))
            except SingularOperatorError:
                pass
        audit["holds"] = bool(audit["b_nonnegative"] and audit["c_nonpositive"]
                              and audit["operator_m_matrix"])
        return audit


def residual(prob, X):
    """R(X) = D X + X^T A - X^T B X + C."""
    X = np.asarray(X, dtype=float)
    return prob.D @ X + X.T @ prob.A - X.T @ prob.B @ X + prob.C


@dataclass
class LineSearchPoly:
    """Coefficients of p(lam) = ||R(X_k + lam S_k)||_F^2."""

    alpha_k: float
    beta_k: float
    gamma_k: float
    delta_k: float
    eps_k: float
    xi_k: float

    def coefficients(self):
        # p(lam) = c4 lam^4 + c3 lam^3 + c2 lam^2 + c1 lam + c0
        return (
            self.delta_k,
            2.0 * self.eps_k - 2.0 * self.xi_k,
            self.alpha_k + self.beta_k - 2.0 * self.gamma_k - 2.0 * self.eps_k,
            -2.0 * self.alpha_k + 2.0 * self.gamma_k,
            self.alpha_k,
        )

    def __call__(self, lam):
        c4, c3, c2, c1, c0 = self.coefficients()
        return np.polyval([c4, c3, c2, c1, c0], lam)


def line_search_poly(R_k, L_next, SBS):
    """Assemble the line-search quartic from residual, inner residual, and
    quadratic-term matrices (any of which may be given as 0)."""
    R_k = np.asarray(R_k, dtype=float)
    L = np.zeros_like(R_k) if np.isscalar(L_next) else np.asarray(L_next, dtype=float)
    S = np.zeros_like(R_k) if np.isscalar(SBS) else np.asarray(SBS, dtype=float)
    dot = lambda U, V: float(np.tensordot(U, V))
    return LineSearchPoly(
        alpha_k=dot(R_k, R_k),
        beta_k=dot(L, L),
        gamma_k=dot(R_k, L),
        delta_k=dot(S, S),
        eps_k=dot(R_k, S),
        xi_k=dot(L, S),
    )


def minimize_quartic(poly, interval_end):
    """argmin of the quartic over (0, interval_end].

    Finds the real roots of the cubic p', keeps those inside the interval,
    compares with the endpoint, and breaks ties toward the smaller step.
    """
    if interval_end <= 0:
        raise ValueError("interval_end must be positive")
    c4, c3, c2, c1, _ = poly.coefficients()
    dcoef = np.array([4.0 * c4, 3.0 * c3, 2.0 * c2, c1])
    scale = np.max(np.abs(dcoef))
    candidates = [float(interval_end)]
    if scale > 0:
        trimmed = dcoef / scale
        # drop numerically vanishing leading coefficients before companion roots
        nz = np.nonzero(np.abs(trimmed) > 1e-14)[0]
        if nz.size:
            trimmed = trimmed[nz[0]:]
            if trimmed.size > 1:
                for r in np.roots(trimmed):
                    if abs(r.imag) <= 1e-10 * (1.0 + abs(r.real)):
                        lam = float(r.real)
                        if 0.0 < lam <= interval_end:
                            candidates.append(lam)
    vals = [float(poly(lam)) for lam in candidates]
    best = min(vals)
    tol = 1e-12 * max(1.0, abs(best))
    return min(lam for lam, v in zip(candidates, vals) if v <= best + tol)


def _record(k, res, c_norm, lam=1.0, rank=0):
    rel = res / c_norm if c_norm > 0 else res
    return IterationRecord(k=k, residual_norm=res, relative_residual=rel,
                           step_size=lam, iterate_rank=rank)


def _iterate(prob, step, tol, max_iter, keep_iterates, label):
    """X_{k+1}, lam_k = step(X_k, R(X_k)) from X_0 = 0 until ||R(X_k)||_F
    <= tol * ||C||_F.  A SingularOperatorError ends the run with a warning
    "<label> k: ..."; lam_k = None means the iteration has no step sizes
    (records read 1, no min_step_size).  Returns (X, SolveReport)."""
    t0 = time.perf_counter()
    n = prob.n
    c_norm = np.linalg.norm(prob.C)
    X = np.zeros((n, n))
    records = []
    warnings = []
    iterates = [X.copy()] if keep_iterates else None
    status = Status.MAX_ITERATIONS
    min_lam = None
    R_k = residual(prob, X)
    res = float(np.linalg.norm(R_k))
    if res <= tol * c_norm:
        records.append(_record(0, res, c_norm, rank=n))
        status = Status.CONVERGED
    else:
        for k in range(1, max_iter + 1):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    X_next, lam = step(X, R_k)
                    R_k = residual(prob, X_next)
                    res = float(np.linalg.norm(R_k))
            except SingularOperatorError as e:
                status = Status.INNER_SOLVE_FAILED
                warnings.append("%s %d: %s" % (label, k, e))
                records.append(_record(k, res, c_norm, rank=n))
                break
            X = X_next
            if lam is None:
                lam = 1.0
            else:
                min_lam = lam if min_lam is None else min(min_lam, lam)
            records.append(_record(k, res, c_norm, lam=lam, rank=n))
            if keep_iterates:
                iterates.append(X.copy())
            if not np.isfinite(res):
                status = Status.DIVERGED
                warnings.append("iterate overflowed at iteration %d" % k)
                break
            if res <= tol * c_norm:
                status = Status.CONVERGED
                break
    report = SolveReport(
        status=status, iterations=records, wall_time=time.perf_counter() - t0,
        final_relative_residual=records[-1].relative_residual if records else np.nan,
        rhs_norm=c_norm, solution_rank=n, min_step_size=min_lam,
        warnings=warnings, iterates=iterates)
    return X, report


def solve_fixed_point(prob, tol=1e-12, max_iter=10000, keep_iterates=False):
    """Fixed-point iteration: X_{k+1} solves D X + X^T A = X_k^T B X_k - C.

    Stops when ||R(X_k)||_F <= tol * ||C||_F.  The QZ factorization of the
    (fixed) linear operator is computed once and reused every step.
    Returns (X, SolveReport).
    """
    solver = TSylvSolver(prob.D, prob.A)
    step = lambda X, R_k: (solver.solve(X.T @ prob.B @ X - prob.C), None)
    return _iterate(prob, step, tol, max_iter, keep_iterates, "iteration")


def solve_newton(prob, tol=1e-12, max_iter=50, line_search="off",
                 keep_iterates=False):
    """Newton-Kleinman iteration from X_0 = 0, optionally with exact line search.

    line_search: "off" takes the full step (lam = 1); "exact" minimizes the
    residual-norm quartic over (0, 2] (a minimizer within 1e-8 of 1 is
    recorded as exactly 1).  Stops when ||R(X_k)||_F <= tol * ||C||_F.
    Returns (X, SolveReport).
    """
    if line_search not in ("off", "exact"):
        raise ValueError("line_search must be 'off' or 'exact'")

    def step(X, R_k):
        XtB = X.T @ prob.B
        X_next = TSylvSolver(prob.D - XtB, prob.A - prob.B @ X).solve(-XtB @ X - prob.C)
        if line_search == "off":
            return X_next, 1.0
        S = X_next - X
        lam = minimize_quartic(line_search_poly(R_k, 0.0, S.T @ prob.B @ S), 2.0)
        if abs(lam - 1.0) <= 1e-8:
            lam = 1.0
        return X + lam * S, lam

    return _iterate(prob, step, tol, max_iter, keep_iterates, "Newton step")


def verify_minimality(prob, X):
    """Check X against the minimal nonnegative solution.

    Recomputes the fixed-point limit Y independently (at most 10000
    iterations) and tests X >= 0 and X <= Y entrywise within
    1e-8 * max(1, ||Y||_F).
    """
    X = np.asarray(X, dtype=float)
    Y, rep = solve_fixed_point(prob, tol=1e-12, max_iter=10000)
    if rep.status is not Status.CONVERGED:
        return False
    tol = 1e-8 * max(1.0, float(np.linalg.norm(Y)))
    return (dense_core.elementwise_leq(np.zeros_like(X), X, tol)
            and dense_core.elementwise_leq(X, Y, tol))
