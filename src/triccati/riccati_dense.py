"""Dense solvers for the nonsymmetric T-Riccati equation

    R(X) = D X + X^T A - X^T B X + C = 0.

Two iterations are provided, both started at X_0 = 0:

* ``solve_fixed_point``: X_{k+1} = X_k + N with D N + N^T A = -R(X_k),
  so D X_{k+1} + X_{k+1}^T A = X_k^T B X_k - C.  Under the sign and
  M-matrix structure checked by ``check_assumption1`` (entrywise signs and
  one T-Sylvester solve) the iterates increase monotonically (entrywise)
  to the minimal nonnegative solution.

* ``solve_newton``: Newton-Kleinman steps X_{k+1} = X_k + lam S with
  (D - X_k^T B) S + S^T (A - B X_k) = -R(X_k) and lam = 1, or lam from an
  exact line search on (0, 2].  A closing step, which the quadratic
  model predicts to end the run, reuses the previous step's
  factorization instead of forming its own.

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

from dataclasses import dataclass, field

import numpy as np

from . import dense_core
from .errors import SingularOperatorError
from .reports import Status, StepFailed, _check_setting, iterate
from .tsylv_dense import TSylvSolver

# closing step of solve_newton: its inner residual target as a share of
# tol * ||C||_F, its most back-substitutions, and the least cut of the inner
# residual one of them must make
_CLOSE_SHARE = 0.1
_CLOSE_SOLVES = 3
_CLOSE_CUT = 0.1

__all__ = [
    "TRiccatiProblem",
    "LineSearchPoly",
    "residual",
    "solve_fixed_point",
    "solve_newton",
    "line_search_poly",
    "minimize_quartic",
]


@dataclass
class TRiccatiProblem:
    """Dense problem data (A, B, C, D), all n-by-n."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if np.ndim(self.A) != 2:
            raise ValueError("A must be 2-d, got %d-d" % np.ndim(self.A))
        n = len(self.A)
        for name in "ABCD":
            M = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, M)
            if M.shape != (n, n):
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
    A minimizer within 1e-8 of 1 is returned as exactly 1, the full step,
    even when interval_end lies just below 1.
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
    lam = min(lam for lam, v in zip(candidates, vals) if v <= best + tol)
    return 1.0 if abs(lam - 1.0) <= 1e-8 else lam


def _iterate(prob, step, tol, max_iter, keep_iterates, label):
    """``reports.iterate`` from X_0 = 0 (R(X_0) = C) with X_{k+1}, lam_k,
    row_fields = step(X_k, R(X_k), ||R(X_k)||_F), the norm being the one
    the loop holds; a SingularOperatorError ends the run InnerSolveFailed
    with the warning "<label> k: ..."."""
    n = prob.n
    R_k = prob.C

    def step_k(k, X, res):
        nonlocal R_k
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                X_next, lam, row_fields = step(X, R_k, res)
                R_k = residual(prob, X_next)
                return X_next, float(np.linalg.norm(R_k)), lam, row_fields
        except SingularOperatorError as e:
            raise StepFailed(Status.INNER_SOLVE_FAILED,
                             "%s %d: %s" % (label, k + 1, e))

    # X_0 is passed, not kept, so it is released when the first step returns
    return iterate(np.zeros((n, n)), float(np.linalg.norm(R_k)),
                   np.linalg.norm(prob.C), tol, max_iter, step_k, lambda X: n,
                   keep_iterates)


def solve_fixed_point(prob, tol=1e-12, max_iter=10000, keep_iterates=False):
    """Fixed-point iteration: X_{k+1} = X_k - F^{-1} R(X_k), F the operator
    X -> D X + X^T A, so that D X_{k+1} + X_{k+1}^T A = X_k^T B X_k - C.

    Stops when ||R(X_k)||_F <= tol * ||C||_F.  The QZ factorization of F
    is computed once; each step makes one back-substitution with it.
    Returns (X, SolveReport); ``reports.iterate`` sets the report's fields.
    """
    _check_setting("tol", tol)
    _check_setting("max_iter", max_iter, count=True)
    solver = TSylvSolver(prob.D, prob.A)
    step = lambda X, R_k, res: (X - solver.solve(R_k), None,
                                {"inner_iterations": 1})
    return _iterate(prob, step, tol, max_iter, keep_iterates, "iteration")


def _closing_correction(solver, D_k, A_k, R_k, res, target):
    """Richardson iteration S <- S - F^{-1}(D_k S + S^T A_k + R_k) from S = 0,
    F the kept factorization ``solver`` and res = ||R_k||_F.  Returns (S,
    back-substitutions): S once the inner residual is at most target, None
    once a back-substitution fails to cut it by _CLOSE_CUT or _CLOSE_SOLVES
    have not reached target."""
    S = np.zeros_like(R_k)
    L = R_k
    for j in range(1, _CLOSE_SOLVES + 1):
        S -= solver.solve(L)
        L = D_k @ S + S.T @ A_k + R_k
        res, last = np.linalg.norm(L), res
        if not res <= _CLOSE_CUT * last:
            break
        if res <= target:
            return S, j
    return None, j


def solve_newton(prob, tol=1e-12, max_iter=50, line_search="off",
                 keep_iterates=False):
    """Newton-Kleinman iteration from X_0 = 0, optionally with exact line search.

    A step takes X_{k+1} = X_k + lam S, L_k(S) = D_k S + S^T A_k = -R_k for
    D_k = D - X_k^T B, A_k = A - B X_k and R_k = R(X_k); line_search "off"
    takes lam = 1, "exact" minimizes the residual-norm quartic over (0, 2]
    (``minimize_quartic``).  Stops when ||R(X_k)||_F <= tol * ||C||_F.
    Returns (X, SolveReport); ``reports.iterate`` sets the report's fields.

    A step factors L_k and solves for S by one back-substitution, except
    for a closing step.  When the quadratic model predicts that an exact
    step ends the run, ||R_k||^3 / ||R_{k-1}||^2 <= tol * ||C||_F, the step
    solves for S by Richardson iteration with the last factorization
    formed, F, S <- S - F^{-1}(L_k(S) + R_k) from S = 0, and stops
    once ||L_k(S) + R_k||_F <= 0.1 * tol * ||C||_F.  If a back-substitution
    fails to cut that inner residual tenfold, or three have not reached the
    target, the step factors L_k afresh instead.  The line search treats a
    closing step as exact, and the step differs from the exact Newton step
    by at most ||L_k^{-1}|| * 0.1 * tol * ||C||_F.  Each trace row records
    as inner_iterations its step's back-substitutions: 1 to 3 for a closing
    step, and a failed closing step's plus 1 for the factorization after it.
    """
    _check_setting("tol", tol)
    _check_setting("max_iter", max_iter, count=True)
    if line_search not in ("off", "exact"):
        raise ValueError("line_search must be 'off' or 'exact'")
    res_tol = tol * np.linalg.norm(prob.C)
    solver, last = None, None  # last factorization, last step's ||R_{k-1}||_F

    def step(X, R_k, res):
        nonlocal solver, last
        D_k, A_k = prob.D - X.T @ prob.B, prob.A - prob.B @ X
        S, solves = None, 0
        if solver is not None and res ** 3 <= res_tol * last ** 2:
            S, solves = _closing_correction(solver, D_k, A_k, R_k, res,
                                            _CLOSE_SHARE * res_tol)
        if S is None:
            solver = None  # released before the next factorization is formed
            solver = TSylvSolver(D_k, A_k)
            S = -solver.solve(R_k)
            solves += 1
        last = res
        lam = 1.0 if line_search == "off" else minimize_quartic(
            line_search_poly(R_k, 0.0, S.T @ prob.B @ S), 2.0)
        return X + lam * S, lam, {"inner_iterations": solves}

    return _iterate(prob, step, tol, max_iter, keep_iterates, "Newton step")
