"""Correctness checks computed apart from the solvers, with plain numpy/scipy.

Nothing here calls a triccati function: residuals are formed from the
problem data and the returned factors directly.  No nonnegativity check is
made, since neither problem family meets the sign hypotheses that would
guarantee it (A_jj > 0 puts positive off-diagonals in the Kronecker form).
"""

import numpy as np
import scipy.sparse as sp

DENSE_RES_TOL = 1e-12   # ||R(X)||_F <= DENSE_RES_TOL * ||C||_F
DENSE_ERR_TOL = 1e-8    # ||X - X_exact||_F <= DENSE_ERR_TOL * ||X_exact||_F
REPORT_AGREEMENT = 1e-2  # recomputed vs reported relative residual, relative gap
BLOCK = 256              # columns per residual block at large n


def dense_residual_norm(A, B, C, D, X):
    """||D X + X^T A - X^T B X + C||_F, fully formed."""
    return float(np.linalg.norm(D @ X + X.T @ A - X.T @ B @ X + C))


def check_dense(prob, meta, X, report):
    """Failures (as strings) of a dense Newton solve; empty when all hold."""
    fails = []
    c_norm = float(np.linalg.norm(prob.C))
    res = dense_residual_norm(prob.A, prob.B, prob.C, prob.D, X)
    if not res <= DENSE_RES_TOL * c_norm:
        fails.append("residual %.3e > %.0e * ||C||_F" % (res / c_norm, DENSE_RES_TOL))
    Xe = meta["X_exact"]
    err = float(np.linalg.norm(X - Xe) / np.linalg.norm(Xe))
    if not err <= DENSE_ERR_TOL:
        fails.append("forward error %.3e > %.0e" % (err, DENSE_ERR_TOL))
    # the exact line search never lets the residual norm grow; step 0 is X = 0
    history = [c_norm] + [r.residual_norm for r in report.iterations]
    for k in range(1, len(history)):
        if history[k] > history[k - 1]:
            fails.append("residual grew at step %d: %.3e -> %.3e"
                         % (k, history[k - 1], history[k]))
    return fails


def lowrank_residual_norms(A, D, B1, B2, C1, C2, P1, P2, block=BLOCK):
    """(||R(X)||_F, ||C||_F) for X = P1 P2^T, one column block at a time.

    R = D X + X^T A - X^T B X + C with B = B1 B2^T and C = C1^T C2.  With
    M = (P1^T B1)(B2^T P1), its column block is

        R[:, J] = (D P1 - P2 M) P2[J]^T + P2 (A[:, J]^T P1)^T + C1^T C2[:, J],

    formed as one dense n-by-|J| product from the sparse A, D and the raw
    factors, so no n-by-n array is ever held.  ||C||_F comes from the q-by-q
    Gram matrices of C1 and C2.
    """
    n = P1.shape[0]
    A = sp.csc_matrix(A)
    M = (P1.T @ B1) @ (B2.T @ P1)
    left = np.hstack([sp.csr_matrix(D) @ P1 - P2 @ M, P2, C1.T])
    r2 = 0.0
    for j0 in range(0, n, block):
        J = slice(j0, min(j0 + block, n))
        RJ = left @ np.vstack([P2[J].T, (A[:, J].T @ P1).T, C2[:, J]])
        r2 += float(np.vdot(RJ, RJ))
    c2 = float(np.sum((C1 @ C1.T) * (C2 @ C2.T)))
    return np.sqrt(r2), np.sqrt(c2)


def _problem_arrays(prob):
    return prob.A.A, prob.D.A, prob.B1, prob.B2, prob.C1, prob.C2


def check_lowrank(prob, eps, X, report):
    """Failures (as strings) of a factored inexact Newton solve."""
    res, c_norm = lowrank_residual_norms(*_problem_arrays(prob), X.P1, X.P2)
    rel = res / c_norm
    fails = []
    if not rel <= eps:
        fails.append("residual %.3e > eps = %.0e" % (rel, eps))
    reported = report.final_relative_residual
    if not abs(rel - reported) <= REPORT_AGREEMENT * rel:
        fails.append("reported relative residual %.4e, recomputed %.4e" % (reported, rel))
    return fails


def self_check_lowrank(prob, X, rng):
    """Compare the blocked residual with a fully formed dense one at small n.

    Done twice: at the given X (a solution, where the residual nearly
    cancels) and at a random rank-7 pair (where it does not).  Returns the
    largest relative gap between the two evaluations.
    """
    A, D, B1, B2, C1, C2 = _problem_arrays(prob)
    n = X.P1.shape[0]
    Ad, Dd, B, C = A.toarray(), D.toarray(), B1 @ B2.T, C1.T @ C2
    gaps = []
    for P1, P2 in [(X.P1, X.P2), (rng.standard_normal((n, 7)), rng.standard_normal((n, 7)))]:
        blocked, c_norm = lowrank_residual_norms(A, D, B1, B2, C1, C2, P1, P2, block=64)
        Xd = P1 @ P2.T
        full = dense_residual_norm(Ad, B, C, Dd, Xd)
        gaps.append(abs(blocked - full) / full)
        gaps.append(abs(c_norm - np.linalg.norm(C)) / np.linalg.norm(C))
    return max(gaps)
