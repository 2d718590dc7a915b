"""Brute-force references for the T-Sylvester operator X -> D X + X^T A,
against which the tests check the structured solvers, and a check of a
dense T-Riccati solution against the minimal nonnegative one.

Under the column-major vec of ``triccati.dense_core``, the operator's matrix
is kron(I, D) + kron(A.T, I) @ commutation_matrix(n), n^2-by-n^2.
``min_pair_rcond`` is the exact minimum that ``tsylv_dense`` screens its
small back-substitution systems against.
"""

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from triccati.dense_core import _commutation_index, elementwise_leq
from triccati.errors import SingularOperatorError
from triccati.reports import Status
from triccati.riccati_dense import solve_fixed_point
from triccati.tsylv_dense import _pair_batches, _svd_rcond

# largest order tsylv_oracle_solve accepts: its n^2-by-n^2 system holds up
# to 2 n^3 nonzeros (16e6 at n = 200) before the fill-in of its sparse LU
_ORACLE_MAX_N = 200


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("%s must be square, got shape %r" % (name, M.shape))
    return M


def _commutation_sparse(n):
    return sp.csr_matrix((np.ones(n * n), _commutation_index(n)),
                         shape=(n * n, n * n))


def tsylv_kron_sparse(D, A):
    """Sparse n^2-by-n^2 matrix of X -> D X + X^T A on column-major vec(X)
    (n^3-scale storage, not n^4)."""
    D = sp.csr_matrix(D) if not sp.issparse(D) else D.tocsr()
    A = sp.csr_matrix(A) if not sp.issparse(A) else A.tocsr()
    if D.shape[0] != D.shape[1] or D.shape != A.shape:
        raise ValueError("D and A must be square with matching shapes")
    n = D.shape[0]
    I = sp.identity(n, format="csr")
    return (sp.kron(I, D, format="csr")
            + sp.kron(A.T, I, format="csr") @ _commutation_sparse(n))


def tsylv_oracle_solve(D, A, rhs):
    """Solve D X + X^T A = rhs by a sparse LU of the n^2-by-n^2 system.

    Reference oracle for cross-checking structured solvers; refuses
    dimensions above ``_ORACLE_MAX_N`` rather than thrash memory.
    """
    D = _as_square(D, "D")
    A = _as_square(A, "A")
    rhs = _as_square(rhs, "rhs")
    n = D.shape[0]
    if not (D.shape == A.shape == rhs.shape):
        raise ValueError("D, A, rhs must share one square shape")
    if n > _ORACLE_MAX_N:
        raise ValueError("oracle refuses n=%d > %d" % (n, _ORACLE_MAX_N))
    b = rhs.flatten(order="F")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        K = tsylv_kron_sparse(D, A).tocsc()
        x = spla.spsolve(K, b)
        if not np.all(np.isfinite(x)):
            raise SingularOperatorError("oracle system is singular")
        kx = K @ x
    bn = np.linalg.norm(b)
    resid = np.linalg.norm(kx - b)
    # NaN-proof comparison: anything not provably small counts as singular
    if bn > 0 and not resid <= 1e-8 * bn:
        raise SingularOperatorError(
            "oracle solve inaccurate (relative residual %.2e); operator is "
            "near singular" % (resid / bn))
    return x.reshape((n, n), order="F")


def min_pair_rcond(R, L, blocks):
    """Smallest reciprocal condition number over the diagonal blocks and all
    pairs of them (closed forms for scalar blocks, SVDs otherwise); the
    reference for ``tsylv_dense._any_pair_below``."""
    return float(min(np.min(f if f.ndim == 1 else _svd_rcond(f), initial=1.0)
                     for f in _pair_batches(R, L, blocks)))


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
    return (elementwise_leq(np.zeros_like(X), X, tol)
            and elementwise_leq(X, Y, tol))
