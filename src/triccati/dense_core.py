"""Linear-algebra substrate: elementwise orderings, Kronecker forms, and the
spectral radius of a sparse nonnegative matrix.

Conventions
-----------
vec(.) stacks columns (column-major, Fortran order).  Under that convention

    commutation_matrix(n) @ vec(X) == vec(X.T)

and the matrix of the linear map X -> D X + X^T A acting on vec(X) is

    kron(I, D) + kron(A.T, I) @ commutation_matrix(n).

All elementwise comparisons in this package go through ``elementwise_leq``
with an explicit tolerance so that order-theoretic statements stay testable
in floating point.
"""

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import SingularOperatorError

__all__ = [
    "elementwise_leq",
    "commutation_matrix",
    "tsylv_kron_sparse",
    "tsylv_oracle_solve",
    "spectral_radius",
    "default_order_tol",
]

# largest order tsylv_oracle_solve accepts: its n^2-by-n^2 system holds up
# to 2 n^3 nonzeros (16e6 at n = 200) before the fill-in of its sparse LU
_ORACLE_MAX_N = 200


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("%s must be square, got shape %r" % (name, M.shape))
    return M


def default_order_tol(*mats):
    """Default tolerance for elementwise order tests: 1e-12 * max(1, scale)."""
    scale = 1.0
    for M in mats:
        scale = max(scale, np.linalg.norm(np.asarray(M, dtype=float)))
    return 1e-12 * scale


def elementwise_leq(M, N, tol=None):
    """True if M <= N holds entrywise within tol.

    tol=None picks ``default_order_tol(M, N)``.  The comparison is
    M[i,j] <= N[i,j] + tol for every entry.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.shape != N.shape:
        raise ValueError("shape mismatch %r vs %r" % (M.shape, N.shape))
    if tol is None:
        tol = default_order_tol(M, N)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return bool(np.all(N - M >= -tol))


def commutation_matrix(n):
    """Permutation K with K @ vec(X) = vec(X.T) for n-by-n X (column-major vec).

    K is its own inverse and its own transpose composed with itself:
    K @ K = I.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    K = np.zeros((n * n, n * n))
    K[_commutation_index(n)] = 1.0
    return K


def _commutation_index(n):
    # (row, column) of the ones of K: entry (i, j) of X sits at i + j n
    idx = np.arange(n * n)
    return idx, idx // n + (idx % n) * n


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


def spectral_radius(M):
    """Spectral radius of a square sparse nonnegative matrix M.

    It is the largest over the strongly connected components of M, the
    diagonal blocks of its Frobenius normal form (Berman & Plemmons, 1994):
    a singleton gives its diagonal entry, a larger component the dense
    eigenvalues of its block, so the cost is one dense eigensolve per
    component, O(m^3) time and m^2 memory for m nodes (0.1 to 0.2 s at
    m = 500).  Any other input (dense, non-square, a negative or NaN
    entry) raises ValueError.
    """
    if not (sp.issparse(M) and M.shape[0] == M.shape[1]):
        raise ValueError("spectral_radius needs a square sparse matrix")
    M = M.tocsr()
    if not np.all(M.data >= 0):
        raise ValueError("matrix must be entrywise nonnegative")
    labels = csgraph.connected_components(M, connection="strong")[1]
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    rho = float(np.max(M.diagonal(), initial=0.0))  # exact for singletons
    for c in np.flatnonzero(sizes > 1):
        idx = order[ends[c] - sizes[c]:ends[c]]
        vals = np.linalg.eigvals(M[idx][:, idx].toarray())
        rho = max(rho, float(np.max(np.abs(vals))))
    return rho
