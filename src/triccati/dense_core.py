"""Linear-algebra substrate: elementwise orderings, the commutation matrix,
and the spectral radius of a sparse nonnegative matrix.

Conventions
-----------
vec(.) stacks columns (column-major, Fortran order).  Under that convention

    commutation_matrix(n) @ vec(X) == vec(X.T)

and the matrix of the linear map X -> D X + X^T A acting on vec(X) is

    kron(I, D) + kron(A.T, I) @ commutation_matrix(n),

which the tests' brute-force oracle (``tests/oracles.py``) solves.

All elementwise comparisons in this package go through ``elementwise_leq``
with an explicit tolerance so that order-theoretic statements stay testable
in floating point.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

__all__ = [
    "elementwise_leq",
    "commutation_matrix",
    "spectral_radius",
    "default_order_tol",
]


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
