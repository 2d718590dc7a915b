"""Dense linear-algebra substrate: orderings, Kronecker forms, M-matrix tests.

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

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import ConvergenceError, SingularOperatorError

__all__ = [
    "MatrixClass",
    "elementwise_leq",
    "commutation_matrix",
    "tsylv_kron_matrix",
    "tsylv_kron_sparse",
    "classify_m_matrix",
    "tsylv_oracle_solve",
    "spectral_radius",
    "default_order_tol",
]

# components up to this order get dense eigvals (about 0.1 s at order 500)
_DENSE_COMPONENT_MAX = 500


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("%s must be square, got shape %r" % (name, M.shape))
    return M


def default_order_tol(*mats):
    """Default tolerance for elementwise order tests: 1e-12 * max(1, scale)."""
    scale = 1.0
    for M in mats:
        if sp.issparse(M):
            nrm = spla.norm(M)
        else:
            nrm = np.linalg.norm(np.asarray(M, dtype=float))
        scale = max(scale, nrm)
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
    if M.size == 0:
        return True
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


def tsylv_kron_matrix(D, A):
    """Dense matrix of X -> D X + X^T A on column-major vec(X).

    The result is n^2-by-n^2; intended for desk-scale verification only.
    """
    return tsylv_kron_sparse(_as_square(D, "D"), _as_square(A, "A")).toarray()


def tsylv_kron_sparse(D, A):
    """Sparse form of ``tsylv_kron_matrix`` (n^3-scale storage, not n^4)."""
    D = sp.csr_matrix(D) if not sp.issparse(D) else D.tocsr()
    A = sp.csr_matrix(A) if not sp.issparse(A) else A.tocsr()
    if D.shape[0] != D.shape[1] or D.shape != A.shape:
        raise ValueError("D and A must be square with matching shapes")
    n = D.shape[0]
    I = sp.identity(n, format="csr")
    return (sp.kron(I, D, format="csr")
            + sp.kron(A.T, I, format="csr") @ _commutation_sparse(n))


@dataclass
class MatrixClass:
    """Result of the Z-matrix / nonsingular M-matrix classification.

    (s, rho_n) record the splitting M = s I - N and the spectral radius of
    N >= 0 that decided the test.
    """

    is_z_matrix: bool
    is_nonsingular_m_matrix: bool
    s: float
    rho_n: float


def _power_radius_nonneg(matvec, n, tol=1e-8, max_iter=10000):
    """Spectral radius of an (entrywise) nonnegative operator by power iteration.

    Returns (rho, converged).  Stagnation of the norm-ratio estimate over a
    few consecutive steps is the convergence test.
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    stable = 0
    for _ in range(max_iter):
        w = matvec(v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0, True
        if abs(nrm - lam) <= tol * max(nrm, 1e-300):
            stable += 1
            if stable >= 3:
                return nrm, True
        else:
            stable = 0
        lam = nrm
        v = w / nrm
    return lam, False


def _arpack_radius(M, max_iter):
    """Largest eigenvalue magnitude of sparse M by ARPACK, deterministic start."""
    try:
        vals = spla.eigs(M, k=1, which="LM", v0=np.ones(M.shape[0]),
                         return_eigenvectors=False, maxiter=max_iter)
    except (spla.ArpackNoConvergence, spla.ArpackError) as e:
        raise ConvergenceError("spectral radius estimate failed: %s" % e) from None
    return float(np.max(np.abs(vals)))


def _perron_root(M, tol=1e-8, max_iter=10000, boundary=None):
    """Spectral radius of a sparse nonnegative CSR matrix M.

    It is the largest over the strongly connected components of M, the
    diagonal blocks of its Frobenius normal form (Berman & Plemmons, 1994).
    Singletons give their diagonal entry, components of at most
    _DENSE_COMPONENT_MAX nodes a dense eigensolve, and a larger one C the
    power iteration on the primitive C + I.  ARPACK sharpens that value when
    it did not converge (raising ConvergenceError if ARPACK fails too) or
    when it lies within 1e-6 relative of ``boundary``.
    """
    labels = csgraph.connected_components(M, connection="strong")[1]
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    rho = float(np.max(np.abs(M.diagonal())))  # exact for singletons
    for c in np.flatnonzero(sizes > 1):
        idx = order[ends[c] - sizes[c]:ends[c]]
        C = M[idx][:, idx]
        if idx.size <= _DENSE_COMPONENT_MAX:
            rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(C.toarray())))))
            continue
        lam, ok = _power_radius_nonneg(lambda v: C @ v + v, idx.size, tol,
                                       max_iter)
        lam -= 1.0
        if not ok or (boundary is not None
                      and abs(boundary - lam) <= 1e-6 * boundary):
            try:
                lam = _arpack_radius(C, max_iter)
            except ConvergenceError:
                if not ok:
                    raise
        rho = max(rho, lam)
    return rho


def classify_m_matrix(M, tol=None):
    """Classify a square matrix as Z-matrix / nonsingular M-matrix.

    Writes M = s I - N with s = max(diag) + 1 so that N >= 0 whenever M is
    a Z-matrix, then decides by comparing the spectral radius of N, taken
    from N's strongly connected components (``_perron_root``), with s.
    Dense input is converted to CSR first, so dense and sparse forms of
    one matrix classify alike.
    """
    M = sp.csr_matrix(M, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    diag = M.diagonal()
    if tol is None:
        tol = 1e-12 * max(1.0, spla.norm(M))
    off = M - sp.diags(diag)
    off_max = off.data.max() if off.nnz else 0.0
    s = float(diag.max()) + 1.0 if n else 1.0
    is_z = bool(off_max <= tol)
    if not is_z or n == 0:
        return MatrixClass(is_z, False, s, np.nan)
    rho = _perron_root((sp.diags(np.full(n, s)) - M).tocsr(), boundary=s)
    return MatrixClass(True, bool(rho < s), s, float(rho))


def tsylv_oracle_solve(D, A, rhs, cap=200):
    """Solve D X + X^T A = rhs by brute force on the n^2-by-n^2 system.

    Reference oracle for cross-checking structured solvers; refuses
    dimensions above ``cap`` rather than thrash memory.
    """
    D = _as_square(D, "D")
    A = _as_square(A, "A")
    rhs = _as_square(rhs, "rhs")
    n = D.shape[0]
    if not (D.shape == A.shape == rhs.shape):
        raise ValueError("D, A, rhs must share one square shape")
    if n > cap:
        raise ValueError("oracle refuses n=%d > cap=%d" % (n, cap))
    b = rhs.flatten(order="F")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if n <= 40:
            K = tsylv_kron_matrix(D, A)
            try:
                x = scipy.linalg.solve(K, b)
            except scipy.linalg.LinAlgError as e:
                raise SingularOperatorError("oracle system is singular: %s" % e)
        else:
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
            "oracle solve inaccurate; operator is near singular",
            rcond=resid / bn)
    return x.reshape((n, n), order="F")


def spectral_radius(M, tol=1e-8, max_iter=10000):
    """Spectral radius of M.

    Dense inputs use a full eigensolve (the iteration tolerance is then
    irrelevant).  Sparse nonnegative inputs go by strongly connected
    components (``_perron_root``); general sparse inputs of order above 2
    through an Arnoldi largest-magnitude eigensolve with a deterministic
    start, smaller ones densely.
    """
    if sp.issparse(M):
        M = M.tocsr()
        if M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        if M.nnz == 0:
            return 0.0
        if np.all(M.data >= 0):
            return _perron_root(M, tol, max_iter)
        if M.shape[0] > 2:  # ARPACK's eigs(k=1) needs k < n - 1
            return _arpack_radius(M, max_iter)
        M = M.toarray()
    M = _as_square(M)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))
