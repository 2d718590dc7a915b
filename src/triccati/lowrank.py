"""Factored-form building blocks for large sparse T-Riccati problems.

A low-rank matrix is held as a pair (P1, P2) representing P1 @ P2.T; nothing
here ever forms an n-by-n dense intermediate.  Norms and truncation go
through thin QRs of the factors (``HouseholderQR``, LAPACK's recursive
Householder QR with Q kept as reflectors) and a small core;
``lr_inner_product`` of two pairs through t-by-t Gram matrices; and solves
with low-rank-corrected operators through the Sherman-Morrison-Woodbury
identity

    (A - M N^T)^{-1} = A^{-1} + A^{-1} M (I - N^T A^{-1} M)^{-1} N^T A^{-1}.

Problem data: B = B1 @ B2.T with B1, B2 of shape (n, p); C = C1.T @ C2 with
C1, C2 of shape (q, n).  Note the transposed orientation of the C factors.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack
import scipy.sparse.linalg as spla

from .errors import SingularOperatorError

__all__ = [
    "LowRankPair",
    "zero_pair",
    "HouseholderQR",
    "hstack_f",
    "lr_frobenius_norm",
    "lr_inner_product",
    "lr_truncate",
    "svd_cut",
    "MatrixOperator",
    "ShiftedOperator",
    "LowRankTRiccatiProblem",
    "lr_riccati_residual",
    "lr_step_and_Lresidual",
    "lr_quadratic_term",
]

_RCOND_LIMIT = 1e-14  # smallest capacitance rcond a ShiftedOperator accepts
_QR_BLOCK = 32  # panel width of HouseholderQR's dgeqrt


@dataclass(frozen=True)
class LowRankPair:
    """Pair of conforming factors representing P1 @ P2.T."""

    P1: np.ndarray
    P2: np.ndarray

    def __post_init__(self):
        P1 = np.asarray(self.P1, dtype=float)
        P2 = np.asarray(self.P2, dtype=float)
        if P1.ndim != 2 or P2.ndim != 2 or P1.shape[1] != P2.shape[1]:
            raise ValueError("factors must be 2-D of one width: %r vs %r"
                             % (P1.shape, P2.shape))
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "P2", P2)

    @property
    def rank(self):
        return self.P1.shape[1]

    @property
    def shape(self):
        return (self.P1.shape[0], self.P2.shape[0])

    def to_dense(self):
        return self.P1 @ self.P2.T


def zero_pair(n):
    return LowRankPair(np.zeros((n, 0)), np.zeros((n, 0)))


def lr_inner_product(M, N):
    """Frobenius inner product <M, N> = trace(N^T M) via t-by-t Grams."""
    if M.shape != N.shape:
        raise ValueError("shape mismatch %r vs %r" % (M.shape, N.shape))
    G1 = N.P1.T @ M.P1
    G2 = M.P2.T @ N.P2
    return float(np.tensordot(G1, G2.T))


class HouseholderQR:
    """F = Q R for an n-by-k F, tall or wide, by LAPACK's recursive
    Householder QR (dgeqrt; Elmroth & Gustavson, IBM J. Res. Dev. 44
    (2000)): the algorithm of ``np.linalg.qr`` with BLAS-3 panels.

    R is min(n, k)-by-k upper trapezoidal.  Q, n-by-min(n, k) with
    orthonormal columns, is kept as its compact-WY reflectors and only
    applied (dgemqrt), never formed.
    """

    def __init__(self, F):
        n, k = F.shape
        self.n = n
        r = min(n, k)
        if r == 0:
            self.R = np.zeros((0, k))
            return
        a, self._t, info = lapack.dgeqrt(min(_QR_BLOCK, r), F)
        if info:
            raise ValueError("dgeqrt: illegal argument %d" % -info)
        self._v = a[:, :r]  # unit lower trapezoidal reflectors
        self.R = np.triu(a[:r])

    def apply(self, C):
        """Q @ C for C with min(n, k) rows; Fortran-ordered n-row result."""
        out = np.zeros((self.n, C.shape[1]), order="F")
        out[:C.shape[0]] = C
        if C.shape[0] == 0:
            return out
        out, info = lapack.dgemqrt(self._v, self._t, out, overwrite_c=1)
        if info:
            raise ValueError("dgemqrt: illegal argument %d" % -info)
        return out


def hstack_f(blocks):
    """np.hstack of column blocks, in Fortran order: the layout dgeqrt
    copies straight, where a C-ordered factor costs a transposing copy."""
    return np.concatenate([b.T for b in blocks]).T


def lr_frobenius_norm(M):
    """||P1 @ P2.T||_F without forming the product.

    Evaluated through thin QRs of both factors (orthogonal invariance),
    which stays accurate for residual pairs whose product nearly cancels
    — the Gram-trick square loses those to roundoff.
    """
    core = HouseholderQR(M.P1).R @ HouseholderQR(M.P2).R.T
    return float(np.linalg.norm(core))


def lr_truncate(M, rel_tail=0.0):
    """Recompress a pair: thin QRs P1 = Q1 R1, P2 = Q2 R2, then
    ``svd_cut`` of the small core R1 R2^T with tail budget rel_tail (see
    there); the reflectors of Q1 and Q2 are applied only to the kept
    columns, so neither Q is formed.

    Returns a pair with orthogonal-times-sqrt-singular-value balanced factors.
    """
    qr1, qr2 = HouseholderQR(M.P1), HouseholderQR(M.P2)
    G1, G2 = svd_cut(qr1.R @ qr2.R.T, rel_tail=rel_tail)
    return LowRankPair(qr1.apply(G1), qr2.apply(G2))


def svd_cut(core, tol=0.0, rel_tail=0.0):
    """The balanced cut (G1, G2) of a small core, core ~= G1 @ G2.T: SVD
    of the core, singular values at or below tol * sigma_max dropped, and
    G1 = U_k sqrt(s_k), G2 = V_k sqrt(s_k) for the kept k (possibly 0).
    A caller with core = Q1^T M Q2 lifts the cut with Q1 @ G1 and Q2 @ G2.

    rel_tail also drops the longest run of trailing singular values whose
    combined Frobenius norm, the Frobenius error of the cut, is at most
    rel_tail * ||core||_F.  At both zero only s_i with (s_i/s_0)^2 = 0 go.
    """
    U, s, Vt = np.linalg.svd(core)
    keep = 0
    if s.size and s[0] > 0.0:
        # tail2[k] = sum_{i >= k} (s_i / s_0)^2, nonincreasing in k
        tail2 = np.cumsum(((s / s[0]) ** 2)[::-1])[::-1]
        keep = min(int(np.sum(s > tol * s[0])),
                   int(np.sum(tail2 > (rel_tail ** 2) * tail2[0])))
    root = np.sqrt(s[:keep])
    return U[:, :keep] * root, Vt[:keep].T * root


class MatrixOperator:
    """Square operator held as a CSC matrix, with a cached sparse LU.

    A dense or other sparse input is converted to CSC once.  Provides
    products and solves with the matrix and its transpose; the ``splu``
    factorization is computed on first use and reused afterwards.  An
    exactly singular matrix raises SingularOperatorError at that point.
    """

    def __init__(self, A):
        self.A = sp.csc_matrix(A, dtype=float)
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("operator must be square")
        self.n = self.A.shape[0]
        self._lu = None

    def matvec(self, Y):
        return self.A @ Y

    def rmatvec(self, Y):
        return self.A.T @ Y

    def _factor(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.A)
            except RuntimeError as e:  # splu: "Factor is exactly singular"
                raise SingularOperatorError("sparse LU: %s" % e) from None
        return self._lu

    def solve(self, Y):
        return self._factor().solve(np.asarray(Y))

    def solve_t(self, Y):
        return self._factor().solve(np.asarray(Y), trans="T")

    def to_dense(self):
        return self.A.toarray()


def _as_operator(A):
    return A if isinstance(A, MatrixOperator) else MatrixOperator(A)


class ShiftedOperator:
    """base - M @ N.T with SMW solves; the capacitance I - K, with
    K = N^T base^{-1} M, is factored once.  Its rcond, kept as ``rcond``,
    is sigma_min(I - K) / (1 + ||K||_2): it falls to roundoff level when
    I - K cancels, whatever its order (a scalar 1 - k included), and
    reads 1.0 for K = 0 and for a zero-width correction.  An rcond below
    1e-14 raises SingularOperatorError: det(base - M N^T) =
    det(base) det(I - K), so the shifted operator is singular with it.

    Used for the Newton-shifted coefficients: shifts enter only through the
    low-rank term, so the base factorization is shared across steps.
    """

    def __init__(self, base, M, N):
        self.base = _as_operator(base)
        self.M = np.asarray(M, dtype=float)
        self.N = np.asarray(N, dtype=float)
        self.n = self.base.n
        self._AinvM = self.base.solve(self.M)
        self._AtinvN = self.base.solve_t(self.N)
        K = self.N.T @ self._AinvM
        cap = np.eye(K.shape[0]) - K
        k_norm = np.max(scipy.linalg.svdvals(K), initial=0.0)
        # sigma_min(I - K) <= 1 + ||K||: the initial only fills an empty cap
        smin = np.min(scipy.linalg.svdvals(cap), initial=1.0 + k_norm)
        self.rcond = float(smin / (1.0 + k_norm))
        if self.rcond < _RCOND_LIMIT:
            raise SingularOperatorError(
                "capacitance matrix is singular (rcond=%.2e)" % self.rcond)
        self._cap_lu = scipy.linalg.lu_factor(cap)

    def matvec(self, Y):
        return self.base.matvec(Y) - self.M @ (self.N.T @ Y)

    def rmatvec(self, Y):
        return self.base.rmatvec(Y) - self.N @ (self.M.T @ Y)

    def solve(self, Y):
        Z0 = self.base.solve(np.asarray(Y, dtype=float))
        corr = scipy.linalg.lu_solve(self._cap_lu, self.N.T @ Z0)
        return Z0 + self._AinvM @ corr

    def solve_t(self, Y):
        # (base - M N^T)^T = base^T - N M^T; its capacitance is the transpose
        Z0 = self.base.solve_t(np.asarray(Y, dtype=float))
        corr = scipy.linalg.lu_solve(self._cap_lu, self.M.T @ Z0, trans=1)
        return Z0 + self._AtinvN @ corr


class LowRankTRiccatiProblem:
    """T-Riccati problem with sparse A, D and factored B, C.

    B = B1 @ B2.T (factors n-by-p), C = C1.T @ C2 (factors q-by-n).
    """

    def __init__(self, A, D, B1, B2, C1, C2):
        self.A = _as_operator(A)
        self.D = _as_operator(D)
        self.B1, self.B2, self.C1, self.C2 = (
            np.asarray(M, dtype=float) for M in (B1, B2, C1, C2))
        n = self.A.n
        if self.D.n != n:
            raise ValueError("A and D dimensions differ")
        B, C = (self.B1.shape, self.B2.shape), (self.C1.shape, self.C2.shape)
        if len(B[0]) != 2 or B[0] != B[1] or B[0][0] != n:
            raise ValueError("B factors must be %d-by-p: %r vs %r" % (n, *B))
        if len(C[0]) != 2 or C[0] != C[1] or C[0][1] != n:
            raise ValueError("C factors must be q-by-%d: %r vs %r" % (n, *C))

    @property
    def n(self):
        return self.A.n

    @property
    def p(self):
        return self.B1.shape[1]

    @property
    def q(self):
        return self.C1.shape[0]

    def c_pair(self):
        return LowRankPair(self.C1.T, self.C2.T)

    def c_norm(self):
        return lr_frobenius_norm(self.c_pair())

    def shifted_coefficients(self, XBX):
        """The SMW-shifted operators

        Dhat = D - XBX.P1 B2^T,   Ahat = A - B1 XBX.P2^T

        for X^T B X = XBX, the pair ``lr_quadratic_term(X, B1, B2)`` of the
        current iterate X."""
        return (ShiftedOperator(self.D, XBX.P1, self.B2),
                ShiftedOperator(self.A, self.B1, XBX.P2))


def lr_riccati_residual(prob, X):
    """Factored residual R(X) = D X + X^T A - X^T B X + C for X = P1 P2^T.

    Width of the result: 2 t + p + q.
    """
    P1, P2 = X.P1, X.P2
    XBX = lr_quadratic_term(X, prob.B1, prob.B2)
    F1 = hstack_f([prob.D.matvec(P1), P2, -XBX.P1, prob.C1.T])
    F2 = hstack_f([P2, prob.A.rmatvec(P1), XBX.P2, prob.C2.T])
    return LowRankPair(F1, F2)


def lr_step_and_Lresidual(prob, X, X_tilde):
    """Step direction S = X_tilde - X and the inner residual

        L = (D - X^T B) X_tilde + X_tilde^T (A - B X) + X^T B X + C,

    both in factored form, L as R(X~) + S^T B S: the expansion
    R(X + lam S) = (1 - lam) R(X) + lam L - lam^2 S^T B S, on which the
    line search rests, at lam = 1.  For X of rank t, X~ of rank t~, L has
    width 2 t~ + 2 p + q.  Neither output is recompressed; a caller that
    wants a cut calls ``lr_truncate``.

    This is the explicit-form reference for L.  The solver does not call
    it: ``solve_tsylv_krylov`` returns L already in the form Lambda W^T
    with orthonormal W (``ExtendedKrylovTSylv.extract``), from which the
    line search reads its products.
    """
    S = LowRankPair(np.hstack([X_tilde.P1, -X.P1]),
                    np.hstack([X_tilde.P2, X.P2]))
    R = lr_riccati_residual(prob, X_tilde)
    SBS = lr_quadratic_term(S, prob.B1, prob.B2)
    return S, LowRankPair(hstack_f([R.P1, SBS.P1]), hstack_f([R.P2, SBS.P2]))


def lr_quadratic_term(S, B1, B2):
    """S^T B S = (S2 (S1^T B1)) (S2 (S1^T B2))^T in factored form."""
    return LowRankPair(S.P2 @ (S.P1.T @ B1), S.P2 @ (S.P1.T @ B2))
