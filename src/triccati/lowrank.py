"""Factored-form building blocks for large sparse T-Riccati problems.

A low-rank matrix is held as a pair (P1, P2) representing P1 @ P2.T; nothing
here ever forms an n-by-n dense intermediate.  Norms and inner products go
through t-by-t Gram matrices, truncation through a QR + small SVD, and
solves with low-rank-corrected operators through the
Sherman-Morrison-Woodbury identity

    (A - M N^T)^{-1} = A^{-1} + A^{-1} M (I - N^T A^{-1} M)^{-1} N^T A^{-1}.

Problem data: B = B1 @ B2.T with B1, B2 of shape (n, p); C = C1.T @ C2 with
C1, C2 of shape (q, n).  Note the transposed orientation of the C factors.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularCapacitanceError

__all__ = [
    "LowRankPair",
    "zero_pair",
    "lr_frobenius_norm",
    "lr_inner_product",
    "lr_truncate",
    "svd_cut",
    "smw_solve",
    "MatrixOperator",
    "ShiftedOperator",
    "LowRankTRiccatiProblem",
    "lr_riccati_residual",
    "lr_step_and_Lresidual",
    "lr_quadratic_term",
]


@dataclass(frozen=True)
class LowRankPair:
    """Pair of conforming factors representing P1 @ P2.T."""

    P1: np.ndarray
    P2: np.ndarray

    def __post_init__(self):
        P1 = np.atleast_2d(np.asarray(self.P1, dtype=float))
        P2 = np.atleast_2d(np.asarray(self.P2, dtype=float))
        if P1.shape[1] != P2.shape[1]:
            raise ValueError("factor widths differ: %r vs %r"
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

    def scaled(self, c):
        return LowRankPair(self.P1, c * self.P2)


def zero_pair(n, m=None):
    m = n if m is None else m
    return LowRankPair(np.zeros((n, 0)), np.zeros((m, 0)))


def lr_inner_product(M, N):
    """Frobenius inner product <M, N> = trace(N^T M) via t-by-t Grams."""
    if M.shape != N.shape:
        raise ValueError("shape mismatch %r vs %r" % (M.shape, N.shape))
    G1 = N.P1.T @ M.P1
    G2 = M.P2.T @ N.P2
    return float(np.tensordot(G1, G2.T))


def lr_frobenius_norm(M):
    """||P1 @ P2.T||_F without forming the product.

    Evaluated through thin QRs of both factors (orthogonal invariance),
    which stays accurate for residual pairs whose product nearly cancels
    — the Gram-trick square loses those to roundoff.
    """
    if M.rank == 0:
        return 0.0
    R1 = np.linalg.qr(M.P1, mode="r")
    R2 = np.linalg.qr(M.P2, mode="r")
    return float(np.linalg.norm(R1 @ R2.T))


def lr_truncate(M, tol=1e-12, rel_tail=None):
    """Recompress a pair: economy QR of both factors, then ``svd_cut`` of
    the small core R1 R2^T (see there for tol and rel_tail).

    Returns a pair with orthogonal-times-sqrt-singular-value balanced factors.
    """
    if M.rank == 0:
        return M
    Q1, R1 = np.linalg.qr(M.P1)
    Q2, R2 = np.linalg.qr(M.P2)
    return svd_cut(Q1, R1 @ R2.T, Q2, tol, rel_tail)


def svd_cut(Q1, core, Q2, tol, rel_tail=None):
    """Q1 @ core @ Q2.T as a balanced pair, for Q1, Q2 with orthonormal
    columns: SVD of the small core, singular values at or below
    tol * sigma_max dropped.

    rel_tail, when given, also drops the longest run of trailing singular
    values whose combined Frobenius norm sqrt(sum s_i^2) is at most
    rel_tail * ||core||_F; that is exactly the Frobenius error of the cut.
    """
    n1, n2 = Q1.shape[0], Q2.shape[0]
    U, s, Vt = np.linalg.svd(core)
    if s.size == 0 or s[0] == 0.0:
        return zero_pair(n1, n2)
    keep = int(np.sum(s > tol * s[0]))
    if rel_tail is not None:
        # tail2[k] = sum_{i >= k} (s_i / s_0)^2, nonincreasing in k
        tail2 = np.cumsum(((s / s[0]) ** 2)[::-1])[::-1]
        keep = min(keep, int(np.sum(tail2 > (rel_tail ** 2) * tail2[0])))
    if keep == 0:
        return zero_pair(n1, n2)
    root = np.sqrt(s[:keep])
    return LowRankPair(Q1 @ (U[:, :keep] * root), Q2 @ (Vt[:keep].T * root))


class MatrixOperator:
    """Sparse or dense square operator with cached direct factorization.

    Provides products and solves with the matrix and its transpose; the
    factorization is computed on first use and reused afterwards.
    """

    def __init__(self, A):
        if sp.issparse(A):
            self.A = A.tocsc()
            self._sparse = True
        else:
            self.A = np.asarray(A, dtype=float)
            self._sparse = False
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
            if self._sparse:
                self._lu = spla.splu(self.A)
            else:
                self._lu = scipy.linalg.lu_factor(self.A)
        return self._lu

    def solve(self, Y):
        lu = self._factor()
        if self._sparse:
            return lu.solve(np.asarray(Y))
        return scipy.linalg.lu_solve(lu, Y)

    def solve_t(self, Y):
        lu = self._factor()
        if self._sparse:
            return lu.solve(np.asarray(Y), trans="T")
        return scipy.linalg.lu_solve(lu, Y, trans=1)

    def to_dense(self):
        return self.A.toarray() if self._sparse else self.A


def _as_operator(A):
    return A if isinstance(A, MatrixOperator) else MatrixOperator(A)


def smw_solve(A_op, M, N, Y, rcond_limit=1e-14):
    """Solve (A - M N^T) Z = Y through the base factorization of A.

    One-shot form of :class:`ShiftedOperator`: a capacitance reciprocal
    condition estimate below rcond_limit raises SingularCapacitanceError.
    """
    return ShiftedOperator(A_op, M, N, rcond_limit).solve(Y)


class ShiftedOperator:
    """base - M @ N.T with SMW solves; capacitance data is precomputed once.

    Used for the Newton-shifted coefficients: shifts enter only through the
    low-rank term, so the base factorization is shared across steps.
    """

    def __init__(self, base, M, N, rcond_limit=1e-14):
        self.base = _as_operator(base)
        self.M = np.asarray(M, dtype=float)
        self.N = np.asarray(N, dtype=float)
        self.n = self.base.n
        self._trivial = self.M.size == 0 or self.N.size == 0
        if not self._trivial:
            self._AinvM = self.base.solve(self.M)
            self._AtinvN = self.base.solve_t(self.N)
            cap = np.eye(self.M.shape[1]) - self.N.T @ self._AinvM
            sv = scipy.linalg.svdvals(cap)
            rcond = float(sv[-1] / (sv[0] + 1e-300)) if sv.size else 0.0
            if rcond < rcond_limit:
                raise SingularCapacitanceError(
                    "capacitance matrix is singular (rcond=%.2e)" % rcond)
            self._cap_lu = scipy.linalg.lu_factor(cap)

    def matvec(self, Y):
        out = self.base.matvec(Y)
        if not self._trivial:
            out = out - self.M @ (self.N.T @ Y)
        return out

    def rmatvec(self, Y):
        out = self.base.rmatvec(Y)
        if not self._trivial:
            out = out - self.N @ (self.M.T @ Y)
        return out

    def solve(self, Y):
        Z0 = self.base.solve(np.asarray(Y, dtype=float))
        if self._trivial:
            return Z0
        corr = scipy.linalg.lu_solve(self._cap_lu, self.N.T @ Z0)
        return Z0 + self._AinvM @ corr

    def solve_t(self, Y):
        # (base - M N^T)^T = base^T - N M^T; its capacitance is the transpose
        Z0 = self.base.solve_t(np.asarray(Y, dtype=float))
        if self._trivial:
            return Z0
        corr = scipy.linalg.lu_solve(self._cap_lu, self.M.T @ Z0, trans=1)
        return Z0 + self._AtinvN @ corr

    def to_dense(self):
        out = self.base.to_dense()
        if not self._trivial:
            out = out - self.M @ self.N.T
        return out


class LowRankTRiccatiProblem:
    """T-Riccati problem with sparse A, D and factored B, C.

    B = B1 @ B2.T (factors n-by-p), C = C1.T @ C2 (factors q-by-n).
    """

    def __init__(self, A, D, B1, B2, C1, C2):
        self.A = _as_operator(A)
        self.D = _as_operator(D)
        self.B1 = np.atleast_2d(np.asarray(B1, dtype=float))
        self.B2 = np.atleast_2d(np.asarray(B2, dtype=float))
        self.C1 = np.atleast_2d(np.asarray(C1, dtype=float))
        self.C2 = np.atleast_2d(np.asarray(C2, dtype=float))
        n = self.A.n
        if self.D.n != n:
            raise ValueError("A and D dimensions differ")
        if self.B1.shape != self.B2.shape or self.B1.shape[0] != n:
            raise ValueError("B factors must be n-by-p")
        if self.C1.shape != self.C2.shape or self.C1.shape[1] != n:
            raise ValueError("C factors must be q-by-n")

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
    F1 = np.hstack([prob.D.matvec(P1), P2, -XBX.P1, prob.C1.T])
    F2 = np.hstack([P2, prob.A.rmatvec(P1), XBX.P2, prob.C2.T])
    return LowRankPair(F1, F2)


def lr_step_and_Lresidual(prob, X, X_tilde, trunc_tol=None):
    """Step direction S = X_tilde - X and the inner residual

        L = (D - X^T B) X_tilde + X_tilde^T (A - B X) + X^T B X + C,

    both in factored form.  L concatenates the six term-by-term blocks of
    that sum; either output is optionally recompressed when trunc_tol is
    given.
    """
    P1, P2 = X.P1, X.P2
    T1, T2 = X_tilde.P1, X_tilde.P2
    alpha = P1.T @ prob.B1
    beta = P1.T @ prob.B2
    alpha_t = T1.T @ prob.B1
    beta_t = T1.T @ prob.B2
    S = LowRankPair(np.hstack([T1, -P1]), np.hstack([T2, P2]))
    L1 = np.hstack([
        prob.D.matvec(T1),        # D X~
        -P2 @ (alpha @ beta_t.T),  # - X^T B X~
        T2,                        # X~^T A
        T2,                        # - X~^T B X
        P2 @ alpha,                # + X^T B X
        prob.C1.T,                 # + C
    ])
    L2 = np.hstack([
        T2,
        T2,
        prob.A.rmatvec(T1),
        -P2 @ (beta @ alpha_t.T),
        P2 @ beta,
        prob.C2.T,
    ])
    L = LowRankPair(L1, L2)
    if trunc_tol is not None:
        S = lr_truncate(S, trunc_tol)
        L = lr_truncate(L, trunc_tol)
    return S, L


def lr_quadratic_term(S, B1, B2):
    """S^T B S = (S2 (S1^T B1)) (S2 (S1^T B2))^T in factored form."""
    return LowRankPair(S.P2 @ (S.P1.T @ B1), S.P2 @ (S.P1.T @ B2))
