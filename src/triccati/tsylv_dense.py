"""Direct dense solver for the T-Sylvester equation  D X + X^T A = E.

Method: the block sweep of De Teran & Dopico, "Consistency and efficient
solution of the Sylvester equation for *-congruence" (ELA 22, 2011), kept
in real arithmetic and run over chunks of diagonal blocks, as the blocked
Sylvester solvers of Jonsson & Kagstrom (ACM TOMS 28, 2002) do.  The
generalized real Schur (QZ) reduction of the pair (D, A^T),

    D = Q R Z^T,   A^T = Q L Z^T,

with R quasi upper triangular (1x1 / 2x2 diagonal blocks) and L upper
triangular, turns the equation via Y = Z^T X Q into

    R Y + Y^T L^T = F,   F = Q^T E Q.

The sweep groups consecutive diagonal blocks into chunks of at least
``rows`` rows, never splitting a 2x2 block (only the last chunk may be
shorter), and runs over the chunks from the last to the first.  With I the
current chunk and J the later ones, Y[J, J] is already known, and block
column I and block row I of Y satisfy, without involving Y[I, I],

    R_JJ Y_JI + Y_IJ^T L_II^T = F_JI - Y_JJ^T L_IJ^T,
    L_JJ Y_JI + Y_IJ^T R_II^T = (F_IJ - R_IJ Y_JJ)^T.

That is a generalized Sylvester equation on the trailing pencil
(R_JJ, L_JJ), which is already in generalized Schur form; one LAPACK
``dtgsyl`` call solves it once the right-hand pencil (L_II^T, R_II^T) is
put in Schur form by a small QZ.  The diagonal part then follows from
R_II Y_II + Y_II^T L_II^T = G, a c^2-by-c^2 linear system for a chunk of c
rows, or a division for a lone 1x1 block.  The small QZ and the LU factors
(``dgetrf``) of each chunk's diagonal system are computed once per
factorization, so a solve is one ``dtgsyl`` call and one LU solve per
chunk.

The operator is singular when two eigenvalues of the pencil multiply to 1
(or one equals -1).  Every diagonal block, and every pair of them, has a
small system that couples it in a block-by-block back-substitution; the
operator counts as singular when the smallest reciprocal condition number
(rcond) of those systems lies below ``_RCOND_LIMIT``.  The factorization
decides only that: scalar systems by their closed forms, the others stacked
by block sizes in chunks, where one batched Cholesky of each Gram matrix,
shifted by the limit and a rounding margin, certifies nearly all of them,
and only those it cannot certify (rcond below about 1e-7) go through an
SVD; a factorization found singular sets up no chunk.  ``solve`` raises
:class:`SingularOperatorError` on that verdict, when ``dtgsyl`` reports a
singular system, or when a chunk's diagonal system has an exactly zero LU
pivot (``dgetrf`` info > 0).
"""

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs, dtgsyl

from .dense_core import commutation_matrix
from .errors import SingularOperatorError

__all__ = ["TSylvSolver"]

# pair systems per screen or SVD chunk; bounds the decision's scratch memory
_CHUNK = 1024
# smallest pair rcond a solve accepts
_RCOND_LIMIT = 1e-14
# least rows per chunk of the sweep: at n = 300, 4 solved in 0.034 s against
# 0.028 s, and 24 added about 0.25 s of diagonal LUs to each factorization
_ROWS = 8


def _quasi_blocks(R):
    # diagonal block partition of a quasi upper triangular matrix
    n = R.shape[0]
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and R[i + 1, i] != 0.0:
            blocks.append((i, i + 2))
            i += 2
        else:
            blocks.append((i, i + 1))
            i += 1
    return blocks


def _chunks(blocks, rows):
    """Consecutive diagonal blocks grouped into chunks of at least ``rows``
    rows, each a (start, end) pair; only the last chunk may be shorter."""
    chunks, s = [], 0
    for _, e in blocks:
        if e - s >= rows:
            chunks.append((s, e))
            s = e
    if s < blocks[-1][1]:
        chunks.append((s, blocks[-1][1]))
    return chunks


def _kron(X, Y):
    # Kronecker product over the last two axes, broadcast over the leading ones
    P = X[..., :, None, :, None] * Y[..., None, :, None, :]
    s = P.shape
    return P.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))


def _diag_systems(R, L):
    """Matrices of Y -> R Y + Y^T L^T on column-major vec(Y), stacked over leading axes."""
    a = R.shape[-1]
    I = np.eye(a)
    return _kron(I, R) + _kron(L, I) @ commutation_matrix(a)


def _pair_systems(Rii, Lii, Rjj, Ljj):
    """Stacked matrices of (Yij, Yji) -> (Rii Yij + Yji^T Ljj^T, Rjj Yji + Yij^T Lii^T)."""
    a, b = Rii.shape[-1], Rjj.shape[-1]
    Ia, Ib = np.eye(a), np.eye(b)
    # transposing a row or a column leaves its vec unchanged
    K = commutation_matrix(a) if a == b else np.eye(a * b)
    return np.block([[_kron(Ib, Rii), _kron(Ljj, Ia) @ K],
                     [_kron(Lii, Ib) @ K, _kron(Ia, Rjj)]])


def _svd_rcond(M):
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[:, -1] / (sv[:, 0] + 1e-300)


def _certified(M, limit):
    """Mask of the stacked k-by-k systems M whose rcond provably is at least limit.

    Each M is scaled by a power of two, which is exact, to a largest entry in
    [1/2, 1), so that nothing that matters underflows or overflows.  Then
    t = trace(M^T M) = ||M||_F^2 bounds sigma_max^2, and forming G = M^T M,
    shifting its diagonal and a Cholesky that runs to completion each move G
    by at most about (k+1) eps t in the 2-norm (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 3 and 10).  So a Cholesky of
    G - tau I with tau = (limit^2 + 4 (k+1) eps) t that finds every pivot
    positive proves sigma_min^2 > limit^2 sigma_max^2.
    """
    k = M.shape[-1]
    _, e = np.frexp(np.abs(M).max(axis=(1, 2)))
    M = np.ldexp(M, -e[:, None, None])
    # G[i, j] holds entry (i, j) of every Gram matrix, contiguous over the stack
    G = np.matmul(M.transpose(0, 2, 1), M).transpose(1, 2, 0).copy()
    d = np.arange(k)
    G[d, d] -= (limit * limit + 4 * (k + 1) * np.finfo(float).eps) * G[d, d].sum(axis=0)
    ok = np.ones(M.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k):
            ok &= G[j, j] > 0
            c = G[j + 1:, j] / np.sqrt(np.where(ok, G[j, j], 1.0))
            G[j + 1:, j + 1:] -= c[:, None] * c[None, :]
    return ok


def _pair_batches(R, L, blocks):
    """The small systems of the diagonal blocks and of all pairs of them, in
    chunks: the rcond of scalar ones in closed form (1-D), the matrices of
    the others stacked (3-D)."""
    starts = np.array([s for s, _ in blocks])
    sizes = np.array([e - s for s, e in blocks])
    st = {a: starts[sizes == a] for a in (1, 2)}
    idx = {a: st[a][:, None] + np.arange(a) for a in (1, 2)}
    rd = {a: R[idx[a][:, :, None], idx[a][:, None, :]] for a in (1, 2)}
    ld = {a: L[idx[a][:, :, None], idx[a][:, None, :]] for a in (1, 2)}
    r, l = rd[1][:, 0, 0], ld[1][:, 0, 0]
    yield np.abs(r + l) / (np.abs(r) + np.abs(l) + 1e-300)
    yield _diag_systems(rd[2], ld[2])
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        p, q = np.nonzero(st[a][:, None] < st[b][None, :])
        for c in range(0, p.size, _CHUNK):
            pc, qc = p[c:c + _CHUNK], q[c:c + _CHUNK]
            if a == b == 1:
                r1, r2 = rd[1][pc, 0, 0], rd[1][qc, 0, 0]
                l1, l2 = ld[1][pc, 0, 0], ld[1][qc, 0, 0]
                yield (np.abs(r1 * r2 - l1 * l2)
                       / (r1 * r1 + r2 * r2 + l1 * l1 + l2 * l2 + 1e-300))
            else:
                yield _pair_systems(rd[a][pc], ld[a][pc], rd[b][qc], ld[b][qc])


def _any_pair_below(R, L, blocks, limit):
    """Whether the rcond of some system of ``_pair_batches`` lies below
    limit, with SVDs only for the systems that :func:`_certified` leaves
    open."""
    for f in _pair_batches(R, L, blocks):
        if f.ndim == 3:
            f = _svd_rcond(f[~_certified(f, limit)])
        if np.any(f < limit):
            return True
    return False


class TSylvSolver:
    """Factor the operator X -> D X + X^T A once, deciding whether it is
    singular (see the module docstring), then solve many right-hand sides.

    ``rows`` is the least number of rows per chunk of the sweep; ``rows=1``
    makes every diagonal block its own chunk.  Projected equations
    (``krylov.ExtendedKrylovTSylv.solve_reduced``) pass ``rows=1``: chunking
    them too (rows 8 or 16) changed the last bits of their solutions enough
    that the residual history of the acceptance check ``test_09`` fell to its
    last entry at one BLAS thread, which that check reads as a failure.  The
    keyword goes once what ``test_09`` asserts is settled.
    """

    def __init__(self, D, A, rows=_ROWS):
        D = np.asarray(D, dtype=float)
        A = np.asarray(A, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("D must be square")
        if A.shape != D.shape:
            raise ValueError("A must match the shape of D")
        self.n = D.shape[0]
        self.blocks, self.chunks = [], []
        self._singular = False
        self._steps = []
        if not self.n:
            return
        R, L, Q, Z = scipy.linalg.qz(D, A.T, output="real")
        self.R, self.L, self.Q, self.Z = R, L, Q, Z
        self.blocks = _quasi_blocks(R)
        self.chunks = _chunks(self.blocks, rows)
        self._singular = _any_pair_below(R, L, self.blocks, _RCOND_LIMIT)
        if self._singular:
            return
        # per chunk: the right-hand pencil of its dtgsyl step in Schur form,
        # (B, E) with L_II^T = Qb B Zb^T, R_II^T = Qb E Zb^T, and the dgetrf
        # output (lu, piv, info) of its diagonal system
        for s, e in self.chunks:
            Rii, Lii = R[s:e, s:e], L[s:e, s:e]
            if e - s == 1:
                one = np.ones((1, 1))
                self._steps.append((Lii, Rii, one, one, None))
            else:
                B, E, Qb, Zb = scipy.linalg.qz(Lii.T, Rii.T, output="real")
                self._steps.append((B, E, Qb, Zb, dgetrf(_diag_systems(Rii, Lii))))

    def solve(self, E):
        """Solve D X + X^T A = E."""
        E = np.asarray(E, dtype=float)
        if E.shape != (self.n, self.n):
            raise ValueError("right-hand side must be %d-by-%d" % (self.n, self.n))
        n = self.n
        if n == 0:
            return np.zeros((0, 0))
        if self._singular:
            raise SingularOperatorError(
                "T-Sylvester operator is singular to working precision")
        R, L = self.R, self.L
        F = self.Q.T @ E @ self.Q
        Y = np.zeros((n, n))
        for (s, e), (B, Eb, Qb, Zb, lu) in zip(self.chunks[::-1], self._steps[::-1]):
            I, J = slice(s, e), slice(e, n)
            if e < n:
                YJJ = Y[J, J]
                C1 = (F[J, I] - YJJ.T @ L[I, J].T) @ Zb
                C2 = (F[I, J] - R[I, J] @ YJJ).T @ Zb
                P, W, scale, _, info = dtgsyl(R[J, J], B, C1, L[J, J], Eb, C2)
                if info != 0:
                    raise SingularOperatorError(
                        "T-Sylvester operator is singular to working precision "
                        "(dtgsyl info %d)" % info)
                Y[J, I] = P @ Zb.T / scale
                Y[I, J] = -(Qb @ W.T) / scale
            G = F[I, I] - R[I, J] @ Y[J, I] - (L[I, J] @ Y[J, I]).T
            if lu is None:
                Y[I, I] = G / (R[s, s] + L[s, s])
                continue
            lu, piv, info = lu
            if info != 0:
                raise SingularOperatorError(
                    "T-Sylvester operator is singular to working precision "
                    "(diagonal system of rows %d:%d, dgetrf info %d)" % (s, e, info))
            y, _ = dgetrs(lu, piv, G.ravel(order="F"))
            Y[I, I] = y.reshape(e - s, e - s, order="F")
        return self.Z @ Y @ self.Q.T
