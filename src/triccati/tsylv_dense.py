"""Direct dense solver for the T-Sylvester equation  D X + X^T A = E.

Method: the block sweep of De Teran & Dopico, "Consistency and efficient
solution of the Sylvester equation for *-congruence" (ELA 22, 2011), kept
in real arithmetic.  The generalized real Schur (QZ) reduction of the pair
(D, A^T),

    D = Q R Z^T,   A^T = Q L Z^T,

with R quasi upper triangular (1x1 / 2x2 diagonal blocks) and L upper
triangular, turns the equation via Y = Z^T X Q into

    R Y + Y^T L^T = F,   F = Q^T E Q.

The solve sweeps the diagonal blocks from the last to the first.  With I
the current block and J the later ones, Y[J, J] is already known, and
block column I and block row I of Y satisfy, without involving Y[I, I],

    R_JJ Y_JI + Y_IJ^T L_II^T = F_JI - Y_JJ^T L_IJ^T,
    L_JJ Y_JI + Y_IJ^T R_II^T = (F_IJ - R_IJ Y_JJ)^T.

That is a generalized Sylvester equation on the trailing pencil
(R_JJ, L_JJ), which is already in generalized Schur form; one LAPACK
``dtgsyl`` call solves it.  For a 2x2 block the right-hand pencil
(L_II^T, R_II^T) is first put in Schur form by a 2x2 QZ.  The diagonal
block then follows from R_II Y_II + Y_II^T L_II^T = G, a division or a
4x4 system.  Both small transformations are computed once per
factorization, so a solve is one LAPACK call per diagonal block.

The operator is singular when two eigenvalues of the pencil multiply to 1
(or one equals -1).  The factorization computes, for every pair of
diagonal blocks, the reciprocal condition number of the small system that
couples the pair in a block-by-block back-substitution, stacked by block
sizes and batched through one SVD per chunk.  ``solve`` raises
:class:`SingularOperatorError` when the smallest lies below
``rcond_limit``, or when ``dtgsyl`` reports a singular system, and can
re-evaluate the residual of the returned X.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtgsyl

from .dense_core import commutation_matrix
from .errors import SingularOperatorError

__all__ = ["TSylvInfo", "TSylvSolver", "solve_tsylv_dense", "solve_tsylv_shifted"]

# pair systems per batched SVD; bounds the scratch memory of the rcond check
_CHUNK = 1024


@dataclass
class TSylvInfo:
    relative_residual: float
    rcond_estimate: float


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


def _min_pair_rcond(R, L, blocks):
    """Smallest reciprocal condition number over the diagonal blocks and all
    pairs of them: closed forms for scalar blocks, SVDs otherwise."""
    starts = np.array([s for s, _ in blocks])
    sizes = np.array([e - s for s, e in blocks])
    st = {a: starts[sizes == a] for a in (1, 2)}
    idx = {a: st[a][:, None] + np.arange(a) for a in (1, 2)}
    rd = {a: R[idx[a][:, :, None], idx[a][:, None, :]] for a in (1, 2)}
    ld = {a: L[idx[a][:, :, None], idx[a][:, None, :]] for a in (1, 2)}
    found = [1.0]
    r, l = rd[1][:, 0, 0], ld[1][:, 0, 0]
    found.append(np.abs(r + l) / (np.abs(r) + np.abs(l) + 1e-300))
    found.append(_svd_rcond(_diag_systems(rd[2], ld[2])))
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        p, q = np.nonzero(st[a][:, None] < st[b][None, :])
        for c in range(0, p.size, _CHUNK):
            pc, qc = p[c:c + _CHUNK], q[c:c + _CHUNK]
            if a == b == 1:
                r1, r2 = rd[1][pc, 0, 0], rd[1][qc, 0, 0]
                l1, l2 = ld[1][pc, 0, 0], ld[1][qc, 0, 0]
                found.append(np.abs(r1 * r2 - l1 * l2)
                             / (r1 * r1 + r2 * r2 + l1 * l1 + l2 * l2 + 1e-300))
            else:
                found.append(_svd_rcond(_pair_systems(
                    rd[a][pc], ld[a][pc], rd[b][qc], ld[b][qc])))
    return float(min(np.min(f, initial=1.0) for f in found))


class TSylvSolver:
    """Factor the operator X -> D X + X^T A once, then solve many right-hand sides."""

    def __init__(self, D, A, rcond_limit=1e-14):
        D = np.asarray(D, dtype=float)
        A = np.asarray(A, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("D must be square")
        if A.shape != D.shape:
            raise ValueError("A must match the shape of D")
        self.n = D.shape[0]
        self.D = D
        self.A = A
        self.rcond_limit = rcond_limit
        self.blocks = []
        self.rcond = 1.0
        if not self.n:
            return
        R, L, Q, Z = scipy.linalg.qz(D, A.T, output="real")
        self.R, self.L, self.Q, self.Z = R, L, Q, Z
        self.blocks = _quasi_blocks(R)
        self.rcond = _min_pair_rcond(R, L, self.blocks)
        # per block: the right-hand pencil of its dtgsyl step in Schur form,
        # (B, E) with L_II^T = Qb B Zb^T, R_II^T = Qb E Zb^T, and the LU
        # factors of its diagonal system
        self._steps = []
        for s, e in self.blocks:
            Rii, Lii = R[s:e, s:e], L[s:e, s:e]
            if e - s == 1:
                one = np.ones((1, 1))
                self._steps.append((Lii, Rii, one, one, None))
            else:
                B, E, Qb, Zb = scipy.linalg.qz(Lii.T, Rii.T, output="real")
                lu = scipy.linalg.lu_factor(_diag_systems(Rii, Lii))
                self._steps.append((B, E, Qb, Zb, lu))

    def solve(self, E, return_info=False):
        """Solve D X + X^T A = E.

        With return_info=True also returns :class:`TSylvInfo` carrying the
        re-evaluated relative residual and the smallest reciprocal condition
        number among the diagonal-block pair systems.
        """
        E = np.asarray(E, dtype=float)
        if E.shape != (self.n, self.n):
            raise ValueError("right-hand side must be %d-by-%d" % (self.n, self.n))
        n = self.n
        if n == 0:
            X = np.zeros((0, 0))
            return (X, TSylvInfo(0.0, 1.0)) if return_info else X
        if self.rcond < self.rcond_limit:
            raise SingularOperatorError(
                "T-Sylvester operator is singular to working precision",
                rcond=self.rcond)
        R, L = self.R, self.L
        F = self.Q.T @ E @ self.Q
        Y = np.zeros((n, n))
        for (s, e), (B, Eb, Qb, Zb, lu) in zip(self.blocks[::-1], self._steps[::-1]):
            I, J = slice(s, e), slice(e, n)
            if e < n:
                YJJ = Y[J, J]
                C1 = (F[J, I] - YJJ.T @ L[I, J].T) @ Zb
                C2 = (F[I, J] - R[I, J] @ YJJ).T @ Zb
                P, W, scale, _, info = dtgsyl(R[J, J], B, C1, L[J, J], Eb, C2)
                if info != 0:
                    raise SingularOperatorError(
                        "T-Sylvester operator is singular to working precision "
                        "(dtgsyl info %d)" % info, rcond=self.rcond)
                Y[J, I] = P @ Zb.T / scale
                Y[I, J] = -(Qb @ W.T) / scale
            G = F[I, I] - R[I, J] @ Y[J, I] - (L[I, J] @ Y[J, I]).T
            if lu is None:
                Y[I, I] = G / (R[s, s] + L[s, s])
            else:
                Y[I, I] = scipy.linalg.lu_solve(lu, G.ravel(order="F")).reshape(2, 2, order="F")
        X = self.Z @ Y @ self.Q.T
        if not return_info:
            return X
        en = np.linalg.norm(E)
        res = np.linalg.norm(self.D @ X + X.T @ self.A - E)
        rel = res / en if en > 0 else res
        return X, TSylvInfo(rel, self.rcond)


def solve_tsylv_dense(D, A, E, return_info=False, rcond_limit=1e-14):
    """One-shot solve of D X + X^T A = E via QZ reduction of (D, A^T)."""
    return TSylvSolver(D, A, rcond_limit=rcond_limit).solve(E, return_info=return_info)


def solve_tsylv_shifted(D, A, U1, U2, E, return_info=False, rcond_limit=1e-14):
    """Solve (D - U1) X + X^T (A - U2) = E.

    Convenience wrapper for the shifted pencils arising in Newton steps; the
    residual contract matches :func:`solve_tsylv_dense` on the shifted data.
    """
    D = np.asarray(D, dtype=float)
    A = np.asarray(A, dtype=float)
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    return solve_tsylv_dense(D - U1, A - U2, E, return_info=return_info,
                             rcond_limit=rcond_limit)
