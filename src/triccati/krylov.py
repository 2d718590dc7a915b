"""Projection solver for shifted T-Sylvester equations in factored form,

    Dhat Xt + Xt^T Ahat + rhs1 @ rhs2.T = 0,

with Dhat = D - X^T B, Ahat = A - B X the Newton-shifted coefficients.

Two bases are grown jointly: V spans an extended Krylov space driven by
Ahat^{-T} Dhat (forward chain) and Dhat^{-1} Ahat^T (inverse chain), seeded
with [Ahat^{-T} H, Dhat^{-1} H] where H stacks the right-hand-side factors;
W orthonormalizes Ahat^T V block by block, so that span(W) contains the
columns of H and the Petrov-Galerkin condition W^T (residual) W = 0 reduces
the equation to

    T Y + Y^T K = -G1 @ G2.T,   T = W^T Dhat V,  K = V^T Ahat W = U^T,

where Ahat^T V = W U is maintained exactly by construction.  The norm of
the lifted residual of X_m = V Y W^T then needs tall-skinny products only:
``ExtendedKrylovTSylv.residual_norm`` evaluates it through ||F Y|| with
F = Dhat V - W T (its docstring says why no shortcut is taken).  The same
split gives the residual of the cut solution itself in the form
Lambda W^T (``ExtendedKrylovTSylv.extract``): a converged solve hands it
to the outer iteration, whose line search reads its products from the
n-by-l factor Lambda and the orthonormal W without forming or
factorizing anything wider.

Both bases are orthonormalized by ``_orth``, with one rule for what is
new: block classical Gram-Schmidt with one re-orthogonalization pass, then
the SVD of the remainder's Householder triangle.  The engine starts from
the empty space and grows only in ``ExtendedKrylovTSylv.stage``, the seed
being its first stage; that method states when a stage grows and when it
finds nothing new.
"""

import numpy as np

from .errors import TRiccatiError
from .lowrank import (HouseholderQR, LowRankPair, hstack_f, svd_cut,
                      lr_frobenius_norm, lr_quadratic_term, zero_pair)
from .tsylv_dense import TSylvSolver

__all__ = ["ExtendedKrylovTSylv", "solve_tsylv_krylov"]

# a new block whose sigma_min/sigma_max falls to this is numerically dependent
_BREAKDOWN_TOL = 1e-12
_EXTRACT_TOL = 1e-12  # extract drops sigma_i(Y) <= this * sigma_max(Y)


def _orth(Q, C):
    """(qr, coeffs, U, k) for block C against orthonormal Q: two classical
    Gram-Schmidt passes give C = Q @ coeffs + C_orth, qr is the Householder
    QR of C_orth and U, s the SVD of qr.R.  k = 0 unless s[0] > 1e-14 *
    max(1, ||C||_F), the norm before orthogonalization, so a block in
    span(Q) keeps nothing at any scale; else k counts the s above
    _BREAKDOWN_TOL * s[0], and qr.apply(U[:, :k]) spans the new directions.
    """
    scale = np.linalg.norm(C)
    P = Q.T @ C
    C = C - Q @ P
    P2 = Q.T @ C
    C = C - Q @ P2
    qr = HouseholderQR(C)
    U, s, _ = np.linalg.svd(qr.R)
    k = 0
    if s.size and s[0] > 1e-14 * max(1.0, scale):
        k = int(np.sum(s > _BREAKDOWN_TOL * s[0]))
    return qr, P + P2, U, k


class ExtendedKrylovTSylv:
    """Joint (V, W) extended Krylov bases for one shifted equation.

    Starts from the empty space; the first ``stage`` grows it by the seed
    [Ahat^{-T} H, Dhat^{-1} H], and each later one continues both chains.
    """

    def __init__(self, dhat, ahat, H, rhs1, rhs2):
        self.dhat = dhat
        self.ahat = ahat
        self._rhs1 = rhs1
        self._rhs2 = rhs2
        self.dropped_cols = 0
        # the empty space; the first stage grows the seed
        self.V = self.DV = self.W = np.zeros((H.shape[0], 0))
        self.T = self.U = np.zeros((0, 0))
        self.G1, self.G2 = rhs1[:0], rhs2[:0]
        # each chain's last block times the coefficient its next candidates
        # solve with: (Dhat V_f, Ahat^T V_i), kept by stage; H for the seed
        self._heads = (H, H)

    ell = property(lambda self: self.V.shape[1])  # order of the space built
    built_dim = ell

    def _basis(self, C, Q):
        """Orthonormal basis of what ``_orth`` finds new in C against
        span(Q); the columns it drops are added to dropped_cols."""
        qr, _, U, k = _orth(Q, C)
        self.dropped_cols += C.shape[1] - k
        return qr.apply(U[:, :k])

    def stage(self):
        """Grow the space by the next block pair of V and W.

        The forward chain's candidates are Ahat^{-T} Dhat times its last
        block and the inverse chain's Dhat^{-1} Ahat^T times its; the first
        stage, the seed, takes Ahat^{-T} H and Dhat^{-1} H.  Each chain keeps
        what ``_orth`` finds new against the space (the inverse chain's
        also against the forward chain's new columns) and counts the rest
        in dropped_cols; a chain with no surviving columns stops advancing.
        The surviving block's W image must be new in full.  Returns True
        when the space grew; False, leaving it unchanged, when no genuinely
        new direction exists -- invariant space, the whole of R^n spanned,
        or a W image of lower rank under an effectively singular
        coefficient, which marks the pair construction as saturated.
        """
        if self.ell >= self.V.shape[0]:
            return False
        fwd, inv = self._heads
        Qf = self._basis(self.ahat.solve_t(fwd), self.V)
        Qi = self._basis(self.dhat.solve(inv), hstack_f([self.V, Qf]))
        Qn = np.hstack([Qf, Qi])
        if Qn.shape[1] == 0:
            return False
        AQ = self.ahat.rmatvec(Qn)
        qr, coeffs, _, k = _orth(self.W, AQ)
        if k < AQ.shape[1]:
            return False
        Wn, R = qr.apply(np.eye(k)), qr.R
        del qr  # its n-by-k reflectors need not outlive Wn
        DQ = self.dhat.matvec(Qn)
        self.absorb(Qn, DQ, Wn, coeffs, R)
        self._heads = DQ[:, :Qf.shape[1]], AQ[:, Qf.shape[1]:]
        return True

    def solve_reduced(self):
        """Solve T Y + Y^T K = -G1 G2^T on the active space."""
        # one chunk per diagonal block: see TSylvSolver on rows
        return TSylvSolver(self.T, self.U.T, rows=1).solve(-self.G1 @ self.G2.T)

    def residual_norm(self, Y):
        """Frobenius norm of the lifted residual of X = V Y W^T, from
        tall-skinny products only (no n-by-n quantity is formed).

        Splitting Dhat V = W T + F with F = Dhat V - W T orthogonal to W,
        the residual separates into the in-span reduced residual and the
        out-of-span remainder:

            ||R||^2 = ||T Y + Y^T U^T + G1 G2^T||^2 + ||F Y||^2.

        The coupling-block shortcut ||tau Y|| (tau = Wn^T Dhat V) is the
        second term with F replaced by Wn Wn^T Dhat V; that replacement is
        exact only while Dhat V stays inside span(W, Wn), a containment the
        inverse-chain recurrence slowly loses as new directions become
        nearly dependent.  Evaluating F Y directly keeps the value honest
        at every stage, saturated or not, at one extra tall product.
        """
        red, FY = self._split(Y)
        return float(np.hypot(np.linalg.norm(red), np.linalg.norm(FY)))

    def _split(self, Y):
        """(red, F Y) for X = V Y W^T: the reduced residual
        T Y + Y^T U^T + G1 G2^T and F Y = Dhat V Y - W T Y, so that the
        lifted residual is (W red + F Y) W^T."""
        TY = self.T @ Y
        red = TY + Y.T @ self.U.T + self.G1 @ self.G2.T
        FY = self.DV @ Y
        FY -= self.W @ TY
        return red, FY

    def absorb(self, Qn, DVn, Wn, coeffs, R):
        """Append the block pair (Qn, Wn) to V, DV, W and the projected
        data, where Ahat^T Qn = W @ coeffs + Wn @ R (``_orth``); R is upper
        triangular, and so is U."""
        self.T = np.block([[self.T, self.W.T @ DVn],
                           [Wn.T @ self.DV, Wn.T @ DVn]])
        # V and W keep their QR blocks' Fortran order: contiguous columns
        self.V = hstack_f([self.V, Qn])
        self.DV = np.hstack([self.DV, DVn])
        self.U = np.block([[self.U, coeffs],
                           [np.zeros((R.shape[0], self.U.shape[1])), R]])
        self.G1 = np.vstack([self.G1, Wn.T @ self._rhs1])
        self.G2 = np.vstack([self.G2, Wn.T @ self._rhs2])
        self.W = hstack_f([self.W, Wn])

    def extract(self, Y):
        """Lift and recompress Y, and the lifted residual of the result.

        Returns (pair, L).  pair is X = V Yc W^T as a LowRankPair, where
        Yc = G1 G2^T is Y less its singular values at or below
        _EXTRACT_TOL * sigma_max(Y).  L is the lifted residual of that pair,
        Dhat X + X^T Ahat + rhs1 rhs2^T, as LowRankPair(Lambda, W): by the
        split of ``residual_norm``,

            Lambda = W (T Yc + Yc^T U^T + G1p G2p^T) + (Dhat V Yc - W T Yc)

        with G1p, G2p the projected right-hand-side factors, and W keeps
        orthonormal columns, so ||L|| = ||Lambda|| and
        <M1 M2^T, L> = <M1^T Lambda, M2^T W> for any pair.
        """
        G1, G2 = svd_cut(Y, _EXTRACT_TOL)
        red, lam = self._split(G1 @ G2.T)
        lam += self.W @ red  # in place: one n-by-l array fewer at the peak
        return (LowRankPair(self.V @ G1, self.W @ G2),
                LowRankPair(lam, self.W))


def solve_tsylv_krylov(prob, X, tol_abs, m_max=50):
    """Solve the Newton-step equation at iterate X by extended Krylov projection.

    Each of at most m_max passes grows the space (the first by the seed),
    solves the projected equation, evaluates its lifted-residual norm once
    (``ExtendedKrylovTSylv.residual_norm``) and tests it against tol_abs
    (absolute), so no block is built that no projected solve uses.  Returns
    (Xt, L, row).  Xt is the solution pair and L its lifted residual as
    LowRankPair(Lambda, W) with orthonormal W (see
    ``ExtendedKrylovTSylv.extract``); both are None when the tolerance was
    not met within m_max passes, when a stage found nothing new (the space
    is exhausted, at dimension 0 when the seed gave nothing), or when a
    numerical failure (singular shifted coefficient, singular reduced
    equation) stopped the solve.  row holds the trace-row fields of the
    solve: inner_iterations, the number of projected solves;
    inner_residuals, the lifted-residual norm after each; basis_dim, the
    order of the last one; dropped_cols, the candidate columns that fell
    into the space already built and were dropped, over every stage, the
    seed included, also when the seed left the space empty;
    capacitance_rcond, the smaller of the two SMW capacitance rconds of
    the shifted coefficients (1.0 at X = 0; see ``ShiftedOperator``), None
    when they were not built; and inner_message, None when the solve
    converged, else why it stopped, led by the error class name after a
    numerical failure.
    """
    XBX = lr_quadratic_term(X, prob.B1, prob.B2)
    rhs1 = np.hstack([prob.C1.T, XBX.P1])
    rhs2 = np.hstack([prob.C2.T, XBX.P2])
    residuals = []
    row = {"inner_iterations": 0, "inner_residuals": residuals,
           "basis_dim": 0, "dropped_cols": 0, "capacitance_rcond": None,
           "inner_message": None}
    if lr_frobenius_norm(LowRankPair(rhs1, rhs2)) == 0.0:
        return zero_pair(prob.n), zero_pair(prob.n), row
    eng = None

    def done(message=None, Xt=None, L=None):
        row.update(inner_iterations=len(residuals), inner_message=message)
        if eng is not None:
            row.update(basis_dim=eng.ell, dropped_cols=eng.dropped_cols)
        return Xt, L, row

    try:
        dhat, ahat = prob.shifted_coefficients(XBX)
        row["capacitance_rcond"] = min(dhat.rcond, ahat.rcond)
        H = np.hstack([prob.C1.T, prob.C2.T, XBX.P1, XBX.P2])
        eng = ExtendedKrylovTSylv(dhat, ahat, H, rhs1, rhs2)
        for _ in range(m_max):
            if not eng.stage():
                return done("space exhausted at dimension %d before "
                            "tolerance" % eng.ell)
            Y = eng.solve_reduced()
            res = eng.residual_norm(Y)
            residuals.append(res)
            if res <= tol_abs:
                return done(None, *eng.extract(Y))
    except TRiccatiError as e:
        return done("%s: %s" % (type(e).__qualname__, e))
    return done("m_max reached before tolerance")
