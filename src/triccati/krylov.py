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
F = Dhat V - W T (its docstring says why no shortcut is taken).

Orthogonalization is block classical Gram-Schmidt with one
re-orthogonalization pass.  Candidate columns that have numerically
fallen into the current space are dropped; when nothing genuinely new
survives (on either side) the space is treated as invariant, the lifted
residual is then evaluated honestly from its factored form, and the
caller decides whether that is convergence or stagnation.  Only a
degenerate seed -- no seed column left, or the first block's image
collapsing under an effectively singular coefficient -- raises
BasisBreakdownError, which ``solve_tsylv_krylov`` reports as a failure.
"""

import numpy as np
import scipy.linalg

from dataclasses import dataclass, field

from .errors import BasisBreakdownError, TRiccatiError
from .lowrank import (HouseholderQR, LowRankPair, lr_frobenius_norm,
                      lr_quadratic_term, svd_cut, zero_pair)
from .tsylv_dense import solve_tsylv_dense

__all__ = [
    "InnerReport",
    "ExtendedKrylovTSylv",
    "solve_tsylv_krylov",
]

# a new block whose sigma_min/sigma_max falls to this is numerically dependent
_BREAKDOWN_TOL = 1e-12


@dataclass
class InnerReport:
    converged: bool
    iterations: int
    residuals: list = field(default_factory=list)
    basis_dim: int = 0
    tol: float = 0.0
    message: str = ""


def _cgs_against(Q, C):
    """Classical Gram-Schmidt of block C against orthonormal Q, one re-pass.

    Returns (C_orth, coeffs) with C = Q @ coeffs + C_orth.
    """
    if Q.shape[1] == 0:
        return C.copy(), np.zeros((0, C.shape[1]))
    P = Q.T @ C
    C = C - Q @ P
    P2 = Q.T @ C
    C = C - Q @ P2
    return C, P + P2


class ExtendedKrylovTSylv:
    """Joint (V, W) extended Krylov bases for one shifted equation."""

    def __init__(self, dhat, ahat, H, rhs1, rhs2):
        self.dhat = dhat
        self.ahat = ahat
        self.n = H.shape[0]
        self._rhs1 = rhs1
        self._rhs2 = rhs2
        n = self.n

        # seed the two chains; dependent seed columns are dropped by pivoted QR
        fwd_raw = ahat.solve_t(H)
        inv_raw = dhat.solve(H)
        Qf, kf = self._pivot_orth(fwd_raw, np.zeros((n, 0)))
        Qi, ki = self._pivot_orth(inv_raw, Qf)
        self.V = np.hstack([Qf, Qi])
        self._fwd = np.arange(kf)
        self._inv = np.arange(kf, kf + ki)
        self.ell = kf + ki
        if self.ell == 0:
            raise BasisBreakdownError("no seed column survived orthogonalization")
        self.DV = dhat.matvec(self.V)
        self.W, Rw = self._block_qr(ahat.rmatvec(self.V),
                                    np.zeros((n, 0)), "W basis seed")
        self.U = Rw
        self.T = self.W.T @ self.DV
        self.G1 = self.W.T @ rhs1
        self.G2 = self.W.T @ rhs2

    built_dim = property(lambda self: self.ell)  # order of the space built

    def _pivot_orth(self, C, Q_prev):
        C, _ = _cgs_against(Q_prev, C)
        if C.shape[1] == 0:
            return np.zeros((self.n, 0)), 0
        Q, R, _ = scipy.linalg.qr(C, mode="economic", pivoting=True)
        d = np.abs(np.diag(R))
        if d.size == 0 or d[0] <= 1e-14 * max(1.0, np.linalg.norm(C)):
            return np.zeros((self.n, 0)), 0
        k = int(np.sum(d > _BREAKDOWN_TOL * d[0]))
        return Q[:, :k], k

    def _block_qr(self, C, Q_prev, what):
        """Orthogonalize C against Q_prev and internally; strict rank check."""
        orig_scale = max(np.linalg.norm(C), 1e-300)
        C, coeffs = _cgs_against(Q_prev, C)
        qr = HouseholderQR(C)
        R = qr.R
        Q = qr.apply(np.eye(R.shape[0]))
        sv = scipy.linalg.svdvals(R)
        smax = sv[0] if sv.size else 0.0
        smin = sv[-1] if sv.size else 0.0
        if smax <= 1e-14 * orig_scale:
            raise BasisBreakdownError(
                "%s: block vanished after orthogonalization" % what)
        if smin <= _BREAKDOWN_TOL * smax:
            raise BasisBreakdownError(
                "%s: new block is rank deficient "
                "(sigma_min/sigma_max = %.2e)" % (what, smin / smax))
        return Q, (np.vstack([coeffs, R]) if Q_prev.shape[1] else R)

    def stage(self):
        """Build the next block pair of V and W and absorb it.

        Candidate columns that have (numerically) fallen into the current
        space are dropped chain-by-chain; a chain with no surviving
        columns stops advancing.  Returns True when the space grew; False
        when no genuinely new direction exists -- invariant space, the
        whole of R^n spanned, or the W image of the surviving candidates
        collapsing into span(W), which marks the pair construction as
        saturated.  The space is left unchanged then.
        """
        if self.ell >= self.n:
            return False
        Qf = np.zeros((self.n, 0))
        if self._fwd.size:
            cand_f = self.ahat.solve_t(self.dhat.matvec(self.V[:, self._fwd]))
            Qf, _ = self._pivot_orth(cand_f, self.V)
        Qi = np.zeros((self.n, 0))
        if self._inv.size:
            cand_i = self.dhat.solve(self.ahat.rmatvec(self.V[:, self._inv]))
            Qi, _ = self._pivot_orth(cand_i, np.hstack([self.V, Qf]))
        Qn = np.hstack([Qf, Qi])
        if Qn.shape[1] == 0:
            return False  # invariant subspace: nothing new to add
        DVn = self.dhat.matvec(Qn)
        try:
            Wn, Ucol = self._block_qr(self.ahat.rmatvec(Qn), self.W, "W basis")
        except BasisBreakdownError:
            # the new directions are only marginally outside the space and
            # their images carry nothing new: saturated, stop expanding
            return False
        self.absorb(Qn, DVn, Wn, Ucol, Qf.shape[1])
        return True

    def solve_reduced(self):
        """Solve T Y + Y^T K = -G1 G2^T on the active space."""
        return solve_tsylv_dense(self.T, self.U.T, -self.G1 @ self.G2.T)

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
        TY = self.T @ Y
        red = TY + Y.T @ self.U.T + self.G1 @ self.G2.T
        FY = self.DV @ Y - self.W @ TY
        return float(np.hypot(np.linalg.norm(red), np.linalg.norm(FY)))

    def absorb(self, Qn, DVn, Wn, Ucol, bf):
        """Append the block pair (Qn, Wn), whose first bf columns of Qn
        continue the forward chain, to V, DV, W and the projected data."""
        b = Qn.shape[1]
        self._fwd = np.arange(self.ell, self.ell + bf)
        self._inv = np.arange(self.ell + bf, self.ell + b)
        self.T = np.block([[self.T, self.W.T @ DVn],
                           [Wn.T @ self.DV, Wn.T @ DVn]])
        self.V = np.hstack([self.V, Qn])
        self.DV = np.hstack([self.DV, DVn])
        lw = self.U.shape[0]
        self.U = np.block([[self.U, Ucol[:lw]],
                           [np.zeros((b, self.U.shape[1])), Ucol[lw:]]])
        self.G1 = np.vstack([self.G1, Wn.T @ self._rhs1])
        self.G2 = np.vstack([self.G2, Wn.T @ self._rhs2])
        self.W = np.hstack([self.W, Wn])
        self.ell += b

    def extract(self, Y):
        """Lift and recompress: X = V Y W^T as a LowRankPair, with the
        singular values of Y below the truncation floor dropped."""
        G1, G2 = svd_cut(Y)
        return LowRankPair(self.V @ G1, self.W @ G2)


def solve_tsylv_krylov(prob, X, tol_abs, m_max=50, monitor=None):
    """Solve the Newton-step equation at iterate X by extended Krylov projection.

    Each of at most m_max passes solves the projected equation, tests its
    lifted-residual norm against tol_abs (absolute), and only then grows
    the space.  Returns (solution_pair_or_None, InnerReport), whose
    basis_dim is the order of the last projected equation.  The pair is
    None when the tolerance was not met within m_max passes or before
    saturation, or when a numerical failure (singular shifted coefficient,
    degenerate seed, singular reduced equation) stopped the solve; the
    message then names the error class and the residuals are those
    collected before the failure.
    """
    XBX = lr_quadratic_term(X, prob.B1, prob.B2)
    rhs1 = np.hstack([prob.C1.T, XBX.P1])
    rhs2 = np.hstack([prob.C2.T, XBX.P2])
    rhs_norm = lr_frobenius_norm(LowRankPair(rhs1, rhs2))
    if rhs_norm == 0.0:
        return zero_pair(prob.n), InnerReport(True, 0, [0.0], 0, tol_abs,
                                              "zero right-hand side")
    residuals = []
    eng = None
    try:
        dhat, ahat = prob.shifted_coefficients(XBX)
        H = np.hstack([prob.C1.T, prob.C2.T, XBX.P1, XBX.P2])
        eng = ExtendedKrylovTSylv(dhat, ahat, H, rhs1, rhs2)
        for m in range(1, m_max + 1):
            Y = eng.solve_reduced()
            res = eng.residual_norm(Y)
            residuals.append(res)
            if monitor is not None:
                monitor(eng, m, Y, res)
            if res <= tol_abs:
                pair = eng.extract(Y)
                return pair, InnerReport(True, m, residuals, eng.ell, tol_abs)
            if m < m_max and not eng.stage():
                return None, InnerReport(
                    False, m, residuals, eng.ell, tol_abs,
                    "space exhausted at dimension %d before tolerance"
                    % eng.ell)
    except TRiccatiError as e:
        return None, InnerReport(False, len(residuals), residuals,
                                 eng.ell if eng else 0, tol_abs,
                                 "%s: %s" % (type(e).__qualname__, e))
    return None, InnerReport(False, m_max, residuals, eng.ell, tol_abs,
                             "m_max reached before tolerance")
