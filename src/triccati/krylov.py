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

Orthogonalization is block classical Gram-Schmidt with one
re-orthogonalization pass.  The engine starts from the empty space, and
the seed is its first growth: every growth orthogonalizes the candidates
of both chains against the space built so far, drops the columns that
have numerically fallen into it, and appends the survivors together with
their W image.  A growth that finds nothing genuinely new (no column
survives, or their W image collapses under an effectively singular
coefficient) leaves the space as it was.  After a stage the lifted
residual is then evaluated honestly, and the caller decides whether that
is convergence or stagnation; a seed that leaves the space empty is the
one BasisBreakdownError, raised and reported by ``solve_tsylv_krylov``.
"""

import numpy as np
import scipy.linalg

from dataclasses import dataclass, field

from .errors import BasisBreakdownError, TRiccatiError
from .lowrank import (HouseholderQR, LowRankPair, hstack_f, svd_cut,
                      lr_frobenius_norm, lr_quadratic_term, zero_pair)
from .tsylv_dense import TSylvSolver

__all__ = [
    "InnerReport",
    "ExtendedKrylovTSylv",
    "solve_tsylv_krylov",
]

# a new block whose sigma_min/sigma_max falls to this is numerically dependent
_BREAKDOWN_TOL = 1e-12


@dataclass
class InnerReport:
    """How one inner solve went.

    residuals is the lifted-residual norm after each projected solve
    (iterations counts them) and basis_dim the order of the last one.
    residual, set only when the solve converged, is the lifted residual of
    the returned (cut) solution as a LowRankPair (Lambda, W) with
    orthonormal W (see ``ExtendedKrylovTSylv.extract``).  dropped_cols
    counts the candidate columns that fell into the space already built
    and were dropped, over the seed (the first growth, from the empty
    space) and every stage, also when the seed left the space empty.
    capacitance_rcond is the smaller of the two SMW capacitance rconds of
    the shifted coefficients (1.0 at X = 0; see ``ShiftedOperator``), None
    when they were not built.
    """

    converged: bool
    residuals: list = field(default_factory=list)
    basis_dim: int = 0
    message: str = ""
    residual: LowRankPair | None = None
    dropped_cols: int = 0
    capacitance_rcond: float | None = None

    iterations = property(lambda self: len(self.residuals))  # projected solves


def _cgs_against(Q, C):
    """Classical Gram-Schmidt of block C against orthonormal Q, one re-pass.

    Returns (C_orth, coeffs) with C = Q @ coeffs + C_orth.
    """
    P = Q.T @ C
    C = C - Q @ P
    P2 = Q.T @ C
    C = C - Q @ P2
    return C, P + P2


class ExtendedKrylovTSylv:
    """Joint (V, W) extended Krylov bases for one shifted equation.

    Starts from the empty space and grows it by the seed
    [Ahat^{-T} H, Dhat^{-1} H] through ``_grow``, as ``stage`` grows it
    later; the space stays empty (ell = 0) when no seed column survives
    or the seed's W image collapses.
    """

    def __init__(self, dhat, ahat, H, rhs1, rhs2):
        self.dhat = dhat
        self.ahat = ahat
        self._rhs1 = rhs1
        self._rhs2 = rhs2
        self.dropped_cols = 0
        # the empty space; the seed is its first growth
        self.V = self.DV = self.W = np.zeros((H.shape[0], 0))
        self.T = self.U = np.zeros((0, 0))
        self.G1, self.G2 = rhs1[:0], rhs2[:0]
        # each chain's last block times the coefficient its next candidates
        # solve with: (Dhat V_f, Ahat^T V_i), kept by _grow
        self._heads = (self.V, self.V)
        self._grow(ahat.solve_t(H), dhat.solve(H))

    ell = property(lambda self: self.V.shape[1])  # order of the space built
    built_dim = ell

    def _pivot_orth(self, C, Q_prev):
        """Orthonormal basis of the part of C outside span(Q_prev), by
        pivoted QR; the columns it drops are added to dropped_cols."""
        C, _ = _cgs_against(Q_prev, C)
        Q, R, _ = scipy.linalg.qr(C, mode="economic", pivoting=True)
        d = np.abs(np.diag(R))
        k = 0
        if d.size and d[0] > 1e-14 * max(1.0, np.linalg.norm(C)):
            k = int(np.sum(d > _BREAKDOWN_TOL * d[0]))
        self.dropped_cols += C.shape[1] - k
        return Q[:, :k]

    def _block_qr(self, C, Q_prev):
        """(Q, coeffs, R) with C = Q_prev @ coeffs + Q @ R and Q orthonormal
        to Q_prev; None when the block vanishes or is numerically rank
        deficient."""
        orig_scale = max(np.linalg.norm(C), 1e-300)
        C, coeffs = _cgs_against(Q_prev, C)
        qr = HouseholderQR(C)
        sv = scipy.linalg.svdvals(qr.R)
        if sv[0] <= 1e-14 * orig_scale or sv[-1] <= _BREAKDOWN_TOL * sv[0]:
            return None
        return qr.apply(np.eye(qr.R.shape[0])), coeffs, qr.R

    def _grow(self, cand_f, cand_i):
        """Orthogonalize the forward- and inverse-chain candidates against
        the space and each other, and absorb what survives with its W
        image.  Returns False, leaving the space unchanged, when no
        candidate column survives or their W image collapses."""
        Qf = self._pivot_orth(cand_f, self.V)
        Qi = self._pivot_orth(cand_i, hstack_f([self.V, Qf]))
        Qn = np.hstack([Qf, Qi])
        if Qn.shape[1] == 0:
            return False
        AQ = self.ahat.rmatvec(Qn)
        W_part = self._block_qr(AQ, self.W)
        if W_part is None:
            return False
        DQ = self.dhat.matvec(Qn)
        self.absorb(Qn, DQ, *W_part)
        self._heads = DQ[:, :Qf.shape[1]], AQ[:, Qf.shape[1]:]
        return True

    def stage(self):
        """Grow the space by the next block pair of V and W.

        The candidates continue each chain from its last block; columns
        that have (numerically) fallen into the current space are dropped
        chain by chain, and a chain with no surviving columns stops
        advancing.  Returns True when the space grew; False, leaving it
        unchanged, when no genuinely new direction exists -- invariant
        space, the whole of R^n spanned, or the W image of the surviving
        candidates collapsing into span(W), which marks the pair
        construction as saturated.
        """
        if self.ell >= self.V.shape[0]:
            return False
        fwd, inv = self._heads
        return self._grow(self.ahat.solve_t(fwd), self.dhat.solve(inv))

    def solve_reduced(self):
        """Solve T Y + Y^T K = -G1 G2^T on the active space."""
        return TSylvSolver(self.T, self.U.T).solve(-self.G1 @ self.G2.T)

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
        data, where Ahat^T Qn = W @ coeffs + Wn @ R (``_block_qr``)."""
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
        Yc = G1 G2^T is Y with its singular values below the truncation
        floor dropped.  L is the lifted residual of that pair,
        Dhat X + X^T Ahat + rhs1 rhs2^T, as LowRankPair(Lambda, W): by the
        split of ``residual_norm``,

            Lambda = W (T Yc + Yc^T U^T + G1p G2p^T) + (Dhat V Yc - W T Yc)

        with G1p, G2p the projected right-hand-side factors, and W keeps
        orthonormal columns, so ||L|| = ||Lambda|| and
        <M1 M2^T, L> = <M1^T Lambda, M2^T W> for any pair.
        """
        G1, G2 = svd_cut(Y)
        red, lam = self._split(G1 @ G2.T)
        lam += self.W @ red  # in place: one n-by-l array fewer at the peak
        return (LowRankPair(self.V @ G1, self.W @ G2),
                LowRankPair(lam, self.W))


def solve_tsylv_krylov(prob, X, tol_abs, m_max=50, monitor=None):
    """Solve the Newton-step equation at iterate X by extended Krylov projection.

    Each of at most m_max passes solves the projected equation, tests its
    lifted-residual norm against tol_abs (absolute), and only then grows
    the space.  Returns (solution_pair_or_None, InnerReport), whose
    basis_dim is the order of the last projected equation and whose
    residual is the solution's lifted residual (see ``InnerReport``).  The
    pair is None when the tolerance was not met within m_max passes or
    before saturation, or when a numerical failure (singular shifted
    coefficient, degenerate seed, singular reduced equation) stopped the
    solve; the message then names the error class and the residuals are
    those collected before the failure.
    """
    XBX = lr_quadratic_term(X, prob.B1, prob.B2)
    rhs1 = np.hstack([prob.C1.T, XBX.P1])
    rhs2 = np.hstack([prob.C2.T, XBX.P2])
    rhs_norm = lr_frobenius_norm(LowRankPair(rhs1, rhs2))
    if rhs_norm == 0.0:
        return zero_pair(prob.n), InnerReport(
            True, message="zero right-hand side", residual=zero_pair(prob.n))
    residuals = []
    eng = None
    rcond = None

    def report(converged, message="", residual=None):
        return InnerReport(converged, residuals, eng.ell if eng else 0,
                           message, residual,
                           eng.dropped_cols if eng else 0, rcond)

    try:
        dhat, ahat = prob.shifted_coefficients(XBX)
        rcond = min(dhat.rcond, ahat.rcond)
        H = np.hstack([prob.C1.T, prob.C2.T, XBX.P1, XBX.P2])
        eng = ExtendedKrylovTSylv(dhat, ahat, H, rhs1, rhs2)
        if eng.ell == 0:
            raise BasisBreakdownError(
                "the seed gave no direction (%d of %d candidate columns "
                "dropped)" % (eng.dropped_cols, 2 * H.shape[1]))
        for m in range(1, m_max + 1):
            Y = eng.solve_reduced()
            res = eng.residual_norm(Y)
            residuals.append(res)
            if monitor is not None:
                monitor(eng, m, Y, res)
            if res <= tol_abs:
                pair, L = eng.extract(Y)
                return pair, report(True, residual=L)
            if m < m_max and not eng.stage():
                return None, report(
                    False, "space exhausted at dimension %d before "
                    "tolerance" % eng.ell)
    except TRiccatiError as e:
        return None, report(False, "%s: %s" % (type(e).__qualname__, e))
    return None, report(False, "m_max reached before tolerance")
