"""Inexact Newton iteration for the quadratic matrix equation

    D X + X^T A - X^T B X + C = 0,   B = B1 B2^T,  C = C1^T C2,

working on factored iterates throughout.  Starting from X_0 = 0, each
sweep solves the Newton-step equation

    (D - X_k^T B) Xt + Xt^T (A - B X_k) = -C - X_k^T B X_k

only up to a relative tolerance eta_k (forcing sequence 1/(1+k^3)
capped at eta_bar), by Krylov projection.  The update direction
S_k = Xt - X_k is damped by a step length chosen to minimize the exact
quartic

    ||R(X_k + lam*S_k)||_F^2 = ||(1-lam) R_k + lam L - lam^2 S_k^T B S_k||_F^2

over (0, theta_k], where L is the inner-solve residual and theta_k the
admissibility cap.  Of the quartic's six products, ||R_k||^2 is the
square of the residual norm already taken.  ||L||^2, <R_k, L> and
<L, S_k^T B S_k> come from the form L = Lambda W^T in which the inner
solve returns L, with W the orthonormal basis it built
(``ExtendedKrylovTSylv.extract``): ||L||^2 = ||Lambda||^2 and
<M1 M2^T, L> = <M1^T Lambda, M2^T W>, with no QR and without L's
explicit factors (``lr_step_and_Lresidual``) of width 2 t~ + 2 p + q.
Lambda carries an absolute error of about eps ||D|| ||Xt||, as the QR
core of those factors did, so late in the iteration, where L is small
next to its blocks, the products keep their accuracy where a Gram trace
of the explicit factors would be rounding noise (Benner, Heinkenschloss,
Saak & Weichelt, Appl. Numer. Math. 108 (2016)).  ||S_k^T B S_k||^2 and
<R_k, S_k^T B S_k> are Gram traces of the rank-p pair S_k^T B S_k.  Every
accepted step must shrink the residual norm by the factor
(1 - lam*alpha).  A step that fails the decrease test after truncation
is retried with halved lam a few times, then the run is
reported as Diverged, and so is an accepted iterate wider than the rank
cap.  Inner-solver failures (stagnation, an exhausted space, singular
projected equations) surface as InnerSolveFailed reports carrying the
full inner residual history.  No failure raises.

Rank control has two stages, both set by the accuracy asked for rather
than by where rounding noise crosses a fixed cutoff.  Every accepted
iterate of sweep k is cut with a tail budget tied to the forcing term:
the trailing singular values whose combined Frobenius norm is at most
0.01 * eta_k * (||R_k|| / ||C||) * ||X||_F are dropped; the one fixed
cut, 1e-12 * sigma_max, is the inner solve's (``krylov._EXTRACT_TOL``).
That error is a small share of what the inexact inner solve already
leaves, so the iterates stay as narrow as the sweep's accuracy allows,
and the sufficient-decrease test still guards every cut step
(Feitzinger, Hylla & Sachs, SIMAX 31 (2009);
Benner, Heinkenschloss, Saak & Weichelt, Appl. Numer. Math. 108 (2016)).
The iterate that meets the stopping test ||R|| <= eps ||C|| is then cut
once more to eps: the trailing singular values whose combined Frobenius
norm is at most 0.1 * eps * ||X||_F are dropped, and the cut stands only
if its recomputed residual still meets the stopping test.
"""

import numpy as np

from dataclasses import dataclass

from .krylov import solve_tsylv_krylov
from .lowrank import (
    LowRankPair,
    hstack_f,
    lr_frobenius_norm,
    lr_inner_product,
    lr_quadratic_term,
    lr_riccati_residual,
    lr_step_and_Lresidual,  # unused here; bound for perfbench's PATCHES
    lr_truncate,
    zero_pair,
)
from .reports import Status, StepFailed, _check_setting, iterate
from .riccati_dense import LineSearchPoly, minimize_quartic

__all__ = [
    "InexactNewtonConfig",
    "compute_theta",
    "decrease_condition_check",
    "nonnegativity_monitor",
    "min_entry_ratio",
    "solve_inexact_newton",
]

_MAX_HALVINGS = 5
_FINAL_TAIL = 0.1  # share of eps * ||X||_F the converged iterate may drop
_SWEEP_TAIL = 0.01  # share of eta_k * rel_k * ||X||_F each sweep may drop
_BLOCK = 256  # rows of X formed at once by _entry_extremes
_SIGN_MAX_N = 200  # largest n whose trace rows carry the sign fields
_SIGN_TOL = 1e-8  # nonnegativity_monitor accepts entries >= -_SIGN_TOL
# rank cap = _CAP_PER_PASS * (p+q) * m_max: a pass adds at most two chains
# times the 2(p+q) columns of [C1^T, C2^T, X^T B1, X^T B2]
_CAP_PER_PASS = 4


@dataclass
class InexactNewtonConfig:
    """Settings of the outer iteration, one per solve-lowrank flag.

    Sweep k (0-based) solves to the forcing term eta_k = min(1/(1+k^3),
    eta_bar).  Each sweep cuts its iterate to a share of its forcing term
    and the converged iterate to eps, both as tail budgets (see the module
    docstring).  An iterate wider than 4*(p+q)*m_max, the widest the inner
    spaces could produce, ends the run as Diverged.
    """

    eps: float = 1e-6
    eta_bar: float = 0.5
    alpha: float = 0.1
    max_outer: int = 30
    m_max: int = 50

    def __post_init__(self):
        _check_setting("eps", self.eps)
        _check_setting("max_outer", self.max_outer, count=True)
        _check_setting("m_max", self.m_max, count=True)
        if not 0.0 < self.eta_bar < 1.0:
            raise ValueError("eta_bar must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0 - self.eta_bar:
            raise ValueError("alpha must lie in (0, 1 - eta_bar)")

    def eta(self, k):
        return min(1.0 / (1.0 + k ** 3), self.eta_bar)


def compute_theta(alpha_k, delta_k, cfg):
    """Step-length cap; the full step is admitted when the quadratic term
    vanishes (or before the first residual exists)."""
    if alpha_k <= 0.0 or delta_k <= 0.0:
        return 1.0
    return min(1.0, (1.0 - cfg.alpha - cfg.eta_bar) * np.sqrt(alpha_k / delta_k))


def decrease_condition_check(res_old, res_new, lam, alpha):
    return res_new <= (1.0 - lam * alpha) * res_old * (1.0 + 1e-10)


def _entry_extremes(X):
    """(smallest, largest) entry of X = P1 P2^T, formed _BLOCK rows at a time."""
    lo, hi = np.inf, -np.inf
    for i in range(0, X.P1.shape[0], _BLOCK):
        rows = X.P1[i:i + _BLOCK] @ X.P2.T
        lo, hi = np.minimum(lo, rows.min()), np.maximum(hi, rows.max())
    return float(lo), float(hi)


def _signs(X):
    """Both sign observations of X from one ``_entry_extremes`` pass."""
    lo, hi = _entry_extremes(X)
    top = max(-lo, hi)
    return {"nonnegative": lo >= -_SIGN_TOL,
            "min_entry_ratio": lo / top if top > 0.0 else 0.0}


def nonnegativity_monitor(X):
    """Entrywise X >= -1e-8 check on every entry.  The tolerance is
    absolute, so an X whose entries all lie below 1e-8 in magnitude
    passes whatever their sign.  The iterates are only guaranteed
    nonnegative when the inner residuals are; this observes, it never
    enforces."""
    return _signs(X)["nonnegative"]


def min_entry_ratio(X):
    """Smallest entry of X over its largest magnitude (0 for X = 0), on
    every entry; scale-free, unlike the monitor's tolerance."""
    return _signs(X)["min_entry_ratio"]


def _sign_fields(X):
    """The trace row's sign observations of X, none above _SIGN_MAX_N:
    at n = 10000 the exact pass takes 0.3-0.4 s (ranks 22-61, one BLAS
    thread), about as long as a whole sweep of the benchmark problems
    (0.08-0.9 s) or longer."""
    return {} if X.P1.shape[0] > _SIGN_MAX_N else _signs(X)


def _step_length(prob, X, Xt, R, res, L, cfg):
    """``minimize_quartic`` of ||R(X + lam (Xt - X))||_F^2 over (0, theta_k],
    from R = R(X) of norm res and L = Lambda W^T (see above)."""
    S = LowRankPair(np.hstack([Xt.P1, -X.P1]), np.hstack([Xt.P2, X.P2]))
    SBS = lr_quadratic_term(S, prob.B1, prob.B2)
    Lam, W = L.P1, L.P2
    poly = LineSearchPoly(
        alpha_k=res * res, beta_k=float(np.vdot(Lam, Lam)),
        gamma_k=float(np.vdot(R.P1.T @ Lam, R.P2.T @ W)),
        delta_k=lr_inner_product(SBS, SBS),
        eps_k=lr_inner_product(R, SBS),
        xi_k=float(np.vdot(SBS.P1.T @ Lam, SBS.P2.T @ W)))
    theta = compute_theta(poly.alpha_k, poly.delta_k, cfg)
    return minimize_quartic(poly, theta)


def _recompress_converged(prob, X, res, stop, eps):
    """Cut a converged X to eps: drop the trailing singular values of
    combined Frobenius norm at most _FINAL_TAIL * eps * ||X||_F if the cut
    still meets the stopping test; returns the (X, res) kept."""
    Xc = lr_truncate(X, rel_tail=_FINAL_TAIL * eps)
    if Xc.rank >= X.rank:
        return X, res
    res_c = lr_frobenius_norm(lr_riccati_residual(prob, Xc))
    if res_c > stop:
        return X, res
    return Xc, res_c


def solve_inexact_newton(prob, cfg=None, keep_iterates=False):
    """Run the factored inexact Newton iteration; returns (X, SolveReport).

    Stops when ||R(X_k)||_F <= eps * ||C1^T C2||_F.  The report's fields
    are those of ``reports.iterate``; its memory_metric is the largest
    inner basis dimension of any sweep.  A sweep's row holds the fields of
    its inner solve as ``solve_tsylv_krylov`` returns them, and an accepted
    sweep's also rank_before_cut, the width of its iterate before the
    truncation to iterate_rank; a start row that already converges (k = 0)
    has basis_dim 0.  Up to n = _SIGN_MAX_N, accepted and start rows carry
    nonnegative and min_entry_ratio, the sign observations of the iterate
    (``_signs``).
    """
    if cfg is None:
        cfg = InexactNewtonConfig()
    c_norm = prob.c_norm()
    stop = cfg.eps * c_norm
    cap = _CAP_PER_PASS * (prob.p + prob.q) * cfg.m_max
    X0 = zero_pair(prob.n)
    R = lr_riccati_residual(prob, X0)

    def sweep(k, X, res):
        nonlocal R
        eta_k = cfg.eta(k)
        Xt, L, fields = solve_tsylv_krylov(prob, X, eta_k * res,
                                           m_max=cfg.m_max)
        if Xt is None:
            raise StepFailed(Status.INNER_SOLVE_FAILED,
                             "inner solve failed at sweep %d: %s"
                             % (k + 1, fields["inner_message"]), **fields)
        lam = _step_length(prob, X, Xt, R, res, L, cfg)
        # only the quartic reads R(X_k) and L
        R = L = None

        tail = _SWEEP_TAIL * eta_k * (res / c_norm)
        for _ in range(_MAX_HALVINGS + 1):
            cand = LowRankPair(hstack_f([X.P1, Xt.P1]),
                               hstack_f([(1.0 - lam) * X.P2, lam * Xt.P2]))
            Xn = lr_truncate(cand, rel_tail=tail)
            Rn = lr_riccati_residual(prob, Xn)
            res_n = lr_frobenius_norm(Rn)
            if decrease_condition_check(res, res_n, lam, cfg.alpha):
                break
            lam *= 0.5
        else:
            raise StepFailed(Status.DIVERGED,
                             "step rejected at sweep %d: no decrease down to "
                             "lam = %.3e" % (k + 1, lam), **fields)
        if Xn.rank > cap:
            raise StepFailed(Status.DIVERGED,
                             "iterate rank %d exceeds the cap %d "
                             "at sweep %d" % (Xn.rank, cap, k + 1),
                             residual_norm=res_n, iterate_rank=Xn.rank,
                             **fields)

        fields["rank_before_cut"] = cand.rank
        # the recompression runs without the step and the candidate
        del Xt, cand
        R = Rn
        if res_n <= stop:
            Xn, res_n = _recompress_converged(prob, Xn, res_n, stop, cfg.eps)
        return Xn, res_n, lam, dict(fields, **_sign_fields(Xn))

    return iterate(X0, lr_frobenius_norm(R), c_norm, cfg.eps,
                   cfg.max_outer, sweep, lambda X: X.rank, keep_iterates,
                   basis_dim=0, **_sign_fields(X0))
