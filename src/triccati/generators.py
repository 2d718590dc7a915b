"""Benchmark problem families.

Two constructions recur throughout the test battery:

* a convection-diffusion family: D discretizes
  -u_xx - u_yy + y(1-x) u_x + gamma*u on the unit square's k-by-k interior
  grid (5-point Laplacian, centered differences for the convection term,
  homogeneous Dirichlet), A is the plain 5-point Laplacian, and the
  quadratic/constant coefficients are random — dense matrices or thin
  unit-norm factors;

* a singular-M-matrix family: W = diag(R*1) - R for a random nonnegative
  R, partitioned into four n-by-n blocks supplying D and A (strictly
  diagonally dominant Z-matrices); the dense variant manufactures the
  exact solution, the large variant builds D and A from shifted sparse
  random matrices and keeps every coefficient factored.

All randomness flows through numpy's seeded Generator with uniform [0,1)
draws; identical seeds reproduce problems bitwise.  The factored families
negate C2, so C = C1^T C2 <= 0 as the nonnegativity theory expects.
`generate_admissible_dense` makes small instances that provably satisfy
the solvability conditions (dominant Z-structure in the linear part,
B >= 0, C <= 0), the workhorse for property tests.
"""

import math

import numpy as np
import scipy.sparse as sp

from .dense_core import spectral_radius
from .lowrank import LowRankTRiccatiProblem
from .riccati_dense import TRiccatiProblem

__all__ = [
    "generate_ex1_dense",
    "generate_ex1_lowrank",
    "generate_ex2_dense",
    "generate_ex2_lowrank",
    "generate_admissible_dense",
]


def _grid_side(n):
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError("this family needs n to be a perfect square, got %d" % n)
    return k


def _convection_diffusion(n, gamma):
    """Sparse D (diffusion + convection + shift) and A (diffusion) on the
    k x k interior grid, x-index fastest."""
    k = _grid_side(n)
    h = 1.0 / (k + 1)
    main = 2.0 * np.ones(k) / h ** 2
    off = -1.0 * np.ones(k - 1) / h ** 2
    T = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    eye = sp.identity(k, format="csr")
    lap = sp.kron(eye, T) + sp.kron(T, eye)
    pts = (np.arange(1, k + 1)) * h
    # convection coefficient y*(1-x) sampled at the nodes, x fastest
    coef = np.kron(pts, 1.0 - pts)
    Cx = sp.diags([-np.ones(k - 1), np.ones(k - 1)], [-1, 1], format="csr")
    Cx = Cx / (2.0 * h)
    conv = sp.diags(coef) @ sp.kron(eye, Cx)
    D = (lap + conv + gamma * sp.identity(n)).tocsr()
    A = lap.tocsr()
    return D, A


def _unit_norm(M):
    return M / np.linalg.norm(M)


def generate_ex1_dense(n, gamma, seed):
    """Convection-diffusion D and Laplacian A with full random B, C.

    B and C are unconstrained uniform draws, so the sign conditions of the
    solvability theory generally fail here; convergence on this family is
    an empirical matter and the audit records the violation.
    """
    D, A = _convection_diffusion(n, gamma)
    rng = np.random.default_rng(seed)
    B = rng.random((n, n))
    C = rng.random((n, n))
    prob = TRiccatiProblem(A=A.toarray(), B=B, C=C, D=D.toarray())
    meta = {"family": "Ex1Dense", "n": n, "gamma": gamma, "seed": seed,
            "discretization": "centered differences"}
    return prob, meta


def generate_ex1_lowrank(n, p, q, gamma, seed):
    """Convection-diffusion linear part with thin unit-norm random factors."""
    D, A = _convection_diffusion(n, gamma)
    rng = np.random.default_rng(seed)
    B1 = _unit_norm(rng.random((n, p)))
    B2 = _unit_norm(rng.random((n, p)))
    C1 = _unit_norm(rng.random((q, n)))
    C2 = -_unit_norm(rng.random((q, n)))
    prob = LowRankTRiccatiProblem(A=A, D=D, B1=B1, B2=B2, C1=C1, C2=C2)
    meta = {"family": "Ex1LowRank", "n": n, "p": p, "q": q, "gamma": gamma,
            "seed": seed, "discretization": "centered differences"}
    return prob, meta


def generate_ex2_dense(n, seed):
    """Row-stochastic-complement construction with a manufactured solution.

    W = diag(R*1) - R has zero row sums; its diagonal blocks D and A are
    strictly diagonally dominant M-matrices, B = -N/||N||_F >= 0 comes from
    the lower-left block, and C is chosen so a random unit-norm X_exact
    solves the equation exactly (returned in the metadata); Newton from
    X_0 = 0 may reach another solution (n = 60, seed 1: 18.6 away, relative).
    """
    rng = np.random.default_rng(seed)
    R = rng.random((2 * n, 2 * n))
    W = np.diag(R.sum(axis=1)) - R
    D = W[:n, :n]
    N = W[n:, :n]
    A = W[n:, n:]
    B = -N / np.linalg.norm(N)
    X_exact = _unit_norm(rng.random((n, n)))
    C = -(D @ X_exact + X_exact.T @ A - X_exact.T @ B @ X_exact)
    prob = TRiccatiProblem(A=A, B=B, C=C, D=D)
    meta = {"family": "Ex2Dense", "n": n, "seed": seed, "X_exact": X_exact}
    return prob, meta


def generate_ex2_lowrank(n, p, q, seed):
    """Shifted sparse random linear part with unit-norm factored B and C.

    D = F + (rho(F)+1) I and A = G + (rho(G)+20) I for nonnegative sparse
    F, G of density 1/n; the spectral radii are exact, the largest over the
    strongly connected components of F and G.
    """
    rng = np.random.default_rng(seed)
    density = 1.0 / n

    def _shifted(shift):
        F = sp.random(n, n, density=density, format="csr",
                      random_state=rng, data_rvs=rng.random)
        return (F + (spectral_radius(F) + shift) * sp.identity(n)).tocsr()

    D = _shifted(1.0)
    A = _shifted(20.0)
    B1 = _unit_norm(rng.random((n, p)))
    B2 = _unit_norm(rng.random((n, p)))
    C1 = _unit_norm(rng.random((q, n)))
    C2 = -_unit_norm(rng.random((q, n)))
    prob = LowRankTRiccatiProblem(A=A, D=D, B1=B1, B2=B2, C1=C1, C2=C2)
    meta = {"family": "Ex2LowRank", "n": n, "p": p, "q": q, "seed": seed}
    return prob, meta


def generate_admissible_dense(n, seed=0):
    """Small random instance that provably satisfies the solvability
    conditions: the linearized operator's matrix is strictly diagonally
    dominant with Z-sign structure, B >= 0 and C <= 0.

    The construction keeps the coupling weak: D = diag(2+u) minus small
    nonnegative off-diagonals, A entrywise nonpositive and small, so every
    row of the big operator matrix has diagonal >= 2 - 0.5/n against
    off-diagonal mass <= 1.
    """
    rng = np.random.default_rng(seed)
    D = np.diag(2.0 + rng.random(n)) - 0.5 * rng.random((n, n)) / n
    A = -0.5 * rng.random((n, n)) / n
    B = 0.5 * rng.random((n, n)) / n
    C = -0.1 * rng.random((n, n)) / n
    return TRiccatiProblem(A=A, B=B, C=C, D=D)
