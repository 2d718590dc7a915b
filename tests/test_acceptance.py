"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible under -s, or in the captured output of a failing run) and then
asserts.  Tests are ordered by number; the later ones reproduce the
benchmark tables and the documented failure mode, so the whole file takes
several minutes.
"""

import json
import time

import numpy as np
import scipy.sparse as sp

from triccati.cli import main as cli_main
from triccati.generators import (
    generate_admissible_dense,
    generate_ex1_dense,
    generate_ex1_lowrank,
    generate_ex2_dense,
    generate_ex2_lowrank,
)
from triccati.krylov import solve_tsylv_krylov
from triccati.lowrank import (
    LowRankPair,
    LowRankTRiccatiProblem,
    MatrixOperator,
    ShiftedOperator,
    lr_frobenius_norm,
    lr_inner_product,
    lr_quadratic_term,
    lr_riccati_residual,
    lr_step_and_Lresidual,
    lr_truncate,
    zero_pair,
)
from triccati.newton_lowrank import InexactNewtonConfig, solve_inexact_newton
from triccati.reports import Status
from triccati.riccati_dense import (
    TRiccatiProblem,
    line_search_poly,
    residual,
    solve_fixed_point,
    solve_newton,
)
from triccati.tsylv_dense import TSylvSolver
from triccati.dense_core import tsylv_oracle_solve

GOLD = (3.0 - np.sqrt(5.0)) / 2.0


def _verdict(tag, ok, detail):
    print("[%s] %s: %s" % ("PASS" if ok else "FAIL", tag, detail))
    assert ok, "%s: %s" % (tag, detail)


def test_01_scalar_closed_form():
    # d=2, a=1, b=1, c=-1 collapses to 3x - x^2 - 1 = 0 with minimal
    # root (3 - sqrt(5))/2; the first two Newton corrections from 0 are
    # 1/3 and 8/21 by hand.
    prob = TRiccatiProblem(A=[[1.0]], B=[[1.0]], C=[[-1.0]], D=[[2.0]])
    t0 = time.perf_counter()
    Xf, _ = solve_fixed_point(prob, tol=1e-12)
    Xn, rn = solve_newton(prob, tol=1e-12, keep_iterates=True)
    lprob = LowRankTRiccatiProblem(A=[[1.0]], D=[[2.0]], B1=[[1.0]],
                                   B2=[[1.0]], C1=[[1.0]], C2=[[-1.0]])
    cfg = InexactNewtonConfig(eps=1e-11, eta_schedule=lambda k: 1e-12,
                              m_max=4)
    Xi, ri = solve_inexact_newton(lprob, cfg)
    dt = time.perf_counter() - t0

    errs = [abs(float(np.ravel(Z)[0]) - GOLD)
            for Z in (Xf, Xn, Xi.to_dense())]
    iters = [float(Z[0, 0]) for Z in rn.iterates]
    it_err = max(abs(iters[1] - 1.0 / 3.0), abs(iters[2] - 8.0 / 21.0))
    ok = max(errs) <= 1e-10 and it_err <= 1e-12 and dt < 1.0 \
        and ri.status is Status.CONVERGED
    _verdict("01 scalar closed form", ok,
             "solver errors %.1e/%.1e/%.1e, iterate error %.1e, %.2fs"
             % (errs[0], errs[1], errs[2], it_err, dt))


def test_02_oracle_equivalence():
    # 100 random admissible instances: the structured linear solver against
    # the vectorized oracle, and Newton against the fixed-point limit
    t0 = time.perf_counter()
    worst_lin = worst_newton = 0.0
    for i in range(100):
        n = 3 + (i % 18)
        prob = generate_admissible_dense(n, seed=i)
        rng = np.random.default_rng(1000 + i)
        E = rng.standard_normal((n, n))
        X1 = TSylvSolver(prob.D, prob.A).solve(E)
        X2 = tsylv_oracle_solve(prob.D, prob.A, E)
        worst_lin = max(worst_lin,
                        np.linalg.norm(X1 - X2) / np.linalg.norm(X2))
        Xf, _ = solve_fixed_point(prob, tol=1e-13)
        Xn, _ = solve_newton(prob, tol=1e-13)
        den = max(np.linalg.norm(Xf), 1e-300)
        worst_newton = max(worst_newton, np.linalg.norm(Xn - Xf) / den)
    dt = time.perf_counter() - t0
    ok = worst_lin <= 1e-10 and worst_newton <= 1e-8 and dt < 30.0
    _verdict("02 oracle equivalence", ok,
             "worst linear %.1e, worst Newton-vs-limit %.1e, %.1fs"
             % (worst_lin, worst_newton, dt))


def test_03_monotone_iterations():
    # both iterations climb elementwise from 0 and stay below the limit
    t0 = time.perf_counter()
    worst_drop = worst_over = 0.0
    for i in range(50):
        n = 5 + (i % 26)
        prob = generate_admissible_dense(n, seed=200 + i)
        Xf, rf = solve_fixed_point(prob, tol=1e-12, keep_iterates=True)
        _, rn = solve_newton(prob, tol=1e-12, keep_iterates=True)
        for rep in (rf, rn):
            for a, b in zip(rep.iterates, rep.iterates[1:]):
                worst_drop = max(worst_drop, float((a - b).max()))
            for it in rep.iterates:
                worst_over = max(worst_over, float((it - Xf).max()))
    dt = time.perf_counter() - t0
    ok = worst_drop <= 1e-8 and worst_over <= 1e-8 and dt < 60.0
    _verdict("03 monotone iterations", ok,
             "worst elementwise drop %.1e, worst overshoot of limit %.1e, %.1fs"
             % (worst_drop, worst_over, dt))


def test_04_line_search_polynomial():
    # the quartic built from (R, L, S^T B S) is an algebraic identity for
    # the directly evaluated squared residual norm, at any lambda
    lams = np.linspace(0.0, 2.0, 20)
    worst = 0.0
    for i in range(20):
        n = 4 + i
        prob = generate_admissible_dense(n, seed=400 + i)
        _, rep = solve_newton(prob, tol=1e-12, max_iter=2,
                              keep_iterates=True)
        X = rep.iterates[-1]
        R = residual(prob, X)
        rng = np.random.default_rng(500 + i)
        S = rng.standard_normal((n, n))
        S /= np.linalg.norm(S)
        # declare S the step and read off its equation leftover
        L = (prob.D - X.T @ prob.B) @ S + S.T @ (prob.A - prob.B @ X) + R
        poly = line_search_poly(R, L, S.T @ prob.B @ S)
        for lam in lams:
            direct = np.linalg.norm(residual(prob, X + lam * S)) ** 2
            worst = max(worst, abs(poly(lam) - direct) / direct)

    # and the searched iteration is monotone in the residual norm
    mono = True
    for seed in (900, 901, 902, 903, 904):
        prob = generate_admissible_dense(20, seed=seed)
        _, rep = solve_newton(prob, tol=1e-12, line_search="exact")
        rs = [r.residual_norm for r in rep.iterations]
        mono = mono and rep.status is Status.CONVERGED and \
            all(b <= a * (1 + 1e-12) for a, b in zip(rs, rs[1:]))
    ok = worst <= 1e-9 and mono
    _verdict("04 line-search polynomial", ok,
             "worst identity mismatch %.1e, monotone searched traces: %s"
             % (worst, mono))


def test_05_convection_diffusion_iteration_counts():
    # n=324 grid problem: plain Newton converges within 12 sweeps and the
    # exact search strictly saves sweeps, across seeds
    t0 = time.perf_counter()
    counts = []
    for seed in (0, 1, 2):
        prob, _ = generate_ex1_dense(324, gamma=1e4, seed=seed)
        _, r_off = solve_newton(prob, tol=1e-12, line_search="off")
        _, r_ls = solve_newton(prob, tol=1e-12, line_search="exact")
        counts.append((r_off.status, r_off.iteration_count,
                       r_ls.status, r_ls.iteration_count))
    dt = time.perf_counter() - t0
    ok = all(so is Status.CONVERGED and sl is Status.CONVERGED
             and io <= 12 and il < io
             for so, io, sl, il in counts)
    _verdict("05 iteration counts n=324", ok,
             "plain/searched sweeps %s, %.0fs"
             % ([(io, il) for _, io, _, il in counts], dt))


def test_06_manufactured_solution():
    # n=500 instance with a known exact solution
    prob, meta = generate_ex2_dense(500, seed=0)
    X, rep = solve_newton(prob, tol=1e-12, line_search="off")
    err = np.linalg.norm(X - meta["X_exact"]) / np.linalg.norm(meta["X_exact"])
    ok = rep.status is Status.CONVERGED and rep.iteration_count <= 5 \
        and rep.final_relative_residual <= 1e-12 * (1 + 1e-8) \
        and err <= 1e-8
    _verdict("06 manufactured solution n=500", ok,
             "%d sweeps, rel res %.1e, error vs exact %.1e"
             % (rep.iteration_count, rep.final_relative_residual, err))


def test_07_lowrank_benchmark():
    # n=10000 factored solves: few sweeps, few inner expansions per sweep,
    # compact solutions, under a minute
    prob, _ = generate_ex2_lowrank(10000, p=1, q=1, seed=0)
    X, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-6))
    sweeps = [r for r in rep.iterations if r.k >= 1]
    avg_inner = float(np.mean([r.inner_iterations for r in sweeps]))
    ok = rep.status is Status.CONVERGED and len(sweeps) <= 8 \
        and avg_inner <= 5.0 and rep.solution_rank <= 10 \
        and rep.final_relative_residual <= 1e-6 and rep.wall_time <= 60.0

    prob5, _ = generate_ex2_lowrank(10000, p=1, q=5, seed=0)
    X5, rep5 = solve_inexact_newton(prob5, InexactNewtonConfig(eps=1e-6))
    ok = ok and rep5.status is Status.CONVERGED and rep5.solution_rank <= 40
    _verdict("07 low-rank benchmark n=10000", ok,
             "p=q=1: %d sweeps, avg inner %.2f, rank %d, rel %.1e, %.1fs; "
             "p=1,q=5: rank %d"
             % (len(sweeps), avg_inner, rep.solution_rank,
                rep.final_relative_residual, rep.wall_time,
                rep5.solution_rank))


def _tridiag_lowrank(n, p, q, seed):
    rng = np.random.default_rng(seed)
    main = 3.0 + rng.random(n)
    off = rng.random(n - 1)
    D = sp.diags([main, -off, -0.3 * off[::-1]], [0, -1, 1], format="csr")
    A = sp.diags([2.0 + rng.random(n), -0.5 * rng.random(n - 1)], [0, 1],
                 format="csr")
    return LowRankTRiccatiProblem(A=A, D=D,
                                  B1=0.3 * rng.random((n, p)),
                                  B2=0.3 * rng.random((n, p)),
                                  C1=-rng.random((q, n)),
                                  C2=rng.random((q, n)))


def test_08_inner_residual_formula():
    # the projected solver's reported residual equals the explicitly formed
    # dense residual of the lifted iterate, at every expansion
    cases = [
        (_tridiag_lowrank(100, 1, 2, 0), 1e-6),
        (_tridiag_lowrank(100, 1, 2, 1), 1e-5),
        (_tridiag_lowrank(100, 1, 2, 2), 1e-6),
        (generate_ex1_lowrank(100, p=1, q=2, gamma=20.0, seed=0)[0], 1e-6),
        (generate_ex1_lowrank(100, p=1, q=2, gamma=100.0, seed=0)[0], 1e-6),
        (generate_ex1_lowrank(196, p=1, q=2, gamma=100.0, seed=1)[0], 1e-6),
    ]
    worst, depths = 0.0, []
    for prob, tol_rel in cases:
        X = zero_pair(prob.n)
        Dd = prob.D.to_dense()
        Ad = prob.A.to_dense()
        rhs = prob.C1.T @ prob.C2
        seen = []

        def monitor(eng, m, Y, res):
            Xm = eng.V @ Y @ eng.W.T
            true = np.linalg.norm(Dd @ Xm + Xm.T @ Ad + rhs)
            seen.append(abs(res - true) / true)

        solve_tsylv_krylov(prob, X, tol_rel * np.linalg.norm(rhs),
                           monitor=monitor)
        worst = max(worst, max(seen))
        depths.append(len(seen))
    ok = worst <= 1e-9 and min(depths) >= 3
    _verdict("08 inner residual formula", ok,
             "worst relative mismatch %.1e over depths %s" % (worst, depths))


def test_09_failure_mode(capsys):
    # a convection-dominated grid run where the inner solver cannot reach
    # its forcing tolerance: the history must fall, then climb, and the
    # command-line runner must report the failure as a status, not a crash
    rc = cli_main(["solve-lowrank", "--family", "ex1-lowrank",
                   "--n", "900", "--gamma", "1e4",
                   "--p", "1", "--q", "5", "--seed", "0",
                   "--tol", "1e-12", "--max-outer", "25",
                   "--max-inner", "30"])
    out = capsys.readouterr().out
    data = json.loads(out)
    h = np.asarray(data["trace"][-1]["inner_residuals"], float)
    j = int(np.argmin(h))
    decreased = h[0] / h[j] >= 1e2
    rose = j < h.size - 1 and h[-1] > h[j]
    ok = rc == 2 and data["status"] == "InnerSolveFailed" \
        and decreased and rose
    _verdict("09 failure mode", ok,
             "exit %d, status %s, inner history fell %.1e x to entry %d/%d "
             "then rose %.2f x"
             % (rc, data["status"], h[0] / h[j], j + 1, h.size,
                h[-1] / h[j]))


def test_10_memory_discipline():
    # every factored operation at n = 100000 stays O(n * rank): peak traced
    # allocation under 2 GB, nothing n-by-n
    import tracemalloc

    n, p, q, t = 100000, 2, 2, 4
    rng = np.random.default_rng(0)
    tracemalloc.start()
    D = sp.diags([3.0 + rng.random(n), -rng.random(n - 1)], [0, -1],
                 format="csc")
    A = sp.diags([2.0 + rng.random(n), -0.5 * rng.random(n - 1)], [0, 1],
                 format="csc")
    prob = LowRankTRiccatiProblem(A=A, D=D,
                                  B1=rng.random((n, p)),
                                  B2=rng.random((n, p)),
                                  C1=-rng.random((q, n)),
                                  C2=rng.random((q, n)))
    X = LowRankPair(rng.random((n, t)), rng.random((n, t)))
    Y = LowRankPair(rng.random((n, t)), rng.random((n, t)))

    ip = lr_inner_product(X, Y)
    nrm = lr_frobenius_norm(X)
    R = lr_riccati_residual(prob, X)
    Rt = lr_truncate(R, tol=1e-10)
    S, L = lr_step_and_Lresidual(prob, X, Y)
    S = lr_truncate(S, tol=1e-12)
    L = lr_truncate(L, tol=1e-12)
    Q = lr_quadratic_term(S, prob.B1, prob.B2)
    op = MatrixOperator(D)
    Z = ShiftedOperator(op, X.P1, X.P2).solve(rng.random((n, 3)))
    sh = ShiftedOperator(op, X.P1, X.P2)
    V = sh.solve(rng.random((n, 3)))
    Vt = sh.solve_t(rng.random((n, 3)))
    M = sh.matvec(rng.random((n, 3)))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    widths = [R.rank, Rt.rank, S.rank, L.rank, Q.rank]
    ok = np.isfinite(ip) and nrm > 0 and peak < 2 * 2 ** 30 \
        and max(widths) <= 4 * (t + p + q) \
        and all(Z_.shape == (n, 3) for Z_ in (Z, V, Vt, M))
    _verdict("10 memory discipline n=100000", ok,
             "peak traced %.2f GB, factor widths %s"
             % (peak / 2 ** 30, widths))
