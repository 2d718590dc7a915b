"""Outer factored Newton driver: config contracts, step-length rules, and
equivalence with the dense solver on desk-size instances."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import triccati as tr
from triccati import lowrank, newton_lowrank
from triccati.generators import generate_ex1_lowrank, generate_ex2_lowrank
from triccati.lowrank import (
    LowRankPair,
    LowRankTRiccatiProblem,
    lr_frobenius_norm,
    lr_riccati_residual,
    zero_pair,
)
from triccati.newton_lowrank import (
    InexactNewtonConfig,
    compute_theta,
    decrease_condition_check,
    default_eta_schedule,
    min_entry_ratio,
    nonnegativity_monitor,
    solve_inexact_newton,
)
from triccati.riccati_dense import solve_newton


def make_problem(n=40, p=1, q=2, seed=0, b_scale=1.0):
    g = np.random.default_rng(seed)
    D = np.diag(4.0 + g.random(n)) - 0.2 * g.random((n, n)) / n
    A = -0.5 * np.eye(n) - 0.2 * g.random((n, n)) / n
    B1 = b_scale * g.random((n, p)) / n
    B2 = g.random((n, p)) / n
    C1 = -g.random((q, n))
    C2 = g.random((q, n))
    return LowRankTRiccatiProblem(A=sp.csr_matrix(A), D=sp.csr_matrix(D),
                                  B1=B1, B2=B2, C1=C1, C2=C2)


def densify(prob):
    return tr.TRiccatiProblem(A=prob.A.to_dense(), B=prob.B1 @ prob.B2.T,
                              C=prob.C1.T @ prob.C2, D=prob.D.to_dense())


class TestConfig:
    def test_defaults_valid(self):
        cfg = InexactNewtonConfig()
        assert cfg.eps == 1e-6 and cfg.eta_bar == 0.5 and cfg.alpha == 0.1

    def test_eta_bar_range(self):
        with pytest.raises(ValueError):
            InexactNewtonConfig(eta_bar=1.0)
        with pytest.raises(ValueError):
            InexactNewtonConfig(eta_bar=0.0)

    def test_alpha_vs_eta_bar(self):
        with pytest.raises(ValueError):
            InexactNewtonConfig(eta_bar=0.5, alpha=0.5)
        InexactNewtonConfig(eta_bar=0.5, alpha=0.49)  # boundary inside

    def test_eta_schedule_and_clamp(self):
        cfg = InexactNewtonConfig(eta_bar=0.5)
        assert cfg.eta(0) == 0.5          # 1/(1+0) clamped to eta_bar
        assert cfg.eta(2) == pytest.approx(1.0 / 9.0)
        assert default_eta_schedule(3) == pytest.approx(1.0 / 28.0)
        tight = InexactNewtonConfig(eta_schedule=lambda k: 1e-30)
        assert tight.eta(5) == 1e-15      # floor keeps the tolerance positive

    def test_custom_schedule_used(self):
        cfg = InexactNewtonConfig(eta_schedule=lambda k: 0.25 / (k + 1))
        assert cfg.eta(0) == 0.25
        assert cfg.eta(3) == pytest.approx(0.0625)


class TestTheta:
    def test_full_step_when_quadratic_term_vanishes(self):
        cfg = InexactNewtonConfig(eta_bar=0.1, alpha=0.1)
        assert compute_theta(1.0, 0.0, cfg) == 1.0
        assert compute_theta(0.0, 1.0, cfg) == 1.0

    def test_capped_at_one(self):
        # (1 - 0.1 - 0.1) * sqrt(1 / (1/81)) = 0.8 * 9 -> capped
        cfg = InexactNewtonConfig(eta_bar=0.1, alpha=0.1)
        assert compute_theta(1.0, 1.0 / 81.0, cfg) == 1.0

    def test_interior_value(self):
        cfg = InexactNewtonConfig(eta_bar=0.1, alpha=0.1)
        got = compute_theta(1.0 / 81.0, 1.0, cfg)
        assert got == pytest.approx(0.8 / 9.0)


class TestDecreaseCheck:
    def test_accepts_sufficient_drop(self):
        assert decrease_condition_check(1.0, 0.89, 1.0, 0.1)

    def test_rejects_insufficient_drop(self):
        assert not decrease_condition_check(1.0, 0.91, 1.0, 0.1)

    def test_scales_with_lambda(self):
        assert decrease_condition_check(1.0, 0.96, 0.25, 0.1)
        assert not decrease_condition_check(1.0, 0.98, 0.25, 0.1)


class TestNonnegativityMonitor:
    def test_dense_positive(self):
        X = LowRankPair(np.ones((20, 1)), np.ones((20, 1)))
        assert nonnegativity_monitor(X)

    def test_dense_negative_entry(self):
        P1 = np.ones((20, 1)); P2 = np.ones((20, 1))
        P1[3, 0] = -0.5
        assert not nonnegativity_monitor(LowRankPair(P1, P2))

    def test_zero_rank_passes(self):
        assert nonnegativity_monitor(zero_pair(50))
        assert nonnegativity_monitor(zero_pair(5000))

    def test_sampled_large(self):
        n = 5000
        g = np.random.default_rng(3)
        pos = LowRankPair(g.random((n, 2)), g.random((n, 2)))
        assert nonnegativity_monitor(pos)
        neg = LowRankPair(-np.ones((n, 1)), np.ones((n, 1)))
        assert not nonnegativity_monitor(neg)


class TestMinEntryRatio:
    def test_dense_known_entries(self):
        P1 = np.ones((20, 1)); P2 = np.ones((20, 1))
        assert min_entry_ratio(LowRankPair(P1, P2)) == 1.0
        P1[3, 0] = -0.5  # entries are 1 and -0.5
        assert min_entry_ratio(LowRankPair(P1, P2)) == -0.5

    def test_sampled_known_entries(self):
        # every column of X is constant, 2 or -0.5, and both kinds are
        # among the sampled columns
        n = 5000
        v = np.where(np.arange(n) % 2 == 0, 2.0, -0.5)
        X = LowRankPair(np.ones((n, 1)), v[:, None])
        assert min_entry_ratio(X) == -0.25
        assert min_entry_ratio(LowRankPair(np.ones((n, 1)), 3.0 * np.ones((n, 1)))) == 1.0

    def test_zero_pair(self):
        assert min_entry_ratio(zero_pair(50)) == 0.0
        assert min_entry_ratio(zero_pair(5000)) == 0.0

    def test_recorded_next_to_the_monitor(self):
        X, rep = solve_inexact_newton(make_problem(n=40, seed=1),
                                      InexactNewtonConfig(eps=1e-10))
        assert rep.status is tr.Status.CONVERGED
        assert all("min_entry_ratio" in row for row in rep.trace_rows())
        assert rep.iterations[-1].min_entry_ratio == min_entry_ratio(X)


def tight_config():
    return InexactNewtonConfig(eps=1e-9, eta_schedule=lambda k: 1e-8)


def sweep_summary(seeds):
    """Status and per-sweep (inner iterations, rank, lambda) of the tight
    n=40 solves of TestSolver.test_matches_dense_newton."""
    out = []
    for seed in seeds:
        _, rep = solve_inexact_newton(make_problem(n=40, seed=seed),
                                      tight_config())
        out.append([rep.status.value,
                    [[r.inner_iterations, r.iterate_rank, r.step_size]
                     for r in rep.iterations]])
    return out


class TestSolver:
    def test_matches_dense_newton(self):
        for seed in range(3):
            prob = make_problem(n=40, seed=seed)
            cfg = tight_config()
            X, rep = solve_inexact_newton(prob, cfg)
            assert rep.status is tr.Status.CONVERGED
            Xd, repd = solve_newton(densify(prob), tol=1e-12)
            denom = max(np.linalg.norm(Xd), 1e-30)
            assert np.linalg.norm(X.to_dense() - Xd) / denom <= 1e-6

    def test_linear_case_single_full_step(self):
        # B = 0 and an exact inner solve: one Newton sweep, lam = 1
        prob = make_problem(n=30, seed=4, b_scale=0.0)
        cfg = InexactNewtonConfig(eps=1e-8, eta_schedule=lambda k: 1e-13)
        X, rep = solve_inexact_newton(prob, cfg)
        assert rep.status is tr.Status.CONVERGED
        assert len(rep.iterations) == 1
        assert rep.iterations[0].step_size == 1.0

    def test_trace_contract(self):
        prob = make_problem(n=40, seed=1)
        cfg = InexactNewtonConfig(eps=1e-9)
        X, rep = solve_inexact_newton(prob, cfg, keep_iterates=True)
        assert rep.status is tr.Status.CONVERGED
        assert len(rep.iterates) == len(rep.iterations) + 1
        res_prev = rep.rhs_norm  # X0 = 0 so R0 = C
        for i, row in enumerate(rep.iterations):
            assert 0.0 < row.step_size <= 1.0
            assert row.inner_iterations >= 1
            # inner solve honored its forcing tolerance
            assert row.inner_residuals[-1] <= cfg.eta(i) * res_prev * (1 + 1e-12)
            assert row.nonnegative
            res_prev = row.residual_norm
        assert rep.memory_metric > 0
        assert rep.solution_rank == X.rank
        assert rep.min_step_size > 0.0

    def test_monotone_decrease_enforced(self):
        prob = make_problem(n=40, seed=2)
        X, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-9))
        rs = [r.residual_norm for r in rep.iterations]
        for a, b in zip(rs, rs[1:]):
            assert b < a

    def test_converged_at_entry(self):
        n = 10
        prob = LowRankTRiccatiProblem(
            A=-np.eye(n), D=2.0 * np.eye(n),
            B1=np.ones((n, 1)), B2=np.ones((n, 1)),
            C1=np.zeros((1, n)), C2=np.zeros((1, n)))
        X, rep = solve_inexact_newton(prob)
        assert rep.status is tr.Status.CONVERGED
        assert rep.iterations[0].k == 0
        assert X.rank == 0

    def test_max_outer(self):
        prob = make_problem(n=40, seed=3)
        cfg = InexactNewtonConfig(eps=1e-14, max_outer=1)
        X, rep = solve_inexact_newton(prob, cfg)
        assert rep.status is tr.Status.MAX_ITERATIONS
        assert len(rep.iterations) == 1

    def test_inner_stagnation_reported(self):
        # m_max = 0 leaves the inner solver no expansions at all
        prob = make_problem(n=40, seed=5)
        cfg = InexactNewtonConfig(eps=1e-10, m_max=0)
        X, rep = solve_inexact_newton(prob, cfg)
        assert rep.status is tr.Status.INNER_SOLVE_FAILED
        assert rep.warnings
        assert rep.iterations[-1].step_size == 0.0

    def test_final_rank_independent_of_truncation_floor(self, monkeypatch):
        # the per-sweep floor sits at rounding level; the converged iterate
        # is recompressed to eps, so halving or doubling the floor must not
        # move the reported rank
        prob, _ = generate_ex2_lowrank(200, p=1, q=5, seed=0)
        ranks = []
        for floor in (5e-13, 1e-12, 2e-12):
            monkeypatch.setattr(lowrank, "_TRUNC_TOL", floor)
            cfg = InexactNewtonConfig(eps=1e-6)
            X, rep = solve_inexact_newton(prob, cfg)
            assert rep.status is tr.Status.CONVERGED
            res = lr_frobenius_norm(lr_riccati_residual(prob, X))
            assert res <= cfg.eps * prob.c_norm()
            ranks.append(rep.solution_rank)
        assert ranks[0] == ranks[1] == ranks[2]

    def test_dense_coefficients_solve_like_sparse_ones(self):
        # MatrixOperator stores a dense A or D as CSC: same LU, same run
        prob, _ = generate_ex2_lowrank(200, p=1, q=5, seed=0)
        dense = LowRankTRiccatiProblem(
            A=prob.A.to_dense(), D=prob.D.to_dense(), B1=prob.B1,
            B2=prob.B2, C1=prob.C1, C2=prob.C2)
        (Xs, rs), (Xd, rd) = (solve_inexact_newton(p) for p in (prob, dense))
        assert rs.status is rd.status is tr.Status.CONVERGED
        assert len(rs.iterations) == len(rd.iterations)
        for a, b in zip(rs.trace_rows(), rd.trace_rows()):
            assert sorted(a) == sorted(b)
            for key, va in a.items():
                if isinstance(va, (float, list)):
                    assert np.allclose(va, b[key], rtol=1e-12, atol=0.0), key
                else:
                    assert va == b[key], key
        for fs, fd in ((Xs.P1, Xd.P1), (Xs.P2, Xd.P2)):
            assert fs.shape == fd.shape
            assert np.max(np.abs(fs - fd)) <= 1e-12 * np.max(np.abs(fs))

    def test_report_describes_recompressed_iterate(self):
        prob, _ = generate_ex2_lowrank(200, p=1, q=5, seed=0)
        X, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-6),
                                      keep_iterates=True)
        assert rep.status is tr.Status.CONVERGED
        last = rep.iterations[-1]
        res = lr_frobenius_norm(lr_riccati_residual(prob, X))
        assert rep.iterates[-1] is X
        assert last.iterate_rank == rep.solution_rank == X.rank
        assert last.residual_norm == pytest.approx(res, rel=1e-10)
        assert last.relative_residual == rep.final_relative_residual
        assert rep.final_relative_residual == pytest.approx(
            res / prob.c_norm(), rel=1e-10)
        assert last.nonnegative == nonnegativity_monitor(X)

    def test_rank_cap_enforced(self):
        prob = make_problem(n=40, p=2, q=2, seed=6)
        cfg = InexactNewtonConfig(eps=1e-10, rank_cap=1)
        X, rep = solve_inexact_newton(prob, cfg)
        assert rep.status is tr.Status.DIVERGED
        assert rep.iterations[-1].iterate_rank > 1
        assert any("cap 1" in w for w in rep.warnings)

    def test_inner_diagnostics_in_trace(self):
        _, rep = solve_inexact_newton(make_problem(n=40, seed=1),
                                      tight_config())
        assert rep.status is tr.Status.CONVERGED
        rows = rep.trace_rows()
        dims = [row["basis_dim"] for row in rows]
        assert all(d > 0 for d in dims) and max(dims) == rep.memory_metric
        assert all("inner_message" not in row for row in rows)
        # no expansion allowed: the one sweep fails, and its row says why
        _, rep = solve_inexact_newton(make_problem(n=40, seed=5),
                                      InexactNewtonConfig(eps=1e-10, m_max=0))
        assert rep.status is tr.Status.INNER_SOLVE_FAILED
        row = rep.trace_rows()[-1]
        assert row["basis_dim"] > 0
        assert row["inner_message"] == "m_max reached before tolerance"
        assert rep.warnings[-1].endswith(row["inner_message"])

    @pytest.mark.parametrize("q", [1, 5])
    def test_dropped_cols_and_capacitance_rcond_in_trace(self, q):
        # lowrank-sparse-style instances; the keys go in the JSON rows only
        prob, _ = generate_ex2_lowrank(400, p=1, q=q, seed=0)
        _, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-6))
        assert rep.status is tr.Status.CONVERGED
        rows = rep.trace_rows()
        for row in rows:
            assert isinstance(row["dropped_cols"], int)
            assert row["dropped_cols"] >= 0
            assert 0.0 < row["capacitance_rcond"] <= 1.0
        # sweep 1 runs at X = 0: identity capacitances, zero seed columns
        assert rows[0]["capacitance_rcond"] == 1.0
        assert rows[0]["dropped_cols"] >= 2 * prob.p
        _, rep = solve_inexact_newton(prob, InexactNewtonConfig(m_max=0))
        assert rep.status is tr.Status.INNER_SOLVE_FAILED
        row = rep.trace_rows()[-1]
        assert row["capacitance_rcond"] == 1.0 and row["dropped_cols"] >= 0

    def test_step_rejected_after_halvings(self, monkeypatch):
        # a decrease test that never passes: every halving is tried, then
        # the sweep is recorded with step 0 and the report keeps X_0 = 0
        trials = []

        def refuse(res_old, res_new, lam, alpha):
            trials.append(lam)
            return False

        monkeypatch.setattr(newton_lowrank, "decrease_condition_check", refuse)
        prob = make_problem(n=40, seed=2)
        X, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-9))
        assert rep.status is tr.Status.DIVERGED
        assert len(trials) == newton_lowrank._MAX_HALVINGS + 1
        assert trials == [trials[0] * 0.5 ** i for i in range(len(trials))]
        assert len(rep.iterations) == 1
        row = rep.iterations[0]
        assert row.k == 1 and row.step_size == 0.0
        assert row.residual_norm == pytest.approx(rep.rhs_norm, rel=1e-12)
        assert rep.warnings == [
            "step rejected at sweep 1: no decrease down to lam = %.3e"
            % (trials[-1] * 0.5)]
        assert X.rank == 0 and rep.solution_rank == 0
        assert rep.final_relative_residual == pytest.approx(1.0, rel=1e-12)
        assert rep.min_step_size is None


def _dense_products(prob, X, Xt):
    """Dense ||R||, ||L||, ||S^T B S|| and (||L||^2, <R, L>, <L, S^T B S>)
    at iterate X and inner solution Xt, L formed from its definition."""
    D, A = prob.D.to_dense(), prob.A.to_dense()
    B, C = prob.B1 @ prob.B2.T, prob.C1.T @ prob.C2
    Xd, Xtd = X.to_dense(), Xt.to_dense()
    R = D @ Xd + Xd.T @ A - Xd.T @ B @ Xd + C
    L = (D - Xd.T @ B) @ Xtd + Xtd.T @ (A - B @ Xd) + Xd.T @ B @ Xd + C
    S = Xtd - Xd
    SBS = S.T @ B @ S
    norms = [np.linalg.norm(M) for M in (R, L, SBS)]
    return norms, (np.sum(L * L), np.sum(R * L), np.sum(SBS * L))


class TestLineSearchFromInnerResidual:
    """The quartic's three products of the inner residual L are read from
    the (Lambda, W) form the inner solve returns; checked at every sweep
    against L formed densely from D, A, B, C, X and Xt."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("make", [
        lambda s: generate_ex1_lowrank(100, p=1, q=2, gamma=100, seed=s)[0],
        lambda s: generate_ex2_lowrank(200, p=1, q=5, seed=s)[0]],
        ids=["ex1", "ex2"])
    def test_products_match_dense_L(self, monkeypatch, make, seed):
        prob = make(seed)
        sweeps = []
        inner = newton_lowrank.solve_tsylv_krylov
        quartic = newton_lowrank.minimize_quartic

        def spy_inner(prob, X, *args, **kwargs):
            Xt, rep = inner(prob, X, *args, **kwargs)
            sweeps.append({"X": X, "Xt": Xt})
            return Xt, rep

        def spy_quartic(poly, theta):
            lam = quartic(poly, theta)
            sweeps[-1].update(poly=poly, theta=theta, lam=lam)
            return lam

        monkeypatch.setattr(newton_lowrank, "solve_tsylv_krylov", spy_inner)
        monkeypatch.setattr(newton_lowrank, "minimize_quartic", spy_quartic)
        _, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-8))
        assert rep.status is tr.Status.CONVERGED
        assert len(sweeps) == len(rep.iterations) >= 3
        ratios = []
        for sw in sweeps:
            poly = sw["poly"]
            (nR, nL, nS), (beta, gamma, xi) = _dense_products(
                prob, sw["X"], sw["Xt"])
            ratios.append(nL / nR)
            assert abs(poly.beta_k - beta) <= 1e-5 * beta
            assert abs(poly.gamma_k - gamma) <= 1e-5 * nR * nL
            assert abs(poly.xi_k - xi) <= 1e-5 * nS * nL
            ref = tr.LineSearchPoly(alpha_k=poly.alpha_k, beta_k=beta,
                                    gamma_k=gamma, delta_k=poly.delta_k,
                                    eps_k=poly.eps_k, xi_k=xi)
            assert abs(sw["lam"] - quartic(ref, sw["theta"])) <= 1e-8
        # the late sweeps reach an L small next to R, where the products
        # of L's explicit factors would cancel
        assert min(ratios) <= 1e-2


class TestThreadRobustness:
    def test_one_blas_thread_takes_the_same_steps(self):
        # the discrete decisions (status, sweeps, ranks, inner counts) must
        # not hinge on how BLAS splits its sums; run the tight solves again
        # in one child process with a single OpenBLAS thread
        here = pathlib.Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]))
        code = ("import json, sys; sys.path.insert(0, %r); "
                "import test_newton_lowrank as t; "
                "print(json.dumps(t.sweep_summary(range(3))))" % str(here))
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=600)
        assert child.returncode == 0, child.stderr
        theirs = json.loads(child.stdout.splitlines()[-1])
        ours = sweep_summary(range(3))
        for (status, rows), (status1, rows1) in zip(ours, theirs):
            assert status == status1 == "Converged"
            assert [r[:2] for r in rows] == [r[:2] for r in rows1]
            assert np.allclose([r[2] for r in rows], [r[2] for r in rows1],
                               rtol=0.0, atol=1e-8)


class TestSweepTruncation:
    """Each sweep cuts its iterate to a share of its forcing term."""

    def test_rank_before_cut_recorded(self):
        prob, _ = generate_ex2_lowrank(200, p=1, q=5, seed=0)
        X, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-6))
        assert rep.status is tr.Status.CONVERGED
        for rec, row in zip(rep.iterations, rep.trace_rows()):
            assert rec.rank_before_cut >= rec.iterate_rank
            assert row["rank_before_cut"] == rec.rank_before_cut

    def test_ranks_stable_under_last_bit_changes(self):
        # a fixed relative floor let a 2e-15 change of D move sweep ranks
        prob, _ = generate_ex2_lowrank(10000, p=1, q=5, seed=0)
        D = prob.D.A
        sweeps = []
        for scale in (1.0, 1.0 + 2e-15, 1.0 - 2e-15):
            Ds = D.copy()
            Ds.setdiag(D.diagonal() * scale)
            moved = LowRankTRiccatiProblem(A=prob.A.A, D=Ds, B1=prob.B1,
                                           B2=prob.B2, C1=prob.C1, C2=prob.C2)
            X, rep = solve_inexact_newton(moved, InexactNewtonConfig(eps=1e-6))
            assert rep.status is tr.Status.CONVERGED
            sweeps.append([(r.inner_iterations, r.iterate_rank)
                           for r in rep.iterations])
        assert sweeps[0] == sweeps[1] == sweeps[2]

    def test_inner_solves_start_without_dead_sweep_arrays(self, monkeypatch):
        # at each inner solve only X and R(X) should be alive among the
        # n-sized arrays; the previous sweep's step, inner residual and
        # candidate iterate must already be released
        prob, _ = generate_ex1_lowrank(2500, p=1, q=5, gamma=1e4, seed=0)
        inner = newton_lowrank.solve_tsylv_krylov
        ratios = []

        def spy(prob, X, *args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            width = 2 * X.rank + prob.p + prob.q
            needed = X.P1.nbytes + X.P2.nbytes + 2 * 8 * prob.n * width
            ratios.append(live / (1.1 * needed + 2 ** 20))
            return inner(prob, X, *args, **kwargs)

        monkeypatch.setattr(newton_lowrank, "solve_tsylv_krylov", spy)
        tracemalloc.start()
        try:
            X, rep = solve_inexact_newton(prob, InexactNewtonConfig(eps=1e-6))
        finally:
            tracemalloc.stop()
        assert rep.status is tr.Status.CONVERGED
        assert len(ratios) == len(rep.iterations) >= 3
        assert max(ratios) <= 1.0
