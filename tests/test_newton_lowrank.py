"""Outer factored Newton driver: config contracts, step-length rules, and
equivalence with the dense solver on desk-size instances."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import triccati as tr
from triccati import newton_lowrank
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


class TestSolver:
    def test_matches_dense_newton(self):
        for seed in range(3):
            prob = make_problem(n=40, seed=seed)
            cfg = InexactNewtonConfig(eps=1e-9,
                                      eta_schedule=lambda k: 1e-8)
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

    def test_final_rank_independent_of_truncation_floor(self):
        # the per-sweep floor sits at rounding level; the converged iterate
        # is recompressed to eps, so halving or doubling the floor must not
        # move the reported rank
        prob, _ = generate_ex2_lowrank(200, p=1, q=5, seed=0)
        ranks = []
        for floor in (5e-13, 1e-12, 2e-12):
            cfg = InexactNewtonConfig(eps=1e-6, trunc_tol=floor)
            X, rep = solve_inexact_newton(prob, cfg)
            assert rep.status is tr.Status.CONVERGED
            res = lr_frobenius_norm(lr_riccati_residual(prob, X))
            assert res <= cfg.eps * prob.c_norm()
            ranks.append(rep.solution_rank)
        assert ranks[0] == ranks[1] == ranks[2]

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
