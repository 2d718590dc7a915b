"""Extended Krylov projection solver checked against dense solves on
instances small enough to lift everything."""

import numpy as np
import pytest
import scipy.sparse as sp

from triccati.generators import generate_ex1_lowrank, generate_ex2_lowrank
from triccati.krylov import ExtendedKrylovTSylv, _orth, solve_tsylv_krylov
from triccati.lowrank import (LowRankPair, LowRankTRiccatiProblem,
                              ShiftedOperator, lr_quadratic_term, zero_pair)
from triccati.newton_lowrank import solve_inexact_newton
from triccati.reports import Status
from triccati.tsylv_dense import TSylvSolver

rng = np.random.default_rng(11)


def make_problem(n=48, p=1, q=2, seed=0, sparse=True):
    g = np.random.default_rng(seed)
    D = np.diag(4.0 + g.random(n)) - 0.2 * g.random((n, n)) / n
    A = -0.5 * np.eye(n) - 0.2 * g.random((n, n)) / n
    if sparse:
        D, A = sp.csr_matrix(D), sp.csr_matrix(A)
    B1 = g.random((n, p)) / n
    B2 = g.random((n, p)) / n
    C1 = -g.random((q, n))
    C2 = g.random((q, n))
    return LowRankTRiccatiProblem(A=A, D=D, B1=B1, B2=B2, C1=C1, C2=C2)


def dense_inner_data(prob, X):
    """Shifted coefficients and right-hand side of the step equation, dense."""
    A = prob.A.to_dense()
    D = prob.D.to_dense()
    B = prob.B1 @ prob.B2.T
    C = prob.C1.T @ prob.C2
    Xd = X.to_dense()
    return D - Xd.T @ B, A - B @ Xd, C + Xd.T @ B @ Xd


def observe_passes(monkeypatch, observe):
    """Run observe(eng, Y, res) inside ``ExtendedKrylovTSylv.residual_norm``,
    which the solve calls once per pass, before the next stage changes eng;
    returns the list of what observe returned, one entry per call."""
    residual_norm = ExtendedKrylovTSylv.residual_norm
    seen = []

    def spied(eng, Y):
        res = residual_norm(eng, Y)
        seen.append(observe(eng, Y, res))
        return res

    monkeypatch.setattr(ExtendedKrylovTSylv, "residual_norm", spied)
    return seen


class TestAgainstDense:
    def test_first_step_matches_dense(self):
        # X = 0: the step equation is D Z + Z^T A = -C
        for seed in range(4):
            prob = make_problem(n=40, p=1, q=1, seed=seed)
            Dd, Ad, rhs = dense_inner_data(prob, zero_pair(prob.n))
            want = TSylvSolver(Dd, Ad).solve(-rhs)
            tol = 1e-10 * np.linalg.norm(rhs)
            Xt, _, row = solve_tsylv_krylov(prob, zero_pair(prob.n), tol)
            assert Xt is not None, row["inner_message"]
            err = np.linalg.norm(Xt.to_dense() - want) / np.linalg.norm(want)
            assert err <= 1e-8

    def test_shifted_step_matches_dense(self):
        # nonzero iterate: coefficients pick up the SMW low-rank shifts
        prob = make_problem(n=36, p=2, q=1, seed=5)
        X = LowRankPair(0.05 * rng.random((36, 2)), 0.05 * rng.random((36, 2)))
        Dd, Ad, rhs = dense_inner_data(prob, X)
        want = TSylvSolver(Dd, Ad).solve(-rhs)
        tol = 1e-10 * np.linalg.norm(rhs)
        Xt, _, row = solve_tsylv_krylov(prob, X, tol)
        assert Xt is not None, row["inner_message"]
        err = np.linalg.norm(Xt.to_dense() - want) / np.linalg.norm(want)
        assert err <= 1e-8

    def test_report_fields(self):
        prob = make_problem(n=40, p=1, q=1, seed=2)
        tol = 1e-8 * prob.c_norm()
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(prob.n), tol)
        assert Xt is not None and row["inner_message"] is None
        assert row["inner_iterations"] == len(row["inner_residuals"]) >= 1
        assert row["basis_dim"] >= Xt.rank
        assert row["inner_residuals"][-1] <= tol


class TestInnerResidual:
    """A converged solve returns its solution's lifted residual as
    (Lambda, W) with orthonormal W; a failed one returns none."""

    def test_matches_dense_residual_of_solution(self):
        prob = make_problem(n=36, p=2, q=1, seed=5)
        X = LowRankPair(0.05 * rng.random((36, 2)), 0.05 * rng.random((36, 2)))
        Dd, Ad, rhs = dense_inner_data(prob, X)
        Xt, L, row = solve_tsylv_krylov(prob, X, 1e-3 * np.linalg.norm(rhs))
        assert Xt is not None
        Lam, W = L.P1, L.P2
        assert W.shape[1] == row["basis_dim"]
        assert np.allclose(W.T @ W, np.eye(W.shape[1]), rtol=0.0, atol=1e-13)
        Xtd = Xt.to_dense()
        want = Dd @ Xtd + Xtd.T @ Ad + rhs
        err = np.linalg.norm(Lam @ W.T - want)
        assert err <= 1e-12 * np.linalg.norm(rhs)
        assert np.linalg.norm(Lam) == pytest.approx(np.linalg.norm(want),
                                                    rel=1e-9)

    @pytest.mark.parametrize("m_max", [0, 1])
    def test_none_after_failure(self, m_max):
        prob = make_problem(n=64, p=1, q=2, seed=4)
        Xt, L, row = solve_tsylv_krylov(prob, zero_pair(64),
                                        1e-14 * prob.c_norm(), m_max=m_max)
        assert Xt is None and row["inner_message"] is not None
        assert L is None


class TestDiagnostics:
    def test_dropped_cols_and_capacitance_rcond(self):
        # at X = 0 the X^T B X columns of the seed are zero and dropped, and
        # the capacitance matrices are identities
        prob = make_problem(n=40, p=2, q=1, seed=3)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(40),
                                        1e-10 * prob.c_norm())
        assert Xt is not None
        assert row["dropped_cols"] >= 2 * 2 and row["capacitance_rcond"] == 1.0
        X = LowRankPair(0.5 * rng.random((40, 2)), 0.5 * rng.random((40, 2)))
        XBX = lr_quadratic_term(X, prob.B1, prob.B2)
        dhat, ahat = prob.shifted_coefficients(XBX)
        _, _, row = solve_tsylv_krylov(prob, X, 1e-10 * prob.c_norm())
        assert isinstance(row["dropped_cols"], int) and row["dropped_cols"] >= 0
        assert row["capacitance_rcond"] == min(dhat.rcond, ahat.rcond) < 1.0

    def test_rcond_of_shifted_operator(self):
        n = 20
        base = np.diag(1.0 + np.arange(n))
        M, N = rng.random((n, 2)), rng.random((n, 2))
        op = ShiftedOperator(base, M, N)
        K = N.T @ np.linalg.solve(base, M)
        smin = np.linalg.svd(np.eye(2) - K, compute_uv=False)[-1]
        assert op.rcond == pytest.approx(
            smin / (1.0 + np.linalg.norm(K, 2)), rel=1e-12)
        assert ShiftedOperator(base, np.zeros((n, 0)),
                               np.zeros((n, 0))).rcond == 1.0

    def test_singular_capacitance_reports_singular_operator(self):
        # X^T B1 = 2 e1, so Dhat = 2I - 2 e1 e1^T: K = e1^T (2I)^-1 2 e1 = 1
        # and the capacitance 1 - K is exactly 0
        n = 4
        e1 = np.zeros((n, 1)); e1[0, 0] = 1.0
        ones = np.ones((1, n))
        prob = LowRankTRiccatiProblem(A=-np.eye(n), D=2.0 * np.eye(n),
                                      B1=e1, B2=e1, C1=ones, C2=-ones)
        Xt, _, row = solve_tsylv_krylov(prob, LowRankPair(2.0 * e1, e1), 1e-10)
        assert Xt is None
        assert row["inner_message"].startswith("SingularOperatorError")
        assert "capacitance" in row["inner_message"]


class TestResidualFormula:
    def test_matches_dense_residual_each_iteration(self, monkeypatch):
        # the coupling-block shortcut must equal the fully formed residual
        def observe(eng, Y, res):
            Xm = eng.V @ Y @ eng.W.T
            return len(seen) + 1, res, np.linalg.norm(Dd @ Xm + Xm.T @ Ad + rhs)

        seen = observe_passes(monkeypatch, observe)
        for seed in (0, 3):
            prob = make_problem(n=60, p=1, q=2, seed=seed)
            X = zero_pair(prob.n)
            Dd, Ad, rhs = dense_inner_data(prob, X)
            rhs_norm = np.linalg.norm(rhs)
            seen.clear()
            _, _, row = solve_tsylv_krylov(prob, X, 1e-9 * rhs_norm)
            assert len(seen) == row["inner_iterations"] >= 2
            for m, res, true in seen:
                # 1e-9 relative plus the float noise of forming the dense
                # residual (intermediates live at the scale of rhs)
                assert abs(res - true) <= 1e-9 * true + 1e-12 * rhs_norm, \
                    (m, res, true)

    def test_basis_invariants(self, monkeypatch):
        prob = make_problem(n=50, p=1, q=1, seed=7)
        X = zero_pair(prob.n)
        dhat, ahat = prob.shifted_coefficients(
            lr_quadratic_term(X, prob.B1, prob.B2))

        def observe(eng, Y, res):
            V, W = eng.V, eng.W
            return (
                np.linalg.norm(V.T @ V - np.eye(V.shape[1])),
                np.linalg.norm(W.T @ W - np.eye(W.shape[1])),
                np.linalg.norm(ahat.rmatvec(V) - W @ eng.U),
                np.linalg.norm(eng.T - W.T @ dhat.matvec(V)),
            )

        checks = observe_passes(monkeypatch, observe)
        _, _, row = solve_tsylv_krylov(prob, X, 1e-9 * prob.c_norm())
        assert len(checks) == row["inner_iterations"] >= 2
        for orthoV, orthoW, factor_defect, t_defect in checks:
            assert orthoV <= 1e-12
            assert orthoW <= 1e-12
            assert factor_defect <= 1e-9
            assert t_defect <= 1e-9

    def test_nested_bases(self, monkeypatch):
        prob = make_problem(n=50, p=1, q=1, seed=9)
        snaps = observe_passes(monkeypatch, lambda eng, Y, res: eng.V.copy())
        _, _, row = solve_tsylv_krylov(prob, zero_pair(prob.n),
                                       1e-9 * prob.c_norm())
        assert len(snaps) == row["inner_iterations"]
        for a, b in zip(snaps, snaps[1:]):
            assert b.shape[1] >= a.shape[1]
            assert np.array_equal(b[:, :a.shape[1]], a)


class TestSmallSpaceBehaviour:
    def test_exact_on_saturated_space(self):
        # n small enough that the seed block already spans everything
        prob = make_problem(n=8, p=1, q=1, seed=1, sparse=False)
        Dd, Ad, rhs = dense_inner_data(prob, zero_pair(8))
        want = TSylvSolver(Dd, Ad).solve(-rhs)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(8),
                                        1e-11 * np.linalg.norm(rhs))
        assert Xt is not None
        assert row["inner_iterations"] <= 2
        assert np.allclose(Xt.to_dense(), want, atol=1e-8)

    def test_space_exhaustion_reported(self):
        # unreachable tolerance: the engine saturates R^n and gives up cleanly
        prob = make_problem(n=10, p=1, q=1, seed=3, sparse=False)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(10), 0.0)
        assert Xt is None
        assert "exhausted" in row["inner_message"]
        # full space: tiny
        assert row["inner_residuals"][-1] <= 1e-10 * prob.c_norm()

    def test_m_max_reached(self):
        prob = make_problem(n=64, p=1, q=2, seed=4)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(64),
                                        1e-14 * prob.c_norm(), m_max=1)
        assert Xt is None
        assert "m_max" in row["inner_message"]
        assert len(row["inner_residuals"]) == 1

    def test_zero_rhs_short_circuits(self):
        n = 12
        prob = LowRankTRiccatiProblem(
            A=-np.eye(n), D=2.0 * np.eye(n),
            B1=np.ones((n, 1)), B2=np.ones((n, 1)),
            C1=np.zeros((1, n)), C2=np.zeros((1, n)))
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(n), 1e-10)
        assert Xt is not None and row["inner_iterations"] == 0
        assert row["inner_residuals"] == []
        assert Xt.rank == 0


class TestGrowthOrder:
    """Each pass grows the space by one stage, the first by the seed,
    then solves and tests the residual; a pass follows only a failed
    test, so no block is built that no projected solve uses."""

    def count_stages(self, monkeypatch):
        calls = []
        stage = ExtendedKrylovTSylv.stage

        def counted(eng):
            calls.append(eng.ell)
            return stage(eng)

        monkeypatch.setattr(ExtendedKrylovTSylv, "stage", counted)
        return calls

    def test_grows_only_after_failed_test(self, monkeypatch):
        calls = self.count_stages(monkeypatch)
        dims = observe_passes(monkeypatch, lambda eng, Y, res: eng.ell)
        prob = make_problem(n=60, p=1, q=2, seed=0)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(prob.n),
                                        1e-10 * prob.c_norm())
        assert Xt is not None and row["inner_iterations"] > 1
        assert len(calls) == len(dims) == row["inner_iterations"]
        assert row["basis_dim"] == dims[-1]

    def test_one_pass_grows_only_the_seed(self, monkeypatch):
        calls = self.count_stages(monkeypatch)
        prob = make_problem(n=64, p=1, q=2, seed=4)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(64),
                                        1e-14 * prob.c_norm(), m_max=1)
        assert Xt is None and "m_max" in row["inner_message"]
        assert calls == [0]

    def test_no_pass_builds_nothing(self, monkeypatch):
        calls = self.count_stages(monkeypatch)
        prob, _ = generate_ex2_lowrank(150, p=1, q=5, seed=1)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(prob.n),
                                        1e-8 * prob.c_norm(), m_max=0)
        assert Xt is None
        assert row["inner_message"] == "m_max reached before tolerance"
        assert calls == []
        assert row["basis_dim"] == 0 and row["dropped_cols"] == 0

    def test_one_ahat_t_product_per_growth(self, monkeypatch):
        # every stage, the seed included, applies Ahat^T once, to the new
        # block for its W image; the inverse chain continues from that same
        # product
        stages = self.count_stages(monkeypatch)
        products = []
        rmatvec = ShiftedOperator.rmatvec

        def counted(op, Y):
            products.append(Y.shape[1])
            return rmatvec(op, Y)

        monkeypatch.setattr(ShiftedOperator, "rmatvec", counted)
        prob, _ = generate_ex1_lowrank(400, p=1, q=2, gamma=100.0, seed=0)
        Xt, _, _ = solve_tsylv_krylov(prob, zero_pair(prob.n),
                                      1e-10 * prob.c_norm())
        assert Xt is not None and len(stages) >= 5
        assert len(products) == len(stages)


class TestSpaceExhaustedAtDimensionZero:
    n = 12

    def degenerate_problem(self):
        # Ahat^T collapses the space onto one direction: W cannot be built
        n = self.n
        d = np.ones(n); d[1:] = 1e-16
        return LowRankTRiccatiProblem(
            A=np.diag(d), D=np.diag(2.0 + np.arange(n, dtype=float)),
            B1=np.zeros((n, 1)), B2=np.zeros((n, 1)),
            C1=rng.random((2, n)), C2=rng.random((2, n)))

    def test_degenerate_w_image_exhausts_space_at_dimension_0(self):
        prob = self.degenerate_problem()
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(self.n),
                                        1e-10 * prob.c_norm())
        assert Xt is None
        assert row["inner_message"] == \
            "space exhausted at dimension 0 before tolerance"

    def test_outer_solver_reports_space_exhausted_at_dimension_0(self):
        X, rep = solve_inexact_newton(self.degenerate_problem())
        assert rep.status is Status.INNER_SOLVE_FAILED
        last = rep.iterations[-1]
        assert last.step_size == 0
        assert last.inner_iterations == len(last.extras["inner_residuals"])
        assert any("space exhausted at dimension 0" in w for w in rep.warnings)

    def test_vanishing_seed_reports_space_exhausted_at_dimension_0(self):
        # seed blocks of size ~1e-16 fall under the absolute drop threshold,
        # so no seed column survives
        n = self.n
        prob = LowRankTRiccatiProblem(
            A=-1e16 * np.eye(n), D=3e16 * np.eye(n),
            B1=rng.random((n, 1)), B2=rng.random((n, 1)),
            C1=rng.random((2, n)), C2=rng.random((2, n)))
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(n),
                                        1e-10 * prob.c_norm())
        assert Xt is None
        assert row["inner_message"] == \
            "space exhausted at dimension 0 before tolerance"
        assert row["dropped_cols"] == 12
        _, outer = solve_inexact_newton(prob)
        assert outer.status is Status.INNER_SOLVE_FAILED
        assert any("space exhausted at dimension 0" in w for w in outer.warnings)


class TestOrth:
    """The one orthonormalization and dependence rule of both bases."""

    def basis(self, n=40, m=6):
        g = np.random.default_rng(4)
        return g, np.linalg.qr(g.standard_normal((n, m)))[0]

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_block_in_span_keeps_nothing_at_any_scale(self, scale):
        # C lies in span(Q) up to 1e-15 of its norm: the remainder is noise
        g, Q = self.basis()
        C = Q @ g.standard_normal((6, 3))
        E = g.standard_normal(C.shape)
        C = C + 1e-15 * np.linalg.norm(C) / np.linalg.norm(E) * E
        C *= scale / np.linalg.norm(C)
        assert _orth(Q, C)[3] == 0

    def test_rank_two_remainder(self):
        g, Q = self.basis()
        N = g.standard_normal((40, 2))
        N -= Q @ (Q.T @ N)
        C = Q @ g.standard_normal((6, 3)) + N @ g.standard_normal((2, 3))
        qr, coeffs, U, k = _orth(Q, C)
        assert k == 2
        # the kept columns are orthonormal and orthogonal to Q
        B = qr.apply(U[:, :k])
        assert np.allclose(B.T @ B, np.eye(2), rtol=0, atol=1e-14)
        assert np.abs(Q.T @ B).max() <= 1e-14
        # C = Q coeffs + (Householder Q) R, to rounding
        rebuilt = Q @ coeffs + qr.apply(qr.R)
        assert np.linalg.norm(rebuilt - C) <= 1e-14 * np.linalg.norm(C)


class TestEngineDirect:
    def test_module_level_residual_norm(self):
        prob = make_problem(n=30, p=1, q=1, seed=8)
        X = zero_pair(30)
        XBX = lr_quadratic_term(X, prob.B1, prob.B2)
        rhs1 = np.hstack([prob.C1.T, XBX.P1])
        rhs2 = np.hstack([prob.C2.T, XBX.P2])
        dhat, ahat = prob.shifted_coefficients(XBX)
        H = np.hstack([prob.C1.T, prob.C2.T, XBX.P1, XBX.P2])
        eng = ExtendedKrylovTSylv(dhat, ahat, H, rhs1, rhs2)
        eng.stage()
        Y = eng.solve_reduced()
        # extract truncates: tiny singular values of Y dropped
        pair, _ = eng.extract(Y)
        assert pair.rank <= Y.shape[1]
