"""Dense fixed-point and Newton solvers: hand-computed scalar values,
monotone convergence to the minimal solution, and the step-size quartic."""

import numpy as np
import pytest

import triccati as tr
from triccati import dense_core
from triccati.generators import generate_admissible_dense
from triccati.riccati_dense import (
    LineSearchPoly,
    line_search_poly,
    minimize_quartic,
    residual,
    solve_fixed_point,
    solve_newton,
    verify_minimality,
)

GOLD = (3.0 - np.sqrt(5.0)) / 2.0  # root of 3x - x^2 - 1 in (0, 1)


def scalar_problem():
    return tr.TRiccatiProblem(A=[[1.0]], B=[[1.0]], C=[[-1.0]], D=[[2.0]])


class TestScalar:
    def test_fixed_point_limit(self):
        X, rep = solve_fixed_point(scalar_problem(), tol=1e-14)
        assert rep.status is tr.Status.CONVERGED
        assert abs(X[0, 0] - GOLD) < 1e-10

    def test_newton_limit_and_iterates(self):
        X, rep = solve_newton(scalar_problem(), tol=1e-14, keep_iterates=True)
        assert rep.status is tr.Status.CONVERGED
        assert abs(X[0, 0] - GOLD) < 1e-10
        xs = [float(Z[0, 0]) for Z in rep.iterates]
        assert abs(xs[1] - 1.0 / 3.0) < 1e-12
        assert abs(xs[2] - 8.0 / 21.0) < 1e-12

    def test_residual_value(self):
        prob = scalar_problem()
        assert abs(residual(prob, np.array([[GOLD]]))[0, 0]) < 1e-12
        assert residual(prob, np.zeros((1, 1)))[0, 0] == -1.0


class TestConvergenceProperties:
    def test_newton_matches_fixed_point(self):
        for seed in range(12):
            n = 3 + seed
            prob = generate_admissible_dense(n, seed=seed)
            Xf, rf = solve_fixed_point(prob, tol=1e-13)
            Xn, rn = solve_newton(prob, tol=1e-13)
            assert rf.status is tr.Status.CONVERGED
            assert rn.status is tr.Status.CONVERGED
            denom = max(np.linalg.norm(Xf), 1e-30)
            assert np.linalg.norm(Xn - Xf) / denom <= 1e-8

    def test_monotone_nondecreasing_iterates(self):
        for seed in range(8):
            prob = generate_admissible_dense(6 + seed, seed=100 + seed)
            Xf, rf = solve_fixed_point(prob, tol=1e-13, keep_iterates=True)
            for a, b in zip(rf.iterates, rf.iterates[1:]):
                assert np.all(b - a >= -1e-8)
            # all iterates sandwiched below the limit
            for it in rf.iterates:
                assert np.all(Xf - it >= -1e-8)
            Xn, rn = solve_newton(prob, tol=1e-13, keep_iterates=True)
            for a, b in zip(rn.iterates, rn.iterates[1:]):
                assert np.all(b - a >= -1e-8)

    def test_nonnegative_solution(self):
        for seed in range(5):
            prob = generate_admissible_dense(10, seed=300 + seed)
            X, rep = solve_fixed_point(prob, tol=1e-13)
            assert np.all(X >= -1e-10)

    def test_trace_shape(self):
        prob = generate_admissible_dense(8, seed=9)
        X, rep = solve_newton(prob, tol=1e-12)
        rows = rep.trace_rows()
        assert len(rows) == len(rep.iterations) >= 1
        ks = [r["k"] for r in rows]
        assert ks == list(range(1, len(ks) + 1))
        assert rep.final_relative_residual <= 1e-12

    def test_converged_at_entry(self):
        # C = 0 makes X = 0 the minimal solution; entry row k=0
        n = 4
        prob = tr.TRiccatiProblem(A=-np.eye(n) * 0.1, B=np.zeros((n, n)),
                                  C=np.zeros((n, n)), D=2.0 * np.eye(n))
        X, rep = solve_fixed_point(prob)
        assert rep.status is tr.Status.CONVERGED
        assert np.allclose(X, 0.0)
        assert rep.iterations[0].k == 0


class TestAssumptionAudit:
    def test_admissible_instance_passes(self):
        prob = generate_admissible_dense(8, seed=2)
        audit = prob.check_assumption1()
        assert audit["b_nonnegative"]
        assert audit["c_nonpositive"]
        assert audit["operator_m_matrix"]
        assert audit["holds"]

    def test_sign_violation_detected(self):
        prob = generate_admissible_dense(5, seed=3)
        bad = tr.TRiccatiProblem(A=prob.A, B=prob.B, C=-prob.C, D=prob.D)
        audit = bad.check_assumption1()
        assert not audit["c_nonpositive"]
        assert not audit["holds"]

    def test_large_dense_problem_is_audited(self):
        run = tr.run_experiment(tr.ProblemSpec("Ex2Dense", n=250), "newton",
                                {"max_iter": 1})
        assert run.audit is not None
        # Ex2's A has a positive diagonal, so K is not a Z-matrix
        assert run.audit["operator_m_matrix"] is False

    def test_matches_eigenvalue_reference(self):
        # a Z-matrix is a nonsingular M-matrix iff every eigenvalue of it
        # has positive real part; shrinking diag(D) crosses that boundary
        found = []
        for n in (1, 2, 6, 10):
            for seed in range(10):
                base = generate_admissible_dense(n, seed=seed)
                for scale in (1.0, 0.2, 0.05, 0.01, 1e-3):
                    D = base.D + (scale - 1.0) * np.diag(np.diag(base.D))
                    prob = tr.TRiccatiProblem(A=base.A, B=base.B, C=base.C, D=D)
                    got = prob.check_assumption1()["operator_m_matrix"]
                    ref = bool(np.all(np.linalg.eigvals(
                        dense_core.tsylv_kron_sparse(D, base.A).toarray()).real > 0))
                    assert got is ref, (n, seed, scale)
                    found.append(ref)
        assert 0 < sum(found) < len(found)

    def test_singular_operator(self):
        # D X + X^T A = X - X^T vanishes on every symmetric X
        for n in (1, 2, 5):
            prob = tr.TRiccatiProblem(A=-np.eye(n), B=np.zeros((n, n)),
                                      C=np.zeros((n, n)), D=np.eye(n))
            assert prob.check_assumption1()["operator_m_matrix"] is False

    def test_positive_offdiagonal_entry_is_not_z(self):
        prob = generate_admissible_dense(6, seed=0)
        assert prob.check_assumption1()["operator_m_matrix"] is True
        for name, (i, j) in (("D", (0, 1)), ("A", (2, 2))):
            M = getattr(prob, name).copy()
            M[i, j] = 0.01
            bad = tr.TRiccatiProblem(**dict(vars(prob), **{name: M}))
            assert bad.check_assumption1()["operator_m_matrix"] is False, name

    def test_scalar_sign_of_d_plus_a(self):
        for d, a, want in ((2.0, -1.0, True), (-1.0, 3.0, True),
                           (1.0, -2.0, False), (-3.0, 1.0, False)):
            prob = tr.TRiccatiProblem(A=[[a]], B=[[0.0]], C=[[0.0]], D=[[d]])
            assert prob.check_assumption1()["operator_m_matrix"] is want


class TestLineSearchPoly:
    def test_scalar_hand_values(self):
        # first Newton sweep on the scalar instance, exact inner solve
        prob = scalar_problem()
        R0 = residual(prob, np.zeros((1, 1)))         # -1
        L = np.zeros((1, 1))                          # exact solve
        S = np.array([[1.0 / 3.0]])                   # step from 0
        SBS = S.T @ prob.B @ S                        # 1/9
        poly = line_search_poly(R0, L, SBS)
        assert abs(poly.alpha_k - 1.0) < 1e-15
        assert abs(poly.delta_k - 1.0 / 81.0) < 1e-15
        assert abs(poly.eps_k - (-1.0 / 9.0)) < 1e-15
        assert abs(poly(1.0) - 1.0 / 81.0) < 1e-15
        assert abs(poly(0.5) - 361.0 / 1296.0) < 1e-15
        assert abs(poly(0.0) - 1.0) < 1e-15

    def test_derivative_sign_at_zero(self):
        # p'(0) = -2 alpha + 2 gamma < 0 whenever ||L|| < ||R||
        rng = np.random.default_rng(21)
        for _ in range(10):
            R = rng.standard_normal((4, 4))
            L = 0.3 * rng.standard_normal((4, 4))
            SBS = rng.standard_normal((4, 4))
            poly = line_search_poly(R, L, SBS)
            assert poly.coefficients()[3] < 0  # p'(0)

    def test_identity_against_direct_evaluation(self):
        rng = np.random.default_rng(22)
        for seed in range(6):
            n = 5 + seed
            prob = generate_admissible_dense(n, seed=400 + seed)
            X = np.abs(rng.standard_normal((n, n))) * 0.01
            Xt = X + 0.05 * np.abs(rng.standard_normal((n, n)))
            R_k = residual(prob, X)
            S = Xt - X
            # L = what the step equation leaves over at Xt
            L = (prob.D - X.T @ prob.B) @ Xt + Xt.T @ (prob.A - prob.B @ X) \
                + prob.C + X.T @ prob.B @ X
            SBS = S.T @ prob.B @ S
            poly = line_search_poly(R_k, L, SBS)
            for lam in np.linspace(0.0, 2.0, 21):
                direct = np.linalg.norm(residual(prob, X + lam * S)) ** 2
                assert abs(poly(lam) - direct) <= 1e-9 * max(direct, 1e-12)


class TestMinimizeQuartic:
    def test_pure_newton_case(self):
        # beta = gamma = delta = eps = xi = 0: p = (1-lam)^2 alpha, min at 1
        poly = LineSearchPoly(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert abs(minimize_quartic(poly, 1.0) - 1.0) < 1e-12

    def test_interior_minimum(self):
        # p(lam) = (1-lam)^2 + lam^2  -> minimum at 1/2
        poly = LineSearchPoly(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        lam = minimize_quartic(poly, 1.0)
        assert abs(lam - 0.5) < 1e-12

    def test_respects_interval_end(self):
        poly = LineSearchPoly(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        lam = minimize_quartic(poly, 0.25)
        assert lam == pytest.approx(0.25)

    def test_minimizer_beats_samples(self):
        # coefficients as the solver produces them: |gamma| <= eta*alpha with
        # eta < 1, so p'(0) < 0 and a positive minimizer exists
        rng = np.random.default_rng(23)
        for _ in range(40):
            alpha = float(rng.uniform(0.5, 2.0))
            beta = float(rng.uniform(0.0, 0.2)) * alpha
            gamma = float(rng.uniform(-0.9, 0.9)) * alpha
            delta = float(rng.uniform(0.0, 2.0))
            eps = float(rng.standard_normal() * 0.3)
            xi = float(rng.standard_normal() * 0.3)
            poly = LineSearchPoly(alpha, beta, gamma, delta, eps, xi)
            end = float(rng.uniform(0.3, 2.0))
            lam = minimize_quartic(poly, end)
            assert 0.0 < lam <= end + 1e-12
            best = min(poly(t) for t in np.linspace(1e-6, end, 400))
            assert poly(lam) <= best + 1e-9 * max(1.0, abs(best))


class TestExactLineSearchSolver:
    def test_monotone_relative_residual(self):
        for seed in range(5):
            prob = generate_admissible_dense(9, seed=500 + seed)
            X, rep = solve_newton(prob, tol=1e-12, line_search="exact")
            assert rep.status is tr.Status.CONVERGED
            rels = [r.relative_residual for r in rep.iterations]
            for a, b in zip(rels, rels[1:]):
                assert b <= a * (1.0 + 1e-10)

    def test_lambda_snaps_to_one(self):
        # near the solution the quartic minimum is lam ~ 1 and is recorded as 1
        prob = generate_admissible_dense(7, seed=42)
        X, rep = solve_newton(prob, tol=1e-12, line_search="exact")
        assert rep.iterations[-1].step_size == 1.0
        assert rep.min_step_size is not None and rep.min_step_size > 0


class TestMinimality:
    def test_fixed_point_limit_is_minimal(self):
        for seed in range(4):
            prob = generate_admissible_dense(7, seed=600 + seed)
            X, rep = solve_newton(prob, tol=1e-13)
            assert verify_minimality(prob, X)

    def test_larger_solution_rejected(self):
        prob = generate_admissible_dense(6, seed=8)
        X, rep = solve_newton(prob, tol=1e-13)
        assert not verify_minimality(prob, X + 1.0)


class TestFailureStatuses:
    def test_max_iterations(self):
        prob = generate_admissible_dense(8, seed=77)
        X, rep = solve_fixed_point(prob, tol=1e-13, max_iter=2)
        assert rep.status is tr.Status.MAX_ITERATIONS
        assert len(rep.iterations) == 2

    def test_singular_newton_pencil(self):
        # D = -A^T = I makes S_T(X) = X - X^T... wait: D X + X^T A with
        # D = I, A = -I gives X - X^T, singular on symmetric inputs.
        prob = tr.TRiccatiProblem(A=-np.eye(2), B=np.zeros((2, 2)),
                                  C=-np.ones((2, 2)), D=np.eye(2))
        X, rep = solve_newton(prob, tol=1e-12)
        assert rep.status is tr.Status.INNER_SOLVE_FAILED
        assert rep.iterations  # failure recorded in the trace

    def test_newton_failure_warning_names_the_step(self):
        prob = tr.TRiccatiProblem(A=-np.eye(2), B=np.zeros((2, 2)),
                                  C=-np.ones((2, 2)), D=np.eye(2))
        X, rep = solve_newton(prob, tol=1e-12)
        assert rep.warnings[0].startswith("Newton step 1:")

    def test_min_lambda_only_in_newton_reports(self):
        prob = generate_admissible_dense(8, seed=3)
        assert "min_lambda" not in solve_fixed_point(prob)[1].to_dict()
        for line_search in ("off", "exact"):
            rep = solve_newton(prob, line_search=line_search)[1]
            assert rep.to_dict()["min_lambda"] == min(
                rec.step_size for rec in rep.iterations)
