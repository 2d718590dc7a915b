"""Dense fixed-point and Newton solvers: hand-computed scalar values,
monotone convergence to the minimal solution, and the step-size quartic."""

import numpy as np
import pytest

import triccati as tr
from triccati.generators import generate_admissible_dense, generate_ex2_dense
from triccati.riccati_dense import (
    LineSearchPoly,
    line_search_poly,
    minimize_quartic,
    residual,
    solve_fixed_point,
    solve_newton,
    verify_minimality,
)
from triccati.tsylv_dense import TSylvSolver
from oracles import tsylv_kron_sparse

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
        assert rep.iterations[0].step_size == 0.0  # no step was taken


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
                        tsylv_kron_sparse(D, base.A).toarray()).real > 0))
                    assert got is ref, (n, seed, scale)
                    found.append(ref)
        assert 0 < sum(found) < len(found)

    def test_singular_operator(self):
        # D X + X^T A = X - X^T vanishes on every symmetric X
        for n in (1, 2, 5):
            prob = tr.TRiccatiProblem(A=-np.eye(n), B=np.zeros((n, n)),
                                      C=np.zeros((n, n)), D=np.eye(n))
            assert prob.check_assumption1()["operator_m_matrix"] is False

    def test_singular_operator_after_sign_test(self, monkeypatch):
        # K is a Z-matrix with diag(K) = 1 > 0, but D X + X^T A = D X is
        # singular: the one solve raises, and the audit says no
        raised = []
        solve = TSylvSolver.solve

        def spy(self, E):
            try:
                return solve(self, E)
            except tr.SingularOperatorError as e:
                raised.append(e)
                raise

        monkeypatch.setattr(TSylvSolver, "solve", spy)
        zero = np.zeros((2, 2))
        prob = tr.TRiccatiProblem(A=zero, B=zero, C=-np.ones((2, 2)),
                                  D=[[1.0, -1.0], [-1.0, 1.0]])
        audit = prob.check_assumption1()
        assert len(raised) == 1
        assert audit["b_nonnegative"] and audit["c_nonpositive"]
        assert audit["operator_m_matrix"] is False
        assert audit["holds"] is False

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


class TestInputChecks:
    def test_coefficient_shapes(self):
        with pytest.raises(ValueError, match="B must be 2-by-2"):
            tr.TRiccatiProblem(A=np.eye(2), B=np.eye(3), C=np.eye(2),
                               D=np.eye(2))
        with pytest.raises(ValueError, match="A must be 2-d, got 0-d"):
            tr.TRiccatiProblem(A=1.0, B=1.0, C=1.0, D=1.0)

    def test_interval_end_positive(self):
        poly = LineSearchPoly(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="interval_end must be positive"):
            minimize_quartic(poly, 0.0)

    def test_unknown_line_search(self):
        with pytest.raises(ValueError, match="line_search must be"):
            solve_newton(scalar_problem(), line_search="none")


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

    def test_full_step_snaps_to_one(self):
        # p = (1-lam)^2 on (0, 1 - 5e-9]: the minimizer at the interval end
        # lies within 1e-8 of 1 and is returned as the full step, 1 itself
        poly = LineSearchPoly(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert minimize_quartic(poly, 1.0 - 5e-9) == 1.0
        assert minimize_quartic(poly, 1.0 - 2e-8) == 1.0 - 2e-8

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


def count_factorizations(monkeypatch):
    """Spy on TSylvSolver.__init__; the returned list counts its calls."""
    calls = []
    init = TSylvSolver.__init__

    def spy(self, D, A):
        calls.append(1)
        init(self, D, A)

    monkeypatch.setattr(TSylvSolver, "__init__", spy)
    return calls


class TestClosingStep:
    # Ex2Dense n = 100, seed 1 converges in 4 Newton steps, its closing step
    # in one back-substitution; n = 60, seed 2 in 5, its closing step in two
    @pytest.mark.parametrize("line_search", ["exact", "off"])
    @pytest.mark.parametrize("n, seed", [(100, 1), (60, 2)])
    def test_last_step_reuses_the_factorization(self, monkeypatch, n, seed,
                                                line_search):
        prob, meta = generate_ex2_dense(n, seed=seed)
        calls = count_factorizations(monkeypatch)
        X, rep = solve_newton(prob, tol=1e-12, line_search=line_search,
                              keep_iterates=True)
        assert rep.status is tr.Status.CONVERGED
        assert len(calls) == rep.iteration_count - 1
        assert rep.final_relative_residual <= 1e-12
        Xe = meta["X_exact"]
        assert np.linalg.norm(X - Xe) / np.linalg.norm(Xe) <= 1e-10
        its = [r.inner_iterations for r in rep.iterations]
        assert its[:-1] == [1] * (len(its) - 1) and 1 <= its[-1] <= 3
        # the closing step meets its inner target: a full step S with
        # ||D_k S + S^T A_k + R_k||_F <= 0.1 tol ||C||_F
        Xk = rep.iterates[-2]
        assert rep.iterations[-1].step_size == 1.0
        S = X - Xk
        inner = ((prob.D - Xk.T @ prob.B) @ S + S.T @ (prob.A - prob.B @ Xk)
                 + residual(prob, Xk))
        assert np.linalg.norm(inner) <= 0.1 * 1e-12 * np.linalg.norm(prob.C)

    def test_no_contraction_factors_afresh(self, monkeypatch):
        prob, _ = generate_ex2_dense(100, seed=1)
        plain = solve_newton(prob, tol=1e-12, line_search="exact")[1]
        solve = TSylvSolver.solve

        def halving(self, E):
            # exact on a factorization's first solve, half of it on the
            # next: the closing step's corrections cut its residual by 2 only
            self.calls = getattr(self, "calls", 0) + 1
            return solve(self, E) * (1.0 if self.calls == 1 else 0.5)

        monkeypatch.setattr(TSylvSolver, "solve", halving)
        calls = count_factorizations(monkeypatch)
        X, rep = solve_newton(prob, tol=1e-12, line_search="exact")
        assert rep.status is tr.Status.CONVERGED
        assert rep.iteration_count == plain.iteration_count
        assert len(calls) == rep.iteration_count
        # one failed back-substitution, then the fresh factorization's own
        assert rep.iterations[-1].inner_iterations == 2
        assert rep.final_relative_residual <= 1e-12


def spy_solves(monkeypatch):
    """Spy on TSylvSolver.solve; the returned list keeps a copy of every
    right-hand side it is given."""
    rhs = []
    solve = TSylvSolver.solve

    def spy(self, E):
        rhs.append(np.array(E, copy=True))
        return solve(self, E)

    monkeypatch.setattr(TSylvSolver, "solve", spy)
    return rhs


class TestCorrectionFromResidual:
    # every dense step solves for its correction from R(X_k): the right-hand
    # side of its first back-substitution is R(X_k) itself (C at k = 0)
    @pytest.mark.parametrize("solve", [
        solve_fixed_point,
        lambda prob, **kw: solve_newton(prob, line_search="off", **kw),
        lambda prob, **kw: solve_newton(prob, line_search="exact", **kw)],
        ids=["fixed-point", "newton-off", "newton-exact"])
    @pytest.mark.parametrize("make", [
        lambda: generate_admissible_dense(20, seed=0),
        # its last Newton step is a closing step
        lambda: generate_ex2_dense(60, seed=2)[0]],
        ids=["admissible-20", "ex2-60-2"])
    def test_first_rhs_is_the_residual(self, monkeypatch, solve, make):
        prob = make()
        rhs = spy_solves(monkeypatch)
        X, rep = solve(prob, keep_iterates=True)
        assert rep.status is tr.Status.CONVERGED
        assert np.array_equal(rhs[0], prob.C)
        its = [r.inner_iterations for r in rep.iterations]
        assert sum(its) == len(rhs)
        starts = np.cumsum([0] + its[:-1])
        for Xk, j in zip(rep.iterates, starts):
            assert np.array_equal(rhs[j], residual(prob, Xk))

    def test_fixed_point_rows_count_one_back_substitution(self):
        prob = generate_admissible_dense(8, seed=9)
        X, rep = solve_fixed_point(prob, tol=1e-13)
        assert rep.status is tr.Status.CONVERGED
        assert len(rep.iterations) >= 2
        assert all(r.inner_iterations == 1 for r in rep.iterations)


class TestMinimality:
    def test_fixed_point_limit_is_minimal(self):
        for seed in range(4):
            prob = generate_admissible_dense(7, seed=600 + seed)
            X, rep = solve_newton(prob, tol=1e-13)
            assert verify_minimality(prob, X)

    def test_false_when_fixed_point_fails(self):
        # the fixed point diverges on this instance, so no reference limit
        prob, _ = generate_ex2_dense(60, seed=1)
        X, rep = solve_newton(prob, tol=1e-12)
        assert rep.status is tr.Status.CONVERGED
        assert solve_fixed_point(prob, tol=1e-12, max_iter=10000)[1].status \
            is not tr.Status.CONVERGED
        assert verify_minimality(prob, X) is False

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

    def test_negative_settings(self):
        prob = generate_admissible_dense(4, seed=0)
        for solve in (solve_fixed_point, solve_newton):
            with pytest.raises(ValueError, match=r"tol must be >= 0, got -1"):
                solve(prob, tol=-1.0)
            with pytest.raises(ValueError, match=r"max_iter must be >= 0, got -2"):
                solve(prob, max_iter=-2)
            rep = solve(prob, max_iter=0)[1]
            assert rep.status is tr.Status.MAX_ITERATIONS
            # the residual of X_0 = 0 is C itself
            assert rep.final_relative_residual == 1.0

    @pytest.mark.parametrize("solve", [solve_fixed_point, solve_newton])
    def test_non_integer_max_iter(self, monkeypatch, solve):
        # refused before any factorization is formed
        monkeypatch.setattr(tr.riccati_dense, "TSylvSolver", None)
        prob = generate_admissible_dense(4, seed=0)
        with pytest.raises(ValueError,
                           match=r"max_iter must be an integer, got 2.5$"):
            solve(prob, max_iter=2.5)

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
