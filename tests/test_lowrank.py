"""Factored-pair algebra against dense references on small instances."""

import numpy as np
import pytest
import scipy.sparse as sp

from triccati.errors import SingularCapacitanceError
from triccati.lowrank import (
    HouseholderQR,
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

rng = np.random.default_rng(7)


def rand_pair(n, m, t, scale=1.0):
    return LowRankPair(scale * rng.standard_normal((n, t)),
                       rng.standard_normal((m, t)))


def small_problem(n=12, p=2, q=3, sparse=False):
    D = np.diag(3.0 + rng.random(n)) - 0.1 * rng.random((n, n)) / n
    A = -0.1 * rng.random((n, n)) / n - 0.5 * np.eye(n)
    if sparse:
        D, A = sp.csr_matrix(D), sp.csr_matrix(A)
    B1 = rng.random((n, p))
    B2 = rng.random((n, p))
    C1 = rng.random((q, n))
    C2 = rng.random((q, n))
    return LowRankTRiccatiProblem(A=A, D=D, B1=B1, B2=B2, C1=C1, C2=C2)


def dense_of(prob):
    A = prob.A.to_dense()
    D = prob.D.to_dense()
    B = prob.B1 @ prob.B2.T
    C = prob.C1.T @ prob.C2
    return A, D, B, C


class TestPairBasics:
    def test_shape_rank_dense(self):
        M = rand_pair(6, 4, 3)
        assert M.shape == (6, 4)
        assert M.rank == 3
        assert np.allclose(M.to_dense(), M.P1 @ M.P2.T)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            LowRankPair(np.ones((4, 2)), np.ones((4, 3)))

    def test_zero_pair(self):
        Z = zero_pair(7)
        assert Z.shape == (7, 7) and Z.rank == 0
        assert lr_frobenius_norm(Z) == 0.0
        assert np.allclose(Z.to_dense(), 0.0)

    def test_vector_inputs_promoted(self):
        M = LowRankPair(np.ones(4).reshape(-1, 1), np.ones(4).reshape(-1, 1))
        assert M.shape == (4, 4) and M.rank == 1


class TestNormsAndInnerProducts:
    def test_norm_matches_dense(self):
        for _ in range(10):
            M = rand_pair(15, 11, 4)
            assert lr_frobenius_norm(M) == pytest.approx(
                np.linalg.norm(M.to_dense()), rel=1e-12)

    def test_inner_product_matches_dense(self):
        for _ in range(10):
            M = rand_pair(9, 13, 3)
            N = rand_pair(9, 13, 5)
            want = float(np.sum(M.to_dense() * N.to_dense()))
            assert lr_inner_product(M, N) == pytest.approx(want, abs=1e-10 * (1 + abs(want)))

    def test_inner_product_shape_check(self):
        with pytest.raises(ValueError):
            lr_inner_product(rand_pair(4, 4, 2), rand_pair(4, 5, 2))

    def test_norm_survives_cancellation(self):
        # nearly cancelling wide pair: the Gram-squared trick would report 0
        Q = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        W = rng.standard_normal((40, 3))
        tiny = 1e-13 * rng.standard_normal((40, 3))
        M = LowRankPair(np.hstack([Q, -Q]), np.hstack([W + tiny, W]))
        got = lr_frobenius_norm(M)
        want = np.linalg.norm(M.to_dense())
        assert got == pytest.approx(want, rel=1e-6)
        assert got > 0


class TestTruncate:
    def test_exact_when_tol_tiny(self):
        M = rand_pair(20, 16, 5)
        T = lr_truncate(M, tol=1e-15)
        assert np.allclose(T.to_dense(), M.to_dense(), atol=1e-10)

    def test_removes_duplicated_columns(self):
        P1 = rng.standard_normal((12, 2))
        P2 = rng.standard_normal((10, 2))
        M = LowRankPair(np.hstack([P1, P1]), np.hstack([P2, P2]))
        T = lr_truncate(M, tol=1e-12)
        assert T.rank == 2
        assert np.allclose(T.to_dense(), M.to_dense(), atol=1e-10)

    def test_zero_in_zero_out(self):
        Z = lr_truncate(LowRankPair(np.zeros((5, 2)), np.zeros((4, 2))))
        assert Z.rank == 0 and Z.shape == (5, 4)

    def test_balanced_factors(self):
        M = rand_pair(9, 9, 4, scale=100.0)
        T = lr_truncate(M, tol=1e-14)
        c1 = np.linalg.norm(T.P1, axis=0)
        c2 = np.linalg.norm(T.P2, axis=0)
        assert np.allclose(c1, c2, rtol=1e-8)


def residual_shaped(n=40, t=6, p=1, q=3):
    """Rank-deficient factors of the residual's shape [D P1, P2, P2 a, C1^T]:
    the XBX block P2 a lies in the span of the P2 block."""
    P1 = rng.standard_normal((n, t))
    P2 = rng.standard_normal((n, t))
    D = np.diag(3.0 + rng.random(n))
    a = rng.standard_normal((t, p))
    return np.hstack([D @ P1, P2, -P2 @ a, rng.random((n, q))])


class TestHouseholderQR:
    """Against np.linalg.qr, the same Householder algorithm unblocked."""

    @pytest.mark.parametrize("shape", [(50, 7), (40, 40), (3, 5), (1, 2),
                                       (300, 70)])
    def test_matches_numpy_qr(self, shape):
        F = rng.standard_normal(shape)
        Q, R = np.linalg.qr(F)
        qr = HouseholderQR(F)
        scale = np.linalg.norm(F)
        assert qr.R.shape == R.shape
        assert np.allclose(qr.R, R, rtol=0.0, atol=1e-13 * scale)
        C = rng.standard_normal((R.shape[0], 4))
        assert np.allclose(qr.apply(C), Q @ C, rtol=0.0, atol=1e-13 * np.linalg.norm(C))
        Y = rng.standard_normal((shape[0], 3))
        assert np.allclose(qr.project(Y), Q.T @ Y, rtol=0.0, atol=1e-13 * np.linalg.norm(Y))

    def test_zero_width(self):
        qr = HouseholderQR(np.zeros((20, 0)))
        assert qr.R.shape == (0, 0)
        assert np.array_equal(qr.apply(np.zeros((0, 3))), np.zeros((20, 3)))
        assert qr.project(np.ones((20, 3))).shape == (0, 3)

    def test_rank_deficient_residual_factors(self):
        t = 6
        F = residual_shaped(t=t)
        _, R = np.linalg.qr(F)
        qr = HouseholderQR(F)
        scale = np.linalg.norm(F)
        # R is unique on the full-rank leading 2t columns; past the
        # dependent block its rows depend on rounding noise, in both
        assert np.allclose(qr.R[:, :2 * t], R[:, :2 * t], rtol=0.0,
                           atol=1e-13 * scale)
        assert np.allclose(np.linalg.svd(qr.R, compute_uv=False),
                           np.linalg.svd(R, compute_uv=False),
                           rtol=0.0, atol=1e-13 * scale)
        Q = qr.apply(np.eye(qr.R.shape[0]))
        assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0.0, atol=1e-13)
        assert np.allclose(Q @ qr.R, F, rtol=0.0, atol=1e-13 * scale)

    def test_norm_and_truncate_of_wide_factors(self):
        # n = 1 with two columns: one reflector for two columns
        M = LowRankPair(np.array([[2.0, -1.0]]), np.array([[1.5, 4.0]]))
        assert lr_frobenius_norm(M) == pytest.approx(1.0, rel=1e-15)
        T = lr_truncate(M)
        assert T.rank == 1
        assert T.to_dense() == pytest.approx(np.array([[-1.0]]), rel=1e-15)


SPECTRUM = np.array([1.0, 1e-3, 1e-6, 1e-9])


def spectrum_pair(s, n=15, m=12):
    """Pair whose product has exactly the singular values s."""
    Q1 = np.linalg.qr(rng.standard_normal((n, s.size)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((m, s.size)))[0]
    return LowRankPair(Q1 * s, Q2)


class TestTruncateTailBudget:
    # tails of SPECTRUM relative to its norm: ~1e-3, ~1e-6, ~1e-9
    @pytest.mark.parametrize("rel_tail, keep", [
        (1e-10, 4), (1e-8, 3), (1e-5, 2), (1e-2, 1), (1.0, 0)])
    def test_keeps_values_above_budget(self, rel_tail, keep):
        M = spectrum_pair(SPECTRUM)
        T = lr_truncate(M, tol=0.0, rel_tail=rel_tail)
        assert T.rank == keep
        got = np.linalg.svd(T.to_dense(), compute_uv=False)[:keep]
        assert np.allclose(got, SPECTRUM[:keep], rtol=1e-6)

    @pytest.mark.parametrize("rel_tail", [1e-8, 1e-5, 1e-2])
    def test_dropped_mass_is_the_tail(self, rel_tail):
        M = spectrum_pair(SPECTRUM)
        T = lr_truncate(M, tol=0.0, rel_tail=rel_tail)
        dropped = np.linalg.norm(M.to_dense() - T.to_dense())
        tail = np.sqrt(np.sum(SPECTRUM[T.rank:] ** 2))
        assert dropped == pytest.approx(tail, rel=1e-6)
        assert dropped <= rel_tail * np.linalg.norm(M.to_dense())

    def test_no_budget_keeps_floor_and_cap_rules(self):
        M = spectrum_pair(SPECTRUM)
        for kw, keep in [({"tol": 1e-12}, 4), ({"tol": 1e-4}, 2)]:
            T = lr_truncate(M, **kw)
            T0 = lr_truncate(M, rel_tail=None, **kw)
            assert T.rank == keep
            assert np.array_equal(T.P1, T0.P1) and np.array_equal(T.P2, T0.P2)

    def test_budget_combines_with_floor_and_cap(self):
        M = spectrum_pair(SPECTRUM)
        # the stricter of the two rules decides
        assert lr_truncate(M, tol=1e-4, rel_tail=1e-10).rank == 2
        assert lr_truncate(M, tol=1e-12, rel_tail=1e-5).rank == 2


class TestTruncateAccuracy:
    def test_singular_values_and_orthonormal_factors(self):
        s = np.array([3.0, 1.0, 0.25, 1e-3, 1e-7])
        for n, m in [(60, 45), (200, 30)]:
            M = spectrum_pair(s, n=n, m=m)
            # two copies of each column make the factors rank deficient
            M = LowRankPair(np.hstack([M.P1, M.P1]), 0.5 * np.hstack([M.P2, M.P2]))
            T = lr_truncate(M, tol=1e-12)
            assert T.rank == s.size
            # the reference: np.linalg.qr of both factors, SVD of the core
            R1, R2 = np.linalg.qr(M.P1)[1], np.linalg.qr(M.P2)[1]
            ref = np.linalg.svd(R1 @ R2.T, compute_uv=False)[:s.size]
            # balanced factors: column i of each is sqrt(s_i) times a unit vector
            got = np.linalg.norm(T.P1, axis=0) * np.linalg.norm(T.P2, axis=0)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * ref[0])
            assert np.allclose(got, s, rtol=0.0, atol=1e-13 * s[0])
            for P in (T.P1, T.P2):
                G = P / np.sqrt(got)
                assert np.allclose(G.T @ G, np.eye(s.size), rtol=0.0, atol=1e-13)

    def test_residual_shaped_pair(self):
        F1 = residual_shaped()
        F2 = residual_shaped()
        M = LowRankPair(F1, F2)
        T = lr_truncate(M, tol=1e-14)
        R1, R2 = np.linalg.qr(F1)[1], np.linalg.qr(F2)[1]
        want = np.linalg.svd(R1 @ R2.T, compute_uv=False)
        got = np.linalg.norm(T.P1, axis=0) * np.linalg.norm(T.P2, axis=0)
        keep = T.rank
        assert np.allclose(got, want[:keep], rtol=0.0, atol=1e-13 * want[0])
        assert np.all(want[keep:] <= 1e-14 * want[0] * (1 + 1e-6))


class TestMatrixOperator:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_products_and_solves(self, sparse):
        n = 14
        Ad = np.diag(2.0 + rng.random(n)) + 0.1 * rng.standard_normal((n, n))
        A = sp.csr_matrix(Ad) if sparse else Ad
        op = MatrixOperator(A)
        Y = rng.standard_normal((n, 3))
        assert np.allclose(op.matvec(Y), Ad @ Y)
        assert np.allclose(op.rmatvec(Y), Ad.T @ Y)
        assert np.allclose(Ad @ op.solve(Y), Y, atol=1e-10)
        assert np.allclose(Ad.T @ op.solve_t(Y), Y, atol=1e-10)
        assert np.allclose(op.to_dense(), Ad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MatrixOperator(np.ones((3, 4)))


class TestSMW:
    def test_matches_dense_solve(self):
        n, r = 16, 3
        A = np.diag(4.0 + rng.random(n)) + 0.2 * rng.standard_normal((n, n))
        M = rng.standard_normal((n, r))
        N = 0.1 * rng.standard_normal((n, r))
        Y = rng.standard_normal((n, 4))
        Z = ShiftedOperator(A, M, N).solve(Y)
        assert np.allclose((A - M @ N.T) @ Z, Y, atol=1e-9)

    def test_empty_correction_is_plain_solve(self):
        n = 8
        A = np.diag(2.0 + rng.random(n))
        Y = rng.standard_normal((n, 2))
        Z = ShiftedOperator(A, np.zeros((n, 0)), np.zeros((n, 0))).solve(Y)
        assert np.allclose(A @ Z, Y, atol=1e-12)

    def test_singular_capacitance_raises(self):
        # A = I, M = N = e1  ->  capacitance 1 - 1 = 0
        n = 5
        e1 = np.zeros((n, 1)); e1[0, 0] = 1.0
        with pytest.raises(SingularCapacitanceError):
            ShiftedOperator(np.eye(n), e1, e1).solve(np.ones((n, 1)))


class TestShiftedOperator:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_explicit_dense(self, sparse):
        n, r = 13, 2
        base_d = np.diag(5.0 + rng.random(n)) + 0.1 * rng.standard_normal((n, n))
        base = sp.csc_matrix(base_d) if sparse else base_d
        M = rng.standard_normal((n, r))
        N = 0.2 * rng.standard_normal((n, r))
        op = ShiftedOperator(base, M, N)
        dense = base_d - M @ N.T
        Y = rng.standard_normal((n, 3))
        assert np.allclose(op.matvec(Y), dense @ Y)
        assert np.allclose(op.rmatvec(Y), dense.T @ Y)
        assert np.allclose(dense @ op.solve(Y), Y, atol=1e-9)
        assert np.allclose(dense.T @ op.solve_t(Y), Y, atol=1e-9)
        assert np.allclose(op.matvec(np.eye(n)), dense)

    def test_trivial_shift(self):
        n = 6
        base = np.diag(1.0 + rng.random(n))
        op = ShiftedOperator(base, np.zeros((n, 0)), np.zeros((n, 0)))
        Y = rng.standard_normal((n, 2))
        assert np.allclose(base @ op.solve(Y), Y, atol=1e-12)
        assert np.allclose(op.matvec(np.eye(n)), base)

    def test_one_factorization_serves_transpose(self):
        # transpose solve must be consistent with the same capacitance data
        n, r = 10, 3
        base = np.diag(3.0 + rng.random(n))
        M = rng.standard_normal((n, r))
        N = 0.1 * rng.standard_normal((n, r))
        op = ShiftedOperator(base, M, N)
        dense = base - M @ N.T
        y = rng.standard_normal(n)
        assert np.allclose(dense.T @ op.solve_t(y), y, atol=1e-10)


class TestProblemContainer:
    def test_properties(self):
        prob = small_problem(n=11, p=2, q=4)
        assert (prob.n, prob.p, prob.q) == (11, 2, 4)
        C = prob.C1.T @ prob.C2
        assert np.allclose(prob.c_pair().to_dense(), C)
        assert prob.c_norm() == pytest.approx(np.linalg.norm(C), rel=1e-12)

    def test_shape_validation(self):
        n = 6
        D = np.eye(n); A = -np.eye(n)
        with pytest.raises(ValueError):
            LowRankTRiccatiProblem(A=A, D=np.eye(n + 1), B1=np.ones((n, 1)),
                                   B2=np.ones((n, 1)), C1=np.ones((1, n)),
                                   C2=np.ones((1, n)))
        with pytest.raises(ValueError):
            LowRankTRiccatiProblem(A=A, D=D, B1=np.ones((n, 1)),
                                   B2=np.ones((n, 2)), C1=np.ones((1, n)),
                                   C2=np.ones((1, n)))
        with pytest.raises(ValueError):
            LowRankTRiccatiProblem(A=A, D=D, B1=np.ones((n, 1)),
                                   B2=np.ones((n, 1)), C1=np.ones((1, n - 1)),
                                   C2=np.ones((1, n - 1)))

    def test_shifted_coefficients_match_dense(self):
        prob = small_problem(n=10, p=2, q=2, sparse=True)
        A, D, B, _ = dense_of(prob)
        X = rand_pair(10, 10, 3, scale=0.1)
        Xd = X.to_dense()
        dhat, ahat = prob.shifted_coefficients(
            lr_quadratic_term(X, prob.B1, prob.B2))
        assert np.allclose(dhat.matvec(np.eye(10)), D - Xd.T @ B)
        assert np.allclose(ahat.matvec(np.eye(10)), A - B @ Xd)


class TestResidualAndStep:
    def test_residual_matches_dense(self):
        for sparse in (False, True):
            prob = small_problem(n=12, p=2, q=3, sparse=sparse)
            A, D, B, C = dense_of(prob)
            X = rand_pair(12, 12, 4, scale=0.3)
            Xd = X.to_dense()
            want = D @ Xd + Xd.T @ A - Xd.T @ B @ Xd + C
            R = lr_riccati_residual(prob, X)
            assert R.rank == 2 * 4 + prob.p + prob.q
            assert np.allclose(R.to_dense(), want, atol=1e-10)

    def test_residual_at_zero_is_c(self):
        prob = small_problem()
        R = lr_riccati_residual(prob, zero_pair(prob.n))
        assert np.allclose(R.to_dense(), prob.C1.T @ prob.C2, atol=1e-12)

    def test_step_and_L_identity(self):
        prob = small_problem(n=14, p=2, q=2)
        A, D, B, C = dense_of(prob)
        X = rand_pair(14, 14, 3, scale=0.2)
        Xt = rand_pair(14, 14, 5, scale=0.2)
        S, L = lr_step_and_Lresidual(prob, X, Xt)
        Xd, Td = X.to_dense(), Xt.to_dense()
        assert np.allclose(S.to_dense(), Td - Xd, atol=1e-12)
        wantL = (D - Xd.T @ B) @ Td + Td.T @ (A - B @ Xd) + Xd.T @ B @ Xd + C
        assert np.allclose(L.to_dense(), wantL, atol=1e-9)

    def test_grouped_L_equals_six_block_L(self):
        prob = small_problem(n=30, p=2, q=3, sparse=True)
        X = rand_pair(30, 30, 4, scale=0.3)
        Xt = rand_pair(30, 30, 7, scale=0.3)
        _, L = lr_step_and_Lresidual(prob, X, Xt)
        P1, P2, T1, T2 = X.P1, X.P2, Xt.P1, Xt.P2
        alpha, beta = P1.T @ prob.B1, P1.T @ prob.B2
        alpha_t, beta_t = T1.T @ prob.B1, T1.T @ prob.B2
        # the term-by-term form: D X~, -X^T B X~, X~^T A, -X~^T B X, X^T B X, C
        blocks = [
            (prob.D.matvec(T1), T2),
            (-P2 @ (alpha @ beta_t.T), T2),
            (T2, prob.A.rmatvec(T1)),
            (T2, -P2 @ (beta @ alpha_t.T)),
            (P2 @ alpha, P2 @ beta),
            (prob.C1.T, prob.C2.T),
        ]
        six = sum(F1 @ F2.T for F1, F2 in blocks)
        size = max(np.linalg.norm(F1) * np.linalg.norm(F2) for F1, F2 in blocks)
        assert L.rank == 2 * 7 + 4 + 3
        assert np.linalg.norm(L.to_dense() - six) <= 1e-14 * size

    def test_step_truncation_preserves_value(self):
        prob = small_problem(n=10, p=1, q=1)
        X = rand_pair(10, 10, 2, scale=0.1)
        Xt = rand_pair(10, 10, 2, scale=0.1)
        S0, L0 = lr_step_and_Lresidual(prob, X, Xt)
        S1, L1 = (lr_truncate(M, tol=1e-13) for M in (S0, L0))
        assert S1.rank <= S0.rank and L1.rank <= L0.rank
        assert np.allclose(S1.to_dense(), S0.to_dense(), atol=1e-9)
        assert np.allclose(L1.to_dense(), L0.to_dense(), atol=1e-9)

    def test_quadratic_term(self):
        B1 = rng.random((12, 2)); B2 = rng.random((12, 2))
        S = rand_pair(12, 12, 4)
        got = lr_quadratic_term(S, B1, B2)
        Sd = S.to_dense()
        assert got.rank == 2
        assert np.allclose(got.to_dense(), Sd.T @ (B1 @ B2.T) @ Sd, atol=1e-9)
