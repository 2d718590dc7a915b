"""Vectorization plumbing, order tests, spectral radii, and the dense oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

import triccati as tr
from triccati import dense_core
from triccati.dense_core import (
    commutation_matrix,
    default_order_tol,
    elementwise_leq,
    tsylv_kron_sparse,
    tsylv_oracle_solve,
)


def vec(X):
    return np.asarray(X).reshape(-1, order="F")


class TestCommutation:
    def test_transposes_vec(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8):
            X = rng.standard_normal((n, n))
            K = commutation_matrix(n)
            assert np.array_equal(K @ vec(X), vec(X.T))

    def test_involution_and_orthogonality(self):
        for n in (2, 4, 7):
            K = commutation_matrix(n)
            assert np.array_equal(K @ K, np.eye(n * n))
            assert np.array_equal(K.T, K)

    def test_scalar_case(self):
        assert np.array_equal(commutation_matrix(1), np.eye(1))


class TestKronOperator:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 6):
            D = rng.standard_normal((n, n))
            A = rng.standard_normal((n, n))
            X = rng.standard_normal((n, n))
            M = tsylv_kron_sparse(D, A).toarray()
            direct = D @ X + X.T @ A
            assert np.allclose(M @ vec(X), vec(direct), atol=1e-12)

    def test_sparse_agrees_with_dense(self):
        rng = np.random.default_rng(2)
        for n in (2, 5):
            D = rng.standard_normal((n, n))
            A = rng.standard_normal((n, n))
            Ms = tsylv_kron_sparse(D, A)
            dense = (np.kron(np.eye(n), D)
                     + np.kron(A.T, np.eye(n)) @ commutation_matrix(n))
            assert np.allclose(Ms.toarray(), dense)


class TestElementwiseLeq:
    def test_respects_tolerance(self):
        M = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert elementwise_leq(M, M + 1e-15)
        assert elementwise_leq(M + 1e-15, M)  # within default tol
        assert not elementwise_leq(M + 1.0, M)

    def test_scale_aware_default(self):
        big = 1e8 * np.ones((3, 3))
        # absolute slack grows with the operand scale
        assert elementwise_leq(big + 1e-5, big)
        assert default_order_tol(big) > 1e-12


class TestOracle:
    def test_solves_small_systems(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 10, 30):
            D = np.diag(2.0 + rng.random(n)) - 0.1 * rng.random((n, n)) / n
            A = -0.1 * rng.random((n, n)) / n
            X = rng.standard_normal((n, n))
            rhs = D @ X + X.T @ A
            Y = tsylv_oracle_solve(D, A, rhs)
            assert np.linalg.norm(Y - X) <= 1e-8 * max(1.0, np.linalg.norm(X))

    def test_sparse_path_above_dense_cutoff(self):
        rng = np.random.default_rng(5)
        n = 50
        D = np.diag(3.0 + rng.random(n))
        A = -0.1 * rng.random((n, n)) / n
        X = rng.standard_normal((n, n))
        rhs = D @ X + X.T @ A
        Y = tsylv_oracle_solve(D, A, rhs)
        assert np.allclose(Y, X, atol=1e-8)

    def test_refuses_oversize(self):
        n = 201
        with pytest.raises(ValueError):
            tsylv_oracle_solve(np.eye(n), np.eye(n), np.eye(n))

    def test_singular_operator_raises(self):
        D = np.zeros((2, 2))
        A = np.zeros((2, 2))
        with pytest.raises(tr.SingularOperatorError):
            tsylv_oracle_solve(D, A, np.ones((2, 2)))


class TestSpectralRadius:
    def test_dense_input_raises(self):
        rng = np.random.default_rng(6)
        M = rng.random((8, 8))
        with pytest.raises(ValueError):
            tr.spectral_radius(M)

    def test_sparse_nonnegative(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(7)
        M = sp.random(40, 40, density=0.2, random_state=rng,
                      data_rvs=rng.random, format="csr")
        rho = tr.spectral_radius(M)
        dense_rho = np.max(np.abs(np.linalg.eigvals(M.toarray())))
        assert abs(rho - dense_rho) < 1e-6 * max(1.0, dense_rho)

    def test_signed_sparse_input_raises(self):
        M = sp.csr_matrix(np.array([[1.0, -2.0], [3.0, 0.0]]))
        with pytest.raises(ValueError):
            tr.spectral_radius(M)
        with pytest.raises(ValueError):
            tr.spectral_radius(sp.csr_matrix([[-2.0]]))


def _dense_rho(M):
    return float(np.max(np.abs(np.linalg.eigvals(M.toarray()))))


class TestStrongComponents:
    """Sparse nonnegative spectral radius from strongly connected components."""

    def _permuted(self, M, seed):
        p = np.random.default_rng(seed).permutation(M.shape[0])
        return M.tocsr()[p][:, p]

    def test_mixed_components_match_eigvals(self):
        blocks = [
            np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.5], [3.0, 0.0, 0.25]]),
            np.array([[0.1, 4.0], [0.7, 0.0]]),
            np.triu(1.0 + np.arange(16.0).reshape(4, 4), k=1),  # nilpotent
            np.diag([0.3, 1.2]),                               # self-loops
        ]
        # dropping the leading block hands the maximum to the next kind
        for k in range(len(blocks)):
            M = self._permuted(sp.block_diag(blocks[k:]), k)
            ref = _dense_rho(M)
            assert abs(tr.spectral_radius(M) - ref) <= 1e-12 * ref

    def test_nilpotent_is_exactly_zero(self):
        U = sp.triu(sp.random(50, 50, density=0.3, random_state=1), k=1)
        assert U.nnz > 0
        assert tr.spectral_radius(self._permuted(U, 2)) == 0.0

    def test_large_component_matches_eigvals(self):
        # above _DENSE_COMPONENT_MAX nodes a component goes to ARPACK
        n, h = 800, 400
        g = np.random.default_rng(12)

        def ring(m):
            return sp.csr_matrix((np.ones(m), (np.arange(m), np.roll(np.arange(m), -1))),
                                 shape=(m, m))

        def noise(m):
            return sp.random(m, m, density=5.0 / m, random_state=g, data_rvs=g.random)

        primitive = ring(n) + noise(n)
        # bipartite, so period 2: -rho is an eigenvalue of the same modulus
        periodic = sp.bmat([[None, ring(h) + noise(h)], [sp.identity(h) + noise(h), None]])
        for M in (primitive.tocsr(), periodic.tocsr()):
            assert csgraph.connected_components(M, connection="strong")[0] == 1
            assert M.shape[0] > dense_core._DENSE_COMPONENT_MAX
            ref = _dense_rho(M)
            assert abs(tr.spectral_radius(M) - ref) <= 1e-12 * ref
