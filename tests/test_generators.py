"""Problem generators: stencils checked by hand, structural invariants,
and determinism."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from triccati import generators
from triccati.generators import (
    _convection_diffusion,
    generate_admissible_dense,
    generate_ex1_dense,
    generate_ex1_lowrank,
    generate_ex2_dense,
    generate_ex2_lowrank,
)
from triccati.riccati_dense import residual


class TestConvectionDiffusionStencil:
    def test_hand_built_3x3_grid(self):
        # k = 3, h = 1/4: check every entry of D against the stencil
        n, gamma = 9, 10.0
        D, A = _convection_diffusion(n, gamma)
        D = D.toarray(); A = A.toarray()
        k, h = 3, 0.25
        pts = np.array([1, 2, 3]) * h
        lap1 = (np.diag(2.0 * np.ones(k)) + np.diag(-np.ones(k - 1), 1)
                + np.diag(-np.ones(k - 1), -1)) / h ** 2
        lap = np.kron(np.eye(k), lap1) + np.kron(lap1, np.eye(k))
        assert np.allclose(A, lap)
        cx = (np.diag(np.ones(k - 1), 1) - np.diag(np.ones(k - 1), -1)) / (2 * h)
        # node (i,j) -> row j*k+i (x fastest): coefficient y_j * (1 - x_i)
        coef = np.kron(pts, 1.0 - pts)
        want = lap + np.diag(coef) @ np.kron(np.eye(k), cx) + gamma * np.eye(n)
        assert np.allclose(D, want)

    def test_a_symmetric_d_not(self):
        D, A = _convection_diffusion(25, 1e4)
        assert (A != A.T).nnz == 0
        assert (D != D.T).nnz > 0

    def test_rejects_non_square_grid(self):
        with pytest.raises(ValueError):
            _convection_diffusion(12, 1.0)

    def test_gamma_shifts_diagonal(self):
        D0, _ = _convection_diffusion(16, 0.0)
        D1, _ = _convection_diffusion(16, 7.0)
        diff = (D1 - D0).toarray()
        assert np.allclose(diff, 7.0 * np.eye(16))


class TestEx1:
    def test_dense_shapes_and_meta(self):
        prob, meta = generate_ex1_dense(16, gamma=100.0, seed=3)
        assert prob.n == 16
        assert meta["family"] == "Ex1Dense" and meta["gamma"] == 100.0
        assert np.all(prob.B >= 0) and np.all(prob.C >= 0)  # unconstrained draws

    def test_lowrank_factors_unit_norm(self):
        prob, meta = generate_ex1_lowrank(64, p=2, q=3, gamma=1e4, seed=1)
        assert sp.issparse(prob.A.A) and sp.issparse(prob.D.A)
        for F in (prob.B1, prob.B2, prob.C1, prob.C2):
            assert np.linalg.norm(F) == pytest.approx(1.0)
        assert prob.p == 2 and prob.q == 3

    def test_sign_consistency_flag(self):
        # both factored families build C = C1^T C2 <= 0
        for prob, _ in (generate_ex1_lowrank(16, p=1, q=5, gamma=1e4, seed=5),
                        generate_ex2_lowrank(16, p=1, q=3, seed=5)):
            assert np.all(prob.C1.T @ prob.C2 <= 0)

    def test_determinism(self):
        a, _ = generate_ex1_lowrank(25, p=1, q=5, gamma=1e4, seed=11)
        b, _ = generate_ex1_lowrank(25, p=1, q=5, gamma=1e4, seed=11)
        assert np.array_equal(a.B1, b.B1)
        assert np.array_equal(a.C2, b.C2)
        assert (a.D.A != b.D.A).nnz == 0
        c, _ = generate_ex1_lowrank(25, p=1, q=5, gamma=1e4, seed=12)
        assert not np.array_equal(a.B1, c.B1)


class TestEx2Dense:
    def test_block_structure(self):
        prob, meta = generate_ex2_dense(30, seed=0)
        rng = np.random.default_rng(0)
        R = rng.random((60, 60))
        W = np.diag(R.sum(axis=1)) - R
        assert np.allclose(W.sum(axis=1), 0.0, atol=1e-10)  # zero row sums
        assert np.allclose(prob.D, W[:30, :30])
        assert np.allclose(prob.A, W[30:, 30:])
        assert np.all(prob.B >= 0)
        assert np.linalg.norm(W[30:, :30] + prob.B * np.linalg.norm(W[30:, :30])) < 1e-10

    def test_manufactured_solution(self):
        prob, meta = generate_ex2_dense(40, seed=2)
        X = meta["X_exact"]
        assert np.linalg.norm(X) == pytest.approx(1.0)
        assert np.linalg.norm(residual(prob, X)) <= 1e-10

    def test_linear_parts_diagonally_dominant(self):
        prob, _ = generate_ex2_dense(25, seed=1)
        for M in (prob.D, prob.A):
            off = M - np.diag(np.diag(M))
            assert np.all(off <= 0)
            assert np.all(np.diag(M) > np.abs(off).sum(axis=1) - np.diag(np.abs(M)))


class TestEx2LowRank:
    def test_structure(self):
        prob, meta = generate_ex2_lowrank(400, p=1, q=2, seed=0)
        assert prob.n == 400 and prob.p == 1 and prob.q == 2
        assert sp.issparse(prob.D.A) and sp.issparse(prob.A.A)
        assert np.all(prob.C1.T @ prob.C2 <= 0)
        for F in (prob.B1, prob.B2, prob.C1, prob.C2):
            assert np.linalg.norm(F) == pytest.approx(1.0)

    def test_shifts_make_strong_diagonals(self):
        prob, _ = generate_ex2_lowrank(300, p=1, q=1, seed=4)
        for op, shift in ((prob.D, 1.0), (prob.A, 20.0)):
            M = op.A.toarray()
            off = M - np.diag(np.diag(M))
            assert np.all(off >= 0)          # the random part is nonnegative
            assert np.min(np.diag(M)) >= shift

    def test_shifts_are_exact_spectral_radii(self):
        n = 10000
        for seed in (0, 1, 2, 5):
            prob, _ = generate_ex2_lowrank(n, p=1, q=1, seed=seed)
            rng = np.random.default_rng(seed)  # replay the draws of F and G
            for op, shift in ((prob.D, 1.0), (prob.A, 20.0)):
                F = sp.random(n, n, density=1.0 / n, format="csr",
                              random_state=rng, data_rvs=rng.random)
                _, labels = csgraph.connected_components(F, connection="strong")
                ref = np.max(F.diagonal())
                for c in np.flatnonzero(np.bincount(labels) > 1):
                    idx = np.flatnonzero(labels == c)
                    block = F[idx][:, idx].toarray()
                    ref = max(ref, np.max(np.abs(np.linalg.eigvals(block))))
                rho = op.A.diagonal() - F.diagonal() - shift
                assert np.all(np.abs(rho - ref) <= 1e-12 * max(ref, 1.0))

    def test_strong_components_stay_small(self, monkeypatch):
        # spectral_radius eigensolves each strong component densely (0.1 to
        # 0.2 s at 500 nodes); at the benchmark's n the largest has 67 nodes
        largest = []
        spectral_radius = generators.spectral_radius

        def spy(M):
            labels = csgraph.connected_components(M, connection="strong")[1]
            largest.append(int(np.bincount(labels).max()))
            return spectral_radius(M)

        monkeypatch.setattr(generators, "spectral_radius", spy)
        for seed in (0, 1, 2):
            generate_ex2_lowrank(10000, p=1, q=1, seed=seed)
        assert len(largest) == 6 and max(largest) <= 500

    def test_determinism(self):
        a, _ = generate_ex2_lowrank(200, p=1, q=1, seed=9)
        b, _ = generate_ex2_lowrank(200, p=1, q=1, seed=9)
        assert (a.D.A != b.D.A).nnz == 0
        assert np.array_equal(a.C1, b.C1)


class TestAdmissible:
    def test_assumption_audit_passes(self):
        for seed in range(6):
            prob = generate_admissible_dense(8, seed=seed)
            audit = prob.check_assumption1()
            assert audit["holds"], audit

    def test_determinism(self):
        a = generate_admissible_dense(10, seed=3)
        b = generate_admissible_dense(10, seed=3)
        assert np.array_equal(a.D, b.D) and np.array_equal(a.C, b.C)
