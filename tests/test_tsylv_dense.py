"""QZ-based solver for D X + X^T A = E against the brute-force oracle
and against a block-pair back-substitution on the same QZ factors."""

import numpy as np
import pytest
import scipy.linalg

import triccati as tr
from triccati import tsylv_dense
from oracles import min_pair_rcond, tsylv_oracle_solve
from test_krylov import make_problem
from triccati.krylov import solve_tsylv_krylov
from triccati.lowrank import zero_pair
from triccati.reports import Status
from triccati.riccati_dense import TRiccatiProblem, solve_fixed_point, solve_newton
from triccati.tsylv_dense import TSylvSolver


def relative_residual(D, A, X, E):
    return np.linalg.norm(D @ X + X.T @ A - E) / np.linalg.norm(E)


def admissible(n, rng):
    D = np.diag(2.0 + rng.random(n)) - 0.5 * rng.random((n, n)) / n
    A = -0.5 * rng.random((n, n)) / n
    return D, A


def rotation_structured(n, rng):
    # D built from scaled rotations: about n/2 complex pairs, so 2x2 QZ blocks
    th = rng.uniform(0.2, 1.2)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    m = n - n % 2
    D = np.zeros((n, n))
    D[:m, :m] = np.kron(np.diag(2.0 + rng.random(m // 2)), rot)
    if n > m:
        D[-1, -1] = 2.5
    D += 0.1 * rng.standard_normal((n, n))
    return D, 0.3 * rng.standard_normal((n, n))


def _small_commutation(m, n):
    # K @ vec(M) = vec(M.T) for m-by-n M, column-major vec
    idx = np.arange(m * n)
    i = idx % m
    j = idx // m
    K = np.zeros((m * n, m * n))
    K[j + i * n, idx] = 1.0
    return K


def _rcond(M):
    sv = scipy.linalg.svdvals(M)
    return float(sv[-1] / (sv[0] + 1e-300))


def _solve_pair(R, L, i0, i1, j0, j1, Fij, Fji):
    # the small system coupling blocks I and J (I == J: the diagonal block)
    a = i1 - i0
    b = j1 - j0
    Rii = R[i0:i1, i0:i1]
    Ljj = L[j0:j1, j0:j1]
    if i0 == j0:
        if a == 1:
            den = Rii[0, 0] + Ljj[0, 0]
            rcond = abs(den) / (abs(Rii[0, 0]) + abs(Ljj[0, 0]) + 1e-300)
            return Fij / den, None, rcond
        M = np.kron(np.eye(a), Rii) + np.kron(Ljj, np.eye(a)) @ _small_commutation(a, a)
        y = scipy.linalg.solve(M, Fij.flatten(order="F"))
        return y.reshape((a, a), order="F"), None, _rcond(M)
    Rjj = R[j0:j1, j0:j1]
    Lii = L[i0:i1, i0:i1]
    if a == 1 and b == 1:
        r1, r2 = Rii[0, 0], Rjj[0, 0]
        l1, l2 = Lii[0, 0], Ljj[0, 0]
        det = r1 * r2 - l1 * l2
        rcond = abs(det) / (r1 * r1 + r2 * r2 + l1 * l1 + l2 * l2 + 1e-300)
        f1 = Fij[0, 0]
        f2 = Fji[0, 0]
        return (np.array([[(f1 * r2 - l2 * f2) / det]]),
                np.array([[(r1 * f2 - l1 * f1) / det]]), rcond)
    M = np.block([
        [np.kron(np.eye(b), Rii),
         np.kron(Ljj, np.eye(a)) @ _small_commutation(b, a)],
        [np.kron(Lii, np.eye(b)) @ _small_commutation(a, b),
         np.kron(np.eye(a), Rjj)],
    ])
    f = np.concatenate([Fij.flatten(order="F"), Fji.flatten(order="F")])
    y = scipy.linalg.solve(M, f)
    return (y[:a * b].reshape((a, b), order="F"),
            y[a * b:].reshape((b, a), order="F"), _rcond(M))


def pair_loop_reference(solver, E):
    """Back-substitution over all diagonal-block pairs of the solver's QZ
    form, in decreasing index order, one small system per pair.

    Returns X and the smallest reciprocal condition number of those systems.
    """
    R, L, Q, Z, blocks = solver.R, solver.L, solver.Q, solver.Z, solver.blocks
    n = solver.n
    F = Q.T @ E @ Q
    Y = np.zeros((n, n))
    min_rcond = 1.0
    for bi in range(len(blocks) - 1, -1, -1):
        i0, i1 = blocks[bi]
        for bj in range(len(blocks) - 1, bi - 1, -1):
            j0, j1 = blocks[bj]
            Fij = (F[i0:i1, j0:j1]
                   - R[i0:i1, i1:] @ Y[i1:, j0:j1]
                   - (L[j0:j1, j1:] @ Y[j1:, i0:i1]).T)
            if bj == bi:
                Yij, _, rcond = _solve_pair(R, L, i0, i1, j0, j1, Fij, None)
                Y[i0:i1, i0:i1] = Yij
            else:
                Fji = (F[j0:j1, i0:i1]
                       - R[j0:j1, j1:] @ Y[j1:, i0:i1]
                       - (L[i0:i1, i1:] @ Y[i1:, j0:j1]).T)
                Yij, Yji, rcond = _solve_pair(R, L, i0, i1, j0, j1, Fij, Fji)
                Y[i0:i1, j0:j1] = Yij
                Y[j0:j1, i0:i1] = Yji
            min_rcond = min(min_rcond, rcond)
    return Z @ Y @ Q.T, min_rcond


def singular_pair_pencil(lam7=0.5):
    """n = 10, triangular D and A^T with one 2x2 block: the pencil
    eigenvalues are 2.5, 2, 3, 3.5, 3 exp(+-0.6i), 4, lam7, 1.5, 2.75.
    With lam7 = 0.5 exactly one pair, the eigenvalues 2 and 0.5 (i != j),
    multiplies to 1; no eigenvalue is -1."""
    rng = np.random.default_rng(3)
    n = 10
    D = np.triu(rng.standard_normal((n, n)), 1)
    At = np.triu(rng.standard_normal((n, n)), 1)
    np.fill_diagonal(D, [2.5, 2.0, 3.0, 3.5, 0.0, 0.0, 4.0, lam7, 1.5, 2.75])
    np.fill_diagonal(At, 1.0)
    th = 0.6
    D[4:6, 4:6] = 3.0 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    At[4, 5] = 0.0
    return D, At.T


def reciprocal_pair_pencil(delta):
    """n = 8, triangular D and A^T with two 2x2 blocks whose eigenvalues,
    3 exp(+-0.6i) and (1 + delta)/3 exp(-+0.6i), multiply to 1 + delta: at
    delta = 0 the 8x8 system of that block pair is singular."""
    rng = np.random.default_rng(5)
    n = 8
    D = np.triu(rng.standard_normal((n, n)), 1)
    np.fill_diagonal(D, 2.0 + np.arange(n))
    At = np.eye(n) + 0.3 * np.triu(rng.standard_normal((n, n)), 1)
    rot = lambda th: np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    D[0:2, 0:2] = 3.0 * rot(0.6)
    D[2:4, 2:4] = np.diag([1.5, 2.5])
    D[4:6, 4:6] = (1.0 + delta) / 3.0 * rot(-0.6)
    At[0, 1] = At[4, 5] = 0.0
    return D, At.T


def near_singular_pencils():
    # the lam7 pair of singular_pair_pencil is scalar-scalar (closed form);
    # the reciprocal pair is an 8x8 system, which meets the Cholesky screen
    for j in range(2, 16):
        for sign in (1.0, -1.0):
            yield singular_pair_pencil(0.5 * (1.0 + sign * 10.0 ** -j))
            yield reciprocal_pair_pencil(sign * 10.0 ** -j)


def pair_loop_cases(make):
    # the pencils and right-hand sides of TestAgainstPairLoop
    rng = np.random.default_rng(18)
    for trial in range(12):
        n = int(rng.integers(2, 61))
        D, A = make(n, rng)
        yield trial, n, D, A, rng.standard_normal((n, n))


def general_pencil(n, rng):
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


PAIR_LOOP_MAKERS = [general_pencil, rotation_structured]


class TestAgainstOracle:
    def test_random_admissible_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(1, 21))
            D, A = admissible(n, rng)
            E = rng.standard_normal((n, n))
            X = TSylvSolver(D, A).solve(E)
            Y = tsylv_oracle_solve(D, A, E)
            denom = max(1.0, np.linalg.norm(Y))
            assert np.linalg.norm(X - Y) <= 1e-10 * denom, f"trial {trial} n={n}"

    def test_general_nonsymmetric_instances(self):
        # no structural assumptions at all: random D, A (well conditioned whp)
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(2, 16))
            D = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            A = rng.standard_normal((n, n))
            E = rng.standard_normal((n, n))
            X = TSylvSolver(D, A).solve(E)
            res = np.linalg.norm(D @ X + X.T @ A - E)
            assert res <= 1e-9 * max(1.0, np.linalg.norm(E))

    def test_residual_info(self):
        rng = np.random.default_rng(13)
        D, A = admissible(8, rng)
        solver = TSylvSolver(D, A)
        E = rng.standard_normal((8, 8))
        X = solver.solve(E)
        assert relative_residual(D, A, X, E) <= 1e-10
        assert min_pair_rcond(solver.R, solver.L, solver.blocks) > 0


class TestLinearity:
    def test_solution_is_linear_in_rhs(self):
        rng = np.random.default_rng(14)
        D, A = admissible(9, rng)
        solver = TSylvSolver(D, A)
        E1 = rng.standard_normal((9, 9))
        E2 = rng.standard_normal((9, 9))
        X1 = solver.solve(E1)
        X2 = solver.solve(E2)
        X12 = solver.solve(2.0 * E1 - 3.0 * E2)
        assert np.allclose(X12, 2.0 * X1 - 3.0 * X2, atol=1e-9)

    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(15)
        D, A = admissible(6, rng)
        X = TSylvSolver(D, A).solve(np.zeros((6, 6)))
        assert np.allclose(X, 0.0, atol=1e-12)


class TestScalarAndSmall:
    def test_scalar(self):
        # d x + x a = e -> x = e/(d+a)
        X = TSylvSolver(np.array([[2.0]]),
                        np.array([[1.0]])).solve(np.array([[6.0]]))
        assert abs(X[0, 0] - 2.0) < 1e-14

    def test_two_by_two_exact(self):
        D = np.array([[3.0, 0.0], [0.0, 2.0]])
        A = np.array([[-1.0, 0.0], [0.0, -0.5]])
        X_true = np.array([[1.0, -2.0], [0.5, 4.0]])
        E = D @ X_true + X_true.T @ A
        X = TSylvSolver(D, A).solve(E)
        assert np.allclose(X, X_true, atol=1e-12)


class TestInputChecks:
    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="D must be square"):
            TSylvSolver(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="A must match the shape of D"):
            TSylvSolver(np.eye(3), np.eye(2))
        solver = TSylvSolver(2.0 * np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="must be 3-by-3"):
            solver.solve(np.ones((2, 2)))

    def test_empty_operator(self):
        X = TSylvSolver(np.zeros((0, 0)), np.zeros((0, 0))).solve(
            np.zeros((0, 0)))
        assert X.shape == (0, 0)


class TestSingularity:
    def test_singular_pencil_raises(self):
        # d = 1, a = -1: operator x -> x - x = 0
        with pytest.raises(tr.SingularOperatorError):
            TSylvSolver(np.array([[1.0]]),
                        np.array([[-1.0]])).solve(np.array([[1.0]]))

    def test_structurally_singular_2x2(self):
        # D = I, A = -I makes every diagonal pair sum to zero
        with pytest.raises(tr.SingularOperatorError):
            TSylvSolver(np.eye(2), -np.eye(2)).solve(np.ones((2, 2)))


class TestAgainstPairLoop:
    # the sweep and the pair loop share the QZ factors; only the
    # back-substitution differs, so both agree to near working precision
    @pytest.mark.parametrize("make", PAIR_LOOP_MAKERS, ids=["general", "rotation"])
    def test_solution_and_rcond_match(self, make):
        two_by_two = 0
        for trial, n, D, A, E in pair_loop_cases(make):
            solver = TSylvSolver(D, A)
            two_by_two += sum(e - s == 2 for s, e in solver.blocks)
            X = solver.solve(E)
            X_ref, rcond_ref = pair_loop_reference(solver, E)
            assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref), \
                f"trial {trial} n={n}"
            exact = min_pair_rcond(solver.R, solver.L, solver.blocks)
            assert abs(exact - rcond_ref) <= 1e-10 * rcond_ref, \
                f"trial {trial} n={n}"
        assert two_by_two >= 50


class TestOffDiagonalSingularPair:
    def test_nonsingular_neighbour_solves(self):
        D, A = singular_pair_pencil(lam7=0.6)
        E = np.ones((10, 10))
        X = TSylvSolver(D, A).solve(E)
        assert relative_residual(D, A, X, E) <= 1e-12

    def test_solve_raises(self):
        D, A = singular_pair_pencil()
        solver = TSylvSolver(D, A)  # the check belongs to solve, not to the factorization
        assert sum(e - s == 2 for s, e in solver.blocks) == 1
        with pytest.raises(tr.SingularOperatorError) as exc:
            solver.solve(np.ones((10, 10)))
        assert min_pair_rcond(solver.R, solver.L, solver.blocks) < 1e-14
        assert "dtgsyl" not in str(exc.value)  # caught by the rcond check

    def test_lapack_reports_singular_system(self, monkeypatch):
        # with the rcond check switched off the dtgsyl step meets the pair;
        # one chunk per block keeps the pair's blocks in different chunks
        monkeypatch.setattr(tsylv_dense, "_RCOND_LIMIT", 0.0)
        D, A = singular_pair_pencil()
        solver = TSylvSolver(D, A, rows=1)
        with pytest.raises(tr.SingularOperatorError, match="dtgsyl info"):
            solver.solve(np.ones((10, 10)))

    def test_fixed_point_reports_failed_inner_solve(self):
        # the failure row records step 0, as the factored solver's does
        D, A = singular_pair_pencil()
        prob = TRiccatiProblem(A=A, B=np.zeros((10, 10)), C=-np.ones((10, 10)), D=D)
        for solve in (solve_fixed_point, solve_newton):
            X, report = solve(prob, max_iter=5)
            assert report.status == Status.INNER_SOLVE_FAILED
            assert len(report.iterations) == 1
            assert report.iterations[0].step_size == 0.0

    def test_fixed_point_warning_names_the_iteration(self):
        D, A = singular_pair_pencil()
        prob = TRiccatiProblem(A=A, B=np.zeros((10, 10)), C=-np.ones((10, 10)), D=D)
        X, report = solve_fixed_point(prob, max_iter=5)
        assert report.warnings[0].startswith("iteration 1:")


class TestComplexEigenvalueCoverage:
    def test_rotation_blocks_force_complex_pairs(self):
        # D with rotation structure has complex eigenvalues -> 2x2 QZ blocks
        rng = np.random.default_rng(17)
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        D = np.kron(np.eye(3), 3.0 * rot)
        A = 0.2 * rng.standard_normal((6, 6))
        E = rng.standard_normal((6, 6))
        X = TSylvSolver(D, A).solve(E)
        res = np.linalg.norm(D @ X + X.T @ A - E)
        assert res <= 1e-9 * np.linalg.norm(E)


def screen_stacks():
    """Stacks of small systems for the Cholesky screen: random k-by-k
    matrices with rcond 10^-u (u uniform on [0, 17]) scaled by 2^-600 to
    2^600, pair and diagonal systems of random blocks, and the 3-D batches
    of the near-singular pencils."""
    rng = np.random.default_rng(21)
    count = 400
    for k in (4, 8):
        U = np.linalg.qr(rng.standard_normal((count, k, k)))[0]
        V = np.linalg.qr(rng.standard_normal((count, k, k)))[0]
        u = rng.uniform(0.0, 17.0, count)
        frac = rng.random((count, k))
        frac[:, 0], frac[:, -1] = 0.0, 1.0
        sv = 10.0 ** -(u[:, None] * frac)
        scale = 2.0 ** rng.integers(-600, 601, count)
        yield (U * sv[:, None, :]) @ V.transpose(0, 2, 1) * scale[:, None, None]
    blk = lambda m: rng.standard_normal((500, m, m))
    for a, b in ((1, 2), (2, 1), (2, 2)):
        yield tsylv_dense._pair_systems(blk(a), blk(a), blk(b), blk(b))
    yield tsylv_dense._diag_systems(blk(2), blk(2))
    for D, A in near_singular_pencils():
        solver = TSylvSolver(D, A)
        yield from (f for f in tsylv_dense._pair_batches(solver.R, solver.L, solver.blocks)
                    if f.ndim == 3)


class TestPairScreen:
    @pytest.mark.parametrize("floor", [1e-3, 1e-8, 1e-14])
    def test_certified_systems_meet_the_floor(self, floor):
        certified = 0
        for M in screen_stacks():
            ok = tsylv_dense._certified(M, floor)
            rcond = tsylv_dense._svd_rcond(M)
            assert np.all(rcond[ok] >= floor)
            # and the screen is not idle: clearly well-conditioned systems pass
            k = M.shape[-1]
            assert np.all(ok[rcond >= max(1.01 * np.sqrt(k) * floor, 1e-6)])
            certified += int(ok.sum())
        assert certified > 0


class TestSingularityDecision:
    def test_solve_raises_iff_exact_minimum_below_limit(self):
        cases = [(D, A, E) for make in PAIR_LOOP_MAKERS
                 for _, _, D, A, E in pair_loop_cases(make)]
        cases += [(D, A, np.ones(D.shape)) for D, A in near_singular_pencils()]
        raised = 0
        for D, A, E in cases:
            solver = TSylvSolver(D, A)
            exact = min_pair_rcond(solver.R, solver.L, solver.blocks)
            if exact < tsylv_dense._RCOND_LIMIT:
                with pytest.raises(tr.SingularOperatorError):
                    solver.solve(E)
                raised += 1
            else:
                solver.solve(E)
        assert 8 <= raised < len(cases)


class TestLazyRcond:
    # the exact pair-rcond minimum lives in tests/oracles.py, out of reach
    # of src/; these cases keep the messages of solve's raise sites
    @pytest.mark.parametrize("limit, message, rows", [
        (tsylv_dense._RCOND_LIMIT, "precision$", tsylv_dense._ROWS),
        (0.0, "dtgsyl info", 1),
        (0.0, r"diagonal system of rows 0:8, dgetrf info \d+\)$", tsylv_dense._ROWS)],
        ids=["screen", "dtgsyl", "diagonal"])
    def test_failed_solve_never_computes_the_exact_minimum(self, monkeypatch,
                                                          limit, message, rows):
        # the raise sites of solve: the screen's verdict, and once the
        # screen is switched off dtgsyl's info (one chunk per block) or the
        # info of a chunk's diagonal LU (default chunks, where both blocks
        # of the pair, rows 1 and 7, lie in the first chunk)
        monkeypatch.setattr(tsylv_dense, "_RCOND_LIMIT", limit)
        solver = TSylvSolver(*singular_pair_pencil(), rows=rows)
        with pytest.raises(tr.SingularOperatorError, match=message):
            solver.solve(np.ones((10, 10)))


def schur_pencil(sizes, rng):
    """D and A whose pencil (D, A^T) has one diagonal block per entry of
    sizes: a real eigenvalue for 1, a complex pair for 2, every one of
    modulus in [2, 4], so no two multiply to 1 and none is -1."""
    n = sum(sizes)
    T1 = np.triu(0.5 * rng.standard_normal((n, n)), 1)
    T2 = np.eye(n) + np.triu(0.5 * rng.standard_normal((n, n)), 1)
    s = 0
    for a in sizes:
        r = rng.uniform(2.0, 4.0)
        if a == 1:
            T1[s, s] = r * rng.choice([-1.0, 1.0])
        else:
            th = rng.uniform(0.3, 2.8)
            T1[s:s + 2, s:s + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                 [np.sin(th), np.cos(th)]])
            T2[s, s + 1] = 0.0
        s += a
    Qm = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Zm = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Qm @ T1 @ Zm.T, (Qm @ T2 @ Zm.T).T


def chunk_cases():
    # (kind, n, D, A): mixed, all-1x1 and all-2x2 pencils (one 1x1 block
    # where n is odd)
    rng = np.random.default_rng(41)
    for n in (1, 5, 8, 9, 40):
        mixed = []
        while sum(mixed) < n:
            mixed.append(1 if sum(mixed) == n - 1 else int(rng.integers(1, 3)))
        for kind, sizes in (("mixed", mixed), ("1x1", [1] * n),
                            ("2x2", [2] * (n // 2) + [1] * (n % 2))):
            yield kind, sizes, schur_pencil(sizes, rng)


class TestChunkedSweep:
    @pytest.mark.parametrize("make", PAIR_LOOP_MAKERS, ids=["general", "rotation"])
    def test_partition(self, make):
        for _, n, D, A, _ in pair_loop_cases(make):
            for rows in (1, 2, 3, tsylv_dense._ROWS, 16):
                solver = TSylvSolver(D, A, rows=rows)
                chunks, blocks = solver.chunks, solver.blocks
                if rows == 1:
                    assert chunks == blocks
                # consecutive, covering 0..n, each end a block end: no 2x2
                # block is split
                assert [s for s, _ in chunks] == [0] + [e for _, e in chunks[:-1]]
                assert chunks[-1][1] == n
                assert {e for _, e in chunks} <= {e for _, e in blocks}
                # every chunk but the last has at least rows rows, and
                # stops at the first block that reaches them
                for s, e in chunks[:-1]:
                    assert e - s >= rows
                    assert all(b - s < rows for _, b in blocks if s < b < e)
                assert len(solver._steps) == len(chunks)

    def test_matches_oracle_and_block_sweep(self):
        rng = np.random.default_rng(42)
        for kind, sizes, (D, A) in chunk_cases():
            n = len(D)
            solver = TSylvSolver(D, A)
            assert sorted(e - s for s, e in solver.blocks) == sorted(sizes), kind
            E = rng.standard_normal((n, n))
            X = solver.solve(E)
            Y = tsylv_oracle_solve(D, A, E)
            assert np.linalg.norm(X - Y) <= 1e-10 * np.linalg.norm(Y), f"{kind} n={n}"
            X1 = TSylvSolver(D, A, rows=1).solve(E)
            assert np.linalg.norm(X - X1) <= 1e-12 * np.linalg.norm(X1), f"{kind} n={n}"

    def test_singular_verdict_sets_up_no_chunk(self):
        solver = TSylvSolver(*singular_pair_pencil())
        assert solver.chunks and solver._steps == []

    def test_projected_equations_take_one_step_per_block(self, monkeypatch):
        init = TSylvSolver.__init__
        built = []

        def spied(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(TSylvSolver, "__init__", spied)
        prob = make_problem(n=40, p=1, q=2, seed=0)
        Xt, _, row = solve_tsylv_krylov(prob, zero_pair(prob.n), 1e-10)
        assert Xt is not None, row["inner_message"]
        assert len(built) == row["inner_iterations"]
        assert max(s.n for s in built) >= 2 * tsylv_dense._ROWS
        for s in built:
            assert s.chunks == s.blocks and len(s._steps) == len(s.blocks)
