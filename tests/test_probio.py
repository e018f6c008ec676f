"""Problems, sparse solves, Matrix Market round trips, generators."""

import numpy as np
import pytest
import scipy.sparse as sp

from krymat.errors import DimensionError, FactorizationError, ParseError
from krymat.probio import (DLEProblem, GenSylvesterProblem, LinearSolver,
                           gen_laplacian2d, gen_random_stable, gen_sylvester_q2,
                           gsylv_apply, load_problem, random_full_rank,
                           read_matrix_market, save_problem, write_matrix_market)

from conftest import stable_sparse


def _identity_problem(n, p):
    c = np.eye(n, p) + 0.5 * np.ones((n, p))
    return GenSylvesterProblem((sp.identity(n, format="csr"),),
                               (sp.identity(p, format="csr"),), c)


class TestGsylvApply:
    def test_identity_pair(self, rng):
        prob = _identity_problem(4, 3)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(gsylv_apply(prob, x), x)

    def test_diagonal_case(self, rng):
        a = np.array([2.0, -1.0, 3.0])
        b = np.array([0.5, 4.0])
        prob = GenSylvesterProblem((sp.diags(a).tocsr(),), (sp.diags(b).tocsr(),),
                                   np.eye(3, 2) + 0.5)
        x = rng.standard_normal((3, 2))
        np.testing.assert_allclose(gsylv_apply(prob, x), a[:, None] * x * b[None, :])

    def test_kronecker_oracle(self, rng):
        prob = gen_sylvester_q2(5, 3, seed=5)
        m = np.zeros((15, 15))
        for a_i, b_i in zip(prob.a_list, prob.b_list):
            m += np.kron(b_i.toarray().T, a_i.toarray())
        x = rng.standard_normal((5, 3))
        got = gsylv_apply(prob, x).flatten(order="F")
        np.testing.assert_allclose(got, m @ x.flatten(order="F"), atol=1e-12)

    def test_linearity(self, rng):
        prob = gen_sylvester_q2(6, 2, seed=2)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 2))
        alpha = 1.7
        np.testing.assert_allclose(
            gsylv_apply(prob, alpha * x + y),
            alpha * gsylv_apply(prob, x) + gsylv_apply(prob, y), atol=1e-12)

    def test_shape_mismatch(self):
        prob = _identity_problem(4, 3)
        with pytest.raises(DimensionError):
            gsylv_apply(prob, np.ones((3, 4)))


class TestLinearSolver:
    def test_identity(self):
        solver = LinearSolver(sp.identity(5, format="csr"))
        w = np.arange(10.0).reshape(5, 2)
        np.testing.assert_allclose(solver.solve(w), w)

    def test_diagonal(self):
        solver = LinearSolver(sp.diags([2.0] * 4).tocsr())
        np.testing.assert_allclose(solver.solve(np.ones((4, 1))), 0.5 * np.ones((4, 1)))

    def test_residual_tolerance(self, rng):
        a = stable_sparse(50, rng)
        spd = (a @ a.T).tocsr() + 0.1 * sp.identity(50)
        solver = LinearSolver(spd)
        w = rng.standard_normal((50, 3))
        x = solver.solve(w)
        assert np.linalg.norm(spd @ x - w) <= 1e-10 * np.linalg.norm(w)

    def test_singular_rejected(self):
        singular = sp.csr_matrix((3, 3))
        with pytest.raises(FactorizationError):
            LinearSolver(singular)


class TestMatrixMarket:
    def test_coordinate_diag(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 3.0\n2 2 4.0\n")
        mat = read_matrix_market(path)
        np.testing.assert_allclose(mat.toarray(), np.diag([3.0, 4.0]))

    def test_symmetric_mirrors(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 1\n2 1 5.0\n")
        mat = read_matrix_market(path).toarray()
        dense_path = tmp_path / "dense.mtx"
        write_matrix_market(dense_path, np.array([[0.0, 5.0], [5.0, 0.0]]))
        np.testing.assert_array_equal(mat, read_matrix_market(dense_path))

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n2 2\n")
        with pytest.raises(ParseError, match="complex"):
            read_matrix_market(path)

    def test_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 3.0\n2 x 4.0\n")
        with pytest.raises(ParseError, match="line 4"):
            read_matrix_market(path)

    def test_sparse_roundtrip_17_digits(self, rng, tmp_path):
        a = stable_sparse(12, rng)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        back = read_matrix_market(path)
        assert (a != back).nnz == 0

    def test_dense_roundtrip(self, rng, tmp_path):
        x = rng.standard_normal((5, 3)) * np.pi
        path = tmp_path / "x.mtx"
        write_matrix_market(path, x)
        np.testing.assert_array_equal(read_matrix_market(path), x)


class TestLaplacian:
    def test_n0_2_stencil_by_hand(self):
        a = gen_laplacian2d(2).toarray()
        assert a.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(a), [-36.0] * 4)
        expected = np.array([
            [-36.0, 9.0, 9.0, 0.0],
            [9.0, -36.0, 0.0, 9.0],
            [9.0, 0.0, -36.0, 9.0],
            [0.0, 9.0, 9.0, -36.0],
        ])
        np.testing.assert_array_equal(a, expected)

    def test_eigenvalues_negative(self):
        a = gen_laplacian2d(10).toarray()
        assert np.linalg.eigvalsh(a).max() < 0.0

    def test_exact_symmetry(self):
        a = gen_laplacian2d(7)
        assert (a != a.T).nnz == 0

    def test_n0_too_small(self):
        with pytest.raises(ValueError):
            gen_laplacian2d(1)


class TestProblems:
    def test_time_interval_validated(self):
        with pytest.raises(DimensionError):
            DLEProblem(gen_laplacian2d(3), np.ones((9, 1)), t0=1.0, tf=0.5)

    def test_low_rank_warning(self):
        b = np.column_stack([np.arange(1.0, 10.0), np.arange(1.0, 10.0) ** 2])
        with pytest.warns(UserWarning, match="low rank"):
            DLEProblem(gen_laplacian2d(3), b)

    def test_rank_deficient_c_warns(self):
        a = (sp.identity(6, format="csr"),)
        b = (sp.identity(2, format="csr"),)
        c = np.ones((6, 2))  # duplicate columns
        with pytest.warns(UserWarning, match="rank deficient"):
            GenSylvesterProblem(a, b, c)

    def test_bundle_roundtrip_dle(self, rng, tmp_path):
        prob = DLEProblem(gen_laplacian2d(4), random_full_rank(16, 1, seed=3),
                          t0=0.25, tf=2.0)
        save_problem(prob, tmp_path / "bundle")
        back = load_problem(tmp_path / "bundle")
        assert isinstance(back, DLEProblem)
        assert (back.a != prob.a).nnz == 0
        np.testing.assert_array_equal(back.b, prob.b)
        assert back.t0 == 0.25 and back.tf == 2.0

    def test_bundle_roundtrip_gensylv(self, tmp_path):
        prob = gen_sylvester_q2(8, 2, seed=11, tf=3.0)
        save_problem(prob, tmp_path / "bundle")
        back = load_problem(tmp_path / "bundle")
        assert isinstance(back, GenSylvesterProblem)
        assert back.q == 2
        for a1, a2 in zip(back.a_list, prob.a_list):
            assert (a1 != a2).nnz == 0
        np.testing.assert_array_equal(back.c, prob.c)

    def test_generators_deterministic(self):
        a1 = gen_random_stable(30, seed=7)
        a2 = gen_random_stable(30, seed=7)
        assert (a1 != a2).nnz == 0
        np.testing.assert_array_equal(random_full_rank(30, 2, seed=7),
                                      random_full_rank(30, 2, seed=7))
