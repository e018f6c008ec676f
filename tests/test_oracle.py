"""Dense references cross-validated against an adaptive integrator and each other."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from krymat import oracle, smallmat
from krymat.dlebdf import bdf_integrate
from krymat.errors import CapExceededError, NumericError
from krymat.oracle import dense_dle_exact, dense_dme_solve, kron_operator
from krymat.probio import DLEProblem, GenSylvesterProblem, gen_dle_problem, gen_sylvester_q2
from krymat.smallmat import small_form
from krymat.solution import TimeGrid

from conftest import deadline, dense_dle_bdf, stable_dense, stable_sparse


class TestDenseDme:
    def test_zero_data(self):
        with pytest.warns(UserWarning, match="rank deficient"):
            prob = GenSylvesterProblem((sp.identity(4, format="csr"),),
                                       (sp.identity(2, format="csr"),),
                                       np.zeros((4, 2)))
        traj = dense_dme_solve(prob, TimeGrid(0.0, 1.0, 5))
        np.testing.assert_array_equal(traj, np.zeros((6, 4, 2)))

    def test_scalar_closed_form(self):
        prob = GenSylvesterProblem((sp.csr_matrix(np.array([[-1.0]])),),
                                   (sp.identity(1, format="csr"),),
                                   np.array([[1.0]]))
        grid = TimeGrid(0.0, 2.0, 8)
        traj = dense_dme_solve(prob, grid)
        np.testing.assert_allclose(traj[:, 0, 0], 1.0 - np.exp(-grid.nodes),
                                   atol=1e-13)

    def test_rk_oracle(self, rng):
        prob = gen_sylvester_q2(6, 3, seed=42)
        grid = TimeGrid(0.0, 1.0, 6)
        traj = dense_dme_solve(prob, grid)
        m = kron_operator(prob)
        b = prob.c.flatten(order="F")
        sol = solve_ivp(lambda t, x: m @ x + b, (0.0, 1.0), np.zeros(18),
                        t_eval=grid.nodes, rtol=1e-12, atol=1e-14)
        for k in range(grid.nnodes):
            ref = sol.y[:, k].reshape(6, 3, order="F")
            assert np.linalg.norm(traj[k] - ref) <= 1e-9

    def test_nonzero_x0(self, rng):
        prob0 = gen_sylvester_q2(5, 2, seed=19)
        x0 = rng.standard_normal((5, 2))
        prob = GenSylvesterProblem(prob0.a_list, prob0.b_list, prob0.c, x0=x0)
        grid = TimeGrid(0.0, 1.0, 5)
        traj = dense_dme_solve(prob, grid)
        np.testing.assert_allclose(traj[0], x0, atol=1e-14)
        m = kron_operator(prob)
        b = prob.c.flatten(order="F")
        sol = solve_ivp(lambda t, x: m @ x + b, (0.0, 1.0), x0.flatten(order="F"),
                        t_eval=grid.nodes, rtol=1e-12, atol=1e-14)
        ref = sol.y[:, -1].reshape(5, 2, order="F")
        assert np.linalg.norm(traj[-1] - ref) <= 1e-9

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(smallmat, "DENSE_CAP", 8)
        prob = gen_sylvester_q2(5, 2, seed=1)
        with pytest.raises(CapExceededError):
            dense_dme_solve(prob, TimeGrid(0.0, 1.0, 3))

    def test_cap_bounds_the_vectorized_order(self, monkeypatch):
        # phi1 exponentiates a block of twice the order n p: the cap bounds
        # n p, the order of the matrix phi1 is given, not that block's
        monkeypatch.setattr(smallmat, "DENSE_CAP", 8)
        prob = gen_sylvester_q2(3, 2, seed=42)
        grid = TimeGrid(0.0, 1.0, 6)
        traj = dense_dme_solve(prob, grid)
        m = kron_operator(prob)
        b = prob.c.flatten(order="F")
        sol = solve_ivp(lambda t, x: m @ x + b, (0.0, 1.0), np.zeros(6),
                        t_eval=grid.nodes, rtol=1e-12, atol=1e-14)
        for k in range(grid.nnodes):
            ref = sol.y[:, k].reshape(3, 2, order="F")
            assert np.linalg.norm(traj[k] - ref) <= 1e-9
        # n p = 9 is refused before the operator is built
        monkeypatch.setattr(oracle, "kron_operator", None)
        with pytest.raises(CapExceededError, match="order 9 exceeds"):
            dense_dme_solve(gen_sylvester_q2(3, 3, seed=42), grid)


class TestDenseDle:
    def test_pure_propagation(self, rng):
        a = stable_sparse(10, rng)
        z0 = rng.standard_normal((10, 2))
        with pytest.warns(UserWarning, match="rank deficient"):
            prob = DLEProblem(a, np.zeros((10, 1)), z0=z0)
        grid = TimeGrid(0.0, 1.0, 4)
        traj = dense_dle_exact(prob, grid)
        from scipy.linalg import expm as sexpm
        ad = a.toarray()
        for k, t in enumerate(grid.nodes):
            e = sexpm(t * ad)
            ref = e @ (z0 @ z0.T) @ e.T
            assert np.linalg.norm(traj[k] - ref) <= 1e-10 * (1 + np.linalg.norm(ref))

    def test_scalar(self):
        prob = DLEProblem(sp.csr_matrix(np.array([[-1.0]])), np.array([[1.0]]))
        grid = TimeGrid(0.0, 3.0, 6)
        traj = dense_dle_exact(prob, grid)
        np.testing.assert_allclose(traj[:, 0, 0], (1 - np.exp(-2 * grid.nodes)) / 2,
                                   atol=1e-13)

    def test_cross_oracle_agreement(self, rng):
        # same DLE through the vectorized formulation: M = I kron A + A kron I
        n = 10
        a = stable_sparse(n, rng)
        b = rng.standard_normal((n, 1))
        b /= np.linalg.norm(b)
        prob = DLEProblem(a, b)
        grid = TimeGrid(0.0, 1.0, 5)
        lyap = dense_dle_exact(prob, grid)
        eye = sp.identity(n, format="csr")
        with pytest.warns(UserWarning, match="rank deficient"):
            # C = b b^T genuinely has rank one, the advisory fires
            gen = GenSylvesterProblem((a, eye), (eye, sp.csr_matrix(a.T.toarray())),
                                      b @ b.T)
        vec = dense_dme_solve(gen, grid)
        for k in range(grid.nnodes):
            assert np.linalg.norm(lyap[k] - vec[k]) <= 1e-9

    @pytest.mark.parametrize("a, tf", [(-1.0, 1e308), (400.0, 2.0)])
    def test_unreachable_horizon_is_a_numeric_error(self, a, tf):
        # too many Van Loan segments, then an overflowing Gramian
        prob = DLEProblem(sp.csr_matrix(np.array([[a]])), np.array([[1.0]]))
        with deadline(60), pytest.raises(NumericError):
            dense_dle_exact(prob, TimeGrid(0.0, tf, 1))

    def test_overflowing_x0_term_is_a_numeric_error(self):
        # e^{tA} Z0 is finite, its square is not
        prob = DLEProblem(sp.csr_matrix(np.array([[1.0]])), np.array([[1.0]]),
                          z0=np.array([[1e160]]))
        with pytest.raises(NumericError, match="X0 term overflowed"):
            dense_dle_exact(prob, TimeGrid(0.0, 1.0, 2))

    def test_holds_one_stack(self):
        # the trajectory is the Gramian stack itself: no propagator stack and
        # no copy beside it, so the peak stays below 1.5 stacks of n x n nodes
        prob = gen_dle_problem(n0=12, p=2, seed=1)
        grid = TimeGrid(0.0, 1.0, 100)
        stack = 8 * grid.nnodes * prob.n ** 2
        tracemalloc.start()
        try:
            dense_dle_exact(prob, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stack

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(smallmat, "DENSE_CAP", 8)
        prob = DLEProblem(stable_sparse(10, np.random.default_rng(0)), np.ones((10, 1)))
        with pytest.raises(CapExceededError):
            dense_dle_exact(prob, TimeGrid(0.0, 1.0, 3))


class TestDenseDleBdf:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_package_bdf(self, rng, l):
        # the test-only reference against the package's BDF at full dimension
        # (p = 1, so b b^T is the outer product bdf_integrate forms); this
        # also cross-checks the package's coefficients and startup
        a = stable_dense(8, rng)
        b = rng.standard_normal((8, 1))
        prob = DLEProblem(sp.csr_matrix(a), b)
        grid = TimeGrid(0.0, 1.0, 10)
        ref = dense_dle_bdf(prob, grid, l)
        traj = bdf_integrate(small_form(a), b, None, grid, l)
        for k in range(1, grid.nnodes):
            assert (np.linalg.norm(traj.samples[k] - ref[k])
                    <= 1e-12 * np.linalg.norm(ref[k]))
