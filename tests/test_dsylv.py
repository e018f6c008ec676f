"""Galerkin solver: projected ODE stepping, residual formula, oracle equivalence."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from krymat import blockmat, dsylv, smallmat
from krymat.blockmat import BlockRow, diamond, kron_apply
from krymat.dsylv import (galerkin_solve, integrate_projected, project_rhs,
                          residual_norm)
from krymat.garnoldi import GlobalArnoldi
from krymat.oracle import dense_dme_solve
from krymat.probio import GenSylvesterProblem, gen_sylvester_q2, gsylv_apply
from krymat.solution import TimeGrid

from conftest import stable_dense, stable_sym


def _projection(op, seed, m):
    """(V_m, H_m, coupling) of the global process after up to m steps."""
    proc = GlobalArnoldi(op, seed, m)
    return proc.projection(proc.advance_to(m))


def _two_exponential_march(hm, cm, y0, grid):
    """The march from e^{hH} and the top-right block of exp([[hH, I], [0, 0]])."""
    h, k = grid.h, hm.shape[0]
    aug = np.zeros((2 * k, 2 * k))
    aug[:k, :k] = h * hm
    aug[:k, k:] = np.eye(k)
    e_h = sla.expm(h * hm)
    forcing = h * sla.expm(aug)[:k, k:] @ cm
    samples = [y0]
    for _ in range(grid.steps):
        samples.append(e_h @ samples[-1] + forcing)
    return np.array(samples)


def _projected_case(name, rng):
    """(H, c, y0) of one projected equation."""
    if name == "zero":
        return np.zeros((3, 3)), rng.standard_normal(3), np.zeros(3)
    if name == "scalar":
        return np.array([[-1.5]]), np.array([0.7]), np.array([0.2])
    if name == "stable":
        return stable_dense(5, rng), rng.standard_normal(5), rng.standard_normal(5)
    if name == "breakdown":
        # b on the first three coordinates of a diagonal operator: the
        # process breaks down after three steps
        b = np.zeros((12, 1))
        b[:3, 0] = [1.0, -0.5, 0.25]
        proc = GlobalArnoldi(lambda x: -np.arange(1.0, 13.0)[:, None] * x, b, 6)
        assert proc.advance_to(6) == 3 and proc.breakdown
        return proc.projection(3)[1], np.r_[-np.linalg.norm(b), 0.0, 0.0], np.zeros(3)
    # stiff: eigenvalues down to -2000, so h ||H||_1 >= 100 at h = 0.1
    return stable_sym(5, rng, lo=1.0, hi=2000.0), rng.standard_normal(5), np.zeros(5)


class TestProjectRhs:
    def test_seed_gives_beta_e1(self, rng):
        r0 = rng.standard_normal((8, 2))
        beta = np.linalg.norm(r0)
        vm, _, _ = _projection(lambda x: stable_dense(8, rng) @ x, r0, 3)
        cm = project_rhs(vm, r0)
        expected = np.zeros(vm.m)
        expected[0] = -beta
        np.testing.assert_allclose(cm, expected, atol=1e-12 * beta)

    def test_orthogonal_rhs_projects_to_zero(self, rng):
        proc = GlobalArnoldi(lambda x: x * np.arange(1.0, 7.0)[:, None],
                             rng.standard_normal((6, 1)), 3)
        proc.advance_to(3)
        basis = proc.basis()
        # build a block orthogonal to the basis by projection removal
        w = rng.standard_normal((6, 1))
        for j in range(basis.m):
            w -= np.sum(basis.block(j) * w) * basis.block(j)
        cm = project_rhs(basis, w)
        np.testing.assert_allclose(cm, 0.0, atol=1e-12)

    def test_matches_entrywise_inner_products(self, rng):
        r0 = rng.standard_normal((7, 2))
        vm, _, _ = _projection(
            lambda x: stable_dense(7, rng) @ x, rng.standard_normal((7, 2)), 3)
        cm = project_rhs(vm, r0)
        expected = [-np.sum(vm.block(i) * r0) for i in range(vm.m)]
        np.testing.assert_allclose(cm, expected, atol=1e-13)


class TestIntegrateProjected:
    def test_pure_integration(self):
        grid = TimeGrid(0.0, 1.0, 10)
        traj = integrate_projected(np.zeros((1, 1)), np.array([2.5]), None, grid)
        np.testing.assert_allclose(traj.samples[:, 0], 2.5 * grid.nodes, atol=1e-14)

    def test_scalar_linear_ode(self):
        grid = TimeGrid(0.0, 2.0, 20)
        traj = integrate_projected(np.array([[-1.0]]), np.array([1.0]), None, grid)
        np.testing.assert_allclose(traj.samples[:, 0], 1.0 - np.exp(-grid.nodes),
                                   atol=1e-12)

    def test_rk_oracle(self, rng):
        hm = stable_dense(5, rng)
        cm = rng.standard_normal(5)
        grid = TimeGrid(0.0, 1.0, 8)
        traj = integrate_projected(hm, cm, None, grid)
        sol = solve_ivp(lambda t, y: hm @ y + cm, (0.0, 1.0), np.zeros(5),
                        t_eval=grid.nodes, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(traj.samples.T, sol.y, atol=1e-10)

    @pytest.mark.parametrize("name", ["zero", "scalar", "stable", "breakdown", "stiff"])
    def test_matches_two_exponential_path(self, rng, name):
        hm, cm, y0 = _projected_case(name, rng)
        grid = TimeGrid(0.0, 1.0, 10)
        if name == "stiff":
            assert grid.h * np.linalg.norm(hm, 1) >= 100.0
        new = integrate_projected(hm, cm, y0, grid).samples
        old = _two_exponential_march(hm, cm, y0, grid)
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


class TestResidualNorm:
    def test_breakdown_or_zero_component(self, rng):
        _, _, coupling = _projection(lambda x: x, rng.standard_normal((5, 1)), 3)
        assert residual_norm(coupling, np.array([1.0])) == 0.0

    def test_zero_last_component(self, rng):
        prob = gen_sylvester_q2(8, 1, seed=2)
        _, _, coupling = _projection(lambda x: gsylv_apply(prob, x), -prob.c, 3)
        assert coupling[0, 0] != 0.0
        assert residual_norm(coupling, np.array([1.0, 2.0, 0.0])) == 0.0

    def test_matches_dense_residual(self, rng):
        prob = gen_sylvester_q2(10, 2, seed=21)
        grid = TimeGrid(0.0, 1.0, 6)
        r0 = -prob.c
        vm, hm, coupling = _projection(lambda x: gsylv_apply(prob, x), r0, 3)
        cm = project_rhs(vm, r0)
        traj = integrate_projected(hm, cm, None, grid)
        for k, t in enumerate(grid.nodes):
            y = traj.samples[k]
            xm = kron_apply(vm, y[:, None]).data
            xdot = kron_apply(vm, (hm @ y + cm)[:, None]).data
            dense = np.linalg.norm(xdot - gsylv_apply(prob, xm) - prob.c)
            assert abs(dense - residual_norm(coupling, y)) <= 1e-10


class TestGalerkinSolve:
    def test_full_dimension_matches_oracle(self, rng):
        prob = gen_sylvester_q2(6, 2, seed=31)
        grid = TimeGrid(0.0, 1.0, 10)
        sol, rep = galerkin_solve(prob, grid, m_max=12, tol=1e-12)
        ref = dense_dme_solve(prob, grid)
        for k in range(grid.nnodes):
            assert np.linalg.norm(sol.snapshot(k) - ref[k]) <= 1e-8

    def test_zero_rhs_returns_immediately(self):
        n, p = 6, 2
        with pytest.warns(UserWarning, match="rank deficient"):
            prob = GenSylvesterProblem((sp.identity(n, format="csr"),),
                                       (sp.identity(p, format="csr"),),
                                       np.zeros((n, p)))
        grid = TimeGrid(0.0, 1.0, 4)
        sol, rep = galerkin_solve(prob, grid, 5, 1e-10)
        assert rep.converged and rep.m_final == 0
        for k in range(grid.nnodes):
            np.testing.assert_array_equal(sol.snapshot(k), np.zeros((n, p)))

    def test_reaches_tolerance_on_stable_instance(self):
        prob = gen_sylvester_q2(100, 2, seed=17)
        grid = TimeGrid(0.0, 1.0, 10)
        sol, rep = galerkin_solve(prob, grid, m_max=80, tol=1e-8)
        assert rep.converged
        assert rep.final_bounds().max() < 1e-8

    def test_galerkin_orthogonality(self, rng):
        prob = gen_sylvester_q2(9, 2, seed=13)
        grid = TimeGrid(0.0, 1.0, 5)
        r0 = -prob.c
        vm, hm, _ = _projection(lambda x: gsylv_apply(prob, x), r0, 4)
        cm = project_rhs(vm, r0)
        traj = integrate_projected(hm, cm, None, grid)
        for k in range(grid.nnodes):
            y = traj.samples[k]
            xm = kron_apply(vm, y[:, None]).data
            res = kron_apply(vm, (hm @ y + cm)[:, None]).data \
                - gsylv_apply(prob, xm) - prob.c
            gal = diamond(vm, BlockRow(res, prob.p))
            np.testing.assert_allclose(gal, 0.0, atol=1e-10)

    def test_kernel_norm_equals_solution_shift(self, rng):
        prob = gen_sylvester_q2(12, 2, seed=23)
        grid = TimeGrid(0.0, 1.0, 6)
        sol, rep = galerkin_solve(prob, grid, m_max=6, tol=0.0)
        assert not rep.converged                 # tol=0 is unreachable
        for k in range(grid.nnodes):
            x = sol.snapshot(k)
            y = sol.kernel.samples[k]
            assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(y), abs=1e-12)

    def test_one_exponential_per_basis_size(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Galerkin fit needs no phi1, projection or diamond")

        for module, name in ((smallmat, "phi1"), (dsylv, "project_rhs"),
                             (blockmat, "diamond"), (dsylv, "diamond")):
            monkeypatch.setattr(module, name, refuse)
        orders = []
        expm = smallmat.expm

        def recording(m):
            orders.append(m.shape[0])
            return expm(m)

        monkeypatch.setattr(smallmat, "expm", recording)
        prob = gen_sylvester_q2(40, 2, seed=3)
        _, rep = galerkin_solve(prob, TimeGrid(0.0, 1.0, 20), 60, 1e-8)
        assert rep.converged
        assert orders == [m + 1 for m in range(1, rep.m_final + 1)]

    def test_nonzero_x0_nonsymmetric_matches_expm_multiply(self):
        # R0 = -A(X0) - C, so the seed and c_m = -beta e_1 both carry X0
        base = gen_sylvester_q2(n=30, p=2, seed=4)
        a1 = base.a_list[0]
        assert abs(a1 - a1.T).max() > 0.0
        x0 = np.random.default_rng(9).standard_normal((30, 2))
        prob = GenSylvesterProblem(base.a_list, base.b_list, base.c, x0=x0)
        grid = TimeGrid(0.0, 1.0, 10)
        # d/dt [vec X; 1] = [[M, vec C], [0, 0]] [vec X; 1], M = sum B_i^T kron A_i
        npv = 30 * 2
        aug = np.zeros((npv + 1, npv + 1))
        for a_i, b_i in zip(prob.a_list, prob.b_list):
            aug[:npv, :npv] += sp.kron(b_i.T, a_i).toarray()
        aug[:npv, npv] = prob.c.flatten(order="F")
        start = np.r_[x0.flatten(order="F"), 1.0]
        ref = expm_multiply(aug, start, start=grid.t0, stop=grid.tf,
                            num=grid.nnodes, endpoint=True)[:, :npv]
        ref = ref.reshape((grid.nnodes, 30, 2), order="F")
        sol, rep = galerkin_solve(prob, grid, m_max=60, tol=1e-12)
        assert rep.converged
        err = max(np.linalg.norm(sol.snapshot(k) - ref[k]) for k in range(grid.nnodes))
        assert err <= 1e-10
        dense = dense_dme_solve(prob, grid)
        assert max(np.linalg.norm(dense[k] - ref[k]) for k in range(grid.nnodes)) <= 1e-12

    def test_report_rows_schema(self):
        prob = gen_sylvester_q2(10, 2, seed=3)
        grid = TimeGrid(0.0, 1.0, 4)
        _, rep = galerkin_solve(prob, grid, 4, 1e-14)
        assert rep.columns == ("m", "t", "residual_bound")
        ms = sorted({row[0] for row in rep.rows})
        assert ms == list(range(1, rep.m_final + 1))
