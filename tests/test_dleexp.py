"""Exponential-method kernels and solver: expm action, Gram trajectories,
residual and a-priori bounds, perturbed-equation identity."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm as sexpm

from krymat.blockmat import BlockRow, kron_apply
from krymat.dleexp import (apriori_error_bound, expo_dle_solve, gram_trajectory,
                           krylov_expm_action, lognorm2_operator,
                           perturbed_equation_check, residual_bound_exp)
from krymat.garnoldi import global_arnoldi
from krymat.oracle import dense_dle_exact
from krymat.probio import DLEProblem, gen_dle_problem, random_full_rank
from krymat.smallmat import vanloan_gram
from krymat.solution import TimeGrid

from conftest import stable_dense, stable_sym


def _arnoldi_on(a, b, m):
    return global_arnoldi(lambda x: a @ x, b, m)


class TestKrylovExpmAction:
    def test_s_zero_returns_b(self, rng):
        a = stable_dense(12, rng)
        b = rng.standard_normal((12, 2))
        basis, hess = _arnoldi_on(a, b, 4)
        got = krylov_expm_action(basis, hess.hm, np.linalg.norm(b), 0.0)
        np.testing.assert_allclose(got, b, atol=1e-13)

    def test_full_space_matches_dense(self, rng):
        a = stable_dense(6, rng)
        b = rng.standard_normal((6, 1))
        basis, hess = _arnoldi_on(a, b, 6)
        m = hess.m
        got = krylov_expm_action(basis, hess.hm, np.linalg.norm(b), 1.0)
        ref = sexpm(a) @ b
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_error_decreases_with_m(self, rng):
        lam = -np.linspace(0.5, 10.0, 20)
        a = np.diag(lam)
        b = rng.standard_normal((20, 1))
        ref = sexpm(a) @ b
        errs = []
        for m in (2, 4, 6, 8):
            basis, hess = _arnoldi_on(a, b, m)
            got = krylov_expm_action(basis, hess.hm, np.linalg.norm(b), 1.0)
            errs.append(np.linalg.norm(got - ref))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


class TestGramTrajectory:
    def test_starts_at_zero(self, rng):
        grid = TimeGrid(0.0, 1.0, 5)
        gram = gram_trajectory(stable_dense(3, rng), 2.0, grid)
        np.testing.assert_array_equal(gram.samples[0], np.zeros((3, 3)))

    def test_scalar_formula(self):
        grid = TimeGrid(0.0, 2.0, 8)
        gram = gram_trajectory(np.array([[-1.0]]), 1.0, grid)
        for k, t in enumerate(grid.nodes):
            assert gram.samples[k][0, 0] == pytest.approx(
                (1 - np.exp(-2 * t)) / 2, abs=1e-13)

    def test_ode_identity_by_finite_differences(self, rng):
        hm = stable_dense(4, rng)
        beta = 1.7
        grid = TimeGrid(0.0, 1.0, 10)
        gram = gram_trajectory(hm, beta, grid)
        e1 = np.zeros(4)
        e1[0] = beta
        dt = 1e-5
        for k in (3, 7):
            t = grid.nodes[k]
            fd = (vanloan_gram(hm, e1, t + dt) - vanloan_gram(hm, e1, t - dt)) / (2 * dt)
            g = gram.samples[k]
            rhs = hm @ g + g @ hm.T + np.outer(e1, e1)
            np.testing.assert_allclose(fd, rhs, atol=1e-6)


class TestResidualBoundExp:
    def test_zero_cases(self):
        assert residual_bound_exp(0.0, np.ones((3, 3))) == 0.0
        assert residual_bound_exp(2.0, np.zeros((3, 3))) == 0.0

    def test_dense_residual_2norm_le_bound(self, rng):
        n = 30
        a = stable_dense(n, rng)
        b = rng.standard_normal((n, 1))
        b /= np.linalg.norm(b)
        basis, hess = _arnoldi_on(a, b, 6)
        m = hess.m
        grid = TimeGrid(0.0, 1.0, 10)
        gram = gram_trajectory(hess.hm, 1.0, grid)
        vm = basis.narrow(m)
        e11 = np.zeros((m, m))
        e11[0, 0] = 1.0
        bbt = b @ b.T
        for k in range(grid.nnodes):
            g = gram.samples[k]
            gdot = hess.hm @ g + g @ hess.hm.T + e11
            xm = kron_apply(vm, g).data @ vm.data.T
            xdot = kron_apply(vm, gdot).data @ vm.data.T
            rm = xdot - a @ xm - xm @ a.T - bbt
            assert np.linalg.norm(rm, 2) <= residual_bound_exp(hess.h_sub, g) + 1e-9


class TestAprioriBound:
    def test_zero_coupling(self):
        assert apriori_error_bound(0.0, 3.0, -1.0, 2.0, 0.0) == 0.0

    def test_stable_long_time_limit(self):
        val = apriori_error_bound(1.0, 1.0, -1.0, 1e9, 0.0)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_small_mu_uses_linear_limit(self):
        assert apriori_error_bound(1.0, 2.0, 0.0, 3.0, 1.0) == pytest.approx(4.0)

    def test_true_error_below_bound(self, rng):
        n = 50
        a_dense = stable_sym(n, rng, lo=0.5, hi=8.0)
        b = rng.standard_normal((n, 1))
        b /= np.linalg.norm(b)
        basis, hess = _arnoldi_on(a_dense, b, 8)
        m = hess.m
        grid = TimeGrid(0.0, 1.0, 10)
        gram = gram_trajectory(hess.hm, 1.0, grid)
        mu2 = lognorm2_operator(a_dense)
        assert mu2 < 0
        gbar = max(np.linalg.norm(g[-1, :]) for g in gram.samples)
        prob = DLEProblem(sp.csr_matrix(a_dense), b)
        ref = dense_dle_exact(prob, grid)
        vm = basis.narrow(m)
        for k in range(1, grid.nnodes):
            xm = kron_apply(vm, gram.samples[k]).data @ vm.data.T
            err = np.linalg.norm(xm - ref[k], 2)
            bound = apriori_error_bound(hess.h_sub, gbar, mu2, grid.nodes[k], 0.0)
            assert err <= bound


class TestExpoSolve:
    def test_zero_b(self):
        import warnings
        from krymat.probio import gen_laplacian2d
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = DLEProblem(gen_laplacian2d(3), np.zeros((9, 1)))
        grid = TimeGrid(0.0, 1.0, 4)
        sol, rep = expo_dle_solve(prob, grid, 5, 1e-8)
        assert rep.converged
        np.testing.assert_array_equal(sol.snapshot(2), np.zeros((9, 9)))

    def test_global_variant_matches_oracle(self):
        prob = gen_dle_problem(n0=10, p=2, seed=1)
        grid = TimeGrid(0.0, 1.0, 20)
        sol, rep = expo_dle_solve(prob, grid, 40, 1e-8, variant="global")
        assert rep.converged
        ref = dense_dle_exact(prob, grid)
        dev = max(np.linalg.norm(sol.snapshot(k) - ref[k])
                  for k in range(grid.nnodes))
        assert dev <= 1e-6

    def test_extended_needs_no_more_blocks(self):
        prob = gen_dle_problem(n0=10, p=2, seed=1)
        grid = TimeGrid(0.0, 1.0, 20)
        _, rep_g = expo_dle_solve(prob, grid, 60, 1e-8, variant="global")
        sol_e, rep_e = expo_dle_solve(prob, grid, 30, 1e-8, variant="extended")
        assert rep_g.converged and rep_e.converged
        # strictly fewer blocks on this stiff operator
        assert rep_e.m_final < rep_g.m_final
        assert rep_e.dims["basis_cols"] <= rep_g.dims["basis_cols"]
        ref = dense_dle_exact(prob, grid)
        dev = max(np.linalg.norm(sol_e.snapshot(k) - ref[k])
                  for k in range(grid.nnodes))
        assert dev <= 1e-6

    def test_residual_bound_nonincreasing_in_m(self):
        # empirical monotonicity on the stable fixture at fixed t
        prob = gen_dle_problem(n0=8, p=1, seed=3)
        grid = TimeGrid(0.0, 1.0, 10)
        beta = np.linalg.norm(prob.b)
        proc_bounds = []
        for m in range(2, 12, 2):
            basis, hess = _arnoldi_on(prob.a.toarray(), prob.b, m)
            gram = gram_trajectory(hess.hm, beta, grid)
            proc_bounds.append(residual_bound_exp(hess.h_sub, gram.samples[-1]))
        assert all(b2 <= b1 * (1 + 1e-12)
                   for b1, b2 in zip(proc_bounds, proc_bounds[1:]))

    def test_nonzero_x0_rejected(self):
        prob = gen_dle_problem(n0=4, p=1, seed=1)
        prob = DLEProblem(prob.a, prob.b, z0=np.ones((16, 1)))
        with pytest.raises(ValueError, match="X0"):
            expo_dle_solve(prob, TimeGrid(0.0, 1.0, 4), 5, 1e-8)

    def test_report_schema(self):
        prob = gen_dle_problem(n0=4, p=1, seed=2)
        _, rep = expo_dle_solve(prob, TimeGrid(0.0, 1.0, 5), 20, 1e-8)
        assert rep.columns == ("m", "t", "residual_bound", "apriori_bound")
        assert "mu2" in rep.settings

    def test_reruns_are_identical(self):
        # n = 625 is above the dense log-norm threshold, so mu2 and the
        # apriori_bound column come from the ARPACK eigensolve
        prob = gen_dle_problem(n0=25, p=2, seed=1)
        grid = TimeGrid(0.0, 1.0, 10)
        _, rep1 = expo_dle_solve(prob, grid, 30, 1e-8)
        _, rep2 = expo_dle_solve(prob, grid, 30, 1e-8)
        assert rep1.settings["mu2"] == rep2.settings["mu2"]
        assert rep1.rows == rep2.rows


class TestPerturbedEquation:
    def _setup(self, rng, n=20, m=4):
        a = stable_dense(n, rng)
        b = rng.standard_normal((n, 1))
        b /= np.linalg.norm(b)
        prob = DLEProblem(sp.csr_matrix(a), b)
        basis, hess = _arnoldi_on(a, b, m)
        grid = TimeGrid(0.0, 1.0, 8)
        gram = gram_trajectory(hess.hm, 1.0, grid)
        return prob, basis, hess, gram, grid

    def test_defect_small(self, rng):
        prob, basis, hess, gram, _ = self._setup(rng)
        m = hess.m
        coupling = np.zeros((1, m))
        coupling[0, -1] = hess.h_sub
        assert perturbed_equation_check(prob, basis, hess.hm, coupling, gram) <= 1e-9

    def test_breakdown_case_reduces_to_exact_equation(self, rng):
        # diagonal operator, b on an invariant subspace: h_sub -> 0 and the
        # perturbed equation becomes the DLE itself
        lam = -np.arange(1.0, 9.0)
        a = np.diag(lam)
        b = np.zeros((8, 1))
        b[:3, 0] = [1.0, 0.5, -0.25]
        b /= np.linalg.norm(b)
        prob = DLEProblem(sp.csr_matrix(a), b)
        basis, hess = _arnoldi_on(a, b, 6)
        assert hess.breakdown
        m = hess.m
        grid = TimeGrid(0.0, 1.0, 6)
        gram = gram_trajectory(hess.hm, 1.0, grid)
        coupling = np.zeros((1, m))          # h_sub = 0
        # tail block needed by the check: append a zero block
        padded = BlockRow(np.hstack([basis.data, np.zeros((8, 1))]), 1)
        defect = perturbed_equation_check(prob, padded, hess.hm, coupling, gram)
        assert defect <= 1e-10

    def test_cap_refusal(self, rng, monkeypatch):
        prob, basis, hess, gram, _ = self._setup(rng)
        monkeypatch.setenv("KRYMAT_DENSE_CAP", "10")
        from krymat.errors import CapExceededError
        coupling = np.zeros((1, hess.m))
        with pytest.raises(CapExceededError):
            perturbed_equation_check(prob, basis, hess.hm, coupling, gram)

    def test_error_integral_identity(self, rng):
        # E(t) = e^{tA} E_0 e^{tA^T} - int_0^t e^{(t-s)A} R(s) e^{(t-s)A^T} ds
        # with E_0 = 0; Simpson quadrature on the right-hand side
        prob, basis, hess, gram, grid = self._setup(rng, n=12, m=3)
        m = hess.m
        a = prob.a.toarray()
        ref = dense_dle_exact(prob, grid)
        vm = basis.narrow(m)
        e11 = np.zeros((m, m))
        e11[0, 0] = 1.0
        bbt = prob.b @ prob.b.T

        def residual_at(t):
            g = vanloan_gram(hess.hm, np.eye(m)[:, 0], t)
            gdot = hess.hm @ g + g @ hess.hm.T + e11
            xm = kron_apply(vm, g).data @ vm.data.T
            xdot = kron_apply(vm, gdot).data @ vm.data.T
            return xdot - a @ xm - xm @ a.T - bbt

        t = grid.tf
        panels = 80
        ss = np.linspace(0.0, t, 2 * panels + 1)
        w = np.ones(len(ss))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (t / panels) / 6.0
        integral = np.zeros((12, 12))
        for s, wk in zip(ss, w):
            e = sexpm((t - s) * a)
            integral += wk * (e @ residual_at(s) @ e.T)
        xm_t = kron_apply(vm, gram.samples[-1]).data @ vm.data.T
        err_t = ref[-1] - xm_t
        np.testing.assert_allclose(err_t, -integral, atol=1e-7)


class TestTwoKroneckerForms:
    def test_f_of_h_forms_agree(self, rng):
        # beta V (f(H) e1 kron I_p) == beta V f(H kron I_p) (e1 kron I_p)
        hm = rng.standard_normal((4, 4))
        p = 2
        basis, _ = _arnoldi_on(stable_dense(8, rng), rng.standard_normal((8, p)), 4)
        vm = basis.narrow(4)
        beta = 1.3
        lhs = beta * kron_apply(vm, sexpm(hm)[:, [0]]).data
        big = sexpm(np.kron(hm, np.eye(p)))
        e1_kron = np.kron(np.eye(4)[:, [0]], np.eye(p))
        rhs = beta * (vm.data @ big @ e1_kron)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
