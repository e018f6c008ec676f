"""BDF schemes, projected Lyapunov stepping, residual bound, EgAdl end to end."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from krymat import smallmat
from krymat.blockmat import BlockRow, diamond, kron_apply
from krymat.dlebdf import bdf_coefficients, bdf_integrate, egadl_solve, residual_bound_bdf
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.errors import StepFailureError
from krymat.oracle import dense_dle_exact
from krymat.probio import (DLEProblem, LinearSolver, gen_dle_problem,
                           gen_laplacian2d, gen_random_dle_problem, random_full_rank)
from krymat.smallmat import DiagonalForm, TriangularForm, small_form
from krymat.solution import CoordinateTrajectory, TimeGrid

from conftest import (bdf_derivatives, bdf_step, dense_dle_bdf, near_defective, stable_dense,
                      stable_sparse)


def _projection(a, b, m):
    """The extended process after m steps and its (V_m, T_m, T_{m+1,m})."""
    proc = ExtendedGlobalArnoldi(a, LinearSolver(a), b, m)
    return proc, proc.projection(proc.advance_to(m))


def scalar_exact(t):
    """Solution of dy/dt = -2y + 1, y(0) = 0."""
    return (1.0 - np.exp(-2.0 * t)) / 2.0


class TestCoefficients:
    def test_table_rows(self):
        s1 = bdf_coefficients(1)
        assert s1.beta == 1.0 and s1.alpha == (1.0,)
        s2 = bdf_coefficients(2)
        assert s2.beta == 2.0 / 3.0 and s2.alpha == (4.0 / 3.0, -1.0 / 3.0)
        s3 = bdf_coefficients(3)
        assert s3.beta == 6.0 / 11.0
        assert s3.alpha == (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bdf_coefficients(4)
        with pytest.raises(ValueError):
            bdf_coefficients(0)


class TestBdfStep:
    # single steps of bdf_integrate's march, in the reduction's coordinates
    def test_scalar_first_step(self):
        traj = bdf_integrate(small_form(np.array([[-1.0]]))[0], np.array([1.0]), None,
                             TimeGrid(0.0, 0.1, 1), 1)
        assert traj.samples[1][0, 0] == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_steady_state_fixed_point(self):
        traj = bdf_integrate(small_form(np.array([[-1.0]]))[0], np.array([1.0]), None,
                             TimeGrid(0.0, 40.0, 400), 1)
        assert traj.samples[-1][0, 0] == pytest.approx(0.5, rel=1e-10)

    def test_defining_equation_residual(self, rng):
        # the march's BDF2 step from t_1 to t_2, with its own Y_1 and Y_0
        tm = np.diag([-1.0, -2.0, -3.0, -0.5]) + 0.1 * rng.standard_normal((4, 4))
        bm = rng.standard_normal(4)
        h = 0.05
        ys = bdf_integrate(small_form(tm)[0], bm, np.eye(4) * 0.3, TimeGrid(0.0, 2 * h, 2),
                           2).samples
        scheme = bdf_coefficients(2)
        t_cal = h * scheme.beta * tm - 0.5 * np.eye(4)
        q = h * scheme.beta * np.outer(bm, bm) + sum(
            a * p for a, p in zip(scheme.alpha, (ys[1], ys[0])))
        res = t_cal @ ys[2] + ys[2] @ t_cal.T + q
        assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(ys[2]))

    def test_ill_posed_step_maps_to_step_failure(self):
        # h beta T = I/2 makes a step operator singular: on the eigen form
        # (T = 1) and on the Schur form (a near-defective T with eigenvalue 1)
        for tm, branch in ((np.array([[1.0]]), DiagonalForm),
                           (near_defective(2) + 2.0 * np.eye(2), TriangularForm)):
            form = small_form(tm)[0]
            assert isinstance(form.own, branch)
            with pytest.raises(StepFailureError):
                bdf_integrate(form, np.zeros(tm.shape[0]), None, TimeGrid(0.0, 0.5, 1), 1)


class TestBdfIntegrate:
    @pytest.mark.parametrize("l,expected_ratio,tol", [(1, 2.0, 0.2), (2, 4.0, 0.5)])
    def test_convergence_order(self, l, expected_ratio, tol):
        tm = np.array([[-1.0]])
        bm = np.array([1.0])
        errs = []
        for steps in (40, 80):
            grid = TimeGrid(0.0, 1.0, steps)
            traj = bdf_integrate(small_form(tm)[0], bm, None, grid, l)
            errs.append(abs(traj.samples[-1][0, 0] - scalar_exact(1.0)))
        assert errs[0] / errs[1] == pytest.approx(expected_ratio, abs=tol)

    def test_homogeneous_decay(self):
        # B = 0, Y0 = I: exact kernel e^{tT} e^{tT^T} = e^{-2t} for T = -1
        tm = np.array([[-1.0]])
        grid = TimeGrid(0.0, 1.0, 160)
        traj = bdf_integrate(small_form(tm)[0], np.array([0.0]), np.eye(1), grid, 2)
        err = abs(traj.samples[-1][0, 0] - np.exp(-2.0))
        assert err <= 5.0 * (grid.h ** 2)

    def test_samples_symmetric(self, rng):
        tm = np.diag([-1.0, -4.0]) + 0.2 * rng.standard_normal((2, 2))
        grid = TimeGrid(0.0, 1.0, 12)
        traj = bdf_integrate(small_form(tm)[0], rng.standard_normal(2), None, grid, 3)
        for y in traj.samples:
            np.testing.assert_array_equal(y, y.T)


class TestSchurReuse:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_one_reduction_per_march(self, monkeypatch, rng, l):
        # a T on each side of small_form's gate, reduced and marched: one
        # eigendecomposition for the well-conditioned one; the trial
        # eigendecomposition and one Schur form for the near-defective one
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
        monkeypatch.setattr(sla, "schur", counted("schur", sla.schur))
        for tm, reductions in ((stable_dense(6, rng), ["eig"]),
                               (near_defective(6, coupling=10.0), ["eig", "schur"])):
            calls.clear()
            form = small_form(tm)[0]
            bdf_integrate(form, rng.standard_normal(6), None, TimeGrid(0.0, 1.0, 12), l)
            assert calls == reductions

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_stepwise_reference(self, rng, l):
        # nonsymmetric T and Y0 != 0: the reference solves every step with
        # scipy on the explicit operator h beta T - I/2
        k = 10
        tm = stable_dense(k, rng)
        bm = rng.standard_normal(k)
        z = rng.standard_normal((k, 3))
        y0 = z @ z.T
        grid = TimeGrid(0.0, 1.0, 15)
        traj = bdf_integrate(small_form(tm)[0], bm, y0, grid, l)
        ref = [y0]
        for _ in range(grid.steps):
            scheme = bdf_coefficients(min(l, len(ref)))
            ref.append(bdf_step(tm, bm, ref[::-1][:scheme.l], grid.h, scheme))
        assert len(traj.samples) == len(ref)
        for y, y_ref in zip(traj.samples, ref):
            assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)


class TestCoordinateMarch:
    def test_complex_pairs_give_real_kernels(self, rng):
        # a nonsymmetric T on the eigen side with complex eigenvalue pairs:
        # X and G are complex, Y = X G X^T is real to roundoff
        tm = stable_dense(6, rng)
        form = small_form(tm)[0]
        assert isinstance(form.own, DiagonalForm) and np.iscomplexobj(form.own.lam)
        z = rng.standard_normal((6, 2))
        traj = bdf_integrate(form, rng.standard_normal(6), z @ z.T, TimeGrid(0.0, 1.0, 12), 2)
        assert np.iscomplexobj(traj.g)
        full = traj.x @ traj.g @ traj.x.T
        scale = np.abs(full.real).max()
        assert np.abs(full.imag).max() <= 1e-14 * scale
        assert traj.samples.dtype == float

    @pytest.mark.parametrize("tm_of", [lambda rng: stable_dense(8, rng),
                                       lambda rng: near_defective(8, coupling=10.0)],
                             ids=["eigen", "schur"])
    def test_last_rows_and_batched_bound_match_the_kernels(self, rng, tm_of):
        tm = tm_of(rng)
        traj = bdf_integrate(small_form(tm)[0], rng.standard_normal(8), None,
                             TimeGrid(0.0, 1.0, 10), 2)
        coupling = rng.standard_normal((2, 2))
        ys = traj.samples
        np.testing.assert_allclose(traj.last_rows(2), ys[:, -2:, :],
                                   atol=1e-14 * np.abs(ys).max())
        batched = residual_bound_bdf(coupling, traj.last_rows(2))
        each = [residual_bound_bdf(coupling, y) for y in ys]
        np.testing.assert_allclose(batched, each, rtol=1e-12, atol=1e-14 * max(each))

    @pytest.mark.parametrize("k, steps", [(1, 4), (3, 10), (12, 30)])
    def test_ranks_in_chunks_equal_per_node_ranks(self, rng, k, steps):
        # kernels of mixed rank, a zero one at t0 included
        g = np.zeros((steps + 1, k, k))
        for n in range(1, steps + 1):
            z = rng.standard_normal((k, n % (k + 1)))
            g[n] = z @ z.T
        traj = CoordinateTrajectory(TimeGrid(0.0, 1.0, steps), np.linalg.qr(
            rng.standard_normal((k, k)))[0], g)
        expected = []
        for y in traj.samples:
            lam = np.abs(np.linalg.eigvalsh(y))
            expected.append(np.count_nonzero(lam > 1e-10 * lam.max()))
        assert traj.ranks(1e-10).tolist() == expected


class TestResidualBound:
    def test_zero_cases(self):
        assert residual_bound_bdf(np.zeros((2, 2)), np.zeros((6, 6))) == 0.0
        assert residual_bound_bdf(np.ones((2, 2)), np.zeros((6, 6))) == 0.0

    def test_dense_residual_le_bound(self, rng):
        # BDF-derivative form of dX/dt makes the bound hold to roundoff
        n, m, l = 40, 3, 2
        a = stable_sparse(n, rng)
        b = random_full_rank(n, 1, seed=5)
        proc, (vm, tm, t_sub) = _projection(a, b, m)
        grid = TimeGrid(0.0, 1.0, 10)
        bm = np.zeros(2 * m)
        bm[0] = proc.beta
        traj = bdf_integrate(small_form(tm)[0], bm, None, grid, l)
        derivs = bdf_derivatives(traj.samples, grid.h, l)
        a_dense = a.toarray()
        bbt = b @ b.T
        for k in range(1, grid.nnodes):
            y = traj.samples[k]
            xm = kron_apply(vm, y).data @ vm.data.T
            xdot = kron_apply(vm, derivs[k - 1]).data @ vm.data.T
            dense = np.linalg.norm(xdot - a_dense @ xm - xm @ a_dense.T - bbt)
            bound = residual_bound_bdf(t_sub, y)
            assert dense <= bound * (1 + 1e-8) + 1e-12


class TestEgadlSolve:
    def test_zero_data_short_circuit(self):
        with pytest.warns(UserWarning, match="rank deficient"):
            prob = DLEProblem(gen_laplacian2d(3), np.zeros((9, 1)))
        grid = TimeGrid(0.0, 1.0, 4)
        sol, rep = egadl_solve(prob, grid, 5, 1e-8)
        assert rep.converged
        for k in range(grid.nnodes):
            np.testing.assert_array_equal(sol.snapshot(k), np.zeros((9, 9)))

    def test_matches_oracle_at_fine_time_grid(self):
        # the check starts at k = 300 (t = 0.05): earlier nodes lie in the
        # stiff initial layer, which the BDF startup does not resolve even at
        # h = 1/6000 (absolute error 8.9e-6 there, 3e-10 from t = 0.05 on);
        # past it the subspace error at m = 10 is tiny
        prob = gen_dle_problem(n0=10, p=2, seed=1)
        grid = TimeGrid(0.0, 1.0, 6000)
        m = 10
        proc, (sub, tm, _) = _projection(prob.a, prob.b, m)
        bm = np.zeros(2 * m)
        bm[0] = proc.beta
        traj = bdf_integrate(small_form(tm)[0], bm, None, grid, 2)
        ref = dense_dle_exact(prob, grid)
        scale = np.linalg.norm(ref[-1])
        stride = 300
        for k in range(stride, grid.nnodes, stride):
            xm = kron_apply(sub, traj.samples[k]).data @ sub.data.T
            assert np.linalg.norm(xm - ref[k]) / scale <= 1e-6

    @pytest.mark.parametrize("n, p, density, seed", [(150, 2, 0.05, 1), (120, 1, 0.1, 3),
                                                     (150, 2, 0.05, 5)])
    def test_matches_same_grid_bdf_off_the_laplacian(self, n, p, density, seed):
        # nonsymmetric A: the LU, the extended process and B's projection
        # r_11 e_1 are checked against the full-dimension BDF2 solution on the
        # same grid, at AC-4's bound; the first two end on the Schur form of
        # T_m, the third on the eigen form (test_trust_names_the_final_reduction)
        prob = gen_random_dle_problem(n=n, p=p, density=density, seed=seed)
        grid = TimeGrid(0.0, 1.0, 20)
        sol, rep = egadl_solve(prob, grid, 40, 1e-8, l=2)
        assert rep.converged and not rep.breakdown
        ref = dense_dle_bdf(prob, grid, 2)
        for k in range(grid.nnodes):
            assert np.linalg.norm(sol.snapshot(k) - ref[k]) < 1e-6

    def test_bound_dominates_dense_residual(self, rng):
        prob = gen_dle_problem(n0=6, p=1, seed=4)
        grid = TimeGrid(0.0, 1.0, 20)
        sol, rep = egadl_solve(prob, grid, 8, 1e-9, l=2)
        assert rep.converged
        final = rep.final_bounds()
        # dense residual via the BDF divided difference at the final m
        basis = sol.basis
        derivs = bdf_derivatives(sol.kernel.samples, grid.h, 2)
        a_dense = prob.a.toarray()
        bbt = prob.b @ prob.b.T
        for k in range(1, grid.nnodes):
            xm = kron_apply(basis, sol.kernel.samples[k]).data @ basis.data.T
            xdot = kron_apply(basis, derivs[k - 1]).data @ basis.data.T
            dense = np.linalg.norm(xdot - a_dense @ xm - xm @ a_dense.T - bbt)
            assert dense <= final[k] * (1 + 1e-8) + 1e-12

    def test_kernels_symmetric_and_psd(self):
        prob = gen_dle_problem(n0=6, p=2, seed=3)
        grid = TimeGrid(0.0, 1.0, 10)
        sol, rep = egadl_solve(prob, grid, 8, 1e-8, l=2)
        for y in sol.kernel.samples:
            np.testing.assert_array_equal(y, y.T)
            if np.linalg.norm(y) > 0:
                assert np.linalg.eigvalsh(y).min() >= -1e-10 * np.linalg.norm(y)

    def test_projected_b_consistency(self):
        prob = gen_dle_problem(n0=5, p=2, seed=6)
        proc, (vm, _, _) = _projection(prob.a, prob.b, 3)
        bm = diamond(vm, BlockRow(prob.b, 2)).ravel()
        expected = np.zeros(2 * proc.m)
        expected[0] = proc.beta
        np.testing.assert_allclose(bm, expected, atol=1e-12)

    def test_breakdown_invariant_subspace_exact(self):
        # b supported on a small invariant subspace of a diagonal operator
        d = sp.diags(-np.arange(1.0, 13.0)).tocsr()
        b = np.zeros((12, 1))
        b[:3, 0] = [1.0, -0.5, 0.25]
        prob = DLEProblem(d, b)
        grid = TimeGrid(0.0, 1.0, 4000)
        sol, rep = egadl_solve(prob, grid, 10, 1e-9, l=2)
        assert rep.breakdown
        assert rep.converged
        ref = dense_dle_exact(prob, grid)
        err = np.linalg.norm(sol.snapshot(grid.steps) - ref[-1])
        assert err <= 1e-7 * max(1.0, np.linalg.norm(ref[-1]))

    @pytest.mark.parametrize("problem", [gen_dle_problem(n0=6, p=2, seed=1),
                                         gen_random_dle_problem(n=150, p=2, density=0.05,
                                                                seed=1)],
                             ids=["eigen", "schur"])
    def test_rank_column_is_each_kernels_eigvalsh_rank(self, problem):
        grid = TimeGrid(0.0, 1.0, 20)
        sol, rep = egadl_solve(problem, grid, 40, 1e-8, factor_tol=1e-10)
        ranks = [row[3] for row in rep.rows if row[0] == rep.m_final]
        expected = []
        for y in sol.kernel.samples:
            lam = np.abs(np.linalg.eigvalsh(y))
            expected.append(int(np.count_nonzero(lam > 1e-10 * lam.max())))
        assert ranks == expected

    def test_factors_are_made_when_first_read(self, monkeypatch):
        calls = []
        factor = smallmat.trunc_sym_factor

        def counted(y, tol):
            calls.append(tol)
            return factor(y, tol)

        monkeypatch.setattr(smallmat, "trunc_sym_factor", counted)
        grid = TimeGrid(0.0, 1.0, 10)
        sol, _ = egadl_solve(gen_dle_problem(n0=6, p=2, seed=1), grid, 20, 1e-8,
                             factor_tol=1e-9)
        assert calls == []
        factors = sol.factors
        assert calls == [1e-9] * grid.nnodes
        assert sol.factors is factors and len(calls) == grid.nnodes
        for f, y in zip(factors, sol.kernel.samples):
            np.testing.assert_array_equal(f.z, factor(y, 1e-9).z)

    def test_report_schema(self):
        prob = gen_dle_problem(n0=4, p=1, seed=1)
        grid = TimeGrid(0.0, 1.0, 5)
        _, rep = egadl_solve(prob, grid, 4, 1e-10, l=1)
        assert rep.columns == ("m", "t", "residual_bound", "rank")
        assert all(len(r) == 4 for r in rep.rows)
