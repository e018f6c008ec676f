"""Exponential-method kernels and solver: expm action, Gram trajectories,
residual and a-priori bounds, perturbed-equation identity."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.linalg import expm as sexpm

from krymat import smallmat
from krymat.blockmat import BlockRow, kron_apply
from krymat.dlebdf import egadl_solve
from krymat.dleexp import (VARIANTS, apriori_error_bound, expo_dle_solve, gram_trajectory,
                           lognorm2_operator, residual_bound_exp)
from krymat.errors import NumericError, ParseError
from krymat.garnoldi import GlobalArnoldi
from krymat.oracle import dense_dle_exact
from krymat.probio import (DLEProblem, LinearSolver, gen_dle_problem, gen_laplacian2d,
                           gen_random_dle_problem, gen_random_stable)
from krymat.smallmat import small_form, vanloan_gram
from krymat.solution import CoordinateTrajectory, LowRankSolution, TimeGrid

from conftest import (near_defective, perturbed_equation_check, rect_hessenberg, stable_dense,
                      stable_sym)


def _arnoldi_on(a, b, m):
    proc = GlobalArnoldi(lambda x: a @ x, b, m)
    proc.advance_to(m)
    return proc


class TestKrylovExpmAction:
    def test_s_zero_returns_b(self, rng):
        a = stable_dense(12, rng)
        b = rng.standard_normal((12, 2))
        proc = _arnoldi_on(a, b, 4)
        vm, hm, _ = proc.projection(proc.m)
        # e^{sA} B ~ beta V_m (e^{s H_m} e_1 kron I_p)
        got = proc.beta * kron_apply(vm, sexpm(0.0 * hm)[:, [0]]).data
        np.testing.assert_allclose(got, b, atol=1e-13)

    def test_full_space_matches_dense(self, rng):
        a = stable_dense(6, rng)
        b = rng.standard_normal((6, 1))
        proc = _arnoldi_on(a, b, 6)
        vm, hm, _ = proc.projection(proc.m)
        got = proc.beta * kron_apply(vm, sexpm(hm)[:, [0]]).data
        ref = sexpm(a) @ b
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_error_decreases_with_m(self, rng):
        lam = -np.linspace(0.5, 10.0, 20)
        a = np.diag(lam)
        b = rng.standard_normal((20, 1))
        ref = sexpm(a) @ b
        errs = []
        for m in (2, 4, 6, 8):
            proc = _arnoldi_on(a, b, m)
            vm, hm, _ = proc.projection(proc.m)
            got = proc.beta * kron_apply(vm, sexpm(hm)[:, [0]]).data
            errs.append(np.linalg.norm(got - ref))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


class TestGramTrajectory:
    def test_starts_at_zero(self, rng):
        grid = TimeGrid(0.0, 1.0, 5)
        hm = stable_dense(3, rng)
        grams = gram_trajectory(hm, 2.0, grid, small_form(hm)[0]).samples
        np.testing.assert_array_equal(grams[0], np.zeros((3, 3)))

    def test_scalar_formula(self):
        grid = TimeGrid(0.0, 2.0, 8)
        hm = np.array([[-1.0]])
        grams = gram_trajectory(hm, 1.0, grid, small_form(hm)[0]).samples
        for k, t in enumerate(grid.nodes):
            assert grams[k][0, 0] == pytest.approx(
                (1 - np.exp(-2 * t)) / 2, abs=1e-13)

    @pytest.mark.parametrize("case", ["stiff", "rotation", "complex-pairs", "near-defective"])
    def test_matches_vanloan(self, rng, case):
        # stiff: symmetric, h ||H||_1 ~ 4.9e3; rotation: lambda_1 + lambda_2 = 0,
        # where phi_1 takes its limit; complex-pairs: stable and nonnormal, so
        # the eigen branch runs with a complex X; near-defective: the
        # Schur-form branch
        if case == "stiff":
            q_mat, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            hm = q_mat @ np.diag(-rng.uniform(1.0, 2000.0, 20)) @ q_mat.T
            grid = TimeGrid(0.0, 2.5, 2)
        elif case == "rotation":
            hm, grid = np.array([[0.0, 1.0], [-1.0, 0.0]]), TimeGrid(0.0, 2 * np.pi, 8)
        elif case == "complex-pairs":
            blocks = [np.array([[-a, b], [-b, -a]])
                      for a, b in zip(rng.uniform(0.5, 3.0, 3), rng.uniform(1.0, 5.0, 3))]
            basis = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
            hm = basis @ block_diag(*blocks) @ np.linalg.inv(basis)
            grid = TimeGrid(0.0, 2.0, 5)
        else:
            hm, grid = near_defective(2), TimeGrid(0.0, 3.0, 6)
        beta = 1.3
        form = small_form(hm)[0]
        if case == "complex-pairs":
            assert isinstance(form.own, smallmat.DiagonalForm) and np.iscomplexobj(form.x)
        traj = gram_trajectory(hm, beta, grid, form)
        assert isinstance(traj, CoordinateTrajectory)
        grams = traj.samples
        full = traj.x @ traj.g @ traj.x.T             # what samples takes the real part of
        assert grams.dtype == float and np.abs(full.imag).max() <= 1e-14 * np.abs(grams).max()
        e1 = np.zeros(hm.shape[0])
        e1[0] = beta
        for k in range(1, grid.nnodes):
            ref = vanloan_gram(hm, e1, k * grid.h)
            assert np.linalg.norm(grams[k] - ref) <= 1e-12 * np.linalg.norm(ref)
        last = grams[:, -1:]
        assert np.linalg.norm(traj.last_rows(1) - last) <= 1e-14 * np.linalg.norm(last)
        if isinstance(form.own, smallmat.DiagonalForm):
            # the broadcast does the arithmetic of the closed form node by node
            q = beta * form.xinv[:, 0]
            pair = form.own.lam[:, None] + form.own.lam[None, :]
            for k, t in enumerate(grid.h * np.arange(grid.nnodes)):
                weight = np.where(pair == 0, t,
                                  np.expm1(t * pair) / np.where(pair == 0, 1.0, pair))
                y = (form.x @ (weight * np.outer(q, q)) @ form.x.T).real
                np.testing.assert_array_equal(grams[k], 0.5 * (y + y.T))

    def test_overflow_is_a_numeric_error(self):
        hm = np.array([[400.0]])
        with pytest.raises(NumericError, match="overflowed"):
            gram_trajectory(hm, 1.0, TimeGrid(0.0, 2.0, 1), small_form(hm)[0])

    def test_ode_identity_by_finite_differences(self, rng):
        hm = stable_dense(4, rng)
        beta = 1.7
        grid = TimeGrid(0.0, 1.0, 10)
        grams = gram_trajectory(hm, beta, grid, small_form(hm)[0]).samples
        e1 = np.zeros(4)
        e1[0] = beta
        dt = 1e-5
        for k in (3, 7):
            t = grid.nodes[k]
            fd = (vanloan_gram(hm, e1, t + dt) - vanloan_gram(hm, e1, t - dt)) / (2 * dt)
            g = grams[k]
            rhs = hm @ g + g @ hm.T + np.outer(e1, e1)
            np.testing.assert_allclose(fd, rhs, atol=1e-6)


class TestResidualBoundExp:
    def test_zero_cases(self):
        assert residual_bound_exp(np.zeros((1, 1)), np.ones((3, 3))) == 0.0
        assert residual_bound_exp(np.array([[2.0]]), np.zeros((3, 3))) == 0.0

    def test_dense_residual_2norm_le_bound(self, rng):
        # equality for p = 1; for p > 1 the 2-norm is well below the bound
        # and the Frobenius norm near it (see the dleexp module docstring)
        n = 30
        for p in (1, 2, 3):
            a = stable_dense(n, rng)
            b = rng.standard_normal((n, p))
            b /= np.linalg.norm(b)
            proc = _arnoldi_on(a, b, 6)
            m = proc.m
            vm, hm, coupling = proc.projection(m)
            grid = TimeGrid(0.0, 1.0, 10)
            grams = gram_trajectory(hm, 1.0, grid, small_form(hm)[0]).samples
            e11 = np.zeros((m, m))
            e11[0, 0] = 1.0
            bbt = b @ b.T
            for k in range(grid.nnodes):
                g = grams[k]
                gdot = hm @ g + g @ hm.T + e11
                xm = kron_apply(vm, g).data @ vm.data.T
                xdot = kron_apply(vm, gdot).data @ vm.data.T
                rm = xdot - a @ xm - xm @ a.T - bbt
                assert np.linalg.norm(rm, 2) <= residual_bound_exp(coupling, g) + 1e-9


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
        proc = _arnoldi_on(a_dense, b, 8)
        vm, hm, coupling = proc.projection(proc.m)
        grid = TimeGrid(0.0, 1.0, 10)
        grams = gram_trajectory(hm, 1.0, grid, small_form(hm)[0]).samples
        mu2 = lognorm2_operator(a_dense)
        assert mu2 < 0
        gbar = max(np.linalg.norm(g[-1, :]) for g in grams)
        prob = DLEProblem(sp.csr_matrix(a_dense), b)
        ref = dense_dle_exact(prob, grid)
        for k in range(1, grid.nnodes):
            xm = kron_apply(vm, grams[k]).data @ vm.data.T
            err = np.linalg.norm(xm - ref[k], 2)
            bound = apriori_error_bound(coupling[0, 0], gbar, mu2, grid.nodes[k], 0.0)
            assert err <= bound


class SpySolver(LinearSolver):
    """The LU of A, counting its solves."""

    def __init__(self, a):
        super().__init__(a)
        self.solves = 0

    def solve(self, w):
        self.solves += 1
        return super().solve(w)


def _dense_mu2(a):
    a = a.toarray()
    return float(np.linalg.eigvalsh(0.5 * (a + a.T)).max())


class TestLognorm2Operator:
    """The sparse path, n > 400: shift-invert through the LU when A is
    certified negative definite, the Lanczos on the symmetric part else."""

    def _run(self, a, solver):
        trust = {}
        mu2 = lognorm2_operator(a, solver, trust)
        return mu2, trust["mu2_method"]

    def test_laplacian_closed_form(self):
        a = gen_laplacian2d(21)
        spy = SpySolver(a)
        mu2, method = self._run(a, spy)
        exact = -4 * 22**2 * (1 - np.cos(np.pi / 22))
        assert method == "shift-invert" and spy.solves > 0
        assert mu2 == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("case", ["minus-identity", "double-lambda-max"])
    def test_certified_edge_cases(self, case):
        if case == "minus-identity":
            a = -sp.identity(450, format="csr")
        else:
            a = sp.block_diag([gen_laplacian2d(21)] * 2, format="csr")
        spy = SpySolver(a)
        mu2, method = self._run(a, spy)
        assert method == "shift-invert" and spy.solves > 0
        assert mu2 == pytest.approx(_dense_mu2(a), rel=1e-11)

    def test_indefinite_needs_the_certificate(self):
        # L + 35 I: lambda_max = 15.3, but the eigenvalue nearest 0 is -14.1,
        # so a shift-invert on A^{-1} would return -14.1; Gershgorin fails
        a = (gen_laplacian2d(21) + 35.0 * sp.identity(441)).tocsr()
        lam = np.linalg.eigvalsh(a.toarray())
        assert lam.max() > 0 and lam[np.abs(lam).argmin()] < 0
        spy = SpySolver(a)
        mu2, method = self._run(a, spy)
        assert method == "lanczos" and spy.solves == 0
        assert mu2 == pytest.approx(lam.max(), rel=1e-11)

    @pytest.mark.parametrize("case", ["gershgorin-fails", "nonsymmetric", "no-solver"])
    def test_fallbacks(self, case):
        if case == "gershgorin-fails":
            # negative definite (lambda_max = -14.7) with row sums 5 > 0
            a = (gen_laplacian2d(21) + 5.0 * sp.identity(441)).tocsr()
        elif case == "nonsymmetric":
            a = gen_random_stable(450, seed=1)
        else:
            a = gen_laplacian2d(21)
        spy = None if case == "no-solver" else SpySolver(a)
        mu2, method = self._run(a, spy)
        assert method == "lanczos"
        assert spy is None or spy.solves == 0
        assert mu2 == pytest.approx(_dense_mu2(a), rel=1e-11)

    def test_small_and_dense_inputs(self):
        a = gen_laplacian2d(20)
        spy = SpySolver(a)
        for op in (a, a.toarray()):
            assert self._run(op, spy) == (pytest.approx(_dense_mu2(a), rel=1e-13), "dense")
        assert spy.solves == 0


class TestExpoSolve:
    def test_zero_b(self, tmp_path):
        import warnings
        from krymat.probio import gen_laplacian2d
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = DLEProblem(gen_laplacian2d(3), np.zeros((9, 1)))
        grid = TimeGrid(0.0, 1.0, 4)
        for solve in (expo_dle_solve, egadl_solve):
            sol, rep = solve(prob, grid, 5, 1e-8)
            assert rep.converged
            np.testing.assert_array_equal(sol.snapshot(2), np.zeros((9, 9)))
            assert sol.factor(2)[0].shape == (9, 0)
            # rank-0 factors survive the factored files
            sol.save(tmp_path / solve.__name__)
            loaded = LowRankSolution.load(tmp_path / solve.__name__)
            z, signs = loaded.factor(2)
            assert z.shape == (9, 0) and signs.shape == (0,)
            with pytest.raises(ValueError, match="no kernel"):
                loaded.snapshot(2)

    @pytest.mark.parametrize("kind, variant, method", [
        ("laplacian", "extended", "shift-invert"),
        ("laplacian", "global", "lanczos"),
        ("random-stable", "extended", "lanczos"),
    ])
    def test_summary_names_the_lognorm_path(self, kind, variant, method):
        # n = 441 and 450, past the dense log-norm; the global variant holds no LU
        if kind == "laplacian":
            prob = gen_dle_problem(n0=21, p=2, seed=1)
        else:
            prob = gen_random_dle_problem(n=450, p=2, density=0.02, seed=1)
        _, rep = expo_dle_solve(prob, TimeGrid(0.0, 1.0, 10), 5, 1e-8, variant=variant)
        lines = [ln for ln in rep.summary_lines() if ln.startswith("trust.mu2_method")]
        assert lines == [f"trust.mu2_method = {method}"]

    def test_load_needs_the_manifest(self, tmp_path):
        # missing, then without a section header, then without a key
        for text in (None, "width = 1\n", "[solution]\nwidth = 1\n"):
            if text is not None:
                (tmp_path / "solution.cfg").write_text(text)
            with pytest.raises(ParseError, match="solution.cfg"):
                LowRankSolution.load(tmp_path)

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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_nonsymmetric_error_within_apriori_bound(self, variant):
        prob = gen_random_dle_problem(n=120, p=2, density=0.05, seed=3)
        assert abs(prob.a - prob.a.T).max() > 0.0
        grid = TimeGrid(0.0, 1.0, 20)
        sol, rep = expo_dle_solve(prob, grid, 60, 1e-8, variant=variant)
        assert rep.converged and not rep.breakdown
        apriori = [row[3] for row in rep.rows if row[0] == rep.m_final]
        ref = dense_dle_exact(prob, grid)
        for k in range(grid.nnodes):
            assert np.linalg.norm(sol.snapshot(k) - ref[k]) <= apriori[k]

    def test_residual_bound_nonincreasing_in_m(self):
        # empirical monotonicity on the stable fixture at fixed t
        prob = gen_dle_problem(n0=8, p=1, seed=3)
        grid = TimeGrid(0.0, 1.0, 10)
        beta = np.linalg.norm(prob.b)
        proc_bounds = []
        for m in range(2, 12, 2):
            proc = _arnoldi_on(prob.a.toarray(), prob.b, m)
            _, hm, coupling = proc.projection(proc.m)
            grams = gram_trajectory(hm, beta, grid, small_form(hm)[0]).samples
            proc_bounds.append(residual_bound_exp(coupling, grams[-1]))
        assert all(b2 <= b1 * (1 + 1e-12)
                   for b1, b2 in zip(proc_bounds, proc_bounds[1:]))

    def test_nonzero_x0_rejected(self):
        prob = gen_dle_problem(n0=4, p=1, seed=1)
        prob = DLEProblem(prob.a, prob.b, z0=np.ones((16, 1)))
        for solve in (expo_dle_solve, egadl_solve):
            with pytest.raises(ValueError, match="X0"):
                solve(prob, TimeGrid(0.0, 1.0, 4), 5, 1e-8)

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
        proc = _arnoldi_on(a, b, m)
        _, hm, coupling = proc.projection(proc.m)
        grid = TimeGrid(0.0, 1.0, 8)
        grams = gram_trajectory(hm, 1.0, grid, small_form(hm)[0]).samples
        return prob, proc, hm, coupling, grams, grid

    def test_defect_small(self, rng):
        prob, proc, hm, coupling, grams, _ = self._setup(rng)
        m = proc.m
        rows = rect_hessenberg(hm, coupling)[m:]      # (0 ... 0 h_{m+1,m})
        assert perturbed_equation_check(prob, proc.basis(), hm, rows, 1.0, grams) <= 1e-9

    def test_breakdown_case_reduces_to_exact_equation(self, rng):
        # diagonal operator, b on an invariant subspace: h_{m+1,m} -> 0 and the
        # perturbed equation becomes the DLE itself
        lam = -np.arange(1.0, 9.0)
        a = np.diag(lam)
        b = np.zeros((8, 1))
        b[:3, 0] = [1.0, 0.5, -0.25]
        b /= np.linalg.norm(b)
        prob = DLEProblem(sp.csr_matrix(a), b)
        proc = _arnoldi_on(a, b, 6)
        assert proc.breakdown
        m = proc.m
        basis, hm, _ = proc.projection(m)
        grid = TimeGrid(0.0, 1.0, 6)
        grams = gram_trajectory(hm, 1.0, grid, small_form(hm)[0]).samples
        coupling = np.zeros((1, m))          # h_{m+1,m} = 0
        # tail block needed by the check: append a zero block
        padded = BlockRow(np.hstack([basis.data, np.zeros((8, 1))]), 1)
        defect = perturbed_equation_check(prob, padded, hm, coupling, 1.0, grams)
        assert defect <= 1e-10

    def test_cap_refusal(self, rng, monkeypatch):
        prob, proc, hm, _, grams, _ = self._setup(rng)
        monkeypatch.setattr(smallmat, "DENSE_CAP", 10)
        from krymat.errors import CapExceededError
        coupling = np.zeros((1, proc.m))
        with pytest.raises(CapExceededError):
            perturbed_equation_check(prob, proc.basis(), hm, coupling, 1.0, grams)

    def test_error_integral_identity(self, rng):
        # E(t) = e^{tA} E_0 e^{tA^T} - int_0^t e^{(t-s)A} R(s) e^{(t-s)A^T} ds
        # with E_0 = 0; Simpson quadrature on the right-hand side
        prob, proc, hm, _, grams, grid = self._setup(rng, n=12, m=3)
        m = proc.m
        a = prob.a.toarray()
        ref = dense_dle_exact(prob, grid)
        vm = proc.projection(m)[0]
        e11 = np.zeros((m, m))
        e11[0, 0] = 1.0
        bbt = prob.b @ prob.b.T

        def residual_at(t):
            g = vanloan_gram(hm, np.eye(m)[:, 0], t)
            gdot = hm @ g + g @ hm.T + e11
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
        xm_t = kron_apply(vm, grams[-1]).data @ vm.data.T
        err_t = ref[-1] - xm_t
        np.testing.assert_allclose(err_t, -integral, atol=1e-7)


class TestTwoKroneckerForms:
    def test_f_of_h_forms_agree(self, rng):
        # beta V (f(H) e1 kron I_p) == beta V f(H kron I_p) (e1 kron I_p)
        hm = rng.standard_normal((4, 4))
        p = 2
        vm = _arnoldi_on(stable_dense(8, rng), rng.standard_normal((8, p)), 4).projection(4)[0]
        beta = 1.3
        lhs = beta * kron_apply(vm, sexpm(hm)[:, [0]]).data
        big = sexpm(np.kron(hm, np.eye(p)))
        e1_kron = np.kron(np.eye(4)[:, [0]], np.eye(p))
        rhs = beta * (vm.data @ big @ e1_kron)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
