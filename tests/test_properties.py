"""Property tests: drawn problems against the documented guarantees.

The examples are derandomized and never stored, so a run draws the same
problems every time.
"""

import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bdf_derivatives, convection_diffusion, dense_dle_bdf, range_cut
from krymat.blockmat import BlockRow, diamond, kron_apply
from krymat.dlebdf import egadl_solve
from krymat.dleexp import VARIANTS, expo_dle_solve
from krymat.dsylv import galerkin_solve
from krymat.garnoldi import GlobalArnoldi
from krymat.probio import (DLEProblem, GenSylvesterProblem, gen_dle_problem,
                           gen_random_dle_problem, gen_random_stable, gsylv_apply)
from krymat.solution import LowRankSolution, TimeGrid

# roundoff allowed on top of a node's factor error bound factor_tol ||Y_k||_2,
# as a multiple of ||Y_k||_2: a few eps for forming the error
FACTOR_ROUNDOFF = 8 * np.finfo(float).eps


@st.composite
def sylvester_runs(draw):
    """(problem, grid, m_max, tol): sum_i A_i X B_i + C with one or two terms,
    each A_i sparse, nonsymmetric and stable by diagonal dominance, each B_i
    dense and stable; X0 zero or standard normal."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, min(3, n)))
    q = draw(st.integers(1, 2))
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    x0_zero = draw(st.booleans())
    tf = draw(st.sampled_from([0.1, 1.0]))
    steps = draw(st.integers(5, 10))
    m_max = draw(st.integers(1, 30))
    tol = draw(st.sampled_from([1e-2, 1e-6, 1e-10]))
    rng = np.random.default_rng(seed)
    a_list, b_list = [], []
    for i in range(q):
        a_list.append(gen_random_stable(n, density=density, seed=seed + i))
        b = rng.standard_normal((p, p))
        b_list.append(sp.csr_matrix(b - (np.abs(np.linalg.eigvals(b).real).max() + 1.0)
                                    * np.eye(p)))
    c = rng.standard_normal((n, p))
    x0 = None if x0_zero else rng.standard_normal((n, p))
    problem = GenSylvesterProblem(tuple(a_list), tuple(b_list), c, x0=x0, tf=tf)
    return problem, TimeGrid(0.0, tf, steps), m_max, tol


class TestGalerkinProperties:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(sylvester_runs())
    def test_bound_report_and_rerun(self, run):
        problem, grid, m_max, tol = run
        sol, rep = galerkin_solve(problem, grid, m_max, tol)
        bounds = rep.final_bounds()

        # one row set per basis size, each node once and in order
        sizes = range(1, rep.m_final + 1)
        assert [r[0] for r in rep.rows] == [m for m in sizes for _ in grid.nodes]
        assert [r[1] for r in rep.rows] == list(grid.nodes) * rep.m_final
        assert rep.converged == bool(bounds.max() < tol)

        # the final bound is the formed residual X_m' - A(X_m) - C, as in AC-3:
        # the same process rebuilt gives the solve's basis and H_m
        m = rep.m_final
        r0 = -gsylv_apply(problem, problem.initial_value()) - problem.c
        proc = GlobalArnoldi(lambda x: gsylv_apply(problem, x), r0, m)
        vm, hm, _ = proc.projection(proc.advance_to(m))
        assert np.array_equal(vm.data, sol.basis.data)
        cm = np.r_[-proc.beta, np.zeros(m - 1)]
        for k in range(grid.nnodes):
            xdot = kron_apply(vm, (hm @ sol.samples[k] + cm)[:, None]).data
            ax = gsylv_apply(problem, sol.snapshot(k))
            formed = np.linalg.norm(xdot - ax - problem.c)
            scale = np.linalg.norm(xdot) + np.linalg.norm(ax) + np.linalg.norm(problem.c)
            assert abs(formed - bounds[k]) <= 1e-12 * scale

        again, rep_again = galerkin_solve(problem, grid, m_max, tol)
        assert rep_again.rows == rep.rows
        assert np.array_equal(again.samples, sol.samples)


@st.composite
def dle_runs(draw):
    """(problem, grid, m_max, tol, l): a 2-D Laplacian A (exactly symmetric)
    or a sparse random stable one (nonsymmetric), and B of p <= n/10 columns,
    so that no low-rank warning is raised.  The smallest problems break down."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        n0 = draw(st.integers(2, 6))
        problem = gen_dle_problem(n0=n0, p=draw(st.integers(1, max(1, n0 * n0 // 10))),
                                  seed=seed)
    else:
        n = draw(st.integers(2, 40))
        problem = gen_random_dle_problem(n=n, p=draw(st.integers(1, max(1, n // 10))),
                                         density=draw(st.sampled_from([0.1, 0.3, 1.0])),
                                         seed=seed)
    steps = draw(st.integers(5, 10))
    grid = TimeGrid(0.0, draw(st.sampled_from([0.1, 1.0])), steps)
    return (problem, grid, draw(st.integers(1, 30)), draw(st.sampled_from([1e-8, 1e-10])),
            draw(st.integers(1, 3)))


@st.composite
def convection_diffusion_runs(draw):
    """(problem, grid, m_max, tol, l) as ``dle_runs`` draws them, on the
    convection-diffusion A = L - w (I kron D + D kron I) of the 2-D Laplacian
    L, nonsymmetric for every wind w but 0, with a standard normal B of
    p <= n/10 columns."""
    n0 = draw(st.integers(2, 6))
    w = draw(st.sampled_from([0.0, 1.0, 10.0, 100.0, 300.0]))
    p = draw(st.integers(1, max(1, n0 * n0 // 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = DLEProblem(convection_diffusion(n0, w), rng.standard_normal((n0 * n0, p)))
    steps = draw(st.integers(5, 10))
    grid = TimeGrid(0.0, draw(st.sampled_from([0.1, 1.0])), steps)
    return (problem, grid, draw(st.integers(1, 30)), draw(st.sampled_from([1e-8, 1e-10])),
            draw(st.integers(1, 3)))


def assert_rows_per_basis_size(rep, grid):
    """One row set per basis size, each node once and in order, also after
    a breakdown; a seed whose A^{-1} image depends on it breaks down before
    the first step, and its one row set is at m = 1."""
    sizes = list(range(1, rep.m_final + 1))
    assert [r[0] for r in rep.rows] == [m for m in sizes for _ in grid.nodes]
    assert [r[1] for r in rep.rows] == list(grid.nodes) * len(sizes)


def assert_factored_form(sol):
    """The factored form's guarantees: every node's factor within
    factor_tol ||Y_k||_2 of its kernel (plus FACTOR_ROUNDOFF ||Y_k||_2), no
    more blocks in W = V (Q kron I) than the range cut at factor_tol/4, and
    ``factor(k)`` of the saved and reloaded solution bit for bit."""
    ys, tol = sol.kernel.samples, sol.factor_tol
    w = sol.factor_basis
    q = diamond(sol.basis, w)
    for f, y in zip(sol.factors, ys):
        err = np.linalg.norm(y - q @ (f.z * f.signs) @ f.z.T @ q.T, 2)
        assert err <= (tol + FACTOR_ROUNDOFF) * np.linalg.norm(y, 2)
    assert w.m <= range_cut(ys, tol)
    with tempfile.TemporaryDirectory() as out:
        sol.save(out)
        loaded = LowRankSolution.load(out)
        for k in range(sol.grid.nnodes):
            (z, signs), (z_read, signs_read) = sol.factor(k), loaded.factor(k)
            assert np.array_equal(z_read, z) and np.array_equal(signs_read, signs)


def assert_one_orthogonal_reduction(problem, sol, rep):
    """The final T_m took the eigen form exactly when A is exactly symmetric
    (or T_m, of order 1, is symmetric whatever A), and the real Schur form
    otherwise: the kernel's basis change X and every G_k are real, X is
    orthogonal, and no eigenvector conditioning is reported."""
    x, g = sol.kernel.x, sol.kernel.g
    assert x.dtype == g.dtype == np.float64
    k = len(x)
    assert np.linalg.norm(x.T @ x - np.eye(k)) <= 1e-13 * k
    symmetric = (problem.a != problem.a.T).nnz == 0 or k == 1
    assert (rep.trust["small_form"] == "eigen") == symmetric
    assert "eig_cond" not in rep.trust


def assert_ranks_count_the_formed_kernels(sol, rep):
    """The final size's rank column, read from the G_k, counts the formed
    kernels' eigenvalues above factor_tol max|lambda| at every node where
    none lies within 64 k eps max|lambda| of that threshold, k the order of
    the kernels."""
    ranks = [r[3] for r in rep.rows if r[0] == rep.m_final]
    ys = sol.kernel.samples
    near = 64 * len(sol.kernel.x) * np.finfo(float).eps
    for rank, y in zip(ranks, ys, strict=True):
        lam = np.abs(np.linalg.eigvalsh(y))
        threshold = sol.factor_tol * lam.max()
        if not (np.abs(lam - threshold) < near * lam.max()).any():
            assert rank == np.count_nonzero(lam > threshold)


def assert_bound_dominates_residual(problem, rep, xs, xdots):
    """At the last len(xs) nodes of the final basis size, the reported bound
    dominates the formed residual X' - A X - X A^T - B B^T of X = xs[i],
    X' = xdots[i] in the norm that trust.bound_norm names, within 1e-12 of the scale
    2 ||A X||_F + ||B B^T||_F + ||X'||_F.  An ``unproven`` bound is not checked."""
    norm = {"frobenius": "fro", "spectral": 2, "unproven": None}[rep.trust["bound_norm"]]
    if norm is None:
        return
    a = problem.a.toarray()
    bbt = problem.b @ problem.b.T
    bounds = rep.final_bounds()[-len(xs):]
    for bound, x, xdot in zip(bounds, xs, xdots, strict=True):
        ax = a @ x
        formed = np.linalg.norm(xdot - ax - x @ a.T - bbt, norm)
        scale = 2 * np.linalg.norm(ax) + np.linalg.norm(bbt) + np.linalg.norm(xdot)
        assert formed <= bound + 1e-12 * scale


class TestExpoProperties:
    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(run=dle_runs())
    def test_rows_rerun_and_factors(self, variant, run):
        problem, grid, m_max, tol, _ = run
        sol, rep = expo_dle_solve(problem, grid, m_max, tol, variant=variant)
        assert_rows_per_basis_size(rep, grid)

        again, rep_again = expo_dle_solve(problem, grid, m_max, tol, variant=variant)
        assert rep_again.rows == rep.rows
        assert np.array_equal(again.kernel.g, sol.kernel.g)
        assert_one_orthogonal_reduction(problem, sol, rep)

        # X' from the projected ODE Y' = T Y + Y T^T + b b^T, with T = V <> (A V)
        # and b = V <> B, at every node
        v = sol.basis
        t = diamond(v, BlockRow(problem.a @ v.data, v.width))
        b = diamond(v, BlockRow(problem.b, v.width))
        ys = sol.kernel.samples
        ydots = t @ ys + ys @ t.T + b @ b.T
        assert_bound_dominates_residual(problem, rep,
                                        [sol.snapshot(k) for k in range(grid.nnodes)],
                                        [kron_apply(v, yd).data @ v.data.T for yd in ydots])

        assert_factored_form(sol)

    # the same checks on a second strategy, which leaves the draws above as they are
    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(run=convection_diffusion_runs())
    def test_convection_diffusion(self, variant, run):
        self.test_rows_rerun_and_factors.hypothesis.inner_test(self, variant, run)


class TestEgadlProperties:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(dle_runs())
    def test_rows_rerun_real_kernels_and_dense_bdf(self, run):
        problem, grid, m_max, tol, l = run
        sol, rep = egadl_solve(problem, grid, m_max, tol, l=l)

        assert_rows_per_basis_size(rep, grid)

        again, rep_again = egadl_solve(problem, grid, m_max, tol, l=l)
        assert rep_again.rows == rep.rows
        assert np.array_equal(again.kernel.g, sol.kernel.g)

        assert_one_orthogonal_reduction(problem, sol, rep)
        assert_ranks_count_the_formed_kernels(sol, rep)

        # a converged run is the same-grid dense BDF solution within AC-4's bound
        if rep.converged:
            ref = dense_dle_bdf(problem, grid, l)
            for k in range(grid.nnodes):
                assert np.linalg.norm(sol.snapshot(k) - ref[k]) < 1e-6

        # the residual of each BDF step equation, with the scheme that step used
        xs = [sol.snapshot(k) for k in range(grid.nnodes)]
        assert_bound_dominates_residual(problem, rep, xs[1:], bdf_derivatives(xs, grid.h, l))

        assert_factored_form(sol)

    # the same checks on a second strategy, which leaves the draws above as they are
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(convection_diffusion_runs())
    def test_convection_diffusion(self, run):
        self.test_rows_rerun_real_kernels_and_dense_bdf.hypothesis.inner_test(self, run)
