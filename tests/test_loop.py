"""The solve that the three solvers share: report rows, breakdown, argument
checks and rank-deficient data, seen through each solver."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_dle_bdf
from krymat import dlebdf, dleexp, dsylv
from krymat.blockmat import kron_apply
from krymat.dlebdf import egadl_solve
from krymat.dleexp import expo_dle_solve, gram_trajectory
from krymat.dsylv import galerkin_solve
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.errors import ConfigError, NumericError
from krymat.oracle import dense_dle_exact, dense_dme_solve
from krymat.probio import (DLEProblem, GenSylvesterProblem, LinearSolver, gen_dle_problem,
                           gen_laplacian2d, gen_random_dle_problem, gen_sylvester_q2,
                           random_full_rank)
from krymat.smallmat import EIG_COND_MAX, DiagonalForm, small_form
from krymat.solution import TimeGrid


def _egadl():
    prob = gen_dle_problem(n0=6, p=2, seed=1)
    return egadl_solve(prob, TimeGrid(0.0, 1.0, 20), 20, 1e-8, l=2)


def _expo():
    prob = gen_dle_problem(n0=6, p=2, seed=1)
    return expo_dle_solve(prob, TimeGrid(0.0, 1.0, 20), 20, 1e-8)


def _galerkin():
    prob = gen_sylvester_q2(40, 2, seed=3)
    return galerkin_solve(prob, TimeGrid(0.0, 1.0, 20), 60, 1e-8)


@pytest.mark.parametrize("solve", [_egadl, _expo, _galerkin],
                         ids=["egadl", "expo", "galerkin"])
def test_report_holds_every_node(solve):
    _, rep = solve()
    assert rep.converged and not rep.breakdown
    nodes = TimeGrid(0.0, 1.0, 20).nodes
    # rows come per basis size, one per node in node order
    assert [row[:2] for row in rep.rows] == [
        (m, t) for m in range(1, rep.m_final + 1) for t in nodes]


def _full_space_runs():
    # a tiny random DLE and Sylvester equation whose bases fill all n*p
    # dimensions before they break down
    grid = TimeGrid(0.0, 1.0, 10)
    dle = gen_random_dle_problem(n=6, p=1, density=0.5, seed=2)
    syl = gen_sylvester_q2(3, 2, seed=3)
    return {
        "egadl": lambda m_max: egadl_solve(dle, grid, m_max, 1e-8),
        "expo-extended": lambda m_max: expo_dle_solve(dle, grid, m_max, 1e-8),
        "expo-global": lambda m_max: expo_dle_solve(dle, grid, m_max, 1e-8,
                                                    variant="global"),
        "galerkin": lambda m_max: galerkin_solve(syl, grid, m_max, 1e-8),
    }


@pytest.mark.parametrize("method", list(_full_space_runs()))
def test_huge_m_max_reserves_only_the_block_space(method):
    # the basis of m_max = 10**9 steps is never allocated: the store holds at
    # most the n*p blocks the space has, and the run is the same as at 50
    solve = _full_space_runs()[method]
    _, huge = solve(10**9)
    _, small = solve(50)
    assert huge.converged and huge.breakdown
    assert huge.dims["basis_blocks"] == huge.dims["n"] * huge.dims["p"]
    assert (huge.rows, huge.m_final, huge.dims) == (small.rows, small.m_final, small.dims)


@pytest.mark.parametrize("kind, seed, branch", [
    ("laplacian", 1, "eigen"), ("random-stable", 1, "schur"), ("random-stable", 5, "eigen"),
])
@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve], ids=["egadl", "expo"])
def test_trust_names_the_final_reduction(solve, kind, seed, branch):
    # the Laplacian's T_m is symmetric to roundoff; the nonsymmetric random
    # fixtures end at m = 9 with kappa_2(X) = 16.3 (past the gate) and 6.9
    if kind == "laplacian":
        problem = gen_dle_problem(n0=6, p=2, seed=seed)
    else:
        problem = gen_random_dle_problem(n=150, p=2, density=0.05, seed=seed)
    _, rep = solve(problem, TimeGrid(0.0, 1.0, 20), 40, 1e-8)
    assert rep.converged
    _, tm, _ = _extended_projection(problem, rep.m_final)
    form, cond = small_form(tm)
    # expo also names its log-norm path; n <= 400 takes the dense one.  Both
    # bound the residual's Frobenius norm
    extra = {"mu2_method": "dense"} if solve is expo_dle_solve else {}
    assert rep.trust == {"small_form": branch, "eig_cond": cond, "bound_norm": "frobenius",
                         **extra}
    assert (cond <= EIG_COND_MAX) == (branch == "eigen") == isinstance(form.own, DiagonalForm)
    lines = rep.summary_lines()
    assert f"trust.small_form = {branch}" in lines
    assert f"trust.eig_cond = {cond}" in lines


@pytest.mark.parametrize("method, p, norm", [
    ("egadl", 2, "frobenius"), ("extended", 2, "frobenius"), ("global", 1, "spectral"),
    ("global", 2, "unproven"),
], ids=["egadl", "expo-extended", "expo-global-p1", "expo-global-p2"])
def test_trust_names_the_norm_the_bound_limits(method, p, norm):
    problem = gen_dle_problem(n0=6, p=p, seed=1)
    grid = TimeGrid(0.0, 1.0, 10)
    if method == "egadl":
        _, rep = egadl_solve(problem, grid, 20, 1e-8)
    else:
        _, rep = expo_dle_solve(problem, grid, 20, 1e-8, variant=method)
    assert rep.trust["bound_norm"] == norm
    assert f"trust.bound_norm = {norm}" in rep.summary_lines()


def _extended_projection(problem, m):
    proc = ExtendedGlobalArnoldi(problem.a, LinearSolver(problem.a), problem.b, m)
    return proc.projection(proc.advance_to(m))


def _diagonal_with_invariant_rhs():
    # b is supported on the first three coordinates of a diagonal operator,
    # so every Krylov space of (A, b) stays inside a three-dimensional
    # invariant subspace
    a = sp.diags(-np.arange(1.0, 13.0)).tocsr()
    b = np.zeros((12, 1))
    b[:3, 0] = [1.0, -0.5, 0.25]
    return a, b


@pytest.mark.parametrize("variant,m_final", [("global", 3), ("extended", 0)])
def test_expo_breakdown_is_exact(variant, m_final):
    a, b = _diagonal_with_invariant_rhs()
    prob = DLEProblem(a, b)
    grid = TimeGrid(0.0, 1.0, 20)
    sol, rep = expo_dle_solve(prob, grid, 10, 1e-9, variant=variant)
    assert rep.breakdown and rep.converged
    assert rep.m_final == m_final
    ref = dense_dle_exact(prob, grid)
    err = max(np.linalg.norm(sol.snapshot(k) - ref[k]) for k in range(grid.nnodes))
    assert err <= 1e-13


def test_galerkin_breakdown_is_exact():
    a, c = _diagonal_with_invariant_rhs()
    prob = GenSylvesterProblem((a,), (sp.identity(1, format="csr"),), c)
    grid = TimeGrid(0.0, 1.0, 20)
    sol, rep = galerkin_solve(prob, grid, 10, 1e-9)
    assert rep.breakdown and rep.converged
    assert rep.m_final == 3
    ref = dense_dme_solve(prob, grid)
    err = max(np.linalg.norm(sol.snapshot(k) - ref[k]) for k in range(grid.nnodes))
    assert err <= 1e-13


@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve], ids=["egadl", "expo"])
def test_extended_breakdown_reports_one_row_set_per_size(solve):
    # the extended step after m = 1 breaks down without counting, and the fit
    # of m = 1 on all retained sub-blocks replaces the first one's rows
    grid = TimeGrid(0.0, 1.0, 4)
    _, rep = solve(gen_dle_problem(n0=3, p=1, seed=1), grid, 30, 1e-8)
    assert rep.breakdown and rep.converged and rep.m_final == 1
    assert [row[:2] for row in rep.rows] == [(1, t) for t in grid.nodes]
    assert rep.final_bounds().max() < 1e-8
    assert rep.trust["refit"] == 1


def _raise_numeric_error(*args, **kwargs):
    raise NumericError("eigvalsh failed on the worker")


@pytest.mark.parametrize("solve", [_egadl, _expo, _galerkin], ids=["egadl", "expo", "galerkin"])
def test_solve_joins_its_worker(solve):
    before = threading.active_count()
    solve()
    assert threading.active_count() == before


def test_solve_joins_its_worker_when_the_worker_raises(monkeypatch):
    # only the worker's rank column calls eigvalsh in an EgAdl solve
    monkeypatch.setattr(np.linalg, "eigvalsh", _raise_numeric_error)
    before = threading.active_count()
    with pytest.raises(NumericError, match="on the worker"):
        _egadl()
    assert threading.active_count() == before


def _near_singular_problem():
    # the 2-D Laplacian shifted by just past its largest eigenvalue: A stays
    # stable, 1e-6 from singular, so A^{-1} v is dominated by a direction
    # already in the basis and the extended process's rank test reads a real
    # remainder as noise
    a = gen_laplacian2d(8)
    lam_max = np.linalg.eigvalsh(a.toarray()).max()
    a = (a - (lam_max + 1e-6) * sp.identity(64)).tocsr()
    return DLEProblem(a, random_full_rank(64, 2, seed=1))


@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve], ids=["egadl", "expo"])
def test_false_breakdown_is_not_convergence(solve):
    prob = _near_singular_problem()
    grid = TimeGrid(0.0, 1.0, 20)
    sol, rep = solve(prob, grid, 30, 1e-8)
    assert rep.breakdown and not rep.converged
    ref = dense_dle_exact(prob, grid)
    err = max(np.linalg.norm(sol.snapshot(k) - ref[k]) for k in range(grid.nnodes))
    assert err > 1e-8                 # the basis misses part of the solution


def test_false_breakdown_bound_dominates_dense_residual():
    # X_m = V (G kron I) V^T with the exact Gramian G of the projected
    # equation, so dX_m/dt = V ((T G + G T^T + beta^2 e_1 e_1^T) kron I) V^T
    prob = _near_singular_problem()
    grid = TimeGrid(0.0, 1.0, 20)
    _, rep = expo_dle_solve(prob, grid, 30, 1e-8, variant="extended")
    proc = ExtendedGlobalArnoldi(prob.a, LinearSolver(prob.a), prob.b, 1)
    basis, tm, _ = proc.projection(proc.advance_to(1))
    assert proc.breakdown and basis.m == tm.shape[0]
    a_dense = prob.a.toarray()
    bbt = prob.b @ prob.b.T
    grams = gram_trajectory(tm, proc.beta, grid, small_form(tm)[0]).samples
    for g, bound in zip(grams, rep.final_bounds()):
        gdot = tm @ g + g @ tm.T
        gdot[0, 0] += proc.beta ** 2
        xm = kron_apply(basis, g).data @ basis.data.T
        xdot = kron_apply(basis, gdot).data @ basis.data.T
        dense = np.linalg.norm(xdot - a_dense @ xm - xm @ a_dense.T - bbt)
        assert dense <= bound * (1 + 1e-8) + 1e-12


# columns of B as multiples of one vector b
RANK_DEFICIENT_B = {"b,b": [1.0, 1.0], "b,2b,-b": [1.0, 2.0, -1.0]}


@pytest.mark.parametrize("weights", list(RANK_DEFICIENT_B.values()),
                         ids=list(RANK_DEFICIENT_B))
@pytest.mark.parametrize("method", ["egadl", "expo-global", "expo-extended"])
def test_rank_deficient_b_matches_dense_reference(method, weights):
    b = random_full_rank(64, 1, seed=1)
    with pytest.warns(UserWarning, match="rank deficient"):
        prob = DLEProblem(gen_laplacian2d(8), b * np.array(weights))
    grid = TimeGrid(0.0, 1.0, 20)
    if method == "egadl":
        sol, rep = egadl_solve(prob, grid, 30, 1e-8, l=2)
        ref, bounds = dense_dle_bdf(prob, grid, 2), [1e-6] * grid.nnodes   # AC-4's bound
    else:
        sol, rep = expo_dle_solve(prob, grid, 30, 1e-8, variant=method.split("-")[1])
        ref = dense_dle_exact(prob, grid)
        bounds = [row[3] for row in rep.rows if row[0] == rep.m_final]    # a-priori bound
    assert rep.converged and not rep.breakdown
    for k in range(grid.nnodes):
        assert np.linalg.norm(sol.snapshot(k) - ref[k]) <= bounds[k]


def test_rank_deficient_c_matches_oracle():
    base = gen_sylvester_q2(40, 2, seed=3)
    c = base.c[:, :1]
    with pytest.warns(UserWarning, match="rank deficient"):
        prob = GenSylvesterProblem(base.a_list, base.b_list, np.hstack([c, c]))
    grid = TimeGrid(0.0, 1.0, 20)
    sol, rep = galerkin_solve(prob, grid, 60, 1e-10)
    assert rep.converged
    ref = dense_dme_solve(prob, grid)
    for k in range(grid.nnodes):
        assert np.linalg.norm(sol.snapshot(k) - ref[k]) <= 1e-8


@pytest.mark.parametrize("m_max", [2.5, 20.0])
def test_non_integer_m_max_is_refused(m_max):
    # the basis is allocated for m_max steps; a float once ran to ceil(m_max)
    with pytest.raises(ConfigError, match="need an integer m_max >= 1"):
        galerkin_solve(gen_sylvester_q2(20, 2, seed=3), TimeGrid(0.0, 1.0, 10), m_max, 1e-8)


def _no_work(*args, **kwargs):
    raise AssertionError("the solver started work on a bad argument")


BAD_ARGUMENTS = [
    ("egadl", {"m_max": 0}, "m_max"),
    ("egadl", {"l": 7}, "l = 7"),
    ("egadl", {"z0": True}, "X0"),
    ("expo", {"m_max": 0}, "m_max"),
    ("expo", {"variant": "bogus"}, "variant"),
    ("expo", {"z0": True}, "X0"),
    ("galerkin", {"m_max": 0}, "m_max"),
    ("egadl", {"tol": float("nan")}, "tol"),
    ("expo", {"tol": float("inf")}, "tol"),
    ("galerkin", {"tol": -1.0}, "tol"),
    ("egadl", {"factor_tol": float("nan")}, "factor_tol"),
    ("expo", {"factor_tol": 1.5}, "factor_tol"),
]


@pytest.mark.parametrize("method,bad,key", BAD_ARGUMENTS,
                         ids=[f"{m}-{next(iter(bad))}" for m, bad, _ in BAD_ARGUMENTS])
def test_bad_argument_is_refused_before_any_work(monkeypatch, method, bad, key):
    # an LU factorization, a norm estimate or an operator application is work
    for module, name in ((dlebdf, "LinearSolver"), (dleexp, "LinearSolver"),
                         (dleexp, "lognorm2_operator"), (dsylv, "gsylv_apply")):
        monkeypatch.setattr(module, name, _no_work)
    kwargs = dict(bad)
    m_max = kwargs.pop("m_max", 20)
    tol = kwargs.pop("tol", 1e-8)
    if method == "galerkin":
        prob, solve = gen_sylvester_q2(20, 2, seed=3), galerkin_solve
    else:
        prob = gen_dle_problem(n0=5, p=2, seed=1)
        if kwargs.pop("z0", False):
            prob = DLEProblem(prob.a, prob.b, z0=np.ones((25, 1)))
        solve = egadl_solve if method == "egadl" else expo_dle_solve
    with pytest.raises(ConfigError, match=key):
        solve(prob, TimeGrid(0.0, 1.0, 10), m_max, tol, **kwargs)
