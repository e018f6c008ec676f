"""The solve that the three solvers share: report rows, breakdown, argument
checks and rank-deficient data, seen through each solver."""

import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_dle_bdf
from krymat import dlebdf, dleexp, dsylv
from krymat.blockmat import diamond, kron_apply
from krymat.dlebdf import egadl_solve
from krymat.dleexp import expo_dle_solve, gram_trajectory
from krymat.dsylv import galerkin_solve
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.errors import ConfigError, DimensionError, NumericError
from krymat.oracle import dense_dle_exact, dense_dme_solve
from krymat.probio import (DLEProblem, GenSylvesterProblem, LinearSolver, gen_dle_problem,
                           gen_laplacian2d, gen_random_dle_problem, gen_sylvester_q2,
                           random_full_rank)
from krymat.smallmat import DiagonalForm, small_form
from krymat.solution import LowRankSolution, SolveReport, TimeGrid, krylov_solve


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


def test_report_csv_text(tmp_path):
    rep = SolveReport("egadl", ("m", "t", "residual_bound", "rank"))
    for row in [(1, 0.0, -0.0, 2), (2, 5e-324, 1e308, 0), (10, np.inf, np.nan, 3),
                (4, 0.1, -1.7976931348623157e308, 5)]:
        rep.add(*row)
    rep.write_csv(tmp_path / "report.csv")
    # every value but m and rank as its shortest round-trip decimal
    assert (tmp_path / "report.csv").read_text() == (
        "m,t,residual_bound,rank\n1,0.0,-0.0,2\n2,5e-324,1e+308,0\n"
        "10,inf,nan,3\n4,0.1,-1.7976931348623157e+308,5\n")
    # a solve of a zero right-hand side adds no row
    SolveReport("galerkin", ("m", "t", "residual_bound")).write_csv(tmp_path / "zero.csv")
    assert (tmp_path / "zero.csv").read_text() == "m,t,residual_bound\n"


@pytest.mark.parametrize("solve", [
    _egadl,
    lambda: expo_dle_solve(gen_random_dle_problem(n=40, p=2, density=0.2, seed=2),
                           TimeGrid(0.0, 1.0, 20), 30, 1e-8),
    _galerkin,
], ids=["egadl-laplacian", "expo-random-stable", "galerkin"])
def test_report_tokens_are_shortest_round_trip_decimals(solve, tmp_path):
    _, rep = solve()
    rep.write_csv(tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(rep.columns) and len(lines) == len(rep.rows) + 1
    for line, row in zip(lines[1:], rep.rows, strict=True):
        for col, token, value in zip(rep.columns, line.split(","), row, strict=True):
            if col in ("m", "rank"):
                assert token == str(int(value))
            else:
                assert token == repr(float(value))
                assert np.float64(token).tobytes() == np.float64(value).tobytes()


def test_report_row_needs_every_column():
    rep = SolveReport("egadl", ("m", "t", "residual_bound", "rank"))
    for row in [(1, 0.0, 1e-3), (1, 0.0, 1e-3, 2, 0)]:
        with pytest.raises(DimensionError, match="report row needs 4 fields"):
            rep.add(*row)
    assert rep.rows == []


def _schur_problem():
    # a nonsymmetric A: T_m takes the Schur branch
    return gen_random_dle_problem(n=150, p=2, density=0.05, seed=1)


@pytest.mark.parametrize("solve, make, kwargs", [
    (egadl_solve, lambda: gen_dle_problem(n0=6, p=2, seed=1), {}),
    (egadl_solve, _schur_problem, {}),
    (expo_dle_solve, lambda: gen_dle_problem(n0=6, p=2, seed=1), {"variant": "global"}),
    (expo_dle_solve, lambda: gen_dle_problem(n0=6, p=2, seed=1), {"variant": "extended"}),
], ids=["egadl-eigen", "egadl-schur", "expo-global", "expo-extended"])
@pytest.mark.parametrize("factor_tol", [1e-10, 1e-4])
def test_factors_live_on_a_joint_range_within_factor_tol(solve, make, kwargs, factor_tol):
    sol, _ = solve(make(), TimeGrid(0.0, 1.0, 20), 40, 1e-8, factor_tol=factor_tol, **kwargs)
    v, w = sol.basis, sol.factor_basis
    assert w.width == v.width and w.m <= v.m and w.orth_defect() <= 1e-12
    # W = V (Q kron I): the coordinates of W in the F-orthonormal V are Q
    q = diamond(v, w)
    np.testing.assert_allclose(kron_apply(v, q).data, w.data, rtol=0, atol=1e-14)
    for y, f in zip(sol.kernel.samples, sol.factors):
        err = np.linalg.norm(y - q @ (f.z * f.signs) @ f.z.T @ q.T, 2)
        assert err <= factor_tol * np.linalg.norm(y, 2)


@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve])
def test_zero_factor_tol_keeps_every_direction(solve):
    sol, _ = solve(gen_dle_problem(n0=6, p=2, seed=1), TimeGrid(0.0, 1.0, 20), 40, 1e-8,
                   factor_tol=0.0)
    assert sol.factor_basis.m == sol.basis.m
    q = diamond(sol.basis, sol.factor_basis)
    for y, f in zip(sol.kernel.samples[1:], sol.factors[1:]):
        assert f.rank == sol.basis.m
        err = np.linalg.norm(y - q @ (f.z * f.signs) @ f.z.T @ q.T, 2)
        assert err <= 1e-13 * np.linalg.norm(y, 2)


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
    # the basis of m_max = 10**9 steps is never allocated: the buffer holds at
    # most the n*p blocks the space has, and the run is the same as at 50
    solve = _full_space_runs()[method]
    _, huge = solve(10**9)
    _, small = solve(50)
    assert huge.converged and huge.breakdown
    assert huge.dims["basis_blocks"] == huge.dims["n"] * huge.dims["p"]
    assert (huge.rows, huge.m_final, huge.dims) == (small.rows, small.m_final, small.dims)


@pytest.mark.parametrize("kind, seed, branch", [
    ("laplacian", 1, "eigen"), ("random-stable", 1, "schur"), ("random-stable", 5, "schur"),
])
@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve], ids=["egadl", "expo"])
def test_trust_names_the_final_reduction(solve, kind, seed, branch):
    # the Laplacian's T_m is symmetric to roundoff, and the fits reduce its
    # symmetric part by eigh; the nonsymmetric random fixtures end at m = 9
    # on the Schur form, however well conditioned their eigenvectors
    # (kappa_2(X) = 16.3 and 6.9)
    if kind == "laplacian":
        problem = gen_dle_problem(n0=6, p=2, seed=seed)
    else:
        problem = gen_random_dle_problem(n=150, p=2, density=0.05, seed=seed)
    _, rep = solve(problem, TimeGrid(0.0, 1.0, 20), 40, 1e-8)
    assert rep.converged
    _, tm, _ = _extended_projection(problem, rep.m_final)
    if kind == "laplacian":
        tm = 0.5 * (tm + tm.T)
    form = small_form(tm)
    # expo also names its log-norm path; n <= 400 takes the dense one.  Both
    # bound the residual's Frobenius norm
    extra = {"mu2_method": "dense"} if solve is expo_dle_solve else {}
    assert rep.trust == {"small_form": branch, "bound_norm": "frobenius", **extra}
    assert (branch == "eigen") == isinstance(form.own, DiagonalForm)
    assert f"trust.small_form = {branch}" in rep.summary_lines()


@pytest.mark.parametrize("module, name", [(dlebdf, "bdf_integrate"),
                                          (dleexp, "gram_trajectory")], ids=["egadl", "expo"])
def test_one_trajectory_is_alive_when_the_next_fit_starts(monkeypatch, module, name):
    # the previous basis size's trajectory, and the rank function that holds
    # it, are gone before the next fit allocates its own
    make, refs, alive = getattr(module, name), [], []

    def recording(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        traj = make(*args, **kwargs)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(module, name, recording)
    solve = egadl_solve if module is dlebdf else expo_dle_solve
    sol, rep = solve(gen_dle_problem(n0=8, p=2, seed=1), TimeGrid(0.0, 1.0, 20), 30, 1e-8)
    assert rep.converged and rep.m_final >= 3
    assert alive == [0] * rep.m_final
    assert refs[-1]() is sol.kernel


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


@pytest.mark.parametrize("variant,m_final", [("global", 3), ("extended", 1)])
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


@pytest.mark.parametrize("n0,m_final,blocks", [(3, 2, 5), (4, 4, 9)])
@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve], ids=["egadl", "expo"])
def test_extended_breakdown_fits_the_next_size_once(monkeypatch, solve, n0, m_final, blocks):
    # the extended step after m_final - 1 breaks down without counting; size
    # m_final is then fitted once, on all retained sub-blocks: the fit of the
    # broken-down process's projection after its m_final - 1 counted steps
    captured = {}

    def spied_solve(report, grid, m_max, tol, start, zero):
        def spied_start():
            captured["proc"], captured["fit"] = started = start()
            return started
        return krylov_solve(report, grid, m_max, tol, spied_start, zero)

    monkeypatch.setattr(dlebdf, "krylov_solve", spied_solve)
    grid = TimeGrid(0.0, 1.0, 4)
    _, rep = solve(gen_dle_problem(n0=n0, p=1, seed=1), grid, 30, 1e-8)
    assert rep.breakdown and rep.converged
    assert rep.m_final == m_final and rep.dims["basis_blocks"] == blocks
    assert [row[:2] for row in rep.rows] == [
        (m, t) for m in range(1, m_final + 1) for t in grid.nodes]
    assert "refit" not in rep.trust
    proc = captured["proc"]
    assert proc.m == m_final - 1
    bounds, more, _ = captured["fit"](*proc.projection(proc.m)[1:])
    assert [row[1:] for row in rep.rows if row[0] == m_final] == list(
        zip(grid.nodes, bounds, *more()))


@pytest.mark.parametrize("solve", [egadl_solve, expo_dle_solve], ids=["egadl", "expo"])
def test_breakdown_before_the_first_step_is_size_one(solve):
    # n = 4, p = 1: the seed gives two sub-blocks and the first step a third,
    # but that step breaks down without counting; the fit on all three is
    # basis size 1, and m = 0 stays the label of B = 0
    grid = TimeGrid(0.0, 1.0, 4)
    _, rep = solve(gen_dle_problem(n0=2, p=1, seed=1), grid, 30, 1e-8)
    assert rep.breakdown and rep.converged
    assert rep.m_final == 1 and rep.dims["basis_blocks"] == 3
    assert [row[:2] for row in rep.rows] == [(1, t) for t in grid.nodes]
    assert rep.final_bounds().max() < 1e-8


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
    grams = gram_trajectory(tm, proc.beta, grid, small_form(tm)).samples
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


def _no_lu(*args, **kwargs):
    raise AssertionError("a solve of B = 0 factored A")


@pytest.mark.parametrize("method", ["egadl", "expo-extended", "expo-global"])
def test_zero_b_is_solved_without_a_process(monkeypatch, tmp_path, method):
    # X(t) = 0 on one zero basis column: no LU, no log-norm, no row
    monkeypatch.setattr(dlebdf, "LinearSolver", _no_lu)
    with pytest.warns(UserWarning, match="rank deficient"):
        prob = DLEProblem(gen_laplacian2d(5), np.zeros((25, 2)))
    grid = TimeGrid(0.0, 1.0, 4)
    if method == "egadl":
        sol, rep = egadl_solve(prob, grid, 5, 1e-8)
    else:
        sol, rep = expo_dle_solve(prob, grid, 5, 1e-8, variant=method.split("-")[1])
    assert rep.converged and rep.m_final == 0 and rep.rows == []
    assert "mu2" not in rep.settings and "mu2_method" not in rep.trust
    for k in range(grid.nnodes):
        assert not sol.snapshot(k).any() and sol.snapshot(k).shape == (25, 25)
    sol.save(tmp_path)
    loaded = LowRankSolution.load(tmp_path)
    assert [f.rank for f in loaded.factors] == [0] * grid.nnodes
    assert loaded.factor(2)[0].shape == (25, 0)


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


def test_non_integer_steps_are_refused():
    # 2.5 steps once gave the nodes 0, 0.4, 0.8 and 1.2, past tf = 1, and nnodes = 3.5
    for steps in (2.5, True):
        with pytest.raises(DimensionError, match="integer steps"):
            TimeGrid(0.0, 1.0, steps)
    assert TimeGrid(0.0, 1.0, np.int64(2)).nnodes == 3


def test_steps_past_what_numpy_can_index_are_refused():
    # np.arange(2**63 - 1) returns no nodes at all instead of failing
    for steps in (2**60, 2**63 - 1, np.int64(2**63 - 1), 10**20):
        with pytest.raises(DimensionError, match="cannot allocate the grid's nodes"):
            TimeGrid(0.0, 1.0, steps)
    assert TimeGrid(0.0, 1.0, 2**60 - 2).nnodes == 2**60 - 1


@pytest.mark.filterwarnings("ignore:.*looks rank deficient")
@pytest.mark.parametrize("method", ["egadl", "expo", "galerkin"])
def test_zero_right_hand_side_on_a_grid_too_large_to_hold_is_refused(method):
    # X = X0 (or 0) still holds one zero sample a node: 8 PB at 10**15 nodes
    grid = TimeGrid(0.0, 1.0, 10**15)
    if method == "galerkin":
        prob = GenSylvesterProblem((sp.identity(6, format="csr"),),
                                   (sp.identity(2, format="csr"),), np.zeros((6, 2)))
        solve = galerkin_solve
    else:
        prob = DLEProblem(gen_laplacian2d(3), np.zeros((9, 1)))
        solve = egadl_solve if method == "egadl" else expo_dle_solve
    with pytest.raises(ConfigError, match=r"\[grid\] steps = 10+: cannot allocate"):
        solve(prob, grid, 5, 1e-8)


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
    ("egadl", {"l": 2.0}, "l"),
    ("egadl", {"l": True}, "l"),
    ("galerkin", {"m_max": True}, "m_max"),
]


def _case_ids(cases):
    """method-key, with the value appended where an earlier case has that id."""
    ids = []
    for method, bad, _ in cases:
        (name, value), = bad.items()
        ids.append(f"{method}-{name}" + (f"={value}" if f"{method}-{name}" in ids else ""))
    return ids


@pytest.mark.parametrize("method,bad,key", BAD_ARGUMENTS, ids=_case_ids(BAD_ARGUMENTS))
def test_bad_argument_is_refused_before_any_work(monkeypatch, method, bad, key):
    # an LU factorization, a norm estimate or an operator application is work
    for module, name in ((dlebdf, "LinearSolver"), (dleexp, "lognorm2_operator"),
                         (dsylv, "gsylv_apply")):
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
