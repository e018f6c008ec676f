"""Tests of the benchmark's correctness checks and of its tracing.

    PYTHONPATH=src python -m pytest bench/tests -q

At desk size each check must pass on the solution krymat returns, agree
with a second reference (krymat's dense oracle, or the test suite's
`dense_dle_bdf`), and fail once the solution is corrupted.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from krymat import oracle, probio  # noqa: E402
from krymat.dlebdf import egadl_solve  # noqa: E402
from krymat.dleexp import expo_dle_solve  # noqa: E402
from krymat.dsylv import galerkin_solve  # noqa: E402
from krymat.solution import TimeGrid  # noqa: E402


def _suite_helper(name):
    spec = importlib.util.spec_from_file_location("krymat_suite_conftest",
                                                  ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return getattr(mod, name)


TOL = 1e-8


# ---------------------------------------------------------------------------
# EgAdl

@pytest.fixture(scope="module")
def egadl_run():
    problem = probio.gen_dle_problem(n0=8, p=2, seed=3)
    grid = TimeGrid(0.0, 1.0, 20)
    solution, report = egadl_solve(problem, grid, 30, TOL, l=2)
    assert report.converged
    return problem, grid, solution


def _egadl_check(problem, grid, v, width, kernels):
    return checks.check_egadl(problem.a, problem.b, v, width, kernels, grid.h, 2, TOL)


def test_egadl_check_passes(egadl_run):
    problem, grid, sol = egadl_run
    out = _egadl_check(problem, grid, sol.basis.data, sol.basis.width, sol.kernel.samples)
    assert out["residual_max"] < TOL and out["orth_defect"] < 1e-12


def test_egadl_residual_matches_dense(egadl_run):
    problem, grid, sol = egadl_run
    a = problem.a.toarray()
    v, w = sol.basis.data, sol.basis.width
    xs = [v @ np.kron(y, np.eye(w)) @ v.T for y in sol.kernel.samples]
    dense = []
    for k in range(1, len(xs)):
        beta, alpha = checks.BDF_COEFFS[min(2, k)]
        d = (xs[k] - sum(a_i * xs[k - 1 - i] for i, a_i in enumerate(alpha))) / (grid.h * beta)
        dense.append(np.linalg.norm(a @ xs[k] + xs[k] @ a.T + problem.b @ problem.b.T - d))
    low_rank = checks.bdf_residual_norms(problem.a, problem.b, v, w, sol.kernel.samples,
                                         grid.h, 2)
    np.testing.assert_allclose(low_rank, dense, rtol=0, atol=1e-12)


def test_egadl_same_grid_bdf_solution_has_no_residual(egadl_run):
    # the full-dimension BDF2 trajectory, as the identity basis times X_k
    problem, grid, _ = egadl_run
    xs = list(_suite_helper("dense_dle_bdf")(problem, grid, 2))
    res = checks.bdf_residual_norms(problem.a, problem.b, np.eye(problem.n), 1, xs, grid.h, 2)
    assert res.max() < 1e-12


def test_egadl_check_fails_on_perturbed_kernel(egadl_run):
    problem, grid, sol = egadl_run
    kernels = [y.copy() for y in sol.kernel.samples]
    kernels[5][0, 0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="BDF residual"):
        _egadl_check(problem, grid, sol.basis.data, sol.basis.width, kernels)


def test_egadl_check_fails_on_dropped_block(egadl_run):
    problem, grid, sol = egadl_run
    w, drop = sol.basis.width, 1
    keep = [j for j in range(sol.basis.m) if j != drop]
    v = np.hstack([sol.basis.data[:, j * w:(j + 1) * w] for j in keep])
    kernels = [y[np.ix_(keep, keep)] for y in sol.kernel.samples]
    with pytest.raises(checks.CheckFailed, match="BDF residual"):
        _egadl_check(problem, grid, v, w, kernels)


def test_egadl_check_fails_on_nonorthonormal_basis(egadl_run):
    problem, grid, sol = egadl_run
    v = sol.basis.data.copy()
    v[:, :sol.basis.width] *= 1.0 + 1e-8
    with pytest.raises(checks.CheckFailed, match="F-orthonormal"):
        _egadl_check(problem, grid, v, sol.basis.width, sol.kernel.samples)


# ---------------------------------------------------------------------------
# expo: factors against the closed form

@pytest.fixture(scope="module")
def expo_run():
    problem = probio.gen_dle_problem(n0=10, p=2, seed=4)
    grid = TimeGrid(0.0, 1.0, 20)
    solution, report = expo_dle_solve(problem, grid, 30, TOL, variant="extended")
    assert report.converged
    apriori = {int(round(r[1] / grid.h)): r[3] for r in report.rows if r[0] == report.m_final}
    return problem, grid, solution, apriori


def test_dle_closed_form_matches_oracle(expo_run, monkeypatch):
    monkeypatch.setattr(checks, "CHUNK_ROWS", 7)         # several row blocks
    problem, grid, _, _ = expo_run
    exact = oracle.dense_dle_exact(problem, grid)
    basis = checks.SineBasis(10)
    probes = checks.probe_vectors(problem.b, 2, np.random.default_rng(1))
    for k in (1, 10, 20):
        got = checks.dle_closed_form_apply(basis, problem.b, grid.nodes[k], probes)
        np.testing.assert_allclose(got, exact[k] @ probes, rtol=0,
                                   atol=1e-13 * np.linalg.norm(exact[k]))


def _expo_check(problem, grid, sol, apriori, k, z, signs):
    probes = checks.probe_vectors(problem.b, 2, np.random.default_rng(0))
    return checks.check_expo(checks.SineBasis(10), problem.b, grid.nodes[k], z, signs,
                             apriori[k], 1e-12, probes)


def test_expo_check_passes(expo_run):
    problem, grid, sol, apriori = expo_run
    checks.require_laplacian(checks.SineBasis(10), problem.a)
    for k in (5, 10, 20):
        z, signs = sol.factor(k)
        out = _expo_check(problem, grid, sol, apriori, k, z, signs)
        assert out["error"] <= out["bound"]


def test_expo_check_fails_on_scaled_factor_column(expo_run):
    problem, grid, sol, apriori = expo_run
    z, signs = sol.factor(10)
    z = z.copy()
    z[:, 0] *= 1.001
    with pytest.raises(checks.CheckFailed, match="misses the closed form"):
        _expo_check(problem, grid, sol, apriori, 10, z, signs)


def test_closed_form_refuses_another_operator(expo_run):
    problem = expo_run[0]
    with pytest.raises(checks.CheckFailed, match="Laplacian"):
        checks.require_laplacian(checks.SineBasis(10), 2.0 * problem.a)


# ---------------------------------------------------------------------------
# Galerkin: snapshots against the closed form

@pytest.fixture(scope="module")
def galerkin_run():
    a = probio.gen_laplacian2d(10)
    b2 = probio.gen_random_stable(4, density=1.0, seed=5)
    c = probio.random_full_rank(100, 4, seed=6)
    problem = probio.GenSylvesterProblem((a, sp.identity(100, format="csr")),
                                         (sp.identity(4, format="csr"), b2), c, tf=0.05)
    grid = TimeGrid(0.0, 0.05, 20)
    solution, report = galerkin_solve(problem, grid, 200, TOL)
    assert report.converged
    residuals = np.array([r[2] for r in report.rows if r[0] == report.m_final])
    return problem, grid, solution, residuals


def _galerkin_check(problem, grid, snaps, residuals):
    basis = checks.SineBasis(10)
    b2 = problem.b_list[1].toarray()
    mu = float(basis.lam.max()) + checks.lognorm2(b2)
    return checks.check_galerkin(basis, b2, problem.c, grid.nodes, snaps, residuals, mu)


def test_sylvester_closed_form_matches_oracle(galerkin_run):
    problem, grid, _, _ = galerkin_run
    exact = oracle.dense_dme_solve(problem, grid)
    got = checks.sylvester_closed_form(checks.SineBasis(10), problem.b_list[1].toarray(),
                                       problem.c, grid.nodes)
    for k in range(grid.nnodes):
        np.testing.assert_allclose(got[k], exact[k], rtol=0, atol=1e-13)


def test_galerkin_check_passes(galerkin_run):
    problem, grid, sol, residuals = galerkin_run
    snaps = [sol.snapshot(k) for k in range(grid.nnodes)]
    assert _galerkin_check(problem, grid, snaps, residuals)["error_to_bound_max"] <= 1.0


def test_galerkin_check_fails_on_perturbed_kernel(galerkin_run):
    problem, grid, sol, residuals = galerkin_run
    sol.kernel.samples[7, 0] += 1e-6
    try:
        snaps = [sol.snapshot(k) for k in range(grid.nnodes)]
    finally:
        sol.kernel.samples[7, 0] -= 1e-6
    with pytest.raises(checks.CheckFailed, match="misses the closed form"):
        _galerkin_check(problem, grid, snaps, residuals)


def test_report_check():
    rows = [{"m": 1.0, "residual_bound": 1.0}, {"m": 2.0, "residual_bound": 1e-9}]
    assert checks.check_report(rows, True, TOL)["report_bound_max"] == 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_report(rows, False, TOL)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(rows + [{"m": 2.0, "residual_bound": 2e-8}], True, TOL)


# ---------------------------------------------------------------------------
# Tracing leaves the output alone and repeats its counts

TRACED_RUN = """
import json, sys
sys.path.insert(0, {bench!r})
import krymat.cli as cli
import spans
tracer = None
if {traced}:
    tracer = spans.Tracer()
    assert not tracer.install()
code = cli.main(["run", "--config", {cfg!r}, "--out", {out!r}])
print(json.dumps({{"code": code, "metrics": tracer.metrics() if tracer else {{}}}}))
"""

SMALL_EGADL = """[run]
method = egadl
[problem]
kind = laplacian2d
n0 = 8
p = 2
seed = 1
[grid]
steps = 20
[solver]
m_max = 30
tol = 1e-8
l = 2
"""


def _run_snippet(tmp_path, traced, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_EGADL)
    out = tmp_path / name
    code = TRACED_RUN.format(bench=str(ROOT / "bench"), traced=traced, cfg=str(cfg),
                             out=str(out))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return (out / "report.csv").read_bytes(), result["metrics"]


def test_tracing_keeps_report_and_repeats_counts(tmp_path):
    plain, _ = _run_snippet(tmp_path, False, "plain")
    traced, first = _run_snippet(tmp_path, True, "traced")
    _, second = _run_snippet(tmp_path, True, "again")
    assert traced == plain
    counts = [name for name, (_, stat, _) in spans.METRICS.items() if stat == "calls"]
    assert all(first[name] == second[name] for name in counts)
    # bindings made by `from ... import` are traced too
    assert first["blockmat.global_qr_calls"] > first["egarnoldi.steps"]   # one per step
    assert first["blockmat.diamond_calls"] > 0        # dlebdf's copy
    assert first["egarnoldi.steps"] > 0 and first["smallmat.lyap_solves"] > 0
    assert first["garnoldi.steps"] == 0
    assert 0 < first["egarnoldi.step_self_s"] < first["egarnoldi.step_s"]
