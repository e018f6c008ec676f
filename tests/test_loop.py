"""The grow-fit-stop loop that the three solvers share: report stride and
breakdown, seen through each solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from krymat import dlebdf, dleexp, dsylv
from krymat.dlebdf import egadl_solve
from krymat.dleexp import expo_dle_solve
from krymat.dsylv import galerkin_solve
from krymat.errors import ConfigError
from krymat.oracle import dense_dle_exact, dense_dme_solve
from krymat.probio import DLEProblem, GenSylvesterProblem, gen_dle_problem, gen_sylvester_q2
from krymat.solution import TimeGrid


def _egadl(stride):
    prob = gen_dle_problem(n0=6, p=2, seed=1)
    return egadl_solve(prob, TimeGrid(0.0, 1.0, 20), 20, 1e-8, l=2, probe_stride=stride)


def _expo(stride):
    prob = gen_dle_problem(n0=6, p=2, seed=1)
    return expo_dle_solve(prob, TimeGrid(0.0, 1.0, 20), 20, 1e-8, probe_stride=stride)


def _galerkin(stride):
    prob = gen_sylvester_q2(40, 2, seed=3)
    return galerkin_solve(prob, TimeGrid(0.0, 1.0, 20), 60, 1e-8, report_stride=stride)


@pytest.mark.parametrize("solve", [_egadl, _expo, _galerkin],
                         ids=["egadl", "expo", "galerkin"])
def test_stride_thins_the_report_only(solve):
    _, full = solve(1)
    _, thin = solve(3)
    assert full.converged and thin.converged
    assert thin.m_final == full.m_final
    assert thin.breakdown == full.breakdown
    nodes = TimeGrid(0.0, 1.0, 20).nodes
    # rows come per basis size, one per node in node order
    probed = [row for i, row in enumerate(full.rows) if i % len(nodes) % 3 == 0]
    assert thin.rows == probed
    assert len(thin.rows) == full.m_final * len(range(0, len(nodes), 3))


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


def _no_work(*args, **kwargs):
    raise AssertionError("the solver started work on a bad argument")


BAD_ARGUMENTS = [
    ("egadl", {"m_max": 0}, "m_max"),
    ("egadl", {"probe_stride": 0}, "probe_stride"),
    ("egadl", {"l": 7}, "l = 7"),
    ("egadl", {"z0": True}, "X0"),
    ("expo", {"m_max": 0}, "m_max"),
    ("expo", {"probe_stride": 0}, "probe_stride"),
    ("expo", {"variant": "bogus"}, "variant"),
    ("expo", {"z0": True}, "X0"),
    ("galerkin", {"m_max": 0}, "m_max"),
    ("galerkin", {"report_stride": 0}, "report_stride"),
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
    if method == "galerkin":
        prob, solve = gen_sylvester_q2(20, 2, seed=3), galerkin_solve
    else:
        prob = gen_dle_problem(n0=5, p=2, seed=1)
        if kwargs.pop("z0", False):
            prob = DLEProblem(prob.a, prob.b, z0=np.ones((25, 1)))
        solve = egadl_solve if method == "egadl" else expo_dle_solve
    with pytest.raises(ConfigError, match=key):
        solve(prob, TimeGrid(0.0, 1.0, 10), m_max, 1e-8, **kwargs)
