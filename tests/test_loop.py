"""The grow-fit-stop loop that the three solvers share: report stride and
breakdown, seen through each solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from krymat.dlebdf import egadl_solve
from krymat.dleexp import expo_dle_solve
from krymat.dsylv import galerkin_solve
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
