"""Global-Galerkin solver for the generalized differential Sylvester equation.

The residual of an initial guess is used to seed a matrix Krylov subspace; the
projected m-dimensional linear ODE is integrated exactly by exponential Euler
steps (the right-hand side is constant in time), and a closed-form residual
norm decides when to stop growing the basis.
"""

import time

import numpy as np

from . import smallmat
from .blockmat import BlockRow, diamond
from .garnoldi import GlobalArnoldi
from .probio import gsylv_apply
from .solution import (KernelTrajectoryVec, SolveReport, SylvesterSolution, grow_until,
                       require_positive)


def project_rhs(basis, r0):
    """Projected forcing c_m = -V^T diamond R0, a vector of length m."""
    r0_row = BlockRow(np.asarray(r0, dtype=float), basis.width)
    return -diamond(basis, r0_row).ravel()


def integrate_projected(hm, cm, y0, grid):
    """March dy/dt = H y + c on the grid by exponential Euler steps.

    For constant c each step y_{k+1} = e^{hH} y_k + h psi_1(hH) c reproduces
    the exact solution at the nodes up to roundoff.
    """
    hm = np.atleast_2d(np.asarray(hm, dtype=float))
    cm = np.asarray(cm, dtype=float).ravel()
    y = np.zeros(hm.shape[0]) if y0 is None else np.asarray(y0, dtype=float).ravel()
    h = grid.h
    e_h = smallmat.expm(h * hm)
    p_h = h * smallmat.phi1(h * hm)
    forcing = p_h @ cm
    samples = np.empty((grid.nnodes, hm.shape[0]))
    samples[0] = y
    for k in range(grid.steps):
        y = e_h @ y + forcing
        samples[k + 1] = y
    return KernelTrajectoryVec(grid, samples)


def residual_norm(hess, y):
    """Frobenius norm of the Galerkin residual at one time.

    When y solves the projected ODE the residual collapses to
    -h_{m+1,m} y^{(m)}(t) V_{m+1}, so its norm is |h_{m+1,m} y^{(m)}(t)|.
    """
    y = np.asarray(y, dtype=float).ravel()
    return abs(hess.h_sub) * abs(float(y[-1]))


def galerkin_solve(problem, grid, m_max, eps, report_stride=1):
    """Algorithm: grow the Krylov basis until the residual maximum over the
    grid nodes falls below eps, then reconstruct the trajectory.  The report
    holds every ``report_stride``-th node.

    Returns (SylvesterSolution, SolveReport).  Non-convergence at m_max is a
    report status, not an exception.
    """
    require_positive(m_max=m_max, report_stride=report_stride)
    t_start = time.perf_counter()
    x0 = problem.initial_value()
    # constant initial guess: residual R0 = -A(X0) - C is time independent
    r0 = -gsylv_apply(problem, x0) - problem.c
    beta = float(np.linalg.norm(r0))
    report = SolveReport(
        method="galerkin",
        columns=("m", "t", "residual_bound"),
        dims={"n": problem.n, "p": problem.p, "q": problem.q},
        settings={"m_max": m_max, "eps": eps, "grid_steps": grid.steps,
                  "report_stride": report_stride},
    )
    shape = (problem.n, problem.p)
    if beta == 0.0:
        # X(t) = X0 already solves the equation
        kernel = KernelTrajectoryVec(grid, np.zeros((grid.nnodes, 1)))
        report.converged = True
        report.wall_time = time.perf_counter() - t_start
        return SylvesterSolution(grid, None, kernel, shape, x0=problem.x0), report

    proc = GlobalArnoldi(lambda x: gsylv_apply(problem, x), r0)

    def fit(m):
        hess = proc.hessenberg(m)
        basis = proc.basis(m)
        kernel = integrate_projected(hess.hm, project_rhs(basis, r0), None, grid)
        bounds = abs(hess.h_sub) * np.abs(kernel.samples[:, -1])
        return bounds, lambda k: (), basis, kernel

    basis, kernel = grow_until(proc, fit, grid, report, m_max, eps, report_stride)
    report.wall_time = time.perf_counter() - t_start
    return SylvesterSolution(grid, basis, kernel, shape, x0=problem.x0), report
