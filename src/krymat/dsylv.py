"""Global-Galerkin solver for the generalized differential Sylvester equation.

The residual of an initial guess is used to seed a matrix Krylov subspace; the
projected m-dimensional linear ODE is integrated exactly by exponential Euler
steps (the right-hand side is constant in time), and a closed-form residual
norm decides when to stop growing the basis.
"""

import numpy as np

from . import smallmat
from .blockmat import BlockRow, diamond
from .garnoldi import GlobalArnoldi
from .probio import gsylv_apply
from .solution import KernelTrajectory, SolveReport, SylvesterSolution, krylov_solve


def project_rhs(basis, r0):
    """Projected forcing c_m = -V^T diamond R0, a vector of length m."""
    r0_row = BlockRow(np.asarray(r0, dtype=float), basis.width)
    return -diamond(basis, r0_row).ravel()


def integrate_projected(hm, cm, y0, grid):
    """March dy/dt = H y + c on the grid by exponential Euler steps.

    For constant c each step y_{k+1} = e^{hH} y_k + h psi_1(hH) c reproduces
    the exact solution at the nodes up to roundoff.  One exponential of
    [[hH, h c], [0, 0]] gives both terms: e^{hH} top left, h psi_1(hH) c in
    the last column (Saad 1992).
    """
    hm = np.atleast_2d(np.asarray(hm, dtype=float))
    cm = np.asarray(cm, dtype=float).ravel()
    m = hm.shape[0]
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).ravel()
    aug = np.zeros((m + 1, m + 1))
    aug[:m, :m], aug[:m, m] = grid.h * hm, grid.h * cm
    e_aug = smallmat.expm(aug)
    e_h, forcing = e_aug[:m, :m], e_aug[:m, m]
    samples = np.empty((grid.nnodes, m))
    samples[0] = y
    for k in range(grid.steps):
        y = e_h @ y + forcing
        samples[k + 1] = y
    return KernelTrajectory(grid, samples)


def residual_norm(coupling, y):
    """Frobenius norm of the Galerkin residual at one node, or one per row of y.

    When y solves the projected ODE the residual collapses to
    -h_{m+1,m} y^{(m)}(t) V_{m+1}, so its norm is |h_{m+1,m} y^{(m)}(t)|;
    ``coupling`` is the process's [[h_{m+1,m}]].
    """
    return abs(float(coupling[0, 0])) * np.abs(np.asarray(y, dtype=float)[..., -1])


def galerkin_solve(problem, grid, m_max, tol):
    """Algorithm: grow the Krylov basis until the residual maximum over the
    grid nodes falls below tol, then reconstruct the trajectory.

    Returns (SylvesterSolution, SolveReport).  Non-convergence at m_max is a
    report status, not an exception.
    """
    report = SolveReport(method="galerkin", columns=("m", "t", "residual_bound"),
                         dims={"n": problem.n, "p": problem.p, "q": problem.q})

    def start(report):
        # constant initial guess: residual R0 = -A(X0) - C is time independent
        r0 = -gsylv_apply(problem, problem.initial_value()) - problem.c
        if not r0.any():
            return None            # X(t) = X0 already solves the equation
        proc = GlobalArnoldi(lambda x: gsylv_apply(problem, x), r0, m_max)

        def fit(hm, coupling):
            # V_1 = R0 / beta and V is F-orthonormal, so c_m = -V^T diamond R0 = -beta e_1
            cm = np.r_[-proc.beta, np.zeros(hm.shape[0] - 1)]
            kernel = integrate_projected(hm, cm, None, grid)
            return residual_norm(coupling, kernel.samples), lambda: (), kernel

        return proc, fit

    basis, kernel = krylov_solve(report, grid, m_max, tol, start)
    shape = (problem.n, problem.p)
    return SylvesterSolution(grid, basis, kernel, shape, x0=problem.x0), report
