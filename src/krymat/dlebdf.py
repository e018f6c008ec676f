"""Low-rank differential Lyapunov solvers: the report and checks that EgAdl
and the exponential method share, and EgAdl's BDF time stepping.

Each implicit BDF step of the projected equation is an algebraic Lyapunov
equation with shifted coefficient h beta T - I/2.  From one reduction of T
per basis size the march runs in that reduction's own coordinates: with
T = X diag(lambda) X^{-1} (eigenvector matrix well conditioned) the kernel
is Y = X G X^T and each step one elementwise division of G's right-hand
side; with the real Schur form T = U S U^T it is Y = U G U^T and each step
one quasi-triangular solve with S.  The right-hand side of a step mixes the
previous kernels with weights that may be negative, so it is assembled as a
dense symmetric matrix.  The residual bound reads only the kernels' last
rows; the kernels themselves, their ranks and the low-rank factors with a
+/-1 signature are formed only when read.
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .egarnoldi import ExtendedGlobalArnoldi
from .errors import ConfigError, IllPosedError, StepFailureError
from .probio import LinearSolver
from .solution import CoordinateTrajectory, LowRankSolution, SolveReport, krylov_solve

_BDF_TABLE = {
    1: (1.0, (1.0,)),
    2: (2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
    3: (6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
}


@dataclass(frozen=True)
class BDFScheme:
    """Coefficients of the l-step BDF method, l <= 3."""

    l: int
    beta: float
    alpha: tuple


def bdf_coefficients(l):
    if l not in _BDF_TABLE:
        raise ConfigError(f"l = {l}: BDF with {l} steps is unsupported (need 1 <= l <= 3)")
    beta, alpha = _BDF_TABLE[l]
    return BDFScheme(l, beta, alpha)


def _lyap_step(op, q):
    try:
        return smallmat.lyap_solve(op, q)
    except IllPosedError as exc:
        raise StepFailureError(
            f"implicit BDF step is ill posed ({exc}); reduce the step size") from exc


def bdf_integrate(form, bm, y0, grid, l):
    """March the projected Lyapunov ODE over the grid with l-step BDF.

    Startup uses the 1-step then 2-step schemes until l previous kernels are
    available.  ``form`` is the ``smallmat.small_form`` Reduction
    T = X F X^{-1}, and the march runs in its coordinates:
    G_0 = X^{-1} Y_0 X^{-T}, the forcing h beta qq^T with q = X^{-1} b
    formed once per scheme, and one ``smallmat.lyap_solve`` per step,
    (h beta F - I/2) G + G (h beta F - I/2)^T + Q = 0 with
    Q = h beta qq^T + sum_i alpha_i G_{n-i}, the step operator a shift of F.
    Returns a CoordinateTrajectory.
    """
    bdf_coefficients(l)            # validate l early
    x, xinv = form.x, form.xinv
    k = x.shape[0]
    y0 = smallmat.symmetrize(np.zeros((k, k)) if y0 is None else np.asarray(y0, dtype=float))
    q = xinv @ np.asarray(bm, dtype=float).ravel()
    schemes = [bdf_coefficients(j) for j in range(1, l + 1)]
    ops = [form.own.shifted(grid.h * s.beta, -0.5) for s in schemes]
    forcings = [grid.h * s.beta * np.outer(q, q) for s in schemes]
    g = np.empty((grid.nnodes, k, k), dtype=q.dtype)
    g0 = xinv @ y0 @ xinv.T
    g[0] = 0.5 * (g0 + g0.T)
    for n in range(grid.steps):
        j = min(l, n + 1) - 1
        rhs = forcings[j]
        for i, a_i in enumerate(schemes[j].alpha):
            rhs = rhs + a_i * g[n - i]
        g[n + 1] = _lyap_step(ops[j], rhs)
    return CoordinateTrajectory(grid, x, g)


def residual_bound_bdf(coupling, y):
    """Residual bound sqrt(2) ||T_{m+1,m} E_m^T Y||_F from the coupling block
    T_{m+1,m} and the kernel's rows it multiplies (the last two).  For a
    stack of kernels, or of their last rows, one bound per kernel."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    y = np.asarray(y, dtype=float)
    nr = coupling.shape[1]
    if y.ndim == 3:
        return np.sqrt(2.0) * np.linalg.norm(coupling @ y[:, -nr:, :], axis=(1, 2))
    return float(np.sqrt(2.0) * np.linalg.norm(coupling @ y[-nr:, :]))


def reduce_projected(report, tm):
    """``smallmat.small_form`` of the projected T_m, with its branch and
    kappa_2(X) written to the report's trust lines, where the last basis
    size's stay."""
    form, cond = smallmat.small_form(tm)
    report.trust["small_form"] = ("eigen" if isinstance(form.own, smallmat.DiagonalForm)
                                  else "schur")
    report.trust["eig_cond"] = cond
    return form


def lowrank_report(problem, method, column, factor_tol, settings, bound_norm):
    """The report of a low-rank DLE solve, after the checks both methods
    share: X0 = 0 and 0 <= factor_tol < 1.  ``column`` names the report's
    last column, ``settings`` holds the method's own settings and
    ``bound_norm`` names the norm of the residual that its bound limits
    (trust.bound_norm)."""
    if problem.has_initial_value:
        raise ConfigError(f"{method} assumes X0 = 0")
    if not 0 <= factor_tol < 1:
        raise ConfigError(f"factor_tol = {factor_tol}: need 0 <= factor_tol < 1")
    return SolveReport(method=method, columns=("m", "t", "residual_bound", column),
                       dims={"n": problem.n, "p": problem.p},
                       settings={"factor_tol": factor_tol, **settings},
                       trust={"bound_norm": bound_norm})


def egadl_solve(problem, grid, m_max, tol, l=2, factor_tol=1e-10):
    """Extended global Arnoldi for differential Lyapunov equations with X0 = 0.

    Grows the extended Krylov basis one block at a time, integrates the
    projected equation with l-step BDF, and stops once the residual bound is
    below tol at every node.

    Returns (LowRankSolution, SolveReport).
    """
    bdf_coefficients(l)            # checks l before any work
    report = lowrank_report(problem, "egadl", "rank", factor_tol, {"l": l}, "frobenius")

    def start(report):
        if not problem.b.any():
            return None
        proc = ExtendedGlobalArnoldi(problem.a, LinearSolver(problem.a), problem.b,
                                     m_max)

        def fit(tm, coupling):
            # B = V_1 beta, and V is F-orthonormal
            bm = np.r_[proc.beta, np.zeros(tm.shape[0] - 1)]
            kernel = bdf_integrate(reduce_projected(report, tm), bm, None, grid, l)
            bounds = residual_bound_bdf(coupling, kernel.last_rows(coupling.shape[1]))
            return bounds, lambda: (kernel.ranks(factor_tol),), kernel

        return proc, fit

    basis, kernel = krylov_solve(report, grid, m_max, tol, start)
    return LowRankSolution.from_kernel(grid, problem.n, basis, kernel, factor_tol), report
