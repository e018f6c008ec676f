"""Low-rank differential Lyapunov solvers: the Krylov solve that EgAdl and
the exponential method share, and EgAdl's BDF time stepping.

Each implicit BDF step of the projected equation is an algebraic Lyapunov
equation with shifted coefficient h beta T - I/2, solved by Bartels-Stewart
from one real Schur form of T per basis size.
The right-hand side of that step mixes the previous kernels with weights that
may be negative, so it is assembled as a dense symmetric matrix; low-rank
factors with a +/-1 signature are produced only for output.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .egarnoldi import ExtendedGlobalArnoldi
from .errors import ConfigError, IllPosedError, StepFailureError
from .probio import LinearSolver
from .solution import (KernelTrajectorySym, LowRankSolution, SolveReport, grow_until,
                       require_positive)

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


def bdf_step(tm, bm, prev, h, scheme):
    """One implicit BDF step of dY/dt = T Y + Y T^T + b b^T.

    ``prev`` lists the most recent kernels, newest first.  The step solves
    (h beta T - I/2) Y + Y (h beta T - I/2)^T + Q = 0 with
    Q = h beta b b^T + sum_i alpha_i prev[i].  ``tm`` is T as a matrix, or the
    RealSchur form of the step operator h beta T - I/2 for this h and scheme,
    which the step reuses without a new reduction.
    """
    if isinstance(tm, smallmat.RealSchur):
        t_cal = tm
    else:
        tm = np.atleast_2d(np.asarray(tm, dtype=float))
        t_cal = h * scheme.beta * tm - 0.5 * np.eye(tm.shape[0])
    bm = np.asarray(bm, dtype=float).ravel()
    if len(prev) < scheme.l:
        raise StepFailureError(
            f"BDF{scheme.l} needs {scheme.l} previous kernels, got {len(prev)}")
    q = h * scheme.beta * np.outer(bm, bm)
    for a_i, y_i in zip(scheme.alpha, prev):
        q = q + a_i * y_i
    try:
        y = smallmat.lyap_solve(t_cal, q)
    except IllPosedError as exc:
        raise StepFailureError(
            f"implicit BDF step is ill posed ({exc}); reduce the step size") from exc
    return y


def bdf_integrate(tm, bm, y0, grid, l):
    """March the projected Lyapunov ODE over the grid with l-step BDF.

    Startup uses the 1-step then 2-step schemes until l previous kernels are
    available.  T is reduced to real Schur form once; each scheme's step
    operator h beta T - I/2 is a shift of that form.  Returns a
    KernelTrajectorySym.
    """
    bdf_coefficients(l)            # validate l early
    tm = np.atleast_2d(np.asarray(tm, dtype=float))
    k = tm.shape[0]
    y = smallmat.symmetrize(np.zeros((k, k)) if y0 is None else np.asarray(y0, dtype=float))
    schemes = [bdf_coefficients(j) for j in range(1, l + 1)]
    schur = smallmat.real_schur(tm)
    ops = [schur.shifted(grid.h * s.beta, -0.5) for s in schemes]
    samples = [y]
    prev = [y]
    for _ in range(grid.steps):
        j = min(l, len(prev)) - 1
        y = bdf_step(ops[j], bm, prev, grid.h, schemes[j])
        samples.append(y)
        prev = [y] + prev[: l - 1]
    return KernelTrajectorySym(grid, samples)


def residual_bound_bdf(t_sub, y):
    """Residual bound sqrt(2) ||T_{m+1,m} E_m^T Y||_F from the coupling block
    and the last two rows of the kernel."""
    t_sub = np.atleast_2d(np.asarray(t_sub, dtype=float))
    y = np.asarray(y, dtype=float)
    nr = t_sub.shape[1]
    return float(np.sqrt(2.0) * np.linalg.norm(t_sub @ y[-nr:, :]))


def lowrank_dle_solve(problem, grid, m_max, tol, probe_stride, factor_tol,
                      method, column, settings, start):
    """The solve both low-rank DLE methods share: the Galerkin projection onto
    an extended (or polynomial) global Krylov space, grown until the bound is
    below tol at every node.  The methods differ only in the process and in
    how the projected equation is integrated.

    Every argument is checked before any work.  ``method`` and ``column``
    name the report and its last column, ``settings`` holds the method's own
    settings, and ``start(report)`` builds (process, fit) once B is known to
    be nonzero.  Returns (LowRankSolution, SolveReport).
    """
    if problem.has_initial_value:
        raise ConfigError(f"{method} assumes X0 = 0")
    require_positive(m_max=m_max, probe_stride=probe_stride)
    t_start = time.perf_counter()
    report = SolveReport(
        method=method,
        columns=("m", "t", "residual_bound", column),
        dims={"n": problem.n, "p": problem.p},
        settings={"m_max": m_max, "tol": tol, "grid_steps": grid.steps,
                  "probe_stride": probe_stride, "factor_tol": factor_tol, **settings},
    )
    if np.linalg.norm(problem.b) == 0.0:
        report.converged = True
        solution = LowRankSolution.zero(grid, problem.n, factor_tol)
    else:
        proc, fit = start(report)
        basis, kernel = grow_until(proc, fit, grid, report, m_max, tol, probe_stride)
        solution = LowRankSolution.from_kernel(grid, basis, kernel, factor_tol)
    report.wall_time = time.perf_counter() - t_start
    return solution, report


def egadl_solve(problem, grid, m_max, tol, l=2, probe_stride=1, factor_tol=1e-10):
    """Extended global Arnoldi for differential Lyapunov equations with X0 = 0.

    Grows the extended Krylov basis one block at a time, integrates the
    projected equation with l-step BDF, and stops once the residual bound is
    below tol at every node; ``probe_stride`` thins the report (and its rank
    column) only.

    Returns (LowRankSolution, SolveReport).
    """
    bdf_coefficients(l)            # checks l before any work

    def start(report):
        proc = ExtendedGlobalArnoldi(problem.a, LinearSolver(problem.a), problem.b)

        def fit(m):
            basis, tm, t_sub = proc.projection(m)
            # B = V_1 r_11, and V is F-orthonormal
            bm = np.zeros(basis.m)
            bm[0] = proc.r_init[0, 0]
            ys = bdf_integrate(tm, bm, None, grid, l).samples
            bounds = np.array([residual_bound_bdf(t_sub, y) for y in ys])
            return bounds, lambda k: (_sym_rank(ys[k], factor_tol),), basis, ys

        return proc, fit

    return lowrank_dle_solve(problem, grid, m_max, tol, probe_stride, factor_tol,
                             "egadl", "rank", {"l": l}, start)


def _sym_rank(y, tol):
    lam = np.abs(np.linalg.eigvalsh(y))
    amax = lam.max() if lam.size else 0.0
    return int(np.count_nonzero(lam > tol * amax))
