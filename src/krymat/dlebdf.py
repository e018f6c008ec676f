"""Low-rank differential Lyapunov solvers: the report and checks that EgAdl
and the exponential method share, and EgAdl's BDF time stepping.

Each implicit BDF step of the projected equation is an algebraic Lyapunov
equation with shifted coefficient h beta T - I/2, solved from one reduction
of T per basis size: an eigendecomposition when its eigenvector matrix is
well conditioned, which makes the step one elementwise division, and the
real Schur form (Bartels-Stewart) otherwise.
The right-hand side of that step mixes the previous kernels with weights that
may be negative, so it is assembled as a dense symmetric matrix; low-rank
factors with a +/-1 signature are produced only for output.
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .egarnoldi import ExtendedGlobalArnoldi
from .errors import ConfigError, IllPosedError, StepFailureError
from .probio import LinearSolver
from .solution import KernelTrajectory, LowRankSolution, SolveReport, krylov_solve

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


def bdf_step(op, bm, prev, h, scheme):
    """One implicit BDF step of dY/dt = T Y + Y T^T + b b^T.

    ``prev`` lists the most recent kernels, newest first.  The step solves
    (h beta T - I/2) Y + Y (h beta T - I/2)^T + Q = 0 with
    Q = h beta b b^T + sum_i alpha_i prev[i].  ``op`` is the
    ``smallmat.small_form`` reduction of the step operator h beta T - I/2
    for this h and scheme, which the step reuses without a new reduction.
    """
    bm = np.asarray(bm, dtype=float).ravel()
    if len(prev) < scheme.l:
        raise StepFailureError(
            f"BDF{scheme.l} needs {scheme.l} previous kernels, got {len(prev)}")
    q = h * scheme.beta * np.outer(bm, bm)
    for a_i, y_i in zip(scheme.alpha, prev):
        q = q + a_i * y_i
    try:
        y = smallmat.lyap_solve(op, q)
    except IllPosedError as exc:
        raise StepFailureError(
            f"implicit BDF step is ill posed ({exc}); reduce the step size") from exc
    return y


def bdf_integrate(form, bm, y0, grid, l):
    """March the projected Lyapunov ODE over the grid with l-step BDF.

    Startup uses the 1-step then 2-step schemes until l previous kernels are
    available.  ``form`` is the ``smallmat.small_form`` reduction of T; each
    scheme's step operator h beta T - I/2 is a shift of it.  Returns a
    KernelTrajectory.
    """
    bdf_coefficients(l)            # validate l early
    k = form.lam.shape[0]
    y = smallmat.symmetrize(np.zeros((k, k)) if y0 is None else np.asarray(y0, dtype=float))
    schemes = [bdf_coefficients(j) for j in range(1, l + 1)]
    ops = [form.shifted(grid.h * s.beta, -0.5) for s in schemes]
    samples = [y]
    prev = [y]
    for _ in range(grid.steps):
        j = min(l, len(prev)) - 1
        y = bdf_step(ops[j], bm, prev, grid.h, schemes[j])
        samples.append(y)
        prev = [y] + prev[: l - 1]
    return KernelTrajectory(grid, samples)


def residual_bound_bdf(coupling, y):
    """Residual bound sqrt(2) ||T_{m+1,m} E_m^T Y||_F from the coupling block
    T_{m+1,m} and the kernel's rows it multiplies (the last two)."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    y = np.asarray(y, dtype=float)
    nr = coupling.shape[1]
    return float(np.sqrt(2.0) * np.linalg.norm(coupling @ y[-nr:, :]))


def reduce_projected(report, tm):
    """``smallmat.small_form`` of the projected T_m, with its branch and
    kappa_2(X) written to the report's trust lines, where the last basis
    size's stay."""
    form, cond = smallmat.small_form(tm)
    report.trust["small_form"] = "eigen" if isinstance(form, smallmat.EigenForm) else "schur"
    report.trust["eig_cond"] = cond
    return form


def lowrank_report(problem, method, column, factor_tol, settings):
    """The report of a low-rank DLE solve, after the checks both methods
    share: X0 = 0 and 0 <= factor_tol < 1.  ``column`` names the report's
    last column and ``settings`` holds the method's own settings."""
    if problem.has_initial_value:
        raise ConfigError(f"{method} assumes X0 = 0")
    if not 0 <= factor_tol < 1:
        raise ConfigError(f"factor_tol = {factor_tol}: need 0 <= factor_tol < 1")
    return SolveReport(method=method, columns=("m", "t", "residual_bound", column),
                       dims={"n": problem.n, "p": problem.p},
                       settings={"factor_tol": factor_tol, **settings})


def egadl_solve(problem, grid, m_max, tol, l=2, factor_tol=1e-10):
    """Extended global Arnoldi for differential Lyapunov equations with X0 = 0.

    Grows the extended Krylov basis one block at a time, integrates the
    projected equation with l-step BDF, and stops once the residual bound is
    below tol at every node.

    Returns (LowRankSolution, SolveReport).
    """
    bdf_coefficients(l)            # checks l before any work
    report = lowrank_report(problem, "egadl", "rank", factor_tol, {"l": l})

    def start(report):
        if not problem.b.any():
            return None
        proc = ExtendedGlobalArnoldi(problem.a, LinearSolver(problem.a), problem.b,
                                     m_max)

        def fit(tm, coupling):
            # B = V_1 beta, and V is F-orthonormal
            bm = np.r_[proc.beta, np.zeros(tm.shape[0] - 1)]
            kernel = bdf_integrate(reduce_projected(report, tm), bm, None, grid, l)
            ys = kernel.samples
            bounds = np.array([residual_bound_bdf(coupling, y) for y in ys])
            return (bounds, [_sym_rank(y, factor_tol) for y in ys]), kernel

        return proc, fit

    basis, kernel = krylov_solve(report, grid, m_max, tol, start)
    return LowRankSolution.from_kernel(grid, problem.n, basis, kernel, factor_tol), report


def _sym_rank(y, tol):
    lam = np.abs(np.linalg.eigvalsh(y))
    amax = lam.max() if lam.size else 0.0
    return int(np.count_nonzero(lam > tol * amax))
