"""Low-rank differential Lyapunov solver: extended global Arnoldi projection
with BDF time stepping (EgAdl).

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
from .blockmat import BlockRow, diamond
from .egarnoldi import ExtendedGlobalArnoldi
from .errors import IllPosedError, StepFailureError
from .probio import LinearSolver
from .solution import KernelTrajectorySym, LowRankSolution, SolveReport

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
        raise ValueError(f"BDF with {l} steps is unsupported (need 1 <= l <= 3)")
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


def bdf_derivatives(samples, h, l):
    """BDF divided differences (Y_{k+1} - sum alpha_i Y_{k-i}) / (h beta).

    For kernels produced by ``bdf_integrate`` these equal the projected
    right-hand side at each step exactly, which is what the dense residual
    checks need for a discretization-consistent time derivative.  Returns one
    derivative per step (nodes 1..N).
    """
    out = []
    prev = [samples[0]]
    for k in range(len(samples) - 1):
        scheme = bdf_coefficients(min(l, len(prev)))
        d = samples[k + 1].copy()
        for a_i, y_i in zip(scheme.alpha, prev):
            d = d - a_i * y_i
        out.append(d / (h * scheme.beta))
        prev = [samples[k + 1]] + prev[: l - 1]
    return out


def residual_bound_bdf(t_sub, y):
    """Residual bound sqrt(2) ||T_{m+1,m} E_m^T Y||_F from the coupling block
    and the last two rows of the kernel."""
    t_sub = np.atleast_2d(np.asarray(t_sub, dtype=float))
    y = np.asarray(y, dtype=float)
    nr = t_sub.shape[1]
    return float(np.sqrt(2.0) * np.linalg.norm(t_sub @ y[-nr:, :]))


def _project_block(sub_basis, mat, width):
    """V^T diamond M with M zero padded on the right to the sub-block width."""
    return diamond(sub_basis, BlockRow(_pad_to(mat, width), width)).ravel()


def egadl_solve(problem, grid, m_max, tol, l=2, probe_stride=1, factor_tol=1e-10):
    """Extended global Arnoldi for differential Lyapunov equations.

    Grows the extended Krylov basis one block at a time, integrates the
    projected equation with l-step BDF, and stops once the residual bound is
    below tol at every probed node.  A nonzero X0 = Z0 Z0^T joins the Arnoldi
    seed as [B, Z0] and enters the projected equation through its projected
    initial kernel.

    Returns (LowRankSolution, SolveReport).
    """
    t_start = time.perf_counter()
    b = problem.b
    z0 = problem.z0
    report = SolveReport(
        method="egadl",
        columns=("m", "t", "residual_bound", "rank"),
        dims={"n": problem.n, "p": problem.p},
        settings={"m_max": m_max, "tol": tol, "l": l, "grid_steps": grid.steps,
                  "probe_stride": probe_stride, "factor_tol": factor_tol},
    )
    trivial = np.linalg.norm(b) == 0.0 and (z0 is None or np.linalg.norm(z0) == 0.0)
    if trivial:
        kernel = KernelTrajectorySym(grid, [np.zeros((1, 1))] * grid.nnodes)
        basis = BlockRow(np.zeros((problem.n, 1)), 1)
        report.converged = True
        report.wall_time = time.perf_counter() - t_start
        factors = [smallmat.trunc_sym_factor(s, factor_tol) for s in kernel.samples]
        return LowRankSolution(grid, basis, kernel, factors), report

    if m_max < 1:
        raise ValueError("egadl_solve needs m_max >= 1")
    seed = b if z0 is None else np.hstack([b, z0])
    width = seed.shape[1]
    solver = LinearSolver(problem.a)
    proc = ExtendedGlobalArnoldi(problem.a, solver, seed)

    kernel = None
    sub_basis = None
    converged = False
    m = 0
    while True:
        m = proc.advance_to(m + 1)
        if proc.breakdown:
            # the retained sub-blocks span an A-invariant subspace: project
            # directly onto all of them and the residual bound vanishes
            sub_basis = proc.sub_basis()
            tm = _projected_operator(problem.a, sub_basis)
            t_sub = np.zeros((2, sub_basis.m))
        else:
            sub_basis = proc.sub_basis(2 * m)
            hess = proc.hessenberg(m)
            tm, t_sub = hess.tm, hess.t_sub
        bm = _project_block(sub_basis, b, width)
        if z0 is None:
            y0 = None
        else:
            c0 = diamond(sub_basis, BlockRow(_pad_to(z0, width), width))
            y0 = c0 @ c0.T
        kernel = bdf_integrate(tm, bm, y0, grid, l)
        bounds = np.array([residual_bound_bdf(t_sub, y) for y in kernel.samples])
        for k in range(0, grid.nnodes, probe_stride):
            report.add(m, grid.nodes[k], bounds[k],
                       _sym_rank(kernel.samples[k], factor_tol))
        if bounds[::probe_stride].max() < tol:
            converged = True
            break
        if proc.breakdown or m >= m_max:
            break

    report.converged = converged
    report.m_final = m
    report.breakdown = proc.breakdown
    report.dims["basis_blocks"] = sub_basis.m
    report.dims["basis_cols"] = sub_basis.m * width
    factors = [smallmat.trunc_sym_factor(y, factor_tol) for y in kernel.samples]
    report.wall_time = time.perf_counter() - t_start
    return LowRankSolution(grid, sub_basis, kernel, factors), report


def _pad_to(mat, width):
    mat = np.asarray(mat, dtype=float)
    if mat.shape[1] == width:
        return mat
    padded = np.zeros((mat.shape[0], width))
    padded[:, : mat.shape[1]] = mat
    return padded


def _sym_rank(y, tol):
    lam = np.abs(np.linalg.eigvalsh(y))
    amax = lam.max() if lam.size else 0.0
    return int(np.count_nonzero(lam > tol * amax))


def _projected_operator(a, sub_basis):
    """Direct projection V^T diamond (A V); used only on breakdown prefixes."""
    av = a @ sub_basis.data
    return diamond(sub_basis, BlockRow(av, sub_basis.width))
