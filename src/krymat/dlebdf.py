"""Low-rank differential Lyapunov solvers: ``lowrank_solve``, the solve,
process and bound that EgAdl and the exponential method share, and EgAdl's
BDF time stepping.

Each implicit BDF step of the projected equation is an algebraic Lyapunov
equation with shifted coefficient h beta T - I/2.  From one orthogonal
reduction of T per basis size the march runs in that reduction's own
coordinates: for a symmetric A, T = X diag(lambda) X^T and each step is one
elementwise division of G's right-hand side; for every other A, the real
Schur form T = U S U^T and each step is one quasi-triangular solve with S.
Either way the kernel is Y = X G X^T, X = U for the Schur form.  The
right-hand side of a step mixes the previous kernels with weights that may
be negative, so it is assembled as a dense symmetric matrix.  Both methods'
residual bounds read only the kernels' last rows, every node at once, and
EgAdl's ranks are the eigenvalue counts of the G_k, which X orthogonal
leaves unchanged; the kernels themselves and the low-rank factors with a
+/-1 signature are formed only when read.
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .blockmat import BlockRow
from .egarnoldi import ExtendedGlobalArnoldi
from .errors import ConfigError, IllPosedError, StepFailureError
from .garnoldi import GlobalArnoldi
from .probio import LinearSolver, exactly_symmetric
from .solution import CoordinateTrajectory, LowRankSolution, SolveReport, is_count, krylov_solve

@dataclass(frozen=True)
class BDFScheme:
    """Coefficients of the l-step BDF method, l <= 3."""

    l: int
    beta: float
    alpha: tuple


BDF_SCHEMES = (
    BDFScheme(1, 1.0, (1.0,)),
    BDFScheme(2, 2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
    BDFScheme(3, 6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
)


def bdf_coefficients(l):
    if not is_count(l) or not 1 <= l <= len(BDF_SCHEMES):
        raise ConfigError(f"l = {l}: BDF with {l} steps is unsupported (need an integer 1-3)")
    return BDF_SCHEMES[l - 1]


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
    T = X F X^T, X orthogonal, and the march runs in its coordinates:
    G_0 = X^T Y_0 X, the forcing h beta qq^T with q = X^T b formed once per
    scheme, and one ``smallmat.lyap_solve`` per step,
    (h beta F - I/2) G + G (h beta F - I/2)^T + Q = 0 with
    Q = h beta qq^T + sum_i alpha_i G_{n-i}, the step operator a shift of F.
    Raises StepFailureError when h beta F or the forcing overflows.
    Returns a CoordinateTrajectory.
    """
    bdf_coefficients(l)            # validate l early
    x = form.x
    k = x.shape[0]
    y0 = smallmat.symmetrize(np.zeros((k, k)) if y0 is None else np.asarray(y0, dtype=float))
    q = x.T @ np.asarray(bm, dtype=float).ravel()
    schemes = BDF_SCHEMES[:l]
    try:
        with np.errstate(over="raise"):
            ops = [form.own.shifted(grid.h * s.beta, -0.5) for s in schemes]
            forcings = [grid.h * s.beta * np.outer(q, q) for s in schemes]
    except FloatingPointError:
        raise StepFailureError(f"implicit BDF step of {grid.h:.3g} overflows; "
                               "reduce the step size") from None
    g = np.empty((grid.nnodes, k, k))
    g0 = x.T @ y0 @ x
    g[0] = 0.5 * (g0 + g0.T)
    for n in range(grid.steps):
        j = min(l, n + 1) - 1
        rhs = forcings[j]
        for i, a_i in enumerate(schemes[j].alpha):
            rhs = rhs + a_i * g[n - i]
        g[n + 1] = _lyap_step(ops[j], rhs)
    return CoordinateTrajectory(x, g)


def residual_bound_bdf(coupling, rows):
    """Residual bound sqrt(2) ||T_{m+1,m} E_m^T Y||_F from the coupling block
    T_{m+1,m} and the kernel's rows it multiplies (the last two): of one
    kernel, or of a stack of them, one bound per kernel."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    rows = np.asarray(rows, dtype=float)[..., -coupling.shape[1]:, :]
    return np.sqrt(2.0) * np.linalg.norm(coupling @ rows, axis=(-2, -1))


def residual_bound_exp(coupling, rows):
    """|h_{m+1,m}| times the Euclidean norm of the last row of G, from the
    polynomial process's coupling block [[h_{m+1,m}]]: of one G, or of a
    stack of them (or of their last rows), one bound per G.  It is the
    residual's spectral norm for p = 1 (the Frobenius norm is sqrt(2) times
    it); at p = 2, 3 (30 random stable A, n = 30) the spectral norm measured
    0.41-0.89 and the Frobenius norm 0.72-1.21 times it."""
    rows = np.asarray(rows, dtype=float)[..., -1, :]
    return abs(float(coupling[0, 0])) * np.linalg.norm(rows, axis=-1)


def lowrank_solve(problem, grid, m_max, tol, factor_tol, setup, method, column, settings,
                  extended):
    """The low-rank DLE solve X_m(t) = V (Y(t) kron I_p) V^T with X0 = 0 of
    EgAdl and the exponential method; checks X0 = 0 and 0 <= factor_tol < 1
    before any work.  The report is ``method``'s, its last column named
    ``column``, with ``settings``.  ``extended`` picks ExtendedGlobalArnoldi
    on the LU of A with ``residual_bound_bdf`` (trust.bound_norm =
    frobenius), or else GlobalArnoldi with ``residual_bound_exp`` (spectral
    for p = 1, unproven for p > 1).  For B != 0 the solve factors A
    (extended only) and tests once whether A is exactly symmetric, when the
    symmetric part of T_m takes the eigen form (every other T_m the real
    Schur form); ``setup(report, solver, symmetric)``, ``solver`` the LU or
    None, returns ``integrate(T_m, form, beta)``, the CoordinateTrajectory on
    T_m's ``smallmat.small_form`` with B = V_1 beta, and ``more(kernel,
    bounds)``, the last column.  The form's branch goes to trust.small_form,
    where the last size's stays.  B = 0 gives X(t) = 0 on one zero basis
    column.  Returns (LowRankSolution, SolveReport).
    """
    if problem.has_initial_value:
        raise ConfigError(f"{method} assumes X0 = 0")
    if not 0 <= factor_tol < 1:
        raise ConfigError(f"factor_tol = {factor_tol}: need 0 <= factor_tol < 1")
    bound_norm = "frobenius" if extended else "spectral" if problem.p == 1 else "unproven"
    report = SolveReport(method=method, columns=("m", "t", "residual_bound", column),
                         dims={"n": problem.n, "p": problem.p},
                         settings={"factor_tol": factor_tol, **settings},
                         trust={"bound_norm": bound_norm})

    def start():
        if not problem.b.any():
            return None
        solver = LinearSolver(problem.a) if extended else None
        symmetric = exactly_symmetric(problem.a)
        integrate, more = setup(report, solver, symmetric)
        if extended:
            proc = ExtendedGlobalArnoldi(problem.a, solver, problem.b, m_max)
        else:
            proc = GlobalArnoldi(lambda x: problem.a @ x, problem.b, m_max)
        bound = residual_bound_bdf if extended else residual_bound_exp

        def fit(tm, coupling):
            if symmetric:
                tm = 0.5 * (tm + tm.T)
            form = smallmat.small_form(tm)
            report.trust["small_form"] = ("eigen" if isinstance(form.own, smallmat.DiagonalForm)
                                          else "schur")
            kernel = integrate(tm, form, proc.beta)
            bounds = bound(coupling, kernel.last_rows(coupling.shape[1]))
            return bounds, lambda: (more(kernel, bounds),), kernel

        return proc, fit

    def zero():
        kernel = CoordinateTrajectory(np.eye(1), np.zeros((grid.nnodes, 1, 1)))
        return BlockRow(np.zeros((problem.n, 1)), 1), kernel

    basis, kernel = krylov_solve(report, grid, m_max, tol, start, zero)
    return LowRankSolution(grid, basis, kernel, factor_tol), report


def egadl_solve(problem, grid, m_max, tol, l=2, factor_tol=1e-10):
    """Extended global Arnoldi for differential Lyapunov equations with X0 = 0.

    Grows the extended Krylov basis one block at a time, integrates the
    projected equation with l-step BDF, and stops once the residual bound is
    below tol at every node.

    Returns (LowRankSolution, SolveReport).
    """
    bdf_coefficients(l)            # checks l before any work

    def setup(report, solver, symmetric):
        def integrate(tm, form, beta):
            # B = V_1 beta, and V is F-orthonormal
            return bdf_integrate(form, np.r_[beta, np.zeros(len(tm) - 1)], None, grid, l)

        return integrate, lambda kernel, bounds: kernel.ranks(factor_tol)

    return lowrank_solve(problem, grid, m_max, tol, factor_tol, setup, method="egadl",
                         column="rank", settings={"l": l}, extended=True)
