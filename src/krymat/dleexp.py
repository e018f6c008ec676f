"""Differential Lyapunov solver through Krylov approximation of the matrix
exponential action.

With X0 = 0 the exact solution is a Gramian integral of e^{sA} B.  Projecting
e^{sA} B onto a (extended) global Krylov subspace turns that integral into a
small Gramian G_m(t) that satisfies a low-dimensional Lyapunov ODE and is
evaluated exactly with the Van Loan block exponential, so the only error is
the subspace truncation.  Computable residual and a-priori error bounds come
from the subdiagonal coupling of the Hessenberg reduction.

The residual bound |h_{m+1,m}| ||last row of G_m(t)||_2 holds for the
spectral norm of the residual (numerically it is an equality); the Frobenius
norm can exceed it by sqrt(2).
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import smallmat
from .blockmat import BlockRow, kron_apply
from .config import check_dense_cap
from .dlebdf import residual_bound_bdf, _projected_operator
from .egarnoldi import ExtendedGlobalArnoldi
from .garnoldi import GlobalArnoldi
from .probio import LinearSolver
from .solution import KernelTrajectorySym, LowRankSolution, SolveReport


@dataclass
class GramTrajectory:
    """Samples of the projected Gramian G_m(t_k), with the seed norm beta."""

    grid: object
    samples: list
    beta: float

    @property
    def order(self):
        return self.samples[0].shape[0]


def krylov_expm_action(basis, hm, beta, s):
    """Approximate e^{sA} B as beta * V_m (e^{s H_m} e_1 kron I_p)."""
    hm = np.atleast_2d(np.asarray(hm, dtype=float))
    m = hm.shape[0]
    col = smallmat.expm(s * hm)[:, 0]
    return beta * kron_apply(basis.narrow(m), col[:, None]).data


def gram_trajectory(hm, beta, grid):
    """G_m(t_k) = int_{t0}^{t_k} (beta e^{s H} e_1)(beta e^{s H} e_1)^T ds.

    Evaluated through the Van Loan block exponential, which is quadrature free
    and satisfies dG/dt = H G + G H^T + beta^2 e_1 e_1^T by construction.
    """
    hm = np.atleast_2d(np.asarray(hm, dtype=float))
    q = np.zeros(hm.shape[0])
    q[0] = beta
    grams, _ = smallmat.vanloan_gram_nodes(hm, q, grid.h, grid.steps)
    return GramTrajectory(grid, grams, beta)


def residual_bound_exp(h_sub, g):
    """|h_{m+1,m}| times the Euclidean norm of the last row of G."""
    g = np.asarray(g, dtype=float)
    return abs(float(h_sub)) * float(np.linalg.norm(g[-1, :]))


def _scaled_apriori(lead, mu2, t, t0):
    dt = t - t0
    if abs(mu2) < 1e-14:
        return lead * dt
    return lead * (np.exp(2.0 * dt * mu2) - 1.0) / (2.0 * mu2)


def apriori_error_bound(h_sub, gbar_max, mu2, t, t0):
    """Error bound |h_{m+1,m}| ||Gbar||_inf (e^{2(t-t0) mu2} - 1) / (2 mu2).

    For |mu2| below 1e-14 the limit value (t - t0) |h| ||Gbar|| is used.
    """
    return _scaled_apriori(abs(float(h_sub)) * float(gbar_max), mu2, t, t0)


def lognorm2_operator(a):
    """mu_2 of a sparse or dense operator; sparse symmetric-part eigensolve
    above the small-problem threshold."""
    if sp.issparse(a):
        n = a.shape[0]
        if n <= 400:
            return smallmat.lognorm2(a.toarray())
        sym = 0.5 * (a + a.T).tocsc()
        # a fixed start vector makes ARPACK, and so mu2, reproducible
        v0 = np.random.default_rng(0).standard_normal(n)
        val = spla.eigsh(sym, k=1, which="LA", v0=v0, return_eigenvectors=False)
        return float(val[0])
    return smallmat.lognorm2(np.asarray(a))


def expo_dle_solve(problem, grid, m_max, tol, variant="extended",
                   probe_stride=1, factor_tol=1e-10):
    """Solve the DLE with X0 = 0 by the exponential Krylov method.

    ``variant`` selects the subspace: "global" uses the polynomial Krylov
    space of (A, B); "extended" also uses A^{-1} directions, replacing beta by
    the seed QR entry r_{1,1} and H_m by the extended block Hessenberg matrix.
    Stops once the residual bound is below tol at every probed node; reports
    carry the a-priori error bound alongside.

    Returns (LowRankSolution, SolveReport).
    """
    if variant not in ("global", "extended"):
        raise ValueError(f"unknown variant {variant!r}")
    if problem.z0 is not None and np.linalg.norm(problem.z0) > 0:
        raise ValueError("the exponential method assumes X0 = 0; use egadl_solve")
    if m_max < 1:
        raise ValueError("expo_dle_solve needs m_max >= 1")
    t_start = time.perf_counter()
    b = problem.b
    report = SolveReport(
        method=f"expo-{variant}",
        columns=("m", "t", "residual_bound", "apriori_bound"),
        dims={"n": problem.n, "p": problem.p},
        settings={"m_max": m_max, "tol": tol, "variant": variant,
                  "grid_steps": grid.steps, "probe_stride": probe_stride,
                  "factor_tol": factor_tol},
    )
    if np.linalg.norm(b) == 0.0:
        kernel = KernelTrajectorySym(grid, [np.zeros((1, 1))] * grid.nnodes)
        basis = BlockRow(np.zeros((problem.n, 1)), 1)
        report.converged = True
        report.wall_time = time.perf_counter() - t_start
        factors = [smallmat.trunc_sym_factor(s, factor_tol) for s in kernel.samples]
        return LowRankSolution(grid, basis, kernel, factors), report

    mu2 = lognorm2_operator(problem.a)
    report.settings["mu2"] = mu2
    nodes = grid.nodes

    if variant == "global":
        proc = GlobalArnoldi(lambda x: problem.a @ x, b)
    else:
        proc = ExtendedGlobalArnoldi(problem.a, LinearSolver(problem.a), b)

    converged = False
    m = 0
    while True:
        m = proc.advance_to(m + 1)
        if variant == "global":
            hess = proc.hessenberg(m)
            sub_basis = proc.basis(m)
            hm, beta = hess.hm, proc.beta
            h_sub = hess.h_sub
            bound_of = lambda g: residual_bound_exp(h_sub, g)
        else:
            if proc.breakdown:
                sub_basis = proc.sub_basis()
                hm = _projected_operator(problem.a, sub_basis)
                t_sub = np.zeros((2, sub_basis.m))
            else:
                sub_basis = proc.sub_basis(2 * m)
                hess = proc.hessenberg(m)
                hm, t_sub = hess.tm, hess.t_sub
            beta = proc.r_init[0, 0]
            coupling = t_sub
            bound_of = lambda g: residual_bound_bdf(coupling, g)
        gram = gram_trajectory(hm, beta, grid)
        bounds = np.array([bound_of(g) for g in gram.samples])
        res_max = float(bounds.max())
        for k in range(0, grid.nnodes, probe_stride):
            apriori = _scaled_apriori(res_max, mu2, nodes[k], grid.t0)
            report.add(m, nodes[k], bounds[k], apriori)
        if bounds[::probe_stride].max() < tol:
            converged = True
            break
        if proc.breakdown or m >= m_max:
            break

    report.converged = converged
    report.m_final = m
    report.breakdown = proc.breakdown
    report.dims["basis_blocks"] = sub_basis.m
    report.dims["basis_cols"] = sub_basis.m * sub_basis.width
    kernel = KernelTrajectorySym(grid, gram.samples)
    factors = [smallmat.trunc_sym_factor(g, factor_tol) for g in gram.samples]
    report.wall_time = time.perf_counter() - t_start
    return LowRankSolution(grid, sub_basis, kernel, factors), report


def perturbed_equation_check(problem, basis, hm, coupling, gram):
    """Max Frobenius defect of the perturbed equation over the grid nodes.

    The approximation X_m(t) = V (G_m(t) kron I_p) V^T satisfies
    dX_m/dt = A X_m + X_m A^T + (B B^T - L_m - L_m^T) identically, with
    L_m(t) = V_tail (coupling G_m(t) kron I_p) V_m^T built from the
    subdiagonal coupling into the tail blocks of the basis.  The time
    derivative uses the exact Gramian identity dG/dt = H G + G H^T +
    beta^2 e_1 e_1^T, not finite differences.  Dense and test-only.
    """
    check_dense_cap(problem.n, "perturbed_equation_check")
    hm = np.atleast_2d(np.asarray(hm, dtype=float))
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    k = hm.shape[0]
    if basis.m < k + coupling.shape[0]:
        raise ValueError("basis must include the tail block(s) past the projection")
    vm = basis.narrow(k)
    vtail = BlockRow(basis.data[:, k * basis.width:(k + coupling.shape[0]) * basis.width],
                     basis.width)
    a_dense = problem.a.toarray() if sp.issparse(problem.a) else np.asarray(problem.a)
    bbt = problem.b @ problem.b.T
    e11 = np.zeros((k, k))
    e11[0, 0] = gram.beta ** 2
    worst = 0.0
    for g in gram.samples:
        gdot = hm @ g + g @ hm.T + e11
        xm = kron_apply(vm, g).data @ vm.data.T
        xdot = kron_apply(vm, gdot).data @ vm.data.T
        lm = kron_apply(vtail, coupling @ g).data @ vm.data.T
        defect = xdot - a_dense @ xm - xm @ a_dense.T - (bbt - lm - lm.T)
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst
