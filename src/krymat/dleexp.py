"""Differential Lyapunov solver through Krylov approximation of the matrix
exponential action.

With X0 = 0 the exact solution is a Gramian integral of e^{sA} B.  Projecting
e^{sA} B onto a (extended) global Krylov subspace turns that integral into a
small Gramian G_m(t) that satisfies a low-dimensional Lyapunov ODE and is
evaluated exactly, so the only error is the subspace truncation: in closed
form from an eigendecomposition of H_m when its eigenvector matrix is well
conditioned, and with the Van Loan block exponential otherwise.  Computable
residual and a-priori error bounds come from the subdiagonal coupling of the
Hessenberg reduction.

The polynomial space's bound |h_{m+1,m}| ||last row of G_m(t)||_2 is the
residual's spectral norm for p = 1, where the Frobenius norm is sqrt(2) times
it; at p = 2, 3 (30 random stable A, n = 30) the spectral norm measured
0.41-0.89 and the Frobenius norm 0.72-1.21 times it.  The extended space
uses EgAdl's Frobenius bound.

The a-priori bound needs the logarithmic norm mu_2(A), the largest eigenvalue
of (A + A^T)/2.  When A is exactly symmetric and Gershgorin places its
spectrum in (-inf, 0], the extended variant takes it from the LU its process
already holds, by shift-invert Lanczos on A^{-1}; every other input gets a
Lanczos on the symmetric part (see ``lognorm2_operator``).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import smallmat
from .dlebdf import lowrank_report, reduce_projected, residual_bound_bdf
from .egarnoldi import ExtendedGlobalArnoldi
from .errors import ConfigError, NumericError
from .garnoldi import GlobalArnoldi
from .probio import LinearSolver
from .solution import CoordinateTrajectory, LowRankSolution, krylov_solve

# the subspaces expo_dle_solve can project onto
VARIANTS = ("global", "extended")


def gram_trajectory(hm, beta, grid, form):
    """G_m(t_k) = int_{t0}^{t_k} (beta e^{s H} e_1)(beta e^{s H} e_1)^T ds at
    every node, a CoordinateTrajectory.

    ``form`` is the ``smallmat.small_form`` Reduction of ``hm``.  From the
    eigen form H = X diag(lambda) X^{-1} the whole stack is closed form in
    X's coordinates, G_k = [t_k phi_1(t_k (lambda_i + lambda_j)) q_i q_j] with
    q = X^{-1} beta e_1 and phi_1(z) = (e^z - 1)/z; from the real Schur form
    it is the stack of Van Loan block exponentials of H itself, with X = I,
    whose (block) Hessenberg zeros keep the small last rows that the bounds
    read accurate.  Both are quadrature free and satisfy
    dG/dt = H G + G H^T + beta^2 e_1 e_1^T.
    """
    if isinstance(form.own, smallmat.TriangularForm):
        k = form.x.shape[0]
        q = np.zeros(k)
        q[0] = beta
        grams = smallmat.vanloan_gram_nodes(hm, q, grid.h, grid.steps)[0]
        return CoordinateTrajectory(grid, np.eye(k), np.array(grams))
    q = beta * form.xinv[:, 0]
    lam = form.own.lam
    pair = lam[:, None] + lam[None, :]
    zero = pair == 0
    t = grid.h * np.arange(grid.nnodes)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # t phi_1(t s) = expm1(t s)/s, with the limit t at s = 0
        weight = np.where(zero, t, np.expm1(t * pair) / np.where(zero, 1.0, pair))
        g = weight * np.outer(q, q)
    if not np.isfinite(g).all():
        raise NumericError("gram_trajectory: Gramian overflowed")
    return CoordinateTrajectory(grid, form.x, g)


def residual_bound_exp(coupling, g):
    """|h_{m+1,m}| times the Euclidean norm of the last row of G, from the
    polynomial process's coupling block [[h_{m+1,m}]]."""
    g = np.asarray(g, dtype=float)
    return abs(float(coupling[0, 0])) * float(np.linalg.norm(g[-1, :]))


def apriori_error_bound(h, gbar_max, mu2, t, t0):
    """Error bound |h_{m+1,m}| ||Gbar||_inf (e^{2(t-t0) mu2} - 1) / (2 mu2).

    ``t`` is one time or an array of them.  For |mu2| below 1e-14 the limit
    value (t - t0) |h| ||Gbar|| is used.  Past the largest float the exponent
    is +-inf, and the bound its limit.
    """
    lead, dt = abs(float(h)) * float(gbar_max), t - t0
    if abs(mu2) < 1e-14:
        return lead * dt
    with np.errstate(over="ignore"):
        return lead * (np.exp(2.0 * dt * mu2) - 1.0) / (2.0 * mu2)


def _certified_negative_definite(a):
    """True when A is exactly symmetric and every Gershgorin disc of A lies
    in (-inf, 0]: then A is negative semidefinite, and negative definite once
    it has an LU."""
    if (a != a.T).nnz:
        return False
    diag = a.diagonal()
    radius = np.asarray(abs(a).sum(axis=1)).ravel() - np.abs(diag)
    return bool((diag + radius).max() <= 0)


def lognorm2_operator(a, solver=None, trust=None):
    """mu_2(A) = lambda_max((A + A^T)/2) of a sparse or dense operator.

    Up to order 400, or for a dense A, the dense eigensolve.  Above it, with
    ``solver`` the LU of A (``probio.LinearSolver``) and A certified negative
    definite by ``_certified_negative_definite``, a spectral-transformation
    Lanczos on A^{-1} through that LU: every theta = 1/lambda is negative and
    lambda_max = 1/theta for the theta largest in magnitude.  For negative
    definite A the relative gap of the transformed spectrum,
    (|l2| - |l1|)/(|ln| - |l1|) * |ln|/|l2| with |l1| <= |l2| <= ... <= |ln|,
    is at least the gap (|l2| - |l1|)/(|ln| - |l1|) the unshifted Lanczos
    sees, and Lanczos convergence bounds only improve with the gap; on the
    clustered top of a Laplacian spectrum it takes far fewer iterations.
    Otherwise (no solver, a nonsymmetric A, a failed Gershgorin test) the
    Lanczos for the largest eigenvalue of the symmetric part.  When ``trust``
    is a dict, the path taken goes to trust["mu2_method"]: "dense",
    "shift-invert" or "lanczos".
    """
    if not sp.issparse(a) or a.shape[0] <= 400:
        method = "dense"
        mu2 = smallmat.lognorm2(a.toarray() if sp.issparse(a) else np.asarray(a))
    else:
        n = a.shape[0]
        # a fixed start vector makes ARPACK, and so mu2, reproducible
        v0 = np.random.default_rng(0).standard_normal(n)
        if solver is not None and _certified_negative_definite(a):
            method = "shift-invert"
            inv = spla.LinearOperator((n, n), matvec=solver.solve, dtype=float)
            theta = spla.eigsh(inv, k=1, which="LM", v0=v0, return_eigenvectors=False)
            mu2 = 1.0 / float(theta[0])
        else:
            method = "lanczos"
            sym = 0.5 * (a + a.T).tocsc()
            val = spla.eigsh(sym, k=1, which="LA", v0=v0, return_eigenvectors=False)
            mu2 = float(val[0])
    if trust is not None:
        trust["mu2_method"] = method
    return mu2


def expo_dle_solve(problem, grid, m_max, tol, variant="extended", factor_tol=1e-10):
    """Solve the DLE with X0 = 0 by the exponential Krylov method.

    ``variant`` selects the subspace: "global" uses the polynomial Krylov
    space of (A, B); "extended" also uses A^{-1} directions, replacing beta by
    the seed QR entry r_{1,1} and H_m by the extended block Hessenberg matrix.
    Stops once the residual bound is below tol at every node; reports carry
    the a-priori error bound alongside.

    Returns (LowRankSolution, SolveReport).
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant = {variant}: need one of {', '.join(VARIANTS)}")
    # the global bound is the residual's spectral norm only for p = 1
    bound_norm = ("frobenius" if variant == "extended"
                  else "spectral" if problem.p == 1 else "unproven")
    report = lowrank_report(problem, f"expo-{variant}", "apriori_bound", factor_tol,
                            {"variant": variant}, bound_norm)

    def start(report):
        if not problem.b.any():
            return None
        # the extended process's LU also serves the log-norm's shift-invert
        solver = LinearSolver(problem.a) if variant == "extended" else None
        mu2 = lognorm2_operator(problem.a, solver, report.trust)
        report.settings["mu2"] = mu2
        if variant == "global":
            proc = GlobalArnoldi(lambda x: problem.a @ x, problem.b, m_max)
            bound_of = residual_bound_exp
        else:
            proc = ExtendedGlobalArnoldi(problem.a, solver, problem.b, m_max)
            bound_of = residual_bound_bdf

        def fit(hm, coupling):
            kernel = gram_trajectory(hm, proc.beta, grid, reduce_projected(report, hm))
            bounds = np.array([bound_of(coupling, g) for g in kernel.samples])
            apriori = apriori_error_bound(1.0, bounds.max(), mu2, grid.nodes, grid.t0)
            return bounds, lambda: (apriori,), kernel

        return proc, fit

    basis, kernel = krylov_solve(report, grid, m_max, tol, start)
    return LowRankSolution.from_kernel(grid, problem.n, basis, kernel, factor_tol), report
