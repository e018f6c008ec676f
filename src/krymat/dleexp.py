"""Differential Lyapunov solver through Krylov approximation of the matrix
exponential action.

With X0 = 0 the exact solution is a Gramian integral of e^{sA} B.  Projecting
e^{sA} B onto a (extended) global Krylov subspace turns that integral into a
small Gramian G_m(t) that satisfies a low-dimensional Lyapunov ODE and is
evaluated exactly, so the only error is the subspace truncation: in closed
form from the symmetric eigendecomposition of H_m when A is symmetric, and
otherwise with the Van Loan block exponential of one short segment, doubled
up to a step.  Computable residual and a-priori error bounds come from the
subdiagonal coupling of the Hessenberg reduction and the last rows of every
node's G_m, read at once.
The solve is ``dlebdf.lowrank_solve``, which grows the process and picks its
bound, with these Gramians as its integrator.

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
from .dlebdf import lowrank_solve
from .errors import ConfigError, NumericError
from .solution import CoordinateTrajectory

# the subspaces expo_dle_solve can project onto
VARIANTS = ("global", "extended")


def gram_trajectory(hm, beta, grid, form):
    """G_m(t_k) = int_{t0}^{t_k} (beta e^{s H} e_1)(beta e^{s H} e_1)^T ds at
    every node, a CoordinateTrajectory.

    ``form`` is the ``smallmat.small_form`` Reduction of ``hm``.  From the
    symmetric eigen form H = X diag(lambda) X^T the whole stack is closed
    form in X's coordinates, G_k = [t_k phi_1(t_k (lambda_i + lambda_j)) q_i q_j]
    with q = X^T beta e_1 and phi_1(z) = (e^z - 1)/z; from the real Schur form
    it is the Gramian stack ``smallmat.vanloan_gram_nodes`` returns for H
    itself, with X = I, whose (block) Hessenberg zeros keep the small last
    rows that the bounds read accurate.  Both are quadrature free and satisfy
    dG/dt = H G + G H^T + beta^2 e_1 e_1^T.  Raises NumericError when a
    Gramian overflows or a step needs more Van Loan doublings than
    ``smallmat.VANLOAN_MAX_DOUBLINGS``.
    """
    if isinstance(form.own, smallmat.TriangularForm):
        eye = np.eye(len(hm))
        grams = smallmat.vanloan_gram_nodes(hm, beta * eye[0], grid.h, grid.steps)
        return CoordinateTrajectory(eye, grams)
    q = beta * form.x[0]
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
    return CoordinateTrajectory(form.x, g)


def apriori_error_bound(h, gbar_max, mu2, t, t0):
    """Error bound |h_{m+1,m}| ||Gbar||_inf (e^{2(t-t0) mu2} - 1) / (2 mu2).

    ``t`` is one time or an array of them.  For |mu2| below 1e-14 the limit
    value (t - t0) |h| ||Gbar|| is used.  Past the largest float the exponent
    is +-inf, and the bound its limit.  The derivation needs ``gbar_max`` >=
    the bound's supremum over [t0, t]; ``expo_dle_solve`` passes its maximum
    at the grid nodes, so its apriori_bound column, like converged = True and
    residual_bound, is a statement at the nodes: an estimate, not a proof.
    """
    lead, dt = abs(float(h)) * float(gbar_max), t - t0
    if abs(mu2) < 1e-14:
        return lead * dt
    with np.errstate(over="ignore"):
        return lead * (np.exp(2.0 * dt * mu2) - 1.0) / (2.0 * mu2)


def _certified_negative_definite(a, symmetric):
    """True when A is exactly symmetric (``symmetric``, from
    ``probio.exactly_symmetric``) and every Gershgorin disc of A lies in
    (-inf, 0]: then A is negative semidefinite, and negative definite once it
    has an LU."""
    if not symmetric:
        return False
    diag = a.diagonal()
    radius = np.asarray(abs(a).sum(axis=1)).ravel() - np.abs(diag)
    return bool((diag + radius).max() <= 0)


def lognorm2_operator(a, solver, symmetric):
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
    Lanczos for the largest eigenvalue of the symmetric part.  ``solver``
    may be None; ``symmetric`` says whether A equals A^T
    (``probio.exactly_symmetric``).  Returns (mu2, path), the path taken
    "dense", "shift-invert" or "lanczos".
    """
    if not sp.issparse(a) or a.shape[0] <= 400:
        method = "dense"
        mu2 = smallmat.lognorm2(a.toarray() if sp.issparse(a) else np.asarray(a))
    else:
        n = a.shape[0]
        # a fixed start vector makes ARPACK, and so mu2, reproducible
        v0 = np.random.default_rng(0).standard_normal(n)
        if solver is not None and _certified_negative_definite(a, symmetric):
            method = "shift-invert"
            inv = spla.LinearOperator((n, n), matvec=solver.solve, dtype=float)
            theta = spla.eigsh(inv, k=1, which="LM", v0=v0, return_eigenvectors=False)
            mu2 = 1.0 / float(theta[0])
        else:
            method = "lanczos"
            sym = 0.5 * (a + a.T).tocsc()
            val = spla.eigsh(sym, k=1, which="LA", v0=v0, return_eigenvectors=False)
            mu2 = float(val[0])
    return mu2, method


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

    def setup(report, solver, symmetric):
        # the extended process's LU also serves the log-norm's shift-invert
        mu2, report.trust["mu2_method"] = lognorm2_operator(problem.a, solver, symmetric)
        report.settings["mu2"] = mu2
        return (lambda hm, form, beta: gram_trajectory(hm, beta, grid, form),
                lambda kernel, bounds: apriori_error_bound(1.0, bounds.max(), mu2, grid.nodes,
                                                           grid.t0))

    return lowrank_solve(problem, grid, m_max, tol, factor_tol, setup,
                         method=f"expo-{variant}", column="apriori_bound",
                         settings={"variant": variant}, extended=variant == "extended")
