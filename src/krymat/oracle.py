"""Dense brute-force references at desk scale.

The generalized problem is vectorized with explicit Kronecker products and
evaluated through the closed form x(t) = t psi_1(t M)(b + M x0) + x0; the
Lyapunov problem uses the exact propagation-plus-Gramian formula.  Both refuse
to run above the dense cap, smallmat.DENSE_CAP.
"""

import numpy as np
import scipy.sparse as sp

from . import smallmat


def kron_operator(problem):
    """The vectorized operator M = sum_i B_i^T kron A_i as a dense array."""
    n, p = problem.n, problem.p
    m = np.zeros((n * p, n * p))
    for a_i, b_i in zip(problem.a_list, problem.b_list):
        m += np.kron(b_i.T.toarray(), a_i.toarray())
    return m


def dense_dme_solve(problem, grid):
    """Trajectory of the generalized differential matrix equation.

    Columns are stacked in Fortran order (vec).  Exact for the autonomous
    linear system up to the accuracy of the dense exponential kernels.
    Returns an array of shape (nnodes, n, p).
    """
    n, p = problem.n, problem.p
    smallmat.check_dense_cap(n * p, "dense_dme_solve")
    m = kron_operator(problem)
    b = problem.c.flatten(order="F")
    x0 = problem.initial_value().flatten(order="F")
    rhs = b + m @ x0
    out = np.empty((grid.nnodes, n, p))
    for k, t in enumerate(grid.nodes):
        dt = t - grid.t0
        if dt == 0.0:
            x = x0
        else:
            x = dt * (smallmat.phi1(dt * m) @ rhs) + x0
        out[k] = x.reshape((n, p), order="F")
    return out


def dense_dle_exact(problem, grid):
    """Exact DLE trajectory e^{dA} X0 e^{dA^T} + int_0^d e^{sA} BB^T e^{sA^T} ds.

    The integral term comes from the segmented Van Loan evaluation; the
    homogeneous term reuses the same per-step propagator.  Returns an array
    of shape (nnodes, n, n).
    """
    n = problem.n
    smallmat.check_dense_cap(n, "dense_dle_exact")
    a = problem.a.toarray() if sp.issparse(problem.a) else np.asarray(problem.a)
    grams, props = smallmat.vanloan_gram_nodes(a, problem.b, grid.h, grid.steps)
    out = np.empty((grid.nnodes, n, n))
    x0 = None
    if problem.z0 is not None:
        x0 = problem.z0 @ problem.z0.T
    for k in range(grid.nnodes):
        xk = grams[k]
        if x0 is not None:
            e = props[k]
            xk = xk + e @ x0 @ e.T
        out[k] = 0.5 * (xk + xk.T)
    return out
