"""Dense brute-force references at desk scale.

The generalized problem is vectorized with explicit Kronecker products and
evaluated through the closed form x(t) = t psi_1(t M)(b + M x0) + x0; the
Lyapunov problem uses the exact propagation-plus-Gramian formula.  Both refuse
to run above the dense cap, smallmat.DENSE_CAP, or on a grid too large to hold.
"""

import numpy as np
import scipy.sparse.linalg as spla

from . import smallmat
from .errors import NumericError


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
    with grid.allocating(8 * n * p, "the dense reference"):
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

    Returns the Van Loan Gramian stack of A, shape (nnodes, n, n), the one
    stack held, with F_k F_k^T added in place for X0 = Z0 Z0^T; F_k = e^{dA} Z0
    comes from scipy's ``expm_multiply``, independent of krymat's kernels.
    """
    smallmat.check_dense_cap(problem.n, "dense_dle_exact")
    with grid.allocating(8 * problem.n ** 2, "the dense reference"):
        out = smallmat.vanloan_gram_nodes(problem.a.toarray(), problem.b, grid.h, grid.steps)
    if problem.z0 is None:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        f = spla.expm_multiply(problem.a, problem.z0, start=0.0, stop=grid.tf - grid.t0,
                               num=grid.nnodes, endpoint=True)
        for x, fk in zip(out, f):
            x += fk @ fk.T
            if not np.isfinite(x).all():
                raise NumericError("dense_dle_exact: the X0 term overflowed")
            x += x.T
            x *= 0.5
    return out
