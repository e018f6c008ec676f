"""Shared fixtures and oracle helpers for the test suite."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_continuous_lyapunov

from krymat import blockmat, smallmat
from krymat.blockmat import BlockRow, kron_apply
from krymat.dlebdf import bdf_coefficients


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@contextmanager
def deadline(seconds):
    """Fail the test instead of hanging once ``seconds`` have passed."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _NumpyWithoutEmpty:
    """numpy as blockmat sees it, except that ``empty`` is out of memory."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        raise MemoryError


def refuse_basis_allocation(monkeypatch):
    """Make every basis store's allocation raise MemoryError, and nothing else."""
    monkeypatch.setattr(blockmat, "np", _NumpyWithoutEmpty())


def stable_dense(n, rng, spread=1.0):
    """Dense random matrix shifted to have all eigenvalues in the left half plane."""
    a = spread * rng.standard_normal((n, n))
    shift = np.abs(np.linalg.eigvals(a).real).max() + 0.5
    return a - shift * np.eye(n)


def near_defective(n, coupling=1e3):
    """Upper bidiagonal T with eigenvalues -1, -1.001, ...: its eigenvector
    matrix is far past ``smallmat.EIG_COND_MAX``, so ``small_form`` keeps
    the real Schur form."""
    return np.diag(-1.0 - 1e-3 * np.arange(n)) + coupling * np.eye(n, k=1)


def stable_sym(n, rng, lo=0.5, hi=20.0):
    """Symmetric matrix with eigenvalues in [-hi, -lo]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = -rng.uniform(lo, hi, n)
    a = q @ np.diag(lam) @ q.T
    return 0.5 * (a + a.T)


def stable_sparse(n, rng, density=0.1):
    """Sparse random matrix made stable and nonsingular by diagonal dominance."""
    nnz = max(n, int(density * n * n))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    row_sums = np.asarray(np.abs(a).sum(axis=1)).ravel()
    return (a - sp.diags(row_sums + 0.5)).tocsr()


def random_block_row(rng, n, m, width, scale=1.0):
    return BlockRow(scale * rng.standard_normal((n, m * width)), width)


def explicit_kron_apply(vb, s_mat):
    """Reference for kron_apply: materialize the Kronecker product."""
    return vb.data @ np.kron(s_mat, np.eye(vb.width))


def lyap_through(red, q):
    """Y with T Y + Y T^T + Q = 0 from the Reduction T = X F X^{-1}: Q carried
    into F's coordinates, ``smallmat.lyap_solve`` with F, Y carried back."""
    g = smallmat.lyap_solve(red.own, red.xinv @ q @ red.xinv.T)
    y = (red.x @ g @ red.x.T).real
    return 0.5 * (y + y.T)


def bdf_step(tm, bm, prev, h, scheme):
    """One implicit BDF step of dY/dt = T Y + Y T^T + b b^T, the stepwise
    reference for ``bdf_integrate``.

    ``prev`` lists the most recent kernels, newest first.  The step solves
    (h beta T - I/2) Y + Y (h beta T - I/2)^T + Q = 0 with
    Q = h beta b b^T + sum_i alpha_i prev[i] by scipy, on the explicit
    operator: independent of the package's small-matrix kernels.
    """
    bm = np.asarray(bm, dtype=float).ravel()
    q = h * scheme.beta * np.outer(bm, bm)
    for a_i, y_i in zip(scheme.alpha, prev):
        q = q + a_i * y_i
    op = h * scheme.beta * tm - 0.5 * np.eye(tm.shape[0])
    y = solve_continuous_lyapunov(op, -q)
    return 0.5 * (y + y.T)


def dense_dle_bdf(problem, grid, l):
    """Full-dimension l-step BDF trajectory of dX/dt = A X + X A^T + B B^T.

    The discrete object that EgAdl approximates: the same grid, the same
    startup (1-step, then 2-step, until l previous values exist) and the same
    coefficients, but on the n x n equation.  Each implicit step
    (X_{k+1} - sum_i alpha_i X_{k-i}) / (h beta) = A X_{k+1} + X_{k+1} A^T + B B^T
    is the algebraic Lyapunov equation
    (h beta A - I/2) X + X (h beta A - I/2)^T = -(h beta B B^T + sum_i alpha_i X_{k-i}),
    solved by scipy.  Independent of the package's BDF and small-matrix
    kernels.  Returns an array of shape (nnodes, n, n).
    """
    table = {
        1: (1.0, (1.0,)),
        2: (2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
        3: (6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
    }
    n = problem.n
    a = problem.a.toarray() if sp.issparse(problem.a) else np.asarray(problem.a)
    bbt = problem.b @ problem.b.T
    x = np.zeros((n, n)) if problem.z0 is None else problem.z0 @ problem.z0.T
    out = np.empty((grid.nnodes, n, n))
    out[0] = x
    prev = [x]
    for k in range(grid.steps):
        beta, alpha = table[min(l, len(prev))]
        shifted = grid.h * beta * a - 0.5 * np.eye(n)
        q = grid.h * beta * bbt + sum(a_i * x_i for a_i, x_i in zip(alpha, prev))
        x = solve_continuous_lyapunov(shifted, -q)
        x = 0.5 * (x + x.T)
        out[k + 1] = x
        prev = [x] + prev[: l - 1]
    return out


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


def rect_hessenberg(tm, coupling):
    """[T_m; 0 ... coupling]: a process's projection(m) as the rectangular
    Hessenberg matrix of A V_m = V_{m+1} (Ttilde kron I_p)."""
    tail = np.zeros((coupling.shape[0], tm.shape[1]))
    tail[:, tm.shape[1] - coupling.shape[1]:] = coupling
    return np.vstack([tm, tail])


def perturbed_equation_check(problem, basis, hm, coupling, beta, grams):
    """Max Frobenius defect of the perturbed equation over the grid nodes.

    The approximation X_m(t) = V (G_m(t) kron I_p) V^T satisfies
    dX_m/dt = A X_m + X_m A^T + (B B^T - L_m - L_m^T) identically, with
    L_m(t) = V_tail (coupling G_m(t) kron I_p) V_m^T built from the
    subdiagonal coupling into the tail blocks of the basis.  The time
    derivative uses the exact Gramian identity dG/dt = H G + G H^T +
    beta^2 e_1 e_1^T, not finite differences.  Dense and test-only.
    """
    smallmat.check_dense_cap(problem.n, "perturbed_equation_check")
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
    e11[0, 0] = beta ** 2
    worst = 0.0
    for g in grams:
        gdot = hm @ g + g @ hm.T + e11
        xm = kron_apply(vm, g).data @ vm.data.T
        xdot = kron_apply(vm, gdot).data @ vm.data.T
        lm = kron_apply(vtail, coupling @ g).data @ vm.data.T
        defect = xdot - a_dense @ xm - xm @ a_dense.T - (bbt - lm - lm.T)
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst
