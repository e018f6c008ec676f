"""Correctness checks of a finished run, made apart from krymat.

Each check takes plain arrays (the solution krymat returned, the problem it
was given, the bounds it reported) and recomputes what the solution should
satisfy with NumPy/SciPy alone: nothing here calls into krymat, so a fault
in a krymat kernel cannot hide itself.  A check returns a dict of the
figures it measured and raises CheckFailed when one is out of bounds.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

# l-step BDF: (X_k - sum_i alpha_i X_{k-i}) / (h beta) = A X_k + X_k A^T + B B^T,
# with the l-step scheme used from step l on and the 1-, 2-step ones before.
BDF_COEFFS = {
    1: (1.0, (1.0,)),
    2: (2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
    3: (6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
}

# F-orthonormality a basis must keep: max |<V_i, V_j>_F - delta_ij|
ORTH_TOL = 1e-10

# relative roundoff allowed between a solution and its closed form
ROUNDOFF = 1e-13

# rows of the closed-form kernel matrix evaluated at once: small enough for
# the block to stay in cache, which makes it three times faster than 512
CHUNK_ROWS = 64


class CheckFailed(AssertionError):
    """The solution does not satisfy what the check recomputed."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_report(rows, converged, tol):
    """Every bound of the final iteration in report.csv is below tol.

    ``rows`` are the parsed report.csv rows as dicts of floats.
    """
    _require(converged, "the run did not converge")
    m_final = max(r["m"] for r in rows)
    final = [r["residual_bound"] for r in rows if r["m"] == m_final]
    _require(final and max(final) < tol,
             f"final-iteration bound {max(final):.3e} is not below tol {tol:.1e}")
    return {"report_bound_max": max(final)}


# ---------------------------------------------------------------------------
# EgAdl: true residual of the same-grid BDF equations, in low-rank form

def block_gram(v, width):
    """[<V_i, V_j>_F] of the width-wide column blocks of v."""
    return sum(v[:, s::width].T @ v[:, s::width] for s in range(width))


def bdf_residual_norms(a, b, v, width, kernels, h, l):
    """||R_k||_F at nodes 1..N for X_k = V (Y_k kron I_width) V^T, where
    R_k = A X_k + X_k A^T + B B^T - (X_k - sum_i alpha_i X_{k-i}) / (h beta).

    R_k = W M_k W^T with W = [V, A V, B]; with the thin QR W = Q R the norm
    is ||R M_k R^T||_F, which keeps the 1e-8 level that a Gram matrix would
    square away.
    """
    n, kv = v.shape
    pw = b.shape[1]
    w = np.empty((n, 2 * kv + pw), order="F")
    w[:, :kv] = v
    w[:, kv:2 * kv] = a @ v
    w[:, 2 * kv:] = b
    qr, _, _, info = lapack.dgeqrf(w, overwrite_a=True)
    _require(info == 0, f"QR of [V, AV, B] failed (info={info})")
    r = np.triu(qr[: w.shape[1], :])
    del qr, w
    p_v = r[:kv, :kv]
    r_av = r[: 2 * kv, kv:2 * kv]
    r_b = r[:, 2 * kv:]
    eye = np.eye(width)
    yhat = [np.kron(y, eye) for y in kernels]
    norms = []
    prev = [yhat[0]]
    for k in range(1, len(yhat)):
        beta, alpha = BDF_COEFFS[min(l, len(prev))]
        d = yhat[k] - sum(a_i * y_i for a_i, y_i in zip(alpha, prev))
        z = r_b @ r_b.T
        z[:kv, :kv] -= p_v @ (d / (h * beta)) @ p_v.T
        u = (p_v @ yhat[k]) @ r_av.T
        z[:kv, : 2 * kv] += u
        z[: 2 * kv, :kv] += u.T
        norms.append(float(np.linalg.norm(z)))
        prev = [yhat[k]] + prev[: l - 1]
    return np.array(norms)


def check_egadl(a, b, v, width, kernels, h, l, tol):
    """Basis blocks F-orthonormal, X_0 = 0, and the BDF residual below tol
    at every node."""
    gram = block_gram(v, width)
    orth = float(np.abs(gram - np.eye(gram.shape[0])).max())
    _require(orth <= ORTH_TOL, f"basis blocks are not F-orthonormal (defect {orth:.2e})")
    _require(not np.any(kernels[0]), "the kernel at t0 is not zero")
    res = bdf_residual_norms(a, b, v, width, kernels, h, l)
    worst = int(np.argmax(res))
    _require(res[worst] < tol,
             f"BDF residual {res[worst]:.3e} at node {worst + 1} is not below tol {tol:.1e}")
    return {"orth_defect": orth, "residual_max": float(res.max())}


# ---------------------------------------------------------------------------
# The 2-D Laplacian's sine eigenbasis

def laplacian2d(n0):
    """gen_laplacian2d's operator, built here from its definition."""
    t = sp.diags([np.ones(n0 - 1), -2.0 * np.ones(n0), np.ones(n0 - 1)], [-1, 0, 1])
    eye = sp.identity(n0)
    return (float((n0 + 1) ** 2) * (sp.kron(eye, t) + sp.kron(t, eye))).tocsr()


class SineBasis:
    """A = Q diag(lam) Q^T for laplacian2d(n0), with Q = S kron S."""

    def __init__(self, n0):
        j = np.arange(1, n0 + 1)
        self.n0 = n0
        self.s = np.sqrt(2.0 / (n0 + 1)) * np.sin(np.outer(j, j) * np.pi / (n0 + 1))
        mu = -4.0 * (n0 + 1) ** 2 * np.sin(j * np.pi / (2 * (n0 + 1))) ** 2
        self.lam = (mu[:, None] + mu[None, :]).ravel()

    def to_eig(self, x):
        """Q^T x, column by column."""
        return self._apply(x)

    def from_eig(self, x):
        """Q x (S is symmetric and orthogonal, so Q = Q^T)."""
        return self._apply(x)

    def _apply(self, x):
        n0 = self.n0
        cols = np.asarray(x).reshape(n0, n0, -1)
        out = np.einsum("ij,jkc,kl->ilc", self.s, cols, self.s, optimize=True)
        return out.reshape(n0 * n0, -1)


def require_laplacian(basis, a):
    """The closed forms hold only for the operator the basis diagonalizes."""
    n = basis.n0 ** 2
    _require(a.shape == (n, n) and abs(sp.csr_matrix(a) - laplacian2d(basis.n0)).max() == 0.0,
             "A is not the 2-D Laplacian the closed form assumes")


def _phi(s, t):
    """(e^{s t} - 1) / s elementwise, for s != 0."""
    return np.expm1(s * t) / s


def dle_closed_form_apply(basis, b, t, z):
    """X(t) z for dX/dt = A X + X A^T + B B^T, X(0) = 0, A = Q diag(lam) Q^T:
    X(t) = Q [((e^{(lam_i + lam_j) t} - 1) / (lam_i + lam_j)) o bh bh^T] Q^T
    with bh = Q^T B, evaluated a block of rows at a time."""
    bh = basis.to_eig(b)                                   # n x p
    zh = basis.to_eig(z)                                   # n x r
    lam = basis.lam
    rhs = (bh[:, :, None] * zh[:, None, :]).reshape(len(lam), -1)   # n x (p r)
    out = np.empty((len(lam), zh.shape[1]))
    for lo in range(0, len(lam), CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, len(lam))
        f = _phi(lam[lo:hi, None] + lam[None, :], t)
        prod = (f @ rhs).reshape(hi - lo, bh.shape[1], zh.shape[1])
        out[lo:hi] = np.einsum("ic,icr->ir", bh[lo:hi], prod)
    return basis.from_eig(out)


def probe_vectors(b, extra, rng):
    """B's columns and ``extra`` random vectors, each of unit norm."""
    z = np.hstack([b, rng.standard_normal((b.shape[0], extra))])
    return z / np.linalg.norm(z, axis=0)


def check_expo(basis, b, t, z_factor, signs, apriori, trunc_allowance, probes):
    """The factor Z diag(signs) Z^T of X_m(t), applied to the probes, agrees
    with the closed form within the reported a-priori bound plus the
    factor truncation allowance."""
    exact = dle_closed_form_apply(basis, b, t, probes)
    approx = (z_factor * signs) @ (z_factor.T @ probes)
    err = float(np.linalg.norm(approx - exact, axis=0).max())
    bound = apriori + trunc_allowance
    _require(err <= bound,
             f"factor at t={t:g} misses the closed form by {err:.3e} > bound {bound:.3e}")
    return {"error": err, "bound": bound}


# ---------------------------------------------------------------------------
# Galerkin: dX/dt = A X + X B2 + C, X(0) = 0, in the joint eigenbasis

def sylvester_closed_form(basis, b2, c, times):
    """X(t) for dX/dt = A X + X B2 + C, X(0) = 0: with A = Q diag(lam) Q^T and
    B2 = W diag(nu) W^{-1}, Xh = Q^T X W has entries
    (e^{(lam_a + nu_b) t} - 1) / (lam_a + nu_b) Ch_ab, Ch = Q^T C W."""
    nu, wv = np.linalg.eig(b2)
    winv = np.linalg.inv(wv)
    ch = basis.to_eig(c) @ wv
    s = basis.lam[:, None] + nu[None, :]
    out = []
    for t in times:
        xh = _phi(s, t) * ch
        out.append(basis.from_eig(np.real(xh @ winv)))
    return out


def lognorm2(mat):
    """mu_2(M), the largest eigenvalue of the symmetric part."""
    m = np.asarray(mat, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (m + m.T)).max())


def galerkin_error_bound(res_max, mu, t):
    """||X(t) - X_m(t)||_F <= rho (e^{mu t} - 1) / mu for the error equation
    dE/dt = A E + E B2 - R_m, with rho bounding ||R_m|| on [0, t] and
    mu = mu_2(A) + mu_2(B2)."""
    return res_max * (t if mu == 0.0 else float(np.expm1(mu * t) / mu))


def check_galerkin(basis, b2, c, times, snapshots, residuals, mu):
    """Every snapshot agrees with the closed form within the bound from the
    reported residual (its maximum over the nodes up to t), plus ROUNDOFF
    times the solution's norm for the two floating-point evaluations."""
    exact = sylvester_closed_form(basis, b2, c, times)
    worst_ratio, worst_err = 0.0, 0.0
    for k, (t, x, ref) in enumerate(zip(times, snapshots, exact)):
        err = float(np.linalg.norm(x - ref))
        bound = (galerkin_error_bound(float(np.max(residuals[: k + 1])), mu, t - times[0])
                 + ROUNDOFF * float(np.linalg.norm(ref)))
        _require(err <= bound, f"snapshot at t={t:g} misses the closed form by "
                               f"{err:.3e} > bound {bound:.3e}")
        worst_err = max(worst_err, err)
        if bound > 0:
            worst_ratio = max(worst_ratio, err / bound)
    return {"error_max": worst_err, "error_to_bound_max": worst_ratio}
