"""Dense small-scale kernels.

Matrix exponential and the first exponential-integrator function, one
reduction T = X F X^{-1} of a small T (``Reduction``) to eigen form (when
its eigenvector matrix is well conditioned) or else to real Schur form,
algebraic Lyapunov solves with T in the reduction's own coordinates F
(diagonal or quasi-triangular), which shifted operators c T + d I reuse,
Gramian integrals by the Van Loan block-exponential construction, the
2-logarithmic norm and truncated symmetric factorizations.  Everything here
is dense, and every kernel refuses a matrix of order above DENSE_CAP at its
input gate.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import CapExceededError, DimensionError, IllPosedError, NumericError

SYM_CHECK_TOL = 1e-13

# Largest order admitted for a dense O(k^3) kernel or a dense order-n reference.
DENSE_CAP = 2000


def check_dense_cap(k, what="dense kernel"):
    if k > DENSE_CAP:
        raise CapExceededError(f"{what} of order {k} exceeds the dense cap {DENSE_CAP}")


def _square(m, who, complex_ok=False):
    """The input gate of every kernel: a finite square matrix within the cap,
    real unless ``complex_ok``."""
    m = np.asarray(m)
    if not (complex_ok and np.iscomplexobj(m)):
        m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{who}: expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericError(f"{who}: matrix contains non-finite entries")
    check_dense_cap(m.shape[0], who)
    return m


def symmetrize(y):
    """Return (Y + Y^T)/2, first checking the asymmetry is roundoff-sized."""
    y = _square(y, "symmetrize")
    scale = np.linalg.norm(y)
    if scale > 0 and np.abs(y - y.T).max() > SYM_CHECK_TOL * scale:
        raise NumericError("matrix is not symmetric to within tolerance")
    return 0.5 * (y + y.T)


def expm(m):
    """Matrix exponential by scaling and squaring with a Pade approximant."""
    m = _square(m, "expm")
    e = sla.expm(m)
    if not np.isfinite(e).all():
        raise NumericError("expm overflowed")
    return e


def phi1(m):
    """psi_1(M) = M^{-1}(e^M - I), with psi_1(0) = I.

    Evaluated as the top-right block of exp([[M, I], [0, 0]]), which stays
    accurate for singular and near-singular M.
    """
    m = _square(m, "phi1")
    k = m.shape[0]
    aug = np.zeros((2 * k, 2 * k))
    aug[:k, :k] = m
    aug[:k, k:] = np.eye(k)
    return expm(aug)[:k, k:]


def _checked_divisors(lam):
    """-(lambda_i + lambda_j), the divisors of a Lyapunov solve in eigen
    coordinates.  Raises IllPosedError when some pair is ~0."""
    pair = lam[:, None] + lam[None, :]
    pair_min = np.abs(pair).min()
    scale = max(1.0, float(np.abs(lam).max()))
    if pair_min <= 1e-12 * scale:
        raise IllPosedError(
            f"Lyapunov operator is singular: min |lambda_i + lambda_j| = {pair_min:.3e}"
        )
    return -pair


class _OwnCoordinates:
    """A reduction's T in the reduction's own coordinates.  The Lyapunov
    divisors, and with them the singularity test, are computed once per form."""

    @cached_property
    def divisors(self):
        return _checked_divisors(self.lam)


@dataclass(frozen=True)
class DiagonalForm(_OwnCoordinates):
    """T = diag(lam): T on the eigen form, in the coordinates of X."""

    lam: np.ndarray

    def shifted(self, c, d):
        return DiagonalForm(c * self.lam + d)


@dataclass(frozen=True)
class TriangularForm(_OwnCoordinates):
    """T = S, quasi-upper-triangular with eigenvalues lam: T on the real
    Schur form, in the coordinates of U."""

    s: np.ndarray
    lam: np.ndarray

    def shifted(self, c, d):
        s = c * self.s
        s.flat[:: s.shape[0] + 1] += d
        return TriangularForm(s, c * self.lam + d)


@dataclass(frozen=True)
class Reduction:
    """One reduction T = X F X^{-1} of a small T, with F = ``own`` the
    DiagonalForm of the eigen form (X, X^{-1} and lam real for a real
    spectrum, complex otherwise) or the TriangularForm of the real Schur form
    (X = U orthogonal, X^{-1} = U^T).  A kernel Y is Y = X G X^T for the G
    in F's coordinates."""

    x: np.ndarray
    xinv: np.ndarray
    own: _OwnCoordinates


def real_schur(t):
    """The real Schur reduction T = U S U^T, a Reduction(U, U^T, TriangularForm)."""
    t = _square(t, "real_schur")
    s, u = sla.schur(t, output="real")
    return Reduction(u, u.T, TriangularForm(s, np.linalg.eigvals(s)))


# Largest kappa_2(X) for which small_form keeps T = X diag(lam) X^{-1}.  A
# solve through X has forward error about k eps kappa(X)^2 ||Q|| / min|d_ij|,
# d_ij the divisors lambda_i + lambda_j of the diagonal solve.  Every BDF
# step operator h beta T - I/2 of a stable T has |d_ij| >= 1, so the gate
# costs at most a factor 1e2 over eps; past it the real Schur form is
# backward stable whatever X is.  The error is absolute: entries far below
# ||Y||, such as the last rows a residual bound reads at early nodes, lose
# their relative accuracy.  Against the Schur path on nonsymmetric random
# fixtures (n = 120-150), such bounds moved by up to 23 ||T_{m+1,m}||
# max||Y|| eps for kappa(X) < 10, and by up to 82 for kappa(X) in [10, 30).
EIG_COND_MAX = 10.0


def small_form(t):
    """One reduction of T and kappa_2(X): the eigen form
    Reduction(X, X^{-1}, DiagonalForm) when the eigenvector matrix X is
    conditioned within EIG_COND_MAX, else the real Schur form ``real_schur``."""
    t = _square(t, "small_form")
    lam, x = np.linalg.eig(t)
    cond = float(np.linalg.cond(x))
    if cond <= EIG_COND_MAX:
        return Reduction(x, np.linalg.inv(x), DiagonalForm(lam)), cond
    return real_schur(t), cond


def lyap_solve(form, q_mat):
    """Solve T G + G T^T + Q = 0 for T in a reduction's own coordinates.

    ``form`` is a Reduction's ``own``, or its ``shifted`` c T + d I, reused
    as it is; Q is symmetric, complex symmetric for a complex spectrum.  For
    a DiagonalForm the solve is one elementwise division
    G = Q / -(lambda_i + lambda_j), and for a TriangularForm one
    quasi-triangular Sylvester solve (LAPACK trsyl, Bartels-Stewart) with no
    complex arithmetic, G symmetrized.  The kernel in T's first coordinates
    is X G X^T, with X the Reduction's.  Raises IllPosedError when some
    eigenvalue pair satisfies lambda_i + lambda_j ~ 0.
    """
    q_mat = _square(q_mat, "lyap_solve", complex_ok=True)
    if q_mat.shape[0] != form.lam.shape[0]:
        raise DimensionError("lyap_solve: T and Q orders differ")
    divisors = form.divisors
    if isinstance(form, DiagonalForm):
        return q_mat / divisors
    x, sc, info = lapack.dtrsyl(form.s, form.s, -q_mat, tranb="T")
    if info < 0:
        raise IllPosedError(f"trsyl failed with info={info}")
    x /= sc
    return 0.5 * (x + x.T)


def _vanloan_segment(h, q_outer, t):
    """exp(t [[H, qq^T], [0, -H^T]]) read off as (Gram(t), e^{tH})."""
    k = h.shape[0]
    blk = np.zeros((2 * k, 2 * k))
    blk[:k, :k] = h
    blk[:k, k:] = q_outer
    blk[k:, k:] = -h.T
    p = sla.expm(t * blk)
    if not np.isfinite(p).all():
        raise NumericError("vanloan_gram: block exponential overflowed")
    w = p[:k, k:] @ p[:k, :k].T
    return 0.5 * (w + w.T), p[:k, :k]


# Largest ||t H||_1 handed to one block exponential; larger segments risk
# overflow of the e^{+tH^T} block and cancellation in the read-off product.
VANLOAN_THETA = 4.0

# Most segments one step may take.  Each segment costs one k x k congruence
# W <- W_d + E W E^T, about 4 k^3 flops, so 10^5 segments are about 4e5 k^3
# flops: seconds at k = 40 and about a minute at k = 100.  The test suite's
# largest step needs 2,118; far more means a horizon that the segmented
# accumulation cannot reach in useful time (tf = 1e308 asked for 2.5e305).
VANLOAN_MAX_SEGMENTS = 100_000


def _segment_count(h, t):
    scale = float(np.linalg.norm(h, 1))
    with np.errstate(over="ignore"):
        nseg = np.ceil(abs(t) * scale / VANLOAN_THETA)
    if not nseg <= VANLOAN_MAX_SEGMENTS:
        raise NumericError(f"vanloan_gram: a step of {t:.3g} with ||H||_1 = {scale:.3g} "
                           f"needs {nseg:.3g} segments, more than {VANLOAN_MAX_SEGMENTS}")
    return max(1, int(nseg))


def _finite(w, what):
    if not np.isfinite(w).all():
        raise NumericError(f"vanloan_gram: {what} overflowed")
    return w


def vanloan_gram(h, q, t):
    """Gramian integral int_0^t e^{sH} qq^T e^{sH^T} ds, symmetric PSD.

    ``q`` may be a vector (rank-one integrand) or an k x r matrix.  The
    integral is accumulated over segments short enough that each block
    exponential stays well scaled, so stiff H and large t are safe.
    """
    h = _square(h, "vanloan_gram")
    k = h.shape[0]
    if t < 0:
        raise ValueError("vanloan_gram: t must be nonnegative")
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    if q.shape[0] != k:
        raise DimensionError("vanloan_gram: q does not match the order of H")
    if t == 0:
        return np.zeros((k, k))
    q_outer = q @ q.T
    nseg = _segment_count(h, t)
    d = t / nseg
    wd, ed = _vanloan_segment(h, q_outer, d)
    w = wd
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nseg - 1):
            w = wd + ed @ w @ ed.T
            w = 0.5 * (w + w.T)
    return _finite(w, "the Gramian")


def vanloan_gram_nodes(h, q, step, nsteps):
    """Gramians at t_k = k*step for k = 0..nsteps, plus the propagators e^{t_k H}.

    Uses the splitting W(t + s) = W(s) + e^{sH} W(t) e^{sH^T} so the block
    exponential is evaluated once, not per node.  Raises NumericError when a
    step needs more than VANLOAN_MAX_SEGMENTS segments or a Gramian overflows.
    """
    h = _square(h, "vanloan_gram_nodes")
    k = h.shape[0]
    if step <= 0 or nsteps < 0:
        raise ValueError("vanloan_gram_nodes: need step > 0 and nsteps >= 0")
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    q_outer = q @ q.T
    nseg = _segment_count(h, step)
    d = step / nseg
    wd, ed = _vanloan_segment(h, q_outer, d)
    wh, eh = wd, ed
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nseg - 1):
            wh = wd + ed @ wh @ ed.T
            eh = ed @ eh
        wh = _finite(0.5 * (wh + wh.T), "the Gramian of one step")
        grams = [np.zeros((k, k))]
        props = [np.eye(k)]
        for _ in range(nsteps):
            w = wh + eh @ grams[-1] @ eh.T
            grams.append(_finite(0.5 * (w + w.T), "the Gramian"))
            props.append(eh @ props[-1])
    return grams, props


def lognorm2(a):
    """2-logarithmic norm, half the largest eigenvalue of A + A^T."""
    a = _square(a, "lognorm2")
    return 0.5 * float(np.linalg.eigvalsh(a + a.T).max())


@dataclass(frozen=True)
class LowRankFactor:
    """Z and a +/-1 signature with Y ~ Z diag(signs) Z^T, columns by decreasing weight."""

    z: np.ndarray
    signs: np.ndarray

    @property
    def rank(self):
        return self.z.shape[1]


def trunc_sym_factor(y, tol):
    """Spectrally truncated factorization of a symmetric matrix.

    Keeps eigenpairs with |lambda| > tol * |lambda|_max and returns
    Z = U sqrt(|lambda|) together with sign(lambda), so the reconstruction
    error satisfies ||Y - Z diag(signs) Z^T||_2 <= tol * |lambda|_max.
    """
    y = symmetrize(y)
    lam, u = np.linalg.eigh(y)
    amax = np.abs(lam).max() if lam.size else 0.0
    keep = np.abs(lam) > tol * amax
    lam, u = lam[keep], u[:, keep]
    order = np.argsort(-np.abs(lam))
    lam, u = lam[order], u[:, order]
    z = u * np.sqrt(np.abs(lam))
    signs = np.where(lam >= 0, 1.0, -1.0)
    return LowRankFactor(z, signs)
