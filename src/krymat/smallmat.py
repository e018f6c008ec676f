"""Dense small-scale kernels.

Matrix exponential and the first exponential-integrator function, one
orthogonal reduction T = X F X^T of a small T (``Reduction``), to eigen form
for an exactly symmetric T and to real Schur form for every other T,
algebraic Lyapunov solves with T in the reduction's own coordinates F
(diagonal or quasi-triangular), which shifted operators c T + d I reuse,
Gramian integrals by the Van Loan block exponential of one short segment
doubled up to a step, the 2-logarithmic norm and truncated symmetric
factorizations.  Everything here is dense and real, and every kernel refuses
a matrix of order above DENSE_CAP at its input gate.
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


def _square(m, who):
    """The input gate of every kernel: a finite real square matrix within the cap."""
    m = np.asarray(m, dtype=float)
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


def _expm(m, who):
    """scipy's expm of a matrix that a kernel built from its gated input,
    not checked against the cap again: the cap bounds the order the kernel
    was given.  An overflow is a NumericError naming ``who``."""
    with np.errstate(over="ignore", invalid="ignore"):    # the check below reports it
        e = sla.expm(m)
    if not np.isfinite(e).all():
        raise NumericError(f"{who} overflowed")
    return e


def expm(m):
    """Matrix exponential by scaling and squaring with a Pade approximant."""
    return _expm(_square(m, "expm"), "expm")


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
    return _expm(aug, "expm")[:k, k:]


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
    """One orthogonal reduction T = X F X^T of a small T, with F = ``own``
    the DiagonalForm of the symmetric eigen form or the TriangularForm of the
    real Schur form (X = U).  X is real and orthogonal, so a kernel Y is
    Y = X G X^T for the G = X^T Y X in F's coordinates."""

    x: np.ndarray
    own: _OwnCoordinates


def real_schur(t):
    """The real Schur reduction T = U S U^T, a Reduction(U, TriangularForm)."""
    t = _square(t, "real_schur")
    s, u = sla.schur(t, output="real")
    return Reduction(u, TriangularForm(s, np.linalg.eigvals(s)))


def small_form(t):
    """One orthogonal reduction of T: for an exactly symmetric T the
    symmetric eigensolver, Reduction(X, DiagonalForm(lam)) with
    T = X diag(lam) X^T; for every other T the real Schur form
    ``real_schur``, which is backward stable whatever T's eigenvectors
    (Bartels & Stewart 1972)."""
    t = _square(t, "small_form")
    if np.array_equal(t, t.T):
        lam, x = np.linalg.eigh(t)
        return Reduction(x, DiagonalForm(lam))
    return real_schur(t)


def lyap_solve(form, q_mat):
    """Solve T G + G T^T + Q = 0 for T in a reduction's own coordinates.

    ``form`` is a Reduction's ``own``, or its ``shifted`` c T + d I, reused
    as it is; Q is real symmetric.  For a DiagonalForm the solve is one
    elementwise division G = Q / -(lambda_i + lambda_j), and for a
    TriangularForm one quasi-triangular Sylvester solve (LAPACK trsyl,
    Bartels-Stewart), G symmetrized.  The kernel in T's first coordinates is
    X G X^T, with X the Reduction's.  Raises IllPosedError when some
    eigenvalue pair satisfies lambda_i + lambda_j ~ 0.
    """
    q_mat = _square(q_mat, "lyap_solve")
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


def _vanloan_segment(h, q, t):
    """exp(t [[H, qq^T], [0, -H^T]]) read off as (Gram(t), e^{tH}).  It runs
    under its caller's errstate: an overflow shows as a non-finite block
    exponential, which ``_expm`` reports, or Gramian, which the caller does."""
    k = h.shape[0]
    blk = np.zeros((2 * k, 2 * k))
    blk[:k, :k] = h
    blk[k:, k:] = -h.T
    blk[:k, k:] = q @ q.T
    p = _expm(t * blk, "vanloan_gram_nodes: block exponential")
    w = p[:k, k:] @ p[:k, :k].T
    return 0.5 * (w + w.T), p[:k, :k]


# Largest ||t H||_1 handed to one block exponential; larger segments risk
# overflow of the e^{+tH^T} block and cancellation in the read-off product:
# for H = -1, q = 1 one segment of 4 reads the Gramian 1.0e-12 relative off,
# two doublings of a segment of 1 read it exactly.
VANLOAN_THETA = 1.0

# Most doublings one step may take.  Doublings are cheap, so the cap only
# refuses a span that is a mistaken horizon, not a step: 19 admit every
# step that 10^5 sequential segments of 4 did, 64 admit ||H||_1 step up to
# 2^64 (1.8e19), and tf = 1e308 with ||H||_1 = 1 asks for 1024.
VANLOAN_MAX_DOUBLINGS = 64


def _finite(w, what):
    if not np.isfinite(w).all():
        raise NumericError(f"vanloan_gram_nodes: {what} overflowed")
    return w


def vanloan_gram_nodes(h, q, step, nsteps):
    """Gramians int_0^{t_k} e^{sH} qq^T e^{sH^T} ds at t_k = k*step for
    k = 0..nsteps: one stack, exactly symmetric at each node, allocated first
    so that a grid too large to hold fails at once.  ``q`` is a vector or a
    k x r matrix of H's row count.

    One block exponential gives the Gramian W(d) and e^{dH} of a segment
    d = step / 2^j short enough to stay well scaled, so stiff H and long
    steps are safe.  j doublings W(2d) = W(d) + e^{dH} W(d) e^{dH^T},
    e^{2dH} = (e^{dH})^2 bring them to one step (Van Loan 1978), and the
    nodes follow from W(t + s) = W(s) + e^{sH} W(t) e^{sH^T}, s = step.
    Raises NumericError when a step needs more than VANLOAN_MAX_DOUBLINGS
    doublings or a Gramian overflows.
    """
    if not (np.isfinite(step) and step > 0) or nsteps < 0:
        raise ValueError("vanloan_gram_nodes: need step > 0 and nsteps >= 0")
    h = _square(h, "vanloan_gram_nodes")
    q = np.asarray(q, dtype=float).reshape(len(q), -1)
    if q.shape[0] != h.shape[0]:
        raise DimensionError("vanloan_gram_nodes: q does not match the order of H")
    scale = float(np.linalg.norm(h, 1))
    span = float(step) * scale / VANLOAN_THETA   # inf past the float range
    j = np.ceil(np.log2(span)) if span > 1 else 0
    if not j <= VANLOAN_MAX_DOUBLINGS:
        raise NumericError(f"vanloan_gram_nodes: a step of {step:.3g} with ||H||_1 = {scale:.3g} "
                           f"needs {j:.0f} doublings, more than {VANLOAN_MAX_DOUBLINGS}")
    grams = np.zeros((nsteps + 1, len(h), len(h)))
    with np.errstate(over="ignore", invalid="ignore"):
        wh, eh = _vanloan_segment(h, q, step / 2.0 ** j)
        for _ in range(int(j)):
            wh = wh + eh @ wh @ eh.T
            wh = 0.5 * (wh + wh.T)
            eh = eh @ eh
        wh = _finite(wh, "the Gramian of one step")
        for i in range(nsteps):
            w = wh + eh @ grams[i] @ eh.T
            grams[i + 1] = _finite(0.5 * (w + w.T), "the Gramian")
    return grams


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


def joint_sym_factor(ys, tol):
    """Truncated factorizations of a stack of symmetric matrices on one basis.

    Returns (Q, factors): Q is k x s with orthonormal columns, 1 <= s <= k,
    and ``factors`` holds one LowRankFactor (Z_k, signs_k) a matrix, with
    ||Y_k - Q Z_k diag(signs_k) Z_k^T Q^T||_2 <= tol ||Y_k||_2.  Half of tol
    goes to the shared range and half to the factors.  The columns of Q are
    the leading left singular vectors U of M = [Y_1/||Y_1||_2, Y_2/||Y_2||_2,
    ...] (a zero Y_k stays zero).  The first s0 of them, those whose singular
    value exceeds tol/4 and at least one, give ||(I - QQ^T) Y_k||_2 <=
    (tol/4) ||Y_k||_2, so every Y_k moves by at most (tol/2) ||Y_k||_2 when
    projected on both sides.  A direction that all N nodes share weighs up
    to sqrt(N) times more in M than in any one node, so s steps down from s0
    while each node's exact two-sided error ||Y_k - P Y_k P||_2, P = QQ^T,
    stays within (tol/2) ||Y_k||_2, and stops at the first s that fails.
    That error is the norm of R_k = U^T Y_k U with its leading s x s block
    set to zero.  Its Frobenius norm bounds it, and ``eigvalsh`` settles
    only the nodes that the Frobenius norm leaves over budget.  The factors
    are ``trunc_sym_factor`` at tol/2 of the leading s x s block of R_k,
    which is Q^T Y_k Q.  The SVD is taken of M, not of sum Y_k^2: squared
    singular values near tol^2 would drown in roundoff.  As the Y_k are
    symmetric, M^T is the stack [Y_1; Y_2; ...] scaled row block by row
    block, and its right singular vectors are U.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 3 or ys.shape[1] != ys.shape[2]:
        raise DimensionError(f"joint_sym_factor: expected a stack of square matrices, "
                             f"got shape {ys.shape}")
    k = ys.shape[1]
    check_dense_cap(k, "joint_sym_factor")
    if not np.isfinite(ys).all():
        raise NumericError("joint_sym_factor: matrix contains non-finite entries")
    asym = np.abs(ys - ys.transpose(0, 2, 1)).max(axis=(1, 2))
    if (asym > SYM_CHECK_TOL * np.linalg.norm(ys, axis=(1, 2))).any():
        raise NumericError("joint_sym_factor: matrix is not symmetric to within tolerance")
    norms = np.linalg.norm(ys, 2, axis=(1, 2))
    scaled = ys / np.where(norms > 0, norms, 1.0)[:, None, None]
    _, sig, vt = np.linalg.svd(scaled.reshape(-1, k), full_matrices=False)
    rot = vt @ ys @ vt.T
    budget = tol / 2 * norms
    # tails[:, s]: squared Frobenius norm of R_k off its leading s x s block,
    # summed shell by shell (entries with max(i, j) = l) so nothing cancels
    sq = rot * rot
    shells = np.tril(sq).sum(axis=2) + np.triu(sq, 1).sum(axis=1)
    tails = np.cumsum(shells[:, ::-1], axis=1)[:, ::-1]
    s = max(1, int(np.count_nonzero(sig > tol / 4)))
    while s > 1:
        over = np.flatnonzero(np.sqrt(tails[:, s - 1]) > budget)
        rest = rot[over]
        rest[:, : s - 1, : s - 1] = 0.0
        if (np.abs(np.linalg.eigvalsh(rest)).max(axis=1) > budget[over]).any():
            break
        s -= 1
    return vt[:s].T, [trunc_sym_factor(r, tol / 2) for r in rot[:, :s, :s]]
