"""Block-matrix algebra over the Frobenius inner product.

A block row stacks m matrices of common shape n x s side by side into one
n x (m*s) array.  Stored column-major, each block is one contiguous n*s chunk
and vec(V_j) is column j of the (n*s, m) view ``flat()``.  The kernels are
dense products on that view: diamond is flat(Z)^T flat(W), V (S kron I_s) is
flat(V) S, ``sub_product`` subtracts flat(V) C in place, and ``cgs2`` runs
classical Gram-Schmidt twice on its columns.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import blas

from .errors import ConfigError, DimensionError, NumericError

DEFAULT_RANK_TOL = 1e-12


def frob_inner(y, z):
    """Frobenius inner product tr(Y^T Z) of two equally shaped matrices."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape:
        raise DimensionError(f"frob_inner: shapes {y.shape} and {z.shape} differ")
    return float(np.sum(y * z))


@dataclass(frozen=True)
class BlockRow:
    """m blocks of shape n x width side by side in one n x (m*width) array.

    Block j is columns j*width:(j+1)*width of ``data``.  The entries are
    checked for finiteness on construction unless ``checked`` says they were
    checked already, as for views of a BlockStore or of another block row.
    """

    data: np.ndarray
    width: int
    checked: bool = field(default=False, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionError(f"block row needs a 2-d array, got shape {data.shape}")
        if self.width < 1 or data.shape[1] % self.width != 0:
            raise DimensionError(
                f"{data.shape[1]} columns do not split into blocks of width {self.width}"
            )
        if not self.checked and not np.isfinite(data).all():
            raise NumericError("block row contains non-finite entries")

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def m(self):
        return self.data.shape[1] // self.width

    def block(self, j):
        """The j-th block (0-based), a view of shape n x width."""
        s = self.width
        return self.data[:, j * s : (j + 1) * s]

    def flat(self):
        """(n*width, m) array whose column j is vec(block j); a view of
        column-major data, a copy otherwise."""
        return self.data.reshape(self.n * self.width, self.m, order="F")

    def narrow(self, m):
        """Block row made of the first m blocks (shares storage)."""
        if not 1 <= m <= self.m:
            raise DimensionError(f"cannot narrow {self.m} blocks to {m}")
        return replace(self, data=self.data[:, : m * self.width], checked=True)


@dataclass(frozen=True)
class BlockBasis(BlockRow):
    """Block row whose blocks are F-orthonormal."""

    def orth_defect(self):
        """|| V^T diamond V - I ||_F, the F-orthonormality defect."""
        g = diamond(self, self)
        return float(np.linalg.norm(g - np.eye(self.m)))


class BlockStore:
    """Column-major stack of n x width blocks, the storage of a basis.

    The blocks live in one Fortran-ordered buffer, so the first k of them are a
    view and ``view(k).flat()`` needs no copy.  The buffer is allocated once,
    with ``np.empty``, for the blocks of ``m_max`` steps of ``per_step`` blocks
    each after the ``per_step`` first ones.  It never holds more than the
    n*width independent blocks the space has, plus the ``per_step`` slots of
    one more step whose breakdown test could miss a roundoff remainder.  Pages
    that are never written cost no memory.  A block is checked for finiteness
    once, when it is appended; written blocks never change, so views stay
    valid.
    """

    def __init__(self, n, width, m_max, per_step=1):
        self.width = width
        self.m = 0
        capacity = min(per_step * m_max, n * width) + per_step
        try:
            self._buf = np.empty((n, capacity * width), order="F")
        except MemoryError:
            raise ConfigError(
                f"m_max = {m_max}: cannot allocate the Krylov basis, {capacity} blocks "
                f"of {n} x {width} ({capacity * n * width * 8 / 1e6:.6g} MB)") from None

    def append(self, block):
        """Copy in the next block, given as an n x width array or its vec."""
        n, s = self._buf.shape[0], self.width
        block = np.reshape(block, (n, s), order="F")
        if not np.isfinite(block).all():
            raise NumericError("basis block contains non-finite entries")
        used = self.m * s
        if used + s > self._buf.shape[1]:
            raise DimensionError(f"basis store is full at {self.m} blocks")
        self._buf[:, used : used + s] = block
        self.m += 1

    def view(self, k=None):
        """BlockBasis of the first k blocks (all by default), sharing the buffer."""
        k = self.m if k is None else k
        if not 1 <= k <= self.m:
            raise DimensionError(f"only {self.m} blocks available, asked for {k}")
        return BlockBasis(self._buf[:, : k * self.width], self.width, checked=True)


def cgs2(q, w):
    """Orthogonalize the columns of ``w`` against the orthonormal columns of
    ``q`` in place, by classical Gram-Schmidt twice: c = q^T w, w -= q c.

    Two passes keep w orthogonal to q at working precision ("twice is
    enough", Giraud, Langou and Rozloznik 2005).  Returns the summed
    coefficients, so that w on entry equals q c + w on return.
    """
    # np.dot, not @: matmul runs a one-column q through a loop about six
    # times slower than the BLAS product np.dot calls
    c = q.T @ w
    w -= np.dot(q, c)
    d = q.T @ w
    w -= np.dot(q, d)
    return c + d


def sub_product(w, q, c):
    """w -= q c in place, as one BLAS dgemm with beta = 1.

    ``w`` must be column-major (as the flat views of a store or of a
    Fortran-ordered block row are); no n-row temporary is made then.
    """
    out = blas.dgemm(-1.0, q, c, 1.0, w, overwrite_c=True)
    if out is not w:               # dgemm worked on a copy of a non-Fortran w
        w[...] = out


def diamond(zb, wb):
    """Blockwise inner-product matrix [<Z_i, W_j>_F] of two block rows.

    The result is an m x l dense array, one GEMM on the flat views.
    """
    if zb.n != wb.n or zb.width != wb.width:
        raise DimensionError(
            f"diamond: incompatible operands n={zb.n}/{wb.n}, width={zb.width}/{wb.width}"
        )
    # (W^T Z)^T is Z^T W; this operand order makes the faster product
    return (wb.flat().T @ zb.flat()).T


def kron_apply(vb, s_mat):
    """Evaluate V (S kron I_width) blockwise, without forming the Kronecker product.

    The j-th output block is sum_i S[i, j] * V_i; the result has S.shape[1]
    blocks of the same width as ``vb``.
    """
    s_mat = np.asarray(s_mat, dtype=float)
    if s_mat.ndim == 1:
        s_mat = s_mat[:, None]
    if s_mat.shape[0] != vb.m:
        raise DimensionError(
            f"kron_apply: S has {s_mat.shape[0]} rows but V has {vb.m} blocks"
        )
    # (S^T flat(V)^T)^T is flat(V) S laid out column-major, so the reshape
    # back to n x (q*width) is a view
    out = (s_mat.T @ vb.flat().T).T
    return BlockRow(out.reshape(vb.n, -1, order="F"), vb.width)


def global_qr(zb, tol=DEFAULT_RANK_TOL, scale=None):
    """Global QR factorization Z = Q (R kron I_width) by block CGS2.

    Returns ``(q, r, deficient)`` where ``q`` is a BlockBasis, ``r`` the m x m
    upper triangular coefficient matrix and ``deficient`` the tuple of block
    indices whose remainder fell below ``tol`` times the reference scale
    (``||Z||_F`` unless a caller supplies ``scale``, a scalar or one value per
    block, as the Arnoldi processes do for already-orthogonalized remainders).
    Deficient blocks are zero in ``q``, so later blocks get no component
    along them; the caller decides how to treat the rank drop.
    """
    n, m, s = zb.n, zb.m, zb.width
    if scale is None:
        scales = np.full(m, float(np.linalg.norm(zb.data)))
    else:
        scales = np.broadcast_to(np.asarray(scale, dtype=float), (m,))
    # one working copy: each column is orthogonalized and normalized (or
    # zeroed) in place against the finished columns before it
    q = np.array(zb.flat(), order="F")
    r = np.zeros((m, m))
    deficient = []
    for j in range(m):
        w = q[:, j]
        if j:                     # column 0 has nothing to be orthogonalized against
            r[:j, j] = cgs2(q[:, :j], w)
        rjj = float(np.linalg.norm(w))
        r[j, j] = rjj
        if rjj <= tol * scales[j]:
            deficient.append(j)
            w[:] = 0.0
        else:
            w /= rjj
    return BlockBasis(q.reshape(n, m * s, order="F"), s), r, tuple(deficient)
