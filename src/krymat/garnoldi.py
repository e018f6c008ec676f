"""Global Arnoldi process for a general linear matrix operator.

Builds an F-orthonormal basis V_1, V_2, ... of the matrix Krylov subspace
spanned by {V, op(V), op^2(V), ...} together with the rectangular upper
Hessenberg matrix of orthogonalization coefficients.  Each new block is
orthogonalized by the block CGS2 kernel against the column-major basis.  The
process object is incremental so solvers can grow the basis one step at a time
and reuse all previous work.  ``KrylovProcess`` holds what it shares with
the extended process.
"""

import numpy as np

from .blockmat import BlockRow, cgs2
from .errors import ConfigError, DimensionError, NumericError

BREAKDOWN_FACTOR = 1e-14


class KrylovProcess:
    """Seed check, basis buffer, growth and projected matrix of an Arnoldi
    process.  The n x ``width`` basis blocks live in one Fortran-ordered
    buffer, so the first k are a view whose ``flat()`` is no copy.
    ``np.empty`` allocates it once, for ``m_max`` steps of ``per_step`` blocks
    after the first ``per_step``, capped at the n*width blocks the space has
    plus one step whose breakdown test could miss a roundoff remainder;
    unwritten pages cost no memory.  A block is checked for finiteness when
    it is appended and never changes after, so views stay valid.

    The rectangular projected matrix sits beside it in ``_t``, zero-filled
    and Fortran-ordered: a ``step()`` that counts writes its ``per_step``
    columns there after appending its blocks, and a written column never
    changes; one that does not count writes none."""

    per_step = 1

    def _start(self, seed, m_max, what):
        """Check the seed and allocate the basis; returns the 2-D seed and its norm."""
        seed = np.asarray(seed, dtype=float)
        if seed.ndim == 1:
            seed = seed[:, None]
        norm = float(np.linalg.norm(seed))
        if norm == 0.0:
            raise ValueError(f"{what} needs a nonzero seed")
        self.m_max = m_max
        self.breakdown = False
        self.m = 0                       # steps completed
        self._nblocks = 0
        n, self.width = seed.shape
        capacity = min(self.per_step * m_max, n * self.width) + self.per_step
        try:
            self._buf = np.empty((n, capacity * self.width), order="F")
            # a row and column to spare: a global breakdown step appends no block
            self._t = np.zeros((capacity + 1, capacity + 1 - self.per_step), order="F")
        except MemoryError:
            raise ConfigError(
                f"m_max = {m_max}: cannot allocate the Krylov basis, {capacity} blocks "
                f"of {n} x {self.width} ({capacity * n * self.width * 8 / 1e6:.6g} MB)") from None
        return seed, norm

    def _append(self, block):
        """Copy in the next basis block, given as an n x width array or its vec."""
        s, k = self.width, self._nblocks
        block = np.reshape(block, (self._buf.shape[0], s), order="F")
        if not np.isfinite(block).all():
            raise NumericError("basis block contains non-finite entries")
        if (k + 1) * s > self._buf.shape[1]:
            raise DimensionError(f"the basis is full at {k} blocks")
        self._buf[:, k * s : (k + 1) * s] = block
        self._nblocks += 1

    def advance_to(self, m):
        """Extend to m completed steps; returns the number actually completed."""
        if m > self.m_max:
            raise DimensionError(f"cannot advance to {m} steps past m_max = {self.m_max}")
        while self.m < m and self.step():
            pass
        return self.m

    def basis(self, nblocks=None):
        """BlockRow of the first ``nblocks`` basis blocks (all by default), a view."""
        k = self._nblocks if nblocks is None else nblocks
        if not 1 <= k <= self._nblocks:
            raise DimensionError(f"only {self._nblocks} blocks available, asked for {k}")
        return BlockRow(self._buf[:, : k * self.width], self.width, checked=True)

    # the steps read the basis under a name that bench/spans.py does not
    # wrap, so that the traced ``basis`` counts the solvers' reads alone
    _view = basis

    def hessenberg(self, m):
        """(T_m, coupling) after m steps: with s = ``per_step`` and k = s m, the
        top k x k and the bottom-right s x s blocks of the (k + s) x k
        projected matrix, as copies."""
        if not 1 <= m <= self.m:
            raise DimensionError(f"only {self.m} steps completed, asked for {m}")
        s = self.per_step
        k = s * m
        return self._t[:k, :k].copy(), self._t[k : k + s, k - s : k].copy()


class GlobalArnoldi(KrylovProcess):
    """Incremental global Arnoldi for an operator on n x p matrices.

    ``op`` maps an n x p array to an n x p array and must be linear.  After
    ``advance_to(m)`` the object holds m+1 basis blocks (or fewer on
    breakdown) and the coefficients h[i][j].  Breakdown is declared at step j
    when h_{j+1,j} <= BREAKDOWN_FACTOR * ||op(V_j)||_F; that step still
    counts, with h_{j+1,j} = 0.  ``beta`` = ||seed||_F is the seed's
    coefficient on V_1.
    """

    def __init__(self, op, seed, m_max):
        seed, self.beta = self._start(seed, m_max, "global Arnoldi")
        self.op = op
        self._append(seed / self.beta)

    def step(self):
        """Run one Arnoldi step.  Returns False on (lucky) breakdown."""
        if self.breakdown:
            return False
        j = self.m
        v_j = self._view(j + 1)
        w = np.asarray(self.op(v_j.block(j)), dtype=float)
        if w.shape != (v_j.n, v_j.width):
            raise DimensionError("operator changed the block shape")
        w = w.flatten(order="F")         # a copy: op may return a view of V_j
        wnorm0 = float(np.linalg.norm(w))
        h = cgs2(v_j.flat(), w)
        hnext = float(np.linalg.norm(w))
        self.breakdown = hnext <= BREAKDOWN_FACTOR * wnorm0
        if not self.breakdown:
            self._append(w / hnext)       # first: a refused block leaves the step uncounted
            self._t[j + 1, j] = hnext
        self._t[: j + 1, j] = h
        self.m += 1
        return not self.breakdown

    def projection(self, m):
        """(V_m, H_m, coupling) after m steps: the basis view, the m x m
        Hessenberg matrix and the 1 x 1 block [[h_{m+1,m}]] (zero after a
        breakdown) that couples V_{m+1} into the rectangular relation."""
        hm, coupling = self.hessenberg(m)
        return self.basis(m), hm, coupling
