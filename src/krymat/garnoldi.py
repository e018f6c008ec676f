"""Global Arnoldi process for a general linear matrix operator.

Builds an F-orthonormal basis V_1, V_2, ... of the matrix Krylov subspace
spanned by {V, op(V), op^2(V), ...} together with the rectangular upper
Hessenberg matrix of orthogonalization coefficients.  Each new block is
orthogonalized by the block CGS2 kernel against the column-major store.  The
process object is incremental so solvers can grow the basis one step at a time
and reuse all previous work.  ``KrylovProcess`` holds what it shares with
the extended process.
"""

import numpy as np

from .blockmat import BlockStore, cgs2
from .errors import DimensionError

BREAKDOWN_FACTOR = 1e-14


class KrylovProcess:
    """Seed check, basis store, growth and projected matrix of an Arnoldi
    process.  The store is allocated once for ``m_max`` steps of ``per_step``
    blocks, and the process runs no further.  Each ``step()`` that counts
    appends to ``_cols`` the ``per_step`` columns of the rectangular projected
    matrix it completes; one that does not count appends none."""

    per_step = 1

    def _start(self, seed, m_max, what):
        """Check the seed and allocate the store; returns the 2-D seed and its norm."""
        seed = np.asarray(seed, dtype=float)
        if seed.ndim == 1:
            seed = seed[:, None]
        norm = float(np.linalg.norm(seed))
        if norm == 0.0:
            raise ValueError(f"{what} needs a nonzero seed")
        self.m_max = m_max
        self.breakdown = False
        self._cols = []
        self._store = BlockStore(*seed.shape, m_max, self.per_step)
        return seed, norm

    @property
    def m(self):
        """Steps completed."""
        return len(self._cols) // self.per_step

    def advance_to(self, m):
        """Extend to m completed steps; returns the number actually completed."""
        if m > self.m_max:
            raise DimensionError(f"cannot advance to {m} steps past m_max = {self.m_max}")
        while self.m < m and self.step():
            pass
        return self.m

    def basis(self, nblocks=None):
        """BlockRow of the first ``nblocks`` basis blocks (all by default), a view."""
        return self._store.view(nblocks)

    def hessenberg(self, m):
        """(T_m, coupling) after m steps: with s = ``per_step`` and k = s m, the
        top k x k and the bottom-right s x s blocks of the (k + s) x k
        projected matrix.  Step j records columns of at most s (j + 2) entries."""
        if not 1 <= m <= self.m:
            raise DimensionError(f"only {self.m} steps completed, asked for {m}")
        s = self.per_step
        k = s * m
        t = np.zeros((k + s, k))
        for i, col in enumerate(self._cols[:k]):
            t[: len(col), i] = col
        return t[:k], t[k:, k - s :].copy()


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
        self._store.append(seed / self.beta)

    def step(self):
        """Run one Arnoldi step.  Returns False on (lucky) breakdown."""
        if self.breakdown:
            return False
        j = self.m
        v_j = self._store.view(j + 1)
        w = np.asarray(self.op(v_j.block(j)), dtype=float)
        if w.shape != (v_j.n, v_j.width):
            raise DimensionError("operator changed the block shape")
        w = w.flatten(order="F")         # a copy: op may return a view of V_j
        wnorm0 = float(np.linalg.norm(w))
        col = np.zeros(j + 2)
        col[: j + 1] = cgs2(v_j.flat(), w)
        hnext = float(np.linalg.norm(w))
        self.breakdown = hnext <= BREAKDOWN_FACTOR * wnorm0
        col[j + 1] = 0.0 if self.breakdown else hnext
        self._cols.append(col)
        if self.breakdown:
            return False
        self._store.append(w / hnext)
        return True

    def projection(self, m):
        """(V_m, H_m, coupling) after m steps: the basis view, the m x m
        Hessenberg matrix and the 1 x 1 block [[h_{m+1,m}]] (zero after a
        breakdown) that couples V_{m+1} into the rectangular relation."""
        hm, coupling = self.hessenberg(m)
        return self.basis(m), hm, coupling
