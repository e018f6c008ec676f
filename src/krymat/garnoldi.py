"""Global Arnoldi process for a general linear matrix operator.

Builds an F-orthonormal basis V_1, V_2, ... of the matrix Krylov subspace
spanned by {V, op(V), op^2(V), ...} together with the rectangular upper
Hessenberg matrix of orthogonalization coefficients.  Each new block is
orthogonalized by the block CGS2 kernel against the column-major store.  The
process object is incremental so solvers can grow the basis one step at a time
and reuse all previous work.
"""

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockStore, cgs2
from .errors import DimensionError

DEFAULT_BREAKDOWN_FACTOR = 1e-14


@dataclass(frozen=True)
class HessenbergData:
    """(m+1) x m upper Hessenberg reduction with its subdiagonal coupling term."""

    m: int
    htilde: np.ndarray
    h_sub: float
    breakdown: bool

    @property
    def hm(self):
        """Square part, htilde with the last row deleted."""
        return self.htilde[: self.m, :]


class GlobalArnoldi:
    """Incremental global Arnoldi for an operator on n x p matrices.

    ``op`` maps an n x p array to an n x p array and must be linear.  After
    ``advance_to(m)`` the object holds m+1 basis blocks (or fewer on
    breakdown) and the coefficients h[i][j].  Breakdown is declared at step j
    when h_{j+1,j} <= tol * ||op(V_j)||_F.
    """

    def __init__(self, op, seed, tol=DEFAULT_BREAKDOWN_FACTOR):
        seed = np.asarray(seed, dtype=float)
        if seed.ndim == 1:
            seed = seed[:, None]
        beta = float(np.linalg.norm(seed))
        if beta == 0.0:
            raise ValueError("global Arnoldi needs a nonzero seed block")
        self.op = op
        self.beta = beta
        self.tol = tol
        self._store = BlockStore(*seed.shape)
        self._store.append(seed / beta)
        self._hcols = []
        self.breakdown = False

    @property
    def m(self):
        """Steps completed."""
        return len(self._hcols)

    @property
    def nblocks(self):
        return self._store.m

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
        col[j + 1] = hnext
        self._hcols.append(col)
        if hnext <= self.tol * wnorm0:
            col[j + 1] = 0.0
            self.breakdown = True
            return False
        self._store.append(w / hnext)
        return True

    def advance_to(self, m):
        """Extend to m completed steps; returns the number actually completed."""
        while self.m < m and self.step():
            pass
        return self.m

    def basis(self, nblocks=None):
        """BlockBasis of the first ``nblocks`` basis blocks (all by default), a view."""
        return self._store.view(nblocks)

    def hessenberg(self, m=None):
        m = self.m if m is None else m
        if not 1 <= m <= self.m:
            raise DimensionError(f"only {self.m} steps completed, asked for {m}")
        htilde = np.zeros((m + 1, m))
        for j in range(m):
            col = self._hcols[j]
            htilde[: len(col), j] = col
        h_sub = float(htilde[m, m - 1])
        broke = self.breakdown and m == self.m
        return HessenbergData(m, htilde, h_sub, broke)


def global_arnoldi(op, seed, m, tol=DEFAULT_BREAKDOWN_FACTOR):
    """Run m steps of the global Arnoldi algorithm.

    Returns ``(basis, hess)`` where ``basis`` holds every generated block
    (m+1 of them, or fewer if the process broke down at an invariant
    subspace) and ``hess`` the corresponding Hessenberg data.
    """
    proc = GlobalArnoldi(op, seed, tol)
    done = proc.advance_to(m)
    return proc.basis(), proc.hessenberg(done)
