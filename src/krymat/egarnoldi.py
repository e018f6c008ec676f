"""Extended global Arnoldi process.

Builds an F-orthonormal basis of the extended matrix Krylov subspace
span{A^{-m} B, ..., A^{-1} B, B, A B, ..., A^{m-1} B} from one sparse solve
and two matrix-vector products per step.  Each step contributes a block of
width 2p made of two width-p sub-blocks (the A-direction and the
A^{-1}-direction); the 2m x 2m block Hessenberg projection of A comes from
the orthogonalization coefficients for the A-direction columns and cached
direct projections for the A^{-1}-direction columns, never from divisions by
subdiagonal entries.
"""

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockRow, BlockStore, cgs2, diamond, global_qr
from .errors import DimensionError

# Truncation threshold for remainder blocks, relative to the pre-
# orthogonalization norm of their own direction.  Remainders near the square
# root of machine precision are dominated by rounding noise; admitting them
# destroys the Krylov structure of the basis (the algebraic relations degrade
# by eps divided by this ratio), so the process stops there and treats the
# span as invariant.
DEFAULT_BREAKDOWN_TOL = 1e-7


@dataclass(frozen=True)
class ExtHessenbergData:
    """Rectangular block Hessenberg reduction 2(m+1) x 2m of the extended process."""

    m: int
    ttilde: np.ndarray
    t_sub: np.ndarray        # 2 x 2 coupling block T_{m+1,m}
    r_init: np.ndarray       # 2 x 2 upper triangular from the seed QR
    breakdown: bool

    @property
    def tm(self):
        """Square part, ttilde with the last two rows deleted."""
        return self.ttilde[: 2 * self.m, :]


class ExtendedGlobalArnoldi:
    """Incremental extended global Arnoldi for a sparse A with prefactored solver.

    ``solver`` must provide ``solve(w)`` computing A^{-1} w (probio.LinearSolver).
    The sub-block width is the seed's column count.
    """

    def __init__(self, a, solver, seed, tol=DEFAULT_BREAKDOWN_TOL):
        seed = np.asarray(seed, dtype=float)
        if seed.ndim == 1:
            seed = seed[:, None]
        if np.linalg.norm(seed) == 0.0:
            raise ValueError("extended global Arnoldi needs a nonzero seed")
        self.a = a
        self.solver = solver
        self.width = seed.shape[1]
        self.tol = tol
        q0, r0, deficient = global_qr(
            BlockRow(np.hstack([seed, solver.solve(seed)]), self.width), tol)
        self.r_init = r0
        self._ccols = []          # per step: (2j+4) x 2 coefficient columns
        self._proj_cols = []      # per step: projections of A v_{2j+1}
        # a dependent seed block and A^{-1} image leave nothing to iterate on
        self.breakdown = bool(deficient)
        self._store = BlockStore(seed.shape[0], self.width)
        for j in range(2):
            if j not in deficient:
                self._store.append(q0.block(j))

    @property
    def m(self):
        """Completed steps (appended sub-block pairs)."""
        return (self.nsub - 2) // 2 if self.nsub >= 2 else 0

    @property
    def nsub(self):
        return self._store.m

    def step(self):
        """One extended Arnoldi step; False on breakdown."""
        if self.breakdown:
            return False
        j = self.m
        p = self.width
        basis = self._store.view(2 * j + 2)
        v_a, v_inv = basis.block(2 * j), basis.block(2 * j + 1)
        u = np.empty((basis.n, 2 * p), order="F")
        u[:, :p] = self.a @ v_a
        u[:, p:] = self.solver.solve(v_inv)
        halves = u.reshape(-1, 2, order="F")
        # the two halves can differ in scale by orders of magnitude (||A v||
        # vs ||A^{-1} v||), so the rank test is per half
        half_norm0 = np.linalg.norm(halves, axis=0)
        coeffs = np.zeros((2 * j + 4, 2))
        coeffs[: 2 * j + 2] = cgs2(basis.flat(), halves)
        # rank test against the pre-orthogonalization scale of each half: a
        # remainder tiny relative to its own direction signals an invariant
        # subspace; keeping it would admit a noise direction that spoils both
        # the basis and the Krylov structure
        qn, rn, deficient = global_qr(BlockRow(u, p), self.tol,
                                      scale=half_norm0)
        coeffs[2 * j + 2 :, :] = rn
        self._ccols.append(coeffs)
        # keep any independent new direction, so that on breakdown the
        # retained prefix spans the full invariant subspace; the inner QR can
        # cancel heavily, so one more sweep against the outer basis keeps the
        # new directions orthonormal to roundoff
        for i in range(2):
            if i not in deficient:
                w = qn.flat()[:, i]
                cgs2(self._store.view().flat(), w, passes=1)
                self._store.append(w / np.linalg.norm(w))
        if deficient:
            self.breakdown = True
            return False
        # direct projection column for A v_{2j+1}; the inverse-direction
        # coefficients would recover it only through divisions by the (often
        # tiny) subdiagonal entries, which is numerically fragile
        w = (self.a @ v_inv).ravel(order="F")
        self._proj_cols.append(self._store.view().flat().T @ w)
        return True

    def advance_to(self, m):
        while self.m < m and self.step():
            pass
        return self.m

    def sub_basis(self, nsub=None):
        """BlockBasis of the first ``nsub`` width-p sub-blocks (all by default), a view."""
        return self._store.view(nsub)

    def basis(self, m=None):
        """BlockBasis of the first m width-2p blocks of the extended process."""
        m = self.nsub // 2 if m is None else m
        return self.sub_basis(2 * m).with_width(2 * self.width)

    def hessenberg(self, m=None):
        """Block Hessenberg data for the first m steps.

        Columns belonging to the A-direction sub-blocks are the recorded
        orthogonalization coefficients; columns for the A^{-1}-direction
        sub-blocks are the direct projections cached during the iteration
        (recovering them from the coefficients alone divides by subdiagonal
        entries that vanish near an invariant subspace).
        """
        m = self.m if m is None else m
        if not 1 <= m <= self.m:
            raise DimensionError(f"only {self.m} steps completed, asked for {m}")
        t = np.zeros((2 * m + 2, 2 * m))
        for j in range(1, m + 1):
            c1 = self._ccols[j - 1][:, 0]
            t[: len(c1), 2 * j - 2] = c1
            proj = self._proj_cols[j - 1]
            t[: min(len(proj), 2 * m + 2), 2 * j - 1] = proj[: 2 * m + 2]
        t_sub = t[2 * m :, 2 * m - 2 :].copy()
        broke = self.breakdown and m == self.m
        return ExtHessenbergData(m, t, t_sub, self.r_init.copy(), broke)

    def projection(self, m):
        """(sub-block basis, T_m, T_{m+1,m}) after m steps.

        After a breakdown the retained sub-blocks span an A-invariant
        subspace: the projection is then V^T diamond (A V) onto all of them,
        with zero coupling, so the residual bound vanishes.
        """
        if self.breakdown and m >= self.m:
            basis = self.sub_basis()
            tm = diamond(basis, BlockRow(self.a @ basis.data, basis.width))
            return basis, tm, np.zeros((2, basis.m))
        hess = self.hessenberg(m)
        return self.sub_basis(2 * m), hess.tm, hess.t_sub


def ext_global_arnoldi(a, solver, b, m, tol=DEFAULT_BREAKDOWN_TOL):
    """Run m steps of the extended global Arnoldi algorithm on the pair (A, B).

    Returns ``(basis, hess)``: a width-2p BlockBasis holding every completed
    extended block (m+1 of them when no breakdown occurred) and the block
    Hessenberg data.  On immediate seed breakdown ([B, A^{-1}B] rank
    deficient) the Hessenberg data has ``m == 0`` and the basis holds the
    retained seed prefix at width p.
    """
    proc = ExtendedGlobalArnoldi(a, solver, b, tol)
    done = proc.advance_to(m)
    if done == 0:
        hess = ExtHessenbergData(0, np.zeros((2, 0)), np.zeros((2, 2)),
                                 proc.r_init.copy(), True)
        return proc.sub_basis(), hess
    return proc.basis(), proc.hessenberg(done)
