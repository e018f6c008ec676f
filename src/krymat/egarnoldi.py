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

import numpy as np

from .blockmat import BlockRow, diamond, global_qr, kron_apply, sub_product
from .garnoldi import KrylovProcess

# Truncation threshold for remainder blocks, relative to the pre-
# orthogonalization norm of their own direction.  Remainders near the square
# root of machine precision are dominated by rounding noise; admitting them
# destroys the Krylov structure of the basis (the algebraic relations degrade
# by eps divided by this ratio), so the process stops there and treats the
# span as invariant.
BREAKDOWN_TOL = 1e-7


class ExtendedGlobalArnoldi(KrylovProcess):
    """Incremental extended global Arnoldi for a sparse A with prefactored solver.

    ``solver`` must provide ``solve(w)`` computing A^{-1} w (probio.LinearSolver).
    The sub-block width is the seed's column count.  The seed QR
    [B, A^{-1} B] = V_1 (R kron I_p) gives ``beta`` = R[0, 0], the seed's
    coefficient on V_1.
    """

    per_step = 2

    def __init__(self, a, solver, seed, m_max):
        seed, _ = self._start(seed, m_max, "extended global Arnoldi")
        self.a = a
        self.solver = solver
        # the rank test is per block, as in step: B itself is then never
        # deficient, so B = V_1 r_11 always holds
        pair = BlockRow(np.hstack([seed, solver.solve(seed)]), self.width)
        q0, r0, deficient = global_qr(pair, BREAKDOWN_TOL,
                                      scale=np.linalg.norm(pair.flat(), axis=0))
        self.beta = float(r0[0, 0])
        # a dependent seed block and A^{-1} image leave nothing to iterate on
        self.breakdown = bool(deficient)
        for j in range(2):
            if j not in deficient:
                self._append(q0.block(j))

    # the basis under its sub-block name, which bench/spans.py traces
    sub_basis = KrylovProcess.basis

    def step(self):
        """One extended Arnoldi step; False on breakdown.

        Block CGS2 (Barlow and Smoktunowicz 2013) on U = [A v_a, A^{-1} v_inv,
        A v_inv] against the flat basis Q: pass 1 takes C1 = Q^T U in one
        product, which also gives the direct projection of A v_inv, removes
        Q C1 from the two new directions W and factors the remainder as
        Q1 R1; pass 2 removes Q C2, C2 = Q^T Q1, and factors again as Q2 R2.
        Then W = Q (C1 + C2 R1) + Q2 (R2 R1), from four reads of Q.
        """
        if self.breakdown:
            return False
        j = self.m
        p = self.width
        basis = self._view(2 * j + 2)
        q = basis.flat()
        v_a, v_inv = basis.block(2 * j), basis.block(2 * j + 1)
        u = np.empty((basis.n, 3 * p), order="F")
        u[:, :p] = self.a @ v_a
        u[:, p : 2 * p] = self.solver.solve(v_inv)
        u[:, 2 * p :] = self.a @ v_inv
        ub = BlockRow(u, p)
        cols = ub.flat()
        halves = cols[:, :2]
        # the two halves can differ in scale by orders of magnitude (||A v||
        # vs ||A^{-1} v||), so the rank test is per half
        half_norm0 = np.linalg.norm(halves, axis=0)
        c1 = diamond(basis, ub)
        sub_product(halves, q, c1[:, :2])
        # rank test against the pre-orthogonalization scale of each half: a
        # remainder tiny relative to its own direction signals an invariant
        # subspace; keeping it would admit a noise direction that spoils both
        # the basis and the Krylov structure
        # both QR passes work in place on the two halves of u
        q1, r1, deficient = global_qr(ub.narrow(2), BREAKDOWN_TOL, scale=half_norm0,
                                      overwrite=True)
        c2 = diamond(basis, q1)
        sub_product(q1.flat(), q, c2)
        # a unit direction that the second pass cancels was noise after the first
        q2, r2, collapsed = global_qr(q1, BREAKDOWN_TOL, scale=1.0, overwrite=True)
        deficient = set(deficient) | set(collapsed)
        # keep any independent new direction, so that on breakdown the
        # retained prefix spans the full invariant subspace
        for i in range(2):
            if i not in deficient:
                self._append(q2.block(i))
        if deficient:
            self.breakdown = True
            return False
        k = 2 * j + 2
        # only the A-direction column enters T; the A^{-1} one is projected directly
        self._t[:k, k - 2] = c1[:, 0] + c2 @ r1[:, 0]
        self._t[k : k + 2, k - 2] = r2 @ r1[:, 0]
        # direct projection column for A v_{2j+1}; the inverse-direction
        # coefficients would recover it only through divisions by the (often
        # tiny) subdiagonal entries, which is numerically fragile
        self._t[:k, k - 1] = c1[:, 2]
        self._t[k : k + 2, k - 1] = q2.flat().T @ cols[:, 2]
        self.m += 1
        return True

    def projection(self, m):
        """(sub-block basis, T_m, T_{m+1,m}) after m steps.

        After a breakdown the retained sub-blocks should span an A-invariant
        subspace: the projection is then V^T diamond (A V) onto all of them,
        and the coupling is the R factor of A V - V (T kron I), which is
        roundoff on a truly invariant subspace.  When the rank test took a
        real remainder for noise (a near-singular A), it keeps the residual
        bound truthful.
        """
        if self.breakdown and m >= self.m:
            basis = self.sub_basis()
            av = BlockRow(self.a @ basis.data, basis.width)
            tm = diamond(basis, av)
            _, coupling, _ = global_qr(BlockRow(av.data - kron_apply(basis, tm).data,
                                                basis.width))
            return basis, tm, coupling
        tm, coupling = self.hessenberg(m)
        return self.sub_basis(2 * m), tm, coupling
