"""Extended global Arnoldi: subspace content, coefficients recurrence, relations."""

import numpy as np
import pytest
import scipy.sparse as sp

from krymat import egarnoldi
from krymat.blockmat import BlockRow, diamond, global_qr, kron_apply
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.errors import DimensionError
from krymat.probio import LinearSolver, gen_laplacian2d, random_full_rank

from conftest import projected_matrices, rect_hessenberg, stable_sparse


def _setup(a, b, m_max):
    return ExtendedGlobalArnoldi(a, LinearSolver(a), b, m_max)


def _run(a, b, m):
    proc = _setup(a, b, m)
    proc.advance_to(m)
    return proc


def hessenberg_audit(a, sub_basis, ttilde):
    """Max entrywise gap between ttilde and the directly projected operator.

    Evaluates the full diamond product against A times the basis, which
    costs O(n m^2 p^2).
    """
    cols = ttilde.shape[1]
    av = a @ sub_basis.data[:, : cols * sub_basis.width]
    direct = diamond(sub_basis, BlockRow(av, sub_basis.width))
    return float(np.abs(ttilde - direct[: ttilde.shape[0], :]).max())


class TestSeed:
    def test_identity_breaks_down_immediately(self):
        a = sp.identity(6, format="csr")
        b = random_full_rank(6, 2, seed=1)
        proc = _run(a, b, 3)
        assert proc.breakdown
        assert proc.m == 0
        assert proc.sub_basis().m == 1          # only the normalized seed survives

    def test_seed_qr_consistency(self, rng):
        a = stable_sparse(20, rng)
        b = random_full_rank(20, 2, seed=3)
        proc = _setup(a, b, 1)
        # [B, A^{-1}B] = V_1 (R kron I_p), R the block coefficients of the seed
        lhs = np.hstack([b, LinearSolver(a).solve(b)])
        r = diamond(proc.sub_basis(2), BlockRow(lhs, 2))
        assert abs(r[1, 0]) <= 1e-12 * np.linalg.norm(r)
        assert proc.beta == pytest.approx(r[0, 0], rel=1e-12)
        rhs = kron_apply(proc.sub_basis(2), np.triu(r)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_seed_rank_test_is_per_block(self):
        # ||A^{-1} B|| is below 1e-9 ||B||: against the norm of the pair, the
        # independent remainder of A^{-1} B would pass for a rank drop
        a = sp.diags(1e9 * np.arange(1.0, 21.0)).tocsr()
        b = np.ones((20, 1))
        proc = _setup(a, b, 3)
        assert not proc.breakdown and proc.advance_to(3) == 3
        bm = diamond(proc.sub_basis(6), BlockRow(b, 1)).ravel()
        np.testing.assert_allclose(bm, np.eye(6)[0] * proc.beta, atol=1e-14)


class TestSubspaceContent:
    def test_p1_diag_matches_explicit_generators(self):
        # subspace for m=2 is span{A^-2 b, A^-1 b, b, A b}
        a = sp.diags([1.0, 2.0, 4.0, 8.0]).tocsr()
        b = np.ones((4, 1))
        proc = _setup(a, b, 2)
        proc.advance_to(2)
        v = proc.sub_basis(4).data          # 4 columns for p=1
        ainv = np.diag(1.0 / np.array([1.0, 2.0, 4.0, 8.0]))
        ad = a.toarray()
        gens = np.column_stack([ainv @ ainv @ b, ainv @ b, b, ad @ b])
        q_ref, _ = np.linalg.qr(gens)
        proj_got = v @ v.T
        proj_ref = q_ref @ q_ref.T
        assert np.linalg.norm(proj_got - proj_ref) <= 1e-12


class TestHessenberg:
    def test_recurrence_matches_direct_projection(self, rng):
        a = gen_laplacian2d(6)
        b = random_full_rank(36, 2, seed=7)
        proc = _run(a, b, 4)
        ttilde = rect_hessenberg(*proc.projection(4)[1:])
        assert hessenberg_audit(a, proc.sub_basis(), ttilde) <= 1e-11

    def test_recurrence_on_nonsymmetric(self, rng):
        a = stable_sparse(30, rng)
        b = random_full_rank(30, 1, seed=2)
        proc = _run(a, b, 5)
        ttilde = rect_hessenberg(*proc.projection(5)[1:])
        assert hessenberg_audit(a, proc.sub_basis(), ttilde) <= 1e-10

    def test_block_hessenberg_structure(self, rng):
        a = gen_laplacian2d(5)
        b = random_full_rank(25, 1, seed=4)
        t = rect_hessenberg(*_run(a, b, 4).projection(4)[1:])
        for j in range(t.shape[1]):
            blk_j = j // 2
            zero_rows = t[2 * (blk_j + 2):, j]
            np.testing.assert_allclose(zero_rows, 0.0, atol=1e-14)


def assert_arnoldi_relations(a, proc):
    """Both block Arnoldi relations of the extended process, at 1e-11 ||A||_1."""
    anorm1 = np.max(np.abs(a).sum(axis=0))
    m = proc.m
    sub = proc.sub_basis()
    vm, tm, coupling = proc.projection(m)
    av = a @ vm.data
    # A V_m = V_{m+1} (Ttilde kron I_p)
    rel1 = av - kron_apply(sub, rect_hessenberg(tm, coupling)).data
    assert np.linalg.norm(rel1) <= 1e-11 * anorm1
    # A V_m = V_m (T kron I_p) + V_{m+1} T_sub (E_m^T kron I_p)
    tail_cols = np.zeros((2 * m + 2, 2 * m))
    tail_cols[2 * m:, 2 * m - 2:] = coupling
    tail = kron_apply(sub, tail_cols).data
    rel2 = av - kron_apply(vm, tm).data - tail
    assert np.linalg.norm(rel2) <= 1e-11 * anorm1


class TestRelations:
    def test_orthonormality_and_relations(self, rng):
        a = gen_laplacian2d(6)
        b = random_full_rank(36, 2, seed=9)
        proc = _run(a, b, 4)
        assert proc.sub_basis().orth_defect() <= 1e-12 * proc.m
        assert_arnoldi_relations(a, proc)

    def test_second_pass_keeps_cancelling_steps_orthonormal(self, rng):
        # B lies within 1e-4 of the invariant subspace of a cluster of eight
        # close eigenvalues, so the first Gram-Schmidt pass cancels most of
        # every new direction; with one pass the defect is 3.5e-11 here
        n = 200
        a = sp.diags(-np.concatenate([1.0 + 1e-2 * np.arange(8),
                                      np.linspace(2.0, 50.0, n - 8)])).tocsr()
        b = 1e-4 * rng.standard_normal((n, 2))
        b[:8] = rng.standard_normal((8, 2))
        proc = _run(a, b, 6)
        assert proc.m == 6 and not proc.breakdown
        sub = proc.sub_basis()
        assert sub.orth_defect() <= 1e-13 * sub.m
        assert_arnoldi_relations(a, proc)

    def test_projected_b_is_r11_e1(self, rng):
        a = stable_sparse(40, rng)
        b = random_full_rank(40, 2, seed=12)
        proc = _run(a, b, 3)
        m = proc.m
        vm, _, _ = proc.projection(m)
        bm = diamond(vm, BlockRow(b, 2)).ravel()
        expected = np.zeros(2 * m)
        expected[0] = proc.beta
        np.testing.assert_allclose(bm, expected, atol=1e-12)

    def test_breakdown_truncates(self):
        # invariant subspace of dimension 4 (p=1): two extended steps exhaust it
        d = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).tocsr()
        b = np.zeros((6, 1))
        b[:4, 0] = [1.0, 1.0, 1.0, 1.0]
        proc = _setup(d, b, 5)
        done = proc.advance_to(5)
        assert proc.breakdown
        assert done < 5
        assert proc.sub_basis().orth_defect() <= 1e-12 * proc.sub_basis().m

    def test_step_that_breaks_down_records_no_column(self):
        d = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).tocsr()
        b = np.zeros((6, 1))
        b[:4, 0] = [1.0, 1.0, 1.0, 1.0]
        proc = _setup(d, b, 5)
        counted = []
        while proc.step():
            counted = projected_matrices(proc)
        # the seed pair and one counted step span the 4-dimensional space; the
        # second step breaks down
        assert proc.breakdown and proc.m == 1 and len(counted) == 1
        assert projected_matrices(proc) == counted


class TestLayout:
    def test_bases_are_views_of_the_store(self, rng):
        a = stable_sparse(30, rng)
        proc = _setup(a, random_full_rank(30, 2, seed=5), 3)
        proc.advance_to(3)
        for v in (proc.sub_basis(), proc.sub_basis(4), proc.projection(2)[0],
                  BlockRow(proc.sub_basis().data, 4), BlockRow(proc.sub_basis(4).data, 4)):
            assert np.shares_memory(v.data, proc._buf)

    @pytest.mark.parametrize("nonsymmetric", [False, True], ids=["laplacian", "random"])
    def test_qr_in_place_leaves_the_process_bit_identical(self, monkeypatch, rng,
                                                          nonsymmetric):
        # the step's two QR passes overwrite its scratch; copying it first,
        # as global_qr does by default, gives the same T_m and basis bit for bit
        a = stable_sparse(40, rng) if nonsymmetric else gen_laplacian2d(7)
        b = random_full_rank(a.shape[0], 2, seed=6)
        in_place = _run(a, b, 6)
        monkeypatch.setattr(egarnoldi, "global_qr",
                            lambda zb, tol, scale, **_: global_qr(zb, tol, scale))
        copied = _run(a, b, 6)
        assert projected_matrices(in_place) == projected_matrices(copied)
        assert in_place.sub_basis().data.tobytes() == copied.sub_basis().data.tobytes()

    def test_advance_past_m_max_is_refused(self, rng):
        a = stable_sparse(30, rng)
        proc = _setup(a, random_full_rank(30, 2, seed=5), 3)
        assert proc.advance_to(3) == 3 and proc.sub_basis().m == 8
        with pytest.raises(DimensionError, match="m_max = 3"):
            proc.advance_to(4)
        assert proc.m == 3

    def test_diamond_is_the_column_block_gram(self):
        # the layout the benchmark's independent checks read: block j of a
        # width-w basis is columns j*w:(j+1)*w of .data
        a = gen_laplacian2d(6)
        sub = _run(a, random_full_rank(36, 2, seed=9), 4).sub_basis()
        basis = BlockRow(sub.data, 4)
        for v in (basis, sub):
            w = v.width
            gram = sum(v.data[:, s::w].T @ v.data[:, s::w] for s in range(w))
            np.testing.assert_allclose(diamond(v, v), gram, atol=1e-14)
        # the width-2p blocks pair two F-orthonormal sub-blocks each
        np.testing.assert_allclose(diamond(sub, sub), np.eye(sub.m), atol=1e-13)
        np.testing.assert_allclose(diamond(basis, basis), 2.0 * np.eye(basis.m), atol=1e-13)
