"""Block algebra kernels against explicit Kronecker references."""

import numpy as np
import pytest

from krymat import blockmat
from krymat.blockmat import (BlockBasis, BlockRow, BlockStore, cgs2, diamond, frob_inner,
                             global_qr, kron_apply, sub_product)
from krymat.errors import ConfigError, DimensionError, NumericError

from conftest import explicit_kron_apply, random_block_row, refuse_basis_allocation


class TestFrobInner:
    def test_identity_trace(self):
        assert frob_inner(np.eye(2), np.eye(2)) == 2.0

    def test_against_trace(self):
        assert frob_inner(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)) == 5.0

    def test_elementwise_sum_oracle(self, rng):
        y = rng.standard_normal((5, 3))
        z = rng.standard_normal((5, 3))
        expected = sum(y[i, j] * z[i, j] for i in range(5) for j in range(3))
        assert frob_inner(y, z) == pytest.approx(expected, rel=1e-14)
        assert frob_inner(y, z) == pytest.approx(frob_inner(z, y), rel=0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frob_inner(np.eye(2), np.eye(3))


class TestDiamond:
    def test_small_blocks(self):
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        zb = BlockRow(np.hstack([np.eye(2), j]), 2)
        wb = BlockRow(np.eye(2), 2)
        got = diamond(zb, wb)
        np.testing.assert_allclose(got, [[2.0], [0.0]])

    def test_orthonormal_gram_is_identity(self, rng):
        q, _, _ = global_qr(random_block_row(rng, 9, 4, 2))
        np.testing.assert_allclose(diamond(q, q), np.eye(4), atol=1e-13)

    def test_coefficient_passthrough(self, rng):
        # diamond(A, B (L kron I)) = diamond(A, B) L, both sides evaluated
        a = random_block_row(rng, 4, 2, 2)
        b = random_block_row(rng, 4, 2, 2)
        l_mat = rng.standard_normal((2, 2))
        lhs = diamond(a, BlockRow(explicit_kron_apply(b, l_mat), 2))
        rhs = diamond(a, b) @ l_mat
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_width_mismatch(self, rng):
        with pytest.raises(DimensionError):
            diamond(random_block_row(rng, 4, 2, 2), random_block_row(rng, 4, 4, 1))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_column_block_gram(self, rng, order):
        # block j is columns j*w:(j+1)*w of .data, whatever the memory order
        v = BlockRow(np.asarray(rng.standard_normal((7, 4 * 3)), order=order), 3)
        gram = sum(v.data[:, s::3].T @ v.data[:, s::3] for s in range(3))
        np.testing.assert_allclose(diamond(v, v), gram, atol=1e-13)


class TestKronApply:
    def test_identity(self, rng):
        vb = random_block_row(rng, 5, 3, 2)
        out = kron_apply(vb, np.eye(3))
        np.testing.assert_array_equal(out.data, vb.data)

    def test_single_block_scaling(self, rng):
        vb = random_block_row(rng, 5, 1, 2)
        out = kron_apply(vb, np.array([[2.0]]))
        np.testing.assert_allclose(out.data, 2.0 * vb.data)

    def test_against_explicit_kron(self, rng):
        vb = random_block_row(rng, 6, 3, 2)
        s = rng.standard_normal((3, 4))
        np.testing.assert_allclose(kron_apply(vb, s).data,
                                   explicit_kron_apply(vb, s), atol=1e-13)

    def test_norm_preservation_on_orthonormal(self, rng):
        q, _, _ = global_qr(random_block_row(rng, 10, 4, 2))
        s = rng.standard_normal((4, 3))
        assert np.linalg.norm(kron_apply(q, s).data) == pytest.approx(
            np.linalg.norm(s), rel=1e-13)

    def test_inner_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            kron_apply(random_block_row(rng, 5, 3, 2), np.eye(4))


def graded_block_row(rng, n, m, width, cond):
    """Blocks whose vecs have singular values spread evenly from 1 to 1/cond."""
    u, _ = np.linalg.qr(rng.standard_normal((n * width, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    flat = u @ np.diag(np.logspace(0, -np.log10(cond), m)) @ v.T
    return BlockRow(flat.reshape(n, m * width, order="F"), width)


class TestCGS2:
    def test_coefficients_reconstruct(self, rng):
        q, _, _ = global_qr(random_block_row(rng, 10, 4, 2))
        w = rng.standard_normal((20, 3))
        w0 = w.copy()
        c = cgs2(q.flat(), w)
        np.testing.assert_allclose(q.flat() @ c + w, w0, atol=1e-13)
        assert np.abs(q.flat().T @ w).max() <= 1e-14 * np.linalg.norm(w0)

    def test_second_pass_restores_orthogonality(self, rng):
        zb = graded_block_row(rng, 40, 8, 2, 1e8)
        q, r, deficient = global_qr(zb)
        assert deficient == ()
        assert q.orth_defect() <= 1e-13
        np.testing.assert_allclose(q.flat() @ r, zb.flat(), atol=1e-14)
        # one classical pass on the same sequence loses orthogonality
        z = zb.flat()
        one = np.zeros_like(z)
        for j in range(zb.m):
            w = z[:, j].copy()
            w -= one[:, :j] @ (one[:, :j].T @ w)
            one[:, j] = w / np.linalg.norm(w)
        assert np.linalg.norm(one.T @ one - np.eye(zb.m)) > 1e-6


class TestSubProduct:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_product(self, rng, order):
        q = np.asfortranarray(rng.standard_normal((30, 5)))
        c = rng.standard_normal((5, 3))
        w = np.array(rng.standard_normal((30, 3)), order=order)
        expected = w - q @ c
        sub_product(w, q, c)
        np.testing.assert_allclose(w, expected, atol=1e-13)

    def test_column_major_view_is_updated_in_place(self, rng):
        q = np.asfortranarray(rng.standard_normal((30, 5)))
        c = rng.standard_normal((5, 3))
        u = np.asfortranarray(rng.standard_normal((30, 4)))
        expected = u[:, :2] - q @ c[:, :2]
        tail = u[:, 2:].copy()
        sub_product(u[:, :2], q, c[:, :2])
        np.testing.assert_allclose(u[:, :2], expected, atol=1e-13)
        np.testing.assert_array_equal(u[:, 2:], tail)


class TestGlobalQR:
    def test_zero_and_dependent_blocks_are_deficient(self, rng):
        z = random_block_row(rng, 9, 5, 2).data.copy()
        z[:, 2:4] = 0.0                            # block 1 is zero
        z[:, 6:8] = 2.0 * z[:, :2] - z[:, 4:6]     # block 3 depends on blocks 0, 2
        q, r, deficient = global_qr(BlockRow(z, 2))
        assert deficient == (1, 3)
        assert not q.block(1).any() and not q.block(3).any()
        kept = q.flat()[:, [0, 2, 4]]
        np.testing.assert_allclose(kept.T @ kept, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(q.flat() @ r, BlockRow(z, 2).flat(), atol=1e-13)

    def test_scaled_identity_block(self):
        q, r, deficient = global_qr(BlockRow(3.0 * np.eye(2), 2))
        np.testing.assert_allclose(q.data, np.eye(2) / np.sqrt(2.0))
        np.testing.assert_allclose(r, [[3.0 * np.sqrt(2.0)]])
        assert deficient == ()

    def test_duplicate_block_flags_deficiency(self):
        zb = BlockRow(np.hstack([np.eye(2), np.eye(2)]), 2)
        q, r, deficient = global_qr(zb)
        assert deficient == (1,)
        assert r[0, 0] == pytest.approx(np.sqrt(2.0))
        assert r[0, 1] == pytest.approx(np.sqrt(2.0))
        assert r[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_reconstruction_and_orthonormality(self, rng):
        zb = random_block_row(rng, 6, 3, 2)
        q, r, deficient = global_qr(zb)
        assert deficient == ()
        np.testing.assert_allclose(kron_apply(q, r).data, zb.data, atol=1e-12)
        assert q.orth_defect() <= 1e-12

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_left_alone(self, rng, order):
        z = np.array(random_block_row(rng, 8, 3, 2).data, order=order)
        before = z.copy()
        q, _, _ = global_qr(BlockRow(z, 2))
        assert np.array_equal(z, before) and not np.shares_memory(q.data, z)

    @pytest.mark.parametrize("m", [1, 3])
    def test_first_column_takes_no_gram_schmidt_pass(self, rng, monkeypatch, m):
        widths = []

        def recording_cgs2(q, w):
            widths.append(q.shape[1])
            return cgs2(q, w)

        monkeypatch.setattr(blockmat, "cgs2", recording_cgs2)
        zb = random_block_row(rng, 8, m, 2)
        q, r, _ = global_qr(zb)
        assert widths == list(range(1, m))          # none against an empty basis
        np.testing.assert_allclose(q.flat() @ r, zb.flat(), atol=1e-13)

    def test_deterministic(self, rng):
        zb = random_block_row(rng, 8, 3, 2)
        q1, r1, d1 = global_qr(zb)
        q2, r2, d2 = global_qr(BlockRow(zb.data.copy(), 2))
        assert np.array_equal(q1.data, q2.data)
        assert np.array_equal(r1, r2)
        assert d1 == d2


def _rand_dims(rng):
    n = int(rng.integers(2, 12))
    width = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    return n, m, width


class TestDiamondProperties:
    """Randomized checks of the product rules, 1e-12 relative."""

    TRIALS = 200

    def test_rules(self, rng):
        for _ in range(self.TRIALS):
            n, m, width = _rand_dims(rng)
            a = random_block_row(rng, n, m, width)
            b = random_block_row(rng, n, m, width)
            c = random_block_row(rng, n, m, width)
            d = rng.standard_normal((n, n))
            l_mat = rng.standard_normal((m, m))
            alpha = float(rng.standard_normal())
            scale = np.linalg.norm(a.data) * np.linalg.norm(c.data) + 1.0

            ab = BlockRow(a.data + b.data, width)
            # additivity in both slots
            np.testing.assert_allclose(
                diamond(ab, c), diamond(a, c) + diamond(b, c), atol=1e-12 * scale)
            np.testing.assert_allclose(
                diamond(a, ab), diamond(a, a) + diamond(a, b),
                atol=1e-12 * (np.linalg.norm(a.data) ** 2 + scale))
            # scalar homogeneity
            np.testing.assert_allclose(
                diamond(BlockRow(alpha * a.data, width), c),
                alpha * diamond(a, c), atol=1e-12 * abs(alpha) * scale)
            # transpose rule
            np.testing.assert_allclose(
                diamond(a, b).T, diamond(b, a), atol=1e-12 * scale)
            # (D A)^T diamond B = A^T diamond (D^T B)
            np.testing.assert_allclose(
                diamond(BlockRow(d @ a.data, width), b),
                diamond(a, BlockRow(d.T @ b.data, width)),
                atol=1e-12 * np.linalg.norm(d) * scale)
            # coefficient pass-through
            np.testing.assert_allclose(
                diamond(a, BlockRow(explicit_kron_apply(b, l_mat), width)),
                diamond(a, b) @ l_mat,
                atol=1e-12 * np.linalg.norm(l_mat) * scale)
            # Cauchy-Schwarz style norm bound
            assert np.linalg.norm(diamond(a, b)) <= (
                np.linalg.norm(a.data) * np.linalg.norm(b.data) * (1 + 1e-12))


class TestNormProperties:
    def test_kron_apply_isometry_and_contraction(self, rng):
        for _ in range(100):
            n, m, width = _rand_dims(rng)
            # n + m*width rows keep the random blocks generically independent
            q, _, deficient = global_qr(random_block_row(rng, n + m * width, m, width))
            if deficient:
                continue
            z = rng.standard_normal((m, int(rng.integers(1, 4))))
            assert np.linalg.norm(kron_apply(q, z).data) == pytest.approx(
                np.linalg.norm(z), rel=1e-12)
            g = rng.standard_normal((m * width, int(rng.integers(1, 4))))
            assert np.linalg.norm(q.data @ g) <= np.linalg.norm(g) * (1 + 1e-12)


class TestBlockBasis:
    def test_orth_defect_of_qr(self, rng):
        q, _, _ = global_qr(random_block_row(rng, 12, 4, 2))
        assert q.orth_defect() <= 4 * 1e-12

    def test_rejects_non_finite_entries(self):
        with pytest.raises(NumericError):
            BlockRow(np.array([[1.0, np.nan]]), 1)

    def test_narrow_and_rewidth(self, rng):
        q, _, _ = global_qr(random_block_row(rng, 12, 4, 2))
        assert q.narrow(2).m == 2
        assert BlockRow(q.data, 4).m == 2
        assert isinstance(q.narrow(2), BlockBasis)


class TestBlockStore:
    def test_views_share_one_reserved_buffer(self, rng):
        # m_max = 4 steps of one block after the first: room for 5 blocks
        blocks = [rng.standard_normal((6, 2)) for _ in range(5)]
        store = BlockStore(6, 2, 4)
        buf = store._buf
        store.append(blocks[0])
        first = store.view()
        store.append(blocks[1].flatten(order="F"))        # a vec is accepted too
        for b in blocks[2:]:
            store.append(b)
        last = store.view()
        assert store._buf is buf
        assert last.data.flags.f_contiguous
        assert np.shares_memory(last.flat(), last.data)
        assert np.shares_memory(first.data, last.data)
        np.testing.assert_array_equal(last.data, np.hstack(blocks))
        np.testing.assert_array_equal(first.data, blocks[0])
        with pytest.raises(DimensionError):
            store.append(blocks[0])
        assert store.m == 5 and store._buf is buf

    @pytest.mark.parametrize("per_step", [1, 2])
    def test_capacity_is_capped_by_the_block_space(self, per_step):
        # 3 x 1 blocks span 3 dimensions; one more step can fill per_step slots
        store = BlockStore(3, 1, 10**9, per_step=per_step)
        assert store._buf.shape == (3, 3 + per_step)

    def test_allocation_failure_names_m_max(self, monkeypatch):
        refuse_basis_allocation(monkeypatch)
        with pytest.raises(ConfigError, match=r"m_max = 60: .* 122 blocks of 90000 x 2 "
                                              r"\(175\.68 MB\)"):
            BlockStore(90000, 2, 60, per_step=2)

    def test_rejects_non_finite_block(self):
        store = BlockStore(3, 1, 5)
        with pytest.raises(NumericError):
            store.append(np.array([1.0, np.inf, 0.0]))
        assert store.m == 0
        with pytest.raises(DimensionError):
            store.view()
