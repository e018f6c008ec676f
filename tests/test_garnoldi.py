"""Global Arnoldi process against the classical vector iteration and the
algebraic relations it must satisfy."""

import numpy as np
import pytest

from krymat.blockmat import BlockRow, diamond, kron_apply
from krymat.errors import DimensionError
from krymat.garnoldi import GlobalArnoldi
from krymat.probio import gen_sylvester_q2, gsylv_apply

from conftest import rect_hessenberg, stable_dense


def _run(op, seed, m):
    proc = GlobalArnoldi(op, seed, m)
    proc.advance_to(m)
    return proc


def classical_arnoldi(a, v0, m):
    """Plain vector Arnoldi with full reorthogonalization (reference)."""
    n = len(v0)
    v = np.zeros((n, m + 1))
    h = np.zeros((m + 1, m))
    v[:, 0] = v0 / np.linalg.norm(v0)
    for j in range(m):
        w = a @ v[:, j]
        for _ in range(2):
            for i in range(j + 1):
                hij = v[:, i] @ w
                h[i, j] += hij
                w -= hij * v[:, i]
        h[j + 1, j] = np.linalg.norm(w)
        v[:, j + 1] = w / h[j + 1, j]
    return v, h


class TestGlobalArnoldi:
    def test_identity_operator_breaks_down(self, rng):
        seed = rng.standard_normal((5, 2))
        proc = _run(lambda x: x, seed, 4)
        assert proc.breakdown
        assert proc.m == 1
        _, hm, coupling = proc.projection(1)
        np.testing.assert_allclose(rect_hessenberg(hm, coupling), [[1.0], [0.0]], atol=1e-14)
        assert proc.basis().m == 1

    def test_p1_matches_classical_arnoldi(self, rng):
        a = rng.standard_normal((8, 8))
        v0 = rng.standard_normal(8)
        proc = _run(lambda x: a @ x, v0[:, None], 5)
        _, hm, coupling = proc.projection(5)
        v_ref, h_ref = classical_arnoldi(a, v0, 5)
        # sign convention is identical (positive subdiagonal), so exact match
        np.testing.assert_allclose(rect_hessenberg(hm, coupling), h_ref, atol=1e-12)
        np.testing.assert_allclose(proc.basis().data, v_ref, atol=1e-12)

    def test_arnoldi_relation_general_operator(self, rng):
        prob = gen_sylvester_q2(10, 2, seed=4)
        op = lambda x: gsylv_apply(prob, x)
        seed = rng.standard_normal((10, 2))
        proc = _run(op, seed, 4)
        m = proc.m
        basis = proc.basis()
        vm, hm, coupling = proc.projection(m)
        htilde = rect_hessenberg(hm, coupling)
        applied = np.hstack([op(vm.block(j)) for j in range(m)])
        # full rectangular relation [A(V_1),...,A(V_m)] = V_{m+1}(Htilde kron I)
        rhs = kron_apply(basis, htilde).data
        hnorm = np.linalg.norm(htilde)
        assert np.linalg.norm(applied - rhs) <= 1e-12 * (1 + hnorm)
        # square relation with the rank-one tail
        tail = np.zeros_like(applied)
        tail[:, (m - 1) * 2 :] = coupling[0, 0] * basis.block(m)
        rhs2 = kron_apply(vm, hm).data + tail
        assert np.linalg.norm(applied - rhs2) <= 1e-12 * (1 + hnorm)

    def test_orthonormality_defect(self, rng):
        prob = gen_sylvester_q2(12, 3, seed=8)
        seed = rng.standard_normal((12, 3))
        proc = _run(lambda x: gsylv_apply(prob, x), seed, 6)
        assert proc.basis().orth_defect() <= 1e-12 * proc.m

    def test_hm_equals_projected_operator(self, rng):
        prob = gen_sylvester_q2(9, 2, seed=6)
        op = lambda x: gsylv_apply(prob, x)
        seed = rng.standard_normal((9, 2))
        proc = _run(op, seed, 4)
        m = proc.m
        vm, hm, _ = proc.projection(m)
        applied = BlockRow(np.hstack([op(vm.block(j)) for j in range(m)]), 2)
        np.testing.assert_allclose(diamond(vm, applied), hm, atol=1e-12)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            GlobalArnoldi(lambda x: x, np.zeros((4, 2)), 3)

    def test_incremental_matches_one_shot(self, rng):
        a = stable_dense(10, rng)
        seed = rng.standard_normal((10, 2))
        proc = GlobalArnoldi(lambda x: a @ x, seed, 5)
        proc.advance_to(2)
        proc.advance_to(5)
        once = _run(lambda x: a @ x, seed, 5)
        np.testing.assert_array_equal(proc.basis().data, once.basis().data)
        np.testing.assert_array_equal(rect_hessenberg(*proc.projection(5)[1:]),
                                      rect_hessenberg(*once.projection(5)[1:]))

    def test_advance_past_m_max_is_refused(self, rng):
        a = stable_dense(10, rng)
        proc = GlobalArnoldi(lambda x: a @ x, rng.standard_normal((10, 2)), 3)
        assert proc.advance_to(3) == 3
        with pytest.raises(DimensionError, match="m_max = 3"):
            proc.advance_to(4)
        assert proc.m == 3

    def test_basis_is_a_view_of_the_store(self, rng):
        a = stable_dense(10, rng)
        proc = GlobalArnoldi(lambda x: a @ x, rng.standard_normal((10, 2)), 4)
        proc.advance_to(4)
        assert np.shares_memory(proc.basis().data, proc._store.view().data)
        assert np.shares_memory(proc.basis(2).data, proc.basis(5).data)
