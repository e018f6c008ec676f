"""Global Arnoldi process against the classical vector iteration and the
algebraic relations it must satisfy."""

import numpy as np
import pytest

from krymat.blockmat import BlockRow, diamond, kron_apply
from krymat.garnoldi import GlobalArnoldi, global_arnoldi
from krymat.probio import gen_sylvester_q2, gsylv_apply

from conftest import stable_dense


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
        basis, hess = global_arnoldi(lambda x: x, seed, 4)
        assert hess.breakdown
        assert hess.m == 1
        np.testing.assert_allclose(hess.htilde, [[1.0], [0.0]], atol=1e-14)
        assert basis.m == 1

    def test_p1_matches_classical_arnoldi(self, rng):
        a = rng.standard_normal((8, 8))
        v0 = rng.standard_normal(8)
        basis, hess = global_arnoldi(lambda x: a @ x, v0[:, None], 5)
        v_ref, h_ref = classical_arnoldi(a, v0, 5)
        # sign convention is identical (positive subdiagonal), so exact match
        np.testing.assert_allclose(hess.htilde, h_ref, atol=1e-12)
        np.testing.assert_allclose(basis.data, v_ref, atol=1e-12)

    def test_arnoldi_relation_general_operator(self, rng):
        prob = gen_sylvester_q2(10, 2, seed=4)
        op = lambda x: gsylv_apply(prob, x)
        seed = rng.standard_normal((10, 2))
        basis, hess = global_arnoldi(op, seed, 4)
        m = hess.m
        vm = basis.narrow(m)
        applied = np.hstack([op(vm.block(j)) for j in range(m)])
        # full rectangular relation [A(V_1),...,A(V_m)] = V_{m+1}(Htilde kron I)
        rhs = kron_apply(basis, hess.htilde).data
        hnorm = np.linalg.norm(hess.htilde)
        assert np.linalg.norm(applied - rhs) <= 1e-12 * (1 + hnorm)
        # square relation with the rank-one tail
        tail = np.zeros_like(applied)
        tail[:, (m - 1) * 2 :] = hess.h_sub * basis.block(m)
        rhs2 = kron_apply(vm, hess.hm).data + tail
        assert np.linalg.norm(applied - rhs2) <= 1e-12 * (1 + hnorm)

    def test_orthonormality_defect(self, rng):
        prob = gen_sylvester_q2(12, 3, seed=8)
        seed = rng.standard_normal((12, 3))
        basis, hess = global_arnoldi(lambda x: gsylv_apply(prob, x), seed, 6)
        assert basis.orth_defect() <= 1e-12 * hess.m

    def test_hm_equals_projected_operator(self, rng):
        prob = gen_sylvester_q2(9, 2, seed=6)
        op = lambda x: gsylv_apply(prob, x)
        seed = rng.standard_normal((9, 2))
        basis, hess = global_arnoldi(op, seed, 4)
        m = hess.m
        vm = basis.narrow(m)
        applied = BlockRow(np.hstack([op(vm.block(j)) for j in range(m)]), 2)
        np.testing.assert_allclose(diamond(vm, applied), hess.hm, atol=1e-12)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            GlobalArnoldi(lambda x: x, np.zeros((4, 2)))

    def test_incremental_matches_one_shot(self, rng):
        a = stable_dense(10, rng)
        seed = rng.standard_normal((10, 2))
        proc = GlobalArnoldi(lambda x: a @ x, seed)
        proc.advance_to(2)
        proc.advance_to(5)
        basis_inc = proc.basis()
        basis_once, hess_once = global_arnoldi(lambda x: a @ x, seed, 5)
        np.testing.assert_array_equal(basis_inc.data, basis_once.data)
        np.testing.assert_array_equal(proc.hessenberg(5).htilde, hess_once.htilde)

    def test_basis_is_a_view_of_the_store(self, rng):
        a = stable_dense(10, rng)
        proc = GlobalArnoldi(lambda x: a @ x, rng.standard_normal((10, 2)))
        proc.advance_to(4)
        assert np.shares_memory(proc.basis().data, proc._store.view().data)
        assert np.shares_memory(proc.basis(2).data, proc.basis(5).data)
