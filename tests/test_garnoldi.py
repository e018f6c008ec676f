"""Global Arnoldi process against the classical vector iteration and the
algebraic relations it must satisfy, and the projected matrix that both
processes assemble the same way."""

import numpy as np
import pytest
import scipy.sparse as sp

from krymat.blockmat import BlockRow, diamond, kron_apply
from krymat.errors import ConfigError, DimensionError, NumericError
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.garnoldi import GlobalArnoldi
from krymat.probio import (LinearSolver, gen_random_stable, gen_sylvester_q2, gsylv_apply,
                           random_full_rank)

from conftest import (projected_matrices, rect_hessenberg, refuse_basis_allocation,
                      stable_dense)


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
        assert np.shares_memory(proc.basis().data, proc._buf)
        assert np.shares_memory(proc.basis(2).data, proc.basis(5).data)

    def test_vector_seed_is_one_column(self, rng):
        a = stable_dense(8, rng)
        v = rng.standard_normal(8)
        proc = _run(lambda x: a @ x, v, 3)
        assert proc.width == 1 and proc.basis().m == 4
        column = _run(lambda x: a @ x, v[:, None], 3)
        assert proc.basis().data.tobytes() == column.basis().data.tobytes()

    @pytest.mark.parametrize("m", [0, 3])
    def test_hessenberg_past_the_steps_is_refused(self, rng, m):
        a = stable_dense(8, rng)
        proc = _run(lambda x: a @ x, rng.standard_normal((8, 2)), 2)
        with pytest.raises(DimensionError, match=f"only 2 steps completed, asked for {m}"):
            proc.hessenberg(m)

    def test_step_after_breakdown_does_nothing(self, rng):
        # the identity leaves nothing past V_1: the first step breaks down
        proc = GlobalArnoldi(lambda x: x, rng.standard_normal((8, 2)), 5)
        assert proc.step() is False and proc.breakdown and proc.m == 1
        counted = projected_matrices(proc)
        assert proc.step() is False
        assert proc.m == 1 and proc.basis().m == 1
        assert projected_matrices(proc) == counted

    def test_operator_that_changes_the_shape_is_refused(self, rng):
        proc = GlobalArnoldi(lambda x: x[:, :1], rng.standard_normal((8, 2)), 5)
        with pytest.raises(DimensionError, match="operator changed the block shape"):
            proc.step()


def _polynomial_process(rng, m_max):
    a = rng.standard_normal((30, 30))          # nonsymmetric
    return GlobalArnoldi(lambda x: a @ x, rng.standard_normal((30, 2)), m_max)


def _extended_process(rng, m_max):
    a = gen_random_stable(60, density=0.1, seed=3)
    return ExtendedGlobalArnoldi(a, LinearSolver(a), random_full_rank(60, 2, seed=4), m_max)


@pytest.mark.parametrize("make", [_polynomial_process, _extended_process],
                         ids=["polynomial", "extended"])
def test_every_projection_is_a_leading_slice_of_the_last(rng, make):
    """projection(m) for m below the last step is the leading part of the
    last rectangular matrix, cut to k + s rows, and a view of the basis."""
    proc = make(rng, 6)
    assert proc.advance_to(6) == 6 and not proc.breakdown
    last_basis, *last = proc.projection(6)
    full = rect_hessenberg(*last)
    s = proc.per_step
    for m in range(1, 6):
        k = s * m
        basis, tm, coupling = proc.projection(m)
        np.testing.assert_array_equal(tm, full[:k, :k])
        np.testing.assert_array_equal(coupling, full[k : k + s, k - s : k])
        assert not full[k + s :, :k].any()          # the cut rows hold nothing
        assert basis.m == k and basis.data.ctypes.data == last_basis.data.ctypes.data
        np.testing.assert_array_equal(basis.data, last_basis.data[:, : basis.data.shape[1]])


def _three_dimensional_process(per_step, m_max):
    """A process on 3 x 1 blocks, whose space has 3 dimensions: global
    Arnoldi for ``per_step`` 1, extended for 2."""
    a = sp.diags([-1.0, -2.0, -4.0]).tocsr()
    seed = np.ones((3, 1))
    if per_step == 1:
        return GlobalArnoldi(lambda x: a @ x, seed, m_max)
    return ExtendedGlobalArnoldi(a, LinearSolver(a), seed, m_max)


class TestBasisBuffer:
    """The one Fortran-ordered buffer that a process allocates for its basis."""

    @pytest.mark.parametrize("make", [_polynomial_process, _extended_process],
                             ids=["polynomial", "extended"])
    def test_views_share_one_reserved_buffer(self, rng, make):
        # m_max = 3 steps of per_step blocks after the first per_step: the
        # buffer is full after three steps
        proc = make(rng, 3)
        buf = proc._buf
        first = proc.basis()
        written = first.data.copy()
        assert proc.advance_to(3) == 3
        last = proc.basis()
        assert last.m == 4 * proc.per_step and last.data.shape == buf.shape
        assert proc._buf is buf and np.shares_memory(last.data, buf)
        assert last.data.flags.f_contiguous and np.shares_memory(last.flat(), last.data)
        assert np.shares_memory(first.data, last.data)
        np.testing.assert_array_equal(first.data, written)
        with pytest.raises(DimensionError, match=f"the basis is full at {last.m} blocks"):
            proc._append(last.block(0))
        assert proc.basis().m == last.m and proc._buf is buf

    @pytest.mark.parametrize("per_step", [1, 2])
    def test_capacity_is_capped_by_the_block_space(self, per_step):
        # 3 x 1 blocks span 3 dimensions; one more step can fill per_step slots
        proc = _three_dimensional_process(per_step, 10**9)
        assert proc.per_step == per_step and proc._buf.shape == (3, 3 + per_step)

    def test_allocation_failure_names_m_max(self, monkeypatch):
        a = sp.identity(90000, format="csr")
        solver = LinearSolver(a)
        for allocator in ("empty", "zeros"):       # the basis, then the projected matrix
            refuse_basis_allocation(monkeypatch, allocator)
            with pytest.raises(ConfigError, match=r"^m_max = 60: .* 122 blocks of 90000 x 2 "
                                                  r"\(175\.68 MB\)$"):
                ExtendedGlobalArnoldi(a, solver, np.ones((90000, 2)), 60)

    def test_step_whose_block_is_refused_is_not_counted(self, rng):
        # the third product is NaN: two steps count, the third is refused
        a = stable_dense(6, rng)
        products = iter([a, a, np.full((6, 6), np.nan)])
        proc = GlobalArnoldi(lambda x: next(products) @ x, rng.standard_normal((6, 1)), 5)
        assert proc.advance_to(2) == 2
        counted = projected_matrices(proc)
        with pytest.raises(NumericError, match="basis block contains non-finite entries"):
            proc.step()
        assert proc.m == 2 and proc.basis().m == 3
        assert projected_matrices(proc) == counted
        with pytest.raises(DimensionError, match="only 2 steps completed, asked for 3"):
            proc.hessenberg(3)

    def test_breakdown_past_the_last_block_still_counts(self, rng):
        # two steps fill the buffer of m_max = 2; a third, called directly,
        # breaks down and counts without a block, as a step after a missed
        # roundoff remainder would once n*width blocks fill the space
        a = stable_dense(8, rng)
        products = iter([a, a, np.eye(8)])
        proc = GlobalArnoldi(lambda x: next(products) @ x, rng.standard_normal((8, 1)), 2)
        assert proc.advance_to(2) == 2 and proc.basis().m == 3
        counted = projected_matrices(proc)
        assert proc.step() is False and proc.breakdown and proc.m == 3
        assert projected_matrices(proc)[:2] == counted
        tm, coupling = proc.hessenberg(3)
        np.testing.assert_allclose(tm[:, 2], [0.0, 0.0, 1.0], atol=1e-15)
        assert coupling.tolist() == [[0.0]]

    @pytest.mark.parametrize("per_step", [1, 2])
    def test_rejects_non_finite_block(self, per_step):
        proc = _three_dimensional_process(per_step, 5)
        blocks = proc.basis().m
        with pytest.raises(NumericError, match="basis block contains non-finite entries"):
            proc._append(np.array([1.0, np.inf, 0.0]))
        assert proc.basis().m == blocks
