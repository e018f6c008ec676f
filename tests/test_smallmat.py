"""Dense kernels against spectral, Kronecker and quadrature oracles."""

import re
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from krymat import smallmat
from krymat.errors import CapExceededError, DimensionError, IllPosedError, NumericError
from krymat.smallmat import (VANLOAN_MAX_DOUBLINGS, VANLOAN_THETA, DiagonalForm, TriangularForm,
                             expm, joint_sym_factor, lognorm2, lyap_solve, phi1, real_schur,
                             small_form, symmetrize, trunc_sym_factor, vanloan_gram_nodes)

from conftest import (deadline, lyap_through, near_defective, normal_complex_pairs, range_cut,
                      stable_dense, stable_sym, vanloan_gram)


# small T with a well-conditioned eigenvector matrix: a symmetric one, and two
# nonsymmetric ones, with complex pairs or nonnormal
WELL_CONDITIONED = {
    "symmetric": lambda rng: stable_sym(8, rng),
    "complex-pairs": lambda rng: normal_complex_pairs(8, rng),
    "nonnormal": lambda rng: stable_dense(6, rng),
}


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(expm(m), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_symmetric_spectral_oracle(self, rng):
        a = stable_sym(5, rng, lo=0.1, hi=3.0)
        lam, u = np.linalg.eigh(a)
        expected = u @ np.diag(np.exp(lam)) @ u.T
        np.testing.assert_allclose(expm(a), expected,
                                   rtol=1e-11, atol=1e-11 * np.linalg.norm(expected))

    def test_inverse_identity(self, rng):
        for _ in range(5):
            m = rng.standard_normal((6, 6))
            m *= 10.0 / np.linalg.norm(m)
            np.testing.assert_allclose(expm(m) @ expm(-m), np.eye(6),
                                       atol=1e-11 * np.linalg.norm(expm(m)))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_overflow_is_a_numeric_error_alone(self):
        # e^1000 overflows inside scipy, which warns; the only report is ours
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="expm overflowed"):
                expm(np.array([[1000.0]]))


class TestPhi1:
    def test_zero_limit(self):
        np.testing.assert_allclose(phi1(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_scalar(self):
        np.testing.assert_allclose(phi1(np.array([[1.0]])),
                                   [[np.e - 1.0]], rtol=1e-14)

    def test_algebraic_identity_invertible(self, rng):
        m = stable_dense(5, rng)
        expected = np.linalg.solve(m, expm(m) - np.eye(5))
        np.testing.assert_allclose(phi1(m), expected, atol=1e-12 * np.linalg.norm(expected) + 1e-13)

    def test_identity_holds_for_singular(self, rng):
        m = rng.standard_normal((4, 4))
        m[:, 0] = 0.0  # singular by construction
        lhs = m @ phi1(m)
        rhs = expm(m) - np.eye(4)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + np.linalg.norm(rhs)))


class TestLyapSolve:
    def test_scalar(self):
        y = lyap_through(real_schur(np.array([[-1.0]])), np.array([[2.0]]))
        np.testing.assert_allclose(y, [[1.0]], rtol=1e-14)

    def test_constructed_2x2(self):
        t = np.diag([-1.0, -2.0])
        q = np.array([[2.0, 3.0], [3.0, 4.0]])
        np.testing.assert_allclose(lyap_through(real_schur(t), q), np.ones((2, 2)),
                                   rtol=1e-13)

    def test_kronecker_oracle(self, rng):
        t = stable_dense(6, rng)
        q = stable_sym(6, rng)
        # vectorized linear system (I kron T + T kron I) vec(Y) = -vec(Q)
        big = np.kron(np.eye(6), t) + np.kron(t, np.eye(6))
        y_ref = np.linalg.solve(big, -q.flatten(order="F")).reshape((6, 6), order="F")
        y = lyap_through(real_schur(t), q)
        np.testing.assert_allclose(y, y_ref, atol=1e-10 * (1 + np.linalg.norm(y_ref)))
        res = t @ y + y @ t.T + q
        assert np.linalg.norm(res) <= 1e-10 * (
            np.linalg.norm(t) * np.linalg.norm(y) + np.linalg.norm(q))

    def test_symmetric_output(self, rng):
        y = lyap_through(real_schur(stable_dense(5, rng)), stable_sym(5, rng))
        np.testing.assert_array_equal(y, y.T)

    def test_singular_operator_rejected(self):
        t = np.diag([-1.0, 1.0])  # lambda_1 + lambda_2 = 0
        with pytest.raises(IllPosedError):
            lyap_through(real_schur(t), np.eye(2))


class TestSmallForm:
    @pytest.mark.parametrize("make", list(WELL_CONDITIONED.values()), ids=list(WELL_CONDITIONED))
    def test_eigen_side_of_the_gate(self, rng, make):
        # the eigen side holds the exactly symmetric T alone, T = X diag(lam) X^T
        # with X orthogonal; a nonsymmetric T enters it only by its symmetric part
        t = make(rng)
        assert isinstance(small_form(t).own, DiagonalForm) == np.array_equal(t, t.T)
        sym = 0.5 * (t + t.T)
        form = small_form(sym)
        assert isinstance(form.own, DiagonalForm) and form.x.dtype == form.own.lam.dtype == float
        k = len(t)
        assert np.linalg.norm(form.x.T @ form.x - np.eye(k)) <= 1e-13 * k
        np.testing.assert_allclose(form.x @ np.diag(form.own.lam) @ form.x.T, sym,
                                   atol=1e-13 * np.linalg.norm(sym))

    @pytest.mark.parametrize("make", [WELL_CONDITIONED["complex-pairs"],
                                      WELL_CONDITIONED["nonnormal"],
                                      lambda rng: stable_sym(8, rng) + 1e-15 * np.eye(8, k=1)],
                             ids=["complex-pairs", "nonnormal", "roundoff-skew"])
    def test_every_other_t_takes_the_schur_form(self, rng, make):
        # however well conditioned its eigenvectors, a T that is not exactly
        # symmetric takes the real Schur form
        t = make(rng)
        form, ref = small_form(t), real_schur(t)
        assert isinstance(form.own, TriangularForm)
        np.testing.assert_array_equal(form.x, ref.x)
        np.testing.assert_array_equal(form.own.s, ref.own.s)

    @pytest.mark.parametrize("k", [2, 6])
    def test_near_defective_keeps_the_schur_form(self, k):
        t = near_defective(k)
        form = small_form(t)
        assert isinstance(form.own, TriangularForm)
        np.testing.assert_array_equal(form.own.s, real_schur(t).own.s)

    @pytest.mark.parametrize("make", list(WELL_CONDITIONED.values()), ids=list(WELL_CONDITIONED))
    @pytest.mark.parametrize("c,d", [(1.0, 0.0), (0.01, -0.5), (-0.3, -2.0)])
    def test_solve_matches_schur_and_scipy(self, rng, make, c, d):
        t = make(rng)
        q = rng.standard_normal((t.shape[0], 2))
        q = q @ q.T
        op = c * t + d * np.eye(t.shape[0])
        form = small_form(op)
        assert isinstance(form.own, DiagonalForm) == np.array_equal(op, op.T)
        y = lyap_through(form, q)
        assert y.dtype == float
        np.testing.assert_array_equal(y, y.T)
        for y_ref in (lyap_through(real_schur(op), q), solve_continuous_lyapunov(op, -q)):
            assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

    def test_singular_shifted_operator_rejected(self, rng):
        t = stable_sym(4, rng)
        lam_max = np.linalg.eigvalsh(t).max()
        with pytest.raises(IllPosedError):
            lyap_solve(small_form(t - lam_max * np.eye(4)).own, np.eye(4))


class TestRealSchur:
    def test_reconstruction_and_eigenvalues(self, rng):
        t = rng.standard_normal((30, 30))
        form = real_schur(t)
        assert np.linalg.norm(form.x.T @ form.x - np.eye(30)) <= 1e-13 * 30
        np.testing.assert_allclose(form.x @ form.own.s @ form.x.T, t,
                                   atol=1e-13 * np.linalg.norm(t))
        np.testing.assert_allclose(np.sort_complex(form.own.lam),
                                   np.sort_complex(np.linalg.eigvals(t)), atol=1e-12)

    @pytest.mark.parametrize("c,d", [(0.01, -0.5), (1.0, -8.0), (-0.3, -2.0)])
    def test_shifted_solve_matches_explicit_operator(self, rng, c, d):
        t = rng.standard_normal((30, 30))            # nonsymmetric
        q = rng.standard_normal((30, 30))
        q = q @ q.T
        op = c * t + d * np.eye(30)
        y = lyap_through(real_schur(op), q)
        y_ref = solve_continuous_lyapunov(op, -q)
        assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

    def test_shift_keeps_the_form_and_the_original(self, rng):
        # the shift of T in U's coordinates, which the BDF march takes
        t = rng.standard_normal((7, 7))
        own = real_schur(t).own
        s0 = own.s.copy()
        shifted = own.shifted(2.0, 0.5)
        assert isinstance(shifted, TriangularForm)
        np.testing.assert_array_equal(shifted.s, 2.0 * s0 + 0.5 * np.eye(7))
        np.testing.assert_array_equal(own.s, s0)
        np.testing.assert_allclose(shifted.lam, 2.0 * own.lam + 0.5, rtol=1e-15)

    def test_singular_shifted_operator_rejected(self):
        t = np.array([[1.0, 2.0], [0.0, 3.0]])      # eigenvalues 1 and 3
        with pytest.raises(IllPosedError):
            lyap_solve(real_schur(t - np.eye(2)).own, np.eye(2))

    def test_order_mismatch(self, rng):
        with pytest.raises(DimensionError):
            lyap_solve(real_schur(stable_dense(3, rng)).own, np.eye(4))


# T on both sides of small_form's gate: the symmetric one on the eigen side,
# the others on the Schur side
BOTH_SIDES = {**WELL_CONDITIONED, "near-defective": lambda rng: near_defective(6, coupling=10.0)}

# a T with eigenvalues 1 and 3 in its own coordinates: diagonal, and upper triangular
OWN_FORMS = {
    "diagonal": DiagonalForm(np.array([1.0, 3.0])),
    "triangular": TriangularForm(np.array([[1.0, 2.0], [0.0, 3.0]]), np.array([1.0, 3.0])),
}


class TestOwnCoordinates:
    @pytest.mark.parametrize("make", list(BOTH_SIDES.values()), ids=list(BOTH_SIDES))
    @pytest.mark.parametrize("c,d", [(1.0, 0.0), (0.01, -0.5), (-0.3, -2.0)])
    def test_solve_matches_the_congruence_path(self, rng, make, c, d):
        # the march shifts T in the form's own coordinates and maps back once
        t = make(rng)
        q = rng.standard_normal((t.shape[0], 2))
        q = q @ q.T
        form = small_form(t)
        x, own = form.x, form.own
        assert isinstance(own, DiagonalForm if np.array_equal(t, t.T) else TriangularForm)
        qh = x.T @ q @ x
        g = lyap_solve(own.shifted(c, d), 0.5 * (qh + qh.T))
        np.testing.assert_array_equal(g, g.T)
        y = x @ g @ x.T
        y_ref = solve_continuous_lyapunov(c * t + d * np.eye(t.shape[0]), -q)
        assert y.dtype == float
        assert np.linalg.norm(y - y_ref) <= 1e-13 * np.linalg.norm(y_ref)

    @pytest.mark.parametrize("own", list(OWN_FORMS.values()), ids=list(OWN_FORMS))
    def test_errors_are_those_of_the_congruence_path(self, own):
        with pytest.raises(IllPosedError):
            lyap_solve(own.shifted(1.0, -1.0), np.eye(2))     # lambda_1 + lambda_1 = 0
        stable = own.shifted(1.0, -5.0)
        with pytest.raises(NumericError):
            lyap_solve(stable, np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionError):
            lyap_solve(stable, np.eye(3))
        with pytest.raises(DimensionError):
            lyap_solve(stable, np.ones(2))

    @pytest.mark.parametrize("own", list(OWN_FORMS.values()), ids=list(OWN_FORMS))
    def test_singularity_test_runs_once_per_form(self, monkeypatch, own):
        calls = []
        checked = smallmat._checked_divisors

        def counted(lam):
            calls.append(lam)
            return checked(lam)

        monkeypatch.setattr(smallmat, "_checked_divisors", counted)
        stable = own.shifted(1.0, -5.0)
        for _ in range(3):
            lyap_solve(stable, np.eye(2))
        lyap_solve(own.shifted(2.0, -9.0), np.eye(2))
        assert len(calls) == 2

    @pytest.mark.parametrize("own", [DiagonalForm(-np.ones(5)),
                                     TriangularForm(-np.eye(5), -np.ones(5))],
                             ids=list(OWN_FORMS))
    def test_cap_checked_per_call(self, monkeypatch, own):
        lyap_solve(own, np.eye(5))
        monkeypatch.setattr(smallmat, "DENSE_CAP", 4)
        with pytest.raises(CapExceededError):
            lyap_solve(own, np.eye(5))


def simpson_gram(h, q, t, panels=10_000):
    """Composite-Simpson reference for the Gramian integral."""
    from scipy.linalg import expm as sexpm
    q = q[:, None] if q.ndim == 1 else q
    ss = np.linspace(0.0, t, 2 * panels + 1)
    w = np.ones(len(ss))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (t / panels) / 6.0
    acc = np.zeros((h.shape[0], h.shape[0]))
    for s, wk in zip(ss, w):
        e = sexpm(s * h) @ q
        acc += wk * (e @ e.T)
    return acc


class TestVanloanGram:
    def test_scalar(self):
        got = vanloan_gram(np.array([[-1.0]]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(got, [[(1 - np.exp(-2.0)) / 2.0]], rtol=1e-13)

    def test_constant_integrand(self):
        got = vanloan_gram(np.array([[0.0]]), np.array([1.0]), 2.0)
        np.testing.assert_allclose(got, [[2.0]], rtol=1e-14)

    def test_simpson_oracle(self, rng):
        h = stable_dense(4, rng)
        q = rng.standard_normal(4)
        got = vanloan_gram(h, q, 0.7)
        ref = simpson_gram(h, q, 0.7)
        np.testing.assert_allclose(got, ref, atol=1e-9 * (1 + np.linalg.norm(ref)))

    def test_monotone_in_t(self, rng):
        for _ in range(5):
            h = rng.standard_normal((4, 4))
            h *= 1.5 / np.linalg.norm(h)
            q = rng.standard_normal(4)
            t1, t2 = sorted(rng.uniform(0.1, 2.0, 2))
            if t1 == t2:
                continue
            diff = vanloan_gram(h, q, t2) - vanloan_gram(h, q, t1)
            assert np.linalg.eigvalsh(diff).min() >= -1e-12

    def test_derivative_identity(self, rng):
        # d/dt G = H G + G H^T + qq^T by central differences
        h = stable_dense(4, rng)
        q = rng.standard_normal(4)
        t, dt = 0.8, 1e-5
        fd = (vanloan_gram(h, q, t + dt) - vanloan_gram(h, q, t - dt)) / (2 * dt)
        g = vanloan_gram(h, q, t)
        rhs = h @ g + g @ h.T + np.outer(q, q)
        np.testing.assert_allclose(fd, rhs, atol=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            vanloan_gram(np.eye(2), np.ones(2), -1.0)

    def test_q_must_match_the_order_of_h(self):
        # the node evaluation once failed in numpy's broadcast of qq^T
        with pytest.raises(DimensionError, match="q does not match the order of H"):
            vanloan_gram(-np.eye(3), np.ones(4), 0.5)
        with pytest.raises(DimensionError, match="q does not match the order of H"):
            vanloan_gram_nodes(-np.eye(3), np.ones(4), 0.5, 2)

    def test_nodes_match_single_shots(self, rng):
        h = stable_dense(3, rng)
        q = rng.standard_normal(3)
        grams = vanloan_gram_nodes(h, q, 0.25, 4)
        for k in range(5):
            np.testing.assert_allclose(grams[k], vanloan_gram(h, q, 0.25 * k),
                                       atol=1e-12)

    def test_stiff_large_time_no_overflow(self, rng):
        # one-shot block exponential would overflow at t*||H|| ~ 1e3
        lam = -rng.uniform(1.0, 900.0, 30)
        q_mat, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        h = q_mat @ np.diag(lam) @ q_mat.T
        q = rng.standard_normal(30)
        got = vanloan_gram(h, q, 1.5)
        ref = q_mat @ vanloan_gram(np.diag(lam), q_mat.T @ q, 1.5) @ q_mat.T
        np.testing.assert_allclose(got, ref, atol=1e-10 * (1 + np.linalg.norm(ref)))


    @pytest.mark.parametrize("step", [1e308, 1.5 * VANLOAN_THETA * 2.0 ** VANLOAN_MAX_DOUBLINGS])
    def test_too_many_segments_is_a_numeric_error(self, step):
        # ||H||_1 = 1: the second step needs one doubling past the limit
        message = re.escape(f"a step of {step:.3g} ") + ".* doublings"
        with deadline(60), pytest.raises(NumericError, match=message):
            vanloan_gram_nodes(np.array([[-1.0]]), np.array([1.0]), step, 2)

    @pytest.mark.parametrize("step", [4e5, VANLOAN_THETA * 2.0 ** VANLOAN_MAX_DOUBLINGS])
    def test_the_longest_steps_are_admitted(self, step):
        # the most 10^5 sequential segments of ||tH||_1 = 4 reached, and the cap
        grams = vanloan_gram_nodes(np.array([[-1.0]]), np.array([1.0]), step, 2)
        np.testing.assert_allclose(grams[1:, 0, 0], 0.5, rtol=1e-11)

    def test_a_doubled_step_is_read_off_to_roundoff(self):
        # ||tH||_1 = 4: one segment of 4 read this Gramian 1.0e-12 relative
        # off, two doublings of a segment of 1 read it to roundoff
        gram = vanloan_gram_nodes(np.array([[-1.0]]), np.array([1.0]), 4.0, 1)[1, 0, 0]
        np.testing.assert_allclose(gram, -np.expm1(-8.0) / 2.0, rtol=1e-14)

    def test_a_stiff_step_matches_the_closed_form(self):
        # ||H||_1 = 4.8e5 at step 1: 19 doublings, where 1.2e5 sequential
        # segments were once refused
        grams = vanloan_gram_nodes(np.array([[-4.8e5]]), np.array([1.0]), 1.0, 2)
        exact = -np.expm1(-9.6e5) / 9.6e5
        np.testing.assert_allclose(grams[1:, 0, 0], exact, rtol=1e-12)

    @pytest.mark.parametrize("h, step, nsteps, what", [
        (400.0, 2.0, 1, "of one step"),    # the accumulation of one step overflows
        (4.0, 10.0, 30, "the Gramian"),    # each step is finite, the node recursion is not
    ])
    def test_overflow_is_a_numeric_error(self, h, step, nsteps, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"{what} overflowed"):
                vanloan_gram_nodes(np.array([[h]]), np.array([1.0]), step, nsteps)

    # ||H||_1 = 1 keeps t = 1 to one segment: a q q^T of 1e300 overflows the
    # block exponential's squarings, one of 1e320 overflows itself
    @pytest.mark.parametrize("q", [1e150, 1e160])
    def test_block_exponential_overflow_is_a_numeric_error_alone(self, q):
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gram in (lambda: vanloan_gram(rotation, np.full(2, q), 1.0),
                         lambda: vanloan_gram_nodes(rotation, np.full(2, q), 1.0, 2)):
                with pytest.raises(NumericError, match="block exponential overflowed"):
                    gram()

    @pytest.mark.parametrize("step, nsteps", [(0.0, 2), (-0.5, 2), (0.5, -1), (np.nan, 2),
                                              (np.inf, 2)])
    def test_nodes_need_a_positive_step(self, step, nsteps):
        with pytest.raises(ValueError, match="need step > 0 and nsteps >= 0"):
            vanloan_gram_nodes(-np.eye(2), np.ones(2), step, nsteps)


class TestLognorm2:
    def test_symmetric(self):
        assert lognorm2(np.diag([-1.0, -3.0])) == pytest.approx(-1.0)

    def test_shear(self):
        assert lognorm2(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_eigen_oracle(self, rng):
        a = rng.standard_normal((8, 8))
        expected = 0.5 * np.linalg.eigvalsh(a + a.T).max()
        assert lognorm2(a) == pytest.approx(expected, rel=1e-13)


class TestTruncSymFactor:
    def test_identity_full_rank(self):
        f = trunc_sym_factor(np.eye(2), 0.0)
        assert f.rank == 2
        np.testing.assert_allclose((f.z * f.signs) @ f.z.T, np.eye(2), atol=1e-14)

    def test_threshold_drops_tiny_eigenvalue(self):
        f = trunc_sym_factor(np.diag([1.0, 1e-20]), 1e-12)
        assert f.rank == 1

    def test_psd_reconstruction(self, rng):
        z = rng.standard_normal((6, 3))
        y = z @ z.T
        f = trunc_sym_factor(y, 1e-12)
        lam_max = np.abs(np.linalg.eigvalsh(y)).max()
        assert np.linalg.norm((f.z * f.signs) @ f.z.T - y, 2) <= 1e-12 * lam_max * (1 + 1e-8)

    def test_indefinite_signature(self, rng):
        y = np.diag([2.0, -1.0])
        f = trunc_sym_factor(y, 0.0)
        assert sorted(f.signs) == [-1.0, 1.0]
        np.testing.assert_allclose((f.z * f.signs) @ f.z.T, y, atol=1e-14)


def joint_errors(ys, q, factors):
    """||Y_k - Q Z_k diag(signs_k) Z_k^T Q^T||_2 / ||Y_k||_2 for every Y_k."""
    return np.array([np.linalg.norm(y - q @ (f.z * f.signs) @ f.z.T @ q.T, 2)
                     / np.linalg.norm(y, 2) for y, f in zip(ys, factors)])


class TestJointSymFactor:
    def test_a_direction_every_node_shares_below_budget_is_dropped(self):
        # sixteen identical nodes diag(1, eps): the stacked sigma_2 is 4 eps =
        # 0.4 tol, over the range cut at tol/4, but each node's two-sided
        # error without e2 is eps <= tol/2
        tol = 1e-6
        eps = 0.1 * tol
        ys = np.array([np.diag([1.0, eps])] * 16)
        assert range_cut(ys, tol) == 2
        q, factors = joint_sym_factor(ys, tol)
        assert q.shape == (2, 1)
        assert joint_errors(ys, q, factors).max() <= tol

    def test_a_direction_one_node_needs_is_kept(self):
        # twenty nodes pin the range to e1; the last one couples e2 to it at
        # about 0.96 tol, which a range cut at tol would drop (error 1.09 tol)
        tol = 1e-3
        eps = 0.97 * tol / np.hypot(1.0, 0.75)
        ys = np.array([np.diag([1.0, 0.0])] * 20 + [[[1.0, eps], [eps, 0.75 * eps]]])
        q, factors = joint_sym_factor(ys, tol)
        assert q.shape == (2, 2)
        assert joint_errors(ys, q, factors).max() <= tol

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-10])
    def test_guarantee_on_decaying_spectra(self, rng, tol):
        # six nodes, each with its own eigenbasis and spectrum 10^-j of both signs
        k = 12
        ys = []
        for i in range(6):
            u, _ = np.linalg.qr(np.eye(k) + 0.1 * i * rng.standard_normal((k, k)))
            lam = 10.0 ** -np.arange(k) * rng.choice([-1.0, 1.0], k) * (1 + i)
            ys.append((u * lam) @ u.T)
        ys = np.array([0.5 * (y + y.T) for y in ys])
        q, factors = joint_sym_factor(ys, tol)
        assert 1 <= q.shape[1] <= range_cut(ys, tol)
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-14)
        assert (joint_errors(ys, q, factors) <= tol).all()
        assert all(f.z.shape[0] == q.shape[1] for f in factors)

    def test_zero_tolerance_keeps_every_direction(self, rng):
        ys = np.array([stable_sym(5, rng) for _ in range(3)])
        q, factors = joint_sym_factor(ys, 0.0)
        assert q.shape == (5, 5) == (5, range_cut(ys, 0.0))
        assert all(f.rank == 5 for f in factors)
        assert joint_errors(ys, q, factors).max() <= 1e-14

    def test_zero_nodes_keep_one_direction_and_no_factor(self, rng):
        zeros = np.zeros((3, 4, 4))
        q, factors = joint_sym_factor(zeros, 1e-10)
        assert q.shape == (4, 1) == (4, range_cut(zeros, 1e-10))
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)
        assert [f.rank for f in factors] == [0, 0, 0]
        z = rng.standard_normal((4, 2))
        ys = np.array([np.zeros((4, 4)), z @ z.T])
        q, factors = joint_sym_factor(ys, 1e-10)
        assert q.shape == (4, 2) == (4, range_cut(ys, 1e-10))
        assert [f.rank for f in factors] == [0, 2]
        assert joint_errors(ys[1:], q, factors[1:]).max() <= 1e-10

    def test_input_gate(self, monkeypatch):
        with pytest.raises(DimensionError):
            joint_sym_factor(np.eye(3), 1e-10)
        with pytest.raises(DimensionError):
            joint_sym_factor(np.zeros((2, 3, 4)), 1e-10)
        with pytest.raises(NumericError, match="non-finite"):
            joint_sym_factor(np.full((1, 2, 2), np.nan), 1e-10)
        with pytest.raises(NumericError, match="not symmetric"):
            joint_sym_factor(np.array([[[0.0, 1.0], [0.0, 0.0]]]), 1e-10)
        monkeypatch.setattr(smallmat, "DENSE_CAP", 4)
        with pytest.raises(CapExceededError):
            joint_sym_factor(np.zeros((1, 5, 5)), 1e-10)


class TestDenseCap:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(smallmat, "DENSE_CAP", 4)
        with pytest.raises(CapExceededError):
            expm(np.zeros((5, 5)))
        with pytest.raises(CapExceededError):
            lognorm2(np.zeros((5, 5)))
        with pytest.raises(CapExceededError):
            real_schur(-np.eye(5))
        with pytest.raises(CapExceededError):
            small_form(-np.eye(5))
        np.testing.assert_array_equal(expm(np.zeros((4, 4))), np.eye(4))


class TestSymmetrize:
    def test_roundoff_asymmetry_ok(self, rng):
        y = stable_sym(4, rng)
        y2 = y + 1e-16 * rng.standard_normal((4, 4))
        out = symmetrize(y2)
        np.testing.assert_array_equal(out, out.T)

    def test_gross_asymmetry_rejected(self):
        from krymat.errors import NumericError
        with pytest.raises(NumericError):
            symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))
