"""Dense kernels against spectral, Kronecker and quadrature oracles."""

import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_continuous_lyapunov

from krymat import smallmat
from krymat.errors import CapExceededError, DimensionError, IllPosedError, NumericError
from krymat.smallmat import (EIG_COND_MAX, VANLOAN_MAX_SEGMENTS, VANLOAN_THETA, DiagonalForm,
                             TriangularForm, expm, lognorm2, lyap_solve, phi1, real_schur,
                             small_form, symmetrize, trunc_sym_factor, vanloan_gram,
                             vanloan_gram_nodes)

from conftest import deadline, lyap_through, near_defective, stable_dense, stable_sym


def normal_complex_pairs(k, rng):
    """Q blockdiag([[-a, b], [-b, -a]], ...) Q^T: normal, complex spectrum, kappa(X) = 1."""
    blocks = [np.array([[-a, b], [-b, -a]])
              for a, b in zip(rng.uniform(0.5, 5.0, k // 2), rng.uniform(1.0, 10.0, k // 2))]
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q @ block_diag(*blocks) @ q.T


# T on the eigen side of small_form's gate: real spectrum, complex pairs, nonnormal
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
        t = make(rng)
        form, cond = small_form(t)
        assert isinstance(form.own, DiagonalForm) and cond <= EIG_COND_MAX
        np.testing.assert_allclose(form.x @ np.diag(form.own.lam) @ form.xinv, t,
                                   atol=1e-13 * cond * np.linalg.norm(t))

    @pytest.mark.parametrize("k", [2, 6])
    def test_near_defective_keeps_the_schur_form(self, k):
        t = near_defective(k)
        form, cond = small_form(t)
        assert isinstance(form.own, TriangularForm) and cond > EIG_COND_MAX
        np.testing.assert_array_equal(form.own.s, real_schur(t).own.s)

    @pytest.mark.parametrize("make", list(WELL_CONDITIONED.values()), ids=list(WELL_CONDITIONED))
    @pytest.mark.parametrize("c,d", [(1.0, 0.0), (0.01, -0.5), (-0.3, -2.0)])
    def test_solve_matches_schur_and_scipy(self, rng, make, c, d):
        t = make(rng)
        q = rng.standard_normal((t.shape[0], 2))
        q = q @ q.T
        op = c * t + d * np.eye(t.shape[0])
        form, _ = small_form(op)
        assert isinstance(form.own, DiagonalForm)
        y = lyap_through(form, q)
        assert y.dtype == float
        np.testing.assert_array_equal(y, y.T)
        for y_ref in (lyap_through(real_schur(op), q), solve_continuous_lyapunov(op, -q)):
            assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

    def test_singular_shifted_operator_rejected(self, rng):
        t = stable_sym(4, rng)
        lam_max = np.linalg.eigvalsh(t).max()
        with pytest.raises(IllPosedError):
            lyap_solve(small_form(t - lam_max * np.eye(4))[0].own, np.eye(4))


class TestRealSchur:
    def test_reconstruction_and_eigenvalues(self, rng):
        t = rng.standard_normal((30, 30))
        form = real_schur(t)
        np.testing.assert_array_equal(form.xinv, form.x.T)
        np.testing.assert_allclose(form.x @ form.own.s @ form.xinv, t,
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


# T on both sides of small_form's gate: each eigen-side kind and a Schur-side one
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
        form, cond = small_form(t)
        x, xinv, own = form.x, form.xinv, form.own
        assert isinstance(own, DiagonalForm if cond <= EIG_COND_MAX else TriangularForm)
        qh = xinv @ q @ xinv.T
        g = lyap_solve(own.shifted(c, d), 0.5 * (qh + qh.T))
        np.testing.assert_array_equal(g, g.T)
        y = x @ g @ x.T
        y_ref = solve_continuous_lyapunov(c * t + d * np.eye(t.shape[0]), -q)
        assert np.abs(y.imag).max() <= 1e-14 * np.linalg.norm(y_ref)
        assert np.linalg.norm(y.real - y_ref) <= 1e-13 * np.linalg.norm(y_ref)

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

    def test_complex_diagonal_form(self):
        # an eigen form with complex pairs gives a complex G; its gate stays
        lam = np.array([-1.0 + 2.0j, -1.0 - 2.0j])
        q = np.array([[1.0, 0.5j], [0.5j, 2.0]])
        g = lyap_solve(DiagonalForm(lam), q)
        np.testing.assert_array_equal(g, q / -(lam[:, None] + lam[None, :]))
        with pytest.raises(NumericError):
            lyap_solve(DiagonalForm(lam), np.array([[np.inf * 1j, 0.0], [0.0, 1.0]]))

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

    def test_nodes_match_single_shots(self, rng):
        h = stable_dense(3, rng)
        q = rng.standard_normal(3)
        grams, props = vanloan_gram_nodes(h, q, 0.25, 4)
        from scipy.linalg import expm as sexpm
        for k in range(5):
            np.testing.assert_allclose(grams[k], vanloan_gram(h, q, 0.25 * k),
                                       atol=1e-12)
            np.testing.assert_allclose(props[k], sexpm(0.25 * k * h), atol=1e-11)

    def test_stiff_large_time_no_overflow(self, rng):
        # one-shot block exponential would overflow at t*||H|| ~ 1e3
        lam = -rng.uniform(1.0, 900.0, 30)
        q_mat, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        h = q_mat @ np.diag(lam) @ q_mat.T
        q = rng.standard_normal(30)
        got = vanloan_gram(h, q, 1.5)
        ref = q_mat @ vanloan_gram(np.diag(lam), q_mat.T @ q, 1.5) @ q_mat.T
        np.testing.assert_allclose(got, ref, atol=1e-10 * (1 + np.linalg.norm(ref)))


    @pytest.mark.parametrize("step", [1e308, VANLOAN_THETA * (VANLOAN_MAX_SEGMENTS + 1)])
    def test_too_many_segments_is_a_numeric_error(self, step):
        # ||H||_1 = 1: the second step needs one segment past the limit
        with deadline(60), pytest.raises(NumericError, match="segments"):
            vanloan_gram_nodes(np.array([[-1.0]]), np.array([1.0]), step, 2)

    @pytest.mark.parametrize("h, step, nsteps, what", [
        (400.0, 2.0, 1, "of one step"),    # the accumulation of one step overflows
        (4.0, 10.0, 30, "the Gramian"),    # each step is finite, the node recursion is not
    ])
    def test_overflow_is_a_numeric_error(self, h, step, nsteps, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"{what} overflowed"):
                vanloan_gram_nodes(np.array([[h]]), np.array([1.0]), step, nsteps)


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
