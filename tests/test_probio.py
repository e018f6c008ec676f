"""Problems, sparse solves, Matrix Market round trips, generators."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from krymat import probio
from krymat.cli import main
from krymat.errors import DimensionError, FactorizationError, ParseError
from krymat.probio import (DLEProblem, GenSylvesterProblem, LinearSolver,
                           gen_dle_problem, gen_laplacian2d, gen_random_stable,
                           gen_sylvester_q2, gsylv_apply, load_problem, random_full_rank,
                           read_matrix_market, save_problem, write_matrix_market)
from krymat.solution import TimeGrid

from conftest import stable_sparse
from mm_reference import reference_read, reference_write


def _identity_problem(n, p):
    c = np.eye(n, p) + 0.5 * np.ones((n, p))
    return GenSylvesterProblem((sp.identity(n, format="csr"),),
                               (sp.identity(p, format="csr"),), c)


class TestGsylvApply:
    def test_identity_pair(self, rng):
        prob = _identity_problem(4, 3)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(gsylv_apply(prob, x), x)

    def test_diagonal_case(self, rng):
        a = np.array([2.0, -1.0, 3.0])
        b = np.array([0.5, 4.0])
        prob = GenSylvesterProblem((sp.diags(a).tocsr(),), (sp.diags(b).tocsr(),),
                                   np.eye(3, 2) + 0.5)
        x = rng.standard_normal((3, 2))
        np.testing.assert_allclose(gsylv_apply(prob, x), a[:, None] * x * b[None, :])

    def test_kronecker_oracle(self, rng):
        prob = gen_sylvester_q2(5, 3, seed=5)
        m = np.zeros((15, 15))
        for a_i, b_i in zip(prob.a_list, prob.b_list):
            m += np.kron(b_i.toarray().T, a_i.toarray())
        x = rng.standard_normal((5, 3))
        got = gsylv_apply(prob, x).flatten(order="F")
        np.testing.assert_allclose(got, m @ x.flatten(order="F"), atol=1e-12)

    def test_linearity(self, rng):
        prob = gen_sylvester_q2(6, 2, seed=2)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 2))
        alpha = 1.7
        np.testing.assert_allclose(
            gsylv_apply(prob, alpha * x + y),
            alpha * gsylv_apply(prob, x) + gsylv_apply(prob, y), atol=1e-12)

    def test_shape_mismatch(self):
        prob = _identity_problem(4, 3)
        with pytest.raises(DimensionError):
            gsylv_apply(prob, np.ones((3, 4)))


class TestLinearSolver:
    def test_identity(self):
        solver = LinearSolver(sp.identity(5, format="csr"))
        w = np.arange(10.0).reshape(5, 2)
        np.testing.assert_allclose(solver.solve(w), w)

    def test_diagonal(self):
        solver = LinearSolver(sp.diags([2.0] * 4).tocsr())
        np.testing.assert_allclose(solver.solve(np.ones((4, 1))), 0.5 * np.ones((4, 1)))

    def test_residual_tolerance(self, rng):
        a = stable_sparse(50, rng)
        spd = (a @ a.T).tocsr() + 0.1 * sp.identity(50)
        solver = LinearSolver(spd)
        w = rng.standard_normal((50, 3))
        x = solver.solve(w)
        assert np.linalg.norm(spd @ x - w) <= 1e-10 * np.linalg.norm(w)

    def test_nonsymmetric_residual(self, rng):
        a = gen_random_stable(300, density=0.02, seed=4)
        assert abs(a - a.T).max() > 1.0
        w = rng.standard_normal((300, 2))
        x = LinearSolver(a).solve(w)
        assert np.linalg.norm(a @ x - w) <= 1e-12 * np.linalg.norm(w)

    def test_fill_no_larger_than_colamd(self):
        # the minimum-degree ordering of A^T + A against SuperLU's default
        a = gen_laplacian2d(60)
        lu = LinearSolver(a)._lu
        colamd = spla.splu(a.tocsc(), permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz <= colamd.L.nnz + colamd.U.nnz

    def test_singular_rejected(self):
        singular = sp.csr_matrix((3, 3))
        with pytest.raises(FactorizationError):
            LinearSolver(singular)


class TestMatrixMarket:
    def test_coordinate_diag(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 3.0\n2 2 4.0\n")
        mat = read_matrix_market(path)
        np.testing.assert_allclose(mat.toarray(), np.diag([3.0, 4.0]))

    def test_symmetric_mirrors(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 1\n2 1 5.0\n")
        mat = read_matrix_market(path).toarray()
        dense_path = tmp_path / "dense.mtx"
        write_matrix_market(dense_path, np.array([[0.0, 5.0], [5.0, 0.0]]))
        np.testing.assert_array_equal(mat, read_matrix_market(dense_path))

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n2 2\n")
        with pytest.raises(ParseError, match="complex"):
            read_matrix_market(path)

    def test_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 3.0\n2 x 4.0\n")
        with pytest.raises(ParseError, match="line 4"):
            read_matrix_market(path)

    def test_sparse_roundtrip_17_digits(self, rng, tmp_path):
        a = stable_sparse(12, rng)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        back = read_matrix_market(path)
        assert (a != back).nnz == 0

    def test_dense_roundtrip(self, rng, tmp_path):
        x = rng.standard_normal((5, 3)) * np.pi
        path = tmp_path / "x.mtx"
        write_matrix_market(path, x)
        np.testing.assert_array_equal(read_matrix_market(path), x)


COO = "%%MatrixMarket matrix coordinate real general\n"
COO_SYM = "%%MatrixMarket matrix coordinate real symmetric\n"
ARR = "%%MatrixMarket matrix array real general\n"
ARR_SYM = "%%MatrixMarket matrix array real symmetric\n"

# files the reader must read exactly as the line-by-line reference does:
# the same matrix, or a ParseError naming the same line
READER_CORPUS = {
    "coordinate": COO + "3 4 4\n1 1 3.0\n3 4 -2.5e-3\n2 2 4\n1 4 1e300\n",
    "coordinate symmetric": COO_SYM + "3 3 4\n1 1 2.0\n2 1 5.0\n3 1 -1.0\n3 3 7.5\n",
    "duplicates": COO + "2 2 5\n1 1 0.1\n2 1 1.0\n1 1 0.2\n1 1 0.3\n2 1 -1.0\n",
    "symmetric duplicates": COO_SYM + "2 2 4\n2 1 0.1\n1 2 0.2\n2 1 0.3\n2 2 1.0\n",
    "body comments and blanks": (COO + "% before the size line\n\n2 2 3\n1 1 3.0\n\n"
                                 "% a comment\n   \n  % an indented one\n2 2 4.0\n"
                                 "1 2 -1.0\n\n"),
    "array comments and blanks": ARR + "2 1\n% c\n1.5\n\n-2.5\n",
    "blanks": COO + "% a comment\n\n2 2 2\n\n1 1 3.0\n  \t \n2 2 4.0\n\n",
    "array": ARR + "2 3\n1\n2\n3\n4\n5\n6\n",
    "array symmetric": ARR_SYM + "3 3\n1\n2\n3\n4\n5\n6\n",
    "special values": ARR + "5 1\nnan\n-inf\ninfinity\n-0.0\n4.9406564584124654e-324\n",
    "python-only float": ARR + "2 1\n1_000.5\n2\n",
    "python-only index": COO + "2 2 1\n+2 0_1 3.0\n",
    "crlf": COO + "2 2 2\r\n1 1 3.0\r\n2 2 4.0\r\n",
    "no final newline": COO + "2 2 2\n1 1 3.0\n2 2 4.0",
    "empty coordinate": COO + "3 3 0\n",
    "empty array": ARR + "0 2\n",
    "bad token": COO + "2 2 2\n1 1 3.0\n2 x 4.0\n",
    "bad array value": ARR + "2 1\n1.0\nabc\n",
    "two values on one array line": ARR + "2 1\n1.0 2.0\n\n",
    "short entry": COO + "2 2 2\n1 1 3.0\n2 2\n",
    "long entry": COO + "2 2 2\n1 1 3.0\n2 2 4.0 5.0\n",
    "comment after an entry": COO + "2 2 2\n1 1 3.0\n2 2 4.0 % no\n",
    "too few entries": COO + "2 2 3\n1 1 3.0\n2 2 4.0\n",
    "too many entries": COO + "2 2 1\n1 1 3.0\n2 2 4.0\n",
    "too few values": ARR + "2 2\n1\n2\n3\n",
    "index zero": COO + "2 2 2\n1 1 3.0\n0 2 4.0\n",
    "row out of bounds": COO + "2 2 2\n1 1 3.0\n3 1 4.0\n",
    "column out of bounds": COO + "2 3 2\n1 4 3.0\n1 1 4.0\n",
    "index 1.5": COO + "2 2 2\n1 1 3.0\n1.5 1 4.0\n",
    "index 1e5": COO + "2 2 2\n1e5 1 3.0\n1 1 4.0\n",
    "index 1.0": COO + "2 2 1\n1.0 1 3.0\n",
    "missing size line": COO + "% only a comment\n\n",
    "header only": COO,
    "bad size line": COO + "2 two 1\n1 1 1.0\n",
    "short size line": ARR + "2\n1\n2\n",
    "empty file": "",
    "complex": "%%MatrixMarket matrix array complex general\n1 1\n1 0\n",
}


def _same_result(tmp_path, text):
    """Read ``text`` with the package's reader and the reference; both give
    the same matrix, bit for bit, or the same ParseError."""
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode())
    results = []
    for read in (read_matrix_market, reference_read):
        try:
            results.append(read(path))
        except ParseError as exc:
            results.append((exc.line, str(exc)))
    got, want = results
    if isinstance(want, tuple):
        assert got == want
    elif sp.issparse(want):
        assert sp.issparse(got) and got.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.dtype == want.dtype and got.tobytes(order="A") == want.tobytes(order="A")
        assert got.flags.f_contiguous == want.flags.f_contiguous
    return want


class TestReaderMatchesReference:
    @pytest.mark.parametrize("name", sorted(READER_CORPUS))
    def test_corpus(self, tmp_path, name):
        _same_result(tmp_path, READER_CORPUS[name])

    @pytest.mark.parametrize("name", ["coordinate", "coordinate symmetric", "duplicates",
                                      "blanks", "array", "array symmetric",
                                      "special values", "crlf", "no final newline"])
    def test_well_formed_files_skip_the_line_pass(self, tmp_path, monkeypatch, name):
        def line_pass(*args):
            raise AssertionError("line-by-line pass on a well-formed file")

        monkeypatch.setattr(probio, "_parse_lines", line_pass)
        _same_result(tmp_path, READER_CORPUS[name])

    def test_errors_are_line_numbered(self, tmp_path):
        for name, line in (("bad token", 4), ("index 1.5", 4), ("row out of bounds", 4),
                           ("too few entries", 2), ("missing size line", 3)):
            assert _same_result(tmp_path, READER_CORPUS[name])[0] == line, name

    @pytest.mark.parametrize("n", [1, 7])
    def test_symmetric_array_index_arrays(self, rng, tmp_path, n):
        # the lower triangle column by column, as the reference's double loop reads it
        y = rng.standard_normal((n, n))
        y = y + y.T
        lower = [y[i, j] for j in range(n) for i in range(j, n)]
        text = ARR_SYM + f"{n} {n}\n" + "".join(f"{v:.17g}\n" for v in lower)
        np.testing.assert_array_equal(_same_result(tmp_path, text), y)

    def test_symmetric_needs_square(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(ARR_SYM + "3 2\n1\n2\n3\n4\n5\n6\n")
        with pytest.raises(ParseError, match="line 2: symmetric"):
            read_matrix_market(path)

    def test_bundle_members(self, rng, tmp_path):
        _same_result(tmp_path, _written(tmp_path, stable_sparse(300, rng)))
        _same_result(tmp_path, _written(tmp_path, rng.standard_normal((400, 3))))


def _written(tmp_path, mat, write=write_matrix_market):
    path = tmp_path / "w.mtx"
    write(path, mat)
    return path.read_text()


class TestWriterMatchesReference:
    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1.7976931348623157e308,
         np.nan, np.inf, -np.inf, 0.1, 1 / 3, 123456789.0],
    ])
    def test_special_values(self, tmp_path, values):
        arr = np.array(values)
        assert _written(tmp_path, arr) == _written(tmp_path, arr, reference_write)
        coo = sp.csr_matrix((arr, (np.arange(arr.size), np.zeros(arr.size, int))),
                            shape=(arr.size, 2))
        assert _written(tmp_path, coo) == _written(tmp_path, coo, reference_write)

    def test_random_bit_patterns(self, rng, tmp_path):
        bits = rng.integers(0, 2**64, size=(500, 4), dtype=np.uint64, endpoint=False)
        arr = bits.view(np.float64)
        assert _written(tmp_path, arr) == _written(tmp_path, arr, reference_write)

    def test_more_values_than_one_write(self, rng, tmp_path):
        n = 2 * probio._LINES_PER_WRITE + 3
        arr = rng.standard_normal((n, 1))
        assert _written(tmp_path, arr) == _written(tmp_path, arr, reference_write)
        cells = rng.choice(400 * 400, size=n, replace=False)
        mat = sp.csr_matrix((rng.standard_normal(n), divmod(cells, 400)), shape=(400, 400))
        assert mat.nnz == n
        assert _written(tmp_path, mat) == _written(tmp_path, mat, reference_write)

    def test_sparse_and_empty(self, rng, tmp_path):
        a = stable_sparse(40, rng)
        assert _written(tmp_path, a) == _written(tmp_path, a, reference_write)
        empty = sp.csr_matrix((3, 4))
        assert _written(tmp_path, empty) == _written(tmp_path, empty, reference_write)
        thin = np.zeros((5, 0))
        assert _written(tmp_path, thin) == _written(tmp_path, thin, reference_write)


class TestBundleBytes:
    def test_generate_matches_reference_writer(self, tmp_path):
        assert main(["generate", "laplacian2d", "--out", str(tmp_path / "new"),
                     "--param", "n0=20"]) == 0
        prob = gen_dle_problem(n0=20)
        for name, mat in (("A", prob.a), ("B", prob.b)):
            reference_write(tmp_path / f"{name}.mtx", mat)
            assert ((tmp_path / "new" / f"{name}.mtx").read_bytes()
                    == (tmp_path / f"{name}.mtx").read_bytes())

    def test_bundle_from_reference_writer_loads(self, tmp_path, monkeypatch):
        prob = gen_sylvester_q2(30, 2, seed=4, tf=2.0)
        monkeypatch.setattr(probio, "write_matrix_market", reference_write)
        save_problem(prob, tmp_path / "old")
        monkeypatch.undo()
        back = load_problem(tmp_path / "old")
        for got, want in zip(back.a_list + back.b_list, prob.a_list + prob.b_list):
            assert (got != want).nnz == 0
        np.testing.assert_array_equal(back.c, prob.c)
        assert (back.t0, back.tf) == (prob.t0, prob.tf)


class TestLaplacian:
    def test_n0_2_stencil_by_hand(self):
        a = gen_laplacian2d(2).toarray()
        assert a.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(a), [-36.0] * 4)
        expected = np.array([
            [-36.0, 9.0, 9.0, 0.0],
            [9.0, -36.0, 0.0, 9.0],
            [9.0, 0.0, -36.0, 9.0],
            [0.0, 9.0, 9.0, -36.0],
        ])
        np.testing.assert_array_equal(a, expected)

    def test_eigenvalues_negative(self):
        a = gen_laplacian2d(10).toarray()
        assert np.linalg.eigvalsh(a).max() < 0.0

    def test_exact_symmetry(self):
        a = gen_laplacian2d(7)
        assert (a != a.T).nnz == 0

    def test_n0_too_small(self):
        with pytest.raises(ValueError):
            gen_laplacian2d(1)


class TestProblems:
    def test_time_interval_validated(self):
        with pytest.raises(DimensionError):
            DLEProblem(gen_laplacian2d(3), np.ones((9, 1)), t0=1.0, tf=0.5)

    @pytest.mark.parametrize("t0, tf", [
        (0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (-1e308, 1e308),
    ], ids=["tf-inf", "t0-inf", "tf-nan", "span-overflows"])
    def test_non_finite_horizon_refused(self, t0, tf):
        # the problems refuse what TimeGrid refuses: no bundle is written
        # that no run can read
        with pytest.raises(DimensionError, match="finite t0, tf and tf - t0"):
            DLEProblem(gen_laplacian2d(3), np.ones((9, 1)), t0=t0, tf=tf)
        with pytest.raises(DimensionError, match="finite t0, tf and tf - t0"):
            GenSylvesterProblem((sp.identity(4, format="csr"),),
                                (sp.identity(2, format="csr"),), np.eye(4, 2), t0=t0, tf=tf)
        with pytest.raises(DimensionError, match="finite t0, tf and tf - t0"):
            TimeGrid(t0, tf, 10)

    def test_low_rank_warning(self):
        b = np.column_stack([np.arange(1.0, 10.0), np.arange(1.0, 10.0) ** 2])
        with pytest.warns(UserWarning, match="low rank"):
            DLEProblem(gen_laplacian2d(3), b)

    def test_rank_deficient_c_warns(self):
        a = (sp.identity(6, format="csr"),)
        b = (sp.identity(2, format="csr"),)
        c = np.ones((6, 2))  # duplicate columns
        with pytest.warns(UserWarning, match="rank deficient"):
            GenSylvesterProblem(a, b, c)

    def test_warnings_name_the_caller(self):
        # each warning names the line that built the problem, not the
        # dataclass's generated __init__
        with pytest.warns(UserWarning) as records:
            DLEProblem(-sp.identity(4, format="csr"), np.ones((4, 2)))
            GenSylvesterProblem((sp.identity(6, format="csr"),),
                                (sp.identity(2, format="csr"),), np.ones((6, 2)))
        messages = [str(r.message).split(" (")[0] for r in records]
        assert messages == ["B is not low rank relative to n", "factor B looks rank deficient",
                            "right-hand side C looks rank deficient"]
        assert [r.filename for r in records] == [__file__] * 3

    def test_bundle_roundtrip_dle(self, rng, tmp_path):
        prob = DLEProblem(gen_laplacian2d(4), random_full_rank(16, 1, seed=3),
                          t0=0.25, tf=2.0)
        save_problem(prob, tmp_path / "bundle")
        back = load_problem(tmp_path / "bundle")
        assert isinstance(back, DLEProblem)
        assert (back.a != prob.a).nnz == 0
        np.testing.assert_array_equal(back.b, prob.b)
        assert back.t0 == 0.25 and back.tf == 2.0

    def test_bundle_roundtrip_gensylv(self, tmp_path):
        prob = gen_sylvester_q2(8, 2, seed=11, tf=3.0)
        save_problem(prob, tmp_path / "bundle")
        back = load_problem(tmp_path / "bundle")
        assert isinstance(back, GenSylvesterProblem)
        assert back.q == 2
        for a1, a2 in zip(back.a_list, prob.a_list):
            assert (a1 != a2).nnz == 0
        np.testing.assert_array_equal(back.c, prob.c)

    @pytest.mark.parametrize("density", [-1.0, 0.0, 1.5, np.nan, np.inf])
    def test_density_outside_unit_interval_refused(self, density):
        with pytest.raises(ValueError, match="need 0 < density <= 1"):
            gen_random_stable(20, density=density)

    def test_full_density_accepted(self):
        a = gen_random_stable(20, density=1.0, seed=4)
        assert a.shape == (20, 20) and a.nnz > 20

    def test_generators_deterministic(self):
        a1 = gen_random_stable(30, seed=7)
        a2 = gen_random_stable(30, seed=7)
        assert (a1 != a2).nnz == 0
        np.testing.assert_array_equal(random_full_rank(30, 2, seed=7),
                                      random_full_rank(30, 2, seed=7))
