"""Problems, sparse solves, Matrix Market round trips, generators."""

import configparser
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from krymat import probio
from krymat.cli import main
from krymat.dleexp import expo_dle_solve
from krymat.dsylv import galerkin_solve
from krymat.errors import DimensionError, FactorizationError, ParseError
from krymat.probio import (DLEProblem, GenSylvesterProblem, LinearSolver,
                           gen_dle_problem, gen_laplacian2d, gen_random_stable,
                           gen_sylvester_q2, gsylv_apply, load_problem, random_full_rank,
                           read_matrix_market, save_problem, write_matrix_market)
from krymat.solution import LowRankSolution, TimeGrid

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

    def test_right_hand_side_rows_must_match(self):
        with pytest.raises(DimensionError, match="right-hand side rows do not match A"):
            LinearSolver(sp.identity(5, format="csr")).solve(np.ones((4, 2)))


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
    "body cut after the size line": ARR + "% a comment\n36 1\n",
    "blank body": COO + "2 2 1\n\n  \t\n",
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
    "pattern": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
    "hermitian": "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1.0\n",
    "vector object": "%%MatrixMarket vector array real general\n2 1\n1\n2\n",
    "dense format": "%%MatrixMarket matrix dense real general\n1 1\n1\n",
    "four-token header": "%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n",
    "two-token coordinate size line": COO + "2 2\n1 1 3.0\n",
    "two values on one array line, right count": ARR + "2 1\n1.0 2.0\n3.0\n",
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
    else:
        _assert_same_matrix(got, want)
    return want


def _assert_same_matrix(got, want):
    """Same type, shape, dtype and bits (NaN included)."""
    if sp.issparse(want):
        assert sp.issparse(got) and got.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.dtype == want.dtype and got.tobytes(order="A") == want.tobytes(order="A")
        assert got.flags.f_contiguous == want.flags.f_contiguous


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


# tokens that Python's int or float and numpy's parsers read differently, or not at all
ODD_TOKENS = ["1_0", "0x1p3", "+inf", "nan", "1e400", "-0", "\u0661", "", "0", "1", "2", "3"]
HEADER_WORDS = ["%%MatrixMarket", "matrix", "vector", "coordinate", "array", "dense", "real",
                "integer", "complex", "pattern", "general", "symmetric", "hermitian", "Real"]


@st.composite
def mutated_files(draw):
    """A READER_CORPUS file after one to three mutations: a token added,
    dropped or replaced, a new size line (sizes of at most 5, so nothing
    large is allocated), a header word replaced, a comment or blank line
    added, dropped or moved, or the file cut short."""
    lines = READER_CORPUS[draw(st.sampled_from(sorted(READER_CORPUS)))].splitlines(True)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "size", "header", "line", "cut"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "cut":
            text = "".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].splitlines(True)
        elif kind == "line":
            moved = lines.pop(i) if lines and draw(st.booleans()) else None
            if moved is None or draw(st.booleans()):
                new = moved or draw(st.sampled_from(["% c\n", "\n", "  \t\n", "%\n"]))
                lines.insert(draw(st.integers(0, len(lines))), new)
        elif not lines:
            continue
        elif kind == "size":
            sizes = draw(st.lists(st.integers(-1, 5), min_size=1, max_size=4))
            lines[i] = " ".join(map(str, sizes)) + "\n"
        else:
            toks = lines[0 if kind == "header" else i].split()
            words = HEADER_WORDS if kind == "header" else ODD_TOKENS
            at = draw(st.integers(0, len(toks)))
            action = draw(st.sampled_from(["add", "drop", "replace"]))
            if action != "add" and at < len(toks):
                del toks[at]
            if action != "drop":
                toks.insert(at, draw(st.sampled_from(words)))
            lines[0 if kind == "header" else i] = " ".join(toks) + "\n"
    return "".join(lines)


class TestReaderProperty:
    @settings(derandomize=True, database=None, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_files())
    def test_reads_as_reference_or_names_a_line(self, tmp_path, text):
        # one way only: the package refuses some files the reference reads
        # (a symmetric file that is not square, a negative size)
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = read_matrix_market(path)
            except ParseError as exc:
                assert re.match(r"line \d+: ", str(exc)), str(exc)
                return
        _assert_same_matrix(got, reference_read(path))


class TestSizeLine:
    """Sizes the line-by-line reference has no answer for: it builds a
    matrix scipy or numpy refuses, or runs out of memory."""

    @pytest.mark.parametrize("text", [COO + "-3 3 0\n", COO + "3 3 -1\n", ARR + "2 -1\n"],
                             ids=["rows", "nnz", "array cols"])
    def test_negative_size_is_a_bad_size_line(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match="^line 2: bad size line '"):
            read_matrix_market(path)

    @pytest.mark.parametrize("text,shape", [
        (COO + f"{2**62} {2**62} 1\n1 1 1.0\n", f"{2**62} x {2**62}"),
        (COO + f"{2**63} {2**63} 1\n1 1 1.0\n", f"{2**63} x {2**63}"),
        (COO + f"2 {2**63} 1\n1 1 1.0\n", f"2 x {2**63}"),
        (ARR + f"{2**31} {2**31}\n1.0\n", f"{2**31} x {2**31}"),
        (ARR + f"{2**63} 0\n", f"{2**63} x 0"),
    ], ids=["2^62 rows", "2^63 rows", "2^63 cols", "2^62 values", "2^63 rows array"])
    def test_size_numpy_cannot_index_is_refused_first(self, tmp_path, monkeypatch,
                                                      text, shape):
        def reading(*args):
            raise AssertionError("read past the size line")

        for name in ("_parse_fast", "_parse_lines", "_coordinate_matrix", "_array_matrix"):
            monkeypatch.setattr(probio, name, reading)
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line 2: cannot allocate a {shape} matrix$"):
            read_matrix_market(path)

    @pytest.mark.parametrize("text,build,message", [
        (COO + "1000000000000 1000000000000 1\n1 1 1.0\n", "_coordinate_matrix",
         "line 2: cannot allocate a 1000000000000 x 1000000000000 matrix"),
        (ARR + "% a comment\n2 1\n1.0\n2.0\n", "_array_matrix",
         "line 3: cannot allocate a 2 x 1 matrix"),
    ], ids=["coordinate", "array"])
    def test_failed_allocation_is_the_size_lines_error(self, tmp_path, monkeypatch,
                                                       text, build, message):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(probio, build, out_of_memory)
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_matrix_market(path)


def _written(tmp_path, mat):
    path = tmp_path / "w.mtx"
    write_matrix_market(path, mat)
    return path.read_text()


def _bits(a):
    """The float64 bit patterns of ``a``, with every NaN as numpy's one NaN."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _reads_back(tmp_path, mat):
    """Write ``mat`` as ``real general`` and read it with the package's reader
    and the reference: the same shape and the same values bit for bit, a NaN
    as a NaN and the sign of a zero kept."""
    layout = "coordinate" if sp.issparse(mat) else "array"
    assert _written(tmp_path, mat).startswith(f"%%MatrixMarket matrix {layout} real general\n")
    want = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    if want.ndim == 1:
        want = want[:, None]
    for read in (read_matrix_market, reference_read):
        got = read(tmp_path / "w.mtx")
        assert sp.issparse(got) == sp.issparse(mat)
        if sp.issparse(got):
            assert got.nnz == mat.nnz
            got = got.toarray()
        assert got.shape == want.shape and _bits(got) == _bits(want)


class TestWriterMatchesReference:
    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1.7976931348623157e308,
         np.nan, np.inf, -np.inf, 0.1, 1 / 3, 123456789.0],
    ])
    def test_special_values(self, tmp_path, values):
        arr = np.array(values)
        _reads_back(tmp_path, arr)
        coo = sp.csr_matrix((arr, (np.arange(arr.size), np.zeros(arr.size, int))),
                            shape=(arr.size, 2))
        _reads_back(tmp_path, coo)

    def test_random_bit_patterns(self, rng, tmp_path):
        bits = rng.integers(0, 2**64, size=(500, 4), dtype=np.uint64, endpoint=False)
        _reads_back(tmp_path, bits.view(np.float64))

    def test_more_values_than_one_write(self, rng, tmp_path):
        n = 65539
        _reads_back(tmp_path, rng.standard_normal((n, 1)))
        cells = rng.choice(400 * 400, size=n, replace=False)
        mat = sp.csr_matrix((rng.standard_normal(n), divmod(cells, 400)), shape=(400, 400))
        assert mat.nnz == n
        _reads_back(tmp_path, mat)

    def test_sparse_and_empty(self, rng, tmp_path):
        _reads_back(tmp_path, stable_sparse(40, rng))
        _reads_back(tmp_path, sp.csr_matrix((3, 4)))
        _reads_back(tmp_path, np.zeros((5, 0)))

    def test_integer_matrix_is_written_as_real(self, tmp_path):
        _reads_back(tmp_path, sp.identity(3, dtype=np.int64, format="csr"))
        _reads_back(tmp_path, np.arange(6).reshape(2, 3))


class TestBundleBytes:
    def test_generate_matches_reference_writer(self, tmp_path):
        # two runs write the same bytes, and the bundle loads back to the
        # generator's problem
        for out in ("one", "two"):
            assert main(["generate", "laplacian2d", "--out", str(tmp_path / out),
                         "--param", "n0=20"]) == 0
        names = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "two").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        back, prob = load_problem(tmp_path / "one"), gen_dle_problem(n0=20)
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(back.a, attr), getattr(prob.a, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert back.b.shape == prob.b.shape and back.b.tobytes() == prob.b.tobytes()

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


class TestManifestTimes:
    """t0 and tf go to problem.cfg and solution.cfg as their shortest
    round-trip decimals; a manifest with 17 significant digits still loads."""

    @staticmethod
    def _assert_times_reload(tmp_path):
        grid = LowRankSolution.load(tmp_path / "factors").grid
        back = load_problem(tmp_path / "bundle")
        for t0, tf in ((back.t0, back.tf), (grid.t0, grid.tf)):
            assert np.float64(t0).tobytes() == np.float64(0.1).tobytes()
            assert np.float64(tf).tobytes() == np.float64(1 / 3).tobytes()

    def test_times_reload_bit_for_bit(self, tmp_path):
        prob = gen_dle_problem(n0=4, p=1, seed=3, t0=0.1, tf=1 / 3)
        save_problem(prob, tmp_path / "bundle")
        sol, _ = expo_dle_solve(prob, TimeGrid(prob.t0, prob.tf, 4), 5, 1e-8)
        sol.save(tmp_path / "factors")
        manifests = {tmp_path / "bundle" / "problem.cfg": "problem",
                     tmp_path / "factors" / "solution.cfg": "solution"}
        for path in manifests:
            lines = path.read_text().splitlines()
            assert "t0 = 0.1" in lines and "tf = 0.3333333333333333" in lines
        self._assert_times_reload(tmp_path)
        # the same times as the 17 significant digits of older manifests
        for path, section in manifests.items():
            manifest = configparser.ConfigParser()
            manifest.read(path)
            manifest[section].update(t0=f"{0.1:.17g}", tf=f"{1 / 3:.17g}")
            with open(path, "w") as fh:
                manifest.write(fh)
            assert "t0 = 0.10000000000000001" in path.read_text().splitlines()
        self._assert_times_reload(tmp_path)


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

    def test_dense_operator_refused(self):
        with pytest.raises(DimensionError, match="DLEProblem: expected a sparse matrix"):
            DLEProblem(-np.eye(4), np.ones((4, 1)))
        with pytest.raises(DimensionError, match="A_i: expected a sparse matrix"):
            GenSylvesterProblem((-np.eye(4),), (sp.identity(2, format="csr"),), np.eye(4, 2))

    @pytest.mark.parametrize("orders", [(4, 5, 2, 2), (4, 4, 2, 3)], ids=["A_i", "B_i"])
    def test_inconsistent_term_orders_refused(self, orders):
        a1, a2, b1, b2 = (sp.identity(k, format="csr") for k in orders)
        with pytest.raises(DimensionError, match="inconsistent operator orders across terms"):
            GenSylvesterProblem((a1, a2), (b1, b2), np.eye(4, 2))

    def test_vector_factors_are_one_column(self):
        prob = DLEProblem(gen_laplacian2d(3), np.arange(1.0, 10.0), z0=np.ones(9))
        assert prob.b.shape == (9, 1) and prob.z0.shape == (9, 1) and prob.p == 1

    def test_z0_rows_must_match(self):
        with pytest.raises(DimensionError, match="Z0 row count does not match A"):
            DLEProblem(gen_laplacian2d(3), np.ones((9, 1)), z0=np.ones((8, 1)))

    @pytest.mark.parametrize("member", ["A", "B", "Z0"])
    def test_non_finite_dle_member_refused(self, member):
        parts = {"a": gen_laplacian2d(3), "b": np.ones((9, 2)), "z0": np.ones((9, 1))}
        bad = parts[member.lower()]
        if sp.issparse(bad):
            bad.data[4] = np.nan
        else:
            bad[3, -1] = -np.inf
        with pytest.raises(DimensionError, match=f"^{member} has non-finite entries$"):
            DLEProblem(**parts)

    @pytest.mark.parametrize("member", ["A2", "B1", "C", "X0"])
    def test_non_finite_gensylv_member_refused(self, member):
        prob = gen_sylvester_q2(n=6, p=2, seed=1)
        parts = {"A1": prob.a_list[0], "A2": prob.a_list[1].copy(),
                 "B1": prob.b_list[0].copy(), "B2": prob.b_list[1],
                 "C": prob.c.copy(), "X0": np.zeros((6, 2))}
        bad = parts[member]
        if sp.issparse(bad):
            bad.data[0] = np.inf
        else:
            bad[5, 1] = np.nan
        with pytest.raises(DimensionError, match=f"^{member} has non-finite entries$"):
            GenSylvesterProblem((parts["A1"], parts["A2"]), (parts["B1"], parts["B2"]),
                                parts["C"], x0=parts["X0"])

    def test_save_refuses_an_unknown_problem_type(self, tmp_path):
        with pytest.raises(TypeError, match="cannot save problem of type TimeGrid"):
            save_problem(TimeGrid(0.0, 1.0, 4), tmp_path / "bundle")
        assert not (tmp_path / "bundle" / "problem.cfg").exists()

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

    def test_member_parse_error_names_the_file(self, tmp_path):
        save_problem(gen_sylvester_q2(6, 2, seed=1), tmp_path)
        (tmp_path / "A2.mtx").write_text(COO + "2 2\n1 1 3.0\n")
        with pytest.raises(ParseError) as exc:
            load_problem(tmp_path)
        assert str(exc.value) == (f"{tmp_path / 'A2.mtx'}: line 2: "
                                  "coordinate size line needs 'rows cols nnz'")

    def test_bundle_with_initial_value_loads_and_runs(self, tmp_path):
        # X0 loads back bit for bit, and a run on the bundle writes the
        # report of the same solve in memory
        base = gen_sylvester_q2(12, 2, seed=11)
        x0 = np.random.default_rng(4).standard_normal((12, 2))
        prob = GenSylvesterProblem(base.a_list, base.b_list, base.c, x0=x0, tf=2.0)
        bundle = tmp_path / "bundle"
        save_problem(prob, bundle)
        back = load_problem(bundle)
        for got, want in [*zip(back.a_list, prob.a_list), *zip(back.b_list, prob.b_list)]:
            assert got.toarray().tobytes() == want.toarray().tobytes()
        assert back.c.tobytes() == prob.c.tobytes() and back.x0.tobytes() == x0.tobytes()
        assert (back.t0, back.tf) == (0.0, 2.0)
        _, report = galerkin_solve(prob, TimeGrid(0.0, 2.0, 8), 40, 1e-8)
        report.write_csv(tmp_path / "memory.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nmethod = galerkin\n\n[problem]\nbundle = {bundle}\n\n"
                       "[grid]\nsteps = 8\n\n[solver]\nm_max = 40\ntol = 1e-8\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert ((tmp_path / "out" / "report.csv").read_bytes()
                == (tmp_path / "memory.csv").read_bytes())

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
