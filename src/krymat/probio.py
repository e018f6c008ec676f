"""Problem definitions, sparse storage and factorization, Matrix Market I/O,
and built-in test-problem generators.

Sparse matrices are scipy CSR throughout; a problem bundle on disk is a
directory holding Matrix Market files plus a ``problem.cfg`` manifest naming
the members and the time horizon.
"""

import configparser
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .blockmat import BlockRow, global_qr
from .errors import DimensionError, FactorizationError, ParseError


def _as_square_sparse(a, who):
    if not sp.issparse(a):
        raise DimensionError(f"{who}: expected a sparse matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{who}: expected square, got {a.shape}")
    return a.tocsr()


def _full_rank_warning(mat, name):
    """Advisory full-column-rank check through the global QR rank signal."""
    arr = np.asarray(mat, dtype=float)
    if arr.shape[1] == 0:
        return
    _, _, deficient = global_qr(BlockRow(arr, 1))
    if deficient:
        warnings.warn(f"{name} looks rank deficient (columns {list(deficient)})",
                      stacklevel=4)


def check_horizon(t0, tf):
    """Refuse a horizon that no time grid can cover: the problems and
    ``TimeGrid`` share it, so no bundle is written that no run can read."""
    if not np.isfinite([t0, tf, tf - t0]).all():
        raise DimensionError(f"need finite t0, tf and tf - t0, got t0 = {t0}, tf = {tf}")
    if not t0 < tf:
        raise DimensionError("need t0 < tf")


@dataclass(frozen=True)
class GenSylvesterProblem:
    """d/dt X = sum_i A_i X B_i + C on [t0, tf] with X(t0) = X0."""

    a_list: tuple
    b_list: tuple
    c: np.ndarray
    x0: np.ndarray = None
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        a_list = tuple(_as_square_sparse(a, "GenSylvesterProblem A_i") for a in self.a_list)
        b_list = tuple(_as_square_sparse(b, "GenSylvesterProblem B_i") for b in self.b_list)
        object.__setattr__(self, "a_list", a_list)
        object.__setattr__(self, "b_list", b_list)
        if len(a_list) != len(b_list) or not a_list:
            raise DimensionError("need equally many A_i and B_i terms, at least one")
        n = a_list[0].shape[0]
        p = b_list[0].shape[0]
        if any(a.shape[0] != n for a in a_list) or any(b.shape[0] != p for b in b_list):
            raise DimensionError("inconsistent operator orders across terms")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (n, p):
            raise DimensionError(f"C must be {n} x {p}, got {c.shape}")
        object.__setattr__(self, "c", c)
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (n, p):
                raise DimensionError(f"X0 must be {n} x {p}, got {x0.shape}")
            object.__setattr__(self, "x0", x0)
        check_horizon(self.t0, self.tf)
        _full_rank_warning(c, "right-hand side C")

    @property
    def q(self):
        return len(self.a_list)

    @property
    def n(self):
        return self.a_list[0].shape[0]

    @property
    def p(self):
        return self.b_list[0].shape[0]

    def initial_value(self):
        return np.zeros((self.n, self.p)) if self.x0 is None else self.x0


@dataclass(frozen=True)
class DLEProblem:
    """d/dt X = A X + X A^T + B B^T on [t0, tf] with X(t0) = Z0 Z0^T."""

    a: sp.spmatrix
    b: np.ndarray
    z0: np.ndarray = None
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        a = _as_square_sparse(self.a, "DLEProblem")
        object.__setattr__(self, "a", a)
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != a.shape[0]:
            raise DimensionError("B row count does not match A")
        object.__setattr__(self, "b", b)
        if self.z0 is not None:
            z0 = np.asarray(self.z0, dtype=float)
            if z0.ndim == 1:
                z0 = z0[:, None]
            if z0.shape[0] != a.shape[0]:
                raise DimensionError("Z0 row count does not match A")
            object.__setattr__(self, "z0", z0)
        check_horizon(self.t0, self.tf)
        if b.shape[1] > max(1, a.shape[0] // 10):
            warnings.warn("B is not low rank relative to n (p > n/10)", stacklevel=3)
        _full_rank_warning(b, "factor B")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def p(self):
        return self.b.shape[1]

    @property
    def has_initial_value(self):
        """True when X0 = Z0 Z0^T is nonzero."""
        return self.z0 is not None and bool(np.linalg.norm(self.z0) > 0)


class LinearSolver:
    """Reusable sparse LU of A for the repeated A^{-1} applications.

    The columns are ordered by minimum degree on the pattern of A^T + A, which
    on the 2-D Laplacian gives about 40 % less fill than the default COLAMD,
    and no more on the random stable matrices; pivoting stays partial.
    """

    def __init__(self, a):
        a = _as_square_sparse(a, "LinearSolver")
        self.shape = a.shape
        try:
            self._lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise FactorizationError(f"sparse LU failed: {exc}") from exc

    def solve(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape[0] != self.shape[0]:
            raise DimensionError("right-hand side rows do not match A")
        return self._lu.solve(w)


def gsylv_apply(problem, x):
    """Apply the generalized Sylvester operator X -> sum_i A_i X B_i."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n, problem.p):
        raise DimensionError(f"operand must be {problem.n} x {problem.p}, got {x.shape}")
    out = np.zeros_like(x)
    for a_i, b_i in zip(problem.a_list, problem.b_list):
        out += (b_i.T @ (a_i @ x).T).T
    return out


# ---------------------------------------------------------------------------
# Matrix Market I/O (coordinate and array, real entries only)

_LINES_PER_WRITE = 1 << 15
_COORDINATE_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _mm_tokens(header_line):
    toks = header_line.strip().split()
    if len(toks) != 5 or toks[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", 1)
    return [t.lower() for t in toks[1:]]


def _is_data(line):
    """Neither blank nor a comment."""
    return bool(line.strip()) and not line.lstrip().startswith("%")


def _parse_fast(fh, fmt, count, nrows, ncols):
    """The entries read by numpy from ``fh`` to its end, or None where numpy
    refuses a line (a comment among them) or the entries do not match the
    size line.

    numpy's int and float parsers accept a subset of what Python's do, so
    what this returns is what ``_parse_lines`` would return.
    """
    if count < 1:                 # numpy warns on a body without data
        return None
    coordinate = fmt == "coordinate"
    try:
        parsed = np.loadtxt(fh, dtype=_COORDINATE_ENTRY if coordinate else np.float64,
                            comments=None, ndmin=1 if coordinate else 2)
    except ValueError:
        return None
    if not coordinate:
        return parsed[:, 0] if parsed.shape == (count, 1) else None
    i, j = parsed["i"], parsed["j"]
    if (len(parsed) != count or i.min() < 1 or i.max() > nrows
            or j.min() < 1 or j.max() > ncols):
        return None
    return i, j, parsed["v"]


def _parse_lines(path, size_lineno, fmt, count, nrows, ncols):
    """The entries read line by line with Python's int and float, raising the
    ParseError of the first bad line."""
    with open(path, "r") as fh:
        entries = [(no, ln.strip()) for no, ln in enumerate(fh, start=1)
                   if no > size_lineno and _is_data(ln)]
    if len(entries) != count:
        what = "entries" if fmt == "coordinate" else "values"
        raise ParseError(f"expected {count} {what}, found {len(entries)}", size_lineno)
    if fmt == "array":
        vals = []
        for lineno, ln in entries:
            toks = ln.split()
            if len(toks) != 1:
                raise ParseError(f"bad array value {ln!r}", lineno)
            try:
                vals.append(float(toks[0]))
            except ValueError:
                raise ParseError(f"bad array value {ln!r}", lineno) from None
        return np.array(vals, dtype=np.float64)
    rows, cols, vals = [], [], []
    for lineno, ln in entries:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(f"bad coordinate entry {ln!r}", lineno)
        try:
            i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError:
            raise ParseError(f"bad coordinate entry {ln!r}", lineno) from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise ParseError(f"index ({i}, {j}) out of bounds", lineno)
        rows.append(i)
        cols.append(j)
        vals.append(v)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64))


def _coordinate_matrix(i, j, v, shape, symmetric):
    rows, cols = i - 1, j - 1
    if symmetric:
        # each off-diagonal entry followed by its mirror, the order in which
        # coo sums duplicates
        keep = np.column_stack([np.ones(len(v), dtype=bool), rows != cols]).ravel()
        rows, cols = (np.column_stack([rows, cols]).ravel()[keep],
                      np.column_stack([cols, rows]).ravel()[keep])
        v = np.repeat(v, 2)[keep]
    mat = sp.coo_matrix((v, (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _array_matrix(vals, nrows, ncols, symmetric):
    if not symmetric:
        return vals.reshape((nrows, ncols), order="F")
    # the lower triangle, column by column: (j, i) with i >= j
    j, i = np.triu_indices(nrows)
    dense = np.zeros((nrows, ncols))
    dense[i, j] = vals
    dense[j, i] = vals
    return dense


def read_matrix_market(path):
    """Read a real Matrix Market file into a CSR matrix (coordinate) or ndarray (array).

    Symmetric storage is expanded to full.  Complex, pattern and hermitian
    files are rejected; malformed content raises ParseError with the line
    number.  numpy reads the entries; only a body it refuses is read again
    line by line, which accepts it or names the bad line.
    """
    with open(path, "r") as fh:
        header = fh.readline()
        if not header:
            raise ParseError("empty file", 1)
        obj, fmt, field_kind, symmetry = _mm_tokens(header)
        if obj != "matrix":
            raise ParseError(f"unsupported object {obj!r}", 1)
        if fmt not in ("coordinate", "array"):
            raise ParseError(f"unsupported format {fmt!r}", 1)
        if field_kind not in ("real", "integer"):
            raise ParseError(f"unsupported field {field_kind!r} (real only)", 1)
        if symmetry not in ("general", "symmetric"):
            raise ParseError(f"unsupported symmetry {symmetry!r}", 1)

        size_lineno, size_line = 1, ""
        while not _is_data(size_line):
            size_line = fh.readline()
            if not size_line:
                raise ParseError("missing size line", size_lineno)
            size_lineno += 1
        size_line = size_line.strip()
        sizes = size_line.split()
        if fmt == "coordinate" and len(sizes) != 3:
            raise ParseError("coordinate size line needs 'rows cols nnz'", size_lineno)
        if fmt == "array" and len(sizes) != 2:
            raise ParseError("array size line needs 'rows cols'", size_lineno)
        try:
            nrows, ncols, *nnz = (int(s) for s in sizes)
        except ValueError:
            raise ParseError(f"bad size line {size_line!r}", size_lineno) from None
        symmetric = symmetry == "symmetric"
        if symmetric and nrows != ncols:
            raise ParseError("symmetric storage needs a square matrix", size_lineno)
        if fmt == "coordinate":
            count = nnz[0]
        else:
            count = nrows * (nrows + 1) // 2 if symmetric else nrows * ncols
        parsed = _parse_fast(fh, fmt, count, nrows, ncols)
    if parsed is None:
        parsed = _parse_lines(path, size_lineno, fmt, count, nrows, ncols)
    if fmt == "coordinate":
        return _coordinate_matrix(*parsed, (nrows, ncols), symmetric)
    return _array_matrix(parsed, nrows, ncols, symmetric)


def write_matrix_market(path, mat):
    """Write a sparse matrix (coordinate) or ndarray (array), 17 significant
    digits, formatting a bounded chunk of entries per write."""
    if sp.issparse(mat):
        coo = mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        layout, size = "coordinate", f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"
        columns = (coo.row[order] + 1, coo.col[order] + 1, coo.data[order])
        line = "%d %d %.17g\n"
    else:
        arr = np.asarray(mat, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        layout, size = "array", f"{arr.shape[0]} {arr.shape[1]}"
        columns = (arr.ravel(order="F"),)
        line = "%.17g\n"
    width, total = len(columns), len(columns[0])
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix {layout} real general\n")
        fh.write(f"{size}\n")
        for start in range(0, total, _LINES_PER_WRITE):
            stop = min(start + _LINES_PER_WRITE, total)
            fields = [None] * (width * (stop - start))
            for c, col in enumerate(columns):
                fields[c::width] = col[start:stop].tolist()
            fh.write(line * (stop - start) % tuple(fields))


# ---------------------------------------------------------------------------
# Test-problem generators

def gen_laplacian2d(n0):
    """5-point Laplacian on the unit square (Dirichlet), scaled by -(n0+1)^2.

    The scaling makes the operator stable: all eigenvalues are negative.
    """
    if n0 < 2:
        raise ValueError("gen_laplacian2d: need n0 >= 2")
    h2 = float((n0 + 1) ** 2)
    ones = np.ones(n0)
    t = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], [-1, 0, 1], format="csr")
    eye = sp.identity(n0, format="csr")
    a = h2 * (sp.kron(eye, t) + sp.kron(t, eye))
    a = a.tocsr()
    a.eliminate_zeros()      # kron keeps structural zeros of the identity factor
    a.sum_duplicates()
    a.sort_indices()
    return a


def gen_random_stable(n, density=0.1, seed=0):
    """Sparse random A made stable and nonsingular by diagonal dominance:
    R - diag(r + 1.0) for a random sparse R with absolute row sums r, so the
    margin of dominance is 1.0."""
    if not 0 < density <= 1:
        raise ValueError(f"gen_random_stable: need 0 < density <= 1, got density = {density}")
    rng = np.random.default_rng(seed)
    nnz = max(n, int(density * n * n))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    row_sums = np.asarray(np.abs(a).sum(axis=1)).ravel()
    a = a - sp.diags(row_sums + 1.0)
    a = a.tocsr()
    a.sort_indices()
    return a


def random_full_rank(n, p, seed=0):
    """Dense n x p factor with unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, p))
    return b / np.linalg.norm(b)


def _need_positive(who, **sizes):
    for key, value in sizes.items():
        if value < 1:
            raise ValueError(f"{who}: need {key} >= 1, got {key} = {value}")


def gen_dle_problem(n0=10, p=2, seed=0, t0=0.0, tf=1.0):
    """Laplacian DLE fixture: A = gen_laplacian2d(n0), random unit-norm B."""
    _need_positive("gen_dle_problem", p=p)
    a = gen_laplacian2d(n0)
    b = random_full_rank(a.shape[0], p, seed)
    return DLEProblem(a, b, t0=t0, tf=tf)


def gen_random_dle_problem(n=50, p=1, density=0.1, seed=0, t0=0.0, tf=1.0):
    """Random DLE fixture: A = gen_random_stable(n), random unit-norm B."""
    _need_positive("gen_random_dle_problem", n=n, p=p)
    a = gen_random_stable(n, density=density, seed=seed)
    return DLEProblem(a, random_full_rank(n, p, seed=seed), t0=t0, tf=tf)


def gen_sylvester_q2(n=40, p=3, seed=0, t0=0.0, tf=1.0):
    """Two-term fixture A1 X B1 + A2 X B2 with the Lyapunov-like pattern
    B1 = I_p and A2 = I_n, both A1 and B2 stable."""
    _need_positive("gen_sylvester_q2", n=n, p=p)
    rng = np.random.default_rng(seed)
    a1 = gen_random_stable(n, density=0.1, seed=seed)
    b2_dense = rng.standard_normal((p, p))
    b2_dense = b2_dense - (np.abs(np.linalg.eigvals(b2_dense).real).max() + 1.0) * np.eye(p)
    c = rng.standard_normal((n, p))
    c /= np.linalg.norm(c)
    return GenSylvesterProblem(
        (a1, sp.identity(n, format="csr")),
        (sp.identity(p, format="csr"), sp.csr_matrix(b2_dense)),
        c, t0=t0, tf=tf,
    )


# ---------------------------------------------------------------------------
# Problem bundles on disk

MANIFEST_NAME = "problem.cfg"


def read_manifest(path, keys):
    """``keys(manifest)`` on the INI file at ``path``.  A missing file, text
    that is not INI, or a key that ``keys`` misses or cannot convert raises
    ParseError naming the file."""
    manifest = configparser.ConfigParser()
    try:
        if manifest.read(path):
            return keys(manifest)
    except (configparser.Error, KeyError, ValueError) as exc:
        # some parser messages span lines; the CLI reports one
        raise ParseError(f"bad {path.name} in {path.parent}: {' '.join(str(exc).split())}") from None
    raise ParseError(f"no {path.name} in {path.parent}")


def save_problem(problem, out_dir):
    """Write a problem bundle (Matrix Market members + manifest) to a directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = configparser.ConfigParser()
    manifest["problem"] = {"t0": f"{problem.t0:.17g}", "tf": f"{problem.tf:.17g}"}
    members = {}
    if isinstance(problem, DLEProblem):
        manifest["problem"]["kind"] = "dle"
        members["A"] = problem.a
        members["B"] = problem.b
        if problem.z0 is not None:
            members["Z0"] = problem.z0
    elif isinstance(problem, GenSylvesterProblem):
        manifest["problem"]["kind"] = "gensylv"
        manifest["problem"]["q"] = str(problem.q)
        for i, (a_i, b_i) in enumerate(zip(problem.a_list, problem.b_list), start=1):
            members[f"A{i}"] = a_i
            members[f"B{i}"] = b_i
        members["C"] = problem.c
        if problem.x0 is not None:
            members["X0"] = problem.x0
    else:
        raise TypeError(f"cannot save problem of type {type(problem).__name__}")
    manifest["matrices"] = {name: f"{name}.mtx" for name in members}
    for name, mat in members.items():
        write_matrix_market(out_dir / f"{name}.mtx", mat)
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        manifest.write(fh)
    return out_dir


def load_problem(bundle_dir):
    """Load a problem bundle written by save_problem."""
    bundle_dir = Path(bundle_dir)

    def keys(manifest):
        kind = manifest.get("problem", "kind", fallback=None)
        return (kind, manifest.getfloat("problem", "t0", fallback=0.0),
                manifest.getfloat("problem", "tf", fallback=1.0),
                manifest.getint("problem", "q") if kind == "gensylv" else 0,
                dict(manifest["matrices"]) if manifest.has_section("matrices") else {})

    kind, t0, tf, q, files = read_manifest(bundle_dir / MANIFEST_NAME, keys)

    def member(name, required=True, dense=False):
        key = name.lower()
        if key not in files:
            if required:
                raise ParseError(f"manifest is missing matrix {name!r}")
            return None
        mat = read_matrix_market(bundle_dir / files[key])
        return mat.toarray() if dense and sp.issparse(mat) else mat

    if kind == "dle":
        return DLEProblem(sp.csr_matrix(member("A")), member("B", dense=True),
                          z0=member("Z0", required=False), t0=t0, tf=tf)
    if kind == "gensylv":
        a_list = [sp.csr_matrix(member(f"A{i}")) for i in range(1, q + 1)]
        b_list = [sp.csr_matrix(member(f"B{i}")) for i in range(1, q + 1)]
        return GenSylvesterProblem(tuple(a_list), tuple(b_list), member("C", dense=True),
                                   x0=member("X0", required=False, dense=True), t0=t0, tf=tf)
    raise ParseError(f"unknown problem kind {kind!r}")
