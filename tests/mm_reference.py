"""The line-by-line Matrix Market reader and writer that krymat used before
its I/O was vectorized, kept as test-only references: the package's reader
must return the same matrix or the same line-numbered ParseError, and its
writer the same bytes."""

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from krymat.errors import ParseError


def _mm_tokens(header_line):
    toks = header_line.strip().split()
    if len(toks) != 5 or toks[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", 1)
    return [t.lower() for t in toks[1:]]


def reference_read(path):
    """Read a real Matrix Market file into a CSR matrix (coordinate) or ndarray (array).

    Symmetric storage is expanded to full.  Complex, pattern and hermitian
    files are rejected; malformed content raises ParseError with the line
    number.
    """
    path = Path(path)
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", 1)
    obj, fmt, field_kind, symmetry = _mm_tokens(lines[0])
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", 1)
    if fmt not in ("coordinate", "array"):
        raise ParseError(f"unsupported format {fmt!r}", 1)
    if field_kind not in ("real", "integer"):
        raise ParseError(f"unsupported field {field_kind!r} (real only)", 1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)

    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ParseError("missing size line", len(lines))
    size_lineno, size_line = body[0]
    entries = body[1:]
    sizes = size_line.split()

    if fmt == "coordinate":
        if len(sizes) != 3:
            raise ParseError("coordinate size line needs 'rows cols nnz'", size_lineno)
        try:
            nrows, ncols, nnz = (int(s) for s in sizes)
        except ValueError:
            raise ParseError(f"bad size line {size_line!r}", size_lineno) from None
        if len(entries) != nnz:
            raise ParseError(f"expected {nnz} entries, found {len(entries)}",
                             size_lineno)
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
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
            if symmetry == "symmetric" and i != j:
                rows.append(j - 1)
                cols.append(i - 1)
                vals.append(v)
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        return mat

    if len(sizes) != 2:
        raise ParseError("array size line needs 'rows cols'", size_lineno)
    try:
        nrows, ncols = (int(s) for s in sizes)
    except ValueError:
        raise ParseError(f"bad size line {size_line!r}", size_lineno) from None
    if symmetry == "symmetric":
        expected = nrows * (nrows + 1) // 2
    else:
        expected = nrows * ncols
    if len(entries) != expected:
        raise ParseError(f"expected {expected} values, found {len(entries)}", size_lineno)
    vals = []
    for lineno, ln in entries:
        toks = ln.split()
        if len(toks) != 1:
            raise ParseError(f"bad array value {ln!r}", lineno)
        try:
            vals.append(float(toks[0]))
        except ValueError:
            raise ParseError(f"bad array value {ln!r}", lineno) from None
    dense = np.zeros((nrows, ncols))
    if symmetry == "symmetric":
        k = 0
        for j in range(ncols):
            for i in range(j, nrows):
                dense[i, j] = vals[k]
                dense[j, i] = vals[k]
                k += 1
    else:
        dense = np.asarray(vals).reshape((nrows, ncols), order="F")
    return dense


def reference_write(path, mat):
    """Write a sparse matrix (coordinate) or ndarray (array), 17 significant digits."""
    path = Path(path)
    with open(path, "w") as fh:
        if sp.issparse(mat):
            coo = mat.tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            order = np.lexsort((coo.col, coo.row))
            for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            arr = np.asarray(mat, dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
            for v in arr.flatten(order="F"):
                fh.write(f"{v:.17g}\n")
