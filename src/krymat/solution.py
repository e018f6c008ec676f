"""Time grids, solver reports, the shared Krylov solve, and solution containers."""

import configparser
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import probio, smallmat
from .blockmat import BlockRow, kron_apply
from .errors import ConfigError, DimensionError


def is_count(value):
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k h on [t0, tf] with h = (tf - t0)/steps."""

    t0: float
    tf: float
    steps: int

    def __post_init__(self):
        probio.check_horizon(self.t0, self.tf)
        if not is_count(self.steps) or self.steps < 1:
            raise DimensionError(f"steps = {self.steps}: TimeGrid needs an integer steps >= 1")
        # np.arange cannot build more nodes: it raises, or returns none at all
        if 8 * (int(self.steps) + 1) > np.iinfo(np.intp).max:
            raise DimensionError(f"steps = {self.steps}: cannot allocate the grid's nodes")

    @property
    def h(self):
        return (self.tf - self.t0) / self.steps

    @property
    def nodes(self):
        return self.t0 + self.h * np.arange(self.steps + 1)

    @property
    def nnodes(self):
        return self.steps + 1

    @contextmanager
    def allocating(self, node_bytes, what):
        """Run a block that allocates ``what``, ``node_bytes`` bytes a node; a size
        numpy cannot index, or a failed allocation, is a ConfigError naming it."""
        try:
            if int(node_bytes) * int(self.nnodes) > np.iinfo(np.intp).max:
                raise MemoryError
            yield
        except MemoryError:
            raise ConfigError(f"[grid] steps = {self.steps}: cannot allocate {what} "
                              f"at {self.nnodes} nodes") from None


@dataclass
class SolveReport:
    """Per-iteration, per-node residual-bound history plus run metadata.

    ``rows`` holds tuples matching ``columns``; the first two columns are
    always the iteration count m and the node time t.  ``trust`` holds what
    the fit of the final basis size says about how far to trust it; it goes
    to the summary, not to the CSV.
    """

    method: str
    columns: tuple
    rows: list = field(default_factory=list)
    converged: bool = False
    m_final: int = 0
    breakdown: bool = False
    dims: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    trust: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def add(self, *row):
        if len(row) != len(self.columns):
            raise DimensionError(f"report row needs {len(self.columns)} fields")
        self.rows.append(tuple(row))

    def final_bounds(self):
        """Bound column of the rows belonging to the final iteration."""
        return np.array([r[2] for r in self.rows if r[0] == self.m_final])

    def write_csv(self, path):
        """One line a row, in one pass: m and rank as integers, every other
        value as its shortest round-trip decimal (``probio.float_text``)."""
        texts = ["%d".__mod__ if c in ("m", "rank") else probio.float_text
                 for c in self.columns]
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(",".join([text(v) for text, v in zip(texts, row)]) + "\n"
                          for row in self.rows)

    def summary_lines(self):
        lines = [
            f"method = {self.method}",
            f"converged = {self.converged}",
            f"m_final = {self.m_final}",
            f"breakdown = {self.breakdown}",
        ]
        for key in sorted(self.dims):
            lines.append(f"dims.{key} = {self.dims[key]}")
        for key in sorted(self.settings):
            lines.append(f"settings.{key} = {self.settings[key]}")
        for key in sorted(self.trust):
            lines.append(f"trust.{key} = {self.trust[key]}")
        lines.append(f"wall_time_s = {self.wall_time:.3f}")
        return lines


def krylov_solve(report, grid, m_max, tol, start, zero):
    """The solve of the three solvers: grow the basis one step, project the
    equation onto it, fit the projected equation, report every node, and
    stop once the bound is below ``tol`` at every node, on breakdown, or at
    m_max.

    The settings are checked before any work.  ``start()`` returns
    (process, fit), or None for a zero right-hand side, whose solution
    ``zero()`` gives as (basis, kernel) with no process; ``fit(T_m, coupling)``
    returns (bounds, more, kernel): the bound at every node, a function
    giving the report's later columns (one value per node each), and the
    kernel.  ``more`` runs on the solve's one worker thread while the basis
    grows by the next step, so it must call nothing the caller's thread
    could be timing; the worker is joined before the solve returns or
    raises.  Sizes m = 1, 2, ... are fitted in turn, each once the process
    was asked to advance to m steps, and a size's rows are added once,
    after the next advance.  A step that breaks down without counting (the
    extended process's) leaves the process one step short, and its
    projection of size m is then the one onto all retained sub-blocks, as
    for a seed or first step that broke down at m = 1.  Sets the report's
    status, basis size and wall time; returns the last (basis, kernel).
    """
    # the basis is allocated for m_max steps, so it must count them
    if not is_count(m_max) or m_max < 1:
        raise ConfigError(f"m_max = {m_max}: need an integer m_max >= 1")
    if not 0 <= tol < np.inf:
        raise ConfigError(f"tol = {tol}: need 0 <= tol < inf")
    report.settings.update(m_max=m_max, tol=tol, grid_steps=grid.steps)
    t_start = time.perf_counter()
    started = start()
    if started is None:
        report.converged = True
        with grid.allocating(8, "the projected solution"):
            basis, kernel = zero()
    else:
        proc, fit = started

        def add_rows(m, bounds, more):
            for row in zip(grid.nodes, bounds, *more.result(), strict=True):
                report.add(m, *row)

        with ThreadPoolExecutor(max_workers=1) as worker:
            m, pending = 0, None
            while True:
                proc.advance_to(m + 1)
                if pending is not None:
                    add_rows(m, *pending)
                m += 1
                basis, tm, coupling = proc.projection(m)
                # one trajectory at a time: the previous size's, and ``more``
                # that holds it, go before the fit allocates the next
                kernel = more = None
                # the fit holds a k x k matrix a node, k the order of T_m
                with grid.allocating(8 * len(tm) ** 2, "the projected solution"):
                    bounds, more, kernel = fit(tm, coupling)
                pending = bounds, worker.submit(more)
                report.converged = bool(bounds.max() < tol)
                if report.converged or proc.breakdown or m >= m_max:
                    break
            add_rows(m, *pending)
        report.m_final = m
        report.breakdown = proc.breakdown
        report.dims["basis_blocks"] = basis.m
        report.dims["basis_cols"] = basis.m * basis.width
    report.wall_time = time.perf_counter() - t_start
    return basis, kernel


@dataclass
class CoordinateTrajectory:
    """Symmetric kernels Y_k = X G_k X^T of a projected Lyapunov equation,
    one per grid node, held as the real orthogonal basis change X of a
    reduction of T (its orthonormal eigenvectors, its Schur vectors, or I)
    and the stack ``g`` of the exactly symmetric G_k in X's coordinates.
    Both low-rank fits return one: EgAdl's BDF march and the exponential
    method's exact Gramians.  A solve reads only ``last_rows`` and
    ``ranks``; the Y_k themselves are formed when ``samples`` is read."""

    x: np.ndarray
    g: np.ndarray

    def last_rows(self, nr):
        """The last ``nr`` rows of every Y_k, a stack: all a residual bound reads."""
        return self.x[-nr:] @ self.g @ self.x.T

    @cached_property
    def samples(self):
        """The symmetric Y_k of every node, a stack."""
        y = self.x @ self.g @ self.x.T
        return 0.5 * (y + y.transpose(0, 2, 1))

    def ranks(self, tol):
        """Rank of every Y_k, counting the eigenvalues above tol times the
        largest in magnitude.  X is orthogonal, so Y_k has the eigenvalues
        of G_k: they are read from the stack ``g``, and no Y_k is formed."""
        lam = np.abs(np.linalg.eigvalsh(self.g))
        return np.count_nonzero(lam > tol * lam.max(axis=1, keepdims=True), axis=1)


@dataclass
class SylvesterSolution:
    """Factored trajectory X_m(t_k) = X0 + V (samples[k] kron I_p).

    A zero residual leaves the constant X0: one zero block of width p with
    zero samples.
    """

    grid: TimeGrid
    basis: BlockRow                # m blocks of width p
    samples: np.ndarray            # (nodes, m)
    x0: np.ndarray = None

    # ``solution.kernel.samples`` reads the samples, as on a LowRankSolution
    kernel = property(lambda self: self)

    def snapshot(self, k):
        base = kron_apply(self.basis, self.samples[k][:, None]).data
        return base if self.x0 is None else base + self.x0

    def save(self, out_dir):
        """Write the dense X_m(t_k) of every node as node_kkkk_X.mtx: here the
        basis has more columns than a snapshot."""
        out_dir = _clear_solution_files(out_dir)
        for k in range(self.grid.nnodes):
            probio.write_matrix_market(out_dir / f"node_{k:04d}_X.mtx", self.snapshot(k))


SOLUTION_MANIFEST = "solution.cfg"

# the files a solution's save writes, and the only ones it removes first
_SOLUTION_FILES = ("node_*_z.mtx", "node_*_signs.mtx", "node_*_X.mtx", "basis.mtx",
                   SOLUTION_MANIFEST)


def remove_solution_files(out_dir):
    """Remove what an earlier save left in ``out_dir``, if it exists; other files stay."""
    for pattern in _SOLUTION_FILES:
        for path in Path(out_dir).glob(pattern):
            path.unlink()


def _clear_solution_files(out_dir):
    """Make ``out_dir`` and remove what an earlier save left there, so that a
    shorter run leaves no node of a longer one; other files stay."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_solution_files(out_dir)
    return out_dir


@dataclass
class LowRankSolution:
    """Symmetric low-rank trajectory X_m(t_k) = V (Y_k kron I_p) V^T.

    Its factored form puts every node on one factor basis W = V (Q kron I_p),
    Q the joint range of the Y_k: X_m(t_k) ~ W (Z_k diag(signs_k) Z_k^T
    kron I_p) W^T with ||Y_k - Q Z_k diag(signs_k) Z_k^T Q^T||_2 <=
    factor_tol ||Y_k||_2 (``smallmat.joint_sym_factor``).  Q starts with
    one column per singular value of the stacked, scaled kernels above
    factor_tol/4 and drops trailing columns while every node's own
    two-sided projection error stays within factor_tol/2, so W is never
    wider than that cut.  A solution made
    from its kernel computes W and the factors together when either is
    first read; ``basis`` and ``kernel`` stay V and the Y_k.  A loaded one
    has W as its basis, the factors it was given and no kernel.
    """

    grid: TimeGrid
    basis: BlockRow                # at sub-block width (p or seed width)
    kernel: CoordinateTrajectory   # None once loaded
    factor_tol: float = None
    _factored: tuple = field(default=None, repr=False)    # (W, factors)

    def _factorization(self):
        if self._factored is None:
            q, factors = smallmat.joint_sym_factor(self.kernel.samples, self.factor_tol)
            self._factored = kron_apply(self.basis, q), factors
        return self._factored

    @property
    def factor_basis(self):
        """W = V (Q kron I_p), the s <= m blocks the factors are coordinates in."""
        return self._factorization()[0]

    @property
    def factors(self):
        """One smallmat.LowRankFactor per node, in W's coordinates."""
        return self._factorization()[1]

    def save(self, out_dir):
        """Write the solution in factored form: the factor basis W once
        (basis.mtx, n x s*width), each node's small factor Z_k
        (node_kkkk_z.mtx, s x r) and its signs (node_kkkk_signs.mtx), and a
        manifest (solution.cfg) with the block width and the grid.  ``load``
        reads the directory back."""
        out_dir = _clear_solution_files(out_dir)
        w, factors = self._factorization()
        probio.write_matrix_market(out_dir / "basis.mtx", w.data)
        for k, f in enumerate(factors):
            probio.write_matrix_market(out_dir / f"node_{k:04d}_z.mtx", f.z)
            probio.write_matrix_market(out_dir / f"node_{k:04d}_signs.mtx", f.signs)
        manifest = configparser.ConfigParser()
        manifest["solution"] = {"width": str(w.width),
                                "t0": probio.float_text(self.grid.t0),
                                "tf": probio.float_text(self.grid.tf),
                                "steps": str(self.grid.steps)}
        with open(out_dir / SOLUTION_MANIFEST, "w") as fh:
            manifest.write(fh)

    @classmethod
    def load(cls, fac_dir):
        """The solution ``save`` wrote to ``fac_dir``, with W as its basis, its
        factors and no kernel: ``factor(k)`` gives the saved solution's factor
        bit for bit."""
        fac_dir = Path(fac_dir)

        def keys(manifest):
            sec = manifest["solution"]
            return int(sec["width"]), TimeGrid(float(sec["t0"]), float(sec["tf"]),
                                               int(sec["steps"]))

        width, grid = probio.read_manifest(fac_dir / SOLUTION_MANIFEST, keys)
        basis = BlockRow(probio.read_matrix_market(fac_dir / "basis.mtx"), width)
        factors = [smallmat.LowRankFactor(
            probio.read_matrix_market(fac_dir / f"node_{k:04d}_z.mtx"),
            probio.read_matrix_market(fac_dir / f"node_{k:04d}_signs.mtx").ravel())
            for k in range(grid.nnodes)]
        return cls(grid, basis, None, _factored=(basis, factors))

    def factor(self, k):
        """Thin factor (Z, signs) with X_m(t_k) ~ Z diag(signs) Z^T + signature."""
        w, factors = self._factorization()
        f = factors[k]
        if f.rank == 0:
            return np.zeros((w.n, 0)), f.signs
        return kron_apply(w, f.z).data, np.repeat(f.signs, w.width)

    def snapshot(self, k):
        """Dense X_m(t_k); guarded by the dense cap."""
        if self.kernel is None:
            raise ValueError("solution was loaded from factors and has no kernel")
        smallmat.check_dense_cap(self.basis.n, "LowRankSolution.snapshot")
        y = self.kernel.samples[k]
        vy = kron_apply(self.basis, y).data
        return vy @ self.basis.data.T
