"""Time grids, solver reports, the shared Krylov solve, and solution containers."""

import configparser
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import probio, smallmat
from .blockmat import BlockRow, kron_apply
from .errors import ConfigError, DimensionError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k h on [t0, tf] with h = (tf - t0)/steps."""

    t0: float
    tf: float
    steps: int

    def __post_init__(self):
        probio.check_horizon(self.t0, self.tf)
        if self.steps < 1:
            raise DimensionError("TimeGrid needs at least one step")

    @property
    def h(self):
        return (self.tf - self.t0) / self.steps

    @property
    def nodes(self):
        return self.t0 + self.h * np.arange(self.steps + 1)

    @property
    def nnodes(self):
        return self.steps + 1


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
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fields = []
                for c, v in zip(self.columns, row):
                    fields.append(str(int(v)) if c in ("m", "rank") else f"{v:.17g}")
                fh.write(",".join(fields) + "\n")

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


def krylov_solve(report, grid, m_max, tol, start):
    """The solve of the three solvers: grow the basis one step, project the
    equation onto it, fit the projected equation, report every node, and
    stop once the bound is below ``tol`` at every node, on breakdown, or at
    m_max.

    The settings are checked before any work.  ``start(report)`` returns
    (process, fit), or None for a zero right-hand side; ``fit(T_m, coupling)``
    returns (bounds, more, kernel): the bound at every node, a function
    giving the report's later columns (one value per node each), and the
    kernel.  ``more`` runs on the solve's one worker thread while the basis
    grows by the next step, so it must call nothing the caller's thread
    could be timing; the worker is joined before the solve returns or
    raises.  A basis size's rows are added once the process has advanced
    past it.  When that advance made no progress (an extended step that
    broke down does not count), the fit of the same size on all retained
    sub-blocks replaces them, and trust.refit names that size.  Sets the
    report's status, basis size and wall time; returns the last (basis,
    kernel), or (None, None) for a zero right-hand side.
    """
    # the basis is allocated for m_max steps, so it must count them
    if not isinstance(m_max, numbers.Integral) or m_max < 1:
        raise ConfigError(f"m_max = {m_max}: need an integer m_max >= 1")
    if not 0 <= tol < np.inf:
        raise ConfigError(f"tol = {tol}: need 0 <= tol < inf")
    report.settings.update(m_max=m_max, tol=tol, grid_steps=grid.steps)
    t_start = time.perf_counter()
    started = start(report)
    basis = kernel = None
    if started is None:
        report.converged = True
    else:
        proc, fit = started

        def add_rows(m, bounds, more):
            for row in zip(grid.nodes, bounds, *more.result(), strict=True):
                report.add(m, *row)

        with ThreadPoolExecutor(max_workers=1) as worker:
            m, pending = 0, None
            while True:
                advanced = proc.advance_to(m + 1)
                if pending is not None:
                    if advanced > m:
                        add_rows(m, *pending)
                    else:
                        report.trust["refit"] = m
                m = advanced
                basis, tm, coupling = proc.projection(m)
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
class KernelTrajectory:
    """Small projected solution on a grid, one sample per node: the rows of
    an (nnodes, m) array of vectors y_m(t_k), or a list of symmetric Y_m(t_k)."""

    grid: TimeGrid
    samples: object

    def __post_init__(self):
        if len(self.samples) != self.grid.nnodes:
            raise DimensionError("one kernel sample per grid node required")


@dataclass
class SylvesterSolution:
    """Factored trajectory X_m(t_k) = X0 + V (y_m(t_k) kron I_p).

    ``basis`` and ``kernel`` are None for the degenerate zero-residual case,
    where the trajectory is the constant X0.
    """

    grid: TimeGrid
    basis: object                  # BlockBasis, m blocks of width p
    kernel: KernelTrajectory
    shape: tuple
    x0: np.ndarray = None

    def snapshot(self, k):
        if self.basis is None:
            base = np.zeros(self.shape)
        else:
            y = self.kernel.samples[k]
            base = kron_apply(self.basis, y[:, None]).data
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


def _clear_solution_files(out_dir):
    """Make ``out_dir`` and remove what an earlier save left there, so that a
    shorter run leaves no node of a longer one; other files stay."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pattern in _SOLUTION_FILES:
        for path in out_dir.glob(pattern):
            path.unlink()
    return out_dir


@dataclass
class LowRankSolution:
    """Symmetric low-rank trajectory X_m(t_k) = V (Y_k kron I_p) V^T.

    ``factors`` holds the truncated small factors of each Y_k; mapped through
    the basis they give the thin factors of the full solution.  A solution
    made from its kernel factors the Y_k at ``factor_tol`` when its factors
    are first read; a loaded one keeps the factors it was given.
    """

    grid: TimeGrid
    basis: object                  # BlockBasis at sub-block width (p or seed width)
    kernel: object                 # with one sample Y_k per node; None once loaded
    factor_tol: float = None
    _factors: list = field(default=None, repr=False)

    @classmethod
    def from_kernel(cls, grid, n, basis, kernel, factor_tol):
        """Solution with the kernel samples Y_k on ``basis``, to be factored
        at ``factor_tol``; X(t) = 0 on one zero basis column when ``basis``
        is None."""
        if basis is None:
            basis = BlockRow(np.zeros((n, 1)), 1)
            kernel = KernelTrajectory(grid, [np.zeros((1, 1))] * grid.nnodes)
        return cls(grid, basis, kernel, factor_tol)

    @property
    def factors(self):
        """One smallmat.LowRankFactor per node."""
        if self._factors is None:
            self._factors = [smallmat.trunc_sym_factor(y, self.factor_tol)
                             for y in self.kernel.samples]
        return self._factors

    def save(self, out_dir):
        """Write the solution in factored form: the basis once (basis.mtx,
        n x m*width), each node's small factor Z_k (node_kkkk_z.mtx, m x r) and
        its signs (node_kkkk_signs.mtx), and a manifest (solution.cfg) with the
        block width and the grid.  ``load`` reads the directory back."""
        out_dir = _clear_solution_files(out_dir)
        probio.write_matrix_market(out_dir / "basis.mtx", self.basis.data)
        for k, f in enumerate(self.factors):
            probio.write_matrix_market(out_dir / f"node_{k:04d}_z.mtx", f.z)
            probio.write_matrix_market(out_dir / f"node_{k:04d}_signs.mtx", f.signs)
        manifest = configparser.ConfigParser()
        manifest["solution"] = {"width": str(self.basis.width),
                                "t0": f"{self.grid.t0:.17g}", "tf": f"{self.grid.tf:.17g}",
                                "steps": str(self.grid.steps)}
        with open(out_dir / SOLUTION_MANIFEST, "w") as fh:
            manifest.write(fh)

    @classmethod
    def load(cls, fac_dir):
        """The solution ``save`` wrote to ``fac_dir``, with its factors and no
        kernel: ``factor(k)`` gives the saved solution's factor bit for bit."""
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
        return cls(grid, basis, None, _factors=factors)

    def factor(self, k):
        """Thin factor (Z, signs) with X_m(t_k) ~ Z diag(signs) Z^T + signature."""
        f = self.factors[k]
        if f.rank == 0:
            return np.zeros((self.basis.n, 0)), f.signs
        z_big = kron_apply(self.basis, f.z).data
        signs = np.repeat(f.signs, self.basis.width)
        return z_big, signs

    def snapshot(self, k):
        """Dense X_m(t_k); guarded by the dense cap."""
        if self.kernel is None:
            raise ValueError("solution was loaded from factors and has no kernel")
        smallmat.check_dense_cap(self.basis.n, "LowRankSolution.snapshot")
        y = self.kernel.samples[k]
        vy = kron_apply(self.basis, y).data
        return vy @ self.basis.data.T
