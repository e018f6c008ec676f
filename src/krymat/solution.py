"""Time grids, solver reports, and solution containers shared by the solvers."""

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import probio, smallmat
from .blockmat import BlockRow, kron_apply
from .config import check_dense_cap
from .errors import ConfigError, DimensionError, ParseError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k h on [t0, tf] with h = (tf - t0)/steps."""

    t0: float
    tf: float
    steps: int

    def __post_init__(self):
        if not self.t0 < self.tf:
            raise DimensionError("TimeGrid needs t0 < tf")
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
    always the iteration count m and the node time t.
    """

    method: str
    columns: tuple
    rows: list = field(default_factory=list)
    converged: bool = False
    m_final: int = 0
    breakdown: bool = False
    dims: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
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
        lines.append(f"wall_time_s = {self.wall_time:.3f}")
        return lines


def require_positive(**settings):
    """Raise ConfigError naming the first of the settings below 1."""
    for key, value in settings.items():
        if value < 1:
            raise ConfigError(f"{key} = {value}: need {key} >= 1")


def grow_until(proc, fit, grid, report, m_max, tol, stride):
    """The outer loop of the three solvers: grow the basis one step, fit the
    projected equation at that size, report every ``stride``-th node, and stop
    once the bound is below ``tol`` at every node, on breakdown, or at m_max.

    ``fit(m)`` returns the bound at every node, a function giving the report
    columns past the bound at node k, the basis and the kernel.  Sets the
    report's status and basis size; returns the last (basis, kernel).
    """
    nodes = grid.nodes
    m = 0
    while True:
        m = proc.advance_to(m + 1)
        bounds, extra, basis, kernel = fit(m)
        for k in range(0, grid.nnodes, stride):
            report.add(m, nodes[k], bounds[k], *extra(k))
        report.converged = bool(bounds.max() < tol)
        if report.converged or proc.breakdown or m >= m_max:
            break
    report.m_final = m
    report.breakdown = proc.breakdown
    report.dims["basis_blocks"] = basis.m
    report.dims["basis_cols"] = basis.m * basis.width
    return basis, kernel


@dataclass
class KernelTrajectoryVec:
    """Small projected solution y_m(t_k), one length-m vector per node."""

    grid: TimeGrid
    samples: np.ndarray            # (nnodes, m)

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.shape[0] != self.grid.nnodes:
            raise DimensionError("one kernel sample per grid node required")


@dataclass
class KernelTrajectorySym:
    """Small symmetric kernel samples Y_m(t_k) on a grid."""

    grid: TimeGrid
    samples: list                  # of (k, k) symmetric arrays

    def __post_init__(self):
        if len(self.samples) != self.grid.nnodes:
            raise DimensionError("one kernel sample per grid node required")


@dataclass
class SylvesterSolution:
    """Factored trajectory X_m(t_k) = X0 + V (y_m(t_k) kron I_p).

    ``basis`` may be None for the degenerate zero-residual case, where the
    trajectory is the constant X0.
    """

    grid: TimeGrid
    basis: object                  # BlockBasis, m blocks of width p
    kernel: KernelTrajectoryVec
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
    the basis they give the thin factors of the full solution.
    """

    grid: TimeGrid
    basis: object                  # BlockBasis at sub-block width (p or seed width)
    kernel: KernelTrajectorySym    # None for a solution loaded from its factors
    factors: list = None           # of smallmat.LowRankFactor, one per node

    @classmethod
    def from_kernel(cls, grid, basis, samples, factor_tol):
        """Solution with kernel samples Y_k on ``basis``, each Y_k factored."""
        factors = [smallmat.trunc_sym_factor(y, factor_tol) for y in samples]
        return cls(grid, basis, KernelTrajectorySym(grid, samples), factors)

    @classmethod
    def zero(cls, grid, n, factor_tol):
        """X(t) = 0 on one zero basis column."""
        return cls.from_kernel(grid, BlockRow(np.zeros((n, 1)), 1),
                               [np.zeros((1, 1))] * grid.nnodes, factor_tol)

    def save(self, out_dir):
        """Write the solution in factored form: the basis once (basis.mtx,
        n x m*width), each node's small factor Z_k (node_kkkk_z.mtx, m x r) and
        its signs (node_kkkk_signs.mtx), and a manifest (solution.cfg) with the
        block width and the grid.  ``load`` reads the directory back."""
        factors = self._factors()
        out_dir = _clear_solution_files(out_dir)
        probio.write_matrix_market(out_dir / "basis.mtx", self.basis.data)
        for k, f in enumerate(factors):
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
        manifest = configparser.ConfigParser()
        if not manifest.read(fac_dir / SOLUTION_MANIFEST):
            raise ParseError(f"no {SOLUTION_MANIFEST} in {fac_dir}")
        try:
            sec = manifest["solution"]
            width = int(sec["width"])
            grid = TimeGrid(float(sec["t0"]), float(sec["tf"]), int(sec["steps"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad {SOLUTION_MANIFEST} in {fac_dir}: {exc}") from None
        basis = BlockRow(probio.read_matrix_market(fac_dir / "basis.mtx"), width)
        factors = [smallmat.LowRankFactor(
            probio.read_matrix_market(fac_dir / f"node_{k:04d}_z.mtx"),
            probio.read_matrix_market(fac_dir / f"node_{k:04d}_signs.mtx").ravel())
            for k in range(grid.nnodes)]
        return cls(grid, basis, None, factors)

    def _factors(self):
        if self.factors is None:
            raise ValueError("solution was built without output factors")
        return self.factors

    def factor(self, k):
        """Thin factor (Z, signs) with X_m(t_k) ~ Z diag(signs) Z^T + signature."""
        f = self._factors()[k]
        if f.rank == 0:
            return np.zeros((self.basis.n, 0)), f.signs
        z_big = kron_apply(self.basis, f.z).data
        signs = np.repeat(f.signs, self.basis.width)
        return z_big, signs

    def snapshot(self, k):
        """Dense X_m(t_k); guarded by the dense cap."""
        if self.kernel is None:
            raise ValueError("solution was loaded from factors and has no kernel")
        check_dense_cap(self.basis.n, "LowRankSolution.snapshot")
        y = self.kernel.samples[k]
        vy = kron_apply(self.basis, y).data
        return vy @ self.basis.data.T
