"""Time grids, solver reports, and solution containers shared by the solvers."""

from dataclasses import dataclass, field

import numpy as np

from . import smallmat
from .blockmat import BlockRow, kron_apply
from .config import check_dense_cap
from .errors import ConfigError, DimensionError


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


@dataclass
class LowRankSolution:
    """Symmetric low-rank trajectory X_m(t_k) = V (Y_k kron I_p) V^T.

    ``factors`` holds the truncated small factors of each Y_k; mapped through
    the basis they give the thin factors of the full solution.
    """

    grid: TimeGrid
    basis: object                  # BlockBasis at sub-block width (p or seed width)
    kernel: KernelTrajectorySym
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

    def factor(self, k):
        """Thin factor (Z, signs) with X_m(t_k) ~ Z diag(signs) Z^T + signature."""
        if self.factors is None:
            raise ValueError("solution was built without output factors")
        f = self.factors[k]
        if f.rank == 0:
            return np.zeros((self.basis.n, 0)), f.signs
        z_big = kron_apply(self.basis, f.z).data
        signs = np.repeat(f.signs, self.basis.width)
        return z_big, signs

    def snapshot(self, k):
        """Dense X_m(t_k); guarded by the dense cap."""
        check_dense_cap(self.basis.n, "LowRankSolution.snapshot")
        y = self.kernel.samples[k]
        vy = kron_apply(self.basis, y).data
        return vy @ self.basis.data.T
