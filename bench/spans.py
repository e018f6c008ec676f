"""Spans and counts around the calls into krymat's public functions.

The wrappers are installed from the benchmark's side, after krymat is
imported, by replacing every binding of a target function: the module
attribute, class attribute, and each `from ... import` copy in another krymat
module.  Nothing under src/krymat changes.  Spans stay in memory and are
written out once the run has ended.
"""

import functools
import json
import os
import sys
import time

# (span name, module, attribute path): one entry per wrapped public function
TARGETS = (
    ("probio.load", "probio", "load_problem"),
    ("probio.read", "probio", "read_matrix_market"),
    ("probio.write", "probio", "write_matrix_market"),
    ("probio.lu_factor", "probio", "LinearSolver.__init__"),
    ("probio.lu_solve", "probio", "LinearSolver.solve"),
    ("probio.gsylv_apply", "probio", "gsylv_apply"),
    ("egarnoldi.step", "egarnoldi", "ExtendedGlobalArnoldi.step"),
    ("egarnoldi.sub_basis", "egarnoldi", "ExtendedGlobalArnoldi.sub_basis"),
    ("egarnoldi.hessenberg", "egarnoldi", "ExtendedGlobalArnoldi.hessenberg"),
    ("garnoldi.step", "garnoldi", "GlobalArnoldi.step"),
    ("garnoldi.basis", "garnoldi", "GlobalArnoldi.basis"),
    ("blockmat.frob_inner", "blockmat", "frob_inner"),
    ("blockmat.diamond", "blockmat", "diamond"),
    ("blockmat.kron_apply", "blockmat", "kron_apply"),
    ("blockmat.global_qr", "blockmat", "global_qr"),
    ("smallmat.lyap_solve", "smallmat", "lyap_solve"),
    ("smallmat.expm", "smallmat", "expm"),
    ("smallmat.phi1", "smallmat", "phi1"),
    ("smallmat.vanloan", "smallmat", "vanloan_gram_nodes"),
    ("smallmat.trunc_sym_factor", "smallmat", "trunc_sym_factor"),
    ("dlebdf.integrate", "dlebdf", "bdf_integrate"),
    ("dlebdf.bound", "dlebdf", "residual_bound_bdf"),
    ("dlebdf.solve", "dlebdf", "egadl_solve"),
    ("dleexp.gram", "dleexp", "gram_trajectory"),
    ("dleexp.lognorm", "dleexp", "lognorm2_operator"),
    ("dleexp.solve", "dleexp", "expo_dle_solve"),
    ("dsylv.integrate", "dsylv", "integrate_projected"),
    ("dsylv.project", "dsylv", "project_rhs"),
    ("dsylv.solve", "dsylv", "galerkin_solve"),
    ("solution.factor", "solution", "LowRankSolution.factor"),
    ("solution.write_csv", "solution", "SolveReport.write_csv"),
)

# per-layer metric -> (span name, statistic, unit); statistic is one of
# calls, total (s), self (s: total minus child spans) or mb (bytes / 1e6)
METRICS = {
    "probio.load_s": ("probio.load", "total", "s"),
    "probio.read_mb": ("probio.read", "mb", "MB"),
    "probio.write_calls": ("probio.write", "calls", "count"),
    "probio.write_s": ("probio.write", "total", "s"),
    "probio.write_mb": ("probio.write", "mb", "MB"),
    "probio.lu_factor_s": ("probio.lu_factor", "total", "s"),
    "probio.lu_solves": ("probio.lu_solve", "calls", "count"),
    "probio.lu_solve_s": ("probio.lu_solve", "total", "s"),
    "probio.gsylv_applies": ("probio.gsylv_apply", "calls", "count"),
    "probio.gsylv_apply_s": ("probio.gsylv_apply", "total", "s"),
    "egarnoldi.steps": ("egarnoldi.step", "calls", "count"),
    "egarnoldi.step_s": ("egarnoldi.step", "total", "s"),
    "egarnoldi.step_self_s": ("egarnoldi.step", "self", "s"),
    "egarnoldi.sub_basis_calls": ("egarnoldi.sub_basis", "calls", "count"),
    "egarnoldi.sub_basis_s": ("egarnoldi.sub_basis", "total", "s"),
    "egarnoldi.hessenberg_s": ("egarnoldi.hessenberg", "total", "s"),
    "garnoldi.steps": ("garnoldi.step", "calls", "count"),
    "garnoldi.step_s": ("garnoldi.step", "total", "s"),
    "garnoldi.step_self_s": ("garnoldi.step", "self", "s"),
    "garnoldi.basis_calls": ("garnoldi.basis", "calls", "count"),
    "garnoldi.basis_s": ("garnoldi.basis", "total", "s"),
    "blockmat.frob_inner_calls": ("blockmat.frob_inner", "calls", "count"),
    "blockmat.diamond_calls": ("blockmat.diamond", "calls", "count"),
    "blockmat.diamond_s": ("blockmat.diamond", "total", "s"),
    "blockmat.kron_apply_calls": ("blockmat.kron_apply", "calls", "count"),
    "blockmat.kron_apply_s": ("blockmat.kron_apply", "total", "s"),
    "blockmat.global_qr_calls": ("blockmat.global_qr", "calls", "count"),
    "blockmat.global_qr_s": ("blockmat.global_qr", "total", "s"),
    "smallmat.lyap_solves": ("smallmat.lyap_solve", "calls", "count"),
    "smallmat.lyap_solve_s": ("smallmat.lyap_solve", "total", "s"),
    "smallmat.expm_calls": ("smallmat.expm", "calls", "count"),
    "smallmat.expm_s": ("smallmat.expm", "total", "s"),
    "smallmat.phi1_s": ("smallmat.phi1", "total", "s"),
    "smallmat.vanloan_s": ("smallmat.vanloan", "total", "s"),
    "smallmat.trunc_sym_factor_calls": ("smallmat.trunc_sym_factor", "calls", "count"),
    "smallmat.trunc_sym_factor_s": ("smallmat.trunc_sym_factor", "total", "s"),
    "dlebdf.integrate_calls": ("dlebdf.integrate", "calls", "count"),
    "dlebdf.integrate_s": ("dlebdf.integrate", "total", "s"),
    "dlebdf.bound_s": ("dlebdf.bound", "total", "s"),
    "dlebdf.solve_self_s": ("dlebdf.solve", "self", "s"),
    "dleexp.gram_s": ("dleexp.gram", "total", "s"),
    "dleexp.lognorm_s": ("dleexp.lognorm", "total", "s"),
    "dleexp.solve_self_s": ("dleexp.solve", "self", "s"),
    "dsylv.integrate_calls": ("dsylv.integrate", "calls", "count"),
    "dsylv.integrate_s": ("dsylv.integrate", "total", "s"),
    "dsylv.project_s": ("dsylv.project", "total", "s"),
    "dsylv.solve_self_s": ("dsylv.solve", "self", "s"),
    "solution.factor_calls": ("solution.factor", "calls", "count"),
    "solution.factor_s": ("solution.factor", "total", "s"),
    "solution.write_csv_s": ("solution.write_csv", "total", "s"),
    "cli.self_s": ("cli.main", "self", "s"),
}

# filled in by the run process itself, not from spans
OTHER_METRICS = {
    "cli.import_s": "s",
    "solver.m_final": "count",
    "solver.basis_cols": "count",
}


def _file_mb(path):
    return os.path.getsize(path) / 1e6


# byte counts taken at a span's end: span name -> f(args) in MB
SIZES = {
    "probio.read": lambda args: _file_mb(args[0]),
    "probio.write": lambda args: _file_mb(args[0]),
}


def _resolve(module, path):
    """(owner, attribute name, function) for a dotted attribute path."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _rebind(fn, wrapper, modules):
    """Point every module-level binding of ``fn`` in ``modules`` at ``wrapper``."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, key, wrapper)


def _krymat_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "krymat" or name.startswith("krymat."))]


def patch(module_name, path, make_wrapper):
    """Replace krymat.<module_name>.<path> and all its bindings with
    make_wrapper(original).  Returns False when the target does not exist."""
    module = sys.modules.get(f"krymat.{module_name}")
    try:
        owner, attr, fn = _resolve(module, path)
    except AttributeError:
        return False
    wrapper = make_wrapper(fn)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    else:
        _rebind(fn, wrapper, _krymat_modules())
    return True


class Tracer:
    """In-memory span recorder.  A span is (name, start, duration, self time,
    index of the parent span or -1, MB read or written)."""

    def __init__(self):
        self.spans = []
        self._stack = []          # [span index, child time] of open spans

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                mb = size_of(args) if size_of else 0.0
                spans[frame[0]] = (name, t0, dt, dt - frame[1], parent, mb)
        return wrapper

    def install(self):
        """Wrap every target; returns the names of targets that were missing."""
        return [name for name, module, path in TARGETS
                if not patch(module, path, functools.partial(self.wrap, name))]

    def totals(self):
        """span name -> {calls, total, self, mb}."""
        out = {}
        for span in self.spans:
            if span is None:          # still open: the run died inside it
                continue
            name, _, dt, self_dt, _, mb = span
            acc = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "mb": 0.0})
            acc["calls"] += 1
            acc["total"] += dt
            acc["self"] += self_dt
            acc["mb"] += mb
        return out

    def metrics(self):
        """Per-layer metric name -> value, zero for a layer the run never entered."""
        totals = self.totals()
        return {metric: totals.get(span, {}).get(stat, 0)
                for metric, (span, stat, _) in METRICS.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "duration", "self", "parent", "mb"],
                       "spans": self.spans}, fh)
