"""The traced benchmark's wrappers point at functions krymat still has.

``bench/spans.py`` wraps krymat's public functions by module and attribute
name, and a target it cannot find is only reported by the traced run.  This
resolves every target here, so a rename fails the suite instead, and checks
that a method replaced on one Arnoldi class leaves the other alone.  Its
``Tracer`` keeps one span stack for the process, so every target must run on
the thread that called the solve, never on the solve's worker.
"""

import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from krymat.dlebdf import egadl_solve
from krymat.dleexp import expo_dle_solve
from krymat.dsylv import galerkin_solve
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.garnoldi import GlobalArnoldi
from krymat.probio import (LinearSolver, gen_dle_problem, gen_laplacian2d, gen_sylvester_q2,
                           random_full_rank)
from krymat.solution import TimeGrid

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("name, module, path", SPANS.TARGETS,
                         ids=[name for name, _, _ in SPANS.TARGETS])
def test_target_resolves_in_krymat(name, module, path):
    _, _, fn = SPANS._resolve(importlib.import_module(f"krymat.{module}"), path)
    assert callable(fn), f"{name}: krymat.{module}.{path} is not callable"


def _refuse(*args, **kwargs):
    raise AssertionError("the other process's class was called")


def _polynomial_process():
    a = gen_laplacian2d(6)
    return GlobalArnoldi(lambda x: a @ x, random_full_rank(36, 2, seed=9), 3)


def _extended_process():
    a = gen_laplacian2d(6)
    return ExtendedGlobalArnoldi(a, LinearSolver(a), random_full_rank(36, 2, seed=9), 3)


@pytest.mark.parametrize("cls, names, make", [
    (GlobalArnoldi, ("step", "basis", "hessenberg"), _extended_process),
    (ExtendedGlobalArnoldi, ("step", "sub_basis", "hessenberg"), _polynomial_process),
], ids=["garnoldi-replaced", "egarnoldi-replaced"])
def test_a_replaced_method_stays_with_its_class(monkeypatch, cls, names, make):
    """The tracer replaces methods on the class it names: the other process
    must neither call nor inherit them, or one span counts both."""
    for name in names:
        monkeypatch.setattr(cls, name, _refuse)
    proc = make()
    assert proc.advance_to(3) == 3
    basis, tm, coupling = proc.projection(3)
    k = proc.per_step * 3
    assert basis.m == k and tm.shape == (k, k) and coupling.shape == (proc.per_step,) * 2


def _keep_bindings(monkeypatch):
    """Have monkeypatch restore every binding ``SPANS.patch`` may replace."""
    for _, module, path in SPANS.TARGETS:
        owner, attr, fn = SPANS._resolve(sys.modules[f"krymat.{module}"], path)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, fn)
            continue
        for mod in SPANS._krymat_modules():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, val)


# each method's solve, and spans it must enter
SOLVES = {
    "egadl": (lambda: egadl_solve(gen_dle_problem(n0=6, p=2, seed=1), TimeGrid(0.0, 1.0, 10),
                                  20, 1e-8),
              {"egarnoldi.step", "dlebdf.integrate", "smallmat.lyap_solve", "dlebdf.bound"}),
    "expo-extended": (lambda: expo_dle_solve(gen_dle_problem(n0=6, p=2, seed=1),
                                             TimeGrid(0.0, 1.0, 10), 20, 1e-8),
                      {"egarnoldi.step", "dleexp.gram", "dlebdf.bound"}),
    "expo-global": (lambda: expo_dle_solve(gen_dle_problem(n0=6, p=2, seed=1),
                                           TimeGrid(0.0, 1.0, 10), 20, 1e-8,
                                           variant="global"),
                    {"garnoldi.step", "dleexp.gram"}),
    "galerkin": (lambda: galerkin_solve(gen_sylvester_q2(30, 2, seed=3),
                                        TimeGrid(0.0, 1.0, 10), 40, 1e-8),
                 {"garnoldi.step", "dsylv.integrate", "smallmat.expm"}),
}


@pytest.mark.parametrize("solve, spans", list(SOLVES.values()), ids=list(SOLVES))
def test_traced_functions_run_on_the_calling_thread(monkeypatch, solve, spans):
    caller = threading.current_thread()
    ran = set()

    def on_caller(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            assert threading.current_thread() is caller, f"{name} ran on a worker thread"
            ran.add(name)
            return fn(*args, **kwargs)
        return wrapper

    _keep_bindings(monkeypatch)
    for name, module, path in SPANS.TARGETS:
        assert SPANS.patch(module, path, functools.partial(on_caller, name))
    _, report = solve()
    assert report.converged and spans <= ran


# each solve's basis size at the end and the spans entered once per size: the
# process's, and the bound that reads every node's last rows at once
PER_SIZE = {
    "egadl": (7, ("egarnoldi.step", "egarnoldi.sub_basis", "egarnoldi.hessenberg",
                  "dlebdf.bound")),
    "expo-extended": (7, ("egarnoldi.step", "egarnoldi.sub_basis", "egarnoldi.hessenberg",
                          "dlebdf.bound")),
    "expo-global": (17, ("garnoldi.step", "garnoldi.basis")),
    "galerkin": (14, ("garnoldi.step", "garnoldi.basis")),
}


@pytest.mark.parametrize("method", list(SOLVES))
def test_process_spans_are_entered_once_per_basis_size(monkeypatch, method):
    """The benchmark's per-layer counts of the Arnoldi processes: one step,
    one basis read and (extended) one projected-matrix read per basis size,
    and for the extended Lyapunov solves one bound read."""
    _keep_bindings(monkeypatch)
    tracer = SPANS.Tracer()
    assert tracer.install() == []
    _, report = SOLVES[method][0]()
    m_final, names = PER_SIZE[method]
    totals = tracer.totals()
    assert report.m_final == m_final
    assert {name: totals[name]["calls"] for name in names} == dict.fromkeys(names, m_final)
