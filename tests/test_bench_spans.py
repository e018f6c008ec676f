"""The traced benchmark's wrappers point at functions krymat still has.

``bench/spans.py`` wraps krymat's public functions by module and attribute
name, and a target it cannot find is only reported by the traced run.  This
resolves every target here, so a rename fails the suite instead, and checks
that a method replaced on one Arnoldi class leaves the other alone.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.garnoldi import GlobalArnoldi
from krymat.probio import LinearSolver, gen_laplacian2d, random_full_rank

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
