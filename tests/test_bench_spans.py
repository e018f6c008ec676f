"""The traced benchmark's wrappers point at functions krymat still has.

``bench/spans.py`` wraps krymat's public functions by module and attribute
name, and a target it cannot find is only reported by the traced run.  This
resolves every target here, so a rename fails the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
