"""The package names that perfbench/ patches and imports exist.

The traced benchmark wraps package functions by (module, attribute), and its
workloads import package names. A refactor that drops or renames one would
otherwise fail only in the traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``layers`` and ``spans`` modules; ``workloads`` is imported
    too, which fails if a package name it imports is gone."""
    if not (PERFBENCH / "layers.py").is_file():
        pytest.skip("perfbench sources absent")
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        spans = importlib.import_module("spans")
        importlib.import_module("workloads")
        yield layers, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_exists(perfbench):
    layers, spans = perfbench
    table = layers.targets(spans.Tracer())
    assert table
    missing = [f"{module}.{attr}" for module, attr in table
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
