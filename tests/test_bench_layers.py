"""The benchmark's per-layer tracer must find every layer it names.

``bench/tracing.py`` wraps kypcert functions by (module, attribute) name.
A refactor that renames or drops one of them breaks ``bench/run.py
--trace 1``; this test makes that break show up in the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("modname, attr", _layers())
def test_traced_layer_resolves(modname, attr):
    module = importlib.import_module(f"kypcert.{modname}")
    assert callable(getattr(module, attr, None)), f"kypcert.{modname}.{attr} is missing"
