"""The benchmark's tracer wraps graphgp functions by name; a rename must not silently drop a layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_resolve(tracing):
    for name, (mod, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(mod), attr, None)), name


def test_cached_functions_resolve_with_cache_info(tracing):
    for name, (mod, attr) in tracing.CACHES.items():
        info = getattr(importlib.import_module(mod), attr).cache_info()
        assert info.maxsize is None or info.maxsize > 0, name


def test_gram_classes_resolve(tracing):
    for mod, cls in tracing.GRAM_CLASSES:
        assert callable(getattr(importlib.import_module(mod), cls).gram), cls


def test_no_scipy_binding_is_wrapped(tracing):
    # graphgp tunes with its own L-BFGS-B and imports no scipy, so it has no such binding to wrap
    for mod, attr in [*tracing.FUNCTIONS.values(), *tracing.CACHES.values()]:
        assert attr != "minimize" and not mod.startswith("scipy"), (mod, attr)
    assert not hasattr(importlib.import_module("graphgp.gp"), "minimize")
