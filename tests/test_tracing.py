"""The benchmark's traced run wraps library functions by name; a renamed or
deleted function would crash it before the first operation."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS + tracing.COUNTS


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_traced_name_is_a_function(module_name, attr):
    module = importlib.import_module(f"stratselect.{module_name}")
    assert callable(getattr(module, attr, None)), f"stratselect.{module_name}.{attr}"
