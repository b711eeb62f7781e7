"""The benchmark's traced run wraps library functions by name; a renamed or
deleted function would crash it before the first operation, and one that no
program path calls would read 0."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names():
    tracing = load_tracing()
    return tracing.SPANS + tracing.COUNTS


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_traced_name_is_a_function(module_name, attr):
    module = importlib.import_module(f"stratselect.{module_name}")
    assert callable(getattr(module, attr, None)), f"stratselect.{module_name}.{attr}"


def test_cli_import_loads_every_traced_module():
    # The tracer looks each traced module up in sys.modules after importing
    # only the CLI, so a module the CLI stopped importing at load time would
    # crash the traced run with a KeyError.
    src = ROOT / "src"
    modules = sorted({f"stratselect.{module_name}" for module_name, _ in traced_names()})
    code = (
        "import sys, stratselect.cli; "
        "sys.exit(sorted(set(sys.argv[1:]) - set(sys.modules)) or None)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code, *modules], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_tracer_sees_the_root_searches():
    # Every root goes through kernel.find_root, the one name the tracer
    # wraps in the kernel, so a traced solve counts its calls and
    # evaluations: the dropout searches and the smooth crossing, and the
    # stationary points inside them.
    from stratselect import cli

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["solve", "--config", str(ROOT / "scenarios" / "noise_gap_s10.json")]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.layer_totals()[0]
    assert calls["kernel.find_root"] > 0
    assert tracer.counts["kernel.find_root.fevals"] > 0


def test_tracer_counts_the_stationary_points():
    # Below the critical reward a best response is one stationary point and
    # nothing else: one root, counted with its evaluations.  The tracer
    # finds the modules it wraps among those the CLI loads.
    from stratselect import cli  # noqa: F401
    import stratselect.best_response as best_response
    from stratselect.model import GroupView

    group = GroupView("A", 1.0, 1.0, 1.0)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        (effort,) = best_response.best_response(1.5, group, 1.0)
    finally:
        tracer.uninstall()
    assert effort > 0.0
    assert tracer.layer_totals()[0]["kernel.find_root"] == 1
    assert tracer.counts["kernel.find_root.fevals"] >= 2
