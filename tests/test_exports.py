"""Every name a ``stratselect`` module exports resolves."""

import importlib
import pkgutil

import pytest

import stratselect

MODULES = sorted(info.name for info in pkgutil.iter_modules(stratselect.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"stratselect.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_star_import():
    namespace = {}
    exec("from stratselect import *", namespace)
    assert {"ResponseCurve", "run_dynamics", "solve_unconstrained"} <= namespace.keys()
