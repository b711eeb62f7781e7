"""Every name a ``stratselect`` module exports resolves, and no name the
package exports shadows one of its modules."""

import importlib
import pkgutil
import sys

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


@pytest.mark.parametrize("name", MODULES)
def test_the_package_attribute_of_a_module_name_is_the_module(name):
    # ``import stratselect.X as m`` binds the package attribute X, so a
    # function exported under a module's name would be bound instead.
    assert getattr(stratselect, name) is importlib.import_module(f"stratselect.{name}")


def test_import_as_binds_the_best_response_module():
    import stratselect.best_response as m

    assert m is sys.modules["stratselect.best_response"]


def test_the_candidate_side_api_is_the_response_curve():
    # The one-shot functions stay in their module for the benchmark's tracer.
    one_shot = {"stationary_points", "dropout_threshold", "SubcriticalReward"}
    assert one_shot.isdisjoint(vars(stratselect))
    assert not hasattr(sys.modules["stratselect.best_response"], "SubcriticalReward")
