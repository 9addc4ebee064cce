import importlib

import pytest

import dimwitness

MODULES = ["errors", "modes", "states", "measurement", "witness", "oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"dimwitness.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_the_package_names(name):
    mod = importlib.import_module(f"dimwitness.{name}")
    assert [n for n in mod.__all__
            if getattr(dimwitness, n, None) is not getattr(mod, n)] == []
