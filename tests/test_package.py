import importlib

import pytest


@pytest.mark.parametrize("name", ["modes", "states", "measurement", "witness",
                                  "oracle"])
def test_all_names_resolve(name):
    mod = importlib.import_module(f"dimwitness.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
