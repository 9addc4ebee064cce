import ast
import importlib
from pathlib import Path

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


STATE_CLASSES = {"CorrelatedState", "GeneralTwoPhotonState"}


def _state_type_checks(path: Path) -> list:
    """Lines of the isinstance calls of a module that name a state class."""
    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and names(node.args[1]) & STATE_CLASSES]


def test_only_states_switches_on_the_state_type():
    package = Path(dimwitness.__file__).parent
    checks = {path.name: _state_type_checks(path)
              for path in sorted(package.glob("*.py")) if path.name != "states.py"}
    assert {name: lines for name, lines in checks.items() if lines} == {}
