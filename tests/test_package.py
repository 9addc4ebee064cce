import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import dimwitness
from dimwitness import (ConfigError, DecompositionElement, ModeIndex, ModeSet, bound,
                        certified_dimension, enumerate_modes, generic_mode_set,
                        max_witness_state, random_correlated_mixture,
                        random_rank_d_search, robustness_study, simulate_counts,
                        spdc_profile, table_from_state, write_counts_json)
from dimwitness.witness import witness_with_perturbed_projectors
from helpers import EXAMPLE_MODES, example_state

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


def test_star_import_and_dir_give_the_package_names():
    names = {}
    exec("from dimwitness import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(dimwitness.__all__) == sorted(
        {n for m in MODULES for n in importlib.import_module(f"dimwitness.{m}").__all__})
    assert set(dimwitness.__all__) <= set(dir(dimwitness))
    with pytest.raises(AttributeError):
        dimwitness.no_such_name


def test_package_names_follow_their_modules(monkeypatch):
    # each lookup reads the module's name, so a patched function is seen
    # while it is patched and the original after
    from dimwitness import witness
    orig = witness.greedy_subset
    monkeypatch.setattr(witness, "greedy_subset", lambda table: None)
    assert dimwitness.greedy_subset is witness.greedy_subset is not orig
    monkeypatch.undo()
    assert dimwitness.greedy_subset is orig


STATE_CLASSES = {"CorrelatedState", "GeneralTwoPhotonState"}


def _names(node) -> set:
    """The names and attribute names in the tree of `node`."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _state_type_checks(path: Path) -> list:
    """Lines of the isinstance calls of a module that name a state class."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and _names(node.args[1]) & STATE_CLASSES]


def test_only_states_switches_on_the_state_type():
    package = Path(dimwitness.__file__).parent
    checks = {path.name: _state_type_checks(path)
              for path in sorted(package.glob("*.py")) if path.name != "states.py"}
    assert {name: lines for name, lines in checks.items() if lines} == {}


def _json_type_sets(path: Path) -> list:
    """Lines of the literal sets, tuples and lists of a module that hold both
    int and float: a JSON type rule of its own."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Set, ast.Tuple, ast.List))
            and {"int", "float"} <= {getattr(e, "id", None) for e in node.elts}]


def test_only_errors_holds_the_json_value_rule():
    # errors._json_array is the one rule for values read from JSON files
    package = Path(dimwitness.__file__).parent
    assert _json_type_sets(package / "errors.py")
    sets = {path.name: _json_type_sets(path)
            for path in sorted(package.glob("*.py")) if path.name != "errors.py"}
    assert {name: lines for name, lines in sets.items() if lines} == {}


# every scalar argument goes through errors._whole, errors._real or
# errors._flag; each of these was accepted, or failed with no package error
SILENT_SCALARS = {
    "bound-fractional-d": lambda: bound(4, 2.5),
    "bound-bool-d": lambda: bound(4, True),
    "certified-string-W": lambda: certified_dimension("20", 4),
    "max-witness-fractional-d": lambda: max_witness_state(4, 2.5),
    "projectors-string-strength": lambda: witness_with_perturbed_projectors(
        example_state(), "0.1", np.random.default_rng(0)),
    "projectors-bool-strength": lambda: witness_with_perturbed_projectors(
        example_state(), True, np.random.default_rng(0)),
    "robustness-string-strength": lambda: robustness_study(example_state(), "both", 2,
                                                           "0.1", 0),
    "robustness-bool-strength": lambda: robustness_study(example_state(), "both", 2,
                                                         True, 0),
    "profile-bool-decay": lambda: spdc_profile(EXAMPLE_MODES, True, True),
    "enumerate-bool-l-max": lambda: enumerate_modes(True, 0),
    "enumerate-fractional-l-max": lambda: enumerate_modes(1.5, 0),
    "subset-bools": lambda: table_from_state(example_state()).subset([False, True]),
    "subset-floats": lambda: table_from_state(example_state()).subset([0.0, 2.0]),
    "mode-fractional-n": lambda: ModeIndex(0.5, 1),
    "mode-bool-n": lambda: ModeIndex(True, 1),
    "generic-negative-D": lambda: generic_mode_set(-2),
    "simulate-string-expectation": lambda: simulate_counts(example_state(), 10.0,
                                                           expectation="no"),
    "simulate-string-share": lambda: simulate_counts(example_state(), 10.0, seed=1,
                                                     share_populations="no"),
    "search-d-0": lambda: random_rank_d_search(4, 0, 10, np.random.default_rng(0)),
    "search-d-above-D": lambda: random_rank_d_search(4, 5, 10, np.random.default_rng(0)),
    "search-no-iters": lambda: random_rank_d_search(4, 2, 0, np.random.default_rng(0)),
    "search-fractional-iters": lambda: random_rank_d_search(4, 2, 2.5,
                                                            np.random.default_rng(0)),
    "mixture-d-0": lambda: random_correlated_mixture(4, 0, np.random.default_rng(0)),
    "mixture-d-above-D": lambda: random_correlated_mixture(4, 7, np.random.default_rng(0)),
    "mixture-bool-d": lambda: random_correlated_mixture(4, True, np.random.default_rng(0)),
    "element-bool-weight": lambda: DecompositionElement((0,), True, [1.0]),
    "element-string-weight": lambda: DecompositionElement((0,), "0.5", [1.0]),
}


@pytest.mark.parametrize("call", list(SILENT_SCALARS))
def test_scalar_arguments_that_break_their_rule_are_refused(call):
    with pytest.raises(ConfigError):
        SILENT_SCALARS[call]()


def test_numpy_integer_modes_are_held_as_ints(tmp_path):
    mode = ModeIndex(np.int64(1), np.int32(-2))
    assert (type(mode.n), type(mode.l)) == (int, int)
    modes = ModeSet((ModeIndex(np.int64(0), np.int64(0)), mode))
    modes.save(tmp_path / "modes.json")
    assert ModeSet.load(tmp_path / "modes.json") == modes
    st = max_witness_state(modes, 2)
    write_counts_json(simulate_counts(st, 1e3, seed=1), tmp_path / "counts.json")


NUMBER_TYPES = {"bool", "int", "float", "integer", "floating", "bool_"}


def _number_type_checks(path: Path) -> list:
    """Lines of the isinstance calls of a module that test for a number or
    bool type: a scalar rule of its own."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and _names(node.args[1]) & NUMBER_TYPES]


def test_only_errors_holds_the_scalar_rules():
    # errors._whole, errors._real and errors._flag are the one rule each for
    # whole-number, real and on/off arguments
    package = Path(dimwitness.__file__).parent
    assert _number_type_checks(package / "errors.py")
    checks = {path.name: _number_type_checks(path)
              for path in sorted(package.glob("*.py")) if path.name != "errors.py"}
    assert {name: lines for name, lines in checks.items() if lines} == {}


def _outcome(node):
    """The last index of a subscript [..., i] with a constant i, or None."""
    index = getattr(node, "slice", None)
    if (isinstance(node, ast.Subscript) and isinstance(index, ast.Tuple)
            and len(index.elts) == 2 and isinstance(index.elts[0], ast.Constant)
            and index.elts[0].value is Ellipsis and isinstance(index.elts[1], ast.Constant)):
        return index.elts[1].value
    return None


def _pp_mm_sums(path: Path) -> list:
    """Lines of a module that add a [..., 0] subscript to a [..., 3] one,
    the pp + mm sum of a count array: per-basis sums of its own."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and {_outcome(node.left), _outcome(node.right)} == {0, 3}]


def test_only_measurement_sums_the_outcomes():
    # measurement.basis_correlations is the one kernel of the per-basis
    # correlations and totals; the closed form and the tables read it
    package = Path(dimwitness.__file__).parent
    assert _pp_mm_sums(package / "measurement.py")
    sums = {path.name: _pp_mm_sums(path)
            for path in sorted(package.glob("*.py")) if path.name != "measurement.py"}
    assert {name: lines for name, lines in sums.items() if lines} == {}


def _ingestion_handlers(path: Path) -> list:
    """(function, line) of each except handler of a module that raises
    IngestionError: a boundary of its own for bad input files."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and any(
                isinstance(n, ast.Raise) and "IngestionError" in _names(n)
                for n in ast.walk(node)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_only_errors_turns_failures_into_ingestion_errors():
    # errors._reading is the one boundary of the input file readers;
    # measurement._csv_chunks also renumbers the row of a malformed CSV row
    # among the file's rows
    package = Path(dimwitness.__file__).parent
    assert [f for f, _ in _ingestion_handlers(package / "errors.py")] == ["_reading"]
    assert [f for f, _ in _ingestion_handlers(package / "measurement.py")] == [
        "_csv_chunks"]
    handlers = {path.name: _ingestion_handlers(path)
                for path in sorted(package.glob("*.py"))
                if path.name not in ("errors.py", "measurement.py")}
    assert {name: found for name, found in handlers.items() if found} == {}


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _seed_sequences(path: Path) -> list:
    """(line, purpose) of each SeedSequence call of a module; the purpose is
    None unless the call is SeedSequence((seed, <int literal>)) outside any
    loop or comprehension."""
    found = []

    def visit(node, in_loop):
        if isinstance(node, ast.Call) and "SeedSequence" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
            ok = (not in_loop and isinstance(arg, ast.Tuple) and len(arg.elts) == 2
                  and getattr(arg.elts[0], "id", None) == "seed"
                  and isinstance(arg.elts[1], ast.Constant)
                  and type(arg.elts[1].value) is int)
            found.append((node.lineno, arg.elts[1].value if ok else None))
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, _LOOPS))

    visit(ast.parse(path.read_text(), str(path)), False)
    return found


def test_each_seeded_purpose_draws_from_one_stream():
    # SeedSequence((seed, purpose)) with purpose 0 populations, 1 counts,
    # 2 bootstrap and 3 robustness, each built once per call, never per
    # trial or resample
    package = Path(dimwitness.__file__).parent
    calls = {path.name: _seed_sequences(path) for path in sorted(package.glob("*.py"))}
    assert {name: [line for line, purpose in found if purpose is None]
            for name, found in calls.items()
            if any(purpose is None for _, purpose in found)} == {}
    assert sorted(purpose for found in calls.values() for _, purpose in found) == [
        0, 1, 2, 3]
