import json

import pytest

from dimwitness import (ConfigError, IngestionError, InvalidModeSetError, ModeIndex,
                        ModeSet, enumerate_modes)


def test_single_gauss_mode():
    ms = enumerate_modes(0, 0)
    assert ms.D == 1
    assert ms.modes == (ModeIndex(0, 0),)


def test_enumeration_order_and_count():
    ms = enumerate_modes(1, 1)
    assert [(m.n, m.l) for m in ms.modes] == [
        (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


def test_full_experiment_grid_size():
    # (2*11 + 1) * (13 + 1) modes
    assert enumerate_modes(11, 13).D == 322


def test_enumeration_deterministic():
    assert enumerate_modes(3, 2).modes == enumerate_modes(3, 2).modes


def test_explicit_selection():
    sel = [ModeIndex(0, 0), ModeIndex(2, -2)]
    ms = ModeSet(tuple(sel))
    assert ms.modes == tuple(sel)


def test_duplicate_selection_rejected():
    with pytest.raises(InvalidModeSetError):
        ModeSet((ModeIndex(0, 1), ModeIndex(0, 1)))


def test_negative_bounds_rejected():
    with pytest.raises(ConfigError):
        enumerate_modes(-1, 0)


def test_mode_set_json_roundtrip(tmp_path):
    ms = enumerate_modes(2, 1)
    path = tmp_path / "modes.json"
    ms.save(path)
    assert ModeSet.load(path) == ms


def test_mode_set_save_bytes(tmp_path):
    ms = enumerate_modes(2, 1)
    path = tmp_path / "modes.json"
    ms.save(path)
    assert path.read_text() == json.dumps(ms.to_json(), indent=1) + "\n"


@pytest.mark.parametrize("value", [1.9, 1.0, "1", True,
                                   # beyond int64, which the CSV reader parses
                                   # into, and on which the count writers failed
                                   pytest.param(2 ** 63, id="2**63"),
                                   pytest.param(10 ** 400, id="10**400"),
                                   pytest.param(-2 ** 63 - 1, id="-2**63-1")])
def test_mode_file_numbers_must_be_integers(tmp_path, value):
    with pytest.raises(ValueError, match="not an integer"):
        ModeSet.from_json([{"n": 0, "l": 0}, {"n": value, "l": 0}])
    path = tmp_path / "modes.json"
    path.write_text(json.dumps([{"n": 0, "l": value}]))
    with pytest.raises(IngestionError):
        ModeSet.load(path)


def test_mode_file_numbers_take_all_of_int64():
    edge = ModeSet.from_json([{"n": 2 ** 63 - 1, "l": -2 ** 63}])
    assert edge.modes == (ModeIndex(2 ** 63 - 1, -2 ** 63),)
    assert json.loads(json.dumps(edge.to_json())) == [{"n": 2 ** 63 - 1, "l": -2 ** 63}]


def test_mode_file_radial_numbers_must_not_be_negative():
    # ModeIndex's ConfigError, which every reader reports as bad input (exit 3)
    with pytest.raises(ConfigError, match="radial quantum number n must be a whole "
                                          "number >= 0, got -1"):
        ModeSet.from_json([{"n": 0, "l": 0}, {"n": -1, "l": 0}])
