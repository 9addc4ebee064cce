import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimwitness
from dimwitness import (ConfigError, InvalidModeSetError, ModeIndex, ModeSet,
                        enumerate_modes, lg_field, mode_overlap)
from dimwitness.modes import _genlaguerre, check_orthonormality


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
    ms = enumerate_modes(selection=sel)
    assert ms.modes == tuple(sel)


def test_duplicate_selection_rejected():
    with pytest.raises(InvalidModeSetError):
        enumerate_modes(selection=[ModeIndex(0, 1), ModeIndex(0, 1)])


def test_negative_bounds_rejected():
    with pytest.raises(ConfigError):
        enumerate_modes(-1, 0)


def test_mode_set_json_roundtrip(tmp_path):
    ms = enumerate_modes(2, 1)
    path = tmp_path / "modes.json"
    ms.save(path)
    assert ModeSet.load(path) == ms


def test_gauss_profile_real_positive():
    r = np.linspace(0.0, 3.0, 50)
    vals = lg_field(ModeIndex(0, 0), r, 0.7)
    assert np.all(vals.imag == 0.0)
    assert np.all(vals.real > 0.0)


@pytest.mark.parametrize("mode", [ModeIndex(0, 1), ModeIndex(2, -3), ModeIndex(1, 5)])
def test_azimuthal_phase(mode):
    phi = np.linspace(0.1, 2 * np.pi, 17)
    ref = lg_field(mode, 1.3, 0.0)
    vals = lg_field(mode, 1.3, phi)
    dphase = np.angle(vals) - np.angle(ref)
    assert np.allclose(np.exp(1j * dphase), np.exp(1j * mode.l * phi), atol=1e-12)


def test_lg_field_input_checks():
    with pytest.raises(ConfigError):
        lg_field(ModeIndex(0, 0), np.inf, 0.0)
    with pytest.raises(ConfigError):
        lg_field(ModeIndex(0, 0), 1.0, 0.0, w0=0.0)


def test_self_overlap_normalized():
    for mode in (ModeIndex(0, 0), ModeIndex(3, 2), ModeIndex(5, -5)):
        assert abs(mode_overlap(mode, mode) - 1.0) < 1e-6


def test_radial_orthogonality():
    # same l, different n: orthogonality of the Laguerre polynomials
    assert abs(mode_overlap(ModeIndex(1, 0), ModeIndex(0, 0))) < 1e-6
    assert abs(mode_overlap(ModeIndex(0, 2), ModeIndex(1, 2))) < 1e-6


def test_azimuthal_orthogonality_exact():
    # different l kills the phi integral to round-off
    assert abs(mode_overlap(ModeIndex(0, 1), ModeIndex(0, 2))) < 1e-12


def test_orthonormality_low_order_grid():
    ms = enumerate_modes(2, 2)
    assert check_orthonormality(ms, tol=1e-6) < 1e-6


def test_orthonormality_spot_check_high_order():
    pairs = [(ModeIndex(5, 5), ModeIndex(5, 5)),
             (ModeIndex(5, 5), ModeIndex(4, 5)),
             (ModeIndex(5, -5), ModeIndex(5, -5)),
             (ModeIndex(5, 0), ModeIndex(3, 0))]
    for a, b in pairs:
        want = 1.0 if a == b else 0.0
        assert abs(mode_overlap(a, b) - want) < 1e-6


def test_under_resolved_quadrature_reported():
    with pytest.raises(ConfigError):
        check_orthonormality(ModeSet((ModeIndex(8, 8),)), tol=1e-6,
                             r_nodes=4, phi_nodes=8, r_cut=1.0)


@pytest.mark.parametrize("value", [1.9, 1.0, "1", True])
def test_mode_file_numbers_must_be_integers(tmp_path, value):
    with pytest.raises(ValueError, match="not an integer"):
        ModeSet.from_json([{"n": 0, "l": 0}, {"n": value, "l": 0}])
    path = tmp_path / "modes.json"
    path.write_text(json.dumps([{"n": 0, "l": value}]))
    with pytest.raises(ValueError):
        ModeSet.load(path)


def test_genlaguerre_matches_scipy():
    from scipy.special import eval_genlaguerre
    x = np.linspace(0.0, 80.0, 801)
    for n in range(21):
        for alpha in range(21):
            np.testing.assert_allclose(_genlaguerre(n, alpha, x),
                                       eval_genlaguerre(n, alpha, x), rtol=1e-9, atol=0)


def test_cli_import_loads_no_scipy():
    src = Path(dimwitness.__file__).resolve().parents[1]
    code = ("import sys, dimwitness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"
