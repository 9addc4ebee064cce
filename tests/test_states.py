import json
import math
import os
from itertools import combinations

import numpy as np
import pytest

from dimwitness import (CapacityError, ConfigError, CorrelatedState,
                        DecompositionElement, IngestionError,
                        InvalidStateError, amplitudes_from_rates,
                        correlated_pure, generic_mode_set, load_state,
                        max_witness_state, maximally_entangled, perturb_state,
                        save_state, schmidt_rank, spdc_profile,
                        state_from_elements)
from dimwitness.states import _embed
from helpers import EXAMPLE_AMPS, EXAMPLE_MODES, example_state



def test_product_state_coefficients():
    st = correlated_pure([1, 0, 0], generic_mode_set(3))
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert np.allclose(st.coeffs, want)


def test_bell_state_coefficients():
    st = correlated_pure(np.array([1, 1]) / np.sqrt(2), generic_mode_set(2))
    assert np.allclose(st.coeffs, np.full((2, 2), 0.5))


def test_four_mode_example_normalization():
    st = example_state()
    norm2 = np.sum(EXAMPLE_AMPS**2)
    assert np.isclose(st.coeffs[0, 0].real, 0.25 / norm2)
    assert np.isclose(np.trace(st.coeffs).real, 1.0)
    st.validate()


def test_zero_vector_rejected():
    with pytest.raises(InvalidStateError):
        correlated_pure([0, 0, 0], generic_mode_set(3))


@pytest.mark.parametrize("amps", [[np.nan, 0.1, 0.2], [np.inf, 1, 1]],
                         ids=["nan", "inf"])
def test_non_finite_amplitudes_rejected(amps):
    with pytest.raises(InvalidStateError):
        correlated_pure(amps, generic_mode_set(3))


def test_amplitudes_whose_squared_norm_overflows_rejected():
    # refused before c = a a^+ / |a|^2 turns NaN, and without an overflow warning
    with pytest.raises(InvalidStateError, match="squared norm"):
        correlated_pure([1e200, 1e200, 1.0], generic_mode_set(3))
    assert np.isclose(correlated_pure([1e150, 1e150], generic_mode_set(2)).coeffs[0, 1], 0.5)


@pytest.mark.parametrize("tiny, unit", [
    ([3e-155, 1e-155], [3.0, 1.0]),           # |a|^2 subnormal
    ([1e-200, 1e-200, 0.0], [1.0, 1.0, 0.0]),  # |a|^2 underflows to 0
    ([5e-324, 5e-324j], [1.0, 1j]),            # subnormal amplitudes
], ids=["1e-155", "1e-200", "subnormal"])
def test_tiny_amplitudes_are_scaled_not_refused(tiny, unit):
    # c does not depend on the scale of a; it used to turn inf or be refused
    # as identically zero
    got = correlated_pure(tiny, generic_mode_set(len(tiny))).coeffs
    want = correlated_pure(unit, generic_mode_set(len(unit))).coeffs
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert np.array_equal(correlated_pure([1e-160, 1e-160], generic_mode_set(2)).coeffs,
                          correlated_pure([1.0, 1.0], generic_mode_set(2)).coeffs)


def test_amplitudes_with_subnormal_squares_are_scaled():
    # sum|a|^2 is a normal float but every |a_k|^2 is subnormal: the products
    # a_k a_l kept only about 45 bits, errors of up to 3e-15 in c
    D = 100
    got = correlated_pure(np.linspace(1.0, 2.0, D) * 1.5e-155, generic_mode_set(D)).coeffs
    want = correlated_pure(np.linspace(1.0, 2.0, D), generic_mode_set(D)).coeffs
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    ones = correlated_pure([1.5e-155] * D, generic_mode_set(D)).coeffs
    assert np.array_equal(ones, correlated_pure([1.0] * D, generic_mode_set(D)).coeffs)
    # 100 terms of 0.01 sum to 1 - 2^-52, at any scale
    assert abs(np.trace(ones).real - 1.0) <= 4 * np.finfo(float).eps


def test_scale_invariance():
    v = np.array([0.3, -0.2, 0.9, 0.1])
    a = correlated_pure(v, generic_mode_set(4))
    b = correlated_pure(2 * v, generic_mode_set(4))
    assert np.allclose(a.coeffs, b.coeffs)


def test_constructors_validate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        correlated_pure(v, generic_mode_set(5)).validate()
    maximally_entangled(6).validate()
    max_witness_state(6, 3).validate()


@pytest.mark.parametrize("make, match", [
    (lambda: correlated_pure([1.0, 0.0], generic_mode_set(3)), "length 2 does not"),
    (lambda: DecompositionElement((0, 1), 1.0, [1.0]), "lengths differ"),
    (lambda: DecompositionElement((0,), 1.5, [1.0]), "weight 1.5 outside"),
    (lambda: DecompositionElement((0, 1), 1.0, [1.0, 1.0]), "not normalized"),
    (lambda: state_from_elements([DecompositionElement((0,), 0.5, [1.0])],
                                 generic_mode_set(2)), "sum to 0.5"),
    (lambda: state_from_elements([DecompositionElement((2,), 1.0, [1.0])],
                                 generic_mode_set(2)), "outside the mode set"),
    (lambda: max_witness_state(3, 0), r"d must be a whole number in \[1, 3\], got 0"),
    (lambda: max_witness_state(3, 4), r"d must be a whole number in \[1, 3\], got 4"),
    (lambda: save_state({}, os.devnull), "cannot serialize object of type dict"),
], ids=["amplitude-length", "element-lengths", "element-weight", "element-norm",
        "weights-sum", "element-support", "d-0", "d-above-D", "save-no-state"])
def test_state_constructors_refuse_bad_input(make, match):
    with pytest.raises(ConfigError, match=match):
        make()


def test_max_witness_state_full_rank_is_maximally_entangled():
    assert np.allclose(max_witness_state(4, 4).coeffs,
                       maximally_entangled(4).coeffs)


def test_max_witness_state_d3_d2_structure():
    # mixture of the 3 two-mode Bell states, each weight 1/3
    st = max_witness_state(3, 2)
    assert np.allclose(np.diag(st.coeffs).real, 1 / 3)
    off = st.coeffs[0, 1]
    assert np.isclose(off.real, 1 / 6)


def max_witness_elements(D, d):
    """The explicit convex decomposition that max_witness_state sums in
    closed form: the rank-d maximally entangled states on all C(D, d) index
    subsets, with equal weights."""
    amps = np.full(d, 1.0 / np.sqrt(d))
    return [DecompositionElement(alpha, 1.0 / math.comb(D, d), amps)
            for alpha in combinations(range(D), d)]


def test_max_witness_elements_have_schmidt_rank_d():
    for D, d in ((4, 2), (5, 3), (3, 3)):
        elements = max_witness_elements(D, d)
        assert len(elements) > 0
        for e in elements:
            M = np.zeros((D, D))
            for k, amp in zip(e.support, e.amplitudes):
                M[k, k] = amp
            assert schmidt_rank(M) == d
        assert np.isclose(sum(e.weight for e in elements), 1.0)


@pytest.mark.parametrize("D, d", [(D, d) for D in range(1, 7)
                                  for d in range(1, D + 1)])
def test_state_from_elements_matches_closed_form(D, d):
    st = state_from_elements(max_witness_elements(D, d), generic_mode_set(D))
    assert np.allclose(st.coeffs, max_witness_state(D, d).coeffs,
                       rtol=0.0, atol=1e-12)


def test_spdc_profile_limits():
    ms = EXAMPLE_MODES
    flat = spdc_profile(ms, 1e12, 1e12)
    assert np.allclose(flat, np.full(4, 0.5), atol=1e-9)
    assert np.array_equal(spdc_profile(ms, np.inf, np.inf), np.full(4, 0.5))
    with pytest.raises(ConfigError):
        spdc_profile(ms, np.nan, 1.0)
    peaked = spdc_profile(ms, 1e-2, 1e-2)
    assert peaked[0] > 0.999  # all weight on (0, 0)


def test_amplitudes_from_rates():
    rates = {(0, 0): 100.0, (1, -1): 25.0, (2, -2): 4.0, (3, -3): 1.0}
    a = amplitudes_from_rates(EXAMPLE_MODES, rates)
    assert np.allclose(a / a[-1], [10.0, 5.0, 2.0, 1.0])
    with pytest.raises(IngestionError):
        amplitudes_from_rates(EXAMPLE_MODES, {(0, 0): 1.0})


def test_perturb_zero_strength_is_exact_embedding():
    st = example_state()
    gen = perturb_state(st, 0.0, np.random.default_rng(0))
    diag = np.arange(4) * 4 + np.arange(4)
    assert np.allclose(gen.rho[np.ix_(diag, diag)], st.coeffs)
    off = gen.rho.copy()
    off[np.ix_(diag, diag)] = 0.0
    assert np.allclose(off, 0.0)


def test_perturb_takes_a_general_state():
    st = example_state()
    a = perturb_state(st, 0.1, np.random.default_rng(5))
    b = perturb_state(st.embed(), 0.1, np.random.default_rng(5))
    assert np.array_equal(a.rho, b.rho)
    assert perturb_state(a, 0.0, np.random.default_rng(0)) is a


def ref_embed(c):
    D = len(c)
    rho = np.zeros((D * D, D * D), dtype=complex)
    kk = np.arange(D) * (D + 1)
    rho[np.ix_(kk, kk)] = c
    rho /= np.trace(rho).real
    return rho


@pytest.mark.parametrize("D", range(2, 9))
def test_embed_equals_dense_reference(D):
    # unnormalized PSD coefficients: the trace's last digit shows in every entry
    rng = np.random.default_rng(D)
    a = rng.standard_normal((20, D, D)) + 1j * rng.standard_normal((20, D, D))
    coeffs = a @ a.conj().swapaxes(-1, -2)
    want = np.stack([ref_embed(c) for c in coeffs])
    assert _embed(coeffs).tobytes() == want.tobytes()
    assert _embed(coeffs.reshape(4, 5, D, D)).tobytes() == want.tobytes()
    for c, rho in zip(coeffs, want):
        assert _embed(c).tobytes() == rho.tobytes()


def test_blocks_of_a_correlated_state_equal_those_of_its_embedding():
    st = example_state()
    gen = st.embed()
    k, l = np.triu_indices(st.D, 1)
    assert st.blocks(k, l).shape == (6, 4, 4)
    assert np.allclose(st.blocks(k, l), gen.blocks(k, l), rtol=0, atol=1e-15)
    assert gen.embed() is gen


@pytest.mark.parametrize("strength", [0.01, 0.1, 0.5])
def test_perturbed_state_is_valid(strength):
    bell = correlated_pure([1, 1], generic_mode_set(2))
    gen = perturb_state(bell, strength, np.random.default_rng(3))
    gen.validate()
    assert np.isclose(np.trace(gen.rho).real, 1.0)


@pytest.mark.parametrize("strength", [-0.2, np.nan, np.inf])
def test_perturb_refuses_a_bad_strength(strength):
    # a non-finite strength used to end in a LinAlgError from eigh
    with pytest.raises(ConfigError, match="strength must be a finite number >= 0"):
        perturb_state(example_state(), strength, np.random.default_rng(0))


def test_perturb_capacity_cap():
    big = maximally_entangled(9)
    with pytest.raises(CapacityError):
        perturb_state(big, 0.1, np.random.default_rng(0))


def test_state_file_roundtrip(tmp_path):
    st = example_state()
    path = tmp_path / "state.json"
    save_state(st, path)
    loaded = load_state(path)
    assert isinstance(loaded, CorrelatedState)
    assert np.allclose(loaded.coeffs, st.coeffs)
    assert loaded.mode_set == st.mode_set

    gen = perturb_state(st, 0.05, np.random.default_rng(1))
    gpath = tmp_path / "general.json"
    save_state(gen, gpath)
    loaded = load_state(gpath)
    assert np.allclose(loaded.rho, gen.rho)


@pytest.mark.parametrize("text", ['{"modes": [{"n": 0, "l": 0}', "", "[1, 2"])
def test_truncated_state_file_is_ingestion_error(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    with pytest.raises(IngestionError, match="malformed state file"):
        load_state(path)


def test_state_file_matrix_holds_pairs_of_json_numbers(tmp_path):
    # true and false were read as 1 and 0, so the first two files loaded as
    # the state saved; an integer too large for a float ended in an
    # OverflowError traceback
    path = tmp_path / "state.json"
    save_state(correlated_pure([1, 0], generic_mode_set(2)), path)
    saved = json.loads(path.read_text())
    assert saved["matrix"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for row in ([[True, 0.0], [0.0, 0.0]], [[1.0, False], [0.0, 0.0]],
                [[10 ** 400, 0.0], [0.0, 0.0]], [[1.0, -10 ** 400], [0.0, 0.0]],
                [["1", 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0]],
                [[1.0], [0.0, 0.0]], [1.0, 0.0]):
        path.write_text(json.dumps({**saved, "matrix": [row, saved["matrix"][1]]}))
        with pytest.raises(IngestionError, match="malformed state file"):
            load_state(path)
