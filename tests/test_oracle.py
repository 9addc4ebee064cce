import json
import math

import numpy as np
import pytest

from dimwitness import (CapacityError, DecompositionElement,
                        GeneralTwoPhotonState, InvalidStateError, bound,
                        brute_force_witness, correlated_pure,
                        generic_mode_set, load_state, max_witness_state,
                        maximally_entangled, perturb_state,
                        random_correlated_mixture, random_rank_d_search,
                        robustness_study, schmidt_rank, state_from_elements,
                        table_from_state, witness_correlated, witness_sum)
from dimwitness import oracle
from dimwitness.cli import main
from dimwitness.oracle import _DOUBLE, brute_force_sv_witness
from dimwitness.states import _embed
from dimwitness.witness import _TAU_PER_PAIR, witness_with_perturbed_projectors
from helpers import f_total

# szsz - sysy + sxsx; _DOUBLE holds the x, y, z operators in that order
_G_OP = _DOUBLE[2] - _DOUBLE[1] + _DOUBLE[0]


# --- equivalence of the production and brute-force paths ---------------------

def test_paths_agree_on_random_nonnegative_mixtures():
    rng = np.random.default_rng(100)
    for _ in range(300):
        D = int(rng.integers(2, 6))
        d = int(rng.integers(1, D + 1))
        st = random_correlated_mixture(D, d, rng)
        brute = brute_force_witness(st)
        assert abs(witness_correlated(st.coeffs) - brute) < 1e-9
        assert abs(witness_sum(table_from_state(st)) - brute) < 1e-9


def test_sv_witness_matches_on_nonnegative_states():
    # for non-negative amplitudes g equals the summed visibility exactly
    rng = np.random.default_rng(101)
    for _ in range(50):
        st = random_correlated_mixture(4, 3, rng)
        assert abs(brute_force_sv_witness(st) - brute_force_witness(st)) < 1e-9


def test_sv_witness_differs_on_signed_states():
    st = correlated_pure([1.0, -1.0], generic_mode_set(2))
    assert np.isclose(brute_force_witness(st), -1.0)
    assert np.isclose(brute_force_sv_witness(st), 3.0)


def test_paths_agree_after_state_perturbation():
    rng = np.random.default_rng(102)
    base = maximally_entangled(4)
    for s in (0.02, 0.1, 0.3):
        gen = perturb_state(base, s, rng)
        fast = witness_sum(table_from_state(gen))
        assert abs(fast - brute_force_sv_witness(gen)) < 1e-9


# --- bound tightness ---------------------------------------------------------

def test_bound_saturated_small_D():
    for D in range(2, 7):
        for d in range(1, D + 1):
            got = brute_force_witness(max_witness_state(D, d))
            assert abs(got - (D * d + D * (D - 3) / 2)) < 1e-6
            assert abs(got - bound(D, d)) < 1e-6


def test_random_search_never_beats_bound():
    rng = np.random.default_rng(55)
    for D, d in ((3, 1), (3, 2), (4, 2), (5, 3)):
        best = random_rank_d_search(D, d, 300, rng)
        assert best <= bound(D, d) + 1e-9


def test_rank1_search_capped_at_product_bound():
    rng = np.random.default_rng(57)
    best = random_rank_d_search(3, 1, 300, rng)
    assert best <= bound(3, 1) + 1e-9 == 3 + 1e-9


# --- un-normalized correlation totals ----------------------------------------

def test_f_total_bell():
    assert np.isclose(f_total(correlated_pure([1, 1], generic_mode_set(2))), 3.0)


def test_f_total_uniform_rank_d():
    # phi_d embedded in D modes gives 2 d + D - 3 exactly
    for D in range(2, 7):
        for d in range(1, D + 1):
            amps = np.zeros(D)
            amps[:d] = 1.0
            st = correlated_pure(amps, generic_mode_set(D))
            assert abs(f_total(st) - (2 * d + D - 3)) < 1e-9


def test_f_total_random_rank_d_never_exceeds_bound():
    rng = np.random.default_rng(77)
    for _ in range(200):
        D = int(rng.integers(2, 6))
        d = int(rng.integers(1, D + 1))
        st = random_correlated_mixture(D, d, rng)
        assert f_total(st) <= 2 * d + D - 3 + 1e-9


def test_f_is_g_times_weight():
    # each (kk, kl, lk, ll) block as a two-mode state has f_total = f_kl and
    # brute-force witness g_kl
    rng = np.random.default_rng(78)
    for _ in range(30):
        st = random_correlated_mixture(4, 4, rng)
        tot = 0.0
        for B, N in _ref_blocks(st):
            pair = GeneralTwoPhotonState(B, generic_mode_set(2))
            f = f_total(pair)
            tot += f
            if N > 0:
                assert abs(f - brute_force_witness(pair) * N) < 1e-9
        assert abs(tot - f_total(st)) < 1e-9


# --- Schmidt rank ------------------------------------------------------------

def test_schmidt_rank_product():
    M = np.outer([1, 2, 0], [0, 1, 1])
    assert schmidt_rank(M) == 1


def test_schmidt_rank_maximal():
    assert schmidt_rank(np.eye(5) / np.sqrt(5)) == 5


def test_schmidt_rank_uniform_rank_d():
    for D, d in ((5, 2), (6, 4)):
        M = np.zeros((D, D))
        for k in range(d):
            M[k, k] = 1 / np.sqrt(d)
        assert schmidt_rank(M) == d


def test_schmidt_rank_local_unitary_invariance():
    rng = np.random.default_rng(8)
    M = np.diag([0.8, 0.5, 0.3, 0.0])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    assert schmidt_rank(q @ M @ u) == schmidt_rank(M) == 3


def test_schmidt_rank_zero_rejected():
    with pytest.raises(InvalidStateError):
        schmidt_rank(np.zeros((3, 3)))


# --- random mixture generator ------------------------------------------------

def test_random_mixture_is_valid_and_rank_bounded():
    rng = np.random.default_rng(13)
    for _ in range(50):
        st = random_correlated_mixture(5, 3, rng)
        st.validate()
        assert np.isclose(np.trace(st.coeffs).real, 1.0)


def test_random_mixture_deterministic():
    a = random_correlated_mixture(4, 2, np.random.default_rng(9))
    b = random_correlated_mixture(4, 2, np.random.default_rng(9))
    assert np.allclose(a.coeffs, b.coeffs)


# --- capacity ----------------------------------------------------------------

def test_oracle_capacity_cap():
    with pytest.raises(CapacityError):
        brute_force_witness(maximally_entangled(9))
    with pytest.raises(CapacityError):
        random_rank_d_search(9, 2, 1, np.random.default_rng(0))


def _load_general_9(tmp_path):
    """load_state of a 9-mode state file in the general (full matrix) form."""
    path = tmp_path / "general9.json"
    path.write_text(json.dumps({
        "modes": generic_mode_set(9).to_json(), "representation": "general",
        "matrix": [[[v, 0.0] for v in row] for row in (np.eye(81) / 81).tolist()]}))
    return load_state(path)


_RNG = np.random.default_rng
_ME9 = maximally_entangled(9)

CAPACITY_ENTRY_POINTS = {
    "embed": lambda tmp: _ME9.embed(),
    "GeneralTwoPhotonState": lambda tmp: GeneralTwoPhotonState(
        np.eye(81) / 81, generic_mode_set(9)),
    "load_state": _load_general_9,
    "perturb_state": lambda tmp: perturb_state(_ME9, 0.1, _RNG(0)),
    "brute_force_witness": lambda tmp: brute_force_witness(_ME9),
    "brute_force_sv_witness": lambda tmp: brute_force_sv_witness(_ME9),
    "f_total": lambda tmp: f_total(_ME9),
    "random_rank_d_search": lambda tmp: random_rank_d_search(9, 2, 1, _RNG(0)),
    "robustness_study": lambda tmp: robustness_study(_ME9, "projector", 2, 0.1, 0),
    "witness_with_perturbed_projectors":
        lambda tmp: witness_with_perturbed_projectors(_ME9, 0.1, _RNG(0)),
}


@pytest.mark.parametrize("entry", [*CAPACITY_ENTRY_POINTS, "cli robustness"])
def test_small_d_cap_at_every_entry_point(entry, tmp_path):
    # the fixed cap is 8: D = 9 is refused before any D^4 array is built
    if entry == "cli robustness":
        with pytest.raises(SystemExit) as exc:
            main(["robustness", "--amplitudes", ",".join(["1"] * 9),
                  "--kind", "both", "--trials", "2", "--seed", "0",
                  "--output", str(tmp_path / "x.json")])
        assert exc.value.code == 4
        return
    with pytest.raises(CapacityError, match="D=9 exceeds the small-D cap 8"):
        CAPACITY_ENTRY_POINTS[entry](tmp_path)


# --- reference loops ---------------------------------------------------------
# Per-pair loop versions of the batched oracle sums.

def _ref_blocks(state):
    gen = state.embed() if hasattr(state, "embed") else state
    D, rho = gen.D, gen.rho
    for k in range(D):
        for l in range(k + 1, D):
            idx = [k * D + k, k * D + l, l * D + k, l * D + l]
            block = rho[np.ix_(idx, idx)]
            yield block, float(np.trace(block).real)


def ref_brute_force_witness(state):
    return sum(float(np.trace(_G_OP @ (B / N)).real)
               for B, N in _ref_blocks(state) if N > 0.0)


def ref_brute_force_sv_witness(state):
    return sum(sum(abs(float(np.trace(op @ (B / N)).real)) for op in _DOUBLE)
               for B, N in _ref_blocks(state) if N > 0.0)


def ref_f_total(state):
    return sum(float(np.trace(_G_OP @ B).real) for B, _ in _ref_blocks(state))


def test_oracle_sums_equal_reference_loops():
    rng = np.random.default_rng(103)
    states = [correlated_pure([1.0, 0.0, 0.0, 0.5], generic_mode_set(4)),
              correlated_pure([1.0, -1.0], generic_mode_set(2))]
    for _ in range(20):
        D = int(rng.integers(2, 7))
        states.append(random_correlated_mixture(D, int(rng.integers(1, D + 1)), rng))
        states.append(perturb_state(states[-1], 0.1, rng))
    for st in states:
        assert abs(brute_force_witness(st) - ref_brute_force_witness(st)) < 1e-12
        assert abs(brute_force_sv_witness(st) - ref_brute_force_sv_witness(st)) < 1e-12
        assert abs(f_total(st) - ref_f_total(st)) < 1e-12


def test_stacked_scores_equal_one_state_scores():
    # a state's W does not depend on the size of the stack it is scored in
    rng = np.random.default_rng(104)
    for D in (2, 4, 6):
        states = [perturb_state(random_correlated_mixture(D, 2, rng), 0.1, rng)
                  for _ in range(20)]
        stack = oracle._sv_witness(np.stack([st.rho for st in states]))
        assert np.array_equal(stack, [brute_force_sv_witness(st) for st in states])


def ref_mixture_elements(D, d, n, rng):
    """The decomposition elements of n random mixtures: the five whole-array
    draws of oracle._random_mixtures, in its order, read state by state."""
    E = oracle._MAX_ELEMENTS
    n_el = rng.integers(1, E + 1, size=n)
    expo = rng.standard_exponential((n, E))
    r = rng.integers(1, d + 1, size=(n, E))
    place = rng.permuted(np.tile(np.arange(D), (n, E, 1)), axis=-1)
    z = np.abs(rng.standard_normal((n, E, D))) + 1e-12
    mixtures = []
    for i in range(n):
        weights = expo[i, :n_el[i]] / np.sum(expo[i, :n_el[i]])
        elements = []
        for e, w in enumerate(weights):
            support = np.sort(np.argsort(place[i, e])[:r[i, e]])
            amps = z[i, e, support]
            amps = amps / math.sqrt(np.sum(amps * amps))
            elements.append(DecompositionElement(tuple(support.tolist()), float(w), amps))
        mixtures.append(elements)
    return mixtures


def ref_random_mixtures(D, d, n, rng):
    """n random mixtures, each assembled element by element."""
    return [state_from_elements(elements, generic_mode_set(D))
            for elements in ref_mixture_elements(D, d, n, rng)]


def ref_random_correlated_mixture(D, d, rng):
    return ref_random_mixtures(D, d, 1, rng)[0]


def ref_random_rank_d_search(D, d, iters, rng):
    return max(ref_brute_force_sv_witness(st)
               for st in ref_random_mixtures(D, d, iters, rng))


def _zero_population_pairs(coeffs):
    pop = coeffs.real.diagonal(axis1=-2, axis2=-1)
    k, l = np.triu_indices(pop.shape[-1], 1)
    return int(np.count_nonzero(pop[..., k] + pop[..., l] == 0.0))


def test_mixture_stack_equals_reference_generator():
    for D in range(2, 7):
        for d in range(1, D + 1):
            stack = oracle._random_mixtures(D, d, 200, np.random.default_rng([D, d]))
            ref = ref_random_mixtures(D, d, 200, np.random.default_rng([D, d]))
            assert stack.shape == (200, D, D)
            for c, st in zip(stack, ref):
                assert np.array_equal(c, st.coeffs)


@pytest.mark.parametrize("D", [7, 8])
def test_mixture_stack_matches_the_reference_up_to_the_cap(D):
    # D = 7 matches exactly.  At the cap, D = 8, the stack normalizes each
    # element over all 8 modes, and numpy's pairwise sum groups 8 squares
    # differently from the reference's sum over the support alone, so a
    # state may differ from the reference in its last bits.
    for d in range(1, D + 1):
        stack = oracle._random_mixtures(D, d, 200, np.random.default_rng([D, d]))
        ref = np.array([st.coeffs for st in
                        ref_random_mixtures(D, d, 200, np.random.default_rng([D, d]))])
        if D == 7:
            assert np.array_equal(stack, ref)
        else:
            assert np.abs(stack - ref).max() <= 4 * np.finfo(float).eps


def test_random_mixture_equals_reference_generator():
    a, b = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(100):
        assert np.array_equal(random_correlated_mixture(5, 2, a).coeffs,
                              ref_random_correlated_mixture(5, 2, b).coeffs)


def test_stacked_sums_equal_reference_loops():
    # rank-1 and rank-2 mixtures at D = 6 leave many pairs with no population
    for D, d in ((2, 1), (4, 2), (6, 1), (6, 2), (6, 6)):
        coeffs = oracle._random_mixtures(D, d, 60, np.random.default_rng([5, D, d]))
        if d < D / 2:
            assert _zero_population_pairs(coeffs) > 0
        rho = _embed(coeffs)
        t, N = oracle._traces(rho)
        g = np.sum(oracle._correlations(rho) @ oracle._G_SIGNS, axis=1)
        sv = oracle._sv_witness(rho)
        f = np.sum(t @ oracle._G_SIGNS, axis=1)
        for i, c in enumerate(coeffs):
            st = GeneralTwoPhotonState(_embed(c), generic_mode_set(D))
            for got, ref in ((g[i], ref_brute_force_witness(st)),
                             (sv[i], ref_brute_force_sv_witness(st)),
                             (f[i], ref_f_total(st)),
                             (brute_force_witness(st), ref_brute_force_witness(st)),
                             (brute_force_sv_witness(st), ref_brute_force_sv_witness(st)),
                             (f_total(st), ref_f_total(st))):
                assert abs(got - ref) < 1e-12


@pytest.mark.parametrize("D, chunk_bytes", [(6, None), (3, 4 * 16 * 3**4)])
def test_search_equals_reference_loop_across_chunks(D, chunk_bytes, monkeypatch):
    # iters of 1, exactly one chunk and one chunk + 1, at the module's chunk
    # size and at a chunk of 4 states
    if chunk_bytes is not None:
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", chunk_bytes)
    chunk = oracle._CHUNK_BYTES // (16 * D**4)
    assert chunk > 1
    for d in (1, 2, D):
        for iters in (1, chunk, chunk + 1):
            got = random_rank_d_search(D, d, iters, np.random.default_rng([D, d, iters]))
            want = ref_random_rank_d_search(D, d, iters,
                                            np.random.default_rng([D, d, iters]))
            assert abs(got - want) < 1e-12
            assert got <= bound(D, d) + 1e-6


def test_search_leaves_the_generator_where_the_reference_does():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    random_rank_d_search(4, 2, 30, a)
    ref_random_mixtures(4, 2, 30, b)
    assert a.integers(1 << 62) == b.integers(1 << 62)


def test_nonnegative_twin_bounds_the_witness_of_complex_mixtures():
    # why _random_mixtures may draw |N(0, 1)| amplitudes: the mixture of the
    # |v_i| has the diagonal and Schmidt number of c = sum_i p_i v_i v_i^H
    # and a W at least as large, so the sweep misses no worst case
    rng = np.random.default_rng(31)
    n, E = 400, oracle._MAX_ELEMENTS
    for D in range(2, 9):
        for d in sorted({1, 2, D}):
            rank = rng.integers(1, d + 1, (n, E, 1))
            support = rng.random((n, E, D)).argsort(axis=-1) < rank
            v = (rng.standard_normal((n, E, D)) + 1j * rng.standard_normal((n, E, D))) * support
            p = rng.dirichlet(np.ones(E), n)
            c = np.einsum("ne,nek,nel->nkl", p, v, v.conj())
            twin = np.einsum("ne,nek,nel->nkl", p, np.abs(v), np.abs(v))
            assert np.allclose(c.diagonal(axis1=1, axis2=2).real,
                               twin.diagonal(axis1=1, axis2=2), rtol=1e-14, atol=0)
            W, W_twin = witness_correlated(c), witness_correlated(twin)
            tau = _TAU_PER_PAIR * (D * (D - 1) // 2) * W_twin
            assert np.all(W <= W_twin + tau)
            if d > 1:  # the phases lower W: the bound is not met trivially
                assert np.mean(W < W_twin - 1e-6) > 0.5


def test_random_mixtures_follow_their_law():
    # 1 to 4 elements about equally often, Dirichlet(1, 1) weights, support
    # sizes uniform on 1..d and every mode in a support about equally often
    D, d, n = 6, 3, 8000
    mixtures = ref_mixture_elements(D, d, n, np.random.default_rng(19))
    counts = np.bincount([len(m) for m in mixtures], minlength=5)
    assert counts[0] == 0 and np.all(np.abs(counts[1:] / n - 0.25) < 0.02)
    sizes = np.bincount([len(e.support) for m in mixtures for e in m], minlength=d + 1)
    assert sizes.size == d + 1 and sizes[0] == 0
    assert np.all(np.abs(sizes[1:d + 1] / sizes.sum() - 1 / d) < 0.02)
    modes = np.bincount([k for m in mixtures for e in m for k in e.support], minlength=D)
    assert np.all(np.abs(modes / modes.mean() - 1.0) < 0.05)
    assert all(abs(sum(e.weight for e in m) - 1.0) < 1e-12 for m in mixtures)
    first_of_two = np.array([m[0].weight for m in mixtures if len(m) == 2])
    assert abs(first_of_two.mean() - 0.5) < 0.03
    assert abs(np.mean(first_of_two < 0.25) - 0.25) < 0.03
    stack = oracle._random_mixtures(D, d, n, np.random.default_rng(19))
    trace = np.trace(stack, axis1=1, axis2=2)
    assert np.all(np.abs(trace - 1.0) <= 4 * np.finfo(float).eps)
