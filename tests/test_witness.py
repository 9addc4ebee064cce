import functools
import json
import re
from itertools import combinations

import numpy as np
import pytest

from dimwitness import (ConfigError, IngestionError, IntegrityError,
                        VisibilityTable, bound, build_report,
                        certified_dimension, correlated_pure, enumerate_modes,
                        generic_mode_set, greedy_subset, max_witness_state, maximally_entangled,
                        monte_carlo_ci, per_mode_contribution, robustness_study,
                        simulate_counts, spdc_profile, table_from_dataset,
                        table_from_state, witness_correlated, witness_sum)
from dimwitness.measurement import (_EIGVECS, BASES, OUTCOMES, CoincidenceDataset,
                                    basis_correlations, outcome_probabilities,
                                    pair_index)
from dimwitness.modes import ModeSet
from dimwitness.oracle import brute_force_sv_witness, schmidt_rank
from dimwitness.cli import main
from dimwitness.states import (CorrelatedState, GeneralTwoPhotonState, perturb_state,
                               save_state)
from dimwitness.witness import (_CHUNK_BYTES, _LEAK_FRACTION, _closed_form, _frames,
                                witness_with_perturbed_projectors)
from helpers import complex_state, example_state, traced_peak

EXAMPLE_W = 9.829171019705104  # frozen; cross-checked by the oracle tests


# --- bounds and certification ------------------------------------------------

def test_bound_values_large_D():
    assert bound(186, 98) == 35247
    assert bound(186, 99) == 35433
    assert bound(186, 100) == 35619


def test_bound_is_integer_and_steps_by_D():
    for D in (2, 4, 7, 186):
        prev = None
        for d in range(1, D + 1):
            b = bound(D, d)
            assert isinstance(b, int)
            assert b == D * d + D * (D - 3) // 2
            if prev is not None:
                assert b - prev == D
            prev = b


def test_bound_full_rank_equals_global_cap():
    for D in (2, 5, 186):
        assert bound(D, D) == 3 * D * (D - 1) // 2


def test_bound_rejects_bad_rank():
    with pytest.raises(ConfigError):
        bound(4, 0)
    with pytest.raises(ConfigError):
        bound(4, 5)


def test_certified_dimension_examples():
    assert certified_dimension(35529.0, 186) == 100
    assert certified_dimension(6.12, 3) == 3
    # exactly on a bound certifies nothing extra (strict inequality)
    assert certified_dimension(float(bound(4, 2)), 4) == 2
    # nor does a W that rounding puts just above it
    assert certified_dimension(float(bound(4, 2)) + 3.6e-15, 4) == 2
    assert certified_dimension(0.0, 4) == 1
    # W clears bound(D, 12) by just more than the rounding margin, so the
    # first guess, d = 12, is moved up by one
    for W, D in ((380.00000000001444, 19), (221.00000000000384, 13)):
        assert np.ceil((W - _tau(W, D) - bound(D, 1)) / D) + 1 == 12
        assert certified_dimension(W, D) == 13 == _certified_dimension_loop(W, D)


def test_certified_dimension_monotone_in_W():
    for D in (4, 10):
        prev = 1
        for W in np.linspace(0, 1.5 * D * (D - 1), 60):
            d = certified_dimension(float(W), D)
            assert d >= prev
            prev = d


def _tau(W, D):
    """The rounding margin of a verdict: n eps |W| over n = D(D-1)/2 pairs."""
    return D * (D - 1) / 2 * np.finfo(float).eps * abs(W)


@functools.cache
def _bounds(D) -> list:
    """bound(D, d - 1) for d = 2, ..., D, as ints."""
    return [bound(D, d - 1) for d in range(2, D + 1)]


def _certified_dimension_loop(W, D):
    """Reference: the largest d whose bound(D, d - 1) lies more than the
    rounding margin below W."""
    d_cert, tau = 1, _tau(W, D)
    for d, b in enumerate(_bounds(D), start=2):
        if W - b > tau:
            d_cert = d
    return d_cert


@pytest.mark.parametrize("D", [*range(2, 41), 186, 299])
def test_certified_dimension_equals_the_bound_loop(D):
    b = np.array([bound(D, d) for d in range(1, D + 1)], dtype=float)
    tau = _tau(b, D)
    Ws = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                         b - 0.5, b + 0.5, b + tau / 2, b + 2 * tau,
                         [-1.0, 0.0, 1.0, 1e18]])
    for W in [*Ws, *Ws.tolist()]:  # numpy and Python floats
        assert certified_dimension(W, D) == _certified_dimension_loop(W, D)


def _verdict_cases(D, rng):
    """W on, just below and just above each bound, near its rounding
    margin, and at random."""
    b = np.array([bound(D, d) for d in range(1, D + 1)], dtype=float)
    tau = _tau(b, D)
    return np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                           b + tau / 2, b + 2 * tau, b - 0.5, b + 0.5,
                           rng.uniform(-1.0, 1.1 * b[-1], 50), [0.0, 1e18]])


def test_certified_dimension_works_elementwise():
    rng = np.random.default_rng(60)
    cases = {D: _verdict_cases(D, rng) for D in range(2, 61)}
    loops = {D: [_certified_dimension_loop(W, D) for W in Ws.tolist()]
             for D, Ws in cases.items()}
    for D, Ws in cases.items():  # one D for all W
        assert certified_dimension(Ws, D).tolist() == loops[D]
    Ws = np.concatenate(list(cases.values()))
    Ds = np.concatenate([np.full(len(W), D) for D, W in cases.items()])
    d = certified_dimension(Ws.reshape(-1, 1), Ds.reshape(-1, 1))
    assert d.shape == (len(Ws), 1)
    assert d.ravel().tolist() == [d for D in cases for d in loops[D]]
    with pytest.raises(ConfigError, match="finite W"):
        certified_dimension(np.append(Ws, np.inf), np.append(Ds, 4))
    with pytest.raises(ConfigError, match="D >= 2"):
        certified_dimension(Ws, np.where(Ds == 30, 1, Ds))


def test_scalar_verdicts_and_bounds_are_ints():
    for W, D in [(35529.0, 186), (np.float64(6.12), np.int64(3)), (np.float64(0.0), 4)]:
        assert type(certified_dimension(W, D)) is int
        assert type(bound(D, 2)) is int
    assert certified_dimension(np.float64(35529.0), np.int64(186)) == 100


def test_bound_works_elementwise():
    D = np.array([2, 4, 7, 186, 186])
    d = np.array([1, 3, 7, 99, 186])
    assert bound(D, d).tolist() == [bound(int(a), int(b)) for a, b in zip(D, d)]
    assert bound(186, np.arange(98, 101)).tolist() == [35247, 35433, 35619]
    with pytest.raises(ConfigError):
        bound(D, d + (D == 7))


@pytest.mark.parametrize("D", range(2, 41))
def test_saturating_states_certify_their_own_dimension(D):
    # max_witness_state(D, d) has Schmidt number d and W on bound(D, d); the
    # rounding of W must not certify d + 1, from the state or from its counts
    for d in range(1, D + 1):
        st = max_witness_state(D, d)
        for table in (table_from_state(st),
                      table_from_dataset(simulate_counts(st, 1e6, expectation=True))):
            assert certified_dimension(witness_sum(table), D) == d, d


def test_certified_dimension_input_checks():
    with pytest.raises(ConfigError):
        certified_dimension(np.nan, 4)
    with pytest.raises(ConfigError):
        certified_dimension(3.0, 1)


# --- witness sums ------------------------------------------------------------

def test_example_witness_value():
    table = table_from_state(example_state())
    assert abs(witness_sum(table) - EXAMPLE_W) < 1e-9


def test_example_restricted_witness():
    table = table_from_state(example_state())
    W = witness_sum(table.subset([1, 2, 3]))
    assert abs(W - 6.12) < 0.005
    assert certified_dimension(W, 3) == 3


def test_witness_correlated_matches_table_path():
    rng = np.random.default_rng(23)
    for _ in range(40):
        v = np.abs(rng.standard_normal(5)) + 1e-9
        st = correlated_pure(v, generic_mode_set(5))
        assert np.isclose(witness_correlated(st.coeffs),
                          witness_sum(table_from_state(st)))


def test_maximally_entangled_hits_cap():
    for D in (2, 4, 6):
        W = witness_sum(table_from_state(maximally_entangled(D)))
        assert np.isclose(W, 1.5 * D * (D - 1))


def test_saturating_state_hits_bound():
    for D, d in ((4, 2), (5, 3), (6, 4)):
        W = witness_correlated(max_witness_state(D, d).coeffs)
        assert abs(W - bound(D, d)) < 1e-9


def test_incomplete_table_rejected():
    table = table_from_state(example_state())
    V = table.V.copy()
    V[pair_index(1, 3, 4)] = np.nan
    with pytest.raises(IngestionError, match=r"\(1, 3\)"):
        VisibilityTable(table.mode_set, V)
    with pytest.raises(IngestionError, match=r"shape \(5, 3\), expected \(6, 3\)"):
        VisibilityTable(table.mode_set, V[:5])


def ref_visibilities(counts):
    """The visibilities |c_pp + c_mm - c_pm - c_mp| / total per basis of
    counts shaped (..., 3, 4), as the package computed them before it read
    them as |E| of basis_correlations; 0 where a basis or the subspace's z
    basis has no counts."""
    counts = np.asarray(counts)
    tot = counts[..., 0] + counts[..., 1] + counts[..., 2] + counts[..., 3]
    num = np.abs(counts[..., 0] + counts[..., 3] - counts[..., 1] - counts[..., 2])
    V = np.divide(num, tot, out=np.zeros(num.shape), where=tot > 0)
    V[tot[..., BASES.index("z")] == 0] = 0.0
    return V


def adversarial_counts(rng, n):
    """(n, 3, 4) non-negative float64 counts: each count zero, subnormal or
    of magnitude 1e-300 to 1e300, and in a third of the bases A = pp + mm
    within a few ulps of B = pm + mp."""
    counts = 10.0 ** rng.uniform(-300.0, 300.0, (n, 3, 4))
    kind = rng.integers(0, 4, counts.shape)
    counts[kind == 0] = 0.0
    counts[kind == 1] = rng.integers(1, 2 ** 20, np.count_nonzero(kind == 1)) * 5e-324
    near = rng.random((n, 3)) < 1 / 3
    pp = counts[..., 0][near]
    counts[..., 1][near] = pp * (1.0 + rng.integers(-4, 5, pp.size) * 2.0 ** -52)
    counts[..., 2][near] = counts[..., 3][near]
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_visibilities_of_counts_lie_in_0_1(seed):
    # the reason no table the package builds is refused (see VisibilityTable)
    counts = adversarial_counts(np.random.default_rng(seed), 50_000)
    assert (counts >= 0).all() and np.isfinite(counts).all()
    V = np.abs(basis_correlations(counts)[0])
    assert np.array_equal(V, ref_visibilities(counts))  # the same bytes as before
    assert ((V >= 0) & (V <= 1)).all()
    assert (V == 1).any() and ((V > 0) & (V < 1)).any()
    D = 10
    ds = CoincidenceDataset(generic_mode_set(D), 1.0, counts[:D * (D - 1) // 2])
    assert witness_sum(table_from_dataset(ds)) <= bound(D, D)


@pytest.mark.parametrize("D", range(2, 9))
def test_tables_of_random_general_states_are_built(D):
    rng = np.random.default_rng(D)
    for rank in (1, 2, D * D):
        A = (rng.standard_normal((D * D, rank))
             + 1j * rng.standard_normal((D * D, rank)))
        rho = A @ A.conj().T
        state = GeneralTwoPhotonState(rho / np.trace(rho).real, generic_mode_set(D))
        table = table_from_state(state)
        assert ((table.V >= 0) & (table.V <= 1)).all()
        assert np.array_equal(table.V, ref_visibilities(outcome_probabilities(state)))


def test_correlations_are_plus_1_in_z_on_live_pairs_of_correlated_states():
    # inside the class no z count is anti-correlated; pair (1, 2) has no z
    # counts, so every basis of it has E = 0
    st = correlated_pure([0.8, 0.0, 0.0, 0.3], generic_mode_set(4))
    for counts in (outcome_probabilities(st),
                   simulate_counts(st, 1e6, expectation=True).tensor):
        E, N = basis_correlations(counts)
        live = N[:, BASES.index("z")] > 0
        assert np.flatnonzero(~live).tolist() == [pair_index(1, 2, 4)]
        assert (E[live, BASES.index("z")] == 1.0).all() and (E[~live] == 0.0).all()


# --- confidence intervals ----------------------------------------------------

def ref_bootstrap(ds, n_resamples, seed):
    """The plain Poisson bootstrap of W: every count of every pair resampled
    in every resample."""
    counts = ds.tensor
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    ws = np.empty(n_resamples)
    for i in range(n_resamples):
        ws[i] = ref_visibilities(rng.poisson(counts)).sum()
    return float(ws.mean()), float(ws.std(ddof=1))


def scan_like_dataset():
    amps = np.random.default_rng(0).uniform(0.1, 1.0, 8)
    return simulate_counts(correlated_pure(amps, generic_mode_set(8)), 1e5, seed=1)


def with_tensor(ds, tensor):
    """The dataset `ds` with its (read-only) count tensor replaced."""
    return CoincidenceDataset(ds.mode_set, ds.flux, tensor, ds.expectation)


def all_rough_dataset():
    """Every pair has fewer than 25 counts per basis, so no visibility is
    5 Poisson sigmas away from 0; every z basis has counts."""
    ds = simulate_counts(maximally_entangled(5), 1e6, seed=0)
    tensor = ds.tensor.copy()
    tensor[:] = np.random.default_rng(3).poisson(2.0, ds.tensor.shape)
    tensor[:, BASES.index("z"), 0] += 1
    return with_tensor(ds, tensor)


def test_monte_carlo_deterministic():
    ds = simulate_counts(example_state(), 1e6, seed=5)
    a = monte_carlo_ci(ds, 40, seed=7)
    b = monte_carlo_ci(ds, 40, seed=7)
    assert a == b
    # every pair of this dataset is smooth, so sigma is the closed form
    assert monte_carlo_ci(ds, 40, seed=8)[1] == a[1]
    mixed = simulate_counts(example_state(), 1e3, seed=5)
    assert monte_carlo_ci(mixed, 40, seed=7) != monte_carlo_ci(mixed, 40, seed=8)


def test_monte_carlo_all_rough_is_the_plain_bootstrap():
    ds = all_rough_dataset()
    report = build_report(table_from_dataset(ds), dataset=ds, n_resamples=50,
                          seed=4)
    assert report.notes == ["sigma: closed form on 0 of 10 pairs, "
                            "50 resamples on 10"]
    assert monte_carlo_ci(ds, 50, seed=4) == ref_bootstrap(ds, 50, seed=4)


@pytest.mark.parametrize("make_dataset", [
    lambda: simulate_counts(example_state(), 1e6, seed=5),
    lambda: simulate_counts(example_state(), 1e3, seed=5),
    scan_like_dataset,
], ids=["all-smooth", "mixed", "scan-D8"])
def test_monte_carlo_sigma_matches_long_bootstrap(make_dataset):
    ds = make_dataset()
    _, sigma = monte_carlo_ci(ds, 2000, seed=1)
    _, ref_sigma = ref_bootstrap(ds, 4000, seed=2)
    assert abs(sigma / ref_sigma - 1) < 0.05


def forbid_generators(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_rng)


def test_monte_carlo_empty_z_pair_contributes_nothing(monkeypatch):
    ds = simulate_counts(example_state(), 1e6, seed=5)
    p, z = pair_index(1, 3, 4), BASES.index("z")
    tensor = ds.tensor.copy()
    tensor[p, z] = 0.0
    tensor[p, BASES.index("x")] = 50.0  # V_x = 0 would need resampling
    forbid_generators(monkeypatch)  # the other pairs are smooth
    # conftest makes the RuntimeWarning of an unguarded 0 / 0 an error
    only_z_empty = monte_carlo_ci(with_tensor(ds, tensor), 20, seed=7)
    tensor = tensor.copy()
    tensor[p] = 0.0
    assert monte_carlo_ci(with_tensor(ds, tensor), 20, seed=7) == only_z_empty
    tensor = tensor.copy()
    tensor[p] = np.nan
    rest = np.delete(tensor, p, axis=0)
    assert only_z_empty[0] == ref_visibilities(rest).sum()


def test_monte_carlo_all_smooth_builds_no_generator(monkeypatch):
    ds = simulate_counts(example_state(), 1e6, seed=5)
    forbid_generators(monkeypatch)
    _, sigma = monte_carlo_ci(ds, 200, seed=1)
    assert sigma > 0


def ref_closed_form(counts):
    """The closed-form mask and per-pair variance as the package computed
    them from its own sums: per basis A = pp + mm, B = pm + mp and
    N = A + B, smooth where |A - B| >= 5 sqrt(N), variance 4 A B / N^3."""
    A = counts[..., 0] + counts[..., 3]
    B = counts[..., 1] + counts[..., 2]
    N = A + B
    z_live = N[:, BASES.index("z")] > 0
    closed = ~z_live | (np.abs(A - B) >= 5.0 * np.sqrt(N)).all(axis=1)
    var = np.divide(4.0 * A * B, N ** 3, out=np.zeros(N.shape), where=N > 0)
    return closed, np.where(z_live, var.sum(axis=1), 0.0)


def boundary_counts(m, below):
    """One pair per m whose x basis has N = m^2 and |A - B| = 5 m, on the
    closed-form boundary, or 5 m - 2 below it; its y and z bases are
    smooth."""
    m = np.asarray(m, dtype=float)
    d = 5 * m - 2 * below
    counts = np.zeros((len(m), 3, 4))
    counts[:, 0, 0] = (m * m + d) / 2
    counts[:, 0, 1] = (m * m - d) / 2
    counts[:, 1:, 0] = 100.0
    return counts


def noisy_general_dataset(D, flux, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((D * D, D * D)) + 1j * rng.standard_normal((D * D, D * D))
    rho = A @ A.conj().T
    st = GeneralTwoPhotonState(rho / np.trace(rho).real, generic_mode_set(D))
    return simulate_counts(st, flux, seed=seed)


@pytest.mark.parametrize("make_counts", [
    lambda: simulate_counts(example_state(), 1e6, seed=5).tensor,
    lambda: simulate_counts(example_state(), 1e3, seed=5).tensor,
    lambda: scan_like_dataset().tensor,
    lambda: all_rough_dataset().tensor,
    lambda: noisy_general_dataset(4, 1e4, 1).tensor,
    lambda: noisy_general_dataset(8, 1e5, 2).tensor,
    lambda: boundary_counts(np.arange(5, 200_001), below=False),
    lambda: boundary_counts(np.arange(5, 200_001), below=True),
], ids=["all-smooth", "mixed", "scan-D8", "all-rough", "general-D4", "general-D8",
        "boundary", "below-boundary"])
def test_closed_form_keeps_its_mask_and_variance(make_counts):
    # the closed form reads V and N of basis_correlations: its mask is the
    # |A - B| >= 5 sqrt(N) rule, exact boundaries included, and its
    # variance (1 - V^2) / N is 4 A B / N^3
    counts = make_counts()
    closed, var = _closed_form(counts)
    ref_closed, ref_var = ref_closed_form(counts)
    assert np.array_equal(closed, ref_closed)
    assert np.isfinite(ref_var).all()
    np.testing.assert_allclose(var, ref_var, rtol=1e-12, atol=0)


def test_boundary_counts_lie_on_the_boundary():
    m = np.arange(5, 200_001)
    assert ref_closed_form(boundary_counts(m, below=False))[0].all()
    assert not ref_closed_form(boundary_counts(m, below=True))[0].any()


def test_sigma_of_counts_near_1e110_is_the_delta_method_value():
    # 4 A B / N^3 overflowed N^3 here, so sigma was 0.0 for noisy bases
    rng = np.random.default_rng(6)
    counts = 1e110 * rng.uniform(0.5, 1.5, (3, 3, 4))
    ds = CoincidenceDataset(generic_mode_set(3), 1.0, counts)
    sigma = build_report(table_from_dataset(ds), ds, 200, 1).sigma
    scaled = counts * 1e-110
    A, B = scaled[..., 0] + scaled[..., 3], scaled[..., 1] + scaled[..., 2]
    ref = np.sqrt((4 * A * B / (A + B) ** 3).sum() * 1e-110)
    assert sigma > 0 and abs(sigma / ref - 1) < 1e-12


def test_monte_carlo_mean_near_observed():
    ds = simulate_counts(example_state(), 1e6, seed=5)
    W_obs = witness_sum(table_from_dataset(ds))
    mean, sigma = monte_carlo_ci(ds, 200, seed=1)
    assert sigma > 0
    assert abs(mean - W_obs) < 5 * sigma


def test_monte_carlo_sigma_scales_with_flux():
    sig = {}
    for flux in (1e5, 1e7):
        ds = simulate_counts(example_state(), flux, seed=3)
        _, sig[flux] = monte_carlo_ci(ds, 150, seed=2)
    ratio = sig[1e5] / sig[1e7]
    assert 7.0 < ratio < 14.0  # ~10 for x100 flux


def test_monte_carlo_needs_resamples():
    ds = simulate_counts(example_state(), 1e5, seed=0)
    with pytest.raises(ConfigError):
        monte_carlo_ci(ds, 1, seed=0)


# --- per-mode contributions and subset search --------------------------------

def test_per_mode_maximally_entangled():
    out = per_mode_contribution(table_from_state(maximally_entangled(5)))
    assert np.allclose(out, 3.0)


def test_per_mode_of_one_mode_is_zero():
    assert per_mode_contribution(table_from_state(maximally_entangled(1))).tolist() == [0.0]


def test_per_mode_example_values():
    out = per_mode_contribution(table_from_state(example_state()))
    # the near-unentangled dominant mode contributes least
    assert np.argmin(out) == 0
    assert abs(out[3] - (1.08 + 1.56 + 3.0) / 3) < 0.005


def test_greedy_improves_certified_dimension_on_example():
    res = greedy_subset(table_from_state(example_state()))
    assert res.trajectory[0][:2] == (4, 2)
    assert res.best_d == 3
    assert sorted(res.best_subset) == [1, 2, 3]


def test_greedy_on_maximally_entangled_keeps_everything():
    res = greedy_subset(table_from_state(maximally_entangled(5)))
    assert res.best_d == 5
    assert res.best_subset == [0, 1, 2, 3, 4]
    # dropping modes can only lower d here
    for size, d, _ in res.trajectory:
        assert d == size


def test_report_builds_the_summed_visibility_matrix_once():
    table = random_table(6, np.random.default_rng(8))
    assert "S" not in vars(table)
    build_report(table)
    S = vars(table)["S"]
    assert table.S is S
    per_mode_contribution(table)
    greedy_subset(table)
    assert vars(table)["S"] is S
    k, l = np.triu_indices(6, 1)
    assert np.array_equal(S[k, l], [ref_sv(table, *kl) for kl in zip(k, l)])
    assert np.array_equal(S, S.T) and not S.diagonal().any()
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 1] = 0.0


@pytest.mark.parametrize("value", [2.0, 1.0000000000000002, -0.1, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 7, 27])
def test_table_refuses_a_visibility_outside_0_1(where, value):
    # an infinite V used to reach the greedy search, which refused its W
    V = np.random.default_rng(5).uniform(0.0, 1.0, (28, 3))
    V[where, 1] = value
    k, l = np.triu_indices(8, 1)
    with pytest.raises(IngestionError, match=re.escape(
            f"visibility table has V = {value!r} for pair ({k[where]}, {l[where]}), "
            f"basis y; visibilities must lie in [0, 1]")):
        VisibilityTable(generic_mode_set(8), V)


def test_table_below_the_cap_with_visibilities_above_1_is_refused():
    # W = 120 is below the cap bound(10, 10) = 135, so the report's cap check
    # let this table through, and it certified d = 9
    V = np.zeros((45, 3))
    V[:8] = 5.0
    assert V.sum() == 120 < bound(10, 10) and certified_dimension(120.0, 10) == 9
    with pytest.raises(IngestionError, match=r"^visibility table has V = 5\.0 for "
                                             r"pair \(0, 1\), basis x;"):
        VisibilityTable(generic_mode_set(10), V)


@pytest.mark.parametrize("D", [2, 5, 10])
def test_all_ones_table_certifies_D_at_the_cap(D):
    report = build_report(VisibilityTable(generic_mode_set(D),
                                          np.ones((D * (D - 1) // 2, 3))))
    assert report.W == bound(D, D)
    assert report.certified_d == D


@pytest.mark.parametrize("D", [0, 1])
def test_greedy_needs_two_modes(D):
    with pytest.raises(ConfigError, match="D >= 2"):
        greedy_subset(VisibilityTable(generic_mode_set(D), np.zeros((0, 3))))


def test_greedy_interior_maximum():
    # 20 modes with a steep spectral profile: the best subset is strictly
    # between the full set and the smallest one
    modes = enumerate_modes(2, 3)
    assert modes.D == 20
    st = correlated_pure(spdc_profile(modes, 0.15, 0.4), modes)
    res = greedy_subset(table_from_state(st))
    assert res.best_d == 7
    assert len(res.best_subset) == 16
    assert 2 < len(res.best_subset) < 20


def exhaustive_best_subset(table):
    """Exact best subset by full enumeration: the highest certified d,
    larger subsets winning ties."""
    D = table.mode_set.D
    best, best_d = list(range(D)), 1
    for size in range(2, D + 1):
        for subset in combinations(range(D), size):
            d = certified_dimension(witness_sum(table.subset(subset)), size)
            if d > best_d or (d == best_d and size > len(best)):
                best, best_d = list(subset), d
    return best, best_d


def test_exhaustive_agrees_with_greedy_on_example():
    table = table_from_state(example_state())
    subset, d = exhaustive_best_subset(table)
    assert d == greedy_subset(table).best_d == 3


# --- robustness --------------------------------------------------------------

def test_robustness_state_kind():
    st = example_state()
    res = robustness_study(st, "state", 50, 0.2, seed=0)
    assert abs(res.baseline - EXAMPLE_W) < 1e-9
    assert res.trials[0][0] == 0.0
    assert abs(res.trials[0][1] - res.baseline) < 1e-9
    assert res.fraction_non_increasing >= 0.9


def test_robustness_projector_kind():
    res = robustness_study(example_state(), "projector", 50, 0.2, seed=1)
    assert res.fraction_non_increasing >= 0.9


def test_robustness_projector_kind_takes_an_embedded_state():
    a = robustness_study(example_state(), "projector", 20, 0.2, seed=4)
    b = robustness_study(example_state().embed(), "projector", 20, 0.2, seed=4)
    assert a == b


def test_robustness_deterministic():
    a = robustness_study(example_state(), "both", 20, 0.2, seed=4)
    b = robustness_study(example_state(), "both", 20, 0.2, seed=4)
    assert a.trials == b.trials


def test_robustness_input_checks():
    with pytest.raises(ConfigError):
        robustness_study(example_state(), "detector", 10, 0.1, seed=0)
    with pytest.raises(ConfigError):
        robustness_study(example_state(), "state", 0, 0.1, seed=0)


@pytest.mark.parametrize("n_trials", [2.5, 3.0, "3", True, None])
def test_robustness_refuses_a_non_integer_trial_count(n_trials):
    with pytest.raises(ConfigError, match="whole number of trials"):
        robustness_study(example_state(), "both", n_trials, 0.1, seed=0)


def test_robustness_takes_a_numpy_integer_trial_count():
    res = robustness_study(example_state(), "both", np.int64(3), 0.1, seed=0)
    assert len(res.trials) == 3


@pytest.mark.parametrize("kind", ["state", "projector", "both"])
@pytest.mark.parametrize("strength_max", [-0.5, np.nan, np.inf])
def test_robustness_refuses_a_bad_strength_max(kind, strength_max):
    with pytest.raises(ConfigError, match="strength must be finite and >= 0"):
        robustness_study(example_state(), kind, 3, strength_max, seed=0)


@pytest.mark.parametrize("strength", [-0.2, np.nan, np.inf])
def test_perturbed_projectors_refuse_a_bad_strength(strength):
    # a negative strength used to give phase-only frames (W = 9.741) and a
    # non-finite one W = 0.0
    with pytest.raises(ConfigError, match="strength must be finite and >= 0"):
        witness_with_perturbed_projectors(example_state(), strength,
                                          np.random.default_rng(0))


@pytest.mark.parametrize("strength", [0.05, 0.2, 1.0])
@pytest.mark.parametrize("seed", [0, 7])
def test_perturbed_projectors_are_one_trial_of_the_sweep(strength, seed):
    # a two-trial sweep is trial 0 at strength 0, then trial 1 at the full
    # strength, both drawn in turn from the stream SeedSequence((seed, 3))
    for state in (example_state(), complex_state(8, 13)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        zero = witness_with_perturbed_projectors(state, 0.0, rng)
        one = witness_with_perturbed_projectors(state, strength, rng)
        sweep = robustness_study(state, "projector", 2, strength, seed)
        assert sweep.trials == [(0.0, zero), (strength, one)]


@pytest.mark.parametrize("strength", [1e155, 1e200])
def test_overflowing_frames_are_refused(strength):
    # the crosstalk 0.3 s of a frame column has a square above the largest
    # float64 from s ~ 4.5e154 on; the frames came out zero and scored W = 0
    state = correlated_pure([1, 1, 1], generic_mode_set(3))
    with pytest.raises(ConfigError, match="overflow"):
        witness_with_perturbed_projectors(state, strength, np.random.default_rng(0))
    for kind in ("projector", "both"):
        with pytest.raises(ConfigError, match="overflow"):
            robustness_study(state, kind, 3, strength, seed=1)


def test_frames_just_below_the_overflow_still_score():
    state = correlated_pure([1, 1, 1], generic_mode_set(3))
    W = witness_with_perturbed_projectors(state, 1e154, np.random.default_rng(0))
    assert 0.0 < W <= bound(3, 3)
    for kind in ("state", "projector", "both"):
        res = robustness_study(state, kind, 3, 1e154, seed=1)
        assert all(0.0 < w <= bound(3, 3) for _, w in res.trials)


# --- reports -----------------------------------------------------------------

def test_report_from_counts(tmp_path):
    ds = simulate_counts(example_state(), 1e6, seed=11)
    report = build_report(table_from_dataset(ds), dataset=ds,
                          n_resamples=30, seed=11)
    assert abs(report.W - EXAMPLE_W) < 0.05
    assert report.D == 4
    assert report.certified_d == 2
    assert report.sigma > 0
    assert report.n_resamples == 30
    assert report.bounds == [(d, bound(4, d)) for d in (1, 2, 3, 4)]
    path = tmp_path / "report.json"
    report.save(path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"W", "D", "sigma", "n_resamples", "certified_d",
                            "bounds", "per_mode", "subset_trajectory", "notes"}
    assert payload["subset_trajectory"][0] == [4, 2]
    assert payload["notes"] == ["sigma: closed form on 6 of 6 pairs, "
                                "30 resamples on 0"]


def test_table_refuses_visibilities_above_1():
    # a corrupted table claiming visibilities above 1 is refused when built,
    # so no report can be made from it
    D = 3
    with pytest.raises(IngestionError, match=r"^visibility table has V = 2\.0 for "
                                             r"pair \(0, 1\), basis x;"):
        VisibilityTable(generic_mode_set(D), np.full((D * (D - 1) // 2, 3), 2.0))


@pytest.mark.parametrize("n_resamples", [1, -4])
def test_report_rejects_bad_resample_count(n_resamples):
    ds = simulate_counts(example_state(), 1e6, seed=11)
    with pytest.raises(ConfigError, match="resamples"):
        build_report(table_from_dataset(ds), dataset=ds,
                     n_resamples=n_resamples, seed=11)


@pytest.mark.parametrize("n_resamples", [2.5, 3.0, "3", True, np.float64(3)])
def test_resample_counts_must_be_whole_numbers(n_resamples):
    ds = simulate_counts(example_state(), 1e6, seed=11)
    with pytest.raises(ConfigError, match="resamples"):
        monte_carlo_ci(ds, n_resamples, seed=1)
    with pytest.raises(ConfigError, match="resamples"):
        build_report(table_from_dataset(ds), dataset=ds,
                     n_resamples=n_resamples, seed=1)


def test_numpy_integer_resample_count_is_saved_as_an_integer(tmp_path):
    ds = simulate_counts(example_state(), 1e6, seed=11)
    report = build_report(table_from_dataset(ds), dataset=ds,
                          n_resamples=np.int64(5), seed=1)
    assert type(report.n_resamples) is int
    report.save(tmp_path / "report.json")
    assert '"n_resamples": 5,' in (tmp_path / "report.json").read_text()
    assert monte_carlo_ci(ds, np.int64(5), seed=1) == monte_carlo_ci(ds, 5, seed=1)


def test_report_resampling_requires_dataset_and_seed():
    table = table_from_state(example_state())
    with pytest.raises(ConfigError):
        build_report(table, n_resamples=10, seed=0)
    ds = simulate_counts(example_state(), 1e5, seed=2)
    with pytest.raises(ConfigError):
        build_report(table_from_dataset(ds), dataset=ds, n_resamples=10)


def report_table(name):
    if name == "readme":
        return table_from_dataset(simulate_counts(example_state(), 1e6, seed=7))
    if name == "paper-D30":  # the 30 lowest-order modes of the paper settings
        grid = enumerate_modes(11, 13)
        modes = ModeSet(tuple(sorted(grid.modes,
                                     key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))[:30]))
        st = correlated_pure(spdc_profile(modes, 8.0, 4.0), modes)
        return table_from_dataset(simulate_counts(st, 1e6, seed=7))
    if name == "tied":
        return tied_table("rounded")
    D, d = map(int, name.split("-")[-2:])
    return table_from_state(max_witness_state(D, d))


@pytest.mark.parametrize("name", ["readme", "paper-D30", "max-witness-4-2",
                                  "max-witness-7-1", "max-witness-7-7",
                                  "max-witness-12-5", "tied"])
def test_report_verdict_is_the_first_greedy_step(name):
    table = report_table(name)
    report = build_report(table)
    assert (report.D, report.certified_d, report.W) == report.subset_trajectory[0]
    W = witness_sum(table)
    assert report.W == W
    assert report.certified_d == certified_dimension(W, report.D)


# --- seeds -------------------------------------------------------------------

def _smooth_counts():
    """Counts whose pairs all take the closed form, so monte_carlo_ci and
    build_report draw nothing from the seed."""
    return simulate_counts(maximally_entangled(3), 1e6, expectation=True)


# every library entry point that draws from a seed
SEEDED_ENTRY_POINTS = {
    "simulate_counts": lambda seed: simulate_counts(maximally_entangled(3), 1e3,
                                                    seed=seed),
    "monte_carlo_ci": lambda seed: monte_carlo_ci(_smooth_counts(), 20, seed),
    "build_report": lambda seed: build_report(table_from_dataset(_smooth_counts()),
                                              dataset=_smooth_counts(),
                                              n_resamples=20, seed=seed),
    "robustness_study": lambda seed: robustness_study(maximally_entangled(2), "both",
                                                      2, 0.1, seed),
}


@pytest.mark.parametrize("seed", [None, True, 1.0, -1, np.int64(-1)],
                         ids=["None", "True", "1.0", "-1", "np-1"])
@pytest.mark.parametrize("entry", list(SEEDED_ENTRY_POINTS))
def test_seed_must_be_a_whole_number_of_at_least_0(entry, seed):
    # None, negative and float seeds ended in numpy's TypeError or ValueError,
    # True sampled as seed 1, and with every pair in closed form monte_carlo_ci
    # took None
    with pytest.raises(ConfigError, match="seed that is a whole number >= 0"):
        SEEDED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("seed", [0, 2 ** 63, np.uint64(2 ** 64 - 1), 2 ** 70])
def test_seeds_of_any_size_keep_their_streams(seed):
    state = maximally_entangled(3)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1)))
    assert np.array_equal(simulate_counts(state, 1e3, seed=seed).tensor,
                          rng.poisson(outcome_probabilities(state) * 1e3))


# --- ROADMAP item 1: states outside the correlated class ---------------------
# Each certifies d = 3 on every path below; item 1(a) asks that it end in a
# refusal, so the tests are strict xfails until then.

def pure_general(M):
    """|psi> = sum_ij M_ij |ij> / |M| as a full density matrix."""
    M = np.asarray(M, dtype=complex)
    psi = M.reshape(-1) / np.linalg.norm(M)
    return GeneralTwoPhotonState(np.outer(psi, psi.conj()), generic_mode_set(len(M)))


def hole_states():
    # hole 1: Schmidt rank 2, W = 9 > bound(3, 2) = 6
    yield "hole-1", pure_general(np.array([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
                                 / np.sqrt(6))
    # hole 2: Schmidt rank 3 (|0><0| plus a rank-2 antisymmetric block; the
    # singular values are 1, 1.7e-20 and 1.7e-20), so d = 3 is true, but the
    # verdict rests on three dust pairs of weight about 2e-40, each counted
    # in full: W = 12 > bound(4, 2) = 10.  No finite flux sees them: Poisson
    # counts at flux 1e6, seed 1, give W = 3.007 and d = 1
    M = np.zeros((4, 4))
    M[0, 0] = 1.0
    for k, l in [(1, 2), (1, 3), (2, 3)]:
        M[k, l], M[l, k] = 1e-20, -1e-20
    yield "hole-2", pure_general(M)


HOLES = dict(hole_states())


# the pairs that carry each hole's excess over its Schmidt rank
HOLE_PAIRS = {"hole-1": [(0, 1), (0, 2), (1, 2)], "hole-2": [(1, 2), (1, 3), (2, 3)]}


@pytest.mark.parametrize("path", ["state", "expectation-counts"])
@pytest.mark.parametrize("hole", list(HOLES))
def test_holes_are_anti_correlated_in_z_on_their_excess_pairs(hole, path):
    # the sign that V = |E| drops: E_z = -1, a z leakage of 1
    st = HOLES[hole]
    counts = (outcome_probabilities(st) if path == "state" else
              simulate_counts(st, 1e6, expectation=True).tensor)
    E, _ = basis_correlations(counts)
    rows = [pair_index(k, l, st.mode_set.D) for k, l in HOLE_PAIRS[hole]]
    assert (E[rows, BASES.index("z")] == -1.0).all()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("path", ["state", "expectation-counts"])
@pytest.mark.parametrize("hole", list(HOLES))
def test_state_outside_the_class_is_refused(hole, path):
    st = HOLES[hole]
    table = (table_from_state(st) if path == "state" else
             table_from_dataset(simulate_counts(st, 1e6, expectation=True)))
    with pytest.raises(IntegrityError):
        build_report(table)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", ["counts.json", "counts.csv"])
@pytest.mark.parametrize("hole", list(HOLES))
def test_state_outside_the_class_exits_5(tmp_path, hole, name):
    save_state(HOLES[hole], tmp_path / "state.json")
    counts = tmp_path / name
    main(["simulate", "--state-file", str(tmp_path / "state.json"),
          "--expectation", "--output", str(counts)])
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--input", str(counts),
              "--output", str(tmp_path / "report.json")])
    assert exc.value.code == 5


@pytest.mark.parametrize("t", [0.01, 0.1])
def test_schmidt_rank_2_family_certifies_3_below_the_leakage_line(t):
    """Documents the domain limit that ROADMAP item 1 states: this D = 4
    Schmidt-rank-2 family leaks only on pairs (0, 1) and (2, 3), below the
    refusal line L = 1/2, yet W exceeds bound(4, 2) = 10 and the W verdict
    is d = 3 on every path.  Item 2's certifier must bring it down to
    d <= 2."""
    M = np.zeros((4, 4))
    M[1, 1] = M[3, 3] = 1.0
    M[0, 0] = M[2, 2] = -t
    M[1, 0] = M[3, 2] = np.sqrt(t)
    M[0, 1] = M[2, 3] = -np.sqrt(t)
    st = pure_general(M)
    assert schmidt_rank(M) == 2
    table = table_from_state(st)
    assert witness_sum(table) == pytest.approx(10 + 8 * t / (1 + t ** 2), abs=1e-12)
    for k, l in [(0, 2), (1, 3)]:
        assert table.V[pair_index(k, l, 4)] == pytest.approx([1, 1, 1], abs=1e-12)
    z = outcome_probabilities(st)[:, BASES.index("z")]
    leak = (z[:, 1] + z[:, 2]) / z.sum(axis=1)
    for (k, l), L in zip(combinations(range(4), 2), leak.tolist()):
        if (k, l) in [(0, 1), (2, 3)]:
            assert L == pytest.approx(2 * t / (1 + t) ** 2, rel=1e-12) and L < 0.5
        else:
            assert L == 0
    for counted in (table,
                    table_from_dataset(simulate_counts(st, 1e6, expectation=True)),
                    table_from_dataset(simulate_counts(st, 1e6, seed=1))):
        assert build_report(counted).certified_d == 3


# --- reference loops ---------------------------------------------------------
# Per-pair loop versions of the array paths above; the array paths must give
# the same numbers.

def ref_sv(table, k, l):
    """Summed visibility of the pair (k, l), k < l, added left to right."""
    vx, vy, vz = table.V[pair_index(k, l, table.mode_set.D)].tolist()
    return vx + vy + vz


def ref_witness_sum(table, indices=None):
    idx = list(range(table.mode_set.D)) if indices is None else sorted(indices)
    total = 0.0
    for i, k in enumerate(idx):
        for l in idx[i + 1:]:
            total += ref_sv(table, k, l)
    return total


def ref_per_mode(table, indices=None):
    idx = list(range(table.mode_set.D)) if indices is None else sorted(indices)
    out = np.zeros(len(idx))
    for a, k in enumerate(idx):
        vals = [ref_sv(table, min(k, l), max(k, l)) for l in idx if l != k]
        out[a] = float(np.mean(vals)) if vals else 0.0
    return out


def step_subsets(order):
    """Each greedy step's subset from the removal order: step s keeps the
    modes that leave at step s or later, in index order."""
    order = list(map(int, order))
    return [sorted(order[s:]) for s in range(len(order) - 1)]


def ref_step_witness(table, order):
    """W of each step of a greedy trajectory by the greedy's rule.  Each
    pair's summed visibility goes, in pair order, into the bin of its last
    step (the last one that holds both its modes), and a step's W adds the
    bins from the last step back to it; the first step's W is the full
    set's, added in pair order."""
    D = table.mode_set.D
    last = {m: min(s, D - 2) for s, m in enumerate(order)}
    bins = [0.0] * (D - 1)
    for k in range(D):
        for l in range(k + 1, D):
            bins[min(last[k], last[l])] += ref_sv(table, k, l)
    Ws, total = [], 0.0
    for b in reversed(bins):
        total += b
        Ws.insert(0, total)
    Ws[0] = ref_witness_sum(table)
    return Ws


def ref_trajectory(table, order):
    """The greedy's result from its removal order: each step's (D', d, W)
    by :func:`ref_step_witness`, the order, and the best step's subset and
    d."""
    subsets = step_subsets(order)
    trajectory = [(len(sub), certified_dimension(W, len(sub)), W)
                  for sub, W in zip(subsets, ref_step_witness(table, order))]
    best_i = max(range(len(trajectory)),
                 key=lambda i: (trajectory[i][1], trajectory[i][0]))
    return trajectory, order, subsets[best_i], trajectory[best_i][1]


def ref_greedy(table):
    active = list(range(table.mode_set.D))
    order = []
    while len(active) > 2:
        order.append(active.pop(int(np.argmin(ref_per_mode(table, active)))))
    return ref_trajectory(table, order + active)


def greedy_result(res):
    """The greedy's result as the reference paths give it."""
    return res.trajectory, res.order.tolist(), res.best_subset, res.best_d


def assert_step_witness_near_subset_sums(table, res):
    """Each step's W is a sum of the n_s summed visibilities of its subset's
    pairs in another order than witness_sum's.  Each of the two sums is
    within (n_s - 1) u sum|x| of the exact one, u = eps / 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2),
    so they are within (n_s - 1) eps W_s of each other (the V are >= 0)."""
    assert (table.V >= 0).all()
    for (size, _, W), sub in zip(res.trajectory, step_subsets(res.order)):
        n = size * (size - 1) // 2
        W_sub = witness_sum(table.subset(sub))
        assert abs(W - W_sub) <= (n - 1) * np.finfo(float).eps * W_sub, size


def ref_estimate(dataset, k, l):
    vals = {}
    for b in BASES:
        c = np.array([dataset.counts[(k, l, b, oc)] for oc in OUTCOMES], dtype=float)
        tot = c.sum()
        vals[b] = abs(c[0] + c[3] - c[1] - c[2]) / tot if tot > 0 else 0.0
    z_tot = np.array([dataset.counts[(k, l, "z", oc)] for oc in OUTCOMES],
                     dtype=float).sum()
    if z_tot == 0:
        return [0.0, 0.0, 0.0]
    return [vals["x"], vals["y"], vals["z"]]


def ref_perturbed_projectors(state, strength, rng):
    D = state.mode_set.D
    frames = []
    for _ in range(2):  # one photon's frame at a time
        normals = rng.standard_normal(D)
        G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        frames.append(_frames(np.array([strength]), normals[None, None],
                              G[None, None])[0, 0])

    def prob(va, vb):
        if isinstance(state, CorrelatedState):
            w = va * vb     # <mm|va (x) vb>
            return max(float((w.conj() @ state.coeffs @ w).real), 0.0)
        vec = np.kron(va, vb)
        return max(float((vec.conj() @ state.rho @ vec).real), 0.0)

    total = 0.0
    for k in range(D):
        for l in range(k + 1, D):
            svs, z_tot = [], None
            for basis in BASES:
                vecs = {}
                for photon in (0, 1):
                    vk, vl = frames[photon][:, k], frames[photon][:, l]
                    if basis == "z":
                        plus, minus = vk, vl
                    elif basis == "x":
                        plus, minus = vk + vl, vk - vl
                    else:
                        plus, minus = vk + 1j * vl, vk - 1j * vl
                    vecs[photon] = [plus / np.linalg.norm(plus),
                                    minus / np.linalg.norm(minus)]
                p = np.array([prob(vecs[0][s], vecs[1][t])
                              for s in (0, 1) for t in (0, 1)])
                tot = p.sum()
                svs.append(abs(p[0] + p[3] - p[1] - p[2]) / tot if tot > 0 else 0.0)
                if basis == "z":
                    z_tot = tot
            if z_tot and z_tot > 0:
                total += sum(svs)
    return total


def random_table(D, rng):
    return VisibilityTable(generic_mode_set(D),
                           rng.uniform(0.0, 1.0, (D * (D - 1) // 2, 3)))


def interior_profile_table():
    modes = enumerate_modes(2, 3)
    return table_from_state(correlated_pure(spdc_profile(modes, 0.15, 0.4), modes))


@pytest.mark.parametrize("D", [3, 8, 30, "profile20"])
def test_array_sums_equal_reference_loops(D):
    rng = np.random.default_rng(31)
    table = interior_profile_table() if D == "profile20" else random_table(D, rng)
    D = table.mode_set.D
    assert witness_sum(table) == ref_witness_sum(table)
    assert np.array_equal(per_mode_contribution(table), ref_per_mode(table))
    for _ in range(5):
        sub = rng.choice(D, size=int(rng.integers(2, D + 1)), replace=False).tolist()
        assert witness_sum(table.subset(sub)) == ref_witness_sum(table, sub)
        assert np.array_equal(per_mode_contribution(table.subset(sub)),
                              ref_per_mode(table, sub))
    res = greedy_subset(table)
    assert greedy_result(res) == ref_greedy(table)
    assert_step_witness_near_subset_sums(table, res)


def tied_table(kind, D=12):
    """A table on which the greedy search meets tied row means."""
    shape = (D * (D - 1) // 2, 3)
    if kind == "maximal":
        ds = simulate_counts(maximally_entangled(D), 1e6, expectation=True)
        return table_from_dataset(ds)
    if kind == "rounded":  # V to one decimal; this draw ties at three steps
        V = np.round(np.random.default_rng(19).uniform(0.0, 1.0, shape), 1)
        return VisibilityTable(generic_mode_set(D), V)
    return VisibilityTable(generic_mode_set(D), np.full(shape, 0.5))


@pytest.mark.parametrize("kind", ["maximal", "rounded", "equal"])
def test_greedy_on_tied_tables_equals_reference_loop(kind):
    table = tied_table(kind)
    res = greedy_subset(table)
    assert greedy_result(res) == ref_greedy(table)
    assert_step_witness_near_subset_sums(table, res)
    means = [ref_per_mode(table, sub) for sub in step_subsets(res.order)[:-1]]
    assert any(np.count_nonzero(m == m.min()) > 1 for m in means)
    if kind == "equal":  # a tie drops the first of the tied modes
        assert step_subsets(res.order) == [list(range(i, 12)) for i in range(11)]


def previous_row_means(S):
    """Mean of each row's off-diagonal entries, each row added in its order
    (the previous greedy's ranking)."""
    n = len(S)
    off = S.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    return off.mean(axis=1)


def previous_greedy(table):
    """The previous greedy search: row means of the surviving modes' copy of
    the summed-visibility matrix at every step."""
    V = table.V
    D = table.mode_set.D
    S = np.zeros((D, D))
    S[np.triu_indices(D, 1)] = V[:, 0] + V[:, 1] + V[:, 2]
    S += S.T
    active, order = list(range(D)), []
    while len(active) > 2:
        sub = S[np.ix_(active, active)]
        order.append(active.pop(int(np.argmin(previous_row_means(sub)))))
    return ref_trajectory(table, order + active)


def test_greedy_breaks_a_rounded_tie_as_the_row_means_do():
    # simulate at the paper settings, seed 123: with 12 modes left every row
    # mean is exactly 3.0, but the running row sums differ in their last
    # digits, so taking their argmin would drop another mode than the first
    grid = enumerate_modes(11, 13)
    modes = ModeSet(tuple(sorted(grid.modes,
                                 key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))[:186]))
    st = correlated_pure(spdc_profile(modes, 8.0, 4.0), modes)
    table = table_from_dataset(simulate_counts(st, 1e6, seed=123))
    res = greedy_subset(table)
    assert greedy_result(res) == previous_greedy(table)
    assert_step_witness_near_subset_sums(table, res)
    assert res.best_d == 170
    S = np.zeros((186, 186))
    S[np.triu_indices(186, 1)] = table.V.sum(axis=1)
    S += S.T
    rs = S.sum(axis=1)
    subsets = step_subsets(res.order)
    for before, after in zip(subsets[:174], subsets[1:175]):
        (gone,) = set(before) - set(after)
        rs -= S[:, gone]
    tied = subsets[174]
    assert len(tied) == 12
    assert previous_row_means(S[np.ix_(tied, tied)]).tolist() == [3.0] * 12
    assert len(set(rs[tied].tolist())) > 1
    assert subsets[175] == tied[1:]


def test_greedy_equals_the_previous_search_at_D300():
    table = random_table(300, np.random.default_rng(300))
    res = greedy_subset(table)
    assert greedy_result(res) == previous_greedy(table)
    assert [len(sub) for sub in step_subsets(res.order)] == list(range(300, 1, -1))


def test_greedy_memory_stays_near_the_summed_visibilities():
    # with a list of surviving modes per step the peak was 4.0 times S's
    # bytes at D = 1000; the removal order leaves the pair arrays of the
    # binned W sums (2.0 times)
    table = random_table(1000, np.random.default_rng(1000))
    table.S     # built first, with the pair indices it caches
    out = {}
    peak = traced_peak(lambda: out.update(res=greedy_subset(table)))
    assert peak <= 2.5 * table.S.nbytes, peak / table.S.nbytes
    assert sorted(out["res"].order.tolist()) == list(range(1000))


@pytest.mark.parametrize("sub", [[5, 1, 6, 2], [0, 7], list(range(8)), [3]])
def test_subset_selects_rows(sub):
    table = random_table(8, np.random.default_rng(41))
    part = table.subset(sub)
    idx = sorted(sub)
    assert part.mode_set == table.mode_set.subset(idx)
    assert np.array_equal(part.V, np.reshape([
        table.V[pair_index(k, l, 8)] for i, k in enumerate(idx) for l in idx[i + 1:]],
        (-1, 3)))
    assert witness_sum(part) == ref_witness_sum(table, sub)  # 0.0 for one mode
    assert np.array_equal(per_mode_contribution(part), ref_per_mode(table, sub))


@pytest.mark.parametrize("indices", [[0, 0, 1], [-1, 2], [1, 4]])
def test_subset_indices_checked(indices):
    table = table_from_state(example_state())
    with pytest.raises(ConfigError):
        witness_sum(table.subset(indices))
    with pytest.raises(ConfigError):
        per_mode_contribution(table.subset(indices))
    with pytest.raises(ConfigError):
        table.subset(indices)


@pytest.mark.parametrize("expectation", [False, True])
def test_table_from_dataset_equals_per_pair_estimates(expectation):
    # modes 1 and 2 are empty, so pair (1, 2) has no z counts at all
    st = correlated_pure([0.7, 0.0, 0.0, 0.5, 0.2], generic_mode_set(5))
    ds = simulate_counts(st, 1e5, seed=None if expectation else 8,
                         expectation=expectation)
    # a basis with no counts in a live subspace
    tensor = ds.tensor.copy()
    tensor[pair_index(0, 3, 5), BASES.index("x")] = 0
    ds = with_tensor(ds, tensor)
    want = np.array([ref_estimate(ds, k, l) for k in range(5) for l in range(k + 1, 5)])
    assert want[pair_index(1, 2, 5)].tolist() == [0.0, 0.0, 0.0]
    assert want[pair_index(0, 3, 5), 0] == 0.0 and want[pair_index(0, 3, 5), 2] > 0
    assert np.array_equal(table_from_dataset(ds).V, want)


def perturbed_projector_inputs():
    """The example state, random complex correlated states at D = 2..8, and
    a perturbed version of each."""
    rng = np.random.default_rng(3)
    states = [example_state()]
    for D in range(2, 9):
        states.append(correlated_pure(rng.standard_normal(D)
                                      + 1j * rng.standard_normal(D),
                                      generic_mode_set(D)))
    return states + [perturb_state(st, 0.1, rng) for st in states]


@pytest.mark.parametrize("strength", [0.0, 0.1, 0.2])
def test_perturbed_projectors_equal_reference_loop(strength):
    for state in perturbed_projector_inputs():
        got = witness_with_perturbed_projectors(state, strength,
                                                np.random.default_rng(5))
        want = ref_perturbed_projectors(state, strength, np.random.default_rng(5))
        assert abs(got - want) < 1e-12
        if strength == 0.0:
            assert abs(got - brute_force_sv_witness(state)) < 1e-12


def test_perturbed_projectors_correlated_matches_embedding():
    # complex amplitudes: the correlated fast path must see the same state
    # as its explicit embedding
    st = correlated_pure([1.0, 1j, 0.5, 0.3 - 0.2j], generic_mode_set(4))
    for strength in (0.0, 0.1):
        a = witness_with_perturbed_projectors(st, strength, np.random.default_rng(1))
        b = witness_with_perturbed_projectors(st.embed(), strength,
                                              np.random.default_rng(1))
        assert abs(a - b) < 1e-12


# --- robustness reference ----------------------------------------------------
# The per-trial robustness loop, with the per-state perturbation and frame
# arithmetic it ran on each trial.  robustness_study scores the same draws as
# stacks and must give the same bytes.

def ref_perturb_state(state, strength, rng):
    base = state.embed()
    D = state.D
    cross = np.asarray([i * D + j for i in range(D) for j in range(D) if i != j])
    m = cross.size
    G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if strength == 0.0:
        return base
    H = (G + G.conj().T) / 2.0
    H /= np.linalg.norm(H)
    rho = base.rho.copy()
    rho[np.ix_(cross, cross)] += strength * H
    w, V = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    rho = (V * w) @ V.conj().T
    rho /= np.trace(rho).real
    return GeneralTwoPhotonState(rho, state.mode_set)


def ref_frame(D, strength, rng):
    theta = strength * rng.standard_normal(D)
    F = np.diag(np.exp(1j * theta)).astype(complex)
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    if strength > 0.0:
        G /= np.linalg.norm(G, axis=0)
        F = F + _LEAK_FRACTION * strength * G
    return F / np.linalg.norm(F, axis=0)


def ref_projector_witness(state, strength, rng):
    state = state.embed() if isinstance(state, CorrelatedState) else state
    D = state.D
    frames = np.stack([ref_frame(D, strength, rng) for _ in range(2)])
    K = np.kron(frames[0], frames[1])
    seen = GeneralTwoPhotonState(K.conj().T @ state.rho @ K, state.mode_set)
    kl = np.transpose(np.triu_indices(D, 1))
    gram = frames.conj().swapaxes(1, 2) @ frames
    norms = np.einsum("bsi,fpij,bsj->fpbs", _EIGVECS.conj(),
                      gram[:, kl[:, :, None], kl[:, None, :]], _EIGVECS).real
    probs = outcome_probabilities(seen) / (
        norms[0][..., :, None] * norms[1][..., None, :]).reshape(-1, len(BASES), 4)
    V = ref_visibilities(probs)
    return np.cumsum(V[:, 0] + V[:, 1] + V[:, 2])[-1]


def ref_trial(kind, state, strength, rng):
    if kind == "state":
        return brute_force_sv_witness(ref_perturb_state(state, strength, rng))
    if kind == "projector":
        return ref_projector_witness(state, strength, rng)
    return ref_projector_witness(ref_perturb_state(state, strength, rng),
                                 strength, rng)


def ref_robustness_study(state, kind, n_trials, strength_max, seed):
    """(baseline, trials, fraction_non_increasing), one trial at a time."""
    baseline = brute_force_sv_witness(state)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    trials = []
    for s in np.linspace(0.0, strength_max, n_trials):
        trials.append((float(s), float(ref_trial(kind, state, float(s), rng))))
    frac = float(np.mean([w <= baseline + 1e-9 for _, w in trials]))
    return baseline, trials, frac


ROBUSTNESS_STATES = {2: lambda: complex_state(2, 61), 4: example_state,
                     8: lambda: complex_state(8, 62)}
KINDS = ["state", "projector", "both"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("D", sorted(ROBUSTNESS_STATES))
def test_robustness_equals_reference_loop(kind, D):
    state = ROBUSTNESS_STATES[D]()
    chunk = max(1, _CHUNK_BYTES // (16 * D**4))   # trials per stack
    for n_trials in sorted({1, chunk, chunk + 1}):
        res = robustness_study(state, kind, n_trials, 0.3, seed=D)
        baseline, trials, frac = ref_robustness_study(state, kind, n_trials, 0.3,
                                                      seed=D)
        assert res.baseline == baseline
        assert res.trials == trials
        assert res.fraction_non_increasing == frac


def test_readme_robustness_command_equals_reference_loop(tmp_path):
    # the README sweep through the CLI: 1000 trials, 63 stacks of 16 at D = 4
    out = tmp_path / "r.json"
    main(["robustness", "--amplitudes", "0.5,0.07,0.01,0.01", "--kind", "both",
          "--trials", "1000", "--strength-max", "0.2", "--seed", "7",
          "--output", str(out)])
    got = json.loads(out.read_text())
    baseline, trials, frac = ref_robustness_study(example_state(), "both", 1000,
                                                  0.2, seed=7)
    assert got["baseline"] == baseline
    assert got["trials"] == [list(t) for t in trials]
    assert got["fraction_non_increasing"] == frac


@pytest.mark.parametrize("D", [2, 4, 8])
@pytest.mark.parametrize("general", [False, True])
def test_perturb_state_equals_reference(D, general):
    state = complex_state(D, 70 + D)
    if general:
        state = ref_perturb_state(state, 0.2, np.random.default_rng(D))
    for strength in (0.0, 0.05, 0.3):
        rng, ref = np.random.default_rng([D, 9]), np.random.default_rng([D, 9])
        got = perturb_state(state, strength, rng).rho
        want = ref_perturb_state(state, strength, ref).rho
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("D", sorted(ROBUSTNESS_STATES))
def test_robustness_at_zero_strength_is_the_baseline(kind, D):
    state = ROBUSTNESS_STATES[D]()
    res = robustness_study(state, kind, 5, 0.0, seed=3)
    assert (res.baseline, res.trials, res.fraction_non_increasing) == \
        ref_robustness_study(state, kind, 5, 0.0, seed=3)
    assert all(s == 0.0 for s, _ in res.trials)
    # the frames measure W through the outcome probabilities, the baseline
    # through the oracle's traces: the same number up to rounding
    tol = 0.0 if kind == "state" else 1e-12
    assert all(abs(w - res.baseline) <= tol for _, w in res.trials)
    assert res.fraction_non_increasing == 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_robustness_draws_leave_each_stream_where_the_loop_left_it(kind, monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def recording_rng(*args, **kwargs):
        built.append(default_rng(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    robustness_study(example_state(), kind, 17, 0.2, seed=8)
    monkeypatch.undo()
    assert len(built) == 1
    ref = np.random.default_rng(np.random.SeedSequence((8, 3)))
    for s in np.linspace(0.0, 0.2, 17):
        ref_trial(kind, example_state(), float(s), ref)
    assert built[0].bit_generator.state == ref.bit_generator.state
