import json

import numpy as np
import pytest

from dimwitness import (ConfigError, IngestionError, IntegrityError,
                        VisibilityTable, bound, build_report,
                        certified_dimension, correlated_pure, enumerate_modes,
                        exhaustive_best_subset, f_bound, generic_mode_set,
                        greedy_subset, max_witness_state, maximally_entangled,
                        monte_carlo_ci, per_mode_contribution, robustness_study,
                        simulate_counts, spdc_profile, table_from_dataset,
                        table_from_state, witness_correlated, witness_sum)
from dimwitness.measurement import BASES, OUTCOMES, pair_index
from dimwitness.modes import ModeIndex, ModeSet
from dimwitness.oracle import brute_force_sv_witness
from dimwitness.states import CorrelatedState, perturb_state
from dimwitness.witness import (_perturbed_frame,
                                witness_with_perturbed_projectors)

EXAMPLE_AMPS = np.array([0.5, 0.07, 0.01, 0.01])
EXAMPLE_MODES = ModeSet((ModeIndex(0, 0), ModeIndex(1, -1),
                         ModeIndex(2, -2), ModeIndex(3, -3)))
EXAMPLE_W = 9.829171019705104  # frozen; cross-checked by the oracle tests


def example_state():
    return correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)


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
    assert certified_dimension(0.0, 4) == 1


def test_certified_dimension_monotone_in_W():
    for D in (4, 10):
        prev = 1
        for W in np.linspace(0, 1.5 * D * (D - 1), 60):
            d = certified_dimension(float(W), D)
            assert d >= prev
            prev = d


def test_certified_dimension_input_checks():
    with pytest.raises(ConfigError):
        certified_dimension(np.nan, 4)
    with pytest.raises(ConfigError):
        certified_dimension(3.0, 1)


def test_f_bound_values():
    assert f_bound(4, 2) == 5
    assert f_bound(2, 2) == 3
    with pytest.raises(ConfigError):
        f_bound(3, 4)


# --- witness sums ------------------------------------------------------------

def test_example_witness_value():
    table = table_from_state(example_state())
    assert abs(witness_sum(table) - EXAMPLE_W) < 1e-9


def test_example_restricted_witness():
    table = table_from_state(example_state())
    W = witness_sum(table, [1, 2, 3])
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
    broken = VisibilityTable(table.mode_set, V)
    with pytest.raises(IngestionError, match=r"\(1, 3\)"):
        witness_sum(broken)


# --- confidence intervals ----------------------------------------------------

def test_monte_carlo_deterministic():
    ds = simulate_counts(example_state(), 1e6, seed=5)
    a = monte_carlo_ci(ds, 40, seed=7)
    b = monte_carlo_ci(ds, 40, seed=7)
    assert a == b
    c = monte_carlo_ci(ds, 40, seed=8)
    assert a != c


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


def test_exhaustive_agrees_with_greedy_on_example():
    table = table_from_state(example_state())
    subset, d = exhaustive_best_subset(table)
    assert d == greedy_subset(table).best_d == 3


def test_exhaustive_cap():
    with pytest.raises(ConfigError):
        exhaustive_best_subset(table_from_state(maximally_entangled(6)), max_D=5)


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


def test_robustness_deterministic():
    a = robustness_study(example_state(), "both", 20, 0.2, seed=4)
    b = robustness_study(example_state(), "both", 20, 0.2, seed=4)
    assert a.trials == b.trials


def test_robustness_input_checks():
    with pytest.raises(ConfigError):
        robustness_study(example_state(), "detector", 10, 0.1, seed=0)
    with pytest.raises(ConfigError):
        robustness_study(example_state(), "state", 0, 0.1, seed=0)


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


def test_report_integrity_check():
    # a corrupted table claiming visibilities above 1 must be refused
    D = 3
    table = VisibilityTable(generic_mode_set(D), np.full((D * (D - 1) // 2, 3), 2.0))
    with pytest.raises(IntegrityError):
        build_report(table, with_subsets=False)


def test_report_resampling_requires_dataset_and_seed():
    table = table_from_state(example_state())
    with pytest.raises(ConfigError):
        build_report(table, n_resamples=10, seed=0)
    ds = simulate_counts(example_state(), 1e5, seed=2)
    with pytest.raises(ConfigError):
        build_report(table_from_dataset(ds), dataset=ds, n_resamples=10)


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


def ref_greedy(table):
    active = list(range(table.mode_set.D))
    trajectory, subsets = [], []
    while len(active) >= 2:
        W = ref_witness_sum(table, active)
        trajectory.append((len(active), certified_dimension(W, len(active)), W))
        subsets.append(list(active))
        if len(active) == 2:
            break
        active.pop(int(np.argmin(ref_per_mode(table, active))))
    best_i = max(range(len(trajectory)),
                 key=lambda i: (trajectory[i][1], trajectory[i][0]))
    return trajectory, subsets, subsets[best_i], trajectory[best_i][1]


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


def ref_perturbed_projectors(state, strength, rng, leak_fraction=0.3):
    D = state.mode_set.D
    frames = [_perturbed_frame(D, strength, leak_fraction, rng) for _ in range(2)]

    def prob(va, vb):
        if isinstance(state, CorrelatedState):
            w = np.conj(va) * np.conj(vb)
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
        assert witness_sum(table, sub) == ref_witness_sum(table, sub)
        assert np.array_equal(per_mode_contribution(table, sub),
                              ref_per_mode(table, sub))
    res = greedy_subset(table)
    assert (res.trajectory, res.subsets, res.best_subset, res.best_d) == \
        ref_greedy(table)


@pytest.mark.parametrize("sub", [[5, 1, 6, 2], [0, 7], list(range(8))])
def test_subset_selects_rows(sub):
    table = random_table(8, np.random.default_rng(41))
    part = table.subset(sub)
    idx = sorted(sub)
    assert part.mode_set == table.mode_set.subset(idx)
    assert np.array_equal(part.V, [table.V[pair_index(k, l, 8)]
                                   for i, k in enumerate(idx) for l in idx[i + 1:]])
    assert witness_sum(part) == ref_witness_sum(table, sub)
    assert np.array_equal(per_mode_contribution(part), ref_per_mode(table, sub))


@pytest.mark.parametrize("indices", [[0, 0, 1], [-1, 2], [1, 4]])
def test_subset_indices_checked(indices):
    table = table_from_state(example_state())
    with pytest.raises(ConfigError):
        witness_sum(table, indices)
    with pytest.raises(ConfigError):
        per_mode_contribution(table, indices)
    with pytest.raises(ConfigError):
        table.subset(indices)


@pytest.mark.parametrize("expectation", [False, True])
def test_table_from_dataset_equals_per_pair_estimates(expectation):
    # modes 1 and 2 are empty, so pair (1, 2) has no z counts at all
    st = correlated_pure([0.7, 0.0, 0.0, 0.5, 0.2], generic_mode_set(5))
    ds = simulate_counts(st, 1e5, seed=None if expectation else 8,
                         expectation=expectation)
    # a basis with no counts in a live subspace
    ds.tensor[pair_index(0, 3, 5), BASES.index("x")] = 0
    want = np.array([ref_estimate(ds, k, l) for k in range(5) for l in range(k + 1, 5)])
    assert want[pair_index(1, 2, 5)].tolist() == [0.0, 0.0, 0.0]
    assert want[pair_index(0, 3, 5), 0] == 0.0 and want[pair_index(0, 3, 5), 2] > 0
    assert np.array_equal(table_from_dataset(ds).V, want)


@pytest.mark.parametrize("strength", [0.0, 0.1])
def test_perturbed_projectors_equal_reference_loop(strength):
    base = example_state()
    for state in (base, perturb_state(base, 0.1, np.random.default_rng(3))):
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
