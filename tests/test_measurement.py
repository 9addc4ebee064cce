import csv
import json
import re
import warnings
from itertools import islice, permutations, zip_longest
from operator import itemgetter

import numpy as np
import pytest

from dimwitness import measurement
from dimwitness import (ConfigError, IngestionError, brute_force_witness,
                        correlated_pure, generic_mode_set,
                        read_counts_csv, read_counts_json, simulate_counts,
                        table_from_dataset, table_from_state, write_counts_csv,
                        write_counts_json)
from dimwitness.measurement import (_EIGVECS, _U, BASES, CSV_HEADER, OUTCOMES,
                                    CoincidenceDataset, _count_str,
                                    outcome_probabilities, pair_index, pairs)
from dimwitness.modes import ModeIndex, ModeSet, enumerate_modes
from dimwitness.oracle import _DOUBLE, _PAULI2
from dimwitness.states import (CorrelatedState, GeneralTwoPhotonState,
                               max_witness_state, perturb_state)
from helpers import EXAMPLE_AMPS, EXAMPLE_MODES, example_state, f_total, traced_peak


def bell():
    return correlated_pure([1, 1], generic_mode_set(2))


def state_V(state, k, l):
    """(V_x, V_y, V_z) of the pair (k, l) from table_from_state."""
    return table_from_state(state).V[pair_index(k, l, state.mode_set.D)]


def dataset_V(dataset, k, l):
    """(V_x, V_y, V_z) of the pair (k, l) from table_from_dataset."""
    return table_from_dataset(dataset).V[pair_index(k, l, dataset.mode_set.D)]


def probabilities(state, k, l, basis):
    """The four outcome probabilities of one setting."""
    return outcome_probabilities(state)[pair_index(k, l, state.mode_set.D),
                                        BASES.index(basis)]


def weight(state, k, l):
    """Subspace weight N_kl: the summed z-basis outcome probabilities."""
    return probabilities(state, k, l, "z").sum()


def pair_state(state, k, l):
    """The (k, l) subspace block as an (unnormalized) two-mode state:
    |kk>, |kl>, |lk>, |ll> become |00>, |01>, |10>, |11>.  The oracle's g of
    its one pair is the subspace g of the pair, and its f_total is f_kl."""
    return GeneralTwoPhotonState(ref_block(state, k, l), generic_mode_set(2))


# --- subspace Pauli operators -----------------------------------------------
# the two-level operators act on the {|k>, |l>} sub-basis: |k> = (1, 0), |l> = (0, 1)

def test_pauli_z_action():
    ek, el = np.eye(2)
    assert np.allclose(_PAULI2["z"] @ ek, ek)
    assert np.allclose(_PAULI2["z"] @ el, -el)


def test_pauli_x_flips():
    ek, el = np.eye(2)
    assert np.allclose(_PAULI2["x"] @ ek, el)
    assert np.allclose(_PAULI2["x"] @ el, ek)


def test_pauli_x_eigenvectors():
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(_EIGVECS[BASES.index("x")], [plus, minus])
    assert np.allclose(_PAULI2["x"] @ plus, plus)
    assert np.allclose(_PAULI2["x"] @ minus, -minus)


@pytest.mark.parametrize("axis", BASES)
def test_pauli_algebra(axis):
    # the two-level operators of the oracle and the outcome vectors of measurement
    # follow one convention: (+, -) of each basis are its +1 and -1 eigenvectors
    op = _PAULI2[axis]
    assert np.allclose(op, op.conj().T)
    assert np.isclose(np.trace(op), 0.0)
    assert np.allclose(op @ op, np.eye(2))
    plus, minus = _EIGVECS[BASES.index(axis)]
    assert np.allclose(op @ plus, plus)
    assert np.allclose(op @ minus, -minus)
    assert np.isclose(np.vdot(plus, minus), 0.0)


# --- subspace weights and functionals ---------------------------------------

def test_subspace_density_full_support():
    st = bell()
    assert np.isclose(weight(st, 0, 1), 1.0)
    assert np.isclose(np.trace(ref_block(st, 0, 1)).real, 1.0)


def test_subspace_weight_is_population_sum():
    st = example_state()
    lam2 = EXAMPLE_AMPS**2 / np.sum(EXAMPLE_AMPS**2)
    for (k, l) in [(0, 1), (0, 3), (2, 3)]:
        assert np.isclose(weight(st, k, l), lam2[k] + lam2[l])


def test_four_mode_pair01_weight():
    assert np.isclose(weight(example_state(), 0, 1), (0.25 + 0.0049) / 0.2551)


def test_zero_weight_subspace_convention():
    st = correlated_pure([1, 0, 0], generic_mode_set(3))
    assert np.allclose(outcome_probabilities(st)[pair_index(1, 2, 3)], 0.0)
    assert np.allclose(ref_block(st, 1, 2), 0.0)
    assert brute_force_witness(pair_state(st, 1, 2)) == 0.0
    assert state_V(st, 1, 2).sum() == 0.0


def test_bell_visibilities():
    assert np.allclose(state_V(bell(), 0, 1), [1.0, 1.0, 1.0])


def test_product_state_visibilities():
    st = correlated_pure([1, 0], generic_mode_set(2))
    assert np.allclose(state_V(st, 0, 1), [0.0, 0.0, 1.0])


def test_four_mode_example_sv_values():
    # per-subspace summed visibilities of the worked example
    st = example_state()
    want = {(0, 1): 1.55, (0, 2): 1.08, (0, 3): 1.08,
            (1, 2): 1.56, (1, 3): 1.56, (2, 3): 3.0}
    for (k, l), sv in want.items():
        assert abs(state_V(st, k, l).sum() - sv) < 0.005


def test_g_bell():
    assert np.isclose(brute_force_witness(pair_state(bell(), 0, 1)), 3.0)


def test_g_closed_form_for_pure_states():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lam = np.abs(rng.standard_normal(4)) + 1e-3
        st = correlated_pure(lam, generic_mode_set(4))
        lam = lam / np.linalg.norm(lam)
        for (k, l) in [(0, 1), (1, 3)]:
            want = 4 * lam[k] * lam[l] / (lam[k]**2 + lam[l]**2) + 1
            assert np.isclose(brute_force_witness(pair_state(st, k, l)), want)


def test_g_equals_visibility_sum_for_nonnegative_amplitudes():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = np.abs(rng.standard_normal(5)) + 1e-6
        st = correlated_pure(lam, generic_mode_set(5))
        for (k, l) in [(0, 1), (2, 4), (1, 3)]:
            assert np.isclose(brute_force_witness(pair_state(st, k, l)),
                              state_V(st, k, l).sum())


def test_f_bell():
    assert np.isclose(f_total(pair_state(bell(), 0, 1)), 3.0)


def test_f_embedded_bell_in_larger_space():
    for D in (4, 6):
        for d in (2, 3):
            amps = np.zeros(D)
            amps[:d] = 1.0
            st = correlated_pure(amps, generic_mode_set(D))
            assert np.isclose(f_total(pair_state(st, 0, 1)), 6.0 / d)


def test_g_f_consistency():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        st = correlated_pure(v, generic_mode_set(4))
        for (k, l) in [(0, 1), (1, 2), (2, 3)]:
            pair, N = pair_state(st, k, l), weight(st, k, l)
            if N > 0:
                assert abs(brute_force_witness(pair) - f_total(pair) / N) < 1e-9


def test_denominator_monotonicity():
    # moving population into the cross terms never increases g
    st = example_state()
    base = st.embed()
    g0 = brute_force_witness(pair_state(base, 0, 1))
    rho = base.rho.copy()
    cross = 0 * 4 + 1  # |01> population
    eps = 0.01
    rho = (1 - eps) * rho
    rho[cross, cross] += eps
    bumped = GeneralTwoPhotonState(rho, st.mode_set)
    assert brute_force_witness(pair_state(bumped, 0, 1)) < g0


# --- projectors and probabilities -------------------------------------------

def test_projector_z_outcomes():
    st = correlated_pure([1, 0, 0], generic_mode_set(3))
    p = probabilities(st, 0, 1, "z")
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0])


def test_projector_x_bell():
    p = probabilities(bell(), 0, 1, "x")
    assert np.allclose(p, [0.5, 0.0, 0.0, 0.5])


def test_projector_y_correlated_closed_form():
    lam = np.array([0.8, 0.6])
    st = correlated_pure(lam, generic_mode_set(2))
    p = probabilities(st, 0, 1, "y")
    want_pp = (lam[0]**2 + lam[1]**2 - 2 * lam[0] * lam[1]) / 4
    assert np.isclose(p[0], want_pp)


def test_projector_probabilities_sum_to_subspace_weight():
    st = example_state()
    for basis in BASES:
        p = probabilities(st, 1, 2, basis)
        assert np.isclose(p.sum(), np.trace(ref_block(st, 1, 2)).real)


# --- count simulation and estimation ----------------------------------------

def test_expectation_mode_counts_are_exact():
    st = bell()
    ds = simulate_counts(st, 1e4, expectation=True)
    p = probabilities(st, 0, 1, "x")
    got = ds.tensor[pair_index(0, 1, 2), BASES.index("x")]
    assert np.allclose(got, 1e4 * p)


def test_simulation_requires_seed():
    with pytest.raises(ConfigError):
        simulate_counts(bell(), 1e4)


def test_simulation_deterministic():
    st = example_state()
    a = simulate_counts(st, 1e5, seed=42)
    b = simulate_counts(st, 1e5, seed=42)
    assert a.counts == b.counts
    c = simulate_counts(st, 1e5, seed=43)
    assert a.counts != c.counts


def test_bell_x_visibility_within_poisson_error():
    ds = simulate_counts(bell(), 1e6, seed=9)
    vx = dataset_V(ds, 0, 1)[0]
    # V_x = 1 with ~1/sqrt(flux) statistical scatter
    assert abs(vx - 1.0) < 3.0 / np.sqrt(1e6)


def test_share_populations_mode():
    st = example_state()
    ds = simulate_counts(st, 1e5, seed=2, share_populations=True)
    # the |kk> count of mode 1 must agree between pairs (0,1) and (1,2)
    assert ds.counts[(0, 1, "z", "mm")] == ds.counts[(1, 2, "z", "pp")]


def test_estimate_round_trip_expectation():
    st = example_state()
    ds = simulate_counts(st, 1e6, expectation=True)
    for (k, l) in [(0, 1), (1, 3), (2, 3)]:
        exact = ref_visibilities(st, k, l)
        est = dataset_V(ds, k, l)
        assert abs(est[0] - exact[0]) < 1e-9
        assert abs(est[1] - exact[1]) < 1e-9
        assert abs(est[2] - exact[2]) < 1e-9
        # the z counts of the pair hold its subspace weight
        N = np.trace(ref_block(st, k, l)).real
        z = ds.tensor[pair_index(k, l, 4), BASES.index("z")]
        assert abs(z.sum() / ds.flux - N) < 1e-9


def test_equal_counts_give_zero_visibility():
    ds = CoincidenceDataset(generic_mode_set(2), 400.0, np.full((1, 3, 4), 100.0))
    vx, vy, vz = dataset_V(ds, 0, 1)
    assert vx == vy == vz == 0.0


def test_missing_count_named_in_error():
    ds = simulate_counts(bell(), 1e4, seed=1)
    tensor = ds.tensor.copy()
    tensor[pair_index(0, 1, 2), BASES.index("y"), OUTCOMES.index("mp")] = np.nan
    with pytest.raises(IngestionError, match="basis y, outcome mp"):
        CoincidenceDataset(ds.mode_set, ds.flux, tensor)


def test_count_tensor_is_read_only():
    # a dataset's counts were checked complete when it was built, so no
    # caller may write a NaN into them afterwards
    ds = simulate_counts(bell(), 1e4, seed=1)
    with pytest.raises(ValueError, match="read-only"):
        ds.tensor[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        ds.tensor.reshape(-1)[0] = 1.0
    assert not np.isnan(ds.tensor).any()


def test_poisson_error_scaling():
    st = example_state()
    rms = {}
    for flux in (1e4, 1e6):
        errs = []
        for seed in range(8):
            ds = simulate_counts(st, flux, seed=seed)
            for (k, l) in [(0, 1), (1, 2)]:
                exact = ref_visibilities(st, k, l)
                est = dataset_V(ds, k, l)
                errs.append(est[0] - exact[0])
        rms[flux] = np.sqrt(np.mean(np.square(errs)))
    ratio = rms[1e4] / rms[1e6]
    assert 5.0 < ratio < 20.0  # ~10 for a x100 flux increase


def test_visibility_range_invariant():
    rng = np.random.default_rng(17)
    for seed in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        st = correlated_pure(v, generic_mode_set(4))
        ds = simulate_counts(st, 1e4, seed=seed)
        for k in range(4):
            for l in range(k + 1, 4):
                for vals in (state_V(st, k, l), dataset_V(ds, k, l)):
                    for val in vals:
                        assert -1e-9 <= val <= 1.0 + 1e-9


# --- file formats ------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    st = example_state()
    ds = simulate_counts(st, 1e5, seed=4)
    path = tmp_path / "counts.csv"
    write_counts_csv(ds, path)
    with open(path) as fh:
        assert fh.readline().strip() == "na,la,nb,lb,basis,outcome,count"
    back = read_counts_csv(path, mode_set=EXAMPLE_MODES, flux=1e5)
    assert back.counts == ds.counts
    assert back.mode_set == ds.mode_set


def test_csv_mode_inference(tmp_path):
    ds = simulate_counts(example_state(), 1e5, seed=4)
    path = tmp_path / "counts.csv"
    write_counts_csv(ds, path)
    back = read_counts_csv(path)
    assert back.mode_set == EXAMPLE_MODES  # (n, l)-sorted equals original here


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(IngestionError):
        read_counts_csv(path)


def test_json_roundtrip(tmp_path):
    ds = simulate_counts(example_state(), 1e5, seed=6, share_populations=True)
    path = tmp_path / "counts.json"
    write_counts_json(ds, path)
    back = read_counts_json(path)
    assert back.counts == ds.counts
    assert back.flux == ds.flux
    assert back.mode_set == ds.mode_set


def test_deterministic_csv_bytes(tmp_path):
    for i, path in enumerate([tmp_path / "a.csv", tmp_path / "b.csv"]):
        ds = simulate_counts(example_state(), 1e5, seed=12)
        write_counts_csv(ds, path)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _bad_count_rows(case, rows):
    """Corrupt a list of count rows (dicts keyed like the CSV header)."""
    first = dict(rows[0])
    if case in ("nan", "inf"):
        rows[0]["count"] = float(case)
    elif case == "huge":  # beyond the float range
        rows[0]["count"] = 10**400
    elif case == "duplicate":
        rows.append(first)
    elif case == "negative_mode":
        rows[0]["na"] = -1
    else:  # the same count again, written as the (b, a) pair
        swap = {"pp": "pp", "pm": "mp", "mp": "pm", "mm": "mm"}
        rows.append({**first, "na": first["nb"], "la": first["lb"],
                     "nb": first["na"], "lb": first["la"],
                     "outcome": swap[first["outcome"]]})
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["nan", "inf", "huge", "duplicate",
                                  "swapped_duplicate", "negative_mode"])
def test_bad_count_rows_rejected(tmp_path, fmt, case):
    ds = simulate_counts(example_state(), 1e5, seed=4)
    path = tmp_path / f"counts.{fmt}"
    if fmt == "csv":
        write_counts_csv(ds, path)
        with open(path, newline="") as fh:
            rows = _bad_count_rows(case, list(csv.DictReader(fh)))
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        read = lambda: read_counts_csv(path)
    else:
        write_counts_json(ds, path)
        payload = json.loads(path.read_text())
        _bad_count_rows(case, payload["counts"])
        path.write_text(json.dumps(payload))
        read = lambda: read_counts_json(path)
    match = {"nan": "<= 4.49423e", "inf": "<= 4.49423e", "huge": "<= 4.49423e|malformed",
             "negative_mode": "mode"}
    with pytest.raises(IngestionError, match=match.get(case, "duplicate")):
        read()


# --- the count tensor against the previous per-setting code -------------------

def ref_block(state, k, l):
    """The previous per-pair block cut."""
    B = np.zeros((4, 4), dtype=complex)
    if isinstance(state, CorrelatedState):
        c = state.coeffs
        B[0, 0], B[0, 3], B[3, 0], B[3, 3] = c[k, k], c[k, l], c[l, k], c[l, l]
    else:
        D = state.D
        idx = [k * D + k, k * D + l, l * D + k, l * D + l]
        B[:] = state.rho[np.ix_(idx, idx)]
    return B


def ref_expectation_tensor(state, flux):
    """The previous per-setting loop of simulate_counts, expectation mode."""
    D = state.mode_set.D
    out = []
    for k in range(D):
        for l in range(k + 1, D):
            B = ref_block(state, k, l)
            for U in _U:
                p = np.einsum("ij,jk,ik->i", U.conj(), B, U).real
                out.append(flux * np.clip(p, 0.0, None))
    return np.array(out).reshape(-1, 3, 4)


def ref_visibilities(state, k, l):
    """The previous per-pair visibilities |Tr(s_i s_i rho_4)| of the normalized
    subspace density matrix, as (V_x, V_y, V_z)."""
    B = ref_block(state, k, l)
    N = float(np.trace(B).real)
    if N <= 0.0:
        return np.zeros(3)
    return np.array([abs(float(np.trace(op @ (B / N)).real)) for op in _DOUBLE])


def ref_write_csv(dataset, path):
    """The previous row-by-row CSV writer."""
    import csv
    keys = sorted(dataset.counts, key=lambda t: (t[0], t[1], BASES.index(t[2]),
                                                 OUTCOMES.index(t[3])))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for k, l, basis, oc in keys:
            ma, mb = dataset.mode_set[k], dataset.mode_set[l]
            w.writerow([ma.n, ma.l, mb.n, mb.l, basis, oc,
                        _count_str(dataset.counts[(k, l, basis, oc)])])


def random_states():
    rng = np.random.default_rng(23)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    complex_state = correlated_pure(v, generic_mode_set(6))
    return [example_state(), complex_state,
            perturb_state(example_state(), 0.1, np.random.default_rng(3)),
            perturb_state(complex_state, 0.2, np.random.default_rng(4))]


@pytest.mark.parametrize("i", range(4))
def test_expectation_tensor_equals_reference_loop(i):
    st = random_states()[i]
    ds = simulate_counts(st, 1e6, expectation=True)
    assert np.array_equal(ds.tensor, ref_expectation_tensor(st, 1e6))


@pytest.mark.parametrize("i", range(7))
def test_table_from_state_equals_per_pair_formula(i):
    states = random_states()
    # embedded correlated states, and one with empty subspaces
    states += [states[0].embed(), states[1].embed(),
               correlated_pure([1, 0, 0.5, 0], generic_mode_set(4))]
    st = states[i]
    D = st.mode_set.D
    want = np.array([ref_visibilities(st, k, l)
                     for k in range(D) for l in range(k + 1, D)])
    got = table_from_state(st).V
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


def test_share_populations_agree_across_subspaces():
    st = random_states()[3]   # a general state: cross populations are nonzero
    D = st.mode_set.D
    ds = simulate_counts(st, 1e5, seed=5, share_populations=True)
    seen = {}
    for k in range(D):
        for l in range(k + 1, D):
            z = ds.tensor[pair_index(k, l, D), BASES.index("z")]
            for ij, c in zip([(k, k), (k, l), (l, k), (l, l)], z):
                seen.setdefault(ij, set()).add(c)
    assert all(len(v) == 1 for v in seen.values())
    assert any(c > 0 for (i, j), v in seen.items() if i != j for c in v)


def test_count_view_is_read_only_view():
    ds = simulate_counts(example_state(), 1e5, seed=4)
    assert len(ds.counts) == 72
    assert ds.counts[(1, 2, "y", "pm")] == ds.tensor[3, 1, 1]
    for bad in [(2, 1, "y", "pm"), (1, 2, "w", "pm"), (1, 9, "x", "pp"), "x"]:
        assert bad not in ds.counts
    with pytest.raises(TypeError):
        ds.counts[(0, 1, "x", "pp")] = 1


_MISSING_Y_MP = (r"^dataset is missing count for pair \(n=1,l=-1\)/\(n=2,l=-2\), "
                 r"basis y, outcome mp$")


def _in_file(path, message: str) -> str:
    """A reader's `message`, or its ^...$ pattern, as reading the dataset
    file `path` reports it."""
    prefix = f"malformed dataset file {path}: "
    if message.startswith("^"):
        return f"^{re.escape(prefix)}{message[1:]}"
    return prefix + message


def test_dataset_refuses_missing_count_and_wrong_shape():
    ds = simulate_counts(example_state(), 1e5, seed=4)
    assert list(ds.counts.values()) == ds.tensor.reshape(-1).tolist()
    tensor = ds.tensor.copy()
    tensor[pair_index(1, 2, 4), BASES.index("y"), OUTCOMES.index("mp")] = np.nan
    with pytest.raises(IngestionError, match=_MISSING_Y_MP):
        CoincidenceDataset(EXAMPLE_MODES, 1e5, tensor)
    for shape in [(5, 3, 4), (7, 3, 4), (6, 12), (6, 3, 3), (72,)]:
        with pytest.raises(IngestionError, match=r"count tensor has shape"):
            CoincidenceDataset(EXAMPLE_MODES, 1e5, np.zeros(shape))


@pytest.mark.parametrize("count", [-5.0, np.inf])
def test_dataset_refuses_negative_and_infinite_counts(count):
    # max_witness_state(4, 2) has Schmidt number 2; with one x-basis pm count
    # negated its W fell to 10.67 and certified d = 3, and an infinite count
    # ended as "visibility table is missing pairs"
    ds = simulate_counts(max_witness_state(4, 2), 1e6, expectation=True)
    tensor = ds.tensor.copy()
    tensor[pair_index(1, 2, 4), BASES.index("x"), OUTCOMES.index("pm")] = count
    tensor[pair_index(2, 3, 4), BASES.index("z"), OUTCOMES.index("mm")] = -1.0
    with pytest.raises(IngestionError, match=(
            rf"^dataset has count {count!r} for pair \(n=0,l=1\)/\(n=0,l=2\), "
            rf"basis x, outcome pm; counts must be >= 0 and <= 4.49423e\+307$")):
        CoincidenceDataset(ds.mode_set, ds.flux, tensor, expectation=True)


@pytest.mark.parametrize("counts", [{"pp": 1.7e308, "mp": 1e308},
                                    {"pp": 1e308, "mm": 1e308}], ids=["V-0", "V-nan"])
def test_dataset_refuses_counts_whose_sums_overflow(counts):
    # both were accepted: the x visibility of the first read 0, where the
    # counts say 0.26, and of the second NaN, a "missing pair"
    tensor = np.ones((1, 3, 4))
    for outcome, count in counts.items():
        tensor[0, BASES.index("x"), OUTCOMES.index(outcome)] = count
    with pytest.raises(IngestionError, match="^" + re.escape(
            f"dataset has count {counts['pp']!r} for pair (n=0,l=0)/(n=0,l=1), "
            f"basis x, outcome pp; counts must be >= 0 and <= 4.49423e+307") + "$"):
        CoincidenceDataset(generic_mode_set(2), 1.0, tensor)
    # four counts at the cap sum to a finite total
    ds = CoincidenceDataset(generic_mode_set(2), 1.0,
                            np.full((1, 3, 4), measurement._COUNT_MAX))
    assert (table_from_dataset(ds).V == 0.0).all()


@pytest.mark.parametrize("flux", [np.nan, np.inf, -1.0, 0.0, True])
def test_dataset_refuses_bad_flux(tmp_path, flux):
    # each was accepted, and write_counts_json wrote a file that
    # read_counts_json refused
    ds = simulate_counts(example_state(), 1e5, seed=4)
    message = re.escape(f"flux must be a finite number > 0, got {flux!r}")
    with pytest.raises(ConfigError, match=message):
        CoincidenceDataset(ds.mode_set, flux, ds.tensor)
    if flux != 0.0:  # without pairs, 0 is the flux derived from no counts
        message = re.escape(f"flux must be a finite number >= 0, got {flux!r}")
        with pytest.raises(ConfigError, match=message):
            CoincidenceDataset(generic_mode_set(1), flux, np.zeros((0, 3, 4)))


@pytest.mark.parametrize("D, flux", [(4, 1e5), (4, 5e-324), (4, 1.7976931348623157e308),
                                     (4, 7), (1, 0.0), (0, 0.0), (4, np.int64(7)),
                                     (4, np.float32(0.1))])
@pytest.mark.parametrize("expectation", [False, True, np.True_, "no"])
def test_json_round_trip_of_every_dataset_that_is_built(tmp_path, D, flux, expectation):
    # numpy scalars are held as plain numbers, which json writes; a flag that
    # is no bool is refused, as the reader would refuse it
    def build():
        return CoincidenceDataset(generic_mode_set(D), flux,
                                  np.arange(D * (D - 1) // 2 * 12.0).reshape(-1, 3, 4),
                                  expectation)
    if expectation == "no":
        with pytest.raises(ConfigError, match="expectation must be True or False"):
            build()
        return
    ds = build()
    assert (type(ds.flux), type(ds.expectation)) == (float, bool)
    write_counts_json(ds, tmp_path / "counts.json")
    back = read_counts_json(tmp_path / "counts.json")
    assert (back.mode_set, back.flux, back.expectation) == (ds.mode_set, flux, expectation)
    assert np.array_equal(back.tensor, ds.tensor)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_file_missing_a_row_refused_when_read(tmp_path, fmt):
    ds = simulate_counts(example_state(), 1e6, seed=7)
    path = tmp_path / f"counts.{fmt}"
    gone = ["1", "-1", "2", "-2", "y", "mp"]
    if fmt == "csv":
        write_counts_csv(ds, path)
        _rewrite_rows(path, lambda rows: [r for r in rows if r[:6] != gone])
        read = lambda: read_counts_csv(path)
    else:
        write_counts_json(ds, path)
        payload = json.loads(path.read_text())
        payload["counts"] = [c for c in payload["counts"]
                             if list(map(str, itemgetter(*CSV_HEADER[:6])(c))) != gone]
        path.write_text(json.dumps(payload))
        read = lambda: read_counts_json(path)
    with pytest.raises(IngestionError, match=_in_file(path, _MISSING_Y_MP)):
        read()


@pytest.mark.parametrize("expectation", [False, True])
def test_writers_match_previous_bytes(tmp_path, expectation):
    st = random_states()[2]
    ds = simulate_counts(st, 1e5, seed=None if expectation else 8,
                         expectation=expectation)
    write_counts_csv(ds, tmp_path / "new.csv")
    ref_write_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_counts_json(ds, tmp_path / "c.json")
    counts = [e["count"] for e in json.loads((tmp_path / "c.json").read_text())["counts"]]
    assert all(type(c) is (float if expectation else int) for c in counts)
    assert read_counts_json(tmp_path / "c.json").counts == ds.counts


def ref_write_json(dataset, path):
    """The JSON writer as json.dumps(payload, sort_keys=True) and a newline,
    row by row: sampled whole counts as ints, every other count as a float."""
    entries = []
    for (k, l, basis, oc), c in dataset.counts.items():
        ma, mb = dataset.mode_set[k], dataset.mode_set[l]
        whole = float(c).is_integer() and not dataset.expectation
        entries.append(dict(zip(CSV_HEADER, [ma.n, ma.l, mb.n, mb.l, basis, oc,
                                             int(c) if whole else float(c)])))
    payload = {"modes": dataset.mode_set.to_json(), "flux": dataset.flux,
               "expectation": dataset.expectation, "counts": entries}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def writer_dataset(case):
    st = random_states()[2]
    if case == "sampled":
        return simulate_counts(st, 1e5, seed=8)
    if case == "fractional":
        return simulate_counts(st, 1e5, expectation=True)
    if case == "huge":  # whole counts of 2^63 and above, and zeros
        ds = simulate_counts(example_state(), 1e300, expectation=True)
        assert ds.tensor.max() >= 2.0 ** 63 and (ds.tensor == 0).any()
        return ds
    if case == "one pair":
        return simulate_counts(bell(), 1e4, seed=2)
    if case.startswith("edge values"):  # negative l; sampled or expectation
        values = [-0.0, 5e-324, 0.1, 3.0, 2.0 ** 63, 2.0 ** 64 + 2.0 ** 12,
                  measurement._COUNT_MAX, 0.0]
        tensor = np.resize(values, (3, 3, 4))
        modes = ModeSet((ModeIndex(0, -3), ModeIndex(0, 2), ModeIndex(1, -1)))
        return CoincidenceDataset(modes, 2.5, tensor, case.endswith("expectation"))
    return CoincidenceDataset(generic_mode_set(1), 1.0, np.zeros((0, 3, 4)))


@pytest.mark.parametrize("case", ["sampled", "fractional", "huge", "one pair",
                                  "no pairs", "edge values",
                                  "edge values, expectation"])
def test_writers_equal_reference_writers(tmp_path, case):
    ds = writer_dataset(case)
    write_counts_csv(ds, tmp_path / "new.csv")
    ref_write_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_counts_json(ds, tmp_path / "new.json")
    ref_write_json(ds, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    back = read_counts_json(tmp_path / "new.json")
    assert np.array_equal(back.tensor, ds.tensor)
    assert (back.mode_set, back.flux, back.expectation) == \
        (ds.mode_set, ds.flux, ds.expectation)


def _rewrite_rows(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:1] + change(rows[1:]))


@pytest.mark.parametrize("change", ["shuffled", "swapped"])
def test_reordered_csv_reads_same_tensor(tmp_path, change):
    st = random_states()[3]
    ds = simulate_counts(st, 1e5, seed=2)
    path = tmp_path / "counts.csv"
    write_counts_csv(ds, path)
    swap = {"pp": "pp", "pm": "mp", "mp": "pm", "mm": "mm"}
    if change == "shuffled":
        _rewrite_rows(path, lambda rows: [rows[i] for i in
                                          np.random.default_rng(1).permutation(len(rows))])
    else:  # every row written from the (b, a) side
        _rewrite_rows(path, lambda rows: [[nb, lb, na, la, b, swap[oc], c]
                                          for na, la, nb, lb, b, oc, c in rows])
    back = read_counts_csv(path, mode_set=st.mode_set, flux=1e5)
    assert np.array_equal(back.tensor, ds.tensor)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["nan", "duplicate"])
def test_bad_row_past_first_chunk_rejected(tmp_path, fmt, case):
    st = correlated_pure(np.linspace(1.0, 2.0, 16), generic_mode_set(16))
    ds = simulate_counts(st, 1e5, seed=4)
    assert len(ds.counts) > 1024
    path = tmp_path / f"counts.{fmt}"
    last = {"na": 0, "la": 14, "nb": 0, "lb": 15, "basis": "z", "outcome": "mm"}
    if fmt == "csv":
        write_counts_csv(ds, path)
        text = path.read_text()
        if case == "nan":
            text = text[:text.rindex("\n", 0, -1) + 1] + "0,14,0,15,z,mm,nan\r\n"
        else:
            text += "0,14,0,15,z,mm,5\r\n"
        path.write_text(text)
        read = lambda: read_counts_csv(path)
    else:
        write_counts_json(ds, path)
        payload = json.loads(path.read_text())
        if case == "nan":
            payload["counts"][-1]["count"] = float("nan")
        else:
            payload["counts"].append({**last, "count": 5})
        path.write_text(json.dumps(payload))
        read = lambda: read_counts_json(path)
    with pytest.raises(IngestionError, match="<= 4.49423e" if case == "nan" else "duplicate"):
        read()


@pytest.mark.parametrize("row, match", [
    ("0,0,0,1,x,pp", "malformed"),            # a field short
    ("0,0,0,1,x,pp,5,7", "malformed"),        # a field too many
    ("0,0,0,0,x,pp,5", "with itself"),        # a pair of one mode
])
def test_malformed_csv_rows_rejected(tmp_path, row, match):
    path = tmp_path / "counts.csv"
    path.write_text(f"{','.join(CSV_HEADER)}\n0,0,0,1,x,mm,5\n{row}\n")
    with pytest.raises(IngestionError, match=match):
        read_counts_csv(path)


# --- the array reader against the previous chunked reader ---------------------

class _RefRows:
    """The previous chunk-by-chunk row gatherer of the CSV reader."""

    def __init__(self):
        self.ids, self.modes, self.parts = {}, {}, []

    def add(self, rows):
        if set(map(len, rows)) != {len(CSV_HEADER)}:
            raise IngestionError("malformed row")
        na, la, nb, lb, basis, outcome, count = (
            list(map(itemgetter(i), rows)) for i in range(len(CSV_HEADER)))
        a, b = list(zip(na, la)), list(zip(nb, lb))
        for cell in set(a).union(b).difference(self.ids):
            try:
                mode = ModeIndex(int(cell[0]), int(cell[1]))
            except ConfigError as exc:
                raise IngestionError(f"bad mode {cell}: {exc}") from exc
            self.ids[cell] = self.modes.setdefault(mode, len(self.modes))
        bi = np.array([measurement._BASIS_ID.get(t, -1) for t in basis], dtype=np.intp)
        oi = np.array([measurement._OUTCOME_ID.get(t, -1) for t in outcome], dtype=np.intp)
        if (bi < 0).any() or (oi < 0).any():
            raise IngestionError("unknown basis/outcome")
        self.parts.append((np.array([self.ids[c] for c in a], dtype=np.intp),
                           np.array([self.ids[c] for c in b], dtype=np.intp),
                           bi, oi, np.array([float(c) for c in count])))

    def dataset(self, mode_set, flux):
        empty = [np.zeros(0, dtype=np.intp)] * 4 + [np.zeros(0)]
        ia, ib, bi, oi, counts = (np.concatenate(c) for c in zip(empty, *self.parts))
        modes = list(self.modes)
        if mode_set is None:
            mode_set = ModeSet(tuple(sorted(modes, key=lambda m: (m.n, m.l))))
        index = {m: i for i, m in enumerate(mode_set.modes)}
        remap = np.array([index.get(m, -1) for m in modes], dtype=np.intp)
        k, l = remap[ia], remap[ib]
        if (k < 0).any() or (l < 0).any():
            raise IngestionError("mode not in the declared mode set")
        if (k == l).any():
            raise IngestionError("row pairs a mode with itself")
        swap = k > l
        k, l = np.where(swap, l, k), np.where(swap, k, l)
        oi = np.where(swap, measurement._SWAP_OUTCOME[oi], oi)
        if flux is None:
            z = counts[bi == 2]
            flux = float(np.cumsum(z)[-1]) if z.size else 0.0
        D = mode_set.D
        tensor = np.full((D * (D - 1) // 2, 3, 4), np.nan)
        flat = (pair_index(k, l, D) * 3 + bi) * 4 + oi
        if not ((counts >= 0) & (counts <= np.finfo(float).max / 4)).all():
            raise IngestionError("count must be >= 0 and <= max float / 4")
        if len(np.unique(flat)) < len(flat):
            raise IngestionError("duplicate count")
        tensor.reshape(-1)[flat] = counts
        return CoincidenceDataset(mode_set, flux, tensor)


def ref_read_csv(path, mode_set=None, flux=None):
    """The previous reader: csv.reader rows, parsed 1024 at a time."""
    rows = _RefRows()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_HEADER:
            raise IngestionError("bad CSV header")
        lines = filter(None, reader)
        try:
            while chunk := list(islice(lines, 1024)):
                rows.add(chunk)
        except ValueError as exc:
            raise IngestionError(f"malformed CSV row: {exc}") from exc
    return rows.dataset(mode_set, flux)


def _csv_text(rows, eol="\r\n", header=CSV_HEADER):
    return eol.join([",".join(header), *map(",".join, rows), ""])


def _rewrite_text(path, change, eol="\r\n"):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    path.write_bytes(_csv_text(change(rows), eol).encode())


_SWAP = {"pp": "pp", "pm": "mp", "mp": "pm", "mm": "mm"}
_LAYOUTS = {
    "as_written": (lambda rows: rows, "\r\n"),
    "lf": (lambda rows: rows, "\n"),
    "shuffled": (lambda rows: [rows[i] for i in
                               np.random.default_rng(1).permutation(len(rows))], "\n"),
    "swapped": (lambda rows: [[nb, lb, na, la, b, _SWAP[oc], c]
                              for na, la, nb, lb, b, oc, c in rows], "\r\n"),
    "quoted": (lambda rows: [[f'"{f}"' for f in r] for r in rows], "\r\n"),
    "blank_lines": (lambda rows: [r for row in rows for r in ([""], row)], "\r\n"),
    "padded": (lambda rows: [[f" {f} " if i in (0, 3, 6) else f for i, f in enumerate(r)]
                             for r in rows], "\n"),
    # the two halves of the rows interleaved, so that rows of one pair never
    # follow each other (a pair has 12 rows)
    "split_runs": (lambda rows: [r for two in zip_longest(rows[:len(rows) // 2],
                                                          rows[len(rows) // 2:])
                                 for r in two if r is not None], "\n"),
}


@pytest.mark.parametrize("expectation", [False, True])
@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_csv_reader_equals_reference_reader(tmp_path, layout, declared, expectation):
    st = random_states()[3]
    ds = simulate_counts(st, 1e5, seed=None if expectation else 2,
                         expectation=expectation)
    path = tmp_path / "counts.csv"
    write_counts_csv(ds, path)
    change, eol = _LAYOUTS[layout]
    _rewrite_text(path, change, eol)
    given = {"mode_set": st.mode_set, "flux": 1e5} if declared else {}
    new, ref = read_counts_csv(path, **given), ref_read_csv(path, **given)
    assert np.array_equal(new.tensor, ref.tensor, equal_nan=True)
    assert new.mode_set == ref.mode_set
    assert new.flux == ref.flux
    assert np.array_equal(new.tensor, ds.tensor)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("order", ["paper", "reversed"])
def test_reader_maps_modes_to_an_unsorted_declared_set(tmp_path, order, fmt):
    # the 15 modes with n, |l| <= 2 in paper_D186's (2n + |l|, n, l) order,
    # or in reverse (n, l) order: each count lands at its declared positions
    modes = enumerate_modes(2, 2).modes
    mode_set = ModeSet(tuple(sorted(modes, key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))
                             if order == "paper" else sorted(modes, reverse=True)))
    rng = np.random.default_rng(5)
    st = correlated_pure(rng.standard_normal(15) + 1j * rng.standard_normal(15), mode_set)
    ds = simulate_counts(st, 1e5, seed=6)
    write_counts_csv(ds, tmp_path / "counts.csv")
    ref = ref_read_csv(tmp_path / "counts.csv", mode_set=mode_set, flux=1e5)
    if fmt == "csv":
        new = read_counts_csv(tmp_path / "counts.csv", mode_set=mode_set, flux=1e5)
    else:
        write_counts_json(ds, tmp_path / "counts.json")
        new = read_counts_json(tmp_path / "counts.json")
    assert new.mode_set == ref.mode_set == mode_set
    assert np.array_equal(new.tensor, ref.tensor)
    assert np.array_equal(new.tensor, ds.tensor)


MALFORMED_BODIES = {
    "short_row": "0,0,0,1,x,pp",
    "long_row": "0,0,0,1,x,pp,5,7",
    "self_pair": "0,0,0,0,x,pp,5",
    "negative_mode": "-1,0,0,1,x,pp,5",
    "fractional_mode": "0,1.5,0,1,x,pp,5",
    "letter_mode": "0,a,0,1,x,pp,5",
    "undeclared_mode": "0,0,4,4,x,pp,5",
    "bad_basis": "0,0,0,1,w,pp,5",
    "empty_basis": "0,0,0,1,,pp,5",
    "bad_outcome": "0,0,0,1,x,p,5",
    "letter_count": "0,0,0,1,x,pp,abc",
    "empty_count": "0,0,0,1,x,pp,",
    "nan_count": "0,0,0,1,x,pp,nan",
    "negative_count": "0,0,0,1,x,pp,-2",
    "duplicate": "0,0,0,1,x,mm,7",
    "swapped_duplicate": "0,1,0,0,x,mm,7",
    "whitespace_line": "   ",
    "quoted_comma": '0,0,0,1,x,"p,p",5',
    "non_ascii": "0,0,0,1,x,pé,5",
    "non_latin1": "0,0,0,1,x,p€,5",
    "ppm": "0,0,0,1,x,ppm,5",
    "xyz": "0,0,0,1,xyz,pp,5",
    "ppmm": "0,0,0,1,x,ppmm,5",
    # two faults in one row: the first check it fails names it
    "bad_mode_bad_basis": "-1,0,0,1,w,pp,5",
    "undeclared_bad_basis": "0,0,4,4,w,pp,5",
    "undeclared_self_pair": "4,4,4,4,x,pp,5",
    "self_pair_negative_count": "0,0,0,0,x,pp,-2",
    "negative_count_duplicate": "0,0,0,1,x,mm,-7",
}


# The error of each body after the row "0,0,0,1,x,mm,5", declared or not:
# numpy's loadtxt refuses the row ("malformed CSV row in <path>: ...") or
# the dataset checks do ("malformed dataset file <path>: ...").
_COLUMNS = "the dtype passed requires 7 columns but {} were found at row 2; " \
           "use `usecols` to select a subset and avoid this error"
_CONVERT = "could not convert string {!r} to {} at row 1, column {}."
_COUNT_RANGE = "count {} at (0, 1, 'x', 'pp') must be >= 0 and <= 4.49423e+307"
MALFORMED_MESSAGES = {
    "short_row": ("row", _COLUMNS.format(6)),
    "long_row": ("row", _COLUMNS.format(8)),
    "self_pair": ("file", "row pairs mode ModeIndex(n=0, l=0) with itself"),
    "negative_mode": ("file", "bad mode: radial quantum number n must be a whole "
                              "number >= 0, got -1"),
    "fractional_mode": ("row", _CONVERT.format("1.5", "int64", 2)),
    "letter_mode": ("row", _CONVERT.format("a", "int64", 2)),
    "undeclared_mode": ("file", "mode ModeIndex(n=4, l=4) not in the declared mode set"),
    "bad_basis": ("file", "unknown basis/outcome 'w'/'pp'"),
    "empty_basis": ("file", "unknown basis/outcome ''/'pp'"),
    "bad_outcome": ("file", "unknown basis/outcome 'x'/'p'"),
    "letter_count": ("row", _CONVERT.format("abc", "float64", 7)),
    "empty_count": ("row", _CONVERT.format("", "float64", 7)),
    "nan_count": ("file", _COUNT_RANGE.format("nan")),
    "negative_count": ("file", _COUNT_RANGE.format("-2.0")),
    "duplicate": ("file", "duplicate count at (0, 1, 'x', 'mm')"),
    "swapped_duplicate": ("file", "duplicate count at (0, 1, 'x', 'mm')"),
    "whitespace_line": ("row", _COLUMNS.format(1)),
    "quoted_comma": ("file", "unknown basis/outcome 'x'/'p,p'"),
    "non_ascii": ("file", "unknown basis/outcome 'x'/'pé'"),
    "non_latin1": ("row", _CONVERT.format("p€", "|S3", 6)),
    "ppm": ("file", "unknown basis/outcome 'x'/'ppm'"),
    "xyz": ("file", "unknown basis/outcome 'xyz'/'pp'"),
    "ppmm": ("file", "unknown basis/outcome 'x'/'ppm'"),
    "bad_mode_bad_basis": ("file", "bad mode: radial quantum number n must be a whole "
                                   "number >= 0, got -1"),
    "undeclared_bad_basis": ("file", "unknown basis/outcome 'w'/'pp'"),
    "undeclared_self_pair": ("file", "mode ModeIndex(n=4, l=4) not in the declared "
                                     "mode set"),
    "self_pair_negative_count": ("file", "row pairs mode ModeIndex(n=0, l=0) with itself"),
    "negative_count_duplicate": ("file", "count -7.0 at (0, 1, 'x', 'mm') must be >= 0 "
                                         "and <= 4.49423e+307"),
}
# where the mode set is not declared, every mode is in it
_UNDECLARED_MESSAGES = {
    "undeclared_self_pair": "row pairs mode ModeIndex(n=4, l=4) with itself",
}


def test_every_malformed_body_has_its_message():
    assert set(MALFORMED_MESSAGES) == set(MALFORMED_BODIES)


@pytest.mark.parametrize("case, declared", [
    (case, declared) for case in MALFORMED_BODIES for declared in (True, False)
    if (case, declared) != ("undeclared_mode", False)])
def test_malformed_csv_same_error_as_reference(tmp_path, case, declared):
    path = tmp_path / "counts.csv"
    path.write_text(_csv_text(["0,0,0,1,x,mm,5".split(","),
                               [MALFORMED_BODIES[case]]]), encoding="utf-8")
    given = {"mode_set": generic_mode_set(2), "flux": 1e5} if declared else {}
    with pytest.raises(IngestionError):
        ref_read_csv(path, **given)
    with pytest.raises(IngestionError) as info:
        read_counts_csv(path, **given)
    where, message = MALFORMED_MESSAGES[case]
    if not declared:
        message = _UNDECLARED_MESSAGES.get(case, message)
    assert str(info.value) == (f"malformed CSV row in {path}: {message}" if where == "row"
                               else _in_file(path, message))


# a bad token, an undeclared mode, then another bad token
_TWO_BAD_ROWS = ["0,0,0,1,x,mm,5", "0,0,0,1,w,pp,5", "0,0,4,4,x,pp,5", "0,0,0,1,x,p,5"]


def _two_mode_reader(path, rows):
    """A reader of a CSV or JSON file of count rows given as CSV lines, with
    the mode set (0, 0), (0, 1) and the flux declared."""
    rows = [row.split(",") for row in rows]
    if path.suffix == ".csv":
        path.write_text(_csv_text(rows))
        return lambda: read_counts_csv(path, mode_set=generic_mode_set(2), flux=1e5)
    entries = [dict(zip(CSV_HEADER, [*map(int, r[:4]), r[4], r[5], int(r[6])]))
               for r in rows]
    path.write_text(json.dumps({"modes": generic_mode_set(2).to_json(),
                                "flux": 1e5, "counts": entries}))
    return lambda: read_counts_json(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_first_bad_row_in_file_order_is_named(tmp_path, fmt):
    path = tmp_path / f"counts.{fmt}"
    read = _two_mode_reader(path, _TWO_BAD_ROWS)
    with pytest.raises(IngestionError,
                       match=_in_file(path, "^unknown basis/outcome 'w'/'pp'$")):
        read()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_undeclared_mode_before_a_bad_token_is_named(tmp_path, fmt):
    # the undeclared mode is checked after the tokens, but its row comes first
    path = tmp_path / f"counts.{fmt}"
    read = _two_mode_reader(path, ["0,0,4,4,x,pp,5", "0,0,0,1,x,pp,5", "0,0,0,1,w,pp,5"])
    with pytest.raises(IngestionError, match=_in_file(
            path, r"^mode ModeIndex\(n=4, l=4\) not in the declared mode set$")):
        read()


# one bad row of each kind, in the order of the checks, and its error
_BAD_ROW_KINDS = {
    "negative_mode": ("-1,0,0,1,x,pp,5",
                      "bad mode: radial quantum number n must be a whole number "
                      ">= 0, got -1"),
    "bad_basis": ("0,0,0,1,w,pp,5", "unknown basis/outcome 'w'/'pp'"),
    "undeclared_mode": ("0,0,4,4,x,pp,5",
                        "mode ModeIndex(n=4, l=4) not in the declared mode set"),
    "self_pair": ("0,0,0,0,x,pp,5", "row pairs mode ModeIndex(n=0, l=0) with itself"),
    "negative_count": ("0,0,0,1,x,pp,-2",
                       "count -2.0 at (0, 1, 'x', 'pp') must be >= 0 and <= 4.49423e+307"),
    "duplicate": ("0,0,0,1,x,mm,7", "duplicate count at (0, 1, 'x', 'mm')"),
}


@pytest.mark.parametrize("kinds", [*permutations(_BAD_ROW_KINDS, 1),
                                   *permutations(_BAD_ROW_KINDS, 2)], ids="+".join)
def test_earliest_bad_row_named_with_its_own_error(tmp_path, kinds):
    rows = [_BAD_ROW_KINDS[kind][0] for kind in kinds]
    path = tmp_path / "counts.csv"
    read = _two_mode_reader(path, ["0,0,0,1,x,mm,5", *rows])
    with pytest.raises(IngestionError) as info:
        read()
    assert str(info.value) == _in_file(path, _BAD_ROW_KINDS[kinds[0]][1])


@pytest.mark.parametrize("token", ["ppm", "xyz", "ppmm"])
@pytest.mark.parametrize("column", ["basis", "outcome"])
def test_overlong_token_refused_not_truncated(tmp_path, token, column):
    row = {"na": "0", "la": "0", "nb": "0", "lb": "1", "basis": "x",
           "outcome": "pp", "count": "5", column: token}
    path = tmp_path / "counts.csv"
    path.write_text(_csv_text([list(row.values())]))
    with pytest.raises(IngestionError, match="unknown basis/outcome"):
        read_counts_csv(path)


@pytest.mark.parametrize("body", ["", "\r\n", "\n\n\n"])
def test_header_only_csv_reads_empty_without_warning(tmp_path, body):
    path = tmp_path / "counts.csv"
    path.write_bytes((",".join(CSV_HEADER) + "\r\n" + body).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = read_counts_csv(path)
    ref = ref_read_csv(path)
    assert ds.mode_set == ref.mode_set == ModeSet(())
    assert ds.tensor.shape == (0, 3, 4) and ds.flux == ref.flux == 0.0


@pytest.mark.parametrize("body", [["0,0,0,1,z,pp,0", "0,0,0,1,x,pp,5"],
                                  ["0,0,0,1,x,pp,5"]])
def test_csv_without_z_counts_derives_no_flux(tmp_path, body):
    path = tmp_path / "counts.csv"
    path.write_text(_csv_text([row.split(",") for row in body]))
    with pytest.raises(IngestionError, match="z-basis counts sum to 0"):
        read_counts_csv(path)
    # a given flux gets past that check, but the file lacks counts
    with pytest.raises(IngestionError, match="missing count"):
        read_counts_csv(path, flux=1e5)


@pytest.mark.parametrize("field", ["2.5", "2.0", "2e0"])
@pytest.mark.parametrize("declared", [True, False])
def test_fractional_mode_field_refused_with_warnings_ignored(tmp_path, field, declared):
    # numpy releases with loadtxt's int-via-float fallback cut such a field
    # to 2 with only a DeprecationWarning; with warnings ignored the row must
    # still be refused, not read as mode (0, 2)
    path = tmp_path / "counts.csv"
    path.write_text(_csv_text([["0", field, "0", "1", "x", "pp", "5"]]))
    given = {"mode_set": ModeSet((ModeIndex(0, 1), ModeIndex(0, 2)))} if declared else {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(IngestionError, match="malformed"):
            read_counts_csv(path, **given)
    with pytest.raises(IngestionError):
        ref_read_csv(path, **given)


@pytest.mark.parametrize("flux", [float("nan"), float("inf"), 0.0, -3.0])
def test_csv_reader_refuses_bad_given_flux(tmp_path, flux):
    path = tmp_path / "counts.csv"
    write_counts_csv(simulate_counts(example_state(), 1e5, seed=4), path)
    with pytest.raises(ConfigError, match="flux"):
        read_counts_csv(path, flux=flux)


@pytest.mark.parametrize("value", [1.9, 1.0, "1", True])
def test_json_reader_refuses_non_integer_mode_numbers(tmp_path, value):
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    payload = json.loads(path.read_text())
    assert payload["counts"][5]["nb"] == 1  # int(value) is the same mode
    payload["counts"][5]["nb"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(IngestionError, match="nb"):
        read_counts_json(path)


@pytest.mark.parametrize("value", ["x", "xé", None, True])
@pytest.mark.parametrize("column", ["basis", "count"])
def test_json_reader_refuses_wrong_value_types(tmp_path, column, value):
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    payload = json.loads(path.read_text())
    payload["counts"][5][column] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(IngestionError):
        read_counts_json(path)


@pytest.mark.parametrize("flux", [float("nan"), float("inf"), 0.0, -3.0])
def test_json_reader_refuses_bad_file_flux(tmp_path, flux):
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    payload = json.loads(path.read_text())
    payload["flux"] = flux
    path.write_text(json.dumps(payload))
    with pytest.raises(IngestionError, match="flux must be a finite number > 0"):
        read_counts_json(path)


@pytest.mark.parametrize("key, value", [("flux", True), ("flux", "1e6"),
                                        ("flux", None), ("expectation", "false"),
                                        ("expectation", 0), ("expectation", None)])
def test_json_reader_refuses_wrong_flux_and_expectation_types(tmp_path, key, value):
    # flux must be a JSON number and expectation a JSON boolean
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(IngestionError, match=f"{key} .* is not a JSON"):
        read_counts_json(path)


@pytest.mark.parametrize("key, value", [("n", 2 ** 63), ("l", -2 ** 63 - 1)],
                         ids=["n-2**63", "l--2**63-1"])
def test_json_reader_refuses_mode_numbers_outside_int64(tmp_path, key, value):
    # such a mode was declared, and the file was refused only because no row
    # (an int64 field) could name it
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    payload = json.loads(path.read_text())
    payload["modes"][1][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(IngestionError, match="is not an integer that int64 holds"):
        read_counts_json(path)


@pytest.mark.parametrize("flux, expectation", [(100000, False), (1e5, True)])
def test_json_reader_takes_json_numbers_and_booleans(tmp_path, flux, expectation):
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    payload = json.loads(path.read_text())
    payload.update(flux=flux, expectation=expectation)
    path.write_text(json.dumps(payload))
    ds = read_counts_json(path)
    assert (ds.flux, ds.expectation) == (1e5, expectation)
    assert type(ds.flux) is float


def test_truncated_json_count_file_is_ingestion_error(tmp_path):
    path = tmp_path / "counts.json"
    write_counts_json(simulate_counts(example_state(), 1e5, seed=4), path)
    path.write_text(path.read_text()[:100])
    with pytest.raises(IngestionError, match="malformed dataset file"):
        read_counts_json(path)


# --- blocks and chunks ----------------------------------------------------------

def test_pairs_are_cached_read_only_triu_indices():
    for D in (0, 1, 2, 7):
        k, l = pairs(D)
        assert all(np.array_equal(a, b) for a, b in zip((k, l), np.triu_indices(D, 1)))
        assert pairs(D)[0] is k and not k.flags.writeable and not l.flags.writeable
        assert np.array_equal(pair_index(k, l, D), np.arange(D * (D - 1) // 2))


@pytest.fixture(params=[1, 5, 12, 13], ids="read{}".format)
def read_chunk(request, monkeypatch):
    """Read chunks of 1, 5, 12 and 13 rows: chunk boundaries inside, at and
    across the 12 rows of a pair."""
    monkeypatch.setattr(measurement, "_READ_ROWS", request.param)
    return request.param


@pytest.fixture(params=[1, 2], ids="write{}".format)
def write_block(request, monkeypatch):
    monkeypatch.setattr(measurement, "_WRITE_PAIRS", request.param)
    return request.param


@pytest.mark.parametrize("expectation", [False, True])
@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_csv_reader_equals_reference_reader_in_chunks(tmp_path, read_chunk, layout,
                                                      declared, expectation):
    test_csv_reader_equals_reference_reader(tmp_path, layout, declared, expectation)


@pytest.mark.parametrize("case", list(MALFORMED_BODIES))
def test_malformed_csv_same_error_as_reference_in_chunks(tmp_path, read_chunk, case):
    for declared in (True, False):
        if (case, declared) != ("undeclared_mode", False):
            test_malformed_csv_same_error_as_reference(tmp_path, case, declared)


@pytest.mark.parametrize("kinds", [*permutations(_BAD_ROW_KINDS, 1),
                                   *permutations(_BAD_ROW_KINDS, 2)], ids="+".join)
def test_earliest_bad_row_named_in_chunks(tmp_path, read_chunk, kinds):
    test_earliest_bad_row_named_with_its_own_error(tmp_path, kinds)


@pytest.mark.parametrize("case", ["sampled", "fractional", "huge", "one pair",
                                  "no pairs", "edge values",
                                  "edge values, expectation"])
def test_writers_equal_reference_writers_in_blocks(tmp_path, write_block, case):
    test_writers_equal_reference_writers(tmp_path, case)


@pytest.mark.parametrize("expectation", [False, True])
def test_writers_match_previous_bytes_in_blocks(tmp_path, write_block, expectation):
    test_writers_match_previous_bytes(tmp_path, expectation)


def test_probability_blocks_keep_every_bit(monkeypatch):
    # the probabilities and the Poisson draws of one block after another are
    # those of one pass over all pairs
    st = random_states()[3]
    means = measurement._block_probabilities(st.blocks(*pairs(st.mode_set.D)))
    shared = simulate_counts(st, 1e5, seed=9, share_populations=True).tensor
    for size in (1, 4, measurement._PROB_PAIRS):
        monkeypatch.setattr(measurement, "_PROB_PAIRS", size)
        assert np.array_equal(outcome_probabilities(st), means)
        rng = np.random.default_rng(np.random.SeedSequence((9, 1)))
        assert np.array_equal(simulate_counts(st, 1e5, seed=9).tensor,
                              rng.poisson(1e5 * means))
        assert np.array_equal(simulate_counts(st, 1e5, seed=9,
                                              share_populations=True).tensor, shared)


def _written_rows(tmp_path, D=3):
    """A CSV file of a seeded D-mode dataset and its count rows as lists."""
    ds = simulate_counts(correlated_pure(np.linspace(1.0, 2.0, D), generic_mode_set(D)),
                         1e5, seed=6)
    path = tmp_path / "counts.csv"
    write_counts_csv(ds, path)
    with open(path, newline="") as fh:
        return ds, path, list(csv.reader(fh))[1:]


def test_pair_straddling_two_chunks_reads_whole(tmp_path, monkeypatch):
    ds, path, rows = _written_rows(tmp_path)
    monkeypatch.setattr(measurement, "_READ_ROWS", 5)   # pair 0: rows 0-4, 5-9, 10-11
    back = read_counts_csv(path)
    assert np.array_equal(back.tensor, ds.tensor) and back.flux == ref_read_csv(path).flux
    # and from the (b, a) side, rows of one pair split across chunks
    path.write_text(_csv_text(_LAYOUTS["swapped"][0](rows)))
    assert np.array_equal(read_counts_csv(path, mode_set=ds.mode_set).tensor, ds.tensor)


def test_blank_lines_at_chunk_boundaries(tmp_path, monkeypatch):
    ds, path, rows = _written_rows(tmp_path)
    monkeypatch.setattr(measurement, "_READ_ROWS", 5)
    lines = []
    for i, row in enumerate(rows):
        if i % 5 == 0:   # a blank line before each chunk
            lines.append([""])
        lines.append(row)
    path.write_text(_csv_text(lines + [[""], [""]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_counts_csv(path)
    assert np.array_equal(back.tensor, ds.tensor) and back.flux == ref_read_csv(path).flux


@pytest.mark.parametrize("case, message", [
    # the first copy in chunk 0, the second in the last chunk
    ("duplicate", "duplicate count at (0, 1, 'x', 'pp')"),
    # the first bad token in a later chunk, another one after it
    ("later token", "unknown basis/outcome 'w'/'pp'"),
])
def test_bad_row_in_a_later_chunk_named(tmp_path, monkeypatch, case, message):
    _, path, rows = _written_rows(tmp_path)
    if case == "duplicate":
        rows.append(rows[0])
    else:
        rows[20][4], rows[30][5] = "w", "pq"
    path.write_text(_csv_text(rows))
    for size in (5, 13, measurement._READ_ROWS):
        monkeypatch.setattr(measurement, "_READ_ROWS", size)
        with pytest.raises(IngestionError) as info:
            read_counts_csv(path)
        assert str(info.value) == _in_file(path, message)


@pytest.mark.parametrize("bad, place", [
    (["0", "0", "0", "1", "x", "pp"], "at row 9;"),    # numpy counts from 1 here
    (["0", "a", "0", "1", "x", "pp", "5"], "at row 8,"),   # and from 0 here
])
def test_malformed_row_in_a_later_chunk_located_in_the_file(tmp_path, monkeypatch,
                                                             bad, place):
    _, path, rows = _written_rows(tmp_path)
    # the 9th data row is bad; blank lines before it are not counted
    path.write_text(_csv_text([[""], *rows[:3], [""], *rows[3:8], bad, *rows[8:]]))
    messages = set()
    for size in (1, 5, 12, 13, measurement._READ_ROWS):
        monkeypatch.setattr(measurement, "_READ_ROWS", size)
        with pytest.raises(IngestionError, match="^malformed CSV row") as info:
            read_counts_csv(path)
        messages.add(str(info.value))
    assert len(messages) == 1 and place in messages.pop()


def test_count_path_memory_stays_near_the_tensor(tmp_path, monkeypatch):
    # with whole-array passes the peaks were 5.8 (simulate), 10.9 (write) and
    # 13.6 (read) times the count tensor's bytes; block by block and chunk by
    # chunk they stay near the tensor itself
    for name, size in {"_PROB_PAIRS": 128, "_WRITE_PAIRS": 64, "_READ_ROWS": 1000}.items():
        monkeypatch.setattr(measurement, name, size)
    st = correlated_pure(np.linspace(1.0, 2.0, 80), generic_mode_set(80))
    simulate_counts(bell(), 1e4, seed=1)   # the first draw's one-time allocations
    path = tmp_path / "counts.csv"
    out = {}
    simulate = traced_peak(lambda: out.update(ds=simulate_counts(st, 1e5, seed=3)))
    tensor = out["ds"].tensor.nbytes    # 37,920 counts, 0.3 MB
    write = traced_peak(lambda: write_counts_csv(out["ds"], path))
    read = traced_peak(lambda: read_counts_csv(path))
    assert simulate < 3 * tensor and write < tensor and read < 7 * tensor, \
        (simulate / tensor, write / tensor, read / tensor)
