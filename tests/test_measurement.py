import csv
import json

import numpy as np
import pytest

from dimwitness import measurement
from dimwitness import (ConfigError, IngestionError, correlated_pure, f_value,
                        g_value, generic_mode_set, maximally_entangled,
                        projector_set, read_counts_csv, read_counts_json,
                        simulate_counts, subspace_density, subspace_pauli,
                        table_from_dataset, table_from_state, write_counts_csv,
                        write_counts_json)
from dimwitness.measurement import (_DOUBLE, _OUTCOME_VECS, BASES, CSV_HEADER,
                                    OUTCOMES, CoincidenceDataset, _count_str,
                                    outcome_probabilities, pair_index)
from dimwitness.modes import ModeIndex, ModeSet
from dimwitness.states import CorrelatedState, perturb_state

EXAMPLE_AMPS = np.array([0.5, 0.07, 0.01, 0.01])
EXAMPLE_MODES = ModeSet((ModeIndex(0, 0), ModeIndex(1, -1),
                         ModeIndex(2, -2), ModeIndex(3, -3)))


def example_state():
    return correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)


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


# --- subspace Pauli operators -----------------------------------------------

def test_pauli_z_action():
    sz = subspace_pauli(4, 1, 3, "z")
    ek, el = np.eye(4)[1], np.eye(4)[3]
    assert np.allclose(sz @ ek, ek)
    assert np.allclose(sz @ el, -el)


def test_pauli_x_flips():
    sx = subspace_pauli(4, 0, 2, "x")
    ek, el = np.eye(4)[0], np.eye(4)[2]
    assert np.allclose(sx @ ek, el)


def test_pauli_x_eigenvectors():
    sx = subspace_pauli(3, 0, 1, "x")
    plus = (np.eye(3)[0] + np.eye(3)[1]) / np.sqrt(2)
    minus = (np.eye(3)[0] - np.eye(3)[1]) / np.sqrt(2)
    assert np.allclose(sx @ plus, plus)
    assert np.allclose(sx @ minus, -minus)


@pytest.mark.parametrize("axis", BASES)
def test_pauli_algebra(axis):
    op = subspace_pauli(5, 1, 4, axis)
    assert np.allclose(op, op.conj().T)
    assert np.isclose(np.trace(op), 0.0)
    sq = op @ op
    span = np.zeros((5, 5))
    span[1, 1] = span[4, 4] = 1.0
    assert np.allclose(sq, span)


def test_pauli_same_index_rejected():
    with pytest.raises(ConfigError):
        subspace_pauli(4, 2, 2, "x")


# --- subspace density and functionals ---------------------------------------

def test_subspace_density_full_support():
    st = bell()
    rho4, N = subspace_density(st, 0, 1)
    assert np.isclose(N, 1.0)
    assert np.isclose(np.trace(rho4).real, 1.0)


def test_subspace_weight_is_population_sum():
    st = example_state()
    lam2 = EXAMPLE_AMPS**2 / np.sum(EXAMPLE_AMPS**2)
    for (k, l) in [(0, 1), (0, 3), (2, 3)]:
        _, N = subspace_density(st, k, l)
        assert np.isclose(N, lam2[k] + lam2[l])


def test_four_mode_pair01_weight():
    _, N = subspace_density(example_state(), 0, 1)
    assert np.isclose(N, (0.25 + 0.0049) / 0.2551)


def test_zero_weight_subspace_convention():
    st = correlated_pure([1, 0, 0], generic_mode_set(3))
    rho4, N = subspace_density(st, 1, 2)
    assert N == 0.0
    assert np.allclose(rho4, 0.0)
    assert g_value(st, 1, 2) == 0.0
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
    assert np.isclose(g_value(bell(), 0, 1), 3.0)


def test_g_closed_form_for_pure_states():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lam = np.abs(rng.standard_normal(4)) + 1e-3
        st = correlated_pure(lam, generic_mode_set(4))
        lam = lam / np.linalg.norm(lam)
        for (k, l) in [(0, 1), (1, 3)]:
            want = 4 * lam[k] * lam[l] / (lam[k]**2 + lam[l]**2) + 1
            assert np.isclose(g_value(st, k, l), want)


def test_g_equals_visibility_sum_for_nonnegative_amplitudes():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = np.abs(rng.standard_normal(5)) + 1e-6
        st = correlated_pure(lam, generic_mode_set(5))
        for (k, l) in [(0, 1), (2, 4), (1, 3)]:
            assert np.isclose(g_value(st, k, l), state_V(st, k, l).sum())


def test_f_bell():
    assert np.isclose(f_value(bell(), 0, 1), 3.0)


def test_f_embedded_bell_in_larger_space():
    for D in (4, 6):
        for d in (2, 3):
            amps = np.zeros(D)
            amps[:d] = 1.0
            st = correlated_pure(amps, generic_mode_set(D))
            assert np.isclose(f_value(st, 0, 1), 6.0 / d)


def test_g_f_consistency():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        st = correlated_pure(v, generic_mode_set(4))
        for (k, l) in [(0, 1), (1, 2), (2, 3)]:
            _, N = subspace_density(st, k, l)
            if N > 0:
                assert abs(g_value(st, k, l) - f_value(st, k, l) / N) < 1e-9


def test_denominator_monotonicity():
    # moving population into the cross terms never increases g
    from dimwitness.states import GeneralTwoPhotonState
    st = example_state()
    base = st.embed()
    g0 = g_value(base, 0, 1)
    rho = base.rho.copy()
    cross = 0 * 4 + 1  # |01> population
    eps = 0.01
    rho = (1 - eps) * rho
    rho[cross, cross] += eps
    bumped = GeneralTwoPhotonState(rho, st.mode_set)
    assert g_value(bumped, 0, 1) < g0


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


def test_projector_set_shapes():
    projs = projector_set(5, 1, 3, "x")
    assert len(projs) == 4
    for Pa, Pb in projs:
        assert Pa.shape == (5, 5) and Pb.shape == (5, 5)
        assert np.allclose(Pa @ Pa, Pa)


def test_projector_probabilities_sum_to_subspace_weight():
    st = example_state()
    for basis in BASES:
        p = probabilities(st, 1, 2, basis)
        _, N = subspace_density(st, 1, 2)
        assert np.isclose(p.sum(), N)


# --- count simulation and estimation ----------------------------------------

def test_expectation_mode_counts_are_exact():
    st = bell()
    ds = simulate_counts(st, 1e4, expectation=True)
    p = probabilities(st, 0, 1, "x")
    got = ds.basis_counts(0, 1, "x")
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
        _, N = subspace_density(st, k, l)
        assert abs(ds.basis_counts(k, l, "z").sum() / ds.flux - N) < 1e-9


def test_equal_counts_give_zero_visibility():
    ds = CoincidenceDataset(generic_mode_set(2), flux=400.0)
    for b in BASES:
        for oc in OUTCOMES:
            ds.add(0, 1, b, oc, 100)
    vx, vy, vz = dataset_V(ds, 0, 1)
    assert vx == vy == vz == 0.0


def test_missing_count_named_in_error():
    full = simulate_counts(bell(), 1e4, seed=1)
    ds = CoincidenceDataset(full.mode_set, full.flux)
    for key, count in full.counts.items():
        if key != (0, 1, "y", "mp"):
            ds.add(*key, count)
    with pytest.raises(IngestionError, match="basis y, outcome mp"):
        table_from_dataset(ds)


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
    match = {"nan": "finite", "inf": "finite", "huge": "finite|malformed",
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
            for b in BASES:
                U = _OUTCOME_VECS[b]
                p = np.einsum("ij,jk,ik->i", U.conj(), B, U).real
                out.append(flux * np.clip(p, 0.0, None))
    return np.array(out).reshape(-1, 3, 4)


def ref_visibilities(state, k, l):
    """The previous per-pair visibilities |Tr(s_i s_i rho_4)| of the normalized
    subspace density matrix, as (V_x, V_y, V_z)."""
    rho4, N = subspace_density(state, k, l)
    if N == 0.0:
        return np.zeros(3)
    return np.array([abs(float(np.trace(_DOUBLE[b] @ rho4).real)) for b in BASES])


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
            z = ds.basis_counts(k, l, "z")
            for ij, c in zip([(k, k), (k, l), (l, k), (l, l)], z):
                seen.setdefault(ij, set()).add(c)
    assert all(len(v) == 1 for v in seen.values())
    assert any(c > 0 for (i, j), v in seen.items() if i != j for c in v)


def test_count_view_is_read_only_view():
    ds = simulate_counts(example_state(), 1e5, seed=4)
    assert len(ds.counts) == 72
    assert ds.counts[(1, 2, "y", "pm")] == ds.tensor[3, 1, 1]
    ds.tensor[3, 1, 1] = np.nan
    assert len(ds.counts) == 71 and (1, 2, "y", "pm") not in ds.counts
    for bad in [(2, 1, "y", "pm"), (1, 2, "w", "pm"), (1, 9, "x", "pp"), "x"]:
        assert bad not in ds.counts
    with pytest.raises(TypeError):
        ds.counts[(0, 1, "x", "pp")] = 1


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
    assert len(ds.counts) > measurement._CHUNK_ROWS
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
    with pytest.raises(IngestionError, match="finite" if case == "nan" else "duplicate"):
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
