"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(visible with ``pytest -v -rA`` or ``-s``) and asserts at the pinned
tolerance.  These are the release gates of the package.
"""

import numpy as np
from scipy import stats

from dimwitness import (bound, brute_force_witness, build_report,
                        certified_dimension, correlated_pure, enumerate_modes,
                        generic_mode_set, greedy_subset,
                        max_witness_state, monte_carlo_ci, robustness_study,
                        simulate_counts, spdc_profile, table_from_dataset,
                        table_from_state, witness_correlated, witness_sum)
from dimwitness.measurement import pair_index
from dimwitness.oracle import _random_mixtures
from dimwitness.modes import ModeSet
from helpers import EXAMPLE_AMPS, EXAMPLE_MODES, f_total

# W of the 4-mode example computed by the brute-force oracle; the commonly
# quoted rounded value 9.723 is inconsistent with the state's own per-pair
# summed visibilities (1.55 + 1.08 + 1.08 + 1.56 + 1.56 + 3 ~= 9.83), so the
# oracle value is the acceptance target (see README, "Worked example").
EXAMPLE_W_FULL = 9.829171019705104


def _verdict(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_acceptance_bound_formula():
    ok = (bound(186, 98), bound(186, 99), bound(186, 100)) == (35247, 35433, 35619)
    ok = ok and all(isinstance(bound(186, d), int) for d in (98, 99, 100))
    _verdict("bound(186, 98/99/100) = 35247/35433/35619 (exact integers)", ok)


def test_acceptance_certified_dimension_inversion():
    _verdict("certified_dimension(35529, 186) = 100",
             certified_dimension(35529.0, 186) == 100)


def test_acceptance_worked_example():
    st = correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)
    quoted = {(0, 1): 1.55, (0, 2): 1.08, (0, 3): 1.08,
              (1, 2): 1.56, (1, 3): 1.56, (2, 3): 3.0}
    table = table_from_state(st)
    ok = all(abs(table.V[pair_index(k, l, 4)].sum() - sv) <= 0.01
             for (k, l), sv in quoted.items())
    ok = ok and (bound(4, 1), bound(4, 2), bound(4, 3)) == (6, 10, 14)
    W_sub = witness_sum(table.subset([1, 2, 3]))
    ok = ok and abs(W_sub - 6.12) <= 0.01
    ok = ok and certified_dimension(W_sub, 3) == 3
    # full-set W: the oracle value is the target; it disagrees with the
    # rounded literature figure 9.723 by ~0.106 (documented in the README)
    W_full = brute_force_witness(st)
    ok = ok and abs(W_full - EXAMPLE_W_FULL) < 1e-9
    ok = ok and abs(witness_sum(table) - W_full) < 1e-9
    ok = ok and abs(W_full - 9.723) > 0.01
    _verdict("4-mode worked example: SVs +-0.01, bounds 6/10/14, "
             "restricted W = 6.12 certifying d = 3, full W = 9.8292 "
             "(9.723 discrepancy resolved)", ok)


def test_acceptance_bound_tightness_small_D():
    ok = True
    for D in range(2, 7):
        for d in range(1, D + 1):
            got = brute_force_witness(max_witness_state(D, d))
            ok = ok and abs(got - (D * d + D * (D - 3) / 2)) <= 1e-6
    _verdict("bound is tight: saturating states reach Dd + D(D-3)/2 "
             "within 1e-6 for all D <= 6", ok)


def test_acceptance_soundness_sweep():
    # 10^4 random rank-<=d correlated mixtures per (D, d), D <= 6, drawn as
    # one stack per cell (with the law of random_correlated_mixture), must
    # never exceed bound(D, d); the closed-form witness path is used for
    # speed and is itself cross-checked against the oracle in the suite
    rng = np.random.default_rng(2024)
    ok, worst = True, -np.inf
    for D in range(2, 7):
        for d in range(1, D + 1):
            margin = witness_correlated(_random_mixtures(D, d, 10_000, rng)) - bound(D, d)
            worst = max(worst, float(margin.max()))
            ok = ok and bool(np.all(margin <= 1e-6))
    _verdict(f"soundness: 10^4 random rank-<=d mixtures per (D <= 6, d) "
             f"never beat the bound (worst margin {worst:.3e})", ok)


def test_acceptance_unnormalized_correlation_bound():
    ok = True
    for D in range(2, 9):
        for d in range(1, D + 1):
            amps = np.zeros(D)
            amps[:d] = 1.0
            st = correlated_pure(amps, generic_mode_set(D))
            ok = ok and abs(f_total(st) - (2 * d + D - 3)) <= 1e-9
    # random rank-d pure correlated states stay below the same bound
    rng = np.random.default_rng(31)
    for _ in range(500):
        D = int(rng.integers(2, 7))
        d = int(rng.integers(1, D + 1))
        support = rng.choice(D, size=d, replace=False)
        amps = np.zeros(D, dtype=complex)
        amps[support] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        st = correlated_pure(amps, generic_mode_set(D))
        ok = ok and f_total(st) <= 2 * d + D - 3 + 1e-6
    _verdict("un-normalized correlation total equals 2d + D - 3 for uniform "
             "rank-d states (D <= 8) and random rank-d states never exceed it",
             ok)


def test_acceptance_perturbation_robustness():
    st = correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)
    ok = True
    details = []
    for kind in ("state", "projector", "both"):
        res = robustness_study(st, kind, 1000, 0.2, seed=42)
        strengths = [s for s, _ in res.trials]
        ws = [w for _, w in res.trials]
        rho, p = stats.spearmanr(strengths, ws)
        ok = ok and res.fraction_non_increasing >= 0.99
        ok = ok and rho < 0 and p < 0.01
        details.append(f"{kind}: frac={res.fraction_non_increasing:.3f} "
                       f"rho={rho:.2f}")
    _verdict("1000 perturbation trials per kind: W <= W0 in >= 99% and a "
             "significant decreasing trend (" + "; ".join(details) + ")", ok)


def test_acceptance_statistical_pipeline():
    st = correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)
    sigma = {}
    for flux in (1e6, 1e8):
        ds = simulate_counts(st, flux, seed=17)
        _, sigma[flux] = monte_carlo_ci(ds, 200, seed=17)
    ratio = sigma[1e6] / sigma[1e8]
    ok = abs(ratio - 10.0) <= 2.0  # flux^(-1/2) scaling within 20%
    # fixed seeds must give bit-identical report files
    blobs = []
    for _ in range(2):
        ds = simulate_counts(st, 1e6, seed=17)
        report = build_report(table_from_dataset(ds), dataset=ds,
                              n_resamples=100, seed=17)
        import io
        import json
        buf = io.StringIO()
        json.dump(report.to_json(), buf, sort_keys=True)
        blobs.append(buf.getvalue().encode())
    ok = ok and blobs[0] == blobs[1]
    _verdict(f"Monte-Carlo sigma scales as flux^(-1/2) within 20% "
             f"(ratio {ratio:.2f}) and fixed seeds give bit-identical reports",
             ok)


def test_acceptance_full_scale_synthetic_run():
    # a full 186-mode synthetic pipeline: exponential amplitude profile over
    # the lowest-order modes of an 11 x 13 index grid, expectation-mode
    # counts, certification and greedy subset optimization
    grid = enumerate_modes(11, 13)
    chosen = sorted(grid.modes, key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))
    modes = ModeSet(tuple(chosen[:186]))
    st = correlated_pure(spdc_profile(modes, 8.0, 4.0), modes)
    ds = simulate_counts(st, 1e6, expectation=True)
    report = build_report(table_from_dataset(ds))
    cap = 3 * 186 * 185 // 2
    ok = report.D == 186
    ok = ok and report.W <= cap + 1e-6
    ok = ok and report.certified_d == certified_dimension(report.W, 186)
    ok = ok and 1 <= report.certified_d <= 186
    # greedy optimization strictly improves the certified dimension on the
    # canonical non-maximal 4-mode example
    ex = correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)
    res = greedy_subset(table_from_state(ex))
    ok = ok and res.trajectory[0][1] == 2 and res.best_d == 3
    _verdict(f"D=186 synthetic pipeline completes (W = {report.W:.1f} <= "
             f"{cap}, certified d = {report.certified_d}) and greedy subset "
             "search strictly improves d on the 4-mode example (2 -> 3)", ok)
