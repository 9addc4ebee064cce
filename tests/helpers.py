"""States, reference sums and a memory probe that several test modules
share."""

import tracemalloc

import numpy as np

from dimwitness import oracle
from dimwitness.measurement import CSV_HEADER
from dimwitness.modes import ModeIndex, ModeSet, generic_mode_set
from dimwitness.states import correlated_pure

# the 4-mode worked example of the README
EXAMPLE_AMPS = np.array([0.5, 0.07, 0.01, 0.01])
EXAMPLE_MODES = ModeSet((ModeIndex(0, 0), ModeIndex(1, -1),
                         ModeIndex(2, -2), ModeIndex(3, -3)))


def example_state():
    return correlated_pure(EXAMPLE_AMPS, EXAMPLE_MODES)


def complex_state(D, seed):
    """A pure correlated state with random complex amplitudes."""
    rng = np.random.default_rng(seed)
    return correlated_pure(rng.standard_normal(D) + 1j * rng.standard_normal(D),
                           generic_mode_set(D))


def f_total(state):
    """Sum of the un-normalized signed correlations f_kl over all pairs."""
    t, _ = oracle._traces(oracle._one(state))
    return float(np.sum(t @ oracle._G_SIGNS))


def traced_peak(call) -> int:
    """Bytes allocated at the peak of `call`, over those held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def row_layout_payload(dataset) -> dict:
    """A dataset in the JSON layout of earlier releases: one object per count,
    keyed like the CSV header."""
    modes = dataset.mode_set
    rows = [dict(zip(CSV_HEADER, [modes[k].n, modes[k].l, modes[l].n, modes[l].l, b, o, c]))
            for (k, l, b, o), c in dataset.counts.items()]
    return {"counts": rows, "expectation": dataset.expectation, "flux": dataset.flux,
            "modes": dataset.mode_set.to_json()}
