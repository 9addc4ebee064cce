"""States and reference sums that several test modules share."""

import numpy as np

from dimwitness import oracle
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
