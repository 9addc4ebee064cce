"""Certification of entanglement dimensionality from two-dimensional
subspace visibilities of two-photon Laguerre-Gauss states."""

from .errors import (CapacityError, ConfigError, DimWitnessError,
                     IngestionError, IntegrityError, InvalidModeSetError,
                     InvalidStateError)
from .modes import (ModeIndex, ModeSet, check_orthonormality, enumerate_modes,
                    generic_mode_set, lg_field, mode_overlap)
from .states import (CorrelatedState, DecompositionElement,
                     GeneralTwoPhotonState, SMALL_D_CAP, amplitudes_from_rates,
                     correlated_pure, load_state, max_witness_elements,
                     max_witness_state, maximally_entangled, perturb_state,
                     save_state, spdc_profile, state_from_elements)
from .measurement import (CoincidenceDataset, f_value, g_value, projector_set,
                          read_counts_csv, read_counts_json, simulate_counts,
                          subspace_density, subspace_pauli, write_counts_csv,
                          write_counts_json)
from .witness import (GreedyResult, RobustnessResult, VisibilityTable,
                      WitnessReport, bound, build_report, certified_dimension,
                      exhaustive_best_subset, f_bound, greedy_subset,
                      monte_carlo_ci, per_mode_contribution, robustness_study,
                      table_from_dataset, table_from_state, witness_correlated,
                      witness_sum)
from .oracle import (brute_force_witness, f_total, random_correlated_mixture,
                     random_rank_d_search, schmidt_rank)

__version__ = "0.1.0"
