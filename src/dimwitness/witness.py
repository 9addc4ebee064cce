"""The dimensionality witness and everything built on top of it.

W sums the three subspace visibilities over all D(D-1)/2 mode pairs; a
rank-d state can reach at most

    bound(D, d) = 3 D(D-1)/2 - D(D-d) = D d + D(D-3)/2,

so measuring above bound(D, d) certifies (d+1)-dimensional entanglement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConfigError, IngestionError, IntegrityError
from .measurement import (_EIGVECS, BASES, CoincidenceDataset, basis_visibilities,
                          outcome_probabilities, pair_index)
from .modes import ModeSet
from .oracle import brute_force_witness
from .states import CorrelatedState, SMALL_D_CAP, perturb_state

__all__ = [
    "VisibilityTable",
    "WitnessReport",
    "table_from_state",
    "table_from_dataset",
    "witness_sum",
    "witness_correlated",
    "bound",
    "certified_dimension",
    "f_bound",
    "monte_carlo_ci",
    "per_mode_contribution",
    "greedy_subset",
    "exhaustive_best_subset",
    "robustness_study",
    "GreedyResult",
    "RobustnessResult",
]


@dataclass(frozen=True, eq=False)
class VisibilityTable:
    """Visibilities of every pair (k, l), k < l, of a mode set.

    ``V`` has shape (pairs, 3): columns (V_x, V_y, V_z), rows in the
    row-major pair order of :func:`measurement.pair_index`.  A NaN row marks
    a missing pair.
    """

    mode_set: ModeSet
    V: np.ndarray

    def subset(self, indices) -> "VisibilityTable":
        """Table of the modes `indices` alone, renumbered in sorted order."""
        D = self.mode_set.D
        idx = _checked_subset(indices, D)
        self.check_complete()
        a, b = np.triu_indices(len(idx), 1)
        k = np.array(idx, dtype=np.intp)
        return VisibilityTable(self.mode_set.subset(idx),
                               self.V[pair_index(k[a], k[b], D)])

    def check_complete(self) -> None:
        D = self.mode_set.D
        if np.shape(self.V) != (D * (D - 1) // 2, len(BASES)):
            raise IngestionError(f"visibility table has shape {np.shape(self.V)}, "
                                 f"expected ({D * (D - 1) // 2}, {len(BASES)})")
        nan = np.isnan(self.V).any(axis=1)
        if nan.any():
            k, l = np.triu_indices(D, 1)
            missing = list(zip(k[nan].tolist(), l[nan].tolist()))
            raise IngestionError(f"visibility table is missing pairs {missing[:10]}"
                                 + (" ..." if len(missing) > 10 else ""))


def _checked_subset(indices, D: int) -> list:
    """`indices` sorted; they must be distinct mode indices in [0, D)."""
    idx = sorted(indices)
    if len(set(idx)) != len(idx) or any(not 0 <= k < D for k in idx):
        raise ConfigError(f"mode subset {idx} must hold distinct indices "
                          f"in [0, {D})")
    return idx


def table_from_state(state) -> VisibilityTable:
    return VisibilityTable(state.mode_set,
                           basis_visibilities(outcome_probabilities(state)))


def table_from_dataset(dataset: CoincidenceDataset) -> VisibilityTable:
    pairs = np.transpose(np.triu_indices(dataset.mode_set.D, 1))
    counts = dataset.count_array(pairs)
    return VisibilityTable(dataset.mode_set, basis_visibilities(counts))


def _sv_matrix(table: VisibilityTable, indices=None) -> np.ndarray:
    """Symmetric matrix of the summed visibilities, zero diagonal, over all
    modes or over the modes `indices` in sorted order."""
    table.check_complete()
    D = table.mode_set.D
    V = table.V
    S = np.zeros((D, D))
    S[np.triu_indices(D, 1)] = V[:, 0] + V[:, 1] + V[:, 2]
    S += S.T
    if indices is None:
        return S
    idx = _checked_subset(indices, D)
    return S[np.ix_(idx, idx)]


def _ordered_sum(values: np.ndarray):
    """Left-to-right sum.  np.sum adds pairwise, which moves the last digit
    of W and so the bytes of seeded reports."""
    return np.cumsum(values)[-1] if values.size else 0.0


def _pair_sum(S: np.ndarray):
    """W of a summed-visibility matrix: its upper triangle in (k, l) order."""
    return _ordered_sum(S[np.triu_indices(len(S), 1)])


def _row_means(S: np.ndarray) -> np.ndarray:
    """Mean of each row's off-diagonal entries."""
    n = len(S)
    return S[~np.eye(n, dtype=bool)].reshape(n, n - 1).mean(axis=1) if n > 1 \
        else np.zeros(n)


def witness_sum(table: VisibilityTable, indices=None) -> float:
    """W over all pairs of the table, or over pairs within `indices` only.

    Summation runs in fixed index order so results are reproducible.
    """
    return _pair_sum(_sv_matrix(table, indices))


def witness_correlated(coeffs: np.ndarray) -> float:
    """Vectorized W for the perfectly correlated class.

    On c_kl the subspace visibilities reduce to V_z = 1 and
    V_x = V_y = 2|Re c_kl| / (c_kk + c_ll); this closed form is checked
    against the brute-force path in the test suite.
    """
    pop = np.asarray(coeffs).real.diagonal()
    N = pop[:, None] + pop[None, :]
    num = np.abs(np.asarray(coeffs).real)
    iu = np.triu_indices(pop.size, k=1)
    n, v = N[iu], num[iu]
    live = n > 0
    return float(np.sum(1.0 + 4.0 * v[live] / n[live]))


def bound(D: int, d: int) -> int:
    """Witness threshold for rank-d states: 3 D(D-1)/2 - D(D-d)."""
    if not 1 <= d <= D:
        raise ConfigError(f"need 1 <= d <= D, got d={d}, D={D}")
    return 3 * D * (D - 1) // 2 - D * (D - d)


def certified_dimension(W: float, D: int) -> int:
    """Largest d with W strictly above bound(D, d-1); 1 when nothing is
    certified."""
    if D < 2 or not np.isfinite(W):
        raise ConfigError("need finite W and D >= 2")
    d_cert = 1
    for d in range(2, D + 1):
        if W > bound(D, d - 1):
            d_cert = d
    return d_cert


def f_bound(D: int, d: int) -> int:
    """Maximum of the un-normalized total correlation for rank-d states."""
    if not 1 <= d <= D:
        raise ConfigError(f"need 1 <= d <= D, got d={d}, D={D}")
    return 2 * d + D - 3


def monte_carlo_ci(dataset: CoincidenceDataset, n_resamples: int,
                   seed: int) -> tuple[float, float]:
    """Poisson parametric bootstrap of W.

    Every count is resampled as Poisson(observed count), W recomputed per
    resample; returns (mean, standard deviation).  Per-resample substreams
    are derived from (seed, index), so the result does not depend on
    execution order.
    """
    if n_resamples < 2:
        raise ConfigError("need at least 2 resamples")
    counts = dataset.count_array(np.transpose(np.triu_indices(dataset.mode_set.D, 1)))
    ws = np.empty(n_resamples)
    for i in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2, i)))
        ws[i] = basis_visibilities(rng.poisson(counts)).sum()
    return float(ws.mean()), float(ws.std(ddof=1))


def per_mode_contribution(table: VisibilityTable, indices=None) -> np.ndarray:
    """Mean summed visibility of each mode against all other modes."""
    return _row_means(_sv_matrix(table, indices))


@dataclass(frozen=True)
class GreedyResult:
    trajectory: list          # (subset size D', certified d, W)
    subsets: list             # flat-index subset at each trajectory step
    best_subset: list
    best_d: int


def greedy_subset(table: VisibilityTable) -> GreedyResult:
    """Iteratively drop the weakest-contributing mode and track how the
    certified dimension evolves.

    At each step the mode with the lowest mean summed visibility against the
    remaining modes is removed, W recomputed on the surviving pairs, and the
    certified dimension evaluated at the reduced D'.  The best subset is the
    one with the highest certified d (larger subsets win ties).
    """
    S = _sv_matrix(table)
    active = list(range(table.mode_set.D))
    trajectory, subsets = [], []
    while len(active) >= 2:
        sub = S[np.ix_(active, active)]
        W = _pair_sum(sub)
        d = certified_dimension(W, len(active))
        trajectory.append((len(active), d, W))
        subsets.append(list(active))
        if len(active) == 2:
            break
        active.pop(int(np.argmin(_row_means(sub))))
    best_i = max(range(len(trajectory)),
                 key=lambda i: (trajectory[i][1], trajectory[i][0]))
    return GreedyResult(trajectory, subsets, subsets[best_i],
                        trajectory[best_i][1])


def exhaustive_best_subset(table: VisibilityTable, max_D: int = 12):
    """Exact best subset by full enumeration; feasible only for small D."""
    D = table.mode_set.D
    if D > max_D:
        raise ConfigError(f"exhaustive subset search capped at D={max_D}")
    S = _sv_matrix(table)
    best, best_d = list(range(D)), 1
    for size in range(2, D + 1):
        for subset in combinations(range(D), size):
            d = certified_dimension(_pair_sum(S[np.ix_(subset, subset)]), size)
            if d > best_d or (d == best_d and size > len(best)):
                best, best_d = list(subset), d
    return best, best_d


# ---------------------------------------------------------------------------
# Robustness: perturbed states and perturbed (non-orthogonal) projections.

def _perturbed_frame(D: int, strength: float, leak_fraction: float,
                     rng: np.random.Generator) -> np.ndarray:
    """One imperfect mode-projection frame per photon.

    Column m is the vector actually projected on when mode m is addressed:
    a per-mode phase miscalibration of magnitude `strength` plus crosstalk
    into all other modes at `leak_fraction * strength`.  The columns are no
    longer orthogonal, modelling non-orthogonal projections; the errors are
    systematic, i.e. fixed for the whole measurement run.
    """
    theta = strength * rng.standard_normal(D)
    F = np.diag(np.exp(1j * theta)).astype(complex)
    if strength > 0.0 and leak_fraction > 0.0:
        G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        G /= np.linalg.norm(G, axis=0)
        F = F + leak_fraction * strength * G
    return F / np.linalg.norm(F, axis=0)


def witness_with_perturbed_projectors(state, strength: float,
                                      rng: np.random.Generator,
                                      leak_fraction: float = 0.3) -> float:
    """W as measured with imperfect (non-orthogonal) projection frames.

    Each photon gets one perturbed frame for the whole run; all subspace
    superpositions are built from the perturbed mode vectors.
    """
    D = state.mode_set.D
    frames = [_perturbed_frame(D, strength, leak_fraction, rng)
              for _ in range(2)]
    k, l = np.triu_indices(D, 1)
    # amplitudes of the outcome vectors va (x) vb on the basis M is written in
    if isinstance(state, CorrelatedState):
        M, amplitudes = state.coeffs, np.multiply   # only |mm> sees the state
    else:
        M, amplitudes = state.rho, (lambda va, vb:
                                    (va[:, None] * vb[None]).reshape(D * D, -1))
    probs = np.empty((k.size, len(BASES), 4))
    for b, basis in enumerate(BASES):
        # (plus, minus) outcome vectors of every pair, columns normalized
        vecs = []
        for F in frames:
            pm = [e[0] * F[:, k] + e[1] * F[:, l] for e in _EIGVECS[basis]]
            vecs.append([v / np.linalg.norm(v, axis=0) for v in pm])
        for o, (s, t) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            a = amplitudes(vecs[0][s], vecs[1][t])
            probs[:, b, o] = np.einsum("ip,ij,jp->p", a.conj(), M, a).real
    V = basis_visibilities(np.clip(probs, 0.0, None))
    return _ordered_sum(V[:, 0] + V[:, 1] + V[:, 2])


@dataclass(frozen=True)
class RobustnessResult:
    kind: str
    baseline: float
    trials: list              # (strength, W)
    fraction_non_increasing: float


def robustness_study(state: CorrelatedState, kind: str, n_trials: int,
                     strength_max: float, seed: int,
                     cap: int = SMALL_D_CAP) -> RobustnessResult:
    """Monte-Carlo perturbation sweep of the witness.

    kind: "state" (non-perfect correlations), "projector" (non-orthogonal
    projections) or "both".  Strengths ramp linearly from 0 to strength_max;
    W is recomputed via the brute-force path for each trial.
    """
    if kind not in ("state", "projector", "both"):
        raise ConfigError(f"unknown robustness kind {kind!r}")
    if n_trials < 1:
        raise ConfigError("need at least one trial")
    baseline = brute_force_witness(state, d_cap=cap)
    strengths = np.linspace(0.0, strength_max, n_trials)
    trials = []
    for i, s in enumerate(strengths):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3, i)))
        if kind == "state":
            W = brute_force_witness(perturb_state(state, float(s), rng, cap=cap),
                                    d_cap=cap)
        elif kind == "projector":
            W = witness_with_perturbed_projectors(state, float(s), rng)
        else:
            pert = perturb_state(state, float(s), rng, cap=cap)
            W = witness_with_perturbed_projectors(pert, float(s), rng)
        trials.append((float(s), float(W)))
    frac = float(np.mean([w <= baseline + 1e-9 for _, w in trials]))
    return RobustnessResult(kind, baseline, trials, frac)


# ---------------------------------------------------------------------------
# Reports.

@dataclass
class WitnessReport:
    W: float
    D: int
    certified_d: int
    bounds: list                       # [(d, threshold), ...]
    per_mode: list
    sigma: float | None = None
    n_resamples: int | None = None
    subset_trajectory: list | None = None
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        payload = {
            "W": self.W,
            "D": self.D,
            "sigma": self.sigma,
            "n_resamples": self.n_resamples,
            "certified_d": self.certified_d,
            "bounds": [[d, t] for d, t in self.bounds],
            "per_mode": list(map(float, self.per_mode)),
            "subset_trajectory": ([[dp, d] for dp, d, _ in self.subset_trajectory]
                                  if self.subset_trajectory is not None else None),
            "notes": self.notes,
        }
        return payload

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")


def build_report(table: VisibilityTable, dataset: CoincidenceDataset | None = None,
                 n_resamples: int = 0, seed: int | None = None,
                 with_subsets: bool = True) -> WitnessReport:
    """Full certification report from a visibility table.

    A W above the global cap 3 D(D-1)/2 is physically impossible and raises
    an integrity error rather than producing a report.
    """
    D = table.mode_set.D
    W = witness_sum(table)
    cap = 1.5 * D * (D - 1)
    if W > cap + 1e-6:
        raise IntegrityError(
            f"W={W} exceeds the global cap {cap}; the data is inconsistent")
    report = WitnessReport(
        W=W, D=D,
        certified_d=certified_dimension(W, D),
        bounds=[(d, bound(D, d)) for d in range(1, D + 1)],
        per_mode=list(per_mode_contribution(table)),
    )
    if n_resamples >= 2:
        if dataset is None:
            raise ConfigError("confidence intervals require the counts dataset")
        if seed is None:
            raise ConfigError("a seed is required for Monte-Carlo resampling")
        _, sigma = monte_carlo_ci(dataset, n_resamples, seed)
        report.sigma = sigma
        report.n_resamples = n_resamples
    if with_subsets:
        report.subset_trajectory = greedy_subset(table).trajectory
    return report
