"""The dimensionality witness and everything built on top of it.

W sums the three subspace visibilities over all D(D-1)/2 mode pairs; a
rank-d state can reach at most

    bound(D, d) = 3 D(D-1)/2 - D(D-d) = D d + D(D-3)/2,

so measuring above bound(D, d) certifies (d+1)-dimensional entanglement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (CapacityError, ConfigError, IngestionError, IntegrityError,
                     _seed, _whole)
from .measurement import (_EIGVECS, _POISSON_MAX, BASES, CoincidenceDataset,
                          _block_probabilities, basis_visibilities,
                          outcome_probabilities, pair_index, pairs)
from .modes import ModeSet

__all__ = [
    "VisibilityTable",
    "WitnessReport",
    "table_from_state",
    "table_from_dataset",
    "witness_sum",
    "witness_correlated",
    "bound",
    "certified_dimension",
    "monte_carlo_ci",
    "per_mode_contribution",
    "greedy_subset",
    "robustness_study",
    "GreedyResult",
    "RobustnessResult",
    "build_report",
]


@dataclass(frozen=True, eq=False)
class VisibilityTable:
    """Visibilities of every pair (k, l), k < l, of a mode set.

    ``V`` has shape (pairs, 3): columns (V_x, V_y, V_z), rows in the
    row-major pair order of :func:`measurement.pair_index`.  A table with a
    pair missing (a NaN row) is refused.
    """

    mode_set: ModeSet
    V: np.ndarray

    @cached_property
    def S(self) -> np.ndarray:
        """Symmetric (D, D) matrix of the summed visibilities, zero diagonal;
        built on first use and read-only, so every reader shares one."""
        D = self.mode_set.D
        S = np.zeros((D, D))
        S[pairs(D)] = self.V[:, 0] + self.V[:, 1] + self.V[:, 2]
        S += S.T
        S.flags.writeable = False
        return S

    def subset(self, indices) -> "VisibilityTable":
        """Table of the modes `indices` alone, renumbered in sorted order;
        they must be distinct mode indices in [0, D)."""
        D = self.mode_set.D
        idx = sorted(indices)
        if len(set(idx)) != len(idx) or any(not 0 <= k < D for k in idx):
            raise ConfigError(f"mode subset {idx} must hold distinct indices "
                              f"in [0, {D})")
        a, b = pairs(len(idx))
        k = np.array(idx, dtype=np.intp)
        return VisibilityTable(self.mode_set.subset(idx),
                               self.V[pair_index(k[a], k[b], D)])

    def __post_init__(self):
        D = self.mode_set.D
        if np.shape(self.V) != (D * (D - 1) // 2, len(BASES)):
            raise IngestionError(f"visibility table has shape {np.shape(self.V)}, "
                                 f"expected ({D * (D - 1) // 2}, {len(BASES)})")
        nan = np.isnan(self.V).any(axis=1)
        if nan.any():
            k, l = pairs(D)
            missing = list(zip(k[nan].tolist(), l[nan].tolist()))
            raise IngestionError(f"visibility table is missing pairs {missing[:10]}"
                                 + (" ..." if len(missing) > 10 else ""))


def table_from_state(state) -> VisibilityTable:
    return VisibilityTable(state.mode_set,
                           basis_visibilities(outcome_probabilities(state)))


def table_from_dataset(dataset: CoincidenceDataset) -> VisibilityTable:
    return VisibilityTable(dataset.mode_set, basis_visibilities(dataset.tensor))


def _ordered_sum(values: np.ndarray):
    """Left-to-right sum over the last axis.  np.sum adds pairwise, which
    moves the last digit of W and so the bytes of seeded reports."""
    total = (np.cumsum(values, axis=-1)[..., -1] if values.shape[-1]
             else np.zeros(values.shape[:-1]))
    return total[()]  # a scalar for 1-D values


def _row_means(rows: np.ndarray, diagonal) -> np.ndarray:
    """Mean of each row's off-diagonal entries, each row added in its order:
    `rows` are rows of a square matrix, and row i's diagonal entry is in
    column diagonal[i]."""
    m, n = rows.shape
    if n < 2:
        return np.zeros(m)
    off = np.ones((m, n), dtype=bool)
    off[np.arange(m), diagonal] = False
    return rows[off].reshape(m, n - 1).mean(axis=1)


def witness_sum(table: VisibilityTable) -> float:
    """W over all pairs of the table (of a subset: over `table.subset(idx)`).

    Summation runs in fixed index order so results are reproducible.
    """
    V = table.V
    return _ordered_sum(V[:, 0] + V[:, 1] + V[:, 2])


def witness_correlated(coeffs: np.ndarray):
    """Vectorized W for the perfectly correlated class: a float for one
    D x D coefficient matrix, an array of W for a stack (..., D, D).

    On c_kl the subspace visibilities reduce to V_z = 1 and
    V_x = V_y = 2|Re c_kl| / (c_kk + c_ll); this closed form is checked
    against the brute-force path in the test suite.  Pairs of zero weight
    add 0.
    """
    c = np.asarray(coeffs).real
    pop = c.diagonal(axis1=-2, axis2=-1)
    k, l = pairs(pop.shape[-1])
    n, v = pop[..., k] + pop[..., l], np.abs(c[..., k, l])
    live = n > 0
    terms = np.divide(4.0 * v, n, out=np.zeros_like(n), where=live) + live
    W = np.sum(terms, axis=-1)
    return float(W) if W.ndim == 0 else W


def bound(D, d):
    """Witness threshold for rank-d states: 3 D(D-1)/2 - D(D-d); works
    elementwise on integer arrays, and gives an int for scalars."""
    ok = (1 <= d) & (d <= D)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ConfigError(f"need 1 <= d <= D, got d={d}, D={D}")
    t = 3 * D * (D - 1) // 2 - D * (D - d)
    return t if isinstance(t, np.ndarray) else int(t)


# W sums n = D(D-1)/2 pairs, and rounding alone moves a sum of n terms by up
# to (n - 1) eps sum|x| (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., sec. 4.2).  So a verdict takes W above a bound only
# when it clears it by more than tau = _TAU_PER_PAIR * n * |W|, and a state
# that saturates a bound does not certify one dimension more by its last
# digits.
_TAU_PER_PAIR = np.finfo(float).eps


def certified_dimension(W, D):
    """Largest d with W above bound(D, d-1) by more than tau = n eps |W|
    (n = D(D-1)/2 pairs, see _TAU_PER_PAIR); 1 when nothing is certified.
    Works elementwise on arrays of W and D, and gives an int for scalars.

    The bounds bound(D, 1), ..., bound(D, D-1) rise by D per dimension, and
    W - bound falls as the bound rises, so W clears the first c of them and
    d = c + 1.  A guess of c from bound(D, 1) is moved by comparing W with
    the bounds on either side of it until it is c.
    """
    W, D = np.asarray(W, dtype=float), np.asarray(D)
    if (D < 2).any() or not np.isfinite(W).all():
        raise ConfigError("need finite W and D >= 2")
    tau = _TAU_PER_PAIR * (D * (D - 1) // 2) * np.abs(W)
    first, top = bound(D, 1), D - 1
    c = np.minimum(np.maximum(np.ceil((W - tau - first) / D), 0), top)
    while True:
        up = (c < top) & (W - (first + D * c) > tau)
        down = (c > 0) & ~(W - (first + D * (c - 1)) > tau)
        if not (up.any() or down.any()):
            d = (c + 1).astype(np.int64)
            return int(d) if d.ndim == 0 else d
        c = c + up - down


# A basis is smooth when its visibility sits this many Poisson standard
# deviations away from the kink of |A - B| at A = B.
_SMOOTH_SIGMAS = 5.0


def _closed_form(counts: np.ndarray):
    """Which pairs need no resampling, and the delta-method variance of
    each pair's summed visibility.

    Per basis, with A = pp + mm, B = pm + mp and N = A + B, the visibility
    |A - B| / N of Poisson counts has variance 4 A B / N^3 wherever
    |A - B| >= _SMOOTH_SIGMAS sqrt(N).  A pair with an empty z basis has
    visibility 0 in every resample, so it needs no resampling either.
    """
    A = counts[..., 0] + counts[..., 3]
    B = counts[..., 1] + counts[..., 2]
    N = A + B
    z_live = N[:, BASES.index("z")] > 0
    smooth = np.abs(A - B) >= _SMOOTH_SIGMAS * np.sqrt(N)
    closed = ~z_live | smooth.all(axis=1)
    var = np.divide(4.0 * A * B, N ** 3, out=np.zeros(N.shape), where=N > 0)
    return closed, np.where(z_live, var.sum(axis=1), 0.0)


def monte_carlo_ci(dataset: CoincidenceDataset, n_resamples: int,
                   seed: int) -> tuple[float, float]:
    """Poisson parametric bootstrap of W; returns (mean, standard deviation).

    W is a sum of independent per-pair terms, so its variance is the sum of
    theirs.  Pairs whose visibilities are all far from 0 (see
    :func:`_closed_form`) add their observed visibilities to the mean and
    their delta-method variance to the variance.  Only the other pairs are
    resampled, every count as Poisson(observed count); per-resample
    substreams are derived from (seed, index), so the result does not depend
    on execution order, and with no closed-form pair it is the plain
    bootstrap of W.
    """
    n_resamples = _whole(n_resamples, "resamples")
    if n_resamples < 2:
        raise ConfigError("need at least 2 resamples")
    rough_mean, sigma, closed = _bootstrap(dataset.tensor, n_resamples, _seed(seed))
    return float(basis_visibilities(dataset.tensor[closed]).sum() + rough_mean), sigma


def _bootstrap(counts: np.ndarray, n_resamples: int, seed: int):
    """:func:`monte_carlo_ci` of a complete count tensor but for the
    closed-form pairs' mean: returns the resampled pairs' mean W (0 when no
    pair is resampled), the standard deviation of W and the mask of the
    closed-form pairs."""
    closed, var = _closed_form(counts)
    variance = var[closed].sum()
    rough = counts[~closed]
    if rough.max(initial=0.0) > _POISSON_MAX:
        raise CapacityError(f"count {rough.max():.6g} of a resampled pair is above "
                            f"{_POISSON_MAX:.6g}, the largest Poisson mean that "
                            f"can be sampled")
    mean = 0.0
    if len(rough):
        ws = np.empty(n_resamples)
        for i in range(n_resamples):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 2, i)))
            ws[i] = basis_visibilities(rng.poisson(rough)).sum()
        mean = ws.mean()
        variance += ws.var(ddof=1)
    return mean, float(np.sqrt(variance)), closed


def per_mode_contribution(table: VisibilityTable) -> np.ndarray:
    """Mean summed visibility of each mode against all other modes."""
    S = table.S
    return _row_means(S, np.arange(len(S)))


@dataclass(frozen=True)
class GreedyResult:
    trajectory: list          # (subset size D', certified d, W)
    order: np.ndarray         # modes in the order they leave; step s keeps order[s:]
    best_subset: list
    best_d: int


# Running row sums within _TIE_ULPS * D^2 * eps * max|S| of the smallest are
# tied, and the tied modes' row means decide.  A sum of m terms added in any
# order is off its exact value by at most (m - 1) eps sum|x| (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2).  So a
# running sum (D terms, then at most D - 3 subtractions) is off the exact
# row sum by at most 2 D^2 eps max|S|, and a row mean times D' - 1 by at
# most 2 D^2 eps max|S| too: the mode of the smallest row mean has a running
# sum at most 2 (2 + 2) D^2 eps max|S| = 8 D^2 eps max|S| above the
# smallest.  16 leaves a factor of 2 for the second-order terms.
_TIE_ULPS = 16


def greedy_subset(table: VisibilityTable) -> GreedyResult:
    """Iteratively drop the weakest-contributing mode and track how the
    certified dimension evolves.

    At each step the mode with the lowest mean summed visibility against the
    remaining modes is removed, W recomputed on the surviving pairs, and the
    certified dimension evaluated at the reduced D'.  The best subset is the
    one with the highest certified d (larger subsets win ties).  Modes are
    ranked by running row sums; where the lowest is tied within rounding,
    the tied modes' mean summed visibilities decide, and of equal means the
    first mode goes.

    The loop only decides the order of removal.  A pair counts up to the
    step at which the first of its two modes leaves, so the W of every step
    is one reverse cumulative sum of the pairs' summed visibilities, binned
    by that step.  The full set's W is summed in pair order, as
    :func:`witness_sum` sums it; the later steps' W differ from
    :func:`witness_sum` of their subsets in the last digits only.
    """
    D = table.mode_set.D
    if D < 2:
        raise ConfigError(f"greedy subset search needs D >= 2, got D={D}")
    S = table.S
    k, l = pairs(D)
    upper = S[k, l]
    W0 = _ordered_sum(upper)
    if not np.isfinite(W0):
        raise ConfigError(f"need finite W, got W = {W0} for all {D} modes")
    active = np.arange(D)
    rs = S.sum(axis=1)  # the surviving modes' summed visibilities
    tie = _TIE_ULPS * D ** 2 * np.finfo(float).eps * np.abs(S).max()
    leave = np.full(D, D - 2)  # the last step of each mode; two stay to the end
    for step in range(D - 2):
        # a NaN or inf sum ties every mode, as it would have no order
        # (argmin finds the first NaN, as min returns it)
        tied = (~(rs > rs[rs.argmin()] + tie)).nonzero()[0]
        i = tied[0]
        if len(tied) > 1:
            i = tied[np.argmin(_row_means(S[np.ix_(active[tied], active)], tied))]
        weakest = active[i]
        leave[weakest] = step
        keep = active != weakest
        active, rs = active[keep], rs[keep]
        rs -= S[weakest][active]
    W = np.cumsum(np.bincount(np.minimum(leave[k], leave[l]), weights=upper,
                              minlength=D - 1)[::-1])[::-1]
    W[0] = W0
    sizes = np.arange(D, 1, -1)
    trajectory = list(zip(sizes.tolist(),
                          certified_dimension(W, sizes).tolist(), W.tolist()))
    best_i = max(range(len(trajectory)),
                 key=lambda i: (trajectory[i][1], trajectory[i][0]))
    order = np.argsort(leave, kind="stable")
    return GreedyResult(trajectory, order, np.sort(order[best_i:]).tolist(),
                        trajectory[best_i][1])


# ---------------------------------------------------------------------------
# Robustness: perturbed states and perturbed (non-orthogonal) projections.
# These functions import their `states` and `oracle` helpers when called, so
# that certifying counts compiles neither module.

# crosstalk of a perturbed frame, relative to its phase error
_LEAK_FRACTION = 0.3

# size of the (m, D^2, D^2) complex density-matrix chunks in which
# robustness_study scores its trials (16 trials at D = 4).  On a 1000-trial
# D = 4 sweep (one BLAS thread), 1 MiB chunks are no faster and add 9 MB of
# peak memory; 16 KiB chunks take 1.6 times as long.
_CHUNK_BYTES = 1 << 16


def _frame_draws(D: int, strength: float, rng: np.random.Generator):
    """The random numbers of one photon's perturbed frame: D phase normals,
    then a complex Gaussian crosstalk matrix when strength > 0 (zeros
    otherwise)."""
    normals = rng.standard_normal(D)
    G = np.zeros((D, D), dtype=complex)
    if strength > 0.0:
        G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return normals, G


def _frames(strength: np.ndarray, normals: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Imperfect mode-projection frames from their draws, stacked: strength
    (n,), normals (n, photons, D) and G (n, photons, D, D) give frames
    (n, photons, D, D).

    Column m is the vector actually projected on when mode m is addressed:
    a per-mode phase miscalibration of magnitude `strength` plus crosstalk
    into all other modes at `_LEAK_FRACTION * strength`.  The columns are no
    longer orthogonal, modelling non-orthogonal projections; the errors are
    systematic, i.e. fixed for the whole measurement run.
    """
    theta = strength[:, None, None] * normals
    F = np.zeros(G.shape, dtype=complex)
    F[..., np.arange(G.shape[-1]), np.arange(G.shape[-1])] = np.exp(1j * theta)
    live = strength > 0.0
    G = G[live] / np.linalg.norm(G[live], axis=-2, keepdims=True)
    F[live] = F[live] + (_LEAK_FRACTION * strength[live])[:, None, None, None] * G
    return F / np.linalg.norm(F, axis=-2, keepdims=True)


def _seen_witness(rho: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Summed visibilities of the states rho (n or 1, D^2, D^2) measured
    through the frame pairs (n, 2, D, D), shape (n,).

    Addressing the subspace vector u projects on F u / |F u|, so the outcome
    probabilities are the ideal ones of the seen state
    (F_A x F_B)^+ rho (F_A x F_B), each divided by |F_A u_s|^2 |F_B u_t|^2.
    """
    from .states import _cut_blocks
    n, _, D, _ = frames.shape
    K = (frames[:, 0, :, None, :, None] * frames[:, 1, None, :, None, :]
         ).reshape(n, D * D, D * D)                 # kron(F_A, F_B)
    seen = K.conj().swapaxes(-1, -2) @ rho @ K
    # |F u|^2 = u^+ (F^+ F) u on the (k, l) block of each frame's Gram matrix
    kl = np.transpose(pairs(D))
    gram = frames.conj().swapaxes(-1, -2) @ frames
    norms = np.einsum("bsi,nfpij,bsj->nfpbs", _EIGVECS.conj(),
                      gram[:, :, kl[:, :, None], kl[:, None, :]], _EIGVECS).real
    probs = _block_probabilities(_cut_blocks(seen, *kl.T)) / (
        norms[:, 0, ..., :, None] * norms[:, 1, ..., None, :]
    ).reshape(n, len(kl), len(BASES), 4)
    V = basis_visibilities(probs)
    return _ordered_sum(V[..., 0] + V[..., 1] + V[..., 2])


def witness_with_perturbed_projectors(state, strength: float,
                                      rng: np.random.Generator) -> float:
    """W as measured with imperfect (non-orthogonal) projection frames: the
    one trial of a "projector" sweep at `strength` that draws from `rng`.

    Each photon gets one perturbed frame F for the whole run (see
    :func:`_frames`); the state is scored by :func:`_seen_witness`.
    """
    from .states import _check_strength
    s = _check_strength(strength)
    return float(_score_trials("projector", state.embed().rho, np.array([s]), [rng])[0])


@dataclass(frozen=True)
class RobustnessResult:
    kind: str
    baseline: float
    trials: list              # (strength, W)
    fraction_non_increasing: float


def _score_trials(kind: str, base: np.ndarray, strength: np.ndarray,
                  rngs) -> np.ndarray:
    """W of trials at the given strengths, scored as one stack; the only
    code that draws and scores a perturbed trial.

    Trial j draws from rngs[j], in this order: the state perturbation when
    strength > 0 (kinds "state" and "both"), then each photon's frame
    (kinds "projector" and "both").  Frames that overflow float64 are
    refused.
    """
    from .oracle import _sv_witness
    from .states import _draw_perturbation, _perturb
    n, D = len(strength), math.isqrt(base.shape[-1])
    perturbs, measures = kind != "projector", kind != "state"
    G = np.empty((n, D * D - D, D * D - D), dtype=complex)
    normals = np.empty((n, 2, D))
    crosstalk = np.empty((n, 2, D, D), dtype=complex)
    for j, (s, rng) in enumerate(zip(strength, rngs)):
        if perturbs and s > 0.0:
            G[j] = _draw_perturbation(D, rng)
        if measures:
            for photon in range(2):
                normals[j, photon], crosstalk[j, photon] = _frame_draws(D, s, rng)
    rho = base[None]
    if perturbs:
        live = strength > 0.0
        rho = np.repeat(rho, n, axis=0)
        rho[live] = _perturb(base, strength[live], G[live])
    if not measures:
        return _sv_witness(rho)
    try:
        with np.errstate(over="raise", invalid="raise"):
            frames = _frames(strength, normals, crosstalk)
    except FloatingPointError as exc:
        raise ConfigError(f"perturbation strengths up to {strength.max():g} make "
                          f"the projection frames overflow: {exc}") from exc
    return _seen_witness(rho, frames)


def robustness_study(state, kind: str, n_trials: int,
                     strength_max: float, seed: int) -> RobustnessResult:
    """Monte-Carlo perturbation sweep of the witness.

    kind: "state" (non-perfect correlations), "projector" (non-orthogonal
    projections) or "both".  Strengths ramp linearly from 0 to strength_max.
    Every kind and the baseline score the summed visibilities, the W that
    gets certified: the baseline and "state" trials through the brute-force
    path, "projector" and "both" trials through the perturbed frames.

    Trial i draws from its own stream SeedSequence((seed, 3, i)) what
    :func:`perturb_state` and then :func:`witness_with_perturbed_projectors`
    (this sweep's scorer on one trial) draw; :func:`_score_trials` scores
    the trials in stacks of `_CHUNK_BYTES` of density matrices.
    """
    from .oracle import _sv_witness
    from .states import _check_strength
    if kind not in ("state", "projector", "both"):
        raise ConfigError(f"unknown robustness kind {kind!r}")
    n_trials = _whole(n_trials, "trials")
    if n_trials < 1:
        raise ConfigError(f"need a whole number of trials >= 1, got {n_trials!r}")
    seed = _seed(seed)
    _check_strength(strength_max)
    base = state.embed().rho
    baseline = float(_sv_witness(base[None])[0])
    strengths = np.linspace(0.0, strength_max, n_trials)
    m = max(1, _CHUNK_BYTES // base.nbytes)
    W = np.concatenate([_score_trials(kind, base, strengths[i:i + m], [
        np.random.default_rng(np.random.SeedSequence((seed, 3, j)))
        for j in range(i, min(i + m, n_trials))]) for i in range(0, n_trials, m)])
    trials = [(float(s), float(w)) for s, w in zip(strengths, W)]
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
    subset_trajectory: list            # greedy (D', d, W) steps
    sigma: float | None = None
    n_resamples: int | None = None
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
            "subset_trajectory": [[dp, d] for dp, d, _ in self.subset_trajectory],
            "notes": self.notes,
        }
        return payload

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), sort_keys=True) + "\n")


def build_report(table: VisibilityTable, dataset: CoincidenceDataset | None = None,
                 n_resamples: int = 0, seed: int | None = None) -> WitnessReport:
    """Full certification report from a visibility table, with the greedy
    subset trajectory; the report's W and certified dimension are its first
    step, the full mode set.

    A W above the global cap 3 D(D-1)/2 is physically impossible and raises
    an integrity error rather than producing a report.  `n_resamples` is 0
    (no confidence interval) or at least 2.
    """
    n_resamples = _whole(n_resamples, "resamples")
    if n_resamples != 0 and n_resamples < 2:
        raise ConfigError(f"need 0 or at least 2 resamples, got {n_resamples}")
    trajectory = greedy_subset(table).trajectory
    D, certified_d, W = trajectory[0]
    if W > bound(D, D) + 1e-6:
        raise IntegrityError(
            f"W={W} exceeds the global cap {bound(D, D)}; the data is inconsistent")
    report = WitnessReport(
        W=W, D=D, certified_d=certified_d,
        bounds=[(d, bound(D, d)) for d in range(1, D + 1)],
        per_mode=list(per_mode_contribution(table)),
        subset_trajectory=trajectory,
    )
    if n_resamples:
        if dataset is None:
            raise ConfigError("confidence intervals require the counts dataset")
        _, sigma, closed = _bootstrap(dataset.tensor, n_resamples, _seed(seed))
        report.sigma = sigma
        report.n_resamples = n_resamples
        pairs, closed = D * (D - 1) // 2, int(closed.sum())
        report.notes.append(f"sigma: closed form on {closed} of {pairs} pairs, "
                            f"{n_resamples} resamples on {pairs - closed}")
    return report
