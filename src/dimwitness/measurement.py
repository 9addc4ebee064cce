"""Two-dimensional subspace measurements.

For every mode pair (k, l) the three mutually unbiased bases are the x, y, z
eigenbases of the two-level operators

    sx = |k><l| + |l><k|,   sy = i|k><l| - i|l><k|,   sz = |k><k| - |l><l|.

Visibilities are V_i = |<s_i x s_i>| on the normalized 4-dimensional block
spanned by |kk>, |kl>, |lk>, |ll>; coincidence counts are Poisson samples of
the corresponding projector probabilities on the full (unnormalized) state.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IngestionError
from .modes import ModeIndex, ModeSet
from .states import CorrelatedState, GeneralTwoPhotonState

__all__ = [
    "BASES",
    "OUTCOMES",
    "SubspaceSetting",
    "VisibilityRecord",
    "CoincidenceDataset",
    "subspace_pauli",
    "subspace_density",
    "visibilities",
    "g_value",
    "f_value",
    "projector_set",
    "simulate_counts",
    "basis_visibilities",
    "estimate_visibilities",
    "estimate_records",
    "all_settings",
]

BASES = ("x", "y", "z")
OUTCOMES = ("pp", "pm", "mp", "mm")

# 2x2 operators in the {|k>, |l>} sub-basis
_PAULI2 = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# eigenvectors (+, -) of each 2x2 operator; y uses |+y> = (|k> + i|l>)/sqrt(2)
_EIGVECS = {
    "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "x": (np.array([1, 1], dtype=complex) / np.sqrt(2),
          np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "y": (np.array([1, 1j], dtype=complex) / np.sqrt(2),
          np.array([1, -1j], dtype=complex) / np.sqrt(2)),
}

# double-Pauli 4x4 operators on the (kk, kl, lk, ll) block, one per basis
_DOUBLE = {b: np.kron(_PAULI2[b], _PAULI2[b]) for b in BASES}
_G_OP = _DOUBLE["z"] - _DOUBLE["y"] + _DOUBLE["x"]

# outcome vectors u = v_s (x) v_t on the (kk, kl, lk, ll) block, per basis,
# ordered pp, pm, mp, mm
_OUTCOME_VECS = {
    b: np.array([np.kron(_EIGVECS[b][0 if s == "p" else 1],
                         _EIGVECS[b][0 if t == "p" else 1])
                 for s, t in OUTCOMES])
    for b in BASES
}


@dataclass(frozen=True)
class SubspaceSetting:
    """One measurement setting: a mode pair (flat indices, k < l) and a basis."""

    k: int
    l: int
    basis: str

    def __post_init__(self):
        if self.k == self.l:
            raise ConfigError("subspace requires two distinct modes")
        if self.basis not in BASES:
            raise ConfigError(f"unknown basis {self.basis!r}")


@dataclass(frozen=True)
class VisibilityRecord:
    """Visibilities of one subspace plus its population weight."""

    vx: float
    vy: float
    vz: float
    weight: float

    @property
    def sv(self) -> float:
        """Sum of the three visibilities."""
        return self.vx + self.vy + self.vz


@dataclass
class CoincidenceDataset:
    """Counts keyed by (k, l, basis, outcome), flat indices with k < l."""

    mode_set: ModeSet
    flux: float
    counts: dict = field(default_factory=dict)
    expectation: bool = False

    def add(self, k: int, l: int, basis: str, outcome: str, count) -> None:
        key = (k, l, basis, outcome)
        if not math.isfinite(count) or count < 0:
            raise IngestionError(f"count {count!r} at {key} must be finite and >= 0")
        if key in self.counts:
            raise IngestionError(f"duplicate count at {key}")
        self.counts[key] = count

    def count_array(self, pairs) -> np.ndarray:
        """Counts of the (k, l) pairs as a (pairs, 3 bases, 4 outcomes) array."""
        try:
            flat = [self.counts[(k, l, b, oc)]
                    for k, l in pairs for b in BASES for oc in OUTCOMES]
        except KeyError as exc:
            k, l, basis, oc = exc.args[0]
            ma, mb = self.mode_set[k], self.mode_set[l]
            raise IngestionError(
                f"dataset is missing count for pair (n={ma.n},l={ma.l})/"
                f"(n={mb.n},l={mb.l}), basis {basis}, outcome {oc}") from None
        return np.array(flat, dtype=float).reshape(len(pairs), 3, 4)

    def basis_counts(self, k: int, l: int, basis: str) -> np.ndarray:
        """The four outcome counts (pp, pm, mp, mm) of one setting."""
        return self.count_array([(k, l)])[0, BASES.index(basis)]


def all_settings(D: int) -> list[SubspaceSetting]:
    """Every (pair, basis) combination: 3 * D(D-1)/2 settings."""
    return [SubspaceSetting(k, l, b)
            for k in range(D) for l in range(k + 1, D) for b in BASES]


def subspace_pauli(dim: int, k: int, l: int, axis: str) -> np.ndarray:
    """The two-level operator sigma_axis^{kl} embedded in the dim-level space."""
    if k == l:
        raise ConfigError("subspace Pauli needs k != l")
    if axis not in BASES:
        raise ConfigError(f"unknown axis {axis!r}")
    op = np.zeros((dim, dim), dtype=complex)
    two = _PAULI2[axis]
    for a, i in ((0, k), (1, l)):
        for b, j in ((0, k), (1, l)):
            op[i, j] = two[a, b]
    return op


def _block(state, k: int, l: int) -> np.ndarray:
    """Unnormalized 4x4 restriction of the state to (kk, kl, lk, ll)."""
    B = np.zeros((4, 4), dtype=complex)
    if isinstance(state, CorrelatedState):
        c = state.coeffs
        B[0, 0] = c[k, k]
        B[0, 3] = c[k, l]
        B[3, 0] = c[l, k]
        B[3, 3] = c[l, l]
    elif isinstance(state, GeneralTwoPhotonState):
        D = state.D
        idx = [k * D + k, k * D + l, l * D + k, l * D + l]
        B[:] = state.rho[np.ix_(idx, idx)]
    else:
        raise ConfigError(f"unsupported state type {type(state).__name__}")
    return B


def subspace_density(state, k: int, l: int):
    """Normalized subspace density matrix and its weight N_kl.

    Returns the 4x4 zero matrix with N_kl = 0 when the subspace carries no
    population.
    """
    B = _block(state, k, l)
    N = float(np.trace(B).real)
    if N <= 0.0:
        return np.zeros((4, 4), dtype=complex), 0.0
    return B / N, N


def visibilities(state, k: int, l: int) -> VisibilityRecord:
    """Exact V_i = |<s_i x s_i>| on the normalized subspace (k, l)."""
    rho4, N = subspace_density(state, k, l)
    if N == 0.0:
        return VisibilityRecord(0.0, 0.0, 0.0, 0.0)
    vals = [abs(float(np.trace(_DOUBLE[b] @ rho4).real)) for b in BASES]
    return VisibilityRecord(vals[0], vals[1], vals[2], N)


def g_value(state, k: int, l: int) -> float:
    """Normalized subspace correlation Tr((szsz - sysy + sxsx) rho_kl)."""
    rho4, N = subspace_density(state, k, l)
    if N == 0.0:
        return 0.0
    return float(np.trace(_G_OP @ rho4).real)


def f_value(state, k: int, l: int) -> float:
    """Same correlation functional on the unnormalized full state."""
    return float(np.trace(_G_OP @ _block(state, k, l)).real)


def projector_set(dim: int, k: int, l: int, basis: str):
    """The four coincidence projectors (P_s, P_t), s,t in {+,-}, as pairs of
    dim x dim single-photon projectors, ordered pp, pm, mp, mm."""
    if not k < l:
        raise ConfigError("projector_set expects k < l")
    if basis not in BASES:
        raise ConfigError(f"unknown basis {basis!r}")
    plus, minus = _EIGVECS[basis]
    kets = []
    for two in (plus, minus):
        v = np.zeros(dim, dtype=complex)
        v[k], v[l] = two[0], two[1]
        kets.append(v)
    projs = [np.outer(v, v.conj()) for v in kets]
    return [(projs[0 if s == "p" else 1], projs[0 if t == "p" else 1])
            for s, t in OUTCOMES]


def outcome_probabilities(state, k: int, l: int, basis: str) -> np.ndarray:
    """Coincidence probabilities of the four outcomes on the full state."""
    B = _block(state, k, l)
    U = _OUTCOME_VECS[basis]
    p = np.einsum("ij,jk,ik->i", U.conj(), B, U).real
    return np.clip(p, 0.0, None)


def _setting_rng(seed: int, *key) -> np.random.Generator:
    # deterministic substream regardless of evaluation order
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def simulate_counts(state, flux: float, seed: int | None = None,
                    settings=None, expectation: bool = False,
                    share_populations: bool = False) -> CoincidenceDataset:
    """Forward model of the coincidence experiment.

    Every (setting, outcome) count is Poisson with mean flux * probability,
    the probability taken on the full state so that subspace weights are
    encoded in the rates.  With ``expectation=True`` the exact means are
    stored instead (no sampling, no seed needed).  ``share_populations``
    draws each z-basis population count once per ordered mode pair and
    reuses it across subspaces.
    """
    if flux <= 0:
        raise ConfigError("flux must be positive")
    if not expectation and seed is None:
        raise ConfigError("a seed is required unless expectation mode is set")
    D = state.mode_set.D
    if settings is None:
        settings = all_settings(D)
    ds = CoincidenceDataset(state.mode_set, float(flux), expectation=expectation)

    shared = {}
    if share_populations and not expectation:
        needed = {s for s in settings if s.basis == "z"}
        pairs = sorted({(i, j) for s in needed
                        for i in (s.k, s.l) for j in (s.k, s.l)})
        for i, j in pairs:
            p = _population(state, i, j)
            rng = _setting_rng(seed, 0, i, j)
            shared[(i, j)] = int(rng.poisson(flux * p))

    for s in sorted(settings, key=lambda s: (s.k, s.l, BASES.index(s.basis))):
        p = outcome_probabilities(state, s.k, s.l, s.basis)
        if expectation:
            counts = flux * p
        elif s.basis == "z" and share_populations:
            order = [(s.k, s.k), (s.k, s.l), (s.l, s.k), (s.l, s.l)]
            counts = [shared[ij] for ij in order]
        else:
            rng = _setting_rng(seed, 1, s.k, s.l, BASES.index(s.basis))
            counts = rng.poisson(flux * p)
        for oc, cnt in zip(OUTCOMES, counts):
            ds.add(s.k, s.l, s.basis, oc, float(cnt) if expectation else int(cnt))
    return ds


def _population(state, i: int, j: int) -> float:
    """<ij|rho|ij> on the full state."""
    if isinstance(state, CorrelatedState):
        return float(state.coeffs[i, i].real) if i == j else 0.0
    D = state.D
    return float(state.rho[i * D + j, i * D + j].real)


def basis_visibilities(counts) -> np.ndarray:
    """Visibilities |c_pp + c_mm - c_pm - c_mp| / total of counts (or
    probabilities) shaped (..., 3 bases, 4 outcomes), one per basis.

    A basis with no counts has visibility 0, and so has every basis of a
    subspace whose z basis has no counts.
    """
    counts = np.asarray(counts)
    tot = counts.sum(axis=-1)
    num = np.abs(counts[..., 0] + counts[..., 3] - counts[..., 1] - counts[..., 2])
    V = np.divide(num, tot, out=np.zeros(num.shape), where=tot > 0)
    V[tot[..., BASES.index("z")] == 0] = 0.0
    return V


def estimate_records(dataset: CoincidenceDataset, pairs) -> list[VisibilityRecord]:
    """Visibilities of each (k, l) pair from counts, each basis normalized by
    its own four counts.

    The subspace weight is taken from the z-basis populations, scaled by the
    dataset flux.
    """
    counts = dataset.count_array(pairs)
    V = basis_visibilities(counts)
    z_tot = counts[:, BASES.index("z")].sum(axis=1)
    weight = z_tot / dataset.flux if dataset.flux > 0 else np.zeros(len(z_tot))
    return [VisibilityRecord(*v, w) for v, w in zip(V.tolist(), weight.tolist())]


def estimate_visibilities(dataset: CoincidenceDataset, k: int, l: int) -> VisibilityRecord:
    """:func:`estimate_records` of the single pair (k, l)."""
    return estimate_records(dataset, [(k, l)])[0]


# ---------------------------------------------------------------------------
# Dataset files.  CSV header: na,la,nb,lb,basis,outcome,count -- modes of the
# two pair members, basis in {x,y,z}, outcome in {pp,pm,mp,mm}.  The JSON
# mirror carries the same keys plus the mode set and flux metadata.

CSV_HEADER = ["na", "la", "nb", "lb", "basis", "outcome", "count"]


def _count_str(c) -> str:
    return str(int(c)) if float(c).is_integer() else repr(float(c))


def _sorted_keys(dataset: CoincidenceDataset):
    return sorted(dataset.counts, key=lambda t: (t[0], t[1], BASES.index(t[2]),
                                                 OUTCOMES.index(t[3])))


def write_counts_csv(dataset: CoincidenceDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for k, l, basis, oc in _sorted_keys(dataset):
            ma, mb = dataset.mode_set[k], dataset.mode_set[l]
            w.writerow([ma.n, ma.l, mb.n, mb.l, basis, oc,
                        _count_str(dataset.counts[(k, l, basis, oc)])])


def read_counts_csv(path, mode_set: ModeSet | None = None,
                    flux: float | None = None) -> CoincidenceDataset:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise IngestionError(
                f"bad CSV header {reader.fieldnames}, expected {CSV_HEADER}")
        for row in reader:
            try:
                rows.append((ModeIndex(int(row["na"]), int(row["la"])),
                             ModeIndex(int(row["nb"]), int(row["lb"])),
                             row["basis"], row["outcome"], float(row["count"])))
            except (KeyError, ValueError) as exc:
                raise IngestionError(f"malformed CSV row {row}: {exc}") from exc
    if mode_set is None:
        seen = sorted({m for r in rows for m in (r[0], r[1])},
                      key=lambda m: (m.n, m.l))
        mode_set = ModeSet(tuple(seen))
    index = {m: i for i, m in enumerate(mode_set.modes)}
    total_z = sum(r[4] for r in rows if r[2] == "z")
    ds = CoincidenceDataset(mode_set, flux if flux is not None else total_z)
    swap = {"pp": "pp", "pm": "mp", "mp": "pm", "mm": "mm"}
    for ma, mb, basis, oc, cnt in rows:
        if basis not in BASES or oc not in OUTCOMES:
            raise IngestionError(f"unknown basis/outcome {basis!r}/{oc!r}")
        try:
            k, l = index[ma], index[mb]
        except KeyError as exc:
            raise IngestionError(f"mode {exc} not in the declared mode set") from exc
        if k > l:
            k, l, oc = l, k, swap[oc]
        ds.add(k, l, basis, oc, cnt)
    return ds


def write_counts_json(dataset: CoincidenceDataset, path) -> None:
    entries = []
    for k, l, basis, oc in _sorted_keys(dataset):
        ma, mb = dataset.mode_set[k], dataset.mode_set[l]
        entries.append({"na": ma.n, "la": ma.l, "nb": mb.n, "lb": mb.l,
                        "basis": basis, "outcome": oc,
                        "count": dataset.counts[(k, l, basis, oc)]})
    payload = {"modes": dataset.mode_set.to_json(), "flux": dataset.flux,
               "expectation": dataset.expectation, "counts": entries}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_counts_json(path) -> CoincidenceDataset:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        mode_set = ModeSet.from_json(payload["modes"])
        ds = CoincidenceDataset(mode_set, float(payload["flux"]),
                                expectation=bool(payload.get("expectation", False)))
        index = {(m.n, m.l): i for i, m in enumerate(mode_set.modes)}
        swap = {"pp": "pp", "pm": "mp", "mp": "pm", "mm": "mm"}
        for e in payload["counts"]:
            k = index[(int(e["na"]), int(e["la"]))]
            l = index[(int(e["nb"]), int(e["lb"]))]
            oc = e["outcome"]
            if k > l:
                k, l, oc = l, k, swap[oc]
            ds.add(k, l, e["basis"], oc, e["count"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestionError(f"malformed dataset file {path}: {exc}") from exc
    return ds
