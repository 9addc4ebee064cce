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
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .errors import ConfigError, IngestionError
from .modes import ModeIndex, ModeSet
from .states import CorrelatedState, GeneralTwoPhotonState

__all__ = [
    "BASES",
    "OUTCOMES",
    "CoincidenceDataset",
    "subspace_pauli",
    "subspace_density",
    "g_value",
    "f_value",
    "projector_set",
    "outcome_probabilities",
    "simulate_counts",
    "basis_visibilities",
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
# the same as one (3 bases, 4 outcomes, 4) array
_U = np.stack([_OUTCOME_VECS[b] for b in BASES])

_BASIS_ID = {b: i for i, b in enumerate(BASES)}
_OUTCOME_ID = {oc: i for i, oc in enumerate(OUTCOMES)}
# outcome index of a count read from the (l, k) side: pm <-> mp
_SWAP_OUTCOME = np.array([0, 2, 1, 3])


def pair_index(k, l, D: int):
    """Position of the pair (k, l), k < l, in row-major pair order; works
    elementwise on index arrays."""
    return k * (2 * D - k - 1) // 2 + (l - k - 1)


@dataclass(eq=False)
class CoincidenceDataset:
    """Coincidence counts of a mode set.

    ``tensor`` holds every count, shape (pairs, 3 bases, 4 outcomes), pairs
    (k, l), k < l, in row-major order (:func:`pair_index`); NaN marks a count
    that was not measured.  ``counts`` is a read-only view of the measured
    entries keyed by (k, l, basis, outcome).
    """

    mode_set: ModeSet
    flux: float
    expectation: bool = False
    tensor: np.ndarray = field(init=False)

    def __post_init__(self):
        D = self.mode_set.D
        self.tensor = np.full((D * (D - 1) // 2, len(BASES), len(OUTCOMES)), np.nan)

    @property
    def counts(self) -> "CountView":
        return CountView(self)

    def _flat(self, k, l, basis, outcome) -> int:
        """Flat tensor position of one count; KeyError if there is none."""
        D = self.mode_set.D
        if not (0 <= k < l < D and basis in _BASIS_ID and outcome in _OUTCOME_ID):
            raise KeyError((k, l, basis, outcome))
        return (pair_index(k, l, D) * 3 + _BASIS_ID[basis]) * 4 + _OUTCOME_ID[outcome]

    def _cells(self, flat: np.ndarray):
        """k, l, basis index and outcome index of each flat tensor position."""
        pair, rest = np.divmod(flat, len(BASES) * len(OUTCOMES))
        k, l = np.triu_indices(self.mode_set.D, 1)
        return k[pair], l[pair], rest // len(OUTCOMES), rest % len(OUTCOMES)

    def _keys(self, flat: np.ndarray):
        """(k, l, basis, outcome) of each flat tensor position."""
        k, l, b, o = self._cells(flat)
        return zip(k.tolist(), l.tolist(), map(BASES.__getitem__, b.tolist()),
                   map(OUTCOMES.__getitem__, o.tolist()))

    def add(self, k: int, l: int, basis: str, outcome: str, count) -> None:
        key = (k, l, basis, outcome)
        if not math.isfinite(count) or count < 0:
            raise IngestionError(f"count {count!r} at {key} must be finite and >= 0")
        try:
            flat = self._flat(*key)
        except KeyError:
            raise IngestionError(
                f"no count slot at {key}: need 0 <= k < l < {self.mode_set.D}, "
                f"basis in {BASES}, outcome in {OUTCOMES}") from None
        cells = self.tensor.reshape(-1)
        if not np.isnan(cells[flat]):
            raise IngestionError(f"duplicate count at {key}")
        cells[flat] = count

    def count_array(self, pairs) -> np.ndarray:
        """Counts of the (k, l) pairs as a (pairs, 3 bases, 4 outcomes) array."""
        D = self.mode_set.D
        kl = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        k, l = kl[:, 0], kl[:, 1]
        valid = (0 <= k) & (k < l) & (l < D)
        out = np.full((len(kl), len(BASES), len(OUTCOMES)), np.nan)
        out[valid] = self.tensor[pair_index(k[valid], l[valid], D)]
        missing = np.argwhere(np.isnan(out))
        if missing.size:
            p, b, o = missing[0]
            ma, mb = self.mode_set[k[p]], self.mode_set[l[p]]
            raise IngestionError(
                f"dataset is missing count for pair (n={ma.n},l={ma.l})/"
                f"(n={mb.n},l={mb.l}), basis {BASES[b]}, outcome {OUTCOMES[o]}")
        return out

    def basis_counts(self, k: int, l: int, basis: str) -> np.ndarray:
        """The four outcome counts (pp, pm, mp, mm) of one setting."""
        return self.count_array([(k, l)])[0, BASES.index(basis)]


class CountView(Mapping):
    """Read-only mapping (k, l, basis, outcome) -> count over the measured
    entries of a dataset's tensor, in tensor order."""

    def __init__(self, dataset: CoincidenceDataset):
        self._ds = dataset

    def __getitem__(self, key):
        try:
            value = self._ds.tensor.reshape(-1)[self._ds._flat(*key)]
        except TypeError:
            raise KeyError(key) from None
        if np.isnan(value):
            raise KeyError(key)
        return float(value)

    def __iter__(self):
        return self._ds._keys(np.flatnonzero(~np.isnan(self._ds.tensor)))

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self._ds.tensor)))


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


def _blocks(state, k, l) -> np.ndarray:
    """Unnormalized 4x4 restrictions of the state to (kk, kl, lk, ll), one per
    pair (k[i], l[i]) of the index arrays k, l: shape (pairs, 4, 4)."""
    if isinstance(state, CorrelatedState):
        c = state.coeffs
        B = np.zeros((len(k), 4, 4), dtype=complex)
        B[:, 0, 0], B[:, 0, 3], B[:, 3, 0], B[:, 3, 3] = c[k, k], c[k, l], c[l, k], c[l, l]
        return B
    if isinstance(state, GeneralTwoPhotonState):
        D = state.D
        idx = np.stack([k * D + k, k * D + l, l * D + k, l * D + l], axis=-1)
        return state.rho[idx[:, :, None], idx[:, None, :]]
    raise ConfigError(f"unsupported state type {type(state).__name__}")


def _block(state, k: int, l: int) -> np.ndarray:
    """Unnormalized 4x4 restriction of the state to (kk, kl, lk, ll)."""
    return _blocks(state, np.array([k]), np.array([l]))[0]


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


def outcome_probabilities(state) -> np.ndarray:
    """Coincidence probabilities on the full state of every pair, basis and
    outcome: shape (pairs, 3 bases, 4 outcomes), pairs in row-major order."""
    k, l = np.triu_indices(state.mode_set.D, 1)
    p = np.einsum("boj,pjk,bok->pbo", _U.conj(), _blocks(state, k, l), _U).real
    return np.clip(p, 0.0, None)


def simulate_counts(state, flux: float, seed: int | None = None,
                    expectation: bool = False,
                    share_populations: bool = False) -> CoincidenceDataset:
    """Forward model of the coincidence experiment.

    Every (setting, outcome) count is Poisson with mean flux * probability,
    the probability taken on the full state so that subspace weights are
    encoded in the rates.  With ``expectation=True`` the exact means are
    stored instead (no sampling, no seed needed).  ``share_populations``
    draws each z-basis population count once per ordered mode pair and
    reuses it across subspaces.

    Seeding: one stream from ``SeedSequence((seed, 1))`` draws the whole
    canonical count tensor, and one from ``SeedSequence((seed, 0))`` the
    D x D population counts.
    """
    if not flux > 0 or not math.isfinite(flux):
        raise ConfigError(f"flux must be positive and finite, got {flux!r}")
    if not expectation and seed is None:
        raise ConfigError("a seed is required unless expectation mode is set")
    counts = flux * outcome_probabilities(state)
    if not expectation:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        counts = rng.poisson(counts).astype(float)
        if share_populations:
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            pop = rng.poisson(flux * _populations(state)).astype(float)
            k, l = np.triu_indices(state.mode_set.D, 1)
            counts[:, _BASIS_ID["z"]] = np.stack(
                [pop[k, k], pop[k, l], pop[l, k], pop[l, l]], axis=-1)
    ds = CoincidenceDataset(state.mode_set, float(flux), expectation=expectation)
    ds.tensor[:] = counts
    return ds


def _populations(state) -> np.ndarray:
    """D x D matrix of <ij|rho|ij> on the full state."""
    if isinstance(state, CorrelatedState):
        pop = np.diag(state.coeffs.diagonal().real)
    else:
        pop = state.rho.diagonal().real.reshape(state.D, state.D)
    return np.clip(pop, 0.0, None)


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


# ---------------------------------------------------------------------------
# Dataset files.  CSV header: na,la,nb,lb,basis,outcome,count -- modes of the
# two pair members, basis in {x,y,z}, outcome in {pp,pm,mp,mm}.  The JSON
# mirror carries the same keys plus the mode set and flux metadata.

CSV_HEADER = ["na", "la", "nb", "lb", "basis", "outcome", "count"]

# rows parsed per chunk by the readers
_CHUNK_ROWS = 1024


def _count_str(c) -> str:
    return str(int(c)) if float(c).is_integer() else repr(float(c))


def _count_values(values: np.ndarray, as_int: np.ndarray) -> list:
    """The values as Python numbers: int where `as_int`, float elsewhere."""
    out = np.array(values.tolist(), dtype=object)
    out[as_int] = list(map(int, values[as_int].tolist()))
    return out.tolist()


def _columns(dataset: CoincidenceDataset):
    """Columns (na, la, nb, lb, basis, outcome) and the counts of every
    measured entry, in (k, l, basis, outcome) order."""
    cells = dataset.tensor.reshape(-1)
    flat = np.flatnonzero(~np.isnan(cells))
    k, l, b, o = dataset._cells(flat)
    n = np.array([m.n for m in dataset.mode_set.modes], dtype=np.int64)
    lq = np.array([m.l for m in dataset.mode_set.modes], dtype=np.int64)
    return ((n[k].tolist(), lq[k].tolist(), n[l].tolist(), lq[l].tolist(),
             np.array(BASES)[b].tolist(), np.array(OUTCOMES)[o].tolist()),
            cells[flat])


def write_counts_csv(dataset: CoincidenceDataset, path) -> None:
    cols, values = _columns(dataset)
    # _count_str of every value: whole numbers as ints
    strs = list(map(str, _count_values(values, values == np.floor(values))))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(zip(*cols, strs))


class _Rows:
    """Count rows gathered chunk by chunk into arrays: both modes of each row
    as ids into ``modes``, basis and outcome indices, counts."""

    def __init__(self):
        self.ids = {}       # raw (n, l) cells -> mode id
        self.modes = {}     # ModeIndex -> mode id
        self.parts = []

    def add(self, rows: list, counts) -> None:
        """Add a chunk of 7-field rows; `counts` parses the count column."""
        if set(map(len, rows)) != {len(CSV_HEADER)}:
            bad = next(r for r in rows if len(r) != len(CSV_HEADER))
            raise IngestionError(f"malformed row {bad}: expected "
                                 f"{len(CSV_HEADER)} fields")
        na, la, nb, lb, basis, outcome, count = (
            list(map(itemgetter(i), rows)) for i in range(len(CSV_HEADER)))
        a, b = list(zip(na, la)), list(zip(nb, lb))
        for cell in set(a).union(b).difference(self.ids):
            try:
                mode = ModeIndex(int(cell[0]), int(cell[1]))
            except ConfigError as exc:
                raise IngestionError(f"bad mode {cell}: {exc}") from exc
            self.ids[cell] = self.modes.setdefault(mode, len(self.modes))
        n = len(rows)
        bi = np.fromiter(map(_BASIS_ID.get, basis, repeat(-1)), np.intp, n)
        oi = np.fromiter(map(_OUTCOME_ID.get, outcome, repeat(-1)), np.intp, n)
        if (bi < 0).any() or (oi < 0).any():
            i = int(np.argmax((bi < 0) | (oi < 0)))
            raise IngestionError(f"unknown basis/outcome {basis[i]!r}/{outcome[i]!r}")
        self.parts.append((np.fromiter(map(self.ids.__getitem__, a), np.intp, n),
                           np.fromiter(map(self.ids.__getitem__, b), np.intp, n),
                           bi, oi, counts(count)))

    def dataset(self, mode_set: ModeSet | None, flux: float | None,
                expectation: bool = False) -> CoincidenceDataset:
        """The dataset of all rows.  Without `mode_set` it is every mode seen,
        sorted by (n, l); without `flux` it is the total z-basis count."""
        empty = [np.zeros(0, dtype=np.intp)] * 4 + [np.zeros(0)]
        ia, ib, bi, oi, counts = (np.concatenate(c) for c in zip(empty, *self.parts))
        modes = list(self.modes)
        if mode_set is None:
            mode_set = ModeSet(tuple(sorted(modes, key=lambda m: (m.n, m.l))))
        index = {m: i for i, m in enumerate(mode_set.modes)}
        remap = np.array([index.get(m, -1) for m in modes], dtype=np.intp)
        k, l = remap[ia], remap[ib]
        if (k < 0).any() or (l < 0).any():
            i = int(np.argmax((k < 0) | (l < 0)))
            raise IngestionError(f"mode {modes[ia[i] if k[i] < 0 else ib[i]]!r} "
                                 f"not in the declared mode set")
        if (k == l).any():
            raise IngestionError(f"row pairs mode {modes[ia[np.argmax(k == l)]]!r} "
                                 f"with itself")
        # a (b, a) row holds the (a, b) count with the photons swapped
        swap = k > l
        k, l = np.where(swap, l, k), np.where(swap, k, l)
        oi = np.where(swap, _SWAP_OUTCOME[oi], oi)
        if flux is None:  # left to right in row order; np.sum adds pairwise
            z = counts[bi == _BASIS_ID["z"]]
            flux = float(np.cumsum(z)[-1]) if z.size else 0.0
        ds = CoincidenceDataset(mode_set, flux, expectation=expectation)
        flat = (pair_index(k, l, mode_set.D) * 3 + bi) * 4 + oi
        bad = ~(np.isfinite(counts) & (counts >= 0))
        if bad.any():
            i = int(np.argmax(bad))
            key = next(ds._keys(flat[i:i + 1]))
            raise IngestionError(f"count {float(counts[i])!r} at {key} must be "
                                 f"finite and >= 0")
        cells, repeats = np.unique(flat, return_counts=True)
        if (repeats > 1).any():
            key = next(ds._keys(cells[repeats > 1][:1]))
            raise IngestionError(f"duplicate count at {key}")
        ds.tensor.reshape(-1)[flat] = counts
        return ds


def _parse_counts(cells) -> np.ndarray:
    return np.fromiter(map(float, cells), float, len(cells))


def read_counts_csv(path, mode_set: ModeSet | None = None,
                    flux: float | None = None) -> CoincidenceDataset:
    rows = _Rows()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise IngestionError(f"bad CSV header {header}, expected {CSV_HEADER}")
        lines = filter(None, reader)  # skip blank lines
        try:
            while chunk := list(islice(lines, _CHUNK_ROWS)):
                rows.add(chunk, _parse_counts)
        except ValueError as exc:
            raise IngestionError(f"malformed CSV row in {path}: {exc}") from exc
    return rows.dataset(mode_set, flux)


def write_counts_json(dataset: CoincidenceDataset, path) -> None:
    cols, values = _columns(dataset)
    # sampled counts are written as ints, expectation values as floats
    counts = _count_values(values, (values == np.floor(values))
                           & (not dataset.expectation))
    entries = list(map(dict, map(zip, repeat(CSV_HEADER), zip(*cols, counts))))
    payload = {"modes": dataset.mode_set.to_json(), "flux": dataset.flux,
               "expectation": dataset.expectation, "counts": entries}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def _number_counts(cells) -> np.ndarray:
    if not set(map(type, cells)) <= {int, float}:
        raise TypeError("counts must be numbers")
    return _parse_counts(cells)


def read_counts_json(path) -> CoincidenceDataset:
    with open(path) as fh:
        payload = json.load(fh)
    rows = _Rows()
    try:
        mode_set = ModeSet.from_json(payload["modes"])
        flux = float(payload["flux"])
        expectation = bool(payload.get("expectation", False))
        entries = map(itemgetter(*CSV_HEADER), payload["counts"])
        while chunk := list(islice(entries, _CHUNK_ROWS)):
            rows.add(chunk, _number_counts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestionError(f"malformed dataset file {path}: {exc}") from exc
    return rows.dataset(mode_set, flux, expectation)
