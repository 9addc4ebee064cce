"""Two-dimensional subspace measurements.

For every mode pair (k, l) the three mutually unbiased bases are the x, y, z
eigenbases of the two-level operators

    sx = |k><l| + |l><k|,   sy = -i|k><l| + i|l><k|,   sz = |k><k| - |l><l|.

Visibilities are V_i = |<s_i x s_i>| on the normalized 4-dimensional block
spanned by |kk>, |kl>, |lk>, |ll>; coincidence counts are Poisson samples of
the corresponding projector probabilities on the full (unnormalized) state.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product, repeat
from types import MappingProxyType

import numpy as np

from .errors import (ConfigError, IngestionError, _flag, _json_array, _json_numbers, _reading,
                     _real, _whole)
from .modes import ModeIndex, ModeSet

__all__ = [
    "BASES",
    "OUTCOMES",
    "CoincidenceDataset",
    "outcome_probabilities",
    "simulate_counts",
    "basis_correlations",
    "read_counts_csv",
    "read_counts_json",
    "write_counts_csv",
    "write_counts_json",
]

BASES = ("x", "y", "z")
OUTCOMES = ("pp", "pm", "mp", "mm")

# eigenvectors (+, -) of sx, sy, sz in the {|k>, |l>} sub-basis, shape
# (3 bases, 2 signs, 2); y uses |+y> = (|k> + i|l>)/sqrt(2)
_EIGVECS = np.array([[[1, 1], [1, -1]], [[1, 1j], [1, -1j]], [[1, 0], [0, 1]]])
_EIGVECS /= np.linalg.norm(_EIGVECS, axis=-1, keepdims=True)

# outcome vectors u = v_s (x) v_t on the (kk, kl, lk, ll) block, shape
# (3 bases, 4 outcomes pp, pm, mp, mm, 4)
_U = np.einsum("bsi,btj->bstij", _EIGVECS, _EIGVECS).reshape(len(BASES), 4, 4)

_BASIS_ID = {b: i for i, b in enumerate(BASES)}
_OUTCOME_ID = {oc: i for i, oc in enumerate(OUTCOMES)}
# outcome index of a count read from the (l, k) side: pm <-> mp
_SWAP_OUTCOME = np.array([0, 2, 1, 3])


def pair_index(k, l, D: int):
    """Position of the pair (k, l), k < l, in row-major pair order; works
    elementwise on index arrays."""
    return k * (2 * D - k - 1) // 2 + (l - k - 1)


@lru_cache(maxsize=16)
def pairs(D: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (k, l), k < l, of D modes in row-major pair order: two
    read-only index arrays k and l, built once per D."""
    k, l = np.triu_indices(D, 1)
    k.flags.writeable = l.flags.writeable = False
    return k, l


def _slices(n: int, size: int):
    """Slices of `size` items that cover range(n) in order."""
    return (slice(i, i + size) for i in range(0, n, size))


@dataclass(eq=False)
class CoincidenceDataset:
    """Coincidence counts of a mode set.

    ``tensor`` holds every count, shape (pairs, 3 bases, 4 outcomes), pairs
    (k, l), k < l, in row-major order (:func:`pair_index`); a dataset with a
    count missing (NaN) or outside [0, `_COUNT_MAX`] is refused, and the
    tensor is made read-only once checked.  The flux (a float) must be positive
    and finite, or 0 without pairs; ``expectation`` is a bool.  ``counts`` is
    a read-only mapping of the same counts keyed by (k, l, basis, outcome).
    """

    mode_set: ModeSet
    flux: float
    tensor: np.ndarray
    expectation: bool = False

    def __post_init__(self):
        D = self.mode_set.D
        shape = (D * (D - 1) // 2, len(BASES), len(OUTCOMES))
        if np.shape(self.tensor) != shape:
            raise IngestionError(f"count tensor has shape {np.shape(self.tensor)}, "
                                 f"expected {shape}")
        bad = np.flatnonzero(~_counts_ok(self.tensor))
        if bad.size:  # a missing (NaN) count is bad too
            count = float(self.tensor.flat[bad[0]])
            if math.isnan(count):
                raise IngestionError(f"dataset is missing count for "
                                     f"{_cell(self.mode_set, bad[0])}")
            raise IngestionError(f"dataset has {_bad_count(self.mode_set, bad[0], count)}")
        self.flux = _real(self.flux, "flux", 0, above=len(self.tensor) > 0)
        self.expectation = _flag(self.expectation, "expectation")
        self.tensor.setflags(write=False)  # complete stays complete

    @property
    def counts(self) -> MappingProxyType:
        cells = self.tensor.reshape(-1)
        return MappingProxyType(dict(zip(_keys(self.mode_set.D, np.arange(cells.size)),
                                         cells.tolist())))


# The largest count a dataset holds.  Four counts up to it sum to at most
# np.finfo(float).max, so every per-basis total N and every A - B of
# basis_correlations stays finite, and so do the closed form's
# (1 - V^2) / N, which has no N^3 to overflow, and its sum over the bases.
_COUNT_MAX = np.finfo(float).max / 4


def _counts_ok(counts: np.ndarray) -> np.ndarray:
    """Which counts a dataset may hold: those in [0, `_COUNT_MAX`]; NaN
    compares False, so a missing count is not one."""
    return (counts >= 0) & (counts <= _COUNT_MAX)


def _keys(D: int, flat: np.ndarray):
    """(k, l, basis, outcome) of each flat position of a D-mode count tensor."""
    pair, setting = np.divmod(flat, len(BASES) * len(OUTCOMES))
    basis, outcome = np.divmod(setting, len(OUTCOMES))
    k, l = pairs(D)
    return zip(k[pair].tolist(), l[pair].tolist(), map(BASES.__getitem__, basis.tolist()),
               map(OUTCOMES.__getitem__, outcome.tolist()))


def _cell(mode_set: ModeSet, flat: int) -> str:
    """The cell at flat position `flat` of a count tensor of `mode_set`,
    named by its two modes, its basis and its outcome."""
    k, l, basis, outcome = next(_keys(mode_set.D, np.array([flat])))
    ma, mb = mode_set[k], mode_set[l]
    return (f"pair (n={ma.n},l={ma.l})/(n={mb.n},l={mb.l}), basis {basis}, "
            f"outcome {outcome}")


def _bad_count(mode_set: ModeSet, flat: int, count) -> str:
    """Why `count`, at flat position `flat` of a count tensor, is refused."""
    return (f"count {float(count)!r} for {_cell(mode_set, flat)}; counts must be "
            f">= 0 and <= {_COUNT_MAX:.6g}")


# pairs per block of outcome_probabilities and of the Poisson draw: a
# block's (pairs, 4, 4) complex blocks take 1 MB
_PROB_PAIRS = 4096


def outcome_probabilities(state) -> np.ndarray:
    """Coincidence probabilities on the full state of every pair, basis and
    outcome: shape (pairs, 3 bases, 4 outcomes), pairs in row-major order,
    worked out `_PROB_PAIRS` pairs at a time."""
    k, l = pairs(state.mode_set.D)
    p = np.empty((len(k), len(BASES), len(OUTCOMES)))
    for s in _slices(len(k), _PROB_PAIRS):
        p[s] = _block_probabilities(state.blocks(k[s], l[s]))
    return p


def _block_probabilities(blocks: np.ndarray) -> np.ndarray:
    """Outcome probabilities of (kk, kl, lk, ll) blocks stacked on any
    leading axes (..., pairs, 4, 4): shape (..., pairs, 3 bases, 4 outcomes)."""
    p = np.einsum("boj,...pjk,bok->...pbo", _U.conj(), blocks, _U).real
    return np.clip(p, 0.0, None)


# the largest Poisson mean numpy's Generator.poisson draws from; above it the
# draw fails with "lam value too large"
_POISSON_MAX = float(np.iinfo("l").max - 10 * np.sqrt(np.iinfo("l").max))


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
    flux = _real(flux, "flux", 0, above=True)
    expectation = _flag(expectation, "expectation")
    share_populations = _flag(share_populations, "share_populations")
    if not expectation:
        seed = _whole(seed, "seed", 0)
    counts = means = outcome_probabilities(state)
    means *= flux
    top = means.max(initial=0.0)
    if top > _COUNT_MAX:
        raise ConfigError(f"flux {flux!r} gives a mean count of {top:.6g}, above "
                          f"{_COUNT_MAX:.6g}, the largest count a dataset holds; "
                          f"lower the flux")
    if not expectation:
        if top > _POISSON_MAX:
            raise ConfigError(f"flux {flux!r} gives a Poisson mean of "
                              f"{top:.6g}, above {_POISSON_MAX:.6g}, the "
                              f"largest that can be sampled; lower the flux or "
                              f"set expectation mode")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        # block by block, the draws are those of one call on all the means
        counts = np.empty_like(means)
        for s in _slices(len(means), _PROB_PAIRS):
            counts[s] = rng.poisson(means[s])
        if share_populations:
            # the z outcomes pp, pm, mp, mm of pair (k, l) have the mean
            # populations <ij|rho|ij> of (k, k), (k, l), (l, k), (l, l)
            D = state.mode_set.D
            k, l = pairs(D)
            pop = np.zeros((D, D))
            pop[k, k], pop[k, l], pop[l, k], pop[l, l] = means[:, _BASIS_ID["z"]].T
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            pop = rng.poisson(pop).astype(float)
            counts[:, _BASIS_ID["z"]] = np.stack(
                [pop[k, k], pop[k, l], pop[l, k], pop[l, l]], axis=-1)
    return CoincidenceDataset(state.mode_set, flux, counts, expectation)


def basis_correlations(counts) -> tuple[np.ndarray, np.ndarray]:
    """Per basis of counts (or probabilities) >= 0 shaped (..., 3 bases,
    4 outcomes): the signed correlation E = (c_pp + c_mm - c_pm - c_mp) / N
    and the total N = c_pp + c_pm + c_mp + c_mm.  The visibility is |E|.

    E is 0 where N is 0, as every count is there, and on every basis of a
    subspace whose z basis has no counts.
    """
    counts = np.asarray(counts, dtype=float)
    # the same bytes as counts.sum(axis=-1), which reduces the 4 outcomes
    # row by row and takes about 5x as long
    N = counts[..., 0] + counts[..., 1] + counts[..., 2] + counts[..., 3]
    E = counts[..., 0] + counts[..., 3] - counts[..., 1] - counts[..., 2]
    np.divide(E, N, out=E, where=N > 0)
    E[N[..., _BASIS_ID["z"]] == 0] = 0.0
    return E, N


# ---------------------------------------------------------------------------
# Dataset files.  CSV header: na,la,nb,lb,basis,outcome,count -- modes of the
# two pair members, basis in {x,y,z}, outcome in {pp,pm,mp,mm}; rows in any
# order, a pair written from either side.  A JSON count file holds the
# dataset's own fields: "counts", the count tensor as nested lists ([pp, pm,
# mp, mm] per basis x, y, z per pair, pairs in row-major order), then
# "expectation", "flux" and "modes".

CSV_HEADER = ["na", "la", "nb", "lb", "basis", "outcome", "count"]

# One count row as the CSV reader parses it.  Tokens are kept as bytes (str
# fields cost four times the memory); three bytes hold every valid token plus
# one, so an over-long token stays invalid when it is cut to the field width.
_ROW = np.dtype([(name, np.int64) for name in CSV_HEADER[:4]]
                + [("basis", "S3"), ("outcome", "S3"), ("count", np.float64)])
# A view of a `_ROW` array: its six token bytes (basis, then outcome) and
# the next two as one little-endian integer; _TOKEN_BYTES masks off the two.
# _KEYS holds the sorted keys of the 12 valid token pairs, _KEY_SETTINGS
# their setting index basis * 4 + outcome.
_TOKEN_KEY = np.dtype({"names": ["key"], "formats": ["<u8"],
                       "offsets": [_ROW.fields["basis"][1]],
                       "itemsize": _ROW.itemsize})
_TOKEN_BYTES = np.uint64((1 << 48) - 1)
_TOKEN_PAIRS = sorted(
    (int.from_bytes(b.encode().ljust(3, b"\0") + o.encode().ljust(3, b"\0"), "little"),
     _BASIS_ID[b] * len(OUTCOMES) + _OUTCOME_ID[o]) for b, o in product(BASES, OUTCOMES))
_KEYS = np.array([key for key, _ in _TOKEN_PAIRS], dtype=np.uint64)
_KEY_SETTINGS = np.array([setting for _, setting in _TOKEN_PAIRS], dtype=np.int8)
# The setting index of each setting as read from the (k, l) side, then of
# each as read from the (l, k) side, where pm and mp trade places.
_SETTINGS = np.concatenate([np.arange(len(BASES) * len(OUTCOMES)),
                            np.add.outer(np.arange(len(BASES)) * len(OUTCOMES),
                                         _SWAP_OUTCOME).reshape(-1)]).astype(np.int8)

def _count_str(c) -> str:
    return str(int(c)) if float(c).is_integer() else repr(float(c))


def _count_values(values: np.ndarray, ints: bool = True) -> list:
    """The values, flattened, as Python numbers: the whole ones as int where
    `ints`, every other one as float."""
    values = values.reshape(-1)
    as_int = (values == np.floor(values)) & ints
    small = as_int & (np.abs(values) < 2.0 ** 63)  # whole numbers int64 holds
    if small.all():
        return values.astype(np.int64).tolist()
    out = values.tolist()
    big = as_int & ~small
    for where, whole in ((small, values[small].astype(np.int64).tolist()),
                         (big, map(int, values[big].tolist()))):
        for i, value in zip(np.flatnonzero(where).tolist(), whole):
            out[i] = value
    return out


# The 12 rows of one pair in (basis, outcome) order; each row's two %s take
# the pair's "na,la,nb,lb," and a count.  The line ends are the bytes
# csv.writer gives, and no field needs quoting.
_PAIR_ROWS = "".join(f"%s{b},{o},%s\r\n" for b in BASES for o in OUTCOMES)
# One pair's counts as json.dumps writes them, a %s per count.
_PAIR_COUNTS = "[%s]" % ", ".join(["[%s]" % ", ".join(["%s"] * len(OUTCOMES))] * len(BASES))

# pairs per block that a writer formats with one %
_WRITE_PAIRS = 1024


def write_counts_csv(dataset: CoincidenceDataset, path) -> None:
    """Every count as a row, `_count_str` of its value, pairs in row-major
    order, `_WRITE_PAIRS` pairs per write."""
    label = np.array([f"{m.n},{m.l}," for m in dataset.mode_set.modes], dtype=object)
    k, l = pairs(dataset.mode_set.D)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for s in _slices(len(k), _WRITE_PAIRS):
            labels = (label[k[s]] + label[l[s]]).tolist()
            fields = [None] * (2 * len(BASES) * len(OUTCOMES) * len(labels))
            fields[0::2] = chain.from_iterable(
                map(repeat, labels, repeat(len(BASES) * len(OUTCOMES))))
            fields[1::2] = _count_values(dataset.tensor[s])
            fh.write(_PAIR_ROWS * len(labels) % tuple(fields))


def _mode(n: int, l: int):
    """The mode (n, l), or the ConfigError that refuses it."""
    try:
        return ModeIndex(n, l)
    except ConfigError as exc:
        return exc


def _compact(rows: np.ndarray) -> tuple:
    """A chunk of count rows, a `_ROW` array, reduced to what `_dataset`
    needs.  Per run of rows of one pair (a file lists a pair's 12 counts
    together): its mode numbers na, la, nb and lb, one array each, and its
    length.  Per row: its setting index basis * 4 + outcome as read from the
    (na, la) side, -1 for an unknown token pair, and its count.  Last, the
    (basis, outcome) bytes of the first row with an unknown token pair, or
    None."""
    na, la, nb, lb = (rows[name] for name in CSV_HEADER[:4])
    # the rows where a run starts, then the end of the chunk
    edge = np.ones(len(rows) + 1, dtype=bool)
    edge[1:-1] = ((na[1:] != na[:-1]) | (la[1:] != la[:-1])
                  | (nb[1:] != nb[:-1]) | (lb[1:] != lb[:-1]))
    bounds = np.flatnonzero(edge)
    starts = bounds[:-1]
    # each row's token pair, looked up in one pass among the valid ones
    key = rows.view(_TOKEN_KEY)["key"] & _TOKEN_BYTES
    token = np.searchsorted(_KEYS, key)
    np.minimum(token, len(_KEYS) - 1, out=token)
    settings = np.where(_KEYS[token] == key, _KEY_SETTINGS[token], -1)
    unknown = None
    if settings.min(initial=0) < 0:
        i = int(np.argmax(settings < 0))
        unknown = rows["basis"][i], rows["outcome"][i]
    return (na[starts], la[starts], nb[starts], lb[starts], bounds[1:] - starts,
            settings, rows["count"].copy(), unknown)


def _dataset(chunks, mode_set: ModeSet | None, flux: float | None) -> CoincidenceDataset:
    """The dataset of count rows given as `_ROW` arrays, chunk by chunk;
    each is reduced by `_compact` as it comes.  Without `mode_set` it is
    every mode seen, sorted by (n, l); without `flux` it is the total
    z-basis count, which must be positive unless there are no rows.  The
    rows are accepted on checks over all of them at once; only if one fails
    is the first bad row named, with the first check it fails."""
    parts = [_compact(rows) for rows in chunks]
    *columns, unknowns = zip(*parts)
    # the modes are coded once per run: the runs' first modes, then their
    # second ones, sorted by (n, l) in one sort; a code is a mode's rank
    # among the distinct modes
    n, lq = np.concatenate(columns[0] + columns[2]), np.concatenate(columns[1] + columns[3])
    lengths, settings, counts = map(np.concatenate, columns[4:])
    unknown = next((u for u in unknowns if u is not None), None)
    del parts, columns  # the chunks' copies
    order = np.lexsort((lq, n))
    n, lq = n[order], lq[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (n[1:] != n[:-1]) | (lq[1:] != lq[:-1])
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    ia, ib = ids[:len(lengths)], ids[len(lengths):]
    n, lq = n[new].tolist(), lq[new].tolist()
    modes = None  # each mode or its ConfigError; for a declared set, only to name a bad row
    if mode_set is None:
        modes = list(map(_mode, n, lq))
        mode_set = ModeSet(tuple(m for m in modes if not isinstance(m, ConfigError)))
    D = mode_set.D
    # a refused or undeclared mode is in no mode set: it maps to -1
    index = {(m.n, m.l): i for i, m in enumerate(mode_set.modes)}
    remap = np.array([index.get(mode, -1) for mode in zip(n, lq)], dtype=np.intp)
    k, l = remap[ia], remap[ib]
    # a (b, a) row holds the (a, b) count with the photons swapped; an
    # unknown token's -1 indexes a setting too
    per_pair = len(BASES) * len(OUTCOMES)
    flat = np.repeat(pair_index(np.minimum(k, l), np.maximum(k, l), D) * per_pair, lengths)
    flat += _SETTINGS[np.where(np.repeat(k > l, lengths), settings + per_pair, settings)]
    tensor = np.full((D * (D - 1) // 2, len(BASES), len(OUTCOMES)), np.nan)
    cells = tensor.reshape(-1)
    accepted = (unknown is None and remap.min(initial=0) >= 0 and (k != l).all()
                and _counts_ok(counts).all())
    if accepted:
        cells[flat] = counts
    # every count is a number, so a repeated cell leaves fewer filled cells
    if not accepted or np.count_nonzero(np.isnan(cells)) > len(cells) - len(counts):
        if modes is None:
            modes = list(map(_mode, n, lq))
        refused = np.array([isinstance(m, ConfigError) for m in modes], dtype=bool)
        # per run, the first mode check it fails: 1 a refused mode number, 3
        # a mode not in the set, 4 a self pair (2 is the row's token check)
        run_check = np.select([refused[ia] | refused[ib], (k < 0) | (l < 0), k == l],
                              [1, 3, 4])
        ok = np.repeat(run_check == 0, lengths) & (settings >= 0) & _counts_ok(counts)
        # only the first row of each cell among the rows that pass passes
        good = np.flatnonzero(ok)
        failed = np.ones(len(counts), dtype=bool)
        failed[good[np.unique(flat[good], return_index=True)[1]]] = False
        i = int(np.argmax(failed))
        r = int(np.searchsorted(np.cumsum(lengths), i, side="right"))
        if run_check[r] == 1:
            exc = modes[min(c for c in (ia[r], ib[r]) if refused[c])]
            raise IngestionError(f"bad mode: {exc}") from exc
        if settings[i] < 0:  # so this is the first unknown token's row
            raise IngestionError("unknown basis/outcome {!r}/{!r}".format(
                *(t.decode("latin-1") for t in unknown)))
        if run_check[r] == 3:
            raise IngestionError(f"mode {modes[ia[r] if k[r] < 0 else ib[r]]!r} not in "
                                 f"the declared mode set")
        if run_check[r] == 4:
            raise IngestionError(f"row pairs mode {modes[ia[r]]!r} with itself")
        if not _counts_ok(counts[i]):
            raise IngestionError(_bad_count(mode_set, flat[i], counts[i]))
        raise IngestionError(f"duplicate count for {_cell(mode_set, flat[i])}")
    if flux is None:  # left to right in row order; np.sum adds pairwise
        z = counts[settings // len(OUTCOMES) == _BASIS_ID["z"]]
        flux = float(np.cumsum(z)[-1]) if z.size else 0.0
        if len(counts) and not flux > 0:
            raise IngestionError("the z-basis counts sum to 0, so no flux can be "
                                 "derived from them; give the flux")
    return CoincidenceDataset(mode_set, flux, tensor)


# data rows per np.loadtxt call of read_counts_csv; a chunk's `_ROW` records
# take 3 MB
_READ_ROWS = 65536


def _csv_chunks(fh, path):
    """The count rows of an open CSV file past its header, as `_ROW` arrays
    of up to `_READ_ROWS` rows; a malformed row is refused with its place
    among the file's data rows."""
    done = 0  # data rows of the chunks before
    while True:
        with warnings.catch_warnings():
            # numpy releases with loadtxt's int-via-float fallback cut a mode
            # field such as 2.5 to 2 with only a DeprecationWarning; as an
            # error loadtxt refuses it.  Blank lines are no rows, in a chunk
            # or in a body.
            warnings.filterwarnings("error", category=DeprecationWarning)
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data",
                                    UserWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            try:
                rows = np.loadtxt(fh, dtype=_ROW, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1, max_rows=_READ_ROWS)
            except ValueError as exc:
                # numpy numbers the data rows of one call
                message = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + done),
                                 str(exc), count=1)
                raise IngestionError(f"malformed CSV row in {path}: {message}") from exc
        yield rows
        if len(rows) < _READ_ROWS:
            return
        done += len(rows)


def read_counts_csv(path, mode_set: ModeSet | None = None,
                    flux: float | None = None) -> CoincidenceDataset:
    if flux is not None:
        flux = _real(flux, "flux", 0, above=True)
    with _reading("dataset file", path), open(path, newline="") as fh:
        line = fh.readline()  # a JSON count file is one line of megabytes
        header = next(csv.reader([line]))
        if header != CSV_HEADER:
            raise IngestionError(f"bad CSV header {line[:200].rstrip()!r}, "
                                 f"expected {','.join(CSV_HEADER)!r}")
        return _dataset(_csv_chunks(fh, path), mode_set, flux)


def write_counts_json(dataset: CoincidenceDataset, path) -> None:
    """The bytes of json.dumps(payload, sort_keys=True) and a newline, the
    counts written `_WRITE_PAIRS` pairs at a time: sampled whole counts as
    ints, expectation counts as floats."""
    rest = json.dumps({"modes": dataset.mode_set.to_json(), "flux": dataset.flux,
                       "expectation": dataset.expectation}, sort_keys=True)
    with open(path, "w") as fh:  # "counts" sorts first
        fh.write('{"counts": [')
        for s in _slices(len(dataset.tensor), _WRITE_PAIRS):
            block = dataset.tensor[s]
            fh.write(", " * (s.start > 0) + ", ".join([_PAIR_COUNTS] * len(block))
                     % tuple(_count_values(block, ints=not dataset.expectation)))
        fh.write("], " + rest[1:] + "\n")


def read_counts_json(path) -> CoincidenceDataset:
    with _reading("dataset file", path), open(path) as fh:
        payload = json.load(fh)
        mode_set = ModeSet.from_json(payload["modes"])
        flux = _json_array("flux", [payload["flux"]], "number").item()
        expectation = _json_array("expectation", [payload.get("expectation", False)],
                                  "boolean").item()
        D = mode_set.D
        tensor = _json_numbers("counts", payload["counts"],
                               (D * (D - 1) // 2, len(BASES), len(OUTCOMES)))
        # a NaN in a file is a bad count, as in a CSV file, not a missing one
        bad = np.flatnonzero(~_counts_ok(tensor))
        if bad.size and np.isnan(tensor.flat[bad[0]]):
            raise IngestionError(_bad_count(mode_set, bad[0], tensor.flat[bad[0]]))
        return CoincidenceDataset(mode_set, flux, tensor, expectation)
