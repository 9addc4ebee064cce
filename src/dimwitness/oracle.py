"""Brute-force ground truth at small D.

Everything here works from the explicit full D^2 x D^2 density matrix and
the literal definitions (project to each subspace, normalize, take the
operator trace), with no closed-form shortcuts.  It exists to check the
production paths and to put falsification pressure on the bounds.  The
searches work on stacks of states: one (n, D, D) coefficient array, embedded
chunk by chunk into (m, D^2, D^2) density matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError, _whole
from .measurement import BASES, pairs
from .states import CorrelatedState, _check_cap, _cut_blocks, _embed
from .modes import generic_mode_set

__all__ = [
    "brute_force_witness",
    "brute_force_sv_witness",
    "schmidt_rank",
    "random_correlated_mixture",
    "random_rank_d_search",
]

# sx, sy, sz in the {|k>, |l>} sub-basis; the outcome vectors
# measurement._EIGVECS are their +1 and -1 eigenvectors
_PAULI2 = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# double-Pauli 4x4 operators on the (kk, kl, lk, ll) block, one per basis in
# BASES order, and the signs that combine them into the correlation operator
# szsz - sysy + sxsx
_DOUBLE = np.stack([np.kron(_PAULI2[b], _PAULI2[b]) for b in BASES])
_G_SIGNS = np.array([1.0, -1.0, 1.0])

# size of the (m, D^2, D^2) complex density-matrix chunks that
# random_rank_d_search embeds one at a time
_CHUNK_BYTES = 1 << 20

# a random mixture has 1 to _MAX_ELEMENTS pure components
_MAX_ELEMENTS = 4

# schmidt_rank counts the singular values above this fraction of the largest
_SCHMIDT_TOL = 1e-10


def _traces(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of explicit full density matrices (m, D^2, D^2): the
    (kk, kl, lk, ll) block of every pair k < l traced against each
    double-Pauli operator, shape (m, pairs, 3 bases), and the blocks' own
    traces N_kl, shape (m, pairs)."""
    blocks = _cut_blocks(rho, *pairs(math.isqrt(rho.shape[-1])))
    # both in C order: numpy reduces in memory order, and a state's sums must
    # not depend on the size of the stack it is scored in
    t = np.einsum("bij,mpji->mpb", _DOUBLE, blocks, order="C").real
    diag = np.ascontiguousarray(blocks.diagonal(axis1=-2, axis2=-1))
    return t, diag.sum(axis=-1).real


def _correlations(rho: np.ndarray) -> np.ndarray:
    """<s_b x s_b> of every pair's block normalized to unit trace, shape
    (m, pairs, 3 bases); 0 on pairs of zero weight."""
    t, N = _traces(rho)
    N = N[..., None]
    return np.divide(t, N, out=np.zeros_like(t), where=N > 0.0)


def _one(state) -> np.ndarray:
    """A single state as a stack of one density matrix."""
    return state.embed().rho[None]


def brute_force_witness(state) -> float:
    """Sum of the signed correlations g over all subspaces, from the
    explicit full density matrix.  No package path scores with it (they all
    score :func:`brute_force_sv_witness`); perfbench/spans.py traces it.

    For each pair (k, l) the state is projected onto the span of
    {|kk>, |kl>, |lk>, |ll>}, normalized, and the correlation operator
    traced against it.  Zero-weight subspaces contribute 0.
    """
    return float(np.sum(_correlations(_one(state)) @ _G_SIGNS))


def _sv_witness(rho: np.ndarray) -> np.ndarray:
    """Summed |<s_b x s_b>| visibilities of each state in a stack, shape (m,)."""
    return np.abs(_correlations(rho)).sum(axis=(1, 2))


def brute_force_sv_witness(state) -> float:
    """Sum of |<s_i x s_i>| visibilities over all subspaces (the measured W),
    from each subspace's block of the explicit full density matrix,
    normalized to unit trace; zero-weight subspaces contribute 0."""
    return float(_sv_witness(_one(state))[0])


def schmidt_rank(M: np.ndarray) -> int:
    """Schmidt rank of |psi> = sum_ij M_ij |i>|j>: singular values above
    _SCHMIDT_TOL times the largest one."""
    M = np.asarray(M, dtype=complex)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise InvalidStateError("zero amplitude matrix has no Schmidt rank")
    return int(np.count_nonzero(s > _SCHMIDT_TOL * s[0]))


def _random_mixtures(D: int, d: int, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Coefficient matrices c, shape (n, D, D), of n random mixtures of 1 to 4
    rank <= d correlated pure states with non-negative real amplitudes, drawn
    as whole arrays in this order (E = _MAX_ELEMENTS): 1. element counts (n,);
    2. Exp(1) weights (n, E), normalized over each state's first count
    elements: Dirichlet(1, ..., 1); 3. ranks r (n, E); 4. a place for each
    mode, a permutation of 0..D-1 per element (n, E, D): the modes placed
    below r form a uniform support; 5. unit-norm amplitudes from
    |N(0, 1)| + 1e-12 draws (n, E, D), 0 off the support.

    Non-negative amplitudes miss no worst case of W in the class.  Take
    c = sum_i p_i v_i v_i^H with |supp v_i| <= d.  Then |Re c_kl| <= |c_kl|
    <= sum_i p_i |v_ik| |v_il|, the (k, l) entry of the mixture of the |v_i|,
    which has the same diagonal and Schmidt number.  W reads c only through
    its diagonal and |Re c_kl|, and grows with |Re c_kl|, so that |v| twin
    has a W at least as large."""
    E = _MAX_ELEMENTS
    n_el = rng.integers(1, E + 1, size=n)
    weights = rng.standard_exponential((n, E)) * (np.arange(E) < n_el[:, None])
    weights /= weights.sum(axis=1, keepdims=True)
    r = rng.integers(1, d + 1, size=(n, E))
    place = rng.permuted(np.broadcast_to(np.arange(D), (n, E, D)), axis=-1)
    amps = (np.abs(rng.standard_normal((n, E, D))) + 1e-12) * (place < r[..., None])
    amps /= np.sqrt(np.sum(amps * amps, axis=-1, keepdims=True))
    # c = sum_alpha p_alpha lambda lambda^T, element by element: the terms
    # and their order of addition are those of state_from_elements
    c = np.zeros((n, D, D), dtype=complex)
    for e in range(E):
        v = amps[:, e]
        c += weights[:, e, None, None] * (v[:, :, None] * v[:, None, :])
    return c


def random_correlated_mixture(D: int, d: int,
                              rng: np.random.Generator) -> CorrelatedState:
    """Random mixture of 1 to 4 rank <= d correlated pure states with
    non-negative real amplitudes (random supports, Dirichlet weights)."""
    _check_cap(D := _whole(D, "D", 1))
    d = _whole(d, "d", 1, D)
    return CorrelatedState(_random_mixtures(D, d, 1, rng)[0], generic_mode_set(D))


def random_rank_d_search(D: int, d: int, iters: int,
                         rng: np.random.Generator) -> float:
    """Max brute-force summed-visibility W over `iters` random rank <= d
    correlated mixtures (one _random_mixtures stack, with the law of
    random_correlated_mixture), scored chunk by chunk from their density matrices."""
    _check_cap(D := _whole(D, "D", 1))
    d, iters = _whole(d, "d", 1, D), _whole(iters, "iters", 1)
    coeffs = _random_mixtures(D, d, iters, rng)
    m = max(1, _CHUNK_BYTES // (16 * D**4))
    best = -np.inf
    for i in range(0, iters, m):
        best = max(best, float(_sv_witness(_embed(coeffs[i:i + m])).max()))
    return best
