"""Brute-force ground truth at small D.

Everything here works from the explicit full D^2 x D^2 density matrix and
the literal definitions (project to each subspace, normalize, take the
operator trace), with no closed-form shortcuts.  It exists to check the
production paths and to put falsification pressure on the bounds.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError
from .measurement import BASES, _blocks as _cut_blocks
from .states import (CorrelatedState, DecompositionElement,
                     GeneralTwoPhotonState, _check_cap, state_from_elements)
from .modes import generic_mode_set

__all__ = [
    "brute_force_witness",
    "schmidt_rank",
    "random_correlated_mixture",
    "random_rank_d_search",
    "f_total",
]

# sx, sy, sz in the {|k>, |l>} sub-basis; the outcome vectors
# measurement._EIGVECS are their +1 and -1 eigenvectors
_PAULI2 = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# double-Pauli 4x4 operators on the (kk, kl, lk, ll) block, one per basis,
# and the correlation operator szsz - sysy + sxsx
_DOUBLE = {b: np.kron(_PAULI2[b], _PAULI2[b]) for b in BASES}
_G_OP = _DOUBLE["z"] - _DOUBLE["y"] + _DOUBLE["x"]


def _embedded(state) -> GeneralTwoPhotonState:
    """The state as an explicit full density matrix."""
    if isinstance(state, CorrelatedState):
        return state.embed()
    if not isinstance(state, GeneralTwoPhotonState):
        raise InvalidStateError(f"unsupported state type {type(state).__name__}")
    return state


def _blocks(state) -> tuple[np.ndarray, np.ndarray]:
    """The (kk, kl, lk, ll) blocks of every pair k < l, shape (pairs, 4, 4),
    cut from the explicit full density matrix, and their traces N_kl."""
    state = _embedded(state)
    blocks = _cut_blocks(state, *np.triu_indices(state.D, 1))
    return blocks, np.trace(blocks, axis1=1, axis2=2).real


def brute_force_witness(state) -> float:
    """Sum of g over all subspaces, from the explicit full density matrix.

    For each pair (k, l) the state is projected onto the span of
    {|kk>, |kl>, |lk>, |ll>}, normalized, and the correlation operator
    traced against it.  Zero-weight subspaces contribute 0.
    """
    blocks, N = _blocks(state)
    live = N > 0.0
    return float(np.sum(np.einsum("ij,pji->p", _G_OP, blocks[live]).real / N[live]))


def brute_force_sv_witness(state) -> float:
    """Sum of |<s_i x s_i>| visibilities over all subspaces (the measured W),
    same explicit projection path as :func:`brute_force_witness`."""
    blocks, N = _blocks(state)
    live = N > 0.0
    t = np.einsum("oij,pji->po", np.stack(list(_DOUBLE.values())), blocks[live]).real
    return float(np.sum(np.abs(t / N[live, None])))


def f_total(state) -> float:
    """Sum of the un-normalized correlations f_kl over all pairs."""
    blocks, _ = _blocks(state)
    return float(np.einsum("ij,pji->", _G_OP, blocks).real)


def schmidt_rank(M: np.ndarray, tol: float = 1e-10) -> int:
    """Schmidt rank of |psi> = sum_ij M_ij |i>|j>: singular values above
    tol times the largest one."""
    M = np.asarray(M, dtype=complex)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise InvalidStateError("zero amplitude matrix has no Schmidt rank")
    return int(np.count_nonzero(s > tol * s[0]))


def random_correlated_mixture(D: int, d: int,
                              rng: np.random.Generator) -> CorrelatedState:
    """Random mixture of 1 to 4 rank <= d correlated pure states with
    non-negative real amplitudes (random supports, Dirichlet weights)."""
    n_el = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(n_el))
    elements = []
    for w in weights:
        r = int(rng.integers(1, d + 1))
        support = tuple(sorted(rng.choice(D, size=r, replace=False).tolist()))
        amps = np.abs(rng.standard_normal(r)) + 1e-12
        amps /= np.linalg.norm(amps)
        elements.append(DecompositionElement(support, float(w), amps))
    return state_from_elements(elements, generic_mode_set(D))


def random_rank_d_search(D: int, d: int, iters: int,
                         rng: np.random.Generator) -> float:
    """Max brute-force witness over random rank <= d correlated mixtures."""
    _check_cap(D)
    best = -np.inf
    for _ in range(iters):
        state = random_correlated_mixture(D, d, rng)
        best = max(best, brute_force_witness(state))
    return float(best)
