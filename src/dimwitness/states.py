"""Two-photon state construction and validation.

Two representations are used:

* ``CorrelatedState`` stores only the D x D coefficient matrix c_kl of a
  perfectly correlated state rho = sum_kl c_kl |kk><ll|.  The flat index k
  labels the photon pair (|LG_{n,l}>_A, |LG_{n,-l}>_B); the OAM
  anti-correlation is absorbed into this pairing.
* ``GeneralTwoPhotonState`` stores the full D^2 x D^2 density matrix and is
  only allowed for small D (the fixed cap ``SMALL_D_CAP`` = 8), where
  brute-force work is feasible.

Both give ``blocks(k, l)``, the (kk, kl, lk, ll) block of each mode pair
(all that measurement needs), and ``embed()``, the full density matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (CapacityError, ConfigError, IngestionError, InvalidStateError,
                     _json_numbers, _reading, _real, _whole)
from .modes import ModeSet, generic_mode_set

__all__ = [
    "SMALL_D_CAP",
    "CorrelatedState",
    "GeneralTwoPhotonState",
    "DecompositionElement",
    "correlated_pure",
    "maximally_entangled",
    "max_witness_state",
    "state_from_elements",
    "spdc_profile",
    "amplitudes_from_rates",
    "perturb_state",
    "save_state",
    "load_state",
]

SMALL_D_CAP = 8

_EIG_TOL = 1e-9
_TRACE_TOL = 1e-9


def _check_cap(D: int) -> None:
    if D > SMALL_D_CAP:
        raise CapacityError(f"D={D} exceeds the small-D cap {SMALL_D_CAP}")


def _check_density(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise InvalidStateError(f"{name}: matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -_EIG_TOL:
        raise InvalidStateError(f"{name}: negative eigenvalue {eigs.min():.3e}")
    tr = float(np.trace(mat).real)
    if not (0.0 < tr <= 1.0 + _TRACE_TOL):
        raise InvalidStateError(f"{name}: trace {tr} outside (0, 1]")


@dataclass(frozen=True)
class CorrelatedState:
    """rho = sum_kl c_kl |kk><ll| with Hermitian PSD c and 0 < Tr(c) <= 1."""

    coeffs: np.ndarray
    mode_set: ModeSet

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.D, self.D):
            raise InvalidStateError(
                f"coefficient matrix shape {c.shape} does not match D={self.D}")

    @property
    def D(self) -> int:
        return self.mode_set.D

    def validate(self) -> None:
        _check_density(self.coeffs, "CorrelatedState")

    def blocks(self, k, l) -> np.ndarray:
        """Unnormalized (kk, kl, lk, ll) blocks, one per pair (k[i], l[i]):
        shape (pairs, 4, 4), built from four corners of c alone."""
        c = self.coeffs
        B = np.zeros((len(k), 4, 4), dtype=complex)
        B[:, 0, 0], B[:, 0, 3], B[:, 3, 0], B[:, 3, 3] = c[k, k], c[k, l], c[l, k], c[l, l]
        return B

    def embed(self) -> "GeneralTwoPhotonState":
        """Exact embedding into the full D^2 x D^2 representation."""
        return GeneralTwoPhotonState(_embed(self.coeffs), self.mode_set)


def _embed(coeffs: np.ndarray) -> np.ndarray:
    """Unit-trace D^2 x D^2 density matrices of coefficient matrices c_kl
    stacked on any leading axes: c_kl at row kk, column ll."""
    D = coeffs.shape[-1]
    _check_cap(D)
    # the trace is summed over the D^2-long diagonal of rho, zeros in place,
    # as np.trace of the dense rho sums it: numpy's pairwise sum groups the
    # terms by their place, and np.trace(c) groups them otherwise from D = 3
    # on, which moves the last digit of every entry
    tr = np.zeros(coeffs.shape[:-2] + (D * D,), dtype=complex)
    tr[..., ::D + 1] = coeffs.diagonal(axis1=-2, axis2=-1)
    rho = np.zeros(coeffs.shape[:-2] + (D * D, D * D), dtype=complex)
    diag = np.arange(D) * (D + 1)
    rho[..., diag[:, None], diag] = coeffs / tr.sum(axis=-1).real[..., None, None]
    return rho


def _cut_blocks(rho: np.ndarray, k, l) -> np.ndarray:
    """The (kk, kl, lk, ll) blocks of D^2 x D^2 density matrices stacked on
    any leading axes, one per pair (k[i], l[i]): shape (..., pairs, 4, 4)."""
    D = math.isqrt(rho.shape[-1])
    idx = np.stack([k * D + k, k * D + l, l * D + k, l * D + l], axis=-1)
    return rho[..., idx[:, :, None], idx[:, None, :]]


@dataclass(frozen=True)
class GeneralTwoPhotonState:
    """Full two-photon density matrix on the D x D mode space."""

    rho: np.ndarray
    mode_set: ModeSet

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        D = self.D
        _check_cap(D)
        if rho.shape != (D * D, D * D):
            raise InvalidStateError(
                f"density matrix shape {rho.shape} does not match D^2={D * D}")

    @property
    def D(self) -> int:
        return self.mode_set.D

    def blocks(self, k, l) -> np.ndarray:
        """Unnormalized (kk, kl, lk, ll) blocks of rho: shape (pairs, 4, 4)."""
        return _cut_blocks(self.rho, k, l)

    def embed(self) -> "GeneralTwoPhotonState":
        """The state itself, already in the full representation."""
        return self

    def validate(self) -> None:
        _check_density(self.rho, "GeneralTwoPhotonState")
        tr = float(np.trace(self.rho).real)
        if abs(tr - 1.0) > 1e-7:
            raise InvalidStateError(f"GeneralTwoPhotonState: trace {tr} != 1")


@dataclass(frozen=True)
class DecompositionElement:
    """One pure component |psi_alpha> = sum_{k in alpha} lambda_k |kk> of a
    correlated mixed state, with mixing weight p_alpha."""

    support: tuple[int, ...]
    weight: float
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amps)
        if len(self.support) != amps.size:
            raise InvalidStateError("support and amplitude lengths differ")
        weight = _real(self.weight, "weight", 0)
        if weight > 1.0 + 1e-12:
            raise InvalidStateError(f"weight {weight} outside [0,1]")
        object.__setattr__(self, "weight", weight)
        if abs(np.sum(amps**2) - 1.0) > 1e-9:
            raise InvalidStateError("element amplitudes are not normalized")


def correlated_pure(amplitudes, mode_set: ModeSet) -> CorrelatedState:
    """Rank-1 correlated state c_kl = a_k conj(a_l) / sum|a|^2.

    c does not depend on the scale of a, so amplitudes whose max|a|^2 is
    below the smallest normal float are first divided by max|a|: the
    products a_k conj(a_l) stay normal floats.
    """
    a = np.asarray(amplitudes, dtype=complex).ravel()
    if a.size != mode_set.D:
        raise InvalidStateError(
            f"amplitude vector length {a.size} does not match D={mode_set.D}")
    if not np.isfinite(a).all():
        raise InvalidStateError(f"amplitudes must be finite, got {amplitudes!r}")
    if not a.any():
        raise InvalidStateError("amplitude vector is identically zero")
    with np.errstate(over="ignore"):
        m = np.abs(a).max()
        if m < math.sqrt(np.finfo(float).tiny):
            a = a.real / m + 1j * (a.imag / m)  # a complex divided by a subnormal overflows
        norm2 = float(np.sum(np.abs(a) ** 2))
    if norm2 == np.inf:
        raise InvalidStateError("the squared norm of the amplitudes overflows float64")
    c = np.outer(a, a.conj()) / norm2
    return CorrelatedState(c, mode_set)


def maximally_entangled(D_or_modes) -> CorrelatedState:
    """(1/sqrt(D)) sum_k |kk>, i.e. correlated_pure of the all-ones vector."""
    mode_set = D_or_modes if isinstance(D_or_modes, ModeSet) else generic_mode_set(D_or_modes)
    return correlated_pure(np.ones(mode_set.D), mode_set)


def max_witness_state(D_or_modes, d: int) -> CorrelatedState:
    """Uniform mixture of the rank-d maximally entangled states over all
    C(D, d) index subsets; saturates the rank-d witness bound.

    Closed form of that sum: 1/D on the diagonal, (d-1)/(D(D-1)) off it.
    """
    mode_set = D_or_modes if isinstance(D_or_modes, ModeSet) else generic_mode_set(D_or_modes)
    D = mode_set.D
    d = _whole(d, "d", 1, D)
    c = np.full((D, D), (d - 1) / (D * max(D - 1, 1)), dtype=complex)  # D = 1: d = 1
    np.fill_diagonal(c, 1.0 / D)
    return CorrelatedState(c, mode_set)


def state_from_elements(elements: Sequence[DecompositionElement],
                        mode_set: ModeSet) -> CorrelatedState:
    """Assemble c = sum_alpha p_alpha lambda lambda^T from decomposition
    elements; weights must sum to one."""
    total = sum(e.weight for e in elements)
    if abs(total - 1.0) > 1e-9:
        raise InvalidStateError(f"element weights sum to {total}, expected 1")
    D = mode_set.D
    c = np.zeros((D, D), dtype=complex)
    for e in elements:
        idx = np.asarray(e.support)
        if idx.size and (idx.min() < 0 or idx.max() >= D):
            raise InvalidStateError("element support outside the mode set")
        c[np.ix_(idx, idx)] += e.weight * np.outer(e.amplitudes, e.amplitudes)
    return CorrelatedState(c, mode_set)


def spdc_profile(mode_set: ModeSet, lambda_l: float = 1.0,
                 lambda_n: float = 1.0) -> np.ndarray:
    """Smooth two-parameter amplitude profile a_{n,l} ~ exp(-|l|/(2 lambda_l)
    - n/(2 lambda_n)), normalized.  Infinite decay constants give the uniform
    (maximally entangled) profile."""
    lambda_l = _real(lambda_l, "decay constant lambda_l", 0, above=True, finite=False)
    lambda_n = _real(lambda_n, "decay constant lambda_n", 0, above=True, finite=False)
    a = np.array([math.exp(-abs(m.l) / (2.0 * lambda_l) - m.n / (2.0 * lambda_n))
                  for m in mode_set.modes])
    return a / np.linalg.norm(a)


def amplitudes_from_rates(mode_set: ModeSet, rates: dict) -> np.ndarray:
    """Amplitudes a_k ~ sqrt(rate_k) from a per-mode coincidence-rate table
    keyed by (n, l); every rate of the table must be finite and >= 0."""
    for (n, l), rate in rates.items():
        if not 0 <= float(rate) < math.inf:  # NaN fails too
            raise IngestionError(f"rate {float(rate)!r} of mode (n={n}, l={l}) must "
                                 f"be finite and >= 0")
    for m in mode_set.modes:
        if (m.n, m.l) not in rates:
            raise IngestionError(f"rate table is missing mode (n={m.n}, l={m.l})")
    a = np.sqrt([float(rates[m.n, m.l]) for m in mode_set.modes])
    if not np.any(a > 0):
        raise InvalidStateError("rate table is identically zero")
    return a / np.linalg.norm(a)


def _perturb(rho: np.ndarray, strength: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Stacked core of :func:`perturb_state`: perturb the density matrix
    rho (D^2, D^2), or a stack of n, on its cross-correlated part
    (|ij>, i != j) by strength (n,) times the normalized Hermitian part of
    each draw G (n, m, m), then clip negative eigenvalues and renormalize
    the trace.
    """
    D = math.isqrt(rho.shape[-1])
    cross = np.flatnonzero(~np.eye(D, dtype=bool))
    H = (G + G.conj().swapaxes(-1, -2)) / 2.0
    # the Frobenius norm as np.linalg.norm(h) takes it: one BLAS dot of the
    # real parts plus one of the imaginary parts, each matrix a row times a
    # column; a norm over axes (-2, -1) adds in another order and moves the
    # last digit of W
    m = H.shape[-1]
    R, I = (part.reshape(len(H), 1, m * m) for part in (H.real, H.imag))
    H /= np.sqrt(R @ R.swapaxes(-1, -2) + I @ I.swapaxes(-1, -2))
    rho = np.broadcast_to(rho, (len(G),) + rho.shape[-2:]).copy()
    rho[:, cross[:, None], cross] += strength[:, None, None] * H
    # PSD repair: clip negative eigenvalues, renormalize the trace
    w, V = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2.0)
    w = np.clip(w, 0.0, None)
    rho = (V * w[:, None, :]) @ V.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return rho


def perturb_state(state, strength: float,
                  rng: np.random.Generator) -> GeneralTwoPhotonState:
    """Break the perfect mode correlation by random admixture.

    Adds a random Hermitian perturbation of magnitude O(strength) supported
    on the cross-correlated part of the two-photon space (|ij> with i != j),
    then projects back to the nearest PSD unit-trace matrix by eigenvalue
    clipping.  strength = 0 returns the exact embedding, after drawing the
    perturbation as any other strength does.  The state may be a
    CorrelatedState or a GeneralTwoPhotonState.
    """
    s = _real(strength, "perturbation strength", 0)
    base = state.embed()
    m = state.D ** 2 - state.D
    re, im = rng.standard_normal((2, 1, m, m))
    if s == 0.0:
        return base
    return GeneralTwoPhotonState(_perturb(base.rho, np.array([s]), re + 1j * im)[0],
                                 state.mode_set)


# ---------------------------------------------------------------------------
# State files: JSON with mode set, representation tag and row-major complex
# matrix encoded as [re, im] pairs.

def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

def _matrix_from_json(data, n: int) -> np.ndarray:
    """An n x n matrix written as rows of [re, im] pairs."""
    # a float64 pair [re, im] seen as one complex128 is complex(re, im)
    return _json_numbers("matrix", data, (n, n, 2)).view(np.complex128).reshape(n, n)


def save_state(state, path) -> None:
    if isinstance(state, CorrelatedState):
        tag, mat = "correlated", state.coeffs
    elif isinstance(state, GeneralTwoPhotonState):
        tag, mat = "general", state.rho
    else:
        raise ConfigError(f"cannot serialize object of type {type(state).__name__}")
    payload = {
        "modes": state.mode_set.to_json(),
        "representation": tag,
        "matrix": _matrix_to_json(mat),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_state(path):
    with _reading("state file", path), open(path) as fh:
        payload = json.load(fh)
        mode_set = ModeSet.from_json(payload["modes"])
        tag, D = payload["representation"], mode_set.D
        if tag == "correlated":
            state = CorrelatedState(_matrix_from_json(payload["matrix"], D), mode_set)
        elif tag == "general":
            state = GeneralTwoPhotonState(_matrix_from_json(payload["matrix"], D * D),
                                          mode_set)
        else:
            raise ValueError(f"unknown state representation {tag!r:.100}")
        state.validate()
    return state
