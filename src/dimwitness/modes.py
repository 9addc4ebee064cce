"""Laguerre-Gauss mode indexing, field evaluation and numerical overlaps.

A mode is labelled by (n, l): n radial nodes, l units of orbital angular
momentum.  An ordered, duplicate-free list of modes defines the flat basis
|k> used everywhere else in the package; the flat index of a mode is simply
its position in the list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InvalidModeSetError

__all__ = [
    "ModeIndex",
    "ModeSet",
    "enumerate_modes",
    "lg_field",
    "mode_overlap",
    "check_orthonormality",
]


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Quantum numbers (n, l) of a Laguerre-Gauss mode."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 0:
            raise ConfigError(f"radial quantum number must be >= 0, got n={self.n}")


@dataclass(frozen=True)
class ModeSet:
    """Ordered, duplicate-free collection of modes defining the flat basis."""

    modes: tuple[ModeIndex, ...]

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            seen, dupes = set(), []
            for m in self.modes:
                if m in seen:
                    dupes.append((m.n, m.l))
                seen.add(m)
            raise InvalidModeSetError(f"duplicate mode indices: {dupes}")

    @property
    def D(self) -> int:
        return len(self.modes)

    def __len__(self) -> int:
        return len(self.modes)

    def __getitem__(self, k: int) -> ModeIndex:
        return self.modes[k]

    def index(self, mode: ModeIndex) -> int:
        return self.modes.index(mode)

    def subset(self, indices: Sequence[int]) -> "ModeSet":
        return ModeSet(tuple(self.modes[k] for k in indices))

    def to_json(self) -> list[dict]:
        return [{"n": m.n, "l": m.l} for m in self.modes]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "ModeSet":
        return cls(tuple(ModeIndex(_mode_number(d["n"]), _mode_number(d["l"]))
                         for d in data))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
        with open(path, "a") as fh:
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModeSet":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _mode_number(value) -> int:
    """A mode number read from JSON: an integer that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"mode number {value!r} is not an integer")
    return value


def generic_mode_set(D: int) -> ModeSet:
    """Placeholder basis (0,0), (0,1), ... for purely abstract D-level work."""
    return ModeSet(tuple(ModeIndex(0, l) for l in range(D)))


def enumerate_modes(l_max: int = 0, n_max: int = 0,
                    selection: Sequence[ModeIndex] | None = None) -> ModeSet:
    """All modes with |l| <= l_max and n <= n_max, sorted by n then l.

    An explicit `selection` bypasses the rectangular enumeration and is used
    verbatim (order preserved, duplicates rejected).
    """
    if selection is not None:
        return ModeSet(tuple(selection))
    if l_max < 0 or n_max < 0:
        raise ConfigError("l_max and n_max must be >= 0")
    modes = [ModeIndex(n, l)
             for n in range(n_max + 1)
             for l in range(-l_max, l_max + 1)]
    return ModeSet(tuple(modes))


def _norm_const(n: int, l: int) -> float:
    # sqrt(2 n! / (pi (n+|l|)!)) via log-gamma to stay finite at large n, l
    return math.sqrt(2.0 / math.pi) * math.exp(
        0.5 * (math.lgamma(n + 1) - math.lgamma(n + abs(l) + 1)))


def _genlaguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by the three-term
    recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def lg_field(mode: ModeIndex, r, phi, w0: float = 1.0):
    """Normalized LG amplitude at z = 0; r in beam-waist units of w0.

    The prefactor is fixed so that the transverse intensity integrates to one:
    integral |LG|^2 r dr dphi = 1.
    """
    if w0 <= 0:
        raise ConfigError(f"beam waist must be positive, got {w0}")
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(phi))):
        raise ConfigError("non-finite coordinates passed to lg_field")
    if np.any(r < 0):
        raise ConfigError("radius must be >= 0")
    n, l = mode.n, mode.l
    x = 2.0 * r**2 / w0**2
    radial = (_norm_const(n, l) / w0
              * (r * np.sqrt(2.0) / w0) ** abs(l)
              * np.exp(-(r / w0) ** 2)
              * _genlaguerre(n, abs(l), x))
    return radial * np.exp(1j * l * phi)


def mode_overlap(a: ModeIndex, b: ModeIndex, w0: float = 1.0,
                 r_nodes: int = 200, phi_nodes: int = 256,
                 r_cut: float = 8.0) -> complex:
    """Numerical inner product integral LG_a conj(LG_b) r dr dphi.

    Gauss-Legendre in r on [0, r_cut*w0] (the tails decay as exp(-r^2)),
    uniform trapezoid in phi, which is exact for the periodic integrand as
    long as |l_a - l_b| < phi_nodes.
    """
    if r_nodes <= 0 or phi_nodes <= 0 or r_cut <= 0:
        raise ConfigError("quadrature node counts and radial cutoff must be positive")
    x, wts = np.polynomial.legendre.leggauss(r_nodes)
    r = 0.5 * r_cut * w0 * (x + 1.0)
    wr = 0.5 * r_cut * w0 * wts
    phi = np.linspace(0.0, 2.0 * np.pi, phi_nodes, endpoint=False)
    fa = lg_field(a, r[:, None], phi[None, :], w0)
    fb = lg_field(b, r[:, None], phi[None, :], w0)
    integrand = fa * np.conj(fb)
    dphi = 2.0 * np.pi / phi_nodes
    return complex(np.sum(integrand * (wr * r)[:, None]) * dphi)


def check_orthonormality(mode_set: ModeSet, tol: float = 1e-6, **quad) -> float:
    """Max deviation |<a|b> - delta_ab| over all pairs; raises when the
    quadrature is under-resolved (self-overlap off by more than tol)."""
    worst = 0.0
    for i, a in enumerate(mode_set.modes):
        for j, b in enumerate(mode_set.modes):
            if j < i:
                continue
            ov = mode_overlap(a, b, **quad)
            dev = abs(ov - (1.0 if i == j else 0.0))
            if i == j and dev > tol:
                raise ConfigError(
                    f"quadrature under-resolved: |<{(a.n, a.l)}|{(a.n, a.l)}>| "
                    f"deviates from 1 by {dev:.2e}")
            worst = max(worst, dev)
    return worst
