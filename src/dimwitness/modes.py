"""Laguerre-Gauss mode indexing.

A mode is labelled by (n, l): n radial nodes, l units of orbital angular
momentum.  An ordered, duplicate-free list of modes defines the flat basis
|k> used everywhere else in the package; the flat index of a mode is simply
its position in the list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidModeSetError, _json_array, _reading, _whole

__all__ = [
    "ModeIndex",
    "ModeSet",
    "generic_mode_set",
    "enumerate_modes",
]


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Quantum numbers (n, l) of a Laguerre-Gauss mode, held as ints."""

    n: int
    l: int

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "radial quantum number n", 0))
        object.__setattr__(self, "l", _whole(self.l, "azimuthal quantum number l"))


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

    def __getitem__(self, k: int) -> ModeIndex:
        return self.modes[k]

    def subset(self, indices: Sequence[int]) -> "ModeSet":
        return ModeSet(tuple(self.modes[k] for k in indices))

    def to_json(self) -> list[dict]:
        return [{"n": m.n, "l": m.l} for m in self.modes]

    @classmethod
    def from_json(cls, data: list[dict]) -> "ModeSet":
        """The mode set of a JSON list of {n, l} entries of integers; a bad
        entry raises KeyError, TypeError, ValueError or ConfigError (n < 0),
        a repeated mode InvalidModeSetError; file readers report each as bad input."""
        n, l = (_json_array(key, [entry[key] for entry in data], "integer").tolist()
                for key in "nl")
        return cls(tuple(map(ModeIndex, n, l)))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), indent=1) + "\n")

    @classmethod
    def load(cls, path) -> "ModeSet":
        with _reading("mode file", path), open(path) as fh:
            return cls.from_json(json.load(fh))


def generic_mode_set(D: int) -> ModeSet:
    """Placeholder basis (0,0), (0,1), ... for purely abstract D-level work."""
    return ModeSet(tuple(ModeIndex(0, l) for l in range(_whole(D, "D", 0))))


def enumerate_modes(l_max: int = 0, n_max: int = 0) -> ModeSet:
    """All modes with |l| <= l_max and n <= n_max, sorted by n then l."""
    l_max, n_max = _whole(l_max, "l_max", 0), _whole(n_max, "n_max", 0)
    modes = [ModeIndex(n, l)
             for n in range(n_max + 1)
             for l in range(-l_max, l_max + 1)]
    return ModeSet(tuple(modes))
