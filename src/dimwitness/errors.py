"""Exception hierarchy shared across the package.

Each class carries the process exit code used by the CLI, so library code
raises the same errors the command line reports.
"""

import csv
import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DimWitnessError",
    "ConfigError",
    "InvalidModeSetError",
    "InvalidStateError",
    "IngestionError",
    "CapacityError",
    "IntegrityError",
]


class DimWitnessError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DimWitnessError):
    """Invalid configuration, arguments or domain violations."""

    exit_code = 2


class InvalidModeSetError(ConfigError):
    """Duplicate or otherwise malformed mode set."""


class InvalidStateError(ConfigError):
    """State construction input that cannot yield a valid density matrix."""


class IngestionError(DimWitnessError):
    """Missing or malformed entries in ingested data files."""

    exit_code = 3


class CapacityError(DimWitnessError):
    """Request exceeds the configured small-dimension cap for full-matrix work."""

    exit_code = 4


class IntegrityError(DimWitnessError):
    """Data outside the correlated class a verdict holds for; nothing raises it
    yet, it is reserved for ROADMAP item 1's class-domain refusal (exit 5)."""

    exit_code = 5


# The one rule for values read from JSON files: the kinds of value, each with
# the Python types json.load gives for it, its name in messages and the numpy
# type that holds it.  A bool is no number.
_JSON_KINDS = {"integer": ({int}, "an integer", np.int64),
               "number": ({int, float}, "a JSON number", np.float64),
               "boolean": ({bool}, "a JSON boolean", np.bool_),
               "string": ({str}, "a JSON string", np.str_)}


def _json_array(name: str, values, kind: str) -> np.ndarray:
    """The values json.load gave for the field `name` as one array of the
    numpy type of `kind`; the first that is not of that kind, or that the type
    cannot hold, raises ValueError.  A whole column is tested as one set of
    types, with no Python loop over its values."""
    types, phrase, dtype = _JSON_KINDS[kind]
    if set(map(type, values)) <= types:
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            pass
    for value in values:
        if type(value) not in types:
            raise ValueError(f"{name} {value!r:.100} is not {phrase}")
        try:
            np.array(value, dtype=dtype)
        except OverflowError:
            raise ValueError(f"{name} {value!r:.100} is not {phrase} that "
                             f"{np.dtype(dtype)} holds") from None


def _json_numbers(name: str, data, shape: tuple) -> np.ndarray:
    """The nested lists json.load gave for the field `name` as one float64
    array of `shape`, each value a number by `_json_array`; other nesting
    raises ValueError.  An array without elements is nested down to its first
    empty axis only (json.dumps writes `[]` for shape (0, 3, 4))."""
    nested = np.array(data, dtype=object)
    if nested.shape != (shape[:shape.index(0) + 1] if 0 in shape else shape):
        raise ValueError(f"{name} is not nested lists of shape {shape}")
    return _json_array(name, nested.ravel().tolist(), "number").reshape(shape)


@contextmanager
def _reading(what: str, path):
    """The boundary of every input file reader: failing to open `path` or to
    accept what it holds, a constructor's ConfigError or IngestionError
    included, raises IngestionError "malformed <what> <path>: ..." (exit 3).
    An IngestionError that names `path` already and CapacityError pass
    through."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, csv.Error, ConfigError,
            IngestionError) as exc:
        if isinstance(exc, IngestionError) and f" {path}: " in str(exc):
            raise
        raise IngestionError(f"malformed {what} {path}: {exc}") from exc


def _whole(x, what: str, low=None, high=None) -> int:
    """`x` as an int: a Python or numpy integer, not a bool (nor a float,
    even 3.0), in [low, high]; a bound of None is open."""
    if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
            or (low is not None and x < low) or (high is not None and x > high)):
        span = ("" if low is None and high is None else f" >= {low}" if high is None
                else f" <= {high}" if low is None else f" in [{low}, {high}]")
        raise ConfigError(f"{what} must be a whole number{span}, got {x!r}")
    return int(x)


def _real(x, what: str, low=None, *, above: bool = False, finite: bool = True) -> float:
    """`x` as a float: a Python or numpy int or float, not a bool, a string or
    NaN, finite unless not `finite`, and >= low (> low when `above`)."""
    number = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    value = float(x) if number else math.nan
    if math.isnan(value) or (finite and math.isinf(value)) or (
            low is not None and not (value > low if above else value >= low)):
        span = "" if low is None else f" {'>' if above else '>='} {low}"
        raise ConfigError(f"{what} must be a {'finite ' if finite else ''}number{span}, "
                          f"got {x!r}")
    return value


def _flag(x, what: str) -> bool:
    """`x` as a bool: a Python or numpy bool, not 0, 1 or a string."""
    if not isinstance(x, (bool, np.bool_)):
        raise ConfigError(f"{what} must be True or False, got {x!r}")
    return bool(x)
