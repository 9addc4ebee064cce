"""Certification of entanglement dimensionality from two-dimensional
subspace visibilities of two-photon Laguerre-Gauss states.

The package namespace holds exactly the ``__all__`` names of its modules.
They resolve on use (PEP 562): the first lookup of one of them, of
``__all__`` or of ``dir()`` imports every module, and each lookup reads the
name from its module, while importing one module of the package, such as
``dimwitness.cli``, loads only the modules it uses.
"""

import functools
import importlib

__version__ = "0.1.0"

_MODULES = ("errors", "modes", "states", "measurement", "witness", "oracle")


@functools.cache
def _homes() -> dict:
    """The module of each package name, in ``__all__`` order."""
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    return {name: module for module in modules for name in module.__all__}


def __getattr__(name):
    if name in _MODULES or name == "cli":  # `from dimwitness import cli` asks here
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return list(_homes())
    if not name.startswith("_") and name in _homes():
        return getattr(_homes()[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_homes()})
