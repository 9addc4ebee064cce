"""Certification of entanglement dimensionality from two-dimensional
subspace visibilities of two-photon Laguerre-Gauss states.

The package namespace holds exactly the ``__all__`` names of its modules.
"""

from .errors import *
from .modes import *
from .states import *
from .measurement import *
from .witness import *
from .oracle import *

__version__ = "0.1.0"
