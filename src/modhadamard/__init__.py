"""Modular Hadamard matrices: verification, construction, decision, search.

An n x n matrix of +-1 entries is m-modular Hadamard when every pair of
distinct rows has inner product divisible by m (modulus 0 means exact
orthogonality).  The package verifies such matrices and their companion
designs, plans and materializes constructions, decides existence, and
cross-checks everything with an independent exhaustive search.

The public names are those in each library module's __all__.
"""

from .constructions import *
from .existence import *
from .matrices import *
from .numtheory import *
from .search import *

__all__ = (
    constructions.__all__
    + existence.__all__
    + matrices.__all__
    + numtheory.__all__
    + search.__all__
)

__version__ = "0.1.0"
