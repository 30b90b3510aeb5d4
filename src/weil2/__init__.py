"""weil2: exact arithmetic for Heisenberg groups, Witt classes, and Weil
representations over Galois rings of characteristic 4.

Everything is computed in exact arithmetic -- integers, fractions, and the
cyclotomic field Q(zeta_8) -- so every identity checked by the verification
suites holds on the nose, not up to rounding.
"""

from .cyclotomic import Cyc8
from .galois import GaloisRing, ring
from .symplectic import (
    CapExceeded,
    EnhancedLagrangian,
    OrientedLagrangian,
    SympSpace,
)

__version__ = "0.1.0"

# the seeded generator every sampled report names, and the suites
# `verify --suite` runs; here so that the CLI's parser and headers read them
# without importing the verification suites
PRNG_NAME = "python-random-mt19937"
SUITE_NAMES = ("witt", "cocycle", "trivialization", "splitting", "weil")

__all__ = [
    "Cyc8",
    "GaloisRing",
    "ring",
    "SympSpace",
    "EnhancedLagrangian",
    "OrientedLagrangian",
    "CapExceeded",
    "__version__",
]
