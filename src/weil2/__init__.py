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
