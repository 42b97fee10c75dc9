"""Exact computations around automorphism-group actions on the
Weierstrass points of compact Riemann surfaces.

Everything is integer or Fraction arithmetic; there is no floating
point anywhere.  The central objects: total Weierstrass weight g^3 - g,
Macbeath-style fixed-point counts, orbit-weight Diophantine equations,
branched double covers of regular spherical maps, PSL(2,q) as a
permutation group on the projective line, Kato's bi-elliptic weight
window, and the distinguished points of the Fermat curves.
"""

from .bielliptic import *
from .fermat import *
from .fixedpoints import *
from .orbitweights import *
from .platonic import *
from .pslgroups import *
from .report import *
from .surfacecore import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
