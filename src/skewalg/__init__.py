"""Finite workbench for skew lattices, their ordered groupoids, and the
associated two-operation star algebras.

The package builds small structures as integer tables, checks every defining
law exhaustively with reported witnesses, converts between the groupoid and
algebra presentations in both directions, and generates a model suite from
groups acting on skew lattices.

Each module's __all__ is the one list of its public names; the package root
re-exports exactly those.
"""

from .algebra import *
from .enumeration import *
from .errors import *
from .groupoid import *
from .isomorphism import *
from .models import *
from .reconstruction import *
from .report import *
from .serialize import *
from .system import *
from .tables import *

__version__ = "0.1.0"
