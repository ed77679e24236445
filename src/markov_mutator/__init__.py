"""Exact mutation engine for rank-3 skew-symmetrizable matrices.

Matrices live as validated six-tuples (x, y, z, x', y', z'), their
skew-symmetrizations as triples of exact surds or floats. On top of the
mutation and gamma maps sit: the cluster-cyclicity decision with
certificates, M1/M2/M3 and case A/B classification, fundamental-domain
reduction, bounded orbit search, exhaustive enumeration of
descent-minimal triples by Markov constant, and the surd arithmetic
that keeps everything exact.

The package binds every name in the __all__ of the six library modules
below, so each module's __all__ is the one statement of what is public.
"""

from . import classify, enumeration, errors, matrices, orbits, surd
from .classify import *
from .enumeration import *
from .errors import *
from .matrices import *
from .orbits import *
from .surd import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (classify, enumeration, errors, matrices, orbits, surd)
    for name in module.__all__
]
