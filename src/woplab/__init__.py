"""woplab: an exact workbench for W-operators on the ring Q[p_1, p_2, ...].

The operator (1/n):tr(D^n): splits into n! summations indexed by the
permutations of S_n.  This package builds those summations, applies them to
polynomials with exact rational arithmetic, classifies them by degree,
realizes the bracket-sequence bijection for the maximal-degree ones together
with its type-swapping duality, verifies the Catalan/Narayana counts along
independent routes, and cross-checks everything against a first-principles
matrix-entry calculus.

The package exports every name in its modules' ``__all__``.  ``noncross``,
``counting`` and ``oracle`` load on first use of one of their names, so that
applying operators loads only the modules it needs.
"""

import importlib

from .errors import BoundExceededError, MismatchError, ParseError
from .perm import *
from .pring import *
from .summation import *

__version__ = "1.0.0"

_LAZY = ("noncross", "counting", "oracle")


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if not name.startswith("__"):  # tools probe dunders; those import nothing
        for module in map(__getattr__, _LAZY):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    modules = [__getattr__(name) for name in _LAZY]
    return sorted(set(globals()).union(*(module.__all__ for module in modules)))
