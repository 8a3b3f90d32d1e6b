"""woplab: an exact workbench for W-operators on the ring Q[p_1, p_2, ...].

The operator (1/n):tr(D^n): splits into n! summations indexed by the
permutations of S_n.  This package builds those summations, applies them to
polynomials with exact rational arithmetic, classifies them by degree,
realizes the bracket-sequence bijection for the maximal-degree ones together
with its type-swapping duality, verifies the Catalan/Narayana counts along
independent routes, and cross-checks everything against a first-principles
matrix-entry calculus.

``counting``, ``noncross`` and ``oracle`` are imported on first use of one
of their names here, so that applying operators loads only the modules it
needs.
"""

import importlib

from .errors import BoundExceededError, MismatchError, ParseError
from .perm import (
    HatQuiver,
    Permutation,
    all_permutations,
    lift,
    lift_chain,
    project,
    to_hat_quiver,
    to_quiver,
)
from .pring import PPolynomial, apply_template, apply_W, parse_p, print_p
from .summation import (
    SummationTemplate,
    decompose_W,
    degree,
    has_descending_cycles,
    has_nested_or_ordered_supports,
    is_OS,
    render,
    satisfies_star,
    summation_of,
)

__version__ = "1.0.0"

_LAZY = {
    "counting": (
        "CountReport",
        "CountTable",
        "catalan",
        "catalan_series",
        "count_table",
        "narayana",
        "narayana_row_via_recurrence",
        "verify_counts",
    ),
    "noncross": (
        "BracketPair",
        "BracketSequence",
        "classify_pairs",
        "decode",
        "dual",
        "dual_via_gap_toggle",
        "encode",
        "enumerate_json",
        "enumerate_sequences",
        "enumerate_single_top",
        "rank_shift_down",
        "rank_shift_up",
        "parse_seq",
        "print_seq",
    ),
    "oracle": (
        "D_apply",
        "XPolynomial",
        "equal_as_p",
        "normal_ordered_apply",
        "p_to_x",
        "quiver_trace_product",
        "tr_Dn_apply",
        "trace_power",
        "x_power_entry",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_NAMES))
