"""First-principles cross-check engine over a generic N x N matrix of formal
entries X_ab.

Everything the summation engine claims can be recomputed here from raw
entry calculus: p_k maps to the trace of X^k, the operator D_ab is
sum_c X_ac d/dX_bc, and the normal-ordered product keeps every
multiplication-by-X factor to the left of every entry derivative,

    :D_{a1 b1} ... D_{am bm}: = sum over e_1..e_m of
        X_{a1 e1} ... X_{am em} * d^m/dX_{b1 e1} ... dX_{bm em}.

``tr_Dn_apply`` evaluates sum over (a_1..a_n) of
:D_{a1 an} D_{an an-1} ... D_{a2 a1}: on a p-polynomial, i.e. n times the
W-operator before the 1/n normalisation, so the two computation routes can
be compared exactly.

Truncation note: the entry calculus is exact at any finite N, but the
comparison is only meaningful when the traces of X, X^2, ... stay
algebraically independent, hence the guard N >= weight(F) + n.

Mixed derivatives of a monomial are evaluated combinatorially: an ordered
pick of variable occurrences, one per derivative factor, contributes the
product of remaining multiplicities; each pick fixes the contraction column
e_i, so the sums over e never need to be looped explicitly.

The sum over (a_1..a_n) is walked per monomial and restricted to its rows.
The derivatives of the cyclic product take one factor from each of the rows
a_n, a_{n-1}, ..., a_1, so a vector acts on a monomial only if every a_i is
a row of the monomial and no row is used more times than it holds factors.
``tr_Dn_apply`` walks exactly those vectors, each of which adds at least one
term, instead of all N^n of them for every monomial.

Only the container is shared with the summation engine: XPolynomial is
built on the ring core of :mod:`woplab.pring` (normalisation, sums,
products, equality).  The entry calculus above, from the trace walks to the
normal-ordered action and the cyclic sum, is this module's own code and
calls nothing of the template engine, so the check stays independent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import admit
from .perm import Permutation
from .pring import PPolynomial, SparsePolynomial

__all__ = [
    "XPolynomial",
    "x_variable",
    "x_power_entry",
    "trace_power",
    "p_to_x",
    "D_apply",
    "normal_ordered_apply",
    "cyclic_pairs",
    "tr_Dn_apply",
    "equal_as_p",
    "quiver_trace_product",
    "DEFAULT_MAX_TRACE_POWER",
]

DEFAULT_MAX_TRACE_POWER = 3

Var = tuple[int, int]  # (row, column), 1-indexed
XMonomial = tuple[Var, ...]  # sorted, with repetition
Scalar = Union[int, Fraction]


class XPolynomial(SparsePolynomial):
    """Sparse polynomial in the entries of an N x N matrix of variables."""

    __slots__ = ("N",)

    def __init__(self, N: int, terms: Mapping[XMonomial, Scalar] | None = None):
        if N < 1:
            raise ValueError("matrix size must be at least 1")
        self.N = N
        super().__init__(terms)

    @property
    def _space(self) -> tuple[int]:
        return (self.N,)

    def _like(self, terms: dict[XMonomial, Fraction]) -> "XPolynomial":
        poly = super()._like(terms)
        poly.N = self.N
        return poly

    def _key(self, mono) -> XMonomial:
        key = super()._key(mono)
        for a, b in key:
            if not (1 <= a <= self.N and 1 <= b <= self.N):
                raise ValueError(f"entry index {(a, b)} outside 1..{self.N}")
        return key

    @classmethod
    def zero(cls, N: int) -> "XPolynomial":
        return cls(N)

    @classmethod
    def constant(cls, N: int, c: Scalar) -> "XPolynomial":
        return cls(N, {(): c})

    def __repr__(self):
        def var(v):
            return f"X{v[0]}{v[1]}" if self.N < 10 else f"X[{v[0]},{v[1]}]"

        if not self:
            return "XPolynomial(0)"
        parts = [
            f"{coeff}*" + "*".join(var(v) for v in mono) if mono else str(coeff)
            for mono, coeff in self.items()
        ]
        return "XPolynomial(" + " + ".join(parts) + ")"


def x_variable(N: int, a: int, b: int) -> XPolynomial:
    return XPolynomial(N, {((a, b),): 1})


def x_power_entry(N: int, k: int, a: int, b: int) -> XPolynomial:
    """(X^k)_{ab}; k = 0 gives the identity matrix entry (Kronecker delta)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return XPolynomial.constant(N, 1 if a == b else 0)
    terms: dict[XMonomial, int] = {}
    for middle in itertools.product(range(1, N + 1), repeat=k - 1):
        walk = (a,) + middle + (b,)
        mono = tuple(sorted(zip(walk, walk[1:])))
        terms[mono] = terms.get(mono, 0) + 1
    return XPolynomial(N, terms)


def trace_power(N: int, k: int) -> XPolynomial:
    """tr(X^k) as an entry polynomial: the sum over closed k-walks."""
    if k < 1:
        raise ValueError("trace power must be positive")
    terms: dict[XMonomial, int] = {}
    for walk in itertools.product(range(1, N + 1), repeat=k):
        closed = walk + (walk[0],)
        mono = tuple(sorted(zip(closed, closed[1:])))
        terms[mono] = terms.get(mono, 0) + 1
    return XPolynomial(N, terms)


def p_to_x(F: PPolynomial, N: int) -> XPolynomial:
    """Substitute p_k -> tr(X^k) and expand, building each tr(X^k) once."""
    traces = {k: trace_power(N, k) for k in set(itertools.chain(*F._monos))}
    out = XPolynomial.zero(N)
    for mono, coeff in zip(F._monos, F._coeffs):
        out = out + math.prod(map(traces.get, mono), start=XPolynomial.constant(N, coeff))
    return out


# -- derivative machinery ------------------------------------------------------


def _indexed(mono: XMonomial) -> tuple[dict[Var, int], dict[int, list[Var]]]:
    counts: dict[Var, int] = {}
    for var in mono:
        counts[var] = counts.get(var, 0) + 1
    by_row: dict[int, list[Var]] = {}
    for var in counts:
        by_row.setdefault(var[0], []).append(var)
    return counts, by_row


def _apply_pairs(
    pairs: Sequence[tuple[int, int]],
    counts: dict[Var, int],
    by_row: dict[int, list[Var]],
    coeff: Scalar,
    out: dict[XMonomial, Scalar],
):
    """Accumulate the normal-ordered action of the given (a_i, b_i) pairs on
    one monomial (given by its live multiplicity index), each term being
    coeff times its multiplicity; with coeff 1 the sums stay integers."""
    m = len(pairs)
    cols = [0] * m

    def rec(i: int, mult: int):
        if i == m:
            rebuilt: list[Var] = []
            for var, c in counts.items():
                rebuilt.extend((var,) * c)
            for (source, _), col in zip(pairs, cols):
                rebuilt.append((source, col))
            key = tuple(sorted(rebuilt))
            out[key] = out.get(key, 0) + coeff * mult
            return
        for var in by_row.get(pairs[i][1], ()):
            c = counts[var]
            if c:
                counts[var] = c - 1
                cols[i] = var[1]
                rec(i + 1, mult * c)
                counts[var] = c

    rec(0, 1)


def D_apply(a: int, b: int, G: XPolynomial) -> XPolynomial:
    """The entry derivation D_ab = sum_c X_ac d/dX_bc applied to G."""
    return normal_ordered_apply([(a, b)], G)


def normal_ordered_apply(
    pairs: Sequence[tuple[int, int]], G: XPolynomial
) -> XPolynomial:
    """Apply :D_{a1 b1} ... D_{am bm}: to G (all X factors left of all
    entry derivatives, contraction indices summed over 1..N)."""
    N = G.N
    for a, b in pairs:
        if not (1 <= a <= N and 1 <= b <= N):
            raise ValueError(f"indices ({a}, {b}) outside 1..{N}")
    out: dict[XMonomial, Fraction] = {}
    for mono, coeff in G.items():
        counts, by_row = _indexed(mono)
        _apply_pairs(list(pairs), counts, by_row, coeff, out)
    return G._like(out)


def cyclic_pairs(avec: Sequence[int]) -> list[tuple[int, int]]:
    """Index pairs of :D_{a1 an} D_{an an-1} ... D_{a2 a1}:."""
    n = len(avec)
    pairs = [(avec[0], avec[n - 1])]
    for i in range(n - 1, 0, -1):
        pairs.append((avec[i], avec[i - 1]))
    return pairs


def tr_Dn_apply(
    n: int, F: PPolynomial, N: int, *, max_n: int = DEFAULT_MAX_TRACE_POWER
) -> XPolynomial:
    """sum over (a_1..a_n) in {1..N}^n of the normal-ordered cyclic product
    applied to F as an entry polynomial.  This is n * W([n]) F; the caller
    divides by n."""
    admit(n, max_n, "tr_Dn_apply")
    if N < F.max_weight() + n:
        raise ValueError(
            f"N={N} too small: need N >= weight + n = {F.max_weight() + n} "
            "for the trace powers to stay independent"
        )
    out: dict[XMonomial, Fraction] = {}
    G = p_to_x(F, N)
    for mono, coeff in zip(G._monos, G._coeffs):
        # integer multiplicities per key, then one product by the coefficient
        counts, by_row = _indexed(mono)
        mults: dict[XMonomial, int] = {}
        for avec in _row_vectors(mono, n):
            _apply_pairs(cyclic_pairs(avec), counts, by_row, 1, mults)
        for key, mult in mults.items():
            out[key] = out.get(key, 0) + coeff * mult
    return G._like(out)


def _row_vectors(mono: XMonomial, n: int) -> list[tuple[int, ...]]:
    """The index vectors (a_1..a_n) whose cyclic product can act on the
    monomial: its derivatives take one factor from each of the rows a_1..a_n,
    so every a_i is a row of the monomial, used at most as many times as the
    row holds factors.  Every other vector of {1..N}^n gives zero."""
    rows: dict[int, int] = {}
    for a, _ in mono:
        rows[a] = rows.get(a, 0) + 1
    vectors: list[tuple[int, ...]] = [()]
    for _ in range(n):
        vectors = [v + (a,) for v in vectors for a, c in rows.items() if v.count(a) < c]
    return vectors


def equal_as_p(G: XPolynomial, F: PPolynomial, N: int) -> bool:
    """Whether G equals F after substituting p_k -> tr(X^k), exactly."""
    return G == p_to_x(F, N)


def quiver_trace_product(
    beta: Permutation, kvec: Sequence[int], N: int
) -> XPolynomial:
    """sum over all vertex labelings a: {1..n} -> {1..N} of the product over
    the arrows v -> beta(v) of (X^{k_target})_{a_source, a_target}.

    Contracting the cycle quiver this way must reproduce the polynomial part
    of the summation owned by beta: one trace factor per cycle, of power
    equal to the sum of the k's along it.  Computed here by brute force,
    without using that factorization.
    """
    n = beta.n
    if len(kvec) != n:
        raise ValueError("need one index per vertex")
    arrows = [(v, beta(v)) for v in range(1, n + 1)]
    out = XPolynomial.zero(N)
    for labels in itertools.product(range(1, N + 1), repeat=n):
        term = XPolynomial.constant(N, 1)
        for source, target in arrows:
            term = term * x_power_entry(
                N, kvec[target - 1], labels[source - 1], labels[target - 1]
            )
            if not term:
                break
        out = out + term
    return out
