"""Exact arithmetic in the polynomial ring Q[p_1, p_2, ...] and the action of
summation templates and full W-operators on it.

A monomial is a sorted tuple of p-indices with multiplicity, so p_1^2 * p_3
is (1, 1, 3); coefficients are exact rationals.  The weight of a monomial is
the sum of its indices (p_k has weight k); every operator here preserves
weight on homogeneous input.

Applying a template to F is driven by the monomials of F.  A term of the
summation with derivative block sums m_1..m_s acts on a monomial only if each
p_(m_b) is one of its factors, so for each monomial the engine walks the
ordered choices of such factors, one per derivative block b with
m_b >= |B_b|, and weights each by its coefficient times prod_b m_b times the
multiplicities removed.  The k-vectors with those block sums are not listed:
each m_b is split into sums over the cells B_b & C_c (derivative block times
cycle block), a cell of size z with sum x holding C(x-1, z-1) k-vectors, and
the cell sums of each cycle block give the index of its p-factor.  No
truncation is needed, since every choice is a factor of F.

Polynomials from outside are checked by ``SparsePolynomial.__init__``; every
computed result is canonical already and made by one constructor, ``_like``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm, prod
from typing import Iterator, Mapping, Union

from .errors import ParseError, admit
from .summation import DEFAULT_MAX_DECOMPOSE, SummationTemplate, decompose_W

__all__ = [
    "SparsePolynomial", "PPolynomial", "partitions",
    "parse_p", "print_p", "apply_template", "apply_W",
]

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

# Equal monomials, monomial supports and coefficients share one object
# through this table, so that many polynomials of one shape (say, parsed
# inputs of one weight) hold one copy of each; it grows with the distinct
# values built through PPolynomial.__init__.
_SHARED: dict = {}


class SparsePolynomial:
    """Sparse polynomial with exact rational coefficients, the ring core of
    :class:`PPolynomial` and of the oracle's entry polynomials.

    The terms are two parallel tuples, the monomials (sorted tuples of
    variables) and their nonzero coefficients, not a dict: a polynomial then
    costs little more than its coefficient tuple.  Subclasses set how a
    monomial is checked (``_key``), the order of ``items`` (``_item_order``)
    and the leading constructor arguments that fix their ring (``_space``);
    polynomials of different rings are unequal and cannot be combined.
    ``__init__`` checks terms from outside; every result computed here is
    canonical already and is made by the one unchecked constructor, ``_like``.
    """

    __slots__ = ("_monos", "_coeffs")

    _item_order = None  # sort key of a (monomial, coefficient) item
    _space: tuple = ()

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        clean: dict[tuple, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                key = self._key(mono)
                clean[key] = clean.get(key, Fraction(0)) + coeff
        self._hold(clean)

    def _hold(self, terms: dict[tuple, Fraction]) -> None:
        # both tuples from the dict: tuples from generators over-allocate
        if not all(terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        self._monos = tuple(terms)
        self._coeffs = tuple(terms.values())

    def _key(self, mono) -> tuple:
        """The canonical form of a monomial; raises ValueError if invalid."""
        return tuple(sorted(mono))

    def _like(self, terms: dict[tuple, Fraction]):
        """The same ring's polynomial of canonical terms; drops zeros only."""
        poly = object.__new__(type(self))
        poly._hold(terms)
        return poly

    def _same_ring(self, other: "SparsePolynomial") -> None:
        if other._space != self._space:  # only entry polynomials have one
            raise ValueError("mismatched matrix sizes")

    @property
    def _terms(self) -> dict[tuple, Fraction]:
        """A new dict of the terms, free for the caller to change."""
        return dict(zip(self._monos, self._coeffs))

    # -- mapping views -----------------------------------------------------

    def items(self) -> Iterator[tuple[tuple, Fraction]]:
        """Terms in the ring's canonical order."""
        return iter(sorted(zip(self._monos, self._coeffs), key=self._item_order))

    def coefficient(self, mono) -> Fraction:
        return self._terms.get(tuple(sorted(mono)), Fraction(0))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePolynomial):
            return self._space == other._space and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self._space, frozenset(zip(self._monos, self._coeffs))))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SparsePolynomial"):
        self._same_ring(other)
        terms = self._terms
        for mono, coeff in zip(other._monos, other._coeffs):
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return self._like(terms)

    def __neg__(self):
        return self._like({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "SparsePolynomial"):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like({m: c * other for m, c in self._terms.items()})
        if isinstance(other, SparsePolynomial):
            self._same_ring(other)
            terms: dict[tuple, Fraction] = {}
            for m1, c1 in zip(self._monos, self._coeffs):
                for m2, c2 in zip(other._monos, other._coeffs):
                    key = tuple(sorted(m1 + m2))
                    terms[key] = terms.get(key, Fraction(0)) + c1 * c2
            return self._like(terms)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power")
        return prod(itertools.repeat(self, exponent), start=self._like({(): Fraction(1)}))


class PPolynomial(SparsePolynomial):
    """Sparse polynomial in p_1, p_2, ... with exact rational coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        super().__init__(terms)
        self._monos = _SHARED.setdefault(self._monos, self._monos)
        self._coeffs = tuple(_SHARED.setdefault(c, c) for c in self._coeffs)

    def _key(self, mono) -> Monomial:
        key = super()._key(mono)
        if any(i < 1 for i in key):
            raise ValueError(f"p-indices must be positive: {key}")
        return _SHARED.setdefault(key, key)

    _item_order = staticmethod(lambda item: (sum(item[0]), item[0]))  # graded-lex

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PPolynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "PPolynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, k: int) -> "PPolynomial":
        return cls({(k,): 1})

    @classmethod
    def monomial(cls, indices: Monomial, coeff: Scalar = 1) -> "PPolynomial":
        return cls({tuple(indices): coeff})

    def __repr__(self) -> str:
        return f"PPolynomial({print_p(self)!r})"

    # -- grading and calculus ----------------------------------------------

    def max_weight(self) -> int:
        """Largest monomial weight; 0 for the zero polynomial."""
        return max((sum(m) for m in self._monos), default=0)

    def homogeneous_components(self) -> dict[int, "PPolynomial"]:
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            parts.setdefault(sum(mono), {})[mono] = coeff
        return {w: self._like(t) for w, t in sorted(parts.items())}

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self._monos}) <= 1

    def weight(self) -> int | None:
        """The common weight of all terms, or None if mixed or zero."""
        weights = {sum(m) for m in self._monos}
        return weights.pop() if len(weights) == 1 else None

    def diff(self, k: int) -> "PPolynomial":
        """Partial derivative with respect to p_k."""
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            mult = mono.count(k)
            if mult:
                reduced = list(mono)
                reduced.remove(k)
                key = tuple(reduced)
                terms[key] = terms.get(key, Fraction(0)) + coeff * mult
        return self._like(terms)


def partitions(w: int) -> Iterator[Monomial]:
    """The partitions of w as non-increasing tuples of parts, in reverse
    lexicographic order; their p-products are the monomials of weight w."""

    def below(total: int, largest: int) -> Iterator[Monomial]:
        if total == 0:
            yield ()
        for first in range(min(total, largest), 0, -1):
            for rest in below(total - first, first):
                yield (first,) + rest

    return below(w, w)


# -- text format -------------------------------------------------------------


def print_p(poly: PPolynomial) -> str:
    """Canonical text: graded-lex term order, explicit '*', no whitespace."""
    if not poly:
        return "0"
    parts = []
    for mono, coeff in poly.items():
        factors = []
        for k, group in itertools.groupby(mono):
            e = len(list(group))
            factors.append(f"p{k}" if e == 1 else f"p{k}^{e}")
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        term = "*".join(factors)
        parts.append(("-" if coeff < 0 else "+") + term)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def parse_p(text: str) -> PPolynomial:
    """Parse the polynomial grammar; raises :class:`ParseError` with position.

    term := [rational "*"] factor ("*" factor)* | rational
    factor := "p" int ["^" int]; rational := int | int "/" int.
    Terms are joined by "+" or "-"; whitespace is insignificant.
    A term holds at most 10,000 factors, exponents counted, and an exponent
    past that is refused before it is built: ``p1^999999999999`` would
    exhaust memory, while ``apply 3 "p1^10000"`` still takes well under 1 s.
    """
    return _Parser(text).parse()


class _Parser:
    max_term_factors = 10_000  # see parse_p

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def take_rational(self) -> Fraction:
        num = self.take_int()
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            den = self.take_int()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def take_factor(self, held: int) -> Monomial:
        if self.peek() != "p":
            self.error("expected a factor like p3 or p3^2")
        self.pos += 1
        index = self.take_int()
        if index < 1:
            self.error("p-index must be positive")
        self.skip_ws()
        exponent, at = 1, self.pos
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            at = self.pos
            exponent = self.take_int()
        if held + exponent > self.max_term_factors:
            raise ParseError(f"more than {self.max_term_factors} factors in one term", position=at)
        return (index,) * exponent

    def take_term(self) -> tuple[Monomial, Fraction]:
        coeff = Fraction(1)
        mono: tuple[int, ...] = ()
        self.skip_ws()
        if self.peek().isdigit():
            coeff = self.take_rational()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
            else:
                return mono, coeff  # bare constant
        while True:
            self.skip_ws()
            mono += self.take_factor(len(mono))
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
            else:
                return mono, coeff

    def parse(self) -> PPolynomial:
        terms: dict[Monomial, Fraction] = {}
        sign = Fraction(1)
        self.skip_ws()
        if self.peek() == "-":
            sign = Fraction(-1)
            self.pos += 1
        while True:
            mono, coeff = self.take_term()
            terms[mono] = terms.get(mono, 0) + sign * coeff  # __init__ sorts and merges
            self.skip_ws()
            if self.pos == len(self.text):
                return PPolynomial(terms)
            op = self.peek()
            if op == "+":
                sign = Fraction(1)
            elif op == "-":
                sign = Fraction(-1)
            else:
                self.error(f"expected '+' or '-', found {op!r}")
            self.pos += 1


# -- operator application -----------------------------------------------------


def _factor_choices(
    mono: Monomial, sizes: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], int, Monomial]]:
    """Ordered choices (m_1..m_s) of one factor p_(m_b) of ``mono`` per
    derivative block b, with m_b at least the block size ``sizes[b]``.

    Each choice comes with prod_b m_b * (multiplicity of m_b when it is
    removed) and the factors left over, so that summed over all choices this
    is prod_b m_b d/dp_(m_b) applied to the monomial.
    """
    if not sizes:
        yield (), 1, mono
        return
    size, later = sizes[0], sizes[1:]
    for i, m in enumerate(mono):
        if m < size or (i and mono[i - 1] == m):
            continue
        factor = m * mono.count(m)
        for ms, weight, rest in _factor_choices(mono[:i] + mono[i + 1 :], later):
            yield (m,) + ms, factor * weight, rest


def _splits(m: int, sizes: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Splits of m into parts x_j >= sizes[j], each with the number
    prod_j C(x_j - 1, sizes[j] - 1) of ways to write x_j as an ordered sum of
    sizes[j] positive k's."""
    first, later = sizes[0], sizes[1:]
    if not later:
        yield (m,), comb(m - 1, first - 1)
        return
    for x in range(first, m - sum(later) + 1):
        ways = comb(x - 1, first - 1)
        for rest, more in _splits(m - x, later):
            yield (x,) + rest, ways * more


def _cycle_monomials(
    cells: list[list[tuple[int, int]]], ms: tuple[int, ...], dP: int
) -> list[tuple[Monomial, int]]:
    """The p-monomials prod_c p_(sum of k_v, v in c) over all k-vectors whose
    derivative block sums are ``ms``, each with its number of k-vectors.

    ``cells[b]`` lists (cycle block position, size) for the nonempty
    intersections of derivative block b with the cycle blocks; each m_b is
    split into cell sums, and each cell sum adds to its cycle block's index.
    """
    partial = {(0,) * dP: 1}
    for block, m in zip(cells, ms):
        grown: dict[tuple[int, ...], int] = {}
        for split, ways in _splits(m, [size for _, size in block]):
            for indices, count in partial.items():
                sums = list(indices)
                for (c, _), x in zip(block, split):
                    sums[c] += x
                key = tuple(sums)
                grown[key] = grown.get(key, 0) + count * ways
        partial = grown
    merged: dict[Monomial, int] = {}
    for indices, count in partial.items():
        key = tuple(sorted(indices))
        merged[key] = merged.get(key, 0) + count
    return list(merged.items())


def _cells(t: SummationTemplate) -> list[list[tuple[int, int]]]:
    """Per derivative block, (cycle block position, size) of each nonempty
    intersection with a cycle block, the input of :func:`_cycle_monomials`."""
    where = {v: c for c, block in enumerate(t.cycle_blocks) for v in block}
    cells = []
    for block in t.derivative_blocks:
        counts: dict[int, int] = {}
        for v in block:
            counts[where[v]] = counts.get(where[v], 0) + 1
        cells.append(list(counts.items()))
    return cells


def apply_template(t: SummationTemplate, F: PPolynomial) -> PPolynomial:
    """Apply one summation (without the 1/n prefactor) exactly.

    F drives the sum: the derivative factors of a term must each take one
    p-factor of a monomial of F, so only the ordered choices of such factors
    (one per derivative block b, of index at least |B_b|) are walked.  Each
    choice fixes the block sums m_b; the k-vectors with those sums are
    counted per cell (derivative block x cycle block) with binomials rather
    than listed, once per choice within the call.  Coefficients are summed
    as integers over the common denominator of F's coefficients.
    """
    sizes = tuple(len(b) for b in t.derivative_blocks)
    cells = _cells(t)
    denominator = lcm(*(c.denominator for c in F._coeffs))
    expansions: dict[tuple[int, ...], list[tuple[Monomial, int]]] = {}
    out: dict[Monomial, int] = {}
    for mono, coeff in zip(F._monos, F._coeffs):
        scale = coeff.numerator * (denominator // coeff.denominator)
        for ms, weight, rest in _factor_choices(mono, sizes):
            expansion = expansions.get(ms)
            if expansion is None:
                expansion = expansions[ms] = _cycle_monomials(cells, ms, t.dP)
            for indices, count in expansion:
                key = tuple(sorted(indices + rest))
                out[key] = out.get(key, 0) + scale * weight * count
    return F._like({m: Fraction(c, denominator) for m, c in out.items() if c})


def _admitted(descending: list[Monomial], sizes: tuple[int, ...]) -> bool:
    """Whether some monomial of ``descending``, its factor indices listed in
    descending order, dominates the derivative block ``sizes`` (also
    descending) entry by entry, which is when :func:`_factor_choices` yields
    a choice for it."""
    return any(
        len(mono) >= len(sizes) and all(m >= s for m, s in zip(mono, sizes))
        for mono in descending
    )


def apply_W(n: int, F: PPolynomial, *, max_n: int = DEFAULT_MAX_DECOMPOSE) -> PPolynomial:
    """Apply W([n]) = (1/n) * (sum of all n! summations) to F, exactly.

    A template acts on a monomial only through :func:`_factor_choices`: each
    derivative block b takes its own factor p_m of the monomial with
    m >= |B_b|.  Such distinct factors exist exactly when the monomial's
    indices, sorted descending, dominate the block sizes, sorted descending,
    entry by entry: the i largest blocks need i factors of index at least
    the i-th largest size, and giving the i-th largest factor to the i-th
    largest block always works.  A template that no monomial of F dominates
    sends F to zero, so it is skipped; on a single monomial every admitted
    template gives a nonzero result, so the skip is exact.  The check runs
    once per distinct tuple of block sizes within the call, and its verdict
    is looked up once per distinct derivative-block tuple (W([7])'s 5,040
    templates share 877).  ``apply_W(6, p1^6)`` applies 1 template,
    ``apply_W(6, p1*p2*p3)`` 120 and ``apply_W(7, p7)`` 720.
    """
    admit(n, max_n, "apply_W")
    # every template's coefficients have denominators dividing this one
    denominator = lcm(*(c.denominator for c in F._coeffs))
    descending = [mono[::-1] for mono in F._monos]
    # verdicts by block sizes, and by the identity of a derivative-block
    # tuple (equal tuples are one object within a build, and every key
    # stays alive during the call)
    by_sizes: dict[tuple[int, ...], bool] = {}
    by_blocks: dict[int, bool] = {}
    total: dict[Monomial, int] = {}
    for t in decompose_W(n, max_n=max_n):
        blocks = t.derivative_blocks
        admitted = by_blocks.get(id(blocks))
        if admitted is None:
            sizes = tuple(sorted(map(len, blocks), reverse=True))
            admitted = by_sizes.get(sizes)
            if admitted is None:
                admitted = by_sizes[sizes] = _admitted(descending, sizes)
            by_blocks[id(blocks)] = admitted
        if not admitted:
            continue
        part = apply_template(t, F)
        for mono, coeff in zip(part._monos, part._coeffs):
            total[mono] = total.get(mono, 0) + coeff.numerator * (denominator // coeff.denominator)
    return F._like({m: Fraction(c, n * denominator) for m, c in total.items() if c})
