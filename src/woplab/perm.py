"""Permutations of {1..n} with explicit cycle structure, their arrow diagrams
(quivers), and the cut-and-reconnect correspondence between S_{n+1} and S_n.

Conventions used throughout:

- everything is 1-indexed: a permutation of rank n acts on {1, ..., n};
- fixed points are kept as explicit 1-cycles;
- the canonical cycle list starts each cycle at its smallest element and
  sorts cycles by smallest element, so the cycle containing 1 comes first.

Permutations are immutable value objects that hold their image tuple and
nothing else, equal and hashed by it.  Cycles and cycle supports are
computed afresh on each read, so reading them never grows a permutation.  No
group multiplication is provided; the operations that matter here are the
quiver maps and the lift/project pair.

Validation happens where images come from outside: the public constructor,
:meth:`Permutation.from_images`, :meth:`Permutation.from_cycles` and
:meth:`Permutation.parse` check for a bijection on 1..n.  :func:`lift`,
:func:`project` and :func:`all_permutations` build bijections by
construction and skip that check; :func:`project` reads :func:`lift`
backwards.  Cycle notation is scanned by :func:`_tokens`, which also scans
bracket-sequence text for :func:`woplab.noncross.parse_seq`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ParseError

__all__ = [
    "Permutation",
    "HatQuiver",
    "LiftChain",
    "all_permutations",
    "cycles_of",
    "to_quiver",
    "to_hat_quiver",
    "project",
    "lift",
    "lift_chain",
]

# The js of a lift chain: entry m-1 is the index used to lift from rank m to
# rank m+1, so it lies in {0, ..., m}.
LiftChain = tuple[int, ...]

_new, _set = object.__new__, object.__setattr__


@dataclass(frozen=True, eq=False, slots=True)
class Permutation:
    """A permutation of {1..n}, stored by its image tuple.

    ``images[i-1]`` is the image of i.

    >>> p = Permutation.parse("(3 2 1)")
    >>> p(3), p(2), p(1)
    (2, 1, 3)
    >>> p.cycles
    ((1, 3, 2),)
    >>> str(Permutation.parse("(7 2 1)(6 5)(4)(3)"))
    '(1 7 2)(3)(4)(5 6)'
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("rank must be at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {self.images}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation whose images its caller built as a bijection."""
        perm = _new(cls)
        _set(perm, "images", images)
        return perm

    # hand-written: the generated __hash__ builds a 1-tuple on every call
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"{i} is outside 1..{self.n}")
        return self.images[i - 1]

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles in canonical order (see module docstring)."""
        return cycles_of(self.images)

    @property
    def cycle_supports(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c) for c in self.cycles)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_images(cls, images: Sequence[int]) -> "Permutation":
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles covering {1..n}; fixed points explicit.

        >>> Permutation.from_cycles([(4,), (3, 2, 1)]).images
        (3, 1, 2, 4)
        """
        images: dict[int, int] = {}
        for cycle in cycles:
            if not cycle:
                raise ValueError("empty cycle")
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            images[cycle[-1]] = cycle[0]
        n = max(images) if images else 0
        if len(images) != n or min(images, default=1) < 1:
            # n comes from the input: name at most ten, and build nothing of size n
            missing = list(itertools.islice((a for a in range(1, n + 1) if a not in images), 10))
            more = n - sum(a >= 1 for a in images) - len(missing)
            tail = f" and {more} more" if more > 0 else ""
            raise ValueError(f"cycles do not cover 1..{n}; missing {missing}{tail}")
        return cls(tuple(images[i] for i in range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse cycle notation like ``(7 2 1)(6 5)(4)(3)``.

        Whitespace between tokens is insignificant.  A run of digits inside a
        cycle is first read as one integer; if that reading does not give a
        valid permutation, the run is re-read digit by digit, so the compact
        single-digit style ``(321)`` is accepted as well.  Repeated or missing
        integers from {1..n} (n = largest integer present) are rejected.
        """
        runs = _tokenize_cycles(text)
        try:
            return cls.from_cycles([[int(r) for r in cycle] for cycle in runs])
        except ValueError as literal_err:
            try:
                return cls.from_cycles(
                    [[int(d) for r in cycle for d in r] for cycle in runs]
                )
            except ValueError:
                raise ParseError(str(literal_err)) from None

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in self.cycles)


def cycles_of(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The disjoint cycles of the permutation with these images, in
    canonical order; :attr:`Permutation.cycles` reads them from here.

    >>> cycles_of((3, 1, 2, 4))
    ((1, 3, 2), (4,))
    """
    seen: set[int] = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        v = images[start - 1]
        while v != start:
            cycle.append(v)
            seen.add(v)
            v = images[v - 1]
        out.append(tuple(cycle))
    return tuple(out)


def _tokens(text: str) -> Iterator[tuple[str, int]]:
    """Each ``(``, ``)`` and maximal digit run of ``text`` with its offset;
    whitespace is skipped, and any other character raises when reached."""
    i = 0
    while i < len(text):
        ch, j = text[i], i + 1
        if ch.isdigit():
            while j < len(text) and text[j].isdigit():
                j += 1
            yield text[i:j], i
        elif ch in "()":
            yield ch, i
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", position=i)
        i = j


def _tokenize_cycles(text: str) -> list[list[str]]:
    """Split cycle notation into a list of cycles, each a list of digit runs."""
    cycles: list[list[str]] = []
    current: list[str] | None = None
    for token, i in _tokens(text):
        if token == "(":
            if current is not None:
                raise ParseError("nested '('", position=i)
            current = []
        elif token == ")":
            if current is None:
                raise ParseError("unmatched ')'", position=i)
            if not current:
                raise ParseError("empty cycle", position=i)
            cycles.append(current)
            current = None
        elif current is None:
            raise ParseError("integer outside any cycle", position=i)
        else:
            current.append(token)
    if current is not None:
        raise ParseError("unclosed '('", position=len(text))
    if not cycles:
        raise ParseError("no cycles found")
    return cycles


def all_permutations(n: int) -> Iterator[Permutation]:
    """All elements of S_n in lexicographic order of image tuples."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation._unchecked(images)


def to_quiver(perm: Permutation) -> frozenset[tuple[int, int]]:
    """Arrow set {i -> perm(i)} on vertices {1..n}: disjoint loops, one per cycle.

    >>> sorted(to_quiver(Permutation.parse("(1 2 3)")))
    [(1, 2), (2, 3), (3, 1)]
    """
    return frozenset((i, perm(i)) for i in range(1, perm.n + 1))


@dataclass(frozen=True, slots=True)
class HatQuiver:
    """The re-rooted quiver of a rank-n permutation on vertices {1..n+1}.

    Compared with the plain cycle quiver, the single arrow leaving vertex 1
    is replaced by an arrow from the fresh vertex n+1 to the same target.
    The result is one chain starting at n+1 and ending at 1, plus the loops
    of the cycles not containing 1.
    """

    n: int
    arrows: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("rank must be at least 1")
        sources = sorted(s for s, _ in self.arrows)
        targets = sorted(t for _, t in self.arrows)
        # Out-degree 1 on {2..n+1} and in-degree 1 on {1..n} already force the
        # chain-plus-loops shape; the chain property below just walks it.
        if sources != list(range(2, n + 2)):
            raise ValueError(f"sources must be exactly 2..{n + 1}: {sources}")
        if targets != list(range(1, n + 1)):
            raise ValueError(f"targets must be exactly 1..{n}: {targets}")

    @property
    def chain(self) -> tuple[int, ...]:
        """Vertices of the chain, from n+1 down to 1."""
        out = dict(self.arrows)
        path = [self.n + 1]
        while path[-1] in out:
            path.append(out[path[-1]])
        assert path[-1] == 1
        return tuple(path)

    @property
    def loops(self) -> tuple[tuple[int, ...], ...]:
        """Each loop as an arrow-ordered cycle starting at its smallest
        vertex: the cycles of :meth:`to_permutation` that do not hold 1."""
        return self.to_permutation().cycles[1:]

    def to_permutation(self) -> Permutation:
        images = [0] * self.n
        for s, t in self.arrows:
            images[0 if s == self.n + 1 else s - 1] = t
        return Permutation(tuple(images))


def to_hat_quiver(perm: Permutation) -> HatQuiver:
    """Replace the arrow out of vertex 1 by one out of the fresh vertex n+1.

    >>> sorted(to_hat_quiver(Permutation.parse("(1 2 3)")).arrows)
    [(2, 3), (3, 1), (4, 2)]
    """
    n = perm.n
    arrows = {(i, perm(i)) for i in range(2, n + 1)}
    arrows.add((n + 1, perm(1)))
    return HatQuiver(n, frozenset(arrows))


def project(beta: Permutation) -> tuple[Permutation, int]:
    """Drop from S_{n+1} to S_n by deleting/reconnecting hat-quiver arrows.

    In the hat quiver of ``beta`` take the arrow a out of the top vertex n+2
    and the arrow b into n+1.  If they coincide, delete them (j = 0);
    otherwise splice source(b) -> target(a) (j = target(a) = beta(1)).
    Returns (alpha, j), the unique pair with ``lift(alpha, j) == beta``,
    read off the images as :func:`lift` wrote them, backwards.
    """
    m = beta.n
    if m < 2:
        raise ValueError("projection needs rank at least 2")
    b = list(beta.images)
    j = 0 if b[0] == m else b[0]
    if j:
        b[b.index(m)] = j  # splice: the arrow into m now goes to j
    return Permutation._unchecked((b[m - 1], *b[1 : m - 1])), j


def lift(alpha: Permutation, j: int) -> Permutation:
    """Raise from S_n to S_{n+1}; the inverse of :func:`project`.

    j = 0 inserts n+1 immediately after 1 in the cycle containing 1.  For
    1 <= j <= n, the unique hat-quiver arrow i -> j is cut and replaced by
    n+2 -> j and i -> n+1, splitting the chain (when j lies on it) or
    merging a loop into it.  When the cut arrow leaves the top vertex
    itself (j = alpha(1)), the rule degenerates and n+1 becomes a fixed
    point of the result.

    >>> lift(Permutation.parse("(4)(321)"), 0).cycles
    ((1, 5, 3, 2), (4,))
    >>> lift(Permutation.parse("(4)(321)"), 3).cycles
    ((1, 3, 2), (4,), (5,))
    """
    n = alpha.n
    if not 0 <= j <= n:
        raise ValueError(f"lift index must be in 0..{n}, got {j}")
    m = n + 1
    a = alpha.images
    # the hat quiver keeps v -> alpha(v) for v >= 2 and adds m -> alpha(1)
    new = [j or m, *a[1:], a[0]]
    if j:
        # cut the hat arrow i -> j; i = m when the arrow leaves the top vertex
        i = a.index(j)
        new[i or n] = m
    return Permutation._unchecked(tuple(new))


def lift_chain(perm: Permutation) -> LiftChain:
    """The js rebuilding ``perm`` from the identity of S_1 by repeated lifts.

    Entry m-1 is the index used when lifting from rank m to rank m+1; the
    chain is unique because projection recovers both the dropped
    permutation and the lift index.

    >>> lift_chain(Permutation.parse("(3 2 1)"))
    (0, 0)
    >>> lift_chain(Permutation.parse("(1 3)(2)"))
    (1, 0)
    """
    js: list[int] = []
    current = perm
    while current.n > 1:
        current, j = project(current)
        js.append(j)
    return tuple(reversed(js))
