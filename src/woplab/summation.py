"""Summation templates: the n! permutation-indexed pieces of the W-operator.

The operator (1/n):tr(D^n): acting on polynomials in p_1, p_2, ... splits
into one infinite summation per permutation beta of S_n.  Each summation has
the normal form

    sum over k_1..k_n >= 1 of
        [prod over cycle blocks c of p_(sum of k_v, v in c)]
        * [prod over derivative blocks b of (sum of k_v, v in b)]
        * [prod over derivative blocks b of d/dp_(sum of k_v, v in b)]

so a template is just the pair (cycle partition, derivative partition) of
{1..n} together with the owning permutation.  The cycle partition is read off
beta directly; the derivative partition follows beta's lift chain: a lift
with index 0 contributes a fresh singleton derivative factor, and a lift with
index j >= 1 substitutes k_j -> k_j + k_new, i.e. grows the block containing
j.  The 1/n prefactor is *not* part of the template; the application layer
supplies it.

A single template (:func:`summation_of`) replays beta's lift chain.  All n!
of them (:func:`decompose_W`) come from one walk down the lift tree instead:
since lift_chain(lift(alpha, j)) == lift_chain(alpha) + (j,), the blocks of
each child lift(alpha, j) are those of alpha with the single lift step above
applied to the new vertex, so every permutation of rank m+1 is built from
its parent of rank m by one lift.  The templates of W([n]) depend on n
alone, so :func:`decompose_W` keeps them for n <= 7 and builds each such n
once per process.  Templates, like permutations, hold their fields and
nothing else, so what callers read from a kept template leaves it as built.

Validation happens where a template comes from outside: the public
constructor checks that its cycle blocks are the permutation's cycle
partition and that its derivative blocks partition 1..n.
:func:`summation_of` and :func:`decompose_W` derive both partitions from
the permutation itself and skip those checks.

The text forms, :func:`render` and :func:`to_json`, are joined from texts
kept per block of indices: per format, the block's coefficient text and
index sum, and its JSON text.  Up to rank n that is at most 2^n - 1 blocks
per format, where texts kept per template or per block tuple would number
in the thousands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import admit
from .perm import Permutation, lift, lift_chain

__all__ = [
    "SummationTemplate",
    "summation_of",
    "degree",
    "is_OS",
    "has_descending_cycles",
    "has_nested_or_ordered_supports",
    "satisfies_star",
    "decompose_W",
    "render",
    "DEFAULT_MAX_DECOMPOSE",
]

# Full enumeration of S_n.  W([8]) is built afresh on each call; n = 9
# (about 11 s) needs an explicit max_n.
DEFAULT_MAX_DECOMPOSE = 8

Blocks = tuple[tuple[int, ...], ...]

_new, _set = object.__new__, object.__setattr__


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    # disjoint blocks differ in their smallest element, so sorting the
    # sorted blocks as tuples orders them by it
    return tuple(sorted([tuple(sorted(b)) for b in blocks]))


def _cycle_blocks(perm: Permutation) -> Blocks:
    # cycles come ordered by smallest element
    return tuple(tuple(sorted(c)) for c in perm.cycles)


@dataclass(frozen=True, slots=True)
class SummationTemplate:
    """Normal form of one summation: owning permutation plus two set partitions."""

    perm: Permutation
    cycle_blocks: Blocks
    derivative_blocks: Blocks

    def __post_init__(self):
        n = self.perm.n
        expected = _cycle_blocks(self.perm)
        if self.cycle_blocks != expected:
            raise ValueError("cycle_blocks must be the cycle partition of perm")
        covered = sorted(v for b in self.derivative_blocks for v in b)
        if covered != list(range(1, n + 1)):
            raise ValueError(f"derivative_blocks must partition 1..{n}")
        # True and 1.0 equal 1, so only the type keeps them out of the texts
        # kept per block
        blocks = (*self.derivative_blocks, *self.cycle_blocks)
        if any(type(v) is not int for b in blocks for v in b):
            raise ValueError("blocks must hold ints")

    @classmethod
    def _unchecked(
        cls, perm: Permutation, cycle_blocks: Blocks, derivative_blocks: Blocks
    ) -> "SummationTemplate":
        """A template whose blocks its caller derived from ``perm``."""
        t = _new(cls)
        _set(t, "perm", perm)
        _set(t, "cycle_blocks", cycle_blocks)
        _set(t, "derivative_blocks", derivative_blocks)
        return t

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def dP(self) -> int:
        return len(self.cycle_blocks)

    @property
    def dD(self) -> int:
        return len(self.derivative_blocks)

    @property
    def degree(self) -> int:
        return self.dP + self.dD


def summation_of(beta: Permutation) -> SummationTemplate:
    """The template owned by beta, built by replaying its lift chain."""
    blocks: list[list[int]] = [[1]]
    for m, j in enumerate(lift_chain(beta), start=1):
        if j == 0:
            blocks.append([m + 1])
        else:
            next(b for b in blocks if j in b).append(m + 1)
    return SummationTemplate._unchecked(
        beta, _cycle_blocks(beta), _canonical_blocks(blocks)
    )


def degree(t: SummationTemplate) -> tuple[int, int, int]:
    """(polynomial degree, differential order, total degree)."""
    return t.dP, t.dD, t.degree


def is_OS(t: SummationTemplate) -> Optional[tuple[int, int]]:
    """The (r, s) type when the template has the maximal degree n+1, else None."""
    if t.degree == t.n + 1:
        return t.dP, t.dD
    return None


def has_descending_cycles(perm: Permutation) -> bool:
    """Every cycle of length >= 2, followed along arrows, descends through its
    support, with the single ascent being the wrap from minimum to maximum.
    Fixed points hold vacuously."""
    return _descending(perm.cycles)


def _descending(cycles: Blocks) -> bool:
    # a canonical cycle starts at its minimum and follows the arrows, so it
    # descends exactly when the entries after the minimum decrease; the wrap
    # back to the minimum is then the single ascent
    for cycle in cycles:
        rest = list(cycle[1:])
        if rest != sorted(rest, reverse=True):
            return False
    return True


def has_nested_or_ordered_supports(perm: Permutation) -> bool:
    """Any two cycle supports are interval-disjoint or one avoids the other's
    span entirely (nesting); interleaved supports fail."""
    return _nested_or_ordered(perm.cycles)


def _nested_or_ordered(cycles: Blocks) -> bool:
    spans = [(min(c), max(c)) for c in cycles]
    for i, a in enumerate(cycles):
        lo_a, hi_a = spans[i]
        for b, (lo_b, hi_b) in zip(cycles[i + 1 :], spans[i + 1 :]):
            a_avoids_b = all(v < lo_b or v > hi_b for v in a)
            b_avoids_a = all(v < lo_a or v > hi_a for v in b)
            if not (a_avoids_b or b_avoids_a):
                return False
    return True


def satisfies_star(perm: Permutation) -> bool:
    """Both structural conditions that characterise the maximal-degree
    summations (checked directly, never via the degree), on one reading of
    the permutation's cycles."""
    cycles = perm.cycles
    return _descending(cycles) and _nested_or_ordered(cycles)


# The largest n whose templates decompose_W keeps for the life of the
# process (its docstring gives the memory this costs), and the kept templates.
_KEEP_MAX_N = 7
_KEPT: dict[int, tuple[SummationTemplate, ...]] = {}


def decompose_W(n: int, *, max_n: int = DEFAULT_MAX_DECOMPOSE) -> list[SummationTemplate]:
    """All n! templates of W([n]), ordered by image tuple of the permutation.

    The templates depend on n alone, so for n <= 7 they are built once per
    process and kept; every call returns a fresh list of the same frozen
    templates.  Within one build, equal blocks and equal block tuples are
    one object: the 5,040 templates of W([7]) share 127 blocks and 877 block
    tuples.  Templates and permutations hold their fields alone, so reading
    their cycles keeps nothing.  Kept this way, W([6]) and W([7]) together
    hold about 1.3 MB by tracemalloc; W([8]) alone would pin about 8.7 MB,
    so it is built afresh on every call.  n = 9 is refused unless ``max_n``
    admits it.
    """
    admit(n, max_n, "decompose_W")
    if n > _KEEP_MAX_N:
        return _build_templates(n)
    templates = _KEPT.get(n)
    if templates is None:
        templates = _KEPT[n] = tuple(_build_templates(n))
    return list(templates)


def _build_templates(n: int) -> list[SummationTemplate]:
    """W([n])'s templates, built rank by rank down the lift tree.

    Each (alpha, blocks) of rank m has the m+1 children lift(alpha, j),
    whose derivative blocks extend alpha's by the vertex m+1, as a new
    singleton for j = 0 and into the block holding j otherwise.  This equals
    :func:`summation_of` on every child, because
    lift_chain(lift(alpha, j)) == lift_chain(alpha) + (j,), without
    projecting each permutation back to rank 1.
    """
    # blocks are tuples of vertices; owner[v-1] is the position of v's block.
    # New vertices are larger than all earlier ones, so blocks stay sorted
    # and in order of their smallest element, as _canonical_blocks makes them.
    level: list[tuple[Permutation, Blocks, tuple[int, ...]]] = [
        (Permutation((1,)), ((1,),), (0,))
    ]
    for m in range(1, n):
        top = m + 1
        grown = []
        for alpha, blocks, owner in level:
            grown.append((lift(alpha, 0), blocks + ((top,),), owner + (len(blocks),)))
            for j in range(1, top):
                b = owner[j - 1]
                extended = blocks[:b] + (blocks[b] + (top,),) + blocks[b + 1 :]
                grown.append((lift(alpha, j), extended, owner + (b,)))
        level = grown
    # one object per distinct block and per distinct block tuple
    shared: dict = {}

    def share(blocks: Blocks) -> Blocks:
        kept = shared.get(blocks)
        if kept is None:
            kept = shared[blocks] = tuple(shared.setdefault(b, b) for b in blocks)
        return kept

    templates = [
        SummationTemplate._unchecked(
            beta, share(_cycle_blocks(beta)), share(blocks)
        )
        for beta, blocks, _ in level
    ]
    templates.sort(key=lambda t: t.perm.images)
    return templates


class _Kept(dict):
    """A table that makes each missing entry once, as ``make(key)``, and
    keeps it for the life of the process."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _kept_texts(k: str) -> tuple[_Kept, _Kept]:
    """For the index letter k: the index list per rank n, and per block its
    coefficient text and index sum, such as ("(k1+k3)", "k1+k3") for (1, 3).
    At most 2^n - 1 blocks are kept up to rank n."""

    def block_texts(block: tuple[int, ...]) -> tuple[str, str]:
        s = "+".join(f"{k}{v}" for v in block)
        return (s if len(block) == 1 else f"({s})", s)

    return _Kept(lambda n: ",".join(f"{k}{v}" for v in range(1, n + 1))), _Kept(block_texts)


# per format: its kept texts, the text between two p-factors' index sums and
# between two derivatives' index sums, and the frame
_RENDER_TOKENS = {
    "plain": (
        *_kept_texts("k"),
        "} p_{",
        "} d/dp_{",
        "sum_{{{indices}}} {coeffs} p_{{{polys}}} d/dp_{{{derivs}}}",
    ),
    "latex": (
        *_kept_texts("k_"),
        "}p_{",
        "}\\partial p_{",
        "\\sum_{{{indices}\\geq 1}} {coeffs} p_{{{polys}}}"
        "\\frac{{\\partial{order}}}{{\\partial p_{{{derivs}}}}}",
    ),
}


def render(t: SummationTemplate, fmt: str = "plain") -> str:
    """Render a template as ``plain`` text, ``latex``, or a ``json`` object.

    The text is joined from kept pieces: the index list per (format, n),
    and each block's coefficient text and index sum per (format, block)."""
    if fmt == "json":
        return to_json(t)
    if fmt not in _RENDER_TOKENS:
        raise ValueError(f"unknown format {fmt!r} (expected plain, latex, or json)")
    return _joined(t, *_RENDER_TOKENS[fmt])


def _joined(t: SummationTemplate, indices, texts, p_sep, d_sep, frame) -> str:
    """The text of t from one format's tokens (see ``_RENDER_TOKENS``)."""
    blocks = [texts[b] for b in t.derivative_blocks]
    return frame.format(
        indices=indices[t.n],
        coeffs=" ".join([coeff for coeff, _ in blocks]),
        polys=p_sep.join([texts[c][1] for c in t.cycle_blocks]),
        derivs=d_sep.join([s for _, s in blocks]),
        order="" if len(blocks) == 1 else f"^{{{len(blocks)}}}",
    )


# the latex tokens that write the latex text as the inside of a JSON
# string: kept texts hold no backslash or quote, so escaping these does
_LATEX_JSON = tuple(
    token.replace("\\", "\\\\") if isinstance(token, str) else token
    for token in _RENDER_TOKENS["latex"]
)


# the JSON text of each block, such as "[1, 3]", kept like the render texts
_BLOCK_JSON = _Kept(lambda block: "[%s]" % ", ".join(map(str, block)))


def to_json_dict(t: SummationTemplate) -> dict:
    """The template's JSON object, read back from :func:`to_json`."""
    return json.loads(to_json(t))


def to_json(t: SummationTemplate) -> str:
    """The template as one JSON object, in ``json.dumps``'s default layout,
    written straight from its fields: a list of lists of ints has the same
    repr as its JSON text, and each block's text is kept.  This is the only
    writer of template JSON."""
    os_type = is_OS(t)
    return (
        '{"n": %d, "perm": %r, "cycle_blocks": [%s], "derivative_blocks": [%s], '
        '"dP": %d, "dD": %d, "degree": %d, "os_type": %s, "latex": "%s"}'
    ) % (
        t.n,
        list(map(list, t.perm.cycles)),
        ", ".join([_BLOCK_JSON[b] for b in t.cycle_blocks]),
        ", ".join([_BLOCK_JSON[b] for b in t.derivative_blocks]),
        t.dP,
        t.dD,
        t.degree,
        "[%d, %d]" % os_type if os_type else "null",
        _joined(t, *_LATEX_JSON),
    )
