"""Non-crossing bracket sequences over the descending word n n-1 ... 1.

A sequence is stored as an array of n+1 "gap" values: gap 0 sits before n,
gap g (1 <= g <= n-1) sits between integers n-g+1 and n-g, and gap n sits
after 1.  A gap holds at most one right bracket followed by at most one left
bracket, so the alphabet is "", "(", ")" and ")(";  the leading gap can hold
only "(" and the trailing gap only ")".  Validity additionally requires that
brackets balance and that every integer lies inside at least one pair (under
the slot discipline every pair automatically encloses at least one integer).

Matched pairs are labelled by their right brackets counted from the right:
the rightmost right bracket closes pair 1.  Because right brackets occupy
distinct gaps, the pairs containing a given integer form a nesting chain and
the innermost one is the pair with the largest label; decoding assigns each
integer to that pair and reads each pair's integers as a descending cycle.

The dual sequence rewrites the four bracket positions around each integer by
a fixed 16-row local table.  The table is equivalent to toggling each
interior gap between "" and ")(" while fixing lone brackets, which this
module also implements as an independent cross-check.

Sequences are equal and hashed by (n, gaps), as by gaps alone.  Validation
happens where gaps come from outside: the public constructor,
:func:`parse_seq`, :func:`encode` and the rank shifts check every sequence
they build.  :func:`enumerate_sequences` builds only sequences its pruned
walk has kept valid, and both dual formulations build only duals of valid
sequences, so they skip the check.  That a dual is valid is part of what
``woplab verify dual`` claims: each dual must be one of the enumerated
sequences.  Text is scanned by the cycle-notation scanner of
:mod:`woplab.perm`, and the JSON text of a sequence is ``json.dumps`` of its
dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import ParseError, admit
from .perm import Permutation, _tokens
from .summation import satisfies_star

__all__ = [
    "BracketSequence",
    "BracketPair",
    "PairClassification",
    "parse_seq",
    "print_seq",
    "decode",
    "encode",
    "classify_pairs",
    "dual",
    "dual_via_gap_toggle",
    "enumerate_sequences",
    "enumerate_json",
    "enumerate_single_top",
    "rank_shift_up",
    "rank_shift_down",
    "DEFAULT_MAX_ENUMERATE",
]

GAP_ALPHABET = ("", "(", ")", ")(")
# (right brackets, left brackets) held by each gap value
_GAP_STEPS = {gap: (gap.count(")"), gap.count("(")) for gap in GAP_ALPHABET}
# the change in bracket depth across each gap value, and its JSON text
_GAP_DEPTH = {gap: opens - closes for gap, (closes, opens) in _GAP_STEPS.items()}
_GAP_JSON = {gap: json.dumps(gap) for gap in GAP_ALPHABET}
DEFAULT_MAX_ENUMERATE = 12

_new, _set = object.__new__, object.__setattr__


class BracketPair(NamedTuple):
    """One matched pair: label, bracket gap positions, and the integers whose
    innermost enclosing pair this is (the cycle support under decoding)."""

    label: int
    left_gap: int
    right_gap: int
    members: tuple[int, ...]

    def contains(self, other: "BracketPair") -> bool:
        return self.left_gap < other.left_gap and other.right_gap < self.right_gap


@dataclass(frozen=True)
class BracketSequence:
    """A valid bracket insertion into the word n n-1 ... 1 (see module docs)."""

    n: int
    gaps: tuple[str, ...]

    def __post_init__(self):
        n = self.n
        if _accepted_in_one_pass(n, self.gaps):
            return
        # the ordered checks, which name the first fault
        if n < 1:
            raise ValueError("n must be at least 1")
        if len(self.gaps) != n + 1:
            raise ValueError(f"need {n + 1} gap values, got {len(self.gaps)}")
        if self.gaps[0] not in ("", "("):
            raise ValueError("the gap before the first integer may hold only '('")
        if self.gaps[n] not in ("", ")"):
            raise ValueError("the gap after the last integer may hold only ')'")
        steps = [_GAP_STEPS.get(gap) for gap in self.gaps]
        if None in steps:
            g = steps.index(None)
            raise ValueError(f"bad gap value {self.gaps[g]!r} at gap {g}")
        depth = 0
        # no ')' closes nothing: gap 0 holds none, later gaps start at depth >= 1
        for g, (closes, opens) in enumerate(steps):
            depth += opens - closes
            if depth < 1 and g < n:
                raise ValueError(f"integer {n - g} is not inside any bracket pair")
        if depth != 0:
            raise ValueError("unbalanced brackets: unclosed '('")

    @classmethod
    def _unchecked(cls, n: int, gaps: tuple[str, ...]) -> "BracketSequence":
        """A sequence whose gaps its caller built valid on n integers."""
        seq = _new(cls)
        _set(seq, "n", n)
        _set(seq, "gaps", gaps)
        return seq

    @property
    def r(self) -> int:
        """Number of bracket pairs, counted as left brackets (a gap holds at
        most one, at its end) without matching them."""
        return "".join(self.gaps).count("(")

    @cached_property
    def pairs(self) -> tuple[BracketPair, ...]:
        """Matched pairs sorted by label (1 = rightmost right bracket), as
        :func:`_matched_pairs` finds them."""
        return tuple(
            BracketPair(label, left, right, tuple(members))
            for label, (left, right, members) in enumerate(
                _matched_pairs(self.n, self.gaps), 1
            )
        )

    @property
    def top_level_labels(self) -> tuple[int, ...]:
        """Labels of the pairs no other pair contains, in label order.  Pairs
        in label order have descending right gaps, so a pair is top-level
        exactly when it opens left of every pair before it."""
        labels = []
        leftmost = self.n + 1
        for p in self.pairs:
            if p.left_gap < leftmost:
                labels.append(p.label)
                leftmost = p.left_gap
        return tuple(labels)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_json_dict(self) -> dict:
        """Labels and members come straight from :func:`_matched_pairs`, so
        no :class:`BracketPair` is built or cached on the sequence."""
        matched = _matched_pairs(self.n, self.gaps)
        return {
            "n": self.n,
            "gaps": list(self.gaps),
            "pairs": [
                {"label": label, "members": members}
                for label, (_, _, members) in enumerate(matched, 1)
            ],
        }

    def __str__(self) -> str:
        return print_seq(self)


def _matched_pairs(n: int, gaps: tuple[str, ...]) -> list[tuple[int, int, list[int]]]:
    """(left gap, right gap, members ascending) of each pair, in label order.

    One stack pass over the gaps: a ')' closes the pair on top of the stack,
    a '(' opens one, and the integer after each gap joins the pair then on
    top, which is its innermost enclosing pair.  The c-th pair closed from
    the left gets label r - c + 1.
    """
    open_pairs: list[tuple[int, list[int]]] = []
    closed: list[tuple[int, int, list[int]]] = []
    for g, gap in enumerate(gaps):
        closes, opens = _GAP_STEPS[gap]
        if closes:
            left, members = open_pairs.pop()
            closed.append((left, g, members))
        if opens:
            open_pairs.append((g, []))
        if g < n:
            open_pairs[-1][1].append(n - g)
    closed.reverse()
    for _, _, members in closed:
        assert members, "a pair with no directly enclosed integer"
        members.reverse()
    return closed


def _accepted_in_one_pass(n: int, gaps: tuple[str, ...]) -> bool:
    """Whether the gaps form a valid sequence on n integers, by one pass:
    the depth after each gap is the running sum of the gaps' depth changes,
    it must stay at least 1 up to gap n-1 and end at 0 after gap n.

    Depth changes are -1, 0 or 1, so a depth that stays positive never lets
    a ')' close nothing; a first gap holding ')' leaves the depth below 1
    and a last gap holding '(' leaves it above 0, so the boundary rules need
    no test of their own.  False means only "not shown valid here": the
    caller's ordered checks decide, and name the fault.
    """
    if n < 1 or len(gaps) != n + 1:
        return False
    depth = 0
    try:
        for gap in gaps[:n]:
            depth += _GAP_DEPTH[gap]
            if depth < 1:
                return False
        return depth + _GAP_DEPTH[gaps[n]] == 0
    except (KeyError, TypeError):  # an unknown or unhashable gap value
        return False


# -- text format --------------------------------------------------------------


def print_seq(seq: BracketSequence, labels: bool = False) -> str:
    """Canonical text.  Compact for n <= 9 (matching the usual examples);
    for larger n a space separates integers whose gap is empty.  With
    ``labels=True`` every token is space-separated and brackets carry their
    pair label as ``(_i`` / ``)_i``."""
    if labels:
        by_left = {p.left_gap: p.label for p in seq.pairs}
        by_right: dict[int, int] = {p.right_gap: p.label for p in seq.pairs}
        tokens: list[str] = []
        for g in range(seq.n + 1):
            for ch in seq.gaps[g]:
                tokens.append(f")_{by_right[g]}" if ch == ")" else f"(_{by_left[g]}")
            if g < seq.n:
                tokens.append(str(seq.n - g))
        return " ".join(tokens)
    parts: list[str] = []
    for g in range(seq.n + 1):
        parts.append(seq.gaps[g])
        if g < seq.n:
            if seq.n >= 10 and g > 0 and seq.gaps[g] == "":
                parts.append(" ")
            parts.append(str(seq.n - g))
    return "".join(parts)


def _gaps_from_tokens(n: int, tokens: list[tuple[str, int]]) -> BracketSequence:
    """Assemble gap strings from (token, position) pairs whose integer
    tokens are n, n-1, ... in order, as :func:`_split_runs` emits them; they
    must reach 1.  The gap list grows with the integers read, so a
    misreading with a huge n costs nothing before it fails."""
    gaps = [""]
    expected = n
    for token, pos in tokens:
        if token.isdigit():
            expected -= 1
            gaps.append("")
        else:
            new = gaps[-1] + token
            if new not in GAP_ALPHABET:
                if new in ("((", ")((", "))", "))("):
                    raise ParseError(
                        "at most one left and one right bracket fit between "
                        "two integers",
                        position=pos,
                    )
                raise ParseError(
                    "a left bracket immediately closed: every pair must "
                    "enclose an integer",
                    position=pos,
                )
            gaps[-1] = new
    if expected != 0:
        raise ParseError(f"sequence stopped before integer {expected}")
    try:
        return BracketSequence(n, tuple(gaps))
    except ValueError as err:
        raise ParseError(str(err)) from None


def parse_seq(text: str) -> BracketSequence:
    """Parse bracket-sequence text such as ``(4(3)2)(1)``.

    Whitespace is insignificant.  Unspaced multi-digit input is resolved by
    the required strict descent: a digit run may spell several consecutive
    integers, and the reading of the first run that makes the whole text
    parse (longest first) wins.
    """
    runs = list(_tokens(text))
    first_run = next((r for r, _ in runs if r.isdigit()), None)
    if first_run is None:
        raise ParseError("no integers found")
    if first_run[0] == "0":
        raise ParseError("integers may not have leading zeros")
    candidates = [int(first_run[:length]) for length in range(len(first_run), 0, -1)]
    best_error: ParseError | None = None
    for n in candidates:
        try:
            return _gaps_from_tokens(n, _split_runs(runs, n))
        except ParseError as err:
            # report the reading that progressed furthest
            if best_error is None or (err.position or -1) > (best_error.position or -1):
                best_error = err
    assert best_error is not None
    raise best_error


def _split_runs(runs: list[tuple[str, int]], n: int) -> list[tuple[str, int]]:
    """Split digit runs into the expected consecutive integers n, n-1, ..."""
    tokens: list[tuple[str, int]] = []
    expected = n
    for run, pos in runs:
        if not run.isdigit():
            tokens.append((run, pos))
            continue
        offset = 0
        while offset < len(run):
            want = str(expected)
            if expected < 1 or not run.startswith(want, offset):
                raise ParseError(
                    f"expected integer {expected}", position=pos + offset
                )
            tokens.append((want, pos + offset))
            offset += len(want)
            expected -= 1
    return tokens


# -- the bijection with star permutations --------------------------------------


def decode(seq: BracketSequence) -> Permutation:
    """Read off the star permutation: each pair's members, taken from the
    innermost pair outward, form the descending cycle on their set.

    >>> decode(parse_seq("(4)(321)")).cycles
    ((1, 3, 2), (4,))
    """
    cycles = [sorted(p.members, reverse=True) for p in seq.pairs]
    return Permutation.from_cycles(cycles)


def encode(perm: Permutation) -> BracketSequence:
    """Inverse of :func:`decode`: one pair per cycle support, opening before
    the maximum and closing after the minimum.  Rejects permutations whose
    summation is not of maximal degree (they have no bracket sequence).

    >>> print_seq(encode(Permutation.parse("(5 3 1)(2)(4)(6)")))
    '(6)(5(4)3(2)1)'
    """
    if not satisfies_star(perm):
        raise ValueError(
            f"{perm} does not satisfy the descending/non-crossing conditions"
        )
    n = perm.n
    rights = [""] * (n + 1)
    lefts = [""] * (n + 1)
    for support in perm.cycle_supports:
        lefts[n - max(support)] = "("
        rights[n - min(support) + 1] = ")"
    return BracketSequence(n, tuple(r + l for r, l in zip(rights, lefts)))


# -- pair classification --------------------------------------------------------


@dataclass(frozen=True)
class PairClassification:
    top_level: frozenset[int]
    embedded: frozenset[int]
    bottom_level: frozenset[int]
    adjacent: frozenset[tuple[int, int]]


def classify_pairs(seq: BracketSequence) -> PairClassification:
    """Pair flags plus the adjacency relation (no integers strictly between
    two pairs, which under the slot discipline means they share a ')(' gap)."""
    pairs = seq.pairs
    top_level = frozenset(seq.top_level_labels)
    # q opening where p closes has its ')' right of p's, so the smaller label
    adjacent = frozenset(
        (q.label, p.label) for p in pairs for q in pairs if p.right_gap == q.left_gap
    )
    return PairClassification(
        top_level=top_level,
        embedded=frozenset(p.label for p in pairs) - top_level,
        bottom_level=frozenset(
            p.label for p in pairs if not any(p.contains(q) for q in pairs)
        ),
        adjacent=adjacent,
    )


# -- duality --------------------------------------------------------------------


# Local rewrite of the four bracket positions around one integer k, given as
# presence bits (right-above, left-above, right-below, left-below).  Rows come
# in involutive mirror-image pairs; the fixed rows are those whose gaps hold a
# single lone bracket.
_DUAL_TABLE = {
    (0, 0, 0, 0): (1, 1, 1, 1),  # k      -> )(k)(
    (0, 0, 1, 0): (1, 1, 1, 0),  # k)     -> )(k)
    (0, 1, 0, 0): (0, 1, 1, 1),  # (k     -> (k)(
    (0, 0, 0, 1): (1, 1, 0, 1),  # k(     -> )(k(
    (1, 0, 0, 0): (1, 0, 1, 1),  # )k     -> )k)(
    (0, 1, 1, 0): (0, 1, 1, 0),  # (k)    -> (k)
    (1, 0, 0, 1): (1, 0, 0, 1),  # )k(    -> )k(
    (0, 1, 0, 1): (0, 1, 0, 1),  # (k(    -> (k(
    (1, 0, 1, 0): (1, 0, 1, 0),  # )k)    -> )k)
    (1, 1, 0, 0): (0, 0, 1, 1),  # )(k    -> k)(
    (0, 0, 1, 1): (1, 1, 0, 0),  # k)(    -> )(k
    (1, 1, 1, 0): (0, 0, 1, 0),  # )(k)   -> k)
    (0, 1, 1, 1): (0, 1, 0, 0),  # (k)(   -> (k
    (1, 1, 0, 1): (0, 0, 0, 1),  # )(k(   -> k(
    (1, 0, 1, 1): (1, 0, 0, 0),  # )k)(   -> )k   (mirror of the )k row)
    (1, 1, 1, 1): (0, 0, 0, 0),  # )(k)(  -> k
}


def _gap_text(right: int, left: int) -> str:
    return ")" * right + "(" * left


# _DUAL_TABLE on gap strings: (gap above k, gap below k) -> their rewrites
_DUAL_GAPS = {
    (_gap_text(ra, la), _gap_text(rb, lb)): (_gap_text(na, nla), _gap_text(nb, nlb))
    for (ra, la, rb, lb), (na, nla, nb, nlb) in _DUAL_TABLE.items()
}


def dual(seq: BracketSequence) -> BracketSequence:
    """The dual sequence via the 16-row local table; swaps a sequence with r
    pairs into one with n-r+1 pairs, and is an involution.

    Each integer rewrites the gaps above and below it by one lookup in the
    table keyed by gap strings.  Every interior gap is rewritten twice, as
    the lower gap of one integer and the upper gap of the next, and both
    rewrites must agree.

    >>> print_seq(dual(parse_seq("(7(65)(4)(3)21)")))
    '(7(6)(543)2)(1)'
    """
    gaps = seq.gaps
    uppers, lowers = zip(*map(_DUAL_GAPS.__getitem__, zip(gaps, gaps[1:])))
    assert uppers[1:] == lowers[:-1], "inconsistent local rewrites"
    return BracketSequence._unchecked(seq.n, uppers[:1] + lowers)


# the gap toggle: interior "" and ")(" swap, lone brackets stay
_TOGGLE = {"": ")(", ")(": "", "(": "(", ")": ")"}


def dual_via_gap_toggle(seq: BracketSequence) -> BracketSequence:
    """Independent formulation of the dual: toggle each interior gap between
    "" and ")(" and leave lone brackets (and the boundary gaps) unchanged."""
    gaps = seq.gaps
    return BracketSequence._unchecked(
        seq.n, (gaps[0], *map(_TOGGLE.__getitem__, gaps[1:-1]), gaps[-1])
    )


# -- enumeration -----------------------------------------------------------------


def enumerate_sequences(
    n: int, r: int | None = None, *, max_n: int = DEFAULT_MAX_ENUMERATE
) -> list[BracketSequence]:
    """All valid sequences on n integers (with exactly r pairs when given),
    in lexicographic order of their gap arrays under the alphabet order
    "" < "(" < ")" < ")(".
    """
    admit(n, max_n, "enumeration")
    if r is not None and not 1 <= r <= n:
        return []
    unchecked = BracketSequence._unchecked
    return [unchecked(n, gaps) for gaps in _walk(n, r)]


def enumerate_json(
    n: int, r: int, *, max_n: int = DEFAULT_MAX_ENUMERATE
) -> Iterator[str]:
    """The text of ``s.to_json()`` for each ``s`` in
    ``enumerate_sequences(n, r)``, in that order, one at a time and without
    building the sequences.  n is admitted when this is called, before the
    first text is asked for."""
    admit(n, max_n, "enumeration")
    if not 1 <= r <= n:
        return iter(())
    return _walk(n, r, as_json=True)


def _walk(n: int, r: int | None, as_json: bool = False) -> Iterator:
    """Every valid gap tuple on n integers (with r left brackets when r is
    given) in lexicographic order, by one depth-first walk down
    :func:`_prefix_steps`; with ``as_json`` (r given) the JSON text of each.

    For JSON, a prefix carries its gaps' text, each open pair's members
    text (innermost first, as nested 2-tuples) and its closed pairs' text in
    label order.  A pair's text is written once, when it closes: the c-th
    pair closed has label r - c + 1, and every leaf below shares that text.
    """
    root = _prefix_steps(n, r)
    if not as_json:
        stack = [((), root)]
        while stack:
            gaps, (last, steps) = stack.pop()
            if last:
                for step in steps:
                    yield gaps + step[0]
            else:
                stack += [(gaps + step[0], step[-1]) for step in reversed(steps)]
        return
    # gaps text, open pairs' members, closed pairs' text, pairs closed, steps
    stack = [("", None, "", 0, root)]
    while stack:
        text, opened, pairs, closed, (last, steps) = stack.pop()
        for _, piece, closes, more, k, below in steps if last else reversed(steps):
            open_now, done, c = opened, pairs, closed
            if closes:
                members, open_now = open_now
                c += 1
                done = _pair_json(r - c + 1, members, done)
            if more:
                open_now = ("", open_now)
            top, outer = open_now
            open_now = (k + ", " + top if top else k, outer)
            if last:
                # the trailing ")" closes the last open pair, label 1
                yield '{"n": %d, "gaps": [%s, ")"], "pairs": [%s]}' % (
                    n, text + piece, _pair_json(1, open_now[0], done)
                )
            else:
                stack.append((text + piece, open_now, done, c, below))


def _prefix_steps(n: int, r: int | None) -> tuple[bool, list]:
    """The pruned prefix tree of :func:`_walk`, one node per state.

    A prefix of g gaps is kept only if it can be completed: the next
    integer is covered, the depth can still fall to 1 before the trailing
    gap closes the last pair (each later interior gap closes at most one),
    and with r given the left brackets can still total exactly r.  That
    depends only on (g, depth, left brackets), the state.  A node is
    (whether its children are complete, their steps in alphabet order); a
    step is (gaps it adds, their JSON text, its ')' and '(' counts, the
    integer after it, the child's node), and at the last interior gap it
    adds the trailing ")" too.
    """
    nodes: dict[tuple[int, int, int], tuple[bool, list]] = {}

    def node(g: int, depth: int, opens: int) -> tuple[bool, list]:
        key = (g, depth, opens)
        if key not in nodes:
            room = n - g  # gaps g..n-1 can each hold one '('
            last = g == n - 1
            steps = []
            for value in ("", "(") if g == 0 else GAP_ALPHABET:
                closes, more = _GAP_STEPS[value]
                d, o = depth - closes + more, opens + more
                if 1 <= d <= room and (r is None or o <= r < o + room):
                    steps.append((
                        (value, ")") if last else (value,),
                        (", " if g else "") + _GAP_JSON[value],
                        closes,
                        more,
                        str(n - g),
                        None if last else node(g + 1, d, o),
                    ))
            nodes[key] = (last, steps)
        return nodes[key]

    return node(0, 0, 0)


def _pair_json(label: int, members: str, later: str) -> str:
    """One pair's JSON text, put before the text of the pairs with larger
    labels."""
    pair = '{"label": %d, "members": [%s]}' % (label, members)
    return pair + ", " + later if later else pair


def enumerate_single_top(
    n: int, r: int | None = None, *, max_n: int = DEFAULT_MAX_ENUMERATE
) -> list[BracketSequence]:
    """The subset of :func:`enumerate_sequences` with one top-level pair."""
    return [
        s for s in enumerate_sequences(n, r, max_n=max_n)
        if len(s.top_level_labels) == 1
    ]


# -- the rank-shifting bijection ---------------------------------------------------


def rank_shift_up(seq: BracketSequence) -> BracketSequence:
    """Send a sequence on n integers to one on n+1 with a single top-level
    pair: prepend n+1 and move the left bracket of the last top-level pair
    (the one closed by the final right bracket) to the front.

    >>> print_seq(rank_shift_up(parse_seq("(4)(321)")))
    '(5(4)321)'
    """
    n = seq.n
    last_top = next(p for p in seq.pairs if p.label == 1)
    assert last_top.right_gap == n, "pair 1 always closes in the trailing gap"
    new_gaps = ["("] + list(seq.gaps)
    moved = new_gaps[1 + last_top.left_gap]
    new_gaps[1 + last_top.left_gap] = moved.replace("(", "", 1)
    return BracketSequence(n + 1, tuple(new_gaps))


def rank_shift_down(seq: BracketSequence) -> BracketSequence:
    """Inverse of :func:`rank_shift_up`; requires a single top-level pair.

    Deletes the integer n (necessarily the only integer directly following
    the outer left bracket) and re-opens the outer pair just before the
    largest remaining integer that sits directly inside it.

    >>> print_seq(rank_shift_down(parse_seq("(5(4)321)")))
    '(4)(321)'
    """
    n = seq.n
    if n < 2:
        raise ValueError("need at least two integers to shift down")
    tops = seq.top_level_labels
    if len(tops) != 1:
        raise ValueError(f"expected a single top-level pair, found {len(tops)}")
    top = next(p for p in seq.pairs if p.label == tops[0])
    assert top.left_gap == 0 and top.right_gap == n
    v = max(m for m in top.members if m < n)
    new_gaps = list(seq.gaps[1:])
    g_above_v = n - 1 - v  # gap index above v after dropping the top integer
    assert "(" not in new_gaps[g_above_v]
    new_gaps[g_above_v] = new_gaps[g_above_v] + "("
    return BracketSequence(n - 1, tuple(new_gaps))
