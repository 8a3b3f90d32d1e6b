"""The verification claims behind ``woplab verify`` and the acceptance suite.

Each suite holds its claim about one rank n, the check of that claim and the
largest n ``woplab verify`` runs without an override.  The caller admits n
before a check runs, so each check passes n to the library as its size
bound.  Checks call the library through its modules (``noncross.dual``), so
that rebinding a module's function reaches them too.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import counting, noncross, oracle, perm, pring, summation
from .errors import MismatchError

DEFAULT_MAX_WEIGHT = 4  # the oracle suite's input weight cap


class Claim(NamedTuple):
    """``check(n, max_weight)`` is true when the claim holds at rank n, or
    raises :class:`MismatchError` saying what disagreed."""

    text: str
    check: Callable[[int, int], bool]
    bound: int


def _counts(n: int, max_weight: int) -> bool:
    counting.verify_counts(n, max_n=n)  # raises MismatchError on any disagreement
    return True


def _star(n: int, max_weight: int) -> bool:
    """Every template of W([n]) has maximal degree exactly when its
    permutation satisfies the star condition, over n! distinct permutations."""
    templates = summation.decompose_W(n, max_n=n)
    return len({t.perm for t in templates}) == len(templates) == math.factorial(n) and all(
        (summation.is_OS(t) is not None) == summation.satisfies_star(t.perm) for t in templates
    )


def _oracle(n: int, max_weight: int) -> bool:
    for w in range(1, max_weight + 1):
        for F in map(pring.PPolynomial.monomial, pring.partitions(w)):
            N = w + n + 1
            lhs = oracle.tr_Dn_apply(n, F, N, max_n=n)
            if not oracle.equal_as_p(lhs, n * pring.apply_W(n, F, max_n=n), N):
                return False
    return True


def _dual(n: int, max_weight: int) -> bool:
    """One dual per enumerated sequence, checked in one pass through the
    index of the enumeration, which lists the sequences by pair count r:
    each dual must sit among those with n - r + 1 pairs (the type swap),
    its own dual must be the sequence it came from (the involution), and
    the gap toggle must give the same gaps."""
    seqs: list = []
    starts = [0]  # the sequences with r pairs are seqs[starts[r-1]:starts[r]]
    for r in range(1, n + 1):
        seqs += noncross.enumerate_sequences(n, r, max_n=n)
        starts.append(len(seqs))
    index = {s.gaps: i for i, s in enumerate(seqs)}
    duals = [noncross.dual(s).gaps for s in seqs]
    toggle = noncross.dual_via_gap_toggle
    for r in range(1, n + 1):
        lo, hi = starts[n - r], starts[n - r + 1]
        for i in range(starts[r - 1], starts[r]):
            s, d = seqs[i], duals[i]
            j = index.get(d, -1)
            if not lo <= j < hi or duals[j] != s.gaps or d != toggle(s).gaps:
                return False
    return True


def _lift(n: int, max_weight: int) -> bool:
    """Lifting moves (dP, dD) by (0, 1) for j = 0, by (1, 0) for j on the
    hat quiver's chain and by (-1, 0) otherwise.  The (n+1)·n! lifts must be
    distinct and each a permutation of W([n+1]), which has (n+1)! distinct
    ones, so they cover it.  Below its top vertex n+1, which j never is, the
    chain is the cycle through 1 (pinned against ``perm.to_hat_quiver`` in
    the tests), so no checked hat quiver is built per template."""
    above = summation.decompose_W(n + 1, max_n=n + 1)
    by_perm = {t.perm: t for t in above}
    lifted = set()
    for ta in summation.decompose_W(n, max_n=n):
        chain = set(ta.perm.cycles[0])
        for j in range(n + 1):
            beta = perm.lift(ta.perm, j)
            tb = by_perm.get(beta)
            step = (0, 1) if j == 0 else (1, 0) if j in chain else (-1, 0)
            if tb is None or beta in lifted or (tb.dP - ta.dP, tb.dD - ta.dD) != step:
                return False
            lifted.add(beta)
    return len(lifted) == len(by_perm) == len(above) == math.factorial(n + 1)


SUITES = {
    "counts": Claim(
        "enumeration == OS census == formula == recurrence",
        _counts,
        summation.DEFAULT_MAX_DECOMPOSE,
    ),
    # a time budget below decompose_W's bound
    "star": Claim("maximal degree iff star condition, all {n}! permutations", _star, 7),
    "oracle": Claim(
        "trace calculus == summation engine, weights <= {max_weight}",
        _oracle,
        oracle.DEFAULT_MAX_TRACE_POWER,
    ),
    # a time budget below the enumeration bound
    "dual": Claim("involution, type swap, table == gap toggle", _dual, 10),
    # one below decompose_W's bound, since the check builds W([n+1])
    "lift": Claim(
        "lifts partition the next rank; degree transitions",
        _lift,
        summation.DEFAULT_MAX_DECOMPOSE - 1,
    ),
}


def run(suite: str, ns, *, max_weight: int = DEFAULT_MAX_WEIGHT) -> list[tuple[str, bool]]:
    """One (line, passed) per n in ``ns``; the line names the suite, n and
    the claim, or what disagreed when the check raised a mismatch."""
    claim = SUITES[suite]
    results = []
    for n in ns:
        try:
            ok = claim.check(n, max_weight)
            text = claim.text.format(n=n, max_weight=max_weight)
        except MismatchError as err:
            ok, text = False, str(err)
        results.append((f"{suite} n={n}: {text}", ok))
    return results
