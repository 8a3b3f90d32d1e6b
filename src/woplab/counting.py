"""Exact Catalan/Narayana arithmetic and multi-route count verification.

The maximal-degree summations of W([n]) are counted by Catalan numbers, and
by Narayana numbers when refined by polynomial degree.  ``verify_counts``
recomputes the same numbers along independent routes (bracket-sequence
enumeration, classification of all n! summation templates, closed formulas,
and the top-level-pair convolution recurrence) and insists on exact
agreement.

>>> catalan(3), catalan(10)
(5, 16796)
>>> [narayana(4, r) for r in range(1, 5)]
[1, 6, 6, 1]
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import comb

from .errors import MismatchError
from .noncross import DEFAULT_MAX_ENUMERATE, enumerate_sequences
from .summation import DEFAULT_MAX_DECOMPOSE, decompose_W, is_OS

__all__ = [
    "catalan",
    "narayana",
    "narayana_row_via_recurrence",
    "catalan_series",
    "CountTable",
    "count_table",
    "CountRow",
    "CountReport",
    "verify_counts",
]


def catalan(n: int) -> int:
    """binomial(2n, n) / (n+1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value, remainder = divmod(comb(2 * n, n), n + 1)
    assert remainder == 0
    return value


def narayana(n: int, r: int) -> int:
    """binomial(n+1, r) * binomial(n-1, r-1) / (n+1) for 1 <= r <= n, else 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= r <= n:
        return 0
    value, remainder = divmod(comb(n + 1, r) * comb(n - 1, r - 1), n + 1)
    assert remainder == 0
    return value


def _single_top_count(table: dict[tuple[int, int], int], m: int, t: int) -> int:
    # Sequences on m integers with t pairs and one top-level pair: dropping
    # the largest integer and re-opening the outer pair is a bijection onto
    # all sequences on m-1 integers, except that the one-integer sequence has
    # no smaller rank to point to.
    if m == 1:
        return 1 if t == 1 else 0
    return table.get((m - 1, t), 0)


def narayana_row_via_recurrence(n: int) -> dict[int, int]:
    """Counts of sequences by pair number, via the decomposition of a
    sequence into its consecutive top-level pairs (a convolution of
    single-top-level counts), independent of the closed formula."""
    table: dict[tuple[int, int], int] = {}
    for m in range(1, n + 1):
        for t in range(1, m + 1):
            total = 0
            # first top-level segment takes m1 integers and t1 pairs
            for m1 in range(1, m + 1):
                for t1 in range(1, t + 1):
                    head = _single_top_count(table, m1, t1)
                    if not head:
                        continue
                    if m1 == m:
                        total += head if t1 == t else 0
                    elif t1 < t:
                        total += head * table.get((m - m1, t - t1), 0)
            table[(m, t)] = total
    return {r: table[(n, r)] for r in range(1, n + 1)}


def catalan_series(order: int) -> list[int]:
    """Coefficients c_0..c_order of the series G with G = 1 + x*G^2."""
    coeffs = [1]
    for m in range(1, order + 1):
        coeffs.append(sum(coeffs[i] * coeffs[m - 1 - i] for i in range(m)))
    return coeffs


@dataclass(frozen=True)
class CountTable:
    """Enumerated sequence counts at one rank: by pair number, the single
    top-level refinement, and the total."""

    n: int
    by_r: dict[int, int]
    tilde_by_r: dict[int, int]
    total: int


def count_table(n: int, *, max_n: int = DEFAULT_MAX_ENUMERATE) -> CountTable:
    by_r, tilde = {}, {}
    for r in range(1, n + 1):
        seqs = enumerate_sequences(n, r, max_n=max_n)
        by_r[r] = len(seqs)
        tilde[r] = sum(len(s.top_level_labels) == 1 for s in seqs)
    return CountTable(n=n, by_r=by_r, tilde_by_r=tilde, total=sum(by_r.values()))


@dataclass(frozen=True)
class CountRow:
    r: int
    enumerated: int
    os_count: int
    narayana: int
    ok: bool


@dataclass(frozen=True)
class CountReport:
    n: int
    rows: tuple[CountRow, ...]
    total: int
    catalan: int

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows) and self.total == self.catalan

    def as_json_dict(self) -> dict:
        return asdict(self)

    def as_json(self) -> str:
        return json.dumps(self.as_json_dict())

    def as_text(self) -> str:
        lines = [
            f"n={self.n}  total={self.total}  catalan={self.catalan}",
            "  r  enumerated    os_count    narayana  ok",
        ]
        for row in self.rows:
            lines.append(
                f"{row.r:>3}  {row.enumerated:>10}  {row.os_count:>10}"
                f"  {row.narayana:>10}  {'yes' if row.ok else 'NO'}"
            )
        return "\n".join(lines)


def verify_counts(n: int, *, max_n: int = DEFAULT_MAX_DECOMPOSE) -> CountReport:
    """Cross-check all counting routes at rank n; raises
    :class:`MismatchError` naming the offending (n, r) on any disagreement.

    Routes compared per r: bracket-sequence enumeration, maximal-degree
    classification of all n! templates, the closed formula, and the
    convolution recurrence; the column sums are compared with the Catalan
    number and the single-top-level counts with the next-lower rank.
    """
    # the census first, so that its bound is the one that refuses n
    os_counts = {r: 0 for r in range(1, n + 1)}
    for t in decompose_W(n, max_n=max_n):
        os_type = is_OS(t)
        if os_type is not None:
            os_counts[os_type[0]] += 1
    table = count_table(n, max_n=max_n)
    recurrence = narayana_row_via_recurrence(n)

    rows = []
    for r in range(1, n + 1):
        expected = narayana(n, r)
        ok = (
            table.by_r[r] == expected
            and os_counts[r] == expected
            and recurrence[r] == expected
            and table.tilde_by_r[r]
            == (1 if (n, r) == (1, 1) else narayana(n - 1, r))
        )
        rows.append(
            CountRow(
                r=r,
                enumerated=table.by_r[r],
                os_count=os_counts[r],
                narayana=expected,
                ok=ok,
            )
        )
    report = CountReport(n=n, rows=tuple(rows), total=table.total, catalan=catalan(n))
    if not report.ok:
        bad = [(n, row.r) for row in report.rows if not row.ok]
        raise MismatchError(
            f"count mismatch at (n, r) in {bad or [(n, 'total')]}:\n{report.as_text()}",
            where=bad or [(n, None)],
        )
    return report
