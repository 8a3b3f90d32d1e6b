"""Expected values for the apply workloads, computed without woplab.

W([n]) is diagonal on Schur functions (Mironov-Morozov-Natanzon,
arXiv:0904.4227):

    W([n]) s_R = phi_R([n]) s_R,
    phi_R([n]) = |R|! / ((|R|-n)! * n) * chi_R([n, 1^(|R|-n)]) / dim R

Characters come from the Murnaghan-Nakayama rule on beta-sets, with exact
Fractions throughout.  Polynomials here are plain dicts from ascending
p-index tuples (p1^2*p3 is (1, 1, 3)) to Fraction, the same monomial
convention as woplab's public ``items()``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]  # weakly decreasing, no zero parts


def partitions(total: int, largest: int | None = None) -> list[Partition]:
    """All partitions of ``total`` in reverse lexicographic order."""
    if largest is None:
        largest = total
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(total - first, first))
    return out


@lru_cache(maxsize=None)
def character(shape: Partition, cycle_type: Partition) -> int:
    """chi_shape(cycle_type) by Murnaghan-Nakayama: strip rim hooks of
    length cycle_type[0], moving one bead down an abacus of beta-numbers."""
    if not cycle_type:
        return 1 if not shape else 0
    k, rest = cycle_type[0], cycle_type[1:]
    length = len(shape)
    beta = [shape[i] + length - 1 - i for i in range(length)]  # decreasing
    occupied = set(beta)
    total = 0
    for i, b in enumerate(beta):
        target = b - k
        if target < 0 or target in occupied:
            continue
        crossed = sum(1 for c in beta if target < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(target)
        new_beta.sort(reverse=True)
        m = len(new_beta)
        parts = tuple(p for p in (new_beta[j] - (m - 1 - j) for j in range(m)) if p)
        total += (-1) ** crossed * character(parts, rest)
    return total


def z(cycle_type: Partition) -> int:
    """Size of the centralizer of a permutation of this cycle type."""
    out = 1
    for part in set(cycle_type):
        m = cycle_type.count(part)
        out *= part**m * factorial(m)
    return out


def _key(cycle_type: Partition) -> tuple[int, ...]:
    return tuple(sorted(cycle_type))


@lru_cache(maxsize=None)
def schur(shape: Partition) -> dict[tuple[int, ...], Fraction]:
    """s_shape in the p-basis: sum over mu of chi(mu) / z(mu) * p_mu."""
    out = {}
    for mu in partitions(sum(shape)):
        chi = character(shape, mu)
        if chi:
            out[_key(mu)] = Fraction(chi, z(mu))
    return out


@lru_cache(maxsize=None)
def eigenvalue(shape: Partition, n: int) -> Fraction:
    """phi_shape([n]); zero when n exceeds |shape|."""
    size = sum(shape)
    if n > size:
        return Fraction(0)
    dim = character(shape, (1,) * size)
    chi = character(shape, (n,) + (1,) * (size - n))
    return Fraction(factorial(size), factorial(size - n) * n) * Fraction(chi, dim)


def combine(schur_coeffs: dict[Partition, Fraction]) -> dict[tuple[int, ...], Fraction]:
    """sum of c_R * s_R, expanded in the p-basis, zero terms dropped."""
    out: dict[tuple[int, ...], Fraction] = {}
    for shape, c in schur_coeffs.items():
        for mono, v in schur(shape).items():
            out[mono] = out.get(mono, Fraction(0)) + c * v
    return {m: v for m, v in out.items() if v}


def to_schur(poly: dict[tuple[int, ...], Fraction]) -> dict[Partition, Fraction]:
    """Rewrite a p-basis polynomial in the Schur basis: p_mu = sum chi_R(mu) s_R."""
    out: dict[Partition, Fraction] = {}
    for mono, c in poly.items():
        for shape in partitions(sum(mono)):
            chi = character(shape, tuple(sorted(mono, reverse=True)))
            if chi:
                out[shape] = out.get(shape, Fraction(0)) + c * chi
    return {s: v for s, v in out.items() if v}


def expected_W(n: int, schur_coeffs: dict[Partition, Fraction]) -> dict[tuple[int, ...], Fraction]:
    """W([n]) applied to sum c_R s_R, by the eigenvalue formula."""
    return combine({s: c * eigenvalue(s, n) for s, c in schur_coeffs.items()})
