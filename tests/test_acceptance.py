"""Acceptance suite: every exit criterion at its stated bound, exact
arithmetic throughout, with one PASS line and the elapsed time printed per
criterion.  Run with ``pytest tests/test_acceptance.py -v``."""

import itertools
import time

from conftest import W3_DISPLAY, equivalent_up_to_relabeling
from woplab import counting, verify
from woplab.counting import catalan, narayana, verify_counts
from woplab.noncross import decode, dual, encode, enumerate_sequences, parse_seq, print_seq
from woplab.oracle import D_apply, XPolynomial, p_to_x, x_power_entry
from woplab.perm import Permutation, all_permutations, lift, project
from woplab.pring import PPolynomial, apply_W, partitions
from woplab.summation import decompose_W, satisfies_star, summation_of


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")


def monomials_of_weight(w):
    return [PPolynomial.monomial(p) for p in partitions(w)]


def assert_claims(suite, ns, **options):
    """The registry's claim holds at every n in ns, as ``woplab verify``
    checks it."""
    failed = [line for line, ok in verify.run(suite, ns, **options) if not ok]
    assert not failed, failed


def test_acceptance_1_w3_reproduction():
    """decompose 3 emits exactly the six displayed summations."""
    with Budget(1, 1.0):
        templates = decompose_W(3)
        assert len(templates) == 6
        degrees = sorted(t.degree for t in templates)
        assert degrees == [2, 4, 4, 4, 4, 4]
        assert summation_of(Permutation.parse("(123)")).degree == 2
        seen = set()
        for t in templates:
            display = W3_DISPLAY[str(t.perm)]
            assert equivalent_up_to_relabeling(
                3, (t.cycle_blocks, t.derivative_blocks), display
            ), f"template of {t.perm} does not match the published display"
            # exact blocks: cycle partition is pinned by the permutation and
            # the derivative partition by the displayed factor structure
            assert t.cycle_blocks == tuple(
                tuple(sorted(c)) for c in sorted(display[0], key=min)
            )
            assert (t.dP, t.dD, t.degree) == (
                len(display[0]),
                len(display[1]),
                len(display[0]) + len(display[1]),
            )
            seen.add(t.perm)
        assert len(seen) == 6


def test_acceptance_2_catalan_narayana_counts(monkeypatch):
    """Three independent count routes agree exactly for n = 1..8, read from
    the reports that the counts claim computed."""
    reports = []

    def capture(n, **kwargs):
        reports.append(verify_counts(n, **kwargs))
        return reports[-1]

    monkeypatch.setattr(counting, "verify_counts", capture)
    with Budget(2, 60.0):
        assert_claims("counts", range(1, 9))
        assert len(reports) == 8
        for n, report in enumerate(reports, 1):
            assert report.n == n
            assert report.total == report.catalan == catalan(n)
            for row in report.rows:
                assert row.enumerated == row.os_count == row.narayana
                assert row.narayana == narayana(n, row.r)


def test_acceptance_3_maximal_degree_iff_star():
    """is_OS <=> the star condition over all n! permutations, n = 1..7."""
    with Budget(3, 30.0):
        assert_claims("star", range(1, 8))


def test_acceptance_4_bracket_bijection():
    """encode/decode are mutually inverse with the exact image, n = 1..8."""
    with Budget(4, 60.0):
        for n in range(1, 9):
            star_by_r = {}
            for b in all_permutations(n):
                if satisfies_star(b):
                    star_by_r.setdefault(len(b.cycles), set()).add(b)
            for r in range(1, n + 1):
                seqs = enumerate_sequences(n, r)
                decoded = [decode(s) for s in seqs]
                assert len(set(decoded)) == len(seqs), "decode must be injective"
                assert set(decoded) == star_by_r.get(r, set())
                for s, p in zip(seqs, decoded):
                    assert encode(p) == s
                    assert decode(encode(p)) == p


def test_acceptance_5_duality():
    """Dual table: involution, type swap, oracle agreement, n = 1..10."""
    with Budget(5, 60.0):
        source = parse_seq("(7(65)(4)(3)21)")
        assert print_seq(dual(source)) == "(7(6)(543)2)(1)"
        assert_claims("dual", range(1, 11))


def test_acceptance_6_lift_project_structure():
    """Lifts exhaust the next rank; degree transitions hold, n = 1..7."""
    with Budget(6, 30.0):
        assert_claims("lift", range(1, 8))
        for n in range(1, 8):
            for alpha in all_permutations(n):
                for j in range(n + 1):
                    assert project(lift(alpha, j)) == (alpha, j)


def test_acceptance_7_matrix_oracle_equivalence():
    """Entry calculus reproduces the engine for n in {1,2,3}, weights <= 4,
    N = weight + n + 1; both derivation identities hold for k <= 4, N <= 4."""
    with Budget(7, 300.0):
        assert_claims("oracle", (1, 2, 3), max_weight=4)

        # first identity: D_ab F(p) = sum_k k (X^k)_ab dF/dp_k
        for N in (2, 3, 4):
            for w in range(1, 5):
                for F in monomials_of_weight(w):
                    a, b = 1, min(2, N)
                    lhs = D_apply(a, b, p_to_x(F, N))
                    rhs = XPolynomial.zero(N)
                    for k in range(1, w + 1):
                        dF = F.diff(k)
                        if dF:
                            rhs = rhs + k * x_power_entry(N, k, a, b) * p_to_x(dF, N)
                    assert lhs == rhs

        # second identity: D_cd (X^k)_ab = sum_j (X^j)_ad (X^{k-j})_cb
        for N in (2, 3, 4):
            for k in range(1, 5):
                for a, b, c, d in itertools.product((1, N), repeat=4):
                    lhs = D_apply(c, d, x_power_entry(N, k, a, b))
                    rhs = XPolynomial.zero(N)
                    for j in range(k):
                        rhs = rhs + x_power_entry(N, j, a, d) * x_power_entry(
                            N, k - j, c, b
                        )
                    assert lhs == rhs


def test_acceptance_8_operator_sanity():
    """Grading, cut-and-join agreement, and weight preservation."""
    with Budget(8, 30.0):
        # W([1]) multiplies a homogeneous polynomial by its weight
        for w in range(1, 9):
            for F in monomials_of_weight(w):
                assert apply_W(1, F) == w * F

        # W([2]) is half the classical cut-and-join operator
        def half_cut_and_join(F):
            d = F.max_weight()
            out = PPolynomial.zero()
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    first = F.diff(i + j)
                    if first:
                        out = out + (i + j) * PPolynomial.monomial((i, j)) * first
                    second = F.diff(i).diff(j)
                    if second:
                        out = out + (i * j) * PPolynomial.monomial((i + j,)) * second
            from fractions import Fraction

            return Fraction(1, 2) * out

        for w in range(1, 7):
            for F in monomials_of_weight(w):
                assert apply_W(2, F) == half_cut_and_join(F)

        # weight preservation
        for n in range(1, 5):
            for w in range(1, 7):
                for F in monomials_of_weight(w):
                    out = apply_W(n, F)
                    if out:
                        assert out.is_homogeneous() and out.weight() == w
