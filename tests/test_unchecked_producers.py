"""The producers that build values valid by construction, and skip the
checking constructors, against those constructors: every value they build
passes its class's public constructor and equals what it builds there."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from test_pring import ring_operands
from woplab import summation
from woplab.noncross import (
    BracketSequence,
    dual,
    dual_via_gap_toggle,
    encode,
    enumerate_sequences,
    parse_seq,
)
from woplab.oracle import XPolynomial, normal_ordered_apply
from woplab.perm import Permutation, all_permutations, lift, project
from woplab.pring import PPolynomial, apply_W
from woplab.summation import SummationTemplate, decompose_W, summation_of


def fields(obj):
    """Every slot read by getattr, so that an unset slot raises, or the
    instance dict of a class without slots."""
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    return {name: getattr(obj, name) for name in slots} if slots else vars(obj)


def checked_sequence(s):
    rebuilt = BracketSequence(s.n, s.gaps)
    assert (s.n, s.gaps) == (rebuilt.n, rebuilt.gaps) and fields(s) == fields(rebuilt)
    return rebuilt


def checked_permutation(p):
    rebuilt = Permutation(p.images)
    assert fields(p) == fields(rebuilt)
    return rebuilt


def checked_polynomial(R, ring):
    """R is in the form the checking constructor gives: rebuilding it from
    its own terms changes neither tuple nor any other slot, its coefficients
    are Fractions, and it equals the rebuild from its sorted items."""
    rebuilt = ring(dict(zip(R._monos, R._coeffs)))
    assert (R._monos, R._coeffs) == (rebuilt._monos, rebuilt._coeffs)
    assert fields(R) == fields(rebuilt) and all(type(c) is Fraction for c in R._coeffs)
    from_items = ring(dict(R.items()))
    assert R == from_items and sorted(R.items()) == sorted(zip(from_items._monos, from_items._coeffs))
    return rebuilt


def checked_template(t):
    return SummationTemplate(checked_permutation(t.perm), t.cycle_blocks, t.derivative_blocks)


@pytest.mark.parametrize("n", range(1, 11))
def test_every_enumerated_sequence_passes_the_constructor(n):
    for r in (None, *range(1, n + 1)):
        seqs = enumerate_sequences(n, r)
        assert seqs == [checked_sequence(s) for s in seqs]
        assert all(type(s) is BracketSequence and s.n == n for s in seqs)
        if r is not None:
            assert all(s.r == r for s in seqs)


def checked_duals(s):
    """Both duals of s pass the constructor, and they agree."""
    table, toggle = checked_sequence(dual(s)), checked_sequence(dual_via_gap_toggle(s))
    assert table == toggle and type(table) is BracketSequence and table.n == s.n
    return table


@pytest.mark.parametrize("n", range(1, 11))
def test_every_dual_passes_the_constructor(n):
    seqs = enumerate_sequences(n)
    duals = [checked_duals(s) for s in seqs]
    assert sorted(d.gaps for d in duals) == sorted(s.gaps for s in seqs)


def random_noncrossing(rng, values):
    """A random non-crossing partition of the ascending values: a block
    holding the first value, and one partition inside each of its gaps."""
    if not values:
        return []
    cut = [0] + sorted(rng.sample(range(1, len(values)), rng.randint(0, len(values) - 1) // 2))
    blocks = [[values[i] for i in cut]]
    for lo, hi in zip(cut, cut[1:] + [len(values)]):
        blocks += random_noncrossing(rng, values[lo + 1 : hi])
    return blocks


def test_duals_of_random_sequences_past_the_enumeration_pass_the_constructor():
    rng = random.Random(2210)
    for n in range(11, 41):
        for _ in range(10):
            blocks = random_noncrossing(rng, list(range(1, n + 1)))
            s = encode(Permutation.from_cycles(sorted(b, reverse=True) for b in blocks))
            assert s.r == len(blocks) and checked_duals(s).r == n - s.r + 1


@pytest.mark.parametrize("n", range(1, 7))
def test_every_lift_passes_the_constructor(n):
    for alpha in all_permutations(n):
        for j in range(n + 1):
            beta = lift(alpha, j)
            assert beta == checked_permutation(beta) and beta.n == n + 1


@pytest.mark.parametrize("n", range(1, 8))
def test_every_permutation_and_projection_passes_the_constructor(n):
    perms = list(all_permutations(n))
    assert perms == [checked_permutation(p) for p in perms]
    assert len(set(perms)) == len(perms)
    if n > 1:
        for beta in perms:
            alpha, _ = project(beta)
            assert alpha == checked_permutation(alpha) and alpha.n == n - 1


@pytest.mark.parametrize("n", range(1, 8))
def test_every_template_passes_the_constructor(n, monkeypatch):
    monkeypatch.setattr(summation, "_KEPT", {})  # built afresh, not taken from the store
    templates = decompose_W(n)
    assert templates == [checked_template(t) for t in templates]
    if n <= 6:
        assert [summation_of(t.perm) for t in templates] == templates


def test_equality_is_by_class_and_defining_field():
    s = parse_seq("(4(3)2)(1)")
    assert s != s.gaps and s.gaps != s
    assert s not in {s.gaps} and s.gaps not in {s: 0}
    assert s == BracketSequence(4, tuple(s.gaps)) and hash(s) == hash(BracketSequence(4, s.gaps))
    assert s != parse_seq("(4)(321)")
    p = Permutation.parse("(3 2 1)")
    assert p != p.images and p.images != p
    assert p not in {p.images} and p.images not in {p: 0}
    assert p == Permutation((3, 1, 2)) and hash(p) == hash(Permutation((3, 1, 2)))
    assert p != Permutation.identity(3)
    assert p != s and s != p


def test_fields_reads_every_slot_and_fails_on_an_unset_one():
    p = Permutation((2, 1))
    assert fields(p) == {"images": (2, 1)}
    with pytest.raises(AttributeError):
        fields(object.__new__(Permutation))
    t = decompose_W(2)[0]
    assert fields(t) == {
        "perm": t.perm,
        "cycle_blocks": t.cycle_blocks,
        "derivative_blocks": t.derivative_blocks,
    }


@settings(deadline=None, max_examples=50)  # most of the time is drawing operands
@given(ring_operands(), st.fractions(max_denominator=3), st.integers(0, 3), st.integers(1, 4))
@example((PPolynomial, {(2, 1): Fraction(1, 2)}, {}), Fraction(0), 0, 1)  # the power's seed
def test_every_ring_result_is_in_constructor_form(operands, scalar, exponent, k):
    ring, a, b = operands
    A, B = ring(a), ring(b)
    results = [A + B, -A, A - B, A * B, A * scalar, scalar * A, A**exponent]
    if isinstance(A, PPolynomial):
        results += [A.diff(k), apply_W(2, A)]
    else:
        results.append(normal_ordered_apply([(1, 1)], A))
    for R in results:
        assert type(R) is type(A)
        checked_polynomial(R, ring)
        if isinstance(R, XPolynomial):
            assert R.N == A.N
            other = XPolynomial.constant(A.N + 1, 1)
            for combine in (R.__add__, R.__sub__, R.__mul__):
                with pytest.raises(ValueError, match="mismatched matrix sizes"):
                    combine(other)
