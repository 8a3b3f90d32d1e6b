import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import index_tuples
from woplab.errors import BoundExceededError, ParseError
from woplab.oracle import XPolynomial
from woplab.perm import Permutation
from woplab.pring import (
    PPolynomial,
    apply_template,
    apply_W,
    parse_p,
    partitions,
    print_p,
)
from woplab.summation import decompose_W, summation_of


def P(text):
    return parse_p(text)


def template(text):
    return summation_of(Permutation.parse(text))


small_polys = st.dictionaries(
    keys=st.lists(st.integers(1, 5), min_size=0, max_size=3).map(
        lambda ixs: tuple(sorted(ixs))
    ),
    values=st.fractions(max_denominator=6),
    max_size=4,
).map(PPolynomial)


rational_polys = st.dictionaries(
    keys=st.lists(st.integers(1, 30), min_size=0, max_size=6).map(
        lambda ixs: tuple(sorted(ixs))
    ),
    values=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    max_size=8,
).map(PPolynomial)


class TestParsePrint:
    def test_examples(self):
        assert P("p1^3").coefficient((1, 1, 1)) == 1
        assert len(P("p1^3")) == 1

        two_terms = P("3*p1*p2 - 1/2*p3")
        assert two_terms.coefficient((1, 2)) == 3
        assert two_terms.coefficient((3,)) == Fraction(-1, 2)
        assert len(two_terms) == 2

        assert P("p2 + p2") == PPolynomial({(2,): 2})

    def test_canonical_print(self):
        assert print_p(P("3*p1*p2 - 1/2*p3")) == "3*p1*p2-1/2*p3"
        assert print_p(P("p2+p1^2")) == "p1^2+p2"  # graded-lex within a weight
        assert print_p(P("p3 + p1")) == "p1+p3"  # by weight first
        assert print_p(PPolynomial.zero()) == "0"
        assert print_p(PPolynomial.constant(Fraction(-5, 3))) == "-5/3"
        assert print_p(P("2*p2^2*p1")) == "2*p1*p2^2"

    def test_parse_errors_carry_position(self):
        for text, pos in [("p0", 2), ("p1^", 3), ("3*", 2), ("p1+*p2", 3), ("x1", 0)]:
            with pytest.raises(ParseError) as err:
                P(text)
            assert err.value.position == pos

    def test_term_factor_bound_is_checked_before_building(self):
        # 10,000 factors per term, counted across the term's exponents
        assert P("p1^10000") == P("p1^5000*p1^5000") == PPolynomial.monomial((1,) * 10000)
        assert len(P("p1^10000+p2^10000")) == 2
        for text, pos in [("p1^999999999999", 3), ("p1^10001", 3), ("p2^5000 * p1^ 5001", 14)]:
            with pytest.raises(ParseError, match="more than 10000 factors in one term") as err:
                P(text)
            assert err.value.position == pos

    def test_leading_minus_and_constants(self):
        assert P("-p1+p2") == P("p2") - P("p1")
        assert P("5") == PPolynomial.constant(5)
        assert P("0") == PPolynomial.zero()

    @given(small_polys)
    def test_roundtrip(self, poly):
        assert parse_p(print_p(poly)) == poly

    @given(rational_polys)
    def test_roundtrip_with_large_coefficients_and_indices(self, poly):
        # multi-digit indices, exponents, numerators and denominators
        assert parse_p(print_p(poly)) == poly


class TestArithmetic:
    def test_ring_ops(self):
        p1, p2 = PPolynomial.variable(1), PPolynomial.variable(2)
        assert p1 * p1 == P("p1^2")
        assert (p1 + p2) * (p1 - p2) == P("p1^2 - p2^2")
        assert 2 * p1 == P("2*p1")
        assert p1**3 == P("p1^3")

    def test_diff(self):
        assert P("p1^3").diff(1) == P("3*p1^2")
        assert P("p1*p2").diff(2) == P("p1")
        assert P("p1").diff(2) == PPolynomial.zero()

    def test_weights(self):
        assert P("p1^2+p2").weight() == 2
        assert P("p1+p2").weight() is None
        assert P("p1+p2").max_weight() == 2
        comps = P("p1+p3+p1*p2").homogeneous_components()
        assert set(comps) == {1, 3}
        assert comps[3] == P("p3+p1*p2")


class TestPartitions:
    def test_counts_and_shape_up_to_12(self):
        # p(w) for w = 0..12; tests build their inputs from these
        counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for w, count in enumerate(counts):
            parts = list(partitions(w))
            assert len(parts) == len(set(parts)) == count
            for p in parts:
                assert sum(p) == w and min(p, default=1) >= 1
                assert list(p) == sorted(p, reverse=True)


def _model(terms):
    out = {}
    for m, c in terms.items():
        out[tuple(sorted(m))] = out.get(tuple(sorted(m)), 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def _model_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _model(out)


def _model_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(sorted(m1 + m2))
            out[key] = out.get(key, 0) + c1 * c2
    return _model(out)


@st.composite
def ring_operands(draw):
    """A ring (PPolynomial, or XPolynomial of some N) and two term dicts of
    it with unsorted monomials, the second negating some terms of the first
    so that sums cancel."""
    N = draw(st.one_of(st.none(), st.integers(1, 3)))
    if N is None:
        ring, var = PPolynomial, st.integers(1, 4)
    else:
        ring, var = (lambda terms: XPolynomial(N, terms)), st.tuples(*[st.integers(1, N)] * 2)
    monos = st.lists(var, max_size=3).map(tuple)
    terms = st.dictionaries(monos, st.fractions(max_denominator=4), max_size=4)
    a, b = draw(terms), draw(terms)
    for m in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []:
        b[m[::-1]] = -a[m]
    return ring, a, b


class TestRingCoreAgainstDictModel:
    """PPolynomial and XPolynomial share one ring core; both are checked
    here against plain dicts of Fraction coefficients."""

    @settings(deadline=None)
    @given(ring_operands(), st.fractions(max_denominator=3), st.integers(0, 3))
    def test_operations(self, operands, scalar, exponent):
        ring, a, b = operands
        A, B, ma, mb = ring(a), ring(b), _model(a), _model(b)
        assert dict(A.items()) == ma and len(A) == len(ma) and bool(A) == bool(ma)
        assert all(A.coefficient(m) == ma.get(tuple(sorted(m)), 0) for m in a)
        assert dict((A + B).items()) == _model_add(ma, mb)
        assert dict((-A).items()) == {m: -c for m, c in ma.items()}
        assert dict((A - B).items()) == _model_add(ma, {m: -c for m, c in mb.items()})
        assert dict((A * B).items()) == _model_mul(ma, mb)
        scaled = {m: c * scalar for m, c in ma.items()}
        assert dict((A * scalar).items()) == dict((scalar * A).items()) == _model(scaled)
        power = {(): Fraction(1)}
        for _ in range(exponent):
            power = _model_mul(power, ma)
        assert dict((A**exponent).items()) == power
        assert (A == B) == (ma == mb)
        assert A - A == ring({}) and not A - A
        # terms that cancel once their monomials are sorted
        unsorted = {m[::-1]: -c for m, c in ma.items() if m != m[::-1]}
        assert ring({**ma, **unsorted}) == ring({m: c for m, c in ma.items() if m == m[::-1]})
        total = ring(_model_add(ma, mb))
        assert A + B == B + A == total
        assert len({A + B, B + A, total}) == 1

    @given(st.integers(1, 3), st.integers(1, 3))
    def test_matrix_sizes_must_match(self, N, M):
        X, Y = XPolynomial.constant(N, 1), XPolynomial.constant(M, 1)
        assert X != PPolynomial.constant(1)
        if N == M:
            assert X == Y and hash(X) == hash(Y)
            return
        assert X != Y
        for combine in (X.__add__, X.__sub__, X.__mul__):
            with pytest.raises(ValueError, match="mismatched matrix sizes"):
                combine(Y)


class TestApplyTemplate:
    def test_examples(self):
        assert apply_template(template("(1)"), P("p3")) == P("3*p3")
        # (k1+k2) p_k1 p_k2 d/dp_{k1+k2} at k1=k2=1 is the only surviving term
        assert apply_template(template("(1)(2)"), P("p2")) == P("2*p1^2")
        # k1 k2 p_{k1+k2} d2/dp_k1 dp_k2 at k1=k2=1
        assert apply_template(template("(21)"), P("p1^2")) == P("2*p2")

    def test_zero_and_too_small_input(self):
        assert apply_template(template("(21)"), PPolynomial.zero()) == PPolynomial.zero()
        assert apply_template(template("(21)"), P("p1")) == PPolynomial.zero()

    def test_acts_per_homogeneous_component(self):
        t = template("(1)")
        mixed = P("p1+p3")
        assert apply_template(t, mixed) == P("p1+3*p3")


class TestApplyW:
    def test_w1_is_the_grading_operator(self):
        for text in ["p1", "p2", "p5", "p1*p2", "p2*p3", "p1^4*p2"]:
            F = P(text)
            assert apply_W(1, F) == F.weight() * F
        assert apply_W(1, P("p2*p3")) == P("5*p2*p3")

    def test_w2_examples(self):
        assert apply_W(2, P("p1^3")) == P("3*p1*p2")
        assert apply_W(2, P("p2")) == P("p1^2")

    def test_single_template_with_prefactor(self):
        # (1/3) * FS on p1^3 for the all-distinct-derivatives template
        result = Fraction(1, 3) * apply_template(template("(321)"), P("p1^3"))
        assert result == P("2*p3")

    def test_linearity(self):
        F, G = P("p1^3"), P("p2*p1")
        a, b = Fraction(2, 3), Fraction(-5)
        assert apply_W(2, a * F + b * G) == a * apply_W(2, F) + b * apply_W(2, G)

    @given(small_polys)
    def test_linearity_property(self, F):
        assert apply_W(2, 3 * F) == 3 * apply_W(2, F)

    def test_weight_preservation(self):
        for n in range(1, 5):
            for F in [P("p4"), P("p1*p3"), P("p2^2"), P("p1^2*p2"), P("p1^4")]:
                out = apply_W(n, F)
                if out:
                    assert out.weight() == F.weight()

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            apply_W(2, P("p1"), max_n=1)


def half_cut_and_join(F):
    """Independent route: half of sum_{i,j}((i+j) p_i p_j d/dp_{i+j} + i j p_{i+j} d2/dp_i dp_j)."""
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
    return Fraction(1, 2) * out


def all_monomials_of_weight(w):
    return [PPolynomial.monomial(p) for p in partitions(w)]


class TestCutAndJoinAgreement:
    @pytest.mark.parametrize("w", range(1, 7))
    def test_w2_is_half_the_cut_and_join_operator(self, w):
        for F in all_monomials_of_weight(w):
            assert apply_W(2, F) == half_cut_and_join(F)


MONOMIALS_UP_TO_6 = [F for w in range(1, 7) for F in all_monomials_of_weight(w)]


def noncommuting_cases():
    """Each (m, n, F) with 2 <= m < n <= 5 and F a monomial of weight <= 6
    where W([m])W([n])F != W([n])W([m])F, found one at a time."""
    for m, n in itertools.combinations(range(2, 6), 2):
        for F in MONOMIALS_UP_TO_6:
            if apply_W(m, apply_W(n, F)) != apply_W(n, apply_W(m, F)):
                yield m, n, F


class TestCommutation:
    """The W-operators share the Schur functions as eigenbasis, so they
    commute; W([1]) is the weight operator."""

    def test_w_operators_commute_on_every_monomial_up_to_weight_6(self):
        assert len(MONOMIALS_UP_TO_6) == 29  # 6 pairs (m, n), 174 cases
        assert list(noncommuting_cases()) == []

    def test_w1_multiplies_every_monomial_by_its_weight(self):
        for F in MONOMIALS_UP_TO_6:
            assert apply_W(1, F) == F.weight() * F

    @pytest.mark.parametrize("dropped", range(6))
    def test_dropping_a_template_of_w3_breaks_commutation(self, monkeypatch, dropped):
        import woplab.pring as pring

        kept = decompose_W(3)
        assert len(kept) == 6
        del kept[dropped]
        monkeypatch.setattr(
            pring,
            "decompose_W",
            lambda n, *, max_n=pring.DEFAULT_MAX_DECOMPOSE: (
                list(kept) if n == 3 else decompose_W(n, max_n=max_n)
            ),
        )
        assert next(noncommuting_cases(), None) is not None


def reference_apply_template(t, F):
    """The enumerating engine: every index tuple up to the largest weight of
    F, each differentiating all of F.  Heavier tuples remove more weight than
    any term of F holds, so the truncation is exact."""
    out = PPolynomial.zero()
    for kvec in index_tuples(t.n, F.max_weight()):
        derivative_indices = [sum(kvec[v - 1] for v in b) for b in t.derivative_blocks]
        G = F
        for m in derivative_indices:
            G = G.diff(m)
            if not G:
                break
        if not G:
            continue
        coeff = 1
        for m in derivative_indices:
            coeff *= m
        poly_indices = tuple(sum(kvec[v - 1] for v in c) for c in t.cycle_blocks)
        out = out + PPolynomial.monomial(poly_indices, coeff) * G
    return out


def reference_apply_W(n, F):
    total = PPolynomial.zero()
    for t in decompose_W(n):
        total = total + reference_apply_template(t, F)
    return Fraction(1, n) * total


ALL_MONOMIALS_UP_TO_7 = [F for w in range(8) for F in all_monomials_of_weight(w)]


def unskipped_apply_W(n, F):
    """apply_W with every template applied, none skipped."""
    total = PPolynomial.zero()
    for t in decompose_W(n):
        total = total + apply_template(t, F)
    return Fraction(1, n) * total

mixed_polys = st.dictionaries(
    keys=st.sampled_from([tuple(sorted(p)) for w in range(7) for p in partitions(w)]),
    values=st.fractions(max_denominator=12),
    max_size=6,
).map(PPolynomial)


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_template_on_every_monomial_up_to_weight_7(self, n):
        for t in decompose_W(n):
            for F in ALL_MONOMIALS_UP_TO_7:
                assert apply_template(t, F) == reference_apply_template(t, F), (t.perm, F)

    @pytest.mark.parametrize("w", [6, 7])
    def test_w6_on_every_monomial(self, w):
        for F in all_monomials_of_weight(w):
            assert apply_W(6, F) == reference_apply_W(6, F), F

    @settings(deadline=None)
    @given(st.integers(1, 4), mixed_polys)
    def test_rational_polynomials_of_mixed_weight(self, n, F):
        assert apply_W(n, F) == reference_apply_W(n, F)


def applied_templates(monkeypatch, n, F):
    """The templates apply_W(n, F) hands to apply_template, in order."""
    import woplab.pring as pring

    applied = []
    monkeypatch.setattr(
        pring, "apply_template", lambda t, F: applied.append(t) or PPolynomial.zero()
    )
    pring.apply_W(n, F)
    monkeypatch.undo()
    return applied


class TestTemplateSkip:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_skip_changes_no_result(self, n):
        for F in ALL_MONOMIALS_UP_TO_7:
            assert apply_W(n, F) == unskipped_apply_W(n, F), F

    @pytest.mark.parametrize("n", range(1, 7))
    def test_admitted_templates_are_exactly_the_nonzero_ones(self, n, monkeypatch):
        templates = decompose_W(n)
        for F in ALL_MONOMIALS_UP_TO_7:
            nonzero = [t for t in templates if apply_template(t, F)]
            assert applied_templates(monkeypatch, n, F) == nonzero, F

    @settings(deadline=None)
    @given(st.integers(1, 5), mixed_polys)
    @example(1, PPolynomial.zero())
    @example(3, PPolynomial.constant(Fraction(-5, 3)))
    @example(5, P("7/2 - 1/3*p1*p2 + p2^2*p1 + 2/5*p5 - p4*p1^2"))
    def test_rational_polynomials_against_the_unskipped_sum(self, n, F):
        assert apply_W(n, F) == unskipped_apply_W(n, F)

    def test_templates_with_too_many_derivative_blocks_are_skipped(self, monkeypatch):
        import woplab.pring as pring

        applied = []
        monkeypatch.setattr(
            pring, "apply_template", lambda t, F: applied.append(t) or PPolynomial.zero()
        )
        pring.apply_W(7, P("p7"))
        assert len(applied) == 720 and all(t.dD == 1 for t in applied)

    @pytest.mark.parametrize("n, text, count", [(6, "p1^6", 1), (6, "p1*p2*p3", 120)])
    def test_applied_template_counts(self, n, text, count, monkeypatch):
        assert len(applied_templates(monkeypatch, n, P(text))) == count
