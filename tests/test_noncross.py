import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from woplab.counting import catalan, narayana
from woplab.errors import BoundExceededError, ParseError
from woplab.noncross import (
    _DUAL_TABLE,
    GAP_ALPHABET,
    BracketPair,
    BracketSequence,
    classify_pairs,
    decode,
    dual,
    dual_via_gap_toggle,
    encode,
    enumerate_sequences,
    enumerate_single_top,
    rank_shift_down,
    rank_shift_up,
    parse_seq,
    print_seq,
)
from woplab.perm import Permutation, all_permutations
from woplab.summation import satisfies_star


def perm(text):
    return Permutation.parse(text)


class TestParsePrint:
    def test_valid_example(self):
        s = parse_seq("(4(3)2)(1)")
        assert s.n == 4
        assert s.r == 3
        assert s.gaps == ("(", "(", ")", ")(", ")")

    def test_uncovered_integers_rejected(self):
        with pytest.raises(ParseError, match="not inside"):
            parse_seq("(4)32(1)")

    def test_double_right_bracket_rejected(self):
        with pytest.raises(ParseError, match="at most one left and one right"):
            parse_seq("(43(2))(1)")

    def test_other_rejections(self):
        with pytest.raises(ParseError):
            parse_seq("(4 3 2 1")  # unbalanced
        with pytest.raises(ParseError):
            parse_seq("(4 2 1)")  # not consecutive descending
        with pytest.raises(ParseError):
            parse_seq("(1 2)")  # ascending
        with pytest.raises(ParseError):
            parse_seq("(4()321)")  # empty pair slot
        with pytest.raises(ParseError):
            parse_seq("4321")  # nothing covered
        with pytest.raises(ParseError):
            parse_seq("")

    def test_whitespace_insignificant(self):
        assert parse_seq("( 4 ( 3 ) 2 ) ( 1 )") == parse_seq("(4(3)2)(1)")

    def test_roundtrip_small(self):
        for n in range(1, 7):
            for s in enumerate_sequences(n):
                assert parse_seq(print_seq(s)) == s

    def test_multidigit_roundtrip(self):
        for s in enumerate_sequences(11, 2)[:50]:
            assert parse_seq(print_seq(s)) == s
        # unspaced multi-digit text disambiguated by the forced descent
        assert parse_seq("(1211109 8 7 6 5 4 3 2 1)").n == 12

    def test_compact_text_costs_nothing_for_misreadings(self):
        # "(7654321)" is first tried as n = 7654321; that reading must fail
        # without building a gap list of that length
        import tracemalloc

        tracemalloc.start()
        try:
            s = parse_seq("(7654321)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.n == 7 and s.r == 1
        assert peak < 1_000_000

    def test_labeled_printing(self):
        s = parse_seq("(4)(321)")
        assert print_seq(s, labels=True) == "(_2 4 )_2 (_1 3 2 1 )_1"

    def test_pair_labels_order_rightmost_is_one(self):
        s = parse_seq("(4(3)2)(1)")
        by_label = {p.label: p.members for p in s.pairs}
        assert by_label == {1: (1,), 2: (2, 4), 3: (3,)}

    def test_json_dict(self):
        data = parse_seq("(2)(1)").to_json_dict()
        assert data == {
            "n": 2,
            "gaps": ["(", ")(", ")"],
            "pairs": [{"label": 1, "members": [1]}, {"label": 2, "members": [2]}],
        }


class TestDecodeEncode:
    def test_decode_examples(self):
        assert decode(parse_seq("(4)(321)")) == perm("(4)(321)")
        assert decode(parse_seq("(1)")) == perm("(1)")
        assert decode(parse_seq("(5(4)321)")) == perm("(4)(5321)")

    def test_encode_examples(self):
        assert print_seq(encode(perm("(5 3 1)(2)(4)(6)"))) == "(6)(5(4)3(2)1)"
        assert print_seq(encode(perm("(7 2 1)(6 5)(4)(3)"))) == "(7(65)(4)(3)21)"
        assert print_seq(encode(Permutation.identity(2))) == "(2)(1)"

    def test_encode_rejects_non_star(self):
        with pytest.raises(ValueError):
            encode(perm("(123)"))
        with pytest.raises(ValueError):
            encode(perm("(124)(35)"))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bijection(self, n):
        star_perms = [b for b in all_permutations(n) if satisfies_star(b)]
        for r in range(1, n + 1):
            seqs = enumerate_sequences(n, r)
            decoded = [decode(s) for s in seqs]
            assert len(set(decoded)) == len(seqs)  # injective
            image = {p for p in decoded}
            expected = {b for b in star_perms if len(b.cycles) == r}
            assert image == expected
            for s, p in zip(seqs, decoded):
                assert encode(p) == s
        for p in star_perms:
            assert decode(encode(p)) == p


class TestClassification:
    def test_reference_example(self):
        s = encode(perm("(5 3 1)(2)(4)(6)"))
        by_members = {p.members: p.label for p in s.pairs}
        outer, two, four, six = (
            by_members[(1, 3, 5)],
            by_members[(2,)],
            by_members[(4,)],
            by_members[(6,)],
        )
        c = classify_pairs(s)
        assert six in c.top_level and outer in c.top_level
        assert c.embedded == frozenset({two, four})
        assert two in c.bottom_level and four in c.bottom_level
        assert six in c.bottom_level and outer not in c.bottom_level
        assert tuple(sorted((outer, six))) in c.adjacent
        assert tuple(sorted((two, four))) not in c.adjacent

    def test_single_pair(self):
        c = classify_pairs(parse_seq("(1)"))
        assert c.top_level == frozenset({1})
        assert c.bottom_level == frozenset({1})
        assert c.embedded == frozenset()
        assert c.adjacent == frozenset()

    def test_two_separated_pairs(self):
        c = classify_pairs(parse_seq("(2)(1)"))
        assert c.top_level == frozenset({1, 2})
        assert c.adjacent == frozenset({(1, 2)})


class TestDual:
    def test_published_example(self):
        assert print_seq(dual(parse_seq("(7(65)(4)(3)21)"))) == "(7(6)(543)2)(1)"
        assert decode(dual(encode(perm("(7 2 1)(6 5)(4)(3)")))) == perm(
            "(72)(6)(543)(1)"
        )

    def test_more_examples(self):
        assert print_seq(dual(parse_seq("(54)(321)"))) == "(5)(43)(2)(1)"
        assert print_seq(dual(parse_seq("(5(4)321)"))) == "(5(4)3)(2)(1)"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involution_type_swap_and_oracle_agreement(self, n):
        for s in enumerate_sequences(n):
            d = dual(s)
            assert d.r == n - s.r + 1
            assert dual(d) == s
            assert d == dual_via_gap_toggle(s)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_type_counts_swap(self, n):
        for r in range(1, n + 1):
            assert len(enumerate_sequences(n, r)) == len(
                enumerate_sequences(n, n - r + 1)
            )


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_sequences(3, 2)) == 3
        assert len(enumerate_sequences(1, 1)) == 1
        assert [len(enumerate_sequences(4, r)) for r in range(1, 5)] == [1, 6, 6, 1]

    def test_out_of_range_r(self):
        assert enumerate_sequences(3, 4) == []
        assert enumerate_sequences(3, 0) == []

    def test_lexicographic_and_duplicate_free(self):
        seqs = enumerate_sequences(5)
        order = {"": 0, "(": 1, ")": 2, ")(": 3}
        keys = [tuple(order[g] for g in s.gaps) for s in seqs]
        assert keys == sorted(keys)
        assert len(set(seqs)) == len(seqs)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_closed_formulas(self, n):
        assert len(enumerate_sequences(n)) == catalan(n)
        for r in range(1, n + 1):
            assert len(enumerate_sequences(n, r)) == narayana(n, r)

    def test_counts_at_the_enumeration_bound(self):
        from collections import Counter

        by_r = Counter(s.r for s in enumerate_sequences(12))
        assert sum(by_r.values()) == catalan(12)
        assert all(by_r[r] == narayana(12, r) for r in range(1, 13))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_sequences(13)


class TestRankShift:
    def test_examples(self):
        assert print_seq(rank_shift_down(parse_seq("(5(4)321)"))) == "(4)(321)"
        assert print_seq(rank_shift_up(parse_seq("(1)"))) == "(21)"
        assert print_seq(rank_shift_up(parse_seq("(4)(321)"))) == "(5(4)321)"

    def test_down_requires_single_top(self):
        with pytest.raises(ValueError):
            rank_shift_down(parse_seq("(2)(1)"))
        with pytest.raises(ValueError):
            rank_shift_down(parse_seq("(1)"))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mutually_inverse_and_counts(self, n):
        for r in range(1, n + 1):
            seqs = enumerate_sequences(n, r)
            ups = [rank_shift_up(s) for s in seqs]
            for s, u in zip(seqs, ups):
                assert len(u.top_level_labels) == 1
                assert u.r == s.r and u.n == n + 1
                assert rank_shift_down(u) == s
            assert len(set(ups)) == len(ups)
            assert set(ups) == set(enumerate_single_top(n + 1, r))

    def test_single_top_counts_shift_rank(self):
        for n in range(1, 10):
            for r in range(1, n + 1):
                assert len(enumerate_single_top(n + 1, r)) == len(
                    enumerate_sequences(n, r)
                )

    def test_up_realizes_zero_index_lift(self):
        from woplab.perm import lift

        for n in range(1, 7):
            for s in enumerate_sequences(n):
                assert decode(rank_shift_up(s)) == lift(decode(s), 0)


class TestValidationDirect:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BracketSequence(2, ("", "", ")"))  # first integer uncovered
        with pytest.raises(ValueError):
            BracketSequence(2, ("(", "(", ")"))  # unclosed
        with pytest.raises(ValueError):
            BracketSequence(2, ("(", ")", ")"))  # over-closed
        with pytest.raises(ValueError):
            BracketSequence(2, (")", "", "("))  # slot discipline
        with pytest.raises(ValueError):
            BracketSequence(2, ("(", ")"))  # wrong gap count


# -- reference engines ---------------------------------------------------------
#
# The quadratic pair matching, the closure-based dual and the per-character
# enumerator that the linear-time versions in woplab.noncross replaced, and
# the ordered validation checks alone, without the one-pass accept test.


_REFERENCE_STEPS = {gap: (gap.count(")"), gap.count("(")) for gap in GAP_ALPHABET}


def reference_validate(n, gaps):
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(gaps) != n + 1:
        raise ValueError(f"need {n + 1} gap values, got {len(gaps)}")
    if gaps[0] not in ("", "("):
        raise ValueError("the gap before the first integer may hold only '('")
    if gaps[n] not in ("", ")"):
        raise ValueError("the gap after the last integer may hold only ')'")
    steps = [_REFERENCE_STEPS.get(gap) for gap in gaps]
    if None in steps:
        g = steps.index(None)
        raise ValueError(f"bad gap value {gaps[g]!r} at gap {g}")
    depth = 0
    for g, (closes, opens) in enumerate(steps):
        if depth < closes:
            raise ValueError("unbalanced brackets: ')' closes nothing")
        depth += opens - closes
        if depth < 1 and g < n:
            raise ValueError(f"integer {n - g} is not inside any bracket pair")
    if depth != 0:
        raise ValueError("unbalanced brackets: unclosed '('")


def reference_pairs(seq):
    stack = []
    raw = []
    for g, gap in enumerate(seq.gaps):
        for ch in gap:
            if ch == "(":
                stack.append(g)
            else:
                raw.append((stack.pop(), g))
    by_label = sorted(raw, key=lambda lr: -lr[1])
    members = {i: [] for i in range(len(raw))}
    for k in range(1, seq.n + 1):
        gap_above = seq.n - k
        containing = [
            i for i, (l, right) in enumerate(by_label) if l <= gap_above < right
        ]
        members[max(containing)].append(k)
    return tuple(
        BracketPair(i + 1, l, right, tuple(sorted(members[i])))
        for i, (l, right) in enumerate(by_label)
    )


def reference_top_level_labels(seq):
    pairs = reference_pairs(seq)
    return tuple(p.label for p in pairs if not any(q.contains(p) for q in pairs))


def reference_dual(seq):
    n = seq.n
    bits = [(1 if ")" in g else 0, 1 if "(" in g else 0) for g in seq.gaps]
    new_bits = [[None, None] for _ in range(n + 1)]

    def write(gap, slot, value):
        old = new_bits[gap][slot]
        assert old is None or old == value, "inconsistent local rewrites"
        new_bits[gap][slot] = value

    for k in range(n, 0, -1):
        above, below = n - k, n - k + 1
        ra, la, rb, lb = _DUAL_TABLE[bits[above] + bits[below]]
        write(above, 0, ra)
        write(above, 1, la)
        write(below, 0, rb)
        write(below, 1, lb)
    return BracketSequence(n, tuple(")" * b[0] + "(" * b[1] for b in new_bits))


def reference_enumerate(n, r=None):
    if r is not None and not 1 <= r <= n:
        return []
    out = []
    gaps = [""] * (n + 1)

    def extend(g, depth, opens):
        if g == n:
            closing = ")" if depth == 1 else ""
            if depth - len(closing) == 0 and (r is None or opens == r):
                gaps[g] = closing
                out.append(BracketSequence(n, tuple(gaps)))
            return
        allowed = ("", "(") if g == 0 else GAP_ALPHABET
        for value in allowed:
            d = depth
            ok = True
            for ch in value:
                d += 1 if ch == "(" else -1
                if d < 0:
                    ok = False
                    break
            if not ok or d < 1:
                continue
            o = opens + value.count("(")
            if r is not None and (o > r or o + n - g - 1 < r):
                continue
            gaps[g] = value
            extend(g + 1, d, o)

    extend(0, 0, 0)
    return out


def random_sequence(n, choose):
    """A valid sequence on n integers, each gap picked by ``choose`` among
    the values that keep the prefix completable."""
    gaps = []
    depth = 0
    for g in range(n):
        options = [
            (value, depth - value.count(")") + value.count("("))
            for value in (("", "(") if g == 0 else GAP_ALPHABET)
        ]
        options = [(value, d) for value, d in options if 1 <= d <= n - g]
        value, depth = options[choose(len(options))]
        gaps.append(value)
    return BracketSequence(n, tuple(gaps) + (")",))


def assert_matches_reference(s):
    assert s.pairs == reference_pairs(s)
    assert s.r == len(reference_pairs(s))
    assert s.top_level_labels == reference_top_level_labels(s)
    assert dual(s) == reference_dual(s)
    assert dual_via_gap_toggle(s) == reference_dual(s)


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_sequence_up_to_10(self, n):
        seqs = enumerate_sequences(n)
        assert seqs == reference_enumerate(n)
        for r in range(0, n + 2):
            assert enumerate_sequences(n, r) == reference_enumerate(n, r)
        for s in seqs:
            assert_matches_reference(s)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_adjacency_pairs_the_labels_meeting_at_each_close_open_gap(self, n):
        for s in enumerate_sequences(n):
            pairs = reference_pairs(s)
            opened = {p.left_gap: p.label for p in pairs}
            closed = {p.right_gap: p.label for p in pairs}
            expected = {(opened[g], closed[g]) for g, gap in enumerate(s.gaps) if gap == ")("}
            assert classify_pairs(s).adjacent == expected

    def test_seeded_sample_at_12(self):
        rng = random.Random(12)
        for _ in range(2000):
            assert_matches_reference(random_sequence(12, rng.randrange))
        for r in (1, 2, 11, 12):
            assert enumerate_sequences(12, r) == reference_enumerate(12, r)


def validation_outcome(check, n, gaps):
    """None if ``check(n, gaps)`` accepts, else the error's type and text."""
    try:
        check(n, gaps)
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    return None


def assert_validates_like_reference(n, gaps):
    assert validation_outcome(BracketSequence, n, gaps) == validation_outcome(
        reference_validate, n, gaps
    ), (n, gaps)


class TestValidationAgainstReference:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_gap_tuple(self, n):
        accepted = 0
        for gaps in itertools.product(GAP_ALPHABET, repeat=n + 1):
            assert_validates_like_reference(n, gaps)
            accepted += validation_outcome(reference_validate, n, gaps) is None
        assert accepted == catalan(n)

    def test_wrong_lengths_and_small_n(self):
        for n in range(-2, 5):
            for length in range(n + 4):
                assert_validates_like_reference(n, ("",) * length)
                framed = ("(",) + ("",) * (length - 2) + (")",)
                assert_validates_like_reference(n, framed[:length])

    def test_unknown_gap_values(self):
        valid = ("(", ")(", "", ")")
        for bad in ("((", "))", "()", "x", " ", ")()", None, 1, ["("]):
            for g in range(len(valid)):
                gaps = valid[:g] + (bad,) + valid[g + 1 :]
                assert_validates_like_reference(3, gaps)


@st.composite
def sequences(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    return random_sequence(n, lambda k: draw(st.integers(0, k - 1)))


class TestRoundTrips:
    @given(sequences())
    def test_print_parse(self, s):
        assert parse_seq(print_seq(s)) == s

    @given(sequences())
    def test_labelled_printing_names_matching_pairs(self, s):
        tokens = print_seq(s, labels=True).split()
        assert parse_seq(" ".join(t.split("_")[0] for t in tokens)) == s
        open_labels = []
        for t in tokens:
            if t.startswith("("):
                open_labels.append(t[2:])
            elif t.startswith(")"):
                assert open_labels.pop() == t[2:]
        assert sorted(int(t[2:]) for t in tokens if t[0] == ")") == list(
            range(1, s.r + 1)
        )

    @given(sequences())
    def test_dual_is_an_involution(self, s):
        d = dual(s)
        assert dual(d) == s
        assert d.r == s.n - s.r + 1

    @given(sequences())
    def test_json_text_is_the_dumped_dict(self, s):
        assert s.to_json() == json.dumps(s.to_json_dict())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_json_text_is_the_dumped_dict_for_every_small_sequence(self, n):
        for r in range(1, n + 1):
            for s in enumerate_sequences(n, r):
                text = s.to_json()
                # the text is written without matched pairs cached on s
                assert "pairs" not in s.__dict__
                assert text == json.dumps(s.to_json_dict())

    @given(sequences())
    def test_encode_decode(self, s):
        assert encode(decode(s)) == s

    @given(sequences())
    def test_decode_encode(self, s):
        beta = decode(s)
        assert decode(encode(beta)) == beta
