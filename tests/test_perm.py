import pytest
from hypothesis import given, strategies as st

from woplab.errors import ParseError
from woplab.perm import (
    HatQuiver,
    Permutation,
    all_permutations,
    lift,
    lift_chain,
    project,
    to_hat_quiver,
    to_quiver,
)


def perm(text):
    return Permutation.parse(text)


def permutations_up_to(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        Permutation.from_images
    )


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(3)
        assert p.images == (1, 2, 3)
        assert p.cycles == ((1,), (2,), (3,))

    def test_canonical_cycles_start_at_min_and_sort_by_min(self):
        p = perm("(7 2 1)(6 5)(4)(3)")
        assert p.cycles == ((1, 7, 2), (3,), (4,), (5, 6))
        assert str(p) == "(1 7 2)(3)(4)(5 6)"

    def test_parse_compact_digits(self):
        assert perm("(321)") == perm("(3 2 1)")
        assert perm("(4)(321)").images == (3, 1, 2, 4)
        # a multi-digit run is read literally when that is consistent
        q = Permutation.from_cycles([tuple(range(12, 0, -1))])
        assert Permutation.parse(str(q)) == q

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ParseError):
            perm("(1 2)(2 3)")  # repeated
        with pytest.raises(ParseError):
            perm("(1 3)")  # missing 2
        with pytest.raises(ParseError):
            perm("(1 2")  # unclosed
        with pytest.raises(ParseError):
            perm("1 2")  # outside cycle
        with pytest.raises(ParseError):
            perm("()")

    def test_parse_refuses_a_huge_integer_without_building_its_range(self):
        with pytest.raises(ParseError) as err:
            perm("(1 1000000000000000000)")
        assert str(err.value) == (
            "cycles do not cover 1..1000000000000000000; "
            "missing [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 999999999999999988 more"
        )

    @pytest.mark.parametrize(
        "cycles, message",
        [
            ([(1, 3)], "cycles do not cover 1..3; missing [2]"),
            ([(4, 1)], "cycles do not cover 1..4; missing [2, 3]"),
            ([(1, 12)], f"cycles do not cover 1..12; missing {list(range(2, 12))}"),
            ([(1, 13)], f"cycles do not cover 1..13; missing {list(range(2, 12))} and 1 more"),
            ([(0, 1)], "cycles do not cover 1..1; missing []"),
            ([(1, 2), (0,)], "cycles do not cover 1..2; missing []"),
        ],
    )
    def test_from_cycles_names_at_most_ten_missing_integers(self, cycles, message):
        with pytest.raises(ValueError) as err:
            Permutation.from_cycles(cycles)
        assert str(err.value) == message

    def test_roundtrip_str_parse(self):
        for p in all_permutations(4):
            assert Permutation.parse(str(p)) == p

    def test_value_semantics(self):
        assert perm("(21)") == perm("(2 1)")
        assert hash(perm("(21)")) == hash(perm("(1 2)"))
        assert perm("(21)") != perm("(1)(2)")


class TestRoundTrips:
    @given(permutations_up_to(12))
    def test_parse_inverts_str(self, p):
        # n >= 10 prints multi-digit integers, which parse reads whole
        assert Permutation.parse(str(p)) == p

    @given(permutations_up_to(9), st.data())
    def test_project_inverts_lift(self, alpha, data):
        j = data.draw(st.integers(0, alpha.n))
        beta = lift(alpha, j)
        assert project(beta) == (alpha, j)
        assert lift(*project(beta)) == beta


class TestQuivers:
    def test_cycle_quiver_examples(self):
        assert to_quiver(perm("(123)")) == frozenset({(1, 2), (2, 3), (3, 1)})
        assert to_quiver(Permutation.identity(2)) == frozenset({(1, 1), (2, 2)})
        assert to_quiver(perm("(21)")) == frozenset({(1, 2), (2, 1)})

    def test_hat_quiver_examples(self):
        assert to_hat_quiver(perm("(123)")).arrows == frozenset(
            {(4, 2), (2, 3), (3, 1)}
        )
        assert to_hat_quiver(perm("(1)")).arrows == frozenset({(2, 1)})
        # derived by replacing the arrow out of 1 in (21): 1->2 becomes 3->2
        assert to_hat_quiver(perm("(21)")).arrows == frozenset({(3, 2), (2, 1)})

    def test_hat_quiver_chain_and_loops(self):
        q = to_hat_quiver(perm("(4)(321)"))
        assert q.chain == (5, 3, 2, 1)
        assert q.loops == ((4,),)

    def test_hat_quiver_roundtrip(self):
        for p in all_permutations(5):
            assert to_hat_quiver(p).to_permutation() == p

    def test_hat_quiver_always_one_chain_rooted_at_top(self):
        for n in range(1, 6):
            for p in all_permutations(n):
                q = to_hat_quiver(p)
                assert q.chain[0] == n + 1 and q.chain[-1] == 1
                assert set(q.chain[1:]) == set(p.cycles[0])

    def test_hat_quiver_validation(self):
        with pytest.raises(ValueError):
            HatQuiver(2, frozenset({(1, 2), (2, 1)}))  # arrow out of 1
        with pytest.raises(ValueError):
            HatQuiver(2, frozenset({(3, 1), (2, 3)}))  # arrow into top vertex


class TestProjectLift:
    def _project_examples(self):
        # j recovered independently by solving lift(alpha, j) == beta over j
        return [perm("(321)"), perm("(3)(21)"), perm("(3)(2)(1)")]

    def test_project_quivers_match_construction(self):
        alpha21 = perm("(21)")
        assert project(perm("(321)")) == (alpha21, 0)
        assert project(perm("(3)(21)"))[0] == alpha21
        assert project(perm("(3)(2)(1)"))[0] == Permutation.identity(2)

    def test_project_j_matches_enumeration_oracle(self):
        for beta in self._project_examples():
            alpha, j = project(beta)
            solutions = [k for k in range(alpha.n + 1) if lift(alpha, k) == beta]
            assert solutions == [j]

    def test_lift_examples(self):
        assert lift(Permutation.identity(2), 0) == perm("(13)(2)")
        assert lift(perm("(4)(321)"), 0) == perm("(4)(5321)")
        assert lift(perm("(4)(321)"), 3) == perm("(5)(4)(321)")

    def test_lift_degenerate_cut_gives_new_fixed_point(self):
        # cutting the arrow out of the top vertex itself: j = alpha(1)
        for alpha in all_permutations(4):
            beta = lift(alpha, alpha(1))
            assert beta(alpha.n + 1) == alpha.n + 1
            assert beta.images[: alpha.n] == alpha.images

    def test_lift_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lift(perm("(21)"), 3)
        with pytest.raises(ValueError):
            lift(perm("(21)"), -1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_roundtrip(self, n):
        for alpha in all_permutations(n):
            for j in range(n + 1):
                assert project(lift(alpha, j)) == (alpha, j)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lifts_partition_next_rank(self, n):
        lifted = [lift(a, j) for a in all_permutations(n) for j in range(n + 1)]
        assert len(lifted) == len(set(lifted))
        assert set(lifted) == set(all_permutations(n + 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fiber_size(self, n):
        fibers = {}
        for beta in all_permutations(n + 1):
            fibers.setdefault(project(beta)[0], []).append(beta)
        assert all(len(v) == n + 1 for v in fibers.values())
        assert len(fibers) == len(list(all_permutations(n)))


class TestLiftChain:
    def test_examples(self):
        assert lift_chain(perm("(1)")) == ()
        assert lift_chain(perm("(13)(2)")) == (1, 0)
        assert lift_chain(perm("(321)")) == (0, 0)

    def test_rebuild_reproduces_permutation(self):
        for n in range(1, 6):
            for p in all_permutations(n):
                current = Permutation.identity(1)
                for m, j in enumerate(lift_chain(p), start=1):
                    assert 0 <= j <= m
                    current = lift(current, j)
                assert current == p

    @given(st.integers(2, 7).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_rebuild_property(self, images):
        p = Permutation.from_images(images)
        current = Permutation.identity(1)
        for j in lift_chain(p):
            current = lift(current, j)
        assert current == p
