import itertools
from fractions import Fraction

import pytest

from conftest import index_tuples
from woplab import oracle
from woplab.errors import BoundExceededError
from woplab.oracle import (
    D_apply,
    XPolynomial,
    cyclic_pairs,
    equal_as_p,
    normal_ordered_apply,
    p_to_x,
    quiver_trace_product,
    tr_Dn_apply,
    trace_power,
    x_power_entry,
    x_variable,
)
from woplab.perm import Permutation, all_permutations
from woplab.pring import PPolynomial, apply_W, parse_p, partitions
from woplab.summation import summation_of


def P(text):
    return parse_p(text)


def monomials_of_weight(w):
    return [PPolynomial.monomial(p) for p in partitions(w)]


class TestPToX:
    def test_trace(self):
        assert p_to_x(P("p1"), 2) == XPolynomial(
            2, {((1, 1),): 1, ((2, 2),): 1}
        )

    def test_trace_square(self):
        expected = XPolynomial(
            2,
            {
                ((1, 1), (1, 1)): 1,
                ((1, 2), (2, 1)): 2,
                ((2, 2), (2, 2)): 1,
            },
        )
        assert p_to_x(P("p2"), 2) == expected

    def test_constant(self):
        assert p_to_x(P("5"), 3) == XPolynomial.constant(3, 5)

    def test_products_expand(self):
        assert p_to_x(P("p1^2"), 2) == p_to_x(P("p1"), 2) * p_to_x(P("p1"), 2)


class TestPowerEntries:
    def test_zeroth_power_is_identity_matrix(self):
        assert x_power_entry(3, 0, 2, 2) == XPolynomial.constant(3, 1)
        assert x_power_entry(3, 0, 1, 2) == XPolynomial.zero(3)

    def test_first_power(self):
        assert x_power_entry(3, 1, 1, 2) == x_variable(3, 1, 2)

    def test_trace_of_power_is_sum_of_diagonal_entries(self):
        for N, k in [(2, 3), (3, 2), (4, 2)]:
            total = XPolynomial.zero(N)
            for a in range(1, N + 1):
                total = total + x_power_entry(N, k, a, a)
            assert total == trace_power(N, k)


class TestDApply:
    def test_on_p1(self):
        for N in (2, 3):
            for a, b in itertools.product(range(1, N + 1), repeat=2):
                assert D_apply(a, b, p_to_x(P("p1"), N)) == x_variable(N, a, b)

    def test_on_constant(self):
        assert D_apply(1, 1, XPolynomial.constant(2, 7)) == XPolynomial.zero(2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_on_power_sum_gives_k_times_power_entry(self, k):
        for N in (2, 3, 4):
            G = p_to_x(PPolynomial.variable(k), N)
            for a, b in [(1, 1), (1, 2), (N, 1)]:
                assert D_apply(a, b, G) == k * x_power_entry(N, k, a, b)

    def test_first_structure_identity(self):
        # D_ab on F(p) equals sum_k k (X^k)_ab (dF/dp_k after substitution)
        for w in range(1, 5):
            for F in monomials_of_weight(w):
                N = 5
                a, b = 2, 3
                lhs = D_apply(a, b, p_to_x(F, N))
                rhs = XPolynomial.zero(N)
                for k in range(1, w + 1):
                    dF = F.diff(k)
                    if dF:
                        rhs = rhs + k * x_power_entry(N, k, a, b) * p_to_x(dF, N)
                assert lhs == rhs

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_split_identity_on_power_entries(self, k):
        # D_cd (X^k)_ab = sum_{j=0}^{k-1} (X^j)_ad (X^{k-j})_cb
        for N in (2, 4):
            for a, b, c, d in [(1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2)]:
                lhs = D_apply(c, d, x_power_entry(N, k, a, b))
                rhs = XPolynomial.zero(N)
                for j in range(k):
                    rhs = rhs + x_power_entry(N, j, a, d) * x_power_entry(
                        N, k - j, c, b
                    )
                assert lhs == rhs

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            D_apply(0, 1, XPolynomial.constant(2, 1))
        with pytest.raises(ValueError):
            D_apply(1, 3, XPolynomial.constant(2, 1))


class TestNormalOrdered:
    def test_single_pair_equals_plain_derivation(self):
        for N in (2, 3):
            for F in [P("p1"), P("p2"), P("p1*p2")]:
                G = p_to_x(F, N)
                for a, b in [(1, 1), (1, 2), (2, 1)]:
                    assert normal_ordered_apply([(a, b)], G) == D_apply(a, b, G)

    @pytest.mark.parametrize("i", [1, 2])
    def test_two_pair_formula_on_power_sums(self, i):
        # :D_AB D_BC: on p_i = i * sum_{j=1}^{i-1} (X^j)_BB (X^{i-j})_AC
        N = 3
        G = p_to_x(PPolynomial.variable(i), N)
        for A, B, C in [(1, 2, 3), (2, 2, 1), (1, 1, 1), (3, 1, 2)]:
            lhs = normal_ordered_apply([(A, B), (B, C)], G)
            rhs = XPolynomial.zero(N)
            for j in range(1, i):
                rhs = rhs + i * x_power_entry(N, j, B, B) * x_power_entry(
                    N, i - j, A, C
                )
            assert lhs == rhs

    def test_composition_minus_normal_order_is_the_contraction(self):
        # D_AB (D_BC G) - :D_AB D_BC: G = D_AC G
        N = 3
        inputs = [p_to_x(P(t), N) for t in ["p1", "p2", "p1^2", "p3", "p1*p2"]]
        for G in inputs:
            for A, B, C in [(1, 2, 3), (2, 1, 2), (1, 1, 1), (3, 2, 1)]:
                composed = D_apply(A, B, D_apply(B, C, G))
                ordered = normal_ordered_apply([(A, B), (B, C)], G)
                assert composed - ordered == D_apply(A, C, G)


class TestTraceOperator:
    def test_cyclic_pairs(self):
        assert cyclic_pairs((7,)) == [(7, 7)]
        assert cyclic_pairs((1, 2)) == [(1, 2), (2, 1)]
        assert cyclic_pairs((1, 2, 3)) == [(1, 3), (3, 2), (2, 1)]

    def test_rank_one_is_the_euler_operator(self):
        for F in [P("p1"), P("p2"), P("p1*p2"), P("p2^2")]:
            w = F.weight()
            N = w + 2
            assert tr_Dn_apply(1, F, N) == p_to_x(w * F, N)

    def test_rank_two_on_p1_cubed(self):
        assert tr_Dn_apply(2, P("p1^3"), 5) == p_to_x(P("6*p1*p2"), 5)

    def test_rank_three_on_p2(self):
        lhs = tr_Dn_apply(3, P("p2"), 5)
        assert equal_as_p(lhs, 3 * apply_W(3, P("p2")), 5)

    def test_equivalence_small(self):
        for n in (1, 2):
            for w in (1, 2, 3):
                for F in monomials_of_weight(w):
                    N = w + n + 1
                    assert tr_Dn_apply(n, F, N) == p_to_x(n * apply_W(n, F), N)

    def test_guards(self):
        with pytest.raises(BoundExceededError):
            tr_Dn_apply(4, P("p1"), 6)
        with pytest.raises(ValueError, match="too small"):
            tr_Dn_apply(2, P("p3"), 4)


class TestEqualAsP:
    def test_examples(self):
        assert equal_as_p(p_to_x(P("p2"), 3), P("p2"), 3)
        assert not equal_as_p(p_to_x(P("p2"), 3), P("p1^2"), 3)
        assert equal_as_p(XPolynomial.zero(3), PPolynomial.zero(), 3)

    def test_collision_at_tiny_size(self):
        # at N=1 the substitution is not faithful: tr(X)^2 == tr(X^2)
        assert equal_as_p(p_to_x(P("p2"), 1), P("p1^2"), 1)


class TestQuiverFactorization:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_product_matches_cycle_blocks(self, n):
        # contracting the cycle quiver reproduces the polynomial part:
        # one trace of power sum(k over the cycle) per cycle
        N = 4
        for beta in all_permutations(n):
            template = summation_of(beta)
            for kvec in itertools.product((1, 2), repeat=n):
                lhs = quiver_trace_product(beta, kvec, N)
                indices = tuple(
                    sum(kvec[v - 1] for v in block) for block in template.cycle_blocks
                )
                assert lhs == p_to_x(PPolynomial.monomial(indices), N)


class TestPerSummandBridge:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_summand_pieces_rebuild_the_raw_operator(self, n):
        """Evaluate each summation at the entry level without its normal form:
        the polynomial part comes from brute-force quiver contraction and the
        differential part from plain p-derivatives.  Each piece must match the
        engine's template application, and the pieces must sum to the raw
        normal-ordered trace operator."""
        from woplab.pring import apply_template

        inputs = {1: ["p2", "p4"], 2: ["p1*p2", "p4"], 3: ["p1*p2", "p1^3"]}
        for text in inputs[n]:
            F = P(text)
            d = F.max_weight()
            N = d + n + 1
            total = XPolynomial.zero(N)
            for beta in all_permutations(n):
                t = summation_of(beta)
                piece = XPolynomial.zero(N)
                for kvec in index_tuples(n, d):
                    coeff = 1
                    G = F
                    for block in t.derivative_blocks:
                        m = sum(kvec[v - 1] for v in block)
                        coeff *= m
                        G = G.diff(m)
                        if not G:
                            break
                    if not G:
                        continue
                    piece = piece + coeff * quiver_trace_product(
                        beta, kvec, N
                    ) * p_to_x(G, N)
                assert piece == p_to_x(apply_template(t, F), N), (beta, text)
                total = total + piece
            assert total == tr_Dn_apply(n, F, N), text


def reference_tr_Dn_apply(n, F, N):
    """The full walk over {1..N}^n that the row-restricted walk replaced:
    every index vector meets every monomial whose rows hold its first
    derivative's row."""
    G = p_to_x(F, N)
    indexed = [(coeff, *oracle._indexed(mono)) for mono, coeff in G.items()]
    out = {}
    for avec in itertools.product(range(1, N + 1), repeat=n):
        pairs = cyclic_pairs(avec)
        first_row = pairs[0][1]
        for coeff, counts, by_row in indexed:
            if first_row in by_row:
                oracle._apply_pairs(pairs, counts, by_row, coeff, out)
    return XPolynomial(N, out)


# (n, F) for every monomial of weight <= 3 at n <= 3, of weight 4 at n <= 2,
# and one mixed rational polynomial
WALK_INPUTS = [
    *((n, F) for n in (1, 2, 3) for w in (0, 1, 2, 3) for F in monomials_of_weight(w)),
    *((n, F) for n in (1, 2) for F in monomials_of_weight(4)),
    (3, P("1/2*p1*p2-3*p3+2/3*p1^2-7/5*p2+4")),
]


class TestRowRestrictedWalk:
    @pytest.mark.parametrize("n, F", WALK_INPUTS, ids=str)
    def test_equals_the_full_walk(self, n, F):
        N = F.max_weight() + n + 1
        assert tr_Dn_apply(n, F, N) == reference_tr_Dn_apply(n, F, N)

    def test_every_walked_vector_adds_a_term(self, monkeypatch):
        sizes = [F.max_weight() + n + 1 for n, F in WALK_INPUTS]
        expected = [reference_tr_Dn_apply(n, F, N) for (n, F), N in zip(WALK_INPUTS, sizes)]
        apply_pairs = oracle._apply_pairs
        added_per_call = []

        def checked(pairs, counts, by_row, coeff, out):
            added = {}
            apply_pairs(pairs, counts, by_row, coeff, added)
            added_per_call.append(len(added))
            for key, value in added.items():
                out[key] = out.get(key, 0) + value

        monkeypatch.setattr(oracle, "_apply_pairs", checked)
        walked = [tr_Dn_apply(n, F, N) for (n, F), N in zip(WALK_INPUTS, sizes)]
        assert walked == expected
        assert added_per_call and min(added_per_call) >= 1
