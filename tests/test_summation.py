import gc
import itertools
import json
import random
import tracemalloc

import pytest

from conftest import W3_DISPLAY, canon, equivalent_up_to_relabeling
from woplab import cli, summation
from woplab.errors import BoundExceededError
from woplab.perm import Permutation, all_permutations, lift, to_hat_quiver
from woplab.summation import (
    decompose_W,
    degree,
    has_descending_cycles,
    has_nested_or_ordered_supports,
    is_OS,
    render,
    satisfies_star,
    summation_of,
    to_json_dict,
)


def perm(text):
    return Permutation.parse(text)


class TestSummationOf:
    def test_examples(self):
        t = summation_of(perm("(321)"))
        assert t.cycle_blocks == ((1, 2, 3),)
        assert t.derivative_blocks == ((1,), (2,), (3,))

        t = summation_of(perm("(123)"))
        assert t.cycle_blocks == ((1, 2, 3),)
        assert t.derivative_blocks == ((1, 2, 3),)

        t = summation_of(perm("(1)"))
        assert t.cycle_blocks == ((1,),)
        assert t.derivative_blocks == ((1,),)

    def test_w3_matches_published_display_up_to_renaming(self):
        for text, display in W3_DISPLAY.items():
            t = summation_of(perm(text))
            assert equivalent_up_to_relabeling(
                3, (t.cycle_blocks, t.derivative_blocks), display
            ), text

    def test_deterministic_per_permutation(self):
        for beta in all_permutations(5):
            assert summation_of(beta) == summation_of(beta)


class TestDegrees:
    def test_examples(self):
        assert degree(summation_of(perm("(123)"))) == (1, 1, 2)
        assert degree(summation_of(perm("(1)(2)"))) == (2, 1, 3)
        assert degree(summation_of(perm("(321)"))) == (1, 3, 4)

    def test_w3_degree_census(self):
        degs = [t.degree for t in decompose_W(3)]
        assert sorted(degs) == [2, 4, 4, 4, 4, 4]

    def test_w4_census(self):
        templates = decompose_W(4)
        assert len(templates) == 24
        assert sum(1 for t in templates if t.degree == 5) == 14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_parity(self, n):
        # possible degrees are n+1, n-1, n-3, ...
        for t in decompose_W(n):
            assert t.degree <= n + 1
            assert (n + 1 - t.degree) % 2 == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_degree_transitions_under_lift(self, n):
        for alpha in all_permutations(n):
            ta = summation_of(alpha)
            chain = set(to_hat_quiver(alpha).chain)
            for j in range(n + 1):
                tb = summation_of(lift(alpha, j))
                if j == 0:
                    assert (tb.dP, tb.dD) == (ta.dP, ta.dD + 1)
                elif j in chain:
                    assert (tb.dP, tb.dD) == (ta.dP + 1, ta.dD)
                else:
                    assert (tb.dP, tb.dD) == (ta.dP - 1, ta.dD)


class TestOS:
    def test_examples(self):
        assert is_OS(summation_of(perm("(1)"))) == (1, 1)
        assert is_OS(summation_of(perm("(123)"))) is None
        assert is_OS(summation_of(perm("(1)(23)"))) == (2, 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_maximal_degree_iff_star(self, n):
        for beta in all_permutations(n):
            assert (is_OS(summation_of(beta)) is not None) == satisfies_star(beta)


class TestStarConditions:
    def test_descending_cycles(self):
        assert has_descending_cycles(perm("(321)"))
        assert has_descending_cycles(perm("(1)(2)"))  # fixed points vacuous
        assert has_descending_cycles(perm("(31)(2)"))
        assert not has_descending_cycles(perm("(123)"))

    def test_nested_or_ordered(self):
        # supports {1,2,3} and {4,5}: ordered
        assert has_nested_or_ordered_supports(perm("(123)(45)"))
        # supports {3,4} inside the span of {1,2,5}: nested
        assert has_nested_or_ordered_supports(perm("(125)(34)"))
        # supports {1,2,4} and {3,5} interleave
        assert not has_nested_or_ordered_supports(perm("(124)(35)"))

    def test_star_needs_both_conditions(self):
        # ascending cycles pass the nesting test but fail the descent test
        assert not satisfies_star(perm("(123)(45)"))
        assert not satisfies_star(perm("(125)(34)"))
        assert not satisfies_star(perm("(124)(35)"))
        # the descending counterparts on the same supports do satisfy it
        assert satisfies_star(perm("(321)(54)"))
        assert satisfies_star(perm("(521)(43)"))
        assert not satisfies_star(perm("(421)(53)"))  # still interleaved

    def test_star_census_is_catalan(self):
        assert sum(satisfies_star(b) for b in all_permutations(3)) == 5
        assert sum(satisfies_star(b) for b in all_permutations(4)) == 14


class TestDecompose:
    def test_counts(self):
        assert len(decompose_W(1)) == 1
        assert len(decompose_W(3)) == 6

    def test_templates_keyed_by_distinct_permutations(self):
        templates = decompose_W(4)
        assert len({t.perm for t in templates}) == 24

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lift_tree_matches_replayed_lift_chains(self, n, monkeypatch):
        expected = [summation_of(beta) for beta in all_permutations(n)]
        monkeypatch.setattr(summation, "_KEPT", {})
        cold = decompose_W(n)
        warm = decompose_W(n)
        assert cold == expected and warm == expected
        assert all(a is b for a, b in zip(cold, warm))

    def test_lift_tree_matches_replayed_lift_chains_on_a_sample_at_8(self):
        templates = decompose_W(8)
        assert [t.perm.images for t in templates] == list(itertools.permutations(range(1, 9)))
        for t in random.Random(8).sample(templates, 200):
            assert t == summation_of(t.perm)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            decompose_W(10)
        with pytest.raises(BoundExceededError):
            decompose_W(4, max_n=3)
        with pytest.raises(ValueError):
            decompose_W(0)


class TestKeptTemplates:
    def test_each_call_returns_a_fresh_list(self):
        first = decompose_W(5)
        second = decompose_W(5)
        assert first == second and first is not second
        first.clear()
        assert decompose_W(5) == second and len(second) == 120

    def test_bounds_are_checked_before_kept_templates_are_used(self):
        decompose_W(4)
        with pytest.raises(BoundExceededError):
            decompose_W(4, max_n=3)
        with pytest.raises(ValueError):
            decompose_W(0)

    def test_n8_is_built_afresh(self):
        first = decompose_W(8)
        second = decompose_W(8)
        assert not {id(t) for t in first} & {id(t) for t in second}

    def test_equal_blocks_are_one_object(self, monkeypatch):
        monkeypatch.setattr(summation, "_KEPT", {})
        blocks = {
            id(b)
            for t in decompose_W(6)
            for partition in (t.cycle_blocks, t.derivative_blocks)
            for b in partition
        }
        # one per nonempty subset of {1..6}
        assert len(blocks) <= 2**6 - 1

    def test_kept_templates_cache_no_cycles_and_stay_small(self, monkeypatch):
        monkeypatch.setattr(summation, "_KEPT", {})
        gc.collect()
        tracemalloc.start()
        try:
            kept = decompose_W(6) + decompose_W(7)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not any(hasattr(t.perm, "__dict__") for t in kept)
        # measured at 1.28 MB (Python 3.11); the bound leaves about 17 %
        assert held <= 1.5e6

    def test_reading_every_kept_template_holds_no_more_memory(self):
        kept = decompose_W(6) + decompose_W(7)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in kept:
                t.perm.cycles, t.perm.cycle_supports, str(t.perm)
                satisfies_star(t.perm), summation.to_json(t), render(t)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the per-block texts render and to_json keep are most of what may grow
        assert grown < 1e5

    @pytest.mark.parametrize("fmt", [[], ["--json"], ["--latex"]], ids=["plain", "json", "latex"])
    def test_decompose_caches_no_cycles_on_kept_templates(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(summation, "_KEPT", {})
        assert cli.main(["decompose", "7", *fmt]) == 0
        assert len(capsys.readouterr().out) > 5040
        assert not any(hasattr(t.perm, "__dict__") for t in decompose_W(7))


class TestRender:
    def test_plain(self):
        assert render(summation_of(perm("(1)")), "plain") == (
            "sum_{k1} k1 p_{k1} d/dp_{k1}"
        )
        assert render(summation_of(perm("(21)")), "plain") == (
            "sum_{k1,k2} k1 k2 p_{k1+k2} d/dp_{k1} d/dp_{k2}"
        )

    def test_latex(self):
        assert render(summation_of(perm("(21)")), "latex") == (
            "\\sum_{k_1,k_2\\geq 1} k_1 k_2 p_{k_1+k_2}"
            "\\frac{\\partial^{2}}{\\partial p_{k_1}\\partial p_{k_2}}"
        )
        assert render(summation_of(perm("(1)(2)")), "latex") == (
            "\\sum_{k_1,k_2\\geq 1} (k_1+k_2) p_{k_1}p_{k_2}"
            "\\frac{\\partial}{\\partial p_{k_1+k_2}}"
        )

    def test_json(self):
        data = json.loads(render(summation_of(perm("(1)(23)")), "json"))
        assert data == {
            "n": 3,
            "perm": [[1], [2, 3]],
            "cycle_blocks": [[1], [2, 3]],
            "derivative_blocks": [[1, 3], [2]],
            "dP": 2,
            "dD": 2,
            "degree": 4,
            "os_type": [2, 2],
            "latex": data["latex"],
        }
        assert json.loads(render(summation_of(perm("(123)")), "json"))["os_type"] is None

    @pytest.mark.parametrize("n", range(1, 8))
    def test_json_text_is_the_dumped_dict(self, n):
        for t in decompose_W(n):
            assert summation.to_json(t) == json.dumps(to_json_dict(t))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(summation_of(perm("(1)")), "html")

    def test_blocks_sorted_in_json(self):
        for t in decompose_W(4):
            data = to_json_dict(t)
            for blocks in (data["cycle_blocks"], data["derivative_blocks"]):
                assert blocks == sorted(blocks, key=lambda b: b[0])
                assert all(b == sorted(b) for b in blocks)


class TestTemplateValidation:
    def test_blocks_must_match_perm(self):
        from woplab.summation import SummationTemplate

        with pytest.raises(ValueError):
            SummationTemplate(perm("(21)"), ((1,), (2,)), ((1, 2),))
        with pytest.raises(ValueError):
            SummationTemplate(perm("(21)"), ((1, 2),), ((1,),))

    @pytest.mark.parametrize("one", [True, 1.0])
    def test_blocks_equal_to_ints_are_refused(self, one):
        from woplab.summation import SummationTemplate

        p = perm("(1)")
        for cycle_blocks, derivative_blocks in [(((one,),), ((1,),)), (((1,),), ((one,),))]:
            with pytest.raises(ValueError, match="blocks must hold ints"):
                SummationTemplate(p, cycle_blocks, derivative_blocks)

    def test_dP_is_cycle_count(self):
        for beta in all_permutations(5):
            assert summation_of(beta).dP == len(beta.cycles)
