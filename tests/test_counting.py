import json

import pytest

from woplab import counting, noncross
from woplab.counting import (
    CountReport,
    CountRow,
    catalan,
    catalan_series,
    count_table,
    narayana,
    narayana_row_via_recurrence,
    verify_counts,
)
from woplab.errors import BoundExceededError, MismatchError


class TestClosedFormulas:
    def test_catalan_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(6) == 132
        assert catalan(10) == 16796
        with pytest.raises(ValueError):
            catalan(-1)

    def test_narayana_values(self):
        assert narayana(3, 2) == 3
        assert narayana(4, 2) == 6
        assert all(narayana(n, 1) == 1 for n in range(1, 13))
        assert all(narayana(n, n) == 1 for n in range(1, 13))
        assert narayana(3, 0) == 0
        assert narayana(3, 4) == 0

    @pytest.mark.parametrize("n", range(1, 51))
    def test_row_sums_to_catalan(self, n):
        assert sum(narayana(n, r) for r in range(1, n + 1)) == catalan(n)

    def test_symmetry(self):
        for n in range(1, 20):
            for r in range(1, n + 1):
                assert narayana(n, r) == narayana(n, n - r + 1)


class TestRecurrence:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_convolution_matches_formula(self, n):
        assert narayana_row_via_recurrence(n) == {
            r: narayana(n, r) for r in range(1, n + 1)
        }


class TestGeneratingFunction:
    def test_series_matches_catalan_through_order_20(self):
        assert catalan_series(20) == [catalan(m) for m in range(21)]


class TestCountTable:
    def test_small_table(self):
        table = count_table(3)
        assert table.by_r == {1: 1, 2: 3, 3: 1}
        assert table.total == 5
        # single top-level counts shift rank down by one
        assert table.tilde_by_r == {1: 1, 2: 1, 3: 0}

    def test_rank_one(self):
        table = count_table(1)
        assert table.by_r == {1: 1} and table.tilde_by_r == {1: 1}


class TestVerifyCounts:
    def test_n3(self):
        report = verify_counts(3)
        assert report.ok
        assert {row.r: row.narayana for row in report.rows} == {1: 1, 2: 3, 3: 1}
        assert report.total == 5 and report.catalan == 5

    def test_n1_and_n6(self):
        assert verify_counts(1).total == 1
        assert verify_counts(6).total == 132

    def test_count_table_enumerates_each_r_once(self, monkeypatch):
        calls, enumerate_sequences = [], noncross.enumerate_sequences

        def spy(n, r=None, *, max_n=noncross.DEFAULT_MAX_ENUMERATE):
            calls.append((n, r))
            return enumerate_sequences(n, r, max_n=max_n)

        # both binding sites, so that a walk through enumerate_single_top counts too
        monkeypatch.setattr(noncross, "enumerate_sequences", spy)
        monkeypatch.setattr(counting, "enumerate_sequences", spy)
        table = counting.count_table(6)
        assert calls == [(6, r) for r in range(1, 7)]
        single_top = {r: len(noncross.enumerate_single_top(6, r)) for r in range(1, 7)}
        assert table.tilde_by_r == single_top

    def test_one_bound_for_enumeration_and_decomposition(self):
        assert verify_counts(3, max_n=3).total == 5
        with pytest.raises(BoundExceededError, match="bound is 2, got n=3"):
            verify_counts(3, max_n=2)

    def test_json_schema(self):
        data = json.loads(verify_counts(4).as_json())
        assert set(data) == {"n", "rows", "total", "catalan"}
        assert data["total"] == data["catalan"] == 14
        for row in data["rows"]:
            assert set(row) == {"r", "enumerated", "os_count", "narayana", "ok"}
            assert row["ok"] is True

    def test_text_report_is_aligned(self):
        text = verify_counts(3).as_text()
        lines = text.splitlines()
        assert lines[0].startswith("n=3")
        assert len(lines) == 2 + 3

    def test_mismatch_is_a_hard_failure(self, monkeypatch):
        report = CountReport(
            n=2,
            rows=(CountRow(r=1, enumerated=1, os_count=2, narayana=1, ok=False),),
            total=1,
            catalan=2,
        )
        assert not report.ok
        # the real verifier raises as soon as any route disagrees: here the
        # recurrence route is one too high at r alone
        for r in (1, 3, 5):
            monkeypatch.setattr(
                counting,
                "narayana_row_via_recurrence",
                lambda n: {k: c + (k == r) for k, c in narayana_row_via_recurrence(n).items()},
            )
            with pytest.raises(MismatchError) as err:
                verify_counts(5)
            assert err.value.where == [(5, r)]
            assert str(err.value).startswith(f"count mismatch at (n, r) in [(5, {r})]:\n")
