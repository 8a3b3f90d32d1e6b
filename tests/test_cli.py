import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import test_acceptance
from woplab import cli, counting, noncross, perm, pring, summation, verify
from woplab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_n1_plain(self, capsys):
        code, out, _ = run(capsys, "decompose", "1")
        assert code == 0
        assert out == "(1)  dP=1 dD=1 degree=2 OS(1,1)  sum_{k1} k1 p_{k1} d/dp_{k1}\n"

    def test_n3_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 6
        assert sum(1 for t in data if t["degree"] == 5 - 1) == 5
        assert {tuple(map(tuple, t["perm"])) for t in data} == {
            ((1,), (2,), (3,)),
            ((1,), (2, 3)),
            ((1, 2), (3,)),
            ((1, 2, 3),),
            ((1, 3), (2,)),
            ((1, 3, 2),),
        }

    def test_n4_degree_census_via_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "4", "--json")
        data = json.loads(out)
        assert len(data) == 24
        assert sum(1 for t in data if t["degree"] == 5) == 14

    def test_latex_lines(self, capsys):
        code, out, _ = run(capsys, "decompose", "3", "--latex")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("FS_{(") for line in lines)
        assert any("\\frac{\\partial^{3}}" in line for line in lines)

    def test_bound_exit_2(self, capsys):
        code, _, err = run(capsys, "decompose", "4", "--max-n", "3")
        assert code == 2
        assert "bound" in err

    def test_env_var_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("WOPLAB_MAX_N", "3")
        code, _, err = run(capsys, "decompose", "4")
        assert code == 2
        monkeypatch.setenv("WOPLAB_MAX_N", "4")
        code, out, _ = run(capsys, "decompose", "4")
        assert code == 0 and len(out.strip().splitlines()) == 24
        monkeypatch.setenv("WOPLAB_MAX_N", "abc")
        assert run(capsys, "decompose", "3") == (
            2, "", "error: WOPLAB_MAX_N must be an integer, got 'abc'\n"
        )


    def test_json_streams_kept_templates(self, capsys):
        summation.decompose_W(7)
        tracemalloc.start()
        try:
            code = main(["decompose", "7", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json.loads(capsys.readouterr().out)) == 5040
        assert peak < 6 * 2**20


class TestApply:
    def test_examples(self, capsys):
        assert run(capsys, "apply", "2", "p1^3") == (0, "3*p1*p2\n", "")
        assert run(capsys, "apply", "1", "p2*p3") == (0, "5*p2*p3\n", "")
        assert run(capsys, "apply", "3", "--perm", "(321)", "p1^3") == (
            0,
            "2*p3\n",
            "",
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "apply", "2", "p2", "--json")
        assert json.loads(out) == {"n": 2, "perm": None, "result": "p1^2"}

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "apply", "2", "p1^")
        assert code == 2 and "position" in err

    def test_perm_rank_mismatch(self, capsys):
        code, _, err = run(capsys, "apply", "2", "p1", "--perm", "(321)")
        assert code == 2


class TestSeq:
    def test_dual_published_example(self, capsys):
        assert run(capsys, "seq", "dual", "(7(65)(4)(3)21)") == (
            0,
            "(7(6)(543)2)(1)\n",
            "",
        )

    def test_decode_encode(self, capsys):
        code, out, _ = run(capsys, "seq", "decode", "(4)(321)")
        assert code == 0 and out == "(1 3 2)(4)\n"
        code, out, _ = run(capsys, "seq", "encode", "(1 3 2)(4)")
        assert code == 0 and out == "(4)(321)\n"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "seq", "enumerate", "3", "2")
        assert code == 0
        # lexicographic in the gap alphabet "" < "(" < ")" < ")("
        assert out.strip().splitlines() == ["(32)(1)", "(3(2)1)", "(3)(21)"]

    def test_enumerate_missing_r(self, capsys):
        code, _, err = run(capsys, "seq", "enumerate", "3")
        assert code == 2

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "seq", "classify", "(2)(1)", "--json")
        data = json.loads(out)
        assert data == {
            "top_level": [1, 2],
            "embedded": [],
            "bottom_level": [1, 2],
            "adjacent": [[1, 2]],
        }

    def test_invalid_sequence_exit_2(self, capsys):
        code, _, err = run(capsys, "seq", "decode", "(4)32(1)")
        assert code == 2

    def test_enumerate_json_builds_one_dict_at_a_time(self, capsys):
        tracemalloc.start()
        try:
            code = main(["seq", "enumerate", "10", "5", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json.loads(capsys.readouterr().out)) == 5292
        assert peak < 12 * 2**20

    def test_enumerate_json_releases_each_sequence_once_written(self, capsys):
        tracemalloc.start()
        try:
            code = main(["seq", "enumerate", "11", "5", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json.loads(capsys.readouterr().out)) == 13860
        assert peak < 9 * 2**20


class TestEnumerateJson:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_streamed_text_is_the_dumped_list(self, capsys, n):
        for r in range(1, n + 1):
            code, out, err = run(capsys, "seq", "enumerate", str(n), str(r), "--json")
            expected = json.dumps([s.to_json_dict() for s in noncross.enumerate_sequences(n, r)])
            assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize("r", ["0", "5", "-1"])
    def test_pair_count_out_of_range_prints_an_empty_list(self, capsys, r):
        assert run(capsys, "seq", "enumerate", "4", r, "--json") == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "n, message",
        [("13", "enumeration bound is 12, got n=13"), ("0", "n must be at least 1")],
    )
    def test_bad_n_exit_2_before_any_output(self, capsys, n, message):
        for r in ("0", "1", "2"):
            assert run(capsys, "seq", "enumerate", n, r, "--json") == (2, "", f"error: {message}\n")


class TestCount:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "count", "3", "--json")
        data = json.loads(out)
        assert data["total"] == data["catalan"] == 5
        assert [row["r"] for row in data["rows"]] == [1, 2, 3]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "count", "1")
        assert code == 0 and out.startswith("n=1")


class TestLiftProject:
    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "lift", "(4)(321)", "0")
        assert code == 0 and out == "(1 5 3 2)(4)\n"
        code, out, _ = run(capsys, "project", "(1 5 3 2)(4)")
        assert code == 0 and out == "(1 3 2)(4) j=0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "project", "(321)", "--json")
        assert json.loads(out) == {"perm": "(1 2)", "j": 0}

    def test_lift_out_of_range(self, capsys):
        code, _, err = run(capsys, "lift", "(21)", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "{}", "0"],
            ["project", "{}"],
            ["seq", "encode", "{}"],
            ["apply", "2", "p1", "--perm", "{}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_huge_integer_in_a_permutation_exits_2_at_once(self, capsys, argv):
        argv = [a.format("(1 1000000000000000000)") for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cycles do not cover 1..1000000000000000000;") and len(err) < 200


class TestVerify:
    def test_suites_pass(self, capsys):
        for suite, rng in [
            ("counts", "1..4"),
            ("star", "1..4"),
            ("dual", "1..5"),
            ("lift", "1..3"),
        ]:
            code, out, _ = run(capsys, "verify", suite, rng)
            assert code == 0, (suite, out)
            assert "[FAIL]" not in out
            assert out.count("[PASS]") == len(range(*map(int, rng.split("..")))) + 1

    def test_oracle_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "1..2", "--max-weight", "2")
        assert code == 0 and out.count("[PASS]") == 2

    def test_failure_exits_1(self, capsys, monkeypatch):
        star = verify.SUITES["star"]
        monkeypatch.setitem(verify.SUITES, "star", star._replace(check=lambda n, w: False))
        code, out, _ = run(capsys, "verify", "star", "1")
        assert code == 1 and "[FAIL]" in out

    def test_a_failing_claim_fails_the_cli_and_the_acceptance_suite(self, capsys, monkeypatch):
        star = verify.SUITES["star"]
        monkeypatch.setitem(verify.SUITES, "star", star._replace(check=lambda n, w: n != 5))
        code, out, _ = run(capsys, "verify", "star", "4..6")
        assert code == 1 and out.count("[PASS]") == 2
        assert out.count("[FAIL] star n=5: maximal degree iff star condition") == 1
        with pytest.raises(AssertionError, match="star n=5"):
            test_acceptance.test_acceptance_3_maximal_degree_iff_star()

    @pytest.mark.parametrize("override", [("--max-n", "4"), ("WOPLAB_MAX_N", "4")])
    def test_override_reaches_the_library(self, capsys, monkeypatch, override):
        # tr_Dn_apply's own default bound is 3
        argv = ["verify", "oracle", "4", "--max-weight", "2"]
        if override[0] == "--max-n":
            argv += override
        else:
            monkeypatch.setenv(*override)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "[PASS] oracle n=4: trace calculus == summation engine, weights <= 2\n"

    def test_count_passes_its_bound_to_the_library(self, capsys, monkeypatch):
        bounds, verify_counts = [], counting.verify_counts
        monkeypatch.setattr(
            counting,
            "verify_counts",
            lambda n, *, max_n: bounds.append(max_n) or verify_counts(n, max_n=max_n),
        )
        assert run(capsys, "count", "3", "--max-n", "3")[0] == 0
        assert bounds == [3]

    @pytest.mark.parametrize("weight", ["0", "-3"])
    def test_max_weight_below_1_exit_2(self, capsys, weight):
        code, out, err = run(capsys, "verify", "oracle", "1..2", "--max-weight", weight)
        assert (code, out) == (2, "")
        assert err == f"error: --max-weight must be at least 1, got {weight}\n"

    def test_dual_suite_passes_up_to_its_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "dual", "1..10")
        assert code == 0 and out.count("[PASS]") == 10 and "[FAIL]" not in out

    @pytest.mark.parametrize(
        "mutant",
        ["not an involution", "no type swap", "toggle disagrees", "index misses", "invalid dual"],
    )
    def test_dual_suite_catches_a_faulty_dual(self, capsys, monkeypatch, mutant):
        table, toggle = noncross.dual, noncross.dual_via_gap_toggle
        if mutant == "not an involution":
            # two sequences of one type trade duals in both formulations,
            # so only the involution check can see it
            a, b = noncross.enumerate_sequences(5, 2)[:2]
            swap = {a: b, b: a}
            monkeypatch.setattr(noncross, "dual", lambda s: table(swap.get(s, s)))
            monkeypatch.setattr(
                noncross, "dual_via_gap_toggle", lambda s: toggle(swap.get(s, s))
            )
        elif mutant == "no type swap":
            # an identity dual is an involution, and the toggle agrees
            monkeypatch.setattr(noncross, "dual", lambda s: s)
            monkeypatch.setattr(noncross, "dual_via_gap_toggle", lambda s: s)
        elif mutant == "toggle disagrees":
            other = noncross.enumerate_sequences(5)[3]
            monkeypatch.setattr(
                noncross, "dual_via_gap_toggle", lambda s: toggle(s if s != other else table(s))
            )
        elif mutant == "invalid dual":
            # the table writes ")(" wherever it wrote "(": the two rewrites of
            # each gap still agree, and every dual opens with an invalid gap
            monkeypatch.setattr(
                noncross,
                "_DUAL_GAPS",
                {
                    key: tuple(")(" if gap == "(" else gap for gap in rewrites)
                    for key, rewrites in noncross._DUAL_GAPS.items()
                },
            )
            built = noncross.dual(noncross.parse_seq("(4(3)2)(1)"))
            with pytest.raises(ValueError, match="the gap before the first integer"):
                noncross.BracketSequence(built.n, built.gaps)
        else:
            enumerate_sequences = noncross.enumerate_sequences
            monkeypatch.setattr(
                noncross,
                "enumerate_sequences",
                lambda n, r=None, *, max_n=noncross.DEFAULT_MAX_ENUMERATE: (
                    enumerate_sequences(n, r, max_n=max_n)[:-1]
                ),
            )
        code, out, _ = run(capsys, "verify", "dual", "4..6")
        assert code == 1 and "[FAIL]" in out

    def test_counts_suite_fails_on_a_faulty_route(self, capsys, monkeypatch):
        # the recurrence route is one too high at r = 3; the census and the
        # enumeration still agree with the formula
        recurrence = counting.narayana_row_via_recurrence
        monkeypatch.setattr(
            counting,
            "narayana_row_via_recurrence",
            lambda n: {r: c + (r == 3) for r, c in recurrence(n).items()},
        )
        code, out, _ = run(capsys, "verify", "counts", "5")
        assert code == 1
        assert out.startswith("[FAIL] counts n=5: count mismatch at (n, r) in [(5, 3)]:\n")
        assert "[PASS]" not in out

    def test_oracle_suite_fails_on_a_faulty_engine(self, capsys, monkeypatch):
        apply_W, p1 = pring.apply_W, pring.PPolynomial.variable(1)
        monkeypatch.setattr(
            pring,
            "apply_W",
            lambda n, F, *, max_n=summation.DEFAULT_MAX_DECOMPOSE: apply_W(n, F, max_n=max_n) + p1,
        )
        code, out, _ = run(capsys, "verify", "oracle", "2")
        assert code == 1 and out.startswith("[FAIL] oracle n=2: ")

    @pytest.mark.parametrize("fault", ["drop", "duplicate", "extra"])
    @pytest.mark.parametrize("suite, faulty_rank", [("star", 4), ("lift", 4), ("lift", 5)])
    def test_star_and_lift_catch_a_faulty_decomposition(
        self, capsys, monkeypatch, suite, faulty_rank, fault
    ):
        decompose_W = summation.decompose_W

        def faulty(n, *, max_n=summation.DEFAULT_MAX_DECOMPOSE):
            templates = decompose_W(n, max_n=max_n)
            if n == faulty_rank:
                if fault == "drop":
                    del templates[7]
                elif fault == "duplicate":
                    templates[8] = templates[7]
                else:
                    templates.append(templates[7])
            return templates

        monkeypatch.setattr(summation, "decompose_W", faulty)
        code, out, _ = run(capsys, "verify", suite, "4")
        assert code == 1 and out.startswith("[FAIL]")

    def test_lift_suite_catches_a_lift_repeating_a_permutation(self, capsys, monkeypatch):
        # j = 2 and j = 3 both cut a loop of the identity's hat quiver, so
        # the repeated lift still moves (dP, dD) as the claim says
        lift, identity = perm.lift, perm.Permutation.identity(4)
        monkeypatch.setattr(
            perm, "lift", lambda alpha, j: lift(alpha, 2 if (alpha, j) == (identity, 3) else j)
        )
        code, out, _ = run(capsys, "verify", "lift", "4")
        assert code == 1 and out.startswith("[FAIL]")

    def test_dual_suite_passes_each_n_as_the_enumeration_bound(self, capsys, monkeypatch):
        calls, enumerate_sequences = [], noncross.enumerate_sequences

        def spy(n, r=None, *, max_n=noncross.DEFAULT_MAX_ENUMERATE):
            calls.append((n, max_n))
            return enumerate_sequences(n, r, max_n=max_n)

        monkeypatch.setattr(noncross, "enumerate_sequences", spy)
        code, out, _ = run(capsys, "verify", "dual", "4..6")
        assert code == 0 and out.count("[PASS]") == 3
        assert {n for n, _ in calls} == {4, 5, 6}
        assert all(max_n == n for n, max_n in calls)

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "star", "0..2")
        assert code == 2

    def test_bound_respected(self, capsys):
        code, _, err = run(capsys, "verify", "star", "1..9")
        assert code == 2 and "bound" in err
        # checked before the range is built, so a huge one is refused at once
        code, _, err = run(capsys, "verify", "star", "1..1000000000000")
        assert code == 2 and "bound is 7, requested up to 1000000000000" in err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = run(capsys, "decompose", "4", "--json")
        second = run(capsys, "decompose", "4", "--json")
        assert first == second
        first = run(capsys, "seq", "enumerate", "4", "2")
        second = run(capsys, "seq", "enumerate", "4", "2")
        assert first == second


class TestParserReuse:
    # the second call differs from the first only in a defaulted option
    SEQUENCE = [
        ["verify", "oracle", "2", "--max-weight", "2"],
        ["verify", "oracle", "2"],
        ["seq", "enumerate", "5", "2", "--json"],
        ["decompose", "3"],
    ]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_calls_in_one_process_match_fresh_processes(self, capfd):
        in_process = []
        for argv in self.SEQUENCE:
            code = main(list(argv))
            captured = capfd.readouterr()
            in_process.append((code, captured.out, captured.err))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        fresh = []
        for argv in self.SEQUENCE:
            done = subprocess.run(
                [sys.executable, "-m", "woplab", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert "weights <= 2" in in_process[0][1] and "weights <= 4" in in_process[1][1]


class TestUsage:
    def test_mutually_exclusive_formats(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "3", "--json", "--latex"])
        assert err.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


JSON_COMMANDS = [
    ["decompose", "3"],
    ["apply", "2", "p1^3"],
    ["apply", "3", "p1^3", "--perm", "(321)"],
    ["seq", "decode", "(4)(321)"],
    ["seq", "encode", "(1 3 2)(4)"],
    ["seq", "dual", "(7(65)(4)(3)21)"],
    ["seq", "classify", "(2)(1)"],
    ["seq", "enumerate", "4", "2"],
    ["count", "4"],
    ["lift", "(4)(321)", "0"],
    ["project", "(1 5 3 2)(4)"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_every_json_output_parses(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    json.loads(out)


CORPUS_SEQUENCES = ["(4(3)2)(1)", "(9(8)7)(6(54)3)(21)", "(11(10)(9 8)7)(6 5(4)3)(2 1)"]
CORPUS_PERMUTATIONS = [
    "(1)(2 4)(3)",
    "(1 2)(3 6)(4 5)(7 9)(8)",
    "(1 2)(3 6 5)(4)(7 11)(8 9)(10)",
]
RECORDED_CORPUS = [
    ["seq", "enumerate", "10", "5"],
    ["seq", "enumerate", "10", "5", "--json"],
    *(
        ["seq", action, text, *fmt]
        for text in CORPUS_SEQUENCES
        for action in ("decode", "dual", "classify")
        for fmt in ([], ["--json"])
    ),
    *(
        ["seq", "encode", text, *fmt]
        for text in CORPUS_PERMUTATIONS
        for fmt in ([], ["--json"])
    ),
    ["verify", "dual", "1..9"],
    ["verify", "star", "1..7"],
    ["verify", "lift", "1..6"],
    ["count", "7"],
    ["count", "7", "--json"],
]
# sha256 of the corpus transcript below, recorded before the linear-time
# bracket-sequence layer and the decompose_W-based verify suites landed
RECORDED_SHA256 = "284059f89eb11ed64e7670e9ca868b5f78e7c3df4b55d063afecc5ec9044429c"


def corpus_transcript(capsys) -> bytes:
    """Each command line with its exit code, followed by its stdout."""
    parts = []
    for argv in RECORDED_CORPUS:
        code = main(list(argv))
        parts.append(f"$ {' '.join(argv)} -> {code}\n{capsys.readouterr().out}")
    return "".join(parts).encode()


def test_recorded_corpus_is_byte_identical(capsys):
    transcript = corpus_transcript(capsys)
    assert b"[FAIL]" not in transcript
    assert hashlib.sha256(transcript).hexdigest() == RECORDED_SHA256


TEMPLATE_CORPUS = [
    *(["decompose", str(n), *fmt] for n in range(1, 8) for fmt in ([], ["--json"], ["--latex"])),
    ["seq", "enumerate", "11", "5", "--json"],
    *(["verify", "counts", str(n)] for n in range(1, 8)),
    ["count", "6", "--json"],
    ["apply", "7", "p7"],
    ["apply", "6", "p1*p2*p3"],
    ["apply", "2", "p1^3"],
    ["apply", "3", "--perm", "(321)", "p1^3"],
]
# sha256 of the template corpus transcript, each command run twice in a row
# so that the second run takes its templates from decompose_W's store,
# recorded before decompose_W kept its templates
TEMPLATE_SHA256 = "4e203f9785fecd0e393e7c04b1d8cbcbe7483add2232816a3933da1c79da9026"


def template_transcript_sha256(capsys) -> str:
    """sha256 of each command line with its exit code, followed by its
    stdout, each command run twice in a row."""
    digest = hashlib.sha256()
    for argv in TEMPLATE_CORPUS:
        for _ in range(2):
            code = main(list(argv))
            digest.update(f"$ {' '.join(argv)} -> {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_template_corpus_is_byte_identical(capsys, monkeypatch):
    monkeypatch.setattr(summation, "_KEPT", {})  # the first runs build afresh
    assert template_transcript_sha256(capsys) == TEMPLATE_SHA256


# malformed input: exit code 2 and this exact stderr (with the non-integer
# WOPLAB_MAX_N of TestDecompose.test_env_var_bound), recorded before the
# package's namespace was derived from its modules' __all__
ERROR_CORPUS = [
    (["lift", "(1 (2)", "0"], "nested '(' (at position 3)"),
    (["lift", ")", "0"], "unmatched ')' (at position 0)"),
    (["lift", "", "0"], "no cycles found"),
    (["lift", "(1 x)", "0"], "unexpected character 'x' (at position 3)"),
    (["lift", "()", "0"], "empty cycle (at position 1)"),
    (["project", "(1)"], "projection needs rank at least 2"),
    (["apply", "2", "1/0*p1"], "zero denominator (at position 3)"),
    (["apply", "2", "p1 p2"], "expected '+' or '-', found 'p' (at position 3)"),
    (["apply", "2", "p0"], "p-index must be positive (at position 2)"),
    (["seq", "decode", "(01)"], "integers may not have leading zeros"),
    (["seq", "decode", "(2)(1)x"], "unexpected character 'x' (at position 6)"),
    (["seq", "dual", "(3(21)"], "unbalanced brackets: unclosed '('"),
    # recorded once seq refused a second value for any action but enumerate;
    # before, the 7 was dropped and the dual printed with exit 0
    (["seq", "dual", "(21)", "7"], "seq dual takes one value, got a second: '7'"),
    # recorded once parse_p bounded a term's factors; before, these ran out of memory
    (["apply", "3", "p1^999999999999"], "more than 10000 factors in one term (at position 3)"),
    (["apply", "3", "p1^6000*p2^5000"], "more than 10000 factors in one term (at position 11)"),
]


@pytest.mark.parametrize("argv, message", ERROR_CORPUS, ids=[" ".join(a) for a, _ in ERROR_CORPUS])
def test_error_corpus_exits_2_with_its_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
