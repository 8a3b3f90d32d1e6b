"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import woplab  # noqa: E402
from woplab import cli  # noqa: E402

import run  # noqa: E402
import schur_oracle as so  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def first_rounds(name, seed, count=2):
    stream = wl.rounds(wl.WORKLOADS[name], seed)
    return [[(op.kind, op.n, op.text) for op in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert first_rounds(name, 7) == first_rounds(name, 7)
    assert first_rounds(name, 7) != first_rounds(name, 8)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_round_sizes_keep_percentile_ranks_fixed(name):
    sizes = {len(r) for r in first_rounds(name, 3, count=3)}
    assert len(sizes) == 1 and sizes.pop() % 10 == 5


@pytest.mark.parametrize("shape", [(3, 2, 1), (4, 2), (3, 3, 1), (2, 2, 1)])
def test_schur_eigenvalues_match_the_engine(shape):
    F = woplab.PPolynomial(so.schur(shape))
    for n in range(1, 5):
        assert dict(woplab.apply_W(n, F).items()) == so.expected_W(n, {shape: Fraction(1)})


def test_schur_basis_round_trip():
    for mu in so.partitions(6):
        poly = {tuple(sorted(mu)): Fraction(3, 2)}
        assert so.combine(so.to_schur(poly)) == poly


def test_rendered_polynomials_parse_back():
    rng = random.Random(0)
    for shapes in ([(4, 3)], [(5, 2, 1), (2, 2, 2, 2)]):
        poly = so.combine({s: wl._coeff(rng) for s in shapes})
        assert dict(woplab.parse_p(wl.render(poly)).items()) == poly


def small_apply_op():
    coeffs = {(3, 1): Fraction(2, 3), (2, 1, 1): Fraction(-1)}
    return wl._apply_op(2, coeffs, so.combine(coeffs))


def test_apply_check_accepts_the_engine_and_rejects_a_scaled_result():
    op = small_apply_op()
    output = wl.apply_output(wl.run_apply(woplab, wl.prepare_apply(woplab, op)))
    assert output and wl.check_apply(op, output)[0] == wl.OK
    assert wl.check_apply(op, {m: 2 * c for m, c in output.items()})[0] == wl.WRONG
    assert wl.check_apply(op, dict(list(output.items())[1:]))[0] == wl.WRONG


def cli_op(argv, kind, n, expect):
    return wl.Op(kind=kind, n=n, text=argv, expect=expect)


def run_cli(argv):
    return wl.run_cli(woplab, argv)


def test_cli_checks_reject_truncated_or_wrong_json():
    op = cli_op(["seq", "enumerate", "5", "2", "--json"], "seq enumerate", 5, wl.narayana(5, 2))
    rc, out, err = run_cli(op.text)
    assert wl.check_cli(op, (rc, out, err))[0] == wl.OK
    assert wl.check_cli(op, (rc, out[: len(out) // 2], err))[0] == wl.FAILED
    shorter = json.dumps(json.loads(out)[1:])
    assert wl.check_cli(op, (rc, shorter, err))[0] == wl.WRONG
    assert wl.check_cli(op, (2, out, "error"))[0] == wl.FAILED

    op = cli_op(["decompose", "3", "--json"], "decompose", 3, 6)
    assert wl.check_cli(op, run_cli(op.text))[0] == wl.OK


def test_cli_checks_reject_failed_claims_and_wrong_counts():
    op = cli_op(["verify", "star", "4"], "verify star", 4, 1)
    rc, out, err = run_cli(op.text)
    assert wl.check_cli(op, (rc, out, err))[0] == wl.OK
    assert wl.check_cli(op, (rc, out.replace("[PASS]", "[FAIL]"), err))[0] == wl.WRONG
    assert wl.check_cli(op, (rc, "", err))[0] == wl.WRONG

    op = cli_op(["count", "5", "--json"], "count", 5, 5)
    rc, out, err = run_cli(op.text)
    assert wl.check_cli(op, (rc, out, err))[0] == wl.OK
    report = json.loads(out)
    report["total"] *= 2
    assert wl.check_cli(op, (rc, json.dumps(report), err))[0] == wl.WRONG


def test_seq_checks_use_the_generated_partition():
    rng = random.Random(5)
    blocks = wl.random_noncrossing(rng, list(range(1, 10)))
    text = wl.seq_text(9, blocks)
    expect = {"n": 9, "blocks": blocks}
    for action in ("decode", "dual", "classify"):
        op = cli_op(["seq", action, text, "--json"], f"seq {action}", 9, expect)
        assert wl.check_cli(op, run_cli(op.text))[0] == wl.OK
    decode = cli_op(["seq", "decode", text, "--json"], "seq decode", 9, expect)
    assert wl.check_cli(decode, (0, json.dumps({"perm": "(1)" * 9}), ""))[0] == wl.WRONG
    # seq encode --json: a dict repr fails, valid JSON of the same content passes
    encode = cli_op(["seq", "encode", wl.perm_text(blocks), "--json"], "seq encode", 9, expect)
    seq = woplab.encode(woplab.Permutation.parse(wl.perm_text(blocks)))
    assert wl.check_cli(encode, (0, json.dumps(seq.to_json_dict()), ""))[0] == wl.OK
    assert wl.check_cli(encode, (0, str(seq.to_json_dict()), ""))[0] == wl.FAILED


def test_tracer_wraps_every_binding_site_and_restores_them():
    originals = (woplab.pring.decompose_W, woplab.counting.decompose_W, woplab.apply_W)
    tracer = tr.Tracer()
    tracer.install(woplab)
    try:
        F = woplab.parse_p("p1^2*p2+3*p4")
        traced = woplab.apply_W(3, F)
        with redirect_stdout(io.StringIO()):
            cli.main(["count", "4", "--json"])
            cli.main(["verify", "dual", "5"])
    finally:
        tracer.uninstall()
    assert (woplab.pring.decompose_W, woplab.counting.decompose_W, woplab.apply_W) == originals
    assert woplab.noncross.BracketSequence.__dict__["pairs"].func.__name__ == "pairs"
    assert traced == woplab.apply_W(3, F)
    calls = tracer.calls
    assert calls["pring.apply_W"] == 1 and calls["pring.apply_template"] == 6
    assert calls["summation.decompose_W"] == 2  # via pring and via counting
    assert calls["counting.count_table"] == 1 and calls["noncross.enumerate_sequences"] >= 8
    assert calls["noncross.pairs"] > 0 and calls["noncross.dual"] > 0
    assert tracer.counters["summation.templates"] == 6 + 24
    assert all(tracer.span_end[i] >= tracer.span_start[i] for i in range(len(tracer.span_start)))


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = [run.Record(wl.Op("k", 1, "x"), t, 10 * t, wl.OK, "", b"") for t in (0.1, 0.2, 0.3, 0.4)]
    e2e = run.end_to_end(records, 5.0)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layer = run.per_layer(tr.Tracer(), 1.0, 1.1)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert all(layer[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
