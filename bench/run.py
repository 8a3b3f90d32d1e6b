"""woplab benchmark: one closed-loop workload per run, checked outputs.

    python3 bench/run.py --workload apply_dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; woplab is imported from ``src/``
next to this directory, never from an installed copy.  One caller in one
thread runs one op at a time, each after the previous one returns.  Ops come
in seeded rounds (see ``workloads.py``); the run ends at the first round
boundary after ``--seconds`` of op time and at least MIN_OPS ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the same
ops a second time with every layer wrapped from outside (``tracer.py``),
checks that both passes produce identical outputs, prints the per-layer
metrics and writes the spans to ``bench/results/``.  The last stdout line is
one JSON object: correct, attempted, failed (ops failed or wrong) and
metrics.

Times are also reported in units of a fixed reference workload timed
between consecutive ops and around each set-up (``reference_work``).  On a
shared host the speed of this process drifts by up to 2x over seconds to
minutes; the reference drifts with it, so the ratio stays steady where the
seconds do not.  The result line carries the ratios: op times in "ref"
units, and ``setup_s`` as set-up time in reference units times
REF_NOMINAL_S, i.e. seconds on a host where the reference takes 10 ms.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pickle
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.010  # about the reference's median time where it was written
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile

import tracer as tr  # noqa: E402  (sibling modules of this script)
import workloads as wl  # noqa: E402


class Record(NamedTuple):
    op: wl.Op
    seconds: float
    ref: float  # op time in reference units
    status: str
    reason: str
    digest: bytes


def reference_work() -> int:
    """A fixed stdlib workload with woplab's profile (tuples, dicts,
    Fractions, many small allocations), about 10 ms; it never changes."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for i in range(2000):
        key = tuple(sorted((i % 7, i % 5, i % 3, i % 11)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11, 1 + i % 4)
    return len(acc)


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def import_library(modules: tuple[str, ...]):
    """Import woplab afresh from ``src/`` (dropping any earlier import)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "woplab" or m.startswith("woplab.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    lib = sys.modules["woplab"]
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"woplab was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload: wl.Workload, first_round: list[wl.Op]):
    """Import plus parsing of one round of inputs, repeated.  Returns the
    last library instance, its parsed inputs, and the median set-up time in
    seconds and in reference units."""
    seconds, refs = [], []
    ref_before = reference_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library(workload.modules)
        prepared = [workload.prepare(lib, op) for op in first_round]
        seconds.append(time.perf_counter() - start)
        ref_after = reference_s()
        refs.append(seconds[-1] / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return lib, prepared, statistics.median(seconds), statistics.median(refs)


def digest(output) -> bytes:
    return hashlib.sha256(pickle.dumps(output, protocol=4)).digest()


def run_pass(workload, lib, ops, prepared, call) -> list[Record]:
    """Run ops one at a time, in order.  The reference workload runs
    between consecutive ops; each op is also expressed in units of the mean
    of the reference times just before and just after it."""
    records = []
    ref_before = reference_s()
    for i, (op, op_input) in enumerate(zip(ops, prepared)):
        start = time.perf_counter()
        try:
            result = call(i, lib, op_input)
            elapsed = time.perf_counter() - start
            output = workload.output(result)
            status, reason = workload.check(op, output)
        except Exception as err:  # a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - start
            output, status, reason = None, wl.FAILED, f"{type(err).__name__}: {err}"
        ref_after = reference_s()
        ref = elapsed / ((ref_before + ref_after) / 2)
        records.append(Record(op, elapsed, ref, status, reason, digest(output)))
        ref_before = ref_after
    return records


def untraced_pass(workload, seed, lib, batch, batch_inputs, seconds):
    """Whole seeded rounds until ``seconds`` of op time have passed and at
    least MIN_OPS ops have run.  Returns the ops run, their parsed inputs
    and their records."""
    ops, prepared, records = [], [], []
    stream = wl.rounds(workload, seed)
    next(stream)  # the first round is the one parsed at set-up
    while True:
        ops += batch
        prepared += batch_inputs
        records += run_pass(workload, lib, batch, batch_inputs, lambda i, l, x: workload.run(l, x))
        if sum(r.seconds for r in records) >= seconds and len(records) >= MIN_OPS:
            return ops, prepared, records
        batch = next(stream)
        batch_inputs = [workload.prepare(lib, op) for op in batch]


def timing(records, unit_of):
    """Median, 90th percentile and passed-op throughput in one time unit."""
    values = [unit_of(r) for r in records]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8], sum(r.status == wl.OK for r in records) / sum(values)


def end_to_end(records, setup_ref):
    p50, p90, per_ref = timing(records, lambda r: r.ref)
    return {
        "setup_s": (setup_ref * REF_NOMINAL_S, "s"),
        "op_p50_ref": (p50, "ref"),
        "op_p90_ref": (p90, "ref"),
        "ops_per_ref": (per_ref, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tr.Tracer, untraced_ref: float, traced_ref: float):
    m = {}
    for name in [f"{module}.{func}" for module, func, _ in tr.TARGETS] + [tr.PAIRS]:
        m[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    templates = tracer.calls.get("pring.apply_template", 0)
    useful = tracer.counters.get("pring.apply_template.useful", 0)
    m["pring.apply_template.useful_frac"] = (useful / templates if templates else 0.0, "frac")
    for counter in ("pring.out_terms", "summation.templates", "noncross.sequences", "oracle.x_terms"):
        m[counter] = (tracer.counters.get(counter, 0), "count")
    m["cli.stdout_bytes"] = (tracer.counters.get("cli.stdout_bytes", 0), "bytes")
    op_time = sum(tracer.self_s.values())
    for layer, s in tracer.layer_self_s().items():
        m[f"{layer}.self_frac"] = (s / op_time if op_time else 0.0, "frac")
    m["trace.overhead_frac"] = (traced_ref / untraced_ref - 1, "frac")
    return m


def properties(records) -> list[str]:
    """The input properties the workload depends on, for the summary."""
    ops = [r.op for r in records]
    seen, repeats = set(), 0
    for op in ops:
        key = (op.kind.split(" n=")[0], op.n)
        repeats += key in seen
        seen.add(key)

    def histogram(values):
        return dict(sorted(Counter(values).items()))

    lines = [
        f"  ops by kind: {histogram(op.kind for op in ops)}",
        f"  ops by n: {histogram(op.n for op in ops)}; share repeating an earlier (kind, n): {repeats / len(ops):.3f}",
    ]
    if ops[0].weight:
        terms = sorted(op.terms for op in ops)
        lines.append(
            f"  input weight: {histogram(op.weight for op in ops)}; input terms min/median/max: "
            f"{terms[0]}/{statistics.median(terms)}/{terms[-1]}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    try:
        first_round = next(wl.rounds(workload, args.seed))
        lib, first_prepared, setup_s, setup_ref = set_up(workload, first_round)
    except ImportError as err:
        print(f"error: cannot import woplab from {SRC}: {err}", file=sys.stderr)
        return 2

    ops, prepared, records = untraced_pass(workload, args.seed, lib, first_round, first_prepared, args.seconds)
    untraced_s = sum(r.seconds for r in records)
    wrong = sum(r.status == wl.WRONG for r in records)
    failed = sum(r.status == wl.FAILED for r in records)
    correct = wrong == 0
    for r in records:
        if r.status != wl.OK:
            print(f"  {r.status}: {' '.join(r.op.text) if isinstance(r.op.text, list) else r.op.kind}: {r.reason}")

    e2e = end_to_end(records, setup_ref)
    p50_s, p90_s, per_s = timing(records, lambda r: r.seconds)
    n = len(records)
    print(f"workload {workload.name} seed {args.seed}: {n} ops, closed loop, 1 caller, {untraced_s:.2f} s of op time")
    print(
        f"  setup_s      {setup_s:.6f} s (median of {SETUP_REPEATS} set-ups: import + parse {len(first_round)} inputs);"
        f" {setup_ref:.4f} ref = {e2e['setup_s'][0]:.6f} s at nominal speed"
    )
    print(f"  op_p50_s     {p50_s:.6f} s ({n} samples); op_p50_ref {e2e['op_p50_ref'][0]:.4f} ref")
    print(f"  op_p90_s     {p90_s:.6f} s ({n} samples); op_p90_ref {e2e['op_p90_ref'][0]:.4f} ref")
    print(f"  ops_per_s    {per_s:.4f} 1/s (ops that passed their check); ops_per_ref {e2e['ops_per_ref'][0]:.6f} 1/ref")
    print(f"  fail_frac    {(failed + wrong) / n:.4f} ({failed} failed + {wrong} wrong of {n} attempted)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb'][0]:.2f} MB")
    ref_ms = statistics.median(r.seconds / r.ref for r in records) * 1000
    print(f"  1 ref        {ref_ms:.3f} ms (median time of reference_work in this run)")
    for line in properties(records):
        print(line)

    metrics = e2e
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(lib)
        op_call = tracer.span(tr.OP_SPAN, workload.run)

        def traced_call(i, l, x):
            tracer.op_id = i
            result = op_call(l, x)
            if workload.run is wl.run_cli:
                tracer.count("cli.stdout_bytes", len(result[1].encode()))
            return result

        try:
            traced = run_pass(workload, lib, ops, prepared, traced_call)
        finally:
            tracer.uninstall()
        if [r.digest for r in traced] != [r.digest for r in records]:
            correct = False
            print("  traced and untraced passes produced different outputs")
        traced_s = sum(r.seconds for r in traced)
        metrics = per_layer(tracer, sum(r.ref for r in records), sum(r.ref for r in traced))
        shares = ", ".join(f"{layer} {metrics[f'{layer}.self_frac'][0]:.3f}" for layer in tr.LAYERS)
        print(
            f"  traced pass: {traced_s:.2f} s, overhead {metrics['trace.overhead_frac'][0]:.3f} in ref units;"
            f" self-time share by layer: {shares}"
        )
        path = HERE / "results" / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write_spans(path)
        print(f"  spans written to {path.relative_to(ROOT)} ({len(tracer.span_start)} spans)")

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
