"""The three benchmark workloads: seeded inputs, the timed call, and checks.

Every workload is a stream of rounds.  A round is a fixed list of op
classes (the same in every run, so the cost distribution does not depend on
the seed) whose order and contents the seed chooses.  Rounds hold R ops
with R an odd multiple of 5: with k whole rounds the median falls at rank
R/2 * k - 1/2 and the 90th percentile at 0.9 R * k - 0.9, both inside the
k samples of one op slot whatever k is, never between two slots.  Shapes
and monomials are dealt from shuffled decks per op class, so each run covers
them evenly.  The library only ever
receives generated text: polynomial text for ``parse_p`` and argv lists for
``cli.main``.  Expected values never come from woplab: apply results are
checked against Schur-function eigenvalues (``schur_oracle``), counts
against ``math.comb``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Any, Callable

import schur_oracle as so

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    """One generated operation.  ``text`` is what the library receives:
    polynomial text for apply ops, an argv list for cli ops."""

    kind: str
    n: int
    text: Any
    expect: Any = None
    weight: int = 0
    terms: int = 0


# -- polynomial inputs -----------------------------------------------------------


def render(poly: dict[tuple[int, ...], Fraction]) -> str:
    """Polynomial text in parse_p's grammar, written by the benchmark."""
    parts = []
    for mono, c in sorted(poly.items()):
        factors = []
        for k in sorted(set(mono)):
            e = mono.count(k)
            factors.append(f"p{k}" if e == 1 else f"p{k}^{e}")
        mag = abs(c)
        coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        parts.append(("-" if c < 0 else "+") + "*".join([coeff] + factors))
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _apply_op(n: int, schur_coeffs: dict, poly: dict) -> Op:
    weight = sum(next(iter(poly)))
    return Op(
        kind=f"apply n={n} w={weight}",
        n=n,
        text=render(poly),
        expect=so.expected_W(n, schur_coeffs),
        weight=weight,
        terms=len(poly),
    )


class Decks:
    """Per-class shuffled decks: ``deal`` returns the next item of the
    class's deck and reshuffles a fresh deck when it runs out."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[Any, list] = {}

    def deal(self, key, items):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(items)
            self.rng.shuffle(deck)
        return deck.pop()


# apply_dense: (n, |R|, ops per round), 35 ops.  Weighted toward small n;
# by cost, the median falls among the n = 4, |R| = 7 ops and the 90th
# percentile among the eleven n = 4, |R| = 8 and n = 5, |R| = 7 ops, which
# cost about the same.  Every F has all p(|R|)
# monomials of its weight, so an op's cost depends on (n, |R|) and not on
# which shapes the seed picked.
DENSE_ROUND = ((3, 7, 8), (3, 8, 8), (4, 7, 6), (4, 8, 6), (5, 7, 5), (5, 8, 1), (6, 7, 1))


def dense_round(rng: random.Random, decks: Decks) -> list[Op]:
    ops = []
    for n, weight, count in DENSE_ROUND:
        shapes = so.partitions(weight)
        for _ in range(count):
            first = decks.deal((n, weight), shapes)
            k = decks.deal(("k", n, weight), (2, 3))
            while True:
                chosen = [first] + rng.sample([s for s in shapes if s != first], k - 1)
                coeffs = {s: _coeff(rng) for s in chosen}
                poly = so.combine(coeffs)
                if len(poly) == len(shapes):
                    break
            ops.append(_apply_op(n, coeffs, poly))
    rng.shuffle(ops)
    return ops


# apply_wide: (n, weight, terms, ops per round), 35 ops.  Weight n gives
# each of the n! templates a single index tuple, weight n+1 gives n+1 of
# them, so the cost sits in building templates rather than in applying them.
# The 22 cheap n = 6 ops are two whole decks of the 11 partitions of 6, so
# every round holds the same ops around the median; the ten n = 7 ops hold
# the 90th percentile.  Weight n + 1 and sums of monomials are kept few:
# they move time from template building into pring.
WIDE_ROUND = ((6, 6, 1, 22), (6, 7, 1, 2), (6, 7, 3, 1), (7, 7, 1, 10))


def wide_round(rng: random.Random, decks: Decks) -> list[Op]:
    ops = []
    for n, weight, terms, count in WIDE_ROUND:
        for _ in range(count):
            monos = so.partitions(weight)
            first = decks.deal((n, weight, terms), monos)
            chosen = [first] + rng.sample([m for m in monos if m != first], terms - 1)
            poly = {tuple(sorted(m)): _coeff(rng) for m in chosen}
            ops.append(_apply_op(n, so.to_schur(poly), poly))
    rng.shuffle(ops)
    return ops


def run_apply(lib, op_input):
    n, F = op_input
    return lib.apply_W(n, F)


def prepare_apply(lib, op: Op):
    return op.n, lib.parse_p(op.text)


def apply_output(result) -> dict:
    return dict(result.items())


def check_apply(op: Op, output: dict) -> tuple[str, str]:
    if output == op.expect:
        return OK, ""
    return WRONG, f"W([{op.n}]) result differs from the Schur eigenvalue formula"


# -- cli inputs ------------------------------------------------------------------


def random_noncrossing(rng: random.Random, items: list[int]) -> list[list[int]]:
    """A random non-crossing set partition of ``items`` (sorted ascending)."""
    if not items:
        return []
    first, rest = items[0], items[1:]
    chosen = sorted(rng.sample(rest, rng.randint(0, min(len(rest), 3))))
    block = [first] + chosen
    out = [block]
    bounds = block + [None]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = [v for v in rest if v > lo and (hi is None or v < hi)]
        out.extend(random_noncrossing(rng, inside))
    return out


def seq_text(n: int, blocks: list[list[int]]) -> str:
    """Bracket-sequence text: a pair opens before each block's maximum and
    closes after its minimum."""
    gaps = [""] * (n + 1)
    lefts = {n - max(b) for b in blocks}
    rights = {n - min(b) + 1 for b in blocks}
    for g in range(n + 1):
        gaps[g] = (")" if g in rights else "") + ("(" if g in lefts else "")
    parts = []
    for g in range(n + 1):
        parts.append(gaps[g])
        if g < n:
            if n >= 10 and g > 0 and gaps[g] == "":
                parts.append(" ")
            parts.append(str(n - g))
    return "".join(parts)


def perm_text(blocks: list[list[int]]) -> str:
    return "".join("(" + " ".join(str(v) for v in sorted(b, reverse=True)) + ")" for b in blocks)


def narayana(n: int, r: int) -> int:
    return comb(n + 1, r) * comb(n - 1, r - 1) // (n + 1)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# (argv prefix, ns) for the verify suites, one op per n per round;
# verify dual 9 runs three times, so that the 90th percentile falls in the
# middle of its samples, clear of the ops on either side.
VERIFY_SUITES = (
    (("verify", "dual"), (8, 9, 9, 9, 10)),
    (("verify", "counts"), (6, 7)),
    (("verify", "star"), (5, 6, 7)),
    (("verify", "lift"), (4, 5, 6)),
    (("verify", "oracle"), (1, 2, 3)),
)
# (n, r) of the seq enumerate ops: fixed, because the output size depends
# on r and the seed must not change the cost of a round.
ENUMERATE = ((10, 5), (11, 5))


# seq ops per round, by action: with them a round holds 35 ops, and the
# median falls among verify counts 6 and verify star 6.  seq encode --json
# fails today, so fail_frac is 3/35 until that is fixed.
SEQ_ACTIONS = {"decode": 3, "dual": 3, "classify": 3, "encode": 3}


def cli_round(rng: random.Random, decks: Decks) -> list[Op]:
    ops = []
    for prefix, ns in VERIFY_SUITES:
        for n in ns:
            argv = [*prefix, str(n)] + (["--max-weight", "3"] if prefix[1] == "oracle" else [])
            ops.append(Op(kind=" ".join(prefix), n=n, text=argv, expect=1))
    for n in (6, 7):
        ops.append(Op(kind="decompose", n=n, text=["decompose", str(n), "--json"], expect=factorial(n)))
    for n, r in ENUMERATE:
        ops.append(
            Op(kind="seq enumerate", n=n, text=["seq", "enumerate", str(n), str(r), "--json"], expect=narayana(n, r))
        )
    for n in (5, 6, 7):
        ops.append(Op(kind="count", n=n, text=["count", str(n), "--json"], expect=n))
    for action, count in SEQ_ACTIONS.items():
        for _ in range(count):
            n = decks.deal(action, range(4, 12))
            blocks = random_noncrossing(rng, list(range(1, n + 1)))
            value = perm_text(blocks) if action == "encode" else seq_text(n, blocks)
            expect = {"n": n, "blocks": blocks}
            ops.append(Op(kind=f"seq {action}", n=n, text=["seq", action, value, "--json"], expect=expect))
    rng.shuffle(ops)
    return ops


def prepare_cli(lib, op: Op):
    # The library's own argument parser reads every argv at set-up; the op
    # itself passes the argv to cli.main, which parses it again.
    lib.cli.build_parser().parse_args(op.text)
    return op.text


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_output(result):
    return result


def _blocks_of_perm(text: str) -> set[frozenset[int]]:
    return {frozenset(int(v) for v in c.split()) for c in re.findall(r"\(([^()]*)\)", text)}


def check_cli(op: Op, output) -> tuple[str, str]:
    rc, stdout, stderr = output
    if rc != 0:
        return FAILED, f"exit code {rc}: {stderr.strip()[:200]}"
    if op.text[0] == "verify":
        lines = stdout.splitlines()
        if len(lines) != op.expect or not all(line.startswith("[PASS]") for line in lines):
            return WRONG, f"expected {op.expect} [PASS] line(s), got {stdout[:200]!r}"
        return OK, ""
    try:
        value = json.loads(stdout)
    except ValueError as err:
        return FAILED, f"--json output is not valid JSON ({err}): {stdout[:80]!r}"
    if op.kind in ("decompose", "seq enumerate"):
        if not isinstance(value, list) or len(value) != op.expect:
            got = len(value) if isinstance(value, list) else type(value).__name__
            return WRONG, f"expected {op.expect} entries, got {got}"
        return OK, ""
    if not isinstance(value, dict):
        return WRONG, f"expected a JSON object, got {type(value).__name__}"
    if op.kind == "count":
        n = op.expect
        rows = value.get("rows", [])
        ok = (
            value.get("total") == catalan(n)
            and [row.get("narayana") for row in rows] == [narayana(n, r) for r in range(1, n + 1)]
            and all(row.get("enumerated") == row.get("narayana") for row in rows)
        )
        return (OK, "") if ok else (WRONG, f"count table for n={n} disagrees with math.comb")
    blocks = {frozenset(b) for b in op.expect["blocks"]}
    n = op.expect["n"]
    if op.kind == "seq decode":
        ok = _blocks_of_perm(str(value.get("perm", ""))) == blocks
    elif op.kind == "seq dual":
        ok = value.get("n") == n and len(value.get("pairs", [])) == n - len(blocks) + 1
    elif op.kind == "seq classify":
        labels = set(value.get("top_level", [])) | set(value.get("embedded", []))
        ok = labels == set(range(1, len(blocks) + 1))
    else:  # seq encode
        ok = value.get("n") == n and {
            frozenset(p.get("members", [])) for p in value.get("pairs", [])
        } == blocks
    return (OK, "") if ok else (WRONG, f"{op.kind} output disagrees with the generated input: {stdout[:120]!r}")


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, Decks], list[Op]]
    modules: tuple[str, ...]  # what set-up imports
    prepare: Callable
    run: Callable
    output: Callable
    check: Callable


WORKLOADS = {
    "apply_dense": Workload("apply_dense", dense_round, ("woplab",), prepare_apply, run_apply, apply_output, check_apply),
    "apply_wide": Workload("apply_wide", wide_round, ("woplab",), prepare_apply, run_apply, apply_output, check_apply),
    "cli_mix": Workload("cli_mix", cli_round, ("woplab", "woplab.cli"), prepare_cli, run_cli, cli_output, check_cli),
}


def rounds(workload: Workload, seed: int):
    """The endless seeded stream of rounds for one workload."""
    rng = random.Random(f"{workload.name}:{seed}")
    decks = Decks(rng)
    while True:
        yield workload.make_round(rng, decks)
