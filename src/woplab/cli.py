"""Batch command-line front end.

Subcommands: decompose, apply, seq, count, verify, lift, project.
Output is plain text by default; --json selects the machine format and
--latex (where supported) the display format.  Exit codes: 0 on success,
1 when a verification suite fails, 2 on usage or parse errors.  The
environment variable WOPLAB_MAX_N overrides the library's default size bounds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import counting, noncross, pring, summation, verify
from .errors import BoundExceededError, ParseError, admit
from .perm import Permutation, lift, project

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _bound(default: int, override: int | None) -> int:
    if override is not None:
        return override
    env = os.environ.get("WOPLAB_MAX_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BoundExceededError(f"WOPLAB_MAX_N must be an integer, got {env!r}")
    return default


def _parse_range(text: str) -> range:
    """``lo..hi`` or ``n`` as a lazy range, so that its ends can be checked
    against a bound before anything of its size is built."""
    lo, dots, hi = text.partition("..")
    values = range(int(lo), int(hi if dots else lo) + 1)
    if not values or values[0] < 1:
        raise ValueError(f"bad range {text!r}")
    return values


def _write_json_list(texts) -> None:
    """Write the JSON texts as one list, each as it comes: the same bytes
    as dumping the list, without holding it."""
    write = sys.stdout.write
    write("[")
    for i, text in enumerate(texts):
        write(", " + text if i else text)
    write("]\n")


# -- subcommands ---------------------------------------------------------------


def cmd_decompose(args) -> int:
    bound = _bound(summation.DEFAULT_MAX_DECOMPOSE, args.max_n)
    templates = summation.decompose_W(args.n, max_n=bound)
    if args.format == "json":
        _write_json_list(map(summation.to_json, templates))
    elif args.format == "latex":
        for t in templates:
            print(f"FS_{{{t.perm}}}: {summation.render(t, 'latex')}")
    else:
        for t in templates:
            os_type = summation.is_OS(t)
            os_text = f"OS({os_type[0]},{os_type[1]})" if os_type else "-"
            print(
                f"{t.perm}  dP={t.dP} dD={t.dD} degree={t.degree} {os_text}  "
                f"{summation.render(t, 'plain')}"
            )
    return EXIT_OK


def cmd_apply(args) -> int:
    bound = _bound(summation.DEFAULT_MAX_DECOMPOSE, args.max_n)
    F = pring.parse_p(args.polynomial)
    if args.perm is not None:
        beta = Permutation.parse(args.perm)
        if beta.n != args.n:
            raise ParseError(f"--perm has rank {beta.n}, expected {args.n}")
        admit(args.n, bound, "apply")
        template = summation.summation_of(beta)
        result = Fraction(1, args.n) * pring.apply_template(template, F)
    else:
        result = pring.apply_W(args.n, F, max_n=bound)
    if args.format == "json":
        print(json.dumps({"n": args.n, "perm": args.perm, "result": pring.print_p(result)}))
    else:
        print(pring.print_p(result))
    return EXIT_OK


def cmd_seq(args) -> int:
    action = args.action
    if action != "enumerate" and args.r_value is not None:
        raise ParseError(f"seq {action} takes one value, got a second: {args.r_value!r}")
    if action == "decode":
        result = noncross.decode(noncross.parse_seq(args.value))
        print(json.dumps({"perm": str(result)}) if args.format == "json" else result)
    elif action == "encode":
        seq = noncross.encode(Permutation.parse(args.value))
        print(seq.to_json() if args.format == "json" else noncross.print_seq(seq))
    elif action == "dual":
        seq = noncross.dual(noncross.parse_seq(args.value))
        print(seq.to_json() if args.format == "json" else noncross.print_seq(seq))
    elif action == "classify":
        seq = noncross.parse_seq(args.value)
        c = noncross.classify_pairs(seq)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "top_level": sorted(c.top_level),
                        "embedded": sorted(c.embedded),
                        "bottom_level": sorted(c.bottom_level),
                        "adjacent": sorted(list(pair) for pair in c.adjacent),
                    }
                )
            )
        else:
            print(noncross.print_seq(seq, labels=True))
            print(f"top-level: {sorted(c.top_level)}")
            print(f"embedded: {sorted(c.embedded)}")
            print(f"bottom-level: {sorted(c.bottom_level)}")
            print(f"adjacent: {sorted(tuple(pair) for pair in c.adjacent)}")
    else:  # enumerate, the last of argparse's choices
        if args.r_value is None:
            raise ParseError("seq enumerate needs N and R")
        bound = _bound(noncross.DEFAULT_MAX_ENUMERATE, args.max_n)
        n, r = int(args.value), int(args.r_value)
        if args.format == "json":
            # admits n before the list is begun
            _write_json_list(noncross.enumerate_json(n, r, max_n=bound))
        else:
            for s in noncross.enumerate_sequences(n, r, max_n=bound):
                print(noncross.print_seq(s))
    return EXIT_OK


def cmd_count(args) -> int:
    bound = _bound(summation.DEFAULT_MAX_DECOMPOSE, args.max_n)
    admit(args.n, bound, "count")
    report = counting.verify_counts(args.n, max_n=bound)
    print(report.as_json() if args.format == "json" else report.as_text())
    return EXIT_OK


def cmd_lift(args) -> int:
    alpha = Permutation.parse(args.perm)
    beta = lift(alpha, args.j)
    print(json.dumps({"perm": str(beta)}) if args.format == "json" else beta)
    return EXIT_OK


def cmd_project(args) -> int:
    alpha, j = project(Permutation.parse(args.perm))
    if args.format == "json":
        print(json.dumps({"perm": str(alpha), "j": j}))
    else:
        print(f"{alpha} j={j}")
    return EXIT_OK


def cmd_verify(args) -> int:
    ns = _parse_range(args.range)
    bound = _bound(verify.SUITES[args.suite].bound, args.max_n)
    if ns[-1] > bound:
        raise BoundExceededError(
            f"verify {args.suite} bound is {bound}, requested up to {ns[-1]}"
        )
    if args.max_weight < 1:
        raise ParseError(f"--max-weight must be at least 1, got {args.max_weight}")
    results = verify.run(args.suite, ns, max_weight=args.max_weight)
    for line, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_VERIFY_FAILED


# -- argument plumbing ------------------------------------------------------------


def _add_format_flags(parser, latex=False):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--plain", dest="format", action="store_const", const="plain", default="plain"
    )
    group.add_argument("--json", dest="format", action="store_const", const="json")
    if latex:
        group.add_argument(
            "--latex", dest="format", action="store_const", const="latex"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woplab", description="Exact W-operator workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="list the n! summations of W([n])")
    p.add_argument("n", type=int)
    p.add_argument("--max-n", type=int, default=None)
    _add_format_flags(p, latex=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("apply", help="apply W([n]) (or one summation) to a polynomial")
    p.add_argument("n", type=int)
    p.add_argument("polynomial")
    p.add_argument("--perm", default=None, help="apply only (1/n) * the summation of this permutation")
    p.add_argument("--max-n", type=int, default=None)
    _add_format_flags(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("seq", help="bracket-sequence operations")
    p.add_argument(
        "action", choices=["decode", "encode", "dual", "classify", "enumerate"]
    )
    p.add_argument("value", help="sequence text, permutation text, or N")
    p.add_argument("r_value", nargs="?", default=None, help="R (enumerate only)")
    p.add_argument("--max-n", type=int, default=None)
    _add_format_flags(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("count", help="multi-route count verification table")
    p.add_argument("n", type=int)
    p.add_argument("--max-n", type=int, default=None)
    _add_format_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run an invariant suite; exit 1 on failure")
    p.add_argument("suite", choices=list(verify.SUITES))
    p.add_argument("range", help="like 1..8, or a single integer")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument(
        "--max-weight", type=int, default=verify.DEFAULT_MAX_WEIGHT, help="oracle suite input weight cap"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lift", help="lift a permutation to the next rank")
    p.add_argument("perm")
    p.add_argument("j", type=int)
    _add_format_flags(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("project", help="project a permutation to the previous rank")
    p.add_argument("perm")
    _add_format_flags(p)
    p.set_defaults(func=cmd_project)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing reads
    it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BoundExceededError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
