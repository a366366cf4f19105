"""Command-line front end.

Exit codes: 0 success, 1 domain error (invalid parameters, degenerate
constructions), an output file that cannot be written or a graph too large
for the memory at hand, 2 usage error.
Machine-readable output goes to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .graphs import decode_graph6, encode_graph6, to_dot
from .families import GpParams, gp
from .classify import Case, QuotientDesc, classify, involution_family
from .perms import desargues_half_turn, from_triple
from .covers import kronecker_cover, quotient
from .census import _keys, census, rows_to_csv, rows_to_json, verify


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit-code contract testable
        raise _UsageError(message)


def _at_least(low: int):
    """argparse type: an integer >= low; anything else is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _write_text(path: str, text: str, mode: str = "w") -> None:
    """Write an output file (mode "a" with no text only checks the path); a
    path that cannot be written is an error naming it and the system's reason."""
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify GP(n,k)")
    p_classify.add_argument("--n", type=int, required=True)
    p_classify.add_argument("--k", type=int, required=True)
    p_classify.add_argument("--json", action="store_true")
    p_classify.add_argument("--ascii", action="store_true")

    p_quotient = sub.add_parser("quotient", help="quotient graph as graph6")
    p_quotient.add_argument("--n", type=int, required=True)
    p_quotient.add_argument("--k", type=int, required=True)
    involution = p_quotient.add_mutually_exclusive_group()
    involution.add_argument("--a", type=int, default=None,
                            help="shift of the family member (default: canonical)")
    involution.add_argument("--delta", action="store_true",
                            help="use the hexagonal-drawing involution of GP(10,3)")
    p_quotient.add_argument("--dot", metavar="FILE", default=None)

    p_kc = sub.add_parser("kc", help="Kronecker cover as graph6")
    group = p_kc.add_mutually_exclusive_group(required=True)
    group.add_argument("--gp", metavar="N,K")
    group.add_argument("--g6", metavar="STR")

    p_census = sub.add_parser("census", help="sweep (n,k) and emit CSV/JSON")
    p_census.add_argument("--max-n", type=_at_least(3), required=True)
    p_census.add_argument("--min-n", type=int, default=3)
    p_census.add_argument("--oracle", action="store_true")
    p_census.add_argument("--all-rows", action="store_true",
                          help="include non-bipartite rows")
    p_census.add_argument("--jobs", type=_at_least(1), default=1)
    p_census.add_argument("--out", metavar="FILE.csv|.json", default=None)

    p_verify = sub.add_parser("verify", help="cross-check classifier vs oracle")
    p_verify.add_argument("--max-n", type=_at_least(3), required=True)
    p_verify.add_argument("--jobs", type=_at_least(1), default=1)

    p_export = sub.add_parser("export", help="emit a family graph")
    p_export.add_argument("--family", choices=("gp", "cplus", "cminus", "h"),
                          required=True)
    p_export.add_argument("--n", type=int, default=None)
    p_export.add_argument("--k", type=int, default=None)
    p_export.add_argument("--dot", metavar="FILE", default=None)
    return parser


def _cmd_classify(args) -> int:
    c = classify(GpParams(args.n, args.k))
    labels = [q.label() for q in c.quotients]
    words = c.involution_words(args.ascii)
    if args.json:
        print(json.dumps({"n": c.n, "k": c.k, "case": c.case.value,
                          "quotients": labels, "involutions": words}))
    elif not c.covered:
        print(f"{c.case.value}: not a Kronecker cover")
    elif len(labels) > 1:
        print(f"{c.case.value}: quotients {', '.join(labels)}; "
              f"involutions {', '.join(words)}")
    else:
        print(f"{c.case.value}: quotient {labels[0]}, involution {', '.join(words)}")
    return 0


def _cmd_quotient(args) -> int:
    p = GpParams(args.n, args.k)
    c = classify(p)  # closed form: every refusal comes before GP(n,k) is built
    if args.delta:
        if (args.n, args.k) != (10, 3):
            raise ValueError("--delta applies only to GP(10,3)")
        perm = desargues_half_turn()
    elif not c.covered:
        raise ValueError(f"GP({args.n},{args.k}) is not a Kronecker cover "
                         f"({c.case.value}): no covering involution, no quotient")
    else:
        word = c.canonical_involution
        if args.a is not None:  # only B1/B2 admit more than one shift
            family = involution_family(p) if c.case in (Case.B1, Case.B2) else [word]
            word = next((t for t in family if t.a == args.a), None)
            if word is None:
                raise ValueError(f"shift {args.a} not in the involution family "
                                 f"{[t.a for t in family]}")
        perm = from_triple(args.n, args.k, word)
    q = quotient(gp(p), perm)
    if args.dot:
        _write_text(args.dot, to_dot(q))
    print(encode_graph6(q))
    return 0


def _cmd_kc(args) -> int:
    if args.gp:
        try:
            n, k = (int(part) for part in args.gp.split(","))
        except ValueError:
            raise ValueError(
                f"bad --gp value {args.gp!r}: expected N,K, two integers"
            ) from None
        base = gp(GpParams(n, k))
    else:
        base = decode_graph6(args.g6)
    print(encode_graph6(kronecker_cover(base)))
    return 0


def _cmd_census(args) -> int:
    if args.out and not args.out.endswith((".csv", ".json")):
        raise ValueError(f"--out must end in .csv or .json, got {args.out!r}")
    if args.out:  # fail before the sweep; a file made by the check goes again
        made = not os.path.exists(args.out)
        _write_text(args.out, "", "a")
        if made:
            os.remove(args.out)
    rows = census(args.min_n, args.max_n, with_oracle=args.oracle,
                  include_nonbipartite=args.all_rows, jobs=args.jobs)
    if args.out:
        text = rows_to_json(rows) if args.out.endswith(".json") else rows_to_csv(rows)
        _write_text(args.out, text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.max_n, jobs=args.jobs)
    failures = report.failures()
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  [{check.detail}]" if check.detail and not check.passed else ""
        print(f"{status} GP({check.n},{check.k}) {check.name}{detail}")
    print(f"{len(report.checks) - len(failures)}/{len(report.checks)} checks passed")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0 if report.all_passed else 1


def _cmd_export(args) -> int:
    if args.family == "h":
        if args.n is not None or args.k is not None:
            raise ValueError("--family h takes no --n or --k")
        desc = QuotientDesc("h")
    elif args.n is None or args.k is None:
        raise ValueError(f"--family {args.family} requires --n and --k")
    else:
        desc = QuotientDesc(args.family, args.n, args.k)
    g = desc.materialize()
    if args.dot:
        _write_text(args.dot, to_dot(g))
    print(encode_graph6(g))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "quotient": _cmd_quotient,
    "kc": _cmd_kc,
    "census": _cmd_census,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "census":
            if args.min_n > args.max_n:
                parser.error(f"--min-n {args.min_n} is greater than --max-n {args.max_n}")
            if not args.all_rows and next(_keys(args.min_n, args.max_n, False), None) is None:
                parser.error(
                    f"--min-n {args.min_n} --max-n {args.max_n} holds no even "
                    f"n >= 4, so no bipartite row; --all-rows adds the "
                    f"non-bipartite rows"
                )
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        size = f" --n {args.n}" if getattr(args, "n", None) is not None else ""
        print(f"error: {args.command}{size}: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
