"""Command-line front end.

Subcommands: count, enumerate, classify, table, verify.  All numeric
output is plain decimal with no separators, JSON is compact with sorted
keys, and CSV is LF-separated and unquoted, so identical invocations
produce identical bytes.

Exit codes: 0 success, 1 a verification check failed, 2 invalid
arguments, 3 method/parameter mismatch, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .classifier import census_identity_check, class_counts
from .enumerator import count_lambda, count_split, iter_lambda
from .errors import LambdaKitError
from .formulas import (
    lambda2_good,
    lambda2_plus,
    lambda3_explicit,
    lambda_plus_from_total,
)
from .matrix import serialize_matrix
from .profile_dp import dp_count, dp_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_METHOD_MISMATCH = 3
EXIT_CAP_EXCEEDED = 4


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdakit",
        description=(
            "Exact counting, enumeration and classification of square 0-1 "
            "matrices with k ones in every row and column."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one exact count")
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--k", type=int, required=True)
    count.add_argument(
        "--method", choices=("enum", "dp", "formula"), default="dp",
        help="enum sweeps every matrix; dp uses the deficit-profile "
        "dynamic program; formula uses the closed routes (k = 2 or 3 only)",
    )
    count.add_argument(
        "--split", action="store_true",
        help="report the counts with bottom-right entry 1 (plus) and 0 (minus); "
        "enum measures the split, the other methods derive it from the "
        "exact n*plus == k*total relation",
    )
    count.add_argument("--format", choices=("plain", "json"), default="plain")
    count.add_argument("--output", help="write to this path instead of stdout")

    enum = sub.add_parser("enumerate", help="stream every matrix as JSONL")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--k", type=int, required=True)
    enum.add_argument(
        "--max-matrices", type=int, default=10_000_000,
        help="refuse (exit 4) when the exact output size would exceed this",
    )
    enum.add_argument("--output", help="write to this path instead of stdout")

    classify = sub.add_parser(
        "classify", help="census of the corner-one k=3 classes at size n"
    )
    classify.add_argument("--n", type=int, required=True)
    classify.add_argument(
        "--theorem4", action="store_true",
        help="also evaluate the census identity against the size n-1 count",
    )
    classify.add_argument("--format", choices=("json", "csv"), default="json")
    classify.add_argument("--output", help="write to this path instead of stdout")

    table = sub.add_parser("table", help="counts for fixed k, n = k..n-max")
    table.add_argument("--k", type=int, required=True)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--output", help="write to this path instead of stdout")

    ver = sub.add_parser("verify", help="run an exact cross-validation suite")
    ver.add_argument("--suite", choices=verify_mod.SUITE_NAMES, required=True)
    ver.add_argument(
        "--n-max", type=int, default=None,
        help="size bound (each suite clamps its search-based parts to desk scale)",
    )
    ver.add_argument("--output", help="write to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)

    out = sys.stdout
    opened = False
    if getattr(args, "output", None):
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"cannot open output file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        opened = True
    try:
        handler = _COMMANDS[args.command]
        return handler(args, out)
    except LambdaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the stream consumer went away (e.g. `enumerate | head`);
        # silence the interpreter's shutdown flush and exit like a
        # SIGPIPE-terminated process
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13
    finally:
        if opened:
            out.close()


def _total_by_method(method: str, n: int, k: int) -> int:
    if method == "enum":
        return count_lambda(n, k)
    if method == "dp":
        return dp_count(n, k)
    if k == 2:
        return lambda2_good(n)
    return lambda3_explicit(n)


def _cmd_count(args, out) -> int:
    n, k = args.n, args.k
    if n < 1 or k < 0:
        print("error: need n >= 1 and k >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.method == "formula" and k not in (2, 3):
        print(
            f"error: no closed formula for k={k}; the formula method "
            "supports k=2 and k=3 only",
            file=sys.stderr,
        )
        return EXIT_METHOD_MISMATCH

    if args.split:
        if args.method == "enum":
            split = count_split(n, k)
            plus, minus = split.plus, split.minus
            total = split.total
        else:
            total = _total_by_method(args.method, n, k)
            if k == 0:
                plus, minus = 0, total
            elif total == 0:
                plus = minus = 0
            elif args.method == "formula" and k == 2 and n >= 3:
                plus = lambda2_plus(n)
                minus = total - plus
            else:
                plus = lambda_plus_from_total(n, k, total)
                minus = total - plus
        if args.format == "json":
            print(_jdump({"n": n, "k": k, "method": args.method,
                          "lambda": total, "plus": plus, "minus": minus}), file=out)
        else:
            print(f"plus={plus} minus={minus}", file=out)
        return EXIT_OK

    total = _total_by_method(args.method, n, k)
    if args.format == "json":
        print(_jdump({"n": n, "k": k, "method": args.method, "lambda": total}), file=out)
    else:
        print(total, file=out)
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    n, k = args.n, args.k
    if n < 1 or k < 0:
        print("error: need n >= 1 and k >= 0", file=sys.stderr)
        return EXIT_USAGE
    expected = dp_count(n, k)
    if expected > args.max_matrices:
        print(
            f"error: {expected} matrices exceed the cap of {args.max_matrices} "
            "(raise --max-matrices to stream anyway)",
            file=sys.stderr,
        )
        return EXIT_CAP_EXCEEDED
    emitted = 0
    for matrix in iter_lambda(n, k):
        out.write(serialize_matrix(matrix, "jsonl-record") + "\n")
        out.flush()
        emitted += 1
    out.write(_jdump({"count": emitted, "k": k, "n": n}) + "\n")
    out.flush()
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    n = args.n
    if n < 3:
        print("error: the census needs n >= 3", file=sys.stderr)
        return EXIT_USAGE
    if args.theorem4 and n < 4:
        print("error: the census identity needs n >= 4", file=sys.stderr)
        return EXIT_USAGE
    counts = class_counts(n)
    census = {"n": n, **counts.as_dict(), "lambda_plus": counts.total()}
    if args.format == "csv":
        fields = ["n", "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
                  "lambda_plus"]
        print(",".join(fields), file=out)
        print(",".join(str(census[f]) for f in fields), file=out)
    else:
        print(_jdump(census), file=out)
    if args.theorem4:
        report = census_identity_check(n, counts)
        if args.format == "csv":
            print("lhs,rhs,holds", file=out)
            print(f"{report.lhs},{report.rhs},{str(report.holds).lower()}", file=out)
        else:
            print(_jdump({"n": n, "lhs": report.lhs, "rhs": report.rhs,
                          "holds": report.holds}), file=out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    k, n_max = args.k, args.n_max
    if k < 0 or n_max < k:
        print("error: need k >= 0 and n-max >= k", file=sys.stderr)
        return EXIT_USAGE
    rows = dp_table(k, n_max)
    if args.format == "json":
        print(_jdump([{"n": n, "k": k, "lambda": value} for n, value in rows]),
              file=out)
    else:
        print("n,k,lambda", file=out)
        for n, value in rows:
            print(f"{n},{k},{value}", file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    checks = verify_mod.run_suite(args.suite, args.n_max)
    failed = 0
    for check in checks:
        if check.ok:
            print(f"ok   {check.name}", file=out)
        else:
            failed += 1
            detail = f" [{check.detail}]" if check.detail else ""
            print(f"FAIL {check.name}{detail}", file=out)
    print(f"{len(checks) - failed}/{len(checks)} checks passed", file=out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    sys.exit(main())
