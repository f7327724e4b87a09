"""Command-line front end: compute, cross-check and export the tables.

Subcommands:

* table  - genus-by-degree table as CSV or JSON
* coeff  - one weighted count by type (k, l, profile)
* kp     - hierarchy residual report
* oracle - brute-force comparison for one degree (class-reduced scan to
           d = 9; ``--method naive`` scans all pairs to d = 5)
* closed - closed-formula comparison for genus 0 and 1

All outputs are exact (rationals as num/den, big integers as decimal
strings) and byte-deterministic for fixed flags.  Exit codes: 0 pass,
1 check failure (a verification mismatch or an engine invariant), 2
usage error, 3 I/O error or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .cache import load_or_compute
from .counts import GenusTable, genus_table, marked_count_genus0, marked_count_genus1
from .evolution import recursion_rhs
from .kp import KP_EQUATIONS, equation_by_id, kp_report
from .oracle import CLASSES_LIMIT, NAIVE_LIMIT, compare_with_series
from .series import partition_weight, profile_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    """Bad command-line input (maps to exit code 2)."""


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache", default=os.environ.get("DESSIN_CACHE"),
                     metavar="PATH",
                     help="series cache file (default: $DESSIN_CACHE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dessins",
        description="Exact counts of bicolored maps (dessins / hypermaps) "
                    "by degree, genus and ramification type.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("table", help="genus-by-degree count table")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--gmax", type=int, default=None,
                   help="top genus column (default: (dmax-1)//2)")
    p.add_argument("--marked", action="store_true",
                   help="integer marked counts instead of weighted rationals")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("coeff", help="weighted count of one type")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--profile", required=True,
                   help="profile at infinity as i^m pairs, e.g. 1^2,3^1")
    _add_common(p)
    p.set_defaults(func=cmd_coeff)

    p = subs.add_parser("kp", help="hierarchy residual report")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--eq", type=int, choices=(1, 2, 3, 4), default=None,
                   help="check a single equation (default: all four)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p)
    p.set_defaults(func=cmd_kp)

    p = subs.add_parser("oracle", help="brute-force comparison for one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("classes", "naive"), default="classes")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--threads", type=int, default=0, metavar="N",
                   help="worker threads for the brute-force scan, 0 = auto "
                        "(affects speed only; outputs are identical)")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("closed", help="closed-formula comparison (genus 0, 1)")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p)
    p.set_defaults(func=cmd_closed)

    p = subs.add_parser("recursion", help="coefficient-recursion cross-check")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p)
    p.set_defaults(func=cmd_recursion)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_rows(table: GenusTable, dmax: int, gmax: int, marked: bool):
    for d in range(1, dmax + 1):
        for g in range(gmax + 1):
            if marked:
                yield d, g, str(table.marked(d, g))
            else:
                value = table.weighted(d, g)
                yield d, g, f"{value.numerator}/{value.denominator}"


def cmd_table(args) -> int:
    if args.dmax < 1:
        raise UsageError("--dmax must be >= 1")
    gmax = (args.dmax - 1) // 2 if args.gmax is None else args.gmax
    if gmax < 0:
        raise UsageError("--gmax must be >= 0")
    series = load_or_compute(args.dmax, args.cache)
    table = genus_table(series)
    rows = list(_table_rows(table, args.dmax, gmax, args.marked))
    if args.format == "csv":
        if args.marked:
            lines = ["d,g,G_marked"] + [f"{d},{g},{v}" for d, g, v in rows]
        else:
            lines = ["d,g,G_num,G_den"] + [
                f"{d},{g},{v.replace('/', ',')}" for d, g, v in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"dmax": args.dmax, "marked": bool(args.marked),
                   "entries": [{"d": d, "g": g, "value": v}
                               for d, g, v in rows]}
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

_PROFILE_ITEM = re.compile(r"^(\d+)\^(\d+)$")


def parse_profile(text: str) -> tuple[int, ...]:
    """Multiplicity vector from an ``i^m`` comma list, e.g. ``1^2,3^1``."""
    mults: dict[int, int] = {}
    for item in text.split(","):
        match = _PROFILE_ITEM.match(item.strip())
        if not match:
            raise UsageError(f"malformed profile item {item!r} (want i^m)")
        part, mult = int(match.group(1)), int(match.group(2))
        if part < 1:
            raise UsageError(f"profile part must be >= 1, got {part}")
        if part in mults:
            raise UsageError(f"profile lists part {part} twice")
        mults[part] = mult
    if not mults:
        raise UsageError("empty profile")
    m = [0] * max(mults)
    for part, mult in mults.items():
        m[part - 1] = mult
    while m and m[-1] == 0:
        m.pop()
    return tuple(m)


def cmd_coeff(args) -> int:
    m = parse_profile(args.profile)
    if partition_weight(m) != args.d:
        raise UsageError(f"profile weight {partition_weight(m)} != --d {args.d}")
    if args.d < 1 or args.k < 1 or args.l < 1:
        raise UsageError("--d, --k, --l must all be >= 1")
    series = load_or_compute(args.d, args.cache)
    marked = series.marked_piece(args.d).get((args.k, args.l, m), 0)
    sys.stdout.write(f"N={Fraction(marked, args.d)}, marked={marked}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

def cmd_kp(args) -> int:
    if args.dmax < 0:
        raise UsageError("--dmax must be >= 0")
    equations = KP_EQUATIONS if args.eq is None else (equation_by_id(args.eq),)
    series = load_or_compute(max(args.dmax, 1), args.cache)
    report = kp_report(series, args.dmax, equations)
    lines = []
    for row in report.rows:
        if args.format == "json":
            lines.append(json.dumps(
                {"eq": row.eq, "n": row.n,
                 "residual_terms": row.residual_terms, "pass": row.passed},
                separators=(",", ":")))
        else:
            verdict = "pass" if row.passed else "FAIL"
            lines.append(f"eq={row.eq} n={row.n} "
                         f"residual_terms={row.residual_terms} {verdict}")
    if args.format == "text":
        verdict = "all residuals vanish" if report.passed else "RESIDUALS REMAIN"
        lines.append(f"{verdict} (equations {'all' if args.eq is None else args.eq}, "
                     f"s-degrees 1..{args.dmax})")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    if args.d < 1:
        raise UsageError("--d must be >= 1")
    limit = NAIVE_LIMIT if args.method == "naive" else CLASSES_LIMIT
    if args.d > limit:
        which = "" if limit == CLASSES_LIMIT else f" with --method {args.method}"
        raise UsageError(f"brute force supports d <= {limit}{which}")
    if args.threads < 0:
        raise UsageError("--threads must be >= 0")
    series = load_or_compute(args.d, args.cache)
    table, diffs = compare_with_series(series, args.d, args.method,
                                       args.threads)
    if args.format == "json":
        payload = {
            "d": args.d, "method": table.method,
            "types": len(table.counts), "total_pairs": str(table.total),
            "mismatches": [
                {"k": diff.key[0], "l": diff.key[1],
                 "profile": profile_text(diff.key[2]),
                 "oracle": str(diff.oracle), "engine": str(diff.engine)}
                for diff in diffs],
            "pass": not diffs,
        }
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        lines = [f"oracle d={args.d} method={table.method}: "
                 f"{len(table.counts)} types, {table.total} transitive pairs"]
        for diff in diffs:
            lines.append(f"MISMATCH k={diff.key[0]} l={diff.key[1]} "
                         f"profile={profile_text(diff.key[2])}: "
                         f"oracle={diff.oracle} engine={diff.engine}")
        lines.append("all types agree" if not diffs
                     else f"{len(diffs)} types disagree")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if not diffs else EXIT_CHECK_FAILED


def cmd_closed(args) -> int:
    if args.dmax < 1:
        raise UsageError("--dmax must be >= 1")
    series = load_or_compute(args.dmax, args.cache)
    table = genus_table(series)
    failures = []
    lines = []
    for d in range(1, args.dmax + 1):
        got0, want0 = table.marked(d, 0), marked_count_genus0(d)
        got1, want1 = table.marked(d, 1), marked_count_genus1(d)
        ok = got0 == want0 and got1 == want1
        if not ok:
            failures.append(d)
        if args.format == "json":
            lines.append(json.dumps(
                {"d": d, "g0_engine": str(got0), "g0_closed": str(want0),
                 "g1_engine": str(got1), "g1_closed": str(want1),
                 "pass": ok}, separators=(",", ":")))
        else:
            lines.append(f"d={d} g0={got0}/{want0} g1={got1}/{want1} "
                         f"{'pass' if ok else 'FAIL'}")
    if args.format == "text":
        lines.append("closed formulas agree" if not failures
                     else f"closed formulas disagree at d={failures}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_recursion(args) -> int:
    if args.dmax < 1:
        raise UsageError("--dmax must be >= 1")
    series = load_or_compute(args.dmax, args.cache)
    bad = []
    checked = 0
    for d in range(1, args.dmax + 1):
        for key in series.marked_piece(d):
            checked += 1
            got = recursion_rhs(series, *key)
            want = series.coefficient(*key)
            if got != want:
                bad.append((key, want, got))
    if args.format == "json":
        payload = {"dmax": args.dmax, "keys_checked": checked,
                   "mismatches": [
                       {"k": key[0], "l": key[1],
                        "profile": profile_text(key[2]),
                        "table": str(want), "recursion": str(got)}
                       for key, want, got in bad],
                   "pass": not bad}
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        lines = [f"recursion cross-check dmax={args.dmax}: {checked} keys"]
        for key, want, got in bad:
            lines.append(f"MISMATCH k={key[0]} l={key[1]} "
                         f"profile={profile_text(key[2])}: "
                         f"table={want} recursion={got}")
        lines.append("both paths agree" if not bad
                     else f"{len(bad)} keys disagree")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if not bad else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # corrupted cache files and similar bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        # the engine's own invariant checks: integrality and the keys of
        # each computed degree (cache input arrives as ValueError, see
        # cache.load_cache)
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
