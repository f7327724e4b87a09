"""Command-line front end: compute, cross-check and export the tables.

Subcommands:

* table  - genus-by-degree table as CSV or JSON
* coeff  - one weighted count by type (k, l, profile)
* kp     - hierarchy residual report
* oracle - brute-force comparison for one degree (class-reduced scan to
           d = 9; ``--method naive`` scans all pairs to d = 5)
* closed - closed-formula comparison for genus 0 and 1
* recursion - coefficient-recursion cross-check of every key

The four verification commands (kp, oracle, closed, recursion) share one
report path: JSON records or text lines plus a summary line, exit 0 or 1.
All outputs are exact (rationals as num/den, big integers as decimal
strings) and byte-deterministic for fixed flags.  Exit codes: 0 pass,
1 check failure (a verification mismatch, or an invariant of the engine
or of the oracle's scan), 2 usage error, 3 I/O error or unreadable
input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .cache import load_or_compute
from .counts import genus_table, marked_count_genus0, marked_count_genus1
from .evolution import recursion_rhs
from .kp import KP_EQUATIONS, equation_by_id, kp_report
from .oracle import CLASSES_LIMIT, NAIVE_LIMIT, compare_with_series
from .series import profile_text

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
    p.add_argument("--eq", type=int, choices=[eq.id for eq in KP_EQUATIONS],
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

def cmd_table(args) -> int:
    if args.dmax < 1:
        raise UsageError("--dmax must be >= 1")
    gmax = (args.dmax - 1) // 2 if args.gmax is None else args.gmax
    if gmax < 0:
        raise UsageError("--gmax must be >= 0")
    series = load_or_compute(args.dmax, args.cache)
    table = genus_table(series)
    value = table.marked if args.marked else table.weighted
    cells = [(d, g, value(d, g))
             for d in range(1, args.dmax + 1) for g in range(gmax + 1)]

    def text(v, sep: str) -> str:  # a marked int, or a Fraction as num<sep>den
        return str(v) if args.marked else f"{v.numerator}{sep}{v.denominator}"

    if args.format == "csv":
        header = "d,g,G_marked" if args.marked else "d,g,G_num,G_den"
        out = "".join([f"{header}\n"] + [f"{d},{g},{text(v, ',')}\n"
                                          for d, g, v in cells])
    else:
        payload = {"dmax": args.dmax, "marked": bool(args.marked),
                   "entries": [{"d": d, "g": g, "value": text(v, "/")}
                               for d, g, v in cells]}
        out = json.dumps(payload, separators=(",", ":")) + "\n"
    _emit(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

_PROFILE_ITEM = re.compile(r"^(\d+)\^(\d+)$")


def parse_profile(text: str, weight: int) -> tuple[int, ...]:
    """Multiplicity vector from an ``i^m`` comma list, e.g. ``1^2,3^1``, of
    the given weight; another weight is refused before the vector is built."""
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
    total = sum(part * mult for part, mult in mults.items())
    if total != weight:
        raise UsageError(f"profile weight {total} != --d {weight}")
    top = max((part for part, mult in mults.items() if mult), default=0)
    return tuple(mults.get(i, 0) for i in range(1, top + 1))


def cmd_coeff(args) -> int:
    m = parse_profile(args.profile, args.d)
    if args.d < 1 or args.k < 1 or args.l < 1:
        raise UsageError("--d, --k, --l must all be >= 1")
    series = load_or_compute(args.d, args.cache)
    marked = series.marked_piece(args.d).get((args.k, args.l, m), 0)
    sys.stdout.write(f"N={Fraction(marked, args.d)}, marked={marked}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

def _report(args, records: list[dict], lines: list[str], summary: str,
            passed: bool) -> int:
    """The one output path of the verification commands: the records as
    JSON lines, or the text lines and the summary; exit 0 iff passed."""
    if args.format == "json":
        lines = [json.dumps(record, separators=(",", ":")) for record in records]
    else:
        lines = [*lines, summary]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _key_report(args, head: dict, title: str, diffs, labels: tuple[str, str],
                noun: str, agree: str) -> int:
    """Report per-key mismatches ``(key, a, b)`` as one JSON object (head,
    mismatches, pass) or as title, MISMATCH lines and a verdict."""
    a, b = labels
    mismatches = [{"k": k, "l": l, "profile": profile_text(m),
                   a: str(x), b: str(y)} for (k, l, m), x, y in diffs]
    lines = [title] + [f"MISMATCH k={r['k']} l={r['l']} profile={r['profile']}: "
                       f"{a}={r[a]} {b}={r[b]}" for r in mismatches]
    summary = f"{len(diffs)} {noun} disagree" if diffs else agree
    return _report(args, [{**head, "mismatches": mismatches, "pass": not diffs}],
                   lines, summary, not diffs)


def cmd_kp(args) -> int:
    if args.dmax < 0:
        raise UsageError("--dmax must be >= 0")
    equations = KP_EQUATIONS if args.eq is None else (equation_by_id(args.eq),)
    series = load_or_compute(max(args.dmax, 1), args.cache)
    report = kp_report(series, args.dmax, equations)
    records = [{"eq": row.eq, "n": row.n, "residual_terms": row.residual_terms,
                "pass": row.passed} for row in report.rows]
    lines = [f"eq={row.eq} n={row.n} residual_terms={row.residual_terms} "
             f"{'pass' if row.passed else 'FAIL'}" for row in report.rows]
    verdict = "all residuals vanish" if report.passed else "RESIDUALS REMAIN"
    summary = (f"{verdict} (equations {'all' if args.eq is None else args.eq}, "
               f"s-degrees 1..{args.dmax})")
    return _report(args, records, lines, summary, report.passed)


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
    head = {"d": args.d, "method": table.method, "types": len(table.counts),
            "total_pairs": str(table.total)}
    title = (f"oracle d={args.d} method={table.method}: "
             f"{len(table.counts)} types, {table.total} transitive pairs")
    return _key_report(args, head, title,
                       [(diff.key, diff.oracle, diff.engine) for diff in diffs],
                       ("oracle", "engine"), "types", "all types agree")


def cmd_closed(args) -> int:
    if args.dmax < 1:
        raise UsageError("--dmax must be >= 1")
    series = load_or_compute(args.dmax, args.cache)
    table = genus_table(series)
    records = []
    lines = []
    for d in range(1, args.dmax + 1):
        got0, want0 = table.marked(d, 0), marked_count_genus0(d)
        got1, want1 = table.marked(d, 1), marked_count_genus1(d)
        ok = got0 == want0 and got1 == want1
        records.append({"d": d, "g0_engine": str(got0), "g0_closed": str(want0),
                        "g1_engine": str(got1), "g1_closed": str(want1),
                        "pass": ok})
        lines.append(f"d={d} g0={got0}/{want0} g1={got1}/{want1} "
                     f"{'pass' if ok else 'FAIL'}")
    failures = [record["d"] for record in records if not record["pass"]]
    summary = ("closed formulas agree" if not failures
               else f"closed formulas disagree at d={failures}")
    return _report(args, records, lines, summary, not failures)


def cmd_recursion(args) -> int:
    if args.dmax < 1:
        raise UsageError("--dmax must be >= 1")
    series = load_or_compute(args.dmax, args.cache)
    keys = [key for d in range(1, args.dmax + 1) for key in series.marked_piece(d)]
    bad = []
    for key in keys:
        got = recursion_rhs(series, *key)
        want = series.coefficient(*key)
        if got != want:
            bad.append((key, want, got))
    return _key_report(args, {"dmax": args.dmax, "keys_checked": len(keys)},
                       f"recursion cross-check dmax={args.dmax}: {len(keys)} keys",
                       bad, ("table", "recursion"), "keys", "both paths agree")


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
        # the engine's own invariant checks (integrality and the keys of
        # each computed degree) and the oracle scan's (its keys and its
        # pair total); cache input arrives as ValueError, see
        # cache.load_cache
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
