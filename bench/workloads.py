"""The three workloads, their correctness checks and their traced layers.

Each workload is one closed-loop client in one process: an operation is
the list of calls ``steps()`` returns, run in order, and the next
operation starts only after the previous one returned.  ``check()`` turns
the steps' results into a list of problems (empty means correct) and
``counts()`` gives the exact work counts of the last checked operation.

The problem sizes are fixed by what each workload is meant to exercise
(see README.md); the seed only names the scratch files and orders the
keys of the recursion check, so every seed does the same work.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

TABLE_DMAX = 14
GOLDEN_SHA256 = "a8839e73c6acc15cb1d45fefa3e1efdbc145e5165238a103869e169ff48a0b77"

VERIFY_DMAX = 14      # series degree computed during set-up and checked by kp
ORACLE_D = 8          # brute-force degree (class-reduced scan)
ORACLE_THREADS = 2    # one worker per core of the reference machine
RECURSION_DMAX = 10   # recursion_rhs is checked on every key up to here

# Exact counts recorded at the seed commit.  They are properties of the
# mathematics (sizes of the series and of the checks), so a program
# change that moves one of them computes something else: that is reported
# as a failed operation, never as noise.
D = f"d{TABLE_DMAX}"  # suffix of the metrics of the top degree
SEED_COUNTS = {
    "evolution.terms": 10136,
    f"evolution.terms.{D}": 3723,
    f"evolution.coeff_bits.{D}": 34,
    f"evolution.pair_products.{D}": 185008,
    "kp.rows": 56,
    "kp.residual_terms": 0,
    "oracle.pairs": 1377648720,
    "oracle.types": 218,
    "evolution.recursion_keys": 1443,
}


def seed_drift(counts: dict[str, int]) -> list[str]:
    return [f"{name} = {value}, seed had {SEED_COUNTS[name]}"
            for name, value in counts.items() if value != SEED_COUNTS[name]]


def indecomposable(n: int) -> int:
    """OEIS A003319: indecomposable permutations of n symbols."""
    a = [0, 1]
    for m in range(2, n + 1):
        a.append(factorial(m) - sum(a[j] * factorial(m - j) for j in range(1, m)))
    return a[n]


def genus0(d: int) -> int:
    return 3 * 2 ** (d - 1) * factorial(2 * d) // (factorial(d) * factorial(d + 2))


def genus1(d: int) -> int:
    return sum(2 ** i * (4 ** (d - 2 - i) - 1) * comb(d + i, i)
               for i in range(d - 2)) // 3


def read_marked_csv(text: str) -> dict[tuple[int, int], int]:
    lines = text.splitlines()
    if not lines or lines[0] != "d,g,G_marked":
        raise ValueError("missing d,g,G_marked header")
    rows = {}
    for line in lines[1:]:
        d, g, value = (int(x) for x in line.split(","))
        if (d, g) in rows:
            raise ValueError(f"row d={d} g={g} repeated")
        rows[(d, g)] = value
    return rows


class TableWorkload:
    """``dessins table --dmax 14 --marked`` through ``cli.main``.

    Cold: the cache file is deleted before every operation, so each one
    runs the full degree recursion and writes the cache.  Warm: the cache
    is written once during set-up, in a child process so that its memory
    does not count towards this process's peak, and every operation
    loads it.
    """

    def __init__(self, pkg, work: Path, rng: random.Random, warm: bool):
        self.pkg = pkg
        self.warm = warm
        tag = rng.getrandbits(32)
        self.cache = work / f"cache-{tag:08x}.txt"
        self.out = work / f"table-{tag:08x}.csv"
        self.argv = ["table", "--dmax", str(TABLE_DMAX), "--marked",
                     "--cache", str(self.cache), "--out", str(self.out)]
        golden_path = pkg.root / "tests" / "data" / "table1.csv"
        golden_bytes = golden_path.read_bytes()
        if hashlib.sha256(golden_bytes).hexdigest() != GOLDEN_SHA256:
            raise RuntimeError(f"{golden_path} differs from the seed's golden table")
        self.golden = read_marked_csv(golden_bytes.decode("ascii"))
        self._counts: dict[str, int] = {}

    def setup(self) -> None:
        if self.warm:
            self.cache.unlink(missing_ok=True)  # left by an earlier set-up
            code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                    "from dessins.cli import main; sys.exit(main(sys.argv[2:]))")
            subprocess.run([sys.executable, "-c", code,
                            str(self.pkg.root / "src"), *self.argv],
                           check=True, timeout=120, stdout=sys.stderr)

    def prepare(self) -> None:
        """Untimed per-operation reset."""
        if not self.warm:
            self.cache.unlink(missing_ok=True)
        self.out.unlink(missing_ok=True)

    def steps(self):
        return [lambda: self.pkg.cli.main(self.argv)]

    def check(self, results) -> list[str]:
        rc, = results
        if rc != 0:
            return [f"cli.main returned {rc}"]
        try:
            rows = read_marked_csv(self.out.read_text(encoding="ascii"))
            self._counts = {"cli.output_bytes": self.out.stat().st_size,
                            "cache.bytes": self.cache.stat().st_size}
        except (OSError, ValueError) as exc:
            return [f"unreadable table or cache: {exc}"]
        problems = []
        gmax = (TABLE_DMAX - 1) // 2
        want_keys = {(d, g) for d in range(1, TABLE_DMAX + 1)
                     for g in range(gmax + 1)}
        if set(rows) != want_keys:
            problems.append(f"table has {len(rows)} rows, want {len(want_keys)}")
        for key, want in self.golden.items():
            if rows.get(key) != want:
                problems.append(f"d={key[0]} g={key[1]}: {rows.get(key)} != golden {want}")
        for d in range(1, TABLE_DMAX + 1):
            row = [rows.get((d, g), 0) for g in range(gmax + 1)]
            if sum(row) != indecomposable(d + 1):
                problems.append(f"d={d}: row sum != A003319({d + 1})")
            if row[0] != genus0(d) or row[1] != genus1(d):
                problems.append(f"d={d}: genus 0/1 column != closed form")
        return problems

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    # -- traced run ------------------------------------------------------------

    def trace_targets(self):
        cli, cache, series, evolution = (self.pkg.cli, self.pkg.cache,
                                         self.pkg.series, self.pkg.evolution)
        return [
            (cli, "main", "cli.main"),
            (cli, "genus_table", "counts.genus_table"),
            (cache, "load_cache", "cache.load"),
            (cache, "save_cache", "cache.save"),
            (series.GradedSeries, "parse", "series.parse"),
            (series.GradedSeries, "render", "series.render"),
            (evolution.ConnectedSeries, "compute", "evolution.compute"),
            (evolution, "next_piece", "evolution.next_piece"),
        ]

    def layer_names(self) -> list[str]:
        names = ["cli.main_s", "cli.main.self_s", "counts.genus_table_s"]
        if self.warm:
            return names + ["cache.load_s", "cache.load.self_s", "series.parse_s"]
        return names + ["evolution.compute_s", "cache.save_s",
                        "cache.save.self_s", "series.render_s"]

    def traced_extra(self, tracer) -> tuple[dict[str, float], dict[str, int], list[str]]:
        """Cold only: re-derive the top degree with ``next_piece`` from
        the pieces below it in the series the traced operation computed,
        and count the work of that degree against the seed's counts."""
        if self.warm:
            return {}, {}, []
        cs = tracer.results["evolution.compute"]
        pieces = cs.pieces
        tracer.op = f"next_piece.{D}"
        piece = self.pkg.evolution.next_piece(pieces[:TABLE_DMAX - 1])
        tracer.op = None
        span = [s for s in tracer.spans if s["op"] == f"next_piece.{D}"][-1]
        problems = []
        if dict(piece.terms) != dict(pieces[TABLE_DMAX - 1].terms):
            problems.append(f"next_piece(pieces[:{TABLE_DMAX - 1}]) != piece {TABLE_DMAX}")
        marked = cs.marked_piece(TABLE_DMAX)

        def diff_entries(p) -> int:  # (term, part size) pairs = derivative terms
            return sum(sum(1 for x in key[2] if x) for key in p.terms)

        n_last = TABLE_DMAX - 1
        entries = [None] + [diff_entries(p) for p in pieces[:n_last]]
        counts = {
            "evolution.terms": sum(len(p) for p in pieces),
            f"evolution.terms.{D}": len(pieces[TABLE_DMAX - 1]),
            f"evolution.coeff_bits.{D}": max(v.bit_length() for v in marked.values()),
            f"evolution.pair_products.{D}": sum(entries[n] * entries[n_last - n]
                                                for n in range(1, n_last)),
        }
        return ({f"evolution.next_piece_s.{D}": span["end"] - span["start"]},
                counts, problems + seed_drift(counts))


class VerifyWorkload:
    """KP residuals, the brute-force oracle and the coefficient recursion
    on a series computed once during set-up."""

    def __init__(self, pkg, work: Path, rng: random.Random):
        self.pkg = pkg
        self.rng = rng
        self._counts: dict[str, int] = {}

    def setup(self) -> None:
        self.series = self.pkg.evolution.ConnectedSeries.compute(VERIFY_DMAX)
        self.keys = [key for d in range(1, RECURSION_DMAX + 1)
                     for key in sorted(self.series.piece(d).terms)]
        self.rng.shuffle(self.keys)

    def prepare(self) -> None:
        pass

    def steps(self):
        kp, oracle, evolution = self.pkg.kp, self.pkg.oracle, self.pkg.evolution
        s = self.series
        return [
            lambda: kp.kp_report(s, VERIFY_DMAX),
            lambda: oracle.compare_with_series(s, ORACLE_D, "classes",
                                               threads=ORACLE_THREADS),
            lambda: sum(evolution.recursion_rhs(s, *key) != s.coefficient(*key)
                        for key in self.keys),
        ]

    def check(self, results) -> list[str]:
        report, (table, diffs), disagree = results
        self._counts = {
            "kp.rows": len(report.rows),
            "kp.residual_terms": sum(row.residual_terms for row in report.rows),
            "oracle.pairs": table.total,
            "oracle.types": len(table.counts),
            "evolution.recursion_keys": len(self.keys),
        }
        problems = []
        if not report.passed:
            problems.append("kp residuals do not vanish")
        if diffs:
            problems.append(f"oracle disagrees on {len(diffs)} types")
        if disagree:
            problems.append(f"recursion disagrees on {disagree} keys")
        return problems + seed_drift(self._counts)

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def trace_targets(self):
        return [(self.pkg.kp, "kp_report", "kp.report"),
                (self.pkg.oracle, "compare_with_series", "oracle.compare"),
                (self.pkg.evolution, "recursion_rhs", "evolution.recursion")]

    def layer_names(self) -> list[str]:
        return ["kp.report_s", "oracle.compare_s", "evolution.recursion_s"]

    def traced_extra(self, tracer):
        return {}, {}, []


WORKLOADS = ("table_cold", "table_warm", "verify")


def make(name: str, pkg, work: Path, seed: int):
    rng = random.Random(seed)
    if name == "verify":
        return VerifyWorkload(pkg, work, rng)
    if name in ("table_cold", "table_warm"):
        return TableWorkload(pkg, work, rng, name == "table_warm")
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
