"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria:
 1. the reference table (d <= 14, g <= 4) is reproduced byte-exactly by
    the CLI within the time budget;
 2. closed genus-0/1 formulas match the engine for all d <= 20;
 3. brute-force agreement for every coefficient, d <= 7 fully
    enumerated, d = 8, 9 class-reduced, plus the total-pair identity;
 4. the four hierarchy residuals vanish identically up to s-degree 12,
    and random single-coefficient corruptions are detected;
 5. the operator-exponential partition function equals exp of the
    connected series at truncation 10, term by term;
 6. u <-> v symmetry, marked-count integrality and integer genus >= 0
    for every key up to degree 14;
 7. the coefficient-level recursion reproduces every coefficient for
    d <= 10 (both computation paths agree);
 8. outputs (CSV, JSON, cache) are byte-identical across thread counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from dessins.counts import genus_table, marked_count_genus0, marked_count_genus1
from dessins.kp import kp_report
from dessins.oracle import compare_with_series
from dessins.evolution import ConnectedSeries, partition_function, recursion_rhs
from dessins.series import GradedSeries, exp_series, genus_of, physical_keys

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "table1.csv"


def _cli(*argv, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "DESSIN_CACHE"}
    # the child runs this checkout's src/, like the in-process tests
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dessins", *argv],
        capture_output=True, text=True, cwd=REPO, env=env, check=False)


def _report(n: int, name: str, ok: bool, extra: str = "") -> None:
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}"
          f"{' - ' + extra if extra else ''}")
    assert ok, f"criterion {n} ({name}) failed: {extra}"


def test_criterion_1_reference_table():
    start = time.perf_counter()
    proc = _cli("table", "--dmax", "14", "--gmax", "4", "--marked",
                "--format", "csv")
    elapsed = time.perf_counter() - start
    golden = GOLDEN.read_text(encoding="ascii")
    ok = proc.returncode == 0 and proc.stdout == golden and elapsed < 60.0
    _report(1, "reference table d<=14 g<=4", ok,
            f"{elapsed:.1f}s for 70 entries")


def test_criterion_1_known_misprint_documented(engine14):
    # One widely circulated rendering of this table prints 108502598960
    # in the (d=14, g=2) cell.  That number is actually the (14, 5)
    # count: the engine reproduces it there, the g=2 column's growth
    # ratios (31.5, 19.7, ... 11.3, 10.85 declining smoothly toward ~8)
    # cannot accommodate it, and the complete d=14 row sums to the
    # rooted-hypermap total (= indecomposable permutations of 15
    # symbols, OEIS A003319) only with 206254571236 at g=2.
    table = genus_table(engine14)
    assert table.marked(14, 2) == 206254571236
    assert table.marked(14, 5) == 108502598960

    memo: dict[int, int] = {}

    def indecomposable(n: int) -> int:
        if n not in memo:
            memo[n] = factorial(n) - sum(
                indecomposable(j) * factorial(n - j) for j in range(1, n))
        return memo[n]

    for d in (13, 14):
        assert sum(table.row_marked(d)) == indecomposable(d + 1)
    _report(1, "misprint at (14,2) pinned to its source", True,
            "printed value is the (14,5) count")


def test_criterion_2_closed_formulas(engine20):
    table = genus_table(engine20)
    bad = [d for d in range(1, 21)
           if table.marked(d, 0) != marked_count_genus0(d)
           or table.marked(d, 1) != marked_count_genus1(d)]
    _report(2, "closed formulas d<=20", not bad, f"failing degrees: {bad}")


@pytest.mark.parametrize("d,method", [(1, "full"), (2, "full"), (3, "full"),
                                      (4, "full"), (5, "full"), (6, "full"),
                                      pytest.param(7, "full", marks=pytest.mark.slow),
                                      (8, "classes"),
                                      pytest.param(9, "classes", marks=pytest.mark.slow)])
def test_criterion_3_oracle_equivalence(engine14, d, method):
    table, diffs = compare_with_series(engine14, d, method)
    marked_total = sum(engine14.marked_piece(d).values())
    totals_ok = table.total == factorial(d - 1) * marked_total
    _report(3, f"brute force d={d} ({method})", not diffs and totals_ok,
            f"{len(table.counts)} types, {table.total} pairs")


def test_criterion_4_kp_residuals(engine14):
    report = kp_report(engine14, 12)
    zero = report.passed and all(r.residual_terms == 0 for r in report.rows)
    _report(4, "hierarchy residuals n<=12", zero,
            f"{len(report.rows)} residuals checked")


def test_criterion_4_mutation_sensitivity(engine10):
    import random
    rng = random.Random(99173)
    candidates = [(d, key) for d in range(3, 8)
                  for key in engine10.piece(d).terms if key[2][0] >= 2]
    caught = 0
    for d, key in rng.sample(candidates, 3):
        pieces = list(engine10.pieces)
        terms = dict(pieces[d - 1].terms)
        terms[key] = terms[key] + 1
        pieces[d - 1] = GradedSeries(terms, engine10.dmax)
        mutated = ConnectedSeries(pieces)
        report = kp_report(mutated, min(engine10.dmax, d + 2))
        if any(not row.passed for row in report.rows):
            caught += 1
    _report(4, "mutation sensitivity", caught == 3, f"{caught}/3 caught")


def test_criterion_5_partition_function(engine10):
    ok = partition_function(10) == exp_series(engine10.combined())
    _report(5, "partition function = exp(series) at 10", ok)


def test_criterion_6_structure(engine14):
    checked = 0
    for d in range(1, 15):
        piece = engine14.piece(d)
        for (k, l, m), c in piece.terms.items():
            checked += 1
            assert piece.terms[(l, k, m)] == c, f"symmetry broken at {(k, l, m)}"
            assert (d * c).denominator == 1, f"marked count at {(k, l, m)}"
            assert genus_of((k, l, m)) >= 0
    _report(6, "symmetry/integrality/genus d<=14", True, f"{checked} keys")


def test_criterion_7_path_equivalence(engine10):
    checked = 0
    for d in range(1, 11):
        for key in physical_keys(d):
            checked += 1
            got = recursion_rhs(engine10, *key)
            want = engine10.coefficient(*key)
            assert got == want, (f"paths disagree at k={key.k} l={key.l} "
                                 f"m={key.m}: recursion {got}, table {want}")
    _report(7, "coefficient recursion d<=10", True, f"{checked} keys")


def test_criterion_8_thread_determinism(tmp_path):
    artifacts = {}
    for threads in ("1", "4"):
        cache = tmp_path / f"cache{threads}"
        out = tmp_path / f"out{threads}.csv"
        proc = _cli("table", "--dmax", "8", "--gmax", "3", "--marked",
                    "--out", str(out), "--cache", str(cache),
                    "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        oracle = _cli("oracle", "--d", "5", "--format", "json",
                      "--threads", threads)
        kp = _cli("kp", "--dmax", "6", "--format", "json",
                  "--cache", str(cache), "--threads", threads)
        assert oracle.returncode == 0 and kp.returncode == 0
        artifacts[threads] = (out.read_bytes(), cache.read_bytes(),
                              oracle.stdout, kp.stdout)
    ok = artifacts["1"] == artifacts["4"]
    _report(8, "byte-identical outputs across --threads", ok)
    payload = json.loads(artifacts["1"][2])
    assert payload["pass"] is True


def test_reference_values_spot_checks(engine14):
    # the examples named by the release criteria
    table = genus_table(engine14)
    assert table.marked(5, 2) == 8
    assert table.marked(9, 4) == 8064
    assert table.marked(12, 2) == 1805010948
    assert table.marked(14, 4) == 344901105444
    assert engine14.coefficient(1, 1, (1,)) == 1
    assert engine14.coefficient(2, 1, (0, 1)) == Fraction(1, 2)
    assert engine14.coefficient(1, 1, (2,)) == Fraction(1, 2)
