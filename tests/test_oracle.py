from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
import os
import tracemalloc

import numpy as np
import pytest

from dessins import oracle
from dessins.evolution import ConnectedSeries
from dessins.oracle import (
    CLASSES_LIMIT,
    PairCounts,
    _auto_threads,
    _product_rows,
    _representative,
    _scan_sigma,
    _tau_tables,
    _transitive_rows,
    compare_with_series,
    cycle_count,
    cycle_type,
    is_transitive,
    transitive_pair_counts,
)
from dessins.series import GradedSeries, NonPhysicalKeyError, TruncationError


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2, 3)) == (4,)
    assert cycle_type((1, 0)) == (0, 1)
    assert cycle_type((1, 2, 0, 4, 3)) == (0, 1, 1)
    assert cycle_count((1, 2, 0, 4, 3)) == 2
    with pytest.raises(ValueError):
        cycle_type((0, 0))


def test_is_transitive_examples():
    assert is_transitive((0,), (0,))
    assert not is_transitive((0, 1), (0, 1))
    assert is_transitive((1, 0), (0, 1))
    with pytest.raises(ValueError):
        is_transitive((0, 1), (0,))


def test_degree_1_and_2():
    assert dict(transitive_pair_counts(1).counts) == {(1, 1, (1,)): 1}
    t2 = transitive_pair_counts(2)
    assert dict(sorted(t2.counts.items())) == {
        (1, 1, (2,)): 1, (1, 2, (0, 1)): 1, (2, 1, (0, 1)): 1}
    assert t2.weighted() == {key: Fraction(1, 2) for key in t2.counts}


def test_degree_3_reproduces_reference_row():
    t3 = transitive_pair_counts(3)
    by_genus = {0: 0, 1: 0}
    for (k, l, m), c in t3.counts.items():
        g = (3 - k - l - sum(m) + 2) // 2
        by_genus[g] += Fraction(3 * c, factorial(3))
    assert by_genus == {0: 12, 1: 1}


def test_methods_agree():
    for d in range(1, 6):
        naive = transitive_pair_counts(d, "naive").counts
        assert naive == transitive_pair_counts(d, "classes").counts


def test_threads_do_not_change_counts():
    a = transitive_pair_counts(6, "classes", threads=1)
    b = transitive_pair_counts(6, "classes", threads=3)
    assert a.counts == b.counts


@pytest.mark.parametrize("auto", [None, 3])
def test_worker_count_is_capped_at_auto(monkeypatch, auto):
    # a stub executor records max_workers and maps in the calling thread,
    # so no thread is started; auto=3 puts the cap below the p(5) = 7
    # sigmas of d=5 on any machine
    requested = []

    class SerialExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return list(map(fn, iterable))

    if auto is not None:
        monkeypatch.setattr(oracle, "_auto_threads", lambda: auto)
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", SerialExecutor)
    cap = oracle._auto_threads()
    want = transitive_pair_counts(5, "naive").counts
    asked = (0, 1, 2, 4, 7, 120, 100000)
    for threads in asked:
        assert transitive_pair_counts(5, "classes", threads=threads).counts == want
    assert requested == [min(t or cap, cap, 7) for t in asked]
    assert max(requested) <= cap


def test_negative_threads_are_refused(engine6):
    with pytest.raises(ValueError, match="threads"):
        transitive_pair_counts(4, threads=-3)
    with pytest.raises(ValueError, match="threads"):
        compare_with_series(engine6, 4, threads=-1)


def test_degree_past_the_series_fails_before_the_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force scan ran")

    monkeypatch.setattr(oracle, "transitive_pair_counts", refuse)
    with pytest.raises(TruncationError):
        compare_with_series(ConnectedSeries.compute(3), 8)


def test_auto_thread_count_fits_affinity():
    n = _auto_threads()
    assert 1 <= n <= 8
    if hasattr(os, "sched_getaffinity"):
        assert n <= len(os.sched_getaffinity(0))


def test_row_types_match_cycle_type():
    for d in range(1, 7):
        tables = _tau_tables(d)
        for r, row in enumerate(tables.T):
            assert tables.types[tables.tidx[r]] == cycle_type(row.tolist())
            assert tables.lcounts[r] == cycle_count(row.tolist())


def test_row_types_across_chunks():
    # d = 8 is built in ten row chunks: sample rows of every chunk
    tables = _tau_tables(8)
    assert tables.tidx.dtype == np.int16
    for r in range(0, len(tables.T), 37):
        row = tables.T[r].tolist()
        assert tables.types[tables.tidx[r]] == cycle_type(row)
        assert tables.lcounts[r] == cycle_count(row)


def test_row_codes_increase_and_refuse_overflow():
    for d in range(1, 7):
        codes = _tau_tables(d).rowcodes
        assert codes.dtype == np.int32
        assert (np.diff(codes) > 0).all() and codes[-1] < d ** d
    assert CLASSES_LIMIT ** CLASSES_LIMIT < 2 ** 31
    with pytest.raises(ValueError, match="overflow"):
        _tau_tables(10)  # refused before the 10! table is built


def test_table_rows_are_lexicographic():
    for d in range(1, 7):
        T = _tau_tables(d).T
        assert T.dtype == np.int8
        assert T.tolist() == [list(p) for p in permutations(range(d))]


def test_pair_counts_are_u_v_symmetric():
    # swapping sigma and tau exchanges k and l and conjugates sigma*tau;
    # checked on the scan itself, independently of the engine's mirror
    for d in range(1, 7):
        counts = transitive_pair_counts(d).counts
        assert counts == {(l, k, m): c for (k, l, m), c in counts.items()}


def test_table_build_and_scan_hold_no_whole_table_temporary():
    # at d = 9 one (d!, d) int32 temporary is 12.5 MiB: the build holds
    # at most a few MiB besides the tables it keeps, and a scan of one
    # sigma only vectors of d! entries
    _tau_tables.cache_clear()
    tracemalloc.start()
    try:
        tables = _tau_tables(9)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _scan_sigma(_representative((2, 2, 1)), 1, tables, {})
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in tables if isinstance(v, np.ndarray))
    assert build_peak <= kept + 4 * 2 ** 20, (build_peak, kept)
    assert scan_peak <= kept + 8 * 2 ** 20, (scan_peak, kept)


def test_tables_cache_keeps_one_degree():
    _tau_tables(6)
    _tau_tables(5)
    assert _tau_tables.cache_info().currsize == 1


def test_transitive_rows_match_is_transitive():
    # every pair at d <= 5; below d = 7 a row's set bits fill only part
    # of its one 64-bit word, the rest is padding
    for d in range(1, 6):
        tables = _tau_tables(d)
        perms = [tuple(p) for p in tables.T.tolist()]
        for sigma in perms:
            expected = [is_transitive(sigma, tau) for tau in perms]
            assert _transitive_rows(sigma, tables).tolist() == expected


def test_transitive_rows_non_contiguous_cycles():
    # sigmas whose cycles are not runs of consecutive points, unlike
    # the class representatives; 0's cycle is not {0} either
    tables = _tau_tables(6)
    perms = [tuple(p) for p in tables.T.tolist()]
    for sigma in [(5, 4, 1, 3, 2, 0), (3, 5, 4, 0, 2, 1), (2, 3, 0, 1, 5, 4)]:
        trans = _transitive_rows(sigma, tables)
        assert trans.tolist() == [is_transitive(sigma, tau) for tau in perms]
        assert 0 < trans.sum() < len(perms)


def test_transitive_rows_second_word():
    # at d = 8 a row holds 128 sets in two words; unions holding point 7
    # are read from the second
    tables = _tau_tables(8)
    perms = [tuple(p) for p in tables.T.tolist()]
    sigma = (3, 7, 6, 0, 4, 1, 2, 5)  # cycles (0 3)(1 7 5)(2 6)(4)
    assert tables.closed.shape[1] == 2
    trans = _transitive_rows(sigma, tables)
    assert trans.tolist() == [is_transitive(sigma, tau) for tau in perms]


def test_tables_hold_no_gather_indices():
    for d in range(1, 8):
        tables = _tau_tables(d)
        n = factorial(d)
        for name, value in tables._asdict().items():
            if isinstance(value, np.ndarray):
                assert not (value.shape == (n, d) and value.dtype == np.intp), name
        assert tables.closed.shape == (n, -(-2 ** (d - 1) // 64))


def test_product_rows_compose():
    tables = _tau_tables(5)
    perms = [tuple(p) for p in tables.T.tolist()]
    for sigma in [(0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (4, 2, 0, 1, 3), (2, 4, 1, 0, 3)]:
        rank = _product_rows(np.array(sigma, dtype=np.int8), tables)
        for r, tau in enumerate(perms):
            assert perms[rank[r]] == tuple(sigma[x] for x in tau)


def test_scan_is_conjugation_invariant():
    # a sigma whose cycles are not runs of consecutive points bins
    # exactly as its class representative: the class reduction is exact
    d = 6
    tables = _tau_tables(d)
    rep = _representative((1, 1, 1))  # cycles (0)(1 2)(3 4 5)
    pi = (3, 0, 5, 1, 4, 2)
    sigma = [0] * d
    for x in range(d):
        sigma[pi[x]] = pi[rep[x]]  # sigma = pi rep pi^-1
    assert sigma == [5, 4, 1, 3, 2, 0]  # cycles (0 5)(1 4 2)(3)
    assert cycle_type(sigma) == cycle_type(rep)
    a, b = {}, {}
    _scan_sigma(tuple(sigma), 1, tables, a)
    _scan_sigma(rep, 1, tables, b)
    assert a == b and a


def test_convention_independence():
    # binning the infinity profile by sigma*tau^{-1} instead of sigma*tau
    # yields the same table (tau -> tau^{-1} preserves everything else)
    for d in range(1, 6):
        counts: dict = {}
        perms = list(permutations(range(d)))
        for s in perms:
            k = cycle_count(s)
            for t in perms:
                if is_transitive(s, t):
                    tinv = [0] * d
                    for i, x in enumerate(t):
                        tinv[x] = i
                    st = tuple(s[x] for x in tinv)
                    key = (k, cycle_count(t), cycle_type(st))
                    counts[key] = counts.get(key, 0) + 1
        assert counts == transitive_pair_counts(d).counts


def test_budget_refusal():
    for retired in ("full", "auto"):
        with pytest.raises(ValueError, match="unknown method"):
            transitive_pair_counts(4, retired)
    with pytest.raises(ValueError, match="class-reduced"):
        transitive_pair_counts(10, "classes")
    with pytest.raises(ValueError, match="naive"):
        transitive_pair_counts(6, "naive")
    with pytest.raises(ValueError):
        transitive_pair_counts(4, "fancy")
    with pytest.raises(ValueError, match="d must be >= 1"):
        transitive_pair_counts(0)
    with pytest.raises(ValueError, match="empty permutation"):
        is_transitive((), ())


def test_occurring_types_have_integer_genus():
    with pytest.raises(NonPhysicalKeyError):
        PairCounts(2, {(1, 1, (0, 1)): 1})  # parity-violating type


def test_engine_agreement(engine6):
    for d in range(1, 7):
        table, diffs = compare_with_series(engine6, d)
        assert diffs == []
        # total transitive pairs = (d-1)! * sum of marked counts
        marked_total = sum(
            d * c for c in engine6.piece(d).terms.values())
        assert table.total == factorial(d - 1) * marked_total


def test_mutated_engine_is_caught(engine6):
    pieces = list(engine6.extended_to(4).pieces)
    terms = dict(pieces[3].terms)
    key = (1, 1, (4,))
    terms[key] = terms[key] + 1
    pieces[3] = GradedSeries(terms, 4)
    mutated = ConnectedSeries(pieces)
    _, diffs = compare_with_series(mutated, 4)
    assert [diff.key for diff in diffs] == [key]
    assert diffs[0].engine - diffs[0].oracle == 1
