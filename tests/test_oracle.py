from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
import os
from pathlib import Path
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dessins import oracle
from dessins.counts import indecomposable_count
from dessins.evolution import ConnectedSeries
from dessins.oracle import (
    CLASSES_LIMIT,
    PairCounts,
    _bin_classes,
    _binned,
    _class_walk,
    _hits,
    _tau_tables,
    _union_mask,
    compare_with_series,
    cycle_count,
    cycle_type,
    is_transitive,
    transitive_pair_counts,
)
from dessins.series import (
    GradedSeries,
    NonPhysicalKeyError,
    TruncationError,
    from_parts,
    partitions,
)


# ---------------------------------------------------------------------------
# the per-letter scan the class walk replaced, kept as a reference: sigma
# is written as a word by a bubble sort of its images and the row types
# are pushed through one gather per letter
# ---------------------------------------------------------------------------

def _representative(m):
    """A permutation with cycle type m: consecutive cycles, shortest first."""
    images = []
    start = 0
    for i, mult in enumerate(m):
        size = i + 1
        for _ in range(mult):
            images.extend(list(range(start + 1, start + size)) + [start])
            start += size
    return tuple(images)


def _word(sigma):
    """Letters i of sigma = s_i1 * s_i2 * ... * s_ik, one per inversion."""
    images, swaps = list(sigma), []
    for top in range(len(images) - 1, 0, -1):
        for j in range(top):
            if images[j] > images[j + 1]:
                images[j], images[j + 1] = images[j + 1], images[j]
                swaps.append(j)
    return swaps[::-1]  # sigma * s_j1 * ... * s_jk = 1


def _compose(values, sigma, tables):
    """values at the row of sigma * tau_r, for every row r."""
    for i in _word(sigma):
        values = values[tables.swap[i]]
    return values


def _cycle_masks(sigma):
    """Bitmask of every sigma-cycle, by least element (0's cycle first)."""
    masks, seen = [], 0
    for start in range(len(sigma)):
        if not seen >> start & 1:
            mask, x = 0, start
            while not mask >> x & 1:
                mask |= 1 << x
                x = sigma[x]
            masks.append(mask)
            seen |= mask
    return masks


def _transitive_rows(sigma, tables):
    """Is (sigma, tau_r) transitive, for every row r."""
    return ~_hits(_union_mask(_cycle_masks(sigma)), tables.closed)


def _scan_sigma(sigma, tables):
    """The histogram of the transitive pairs at t * (d + 1) + l, by the
    old route: compose, then keep the transitive rows, then bin."""
    d = tables.T.shape[1]
    trans = _transitive_rows(sigma, tables)
    combined = _compose(tables.tidx, sigma, tables) * (d + 1) + tables.lcounts
    return np.bincount(combined[trans], minlength=len(tables.types) * (d + 1))


def _block_representative(parts):
    """The walk's representative: blocks of consecutive points, in the
    order of parts, each block a -> a+1 -> ... -> a+r-1 -> a."""
    images, start = [], 0
    for r in parts:
        images.extend(list(range(start + 1, start + r)) + [start])
        start += r
    return tuple(images)


def _lex_ranks(perms):
    """The lexicographic rank of each permutation (a (n, d) array)."""
    d = perms.shape[1]
    weight = [factorial(d - 1 - j) for j in range(d)]
    rank = np.zeros(len(perms), dtype=np.int64)
    for j in range(d):  # Lehmer digit j: later images below the one at j
        below = (perms[:, j + 1:] < perms[:, j:j + 1]).sum(axis=1)
        rank += below * weight[j]
    return rank


def _rows_of(perms, T):
    """The row of each permutation (a (n, d) array) in T, whose rows are
    ordered by cycle count, then lexicographically: its lexicographic
    rank, mapped through that order."""
    row = np.empty(len(T), dtype=np.int64)
    row[_lex_ranks(T)] = np.arange(len(T))
    return row[_lex_ranks(perms)]


def _full_row_counts(d):
    """{(k, l, m): count} by the per-letter scan of every row, for one
    representative of every type times its class size: no band of rows,
    no class skipped and no mirror."""
    tables = _tau_tables(d)
    sizes = np.bincount(tables.tidx, minlength=len(tables.types))
    cells = np.zeros((d + 1, len(tables.types), d + 1), dtype=np.int64)
    for t, m in enumerate(tables.types):
        scan = _scan_sigma(_representative(m), tables)
        cells[sum(m)] += sizes[t] * scan.reshape(len(tables.types), d + 1)
    return {(k, l, tables.types[t]): int(cells[k, t, l])
            for k, t, l in zip(*cells.nonzero())}


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
    # threads is accepted and changes nothing: every value scans the same
    for d in range(1, 9):
        want = transitive_pair_counts(d, "classes", threads=1)
        for threads in (0, 2, 8):
            assert transitive_pair_counts(d, "classes", threads=threads) == want, (d, threads)


def test_scan_starts_no_thread(monkeypatch):
    # every class is binned on the calling thread, whatever threads asks for
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    want = {d: transitive_pair_counts(d, threads=1) for d in (6, 8)}
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for d, table in want.items():
        for threads in (0, 2, 8):
            assert transitive_pair_counts(d, threads=threads) == table, (d, threads)


def test_scan_loads_no_thread_pool():
    # in a fresh interpreter, the bench's two-thread comparison at d = 8
    # leaves the thread pool's modules unloaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    code = ("import sys; from dessins.evolution import ConnectedSeries; "
            "from dessins.oracle import compare_with_series; "
            "table, diffs = compare_with_series(ConnectedSeries.compute(8), 8, threads=2); "
            "print(len(table.counts), diffs, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "218 [] False\n", "")


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


def test_relabel_bounds_and_refuse_degree_10():
    # the bounds that carry the scan to d = 9: a relabelled row index holds
    # d! - 1, the int16 bin index holds 2 * p(d) * (d + 1) (an intransitive
    # row's bin is moved up by p(d) * (d + 1)), and the subset masks are
    # uint16; d = 10 is refused by the tables' size instead
    for d in range(1, 9):
        swap = _tau_tables(d).swap
        assert swap.dtype == np.uint16 and swap.shape == (d - 1, factorial(d))
    assert factorial(CLASSES_LIMIT) - 1 <= np.iinfo(np.int32).max
    n_types = sum(1 for _ in partitions(CLASSES_LIMIT))
    assert 2 * n_types * (CLASSES_LIMIT + 1) <= np.iinfo(np.int16).max
    assert CLASSES_LIMIT <= 16
    with pytest.raises(ValueError, match="exceed"):
        _tau_tables(10)  # refused before the 10! table is built


def test_table_rows_are_by_cycle_count_then_lexicographic():
    # still all of S_d, grouped by cycle count, lexicographic in a group
    for d in range(1, 8):
        T = _tau_tables(d).T
        assert T.dtype == np.int8
        assert T.tolist() == sorted(map(list, permutations(range(d))),
                                    key=cycle_count)


def test_unordered_rows_are_refused(monkeypatch):
    # a sort that leaves the rows lexicographic fails the build's order
    # check, though every relabelling is still an involution
    _tau_tables.cache_clear()
    monkeypatch.setattr(np, "argsort", lambda a, **kwargs: np.arange(len(a)))
    with pytest.raises(ArithmeticError, match="not ordered by cycle count"):
        _tau_tables(4)


def test_pair_counts_are_u_v_symmetric():
    # swapping sigma and tau exchanges k and l and conjugates sigma*tau,
    # and Euler's formula with one face or more gives k + l <= d + 1: the
    # two facts the scan's band and mirror rest on, checked on the
    # full-row reference
    for d in range(1, 8):
        counts = _full_row_counts(d)
        assert counts == {(l, k, m): c for (k, l, m), c in counts.items()}
        assert all(k + l <= d + 1 for k, l, _ in counts)


@pytest.mark.parametrize("d", [*range(1, 9), pytest.param(9, marks=pytest.mark.slow)])
def test_banded_counts_match_the_full_row_scan(d):
    # the band and the mirror lose nothing and add nothing, on every key
    assert transitive_pair_counts(d).counts == _full_row_counts(d)


@pytest.mark.parametrize("d, rows, classes", [
    (8, 335_996, 15), pytest.param(9, 3_821_548, 23, marks=pytest.mark.slow)])
def test_scan_bins_only_the_band(monkeypatch, d, rows, classes):
    # a class of k cycles bins the rows with k <= l <= d + 1 - k, and a
    # class with k > (d + 1) / 2 none; every row of every class would be
    # 887 040 rows over 22 classes at d = 8, 10 886 400 over 30 at d = 9
    real_binned = oracle._binned
    binned = []

    def counting_binned(cycles, values, tables):
        binned.append(len(values))
        return real_binned(cycles, values, tables)

    _tau_tables(d)
    monkeypatch.setattr(oracle, "_binned", counting_binned)
    transitive_pair_counts(d)
    assert (sum(binned), len(binned)) == (rows, classes)


def test_table_build_and_scan_hold_no_whole_table_temporary():
    # at d = 9 one (d!, d) int32 temporary is 12.5 MiB: the build holds
    # at most a few MiB besides the tables it keeps, and the one-thread
    # scan of every class only the walk's vectors of d! entries and one
    # block's temporaries
    _tau_tables.cache_clear()
    tracemalloc.start()
    try:
        tables = _tau_tables(9)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        transitive_pair_counts(9, threads=1)
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
    assert tables.closed.shape[0] == 2
    trans = _transitive_rows(sigma, tables)
    assert trans.tolist() == [is_transitive(sigma, tau) for tau in perms]


def test_tables_hold_no_gather_indices():
    for d in range(1, 8):
        tables = _tau_tables(d)
        n = factorial(d)
        for name, value in tables._asdict().items():
            if isinstance(value, np.ndarray):
                assert not (value.shape == (n, d) and value.dtype == np.intp), name
        # word-major: one contiguous column of n words per 64 sets
        assert tables.closed.shape == (-(-2 ** (d - 1) // 64), n)
        assert tables.closed.dtype == np.uint64 and tables.closed.flags.c_contiguous


def _check_composition(d, sigmas, every=1):
    tables = _tau_tables(d)
    T = tables.T
    rows = np.arange(len(T))
    for sigma in sigmas:
        composed = _compose(rows, sigma, tables)[::every]
        sig = np.array(sigma, dtype=np.int8)
        assert (T[composed] == sig[T[::every]]).all(), sigma


def test_product_rows_compose():
    # T[rows[r]] is sigma * T[r]: every row for every sigma at d <= 6, and
    # every 37th row at d = 8 and 9, for the class representatives and
    # sigmas whose cycles are not runs of consecutive points
    for d in range(1, 7):
        _check_composition(d, permutations(range(d)))
    odd = {8: [(3, 7, 6, 0, 4, 1, 2, 5), (7, 6, 5, 4, 3, 2, 1, 0)],
           9: [(8, 0, 7, 1, 6, 2, 5, 3, 4), (2, 5, 8, 1, 4, 7, 0, 3, 6)]}
    for d in (8, 9):
        reps = {_representative(m): m for m in partitions(d)}
        _check_composition(d, [*reps, *odd[d]], every=37)
        # one gather per letter: d - parts for a class representative
        assert all(len(_word(rep)) == d - sum(m) for rep, m in reps.items())
    assert _tau_tables(9).swap.dtype == np.int32


def test_scan_is_conjugation_invariant():
    # a sigma whose cycles are not runs of consecutive points bins
    # exactly as its class's walked representative: the class reduction
    # is exact
    d = 6
    tables = _tau_tables(d)
    rep = _representative((1, 1, 1))  # cycles (0)(1 2)(3 4 5)
    pi = (3, 0, 5, 1, 4, 2)
    sigma = [0] * d
    for x in range(d):
        sigma[pi[x]] = pi[rep[x]]  # sigma = pi rep pi^-1
    assert sigma == [5, 4, 1, 3, 2, 0]  # cycles (0 5)(1 4 2)(3)
    assert cycle_type(sigma) == cycle_type(rep)
    a = _binned(_cycle_masks(sigma), _compose(tables.tidx, sigma, tables), tables)
    walked = {parts: values for parts, values in _class_walk(tables)}
    b = _binned([0b111, 0b11000, 0b100000], walked[(3, 2, 1)], tables)
    assert a.dtype == np.int64 and a.shape == (len(tables.types) * (d + 1),)
    assert np.array_equal(a, b) and a.any()
    assert np.array_equal(a, _scan_sigma(rep, tables))


def _class_word(parts):
    """The walk's word of a type: a block of r points from a gives the
    letters a, a+1, ..., a+r-2."""
    word, start = [], 0
    for r in parts:
        word += range(start, start + r - 1)
        start += r
    return tuple(word)


def test_class_words_are_prefix_closed():
    # the walk yields every type once, parts largest first, and every
    # prefix of a type's word is the word of another type
    for d in range(1, CLASSES_LIMIT + 1):
        parts = [parts for parts, _ in _class_walk(_tau_tables(d))]
        assert all(list(p) == sorted(p, reverse=True) for p in parts)
        assert sorted(map(from_parts, parts)) == sorted(partitions(d))
        words = {_class_word(p) for p in parts}
        assert len(words) == len(parts)
        assert all(word[:j] in words for word in words for j in range(len(word)))


@pytest.mark.parametrize("d", [8, 9])
def test_scan_gathers_once_per_class_but_the_identity(monkeypatch, d):
    # a stub np.take counts the gathers of whole scans with threads 1
    # and 2: p(d) - 1 each, 21 at d = 8 and 29 at d = 9
    gathers = []
    real_take = np.take

    def counting_take(*args, **kwargs):
        gathers.append(1)
        return real_take(*args, **kwargs)

    _tau_tables(d)
    monkeypatch.setattr(np, "take", counting_take)
    p = sum(1 for _ in partitions(d))
    for threads in (1, 2):
        gathers.clear()
        transitive_pair_counts(d, threads=threads)
        assert len(gathers) == p - 1 == {8: 21, 9: 29}[d]


def test_walked_vectors_are_the_product_types():
    # each type's walked vector is tidx at the row of sigma * tau_r, sigma
    # the type's block representative and the row computed from T: every
    # row at d <= 6, every 37th row at d = 8 and 9
    for d, every in [*((d, 1) for d in range(1, 7)), (8, 37), (9, 37)]:
        tables = _tau_tables(d)
        T = tables.T[::every].astype(np.int64)
        for parts, values in _class_walk(tables):
            sigma = np.array(_block_representative(parts))
            rows = _rows_of(sigma[T], tables.T)  # (sigma * tau)(x) = sigma[tau[x]]
            assert np.array_equal(values[::every], tables.tidx[rows]), (d, parts)
            assert cycle_type(sigma.tolist()) == from_parts(parts)


def test_walk_keeps_few_vectors():
    # the walk visits a node's new block before its grown block, so at
    # most d/2 vectors it made are alive, the one it yields included
    import weakref
    for d in range(2, CLASSES_LIMIT + 1):
        tables = _tau_tables(d)
        made, most = [], 0
        for _, values in _class_walk(tables):
            if values is not tables.tidx:
                made.append(weakref.ref(values))
            del values
            most = max(most, sum(ref() is not None for ref in made))
        assert most <= d // 2, (d, most)


@pytest.mark.parametrize("d", [*range(1, 9), pytest.param(9, marks=pytest.mark.slow)])
def test_class_histograms_match_the_per_letter_scan(d):
    # every class's binned histogram equals the old per-letter scan's, on
    # the walk's block representative and on the old shortest-first one
    tables = _tau_tables(d)
    for parts, values in _class_walk(tables):
        sigma = _block_representative(parts)
        binned = _binned(_cycle_masks(sigma), values, tables)
        assert np.array_equal(binned, _scan_sigma(sigma, tables)), parts
        old = _scan_sigma(_representative(from_parts(parts)), tables)
        assert np.array_equal(binned, old), parts
    # and a task's sum weighs each class by its size in row k = parts
    total = _bin_classes(list(_class_walk(tables)), tables).sum()
    assert total == factorial(d - 1) * indecomposable_count(d + 1)


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


def test_types_of_another_degree_are_refused():
    # (1, 2, (0, 0, 0, 1)) has genus 1 at its own weight 4, none at d = 3
    with pytest.raises(ValueError, match="^piece 3 is not homogeneous of weight 3$"):
        PairCounts(3, {(1, 2, (0, 0, 0, 1)): 1})


def test_engine_agreement(engine10):
    for d in range(1, 9):
        table, diffs = compare_with_series(engine10, d)
        assert diffs == []
        # total transitive pairs = (d-1)! * sum of marked counts
        marked_total = sum(
            d * c for c in engine10.piece(d).terms.values())
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
