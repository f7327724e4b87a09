from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from dessins.counts import (
    GenusTable,
    genus_table,
    indecomposable_count,
    marked_count_genus0,
    marked_count_genus1,
)

# rows of the reference table for small degree (see test_acceptance for
# the full set and its cross-validation)
SMALL_ROWS = {
    1: [1],
    2: [3],
    3: [12, 1],
    4: [56, 15],
    5: [288, 165, 8],
    6: [1584, 1611, 252],
    7: [9152, 14805, 4956, 180],
    8: [54912, 131307, 77992, 9132],
}


def test_indecomposable_count():
    assert [indecomposable_count(n) for n in range(1, 10)] == \
        [1, 1, 3, 13, 71, 461, 3447, 29093, 273343]
    with pytest.raises(ValueError):
        indecomposable_count(0)


def test_genus0_closed_form():
    assert [marked_count_genus0(d) for d in range(1, 7)] == \
        [1, 3, 12, 56, 288, 1584]
    # direct evaluation at d=5: 3 * 16 * 10! / (5! * 7!)
    assert marked_count_genus0(5) == 3 * 16 * factorial(10) // (
        factorial(5) * factorial(7)) == 288
    assert marked_count_genus0(14) == 4107939840
    with pytest.raises(ValueError):
        marked_count_genus0(0)


def test_genus1_closed_form():
    assert marked_count_genus1(1) == 0
    assert marked_count_genus1(2) == 0
    assert marked_count_genus1(3) == 1
    assert marked_count_genus1(4) == 15  # (1/3) * (15 + 2*3*C(5,1))
    assert marked_count_genus1(5) == 165  # (1/3) * (63 + 180 + 252)
    assert marked_count_genus1(6) == 1611


def test_rows_match_reference(engine10):
    table = genus_table(engine10)
    for d, row in SMALL_ROWS.items():
        assert table.row_marked(d) == row


def test_table_is_kept_per_series(engine10):
    table = genus_table(engine10)
    cut = engine10.extended_to(6)  # a cut-back series collapses its own degrees
    assert genus_table(cut).dmax == 6
    assert genus_table(cut).entries == {
        (d, g): v for (d, g), v in table.entries.items() if d <= 6}
    assert table.marked(9, 4) == 8064
    assert table.weighted(5, 2) == Fraction(8, 5)


def test_entries_vanish_beyond_max_genus(engine10):
    table = genus_table(engine10)
    for d in range(1, 11):
        top = GenusTable.max_genus(d)
        assert (d, top) in table.entries
        for g in range(top + 1, top + 4):
            assert (d, g) not in table.entries
            assert table.weighted(d, g) == 0
            assert table.marked(d, g) == 0


def test_entries_are_marked_ints(engine10):
    table = genus_table(engine10)
    for (d, g), marked in table.entries.items():
        assert type(marked) is int
        assert table.weighted(d, g) == Fraction(marked, d)


def test_row_sums_match_indecomposable_permutations(engine10):
    # rooted hypermaps on d darts are counted by indecomposable
    # permutations of d+1 symbols (OEIS A003319); complete rows for
    # d <= 10 need genus <= 4 only, so this pins every column at once
    table = genus_table(engine10)
    memo: dict[int, int] = {}

    def indecomposable(n: int) -> int:
        if n not in memo:
            memo[n] = factorial(n) - sum(
                indecomposable(j) * factorial(n - j) for j in range(1, n))
        return memo[n]

    for d in range(1, 11):
        row_sum = sum(table.row_marked(d))
        assert row_sum == indecomposable(d + 1)


def test_closed_forms_match_engine(engine10):
    table = genus_table(engine10)
    for d in range(1, 11):
        assert table.marked(d, 0) == marked_count_genus0(d)
        assert table.marked(d, 1) == marked_count_genus1(d)
