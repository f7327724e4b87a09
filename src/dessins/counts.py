"""Genus-by-degree count tables and the two closed-form columns.

Setting u = v = t1 = t2 = ... = 1 in the degree-d piece of the connected
series, graded by the genus of each monomial instead, gives the weighted
count G_{d,g} of maps with d edges and genus g.  The marked count
d * G_{d,g} (one edge distinguished, which kills all automorphisms) is
always an integer, and the table holds these marked counts as ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .evolution import ConnectedSeries, indecomposable_count


@dataclass(frozen=True)
class GenusTable:
    """Marked counts by (degree, genus), with the exact weighted view."""

    dmax: int
    entries: dict[tuple[int, int], int]

    @staticmethod
    def max_genus(d: int) -> int:
        return (d - 1) // 2

    def weighted(self, d: int, g: int) -> Fraction:
        return Fraction(self.marked(d, g), d)

    def marked(self, d: int, g: int) -> int:
        return self.entries.get((d, g), 0)

    def row_marked(self, d: int, gmax: int | None = None) -> list[int]:
        top = self.max_genus(d) if gmax is None else gmax
        return [self.marked(d, g) for g in range(top + 1)]


def genus_table(series: ConnectedSeries) -> GenusTable:
    """Counts by (degree, genus) of the series.

    Every monomial of weight d contributes its marked count to the genus
    read off from 2g - 2 = d - (k + l + parts).  Entries exist for all
    0 <= g <= (d-1)//2 (as zeros where nothing contributes).  A view of
    the genus rows the series collapsed, with its key checks, as each
    degree entered it (see ``ConnectedSeries``).
    """
    return GenusTable(series.dmax, {(d, g): v for d, row in enumerate(series._rows, 1)
                                    for g, v in enumerate(row)})


def marked_count_genus0(d: int) -> int:
    """Closed form for the planar marked count: 3*2^(d-1)*(2d)!/(d!(d+2)!)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    num = 3 * 2 ** (d - 1) * factorial(2 * d)
    den = factorial(d) * factorial(d + 2)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"genus-0 closed form not integral at d={d}")
    return q


def marked_count_genus1(d: int) -> int:
    """Closed form for the toric marked count.

    (1/3) * sum_{i=0}^{d-3} 2^i * (4^(d-2-i) - 1) * C(d+i, i); the base of
    the power 2 runs over the summation index i.  Empty sum (d < 3) is 0.
    """
    if d < 3:
        return 0
    total = sum(2 ** i * (4 ** (d - 2 - i) - 1) * comb(d + i, i)
                for i in range(d - 2))
    q, r = divmod(total, 3)
    if r:
        raise ArithmeticError(f"genus-1 closed form not integral at d={d}")
    return q
