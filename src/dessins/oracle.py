"""Brute-force ground truth from pairs of permutations.

A connected bicolored map with d edges is the same thing as a pair of
permutations (sigma, tau) on d symbols whose generated group acts
transitively: sigma's cycles are the white vertices, tau's cycles the
black vertices, and the cycle type of sigma*tau is the profile at
infinity.  Counting labelled transitive pairs and dividing by d! gives
the automorphism-weighted counts directly, with no generating-function
machinery involved - which is exactly what makes this an independent
check of the evolution engine.

The scan runs sigma over one representative per cycle type, weighted
by the conjugacy class size, and is vectorized over all tau in S_d; the
reduction is exact because every binned statistic is invariant under
simultaneous conjugation.  A tiny pure-Python scan over all d!^2 pairs
(method "naive") cross-checks the vectorized kernel at small d.

Two facts leave most of the (sigma, tau) pairs unscanned.  Swapping
the colours, (sigma, tau) -> (tau, sigma), maps transitive pairs to
transitive pairs, exchanges k and l, the cycle counts of sigma and tau,
and takes sigma*tau to tau*sigma = sigma^-1 (sigma*tau) sigma, of the
same type: N(k, l, m) = N(l, k, m).  And Euler's formula
k + l + faces = d + 2 - 2g, with g >= 0 and at least one face, gives
k + l <= d + 1 for every transitive pair.  So a class of k cycles bins
only the taus with k <= l <= d + 1 - k, a class with k > (d + 1) / 2
bins none, and the pairs with k > l are read from their mirrors.  The
rows of S_d are ordered by cycle count, then lexicographically, so each
band is one slice of rows.  The scan bins 335 996 (class, row) pairs
over 15 classes at d = 8, not 887 040 over all 22, and 3 821 548 over
23 at d = 9, not 10 886 400 over 30.

Everything the scan needs of tau is read from per-degree tables over
S_d (about 28 MB at d = 9), filled in two passes over chunks of rows
that hold no temporary larger than one chunk.  The first types the rows
in lexicographic order, a stable sort by cycle count then orders T and
the row types, and the second fills the relabellings and the subset
bits at each lexicographic rank's new row.  Besides the tables it keeps,
the build holds the rank-to-row map (1.4 MB at d = 9) and one chunk's
buffers, about 3.5 MB in all at its peak; a scan holds about 6 MB.  A
row's cycle type comes from first returns: a point's cycle length is
the first j with tau^j(x) = x, and m_i is the number of points of
length i over i.  As tau runs over S_d, so does sigma*tau, and the scan
reads each product's type at its row.  It finds that row by
relabelling, not by search.  Left multiplication by the adjacent
transposition s_i swaps the values i and i + 1 of a row; if they sit at
positions a and b, the row's lexicographic (Lehmer) rank moves by
+(d-1-a)! when a < b and by -(d-1-b)! otherwise, and the rank-to-row
map gives the new row.  The tables keep that move, swap[i][r], for each
of the d - 1 transpositions, and check at build time that each is a
fixed-point-free involution of the rows and that the cycle counts do
not decrease along the rows.  So if a vector holds a value
at the row of sigma*tau_r for every r, one gather through swap[i] gives
the value at the row of sigma*s_i*tau_r: it multiplies sigma by s_i on
the right.  A relabelled row index is uint16 while d! <= 2^16 (d <= 8)
and int32 at d = 9; the tables take (d-1) * d! of them, 0.56 MB at
d = 8 and 11.6 MB at d = 9.

The representative of the type lambda (parts lambda_1 >= lambda_2 >= ...)
has for its cycles blocks of consecutive points, largest first, and its
word is the concatenation of the blocks' letters: a block of r points
from a gives a, a+1, ..., a+r-2, and s_a s_{a+1} ... s_{a+r-2} is the
r-cycle on the block.  Every prefix of such a word is the word of
another type, (lambda_1, ..., lambda_(j-1), q+1, 1, ..., 1), so the p(d)
words form a tree under "drop the last letter", rooted at the
identity's empty word.  The scan walks that tree and pushes the row
types along it, one gather per edge: p(d) - 1 gathers in all (21 at
d = 8, 29 at d = 9).  A node's children grow its last block or open a
new block of 2 points, and the walk visits the new block first.  So it
keeps a node's vector only while the node's grown child waits, and
each such node on the current path has a last block and is followed by
a new block: the current node has more blocks of 2 or more points than
there are kept nodes, and the walk keeps at most d/2 vectors alive, the
current one included.

The type index is int16: it is below p(d), the number of partitions of
d, and a cycle count is at most d, so the bin index t * (d + 1) + l of
a product of type t and a tau of l cycles is below nb = p(d) * (d + 1)
= 300 at d = 9.  A row whose pair is not transitive has nb added to its
index, and one bincount of 2 * nb bins keeps its first nb: every index
stays below 2 * nb <= 600 at d = 9, so int16 holds it.  The calling
thread bins each class as the walk yields it, over its band of rows:
its int64 histogram, times its class size, is added into row k = parts
of one (d + 1, nb) int64 array, and the mirror then fills the entries
with k > l.  No entry can overflow: each one is at most the
d!^2 <= (9!)^2 < 2^37 pairs of degree d.

Transitivity is read from the invariant-subset table.  The pair is
transitive iff no proper, nonempty union of sigma-cycles is tau-invariant
(the orbit of 0 would be one), and such a union may be taken to contain
0, since its complement is invariant too.  So each row of S_d stores one
bit per set S containing 0: is tau(S) = S?  Sets and their images are
uint16 bitmasks, exact for d <= 16; the table holds 2^(d-1) bits per row
(11.6 MB at d = 9), word-major: closed[w] is one contiguous column of
uint64 over the rows, so a test of one word reads one column.  A
representative's cycles are runs of consecutive bits.  None of these
bounds fails at d = 10 (the index would be int32, the bins 924, the
masks 10 bits), but the tables would take about 410 MB, 232 MB of it
subset bits; so the tables refuse every degree past CLASSES_LIMIT = 9
by size, not by overflow.

numpy is imported by the functions that scan, not with the module, so a
table run never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial
from operator import mul
from typing import NamedTuple

from .counts import indecomposable_count
from .evolution import ConnectedSeries
from .series import (
    Multiplicities,
    RawKey,
    from_parts,
    genus_at,
    partition_weight,
    partitions,
)

CLASSES_LIMIT = 9   # p(d) * d! pairs
NAIVE_LIMIT = 5     # d!^2 pairs in pure Python
_BLOCK = 1 << 15    # rows binned at once: temporaries of at most 256 kB


def cycle_type(p) -> Multiplicities:
    """Multiplicity vector of the cycle lengths of a permutation."""
    images = tuple(p)
    d = len(images)
    if sorted(images) != list(range(d)):
        raise ValueError(f"not a permutation of 0..{d - 1}: {images!r}")
    seen = [False] * d
    lengths = []
    for start in range(d):
        if not seen[start]:
            n, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = images[x]
                n += 1
            lengths.append(n)
    return from_parts(lengths)


def cycle_count(p) -> int:
    return sum(cycle_type(p))


def is_transitive(sigma, tau) -> bool:
    """Does the group generated by the two permutations act transitively?

    Forward closure under both maps equals the orbit of 0 (inverses are
    powers), so a plain reachability walk suffices.
    """
    s, t = tuple(sigma), tuple(tau)
    d = len(s)
    if len(t) != d:
        raise ValueError("permutations act on different sets")
    if d == 0:
        raise ValueError("empty permutation")
    seen = [False] * d
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for y in (s[x], t[x]):
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == d


# ---------------------------------------------------------------------------
# vectorized scan
# ---------------------------------------------------------------------------

class _Tables(NamedTuple):
    T: np.ndarray          # (d!, d) int8, S_d by cycle count, then lexicographic
    swap: np.ndarray       # (d-1, d!) row of s_i * T[r]: uint16, or int32 at d = 9
    tidx: np.ndarray       # int16 index into types of each row's cycle type
    types: list            # the partitions of d in code order
    lcounts: np.ndarray    # int8 cycle count of each row
    closed: np.ndarray     # (words, d!) uint64: does T[r] fix {0} | (s << 1)?


@lru_cache(maxsize=1)
def _tau_tables(d: int) -> _Tables:
    """Shared per-degree tables: all of S_d ordered by cycle count, then
    lexicographically, each row's relabellings by the adjacent
    transpositions and its cycle type, and the sets containing 0 that
    each row maps onto themselves (bit s % 64 of closed[s // 64, r]: does
    T[r] map {0} | (s << 1) onto itself?).  Only the last degree's tables
    are kept.  A first pass over lexicographic row chunks types every
    row; the stable sort by cycle count then orders T, tidx and lcounts
    before swap and closed exist, and a second pass over chunks of
    lexicographic ranks fills those at each rank's row.  Images of all
    2^(d-1) sets are built by subset doubling,
    img(S | x) = img(S) | 1 << T[r, x], on a (row, set) uint16 buffer of
    1 MB, which fixes the row chunk of both passes; each row's bits are
    packed along its own sets and its words placed in their columns.
    """
    if d > CLASSES_LIMIT:
        raise ValueError(f"tables of degree {d} exceed the class-reduced "
                         f"scan's d <= {CLASSES_LIMIT}")
    import numpy as np
    T = _lexicographic_rows(d)
    N = len(T)
    # a type's code has digit i * m_i <= d at (d + 1)^(i-1): the number of
    # points on i-cycles, so each point adds the power of its cycle
    # length; codes order types as their multiplicities m_i do
    power = np.array([(d + 1) ** i for i in range(d)], dtype=np.int64)
    digit = [(i + 1) * p for i, p in enumerate(power.tolist())]
    types = sorted(partitions(d), key=lambda m: sum(map(mul, m, digit)))
    type_codes = np.array([sum(map(mul, m, digit)) for m in types])
    n_sets = 1 << (d - 1)
    rows = max(1, (1 << 20) // (2 * n_sets))
    points = np.arange(d, dtype=np.int8)
    tidx = np.empty(N, dtype=np.int16)
    for lo in range(0, N, rows):
        P = T[lo:lo + rows]
        n = len(P)
        # a point's cycle length is the first j with P^j(x) = x, so one
        # less is the number of powers j = 1, 2, ... before it returns
        step = ((np.arange(n, dtype=np.intp) * d)[:, None] + P).ravel()
        Q, length = P, np.zeros((n, d), dtype=np.int8)  # cycle length - 1
        for j in range(d - 1):
            length += (length == j) & (Q != points)
            Q = Q.ravel()[step].reshape(n, d)  # next power of every row
        tidx[lo:lo + n] = np.searchsorted(type_codes,
                                          power[length].sum(axis=1))
    del P  # a view that would keep the lexicographic T alive
    lcounts = np.array([sum(m) for m in types], dtype=np.int8)[tidx]
    # rows by cycle count, lexicographic within one: the rows a class
    # bins, k <= l <= d + 1 - k, are one slice
    order = np.argsort(lcounts, kind="stable")
    T, tidx, lcounts = T[order], tidx[order], lcounts[order]
    index = np.uint16 if N <= 1 << 16 else np.int32
    row_of = np.empty(N, dtype=index)  # the row of each lexicographic rank
    row_of[order] = np.arange(N, dtype=index)
    del order
    # swapping the values i and i + 1 at positions a < b raises the Lehmer
    # digit at a by one, so the rank by (d-1-a)!; at a > b it lowers the
    # digit at b, and the rank by (d-1-b)!: the step at a * d + b
    weight = [factorial(d - 1 - j) for j in range(d)]
    rank_step = np.array([weight[a] if a < b else -weight[b]
                          for a in range(d) for b in range(d)], dtype=np.int32)
    swap = np.empty((d - 1, N), dtype=index)
    sets = (np.arange(n_sets, dtype=np.uint16) << 1) | 1
    img = np.empty((rows, n_sets), dtype=np.uint16)
    words = -(-n_sets // 64)
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)  # padding stays 0
    closed = np.empty((words, N), dtype=np.uint64)
    for lo in range(0, N, rows):  # ranks lo, lo + 1, ...: no rank to compute
        at = row_of[lo:lo + rows]
        P = T[at]
        n = len(P)
        where = np.empty((n, d), dtype=np.int8)  # where[r, v]: v's position
        where[np.arange(n)[:, None], P] = points
        pair = (where[:, :-1] * d + where[:, 1:]).T  # < d * d <= 81
        swap[:, at] = row_of[rank_step[pair] + np.arange(lo, lo + n,
                                                         dtype=np.int32)]
        bit = np.left_shift(np.uint16(1), P.astype(np.uint16))
        img[:n, 0] = bit[:, 0]
        for x in range(1, d):
            half = 1 << (x - 1)
            np.bitwise_or(img[:n, :half], bit[:, x:x + 1],
                          out=img[:n, half:2 * half])
        packed[:n, :-(-n_sets // 8)] = np.packbits(img[:n] == sets, axis=1,
                                                   bitorder="little")
        closed[:, at] = packed[:n].view("<u8").T
    del img, row_of, at  # the checks' temporaries take their place
    identity = np.arange(N, dtype=swap.dtype)
    for i, s in enumerate(swap):
        # s_i is a fixed-point-free involution, and so is its relabelling
        if not (np.array_equal(s[s], identity) and (s != identity).all()):
            raise ArithmeticError(f"degree {d}: relabelling by s_{i} is not "
                                  f"a fixed-point-free involution")
    if (np.diff(lcounts) < 0).any():
        raise ArithmeticError(f"degree {d}: rows are not ordered by cycle "
                              f"count")
    return _Tables(T, swap, tidx, types, lcounts, closed)


def _lexicographic_rows(d: int) -> np.ndarray:
    """All of S_d as a (d!, d) int8 array in lexicographic order: the rows
    of S_n are, for each first value v, v followed by the rows of S_(n-1)
    with every value v or above raised by one."""
    import numpy as np
    T = np.zeros((1, 0), dtype=np.int8)
    for n in range(1, d + 1):
        block = len(T)
        U = np.empty((n * block, n), dtype=np.int8)
        for v in range(n):
            U[v * block:(v + 1) * block, 0] = v
            U[v * block:(v + 1) * block, 1:] = T + (T >= v)
        T = U
    return T


def _class_walk(tables):
    """(parts, values) for every cycle type of degree d, parts largest
    first and values the type index at the row of sigma*tau_r, for every
    row r, sigma the type's block representative: a walk of the tree of
    class words (module docstring), one gather per type but the
    identity's, which starts it with the rows' own types."""
    import numpy as np
    d = tables.T.shape[1]
    # (the parent's values, the letter to multiply by, the child's blocks
    # of two or more points)
    todo = [(tables.tidx, None, ())]
    while todo:
        values, letter, blocks = todo.pop()
        if letter is not None:  # np.take: no intp copy of a narrow index
            values = np.take(values, tables.swap[letter])
        used = sum(blocks)
        yield blocks + (1,) * (d - used), values
        if used < d and blocks and (len(blocks) == 1
                                    or blocks[-1] < blocks[-2]):
            # grow the last block by the point after it: letter used - 1
            todo.append((values, used - 1, blocks[:-1] + (blocks[-1] + 1,)))
        if used + 2 <= d:  # popped first: a new block, points used, used + 1
            todo.append((values, used, blocks + (2,)))


def _union_mask(cycles) -> int:
    """Bit s is set iff {0} | (s << 1) is a proper union of the given
    cycles (bitmasks, 0's cycle first): the sets of ``closed`` whose
    invariance under tau makes (sigma, tau) intransitive."""
    first, *rest = cycles
    unions = [first]
    for cycle in rest:
        unions += [u | cycle for u in unions]
    mask = 0
    for u in unions[:-1]:  # the last union is every point
        mask |= 1 << (u >> 1)
    return mask


def _hits(mask: int, closed) -> np.ndarray:
    """Does column r of a (words, rows) block of ``closed`` have a bit of
    mask, for every r: does tau_r fix one of mask's sets?"""
    import numpy as np
    hit = None  # the OR of every word's bits that mask selects
    for w, column in enumerate(closed):
        word = mask >> (64 * w) & 0xFFFF_FFFF_FFFF_FFFF
        if word:
            bits = column & np.uint64(word)
            hit = bits if hit is None else np.bitwise_or(hit, bits, out=hit)
    if hit is None:  # sigma is one cycle: every pair is transitive
        return np.zeros(closed.shape[1], dtype=bool)
    return hit != 0


def _binned(cycles, values, tables) -> np.ndarray:
    """The int64 histogram of the transitive pairs (sigma, tau) over the
    rows of values, at t * (d + 1) + l: t indexes sigma*tau's type, l is
    tau's cycles; sigma's cycles are given as bitmasks, 0's first, and
    values holds the type index at the row of sigma*tau_r for every row
    r, which the tables' lcounts and closed hold too (a band of rows is
    passed as tables with those two cut to it).  An intransitive row's
    index is moved past the nb bins that are kept.  Rows are binned in
    blocks of _BLOCK, so no temporary passes 256 kB."""
    import numpy as np
    d = tables.T.shape[1]
    nb = len(tables.types) * (d + 1)
    mask = _union_mask(cycles)
    counts = np.zeros(2 * nb, dtype=np.int64)
    for lo in range(0, len(values), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        index = values[rows] * (d + 1) + tables.lcounts[rows]  # < nb, int16
        index += _hits(mask, tables.closed[:, rows]) * np.int16(nb)  # < 2nb
        counts += np.bincount(index, minlength=2 * nb)
    return counts[:nb]


def _bin_classes(walk, tables) -> np.ndarray:
    """The (d + 1, nb) int64 histogram of every transitive pair, row k =
    sigma's cycles.  Each (parts, values) of ``_class_walk`` with k =
    parts <= (d + 1) / 2 adds its histogram times its class size, binned
    over the band of rows k <= l <= d + 1 - k only; the pairs with k > l
    are then read from the mirror, N(k, t, l) = N(l, t, k) (module
    docstring)."""
    import numpy as np
    d = tables.T.shape[1]
    n_types = len(tables.types)
    hist = np.zeros((d + 1, n_types * (d + 1)), dtype=np.int64)
    # the first row with l cycles or more, for l = 0, ..., d + 1
    start = np.searchsorted(tables.lcounts, np.arange(d + 2)).tolist()
    for parts, values in walk:
        k = len(parts)
        if 2 * k > d + 1:  # the band is empty: every pair has l < k
            continue
        band = slice(start[k], start[d + 2 - k])
        rows = tables._replace(lcounts=tables.lcounts[band],
                               closed=tables.closed[:, band])
        # the representative's cycles: blocks of consecutive points
        cycles = [((1 << r) - 1) << sum(parts[:i])
                  for i, r in enumerate(parts)]
        hist[k] += (_class_size(from_parts(parts), d)
                    * _binned(cycles, values[band], rows))
    cells = hist.reshape(d + 1, n_types, d + 1)  # [k, t, l], 0 where k > l
    mirrored = np.tri(d + 1, k=-1, dtype=bool)  # [k, l]: k > l
    cells += np.where(mirrored[:, None, :], cells.transpose(2, 1, 0), 0)
    return hist


# ---------------------------------------------------------------------------
# public enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairCounts:
    """Labelled transitive-pair counts of one degree, binned by type."""

    d: int
    counts: dict[RawKey, int]
    method: str = "classes"

    def __post_init__(self):
        for key in self.counts:  # every type has weight d and a genus
            if partition_weight(key[2]) != self.d:
                raise ValueError(f"piece {self.d} is not homogeneous of weight {self.d}")
            genus_at(self.d, key)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def weighted(self) -> dict[RawKey, Fraction]:
        """Automorphism-weighted counts: labelled counts over d!."""
        fd = factorial(self.d)
        return {key: Fraction(c, fd) for key, c in sorted(self.counts.items())}


def _class_size(m: Multiplicities, d: int) -> int:
    z = 1
    for i, mult in enumerate(m):
        z *= (i + 1) ** mult * factorial(mult)
    return factorial(d) // z


def _naive_counts(d: int) -> dict[RawKey, int]:
    counts: dict[RawKey, int] = {}
    perms = list(iter_permutations(range(d)))
    ks = [cycle_count(p) for p in perms]
    for s, k in zip(perms, ks):
        for t, l in zip(perms, ks):
            if is_transitive(s, t):
                st = tuple(s[x] for x in t)
                key = (k, l, cycle_type(st))
                counts[key] = counts.get(key, 0) + 1
    return counts


def transitive_pair_counts(d: int, method: str = "classes",
                           threads: int = 1) -> PairCounts:
    """Count transitive pairs binned by (cycles of sigma, cycles of tau,
    cycle type of sigma*tau).

    method "classes" scans one sigma per cycle type with conjugacy-class
    weights (d <= 9), "naive" is the no-numpy reference scan over all
    d!^2 pairs (d <= 5).  Refuses degrees beyond the supported bound.
    The calling thread walks the class words and bins each class as
    the walk yields it, into one histogram in walk order.  ``threads``
    is kept for its callers and changes nothing, not even the thread
    that scans; a negative value is refused.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if threads < 0:
        raise ValueError("threads must be >= 0")
    if method == "naive":
        if d > NAIVE_LIMIT:
            raise ValueError(f"naive enumeration supports d <= {NAIVE_LIMIT}")
        return _checked(d, _naive_counts(d), "naive")
    if method != "classes":
        raise ValueError(f"unknown method {method!r}")
    if d > CLASSES_LIMIT:
        raise ValueError(f"class-reduced enumeration supports "
                         f"d <= {CLASSES_LIMIT}")
    tables = _tau_tables(d)
    cells = _bin_classes(_class_walk(tables), tables).reshape(
        d + 1, len(tables.types), d + 1)  # [k, t, l]
    nonzero = cells.nonzero()
    counts = {(k, l, tables.types[t]): c for k, t, l, c in zip(
        *(i.tolist() for i in nonzero), cells[nonzero].tolist())}
    return _checked(d, counts, method)


def _checked(d: int, counts: dict[RawKey, int], method: str) -> PairCounts:
    """The scan's table, after its invariants: every key has weight d and a
    genus, and the d! * (indecomposable permutations of d + 1) / d
    transitive pairs are all binned.  A failure is the scan's own fault:
    ArithmeticError."""
    try:
        table = PairCounts(d, counts, method)
    except ValueError as exc:
        raise ArithmeticError(f"oracle scan of degree {d}: {exc}") from exc
    want = factorial(d - 1) * indecomposable_count(d + 1)
    if table.total != want:
        raise ArithmeticError(f"oracle scan of degree {d}: {table.total} "
                              f"transitive pairs, expected {want}")
    return table


@dataclass(frozen=True)
class Discrepancy:
    key: RawKey
    oracle: Fraction
    engine: Fraction


def compare_with_series(series: ConnectedSeries, d: int, method: str = "classes",
                        threads: int = 1) -> tuple[PairCounts, list[Discrepancy]]:
    """Exact per-type comparison of the engine against the brute force.

    Returns the oracle table and the list of disagreeing keys (empty iff
    the two agree on every type of degree d), in key order.  A degree
    the series does not hold raises TruncationError before any scan.
    ``threads`` is checked and passed on as ``transitive_pair_counts``
    takes it: the scan runs on the calling thread whatever its value.
    """
    marked = series.marked_piece(d)
    table = transitive_pair_counts(d, method, threads)
    scale = factorial(d - 1)  # c / d! == M / d  iff  c == (d-1)! * M
    diffs = []
    for key in sorted(set(table.counts) | set(marked)):
        c, m = table.counts.get(key, 0), marked.get(key, 0)
        if c != scale * m:
            diffs.append(Discrepancy(key, Fraction(c, factorial(d)), Fraction(m, d)))
    return table, diffs
