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

Everything the scan needs of tau is read from per-degree tables over
S_d (about 28 MB at d = 9), filled in one pass over chunks of rows that
holds no temporary larger than one chunk.  A row's cycle type comes
from first returns: a point's cycle length is the first j with
tau^j(x) = x, and m_i is the number of points of length i over i.  As
tau runs over S_d, so does sigma*tau, and the scan reads each product's
type at its row.  It finds that row by relabelling, not by search.
Left multiplication by the adjacent transposition s_i swaps the values
i and i + 1 of a row; if they sit at positions a and b, the row's
lexicographic (Lehmer) rank moves by +(d-1-a)! when a < b and by
-(d-1-b)! otherwise.  The tables keep that move, swap[i][r], for each of
the d - 1 transpositions, and check at build time that each is a
fixed-point-free involution of the rows.  The scan writes sigma as a
word in the s_i (a bubble sort of its images; d - parts letters for a
class representative) and pushes the row types through one gather per
letter.  A relabelled row index is uint16 while d! <= 2^16 (d <= 8) and
int32 at d = 9; the tables take (d-1) * d! of them, 0.56 MB at d = 8
and 11.6 MB at d = 9.
The type index is int16: it is below p(d), the number of partitions of
d, and a cycle count is at most d, so the scan's bin index
tidx * (d + 1) + l stays below p(d) * (d + 1) = 300 at d = 9.  Each
representative's int64 bincount, times its class size, is added into
row k = parts of one (d + 1, p(d) * (d + 1)) int64 array.  No entry can
overflow: each one is at most the d!^2 <= (9!)^2 < 2^37 pairs of degree d.

Transitivity is read from the invariant-subset table.  The pair is
transitive iff no proper, nonempty union of sigma-cycles is tau-invariant
(the orbit of 0 would be one), and such a union may be taken to contain
0, since its complement is invariant too.  So each row of S_d stores one
bit per set S containing 0: is tau(S) = S?  Sets and their images are
uint16 bitmasks, exact for d <= 16; the table holds 2^(d-1) bits per row
(11.6 MB at d = 9).  None of these bounds fails at d = 10 (the index
would be int32, the bins 462, the masks 10 bits), but the tables would
take about 410 MB, 232 MB of it subset bits; so the tables refuse every
degree past CLASSES_LIMIT = 9 by size, not by overflow.

numpy is imported by the functions that scan, not with the module, so a
table run never loads it; ``transitive_pair_counts`` loads it first.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations as iter_permutations
from math import factorial
from operator import mul
import os
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
    T: np.ndarray          # (d!, d) int8, all of S_d in lexicographic order
    swap: np.ndarray       # (d-1, d!) row of s_i * T[r]: uint16, or int32 at d = 9
    tidx: np.ndarray       # int16 index into types of each row's cycle type
    types: list            # the partitions of d in code order
    lcounts: np.ndarray    # int8 cycle count of each row
    closed: np.ndarray     # (d!, words) bits: does T[r] fix {0} | (s << 1)?


@lru_cache(maxsize=1)
def _tau_tables(d: int) -> _Tables:
    """Shared per-degree tables: all of S_d in lexicographic order, each
    row's relabellings by the adjacent transpositions and its cycle type,
    and the sets containing 0 that each row maps onto themselves (bit
    s % 64 of word s // 64 of row r: does T[r] map {0} | (s << 1) onto
    itself?).  Only the last degree's tables are kept.  Images of all
    2^(d-1) sets are built by subset doubling,
    img(S | x) = img(S) | 1 << T[r, x], on a (set, row) uint16 buffer of
    1 MB, which fixes the row chunk of the one pass.
    """
    if d > CLASSES_LIMIT:
        raise ValueError(f"tables of degree {d} exceed the class-reduced "
                         f"scan's d <= {CLASSES_LIMIT}")
    import numpy as np
    # filled straight from the generator: no d! tuples held at once
    T = np.fromiter(chain.from_iterable(iter_permutations(range(d))), np.int8,
                    count=factorial(d) * d).reshape(-1, d)
    N = len(T)
    # a type's code has digit i * m_i <= d at (d + 1)^(i-1): the number of
    # points on i-cycles, so each point adds the power of its cycle
    # length; codes order types as their multiplicities m_i do
    power = np.array([(d + 1) ** i for i in range(d)], dtype=np.int64)
    digit = [(i + 1) * p for i, p in enumerate(power.tolist())]
    types = sorted(partitions(d), key=lambda m: sum(map(mul, m, digit)))
    type_codes = np.array([sum(map(mul, m, digit)) for m in types])
    # swapping the values i and i + 1 at positions a < b raises the Lehmer
    # digit at a by one, so the rank by (d-1-a)!; at a > b it lowers the
    # digit at b, and the rank by (d-1-b)!: the step at a * d + b
    weight = [factorial(d - 1 - j) for j in range(d)]
    rank_step = np.array([weight[a] if a < b else -weight[b]
                          for a in range(d) for b in range(d)], dtype=np.int32)
    swap = np.empty((d - 1, N),
                    dtype=np.uint16 if N <= 1 << 16 else np.int32)
    n_sets = 1 << (d - 1)
    sets = (np.arange(n_sets, dtype=np.uint16) << 1) | 1
    rows = max(1, (1 << 20) // (2 * n_sets))
    img = np.empty((n_sets, rows), dtype=np.uint16)
    tidx = np.empty(N, dtype=np.int16)
    closed = np.zeros((N, 8 * -(-n_sets // 64)), dtype=np.uint8)
    points = np.arange(d, dtype=np.int8)
    for lo in range(0, N, rows):
        P = T[lo:lo + rows]
        n = len(P)
        where = np.empty((n, d), dtype=np.int8)  # where[r, v]: v's position
        where[np.arange(n)[:, None], P] = points
        pair = (where[:, :-1] * d + where[:, 1:]).T  # < d * d <= 81
        swap[:, lo:lo + n] = rank_step[pair] + np.arange(lo, lo + n,
                                                         dtype=np.int32)
        # a point's cycle length is the first j with P^j(x) = x, so one
        # less is the number of powers j = 1, 2, ... before it returns
        step = ((np.arange(n, dtype=np.intp) * d)[:, None] + P).ravel()
        Q, length = P, np.zeros((n, d), dtype=np.int8)  # cycle length - 1
        for j in range(d - 1):
            length += (length == j) & (Q != points)
            Q = Q.ravel()[step].reshape(n, d)  # next power of every row
        tidx[lo:lo + n] = np.searchsorted(type_codes,
                                          power[length].sum(axis=1))
        bit = np.left_shift(np.uint16(1), P.T.astype(np.uint16))
        img[0, :n] = bit[0]
        for x in range(1, d):
            half = 1 << (x - 1)
            np.bitwise_or(img[:half, :n], bit[x], out=img[half:2 * half, :n])
        packed = np.packbits(img[:, :n] == sets[:, None], axis=0,
                             bitorder="little")
        closed[lo:lo + n, :len(packed)] = packed.T
    del img  # the check's temporaries take the chunk buffer's place
    identity = np.arange(N, dtype=swap.dtype)
    for i, s in enumerate(swap):
        # s_i is a fixed-point-free involution, and so is its relabelling
        if not (np.array_equal(s[s], identity) and (s != identity).all()):
            raise ArithmeticError(f"degree {d}: relabelling by s_{i} is not "
                                  f"a fixed-point-free involution")
    lcounts = np.array([sum(m) for m in types], dtype=np.int8)[tidx]
    return _Tables(T, swap, tidx, types, lcounts, closed.view("<u8"))


def _cycle_masks(sigma) -> list[int]:
    """Bitmask of every sigma-cycle, by least element (0's cycle first)."""
    masks = []
    seen = 0
    for start in range(len(sigma)):
        if not seen >> start & 1:
            mask, x = 0, start
            while not mask >> x & 1:
                mask |= 1 << x
                x = sigma[x]
            masks.append(mask)
            seen |= mask
    return masks


def _transitive_rows(sigma, tables) -> np.ndarray:
    """Is (sigma, tau_r) transitive, for every row r: does tau_r fix no
    proper union of sigma-cycles that contains 0?"""
    import numpy as np
    first, *rest = _cycle_masks(sigma)
    unions = [first]
    for cycle in rest:
        unions += [u | cycle for u in unions]
    mask = 0  # bit s: S_s is one of those unions (the last one is all)
    for u in unions[:-1]:
        mask |= 1 << (u >> 1)
    hit = np.zeros(len(tables.closed), dtype=bool)
    for w, column in enumerate(tables.closed.T):
        word = mask >> (64 * w) & 0xFFFF_FFFF_FFFF_FFFF
        if word:
            hit |= (column & word) != 0
    return ~hit


def _word(sigma) -> list[int]:
    """Letters i of sigma as a word in the adjacent transpositions s_i,
    sigma = s_i1 * s_i2 * ... * s_ik: a bubble sort of its images, one
    letter per inversion (d - parts of them for a class representative)."""
    images, swaps = list(sigma), []
    for top in range(len(images) - 1, 0, -1):
        for j in range(top):
            if images[j] > images[j + 1]:
                images[j], images[j + 1] = images[j + 1], images[j]
                swaps.append(j)
    return swaps[::-1]  # sigma * s_j1 * ... * s_jk = 1


def _compose(values: np.ndarray, sigma, tables) -> np.ndarray:
    """values at the row of sigma * tau_r, for every row r: one gather
    per letter of sigma's word, as s_i * tau_r is row swap[i][r]."""
    import numpy as np
    for i in _word(sigma):  # np.take: no intp copy of a narrow index
        values = np.take(values, tables.swap[i])
    return values


def _scan_sigma(sigma, tables) -> np.ndarray:
    """The int64 histogram of the transitive pairs (sigma, tau) over every
    tau, at t * (d + 1) + l: t indexes sigma*tau's type, l is tau's cycles."""
    import numpy as np
    d = tables.T.shape[1]
    trans = _transitive_rows(sigma, tables)
    # the products sigma*tau_r run over S_d once: type each by its row
    combined = _compose(tables.tidx, sigma, tables) * (d + 1) + tables.lcounts
    return np.bincount(combined[trans], minlength=len(tables.types) * (d + 1))


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


def _representative(m: Multiplicities) -> tuple[int, ...]:
    """A permutation with cycle type m: consecutive cycles."""
    images = []
    start = 0
    for i, mult in enumerate(m):
        size = i + 1
        for _ in range(mult):
            images.extend(list(range(start + 1, start + size)) + [start])
            start += size
    return tuple(images)


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


def _auto_threads() -> int:
    """CPUs this process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def transitive_pair_counts(d: int, method: str = "classes",
                           threads: int = 1) -> PairCounts:
    """Count transitive pairs binned by (cycles of sigma, cycles of tau,
    cycle type of sigma*tau).

    method "classes" scans one sigma per cycle type with conjugacy-class
    weights (d <= 9), "naive" is the no-numpy reference scan over all
    d!^2 pairs (d <= 5).  Refuses degrees beyond the supported bound.
    The class representatives are scanned on ``threads`` worker threads
    (0 for auto), one task each, never more threads than classes or than
    the auto count; this thread adds up the histograms in class order, so
    the result never depends on the schedule.  With one worker no pool is
    started: this thread scans the classes itself.
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
    import numpy as np  # here, before the pool: never first in a worker

    classes = list(partitions(d))
    tables = _tau_tables(d)
    auto = _auto_threads()
    workers = min(threads or auto, auto, len(classes))
    hist = np.zeros((d + 1, len(tables.types) * (d + 1)), dtype=np.int64)
    with ExitStack() as stack:
        scan = map if workers == 1 else \
            stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        scans = scan(lambda m: _scan_sigma(_representative(m), tables), classes)
        for m, binned in zip(classes, scans):  # k = cycles of sigma
            hist[sum(m)] += _class_size(m, d) * binned
    cells = hist.reshape(d + 1, len(tables.types), d + 1)  # [k, t, l]
    counts = {(int(k), int(l), tables.types[t]): int(cells[k, t, l])
              for k, t, l in zip(*np.nonzero(cells))}
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
    the two agree on every type of degree d).  A degree the series does
    not hold raises TruncationError before any scan.
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
