"""Degree-by-degree construction of the connected generating series.

The series F collects the weighted counts of connected bicolored maps:
the coefficient of u^k v^l t1^m1 t2^m2 ... in the piece of t-weight d is
the count (each map weighted by 1/|Aut|) of maps with d edges, k white
vertices, l black vertices and cycle profile m at infinity.  F starts
with the single one-edge map, u*v*t1.

Each piece is produced from the lower ones by summing over the ways of
inserting one edge, which acts on a monomial through three moves:

* grow_cycle          - one cycle gets longer by one; a new vertex of
                        either color appears (the u/v shift is applied
                        by the caller).
* split_or_join_cycles- within one component, an inserted edge either
                        splits a cycle in two or joins two cycles.
* join_components     - an inserted edge joins one cycle of each of two
                        previously disconnected components.

All three raise the t-weight by exactly one, so the piece of weight d
follows from weights < d and the seed alone.  Arithmetic is exact, on
each piece's integer "marked" form (d times the weighted counts).

The package has one key layout (``_PK``): l, k, m_1, m_2, ... sit in
consecutive fields of ``DMAX_LIMIT.bit_length()`` = 5 bits in one int,
l lowest, so a move adds precomputed unit vectors (1: a black vertex,
1 << 5: a white one, ``E[i]``: a part of size i), the pair product of
two profiles is one integer addition, and within one profile the codes
order keys by k and then l, as the canonical order does.  The one-edge
moves depend only on a key's profile: ``_profile_moves`` lists them as
increments of the packed profile, and ``_linear_moves`` alone applies
them, to one slot polynomial per profile (below), for the degree step
and the partition function alike.  The public operators are sums of
``GradedSeries`` derivatives, t-multiplications and products instead,
so a piece assembled from them checks the engine by other arithmetic.

Packed keys cannot carry or alias.  Packing is linear, so only the
vector of each emitted key matters, not the order of the additions that
build it.  E[i] is subtracted only from a key with m_i >= 1, so that
vector is non-negative, and each of its entries (k, l, every
multiplicity, every componentwise sum the pair product forms) is at most
the weight of its piece (a connected piece of weight n has k, l, m_i <= n
by the genus relation; a disconnected one sums its components), and no
weight passes DMAX_LIMIT = 31 < 2^5: ``_filing``, ``extended_to`` and
``partition_function`` refuse a larger degree.  So one layout holds
every entry of every series exactly, and distinct keys get distinct
codes.  A move's increment is a difference of unit vectors that removes
E[r] only for a part r of its own profile (2 E[r] only when m_r >= 2),
so profile + inc is the packed target profile.

The degree recursion works on one polynomial per profile.  Within a
profile of weight n, l = n + 2 - 2g - k - parts, so a key is its slot
(k, g), and the step holds a degree as {packed profile: P} with

    P = sum_{k, g} M(k, l, m) * 2^(W * (k + K * g)),    K = dmax + 1,

each slot a ``W``-bit field.  ``_linear_moves`` moves P as a whole:

* grow keeps g and adds a vertex of either color: (P << W) + P;
* a split keeps k, l and g: P;
* a join of two cycles of one component loses a part: P << W*K, g + 1;
* a component join adds k, l and the genera of its factors, so the join
  of profiles pa and pb is the one product Pa * Pb, added, times
  factor * j * m_j * j2 * m_j2, into pa + pb - E[j] - E[j2] + E[j+j2+1]
  for each part j of pa and j2 of pb.

Stored counts enter the slot form a genus row at a time
(``_kron_encode``).  Row g of a profile of top c = weight + 2 - parts
holds its slots k = 1 .. c - 1 - 2g, contiguous W-bit fields, so the
row is built as R = R << W | count over falling k, each count shifting
an int no wider than its row, and is placed by one P |= R << W*(1 + K*g)
(the rows do not overlap, so OR is addition).  Each profile's counts are
checked once, max(counts) >> W, before any is packed; a count of 2^W or
more names the lowest such key in ``_layout`` order.  The profile record
of ``_PK`` gives every reader a profile's weight and top without summing
its parts.

A degree ends in one decode pass (``_decode_degree``): per profile, one
``Q, R = divmod(P, C)`` by the step's common denominator C and one test
that Q has no bit outside the low h = W - bitlen(C) bits of its physical
slots, those with k >= 1 and l >= 1.  If both pass, every slot of P is C
times a count below 2^h (below), so Q's physical slots are the counts,
read from its bytes in the slot order of ``_layout`` into the profile's
count list (see ``ConnectedSeries``).  If either fails, a slot-by-slot
scan of P names the fault: the lowest nonzero slot with k < 1 or l < 1,
else the first physical slot that is not a multiple of C; a scan that
finds neither (a count of 2^h or more) leaves the count to the A003319
check.

Slots cannot carry or wrap.  Every stored count and every contribution
is non-negative, so every slot of a step is at most the sum of all its
slots, the step total T_d.  That total follows from the lower pieces'
sums S_n alone: the moves of a profile of weight n have weights summing
to n (n + 2) (grow 2n, counting both colors; splits sum r^2 m_r; joins
n^2 - sum r^2 m_r), and the part pairs of two profiles sum to n * n2, so

    T_d = C * ((d + 1) * S_{d-1} + sum_{n=1}^{d-2} S_n * S_{d-1-n}).

Each step refuses its degree (ArithmeticError) unless T_d < 2^W, so no
slot reaches 2^W and none carries into the next.  A stored count of
2^W or more is refused as it is packed.  A connected key of weight n has
k <= n <= dmax < K, so k never wraps into the next row.  On true counts
S_n = A003319(n + 1) and T_d = C_d * A003319(d + 1), and W is the largest
bitlen(C_d) + bitlen(A003319(d + 1)), d <= dmax, rounded up to whole
bytes (``_slot_width``): 64 bits for dmax = 14 (60 bits at d = 14).

The decode's one test is exact.  If R = 0 and every slot q_s of Q is
below 2^h, then C * q_s < 2^bitlen(C) * 2^h = 2^W, so C * Q = P written
in W-bit digits is the digits C * q_s, and as P's own digits are its
slots (none carries), each slot of P is C * q_s: every physical count is
integral and every other slot is 0.  Conversely true counts pass: each is
at most their sum A003319(d + 1) < 2^h.  After the decode, each degree's
counts must sum to A003319(d + 1).

The partition function runs the same moves in the layout (k, l).  Its
weight-n piece is A^n(1) / n!, A = (u+v)*grow + split_or_join + u*v*t1,
held as {packed profile: P} with the coefficient of (k, l, m) in W-bit
slot k + K*l: ``_linear_moves`` shifts by W, W*K and 0 (a split or a
join of two cycles keeps k and l), and the seed adds P << W*(K+1) at
profile + E[1].  No slot carries or wraps: every coefficient is
non-negative, A^n(1) at u = v = t = 1 sums to (n!)^2 (the moves of a
profile of weight n - 1 weigh (n - 1)(n + 1) = n^2 - 1, the seed 1), so
every slot is at most (dmax!)^2 < 2^W, W that bit length rounded up to
whole bytes, and k, l <= dmax < K.

The coefficient recursion (``recursion_rhs``), a check and never a
solver, is the degree step read at one key, without the decode's checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .series import (
    GradedSeries,
    Multiplicities,
    RawKey,
    TruncationError,
    canonical_multiplicities,
    genus_at,
    partition_weight,
    partitions,
)

SEED_KEY: RawKey = (1, 1, (1,))
DMAX_LIMIT = 31  # the largest degree computed, loaded or packed (5-bit fields)


# ---------------------------------------------------------------------------
# the one key layout and the one-edge moves
# ---------------------------------------------------------------------------

class _Packing:
    """The one bit-field layout of packed keys, ``_PK``: fields of
    DMAX_LIMIT.bit_length() bits, and E[i] = 1 << bits*(i+1), the vector
    of a part of size i, for every i <= DMAX_LIMIT + 1.  One record is
    kept per packed profile (a key's fields above k and l): its decoded
    profile, its part list, its weight and its top, weight + 2 - parts;
    and the weight and packed profile per multiplicity vector as a caller
    gives it, since keys share few profiles."""

    __slots__ = ("bits", "mask", "E", "_memo", "_codes")

    def __init__(self):
        self.bits = bits = DMAX_LIMIT.bit_length()  # 2^bits > DMAX_LIMIT
        self.mask = (1 << bits) - 1
        self.E = [0, *(1 << bits * (i + 1) for i in range(1, DMAX_LIMIT + 2))]
        self._memo: dict[int, tuple[Multiplicities, tuple[tuple[int, int], ...], int, int]] = {}
        self._codes: dict[tuple, tuple[int, int]] = {}

    def profile(self, m: Sequence[int]) -> tuple[int, int]:
        """(weight, packed profile) of the multiplicity vector m, any
        sequence, trailing zeros allowed; memoised per tuple(m) of at
        most DMAX_LIMIT + 1 entries.  A negative entry raises ValueError,
        on every call: it is never memoised.  A vector that fits no field
        layout, with more than DMAX_LIMIT + 1 entries past its trailing
        zeros or an entry above mask, has a weight past DMAX_LIMIT; it is
        not packed, and its profile reads -1."""
        m = m if type(m) is tuple else tuple(m)
        entry = self._codes.get(m)
        if entry is None:
            mm, prof = canonical_multiplicities(m), 0
            if len(mm) > DMAX_LIMIT + 1 or max(mm, default=0) > self.mask:
                return partition_weight(mm), -1
            for x in reversed(mm):
                prof = prof << self.bits | x
            entry = (partition_weight(mm), prof << 2 * self.bits)
            if len(m) <= DMAX_LIMIT + 1:
                self._codes[m] = entry
        return entry

    def encode(self, key: RawKey) -> int:
        k, l, m = key
        return self.profile(m)[1] | k << self.bits | l

    def _decoded(self, prof: int) -> tuple[Multiplicities, tuple[tuple[int, int], ...], int, int]:
        bits, mask, code, out = self.bits, self.mask, prof, []
        while code:
            out.append(code & mask)
            code >>= bits
        parts = tuple((i, x) for i, x in enumerate(out, 1) if x)
        w = sum(i * x for i, x in parts)
        entry = self._memo[prof] = (tuple(out), parts, w, w + 2 - sum(out))
        return entry

    def record(self, code: int) -> tuple[Multiplicities, tuple[tuple[int, int], ...], int, int]:
        """(m, parts, weight, top) of the profile of a key code or packed
        profile: the multiplicity vector, (i, m_i) for every part size i
        present, the weight sum i * m_i and top = weight + 2 - parts."""
        prof = code >> 2 * self.bits
        return self._memo.get(prof) or self._decoded(prof)

    def decode(self, code: int) -> RawKey:
        bits, mask = self.bits, self.mask
        prof = code >> 2 * bits
        entry = self._memo.get(prof) or self._decoded(prof)
        return (code >> bits & mask, code & mask, entry[0])

    def parts(self, code: int) -> tuple[tuple[int, int], ...]:
        """(i, m_i) for every part size i present in the key."""
        prof = code >> 2 * self.bits
        return (self._memo.get(prof) or self._decoded(prof))[1]


_PK = _Packing()


def _profile_moves(E: list[int], parts: tuple[tuple[int, int], ...]):
    """The one-edge moves on a profile with parts ((r, m_r), ...), as
    (increment, weight, kind): the change of the packed profile, the
    multiplicity, and the kind, 0 for a grow (a vertex appears), 1 for a
    split and 2 for a join of two cycles (both keep k and l).  No two
    moves share an increment: the kinds change the number of parts by 0,
    +1 and -1, and within a kind the removed parts differ."""
    for a, (r, x) in enumerate(parts):
        f = r * x
        cut = -E[r]
        yield cut + E[r + 1], f, 0
        # a split into (j, r + 1 - j) and its reverse give one key;
        # the middle term of an odd r has one order only
        for j in range(1, r // 2 + 1):
            yield cut + E[j] + E[r + 1 - j], 2 * f, 1
        if r % 2:
            yield cut + 2 * E[(r + 1) // 2], f, 1
        # joins of two cycles, from both orders
        if x > 1:
            yield cut - E[r] + E[2 * r + 1], r * (x - 1) * f, 2
        for j2, x2 in parts[a + 1:]:
            yield cut - E[j2] + E[r + j2 + 1], 2 * j2 * x2 * f, 2


def _linear_moves(src: Mapping[int, int], acc: dict[int, int], f: int, white: int,
                  black: int, join: int) -> None:
    """Add f times ((u+v) * grow + split_or_join)(src) to acc, both
    {packed profile: P} in a caller's slot layout: for every
    (inc, w, kind) of ``_profile_moves``, f * w times the moved P at
    profile + inc.  A grow is (P << white) + (P << black), a vertex of
    either color, a split is P and a join of two cycles is P << join."""
    E, get = _PK.E, acc.get
    for prof, P in src.items():
        moved = ((P << white) + (P << black), P, P << join)
        for inc, w, kind in _profile_moves(E, _PK.parts(prof)):
            t = prof + inc
            acc[t] = get(t, 0) + f * w * moved[kind]


# ---------------------------------------------------------------------------
# public operators, in the series algebra
# ---------------------------------------------------------------------------

def _parts_bound(series: GradedSeries) -> int:
    """Largest part size that occurs in the series."""
    return max((len(m) for _, _, m in series._terms), default=0)


def grow_cycle(series: GradedSeries) -> GradedSeries:
    """Lengthen one cycle by one: sum_r r * t_{r+1} * d/dt_r."""
    out = GradedSeries.zero(series.truncation)
    for r in range(1, _parts_bound(series) + 1):
        out = out + series.diff_t(r).mul_t(r + 1).scaled(r)
    return out


def split_or_join_cycles(series: GradedSeries) -> GradedSeries:
    """One-component cycle surgery.

    Splits one cycle of size r into an ordered pair (j, r + 1 - j), or
    joins an ordered pair of cycles (j, j2) into one of size j + j2 + 1:
    sum_r r * sum_j t_j t_{r+1-j} d/dt_r
    + sum_{j,j2} j * j2 * t_{j+j2+1} d^2/dt_j dt_j2.
    The combined move raises the weight by exactly one.
    """
    out = GradedSeries.zero(series.truncation)
    top = _parts_bound(series)
    for r in range(1, top + 1):
        cut = series.diff_t(r).scaled(r)
        for j in range(1, r + 1):
            out = out + cut.mul_t(j).mul_t(r + 1 - j)
        for j2 in range(1, top + 1):
            out = out + cut.diff_t(j2).mul_t(r + j2 + 1).scaled(j2)
    return out


def join_components(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """Join one cycle of a with one cycle of b into a single cycle.

    Bilinear: sum over ordered pairs (j, j2) of j*j2*t_{j+j2+1} times the
    two partial derivatives.  The result weight is weight(a) + weight(b)
    + 1 on homogeneous inputs.
    """
    out = GradedSeries.zero(min(a.truncation, b.truncation))
    db = [b.diff_t(j2).scaled(j2) for j2 in range(1, _parts_bound(b) + 1)]
    for j in range(1, _parts_bound(a) + 1):
        da = a.diff_t(j).scaled(j)
        for j2, dbj in enumerate(db, 1):
            out = out + (da * dbj).mul_t(j + j2 + 1)
    return out


# ---------------------------------------------------------------------------
# the degree recursion
# ---------------------------------------------------------------------------

Layout = tuple[tuple[int, ...], tuple[int, ...], dict[int, int], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=None)
def _layout(top: int) -> Layout:
    """The physical slots of a profile with k + l + 2g = top, the keys with
    k >= 1 and l = top - 2g - k >= 1, by k and falling g, so by increasing
    kl = l | k << bits: (kls, genera, index, rows), index the position of
    each kl, and rows[g], for each genus g < top // 2, the positions of
    its slots k = top - 1 - 2g, ..., 1, by falling k.  A stored count
    list and a v2 cache line hold a profile's counts in this order.
    Memoised: every top is at most DMAX_LIMIT + 1."""
    kls, genera = [], []
    for k in range(1, top):
        for g in range((top - 1 - k) // 2, -1, -1):
            kls.append((top - 2 * g - k) | k << _PK.bits)
            genera.append(g)
    index = {kl: i for i, kl in enumerate(kls)}
    rows = tuple(tuple(index[(top - 2 * g - k) | k << _PK.bits]
                       for k in range(top - 1 - 2 * g, 0, -1))
                 for g in range(top // 2))
    return tuple(kls), tuple(genera), index, rows


@lru_cache(maxsize=None)
def _profile_layout(prof: int) -> Layout:
    """``_layout`` of the packed profile prof, at its record's top.
    Memoised per profile: at most the partitions of 1 .. DMAX_LIMIT."""
    return _layout(_PK.record(prof)[3])


def _packed_partitions(n: int) -> Iterator[tuple[Multiplicities, int]]:
    """The partitions m of n >= 0 in canonical profile order (by
    multiplicity vector), each with its packed profile, the sum of m_i *
    E[i] as ``_PK.profile`` packs it."""
    units = _PK.E[1:]
    return ((m, sum(map(mul, m, units))) for m in sorted(partitions(n)))


@lru_cache(maxsize=None)
def _partition_profiles(n: int) -> tuple[int, ...]:
    """The packed profiles of ``_packed_partitions(n)``, in its order.
    Memoised: n is at most DMAX_LIMIT, and only the ints are kept."""
    return tuple(prof for _, prof in _packed_partitions(n))


def _genus_row(d: int, lists: Iterable[tuple[int, list[int]]]) -> list[int]:
    """The genus row of degree d from its (top, counts) lists: the lists
    of one top are summed slot by slot, then each sum goes to its slot's
    genus."""
    by_top: dict[int, list[list[int]]] = {}
    for top, counts in lists:
        by_top.setdefault(top, []).append(counts)
    row = [0] * ((d + 1) // 2)
    for top, same in by_top.items():
        for g, v in zip(_layout(top)[1], map(sum, zip(*same))):
            row[g] += v
    return row


def _filing(dmax: int) -> tuple[list[dict[int, list[int]]], list[list[int]]]:
    """Empty profile groups and zero genus rows of degrees 1 .. dmax, for
    outside counts to be filed into; a dmax below 1 or past DMAX_LIMIT
    raises ValueError."""
    if dmax < 1:
        raise ValueError("need at least the degree-1 piece")
    if dmax > DMAX_LIMIT:
        raise ValueError(f"degree {dmax} is beyond DMAX_LIMIT = {DMAX_LIMIT}")
    return [{} for _ in range(dmax)], [[0] * ((d + 1) // 2) for d in range(1, dmax + 1)]


def _refuse_count(dmax: int, d: int, key: RawKey, num: int, den: int,
                  w: int | None) -> None:
    """Raise the error of the count num/den at key in piece d (w: the
    weight ``_checked_groups`` found for its profile) that did not pass: a
    zero den, a degree outside 1 .. dmax, a profile of another weight, a
    zero or negative marked count and a key without an integer genus >= 0
    raise ValueError (any failure at d = 1: the seed's), a marked count
    d * num / den that is not an integer ArithmeticError."""
    if not den:
        raise ValueError(f"piece {d}: count at {key!r} has denominator 0")
    v, r = divmod(num * d, den)
    if r:
        raise ArithmeticError(f"marked count at {key!r} is not integral")
    if d == 1:
        raise ValueError("degree-1 piece must be exactly u*v*t1")
    if not 1 <= d <= dmax:
        raise ValueError(f"degree {d} outside 1..{dmax}")
    if w != d:
        raise ValueError(f"piece {d} is not homogeneous of weight {d}")
    if v < 1:  # counts of maps: the step's slot bound needs them >= 0
        raise ValueError(f"piece {d}: marked count at {key!r} is "
                         f"{'negative' if v else 'zero'}")
    genus_at(d, key)  # raises the key's error


def _checked_groups(dmax: int, terms: Iterable[tuple[int, RawKey, int, int]]
                    ) -> tuple[list[dict[int, list[int]]], list[list[int]]]:
    """The profile groups and genus rows of outside counts, the
    (d, key, num, den) of weighted counts num/den of degrees 1 .. dmax,
    in any order, in one pass that files each marked count d * num / den
    as it checks it.  Each profile m of weight w in 1 .. dmax is looked
    up once (its count list, genus row, top = w + 2 - parts and the
    ``_layout`` index of that top); a count of degree
    d passes at (k, l, m) when w = d, k and l are >= 1, twice its genus,
    w + 2 - parts - k - l, is even and >= 0, and the marked count is a
    positive integer; ``_refuse_count`` names what a count that does not
    pass fails.  Then degree 1 must be the seed, no degree empty, and no
    key may repeat (its counts would all be in the genus row, one in its
    list); ValueError."""
    groups, rows = _filing(dmax)
    bits, found = _PK.bits, {}
    for d, key, num, den in terms:
        k, l, m = key
        entry = found.get(m)
        if entry is None:
            w = partition_weight(m)
            if min(m, default=0) < 0 or not 1 <= w <= dmax:
                entry = found[m] = None, -1, None, None, None
            else:
                top = w + 2 - sum(m)
                index = _layout(top)[2]
                group = groups[w - 1].setdefault(_PK.profile(m)[1], [0] * len(index))
                entry = found[m] = w, top, group, rows[w - 1], index
        w, top, group, row, index = entry
        v, r = divmod(num * d, den) if den else (0, 0)  # den = 0 is refused below
        twice = top - k - l
        if r or twice < 0 or twice & 1 or k < 1 or l < 1 or v < 1 or w != d:
            _refuse_count(dmax, d, key, num, den, w)
        group[index[l | k << bits]] = v
        row[twice >> 1] += v
    if rows[0] != [1]:  # its one physical key is the seed's
        raise ValueError("degree-1 piece must be exactly u*v*t1")
    for d, profiles in enumerate(groups[1:], 2):
        if not profiles:
            raise ValueError(f"piece {d} is empty")
    for i, profiles in enumerate(groups):
        if sum(rows[i]) != sum(map(sum, profiles.values())):
            raise ValueError(f"piece {i + 1} repeats a key")
    return groups, rows


@lru_cache(maxsize=None)
def indecomposable_count(n: int) -> int:
    """Indecomposable permutations of n symbols (OEIS A003319); the
    marked counts of the degree-d piece sum to indecomposable_count(d + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = [0, 1]
    for m in range(2, n + 1):
        a.append(factorial(m) - sum(a[j] * factorial(m - j) for j in range(1, m)))
    return a[n]


@lru_cache(maxsize=None)
def _step_denominator(d: int) -> int:
    """C, the common denominator of the degree-d step: with F_n = M_n / n,
    the moves on F_{d-1} carry 1/(d - 1) and the join of F_n and F_{d-1-n}
    carries 1/(n (d - 1 - n))."""
    return lcm(d - 1, *(n * (d - 1 - n) for n in range(1, d - 1)))


def _slot_width(dmax: int) -> int:
    """W, the slot width in bits for degrees up to dmax: the largest
    bitlen(C_d) + bitlen(A003319(d + 1)), d <= dmax, rounded up to whole
    bytes.  It holds the true step total C_d * A003319(d + 1), and leaves
    every true count below 2^h, h = W - bitlen(C_d), which the decode's
    one test needs (module docstring)."""
    bits = max((_step_denominator(d).bit_length() + indecomposable_count(d + 1).bit_length()
                for d in range(2, dmax + 1)), default=1)
    return -(-bits // 8) * 8


def _kron_encode(groups: Mapping[int, Sequence[int]], d: int, W: int,
                 K: int) -> dict[int, int]:
    """Degree d's groups in their {packed profile: P} form, each count in
    its W-bit slot k + K*g, packed a genus row at a time (module
    docstring).  A count of 2^W or more raises ArithmeticError naming the
    first such key in ``_layout`` order."""
    slots, row = {}, W * K
    for prof, counts in groups.items():
        kls, _, _, rows = _profile_layout(prof)
        if max(counts) >> W:
            kl = next(kl for kl, v in zip(kls, counts) if v >> W)
            raise ArithmeticError(f"degree {d}: marked count at "
                                  f"{_PK.decode(prof | kl)!r} needs more than {W} bits")
        P = 0
        for g, falling in enumerate(rows):
            R = 0
            for i in falling:
                R = R << W | counts[i]
            P |= R << W + row * g
        slots[prof] = P
    return slots


def _step_total(sums: Sequence[int], d: int) -> int:
    """T_d, the sum of all slots of the degree-d step (module docstring),
    from the count sums of degrees 1 .. d-1."""
    return _step_denominator(d) * ((d + 1) * sums[d - 2] + sum(
        sums[n - 1] * sums[d - 2 - n] for n in range(1, d - 1)))


def _next_marked(kron: list[dict[int, int]], sums: list[int], d: int, W: int,
                 K: int) -> dict[int, int]:
    """C times the marked piece of weight d, as {packed profile: P}, from
    the pieces 1 .. d-1 in that form (``kron``) and their count sums,
    after the step total T_d (module docstring) is checked against 2^W.

    d*F_d = ((u+v)*grow + split_or_join) F_{d-1}
            + sum_{n=1}^{d-2} join_components(F_n, F_{d-1-n});
    with F_n = (marked_n)/n every contribution is integral only as a
    whole, so everything is accumulated over the common denominator C.
    Both join_components and the denominator n*(d-1-n) are symmetric
    under n <-> d-1-n, so the pair sum runs over n <= (d-1)/2 and doubles
    each term with n != d-1-n; the square n = d-1-n takes each unordered
    pair of profiles once, doubled when they differ.
    """
    if d < 2:
        raise ValueError("the seed piece is fixed, recursion starts at d = 2")
    C, total = _step_denominator(d), _step_total(sums, d)
    if total >> W:
        raise ArithmeticError(
            f"computed degree {d}: step total {total} does not fit {W}-bit slots")
    E = _PK.E
    acc: dict[int, int] = {}
    get = acc.get
    _linear_moves(kron[d - 2], acc, C // (d - 1), W, 0, W * K)
    cuts = {}  # per profile: (profile - E[j], j * m_j, j) for each part j
    for n in range(1, d - 1):
        cuts[n] = [(P, [(prof - E[j], j * x, j) for j, x in _PK.parts(prof)])
                   for prof, P in kron[n - 1].items()]
    for n in range(1, (d - 1) // 2 + 1):
        n2 = d - 1 - n
        factor = C // (n * n2)
        square = n == n2
        a, b = cuts[n], cuts[n2]
        for i, (Pa, ca) in enumerate(a):
            for i2 in range(i if square else 0, len(b)):
                Pb, cb = b[i2]
                Q = Pa * Pb * (factor if square and i2 == i else 2 * factor)
                for qa, wa, ja in ca:
                    for qb, wb, jb in cb:
                        t = qa + qb + E[ja + jb + 1]
                        acc[t] = get(t, 0) + wa * wb * Q
    return acc


def _physical_slots(top: int, W: int, K: int, h: int) -> tuple[list[int], int, int, int]:
    """The physical slots of a profile with k + l + 2g = top in W-bit slots
    k + K*g, as (offsets, mask, size, bad): offsets the byte offset of
    each slot of ``_layout(top)``, in its order; mask the W-bit fields of
    those slots; size the bytes of its top // 2 genus rows, which hold
    every such slot; bad every bit but the low h bits of those slots."""
    wb, ones, offsets = W // 8, 0, []
    for kl, g in zip(*_layout(top)[:2]):
        s = (kl >> _PK.bits) + K * g
        offsets.append(s * wb)
        ones |= 1 << W * s
    return offsets, ones * ((1 << W) - 1), wb * K * (top // 2), ~(ones * ((1 << h) - 1))


def _scanned_counts(P: int, prof: int, d: int, C: int, W: int, K: int,
                    layout: tuple) -> list[int]:
    """The counts of the physical slots of P (``_decode_degree``'s layout
    of prof's top), each slot divided by C, read slot by slot: a nonzero
    slot outside them raises the ValueError of the lowest such key, whose
    k < 1 or l < 1 (every slot with k, l >= 1 is in the mask), and a slot
    that C does not divide raises ArithmeticError."""
    offsets, mask, size, _ = layout
    m, _, _, top = _PK.record(prof)
    stray = P & ~mask
    if stray:
        s = ((stray & -stray).bit_length() - 1) // W
        k, g = s % K, s // K
        genus_at(d, (k, top - 2 * g - k, m))  # raises
    raw, wb, counts = P.to_bytes(size, "little"), W // 8, []
    for s, kl in zip(offsets, _layout(top)[0]):
        v, r = divmod(int.from_bytes(raw[s:s + wb], "little"), C)
        if r:
            key = (kl >> _PK.bits, kl & _PK.mask, m)
            raise ArithmeticError(f"marked count at {key!r} is not integral")
        counts.append(v)
    return counts


def _decode_degree(acc: Mapping[int, int], d: int, W: int,
                   K: int) -> tuple[dict[int, list[int]], list[int], dict[int, int]]:
    """The groups, genus row and slot form {profile: P // C} of the
    degree-d step's output ``acc``: slot k + K*g of a profile's P holds C
    times the count of (k, top - 2g - k, m), top = d + 2 - parts.  A count
    that is not integral, a profile of another weight, a nonzero slot with
    k < 1 or l < 1, and counts that do not sum to A003319(d + 1) are
    engine invariant failures and raise ArithmeticError.

    Per profile, Q, R = divmod(P, C) and one ``Q & bad`` test, bad every
    bit but the low h = W - bitlen(C) bits of each physical slot
    (``_physical_slots``, built once per top), check every slot at once
    (module docstring); then Q fits the rows those slots span, so
    ``to_bytes`` runs at their fixed size, and the count list is Q's
    physical slots.  On a failed test ``_scanned_counts`` reads P slot by
    slot and raises the fault it finds.  Q is the slot form of the counts.
    A profile without a count (P = 0) is left out.
    """
    C, wb, from_bytes = _step_denominator(d), W // 8, int.from_bytes
    h = W - C.bit_length()  # >= bitlen(A003319(d + 1)) (_slot_width)
    groups: dict[int, list[int]] = {}
    lists: list[tuple[int, list[int]]] = []  # (top, counts), for the genus row
    stored: dict[int, int] = {}
    layouts: dict[int, tuple] = {}  # per top: offsets, mask, size, bad
    try:
        for prof, P in acc.items():
            _, _, w, top = _PK.record(prof)
            if w != d:
                raise ValueError(f"piece {d} is not homogeneous of weight {d}")
            layout = layouts.get(top)
            if layout is None:
                layout = layouts[top] = _physical_slots(top, W, K, h)
            offsets, _, size, bad = layout
            Q, R = divmod(P, C)
            if R or Q & bad:
                counts = _scanned_counts(P, prof, d, C, W, K, layout)
            else:
                raw = Q.to_bytes(size, "little")
                counts = [from_bytes(raw[s:s + wb], "little") for s in offsets]
            if Q:
                groups[prof] = counts
                lists.append((top, counts))
                stored[prof] = Q
    except ValueError as exc:
        raise ArithmeticError(f"computed degree {d}: {exc}") from exc
    row = _genus_row(d, lists)
    want = indecomposable_count(d + 1)
    if sum(row) != want:
        raise ArithmeticError(f"computed degree {d}: marked counts sum to "
                              f"{sum(row)}, not A003319({d + 1}) = {want}")
    return groups, row, stored


def next_piece(pieces: Sequence[GradedSeries]) -> GradedSeries:
    """Piece of weight d = len(pieces) + 1 from the pieces 1 .. d - 1,
    which are checked as by the ConnectedSeries constructor."""
    d = len(pieces) + 1
    return ConnectedSeries(pieces).extended_to(d).piece(d)


class ConnectedSeries:
    """Homogeneous pieces of the connected series for degrees 1 .. dmax.

    One form is stored: per degree, the marked counts d * N by packed
    profile (in the package's one packing ``_PK``), {profile: [d * N,
    ...]}, beside its genus row.  A profile's list holds the count of each
    of its physical slots in the order of ``_layout`` (by kl = l | k <<
    bits; a key's code is profile + kl), which is also the order of its
    v2 cache line; 0 is a key without a count, and a profile without any
    is not stored.  Every k, l and m_i is at most dmax <= DMAX_LIMIT <
    2^bits, so no field carries.  A degree is checked and collapsed by
    genus once, where it enters: computed, by ``_decode_degree``; outside
    input, as it is filed (``_filing``): the constructor's pieces by
    ``_checked_groups``, a cache's lines by ``cache.parse_cache``.
    ``extended_to`` packs the stored groups into slots as they are, and a
    cut-back shares its parent's groups.  KP packs the groups it reads
    into slots once per evaluator; ``recursion_rhs`` keeps the groups'
    slot form and its step outputs in ``_steps``, built on first use,
    which a cut-back starts without.  Tuple keys and Fractions are built per
    call.
    """

    __slots__ = ("_groups", "_rows", "_steps")

    def __init__(self, pieces: Sequence[GradedSeries]):
        self._set(*_checked_groups(len(pieces), (
            (d, key, c.numerator, c.denominator)
            for d, piece in enumerate(pieces, 1) for key, c in piece._terms.items())))

    def _set(self, groups: Sequence[dict], rows: Sequence[list[int]]) -> "ConnectedSeries":
        self._groups, self._rows = tuple(groups), tuple(rows)
        self._steps: tuple | None = None  # of recursion_rhs: W, mask, sums, packed degrees, steps
        return self

    @classmethod
    def _stored(cls, groups: Sequence[dict], rows: Sequence[list[int]]) -> "ConnectedSeries":
        """Series of groups and genus rows that are already checked: the
        engine's own, or a cache's as ``cache.parse_cache`` filed them."""
        return cls.__new__(cls)._set(groups, rows)

    # -- construction ----------------------------------------------------------

    @classmethod
    def compute(cls, dmax: int) -> "ConnectedSeries":
        """Build the series up to degree dmax from the one-edge seed."""
        seed = {_PK.encode((0, 0, SEED_KEY[2])): [1]}  # its one slot, (1, 1)
        return cls._stored([seed], [[1]]).extended_to(dmax)

    def extended_to(self, dmax: int) -> "ConnectedSeries":
        """Same series computed (or cut back) to another degree bound; each
        added degree comes whole from the degree step, and a degree that
        fails a check of ``_next_marked`` or ``_decode_degree`` raises
        ArithmeticError (an engine invariant); a dmax past DMAX_LIMIT
        raises ValueError.  The stored degrees are packed once per call, in
        slots sized for dmax."""
        if dmax < 1:
            raise ValueError("dmax must be >= 1")
        if dmax > DMAX_LIMIT:
            raise ValueError(f"degree {dmax} is beyond DMAX_LIMIT = {DMAX_LIMIT}")
        if dmax <= self.dmax:
            return ConnectedSeries._stored(self._groups[:dmax], self._rows[:dmax]) \
                if dmax < self.dmax else self
        W, K = _slot_width(dmax), dmax + 1
        kron = [_kron_encode(stored, d, W, K) for d, stored in enumerate(self._groups, 1)]
        groups, rows = list(self._groups), list(self._rows)
        for d in range(self.dmax + 1, dmax + 1):
            keyed, row, slots = _decode_degree(
                _next_marked(kron, [sum(row) for row in rows], d, W, K), d, W, K)
            groups.append(keyed)
            kron.append(slots)
            rows.append(row)
        return ConnectedSeries._stored(groups, rows)

    # -- access ------------------------------------------------------------------

    @property
    def dmax(self) -> int:
        return len(self._groups)

    @property
    def pieces(self) -> tuple[GradedSeries, ...]:
        return tuple(self.piece(d) for d in range(1, self.dmax + 1))

    def marked_piece(self, d: int) -> dict[RawKey, int]:
        """d times the degree-d piece, with integer coefficients, by
        profile group and each group's slot order; a reader that needs
        an order sorts."""
        if not 1 <= d <= self.dmax:
            raise TruncationError(f"degree {d} outside 1..{self.dmax}")
        bits, mask, out = _PK.bits, _PK.mask, {}
        for prof, counts in self._groups[d - 1].items():
            m = _PK.record(prof)[0]
            for kl, v in zip(_profile_layout(prof)[0], counts):
                if v:
                    out[kl >> bits, kl & mask, m] = v
        return out

    def piece(self, d: int) -> GradedSeries:
        """The weighted counts of degree d, as Fractions."""
        return GradedSeries({key: Fraction(v, d) for key, v in self.marked_piece(d).items()},
                            self.dmax, _raw=True)

    def coefficient(self, k: int, l: int, m: Sequence[int]) -> Fraction:
        """Weighted count for the type (k, l, m); exact, 0 when absent
        (as is every k or l outside 1..d, before it is packed)."""
        d, prof = _PK.profile(m)
        if d > self.dmax:
            raise TruncationError(f"weight {d} beyond computed degree {self.dmax}")
        if not (1 <= k <= d and 1 <= l <= d):
            return Fraction(0)
        counts = self._groups[d - 1].get(prof)
        i = None if counts is None else _profile_layout(prof)[2].get(l | k << _PK.bits)
        return Fraction(0 if i is None else counts[i], d)

    def combined(self) -> GradedSeries:
        """All pieces merged into one series truncated at dmax."""
        terms = {key: c for piece in self.pieces for key, c in piece._terms.items()}
        return GradedSeries(terms, self.dmax, _raw=True)

    def __repr__(self) -> str:
        return f"ConnectedSeries(dmax={self.dmax})"


# ---------------------------------------------------------------------------
# partition function (disconnected series)
# ---------------------------------------------------------------------------

def partition_function(dmax: int) -> GradedSeries:
    """Exponential-form disconnected series, truncated at weight dmax.

    The weight-n piece is A^n(1)/n! where A applies (u+v)*grow,
    split_or_join, and multiplication by the seed monomial u*v*t1.
    Term-by-term this equals exp() of the connected series.  A dmax past
    DMAX_LIMIT raises ValueError.

    A^n(1) is kept in the (k, l) slots of the module docstring, which
    bound each by (dmax!)^2; each degree's slots are read once.
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    if dmax > DMAX_LIMIT:
        raise ValueError(f"degree {dmax} is beyond DMAX_LIMIT = {DMAX_LIMIT}")
    K, wb = dmax + 1, -(-(factorial(dmax) ** 2).bit_length() // 8)
    W, E1, from_bytes = 8 * wb, _PK.E[1], int.from_bytes
    z: dict[RawKey, Fraction] = {(0, 0, ()): Fraction(1)}
    x, fact = {0: 1}, 1  # A^0(1) = 1 in slot (0, 0) of the empty profile
    for n in range(1, dmax + 1):
        nxt: dict[int, int] = {}
        _linear_moves(x, nxt, 1, W, W * K, 0)
        for prof, P in x.items():  # times the seed monomial u*v*t1
            nxt[prof + E1] = nxt.get(prof + E1, 0) + (P << W * (K + 1))
        x, fact = nxt, fact * n
        for prof, P in x.items():
            m, raw = _PK.decode(prof)[2], P.to_bytes(wb * K * (n + 1), "little")
            for s in range(K * (n + 1)):  # l <= n
                c = from_bytes(raw[s * wb:(s + 1) * wb], "little")
                if c:
                    z[s % K, s // K, m] = Fraction(c, fact)
    out = GradedSeries(z, dmax, _raw=True)
    out.validate_disconnected()
    return out


# ---------------------------------------------------------------------------
# coefficient-level recursion (diagnostic identity, never a solver)
# ---------------------------------------------------------------------------


def recursion_rhs(cs: ConnectedSeries, k: int, l: int,
                  m: Sequence[int]) -> Fraction:
    """Evaluate the coefficient recursion right-hand side at (k, l, m).

    The value is the engine's degree step read at one key: the one-edge
    moves (``_profile_moves``) and component joins of ``_next_marked``
    applied to the series' stored degrees 1 .. d-1, divided by the
    degree d; the one-edge seed enters as a Kronecker term at d = 1.  It
    must agree with coefficient() on every key of a series the engine
    computed, and a stored series (loaded from a cache or given to the
    constructor) that fails it at some key does not satisfy the
    cut-and-join equation there; it is never used to build the table.
    The step runs without ``_decode_degree``'s integrality and A003319
    checks, so a corrupted series gets its exact value, integral or not.

    The key is slot k + K*g of its profile's polynomial in the step
    output, C_d times its marked count, so the value is that slot over
    C_d * d.  The degrees are packed and each degree's step output is
    kept on the series (``ConnectedSeries._steps``) with C_d * d and the
    row shift W*K, built on first use: a query of degree d packs only the
    degrees below d not yet packed, and a key then costs one dict read,
    one shift and one Fraction.

    A read cannot alias.  A key with k < 1, l < 1 or no integer genus
    g >= 0 is answered 0 before any slot is read; otherwise k + l + 2g =
    d + 2 - parts <= d + 1, so k <= d < K and the slot lies in row g.
    W is the bit length of the largest step total T_d (module docstring)
    that the series' own count sums give for d <= dmax: every count of
    the series is positive (the constructor and the cache reader refuse
    any other), so every slot is at most T_d < 2^W, and each stored count
    of degree n < dmax is at most S_n <= T_{n+1}, so no check of
    ``_kron_encode`` or ``_next_marked`` can fail.
    """
    d, prof = _PK.profile(m)
    if d > cs.dmax:
        raise TruncationError(f"weight {d} beyond computed degree {cs.dmax}")
    if d <= 1:  # no lower piece to insert an edge into; E[1] is t1's profile
        return Fraction(int(k == l == 1 and prof == _PK.E[1]))
    twice = _PK.record(prof)[3] - k - l  # 2g
    if k < 1 or l < 1 or twice < 0 or twice & 1:
        return Fraction(0)
    if cs._steps is None:
        sums = [sum(row) for row in cs._rows]
        W = max(_step_total(sums, n) for n in range(2, cs.dmax + 1)).bit_length()
        cs._steps = (W, (1 << W) - 1, sums, [], {})
    W, mask, sums, kron, steps = cs._steps
    step = steps.get(d)
    if step is None:
        K = cs.dmax + 1
        kron.extend(_kron_encode(cs._groups[n - 1], n, W, K) for n in range(len(kron) + 1, d))
        step = steps[d] = (_next_marked(kron, sums, d, W, K), _step_denominator(d) * d, W * K)
    acc, den, row = step
    return Fraction(acc.get(prof, 0) >> W * k + row * (twice >> 1) & mask, den)
