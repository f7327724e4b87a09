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
follows from weights < d and the seed alone.  Coefficient arithmetic is
exact throughout; internally each piece is manipulated as its "marked"
integer form (d times the weighted counts), which keeps the hot
convolution loops in plain big-integer arithmetic.

The degree recursion runs the moves on one kernel over packed keys: k,
l, m_1, m_2, ... sit in consecutive ``bits``-bit fields of one int, k
lowest, so a move adds precomputed unit vectors (1: a white vertex,
``V``: a black one, ``E[i]``: a part of size i) and the pair product of
two profiles is one integer addition.  Grow and split/join depend only
on a key's profile, so each packed profile gets one plan, built on first
use: the merged (increment, weight) pairs of (u+v)*grow + split_or_join,
and one loop adds each increment to the code of every key of that
profile.  ``partition_function`` and the KP evaluator run the same
kernel.  The public operators are sums of
``GradedSeries`` derivatives, t-multiplications and products instead, so
a piece assembled from them checks the kernel by other arithmetic.

Packed keys cannot carry or alias.  Packing is linear, so only the
vector of each emitted key matters, not the order of the additions that
build it.  E[i] is subtracted only from a key with m_i >= 1, so that
vector is non-negative, and each of its entries (k, l, every
multiplicity, every componentwise sum the pair product forms) is at most
the largest weight W the call can produce: a connected piece of weight n
has k, l, m_i <= n by the genus relation.  The width has 2^bits > W,
from the degree bound of the call, so every field holds its entry
exactly and distinct keys get distinct codes.  A planned increment is a
difference of unit vectors: it removes E[r] only for a part r of its own
profile (2 E[r] only when m_r >= 2) and is applied only to keys of that
profile, so code + inc is the packed form of the same target vector the
moves built unit by unit.

Every piece is symmetric under u <-> v, and the degree recursion computes
only its keys with k <= l.  A map is a transitive pair (sigma, tau) with
k = cycles of sigma, l = cycles of tau and m the cycle type of sigma*tau.
The swap (sigma, tau) -> (tau, sigma) keeps transitivity and exchanges k
and l, and tau*sigma = sigma^-1 (sigma*tau) sigma has the cycle type of
sigma*tau, so N(k, l, m) = N(l, k, m).  The k <= l half of a new piece
then follows from the lower pieces phase by phase:

* grow runs on the k <= l half of the previous piece.  The v shift of a
  half key stays in the half.  Its u shift lands in the half only when
  l - k >= 1; when l - k = 1 it lands on the diagonal, which also gets
  the v shift of the mirror key (l, k), outside the half but with the
  same coefficient, so that u shift counts twice.  So each profile plan
  keeps three lists, with the u-shift grow moves 0, 2 and 1 times, for
  l - k = 0, 1 and >= 2; the last is the full move.
* split/join keeps k and l, so it maps the half onto the half.
* a component join adds the (k, l) of its two factors, so its output has
  k <= l iff delta_a + delta_b <= 0, with delta = k - l.  The derivative
  buckets of the full lower pieces keep their entries sorted by delta (a
  derivative keeps k and l), and each delta-group of a is convolved with
  the prefix of b whose delta <= -delta_a.

Integrality is u <-> v-invariant, so it is checked on the half; the
degree step mirrors every key with k < l and returns whole degrees, whose
keys ``genus_row`` checks as it collapses them.  A computed key with
k > l is an invariant failure, never dropped or mirrored over.  The public operators
and ``partition_function`` take no shortcut: they act on any series,
symmetric or not, and the tests assemble the operators as the reference.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm
from operator import itemgetter
from typing import Mapping, Sequence

from .series import (
    GradedSeries,
    Multiplicities,
    RawKey,
    TruncationError,
    canonical_multiplicities,
    genus_row,
    multiplicities_decr,
    multiplicities_incr,
    partition_weight,
)

SEED_KEY: RawKey = (1, 1, (1,))


# ---------------------------------------------------------------------------
# packed-key kernel on {packed key: coefficient} dicts (int or Fraction
# coefficients; only integer factors are applied, so ints stay ints)
# ---------------------------------------------------------------------------

class _Packing:
    """Bit-field layout for keys whose entries are all at most ``bound``.

    Two memos are kept per packed profile (a key's fields above k and l),
    since keys of one computation share few profiles: the decoded profile
    with its part list, and the profile's one-edge move plans.  The unit
    vectors ``E[i]`` of the part sizes are built as callers first need
    them (``units``), so a large bound costs nothing up front.
    """

    __slots__ = ("bits", "mask", "V", "E", "_memo", "_plans")

    def __init__(self, bound: int):
        self.bits = bits = bound.bit_length()  # 2^bits > bound
        self.mask = (1 << bits) - 1
        self.V = 1 << bits
        self.E = [0]
        self._memo: dict[int, tuple[Multiplicities, tuple[tuple[int, int], ...]]] = {}
        self._plans: dict[int, tuple[list, list, list]] = {}

    def units(self, n: int) -> list[int]:
        """E with E[i] = 1 << bits*(i+1), the vector of a part of size i,
        built for every i <= n."""
        E, bits = self.E, self.bits
        for i in range(len(E), n + 1):
            E.append(1 << bits * (i + 1))
        return E

    def encode(self, key: RawKey) -> int:
        k, l, m = key
        bits = self.bits
        code = k | l << bits
        for i, x in enumerate(m, 2):
            code |= x << bits * i
        return code

    def _decoded(self, prof: int) -> tuple[Multiplicities, tuple[tuple[int, int], ...]]:
        bits, mask, code, out = self.bits, self.mask, prof, []
        while code:
            out.append(code & mask)
            code >>= bits
        entry = self._memo[prof] = (
            tuple(out), tuple((i, x) for i, x in enumerate(out, 1) if x))
        return entry

    def decode(self, code: int) -> RawKey:
        bits, mask = self.bits, self.mask
        prof = code >> 2 * bits
        entry = self._memo.get(prof) or self._decoded(prof)
        return (code & mask, code >> bits & mask, entry[0])

    def parts(self, code: int) -> tuple[tuple[int, int], ...]:
        """(i, m_i) for every part size i present in the key."""
        prof = code >> 2 * self.bits
        return (self._memo.get(prof) or self._decoded(prof))[1]

    def encode_terms(self, terms: Mapping[RawKey, object]) -> dict:
        """The packed {code: c} of a {key: c} dict: each profile's fields
        are packed once per call."""
        bits, fields, out = self.bits, {}, {}
        for (k, l, m), c in terms.items():
            prof = fields.get(m)
            if prof is None:
                prof = fields[m] = self.encode((0, 0, m))
            out[k | l << bits | prof] = c
        return out

    def decode_terms(self, terms: Mapping[int, object]) -> dict:
        """The {key: c} of a packed dict: decode with the memo read inline."""
        bits, mask, memo = self.bits, self.mask, self._memo
        shift = 2 * bits
        out = {}
        for code, c in terms.items():
            prof = code >> shift
            entry = memo.get(prof) or self._decoded(prof)
            out[code & mask, code >> bits & mask, entry[0]] = c
        return out

    def _planned(self, prof: int) -> tuple[list, list, list]:
        """The [(increment, weight), ...] moves of (u+v)*grow +
        split_or_join on a key of packed profile prof, one list per
        min(l - k, 2): the grow move with the u shift has weight 0, 2 and 1
        times its v-shift twin (see ``_edge_moves``).  Entries with the
        same increment are merged."""
        parts = (self._memo.get(prof) or self._decoded(prof))[1]
        E = self.units(sum(i * x for i, x in parts) + 1)
        V = self.V
        moves: dict[int, int] = {}
        grows = []  # the u-shift grow moves: the only moves that change k

        def add(inc: int, w: int) -> None:
            moves[inc] = moves.get(inc, 0) + w

        for a, (r, x) in enumerate(parts):
            f = r * x
            cut = -E[r]
            grows.append((cut + E[r + 1] + 1, f))
            add(cut + E[r + 1] + V, f)
            # a split into (j, r + 1 - j) and its reverse give one key;
            # the middle term of an odd r has one order only
            for j in range(1, r // 2 + 1):
                add(cut + E[j] + E[r + 1 - j], 2 * f)
            if r % 2:
                add(cut + 2 * E[(r + 1) // 2], f)
            # joins of two cycles, from both orders
            if x > 1:
                add(cut - E[r] + E[2 * r + 1], r * (x - 1) * f)
            for j2, x2 in parts[a + 1:]:
                add(cut - E[j2] + E[r + j2 + 1], 2 * j2 * x2 * f)
        same = list(moves.items())
        plans = self._plans[prof] = (
            same, same + [(inc, 2 * f) for inc, f in grows], same + grows)
        return plans


def _edge_moves(pk: _Packing, src: Mapping, out: dict, factor=1,
                half=False) -> None:
    """Add factor * ((u+v) * grow + split_or_join)(src) to out, where grow
    is sum_r r t_{r+1} d/dt_r: one pass over src, adding each planned
    increment of a key's profile to its code.

    With half, src is a u <-> v-symmetric series and only the k <= l half
    of the result is emitted: keys with k > l are skipped, and each other
    key takes the grow move with the v shift, with the u shift when
    l - k >= 2, twice when l - k = 1 (its diagonal target also gets the
    mirror key's v shift) and not when k = l.
    """
    bits, mask, shift = pk.bits, pk.mask, 2 * pk.bits
    plans, planned, get = pk._plans, pk._planned, out.get
    for code, c in src.items():
        prof = code >> shift
        plan = plans.get(prof) or planned(prof)
        if half:
            gap = (code >> bits & mask) - (code & mask)  # l - k
            if gap < 0:
                continue
            moves = plan[gap] if gap < 2 else plan[2]
        else:
            moves = plan[2]
        fc = factor * c
        for inc, w in moves:
            key = code + inc
            out[key] = get(key, 0) + w * fc


def _diff_buckets(pk: _Packing, src: Mapping) -> list:
    """j * d/dt_j (src) for every j, as a sorted [(j, terms, deltas)]:
    terms is [(key, coeff), ...] sorted by delta = k - l, and deltas lists
    the delta of each entry (a derivative keeps k and l)."""
    E, bits, mask = pk.E, pk.bits, pk.mask
    buckets: dict[int, list] = {}
    for code, c in src.items():
        delta = (code & mask) - (code >> bits & mask)
        for j, x in pk.parts(code):
            buckets.setdefault(j, []).append((delta, code - E[j], j * x * c))
    out = []
    for j, entries in sorted(buckets.items()):
        entries.sort(key=itemgetter(0))
        out.append((j, [(key, c) for _, key, c in entries],
                    [delta for delta, _, _ in entries]))
    return out


def _convolve(ta: list, tb: list, out: dict, factor=1, inc=0) -> None:
    """Add factor * (ta)(tb), every key shifted by inc, to out: the product
    of two packed [(key, coeff), ...] lists is one key addition per pair.
    Zero sums stay in out."""
    get = out.get
    for c1, v1 in ta:
        kc = c1 + inc
        fv = factor * v1
        for c2, v2 in tb:
            key = kc + c2
            out[key] = get(key, 0) + fv * v2


def _join_pair(pk: _Packing, da: list, db: list, out: dict, factor=1) -> None:
    """Add to out the keys with k <= l of factor * sum_{j,j2} t_{j+j2+1}
    (j d/dt_j a)(j2 d/dt_j2 b), from the derivative buckets da, db of a
    and b: each delta-group of a meets the prefix of b with delta <=
    -delta_a."""
    E = pk.E
    for j, ta, deltas in da:
        for j2, tb, deltas2 in db:
            inc = E[j + j2 + 1]
            start = 0
            while start < len(ta):
                delta = deltas[start]
                stop = bisect_right(deltas, delta, start)
                _convolve(ta[start:stop], tb[:bisect_right(deltas2, -delta)],
                          out, factor, inc)
                start = stop


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

def _marked_terms(terms: Mapping[RawKey, object], d: int) -> dict[RawKey, int]:
    """d times the coefficients, as exact integers (the marked counts)."""
    out: dict[RawKey, int] = {}
    for key, c in terms.items():
        if isinstance(c, Fraction):
            v, r = divmod(c.numerator * d, c.denominator)
            if r:
                raise ArithmeticError(f"marked count at {key!r} is not integral")
        else:
            v = c * d
        out[key] = v
    return out


def _next_marked(pk: _Packing, packed: list[dict], buckets: list,
                 d: int) -> dict[int, int]:
    """The whole packed marked piece of weight d, from the full packed
    marked pieces 1 .. d-1: the last pass mirrors each key with k < l.

    d*F_d = ((u+v)*grow + split_or_join) F_{d-1}
            + sum_{n=1}^{d-2} join_components(F_n, F_{d-1-n});
    with F_n = (marked_n)/n every contribution is integral only as a
    whole, so everything is accumulated over the common denominator C.
    Both join_components and the denominator n*(d-1-n) are symmetric
    under n <-> d-1-n, so the pair sum runs over n <= (d-1)/2 and doubles
    each term with n != d-1-n.  ``buckets`` holds the derivative buckets
    of the pieces and grows with them, so each is built once.

    Every phase emits only keys with k <= l (see the module docstring):
    grow and split/join run as one planned move on the k <= l half of
    F_{d-1}, grow with the u shift doubled onto the diagonal, and each
    component join meets a delta-group of its first factor with the
    delta <= -delta_a prefix of its second.
    """
    if d < 2:
        raise ValueError("the seed piece is fixed, recursion starts at d = 2")
    pk.units(d)  # every part size of this step is at most d
    while len(buckets) < d - 2:
        buckets.append(_diff_buckets(pk, packed[len(buckets)]))
    bits, mask, V = pk.bits, pk.mask, pk.V
    C = lcm(d - 1, *(n * (d - 1 - n) for n in range(1, d - 1)))
    acc: dict = {}
    _edge_moves(pk, packed[d - 2], acc, C // (d - 1), True)
    for n in range(1, (d - 1) // 2 + 1):
        n2 = d - 1 - n
        factor = C // (n * n2) * (1 if n == n2 else 2)
        _join_pair(pk, buckets[n - 1], buckets[n2 - 1], acc, factor)
    out: dict[int, int] = {}
    mirror: dict[int, int] = {}  # after the half: callers list keys in this order
    for code, v in acc.items():
        if v:
            q, r = divmod(v, C)
            if r:
                raise ArithmeticError(
                    f"marked count at {pk.decode(code)!r} is not integral")
            gap = (code >> bits & mask) - (code & mask)  # l - k
            if gap < 0:
                raise ArithmeticError(
                    f"computed degree {d}: key {pk.decode(code)!r} has k > l")
            out[code] = q
            if gap:
                mirror[code + gap - gap * V] = q  # (k, l) -> (l, k)
    out.update(mirror)
    return out


def next_piece(pieces: Sequence[GradedSeries]) -> GradedSeries:
    """Piece of weight d = len(pieces) + 1 from the pieces 1 .. d - 1,
    which are checked as by the ConnectedSeries constructor."""
    d = len(pieces) + 1
    return ConnectedSeries(pieces).extended_to(d).piece(d)


class ConnectedSeries:
    """Homogeneous pieces of the connected series for degrees 1 .. dmax.

    Only the marked counts are stored: per degree d, {(k, l, m): d * N}
    with int values, beside the degree's genus row.  ``series.genus_row``
    checks a degree's keys as it collapses them, once, where the degree
    enters; outside input (the constructor's pieces, a cache) also has
    its seed, integrality and nonempty pieces checked.  The Fraction
    views are built on each call and not kept: ``piece(d)`` builds degree
    d only, and ``pieces`` and ``combined`` are made of it.
    ``_packed_index`` packs each degree once, with one ``_Packing(dmax)``
    per series, for the KP evaluator and ``recursion_rhs``, which also
    keeps its per-profile moves read against that index in ``_moves``.
    """

    __slots__ = ("_marked", "_rows", "_pk", "_index", "_moves")

    def __init__(self, pieces: Sequence[GradedSeries]):
        self._set([_marked_terms(p._terms, d) for d, p in enumerate(pieces, 1)])

    def _set(self, marked: Sequence[dict[RawKey, int]],
             rows: Sequence[list[int]] | None = None) -> None:
        """Store marked counts with their genus rows.  Without ``rows``
        the counts are outside input, and the seed, each degree and every
        key are checked while the rows are collapsed."""
        if rows is None:
            if not marked:
                raise ValueError("need at least the degree-1 piece")
            if marked[0] != {SEED_KEY: 1}:
                raise ValueError("degree-1 piece must be exactly u*v*t1")
            rows = []
            for d, piece in enumerate(marked, 1):
                if not piece:
                    raise ValueError(f"piece {d} is empty")
                rows.append(genus_row(d, piece))
        self._marked = tuple(marked)
        self._rows = tuple(rows)
        self._pk = _Packing(len(marked))  # k, l, m_i <= degree <= dmax
        self._index: list[dict[int, dict[int, int]]] = []
        self._moves: dict[Multiplicities, tuple] = {}  # of recursion_rhs

    @classmethod
    def _from_marked(cls, marked: Sequence[dict[RawKey, int]],
                     rows: Sequence[list[int]] | None = None) -> "ConnectedSeries":
        """Series of marked counts: with ``rows``, the engine's own degrees
        and their genus rows, trusted; without, outside input (a cache),
        checked as by the constructor."""
        series = cls.__new__(cls)
        series._set(marked, rows)
        return series

    # -- construction ----------------------------------------------------------

    @classmethod
    def compute(cls, dmax: int) -> "ConnectedSeries":
        """Build the series up to degree dmax from the one-edge seed."""
        return cls._from_marked([{SEED_KEY: 1}], [[1]]).extended_to(dmax)

    def extended_to(self, dmax: int) -> "ConnectedSeries":
        """Same series computed (or cut back) to another degree bound; each
        added degree comes whole from the degree step, and one whose keys
        fail the checks of ``genus_row`` raises ArithmeticError (an engine
        invariant)."""
        if dmax < 1:
            raise ValueError("dmax must be >= 1")
        if dmax <= self.dmax:
            return ConnectedSeries._from_marked(self._marked[:dmax], self._rows[:dmax]) \
                if dmax < self.dmax else self
        pk = _Packing(dmax)  # checked pieces: k, l, m_i <= degree <= dmax
        packed = [pk.encode_terms(t) for t in self._marked]
        marked, rows = list(self._marked), list(self._rows)
        buckets: list = []
        for d in range(self.dmax + 1, dmax + 1):
            full = _next_marked(pk, packed, buckets, d)
            piece = pk.decode_terms(full)
            try:
                rows.append(genus_row(d, piece))
            except ValueError as exc:
                raise ArithmeticError(f"computed degree {d}: {exc}") from exc
            packed.append(full)
            marked.append(piece)
        return ConnectedSeries._from_marked(marked, rows)

    # -- access ------------------------------------------------------------------

    @property
    def dmax(self) -> int:
        return len(self._marked)

    @property
    def pieces(self) -> tuple[GradedSeries, ...]:
        return tuple(self.piece(d) for d in range(1, self.dmax + 1))

    def _packed_index(self, top: int) -> list[dict[int, dict[int, int]]]:
        """Per degree d, at least up to top, at index d - 1: the marked
        counts grouped by packed profile, {profile: {kl: d * N}}, where a
        key's code in the series' one packing ``_pk`` is profile + kl,
        profile holding the fields above k and l and kl = k | l << bits.
        Each group iterates by increasing kl, so by l and then k.  Degrees
        are added as a caller first needs them."""
        index, pk = self._index, self._pk
        bits = pk.bits
        for marked in self._marked[len(index):top]:
            by_m: dict[Multiplicities, list] = {}
            for (k, l, m), v in marked.items():
                group = by_m.get(m)
                if group is None:
                    group = by_m[m] = []
                group.append((k | l << bits, v))
            index.append({pk.encode((0, 0, m)): dict(sorted(group))
                          for m, group in by_m.items()})
        return index

    def piece(self, d: int) -> GradedSeries:
        """The weighted counts of degree d, as Fractions."""
        if not 1 <= d <= self.dmax:
            raise TruncationError(f"degree {d} outside 1..{self.dmax}")
        marked = self._marked[d - 1]
        return GradedSeries({key: Fraction(v, d) for key, v in marked.items()},
                            self.dmax, _raw=True)

    def coefficient(self, k: int, l: int, m: Sequence[int]) -> Fraction:
        """Weighted count for the type (k, l, m); exact, 0 when absent."""
        mm = canonical_multiplicities(m)
        d = partition_weight(mm)
        if d > self.dmax:
            raise TruncationError(f"weight {d} beyond computed degree {self.dmax}")
        if d == 0 or k < 1 or l < 1:
            return Fraction(0)
        return Fraction(self._marked[d - 1].get((k, l, mm), 0), d)

    def combined(self) -> GradedSeries:
        """All pieces merged into one series truncated at dmax."""
        terms = {key: c for piece in self.pieces for key, c in piece._terms.items()}
        return GradedSeries(terms, self.dmax, _raw=True)

    def marked_piece(self, d: int) -> dict[RawKey, int]:
        """d times the degree-d piece, with integer coefficients."""
        if not 1 <= d <= self.dmax:
            raise TruncationError(f"degree {d} outside 1..{self.dmax}")
        return dict(self._marked[d - 1])

    def __repr__(self) -> str:
        return f"ConnectedSeries(dmax={self.dmax})"


# ---------------------------------------------------------------------------
# partition function (disconnected series)
# ---------------------------------------------------------------------------

def partition_function(dmax: int) -> GradedSeries:
    """Exponential-form disconnected series, truncated at weight dmax.

    The weight-n piece is A^n(1)/n! where A applies (u+v)*grow,
    split_or_join, and multiplication by the seed monomial u*v*t1.
    Term-by-term this equals exp() of the connected series.
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    z: dict[RawKey, Fraction] = {(0, 0, ()): Fraction(1)}
    pk = _Packing(max(dmax, 1))  # k, l, m_i <= n in the weight-n piece
    seed = pk.encode(SEED_KEY)
    x: dict = {0: 1}
    fact = 1
    for n in range(1, dmax + 1):
        nxt: dict = {}
        _edge_moves(pk, x, nxt)
        for code, c in x.items():
            nxt[code + seed] = nxt.get(code + seed, 0) + c
        x = {code: c for code, c in nxt.items() if c}
        fact *= n
        for code, c in x.items():
            z[pk.decode(code)] = Fraction(c, fact)
    out = GradedSeries(z, dmax, _raw=True)
    out.validate_disconnected()
    return out


# ---------------------------------------------------------------------------
# coefficient-level recursion (diagnostic identity, never a solver)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _move_plan(m: Multiplicities) -> tuple[tuple, tuple]:
    """The reference keys of every move that ends at profile m, with their
    insertion multiplicities; memoised per canonical profile (at most the
    partitions of weight <= dmax).

    Returns (inpiece, pairs).  inpiece lists (dk, dl, ref, factor): the
    move reads the marked count of (k - dk, l - dl, ref) one weight below.
    pairs lists (w1, factor, r1, r2): the move reads the marked counts of
    (k1, l1, r1) at weight w1 and of (k - k1, l - l1, r2) at the
    complementary weight, over all k1 < k, l1 < l.  Entries that name the
    same reference keys are merged by adding their factors.
    """
    sizes = [i + 1 for i, x in enumerate(m) if x]
    inpiece: dict[tuple, int] = {}

    def add(dk: int, dl: int, ref: Multiplicities, f: int) -> None:
        inpiece[dk, dl, ref] = inpiece.get((dk, dl, ref), 0) + f

    # double-edge insertion: a cycle i-1 grew to i, a vertex was added
    for i in sizes:
        if i >= 2:
            ref = multiplicities_incr(multiplicities_decr(m, i), i - 1)
            f = (i - 1) * (m[i - 2] + 1)
            add(1, 0, ref, f)
            add(0, 1, ref, f)

    # one cycle i-1 was split into j + j2 (ordered pairs)
    for j in sizes:
        for j2 in sizes:
            if j == j2 and m[j - 1] < 2:
                continue
            i = j + j2
            prev = m[i - 2] if i - 1 <= len(m) else 0
            f = (i - 1) * (prev + 1 - (j == 1) - (j2 == 1))
            if f:
                base = multiplicities_decr(multiplicities_decr(m, j), j2)
                add(0, 0, multiplicities_incr(base, i - 1), f)

    # two cycles j, j2 were joined into c = j + j2 + 1, either of one
    # component or of two separate components; in the latter the other
    # parts are shared between the components in every way
    pairs: dict[tuple, int] = {}
    for c in sizes:
        if c < 3:
            continue
        i = c - 1
        base = multiplicities_decr(m, c)
        for j in range(1, i):
            j2 = i - j
            mj = m[j - 1] if j <= len(m) else 0
            mj2 = m[j2 - 1] if j2 <= len(m) else 0
            f = j * j2 * (mj + 1) * (mj2 + 1 + (j == j2))
            add(0, 0, multiplicities_incr(multiplicities_incr(base, j), j2), f)
        for choice in product(*(range(x + 1) for x in base)):
            m1 = canonical_multiplicities(choice)
            m2 = canonical_multiplicities(tuple(t - x for t, x in zip(base, choice)))
            w = partition_weight(m1)
            for j in range(1, i):
                j2 = i - j
                f1 = m1[j - 1] + 1 if j <= len(m1) else 1
                f2 = m2[j2 - 1] + 1 if j2 <= len(m2) else 1
                move = (w + j, multiplicities_incr(m1, j), multiplicities_incr(m2, j2))
                pairs[move] = pairs.get(move, 0) + j * j2 * f1 * f2

    return (tuple((dk, dl, ref, f) for (dk, dl, ref), f in inpiece.items()),
            tuple((w1, f, r1, r2) for (w1, r1, r2), f in pairs.items()))


def _planned_moves(cs: ConnectedSeries, mm: Multiplicities,
                   d: int) -> tuple[tuple, tuple]:
    """The moves of ``_move_plan(mm)`` read against the series' packed
    index, once per series and profile, each factor scaled to a term of
    one numerator over (d - 1)!: in-piece (get, dkl, f), where get probes
    the reference profile's group one weight below at kl - dkl; pair
    (entries, get2, f), the r1 group's (kl1, count) pairs and the probe
    of the r2 group."""
    moves = cs._moves.get(mm)
    if moves is None:
        index, pk = cs._packed_index(d - 1), cs._pk
        top, empty = factorial(d - 1), {}

        def group(w: int, ref: Multiplicities) -> dict:
            return index[w - 1].get(pk.encode((0, 0, ref)), empty)

        inpiece, pairs = _move_plan(mm)
        moves = cs._moves[mm] = (
            tuple((group(d - 1, ref).get, dk | dl << pk.bits, f * (top // (d - 1)))
                  for dk, dl, ref, f in inpiece),
            tuple((group(w1, r1).items(), group(d - 1 - w1, r2).get,
                   f * (top // (w1 * (d - 1 - w1))))
                  for w1, f, r1, r2 in pairs))
    return moves


def recursion_rhs(cs: ConnectedSeries, k: int, l: int,
                  m: Sequence[int]) -> Fraction:
    """Evaluate the coefficient recursion right-hand side at (k, l, m).

    Sums, over the four one-edge-insertion moves, the lower-degree
    weighted counts times their insertion multiplicities, divided by the
    degree d; the one-edge seed enters as a Kronecker term at d = 1.
    Evaluated purely from the already computed table, this must agree
    with coefficient() on every key (exercised by the test suite); it is
    never used to build the table.  The moves read canonical keys of known
    weight straight from that piece's marked counts M_w = w * N_w: the
    three in-piece moves sum to S / (d - 1), and each two-component move
    adds P / (w1 * (d - 1 - w1)), S and P integers.  Both denominators
    divide (d - 1)! (w1 * (d - 1 - w1) divides w1! * (d - 1 - w1)!), so the
    key sums one integer numerator over (d - 1)! and returns it over d!.

    Which profiles a move reads, and with what multiplicity, depends only
    on m: a move changes k and l by a fixed shift (in-piece) or shares
    them between two components (pair), but its profiles and factors never
    involve k or l.  So the moves come from ``_move_plan(m)``, built once
    per profile, and are read against the series' packed index
    (``ConnectedSeries._packed_index``) once per series and profile
    (``_planned_moves``).  Every read is then an integer probe of one
    profile group, keyed by kl = k | l << bits: an in-piece move probes
    kl - dkl, and a pair move walks the r1 group in increasing kl1 up to
    l1 < l (kl1 < l << bits) and probes the r2 group at kl - kl1 for each
    entry with k1 < k.

    The probes cannot alias.  The series' packing has 2^bits > dmax >= d,
    and every key of weight w has 1 <= k, l <= w.  So a key with k or l
    outside 1..d reads only absent keys (an in-piece move reads k - dk,
    l - dl with dk, dl <= 1 at weight d - 1; a pair move splits k and l
    into two parts >= 1 at weights summing to d - 1), and it is answered
    0 before packing.  Inside that range kl holds k and l exactly, kl -
    dkl takes dk, dl <= 1 from fields k, l >= 1, and kl - kl1 leaves the
    fields k - k1, l - l1 >= 1, so no field borrows or carries.
    """
    mm = canonical_multiplicities(m)
    d = partition_weight(mm)
    if d > cs.dmax:
        raise TruncationError(f"weight {d} beyond computed degree {cs.dmax}")
    if d <= 1:  # no lower piece to insert an edge into
        return Fraction(int((k, l, mm) == SEED_KEY))
    if not (1 <= k <= d and 1 <= l <= d):
        return Fraction(0)
    inpiece_moves, pair_moves = _planned_moves(cs, mm, d)
    bits, mask = cs._pk.bits, cs._pk.mask
    kl, stop = k | l << bits, l << bits
    num = sum(f * get(kl - dkl, 0) for get, dkl, f in inpiece_moves)
    for entries, get2, f in pair_moves:
        ab = 0
        for kl1, a in entries:
            if kl1 >= stop:
                break
            if (kl1 & mask) < k:
                ab += a * get2(kl - kl1, 0)
        num += f * ab
    return Fraction(num, factorial(d - 1) * d)
