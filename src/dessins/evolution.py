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

All moves run on one kernel over packed keys: k, l, m_1, m_2, ... sit
in consecutive ``bits``-bit fields of one int, k lowest, so a move adds
precomputed unit vectors (1: a white vertex, ``V``: a black one,
``E[i]``: a part of size i) and the pair product of two profiles is one
integer addition.  The degree recursion, the public operators and
``partition_function`` all encode, run the same kernel and decode.

Packed keys cannot carry or alias.  Packing is linear, so only the
vector of each emitted key matters, not the order of the additions that
build it.  E[i] is subtracted only from a key with m_i >= 1, so that
vector is non-negative, and each of its entries (k, l, every
multiplicity, every componentwise sum the pair product forms) is at most
the largest weight W the call can produce: a connected piece of weight n
has k, l, m_i <= n by the genus relation.  The width has 2^bits > W --
from dmax in ``ConnectedSeries.extended_to``, from the largest k, l or
weight the call can produce in the public wrappers -- so every field
holds its entry exactly and distinct keys get distinct codes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterator, Mapping, Sequence

from .series import (
    GradedSeries,
    Multiplicities,
    RawKey,
    TruncationError,
    canonical_multiplicities,
    genus_at,
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

    The decoded profile and part list of each packed profile (a key's
    fields above k and l) are memoised: keys of one computation share
    few profiles.
    """

    __slots__ = ("bits", "mask", "V", "E", "_profiles", "_parts")

    def __init__(self, bound: int):
        self.bits = bits = bound.bit_length()  # 2^bits > bound
        self.mask = (1 << bits) - 1
        self.V = 1 << bits
        self.E = [0] + [1 << bits * (i + 1) for i in range(1, bound + 1)]
        self._profiles: dict[int, Multiplicities] = {}
        self._parts: dict[int, tuple[tuple[int, int], ...]] = {}

    def encode(self, key: RawKey) -> int:
        k, l, m = key
        bits = self.bits
        code = k | l << bits
        for i, x in enumerate(m, 2):
            code |= x << bits * i
        return code

    def _profile(self, prof: int) -> Multiplicities:
        m = self._profiles.get(prof)
        if m is None:
            bits, mask, code, out = self.bits, self.mask, prof, []
            while code:
                out.append(code & mask)
                code >>= bits
            m = self._profiles[prof] = tuple(out)
        return m

    def decode(self, code: int) -> RawKey:
        bits, mask = self.bits, self.mask
        return (code & mask, code >> bits & mask, self._profile(code >> 2 * bits))

    def parts(self, code: int) -> tuple[tuple[int, int], ...]:
        """(i, m_i) for every part size i present in the key."""
        prof = code >> 2 * self.bits
        p = self._parts.get(prof)
        if p is None:
            p = self._parts[prof] = tuple(
                (i, x) for i, x in enumerate(self._profile(prof), 1) if x)
        return p

    def encode_terms(self, terms: Mapping[RawKey, object]) -> dict:
        return {self.encode(key): c for key, c in terms.items()}


def _grow(pk: _Packing, src: Mapping, out: dict, factor=1, shifts=(0,)) -> None:
    """Add factor * sum_r r t_{r+1} d/dt_r (src) to out, once per shift."""
    E = pk.E
    for code, c in src.items():
        fc = factor * c
        for r, x in pk.parts(code):
            key = code - E[r] + E[r + 1]
            v = r * x * fc
            for s in shifts:
                out[key + s] = out.get(key + s, 0) + v


def _split_join(pk: _Packing, src: Mapping, out: dict, factor=1) -> None:
    """Add factor * (one-component cycle surgery)(src) to out.

    A cycle of size r splits into the ordered pairs (j, r + 1 - j); the
    two orders of a pair give one key, so each pair is emitted once with
    weight 2, plus the middle term for odd r.  Two cycles j != j2 join
    into j + j2 + 1 from both orders, again emitted once with weight 2.
    """
    E = pk.E
    for code, c in src.items():
        fc = factor * c
        parts = pk.parts(code)
        for a, (r, x) in enumerate(parts):
            f = r * x * fc
            base = code - E[r]
            for j in range(1, r // 2 + 1):
                key = base + E[j] + E[r + 1 - j]
                out[key] = out.get(key, 0) + 2 * f
            if r % 2:
                key = base + 2 * E[(r + 1) // 2]
                out[key] = out.get(key, 0) + f
            if x > 1:
                key = base - E[r] + E[2 * r + 1]
                out[key] = out.get(key, 0) + r * (x - 1) * f
            for j2, x2 in parts[a + 1:]:
                key = base - E[j2] + E[r + j2 + 1]
                out[key] = out.get(key, 0) + 2 * j2 * x2 * f


def _diff_buckets(pk: _Packing, src: Mapping) -> list:
    """j * d/dt_j (src) for every j, as a sorted [(j, [(key, coeff), ...])]."""
    E = pk.E
    buckets: dict[int, list] = {}
    for code, c in src.items():
        for j, x in pk.parts(code):
            buckets.setdefault(j, []).append((code - E[j], j * x * c))
    return sorted(buckets.items())


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
    """Add factor * sum_{j,j2} t_{j+j2+1} (j d/dt_j a)(j2 d/dt_j2 b) to out,
    from the derivative buckets da, db of a and b."""
    E = pk.E
    for j, ta in da:
        for j2, tb in db:
            _convolve(ta, tb, out, factor, E[j + j2 + 1])


# ---------------------------------------------------------------------------
# public operator wrappers
# ---------------------------------------------------------------------------

def _entry_bound(terms: Mapping[RawKey, object]) -> int:
    """Largest k, l or weight among the keys."""
    return max((max(k, l, partition_weight(m)) for k, l, m in terms), default=0)


def _decoded(pk: _Packing, raw: dict, truncation: int, win: int | None,
             op: str) -> GradedSeries:
    """The kernel's output as a series; weight win in must give win + 1 out."""
    out = {key: c for key, c in ((pk.decode(code), c) for code, c in raw.items())
           if c and partition_weight(key[2]) <= truncation}
    res = GradedSeries(out, truncation, _raw=True)
    if win is not None and not res.is_zero() and res.homogeneous_weight() != win + 1:
        raise AssertionError(f"{op} must raise the weight by 1")
    return res


def _linear_op(series: GradedSeries, move, op: str) -> GradedSeries:
    pk = _Packing(_entry_bound(series._terms) + 1)
    out: dict = {}
    move(pk, pk.encode_terms(series._terms), out)
    return _decoded(pk, out, series.truncation, series.homogeneous_weight(), op)


def grow_cycle(series: GradedSeries) -> GradedSeries:
    """Lengthen one cycle by one: sum_r r * t_{r+1} * d/dt_r."""
    return _linear_op(series, _grow, "grow_cycle")


def split_or_join_cycles(series: GradedSeries) -> GradedSeries:
    """One-component cycle surgery.

    Splits one cycle of size r into an ordered pair (j, r + 1 - j), or
    joins an ordered pair of cycles (j, j2) into one of size j + j2 + 1;
    the combined move raises the weight by exactly one.
    """
    return _linear_op(series, _split_join, "split_or_join_cycles")


def join_components(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """Join one cycle of a with one cycle of b into a single cycle.

    Bilinear: sum over ordered pairs (j, j2) of j*j2*t_{j+j2+1} times the
    two partial derivatives.  The result weight is weight(a) + weight(b)
    + 1 on homogeneous inputs.
    """
    pk = _Packing(_entry_bound(a._terms) + _entry_bound(b._terms) + 1)
    out: dict = {}
    _join_pair(pk, _diff_buckets(pk, pk.encode_terms(a._terms)),
               _diff_buckets(pk, pk.encode_terms(b._terms)), out)
    wa, wb = a.homogeneous_weight(), b.homogeneous_weight()
    return _decoded(pk, out, min(a.truncation, b.truncation),
                    None if wa is None or wb is None else wa + wb, "join_components")


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
    """Packed marked piece of weight d from the packed marked pieces 1 .. d-1.

    d*F_d = ((u+v)*grow + split_or_join) F_{d-1}
            + sum_{n=1}^{d-2} join_components(F_n, F_{d-1-n});
    with F_n = (marked_n)/n every contribution is integral only as a
    whole, so everything is accumulated over the common denominator C.
    Both join_components and the denominator n*(d-1-n) are symmetric
    under n <-> d-1-n, so the pair sum runs over n <= (d-1)/2 and doubles
    each term with n != d-1-n.  ``buckets`` holds the derivative buckets
    of the pieces and grows with them, so each is built once.
    """
    if d < 2:
        raise ValueError("the seed piece is fixed, recursion starts at d = 2")
    while len(buckets) < d - 2:
        buckets.append(_diff_buckets(pk, packed[len(buckets)]))
    C = lcm(d - 1, *(n * (d - 1 - n) for n in range(1, d - 1)))
    acc: dict = {}
    _grow(pk, packed[d - 2], acc, C // (d - 1), (1, pk.V))
    _split_join(pk, packed[d - 2], acc, C // (d - 1))
    for n in range(1, (d - 1) // 2 + 1):
        n2 = d - 1 - n
        factor = C // (n * n2) * (1 if n == n2 else 2)
        _join_pair(pk, buckets[n - 1], buckets[n2 - 1], acc, factor)
    out: dict[int, int] = {}
    for code, v in acc.items():
        if v:
            q, r = divmod(v, C)
            if r:
                raise ArithmeticError(
                    f"marked count at {pk.decode(code)!r} is not integral")
            out[code] = q
    return out


def next_piece(pieces: Sequence[GradedSeries],
               truncation: int | None = None) -> GradedSeries:
    """Piece of weight d = len(pieces) + 1 from the pieces 1 .. d - 1."""
    d = len(pieces) + 1
    # a pair product adds two keys of the pieces plus one part
    pk = _Packing(2 * max((_entry_bound(p._terms) for p in pieces), default=0) + 1)
    packed = [pk.encode_terms(_marked_terms(p._terms, n))
              for n, p in enumerate(pieces, 1)]
    raw = _next_marked(pk, packed, [], d)
    trunc = d if truncation is None else truncation
    return GradedSeries({pk.decode(code): Fraction(v, d) for code, v in raw.items()},
                        trunc, _raw=True)


class ConnectedSeries:
    """Homogeneous pieces of the connected series for degrees 1 .. dmax.

    Only the marked counts are stored: per degree d, {(k, l, m): d * N}
    with int values.  The Fraction pieces (``pieces``, ``piece``,
    ``combined``) are built from them on first use and kept.
    Construction checks integrality of the marked counts and, unless
    ``validate`` is false, the seed, per-piece homogeneity and the genus
    relation on every key.
    """

    __slots__ = ("_marked", "_pieces")

    def __init__(self, pieces: Sequence[GradedSeries], *, validate: bool = True):
        self._init([_marked_terms(p._terms, d) for d, p in enumerate(pieces, 1)],
                   validate)

    @classmethod
    def _from_marked(cls, marked: Sequence[dict[RawKey, int]],
                     validate: bool) -> "ConnectedSeries":
        series = cls.__new__(cls)
        series._init(marked, validate)
        return series

    def _init(self, marked: Sequence[dict[RawKey, int]], validate: bool) -> None:
        if not marked:
            raise ValueError("need at least the degree-1 piece")
        self._marked = tuple(marked)
        self._pieces: tuple[GradedSeries, ...] | None = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self._marked[0] != {SEED_KEY: 1}:
            raise ValueError("degree-1 piece must be exactly u*v*t1")
        for d, marked in enumerate(self._marked, 1):
            if not marked:
                raise ValueError(f"piece {d} is empty")
            for key in marked:
                if partition_weight(key[2]) != d:
                    raise ValueError(f"piece {d} is not homogeneous of weight {d}")
                genus_at(d, key)

    # -- construction ----------------------------------------------------------

    @classmethod
    def compute(cls, dmax: int) -> "ConnectedSeries":
        """Build the series up to degree dmax from the one-edge seed."""
        if dmax < 1:
            raise ValueError("dmax must be >= 1")
        return cls._from_marked([{SEED_KEY: 1}], validate=False).extended_to(dmax)

    def extended_to(self, dmax: int) -> "ConnectedSeries":
        """Same series computed (or cut back) to another degree bound."""
        if dmax < 1:
            raise ValueError("dmax must be >= 1")
        if dmax <= self.dmax:
            return ConnectedSeries._from_marked(self._marked[:dmax], validate=False) \
                if dmax < self.dmax else self
        pk = _Packing(dmax)  # validated pieces: k, l, m_i <= degree <= dmax
        packed = [pk.encode_terms(t) for t in self._marked]
        marked = list(self._marked)
        buckets: list = []
        for d in range(self.dmax + 1, dmax + 1):
            raw = _next_marked(pk, packed, buckets, d)
            packed.append(raw)
            marked.append({pk.decode(code): v for code, v in raw.items()})
        return ConnectedSeries._from_marked(marked, validate=True)

    # -- access ------------------------------------------------------------------

    @property
    def dmax(self) -> int:
        return len(self._marked)

    @property
    def pieces(self) -> tuple[GradedSeries, ...]:
        if self._pieces is None:
            self._pieces = tuple(
                GradedSeries({key: Fraction(v, d) for key, v in marked.items()},
                             self.dmax, _raw=True)
                for d, marked in enumerate(self._marked, 1))
        return self._pieces

    def piece(self, d: int) -> GradedSeries:
        if not 1 <= d <= self.dmax:
            raise TruncationError(f"degree {d} outside 1..{self.dmax}")
        return self.pieces[d - 1]

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
        out: dict = {}
        for piece in self.pieces:
            out.update(piece._terms)
        return GradedSeries(out, self.dmax, _raw=True)

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
        _grow(pk, x, nxt, 1, (1, pk.V))
        _split_join(pk, x, nxt)
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

def _splits(m: Multiplicities) -> Iterator[tuple[Multiplicities, Multiplicities]]:
    for choice in product(*(range(x + 1) for x in m)):
        yield (canonical_multiplicities(choice),
               canonical_multiplicities(tuple(t - c for t, c in zip(m, choice))))


def recursion_rhs(cs: ConnectedSeries, k: int, l: int,
                  m: Sequence[int]) -> Fraction:
    """Evaluate the coefficient recursion right-hand side at (k, l, m).

    Sums, over the four one-edge-insertion moves, the lower-degree
    weighted counts times their insertion multiplicities, divided by the
    degree d; the one-edge seed enters as a Kronecker term at d = 1.
    Evaluated purely from the already computed table, this must agree
    with coefficient() on every key (exercised by the test suite); it is
    never used to build the table.  The moves build canonical keys of known
    weight, read straight from that piece's terms.
    """
    mm = canonical_multiplicities(m)
    d = partition_weight(mm)
    if d > cs.dmax:
        raise TruncationError(f"weight {d} beyond computed degree {cs.dmax}")
    if d == 0:
        return Fraction(0)
    total = Fraction(0)
    if (k, l, mm) == SEED_KEY:
        total += 1
    sizes = [i + 1 for i, x in enumerate(mm) if x]
    terms = [{}] + [p._terms for p in cs.pieces]  # terms[w]: the weight-w piece
    get = terms[d - 1].get  # the first three moves remove one edge in place

    # double-edge insertion: a cycle i-1 grew to i, a vertex was added
    for i in sizes:
        if i >= 2:
            ref = multiplicities_incr(multiplicities_decr(mm, i), i - 1)
            f = (i - 1) * (mm[i - 2] + 1)
            total += f * (get((k - 1, l, ref), 0) + get((k, l - 1, ref), 0))

    # one cycle i-1 was split into j + j2 (ordered pairs)
    for j in sizes:
        for j2 in sizes:
            if j == j2 and mm[j - 1] < 2:
                continue
            i = j + j2
            prev = mm[i - 2] if i - 1 <= len(mm) else 0
            f = (i - 1) * (prev + 1 - (j == 1) - (j2 == 1))
            if f:
                base = multiplicities_decr(multiplicities_decr(mm, j), j2)
                ref = multiplicities_incr(base, i - 1)
                total += f * get((k, l, ref), 0)

    # two cycles j, j2 of one component were joined into j + j2 + 1
    for c in sizes:
        if c < 3:
            continue
        i = c - 1
        base = multiplicities_decr(mm, c)
        for j in range(1, i):
            j2 = i - j
            mj = mm[j - 1] if j <= len(mm) else 0
            mj2 = mm[j2 - 1] if j2 <= len(mm) else 0
            f = j * j2 * (mj + 1) * (mj2 + 1 + (j == j2))
            ref = multiplicities_incr(multiplicities_incr(base, j), j2)
            total += f * get((k, l, ref), 0)

    # cycles of two separate components were joined into j + j2 + 1
    for c in sizes:
        if c < 3:
            continue
        i = c - 1
        rest = multiplicities_decr(mm, c)
        for j in range(1, i):
            j2 = i - j
            jf = j * j2
            for m1, m2 in _splits(rest):
                f1 = (m1[j - 1] if j <= len(m1) else 0) + 1
                f2 = (m2[j2 - 1] if j2 <= len(m2) else 0) + 1
                r1 = multiplicities_incr(m1, j)
                r2 = multiplicities_incr(m2, j2)
                w1 = partition_weight(r1)
                get1, get2 = terms[w1].get, terms[d - 1 - w1].get
                for k1 in range(1, k):
                    for l1 in range(1, l):
                        a = get1((k1, l1, r1), 0)
                        if a:
                            b = get2((k - k1, l - l1, r2), 0)
                            if b:
                                total += jf * f1 * f2 * a * b
    return total / d
