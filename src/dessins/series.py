"""Exact sparse series in u, v, t1, t2, ... over the rationals.

A monomial ``u^k v^l t1^m1 t2^m2 ...`` is stored as the key ``(k, l, m)``
where ``m = (m1, m2, ...)`` is a multiplicity vector without trailing
zeros.  The t-weight ``sum(i * m_i)`` grades everything: it equals the
number of edges d of the bicolored maps whose weighted count sits in the
coefficient, so a series truncated at weight D carries complete data for
all degrees up to D.

Coefficients are exact rationals.  ``fractions.Fraction`` is the public
coefficient type; plain ``int`` values are accepted anywhere as exact
integer rationals (the two compare and hash equal, so they can be mixed
freely inside one term map).  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Coefficient = Union[int, Fraction]
Multiplicities = tuple[int, ...]
RawKey = tuple[int, int, Multiplicities]


class TruncationError(ValueError):
    """A coefficient beyond the truncation degree was requested."""


class NonPhysicalKeyError(ValueError):
    """A monomial violates the genus relation 2g - 2 = d - (k + l + parts)."""


# ---------------------------------------------------------------------------
# partitions as multiplicity vectors
# ---------------------------------------------------------------------------

def canonical_multiplicities(m: Sequence[int]) -> Multiplicities:
    """Return ``m`` as a tuple with trailing zeros removed."""
    mm = tuple(int(x) for x in m)
    if any(x < 0 for x in mm):
        raise ValueError(f"negative multiplicity in {mm!r}")
    end = len(mm)
    while end > 0 and mm[end - 1] == 0:
        end -= 1
    return mm[:end]


def partition_weight(m: Sequence[int]) -> int:
    """Weight sum(i * m_i); the number of edges d of the counted maps."""
    return sum(map(mul, m, range(1, len(m) + 1)))


def partition_parts(m: Sequence[int]) -> int:
    """Number of parts sum(m_i); the number of cycles at infinity."""
    return sum(m)


def parts_list(m: Sequence[int]) -> tuple[int, ...]:
    """Parts of the partition in decreasing order, e.g. (0, 1, 1) -> (3, 2)."""
    out: list[int] = []
    for i in range(len(m) - 1, -1, -1):
        out.extend([i + 1] * m[i])
    return tuple(out)


def from_parts(parts: Iterable[int]) -> Multiplicities:
    """Multiplicity vector of a list of positive parts (any order)."""
    ps = list(parts)
    if any(p < 1 for p in ps):
        raise ValueError(f"parts must be positive, got {ps!r}")
    m = [0] * (max(ps) if ps else 0)
    for p in ps:
        m[p - 1] += 1
    return tuple(m)


def partitions(n: int) -> Iterator[Multiplicities]:
    """All partitions of n as multiplicity vectors, deterministic order."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def rec(remaining: int, maxpart: int) -> Iterator[list[int]]:
        if remaining == 0:
            yield []
            return
        for p in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - p, p):
                yield [p] + rest

    for parts in rec(n, n):
        yield from_parts(parts)


# ---------------------------------------------------------------------------
# monomial keys
# ---------------------------------------------------------------------------

class MonomialKey(NamedTuple):
    """Exponents (k, l) of u, v and the t-profile m of one monomial."""

    k: int
    l: int
    m: Multiplicities

    def weight(self) -> int:
        return partition_weight(self.m)

    def parts(self) -> int:
        return partition_parts(self.m)

    def sort_key(self) -> tuple[int, int, int, Multiplicities]:
        """Canonical total order: by (weight, k, l, multiplicities)."""
        return (partition_weight(self.m), self.k, self.l, self.m)


def sort_key(key: RawKey) -> tuple[int, int, int, Multiplicities]:
    k, l, m = key
    return (partition_weight(m), k, l, m)


def genus_of(key: RawKey) -> int:
    """Genus g from 2g - 2 = d - (k + l + parts(m)).

    Only defined for monomials that can actually occur in a connected
    count: k, l >= 1, weight >= 1, and (d - k - l - parts + 2) a
    non-negative even integer.  Anything else raises NonPhysicalKeyError,
    which always signals an internal bug in a series labelled connected.
    """
    return genus_at(partition_weight(key[2]), key)


def genus_at(d: int, key: RawKey) -> int:
    """``genus_of(key)`` for a key whose weight d is already known."""
    k, l, m = key
    if k < 1 or l < 1 or d < 1:
        raise NonPhysicalKeyError(f"key {key!r} needs k, l >= 1 and weight >= 1")
    twice = d - k - l - sum(m) + 2  # sum(m): the number of parts
    if twice < 0 or twice % 2:
        raise NonPhysicalKeyError(f"key {key!r} has no integer genus >= 0")
    return twice // 2


def physical_keys(d: int) -> Iterator[MonomialKey]:
    """All keys of weight d that satisfy the genus relation.

    Enumerates every (k, l, m) with weight(m) = d, k, l >= 1,
    k + l + parts <= d + 2 and k + l + parts == d (mod 2).
    """
    if d < 1:
        return
    for m in partitions(d):
        p = partition_parts(m)
        smax = d + 2 - p
        s0 = 2 if (2 + p - d) % 2 == 0 else 3
        for s in range(s0, smax + 1, 2):
            for k in range(1, s):
                yield MonomialKey(k, s - k, m)


# ---------------------------------------------------------------------------
# graded series
# ---------------------------------------------------------------------------

def _canonical_terms(terms) -> dict[RawKey, Coefficient]:
    out: dict[RawKey, Coefficient] = {}
    items = terms.items() if isinstance(terms, Mapping) else terms
    for key, c in items:
        k, l, m = key
        if k < 0 or l < 0:
            raise ValueError(f"negative exponent in key {key!r}")
        kk = (int(k), int(l), canonical_multiplicities(m))
        if kk in out:
            raise ValueError(f"duplicate key {kk!r}")
        if c != 0:
            out[kk] = c
    return out


class GradedSeries:
    """Finite map monomial -> rational, truncated at a t-weight bound.

    Values are immutable after construction; all operations return new
    series.  Binary operations truncate at the smaller of the two bounds.
    """

    __slots__ = ("_terms", "truncation")

    def __init__(self, terms=(), truncation: int = 0, *, _raw: bool = False):
        if truncation < 0:
            raise ValueError("truncation degree must be >= 0")
        self.truncation = int(truncation)
        if _raw:
            self._terms = terms
        else:
            canon = _canonical_terms(terms)
            for key in canon:
                if partition_weight(key[2]) > self.truncation:
                    raise TruncationError(
                        f"term {key!r} exceeds truncation {self.truncation}")
            self._terms = canon

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "GradedSeries":
        return cls({}, truncation, _raw=True)

    @classmethod
    def one(cls, truncation: int) -> "GradedSeries":
        return cls({(0, 0, ()): Fraction(1)}, truncation, _raw=True)

    @classmethod
    def monomial(cls, k: int, l: int, m: Sequence[int], coeff: Coefficient,
                 truncation: int) -> "GradedSeries":
        return cls({(k, l, tuple(m)): coeff}, truncation)

    # -- inspection -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[RawKey, Coefficient]:
        return MappingProxyType(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, k: int, l: int, m: Sequence[int]) -> Fraction:
        """Exact coefficient; raises TruncationError above the bound."""
        key = (k, l, canonical_multiplicities(m))
        w = partition_weight(key[2])
        if w > self.truncation:
            raise TruncationError(
                f"weight {w} beyond truncation {self.truncation}")
        return Fraction(self._terms.get(key, 0))

    def sorted_items(self) -> list[tuple[MonomialKey, Fraction]]:
        return [(MonomialKey(*key), Fraction(self._terms[key]))
                for key in sorted(self._terms, key=sort_key)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.truncation == other.truncation and self._terms == other._terms

    __hash__ = None  # mutable-dict backed

    def __repr__(self) -> str:
        return f"GradedSeries({len(self._terms)} terms, truncation={self.truncation})"

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        if not isinstance(other, GradedSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        out: dict[RawKey, Coefficient] = {}
        for src in (self._terms, other._terms):
            for key, c in src.items():
                if partition_weight(key[2]) > trunc:
                    continue
                v = out.get(key, 0) + c
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return GradedSeries(out, trunc, _raw=True)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries({key: -c for key, c in self._terms.items()},
                            self.truncation, _raw=True)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: Coefficient) -> "GradedSeries":
        if c == 0:
            return GradedSeries.zero(self.truncation)
        return GradedSeries({key: c * v for key, v in self._terms.items()},
                            self.truncation, _raw=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        bw = [(key, partition_weight(key[2]), c)
              for key, c in other._terms.items()]
        out: dict[RawKey, Coefficient] = {}
        for (k1, l1, m1), c1 in self._terms.items():
            w1 = partition_weight(m1)
            for (k2, l2, m2), w2, c2 in bw:
                if w1 + w2 > trunc:
                    continue
                key = (k1 + k2, l1 + l2, multiplicities_sum(m1, m2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return GradedSeries(out, trunc, _raw=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    # -- variable operations ----------------------------------------------------

    def diff_t(self, i: int) -> "GradedSeries":
        """Formal partial derivative with respect to t_i."""
        if i < 1:
            raise ValueError("variable index must be >= 1")
        out: dict[RawKey, Coefficient] = {}
        for (k, l, m), c in self._terms.items():
            if len(m) >= i and m[i - 1]:
                out[(k, l, multiplicities_decr(m, i))] = m[i - 1] * c
        return GradedSeries(out, self.truncation, _raw=True)

    def mul_t(self, i: int) -> "GradedSeries":
        """Multiply by t_i; terms pushed past the truncation are dropped."""
        if i < 1:
            raise ValueError("variable index must be >= 1")
        out: dict[RawKey, Coefficient] = {}
        for (k, l, m), c in self._terms.items():
            if partition_weight(m) + i <= self.truncation:
                out[(k, l, multiplicities_incr(m, i))] = c
        return GradedSeries(out, self.truncation, _raw=True)

    # -- invariants ---------------------------------------------------------------

    def validate_disconnected(self) -> None:
        """Parity of k + l + parts must match the weight; constant term 1."""
        for (k, l, m) in self._terms:
            if (k + l + partition_parts(m) - partition_weight(m)) % 2:
                raise NonPhysicalKeyError(f"parity violation at {(k, l, m)!r}")
        if self._terms.get((0, 0, ()), 0) != 1:
            raise ValueError("disconnected series must have constant term 1")

    # -- canonical text form --------------------------------------------------------

    def render(self) -> str:
        """One line ``d k l <profile> <num>/<den>`` per term, the
        coefficient num/den of a key of weight d, in the canonical key
        order, so the output is byte-deterministic."""
        profiles: dict[Multiplicities, str] = {}  # profiles repeat across lines
        lines = []
        for key in sorted(self._terms, key=sort_key):
            k, l, m = key
            c = Fraction(self._terms[key])
            prof = profiles.get(m)
            if prof is None:
                prof = profiles[m] = profile_text(m)
            lines.append(f"{partition_weight(m)} {k} {l} {prof} {c.numerator}/{c.denominator}")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str, truncation: int) -> "GradedSeries":
        """Inverse of render(); strict about the line format, which
        includes the canonical line order (see ``parse_lines``)."""
        out: dict[RawKey, Coefficient] = {}
        for d, key, num, den in parse_lines(text, truncation):
            out[key] = Fraction(num, den)
        return cls(out, truncation, _raw=True)


# ---------------------------------------------------------------------------
# canonical text form of one term
# ---------------------------------------------------------------------------

def profile_text(m: Multiplicities) -> str:
    """Comma-separated parts in decreasing order, '-' for the empty one."""
    return ",".join(str(p) for p in parts_list(m)) or "-"


def parse_lines(text: str, truncation: int) -> Iterator[tuple[int, RawKey, int, int]]:
    """Inverse of ``GradedSeries.render`` over the non-blank lines of
    ``text``.

    Yields ``(d, key, num, den)`` with a canonical key of weight d, k, l
    >= 0, num != 0 and den > 0, the keys strictly increasing in canonical
    order (so none repeats); any other line raises ValueError naming its
    number, a d above the truncation TruncationError.  The d field is
    checked against the truncation, and a part against d, before the
    profile is sized by it.
    """
    profiles: dict[str, tuple[Multiplicities, int]] = {"-": ((), 0)}
    prev: tuple = ()
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {line!r}")
        try:
            d, k, l = int(fields[0]), int(fields[1]), int(fields[2])
            if d > truncation:
                raise TruncationError(f"weight {d} exceeds truncation {truncation}")
            prof = profiles.get(fields[3])
            if prof is None:
                parts = [int(p) for p in fields[3].split(",")]
                if max(parts) > d:
                    raise ValueError(f"part {max(parts)} is larger than the weight {d}")
                m = from_parts(parts)
                prof = profiles[fields[3]] = (m, partition_weight(m))
            num, _, den = fields[4].partition("/")
            num, den = int(num), int(den)
        except ValueError as exc:  # TruncationError too, kept as such
            raise type(exc)(f"line {lineno}: {exc}") from None
        if den <= 0 or num == 0 or k < 0 or l < 0 or prof[1] != d:
            raise ValueError(f"line {lineno}: not a term of weight {d} with "
                             f"k, l >= 0 and a nonzero <num>/<den>: {line!r}")
        order = (d, k, l, prof[0])
        if order <= prev:
            raise ValueError(f"line {lineno}: key out of canonical order or "
                             f"repeated: {line!r}")
        prev = order
        yield d, (k, l, prof[0]), num, den


# ---------------------------------------------------------------------------
# multiplicity-vector surgery (of the series algebra)
# ---------------------------------------------------------------------------

def multiplicities_incr(m: Multiplicities, i: int) -> Multiplicities:
    """m + e_i."""
    if len(m) >= i:
        return m[:i - 1] + (m[i - 1] + 1,) + m[i:]
    return m + (0,) * (i - len(m) - 1) + (1,)


def multiplicities_decr(m: Multiplicities, i: int) -> Multiplicities:
    """m - e_i; requires m_i >= 1."""
    if len(m) < i or m[i - 1] == 0:
        raise ValueError(f"cannot remove part {i} from {m!r}")
    if i == len(m) and m[i - 1] == 1:
        return canonical_multiplicities(m[:i - 1])
    return m[:i - 1] + (m[i - 1] - 1,) + m[i:]


def multiplicities_sum(a: Multiplicities, b: Multiplicities) -> Multiplicities:
    """Componentwise sum (monomial product of the t-parts)."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def exp_series(s: GradedSeries) -> GradedSeries:
    """Formal exponential sum(s^j / j!) of a series without constant term."""
    if (0, 0, ()) in s._terms:
        raise ValueError("exp needs a series with no constant term")
    trunc = s.truncation
    acc = GradedSeries.one(trunc)
    power = GradedSeries.one(trunc)
    for j in range(1, trunc + 1):
        power = (power * s).scaled(Fraction(1, j))
        if power.is_zero():
            break
        acc = acc + power
    return acc
