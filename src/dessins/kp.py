"""Hierarchy consistency checks on the connected series.

The connected series, viewed as a formal power series in t1, t2, ... with
the remaining variables as parameters, satisfies the KP (Kadomtsev -
Petviashvili) hierarchy.  This module encodes the first four equations in
residual form and verifies, coefficient by coefficient, that each
residual is the identically zero polynomial in u, v, t at every s-degree
up to the computed bound.  This is the strongest desk-scale consistency
check available: a single corrupted coefficient generically lights up
several residuals.

Equations are data, not code: an equation is a list of (coefficient,
factors) pairs, each factor a multi-index of t-derivatives, and the whole
equation moved to one side.  Further hierarchy equations can be added to
KP_EQUATIONS without touching the evaluator.

With F_d = M_d / d (M_d the integer marked piece), the s^n value of a
product of r derivative factors is the sum over n_1 + ... + n_r = n of
prod_j U_j(n_j) / n_j, U_j the factor's derivative of M.  Each prod n_j
divides n! (it divides prod n_j!, which divides n!), so P_n = n! times
that value, V_n, is an integer.  One factor has V_n = (n-1)! U(n), a
derivative of the integer piece G_n = n! F_n = (n-1)! M_n; appending a
factor gives the binomial convolution V_n = sum_b C(n, b) V_head(n-b)
(b-1)! U(b).  A square (the same factor twice, as in (1,1)^2, (1,2)^2
and (1,1,1)^2) has equal terms at b and n - b, since C(n, b) = C(n, n -
b): it sums b < n - b doubled and b = n / 2 once.  With L the lcm of an
equation's coefficient denominators, L * n! times its residual is the
integer sum of (coeff * L) V_n, which vanishes exactly when the
residual does; a Fraction is formed only when residual() returns it.

The evaluator works on the engine's slot form.  Each profile group of
degree d (in the package's one packing ``_PK``, see ``ConnectedSeries``)
becomes one int P, packed by ``evolution._kron_encode``: the count of
(k, l, m) in W-bit slot k + K*g, K = nmax + 1, g the genus of the key,
so k + l + 2g = c, the profile's top d + 2 - parts.  Only the groups
that some derivative reads are packed, and they are found by
construction, not by a scan of the stored groups.  The tables are lists
of (profile, P) items:

* A multi-derivative d^a (a_i t_i-derivatives) keeps each key's k and
  l, so it keeps P: a group of profile m with every m_i >= a_i becomes
  m - D, D = sum a_i E[i], with P times (d-1)! prod m_i! / (m_i - a_i)!,
  and every other group drops out.  So at degree d it reads exactly the
  profiles q + D, q a partition of d - w (w = sum i a_i), that the
  series stores (``_reads``); no other profile is visited.
* A product of two groups is the one multiplication Pa * Pb, added times
  C(n, b) at profile pa + pb.  k and g add, so c adds too, and k <= n <=
  nmax < K never wraps into the next genus row.  Profiles cannot carry
  either: E[i] is subtracted only where m_i >= a_i, and every part count
  of a sum stays <= n <= nmax <= DMAX_LIMIT < 2^bits.
* A residual adds, per profile, each term's P times its signed integer
  scale.  A term of r factors with #A derivative indices in all has c =
  n - p + (2r - #A) at a profile of p parts (each derivative index
  removes one part from its source's top), so two terms differ in c by
  an even amount (``KpEquation.lifts`` refuses an equation whose terms
  do not).  Each term is shifted up by (e0 - e) / 2 genus rows, W*K bits
  each, e = 2r - #A and e0 the largest e of the equation; then every
  term keeps l = c0 - k - 2g with c0 = n - p + e0, and a slot is one key.

Slots cannot carry, and the zero test is exact.  Counts, factors and
binomials are positive, so every table is non-negative and the sum of
its slots is an exact scalar total T(n), which the same recursion gives
on the groups' count sums.  B is the largest of every table's T(n) and
every residual's sum over terms of |scale| * T(n), over the equations
the evaluator serves and n <= nmax, and W = bitlen(B) + 1.  Every slot
of a table or a residual is then below 2^(W-1) in magnitude: no slot
carries into the next, and a residual's int has one balanced base-2^W
digit per slot, its value in -2^(W-1) .. 2^(W-1) - 1.  Those digits are
unique, so a residual vanishes exactly when every profile's int is 0,
and a nonzero int is decoded, one balanced digit at a time, into its
nonzero coefficients.  W is 80 bits for the four equations at nmax = 14.
Nothing is kept between evaluators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, perm
from typing import Sequence

from .evolution import _PK, ConnectedSeries, _kron_encode, _partition_profiles
from .series import GradedSeries, TruncationError

MultiIndex = tuple[int, ...]
Term = tuple[Fraction, tuple[MultiIndex, ...]]


@dataclass(frozen=True)
class KpEquation:
    """One hierarchy equation in residual form (all terms on one side)."""

    id: int
    terms: tuple[Term, ...]

    def weight(self) -> int:
        """Common derivative weight of all terms; raises if inhomogeneous."""
        weights = {sum(sum(multi) for multi in factors)
                   for _, factors in self.terms}
        if len(weights) != 1:
            raise ValueError(f"equation {self.id} is not weight-homogeneous")
        return weights.pop()

    def lifts(self) -> tuple[int, ...]:
        """2r - #A for each term (r factors, #A derivative indices): a
        term's table at s-degree n holds the keys of a profile of p parts
        in slots with k + l + 2g = n - p + 2r - #A.  Raises ValueError
        unless every term has the same parity, which shifting each term
        by whole genus rows into one layout needs."""
        lifts = tuple(2 * len(factors) - sum(map(len, factors))
                      for _, factors in self.terms)
        if len({e & 1 for e in lifts}) > 1:
            raise ValueError(f"equation {self.id} mixes terms of odd and even 2r - #A")
        return lifts


def _eq(eq_id: int, *terms) -> KpEquation:
    packed = tuple((Fraction(c), tuple(tuple(sorted(f)) for f in factors))
                   for c, factors in terms)
    return KpEquation(eq_id, packed)


#: First four equations of the hierarchy, residual form.  A factor like
#: (1, 1, 1) means the third t1-derivative of the series; several factors
#: multiply.  Weights: 4, 5, 6, 6.
KP_EQUATIONS: tuple[KpEquation, ...] = (
    _eq(1,
        (1, [(2, 2)]),
        (Fraction(1, 2), [(1, 1), (1, 1)]),
        (-1, [(1, 3)]),
        (Fraction(1, 12), [(1, 1, 1, 1)])),
    _eq(2,
        (1, [(2, 3)]),
        (1, [(1, 1), (1, 2)]),
        (-1, [(1, 4)]),
        (Fraction(1, 6), [(1, 1, 1, 2)])),
    _eq(3,
        (1, [(2, 4)]),
        (Fraction(1, 2), [(1, 2), (1, 2)]),
        (1, [(1, 1), (1, 3)]),
        (-1, [(1, 5)]),
        (Fraction(-1, 8), [(1, 1, 1), (1, 1, 1)]),
        (Fraction(-1, 12), [(1, 1), (1, 1, 1, 1)]),
        (Fraction(1, 4), [(1, 1, 1, 3)]),
        (Fraction(-1, 120), [(1, 1, 1, 1, 1, 1)])),
    _eq(4,
        (1, [(3, 3)]),
        (Fraction(-1, 3), [(1, 1), (1, 1), (1, 1)]),
        (1, [(1, 2), (1, 2)]),
        (1, [(1, 1), (1, 3)]),
        (-1, [(1, 5)]),
        (Fraction(-1, 4), [(1, 1, 1), (1, 1, 1)]),
        (Fraction(-1, 3), [(1, 1), (1, 1, 1, 1)]),
        (Fraction(1, 3), [(1, 1, 1, 3)]),
        (Fraction(-1, 45), [(1, 1, 1, 1, 1, 1)])),
)


def equation_by_id(eq_id: int) -> KpEquation:
    for eq in KP_EQUATIONS:
        if eq.id == eq_id:
            return eq
    raise ValueError(f"no hierarchy equation with id {eq_id}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _pairs(n: int, factors: tuple[MultiIndex, ...]) -> list[tuple[int, int]]:
    """(b, C(n, b)) for each term of the binomial convolution of factors at
    s-degree n; a square's terms at b and n - b are equal, so it takes b <=
    n / 2 and doubles b < n - b."""
    square = len(factors) == 2 and factors[0] == factors[1]
    return [(b, comb(n, b) << (square and 2 * b < n))
            for b in range(1, n // 2 + 1 if square else n)]


def _digits(R: int, W: int):
    """(slot, digit) of each nonzero balanced digit of R in base 2^W, each
    digit in -2^(W-1) .. 2^(W-1) - 1."""
    half, mask, s = 1 << W - 1, (1 << W) - 1, 0
    while R:
        v = ((R & mask) ^ half) - half
        if v:
            yield s, v
        R = (R - v) >> W
        s += 1


def _reads(groups: Sequence[dict], multi: MultiIndex) -> list:
    """Entry d: (profile, profile - D, (d-1)! * prod m_i! / (m_i - a_i)!)
    for each profile group of degree d that the multi-derivative of G_d =
    (d-1)! M_d reads, a_i the times i occurs in multi and D the sum of
    a_i E[i].  Those are the stored groups of profile q + D, q a partition
    of d - w, w = sum of multi (``_partition_profiles``); no other group
    is visited.  q + D cannot carry: its every part count is at most d."""
    bits, mask, E = _PK.bits, _PK.mask, _PK.E
    # (the shift of m_i's field, a_i) for each index i in multi
    alpha = [(bits * (i + 1), a) for i, a in Counter(multi).items()]
    drop, w = sum(E[i] for i in multi), sum(multi)
    out: list = [[]]
    for d, profiles in enumerate(groups, 1):
        items, fd = [], factorial(d - 1)
        for q in _partition_profiles(d - w) if d >= w else ():
            src = q + drop
            if src in profiles:
                f = fd
                for shift, a in alpha:
                    f *= perm(src >> shift & mask, a)
                items.append((src, q, f))
        out.append(items)
    return out


class KpEvaluator:
    """Term tables and residuals of some equations up to one s-bound, in
    slot form (module docstring).  Entry n of the table of a term's
    factors is a [(profile, P), ...] list: for one factor, an item per
    profile group of degree n that its derivative reads, P the group's
    int times the derivative's factor; for two or more, an item per
    profile of V_n.  W is sized for the equations given, and only they
    are served; a product table is built on first use."""

    def __init__(self, series: ConnectedSeries, nmax: int,
                 equations: Sequence[KpEquation] = KP_EQUATIONS):
        if nmax < 0:
            raise ValueError(f"s-degree bound {nmax} is negative")
        if nmax > series.dmax:
            raise TruncationError(
                f"s-degree {nmax} beyond computed degree {series.dmax}")
        self.nmax = nmax
        # per equation: L, its largest lift e0, and per term its integer
        # scale, its factors and the genus rows it is shifted up by; the
        # keys keep each equation alive, so _by_id's ids stay its own
        self._plans: dict[KpEquation, tuple[int, int, list]] = {}
        for eq in equations:
            eq.weight()  # audit homogeneity before trusting the data
            lifts = eq.lifts()
            L, top = lcm(*(coeff.denominator for coeff, _ in eq.terms)), max(lifts)
            self._plans[eq] = (L, top, [
                (coeff.numerator * (L // coeff.denominator), factors, (top - e) >> 1)
                for (coeff, factors), e in zip(eq.terms, lifts)])
        self._by_id = {id(eq): plan for eq, plan in self._plans.items()}
        groups = series._groups[:nmax]
        reads = {(multi,): _reads(groups, multi) for multi in {
            multi for eq in self._plans for _, factors in eq.terms for multi in factors}}
        read = [{src: groups[d - 1][src] for r in reads.values() for src, _, _ in r[d]}
                for d in range(nmax + 1)]
        sums = [{src: sum(counts) for src, counts in by_src.items()} for by_src in read]
        self._totals = {key: [sum(f * sums[d][src] for src, _, f in items)
                              for d, items in enumerate(r)] for key, r in reads.items()}
        bound = max((sum(abs(scale) * self._total(factors)[n] for scale, factors, _ in terms)
                     for _, _, terms in self._plans.values() for n in range(1, nmax + 1)),
                    default=0)
        self.W = W = max(bound, 0, *map(max, self._totals.values())).bit_length() + 1
        self._K = K = nmax + 1
        packed = [_kron_encode(by_src, d, W, K) for d, by_src in enumerate(read)]
        self._tables: dict[tuple[MultiIndex, ...], list] = {
            key: [[(prof, f * packed[d][src]) for src, prof, f in items]
                  for d, items in enumerate(r)] for key, r in reads.items()}

    def _total(self, factors: tuple[MultiIndex, ...]) -> list[int]:
        """Entry n: T(n), the slot sum of the table of factors, the totals
        run through ``_table``'s recursion."""
        out = self._totals.get(factors)
        if out is None:
            A, U = self._total(factors[:-1]), self._totals[factors[-1:]]
            out = self._totals[factors] = [0] * len(factors) + [
                sum(c * A[n - b] * U[b] for b, c in _pairs(n, factors))
                for n in range(len(factors), self.nmax + 1)]
        return out

    def _table(self, factors: tuple[MultiIndex, ...]) -> list:
        """Entry n: the table of factors; for two or more, V_n, the binomial
        convolution of the head and the last factor: one multiplication Pa
        * Pb per pair of groups, times C(n, b), added at profile pa + pb."""
        out = self._tables.get(factors)
        if out is None:
            A, U = self._table(factors[:-1]), self._table(factors[-1:])
            out = self._tables[factors] = [[] for _ in range(self.nmax + 1)]
            for n in range(len(factors), self.nmax + 1):
                acc: dict[int, int] = {}
                get = acc.get
                for b, c in _pairs(n, factors):
                    for pb, Pb in U[b]:
                        Pb *= c
                        for pa, Pa in A[n - b]:
                            key = pa + pb
                            acc[key] = get(key, 0) + Pa * Pb
                out[n] = list(acc.items())
        return out

    def _plan(self, eq: KpEquation) -> tuple[int, int, list]:
        """eq's plan, found by identity, or for an equal equation built
        elsewhere by comparison: no lookup hashes an equation (and with it
        every Fraction).  Raises ValueError for an equation not served."""
        plan = self._by_id.get(id(eq))
        if plan is None:
            plan = next((plan for served, plan in self._plans.items() if served == eq), None)
            if plan is None:
                raise ValueError(f"equation {eq.id} is not one this evaluator serves")
        return plan

    def _residual(self, eq: KpEquation, n: int) -> dict[int, int]:
        """L * n! times the s^n residual of eq, one int per profile in the
        equation's common layout, the profiles whose int is nonzero."""
        plan = self._plan(eq)
        if not 1 <= n <= self.nmax:
            raise TruncationError(f"s-degree {n} outside 1..{self.nmax}")
        row = self.W * self._K
        acc: dict[int, int] = {}
        get = acc.get
        for scale, factors, rows in plan[2]:
            for prof, P in self._table(factors)[n]:
                acc[prof] = get(prof, 0) + (scale * P << row * rows)
        return {prof: R for prof, R in acc.items() if R}

    def residual_terms(self, eq: KpEquation, n: int) -> int:
        """The number of nonzero coefficients of the s^n residual."""
        return sum(1 for R in self._residual(eq, n).values() for _ in _digits(R, self.W))

    def residual(self, eq: KpEquation, n: int) -> GradedSeries:
        """s^n coefficient of the residual; a polynomial in u, v, t."""
        slots = self._residual(eq, n)
        L, top, _ = self._plan(eq)
        den, K, bits, terms = L * factorial(n), self._K, _PK.bits, {}
        for prof, R in slots.items():
            _, _, w, t = _PK.record(prof)
            c = n - (w + 2 - t) + top  # k + l + 2g: n - parts + e0
            for s, v in _digits(R, self.W):
                g, k = divmod(s, K)
                terms[_PK.decode(prof | (c - k - 2 * g) | k << bits)] = Fraction(v, den)
        return GradedSeries(terms, n, _raw=True)


def kp_residual(series: ConnectedSeries, eq: KpEquation, n: int) -> GradedSeries:
    """Residual polynomial of one equation at one s-degree (must be zero)."""
    return KpEvaluator(series, n, (eq,)).residual(eq, n)


@dataclass(frozen=True)
class KpRow:
    eq: int
    n: int
    residual_terms: int
    passed: bool


@dataclass(frozen=True)
class KpReport:
    nmax: int
    rows: tuple[KpRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def kp_report(series: ConnectedSeries, nmax: int,
              equations: Sequence[KpEquation] = KP_EQUATIONS) -> KpReport:
    """Evaluate all residuals for every s-degree up to nmax.

    Passes overall iff every residual is the identically zero polynomial;
    nmax = 0 is a vacuous pass; a negative nmax raises ValueError.
    """
    evaluator = KpEvaluator(series, nmax, equations)
    rows = []
    for eq in equations:
        for n in range(1, nmax + 1):
            terms = evaluator.residual_terms(eq, n)
            rows.append(KpRow(eq.id, n, terms, not terms))
    return KpReport(nmax, tuple(rows))
