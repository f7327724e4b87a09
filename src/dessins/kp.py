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

The evaluator reads the series' stored profile groups (in the package's
one packing ``_PK``, see ``ConnectedSeries``) and runs one pair
convolution, ``_convolve``, with plain integer coefficients.  With
F_d = M_d / d (M_d the integer marked piece), the s^n value of a product
of r derivative factors is the sum over n_1 + ... + n_r = n of prod_j
U_j(n_j) / n_j, U_j the factor's derivative of M.  Each prod n_j divides
n! (it divides prod n_j!, which divides n!), so P_n = n! times that value
is an integer.  One factor has P_n = (n-1)! U(n), a derivative of the
integer piece G_n = n! F_n = (n-1)! M_n; appending a factor gives the
binomial convolution P_n = sum_b C(n, b) P_head(n-b) (b-1)! U(b).  With L
the lcm of an equation's coefficient denominators, L * n! times its
residual is the integer sum of (coeff * L) P_n, which vanishes exactly
when the residual does; a Fraction is formed only when residual() returns
it.

Derivatives are profile factors.  A multi-derivative d^a (a_i
t_i-derivatives) maps every key of one profile m to the profile m -
sum a_i e_i with the same k and l, times prod m_i! / (m_i - a_i)!, so a
derivative table holds one (profile, factor, entries) item per profile
group of a degree, the entries a view of the series' own {kl: M}
group, with nothing copied per key.  A product convolves each pair of
groups in one call, the factors multiplied and the profiles added.  A
square (the same factor twice, as in (1,1)^2, (1,2)^2 and (1,1,1)^2)
has equal terms at b and n - b, since C(n, b) = C(n, n - b): it sums
b < n - b doubled and b = n / 2 once.

Codes cannot carry or alias.  A table entry at s-degree n is a
derivative of one piece of weight n, or a product of derivatives of
pieces whose weights sum to n.  A derivative subtracts e_i only from a
profile with m_i >= a_i (elsewhere the factor is 0 and the group
dropped), and pieces have k, l, m_i <= weight, so every field of every
code, sums included, stays in 0 .. n <= nmax <= dmax <= DMAX_LIMIT <
2^bits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, perm
from typing import Sequence

from .evolution import _PK, ConnectedSeries
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


class KpEvaluator:
    """Derivative and product tables for residuals up to one s-bound, read
    from the series' stored groups.  Entry n of a derivative table is a
    [(profile, factor, entries), ...] list, one item per profile group of
    degree n; entry n of a product table is a packed [(code, int), ...]
    list."""

    def __init__(self, series: ConnectedSeries, nmax: int):
        if nmax < 0:
            raise ValueError(f"s-degree bound {nmax} is negative")
        if nmax > series.dmax:
            raise TruncationError(
                f"s-degree {nmax} beyond computed degree {series.dmax}")
        self.nmax = nmax
        self._groups = [None, *series._groups[:nmax]]
        self._derivs: dict[MultiIndex, list] = {}
        self._products: dict[tuple[MultiIndex, ...], list] = {}

    def _deriv(self, multi: MultiIndex) -> list:
        """Entry d: the multi-derivative of G_d = (d-1)! M_d, as one item
        (profile - sum of E[i], (d-1)! * prod m_i! / (m_i - a_i)!, entries)
        per profile group with every m_i >= a_i, a_i the times i occurs in
        multi; the entries are a view of the group's (kl, M) items."""
        tables = self._derivs.get(multi)
        if tables is None:
            bits, mask, E = _PK.bits, _PK.mask, _PK.E
            # (the shift of m_i's field, a_i) for each index i in multi
            alpha = [(bits * (i + 1), a) for i, a in Counter(multi).items()]
            drop = sum(E[i] for i in multi)
            tables = self._derivs[multi] = [None]
            for d in range(1, self.nmax + 1):
                items, fd = [], factorial(d - 1)
                for prof, group in self._groups[d].items():
                    f = fd
                    for shift, a in alpha:
                        f *= perm(prof >> shift & mask, a)  # 0 when m_i < a_i
                    if f:
                        items.append((prof - drop, f, group.items()))
                tables.append(items)
        return tables

    def _product(self, factors: tuple[MultiIndex, ...]) -> list:
        """Entry n: P_n, n! times the s^n value of a product of two or more
        factors, the binomial convolution of its head and last factor group
        by group; a head of two or more factors is its flattened product
        table, one group per degree.  A square doubles b < n - b."""
        out = self._products.get(factors)
        if out is None:
            *head, last = factors
            U = self._deriv(last)
            square = head == [last]
            A = self._deriv(head[0]) if len(head) == 1 else [
                [(0, 1, terms)] for terms in self._product(tuple(head))]
            out = self._products[factors] = [()] * (self.nmax + 1)
            for n in range(len(factors), self.nmax + 1):
                acc: dict = {}
                for b in range(1, n // 2 + 1 if square else n):
                    c = comb(n, b) << (square and 2 * b < n)
                    for pb, fb, eb in U[b]:
                        for pa, fa, ea in A[n - b]:
                            _convolve(ea, eb, acc, c * fa * fb, pa + pb)
                out[n] = [(code, v) for code, v in acc.items() if v]
        return out

    def _scaled_residual(self, eq: KpEquation, n: int) -> tuple[dict, int]:
        """(L * n! times the s^n residual as packed ints, L * n!)."""
        if not 1 <= n <= self.nmax:
            raise TruncationError(f"s-degree {n} outside 1..{self.nmax}")
        L = lcm(*(coeff.denominator for coeff, _ in eq.terms))
        acc: dict = {}
        for coeff, factors in eq.terms:  # each term times the unit series 1
            scale = coeff.numerator * (L // coeff.denominator)
            if len(factors) > 1:
                _convolve(((0, 1),), self._product(factors)[n], acc, scale)
                continue
            for prof, f, entries in self._deriv(factors[0])[n]:
                _convolve(((0, 1),), entries, acc, scale * f, prof)
        return {code: v for code, v in acc.items() if v}, L * factorial(n)

    def residual(self, eq: KpEquation, n: int) -> GradedSeries:
        """s^n coefficient of the residual; a polynomial in u, v, t."""
        terms, den = self._scaled_residual(eq, n)
        decode = _PK.decode
        return GradedSeries({decode(code): Fraction(v, den)
                             for code, v in terms.items()}, n, _raw=True)


def kp_residual(series: ConnectedSeries, eq: KpEquation, n: int) -> GradedSeries:
    """Residual polynomial of one equation at one s-degree (must be zero)."""
    return KpEvaluator(series, n).residual(eq, n)


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
    evaluator = KpEvaluator(series, nmax)
    rows = []
    for eq in equations:
        eq.weight()  # audit homogeneity before trusting the data
        for n in range(1, nmax + 1):
            terms = len(evaluator._scaled_residual(eq, n)[0])
            rows.append(KpRow(eq.id, n, terms, not terms))
    return KpReport(nmax, tuple(rows))
