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

The evaluator runs on the packed keys and the pair convolution of
``evolution`` with plain integer coefficients.  With F_d = M_d / d (M_d
the integer marked piece), the s^n value of a product of r derivative
factors is the sum over n_1 + ... + n_r = n of prod_j U_j(n_j) / n_j,
U_j the factor's derivative of M.  Each prod n_j divides n! (it divides
prod n_j!, which divides n!), so P_n = n! times that value is an
integer.  One factor has P_n = (n-1)! U(n), a derivative of the integer
piece G_n = n! F_n = (n-1)! M_n; appending a factor gives the binomial
convolution P_n = sum_b C(n, b) P_head(n-b) (b-1)! U(b).  With L the lcm
of an equation's coefficient denominators, L * n! times its residual is
the integer sum of (coeff * L) P_n, which vanishes exactly when the
residual does; a Fraction is formed only when residual() returns it.

Keys are packed with 2^bits > nmax.  A table entry at s-degree n is a
derivative of one piece of weight n, or a product of derivatives of
pieces whose weights sum to n; derivatives only lower an m_i that is at
least one, and pieces have k, l, m_i <= weight, so every field of every
key, sums included, stays in 0 .. n <= nmax and cannot carry or alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence

from .evolution import ConnectedSeries, _convolve, _Packing
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

class KpEvaluator:
    """Shared derivative/product tables for residuals up to one s-bound;
    entry n of a table is a packed [(key, int), ...] list."""

    def __init__(self, series: ConnectedSeries, nmax: int):
        if nmax < 0:
            raise ValueError(f"s-degree bound {nmax} is negative")
        if nmax > series.dmax:
            raise TruncationError(
                f"s-degree {nmax} beyond computed degree {series.dmax}")
        self.nmax = nmax
        self._pk = pk = _Packing(max(nmax, 1))
        # the empty derivative, entry d: G_d = d! F_d = (d-1)! times the
        # marked piece d * F_d
        self._derivs: dict[MultiIndex, list] = {(): [None] + [
            [(code, factorial(d - 1) * c) for code, c in pk.encode_terms(t).items()]
            for d, t in enumerate(series._marked[:nmax], 1)]}
        self._products: dict[tuple[MultiIndex, ...], list] = {}

    def _deriv(self, multi: MultiIndex) -> list:
        """Entry d: the multi-derivative of G_d, one t_i-derivative (i the
        last index) of the memoised multi[:-1]."""
        tables = self._derivs.get(multi)
        if tables is None:
            pk = self._pk
            shift = pk.bits * (multi[-1] + 1)  # the field of m_i
            mask, e = pk.mask, 1 << shift
            tables = self._derivs[multi] = [None] + [
                [(code - e, x * c) for code, c in terms if (x := code >> shift & mask)]
                for terms in self._deriv(multi[:-1])[1:]]
        return tables

    def _product(self, factors: tuple[MultiIndex, ...]) -> list:
        """Entry n: P_n, n! times the s^n value of the product of factors."""
        if len(factors) == 1:
            return self._deriv(factors[0])
        if factors not in self._products:
            head, U = self._product(factors[:-1]), self._deriv(factors[-1])
            out: list = [None] * (self.nmax + 1)
            for n in range(len(factors), self.nmax + 1):
                acc: dict = {}
                for b in range(1, n - len(factors) + 2):
                    if head[n - b] and U[b]:
                        _convolve(head[n - b], U[b], acc, comb(n, b))
                out[n] = [(code, v) for code, v in acc.items() if v]
            self._products[factors] = out
        return self._products[factors]

    def _scaled_residual(self, eq: KpEquation, n: int) -> tuple[dict, int]:
        """(L * n! times the s^n residual as packed ints, L * n!)."""
        if not 1 <= n <= self.nmax:
            raise TruncationError(f"s-degree {n} outside 1..{self.nmax}")
        L = lcm(*(coeff.denominator for coeff, _ in eq.terms))
        acc: dict = {}
        for coeff, factors in eq.terms:
            scale = coeff.numerator * (L // coeff.denominator)
            for code, v in self._product(factors)[n] or ():
                acc[code] = acc.get(code, 0) + scale * v
        return {code: v for code, v in acc.items() if v}, L * factorial(n)

    def residual(self, eq: KpEquation, n: int) -> GradedSeries:
        """s^n coefficient of the residual; a polynomial in u, v, t."""
        terms, den = self._scaled_residual(eq, n)
        decode = self._pk.decode
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
