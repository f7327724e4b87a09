from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dessins.evolution import ConnectedSeries, recursion_rhs
from dessins.kp import (
    KP_EQUATIONS,
    KpEquation,
    KpRow,
    equation_by_id,
    kp_report,
    kp_residual,
)
from dessins.series import GradedSeries, TruncationError, partition_weight


def test_equation_weights():
    assert [eq.weight() for eq in KP_EQUATIONS] == [4, 5, 6, 6]


def test_weight_audit_rejects_mixed_terms():
    bad = KpEquation(99, ((Fraction(1), ((2, 2),)),
                          (Fraction(1), ((1, 2),))))
    with pytest.raises(ValueError):
        bad.weight()


def test_equation_lookup():
    assert equation_by_id(3).id == 3
    with pytest.raises(ValueError):
        equation_by_id(7)


def test_residuals_vanish(engine6):
    report = kp_report(engine6, 6)
    assert report.passed
    assert len(report.rows) == 4 * 6
    assert all(row.residual_terms == 0 for row in report.rows)


def test_single_residual_and_bounds(engine6):
    assert kp_residual(engine6, KP_EQUATIONS[0], 1).is_zero()
    assert kp_residual(engine6, KP_EQUATIONS[3], 6).is_zero()
    with pytest.raises(TruncationError):
        kp_residual(engine6, KP_EQUATIONS[0], 7)
    with pytest.raises(TruncationError):
        kp_report(engine6, 7)


def test_vacuous_report(engine6):
    report = kp_report(engine6, 0)
    assert report.passed
    assert report.rows == ()


def _corrupt(series: ConnectedSeries, d: int, key, delta=1) -> ConnectedSeries:
    pieces = list(series.pieces)
    terms = dict(pieces[d - 1].terms)
    terms[key] = terms.get(key, 0) + delta
    pieces[d - 1] = GradedSeries(terms, series.dmax)
    return ConnectedSeries(pieces)


def test_recursion_catches_what_kp_misses(engine10):
    # +1 at a key no factor's derivatives reach: all four KP equations
    # stay satisfied, the coefficient recursion flags the key
    key = (1, 7, (0, 0, 0, 0, 0, 0, 1))
    mutated = _corrupt(engine10, 7, key)
    assert kp_report(mutated, 10).passed
    assert recursion_rhs(mutated, *key) == engine10.coefficient(*key)
    assert mutated.coefficient(*key) == engine10.coefficient(*key) + 1


def test_recursion_reads_each_series_own_index(engine10):
    # K = (1, 8, 8^1) is read at the degree-10 key (2, 9, 10^1) only by the
    # two-component move joining K's 8-cycle with the seed's 1-cycle, once
    # in each order: factor 8 * 1 over the denominator 8 * 1, times the
    # marked count 8 * N_K, over d = 10.  So N_K + 1 moves the value by
    # 2 * 8 / 10 = 8/5.
    target = (2, 9, (0,) * 9 + (1,))
    before = recursion_rhs(engine10, *target)  # builds engine10's index
    mutated = _corrupt(engine10, 8, (1, 8, (0,) * 7 + (1,)))
    assert recursion_rhs(mutated, *target) == before + Fraction(8, 5)
    assert recursion_rhs(engine10, *target) == before == engine10.coefficient(*target)


def test_mutation_sensitivity(engine10):
    # corrupt coefficients whose profile has at least two size-1 parts:
    # such a change must show up in some residual at s-degree <= d + 2
    rng = random.Random(20240817)
    candidates = [(d, key)
                  for d in range(3, 8)
                  for key in engine10.piece(d).terms
                  if len(key[2]) >= 1 and key[2][0] >= 2]
    for d, key in rng.sample(candidates, 4):
        mutated = _corrupt(engine10, d, key)
        report = kp_report(mutated, min(10, d + 2))
        bad = [row for row in report.rows if not row.passed]
        assert bad, f"corruption at degree {d}, key {key} went unnoticed"
        assert all(row.n >= d for row in bad)


def test_residuals_below_corruption_degree_stay_zero(engine10):
    mutated = _corrupt(engine10, 6, (1, 1, (6,)))
    report = kp_report(mutated, 5)
    assert report.passed


def _residuals_by_series_algebra(series: ConnectedSeries, nmax: int) -> dict:
    """{(eq id, n): residual terms} from GradedSeries algebra on the
    combined series: every term of an equation lowers the t-weight by
    eq.weight(), so the s^n residual is the weight-(n - eq.weight()) part."""
    F = series.extended_to(nmax).combined()
    out = {}
    for eq in KP_EQUATIONS:
        total = GradedSeries.zero(nmax)
        for coeff, factors in eq.terms:
            term = GradedSeries.one(nmax)
            for multi in factors:
                dF = F
                for i in multi:
                    dF = dF.diff_t(i)
                term = term * dF
            total = total + term.scaled(coeff)
        for n in range(1, nmax + 1):
            out[(eq.id, n)] = {key: c for key, c in total.terms.items()
                               if partition_weight(key[2]) == n - eq.weight()}
    return out


def test_residuals_match_series_algebra(engine10):
    rng = random.Random(20261018)
    candidates = [(d, key) for d in range(4, 8)
                  for key in sorted(engine10.piece(d).terms)
                  if len(key[2]) >= 1 and key[2][0] >= 2]
    series = [engine10] + [_corrupt(engine10, d, key, delta)
                           for (d, key), delta in zip(rng.sample(candidates, 3),
                                                      (1, -1, 2))]
    for i, s in enumerate(series):
        want = _residuals_by_series_algebra(s, 8)
        for eq in KP_EQUATIONS:
            for n in range(1, 9):
                got = kp_residual(s, eq, n)
                assert dict(got.terms) == want[(eq.id, n)], (i, eq.id, n)
                assert all(isinstance(c, Fraction) for c in got.terms.values())
        assert any(want.values()) == (i > 0)


def test_report_at_degree_14(engine14):
    report = kp_report(engine14, 14)
    assert report.rows == tuple(KpRow(eq, n, 0, True)
                                for eq in (1, 2, 3, 4) for n in range(1, 15))
