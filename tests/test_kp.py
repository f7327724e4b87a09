from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import factorial, perm

import pytest

from dessins.evolution import _PK, ConnectedSeries, recursion_rhs
from dessins.kp import (
    KP_EQUATIONS,
    KpEquation,
    KpEvaluator,
    KpRow,
    _digits,
    _reads,
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


#: both terms have weight 3, but 2r - #A is 0 for (1, 2) and 1 for (3,):
#: their tables could not be shifted by whole genus rows into one layout
MIXED_PARITY = KpEquation(98, ((Fraction(1), ((1, 2),)),
                               (Fraction(1), ((3,),))))


def test_lift_audit_rejects_mixed_parity():
    assert MIXED_PARITY.weight() == 3
    with pytest.raises(ValueError, match="odd and even"):
        MIXED_PARITY.lifts()
    assert [eq.lifts() for eq in KP_EQUATIONS] == [
        (0, 0, 0, -2), (0, 0, 0, -2), (0, 0, 0, 0, -2, -2, -2, -4),
        (0, 0, 0, 0, 0, -2, -2, -2, -4)]


def test_evaluator_refuses_mixed_parity_and_unserved_equations(engine6):
    with pytest.raises(ValueError, match="odd and even"):
        KpEvaluator(engine6, 6, (MIXED_PARITY,))
    with pytest.raises(ValueError, match="odd and even"):
        kp_report(engine6, 6, (MIXED_PARITY,))
    # W covers the equations an evaluator is built for, and only they
    one = KpEvaluator(engine6, 6, KP_EQUATIONS[:1])
    assert one.W <= KpEvaluator(engine6, 6).W
    with pytest.raises(ValueError, match="equation 2 is not one"):
        one.residual(KP_EQUATIONS[1], 3)


def test_report_hashes_no_equation_once_the_evaluator_is_built(engine10, monkeypatch):
    # a lookup finds its plan by identity: hashing a KpEquation hashes
    # every Fraction of its terms, so no report may do it per residual
    built, building = [], []
    real_init, real_hash = KpEvaluator.__init__, KpEquation.__hash__

    def init(self, *args, **kwargs):
        building.append(self)  # an evaluator may hash while it is built
        real_init(self, *args, **kwargs)
        building.remove(self)
        built.append(self)

    def hash_(eq):
        assert building or not built, \
            f"equation {eq.id} hashed after the evaluator was built"
        return real_hash(eq)

    monkeypatch.setattr(KpEvaluator, "__init__", init)
    monkeypatch.setattr(KpEquation, "__hash__", hash_)
    report = kp_report(engine10, 10)
    assert report.passed and len(report.rows) == 40 and built
    # an equal equation built elsewhere is served, hashing nothing either
    evaluator = built[0]
    for eq in KP_EQUATIONS:
        equal = KpEquation(eq.id, tuple(eq.terms))
        assert equal is not eq and equal == eq
        assert evaluator.residual_terms(equal, 7) == 0
        assert evaluator.residual(equal, 7).terms == {}
    one = KpEvaluator(engine10, 4, KP_EQUATIONS[:1])
    with pytest.raises(ValueError, match="equation 2 is not one"):
        one.residual_terms(KpEquation(2, tuple(KP_EQUATIONS[1].terms)), 3)


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


def test_negative_bound_is_refused(engine6):
    for nmax in (-1, -2):
        with pytest.raises(ValueError, match="s-degree bound"):
            kp_report(engine6, nmax)
    with pytest.raises(TruncationError, match="outside 1..0"):
        kp_residual(engine6, KP_EQUATIONS[0], 0)


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


@pytest.mark.parametrize("d, i, least", [
    (4, 1, 4), (6, 1, 4), (8, 1, 4), (4, 2, 2), (6, 2, 2), (8, 2, 2),
    (6, 3, 2), (8, 3, 2)])
def test_profile_factors_match_series_algebra(engine10, d, i, least):
    # a corruption at the key of degree d with the largest m_i >= least:
    # its derivatives carry the falling factorials m_i! / (m_i - a_i)!,
    # and the squares (1,1)^2, (1,2)^2, (1,1,1)^2 read it in both halves
    def m_i(key):
        return key[2][i - 1] if len(key[2]) >= i else 0

    key = max(sorted(engine10.piece(d).terms), key=m_i)
    assert m_i(key) >= least
    mutated = _corrupt(engine10, d, key, 3)
    want = _residuals_by_series_algebra(mutated, 8)
    evaluator = KpEvaluator(mutated, 8)
    for eq in KP_EQUATIONS:
        for n in range(1, 9):
            got = evaluator.residual(eq, n)
            assert dict(got.terms) == want[(eq.id, n)], (eq.id, n)
    assert any(want.values())


def test_shared_index_does_not_depend_on_call_order(engine14):
    # one series serves KP to 10, the recursion, then KP to 14 from its
    # stored groups; each result equals that of a series read by one route only
    key = (1, 1, (3, 0, 1))
    assert key in engine14.marked_piece(6)

    def mutated():
        return _corrupt(engine14, 6, key, 2)

    keys = [key for d in range(1, 9) for key in sorted(engine14.marked_piece(d))]
    shared = mutated()
    first = kp_report(shared, 10)
    values = [recursion_rhs(shared, *k) for k in keys]
    last = kp_report(shared, 14)
    assert first == kp_report(mutated(), 10)
    fresh = mutated()
    assert values == [recursion_rhs(fresh, *k) for k in keys]
    assert last == kp_report(mutated(), 14)
    assert not last.passed and sum(v != engine14.coefficient(*k)
                                   for k, v in zip(keys, values)) > 0
    cut = shared.extended_to(8)
    assert cut._steps is not shared._steps
    assert kp_report(cut, 8) == kp_report(mutated().extended_to(8), 8)
    assert [recursion_rhs(cut, *k) for k in keys] == values


def test_report_at_degree_14(engine14):
    report = kp_report(engine14, 14)
    assert report.rows == tuple(KpRow(eq, n, 0, True)
                                for eq in (1, 2, 3, 4) for n in range(1, 15))


def _slot_values(P: int, W: int) -> list[int]:
    """The W-bit slots of a non-negative P, lowest first."""
    out, mask = [], (1 << W) - 1
    while P:
        out.append(P & mask)
        P >>= W
    return out


def test_table_slots_sum_to_their_totals(engine10):
    # every table, products included, is non-negative and sums to the
    # scalar total the slot width is sized from: no slot carried
    evaluator = KpEvaluator(engine10, 10)
    for eq in KP_EQUATIONS:
        for n in range(1, 11):
            evaluator.residual_terms(eq, n)
    products = [f for f in evaluator._tables if len(f) > 1]
    assert len(products) == 7
    for factors, table in evaluator._tables.items():
        total = evaluator._total(factors)
        for n, items in enumerate(table):
            assert sum(sum(_slot_values(P, evaluator.W)) for _, P in items) == total[n]
    # W = bitlen(B) + 1, B the largest total and residual bound
    bound = max(sum(abs(scale) * evaluator._total(factors)[n] for scale, factors, _ in terms)
                for _, _, terms in evaluator._plans.values() for n in range(1, 11))
    assert evaluator.W == max(bound, *map(max, evaluator._totals.values())).bit_length() + 1


#: kp_report(mutated, 10), mutated = engine10 with N + 1 at (1, 2, (3, 1)):
#: residual_terms per row, equations 1..4, n = 1..10 (as computed by the
#: (kl, M) pair convolution this evaluator replaced)
PINNED_TERMS = (0, 0, 0, 0, 0, 0, 1, 1, 3, 7,
                0, 0, 0, 0, 1, 0, 1, 3, 3, 11,
                0, 0, 0, 0, 0, 0, 0, 3, 6, 7,
                0, 0, 0, 0, 0, 0, 0, 3, 6, 8)


@pytest.fixture(scope="module")
def pinned(engine10) -> ConnectedSeries:
    key = (1, 2, (3, 1))
    assert key[2][0] >= 2
    return _corrupt(engine10, 5, key)


def test_failing_report_is_pinned(pinned):
    report = kp_report(pinned, 10)
    assert report.rows == tuple(
        KpRow(eq, n, terms, not terms)
        for (eq, n), terms in zip(((eq, n) for eq in (1, 2, 3, 4) for n in range(1, 11)),
                                  PINNED_TERMS))
    signs = set()
    for row, eq in zip(report.rows, (eq for eq in KP_EQUATIONS for _ in range(10))):
        residual = kp_residual(pinned, eq, row.n)
        assert row.residual_terms == len(residual.terms), row
        signs.update(c > 0 for c in residual.terms.values())
    assert signs == {False, True}


@pytest.mark.parametrize("delta", [1, -1])
def test_residual_slots_fit_the_slot_width(engine10, delta):
    # each term's table decoded slot by slot (exact: it is non-negative
    # and does not carry), scaled and shifted into the equation's layout
    # and summed, is the residual, and every such slot is below 2^(W-1):
    # the residual's balanced digits are those slots
    series = _corrupt(engine10, 5, (1, 2, (3, 1)), delta)
    evaluator = KpEvaluator(series, 10)
    W, K = evaluator.W, evaluator._K
    signed = set()
    for eq in KP_EQUATIONS:
        _, _, terms = evaluator._plans[eq]
        for n in range(1, 11):
            want: dict = {}
            for scale, factors, rows in terms:
                for prof, P in evaluator._table(factors)[n]:
                    slots = want.setdefault(prof, {})
                    for s, v in enumerate(_slot_values(P, W)):
                        slots[s + K * rows] = slots.get(s + K * rows, 0) + scale * v
            got = evaluator._residual(eq, n)
            for prof, slots in want.items():
                nonzero = {s: v for s, v in slots.items() if v}
                assert all(abs(v) < 1 << W - 1 for v in nonzero.values())
                assert dict(_digits(got.get(prof, 0), W)) == nonzero, (eq.id, n)
                signed.update(v > 0 for v in nonzero.values())
    assert signed == {False, True}


def test_report_keeps_no_state(engine10):
    series = engine10.extended_to(8)
    groups = [{prof: list(counts) for prof, counts in g.items()} for g in series._groups]
    first = kp_report(series, 8)
    assert series._steps is None
    assert [dict(g) for g in series._groups] == groups
    assert kp_report(series, 8) == first


def _scanned_reads(groups, multi):
    """The reference for ``_reads``: every stored profile visited, each
    kept when its factor (d-1)! prod m_i! / (m_i - a_i)! is nonzero."""
    bits, mask, E = _PK.bits, _PK.mask, _PK.E
    alpha = [(bits * (i + 1), a) for i, a in Counter(multi).items()]
    drop = sum(E[i] for i in multi)
    out = [[]]
    for d, profiles in enumerate(groups, 1):
        items = []
        for prof in profiles:
            f = factorial(d - 1)
            for shift, a in alpha:
                f *= perm(prof >> shift & mask, a)
            if f:
                items.append((prof, prof - drop, f))
        out.append(items)
    return out


def test_reads_by_construction_equal_the_full_scan(engine14):
    # a series without the profile 2 1 of degree 3 (m = (1, 1)), which the
    # (1, 2)-derivative reads at q the empty partition: it is skipped
    pieces = list(engine14.extended_to(6).pieces)
    pieces[2] = GradedSeries({key: c for key, c in pieces[2].terms.items()
                              if key[2] != (1, 1)}, 6)
    missing = ConnectedSeries(pieces)
    assert _PK.profile((1, 1))[1] not in missing._groups[2]
    multis = {multi for eq in KP_EQUATIONS for _, factors in eq.terms for multi in factors}
    for series in (engine14, missing):
        for multi in multis:
            got, want = _reads(series._groups, multi), _scanned_reads(series._groups, multi)
            assert [sorted(items) for items in got] == [sorted(items) for items in want], multi
