from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dessins.evolution import ConnectedSeries
from dessins.series import (
    GradedSeries,
    MonomialKey,
    NonPhysicalKeyError,
    TruncationError,
    canonical_multiplicities,
    exp_series,
    from_parts,
    genus_of,
    multiplicities_decr,
    multiplicities_incr,
    multiplicities_sum,
    partition_parts,
    partition_weight,
    partitions,
    parts_list,
    physical_keys,
)


def mono(k, l, m, c=1, trunc=6):
    return GradedSeries.monomial(k, l, m, Fraction(c), trunc)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_canonical_strips_trailing_zeros():
    assert canonical_multiplicities((2, 0, 1, 0, 0)) == (2, 0, 1)
    assert canonical_multiplicities(()) == ()
    assert canonical_multiplicities((0, 0)) == ()
    with pytest.raises(ValueError):
        canonical_multiplicities((1, -1))


def test_weight_and_parts():
    assert partition_weight((2, 0, 1)) == 5
    assert partition_parts((2, 0, 1)) == 3
    assert partition_weight(()) == 0
    assert partition_parts(()) == 0


def test_parts_list_round_trip():
    assert parts_list((2, 0, 1)) == (3, 1, 1)
    assert from_parts((3, 1, 1)) == (2, 0, 1)
    assert parts_list(()) == ()
    assert from_parts(()) == ()
    with pytest.raises(ValueError):
        from_parts((0,))


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        ms = list(partitions(n))
        assert len(ms) == count
        assert len(set(ms)) == count
        for m in ms:
            assert m == canonical_multiplicities(m)
            assert partition_weight(m) == n


def test_multiplicity_surgery():
    assert multiplicities_incr((1,), 3) == (1, 0, 1)
    assert multiplicities_incr((), 1) == (1,)
    assert multiplicities_decr((1, 0, 1), 3) == (1,)
    assert multiplicities_decr((2,), 1) == (1,)
    with pytest.raises(ValueError):
        multiplicities_decr((1,), 2)
    assert multiplicities_sum((1, 2), (0, 0, 3)) == (1, 2, 3)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

def test_genus_examples():
    assert genus_of((1, 1, (1,))) == 0       # the one-edge map is planar
    assert genus_of((1, 1, (2,))) == 0
    assert genus_of((1, 1, (0, 0, 1))) == 1
    with pytest.raises(NonPhysicalKeyError):
        genus_of((1, 1, (1, 1)))             # parity violation
    with pytest.raises(NonPhysicalKeyError):
        genus_of((3, 3, (1,)))               # genus would be negative
    with pytest.raises(NonPhysicalKeyError):
        genus_of((0, 1, (1,)))               # needs k >= 1
    with pytest.raises(NonPhysicalKeyError):
        genus_of((1, 1, ()))                 # needs weight >= 1


def test_physical_keys_all_pass_genus():
    for d in range(1, 8):
        keys = list(physical_keys(d))
        assert len(keys) == len(set(keys))
        for key in keys:
            assert key.weight() == d
            genus_of(key)


def test_key_ordering():
    a = MonomialKey(1, 1, (2,))
    b = MonomialKey(1, 2, (0, 1))
    c = MonomialKey(1, 1, (1,))
    assert sorted([b, a, c], key=MonomialKey.sort_key) == [c, a, b]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_mul_monomials():
    uvt1 = mono(1, 1, (1,))
    sq = uvt1 * uvt1
    assert dict(sq.terms) == {(2, 2, (2,)): Fraction(1)}


def test_add_cancels():
    x = mono(1, 2, (1, 1), c=Fraction(3, 7))
    assert (x + x.scaled(-1)).is_zero()
    assert (x - x).is_zero()


def test_mul_truncates():
    t1 = GradedSeries.monomial(0, 0, (1,), 1, 2)
    t1_plus_t2 = GradedSeries({(0, 0, (1,)): 1, (0, 0, (0, 1)): 1}, 2)
    out = t1_plus_t2 * t1
    assert dict(out.terms) == {(0, 0, (2,)): 1}  # t1*t2 has weight 3 > 2


def test_diff_t():
    s = mono(1, 1, (2,))
    assert dict(s.diff_t(1).terms) == {(1, 1, (1,)): Fraction(2)}
    assert mono(1, 1, (1,)).diff_t(2).is_zero()
    t2sq = GradedSeries.monomial(0, 0, (0, 2), 1, 6)
    assert dict(t2sq.diff_t(2).terms) == {(0, 0, (0, 1)): 2}
    with pytest.raises(ValueError):
        s.diff_t(0)


def test_mul_t_and_shift_uv():
    uv = mono(1, 1, ())
    assert dict(uv.mul_t(1).terms) == {(1, 1, (1,)): Fraction(1)}
    uvt2 = mono(1, 1, (0, 1))
    # multiplying by u is a product with a weight-0 monomial
    assert dict((uvt2 * mono(1, 0, ())).terms) == {(2, 1, (0, 1)): Fraction(1)}
    t1 = GradedSeries.monomial(0, 0, (1,), 1, 2)
    assert t1.mul_t(2).is_zero()  # weight 3 truncated at 2


def test_coefficient_and_truncation_error():
    s = mono(1, 1, (1,), c=Fraction(1, 3), trunc=2)
    assert s.coefficient(1, 1, (1,)) == Fraction(1, 3)
    assert s.coefficient(2, 1, (1,)) == 0
    with pytest.raises(TruncationError):
        s.coefficient(1, 1, (3,))


def test_constructor_rejects_bad_terms():
    with pytest.raises(TruncationError):
        GradedSeries({(1, 1, (0, 0, 1)): 1}, 2)
    with pytest.raises(ValueError):
        GradedSeries({(-1, 0, ()): 1}, 2)
    with pytest.raises(ValueError):
        GradedSeries([((1, 1, (1,)), 1), ((1, 1, (1, 0)), 2)], 2)  # duplicate
    # zero coefficients are dropped, non-canonical profiles normalized
    s = GradedSeries({(1, 1, (1, 0)): 1, (2, 2, (2,)): 0}, 2)
    assert dict(s.terms) == {(1, 1, (1,)): 1}


def test_validate_connected_and_disconnected():
    # connected pieces are checked by the ConnectedSeries constructor
    seed = GradedSeries({(1, 1, (1,)): 1}, 1)
    assert ConnectedSeries([seed]).piece(1) == seed
    bad = GradedSeries({(1, 1, (0, 1)): 1}, 2)  # 2g - 2 = -1
    with pytest.raises(NonPhysicalKeyError):
        ConnectedSeries([seed, bad])
    z = GradedSeries({(0, 0, ()): 1, (1, 1, (1,)): 1}, 3)
    z.validate_disconnected()
    with pytest.raises(ValueError):
        GradedSeries({(1, 1, (1,)): 1}, 3).validate_disconnected()  # no 1
    with pytest.raises(NonPhysicalKeyError):
        GradedSeries({(0, 0, ()): 1, (2, 1, (1,)): 1}, 3).validate_disconnected()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_canonical_form():
    s = GradedSeries({(2, 1, (0, 1)): Fraction(1, 2),
                      (1, 1, (2,)): Fraction(1, 2),
                      (1, 2, (0, 1)): Fraction(1, 2)}, 2)
    assert s.render() == ("2 1 1 1,1 1/2\n"
                          "2 1 2 2 1/2\n"
                          "2 2 1 2 1/2")
    assert GradedSeries.parse(s.render(), 2) == s


def test_render_empty_profile():
    s = GradedSeries({(1, 1, ()): Fraction(-2, 3)}, 1)
    assert s.render() == "0 1 1 - -2/3"
    assert GradedSeries.parse(s.render(), 1) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        GradedSeries.parse("1 1 1 2 1/1", 4)  # profile weight != d field
    with pytest.raises(ValueError):
        GradedSeries.parse("1 1 1 1 0/1", 4)  # stored zero
    with pytest.raises(ValueError):
        GradedSeries.parse("1 1 1 1 1/1\n1 1 1 1 2/1", 4)  # duplicate key
    with pytest.raises(ValueError):
        GradedSeries.parse("1 1 1 1", 4)  # missing field


def test_parse_refuses_a_part_past_the_weight_before_sizing(monkeypatch):
    # from_parts sizes a list by the largest part: the refused line must
    # not reach it (a recorder stands in, so nothing is sized here)
    calls = []

    def recording(parts):
        calls.append(list(parts))
        return (1,)

    monkeypatch.setattr("dessins.series.from_parts", recording)
    with pytest.raises(ValueError, match="^line 2: part 3000000 is larger than the weight 1$"):
        GradedSeries.parse("1 1 1 1 1/1\n1 1 1 3000000 1/1", 1)
    assert calls == [[1]]
    # a weight past the truncation is refused before its profile is read,
    # and the error names the weight, not the key
    with pytest.raises(TruncationError,
                       match="^line 2: weight 3000000 exceeds truncation 1$"):
        GradedSeries.parse("1 1 1 1 1/1\n3000000 1 1 3000000 1/1", 1)
    assert calls == [[1], [1]]  # line 1 of each text


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

def test_exp_small():
    f = GradedSeries.monomial(1, 1, (1,), Fraction(1), 2)
    e = exp_series(f)
    assert dict(e.terms) == {(0, 0, ()): 1, (1, 1, (1,)): 1,
                             (2, 2, (2,)): Fraction(1, 2)}


def test_exp_rejects_constant():
    with pytest.raises(ValueError):
        exp_series(GradedSeries.one(3))


# ---------------------------------------------------------------------------
# algebraic laws on random small series
# ---------------------------------------------------------------------------

SMALL_PROFILES = [m for w in range(5) for m in partitions(w)]

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)

keys = st.tuples(st.integers(0, 2), st.integers(0, 2),
                 st.sampled_from(SMALL_PROFILES))

series = st.dictionaries(keys, coefficients, max_size=20).map(
    lambda terms: GradedSeries(terms, 4))


@settings(max_examples=60, deadline=None)
@given(series, series)
def test_add_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(series, series, series)
def test_assoc_and_distrib(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series, series, st.integers(1, 4))
def test_leibniz(a, b, i):
    # differentiation lowers weight, so the law needs the product untruncated
    a = GradedSeries(a.terms, 8)
    b = GradedSeries(b.terms, 8)
    assert (a * b).diff_t(i) == a.diff_t(i) * b + a * b.diff_t(i)


@settings(max_examples=60, deadline=None)
@given(series)
def test_render_parse_round_trip(a):
    assert GradedSeries.parse(a.render(), a.truncation) == a


@settings(max_examples=40, deadline=None)
@given(series, st.integers(1, 3))
def test_diff_mul_t_commutator(a, i):
    # d/dt_i (t_i * a) - t_i * (d/dt_i a) = a  when nothing is truncated away
    a = GradedSeries(a.terms, 8)
    assert a.mul_t(i).diff_t(i) - a.diff_t(i).mul_t(i) == a
