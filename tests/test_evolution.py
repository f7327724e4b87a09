from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.cache import load_cache, save_cache
from dessins.evolution import (
    ConnectedSeries,
    _diff_buckets,
    _edge_moves,
    _join_pair,
    _next_marked,
    _Packing,
    grow_cycle,
    join_components,
    next_piece,
    partition_function,
    recursion_rhs,
    split_or_join_cycles,
)
from dessins.series import (
    GradedSeries,
    NonPhysicalKeyError,
    TruncationError,
    canonical_multiplicities,
    exp_series,
    genus_of,
    partition_weight,
    physical_keys,
)

F = Fraction


def mono(k, l, m, c=1, trunc=8):
    return GradedSeries.monomial(k, l, m, F(c), trunc)


# hand-derived low-degree pieces (checked independently against the
# exhaustive S_2 / S_3 permutation-pair counts)
PIECE_1 = {(1, 1, (1,)): F(1)}
PIECE_2 = {(1, 1, (2,)): F(1, 2),
           (2, 1, (0, 1)): F(1, 2),
           (1, 2, (0, 1)): F(1, 2)}
PIECE_3 = {(1, 1, (3,)): F(1, 3),
           (2, 1, (1, 1)): F(1),
           (1, 2, (1, 1)): F(1),
           (3, 1, (0, 0, 1)): F(1, 3),
           (1, 3, (0, 0, 1)): F(1, 3),
           (2, 2, (0, 0, 1)): F(1),
           (1, 1, (0, 0, 1)): F(1, 3)}


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_grow_cycle():
    assert dict(grow_cycle(mono(1, 1, (1,))).terms) == {(1, 1, (0, 1)): 1}
    assert grow_cycle(GradedSeries.one(4)).is_zero()
    t2 = GradedSeries.monomial(0, 0, (0, 1), 1, 4)
    assert dict(grow_cycle(t2).terms) == {(0, 0, (0, 0, 1)): 2}


def test_split_or_join_cycles():
    assert dict(split_or_join_cycles(mono(1, 1, (1,))).terms) == {(1, 1, (2,)): 1}
    assert split_or_join_cycles(GradedSeries.one(4)).is_zero()
    # on t1*t2 the split move gives t1^2*t2 five ways (once from the size-1
    # cycle, twice from each ordered split of the size-2 cycle) and the
    # join move gives t4 from both orders of the (1, 2) pair
    t1t2 = GradedSeries.monomial(0, 0, (1, 1), 1, 8)
    assert dict(split_or_join_cycles(t1t2).terms) == {
        (0, 0, (2, 1)): 5, (0, 0, (0, 0, 0, 1)): 4}


def test_join_components():
    a = mono(1, 1, (1,))
    assert dict(join_components(a, a).terms) == {(2, 2, (0, 0, 1)): 1}
    assert join_components(a, GradedSeries.one(8)).is_zero()
    b = mono(1, 1, (0, 1))
    out = join_components(b, a)
    assert dict(out.terms) == {(2, 2, (0, 0, 0, 1)): 2}
    assert join_components(a, b) == out  # symmetric in the two inputs


def test_operators_raise_weight_by_one():
    s = mono(2, 1, (1, 2), trunc=12)  # weight 5
    for op in (grow_cycle, split_or_join_cycles):
        out = op(s)
        assert {partition_weight(m) for _, _, m in out.terms} == {6}
    assert {partition_weight(m) for _, _, m in join_components(s, s).terms} == {11}


# ---------------------------------------------------------------------------
# the packed kernel against the operators
# ---------------------------------------------------------------------------

KERNEL = _Packing(16)  # every k, l and weight below is < 16
KERNEL.units(16)  # the unit vectors _diff_buckets and _join_pair read


def _decoded(out):
    return {KERNEL.decode(code): c for code, c in out.items()}


def _moved(move, terms, *args):
    out = {}
    move(KERNEL, KERNEL.encode_terms(terms), out, *args)
    return _decoded(out)


def _half(terms):
    return {(k, l, m): c for (k, l, m), c in terms.items() if k <= l}


def _one_edge(series):
    """(u+v) * grow_cycle + split_or_join_cycles, from the public operators."""
    u_plus_v = GradedSeries({(1, 0, ()): 1, (0, 1, ()): 1}, series.truncation)
    return u_plus_v * grow_cycle(series) + split_or_join_cycles(series)


@pytest.mark.parametrize("series", [
    mono(1, 1, (1,)), GradedSeries.one(4),
    GradedSeries.monomial(0, 0, (0, 1), 1, 4),
    GradedSeries.monomial(0, 0, (1, 1), 1, 8)])
def test_kernel_full_modes_match_operators(series):
    assert _moved(_edge_moves, series.terms) == dict(_one_edge(series).terms)


_PROFILES = st.lists(st.integers(0, 3), max_size=4).map(canonical_multiplicities) \
    .filter(lambda m: partition_weight(m) <= 8)  # every output entry stays < 16


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6), _PROFILES),
                       st.integers(-5, 5), max_size=6))
def test_kernel_full_mode_matches_operators_on_random_series(terms):
    series = GradedSeries(terms, 16)
    moved = {key: c for key, c in _moved(_edge_moves, series.terms).items() if c}
    assert moved == dict(_one_edge(series).terms)


@pytest.mark.parametrize("n", range(3, 7))
def test_kernel_half_modes_match_operators(engine6, n):
    # u <-> v-symmetric engine pieces, re-truncated so no output is cut;
    # the half mode reads the whole piece and skips its keys with k > l
    a = GradedSeries(dict(engine6.piece(n).terms), 16)
    assert _moved(_edge_moves, a.terms, 1, True) == _half(_one_edge(a).terms)
    da = _diff_buckets(KERNEL, KERNEL.encode_terms(a.terms))
    for n2 in range(3, 7):
        b = GradedSeries(dict(engine6.piece(n2).terms), 16)
        db = _diff_buckets(KERNEL, KERNEL.encode_terms(b.terms))
        out = {}
        _join_pair(KERNEL, da, db, out)
        assert _decoded(out) == _half(join_components(a, b).terms)


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def test_seed_and_low_degrees(engine6):
    assert dict(engine6.piece(1).terms) == PIECE_1
    assert dict(engine6.piece(2).terms) == PIECE_2
    assert dict(engine6.piece(3).terms) == PIECE_3


def test_next_piece_degree_2():
    seed = GradedSeries(PIECE_1, 1)
    assert dict(next_piece([seed]).terms) == PIECE_2


def test_next_piece_checks_its_input():
    with pytest.raises(ValueError, match="degree-1 piece"):
        next_piece([mono(1, 1, (2,))])  # wrong seed
    seed = GradedSeries(PIECE_1, 2)
    with pytest.raises(ValueError):
        next_piece([seed, GradedSeries({(1, 1, (0, 1)): F(1, 2)}, 2)])  # unphysical


def _assembled_piece(pieces, d):
    """Piece d by the insertion formula, from the public operators and the
    full pair sum n = 1 .. d-2 (no symmetry shortcut)."""
    prev = pieces[d - 2]
    u_plus_v = GradedSeries({(1, 0, ()): 1, (0, 1, ()): 1}, d)
    total = u_plus_v * grow_cycle(prev) + split_or_join_cycles(prev)
    for n in range(1, d - 1):
        total = total + join_components(pieces[n - 1], pieces[d - 2 - n])
    return total.scaled(F(1, d))


@pytest.mark.parametrize("d", range(2, 10))
def test_next_piece_matches_public_operator_assembly(engine10, d):
    pieces = engine10.pieces[:d - 1]
    assembled = _assembled_piece(pieces, d)
    assert next_piece(pieces) == assembled
    assert dict(assembled.terms) == dict(engine10.piece(d).terms)
    # the engine's own step: the k <= l half computed, the rest mirrored
    pk = _Packing(d)
    packed = [pk.encode_terms(engine10.marked_piece(n)) for n in range(1, d)]
    full = _next_marked(pk, packed, [], d)
    assert {pk.decode(code): v for code, v in full.items()} == {
        key: c * d for key, c in assembled.terms.items()}


def test_packing_memory_is_linear_in_the_bound():
    tracemalloc.start()
    try:
        pk = _Packing(6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert pk.units(3) == [0, 1 << 26, 1 << 39, 1 << 52]  # 13-bit fields


@pytest.mark.parametrize("start, stop", [(3, 9), (12, 17)])
def test_extension_across_field_widths(start, stop):
    # packed fields are dmax.bit_length() wide: the lower pieces are re-encoded
    # from 2 to 4 bits (3 -> 9) and from 4 to 5 bits (12 -> 17)
    extended = ConnectedSeries.compute(start).extended_to(stop)
    assert extended.pieces == ConnectedSeries.compute(stop).pieces


def test_cache_loaded_series_extends(tmp_path):
    path = tmp_path / "f.cache"
    save_cache(path, ConnectedSeries.compute(6))
    loaded = load_cache(path)
    assert loaded.extended_to(10).pieces == ConnectedSeries.compute(10).pieces


def test_compute_validates_and_is_deterministic():
    one = ConnectedSeries.compute(1)
    assert one.dmax == 1 and dict(one.piece(1).terms) == PIECE_1
    a = ConnectedSeries.compute(5)
    b = ConnectedSeries.compute(5)
    assert a.pieces == b.pieces
    assert ConnectedSeries.compute(3).extended_to(5).pieces == a.pieces
    assert a.extended_to(2).dmax == 2
    with pytest.raises(ValueError):
        ConnectedSeries.compute(0)
    with pytest.raises(TruncationError):
        a.piece(6)
    with pytest.raises(TruncationError):
        a.marked_piece(0)


def test_fraction_pieces_are_built_once(engine6):
    series = ConnectedSeries.compute(6)
    assert series.pieces is series.pieces
    assert series.piece(3) is series.pieces[2]
    assert series.pieces == engine6.pieces
    assert all(isinstance(c, F) for p in series.pieces for c in p.terms.values())


def test_constructor_rejects_bad_pieces():
    with pytest.raises(ValueError, match="need at least the degree-1 piece"):
        ConnectedSeries([])
    with pytest.raises(ValueError):
        ConnectedSeries([mono(1, 1, (2,))])  # wrong seed
    seed = GradedSeries(PIECE_1, 2)
    with pytest.raises(ValueError, match="piece 2 is empty"):
        ConnectedSeries([seed, GradedSeries({}, 2)])
    inhomogeneous = GradedSeries({(1, 1, (2,)): F(1, 2), (1, 1, (1,)): 1}, 2)
    with pytest.raises(ValueError):
        ConnectedSeries([seed, inhomogeneous])
    unphysical = GradedSeries({(1, 1, (0, 1)): F(1, 2)}, 2)  # genus parity
    with pytest.raises(ValueError):
        ConnectedSeries([seed, unphysical])
    non_integral = GradedSeries({(1, 1, (2,)): F(1, 3)}, 2)  # 2/3 not integer
    with pytest.raises(ArithmeticError):
        ConnectedSeries([seed, non_integral])


BAD_KEYS = [  # (piece 2 plus this key, exception type, message)
    ((1, 1, (1,)), ValueError, "piece 2 is not homogeneous of weight 2"),
    ((2, 2, (0, 1)), NonPhysicalKeyError, "key (2, 2, (0, 1)) has no integer genus >= 0"),
    ((0, 3, (0, 1)), NonPhysicalKeyError,
     "key (0, 3, (0, 1)) needs k, l >= 1 and weight >= 1"),
]


@pytest.mark.parametrize("key, exc_type, message", BAD_KEYS)
def test_constructor_check_messages(key, exc_type, message):
    pieces = [GradedSeries(PIECE_1, 2), GradedSeries({**PIECE_2, key: F(1, 2)}, 2)]
    with pytest.raises(exc_type) as info:
        ConnectedSeries(pieces)
    assert type(info.value) is exc_type and str(info.value) == message


def _stray_moves(monkeypatch, d, key):
    """Make the degree-d step emit key (marked count 1) on top of its moves."""
    real = _edge_moves

    def stray(pk, src, out, factor=1, half=False):
        real(pk, src, out, factor, half)
        if partition_weight(pk.decode(next(iter(src)))[2]) == d - 1:
            code = pk.encode(key)
            out[code] = out.get(code, 0) + factor * (d - 1)

    monkeypatch.setattr("dessins.evolution._edge_moves", stray)


@pytest.mark.parametrize("key, exc_type, message", BAD_KEYS)
def test_computed_degree_check_messages(monkeypatch, key, exc_type, message):
    _stray_moves(monkeypatch, 2, key)
    with pytest.raises(ArithmeticError) as info:
        ConnectedSeries.compute(3)
    assert str(info.value) == f"computed degree 2: {message}"
    assert type(info.value.__cause__) is exc_type


def test_profile_checked_at_each_degree(monkeypatch):
    # profile (0, 1) is planned in the step of degree 3 (its keys are the
    # source); as a key of degree 3 it has the wrong weight
    pieces = [GradedSeries(PIECE_1, 3), GradedSeries(PIECE_2, 3),
              GradedSeries({**PIECE_3, (1, 2, (0, 1)): F(1, 3)}, 3)]
    with pytest.raises(ValueError, match="^piece 3 is not homogeneous of weight 3$"):
        ConnectedSeries(pieces)
    _stray_moves(monkeypatch, 3, (1, 2, (0, 1)))
    with pytest.raises(ArithmeticError,
                       match="^computed degree 3: piece 3 is not homogeneous of weight 3$"):
        ConnectedSeries.compute(4)


def test_coefficient_lookup(engine6):
    assert engine6.coefficient(1, 1, (1,)) == 1
    assert engine6.coefficient(2, 1, (0, 1)) == F(1, 2)
    assert engine6.coefficient(1, 1, (2,)) == F(1, 2)
    assert engine6.coefficient(5, 5, (2,)) == 0
    assert engine6.coefficient(1, 1, ()) == 0
    with pytest.raises(TruncationError):
        engine6.coefficient(1, 1, (7,))


def test_structural_invariants(engine10):
    for d in range(1, engine10.dmax + 1):
        piece = engine10.piece(d)
        assert {partition_weight(m) for _, _, m in piece.terms} == {d}
        marked = engine10.marked_piece(d)
        for (k, l, m), c in piece.terms.items():
            genus_of((k, l, m))
            assert marked[(k, l, m)] == c * d
            assert piece.terms[(l, k, m)] == c  # u <-> v symmetry


def test_support_is_exactly_the_physical_keys(engine10):
    for d in range(1, engine10.dmax + 1):
        assert set(engine10.piece(d).terms) == set(physical_keys(d))


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------

def test_partition_function_small():
    z0 = partition_function(0)
    assert dict(z0.terms) == {(0, 0, ()): 1}
    z1 = partition_function(1)
    assert dict(z1.terms) == {(0, 0, ()): 1, (1, 1, (1,)): 1}
    z2 = partition_function(2)
    assert dict(z2.terms) == {(0, 0, ()): 1, (1, 1, (1,)): 1,
                              (1, 1, (2,)): F(1, 2),
                              (2, 1, (0, 1)): F(1, 2),
                              (1, 2, (0, 1)): F(1, 2),
                              (2, 2, (2,)): F(1, 2)}


def test_partition_function_is_exp_of_connected(engine6):
    assert partition_function(6) == exp_series(engine6.combined())


# ---------------------------------------------------------------------------
# coefficient recursion as an identity check
# ---------------------------------------------------------------------------

def test_recursion_seed_and_example(engine6):
    assert recursion_rhs(engine6, 1, 1, (1,)) == 1
    assert recursion_rhs(engine6, 2, 1, (0, 1)) == F(1, 2)
    assert recursion_rhs(engine6, 1, 1, ()) == 0
    with pytest.raises(TruncationError):
        recursion_rhs(engine6, 1, 1, (7,))


def test_recursion_matches_table_exhaustively(engine6, engine14):
    # up to the top degree of a series, and every key with d <= 12
    for series, top, keys in ((engine6, 6, 128), (engine14, 12, 4004)):
        checked = 0
        for d in range(1, top + 1):
            for key in physical_keys(d):
                checked += 1
                assert recursion_rhs(series, *key) == \
                    series.coefficient(*key), key
        assert checked == keys


def test_recursion_returns_fractions(engine6):
    keys = [(1, 1, (1,)), (1, 1, (1, 1)), (2, 2, (0, 1)), (1, 2, (3,))]
    keys += [key for d in range(1, 7) for key in physical_keys(d)]
    for key in keys:
        assert type(recursion_rhs(engine6, *key)) is F, key


def test_recursion_vanishes_off_support(engine6):
    # keys violating the genus parity get zero from both paths
    for key in [(1, 1, (1, 1)), (2, 2, (0, 1)), (1, 2, (3,))]:
        assert recursion_rhs(engine6, *key) == 0
        assert engine6.coefficient(*key) == 0
