from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.cache import load_cache, parse_cache, render_cache, save_cache
from dessins.evolution import (
    _PK,
    DMAX_LIMIT,
    ConnectedSeries,
    _checked_groups,
    _decode_degree,
    _kron_encode,
    _linear_moves,
    _next_marked,
    _slot_width,
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

def _slots(P, W):
    """(index, value) of every nonzero W-bit slot of P."""
    mask = (1 << W) - 1
    return [(s, P >> W * s & mask) for s in range(P.bit_length() // W + 1)
            if P >> W * s & mask]


def _kl_moved(terms):
    """The moves of ``_linear_moves`` on terms, in the (k, l) layout of the
    partition function: slot k + K*l of the profile's P holds the count at
    (k, l, m).  Every k and l below is at most 6 before a move, so K = 16
    holds them, and every moved count fits W = 32 bits.  A slot holds a
    count >= 0, so the positive and the negative parts move apart."""
    W, K, out = 32, 16, {}
    for sign in (1, -1):
        src = {}
        for (k, l, m), c in terms.items():
            if sign * c > 0:
                prof = _PK.profile(m)[1]
                src[prof] = src.get(prof, 0) + (int(sign * c) << W * (k + K * l))
        acc = {}
        _linear_moves(src, acc, 1, W, W * K, 0)
        for prof, P in acc.items():
            for s, v in _slots(P, W):
                key = (s % K, s // K, _PK.decode(prof)[2])
                out[key] = out.get(key, 0) + sign * v
    return {key: c for key, c in out.items() if c}


def _one_edge(series):
    """(u+v) * grow_cycle + split_or_join_cycles, from the public operators."""
    u_plus_v = GradedSeries({(1, 0, ()): 1, (0, 1, ()): 1}, series.truncation)
    return u_plus_v * grow_cycle(series) + split_or_join_cycles(series)


@pytest.mark.parametrize("series", [
    mono(1, 1, (1,)), GradedSeries.one(4),
    GradedSeries.monomial(0, 0, (0, 1), 1, 4),
    GradedSeries.monomial(0, 0, (1, 1), 1, 8)])
def test_kernel_full_modes_match_operators(series):
    assert _kl_moved(series.terms) == dict(_one_edge(series).terms)


_PROFILES = st.lists(st.integers(0, 3), max_size=4).map(canonical_multiplicities) \
    .filter(lambda m: partition_weight(m) <= 8)  # every output entry stays < 32


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6), _PROFILES),
                       st.integers(-5, 5), max_size=6))
def test_kernel_full_mode_matches_operators_on_random_series(terms):
    series = GradedSeries(terms, 16)
    assert _kl_moved(series.terms) == dict(_one_edge(series).terms)


def test_linear_moves_in_the_engine_layout_match_operators():
    # the degree step's layout: slot k + K*g of a moved profile of weight
    # d + 1 holds the count at (k, top - 2g - k, m), top = d + 3 - parts
    series = ConnectedSeries.compute(9)
    W, K = _slot_width(9), 10
    for d in range(1, 9):
        acc = {}
        _linear_moves(_kron_encode(series._groups[d - 1], d, W, K), acc, 1, W, 0, W * K)
        moved = {}
        for prof, P in acc.items():
            m = _PK.decode(prof)[2]
            for s, v in _slots(P, W):
                k, g = s % K, s // K
                moved[k, d + 3 - sum(m) - 2 * g - k, m] = v
        assert moved == dict(_one_edge(series.piece(d)).scaled(d).terms), d


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


def _step(series, d):
    """The degree-d step and decode of the engine on the series' groups
    below d, packed in slots for dmax = d; the decoded groups as a
    tuple-keyed piece, and the genus row."""
    W, K = _slot_width(d), d + 1
    kron = [_kron_encode(series._groups[n - 1], n, W, K) for n in range(1, d)]
    sums = [sum(series.marked_piece(n).values()) for n in range(1, d)]
    groups, row, _ = _decode_degree(_next_marked(kron, sums, d, W, K), d, W, K)
    return {_PK.decode(prof + kl): v for prof, group in groups.items()
            for kl, v in group.items()}, row


@pytest.mark.parametrize("d", range(2, 10))
def test_next_piece_matches_public_operator_assembly(engine10, d):
    pieces = engine10.pieces[:d - 1]
    assembled = _assembled_piece(pieces, d)
    assert next_piece(pieces) == assembled
    assert dict(assembled.terms) == dict(engine10.piece(d).terms)
    # the engine's own step and decode
    piece, row = _step(engine10, d)
    assert piece == {key: c * d for key, c in assembled.terms.items()}
    assert row == [sum(v for key, v in piece.items() if genus_of(key) == g)
                   for g in range(len(row))]


def test_step_is_exact_on_asymmetric_pieces():
    # one marked count moved between two genus-0 keys of degree 3 breaks
    # u <-> v symmetry but keeps the sums; the step still equals the
    # operators on every key of degree 4
    lie = {**PIECE_3, (2, 2, (0, 0, 1)): F(2)}
    del lie[1, 2, (1, 1)]
    pieces = [GradedSeries(PIECE_1, 4), GradedSeries(PIECE_2, 4), GradedSeries(lie, 4)]
    assert ConnectedSeries(pieces).extended_to(4).piece(4) == _assembled_piece(pieces, 4)


def test_packing_holds_every_key_up_to_the_limit():
    # 5-bit fields hold every entry up to DMAX_LIMIT = 31; E has a unit
    # vector for every part size up to DMAX_LIMIT + 1
    assert _PK.bits == 5 and DMAX_LIMIT == 31
    for key in [(31, 31, (31,)), (1, 31, (0,) * 30 + (1,)), (31, 1, (1,) * 31)]:
        assert _PK.decode(_PK.encode(key)) == key
    assert len(_PK.E) == DMAX_LIMIT + 2
    assert _PK.E[:3] == [0, 1 << 10, 1 << 15]


@pytest.mark.parametrize("start, stop", [(3, 9), (12, 17)])
def test_extension_reuses_the_stored_groups(start, stop):
    # the stored groups enter the slots of the larger bound as they are;
    # the series equals one computed to that bound at once
    lower = ConnectedSeries.compute(start)
    extended = lower.extended_to(stop)
    computed = ConnectedSeries.compute(stop)
    assert extended.pieces == computed.pieces
    assert extended._groups == computed._groups
    assert all(a is b for a, b in zip(extended._groups, lower._groups))


def test_checked_input_refuses_degrees_past_the_limit():
    def unread():  # the bound is refused before any term is read
        raise AssertionError("a term was read")
        yield

    with pytest.raises(ValueError, match="degree 32 is beyond DMAX_LIMIT = 31"):
        _checked_groups(DMAX_LIMIT + 1, unread())
    with pytest.raises(ValueError, match="degree 32 is beyond DMAX_LIMIT = 31"):
        ConnectedSeries([GradedSeries(PIECE_1, 32)] * 32)


def test_extension_refuses_degrees_past_the_limit(engine6):
    for extend in (engine6.extended_to, ConnectedSeries.compute):
        with pytest.raises(ValueError, match="degree 40 is beyond DMAX_LIMIT = 31"):
            extend(40)
    with pytest.raises(ValueError, match="degree 32 is beyond DMAX_LIMIT = 31"):
        engine6.extended_to(DMAX_LIMIT + 1)


def test_partition_function_refuses_degrees_past_the_limit():
    with pytest.raises(ValueError, match="degree 32 is beyond DMAX_LIMIT = 31"):
        partition_function(DMAX_LIMIT + 1)


def test_every_entry_stores_one_form():
    # computed, loaded from a cache, given as pieces, or cut back: a series
    # holds the same {profile: {kl: M}} groups in the one packing
    computed = ConnectedSeries.compute(10)
    deeper = ConnectedSeries.compute(12)
    recursion_rhs(deeper, 2, 1, (0, 1))  # builds deeper's step memo
    cut = deeper.extended_to(10)
    forms = [computed, parse_cache(render_cache(computed)),
             ConnectedSeries(computed.pieces), cut]
    for series in forms:
        assert series._groups == computed._groups
        assert series._rows == computed._rows
    # a cut-back shares its parent's groups, not its step memo
    assert cut._groups == deeper._groups[:10]
    assert all(a is b for a, b in zip(cut._groups, deeper._groups))
    assert deeper._steps is not None and cut._steps is None


def test_constructor_files_any_order_and_checks_it(engine6):
    # the pieces' terms may come in any order; every count is checked as it
    # is filed
    def pieces(changes=(), top=6):
        out = []
        for d in range(1, top + 1):
            terms = list(engine6.piece(d).terms.items()) if d <= 6 else []
            random.Random(22 + d).shuffle(terms)
            terms = dict(terms)
            terms.update((key, c) for at, key, c in changes if at == d)
            out.append(GradedSeries(terms, top, _raw=True))
        return out

    def refused(error, message, changes=(), top=6):
        with pytest.raises(error, match=message):
            ConnectedSeries(pieces(changes, top))

    assert ConnectedSeries(pieces())._groups == engine6._groups
    # (3, 0) is the profile (3,) with a trailing zero: the key again
    refused(ValueError, "^piece 3 repeats a key$", [(3, (1, 1, (3, 0)), F(1, 3))])
    refused(ValueError, "^piece 6 is not homogeneous of weight 6$",
            [(6, (1, 1, (0,) * 6 + (1,)), F(1))])
    refused(ValueError, "^piece 7 is empty$", top=7)
    refused(ValueError, r"^piece 3: marked count at \(1, 1, \(3,\)\) is zero$",
            [(3, (1, 1, (3,)), F(0))])
    refused(ValueError, r"^piece 3: marked count at \(1, 1, \(3,\)\) is negative$",
            [(3, (1, 1, (3,)), F(-1, 3))])
    refused(ArithmeticError, r"^marked count at \(1, 1, \(3,\)\) is not integral$",
            [(3, (1, 1, (3,)), F(1, 2))])
    refused(ValueError, "^degree-1 piece must be exactly u\\*v\\*t1$",
            [(1, (1, 1, (1,)), F(2))])
    refused(ValueError, r"^piece 3: count at \(1, 1, \(3,\)\) has denominator 0$",
            [(3, (1, 1, (3,)), SimpleNamespace(numerator=1, denominator=0))])


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
    # counts of maps: the degree step's slot bound needs them >= 0
    with pytest.raises(ValueError,
                       match=r"^piece 2: marked count at \(1, 1, \(2,\)\) is negative$"):
        ConnectedSeries([seed, GradedSeries(PIECE_2, 2).scaled(-1)])


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


# the plants (d, profile, k, g, count) of a compute(d + 1), the cause of
# the error and its message.  At d = 2 the profile (0, 1) has l = 3 - 2g - k,
# so slot (0, 0) is the key (0, 3), slot (2, 1) is (2, -1), slot (3, 0) is
# (3, 0) and slot (0, 1) is (0, 1); at d = 3 the profile (0, 0, 1) has
# l = 4 - 2g - k and two genus rows, the last of which holds the physical
# slot (1, 1) beside (2, 1), the key (2, 0).  A computed key's genus is
# its slot row, so it cannot lack an integer genus.  C = 2 at d = 3, so a
# count of 1/2 is not integral; an ArithmeticError of the decode itself
# has no cause.
COMPUTED_FAULTS = [
    pytest.param([(2, (1,), 1, 0, 1)], ValueError,
                 "computed degree 2: piece 2 is not homogeneous of weight 2",
                 id="key0-ValueError-piece 2 is not homogeneous of weight 2"),
    pytest.param([(2, (0, 1), 0, 0, 1)], NonPhysicalKeyError,
                 "computed degree 2: key (0, 3, (0, 1)) needs k, l >= 1 and weight >= 1",
                 id="key2-NonPhysicalKeyError-key (0, 3, (0, 1)) needs k, l >= 1 and weight >= 1"),
    pytest.param([(2, (0, 1), 2, 1, 1)], NonPhysicalKeyError,
                 "computed degree 2: key (2, -1, (0, 1)) needs k, l >= 1 and weight >= 1",
                 id="slot-l-below-1-NonPhysicalKeyError"),
    pytest.param([(3, (0, 0, 1), 2, 1, 1)], NonPhysicalKeyError,
                 "computed degree 3: key (2, 0, (0, 0, 1)) needs k, l >= 1 and weight >= 1",
                 id="slot-l-below-1-in-the-last-genus-row"),
    # the lower slot is named, though a scan by k would meet (0, 1) first
    pytest.param([(2, (0, 1), 0, 1, 1), (2, (0, 1), 3, 0, 1)], NonPhysicalKeyError,
                 "computed degree 2: key (3, 0, (0, 1)) needs k, l >= 1 and weight >= 1",
                 id="two-faults-name-the-lower-slot"),
    pytest.param([(3, (0, 0, 1), 1, 0, F(1, 2))], type(None),
                 "marked count at (1, 3, (0, 0, 1)) is not integral",
                 id="non-integral-physical-slot"),
]


@pytest.mark.parametrize("plants, cause, message", COMPUTED_FAULTS)
def test_computed_degree_check_messages(plant, plants, cause, message):
    for fault in plants:
        plant(*fault)
    with pytest.raises(ArithmeticError) as info:
        ConnectedSeries.compute(plants[0][0] + 1)
    assert str(info.value) == message
    assert type(info.value.__cause__) is cause


def test_profile_checked_at_each_degree(plant):
    # profile (0, 1) is a source of the step of degree 3; as a key of
    # degree 3 it has the wrong weight
    pieces = [GradedSeries(PIECE_1, 3), GradedSeries(PIECE_2, 3),
              GradedSeries({**PIECE_3, (1, 2, (0, 1)): F(1, 3)}, 3)]
    with pytest.raises(ValueError, match="^piece 3 is not homogeneous of weight 3$"):
        ConnectedSeries(pieces)
    plant(3, (0, 1), 1, 0)
    with pytest.raises(ArithmeticError,
                       match="^computed degree 3: piece 3 is not homogeneous of weight 3$"):
        ConnectedSeries.compute(4)


def test_step_refuses_a_total_past_the_slots():
    # dmax = 3 packs into 8-bit slots (C_3 * A003319(4) = 26); piece 2 with
    # every count times 40 fits them, but T_3 = 2 * (4 * 120 + 1) = 962 does not
    assert _slot_width(3) == 8 and _slot_width(14) == 64
    seed = GradedSeries(PIECE_1, 3)
    scaled = GradedSeries({key: 40 * c for key, c in PIECE_2.items()}, 3)
    with pytest.raises(ArithmeticError,
                       match="^computed degree 3: step total 962 does not fit 8-bit slots$"):
        ConnectedSeries([seed, scaled]).extended_to(3)
    # a stored count past the slot is refused as it is packed
    scaled = GradedSeries({key: 300 * c for key, c in PIECE_2.items()}, 3)
    with pytest.raises(ArithmeticError, match=r"^degree 2: marked count at \(1, 1, \(2,\)\) "
                                              "needs more than 8 bits$"):
        ConnectedSeries([seed, scaled]).extended_to(3)


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


def test_partition_function_pieces_sum_to_n_factorial():
    # the weight-n piece counts the pairs of permutations of n symbols over
    # n!, so its coefficients sum to n!: the premise of the slot bound
    sums = [0] * 13
    for (_, _, m), c in partition_function(12).terms.items():
        sums[partition_weight(m)] += c
    assert sums == [factorial(n) for n in range(13)]


# ---------------------------------------------------------------------------
# coefficient recursion as an identity check
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corrupted8():
    """compute(8) with +1 on the weighted count at one key each of degrees
    5, 6 and 7, as the constructor accepts it."""
    pieces = list(ConnectedSeries.compute(8).pieces)
    for d, key in ((5, (1, 4, (0, 1, 1))), (6, (1, 5, (1, 0, 0, 0, 1))),
                   (7, (2, 4, (0, 2, 1)))):
        terms = dict(pieces[d - 1].terms)
        assert key in terms
        terms[key] += 1
        pieces[d - 1] = GradedSeries(terms, 8)
    return ConnectedSeries(pieces)


@pytest.mark.parametrize("d", range(2, 9))
def test_recursion_matches_public_operator_assembly_on_corrupted_series(corrupted8, d):
    # on counts the engine never produced, the recursion still gives the
    # insertion formula of the public operators, exactly, on every key
    assembled = dict(_assembled_piece(corrupted8.pieces[:d - 1], d).terms)
    values = {key: recursion_rhs(corrupted8, *key) for key in physical_keys(d)}
    assert values == {key: assembled.get(key, 0) for key in physical_keys(d)}
    assert all(type(v) is F for v in values.values())
    if d >= 6:  # the edits below d reach this degree
        assert any(v != corrupted8.coefficient(*key) for key, v in values.items())


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


@pytest.mark.parametrize("m", [(0, 0, 2), (1, 1, 1), (6,), (0, 0, 0, 0, 1), (2, 0, 1)])
def test_recursion_is_zero_for_k_or_l_outside_the_degree(engine6, m):
    # l and k sit in 5-bit fields of kl = l | k << 5: if they were packed,
    # l = 33 would read as l = 1 and l = 34 as l = 2 (both with k's bit 0
    # set), and k = 33 would carry into m_1's field; no key has k or l
    # above its weight, so each value is 0, from the recursion and the table
    d = partition_weight(m)
    for k, l in ((0, 1), (1, 0), (0, 0), (d + 1, 1), (1, d + 1), (d + 1, d + 1),
                 (1, 33), (33, 1), (1, 34), (3, 34), (33, 33), (-1, 2), (2, -3)):
        assert recursion_rhs(engine6, k, l, m) == 0, (k, l)
        assert engine6.coefficient(k, l, m) == 0, (k, l)
    with pytest.raises(TruncationError):
        recursion_rhs(engine6, 0, 0, m + (1,))  # weight d + len(m) + 1 > 6
    with pytest.raises(TruncationError):
        engine6.coefficient(0, 0, m + (1,))


def test_profiles_are_read_in_any_form(engine6):
    # trailing zeros and a list name the same profile; a negative entry is
    # refused on every call, so it is never memoised
    for read in (engine6.coefficient, lambda *key: recursion_rhs(engine6, *key)):
        assert read(2, 1, (0, 1)) == F(1, 2)
        for k, l in ((1, 1), (2, 1), (1, 2), (2, 2)):
            assert read(k, l, (0, 1, 0)) == read(k, l, [0, 1]) == read(k, l, (0, 1)), (k, l)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^negative multiplicity in \(1, -1\)$"):
                read(1, 1, (1, -1))


def test_recursion_vanishes_off_support(engine6):
    # keys violating the genus parity get zero from both paths
    for key in [(1, 1, (1, 1)), (2, 2, (0, 1)), (1, 2, (3,))]:
        assert recursion_rhs(engine6, *key) == 0
        assert engine6.coefficient(*key) == 0
