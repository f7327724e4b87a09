from __future__ import annotations

import hashlib
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dessins import cache
from dessins.cache import (
    load_cache,
    load_or_compute,
    parse_cache,
    render_cache,
    save_cache,
)
from dessins.cli import main
from dessins.evolution import _PK, ConnectedSeries
from dessins.series import GradedSeries


def _fraction_route(series):
    """The v1 cache text of a series (the format earlier versions wrote,
    now refused), through the Fraction pieces and GradedSeries.render,
    which sorts each piece by its own key order."""
    body = "\n".join(series.piece(d).render() for d in range(1, series.dmax + 1))
    return f"DESSIN-F v1 dmax={series.dmax}\n{body}\n"


def _same_series(a, b) -> bool:
    return a._groups == b._groups and a._rows == b._rows


def test_round_trip(engine6):
    text = render_cache(engine6)
    assert text.splitlines()[0] == "DESSIN-F v2 dmax=6"
    assert text.splitlines()[1:5] == ["1 1 1", "2 2 1 1", "2 1,1 1", "3 3 1 1 3 1"]
    parsed = parse_cache(text)
    assert _same_series(parsed, engine6)
    assert parsed.pieces == engine6.pieces
    assert render_cache(parsed) == text


def test_d14_cache_bytes_are_pinned(engine14):
    # the Fraction route GradedSeries.render of the d = 14 series: the v1
    # bytes earlier versions wrote
    text = _fraction_route(engine14).encode("ascii")
    assert len(text) == 242283
    assert hashlib.sha256(text).hexdigest() == (
        "4749c0293251626d4e1b168f0269b86e9d7dd2f884e6c971cb1966c5b48e486c")


def test_d16_cache_bytes_are_pinned(engine14):
    # every coefficient of degrees 15 and 16 through the Fraction route
    # GradedSeries.render, as the earlier dict-based degree step rendered
    # them in v1
    text = _fraction_route(engine14.extended_to(16)).encode("ascii")
    assert len(text) == 631330
    assert hashlib.sha256(text).hexdigest() == (
        "f2327e409f9a1241fb88941749f6b57ad821ca45aeb59d454b7d883261e21164")


def test_d14_v2_cache_bytes_are_pinned(engine14):
    text = render_cache(engine14).encode("ascii")
    assert len(text) == 80177
    assert hashlib.sha256(text).hexdigest() == (
        "f152d73067b49609b586e2a76bb478b96da3248fa878d9016def90ed56fcdaef")


def test_d16_v2_cache_bytes_are_pinned(engine14):
    text = render_cache(engine14.extended_to(16)).encode("ascii")
    assert len(text) == 220490
    assert hashlib.sha256(text).hexdigest() == (
        "9466b80c5679a8460f8f5b7a2e783f4dc8eab50bf2fdcbe53417a5805a35cb15")


@pytest.mark.parametrize("dmax", [*range(1, 11), 14])
def test_render_matches_the_fraction_route(engine14, dmax):
    # the series built from the Fraction pieces renders the computed
    # series' v2 text, which loads back
    computed = engine14 if dmax == 14 else ConnectedSeries.compute(dmax)
    # the constructor's groups filed in reverse canonical order
    built = ConnectedSeries([GradedSeries(dict(reversed(piece.terms.items())), dmax)
                             for piece in computed.pieces])
    want = render_cache(computed)
    assert _same_series(built, computed)
    assert render_cache(built) == want
    assert _same_series(parse_cache(want), computed)


def test_d14_round_trip_keeps_marked_and_fraction_pieces(engine14):
    computed = ConnectedSeries.compute(14)
    parsed = parse_cache(render_cache(engine14))
    assert all(parsed.marked_piece(d) == computed.marked_piece(d)
               for d in range(1, 15))
    assert parsed.pieces == computed.pieces


def test_body_is_prefix_extension(engine6):
    # the v2 body of a deeper cache byte-extends every shallower one
    bodies = [render_cache(engine6.extended_to(d)).split("\n", 1)[1] for d in range(1, 7)]
    assert all(deep.startswith(shallow) and deep != shallow
               for shallow, deep in zip(bodies, bodies[1:]))


def test_series_with_an_unstored_profile_round_trips(engine6):
    # a constructor-built series with no count at the profile 1,1,1 of
    # degree 3 (its one count moved to another genus-0 key, so every check
    # passes): that profile is written as a line of zeros and read back to
    # no group
    pieces = list(engine6.pieces)
    terms = dict(pieces[2].terms)
    del terms[(1, 1, (3,))]
    terms[(1, 3, (0, 0, 1))] += Fraction(1, 3)
    pieces[2] = GradedSeries(terms, 6)
    built = ConnectedSeries(pieces)
    assert _PK.profile((3,))[1] not in built._groups[2]
    text = render_cache(built)
    assert "\n3 1,1,1 0\n" in text and "\n3 3 1 2 3 1\n" in text
    loaded = parse_cache(text)
    assert _same_series(loaded, built)
    assert render_cache(loaded) == text


def test_parse_rejects_corruption():
    with pytest.raises(ValueError, match=r"^not a series cache \(header 'WRONG v9 dmax=2'\)$"):
        parse_cache("WRONG v9 dmax=2\n1 1 1 1 1/1\n")


def test_long_header_is_cut_in_its_refusal():
    with pytest.raises(ValueError, match=r"^not a series cache \(header 'xxx.{77}'\.\.\.\)$") \
            as info:
        parse_cache("x" * 100000 + "\n1 1 1\n")
    assert len(str(info.value)) < 200


def test_save_and_load(tmp_path, engine6):
    path = tmp_path / "series.cache"
    save_cache(path, engine6)
    assert load_cache(path).pieces == engine6.pieces


def test_load_or_compute_reuses_covering_cache(tmp_path):
    path = tmp_path / "f.cache"
    first = load_or_compute(5, path)
    assert path.exists()
    stamp = (path.stat().st_mtime_ns, path.read_bytes())
    again = load_or_compute(3, path)
    # covering cache: untouched file, deeper series returned as-is
    assert (path.stat().st_mtime_ns, path.read_bytes()) == stamp
    assert again.dmax == 5
    assert again.pieces == first.pieces


def test_load_or_compute_extends(tmp_path):
    path = tmp_path / "f.cache"
    load_or_compute(3, path)
    old_body = path.read_text().split("\n", 1)[1]
    extended = load_or_compute(6, path)
    assert extended.dmax == 6
    new_text = path.read_text()
    assert new_text.splitlines()[0] == "DESSIN-F v2 dmax=6"
    assert new_text.split("\n", 1)[1].startswith(old_body)
    assert extended.pieces == ConnectedSeries.compute(6).pieces


@pytest.mark.parametrize("dmax", [6, 4], ids=["covering", "shallower"])
def test_v1_cache_is_refused_and_left_untouched(tmp_path, capsys, engine6, dmax):
    # refused before its body is read, with the fix; the file is not rewritten
    path = tmp_path / "f.cache"
    path.write_text(_fraction_route(engine6.extended_to(dmax)))
    stamp = (path.stat().st_mtime_ns, path.read_bytes())
    with pytest.raises(ValueError, match=r"^corrupt cache .*: a v1 cache, which is no longer "
                                         r"read: delete it, and the next run writes it as v2$"):
        load_cache(path)
    assert main(["table", "--dmax", "6", "--marked", "--cache", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: corrupt cache {str(path)!r}: a v1 cache")
    assert (path.stat().st_mtime_ns, path.read_bytes()) == stamp
    assert os.listdir(tmp_path) == ["f.cache"]


def test_load_or_compute_without_cache():
    assert load_or_compute(2).pieces == ConnectedSeries.compute(2).pieces


def test_load_refuses_a_degree_past_the_limit(tmp_path, monkeypatch):
    # refused before any per-degree work: no line is read, no profile listed
    path = tmp_path / "f.cache"
    monkeypatch.setattr(cache, "_profile_lines", None)
    path.write_text("DESSIN-F v2 dmax=32\nnot a cache line\n")
    with pytest.raises(ValueError, match="corrupt cache .*degree 32 is beyond DMAX_LIMIT = 31"):
        load_cache(path)


def test_failed_write_leaves_previous_cache(tmp_path, engine6, monkeypatch):
    path = tmp_path / "f.cache"
    save_cache(path, engine6.extended_to(4))
    before = path.read_bytes()

    def half_write(self, text, *args, **kwargs):
        with open(self, "w", encoding="ascii") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError, match="disk full"):
            save_cache(path, engine6)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f.cache"]

    def failing_replace(src, dst):
        raise OSError("rename failed")

    with monkeypatch.context() as m:
        m.setattr(cache.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_cache(path, engine6)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f.cache"]

    save_cache(path, engine6)
    assert path.read_text() == render_cache(engine6)
    assert os.listdir(tmp_path) == ["f.cache"]


#: Edits of degree 3's first line (its slots (1,1) of genus 1, then (1,3),
#: (2,2) and (3,1) of genus 0) that keep its row sum: one marked count
#: moved from genus 0 to genus 1 (every count stays positive), and counts
#: moved between two genus-0 keys through a negative count.
LINE_EDITS = {
    "genus_moved": ("3 3 1 1 3 1", "3 3 2 1 2 1"),
    "negative_count": ("3 3 1 1 3 1", "3 3 1 -2 6 1"),
}


def _mutated_cache8(engine10, mutation: str) -> str:
    """A v2 cache of degree 8 with one mutation."""
    lines = render_cache(engine10.extended_to(8)).splitlines(keepends=True)
    middle = len(lines) // 2  # an interior line of degree 7
    if mutation == "header_below_body":  # the body's degree 8 is past dmax
        return "".join(["DESSIN-F v2 dmax=7\n"] + lines[1:])
    if mutation == "truncated":
        return "".join(lines[:-3])
    if mutation == "line_deleted":
        return "".join(lines[:middle] + lines[middle + 1:])
    if mutation == "reordered":
        lines[middle], lines[middle + 1] = lines[middle + 1], lines[middle]
        return "".join(lines)
    if mutation == "duplicated":
        return "".join(lines[:middle + 1] + lines[middle:])
    if mutation in LINE_EDITS:
        old, new = LINE_EDITS[mutation]
        text = "".join(lines)
        assert f"\n{old}\n" in text
        return text.replace(f"\n{old}\n", f"\n{new}\n")
    # sign_flipped: the line's first nonzero count made negative
    fields = lines[middle].split(" ")
    at = next(i for i in range(2, len(fields)) if fields[i].strip() != "0")
    fields[at] = "-" + fields[at]
    return "".join(lines[:middle] + [" ".join(fields)] + lines[middle + 1:])


@pytest.mark.parametrize("mutation", ["truncated", "line_deleted", "sign_flipped",
                                      "reordered", "duplicated", "genus_moved",
                                      "negative_count", "header_below_body"])
def test_mutated_cache_is_rejected(tmp_path, capsys, engine10, mutation):
    path = tmp_path / "f.cache"
    path.write_text(_mutated_cache8(engine10, mutation))
    # the refusal names the line (or lines) at fault
    with pytest.raises(ValueError, match=r"^corrupt cache .*: lines? \d"):
        load_cache(path)
    assert main(["table", "--dmax", "8", "--marked", "--cache", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: corrupt cache")


def test_valid_cache_loads_with_identical_output(tmp_path, capsys, engine10):
    path = tmp_path / "f.cache"
    save_cache(path, engine10.extended_to(8))
    before = path.read_bytes()
    assert load_cache(path).pieces == engine10.extended_to(8).pieces
    argv = ["table", "--dmax", "8", "--marked"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv + ["--cache", str(path)]) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == before


#: one edit of one line of a cache text split at its newlines (the last
#: element, after the final newline, is empty): drop it, insert a line
#: before it, replace it, or replace n characters of it at pos
_TEXT = st.text(alphabet="0123456789 ,/-+_\t\r\n", max_size=12)
_EDITS = st.one_of(
    st.tuples(st.just("delete")),
    st.tuples(st.just("insert"), _TEXT),
    st.tuples(st.just("replace"), _TEXT),
    st.tuples(st.just("chars"), st.integers(0, 20), st.integers(0, 3), _TEXT),
)


def _edited(text: str, index: int, edit: tuple) -> str:
    lines = text.split("\n")
    i = index % len(lines)
    kind, *args = edit
    if kind == "delete":
        del lines[i]
    elif kind == "insert":
        lines.insert(i, args[0])
    elif kind == "replace":
        lines[i] = args[0]
    else:
        pos, n, new = args
        lines[i] = lines[i][:pos] + new + lines[i][pos + n:]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, 10 ** 4), edit=_EDITS)
@example(index=2, edit=("insert", ""))  # a blank line after the seed's
@example(index=4, edit=("replace", "3 3 1 1 3 1"))  # degree 3's first line twice
@example(index=2, edit=("chars", 0, 0, " "))  # a leading space
@example(index=0, edit=("chars", 17, 0, "0"))  # dmax=06
@example(index=3, edit=("chars", 99, 0, "\r"))  # a Windows line end
@example(index=4, edit=("chars", 8, 1, "0"))  # degree 3: a count moved within genus 0
def test_single_line_edit_of_a_v2_cache_is_refused_or_round_trips(engine6, index, edit):
    # the v2 reader accepts exactly the bytes render_cache writes
    text = _edited(render_cache(engine6), index, edit)
    try:
        series = parse_cache(text)
    except ValueError:
        return
    assert render_cache(series) == text


def _v2_edit(text: str, edit) -> str:
    """text with one edit: a callable of the line list (header first,
    the empty string after the final newline last), or (line number,
    new line or None to drop it)."""
    lines = text.split("\n")
    if callable(edit):
        edit(lines)
    else:
        at, new = edit
        if new is None:
            del lines[at - 1]
        else:
            lines[at - 1] = new
    return "\n".join(lines)


def _swap(i, j):
    def edit(lines):
        lines[i - 1], lines[j - 1] = lines[j - 1], lines[i - 1]
    return edit


#: one refusal of the v2 reader per case, on the cache of compute(6): the
#: edit, the error and what its message must match; lines 5-7 are degree 3
#: ("3 3 1 1 3 1", "3 2,1 3 3", "3 1,1,1 1"), lines 8-12 degree 4
#: (first "4 4 5 1 5 6 6 1": slots (1,2) (1,4) (2,1) (2,3) (3,2) (4,1))
V2_REFUSALS = {
    "header_tag": ((1, "DESSIN-F v3 dmax=6"), r"^not a series cache \(header 'DESSIN-F v3"),
    "header_dmax": ((1, "DESSIN-F v2 dmax=06"), r"^not a series cache \(header .*dmax=06"),
    "header_below_body": ((1, "DESSIN-F v2 dmax=5"),
                          r"^line 20: a line after the last profile of degree 5"),
    "non_ascii": ((6, "3 2,1 3 \uff13"), r"^line 6: not ASCII$"),
    "no_final_newline": (lambda lines: lines.pop(), r"^line 30 is cut short"),
    "line_missing": ((11, None), r"^line 11: expected the line of degree 4, profile 2,1,1:"),
    "last_line_missing": ((30, None), r"^line 30: expected the line of degree 6, "
                                      r"profile 1,1,1,1,1,1, found the end of the file$"),
    "line_extra": (lambda lines: lines.insert(-1, "6 1,1,1,1,1,1 1"),
                   r"^line 31: a line after the last profile of degree 6"),
    "line_repeated": (lambda lines: lines.insert(10, lines[10]),
                      r"^line 12: expected the line of degree 4, profile 1,1,1,1:"),
    "lines_reordered": (_swap(11, 12), r"^line 11: expected the line of degree 4, profile 2,1,1:"),
    "degree_field": ((6, "4 2,1 3 3"), r"^line 6: expected the line of degree 3, profile 2,1:"),
    "profile_token": ((6, "3 1,2 3 3"), r"^line 6: expected the line of degree 3, profile 2,1:"),
    "too_few_fields": ((5, "3 3 1 1 3"), r"^line 5: expected 4 counts, got 3:"),
    "too_many_fields": ((5, "3 3 1 1 3 1 0"), r"^line 5: expected 4 counts, got 5:"),
    "double_space": ((5, "3 3 1  1 3 1"), r"^line 5: expected 4 counts, got 5:"),
    "blank_line": (lambda lines: lines.insert(5, ""),
                   r"^line 6: expected the line of degree 3, profile 2,1: ''$"),
    "leading_zero": ((5, "3 3 01 1 3 1"), r"^line 5: count '01' is not a canonical numeral"),
    "plus_sign": ((5, "3 3 +1 1 3 1"), r"^line 5: count '\+1' is not a canonical numeral"),
    "underscore": ((8, "4 4 5 1 5 6 6 1_0"), r"^line 8: count '1_0' is not a canonical numeral"),
    "minus_zero": ((8, "4 4 5 1 5 6 -0 7"), r"^line 8: count '-0' is not a canonical numeral"),
    "carriage_return": ((5, "3 3 1 1 3 1\r"), r"^line 5: count '1\\r' is not a canonical numeral"),
    "negative_count": ((8, "4 4 5 -1 5 6 6 3"), r"^line 8: negative count -1:"),
    "hexadecimal": ((5, "3 3 0x1 1 3 1"), r"^line 5: count '0x1' is not a canonical numeral"),
    "decimal_point": ((5, "3 3 1 1.0 3 1"), r"^line 5: count '1\.0' is not a canonical numeral"),
    "exponent": ((5, "3 3 1 1 1e3 1"), r"^line 5: count '1e3' is not a canonical numeral"),
    "tab": ((5, "3 3 1 1 3 1\t"), r"^line 5: count '1\\t' is not a canonical numeral"),
    "leading_space": ((5, " 3 3 1 1 3 1"),
                      r"^line 5: expected the line of degree 3, profile 3: ' 3 3 1 1 3 1'$"),
    "trailing_space": ((5, "3 3 1 1 3 1 "), r"^line 5: expected 4 counts, got 5: '3 3 1 1 3 1 '$"),
    "seed_line": ((2, "1 1 2"), r"^line 2: degree-1 piece must be exactly u\*v\*t1: '1 1 2'$"),
    "row_sum": ((6, "3 2,1 3 4"), r"^lines 5-7: degree-3 marked counts do not sum to A003319\(4\)$"),
    "genus_column": ((8, "4 4 6 0 5 6 6 1"),
                     r"^lines 8-12: degree-4 genus-0/1 marked counts differ from the closed forms$"),
}


@pytest.mark.parametrize("case", V2_REFUSALS)
def test_v2_cache_refusals_name_their_line(engine6, case):
    text = render_cache(engine6)
    assert text.count("\n") == 30
    edit, message = V2_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        parse_cache(_v2_edit(text, edit))


def test_padded_v2_line_is_refused_before_any_numeral_is_read(engine6, monkeypatch):
    text = _v2_edit(render_cache(engine6), (2, "1 1 1" + " 7" * 200000))
    read = []

    def spy(*args):
        read.append(args)
        return int(*args)

    monkeypatch.setattr(cache, "int", spy, raising=False)
    with pytest.raises(ValueError, match=r"^line 2: expected 1 counts, got 200001: "
                                         r"'1 1 1 7 7 .{60,}'\.\.\.$"):
        parse_cache(text)
    assert read == [("6",)]  # the header's dmax only


def test_v2_numeral_past_the_digit_limit_names_its_line(engine6):
    text = _v2_edit(render_cache(engine6), (8, "4 4 5 1 5 6 6 " + "1" * 5000))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with pytest.raises(ValueError, match=r"^line 8: " if 0 < limit < 5000 else r"^lines 8-12: "):
        parse_cache(text)
