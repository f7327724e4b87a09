from __future__ import annotations

import os
import hashlib
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
from dessins.evolution import ConnectedSeries
from dessins.series import GradedSeries


def test_round_trip(engine6):
    text = render_cache(engine6)
    assert text.splitlines()[0] == "DESSIN-F v1 dmax=6"
    parsed = parse_cache(text)
    assert parsed.pieces == engine6.pieces
    assert render_cache(parsed) == text


def test_d14_cache_bytes_are_pinned(engine14):
    text = render_cache(engine14).encode("ascii")
    assert len(text) == 242283
    assert hashlib.sha256(text).hexdigest() == (
        "4749c0293251626d4e1b168f0269b86e9d7dd2f884e6c971cb1966c5b48e486c")


def test_d16_cache_bytes_are_pinned(engine14):
    # every coefficient of degrees 15 and 16, as the earlier dict-based
    # degree step rendered them
    text = render_cache(engine14.extended_to(16)).encode("ascii")
    assert len(text) == 631330
    assert hashlib.sha256(text).hexdigest() == (
        "f2327e409f9a1241fb88941749f6b57ad821ca45aeb59d454b7d883261e21164")


def _fraction_route(series):
    """The cache text through the Fraction pieces and GradedSeries.render,
    which sorts each piece by its own key order."""
    body = "\n".join(series.piece(d).render() for d in range(1, series.dmax + 1))
    return f"DESSIN-F v1 dmax={series.dmax}\n{body}\n"


@pytest.mark.parametrize("dmax", [*range(1, 11), 14])
def test_render_matches_the_fraction_route(engine14, dmax):
    computed = engine14 if dmax == 14 else ConnectedSeries.compute(dmax)
    want = _fraction_route(computed)
    loaded = parse_cache(want)
    # the constructor's groups filed in reverse canonical order
    built = ConnectedSeries([GradedSeries(dict(reversed(piece.terms.items())), dmax)
                             for piece in computed.pieces])
    for series in (computed, loaded, built):
        assert render_cache(series) == want


def test_d14_round_trip_keeps_marked_and_fraction_pieces(engine14):
    computed = ConnectedSeries.compute(14)
    parsed = parse_cache(render_cache(engine14))
    assert all(parsed.marked_piece(d) == computed.marked_piece(d)
               for d in range(1, 15))
    assert parsed.pieces == computed.pieces


def test_body_is_prefix_extension(engine6):
    shallow = render_cache(engine6.extended_to(4))
    deep = render_cache(engine6)
    body4 = shallow.split("\n", 1)[1]
    body6 = deep.split("\n", 1)[1]
    assert body6.startswith(body4)


def test_parse_rejects_corruption(engine6):
    text = render_cache(engine6)
    with pytest.raises(ValueError):
        parse_cache("WRONG v9 dmax=2\n1 1 1 1 1/1\n")
    # drop the seed line: degree-1 piece then fails validation
    lines = text.splitlines()
    with pytest.raises(ValueError):
        parse_cache("\n".join([lines[0]] + lines[2:]))
    # corrupt one coefficient so a marked count is no longer integral
    broken = text.replace("2 1 1 1,1 1/2", "2 1 1 1,1 1/3")
    with pytest.raises(ArithmeticError):
        parse_cache(broken)


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
    assert new_text.splitlines()[0] == "DESSIN-F v1 dmax=6"
    assert new_text.split("\n", 1)[1].startswith(old_body)
    assert extended.pieces == ConnectedSeries.compute(6).pieces


def test_load_or_compute_without_cache():
    assert load_or_compute(2).pieces == ConnectedSeries.compute(2).pieces


def test_load_reports_non_integral_cache_as_corrupt(tmp_path, engine6):
    path = tmp_path / "f.cache"
    path.write_text(render_cache(engine6).replace("2 1 1 1,1 1/2", "2 1 1 1,1 1/3"))
    with pytest.raises(ValueError, match="corrupt cache"):
        load_cache(path)


def test_load_refuses_a_degree_past_the_limit(tmp_path):
    path = tmp_path / "f.cache"
    path.write_text("DESSIN-F v1 dmax=32\nnot a cache line\n")  # refused before it
    with pytest.raises(ValueError,
                       match="corrupt cache .*degree 32 is beyond DMAX_LIMIT = 31"):
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


#: Two-line edits of degree 3 that keep its row sum: one marked count moved
#: from genus 0 to genus 1 (every count stays positive), and N moved
#: between two genus-0 keys through a negative count.
LINE_EDITS = {
    "genus_moved": (("3 1 1 3 1/3", "3 1 1 3 2/3"), ("3 2 2 3 1/1", "3 2 2 3 2/3")),
    "negative_count": (("3 1 3 3 1/3", "3 1 3 3 -2/3"), ("3 2 2 3 1/1", "3 2 2 3 2/1")),
}


def _mutated_cache8(engine10, mutation: str) -> str:
    lines = render_cache(engine10.extended_to(8)).splitlines(keepends=True)
    middle = len(lines) // 2  # an interior line of degree 7
    if mutation == "header_below_body":  # the body's degree 8 is past dmax
        return "".join(["DESSIN-F v1 dmax=7\n"] + lines[1:])
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
        text = "".join(lines)
        for old, new in LINE_EDITS[mutation]:
            assert f"\n{old}\n" in text
            text = text.replace(f"\n{old}\n", f"\n{new}\n")
        return text
    d, k, l, profile, coeff = lines[middle].split()
    lines[middle] = f"{d} {k} {l} {profile} -{coeff}\n"
    return "".join(lines)


@pytest.mark.parametrize("mutation", ["truncated", "line_deleted", "sign_flipped",
                                      "reordered", "duplicated", "genus_moved",
                                      "negative_count", "header_below_body"])
def test_mutated_cache_is_rejected(tmp_path, capsys, engine10, mutation):
    path = tmp_path / "f.cache"
    path.write_text(_mutated_cache8(engine10, mutation))
    # the refusal names the line (or lines) or the key at fault
    with pytest.raises(ValueError, match=r"^corrupt cache .*(lines? \d|at \(\d+, \d+, \()"):
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
@example(index=5, edit=("replace", "3 1 1 3 2/6"))  # 1/3 not in lowest terms
@example(index=2, edit=("chars", 0, 0, " "))  # a leading space
@example(index=0, edit=("chars", 17, 0, "0"))  # dmax=06
@example(index=3, edit=("chars", 99, 0, "\r"))  # a Windows line end
def test_single_line_edit_is_refused_or_round_trips(tmp_path_factory, engine6, index, edit):
    # the reader accepts exactly the bytes render_cache writes: an edited
    # cache is refused as corrupt or is the cache of what it loads
    text = _edited(render_cache(engine6), index, edit)
    path = tmp_path_factory.mktemp("edit") / "f.cache"
    path.write_bytes(text.encode("ascii"))
    try:
        series = load_cache(path)
    except ValueError as exc:
        assert str(exc).startswith("corrupt cache")
        return
    assert render_cache(series) == text
