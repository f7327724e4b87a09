from __future__ import annotations

import os
import hashlib
from pathlib import Path

import pytest

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


def _mutated_cache8(engine10, mutation: str) -> str:
    lines = render_cache(engine10.extended_to(8)).splitlines(keepends=True)
    middle = len(lines) // 2  # an interior line of degree 7
    if mutation == "truncated":
        return "".join(lines[:-3])
    if mutation == "line_deleted":
        return "".join(lines[:middle] + lines[middle + 1:])
    if mutation == "reordered":
        lines[middle], lines[middle + 1] = lines[middle + 1], lines[middle]
        return "".join(lines)
    if mutation == "duplicated":
        return "".join(lines[:middle + 1] + lines[middle:])
    if mutation == "genus_moved":  # N +1 at genus 0 and -1 at genus 1 of d = 3
        text = "".join(lines)
        for old, new in (("3 2 2 3 1/1", "3 2 2 3 2/1"),
                         ("3 1 1 3 1/3", "3 1 1 3 -2/3")):
            assert f"\n{old}\n" in text
            text = text.replace(f"\n{old}\n", f"\n{new}\n")
        return text
    d, k, l, profile, coeff = lines[middle].split()
    lines[middle] = f"{d} {k} {l} {profile} -{coeff}\n"
    return "".join(lines)


@pytest.mark.parametrize("mutation", ["truncated", "line_deleted", "sign_flipped",
                                      "reordered", "duplicated", "genus_moved"])
def test_mutated_cache_is_rejected(tmp_path, capsys, engine10, mutation):
    path = tmp_path / "f.cache"
    path.write_text(_mutated_cache8(engine10, mutation))
    with pytest.raises(ValueError, match="corrupt cache"):
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
