from __future__ import annotations

import os
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
from dessins.evolution import ConnectedSeries


def test_round_trip(engine6):
    text = render_cache(engine6)
    assert text.splitlines()[0] == "DESSIN-F v1 dmax=6"
    parsed = parse_cache(text)
    assert parsed.pieces == engine6.pieces
    assert render_cache(parsed) == text


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
