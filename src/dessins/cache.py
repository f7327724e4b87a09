"""Resumable on-disk cache of computed series pieces.

Text format: a header line ``DESSIN-F v1 dmax=<D>`` followed by the
canonical rendering of all pieces (one term per line, sorted by the
canonical key order, so lower degrees come first).  The body is
append-only by degree: the body of a deeper cache is a byte-prefix
extension of any shallower one, and re-running with a covering cache
reloads the pieces instead of recomputing them.  A cache is written to a
temporary file beside it and renamed into place, so a crash or a second
writer never leaves half a cache.  Loading requires positive counts in
strictly increasing canonical order; the genus collapse then checks the
genus relation of every key and gives the row sum and the genus-0 and
genus-1 column sums of each degree, checked against the closed forms.
So a cut or reordered file is rejected, and so is an edit that leaves a
negative count or changes a row or genus-0/1 column sum.  Only a
positive move between two keys of the same degree and genus still
loads; ``oracle`` and ``recursion`` catch it.
"""

from __future__ import annotations

import os
from math import gcd
from pathlib import Path

from .counts import genus_table, indecomposable_count, marked_count_genus0, marked_count_genus1
from .evolution import SEED_KEY, ConnectedSeries
from .series import parse_lines, render_lines

HEADER_TAG = "DESSIN-F v1"


def render_cache(series: ConnectedSeries) -> str:
    def terms():  # canonical order: by weight, then by (k, l, m)
        for d, marked in enumerate(series._marked, 1):
            for key in sorted(marked):
                v = marked[key]
                g = gcd(v, d)
                yield d, key, v // g, d // g
    body = "\n".join(render_lines(terms()))
    return f"{HEADER_TAG} dmax={series.dmax}\n{body}\n"


def parse_cache(text: str) -> ConnectedSeries:
    """The series a cache text holds, read in one pass to marked counts.

    A malformed, reordered, repeated, negative or unphysical line, a degree
    outside the header's range, a wrong seed, a degree whose marked counts
    do not sum to A003319(d+1) or whose genus-0 or genus-1 marked counts
    do not sum to the closed forms raises ValueError; a coefficient whose
    marked count is not an integer raises ArithmeticError.
    """
    head, _, body = text.partition("\n")
    fields = head.split()
    if (len(fields) != 3 or fields[:2] != HEADER_TAG.split()
            or not fields[2].startswith("dmax=")):
        raise ValueError(f"not a series cache (header {head!r})")
    dmax = int(fields[2][len("dmax="):])
    marked: dict[int, dict] = {}  # by degree; no allocation from the header
    for lineno, d, key, num, den in parse_lines(body, start=2):
        if not 1 <= d <= dmax:
            raise ValueError(f"line {lineno}: degree {d} outside 1..{dmax}")
        if num < 0:  # every coefficient counts maps
            raise ValueError(f"line {lineno}: count at {key!r} is negative")
        v, r = divmod(num * d, den)
        if r:
            raise ArithmeticError(
                f"line {lineno}: marked count at {key!r} is not integral")
        if d not in marked:  # canonical order: the lines come by degree
            piece = marked[d] = {}
        piece[key] = v
    if marked.get(1) != {SEED_KEY: 1}:
        raise ValueError("degree-1 piece must be exactly u*v*t1")
    series = ConnectedSeries._from_marked(  # a missing degree fails its row sum
        [marked.get(d, {}) for d in range(1, len(marked) + 1)])
    table = genus_table(series)  # checks every key's genus relation
    for d in range(2, dmax + 1):
        if sum(table.row_marked(d)) != indecomposable_count(d + 1):
            raise ValueError(f"degree-{d} marked counts do not sum to "
                             f"A003319({d + 1})")
        if table.row_marked(d, 1) != [marked_count_genus0(d), marked_count_genus1(d)]:
            raise ValueError(f"degree-{d} genus-0/1 marked counts differ "
                             f"from the closed forms")
    return series


def load_cache(path: str | Path) -> ConnectedSeries:
    """Parse a cache file; every rejection, a non-integral marked count
    included, is reported as ValueError("corrupt cache ...")."""
    try:
        return parse_cache(Path(path).read_text(encoding="ascii"))
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"corrupt cache {str(path)!r}: {exc}") from exc


def save_cache(path: str | Path, series: ConnectedSeries) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(render_cache(series), encoding="ascii", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_or_compute(dmax: int, cache_path: str | Path | None = None) -> ConnectedSeries:
    """Series computed to at least dmax, reusing and refreshing the cache.

    A cache that already covers dmax is left untouched (and may be
    deeper than requested); otherwise the cached degrees seed the
    computation and the extended series is written back.
    """
    if cache_path is None:
        return ConnectedSeries.compute(dmax)
    path = Path(cache_path)
    if path.exists():
        series = load_cache(path)
        if series.dmax >= dmax:
            return series
        series = series.extended_to(dmax)
    else:
        series = ConnectedSeries.compute(dmax)
    save_cache(path, series)
    return series
