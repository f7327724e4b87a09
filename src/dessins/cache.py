"""Resumable on-disk cache of computed series pieces.

Text format: a header line ``DESSIN-F v1 dmax=<D>`` followed by the
canonical rendering of all pieces (one term per line, sorted by the
canonical key order, so lower degrees come first).  The body is
append-only by degree: the body of a deeper cache is a byte-prefix
extension of any shallower one, and re-running with a covering cache
reloads the pieces instead of recomputing them.  A cache is written to a
temporary file beside it and renamed into place, so a crash or a second
writer never leaves half a cache; a failed write removes that file and
is reported at the cache's own path.  Loading reads the lines in
strictly increasing canonical order, each once, and streams the counts
into ``ConnectedSeries.from_counts``, whose one pass checks the degree
range, the integral marked count, its sign and the weight and genus
relation of every key as it files it, then the seed and that no degree
is empty; each degree's row sum and genus-0 and genus-1 column sums are
then checked against A003319 and the closed forms.  So a cut or
reordered file is rejected, and so is an edit that leaves a negative
count or changes a row or genus-0/1 column sum.  Only a positive move
between two keys of the same degree and genus still loads; ``oracle``
and ``recursion`` catch it.
"""

from __future__ import annotations

import errno
import os
from contextlib import suppress
from math import gcd
from pathlib import Path
from stat import S_ISDIR

from .counts import genus_table, indecomposable_count, marked_count_genus0, marked_count_genus1
from .evolution import ConnectedSeries
from .series import parse_lines, render_lines

HEADER_TAG = "DESSIN-F v1"


def render_cache(series: ConnectedSeries) -> str:
    def terms():  # canonical order: by weight, then by (k, l, m)
        for d in range(1, series.dmax + 1):
            for key, v in series.marked_piece(d).items():
                g = gcd(v, d)
                yield d, key, v // g, d // g
    body = "\n".join(render_lines(terms()))
    return f"{HEADER_TAG} dmax={series.dmax}\n{body}\n"


def parse_cache(text: str) -> ConnectedSeries:
    """The series a cache text holds, read in one pass to marked counts.

    A malformed, reordered, repeated, negative or unphysical line, a degree
    outside the header's range or without a line, a wrong seed, a degree
    whose marked counts do not sum to A003319(d+1) or whose genus-0 or
    genus-1 marked counts do not sum to the closed forms raises
    ValueError; a coefficient whose marked count is not an integer raises
    ArithmeticError.
    """
    head, _, body = text.partition("\n")
    fields = head.split()
    if (len(fields) != 3 or fields[:2] != HEADER_TAG.split()
            or not fields[2].startswith("dmax=")):
        raise ValueError(f"not a series cache (header {head!r})")
    dmax = int(fields[2][len("dmax="):])
    # checked as it is filed: degree range, integrality, sign, every key,
    # then the seed and every degree present
    series = ConnectedSeries.from_counts(dmax, parse_lines(body, start=2))
    table = genus_table(series)
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
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def load_or_compute(dmax: int, cache_path: str | Path | None = None) -> ConnectedSeries:
    """Series computed to at least dmax, reusing and refreshing the cache.

    A cache that already covers dmax is left untouched (and may be
    deeper than requested); otherwise the cached degrees seed the
    computation and the extended series is written back.  A new cache
    whose directory is missing or not a directory is refused before any
    computing, with the OSError its write would end in.  An empty path
    is no cache.
    """
    if not cache_path:
        return ConnectedSeries.compute(dmax)
    path = Path(cache_path)
    if path.exists():
        series = load_cache(path)
        if series.dmax >= dmax:
            return series
        series = series.extended_to(dmax)
    else:
        try:
            code = 0 if S_ISDIR(path.parent.stat().st_mode) else errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
        if code:
            raise OSError(code, os.strerror(code), str(path))
        series = ConnectedSeries.compute(dmax)
    save_cache(path, series)
    return series
