"""Resumable on-disk cache of computed series pieces.

Text format: a header line ``DESSIN-F v1 dmax=<D>`` followed by the
canonical rendering of all pieces (one term per line, sorted by the
canonical key order, so lower degrees come first).  The body is
append-only by degree: the body of a deeper cache is a byte-prefix
extension of any shallower one, and re-running with a covering cache
reloads the pieces instead of recomputing them.  A cache is written to a
temporary file beside it and renamed into place, so a crash or a second
writer never leaves half a cache.  Loading checks each degree's marked
counts against their row sum, so a cut or edited file is rejected.
"""

from __future__ import annotations

import os
from pathlib import Path

from .counts import indecomposable_count
from .evolution import ConnectedSeries
from .series import GradedSeries

HEADER_TAG = "DESSIN-F v1"


def render_cache(series: ConnectedSeries) -> str:
    return (f"{HEADER_TAG} dmax={series.dmax}\n"
            + series.combined().render() + "\n")


def parse_cache(text: str) -> ConnectedSeries:
    head, _, body = text.partition("\n")
    fields = head.split()
    if (len(fields) != 3 or [fields[0], fields[1]] != HEADER_TAG.split()
            or not fields[2].startswith("dmax=")):
        raise ValueError(f"not a series cache (header {head!r})")
    dmax = int(fields[2][len("dmax="):])
    combined = GradedSeries.parse(body, dmax)
    buckets: list[dict] = [{} for _ in range(dmax)]
    for key, c in combined.terms.items():
        key_weight = sum((i + 1) * x for i, x in enumerate(key[2]))
        buckets[key_weight - 1][key] = c
    pieces = [GradedSeries(b, dmax, _raw=True) for b in buckets]
    series = ConnectedSeries(pieces)  # validates seed, physicality, integrality
    for d, marked in enumerate(series._marked_list(), 1):
        if sum(marked.values()) != indecomposable_count(d + 1):
            raise ValueError(f"corrupt cache: degree-{d} marked counts do not "
                             f"sum to A003319({d + 1})")
    return series


def load_cache(path: str | Path) -> ConnectedSeries:
    """Parse a cache file; a non-integral marked count is reported as a
    corrupt file (ValueError), not as an engine failure."""
    try:
        return parse_cache(Path(path).read_text(encoding="ascii"))
    except ArithmeticError as exc:
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
