"""Resumable on-disk cache of computed series pieces.

Text format (v2, the one ``render_cache`` writes): a header line
``DESSIN-F v2 dmax=<D>``, then for each degree d = 1 .. D and each
partition m of d in canonical profile order (by multiplicities) one line
``d <profile> c_1 ... c_s``: the integer marked counts d * N of m's
physical slots, the keys (k, l, m) with k, l >= 1 and l = top - 2g - k
(top = d + 2 - parts), in the (k, l) order of ``evolution._layout``; a
key with no count is written ``0``.  That is the order of a profile's
count list in ``ConnectedSeries``, so a line is written as its list
joined and read back as one list.  Every partition of d >= 1 is realised
(sigma a d-cycle), so every partition has its line.  The body is
append-only by degree: the body of a deeper cache is a byte-prefix
extension of any shallower one, and re-running with a covering cache
reloads the pieces instead of recomputing them.  A cache is written to
a temporary file beside it and renamed into place, so a crash or a
second writer never leaves half a cache; a failed write removes that
file and is reported at the cache's own path.

Loading (``parse_cache``) reads exactly the bytes ``render_cache``
writes, in one pass over the lines.  The next line's degree and profile
are known in advance, so a missing, extra, repeated or reordered line is
refused by comparing its head; then its field count must equal its slot
count (its spaces are counted before any numeral is converted), and its
counts must be canonical numerals, so none negative (one regular
expression over the line's tail).  Its counts are then converted with
``int`` into one list, stored as the profile's group unless every count
is 0, and each degree's lists are summed by genus into its genus row
(``evolution._genus_row``).  An unphysical key or a non-integral count
cannot be written at all.  Each degree is checked after its last line:
degree 1 must be the seed, and each later degree's row sum and genus-0
and genus-1 column sums are checked against A003319 and the closed
forms, naming the lines of the degree.  So an edit that leaves a
negative count or changes a row or genus-0/1 column sum is refused too.
Only a positive move between two keys of the same degree and genus
still loads; ``oracle`` and ``recursion`` catch it.

The v1 format that earlier versions wrote (header ``DESSIN-F v1
dmax=<D>``, one line per term with its Fraction coefficient) is refused
before its body is read: the cache is derived data, so deleting it and
rerunning writes the same series as v2.
"""

from __future__ import annotations

import errno
import os
import re
from contextlib import suppress
from functools import lru_cache
from pathlib import Path
from stat import S_ISDIR

from .counts import marked_count_genus0, marked_count_genus1
from .evolution import (
    ConnectedSeries,
    _filing,
    _genus_row,
    _layout,
    _packed_partitions,
    indecomposable_count,
)
from .series import profile_text

HEADER_TAG = "DESSIN-F v2"


#: the counts of a v2 line after its head: canonical numerals, one space apart
_COUNTS = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*\Z")


@lru_cache(maxsize=None)
def _profile_lines(d: int) -> tuple[tuple[int, str, int, int], ...]:
    """The v2 lines of degree d, one per partition m of d in canonical
    profile order (by multiplicities, ``evolution._packed_partitions``),
    as (packed profile, the line's head ``"d <profile> "``, top = d + 2 -
    parts, the number of physical slots of that top).  Memoised: every d
    is at most DMAX_LIMIT, so the memo holds at most 31 entries."""
    out = []
    for m, prof in _packed_partitions(d):
        top = d + 2 - sum(m)
        out.append((prof, f"{d} {profile_text(m)} ", top, len(_layout(top)[0])))
    return tuple(out)


def render_cache(series: ConnectedSeries) -> str:
    """The v2 cache text of a series, written from its profile groups:
    per degree, one line per partition in canonical profile order, its
    count list joined, or a 0 per physical slot where none is stored."""
    lines = [f"{HEADER_TAG} dmax={series.dmax}"]
    for d, profiles in enumerate(series._groups, 1):
        get = profiles.get
        for prof, head, _, size in _profile_lines(d):
            counts = get(prof)
            lines.append(head + (" ".join(map(str, counts)) if counts else " ".join("0" * size)))
    lines.append("")
    return "\n".join(lines)


def _is_count(s: str) -> bool:
    """Is s the canonical decimal of a positive int (no sign, no leading
    zero, no '_')?  For an ASCII s."""
    return s.isdigit() and s[0] != "0"


def _shown(line: str) -> str:
    """A cache line as an error message shows it: its repr, cut after 80
    characters (a hostile line may be long)."""
    return repr(line) if len(line) <= 80 else f"{line[:80]!r}..."


def _v2_line_error(lineno: int, line: str, head: str, size: int) -> ValueError:
    """The error of v2 body line ``lineno``, which failed the reader's
    check as the line ``head`` of ``size`` counts."""
    fields = line.split(" ")
    if not line.startswith(head):
        d, token = head.split()
        why = f"expected the line of degree {d}, profile {token}"
    elif len(fields) != size + 2:
        why = f"expected {size} counts, got {len(fields) - 2}"
    else:
        why = "not a cache line"
        for s in fields[2:]:
            if s[:1] == "-" and _is_count(s[1:]):
                why = f"negative count {s}"
            elif s != "0" and not _is_count(s):
                why = f"count {s[:20]!r} is not a canonical numeral"
            else:
                try:
                    int(s)
                    continue
                except ValueError as exc:
                    why = f"count {s[:20]}...: {exc}"
            break
    return ValueError(f"line {lineno}: {why}: {_shown(line)}")


def _read_v2(lines: list[str], dmax: int, groups: list, rows: list) -> None:
    """File the v2 body ``lines`` into the filing's groups and genus rows
    (a profile whose counts are all 0 stays out of its degree's groups),
    checking each degree after its last line: degree 1 must be the seed,
    and each later degree's marked counts must sum to A003319(d+1) and its
    genus-0 and genus-1 counts equal the closed forms, else ValueError
    naming the degree's lines."""
    n, match = 0, _COUNTS.match  # n: body lines read
    for d in range(1, dmax + 1):
        profiles, lists = groups[d - 1], []
        first = n + 2  # the degree's first line
        for prof, head, top, size in _profile_lines(d):
            if n == len(lines):
                raise ValueError(f"line {n + 2}: expected the line of degree {d}, "
                                 f"profile {head.split()[1]}, found the end of the file")
            line = lines[n]
            n += 1
            # the field count before any numeral is converted, then the
            # counts canonical (so none negative)
            if line.count(" ") != size + 1 or not line.startswith(head) \
                    or not match(line, len(head)):
                raise _v2_line_error(n + 1, line, head, size)
            try:
                counts = list(map(int, line[len(head):].split(" ")))
            except ValueError:  # a numeral past int's digit limit
                raise _v2_line_error(n + 1, line, head, size) from None
            if any(counts):
                profiles[prof] = counts
                lists.append((top, counts))
        row = rows[d - 1] = _genus_row(d, lists)
        if d == 1:
            if row != [1]:  # its one physical key is the seed's
                raise ValueError(f"line 2: degree-1 piece must be exactly u*v*t1: "
                                 f"{_shown(lines[0])}")
        elif sum(row) != indecomposable_count(d + 1):
            raise ValueError(f"lines {first}-{n + 1}: degree-{d} marked counts do not "
                             f"sum to A003319({d + 1})")
        elif [*row, 0][:2] != [marked_count_genus0(d), marked_count_genus1(d)]:
            raise ValueError(f"lines {first}-{n + 1}: degree-{d} genus-0/1 marked "
                             f"counts differ from the closed forms")
    if n < len(lines):
        raise ValueError(f"line {n + 2}: a line after the last profile of degree "
                         f"{dmax}: {_shown(lines[n])}")


def parse_cache(text: str) -> ConnectedSeries:
    """The series a cache text holds, read in one pass to marked counts.

    Only the bytes ``render_cache`` writes are read: an ASCII text, its
    header (``DESSIN-F v2`` and a dmax of at most DMAX_LIMIT, checked
    before any per-degree work), then the line of every partition of
    every degree in order, each ended by a newline and holding its slot
    count of canonical numerals, none negative, read as the profile's
    count list.  Each degree is checked after its last line
    (``_read_v2``): degree 1 must be the seed, and each later degree's
    marked counts must sum to A003319(d+1) and its genus-0 and genus-1
    counts to the closed forms.  A failure raises ValueError naming its
    line or lines; a line it shows, the header included, is cut at 80
    characters.  A v1 cache (header ``DESSIN-F v1``, which earlier
    versions wrote) is refused before its body is read, with the fix:
    delete it, and the next run writes the cache as v2.
    """
    head, _, body = text.partition("\n")
    tag, _, dm = head.rpartition(" dmax=")
    if tag == "DESSIN-F v1":
        raise ValueError("a v1 cache, which is no longer read: delete it, "
                         "and the next run writes it as v2")
    if tag != HEADER_TAG or not _is_count(dm):
        raise ValueError(f"not a series cache (header {_shown(head)})")
    if not text.isascii():
        at = next(i for i, c in enumerate(text) if not c.isascii())
        raise ValueError(f"line {text.count(chr(10), 0, at) + 1}: not ASCII")
    dmax = int(dm)
    groups, rows = _filing(dmax)
    if not text.endswith("\n"):
        cut = text.count("\n") + 1
        raise ValueError(f"line {cut} is cut short (no final newline)")
    lines = body.split("\n")
    lines.pop()  # the empty string after the final newline
    _read_v2(lines, dmax, groups, rows)
    return ConnectedSeries._stored(groups, rows)


def load_cache(path: str | Path) -> ConnectedSeries:
    """Parse a cache file; every rejection is reported as
    ValueError("corrupt cache ...")."""
    try:
        # the bytes as they are: a text read would turn \r\n into \n
        return parse_cache(Path(path).read_bytes().decode("ascii"))
    except ValueError as exc:
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
    computation and the extended series is written back.  A cache that
    does not load (a v1 one included) is refused and left as it is.  A
    new cache whose directory is missing or not a directory is refused
    before any computing, with the OSError its write would end in.  An
    empty path is no cache.
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
