"""Resumable on-disk cache of computed series pieces.

Text format: a header line ``DESSIN-F v1 dmax=<D>`` followed by the
canonical rendering of all pieces (one term per line, sorted by the
canonical key order, so lower degrees come first), the bytes
``GradedSeries.render`` gives each piece, rendered straight from the
series' profile groups (``render_cache``).  The body is
append-only by degree: the body of a deeper cache is a byte-prefix
extension of any shallower one, and re-running with a covering cache
reloads the pieces instead of recomputing them.  A cache is written to a
temporary file beside it and renamed into place, so a crash or a second
writer never leaves half a cache; a failed write removes that file and
is reported at the cache's own path.

Loading (``parse_cache``) reads exactly the bytes ``render_cache``
writes, in one pass over the lines: single spaces, a newline after every
line and no blank one, numerals with no sign, leading zero or '_', each
num/den in lowest terms and the keys strictly increasing in canonical
order, so a line cut short, reordered or repeated is refused.  Each line
is filed straight into its profile group and genus row (the profile
read, and its group set up, once per profile token) as its count is
checked as the ``ConnectedSeries`` constructor checks it: the degree
range, an integral marked count, its sign, and the weight and genus
relation of its key.  Then degree 1 must be the seed and no degree
empty, and each degree's row sum and genus-0 and genus-1 column sums
are checked against A003319 and the closed forms.  So an edit that
leaves a negative count or changes a row or genus-0/1 column sum is
refused too, naming its line or lines.  Only a positive move between two
keys of the same degree and genus still loads; ``oracle`` and
``recursion`` catch it.
"""

from __future__ import annotations

import errno
import os
from contextlib import suppress
from math import gcd
from pathlib import Path
from stat import S_ISDIR

from .counts import marked_count_genus0, marked_count_genus1
from .evolution import (
    _PK,
    DMAX_LIMIT,
    ConnectedSeries,
    _check_filed,
    _filing,
    _profile_entry,
    _refuse_count,
    indecomposable_count,
)
from .series import Multiplicities, from_parts, partition_weight, profile_text

HEADER_TAG = "DESSIN-F v1"


def render_cache(series: ConnectedSeries) -> str:
    """The cache text of a series, written from its profile groups: per
    degree, the profiles ranked once by their multiplicities, one
    ``" <profile> "`` string each, filed by rank into buckets by kl, and
    the buckets walked in increasing kl, so the lines come in canonical
    order (by k, l and m) without a sort of the keys."""
    bits, mask = _PK.bits, _PK.mask
    lines = [f"{HEADER_TAG} dmax={series.dmax}"]
    for d, profiles in enumerate(series._groups, 1):
        buckets: dict[int, list] = {}
        for m, group in sorted((_PK.decode(prof)[2], group) for prof, group in profiles.items()):
            text = f" {profile_text(m)} "
            for kl, v in group.items():
                g = gcd(v, d)
                tail = f"{text}{v // g}/{d // g}"
                bucket = buckets.get(kl)
                if bucket is None:
                    buckets[kl] = [tail]
                else:
                    bucket.append(tail)
        for kl in sorted(buckets):
            head = f"{d} {kl >> bits} {kl & mask}"
            lines.append(head + ("\n" + head).join(buckets[kl]))  # its lines, by rank
    lines.append("")
    return "\n".join(lines)


#: the numerals d, k, l, den and a profile's parts are read with, each
#: the canonical decimal of an int in 0 .. DMAX_LIMIT
_NUMERALS = {str(i): i for i in range(DMAX_LIMIT + 1)}
#: per weight d, d // den for each numeral den that divides d
_QUOTIENTS = [{str(den): d // den for den in range(1, d + 1) if d % den == 0}
              for d in range(DMAX_LIMIT + 1)]


def _is_count(s: str) -> bool:
    """Is s the canonical decimal of a positive int (no sign, no leading
    zero, no '_')?  For an ASCII s."""
    return s.isdigit() and s[0] != "0"


def _profile(token: str) -> Multiplicities | None:
    """The multiplicities of a profile token as ``render_cache`` writes
    them (parts in decreasing order, each a numeral of 1 .. DMAX_LIMIT),
    or None."""
    parts = [_NUMERALS.get(p) for p in token.split(",")]
    if None in parts or 0 in parts:
        return None
    m = from_parts(parts)
    return m if profile_text(m) == token else None


def _line_error(lineno: int, line: str, dmax: int, prev: tuple) -> Exception:
    """The error of body line ``lineno``, which failed the reader's check;
    prev is the (order, profile) of the line before it.  A count that
    fails is refused by ``_refuse_count``, as the constructor refuses it."""
    try:
        fields = line.split(" ")
        if len(fields) != 5:
            raise ValueError("expected 5 fields separated by single spaces")
        sd, sk, sl, token, coeff = fields
        snum, slash, sden = coeff.partition("/")
        d, k, l, den = (_NUMERALS.get(s) for s in (sd, sk, sl, sden))
        m = _profile(token)
        if None in (d, k, l, den, m) or not slash or not _is_count(snum):
            raise ValueError("not a term 'd k l <profile> <num>/<den>' in canonical numerals")
        num = int(snum)
        if den and gcd(num, den) != 1:
            raise ValueError(f"{coeff} is not in lowest terms")
        if (d << 2 * _PK.bits | k << _PK.bits | l, m) <= prev:
            raise ValueError("key out of canonical order or repeated")
        _refuse_count(dmax, d, (k, l, m), num, den, partition_weight(m))
    except (ValueError, ArithmeticError) as exc:
        return type(exc)(f"line {lineno}: {exc}: {line!r}")
    return ValueError(f"line {lineno}: not a cache line: {line!r}")


def parse_cache(text: str) -> ConnectedSeries:
    """The series a cache text holds, read in one pass to marked counts.

    Only the bytes ``render_cache`` writes are read: an ASCII text, its
    header, then body lines of single-spaced fields, each line ended by a
    newline (no blank line), numerals with no sign, leading zero or '_',
    each num/den in lowest terms and the keys strictly increasing in
    canonical order (so none repeats).  Each line's marked count is
    checked as the constructor checks it (``evolution._refuse_count``)
    and filed into its profile group and genus row; then degree 1 must
    be the seed, no degree empty, and each degree's marked counts must
    sum to A003319(d+1) and its genus-0 and genus-1 counts to the closed
    forms.  A failure raises ValueError naming its line or lines, a
    marked count that is not an integer ArithmeticError.
    """
    head, _, body = text.partition("\n")
    tag, _, dm = head.rpartition(" dmax=")
    if tag != HEADER_TAG or not _is_count(dm):
        raise ValueError(f"not a series cache (header {head!r})")
    if not text.isascii():
        raise ValueError("not a series cache (not ASCII)")
    dmax = int(dm)
    groups, rows = _filing(dmax)
    if not text.endswith("\n"):
        cut = text.count("\n") + 1
        raise ValueError(f"line {cut} is cut short (no final newline)")
    lines = body.split("\n")
    lines.pop()  # the empty string after the final newline
    bits = _PK.bits
    profiles: dict = {}  # per token: m, weight, weight + 2 - parts, group, row, quotients
    heads: dict = {}  # per "d k l" with 1 <= d <= dmax and k, l >= 1: order, d, kl, k + l
    prev, prev_m = 0, ()
    for lineno, line in enumerate(lines, 2):
        try:
            dkl, token, coeff = line.rsplit(" ", 2)
        except ValueError:
            raise _line_error(lineno, line, dmax, (prev, prev_m)) from None
        entry = profiles.get(token)
        if entry is None:
            m = _profile(token)
            if m is None:
                raise _line_error(lineno, line, dmax, (prev, prev_m))
            w, offset, group, row = _profile_entry(m, groups, rows)
            entry = profiles[token] = (m, w, offset, group, row, _QUOTIENTS[w or 0])
        m, w, offset, group, row, quotients = entry
        h = heads.get(dkl)
        if h is None:
            nums = [_NUMERALS.get(s) for s in dkl.split(" ")]
            if len(nums) != 3 or None in nums or 0 in nums or nums[0] > dmax:
                raise _line_error(lineno, line, dmax, (prev, prev_m))
            d, k, l = nums
            h = heads[dkl] = (d << 2 * bits | k << bits | l, d, k << bits | l, k + l)
        order, d, kl, kpl = h
        snum, _, sden = coeff.partition("/")
        q = quotients.get(sden)  # den divides d; its count is v = num * q
        twice = offset - kpl
        # the fast form of every check of _line_error, _is_count inlined
        if (w != d or q is None or not snum.isdigit() or snum[0] == "0" or twice < 0
                or twice & 1 or order < prev or order == prev and m <= prev_m
                or gcd(v := int(snum) * q, d) != q):  # num/den in lowest terms
            raise _line_error(lineno, line, dmax, (prev, prev_m))
        prev, prev_m = order, m
        group[kl] = v
        row[twice >> 1] += v
    _check_filed(groups, rows)
    last = 2  # the line of the last key of the degree before: the seed's
    for d in range(2, dmax + 1):
        first, last = last + 1, last + sum(map(len, groups[d - 1].values()))
        row = rows[d - 1]
        if sum(row) != indecomposable_count(d + 1):
            raise ValueError(f"lines {first}-{last}: degree-{d} marked counts do not "
                             f"sum to A003319({d + 1})")
        if [*row, 0][:2] != [marked_count_genus0(d), marked_count_genus1(d)]:
            raise ValueError(f"lines {first}-{last}: degree-{d} genus-0/1 marked "
                             f"counts differ from the closed forms")
    return ConnectedSeries._stored(groups, rows)


def load_cache(path: str | Path) -> ConnectedSeries:
    """Parse a cache file; every rejection, a non-integral marked count
    included, is reported as ValueError("corrupt cache ...")."""
    try:
        # the bytes as they are: a text read would turn \r\n into \n
        return parse_cache(Path(path).read_bytes().decode("ascii"))
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
