"""Float64 tables as ``"%.17g" % x`` (CSV) or ``repr(x)`` (JSON) text,
vectorised and byte for byte.

Both formats share one scaling.  For each value ``x`` with ``|x|`` in
[1e-280, 1e280]:

* ``k = floor(log10|x|)`` estimates the decimal exponent;
* ``N = |x| * 10^(16-k)`` is taken in double-double: ``10^(16-k)`` is a
  pair ``hi + lo`` of correctly rounded doubles (relative error below
  2^-106), and a Dekker TwoProduct gives ``|x|*hi = P + err`` exactly, so
  ``N = P + t`` with ``t = fl(err + fl(|x|*lo))`` is within 1e-14 of the
  exact scaled value, and equal to it where ``lo = 0`` (k in [-6, 16]);
* ``P >= 2^53`` is an integer, so ``N = W + f`` with the int64 ``W`` and
  ``f`` in [0, 1), and the 17-digit integer ``D = round(N)`` is decided
  whenever ``f`` is more than 1e-6 (the guard) away from one half;
* ``D`` in (1e16, 1e17) confirms ``k``.

``%.17g`` prints ``D``.  ``repr`` prints the shortest digits that read
back as ``x``, the nearest of them to ``x``.  The reals that read back as
``x`` are ``N +- u`` in the same scale, ``u = 2^(e-54) * 10^(16-k)`` for
``|x| = m * 2^e`` with ``m`` in [1/2, 1) (``hi`` gives ``10^(16-k)``), an
interval closed for an even mantissa, where reading rounds half to even.
``u / N`` lies in (2^-54, 2^-53], so ``u`` is in (0.55, 11.2) and ``D``
always lies inside.  The nearest multiple of 10 to ``N`` gives 16 digits
when it lies inside; the interval, under 23 wide, holds at most one
multiple of 100, which, when inside, is also the only multiple of
``10^j`` inside for every ``j > 2``, so its digits, trailing zeros
dropped, are ``repr``'s.  A candidate ``c`` lies inside when the margin
``u - |c - N|`` is positive, or zero for an even mantissa.

The margin is exact where ``N`` is: where ``lo = 0``, ``u - |c - W|`` is a
multiple of ``u``'s ulp, so ``(u - |c - W|) -+ f`` has an exact sign;
and at k in [17, 22], where ``|x| < 1e23`` is an integer and
``10^(k-16)`` a double, ``N * 10^(k-16)`` is ``|x|`` itself, so ``f`` is
taken exactly as ``fmod(|x|, 10^(k-16))``, ``W`` corrected by one where
``t`` fell on the other side of an integer, and the margins are integers
in that unit.  There ties round half to even, as ``repr`` rounds them.

Both formats lay the digits out in fixed byte slots, masked by notation
(fixed for -4 <= k < 17 in ``%.17g``, for -4 <= k < 16 in ``repr``,
which also writes ``.0`` after an integer) and last nonzero digit, each
field after the bytes that come before it in the text, and compact the
NULs away.

``%`` itself formats, one value at a time, every value outside
[1e-280, 1e280] (subnormals, non-finite values) and every value whose
``D`` misses [1e16, 1e17), which a ``log10`` estimate one off or rounding
up into the next decade gives.  For ``%.17g`` it also takes every ``D``
within the guard of a tie, and a ``D = 1e16`` that may belong to a double
just below ``10^k``, where the estimate is one too high: only where
``10^k`` is no double (k < 0 or k > 22) and ``N`` is below 1e16, or within
the guard above it where ``N`` is not exact.  Zeros and the powers of ten
stay vectorised.  For ``repr``, whose digits for ``D = 1e16`` are
``1e{k}`` at either ``k``, it also takes a power-of-two mantissa (the
interval below ``x`` is half as wide) and, where ``N`` is not exact, a
margin within the guard of zero or a candidate within the guard of a tie.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np

# rows per block: the working buffers stay near 1 MB for 17 columns
BLOCK_ROWS = 1024

LO_LIMIT, HI_LIMIT = 1e-280, 1e280  # keeps splits finite and error terms normal
K_MIN, K_MAX = -281, 280  # floor(log10|x|) over that range, log10 rounding included
SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
TIE_GUARD = 1e-6
DIGITS = 17
FRACTION_BITS = np.uint64(2**52 - 1)
# |x| < 1e23 at k > 16 is an integer and 10^(k-16) a double: there N in
# units of 10^(16-k) is |x| itself
K_INTEGER = 22

# byte slots of one field, as six uint64 words, after the words holding
# all but the last byte of the text before it:
#   0     the last byte before the field, '-' or NUL, "0.000", d0
#   1-4   ".d.d.d.d": a point slot before each of d1 ... d16
#   5     "e+XX" or "e-XXX", kept in scientific notation only
WORDS = 6
EXP = 5


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``v`` into two halves of at most 26 significant bits."""
    c = SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def _field_mask(k: int | None, last: int) -> bytes:
    """The kept bytes of one field in fixed notation at decimal exponent
    ``k`` (None: scientific notation) when ``d_last`` is the last nonzero
    digit."""
    keep = bytearray(8 * WORDS)
    keep[:2] = b"\xff\xff"  # the byte before the field, and the sign
    keep[7] = 0xFF  # d0
    if k is None:
        keep[8 * EXP:] = b"\xff" * 8
    if k is not None and k < 0:  # "0." and -k-1 zeros come before d0
        keep[2:3 - k] = b"\xff" * (1 - k)
        first = 1
    else:  # d1 ... d(first-1) are integer digits, kept zero or not
        first = 1 if k is None else k + 1
        if first <= last:
            keep[6 + 2 * first] = 0xFF  # the point before d_first
    for i in range(1, max(first - 1, last) + 1):
        keep[7 + 2 * i] = 0xFF
    return bytes(keep)


def _power(e: int) -> tuple[float, float]:
    """10^e as hi + lo: hi correctly rounded, lo the rest correctly rounded."""
    if e >= 0:
        hi = float(10**e)
        return hi, float(10**e - int(hi))
    scale = 10**-e
    hi = 1 / scale  # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * scale) / (den * scale)


def _u64(chunks) -> np.ndarray:
    return np.frombuffer(b"".join(chunks), dtype=np.uint64)


def _notation(top: int, point: bool) -> SimpleNamespace:
    """Mask rows for fixed notation at -4 <= k < ``top`` and scientific
    notation elsewhere, one per (notation, last nonzero digit); ``point``:
    an integer in fixed notation ends in ``.0``."""
    notations = [*range(-4, top), None]
    masks = _u64(_field_mask(k, last if k is None or not point else max(last, k + 1))
                 for k in notations for last in range(DIGITS))
    index = [k + 4 if -4 <= k < top else len(notations) - 1 for k in range(K_MIN, K_MAX + 1)]
    return SimpleNamespace(masks=masks.reshape(-1, WORDS),
                           mask_row=DIGITS * np.array(index, dtype=np.intp))


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use."""
    ks = range(K_MIN, K_MAX + 1)
    hi, lo = map(np.array, zip(*(_power(16 - k) for k in ks)))
    unit = np.array([float(10 ** (k - 16)) if 16 < k <= K_INTEGER else 1.0 for k in ks])

    groups = np.arange(10000)
    chars = np.full((10000, 8), ord("."), dtype=np.uint8)
    chars[:, 1::2] = groups[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    # per group of digits d(j)..d(j+3), j = 1, 5, 9, 13: the index of its
    # last nonzero digit, or 0 when all four are zero
    ends = 4 - (groups % 10 == 0) - (groups % 100 == 0) - (groups % 1000 == 0)
    last_digit = [np.where(groups > 0, j + ends - 1, 0).astype(np.uint8) for j in (1, 5, 9, 13)]
    return SimpleNamespace(
        hi=hi, lo=lo, hi_split=_split(hi),
        # no guard where N is exact, in units of 1 (lo = 0) or of 1 / unit
        guard=np.where((lo == 0.0) | (unit > 1.0), 0.0, TIE_GUARD),
        unit=unit, half_ulp=np.where(unit > 1.0, 1.0, hi),  # u / 2^(e-54), in those units
        head=_u64(b"\0" + sign + b"0.000%d" % d0 for sign in (b"\0", b"-") for d0 in range(10)),
        digits=chars.view(np.uint64).ravel(), last_digit=last_digit,
        exponent=_u64((b"e%+03d" % k).ljust(8, b"\0") for k in ks),
        csv=SimpleNamespace(decide=_decimal, template=b"%.17g", **vars(_notation(17, False))),
        json=SimpleNamespace(decide=_shortest, template=b"%r", **vars(_notation(16, True))),
    )


def _scaled(x: np.ndarray, tab: SimpleNamespace):
    """``(kidx, w, f, fast)`` for the flat array ``x``: ``|x| * 10^(16-k)
    = w + f`` with ``k = kidx + K_MIN``, the int64 ``w`` and ``f`` in
    [0, 1), wherever ``fast`` (``|x|`` in [LO_LIMIT, HI_LIMIT]) is true;
    ``k = 0`` elsewhere."""
    a = np.abs(x)
    fast = (a >= LO_LIMIT) & (a <= HI_LIMIT)
    a = np.where(fast, a, 1.0)
    kidx = np.floor(np.log10(a)).astype(np.intp)
    kidx -= K_MIN

    # |x| * 10^(16-k) = p + t: p = fl(a*hi) plus TwoProduct's exact error,
    # plus a*lo
    p = a * np.take(tab.hi, kidx)
    ah, al = _split(a)
    hh, hl = (np.take(half, kidx) for half in tab.hi_split)
    t = ah * hh  # err = ((ah*hh - p) + ah*hl + al*hh) + al*hl, in this order
    t -= p
    t += ah * hl
    t += al * hh
    t += al * hl
    t += a * np.take(tab.lo, kidx)
    whole = np.floor(t)
    t -= whole
    w = p.astype(np.int64)
    w += whole.astype(np.int64)
    return kidx, w, t, fast


def _decimal(x: np.ndarray, tab: SimpleNamespace):
    """``(d, kidx, slow)`` for the flat array ``x``: ``|x|`` rounded to the
    17-digit integer ``d`` times ``10^(k-16)``, with ``k = kidx + K_MIN``,
    exact wherever ``slow`` is false; ``d = 0`` for zeros (at ``k = 0``)
    and wherever ``slow`` is true."""
    kidx, d, t, fast = _scaled(x, tab)
    zero = x == 0.0
    d += t > 0.5
    t -= 0.5
    slow = (np.abs(t) < TIE_GUARD) | (d < 10**16) | (d >= 10**17) | ~(fast | zero)
    # D = 1e16 confirms k where |x| is at least 10^k: always where 10^k is a
    # double (0 <= k <= 22), as every double below it scales to 1e16 - 1.1
    # or less; elsewhere where N = D + t is at least 1e16, by the guard
    # unless N is exact (-6 <= k <= 16).  Zeros are scaled as 1.0, at k = 0.
    ones = np.flatnonzero(d == 10**16)
    if ones.size:
        k, above = np.take(kidx, ones) + K_MIN, np.take(t, ones)
        above = (above <= 0.0) & (((k >= -6) & (k <= 16)) | (above >= TIE_GUARD - 0.5))
        slow[ones] |= ~(((k >= 0) & (k <= 22)) | above)
    d[slow | zero] = 0
    return d, kidx, slow


def _nearest(w, f, u, even, unit, scale: int):
    """The multiple ``c`` of ``scale`` nearest ``N = w + f / unit`` (the
    even one of two at a tie), the offset ``N - c - f / unit``, and
    ``(u - |c - N|) * unit``, the margin by which ``c`` lies inside the
    rounding interval ``N +- u / unit`` (closed for an ``even`` mantissa):
    ``(c, offset, margin, inside)``.  The margin's sign is exact where
    ``u`` and ``f`` are: ``u - |offset| * unit`` is then a multiple of
    ``u``'s ulp, or an integer."""
    q = w // scale
    rem = w - q * scale
    up = rem + ((q & 1) | (f > 0.0)) > scale // 2
    offset = rem - up * scale  # >= 0 for c below N, <= -1 above it
    margin = u - np.abs(offset) * unit
    margin -= (1.0 - 2.0 * up) * f
    return w - offset, offset, margin, (margin > 0.0) | ((margin == 0.0) & even)


def _shortest(x: np.ndarray, tab: SimpleNamespace):
    """``(d, kidx, slow)`` as ``_decimal`` gives them, with ``d`` the
    shortest digits that read back as ``x``, nearest ``|x|``, padded with
    zeros to 17 digits (``repr``'s digits, at ``k = kidx + K_MIN``);
    ``0.0`` and ``-0.0`` are not slow."""
    kidx, w, f, fast = _scaled(x, tab)
    unit = np.take(tab.unit, kidx)
    big = np.flatnonzero(unit > 1.0)
    if big.size:  # the exact fraction, in units of 10^(16-k): |x| mod 10^(k-16)
        rest = np.fmod(np.abs(x[big]), unit[big])
        w[big] += np.rint(f[big] - rest / unit[big]).astype(np.int64)
        f[big] = rest
    half = 0.5 * unit
    d = w + ((f > half) | ((f == half) & w & 1))  # half to even
    bits = x.view(np.uint64)
    live = fast & ((bits & FRACTION_BITS) != 0) & (d >= 10**16) & (d < 10**17)
    guard = np.take(tab.guard, kidx)
    tie = np.abs(f - half) < guard  # near a tie between two 17-digit candidates
    u = np.ldexp(np.take(tab.half_ulp, kidx), np.frexp(x)[1] - 54)
    even = (bits & np.uint64(1)) == 0

    # 16 digits: of up to three multiples of 10 inside, the nearest
    c, offset, margin, inside = _nearest(w, f, u, even, unit, 10)
    unsure = np.abs(margin) < guard
    keep = inside & ~unsure
    d += keep * (c - d)
    tie = (tie & ~keep) | (keep & (np.abs(np.abs(offset + f) - 5.0) < guard))  # never if exact
    # 15 digits or fewer: the interval, under 23 wide, holds at most one
    # multiple of 100, which is also the only multiple of 10^j inside for j > 2
    c, _, margin, inside = _nearest(w, f, u, even, unit, 100)
    near = np.abs(margin) < guard
    unsure |= keep & near
    keep &= inside & ~near
    d += keep * (c - d)
    tie &= ~keep

    # rounding up into the next decade: 10^17 at k is 10^16 at k + 1
    top = live & (d == 10**17)
    d[top] = 10**16
    kidx[top] += 1
    zero = x == 0.0
    slow = (tie | unsure | ~live) & ~zero
    d[slow | zero] = 0
    return d, kidx, slow


def _block(x: np.ndarray, layout: SimpleNamespace, tab: SimpleNamespace,
           buf: np.ndarray) -> np.ndarray:
    """The fields of the flat row-major block ``x``, each after the text
    that comes before it, as ``layout`` gives them: one NUL-padded row of
    ``buf``'s bytes per field."""
    d, kidx, slow = layout.decide(x, tab)
    # d's digits as groups g0 = d0, g1 = d1..d4, g2 = d5..d8, g3, g4
    upper = (d // 10**8).astype(np.uint32)
    lower = (d - upper.astype(np.int64) * 10**8).astype(np.uint32)
    g0 = upper // 10**8
    upper -= g0 * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4

    digits = layout.width + 1  # the word of d1..d4
    buf = buf[:x.size]
    g0 += np.signbit(x) * np.uint32(10)  # the second ten of each column's heads have '-'
    g0 += layout.column[:x.size]
    buf[:, :digits] = np.take(layout.heads, g0, axis=0)
    for word, group in enumerate((g1, g2, g3, g4), digits):
        buf[:, word] = np.take(tab.digits, group)
    buf[:, -1] = np.take(tab.exponent, kidx)
    last = np.maximum(np.take(tab.last_digit[0], g1), np.take(tab.last_digit[1], g2))
    np.maximum(last, np.take(tab.last_digit[2], g3), out=last)
    np.maximum(last, np.take(tab.last_digit[3], g4), out=last)
    # clear the slots the format leaves out at this notation and last nonzero digit
    row = np.take(layout.mask_row, kidx)
    row += last
    buf &= np.take(layout.masks, row, axis=0)

    chars = buf.view(np.uint8)
    start = 8 * layout.width + 1
    for i in np.flatnonzero(slow).tolist():  # %'s bytes follow the byte before
        text = layout.template % float(x[i])
        chars[i, start:] = 0
        chars[i, start:start + len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars


def _format(table: np.ndarray, before: list[bytes], first: bytes, end: bytes,
            style: SimpleNamespace) -> Iterator[bytes]:
    """The fields of the 2-d float table in ``style``, each after
    ``before[column]`` (``first``, no longer than ``before[0]``, in place of
    it in the first row), then ``end``: one ASCII chunk per block of rows,
    made as it is asked for, and ``end`` last."""
    tab = _tables()
    rows, columns = table.shape
    if not rows:
        return
    # per column, sign and d0: all but the last byte of the text before the
    # field in whole words, NUL-padded, then the field's word 0 with that byte
    width = -(-max(len(b) - 1 for b in before) // 8)
    text = np.frombuffer(b"".join(b[:-1].ljust(8 * width, b"\0") for b in before),
                         dtype=np.uint64).reshape(columns, 1, width)
    sep = np.array([b[-1] for b in before], dtype=np.uint64).reshape(columns, 1, 1)
    heads = np.concatenate([np.broadcast_to(text, (columns, 20, width)),
                            tab.head[None, :, None] | sep], axis=2)
    ones = np.full((len(style.masks), width), 2**64 - 1, dtype=np.uint64)
    block_rows = min(rows, BLOCK_ROWS)
    layout = SimpleNamespace(
        **{**vars(style), "masks": np.hstack([ones, style.masks])},
        width=width, heads=heads.reshape(20 * columns, width + 1),
        column=np.tile(np.arange(0, 20 * columns, 20, dtype=np.uint32), block_rows),
    )
    # one working buffer for every block of the table
    buf = np.empty((block_rows * columns, width + WORDS), dtype=np.uint64)
    for i in range(0, rows, BLOCK_ROWS):
        # a block at a time: a transposed table is never copied whole
        flat = np.ascontiguousarray(table[i:i + BLOCK_ROWS], dtype=np.float64).reshape(-1)
        chars = _block(flat, layout, tab, buf)
        if i == 0:  # the bytes kept before the first field hold ``first``
            chars[0, :8 * width + 1] = np.frombuffer(first.ljust(8 * width + 1, b"\0"),
                                                     dtype=np.uint8)
        yield chars.tobytes().translate(None, b"\0")
    yield end


def format_rows(table: np.ndarray) -> Iterator[bytes]:
    """Each row of the 2-d float table as ``"%.17g"`` fields joined by
    commas and ended by a newline, byte for byte as ``%`` writes them, in
    ASCII chunks of up to ``BLOCK_ROWS`` rows."""
    before = [b"\n"] + [b","] * (table.shape[1] - 1)
    return _format(table, before, b"", b"\n", _tables().csv)


def format_json(table: np.ndarray, names: list[str]) -> Iterator[bytes]:
    """``json.dumps(rows, indent=2) + "\\n"`` for the rows of the 2-d
    finite float table as objects keyed by ``names``, byte for byte, in
    ASCII chunks of up to ``BLOCK_ROWS`` rows."""
    if not len(table):
        return iter([b"[]\n"])
    keys = [json.dumps(name).encode() for name in names]
    before = [b"\n  },\n  {\n    %s: " % keys[0]] + [b",\n    %s: " % key for key in keys[1:]]
    return _format(table, before, b"[\n  {\n    %s: " % keys[0], b"\n  }\n]\n", _tables().json)
