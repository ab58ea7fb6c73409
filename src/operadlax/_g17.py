"""``"%.17g" % x`` for a float64 table, vectorised and byte for byte.

For each value ``x`` with ``|x|`` in [1e-280, 1e280]:

* ``k = floor(log10|x|)`` estimates the decimal exponent;
* ``N = |x| * 10^(16-k)`` is taken in double-double: ``10^(16-k)`` is a
  pair ``hi + lo`` of correctly rounded doubles (relative error below
  2^-106), and a Dekker TwoProduct gives ``|x|*hi = P + err`` exactly, so
  ``N = P + t`` with ``t = fl(err + fl(|x|*lo))`` is within 1e-14 of the
  exact scaled value;
* ``P >= 2^53`` is an integer, so the 17-digit integer ``D = round(N)`` is
  ``P`` plus ``t`` rounded to nearest, which that bound decides whenever
  ``t``'s fraction is more than 1e-6 away from one half;
* ``D`` in (1e16, 1e17) confirms ``k``; its digits and ``k`` are laid out
  in fixed byte slots, masked, and compacted.

``"%.17g" %`` itself formats, one at a time, every value outside that
range (subnormals, non-finite values), every value within 1e-6 of a
rounding tie (exact ties, which round half to even, among them), and
every value whose ``D`` misses (1e16, 1e17): a ``log10`` estimate one too
low gives ``D >= 1e17``, one too high ``D <= 1e16`` (``1e16`` itself is
ambiguous: a double just below ``10^k`` rounds to it at the wrong
``k``), and rounding up into the next decade gives ``1e17``.  ``0.0``
and ``-0.0`` take the vectorised path.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

# rows per block: the working buffers stay near 1 MB for 17 columns
BLOCK_ROWS = 1024

LO_LIMIT, HI_LIMIT = 1e-280, 1e280  # keeps splits finite and error terms normal
K_MIN, K_MAX = -281, 280  # floor(log10|x|) over that range, log10 rounding included
SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
TIE_GUARD = 1e-6
DIGITS = 17

# byte slots of one field, as six uint64 words:
#   0     ',' or '\n' (the separator before the field), '-' or NUL, "0.000", d0
#   1-4   ".d.d.d.d": a point slot before each of d1 ... d16
#   5     "e+XX" or "e-XXX", or NUL in fixed notation
WORDS = 6
EXP = 5
NOTATIONS = [*range(-4, 17), None]  # fixed notation at each k, then scientific


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
    keep[:2] = b"\xff\xff"  # separator and sign
    keep[7] = 0xFF  # d0
    keep[8 * EXP:] = b"\xff" * 8  # the exponent, all NUL in fixed notation
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


def _exponent(k: int) -> bytes:
    """Word 5 for decimal exponent ``k``."""
    text = b"" if -4 <= k < 17 else b"e%+03d" % k
    return text.ljust(8, b"\0")


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


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use."""
    ks = range(K_MIN, K_MAX + 1)
    hi, lo = map(np.array, zip(*(_power(16 - k) for k in ks)))

    groups = np.arange(10000)
    chars = np.full((10000, 8), ord("."), dtype=np.uint8)
    chars[:, 1::2] = groups[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    # per group of digits d(j)..d(j+3), j = 1, 5, 9, 13: the index of its
    # last nonzero digit, or 0 when all four are zero
    ends = 4 - (groups % 10 == 0) - (groups % 100 == 0) - (groups % 1000 == 0)
    last_digit = [np.where(groups > 0, j + ends - 1, 0).astype(np.uint8) for j in (1, 5, 9, 13)]
    notation = [k + 4 if -4 <= k < 17 else len(NOTATIONS) - 1 for k in ks]
    return SimpleNamespace(
        hi=hi, lo=lo, hi_split=_split(hi),
        head=_u64(b"\0" + sign + b"0.000%d" % d0 for sign in (b"\0", b"-") for d0 in range(10)),
        digits=chars.view(np.uint64).ravel(), last_digit=last_digit,
        masks=_u64(_field_mask(k, last) for k in NOTATIONS for last in range(DIGITS)).reshape(-1, WORDS),
        mask_row=DIGITS * np.array(notation, dtype=np.intp),
        exponent=_u64(_exponent(k) for k in ks),
    )


def _decimal(x: np.ndarray, tab: SimpleNamespace):
    """``(d, kidx, slow)`` for the flat array ``x``: ``|x|`` rounded to the
    17-digit integer ``d`` times ``10^(k-16)``, with ``k = kidx + K_MIN``,
    exact wherever ``slow`` is false; ``d = 0`` for zeros (at ``k = 0``)
    and wherever ``slow`` is true."""
    a = np.abs(x)
    zero = a == 0.0
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
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    d += t > 0.5
    t -= 0.5
    slow = (np.abs(t) < TIE_GUARD) | (d <= 10**16) | (d >= 10**17) | ~(fast | zero)
    d[slow | zero] = 0
    return d, kidx, slow


def _block(x: np.ndarray, sep: np.ndarray, tab: SimpleNamespace) -> bytes:
    """The fields of the flat row-major block ``x``, each preceded by its
    separator byte in ``sep`` (a comma, or a newline at the start of a row)."""
    d, kidx, slow = _decimal(x, tab)
    # d's digits as groups g0 = d0, g1 = d1..d4, g2 = d5..d8, g3, g4
    upper = (d // 10**8).astype(np.uint32)
    lower = (d - upper.astype(np.int64) * 10**8).astype(np.uint32)
    g0 = upper // 10**8
    upper -= g0 * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4

    buf = np.empty((x.size, WORDS), dtype=np.uint64)
    g0 += np.signbit(x) * np.uint32(10)  # the head table's second half has '-'
    np.bitwise_or(np.take(tab.head, g0), sep, out=buf[:, 0])
    for word, group in enumerate((g1, g2, g3, g4), 1):
        buf[:, word] = np.take(tab.digits, group)
    buf[:, EXP] = np.take(tab.exponent, kidx)
    last = np.maximum(np.take(tab.last_digit[0], g1), np.take(tab.last_digit[1], g2))
    np.maximum(last, np.take(tab.last_digit[2], g3), out=last)
    np.maximum(last, np.take(tab.last_digit[3], g4), out=last)
    # clear the slots %g leaves out at this notation and last nonzero digit
    row = np.take(tab.mask_row, kidx)
    row += last
    buf &= np.take(tab.masks, row, axis=0)

    chars = buf.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():  # %'s bytes follow the separator
        text = b"%.17g" % x[i]
        chars[i, 1:] = 0
        chars[i, 1:1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars.tobytes().translate(None, b"\0")


def format_rows(table: np.ndarray) -> str:
    """Each row of the 2-d float table as ``"%.17g"`` fields joined by
    commas and ended by a newline, byte for byte as ``%`` writes them."""
    tab = _tables()
    rows, columns = table.shape
    flat = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    step = BLOCK_ROWS * columns
    sep = np.tile(np.array([ord("\n")] + [ord(",")] * (columns - 1), dtype=np.uint64),
                  min(rows, BLOCK_ROWS))
    blocks = [_block(flat[i:i + step], sep[:flat.size - i], tab)
              for i in range(0, flat.size, step)]
    if not blocks:
        return ""
    # each field carries its separator in front: the first newline moves to the end
    blocks[0] = blocks[0][1:]
    blocks.append(b"\n")
    return b"".join(blocks).decode("ascii")
