"""Rows of numbers to text in numpy, byte for byte as Python's ``%`` writes them.

``format_rows(line_format, columns)`` is ``"".join(line_format % row for row
in zip(*lists))``, ``lists`` being the columns as Python numbers, for line
formats of literal text and the conversions ``%.17g`` and ``%r`` (float64
columns) and ``%d`` (integer columns).  It writes the numeric text of
fevec's outputs: the POINTS and data sections of ``post.export_fields`` and
the node lines of ``mesh.mesh_text_chunks``.

The digits of a whole column come from numpy at once.  A float ``a`` with
decimal exponent ``e`` (``10**e <= |a| < 10**(e+1)``) is scaled to
``y = |a| * 10**(16 - e)`` in double-double arithmetic: Dekker's exact
product (Numer. Math. 18, 1971) with a tabulated double-double power of ten,
within 2**-100 relative of the exact value.  As ``y >= 10**16 > 2**53``, its
high part is an integer, so ``%.17g``'s 17 significant digits are ``y``
rounded to an integer.  ``repr`` writes the shortest decimal that reads back
as ``a``.  At most one decimal of 15 or fewer digits reads back as ``a``
(DBL_DIG is 15), and it is then ``y`` rounded to a multiple of 100; so the
first of ``y`` rounded to a multiple of 100, of 10 and of 1 that lies within
half an ulp of ``a`` is ``repr``'s (Loitsch, PLDI 2010, proves the results
of a fast path the same way and falls back on the rest).

A row is formatted by ``%`` instead when the error bound cannot settle one of
its values: a non-finite value, a decimal exponent outside ``+-_EXP_RANGE``,
a rounding within ``_TIE`` of a tie, a round-trip distance within ``_TIE``
of the half ulp, an exact power of two under ``%r`` (its neighbours are not
evenly spaced) or an integer of 17 or more digits.  So every byte is
``%``'s by construction; ``tests/test_textfmt.py`` checks it against ``%``.

The text of a value is laid out in blocks of character slots, in order: the
sign, a ``0.000`` lead (fixed form below 1), the digits with the decimal
point inserted, ``.0`` (an integral ``%r``), ``e+dd`` (exponent form), then
the literal text that follows the conversion.  Each block has one keep mask
and one boolean compaction turns the row's slots into text.  The arrays are
(slot, value), so numpy's inner loops run along the rows.
"""

from __future__ import annotations

import functools
import re

import numpy as np

_CONVERSION = re.compile(r"%(\.17g|r|d)")
_EXP_RANGE = 30         # decimal exponents of the fast path
_TIE = 1e-9             # in units of the last digit; the error of y is below 1e-13
_DIGITS = 17
_ZERO = ord("0")

# 10**k as int64, k = 0 .. 17
_INT_POW = np.array([10 ** k for k in range(_DIGITS + 1)], dtype=np.int64)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four digit characters of each group 0000 .. 9999, one row per place; and
    per group of the 17 digits (digits 2-5, 6-9, 10-13, 14-17) and value of the
    group, how many of the 17 digits run up to its last nonzero digit (0 for 0000).
    Built on first use, so that importing fevec does not pay for them."""
    value = np.arange(10_000, dtype=np.uint16)
    groups = np.empty((4, 10_000), dtype=np.uint8)
    for row, place in enumerate((1000, 100, 10, 1)):
        np.add(value // place % 10, _ZERO, out=groups[row], casting="unsafe")
    last = np.full(10_000, 4, dtype=np.uint8)           # the place of the last nonzero digit
    for place in (10, 100, 1000):
        last -= value % place == 0
    ends = np.where(value, np.arange(1, _DIGITS, 4, dtype=np.uint8)[:, None] + last, np.uint8(0))
    return groups, ends



def _double_double(k: int) -> tuple[float, float]:
    """``10**k`` as ``hi + lo``, each part correctly rounded, from exact integers."""
    if k >= 0:
        hi = float(10 ** k)
        return hi, float(10 ** k - int(hi))
    hi = 1 / 10 ** -k
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10 ** -k) / (10 ** -k * den)


def _split(x):
    """Dekker's split of ``x`` into a high and a low half of at most 26 bits each."""
    c = x * 134217729.0             # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# 10**k, k = -_POW .. _POW, as double-double; the high part also split in halves
_POW = _EXP_RANGE + _DIGITS
_POW_HI, _POW_LO = np.array([_double_double(k) for k in range(-_POW, _POW + 1)]).T
_POW_HH, _POW_HL = _split(_POW_HI)
# "e+dd" of each decimal exponent -_EXP_RANGE - 1 .. _EXP_RANGE + 1, one row per character
_EXPONENTS = np.array([list(f"e{e:+03d}".encode()) for e in
                       range(-_EXP_RANGE - 1, _EXP_RANGE + 2)], dtype=np.uint8).T


def _scale(a, e):
    """``a * 10**(16 - e)`` as ``(hi, lo)``, within 2**-100 relative of the exact product."""
    k = _DIGITS - 1 - e + _POW
    b = _POW_HI[k]
    hi = a * b
    ah, al = _split(a)
    bh, bl = _POW_HH[k], _POW_HL[k]
    lo = ah * bh - hi               # Dekker's two-product: hi + lo is a * b exactly
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    lo += a * _POW_LO[k]
    return hi, lo


def _float_digits(v, shortest: bool):
    """The digits of each float ``v``: ``n``, the 17 leading decimal digits of
    ``%.17g`` (of ``repr``, padded with zeros) as an int64, the decimal exponent
    ``e`` of the first and a mask of the values to leave to ``%``."""
    a = np.abs(v)
    zero = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    slow = ~((np.abs(e) <= _EXP_RANGE) | zero)           # nan and inf too
    idle = slow | zero
    if idle.any():
        a[idle] = 1.0
        e[idle] = 0.0
    e = e.astype(np.int64)
    hi, lo = _scale(a, e)
    # log10 may round across a power of ten: move e by one where y = hi + lo is
    # outside [1e16, 1e17); hi alone can round onto either end
    off = (hi < 1e16) | (hi > 1e17) | ((hi == 1e16) & (lo < 0)) | ((hi == 1e17) & (lo >= 0))
    if off.any():
        fix = np.flatnonzero(off)
        e[fix] += np.where(hi[fix] < 3e16, -1, 1)
        hi[fix], lo[fix] = _scale(a[fix], e[fix])
    floor = np.floor(lo)
    n = hi.astype(np.int64)
    n += floor.astype(np.int64)                          # floor(y)
    frac = lo
    frac -= floor
    del hi, floor
    if shortest:
        mant, exp2 = np.frexp(a)
        slow |= (mant == 0.5) & ~zero                    # a power of two
        half_ulp = np.ldexp(_POW_HI[_DIGITS - 1 - e + _POW], exp2 - 54)
        del mant, exp2
        # y's distance to the nearest multiple of 100 (15 digits) and of 10 (16 digits)
        r100 = n % 100
        r10 = r100 % 10
        above100 = r100 + frac
        above10 = r10 + frac
        fit100 = np.minimum(above100, 100 - above100) < half_ulp
        fit10 = np.minimum(above10, 10 - above10) < half_ulp
        slow |= np.abs(np.minimum(above100, 100 - above100) - half_ulp) <= _TIE
        slow |= ~fit100 & (np.abs(np.minimum(above10, 10 - above10) - half_ulp) <= _TIE)
        fit10 &= ~fit100
        tie = np.where(fit10, np.abs(above10 - 5), np.abs(frac - 0.5)) <= _TIE
        slow |= tie & ~fit100
        n += np.where(fit100, (above100 > 50) * 100 - r100,
                      np.where(fit10, (above10 > 5) * 10 - r10, frac > 0.5))
    else:
        n += frac > 0.5
        slow |= np.abs(frac - 0.5) <= _TIE
    carry = n == _INT_POW[_DIGITS]                       # rounded up to 10**17
    n[carry] = _INT_POW[_DIGITS - 1]
    e += carry
    n[zero] = 0
    e[zero] = 0
    return n, e, slow


def _digit_chars(n, out) -> list:
    """The 17 decimal digit characters of each int64 ``0 <= n < 10**17`` into the
    (17, values) ``out``; the int32 groups of digits 2-5, 6-9, 10-13 and 14-17."""
    high, low = np.divmod(n, _INT_POW[8])
    lead, high = np.divmod(high.astype(np.int32), np.int32(_INT_POW[8]))
    np.add(lead, _ZERO, out=out[0], casting="unsafe")
    groups = [*np.divmod(high, np.int32(10_000)), *np.divmod(low.astype(np.int32), np.int32(10_000))]
    chars = _digit_tables()[0]
    for slot, group in zip(range(1, _DIGITS, 4), groups):
        for i in range(4):
            np.take(chars[i], group, out=out[slot + i], mode="clip")
    return groups


_SLOT = np.arange(_DIGITS + 1)[:, None]
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_POINT_ZERO = np.frombuffer(b".0", np.uint8)[:, None]


def _float_text(v, shortest: bool, chars, keep):
    """Lay out ``%r`` (``shortest``) or ``%.17g`` of the float64 ``v`` into the
    (slot, value) ``chars`` and ``keep``; the mask of the values left to ``%``."""
    n, e, slow = _float_digits(v, shortest)
    keep[0] = np.signbit(v)
    chars[0] = ord("-")
    fixed = (e >= -4) & (e < _DIGITS - shortest)        # else the exponent form
    small = fixed & (e < 0)                             # 0.000ddd
    chars[1:6] = _LEAD
    keep[1:6] = _SLOT[:5] < np.where(small, 1 - e, 0)
    digits = chars[6:6 + _DIGITS + 1]
    groups = _digit_chars(n, digits[1:])
    # the digits left once trailing zeros are stripped, and those before the point
    sig = np.maximum.reduce([np.take(ends, g, mode="clip")
                             for ends, g in zip(_digit_tables()[1], groups)])
    np.maximum(sig, 1, out=sig)
    whole = np.where(fixed, e + 1, 1)
    point = np.where(~small & (sig > whole), whole, _DIGITS + 1)
    np.copyto(digits[:-1], digits[1:], where=_SLOT[:-1] < point)
    np.copyto(digits, ord("."), where=_SLOT == point)
    keep[6:6 + _DIGITS + 1] = _SLOT < np.where(small, sig, np.maximum(sig, whole)) + (point <= _DIGITS)
    at = 6 + _DIGITS + 1
    if shortest:
        chars[at:at + 2] = _POINT_ZERO
        keep[at:at + 2] = fixed & ~small & (sig <= whole)
        at += 2
    np.take(_EXPONENTS, e + _EXP_RANGE + 1, axis=1, out=chars[at:at + 4], mode="clip")
    keep[at:at + 4] = ~fixed
    return slow


def _int_text(v, chars, keep):
    """Lay out ``%d`` of the integers ``v`` into ``chars`` and ``keep``; the mask
    of the values left to ``%`` (17 or more digits)."""
    v = np.asarray(v, dtype=np.int64)
    slow = (v <= -_INT_POW[_DIGITS - 1]) | (v >= _INT_POW[_DIGITS - 1])
    n = np.where(slow, 0, np.abs(v))
    keep[0] = v < 0
    chars[0] = ord("-")
    _digit_chars(n, chars[1:])
    width = np.searchsorted(_INT_POW[1:_DIGITS], n, side="right")   # digits - 1
    keep[1:] = _SLOT[:-1] >= _DIGITS - 1 - width
    return slow


_WIDTH = {"d": 1 + _DIGITS, ".17g": 1 + 5 + _DIGITS + 1 + 4, "r": 1 + 5 + _DIGITS + 1 + 2 + 4}


def format_rows(line_format: str, columns) -> str:
    """``"".join(line_format % row for row in zip(*columns))``, the columns read as
    Python numbers, byte for byte.

    ``line_format`` is literal text and the conversions ``%.17g`` and ``%r``
    (of float64 columns) and ``%d`` (of integer columns), one column each.
    """
    parts = _CONVERSION.split(line_format)
    literals, conversions = parts[0::2], parts[1::2]
    if len(conversions) != len(columns) or any("%" in text for text in literals):
        raise ValueError(f"format {line_format!r} for {len(columns)} columns")
    rows = len(columns[0]) if columns else 0
    literals = [text.encode("ascii") for text in literals]
    slots = sum(map(len, literals)) + sum(_WIDTH[c] for c in conversions)
    chars = np.empty((slots, rows), dtype=np.uint8)
    keep = np.empty((slots, rows), dtype=bool)
    slow = np.zeros(rows, dtype=bool)
    at = 0
    for text, conv, column in zip(literals, conversions + [None], [*columns, None]):
        if text:
            chars[at:at + len(text)] = np.frombuffer(text, np.uint8)[:, None]
            keep[at:at + len(text)] = True
            at += len(text)
        if conv is not None:
            block = slice(at, at + _WIDTH[conv])
            if conv == "d":
                slow |= _int_text(column, chars[block], keep[block])
            else:
                slow |= _float_text(np.asarray(column, dtype=np.float64), conv == "r",
                                    chars[block], keep[block])
            at += _WIDTH[conv]
    if not slow.any():
        return str(chars.T[keep.T], "ascii")
    rows_left = np.flatnonzero(slow)
    keep[:, rows_left] = False
    ends = np.cumsum(keep.sum(axis=0))[rows_left].tolist()
    text = str(chars.T[keep.T], "ascii")
    pieces, done = [], 0
    for r, end in zip(rows_left.tolist(), ends):
        pieces += [text[done:end], line_format % tuple(c[r].item() for c in columns)]
        done = end
    pieces.append(text[done:])
    return "".join(pieces)
