"""CSV text whose every float field is exactly ``"%.17g" % x``.

CPython's ``%`` spends most of a microsecond per double in its 17-digit
conversion; this writer gets the same bytes from whole-array numpy
operations, one block of rows at a time, and writes each block to a
binary file as it is made (``csv_text`` joins the same blocks after a
header).

Digits.  For |x| in [1e-280, 1e280], s = 16 - floor(log10 |x|) puts
y = |x| * 10**s in [1e16, 1e17) when the floor is right.  10**s is held as
a pair hi + lo of doubles made from exact integer arithmetic, and
|x| * hi is split into an exact sum p + e by Dekker's two-product (Numer.
Math. 18, 1971), so y = p + t with t = e + |x| * lo, within about 1e-14.
p is above 2**53, hence an integer, and the 17 digits are
p + floor(t), plus one when the fraction of t is above one half.

Fallback.  Where that is not certain, the field is ``"%.17g" % x``
itself: zeros, non-finite values, |x| outside [1e-280, 1e280], a fraction
within 1e-9 of one half (exact ties round half to even), and a value
p + floor(t) outside [1e16, 1e17) or digits that round up to 1e17
(floor(log10) is off by one next to powers of ten; 1e-6 is
9.9999999999999995e-07).

Layout.  A field is built in fixed columns: the sign, the ``0.000``
prefix of %g's fixed notation below 1, the 17 digits each followed by a
point slot, ``e`` with a signed three-digit exponent, and the separator.
Which of them %g keeps depends only on the sign, the decimal exponent and
the last nonzero digit, so one table lookup gives each field's mask, and a
block's text is its character buffer under the mask.
"""
from __future__ import annotations

import functools
import io

import numpy as np

# rows formatted at a time; bounds the buffers at a few MB
_BLOCK_ROWS = 8192
# |x| range of the fast path: Dekker's products neither overflow nor lose
# bits to subnormals there
_LIMIT = 1e280
# powers 10**s kept for s in [-_S_MAX, _S_MAX]; the fast path needs
# s = 16 - floor(log10 |x|) in [-264, 297]
_S_MAX = 300
_SPLITTER = 134217729.0  # 2**27 + 1
_TIE_MARGIN = 1e-9

# columns of one field
_SIGN = 0
_PREFIX = 1   # "0.000"
_DIGITS = 6   # digit j at _DIGITS + 2j, its point slot after it
_EXP = 40     # "e", exponent sign, three exponent digits
_SEP = 45
_FIELD = 46
# mask classes: fixed notation for decimal exponents -4..16, then
# scientific notation with a two- or three-digit exponent
_FIXED_LO, _FIXED_HI = -4, 16
_SCI2, _SCI3 = 21, 22

_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", np.uint8)

# hi, hi's two Dekker halves and lo of 10**s at column s + _S_MAX, filled
# on first use of each exponent
_POW10 = np.zeros((4, 2 * _S_MAX + 1))
_HAVE = np.zeros(2 * _S_MAX + 1, bool)


def _pow10(s: int) -> tuple:
    """10**s as hi + lo: hi the nearest double, lo the nearest double to
    the rest."""
    if s >= 0:
        exact = 10 ** s
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10 ** -s
    hi = 1 / den
    num, hi_den = hi.as_integer_ratio()
    return hi, (hi_den - num * den) / (hi_den * den)


def _powers(col: np.ndarray) -> np.ndarray:
    """Rows of ``_POW10`` at the columns ``col``, filling missing ones."""
    seen = np.zeros(len(_HAVE), bool)
    seen[col] = True
    for c in np.flatnonzero(seen & ~_HAVE).tolist():
        hi, lo = _pow10(c - _S_MAX)
        split = _SPLITTER * hi
        hi_hi = split - (split - hi)
        _POW10[:, c] = hi, hi_hi, hi - hi_hi, lo
        _HAVE[c] = True
    return np.take(_POW10, col, axis=1)


@functools.cache
def _tables() -> tuple:
    """The 4-digit groups 0000..9999, the exponents -300..300 as sign and
    three digits, and the kept columns of a field per (mask class, last
    nonzero digit, sign)."""
    i = np.arange(10000)
    groups = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    e = np.arange(-_S_MAX, _S_MAX + 1)
    exps = np.empty((len(e), 4), np.uint8)
    exps[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    exps[:, 1:] = np.abs(e)[:, None] // np.array([100, 10, 1]) % 10 + 48

    masks = np.zeros((_SCI3 + 1, 17, 2, _FIELD), bool)
    masks[..., _SEP] = True
    masks[..., 1, _SIGN] = True
    for cls in range(_SCI3 + 1):
        for last in range(17):
            row = masks[cls, last]
            point = None
            if cls < _SCI2:
                x = cls + _FIXED_LO
                if x < 0:
                    row[:, _PREFIX:_PREFIX + 1 - x] = True  # "0." and -x-1 zeros
                    end = last
                else:
                    end = max(last, x)
                    point = x if last > x else None
            else:
                end = last
                point = 0 if last > 0 else None
                row[:, _EXP:_EXP + 2] = True
                row[:, _EXP + (2 if cls == _SCI3 else 3):_EXP + 5] = True
            row[:, _DIGITS:_DIGITS + 2 * end + 1:2] = True
            if point is not None:
                row[:, _DIGITS + 2 * point + 1] = True
    # four characters as one uint32 each: gathering scalars beats rows
    return groups.view(np.uint32)[:, 0], exps.view(np.uint32)[:, 0], \
        masks.reshape(-1, _FIELD)


def _percent(x: float) -> bytes:
    """The fallback: CPython's own text of x."""
    return b"%.17g" % x


def _field(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write the %.17g text of each element of x into its row of ``chars``
    (rows x _FIELD) and the columns to keep into ``keep``."""
    groups, exps, masks = _tables()
    a = np.abs(x)
    fast = (a >= 1.0 / _LIMIT) & (a <= _LIMIT)
    a[~fast] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = _powers(_S_MAX + 16 - e10)
    # a * hi = p + err exactly (Dekker)
    split = a * _SPLITTER
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p = a * hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    t = err + a * lo
    whole = np.floor(t)
    frac = t - whole
    digits = p.astype(np.int64) + whole.astype(np.int64)
    # check the floor, not the rounded digits: the double 1e-6 at s = 22
    # reads 9999999999999999.55, which rounds into range although its 17
    # digits start one place further down
    fast &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (digits >= 10 ** 16)
    digits += frac > 0.5
    fast &= digits < 10 ** 17
    digits[~fast] = 10 ** 16
    e10[~fast] = 0

    # 17 digit characters: the leading digit, then four groups of four
    top, low8 = np.divmod(digits, 10 ** 8)
    lead, high8 = np.divmod(top, 10 ** 8)
    quads = np.empty((len(x), 4), np.int64)
    np.divmod(high8, 10 ** 4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low8, 10 ** 4, out=(quads[:, 2], quads[:, 3]))
    text = np.empty((len(x), 17), np.uint8)
    text[:, 0] = lead + 48
    text[:, 1:] = groups[quads].view(np.uint8)
    last = 16 - (text[:, ::-1] != 48).argmax(axis=1)

    chars[:] = _TEMPLATE
    chars[:, _DIGITS:_EXP:2] = text
    chars[:, _EXP + 1:_SEP] = exps[e10 + _S_MAX, None].view(np.uint8)
    cls = np.where((e10 >= _FIXED_LO) & (e10 <= _FIXED_HI), e10 - _FIXED_LO,
                   np.where(np.abs(e10) < 100, _SCI2, _SCI3))
    keep[:] = np.take(masks, (cls * 17 + last) * 2 + (x < 0), axis=0)

    for i in np.flatnonzero(~fast).tolist():
        slow = _percent(float(x[i]))
        chars[i, :len(slow)] = np.frombuffer(slow, np.uint8)
        keep[i, :_SEP] = False
        keep[i, :len(slow)] = True


def _block(columns, first) -> np.ndarray:
    """The text of the rows of one block: ``first`` + row number when
    ``first`` is not None, then each column's field."""
    rows = len(columns[0])
    width = 0 if first is None else len(str(first + rows - 1))
    lead = 0 if first is None else width + 1
    chars = np.empty((rows, lead + _FIELD * len(columns)), np.uint8)
    keep = np.empty(chars.shape, bool)
    if first is not None:
        numbers = np.arange(first, first + rows)[:, None]
        place = 10 ** np.arange(width - 1, -1, -1)
        chars[:, :width] = numbers // place % 10 + 48
        keep[:, :width] = numbers >= place
        keep[:, width - 1] = True
        chars[:, width] = ord(",")
        keep[:, width] = True
    for k, x in enumerate(columns):
        cut = slice(lead + k * _FIELD, lead + (k + 1) * _FIELD)
        _field(x, chars[:, cut], keep[:, cut])
    chars[:, -1] = ord("\n")
    return np.compress(keep.ravel(), chars.ravel())


def write_rows(file, columns, first: int | None = None) -> None:
    """Write the rows of ``columns`` (sequences of equal length) to the
    binary file ``file``, one block of ``_BLOCK_ROWS`` rows at a time.  A
    row is its number counted from ``first`` (left out when None), then
    ``"%.17g" % x`` of each column's element, comma-separated."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        cut = slice(start, start + _BLOCK_ROWS)
        file.write(_block([c[cut] for c in columns],
                          None if first is None else first + start))


def csv_text(header: str, columns, first: int | None = None) -> str:
    """``header``, then the rows ``write_rows`` writes for ``columns``."""
    text = io.BytesIO()
    text.write(header.encode("ascii") + b"\n")
    write_rows(text, columns, first)
    return text.getvalue().decode("ascii")
