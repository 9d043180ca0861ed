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

Layout.  A field is six 8-byte words in fixed columns: the sign, the
``0.000`` prefix of %g's fixed notation below 1, the 17 digits each
followed by a point slot, ``e`` with a signed three-digit exponent, the
separator and two pad bytes.  Each word is gathered from a table (the
leading digit, a 4-digit group, the exponent) and ANDed with the field's
mask, whose bytes keep a column or zero it.  Which columns %g keeps
depends only on the sign, the decimal exponent and the last nonzero digit,
so one table lookup gives each field's mask.  A row is the row number's
digits and a comma, zero-padded to whole words, then its fields; a block
of rows is one zero-initialized buffer reused by every block of a call,
and its text is that buffer with the zero bytes deleted
(``bytes.translate``).
"""
from __future__ import annotations

import functools
import io

import numpy as np

# rows formatted at a time; bounds the buffer at a few MB
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
_FIELD = 48   # two pad bytes make six whole words
# mask classes: fixed notation for decimal exponents -4..16, then
# scientific notation with a two- or three-digit exponent
_FIXED_LO, _FIXED_HI = -4, 16
_SCI2, _SCI3 = 21, 22
# where the first and the last words of a field start in the word table
_FIRSTS = 10000
_LASTS = _FIRSTS + 10

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


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8 characters as one uint64 each."""
    return np.ascontiguousarray(chars, np.uint8).view(np.uint64)[:, 0]


@functools.cache
def _tables() -> tuple:
    """The 4-digit groups 0000..9999 as 4 characters in a uint32; the word
    table: each group with a point slot after every digit, then a field's
    first word per leading digit (from ``_FIRSTS``) and its last word per
    exponent -300..300 (from ``_LASTS``); the trailing zeros of each group
    (4 for 0000); 2 * 17 times the mask class of each exponent; and the
    six mask words of a field, as six rows, per (mask class, last nonzero
    digit, sign)."""
    i = np.arange(10000)
    groups = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros = (groups[:, ::-1] != 48).argmax(axis=1)
    zeros[0] = 4
    pairs = np.full((10000, 8), ord("."), np.uint8)
    pairs[:, ::2] = groups
    firsts = np.frombuffer(b"-0.0000." * 10, np.uint8).reshape(10, 8).copy()
    firsts[:, _DIGITS] += np.arange(10, dtype=np.uint8)
    e = np.arange(-_S_MAX, _S_MAX + 1)
    lasts = np.zeros((len(e), 8), np.uint8)
    lasts[:, 0] = ord("e")
    lasts[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    lasts[:, 2:5] = np.abs(e)[:, None] // np.array([100, 10, 1]) % 10 + 48
    lasts[:, _SEP - _EXP] = ord(",")
    classes = np.where((e >= _FIXED_LO) & (e <= _FIXED_HI), e - _FIXED_LO,
                       np.where(np.abs(e) < 100, _SCI2, _SCI3))

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
    masks = (masks.reshape(-1, _FIELD).view(np.uint8) * 255).view(np.uint64).T.copy()
    # gathering words beats gathering their characters
    words = np.concatenate([_words(pairs), _words(firsts), _words(lasts)])
    return groups.view(np.uint32)[:, 0], words, zeros, classes * 34, masks


def _percent(x: float) -> bytes:
    """The fallback: CPython's own text of x."""
    return b"%.17g" % x


def _split(n: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Fill the rows of ``quads`` with the 4-digit groups of n, the lowest
    last; return what is left above them."""
    for j in range(len(quads) - 1, -1, -1):
        top = np.floor_divide(n, 10000)
        np.subtract(n, top * 10000, out=quads[j])
        n = top
    return n


def _field(x: np.ndarray, out: np.ndarray) -> None:
    """Write the %.17g text of each element of x, a separator and zero
    bytes in place of the columns it leaves out, into its row of ``out``
    (rows x 6 words)."""
    _, words, zeros, bases, masks = _tables()
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

    # the words of a field: its leading digit, four groups of four digits
    # and its exponent
    index = np.empty((6, len(x)), np.intp)
    index[0] = _split(digits, index[1:5]) + _FIRSTS
    e = e10 + _S_MAX
    np.add(e, _LASTS, out=index[5])
    # the last nonzero digit is in the lowest nonzero group
    tail = zeros[index[4]]
    short = np.flatnonzero(tail == 4)
    for j in (3, 2, 1):
        more = zeros[index[j, short]]
        tail[short] += more
        short = short[more == 4]
    text = np.take(masks, bases[e] + 32 - 2 * tail + (x < 0), axis=1)
    text &= np.take(words, index)

    for i in np.flatnonzero(~fast).tolist():
        slow = _percent(float(x[i])).ljust(_SEP, b"\0") + b",\0\0"
        text[:, i] = np.frombuffer(slow, np.uint64)
    out[:] = text.T


def write_rows(file, columns, first: int | None = None) -> None:
    """Write the rows of ``columns`` (sequences of equal length) to the
    binary file ``file``, one block of ``_BLOCK_ROWS`` rows at a time.  A
    row is its number counted from ``first`` (left out when None), then
    ``"%.17g" % x`` of each column's element, comma-separated."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if n == 0:
        return
    size = min(n, _BLOCK_ROWS)
    # the row number in whole 4-digit groups, then a comma, in whole words
    width = 0 if first is None else 4 * -(-len(str(first + n - 1)) // 4)
    lead = -(-(width + int(first is not None)) // 8)
    text = bytearray(size * 8 * (lead + 6 * len(columns)))
    block = np.frombuffer(text, np.uint64).reshape(size, -1)
    chars = block.view(np.uint8)
    fields = block[:, lead:].reshape(size, len(columns), 6)
    if first is not None:
        groups = _tables()[0]
        numbers = block.view(np.uint32)
        quads = np.empty((width // 4, size), np.int64)
        chars[:, width] = ord(",")
    for start in range(0, n, size):
        rows = min(size, n - start)
        if first is not None:
            row = first + start
            _split(np.arange(row, row + rows), quads[:, :rows])
            for j, quad in enumerate(quads[:, :rows]):
                numbers[:rows, j] = groups[quad]
            for d in range(2, width + 1):  # rows below 10**(d-1) drop digit d
                chars[:min(rows, max(0, 10 ** (d - 1) - row)), width - d] = 0
        for k, x in enumerate(columns):
            _field(x[start:start + rows], fields[:rows, k])
        chars[:rows, -3] = ord("\n")  # the last field's separator
        block[rows:] = 0  # past the last block's rows: deleted with the zeros
        file.write(text.translate(None, b"\0"))


def csv_text(header: str, columns, first: int | None = None) -> str:
    """``header``, then the rows ``write_rows`` writes for ``columns``."""
    text = io.BytesIO()
    text.write(header.encode("ascii") + b"\n")
    write_rows(text, columns, first)
    return text.getvalue().decode("ascii")
