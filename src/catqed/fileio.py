"""Small file-output helpers: atomic writes and fixed-precision floats.

``atomic_write_text`` streams a file's bytes, chunk by chunk as they are
made, into a temp file that then replaces the target, so no writer holds a
whole file.  ``format_float`` renders one value as ``FLOAT_FORMAT``.
``float_cells`` renders a whole array to the same bytes in bulk, for the
Wigner grid files: it finds each value's 17 correctly rounded significant
digits with exact integer arithmetic in numpy (the scaling of Steele and
White, PLDI 1990, done for a block of values at once), and lays them out as
fixed-width byte cells padded with NULs.  Removing the NULs of a cell gives
exactly ``FLOAT_FORMAT % value``.
"""

from __future__ import annotations

import functools
import os

import numpy as np

# 17 significant digits round-trips IEEE doubles exactly.
FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


class ChunkedText:
    """Text made as byte chunks: each iteration calls ``make()`` for a fresh
    iterable of chunks, so the whole text need never be held.  ``encode()``
    joins them, as ``str.encode`` gives a str's bytes."""

    def __init__(self, make):
        self._make = make

    def __iter__(self):
        return iter(self._make())

    def encode(self) -> bytes:
        return b"".join(self)


def atomic_write_text(path: str, text) -> None:
    """Write ``text`` via a temp file in the target directory, then rename over.

    ``text`` is a str or an iterable of byte chunks (a ``ChunkedText``, a
    generator); each chunk goes into the file as it comes.  If making or
    writing a chunk fails, the temp file is closed and removed, the target
    is left as it was, and the error propagates.  The file gets the mode
    ``open(path, "w")`` gives, 0o666 less the process umask (a
    ``tempfile.mkstemp`` file would keep its owner-only 0o600).
    """
    chunks = (text.encode(),) if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            for chunk in chunks:
                view = memoryview(chunk)
                while view:
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ------------------------------------------------- bulk FLOAT_FORMAT cells
#
# A normal x = M 2^E (M < 2^53) with decimal exponent P has the 17 digits
# round-half-even(M 5^s 2^(E+s)), s = 16 - P.  5^s is held shifted into
# [2^119, 2^120) as four 31-bit limbs, so every partial product and column
# sum of M 5^s fits a uint64.  Values with |x| in [BULK_MIN, BULK_MAX) and
# zeros are converted in bulk; their decimal exponents X lie in -29..15.
# Anything else (subnormals, inf, nan, huge or tiny values) goes through
# ``format_float``.
BULK_MIN, BULK_MAX = 1e-28, 1e16
_X_MIN, _X_MAX = -29, 15
_U64 = np.uint64
_M31 = _U64((1 << 31) - 1)
_POW5 = [5 ** s for s in range(16 - _X_MIN + 2)]
# per s: the four limbs of 5^s 2^u, low first, and u - s + 1075 - 93
_POW5_LIMBS = np.array([[(p << 120 - p.bit_length()) >> (31 * i) & 0x7FFFFFFF for p in _POW5]
                        for i in range(4)], dtype=np.uint64)
_POW5_SHIFT = np.array([120 - p.bit_length() - s + 1075 - 93 for s, p in enumerate(_POW5)])

# A cell is six words of eight bytes (byte 0 first in memory):
#   byte 0 sign, bytes 1-5 the "0.000" prefix of -4 <= X < 0, byte 6 the
#   first digit, byte 7 a point after it, bytes 8-39 the other 16 digits
#   each followed by a point slot, bytes 40-43 the exponent "e-05".
# Bytes a value does not use hold NUL.  The tables are built as bytes and
# read as words, so they hold on either byte order.
CELL_WORDS = 6


def _words(table: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)


@functools.cache
def _cell_tables():
    """Words of the digits, the sign and the per-class layout, indexed by
    value, built on first use."""
    quad = np.arange(10000)
    digits = np.zeros((10000, 8), dtype=np.uint8)     # four digits, slots between
    for k, scale in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * k] = ord("0") + quad // scale % 10
    trailing = sum((quad % scale == 0).astype(np.int64) for scale in (10, 100, 1000, 10000))
    first = np.zeros((10, 8), dtype=np.uint8)
    first[:, 6] = ord("0") + np.arange(10)
    sign = np.zeros((2, 8), dtype=np.uint8)
    sign[1, 0] = ord("-")
    # class (X, n): decimal exponent X and n significant digits.  ``keep``
    # masks the digits a cell shows, ``fixed`` holds its prefix, point and
    # exponent bytes.  "123.45" shows every integer digit; "0.0012345" and
    # "1.2345e-05" show the significant ones.
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    n = np.arange(1, 18)
    shown = np.where(x >= 0, np.maximum(n, x + 1), n)
    point = np.where(x >= 0, np.where(n > x + 1, x, -1), np.where((x < -4) & (n > 1), 0, -1))
    digit = np.arange(17)
    keep = np.zeros(shown.shape + (8 * CELL_WORDS,), dtype=np.uint8)
    keep[..., 6:40:2] = np.where(digit < shown[..., None], 0xFF, 0)
    fixed = np.zeros_like(keep)
    fixed[..., 7:41:2] = np.where(digit == point[..., None], ord("."), 0)
    affixes = np.frombuffer(b"".join(
        (b"0." + b"0" * (-v - 1) if -4 <= v < 0 else b"").ljust(5, b"\0")
        + (b"e-%02d" % -v if v < -4 else b"").ljust(4, b"\0")
        for v in range(_X_MIN, _X_MAX + 1)), np.uint8).reshape(-1, 1, 9)
    fixed[..., 1:6] = affixes[..., :5]
    fixed[..., 40:44] = affixes[..., 5:]
    # one table per word, indexed by class
    keep = np.ascontiguousarray(_words(keep.reshape(-1, 8 * CELL_WORDS)).T)
    fixed = np.ascontiguousarray(_words(fixed.reshape(-1, 8 * CELL_WORDS)).T)
    return (_words(digits).ravel(), trailing, _words(first).ravel(), _words(sign).ravel(),
            keep, fixed)


def _scaled(mant: np.ndarray, exp2: np.ndarray, p10: np.ndarray):
    """floor(M 2^E 10^s) for s = 16 - p10, exactly, and whether it rounds
    up to nearest, ties to even; ``exp2`` is E + 1075, the biased exponent."""
    s = 16 - p10
    f0, f1, f2, f3 = (np.take(limb, s) for limb in _POW5_LIMBS)
    # the floor is M 5^s 2^u shifted right by k = u - s - E bits, 112 <= k
    # <= 123 while p10 is the decimal exponent to within one; the product
    # is summed in 31-bit columns and bits 93 and up are kept
    sh = (np.take(_POW5_SHIFT, s) - exp2).astype(np.uint64)
    m0, m1 = mant & _M31, mant >> _U64(31)
    col = m0 * f0
    low = col & _M31                  # any bit below 2^93 breaks a tie
    col >>= _U64(31)
    for a, b in ((m0 * f1, m1 * f0), (m0 * f2, m1 * f1)):
        col += a
        col += b
        low |= col & _M31
        col >>= _U64(31)
    col += m0 * f3
    col += m1 * f2
    limb3 = col & _M31                # bits 93..123
    col >>= _U64(31)
    col += m1 * f3                    # bits 124 and up
    q = (col << (_U64(31) - sh)) | (limb3 >> sh)
    # up iff the remainder passes half, or is half and q is odd
    unit = _U64(1) << sh
    rest = limb3 & (unit - _U64(1))
    up = ((rest << _U64(1)) | (low != 0) | (q & _U64(1))) > unit
    return q, up


def float_cells(values: np.ndarray) -> np.ndarray:
    """Cells of ``values`` (flattened), one row each, NUL-padded; row i with
    its NUL bytes removed is ``FLOAT_FORMAT % values[i]``.  Columns that are
    NUL in every row are left out."""
    quads_table, trailing, first_table, sign_table, keep, fixed = _cell_tables()
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    bulk = ((a >= BULK_MIN) & (a < BULK_MAX)) | (a == 0)
    y = np.where(bulk & (a != 0), a, 1.0)          # a zero is 0 with the digits of 1
    bits = y.view(np.uint64)
    exp2 = (bits >> _U64(52)).astype(np.int64)
    mant = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    # log10 puts p10 within one of the decimal exponent; an unrounded
    # scaled value outside [1e16, 1e17) says which way and is redone
    p10 = np.floor(np.log10(y)).astype(np.int64)
    q, up = _scaled(mant, exp2, p10)
    redo = np.flatnonzero((q < _U64(10 ** 16)) | (q >= _U64(10 ** 17)))
    if redo.size:
        p10[redo] += np.where(q[redo] < _U64(10 ** 16), -1, 1)
        q[redo], up[redo] = _scaled(mant[redo], exp2[redo], p10[redo])
    q += up
    carry = q == _U64(10 ** 17)                     # 99..9.5 rounds to 10^17
    q[carry] = _U64(10 ** 16)
    p10 += carry
    # the first digit, then four groups of four; trailing zeros by group
    q = q.view(np.int64)
    first = q // 10 ** 16
    rest = q - first * 10 ** 16
    first[a == 0] = 0
    quads, above = [], 0
    for scale in (10 ** 12, 10 ** 8, 10 ** 4, 1):
        head = rest // scale
        quads.append(head - above * 10 ** 4)
        above = head
    zero_digits = np.take(trailing, quads[3])
    for k in (2, 1, 0):               # a group counts behind four zeros only
        zero_digits += (zero_digits == 4 * (3 - k)) * np.take(trailing, quads[k])
    cls = (p10 - _X_MIN) * 17 + (16 - zero_digits)
    words = [np.take(fixed[0], cls) | np.take(first_table, first)
             | np.take(sign_table, np.signbit(x).view(np.uint8))]
    for k in range(4):
        word = np.take(quads_table, quads[k])
        word &= np.take(keep[k + 1], cls)
        word |= np.take(fixed[k + 1], cls)
        words.append(word)
    words.append(np.take(fixed[5], cls))
    others = np.flatnonzero(~bulk)
    if others.size:
        texts = np.array([format_float(v).encode() for v in x[others].tolist()],
                         dtype=f"S{8 * CELL_WORDS}")
        for word, part in zip(words, texts.view(np.uint64).reshape(-1, CELL_WORDS).T):
            word[others] = part
    # bytes b of word w, for the (w, b) some value uses
    used = [(w, b) for w, word in enumerate(words)
            for b in np.flatnonzero(np.bitwise_or.reduce(word, keepdims=True).view(np.uint8))]
    cells = np.empty((len(x), len(used)), dtype=np.uint8)
    for i, (w, b) in enumerate(used):
        cells[:, i] = words[w].view(np.uint8)[b::8]
    return cells
