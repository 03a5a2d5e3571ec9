"""CSV rows of float64 values, each written exactly as Python's '%.17g' writes it.

For |x| in [1e-4, 1e15) '%.17g' is fixed notation: the 17 correctly rounded
significant digits of x, with trailing zeros, and then a bare point, removed.
`format_rows` finds those digits in numpy. With E = floor(log10 |x|), the
product |x| * 10^(16-E) lies in [1e16, 1e17); both factors are doubles (10^p
is exact for p <= 22), and Dekker's two-product gives it without error as
hi + lo. hi is an even integer, as is every double above 2^53, so
N = hi + rint(lo) rounds half to even, as dtoa does. N never rounds up to
1e17: the largest double below each power of ten in the range lies at least
8 units of N below it. N's digits come from a table of 4-digit groups, and
one layout table, indexed by E, the position of the last nonzero digit and
the sign, places digits, sign, point and leading zeros in a zero-padded byte
row of fixed width; the rows are joined and the padding deleted. Every other
value (0, -0, subnormals, |x| < 1e-4, |x| >= 1e15, NaN and inf) is formatted
by Python. The work runs in blocks of _BLOCK_VALUES values, so its scratch
memory does not grow with the input, and the tables are built on first use.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

__all__ = ["format_rows"]

# A block's scratch is about 400 bytes per value, so under 1 MiB; of 2^10..2^13
# values per block, 2^11 and 2^12 formatted the perfbench paths fastest.
_BLOCK_VALUES = 2**11
_WIDTH = 23  # the longest text in the kernel's range, '-0.000' and 17 digits
_E_MIN, _E_MAX = -4, 14  # decimal exponents in the kernel's range
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for float64

# A value's symbols, which the layout rows index: its second to 17th digits
# (four 4-digit groups, each written as one uint32), its first digit, the
# constants, then the bytes that follow the value in its row. _MARK stands for
# a value that Python formats; it is replaced after the padding is deleted.
_FIRST, _MINUS, _ZERO, _POINT, _PAD, _MARK, _SEP = 16, 17, 18, 19, 20, 21, 22
_CONSTANTS = b"-0.\0\1"
_GROUP_START = np.array([1, 5, 9, 13], dtype=np.int16)  # index of each group's first digit


def _digit(k: int) -> int:
    """The symbol of the value's k-th significant digit, k = 0..16."""
    return _FIRST if k == 0 else k - 1


@cache
def _tables(seps: int) -> tuple[np.ndarray, ...]:
    """(10^p split into high and low halves, p = 0..22; the ASCII of each 4-digit
    group as a uint32; the index of each group's last nonzero digit; the layout
    rows, with `seps` separator bytes after each value)."""
    p = 10.0 ** np.arange(23)
    scaled = _SPLIT * p
    p_hi = scaled - (scaled - p)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    ascii4 = (digits + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    nonzero = digits != 0
    # the group 0000 lies far below every group start, so it never sets the last digit
    last4 = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), -64).astype(np.int16)
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        for last in range(17):
            for negative in (False, True):
                row = [_MINUS] if negative else []
                if e < 0:
                    row += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + [_digit(k) for k in range(last + 1)]
                else:
                    row += [_digit(k) for k in range(e + 1)]
                    if last > e:
                        row += [_POINT] + [_digit(k) for k in range(e + 1, last + 1)]
                rows.append(row)
    rows.append([_MARK])
    layout = np.full((len(rows), _WIDTH + seps), _PAD, dtype=np.intp)
    for i, row in enumerate(rows):
        layout[i, : len(row)] = row
    layout[:, _WIDTH:] = np.arange(_SEP, _SEP + seps)
    return p_hi, p - p_hi, ascii4, last4, layout


def _two_product(a, a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) with hi = fl(a * b) and hi + lo = a * b exactly, for b = b_hi + b_lo (Dekker)."""
    hi = a * (b_hi + b_lo)
    lo = a_hi * b_hi - hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    return hi, lo


def format_rows(columns: Sequence[np.ndarray], end: str = "\n") -> str:
    """''.join(','.join('%.17g' % x for x in row) + end for row in zip(*columns)).

    The columns are equal-length float arrays; `end` holds no NUL or \\x01 byte.
    """
    n_rows, n_cols = len(columns[0]), len(columns)
    seps = [b","] * (n_cols - 1) + [end.encode("ascii")]
    width = max(len(s) for s in seps)
    p_hi, p_lo, ascii4, last4, layout = _tables(width)
    block_rows = max(1, min(_BLOCK_VALUES // n_cols, n_rows))
    size = block_rows * n_cols
    symbols = np.zeros((block_rows, n_cols, -(-(_SEP + width) // 4) * 4), dtype=np.uint8)
    symbols[:, :, _MINUS:_SEP] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    for j, sep in enumerate(seps):
        symbols[:, j, _SEP:_SEP + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    symbols = symbols.reshape(size, -1)
    groups = symbols.view(np.uint32)
    quads = np.empty((size, 4), dtype=np.intp)
    offsets = (np.arange(size) * symbols.shape[1])[:, None]
    sources = np.empty((size, layout.shape[1]), dtype=np.intp)
    texts = np.empty(sources.shape, dtype=np.uint8)
    pieces = []
    for start in range(0, n_rows, block_rows):
        v = np.column_stack([c[start:start + block_rows] for c in columns]).astype(np.float64, copy=False).ravel()
        n = v.size
        a = np.abs(v)
        slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e15)))
        a[slow] = 1.0  # any value in range; these values' rows are replaced
        scaled = _SPLIT * a
        a_hi = scaled - (scaled - a)
        a_lo = a - a_hi
        e = np.floor(np.log10(a)).astype(np.intp)
        hi, lo = _two_product(a, a_hi, a_lo, p_hi[16 - e], p_lo[16 - e])
        # where log10 rounds across a power of ten, the product leaves [1e16, 1e17)
        shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.intp)
        shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        if shift.any():
            e += shift
            hi, lo = _two_product(a, a_hi, a_lo, p_hi[16 - e], p_lo[16 - e])
        digits = hi.astype(np.int64)
        digits += np.rint(lo).astype(np.int64)
        upper = (digits // 10**8).astype(np.uint32)  # the first nine digits
        lower = (digits - upper * np.int64(10**8)).astype(np.uint32)
        first = upper // 10**8
        upper -= first * np.uint32(10**8)
        g = quads[:n]
        np.floor_divide(upper, 10**4, out=g[:, 0])
        np.subtract(upper, g[:, 0] * np.uint32(10**4), out=g[:, 1])
        np.floor_divide(lower, 10**4, out=g[:, 2])
        np.subtract(lower, g[:, 2] * np.uint32(10**4), out=g[:, 3])
        # out= with mode "clip" writes in place; "raise" would buffer (the indices are in range)
        np.take(ascii4, g, out=groups[:n, :4], mode="clip")
        symbols[:n, _FIRST] = first + ord("0")
        ends = np.take(last4, g)
        ends += _GROUP_START
        last = np.maximum(np.maximum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 2], ends[:, 3]))
        np.maximum(last, 0, out=last)
        index = ((e - _E_MIN) * 17 + last) * 2 + (v < 0.0)
        index[slow] = layout.shape[0] - 1
        source = np.take(layout, index, axis=0, out=sources[:n], mode="clip")
        source += offsets[:n]
        text = np.take(symbols.ravel(), source, out=texts[:n], mode="clip").tobytes().translate(None, b"\0")
        if slow.size:
            merged = [b""] * (2 * slow.size + 1)
            merged[::2] = text.split(b"\1")
            merged[1::2] = [b"%.17g" % x for x in v[slow].tolist()]
            text = b"".join(merged)
        pieces.append(text.decode("ascii"))
    return "".join(pieces)
