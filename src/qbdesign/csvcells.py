"""CSV text of float cells, each printed as "%.6g", a whole matrix at a time.

`sweep` prints a float matrix per chunk of its grid.  Formatting each cell
with Python's "%.6g" costs more than computing the whole grid, so csv_rows
prints the matrix in numpy and Python formats only the cells it cannot
decide exactly.

"%.6g" rounds a value to six significant digits, d.ddddd x 10^X, and prints
it in fixed notation with trailing zeros dropped when -4 <= X < 6, else as
d[.dddd]e+XX.  The fast path takes e = floor(log10 |v|), within
|5 - e| <= 22 so that 10^(5 - e) is an exact float64, and the scaled value
s = |v| 10^(5 - e) by one correctly rounded multiply or divide: s is within
half an ulp (6e-11) of the exact scaled value.  Where s lies in [1e5, 1e6],
the mantissa is rint(s), six digits, unless s is within 1e-9 of a rounding
tie.  Each cell is then written as one 16-byte record, two
little-endian uint64 words, from tables indexed by the mantissa's 3-digit
halves and by (X, significant digits):

    word 0: sign slot, "0." and up to three zeros (X < 0 only), digits and
            the point, shifted past the prefix
    word 1: what the digits spill past word 0, "e+XX", and the separator
            (',' or the row's '\\n') in byte 15

with NUL bytes where nothing is printed; one bytes.translate drops them.

A cell the fast path cannot decide -- zero, subnormal, not finite, outside
1e-17 <= |v| < 1e28, near a rounding tie, or with s outside [1e5, 1e6]
where log10 is one off next to a power of ten -- is printed by "%.6g"
itself (see fallback).
"""

from __future__ import annotations

import numpy as np

# Exponents e of the fast path: 10^(5 - e) is an exact float64 for
# |5 - e| <= 22.  A mantissa that rounds up to 10^6 prints at e + 1.
_E_LO, _E_HI = 5 - 22, 5 + 22
_X_LO, _X_HI = _E_LO, _E_HI + 1

# 10^|5 - e| at index 27 - e, from the exact integers
_POW = np.array([float(10 ** abs(j - 22)) for j in range(_E_HI - _E_LO + 1)])

# The 6-digit mantissa m = 1000 hi + lo as ASCII digits:
# _DIGITS_HI[hi] | _DIGITS_LO[lo] holds its six digits in bytes 0-5 and, in
# byte 7, a count whose maximum over the two is the number of significant
# digits (lo = 0 counts 0)
_n = np.arange(1000, dtype=np.int64)
_ascii3 = (48 + _n // 100) | (48 + _n // 10 % 10) << 8 | (48 + _n % 10) << 16
_tz = (_n % 10 == 0).astype(np.int64) + (_n % 100 == 0) + (_n % 1000 == 0)
_DIGITS_HI = (_ascii3 | (3 - _tz) << 56).view(np.uint64)
_DIGITS_LO = (_ascii3 << 24 | np.where(_n > 0, 6 - _tz, 0) << 56).view(np.uint64)


def _ones(nbytes):
    """A mask of the low `nbytes` bytes (at most 7)."""
    return (np.int64(1) << 8 * nbytes) - 1


# The layout of a cell by key (X - _X_LO) * 8 + nd: X the exponent of the
# rounded value, nd its significant digits (1..6)
_x = np.arange(_X_LO, _X_HI + 1)[:, None]
_nd = np.arange(8)[None, :]
_fixed = (-4 <= _x) & (_x < 6)
_keep = np.where(_fixed & (_x >= 0), np.maximum(_nd, _x + 1), _nd)  # digits printed
# digits before the point; all of them when no point is printed
_lead = np.minimum(np.where(_fixed, np.where(_x >= 0, _x + 1, _keep), 1), _keep)
_pre = 1 + np.where(_fixed & (_x < 0), 1 - _x, 0)  # sign slot, "0." and zeros
_ax = np.abs(_x)
_sign = np.where(_x < 0, ord("-"), ord("+"))
_exp = ~_fixed * (ord("e") | _sign << 8 | (48 + _ax // 10) << 16 | (48 + _ax % 10) << 24)


def _table(grid):
    """An (X, nd) grid as a flat uint64 table by key."""
    return np.broadcast_to(grid, _keep.shape).astype(np.int64).ravel().view(np.uint64)


# body = (digits & _KLO) | _POINT | (digits & _KHI) << 8: the digits before
# the point, the point if any digit follows it, then the digits after it
_KLO = _table(_ones(_lead))
_KHI = _table(_ones(_keep) ^ _ones(_lead))
_POINT = _table((_keep > _lead) * (46 << 8 * _lead))
# word 0 = _PREFIX | body << _SHL, word 1 = body >> _SHR | _EXP | separator
_PREFIX = _table(int.from_bytes(b"\x000.000", "little") & _ones(_pre))
_SHL = _table(8 * _pre)
_SHR = _table(64 - 8 * _pre)
_EXP = _table(_exp)

_U8, _U56, _MINUS = np.uint64(8), np.uint64(56), np.uint64(ord("-"))


def fallback(values: list[float]) -> list[bytes]:
    """Python's own "%.6g" for the cells the fast path leaves."""
    return [b"%.6g" % v for v in values]


def csv_rows(cells: np.ndarray) -> str:
    """The rows of a 2-D float64 array as CSV lines, every cell as "%.6g".

    Byte for byte `"".join(",".join("%.6g" % v for v in row) + "\\n" for row in cells)`.
    """
    rows, cols = cells.shape
    v = cells.reshape(-1)
    a = np.abs(v)
    fast = (a >= 1e-17) & (a < 1e28)
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)), _E_LO, _E_HI)
    p = _POW[(_E_HI - e).astype(np.intp)]
    s = np.where(e > 5, a / p, a * p)
    # the 6-digit mantissa; one that rounds up to 10^6 prints as 10^5 at the
    # next exponent
    m = np.rint(s)
    fast &= (np.abs(s - m) < 0.5 - 1e-9) & (s >= 1e5) & (s <= 1e6)
    m[~fast] = 1e5
    carry = m == 1e6
    m[carry] = 1e5
    e[carry] += 1

    mi = m.astype(np.intp)
    hi = mi // 1000
    hl, ll = _DIGITS_HI[hi], _DIGITS_LO[mi - 1000 * hi]
    key = ((e - _X_LO) * 8).astype(np.intp) + (np.maximum(hl, ll) >> _U56).astype(np.intp)
    digits = hl | ll
    body = digits & _KLO[key] | _POINT[key] | (digits & _KHI[key]) << _U8
    sep = np.full(cols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    out = np.empty((rows, cols, 2), dtype=np.uint64)
    out[..., 0] = (_PREFIX[key] | body << _SHL[key] | np.signbit(v) * _MINUS).reshape(rows, cols)
    out[..., 1] = (body >> _SHR[key] | _EXP[key]).reshape(rows, cols) | sep << _U56

    # a fallback cell's text (at most 13 bytes) replaces bytes 0-14 of its record
    slow = np.flatnonzero(~fast)
    text = np.array(fallback(v[slow].tolist()), dtype="S15")
    out.reshape(-1, 2).view(np.uint8)[slow, :15] = text.view(np.uint8).reshape(-1, 15)
    return out.tobytes().translate(None, b"\0").decode("ascii")
