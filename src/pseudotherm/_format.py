"""CSV rows of float64 columns, each cell "%.17g" % v byte for byte, formatted over whole arrays.

`format_rows(label, columns)` returns what one "%" per row would, but takes
the digits from integer arithmetic over the arrays, after the exact
conversions of Steele & White (PLDI 1990) and Gay (AT&T 1990) that CPython's
dtoa implements:

- Band.  A value with 1e-4 <= |v| < 1e16 has the decimal exponent
  E = floor(log10 |v|) in [-4, 15] after rounding to 17 digits, so "%.17g"
  writes it in fixed notation: 16 - E fractional digits with their trailing
  zeros and a bare "." stripped, and "-" before a negative value.
- Rounding.  With |v| = M * 2**(e - 64), M the frexp mantissa scaled to
  64 bits, and k = 16 - E, the 17 digits are N = M * 5**k * 2**(e - 64 + k)
  rounded half to even.  M * 5**k is formed exactly in two uint64 words
  (5**k fits in one for k <= 27), shifted right by 64 - e - k, and rounded
  up when the bits shifted out exceed half, or equal it and N is odd.  E is
  estimated by `log10` and moved by one where N falls outside
  [10**16, 10**17).
- Delegate.  Zero, |v| < 1e-4 (subnormals among them), |v| >= 1e16, inf and
  nan are written into their own fields one by one with "%.17g" % v; the
  other values of the same array keep the kernel.

The rows are built a chunk at a time in a byte buffer where every field has
a fixed 40-byte slot, and a keep mask compresses the buffer to the text.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 512  # rows per buffer: memory stays flat whatever the column length
_HALF = np.uint64(1 << 63)
_POW5 = np.array([5**k for k in range(22)], np.uint64)  # k = 16 - E for E in [-5, 16]
_POW5_FLOAT = _POW5.astype(np.float64)  # exact: 5**21 < 2**53

# The four ASCII digits of 0..9999 as one uint32 each, the same with ",-0" in place of the three
# leading zeros (for 0..9) or with "." in place of the last digit, and the count of trailing zeros.
_d = np.empty((10,) * 4 + (4,), np.uint8)
for _i in range(4):
    _d[..., _i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _i))
_d = _d.reshape(10000, 4)
_QUADS = _d.view(np.uint32).ravel()
_LEADS, _POINTS = _d[:10].copy(), _d.copy()
_LEADS[:, :3], _POINTS[:, 3] = list(b",-0"), ord(".")
_LEADS, _POINTS = _LEADS.view(np.uint32).ravel(), _POINTS.view(np.uint32).ravel()
_ZEROS, _run = np.zeros(10000, np.int64), np.ones(10000, bool)
for _i in range(3, -1, -1):
    _run &= _d[:, _i] == 48
    _ZEROS += _run

# A field's slot is ten uint32 words: "," "-" "0" and the first of the 17 digits, digits 2 to 16
# and ".", then "000" and all 17 digits again.  The integer part is the head of the first copy
# and the fraction the tail of the second, so no byte moves.  _TABLES gives each word from the
# digit groups (the leading digit and four groups of four, twice); the bytes a field keeps
# depend only on E, the trailing zeros and the sign, in the _KEEP row ((E + 4) * 17 + zeros) * 2 + sign.
_TABLES = (_LEADS, _QUADS, _QUADS, _QUADS, _POINTS, _QUADS, _QUADS, _QUADS, _QUADS, _QUADS)
_b = np.arange(40)
_split = np.arange(-4, 16)[:, None, None, None] + 4  # digit bytes [3, split) are the integer part,
_stop = 20 - np.arange(17)[:, None, None]  # and [split, stop) of the second copy the fraction
_sign = np.arange(2)[:, None] == 1
_KEEP = ((_b == 0) | ((_b == 1) & _sign) | ((_b == 2) & (_split < 4)) | ((_b >= 3) & (_b < 19) & (_b < _split))
         | ((_b == 19) & (_split < _stop)) | ((_b - 20 >= _split) & (_b - 20 < _stop))).reshape(-1, 40)
del _d, _i, _run, _b, _split, _stop, _sign


def _digits(M: np.ndarray, Mf: np.ndarray, e: np.ndarray, E: np.ndarray) -> np.ndarray:
    """round_half_even(M * 2**(e - 64) * 10**(16 - E)) as uint64, for M = Mf < 2**64 and 16 - E in [0, 21].

    The low word of M * 5**k wraps in the uint64 product; the high word is
    the float product less the low word, which is within 2**61 of it, scaled
    by 2**-64 and rounded.
    """
    k = 16 - E
    lo = M * _POW5[k]
    hi = np.rint((Mf * _POW5_FLOAT[k] - lo) * 2.0**-64).astype(np.uint64)
    r = (64 - e - k).astype(np.uint64)  # in [9, 57] in the band
    u = 64 - r
    N = (lo >> r) | (hi << u)
    N += (lo << u) > _HALF - (N & 1)  # the bits shifted out: above half, or half and N odd
    return N


def _fields(x: np.ndarray):
    """(groups, keep rows, band) of the float64 array x: the leading digit and the four groups of four
    digits of each value, its row of _KEEP, and whether it is in the band."""
    a = np.abs(x)
    band = (a >= 1e-4) & (a < 1e16)
    a[~band] = 1.0
    m, e = np.frexp(a)
    Mf = m * 2.0**64
    M = Mf.astype(np.uint64)
    E = np.floor(np.log10(a)).astype(np.int64)
    N = _digits(M, Mf, e, E)
    off = (N < 10**16).astype(np.int64) - (N >= 10**17)
    moved = np.flatnonzero(off)  # log10 puts E at most one off, next to a power of ten
    if moved.size:
        E.flat[moved] -= off.flat[moved]
        N.flat[moved] = _digits(M.flat[moved], Mf.flat[moved], e.flat[moved], E.flat[moved])
    high, low = np.divmod(N.astype(np.int64), 10**8)
    high, g2 = np.divmod(high, 10**4)
    groups = (*np.divmod(high, 10**4), g2, *np.divmod(low, 10**4))
    zeros = np.take(_ZEROS, groups[4])
    more = np.flatnonzero(zeros == 4)  # a group of four zeros: count on in the group before
    for g in groups[3:0:-1]:
        z = np.take(_ZEROS, g.flat[more])
        zeros.flat[more] += z
        more = more[z == 4]
    return groups, ((E + 4) * 17 + zeros) * 2 + (x < 0), band


def format_rows(label: str, columns) -> str:
    """"label,%.17g,...,%.17g" % row for each row of the equal-length float64 columns, joined by newlines."""
    x = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    n, m = x.shape
    groups, keep_rows, band = _fields(x)
    outside = [] if band.all() else np.argwhere(~band).tolist()
    head = label.encode()
    lead = -len(head) % 4 + len(head)
    R = np.zeros((min(n, _CHUNK), lead + 40 * m + 4), np.uint8)  # reused chunk by chunk
    R[:, : len(head)], R[:, -4] = np.frombuffer(head, np.uint8), ord("\n")
    K = R != 0
    slots = R.view(np.uint32)[:, lead // 4:-1].reshape(len(R), m, 10)
    out = []
    for start in range(0, n, _CHUNK):
        g = [group[start:start + _CHUNK] for group in groups]
        p = len(g[0])
        for i, (table, group) in enumerate(zip(_TABLES, g + g)):
            slots[:p, :, i] = np.take(table, group)
        keep = K[:p, lead:-4].reshape(p, m, 40)
        np.take(_KEEP, keep_rows[start:start + p], axis=0, out=keep, mode="clip")
        for i, j in outside:
            if start <= i < start + p:
                text = b"%.17g" % x[i, j]
                R[i - start, lead + 40 * j + 1:][: len(text)] = np.frombuffer(text, np.uint8)
                keep[i - start, j, 1:] = False
                keep[i - start, j, 1:1 + len(text)] = True
        out.append(R[:p].ravel()[K[:p].ravel()])
    return str(np.concatenate(out)[:-1] if out else b"", "utf-8")
