"""Shortest round-trip text of many doubles at once, byte-equal to ``repr``.

``shortest(values, out)`` writes ``repr(v).encode()`` of each value into its
row of ``out``, a ``uint8`` table of at least 24 columns, the rest of the
row's first 24 bytes NUL; no ``repr`` holds a NUL, so dropping them joins a
table's texts.  It is computed in one numpy pass over the array instead of
one ``repr`` call a value, with no Python object for any value.  Python's
``repr`` of a float is the shortest decimal string that reads back to the
same double; among the shortest strings it is the one nearest the value
(Steele & White 1990; Gay's ``dtoa``, mode 0).  The pass finds that string
with exact integer arithmetic on a scaled copy of each value:

* Scale.  A finite, normal, nonzero |x| = m * 2**e (``frexp``, m in
  [1/2, 1)) is multiplied by 10**k, k = 16 - floor((e - 1) * log10(2)), so
  that y = |x| * 10**k lies in [1e16, 2e17).  10**k is held as a pair of
  doubles (hi, lo) whose sum is exact to about 2**-106, and the product as
  Dekker's TwoProduct of |x| and hi plus |x| * lo: y = p + c, with p an
  integer-valued double (every double above 2**53 is an integer) and c a
  small correction, with an error below 1e-13.
* Interval.  Every real within ulp/2 of x reads back as x (within ulp/4
  below a power of two), so the scaled interval is (L, H) = (y - w_lo,
  y + w) with w = ulp/2 * 10**k, between about 0.55 and 22.
* Digits.  The decimal strings of x are, scaled by 10**k, the integers in
  the interval; the shortest is a multiple of the largest power 10**d with
  a multiple inside, and of those multiples it is the one nearest y (Gay's
  digit loop stops at the first place where the truncated or the rounded-up
  digits lie inside, and takes the nearer).  Seventeen significant digits
  always suffice, so d >= 0, and the search runs on ``int64`` floors.
* Text.  The digits and the decimal point's place give Python's ``'r'``
  layout: exponent form when the point lies 4 or more places before the
  first digit or more than 16 places after it, else fixed, with ``.0``
  after a whole number.  The bytes of the values are gathered ``_GATHER``
  values at a time, each from a source row of its digits, signs and
  exponent through a table of layouts keyed by (layout, digit count, sign);
  a layout ends in NULs.

The arithmetic is exact except where a real is compared with an integer:
the bounds L and H (a multiple of 10**d exactly on a bound reads back as x
only if x's significand is even) and a rounding tie between the two
nearest multiples.  A value whose L or H lies within ``_TOL`` of an
integer, or whose y lies within it of a tie that decides the result, is
flagged, as are 0.0, -0.0, inf, nan, subnormals and values outside the
table of 10**k.  ``shortest`` formats the flagged values with ``repr``.
``_TOL`` is 1e-7, a million times the error of y, so every comparison made
for an unflagged value comes out as in exact arithmetic.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["shortest"]

# frexp exponents whose values the pass formats: |x| in [2**-129, 2**128),
# about [1.5e-39, 3.4e38], so a decimal exponent has two digits; the rest go
# to repr
_E_MIN, _E_MAX = -128, 128
_TOL = 1e-7
_LOG10_2 = 0.30102999566398120

# A value's source row, seven 4-byte words: "000" and the first digit, the
# other 16 digits, then "-.e0", and the exponent's sign, its two digits and
# a NUL that pads the gathered text.
_ZERO, _DIGIT, _MINUS, _POINT, _E, _EXP_SIGN, _EXP, _NUL = 0, 3, 20, 21, 22, 24, 25, 27
_WORDS = 7
# a row: the longest repr, "-1.3498094062947883e-308" (a fallback); the pass's
# longest, "-1.2345678901234567e-39" or "-0.00012345678901234567", has 23 bytes
_WIDTH = 24
_POINTS = np.arange(-3, 17)  # fixed layout: the point's place after the first digit
_DIGITS = np.arange(1, 18)
_EXP_KEYS = _POINTS.size * 17  # fixed keys by (point, digits), then exponent keys by digits
_SIGNED = _EXP_KEYS + 17  # then the same layouts behind a minus sign
# values whose text bytes are gathered at a time (see ``shortest``)
_GATHER = 1024


def _split(a):
    """Dekker's split of doubles into halves of 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _layouts() -> np.ndarray:
    """The gather indices into the source row, one row of ``_WIDTH`` a key;
    j is the place in the text."""
    j = np.arange(_WIDTH - 1)
    point, nd = _POINTS[:, None, None], _DIGITS[None, :, None]
    whole = np.where(j < point, _DIGIT + j, np.where(j == point, _POINT, _DIGIT - 1 + j))
    fraction = np.where(j == 1, _POINT, np.where(j < 2 - point, _ZERO, _DIGIT - 2 + point + j))
    # a whole part ends in the digits (padded with "0"s) and at least one
    # digit after the point; a fraction is "0." and -point zeros, then the digits
    end = np.where(point >= 1, np.maximum(nd, point + 1) + 1, 2 - point + nd)
    fixed = np.where(j < end, np.where(point >= 1, whole, fraction), _NUL)
    nd = _DIGITS[:, None]
    mantissa = np.where(nd == 1, 1, nd + 1)  # "d" or "d.ddd"
    tail = np.array([_E, _EXP_SIGN, _EXP, _EXP + 1, _NUL])[np.clip(j - mantissa, 0, 4)]
    exponent = np.where(j == 0, _DIGIT,
                        np.where(j < mantissa, np.where(j == 1, _POINT, _DIGIT - 1 + j), tail))
    layouts = np.full((2 * _SIGNED, _WIDTH), _NUL, np.int16)
    layouts[:_EXP_KEYS, :-1] = fixed.reshape(-1, _WIDTH - 1)
    layouts[_EXP_KEYS:_SIGNED, :-1] = exponent
    layouts[_SIGNED:, 0] = _MINUS
    layouts[_SIGNED:, 1:] = layouts[:_SIGNED, :-1]
    return layouts


@functools.cache
def _tables() -> dict:
    """The read-only tables, built on first use: per formatted exponent e,
    k and 10**k's split hi, its lo and w = ulp/2 * 10**k (from hi alone:
    10**k's lo is far below the tolerance there); the powers of ten; the
    ASCII words of the 4-digit groups and of the exponents -99..99; the
    layouts."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    k = 16 - np.floor((e - 1) * _LOG10_2).astype(np.int64)
    hi, lo = [], []
    for p in range(k.min(), k.max() + 1):
        if p >= 0:
            ten = 10 ** p
            hi.append(float(ten))
            lo.append(float(ten - int(hi[-1])))
        else:
            ten = 10 ** -p
            hi.append(1 / ten)  # int / int rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * ten) / (den * ten))  # 1/ten - hi, rounded
    hi, lo = np.array(hi)[k - k.min()], np.array(lo)[k - k.min()]
    # ASCII as little-endian uint32 words: the groups "0000".."9999" and the
    # exponents "-99\0".."+99\0"
    digit = np.arange(10, dtype="<u4")
    groups = (0x30303030 + digit[:, None, None, None] + (digit[:, None, None] << 8)
              + (digit[:, None] << 16) + (digit << 24)).ravel()
    exp = np.arange(-99, 100)
    sign = np.where(exp < 0, ord("-"), ord("+")).astype("<u4")
    exps = (groups[abs(exp)] >> 8) - ord("0") + sign  # "00dd" shifted to "0dd\0", then signed
    tables = {
        "k": k, "hi": hi, "hi_split": _split(hi), "lo": lo, "w": np.ldexp(hi, e - 54),
        "pow10": 10 ** np.arange(18, dtype=np.int64),
        "groups": groups, "exps": exps,
        "marks": np.frombuffer(b"-.e0", "<u4")[0],
        "layouts": _layouts(),
    }
    for t in (*tables.values(), *tables["hi_split"]):
        if isinstance(t, np.ndarray):
            t.flags.writeable = False
    return tables


def _near_integer(frac):
    return (frac < _TOL) | (frac > 1.0 - _TOL)


def shortest(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``repr(v).encode()`` of each of ``values`` (float64, one
    dimension) into its row of ``out``, a ``uint8`` array of one row a value
    and at least ``_WIDTH`` = 24 columns, NUL-padded through column 23;
    columns past that are left as they are.  Return the mask of the values
    that went to ``repr`` itself (see the module docstring).

    Each temporary is dropped after its last use, or updated in place, to
    keep few arrays alive at once.  Everything before the gather is one pass
    over all the values, about 100 bytes a value; the gather's index, 192
    bytes a value, is the largest array, so it is built for ``_GATHER`` =
    1,024 values at a time, and the peak stays near 100 bytes a value plus
    about 200 KB however many values a call takes."""
    t = _tables()
    x = np.asarray(values, np.float64)
    a = np.abs(x)
    mant, e = np.frexp(a)
    todo = np.isfinite(a) & (a > 0) & (e >= _E_MIN) & (e <= _E_MAX)  # no subnormal is in range
    a[~todo] = 1.0
    e[~todo] = 1
    row = (e - _E_MIN).astype(np.intp)
    del e
    k = np.take(t["k"], row)

    # y = a * 10**k = p + c: TwoProduct(a, hi) plus a * lo
    p = a * np.take(t["hi"], row)
    ah, al = _split(a)
    bh, bl = (np.take(half, row) for half in t["hi_split"])
    c = ah * bh - p
    c += ah * bl
    c += al * bh
    c += al * bl
    c += a * np.take(t["lo"], row)
    del a, ah, al, bh, bl
    y_int = np.floor(c)
    y_frac = np.subtract(c, y_int, out=c)
    y_int = p.astype(np.int64) + y_int.astype(np.int64)
    del p

    # the interval (L, H) about y, as integer floors and fractions
    w = np.take(t["w"], row)
    lower = y_frac - np.where(mant == 0.5, 0.5 * w, w)  # below a power of two: ulp/4
    upper = np.add(y_frac, w, out=w)
    del mant, row
    l_floor, h_floor = np.floor(lower), np.floor(upper)
    fallback = ~todo | _near_integer(lower - l_floor) | _near_integer(upper - h_floor)
    low = y_int + l_floor.astype(np.int64)
    high = y_int + h_floor.astype(np.int64)
    del todo, lower, upper, l_floor, h_floor

    # d: the largest power of ten with a multiple in (L, H), whose integers
    # are low + 1..high (L and H are no integers here): the largest d with
    # high mod 10**d < high - low.  That difference is below 100, so past
    # d = 2 the multiple is high - high mod 100 and d counts its zeros.
    gap = high - low
    d = (high % 10 < gap).astype(np.int64)
    past = high % 100 < gap
    d += past
    past = np.flatnonzero(past)
    rest = high[past] // 100
    zeros = np.zeros(past.size, np.int64)
    for n in (8, 4, 2, 1):  # rest < 2e15 + 1 has at most 15 trailing zeros
        ok = rest % 10 ** n == 0
        rest = np.where(ok, rest // 10 ** n, rest)
        zeros += n * ok
    d[past] += zeros
    del gap, past, rest, zeros, ok

    # the multiple nearest y: round y / P, comparing 2 (y mod P) with P,
    # the integer part of twice y's fraction moved to the integer side
    step = np.take(t["pow10"], d)
    q = y_int // step
    rem2 = 2 * (y_int - q * step)
    y_frac *= 2
    floor = np.floor(y_frac)
    rem2 += floor.astype(np.int64)
    rem2 -= step
    y_frac -= floor
    tie = ((rem2 == 0) & (y_frac < _TOL)) | ((rem2 == -1) & (y_frac > 1.0 - _TOL))
    up = rem2 >= 0
    del rem2, y_frac, floor
    q_low = low // step + 1
    q_high = high // step
    del low, high, step
    fallback |= tie & (q >= q_low) & (q < q_high)
    q += up
    np.clip(q, q_low, q_high, out=q)
    del tie, up, q_low, q_high

    # q has 17 + (y >= 1e17) - d digits: rounding up cannot carry into one
    # more, for q would then be a multiple of ten, but for 1e17 from below
    nd = np.maximum(17 + (y_int >= 10 ** 17) - d, 1)
    point = nd + d - k  # the value is 0.DIGITS * 10**point
    del y_int, d, k

    # the digits, left-aligned in 17 places, in groups of 1, 4, 4, 4 and 4
    q *= np.take(t["pow10"], 17 - nd)
    head = q // 10 ** 8  # the first nine digits; q keeps the last eight
    q -= head * 10 ** 8
    src = np.empty((x.size, _WORDS), "<u4")
    groups = t["groups"]
    src[:, 0] = np.take(groups, head // 10 ** 8)
    src[:, 1] = np.take(groups, head // 10 ** 4 % 10 ** 4)
    src[:, 2] = np.take(groups, head % 10 ** 4)
    src[:, 3] = np.take(groups, q // 10 ** 4)
    src[:, 4] = np.take(groups, q % 10 ** 4)
    src[:, 5] = t["marks"]
    src[:, 6] = np.take(t["exps"], point + 98)  # the exponent point - 1, from -99
    del q, head

    key = np.where((point > -4) & (point <= 16), (point - _POINTS[0]) * 17, _EXP_KEYS)
    key += nd - 1
    key += np.signbit(x) * _SIGNED
    del point, nd
    # each row's bytes: its layout's places in its own source row, gathered
    # _GATHER rows at a time, as the index takes 192 bytes a value
    src = src.view(np.uint8)
    offsets = np.arange(0, x.size * 4 * _WORDS, 4 * _WORDS)[:, None]
    for i in range(0, x.size, _GATHER):
        rows = slice(i, i + _GATHER)
        index = np.take(t["layouts"], key[rows], axis=0).astype(np.intp)
        index += offsets[rows]
        out[rows, :_WIDTH] = np.take(src, index)
        del index
    del key, offsets, src
    for i in np.flatnonzero(fallback).tolist():
        text = repr(float(x[i])).encode()
        out[i, :_WIDTH] = np.frombuffer(text.ljust(_WIDTH, b"\0"), np.uint8)
    return fallback
