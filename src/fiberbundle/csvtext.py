"""CSV files (:func:`write_csv`) and their number text: the ``float.__repr__``
text of each float64, by Ryu's shortest round-trip search (Adams, PLDI 2018)
on uint64 arrays, and the plain digits of each integer, one _CSV_BLOCK of
values at a time.  A value's text is built right-aligned in a 24-byte field
with NUL bytes left of it; a block's fields go side by side into one byte
matrix whose NULs are then deleted.  The command line imports this module on
its first CSV write, so the lookup tables below are built then, once.
"""

import numpy as np

_CSV_BLOCK = 1 << 13

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)
_TEN = _U64(10)
_FIELD = 24  # "-1.2345678901234567e-308" is the longest text


def _tables() -> tuple:
    """The formatter's lookup tables.  Ryu scales 4 * m2 * 2^e2, for a
    float64 with mantissa m2 and binary exponent e2, by a 125-bit power of 5
    and a shift into a 64-bit decimal interval.  Per biased exponent field
    (0-2047) the tables hold that power as four 32-bit limbs, the shift, the
    interval's decimal exponent, and what tells whether the scaled values
    are exact.
    """
    pow5 = [5 ** k for k in range(326)]
    # for e2 >= 0: 2^(bitlen(5^q) + 124) / 5^q, rounded up, for q < 292, each
    # from floor(2^k / 5^q) = floor(floor(2^k / 5^(q-1)) / 5)
    k = pow5[291].bit_length() + 124
    inv, quotient = [], 1 << k
    for p in pow5[:292]:
        inv.append((quotient >> (k - p.bit_length() - 124)) + 1)
        quotient //= 5
    # for e2 < 0: the top 125 bits of 5^i
    top = [p << (125 - p.bit_length()) for p in pow5[:54]]
    top += [p >> (p.bit_length() - 125) for p in pow5[54:]]
    data = b"".join(v.to_bytes(16, "little") for v in inv + top)
    limbs, halves = np.frombuffer(data, "<u4"), np.frombuffer(data, "<u8")
    biased = np.arange(2048)  # an exponent field
    e2 = np.maximum(biased, 1) - 1077  # the exponent of 4 * m2
    pos = e2 >= 0
    q = np.maximum(np.where(pos, e2 * 78913 >> 18, -e2 * 732923 >> 20) - 1, 0)
    i = np.where(pos, 0, -e2 - q)
    row = np.where(pos, q, len(inv) + i)
    # the value's binary point shifted by 65 past what the multiply leaves;
    # (k * 1217359 >> 19) + 1 is the bit length of 5^k
    shift = np.where(pos, q - e2 + (q * 1217359 >> 19) + 125, q - (i * 1217359 >> 19) + 124) - 65
    # for e2 < 0 and q < 63 the scaled 4 * m2 is exact when 2^q divides it
    tzmask = np.where(q <= 1, _U64(0), (_U64(1) << np.minimum(q, 63).astype(_U64)) - _U64(1))
    tzmask[pos | (q >= 63)] = ~_U64(0)
    # "00".."99" as 16-bit pairs of ASCII digits, then "0000".."9999"
    pairs = (np.arange(100) // 10 + 48) | (np.arange(100) % 10 + 48) << 8
    return (
        [limbs[k::4].astype(_U64)[row] for k in range(4)],
        halves[0::2].astype(_U64)[row],
        halves[1::2].astype(_U64)[row],
        np.where(biased > 0, _U64(1 << 52), _U64(0)),
        shift.astype(_U64),
        np.where(pos, q, -i),
        tzmask,
        # 1: e2 < 0 and q <= 1; 2: e2 >= 0 and q <= 21; both get the exactness tests
        np.where(pos, 2 * (q <= 21), q <= 1).astype(np.int8),
        np.array(pow5[:22], dtype=_U64),
        (pairs[:, None] | pairs << 16).ravel().astype(_U64),
        np.array([10 ** k for k in range(20)], dtype=_U64),
        # 9 * 10^k, but 0 for k = 0: what puts a 0 digit k places from the end
        np.array([0] + [9 * 10 ** k for k in range(1, 18)], dtype=_U64),
        # by the exponent field of float(v): v's decimal digit count, or one less
        np.maximum(biased - 1022, 0) * 1233 >> 12,
        np.array([0] + [10 ** k for k in range(1, 20)], dtype=_U64),
        # keep[w][c]: the bytes of word w of a field at or right of column c
        [np.array([2 ** 64 - (1 << 8 * min(max(c - 8 * w, 0), 8))
                   for c in range(_FIELD + 1)], dtype=_U64) for w in range(3)],
    )


(_LIMBS, _MUL_LO, _MUL_HI, _HIDDEN, _SHIFT, _E10, _TZMASK, _EXACT, _POW5, _LUT, _POW10,
 _NINE, _LOG10, _DIGITS_AT, _KEEP) = _tables()


def _product(m, limbs):
    """m * l as 64-bit words (lo, mid, hi), for m < 2^55 and a 126-bit l in
    32-bit limbs."""
    l0, l1, l2, l3 = limbs
    a0 = m & _M32
    a1 = m >> _S32
    p00 = a0 * l0
    p01 = a0 * l1
    p02 = a0 * l2
    acc = p00 >> _S32
    acc += p01 & _M32
    acc += a1 * l0
    lo = p00 & _M32
    lo |= acc << _S32
    acc >>= _S32
    acc += p01 >> _S32
    acc += p02 & _M32
    acc += a1 * l1
    mid = acc & _M32
    acc >>= _S32
    acc += p02 >> _S32
    acc += a0 * l3
    acc += a1 * l2
    mid |= acc << _S32
    acc >>= _S32
    acc += a1 * l3
    return lo, mid, acc


def _shift_right(mid, hi, s, s_comp):
    """The low 64 bits of (hi:mid) >> s, for 0 < s < 64 and s_comp = 64 - s."""
    out = mid >> s
    out |= hi << s_comp
    return out


def _n_digits(v):
    """The decimal digit count of each uint64; 1 for zero."""
    t = _LOG10[v.astype(np.float64).view(_U64) >> _U64(52)]
    return t + (v >= _DIGITS_AT[t])


def _shortest(bits):
    """Ryu's search on float64 bit patterns: the fewest decimal digits that
    read back as the value, the nearest such (ties to even), and the decimal
    exponent of their last digit.

    The digits have no trailing zero.  For zero, infinities and NaN the pair
    is meaningless but computed without error.
    """
    e = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    mant = bits & _U64((1 << 52) - 1)
    mv = (mant | _HIDDEN[e]) << _U64(2)
    limbs = [limb[e] for limb in _LIMBS]
    s = _SHIFT[e]
    s_comp = _U64(64) - s
    # 2 * m2 times the power of 5 once; then the value and the midpoints to
    # its neighbours, (4 * m2 + {0, 2, -2}) * 5^k / 2^j, by adding or taking
    # off one multiplier before the shift
    lo, mid, hi = _product(mv >> _U64(1), limbs)
    vr = _shift_right(mid, hi, s, s_comp)
    add_lo, add_mid = _MUL_LO[e], _MUL_HI[e]
    lo2 = lo + add_lo
    mid2 = mid + add_mid + (lo2 < lo)
    vp = _shift_right(mid2, hi + (mid2 < mid), s, s_comp)
    lo2 = lo - add_lo
    mid2 = mid - add_mid - (lo2 > lo)
    vm = _shift_right(mid2, hi - (mid2 > mid), s, s_comp)
    # at a power of two the lower neighbour is half as far: (4 * m2 - 1) * 5^k / 2^j
    mm = mv - _U64(2)
    rows = np.flatnonzero((mant == 0) & (e > 1))
    if rows.size:
        mm[rows] += _U64(1)
        _, mid2, hi2 = _product(mm[rows], [limb[rows] for limb in limbs])
        vm[rows] = _shift_right(mid2, hi2, s[rows] + _U64(1), s_comp[rows] - _U64(1))
    # From 2^51 to 2^126 (Ryu's q <= 1 below 2^54, q <= 21 above) the scaled
    # bounds can be exact decimals: an even mantissa's lower bound may then be
    # taken (vm_tz) and an odd mantissa's upper bound may not.
    vm_tz = np.zeros(bits.shape, bool)
    rows = np.flatnonzero(_EXACT[e])
    if rows.size:
        even = (mant[rows] & _U64(1)) == 0
        mvs, mms = mv[rows], mm[rows]
        p5 = _POW5[np.maximum(_E10[e[rows]], 0)]
        by5 = mvs % _U64(5) == 0
        below = _EXACT[e[rows]] == 1
        vm_tz[rows] = even & np.where(below, mms == mvs - _U64(2), ~by5 & (mms % p5 == 0))
        vp[rows] -= (~even & (below | (~by5 & ((mvs + _U64(2)) % p5 == 0)))).astype(_U64)
    # Dropping t - 1 digits leaves a decimal in (vm, vp], for 10^(t-1) <= vp - vm
    # < 10^t; dropping t may too, and past that only the zeros of that decimal.
    t = np.minimum(_n_digits(vp - vm), 18)  # only a zero's bounds are wider
    unit = _POW10[t]
    up = vp // unit
    more = up > vm // unit
    r = t - 1 + more
    rows = np.flatnonzero(more & (up % _TEN == 0))
    while rows.size:
        r[rows] += 1
        up[rows] //= _TEN
        rows = rows[up[rows] % _TEN == 0]
    unit = _POW10[r]
    vr_r = vr // unit
    vm_r = vm // unit
    # an exact lower bound that may be taken drops its own trailing zeros too
    rows = np.flatnonzero(vm_tz)
    vm_tz[rows] = vm[rows] == vm_r[rows] * unit[rows]
    rows = rows[vm_tz[rows]]
    while rows.size:
        rows = rows[vm_r[rows] % _TEN == 0]
        r[rows] += 1
        unit[rows] *= _TEN
        vr_r[rows] = vr[rows] // unit[rows]
        vm_r[rows] //= _TEN
    # round the kept digits to nearest, and up where they fell below the bound
    rem = vr - vr_r * unit
    half = unit - rem
    bump = (vr_r == vm_r) | (rem >= half)
    rows = np.flatnonzero((rem == half) | vm_tz)
    if rows.size:
        # An exact midpoint rounds to even, and an exact lower bound may stay.
        # Above 2^54 a midpoint is never exact: its power of 2 would outgrow
        # the interval.
        exact = (mv[rows] & _TZMASK[e[rows]]) == 0
        tie = exact & (rem[rows] == half[rows]) & ((vr_r[rows] & _U64(1)) == 0)
        bump[rows] = (((vr_r[rows] == vm_r[rows]) & ~vm_tz[rows])
                      | ((rem[rows] >= half[rows]) & ~tie))
    vr_r += bump
    return vr_r, _E10[e] + r


_ZERO4 = np.frombuffer(b"0000", np.uint32)[0]
# "inf" and "nan" in the last three bytes of a field's last word
_INF_WORD, _NAN_WORD = (_U64(int.from_bytes(name, "little") << 40) for name in (b"inf", b"nan"))


def _digit_field(v, width, head=None):
    """The digits of v zero-padded to width places, right-aligned in fields
    with NUL left of them, and with '.' after the first head places where
    head < width.  Returns the fields as 64-bit words and each text's first
    column."""
    if head is not None:  # a 0 digit goes in at the point, then turns into '.'
        tail = width - head
        dot = np.flatnonzero(tail)
        short = np.minimum(tail, 17)  # past 17 places v has no digits to move
        v = v + v // _POW10[short] * _NINE[short]
        width = width + (tail > 0)
    hi = v // _POW10[8]
    lo = v - hi * _POW10[8]
    top = hi // _POW10[8]
    hi -= top * _POW10[8]
    first = _FIELD - width
    words = np.empty((v.size, 3), "<u8")  # little-endian: the bytes in reading order
    keep = [mask[first] for mask in _KEEP]
    words[:, 0] = ((_LUT[top] << _S32) | _ZERO4) & keep[0]
    for k, g in ((1, hi), (2, lo)):
        g4 = g // _POW10[4]
        words[:, k] = ((_LUT[g - g4 * _POW10[4]] << _S32) | _LUT[g4]) & keep[k]
    if head is not None:
        words.view(np.uint8)[dot, _FIELD - 1 - tail[dot]] = ord(".")
    return words, first


def _float_text(x):
    """``float.__repr__`` of each float64 but its sign: right-aligned fields,
    each text's first column, and where a '-' goes before it."""
    bits = x.view(_U64)
    digits, exp10 = _shortest(bits)
    zero = np.flatnonzero((bits << _U64(1)) == 0)
    digits[zero] = 0
    exp10[zero] = 0
    n = _n_digits(digits)
    point = exp10 + n  # the value is 0.DIGITS * 10^point
    # Plain notation: the digits padded with zeros to point + 1 places, or
    # led by 1 - point zeros, with '.' after max(point, 1) places.
    pad = np.clip(exp10 + 1, 0, 17)
    v = digits * _POW10[pad]
    width = n + pad + np.maximum(1 - point, 0)
    head = np.maximum(point, 1)
    sci = np.flatnonzero((point < -3) | (point > 16))
    if sci.size:  # D.DDDDe+XX: '.' after the first digit unless it is the only one
        v[sci] = digits[sci]
        width[sci] = n[sci]
        head[sci] = 1
    words, first = _digit_field(v, width, head)
    if sci.size:  # shift the text left over the exponent: 'e', sign, 2 or 3 digits
        e = point[sci] - 1
        places = 2 + (np.abs(e) >= 100)
        suffix = np.where(e < 0, ord("e") | ord("-") << 8, ord("e") | ord("+") << 8).astype(_U64)
        suffix |= _LUT[np.abs(e)] >> (32 - 8 * places).astype(_U64) << _U64(16)
        sh = (16 + 8 * places).astype(_U64)
        back = _U64(64) - sh
        w0, w1, w2 = words[sci].T
        words[sci, 0] = (w0 >> sh) | (w1 << back)
        words[sci, 1] = (w1 >> sh) | (w2 << back)
        words[sci, 2] = (w2 >> sh) | (suffix << back)
        first[sci] -= 2 + places
    neg = bits >> _U64(63) != 0
    rows = np.flatnonzero(bits << _U64(1) >= _U64(0x7FF << 53))  # all exponent bits set
    if rows.size:
        nan = np.isnan(x[rows])
        words[rows] = 0
        words[rows, 2] = np.where(nan, _NAN_WORD, _INF_WORD)
        first[rows] = _FIELD - 3
        neg[rows] &= ~nan
    return words, first, neg


def _int_text(x):
    """The plain digits of each integer: right-aligned fields, each text's
    first column, and where a '-' goes before it."""
    if x.dtype.kind == "u":
        mag, neg = x.astype(_U64), np.zeros(x.shape, bool)
    else:
        x = x.astype(np.int64)
        neg = x < 0
        mag = x.view(_U64).copy()
        mag[neg] = _U64(0) - mag[neg]
    words, first = _digit_field(mag, _n_digits(mag))
    return words, first, neg


def _csv_rows(columns) -> bytes:
    """The CSV text of one block of rows; all its float columns are formatted
    in one call."""
    size = len(columns[0])
    fields = [None] * len(columns)
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    if floats:
        text = _float_text(np.concatenate(
            [columns[i].astype(np.float64, copy=False) for i in floats]))
        for k, i in enumerate(floats):
            fields[i] = [part[k * size:(k + 1) * size] for part in text]
    for i, c in enumerate(columns):
        if c.dtype.kind in "iu":
            fields[i] = _int_text(c)
        elif c.dtype.kind != "f":
            raise TypeError(f"no CSV text for dtype {c.dtype}")
    widths = [_FIELD - int(first.min()) for _, first, _ in fields]
    # each column: its sign byte, its text, then ',' (the last '\n')
    rows = np.empty((size, sum(widths) + 2 * len(widths)), np.uint8)
    at = 0
    for (words, _, neg), width in zip(fields, widths):
        rows[:, at] = neg.view(np.uint8) * np.uint8(ord("-"))
        rows[:, at + 1:at + 1 + width] = words.view(np.uint8)[:, _FIELD - width:]
        at += width + 2
        rows[:, at - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def write_csv(path, header: list[str], blocks) -> None:
    """Write a header line, then the rows of each tuple of equal-length 1-d
    columns that ``blocks`` yields (whole columns are one tuple), at most
    _CSV_BLOCK floats at a time, so memory stays flat however long they run."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            cols = [np.asarray(c) for c in block]
            step = _CSV_BLOCK // max(1, sum(c.dtype.kind == "f" for c in cols))
            for lo in range(0, len(cols[0]), step):
                fh.write(_csv_rows([c[lo:lo + step] for c in cols]))
