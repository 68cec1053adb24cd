"""Command-line front end: seeded simulation runs and plot-ready CSV/JSON.

Commands: simulate, gibbs, analyze, cycles, density.  Each command takes only
its own options (its row of _COMMANDS), and each density kind only those it
reads (_KIND_READS), as flags or as keys of a key=value config file
(--config); explicit flags win.  Every output directory receives a
manifest.json echoing the command's resolved options.

Exit codes: 0 success, 2 usage/configuration, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from itertools import accumulate, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .distributions import FAMILIES, StrengthModel

if TYPE_CHECKING:
    from .cascade import StructureFunction

# Each command imports the numerical modules it runs when it runs, so a run
# compiles and loads only those (see "Start-up" in README).


class InputFormatError(OSError):
    """Malformed input file content."""


_CSV_BLOCK = 1 << 13

# CSV numbers: Ryu's shortest round-trip search (Adams, PLDI 2018) on uint64
# arrays, one _CSV_BLOCK of rows at a time.  A value's text is built right-
# aligned in a 24-byte field with NUL bytes left of it; a block's fields go
# side by side into one byte matrix whose NULs are then deleted.
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)
_TEN = _U64(10)
_FIELD = 24  # "-1.2345678901234567e-308" is the longest text


@functools.cache
def _text_tables() -> dict:
    """The formatter's lookup tables, built on its first call.

    Ryu scales 4 * m2 * 2^e2, for a float64 with mantissa m2 and binary
    exponent e2, by a 125-bit power of 5 and a shift into a 64-bit decimal
    interval.  Per biased exponent field (0-2047) the tables hold that power
    as four 32-bit limbs, the shift, the interval's decimal exponent, and
    what tells whether the scaled values are exact.
    """
    pow5 = list(accumulate(repeat(5, 325), operator.mul, initial=1))
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
    data = b"".join(map(int.to_bytes, inv + top, repeat(16), repeat("little")))
    limbs, halves = np.frombuffer(data, "<u4"), np.frombuffer(data, "<u8")
    biased = np.arange(2048)  # an exponent field
    e2 = np.maximum(biased, 1) - 1077  # the exponent of 4 * m2
    pos = e2 >= 0
    q = np.maximum(np.where(pos, e2 * 78913 >> 18, -e2 * 732923 >> 20) - 1, 0)
    i = np.where(pos, 0, -e2 - q)
    row = np.where(pos, q, len(inv) + i)

    def bitlen5(k):  # bit length of 5^k
        return (k * 1217359 >> 19) + 1

    # the value's binary point shifted by 65 past what the multiply leaves
    shift = np.where(pos, q - e2 + bitlen5(q) + 124, q - bitlen5(i) + 125) - 65
    # for e2 < 0 and q < 63 the scaled 4 * m2 is exact when 2^q divides it
    tzmask = np.where(q <= 1, _U64(0), (_U64(1) << np.minimum(q, 63).astype(_U64)) - _U64(1))
    tzmask[pos | (q >= 63)] = ~_U64(0)
    # "00".."99" as 16-bit pairs of ASCII digits, then "0000".."9999"
    pairs = (np.arange(100) // 10 + 48) | (np.arange(100) % 10 + 48) << 8
    return {
        "limbs": [limbs[k::4].astype(_U64)[row] for k in range(4)],
        "mul_lo": halves[0::2].astype(_U64)[row],
        "mul_hi": halves[1::2].astype(_U64)[row],
        "hidden": np.where(biased > 0, _U64(1 << 52), _U64(0)),
        "shift": shift.astype(_U64),
        "e10": np.where(pos, q, -i),
        "tzmask": tzmask,
        # 1: e2 < 0 and q <= 1; 2: e2 >= 0 and q <= 21; both get the exactness tests
        "exact": np.where(pos, 2 * (q <= 21), q <= 1).astype(np.int8),
        "pow5": np.array(pow5[:22], dtype=_U64),
        "lut": (pairs[:, None] | pairs << 16).ravel().astype(_U64),
        "pow10": np.array([10 ** k for k in range(20)], dtype=_U64),
        # 9 * 10^k, but 0 for k = 0: what puts a 0 digit k places from the end
        "nine": np.array([0] + [9 * 10 ** k for k in range(1, 18)], dtype=_U64),
        # by the exponent field of float(v): v's decimal digit count, or one less
        "log10": np.maximum(biased - 1022, 0) * 1233 >> 12,
        "digits_at": np.array([0] + [10 ** k for k in range(1, 20)], dtype=_U64),
        # keep[w][c]: the bytes of word w of a field at or right of column c
        "keep": [np.array([2 ** 64 - (1 << 8 * min(max(c - 8 * w, 0), 8))
                           for c in range(_FIELD + 1)], dtype=_U64) for w in range(3)],
    }


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


def _n_digits(v, tb):
    """The decimal digit count of each uint64; 1 for zero."""
    t = tb["log10"][v.astype(np.float64).view(_U64) >> _U64(52)]
    return t + (v >= tb["digits_at"][t])


def _shortest(bits, tb):
    """Ryu's search on float64 bit patterns: the fewest decimal digits that
    read back as the value, the nearest such (ties to even), and the decimal
    exponent of their last digit.

    The digits have no trailing zero.  For zero, infinities and NaN the pair
    is meaningless but computed without error.
    """
    e = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    mant = bits & _U64((1 << 52) - 1)
    mv = (mant | tb["hidden"][e]) << _U64(2)
    limbs = [limb[e] for limb in tb["limbs"]]
    s = tb["shift"][e]
    s_comp = _U64(64) - s
    # 2 * m2 times the power of 5 once; then the value and the midpoints to
    # its neighbours, (4 * m2 + {0, 2, -2}) * 5^k / 2^j, by adding or taking
    # off one multiplier before the shift
    lo, mid, hi = _product(mv >> _U64(1), limbs)
    vr = _shift_right(mid, hi, s, s_comp)
    add_lo, add_mid = tb["mul_lo"][e], tb["mul_hi"][e]
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
    rows = np.flatnonzero(tb["exact"][e])
    if rows.size:
        even = (mant[rows] & _U64(1)) == 0
        mvs, mms = mv[rows], mm[rows]
        p5 = tb["pow5"][np.maximum(tb["e10"][e[rows]], 0)]
        by5 = mvs % _U64(5) == 0
        below = tb["exact"][e[rows]] == 1
        vm_tz[rows] = even & np.where(below, mms == mvs - _U64(2), ~by5 & (mms % p5 == 0))
        vp[rows] -= (~even & (below | (~by5 & ((mvs + _U64(2)) % p5 == 0)))).astype(_U64)
    # Dropping t - 1 digits leaves a decimal in (vm, vp], for 10^(t-1) <= vp - vm
    # < 10^t; dropping t may too, and past that only the zeros of that decimal.
    pow10 = tb["pow10"]
    t = np.minimum(_n_digits(vp - vm, tb), 18)  # only a zero's bounds are wider
    unit = pow10[t]
    up = vp // unit
    more = up > vm // unit
    r = t - 1 + more
    rows = np.flatnonzero(more & (up % _TEN == 0))
    while rows.size:
        r[rows] += 1
        up[rows] //= _TEN
        rows = rows[up[rows] % _TEN == 0]
    unit = pow10[r]
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
        exact = (mv[rows] & tb["tzmask"][e[rows]]) == 0
        tie = exact & (rem[rows] == half[rows]) & ((vr_r[rows] & _U64(1)) == 0)
        bump[rows] = (((vr_r[rows] == vm_r[rows]) & ~vm_tz[rows])
                      | ((rem[rows] >= half[rows]) & ~tie))
    vr_r += bump
    return vr_r, tb["e10"][e] + r


_ZERO4 = np.frombuffer(b"0000", np.uint32)[0]
# "inf" and "nan" in the last three bytes of a field's last word
_INF_WORD, _NAN_WORD = (_U64(int.from_bytes(name, "little") << 40) for name in (b"inf", b"nan"))


def _digit_field(v, width, tb, head=None):
    """The digits of v zero-padded to width places, right-aligned in fields
    with NUL left of them, and with '.' after the first head places where
    head < width.  Returns the fields as 64-bit words and each text's first
    column."""
    lut, pow10 = tb["lut"], tb["pow10"]
    if head is not None:  # a 0 digit goes in at the point, then turns into '.'
        tail = width - head
        dot = np.flatnonzero(tail)
        short = np.minimum(tail, 17)  # past 17 places v has no digits to move
        v = v + v // pow10[short] * tb["nine"][short]
        width = width + (tail > 0)
    hi = v // pow10[8]
    lo = v - hi * pow10[8]
    top = hi // pow10[8]
    hi -= top * pow10[8]
    first = _FIELD - width
    words = np.empty((v.size, 3), "<u8")  # little-endian: the bytes in reading order
    keep = [mask[first] for mask in tb["keep"]]
    words[:, 0] = ((lut[top] << _S32) | _ZERO4) & keep[0]
    for k, g in ((1, hi), (2, lo)):
        g4 = g // pow10[4]
        words[:, k] = ((lut[g - g4 * pow10[4]] << _S32) | lut[g4]) & keep[k]
    if head is not None:
        words.view(np.uint8)[dot, _FIELD - 1 - tail[dot]] = ord(".")
    return words, first


def _float_text(x, tb):
    """``float.__repr__`` of each float64 but its sign: right-aligned fields,
    each text's first column, and where a '-' goes before it."""
    bits = x.view(_U64)
    digits, exp10 = _shortest(bits, tb)
    zero = np.flatnonzero((bits << _U64(1)) == 0)
    digits[zero] = 0
    exp10[zero] = 0
    n = _n_digits(digits, tb)
    point = exp10 + n  # the value is 0.DIGITS * 10^point
    # Plain notation: the digits padded with zeros to point + 1 places, or
    # led by 1 - point zeros, with '.' after max(point, 1) places.
    pad = np.clip(exp10 + 1, 0, 17)
    v = digits * tb["pow10"][pad]
    width = n + pad + np.maximum(1 - point, 0)
    head = np.maximum(point, 1)
    sci = np.flatnonzero((point < -3) | (point > 16))
    if sci.size:  # D.DDDDe+XX: '.' after the first digit unless it is the only one
        v[sci] = digits[sci]
        width[sci] = n[sci]
        head[sci] = 1
    words, first = _digit_field(v, width, tb, head)
    if sci.size:  # shift the text left over the exponent: 'e', sign, 2 or 3 digits
        e = point[sci] - 1
        places = 2 + (np.abs(e) >= 100)
        suffix = np.where(e < 0, ord("e") | ord("-") << 8, ord("e") | ord("+") << 8).astype(_U64)
        suffix |= tb["lut"][np.abs(e)] >> (32 - 8 * places).astype(_U64) << _U64(16)
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


def _int_text(x, tb):
    """The plain digits of each integer: right-aligned fields, each text's
    first column, and where a '-' goes before it."""
    if x.dtype.kind == "u":
        mag, neg = x.astype(_U64), np.zeros(x.shape, bool)
    else:
        x = x.astype(np.int64)
        neg = x < 0
        mag = x.view(_U64).copy()
        mag[neg] = _U64(0) - mag[neg]
    words, first = _digit_field(mag, _n_digits(mag, tb), tb)
    return words, first, neg


def _csv_rows(columns) -> bytes:
    """The CSV text of one block of rows; all its float columns are formatted
    in one call."""
    tb = _text_tables()
    size = len(columns[0])
    fields = [None] * len(columns)
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    if floats:
        text = _float_text(np.concatenate(
            [columns[i].astype(np.float64, copy=False) for i in floats]), tb)
        for k, i in enumerate(floats):
            fields[i] = [part[k * size:(k + 1) * size] for part in text]
    for i, c in enumerate(columns):
        if c.dtype.kind in "iu":
            fields[i] = _int_text(c, tb)
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


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """Write equal-length 1-d columns under a header line.

    A float is written as its shortest round-trip decimal, the text of
    ``float.__repr__``; an integer as its plain digits; inf, -inf and NaN as
    ``inf``, ``-inf`` and ``nan``.  Rows are formatted and written a block
    at a time, of at most _CSV_BLOCK floats, so memory stays flat however
    many replicas there are.
    """
    cols = [np.asarray(c) for c in columns]
    step = _CSV_BLOCK // max(1, sum(c.dtype.kind == "f" for c in cols))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(cols[0]), step):
            fh.write(_csv_rows([c[lo:lo + step] for c in cols]))


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as strict JSON; a NaN or infinite float writes no file."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n")


def _ensure_outdir(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out!r} is not writable: {exc}") from exc
    return path


def _manifest(outdir: Path, command: str, config: dict, derived: dict | None = None) -> None:
    payload = {
        "command": command,
        "config": config,
        "version": __version__,
    }
    if derived:
        payload["derived"] = derived
    _write_json(outdir / "manifest.json", payload)


_MAX_TABLE_ROWS = 1 << 20


def _table_rows(flag: str, *sizes) -> None:
    """Reject a density table of more than _MAX_TABLE_ROWS rows before it is built."""
    rows = math.prod(sizes)
    if rows > _MAX_TABLE_ROWS:
        raise ValueError(f"{flag}: the table would have {rows} rows; at most {_MAX_TABLE_ROWS}")


def _grid_values(spec: str, flag: str = "--grid") -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"{flag}: bad grid spec {spec!r}; expected lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"{flag}: bad grid spec {spec!r}; lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"{flag}: bad grid spec {spec!r}; need step > 0 and hi >= lo")
    span = (hi - lo) / step
    count = round(span) + 1 if math.isfinite(span) else math.inf  # the quotient may overflow
    _table_rows(flag, count)
    return lo + step * np.arange(count)


_RULES = {
    "absorbing": lambda ls, rows, cols: ls.AbsorbingRule(
        ls.transition_matrix(ls.build_grid_graph(rows, cols))),
    "equal": lambda ls, rows, cols: ls.EqualRule(rows * cols),
    "unit": lambda ls, rows, cols: ls.UnitRule(rows * cols),
}
_STRUCTURES = {
    "parallel": lambda sf, rows, cols: sf.parallel(rows * cols),
    "column-paths": lambda sf, rows, cols: sf.column_paths(rows, cols),
}


def _bundle(cfg: dict) -> tuple[int, object, StrengthModel]:
    """Component count, load-sharing rule and strength model of the grid bundle."""
    from . import loadshare

    rows, cols = cfg["rows"], cfg["cols"]
    shape = 1.0 if cfg["family"] == "exponential" else cfg["shape"]
    model = StrengthModel(family=cfg["family"], shape=shape, scale=cfg["scale"])
    return rows * cols, _RULES[cfg["rule"]](loadshare, rows, cols), model


def _structure(cfg: dict) -> StructureFunction:
    from .cascade import StructureFunction

    return _STRUCTURES[cfg["structure"]](StructureFunction, cfg["rows"], cfg["cols"])


# The sampler's entry points, looked up on this module when a command runs, so
# a caller may wrap them here.
def sample_bundle_strengths(*args, **kwargs) -> np.ndarray:
    from .cascade import sample_bundle_strengths

    return sample_bundle_strengths(*args, **kwargs)


def cycles_to_failure_samples(*args, **kwargs) -> np.ndarray:
    from .cascade import cycles_to_failure_samples

    return cycles_to_failure_samples(*args, **kwargs)


# ---------------------------------------------------------------------------
# options: _OPTIONS declares each option once, _COMMANDS names each command's row


def _positive(value) -> None:
    if value <= 0:
        raise ValueError(f"must be positive, got {value}")


def _non_negative(value) -> None:
    if value < 0:
        raise ValueError(f"must be 0 (all available CPUs) or positive, got {value}")


def _degradation(value) -> None:
    from .cascade import _check_degradation

    _check_degradation(value)


_BUNDLE = ("rows", "cols", "rule", "family", "shape", "scale")
_SAMPLING = ("structure", "replicas", "seed", "workers")
# the options each density kind reads, besides --kind and --out
_KIND_READS = {
    "irwin-hall": ("m", "grid"),
    "mixing": ("k", "n", "grid"),
    "order-stat-joint": ("k", "l", "n", "x_grid", "y_grid"),
    "tilted": ("k", "l", "n", "x", "y"),
    "pattern": ("pattern", "s", *_BUNDLE),
}


class _Option(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None
    check: Callable | None = None  # raises ValueError on a bad value


_OPTIONS = {
    "rows": _Option(int, 4, "grid rows", check=_positive),
    "cols": _Option(int, 4, "grid columns", check=_positive),
    "rule": _Option(str, "absorbing", "load-sharing rule", tuple(_RULES)),
    "structure": _Option(str, "column-paths", "structure function", tuple(_STRUCTURES)),
    "family": _Option(str, "weibull", "component strength law", FAMILIES),
    "shape": _Option(float, 5.0, "Weibull shape; exponential fixes it at 1", check=_positive),
    "scale": _Option(float, 2.0, "strength scale", check=_positive),
    "replicas": _Option(int, 100_000, "bundles to sample", check=_positive),
    "seed": _Option(int, 0, "random seed"),
    "chain": _Option(int, 1, "bundles in series for chain.csv; 1 writes none", check=_positive),
    "tail_lo": _Option(float, 1e-5, "lower probability of the tail-fit window"),
    "tail_hi": _Option(float, 1e-3, "upper probability of the tail-fit window"),
    "percentiles": _Option(str, "", "comma list of strength percentiles; first is the reference"),
    "a": _Option(float, 0.9, "degradation factor per cycle, in (0, 1)", check=_degradation),
    "s_star": _Option(float, 1.0, "peak load per component", check=_positive),
    "workers": _Option(int, 0, "worker processes; 0 uses the available CPUs",
                       check=_non_negative),
    "out": _Option(str, "out", "output directory"),
    "samples": _Option(str, "", "strength samples file to take the percentiles from"),
    "input": _Option(str, "", "value,censored CSV to analyze"),
    "kind": _Option(str, "", "density to tabulate", tuple(_KIND_READS)),
    "m": _Option(int, 2, "irwin-hall: number of uniforms", check=_positive),
    "k": _Option(int, 2, "order-statistic index k"),
    "l": _Option(int, 4, "order-statistic index l"),
    "n": _Option(int, 6, "sample size n"),
    "grid": _Option(str, "", "lo:hi:step evaluation grid (irwin-hall, mixing)"),
    "x_grid": _Option(str, "", "lo:hi:step grid for x (order-stat-joint)"),
    "y_grid": _Option(str, "", "lo:hi:step grid for y - x (order-stat-joint)"),
    "x": _Option(float, 0.5, "tilted: conditioning value x"),
    "y": _Option(float, 1.0, "tilted: conditioning value y"),
    "pattern": _Option(str, "", "breaking pattern, e.g. '1(2,3) 4'"),
    "s": _Option(list, (), "stress vector, comma list (repeatable)"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str, command: str, keys) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise InputFormatError(f"{path}:{ln}: {command} has no option {key!r}")
        typ = _OPTIONS[key].type
        try:
            values[key] = raw.strip().split() if typ is list else typ(raw.strip())
        except ValueError:
            raise InputFormatError(f"{path}:{ln}: bad value for {key!r}: {raw.strip()!r}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """The command's options, each from its flag, else the config file, else its default.

    A density kind takes only the options it reads.
    """
    keys = _COMMANDS[args.command][1]
    from_file = _load_config_file(args.config, args.command, keys) if args.config else {}
    cfg, given = {}, []
    for key in keys:
        opt = _OPTIONS[key]
        value = getattr(args, key)
        if value is not None or key in from_file:
            given.append(key)
        if value is None:
            value = from_file.get(key, opt.default)
        try:
            if opt.choices and value not in opt.choices:
                raise ValueError(f"must be one of {', '.join(opt.choices)}; got {value!r}")
            if opt.check:
                opt.check(value)
        except ValueError as exc:
            raise ValueError(f"{_flag(key)}: {exc}") from None
        cfg[key] = value
    if args.command == "density":
        unread = [_flag(k) for k in given if k not in ("kind", "out", *_KIND_READS[cfg["kind"]])]
        if unread:
            raise ValueError(f"--kind {cfg['kind']} does not read {', '.join(unread)}")
    return cfg


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every command has its subparser, but with
    ``command`` only that one gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="fiberbundle",
        description="Fiber-bundle strength simulation and censored-strength analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cmd, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__, description=cmd.__doc__)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="key=value file of this command's options; flags win")
        for key in keys:
            opt = _OPTIONS[key]
            shown = f" (default {opt.default})" if opt.default not in ("", ()) else ""
            if opt.type is list:
                how = {"action": "append"}
            else:
                how = {"type": opt.type, "choices": opt.choices}
            p.add_argument(_flag(key), help=opt.help + shown, **how)
    return parser


# ---------------------------------------------------------------------------
# commands


def _workers(cfg: dict) -> int:
    if cfg["workers"] > 0:
        return cfg["workers"]
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, which a container or taskset can restrict
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(cfg: dict) -> None:
    """Sample bundle strengths; emit samples, Weibull plot and lower-tail fit."""
    from . import stats
    from .cascade import ChainSpec, chain_strength

    _, rule, model = _bundle(cfg)
    structure = _structure(cfg)
    window = (cfg["tail_lo"], cfg["tail_hi"])
    stats.tail_window(cfg["replicas"], window)  # too few points fails before sampling
    outdir = _ensure_outdir(cfg["out"])
    samples = sample_bundle_strengths(
        model, rule, structure, cfg["replicas"], seed=cfg["seed"], workers=_workers(cfg)
    )
    _write_csv(outdir / "samples.csv", ["strength"], samples)
    lx, ly = stats.weibull_plot_from_samples(samples)
    _write_csv(outdir / "weibull_plot.csv", ["ln_x", "ln_neg_ln_sf"], lx, ly)
    fit = stats.lower_tail_slope(samples, window=window)
    rho = model.rho
    _write_json(outdir / "tail_fit.json", {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.stderr,
        "n_points": fit.n_points,
        "window": list(fit.window),
        "component_shape": rho,
        "inflation_factor": stats.inflation_factor(fit.slope, rho),
    })
    derived = {"n_samples": int(samples.size)}
    if cfg["chain"] > 1:
        chain = chain_strength(samples, ChainSpec(cfg["chain"]), seed=cfg["seed"])
        _write_csv(outdir / "chain.csv", ["strength"], chain)
        derived["n_chain"] = int(chain.size)
    _manifest(outdir, "simulate", cfg, derived)


def _percentile_list(cfg: dict) -> list[float]:
    text = cfg["percentiles"].strip()
    if not text:
        raise ValueError("gibbs needs a nonempty --percentiles list (first is the reference)")
    ps = [float(v) for v in text.split(",") if v.strip()]
    if not ps:
        raise ValueError("empty percentile list")
    if any(not 0 < p < 100 for p in ps):
        raise ValueError("percentiles must lie in (0, 100)")
    return ps


def cmd_gibbs(cfg: dict) -> None:
    """Enumerate the exact state measure; emit potentials and LMF fits."""
    from . import gibbs
    from .loadshare import share_table

    ps = _percentile_list(cfg)
    n, rule, model = _bundle(cfg)
    share_table(rule, n)  # bounds n; the sampler and build_gibbs reuse this table
    samples = _read_strengths(cfg["samples"]) if cfg["samples"] else None
    outdir = _ensure_outdir(cfg["out"])
    if samples is None:
        samples = sample_bundle_strengths(
            model, rule, _structure(cfg), cfg["replicas"], seed=cfg["seed"],
            workers=_workers(cfg),
        )
    levels = dict(zip(ps, gibbs.strength_percentile(samples, ps)))
    models = {p: gibbs.build_gibbs(n, levels[p], rule, model) for p in ps}
    ref = models[ps[0]]
    _write_csv(
        outdir / "potentials.csv",
        ["subset_mask", "subset_size", "V", "U"],
        np.arange(1 << n), ref.potentials.sizes, ref.potentials.values, ref.energy.values,
    )
    records = []
    for p in ps[1:]:
        fit = gibbs.lmf_fit(ref, models[p], p_ref=ps[0], p_target=p)
        records.append({
            "p": ps[0],
            "p_prime": p,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r2": fit.r2,
            "tv_error": fit.tv_error,
        })
    _write_json(outdir / "lmf.json", records)
    _manifest(outdir, "gibbs", cfg, {"strength_levels": {str(p): levels[p] for p in ps}})


def _positive_value(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"not a finite positive value: {text!r}")
    return value


def _read_rows(path: str, what: str, header: str, parse: Callable[[str], object]) -> list:
    """One parsed value per nonblank line, skipping a first line that starts
    with ``header``; a line ``parse`` rejects is a malformed row."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read {what} file {path!r}: {exc}") from exc
    rows, bad = [], []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (ln == 1 and line.lower().replace(" ", "").startswith(header)):
            continue
        try:
            rows.append(parse(line))
        except ValueError:
            bad.append(ln)
    if bad:
        raise InputFormatError(f"{path}: malformed rows at lines {bad}")
    if not rows:
        raise InputFormatError(f"{path}: no {what} rows found")
    return rows


def _read_strengths(path: str) -> np.ndarray:
    return np.asarray(_read_rows(path, "samples", "strength", _positive_value))


def _censored_row(line: str) -> tuple[float, bool]:
    value, flag = line.split(",")  # any other field count is a ValueError
    flag = int(flag)
    if flag not in (0, 1):
        raise ValueError(f"censoring flag must be 0 or 1, got {flag}")
    return _positive_value(value), bool(flag)


def _read_censored(path: str) -> list[tuple[float, bool]]:
    return _read_rows(path, "input", "value,censored", _censored_row)


def cmd_analyze(cfg: dict) -> None:
    """Kaplan-Meier curve and censored Weibull MLE for a value,censored CSV."""
    from . import stats

    if not cfg["input"]:
        raise ValueError("analyze needs --input pointing at a value,censored CSV")
    data = _read_censored(cfg["input"])
    outdir = _ensure_outdir(cfg["out"])
    km = stats.kaplan_meier(data)
    _write_csv(outdir / "km.csv", ["time", "surv", "lo", "hi"],
               km.times, km.survival, km.lower, km.upper)
    derived: dict = {"n_obs": len(data), "n_censored": sum(1 for _, c in data if c)}
    if sum(1 for _, c in data if not c) >= 2:
        fit = stats.weibull_mle_censored(data)
        _write_json(outdir / "weibull_fit.json", {
            "rho": fit.rho, "sigma": fit.sigma,
            "loglik": fit.loglik, "converged": fit.converged,
        })
    else:
        derived["weibull_fit"] = "skipped: fewer than 2 uncensored observations"
    _manifest(outdir, "analyze", cfg, derived)


def cmd_cycles(cfg: dict) -> None:
    """Cycles to failure under geometric strength degradation."""
    _, rule, model = _bundle(cfg)
    structure = _structure(cfg)
    outdir = _ensure_outdir(cfg["out"])
    counts = cycles_to_failure_samples(
        model, rule, structure, cfg["s_star"], cfg["a"], cfg["replicas"],
        seed=cfg["seed"], workers=_workers(cfg),
    )
    _write_csv(outdir / "cycles.csv", ["cycles"], counts)
    levels = (5, 25, 50, 75, 95)
    qs = {f"q{q}": v for q, v in zip(levels, np.quantile(counts, np.array(levels) / 100).tolist())}
    _write_json(outdir / "cycles_summary.json", {
        "mean": float(counts.mean()),
        "max": int(counts.max()),
        **qs,
    })
    _manifest(outdir, "cycles", cfg)


def cmd_density(cfg: dict) -> None:
    """Tabulate one of the threshold densities."""
    from . import threshold

    kind = cfg["kind"]
    derived: dict = {}
    if kind == "irwin-hall":
        grid = _grid_values(cfg["grid"] or f"0:{cfg['m']}:0.1")
        try:
            columns = (grid, threshold.irwin_hall_pdf(cfg["m"], grid))
        except ValueError as exc:
            raise ValueError(f"--m: {exc}") from None
        header = ["t", "pdf"]
    elif kind == "mixing":
        mix = threshold.order_stat_mixing(cfg["k"], cfg["n"])
        if mix.is_atom:
            raise ValueError(f"a_({cfg['k']};{cfg['n']}) is a point mass at {cfg['n']}")
        lo, hi = mix.support
        grid = _grid_values(cfg["grid"] or f"{lo}:{hi}:{(hi - lo) / 50}")
        columns = (grid, mix.pdf(grid))
        header = ["theta", "pdf"]
        derived["normalizing_constant"] = 1.0 / mix.normalizer
    elif kind == "order-stat-joint":
        joint = threshold.OrderStatJointDensity(cfg["k"], cfg["l"], cfg["n"])
        xg = _grid_values(cfg["x_grid"] or "0.2:1.0:0.2", "--x-grid")
        yg = _grid_values(cfg["y_grid"] or "0.2:1.0:0.2", "--y-grid")
        _table_rows("--x-grid x --y-grid", xg.size, yg.size)
        x = np.repeat(xg, yg.size)
        y = x + np.tile(yg, xg.size)
        direct = np.array([joint.direct(xv, yv) for xv, yv in zip(x, y)])
        mixture = joint.mixture(x, y)
        rel = np.divide(np.abs(direct - mixture), direct, out=np.zeros_like(direct),
                        where=direct != 0)
        columns = (x, y, direct, mixture, rel)
        header = ["x", "y", "direct", "mixture", "rel_err"]
    elif kind == "tilted":
        tc = threshold.TiltedConditional(cfg["k"], cfg["l"], cfg["n"], cfg["x"], cfg["y"])
        g1, g2 = (_grid_values(f"{lo}:{hi}:{(hi - lo) / 20}", "--kind tilted")
                  for lo, hi in (tc.law1.support, tc.law2.support))
        f1 = np.repeat(tc.factor1(g1), g2.size)
        f2 = np.tile(tc.factor2(g2), g1.size)
        columns = (np.repeat(g1, g2.size), np.tile(g2, g1.size), f1 * f2, f1, f2)
        header = ["theta1", "theta2", "pdf", "factor1", "factor2"]
    else:  # pattern
        if not cfg["pattern"]:
            raise ValueError("pattern density needs --pattern")
        if not cfg["s"]:
            raise ValueError("pattern density needs at least one --s stress vector")
        from .cascade import parse_pattern

        pattern = parse_pattern(cfg["pattern"])
        n, rule, model = _bundle(cfg)
        f = len(pattern.cycles)
        stresses, density = [], []
        for spec in cfg["s"]:
            s = [float(v) for v in str(spec).split(",")]
            if len(s) != f:
                raise ValueError(f"stress vector {spec!r} must have {f} entries")
            if not all(map(math.isfinite, s)):
                raise ValueError(f"--s: stress vector {spec!r} has a non-finite entry")
            inp = threshold.pattern_density_input(pattern, rule, n, model, s)
            stresses.append(s)
            density.append(threshold.phase1_pattern_density(inp))
        columns = (*np.array(stresses).T, density)
        header = [f"s{u + 1}" for u in range(f)] + ["density"]
    outdir = _ensure_outdir(cfg["out"])
    _write_csv(outdir / "density.csv", header, *columns)
    _manifest(outdir, "density", cfg, derived)


_COMMANDS = {
    "simulate": (cmd_simulate, (*_BUNDLE, *_SAMPLING, "chain", "tail_lo", "tail_hi", "out")),
    "gibbs": (cmd_gibbs, (*_BUNDLE, *_SAMPLING, "percentiles", "samples", "out")),
    "analyze": (cmd_analyze, ("input", "out")),
    "cycles": (cmd_cycles, (*_BUNDLE, *_SAMPLING, "a", "s_star", "out")),
    "density": (cmd_density, ("kind", *dict.fromkeys(k for ks in _KIND_READS.values() for k in ks),
                              "out")),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        _COMMANDS[args.command][0](cfg)
    except (ArithmeticError, RuntimeError) as exc:
        # first, for errors that are a ValueError too (gibbs.PositivityError)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
