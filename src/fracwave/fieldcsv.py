"""The text of a field CSV: '%.17g' for blocks of doubles, formatted with NumPy.

Every value's bytes are those of '%.17g' % v.  _words gives each value 32
bytes, four little-endian uint64 words, with its text and a newline in fixed
slots and NUL in the slots it leaves unused:

    word 0     sign, "0.000" (exponents -1 to -4 take 2 to 5 of it), digit 0, dot
    words 1-2  digits 1 to 16; a dot after digit j (1-15) is inserted by
               shifting the digits after it one byte on
    word 3     the digit that shift pushes out, 'e', the exponent's sign and
               two or three digits, then "\n"

Deleting the NULs (bytes.translate) leaves the text.  The 17 digits come from
|v| * 10^(16 - e) in double-double arithmetic: an exact product with a (hi, lo)
power of ten, rounded once.  A value that this cannot decide exactly -- zero,
|v| outside [1e-270, 1e270), a fraction within 1e-6 of a tie, an exponent
one correction step does not settle -- is formatted by '%.17g' % v alone.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

BLOCK = 4096  # values formatted at once
_WIDTH = 32  # bytes per value
_FAST_MIN, _FAST_MAX = 1e-270, 1e270  # |v| the scaling takes: no split overflows, no product underflows
_K_MIN, _K_MAX = -255, 289  # the table's powers 10^k: k = 16 - e, e two off either end
_E_OFF = 330  # index of decimal exponent e in the exponent tables: e + _E_OFF
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_U64 = np.uint64


def write_rows(fh, x: np.ndarray, t: np.ndarray, values: np.ndarray) -> None:
    """Write "x,t,u" rows to the binary file fh, x varying within each t, for
    u = values[j, i] at (x[i], t[j]).  Each x and each t is formatted once;
    u is formatted in blocks of whole time levels, or of part of one level
    when a level holds more than a block."""
    xs, ts = _column(x), _column(t)
    nt, nx = values.shape
    cols = max(1, min(nx, BLOCK))
    levels = max(1, BLOCK // cols)
    wx, wt = xs.shape[1], ts.shape[1]
    for j in range(0, nt, levels):
        for i in range(0, nx, cols):
            u = values[j:j + levels, i:i + cols]
            block = bytearray(u.size * (wx + wt + _WIDTH))
            rows = np.frombuffer(block, np.uint8).reshape(*u.shape, -1)
            rows[..., :wx] = xs[i:i + cols]
            rows[..., wx:wx + wt] = ts[j:j + levels, None]
            rows[..., wx + wt:] = _words(u.ravel()).view(np.uint8).reshape(*u.shape, -1)
            fh.write(block.translate(None, b"\0"))


def format_g17(values) -> bytes:
    """b"".join(b"%.17g\\n" % v for v in values), formatted in blocks."""
    v = np.asarray(values, dtype=float).ravel()
    return b"".join(_words(v[i:i + BLOCK]).tobytes().translate(None, b"\0")
                    for i in range(0, v.size, BLOCK))


def _column(values: np.ndarray) -> np.ndarray:
    """One uint8 row per value: its '%.17g' text and a comma, then NUL padding."""
    lines = format_g17(values).split(b"\n")[:-1]
    width = max(map(len, lines), default=0) + 1
    padded = b"".join(line + b"," + b"\0" * (width - 1 - len(line)) for line in lines)
    return np.frombuffer(padded, np.uint8).reshape(len(lines), width)


def _pack(byte_columns) -> np.ndarray:
    """uint64 words whose byte m is byte_columns[m] (the first is the lowest)."""
    word = np.zeros(np.shape(byte_columns[0]), _U64)
    for m, column in enumerate(byte_columns):
        word |= np.asarray(column, _U64) << _U64(8 * m)
    return word


def _divmod(n: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    q = n // m  # np.divmod's remainder is much slower than a multiply
    return q, n - q * m


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, built on first use from exact integers."""
    his, los = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(his)
    c = _SPLIT * hi
    g = np.arange(10000)
    sig = 4 - sum(g % 10**m == 0 for m in range(1, 4)) - (g == 0)  # digits to the last nonzero
    n = np.arange(17)  # a digit index 0-16: `last`, or the digit a dot follows
    e = np.arange(-_E_OFF, 310)
    lead = (e < 0) & (e >= -4)
    sci = (e < -4) | (e >= 17)
    ae = np.abs(e)
    return SimpleNamespace(
        hi=hi, hi_hi=c - (c - hi), lo=np.array(los),
        # a group of four digits in the low four bytes: "dddd"
        group=_pack([48 + g // 10 ** (3 - m) % 10 for m in range(4)]),
        # last[w][g]: the index (1-16) of group w's last nonzero digit, 0 for none
        last=[np.where(sig > 0, 4 * w + sig, 0).astype(np.uint8) for w in range(4)],
        # keep[w][last]: the mask of word w + 1's digits up to digit `last`
        keep=[_pack([(8 * w + m < n) * 255 for m in range(8)]) for w in range(2)],
        # after[w][j], dot[w][j]: the mask of word w + 1's digits after digit j, and
        # the '.' that takes the place of the first of them
        after=[_pack([(8 * w + m >= n) * 255 for m in range(8)]) for w in range(2)],
        dot=[_pack([(8 * w + m == n) * 46 for m in range(8)]) for w in range(2)],
        # word 0 without its sign: prefix[e + _E_OFF] | first[digit 0]
        prefix=_pack([0 * e, lead * 48, lead * 46, *((e <= -m) * lead * 48 for m in (2, 3, 4))]),
        first=np.arange(48, 58, dtype=_U64) << _U64(48),
        exponent=_pack([0 * e, sci * 101, sci * np.where(e < 0, 45, 43), sci * (ae >= 100) * (48 + ae // 100),
                        sci * (48 + ae // 10 % 10), sci * (48 + ae % 10), 0 * e + 10]),
    )


def _scaled(tab, a, a_hi, a_lo, e) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e) as p + r, to about 2^-104 relative: Dekker's exact
    product with 10^k's hi, plus a * lo; r is p's rounding error."""
    k = 16 - e - _K_MIN
    b, b_hi = tab.hi[k], tab.hi_hi[k]
    b_lo = b - b_hi
    p = a * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    t = err + a * tab.lo[k]
    s = p + t
    return s, t - (s - p)


def _outside(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """p + r outside [1e16, 1e17)."""
    return (p < 1e16) | (p > 1e17) | (p == 1e16) & (r < 0) | (p == 1e17) & (r >= 0)


def _words(v: np.ndarray) -> np.ndarray:
    """The uint64 words of ('%.17g\\n' % x for x in v), four per value, laid out
    as the module docstring says."""
    tab = _tables()
    a = np.abs(v)
    slow = ~((a >= _FAST_MIN) & (a < _FAST_MAX))
    a[slow] = 1.0
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = np.floor(np.log10(a)).astype(np.intp)  # at most one off: one step corrects it
    p, r = _scaled(tab, a, a_hi, a_lo, e)
    off = np.flatnonzero(_outside(p, r))
    if off.size:
        e[off] += np.where(p[off] >= 1e17, 1, -1)
        p[off], r[off] = _scaled(tab, a[off], a_hi[off], a_lo[off], e[off])
        off = off[_outside(p[off], r[off])]
    slow[off] = True
    q = np.rint(r)
    slow |= np.abs(r - q) > 0.5 - 1e-6  # near a tie
    d = p.astype(np.int64) + q.astype(np.int64)  # the 17 significant digits
    carry = d == 10**17
    d[carry] = 10**16
    e += carry

    d0, rest = _divmod(d, 10**16)
    top, bottom = _divmod(rest, 10**8)
    groups = (*_divmod(top, 10**4), *_divmod(bottom, 10**4))  # digits 1-4, ..., 13-16
    last = functools.reduce(np.maximum, (tab.last[w][g] for w, g in enumerate(groups)))
    fixed = (e >= -4) & (e < 17)  # written without an exponent
    dot = np.where(fixed, e, 0)  # the digit the '.' follows, if a digit follows it
    last = np.maximum(last, dot)  # the integer part is written in full
    dotted = last > dot
    ei = e + _E_OFF
    words = np.empty((v.size, _WIDTH // 8), "<u8")  # byte m of a word is memory byte m
    words[:, 0] = (np.signbit(v) * _U64(ord("-")) | tab.prefix[ei] | tab.first[d0]
                   | (dotted & (dot == 0)) * _U64(ord(".") << 56))
    for w in range(2):
        digits = tab.group[groups[2 * w]] | tab.group[groups[2 * w + 1]] << _U64(32)
        np.bitwise_and(digits, tab.keep[w][last], out=words[:, w + 1])
    words[:, 3] = tab.exponent[ei]
    # a dot after digit j of 1-15: the digits after it move one byte on, the
    # last of them into word 3
    inner = np.flatnonzero(dotted & (dot > 0))
    if inner.size:
        j = dot[inner]
        w1, w2 = words[inner, 1], words[inner, 2]
        a1, a2 = w1 & tab.after[0][j], w2 & tab.after[1][j]
        words[inner, 1] = w1 ^ a1 | a1 << _U64(8) | tab.dot[0][j]
        words[inner, 2] = w2 ^ a2 | a2 << _U64(8) | a1 >> _U64(56) | tab.dot[1][j]
        words[inner, 3] |= a2 >> _U64(56)
    for i in np.flatnonzero(slow).tolist():
        row = words[i].view(np.uint8)
        text = b"%.17g\n" % v[i]
        row[:] = 0
        row[:len(text)] = np.frombuffer(text, np.uint8)
    return words
