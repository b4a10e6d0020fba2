"""File formats, run manifests, and the cross-run correlation pipeline.

Matrices travel as `.dmat` text (header ``dmat 1 <rows> <cols>``, then one
space-separated row per line, shortest round-trip float formatting so a
write/read cycle is bit-exact) or as headerless rectangular CSV. Every
float the package writes goes through ``_float_text``, which prints it as
repr does, with a cached C kernel or else with repr itself. A `.dmat`
body is parsed by a cached C kernel when it can vouch for it, and otherwise
by the Python reader ``_load_dmat``, its specification, with the same
result. A run manifest is a JSON object describing one trained run: its
depth, final accuracy, per-layer feature files, an architecture label, and
which direction vector to measure against. ``correlate`` turns at least
three such runs into per-metric Pearson correlations between log-metric
values at the final layer and the accuracies.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from ._native import NoKernel, kernel, load_function
from .errors import (
    DegenerateInput,
    InsufficientRuns,
    InvalidParameter,
    IoError,
    LengthMismatch,
    ParseError,
    ShapeMismatch,
)
from .graph import Graph, constant_unit_vector, gcn_dominant_eigenvector
from .linalg import _unit
from .metrics import _RANK_METRICS, CANONICAL_METRICS, MetricReport, metric_series, metric_suite
from .validation import (
    as_matrix,
    body_tokens,
    decode_text,
    parse_header,
    read_bytes,
    read_text,
    write_lines,
)

# Metric values are clamped here before the log transform.
CLAMP_FLOOR = 1e-15

TRACE_COLUMNS = ("layer",) + CANONICAL_METRICS + ("frob_norm",)
# Every MetricReport field in declaration order: the columns of a full report.
# The last, skipped_mad_edges, is a count and is written as an integer.
_REPORT_FIELDS = tuple(f.name for f in fields(MetricReport))


@functools.cache
def _pow5() -> tuple[int, ...]:
    """5^q for q = -342..324 (entry q + 342), the integers both text kernels'
    tables come from, as 128 bits normalized to [2^127, 2^128) by fast_float's
    rule: 5^q truncated for q >= 0, and for q < 0 floor(2^b / 5^-q) + 1
    truncated, with b = z + 127 for q >= -27 (so the ceiling) and b = 2z + 128
    below, z the bit length of 5^-q."""
    out = []
    for q in range(-342, 325):
        d = 5 ** abs(q)
        z = d.bit_length()
        c = d if q >= 0 else (1 << (z + 127 if q >= -27 else 2 * z + 128)) // d + 1
        excess = c.bit_length() - 128
        out.append(c >> excess if excess > 0 else c << -excess)
    return tuple(out)


def _spliced(source: str, name: str, values, half: int) -> str:
    """``source`` with ``name`` replaced by the C initializer of ``values``:
    ``{high, low}`` pairs, each value split at bit ``half``."""
    pairs = (f"{{{v >> half:#x}u, {v & (1 << half) - 1:#x}u}}" for v in values)
    return source.replace(name, ",".join(pairs))


# The float formatter: repr of every cell of a C-contiguous float64 (rows,
# cols) array, cells joined by ``sep`` and rows by '\n', in C. A finite
# nonzero value is c * 2^q with an integer c; an integer below 2^53 is its
# own digits, and every other value gets its shortest digits by Schubfach
# (Giulietti, "The Schubfach way to render doubles", 2020). With 10^k at
# most the gap 2^q to its neighbours (3/4 of it at a power of two, whose
# gap below is half the gap above), the value and both ends of its rounding
# interval are products of c << h and a 126-bit power of ten, rounded to
# odd, and compare exactly with the candidates s * 10^k and (s + 1) * 10^k
# around the value and the multiples of 10^(k+1) around it. Of those inside
# the interval (its ends included when c is even, as float() rounds ties to
# even) it takes the multiple of 10^(k+1), else the nearer candidate, a tie
# going to the even one. Java's Double.toString, which the published
# algorithm serves, wants two digits and tries the shorter candidates only
# from s >= 100; here they are always tried, so 5e-324 keeps one digit, as
# repr prints it. repr's layout follows: fixed notation for decimal
# exponents (of the leading digit) from -4 to 15, with '.0' on integral
# values, and d.ddde[+-]XX otherwise; -0.0, nan (whatever its sign), inf and
# -inf. A cell takes at most 24 bytes. ``G_TABLE`` is replaced by
# ``_pow10()``'s rows when the kernel is built; __uint128_t is a GCC/Clang
# extension, and another compiler fails the build.
_FORMAT_SOURCE = r"""
#include <stdint.h>
#include <string.h>
static const uint64_t g[617][2] = {G_TABLE};

/* g * cp / 2^127 for g = gk[0] 2^63 + gk[1], rounded to odd. */
static uint64_t rop(const uint64_t *gk, uint64_t cp) {
    uint64_t x1 = (uint64_t)(((__uint128_t)gk[1] * cp) >> 64);
    __uint128_t y = (__uint128_t)gk[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + x1;
    uint64_t vbp = (uint64_t)(y >> 64) + (z >> 63);
    return vbp | (((z & 0x7FFFFFFFFFFFFFFF) + 0x7FFFFFFFFFFFFFFF) >> 63);
}

/* The shortest digits of c * 2^q, nearest first and even on a tie, into
   *digits; returns their decimal exponent. */
static int shortest(uint64_t c, int q, int irregular, uint64_t *digits) {
    uint64_t out = c & 1, cb = c << 2, cbr = cb + 2, cbl = cb - 2 + irregular;
    int k = irregular ? (int)((q * 661971961083LL - 274743187321LL) >> 41)
                      : (int)((q * 661971961083LL) >> 41);
    int h = q + (int)((-k * 913124641741LL) >> 38) + 2;
    const uint64_t *gk = g[k + 324];
    uint64_t vb = rop(gk, cb << h), vbl = rop(gk, cbl << h), vbr = rop(gk, cbr << h);
    uint64_t s = vb >> 2, sp10 = s / 10 * 10, tp10 = sp10 + 10, t = s + 1;
    int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (upin != wpin) *digits = upin ? sp10 : tp10;
    else if (uin != win) *digits = uin ? s : t;
    else {
        uint64_t mid = (s + t) << 1;
        *digits = vb < mid || (vb == mid && !(s & 1)) ? s : t;
    }
    return k;
}

/* repr(v) at p; returns its end. */
static char *format_one(double v, char *p) {
    uint64_t bits, f;
    memcpy(&bits, &v, sizeof bits);
    uint64_t c = bits & (((uint64_t)1 << 52) - 1);
    int be = (int)(bits >> 52) & 0x7FF, e = 0;
    if (be == 0x7FF && c) { memcpy(p, "nan", 3); return p + 3; }
    if (bits >> 63) *p++ = '-';
    if (be == 0x7FF) { memcpy(p, "inf", 3); return p + 3; }
    if (!be && !c) { memcpy(p, "0.0", 3); return p + 3; }
    int q = be ? be - 1075 : -1074;
    if (be) c |= (uint64_t)1 << 52;
    if (q < 0 && q > -53 && !(c & (((uint64_t)1 << -q) - 1))) f = c >> -q;
    else e = shortest(c, q, be > 1 && c == (uint64_t)1 << 52, &f);
    while (f % 10 == 0) { f /= 10; e++; }
    char d[20];
    int n = 0;
    for (; f; f /= 10) d[19 - n++] = (char)('0' + f % 10);
    const char *digits = d + 20 - n;
    int point = n + e;
    if (point <= -4 || point > 16) {
        *p++ = digits[0];
        if (n > 1) { *p++ = '.'; memcpy(p, digits + 1, n - 1); p += n - 1; }
        int x = point - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        if (x < 0) x = -x;
        if (x >= 100) { *p++ = (char)('0' + x / 100); x %= 100; }
        *p++ = (char)('0' + x / 10);
        *p++ = (char)('0' + x % 10);
    } else if (point <= 0) {
        *p++ = '0'; *p++ = '.';
        memset(p, '0', -point); p += -point;
        memcpy(p, digits, n); p += n;
    } else if (point < n) {
        memcpy(p, digits, point); p += point;
        *p++ = '.';
        memcpy(p, digits + point, n - point); p += n - point;
    } else {
        memcpy(p, digits, n); p += n;
        memset(p, '0', point - n); p += point - n;
        *p++ = '.'; *p++ = '0';
    }
    return p;
}

int64_t format_rows(const double *values, int64_t rows, int64_t cols, int64_t sep, char *out) {
    char *p = out;
    for (int64_t i = 0; i < rows; i++) {
        if (i) *p++ = '\n';
        for (int64_t j = 0; j < cols; j++) {
            if (j) *p++ = (char)sep;
            p = format_one(values[i * cols + j], p);
        }
    }
    return p - out;
}
"""


def _pow10() -> list[int]:
    """The rows of ``g``: for k = -324..292, floor(10^-k * 2^-r) + 1 with r
    the one integer that puts the floor in [2^125, 2^126). 10^-k and 5^-k
    differ by a power of two, so the floor is ``_pow5()``'s 5^-k cut to 126
    bits, after taking 1 off the entries stored as ceilings."""
    p = _pow5()
    return [((p[342 - k] - (1 <= k <= 27)) >> 2) + 1 for k in range(-324, 293)]


# What the formatter must write exactly as repr before it is used: exact
# ties (...2.25 and ...2.75 round to the even digit), the smallest
# subnormal, the largest subnormal and the smallest normal, powers of two
# (2^-1019 needs the asymmetric interval, 2^-25 ties to even), a subnormal
# whose one digit is a shorter candidate below s = 100, interval ends that
# count only for an even c, both sides of each layout switch, 1e22 and 1e23
# around the exact powers of ten, the largest double, and the signs of
# zero, nan and inf.
_FORMAT_PROBE = (
    2.0**49 + 0.25, 2.0**49 + 0.75, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    2.0**-1019, 2.0**-25, 1e-322, -2.165179314756559e16, 8.241325042065199e17,
    9999999999999998.0, 1e16, 0.0001, 1e-05, 123456.0, -1.0 / 3.0,
    1e22, 1e23, 1.7976931348623157e308, -0.0, float("nan"), -float("nan"), math.inf, -math.inf,
)


def _format_python(values: np.ndarray, sep: str) -> str:
    """The formatter's fallback and specification: repr of every cell."""
    return "\n".join(sep.join(map(repr, row)) for row in values.tolist())


@kernel("float formatter", _format_python)
def _format_kernel():
    """The C formatter, built and checked against ``_format_python``."""
    proto = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_void_p)
    fn = load_function("format_rows", _spliced(_FORMAT_SOURCE, "G_TABLE", _pow10(), 63), proto)

    def format_c(values: np.ndarray, sep: str) -> str:
        rows, cols = values.shape
        # At most 24 bytes a cell and one after it; untouched pages of the
        # buffer are never resident.
        out = np.empty(values.size * 25 + rows, np.uint8)
        length = fn(values.ctypes.data, rows, cols, ord(sep), out.ctypes.data)
        return str(memoryview(out)[:length], "ascii")

    probe = np.array(_FORMAT_PROBE).reshape(4, 6)
    if format_c(probe, " ") != _format_python(probe, " "):
        raise NoKernel("self-check mismatch: the C formatter differs from repr")
    return format_c


def _float_text(values, sep: str = ",") -> str:
    """The text of a (rows, cols) array of floats: each cell as repr writes
    it (None as nan), cells joined by ``sep`` and rows by newlines. All
    numeric text the package writes comes from here."""
    return _format_kernel()(np.ascontiguousarray(values, dtype=np.float64), sep)


def format_float(value) -> str:
    """Shortest decimal string that round-trips the float (NaN -> 'nan')."""
    return _float_text([[float(value)]])


def write_matrix(m, path) -> None:
    """Write a `.dmat` file; reading it back is bit-exact.

    Refuses what ``load_matrix`` would refuse: non-2-D, empty or non-finite.
    """
    m = as_matrix(m)
    write_lines(path, [f"dmat 1 {m.shape[0]} {m.shape[1]}", _float_text(m, " ")])


def _parse_row(tokens: list[str], lineno: int) -> np.ndarray:
    """One row of finite floats parsed from ``tokens``; ParseError at ``lineno``."""
    try:
        row = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    finite = np.isfinite(row)
    if not finite.all():
        bad = tokens[int(np.argmin(finite))].strip()
        raise ParseError(f"non-finite entry {bad!r}", line=lineno)
    return row


def _load_dmat(lines: list[str]) -> np.ndarray:
    # Rows are kept as they are read, so no header count reserves memory
    # before the body has shown that many values.
    rows, cols = parse_header(lines[0], "dmat 1 <rows> <cols>", (1, 1))
    out = []
    for lineno, tokens in body_tokens(lines, 1):
        if len(out) == rows:
            raise ParseError("more data rows than the header promised", line=lineno)
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} values, got {len(tokens)}", line=lineno)
        out.append(_parse_row(tokens, lineno))
    if len(out) != rows:
        raise ParseError(f"header promised {rows} rows, file has {len(out)}", line=len(lines))
    return np.array(out)


def _load_csv(lines: list[str]) -> np.ndarray:
    rows = []
    for lineno, tokens in body_tokens(lines, 0, ","):
        if rows and len(tokens) != len(rows[0]):
            raise ParseError(
                f"ragged row: expected {len(rows[0])} values, got {len(tokens)}", line=lineno
            )
        rows.append(_parse_row(tokens, lineno))
    if not rows:
        raise ParseError("no data rows", line=1)
    return np.asarray(rows)


# The body walk of ``_load_dmat`` in C, for the files it can vouch for: lines
# ended by '\n' (blank ones skipped), exactly ``rows`` lines of ``cols``
# space-separated tokens, each read whole to a finite value. A plain token,
# [+-]digits[.digits][(e|E)[+-]digits] with at most 19 significant digits and
# ended by ' ', '\n' or the end, is w * 10^q with w < 2^64; Eisel-Lemire
# (Lemire, "Number parsing at a gigabyte per second", 2021) rounds it from one
# product of the normalized w and a 128-bit power of five, and a second one
# when the low 9 bits of the first are all ones. Every other token, and each
# case Eisel-Lemire leaves open (a product still ambiguous after the second
# one, a possible exact halfway case outside q in [-4, 23], q outside
# [-342, 308], a subnormal or overflowing result), goes to strtod, which must
# read a run of ``0123456789+-.eE`` whole. On those characters C's decimal
# grammar is float()'s and all three conversions round correctly, so the
# values are float()'s bit for bit, subnormals and underflow to zero included.
# Anything else (tabs, '\r', nan, hex, overflow, a wrong count, a locale whose
# decimal point is not '.' on a token left to strtod) returns 0 and is left to
# the Python reader. ``buf`` is a bytes object, so buf[len] is a NUL.
# ``POW5_TABLE`` is replaced by ``_pow5()``'s rows up to q = 308 when built.
# __uint128_t and __builtin_clzll are GCC/Clang extensions: another compiler
# fails the build, and the Python reader takes every file.
_DMAT_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
static const uint64_t pow5[651][2] = {POW5_TABLE};

/* w * 10^q, w != 0 and -342 <= q <= 308, rounded to nearest even into *value;
   0 where Eisel-Lemire cannot settle it. */
static int eisel_lemire(uint64_t w, int64_t q, int neg, double *value) {
    int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *t = pow5[q + 342];
    __uint128_t first = (__uint128_t)w * t[0];
    uint64_t hi = first >> 64, lo = (uint64_t)first;
    if ((hi & 0x1FF) == 0x1FF) {
        uint64_t more = ((__uint128_t)w * t[1]) >> 64;
        lo += more;
        hi += lo < more;
        if ((hi & 0x1FF) == 0x1FF && lo == UINT64_MAX) return 0;
    }
    int upper = hi >> 63, shift = upper + 9;
    uint64_t mant = hi >> shift;
    int64_t power2 = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (power2 <= 0) return 0;
    if (lo <= 1 && (mant & 3) == 1 && mant << shift == hi) {
        if (q < -4 || q > 23) return 0;
        mant &= ~(uint64_t)1;
    }
    mant = (mant + (mant & 1)) >> 1;
    if (mant >> 53) {
        mant = (uint64_t)1 << 52;
        power2++;
    }
    if (power2 >= 0x7FF) return 0;
    uint64_t bits = (uint64_t)neg << 63 | (uint64_t)power2 << 52 | (mant & (((uint64_t)1 << 52) - 1));
    memcpy(value, &bits, sizeof bits);
    return 1;
}

/* The end of the plain token at p, with its value in *value; NULL for any
   other token and wherever eisel_lemire returns 0. */
static const char *plain_token(const char *p, const char *end, double *value) {
    int neg = *p == '-';
    int64_t digits = 0, sig = 0, q = 0, e = 0;
    uint64_t w = 0;
    p += *p == '-' || *p == '+';
    for (; *p >= '0' && *p <= '9'; p++, digits++)
        if ((w || *p != '0') && ++sig <= 19) w = 10 * w + (uint64_t)(*p - '0');
    if (*p == '.')
        for (p++; *p >= '0' && *p <= '9'; p++, digits++, q--)
            if ((w || *p != '0') && ++sig <= 19) w = 10 * w + (uint64_t)(*p - '0');
    if (!digits || sig > 19) return NULL;
    if (*p == 'e' || *p == 'E') {
        int eneg = *++p == '-';
        p += *p == '-' || *p == '+';
        if (*p < '0' || *p > '9') return NULL;
        for (; *p >= '0' && *p <= '9'; p++)
            if (e < 100000) e = 10 * e + (*p - '0');
        q += eneg ? -e : e;
    }
    if (p != end && *p != ' ' && *p != '\n') return NULL;
    if (!w) *value = neg ? -0.0 : 0.0;
    else if (q < -342 || q > 308 || !eisel_lemire(w, q, neg, value)) return NULL;
    return p;
}

int dmat_parse(const char *buf, int64_t start, int64_t len, int64_t rows, int64_t cols,
               double *out) {
    const char *p = buf + start, *end = buf + len;
    int64_t row = 0, col = 0;
    for (;;) {
        if (p == end || *p == '\n') {
            if (col) {
                if (col != cols) return 0;
                row++;
                col = 0;
            }
            if (p == end) return row == rows;
            p++;
            continue;
        }
        if (*p == ' ') { p++; continue; }
        if (row == rows || col == cols) return 0;
        double value;
        const char *next = plain_token(p, end, &value);
        if (next) {
            p = next;
        } else {
            char *stop;
            value = strtod(p, &stop);
            p += strspn(p, "0123456789+-.eE");
            if (stop != p || !isfinite(value) || (p != end && *p != ' ' && *p != '\n')) return 0;
        }
        out[row * cols + col++] = value;
    }
}
"""


# Odd but valid spellings, blank and space-only lines, leading and trailing
# spaces, no final newline, and values that stress rounding, subnormals and
# underflow among them: what the kernel must parse exactly as ``_load_dmat``
# before it is used. 9007199254740993 and 9007199254740995 are exact ties
# that round half to even; 13863e34 and -9704e-179 round wrongly without
# the second product.
_DMAT_PROBE = (
    b"dmat 1 5 4\n\n 0.1 -2.5e-3  +1E+300 -0.\n   \n.5 7 9007199254740993 -0\n"
    b"5e-324 -2.2250738585072011e-308 2.4703282292062328e-324 -1e-400\n"
    b"13863e34 -9704e-179 9007199254740995 1e23\n"
    b"2.2250738585072014e-308 123456789012345678901234567890 1.7976931348623157e308 4e-0"
)


def _vouch_for_none(data: bytes, start: int, rows: int, cols: int) -> None:
    """The parser's fallback: it vouches for no file, leaving each to ``_load_dmat``."""


@kernel(".dmat parser", _vouch_for_none)
def _dmat_kernel():
    """The C body walk, built and checked against ``_load_dmat``."""
    proto = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
    fn = load_function("dmat_parse", _spliced(_DMAT_SOURCE, "POW5_TABLE", _pow5()[:651], 64), proto)

    def parse_c(data: bytes, start: int, rows: int, cols: int) -> np.ndarray | None:
        # Tokens are one byte or more, each after the first behind a
        # separator, so a body too short for rows * cols of them is refused
        # before the header's counts reserve any memory.
        if rows * cols > (len(data) - start + 1) // 2:
            return None
        out = np.empty((rows, cols))
        return out if fn(data, start, len(data), rows, cols, out.ctypes.data) else None

    want = _load_dmat(_DMAT_PROBE.decode("ascii").split("\n"))
    got = parse_c(_DMAT_PROBE, _DMAT_PROBE.index(b"\n") + 1, *want.shape)
    if got is None or got.tobytes() != want.tobytes():
        raise NoKernel("self-check mismatch: the C parser differs from the Python reader")
    return parse_c


def _parse_dmat_fast(data: bytes) -> np.ndarray | None:
    """The matrix of ``data`` when the C kernel vouches for its body; None
    leaves the file, whatever is wrong with it, to the Python readers."""
    newline = data.find(b"\n")
    if newline < 0:
        return None
    # A '\r' would end the header line of the text the Python reader sees.
    head = data[:newline]
    if not head.isascii() or b"\r" in head:
        return None
    try:
        rows, cols = parse_header(head.decode("ascii"), "dmat 1 <rows> <cols>", (1, 1))
    except ParseError:
        return None
    return _dmat_kernel()(data, newline + 1, rows, cols)


def load_matrix(path) -> np.ndarray:
    """Load a `.dmat` or headerless CSV matrix: a file whose first line has
    ``dmat`` as its first whitespace-separated token, as ``parse_header``
    splits it, is `.dmat`, and any other file is CSV."""
    data = read_bytes(path)
    # The kernel takes only files whose header parses, all of them `.dmat`.
    if (m := _parse_dmat_fast(data)) is not None:
        return m
    lines = decode_text(data, path, "utf-8").split("\n")
    return _load_dmat(lines) if lines[0].split()[:1] == ["dmat"] else _load_csv(lines)


def load_vector(path) -> np.ndarray:
    """Load a one-row or one-column matrix file as a vector."""
    m = load_matrix(path)
    if m.shape[0] != 1 and m.shape[1] != 1:
        raise ShapeMismatch(f"expected a vector-shaped file, got {m.shape[0]}x{m.shape[1]}")
    return m.ravel()


@dataclass(frozen=True)
class RunManifest:
    """One trained run: depth, accuracy, layer feature files, labels.

    ``u_source`` is 'gcn', 'const', or the path of a vector file, as
    ``_direction`` takes it. Relative paths are resolved against the
    manifest location.
    """

    depth: int
    accuracy: float
    layer_paths: tuple[str, ...]
    arch_label: str
    u_source: str


def read_manifest(path) -> RunManifest:
    try:
        raw = json.loads(read_text(path, "utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))

    def fail(msg: str):
        raise ParseError(f"{path}: {msg}")

    depth = raw.get("depth")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        fail(f"'depth' must be an integer >= 1, got {depth!r}")
    accuracy = raw.get("accuracy")
    if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float)):
        fail(f"'accuracy' must be a number, got {accuracy!r}")
    accuracy = float(accuracy)
    if not 0.0 <= accuracy <= 1.0:
        fail(f"'accuracy' must lie in [0, 1], got {accuracy}")
    paths = raw.get("layer_paths")
    if not isinstance(paths, list) or not paths or not all(isinstance(p, str) for p in paths):
        fail("'layer_paths' must be a nonempty list of strings")
    arch_label = raw.get("arch_label")
    if not isinstance(arch_label, str):
        fail(f"'arch_label' must be a string, got {arch_label!r}")
    source = raw.get("u_source")
    if isinstance(source, str) and source in ("gcn", "const"):
        u_source = source
    elif isinstance(source, dict) and isinstance(source.get("file"), str):
        u_source = source["file"] if os.path.isabs(source["file"]) else os.path.join(base, source["file"])
    else:
        fail(f"'u_source' must be 'gcn', 'const', or {{'file': path}}, got {source!r}")
    resolved = tuple(
        p if os.path.isabs(p) else os.path.join(base, p) for p in paths
    )
    return RunManifest(
        depth=depth,
        accuracy=accuracy,
        layer_paths=resolved,
        arch_label=arch_label,
        u_source=u_source,
    )


def pearson(xs, ys) -> float:
    """Pearson correlation of two equal-length sequences (length >= 3).

    Raises DegenerateInput when either side is constant.
    """
    xs = np.asarray(list(xs), dtype=np.float64)
    ys = np.asarray(list(ys), dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ShapeMismatch("pearson needs 1-D sequences")
    if xs.shape[0] != ys.shape[0]:
        raise LengthMismatch(f"lengths differ: {xs.shape[0]} vs {ys.shape[0]}")
    if xs.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 pairs, got {xs.shape[0]}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidParameter("sequences must be finite")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant sequence has no correlation")
    r = float(dx @ dy) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class CorrelationReport:
    """Per-metric correlation between log final-layer metrics and accuracy.

    ``correlations[metric]`` is None when that metric was undefined or
    degenerate across the runs; ``failures[metric]`` then explains why.
    ``transform`` records the shift/clamp/log recipe applied to raw values.
    """

    correlations: dict
    failures: dict
    accuracy_ratio: float
    run_count: int
    transform: dict


def _direction(source: str, g: Graph) -> np.ndarray:
    """Unit reference direction: 'gcn', 'const', or a vector file path."""
    if source == "gcn":
        return gcn_dominant_eigenvector(g)
    if source == "const":
        return constant_unit_vector(g.n)
    return _unit(load_vector(source), f"direction file {source}")


def correlate(manifests, g: Graph) -> CorrelationReport:
    """Correlate log final-layer metric values with run accuracies.

    Needs at least three manifests with pairwise distinct depths. Rank
    metrics are shifted by -1 first; all values are clamped to
    ``CLAMP_FLOOR`` before the natural log. A metric that is undefined or
    infinite on some run, or constant after the transform, gets a None entry
    and an explanation instead of poisoning the rest.
    """
    manifests = list(manifests)
    if len(manifests) < 3:
        raise InsufficientRuns(f"need at least 3 runs, got {len(manifests)}")
    depths = [m.depth for m in manifests]
    if len(set(depths)) != len(depths):
        raise InsufficientRuns(f"run depths must be pairwise distinct, got {depths}")
    reports: list[MetricReport] = []
    # Each source is resolved on first use, so the first error is the same
    # as if every run resolved its own.
    directions: dict[str, np.ndarray] = {}
    for manifest in manifests:
        x = load_matrix(manifest.layer_paths[-1])
        if x.shape[0] != g.n:
            raise ShapeMismatch(
                f"{manifest.layer_paths[-1]}: {x.shape[0]} rows for a graph with {g.n} vertices"
            )
        if manifest.u_source not in directions:
            directions[manifest.u_source] = _direction(manifest.u_source, g)
        reports.append(metric_suite(x, g, directions[manifest.u_source]))
    accuracies = [m.accuracy for m in manifests]
    correlations: dict = {}
    failures: dict = {}
    for metric in CANONICAL_METRICS:
        logs = []
        for manifest, value in zip(manifests, metric_series(reports, metric)):
            if not math.isfinite(value):
                kind = "undefined" if math.isnan(value) else "infinite"
                failures[metric] = f"{kind} at depth {manifest.depth}"
                correlations[metric] = None
                break
            logs.append(math.log(max(value, CLAMP_FLOOR)))
        else:
            try:
                correlations[metric] = pearson(logs, accuracies)
            except DegenerateInput as exc:
                correlations[metric] = None
                failures[metric] = str(exc)
    deep = max(range(len(manifests)), key=lambda i: depths[i])
    shallow = min(range(len(manifests)), key=lambda i: depths[i])
    if accuracies[shallow] == 0.0:
        raise DegenerateInput("shallowest run has zero accuracy; ratio undefined")
    return CorrelationReport(
        correlations=correlations,
        failures=failures,
        accuracy_ratio=accuracies[deep] / accuracies[shallow],
        run_count=len(manifests),
        transform={
            "shifted_metrics": _RANK_METRICS,
            "clamp_floor": CLAMP_FLOOR,
            "log": "natural",
        },
    )


def _report_table(reports, key: str | None = None, labels=(), columns=_REPORT_FIELDS) -> list[str]:
    """The CSV lines of ``reports``: a header, then one line per report.

    With ``key``, each line starts with the report's label, and the header
    with ``key``. An undefined value reads nan; the count
    skipped_mad_edges stays an integer.
    """
    counts = columns[-1] == "skipped_mad_edges"
    floats = columns[:-1] if counts else columns
    lines = []
    if reports:
        lines = _float_text([[getattr(rep, c) for c in floats] for rep in reports]).split("\n")
    if counts:
        lines = [f"{line},{rep.skipped_mad_edges}" for line, rep in zip(lines, reports)]
    if key is None:
        return [",".join(columns)] + lines
    return [",".join((key,) + columns)] + [f"{label},{line}" for label, line in zip(labels, lines)]


def _write_table(out_dir, name: str, lines) -> str:
    """Write one CSV table, given as its lines, under ``out_dir``."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    write_lines(path, lines)
    return path


def write_report(out_dir, correlation=None, grid=None, traces=None) -> list[str]:
    """Emit CSV artifacts into ``out_dir``; returns the paths written.

    ``correlation`` -> correlations.csv (one row per metric);
    ``grid`` -> table3_grid.csv (row, metric, yes/no verdict);
    ``traces`` (mapping ``(label, seed) -> reports``) -> one
    trace_<label>_<seed>.csv per rollout with the canonical trace columns.
    Identical inputs produce byte-identical files.
    """
    written = []
    if correlation is not None:
        cells = _float_text([[correlation.correlations[m]] for m in CANONICAL_METRICS])
        lines = ["metric,r"] + [f"{m},{r}" for m, r in zip(CANONICAL_METRICS, cells.split("\n"))]
        written.append(_write_table(out_dir, "correlations.csv", lines))
    if grid is not None:
        lines = ["row,metric,verdict"] + [
            f"{name},{metric},{'yes' if grid.verdicts[(name, metric)] else 'no'}"
            for name in grid.config.rows
            for metric in CANONICAL_METRICS
        ]
        written.append(_write_table(out_dir, "table3_grid.csv", lines))
    if traces is not None:
        for (label, seed) in sorted(traces):
            reports = traces[(label, seed)]
            lines = _report_table(reports, "layer", range(len(reports)), TRACE_COLUMNS[1:])
            written.append(_write_table(out_dir, f"trace_{label}_{seed}.csv", lines))
    return written
