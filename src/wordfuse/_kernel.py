"""The compiled library behind ``numerics.matmul``, the text loaders and writers, built at first use.

``SOURCE`` computes ``a @ b`` for C-contiguous float64 operands in the
order of a naive triple loop: every output entry starts at +0.0 and adds
``a[i, k] * b[k, j]`` for ascending ``k``, one rounded multiply and one
rounded add per step.  For speed, column strips of ``b`` are the outer
loop: each strip is copied once into a contiguous pack buffer, padded with
zeros to the strip's full width, and every tile of rows of ``a`` then
runs ``k`` ascending over it with the tile's sums in vector registers.
The tile is sized to the target's registers when the source is compiled:
8 rows by 24 columns, three 64-byte vectors per row, with AVX-512; 4 rows
by 12 or 6 columns otherwise.  The rows left over after the last full
tile form one smaller tile.  A product with fewer rows than a tile reads
whole strips of ``b`` in place.  None of this changes the order of any
entry's sum.  The caller allocates the pack buffer, ``inner`` times
``wordfuse_matmul_strip`` doubles; the C allocates nothing.
``-ffp-contract=off`` forbids fusing the multiply and the add into one
FMA, which rounds once instead of twice.

The same source parses number text for ``numerics.read_matrix``,
``lexicon.load_embeddings`` and ``lexicon.load_bundle``.  A token must
match ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?``; ``strtod``
converts it, and the token is refused unless ``strtod`` stopped exactly at
its end and the value is finite, so a locale whose decimal point is not
``.`` refuses every fraction instead of misreading it.  On x86-64 most
tokens skip ``strtod`` by Clinger's fast path, carried into the x87's
64-bit mantissa: a value ``m * 10**e`` with at most 19 significant digits
and ``|e| <= 27`` has ``m`` and ``10**|e|`` exact there, so one multiply or
divide rounds it once, to 64 bits.  Rounding that to a double gives the
value rounded once to 53 bits, the bits ``float()`` gives, unless the 64-bit
result lies exactly halfway between two doubles; such a token goes to
``strtod`` too.  ``wordfuse_parse_rows`` reads lines of numbers after an
optional word; ``wordfuse_parse_list`` reads a JSON list of them.  Either
refuses the whole input when anything does not fit, and the caller then
runs its Python reader.

The same source prints numbers for ``numerics.write_matrix`` and
``lexicon.save_bundle``, as ``repr()`` prints them: the shortest decimal
that reads back to the same double, the closest one when several do.  It
finds the digits by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), which needs no bignum: the interval of reals that round to
the double, scaled by 4, is multiplied by a 128-bit power of ten, rounded
to odd, and the one-digit-shorter decimal is taken when exactly one of its
neighbours lies in the interval.  ``_powers_of_ten`` generates the 617
constants from Python integers and appends them to ``SOURCE``.
``wordfuse_format_rows`` joins a row's numbers with a separator and ends
each row with a given text: ``" "`` and ``"\\n"`` for the text matrix
format, ``", "`` and nothing for the data of a bundle tensor, printed as
one row.

``load`` compiles the source with the system ``cc`` into a shared library
cached in the ``__pycache__`` directory next to this file.  The file name
carries a SHA-256 over the source, the flags, ``cc --version`` and the
CPU's feature flags, because a ``-march=native`` build made on another CPU
may use instructions this one lacks.  The compiler writes a temporary
file that ``os.replace`` puts in place, so processes building at once
each end with a whole library.  The file ends with a SHA-256 of the bytes
before it, checked before the library is opened: opening a truncated
library can kill the process with SIGBUS, so a file that fails the check
is built again.  A library is accepted only when its products of
``known_operands`` equal the reference's bit for bit, ``HARD_DECIMALS``
parse to ``float()``'s bits, every one of ``REFUSED_TOKENS`` is refused and
``HARD_DOUBLES`` print as ``repr()`` prints them in every layout; without
a compiler, or when the build or a check fails, ``load`` returns no kernel
and says why.
A library built and accepted here removes the cached libraries of other
keys, left by an earlier source, compiler or CPU.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The tile: MR rows by JB = NV * VW columns, NV vectors of VW doubles per row.  Its
   MR * NV sums, NV vectors of b and a broadcast entry of a fit in the target's
   vector registers: 32 of 64 bytes with AVX-512, otherwise 16 of 32 or 16 bytes */
#if defined(__AVX512F__)
#define VW 8
#define MR 8
#elif defined(__AVX__)
#define VW 4
#define MR 4
#else
#define VW 2
#define MR 4
#endif
#define NV 3
#define JB (NV * VW)

typedef double vec __attribute__((vector_size(VW * sizeof(double))));
/* the same vector at a double's alignment and aliasing doubles, for loads and stores anywhere in an array */
typedef double uvec __attribute__((vector_size(VW * sizeof(double)), aligned(sizeof(double)), may_alias));

/* the doubles of pack that wordfuse_matmul needs per row of b */
const int64_t wordfuse_matmul_strip = JB;

/* out[r, 0:width) = the dot products of the mr rows of a with the JB columns at
   p, row k of them at p + k * ldp, k ascending from +0.0; inlined for each mr */
static inline __attribute__((always_inline)) void tile(const double *restrict a, int64_t inner,
                                                       const double *restrict p, int64_t ldp,
                                                       double *restrict out, int64_t cols, int64_t width,
                                                       const int mr)
{
    vec acc[MR][NV];
    for (int r = 0; r < mr; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = (vec){0.0};
    for (int64_t k = 0; k < inner; ++k) {
        vec y[NV];
        for (int v = 0; v < NV; ++v)
            y[v] = *(const uvec *)(p + k * ldp + v * VW);
        for (int r = 0; r < mr; ++r) {
            const double x = a[r * inner + k];
            for (int v = 0; v < NV; ++v)
                acc[r][v] += x * y[v];
        }
    }
    for (int r = 0; r < mr; ++r) {
        double row[JB];
        for (int v = 0; v < NV; ++v)
            *(uvec *)(row + v * VW) = acc[r][v];
        if (width == JB)  /* a constant size: vector stores */
            memcpy(out + r * cols, row, sizeof row);
        else
            memcpy(out + r * cols, row, (size_t)width * sizeof(double));
    }
}

/* out = a @ b, rows x inner @ inner x cols; pack holds inner * JB doubles */
void wordfuse_matmul(const double *restrict a, const double *restrict b, double *restrict out,
                     int64_t rows, int64_t inner, int64_t cols, double *restrict pack)
{
    for (int64_t j0 = 0; j0 < cols; j0 += JB) {
        const int64_t width = cols - j0 < JB ? cols - j0 : JB;
        /* the strip b[:, j0:j0 + width), read in place by fewer rows than a tile;
           else packed, contiguous and padded with zeros to JB columns (a copy of
           the constant size JB compiles to vector moves, not a call per row) */
        const double *p = b + j0;
        int64_t ldp = cols;
        if (width < JB || rows >= MR) {
            for (int64_t k = 0; k < inner; ++k)
                if (width == JB)
                    memcpy(pack + k * JB, b + k * cols + j0, JB * sizeof(double));
                else {
                    memcpy(pack + k * JB, b + k * cols + j0, (size_t)width * sizeof(double));
                    memset(pack + k * JB + width, 0, (size_t)(JB - width) * sizeof(double));
                }
            p = pack;
            ldp = JB;
        }
        int64_t i = 0;
        for (; i + MR <= rows; i += MR)
            tile(a + i * inner, inner, p, ldp, out + i * cols + j0, cols, width, MR);
        /* the last rows % MR rows, in one tile of that many rows */
#define LAST(m) case m: tile(a + i * inner, inner, p, ldp, out + i * cols + j0, cols, width, m); break
        switch (rows - i) {
#if MR > 4
        LAST(7); LAST(6); LAST(5); LAST(4);
#endif
        LAST(3); LAST(2); LAST(1);
        }
#undef LAST
    }
}

#define DIGIT(p) ((p) < end && (unsigned)(*(p) - '0') < 10)

/* exact powers of ten in x87 extended precision, whose 64-bit mantissa holds 5**27 */
static const long double POW10[28] = {1e0L,  1e1L,  1e2L,  1e3L,  1e4L,  1e5L,  1e6L,  1e7L,  1e8L,  1e9L,
                                      1e10L, 1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L,
                                      1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

/* The number token at s, before end: its end, or NULL when it does not match
   the grammar, strtod stops elsewhere or the value is not finite.  *integral
   says whether the token has neither a fraction nor an exponent. */
static const char *number(const char *s, const char *end, double *value, int *integral)
{
    const char *p = s + (s < end && *s == '-');
    uint64_t m = 0;       /* the significant digits, while there are at most 19 */
    int sig = 0;          /* significant digits seen, leading zeros excluded */
    int64_t e10 = 0, e = 0;
    if (!DIGIT(p))
        return NULL;
    if (*p == '0')
        ++p;
    else
        for (; DIGIT(p); ++p, ++sig)
            m = m * 10 + (uint64_t)(*p - '0');
    *integral = 1;
    if (p < end && *p == '.') {
        if (!DIGIT(p + 1))
            return NULL;
        for (++p; DIGIT(p); ++p, --e10) {
            sig += sig || *p != '0';
            m = m * 10 + (uint64_t)(*p - '0');
        }
        *integral = 0;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        ++p;
        const int negative = p < end && *p == '-';
        p += p < end && (*p == '+' || *p == '-');
        if (!DIGIT(p))
            return NULL;
        for (; DIGIT(p); ++p)
            e = e < 100000 ? e * 10 + (*p - '0') : e;
        e10 += negative ? -e : e;
        *integral = 0;
    }
#if defined(__x86_64__) && LDBL_MANT_DIG == 64
    /* m and 10**|e10| are exact in extended precision, so q is the value rounded
       once to 64 bits; rounding q to a double again gives the value rounded once
       to 53 bits unless q lies exactly halfway between two doubles */
    if (sig <= 19 && e10 >= -27 && e10 <= 27) {
        const long double q = e10 < 0 ? (long double)m / POW10[-e10] : (long double)m * POW10[e10];
        uint64_t mantissa;
        memcpy(&mantissa, &q, sizeof mantissa);
        if ((mantissa & 0x7FF) != 0x400) {
            *value = *s == '-' ? -(double)q : (double)q;
            return p;
        }
    }
#endif
    char *stop;
    *value = strtod(s, &stop);
    return stop == p && isfinite(*value) ? p : NULL;
}

/* Reads `rows` lines of buf[start:len).  With `spans`, a line starts with a
   word, the bytes before its first space, whose [start, end) offsets are
   stored in spans; then come `cols` numbers, each after one or more spaces
   (the first of a line without a word after zero or more), then spaces and
   a '\n' or the end of buf.  Only ASCII whitespace may follow the last line.
   The numbers go to out, row after row.  Returns 0, or -1 when anything
   does not fit.  buf[len] must be readable: strtod may look at it. */
int64_t wordfuse_parse_rows(const char *buf, int64_t start, int64_t len, int64_t rows, int64_t cols,
                            double *restrict out, int64_t *restrict spans)
{
    const char *p = buf + start, *const end = buf + len;
    int integral;
    for (int64_t i = 0; i < rows; ++i) {
        if (spans) {
            const char *word = p;
            while (p < end && *p != ' ' && *p != '\n')
                ++p;
            if (p == word)
                return -1;
            spans[2 * i] = word - buf;
            spans[2 * i + 1] = p - buf;
        }
        for (int64_t j = 0; j < cols; ++j) {
            const char *gap = p;
            while (p < end && *p == ' ')
                ++p;
            if ((p == gap && (spans || j)) || !(p = number(p, end, out++, &integral)))
                return -1;
        }
        while (p < end && *p == ' ')
            ++p;
        if (p < end && *p++ != '\n')
            return -1;
    }
    for (; p < end; ++p)
        if (*p != ' ' && (*p < '\t' || *p > '\r'))
            return -1;
    return 0;
}

/* Reads "[x, y, ...]" at buf + start: exactly `count` numbers, each with a
   fraction or an exponent, separated by ", ".  Returns the offset just past
   the ']', or -1 when anything does not fit. */
int64_t wordfuse_parse_list(const char *buf, int64_t start, int64_t len, int64_t count, double *restrict out)
{
    const char *p = buf + start, *const end = buf + len;
    int integral;
    if (p == end || *p++ != '[')
        return -1;
    for (int64_t i = 0; i < count; ++i) {
        if (i && (end - p < 2 || *p++ != ',' || *p++ != ' '))
            return -1;
        if (!(p = number(p, end, out + i, &integral)) || integral)
            return -1;
    }
    return p < end && *p == ']' ? p + 1 - buf : -1;
}

/* G[j + 292] = floor(10**j * 2**(127 - floor(j * log2(10)))) + 1 for j in [-292, 324], high half first */
static const uint64_t G[617][2];

/* floor(g * c / 2**128) with its last bit set when the bits below are not all zero (round to odd) */
static uint64_t round_to_odd(const uint64_t g[2], uint64_t c)
{
    const unsigned __int128 low = (unsigned __int128)c * g[1];
    const unsigned __int128 y = (unsigned __int128)c * g[0] + (uint64_t)(low >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
}

/* floor(x / 2**n) for an int x of either sign */
static int floor_shift(int x, int n)
{
    return x >= 0 ? x >> n : -((-x + (1 << n) - 1) >> n);
}

/* The shortest decimal d * 10**e that rounds to the positive finite double of
   `bits`, the closest one when several do (Schubfach, Giulietti 2020) */
static uint64_t shortest(uint64_t bits, int *e)
{
    const uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    const int biased = (int)(bits >> 52);
    uint64_t c = fraction;
    int q = -1074;
    if (biased) {
        c |= UINT64_C(1) << 52;
        q = biased - 1075;
        if (q <= 0 && q > -53 && !(c & ((UINT64_C(1) << -q) - 1))) {  /* an integer below 2**53 */
            *e = 0;
            return c >> -q;
        }
    }
    const int even = !(c & 1);
    const int closer = !fraction && biased > 1;  /* the next double down is half as far as the next up */
    /* the reals that round to the double are [cbl, cbr] * 2**(q - 2), the ends included when c is
       even; k = floor(log10(2**q)), or of 3/4 * 2**q when the interval is asymmetric, and
       h = q + floor(log2(10**-k)) + 1 lies in [1, 4] */
    const uint64_t cbl = 4 * c - 2 + closer, cb = 4 * c, cbr = 4 * c + 2;
    const int k = floor_shift(q * 1262611 - (closer ? 524031 : 0), 22);
    const int h = q + floor_shift(-k * 1741647, 19) + 1;
    /* vb is 4 * the double / 10**k, rounded to odd; vbl and vbr the same for the interval's ends */
    const uint64_t *g = G[292 - k];
    const uint64_t vbl = round_to_odd(g, cbl << h), vb = round_to_odd(g, cb << h), vbr = round_to_odd(g, cbr << h);
    const uint64_t lower = vbl + !even, upper = vbr - !even;
    const uint64_t s = vb / 4;
    if (s >= 10) {  /* one digit fewer, when exactly one of its two neighbours lies inside */
        const uint64_t sp = s / 10;
        const int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
        if (up != wp) {
            *e = k + 1;
            return sp + wp;
        }
    }
    const int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    *e = k;
    if (u != w)
        return s + w;
    const uint64_t mid = 4 * s + 2;  /* both inside: the closer, ties to even */
    return s + (vb > mid || (vb == mid && (s & 1)));
}

/* Writes repr() of the finite double x at p; returns the end.  Takes at most 24 bytes. */
static char *print_double(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    bits &= ~(UINT64_C(1) << 63);
    if (!bits) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int e10;
    uint64_t d = shortest(bits, &e10);
    while (d % 10 == 0) {
        d /= 10;
        ++e10;
    }
    char digits[20];
    int n = 20;
    for (; d; d /= 10)
        digits[--n] = (char)('0' + d % 10);
    const char *first = digits + n;
    n = 20 - n;
    const int point = n + e10;  /* the value is 0.<digits> * 10**point */
    if (point <= -4 || point > 16) {  /* repr's exponent form: d.ddde+XX */
        *p++ = *first;
        if (n > 1) {
            *p++ = '.';
            memcpy(p, first + 1, (size_t)n - 1);
            p += n - 1;
        }
        int exponent = point - 1;
        *p++ = 'e';
        *p++ = exponent < 0 ? '-' : '+';
        exponent = exponent < 0 ? -exponent : exponent;
        if (exponent >= 100) {
            *p++ = (char)('0' + exponent / 100);
            exponent %= 100;
        }
        *p++ = (char)('0' + exponent / 10);
        *p++ = (char)('0' + exponent % 10);
    } else if (point <= 0) {
        memcpy(p, "0.000", 2 - (size_t)point);
        p += 2 - point;
        memcpy(p, first, (size_t)n);
        p += n;
    } else if (point < n) {
        memcpy(p, first, (size_t)point);
        p += point;
        *p++ = '.';
        memcpy(p, first + point, (size_t)(n - point));
        p += n - point;
    } else {  /* an integer: its digits, zeros, then ".0" */
        memcpy(p, first, (size_t)n);
        p += n;
        memset(p, '0', (size_t)(point - n));
        p += point - n;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

/* Writes repr() of the rows x cols doubles at x to out, row after row: the
   numbers of a row separated by the sep_len bytes at sep, and the end_len
   bytes at end after each row.  Returns the length written, at most
   rows * (24 * cols + max(cols - 1, 0) * sep_len + end_len), or -1 for a
   non-finite value. */
int64_t wordfuse_format_rows(const double *restrict x, int64_t rows, int64_t cols, const char *sep,
                             int64_t sep_len, const char *end, int64_t end_len, char *restrict out)
{
    char *p = out;
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j, ++x) {
            if (!isfinite(*x))
                return -1;
            for (int64_t s = 0; j && s < sep_len; ++s)
                *p++ = sep[s];
            p = print_double(*x, p);
        }
        for (int64_t s = 0; s < end_len; ++s)
            *p++ = end[s];
    }
    return p - out;
}
"""


def _powers_of_ten() -> str:
    """The C table ``G`` of Schubfach's 617 constants, from exact Python integers.

    ``G[j + 292]`` holds ``floor(10**j * 2**(127 - floor(j * log2(10)))) + 1``
    for ``j`` in [-292, 324], a 128-bit number, high half first.
    """
    rows = []
    for j in range(-292, 325):
        power = 10 ** abs(j)
        if j >= 0:  # 10**j has bit_length() - 1 as floor(log2)
            shift = 128 - power.bit_length()
            g = power << shift if shift >= 0 else power >> -shift
        else:  # 10**-j is no power of two, so floor(log2(10**j)) is -bit_length()
            g = (1 << (127 + power.bit_length())) // power
        g += 1
        rows.append(f"{{{g >> 64:#018x}, {g & (1 << 64) - 1:#018x}}}")
    return "static const uint64_t G[617][2] = {\n" + ",\n".join(rows) + "};\n"


SOURCE += _powers_of_ten()

FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
_DIGEST = 32  # bytes of the SHA-256 that ends each cached library

# signed zeros, subnormals and magnitudes whose products stay finite
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-150, -1e-150, 1e150, -1e150)


# decimals a parser gets wrong unless it rounds correctly, each as float() reads it:
# halfway cases between adjacent doubles (ties to even, and just off a tie;
# 2**60 + 128 is one that the fast path must leave to strtod), 17-20 digit
# mantissas, 2**53 - 1 and 2**53 + 1, the smallest normal double and its
# neighbours, subnormals, underflow to zero, -0 and the largest finite value
HARD_DECIMALS = (
    "0", "-0", "-0.0", "0.1", "1e23", "8.98846567431158e307", "9007199254740991", "9007199254740993",
    "9007199254740995", "9007199254740993.0000000001", "1152921504606847104", "1.152921504606847105e18",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.30000000000000004", "12345678901234567890", "-0.12345678901234567891", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-320", "1e-400", "-1e-400", "0e999",
    "1.7976931348623157e308", "1.7976931348623158E+308", "123456.789e-3", "1e-22", "9007199254740992e22",
)
# tokens outside the grammar, or whose value is not finite: each must be refused
REFUSED_TOKENS = (
    "+1", "1_0", "\u0661", "01", "-01", "1.", ".5", "-", "1e", "1e+", "1.e5", "--1", "1..2", "1,5", "0x10",
    "inf", "-inf", "nan", "Infinity", "1e400", "-1e400", "1.7976931348623159e308", "1\t", "1a", "",
)
# doubles a printer gets wrong unless it finds repr()'s digits and layout: powers of
# two with their neighbours (the interval below a power of two is half as wide),
# the smallest normal and its neighbours, the smallest subnormal and the largest
# double, 2**53 - 2 and 2**53 + 2, the switches to and from the exponent form
# (9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e+16), 17-digit values,
# three-digit exponents, integers and both zeros
HARD_DOUBLES = (
    1.0, 0.5, 2.0, 0.9999999999999999, 1.0000000000000002, 2.2250738585072014e-308, 2.225073858507201e-308,
    2.225073858507202e-308, 5e-324, -1e-323, 2.5e-320, 1.7976931348623157e308, 8.98846567431158e307,
    1.8014398509481984e16, 9007199254740990.0, 9007199254740994.0, 9.999999999999999e-05, 0.0001, 0.001,
    9999999999999998.0, 1e16, 0.30000000000000004, -0.3333333333333333, 1.2345678901234568e17, 1e23,
    1e-100, -1e100, 1e-05, 4.35, 0.1, 100.0, -1.5, 123456.789, -0.0, 0.0,
)


@dataclass(frozen=True)
class Kernel:
    """What ``load`` found: the C library's functions, or None and why NumPy and Python run.

    ``parse_rows(data, start, rows, cols, words)`` returns the ``rows x cols``
    numbers of the lines ``wordfuse_parse_rows`` reads from ``data[start:]``
    and, with ``words``, a ``(rows, 2)`` array of each word's byte span.
    ``parse_list(data, start, count)`` returns the numbers of the JSON list
    at ``data[start]`` and the offset after it.  Either returns None when
    anything does not fit, and allocates nothing before checking that
    ``data`` is long enough to hold the numbers a header promises.
    ``format_rows(m, sep, end)`` is ``sep.join(map(repr, row)) + end`` for
    each row of a 2-D array of finite float64 values, joined, where ``sep``
    and ``end`` are ASCII.
    """

    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    detail: str
    parse_rows: Callable[[bytes, int, int, int, bool], tuple[np.ndarray, np.ndarray | None] | None] | None = None
    parse_list: Callable[[bytes, int, int], tuple[np.ndarray, int] | None] | None = None
    format_rows: Callable[[np.ndarray, str, str], str] | None = None

    @property
    def name(self) -> str:
        return "NumPy" if self.matmul is None else "C"

    def __str__(self) -> str:
        return f"{self.name} ({self.detail})"


def known_operands() -> tuple[np.ndarray, np.ndarray]:
    """The fixed 23x37 @ 37x41 operands whose products the library must reproduce.

    ``load`` checks the products of the last 1, 7 and 23 rows of ``a``
    with ``b``: a 1-row and a 7-row tile reading ``b`` in place, and two
    8-row tiles and a 7-row one over the pack (without AVX-512: the 1-row
    tile, a 4-row and a 3-row tile, and five 4-row tiles and a 3-row one).  41 columns fill one 24-column block and a
    tail of 17 (without AVX-512: 12- or 6-column blocks and a tail).  The entries are
    exact binary fractions at magnitudes 1e-150, 1 and 1e150, with every
    fourth one taken from ``EDGE_VALUES``.
    """
    count = 23 * 37 + 37 * 41
    idx = np.arange(count)
    values = ((idx * 0x9E3779B1) % 2**32 / 2**32 - 0.5) * np.array([1e-150, 1.0, 1e150])[idx % 3]
    values[::4] = np.resize(EDGE_VALUES, values[::4].shape)
    return values[: 23 * 37].reshape(23, 37), values[23 * 37 :].reshape(37, 41)


KNOWN_ROWS = (1, 7, 23)  # load checks the products of this many last rows of known_operands' a


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _bind(path: Path) -> dict[str, Callable]:
    """The library's functions, as ``Kernel`` fields.

    Raises OSError when it cannot be opened, AttributeError for a missing
    function and ValueError for a missing ``wordfuse_matmul_strip``.
    """
    library = ctypes.CDLL(str(path))
    product = library.wordfuse_matmul
    product.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
    product.restype = None
    strip = ctypes.c_int64.in_dll(library, "wordfuse_matmul_strip").value
    rows_fn, list_fn = library.wordfuse_parse_rows, library.wordfuse_parse_list
    # c_char_p passes a bytes object's own buffer, which ends with a NUL byte
    rows_fn.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 2
    list_fn.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
    rows_fn.restype = list_fn.restype = ctypes.c_int64
    print_rows = library.wordfuse_format_rows
    print_rows.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_char_p, ctypes.c_int64] * 2 \
        + [ctypes.c_void_p]
    print_rows.restype = ctypes.c_int64

    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` for C-contiguous, aligned float64 ``a`` and ``b`` whose inner sizes match; any size may be 0."""
        out = np.empty((a.shape[0], b.shape[1]))
        pack = np.empty(a.shape[1] * strip)  # one column strip of b at a time
        product(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1], b.shape[1], pack.ctypes.data)
        return out

    def parse_rows(data: bytes, start: int, rows: int, cols: int, words: bool):
        # a number and its separator take at least two bytes; the last line may lack its newline
        if 2 * rows * cols > len(data) - start + 1:
            return None
        out = np.empty((rows, cols))
        spans = np.empty((rows, 2), dtype=np.int64) if words else None
        if rows_fn(data, start, len(data), rows, cols, out.ctypes.data, None if spans is None else spans.ctypes.data):
            return None
        return out, spans

    def parse_list(data: bytes, start: int, count: int):
        if 2 * count > len(data) - start:  # '[', ']' and a ", " or more per number
            return None
        out = np.empty(count)
        end = list_fn(data, start, len(data), count, out.ctypes.data)
        return None if end < 0 else (out, end)

    def format_rows(m: np.ndarray, sep: str, end: str) -> str:
        x = np.require(m, np.float64, "CA")
        rows, cols = x.shape
        sep_bytes, end_bytes = sep.encode("ascii"), end.encode("ascii")
        # a number prints in at most 24 bytes
        size = rows * (24 * cols + max(cols - 1, 0) * len(sep_bytes) + len(end_bytes))
        out = np.empty(size, dtype=np.uint8)
        length = print_rows(x.ctypes.data, rows, cols, sep_bytes, len(sep_bytes), end_bytes, len(end_bytes),
                            out.ctypes.data)
        if not 0 <= length <= size:
            raise RuntimeError(f"wordfuse_format_rows wrote {length} bytes to a buffer of {size}")
        return str(memoryview(out)[:length], "ascii")

    return {"matmul": matmul, "parse_rows": parse_rows, "parse_list": parse_list, "format_rows": format_rows}


def _parses_like_float(parse_rows, parse_list) -> bool:
    """Whether ``HARD_DECIMALS`` give ``float()``'s bits, in a row and in a list, and ``REFUSED_TOKENS`` are refused."""
    want = np.array([float(s) for s in HARD_DECIMALS])
    row = parse_rows(" ".join(HARD_DECIMALS).encode(), 0, 1, len(HARD_DECIMALS), False)
    fractions = [s for s in HARD_DECIMALS if not s.lstrip("-").isdigit()]  # lists take no integers
    listed = parse_list(f"[{', '.join(fractions)}]".encode(), 0, len(fractions))
    return (
        row is not None and np.array_equal(row[0].view(np.uint64), want[None, :].view(np.uint64))
        and listed is not None
        and np.array_equal(listed[0].view(np.uint64), np.array([float(s) for s in fractions]).view(np.uint64))
        and all(parse_rows(f"{s}\n".encode(), 0, 1, 1, False) is None for s in REFUSED_TOKENS)
    )


def _prints_like_repr(format_rows) -> bool:
    """Whether ``HARD_DOUBLES`` print as ``repr()`` prints them, in a list, in a row and in a column."""
    values, want = np.array(HARD_DOUBLES), [repr(x) for x in HARD_DOUBLES]
    return (
        format_rows(values[None, :], ", ", "") == ", ".join(want)
        and format_rows(values[None, :], " ", "\n") == " ".join(want) + "\n"
        and format_rows(values[:, None], " ", "\n") == "".join(f"{text}\n" for text in want)
    )


def _intact(path: Path) -> bool:
    """Whether ``path`` ends with the SHA-256 of the bytes before it."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > _DIGEST and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:]


def _build(cc: str, path: Path) -> None:
    """Compile ``SOURCE`` to ``path`` by way of a temporary file.

    Raises OSError, or ``subprocess.TimeoutExpired`` for a compiler that hangs.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
            input=SOURCE, capture_output=True, text=True, errors="replace", timeout=300,
        )
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [""]
            raise OSError(f"cc exited {done.returncode}: {lines[-1]}")
        library = tmp.read_bytes()
        with open(tmp, "ab") as f:  # the loader ignores bytes after the last section
            f.write(hashlib.sha256(library).digest())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def load(reference: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    """Build or reuse the library of ``SOURCE`` and ``FLAGS`` in ``CACHE_DIR``; check it against ``reference``.

    Its number parser is checked against ``float()``, its printer against ``repr()``.

    Never raises for a missing compiler, a failed build or a bad cached
    file: the returned ``Kernel`` then has no ``matmul`` and its detail
    says why.
    """
    cc = shutil.which("cc")
    if cc is None:
        return Kernel(None, "no C compiler: 'cc' is not on PATH")
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, text=True, errors="replace", timeout=60)
        key = hashlib.sha256("\0".join([SOURCE, *FLAGS, version.stdout, _cpu_flags()]).encode())
        path = Path(CACHE_DIR) / f"wordfuse_matmul-{key.hexdigest()[:32]}.so"
        built = not _intact(path)
        if built:
            _build(cc, path)
        functions = _bind(path)
    except (OSError, AttributeError, ValueError, subprocess.SubprocessError) as err:
        return Kernel(None, f"build error: {err}")
    a, b = known_operands()
    for rows in KNOWN_ROWS:
        got, want = functions["matmul"](a[-rows:], b), reference(a[-rows:], b)
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return Kernel(None, f"known-answer mismatch: {path} differs from the NumPy loop")
    if not _parses_like_float(functions["parse_rows"], functions["parse_list"]):
        return Kernel(None, f"known-answer mismatch: {path} parses numbers unlike float()")
    if not _prints_like_repr(functions["format_rows"]):
        return Kernel(None, f"known-answer mismatch: {path} prints numbers unlike repr()")
    if built:
        _prune(path)
    return Kernel(**functions, detail=str(path))


def _prune(current: Path) -> None:
    """Remove the libraries of other keys beside ``current``, where the cache allows it.

    Only finished libraries match: a build in progress is a ``.tmp`` file.
    """
    for stale in current.parent.glob("wordfuse_matmul-*.so"):
        if stale != current:
            with contextlib.suppress(OSError):  # a read-only install keeps them
                stale.unlink()
