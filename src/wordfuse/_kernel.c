/* The compiled library of wordfuse: an exact-order matmul, a number parser and
   a number printer.  wordfuse/_kernel.py compiles this file, with the table G
   that _kernel._powers_of_ten generates appended, and checks each function
   against its NumPy or Python twin before using it.

   wordfuse_matmul computes a @ b for C-contiguous float64 operands in the
   order of a naive triple loop: every output entry starts at +0.0 and adds
   a[i, k] * b[k, j] for ascending k, one rounded multiply and one rounded add
   per step.  For speed, column strips of b are the outer loop: each strip is
   copied once into a contiguous pack buffer, padded with zeros to the strip's
   full width, and every tile of rows of a then runs k ascending over it with
   the tile's sums in vector registers (the tile is sized below).  The rows
   left over after the last full tile form one smaller tile.  None of this
   changes the order of any entry's sum.  The caller allocates the pack
   buffer, inner times wordfuse_matmul_strip doubles; the C allocates
   nothing.  The build's -ffp-contract=off forbids fusing the multiply and
   the add into one FMA, which rounds once instead of twice.

   wordfuse_parse_rows and wordfuse_parse_list parse number text.  A token
   must match -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; strtod converts
   it, and the token is refused unless strtod stopped exactly at its end and
   the value is finite, so a locale whose decimal point is not '.' refuses
   every fraction instead of misreading it.  On x86-64 most tokens skip strtod
   by Clinger's fast path, carried into the x87's 64-bit mantissa: a value
   m * 10**e with at most 19 significant digits and |e| <= 27 has m and
   10**|e| exact there, so one multiply or divide rounds it once, to 64 bits.
   Rounding that to a double gives the value rounded once to 53 bits, the bits
   Python's float() gives, unless the 64-bit result lies exactly halfway
   between two doubles; such a token goes to strtod too.  Either function
   refuses the whole input when anything does not fit, and the caller then
   runs its Python reader.

   wordfuse_format_rows prints numbers as Python's repr() prints them: the
   shortest decimal that reads back to the same double, the closest one when
   several do.  It finds the digits by Schubfach (R. Giulietti, "The Schubfach
   way to render doubles", 2020), which needs no bignum: the interval of reals
   that round to the double, scaled by 4, is multiplied by a 128-bit power of
   ten, rounded to odd, and the one-digit-shorter decimal is taken when
   exactly one of its neighbours lies in the interval. */

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
   p, row k of them at p + k * JB, k ascending from +0.0; inlined for each mr */
static inline __attribute__((always_inline)) void tile(const double *restrict a, int64_t inner,
                                                       const double *restrict p, double *restrict out,
                                                       int64_t cols, int64_t width, const int mr)
{
    vec acc[MR][NV];
    for (int r = 0; r < mr; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = (vec){0.0};
    for (int64_t k = 0; k < inner; ++k) {
        vec y[NV];
        for (int v = 0; v < NV; ++v)
            y[v] = *(const uvec *)(p + k * JB + v * VW);
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
        /* the strip b[:, j0:j0 + width), packed, contiguous and padded with zeros to JB
           columns (a copy of the constant size JB compiles to vector moves, not a call per row) */
        for (int64_t k = 0; k < inner; ++k)
            if (width == JB)
                memcpy(pack + k * JB, b + k * cols + j0, JB * sizeof(double));
            else {
                memcpy(pack + k * JB, b + k * cols + j0, (size_t)width * sizeof(double));
                memset(pack + k * JB + width, 0, (size_t)(JB - width) * sizeof(double));
            }
        int64_t i = 0;
        for (; i + MR <= rows; i += MR)
            tile(a + i * inner, inner, pack, out + i * cols + j0, cols, width, MR);
        /* the last rows % MR rows, in one tile of that many rows */
#define LAST(m) case m: tile(a + i * inner, inner, pack, out + i * cols + j0, cols, width, m); break
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
