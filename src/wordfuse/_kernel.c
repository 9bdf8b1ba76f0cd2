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

   wordfuse_parse_rows parses number text, one piece of a file at a time:
   whole lines of a table, or numbers of a JSON list read as lines of one
   number each, ended by ',' in place of '\n' and cut after a ',' or at the
   list's ']'.  A token must match
   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and must not be -0, which
   JSON reads as the integer 0 and float() as -0.0.  Its digits are read eight
   at a time where eight remain in the piece (one 64-bit word: a test that all
   eight are ASCII digits, then three multiplies).  A value m * 10**e with at
   most 19 significant digits and |e| <= 27 is converted by Eisel-Lemire (D.
   Lemire, "Number parsing at a gigabyte per second", Software: Practice and
   Experience 51(8), 2021): m times the 128-bit power of five of G, the table
   the printer uses, gives the double's bits rounded once, the bits Python's
   float() gives.  strtod converts every other token, and any whose product is
   in doubt; the token is refused unless strtod stopped exactly at its end and
   the value is finite, so a locale whose decimal point is not '.' refuses
   every fraction that reaches strtod instead of misreading it.  The function
   refuses the whole piece when anything does not fit, and the caller then
   runs its Python reader.  buf[len] must be readable and must not continue a
   number: strtod may look at it.

   wordfuse_format_rows prints numbers as Python's repr() prints them: the
   shortest decimal that reads back to the same double, the closest one when
   several do.  It finds the digits by Schubfach (R. Giulietti, "The Schubfach
   way to render doubles", 2020), which needs no bignum: the interval of reals
   that round to the double, scaled by 4, is multiplied by a 128-bit power of
   ten, rounded to odd, and the one-digit-shorter decimal is taken when
   exactly one of its neighbours lies in the interval.  The digits are
   written two at a time from the table PAIRS, in three independent parts
   (the first digit and two words of eight), and they, the separators and
   the row ends are copied in pieces of a fixed size, which may write past
   the text's end: the caller's buffer holds wordfuse_format_slack bytes
   more than the longest text.  On a 2-vCPU Xeon a number like a bundle
   weight takes 32-37 ns, 14-16 of them in Schubfach. */

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

/* G[j + 292] = floor(10**j * 2**(127 - floor(j * log2(10)))) + 1 for j in [-292, 324], high half first */
static const uint64_t G[617][2];

/* floor(x / 2**n) for an int x of either sign */
static int floor_shift(int x, int n)
{
    return x >= 0 ? x >> n : -((-x + (1 << n) - 1) >> n);
}

#define DIGIT(p) ((p) < end && (unsigned)(*(p) - '0') < 10)

/* The digits at p, before end, appended to *m (mod 2**64); returns their end.
   On a little-endian target eight at a time while eight remain: one test of
   the word, and its value by three multiplies */
static const char *digits(const char *p, const char *end, uint64_t *m)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    for (uint64_t v; end - p >= 8; p += 8) {
        memcpy(&v, p, sizeof v);
        if (((v + 0x4646464646464646) | (v - 0x3030303030303030)) & 0x8080808080808080)
            break;  /* a byte that is no digit */
        v -= 0x3030303030303030;
        v = v * 10 + (v >> 8);  /* a pair of digits in the low byte of each 16 bits */
        v = ((v & 0x000000FF000000FF) * 0x000F424000000064 + ((v >> 16) & 0x000000FF000000FF) * 0x0000271000000001)
            >> 32;
        *m = *m * 100000000 + v;
    }
#endif
    for (; DIGIT(p); ++p)
        *m = *m * 10 + (uint64_t)(*p - '0');
    return p;
}

/* The bits of the double nearest m * 10**e10, ties to even, for 0 < m < 2**64
   and |e10| <= 27, by Eisel-Lemire; 0 leaves the token to strtod.  w, m
   shifted up to its top bit, times the 128-bit 5**e10 of G (G - 1, exactly
   5**e10, when e10 >= 0; G, rounded up, otherwise) gives the double's 53
   bits, one more to round by, and the bits below them.  Every such value
   lies between 1e-27 and 2e46, so its exponent is a normal double's. */
static int eisel_lemire(uint64_t m, int e10, uint64_t *bits)
{
    const uint64_t *g = G[292 + e10];
    const uint64_t high_g = g[0], low_g = e10 >= 0 ? 0 : g[1];  /* 5**e10 < 2**64 fills G - 1's high word */
    const int lz = __builtin_clzll(m);
    const uint64_t w = m << lz;
    unsigned __int128 product = (unsigned __int128)w * high_g;
    /* the low word adds less than w: it changes the kept bits only when the 9 below them are all ones */
    if (((uint64_t)(product >> 64) & 0x1FF) == 0x1FF)
        product += (uint64_t)(((unsigned __int128)w * low_g) >> 64);
    const uint64_t high = (uint64_t)(product >> 64), low = (uint64_t)product;
    if (low == UINT64_MAX)  /* a carry may still be missing: doubtful */
        return 0;
    const int upper = (int)(high >> 63), shift = upper + 9;
    uint64_t mantissa = high >> shift;
    int biased = floor_shift(217706 * e10, 16) + 1086 + upper - lz;
    /* exactly halfway between two doubles, which only -4 <= e10 <= 23 allows: round down to even */
    if (low <= 1 && e10 >= -4 && e10 <= 23 && (mantissa & 3) == 1 && mantissa << shift == high)
        mantissa &= ~UINT64_C(1);
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    if (mantissa >> 53) {  /* rounded up to the next power of two */
        mantissa >>= 1;
        ++biased;
    }
    *bits = (mantissa & ~(UINT64_C(1) << 52)) | (uint64_t)biased << 52;
    return 1;
}

/* The number token at s, before end: its end, or NULL when it does not match
   the grammar, is -0, strtod stops elsewhere or the value is not finite. */
static const char *number(const char *s, const char *end, double *value)
{
    const int negative = s < end && *s == '-';
    const char *p = s + negative;
    uint64_t m = 0;  /* the significant digits, while there are at most 19 */
    int64_t sig = 0, e10 = 0, e = 0;  /* sig counts the digits from the first nonzero one */
    if (!DIGIT(p))
        return NULL;
    if (*p == '0')
        ++p;
    else {
        const char *first = p;
        p = digits(p, end, &m);
        sig = p - first;
    }
    if (p < end && *p == '.') {
        if (!DIGIT(p + 1))
            return NULL;
        const char *fraction = ++p;
        if (!sig)  /* the zeros of 0.00... */
            while (p < end && *p == '0')
                ++p;
        const char *first = p;
        p = digits(p, end, &m);
        sig += p - first;
        e10 = fraction - p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        ++p;
        const int below = p < end && *p == '-';
        p += p < end && (*p == '+' || *p == '-');
        if (!DIGIT(p))
            return NULL;
        for (; DIGIT(p); ++p)
            e = e < 100000 ? e * 10 + (*p - '0') : e;
        e10 += below ? -e : e;
    }
    if (!m && negative && p == s + 2)
        return NULL;  /* -0: the integer 0 to JSON, -0.0 to float() (m first: it is 0 only for zeros) */
    uint64_t bits = 0;
    if (sig <= 19 && e10 >= -27 && e10 <= 27 && (!m || eisel_lemire(m, (int)e10, &bits))) {
        bits |= (uint64_t)negative << 63;
        memcpy(value, &bits, sizeof bits);
        return p;
    }
    char *stop;
    *value = strtod(s, &stop);
    return stop == p && isfinite(*value) ? p : NULL;
}

/* Reads the lines of the piece buf[0:len), at most `rows` of them.  With
   `spans`, a line starts with a word, the bytes before its first space, whose
   [start, end) offsets in buf are stored in spans; then come `cols` numbers,
   each after one or more spaces (the first of a line without a word after
   zero or more), then spaces and the byte `eol` or the end of the piece.  The
   `rows`-th line ends with '\n' in place of `eol`, so a list's last number
   takes no ','; only ASCII whitespace may follow it.  The numbers go to out,
   row after row.  Returns the lines read, or -1 when anything does not fit. */
int64_t wordfuse_parse_rows(const char *buf, int64_t len, int64_t rows, int64_t cols, double *restrict out,
                            int64_t *restrict spans, char eol)
{
    const char *p = buf, *const end = buf + len;
    int64_t i = 0;
    for (; i < rows && p < end; ++i) {
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
            if ((p == gap && (spans || j)) || !(p = number(p, end, out++)))
                return -1;
        }
        while (p < end && *p == ' ')
            ++p;
        if (p < end && *p++ != (i + 1 < rows ? eol : '\n'))
            return -1;
    }
    for (; p < end; ++p)
        if (*p != ' ' && (*p < '\t' || *p > '\r'))
            return -1;
    return i;
}

/* floor(g * c / 2**128) with its last bit set when the bits below are not all zero (round to odd) */
static uint64_t round_to_odd(const uint64_t g[2], uint64_t c)
{
    const unsigned __int128 low = (unsigned __int128)c * g[1];
    const unsigned __int128 y = (unsigned __int128)c * g[0] + (uint64_t)(low >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
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
    /* one digit fewer when exactly one of its two neighbours lies inside; else s or s + 1, the one
       inside, or the closer when both are (ties to even).  Both are found and one is picked without
       a branch: for weights like a bundle's, 16 and 17 digits are about equally common */
    const uint64_t s = vb / 4, sp = s / 10, mid = 4 * s + 2;
    const int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
    const int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    const int shorter = (s >= 10) & (up != wp);
    const uint64_t near = s + (u != w ? (uint64_t)w : (uint64_t)((vb > mid) | ((vb == mid) & (s & 1))));
    *e = k + shorter;
    return shorter ? sp + wp : near;
}

/* "00" to "99", the two digits of each number below 100 */
static const char PAIRS[200] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                               "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                               "8081828384858687888990919293949596979899";

/* 10**i for i in [0, 17] */
static const uint64_t POW10[18] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000, 10000000000, 100000000000,
    1000000000000, 10000000000000, 100000000000000, 1000000000000000, 10000000000000000, 100000000000000000};

/* The 8 digits of v < 10**8, two at a time from PAIRS, as the bytes of one word */
static inline uint64_t eight_digits(uint32_t v)
{
    const uint32_t high = v / 10000, low = v % 10000;
    char text[8];
    memcpy(text, PAIRS + 2 * (high / 100), 2);
    memcpy(text + 2, PAIRS + 2 * (high % 100), 2);
    memcpy(text + 4, PAIRS + 2 * (low / 100), 2);
    memcpy(text + 6, PAIRS + 2 * (low % 100), 2);
    uint64_t word;
    memcpy(&word, text, sizeof word);
    return word;
}

/* Writes repr() of the finite double x at p; returns the end.  The text takes
   at most 24 bytes, and every byte written lies within 26 bytes of p: the
   digits are copied in words of a fixed size, which may write bytes after
   the text's end. */
static char *print_double(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    *p = '-';
    p += bits >> 63;
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
    /* the n digits of d, by its bit length and POW10 */
    int n = (64 - __builtin_clzll(d)) * 1233 >> 12;
    n += d >= POW10[n];
    /* d's digits left-aligned in 17, then zeros, in three independent parts: the first and two words of 8 */
    const uint64_t left = d * POW10[17 - n], rest = left % POW10[16];
    const char first = (char)('0' + left / POW10[16]);
    const uint64_t high = eight_digits((uint32_t)(rest / 100000000)), low = eight_digits((uint32_t)(rest % 100000000));
    const int point = n + e10;  /* the value is 0.<digits> * 10**point */
    if (point <= -4 || point > 16) {  /* repr's exponent form: d.ddde+XX */
        p[0] = first;
        p[1] = '.';
        memcpy(p + 2, &high, 8);
        memcpy(p + 10, &low, 8);
        p += n > 1 ? n + 1 : 1;
        int exponent = point - 1;
        *p++ = 'e';
        *p++ = exponent < 0 ? '-' : '+';
        exponent = exponent < 0 ? -exponent : exponent;
        if (exponent >= 100) {
            *p++ = (char)('0' + exponent / 100);
            exponent %= 100;
        }
        memcpy(p, PAIRS + 2 * exponent, 2);
        return p + 2;
    }
    if (point <= 0) {  /* 0.000ddd */
        memcpy(p, "0.000", 5);
        p += 2 - point;
        p[0] = first;
        memcpy(p + 1, &high, 8);
        memcpy(p + 9, &low, 8);
        return p + n;
    }
    /* the digits before the point, an integer's zeros among them, then the point */
    char digits[25];
    digits[0] = first;
    memcpy(digits + 1, &high, 8);
    memcpy(digits + 9, &low, 8);
    memcpy(digits + 17, "00000000", 8);
    memcpy(p, digits, 16);
    if (point >= n) {
        memcpy(p + point, ".0", 2);
        return p + point + 2;
    }
    p[point] = '.';
    if (n - point <= 8)  /* the fraction, in 8 bytes or in 16 (then point <= 8) */
        memcpy(p + point + 1, digits + point, 8);
    else
        memcpy(p + point + 1, digits + point, 16);
    return p + n + 1;
}

/* the bytes wordfuse_format_rows may write past the most its text takes */
const int64_t wordfuse_format_slack = 8;

/* Writes repr() of the count finite doubles at x to out, as rows of cols
   numbers of which the first is at column col: a number not at column 0
   follows the sep_len bytes at sep, and one at column cols - 1 is followed
   by the end_len bytes at end.  sep and end are read as 8 bytes each, and
   sep_len and end_len are at most 8.  Returns the length written, or -1 for
   a non-finite value.  The text takes at most 24 bytes a number plus its
   separators and row ends, and out must hold wordfuse_format_slack bytes
   more: a number's digits and a separator or row end are each copied in
   pieces of a fixed size, which may run past the text's end. */
int64_t wordfuse_format_rows(const double *restrict x, int64_t count, int64_t cols, int64_t col,
                             const char *sep, int64_t sep_len, const char *end, int64_t end_len,
                             char *restrict out)
{
    uint64_t sep8, end8;
    memcpy(&sep8, sep, 8);
    memcpy(&end8, end, 8);
    char *p = out;
    for (int64_t i = 0; i < count; ++i) {
        if (!isfinite(x[i]))
            return -1;
        memcpy(p, &sep8, 8);
        p += col ? sep_len : 0;
        p = print_double(x[i], p);
        if (++col == cols) {
            memcpy(p, &end8, 8);
            p += end_len;
            col = 0;
        }
    }
    return p - out;
}
