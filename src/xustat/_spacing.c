/* The tie scan and the products of spacings behind the Pickands log-spacing
 * sums; the caller (xustat.ustat._spacing_sums) takes the logs.  Build without
 * -ffast-math and with -ffp-contract=off: every operation here is then one
 * correctly rounded subtraction or multiplication, an IEEE comparison, or an
 * exact power-of-two rescaling, and products keep the order written. */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* How many leading entries k of v (at most j_hi, the j-th at v[j * step])
 * strictly decrease, their smallest adjacent spacing (+inf when k = 1) and
 * their largest spacing v[0] - v[k - 1].  A zero, NaN or infinite spacing
 * ends the prefix, and so does an overflowing v[0] - v[j] after finite
 * adjacent spacings (1e308, 0, -1e308): none has a finite log. */
static long scan_row(const double *restrict v, long step, long j_hi,
                     double *restrict small, double *restrict large)
{
    double lo = INFINITY;
    long k = 1;
    for (; k < j_hi; k++) {
        const double d = v[(k - 1) * step] - v[k * step];
        if (!(d > 0.0 && d < INFINITY && v[0] - v[k * step] < INFINITY))
            break;
        lo = d < lo ? d : lo;
    }
    *small = lo;
    *large = v[0] - v[(k - 1) * step];
    return k;
}

/* scan_row for each of `rows` rows, row r at v + r * stride; strides count
 * elements and may be negative. */
void spacing_scan(const double *v, long rows, long stride, long step, long j_hi,
                  int64_t *restrict k, double *restrict small, double *restrict large)
{
    for (long r = 0; r < rows; r++, v += stride)
        k[r] = scan_row(v, step, j_hi, &small[r], &large[r]);
}

/* Move the binary exponents of positive normal p[0..len) into e, leaving p in
 * [1, 2): subtracting the unbiased exponent from the exponent field of the
 * bit pattern changes p by an exact power of two. */
static void renormalise(double *restrict p, int64_t *restrict e, long len)
{
    for (long k = 0; k < len; k++) {
        uint64_t bits;
        memcpy(&bits, &p[k], sizeof bits);
        int64_t x = (int64_t)(bits >> 52) - 1023;
        e[k] += x;
        bits -= (uint64_t)x << 52;
        memcpy(&p[k], &bits, sizeof bits);
    }
}

/* Rank i alone: p[k] *= v[i] - v[k + 1] for k = i..len-1; with `split`,
 * frexp moves each factor's exponent into e first. */
static void rank_step(const double *restrict v, long i, long len, int split,
                      double *restrict p, int64_t *restrict e)
{
    const double top = v[i];
    if (split) {
        for (long k = i; k < len; k++) {
            int x;
            p[k] *= frexp(top - v[k + 1], &x);
            e[k] += x;
        }
    } else {
        for (long k = i; k < len; k++)
            p[k] *= top - v[k + 1];
    }
}

/* For each of `rows` rows of v (row r starts at v + r * stride and strictly
 * decreases over its first j_hi entries), p[k] * 2^e[k] is the product of the
 * spacings v[i] - v[k + 1], i = 0..k, multiplied in that order, with p in
 * [1, 2); p and e hold j_hi - 1 entries per row.  Exponents move into e every
 * `every` ranks, the most that keeps a product of the row's spacings (its
 * span from scan_row) within 2^+-headroom; where none fits, frexp splits each
 * factor first.  With every >= 4 one pass takes four ranks i..i+3: p[i],
 * p[i + 1] and p[i + 2] take their one to three factors, then each p[k],
 * k >= i + 3, is loaded once, multiplied by the four spacings in rank order
 * and stored once.  Exponents then move every 4 floor(every / 4) ranks, a
 * multiple of the tile, and the last len mod 4 ranks run one at a time on
 * the same schedule. */
void spacing_products(const double *restrict v, long rows, long stride, long j_hi,
                      long headroom, double *restrict p, int64_t *restrict e)
{
    const long len = j_hi - 1;
    for (long r = 0; r < rows; r++, v += stride, p += len, e += len) {
        double small, large;
        int lo, hi;
        scan_row(v, 1, j_hi, &small, &large);
        frexp(small, &lo);
        frexp(large, &hi);
        long span = 1 - lo > hi + 1 ? 1 - lo : hi + 1;
        long every = headroom / (span > 1 ? span : 1);
        const int split = every == 0;
        if (split)
            every = headroom;
        for (long k = 0; k < len; k++) {
            p[k] = 1.0;
            e[k] = 0;
        }
        long i = 0;
        if (every >= 4 && !split) {
            every -= every % 4;
            for (; i + 4 <= len; i += 4) {
                const double a = v[i], b = v[i + 1], c = v[i + 2], d = v[i + 3];
                p[i] *= a - b;
                p[i + 1] = p[i + 1] * (a - c) * (b - c);
                p[i + 2] = p[i + 2] * (a - d) * (b - d) * (c - d);
                for (long k = i + 3; k < len; k++) {
                    const double x = v[k + 1];
                    p[k] = p[k] * (a - x) * (b - x) * (c - x) * (d - x);
                }
                if ((i + 4) % every == 0)
                    renormalise(p + i + 4, e + i + 4, len - i - 4);
            }
        }
        for (; i < len; i++) {
            rank_step(v, i, len, split, p, e);
            if ((i + 1) % every == 0)
                renormalise(p + i + 1, e + i + 1, len - i - 1);
        }
        renormalise(p, e, len);
    }
}
