/* Products of spacings behind the Pickands log-spacing sums; the caller
 * (xustat.ustat._spacing_sums) takes the logs.  Build without -ffast-math and
 * with -ffp-contract=off: every operation here is then one correctly rounded
 * subtraction or multiplication, or an exact power-of-two rescaling. */
#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* For each of `rows` rows of v (row r starts at v + r * stride and strictly
 * decreases over its first j_hi entries), p[k] * 2^e[k] is the product of the
 * spacings v[i] - v[k + 1], i = 0..k, multiplied in that order, with p in
 * [1, 2); p and e hold j_hi - 1 entries per row.  Exponents move into e every
 * `every` steps, the most that keeps a product of the row's spacings within
 * 2^+-headroom; where none fits, frexp splits each factor first. */
void spacing_products(const double *restrict v, long rows, long stride, long j_hi,
                      long headroom, double *restrict p, int64_t *restrict e)
{
    const long len = j_hi - 1;
    for (long r = 0; r < rows; r++, v += stride, p += len, e += len) {
        double small = v[0] - v[1];
        for (long i = 1; i < len; i++) {
            double d = v[i] - v[i + 1];
            small = d < small ? d : small;
        }
        int lo, hi;
        frexp(small, &lo);
        frexp(v[0] - v[len], &hi);
        long span = 1 - lo > hi + 1 ? 1 - lo : hi + 1;
        long every = headroom / (span > 1 ? span : 1);
        const int split = every == 0;
        if (split)
            every = headroom;
        for (long k = 0; k < len; k++) {
            p[k] = 1.0;
            e[k] = 0;
        }
        for (long i = 0; i < len; i++) {
            const double top = v[i];
            const double *restrict below = v + i + 1;
            double *restrict pi = p + i;
            int64_t *restrict ei = e + i;
            if (split) {
                for (long q = 0; q < len - i; q++) {
                    int x;
                    pi[q] *= frexp(top - below[q], &x);
                    ei[q] += x;
                }
            } else {
                for (long q = 0; q < len - i; q++)
                    pi[q] *= top - below[q];
            }
            if ((i + 1) % every == 0)
                renormalise(pi + 1, ei + 1, len - i - 1);
        }
        renormalise(p, e, len);
    }
}
