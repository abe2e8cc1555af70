/* The loops of xustat that are not transcendental functions: the tie scan
 * and the products of spacings behind the Pickands log-spacing sums, the
 * passes of the Pickands weights, the extraction of the exact reduction, and
 * the GP profile scan and score.  Every log, log1p and exp stays with the
 * caller (xustat.ustat, xustat.estimators), in numpy, except the pruning
 * bound of profile_prune.  Build without -ffast-math and with
 * -ffp-contract=off: every other operation here is then one correctly
 * rounded addition, subtraction, multiplication or division, an IEEE
 * comparison, or an exact power-of-two rescaling, each taken in the order
 * written, so the results have numpy's bits.  The score's sums copy the
 * order of numpy's pairwise summation (pairwise_sum), which np.add.reduce
 * takes over a contiguous vector. */
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
 * the same schedule.  A row whose scan_row prefix is shorter than j_hi is
 * skipped, its p and e left as they were; returns the number of such rows. */
long spacing_products(const double *restrict v, long rows, long stride, long j_hi,
                      long headroom, double *restrict p, int64_t *restrict e)
{
    const long len = j_hi - 1;
    long skipped = 0;
    for (long r = 0; r < rows; r++, v += stride, p += len, e += len) {
        double small, large;
        int lo, hi;
        if (scan_row(v, 1, j_hi, &small, &large) < j_hi) {
            skipped++;
            continue;
        }
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
    return skipped;
}

/* The log binomial ratios of the Pickands weights, for each of `rows` block
 * sizes m = ms[i], row i at w + i * cols: w[0] = head[i], and w[t] = (d_1 +
 * ... + d_t) + head[i] with d_t = ln_desc[m - 2 + t] - ln_desc[1 + t]
 * (ln_desc[u] = ln(n - u)), the partial sums taken left to right, for t <
 * n - m + 2 and t < cols.  For m > 3 the walk stops at the first t whose
 * w[t] + ln_desc[t + 2] is below cut[i]: keep[i] = t and logb[i] is that
 * value.  A row that runs to its end keeps n - m + 2 entries with logb[i] =
 * -inf, and one that runs into cols first keeps cols with logb[i] = +inf.
 * Entries keep[i] .. width - 1 become 0, width the largest keep, which is
 * returned; nothing at or past cols is written. */
long weight_logs(const double *restrict ln_desc, long n, const int64_t *restrict ms, long rows,
                 const double *restrict head, const double *restrict cut, long cols,
                 double *restrict w, int64_t *restrict keep, double *restrict logb)
{
    long width = 0;
    double *row = w;
    for (long i = 0; i < rows; i++, row += cols) {
        const long len = n - ms[i] + 2, end = len < cols ? len : cols;
        const double *up = ln_desc + ms[i] - 2, *down = ln_desc + 1;
        const int cutting = ms[i] > 3;  /* m = 3 has constant ratios */
        double acc = 0.0;
        logb[i] = len <= cols ? -INFINITY : INFINITY;
        row[0] = head[i];
        long t = 1;
        for (; t < end; t++) {
            const double d = up[t] - down[t];
            acc = t == 1 ? d : acc + d;
            row[t] = acc + head[i];
            if (cutting && row[t] + down[t + 1] < cut[i]) {
                logb[i] = row[t] + down[t + 1];
                break;
            }
        }
        keep[i] = t;
        width = t > width ? t : width;
    }
    for (long i = 0; i < rows; i++, w += cols)
        for (long t = keep[i]; t < width; t++)
            w[t] = 0.0;
    return width;
}

/* Multiply entry t < width of each weight row (row i at w + i * stride,
 * m = ms[i], j = t + 2) by the block factor 2 (n - j + 1) / (m - 2) - j,
 * entries t >= keep[i] becoming 0, then by s[t] unless s is NULL. */
void weight_factors(long n, const int64_t *restrict ms, const int64_t *restrict keep, long rows,
                    long width, long stride, const double *restrict s, double *restrict w)
{
    for (long i = 0; i < rows; i++, w += stride) {
        const long len = keep[i];
        const double block = (double)(ms[i] - 2);
        for (long t = 0; t < width; t++) {
            const double j = (double)(t + 2);
            const double v = t < len ? w[t] * (2.0 * ((double)n - j + 1.0) / block - j) : 0.0;
            w[t] = s ? v * s[t] : v;
        }
    }
}

/* The largest |p[t]|, t < J: the largest bit pattern with the sign cleared,
 * which orders non-negative doubles as their values do and puts NaN above
 * +inf. */
static double abs_max(const double *p, long J)
{
    uint64_t top = 0;
    for (long t = 0; t < J; t++) {
        uint64_t bits;
        memcpy(&bits, &p[t], sizeof bits);
        bits &= ~(UINT64_C(1) << 63);
        top = bits > top ? bits : top;
    }
    double big;
    memcpy(&big, &top, sizeof big);
    return big;
}

/* The error-free extraction behind xustat.ustat._exact_sums, row by row for
 * `rows` rows of J terms (row r at P + r * stride).  A row whose largest
 * |term| is NaN or outside [lo, hi] gets fits[r] = 0 and zeros.  Otherwise
 * each of `levels` levels takes sigma = 2^(c + e), 2^e above the largest
 * |p| left, splits every p into q = (sigma + p) - sigma and p - q, and
 * stores the sum of the q in sums[r * levels + k]: every partial sum of the
 * q is a double, so that sum is exact in any order, here LANES independent
 * accumulators (term t in acc[t mod LANES]) that the compiler can
 * vectorise.  rem[r] = 2^c times the largest |p| left after the last level.
 * scratch holds J doubles. */
#define LANES 16
void sum_levels(const double *P, long rows, long stride, long J, long c, long levels,
                double lo, double hi, double *restrict scratch, double *restrict sums,
                double *restrict rem, int8_t *restrict fits)
{
    for (long r = 0; r < rows; r++, P += stride, sums += levels) {
        double big = abs_max(P, J);
        fits[r] = big >= lo && big <= hi;
        for (long k = 0; k < levels; k++)
            sums[k] = 0.0;
        rem[r] = 0.0;
        if (!fits[r])
            continue;
        const double *p = P;
        for (long k = 0; k < levels; k++, p = scratch) {
            int e;
            frexp(big, &e);
            const double sigma = ldexp(1.0, e + (int)c);
            double acc[LANES] = {0.0};
            long t = 0;
            for (; t + LANES <= J; t += LANES)
                for (int u = 0; u < LANES; u++) {
                    const double q = (p[t + u] + sigma) - sigma;
                    scratch[t + u] = p[t + u] - q;
                    acc[u] += q;
                }
            for (int u = 0; t < J; t++, u++) {
                const double q = (p[t] + sigma) - sigma;
                scratch[t] = p[t] - q;
                acc[u] += q;
            }
            for (int u = 0; u < LANES; u++)
                sums[k] += acc[u];
            big = abs_max(scratch, J);
        }
        rem[r] = ldexp(big, (int)c);
    }
}

/* buf[r * c + j] = x[r] * grid[idx[j]] for r < rows, j < c (c >= 1): the
 * arguments of log1p in one block of rows of the GP profile scan. */
void profile_fill(const double *restrict x, long rows, const double *restrict grid,
                  const int64_t *restrict idx, long c, double *restrict buf)
{
    double theta[c];
    for (long j = 0; j < c; j++)
        theta[j] = grid[idx[j]];
    for (long r = 0; r < rows; r++, buf += c)
        for (long j = 0; j < c; j++)
            buf[j] = x[r] * theta[j];
}

/* sums[j] += buf[r * c + j] for r = 0..rows-1 in that order, from sums = 0
 * when `first`: continued over the blocks of a column, the sum numpy's
 * add.reduce gives along axis 0 of a matrix of two or more columns. */
void profile_add(const double *restrict buf, long rows, long c, long first,
                 double *restrict sums)
{
    if (first)
        for (long j = 0; j < c; j++)
            sums[j] = 0.0;
    for (long r = 0; r < rows; r++, buf += c)
        for (long j = 0; j < c; j++)
            sums[j] += buf[j];
}

/* gam[j], a column sum on entry, becomes gamma = sum / k, and ratio[j] =
 * gamma / theta with theta = grid[idx[j]], or 1 where that ratio is not
 * positive: f is infinite there, and a log of 1 raises no floating-point
 * flag. */
void profile_ratio(const double *restrict grid, const int64_t *restrict idx, long c, long k,
                   double *restrict gam, double *restrict ratio)
{
    for (long j = 0; j < c; j++) {
        gam[j] /= (double)k;
        const double q = gam[j] / grid[idx[j]];
        ratio[j] = q > 0.0 ? q : 1.0;
    }
}

/* f[j], ln(gamma / theta) on entry, becomes the profile objective at theta
 * = grid[idx[j]], ln(gamma / theta) + gamma, or +inf where gamma / theta is
 * not positive, gamma <= -1, gamma == 0 or the objective is not finite; f
 * and gamma are also stored at index idx[j] of grid_f and grid_gam. */
void profile_objective(const double *restrict grid, const int64_t *restrict idx, long c,
                       const double *restrict gam, double *restrict f,
                       double *restrict grid_f, double *restrict grid_gam)
{
    for (long j = 0; j < c; j++) {
        const double g = gam[j], v = f[j] + g;
        const int bad = !(g / grid[idx[j]] > 0.0) || g <= -1.0 || g == 0.0 || !isfinite(v);
        f[j] = bad ? INFINITY : v;
        grid_f[idx[j]] = f[j];
        grid_gam[idx[j]] = g;
    }
}

/* numpy's maximum: NaN if either argument is NaN. */
static double np_max(double a, double b)
{
    return a >= b || a != a ? a : b;
}

/* The pruning step of xustat.estimators._profile_scan over the n grid
 * points: gam holds gamma at the evaluated indices, among them 0 and n - 1,
 * and NaN elsewhere, and f the objective there and +inf elsewhere.  Each
 * unevaluated i lies between its evaluated neighbours a < i < b, the last
 * before it and the next after it, found in the same sweep.  Writes to
 * rest, in increasing order, every unevaluated i that is a multiple of
 * `every` and whose concavity bound on f is not above min f by margin
 * (1 + |min f|), and returns their number.  The bound takes libm's log: it
 * only prunes, and the margin is far above one rounding. */
long profile_prune(const double *restrict grid, const double *restrict f,
                   const double *restrict gam, long n, double margin, long every,
                   int64_t *restrict rest)
{
    double best = INFINITY;
    for (long i = 0; i < n; i++)
        best = f[i] < best ? f[i] : best;
    const double cut = best + margin * (1.0 + fabs(best));
    long count = 0;
    for (long a = 0, b = 1; b < n; b++) {
        if (gam[b] != gam[b])
            continue;
        const double ga = gam[a], gb = gam[b], ta = grid[a], tb = grid[b];
        for (long i = a + 1; i < b; i++) {
            if (i % every)
                continue;
            const double chord = ga + (gb - ga) * (grid[i] - ta) / (tb - ta);
            const double c = np_max(chord, np_max(ga, -1.0));
            double lr = log(gb / tb);
            if (grid[i] > 0.0 && c > 0.0)
                lr = np_max(lr, log(c / grid[i]));
            const double bound = gb <= -1.0 ? INFINITY : lr + c;
            if (!(bound > cut))
                rest[count++] = i;
        }
        a = b;
    }
    return count;
}

/* buf[t] = theta * x[t] for t < k: the arguments of log1p in the GP profile
 * score, with the bits of numpy's theta * x. */
void profile_scale(const double *restrict x, long k, double theta, double *restrict buf)
{
    for (long t = 0; t < k; t++)
        buf[t] = theta * x[t];
}

/* Term t of pairwise_sum: a[t], or with `quotient` a[t] / (theta a[t] + 1),
 * numpy's x / (theta * x + 1.0). */
static inline double term(const double *a, long t, int quotient, double theta)
{
    return quotient ? a[t] / (theta * a[t] + 1.0) : a[t];
}

/* The sum of the n terms in the order of numpy's pairwise summation (the
 * DOUBLE_pairwise_sum of its add loop): fewer than 8 terms one by one from
 * -0.0; up to 128 in 8 accumulators, r[u] taking terms u, u + 8, ..., which
 * are added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the
 * last n mod 8 terms one by one; above 128, the sum of the two halves split
 * at n / 2 rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, long n, int quotient, double theta)
{
    if (n < 8) {
        double s = -0.0;
        for (long t = 0; t < n; t++)
            s += term(a, t, quotient, theta);
        return s;
    }
    if (n <= 128) {
        double r[8];
        for (int u = 0; u < 8; u++)
            r[u] = term(a, u, quotient, theta);
        long t = 8;
        for (; t < n - n % 8; t += 8)
            for (int u = 0; u < 8; u++)
                r[u] += term(a, t + u, quotient, theta);
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; t < n; t++)
            s += term(a, t, quotient, theta);
        return s;
    }
    long half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half, quotient, theta)
           + pairwise_sum(a + half, n - half, quotient, theta);
}

/* The two sums of the GP profile score at theta, each as np.add.reduce
 * gives it (its initial 0.0, then the pairwise sum): sums[0] over
 * logs[0..k), which holds log1p(theta x[t]), and sums[1] over x[t] / (theta
 * x[t] + 1). */
void profile_sums(const double *restrict x, const double *restrict logs, long k, double theta,
                  double *restrict sums)
{
    sums[0] = 0.0 + pairwise_sum(logs, k, 0, theta);
    sums[1] = 0.0 + pairwise_sum(x, k, 1, theta);
}
