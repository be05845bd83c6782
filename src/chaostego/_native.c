/* The kernels of chaostego._native.  orbit is the compiled form of
 * chaos._orbit_python, one chaos.coupled_step per step: the same binary64
 * operations in the same order.  Build with -ffp-contract=off -fno-fast-math
 * so no FMA or reassociation can change a bit of the orbit, or of the
 * expansions below.
 *
 * count_values and count_differences count the histograms of chaostego.analysis:
 * the counts np.bincount gives, without its widened copy of the input or its
 * min/max scan.  Each writes int64 counts into an array the caller owns.  Runs
 * of equal values would chain every increment on one counter through memory,
 * so consecutive samples go to interleaved sub-histograms (lanes) that are
 * summed into each histogram.  The lanes are int64 like the output: no array
 * holds 2**63 samples, so no count can wrap, whatever the image size
 * (load_pnm's largest image is 3 * (2**31 - 1) samples).  count_values serves
 * both the value histogram and the attack: it also scores the pair-of-values
 * chi-square of each running count, with numpy's arithmetic and summation order.
 * pair_sums gives PSNR its integer sums.
 *
 * gamma_expansions is the compiled form of analysis._lower_series and
 * analysis._upper_continued_fraction, the expansions of the attack's
 * incomplete gamma: the same binary64 operations in the same order. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define EPSILON 0x1p-40

/* chaos.sanitize's rule: map outputs lie in [0, 1] and R <= 1, so no wrap. */
static double sanitize(double u)
{
    if (u == 0.0) return EPSILON;
    if (u == 1.0) return 1.0 - EPSILON;
    if (u == 0.5) return 0.5 + EPSILON;
    return u;
}

static double map_step(double u, double asq)
{
    double t = 2.0 * u - 1.0;
    double num = asq * (t * t);
    return num / ((4.0 * u) * (1.0 - u) + num);
}

/* Seen-maps from this size up are mapped afresh, so only the pages the orbit
 * touches are ever zeroed or resident: calloc may serve them from the heap,
 * and zero them whole, once glibc has raised its mmap threshold. */
#define MAP_MIN_BYTES ((size_t)1 << 20)

/* Writes up to count unique flat indices to out and returns how many it
 * found, or -1 if the seen-map cannot be allocated.  The seen-map is one
 * bit per cell, calloc'd below MAP_MIN_BYTES and mmap'd from there.  Dedup
 * has no branch on the seen bit, a coin flip near half fill: every step
 * stores its cell at out[found] and counts it only if it is new (the store
 * stays in bounds because the loop ends as soon as found == count).  Stops
 * early once the (x, y) state repeats (Brent's cycle finding): the state is
 * saved at steps 1, 2, 4, 8, ... and compared on steps to a seen cell.  The
 * arguments meet the precondition in chaos._orbit_python's docstring. */
int64_t orbit(double x, double y, double alpha1, double alpha2, double r, int64_t rows, int64_t cols,
              int64_t count, int64_t cap, int64_t *out)
{
    if (count < 1) return 0;
    double a1sq = alpha1 * alpha1, a2sq = alpha2 * alpha2; /* chaos.map_step's alpha * alpha */
    size_t bytes = ((uint64_t)rows * (uint64_t)cols + 63) / 64 * sizeof(uint64_t);
    uint64_t *seen;
    if (bytes < MAP_MIN_BYTES) {
        seen = calloc(bytes, 1);
        if (!seen) return -1;
    } else {
        seen = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (seen == MAP_FAILED) return -1;
    }
    int64_t found = 0, limit = 1;
    double tx = x, ty = y;
    for (int64_t steps = 1;; steps++) {
        int64_t col = (int64_t)(x * (double)cols), row = (int64_t)(y * (double)rows);
        int64_t flat = row * cols + col;
        uint64_t bit = (uint64_t)1 << (flat & 63);
        int64_t fresh = !(seen[flat >> 6] & bit);
        seen[flat >> 6] |= bit;
        out[found] = flat;
        found += fresh;
        if (found == count) break;
        /* Non-short-circuit &: no branch on fresh or on the compares. */
        if (!fresh & (x == tx) & (y == ty)) break;
        if (steps >= limit) {
            if (steps >= cap) break;
            tx = x; ty = y;
            limit = 2 * limit < cap ? 2 * limit : cap;
        }
        double x_next = map_step(sanitize(r * y), a1sq);
        double y_next = map_step(sanitize(r * x), a2sq);
        x = sanitize(x_next);
        y = sanitize(y_next);
    }
    if (bytes < MAP_MIN_BYTES)
        free(seen);
    else
        munmap(seen, bytes);
    return found;
}

/* numpy's add.reduce of the n <= 128 doubles at t: its identity 0.0 plus
 * pairwise_sum, which adds plainly below 8 terms and otherwise keeps 8
 * interleaved partial sums, combines them as a tree and adds the rest in
 * order.  pairwise_sum's plain loop starts from -0.0; with every term
 * >= +0.0, adding its result to 0.0 is the same as starting from 0.0. */
static double numpy_sum(const double *t, int64_t n)
{
    double sum = 0.0;
    int64_t i = 0;
    if (n >= 8) {
        double r[8];
        for (int j = 0; j < 8; j++) r[j] = t[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += t[i + j];
        sum += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++) sum += t[i];
    return sum;
}

/* For each of the nseg segments s, the counts h of the samples up to its end,
 * samples[bounds[0]:bounds[s + 1]], and their pair-of-values chi-square:
 * chi[s] sums (h[2k] - e)**2 / e, with e = (h[2k] + h[2k + 1]) / 2, over the
 * pairs[s] pairs k whose total is above 4, in k order.  The lanes are never
 * cleared, so each h is a running total; the last goes to hist.  bounds holds
 * nseg + 1 nondecreasing offsets. */
void count_values(const uint8_t *samples, const int64_t *bounds, int64_t nseg, int64_t *hist, double *chi,
                  int64_t *pairs)
{
    int64_t lane[4][256] = {{0}}, h[256] = {0};
    double terms[128];
    for (int64_t s = 0; s < nseg; s++) {
        const uint8_t *p = samples + bounds[s];
        int64_t n = bounds[s + 1] - bounds[s], i = 0;
        for (; i + 4 <= n; i += 4) {
            lane[0][p[i]]++;
            lane[1][p[i + 1]]++;
            lane[2][p[i + 2]]++;
            lane[3][p[i + 3]]++;
        }
        for (; i < n; i++) lane[0][p[i]]++;
        for (int v = 0; v < 256; v++) h[v] = lane[0][v] + lane[1][v] + lane[2][v] + lane[3][v];
        int64_t included = 0;
        for (int k = 0; k < 128; k++) {
            double even = (double)h[2 * k], total = even + (double)h[2 * k + 1];
            if (total > 4.0) {
                double expected = total / 2.0, d = even - expected;
                terms[included++] = d * d / expected;
            }
        }
        chi[s] = numpy_sum(terms, included);
        pairs[s] = included;
    }
    memcpy(hist, h, sizeof h);
}

/* out[d + 255] = how many a[r][j + step] - a[r][j] == d, over the rows x width
 * row-major samples and 0 <= j < width - step: with step the channel count,
 * each difference stays inside one channel plane of one row.  511 bins. */
void count_differences(const uint8_t *samples, int64_t rows, int64_t width, int64_t step, int64_t *out)
{
    int64_t lane[2][511];
    memset(lane, 0, sizeof lane);
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *a = samples + r * width, *b = a + step;
        int64_t n = width - step, j = 0;
        for (; j + 2 <= n; j += 2) {
            lane[0][255 + b[j] - a[j]]++;
            lane[1][255 + b[j + 1] - a[j + 1]]++;
        }
        if (j < n) lane[0][255 + b[j] - a[j]]++;
    }
    for (int d = 0; d < 511; d++) out[d] = lane[0][d] + lane[1][d];
}

/* Samples per block of pair_sums: 256 * 255**2 < 2**32. */
#define PAIR_BLOCK 256

/* out[0] = the sum of (a[i] - b[i])**2 and out[1] = the count of a[i] != b[i]
 * over the n samples: integers, so exact in any order.  Each full block sums
 * in 32 bits over a fixed trip count, which -O2 vectorizes. */
void pair_sums(const uint8_t *a, const uint8_t *b, int64_t n, int64_t *out)
{
    int64_t squares = 0, flips = 0, i = 0;
    for (; i + PAIR_BLOCK <= n; i += PAIR_BLOCK) {
        uint32_t block_squares = 0, block_flips = 0;
        for (int j = 0; j < PAIR_BLOCK; j++) {
            int32_t d = (int32_t)a[i + j] - (int32_t)b[i + j];
            block_squares += (uint32_t)(d * d);
            block_flips += d != 0;
        }
        squares += block_squares;
        flips += block_flips;
    }
    for (; i < n; i++) {
        int64_t d = (int64_t)a[i] - (int64_t)b[i];
        squares += d * d;
        flips += d != 0;
    }
    out[0] = squares;
    out[1] = flips;
}

/* For each k < n, the series of analysis._lower_series where x[k] < a[k] + 1,
 * else the continued fraction of analysis._upper_continued_fraction, at
 * (a[k], x[k]), with their cap on terms and their eps.  out[k] is its value
 * and iters[k] the term at which it converged, or -1 where it did not
 * converge within cap terms.  Returns how many did not. */
int64_t gamma_expansions(const double *a, const double *x, int64_t n, int64_t cap, double eps, double *out,
                         int64_t *iters)
{
    const double tiny = 1e-300;
    int64_t failed = 0;
    for (int64_t k = 0; k < n; k++) {
        double s = a[k], t = x[k];
        int64_t i = 1;
        if (t < s + 1.0) {
            double term = 1.0 / s, total = term;
            for (; i < cap; i++) {
                term *= t / (s + (double)i);
                total += term;
                if (fabs(term) < fabs(total) * eps) break;
            }
            out[k] = total;
        } else {
            double b = t + 1.0 - s, c = 1.0 / tiny, d = 1.0 / b, h = d;
            for (; i < cap; i++) {
                double an = -(double)i * ((double)i - s);
                b += 2.0;
                d = an * d + b;
                if (fabs(d) < tiny) d = tiny;
                c = b + an / c;
                if (fabs(c) < tiny) c = tiny;
                d = 1.0 / d;
                double delta = d * c;
                h *= delta;
                if (fabs(delta - 1.0) < eps) break;
            }
            out[k] = h;
        }
        iters[k] = i < cap ? i : -1;
        failed += i >= cap;
    }
    return failed;
}
