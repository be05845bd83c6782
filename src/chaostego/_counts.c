/* Compiled histograms for chaostego.analysis: the counts np.bincount gives,
 * without its widened copy of the input or its min/max scan.  Each function
 * writes int64 counts into an array the caller owns.
 *
 * Runs of equal values would chain every increment on one counter through
 * memory, so consecutive samples go to interleaved sub-histograms (lanes)
 * that are summed at the end.  The lanes are int64 like the output: no
 * array holds 2**63 samples, so no count can wrap, whatever the image size
 * (load_pnm's largest image is 3 * (2**31 - 1) samples). */
#include <stdint.h>
#include <string.h>

/* out[s * 256 + v] = how many samples[i] == v for bounds[s] <= i < bounds[s + 1],
 * for each of the nseg segments; bounds holds nseg + 1 nondecreasing offsets. */
void count_values(const uint8_t *samples, const int64_t *bounds, int64_t nseg, int64_t *out)
{
    int64_t lane[4][256];
    for (int64_t s = 0; s < nseg; s++, out += 256) {
        const uint8_t *p = samples + bounds[s];
        int64_t n = bounds[s + 1] - bounds[s], i = 0;
        memset(lane, 0, sizeof lane);
        for (; i + 4 <= n; i += 4) {
            lane[0][p[i]]++;
            lane[1][p[i + 1]]++;
            lane[2][p[i + 2]]++;
            lane[3][p[i + 3]]++;
        }
        for (; i < n; i++) lane[0][p[i]]++;
        for (int v = 0; v < 256; v++) out[v] = lane[0][v] + lane[1][v] + lane[2][v] + lane[3][v];
    }
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
