/* Compiled form of chaos._orbit_python, one chaos.coupled_step per step:
 * the same binary64 operations in the same order.  Build with -ffp-contract=off
 * -fno-fast-math so no FMA or reassociation can change a bit of the orbit. */
#include <stdint.h>
#include <stdlib.h>

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

/* Writes up to count unique flat indices to out and returns how many it
 * found, or -1 if the seen-map cannot be allocated.  The seen-map is one
 * bit per cell, calloc'd here: while glibc serves it by mmap only the pages
 * the orbit touches become resident, but after a large map is freed in this
 * process a later one may come from the heap and be zeroed whole.  Dedup
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
    uint64_t *seen = calloc(((uint64_t)rows * (uint64_t)cols + 63) / 64, sizeof *seen);
    if (!seen) return -1;
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
    free(seen);
    return found;
}
