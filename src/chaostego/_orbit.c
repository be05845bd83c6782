/* Compiled form of chaos._orbit_python: the same binary64 operations in
 * the same order.  Build with -ffp-contract=off -fno-fast-math so no FMA
 * or reassociation can change a bit of the orbit. */
#include <stdint.h>

#define EPSILON 0x1p-40

/* Map outputs lie in [0, 1] and R <= 1, so sanitize never sees u > 1. */
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

/* Writes up to count unique flat indices to out, marking them in seen
 * (rows*cols zeroed bytes), and returns how many it found.  Stops early
 * once the (x, y) state repeats (Brent's cycle finding): the state is
 * saved at steps 1, 2, 4, 8, ... and compared on steps to a seen cell. */
int64_t orbit(double x, double y, double a1sq, double a2sq, double r, int64_t rows, int64_t cols,
              int64_t count, int64_t cap, uint8_t *seen, int64_t *out)
{
    int64_t found = 0, save = 1, limit = 1;
    double tx = x, ty = y;
    for (int64_t steps = 1;; steps++) {
        int64_t col = (int64_t)(x * (double)cols), row = (int64_t)(y * (double)rows);
        if (col >= cols) col -= 1;
        if (row >= rows) row -= 1;
        int64_t flat = row * cols + col;
        if (!seen[flat]) {
            seen[flat] = 1;
            out[found++] = flat;
            if (found == count) return found;
        } else if (x == tx && y == ty) {
            return found;
        }
        if (steps >= limit) {
            if (steps >= cap) return found;
            tx = x; ty = y;
            save *= 2;
            limit = save < cap ? save : cap;
        }
        double x_next = map_step(sanitize(r * y), a1sq);
        double y_next = map_step(sanitize(r * x), a2sq);
        x = sanitize(x_next);
        y = sanitize(y_next);
    }
}
