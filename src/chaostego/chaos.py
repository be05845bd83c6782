"""Cross-coupled chaotic maps and duplicate-free pixel position selection.

Two copies of a one-parameter rational map are cross-coupled through a
public factor: each map's next input is the other map's previous output
scaled by the factor. The resulting orbit, converted to integer pixel
coordinates and deduplicated, is the shared secret ordering in which
payload bits are placed into an image.

All iteration happens in IEEE-754 binary64 with a fixed evaluation order
(no FMA, no extended precision), so two independent runs with the same
key material reproduce the exact same position stream.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, InsufficientCapacity
from .imagery import _MAX_CELLS

if TYPE_CHECKING:
    from .keymat import PublicCoupling, SecretKeySet

#: Nudge applied to orbit values that hit the absorbing chain {0, 0.5, 1}
#: (0.5 -> 0 -> 1 -> 1 -> ...), which would otherwise freeze the stream.
EPSILON = 2.0 ** -40

#: Largest accepted map parameter.  The map squares it, and above 2**511 the
#: square can overflow to inf, after which the orbit turns to NaN.
ALPHA_MAX = 2.0 ** 511


class ImageDims(NamedTuple):
    """Grid size: ``rows`` x ``cols``."""

    rows: int
    cols: int


class ChaosState(NamedTuple):
    """Orbit point of the coupled system after ``n`` iterations."""

    x: float
    y: float
    n: int


def _check_dims(dims: ImageDims) -> ImageDims:
    rows, cols = int(dims[0]), int(dims[1])
    if rows < 1 or cols < 1:
        raise DomainError("image dims must be at least 1x1")
    return ImageDims(rows, cols)


def map_step(x: float, alpha: float) -> float:
    """One iteration of the rational map on the open unit interval.

    Returns a**2 (2x-1)**2 / [4x(1-x) + a**2 (2x-1)**2].  The numerator is
    evaluated fully, then the denominator, then a single division; that
    fixed order keeps independent binary64 builds bit-for-bit identical.
    """
    if not (0.0 < x < 1.0):
        raise DomainError("map input must lie strictly between 0 and 1")
    if not (0.5 < alpha <= ALPHA_MAX):
        raise DomainError("map parameter must satisfy 0.5 < alpha <= 2**511")
    t = 2.0 * x - 1.0
    num = (alpha * alpha) * (t * t)
    den = (4.0 * x) * (1.0 - x) + num
    return num / den


def sanitize(u: float) -> float:
    """Pull an orbit value back into (0,1) away from the absorbing set.

    Values above 1 are wrapped to their fractional part first; exact hits
    on 0, 0.5 or 1 are shifted by 2**-40 so the orbit cannot die.
    """
    if u > 1.0:
        u = u - math.floor(u)
    if u == 0.0:
        return EPSILON
    if u == 1.0:
        return 1.0 - EPSILON
    if u == 0.5:
        return 0.5 + EPSILON
    return u


def initial_state(keys: SecretKeySet) -> ChaosState:
    """Uncoupled bootstrap: both maps advance once from their own seeds.

    Coupling applies from the second step on; the very first state is
    x1 = f1(x0), y1 = f2(y0), sanitized before storage.
    """
    x = sanitize(map_step(sanitize(keys.x0), keys.alpha1))
    y = sanitize(map_step(sanitize(keys.y0), keys.alpha2))
    return ChaosState(x, y, 1)


def coupled_step(state: ChaosState, alpha1: float, alpha2: float, r: float) -> ChaosState:
    """Advance the cross-coupled pair one step.

    Each map is fed the other map's previous output scaled by the public
    coupling factor; both outputs are sanitized before storage.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError("coupling factor must satisfy 0 < R <= 1")
    x = sanitize(map_step(sanitize(r * state.y), alpha1))
    y = sanitize(map_step(sanitize(r * state.x), alpha2))
    return ChaosState(x, y, state.n + 1)


def to_pixel(x: float, y: float, dims: ImageDims) -> tuple[int, int]:
    """Convert an orbit point in [0,1]^2 to 1-based ``(col, row)`` coordinates.

    col = floor(x * cols) + 1 and row = floor(y * rows) + 1, clamped into
    range (x = 1 would otherwise index one past the last column).
    """
    rows, cols = _check_dims(dims)
    col = int(math.floor(x * cols)) + 1
    row = int(math.floor(y * rows)) + 1
    col = min(max(col, 1), cols)
    row = min(max(row, 1), rows)
    return col, row


def iteration_cap(dims: ImageDims) -> int:
    """Step budget for position generation: 20*M*N*max(1, ln(M*N))."""
    rows, cols = dims
    cells = rows * cols
    return int(20 * cells * max(1.0, math.log(cells)))


def select_positions(keys: SecretKeySet, coupling: PublicCoupling, dims: ImageDims, count: int) -> np.ndarray:
    """First ``count`` unique positions of the keyed stream, in orbit order.

    Returns flat indices ``(row-1)*cols + (col-1)`` into the row-major
    ``rows x cols`` grid as a 1-D int64 array.  The orbit runs in the
    compiled kernel where it builds and passes its self-check, else in
    :func:`_orbit_python`; both inline :func:`coupled_step`'s map
    arithmetic and :func:`to_pixel` and perform the exact same binary64
    operations in the same order, which the test suite cross-checks
    against the step-by-step functions.  Raises
    :class:`InsufficientCapacity` if the iteration cap runs out, or the
    orbit closes a cycle, before ``count`` unique positions are found, and
    :class:`MemoryError` if the compiled kernel cannot allocate its seen-map.
    """
    rows, cols = _check_dims(dims)
    cells = rows * cols
    if cells > _MAX_CELLS:
        raise DomainError(f"a {rows}x{cols} grid exceeds the {_MAX_CELLS}-cell limit")
    if count < 0:
        raise DomainError("count must be non-negative")
    if count > cells:
        raise InsufficientCapacity(f"requested {count} unique positions from a grid of {cells} cells")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    r = coupling.value
    if not (0.0 < r <= 1.0) or not math.isfinite(r):
        raise DomainError("coupling factor must satisfy 0 < R <= 1")
    # Outside (0,1) the map leaves [0,1] and the orbit indexes off the grid.
    if not (0.0 < keys.x0 < 1.0) or not (0.0 < keys.y0 < 1.0):
        raise DomainError("seeds must lie strictly between 0 and 1")
    # map_step's alpha bound keeps every state in (0,1), which the kernels
    # rely on to index the seen-map in range.
    x, y, _ = initial_state(keys)
    cap = iteration_cap(ImageDims(rows, cols))
    orbit = _native_orbit() or _orbit_python
    found = orbit(x, y, keys.alpha1 * keys.alpha1, keys.alpha2 * keys.alpha2, r, rows, cols, count, cap)
    if len(found) < count:
        raise InsufficientCapacity(
            "position generator exhausted its iteration cap "
            f"({cap} steps, {len(found)} unique positions found)"
        )
    return found


def _orbit_python(
    x: float, y: float, a1sq: float, a2sq: float, r: float, rows: int, cols: int, count: int, cap: int
) -> np.ndarray:
    """Unique flat indices of the orbit from ``(x, y)``: ``count`` of them,
    or fewer if ``cap`` states pass or the state repeats first.

    The reference for ``_orbit.c`` and the fallback where it cannot run.
    Once an ``(x, y)`` state repeats (Brent's cycle finding) every later
    cell has been seen, so the loop stops with what the cap would give.
    The state is saved at steps 1, 2, 4, 8, ... behind the cap's compare
    and checked only on steps to a seen cell (a repeat always is one), so
    cycle finding costs at most one float compare per step.
    """
    seen = bytearray(rows * cols)
    found: list[int] = []
    steps = 1
    save = limit = 1
    tx, ty = x, y
    while True:
        col = int(x * cols)  # x in (0,1): int() is floor here
        row = int(y * rows)
        if col >= cols:
            col -= 1
        if row >= rows:
            row -= 1
        flat = row * cols + col
        if not seen[flat]:
            seen[flat] = 1
            found.append(flat)
            if len(found) == count:
                break
        elif x == tx and y == ty:
            break
        if steps >= limit:
            if steps >= cap:
                break
            tx, ty = x, y
            save *= 2
            limit = min(save, cap)
        # Cross-coupled step, sanitized before storage.
        u = sanitize(r * y)
        t = 2.0 * u - 1.0
        num = a1sq * (t * t)
        x_next = num / ((4.0 * u) * (1.0 - u) + num)
        u = sanitize(r * x)
        t = 2.0 * u - 1.0
        num = a2sq * (t * t)
        y_next = num / ((4.0 * u) * (1.0 - u) + num)
        x = sanitize(x_next)
        y = sanitize(y_next)
        steps += 1
    return np.array(found, dtype=np.int64)


#: Compiler flags that keep C's binary64 arithmetic identical to CPython's.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


def _self_check_cases():
    """Orbit arguments on which the compiled kernel must match
    :func:`_orbit_python`.  On a 16x16 grid they leave the loop by each of
    its exits in turn: ``count`` reached (a chaotic key, full cover), a
    repeated state (a collapsing key), and the iteration cap with neither."""
    cap = iteration_cap(ImageDims(16, 16))
    for a1, a2, x0, y0, r, case_cap in (
        (1.3, 1.7, 0.31, 0.72, 0.97, cap),
        (3.0, 2.5, 0.31, 0.72, 0.9, cap),
        (1.3, 1.7, 0.31, 0.72, 0.97, 100),
    ):
        x, y = sanitize(map_step(x0, a1)), sanitize(map_step(y0, a2))
        yield (x, y, a1 * a1, a2 * a2, r, 16, 16, 256, case_cap)


@functools.cache
def _native_orbit():
    """The compiled orbit with :func:`_orbit_python`'s signature, or None.

    Builds ``_orbit.c`` with the system ``cc`` into the package's
    ``__pycache__`` on first use (one shared object per hash of the source,
    compiler and flags), loads it with ctypes and keeps it only if its
    streams match :func:`_orbit_python` on every :func:`_self_check_cases` case.
    """
    source = Path(__file__).with_name("_orbit.c")
    try:
        lib = _build(source)
        kernel = ctypes.CDLL(str(lib)).orbit
    except (OSError, subprocess.SubprocessError):
        return None
    kernel.argtypes = [ctypes.c_double] * 5 + [ctypes.c_int64] * 4 + [ctypes.c_void_p]
    kernel.restype = ctypes.c_int64

    def orbit(x, y, a1sq, a2sq, r, rows, cols, count, cap):
        out = np.empty(count, dtype=np.int64)
        found = kernel(x, y, a1sq, a2sq, r, rows, cols, count, cap, out.ctypes.data)
        if found < 0:
            raise MemoryError(f"no memory for the seen-map of a {rows}x{cols} grid")
        return out[:found]

    for args in _self_check_cases():
        if not np.array_equal(orbit(*args), _orbit_python(*args)):
            return None
    return orbit


def _build(source: Path) -> Path:
    """Path of the shared object built from ``source``, compiling it first
    if this source, compiler and flag set have no build yet."""
    cache = source.parent / "__pycache__"
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    # The flags and the compiler decide the arithmetic as much as the source.
    build = hashlib.sha256(source.read_bytes())
    build.update("\0".join((os.path.realpath(cc), *_CFLAGS)).encode())
    lib = cache / f"orbit-{build.hexdigest()}.so"
    if lib.exists():
        return lib
    cache.mkdir(exist_ok=True)
    # Build beside the target and rename, so a concurrent build or load
    # never sees a half-written file.
    fd, tmp = tempfile.mkstemp(prefix="orbit-", suffix=".so.tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-o", tmp, str(source)], check=True, capture_output=True, timeout=120)
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def bifurcation_scan(
    alpha_min: float,
    alpha_max: float,
    alpha_steps: int,
    x0: float,
    transient: int,
    samples: int,
) -> list[tuple[float, list[float]]]:
    """Attractor samples across a uniform parameter grid.

    For each alpha the map is iterated ``transient`` times from ``x0``
    (discarded), then ``samples`` further iterates are recorded.
    """
    if not (0.5 < alpha_min < alpha_max) or not math.isfinite(alpha_max):
        raise DomainError("parameter grid must satisfy 0.5 < alpha_min < alpha_max")
    if alpha_steps < 1:
        raise DomainError("alpha_steps must be at least 1")
    if not (0.0 < x0 < 1.0) or x0 == 0.5:
        raise DomainError("x0 must lie in (0,1) excluding 0.5")
    if transient < 0 or samples < 0:
        raise DomainError("transient and samples must be non-negative")

    if alpha_steps == 1:
        grid = [alpha_min]
    else:
        step = (alpha_max - alpha_min) / (alpha_steps - 1)
        grid = [alpha_min + i * step for i in range(alpha_steps)]

    out: list[tuple[float, list[float]]] = []
    for alpha in grid:
        x = sanitize(x0)
        for _ in range(transient):
            x = sanitize(map_step(x, alpha))
        recorded: list[float] = []
        for _ in range(samples):
            x = sanitize(map_step(x, alpha))
            recorded.append(x)
        out.append((alpha, recorded))
    return out


_DIFF_H = 1e-7
_LYAPUNOV_TRANSIENT = 1000


def _numeric_slope(x: float, alpha: float) -> float:
    # Central difference; one-sided at the interval edges where a
    # symmetric stencil would leave (0,1).
    if x + _DIFF_H >= 1.0:
        return (map_step(x, alpha) - map_step(x - _DIFF_H, alpha)) / _DIFF_H
    if x - _DIFF_H <= 0.0:
        return (map_step(x + _DIFF_H, alpha) - map_step(x, alpha)) / _DIFF_H
    return (map_step(x + _DIFF_H, alpha) - map_step(x - _DIFF_H, alpha)) / (2.0 * _DIFF_H)


def lyapunov_estimate(alpha: float, x0: float, n_iters: int) -> float:
    """Average log-slope along the orbit, via finite differences.

    Positive values are evidence of chaos for the given parameter; the
    map family is only guaranteed interesting on part of its parameter
    range, so this is a diagnostic rather than a certificate.
    """
    if not (0.5 < alpha <= ALPHA_MAX):
        raise DomainError("map parameter must satisfy 0.5 < alpha <= 2**511")
    if not (0.0 < x0 < 1.0) or x0 == 0.5:
        raise DomainError("x0 must lie in (0,1) excluding 0.5")
    if n_iters < 10_000:
        raise DomainError("n_iters must be at least 10000")

    x = sanitize(x0)
    for _ in range(_LYAPUNOV_TRANSIENT):
        x = sanitize(map_step(x, alpha))
    total = 0.0
    for _ in range(n_iters):
        d = _numeric_slope(x, alpha)
        if d != 0.0:  # a zero slope sample would send the log to -inf
            total += math.log(abs(d))
        x = sanitize(map_step(x, alpha))
    return total / n_iters
