"""Cross-coupled chaotic maps, the key rule and pixel position selection.

Two copies of a one-parameter rational map are cross-coupled through a
public factor: each map's next input is the other map's previous output
scaled by the factor. The resulting orbit, converted to integer pixel
coordinates and deduplicated, is the shared secret ordering in which
payload bits are placed into an image. The validators state which keys
and coupling factors the generator accepts, and it checks them first.

All iteration happens in IEEE-754 binary64 with a fixed evaluation order
(no FMA, no extended precision), so two independent runs with the same
key material reproduce the exact same position stream.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _native
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


def _check_alpha(name: str, value: float, violations: list[str]) -> None:
    if not math.isfinite(value):
        violations.append(f"{name}: must be finite")
    elif not value > 0.5:
        violations.append(f"{name}: must be greater than 0.5")
    elif value > ALPHA_MAX:
        violations.append(f"{name}: must not exceed 2**511")


def _check_seed(name: str, value: float, violations: list[str]) -> None:
    if not 0.0 < value < 1.0:
        violations.append(f"{name}: must lie strictly between 0 and 1")
    elif value == 0.5:
        violations.append(f"{name}: must not equal 0.5")


def validate_keys(keys: SecretKeySet) -> list[str]:
    """Return every violated key invariant (empty list means valid).

    Messages name the offending field but never echo its value, so they
    are safe to surface on a terminal or in logs.
    """
    violations: list[str] = []
    _check_alpha("alpha1", keys.alpha1, violations)
    _check_alpha("alpha2", keys.alpha2, violations)
    _check_seed("x0", keys.x0, violations)
    _check_seed("y0", keys.y0, violations)
    return violations


def validate_coupling(coupling: PublicCoupling) -> list[str]:
    """Return violations of the 0 < R <= 1 bound (empty list means valid)."""
    r = coupling.value
    if not 0.0 < r <= 1.0:
        return ["R: must satisfy 0 < R <= 1"]
    return []


class ImageDims(NamedTuple):
    """Grid size: ``rows`` x ``cols``."""

    rows: int
    cols: int


class ChaosState(NamedTuple):
    """Orbit point ``(x, y)`` of the coupled system."""

    x: float
    y: float


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
    """Move an orbit value in [0,1] off the absorbing set.

    Exact hits on 0, 0.5 or 1 are shifted by 2**-40 so the orbit cannot
    die; any other value is returned as is.  Map outputs lie in [0,1] and
    R <= 1, so no orbit value exceeds 1; ``_native.c`` has the same rule.
    """
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
    return ChaosState(x, y)


def coupled_step(state: ChaosState, alpha1: float, alpha2: float, r: float) -> ChaosState:
    """Advance the cross-coupled pair one step.

    Each map is fed the other map's previous output scaled by the public
    coupling factor; both outputs are sanitized before storage.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError("coupling factor must satisfy 0 < R <= 1")
    x = sanitize(map_step(sanitize(r * state.y), alpha1))
    y = sanitize(map_step(sanitize(r * state.x), alpha2))
    return ChaosState(x, y)


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
    compiled kernel where :func:`_native.kernels` keeps it, else in
    :func:`_orbit_python`, which steps through :func:`coupled_step`;
    both perform the same binary64 operations in the same order, and the
    tests pin both to the same frozen streams.  Raises
    :class:`DomainError` naming every violated key and coupling field before anything else,
    :class:`InsufficientCapacity` if the iteration cap runs out, or the
    orbit closes a cycle, before ``count`` unique positions are found, and
    :class:`MemoryError` if the compiled kernel cannot allocate its seen-map.
    """
    violations = validate_keys(keys) + validate_coupling(coupling)
    if violations:
        raise DomainError("invalid keys: " + "; ".join(violations))
    rows, cols = _check_dims(dims)
    cells = rows * cols
    if cells > _MAX_CELLS:
        raise DomainError(f"a {rows}x{cols} grid exceeds the {_MAX_CELLS}-cell limit")
    if count < 0:
        raise DomainError("count must be non-negative")
    if count > cells:
        raise InsufficientCapacity(f"requested {count} unique positions from a grid of {cells} cells")
    r = coupling.value
    x, y = initial_state(keys)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    cap = iteration_cap(ImageDims(rows, cols))
    kernels = _native.kernels()
    orbit = kernels.orbit if kernels else _orbit_python
    found = orbit(x, y, keys.alpha1, keys.alpha2, r, rows, cols, count, cap)
    if len(found) < count:
        raise InsufficientCapacity(
            "position generator exhausted its iteration cap "
            f"({cap} steps, {len(found)} unique positions found)"
        )
    return found


def _orbit_python(
    x: float, y: float, alpha1: float, alpha2: float, r: float, rows: int, cols: int, count: int, cap: int
) -> np.ndarray:
    """Unique flat indices of the orbit from ``(x, y)``: ``count`` of them,
    or fewer if ``cap`` states pass or the state repeats first.

    The reference for the ``orbit`` of ``_native.c`` and the fallback where it cannot run:
    each step is one :func:`coupled_step`, so the fallback is the spec.
    Precondition, which :func:`select_positions` meets: x, y in (0, 1),
    0 < r <= 1 and count >= 1.  Every state then stays in (0, 1), so every cell is on the grid.
    Once an ``(x, y)`` state repeats (Brent's cycle finding) every later
    cell has been seen, so the loop stops with what the cap would give.
    The state is saved at steps 1, 2, 4, 8, ... behind the cap's compare
    and checked only on steps to a seen cell (a repeat always is one), so
    cycle finding costs at most one state compare per step.
    """
    seen = bytearray(rows * cols)
    found: list[int] = []
    steps = 1
    limit = 1
    state = saved = ChaosState(x, y)
    while True:
        # to_pixel's rule, 0-based: with x, y in (0,1) int() is floor and no clamp can fire.
        flat = int(state.y * rows) * cols + int(state.x * cols)
        if not seen[flat]:
            seen[flat] = 1
            found.append(flat)
            if len(found) == count:
                break
        elif state == saved:
            break
        if steps >= limit:
            if steps >= cap:
                break
            saved = state
            limit = min(2 * limit, cap)
        state = coupled_step(state, alpha1, alpha2, r)
        steps += 1
    return np.array(found, dtype=np.int64)


def bifurcation_scan(
    alpha_min: float,
    alpha_max: float,
    alpha_steps: int,
    x0: float,
    transient: int,
    samples: int,
) -> list[tuple[float, list[float]]]:
    """Attractor samples across a uniform parameter grid, its rounding clamped to ``alpha_max``.

    For each alpha the map is iterated ``transient`` times from ``x0``
    (discarded), then ``samples`` further iterates are recorded.
    """
    violations: list[str] = []
    _check_alpha("alpha_min", alpha_min, violations)
    _check_alpha("alpha_max", alpha_max, violations)
    _check_seed("x0", x0, violations)
    if violations:
        raise DomainError("invalid scan: " + "; ".join(violations))
    if not alpha_min < alpha_max:
        raise DomainError("parameter grid must satisfy alpha_min < alpha_max")
    if alpha_steps < 1:
        raise DomainError("alpha_steps must be at least 1")
    if transient < 0 or samples < 0:
        raise DomainError("transient and samples must be non-negative")

    step = (alpha_max - alpha_min) / max(alpha_steps - 1, 1)
    grid = [min(alpha_min + i * step, alpha_max) for i in range(alpha_steps)]

    out: list[tuple[float, list[float]]] = []
    for alpha in grid:
        x = x0
        for _ in range(transient):
            x = sanitize(map_step(x, alpha))
        recorded: list[float] = []
        for _ in range(samples):
            x = sanitize(map_step(x, alpha))
            recorded.append(x)
        out.append((alpha, recorded))
    return out
