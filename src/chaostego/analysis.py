"""Stego quality and detectability metrics.

PSNR and two entropy measures grade how little an embedding disturbed the
cover; the chi-square attack measures how detectable the disturbance is
by comparing pair-of-values frequencies over growing sample prefixes.
The attack's p-value comes from an in-house regularized upper incomplete
gamma (series / continued fraction), kept independent of any library
implementation so the statistic is self-contained.
The histograms, the attack's statistic over every prefix, PSNR's sums and
the attack's gamma expansions come from four compiled kernels of
``_native.c`` where :func:`_native.kernels` keeps them, checked with the
orbit as one set against one digest frozen from the references: numpy's
counters and the Python expansions here, which :func:`_native.reference`
runs where the kernels do not.  One value counter serves both the value histogram and the attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _native
from ._native import GAMMA_EPS, GAMMA_MAX_ITER
from .errors import CapacityError, DomainError
from .imagery import RasterImage, abs_difference

PEAK_VALUE = 255  # 8-bit unsigned samples
_COUNT_CHUNK = 1 << 15  # samples per bincount call; its intp copy stays at 256 KB
_POV_MIN_PAIR_TOTAL = 4  # attack pairs must have more than this many samples


@dataclass(frozen=True)
class QualityReport:
    """PSNR block: distortion plus change accounting."""

    psnr_db: float
    mse: float
    flips: int
    hiding_capacity_bpp: float | None = None


class AttackPoint(NamedTuple):
    """Chi-square statistic over one row-major sample prefix."""

    fraction: float
    chi_square: float
    dof: int
    p_embedding: float


def psnr(cover: RasterImage, stego: RasterImage, payload_bits: int | None = None) -> QualityReport:
    """Peak signal-to-noise ratio in dB, with mean squared error and flips.

    Identical images report infinite PSNR.  ``payload_bits``, when known,
    fills in the hiding capacity in bits per pixel; it must lie between 0
    and the sample count.  Images that differ in dimensions raise
    ``DimensionMismatch`` (``imagery.check_pair``, on either count path) first.

    The sum of squared differences and the count of changed samples are
    integers, so either count path gives the same ones: the compiled
    counter reads the samples in place, and the numpy fallback
    (:func:`_numpy_pair_sums`) holds about 3 bytes per sample.
    """
    squares, flips = _native.kernels().pair_sums(cover, stego)
    hc = None
    if payload_bits is not None:
        if payload_bits < 0:
            raise DomainError(f"payload_bits must be non-negative, got {payload_bits}")
        if payload_bits > cover.samples.size:
            raise CapacityError(f"{payload_bits} payload bits exceed the {cover.samples.size}-sample grid")
        hc = payload_bits / (cover.rows * cover.cols)
    mse = float(np.int64(squares) / cover.samples.size)
    if mse == 0.0:
        psnr_db = math.inf
    else:
        psnr_db = 10.0 * math.log10(PEAK_VALUE * PEAK_VALUE / mse)
    return QualityReport(psnr_db=psnr_db, mse=mse, flips=flips, hiding_capacity_bpp=hc)


def _bincount(values: np.ndarray, bins: int) -> np.ndarray:
    # np.bincount copies its input to intp; a chunk at a time bounds that copy.
    flat = values.ravel()
    counts = np.zeros(bins, dtype=np.int64)
    for start in range(0, flat.size, _COUNT_CHUNK):
        counts += np.bincount(flat[start : start + _COUNT_CHUNK], minlength=bins)
    return counts


def _numpy_value_counts(flat: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hist, chis, pairs)`` for the uint8 samples cut at ``bounds``: the
    256-bin int64 counts of ``flat[bounds[0]:bounds[-1]]``, and per segment
    ``s`` the pair-of-values chi-square of the running counts of
    ``flat[bounds[0]:bounds[s + 1]]`` (float64) with its number of included
    pairs (int64).

    The pair terms come from whole-array passes over every prefix at once;
    they are elementwise, so each keeps its bits.  Each prefix sums its
    included terms as the compressed array a per-prefix scan sums.
    """
    segments = [_bincount(flat[start:end], 256) for start, end in zip(bounds, bounds[1:])]
    hists = np.cumsum(segments, axis=0)
    even = hists[:, 0::2].astype(np.float64)
    pair_total = even + hists[:, 1::2]
    included = pair_total > _POV_MIN_PAIR_TOTAL
    expected = pair_total / 2.0
    terms = np.divide((even - expected) ** 2, expected, out=np.zeros_like(even), where=included)
    chis = np.array([row[mask].sum() for row, mask in zip(terms, included)], dtype=np.float64)
    return hists[-1], chis, included.sum(axis=1)


def _numpy_difference_counts(samples: np.ndarray, step: int) -> np.ndarray:
    """511-bin counts of ``samples[r, j + step] - samples[r, j] + 255`` over the
    rows of the 2-D uint8 samples, as int16 values shifted in place."""
    deltas = np.subtract(samples[:, step:], samples[:, :-step], dtype=np.int16)
    deltas += PEAK_VALUE
    return _bincount(deltas, 2 * PEAK_VALUE + 1)


def _numpy_pair_sums(cover: RasterImage, stego: RasterImage) -> tuple[int, int]:
    """The sum of squared sample differences and the count of changed samples
    of a matching pair.  The differences stay uint8
    (``imagery.abs_difference``) and their squares uint16, which holds 255**2
    exactly, so the int64 sum is the same integer a widened copy gives."""
    delta = abs_difference(cover, stego)
    return int(np.sum(np.square(delta, dtype=np.uint16), dtype=np.int64)), int(np.count_nonzero(delta))


def _entropy_bits(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return 0.0 - float(np.sum(p * np.log2(p)))  # +0.0, not -0.0, for one value


def histogram_entropy(image: RasterImage) -> float:
    """Shannon entropy of the 256-bin sample-value histogram, in bits.

    The compiled counter reads the uint8 samples in place; the numpy
    fallback counts them a bounded chunk at a time.  Either way the
    working memory is fixed: 2 KB of counts, plus 256 KB on the fallback.
    """
    flat = image.samples.ravel()
    hist, _, _ = _native.kernels().value_counts(flat, np.array([0, flat.size]))
    return _entropy_bits(hist)


def neighbor_diff_entropy(image: RasterImage) -> float:
    """Shannon entropy of horizontal neighbor differences (511 bins).

    Differences are taken within each channel plane and pooled into one
    histogram over [-255, 255].  The compiled counter forms each one from
    the uint8 samples in place, with no copy.  The numpy fallback makes
    them int16, shifted in place to [0, 510] and counted a bounded chunk
    at a time: about 2 bytes per sample plus a fixed 256 KB.
    """
    if image.cols < 2:
        raise DomainError("neighbor differences need at least 2 columns")
    return _entropy_bits(_native.kernels().difference_counts(image.samples, image.channels))


# ---------------------------------------------------------------------------
# Regularized upper incomplete gamma Q(a, x)
# ---------------------------------------------------------------------------

def _lower_series(a: float, x: float) -> float:
    # P(a, x) / prefix by power series, for x < a + 1.
    term = 1.0 / a
    total = term
    for k in range(1, GAMMA_MAX_ITER):
        term *= x / (a + k)
        total += term
        if abs(term) < abs(total) * GAMMA_EPS:
            return total
    raise DomainError(f"incomplete gamma series did not converge at a={a!r}, x={x!r}")


def _upper_continued_fraction(a: float, x: float) -> float:
    # Q(a, x) / prefix by modified Lentz continued fraction, for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < GAMMA_EPS:
            return h
    raise DomainError(f"incomplete gamma continued fraction did not converge at a={a!r}, x={x!r}")


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) in [0, 1].

    Series below x = a + 1, continued fraction above.  The absolute error
    against scipy's ``gammaincc`` is within 1e-10 at the attack's shapes
    (a <= 63.5) and about 2.3e-10 up to a = 1e6.  Where the prefix
    x**a e**-x / Gamma(a) underflows to 0, Q is exactly 1 below x = a + 1
    and 0 above, and no expansion runs.  Otherwise raises
    :class:`DomainError` where the expansion in use does not converge
    within ``GAMMA_MAX_ITER`` terms (near x = a for large a).
    """
    # From 2**53 on, a + 1 rounds to a and the expansions break down.
    if not 0.0 < a < 2.0 ** 53:
        raise DomainError("shape parameter must satisfy 0 < a < 2**53")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError("integration limit must be finite and non-negative")
    return _scaled_q(a, x, None)


def _expansion(a: float, x: float) -> float:
    """The expansion in use at ``(a, x)``: the series below x = a + 1, else
    the continued fraction."""
    return _lower_series(a, x) if x < a + 1.0 else _upper_continued_fraction(a, x)


def _python_expansions(a: np.ndarray, x: np.ndarray) -> list[float | None]:
    """:func:`_expansion` at each point of the arrays ``a`` and ``x``, None
    where it does not converge: the reference for ``gamma_expansions`` in ``_native.c``."""
    found: list[float | None] = []
    for a_k, x_k in zip(a.tolist(), x.tolist()):
        try:
            found.append(_expansion(a_k, x_k))
        except DomainError:
            found.append(None)
    return found


def _scaled_q(a: float, x: float, expansion: float | None) -> float:
    """:func:`gamma_q` past its domain checks.  ``expansion`` is the value of
    :func:`_expansion` at ``(a, x)``, computed beforehand, or None to compute
    it here, which raises its :class:`DomainError` where it does not
    converge.  Either way it counts only where the prefix does not
    underflow."""
    if x == 0.0:
        return 1.0
    # Both expansions scale by prefix = x**a e**-x / Gamma(a).
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    lower = x < a + 1.0
    if log_prefix < -745.0:  # exp underflows: the prefix is 0 and fixes the result
        return 1.0 if lower else 0.0
    prefix = math.exp(log_prefix)
    if expansion is None:
        expansion = _expansion(a, x)
    q = 1.0 - expansion * prefix if lower else expansion * prefix
    return min(max(q, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Chi-square pair-of-values attack
# ---------------------------------------------------------------------------

def chi_square_attack(image: RasterImage, step_percent: int) -> list[AttackPoint]:
    """Pair-of-values chi-square scan over growing sample prefixes.

    For each scanned fraction of the row-major sample sequence the 256-bin
    histogram is split into (2k, 2k+1) pairs; the statistic sums
    (h[2k] - mean)^2 / mean over pairs with total count above 4, with
    pairs-minus-1 degrees of freedom.  p_embedding near 1 means the pair
    frequencies are equalized (stego-like); near 0 means natural imbalance.
    Prefixes with fewer than 2 usable pairs record p_embedding = 0.

    One call to the value counter scores every prefix
    (:func:`_numpy_value_counts`): compiled, it counts the running
    histograms segment by segment and sums each prefix's included pair
    terms in numpy's order, so either path gives the same bits.  One call
    to ``expansions`` (:func:`_native.kernels`) then gives each prefix's
    series or continued fraction, or None where it does not converge; Python
    keeps the rest of :func:`gamma_q`, so the p-values keep its bits and its errors.
    """
    if not (1 <= step_percent <= 100):
        raise DomainError("step_percent must lie in [1, 100]")
    flat = image.samples.ravel()
    total = flat.size
    percents = list(range(step_percent, 101, step_percent))
    if percents[-1] != 100:
        percents.append(100)
    bounds = np.array([0] + [(total * t) // 100 for t in percents], dtype=np.int64)
    kernels = _native.kernels()
    _, chis, pairs = kernels.value_counts(flat, bounds)
    dofs = pairs - 1
    # Both halvings are exact: a = dof / 2.0 and x = chi / 2.0.
    a, x = dofs / 2.0, chis / 2.0
    # Only prefixes with a degree of freedom need an expansion (at a = 0 the
    # series would run to its cap); the values come back in prefix order.
    scored = dofs >= 1
    found = iter(kernels.expansions(a[scored], x[scored]))
    points: list[AttackPoint] = []
    for t, chi, dof, a_k, x_k in zip(percents, chis.tolist(), dofs.tolist(), a.tolist(), x.tolist()):
        p = _scaled_q(a_k, x_k, next(found)) if dof >= 1 else 0.0
        points.append(AttackPoint(t / 100.0, chi, max(dof, 0), p))
    return points
