"""Stego quality and detectability metrics.

PSNR and two entropy measures grade how little an embedding disturbed the
cover; the chi-square attack measures how detectable the disturbance is
by comparing pair-of-values frequencies over growing sample prefixes.
The attack's p-value comes from an in-house regularized upper incomplete
gamma (series / continued fraction), kept independent of any library
implementation so the statistic is self-contained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chaos import ImageDims
from .errors import CapacityError, DimensionMismatch, DomainError
from .imagery import RasterImage, flip_count

PEAK_VALUE = 255  # 8-bit unsigned samples


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


@dataclass(frozen=True)
class CapacityReport:
    max_bits: int
    payload_bits: int
    hc_bpp: float
    expected_flip_fraction: float


def psnr(cover: RasterImage, stego: RasterImage, payload_bits: int | None = None) -> QualityReport:
    """Peak signal-to-noise ratio in dB, with mean squared error and flips.

    Identical images report infinite PSNR.  ``payload_bits``, when known,
    fills in the hiding capacity in bits per pixel.
    """
    if (cover.rows, cover.cols, cover.channels) != (stego.rows, stego.cols, stego.channels):
        raise DimensionMismatch(f"{cover!r} vs {stego!r}: dimensions must match")
    delta = cover.samples.astype(np.int64) - stego.samples.astype(np.int64)
    mse = float(np.sum(delta * delta) / delta.size)
    if mse == 0.0:
        psnr_db = math.inf
    else:
        psnr_db = 10.0 * math.log10(PEAK_VALUE * PEAK_VALUE / mse)
    flips = flip_count(cover, stego, require_lsb_only=False)
    hc = None
    if payload_bits is not None:
        hc = payload_bits / (cover.rows * cover.cols)
    return QualityReport(psnr_db=psnr_db, mse=mse, flips=flips, hiding_capacity_bpp=hc)


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def histogram_entropy(image: RasterImage) -> float:
    """Shannon entropy of the 256-bin sample-value histogram, in bits."""
    counts = np.bincount(image.samples.ravel(), minlength=256)
    return _entropy_bits(counts)


def neighbor_diff_entropy(image: RasterImage) -> float:
    """Shannon entropy of horizontal neighbor differences (511 bins).

    Differences are taken within each channel plane and pooled into one
    histogram over [-255, 255].
    """
    if image.cols < 2:
        raise DomainError("neighbor differences need at least 2 columns")
    planes = image.planes().astype(np.int16)
    deltas = planes[:, 1:, :] - planes[:, :-1, :]
    counts = np.bincount((deltas + PEAK_VALUE).ravel(), minlength=511)
    return _entropy_bits(counts)


# ---------------------------------------------------------------------------
# Regularized upper incomplete gamma Q(a, x)
# ---------------------------------------------------------------------------

_GAMMA_MAX_ITER = 1000
_GAMMA_EPS = 1e-16


def _lower_series(a: float, x: float) -> float:
    # P(a, x) by power series, for x < a + 1.
    term = 1.0 / a
    total = term
    k = 1
    while k < _GAMMA_MAX_ITER:
        term *= x / (a + k)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
        k += 1
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if log_prefix < -745.0:  # exp underflow: the whole mass is in the tail
        return 0.0
    return total * math.exp(log_prefix)


def _upper_continued_fraction(a: float, x: float) -> float:
    # Q(a, x) by modified Lentz continued fraction, for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
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
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if log_prefix < -745.0:
        return 0.0
    return math.exp(log_prefix) * h


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) in [0, 1].

    Series below x = a + 1, continued fraction above; absolute error
    stays within 1e-10 over the tested domain.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError("shape parameter must be finite and positive")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError("integration limit must be finite and non-negative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        q = 1.0 - _lower_series(a, x)
    else:
        q = _upper_continued_fraction(a, x)
    return min(max(q, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Chi-square pair-of-values attack
# ---------------------------------------------------------------------------

_POV_MIN_PAIR_TOTAL = 4  # pairs must have more than this many samples


def chi_square_attack(image: RasterImage, step_percent: int) -> list[AttackPoint]:
    """Pair-of-values chi-square scan over growing sample prefixes.

    For each scanned fraction of the row-major sample sequence the 256-bin
    histogram is split into (2k, 2k+1) pairs; the statistic sums
    (h[2k] - mean)^2 / mean over pairs with total count above 4, with
    pairs-minus-1 degrees of freedom.  p_embedding near 1 means the pair
    frequencies are equalized (stego-like); near 0 means natural imbalance.
    Prefixes with fewer than 2 usable pairs record p_embedding = 0.
    """
    if not (1 <= step_percent <= 100):
        raise DomainError("step_percent must lie in [1, 100]")
    flat = image.samples.ravel()
    total = flat.size
    percents = list(range(step_percent, 101, step_percent))
    if percents[-1] != 100:
        percents.append(100)
    points: list[AttackPoint] = []
    for t in percents:
        prefix = flat[: (total * t) // 100]
        hist = np.bincount(prefix, minlength=256)
        even = hist[0::2].astype(np.float64)
        odd = hist[1::2].astype(np.float64)
        pair_total = even + odd
        included = pair_total > _POV_MIN_PAIR_TOTAL
        expected = pair_total[included] / 2.0
        chi = float(np.sum((even[included] - expected) ** 2 / expected)) if included.any() else 0.0
        dof = int(included.sum()) - 1
        if dof >= 1:
            p = gamma_q(dof / 2.0, chi / 2.0)
        else:
            p = 0.0  # not enough occupied pairs to detect anything
        points.append(AttackPoint(t / 100.0, chi, max(dof, 0), p))
    return points


def capacity_report(dims: ImageDims, channels: int, payload_bits: int) -> CapacityReport:
    """Capacity bookkeeping: bits per pixel and the expected flip fraction.

    Each embedded bit flips its target LSB with probability one half, so
    a payload of half the sample count changes a quarter of the samples.
    """
    rows, cols = dims
    if rows < 1 or cols < 1 or channels not in (1, 3):
        raise DomainError("invalid image geometry")
    if payload_bits < 0:
        raise DomainError("payload_bits must be non-negative")
    max_bits = rows * cols * channels
    if payload_bits > max_bits:
        raise CapacityError(f"{payload_bits} bits exceed the {max_bits}-sample grid")
    return CapacityReport(
        max_bits=max_bits,
        payload_bits=payload_bits,
        hc_bpp=payload_bits / (rows * cols),
        expected_flip_fraction=payload_bits / (2 * max_bits),
    )

