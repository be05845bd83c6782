"""Quality metrics, the incomplete gamma, and the chi-square attack."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from chaostego.analysis import (
    capacity_report,
    chi_square_attack,
    gamma_q,
    histogram_entropy,
    neighbor_diff_entropy,
    psnr,
)
from chaostego.chaos import ImageDims
from chaostego.cli import (
    format_attack_csv,
    format_entropy_report,
    format_quality_report,
)
from chaostego.codec import embed, encode_message
from chaostego.errors import CapacityError, DimensionMismatch, DomainError
from chaostego.imagery import RasterImage
from conftest import random_image


def gray(rows, cols, values):
    return RasterImage(rows, cols, 1, np.asarray(values, dtype=np.uint8))


def gamma_q_by_quadrature(a: float, x: float) -> float:
    """Independent oracle: adaptive numeric integration of the defining
    integral, split so the integrand is easy on the integrated range."""
    if x == 0.0:
        return 1.0
    if x > a:
        upper, _ = quad(lambda t: t ** (a - 1) * math.exp(-t), x, math.inf,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
        return upper / math.gamma(a)
    lower, _ = quad(lambda t: t ** (a - 1) * math.exp(-t), 0.0, x,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    return 1.0 - lower / math.gamma(a)


class TestPsnr:
    def test_identical_images_hit_the_infinity_sentinel(self):
        img = gray(2, 2, [5, 6, 7, 8])
        report = psnr(img, img.copy())
        assert report.psnr_db == math.inf
        assert report.mse == 0.0 and report.flips == 0

    def test_full_scale_difference_is_zero_db(self):
        cover = gray(4, 4, [0] * 16)
        stego = gray(4, 4, [255] * 16)
        report = psnr(cover, stego)
        assert report.psnr_db == 0.0
        assert report.mse == 255.0 ** 2

    def test_single_unit_difference_on_512(self):
        samples = np.zeros(512 * 512, dtype=np.uint8)
        cover = RasterImage(512, 512, 1, samples)
        bumped = samples.copy()
        bumped[12345] = 1
        stego = RasterImage(512, 512, 1, bumped)
        report = psnr(cover, stego)
        # direct evaluation: 10*log10(255^2 * 262144)
        assert report.psnr_db == pytest.approx(102.31620282819571, abs=0.01)
        assert report.flips == 1

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        a = random_image(rng, 16, 16)
        b = random_image(rng, 16, 16)
        assert psnr(a, b).psnr_db == psnr(b, a).psnr_db

    def test_flip_identity_for_lsb_only_stego(self, live_keys):
        # Every squared difference is 1 for artifact output, so PSNR is
        # exactly 10*log10(peak^2 * samples / flips).
        keys, coupling = live_keys
        rng = np.random.default_rng(22)
        cover = random_image(rng, 128, 128)
        bundle = embed(cover, encode_message("identity check", "ascii7"), keys, coupling)
        report = psnr(cover, bundle.stego)
        expected = 10.0 * math.log10(255.0 ** 2 * cover.samples.size / report.flips)
        assert report.psnr_db == pytest.approx(expected, abs=1e-9)

    def test_capacity_field(self):
        img = gray(2, 2, [0, 0, 0, 0])
        assert psnr(img, img, payload_bits=2).hiding_capacity_bpp == 0.5
        assert psnr(img, img).hiding_capacity_bpp is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psnr(gray(1, 2, [0, 0]), gray(2, 1, [0, 0]))


class TestHistogramEntropy:
    def test_constant_image(self):
        assert histogram_entropy(gray(4, 4, [77] * 16)) == 0.0

    def test_uniform_histogram_is_eight_bits(self):
        img = gray(16, 16, list(range(256)))
        assert histogram_entropy(img) == pytest.approx(8.0, abs=1e-12)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(23)
        samples = rng.integers(0, 256, 4096, dtype=np.uint8)
        h = histogram_entropy(RasterImage(64, 64, 1, samples))
        assert 0.0 <= h <= 8.0
        shuffled = samples.copy()
        rng.shuffle(shuffled)
        assert histogram_entropy(RasterImage(64, 64, 1, shuffled)) == pytest.approx(h, abs=1e-12)


class TestNeighborDiffEntropy:
    def test_constant_image(self):
        assert neighbor_diff_entropy(gray(3, 4, [9] * 12)) == 0.0

    def test_alternating_columns_give_one_bit(self):
        # 5 columns alternating 0,255: per row the diffs are +255, -255,
        # +255, -255 -- two equiprobable bins.
        row = [0, 255, 0, 255, 0]
        img = gray(4, 5, row * 4)
        assert neighbor_diff_entropy(img) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_histogram(self):
        rng = np.random.default_rng(24)
        img = random_image(rng, 256, 256)
        counts = {}
        arr = img.samples
        for r in range(256):
            for c in range(255):
                d = int(arr[r, c + 1]) - int(arr[r, c])
                counts[d] = counts.get(d, 0) + 1
        total = sum(counts.values())
        expected = -sum((n / total) * math.log2(n / total) for n in counts.values())
        assert neighbor_diff_entropy(img) == pytest.approx(expected, abs=1e-12)

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            neighbor_diff_entropy(gray(4, 1, [1, 2, 3, 4]))


class TestGammaQ:
    def test_at_zero(self):
        for a in (0.3, 1.0, 7.5, 80.0):
            assert gamma_q(a, 0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_unit_shape_closed_form(self, x):
        assert gamma_q(1.0, x) == pytest.approx(math.exp(-x), abs=1e-10)

    def test_deep_tail_vanishes(self):
        assert gamma_q(0.5, 50.0) < 1e-10
        assert gamma_q_by_quadrature(0.5, 50.0) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 60.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 30.0, 100.0])
    def test_matches_quadrature_oracle(self, a, x):
        assert gamma_q(a, x) == pytest.approx(gamma_q_by_quadrature(a, x), abs=1e-8)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_strictly_decreasing_in_x(self, a):
        xs = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0]
        values = [gamma_q(a, x) for x in xs]
        assert all(lo > hi for lo, hi in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_q(0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_q(-2.0, 1.0)
        with pytest.raises(DomainError):
            gamma_q(1.0, -0.1)
        with pytest.raises(DomainError):
            gamma_q(math.inf, 1.0)


def paired_cover(rows, cols):
    """Samples laid out as (2k, 2k+1) adjacent pairs: every even-length
    prefix has exactly equal pair frequencies."""
    values = []
    k = 0
    for _ in range(rows * cols // 2):
        values.extend((2 * k, 2 * k + 1))
        k = (k + 7) % 128
    return gray(rows, cols, values)


def even_valued_cover(rows, cols, seed):
    """Uniform texture quantized onto even values only: maximal pair
    imbalance, standing in for a natural cover's unequalized histogram."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 256, rows * cols, dtype=np.uint8) & 0xFE
    return RasterImage(rows, cols, 1, samples)


class TestChiSquareAttack:
    def test_equal_pairs_scan_is_all_ones(self):
        img = paired_cover(100, 100)  # every 10% prefix has even length
        for point in chi_square_attack(img, 10):
            assert point.chi_square == 0.0
            assert point.p_embedding == 1.0

    def test_unbalanced_cover_shows_no_embedding(self):
        img = even_valued_cover(256, 256, seed=30)
        curve = chi_square_attack(img, 10)
        assert curve[-1].fraction == 1.0
        assert curve[-1].p_embedding < 0.05
        assert all(point.p_embedding < 0.05 for point in curve)

    def test_randomized_lsb_plane_detected_everywhere(self):
        rng = np.random.default_rng(31)
        samples = rng.integers(0, 256, 256 * 256, dtype=np.uint8)
        samples = (samples & 0xFE) | rng.integers(0, 2, samples.size, dtype=np.uint8)
        img = RasterImage(256, 256, 1, samples)
        for point in chi_square_attack(img, 10):
            assert point.p_embedding > 0.9

    def test_fraction_grid_includes_final_full_scan(self):
        img = even_valued_cover(32, 32, seed=32)
        fractions = [p.fraction for p in chi_square_attack(img, 30)]
        assert fractions == [0.3, 0.6, 0.9, 1.0]

    def test_step_bounds(self):
        img = even_valued_cover(8, 8, seed=33)
        with pytest.raises(DomainError):
            chi_square_attack(img, 0)
        with pytest.raises(DomainError):
            chi_square_attack(img, 101)


class TestCapacityReport:
    def test_half_bpp_operating_point(self):
        report = capacity_report(ImageDims(512, 512), 1, 131072)
        assert report.hc_bpp == 0.5
        assert report.expected_flip_fraction == 0.25

    def test_table_operating_point(self):
        report = capacity_report(ImageDims(512, 512), 1, 65536)
        assert report.hc_bpp == 0.25

    def test_empty_payload(self):
        report = capacity_report(ImageDims(64, 64), 3, 0)
        assert report.hc_bpp == 0.0 and report.expected_flip_fraction == 0.0
        assert report.max_bits == 64 * 64 * 3

    def test_overflow_rejected(self):
        with pytest.raises(CapacityError):
            capacity_report(ImageDims(8, 8), 1, 65)


class TestFormatting:
    def test_quality_block(self):
        img = gray(2, 2, [1, 2, 3, 4])
        text = format_quality_report(psnr(img, img, payload_bits=4))
        assert "psnr_db=inf\n" in text
        assert "flips=0\n" in text
        assert text.endswith("hiding_capacity_bpp=1.0\n")

    def test_entropy_block_prefix(self):
        text = format_entropy_report(7.5, None, prefix="cover_")
        assert text == "cover_histogram_entropy_bits=7.5\n"

    def test_attack_csv_shape(self):
        img = even_valued_cover(16, 16, seed=34)
        text = format_attack_csv(chi_square_attack(img, 50))
        lines = text.strip().split("\n")
        assert lines[0] == "fraction,chi_square,dof,p_embedding"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")
