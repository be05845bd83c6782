"""Quality metrics, the incomplete gamma, and the chi-square attack."""

import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from chaostego import _native, analysis
from chaostego.analysis import (
    _POV_MIN_PAIR_TOTAL,
    _entropy_bits,
    chi_square_attack,
    gamma_q,
    histogram_entropy,
    neighbor_diff_entropy,
    psnr,
)
from chaostego.cli import (
    format_attack_csv,
    format_entropy_report,
    format_quality_report,
)
from chaostego.codec import embed, encode_message
from chaostego.errors import CapacityError, DimensionMismatch, DomainError
from chaostego.imagery import RasterImage
from conftest import native_source_copy, python_expansion, random_image, reference_kernels


def gray(rows, cols, values):
    return RasterImage(rows, cols, 1, np.asarray(values, dtype=np.uint8))


def psnr_oracle(cover, stego):
    """PSNR's fields from int64 differences: mse and psnr_db as the report
    prints them (repr), and the changed-sample count."""
    delta = cover.samples.astype(np.int64) - stego.samples.astype(np.int64)
    squares = int(np.sum(delta * delta))
    mse = squares / delta.size
    psnr_db = math.inf if squares == 0 else 10.0 * math.log10(255 * 255 / mse)
    return repr(mse), repr(psnr_db), int(np.count_nonzero(delta))


def pure_python_diff_entropy(image):
    """Entropy of horizontal neighbor differences, counted in plain Python
    inside each channel plane and pooled."""
    pixels = image.samples.reshape(image.rows, image.cols, image.channels)
    counts = {}
    for r in range(image.rows):
        for c in range(image.cols - 1):
            for k in range(image.channels):
                d = int(pixels[r, c + 1, k]) - int(pixels[r, c, k])
                counts[d] = counts.get(d, 0) + 1
    total = sum(counts.values())
    return -sum((n / total) * math.log2(n / total) for n in counts.values()), counts


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
        report = psnr(img, RasterImage(img.rows, img.cols, img.channels, img.samples.copy()))
        assert report.psnr_db == math.inf
        assert report.mse == 0.0 and report.flips == 0

    def test_full_scale_difference_is_zero_db(self):
        # 255**2 is the largest square; it must not wrap either way round.
        zeros = gray(4, 4, [0] * 16)
        peaks = gray(4, 4, [255] * 16)
        for cover, stego in ((zeros, peaks), (peaks, zeros)):
            report = psnr(cover, stego)
            assert report.psnr_db == 0.0
            assert report.mse == 255.0 ** 2
            assert report.flips == 16

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

    def test_dimension_mismatch(self, analysis_paths):
        for kernels in analysis_paths:
            with pytest.raises(DimensionMismatch):
                psnr(gray(1, 2, [0, 0]), gray(2, 1, [0, 0]))
            # Either bad payload_bits alone raises another error; the pair is checked first.
            for payload_bits in (-1, 5):
                with pytest.raises(DimensionMismatch):
                    psnr(gray(1, 4, [0] * 4), gray(1, 2, [0, 0]), payload_bits=payload_bits)
            # The pair sums check the pair themselves: the kernel reads as many samples from each.
            with pytest.raises(DimensionMismatch):
                analysis._kernels().pair_sums(gray(1, 4, [0] * 4), gray(1, 2, [0, 0]))

    @pytest.mark.parametrize("cover, stego, sums", [
        (gray(4, 4, [0] * 16), gray(4, 4, [255] * 16), (16 * 255 ** 2, 16)),
        (gray(4, 4, [255] * 16), gray(4, 4, [0] * 16), (16 * 255 ** 2, 16)),
        (gray(1, 1, [7]), gray(1, 1, [3]), (16, 1)),
        (gray(1, 1, [7]), gray(1, 1, [7]), (0, 0)),
        (RasterImage(1, 2, 3, [0, 1, 2, 255, 4, 5]), RasterImage(1, 2, 3, [0, 2, 0, 0, 4, 5]), (1 + 4 + 255 ** 2, 3)),
    ])
    def test_pair_sums_on_both_count_paths(self, cover, stego, sums, analysis_paths):
        # All-0 against all-255 (the largest square), a 1x1 image, RGB, and
        # equal images.
        for kernels in analysis_paths:
            assert analysis._kernels().pair_sums(cover, stego) == sums, kernels
            report = psnr(cover, stego)
            assert (repr(report.mse), repr(report.psnr_db), report.flips) == psnr_oracle(cover, stego), kernels
            assert (report.psnr_db == math.inf) == (sums[1] == 0), kernels

    def test_non_lsb_difference_counts_as_one_flip(self):
        report = psnr(gray(1, 2, [100, 10]), gray(1, 2, [103, 10]))
        assert report.flips == 1
        assert report.mse == 4.5

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        channels=st.sampled_from([1, 3]),
        kind=st.sampled_from(["independent", "identical", "lsb", "full-range"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_int64_oracle(self, rows, cols, channels, kind, seed, analysis_paths):
        # Up to 4,800 samples: the compiled sums' 256-sample blocks and tails.
        rng = np.random.default_rng(seed)
        size = rows * cols * channels
        if kind == "full-range":
            extremes = np.array([0, 255], dtype=np.uint8)
            a, b = rng.choice(extremes, size), rng.choice(extremes, size)
        else:
            a = rng.integers(0, 256, size, dtype=np.uint8)
            b = {
                "independent": lambda: rng.integers(0, 256, size, dtype=np.uint8),
                "identical": a.copy,
                "lsb": lambda: a ^ rng.integers(0, 2, size, dtype=np.uint8),
            }[kind]()
        cover, stego = RasterImage(rows, cols, channels, a), RasterImage(rows, cols, channels, b)
        for kernels in analysis_paths:
            report = psnr(cover, stego)
            assert (repr(report.mse), repr(report.psnr_db), report.flips) == psnr_oracle(cover, stego), kernels


class TestHistogramEntropy:
    def test_constant_image(self):
        h = histogram_entropy(gray(4, 4, [77] * 16))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

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
        h = neighbor_diff_entropy(gray(3, 4, [9] * 12))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_alternating_columns_give_one_bit(self):
        # 5 columns alternating 0,255: per row the diffs are +255, -255,
        # +255, -255 -- two equiprobable bins.
        row = [0, 255, 0, 255, 0]
        img = gray(4, 5, row * 4)
        assert neighbor_diff_entropy(img) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_histogram(self):
        rng = np.random.default_rng(24)
        img = random_image(rng, 256, 256)
        expected, _ = pure_python_diff_entropy(img)
        assert neighbor_diff_entropy(img) == pytest.approx(expected, abs=1e-12)

    def test_rgb_matches_pure_python_count(self):
        # Differences stay inside each channel plane and pool into one
        # histogram; full-scale columns put +-255 steps in every plane.
        rng = np.random.default_rng(25)
        pixels = rng.integers(0, 256, (24, 20, 3), dtype=np.uint8)
        pixels[:, 3::4, :] = 0
        pixels[:, 4::4, :] = 255
        img = RasterImage(24, 20, 3, pixels)
        expected, counts = pure_python_diff_entropy(img)
        assert counts[255] > 0 and counts[-255] > 0
        assert neighbor_diff_entropy(img) == pytest.approx(expected, abs=1e-12)

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            neighbor_diff_entropy(gray(4, 1, [1, 2, 3, 4]))


class TestChunkedCounts:
    """The entropies count with the compiled counter or a bounded numpy
    chunk at a time; either way the counts, and so the entropies' bits,
    equal one bincount over a widened copy."""

    @pytest.mark.parametrize("rows, cols, channels", [(512, 512, 1), (300, 301, 3), (1, 100003, 1), (70001, 2, 1)])
    def test_equal_to_one_widened_bincount(self, rows, cols, channels, analysis_paths):
        rng = np.random.default_rng(rows * cols)
        img = random_image(rng, rows, cols, channels)
        hist = np.bincount(img.samples.ravel().astype(np.int64), minlength=256)
        planes = img.samples.reshape(rows, cols, channels).astype(np.int64)
        diffs = np.bincount((planes[:, 1:, :] - planes[:, :-1, :] + 255).ravel(), minlength=511)
        for kernels in analysis_paths:
            assert repr(histogram_entropy(img)) == repr(_entropy_bits(hist)), kernels
            assert repr(neighbor_diff_entropy(img)) == repr(_entropy_bits(diffs)), kernels


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def widened_value_counts(samples, bounds):
    """Running counts: row ``s`` counts ``samples[bounds[0]:bounds[s + 1]]``."""
    return np.array([np.bincount(samples[bounds[0]:e].astype(np.int64), minlength=256) for e in bounds[1:]])


def widened_difference_counts(samples, step):
    wide = samples.astype(np.int64)
    return np.bincount((wide[:, step:] - wide[:, :-step] + 255).ravel(), minlength=511)


class TestNativeCounts:
    """The compiled counters give np.bincount's counts, load where a
    compiler exists and are dropped for numpy when they cannot be trusted."""

    @needs_cc
    def test_loads_where_a_compiler_exists(self):
        assert _native.kernels() is not None and analysis._kernels() is _native.kernels()

    @needs_cc
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(2, 40),
        channels=st.sampled_from([1, 3]),
        extremes=st.sets(st.integers(0, 39)),
        cuts=st.lists(st.integers(0, 12 * 40 * 3), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=1, cols=2, channels=3, extremes={0, 1}, cuts=[0, 3, 3, 6], seed=0)
    def test_equal_to_widened_bincount(self, rows, cols, channels, extremes, cuts, seed):
        # Columns of 0 next to columns of 255 give differences of +-255;
        # sorted random cuts give empty and repeated segment bounds.
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, (rows, cols, channels), dtype=np.uint8)
        for column in extremes:
            if column < cols:
                pixels[:, column, :] = 255 * (column % 2)
        samples = pixels.reshape(rows, cols * channels)
        flat = samples.ravel()
        bounds = np.array(sorted([0, flat.size] + [min(cut, flat.size) for cut in cuts]), dtype=np.int64)
        kernels = _native.kernels()
        hist, chis, pairs = kernels.value_counts(flat, bounds)
        assert np.array_equal(hist, widened_value_counts(flat, bounds)[-1])
        assert [(repr(chi), n) for chi, n in zip(chis.tolist(), pairs.tolist())] == \
            [(repr(chi), n) for chi, n in map(prefix_chi_square, (flat[:end] for end in bounds[1:]))]
        assert np.array_equal(kernels.difference_counts(samples, channels),
                              widened_difference_counts(samples, channels))

    def test_check_input_has_runs_extremes_and_an_empty_segment(self):
        samples, bounds = _native._counts_check_input()
        assert np.any(samples[1:] == samples[:-1]) and {0, 255} <= set(samples.tolist())
        assert np.any(np.abs(np.diff(samples.astype(np.int64))) == 255)
        # The pair sums' check sets equal samples and 0 against 255.
        pair_deltas = np.abs(samples.astype(np.int64) - np.roll(samples, 40))
        assert 0 in pair_deltas and 255 in pair_deltas and samples.size % 256
        assert np.any(np.diff(bounds) == 0) and bounds[-1] == samples.size
        # Rows that reach every branch of numpy's summation: no term, 8
        # partial sums with a remainder, and all 128 pairs.
        hists = widened_value_counts(samples, bounds)
        pairs = ((hists[:, 0::2] + hists[:, 1::2]) > _POV_MIN_PAIR_TOTAL).sum(axis=1).tolist()
        assert 0 in pairs and 128 in pairs
        assert any(9 <= n <= 127 and n % 8 for n in pairs)

    @needs_cc
    def test_loads_an_unchanged_copy(self, tmp_path, monkeypatch, uncached_library):
        # The control for the mutants below and in TestGammaExpansions: a copy of the source loads.
        monkeypatch.setattr(_native, "_SOURCE", native_source_copy(tmp_path))
        assert _native.kernels.__wrapped__() is not None

    @needs_cc
    @pytest.mark.parametrize("old, new", [
        ("lane[3][p[i + 3]]++;", "lane[3][p[i + 3] ^ 1]++;"),  # wrong value counts
        ("lane[1][255 + b[j + 1] - a[j + 1]]++;", "lane[1][255 + b[j + 1] - a[j]]++;"),  # wrong differences
        ("double sum = 0.0;", "double sum = -0.0;"),  # a scan whose empty sums print -0.0
        ("block_flips += d != 0;", "block_flips += d > 0;"),  # PSNR's flips counted one way only
    ])
    def test_falls_back_when_the_check_counts_differ(self, tmp_path, monkeypatch, uncached_library, old, new):
        # The whole set is dropped: the orbit, which passes its part of the check, with the counters.
        monkeypatch.setattr(_native, "_SOURCE", native_source_copy(tmp_path, old, new))
        assert _native.kernels.__wrapped__() is None

    def test_self_check_digest_is_the_references(self):
        # Ties the frozen pin to the references: the kernels are checked
        # against this digest only.  After a deliberate change to the check
        # inputs, freeze the digest printed here, never one the kernels give.
        got = _native._check_digest(reference_kernels())
        print(f"the references give {got}")
        assert got == _native._SELF_CHECK, f"the references give {got}"

    @pytest.mark.parametrize("part, spoil", [
        ("value_counts", lambda found: (found[0] + (np.arange(256) == 7), *found[1:])),
        ("difference_counts", lambda found: found + (np.arange(found.size) == 300)),
        ("pair_sums", lambda found: (found[0], found[1] + 1)),
        ("expansions", lambda found: [math.nextafter(found[0], 1.0), *found[1:]]),
    ], ids=["value_counts", "difference_counts", "pair_sums", "expansions"])
    def test_a_reference_wrong_in_one_part_changes_the_digest(self, part, spoil):
        # One count one too high, or one expansion one ulp off: a reference
        # wrong in any one part must not give the frozen digest.
        references = reference_kernels()
        right = getattr(references, part)
        wrong = references._replace(**{part: lambda *args: spoil(right(*args))})
        assert _native._check_digest(wrong) != _native._SELF_CHECK

    @needs_cc
    def test_self_check_runs_no_numpy_counter_or_python_expansion(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the self-check ran a reference")

        references = [name for name in vars(analysis) if name.startswith("_numpy_")] + ["_expansion"]
        assert len(references) == 4
        for name in references:
            monkeypatch.setattr(analysis, name, fail)
        assert _native.kernels.__wrapped__() is not None

    def test_loaded_on_first_count_not_at_import(self, tmp_path):
        # Importing builds and checks nothing.  The first command that needs
        # a kernel, here keygen's liveness probe, checks all five, once.
        script = (
            "import sys\n"
            "from chaostego import _native, cli\n"
            "assert _native.library.cache_info().currsize == _native.kernels.cache_info().currsize == 0\n"
            "assert cli.run(['keygen', '--out', sys.argv[1], '--pub', sys.argv[2], '--seed', '3']) == 0\n"
            "assert _native.kernels.cache_info().misses == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parents[1]))
        argv = [sys.executable, "-c", script, str(tmp_path / "s.key"), str(tmp_path / "p.key")]
        child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr


def allocated_per_sample(call, samples):
    """Peak bytes a second call allocates beyond its inputs, per sample."""
    call()  # first-call costs stay out of the measurement
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / samples
    finally:
        if started:
            tracemalloc.stop()


class TestWorkingMemory:
    """Grading makes no widened full-image copy on either count path: PSNR
    works in uint8/uint16 values, the compiled counters read the samples
    in place, and the numpy fallback uses int16 differences and bounded
    count buffers."""

    @pytest.mark.parametrize("rows, cols, channels", [(512, 512, 1), (256, 256, 3)])
    @pytest.mark.parametrize("statistic", ["psnr", "histogram_entropy", "neighbor_diff_entropy"])
    def test_at_most_four_and_a_half_bytes_per_sample(self, statistic, rows, cols, channels, analysis_paths):
        rng = np.random.default_rng(26)
        cover = random_image(rng, rows, cols, channels)
        stego = random_image(rng, rows, cols, channels)
        call = {
            "psnr": lambda: psnr(cover, stego),
            "histogram_entropy": lambda: histogram_entropy(stego),
            "neighbor_diff_entropy": lambda: neighbor_diff_entropy(stego),
        }[statistic]
        for kernels in analysis_paths:
            assert allocated_per_sample(call, cover.samples.size) <= 4.5, kernels


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

    # Exact results, frozen: three series points (x < a + 1), one on
    # x = a + 1 and three continued-fraction points, then one point past
    # the exp-underflow cut on each branch.
    @pytest.mark.parametrize("a, x, expected", [
        (0.5, 0.3, "0x1.c11a991b0c6bep-2"),
        (2.5, 1.0, "0x1.b2c3235f16995p-1"),
        (10.0, 8.0, "0x1.6ee95ff58168dp-1"),
        (3.0, 4.0, "0x1.e7a2b4b36030cp-3"),
        (4.5, 12.0, "0x1.19e405671bb30p-8"),
        (60.0, 75.5, "0x1.de15efaaeeab7p-6"),
        (1.5, 40.0, "0x1.1b174400c3345p-55"),
        (1000.0, 1.0, "0x1.0000000000000p+0"),
        (0.5, 1000.0, "0x0.0p+0"),
    ])
    def test_pinned_values(self, a, x, expected):
        assert gamma_q(a, x).hex() == expected

    # a + 1 rounds to a from 2**53 on; near x = a a large shape needs
    # more than the 1000 terms either expansion may take.
    @pytest.mark.parametrize("a, x", [
        (1e16, 1e16), (1e300, 1e300), (1e306, 1.0), (2.0 ** 53, 1.0), (1e5, 99999.0), (1e6, 999999.0),
        (1e7, 1e7 + 1),
    ])
    def test_refuses_where_it_cannot_converge(self, a, x):
        with pytest.raises(DomainError):
            gamma_q(a, x)

    @pytest.mark.parametrize("a, x, expected", [(1000.0, 1.0, 1.0), (0.5, 1000.0, 0.0), (60.0, 1200.0, 0.0)])
    def test_underflowed_prefix_runs_no_expansion(self, a, x, expected, monkeypatch):
        def fail(a, x):
            raise AssertionError("an expansion ran although the prefix underflows")

        monkeypatch.setattr(analysis, "_lower_series", fail)
        monkeypatch.setattr(analysis, "_upper_continued_fraction", fail)
        assert gamma_q(a, x) == expected and math.copysign(1.0, gamma_q(a, x)) == 1.0

    def test_matches_scipy_at_the_attack_shapes(self):
        # chi_square_attack calls gamma_q(dof / 2, chi / 2) with at most
        # 127 degrees of freedom.
        for k in range(1, 128):
            a = k / 2.0
            xs = np.linspace(0.0, 4.0 * a + 20.0, 60)
            got = [gamma_q(a, float(x)) for x in xs]
            assert np.allclose(got, gammaincc(a, xs), rtol=0.0, atol=1e-10), a

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_q(0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_q(-2.0, 1.0)
        with pytest.raises(DomainError):
            gamma_q(1.0, -0.1)
        with pytest.raises(DomainError):
            gamma_q(math.inf, 1.0)


def kernel_terms(a, x):
    """The terms ``gamma_expansions`` takes at each ``(a, x)``, -1 where it
    does not converge."""
    a, x = np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64)
    out, terms = np.empty(a.size), np.empty(a.size, dtype=np.int64)
    _native.library().gamma_expansions(a.ctypes.data, x.ctypes.data, a.size, _native.GAMMA_MAX_ITER,
                                       _native.GAMMA_EPS, out.ctypes.data, terms.ctypes.data)
    return terms


def crafted_scan(monkeypatch, chis, pairs):
    """Makes the value counter report ``chis`` and ``pairs`` for any scan, so
    the attack meets shapes far beyond a histogram's 128 pairs."""
    def value_counts(flat, bounds):
        return None, np.array(chis, dtype=np.float64), np.array(pairs, dtype=np.int64)

    real = analysis._kernels
    monkeypatch.setattr(analysis, "_kernels", lambda: real()._replace(value_counts=value_counts))


class TestGammaExpansions:
    """The compiled expansions give the bits of the Python series and
    continued fraction, and the attack the same p-values and errors on both
    analysis paths."""

    @needs_cc
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(dof=st.integers(1, 127), x=st.floats(0.0, 300.0), edge=st.sampled_from(["", "boundary", "below"]))
    @example(dof=1, x=1.51974025, edge="")  # the continued fraction's 100 terms
    @example(dof=127, x=0.0, edge="below")  # the series' 78 terms
    @example(dof=1, x=0.0, edge="")
    @example(dof=2, x=0.0, edge="boundary")  # a = 1: its first term an is 0, so the fraction stops there
    def test_compiled_equals_python(self, dof, x, edge):
        a = dof / 2.0
        x = {"": x, "boundary": a + 1.0, "below": math.nextafter(a + 1.0, 0.0)}[edge]
        got = _native.kernels().expansions(np.array([a]), np.array([x]))[0]
        assert repr(got) == repr(python_expansion(a, x))
        assert repr(analysis._scaled_q(a, x, got)) == repr(gamma_q(a, x))

    @needs_cc
    def test_check_input_covers_both_branches_and_the_most_terms(self):
        a, x = _native._gamma_check_input()
        terms, series = kernel_terms(a, x), x < a + 1.0
        assert 0.5 in a.tolist() and np.any(x == a + 1.0) and np.any(x == 0.0)
        assert terms[series].max() == 78 and terms[~series].max() == 100
        assert np.any(series & (terms < 0)) and np.any(~series & (terms < 0))

    @needs_cc
    @pytest.mark.parametrize("old, new", [
        ("term *= t / (s + (double)i);", "term = term * t / (s + (double)i);"),  # the series in another order
        ("d = an * d + b;", "d = fma(an, d, b);"),  # the continued fraction contracted, as -ffp-contract would
        ("failed += i >= cap;", "failed += 0;"),  # a diverging expansion reported as a value
    ])
    def test_falls_back_when_the_check_expansions_differ(self, tmp_path, monkeypatch, uncached_library, old, new):
        monkeypatch.setattr(_native, "_SOURCE", native_source_copy(tmp_path, old, new))
        assert _native.kernels.__wrapped__() is None
        # The orbit and the counters, which pass their parts of the check, fall back with the expansions.
        monkeypatch.setattr(_native, "kernels", _native.kernels.__wrapped__)
        assert analysis._kernels() is analysis._FALLBACK

    @pytest.mark.parametrize("chi, pairs, expansion", [
        (199998.0, 200001, "series"),  # a = 1e5, x = 99999
        (2e7 + 2.0, 20000001, "continued fraction"),  # a = 1e7, x = 1e7 + 1
    ])
    def test_divergence_raises_the_same_error_on_both_paths(self, chi, pairs, expansion, monkeypatch,
                                                           analysis_paths):
        with pytest.raises(DomainError, match=f"incomplete gamma {expansion} did not converge") as want:
            gamma_q((pairs - 1) / 2.0, chi / 2.0)
        crafted_scan(monkeypatch, [0.0, chi], [0, pairs])
        for kernels in analysis_paths:
            with pytest.raises(DomainError) as got:
                chi_square_attack(gray(10, 10, [0] * 100), 50)
            assert str(got.value) == str(want.value), kernels

    def test_only_prefixes_with_a_degree_of_freedom_are_expanded(self, monkeypatch):
        # The rest report p = 0; at a = 0 the compiled series would run to its cap.
        shapes = []

        def expansions(a, x):
            shapes.extend(a.tolist())
            return [analysis._expansion(a_k, x_k) for a_k, x_k in zip(a.tolist(), x.tolist())]

        kernels = analysis._kernels()._replace(expansions=expansions)
        monkeypatch.setattr(analysis, "_kernels", lambda: kernels)
        points = chi_square_attack(gray(7, 9, np.repeat(np.arange(100, 107), 9)), 1)
        assert {p.dof for p in points} >= {0, 1} and min(shapes) == 0.5
        assert len(shapes) == sum(p.dof >= 1 for p in points)

    def test_underflowed_prefix_hides_a_diverging_expansion(self, monkeypatch, analysis_paths):
        # At a = 1e7, x = 9873509 the prefix is about e**-800, so Q is 1,
        # though the series would need far more than 1000 terms.
        a, x = 1e7, 9873509.0
        assert -x + a * math.log(x) - math.lgamma(a) < -745.0
        assert python_expansion(a, x) is None
        if shutil.which("cc") is not None:
            assert kernel_terms([a], [x]).tolist() == [-1]
        crafted_scan(monkeypatch, [2.0 * x, 2.0 * x], [2 * int(a) + 1] * 2)
        for kernels in analysis_paths:
            points = chi_square_attack(gray(10, 10, [0] * 100), 50)
            assert [(p.dof, p.p_embedding) for p in points] == [(2 * int(a), 1.0)] * 2, kernels


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


def prefix_chi_square(prefix):
    """The chi-square of one prefix's histogram, counted from scratch, and
    its number of included pairs, as :func:`per_prefix_attack` scores them."""
    hist = np.bincount(prefix, minlength=256)
    even = hist[0::2].astype(np.float64)
    odd = hist[1::2].astype(np.float64)
    pair_total = even + odd
    included = pair_total > _POV_MIN_PAIR_TOTAL
    expected = pair_total[included] / 2.0
    chi = float(np.sum((even[included] - expected) ** 2 / expected)) if included.any() else 0.0
    return chi, int(included.sum())


def per_prefix_attack(image, step_percent):
    """The scan as first written, kept as the oracle: every prefix's
    histogram counted from scratch."""
    flat = image.samples.ravel()
    total = flat.size
    percents = list(range(step_percent, 101, step_percent))
    if percents[-1] != 100:
        percents.append(100)
    points = []
    for t in percents:
        hist = np.bincount(flat[: (total * t) // 100], minlength=256)
        even = hist[0::2].astype(np.float64)
        odd = hist[1::2].astype(np.float64)
        pair_total = even + odd
        included = pair_total > _POV_MIN_PAIR_TOTAL
        expected = pair_total[included] / 2.0
        chi = float(np.sum((even[included] - expected) ** 2 / expected)) if included.any() else 0.0
        dof = int(included.sum()) - 1
        p = gamma_q(dof / 2.0, chi / 2.0) if dof >= 1 else 0.0
        points.append((t / 100.0, chi, max(dof, 0), p))
    return points


def pair_rows(rng, targets):
    """Samples and bounds whose running counts have exactly ``targets[s]``
    pairs above the threshold at the end of segment ``s`` (``targets``
    nondecreasing, at most 128).  Each segment raises the next pairs of a
    random order by 5-300 samples, adds 0-39 to each pair raised before, and
    tops up one pair still below to a total of at most 4; each pair's new
    samples split at random between its two values."""
    order = rng.permutation(128)
    totals = np.zeros(128, dtype=np.int64)
    segments, done = [], 0
    for target in targets:
        added = np.zeros(128, dtype=np.int64)
        raised = order[done:target]
        added[raised] = rng.integers(5, 301, raised.size)
        if target < 128:
            low = order[rng.integers(target, 128)]
            added[low] = min(rng.integers(0, 5), _POV_MIN_PAIR_TOTAL - totals[low])
        added[order[:done]] = rng.integers(0, 40, done)
        totals += added
        evens = rng.binomial(added, rng.random(128))
        values = np.concatenate([np.repeat(2 * np.arange(128), evens), np.repeat(2 * np.arange(128) + 1, added - evens)])
        segments.append(rng.permutation(values).astype(np.uint8))
        done = target
    bounds = np.cumsum([0] + [segment.size for segment in segments])
    return np.concatenate(segments), bounds


def reprs(points):
    """The attack's points as the CSV prints them, field by field, so a
    -0.0 or NaN difference counts as a difference."""
    return [tuple(map(repr, point)) for point in points]


class TestChiSquareAttack:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 64),
        cols=st.integers(1, 64),
        channels=st.sampled_from([1, 3]),
        step=st.integers(1, 100),
        low=st.integers(0, 255),
        width=st.integers(0, 255),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_pass_scan_equals_per_prefix_oracle(self, rows, cols, channels, step, low, width, seed,
                                                     analysis_paths):
        # A narrow value range fills few pairs, so small images still
        # reach the pair-count threshold and report a statistic.
        rng = np.random.default_rng(seed)
        high = min(low + width, 255)
        values = rng.integers(low, high, rows * cols * channels, dtype=np.uint8, endpoint=True)
        image = RasterImage(rows, cols, channels, values)
        expected = reprs(per_prefix_attack(image, step))
        for kernels in analysis_paths:
            assert reprs(chi_square_attack(image, step)) == expected, kernels

    def test_workload_sized_scan_equals_per_prefix_oracle(self, analysis_paths):
        # Random samples, then even-only ones: the p-values sweep from 1
        # towards 0, through both of gamma_q's expansions.
        rng = np.random.default_rng(34)
        samples = rng.integers(0, 256, 512 * 512, dtype=np.uint8)
        samples[samples.size // 2:] &= 0xFE
        expected = reprs(per_prefix_attack(RasterImage(512, 512, 1, samples), 1))
        for kernels in analysis_paths:
            points = chi_square_attack(RasterImage(512, 512, 1, samples), 1)
            assert reprs(points) == expected, kernels
            series = sum(p.chi_square / 2.0 < p.dof / 2.0 + 1.0 for p in points)
            assert (len(points), series) == (100, 51)
            assert sum(0.0 < p.p_embedding < 1.0 for p in points) == 59

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        targets=st.lists(st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 127, 128]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(targets=[0, 1, 7, 8, 9, 15, 16, 17, 127, 128], seed=0)
    def test_scan_sums_as_numpy_at_the_summation_edges(self, targets, seed, analysis_paths):
        # 0-128 included pairs: numpy adds below 8 terms plainly and from 8
        # on keeps 8 partial sums, so these counts are its edges.
        targets = sorted(targets)
        samples, bounds = pair_rows(np.random.default_rng(seed), targets)
        expected = [prefix_chi_square(samples[:end]) for end in bounds[1:]]
        assert [pairs for _, pairs in expected] == targets
        for kernels in analysis_paths:
            _, chis, pairs = analysis._kernels().value_counts(samples, bounds)
            assert [(repr(chi), n) for chi, n in zip(chis.tolist(), pairs.tolist())] == \
                [(repr(chi), n) for chi, n in expected], kernels

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


class TestPsnrCapacity:
    """``payload_bits`` bookkeeping: bits per pixel, bounded by the samples."""

    def test_half_bpp_operating_point(self):
        img = RasterImage(512, 512, 1, np.zeros(512 * 512, dtype=np.uint8))
        assert psnr(img, img, payload_bits=131072).hiding_capacity_bpp == 0.5

    def test_table_operating_point(self):
        img = RasterImage(512, 512, 1, np.zeros(512 * 512, dtype=np.uint8))
        assert psnr(img, img, payload_bits=65536).hiding_capacity_bpp == 0.25

    def test_empty_payload(self):
        img = RasterImage(64, 64, 3, np.zeros(64 * 64 * 3, dtype=np.uint8))
        assert psnr(img, img, payload_bits=0).hiding_capacity_bpp == 0.0
        assert psnr(img, img, payload_bits=64 * 64 * 3).hiding_capacity_bpp == 3.0

    def test_overflow_rejected(self):
        img = gray(8, 8, [0] * 64)
        with pytest.raises(CapacityError, match="65 payload bits exceed the 64-sample grid"):
            psnr(img, img, payload_bits=65)

    def test_negative_rejected(self):
        img = gray(8, 8, [0] * 64)
        with pytest.raises(DomainError, match="non-negative"):
            psnr(img, img, payload_bits=-1)


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
