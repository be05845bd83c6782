"""netpbm parsing and change accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaostego.errors import DimensionMismatch, DomainError, ParseError
from chaostego.imagery import (
    RasterImage,
    abs_difference,
    flip_count,
    load_pbm,
    load_pnm,
    save_pbm,
    save_pnm,
)


def gray(rows, cols, values):
    return RasterImage(rows, cols, 1, np.asarray(values, dtype=np.uint8))


images = st.builds(
    lambda rows, cols, channels, seed: RasterImage(
        rows, cols, channels,
        np.random.default_rng(seed).integers(0, 256, rows * cols * channels, dtype=np.uint8),
    ),
    st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1),
)

matrices = st.builds(
    lambda rows, cols, seed: np.random.default_rng(seed).integers(
        0, 2, (rows, cols), dtype=np.uint8
    ),
    st.integers(1, 10), st.integers(1, 21), st.integers(0, 2**32 - 1),
)


class TestRasterImage:
    @pytest.mark.parametrize("rows, cols, channels, samples, message", [
        (0, 4, 1, np.zeros(0, dtype=np.uint8), "at least 1x1"),
        (4, 0, 1, np.zeros(0, dtype=np.uint8), "at least 1x1"),
        (2, 2, 2, np.zeros(8, dtype=np.uint8), "channels must be 1"),
        (2, 2, 1, np.zeros(4, dtype=np.float64), "must be integers"),
        (2, 2, 1, np.array([0, 1, 2, -1]), r"lie in \[0, 255\]"),
        (2, 2, 1, np.array([0, 1, 2, 256]), r"lie in \[0, 255\]"),
        (2, 2, 1, np.zeros(5, dtype=np.uint8), "expected 4 samples, got 5"),
    ], ids=["rows-0", "cols-0", "channels-2", "float", "below-0", "above-255", "count"])
    def test_rejects_bad_arguments(self, rows, cols, channels, samples, message):
        with pytest.raises(ValueError, match=message):
            RasterImage(rows, cols, channels, samples)

    def test_in_range_int64_samples_become_uint8(self):
        values = np.arange(0, 256, 17, dtype=np.int64)[:12]
        image = RasterImage(2, 2, 3, values)
        assert image.samples.dtype == np.uint8
        assert image == RasterImage(2, 2, 3, values.astype(np.uint8))


class TestLoadPnm:
    def test_smallest_pgm(self):
        img = load_pnm(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        assert (img.rows, img.cols, img.channels) == (2, 2, 1)
        assert img.samples.ravel().tolist() == [0, 1, 2, 3]

    def test_smallest_ppm(self):
        img = load_pnm(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
        assert (img.rows, img.cols, img.channels) == (1, 1, 3)
        assert img.samples.ravel().tolist() == [10, 20, 30]

    def test_sixteen_bit_rejected(self):
        with pytest.raises(ParseError):
            load_pnm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_header_comments_and_whitespace(self):
        data = b"P5 # a comment\n# another\n  2\t2 # dims\n255\n" + bytes(4)
        img = load_pnm(data)
        assert (img.rows, img.cols) == (2, 2)

    @pytest.mark.parametrize(
        "data",
        [
            b"P7\n1 1\n255\n\x00",          # wrong magic
            b"P5\n1 1\n255\n",              # truncated payload
            b"P5\n2 2\n255\n\x00\x00\x00",  # short payload
            b"P5\n1 1\n255\n\x00\x00",      # trailing junk
            b"P5\n0 1\n255\n",              # zero dimension
            b"P5\n-1 1\n255\n",             # negative dimension
            b"P5\n70000 70000\n255\n",      # > 2^31 - 1 cells
            b"P5\n1 x\n255\n\x00",          # non-numeric token
            b"P5",                          # header cut off
            b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00",  # width beyond int()'s digit limit
            b"P5\n1 1\n" + b"9" * 5000 + b"\n\x00",    # maxval beyond it
            b"P5\n1 1\n255#c\n\x07",        # comment between maxval and raster
            b"P5\n1 #1\n255\n\x07",         # digits in a comment are no field
            b"P5\n1 1\n255",                # header cut off after maxval
            b"P5\n1 1 #c",                  # header cut off in a comment
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ParseError):
            load_pnm(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"P51 1\n255\n\x07",            # magic runs straight into the width
            b"P5\r1\x0b1\x0c255\t\x07",     # CR, VT, FF and tab separate fields
            b"P5\n1#c\n1 255\n\x07",        # "#" right after a field
            b"P5 #9 9\n1 1 # 3 3\n255\n\x07",
            b"P5\n1 1\n255\n\n",            # the raster's first byte is "\n"
        ],
    )
    def test_accepted_header_forms(self, data):
        img = load_pnm(data)
        assert (img.rows, img.cols, img.channels) == (1, 1, 1)
        assert img.samples.tobytes() == data[-1:]


class TestSavePnm:
    def test_canonical_single_pixel(self):
        assert save_pnm(gray(1, 1, [255])) == b"P5\n1 1\n255\n\xff"

    def test_header_is_cols_then_rows(self):
        img = RasterImage(2, 3, 3, np.zeros(18, dtype=np.uint8))
        assert save_pnm(img).startswith(b"P6\n3 2\n255\n")

    @settings(max_examples=60)
    @given(images)
    def test_round_trip_identity(self, img):
        assert load_pnm(save_pnm(img)) == img


class TestPbm:
    def test_bit_order_msb_first(self):
        m = load_pbm(b"P4\n8 1\n" + bytes([0b10110000]))
        assert m.ravel().tolist() == [1, 0, 1, 1, 0, 0, 0, 0]

    def test_row_padding(self):
        m = np.array([[1, 1, 0, 1, 1]], dtype=np.uint8)
        data = save_pbm(m)
        assert data == b"P4\n5 1\n" + bytes([0b11011000])  # 3 zero padding bits
        assert np.array_equal(load_pbm(data), m)

    def test_padding_ignored_on_read(self):
        # Same matrix with padding bits set: values beyond col 5 are dropped.
        m = load_pbm(b"P4\n5 1\n" + bytes([0b11011111]))
        assert m.ravel().tolist() == [1, 1, 0, 1, 1]

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            load_pbm(b"P5\n8 1\n\x00")
        with pytest.raises(ParseError):
            load_pbm(b"P4\n16 2\n\x00\x00\x00")  # needs 4 bytes
        with pytest.raises(ParseError, match="too many digits"):
            load_pbm(b"P4\n" + b"9" * 5000 + b" 1\n\x00")
        with pytest.raises(ParseError, match="too many digits"):
            load_pbm(b"P4\n1 " + b"9" * 5000 + b"\n\x00")
        with pytest.raises(ParseError, match="expected whitespace before raster"):
            load_pbm(b"P4\n8 1#c\n\x80")

    def test_accepted_header_form(self):
        m = load_pbm(b"P4 #c\n8#c\n1\n\x80")
        assert m.tolist() == [[1, 0, 0, 0, 0, 0, 0, 0]]

    @settings(max_examples=60)
    @given(matrices)
    def test_round_trip_identity(self, m):
        assert np.array_equal(load_pbm(save_pbm(m)), m)

    def test_load_returns_contiguous_uint8_grid(self):
        m = load_pbm(b"P4\n5 2\n" + bytes([0b10100000, 0b01011000]))
        assert m.shape == (2, 5) and m.dtype == np.uint8
        assert m.flags.c_contiguous and m.flags.writeable
        assert m.tolist() == [[1, 0, 1, 0, 0], [0, 1, 0, 1, 1]]

    @pytest.mark.parametrize(
        "marks",
        [
            [[0, 1]],                               # not an array
            np.zeros(4, dtype=np.uint8),            # 1-D
            np.zeros((1, 2, 2), dtype=np.uint8),    # 3-D
            np.zeros((0, 3), dtype=np.uint8),       # empty
            np.array([[0, 2]], dtype=np.uint8),     # cell above 1
            np.array([[0, 1]], dtype=np.int64),     # wider than uint8
            np.array([[0.0, 1.0]]),                 # not integers
        ],
    )
    def test_save_rejects_non_bit_matrices(self, marks):
        with pytest.raises(DomainError):
            save_pbm(marks)

    def test_save_takes_bool_cells(self):
        cells = [[1, 0, 1, 1, 0, 0, 0, 0, 1]]
        expected = b"P4\n9 1\n" + bytes([0b10110000, 0b10000000])
        assert save_pbm(np.array(cells, dtype=bool)) == expected
        assert save_pbm(np.array(cells, dtype=np.uint8)) == expected


class TestFlipCount:
    def test_identical_images(self):
        img = gray(2, 2, [9, 8, 7, 6])
        assert flip_count(img, RasterImage(img.rows, img.cols, img.channels, img.samples.copy())) == 0

    def test_single_lsb_change(self):
        cover = gray(1, 2, [200, 10])
        stego = gray(1, 2, [201, 10])
        assert flip_count(cover, stego) == 1

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = RasterImage(6, 6, 1, rng.integers(0, 256, 36, dtype=np.uint8))
        b = RasterImage(a.rows, a.cols, a.channels, a.samples.copy())
        b.samples[1, 3] ^= 1
        b.samples[4, 2] ^= 1
        assert flip_count(a, b) == flip_count(b, a) == 2

    def test_non_lsb_difference_reported(self):
        cover = gray(1, 2, [100, 10])
        stego = gray(1, 2, [103, 10])
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            flip_count(cover, stego)

    def test_report_covers_both_signs_and_full_range(self):
        # 0 -> 255 and 255 -> 0 both count; positions come in row-major order.
        cover = gray(2, 3, [0, 7, 255, 9, 255, 4])
        stego = gray(2, 3, [255, 6, 0, 9, 253, 4])
        message = "3 samples differ by more than 1 (not LSB-only), first at (0, 0), (0, 2), (1, 1)"
        for a, b in ((cover, stego), (stego, cover)):
            with pytest.raises(DomainError) as raised:
                flip_count(a, b)
            assert str(raised.value) == message

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            flip_count(gray(1, 2, [0, 0]), gray(2, 1, [0, 0]))
        rgb = RasterImage(1, 2, 3, np.zeros(6, dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            flip_count(gray(1, 2, [0, 0]), rgb)


class TestAbsDifference:
    @settings(max_examples=60, derandomize=True)
    @given(images, st.integers(0, 2**32 - 1))
    def test_equals_the_widened_difference(self, a, seed):
        samples = np.random.default_rng(seed).integers(0, 256, a.samples.size, dtype=np.uint8)
        b = RasterImage(a.rows, a.cols, a.channels, samples)
        delta = abs_difference(a, b)
        assert delta.dtype == np.uint8 and delta.shape == a.samples.shape
        widened = np.abs(a.samples.astype(np.int64) - b.samples.astype(np.int64))
        assert np.array_equal(delta, widened)
        assert np.array_equal(abs_difference(b, a), delta)

    def test_full_range_and_inputs_untouched(self):
        a = gray(1, 4, [0, 255, 0, 255])
        b = gray(1, 4, [255, 0, 0, 255])
        assert abs_difference(a, b).tolist() == [[255, 255, 0, 0]]
        assert a.samples.tolist() == [[0, 255, 0, 255]] and b.samples.tolist() == [[255, 0, 0, 255]]

    def test_dimension_mismatch(self):
        # Rows differ, and so do channels where the sample grids agree (2x6).
        rgb = RasterImage(2, 2, 3, np.zeros(12, dtype=np.uint8))
        for a, b in ((gray(1, 4, [0] * 4), gray(3, 4, [0] * 12)), (rgb, gray(2, 6, [0] * 12))):
            for pair in ((a, b), (b, a)):
                with pytest.raises(DimensionMismatch, match=r"\): dimensions must match$"):
                    abs_difference(*pair)
