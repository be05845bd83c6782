"""netpbm parsing and change accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaostego.errors import DimensionMismatch, DomainError, ParseError
from chaostego.imagery import (
    BitMatrix,
    RasterImage,
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
    lambda rows, cols, seed: BitMatrix(
        rows, cols,
        np.random.default_rng(seed).integers(0, 2, (rows, cols), dtype=np.uint8),
    ),
    st.integers(1, 10), st.integers(1, 21), st.integers(0, 2**32 - 1),
)


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
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ParseError):
            load_pnm(data)


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
        assert m.bits.ravel().tolist() == [1, 0, 1, 1, 0, 0, 0, 0]

    def test_row_padding(self):
        m = BitMatrix(1, 5, [1, 1, 0, 1, 1])
        data = save_pbm(m)
        assert data == b"P4\n5 1\n" + bytes([0b11011000])  # 3 zero padding bits
        assert load_pbm(data) == m

    def test_padding_ignored_on_read(self):
        # Same matrix with padding bits set: values beyond col 5 are dropped.
        m = load_pbm(b"P4\n5 1\n" + bytes([0b11011111]))
        assert m.bits.ravel().tolist() == [1, 1, 0, 1, 1]

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            load_pbm(b"P5\n8 1\n\x00")
        with pytest.raises(ParseError):
            load_pbm(b"P4\n16 2\n\x00\x00\x00")  # needs 4 bytes

    @settings(max_examples=60)
    @given(matrices)
    def test_round_trip_identity(self, m):
        assert load_pbm(save_pbm(m)) == m


class TestFlipCount:
    def test_identical_images(self):
        img = gray(2, 2, [9, 8, 7, 6])
        assert flip_count(img, img.copy()) == 0

    def test_single_lsb_change(self):
        cover = gray(1, 2, [200, 10])
        stego = gray(1, 2, [201, 10])
        assert flip_count(cover, stego) == 1

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = RasterImage(6, 6, 1, rng.integers(0, 256, 36, dtype=np.uint8))
        b = a.copy()
        b.samples[1, 3] ^= 1
        b.samples[4, 2] ^= 1
        assert flip_count(a, b) == flip_count(b, a) == 2

    def test_non_lsb_difference_reported(self):
        cover = gray(1, 2, [100, 10])
        stego = gray(1, 2, [103, 10])
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            flip_count(cover, stego)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            flip_count(gray(1, 2, [0, 0]), gray(2, 1, [0, 0]))
        rgb = RasterImage(1, 2, 3, np.zeros(6, dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            flip_count(gray(1, 2, [0, 0]), rgb)
