"""Raster image model, bit-exact netpbm I/O, and change accounting.

Only three formats exist here: binary PGM (P5) and PPM (P6) with maxval
255 for pixel data, and binary PBM (P4) as the carrier for the change-mark
bit matrices.  Writers emit one canonical header form so outputs are
byte-reproducible; readers tolerate the usual netpbm whitespace and
``#`` comments.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError, ParseError

_MAX_CELLS = 2**31 - 1
_WHITESPACE = b" \t\n\r\x0b\x0c"


class RasterImage:
    """8-bit grayscale or RGB pixel grid.

    Samples are held row-major on the flattened grid of ``cols * channels``
    columns (channel-interleaved), which is also the grid the position
    generator addresses.  Instances are treated as immutable: mutating
    operations return new images.
    """

    __slots__ = ("rows", "cols", "channels", "samples")

    def __init__(self, rows: int, cols: int, channels: int, samples) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("image must be at least 1x1")
        if channels not in (1, 3):
            raise ValueError("channels must be 1 (grayscale) or 3 (RGB)")
        arr = np.asarray(samples)
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("samples must be integers")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("samples must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        if arr.size != rows * cols * channels:
            raise ValueError(
                f"expected {rows * cols * channels} samples, got {arr.size}"
            )
        self.rows = rows
        self.cols = cols
        self.channels = channels
        self.samples = np.ascontiguousarray(arr.reshape(rows, cols * channels))

    @property
    def flat_cols(self) -> int:
        """Width of the flattened sample grid (cols * channels)."""
        return self.cols * self.channels

    def copy(self) -> "RasterImage":
        return RasterImage(self.rows, self.cols, self.channels, self.samples.copy())

    def planes(self) -> np.ndarray:
        """View shaped (rows, cols, channels)."""
        return self.samples.reshape(self.rows, self.cols, self.channels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RasterImage):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.channels == other.channels
            and bool(np.array_equal(self.samples, other.samples))
        )

    def __repr__(self) -> str:
        kind = "grayscale" if self.channels == 1 else "rgb"
        return f"RasterImage({self.rows}x{self.cols} {kind})"


class BitMatrix:
    """Image-sized matrix of {0,1} cells."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("bit matrix must be at least 1x1")
        arr = np.asarray(bits)
        if arr.size != rows * cols:
            raise ValueError(f"expected {rows * cols} bits, got {arr.size}")
        arr = arr.reshape(rows, cols)
        if arr.dtype != np.uint8:
            arr = arr.astype(np.uint8)
        if arr.size and arr.max() > 1:
            raise ValueError("bit matrix cells must be 0 or 1")
        self.rows = rows
        self.cols = cols
        self.bits = np.ascontiguousarray(arr)

    @classmethod
    def filled(cls, rows: int, cols: int, value: int) -> "BitMatrix":
        return cls(rows, cols, np.full((rows, cols), value, dtype=np.uint8))

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.bits.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# netpbm parsing
# ---------------------------------------------------------------------------

def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Skip whitespace/comments, then read one header token."""
    n = len(data)
    while pos < n:
        b = data[pos : pos + 1]
        if b in _WHITESPACE:
            pos += 1
        elif b == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ParseError("truncated netpbm header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _read_token(data, pos)
    if not token.isdigit():
        raise ParseError(f"netpbm header: {what} must be a decimal integer")
    return int(token), pos


def _skip_single_whitespace(data: bytes, pos: int) -> int:
    # Exactly one whitespace byte separates the header from the raster.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ParseError("netpbm header: expected whitespace before raster data")
    return pos + 1


def _read_header_dims(data: bytes, pos: int) -> tuple[int, int, int]:
    cols, pos = _read_int(data, pos, "width")
    rows, pos = _read_int(data, pos, "height")
    if cols < 1 or rows < 1:
        raise ParseError("netpbm header: dimensions must be positive")
    if rows * cols > _MAX_CELLS:
        raise ParseError("netpbm header: declared dimensions are implausibly large")
    return rows, cols, pos


def load_pnm(data: bytes) -> RasterImage:
    """Parse a binary PGM (P5) or PPM (P6) with maxval 255."""
    if len(data) < 2:
        raise ParseError("not a netpbm file")
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ParseError(f"unsupported netpbm magic {magic!r} (want P5 or P6)")
    rows, cols, pos = _read_header_dims(data, 2)
    maxval, pos = _read_int(data, pos, "maxval")
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval} (only 8-bit images, maxval 255)")
    pos = _skip_single_whitespace(data, pos)
    need = rows * cols * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ParseError(f"truncated raster: expected {need} bytes, got {len(payload)}")
    if len(data) > pos + need:
        raise ParseError("trailing bytes after raster data")
    samples = np.frombuffer(payload, dtype=np.uint8)
    return RasterImage(rows, cols, channels, samples)


def save_pnm(image: RasterImage) -> bytes:
    """Emit the canonical binary form; load_pnm(save_pnm(img)) == img."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (image.cols, image.rows)
    return header + image.samples.tobytes()


def load_pbm(data: bytes) -> BitMatrix:
    """Parse a binary PBM (P4): bit-packed rows, MSB first, byte-padded."""
    if len(data) < 2:
        raise ParseError("not a netpbm file")
    if data[:2] != b"P4":
        raise ParseError(f"unsupported netpbm magic {data[:2]!r} (want P4)")
    rows, cols, pos = _read_header_dims(data, 2)
    pos = _skip_single_whitespace(data, pos)
    row_bytes = (cols + 7) // 8
    need = rows * row_bytes
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ParseError(f"truncated bitmap: expected {need} bytes, got {len(payload)}")
    if len(data) > pos + need:
        raise ParseError("trailing bytes after bitmap data")
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(rows, row_bytes)
    bits = np.unpackbits(packed, axis=1)[:, :cols]
    return BitMatrix(rows, cols, bits)


def save_pbm(matrix: BitMatrix) -> bytes:
    """Emit canonical binary PBM; row padding bits are written as 0."""
    header = b"P4\n%d %d\n" % (matrix.cols, matrix.rows)
    packed = np.packbits(matrix.bits, axis=1)
    return header + packed.tobytes()


# ---------------------------------------------------------------------------
# Change accounting
# ---------------------------------------------------------------------------

def flip_count(cover: RasterImage, stego: RasterImage) -> int:
    """Number of samples where the two images differ.

    Every difference must have magnitude exactly 1, i.e. be an LSB flip;
    violations are reported with their positions.  ``analysis.psnr``
    counts the changed samples of a generic image pair.
    """
    if (cover.rows, cover.cols, cover.channels) != (stego.rows, stego.cols, stego.channels):
        raise DimensionMismatch(
            f"{cover!r} vs {stego!r}: images must share dimensions and channels"
        )
    delta = cover.samples.astype(np.int16) - stego.samples.astype(np.int16)
    bad = np.argwhere(np.abs(delta) > 1)
    if len(bad):
        shown = ", ".join(f"({r}, {c})" for r, c in bad[:5])
        raise DomainError(
            f"{len(bad)} samples differ by more than 1 (not LSB-only), "
            f"first at {shown}"
        )
    return int(np.count_nonzero(delta))
