"""Raster image model, bit-exact netpbm I/O, and change accounting.

Only three formats exist here: binary PGM (P5) and PPM (P6) with maxval
255 for pixel data, and binary PBM (P4) as the carrier for the change-mark
bit matrices.  Writers emit one canonical header form so outputs are
byte-reproducible; readers tolerate the usual netpbm whitespace and
``#`` comments.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DimensionMismatch, DomainError, ParseError

_MAX_CELLS = 2**31 - 1


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


# ---------------------------------------------------------------------------
# netpbm parsing
# ---------------------------------------------------------------------------

# One header field: separators (whitespace bytes, or a "#" comment through its
# newline), then the token that runs to the next separator.  The token is
# empty only at the end of the data or at a comment that never ends.  The
# separators are spelled as a whitespace run, then comments each followed by
# a whitespace run, so that a long run is one repeat, not one per byte.
_FIELD = re.compile(rb"[ \t\n\r\v\f]*(?:#[^\n]*\n[ \t\n\r\v\f]*)*([^ \t\n\r\v\f#]*)")


def _read_netpbm(data: bytes, formats: dict[bytes, int], kind: str) -> tuple[np.ndarray, int, int]:
    """Check a binary netpbm header and raster length; split the raster off.

    ``formats`` maps each accepted magic to its samples per pixel, or to 0
    for the P4 bitmap, which has no maxval field and packs eight pixels into
    each byte of a row.  Returns the raster as a read-only ``rows x
    row_bytes`` view of ``data``, the pixel columns and the samples per pixel.
    """
    if len(data) < 2:
        raise ParseError("not a netpbm file")
    magic = data[:2]
    if magic not in formats:
        want = " or ".join(m.decode() for m in formats)
        raise ParseError(f"unsupported netpbm magic {magic!r} (want {want})")
    channels = formats[magic]
    fields: list[int] = []
    pos = 2
    for what in ("width", "height", "maxval")[: 3 if channels else 2]:
        m = _FIELD.match(data, pos)
        token, pos = m[1], m.end()
        if not token:
            raise ParseError("truncated netpbm header")
        if not token.isdigit():
            raise ParseError(f"netpbm header: {what} must be a decimal integer")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"netpbm header: {what} has too many digits") from None
        if what == "height":
            cols, rows = fields
            if cols < 1 or rows < 1:
                raise ParseError("netpbm header: dimensions must be positive")
            if rows * cols > _MAX_CELLS:
                raise ParseError("netpbm header: declared dimensions are implausibly large")
    if channels and fields[2] != 255:
        raise ParseError(f"unsupported maxval {fields[2]} (only 8-bit images, maxval 255)")
    # Exactly one whitespace byte separates the header from the raster.
    if not data[pos : pos + 1].isspace():
        raise ParseError("netpbm header: expected whitespace before raster data")
    pos += 1
    row_bytes = cols * channels if channels else (cols + 7) // 8
    need, got = rows * row_bytes, len(data) - pos
    if got < need:
        raise ParseError(f"truncated {kind}: expected {need} bytes, got {got}")
    if got > need:
        raise ParseError(f"trailing bytes after {kind} data")
    raster = np.frombuffer(data, np.uint8, count=need, offset=pos)
    return raster.reshape(rows, row_bytes), cols, channels


def load_pnm(data: bytes) -> RasterImage:
    """Parse a binary PGM (P5) or PPM (P6) with maxval 255."""
    raster, cols, channels = _read_netpbm(data, {b"P5": 1, b"P6": 3}, "raster")
    return RasterImage(len(raster), cols, channels, raster)


def save_pnm(image: RasterImage) -> bytes:
    """Emit the canonical binary form; load_pnm(save_pnm(img)) == img."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (image.cols, image.rows)
    return header + image.samples.tobytes()


def load_pbm(data: bytes) -> tuple[np.ndarray, int]:
    """Parse a binary PBM (P4): bit-packed rows, MSB first, byte-padded.

    Returns the raster, a read-only ``rows x ceil(cols / 8)`` uint8 view of
    ``data``, and ``cols``, the width the header declares.  Padding bits are
    kept as read; nothing here or in :mod:`codec` reads them.
    """
    raster, cols, _ = _read_netpbm(data, {b"P4": 0}, "bitmap")
    return raster, cols


def save_pbm(raster: np.ndarray, cols: int) -> bytes:
    """Emit canonical binary PBM of a raster of ``cols`` cells to a row, as
    :func:`load_pbm` returns it: a non-empty 2-D uint8 array of
    ``ceil(cols / 8)``-byte rows, written as it is, padding bits included."""
    if not (isinstance(raster, np.ndarray) and raster.ndim == 2 and raster.size and raster.dtype == np.uint8
            and isinstance(cols, int) and cols > 0 and raster.shape[1] == (cols + 7) // 8):
        raise DomainError(f"a PBM of {cols!r} columns holds a non-empty 2-D uint8 raster of its packed rows")
    header = b"P4\n%d %d\n" % (cols, len(raster))
    return header + raster.tobytes()


# ---------------------------------------------------------------------------
# Change accounting
# ---------------------------------------------------------------------------

def check_pair(cover: RasterImage, stego: RasterImage) -> None:
    """Raise :class:`DimensionMismatch` unless the two images share rows,
    columns and channels: the rule of every image pair compared here."""
    if (cover.rows, cover.cols, cover.channels) != (stego.rows, stego.cols, stego.channels):
        raise DimensionMismatch(f"{cover!r} vs {stego!r}: dimensions must match")


def abs_difference(cover: RasterImage, stego: RasterImage) -> np.ndarray:
    """|cover - stego| per sample as uint8: the larger minus the smaller, so
    no sample is widened.  A mismatched pair raises as in :func:`check_pair`."""
    check_pair(cover, stego)
    delta = np.maximum(cover.samples, stego.samples)
    delta -= np.minimum(cover.samples, stego.samples)
    return delta


def flip_count(cover: RasterImage, stego: RasterImage) -> int:
    """Number of samples where the two images differ.

    Every difference must have magnitude exactly 1, i.e. be an LSB flip;
    violations are reported with their positions, and a mismatched pair
    as in :func:`abs_difference`.  ``analysis.psnr`` counts the changed
    samples of a generic image pair.
    """
    delta = abs_difference(cover, stego)
    bad = np.argwhere(delta > 1)
    if len(bad):
        shown = ", ".join(f"({r}, {c})" for r, c in bad[:5])
        raise DomainError(
            f"{len(bad)} samples differ by more than 1 (not LSB-only), "
            f"first at {shown}"
        )
    return int(np.count_nonzero(delta))
