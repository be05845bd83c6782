"""Message bit framing, embedding, and extraction.

A message becomes a bit payload, a read-only 1-D uint8 array of 0/1
values: a 32-bit big-endian count of payload bits, then the payload
itself (7 bits per character for ASCII text, 16 for single-code-unit
Unicode, 8 per byte for raw data, MSB first).
Bits are written into image LSBs at the keyed position stream, and every
pixel that actually changed is marked by setting the same cell of both
change-mark matrices to the embedded bit.  Extraction regenerates the
stream and reads each bit from the matrices where they agree (changed
pixel) or from the stego LSB where they differ (untouched pixel).  The
matrices are held as the PBM rasters they are saved as, and both steps run
in the ``scatter`` and ``gather`` of :func:`_native.kernels`: the compiled
kernels, or :func:`_numpy_scatter` and :func:`_numpy_gather`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .chaos import ImageDims
# Bound under the name perfbench/tracing.py patches to time the orbit.
from .chaos import select_positions as iter_positions
from .errors import (
    DecodeError,
    DimensionMismatch,
    EncodingError,
    ExtractError,
    InsufficientCapacity,
)
from .imagery import RasterImage
from .keymat import MODES, PublicCoupling, SecretKeySet

HEADER_BITS = 32


@dataclass(frozen=True)
class MessagePayload:
    """Framed bit payload: 32-bit length header plus payload bits.

    ``bits`` is a read-only 1-D ``uint8`` array of 0/1 values, copied from
    the array-like it is built from; ``==`` compares mode and bits.
    Framing invariants are checked by :func:`decode_message`, not on
    construction, because payloads recovered from a corrupted image may
    violate them and still need to exist for error-rate measurement.
    """

    mode: str
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise EncodingError(f"unknown mode {self.mode!r}")
        bits = np.array(self.bits)
        if bits.ndim != 1 or ((bits != 0) & (bits != 1)).any():
            raise EncodingError("payload bits must be a 1-D sequence of 0s and 1s")
        if len(bits) < HEADER_BITS:
            raise EncodingError("payload shorter than its 32-bit header")
        bits = bits.astype(np.uint8, copy=False)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessagePayload):
            return NotImplemented
        return self.mode == other.mode and np.array_equal(self.bits, other.bits)


def _header_value(header: np.ndarray) -> int:
    """The big-endian count held by 32 header bits."""
    return int(np.packbits(header).view(">u4")[0])


def _frame(mode: str, payload: np.ndarray) -> MessagePayload:
    n = len(payload)
    if n >= 1 << HEADER_BITS:
        raise EncodingError("message too long for the 32-bit length header")
    header = np.unpackbits(np.array([n], dtype=">u4").view(np.uint8))
    return MessagePayload(mode, np.concatenate([header, payload]))


def encode_message(message, mode: str) -> MessagePayload:
    """Turn text (ascii7/utf16) or bytes (raw) into a framed bit payload."""
    if mode not in MODES:
        raise EncodingError(f"unknown mode {mode!r}")
    if mode == "raw":
        if not isinstance(message, (bytes, bytearray)):
            raise EncodingError("raw mode takes a byte string")
        return _frame(mode, np.unpackbits(np.frombuffer(message, dtype=np.uint8)))

    if not isinstance(message, str):
        raise EncodingError(f"{mode} mode takes a character string")
    width = MODES[mode]
    # One code point per character; surrogatepass keeps lone surrogates,
    # which are single UTF-16 code units.
    cps = np.frombuffer(message.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    over = np.flatnonzero(cps > (1 << width) - 1)
    if over.size:
        cp = int(cps[over[0]])
        raise EncodingError(
            f"character U+{cp:04X} does not fit a {width}-bit {mode} unit"
        )
    units = np.unpackbits(cps.astype(">u2").view(np.uint8)).reshape(-1, 16)
    return _frame(mode, units[:, 16 - width :].reshape(-1))


def decode_message(payload: MessagePayload):
    """Inverse of encode_message; returns str (text modes) or bytes (raw)."""
    declared = _header_value(payload.bits[:HEADER_BITS])
    body = payload.bits[HEADER_BITS:]
    if len(body) != declared:
        raise DecodeError(
            f"header declares {declared} payload bits but {len(body)} are present"
        )
    width = MODES[payload.mode]
    if declared % width:
        raise DecodeError(
            f"{declared} payload bits is not a multiple of the {width}-bit "
            f"{payload.mode} group size"
        )
    if payload.mode == "raw":
        return np.packbits(body).tobytes()
    units = np.zeros((declared // width, 16), dtype=np.uint8)
    units[:, 16 - width :] = body.reshape(-1, width)
    cps = np.packbits(units, axis=1).view(">u2").ravel()
    return cps.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")


# ---------------------------------------------------------------------------
# Embedding / extraction
# ---------------------------------------------------------------------------

@dataclass
class StegoBundle:
    """Everything the recipient receives: stego image, marks, public data.

    ``ones`` and ``zeros`` are the change-mark matrices, one cell per sample
    of ``stego.samples``, as PBM rasters: ``rows x ceil(cols * channels / 8)``
    uint8 arrays, each row's cells packed MSB first with padding bits 0.
    They start all-1 and all-0 (every cell differs); embedding sets both
    cells of a changed sample to the embedded bit, so equal cells mark a
    changed sample.
    """

    stego: RasterImage
    ones: np.ndarray
    zeros: np.ndarray
    coupling: PublicCoupling
    mode: str


def embed(
    cover: RasterImage,
    payload: MessagePayload,
    keys: SecretKeySet,
    coupling: PublicCoupling,
) -> StegoBundle:
    """Write the payload bits into the cover at the keyed position stream."""
    bits = payload.bits
    flat = iter_positions(keys, coupling, ImageDims(cover.rows, cover.flat_cols), len(bits))
    stego, ones, zeros = _native.kernels().scatter(cover.samples, flat, bits)
    stego_image = RasterImage(cover.rows, cover.cols, cover.channels, stego)
    return StegoBundle(stego_image, ones, zeros, coupling, payload.mode)


def extract(bundle: StegoBundle, keys: SecretKeySet) -> MessagePayload:
    """Regenerate the position stream and read the payload back out.

    Bit rule per position: if the two mark matrices agree there, the pixel
    was changed and the bit is that shared mark; otherwise the bit is the
    stego LSB (which under lossless transport equals the cover LSB).
    """
    samples = bundle.stego.samples
    for marks in (bundle.ones, bundle.zeros):
        check_marks(bundle.stego, marks, bundle.stego.flat_cols)

    header = _recover_bits(bundle, keys, HEADER_BITS)
    declared = _header_value(header)
    if HEADER_BITS + declared > samples.size:
        raise ExtractError(
            f"header declares {declared} payload bits, more than the "
            f"{samples.size}-sample grid can carry"
        )
    return MessagePayload(bundle.mode, _recover_bits(bundle, keys, HEADER_BITS + declared))


def _recover_bits(bundle: StegoBundle, keys: SecretKeySet, count: int) -> np.ndarray:
    """The first ``count`` bits of the keyed stream: at each position the
    shared mark where the two mark matrices agree, else the stego LSB."""
    stego = bundle.stego
    try:
        flat = iter_positions(keys, bundle.coupling, ImageDims(stego.rows, stego.flat_cols), count)
    except InsufficientCapacity as exc:
        raise ExtractError(f"position stream could not be regenerated: {exc}") from exc
    return _native.kernels().gather(stego.samples, bundle.ones, bundle.zeros, flat)


def check_marks(stego: RasterImage, marks: np.ndarray, cols: int) -> None:
    """Raise :class:`DimensionMismatch` unless ``marks``, a mark raster of
    ``cols`` cells to a row as :func:`imagery.load_pbm` returns it, holds one
    cell per sample of ``stego``.  Packed rows hide the width (250 and 256
    cells both pack to 32 bytes), so ``cols`` is compared as well as the shape."""
    shape = (len(marks), cols)
    if shape != stego.samples.shape:
        raise DimensionMismatch(
            f"mark matrix of shape {shape} does not match the sample grid "
            f"of shape {stego.samples.shape}"
        )
    if marks.shape != (shape[0], (cols + 7) // 8):
        raise DimensionMismatch(f"mark raster of shape {marks.shape} does not pack {cols} cells to a row")


def _numpy_scatter(samples: np.ndarray, flat: np.ndarray, bits: np.ndarray):
    """The stego samples and the ``ones`` and ``zeros`` rasters of writing
    ``bits`` into the LSBs of the 2-D ``samples`` at the distinct flat
    indices ``flat``: the reference for ``scatter`` in ``_native.c``, and the
    fallback where it cannot run."""
    stego = samples.copy()
    flat_samples = stego.reshape(-1)
    old = flat_samples[flat]
    changed = (old ^ bits) & 1  # 1 where the LSB must flip
    flat_samples[flat] = old ^ changed
    # A changed sample gets its bit in both marks; an unchanged one 1 and 0.
    ones = np.ones_like(stego)
    zeros = np.zeros_like(stego)
    ones.reshape(-1)[flat] = bits | (changed ^ 1)
    zeros.reshape(-1)[flat] = bits & changed
    return stego, np.packbits(ones, axis=1), np.packbits(zeros, axis=1)


def _numpy_gather(samples: np.ndarray, ones: np.ndarray, zeros: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The bits at the flat indices ``flat`` of the 2-D ``samples``: the
    shared mark where the ``ones`` and ``zeros`` rasters agree, else the LSB.
    The reference for ``gather`` in ``_native.c``, and the fallback where it
    cannot run."""
    cols = samples.shape[1]
    ones = np.unpackbits(ones, axis=1, count=cols).reshape(-1)[flat]
    zeros = np.unpackbits(zeros, axis=1, count=cols).reshape(-1)[flat]
    lsb = samples.reshape(-1)[flat] & 1
    return np.where(ones == zeros, ones, lsb)


def bit_error_rate(sent: MessagePayload, received: MessagePayload) -> float:
    """Fraction of differing bits (header included) between two payloads."""
    if len(sent.bits) != len(received.bits):
        raise DimensionMismatch(
            f"payload lengths differ: {len(sent.bits)} vs {len(received.bits)} bits"
        )
    return float(np.count_nonzero(sent.bits != received.bits) / len(sent.bits))
