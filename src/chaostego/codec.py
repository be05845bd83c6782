"""Message bit framing, embedding, and extraction.

A message becomes a bit payload, a read-only 1-D uint8 array of 0/1
values: a 32-bit big-endian count of payload bits, then the payload
itself (7 bits per character for ASCII text, 16 for single-code-unit
Unicode, 8 per byte for raw data, MSB first).
Bits are written into image LSBs at the keyed position stream, and every
pixel that actually changed is marked by setting the same cell of both
change-mark matrices to the embedded bit.  Extraction regenerates the
stream and reads each bit from the matrices where they agree (changed
pixel) or from the stego LSB where they differ (untouched pixel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chaos import ImageDims
# Bound under the name perfbench/tracing.py patches to time the orbit.
from .chaos import select_positions as iter_positions
from .errors import (
    CapacityError,
    DecodeError,
    DimensionMismatch,
    DomainError,
    EncodingError,
    ExtractError,
    InsufficientCapacity,
)
from .imagery import BitMatrix, RasterImage
from .keymat import MODES, PublicCoupling, SecretKeySet, validate_coupling, validate_keys

HEADER_BITS = 32

_GROUP_BITS = {"ascii7": 7, "utf16": 16, "raw": 8}


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

    @property
    def declared_length(self) -> int:
        """Payload bit count claimed by the header."""
        return _header_value(self.bits[:HEADER_BITS])


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
    width = _GROUP_BITS[mode]
    limit = 0x7F if mode == "ascii7" else 0xFFFF
    # One code point per character; surrogatepass keeps lone surrogates,
    # which are single UTF-16 code units.
    cps = np.frombuffer(message.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    over = np.flatnonzero(cps > limit)
    if over.size:
        cp = int(cps[over[0]])
        raise EncodingError(
            f"character U+{cp:04X} does not fit a {width}-bit {mode} unit"
        )
    units = np.unpackbits(cps.astype(">u2").view(np.uint8)).reshape(-1, 16)
    return _frame(mode, units[:, 16 - width :].reshape(-1))


def decode_message(payload: MessagePayload):
    """Inverse of encode_message; returns str (text modes) or bytes (raw)."""
    declared = payload.declared_length
    body = payload.bits[HEADER_BITS:]
    if len(body) != declared:
        raise DecodeError(
            f"header declares {declared} payload bits but {len(body)} are present"
        )
    width = _GROUP_BITS[payload.mode]
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

    ``ones`` and ``zeros`` are the change-mark matrices.  They start all-1
    and all-0 (every cell differs); embedding sets both cells of a changed
    pixel to the embedded bit, so equal cells mark a changed pixel.
    """

    stego: RasterImage
    ones: BitMatrix
    zeros: BitMatrix
    coupling: PublicCoupling
    mode: str


def _check_keys(keys: SecretKeySet, coupling: PublicCoupling) -> None:
    bad = validate_keys(keys) + validate_coupling(coupling)
    if bad:
        raise DomainError("invalid keys: " + "; ".join(bad))


def embed(
    cover: RasterImage,
    payload: MessagePayload,
    keys: SecretKeySet,
    coupling: PublicCoupling,
) -> StegoBundle:
    """Write the payload bits into the cover at the keyed position stream."""
    _check_keys(keys, coupling)
    bits = payload.bits
    nbits = len(bits)
    capacity = cover.rows * cover.flat_cols
    if nbits > capacity:
        raise CapacityError(
            f"payload of {nbits} bits exceeds the {capacity}-sample grid"
        )
    flat = iter_positions(keys, coupling, ImageDims(cover.rows, cover.flat_cols), nbits)

    stego = cover.samples.copy()
    samples = stego.reshape(-1)
    changed = (samples[flat] & 1) != bits
    f_ch, b_ch = flat[changed], bits[changed]
    samples[f_ch] = (samples[f_ch] & 0xFE) | b_ch

    ones = BitMatrix.filled(cover.rows, cover.flat_cols, 1)
    zeros = BitMatrix.filled(cover.rows, cover.flat_cols, 0)
    ones.bits.reshape(-1)[f_ch] = b_ch
    zeros.bits.reshape(-1)[f_ch] = b_ch

    stego_image = RasterImage(cover.rows, cover.cols, cover.channels, stego)
    return StegoBundle(stego_image, ones, zeros, coupling, payload.mode)


def extract(bundle: StegoBundle, keys: SecretKeySet) -> MessagePayload:
    """Regenerate the position stream and read the payload back out.

    Bit rule per position: if the two mark matrices agree there, the pixel
    was changed and the bit is that shared mark; otherwise the bit is the
    stego LSB (which under lossless transport equals the cover LSB).
    """
    _check_keys(keys, bundle.coupling)
    stego = bundle.stego
    rows_n, cols_n = stego.rows, stego.flat_cols
    for m in (bundle.ones, bundle.zeros):
        if (m.rows, m.cols) != (rows_n, cols_n):
            raise DimensionMismatch(
                f"mark matrix {m!r} does not match the {rows_n}x{cols_n} sample grid"
            )

    header = _recover_bits(bundle, keys, HEADER_BITS)
    declared = _header_value(header)
    if HEADER_BITS + declared > rows_n * cols_n:
        raise ExtractError(
            f"header declares {declared} payload bits, more than the "
            f"{rows_n * cols_n}-sample grid can carry"
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
    ones = bundle.ones.bits.reshape(-1)[flat]
    zeros = bundle.zeros.bits.reshape(-1)[flat]
    lsb = stego.samples.reshape(-1)[flat] & 1
    return np.where(ones == zeros, ones, lsb)


def bit_error_rate(sent: MessagePayload, received: MessagePayload) -> float:
    """Fraction of differing bits (header included) between two payloads."""
    if len(sent.bits) != len(received.bits):
        raise DimensionMismatch(
            f"payload lengths differ: {len(sent.bits)} vs {len(received.bits)} bits"
        )
    return float(np.count_nonzero(sent.bits != received.bits) / len(sent.bits))
