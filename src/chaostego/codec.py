"""Message bit framing, embedding, and extraction.

A message becomes a bit payload: a 32-bit big-endian count of payload
bits, then the payload itself (7 bits per character for ASCII text,
16 for single-code-unit Unicode, 8 per byte for raw data, MSB first).
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
from .keymat import MODES, PublicCoupling, SecretKeySet, validate_keys

HEADER_BITS = 32

_GROUP_BITS = {"ascii7": 7, "utf16": 16, "raw": 8}


@dataclass(frozen=True)
class MessagePayload:
    """Framed bit payload: 32-bit length header plus payload bits.

    ``bits`` holds one byte per bit (values 0/1).  Framing invariants are
    checked by :func:`decode_message`, not on construction, because
    payloads recovered from a corrupted image may violate them and still
    need to exist for error-rate measurement.
    """

    mode: str
    bits: bytes

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise EncodingError(f"unknown mode {self.mode!r}")
        if any(b not in (0, 1) for b in self.bits):
            raise EncodingError("payload bits must be 0 or 1")
        if len(self.bits) < HEADER_BITS:
            raise EncodingError("payload shorter than its 32-bit header")

    @property
    def declared_length(self) -> int:
        """Payload bit count claimed by the header."""
        value = 0
        for b in self.bits[:HEADER_BITS]:
            value = (value << 1) | b
        return value

    @property
    def payload(self) -> bytes:
        return self.bits[HEADER_BITS:]

    def __len__(self) -> int:
        return len(self.bits)


def _frame(mode: str, payload: list[int]) -> MessagePayload:
    n = len(payload)
    if n >= 1 << HEADER_BITS:
        raise EncodingError("message too long for the 32-bit length header")
    header = [(n >> i) & 1 for i in range(HEADER_BITS - 1, -1, -1)]
    return MessagePayload(mode, bytes(header + payload))


def encode_message(message, mode: str) -> MessagePayload:
    """Turn text (ascii7/utf16) or bytes (raw) into a framed bit payload."""
    if mode not in MODES:
        raise EncodingError(f"unknown mode {mode!r}")
    bits: list[int] = []
    if mode == "raw":
        if not isinstance(message, (bytes, bytearray)):
            raise EncodingError("raw mode takes a byte string")
        for byte in message:
            bits.extend((byte >> i) & 1 for i in range(7, -1, -1))
        return _frame(mode, bits)

    if not isinstance(message, str):
        raise EncodingError(f"{mode} mode takes a character string")
    width = _GROUP_BITS[mode]
    limit = 0x7F if mode == "ascii7" else 0xFFFF
    for ch in message:
        cp = ord(ch)
        if cp > limit:
            raise EncodingError(
                f"character U+{cp:04X} does not fit a {width}-bit {mode} unit"
            )
        bits.extend((cp >> i) & 1 for i in range(width - 1, -1, -1))
    return _frame(mode, bits)


def decode_message(payload: MessagePayload):
    """Inverse of encode_message; returns str (text modes) or bytes (raw)."""
    declared = payload.declared_length
    body = payload.payload
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
    values = []
    for i in range(0, declared, width):
        v = 0
        for b in body[i : i + width]:
            v = (v << 1) | b
        values.append(v)
    if payload.mode == "raw":
        return bytes(values)
    return "".join(chr(v) for v in values)


# ---------------------------------------------------------------------------
# Embedding / extraction
# ---------------------------------------------------------------------------

@dataclass
class SideMatrices:
    """The ones/zeros change-mark matrices.

    Fresh matrices start all-1 and all-0 (every cell differs); embedding
    sets both cells of a changed pixel to the embedded bit, so equality
    of the two cells marks the pixel as changed.
    """

    ones: BitMatrix
    zeros: BitMatrix

    @classmethod
    def fresh(cls, rows: int, cols: int) -> "SideMatrices":
        return cls(BitMatrix.filled(rows, cols, 1), BitMatrix.filled(rows, cols, 0))


@dataclass
class StegoBundle:
    """Everything the recipient receives: stego image, marks, public data."""

    stego: RasterImage
    side: SideMatrices
    coupling: PublicCoupling
    mode: str


def embed(
    cover: RasterImage,
    payload: MessagePayload,
    keys: SecretKeySet,
    coupling: PublicCoupling,
) -> StegoBundle:
    """Write the payload bits into the cover at the keyed position stream."""
    bad = validate_keys(keys)
    if bad:
        raise DomainError("invalid keys: " + "; ".join(bad))
    nbits = len(payload.bits)
    capacity = cover.rows * cover.flat_cols
    if nbits > capacity:
        raise CapacityError(
            f"payload of {nbits} bits exceeds the {capacity}-sample grid"
        )
    flat = iter_positions(keys, coupling, ImageDims(cover.rows, cover.flat_cols), nbits)
    bits = np.frombuffer(payload.bits, dtype=np.uint8)

    stego = cover.samples.copy()
    samples = stego.reshape(-1)
    changed = (samples[flat] & 1) != bits
    f_ch, b_ch = flat[changed], bits[changed]
    samples[f_ch] = (samples[f_ch] & 0xFE) | b_ch

    side = SideMatrices.fresh(cover.rows, cover.flat_cols)
    side.ones.bits.reshape(-1)[f_ch] = b_ch
    side.zeros.bits.reshape(-1)[f_ch] = b_ch

    stego_image = RasterImage(cover.rows, cover.cols, cover.channels, stego)
    return StegoBundle(stego_image, side, coupling, payload.mode)


def extract(bundle: StegoBundle, keys: SecretKeySet) -> MessagePayload:
    """Regenerate the position stream and read the payload back out.

    Bit rule per position: if the two mark matrices agree there, the pixel
    was changed and the bit is that shared mark; otherwise the bit is the
    stego LSB (which under lossless transport equals the cover LSB).
    """
    bad = validate_keys(keys)
    if bad:
        raise DomainError("invalid keys: " + "; ".join(bad))
    stego = bundle.stego
    rows_n, cols_n = stego.rows, stego.flat_cols
    for m in (bundle.side.ones, bundle.side.zeros):
        if (m.rows, m.cols) != (rows_n, cols_n):
            raise DimensionMismatch(
                f"mark matrix {m!r} does not match the {rows_n}x{cols_n} sample grid"
            )

    header = _recover_bits(bundle, keys, HEADER_BITS)
    declared = int.from_bytes(np.packbits(header).tobytes(), "big")
    if HEADER_BITS + declared > rows_n * cols_n:
        raise ExtractError(
            f"header declares {declared} payload bits, more than the "
            f"{rows_n * cols_n}-sample grid can carry"
        )
    return MessagePayload(bundle.mode, _recover_bits(bundle, keys, HEADER_BITS + declared).tobytes())


def _recover_bits(bundle: StegoBundle, keys: SecretKeySet, count: int) -> np.ndarray:
    """The first ``count`` bits of the keyed stream: at each position the
    shared mark where the two mark matrices agree, else the stego LSB."""
    stego = bundle.stego
    try:
        flat = iter_positions(keys, bundle.coupling, ImageDims(stego.rows, stego.flat_cols), count)
    except InsufficientCapacity as exc:
        raise ExtractError(f"position stream could not be regenerated: {exc}") from exc
    ones = bundle.side.ones.bits.reshape(-1)[flat]
    zeros = bundle.side.zeros.bits.reshape(-1)[flat]
    lsb = stego.samples.reshape(-1)[flat] & 1
    return np.where(ones == zeros, ones, lsb)


def bit_error_rate(sent: MessagePayload, received: MessagePayload) -> float:
    """Fraction of differing bits (header included) between two payloads."""
    if len(sent.bits) != len(received.bits):
        raise DimensionMismatch(
            f"payload lengths differ: {len(sent.bits)} vs {len(received.bits)} bits"
        )
    a = np.frombuffer(sent.bits, dtype=np.uint8)
    b = np.frombuffer(received.bits, dtype=np.uint8)
    return float(np.count_nonzero(a != b) / len(a))
