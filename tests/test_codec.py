"""Message framing, embedding, extraction, and error-rate measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaostego.chaos import ImageDims, select_positions
from chaostego.codec import (
    HEADER_BITS,
    MessagePayload,
    StegoBundle,
    bit_error_rate,
    decode_message,
    embed,
    encode_message,
    extract,
)
from chaostego.errors import (
    CapacityError,
    DecodeError,
    DimensionMismatch,
    EncodingError,
    InsufficientCapacity,
)
from chaostego.imagery import BitMatrix, RasterImage, flip_count
from chaostego.keymat import PublicCoupling, SecretKeySet
from conftest import random_image


def bits_of(value, width):
    return [(value >> i) & 1 for i in range(width - 1, -1, -1)]


class TestEncodeMessage:
    def test_empty_message_is_header_only(self):
        for mode, msg in (("ascii7", ""), ("utf16", ""), ("raw", b"")):
            payload = encode_message(msg, mode)
            assert list(payload.bits) == [0] * 32

    def test_single_ascii_character(self):
        payload = encode_message("A", "ascii7")
        assert list(payload.bits[:32]) == bits_of(7, 32)
        assert list(payload.bits[32:]) == [1, 0, 0, 0, 0, 0, 1]  # 'A' = 65

    def test_single_utf16_character(self):
        payload = encode_message("A", "utf16")
        assert list(payload.bits[:32]) == bits_of(16, 32)
        assert list(payload.bits[32:]) == bits_of(0x0041, 16)

    def test_raw_bytes(self):
        payload = encode_message(b"\xf0\x0d", "raw")
        assert list(payload.bits[32:]) == bits_of(0xF0, 8) + bits_of(0x0D, 8)

    def test_ascii7_rejects_non_ascii(self):
        with pytest.raises(EncodingError):
            encode_message("café", "ascii7")

    def test_utf16_rejects_astral_plane(self):
        with pytest.raises(EncodingError):
            encode_message("ok \U0001f600", "utf16")

    def test_type_mismatches_rejected(self):
        with pytest.raises(EncodingError):
            encode_message("text", "raw")
        with pytest.raises(EncodingError):
            encode_message(b"bytes", "ascii7")
        with pytest.raises(EncodingError):
            encode_message("x", "base64")


class TestMessagePayload:
    def test_bits_are_a_read_only_uint8_vector(self):
        source = np.array(bits_of(1, 32) + [1], dtype=np.uint8)
        payload = MessagePayload("raw", source)
        assert payload.bits.dtype == np.uint8 and payload.bits.ndim == 1
        with pytest.raises(ValueError):
            payload.bits[0] = 1
        source[-1] = 0  # the payload holds its own copy
        assert payload.bits[-1] == 1
        assert not encode_message("x", "ascii7").bits.flags.writeable

    def test_equality_compares_mode_and_bits(self):
        p = encode_message(b"ab", "raw")
        assert p == MessagePayload("raw", p.bits.tolist())
        assert p != MessagePayload("raw", 1 - p.bits)
        assert p != MessagePayload("utf16", p.bits)


class TestDecodeMessage:
    def test_known_payload(self):
        payload = MessagePayload("ascii7", bits_of(7, 32) + [1, 0, 0, 0, 0, 0, 1])
        assert decode_message(payload) == "A"

    def test_group_size_mismatch(self):
        payload = MessagePayload("ascii7", bits_of(10, 32) + [0] * 10)
        with pytest.raises(DecodeError):
            decode_message(payload)

    def test_header_length_mismatch(self):
        payload = MessagePayload("ascii7", bits_of(14, 32) + [0] * 7)
        with pytest.raises(DecodeError):
            decode_message(payload)

    def test_nul_group_is_data(self):
        payload = encode_message("a\x00b", "ascii7")
        assert decode_message(payload) == "a\x00b"

    @settings(max_examples=80)
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=60))
    def test_ascii7_round_trip(self, text):
        assert decode_message(encode_message(text, "ascii7")) == text

    @settings(max_examples=80)
    @given(st.text(
        alphabet=st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",)),
        max_size=40,
    ))
    def test_utf16_round_trip(self, text):
        assert decode_message(encode_message(text, "utf16")) == text

    @settings(max_examples=80)
    @given(st.binary(max_size=60))
    def test_raw_round_trip(self, data):
        assert decode_message(encode_message(data, "raw")) == data


class TestEmbed:
    def test_header_only_payload_touches_at_most_32_samples(self, live_keys):
        keys, coupling = live_keys
        rng = np.random.default_rng(11)
        cover = random_image(rng, 64, 64)
        bundle = embed(cover, encode_message("", "ascii7"), keys, coupling)
        assert flip_count(cover, bundle.stego) <= 32

    def test_no_change_path_leaves_everything_untouched(self, live_keys):
        keys, coupling = live_keys
        cover = RasterImage(64, 64, 1, np.zeros(4096, dtype=np.uint8))  # all LSBs 0
        payload = encode_message("", "ascii7")  # all bits 0
        bundle = embed(cover, payload, keys, coupling)
        assert bundle.stego == cover
        assert np.all(bundle.ones.bits == 1)
        assert np.all(bundle.zeros.bits == 0)

    def test_flips_equal_one_bits_on_zero_cover(self, live_keys):
        # On an all-zero cover every 1-bit forces a flip and every 0-bit
        # leaves its sample alone, so the accounting is fully predictable.
        keys, coupling = live_keys
        cover = RasterImage(128, 128, 1, np.zeros(128 * 128, dtype=np.uint8))
        rng = np.random.default_rng(12)
        body = rng.integers(0, 2, 1000).tolist()
        n = len(body)
        header = [(n >> i) & 1 for i in range(31, -1, -1)]
        payload = MessagePayload("raw", header + body)
        bundle = embed(cover, payload, keys, coupling)

        all_bits = header + body
        assert flip_count(cover, bundle.stego) == sum(all_bits)
        marked = bundle.ones.bits == bundle.zeros.bits
        flat = select_positions(keys, coupling, ImageDims(128, 128), len(all_bits))
        one_cells = np.sort(flat[np.array(all_bits) == 1])
        assert np.array_equal(np.flatnonzero(marked), one_cells)

    def test_change_soundness_and_dichotomy(self, live_keys):
        keys, coupling = live_keys
        rng = np.random.default_rng(13)
        cover = random_image(rng, 96, 64, channels=3)
        payload = encode_message(b"\x37" * 400, "raw")
        bundle = embed(cover, payload, keys, coupling)

        changed_pixels = np.argwhere(cover.samples != bundle.stego.samples)
        marked = np.argwhere(bundle.ones.bits == bundle.zeros.bits)
        assert {tuple(x) for x in changed_pixels} == {tuple(x) for x in marked}
        # untouched cells keep ones=1, zeros=0
        untouched = bundle.ones.bits != bundle.zeros.bits
        assert np.all(bundle.ones.bits[untouched] == 1)
        assert np.all(bundle.zeros.bits[untouched] == 0)
        # pure LSB embedding: no sample moved by more than one level
        delta = np.abs(cover.samples.astype(int) - bundle.stego.samples.astype(int))
        assert delta.max() <= 1

    def test_changes_confined_to_payload_positions(self, live_keys):
        keys, coupling = live_keys
        rng = np.random.default_rng(14)
        cover = random_image(rng, 64, 64)
        payload = encode_message("confined", "ascii7")
        bundle = embed(cover, payload, keys, coupling)
        flat = select_positions(keys, coupling, ImageDims(64, 64), len(payload.bits))
        changed = np.flatnonzero(cover.samples != bundle.stego.samples)
        assert np.isin(changed, flat).all()

    def test_flip_rate_near_half_of_payload(self, live_keys):
        # Binomial oracle: each embedded bit flips its target LSB with
        # probability 1/2 against a random cover.
        keys, coupling = live_keys
        rng = np.random.default_rng(18)
        cover = random_image(rng, 128, 128)
        n = 4000
        header = [(n >> i) & 1 for i in range(31, -1, -1)]
        body = rng.integers(0, 2, n, dtype=np.uint8).tolist()
        payload = MessagePayload("raw", header + body)
        bundle = embed(cover, payload, keys, coupling)
        ratio = flip_count(cover, bundle.stego) / n
        assert 0.40 <= ratio <= 0.60

    def test_malformed_payload_construction_rejected(self):
        for bad in (
            [0, 1, 2] * 20,  # non-bit values
            np.array([0, 1, 2] * 20, dtype=np.uint8),
            np.array([0, 1, 257] * 20),  # would wrap to 1 as uint8
            np.array([0, 1, -1] * 20),
            [0] * 16,  # shorter than header
            np.zeros(16, dtype=np.uint8),
            np.zeros((2, 32), dtype=np.uint8),  # not 1-D
            bytes(32),  # a byte string is not an array of bits
        ):
            with pytest.raises(EncodingError):
                MessagePayload("ascii7", bad)
        with pytest.raises(EncodingError):
            MessagePayload("hex", np.zeros(32, dtype=np.uint8))

    def test_payload_larger_than_grid_rejected(self, live_keys):
        keys, coupling = live_keys
        cover = RasterImage(4, 4, 1, np.zeros(16, dtype=np.uint8))
        with pytest.raises(CapacityError):
            embed(cover, encode_message("too big", "ascii7"), keys, coupling)

    def test_degenerate_key_propagates_capacity_error(self):
        # Orbit collapse surfaces as InsufficientCapacity, a CapacityError.
        keys = SecretKeySet(3.0, 2.5, 0.31, 0.72)
        cover = RasterImage(128, 128, 1, np.zeros(128 * 128, dtype=np.uint8))
        payload = encode_message("x" * 200, "ascii7")
        with pytest.raises(InsufficientCapacity):
            embed(cover, payload, keys, PublicCoupling(0.9))


class TestExtract:
    def test_round_trip_identity(self, live_keys):
        keys, coupling = live_keys
        rng = np.random.default_rng(15)
        cover = random_image(rng, 64, 96)
        payload = encode_message("round trip me", "ascii7")
        got = extract(embed(cover, payload, keys, coupling), keys)
        assert got.mode == payload.mode and np.array_equal(got.bits, payload.bits)
        assert decode_message(got) == "round trip me"

    def test_bit_rule_reads_marks_at_changed_cells(self):
        # 5x5 grid: at the marked cells (1-based (row, col)) the two mark
        # matrices agree and the bit comes from them; everywhere else they
        # differ and the bit comes from the stego LSB.
        marked_cells = {(1, 4), (2, 1), (2, 2), (3, 4), (3, 5), (4, 5)}
        ones = np.ones((5, 5), dtype=np.uint8)
        zeros = np.zeros((5, 5), dtype=np.uint8)
        for r, c in marked_cells:
            ones[r - 1, c - 1] = zeros[r - 1, c - 1] = 1  # embedded bit was 1
        stego = np.zeros((5, 5), dtype=np.uint8)  # every LSB reads 0
        bits_by_source = np.where(ones == zeros, ones, stego & 1)
        for r in range(1, 6):
            for c in range(1, 6):
                expected = 1 if (r, c) in marked_cells else 0
                assert bits_by_source[r - 1, c - 1] == expected

    def test_corruption_at_unchanged_positions_is_predictable(self, live_keys):
        # Simulated lossy transport: flip stego LSBs at a known subset of
        # unchanged payload positions.  Exactly those bits must come back
        # wrong; bits at changed positions survive via the mark matrices.
        keys, coupling = live_keys
        rng = np.random.default_rng(16)
        cover = random_image(rng, 64, 64)
        payload = encode_message(b"\xa5" * 40, "raw")
        bundle = embed(cover, payload, keys, coupling)

        n = len(payload.bits)
        flat = select_positions(keys, coupling, ImageDims(64, 64), n)
        marked = (bundle.ones.bits == bundle.zeros.bits).ravel()
        unchanged_payload_idx = [i for i in range(HEADER_BITS, n) if not marked[flat[i]]]
        victims = unchanged_payload_idx[::3]
        corrupted = bundle.stego.samples.copy()
        corrupted.reshape(-1)[flat[victims]] ^= 1
        bad_bundle = StegoBundle(
            RasterImage(64, 64, 1, corrupted), bundle.ones, bundle.zeros, coupling, bundle.mode
        )

        got = extract(bad_bundle, keys)
        errors = [i for i in range(n) if got.bits[i] != payload.bits[i]]
        assert errors == victims
        assert bit_error_rate(payload, got) == pytest.approx(len(victims) / n)

    def test_header_declaring_too_much_rejected(self, live_keys):
        keys, coupling = live_keys
        stego = RasterImage(8, 8, 1, np.zeros(64, dtype=np.uint8))
        # force header bits to claim 2**20 payload bits
        flat = select_positions(keys, coupling, ImageDims(8, 8), 32)
        samples = stego.samples.copy()
        claim = [(1 << 20 >> i) & 1 for i in range(31, -1, -1)]
        samples.reshape(-1)[flat] = claim
        bundle = StegoBundle(RasterImage(8, 8, 1, samples), BitMatrix.filled(8, 8, 1),
                             BitMatrix.filled(8, 8, 0), coupling, "raw")
        from chaostego.errors import ExtractError
        with pytest.raises(ExtractError):
            extract(bundle, keys)

    def test_mismatched_side_matrices_rejected(self, live_keys):
        keys, coupling = live_keys
        stego = RasterImage(8, 8, 1, np.zeros(64, dtype=np.uint8))
        ones, zeros = BitMatrix.filled(4, 4, 1), BitMatrix.filled(4, 4, 0)
        with pytest.raises(DimensionMismatch):
            extract(StegoBundle(stego, ones, zeros, coupling, "raw"), keys)

    @pytest.mark.parametrize("mode,message", [
        ("ascii7", "plain ASCII text"),
        ("utf16", "привет ☃"),
        ("raw", bytes(range(48))),
    ])
    def test_all_modes_round_trip_through_an_image(self, live_keys, mode, message):
        keys, coupling = live_keys
        rng = np.random.default_rng(17)
        cover = random_image(rng, 96, 96, channels=1)
        bundle = embed(cover, encode_message(message, mode), keys, coupling)
        assert decode_message(extract(bundle, keys)) == message


class TestBitErrorRate:
    def test_identical(self):
        p = encode_message("same", "ascii7")
        assert bit_error_rate(p, p) == 0.0

    def test_complement(self):
        p = encode_message("flip", "ascii7")
        q = MessagePayload(p.mode, 1 - p.bits)
        assert bit_error_rate(p, q) == 1.0

    def test_exact_fraction(self):
        bits = [0] * 300
        p = MessagePayload("raw", bits)
        flipped = list(bits)
        for i in (5, 150, 299):
            flipped[i] = 1
        q = MessagePayload("raw", flipped)
        assert bit_error_rate(p, q) == 0.01

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bit_error_rate(encode_message("a", "ascii7"), encode_message("ab", "ascii7"))
