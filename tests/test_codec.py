"""Message framing, embedding, extraction, and error-rate measurement."""

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaostego import _native, codec
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
from chaostego.imagery import RasterImage, flip_count, load_pbm, save_pbm
from chaostego.keymat import PublicCoupling, SecretKeySet
from conftest import native_source_copy, random_image


def bits_of(value, width):
    return [(value >> i) & 1 for i in range(width - 1, -1, -1)]


def cells(raster, bundle):
    """The mark raster ``raster`` of ``bundle`` as one 0/1 cell per sample."""
    return np.unpackbits(raster, axis=1, count=bundle.stego.flat_cols)


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

    def test_payload_of_2_to_the_32_bits_is_refused(self):
        # A zero-stride view allocates nothing; the refusal comes before the copy.
        with pytest.raises(EncodingError, match="32-bit length header"):
            codec._frame("raw", np.broadcast_to(np.uint8(0), (1 << HEADER_BITS,)))


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
        assert np.all(bundle.ones == 0xFF) and np.all(bundle.zeros == 0)

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
        marked = cells(bundle.ones, bundle) == cells(bundle.zeros, bundle)
        flat = select_positions(keys, coupling, ImageDims(128, 128), len(all_bits))
        one_cells = np.sort(flat[np.array(all_bits) == 1])
        assert np.array_equal(np.flatnonzero(marked), one_cells)

    def test_change_soundness_and_dichotomy(self, live_keys):
        keys, coupling = live_keys
        rng = np.random.default_rng(13)
        cover = random_image(rng, 96, 64, channels=3)
        payload = encode_message(b"\x37" * 400, "raw")
        bundle = embed(cover, payload, keys, coupling)

        ones, zeros = cells(bundle.ones, bundle), cells(bundle.zeros, bundle)
        changed_pixels = np.argwhere(cover.samples != bundle.stego.samples)
        marked = np.argwhere(ones == zeros)
        assert {tuple(x) for x in changed_pixels} == {tuple(x) for x in marked}
        # untouched cells keep ones=1, zeros=0
        untouched = ones != zeros
        assert np.all(ones[untouched] == 1)
        assert np.all(zeros[untouched] == 0)
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

    def test_oversized_payload_gets_the_generator_message(self, live_keys):
        # The position generator makes the one capacity check.
        keys, coupling = live_keys
        cover = RasterImage(4, 4, 1, np.zeros(16, dtype=np.uint8))
        with pytest.raises(InsufficientCapacity, match="^requested 81 unique positions from a grid of 16 cells$"):
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

    def test_bit_rule_reads_marks_at_changed_cells(self, kernel_paths):
        # 5x5 grid: at the marked cells (1-based (row, col)) the two mark
        # matrices agree and the bit comes from them; everywhere else they
        # differ and the bit comes from the stego LSB.
        marked_cells = {(1, 4), (2, 1), (2, 2), (3, 4), (3, 5), (4, 5)}
        ones = np.ones((5, 5), dtype=np.uint8)
        zeros = np.zeros((5, 5), dtype=np.uint8)
        for r, c in marked_cells:
            ones[r - 1, c - 1] = zeros[r - 1, c - 1] = 1  # embedded bit was 1
        stego = np.zeros((5, 5), dtype=np.uint8)  # every LSB reads 0
        for path in kernel_paths:
            bits_by_source = _native.kernels().gather(stego, np.packbits(ones, axis=1), np.packbits(zeros, axis=1),
                                                      np.arange(25))
            for r in range(1, 6):
                for c in range(1, 6):
                    expected = 1 if (r, c) in marked_cells else 0
                    assert bits_by_source[(r - 1) * 5 + c - 1] == expected, path

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 70),
        channels=st.sampled_from([1, 3]),
        fill=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mark_kernels_equal_the_numpy_references(self, rows, cols, channels, fill, seed, kernel_paths):
        # Odd widths put padding bits in every row; one bit to every cell.
        rng = np.random.default_rng(seed)
        cover = random_image(rng, rows, cols, channels).samples
        size = cover.size
        flat = rng.permutation(size)[: max(1, round(fill * size))]
        bits = rng.integers(0, 2, flat.size, dtype=np.uint8)
        references = _native.reference()
        stego, ones, zeros = references.scatter(cover, flat, bits)
        probe = rng.permutation(size)  # every cell, in an order of its own
        for path in kernel_paths:
            kernels = _native.kernels()
            got = kernels.scatter(cover, flat, bits)
            for a, b in zip(got, (stego, ones, zeros)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), path
            # The cover's LSBs disagree with the bits where the marks agree.
            assert kernels.gather(cover, ones, zeros, probe).tobytes() == \
                references.gather(cover, ones, zeros, probe).tobytes(), path
            assert np.array_equal(kernels.gather(stego, ones, zeros, flat), bits), path

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    @pytest.mark.parametrize("old, new", [
        ("zeros[q >> 3] | (mask & -(changed & bit))", "zeros[q >> 3] | (mask & -bit)"),  # unchanged 1s marked
        ("return pad ? p + p / cols * pad : p;", "return p;"),  # rows with padding bits misaddressed
        ("out[k] = (uint8_t)(lsb ^ ((lsb ^ one) & ~(one ^ zero)));", "out[k] = (uint8_t)(lsb | one & zero);"),
    ], ids=["scatter", "mark-bit", "gather"])
    def test_falls_back_when_a_mark_kernel_is_wrong(self, tmp_path, monkeypatch, uncached_library, old, new):
        # The self-check drops the whole set, as for the other kernels.
        monkeypatch.setattr(_native, "_SOURCE", native_source_copy(tmp_path, old, new))
        assert _native.kernels.__wrapped__() is _native.reference()

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
        marked = (cells(bundle.ones, bundle) == cells(bundle.zeros, bundle)).ravel()
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
        bundle = StegoBundle(RasterImage(8, 8, 1, samples), np.full((8, 1), 0xFF, dtype=np.uint8),
                             np.zeros((8, 1), dtype=np.uint8), coupling, "raw")
        from chaostego.errors import ExtractError
        with pytest.raises(ExtractError):
            extract(bundle, keys)

    def test_mismatched_side_matrices_rejected(self, live_keys):
        keys, coupling = live_keys
        stego = RasterImage(8, 8, 1, np.zeros(64, dtype=np.uint8))
        ones, zeros = np.full((4, 1), 0xFF, dtype=np.uint8), np.zeros((4, 1), dtype=np.uint8)
        with pytest.raises(DimensionMismatch):
            extract(StegoBundle(stego, ones, zeros, coupling, "raw"), keys)
        with pytest.raises(DimensionMismatch, match=r"raster of shape \(8, 2\) does not pack 8 cells"):
            extract(StegoBundle(stego, np.full((8, 2), 0xFF, dtype=np.uint8), np.zeros((8, 1), dtype=np.uint8),
                                coupling, "raw"), keys)

    def test_mark_shape_mismatch_names_both_shapes(self):
        # A pixel-grid PBM of an RGB image packs to the sample grid's bytes:
        # 2 and 6 cells are one byte a row, so only the declared width tells.
        stego = RasterImage(4, 2, 3, np.zeros(24, dtype=np.uint8))
        raster, cols = load_pbm(save_pbm(np.zeros((4, 1), dtype=np.uint8), 2))  # pixel grid, not sample grid
        codec.check_marks(stego, raster, 6)
        with pytest.raises(DimensionMismatch, match=r"shape \(4, 2\) .* shape \(4, 6\)"):
            codec.check_marks(stego, raster, cols)

    def test_marks_are_pbm_rasters_of_the_sample_grid(self, live_keys):
        keys, coupling = live_keys
        for cols in (16, 13):  # 48 samples to a row, and 39: a row of 5 bytes ends in a padding bit
            cover = random_image(np.random.default_rng(18), 24, cols, channels=3)
            bundle = embed(cover, encode_message("marks", "ascii7"), keys, coupling)
            for m in (bundle.ones, bundle.zeros):
                assert m.dtype == np.uint8 and m.shape == (24, (3 * cols + 7) // 8)
                assert m.flags.c_contiguous
            if cols == 13:
                assert np.all(bundle.ones[:, -1] & 1 == 0) and np.all(bundle.zeros[:, -1] & 1 == 0)

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
