"""Key validation, key file format, key generation, exchange simulation."""

import json
import math
import random

import numpy as np
import pytest

from chaostego.chaos import ImageDims, select_positions
from chaostego.errors import DomainError, ParseError
from chaostego.keymat import (
    PublicCoupling,
    SecretKeySet,
    format_public_key,
    format_secret_keys,
    generate_keys,
    parse_public_key,
    parse_secret_keys,
    simulate_exchange,
    validate_coupling,
    validate_keys,
)

GOOD = SecretKeySet(alpha1=1.7, alpha2=1.3, x0=0.31, y0=0.72)


class TestValidation:
    def test_good_keys_pass(self):
        assert validate_keys(GOOD) == []

    def test_alpha_boundary_excluded(self):
        bad = validate_keys(SecretKeySet(0.5, 1.3, 0.31, 0.72))
        assert len(bad) == 1 and "alpha1" in bad[0]

    @pytest.mark.parametrize("alpha", [2.0 ** 512, 2.0 ** 520])
    def test_alpha_with_overflowing_square_rejected(self, alpha):
        bad = validate_keys(SecretKeySet(1.7, alpha, 0.31, 0.72))
        assert bad == ["alpha2: must not exceed 2**511"]

    def test_degenerate_seed_rejected(self):
        bad = validate_keys(SecretKeySet(1.7, 1.3, 0.5, 0.72))
        assert len(bad) == 1 and "x0" in bad[0]

    def test_every_violation_reported(self):
        bad = validate_keys(SecretKeySet(0.1, math.nan, 1.5, 0.5))
        assert len(bad) == 4
        fields = {v.split(":")[0] for v in bad}
        assert fields == {"alpha1", "alpha2", "x0", "y0"}

    def test_violations_never_echo_values(self):
        keys = SecretKeySet(0.123456789, 1.3, 0.98765432, 0.5)
        for v in validate_keys(keys):
            assert "0.123456789" not in v and "0.98765432" not in v

    @pytest.mark.parametrize("r,ok", [(1.0, True), (0.9, True), (0.0, False),
                                      (-0.5, False), (1.0001, False), (math.inf, False)])
    def test_coupling_bound(self, r, ok):
        assert (validate_coupling(PublicCoupling(r)) == []) is ok


class TestKeyFiles:
    def test_secret_round_trip_is_exact(self):
        text = format_secret_keys(GOOD)
        assert text.endswith("\n")
        assert parse_secret_keys(text) == GOOD

    def test_secret_file_is_hex_float_form(self):
        text = format_secret_keys(GOOD)
        lines = text.splitlines()
        assert lines[0] == f"alpha1={float.hex(1.7)}"
        assert [l.split('=')[0] for l in lines] == ["alpha1", "alpha2", "x0", "y0"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_secret_keys("alpha1=0x1p+0\nalpha2=0x1p+0\nx0=0x1p-2\ny0=0x1p-2\nz=0x1p-2\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            parse_secret_keys("alpha1=0x1p+0\nalpha2=0x1p+0\nx0=0x1p-2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_secret_keys("alpha1=0x1p+0\nalpha1=0x1p+0\nalpha2=0x1p+0\nx0=0x1p-2\ny0=0x1p-2\n")

    def test_decimal_values_rejected(self):
        with pytest.raises(ParseError):
            parse_secret_keys("alpha1=1.7\nalpha2=0x1p+0\nx0=0x1p-2\ny0=0x1p-2\n")

    def test_public_round_trip(self):
        coupling = PublicCoupling(0.97)
        text = format_public_key(coupling)
        assert text == f"R={float.hex(0.97)}\n"
        parsed, mode = parse_public_key(text)
        assert parsed == coupling and mode is None

    def test_public_mode_tag(self):
        text = format_public_key(PublicCoupling(1.0), mode="utf16")
        parsed, mode = parse_public_key(text)
        assert mode == "utf16"

    def test_bad_mode_rejected(self):
        with pytest.raises(ParseError):
            parse_public_key("R=0x1p+0\nmode=base64\n")

    def test_missing_r_rejected(self):
        with pytest.raises(ParseError):
            parse_public_key("mode=raw\n")


class TestGenerateKeys:
    def test_deterministic(self):
        assert generate_keys(42) == generate_keys(42)

    def test_distinct_seeds_differ(self):
        assert generate_keys(1) != generate_keys(2)

    def test_output_is_valid_and_usable(self):
        keys, coupling = generate_keys(99)
        assert validate_keys(keys) == []
        assert validate_coupling(coupling) == []
        # usable: can cover a small grid completely
        flat = select_positions(keys, coupling, ImageDims(32, 32), 1024)
        assert len(flat) == 1024


class TestExchange:
    def test_shared_secrets_agree(self, live_keys):
        keys, coupling = live_keys
        t = simulate_exchange(keys, keys, coupling, ImageDims(128, 128), k=500)
        assert t.agreement is True

    def test_tiny_seed_difference_breaks_agreement(self, live_keys):
        keys, coupling = live_keys
        other = SecretKeySet(keys.alpha1, keys.alpha2, keys.x0 + 1e-10, keys.y0)
        t = simulate_exchange(keys, other, coupling, ImageDims(128, 128), k=500)
        assert t.agreement is False

    def test_agreement_flag_matches_streams(self, live_keys):
        keys, coupling = live_keys
        t = simulate_exchange(keys, keys, coupling, ImageDims(64, 64), k=200)
        a = select_positions(keys, coupling, ImageDims(64, 64), 200)
        b = select_positions(keys, coupling, ImageDims(64, 64), 200)
        assert t.agreement == np.array_equal(a, b) == True  # noqa: E712

    def test_transcript_structure(self, live_keys):
        keys, coupling = live_keys
        t = simulate_exchange(keys, keys, coupling, ImageDims(64, 64), k=100)
        kinds = [(e.sender, e.kind) for e in t.events]
        assert kinds == [("bob", "coupling-factor"), ("alice", "side-matrices")]
        assert t.events[0].payload == float.hex(coupling.value)

    def test_transcript_never_carries_secrets(self, live_keys):
        keys, coupling = live_keys
        t = simulate_exchange(keys, keys, coupling, ImageDims(64, 64), k=100)
        serialized = json.dumps(t.as_dict())
        for secret in (keys.alpha1, keys.alpha2, keys.x0, keys.y0):
            assert float.hex(secret) not in serialized
            assert repr(secret) not in serialized

    def test_invalid_inputs_rejected(self, live_keys):
        keys, coupling = live_keys
        with pytest.raises(DomainError):
            simulate_exchange(SecretKeySet(0.1, 1.0, 0.3, 0.4), keys, coupling, ImageDims(64, 64))
        with pytest.raises(DomainError):
            simulate_exchange(keys, keys, PublicCoupling(0.0), ImageDims(64, 64))
        with pytest.raises(DomainError):
            simulate_exchange(keys, keys, coupling, ImageDims(64, 64), k=0)

    def test_sensitivity_across_random_keys(self):
        # Perturbing any single component by 1e-10 must derail the stream
        # almost immediately; require divergence before position 500 in at
        # least 49 of 50 random key sets.
        rng = random.Random(2024)
        dims = ImageDims(128, 128)
        diverged = 0
        for i in range(50):
            keys, coupling = generate_keys(30_000 + i)
            which = rng.randrange(4)
            fields = dict(alpha1=keys.alpha1, alpha2=keys.alpha2, x0=keys.x0, y0=keys.y0)
            name = list(fields)[which]
            fields[name] += 1e-10
            perturbed = SecretKeySet(**fields)
            a = select_positions(keys, coupling, dims, 500)
            b = select_positions(perturbed, coupling, dims, 500)
            if not np.array_equal(a, b):
                diverged += 1
        assert diverged >= 49
