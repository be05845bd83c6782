"""Key material, key files, key generation and the exchange simulation.

The four reals seeding the coupled generator are a pre-shared secret;
the only value that ever crosses the channel in the open is the coupling
factor R (plus the change-mark matrices, which travel with the stego
image and are modeled here as opaque digests).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chaos import ImageDims, select_positions, validate_coupling, validate_keys
from .errors import DomainError, InsufficientCapacity, ParseError

#: Message modes and their bits per unit (a character, or a byte for raw).
MODES = {"ascii7": 7, "utf16": 16, "raw": 8}

_SECRET_FIELDS = ("alpha1", "alpha2", "x0", "y0")


@dataclass(frozen=True)
class SecretKeySet:
    """The four secret reals seeding the coupled generator."""

    alpha1: float
    alpha2: float
    x0: float
    y0: float


@dataclass(frozen=True)
class PublicCoupling:
    """The public coupling factor exchanged in the open."""

    value: float


class ChannelEvent(NamedTuple):
    """One message on the modeled insecure channel."""

    sender: str
    kind: str
    payload: str


@dataclass
class ExchangeTranscript:
    """Channel events of one simulated exchange plus the agreement flag."""

    events: list[ChannelEvent]
    agreement: bool


# ---------------------------------------------------------------------------
# Key files: UTF-8 text, one name=value pair per line, values written as
# exact hexadecimal binary64 literals so no decimal round-trip ambiguity
# exists.  Unknown names are rejected and required ones must be present.
# ---------------------------------------------------------------------------

def _parse_pairs(text: str, what: str, required: tuple[str, ...],
                 optional: tuple[str, ...] = ()) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{what} line {lineno}: expected name=value")
        name = name.strip()
        if name in pairs:
            raise ParseError(f"{what} line {lineno}: duplicate key {name!r}")
        pairs[name] = value.strip()
    unknown = set(pairs) - {*required, *optional}
    if unknown:
        raise ParseError(f"{what}: unknown key {sorted(unknown)[0]!r}")
    missing = [n for n in required if n not in pairs]
    if missing:
        raise ParseError(f"{what}: missing key {missing[0]!r}")
    return pairs


def _parse_hex_float(name: str, text: str, what: str) -> float:
    # float.fromhex would also take bare digits ("1.7" as hex) and inf/nan;
    # the file format demands explicit 0x literals.
    if not text.lstrip("+-").lower().startswith("0x"):
        raise ParseError(f"{what}: {name} is not a hexadecimal float literal")
    try:
        value = float.fromhex(text)
    except ValueError:
        raise ParseError(f"{what}: {name} is not a hexadecimal float literal") from None
    except OverflowError:
        raise ParseError(f"{what}: {name} must be finite") from None
    return value


def parse_secret_keys(text: str) -> SecretKeySet:
    """Parse a secret key file body into a SecretKeySet."""
    pairs = _parse_pairs(text, "secret key file", _SECRET_FIELDS)
    values = {n: _parse_hex_float(n, pairs[n], "secret key file") for n in _SECRET_FIELDS}
    return SecretKeySet(**values)


def format_secret_keys(keys: SecretKeySet) -> str:
    lines = [f"{n}={float.hex(getattr(keys, n))}" for n in _SECRET_FIELDS]
    return "\n".join(lines) + "\n"


def parse_public_key(text: str) -> tuple[PublicCoupling, str | None]:
    """Parse a public key file into (coupling, mode-tag-or-None)."""
    pairs = _parse_pairs(text, "public key file", ("R",), ("mode",))
    coupling = PublicCoupling(_parse_hex_float("R", pairs["R"], "public key file"))
    mode = pairs.get("mode")
    if mode is not None and mode not in MODES:
        raise ParseError(f"public key file: mode must be one of {', '.join(MODES)}")
    return coupling, mode


def format_public_key(coupling: PublicCoupling, mode: str | None = None) -> str:
    lines = [f"R={float.hex(coupling.value)}"]
    if mode is not None:
        if mode not in MODES:
            raise ParseError(f"mode must be one of {', '.join(MODES)}")
        lines.append(f"mode={mode}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

#: Sampling bounds for freshly generated key material.  The map family is
#: only chaotic on part of its parameter range: measured Lyapunov exponents
#: turn negative above alpha = 2 (the endpoint fixed point attracts once
#: its slope 4/alpha**2 drops below 1), and coupling factors much below 1
#: contract even chaotic pairs onto short cycles.  Draws outside this box
#: mostly produce orbits that cannot address a whole image.  The exponents
#: at both alpha endpoints, 2.05 and 2.2 are checked in
#: tests/test_chaos.py (TestLyapunovEstimate).
ALPHA_RANGE = (0.6, 1.8)
COUPLING_RANGE = (0.95, 1.0)
SEED_RANGE = (0.01, 0.99)
SEED_EXCLUSION = (0.499, 0.501)

#: Liveness probe: a usable key must be able to visit every cell of this
#: reference grid within the generator's iteration cap.
_PROBE_DIMS = ImageDims(32, 32)


def _is_live(keys: SecretKeySet, coupling: PublicCoupling) -> bool:
    try:
        select_positions(keys, coupling, _PROBE_DIMS, _PROBE_DIMS.rows * _PROBE_DIMS.cols)
    except InsufficientCapacity:
        return False
    return True


def generate_keys(seed: int) -> tuple[SecretKeySet, PublicCoupling]:
    """Draw a random, validated, usable key set from a seed.

    Deterministic for a given seed.  Candidate tuples whose orbit fails
    the full-coverage liveness probe are rejected and redrawn.
    """
    rng = random.Random(seed)

    def draw_half_open(lo: float, hi: float) -> float:
        while True:
            v = rng.uniform(lo, hi)
            if lo < v <= hi:
                return v

    def draw_seed() -> float:
        lo, hi = SEED_RANGE
        while True:
            v = rng.uniform(lo, hi)
            if lo < v < hi and not (SEED_EXCLUSION[0] <= v <= SEED_EXCLUSION[1]):
                return v

    while True:
        keys = SecretKeySet(
            alpha1=draw_half_open(*ALPHA_RANGE),
            alpha2=draw_half_open(*ALPHA_RANGE),
            x0=draw_seed(),
            y0=draw_seed(),
        )
        coupling = PublicCoupling(draw_half_open(*COUPLING_RANGE))
        if _is_live(keys, coupling):
            return keys, coupling


# ---------------------------------------------------------------------------
# Exchange simulation
# ---------------------------------------------------------------------------

def _stream_digest(flat: np.ndarray, cols: int) -> str:
    """SHA-256 of the stream as big-endian uint32 pairs (col, row), 1-based."""
    pairs = np.stack([flat % cols + 1, flat // cols + 1], axis=1).astype(">u4")
    return hashlib.sha256(pairs.tobytes()).hexdigest()


def simulate_exchange(
    alice_keys: SecretKeySet,
    bob_keys: SecretKeySet,
    coupling: PublicCoupling,
    dims: ImageDims,
    k: int = 500,
) -> ExchangeTranscript:
    """Run the two-party protocol over a modeled insecure channel.

    Bob publishes the coupling factor; each party then derives its own
    first-k position stream from its (pre-shared) secrets plus that public
    value.  Alice's change-mark matrices are represented on the channel by
    an opaque digest of her stream.  The agreement flag is true iff both
    parties derived the identical first-k positions, which requires the
    secrets to match bit for bit.
    """
    if k < 1:
        raise DomainError("agreement prefix length must be positive")

    events = [ChannelEvent("bob", "coupling-factor", float.hex(coupling.value))]
    alice_stream = select_positions(alice_keys, coupling, dims, k)
    bob_stream = select_positions(bob_keys, coupling, dims, k)
    events.append(ChannelEvent("alice", "side-matrices", _stream_digest(alice_stream, dims.cols)))
    agreement = bool(np.array_equal(alice_stream, bob_stream))
    return ExchangeTranscript(events=events, agreement=agreement)
