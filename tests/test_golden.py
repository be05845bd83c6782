"""Frozen vectors for the determinism contract.

Every literal below was produced once by the package and frozen, so a
refactor that changes the position stream, the key generator, the netpbm
writers or the exchange digest fails here, not only run-against-run.  A
pinned value may change only in a change that says loudly why.
"""

import hashlib

import numpy as np
import pytest

from chaostego.chaos import ImageDims, select_positions
from chaostego.cli import run
from chaostego.codec import embed, encode_message
from chaostego.errors import InsufficientCapacity
from chaostego.imagery import RasterImage, save_pbm, save_pnm
from chaostego.keymat import PublicCoupling, SecretKeySet

#: Two key sets drawn by ``generate_keys(7)`` and ``generate_keys(42)``,
#: and one written by hand, each frozen as exact binary64 values.
KEY_SETS = {
    "seed7": (
        SecretKeySet(
            float.fromhex("0x1.fa29b09598976p-1"),
            float.fromhex("0x1.8fe1b937ec255p-1"),
            float.fromhex("0x1.4bbb9e1a118adp-1"),
            float.fromhex("0x1.4bb99cd985c80p-4"),
        ),
        PublicCoupling(float.fromhex("0x1.f41e5b36b382ep-1")),
    ),
    "seed42": (
        SecretKeySet(
            float.fromhex("0x1.5e082b6aacd44p+0"),
            float.fromhex("0x1.42910d38f379dp-1"),
            float.fromhex("0x1.1e3cc7a8f5906p-2"),
            float.fromhex("0x1.d4790ea82094fp-3"),
        ),
        PublicCoupling(float.fromhex("0x1.f940f01053f6dp-1")),
    ),
    "hand": (SecretKeySet(1.3, 1.7, 0.31, 0.72), PublicCoupling(0.97)),
}

#: (rows, cols, count): full covers of the thin and odd grids, half of
#: 256x256 and about a fifth of the flat 256x256 RGB grid (256 x 768).
GRIDS = [(1, 1000, 1000), (1000, 1, 1000), (97, 89, 97 * 89), (256, 256, 32768), (256, 768, 40000)]

#: SHA-256 of the little-endian int64 flat indices (row-1)*cols + (col-1).
STREAM_SHA256 = {
    ("seed7", 1, 1000): "5e19663a36afeac0b225e20a02066a208dbf5d8a7c6b089587e66114cf44cc81",
    ("seed7", 1000, 1): "c8e725f61f6aedf4bcdc6fe9da5b0e1b5058fc2f37618d79824675fcc188904c",
    ("seed7", 97, 89): "0189493286b58eafda27f94ce0402096b246cf0efa03be35983e0a8ff438d565",
    ("seed7", 256, 256): "668cad2a99b3c8ea16f5ebd02ce28088f738671c34d432436068a2c67a261243",
    ("seed7", 256, 768): "4406ce3ed99779a4c76d48b9ea8629bbb5363d9d6ea229a73c0c1a67cb021ccb",
    ("seed42", 1, 1000): "4dd6d4efcb43a02ed917e7236cf51673ba8e6e643dab1f23c072d182640a9bce",
    ("seed42", 1000, 1): "1e51aae20442767098b1da1de68501ff0ecdb0c850218767213c687354c16602",
    ("seed42", 97, 89): "c376789e6128b4fcb79b954dabb0d8e532803e41d093a42af80615f6e3f16b11",
    ("seed42", 256, 256): "851a79dbbed0808e904b1bc49aed1bd27887d047e2fb535d7db33b9f5ff599f1",
    ("seed42", 256, 768): "af9f4f5b74c2798f57921571dc5077ff1cad1fdb82f42b99d82a70b075720b9f",
    ("hand", 1, 1000): "7d9876f6af7ee68beea118d3554458fceb69a7834eeafa1ee84ae0efdb8dec47",
    ("hand", 1000, 1): "a501872fd30dd8a8d079d2b01bd79605b743936519f3b87cf8ec3471d36e683d",
    ("hand", 97, 89): "99863e50db7224709c1bdc3790ef1cfe63998841a295b9a77c3aeccd0de32897",
    ("hand", 256, 256): "3dbf836b7974d8e53f4f24f379c83d0a0c0dd89aeedd1d8b02700b8e7fd0ebec",
    ("hand", 256, 768): "95d144d162b06d42de4cff99daa56313bd34f7913779586a15f9cc17e2bf535d",
}

#: ``chaostego keygen --seed 42``: the secret and public key files.
KEYGEN_42_SECRET = (
    b"alpha1=0x1.5e082b6aacd44p+0\nalpha2=0x1.42910d38f379dp-1\n"
    b"x0=0x1.1e3cc7a8f5906p-2\ny0=0x1.d4790ea82094fp-3\n"
)
KEYGEN_42_PUBLIC = b"R=0x1.f940f01053f6dp-1\n"

#: ``exchange-sim`` on the keygen-42 files, 97x89 grid, 500-position prefix.
EXCHANGE_SIM_OUTPUT = (
    "bob coupling-factor 0x1.f940f01053f6dp-1\n"
    "alice side-matrices 8536434d8933e85d0a05754c49c9a84aa9b543c5733237decab5cdd0f37a56b6\n"
    "agreement=true\n"
)

#: SHA-256 of (stego PGM/PPM, ones PBM, zeros PBM) of the fixed-seed embed,
#: by channel count.
EMBED_SHA256 = {
    1: (
        "164ed841eec8bbde59b47e87df50c279c63aee24687310f06788565442a8df43",
        "ef54dd715d7771a74c1660ca5167e6d81c19eab2ecd88fd377dd6a2210188aab",
        "0c01879cdf01cf5f39a3e4a35638a354aacddde6e3dc7ad0cf56ced996fbcd75",
    ),
    3: (
        "5c65dc99568f7a936f8525523256959512a1c8706587560296b378437e330316",
        "b79b7bfae670ac6e72b16b7e84a9cf0d1eddfcb52488187f4308803f07eaafee",
        "a02b39e27b47b0bd3f04805926f8509de28e08f568489e9ac360520b7d0dfcba",
    ),
}


def flat_stream(keys, coupling, rows, cols, count) -> np.ndarray:
    positions = np.asarray(select_positions(keys, coupling, ImageDims(rows, cols), count), dtype=np.int64)
    if positions.ndim == 2:
        # (col, row) pairs, the form select_positions returned before it
        # returned flat indices; accepted so the vectors can be checked
        # against that version too.
        positions = (positions[:, 1] - 1) * cols + (positions[:, 0] - 1)
    return positions


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(KEY_SETS))
@pytest.mark.parametrize("rows,cols,count", GRIDS)
def test_position_stream(name, rows, cols, count, orbit_paths):
    keys, coupling = KEY_SETS[name]
    for path in orbit_paths:
        flat = flat_stream(keys, coupling, rows, cols, count)
        assert len(flat) == count, path
        assert sha256(flat.astype("<i8").tobytes()) == STREAM_SHA256[name, rows, cols], path


@pytest.mark.parametrize(
    "dims,count,message",
    [
        ((8, 8), 65, "requested 65 unique positions from a grid of 64 cells"),
        ((16, 16), 256, "position generator exhausted its iteration cap (28391 steps, 86 unique positions found)"),
        ((1, 50), 50, "position generator exhausted its iteration cap (3912 steps, 47 unique positions found)"),
    ],
)
def test_capacity_failures(dims, count, message, orbit_paths):
    # A collapsing orbit (alphas past the chaotic band, R well below 1).
    keys = SecretKeySet(3.0, 2.5, 0.31, 0.72)
    for path in orbit_paths:
        with pytest.raises(InsufficientCapacity) as info:
            select_positions(keys, PublicCoupling(0.9), ImageDims(*dims), count)
        assert str(info.value) == message, path


def test_keygen_file_bytes(tmp_path):
    secret, public = tmp_path / "s.key", tmp_path / "p.key"
    assert run(["keygen", "--out", str(secret), "--pub", str(public), "--seed", "42"]) == 0
    assert secret.read_bytes() == KEYGEN_42_SECRET
    assert public.read_bytes() == KEYGEN_42_PUBLIC


def test_exchange_sim_output(tmp_path):
    secret, public, out = tmp_path / "s.key", tmp_path / "p.key", tmp_path / "out.txt"
    secret.write_bytes(KEYGEN_42_SECRET)
    public.write_bytes(KEYGEN_42_PUBLIC)
    argv = ["exchange-sim", "--alice", str(secret), "--pub", str(public),
            "--rows", "97", "--cols", "89", "--prefix", "500", "--out", str(out)]
    assert run(argv) == 0
    assert out.read_text() == EXCHANGE_SIM_OUTPUT


@pytest.mark.parametrize("rows,cols,channels", [(40, 56, 1), (40, 56, 3)])
def test_embed_file_bytes(rows, cols, channels):
    keys, coupling = KEY_SETS["seed42"]
    rng = np.random.default_rng(20121101)
    cover = RasterImage(rows, cols, channels, rng.integers(0, 256, rows * cols * channels, dtype=np.uint8))
    payload = encode_message("frozen vectors pin the keyed pixel order " * 4, "ascii7")
    bundle = embed(cover, payload, keys, coupling)
    got = (
        sha256(save_pnm(bundle.stego)),
        sha256(save_pbm(bundle.ones)),
        sha256(save_pbm(bundle.zeros)),
    )
    assert got == EMBED_SHA256[channels]
