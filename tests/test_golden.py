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
    return np.asarray(select_positions(keys, coupling, ImageDims(rows, cols), count), dtype=np.int64)


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


def test_keygen_file_bytes(tmp_path, orbit_paths):
    for path in orbit_paths:
        secret, public = tmp_path / f"{path}.s.key", tmp_path / f"{path}.p.key"
        assert run(["keygen", "--out", str(secret), "--pub", str(public), "--seed", "42"]) == 0
        assert secret.read_bytes() == KEYGEN_42_SECRET, path
        assert public.read_bytes() == KEYGEN_42_PUBLIC, path


def test_exchange_sim_output(tmp_path, orbit_paths):
    secret, public = tmp_path / "s.key", tmp_path / "p.key"
    secret.write_bytes(KEYGEN_42_SECRET)
    public.write_bytes(KEYGEN_42_PUBLIC)
    for path in orbit_paths:
        out = tmp_path / f"{path}.out.txt"
        argv = ["exchange-sim", "--alice", str(secret), "--pub", str(public),
                "--rows", "97", "--cols", "89", "--prefix", "500", "--out", str(out)]
        assert run(argv) == 0
        assert out.read_text() == EXCHANGE_SIM_OUTPUT, path


@pytest.mark.parametrize("rows,cols,channels", [(40, 56, 1), (40, 56, 3)])
def test_embed_file_bytes(rows, cols, channels, orbit_paths):
    keys, coupling = KEY_SETS["seed42"]
    rng = np.random.default_rng(20121101)
    cover = RasterImage(rows, cols, channels, rng.integers(0, 256, rows * cols * channels, dtype=np.uint8))
    payload = encode_message("frozen vectors pin the keyed pixel order " * 4, "ascii7")
    for path in orbit_paths:
        bundle = embed(cover, payload, keys, coupling)
        got = (
            sha256(save_pnm(bundle.stego)),
            sha256(save_pbm(bundle.ones)),
            sha256(save_pbm(bundle.zeros)),
        )
        assert got == EMBED_SHA256[channels], path


#: The fixed stego image of the grading pins: an even-valued 64x64 cover
#: (maximal pair imbalance) carrying a 931-bit ascii7 message, so the
#: attack curve moves as embedded samples enter the growing prefix.
GRADING_MESSAGE = "pair-of-values frequencies equalize where the keyed order writes " * 2 + "it."
GRADING_PAYLOAD_BITS = 7 * len(GRADING_MESSAGE)

#: SHA-256 of the ``attack`` CSV of the fixed stego image, by ``--step``.
ATTACK_CSV_SHA256 = {
    1: "e46850c626a1b43015d57d5f6d122908d3601dd2b0f41aa7a4cf08b67f9573f0",
    7: "06af7716d96b7a365c382004825bb4ace59ca5881aa07aa8e77592765e81e9a5",
}

#: ``analyze --diff-entropy --payload-bits 931`` of the fixed cover/stego pair.
ANALYZE_OUTPUT = (
    "psnr_db=57.16170347859854\nmse=0.125\nflips=512\nhiding_capacity_bpp=0.227294921875\n"
    "cover_histogram_entropy_bits=6.970058532961088\ncover_diff_entropy_bits=7.706511921495284\n"
    "stego_histogram_entropy_bits=7.492770718320443\nstego_diff_entropy_bits=8.373748912572772\n"
)

#: SHA-256 of the ``attack --step 1`` CSV of a 7x9 image: 63 samples, so
#: many consecutive prefixes have equal length.
TINY_ATTACK_CSV_SHA256 = "42698761dc4e7714aed185150d97a36c08078f09aec17bb1d09e5664a5c0bc0b"


def write_grading_pair(tmp_path):
    keys, coupling = KEY_SETS["seed42"]
    rng = np.random.default_rng(20121102)
    cover = RasterImage(64, 64, 1, rng.integers(0, 256, 64 * 64, dtype=np.uint8) & 0xFE)
    bundle = embed(cover, encode_message(GRADING_MESSAGE, "ascii7"), keys, coupling)
    (tmp_path / "cover.pgm").write_bytes(save_pnm(cover))
    (tmp_path / "stego.pgm").write_bytes(save_pnm(bundle.stego))


def attack_csv(tmp_path, image, step) -> bytes:
    out = tmp_path / f"attack-{step}.csv"
    assert run(["attack", "--image", str(image), "--step", str(step), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("step", sorted(ATTACK_CSV_SHA256))
def test_attack_csv_bytes(step, tmp_path, orbit_paths, analysis_paths):
    for path in orbit_paths:
        write_grading_pair(tmp_path)
        for kernels in analysis_paths:
            got = sha256(attack_csv(tmp_path, tmp_path / "stego.pgm", step))
            assert got == ATTACK_CSV_SHA256[step], (path, kernels)


def test_analyze_output(tmp_path, orbit_paths, analysis_paths):
    for path in orbit_paths:
        write_grading_pair(tmp_path)
        for kernels in analysis_paths:
            out = tmp_path / "quality.txt"
            argv = ["analyze", "--cover", str(tmp_path / "cover.pgm"), "--stego", str(tmp_path / "stego.pgm"),
                    "--diff-entropy", "--payload-bits", str(GRADING_PAYLOAD_BITS), "--out", str(out)]
            assert run(argv) == 0
            assert out.read_text() == ANALYZE_OUTPUT, (path, kernels)


def test_attack_csv_bytes_below_100_samples(tmp_path, analysis_paths):
    # Values in 100..107 fill four pairs, so the later prefixes count
    # enough samples per pair to report a statistic.
    rng = np.random.default_rng(20121103)
    image = tmp_path / "tiny.pgm"
    image.write_bytes(save_pnm(RasterImage(7, 9, 1, rng.integers(100, 108, 63, dtype=np.uint8))))
    for kernels in analysis_paths:
        assert sha256(attack_csv(tmp_path, image, 1)) == TINY_ATTACK_CSV_SHA256, kernels
