"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured figures."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from chaostego.analysis import (
    chi_square_attack,
    gamma_q,
    histogram_entropy,
    psnr,
)
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
from chaostego.imagery import (
    RasterImage,
    flip_count,
    load_pbm,
    load_pnm,
    save_pbm,
    save_pnm,
)
from chaostego.keymat import SecretKeySet, generate_keys, simulate_exchange
from test_analysis import gamma_q_by_quadrature


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {name} ({detail})")
    assert ok, f"criterion {criterion}: {name} -- {detail}"


def random_cover(rng, rows, cols, channels):
    samples = rng.integers(0, 256, rows * cols * channels, dtype=np.uint8)
    return RasterImage(rows, cols, channels, samples)


def random_payload_bits(rng, n):
    body = rng.integers(0, 2, n, dtype=np.uint8).tolist()
    header = [(n >> i) & 1 for i in range(31, -1, -1)]
    return MessagePayload("raw", header + body)


def test_criterion_1_round_trip_identity():
    """200 randomized embed/extract cases across sizes, modes, payloads."""
    rng = np.random.default_rng(0xC1)
    modes = ("ascii7", "utf16", "raw")
    started = time.perf_counter()
    decoded_checks = 0
    for case in range(200):
        rows = int(rng.integers(64, 257))
        cols = int(rng.integers(64, 257))
        channels = int(rng.choice([1, 3]))
        cover = random_cover(rng, rows, cols, channels)
        keys, coupling = generate_keys(10_000 + case)
        max_bits = rows * cols // 2  # 0.5 bpp ceiling

        if case % 10 == 0:
            # exercise arbitrary bit counts, down to a single payload bit
            nbits = 1 if case == 0 else int(rng.integers(1, max_bits + 1))
            payload = random_payload_bits(rng, nbits)
            got = extract(embed(cover, payload, keys, coupling), keys)
            assert got.mode == payload.mode and np.array_equal(got.bits, payload.bits)
            continue

        mode = modes[case % 3]
        group = {"ascii7": 7, "utf16": 16, "raw": 8}[mode]
        length = max(1, int(rng.integers(1, max_bits // group + 1)))
        if mode == "ascii7":
            message = "".join(chr(int(c)) for c in rng.integers(32, 127, length))
        elif mode == "utf16":
            message = "".join(chr(int(c)) for c in rng.integers(0x20, 0x2600, length))
        else:
            message = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        payload = encode_message(message, mode)
        got = extract(embed(cover, payload, keys, coupling), keys)
        assert got.mode == payload.mode and np.array_equal(got.bits, payload.bits)
        assert decode_message(got) == message
        decoded_checks += 1

    elapsed = time.perf_counter() - started
    report(1, "round-trip identity", elapsed < 30.0,
           f"200 cases, {decoded_checks} decoded-text checks, {elapsed:.1f}s < 30s")


def test_criterion_2_psnr_identity_at_quarter_bpp():
    """At 0.25 bpp on 512x512, PSNR equals the flip identity and >= 55 dB."""
    rng = np.random.default_rng(0xC2)
    cover = random_cover(rng, 512, 512, 1)
    keys, coupling = generate_keys(20_000)
    payload = encode_message(rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(), "raw")
    assert len(payload.bits) - HEADER_BITS == 65536  # HC = 0.25 bpp
    bundle = embed(cover, payload, keys, coupling)

    quality = psnr(cover, bundle.stego, payload_bits=65536)
    identity = 10.0 * math.log10(255.0 ** 2 * 512 * 512 / quality.flips)
    hc = quality.hiding_capacity_bpp
    ok = abs(quality.psnr_db - identity) < 1e-9 and quality.psnr_db >= 55.0 and hc == 0.25
    report(2, "PSNR identity at HC 0.25 bpp", ok,
           f"psnr={quality.psnr_db:.4f} dB, identity diff={abs(quality.psnr_db - identity):.2e}, "
           f"flips={quality.flips}")


def _textured_covers():
    rng = np.random.default_rng(0xC3)
    yy, xx = np.mgrid[0:512, 0:512]
    n = 512 * 512
    yield "gaussian", np.clip(rng.normal(128, 40, n), 0, 255).astype(np.uint8)
    yield "uniform", rng.integers(0, 256, n, dtype=np.uint8)
    sinusoid = 128 + 90 * np.sin(xx / 17.0) * np.cos(yy / 23.0) + rng.normal(0, 8, (512, 512))
    yield "sinusoid", sinusoid.clip(0, 255).astype(np.uint8).ravel()
    gradient = (xx + yy) * (255.0 / 1022.0) + rng.normal(0, 6, (512, 512))
    yield "gradient", gradient.clip(0, 255).astype(np.uint8).ravel()
    blocky = ((xx // 64 * 37 + yy // 64 * 53) % 200) + 25 + rng.normal(0, 8, (512, 512))
    yield "blocky", blocky.clip(0, 255).astype(np.uint8).ravel()


def test_criterion_3_entropy_closeness():
    """Histogram entropy moves by at most 0.01 bits at 0.25 bpp."""
    started = time.perf_counter()
    deltas = {}
    for i, (name, samples) in enumerate(_textured_covers()):
        cover = RasterImage(512, 512, 1, samples)
        rng = np.random.default_rng(0x30 + i)
        payload = encode_message(rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(), "raw")
        keys, coupling = generate_keys(30_000 + i)
        bundle = embed(cover, payload, keys, coupling)
        deltas[name] = abs(histogram_entropy(cover) - histogram_entropy(bundle.stego))
    elapsed = time.perf_counter() - started
    worst = max(deltas.values())
    ok = worst <= 0.01 and elapsed < 5.0
    report(3, "entropy closeness at 0.25 bpp", ok,
           f"max |dH|={worst:.5f} bits over {sorted(deltas)} in {elapsed:.1f}s")


def test_criterion_4_chi_square_defense():
    """Scattered embedding stays undetected; sequential overwrite lights up."""
    started = time.perf_counter()
    rng = np.random.default_rng(0xC4)
    # Even-valued texture: maximal pair-of-values imbalance, the worst
    # case for hiding and the classic profile the attack keys on.
    base = rng.integers(0, 256, 512 * 512, dtype=np.uint8) & 0xFE
    cover = RasterImage(512, 512, 1, base)
    keys, coupling = generate_keys(40_000)
    payload = encode_message(rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(), "raw")
    stego = embed(cover, payload, keys, coupling).stego
    stego_curve = chi_square_attack(stego, 10)
    stego_worst = max(p.p_embedding for p in stego_curve)

    corrupted = base.copy()
    quarter = corrupted.size // 4
    corrupted[:quarter] = (corrupted[:quarter] & 0xFE) | rng.integers(0, 2, quarter, dtype=np.uint8)
    sequential = RasterImage(512, 512, 1, corrupted)
    seq_curve = [p for p in chi_square_attack(sequential, 5) if p.fraction <= 0.25]
    seq_worst = min(p.p_embedding for p in seq_curve)

    elapsed = time.perf_counter() - started
    ok = stego_worst < 0.1 and seq_worst > 0.9 and elapsed < 10.0
    report(4, "chi-square defense", ok,
           f"scattered max p={stego_worst:.4f} < 0.1, sequential min p={seq_worst:.4f} > 0.9, "
           f"{elapsed:.1f}s")


def test_criterion_5_flip_fraction_law():
    """0.5 bpp payloads flip 22..28% of samples, trial by trial."""
    rng = np.random.default_rng(0xC5)
    fractions = []
    for trial in range(20):
        cover = random_cover(rng, 128, 128, 1)
        keys, coupling = generate_keys(50_000 + trial)
        payload = random_payload_bits(rng, 128 * 128 // 2)
        bundle = embed(cover, payload, keys, coupling)
        fractions.append(flip_count(cover, bundle.stego) / cover.samples.size)
    ok = all(0.22 <= f <= 0.28 for f in fractions)
    report(5, "flip-fraction law at 0.5 bpp", ok,
           f"min={min(fractions):.4f}, max={max(fractions):.4f} over 20 trials")


def test_criterion_6_determinism_and_sensitivity():
    """Identical keys reproduce a 1e5-position stream; 1e-10 nudges diverge."""
    keys, coupling = generate_keys(60_000)
    dims = ImageDims(512, 512)
    first = select_positions(keys, coupling, dims, 100_000)
    second = select_positions(keys, coupling, dims, 100_000)
    deterministic = np.array_equal(first, second)

    rng = np.random.default_rng(0xC6)
    diverged = 0
    for trial in range(50):
        keys_t, coupling_t = generate_keys(61_000 + trial)
        fields = dict(alpha1=keys_t.alpha1, alpha2=keys_t.alpha2, x0=keys_t.x0, y0=keys_t.y0)
        name = list(fields)[int(rng.integers(0, 4))]
        fields[name] += 1e-10
        perturbed = SecretKeySet(**fields)
        a = select_positions(keys_t, coupling_t, ImageDims(128, 128), 500)
        b = select_positions(perturbed, coupling_t, ImageDims(128, 128), 500)
        if not np.array_equal(a, b):
            diverged += 1
    ok = deterministic and diverged >= 49
    report(6, "generator determinism and sensitivity", ok,
           f"streams identical={deterministic}, diverged {diverged}/50 within 500 positions")


def test_criterion_7_gamma_oracle():
    """Q(1,x) = exp(-x) to 1e-10; quadrature oracle agreement to 1e-8."""
    closed_form_err = max(
        abs(gamma_q(1.0, x) - math.exp(-x)) for x in (0.5, 1.0, 2.0, 5.0)
    )
    grid_err = max(
        abs(gamma_q(a, x) - gamma_q_by_quadrature(a, x))
        for a in (0.5, 1.0, 2.5, 10.0, 60.0)
        for x in (0.1, 1.0, 5.0, 30.0, 100.0)
    )
    ok = closed_form_err <= 1e-10 and grid_err <= 1e-8
    report(7, "incomplete gamma oracle", ok,
           f"closed-form err={closed_form_err:.2e}, 5x5 grid err={grid_err:.2e}")


def test_criterion_8_exchange_simulation():
    """Shared secrets agree, differing secrets do not, nothing leaks."""
    keys, coupling = generate_keys(80_000)
    other, _ = generate_keys(80_001)
    dims = ImageDims(128, 128)
    agree = simulate_exchange(keys, keys, coupling, dims, k=500)
    disagree = simulate_exchange(keys, other, coupling, dims, k=500)

    leaked = False
    for transcript in (agree, disagree):
        serialized = json.dumps(dataclasses.asdict(transcript))
        for party in (keys, other):
            for value in (party.alpha1, party.alpha2, party.x0, party.y0):
                if float.hex(value) in serialized or repr(value) in serialized:
                    leaked = True
    ok = agree.agreement and not disagree.agreement and not leaked
    report(8, "exchange simulation", ok,
           f"agree={agree.agreement}, disagree={disagree.agreement}, leaked={leaked}")


def test_criterion_9_format_round_trips():
    """1000 random rasters and bit matrices survive save/load unchanged."""
    rng = np.random.default_rng(0xC9)
    pnm_ok = 0
    for _ in range(500):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        channels = int(rng.choice([1, 3]))
        img = random_cover(rng, rows, cols, channels)
        pnm_ok += load_pnm(save_pnm(img)) == img
    pbm_ok = 0
    for trial in range(500):
        rows = int(rng.integers(1, 12))
        cols = trial % 33 + 1  # sweeps every padding remainder mod 8
        m = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        raster, width = load_pbm(save_pbm(np.packbits(m, axis=1), cols))
        pbm_ok += width == cols and np.array_equal(np.unpackbits(raster, axis=1, count=width), m)
    ok = pnm_ok == 500 and pbm_ok == 500
    report(9, "PNM/PBM round-trip identity", ok,
           f"{pnm_ok}/500 rasters, {pbm_ok}/500 bit matrices")


def test_criterion_10_lossy_robustness_measurement():
    """Corrupting unchanged-position LSBs produces exactly the predicted
    bit error rate: the mark matrices only protect changed pixels."""
    rng = np.random.default_rng(0xCA)
    keys, coupling = generate_keys(100_000)
    cover = random_cover(rng, 128, 128, 1)
    payload = random_payload_bits(rng, 6000)
    bundle = embed(cover, payload, keys, coupling)
    n = len(payload.bits)
    flat = select_positions(keys, coupling, ImageDims(128, 128), n)
    marked = np.unpackbits(~(bundle.ones ^ bundle.zeros), axis=1, count=128).astype(bool)
    rows, cols = np.divmod(flat, 128)
    cells = list(zip(rows.tolist(), cols.tolist()))
    header_cells = set(cells[:HEADER_BITS])
    payload_cells = {rc: i for i, rc in enumerate(cells)}

    worst_gap = 0.0
    for k_percent in (5, 10, 20):
        # corrupt k% of all unchanged cells, sparing the 32 header cells so
        # the declared length survives and sent/received lengths match
        unchanged = [tuple(rc) for rc in np.argwhere(~marked)
                     if tuple(rc) not in header_cells]
        take = int(len(unchanged) * k_percent / 100)
        chosen = [unchanged[int(i)] for i in
                  rng.choice(len(unchanged), size=take, replace=False)]
        corrupted = bundle.stego.samples.copy()
        for r, c in chosen:
            corrupted[r, c] ^= 1
        damaged = StegoBundle(
            RasterImage(128, 128, 1, corrupted), bundle.ones, bundle.zeros, coupling, bundle.mode
        )
        received = extract(damaged, keys)
        measured = bit_error_rate(payload, received)
        predicted = sum(1 for cell in chosen if cell in payload_cells) / n
        worst_gap = max(worst_gap, abs(measured - predicted))
    ok = worst_gap <= 0.02
    report(10, "lossy-robustness measurement", ok,
           f"max |measured - predicted| = {worst_gap:.4f} <= 0.02 over k in 5,10,20%")
