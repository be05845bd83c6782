"""Independent recomputations the benchmark checks the program's outputs against.

Nothing here calls the code under test except the reference step functions
of ``chaostego.chaos`` (``initial_state``, ``coupled_step``, ``to_pixel``),
which are the readable specification of the position stream.  Netpbm files,
key files, message framing, PSNR, entropies and the chi-square statistic
are re-derived with numpy so that a wrong answer from the program cannot
also be the expected answer.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from scipy.special import gammaincc
except ImportError:  # the p-value check is skipped without scipy
    gammaincc = None

GROUP_BITS = {"ascii7": 7, "utf16": 16, "raw": 8}
PEAK = 255


class CheckFailed(Exception):
    """An output of the program disagrees with its recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def pnm_bytes(samples: np.ndarray, channels: int) -> bytes:
    """Canonical binary PGM/PPM for a (rows, cols*channels) uint8 grid."""
    rows, flat_cols = samples.shape
    magic = b"P5" if channels == 1 else b"P6"
    return magic + b"\n%d %d\n255\n" % (flat_cols // channels, rows) + samples.tobytes()


def _raster(data: bytes, magic: bytes, fields: int, row_bytes) -> tuple[list[int], bytes]:
    # The program writes one canonical header form: magic, the fields
    # separated by single spaces/newlines, then the raster.
    require(data[:2] == magic, f"file is not {magic.decode()}")
    values = [int(t) for t in data[:64].split(maxsplit=fields + 1)[1 : fields + 1]]
    require(len(values) == fields, "netpbm header is truncated")
    cols, rows = values[0], values[1]
    header = magic + b"\n%d %d\n" % (cols, rows) + b"".join(b"%d\n" % v for v in values[2:])
    need = rows * row_bytes(cols)
    require(data.startswith(header) and len(data) == len(header) + need,
            "netpbm file is not in canonical form")
    return values, data[len(header) :]


def read_pnm(data: bytes) -> np.ndarray:
    """(rows, cols*channels) uint8 samples of a canonical P5/P6 file."""
    channels = 3 if data[:2] == b"P6" else 1
    magic = b"P6" if channels == 3 else b"P5"
    (cols, rows, maxval), raster = _raster(data, magic, 3, lambda c: c * channels)
    require(maxval == 255, "maxval is not 255")
    return np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols * channels)


def read_pbm(data: bytes) -> np.ndarray:
    """(rows, cols) 0/1 cells of a canonical P4 file."""
    (cols, rows), raster = _raster(data, b"P4", 2, lambda c: (c + 7) // 8)
    packed = np.frombuffer(raster, dtype=np.uint8).reshape(rows, (cols + 7) // 8)
    return np.unpackbits(packed, axis=1)[:, :cols]


def read_key_file(text: str) -> dict[str, float]:
    """name=value pairs with hexadecimal float values."""
    pairs = dict(line.split("=", 1) for line in text.splitlines() if line.strip())
    return {k.strip(): (v.strip() if k.strip() == "mode" else float.fromhex(v.strip()))
            for k, v in pairs.items()}


# ---------------------------------------------------------------------------
# Message framing: 32-bit big-endian payload bit count, then MSB-first groups
# ---------------------------------------------------------------------------

def frame_bits(message: bytes, mode: str) -> np.ndarray:
    """Framed payload bits (uint8 0/1) of a message file's bytes."""
    if mode == "raw":
        body = np.unpackbits(np.frombuffer(message, dtype=np.uint8))
    else:
        width = GROUP_BITS[mode]
        codes = np.array([ord(ch) for ch in message.decode("utf-8")], dtype=np.int64)
        shifts = np.arange(width - 1, -1, -1)
        body = ((codes[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    header = ((len(body) >> np.arange(31, -1, -1)) & 1).astype(np.uint8)
    return np.concatenate([header, body])


# ---------------------------------------------------------------------------
# Embedding invariants
# ---------------------------------------------------------------------------

def check_marks(cover: np.ndarray, stego: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> int:
    """The stego differs from the cover only where the marks agree, and
    there its LSB equals the mark.  Returns the number of changed samples."""
    require(stego.shape == cover.shape == ones.shape == zeros.shape, "bundle shapes differ")
    changed = stego != cover
    agree = ones == zeros
    require(not np.any(changed & ~agree), "stego changed a sample whose marks differ")
    require(np.array_equal(stego[agree] & 1, ones[agree]), "stego LSB disagrees with its mark")
    return int(np.count_nonzero(changed))


def iteration_cap(cells: int) -> int:
    """Step budget of the position generator: 20*M*N*max(1, ln(M*N))."""
    return int(20 * cells * max(1.0, math.log(cells)))


def replay_positions(chaos, keys, r: float, rows: int, cols: int, count: int):
    """Replay the position stream with the reference step functions.

    Returns ``(flat_indices, steps)``: the first ``count`` unique samples in
    orbit order (fewer if the iteration cap ran out first) and the number of
    orbit states visited.
    """
    dims = chaos.ImageDims(rows, cols)
    cap = iteration_cap(rows * cols)
    state = chaos.initial_state(keys)
    seen: set = set()
    order: list[int] = []
    steps = 1
    while True:
        col, row = chaos.to_pixel(state.x, state.y, dims)
        flat = (row - 1) * cols + (col - 1)
        if flat not in seen:
            seen.add(flat)
            order.append(flat)
            if len(order) == count:
                break
        if steps >= cap:
            break
        state = chaos.coupled_step(state, keys.alpha1, keys.alpha2, r)
        steps += 1
    return np.array(order, dtype=np.int64), steps


def check_against_replay(cover: np.ndarray, stego: np.ndarray, bits: np.ndarray, flat: np.ndarray) -> None:
    """The stego holds ``bits`` at the replayed positions and nothing else changed."""
    require(len(flat) == len(bits), "replay found fewer positions than the payload needs")
    c, s = cover.ravel(), stego.ravel()
    changed = np.flatnonzero(c != s)
    expected = flat[(c[flat] & 1) != bits]
    require(np.array_equal(np.sort(expected), changed),
            "changed samples differ from the replayed stream's changed cells")
    require(np.array_equal(s[flat] & 1, bits), "stego LSBs differ from the payload at the replayed positions")


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def _close(a: float, b: float, what: str) -> None:
    require(a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), f"{what}: {a!r} != {b!r}")


def check_analyze(text: str, cover: np.ndarray, stego: np.ndarray, channels: int, payload_bits: int) -> None:
    values = dict(line.split("=", 1) for line in text.splitlines() if line)
    delta = cover.astype(np.int64) - stego.astype(np.int64)
    mse = float(np.mean(delta * delta))
    psnr = math.inf if mse == 0 else 10.0 * math.log10(PEAK * PEAK / mse)
    _close(float(values["psnr_db"]), psnr, "psnr_db")
    _close(float(values["mse"]), mse, "mse")
    require(int(values["flips"]) == int(np.count_nonzero(delta)), "flips")
    pixels = cover.shape[0] * cover.shape[1] // channels
    _close(float(values["hiding_capacity_bpp"]), payload_bits / pixels, "hiding_capacity_bpp")
    for label, image in (("cover_", cover), ("stego_", stego)):
        hist = np.bincount(image.ravel(), minlength=256)
        _close(float(values[label + "histogram_entropy_bits"]), _entropy(hist), label + "entropy")
        planes = image.reshape(image.shape[0], -1, channels).astype(np.int16)
        diffs = (planes[:, 1:, :] - planes[:, :-1, :] + PEAK).ravel()
        _close(float(values[label + "diff_entropy_bits"]),
               _entropy(np.bincount(diffs, minlength=511)), label + "diff_entropy")


def check_attack(text: str, image: np.ndarray) -> int:
    """Recompute each prefix's pair-of-values statistic; compare p-values
    with scipy's incomplete gamma when scipy imports.  Returns the rows."""
    lines = text.splitlines()
    require(lines[0] == "fraction,chi_square,dof,p_embedding", "attack CSV header")
    flat = image.ravel()
    for line in lines[1:]:
        fraction, chi, dof, p = line.split(",")
        fraction, chi, dof, p = float(fraction), float(chi), int(dof), float(p)
        hist = np.bincount(flat[: (flat.size * round(fraction * 100)) // 100], minlength=256)
        even, odd = hist[0::2].astype(np.float64), hist[1::2].astype(np.float64)
        used = (even + odd) > 4
        expected = (even + odd)[used] / 2.0
        want_chi = float(np.sum((even[used] - expected) ** 2 / expected)) if used.any() else 0.0
        _close(chi, want_chi, f"chi_square at {fraction}")
        require(dof == max(int(used.sum()) - 1, 0), f"dof at {fraction}")
        if gammaincc is not None:
            want_p = float(gammaincc(dof / 2.0, chi / 2.0)) if dof >= 1 else 0.0
            require(abs(p - want_p) <= 1e-10, f"p_embedding at {fraction}: {p!r} vs {want_p!r}")
    return len(lines) - 1
