"""Seeded inputs and closed-loop sessions of the benchmark workloads.

Every workload is one client in one process: a session's operations run
one after another through ``chaostego.cli.run`` on files in a work
directory, and the next session starts when the previous one has been
checked.  Sessions come in rounds that visit every input configuration of
the workload once, in an order drawn from the seed.  Every round holds the
same cases, so a run measures the same work whatever its length.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import oracle
from oracle import require


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale (full, or the smoke test's tiny one)."""

    full_cover_shapes: tuple
    full_cover_fills: tuple
    short_shapes: tuple
    short_chars: tuple  # message length range in characters
    short_fill_cap: float  # framed bits never exceed this share of the samples
    short_pool: int  # messages per (shape, mode), each a case of its own
    grading_shapes: tuple
    grading_fills: tuple
    degenerate_shape: tuple
    degenerate_chars: tuple


FULL = Scale(
    full_cover_shapes=((256, 256, 1), (128, 128, 3)),
    full_cover_fills=(0.5, 0.9),
    short_shapes=((256, 256, 1), (512, 512, 1), (256, 256, 3)),
    short_chars=(50, 500),
    short_fill_cap=0.01,
    short_pool=8,
    grading_shapes=((256, 256, 1), (512, 512, 1), (256, 256, 3)),
    grading_fills=(0.1, 0.5, 0.9),
    degenerate_shape=(64, 64, 1),
    degenerate_chars=(60, 200),
)

SMOKE = Scale(
    full_cover_shapes=((32, 32, 1), (16, 16, 3)),
    full_cover_fills=(0.5, 0.9),
    short_shapes=((24, 24, 1), (32, 32, 1), (16, 16, 3)),
    short_chars=(3, 12),
    short_fill_cap=0.2,
    short_pool=2,
    grading_shapes=((24, 24, 1), (32, 32, 1), (16, 16, 3)),
    grading_fills=(0.1, 0.5, 0.9),
    degenerate_shape=(24, 24, 1),
    degenerate_chars=(25, 40),
)

#: Hand-made keys that pass validation but whose orbits collapse: alphas
#: above ~2.2 make the interval endpoint attracting, and coupling factors
#: well below 1 contract the pair onto a short cycle.  Each visits at most
#: 217 cells of a 64x64 grid (123 of 24x24), fewer than any degenerate-keys
#: message needs, so every embed must exit 3 after the iteration cap.
DEGENERATE_KEYS = (
    (3.0, 2.5, 0.31, 0.72, 0.9),
    (1.2, 1.5, 0.31, 0.72, 0.3),
    (2.8, 3.2, 0.43, 0.27, 0.95),
    (1.4, 1.1, 0.62, 0.18, 0.25),
)


def keygen_seed(case_index: int) -> int:
    """Keygen seed of a case, fixed by the case's place in the workload.

    A key decides how many orbit steps the dedup needs and how long keygen's
    liveness probe runs.  Drawing keys from the run seed would make runs of
    one commit differ by the keys drawn rather than by the code, and drawing
    fresh keys every round would make a run's key set depend on how many
    rounds fit in its time.  So every round of every run uses the same keys,
    and the seed varies covers, messages and session order.
    """
    return 1 + case_index


_UTF16_RANGES = ((0x20, 0x7E), (0xC0, 0x17F), (0x391, 0x3C9), (0x4E00, 0x4FFF), (0xAC00, 0xACFF))


def shape_label(shape) -> str:
    rows, cols, channels = shape
    return f"{rows}x{cols}x{channels}"


def natural_cover(rng: np.random.Generator, shape) -> np.ndarray:
    """A photo-like cover as a (rows, cols*channels) uint8 grid.

    A smooth gradient with two low-frequency undulations plus low-amplitude
    sensor noise is quantized to integer levels and then contrast-stretched
    by 1.65, which leaves the comb-shaped histogram of an adjusted photo.
    Pair-of-values counts of such a cover are unequal, so the chi-square
    attack scores it near 0 until embedding equalizes them.  Uniform noise,
    or the same gradient without the stretch, already has equal pair counts
    and scores near 1 before anything is embedded.
    """
    rows, cols, channels = shape
    y = np.linspace(0.0, 1.0, rows)[:, None, None]
    x = np.linspace(0.0, 1.0, cols)[None, :, None]
    c = np.arange(channels)[None, None, :]
    f = rng.uniform(0.5, 3.0, 4)
    phase = rng.uniform(0.0, 2 * np.pi, 2)
    tilt = rng.uniform(0.3, 0.6, 2)
    base = (tilt[0] * x + tilt[1] * y + 0.05 * c
            + 0.08 * np.sin(2 * np.pi * (f[0] * x + f[1] * y) + phase[0])
            + 0.06 * np.cos(2 * np.pi * (f[2] * x - f[3] * y) + phase[1]))
    base = (base - base.min()) / (base.max() - base.min())
    levels = np.round(10 + 140 * base + rng.normal(0.0, 2.0, base.shape))
    samples = np.clip(np.round(levels * 1.65), 0, 255).astype(np.uint8)
    return samples.reshape(rows, cols * channels)


def text_message(rng: random.Random, mode: str, chars: int) -> bytes:
    if mode == "ascii7":
        codes = [rng.choice((10, *range(0x20, 0x7F))) for _ in range(chars)]
    else:
        codes = [rng.randint(*rng.choice(_UTF16_RANGES)) for _ in range(chars)]
    return "".join(map(chr, codes)).encode("utf-8")


# ---------------------------------------------------------------------------
# Cases and the client
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StegoCase:
    """keygen -> embed -> extract of one message into one cover."""

    label: str
    cover: Path
    shape: tuple
    msg: Path
    mode: str
    keygen_seed: int


@dataclass(frozen=True)
class GradeCase:
    """analyze (cover, stego) -> attack (stego) of one corpus image."""

    label: str
    cover: Path
    stego: Path
    shape: tuple
    payload_bits: int


@dataclass(frozen=True)
class RejectCase:
    """embed with a degenerate key, which must exit 3 and write nothing."""

    label: str
    cover: Path
    shape: tuple
    msg: Path
    secret: Path
    pub: Path


@dataclass
class Op:
    kind: str
    ms: float
    rc: int | None
    span: int  # index of its cli.run span when traced, else -1
    stderr: str = ""
    ok: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class Session:
    label: str
    ops: list[Op]
    bits: int = 0  # framed payload bits carried by embed + extract
    case: object = None  # the case it ran, set by the closed loop
    ref_ms: float = 0.0  # reference kernel time just before it, set likewise

    @property
    def ms(self) -> float:
        return sum(op.ms for op in self.ops)


class Client:
    """Times ``cli.run`` calls; stderr of each call is kept out of the report."""

    def __init__(self, package, tracer=None):
        self.ct = package
        self.tracer = tracer

    def call(self, kind: str, argv: list[str]) -> Op:
        span = len(self.tracer.spans) if self.tracer else -1
        err = io.StringIO()
        # Every op starts from a collected heap, as a fresh CLI process does;
        # otherwise a collection of the previous ops' garbage lands inside
        # whichever op happens to trigger it.
        gc.collect()
        with contextlib.redirect_stderr(err):
            start = perf_counter_ns()
            try:
                rc = self.ct.cli.run(argv)
            except Exception:  # a traceback is a failed op, not a dead benchmark
                rc = None
                err.write(traceback.format_exc())
            ms = (perf_counter_ns() - start) / 1e6
        return Op(kind, ms, rc, span, err.getvalue())


def _run_checks(op: Op, check) -> None:
    """Mark the op ok when ``check`` passes; report what failed."""
    try:
        check()
    except Exception:  # any exception in a check is a failed op, reported with its cause
        print(f"check failed: {op.kind}\n{traceback.format_exc()}{op.stderr}", file=sys.stderr)
        return
    op.ok = True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    reference = "python"  # the reference kernel shaped like the hot path

    def __init__(self, ct, work: Path, seed: int, scale: Scale):
        self.ct, self.work, self.seed, self.scale = ct, work, seed, scale
        self.rng = np.random.default_rng(seed)
        self.pyrng = random.Random(seed)
        for sub in ("in", "out", "keys"):
            (work / sub).mkdir(parents=True, exist_ok=True)
        self.out = work / "out" / "stego"

    def write_cover(self, shape) -> Path:
        path = self.work / "in" / f"cover-{shape_label(shape)}.p{'g' if shape[2] == 1 else 'p'}m"
        path.write_bytes(oracle.pnm_bytes(natural_cover(self.rng, shape), shape[2]))
        return path

    def rounds(self):
        """Endless rounds; each holds every case once, in a seeded order."""
        rng = random.Random(self.seed)
        while True:
            yield rng.sample(self.cases, len(self.cases))

    def outputs(self, channels: int) -> list[Path]:
        ext = ".pgm" if channels == 1 else ".ppm"
        return [self.out.with_name("stego" + s) for s in (ext, ".ones.pbm", ".zeros.pbm")]

    def clear_outputs(self) -> None:
        for path in self.out.parent.iterdir():
            path.unlink()


class _StegoWorkload(Workload):
    """keygen -> embed -> extract sessions (full-cover and short-messages)."""

    def session(self, client: Client, case: StegoCase, probe=None) -> Session:
        self.clear_outputs()
        secret, pub = self.work / "keys" / "secret.key", self.work / "keys" / "public.key"
        recovered = self.work / "out" / "recovered.msg"
        keygen = client.call("keygen", ["keygen", "--out", str(secret), "--pub", str(pub),
                                        "--seed", str(case.keygen_seed)])
        embed = client.call("embed", ["embed", "--cover", str(case.cover), "--msg", str(case.msg),
                                      "--secret", str(secret), "--pub", str(pub),
                                      "--mode", case.mode, "--out", str(self.out)])
        extract = client.call("extract", ["extract", *self._bundle_args(case.shape[2]),
                                          "--secret", str(secret), "--pub", str(pub),
                                          "--out", str(recovered)])
        message = case.msg.read_bytes()
        bits = oracle.frame_bits(message, case.mode)
        session = Session(case.label, [keygen, embed, extract], len(bits))

        _run_checks(keygen, lambda: require(keygen.rc == 0, f"keygen exit {keygen.rc}"))

        def check_embed():
            require(embed.rc == 0, f"embed exit {embed.rc}")
            cover = oracle.read_pnm(case.cover.read_bytes())
            stego_path, ones_path, zeros_path = self.outputs(case.shape[2])
            stego = oracle.read_pnm(stego_path.read_bytes())
            ones, zeros = (oracle.read_pbm(p.read_bytes()) for p in (ones_path, zeros_path))
            image = lambda s: self.ct.imagery.RasterImage(s.shape[0], case.shape[1], case.shape[2], s)
            flips = self.ct.imagery.flip_count(image(cover), image(stego))  # raises unless LSB-only
            require(flips == oracle.check_marks(cover, stego, ones, zeros), "flip count")
            if probe is not None:
                probe.stego(self.ct, embed, extract, secret, pub, case.shape, bits, cover, stego)

        def check_extract():
            require(extract.rc == 0, f"extract exit {extract.rc}")
            require(recovered.read_bytes() == message, "recovered message differs from the one sent")

        _run_checks(embed, check_embed)
        _run_checks(extract, check_extract)
        return session

    def _bundle_args(self, channels: int) -> list[str]:
        stego, ones, zeros = self.outputs(channels)
        return ["--stego", str(stego), "--ones", str(ones), "--zeros", str(zeros)]


class FullCover(_StegoWorkload):
    name = "full-cover"

    def setup(self):
        self.cases = []
        for shape in self.scale.full_cover_shapes:
            cover = self.write_cover(shape)
            samples = shape[0] * shape[1] * shape[2]
            for fill in self.scale.full_cover_fills:
                nbytes = int(samples * fill) // 8 - 4  # 32 header bits
                label = f"{shape_label(shape)}@{round(fill * 100)}%"
                msg = self.work / "in" / f"msg-{label}.bin"
                msg.write_bytes(self.rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes())
                self.cases.append(StegoCase(label, cover, shape, msg, "raw", keygen_seed(len(self.cases))))


class ShortMessages(_StegoWorkload):
    name = "short-messages"

    def setup(self):
        lo, hi = self.scale.short_chars
        self.cases = []
        for shape in self.scale.short_shapes:
            cover = self.write_cover(shape)
            samples = shape[0] * shape[1] * shape[2]
            for mode in ("ascii7", "utf16"):
                cap = max(1, int(self.scale.short_fill_cap * samples - 32) // oracle.GROUP_BITS[mode])
                # Evenly spaced lengths give every run the same length mix;
                # the seed picks the characters.
                for i, chars in enumerate(np.linspace(lo, hi, self.scale.short_pool)):
                    chars = min(round(chars), cap)
                    msg = self.work / "in" / f"msg-{shape_label(shape)}-{mode}-{i}.txt"
                    msg.write_bytes(text_message(self.pyrng, mode, chars))
                    self.cases.append(StegoCase(f"{shape_label(shape)} {mode}", cover, shape, msg, mode,
                                                keygen_seed(len(self.cases))))


class Grading(Workload):
    name = "grading"
    reference = "numpy"

    def setup(self):
        ct = self.ct
        keys, coupling = ct.keymat.generate_keys(keygen_seed(0))
        self.cases = []
        for shape in self.scale.grading_shapes:
            cover_path = self.write_cover(shape)
            cover = ct.imagery.load_pnm(cover_path.read_bytes())
            samples = shape[0] * shape[1] * shape[2]
            for fill in self.scale.grading_fills:
                nbytes = int(samples * fill) // 8 - 4
                data = self.rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
                bundle = ct.codec.embed(cover, ct.codec.encode_message(data, "raw"), keys, coupling)
                label = f"{shape_label(shape)}@{round(fill * 100)}%"
                stego = self.work / "in" / f"stego-{label}.p{'g' if shape[2] == 1 else 'p'}m"
                stego.write_bytes(ct.imagery.save_pnm(bundle.stego))
                self.cases.append(GradeCase(label, cover_path, stego, shape, 8 * nbytes))
        self.verified: set = set()

    def session(self, client: Client, case: GradeCase, probe=None) -> Session:
        report, curve = self.work / "out" / "analyze.txt", self.work / "out" / "attack.csv"
        analyze = client.call("analyze", ["analyze", "--cover", str(case.cover), "--stego", str(case.stego),
                                          "--diff-entropy", "--payload-bits", str(case.payload_bits),
                                          "--out", str(report)])
        attack = client.call("attack", ["attack", "--image", str(case.stego), "--step", "1",
                                        "--out", str(curve)])

        # Outputs are deterministic per corpus image: one byte-identical to an
        # output already verified needs no second recomputation.
        def verify(op, path, check):
            require(op.rc == 0, f"{op.kind} exit {op.rc}")
            key = (case.label, op.kind, path.read_bytes())
            if key not in self.verified:
                check(key[2].decode("utf-8"))
                self.verified.add(key)

        cover = lambda: oracle.read_pnm(case.cover.read_bytes())
        stego = lambda: oracle.read_pnm(case.stego.read_bytes())
        _run_checks(analyze, lambda: verify(analyze, report, lambda text: oracle.check_analyze(
            text, cover(), stego(), case.shape[2], case.payload_bits)))
        _run_checks(attack, lambda: verify(attack, curve, lambda text: oracle.check_attack(text, stego())))
        return Session(case.label, [analyze, attack])


class DegenerateKeys(Workload):
    name = "degenerate-keys"

    def setup(self):
        shape = self.scale.degenerate_shape
        cover = self.write_cover(shape)
        lo, hi = self.scale.degenerate_chars
        self.cases = []
        for i, (a1, a2, x0, y0, r) in enumerate(DEGENERATE_KEYS):
            secret, pub = self.work / "keys" / f"degenerate-{i}.key", self.work / "keys" / f"degenerate-{i}.pub"
            secret.write_text(f"alpha1={a1.hex()}\nalpha2={a2.hex()}\nx0={x0.hex()}\ny0={y0.hex()}\n")
            pub.write_text(f"R={r.hex()}\n")
            msg = self.work / "in" / f"msg-degenerate-{i}.txt"
            msg.write_bytes(text_message(self.pyrng, "ascii7", self.pyrng.randint(lo, hi)))
            label = f"alpha=({a1},{a2}) R={r}"
            self.cases.append(RejectCase(label, cover, shape, msg, secret, pub))

    def session(self, client: Client, case: RejectCase, probe=None) -> Session:
        self.clear_outputs()
        pub_before = case.pub.read_bytes()
        embed = client.call("reject", ["embed", "--cover", str(case.cover), "--msg", str(case.msg),
                                       "--secret", str(case.secret), "--pub", str(case.pub),
                                       "--mode", "ascii7", "--out", str(self.out)])

        def check():
            require(embed.rc == 3, f"degenerate embed exit {embed.rc}, want 3")
            left = [p.name for p in self.outputs(case.shape[2]) if p.exists()]
            require(not left, f"degenerate embed left {left} behind")
            require(case.pub.read_bytes() == pub_before, "degenerate embed rewrote the public key")
            if probe is not None:
                count = len(oracle.frame_bits(case.msg.read_bytes(), "ascii7"))
                probe.reject(self.ct, embed, case.secret, case.pub, case.shape, count)

        _run_checks(embed, check)
        return Session(case.label, [embed])


WORKLOADS = {w.name: w for w in (FullCover, ShortMessages, Grading, DegenerateKeys)}


# ---------------------------------------------------------------------------
# Traced-run probes: direct chaos calls and the spec-oracle replay
# ---------------------------------------------------------------------------

class Probe:
    """Direct ``select_positions`` timings and reference replays, cached per
    distinct (keys, coupling, grid, count) so a traced run stays bounded."""

    def __init__(self):
        self.timed: dict = {}
        self.replayed: dict = {}

    @staticmethod
    def _keys(ct, secret: Path, pub: Path):
        s = oracle.read_key_file(secret.read_text())
        keys = ct.keymat.SecretKeySet(s["alpha1"], s["alpha2"], s["x0"], s["y0"])
        return keys, ct.keymat.PublicCoupling(oracle.read_key_file(pub.read_text())["R"])

    def _select_ms(self, ct, keys, coupling, rows, cols, count):
        """Time a direct select_positions call; returns (ms, raised)."""
        key = (keys, coupling, rows, cols, count)
        if key not in self.timed:
            dims = ct.chaos.ImageDims(rows, cols)
            start = perf_counter_ns()
            try:
                ct.chaos.select_positions(keys, coupling, dims, count)
                raised = False
            except ct.errors.InsufficientCapacity:
                raised = True
            self.timed[key] = ((perf_counter_ns() - start) / 1e6, raised)
        return self.timed[key]

    def _replay(self, ct, keys, coupling, rows, cols, count):
        key = (keys, coupling, rows, cols, count)
        if key not in self.replayed:
            self.replayed[key] = oracle.replay_positions(ct.chaos, keys, coupling.value, rows, cols, count)
        return self.replayed[key]

    def stego(self, ct, embed: Op, extract: Op, secret, pub, shape, bits, cover, stego) -> None:
        keys, coupling = self._keys(ct, secret, pub)
        rows, cols = shape[0], shape[1] * shape[2]
        ms, raised = self._select_ms(ct, keys, coupling, rows, cols, len(bits))
        require(not raised, "select_positions raised for a key the embed accepted")
        flat, steps = self._replay(ct, keys, coupling, rows, cols, len(bits))
        oracle.check_against_replay(cover, stego, bits, flat)
        for op in (embed, extract):
            op.extra.update(positions_ms=ms, steps=steps, unique=len(flat))

    def reject(self, ct, embed: Op, secret, pub, shape, count) -> None:
        keys, coupling = self._keys(ct, secret, pub)
        rows, cols = shape[0], shape[1] * shape[2]
        ms, raised = self._select_ms(ct, keys, coupling, rows, cols, count)
        require(raised, "select_positions did not raise InsufficientCapacity for a degenerate key")
        flat, steps = self._replay(ct, keys, coupling, rows, cols, count)
        require(len(flat) < count, "the reference replay found enough positions for a degenerate key")
        embed.extra.update(reject_ms=ms, steps=steps, unique=len(flat))
