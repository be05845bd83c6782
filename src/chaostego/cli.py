"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 validation or parse error,
3 capacity or extraction error.  Diagnostics go to stderr; machine
output goes to files or stdout only.  Secret key values are never
printed anywhere.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from pathlib import Path

from . import analysis, chaos, codec, imagery, keymat
from .errors import CapacityError, ChaostegoError, ExtractError, ParseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this artifact reserves 2
    # for validation errors, so remap through an exception.
    def error(self, message):
        raise _UsageError(message)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _read_text(path: str) -> str:
    data = _read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8") from exc


def _file_key(path: str | Path) -> tuple | str:
    """Equal for two paths that name one file: the resolved directory's
    identity plus the name.  Two syscalls, where ``os.path.realpath``
    takes one per path component."""
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        parent = os.stat(os.path.dirname(path) or ".")
    except OSError:  # a missing directory fails the write itself
        return os.path.abspath(path)
    return parent.st_dev, parent.st_ino, os.path.basename(path)


def _write_files(*files: tuple[str | Path, bytes]) -> None:
    """Write all of a command's ``(path, data)`` outputs, or none of them.

    Two outputs naming the same file are refused before anything is written.
    A regular or missing target is written to a temp file beside it, which
    takes the existing target's mode; the temp files replace their targets
    only once every output is written.  A symlink, device or FIFO target
    (``/dev/stdout``, a pipe) cannot be replaced, so it is written through
    directly, after the temp files and before any rename.  On failure or
    interruption the temp files are removed and no regular target has
    changed.  Nothing is fsynced: the replace holds against a failed
    process, not a power loss.
    """
    seen = set()
    for path, _ in files:
        key = _file_key(path)
        if key in seen:
            raise ParseError(f"cannot write {path}: two outputs name this file")
        seen.add(key)
    staged: list[tuple[Path, str | Path]] = []
    direct: list[tuple[str | Path, bytes]] = []
    renamed = 0
    try:
        for i, (path, data) in enumerate(files):
            try:
                st = os.lstat(path)
            except FileNotFoundError:
                st = None
            if st is not None and stat.S_ISDIR(st.st_mode):  # renaming onto it would fail late
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if st is not None and not stat.S_ISREG(st.st_mode):
                direct.append((path, data))
                continue
            target = Path(path)
            tmp = target.with_name(f".{target.name}.{os.getpid()}-{i}.tmp")
            staged.append((tmp, path))
            with open(tmp, "xb") as fh:
                fh.write(data)
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
        for path, data in direct:
            with open(path, "wb") as fh:
                fh.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed += 1
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        for tmp, _ in staged[renamed:]:
            tmp.unlink(missing_ok=True)


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_files((path, text.encode("utf-8")))


# The library entry points (codec.embed/extract, keymat.simulate_exchange)
# check key invariants; loading only reads and parses.
def _load_secret(path: str) -> keymat.SecretKeySet:
    return keymat.parse_secret_keys(_read_text(path))


def _load_public(path: str) -> tuple[keymat.PublicCoupling, str | None]:
    return keymat.parse_public_key(_read_text(path))


def _stego_paths(out_base: str, channels: int) -> tuple[Path, Path, Path]:
    ext = ".pgm" if channels == 1 else ".ppm"
    base = Path(out_base)
    return (
        base.with_name(base.name + ext),
        base.with_name(base.name + ".ones.pbm"),
        base.with_name(base.name + ".zeros.pbm"),
    )


# ---------------------------------------------------------------------------
# Flat-text serialization of analysis results
# ---------------------------------------------------------------------------

def format_quality_report(report: analysis.QualityReport) -> str:
    lines = [
        f"psnr_db={report.psnr_db!r}",
        f"mse={report.mse!r}",
        f"flips={report.flips}",
    ]
    if report.hiding_capacity_bpp is not None:
        lines.append(f"hiding_capacity_bpp={report.hiding_capacity_bpp!r}")
    return "\n".join(lines) + "\n"


def format_entropy_report(histogram_bits: float, diff_bits: float | None, prefix: str = "") -> str:
    lines = [f"{prefix}histogram_entropy_bits={histogram_bits!r}"]
    if diff_bits is not None:
        lines.append(f"{prefix}diff_entropy_bits={diff_bits!r}")
    return "\n".join(lines) + "\n"


def format_attack_csv(points: list[analysis.AttackPoint]) -> str:
    lines = ["fraction,chi_square,dof,p_embedding"]
    for pt in points:
        lines.append(f"{pt.fraction!r},{pt.chi_square!r},{pt.dof},{pt.p_embedding!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_keygen(args) -> int:
    keys, coupling = keymat.generate_keys(args.seed)
    _write_files(
        (args.out, keymat.format_secret_keys(keys).encode("utf-8")),
        (args.pub, keymat.format_public_key(coupling).encode("utf-8")),
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    violations = keymat.validate_keys(_load_secret(args.secret))
    if args.pub:
        coupling, _ = _load_public(args.pub)
        violations += keymat.validate_coupling(coupling)
    for v in violations:
        print(v, file=sys.stderr)
    return EXIT_INVALID if violations else EXIT_OK


def _cmd_embed(args) -> int:
    cover = imagery.load_pnm(_read_bytes(args.cover))
    keys = _load_secret(args.secret)
    coupling, _ = _load_public(args.pub)
    if args.mode == "raw":
        message = _read_bytes(args.msg)
    else:
        message = _read_text(args.msg)
    payload = codec.encode_message(message, args.mode)
    bundle = codec.embed(cover, payload, keys, coupling)

    stego_path, ones_path, zeros_path = _stego_paths(args.out, cover.channels)
    _write_files(
        (stego_path, imagery.save_pnm(bundle.stego)),
        (ones_path, imagery.save_pbm(bundle.ones)),
        (zeros_path, imagery.save_pbm(bundle.zeros)),
        # The mode tag rides in the public file so extraction needs no flag.
        (args.pub, keymat.format_public_key(coupling, bundle.mode).encode("utf-8")),
    )
    return EXIT_OK


def _cmd_extract(args) -> int:
    stego = imagery.load_pnm(_read_bytes(args.stego))
    ones = imagery.load_pbm(_read_bytes(args.ones))
    zeros = imagery.load_pbm(_read_bytes(args.zeros))
    keys = _load_secret(args.secret)
    coupling, mode = _load_public(args.pub)
    if mode is None:
        raise ParseError(f"{args.pub}: no mode tag (embed writes one)")
    bundle = codec.StegoBundle(stego, ones, zeros, coupling, mode)
    message = codec.decode_message(codec.extract(bundle, keys))
    if mode != "raw":
        try:
            message = message.encode("utf-8")
        except UnicodeEncodeError as exc:  # a utf16 payload may hold lone surrogates
            raise ExtractError(f"recovered message cannot be written as UTF-8: {exc.reason}") from exc
    _write_files((args.out, message))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cover = imagery.load_pnm(_read_bytes(args.cover))
    stego = imagery.load_pnm(_read_bytes(args.stego))
    quality = analysis.psnr(cover, stego, payload_bits=args.payload_bits)
    blocks = [format_quality_report(quality)]
    for label, image in (("cover_", cover), ("stego_", stego)):
        diff = analysis.neighbor_diff_entropy(image) if args.diff_entropy else None
        blocks.append(format_entropy_report(analysis.histogram_entropy(image), diff, prefix=label))
    _write_output(args.out, "".join(blocks))
    return EXIT_OK


def _cmd_attack(args) -> int:
    image = imagery.load_pnm(_read_bytes(args.image))
    points = analysis.chi_square_attack(image, args.step)
    _write_output(args.out, format_attack_csv(points))
    return EXIT_OK


def _cmd_exchange_sim(args) -> int:
    alice = _load_secret(args.alice)
    bob = _load_secret(args.bob) if args.bob else alice
    coupling, _ = _load_public(args.pub)
    transcript = keymat.simulate_exchange(
        alice, bob, coupling, chaos.ImageDims(args.rows, args.cols), k=args.prefix
    )
    lines = [f"{e.sender} {e.kind} {e.payload}" for e in transcript.events]
    lines.append(f"agreement={'true' if transcript.agreement else 'false'}")
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bifurcation(args) -> int:
    scan = chaos.bifurcation_scan(
        args.alpha_min, args.alpha_max, args.alpha_steps,
        args.x0, args.transient, args.samples,
    )
    lines = ["alpha,sample"]
    for alpha, values in scan:
        lines.extend(f"{alpha!r},{v!r}" for v in values)
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# name -> (help, handler, arguments); each argument is a flag and the
# keyword arguments of its add_argument call.
_COMMANDS = {
    "keygen": ("write fresh secret/public key files", _cmd_keygen, (
        ("--out", dict(required=True, help="secret key file to write")),
        ("--pub", dict(required=True, help="public key file to write")),
        ("--seed", dict(required=True, type=int, help="RNG seed")),
    )),
    "validate": ("check key files against their invariants", _cmd_validate, (
        ("--secret", dict(required=True)),
        ("--pub", dict()),
    )),
    "embed": ("hide a message file in a cover image", _cmd_embed, (
        ("--cover", dict(required=True, help="cover image (PGM/PPM)")),
        ("--msg", dict(required=True, help="message file")),
        ("--secret", dict(required=True)),
        ("--pub", dict(required=True)),
        ("--mode", dict(required=True, choices=keymat.MODES)),
        ("--out", dict(required=True, help="output basename for stego files")),
    )),
    "extract": ("recover the message from a stego bundle", _cmd_extract, (
        ("--stego", dict(required=True)),
        ("--ones", dict(required=True)),
        ("--zeros", dict(required=True)),
        ("--secret", dict(required=True)),
        ("--pub", dict(required=True)),
        ("--out", dict(required=True)),
    )),
    "analyze": ("PSNR, flips and entropies of a cover/stego pair", _cmd_analyze, (
        ("--cover", dict(required=True)),
        ("--stego", dict(required=True)),
        ("--payload-bits", dict(type=int, default=None,
                                help="embedded bit count, to report capacity in bpp")),
        ("--diff-entropy", dict(action="store_true",
                                help="also report neighbor-difference entropy")),
        ("--out", dict()),
    )),
    "attack": ("chi-square pair-of-values scan as CSV", _cmd_attack, (
        ("--image", dict(required=True)),
        ("--step", dict(type=int, default=10, help="scan step in percent")),
        ("--out", dict()),
    )),
    "exchange-sim": ("simulate the two-party key exchange", _cmd_exchange_sim, (
        ("--alice", dict(required=True, help="Alice's secret key file")),
        ("--bob", dict(help="Bob's secret key file (defaults to Alice's)")),
        ("--pub", dict(required=True)),
        ("--rows", dict(type=int, default=128)),
        ("--cols", dict(type=int, default=128)),
        ("--prefix", dict(type=int, default=500, help="positions compared for agreement")),
        ("--out", dict()),
    )),
    "bifurcation": ("attractor samples over a parameter grid as CSV", _cmd_bifurcation, (
        ("--alpha-min", dict(type=float, required=True)),
        ("--alpha-max", dict(type=float, required=True)),
        ("--alpha-steps", dict(type=int, required=True)),
        ("--x0", dict(type=float, required=True)),
        ("--transient", dict(type=int, default=500)),
        ("--samples", dict(type=int, default=100)),
        ("--out", dict()),
    )),
}


def _add_command(parser: _Parser, name: str) -> _Parser:
    _, handler, arguments = _COMMANDS[name]
    for flag, kwargs in arguments:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="chaostego", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        # A known subcommand parses with its own parser alone, which is the
        # same parser the full tree would hand its arguments to.
        parser = _add_command(_Parser(prog=f"chaostego {argv[0]}"), argv[0])
        argv = argv[1:]
    else:  # top-level help and usage errors
        parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CapacityError, ExtractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ChaostegoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
