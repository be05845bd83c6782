"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 validation or parse error,
3 capacity or extraction error, or out of memory.  Diagnostics go to
stderr; machine output goes to files or stdout only.  Secret key values
are never printed anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import os
import stat
import sys

from . import _native, analysis, chaos, codec, imagery, keymat
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


def _parts(path: str) -> tuple[str, list[str]]:
    """``path``'s root and names as pathlib splits them: empty and ``.`` names
    are dropped, ``..`` is kept, and a root of exactly two slashes stays two,
    so ``"a//b/./"`` gives ``("", ["a", "b"])``."""
    slashes = len(path) - len(path.lstrip("/"))
    root = "//" if slashes == 2 else "/" if slashes else ""
    return root, [name for name in path.split("/") if name not in ("", ".")]


def _read_bytes(path: str) -> bytes:
    """The bytes of the file ``path`` names once split by :func:`_parts`: an
    empty path reads ``.``, and ``key/`` reads the file ``key``."""
    root, names = _parts(path)
    try:
        with open(root + "/".join(names) or ".", "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _read_text(path: str) -> str:
    data = _read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8") from exc


def _file_key(path: str) -> tuple | str:
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


def _named(path: str) -> tuple[str, str]:
    """``path``'s directory and file name, refused when it has no file name
    ("", ".", "/", "..") to stage a temp file beside or to put a suffix on."""
    root, names = _parts(path)
    if not names or names[-1] == "..":
        raise ParseError(f"cannot write {path!r}: no file name")
    return root + "/".join(names[:-1]), names[-1]


def _write_files(*files: tuple[str, bytes], secret: str | None = None) -> None:
    """Write all of a command's ``(path, data)`` outputs, or none of them.

    Two outputs naming the same file are refused before anything is written.
    A regular or missing target is written to a temp file beside it; its name
    is the first free one, so a stale temp file is neither replaced nor
    removed.  The temp file is created ``0600`` and takes an existing
    target's exact mode before its first byte; for a new target it stays
    ``0600`` if its path is ``secret``, else it is created ``0666`` less the
    umask.  Once every output is
    written, each temp file takes its target's name: an existing target is
    swapped with it (:func:`_native.exchange`) and its old content unlinked
    only after every output is in place; a missing target, or one where names
    cannot be swapped, is renamed onto.  A symlink, device or FIFO target
    (``/dev/stdout``, a pipe) cannot be replaced, so it is written through
    directly, after the temp files and before any rename.

    On failure or interruption the swapped targets are swapped back, the
    targets created are unlinked and the temp files removed, so no regular
    target has changed, except where names could not be swapped: there a
    target renamed over before the failure keeps its new content.  Nothing
    is fsynced: this holds against a failed process, not a power loss.
    """
    if len(files) > 1:  # a single output cannot name one file twice
        seen = set()
        for path, _ in files:
            key = _file_key(path)
            if key in seen:
                raise ParseError(f"cannot write {path}: two outputs name this file")
            seen.add(key)
    staged: list[tuple[str, str, bool]] = []
    direct: list[tuple[str, bytes]] = []
    temps: list[str] = []  # to remove at the end: unrenamed, or holding old content
    undo: list[tuple[str, str, bool]] = []  # (tmp, path, swapped) renames to reverse
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
            parent, name = _named(path)
            mode = 0o600 if st is not None or path == secret else 0o666
            for n in itertools.count(i):
                tmp = os.path.join(parent, f".{name}.{os.getpid()}-{n}.tmp")
                with contextlib.suppress(FileExistsError):
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
                    break
            staged.append((tmp, path, st is not None))
            temps.append(tmp)
            with open(fd, "wb") as fh:
                if st is not None:
                    os.fchmod(fd, stat.S_IMODE(st.st_mode))
                fh.write(data)
        for path, data in direct:
            with open(path, "wb") as fh:
                fh.write(data)
        for tmp, path, existed in staged:
            if existed and _native.exchange(tmp, path):
                undo.append((tmp, path, True))
                if stat.S_ISDIR(os.lstat(tmp).st_mode):  # made since the lstat above
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            else:
                os.replace(tmp, path)
                temps.remove(tmp)
                if not existed:
                    undo.append((tmp, path, False))
    except BaseException as exc:
        _put_back(undo, temps)
        if isinstance(exc, OSError):
            raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
        raise
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _put_back(undo: list[tuple[str, str, bool]], temps: list[str]) -> None:
    """Reverse :func:`_write_files`'s renames, last first: swap each swapped
    target back, so its temp file holds the new content, and unlink each
    created one.  A temp file whose old content cannot be swapped back is
    dropped from ``temps`` and kept."""
    for tmp, path, swapped in reversed(undo):
        if not swapped:
            with contextlib.suppress(OSError):
                os.unlink(path)
            continue
        try:
            back = _native.exchange(tmp, path)
        except OSError:
            back = False
        if not back:
            temps.remove(tmp)


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_files((path, text.encode("utf-8")))


def _stego_paths(out_base: str, channels: int) -> tuple[str, str, str]:
    ext = ".pgm" if channels == 1 else ".ppm"
    base = os.path.join(*_named(out_base))
    return base + ext, base + ".ones.pbm", base + ".zeros.pbm"


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


def format_entropy_report(histogram_bits: float, diff_bits: float | None, prefix: str) -> str:
    lines = [f"{prefix}histogram_entropy_bits={histogram_bits!r}"]
    if diff_bits is not None:
        lines.append(f"{prefix}diff_entropy_bits={diff_bits!r}")
    return "\n".join(lines) + "\n"


def format_attack_csv(points: list[analysis.AttackPoint]) -> str:
    return "fraction,chi_square,dof,p_embedding\n" + "".join(
        f"{fraction!r},{chi!r},{dof},{p!r}\n" for fraction, chi, dof, p in points
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

# chaos.select_positions, under every library entry point, checks the key
# invariants; the handlers only read and parse key files.

def _cmd_keygen(args) -> int:
    keys, coupling = keymat.generate_keys(args.seed)
    _write_files(
        (args.out, keymat.format_secret_keys(keys).encode("utf-8")),
        (args.pub, keymat.format_public_key(coupling).encode("utf-8")),
        secret=args.out,
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    violations = keymat.validate_keys(keymat.parse_secret_keys(_read_text(args.secret)))
    if args.pub is not None:
        coupling, _ = keymat.parse_public_key(_read_text(args.pub))
        violations += keymat.validate_coupling(coupling)
    for v in violations:
        print(v, file=sys.stderr)
    return EXIT_INVALID if violations else EXIT_OK


def _cmd_embed(args) -> int:
    cover = imagery.load_pnm(_read_bytes(args.cover))
    keys = keymat.parse_secret_keys(_read_text(args.secret))
    coupling, _ = keymat.parse_public_key(_read_text(args.pub))
    if args.mode == "raw":
        message = _read_bytes(args.msg)
    else:
        message = _read_text(args.msg)
    payload = codec.encode_message(message, args.mode)
    bundle = codec.embed(cover, payload, keys, coupling)

    stego_path, ones_path, zeros_path = _stego_paths(args.out, cover.channels)
    _write_files(
        (stego_path, imagery.save_pnm(bundle.stego)),
        (ones_path, imagery.save_pbm(bundle.ones, cover.flat_cols)),
        (zeros_path, imagery.save_pbm(bundle.zeros, cover.flat_cols)),
        # The mode tag rides in the public file so extraction needs no flag.
        (args.pub, keymat.format_public_key(coupling, bundle.mode).encode("utf-8")),
    )
    return EXIT_OK


def _cmd_extract(args) -> int:
    stego = imagery.load_pnm(_read_bytes(args.stego))
    ones, ones_cols = imagery.load_pbm(_read_bytes(args.ones))
    zeros, zeros_cols = imagery.load_pbm(_read_bytes(args.zeros))
    keys = keymat.parse_secret_keys(_read_text(args.secret))
    coupling, mode = keymat.parse_public_key(_read_text(args.pub))
    if mode is None:
        raise ParseError(f"{args.pub}: no mode tag (embed writes one)")
    codec.check_marks(stego, ones, ones_cols)
    codec.check_marks(stego, zeros, zeros_cols)
    bundle = codec.StegoBundle(stego, ones, zeros, coupling, mode)
    message = codec.decode_message(codec.extract(bundle, keys))
    if mode != "raw":
        try:
            message = message.encode("utf-8")
        except UnicodeEncodeError as exc:  # a utf16 payload may hold lone surrogates
            raise ExtractError(f"recovered message cannot be written as UTF-8: {exc.reason}") from exc
    _write_files((args.out, message), secret=args.out)
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
    alice = keymat.parse_secret_keys(_read_text(args.alice))
    bob = keymat.parse_secret_keys(_read_text(args.bob)) if args.bob is not None else alice
    coupling, _ = keymat.parse_public_key(_read_text(args.pub))
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


def _parse_direct(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would build for ``tokens`` when they are exact
    flags of subcommand ``name``, each non-boolean one followed by a value
    that does not start with ``-`` and passes the flag's type and choices,
    with every required flag present.  Anything else (help, abbreviations,
    ``--flag=value``, dash-leading values, unknown, missing or bad
    arguments) returns None and is left to argparse.  The table uses only
    keywords read here as argparse reads them: ``required``, ``type``,
    ``choices``, a non-string ``default``, ``help`` and
    ``action="store_true"``."""
    _, handler, arguments = _COMMANDS[name]
    values = {"command": name, "handler": handler}
    flags = {}
    for flag, kwargs in arguments:
        store_true = kwargs.get("action") == "store_true"
        dest = flag.lstrip("-").replace("-", "_")
        values[dest] = kwargs.get("default", False if store_true else None)
        flags[flag] = dest, kwargs, store_true
    seen = set()
    rest = iter(tokens)
    for token in rest:
        if token not in flags:
            return None
        dest, kwargs, store_true = flags[token]
        seen.add(token)
        if store_true:
            values[dest] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if kwargs.get("choices") is not None and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if any(kwargs.get("required") and flag not in seen for flag, kwargs in arguments):
        return None
    return argparse.Namespace(**values)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chaostego", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parse_direct(name, argv[1:]) if name else None
    if args is None:  # help, usage errors and argv the walk leaves to argparse
        try:
            args = _build_parser().parse_args(argv)
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
    except MemoryError as exc:  # before any output is written
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CAPACITY
    except ChaostegoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
