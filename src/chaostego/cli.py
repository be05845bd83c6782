"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 validation or parse error,
3 capacity or extraction error.  Diagnostics go to stderr; machine
output goes to files or stdout only.  Secret key values are never
printed anywhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, chaos, codec, imagery, keymat
from .errors import CapacityError, ChaostegoError, DomainError, ExtractError, ParseError

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


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_secret(path: str) -> keymat.SecretKeySet:
    keys = keymat.parse_secret_keys(_read_text(path))
    bad = keymat.validate_keys(keys)
    if bad:
        raise DomainError(f"{path}: " + "; ".join(bad))
    return keys


def _load_public(path: str) -> tuple[keymat.PublicCoupling, str | None]:
    coupling, mode = keymat.parse_public_key(_read_text(path))
    bad = keymat.validate_coupling(coupling)
    if bad:
        raise DomainError(f"{path}: " + "; ".join(bad))
    return coupling, mode


def _stego_paths(out_base: str, channels: int) -> tuple[Path, Path, Path]:
    ext = ".pgm" if channels == 1 else ".ppm"
    base = Path(out_base)
    return (
        base.with_name(base.name + ext),
        base.with_name(base.name + ".ones.pbm"),
        base.with_name(base.name + ".zeros.pbm"),
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_keygen(args) -> int:
    keys, coupling = keymat.generate_keys(args.seed)
    Path(args.out).write_text(keymat.format_secret_keys(keys), encoding="utf-8")
    Path(args.pub).write_text(keymat.format_public_key(coupling), encoding="utf-8")
    return EXIT_OK


def _cmd_validate(args) -> int:
    violations = keymat.validate_keys(keymat.parse_secret_keys(_read_text(args.secret)))
    if args.pub:
        coupling, _ = keymat.parse_public_key(_read_text(args.pub))
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
    stego_path.write_bytes(imagery.save_pnm(bundle.stego))
    ones_path.write_bytes(imagery.save_pbm(bundle.side.ones))
    zeros_path.write_bytes(imagery.save_pbm(bundle.side.zeros))
    # The mode tag rides in the public file so extraction needs no flag.
    Path(args.pub).write_text(
        keymat.format_public_key(coupling, bundle.mode), encoding="utf-8"
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
    bundle = codec.StegoBundle(stego, codec.SideMatrices(ones, zeros), coupling, mode)
    message = codec.decode_message(codec.extract(bundle, keys))
    if mode == "raw":
        Path(args.out).write_bytes(message)
    else:
        Path(args.out).write_bytes(message.encode("utf-8"))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cover = imagery.load_pnm(_read_bytes(args.cover))
    stego = imagery.load_pnm(_read_bytes(args.stego))
    quality = analysis.psnr(cover, stego, payload_bits=args.payload_bits)
    blocks = [analysis.format_quality_report(quality)]
    for label, image in (("cover_", cover), ("stego_", stego)):
        diff = analysis.neighbor_diff_entropy(image) if args.diff_entropy else None
        report = analysis.EntropyReport(analysis.histogram_entropy(image), diff)
        blocks.append(analysis.format_entropy_report(report, prefix=label))
    _write_output(args.out, "".join(blocks))
    return EXIT_OK


def _cmd_attack(args) -> int:
    image = imagery.load_pnm(_read_bytes(args.image))
    points = analysis.chi_square_attack(image, args.step)
    _write_output(args.out, analysis.format_attack_csv(points))
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

def _build_parser() -> _Parser:
    parser = _Parser(prog="chaostego", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("keygen", help="write fresh secret/public key files")
    p.add_argument("--out", required=True, help="secret key file to write")
    p.add_argument("--pub", required=True, help="public key file to write")
    p.add_argument("--seed", required=True, type=int, help="RNG seed")
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("validate", help="check key files against their invariants")
    p.add_argument("--secret", required=True)
    p.add_argument("--pub")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("embed", help="hide a message file in a cover image")
    p.add_argument("--cover", required=True, help="cover image (PGM/PPM)")
    p.add_argument("--msg", required=True, help="message file")
    p.add_argument("--secret", required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--mode", required=True, choices=keymat.MODES)
    p.add_argument("--out", required=True, help="output basename for stego files")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("extract", help="recover the message from a stego bundle")
    p.add_argument("--stego", required=True)
    p.add_argument("--ones", required=True)
    p.add_argument("--zeros", required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("analyze", help="PSNR, flips and entropies of a cover/stego pair")
    p.add_argument("--cover", required=True)
    p.add_argument("--stego", required=True)
    p.add_argument("--payload-bits", type=int, default=None,
                   help="embedded bit count, to report capacity in bpp")
    p.add_argument("--diff-entropy", action="store_true",
                   help="also report neighbor-difference entropy")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("attack", help="chi-square pair-of-values scan as CSV")
    p.add_argument("--image", required=True)
    p.add_argument("--step", type=int, default=10, help="scan step in percent")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("exchange-sim", help="simulate the two-party key exchange")
    p.add_argument("--alice", required=True, help="Alice's secret key file")
    p.add_argument("--bob", help="Bob's secret key file (defaults to Alice's)")
    p.add_argument("--pub", required=True)
    p.add_argument("--rows", type=int, default=128)
    p.add_argument("--cols", type=int, default=128)
    p.add_argument("--prefix", type=int, default=500,
                   help="positions compared for agreement")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_exchange_sim)

    p = sub.add_parser("bifurcation", help="attractor samples over a parameter grid as CSV")
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--transient", type=int, default=500)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bifurcation)

    return parser


def run(argv: list[str] | None = None) -> int:
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
