"""Command-line behavior: exit codes, file outputs, determinism."""

import argparse
import errno
import io
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path, PurePosixPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaostego
from chaostego import _native, cli
from chaostego.cli import run
from chaostego.codec import embed, encode_message
from chaostego.errors import ParseError
from chaostego.imagery import load_pnm, save_pbm, save_pnm
from chaostego.keymat import (
    MODES,
    SecretKeySet,
    format_public_key,
    format_secret_keys,
    generate_keys,
    parse_public_key,
    parse_secret_keys,
)
from conftest import exchange_supported, random_image


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(55)
    cover = random_image(rng, 64, 64)
    (tmp_path / "cover.pgm").write_bytes(save_pnm(cover))
    rgb = random_image(rng, 32, 48, channels=3)
    (tmp_path / "cover.ppm").write_bytes(save_pnm(rgb))
    (tmp_path / "msg.txt").write_bytes(b"The quick brown fox.\n")
    return tmp_path


def keygen(tmp_path, seed=11):
    rc = run(["keygen", "--out", str(tmp_path / "secret.key"),
              "--pub", str(tmp_path / "public.key"), "--seed", str(seed)])
    assert rc == 0


class TestKeygen:
    def test_writes_both_files(self, tmp_path):
        keygen(tmp_path)
        secret = (tmp_path / "secret.key").read_text()
        public = (tmp_path / "public.key").read_text()
        assert secret.endswith("\n") and public.endswith("\n")
        parse_secret_keys(secret)  # parses cleanly

    def test_same_seed_reproduces_files(self, tmp_path):
        keygen(tmp_path, seed=42)
        first = ((tmp_path / "secret.key").read_bytes(), (tmp_path / "public.key").read_bytes())
        keygen(tmp_path, seed=42)
        second = ((tmp_path / "secret.key").read_bytes(), (tmp_path / "public.key").read_bytes())
        assert first == second

    def test_validate_accepts_generated_keys(self, tmp_path):
        keygen(tmp_path)
        rc = run(["validate", "--secret", str(tmp_path / "secret.key"),
                  "--pub", str(tmp_path / "public.key")])
        assert rc == 0

    def test_validate_rejects_tampered_file(self, tmp_path, capsys):
        keygen(tmp_path)
        path = tmp_path / "secret.key"
        text = path.read_text().replace("alpha1=0x", "alpha1=-0x")
        path.write_text(text)
        assert run(["validate", "--secret", str(path)]) == 2
        err = capsys.readouterr().err
        assert "alpha1" in err


class TestEmbedExtract:
    def embed_argv(self, workdir, cover="cover.pgm", mode="ascii7", out="stego"):
        return [
            "embed", "--cover", str(workdir / cover), "--msg", str(workdir / "msg.txt"),
            "--secret", str(workdir / "secret.key"), "--pub", str(workdir / "public.key"),
            "--mode", mode, "--out", str(workdir / out),
        ]

    def extract_argv(self, workdir, stego="stego.pgm", out="recovered.txt"):
        return [
            "extract", "--stego", str(workdir / stego),
            "--ones", str(workdir / "stego.ones.pbm"),
            "--zeros", str(workdir / "stego.zeros.pbm"),
            "--secret", str(workdir / "secret.key"), "--pub", str(workdir / "public.key"),
            "--out", str(workdir / out),
        ]

    def embed(self, workdir, **kwargs):
        return run(self.embed_argv(workdir, **kwargs))

    def extract(self, workdir, **kwargs):
        return run(self.extract_argv(workdir, **kwargs))

    def test_round_trip_byte_exact(self, workdir):
        keygen(workdir)
        assert self.embed(workdir) == 0
        for name in ("stego.pgm", "stego.ones.pbm", "stego.zeros.pbm"):
            assert (workdir / name).exists()
        assert "mode=ascii7" in (workdir / "public.key").read_text()
        assert self.extract(workdir) == 0
        assert (workdir / "recovered.txt").read_bytes() == (workdir / "msg.txt").read_bytes()

    def test_round_trip_rgb_cover(self, workdir):
        keygen(workdir)
        assert self.embed(workdir, cover="cover.ppm", out="stego") == 0
        assert (workdir / "stego.ppm").exists()
        assert self.extract(workdir, stego="stego.ppm") == 0
        assert (workdir / "recovered.txt").read_bytes() == (workdir / "msg.txt").read_bytes()

    def test_raw_mode_round_trip(self, workdir):
        keygen(workdir)
        (workdir / "msg.txt").write_bytes(bytes(range(256)))
        assert self.embed(workdir, mode="raw") == 0
        assert self.extract(workdir) == 0
        assert (workdir / "recovered.txt").read_bytes() == bytes(range(256))

    def test_embed_is_deterministic(self, workdir):
        keygen(workdir)
        assert self.embed(workdir, out="a") == 0
        assert self.embed(workdir, out="b") == 0
        assert (workdir / "a.pgm").read_bytes() == (workdir / "b.pgm").read_bytes()
        assert (workdir / "a.ones.pbm").read_bytes() == (workdir / "b.ones.pbm").read_bytes()
        assert (workdir / "a.zeros.pbm").read_bytes() == (workdir / "b.zeros.pbm").read_bytes()

    def test_oversized_message_exits_3(self, workdir, capsys):
        keygen(workdir)
        (workdir / "msg.txt").write_bytes(b"x" * 4096)  # 28k bits > 4096 samples
        assert self.embed(workdir) == 3
        assert "error:" in capsys.readouterr().err

    def test_oversized_message_names_the_grid(self, workdir, capsys):
        keygen(workdir)
        (workdir / "msg.txt").write_bytes(b"x" * 4096)
        assert self.embed(workdir) == 3
        assert capsys.readouterr().err == "error: requested 28704 unique positions from a grid of 4096 cells\n"
        assert not (workdir / "stego.pgm").exists()

    def test_corrupt_cover_exits_2(self, workdir):
        keygen(workdir)
        (workdir / "cover.pgm").write_bytes(b"P5\n8 8\n255\nshort")
        assert self.embed(workdir) == 2

    def test_extract_without_mode_tag_exits_2(self, workdir, capsys):
        keygen(workdir)
        assert self.embed(workdir) == 0
        # strip the mode line embed appended to the public file
        pub = workdir / "public.key"
        pub.write_text(pub.read_text().splitlines()[0] + "\n")
        assert self.extract(workdir) == 2
        assert "mode" in capsys.readouterr().err

    def test_alpha_with_overflowing_square_exits_2(self, workdir):
        # alpha1**2 overflows to inf and the orbit would turn to NaN. Run in
        # a child process so that a crash fails this test, not the suite.
        keygen(workdir)
        assert self.embed(workdir) == 0
        secret = workdir / "secret.key"
        lines = secret.read_text().splitlines()
        secret.write_text("\n".join(["alpha1=0x1p+520", *lines[1:]]) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(chaostego.__file__).parents[1]))
        for argv in (self.embed_argv(workdir), self.extract_argv(workdir)):
            child = subprocess.run(
                [sys.executable, "-c", "import sys; from chaostego.cli import run; sys.exit(run(sys.argv[1:]))",
                 *argv], env=env, capture_output=True, text=True, timeout=60)
            assert child.returncode == 2, child.stderr
            assert "alpha1: must not exceed 2**511" in child.stderr

    def test_extract_lone_surrogate_exits_3(self, workdir, capsys):
        # utf16 mode carries lone surrogates by design; they have no UTF-8 form.
        keygen(workdir)
        keys = parse_secret_keys((workdir / "secret.key").read_text())
        coupling, _ = parse_public_key((workdir / "public.key").read_text())
        cover = load_pnm((workdir / "cover.pgm").read_bytes())
        bundle = embed(cover, encode_message("a\ud800b", "utf16"), keys, coupling)
        (workdir / "stego.pgm").write_bytes(save_pnm(bundle.stego))
        (workdir / "stego.ones.pbm").write_bytes(save_pbm(bundle.ones))
        (workdir / "stego.zeros.pbm").write_bytes(save_pbm(bundle.zeros))
        (workdir / "public.key").write_text(format_public_key(coupling, "utf16"))
        assert self.extract(workdir) == 3
        assert "error: recovered message cannot be written as UTF-8" in capsys.readouterr().err
        assert not (workdir / "recovered.txt").exists()

    def test_secrets_never_printed(self, workdir, capsys):
        keygen(workdir)
        self.embed(workdir)
        self.extract(workdir)
        run(["validate", "--secret", str(workdir / "secret.key")])
        captured = capsys.readouterr()
        keys = parse_secret_keys((workdir / "secret.key").read_text())
        for value in (keys.alpha1, keys.alpha2, keys.x0, keys.y0):
            for form in (float.hex(value), repr(value)):
                assert form not in captured.out
                assert form not in captured.err


class TestInvalidKeys:
    """Key and coupling invariants are checked before any output is written,
    and the message names the violated field."""

    FAULTS = {"alpha1": ("alpha1", "0x1p-2"), "seed": ("x0", "0x1p-1"), "R": ("R", "0x1.8p+0")}

    @staticmethod
    def replace_line(path, name, value):
        lines = [f"{name}={value}" if line.startswith(f"{name}=") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("command", ["embed", "extract", "exchange-sim-alice", "exchange-sim-bob"])
    def test_invalid_key_exits_2_and_writes_nothing(self, workdir, command, fault, capsys):
        keygen(workdir)
        assert TestEmbedExtract().embed(workdir) == 0
        field, value = self.FAULTS[fault]
        secret, bob = workdir / "secret.key", workdir / "bob.key"
        bob.write_bytes(secret.read_bytes())
        if field == "R":
            self.replace_line(workdir / "public.key", field, value)
        else:
            self.replace_line(bob if command == "exchange-sim-bob" else secret, field, value)
        argv = {
            "embed": TestEmbedExtract().embed_argv(workdir, out="again"),
            "extract": TestEmbedExtract().extract_argv(workdir),
            "exchange-sim-alice": ["exchange-sim", "--alice", str(secret)],
            "exchange-sim-bob": ["exchange-sim", "--alice", str(secret), "--bob", str(bob)],
        }[command]
        if command.startswith("exchange-sim"):
            argv += ["--pub", str(workdir / "public.key"), "--rows", "16", "--cols", "16",
                     "--prefix", "10", "--out", str(workdir / "transcript.txt")]
        before = snapshot(workdir)
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"{field}:" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert snapshot(workdir) == before


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert run(["keygen", "--bogus", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["embed", "--cover", "x.pgm"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "chaostego" in capsys.readouterr().out


def full_tree_subparser(name):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


class TestDispatch:
    """Well-formed argv builds no parser; help text, usage errors and exit
    codes are those of the full parser tree."""

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_subcommand_help_matches_full_tree(self, name, capsys):
        assert run([name, "--help"]) == 0
        assert capsys.readouterr().out == full_tree_subparser(name).format_help()

    @pytest.mark.parametrize("argv", [
        ["keygen", "--out", "s.key", "--pub", "p.key", "--seed", "1", "--bogus"],
        ["embed", "--cover", "x.pgm"],
        ["embed", "--cover", "c", "--msg", "m", "--secret", "s", "--pub", "p",
         "--mode", "latin1", "--out", "o"],
        ["attack", "--image", "i.pgm", "--step", "ten"],
    ], ids=["unknown-flag", "missing-required", "bad-mode", "bad-step"])
    def test_usage_error_matches_full_tree(self, argv, capsys):
        with pytest.raises(cli._UsageError) as info:
            cli._build_parser().parse_args(argv)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_known_subcommand_skips_full_tree(self, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("full parser tree built")
        monkeypatch.setattr(cli, "_build_parser", refuse)
        keygen(tmp_path)
        with pytest.raises(AssertionError):
            run(["frobnicate"])

    def test_valid_invocations_build_no_parser(self, workdir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse parser built")
        monkeypatch.setattr(cli, "_Parser", refuse)
        d = workdir
        keys = ["--secret", str(d / "secret.key"), "--pub", str(d / "public.key")]
        invocations = [
            ["keygen", "--out", str(d / "secret.key"), "--pub", str(d / "public.key"),
             "--seed", "11"],
            ["validate", *keys],
            TestEmbedExtract().embed_argv(d),
            TestEmbedExtract().extract_argv(d),
            ["analyze", "--cover", str(d / "cover.pgm"), "--stego", str(d / "stego.pgm"),
             "--payload-bits", "200", "--diff-entropy", "--out", str(d / "report.txt")],
            ["attack", "--image", str(d / "stego.pgm"), "--step", "25", "--out", str(d / "c.csv")],
            ["exchange-sim", "--alice", str(d / "secret.key"), "--pub", str(d / "public.key"),
             "--rows", "16", "--cols", "16", "--prefix", "10", "--out", str(d / "t.txt")],
            ["bifurcation", "--alpha-min", "0.8", "--alpha-max", "1.2", "--alpha-steps", "2",
             "--x0", "0.3", "--samples", "2", "--out", str(d / "b.csv")],
        ]
        assert sorted(argv[0] for argv in invocations) == sorted(cli._COMMANDS)
        for argv in invocations:
            assert run(argv) == 0, argv

    def test_module_entry_point_reads_sys_argv(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(chaostego.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-m", "chaostego.cli", "embed", "--help"],
                               env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0
        assert child.stderr == ""
        assert child.stdout == full_tree_subparser("embed").format_help()


# Values for drawn flags: good ones for each type of flag, and any value
# (good, dash-leading, bad int, bad float, bad choice or junk) for any flag.
GOOD_VALUES = {int: ["0", "7", " 12"], float: ["0.5", "1e3", "nan"], str: ["a.key", "", "x y"]}
ANY_VALUES = [*GOOD_VALUES[str], "3", "-", "--", "-3", "-h", "ten", "1.5", "x", "latin1", *MODES]


@st.composite
def subcommand_argv(draw):
    """A subcommand and tokens for it: every required flag with a good
    value, then a few edits (optional or repeated flags, bad or dash-leading
    values, ``--flag=value``, lone flags, abbreviations, junk, a dropped
    flag), all in any order."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][2]
    prefixes = sorted({flag[:k] for flag, _ in arguments for k in range(1, len(flag))})

    def good(flag, kwargs):
        if kwargs.get("action"):
            return [flag]
        return [flag, draw(st.sampled_from(
            list(kwargs.get("choices") or GOOD_VALUES[kwargs.get("type", str)])))]

    units = [good(flag, kwargs) for flag, kwargs in arguments if kwargs.get("required")]
    for _ in range(draw(st.integers(0, 3))):
        flag, kwargs = draw(st.sampled_from(arguments))
        edit = draw(st.sampled_from(["good", "any", "any", "inline", "lone", "drop", "other"]))
        if edit == "good":
            units.append(good(flag, kwargs))
        elif edit == "any":
            units.append([flag, draw(st.sampled_from(ANY_VALUES))])
        elif edit == "inline":
            units.append(["=".join(good(flag, kwargs))])
        elif edit == "lone":
            units.append([flag])
        elif edit == "drop" and units:
            units.pop(draw(st.integers(0, len(units) - 1)))
        else:
            units.append([draw(st.sampled_from(
                [*prefixes, "-h", "--help", "--bogus", "-x", "junk", ""]))])
    return [name] + [token for unit in draw(st.permutations(units)) for token in unit]


def argparse_reprs(argv):
    """The repr of each value argparse parses from ``argv`` (repr tells 1
    from 1.0 and True, and nan from nan), or None on help or a usage error."""
    with redirect_stdout(io.StringIO()):
        try:
            return {k: repr(v) for k, v in vars(cli._build_parser().parse_args(argv)).items()}
        except (cli._UsageError, SystemExit):
            return None


def direct_reprs(argv):
    args = cli._parse_direct(argv[0], argv[1:])
    return None if args is None else {k: repr(v) for k, v in vars(args).items()}


def echo_handler(args):
    print(sorted((k, repr(v)) for k, v in vars(args).items() if k != "handler"))
    return 0


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestDirectParse:
    """``cli._parse_direct`` either defers or returns what argparse would."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(subcommand_argv())
    def test_direct_walk_matches_argparse(self, argv):
        direct = direct_reprs(argv)
        if direct is not None:
            assert direct == argparse_reprs(argv)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_COMMANDS",
                       {n: (h, echo_handler, a) for n, (h, _, a) in cli._COMMANDS.items()})
            walked = run_captured(argv)
            mp.setattr(cli, "_parse_direct", lambda name, tokens: None)
            assert run_captured(argv) == walked

    @pytest.mark.parametrize("argv", [
        ["attack", "--image", "i.pgm"],
        ["attack", "--image", "i.pgm", "--image", "j.pgm", "--step", "5", "--step", " 7"],
        ["analyze", "--cover", "c", "--stego", "", "--diff-entropy", "--diff-entropy"],
        ["embed", "--mode", "raw", "--out", "o", "--pub", "p", "--secret", "s",
         "--msg", "m", "--cover", "c"],
        ["bifurcation", "--alpha-min", "nan", "--alpha-max", "1e3", "--alpha-steps", "2",
         "--x0", "0.5"],
    ])
    def test_exact_pairs_are_read_directly(self, argv):
        expected = argparse_reprs(argv)
        assert expected is not None and direct_reprs(argv) == expected

    @pytest.mark.parametrize("argv", [
        ["attack", "--help"], ["attack", "-h"], ["attack", "--image"],
        ["attack", "--im", "i.pgm"], ["attack", "--image=i.pgm"], ["attack", "--image", "-"],
        ["attack", "--image", "i.pgm", "--step", "-3"], ["attack", "--image", "i.pgm", "junk"],
        ["attack", "--image", "i.pgm", "--step", "ten"],
        ["attack", "--image", "i.pgm", "--step", "1.5"],
        ["attack", "--image", "i.pgm", "--bogus", "1"], ["attack", "--step", "5"],
        ["attack", "--image", "i", "--", "x"],
        ["analyze", "--cover", "c", "--stego", "s", "--diff-entropy", "yes"],
        ["embed", "--cover", "c", "--msg", "m", "--secret", "s", "--pub", "p",
         "--mode", "raw", "--mode", "latin1", "--out", "o"],
    ])
    def test_anything_else_is_left_to_argparse(self, argv):
        assert cli._parse_direct(argv[0], argv[1:]) is None

    def test_table_uses_only_forms_the_walk_reads(self):
        # The walk reads these keywords as argparse does; any other form
        # (nargs, another action, a string default, which argparse passes
        # through the type) would need reading there first.
        for name, (_, _, arguments) in cli._COMMANDS.items():
            for flag, kwargs in arguments:
                where = f"{name} {flag}"
                assert kwargs.keys() <= {"required", "type", "choices", "default", "help", "action"}, where
                assert "type" not in kwargs or kwargs["type"] in (int, float), where
                assert not isinstance(kwargs.get("default"), str), where
                assert kwargs.get("action") in (None, "store_true"), where


def snapshot(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestOutputWrites:
    """A command's outputs appear all together or not at all."""

    @pytest.fixture
    def bundle(self, workdir):
        keygen(workdir)
        assert TestEmbedExtract().embed(workdir) == 0
        return workdir

    def failing_argv(self, d, command, bad):
        keys = ["--secret", str(d / "secret.key"), "--pub", str(d / "public.key")]
        return {
            "keygen-out": ["keygen", "--out", bad, "--pub", str(d / "new.pub"), "--seed", "3"],
            "keygen-pub": ["keygen", "--out", str(d / "new.key"), "--pub", bad, "--seed", "3"],
            "embed": TestEmbedExtract().embed_argv(d)[:-1] + [bad],
            "extract": TestEmbedExtract().extract_argv(d)[:-1] + [bad],
            "analyze": ["analyze", "--cover", str(d / "cover.pgm"),
                        "--stego", str(d / "stego.pgm"), "--out", bad],
            "attack": ["attack", "--image", str(d / "cover.pgm"), "--out", bad],
            "exchange-sim": ["exchange-sim", "--alice", str(d / "secret.key"),
                             "--pub", str(d / "public.key"), "--rows", "16", "--cols", "16",
                             "--prefix", "10", "--out", bad],
            "bifurcation": ["bifurcation", "--alpha-min", "0.8", "--alpha-max", "1.2",
                            "--alpha-steps", "2", "--x0", "0.3", "--samples", "2", "--out", bad],
        }[command]

    @pytest.mark.parametrize("command", [
        "keygen-out", "keygen-pub", "embed", "extract",
        "analyze", "attack", "exchange-sim", "bifurcation",
    ])
    @pytest.mark.parametrize("target", ["missing-dir", "is-dir"])
    def test_unwritable_output_exits_2_and_writes_nothing(self, bundle, command, target, rename_paths, capsys):
        if target == "missing-dir":
            bad = bundle / "missing" / "out"
        else:  # a directory in the way; embed meets it at its third file
            bad = bundle / "blocked"
            for name in ("blocked", "blocked.zeros.pbm"):
                (bundle / name).mkdir()
        before = snapshot(bundle)
        for _ in rename_paths:
            capsys.readouterr()
            assert run(self.failing_argv(bundle, command, str(bad))) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write ") and "Traceback" not in err
            assert snapshot(bundle) == before

    @pytest.mark.parametrize("case", ["keygen", "keygen-symlink", "embed"])
    def test_outputs_naming_one_file_exit_2_and_write_nothing(self, bundle, case, rename_paths, capsys):
        if case == "keygen":
            argv = ["keygen", "--out", str(bundle / "k"), "--pub", str(bundle / "k"), "--seed", "3"]
        elif case == "keygen-symlink":
            (bundle / "link").symlink_to(bundle / "secret.key")
            argv = ["keygen", "--out", str(bundle / "secret.key"), "--pub", str(bundle / "link"),
                    "--seed", "3"]
        else:  # the public key file is also the stego image embed would write
            (bundle / "p.pgm").write_bytes((bundle / "public.key").read_bytes())
            argv = TestEmbedExtract().embed_argv(bundle, out="p")
            argv[argv.index("--pub") + 1] = str(bundle / "p.pgm")
        before = snapshot(bundle)
        for _ in rename_paths:
            capsys.readouterr()
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write ") and "Traceback" not in err
            assert snapshot(bundle) == before

    def test_embed_whose_last_write_fails_keeps_pub(self, bundle, rename_paths, monkeypatch, capsys):
        pub = bundle / "public.key"
        pub.write_text(pub.read_text().splitlines()[0] + "\n")  # no mode tag yet
        before = snapshot(bundle)
        opened = []

        def open_fourth_fails(path, mode):
            if "r" in mode:  # only the writes are counted
                return open(path, mode)
            opened.append(path)
            if len(opened) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return open(path, mode)

        monkeypatch.setattr(cli, "open", open_fourth_fails, raising=False)
        for _ in rename_paths:
            opened.clear()
            assert run(TestEmbedExtract().embed_argv(bundle, out="again")) == 2
            assert capsys.readouterr().err == f"error: cannot write {pub}: No space left on device\n"
            assert snapshot(bundle) == before

    @pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt()])
    def test_embed_whose_third_rename_fails_writes_nothing(self, bundle, fault, rename_paths, monkeypatch, capsys):
        # The first two outputs are already in place when the third fails.
        before = snapshot(bundle)
        renamed = []
        replace = os.replace

        def third_fails(src, dst):
            renamed.append(dst)
            if len(renamed) == 3:
                raise fault
            replace(src, dst)

        monkeypatch.setattr(os, "replace", third_fails)
        for _ in rename_paths:
            renamed.clear()
            argv = TestEmbedExtract().embed_argv(bundle, out="again")
            if isinstance(fault, KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    run(argv)
            else:
                assert run(argv) == 2
                assert capsys.readouterr().err == f"error: cannot write {renamed[2]}: No space left on device\n"
            assert len(renamed) == 3
            assert snapshot(bundle) == before

    @pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt()])
    def test_keygen_whose_second_swap_fails_swaps_the_first_back(self, tmp_path, fault, monkeypatch):
        if not exchange_supported(tmp_path):
            pytest.skip("names cannot be swapped here")
        keygen(tmp_path, seed=11)
        before = snapshot(tmp_path)
        swaps = []
        exchange = _native.exchange

        def second_fails(a, b):
            swaps.append(b)
            if len(swaps) == 2:
                raise fault
            return exchange(a, b)

        monkeypatch.setattr(_native, "exchange", second_fails)
        argv = ["keygen", "--out", str(tmp_path / "secret.key"), "--pub", str(tmp_path / "public.key"),
                "--seed", "12"]
        if isinstance(fault, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run(argv)
        else:
            assert run(argv) == 2
        assert len(swaps) == 3  # the second failed, then the first was swapped back
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("swap_back", [False, OSError(errno.EIO, os.strerror(errno.EIO))],
                             ids=("refused", "raises"))
    def test_swap_that_cannot_go_back_keeps_the_old_file(self, tmp_path, swap_back, monkeypatch, capsys):
        # The second swap fails, then swapping the first back fails too:
        # secret.key keeps the new key and its temp file, kept, the old one.
        if not exchange_supported(tmp_path):
            pytest.skip("names cannot be swapped here")
        keygen(tmp_path, seed=11)
        secret, pub = tmp_path / "secret.key", tmp_path / "public.key"
        old_secret, old_pub = secret.read_bytes(), pub.read_bytes()
        exchange = _native.exchange
        swaps = []

        def only_the_first_swaps(a, b):
            swaps.append(b)
            if len(swaps) == 1:
                return exchange(a, b)
            if len(swaps) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            if isinstance(swap_back, OSError):
                raise swap_back
            return swap_back

        monkeypatch.setattr(_native, "exchange", only_the_first_swaps)
        capsys.readouterr()
        assert run(["keygen", "--out", str(secret), "--pub", str(pub), "--seed", "12"]) == 2
        assert capsys.readouterr().err == f"error: cannot write {pub}: No space left on device\n"
        assert swaps == [str(secret), str(pub), str(secret)]
        assert secret.read_bytes() == format_secret_keys(generate_keys(12)[0]).encode()
        assert pub.read_bytes() == old_pub
        kept = tmp_path / f".secret.key.{os.getpid()}-0.tmp"
        assert kept.read_bytes() == old_secret
        assert sorted(p.name for p in tmp_path.iterdir()) == [kept.name, "public.key", "secret.key"]

    def test_directory_made_during_the_write_is_swapped_back(self, tmp_path, monkeypatch, capsys):
        # A directory made after the target's lstat must fail the write, as
        # os.replace onto it would, and stay where it was made.
        if not exchange_supported(tmp_path):
            pytest.skip("names cannot be swapped here")
        keygen(tmp_path, seed=11)
        secret, pub = tmp_path / "secret.key", tmp_path / "public.key"
        old_pub = pub.read_bytes()
        exchange = _native.exchange
        swaps = []

        def mkdir_first(a, b):
            swaps.append(b)
            if len(swaps) == 1:
                secret.unlink()
                secret.mkdir()
            return exchange(a, b)

        monkeypatch.setattr(_native, "exchange", mkdir_first)
        capsys.readouterr()
        assert run(["keygen", "--out", str(secret), "--pub", str(pub), "--seed", "12"]) == 2
        assert capsys.readouterr().err == f"error: cannot write {secret}: Is a directory\n"
        assert swaps == [str(secret)] * 2  # swapped in, then back
        assert secret.is_dir() and pub.read_bytes() == old_pub
        assert sorted(p.name for p in tmp_path.iterdir()) == ["public.key", "secret.key"]

    def test_success_leaves_no_temp_file(self, bundle, rename_paths):
        for _ in rename_paths:
            keygen(bundle, seed=12)  # over the bundle's outputs
            assert TestEmbedExtract().embed(bundle) == 0
            names = sorted(p.name for p in bundle.iterdir())
            assert not [n for n in names if n.endswith(".tmp")]
            assert {"stego.pgm", "stego.ones.pbm", "stego.zeros.pbm"} <= set(names)

    def test_stale_temp_file_is_neither_used_nor_removed(self, tmp_path, rename_paths):
        # A temp file by the name this write tries first, as a swap that
        # could not be undone, or a killed process whose pid came back, leaves.
        expected = tmp_path / "expected"
        expected.mkdir()
        keygen(expected, seed=12)
        stale = tmp_path / f".secret.key.{os.getpid()}-0.tmp"
        for _ in rename_paths:
            stale.write_bytes(b"stale")
            keygen(tmp_path, seed=12)
            for name in ("secret.key", "public.key"):
                assert (tmp_path / name).read_bytes() == (expected / name).read_bytes()
            assert stale.read_bytes() == b"stale"
            assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == [stale.name]

    def test_interrupted_write_leaves_no_temp_file(self, bundle, rename_paths, monkeypatch):
        before = snapshot(bundle)
        opened = []

        def open_second_interrupts(path, mode):
            if "r" in mode:  # only the writes are counted
                return open(path, mode)
            opened.append(path)
            if len(opened) == 2:
                raise KeyboardInterrupt
            return open(path, mode)

        monkeypatch.setattr(cli, "open", open_second_interrupts, raising=False)
        for _ in rename_paths:
            opened.clear()
            with pytest.raises(KeyboardInterrupt):
                run(TestEmbedExtract().embed_argv(bundle, out="again"))
            assert snapshot(bundle) == before

    def test_existing_output_keeps_its_mode(self, tmp_path, rename_paths):
        for _ in rename_paths:
            keygen(tmp_path, seed=11)
            secret = tmp_path / "secret.key"
            secret.chmod(0o600)
            old = secret.read_bytes()
            keygen(tmp_path, seed=12)
            assert secret.read_bytes() != old
            assert stat.S_IMODE(secret.stat().st_mode) == 0o600

    def test_hard_link_to_a_replaced_output_keeps_the_old_bytes(self, tmp_path, rename_paths):
        secret, alias = tmp_path / "secret.key", tmp_path / "alias.key"
        for _ in rename_paths:
            keygen(tmp_path, seed=11)
            old = secret.read_bytes()
            alias.unlink(missing_ok=True)
            os.link(secret, alias)
            keygen(tmp_path, seed=12)
            assert alias.read_bytes() == old and secret.read_bytes() != old
            assert os.stat(alias).st_nlink == 1 and os.stat(secret).st_nlink == 1

    def test_existing_outputs_are_swapped_not_renamed_over(self, tmp_path, monkeypatch):
        if not exchange_supported(tmp_path):
            pytest.skip("names cannot be swapped here")
        (tmp_path / "new").mkdir()
        keygen(tmp_path / "new", seed=12)
        expected = snapshot(tmp_path / "new")
        keygen(tmp_path, seed=11)
        replace = os.replace

        def fresh_names_only(src, dst):
            if os.path.lexists(dst):
                raise OSError(errno.EEXIST, "renamed over an existing file")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fresh_names_only)
        keygen(tmp_path, seed=12)
        assert {p.name: data for p, data in snapshot(tmp_path).items() if p.parent == tmp_path} == {
            p.name: data for p, data in expected.items()}

    def test_symlinked_output_is_written_through(self, tmp_path, rename_paths):
        real = tmp_path / "keys" / "public.key"
        real.parent.mkdir()
        link = tmp_path / "public.link"
        link.symlink_to(real)
        for _ in rename_paths:
            real.write_text("old\n")
            assert run(["keygen", "--out", str(tmp_path / "secret.key"),
                        "--pub", str(link), "--seed", "3"]) == 0
            assert link.is_symlink()
            parse_public_key(real.read_text())
            assert sorted(p.name for p in real.parent.iterdir()) == ["public.key"]

    def test_fifo_output_is_written_through(self, bundle, rename_paths):
        fifo = bundle / "recovered.fifo"
        os.mkfifo(fifo)
        for _ in rename_paths:
            received = []
            reader = threading.Thread(
                target=lambda: received.append(fifo.read_bytes()), daemon=True)
            reader.start()
            try:
                assert run(TestEmbedExtract().extract_argv(bundle, out=fifo.name)) == 0
                reader.join(timeout=10)
                assert received == [(bundle / "msg.txt").read_bytes()]
                assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
                assert not [p for p in bundle.iterdir() if p.name.endswith(".tmp")]
            finally:
                if reader.is_alive():  # unblock a reader whose writer never came
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestOutputModes:
    """Secret outputs are owner-only from creation: a temp file is created
    0600 and takes an existing target's mode before its first byte, and a
    new public output gets 0666 less the umask."""

    def first_write_modes(self, monkeypatch):
        """Makes every file ``cli`` writes record its mode at its first write."""
        modes = []
        real_open = open

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                modes.append(stat.S_IMODE(os.fstat(self.fh.fileno()).st_mode))
                return self.fh.write(data)

        monkeypatch.setattr(cli, "open", lambda file, mode: Recording(real_open(file, mode)) if "w" in mode
                            else real_open(file, mode), raising=False)
        return modes

    def test_new_secret_key_is_owner_only_and_public_key_is_not(self, tmp_path, umask_022):
        keygen(tmp_path)
        assert mode_of(tmp_path / "secret.key") == 0o600
        assert mode_of(tmp_path / "public.key") == 0o644

    def test_secret_temp_files_are_owner_only_before_the_first_byte(self, workdir, umask_022, monkeypatch,
                                                                     rename_paths):
        for _ in rename_paths:
            for name in ("secret.key", "public.key", "recovered.txt"):
                (workdir / name).unlink(missing_ok=True)
            modes = self.first_write_modes(monkeypatch)
            keygen(workdir)  # new files
            keygen(workdir, seed=12)  # replaced files, 0600 and 0644
            assert TestEmbedExtract().embed(workdir) == 0
            assert TestEmbedExtract().extract(workdir) == 0
            # keygen writes the secret key, then the public key; embed its four
            # outputs, new or public; extract the recovered message.
            assert modes == [0o600, 0o644, 0o600, 0o644, 0o644, 0o644, 0o644, 0o644, 0o600]
            assert mode_of(workdir / "recovered.txt") == 0o600

    def test_replaced_owner_only_files_stay_owner_only(self, tmp_path, umask_022, rename_paths):
        for _ in rename_paths:
            keygen(tmp_path)
            (tmp_path / "public.key").chmod(0o600)
            (tmp_path / "secret.key").chmod(0o640)  # the exact mode, not 0600
            keygen(tmp_path, seed=12)
            assert mode_of(tmp_path / "public.key") == 0o600
            assert mode_of(tmp_path / "secret.key") == 0o640


class TestOddPaths:
    """Path arguments are split as pathlib splits them: empty and ``.``
    components are dropped and ``..`` is kept."""

    @pytest.mark.parametrize("command, out, result", [
        ("embed", "st/", "st"),
        ("embed", "st/.", "st"),
        ("embed", "./st", "st"),
        ("embed", "x/./st", "x/st"),
        ("embed", "x/../st", "x/../st"),
        ("embed", "a//st", "error: cannot write a/st.pgm: No such file or directory\n"),
        ("keygen-out", "r/", "error: cannot write r/: Not a directory\n"),
    ])
    def test_out_base(self, workdir, command, out, result, monkeypatch, capsys):
        # ``result`` is the base embed writes its three files to, or the error.
        keygen(workdir)
        assert TestEmbedExtract().embed(workdir) == 0
        (workdir / "x").mkdir()
        monkeypatch.chdir(workdir)
        before = snapshot(workdir)
        capsys.readouterr()
        code = run(TestOutputWrites().failing_argv(workdir, command, out))
        if result.startswith("error: "):
            assert (code, capsys.readouterr().err) == (2, result)
            assert snapshot(workdir) == before
        else:
            assert code == 0
            assert {p for p in snapshot(workdir) if p not in before} == {
                Path(os.path.normpath(workdir / f"{result}{suffix}"))
                for suffix in (".pgm", ".ones.pbm", ".zeros.pbm")}

    @pytest.mark.parametrize("path", ["secret.key/", "secret.key/.", ".//secret.key", "x/../secret.key"])
    def test_input_path(self, workdir, path, monkeypatch, capsys):
        keygen(workdir)
        (workdir / "x").mkdir()
        monkeypatch.chdir(workdir)
        assert run(["validate", "--secret", path]) == 0
        assert capsys.readouterr().err == ""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b.", ".", "..", "/"]), max_size=10).map("".join))
    def test_split_is_pathlib_split(self, path):
        pure = PurePosixPath(path)
        root, names = cli._parts(path)
        assert (root + "/".join(names) or ".") == str(pure)
        if pure.name in ("", ".."):
            with pytest.raises(ParseError, match="no file name"):
                cli._named(path)
        else:
            parent, name = cli._named(path)
            assert name == pure.name
            assert os.path.join(parent, ".t") == str(pure.with_name(".t"))


class TestExchange:
    """``_native.exchange`` swaps two names, or says it cannot."""

    def test_swaps_two_files(self, tmp_path):
        if not exchange_supported(tmp_path):
            pytest.skip("names cannot be swapped here")
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"old")
        b.write_bytes(b"new")
        assert _native.exchange(a, b) is True
        assert (a.read_bytes(), b.read_bytes()) == (b"new", b"old")
        with pytest.raises(FileNotFoundError):
            _native.exchange(a, tmp_path / "missing")

    @pytest.mark.parametrize("code", [errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP, errno.EACCES, errno.ENOENT])
    def test_false_only_where_the_system_cannot_swap(self, tmp_path, code, monkeypatch):
        def fails(*args):
            _native.ctypes.set_errno(code)
            return -1

        monkeypatch.setattr(_native, "_renameat2", lambda: fails)
        if code in (errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP):
            assert _native.exchange(tmp_path / "a", tmp_path / "b") is False
        else:
            with pytest.raises(OSError) as raised:
                _native.exchange(tmp_path / "a", tmp_path / "b")
            assert raised.value.errno == code

    def test_false_without_renameat2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_native, "_renameat2", _native._renameat2.__wrapped__)
        monkeypatch.setattr(_native.ctypes, "CDLL", lambda name, use_errno: argparse.Namespace())
        assert _native.exchange(tmp_path / "a", tmp_path / "b") is False


class TestAnalysisCommands:
    def test_analyze_block(self, workdir, capsys):
        keygen(workdir)
        TestEmbedExtract().embed(workdir)
        rc = run(["analyze", "--cover", str(workdir / "cover.pgm"),
                  "--stego", str(workdir / "stego.pgm"), "--diff-entropy",
                  "--payload-bits", "179"])
        assert rc == 0
        out = capsys.readouterr().out
        pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert {"psnr_db", "mse", "flips", "hiding_capacity_bpp",
                "cover_histogram_entropy_bits", "stego_histogram_entropy_bits",
                "cover_diff_entropy_bits", "stego_diff_entropy_bits"} <= set(pairs)
        assert float(pairs["psnr_db"]) > 40.0

    def test_single_valued_histograms_print_positive_zero(self, tmp_path, capsys):
        # A 2x1 image of samples 7, 8 has one neighbor difference; a 1x1
        # image has one sample value.  Both entropies are +0.0, not -0.0.
        (tmp_path / "two.pgm").write_bytes(b"P5\n2 1\n255\n\x07\x08")
        (tmp_path / "one.pgm").write_bytes(b"P5\n1 1\n255\n\x07")
        two = str(tmp_path / "two.pgm")
        assert run(["analyze", "--cover", two, "--stego", two, "--diff-entropy"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "cover_diff_entropy_bits=0.0" in lines and "stego_diff_entropy_bits=0.0" in lines
        one = str(tmp_path / "one.pgm")
        assert run(["analyze", "--cover", one, "--stego", one]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "cover_histogram_entropy_bits=0.0" in lines and "stego_histogram_entropy_bits=0.0" in lines

    @pytest.mark.parametrize("bits,code", [("-1", 2), (str(64 * 64 + 1), 3)])
    def test_analyze_payload_bits_out_of_range(self, workdir, bits, code, capsys):
        keygen(workdir)
        TestEmbedExtract().embed(workdir)
        before = sorted(p.name for p in workdir.iterdir())
        rc = run(["analyze", "--cover", str(workdir / "cover.pgm"),
                  "--stego", str(workdir / "stego.pgm"), "--payload-bits", bits,
                  "--out", str(workdir / "quality.txt")])
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_analyze_mismatched_pair_names_both_images(self, tmp_path, capsys):
        (tmp_path / "wide.pgm").write_bytes(b"P5\n4 1\n255\n" + bytes(4))
        (tmp_path / "tall.pgm").write_bytes(b"P5\n4 3\n255\n" + bytes(12))
        assert run(["analyze", "--cover", str(tmp_path / "wide.pgm"), "--stego", str(tmp_path / "tall.pgm")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: RasterImage(1x4 grayscale) vs RasterImage(3x4 grayscale): dimensions must match\n"
        )

    def test_attack_csv(self, workdir, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = run(["attack", "--image", str(workdir / "cover.pgm"),
                  "--step", "25", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "fraction,chi_square,dof,p_embedding"
        assert len(lines) == 5
        for line in lines[1:]:
            fraction, chi, dof, p = line.split(",")
            assert 0.0 < float(fraction) <= 1.0
            assert 0.0 <= float(p) <= 1.0

    def test_bifurcation_csv(self, capsys):
        rc = run(["bifurcation", "--alpha-min", "0.8", "--alpha-max", "1.2",
                  "--alpha-steps", "3", "--x0", "0.3",
                  "--transient", "50", "--samples", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,sample"
        assert len(lines) == 1 + 3 * 4
        for line in lines[1:]:
            alpha, sample = line.split(",")
            assert 0.0 <= float(sample) <= 1.0

    def test_bifurcation_bad_grid_exits_2(self, capsys):
        rc = run(["bifurcation", "--alpha-min", "1.5", "--alpha-max", "0.8",
                  "--alpha-steps", "3", "--x0", "0.3"])
        assert rc == 2

    @pytest.mark.parametrize("low, high, steps", [
        ("1e150", "6.703903964971299e+153", "14"),  # alpha_max is 2**511; 1e150 + 13 * step rounds above it
        ("0.6", "1.7", "2"),  # 0.6 + 1.1 rounds to 1.7000000000000002
    ])
    def test_bifurcation_grid_ends_at_alpha_max(self, low, high, steps, capsys):
        rc = run(["bifurcation", "--alpha-min", low, "--alpha-max", high, "--alpha-steps", steps,
                  "--x0", "0.3", "--samples", "1", "--transient", "0"])
        assert rc == 0
        alphas = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(alphas) == int(steps) and alphas[-1] == max(alphas) == float(high)


class TestExchangeSim:
    def test_agreement_with_shared_secret(self, workdir, capsys):
        keygen(workdir)
        rc = run(["exchange-sim", "--alice", str(workdir / "secret.key"),
                  "--pub", str(workdir / "public.key"),
                  "--rows", "64", "--cols", "64", "--prefix", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("agreement=true")
        assert "bob coupling-factor" in out
        assert "alice side-matrices" in out

    def test_disagreement_with_different_secrets(self, workdir, tmp_path, capsys):
        keygen(workdir, seed=1)
        other = tmp_path / "other"
        other.mkdir()
        keygen(other, seed=2)
        rc = run(["exchange-sim", "--alice", str(workdir / "secret.key"),
                  "--bob", str(other / "secret.key"),
                  "--pub", str(workdir / "public.key"),
                  "--rows", "64", "--cols", "64", "--prefix", "200"])
        assert rc == 0
        assert capsys.readouterr().out.strip().endswith("agreement=false")

    def test_grid_above_cell_limit_exits_2_before_allocating(self, workdir, capsys):
        keygen(workdir)
        tracemalloc.start()
        try:
            rc = run(["exchange-sim", "--alice", str(workdir / "secret.key"),
                      "--pub", str(workdir / "public.key"),
                      "--rows", "1000000", "--cols", "1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "cell limit" in capsys.readouterr().err
        assert peak < 1 << 20  # a seen-map would be 10**12 bytes


class TestHostileInput:
    """Input that Python's own conversions refuse, and memory exhaustion,
    end with a one-line error and the documented exit code; no output is
    written."""

    def run_clean(self, workdir, argv, code, capsys):
        before = snapshot(workdir)
        capsys.readouterr()
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
        assert snapshot(workdir) == before
        return captured.err

    def test_netpbm_digits_beyond_int_limit_exit_2(self, workdir, capsys):
        # int() refuses decimal strings over 4300 digits by default.
        (workdir / "big.pgm").write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00")
        argv = ["attack", "--image", str(workdir / "big.pgm"), "--out", str(workdir / "curve.csv")]
        assert "too many digits" in self.run_clean(workdir, argv, 2, capsys)

    def test_hostile_netpbm_header_parses_in_bounded_time(self, workdir, capsys):
        # Parse work stays linear at C speed in the header's size: a
        # 4*10**6-digit width is refused, and a 4*10**6-byte comment
        # skipped, each well within 0.5 s.  Tiny comments cost one regex
        # repeat each: 2*10**6 of them (4 MB) parse in about 0.3-0.5 s, so
        # they get a looser bound; the header length itself is not capped.
        wide = workdir / "wide.pgm"
        wide.write_bytes(b"P5\n" + b"9" * 4_000_000 + b" 1\n255\n\x00")
        chatty = workdir / "chatty.pgm"
        chatty.write_bytes(b"P5\n#" + b"c" * 4_000_000 + b"\n8 8\n255\n" + bytes(range(64)))
        terse = workdir / "terse.pgm"
        terse.write_bytes(b"P5\n" + b"#\n" * 2_000_000 + b"8 8\n255\n" + bytes(range(64)))
        for image, code, bound in ((wide, 2, 0.5), (chatty, 0, 0.5), (terse, 0, 2.0)):
            argv = ["attack", "--image", str(image), "--out", str(workdir / "curve.csv")]
            started = time.perf_counter()
            assert run(argv) == code
            assert time.perf_counter() - started < bound
        assert "too many digits" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        *[(command, "") for command in ("keygen-out", "keygen-pub", "embed", "extract",
                                        "analyze", "attack", "exchange-sim", "bifurcation")],
        ("embed", "."), ("embed", "/"), ("embed", "sub/.."),
    ])
    def test_nameless_output_path_exits_2(self, workdir, command, out, capsys):
        keygen(workdir)
        assert TestEmbedExtract().embed(workdir) == 0
        if out == "sub/..":  # without the check: <workdir>/sub/...pgm and its marks
            (workdir / "sub").mkdir()
            out = str(workdir / out)
        argv = TestOutputWrites().failing_argv(workdir, command, out)
        err = self.run_clean(workdir, argv, 2, capsys)
        assert err == f"error: cannot write {out!r}: no file name\n"

    def test_pbm_digits_beyond_int_limit_exit_2(self, workdir, capsys):
        keygen(workdir)
        assert TestEmbedExtract().embed(workdir) == 0
        (workdir / "stego.ones.pbm").write_bytes(b"P4\n" + b"9" * 5000 + b" 64\n\x00")
        argv = TestEmbedExtract().extract_argv(workdir)
        assert "too many digits" in self.run_clean(workdir, argv, 2, capsys)

    @pytest.mark.parametrize("field", ["alpha1", "R"])
    def test_hex_literal_beyond_binary64_exits_2(self, workdir, field, capsys):
        keygen(workdir)
        path = workdir / ("public.key" if field == "R" else "secret.key")
        TestInvalidKeys.replace_line(path, field, "0x1p99999")
        argv = ["validate", "--secret", str(workdir / "secret.key"),
                "--pub", str(workdir / "public.key")]
        assert f"{field} must be finite" in self.run_clean(workdir, argv, 2, capsys)

    @pytest.mark.parametrize("command", ["embed", "exchange-sim"])
    def test_out_of_memory_exits_3(self, workdir, command, monkeypatch, capsys):
        keygen(workdir)

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.24 GiB for an array")

        if command == "embed":
            monkeypatch.setattr(chaostego.codec, "iter_positions", exhausted)
            argv = TestEmbedExtract().embed_argv(workdir)
        else:
            monkeypatch.setattr(chaostego.keymat, "select_positions", exhausted)
            argv = ["exchange-sim", "--alice", str(workdir / "secret.key"),
                    "--pub", str(workdir / "public.key"), "--out", str(workdir / "t.txt")]
        err = self.run_clean(workdir, argv, 3, capsys)
        assert err.startswith("error: out of memory")


class TestReachableErrorPaths:
    """Error paths a user can reach that no other test takes: each ends
    with one ``error:`` line and its exit code, and writes no output."""

    run_clean = TestHostileInput.run_clean

    @pytest.mark.parametrize("cover, reason", [
        ("missing.pgm", "No such file or directory"),
        ("subdir", "Is a directory"),
    ])
    def test_unreadable_cover_exits_2(self, workdir, cover, reason, capsys):
        keygen(workdir)
        (workdir / "subdir").mkdir()
        path = workdir / cover
        argv = TestEmbedExtract().embed_argv(workdir, cover=cover)
        assert self.run_clean(workdir, argv, 2, capsys) == f"error: cannot read {path}: {reason}\n"

    @pytest.mark.parametrize("command", ["validate", "embed"])
    def test_non_utf8_text_exits_2(self, workdir, command, capsys):
        keygen(workdir)
        bad = workdir / ("secret.key" if command == "validate" else "msg.txt")
        bad.write_bytes(b"\xff\xfe")
        if command == "validate":
            argv = ["validate", "--secret", str(bad)]
        else:
            argv = TestEmbedExtract().embed_argv(workdir)
        assert self.run_clean(workdir, argv, 2, capsys) == f"error: {bad} is not valid UTF-8\n"

    def test_blank_key_file_line_is_skipped(self, workdir, capsys):
        keygen(workdir)
        path = workdir / "secret.key"
        path.write_text(path.read_text().replace("\n", "\n\n", 1))
        assert run(["validate", "--secret", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_key_line_without_equals_exits_2(self, workdir, capsys):
        keygen(workdir)
        path = workdir / "secret.key"
        path.write_text("alpha1 0x1p0\n" + path.read_text())
        err = self.run_clean(workdir, ["validate", "--secret", str(path)], 2, capsys)
        assert err == "error: secret key file line 1: expected name=value\n"

    def test_hex_literal_with_bad_digits_exits_2(self, workdir, capsys):
        keygen(workdir)
        path = workdir / "secret.key"
        TestInvalidKeys.replace_line(path, "alpha1", "0xZZ")
        err = self.run_clean(workdir, ["validate", "--secret", str(path)], 2, capsys)
        assert err == "error: secret key file: alpha1 is not a hexadecimal float literal\n"

    def test_one_byte_image_exits_2(self, workdir, capsys):
        (workdir / "one.pgm").write_bytes(b"P")
        argv = ["attack", "--image", str(workdir / "one.pgm"), "--out", str(workdir / "curve.csv")]
        assert self.run_clean(workdir, argv, 2, capsys) == "error: not a netpbm file\n"

    def test_extract_with_collapsing_keys_exits_3(self, workdir, capsys):
        keygen(workdir)
        assert TestEmbedExtract().embed(workdir) == 0
        (workdir / "secret.key").write_text(format_secret_keys(SecretKeySet(3.0, 2.5, 0.31, 0.72)))
        argv = TestEmbedExtract().extract_argv(workdir)
        err = self.run_clean(workdir, argv, 3, capsys)
        assert err.startswith("error: position stream could not be regenerated: ")

    @pytest.mark.parametrize("command", ["exchange-sim", "validate"])
    def test_empty_key_path_is_read_not_skipped(self, workdir, command, capsys):
        # An empty --bob or --pub is a path like any other: it must not fall
        # back to Alice's keys or skip the public file.
        keygen(workdir)
        secret = str(workdir / "secret.key")
        if command == "exchange-sim":
            argv = ["exchange-sim", "--alice", secret, "--bob", "", "--pub", str(workdir / "public.key"),
                    "--out", str(workdir / "out.txt")]
        else:
            argv = ["validate", "--secret", secret, "--pub", ""]
        assert self.run_clean(workdir, argv, 2, capsys) == "error: cannot read : Is a directory\n"

    @pytest.mark.parametrize("argv", [
        ["exchange-sim", "--rows", "0"],
        ["bifurcation", "--alpha-min", "0.6", "--alpha-max", "1.9", "--alpha-steps", "3",
         "--x0", "0.3", "--transient", "-1"],
        # map_step refuses alphas above 2**511: the scan refuses them even with nothing to iterate.
        ["bifurcation", "--alpha-min", "0.6", "--alpha-max", "1e300", "--alpha-steps", "5",
         "--x0", "0.3", "--transient", "0", "--samples", "0"],
    ], ids=["exchange-sim-rows", "bifurcation-transient", "bifurcation-alpha-max"])
    def test_out_of_domain_number_exits_2(self, workdir, argv, capsys):
        keygen(workdir)
        if argv[0] == "exchange-sim":
            argv = [*argv, "--alice", str(workdir / "secret.key"), "--pub", str(workdir / "public.key")]
        self.run_clean(workdir, [*argv, "--out", str(workdir / "out.txt")], 2, capsys)
