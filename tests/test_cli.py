"""Command-line behavior: exit codes, file outputs, determinism."""

import argparse
import errno
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chaostego
from chaostego import cli
from chaostego.cli import run
from chaostego.codec import embed, encode_message
from chaostego.imagery import load_pnm, save_pbm, save_pnm
from chaostego.keymat import format_public_key, parse_public_key, parse_secret_keys
from conftest import random_image


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
    """A known subcommand parses with its own parser only; help text, usage
    errors and exit codes stay those of the full parser tree."""

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

    def test_module_entry_point_reads_sys_argv(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(chaostego.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-m", "chaostego.cli", "embed", "--help"],
                               env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0
        assert child.stderr == ""
        assert child.stdout == full_tree_subparser("embed").format_help()


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
    def test_unwritable_output_exits_2_and_writes_nothing(self, bundle, command, target, capsys):
        if target == "missing-dir":
            bad = bundle / "missing" / "out"
        else:  # a directory in the way; embed meets it at its third file
            bad = bundle / "blocked"
            for name in ("blocked", "blocked.zeros.pbm"):
                (bundle / name).mkdir()
        before = snapshot(bundle)
        capsys.readouterr()
        assert run(self.failing_argv(bundle, command, str(bad))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err
        assert snapshot(bundle) == before

    @pytest.mark.parametrize("case", ["keygen", "keygen-symlink", "embed"])
    def test_outputs_naming_one_file_exit_2_and_write_nothing(self, bundle, case, capsys):
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
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err
        assert snapshot(bundle) == before

    def test_embed_whose_last_write_fails_keeps_pub(self, bundle, monkeypatch, capsys):
        pub = bundle / "public.key"
        pub.write_text(pub.read_text().splitlines()[0] + "\n")  # no mode tag yet
        before = snapshot(bundle)
        opened = []

        def open_fourth_fails(path, mode):
            opened.append(path)
            if len(opened) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return open(path, mode)

        monkeypatch.setattr(cli, "open", open_fourth_fails, raising=False)
        assert run(TestEmbedExtract().embed_argv(bundle, out="again")) == 2
        assert capsys.readouterr().err == f"error: cannot write {pub}: No space left on device\n"
        assert snapshot(bundle) == before

    def test_success_leaves_no_temp_file(self, bundle):
        names = sorted(p.name for p in bundle.iterdir())
        assert not [n for n in names if n.endswith(".tmp")]
        assert {"stego.pgm", "stego.ones.pbm", "stego.zeros.pbm"} <= set(names)

    def test_interrupted_write_leaves_no_temp_file(self, bundle, monkeypatch):
        before = snapshot(bundle)
        opened = []

        def open_second_interrupts(path, mode):
            opened.append(path)
            if len(opened) == 2:
                raise KeyboardInterrupt
            return open(path, mode)

        monkeypatch.setattr(cli, "open", open_second_interrupts, raising=False)
        with pytest.raises(KeyboardInterrupt):
            run(TestEmbedExtract().embed_argv(bundle, out="again"))
        assert snapshot(bundle) == before

    def test_existing_output_keeps_its_mode(self, tmp_path):
        keygen(tmp_path, seed=11)
        secret = tmp_path / "secret.key"
        secret.chmod(0o600)
        old = secret.read_bytes()
        keygen(tmp_path, seed=12)
        assert secret.read_bytes() != old
        assert stat.S_IMODE(secret.stat().st_mode) == 0o600

    def test_symlinked_output_is_written_through(self, tmp_path):
        real = tmp_path / "keys" / "public.key"
        real.parent.mkdir()
        real.write_text("old\n")
        link = tmp_path / "public.link"
        link.symlink_to(real)
        assert run(["keygen", "--out", str(tmp_path / "secret.key"),
                    "--pub", str(link), "--seed", "3"]) == 0
        assert link.is_symlink()
        parse_public_key(real.read_text())
        assert sorted(p.name for p in real.parent.iterdir()) == ["public.key"]

    def test_fifo_output_is_written_through(self, bundle):
        fifo = bundle / "recovered.fifo"
        os.mkfifo(fifo)
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
