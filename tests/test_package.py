"""The package root exports exactly the names README's "Library use" shows,
every name it lists under a module exists there, its shell examples are
valid invocations, each module uses what it imports, the CLI keeps paths
as strings, only ``_native`` builds, loads or checks C, declares every C function
it exports and falls back without any one of them, every C source ships
with the package, and the benchmark evidence at the repository root comes
in complete, paired files."""

import ast
import importlib
import json
import re
import shlex
import tomllib
import types
from pathlib import Path

import pytest

import chaostego
from chaostego import _native, cli
from conftest import native_source_copy

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_root_names_match_readme_library_use():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"\bct\.(\w+)", block))
    exported = {name for name, value in vars(chaostego).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == documented


def readme_module_names():
    """{module: names} for each ``chaostego.<module>`` (`name`, ...) entry
    in README's "Library use"."""
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`chaostego\.(\w+)`\s*\(([^)]*)\)", section)
    return {module: set(re.findall(r"`(\w+)`", names)) for module, names in listed}


def test_readme_module_names_exist():
    listed = readme_module_names()
    assert set(listed) == {"codec", "imagery", "keymat", "analysis"}
    for module, names in listed.items():
        attributes = vars(importlib.import_module(f"chaostego.{module}"))
        for name in names:
            assert name in attributes, f"README lists chaostego.{module}.{name}"


def test_every_import_is_used_or_listed():
    # The unused-import rule of a linter, which the project does not use:
    # each package module other than __init__ must use every name it
    # imports, or README's "Library use" must list the name under it.
    listed = readme_module_names()
    for path in sorted(Path(chaostego.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - listed.get(path.stem, set())
        assert not unused, f"chaostego.{path.stem} imports {sorted(unused)} and never uses them"


def packages_imported(path: Path) -> set[str]:
    """The top-level packages the module at ``path`` imports by absolute name."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def test_only_native_builds_or_loads_compiled_code():
    # Building, loading and trusting the C source is chaostego._native's
    # policy alone: every other module takes its kernels from
    # _native.kernels(), checked, and never from _native.library() or
    # through an array's .ctypes pointer.
    machinery = {"ctypes", "subprocess", "tempfile", "shutil"}
    for path in sorted(Path(chaostego.__file__).parent.glob("*.py")):
        if path.stem == "_native":
            continue
        imported = packages_imported(path)
        assert not imported & machinery, f"chaostego.{path.stem} imports {sorted(imported & machinery)}"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "ctypes", f"chaostego.{path.stem} reads .ctypes at line {node.lineno}"
                library = node.attr == "library" and isinstance(node.value, ast.Name) and node.value.id == "_native"
                assert not library, f"chaostego.{path.stem} names _native.library at line {node.lineno}"


def test_cli_keeps_paths_as_strings():
    # The CLI opens, stats and renames argv paths as the strings they are;
    # a pathlib object would exist only to be converted back.
    assert "pathlib" not in packages_imported(Path(cli.__file__))


def readme_commands():
    """Every ``chaostego ...`` command line in README's ``sh`` blocks, with
    backslash continuations joined and comments dropped, as an argv list."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["chaostego"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_name_real_subcommands_and_flags():
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert argv[0] in cli._COMMANDS, f"README runs chaostego {argv[0]}"
        flags = {flag for flag, _ in cli._COMMANDS[argv[0]][2]}
        for token in argv[1:]:
            if token.startswith("-"):
                assert token in flags, f"README passes {token} to chaostego {argv[0]}"
        cli._build_parser().parse_args(argv)  # raises on a usage error


def test_every_c_source_is_package_data():
    # The kernels build from their sources at run time: a wheel without one
    # silently runs its numpy or Python fallback.  The tests import from
    # src/, so only this check sees a missing entry.
    listed = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["setuptools"]["package-data"]["chaostego"]
    sources = {path.name for path in (ROOT / "src" / "chaostego").glob("*.c")}
    assert sources and sources <= set(listed), f"package-data lacks {sorted(sources - set(listed))}"


def exported_c_functions() -> dict[str, str]:
    """Each function ``_native.c`` exports, by name, with its definition's
    first line up to the opening parenthesis."""
    source = _native._SOURCE.read_text()
    return {m[1]: m[0] for m in re.finditer(r"^(?!static\b)[a-z]\w*(?: \**\w+)*? \**(\w+)\(", source, re.M)}


def test_native_declares_exactly_the_exported_c_functions():
    # A kernel that _native.library() does not declare is called with
    # ctypes' default int arguments; a declaration left for a kernel that
    # is gone makes every load fall back.
    exported = set(exported_c_functions())
    library = next(node for node in ast.walk(ast.parse(Path(_native.__file__).read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "library")
    declared = {"argtypes": set(), "restype": set()}
    for node in ast.walk(library):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            declared.get(node.attr, set()).add(node.value.attr)
    assert exported >= {"orbit", "count_values", "count_differences", "pair_sums", "gamma_expansions"}
    assert declared["argtypes"] == declared["restype"] == exported


@pytest.mark.parametrize("name", sorted(exported_c_functions()))
def test_library_lacking_a_kernel_falls_back(name, tmp_path, monkeypatch, uncached_library):
    # A stale _native.py beside a newer _native.c: every command must fall
    # back to Python or numpy, not crash on the missing symbol.
    head = exported_c_functions()[name]
    monkeypatch.setattr(_native, "_SOURCE", native_source_copy(tmp_path, "\n" + head, "\nstatic " + head))
    assert _native.library() is None
    assert _native.kernels.__wrapped__() is None


def test_bench_files_are_named_correct_and_paired():
    # A speed claim counts only from paired perfbench runs of one change,
    # saved as BENCH_<change>_<parent|change>_<workload>_<seed>.json.
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    pattern = re.compile(r"BENCH_(\d+)_(parent|change)_(%s)_(\d+)\.json" % "|".join(map(re.escape, workloads)))
    runs = set()
    for path in sorted(ROOT.glob("BENCH_*.json")):
        match = pattern.fullmatch(path.name)
        assert match, f"{path.name}: not BENCH_<change>_<parent|change>_<workload>_<seed>.json"
        result = json.loads(path.read_text().strip().splitlines()[-1])
        assert result["correct"] is True, f"{path.name}: correct is not true"
        runs.add(match.groups())
    for change, side, workload, seed in runs:
        partner = "change" if side == "parent" else "parent"
        name = f"BENCH_{change}_{side}_{workload}_{seed}.json"
        assert (change, partner, workload, seed) in runs, f"{name} has no {partner} run"
