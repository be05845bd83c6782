"""The package root exports exactly the names README's "Library use" shows,
every name it lists under a module exists there, and its shell examples
are valid invocations."""

import importlib
import re
import shlex
import types
from pathlib import Path

import chaostego
from chaostego import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_root_names_match_readme_library_use():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"\bct\.(\w+)", block))
    exported = {name for name, value in vars(chaostego).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == documented


def test_readme_module_names_exist():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`chaostego\.(\w+)`\s*\(([^)]*)\)", section)
    assert {module for module, _ in listed} == {"codec", "imagery", "keymat", "analysis"}
    for module, names in listed:
        attributes = vars(importlib.import_module(f"chaostego.{module}"))
        for name in re.findall(r"`(\w+)`", names):
            assert name in attributes, f"README lists chaostego.{module}.{name}"


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
