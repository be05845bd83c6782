"""The package root exports exactly the names README's "Library use" shows,
and every name it lists under a module exists there."""

import importlib
import re
import types
from pathlib import Path

import chaostego

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
