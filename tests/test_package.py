"""The package root exports exactly the names README's "Library use" shows."""

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
