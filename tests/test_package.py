"""The package's public names resolve, and the README's import block runs.

A name deleted from a module but still listed in ``__all__`` or still
imported in the README's "Library entry points" block fails here.
"""

import re
from pathlib import Path

import powerlaw_hpo

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in powerlaw_hpo.__all__ if not hasattr(powerlaw_hpo, name)]
    assert missing == []


def test_readme_library_block_imports():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name}: Library entry points", "exec"), {})
