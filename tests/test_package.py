"""The package's public names resolve, and the README's code blocks run.

A name deleted from a module but still listed in ``__all__`` or still
imported in the README's "Library entry points" block fails here, and so
does a change to the snapshot API that the README's snapshot usage misses.
"""

import re
from pathlib import Path

import powerlaw_hpo

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in powerlaw_hpo.__all__ if not hasattr(powerlaw_hpo, name)]
    assert missing == []


def _run_readme_block(after: str) -> None:
    """Execute the first ``python`` code block of README.md that follows ``after``."""
    section = README.read_text(encoding="utf-8").split(after, 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name}: {after}", "exec"), {})


def test_readme_library_block_imports():
    _run_readme_block("## Library entry points")


def test_readme_snapshot_block_runs():
    _run_readme_block("Ensemble snapshots (")
