"""The package's public names resolve, and the README's code blocks run.

A name deleted from a module but still listed in ``__all__`` or still
imported in the README's "Library entry points" block fails here, and so
does a benchmark hook that the README's "Refactor gate" list omits.
"""

import re
import sys
from pathlib import Path

import powerlaw_hpo

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import Tracer  # noqa: E402


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


def test_readme_refactor_gate_lists_every_hooked_name():
    gate = README.read_text(encoding="utf-8").split("## Refactor gate", 1)[1].split("\n## ", 1)[0]
    hooked = {key for _, key, _ in Tracer().replacements()}
    missing = sorted(k for k in hooked if not re.search(rf"`(\w+\.)*{re.escape(k)}`", gate))
    assert missing == []


def test_input_rules_have_one_owner():
    # the wording of the shared count, JSON-number and structural checks lives
    # in benchmarks.py; a module that spells it out again holds a second copy
    package = ROOT / "src" / "powerlaw_hpo"
    rules = (r"must be an integer|must be a number"
             r"|: missing|must be a list|must be an object|unknown field")
    copies = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "benchmarks.py" and re.search(rules, path.read_text(encoding="utf-8"))
    )
    assert copies == []
