"""The repository maps in DESIGN.md and README.md name what exists.

- **WHEN** a package is added to or deleted from ``src/repro``
- **THEN** DESIGN.md §7 and README's "Architecture" block must list
  exactly the package directories, or this test fails
- **WHEN** a subcommand is added to or deleted from ``build_parser()``
- **THEN** README's ``python -m repro run|compare|...`` line must list
  exactly the parser's subcommands
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _packages() -> set[str]:
    return {p.parent.name for p in SRC.glob("*/__init__.py")}


def _code_block_after(path: Path, heading: str) -> str:
    """The first fenced code block under the markdown ``heading``."""
    text = path.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    block = re.search(r"```\n(.*?)```", text[start:], re.S)
    assert block is not None, f"no code block under {heading!r} in {path.name}"
    return block.group(1)


def _mapped_packages(block: str) -> set[str]:
    """The ``<pkg>/`` entries one level under ``src/repro/`` in a tree."""
    return set(re.findall(r"^  (\w+)/", block, re.M))


def _subcommands() -> set[str]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def test_design_layout_names_every_package():
    block = _code_block_after(ROOT / "DESIGN.md", "## 7. Repository layout")
    assert _mapped_packages(block) == _packages()


def test_readme_architecture_names_every_package():
    block = _code_block_after(ROOT / "README.md", "## Architecture")
    assert _mapped_packages(block) == _packages()


def test_readme_cli_line_names_every_subcommand():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (line,) = re.findall(r"`python -m repro ([a-z|-]+)`", text)
    assert set(line.split("|")) == _subcommands()
