"""Every name imported by the package and the tests is used.

No lint tool runs with the test suite, so this stdlib-only scan is the check:
a module fails if it imports a name that it never reads.  Names listed in
``__all__`` count as read, and ``from __future__`` imports are not names.
The package also stays off the rational-arithmetic modules of the standard
library, which its Gaussian-integer scalars do not need.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [*(ROOT / "src" / "tbhl").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def unused_imports(source: str) -> list[str]:
    """Imported names that ``source`` never reads, with their line numbers."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {item.value for item in node.value.elts}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    )


def test_scanner_on_a_sample():
    sample = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json\n"
        "from typing import Iterable, Mapping, Sequence\n"
        "from x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Iterable) -> Mapping[str, int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(sample) == [
        "Sequence (line 4)",
        "json (line 3)",
        "osp (line 2)",
    ]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_imports_no_rational_arithmetic():
    # a fresh interpreter, so modules the test run has loaded do not count
    probe = (
        "import sys, tbhl.cli_verify; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"
