"""The runtime dependencies stay numpy and click: every module that a file of
the package imports is in the standard library, numpy, click or dst_lab."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import dst_lab

ALLOWED = {"numpy", "click", "dst_lab"}


def _imported_top_levels(path: Path):
    """Top-level name of every absolute import in ``path``; relative imports stay in dst_lab."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_numpy_and_click():
    package = Path(dst_lab.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert package / "cli.py" in sources and package / "neural" / "layers.py" in sources
    outside = {
        f"{path.relative_to(package)}: {name}"
        for path in sources
        for name in _imported_top_levels(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED
    }
    assert outside == set()
