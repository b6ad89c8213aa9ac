"""The runtime dependencies stay numpy and click: every module that a file of
the package imports is in the standard library, numpy, click or dst_lab. And
one module of the package starts processes and reads the CPU count,
``workers.py``, and one pauses the cycle collector, ``cli.py``, whose commands
leave their data and OS failures to the one rule in ``main``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import dst_lab

ALLOWED = {"numpy", "click", "dst_lab"}
POOL_NAMES = {"ProcessPoolExecutor", "multiprocessing", "get_context"}
CPU_COUNT_NAMES = {"sched_getaffinity", "cpu_count"}


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _imported_top_levels(path: Path):
    """Top-level name of every absolute import in ``path``; relative imports stay in dst_lab."""
    for node in _nodes(path):
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


def _names(path: Path):
    """Every variable, attribute and imported name in ``path``, and each part of an imported module."""
    for node in _nodes(path):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def test_one_module_of_the_package_names_a_process_pool():
    package = Path(dst_lab.__file__).parent
    naming = {path.relative_to(package).as_posix() for path in package.rglob("*.py") if POOL_NAMES & set(_names(path))}
    assert naming == {"workers.py"}


def test_one_module_of_the_package_reads_the_cpu_count():
    # so the number of processes has one rule
    package = Path(dst_lab.__file__).parent
    reading = {path.relative_to(package).as_posix() for path in package.rglob("*.py") if CPU_COUNT_NAMES & set(_names(path))}
    assert reading == {"workers.py"}


def _pauses_the_collector(path: Path) -> bool:
    """Whether ``path`` names ``gc.disable`` or ``gc.enable``, or imports from ``gc``."""
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in ("disable", "enable"):
            if isinstance(node.value, ast.Name) and node.value.id == "gc":
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            return True
    return False


def test_one_module_of_the_package_pauses_the_cycle_collector():
    # the CLI pauses it once per command; a pause per reader would come back here
    package = Path(dst_lab.__file__).parent
    pausing = {path.relative_to(package).as_posix() for path in package.rglob("*.py") if _pauses_the_collector(path)}
    assert pausing == {"cli.py"}


# the failures that ``main`` turns into one ``Error:`` line and exit 1
MAIN_FAILURES = {"CorpusFormatError", "PredictionFileError", "TrainingDivergence", "OSError"}


def test_no_command_maps_a_failure_that_main_maps():
    # a per-command copy of main's failure rule would come back here
    tree = ast.parse((Path(dst_lab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 5
    caught = {
        f"{command.name}: {name.id}"
        for command in commands
        for handler in ast.walk(command)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name) and name.id in MAIN_FAILURES
    }
    assert caught == set()
