"""The runtime dependencies stay numpy and click: every module that a file of
the package imports is in the standard library, numpy, click or dst_lab. And
one module of the package starts processes and reads the CPU count,
``workers.py``, through its one entry point; one pauses the cycle collector,
``cli.py``, whose commands and helpers, like the corpus readers, leave their
data and OS failures to the one rule in ``main``; one words where an input
file's fault is, ``jsonio.py``; and one tunes the C library's heap,
``__init__.py``."""

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


def test_workers_has_one_entry_point_and_the_package_imports_only_it():
    # a second pool entry point, with its own process count, would come back here
    package = Path(dst_lab.__file__).parent
    tree = ast.parse((package / "workers.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public == ["share_out"]
    imported = {
        f"{path.relative_to(package).as_posix()}: {alias.name}"
        for path in package.rglob("*.py")
        for node in _nodes(path)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[-1] == "workers"
        for alias in node.names
    }
    assert imported == {"cli.py: share_out", "neural/gradcheck.py: share_out", "neural/probe.py: share_out"}
    assert not any(
        isinstance(node, ast.alias) and node.name.split(".")[-1] == "workers"
        for path in package.rglob("*.py")
        for node in _nodes(path)
    )


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


def _names_mallopt(path: Path) -> bool:
    """Whether ``path`` has a name, attribute or string ``mallopt``, as in ``getattr(libc, "mallopt")``."""
    for node in _nodes(path):
        if isinstance(node, ast.Constant) and node.value == "mallopt":
            return True
    return "mallopt" in set(_names(path))


def test_one_module_of_the_package_tunes_the_heap():
    # process-level runtime settings are made once, at import
    package = Path(dst_lab.__file__).parent
    tuning = {path.relative_to(package).as_posix() for path in package.rglob("*.py") if _names_mallopt(path)}
    assert tuning == {"__init__.py"}


# the failures that ``main`` turns into one ``Error:`` line and exit 1
MAIN_FAILURES = {"CorpusFormatError", "JsonInputError", "TrainingDivergence", "OSError"}
# each function that catches one of them, with those it catches: main's rule
# itself; the two functions that make a fault of an option's file or path a
# usage error (exit 2); the feature-file loop, which skips a dialogue whose
# file is absent and re-raises any other OSError; and the sidecar reader,
# whose header fault becomes a fault at the header's byte offset
MAPPERS = {
    "cli.py: _Main.invoke": MAIN_FAILURES,
    "cli.py: _read_option_file": {"OSError", "JsonInputError"},
    "cli.py: _check_out": {"OSError"},
    "corpus.py: _attach_features": {"OSError"},
    "corpus.py: read_feature_sidecar": {"JsonInputError"},
}


def _handlers(node: ast.AST, where: str):
    """(innermost function or method around it, handler) for each except clause under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _handlers(child, f"{where}.{child.name}" if where else child.name)
            continue
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            yield where, child
        yield from _handlers(child, where)


def test_no_command_maps_a_failure_that_main_maps():
    # a copy of main's failure rule in a command, one of its helpers or a reader would come back here
    package = Path(dst_lab.__file__).parent
    caught: dict[str, set[str]] = {}
    for module in ("cli.py", "corpus.py", "state_codec.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        for where, handler in _handlers(tree, ""):
            names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(handler.type)}
            if names & MAIN_FAILURES:
                caught.setdefault(f"{module}: {where or '<module>'}", set()).update(names & MAIN_FAILURES)
            if module != "cli.py" and "OSError" in names:  # only main's rule and the usage errors map one
                assert all(node.exc is None for node in ast.walk(handler) if isinstance(node, ast.Raise)), where
    assert caught == MAPPERS


LOCATIONS = {"line", "column", "offset"}


def _located_names(path: Path) -> set[str]:
    """The variables of ``path`` that hold a location: those with ``line``,
    ``column`` or ``offset`` as a word of their name (``line_no``,
    ``first_line``), and those set from a ``.line``, ``.column`` or
    ``.offset``, from a ``read_lines`` call (a loop over lines that carry
    their numbers would bind one) or from another such variable, as a loop
    over ``(("offset", offset),)`` sets its targets."""
    bindings = []
    for node in _nodes(path):
        if isinstance(node, ast.Assign):
            bindings.append((node.targets, node.value))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
            bindings.append(([node.target], node.value))
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append(([node.target], node.iter))
    located = {name.id for name in _nodes(path) if isinstance(name, ast.Name) and _names_a_location(name.id)}
    while True:
        more = {
            name.id
            for targets, value in bindings
            if _holds_a_location(value, located)
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name)
        } - located
        if not more:
            return located
        located |= more


def _names_a_location(name: str) -> bool:
    return not LOCATIONS.isdisjoint(name.split("_"))


def _holds_a_location(expr: ast.AST, located: set[str]) -> bool:
    return any(
        isinstance(n, ast.Attribute) and (n.attr in LOCATIONS or n.attr == "read_lines")
        or isinstance(n, ast.Name) and (n.id in located or n.id == "read_lines")
        for n in ast.walk(expr)
    )


def _formats_a_location(path: Path) -> bool:
    """Whether ``path`` formats a location (see :func:`_located_names`) into
    text, by an f-string, ``%`` or ``str.format``."""
    located = _located_names(path)
    for node in _nodes(path):
        if isinstance(node, ast.FormattedValue):
            parts = [node.value]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            parts = [node.right]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "format":
            parts = [*node.args, *(keyword.value for keyword in node.keywords)]
        else:
            continue
        if any(_holds_a_location(part, located) for part in parts):
            return True
    return False


def test_one_module_of_the_package_words_where_an_input_fault_is():
    # a reader's own location format would come back here
    package = Path(dst_lab.__file__).parent
    locating = {path.relative_to(package).as_posix() for path in package.rglob("*.py") if _formats_a_location(path)}
    assert locating == {"jsonio.py"}
